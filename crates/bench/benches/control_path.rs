//! Control-path microbenchmarks: command → completion PDU round-trips
//! over the in-region ring transport,
//! comparing the seed-style per-frame path (owned `Bytes` per hop)
//! against the batched hot path (scratch `encode_into` + `send_frame` +
//! borrowed `recv_batch` drain), plus an allocations-per-op probe via a
//! counting global allocator. `control/initiator` times the real state
//! machines: one QD32 submit → `poll_into` cycle of an `Initiator`
//! against a `TargetConnection` over a `ShmTransport` pair.
//!
//! Both roles run on the bench thread: the numbers isolate codec + ring
//! cost per round trip, not thread wake-up latency.
//!
//! Run:    cargo bench -p oaf-bench --bench control_path
//! Smoke:  cargo bench -p oaf-bench --bench control_path -- --test

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::time::Duration;

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, IoResult};
use oaf_nvmeof::nvme::command::NvmeCommand;
use oaf_nvmeof::nvme::completion::NvmeCompletion;
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::pdu::{CapsuleCmd, CapsuleResp, DataRef, Pdu};
use oaf_nvmeof::target::{TargetConfig, TargetConnection};
use oaf_nvmeof::transport::{queue_pdu, ShmTransport, Transport};

/// Counts allocations on the bench thread when tracking is on;
/// delegates to [`System`]. Thread-local so criterion's own helper
/// threads don't pollute the per-op numbers.
struct CountingAlloc;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn cmd_pdu(cid: u16) -> Pdu {
    Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::write(cid, 1, 1024, 32),
        data: Some(DataRef::ShmSlot {
            slot: 5,
            len: 131072,
        }),
    })
}

fn resp_pdu(cid: u16) -> Pdu {
    Pdu::CapsuleResp(CapsuleResp {
        completion: NvmeCompletion::ok(cid),
    })
}

/// The one frame `t` has ready, copied out into an owned buffer.
fn recv_owned<T: Transport>(t: &T) -> Bytes {
    let mut got = None;
    t.recv_batch(&mut |frame| got = Some(frame.into_bytes()))
        .expect("recv");
    got.expect("frame ready")
}

/// Seed-style round trip: every hop materializes an owned frame.
fn roundtrip_owned<T: Transport>(client: &T, target: &T) {
    client.send_frame(&cmd_pdu(7).encode()).expect("send cmd");
    let frame = recv_owned(target);
    let cid = match Pdu::decode(frame).expect("decode cmd") {
        Pdu::CapsuleCmd(c) => c.cmd.cid,
        other => panic!("unexpected pdu: {other:?}"),
    };
    target
        .send_frame(&resp_pdu(cid).encode())
        .expect("send resp");
    let frame = recv_owned(client);
    match Pdu::decode(frame).expect("decode resp") {
        Pdu::CapsuleResp(_) => {}
        other => panic!("unexpected pdu: {other:?}"),
    }
}

/// Hot-path round trip at queue depth `qd`: scratch encode, borrowed
/// batched drain on both sides, zero steady-state allocations on ring
/// transports.
fn roundtrip_batched<T: Transport>(
    client: &T,
    target: &T,
    c_scratch: &mut BytesMut,
    t_scratch: &mut BytesMut,
    qd: u16,
) {
    for cid in 0..qd {
        c_scratch.clear();
        cmd_pdu(cid).encode_into(c_scratch);
        client.send_frame(c_scratch).expect("send cmd");
    }
    let served = target
        .recv_batch(&mut |frame| {
            let cid = match Pdu::decode_slice(frame.as_slice()).expect("decode cmd") {
                Pdu::CapsuleCmd(c) => c.cmd.cid,
                other => panic!("unexpected pdu: {other:?}"),
            };
            t_scratch.clear();
            resp_pdu(cid).encode_into(t_scratch);
            target.send_frame(t_scratch).expect("send resp");
        })
        .expect("target drain");
    assert_eq!(served, qd as usize);
    let completed = client
        .recv_batch(
            &mut |frame| match Pdu::decode_slice(frame.as_slice()).expect("decode resp") {
                Pdu::CapsuleResp(_) => {}
                other => panic!("unexpected pdu: {other:?}"),
            },
        )
        .expect("client drain");
    assert_eq!(completed, qd as usize);
}

fn bench_roundtrips(c: &mut Criterion) {
    let mut g = c.benchmark_group("control/roundtrip");

    let label = "shm";
    let (client, target) = ring_pair();
    g.throughput(Throughput::Elements(1));
    g.bench_function(BenchmarkId::new("per-frame", label), |b| {
        b.iter(|| roundtrip_owned(&client, &target))
    });

    let mut c_scratch = BytesMut::with_capacity(512);
    let mut t_scratch = BytesMut::with_capacity(512);
    g.bench_function(BenchmarkId::new("batched-qd1", label), |b| {
        b.iter(|| roundtrip_batched(&client, &target, &mut c_scratch, &mut t_scratch, 1))
    });

    for qd in [16u16, 64] {
        g.throughput(Throughput::Elements(qd as u64));
        g.bench_function(BenchmarkId::new(format!("batched-qd{qd}"), label), |b| {
            b.iter(|| roundtrip_batched(&client, &target, &mut c_scratch, &mut t_scratch, qd))
        });
    }
    g.finish();
}

/// The target half of [`bench_initiator`]: a [`TargetConnection`] over
/// its end of the ring pair, pumped the way the reactor's serve pass
/// runs it (drain, execute, queue the answers, one flush).
struct Target {
    transport: ShmTransport,
    conn: TargetConnection,
    ctrl: Controller,
    out: Vec<Pdu>,
    scratch: BytesMut,
}

impl Target {
    fn pump(&mut self) {
        let Target {
            transport,
            conn,
            ctrl,
            out,
            scratch,
        } = self;
        transport
            .recv_batch(&mut |frame| conn.handle(frame, ctrl, out).expect("target handle"))
            .expect("target drain");
        for pdu in out.drain(..) {
            queue_pdu(&*transport, &pdu, scratch).expect("target queue");
        }
        transport.flush_queued().expect("target flush");
    }
}

/// One QD32 submit → `poll_into` cycle of a real [`Initiator`] against
/// a [`TargetConnection`] over a [`ShmTransport`] pair (RAM namespace,
/// 16 4 KiB reads + 16 4 KiB in-capsule writes). Time per element is
/// the client's plus the target's CPU per command — the layer number
/// under `inregion_4k_qd32`'s iops, without the payload channel.
fn bench_initiator(c: &mut Criterion) {
    const QD: usize = 32;
    const BS: usize = 4096;
    let (client_tr, target_tr) = ShmTransport::pair(256 * 1024);
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::new(1, BS as u32, 1024));
    let mut target = Target {
        transport: target_tr,
        conn: TargetConnection::new(TargetConfig::default(), None),
        ctrl,
        out: Vec::new(),
        scratch: BytesMut::with_capacity(8 * 1024),
    };
    // `connect` blocks on the handshake, so it runs on a helper thread
    // while this one serves it.
    let mut client = std::thread::scope(|s| {
        let connecting = s.spawn(|| {
            Initiator::connect(
                client_tr,
                InitiatorOptions::default(),
                None,
                Duration::from_secs(5),
            )
        });
        while !connecting.is_finished() {
            target.pump();
            std::thread::yield_now();
        }
        connecting.join().expect("connect thread").expect("connect")
    });
    let payload = Bytes::from(vec![0x5au8; BS]);
    let mut done: Vec<IoResult> = Vec::with_capacity(QD);
    let mut lba = 0u64;
    let mut cycle = || {
        for i in 0..QD {
            lba = (lba + 1) % 1024;
            if i % 2 == 0 {
                client.submit_read(1, lba, 1, BS).expect("submit read");
            } else {
                client
                    .submit_write(1, lba, 1, payload.clone())
                    .expect("submit write");
            }
        }
        let mut completed = 0;
        while completed < QD {
            target.pump();
            completed += client.poll_into(&mut done).expect("poll");
            assert!(done.iter().all(|r| r.status.is_ok()));
            done.clear();
        }
    };
    let mut g = c.benchmark_group("control/initiator");
    g.throughput(Throughput::Elements(QD as u64));
    g.bench_function(BenchmarkId::new("submit-poll-qd32", "shm"), |b| {
        b.iter(&mut cycle)
    });
    g.finish();
}

/// The ring pair every round-trip row runs over.
fn ring_pair() -> (ShmTransport, ShmTransport) {
    ShmTransport::pair(256 * 1024)
}

/// Measures allocations per round trip for each path and prints them —
/// the bench-visible counterpart of the `zero_alloc` regression test.
fn report_allocations(_c: &mut Criterion) {
    const OPS: u64 = 1000;
    let (client, target) = ring_pair();
    let mut c_scratch = BytesMut::with_capacity(512);
    let mut t_scratch = BytesMut::with_capacity(512);
    // Warm up ring caches and scratch capacities off the books.
    for _ in 0..64 {
        roundtrip_owned(&client, &target);
        roundtrip_batched(&client, &target, &mut c_scratch, &mut t_scratch, 1);
    }

    let measure = |f: &mut dyn FnMut()| -> f64 {
        TRACK.with(|t| t.set(true));
        ALLOCS.with(|c| c.set(0));
        for _ in 0..OPS {
            f();
        }
        TRACK.with(|t| t.set(false));
        ALLOCS.with(Cell::get) as f64 / OPS as f64
    };
    let owned = measure(&mut || roundtrip_owned(&client, &target));
    let batched =
        measure(&mut || roundtrip_batched(&client, &target, &mut c_scratch, &mut t_scratch, 1));
    eprintln!("control_path allocations per round trip:");
    eprintln!("  shm: per-frame {owned:.2} allocs/op, batched {batched:.2} allocs/op");
}

criterion_group!(
    benches,
    bench_roundtrips,
    bench_initiator,
    report_allocations
);
criterion_main!(benches);
