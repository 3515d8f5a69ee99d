//! Isolated layer probes: single-threaded timed calls into each layer's
//! public functions at the workload's I/O size, run before the live
//! traced session so nothing else competes for the cores.
//!
//! Each probe repeats a small batch until its time budget is spent and
//! reports the median batch, so one scheduler hiccup does not own the
//! number.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use nvme_oaf::nvmeof::nvme::command::NvmeCommand;
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::payload::PayloadChannel;
use nvme_oaf::nvmeof::pdu::{CapsuleCmd, DataPdu, DataRef, ICReq, Pdu};
use nvme_oaf::nvmeof::target::{TargetConfig, TargetConnection};
use nvme_oaf::nvmeof::tcp::{TcpConfig, TcpTransport};
use nvme_oaf::nvmeof::transport::{Frame, ShmTransport, Transport};
use nvme_oaf::oaf::payload_impl::ShmPayloadChannel;
use nvme_oaf::shmem::channel::{ShmChannel, Side};
use nvme_oaf::ssd::BlockStore;
use nvme_oaf::store::FileDisk;
use nvme_oaf::telemetry::{Counter, Histo};

use crate::catalog::{Backend, Workload};
use crate::gen::{OpGen, Pattern, BLOCK};
use crate::hist::{median, Hist};
use crate::session::{DataFile, Dirs};

/// Blocks behind the target/controller/store probes (16 MiB).
const PROBE_BLOCKS: u64 = 4096;

/// Median nanoseconds per iteration of `f`, which runs `batch`
/// iterations per call; at least three timed rounds after one untimed.
fn ns_per_iter(budget: Duration, batch: u64, mut f: impl FnMut()) -> f64 {
    f();
    let deadline = Instant::now() + budget;
    let mut rounds = Vec::new();
    loop {
        let t0 = Instant::now();
        f();
        rounds.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        if rounds.len() >= 3 && (Instant::now() >= deadline || rounds.len() >= 100_000) {
            break;
        }
    }
    median(&rounds).unwrap_or(0.0)
}

fn capsule_frame() -> Vec<u8> {
    let mut scratch = BytesMut::with_capacity(256);
    Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::read(7, 1, 0, 1),
        data: None,
    })
    .encode_into(&mut scratch);
    scratch.to_vec()
}

/// One frame from `tx` to `rx`, polled until it lands.
fn one_way<T: Transport>(tx: &T, rx: &T, frame: &[u8]) {
    tx.send_frame(frame).expect("probe send");
    let mut got = 0usize;
    while got == 0 {
        got = rx
            .recv_batch(&mut |f| {
                black_box(f.as_slice().len());
            })
            .expect("probe recv");
    }
}

fn ring_rt_ns(budget: Duration) -> f64 {
    let (a, b) = ShmTransport::pair(256 * 1024);
    let frame = capsule_frame();
    ns_per_iter(budget, 64, || {
        for _ in 0..64 {
            one_way(&a, &b, &frame);
            one_way(&b, &a, &frame);
        }
    })
}

fn tcp_rt_ns(budget: Duration) -> f64 {
    let Ok((a, b)) = TcpTransport::loopback_pair(TcpConfig::default()) else {
        return 0.0;
    };
    let frame = capsule_frame();
    ns_per_iter(budget, 16, || {
        for _ in 0..16 {
            one_way(&a, &b, &frame);
            one_way(&b, &a, &frame);
        }
    })
}

fn data_pdu(io_bytes: usize, pattern: &Pattern) -> Pdu {
    let mut payload = vec![0u8; io_bytes];
    pattern.fill(0, &mut payload);
    Pdu::H2CData(DataPdu {
        cid: 7,
        ttag: 1,
        offset: 0,
        last: true,
        data: DataRef::Inline(Bytes::from(payload)),
    })
}

fn tcp_stream_mib_s(budget: Duration, io_bytes: usize, pattern: &Pattern) -> f64 {
    let Ok((a, b)) = TcpTransport::loopback_pair(TcpConfig::default()) else {
        return 0.0;
    };
    let pdu = data_pdu(io_bytes, pattern);
    let mut scratch = BytesMut::with_capacity(256);
    let ns = ns_per_iter(budget, 8, || {
        for _ in 0..8 {
            scratch.clear();
            let payload = pdu
                .encode_split_into(&mut scratch)
                .expect("inline data PDU splits");
            a.send_split(&scratch, payload).expect("probe send");
            let mut got = 0usize;
            while got == 0 {
                // A large frame may park its tail in the send backlog.
                a.flush().expect("probe flush");
                got = b
                    .recv_batch(&mut |f| {
                        black_box(f.as_slice().len());
                    })
                    .expect("probe recv");
            }
        }
    });
    io_bytes as f64 / (1 << 20) as f64 / (ns / 1e9)
}

fn cmd_codec_ns(budget: Duration) -> f64 {
    let pdu = Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::read(7, 1, 4096, 1),
        data: None,
    });
    let mut scratch = BytesMut::with_capacity(256);
    ns_per_iter(budget, 256, || {
        for _ in 0..256 {
            scratch.clear();
            black_box(&pdu).encode_into(&mut scratch);
            black_box(Pdu::decode_slice(&scratch).expect("probe decode"));
        }
    })
}

fn data_codec_gib_s(budget: Duration, io_bytes: usize, pattern: &Pattern) -> f64 {
    let pdu = data_pdu(io_bytes, pattern);
    let mut scratch = BytesMut::with_capacity(io_bytes + 256);
    let ns = ns_per_iter(budget, 8, || {
        for _ in 0..8 {
            scratch.clear();
            black_box(&pdu).encode_into(&mut scratch);
            black_box(Pdu::decode_slice(&scratch).expect("probe decode"));
        }
    });
    io_bytes as f64 / (1u64 << 30) as f64 / (ns / 1e9)
}

fn lease_cycle_ns(budget: Duration, io_bytes: usize) -> f64 {
    let channel = ShmChannel::allocate(8, io_bytes);
    let client = ShmPayloadChannel::new(&channel, Side::Client);
    let target = ShmPayloadChannel::new(&channel, Side::Target);
    ns_per_iter(budget, 64, || {
        for _ in 0..64 {
            let mut lease = client.alloc(io_bytes).expect("probe lease");
            lease[0] = 1;
            let (slot, len) = client.publish_lease(lease).expect("probe publish");
            target
                .consume_with(slot, len, &mut |b| {
                    black_box(b[0]);
                })
                .expect("probe consume");
        }
    })
}

fn ram_controller(blocks: u64, pattern: &Pattern) -> Controller {
    let mut ns = Namespace::new(1, BLOCK as u32, blocks);
    // Touch every page so the probes time the device copy, not the
    // first-touch page faults.
    let mut chunk = vec![0u8; 32 * BLOCK];
    for slba in (0..blocks).step_by(32) {
        pattern.fill(slba, &mut chunk);
        assert!(ns.write(slba, 32, &chunk, false).is_ok(), "probe prefill");
    }
    let mut c = Controller::new();
    c.add_namespace(ns);
    c
}

fn target_handle_ns(budget: Duration, io_bytes: usize, pattern: &Pattern) -> f64 {
    let mut ctrl = ram_controller(PROBE_BLOCKS, pattern);
    let mut conn = TargetConnection::new(
        TargetConfig {
            // Every probe write is one in-capsule call, whatever its
            // size: service time without the R2T round trip.
            in_capsule_max: io_bytes.max(8 * 1024),
            read_chunk: io_bytes.max(128 * 1024),
            af_caps: 0,
            target_id: 2,
        },
        None,
    );
    let mut out = Vec::new();
    let icreq = Pdu::ICReq(ICReq {
        pfv: 1,
        maxr2t: 16,
        af_caps: 0,
        host_id: 1,
    });
    conn.handle(Frame::Owned(icreq.encode()), &mut ctrl, &mut out)
        .expect("probe handshake");
    let nlb = (io_bytes / BLOCK) as u32;
    let slots = PROBE_BLOCKS / u64::from(nlb);
    let mut payload = vec![0u8; io_bytes];
    let frames: Vec<Bytes> = (0..32u64)
        .map(|i| {
            let slba = (i * 7 % slots) * u64::from(nlb);
            if i % 2 == 0 {
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::read(i as u16 + 1, 1, slba, nlb),
                    data: None,
                })
                .encode()
            } else {
                pattern.fill(slba, &mut payload);
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write(i as u16 + 1, 1, slba, nlb),
                    data: Some(DataRef::Inline(Bytes::copy_from_slice(&payload))),
                })
                .encode()
            }
        })
        .collect();
    ns_per_iter(budget, frames.len() as u64, || {
        for f in &frames {
            out.clear();
            conn.handle(Frame::Borrowed(f), &mut ctrl, &mut out)
                .expect("probe handle");
            black_box(out.len());
        }
    })
}

/// A private store image shaped like the workload's backend.
fn probe_disk(
    dirs: &Dirs,
    tag: &str,
    blocks: u64,
    cache_blocks: usize,
    pattern: &Pattern,
) -> Result<(FileDisk, DataFile), String> {
    let image = DataFile::fresh(dirs, tag)?;
    let mut disk = FileDisk::create(image.path(), BLOCK as u32, blocks)
        .and_then(|d| d.with_cache(cache_blocks))
        .map_err(|e| format!("probe store: {e}"))?;
    let mut block = vec![0u8; BLOCK];
    for lba in 0..blocks {
        pattern.fill(lba, &mut block);
        disk.write(lba, 1, &block, false)
            .map_err(|e| format!("probe store prefill: {e}"))?;
    }
    disk.flush()
        .map_err(|e| format!("probe store flush: {e}"))?;
    Ok((disk, image))
}

struct ControllerProbe {
    read_ns: f64,
    write_ns: f64,
}

fn controller_probe(
    budget: Duration,
    w: &Workload,
    dirs: &Dirs,
    pattern: &Pattern,
) -> Result<ControllerProbe, String> {
    let blocks = w.blocks().min(4 * PROBE_BLOCKS);
    let (mut ctrl, _image) = match w.backend {
        Backend::Ram => (ram_controller(blocks, pattern), None),
        Backend::File { cache_blocks } => {
            let (disk, image) = probe_disk(dirs, "probe-ctrl", blocks, cache_blocks, pattern)?;
            let mut c = Controller::new();
            c.add_namespace(Namespace::with_file(1, disk));
            (c, Some(image))
        }
    };
    let nlb = w.nlb();
    let slots = blocks / u64::from(nlb);
    let mut buf = vec![0u8; w.io_bytes];
    pattern.fill(0, &mut buf);
    let mut i = 0u64;
    let mut next_slba = move || {
        i += 1;
        (i * 13 % slots) * u64::from(nlb)
    };
    let read_ns = ns_per_iter(budget, 16, || {
        for _ in 0..16 {
            let cmd = NvmeCommand::read(1, 1, next_slba(), nlb);
            black_box(ctrl.read_into(&cmd, &mut buf));
        }
    });
    // The workload's write flavour: FUA pays its barrier inline here.
    let batch = if w.fua { 1 } else { 16 };
    let write_ns = ns_per_iter(budget, batch, || {
        for _ in 0..batch {
            let slba = next_slba();
            let cmd = if w.fua {
                NvmeCommand::write_fua(1, 1, slba, nlb)
            } else {
                NvmeCommand::write(1, 1, slba, nlb)
            };
            black_box(ctrl.execute(&cmd, Some(&buf)));
        }
    });
    Ok(ControllerProbe { read_ns, write_ns })
}

#[derive(Default)]
struct StoreProbe {
    write_ns: f64,
    write_fua_ns: f64,
    read_hit_ns: f64,
    read_miss_ns: f64,
    flush_ns: f64,
}

fn store_probe(budget: Duration, dirs: &Dirs, pattern: &Pattern) -> Result<StoreProbe, String> {
    let (mut disk, _image) = probe_disk(
        dirs,
        "probe-store",
        PROBE_BLOCKS,
        PROBE_BLOCKS as usize,
        pattern,
    )?;
    let mut block = vec![0u8; BLOCK];
    pattern.fill(0, &mut block);
    let mut i = 0u64;
    let mut next_lba = move || {
        i += 1;
        i * 13 % PROBE_BLOCKS
    };
    let mut p = StoreProbe {
        read_hit_ns: ns_per_iter(budget, 64, || {
            for _ in 0..64 {
                disk.read(next_lba(), 1, &mut block).expect("probe read");
            }
        }),
        ..StoreProbe::default()
    };
    p.write_ns = ns_per_iter(budget, 64, || {
        for _ in 0..64 {
            disk.write(next_lba(), 1, &block, false)
                .expect("probe write");
        }
    });
    p.write_fua_ns = ns_per_iter(budget, 1, || {
        disk.write(next_lba(), 1, &block, true)
            .expect("probe fua write");
    });
    // One dirty write per flush; only the flush call is timed.
    let mut flushes = Vec::new();
    let deadline = Instant::now() + budget;
    while flushes.len() < 3 || Instant::now() < deadline {
        disk.write(next_lba(), 1, &block, false)
            .expect("probe write");
        let t0 = Instant::now();
        disk.flush().expect("probe flush");
        flushes.push(t0.elapsed().as_nanos() as f64);
    }
    p.flush_ns = median(&flushes).unwrap_or(0.0);
    // A 64-block cache swept cyclically over 4096 blocks never hits.
    let disk = disk
        .with_cache(64)
        .map_err(|e| format!("probe store recache: {e}"))?;
    p.read_miss_ns = ns_per_iter(budget, 64, || {
        for _ in 0..64 {
            disk.read(next_lba(), 1, &mut block).expect("probe read");
        }
    });
    Ok(p)
}

fn telemetry_record_ns(budget: Duration) -> f64 {
    let c = Counter::new();
    let h = Histo::new();
    ns_per_iter(budget, 1024, || {
        for i in 0..1024u64 {
            c.inc();
            h.record(black_box(i * 37));
        }
    })
}

/// The client loop's own per-op work with the runtime calls stubbed out:
/// op generation, write fill, the two timestamps, the per-cid record,
/// sampled read verification and the latency histogram.
fn harness_overhead_ns(budget: Duration, w: &Workload, pattern: &Pattern) -> f64 {
    let mut gen = OpGen::new(1, w.slots(), w.read_pct);
    let mut hist = Hist::new();
    let mut recs = vec![(0u64, 0u32, false); 1 << 16];
    let nlb = u64::from(w.nlb());
    let mut wbuf = vec![0u8; w.io_bytes];
    // What a correct read of slot 0 returns.
    let mut rbuf = vec![0u8; w.io_bytes];
    pattern.fill(0, &mut rbuf);
    let epoch = Instant::now();
    let mut cid = 0u16;
    ns_per_iter(budget, 256, || {
        for _ in 0..256 {
            let op = gen.next_op();
            if !op.read {
                pattern.fill(u64::from(op.slot) * nlb, &mut wbuf);
            }
            let start = epoch.elapsed().as_nanos() as u64;
            cid = cid.wrapping_add(1);
            recs[usize::from(cid)] = (start, op.slot, op.read);
            // "Completion": one clock read per poll hit, then the
            // per-completion bookkeeping.
            let t = epoch.elapsed().as_nanos() as u64;
            let (start, _slot, read) = black_box(recs[usize::from(cid)]);
            if read {
                black_box(pattern.verify_sampled(0, &rbuf, start));
            }
            hist.record(t - start);
        }
        black_box(&wbuf);
    })
}

/// Runs every probe for `w`; `(metric name, value)` pairs in catalogue
/// order. File-store probes report 0 on RAM workloads.
pub fn run_all(
    w: &Workload,
    dirs: &Dirs,
    pattern: &Pattern,
    budget: Duration,
) -> Result<Vec<(&'static str, f64)>, String> {
    let ctrl = controller_probe(budget, w, dirs, pattern)?;
    let store = if w.is_file() {
        store_probe(budget, dirs, pattern)?
    } else {
        StoreProbe::default()
    };
    Ok(vec![
        ("transport.ring_rt_ns", ring_rt_ns(budget)),
        ("tcp.rt_ns", tcp_rt_ns(budget)),
        (
            "tcp.stream_mib_s",
            tcp_stream_mib_s(budget, w.io_bytes, pattern),
        ),
        ("pdu.cmd_codec_ns", cmd_codec_ns(budget)),
        (
            "pdu.data_codec_gib_s",
            data_codec_gib_s(budget, w.io_bytes, pattern),
        ),
        ("shmem.lease_cycle_ns", lease_cycle_ns(budget, w.io_bytes)),
        (
            "target.handle_ns",
            target_handle_ns(budget, w.io_bytes, pattern),
        ),
        ("controller.read_ns", ctrl.read_ns),
        ("controller.write_ns", ctrl.write_ns),
        ("store.write_ns", store.write_ns),
        ("store.write_fua_ns", store.write_fua_ns),
        ("store.read_hit_ns", store.read_hit_ns),
        ("store.read_miss_ns", store.read_miss_ns),
        ("store.flush_ns", store.flush_ns),
        ("telemetry.record_ns", telemetry_record_ns(budget)),
        (
            "harness.overhead_ns",
            harness_overhead_ns(budget, w, pattern),
        ),
    ])
}
