//! The real-socket NVMe/TCP data plane under duress (§4.5).
//!
//! Pressure on the loopback transport, and the queued-send contract
//! ("who flushes when") seen from both ends:
//!
//! * **Partial-I/O torture.** Deliberately tiny `SO_SNDBUF`/`SO_RCVBUF`
//!   force short writes and short reads mid-header and mid-payload; the
//!   resumable framing state machine must reassemble every frame intact
//!   and in order.
//! * **Corking semantics.** What a submit, a poll, a disconnect and a
//!   drop each put on the wire, counted in the client's own
//!   `tx_syscalls` and observed by a target pumped by hand.

use std::time::Duration;

use bytes::{Bytes, BytesMut};
use oaf_nvmeof::error::NvmeofError;
use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use oaf_nvmeof::metrics::TcpMetrics;
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::pdu::{DataPdu, DataRef, Pdu};
use oaf_nvmeof::target::{spawn_target, TargetConfig, TargetConnection};
use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
use oaf_nvmeof::transport::{queue_pdu, Transport};
use oaf_telemetry::Registry;

// Generous: these tests run concurrently on whatever cores the harness
// has (possibly one), and a torn 1 MiB transfer through tiny socket
// buffers is many scheduler round trips. The asserts below check
// behavior, not latency.
const TIMEOUT: Duration = Duration::from_secs(60);

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 2048));
    c
}

/// Small socket buffers so every large frame is short-written and
/// short-read many times over. 64 KiB (the kernel doubles it) is the
/// sweet spot: far smaller than the big frames below, but not so small
/// that Linux's silly-window avoidance stalls loopback bulk transfers
/// outright (the loopback MSS is ~64 KiB; a receive buffer below one MSS
/// suppresses window updates and wedges the flow at the TCP layer).
fn tiny_cfg() -> TcpConfig {
    TcpConfig {
        sndbuf: Some(64 * 1024),
        rcvbuf: Some(64 * 1024),
        ..TcpConfig::default()
    }
}

/// Raw transport-level torture: a mixed stream of coalesced and
/// vectored-split frames, sized from smaller than one socket buffer to
/// dozens of times larger, pushed through 4 KiB socket buffers. Every
/// frame must come out intact, in order, with the partial-I/O machinery
/// demonstrably engaged.
#[test]
fn tiny_buffers_reassemble_torn_frames_in_order() {
    let (tx, rx) = TcpTransport::loopback_pair(tiny_cfg()).expect("loopback sockets");
    let tx_tcp = tx.tcp_metrics().clone();
    let rx_tcp = rx.tcp_metrics().clone();

    const FRAMES: usize = 60;
    let sizes: Vec<usize> = (0..FRAMES)
        .map(|i| match i % 5 {
            0 => 1,              // sub-header-sized payloads
            1 => 512,            // fits the socket buffer
            2 => 9 * 1024,       // a bit over both buffers
            3 => 96 * 1024 + 13, // many short writes, odd tail
            _ => 300 * 1024 + 7, // larger than the rx window
        })
        .collect();

    let sender = std::thread::spawn(move || {
        let mut scratch = BytesMut::with_capacity(4096);
        for (i, &len) in sizes.iter().enumerate() {
            let payload = Bytes::from(vec![(i % 251) as u8; len]);
            let pdu = Pdu::C2HData(DataPdu {
                cid: i as u16,
                ttag: 0,
                offset: 0,
                last: true,
                data: DataRef::Inline(payload),
            });
            scratch.clear();
            // Alternate the coalesced and the vectored-split send path so
            // both get torn mid-header and mid-payload.
            if i % 2 == 0 {
                let tail = pdu
                    .encode_split_into(&mut scratch)
                    .expect("inline data pdu");
                tx.send_split(&scratch, tail).expect("split send");
            } else {
                pdu.encode_into(&mut scratch);
                tx.send_frame(&scratch).expect("send");
            }
        }
        // One-directional sender: nothing will ever flush the parked
        // tail for us (no receive path on this side), so drain it
        // explicitly before the thread exits.
        while !tx.flush().expect("flush") {
            std::thread::yield_now();
        }
        tx
    });

    let mut got = 0usize;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while got < FRAMES {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled after {got}/{FRAMES} frames"
        );
        let n = rx
            .recv_batch(&mut |frame| {
                let pdu = Pdu::decode_slice(frame.as_slice()).expect("decode");
                let Pdu::C2HData(d) = pdu else {
                    panic!("unexpected pdu at frame {got}");
                };
                assert_eq!(d.cid as usize, got, "frames out of order");
                let DataRef::Inline(data) = d.data else {
                    panic!("expected inline data");
                };
                let expect_len = match got % 5 {
                    0 => 1,
                    1 => 512,
                    2 => 9 * 1024,
                    3 => 96 * 1024 + 13,
                    _ => 300 * 1024 + 7,
                };
                assert_eq!(data.len(), expect_len, "frame {got} truncated");
                let stamp = (got % 251) as u8;
                assert!(
                    data.iter().all(|&b| b == stamp),
                    "frame {got} corrupted in reassembly"
                );
                got += 1;
            })
            .expect("recv");
        if n == 0 {
            // Yield, don't spin: on a single-core box a spinning receiver
            // starves the sender it is waiting on.
            std::thread::yield_now();
        }
    }
    let tx = sender.join().expect("sender");

    // The machinery this test exists to exercise actually engaged: the
    // sender parked and resumed mid-frame, the receiver resumed partial
    // frames, and the split path went out vectored.
    assert!(
        tx_tcp.partial_write_resumptions.get() > 0,
        "no partial writes: SO_SNDBUF shrink did not take"
    );
    assert!(
        rx_tcp.partial_read_resumptions.get() > 0,
        "no partial reads: SO_RCVBUF shrink did not take"
    );
    assert!(
        tx_tcp.vectored_sends.get() > 0,
        "split sends never vectored"
    );
    assert_eq!(tx.metrics().frames_sent.get(), FRAMES as u64);
    drop(tx);
}

/// Full end-to-end torture: an initiator/target pair whose control
/// connection rides 4 KiB socket buffers, moving 1 MiB payloads in both
/// directions with runtime chunking live. Data must survive bit-exact.
#[test]
fn end_to_end_io_survives_tiny_socket_buffers() {
    let (ct, tt) = TcpTransport::loopback_pair(tiny_cfg()).expect("loopback sockets");
    let ct_tcp = ct.tcp_metrics().clone();
    let handle = spawn_target(tt, controller(), TargetConfig::default(), None);
    let registry = Registry::new();
    let mut ini = Initiator::connect(
        ct,
        InitiatorOptions {
            write_chunk: 128 * 1024,
            ..InitiatorOptions::default()
        },
        None,
        TIMEOUT,
    )
    .expect("connect over tiny-buffer sockets");
    ini.metrics().register(&registry.scope("client"));

    const IO: usize = 1024 * 1024;
    const BLOCKS: u64 = (IO / 4096) as u64;
    for round in 0..3u8 {
        let pattern: Vec<u8> = (0..IO).map(|i| (i as u8) ^ round).collect();
        ini.write_blocking(1, 0, BLOCKS as u32, Bytes::from(pattern.clone()), TIMEOUT)
            .expect("1 MiB write");
        let back = ini
            .read_blocking(1, 0, BLOCKS as u32, IO, TIMEOUT)
            .expect("1 MiB read");
        assert_eq!(&back[..], &pattern[..], "round {round} corrupted");
    }

    // The write path chunked: 1 MiB at a 128 KiB write_chunk is 8 H2C
    // sub-PDUs per I/O, and the frames were torn on the wire.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("client", "h2c_chunks"), 3 * 8);
    assert_eq!(snap.histo("client", "chunks_per_io").unwrap().count, 3);
    assert!(
        ct_tcp.partial_write_resumptions.get() > 0,
        "1 MiB writes through 4 KiB buffers never parked mid-frame"
    );

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("shutdown");
}

/// A target played by hand on the test thread, so a test decides when
/// the target looks at its socket and the client's polls are the only
/// other clock.
struct PumpedTarget {
    transport: TcpTransport,
    conn: TargetConnection,
    ctrl: Controller,
    out: Vec<Pdu>,
    scratch: BytesMut,
    hung_up: bool,
}

impl PumpedTarget {
    /// One serve pass: drain, execute, answer, flush.
    fn pump(&mut self) {
        let PumpedTarget {
            transport,
            conn,
            ctrl,
            out,
            scratch,
            hung_up,
        } = self;
        match transport.recv_batch(&mut |f| conn.handle(f, ctrl, out).expect("target handle")) {
            Ok(_) => {}
            Err(NvmeofError::TransportClosed) => *hung_up = true,
            Err(e) => panic!("target drain: {e}"),
        }
        for pdu in out.drain(..) {
            queue_pdu(&*transport, &pdu, scratch).expect("target queue");
        }
        transport.flush_queued().expect("target flush");
    }

    /// Pumps, without ever polling the client, until `done` holds.
    fn pump_until(&mut self, what: &str, done: impl Fn(&PumpedTarget) -> bool) {
        let deadline = std::time::Instant::now() + TIMEOUT;
        while !done(self) {
            assert!(
                std::time::Instant::now() < deadline,
                "target never saw {what}"
            );
            self.pump();
            std::thread::yield_now();
        }
    }

    fn ops(&self) -> u64 {
        self.conn.metrics().ops.get()
    }
}

/// A connected initiator, the hand-pumped target behind it, and the
/// client socket's counters.
fn pumped_pair(
    opts: InitiatorOptions,
) -> (
    Initiator<TcpTransport>,
    PumpedTarget,
    std::sync::Arc<TcpMetrics>,
) {
    let (ct, tt) = TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
    let client_tcp = ct.tcp_metrics().clone();
    let mut target = PumpedTarget {
        transport: tt,
        conn: TargetConnection::new(TargetConfig::default(), None),
        ctrl: controller(),
        out: Vec::new(),
        scratch: BytesMut::with_capacity(256),
        hung_up: false,
    };
    // `connect` blocks on the handshake, so it runs on a helper thread
    // while this one serves it.
    let ini = std::thread::scope(|s| {
        let connecting = s.spawn(|| Initiator::connect(ct, opts, None, TIMEOUT));
        while !connecting.is_finished() {
            target.pump();
            std::thread::yield_now();
        }
        connecting.join().expect("connect thread").expect("connect")
    });
    (ini, target, client_tcp)
}

/// Polls the client and pumps the target until `want` completions are in.
fn drain(ini: &mut Initiator<TcpTransport>, target: &mut PumpedTarget, want: usize) {
    let mut done = Vec::new();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while done.len() < want {
        assert!(std::time::Instant::now() < deadline, "completions stalled");
        target.pump();
        ini.poll_into(&mut done).expect("client poll");
    }
    assert_eq!(done.len(), want);
    assert!(done.iter().all(|r| r.status.is_ok()));
}

/// (a) Nagle's rule with `poll` as the ACK clock: a submit on an idle
/// connection is on the wire when it returns.
#[test]
fn lone_submit_is_on_the_wire_before_any_poll() {
    let (mut ini, mut target, tcp) = pumped_pair(InitiatorOptions::default());
    let before = tcp.tx_syscalls.get();
    ini.submit_read(1, 0, 1, 4096).expect("submit");
    assert_eq!(tcp.tx_syscalls.get(), before + 1);
    target.pump_until("the lone read", |t| t.ops() == 1);
    drain(&mut ini, &mut target, 1);
}

/// (b) Submits behind in-flight work wait for the next poll — or leave
/// earlier, once they describe a cork budget's worth of payload.
#[test]
fn submits_behind_inflight_work_leave_with_the_next_poll_or_at_the_budget() {
    let (mut ini, mut target, tcp) = pumped_pair(InitiatorOptions::default());
    ini.submit_read(1, 0, 1, 4096).expect("first submit");
    let flushed = tcp.tx_syscalls.get();

    for lba in 1..4 {
        ini.submit_read(1, lba, 1, 4096).expect("queued submit");
    }
    assert_eq!(tcp.tx_syscalls.get(), flushed, "12 KiB of reads left early");
    assert_eq!(ini.inflight(), 4);
    let mut done = Vec::new();
    ini.poll_into(&mut done).expect("poll");
    assert!(done.is_empty(), "the target has not run yet");
    assert_eq!(
        tcp.tx_syscalls.get(),
        flushed + 1,
        "one write for the burst"
    );
    target.pump_until("the burst", |t| t.ops() == 4);

    // Eight 4 KiB reads describe 32 KiB: the eighth submit flushes.
    for lba in 4..11 {
        ini.submit_read(1, lba, 1, 4096).expect("queued submit");
    }
    assert_eq!(tcp.tx_syscalls.get(), flushed + 1);
    ini.submit_read(1, 11, 1, 4096).expect("budget submit");
    assert_eq!(tcp.tx_syscalls.get(), flushed + 2, "no poll was needed");
    target.pump_until("the budget burst", |t| t.ops() == 12);
    drain(&mut ini, &mut target, 12);
    assert_eq!(tcp.frames_queued.get(), 12);
}

/// (c) Recovery traffic emitted by `tick()` is on the wire when the poll
/// that emitted it returns.
#[test]
fn keepalive_from_tick_leaves_with_its_own_poll() {
    let (mut ini, mut target, tcp) = pumped_pair(InitiatorOptions {
        // Long enough that a descheduled test thread cannot run into
        // the 3× grace and turn the heartbeat into a PeerDead.
        keepalive: Some(KeepAliveConfig::with_interval(Duration::from_millis(200))),
        ..InitiatorOptions::default()
    });
    std::thread::sleep(Duration::from_millis(250));
    let before = tcp.tx_syscalls.get();
    let mut done = Vec::new();
    ini.poll_into(&mut done).expect("poll");
    assert_eq!(tcp.tx_syscalls.get(), before + 1, "heartbeat held back");
    target.pump_until("the heartbeat", |t| t.conn.metrics().keepalives.get() == 1);
}

/// (d) `disconnect()` and drop both push out what was still queued.
#[test]
fn disconnect_and_drop_flush_the_queue() {
    let (mut ini, mut target, tcp) = pumped_pair(InitiatorOptions::default());
    ini.submit_read(1, 0, 1, 4096).expect("first submit");
    ini.submit_read(1, 1, 1, 4096).expect("queued submit");
    let before = tcp.tx_syscalls.get();
    ini.disconnect().expect("disconnect");
    assert_eq!(
        tcp.tx_syscalls.get(),
        before + 1,
        "read + TermReq, one write"
    );
    target.pump_until("the TermReq", |t| t.conn.terminated());
    assert_eq!(target.ops(), 2, "the queued read went out ahead of it");

    let (mut ini, mut target, _) = pumped_pair(InitiatorOptions::default());
    ini.submit_read(1, 0, 1, 4096).expect("first submit");
    ini.submit_read(1, 1, 1, 4096).expect("queued submit");
    drop(ini);
    target.pump_until("the hang-up", |t| t.hung_up);
    assert_eq!(target.ops(), 2, "drop lost a queued command");
}

/// (e) A split send never defers and never overtakes: it takes the frames
/// queued ahead of it along in its own `writev`.
#[test]
fn split_send_carries_the_queue_in_one_writev() {
    let (a, b) = TcpTransport::loopback_pair(TcpConfig {
        // Room for the whole frame, so the socket cannot cut the call short.
        sndbuf: Some(1024 * 1024),
        ..TcpConfig::default()
    })
    .expect("loopback sockets");
    let mut scratch = BytesMut::new();
    let small = Pdu::R2T(oaf_nvmeof::pdu::R2T {
        cid: 1,
        ttag: 1,
        offset: 0,
        len: 4096,
    });
    queue_pdu(&a, &small, &mut scratch).expect("queue");
    assert_eq!(a.tcp_metrics().tx_syscalls.get(), 0);
    let big = Pdu::C2HData(DataPdu {
        cid: 2,
        ttag: 0,
        offset: 0,
        last: true,
        data: DataRef::Inline(Bytes::from(vec![0x3cu8; 128 * 1024])),
    });
    scratch.clear();
    let tail = big
        .encode_split_into(&mut scratch)
        .expect("inline data pdu");
    a.send_split(&scratch, tail).expect("split send");
    assert_eq!(a.tcp_metrics().tx_syscalls.get(), 1);
    assert_eq!(a.tcp_metrics().vectored_sends.get(), 1);

    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while got.len() < 2 {
        assert!(std::time::Instant::now() < deadline, "frames never arrived");
        b.recv_batch(&mut |f| got.push(Pdu::decode_slice(f.as_slice()).expect("decode")))
            .expect("recv");
    }
    assert_eq!(got, [small, big]);
}
