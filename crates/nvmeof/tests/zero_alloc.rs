//! Steady-state allocation budget of the in-region control path.
//!
//! The hot-path contract (DESIGN.md §4): once a connection's scratch
//! buffers are warmed, a full command→completion PDU cycle over
//! [`ShmTransport`] — encode into scratch, `send_frame`, batched
//! borrowed receive, decode, respond — performs **zero** heap
//! allocations. A counting global allocator enforces it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::BytesMut;
use oaf_nvmeof::nvme::command::NvmeCommand;
use oaf_nvmeof::nvme::completion::NvmeCompletion;
use oaf_nvmeof::pdu::{CapsuleCmd, CapsuleResp, DataRef, Pdu};
use oaf_nvmeof::transport::{ShmTransport, Transport};

/// Counts allocations on threads that opted in; delegates to [`System`].
/// Thread-local so the test harness' own threads don't pollute the
/// count. `const`-initialized cells: the TLS access itself never
/// allocates.
struct CountingAlloc;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // try_with: alloc can be reached during TLS teardown.
    let tracking = TRACK.try_with(Cell::get).unwrap_or(false);
    if tracking {
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

/// One full control-plane round trip, playing both roles on the test
/// thread: client submits a write command referencing a shared-memory
/// slot, target drains/decodes/completes, client drains the completion.
fn cycle(
    client: &ShmTransport,
    target: &ShmTransport,
    c_scratch: &mut BytesMut,
    t_scratch: &mut BytesMut,
) {
    let cmd = Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::write(7, 1, 64, 32),
        data: Some(DataRef::ShmSlot {
            slot: 3,
            len: 128 * 1024,
        }),
    });
    c_scratch.clear();
    cmd.encode_into(c_scratch);
    client.send_frame(c_scratch).expect("client send");

    // Target side: borrowed frames straight off the ring, decoded in
    // place (ShmSlot data carries no buffer), response encoded into the
    // target's scratch.
    let served = target
        .recv_batch(&mut |frame| {
            let pdu = Pdu::decode_slice(frame.as_slice()).expect("decode cmd");
            let cid = match pdu {
                Pdu::CapsuleCmd(c) => c.cmd.cid,
                other => panic!("unexpected pdu: {other:?}"),
            };
            let resp = Pdu::CapsuleResp(CapsuleResp {
                completion: NvmeCompletion::ok(cid),
            });
            t_scratch.clear();
            resp.encode_into(t_scratch);
            target.send_frame(t_scratch).expect("target send");
        })
        .expect("target drain");
    assert_eq!(served, 1);

    let completed = client
        .recv_batch(
            &mut |frame| match Pdu::decode_slice(frame.as_slice()).expect("decode resp") {
                Pdu::CapsuleResp(r) => assert_eq!(r.completion.cid, 7),
                other => panic!("unexpected pdu: {other:?}"),
            },
        )
        .expect("client drain");
    assert_eq!(completed, 1);
}

#[test]
fn steady_state_pdu_cycle_allocates_nothing() {
    let (client, target) = ShmTransport::pair(256 * 1024);
    let mut c_scratch = BytesMut::with_capacity(512);
    let mut t_scratch = BytesMut::with_capacity(512);

    // Warm-up: grow scratch capacities, fault in the ring pages, let
    // one-time lazy init (TLS, ring caches) happen off the books.
    for _ in 0..64 {
        cycle(&client, &target, &mut c_scratch, &mut t_scratch);
    }

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for _ in 0..1000 {
        cycle(&client, &target, &mut c_scratch, &mut t_scratch);
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "steady-state send/recv cycle must not allocate (saw {allocs} allocations over 1000 cycles)"
    );
}

/// The same steady-state budget over a real kernel socket (§4.5): a
/// full command→completion cycle on a live loopback [`TcpTransport`]
/// pair — one vectored split data frame and two coalesced frames per
/// cycle — performs zero heap allocations once the framing buffers are
/// warm. The receive window, the send backlog, and the scratch buffers
/// are all reused; the split payload is a refcount bump, not a copy.
///
/// [`TcpTransport`]: oaf_nvmeof::tcp::TcpTransport
#[test]
fn steady_state_tcp_socket_cycle_allocates_nothing() {
    use bytes::Bytes;
    use oaf_nvmeof::pdu::DataPdu;
    use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};

    let (client, target) =
        TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
    let mut c_scratch = BytesMut::with_capacity(512);
    let mut t_scratch = BytesMut::with_capacity(512);
    // Built once: each send clones the inline `Bytes` payload into the
    // vectored tail — a refcount bump, never a copy or an allocation.
    let data_pdu = Pdu::C2HData(DataPdu {
        cid: 7,
        ttag: 0,
        offset: 0,
        last: true,
        data: DataRef::Inline(Bytes::from(vec![0xc7u8; 2048])),
    });
    let mut data_len = 0usize;

    let mut tcp_cycle = || {
        // Command out through the coalesced path.
        let cmd = Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::write(7, 1, 64, 32),
            data: Some(DataRef::ShmSlot {
                slot: 3,
                len: 128 * 1024,
            }),
        });
        c_scratch.clear();
        cmd.encode_into(&mut c_scratch);
        client.send_frame(&c_scratch).expect("client send");

        // Target side: borrowed receive off the socket window, decode in
        // place, answer with a vectored split data frame plus a coalesced
        // completion. Loopback delivery is synchronous but the frame may
        // land across fills, so poll until served.
        let mut served = 0;
        while served == 0 {
            served = target
                .recv_batch(&mut |frame| {
                    let pdu = Pdu::decode_slice(frame.as_slice()).expect("decode cmd");
                    let cid = match pdu {
                        Pdu::CapsuleCmd(c) => c.cmd.cid,
                        other => panic!("unexpected pdu: {other:?}"),
                    };
                    t_scratch.clear();
                    let tail = data_pdu
                        .encode_split_into(&mut t_scratch)
                        .expect("inline data pdu");
                    data_len = t_scratch.len() + tail.len();
                    target.send_split(&t_scratch, tail).expect("split send");
                    t_scratch.clear();
                    Pdu::CapsuleResp(CapsuleResp {
                        completion: NvmeCompletion::ok(cid),
                    })
                    .encode_into(&mut t_scratch);
                    target.send_frame(&t_scratch).expect("target send");
                })
                .expect("target drain");
            std::hint::spin_loop();
        }
        assert_eq!(served, 1);

        // Client side: the data frame is validated raw — decoding inline
        // data copies it into an owned buffer, which would allocate —
        // then the completion is decoded borrowed as usual.
        let mut seen = 0usize;
        while seen < 2 {
            client
                .recv_batch(&mut |frame| {
                    if seen == 0 {
                        assert_eq!(frame.as_slice().len(), data_len, "split frame torn");
                    } else {
                        match Pdu::decode_slice(frame.as_slice()).expect("decode resp") {
                            Pdu::CapsuleResp(r) => assert_eq!(r.completion.cid, 7),
                            other => panic!("unexpected pdu: {other:?}"),
                        }
                    }
                    seen += 1;
                })
                .expect("client drain");
            std::hint::spin_loop();
        }
        assert_eq!(seen, 2);
    };

    for _ in 0..64 {
        tcp_cycle();
    }

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for _ in 0..1000 {
        tcp_cycle();
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "steady-state socket cycle must not allocate (saw {allocs} allocations over 1000 cycles)"
    );
    // The vectored path actually carried the data frames.
    assert_eq!(target.tcp_metrics().vectored_sends.get(), 1064);
    assert_eq!(client.metrics().frames_received.get(), 2 * 1064);
}

/// The same steady-state contract with the full telemetry stack live:
/// every metric registered in a [`Registry`], ring stats attached, and an
/// explicit per-cycle latency-histogram + counter record on top of the
/// recording the transport already does internally. Observability must
/// ride the hot path for free — no heap, no locks.
#[test]
fn steady_state_cycle_with_telemetry_recording_allocates_nothing() {
    use oaf_telemetry::Registry;

    let (client, target) = ShmTransport::pair(256 * 1024);
    let registry = Registry::new();
    client
        .metrics()
        .register(&registry.scope("transport_client"));
    target
        .metrics()
        .register(&registry.scope("transport_target"));
    client
        .tx_ring_stats()
        .register(&registry.scope("ring_client"));
    target
        .tx_ring_stats()
        .register(&registry.scope("ring_target"));
    let app = registry.scope("app");
    let cycles = app.counter("cycles");
    let lat = app.histo("cycle_ns");

    let mut c_scratch = BytesMut::with_capacity(512);
    let mut t_scratch = BytesMut::with_capacity(512);
    for _ in 0..64 {
        cycle(&client, &target, &mut c_scratch, &mut t_scratch);
    }

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for _ in 0..1000 {
        let t0 = std::time::Instant::now();
        cycle(&client, &target, &mut c_scratch, &mut t_scratch);
        cycles.inc();
        lat.record_nanos(t0.elapsed());
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "telemetry-instrumented steady-state cycle must not allocate \
         (saw {allocs} allocations over 1000 cycles)"
    );

    // The numbers the registry observed are consistent with the traffic:
    // 1064 cycles total (warm-up included), one command and one response
    // frame per cycle, flowing symmetrically.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("app", "cycles"), 1000);
    assert_eq!(snap.histo("app", "cycle_ns").unwrap().count, 1000);
    for scope in ["transport_client", "transport_target"] {
        assert_eq!(snap.counter(scope, "frames_sent"), 1064);
        assert_eq!(snap.counter(scope, "frames_received"), 1064);
        assert_eq!(snap.counter(scope, "ring_full"), 0);
    }
    assert_eq!(snap.counter("ring_client", "frames"), 1064);
    assert_eq!(snap.counter("ring_target", "frames"), 1064);
    assert_eq!(
        snap.counter("transport_client", "bytes_sent"),
        snap.counter("transport_target", "bytes_received"),
    );
}

/// The zero-copy data plane under the same budget: a full write+read
/// cycle through the lease-based Buffer Manager — client leases a slot,
/// fills it in place, publishes, the target consumes it borrowed, then
/// serves the read by leasing its own slot and the client borrows the
/// result — with every lease/transport metric registered in a live
/// [`Registry`]. Steady state must be allocation-free end to end.
#[test]
fn steady_state_lease_path_cycle_allocates_nothing() {
    use oaf_nvmeof::pdu::{DataPdu, Pdu};
    use oaf_shmem::channel::{ShmChannel, Side};
    use oaf_telemetry::Registry;

    const LEN: usize = 4096;
    let (ctl_client, ctl_target) = ShmTransport::pair(256 * 1024);
    let data = ShmChannel::allocate(8, 64 * 1024);
    let client_ep = data.endpoint(Side::Client);
    let target_ep = data.endpoint(Side::Target);

    let registry = Registry::new();
    ctl_client
        .metrics()
        .register(&registry.scope("transport_client"));
    ctl_target
        .metrics()
        .register(&registry.scope("transport_target"));
    client_ep
        .buffer_manager()
        .stats()
        .register(&registry.scope("bufmgr_client"));
    target_ep
        .buffer_manager()
        .stats()
        .register(&registry.scope("bufmgr_target"));
    let app = registry.scope("app");
    let cycles = app.counter("cycles");
    let lat = app.histo("cycle_ns");

    let mut c_scratch = BytesMut::with_capacity(512);
    let mut t_scratch = BytesMut::with_capacity(512);
    let mut write_sum = 0u64;
    let mut read_sum = 0u64;

    let mut lease_cycle = |write_sum: &mut u64, read_sum: &mut u64| {
        // Write half: the application's buffer IS the slot (§4.4.3).
        let mut lease = client_ep.lease_managed(LEN).expect("client lease");
        for (i, b) in lease.iter_mut().enumerate() {
            *b = i as u8;
        }
        let (slot, len) = lease.publish();
        let cmd = Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::write(11, 1, 0, 8),
            data: Some(DataRef::ShmSlot {
                slot: slot as u32,
                len: len as u32,
            }),
        });
        c_scratch.clear();
        cmd.encode_into(&mut c_scratch);
        ctl_client.send_frame(&c_scratch).expect("client send");

        let served = ctl_target
            .recv_batch(&mut |frame| {
                let pdu = Pdu::decode_slice(frame.as_slice()).expect("decode cmd");
                let Pdu::CapsuleCmd(c) = pdu else {
                    panic!("unexpected pdu");
                };
                let Some(DataRef::ShmSlot { slot, len }) = c.data else {
                    panic!("expected slot reference");
                };
                // Borrowed consume: the "device write" reads straight
                // out of the shared region; the guard frees the slot.
                let guard = target_ep
                    .recv(slot as usize, len as usize)
                    .expect("published");
                *write_sum += guard.as_slice().iter().map(|&b| b as u64).sum::<u64>();
                drop(guard);

                // Read half: the target leases its own transmit slot and
                // "reads the device" directly into it.
                let mut rlease = target_ep.lease_managed(LEN).expect("target lease");
                for b in rlease.iter_mut() {
                    *b = 0x5a;
                }
                let (rslot, rlen) = rlease.publish();
                t_scratch.clear();
                Pdu::C2HData(DataPdu {
                    cid: c.cmd.cid,
                    ttag: 0,
                    offset: 0,
                    last: true,
                    data: DataRef::ShmSlot {
                        slot: rslot as u32,
                        len: rlen as u32,
                    },
                })
                .encode_into(&mut t_scratch);
                ctl_target.send_frame(&t_scratch).expect("target data send");
                t_scratch.clear();
                Pdu::CapsuleResp(CapsuleResp {
                    completion: NvmeCompletion::ok(c.cmd.cid),
                })
                .encode_into(&mut t_scratch);
                ctl_target.send_frame(&t_scratch).expect("target resp send");
            })
            .expect("target drain");
        assert_eq!(served, 1);

        let completed = ctl_client
            .recv_batch(
                &mut |frame| match Pdu::decode_slice(frame.as_slice()).expect("decode") {
                    Pdu::C2HData(d) => {
                        let DataRef::ShmSlot { slot, len } = d.data else {
                            panic!("expected slot reference");
                        };
                        let guard = client_ep
                            .recv(slot as usize, len as usize)
                            .expect("published");
                        *read_sum += guard.as_slice().iter().map(|&b| b as u64).sum::<u64>();
                    }
                    Pdu::CapsuleResp(r) => assert_eq!(r.completion.cid, 11),
                    other => panic!("unexpected pdu: {other:?}"),
                },
            )
            .expect("client drain");
        assert_eq!(completed, 2);
    };

    for _ in 0..64 {
        lease_cycle(&mut write_sum, &mut read_sum);
    }

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for _ in 0..1000 {
        let t0 = std::time::Instant::now();
        lease_cycle(&mut write_sum, &mut read_sum);
        cycles.inc();
        lat.record_nanos(t0.elapsed());
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "steady-state lease-path cycle must not allocate \
         (saw {allocs} allocations over 1000 cycles)"
    );

    // Payloads actually flowed: 0..256 pattern per write, 0x5a per read.
    let per_write: u64 = (0..LEN).map(|i| (i as u8) as u64).sum();
    assert_eq!(write_sum, 1064 * per_write);
    assert_eq!(read_sum, 1064 * 0x5a * LEN as u64);

    // The Buffer Managers saw one lease per cycle per side, every byte
    // of payload crossed zero-copy, and nothing leaked.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("app", "cycles"), 1000);
    for scope in ["bufmgr_client", "bufmgr_target"] {
        assert_eq!(snap.counter(scope, "leases"), 1064);
        assert_eq!(snap.counter(scope, "lease_denied"), 0);
        assert_eq!(snap.counter(scope, "lease_aborted"), 0);
        let (live, hwm) = snap.gauge(scope, "leases_live").expect("registered");
        assert_eq!(live, 0, "leaked leases in {scope}");
        assert_eq!(hwm, 1, "single-depth steady state in {scope}");
    }
}

/// The durable write path under the same budget: a [`Controller`] over a
/// file-backed [`FileDisk`] (MemVfs, so the "syscalls" are in-place
/// copies and the budget isolates the *store's* bookkeeping), with
/// [`StoreMetrics`] registered in a live [`Registry`]. Every journaled
/// op — plain write, FUA write, DSM deallocate, flush — encodes its
/// record header on the stack, appends through the Vfs, and records
/// telemetry without touching the heap. The log is sized so the tracked
/// window wraps it dozens of times: checkpoints (superblock rewrite +
/// epoch roll) must be allocation-free too.
///
/// [`FileDisk`]: oaf_store::FileDisk
/// [`StoreMetrics`]: oaf_store::StoreMetrics
#[test]
fn steady_state_durable_write_path_allocates_nothing() {
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_store::vfs::MemVfs;
    use oaf_store::FileDisk;
    use oaf_telemetry::Registry;

    let disk = FileDisk::create_on(Box::new(MemVfs::new()), 512, 256, 64 * 1024).expect("format");
    let registry = Registry::new();
    disk.metrics().register(&registry.scope("store"));
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::with_file(1, disk));

    let payload = vec![0xabu8; 4 * 512];
    let cycle = |ctrl: &mut Controller, i: u64| {
        let lba = (i * 8) % 240;
        let (w, _) = ctrl.execute(&NvmeCommand::write(1, 1, lba, 4), Some(&payload));
        assert!(w.status.is_ok());
        let (f, _) = ctrl.execute(
            &NvmeCommand::write_fua(2, 1, lba + 4, 1),
            Some(&payload[..512]),
        );
        assert!(f.status.is_ok());
        let (t, _) = ctrl.execute(&NvmeCommand::trim(3, 1, lba, 2), None);
        assert!(t.status.is_ok());
        let (fl, _) = ctrl.execute(&NvmeCommand::flush(4, 1), None);
        assert!(fl.status.is_ok());
    };

    for i in 0..64 {
        cycle(&mut ctrl, i);
    }

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for i in 0..1000 {
        cycle(&mut ctrl, 64 + i);
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "journaled write/FUA/DSM/flush cycle must not allocate \
         (saw {allocs} allocations over 1000 cycles)"
    );

    // Telemetry saw the traffic: four appends per cycle, a barrier per
    // FUA and per flush, a trim per cycle, and the log wrapped many
    // times without ever replaying or tearing anything.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("store", "log_appends"), 1064 * 4);
    assert_eq!(snap.counter("store", "trims"), 1064);
    assert!(snap.counter("store", "fsyncs") >= 1064 * 2);
    assert!(
        snap.counter("store", "checkpoints") > 10,
        "log never wrapped"
    );
    assert_eq!(snap.counter("store", "torn_records"), 0);
    assert_eq!(snap.counter("store", "replay_ops"), 0);
    assert_eq!(
        snap.histo("store", "fsync_ns").expect("registered").count,
        snap.counter("store", "fsyncs")
    );
}

/// Cached read hits under the same budget — plus a *syscall* budget: a
/// [`Controller`] over a file-backed disk with a block cache sized to
/// the working set. After warm-up, every `read_into` is a cache hit and
/// must perform zero heap allocations **and zero Vfs reads** — the
/// whole point of the cache is that hits never reach the backing file.
/// A counting Vfs wrapper pins the syscall side the way the counting
/// allocator pins the heap side.
///
/// [`Controller`]: oaf_nvmeof::nvme::controller::Controller
#[test]
fn steady_state_cached_read_hits_allocate_nothing_and_skip_syscalls() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_store::vfs::{MemVfs, Vfs};
    use oaf_store::FileDisk;
    use oaf_telemetry::Registry;

    /// [`MemVfs`] that counts `read_at` calls (relaxed atomics: no
    /// allocation, no lock).
    struct CountingVfs {
        inner: MemVfs,
        reads: Arc<AtomicU64>,
    }

    impl Vfs for CountingVfs {
        fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_at(off, buf)
        }
        fn write_at(&mut self, off: u64, buf: &[u8]) -> std::io::Result<()> {
            self.inner.write_at(off, buf)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
        fn try_clone(&self) -> std::io::Result<Box<dyn Vfs>> {
            self.inner.try_clone()
        }
    }

    let reads = Arc::new(AtomicU64::new(0));
    let disk = FileDisk::create_on(
        Box::new(CountingVfs {
            inner: MemVfs::new(),
            reads: Arc::clone(&reads),
        }),
        512,
        256,
        64 * 1024,
    )
    .expect("format")
    .with_cache(64)
    .expect("cache");
    let registry = Registry::new();
    disk.metrics().register(&registry.scope("store"));
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::with_file(1, disk));

    // Working set: 32 blocks, write-allocated into the 64-entry cache.
    let payload = vec![0x5au8; 512];
    for lba in 0..32u64 {
        let (w, _) = ctrl.execute(&NvmeCommand::write(1, 1, lba, 1), Some(&payload));
        assert!(w.status.is_ok());
    }
    let (fl, _) = ctrl.execute(&NvmeCommand::flush(2, 1), None);
    assert!(fl.status.is_ok());

    let mut out = vec![0u8; 4 * 512];
    let mut cycle = |ctrl: &Controller, i: u64| {
        let lba = (i * 4) % 32;
        let comp = ctrl.read_into(&NvmeCommand::read(3, 1, lba, 4), &mut out);
        assert!(comp.status.is_ok());
        assert!(
            out.iter().all(|&b| b == 0x5a),
            "cached read served stale bytes"
        );
    };

    for i in 0..64 {
        cycle(&ctrl, i);
    }

    let vfs_reads_before = reads.load(Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for i in 0..1000 {
        cycle(&ctrl, 64 + i);
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "cached read hits must not allocate (saw {allocs} over 1000 reads)"
    );
    assert_eq!(
        reads.load(Ordering::Relaxed),
        vfs_reads_before,
        "cached read hits must perform zero Vfs reads"
    );
    let snap = registry.snapshot();
    assert!(snap.counter("store", "cache_hits") >= 4000);
    assert_eq!(
        snap.counter("store", "cache_misses"),
        0,
        "the working set fits: every read must hit"
    );
}

/// The async durability pipeline under the same budget: a target
/// connection over an *offloaded* shared disk with a barrier completion
/// parked on the sync worker's ticket. Steady state — journaled writes,
/// write-zeroes, DSM trims flowing through the reactor path while every
/// pass probes the sync-done queue ([`TargetConnection::poll_parked`])
/// and finds the ticket still pending — must not allocate. The parked
/// ring is preallocated; the ticket poll is two atomic loads.
///
/// [`TargetConnection::poll_parked`]: oaf_nvmeof::target::TargetConnection::poll_parked
#[test]
fn steady_state_ops_with_parked_barrier_allocate_nothing() {
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_nvmeof::pdu::ICReq;
    use oaf_nvmeof::target::{TargetConfig, TargetConnection};
    use oaf_nvmeof::transport::Frame;
    use oaf_store::vfs::MemVfs;
    use oaf_store::FileDisk;

    let vfs = MemVfs::new();
    // The log is sized so the tracked window never wraps it: a wrap
    // checkpoints, and a checkpoint's superblock barrier would block on
    // the held sync gate below.
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 512, 256, 4 * 1024 * 1024)
        .expect("format")
        .into_shared()
        .with_sync_worker(Box::new(vfs.clone()));
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::with_shared_file(1, disk));
    let mut conn = TargetConnection::new(TargetConfig::default(), None);

    let mut out = Vec::with_capacity(16);
    let mut scratch = BytesMut::with_capacity(4096);
    let drive = |conn: &mut TargetConnection,
                 ctrl: &mut Controller,
                 out: &mut Vec<Pdu>,
                 scratch: &mut BytesMut,
                 frame: bytes::Bytes,
                 expect: usize| {
        conn.handle(Frame::Owned(frame), ctrl, out).expect("handle");
        assert_eq!(out.len(), expect);
        for pdu in out.drain(..) {
            scratch.clear();
            pdu.encode_into(scratch);
        }
    };

    drive(
        &mut conn,
        &mut ctrl,
        &mut out,
        &mut scratch,
        Pdu::ICReq(ICReq {
            pfv: 1,
            maxr2t: 4,
            af_caps: 0,
            host_id: 7,
        })
        .encode(),
        1,
    );

    // Pre-encoded command frames: a journaled write (in-capsule inline
    // payload — the owned decode path slices it, refcount only), a
    // write-zeroes and a trim. Cloning `Bytes` is a refcount bump.
    let write_frame = Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::write(21, 1, 8, 1),
        data: Some(DataRef::Inline(bytes::Bytes::from(vec![0x6bu8; 512]))),
    })
    .encode();
    let wz_frame = Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::write_zeroes(22, 1, 16, 2),
        data: None,
    })
    .encode();
    let trim_frame = Pdu::CapsuleCmd(CapsuleCmd {
        cmd: NvmeCommand::trim(23, 1, 32, 2),
        data: None,
    })
    .encode();

    let cycle = |conn: &mut TargetConnection,
                 ctrl: &mut Controller,
                 out: &mut Vec<Pdu>,
                 scratch: &mut BytesMut| {
        for f in [&write_frame, &wz_frame, &trim_frame] {
            drive(conn, ctrl, out, scratch, f.clone(), 1);
        }
        // The reactor's every-pass probe: the ticket is still pending,
        // nothing releases, nothing allocates.
        assert_eq!(conn.poll_parked(ctrl, out), 0);
    };

    // Warm-up with the gate open (the first rounds retire through the
    // worker normally), then park a flush behind a held sync.
    for _ in 0..64 {
        cycle(&mut conn, &mut ctrl, &mut out, &mut scratch);
    }
    vfs.hold_syncs(true);
    conn.handle(
        Frame::Owned(
            Pdu::CapsuleCmd(CapsuleCmd {
                cmd: NvmeCommand::flush(40, 1),
                data: None,
            })
            .encode(),
        ),
        &mut ctrl,
        &mut out,
    )
    .expect("flush parks");
    assert!(out.is_empty(), "flush completion must park: {out:?}");
    assert_eq!(conn.parked_barriers(), 1);

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for _ in 0..1000 {
        cycle(&mut conn, &mut ctrl, &mut out, &mut scratch);
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "ops flowing past a parked barrier must not allocate \
         (saw {allocs} allocations over 1000 cycles)"
    );
    assert_eq!(conn.parked_barriers(), 1, "the barrier stayed parked");

    // Open the gate: the worker retires its round and the parked flush
    // releases through the same poll the loop above was running.
    vfs.hold_syncs(false);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if conn.poll_parked(&ctrl, &mut out) > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "parked flush never released"
        );
        std::hint::spin_loop();
    }
    let Some(Pdu::CapsuleResp(r)) = out.first() else {
        panic!("expected the parked flush completion, got {out:?}");
    };
    assert!(r.completion.status.is_ok());
    assert_eq!(r.completion.cid, 40);
    assert!(conn.metrics().barriers_parked.get() >= 1);
}

/// The recovery machinery's bookkeeping under the same budget: a real
/// [`Initiator`]/target pair over [`ShmTransport`] with per-command
/// deadlines and keep-alive enabled, every control frame CRC-stamped on
/// encode and verified on decode. Steady state — submit, deadline
/// arming, CRC on both directions, completion retirement, the
/// stale-watermark deadline sweep and keep-alive probing — must not
/// allocate on the initiator thread. (The target runs on its own,
/// untracked thread: this test pins the *initiator's* hot path.)
///
/// [`Initiator`]: oaf_nvmeof::initiator::Initiator
#[test]
fn steady_state_recovery_bookkeeping_allocates_nothing() {
    use std::time::Duration;

    use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, IoResult, KeepAliveConfig};
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_nvmeof::target::{spawn_target, TargetConfig};

    let (ct, tt) = ShmTransport::pair(256 * 1024);
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::new(1, 4096, 256));
    let handle = spawn_target(tt, controller, TargetConfig::default(), None);
    let mut ini = Initiator::connect(
        ct,
        InitiatorOptions {
            cmd_deadline: Some(Duration::from_millis(2)),
            // Short interval so probes actually fire during the 8ms
            // quiet stretches, but a generous grace: on a 1-core host a
            // scheduler slice can exceed the conventional 3x interval,
            // and this test pins the *bookkeeping* allocations, not
            // death detection (failure_injection covers that).
            keepalive: Some(KeepAliveConfig {
                interval: Duration::from_millis(5),
                grace: Duration::from_millis(500),
            }),
            ..InitiatorOptions::default()
        },
        None,
        Duration::from_secs(5),
    )
    .expect("connect");

    let mut done: Vec<IoResult> = Vec::with_capacity(16);
    let cycle = |ini: &mut Initiator<ShmTransport>, done: &mut Vec<IoResult>, i: u64| {
        let cid = if i.is_multiple_of(2) {
            ini.submit_write_zeroes(1, i % 256, 1).expect("submit wz")
        } else {
            ini.submit_flush(1).expect("submit flush")
        };
        // Every 32nd command: let the armed deadline expire while the
        // completion already sits in the ring, so the poll below first
        // resolves the command and then runs the stale-watermark
        // deadline sweep — the cold path must be allocation-free too.
        let quiet_cycle = i % 32 == 31;
        if quiet_cycle {
            std::thread::sleep(Duration::from_millis(8));
        }
        loop {
            done.clear();
            if ini.poll_into(done).expect("poll") > 0 {
                break;
            }
            std::hint::spin_loop();
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].cid, cid);
        assert!(
            done[0].status.is_ok(),
            "command failed: {:?}",
            done[0].status
        );
        // A quiet stretch with nothing in flight: the keep-alive check
        // fires a probe (quiet ≥ interval), the ack comes back on a
        // later poll — both directions CRC-stamped, neither allocating.
        if quiet_cycle {
            std::thread::sleep(Duration::from_millis(8));
            ini.poll_into(done).expect("keep-alive poll");
        }
    };

    for i in 0..64 {
        cycle(&mut ini, &mut done, i);
    }

    TRACK.with(|t| t.set(true));
    ALLOCS.with(|c| c.set(0));
    for i in 0..1000 {
        cycle(&mut ini, &mut done, 64 + i);
    }
    TRACK.with(|t| t.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(
        allocs, 0,
        "recovery bookkeeping (deadlines, keep-alive, CRC) must not allocate \
         (saw {allocs} allocations over 1000 cycles)"
    );

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("shutdown");
}

/// The socket data path's copy/allocation budget, end to end through
/// the real state machines: an [`Initiator`] and a [`TargetConnection`]
/// on a live loopback socket pair, both played on this thread so each
/// side's allocations can be counted apart. At 128 KiB and at 4 KiB, a
/// read costs the client exactly the buffer it hands back in
/// `IoResult::data` (C2H chunks land in it straight from the receive
/// window) and costs the target nothing (the device reads into the
/// connection's recycled buffer and the chunks are views of it); a
/// single-chunk write costs the target nothing (it executes from the
/// receive window, no staging buffer).
///
/// [`Initiator`]: oaf_nvmeof::initiator::Initiator
/// [`TargetConnection`]: oaf_nvmeof::target::TargetConnection
#[test]
fn socket_reads_cost_one_client_buffer_and_single_chunk_writes_no_target_allocation() {
    socket_ops_allocation_budget(128 * 1024);
    socket_ops_allocation_budget(4096);
}

fn socket_ops_allocation_budget(len: usize) {
    use bytes::Bytes;
    use oaf_nvmeof::initiator::{Initiator, InitiatorOptions};
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_nvmeof::target::{TargetConfig, TargetConnection};
    use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
    use oaf_nvmeof::transport::send_pdu;

    let nlb = (len / 4096) as u32;

    /// Runs `f` with this thread's allocations counted into `into`.
    fn counted<R>(into: &mut u64, f: impl FnOnce() -> R) -> R {
        ALLOCS.with(|c| c.set(0));
        TRACK.with(|t| t.set(true));
        let r = f();
        TRACK.with(|t| t.set(false));
        *into += ALLOCS.with(Cell::get);
        r
    }

    struct Target {
        transport: TcpTransport,
        conn: TargetConnection,
        ctrl: Controller,
        out: Vec<Pdu>,
        scratch: BytesMut,
    }
    impl Target {
        /// One reactor pass: drain, execute, respond.
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
                send_pdu(&*transport, &pdu, scratch).expect("target send");
            }
        }
    }

    let (client_tr, target_tr) =
        TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::new(1, 4096, 256));
    let mut target = Target {
        transport: target_tr,
        conn: TargetConnection::new(TargetConfig::default(), None),
        ctrl,
        out: Vec::new(),
        scratch: BytesMut::with_capacity(256),
    };
    // `connect` blocks on the handshake, so it runs on a helper thread
    // while this one serves it.
    let mut client = std::thread::scope(|s| {
        let connecting = s.spawn(|| {
            Initiator::connect(
                client_tr,
                InitiatorOptions::default(),
                None,
                std::time::Duration::from_secs(5),
            )
        });
        while !connecting.is_finished() {
            target.pump();
            std::thread::yield_now();
        }
        connecting.join().expect("connect thread").expect("connect")
    });

    let payload = Bytes::from(vec![0xa5u8; len]);
    let mut results = Vec::with_capacity(4);
    let mut op = |read: bool, client_allocs: &mut u64, target_allocs: &mut u64| {
        counted(client_allocs, || {
            if read {
                client.submit_read(1, 0, nlb, len)
            } else {
                // A refcount bump: the payload is never copied client-side.
                client.submit_write(1, 0, nlb, payload.clone())
            }
        })
        .expect("submit");
        while results.is_empty() {
            counted(target_allocs, || target.pump());
            counted(client_allocs, || client.poll_into(&mut results)).expect("client poll");
        }
        let done = results.pop().expect("one completion");
        assert!(done.status.is_ok(), "{:?}", done.status);
        if read {
            assert_eq!(done.data.len(), len);
            assert!(
                done.data.iter().all(|&b| b == 0xa5),
                "read back wrong bytes"
            );
        }
    };

    // Warm-up: write first so reads verify, then let every reusable
    // buffer (receive windows, send backlogs, maps, scratch) settle.
    let (mut unused_c, mut unused_t) = (0, 0);
    for i in 0..32 {
        op(i % 2 == 1, &mut unused_c, &mut unused_t);
    }

    const OPS: u64 = 200;
    let (mut client_on_reads, mut target_on_reads, mut target_on_writes) = (0, 0, 0);
    for _ in 0..OPS {
        op(true, &mut client_on_reads, &mut target_on_reads);
        op(false, &mut unused_c, &mut target_on_writes);
    }
    assert_eq!(
        client_on_reads, OPS,
        "a {len}-byte socket read must cost the client exactly the buffer it returns"
    );
    assert_eq!(
        target_on_reads, 0,
        "a {len}-byte socket read must not allocate on the target"
    );
    assert_eq!(
        target_on_writes, 0,
        "a single-chunk {len}-byte socket write must not allocate on the target"
    );
    // The target's C2H data rode the vectored split path.
    assert!(target.transport.tcp_metrics().vectored_sends.get() >= OPS);
}

/// The corked socket path's allocation budget: waves of eight 4 KiB
/// commands through an [`Initiator`] and a [`TargetConnection`] on a live
/// loopback pair, both played on this thread so each side is counted
/// apart. Queueing frames, the submit-time and end-of-poll flushes and
/// the target's queue-then-flush answer step allocate nothing: a wave of
/// writes costs neither side anything, and a wave of reads costs the
/// client exactly the eight buffers it hands back and the target nothing
/// (its eight reads of one pass take eight recycled buffers).
///
/// [`Initiator`]: oaf_nvmeof::initiator::Initiator
/// [`TargetConnection`]: oaf_nvmeof::target::TargetConnection
#[test]
fn corked_socket_waves_allocate_only_the_read_buffers_returned() {
    use bytes::Bytes;
    use oaf_nvmeof::initiator::{Initiator, InitiatorOptions};
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_nvmeof::target::{TargetConfig, TargetConnection};
    use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
    use oaf_nvmeof::transport::queue_pdu;

    const LEN: usize = 4096;
    const QD: usize = 8;

    /// Runs `f` with this thread's allocations counted into `into`.
    fn counted<R>(into: &mut u64, f: impl FnOnce() -> R) -> R {
        ALLOCS.with(|c| c.set(0));
        TRACK.with(|t| t.set(true));
        let r = f();
        TRACK.with(|t| t.set(false));
        *into += ALLOCS.with(Cell::get);
        r
    }

    struct Target {
        transport: TcpTransport,
        conn: TargetConnection,
        ctrl: Controller,
        out: Vec<Pdu>,
        scratch: BytesMut,
    }
    impl Target {
        /// One serve pass, its two halves counted apart: drain + execute
        /// into `serving`, queue + flush into `sending`.
        fn pump(&mut self, serving: &mut u64, sending: &mut u64) {
            let Target {
                transport,
                conn,
                ctrl,
                out,
                scratch,
            } = self;
            counted(serving, || {
                transport
                    .recv_batch(&mut |frame| conn.handle(frame, ctrl, out).expect("target handle"))
                    .expect("target drain");
            });
            counted(sending, || {
                for pdu in out.drain(..) {
                    queue_pdu(&*transport, &pdu, scratch).expect("target queue");
                }
                transport.flush_queued().expect("target flush");
            });
        }
    }

    let (client_tr, target_tr) =
        TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
    let client_tcp = client_tr.tcp_metrics().clone();
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::new(1, 4096, 256));
    let mut target = Target {
        transport: target_tr,
        conn: TargetConnection::new(TargetConfig::default(), None),
        ctrl,
        out: Vec::new(),
        scratch: BytesMut::with_capacity(256),
    };
    let (mut unused_a, mut unused_b) = (0, 0);
    let mut client = std::thread::scope(|s| {
        let connecting = s.spawn(|| {
            Initiator::connect(
                client_tr,
                InitiatorOptions::default(),
                None,
                std::time::Duration::from_secs(5),
            )
        });
        while !connecting.is_finished() {
            target.pump(&mut unused_a, &mut unused_b);
            std::thread::yield_now();
        }
        connecting.join().expect("connect thread").expect("connect")
    });

    let payload = Bytes::from(vec![0x5au8; LEN]);
    let mut results = Vec::with_capacity(2 * QD);
    let mut wave = |read: bool, client_allocs: &mut u64, serving: &mut u64, sending: &mut u64| {
        counted(client_allocs, || {
            for lba in 0..QD as u64 {
                if read {
                    client.submit_read(1, lba, 1, LEN)
                } else {
                    // A refcount bump: the payload is never copied here.
                    client.submit_write(1, lba, 1, payload.clone())
                }
                .expect("submit");
            }
        });
        while results.len() < QD {
            target.pump(serving, sending);
            counted(client_allocs, || client.poll_into(&mut results)).expect("client poll");
        }
        for done in results.drain(..) {
            assert!(done.status.is_ok(), "{:?}", done.status);
            if read {
                assert!(done.data.len() == LEN && done.data.iter().all(|&b| b == 0x5a));
            }
        }
    };

    // Warm-up: writes first so reads verify, then let every reusable
    // buffer (receive windows, send queues, maps, scratch) settle.
    for i in 0..16 {
        wave(i % 2 == 1, &mut unused_a, &mut unused_b, &mut 0);
    }

    const WAVES: u64 = 500;
    let sent_before = client_tcp.tx_syscalls.get();
    let (mut client_reads, mut client_writes) = (0, 0);
    let (mut target_reads, mut target_writes, mut target_sending) = (0, 0, 0);
    for _ in 0..WAVES {
        wave(
            false,
            &mut client_writes,
            &mut target_writes,
            &mut target_sending,
        );
        wave(
            true,
            &mut client_reads,
            &mut target_reads,
            &mut target_sending,
        );
    }
    assert_eq!(client_writes, 0, "a corked write wave must not allocate");
    assert_eq!(
        client_reads,
        WAVES * QD as u64,
        "a corked read wave must cost the client exactly the buffers it returns"
    );
    assert_eq!(
        target_writes, 0,
        "serving in-capsule writes must not allocate"
    );
    assert_eq!(target_reads, 0, "serving inline reads must not allocate");
    assert_eq!(target_sending, 0, "queue + flush must not allocate");
    // And the waves really were corked: the first submit of a wave leaves
    // alone, the other seven with the next poll.
    let per_wave = (client_tcp.tx_syscalls.get() - sent_before) as f64 / (2 * WAVES) as f64;
    assert!(per_wave <= 3.0, "{per_wave} client writes per wave of {QD}");
}
