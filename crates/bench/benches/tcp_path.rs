//! Real-socket NVMe/TCP data-plane microbenchmarks (paper §4.5): one
//! bandwidth-bound I/O — payload out, 1-frame ack back — over a live
//! `127.0.0.1` socket pair, comparing
//!
//! * **naive-blocking** — the seed-style wire path: blocking sockets,
//!   each I/O encoded as one owned PDU frame (`Pdu::encode`: allocate,
//!   memcpy the payload in, CRC-stamp), `write_all`, and a fresh owned
//!   buffer per received frame; against
//! * **vectored+chunked** — `TcpTransport`: nonblocking poll-mode
//!   sockets, the payload borrowed into a `write_vectored` send (no
//!   staging copy), large I/O streamed as 512 KiB chunks (the
//!   initiator's default `write_chunk`, Fig. 9), and the ack awaited on
//!   the runtime's wait ladder (`WaitLadder` on the default
//!   `BackoffConfig`).
//!
//! The receiving sink runs on its own thread for both paths and never
//! copies more than the kernel forces it to, so the delta isolates the
//! sender-side framing discipline.
//!
//! The `cork` group prices the queued send path: a burst of 16 small
//! frames as 16 `send_frame` calls (one `write` each) against
//! 16 `queue_frame` calls and one `flush_queued` (one `write` in all).
//!
//! Run:    cargo bench -p oaf-bench --bench tcp_path
//! Smoke:  cargo bench -p oaf-bench --bench tcp_path -- --test
//!         (also prints MB/s + allocs/op for EXPERIMENTS.md)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oaf_nvmeof::initiator::InitiatorOptions;
use oaf_nvmeof::pdu::{DataPdu, DataRef, Pdu};
use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
use oaf_nvmeof::transport::{BackoffConfig, Transport, WaitLadder, WaitStep};
use oaf_store::crc32::{
    crc32_update, crc32_update_table, crc32_update_with, digest_impl, DigestImpl,
};

/// Counts allocations on the bench thread when tracking is on;
/// delegates to [`System`]. Thread-local so the sink threads don't
/// pollute the per-op numbers.
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

const SIZES: &[usize] = &[64 * 1024, 256 * 1024, 1024 * 1024];

// ---------------------------------------------------------------------
// Naive blocking baseline: seed-style framing over blocking sockets.
// ---------------------------------------------------------------------

/// One naive endpoint pair plus its sink thread. Frames carry the same
/// PDU encoding as the optimized path (CRC-stamped `plen`-delimited
/// frames) — the sink parses `plen` out of the common header and reads
/// each body into a fresh owned buffer, the seed idiom — and acks each
/// I/O with one byte.
struct NaivePath {
    stream: TcpStream,
    sink: Option<std::thread::JoinHandle<()>>,
}

/// `plen` sits at bytes 4..8 of the PDU common header and covers the
/// whole frame.
const PLEN_OFFSET: usize = 4;
const NAIVE_HDR: usize = 8;

impl NaivePath {
    fn new() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let (peer, _) = listener.accept().expect("accept");
        peer.set_nodelay(true).expect("nodelay");
        let sink = std::thread::spawn(move || {
            let mut peer = peer;
            let mut hdr = [0u8; NAIVE_HDR];
            loop {
                match peer.read_exact(&mut hdr) {
                    Ok(()) => {}
                    Err(_) => return, // sender hung up
                }
                let plen =
                    u32::from_le_bytes(hdr[PLEN_OFFSET..PLEN_OFFSET + 4].try_into().expect("plen"))
                        as usize;
                let mut frame = vec![0u8; plen - NAIVE_HDR]; // owned buffer per frame
                peer.read_exact(&mut frame).expect("frame body");
                peer.write_all(&[1u8]).expect("ack");
            }
        });
        Self {
            stream,
            sink: Some(sink),
        }
    }

    /// One I/O: encode a fresh owned frame — the allocation, payload
    /// memcpy, and CRC the seed path pays — then blocking `write_all`
    /// and a blocking 1-byte ack read.
    fn io(&mut self, payload: &Bytes) {
        let pdu = Pdu::H2CData(DataPdu {
            cid: 1,
            ttag: 0,
            offset: 0,
            last: true,
            data: DataRef::Inline(payload.clone()),
        });
        let frame = pdu.encode();
        self.stream.write_all(&frame).expect("write_all");
        let mut ack = [0u8; 1];
        self.stream.read_exact(&mut ack).expect("ack");
    }
}

impl Drop for NaivePath {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.sink.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Optimized path: TcpTransport with vectored split sends, chunking,
// and the runtime's wait ladder for the ack.
// ---------------------------------------------------------------------

/// The optimized endpoint pair and its sink thread. The sink drains
/// borrowed frames (no decode, no copy beyond the kernel's) and acks
/// each complete I/O with one tiny PDU.
struct OafPath {
    tr: TcpTransport,
    sink: Option<std::thread::JoinHandle<()>>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl OafPath {
    fn new(io_wire_bytes: usize) -> Self {
        let (tr, peer) =
            TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_sink = stop.clone();
        let sink = std::thread::spawn(move || {
            let mut scratch = BytesMut::with_capacity(64);
            let mut pending = 0usize;
            let ack = Pdu::C2HData(DataPdu {
                cid: 0,
                ttag: 0,
                offset: 0,
                last: true,
                data: DataRef::ShmSlot { slot: 0, len: 0 },
            });
            ack.encode_into(&mut scratch);
            while !stop_sink.load(std::sync::atomic::Ordering::Relaxed) {
                let mut acks = 0usize;
                let drained = peer.recv_batch(&mut |frame| {
                    // Borrowed accounting only: frame lengths are
                    // deterministic, so a byte count recognizes the end
                    // of each I/O without decoding (decoding inline data
                    // would copy it).
                    pending += frame.as_slice().len();
                    if pending >= io_wire_bytes {
                        pending = 0;
                        acks += 1;
                    }
                });
                for _ in 0..acks {
                    peer.send_frame(&scratch).expect("ack");
                }
                match drained {
                    Ok(0) => std::thread::yield_now(),
                    Ok(_) => {}
                    Err(_) => return, // sender hung up
                }
            }
        });
        Self {
            tr,
            sink: Some(sink),
            stop,
        }
    }

    /// One I/O: the payload streams as `chunk`-sized offset-stamped
    /// sub-PDUs, each sent vectored with the payload slice borrowed
    /// (refcount bump, no copy), then the ack is awaited the way
    /// `Initiator::wait` awaits a completion: spin, yield, then sleep
    /// in bounded slices.
    fn io(&mut self, payload: &Bytes, chunk: usize, scratch: &mut BytesMut) {
        let mut offset = 0usize;
        while offset < payload.len() {
            let end = (offset + chunk).min(payload.len());
            let pdu = Pdu::H2CData(DataPdu {
                cid: 1,
                ttag: 0,
                offset: offset as u32,
                last: end == payload.len(),
                data: DataRef::Inline(payload.slice(offset..end)),
            });
            scratch.clear();
            let tail = pdu.encode_split_into(scratch).expect("inline pdu");
            self.tr.send_split(scratch, tail).expect("split send");
            offset = end;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ladder = WaitLadder::until(deadline, &BackoffConfig::default());
        while self.tr.recv_batch(&mut |_| {}).expect("ack") == 0 {
            match ladder.step() {
                WaitStep::Again => {}
                WaitStep::Sleep(d) => std::thread::sleep(d),
                WaitStep::Expired => panic!("no ack within 10 s"),
            }
        }
    }

    /// Total wire bytes one I/O of `len` occupies at `chunk` granularity
    /// (so the sink can recognize I/O boundaries without decoding).
    fn wire_bytes(len: usize, chunk: usize) -> usize {
        let mut total = 0usize;
        let mut offset = 0usize;
        let mut probe = BytesMut::with_capacity(128);
        let payload = Bytes::from(vec![0u8; len.min(chunk)]);
        while offset < len {
            let end = (offset + chunk).min(len);
            let pdu = Pdu::H2CData(DataPdu {
                cid: 1,
                ttag: 0,
                offset: offset as u32,
                last: end == len,
                data: DataRef::Inline(payload.slice(0..end - offset)),
            });
            probe.clear();
            let tail = pdu.encode_split_into(&mut probe).expect("inline pdu");
            total += probe.len() + tail.len();
            offset = end;
        }
        total
    }
}

impl Drop for OafPath {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.sink.take() {
            let _ = h.join();
        }
    }
}

fn select_chunk(size: usize) -> usize {
    // The runtime's socket chunk (Fig. 9's 512 KiB at 25 Gb/s), never
    // below the I/O size itself.
    InitiatorOptions::default().write_chunk.min(size.max(1))
}

fn bench_tcp_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp/io-acked");
    g.sample_size(20);

    for &size in SIZES {
        g.throughput(Throughput::Bytes(size as u64));

        let payload = Bytes::from(vec![0x5au8; size]);

        let mut naive = NaivePath::new();
        g.bench_function(BenchmarkId::new("naive-blocking", size / 1024), |b| {
            b.iter(|| naive.io(&payload))
        });
        drop(naive);

        let chunk = select_chunk(size);
        let mut oaf = OafPath::new(OafPath::wire_bytes(size, chunk));
        let mut scratch = BytesMut::with_capacity(256);
        g.bench_function(BenchmarkId::new("vectored-chunked", size / 1024), |b| {
            b.iter(|| oaf.io(&payload, chunk, &mut scratch))
        });
        drop(oaf);
    }
    g.finish();
}

/// The frame/journal digest alone: the table fold against whatever
/// [`crc32_update`] dispatches to on this host, at a control-frame, a
/// 4 KiB and a 128 KiB payload size, plus the three-stream `crc32`
/// instruction kernel and the 512-bit carry-less-multiply fold forced by
/// name at the two payload sizes (a kernel this host cannot run is
/// reported and skipped). Criterion reports GiB/s from the byte
/// throughput.
fn bench_digest(c: &mut Criterion) {
    let mut g = c.benchmark_group("digest");
    let dispatched = format!("dispatched-{:?}", digest_impl());
    for size in [64usize, 4 * 1024, 128 * 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        let data: Vec<u8> = (0..size).map(|i| (i * 31) as u8).collect();
        g.bench_function(BenchmarkId::new("table", size), |b| {
            b.iter(|| crc32_update_table(!0, black_box(&data)))
        });
        g.bench_function(BenchmarkId::new(dispatched.as_str(), size), |b| {
            b.iter(|| crc32_update(!0, black_box(&data)))
        });
        if size < 4 * 1024 {
            continue;
        }
        for (name, kernel) in [
            ("sse42-3stream", DigestImpl::Sse42),
            ("vpclmul-512", DigestImpl::Vpclmul),
        ] {
            if crc32_update_with(kernel, !0, &data).is_none() {
                println!("digest/{name}/{size}: not available on this host");
                continue;
            }
            g.bench_function(BenchmarkId::new(name, size), |b| {
                b.iter(|| crc32_update_with(kernel, !0, black_box(&data)))
            });
        }
    }
    g.finish();
}

/// A burst of 16 frames to a draining sink: written one by one, or
/// queued and flushed once. Frame sizes are a control capsule's and a
/// 4 KiB data PDU's.
fn bench_cork(c: &mut Criterion) {
    const BURST: usize = 16;
    let mut g = c.benchmark_group("cork");
    for size in [64usize, 4 * 1024] {
        g.throughput(Throughput::Elements(BURST as u64));
        let mut frame = vec![0x5au8; size];
        frame[4..8].copy_from_slice(&(size as u32).to_le_bytes());

        let (tr, peer) =
            TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback sockets");
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_sink = stop.clone();
        let sink = std::thread::spawn(move || {
            while !stop_sink.load(std::sync::atomic::Ordering::Relaxed) {
                match peer.recv_batch(&mut |f| {
                    black_box(f.as_slice().len());
                }) {
                    Ok(0) => std::thread::yield_now(),
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        });
        g.bench_function(BenchmarkId::new("send_frame-x16", size), |b| {
            b.iter(|| {
                for _ in 0..BURST {
                    tr.send_frame(&frame).expect("send");
                }
            })
        });
        g.bench_function(BenchmarkId::new("queue-x16+flush", size), |b| {
            b.iter(|| {
                for _ in 0..BURST {
                    tr.queue_frame(&frame).expect("queue");
                }
                tr.flush_queued().expect("flush");
            })
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        sink.join().expect("sink");
    }
    g.finish();
}

/// Manual before/after report — MB/s and sender-side allocations per
/// I/O for both paths at every size, printed even under `-- --test` so
/// the numbers land in EXPERIMENTS.md straight from the smoke run.
/// (Receive-side cost is architectural, not counted: the naive sink
/// materializes one owned buffer per frame, the optimized sink borrows.)
fn report_throughput(_c: &mut Criterion) {
    const WARMUP: usize = 8;
    eprintln!("tcp_path: payload out + ack back over 127.0.0.1 (MB/s, sender allocs/op):");
    for &size in SIZES {
        let ops = (16 * 1024 * 1024 / size).max(8);

        let payload = Bytes::from(vec![0x5au8; size]);

        let mut naive = NaivePath::new();
        for _ in 0..WARMUP {
            naive.io(&payload);
        }
        TRACK.with(|t| t.set(true));
        ALLOCS.with(|c| c.set(0));
        let t0 = Instant::now();
        for _ in 0..ops {
            naive.io(&payload);
        }
        let naive_dt = t0.elapsed();
        TRACK.with(|t| t.set(false));
        let naive_allocs = ALLOCS.with(Cell::get) as f64 / ops as f64;
        drop(naive);

        let chunk = select_chunk(size);
        let mut oaf = OafPath::new(OafPath::wire_bytes(size, chunk));
        let mut scratch = BytesMut::with_capacity(256);
        for _ in 0..WARMUP {
            oaf.io(&payload, chunk, &mut scratch);
        }
        TRACK.with(|t| t.set(true));
        ALLOCS.with(|c| c.set(0));
        let t0 = Instant::now();
        for _ in 0..ops {
            oaf.io(&payload, chunk, &mut scratch);
        }
        let oaf_dt = t0.elapsed();
        TRACK.with(|t| t.set(false));
        let oaf_allocs = ALLOCS.with(Cell::get) as f64 / ops as f64;
        drop(oaf);

        let mbps = |dt: Duration| (ops * size) as f64 / dt.as_secs_f64() / (1024.0 * 1024.0);
        eprintln!(
            "  {:>4} KiB: naive-blocking {:>8.1} MB/s ({:.2} allocs/op)  \
             vectored+chunked {:>8.1} MB/s ({:.2} allocs/op, chunk {} KiB)",
            size / 1024,
            mbps(naive_dt),
            naive_allocs,
            mbps(oaf_dt),
            oaf_allocs,
            chunk / 1024,
        );
    }
}

criterion_group!(
    benches,
    bench_tcp_path,
    bench_digest,
    bench_cork,
    report_throughput
);
criterion_main!(benches);
