//! Real-socket NVMe/TCP transport (§4.5).
//!
//! A nonblocking, poll-mode [`Transport`] over a kernel `TcpStream`,
//! built for the same hot-path discipline as the ring transports:
//!
//! * **Vectored sends.** [`Transport::send_split`] transmits a data
//!   PDU as `[header-prefix, borrowed payload]` with one
//!   `write_vectored`, so large H2C/C2H payloads never pass through a
//!   coalescing copy (the PR-1 zero-allocation steady state survives
//!   the socket hop).
//! * **Queued sends.** [`Transport::queue_frame`] appends a small frame
//!   to the send queue and [`Transport::flush_queued`] writes the queue
//!   with one `write`; a vectored send that finds frames queued ahead of
//!   it takes them along in the same `writev`. `send_frame` and
//!   `send_split` themselves never defer.
//! * **Resumable partial I/O.** Short writes park the unsent tail in a
//!   per-connection backlog that later sends *and* receive polls
//!   resume; short reads accumulate in a fixed receive window that
//!   parses frames by the header's `plen` and compacts partial tails
//!   in place. Both directions are pure state machines — no thread is
//!   ever blocked inside the kernel.
//! * **One receive path.** Every frame leaves the window through
//!   [`Transport::recv_batch`], borrowed; a blocking waiter polls it
//!   through [`crate::transport::recv_batch_until`], the same
//!   spin→yield→sleep [`WaitLadder`] every transport waits on.
//!
//! Frame boundaries come from the PDU common header itself (`plen` at
//! byte 4 covers the whole PDU), so the receive side needs no extra
//! length framing: read 12 bytes, then `plen − 12` more. CRC checking
//! stays in the PDU decoder, exactly as on the ring paths.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::error::NvmeofError;
use crate::metrics::{TcpMetrics, TransportMetrics};
use crate::pdu::HEADER_LEN;
use crate::transport::{BackoffConfig, Frame, Transport, WaitLadder, WaitStep};

/// Direct `setsockopt`/`getsockopt` bindings for the two buffer knobs
/// the paper tunes. `std` already links libc, so declaring the symbols
/// avoids a dependency; non-Linux builds silently skip the tuning.
#[cfg(target_os = "linux")]
mod sockopt {
    use std::os::fd::RawFd;

    const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;
    pub const SO_RCVBUF: i32 = 8;

    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn getsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *mut core::ffi::c_void,
            optlen: *mut u32,
        ) -> i32;
    }

    pub fn set(fd: RawFd, opt: i32, val: usize) -> bool {
        let v = val.min(i32::MAX as usize) as i32;
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&v as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        rc == 0
    }

    pub fn get(fd: RawFd, opt: i32) -> Option<usize> {
        let mut v: i32 = 0;
        let mut len = std::mem::size_of::<i32>() as u32;
        let rc = unsafe { getsockopt(fd, SOL_SOCKET, opt, (&mut v as *mut i32).cast(), &mut len) };
        if rc == 0 {
            Some(v.max(0) as usize)
        } else {
            None
        }
    }
}

/// Socket tuning knobs for [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Disable Nagle's algorithm (the control path is latency-bound;
    /// the paper's NVMe/TCP baseline runs with `TCP_NODELAY`).
    pub nodelay: bool,
    /// Requested `SO_SNDBUF` in bytes; `None` keeps the kernel default.
    pub sndbuf: Option<usize>,
    /// Requested `SO_RCVBUF` in bytes; `None` keeps the kernel default.
    ///
    /// Keep this at one path MSS or more: a receive buffer below the MSS
    /// (~64 KiB on Linux loopback) makes the kernel's silly-window
    /// avoidance suppress window updates, wedging bulk transfers at the
    /// TCP layer regardless of how fast both applications poll.
    pub rcvbuf: Option<usize>,
    /// Spin/yield tuning shared with the ring transports.
    pub backoff: BackoffConfig,
    /// Largest acceptable frame (`plen`); anything bigger means the
    /// byte stream has desynchronized and the connection is torn down.
    pub max_frame: usize,
    /// Initial receive-window size. Frames larger than the window grow
    /// it (up to `max_frame`), so this is a steady-state knob, not a
    /// limit.
    pub rx_window: usize,
    /// Send-backlog size past which a send blocks flushing (and
    /// finally reports [`NvmeofError::RingFull`]) instead of queueing
    /// more — the socket-path analog of a full ring.
    pub max_backlog: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            nodelay: true,
            sndbuf: None,
            rcvbuf: None,
            backoff: BackoffConfig::default(),
            max_frame: 16 * 1024 * 1024,
            rx_window: 256 * 1024,
            max_backlog: 4 * 1024 * 1024,
        }
    }
}

/// Send queue: bytes accepted but not yet written to the socket —
/// frames queued for the next flush and the tail of a write the socket
/// cut short alike. `head` marks how much of `backlog` has already gone
/// out, so resuming a short write is a slice, not a memmove.
struct TxState {
    backlog: Vec<u8>,
    head: usize,
    /// Frames queued since the last flush decision.
    queued_frames: u64,
}

/// Initial capacity of the send queue: the cork budget plus one
/// queueable frame, so steady-state queueing never grows it.
const TX_QUEUE_CAPACITY: usize = 64 * 1024;

impl TxState {
    fn pending(&self) -> usize {
        self.backlog.len() - self.head
    }
}

/// Resumable receive state: a byte window the socket fills and the
/// frame parser drains. `consumed..filled` is unparsed stream data;
/// a partial tail frame simply stays there until more bytes arrive.
struct RxState {
    buf: Vec<u8>,
    filled: usize,
    consumed: usize,
    eof: bool,
}

impl RxState {
    fn available(&self) -> usize {
        self.filled - self.consumed
    }
}

/// Nonblocking, poll-mode NVMe/TCP socket transport (§4.5).
pub struct TcpTransport {
    stream: TcpStream,
    tx: Mutex<TxState>,
    rx: Mutex<RxState>,
    cfg: TcpConfig,
    metrics: Arc<TransportMetrics>,
    tcp: Arc<TcpMetrics>,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Maps a socket-level I/O failure onto the transport error space: any
/// hard error (reset, broken pipe, …) means the connection is gone.
fn closed(_: io::Error) -> NvmeofError {
    NvmeofError::TransportClosed
}

impl TcpTransport {
    /// Wraps an already-connected stream, applying `cfg` (nodelay,
    /// buffer sizes) and switching it to nonblocking mode.
    pub fn from_stream(stream: TcpStream, cfg: TcpConfig) -> io::Result<Self> {
        stream.set_nodelay(cfg.nodelay)?;
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            let fd = stream.as_raw_fd();
            if let Some(s) = cfg.sndbuf {
                sockopt::set(fd, sockopt::SO_SNDBUF, s);
            }
            if let Some(r) = cfg.rcvbuf {
                sockopt::set(fd, sockopt::SO_RCVBUF, r);
            }
        }
        stream.set_nonblocking(true)?;
        let rx_window = cfg.rx_window.max(HEADER_LEN);
        Ok(TcpTransport {
            stream,
            tx: Mutex::new(TxState {
                backlog: Vec::with_capacity(TX_QUEUE_CAPACITY),
                head: 0,
                queued_frames: 0,
            }),
            rx: Mutex::new(RxState {
                buf: vec![0; rx_window],
                filled: 0,
                consumed: 0,
                eof: false,
            }),
            cfg,
            metrics: TransportMetrics::new(),
            tcp: TcpMetrics::new(),
        })
    }

    /// Connects to a listening target, e.g. `"127.0.0.1:4420"`.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: TcpConfig) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?, cfg)
    }

    /// Accepts one connection from `listener` (blocking accept, then
    /// the socket itself runs nonblocking).
    pub fn accept_from(listener: &TcpListener, cfg: TcpConfig) -> io::Result<Self> {
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream, cfg)
    }

    /// A connected pair over `127.0.0.1` — the in-process stand-in for
    /// an initiator↔target link, and what the connection manager uses
    /// when locality says "remote" but both processes share a host.
    pub fn loopback_pair(cfg: TcpConfig) -> io::Result<(Self, Self)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        Ok((
            Self::from_stream(client, cfg.clone())?,
            Self::from_stream(server, cfg)?,
        ))
    }

    /// This endpoint's generic transport metrics.
    pub fn metrics(&self) -> &Arc<TransportMetrics> {
        &self.metrics
    }

    /// Socket-specific counters (syscalls, partial-I/O resumptions).
    pub fn tcp_metrics(&self) -> &Arc<TcpMetrics> {
        &self.tcp
    }

    /// The backoff tuning this endpoint waits with.
    pub fn backoff_config(&self) -> BackoffConfig {
        self.cfg.backoff
    }

    /// Kernel-reported `(SO_SNDBUF, SO_RCVBUF)`, where available.
    pub fn effective_bufs(&self) -> (Option<usize>, Option<usize>) {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            let fd = self.stream.as_raw_fd();
            (
                sockopt::get(fd, sockopt::SO_SNDBUF),
                sockopt::get(fd, sockopt::SO_RCVBUF),
            )
        }
        #[cfg(not(target_os = "linux"))]
        {
            (None, None)
        }
    }

    /// Pushes the send queue toward the socket without blocking.
    /// Returns `true` when nothing is left in it.
    ///
    /// The receive paths already flush opportunistically, so a duplex
    /// poll loop never needs this; it exists for one-directional
    /// senders (bulk streamers, drains before close) whose parked tail
    /// would otherwise wait for a send or receive that never comes.
    pub fn flush(&self) -> Result<bool, NvmeofError> {
        let mut tx = lock_ignore_poison(&self.tx);
        self.write_out(&mut tx, &[], &[]).map(|_| tx.pending() == 0)
    }

    /// Writes `queue ++ prefix ++ payload` with as few syscalls as the
    /// socket allows — one `write`/`writev` unless it cuts the call
    /// short — and stops at the first `WouldBlock`; with nothing to
    /// write it makes no call. Returns how many bytes of
    /// `prefix ++ payload` went out; the queue's share is accounted in
    /// `tx`.
    fn write_out(
        &self,
        tx: &mut TxState,
        prefix: &[u8],
        payload: &[u8],
    ) -> Result<usize, NvmeofError> {
        if tx.queued_frames > 0 {
            self.tcp.frames_per_flush.record(tx.queued_frames);
            tx.queued_frames = 0;
        }
        let queued = tx.pending();
        let total = queued + prefix.len() + payload.len();
        let mut done = 0usize;
        while done < total {
            let mut iov = [IoSlice::new(&[]); 3];
            let mut parts = 0;
            let mut skip = done;
            for part in [&tx.backlog[tx.head..], prefix, payload] {
                if skip >= part.len() {
                    skip -= part.len();
                } else {
                    iov[parts] = IoSlice::new(&part[skip..]);
                    parts += 1;
                    skip = 0;
                }
            }
            let res = if parts == 1 {
                (&self.stream).write(&iov[0])
            } else {
                (&self.stream).write_vectored(&iov[..parts])
            };
            self.tcp.tx_syscalls.inc();
            match res {
                Ok(0) => return Err(NvmeofError::TransportClosed),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(closed(e)),
            }
        }
        if done >= queued {
            tx.backlog.clear();
            tx.head = 0;
        } else {
            tx.head += done;
        }
        Ok(done.saturating_sub(queued))
    }

    /// If bytes are waiting in the send queue, try to push them out —
    /// called from the receive paths so a poll loop drives both
    /// directions (poll-mode duplex: two peers with parked tails always
    /// make progress off each other's receive polls).
    fn opportunistic_flush(&self) {
        if let Ok(mut tx) = self.tx.try_lock() {
            // A send error here will resurface on the next send.
            let _ = self.write_out(&mut tx, &[], &[]);
        }
    }

    /// Core send: transmit `prefix ++ payload` as one logical frame
    /// behind whatever is queued, parking what the socket won't take.
    fn transmit(&self, prefix: &[u8], payload: &[u8]) -> Result<(), NvmeofError> {
        let mut tx = lock_ignore_poison(&self.tx);
        self.transmit_locked(&mut tx, prefix, payload)
    }

    fn transmit_locked(
        &self,
        tx: &mut TxState,
        prefix: &[u8],
        payload: &[u8],
    ) -> Result<(), NvmeofError> {
        let total = prefix.len() + payload.len();
        if !payload.is_empty() {
            self.tcp.vectored_sends.inc();
        }
        let written = self.write_out(tx, prefix, payload)?;
        if written >= total {
            self.metrics.on_send(total);
            return Ok(());
        }
        // The socket is full. Park the unsent tail so a later send or
        // receive poll resumes it; a frame that already hit the wire
        // partially *must* be queued to keep the stream framed.
        if written > 0 {
            self.tcp.partial_write_resumptions.inc();
        }
        let queued_from = tx.backlog.len();
        if written < prefix.len() {
            tx.backlog.extend_from_slice(&prefix[written..]);
            tx.backlog.extend_from_slice(payload);
        } else {
            tx.backlog
                .extend_from_slice(&payload[written - prefix.len()..]);
        }
        if tx.pending() <= self.cfg.max_backlog {
            self.metrics.on_send(total);
            return Ok(());
        }
        // Backlog over budget: block on a bounded spin/yield flush, the
        // socket analog of waiting on a full ring.
        let deadline = Instant::now() + self.cfg.backoff.send_full_timeout;
        let mut ladder = WaitLadder::until(deadline, &self.cfg.backoff);
        loop {
            self.write_out(tx, &[], &[])?;
            if tx.pending() <= self.cfg.max_backlog {
                self.metrics.on_send(total);
                return Ok(());
            }
            match ladder.step() {
                WaitStep::Again => {}
                WaitStep::Sleep(d) => std::thread::sleep(d),
                WaitStep::Expired => {
                    // Judged now, not before the wait: the flushes above
                    // may have put the head of this very frame on the
                    // wire (it alone can exceed `max_backlog`).
                    if written > 0 || tx.head > queued_from {
                        // Can't drop a half-sent frame without breaking
                        // the stream; accept it and let later polls
                        // drain the tail.
                        self.metrics.on_send(total);
                        return Ok(());
                    }
                    // Drop this (never-started) frame cleanly.
                    tx.backlog.truncate(queued_from);
                    self.metrics.ring_full.inc();
                    return Err(NvmeofError::RingFull);
                }
            }
        }
    }

    /// Frame bounds of the next complete PDU in the window, if any.
    fn peek_frame(&self, rx: &RxState) -> Result<Option<std::ops::Range<usize>>, NvmeofError> {
        if rx.available() < HEADER_LEN {
            return Ok(None);
        }
        let h = &rx.buf[rx.consumed..];
        let plen = u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize;
        if plen < HEADER_LEN || plen > self.cfg.max_frame {
            return Err(NvmeofError::Protocol(format!(
                "tcp stream desync: frame length {plen} outside [{HEADER_LEN}, {}]",
                self.cfg.max_frame
            )));
        }
        if rx.available() < plen {
            return Ok(None);
        }
        Ok(Some(rx.consumed..rx.consumed + plen))
    }

    /// Makes at least one byte of fill space: compact the window over
    /// already-consumed bytes, or grow it when a single frame is larger
    /// than the whole window.
    fn ensure_space(&self, rx: &mut RxState) {
        if rx.filled < rx.buf.len() {
            return;
        }
        if rx.consumed > 0 {
            rx.buf.copy_within(rx.consumed..rx.filled, 0);
            rx.filled -= rx.consumed;
            rx.consumed = 0;
            if rx.filled < rx.buf.len() {
                return;
            }
        }
        // One frame fills the entire window: grow toward its announced
        // length (bad lengths are rejected in peek_frame before this
        // can run away; cap at max_frame regardless).
        let announced = if rx.available() >= HEADER_LEN {
            let h = &rx.buf[rx.consumed..];
            u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize
        } else {
            0
        };
        let want = announced
            .max(rx.buf.len() * 2)
            .min(self.cfg.max_frame.max(HEADER_LEN));
        if want > rx.buf.len() {
            rx.buf.resize(want, 0);
        }
    }

    /// Reads whatever the socket has ready into the window. Returns
    /// `true` if any bytes arrived.
    fn fill(&self, rx: &mut RxState) -> Result<bool, NvmeofError> {
        if rx.eof {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            self.ensure_space(rx);
            if rx.filled == rx.buf.len() {
                // Window is at max_frame and still no complete frame —
                // peek_frame will report the desync.
                return Ok(progress);
            }
            let res = (&self.stream).read(&mut rx.buf[rx.filled..]);
            self.tcp.rx_syscalls.inc();
            match res {
                Ok(0) => {
                    rx.eof = true;
                    return Ok(progress);
                }
                Ok(n) => {
                    progress = true;
                    rx.filled += n;
                    if rx.filled < rx.buf.len() {
                        // Short read: the socket gave us all it had.
                        return Ok(progress);
                    }
                    // Filled the window exactly — there may be more.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(progress),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(closed(e)),
            }
        }
    }

    /// Resets the window indices once everything buffered is consumed,
    /// so steady-state traffic never needs compaction.
    fn rewind_if_empty(rx: &mut RxState) {
        if rx.consumed == rx.filled {
            rx.consumed = 0;
            rx.filled = 0;
        }
    }
}

impl Transport for TcpTransport {
    fn send_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        self.transmit(frame, &[])
    }

    fn send_split(&self, prefix: &[u8], payload: &[u8]) -> Result<(), NvmeofError> {
        self.transmit(prefix, payload)
    }

    fn prefers_split(&self) -> bool {
        true
    }

    fn queue_frame(&self, frame: &[u8]) -> Result<(), NvmeofError> {
        let mut tx = lock_ignore_poison(&self.tx);
        if tx.pending() + frame.len() > self.cfg.max_backlog {
            // Nothing has flushed for a long time: take the immediate
            // path, which drains the queue or blocks on it.
            return self.transmit_locked(&mut tx, frame, &[]);
        }
        tx.backlog.extend_from_slice(frame);
        tx.queued_frames += 1;
        self.tcp.frames_queued.inc();
        self.metrics.on_send(frame.len());
        Ok(())
    }

    fn flush_queued(&self) -> Result<(), NvmeofError> {
        let mut tx = lock_ignore_poison(&self.tx);
        self.write_out(&mut tx, &[], &[]).map(drop)
    }

    fn recv_batch(&self, f: &mut dyn FnMut(Frame<'_>)) -> Result<usize, NvmeofError> {
        self.opportunistic_flush();
        let mut rx = lock_ignore_poison(&self.rx);
        let fill_res = self.fill(&mut rx);
        let mut n = 0usize;
        loop {
            match self.peek_frame(&rx) {
                Ok(Some(r)) => {
                    self.metrics.on_recv_borrowed(1, r.len());
                    f(Frame::Borrowed(&rx.buf[r.clone()]));
                    rx.consumed = r.end;
                    n += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    // Deliver what we parsed; the desync error surfaces
                    // on the next poll.
                    if n > 0 {
                        self.metrics.batch_sizes.record(n as u64);
                        return Ok(n);
                    }
                    return Err(e);
                }
            }
        }
        if rx.available() > 0 && matches!(fill_res, Ok(true)) {
            // A tail frame is still incomplete after this fill — it will
            // resume on a later poll.
            self.tcp.partial_read_resumptions.inc();
        }
        Self::rewind_if_empty(&mut rx);
        if n > 0 {
            self.metrics.batch_sizes.record(n as u64);
            return Ok(n);
        }
        match fill_res {
            Err(e) => Err(e),
            Ok(_) if rx.eof => Err(NvmeofError::TransportClosed),
            Ok(_) => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{CapsuleResp, Pdu};
    use crate::transport::{recv_batch_until, recv_n};
    use bytes::{Bytes, BytesMut};
    use std::time::Duration;

    fn pair() -> (TcpTransport, TcpTransport) {
        TcpTransport::loopback_pair(TcpConfig::default()).expect("loopback pair")
    }

    #[test]
    fn frames_cross_the_socket_both_ways() {
        let (a, b) = pair();
        let p = Pdu::CapsuleResp(CapsuleResp {
            completion: crate::nvme::completion::NvmeCompletion::ok(7),
        });
        a.send_frame(&p.encode()).unwrap();
        let got = recv_n(&b, 1, Duration::from_secs(2)).unwrap().remove(0);
        assert_eq!(Pdu::decode(got).unwrap(), p);
        b.send_frame(&p.encode()).unwrap();
        let got = recv_n(&a, 1, Duration::from_secs(2)).unwrap().remove(0);
        assert_eq!(Pdu::decode(got).unwrap(), p);
    }

    #[test]
    fn split_send_is_one_frame_on_the_wire() {
        let (a, b) = pair();
        let payload = Bytes::from(vec![0xA5u8; 100_000]);
        let pdu = Pdu::H2CData(crate::pdu::DataPdu {
            cid: 3,
            ttag: 1,
            offset: 0,
            last: true,
            data: crate::pdu::DataRef::Inline(payload),
        });
        let mut scratch = BytesMut::new();
        let tail = pdu.encode_split_into(&mut scratch).unwrap();
        assert!(a.prefers_split());
        a.send_split(&scratch, tail).unwrap();
        let got = recv_n(&b, 1, Duration::from_secs(2)).unwrap().remove(0);
        assert_eq!(Pdu::decode(got).unwrap(), pdu);
        assert!(a.tcp_metrics().vectored_sends.get() >= 1);
    }

    #[test]
    fn peer_drop_surfaces_as_transport_closed() {
        let (a, b) = pair();
        drop(b);
        // The closure may take a few polls to surface.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let within = Instant::now() + Duration::from_millis(50);
            match recv_batch_until(&a, within, &a.backoff_config(), &mut |_| {}) {
                Err(NvmeofError::TransportClosed) => break,
                Ok(_) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(Instant::now() < deadline, "closure never surfaced");
        }
    }

    #[test]
    fn desynced_stream_is_rejected() {
        let (a, b) = pair();
        // A "frame" whose plen is garbage (way over max_frame).
        let mut junk = vec![0u8; HEADER_LEN];
        junk[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        a.send_frame(&junk).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match b.recv_batch(&mut |_| {}) {
                Err(NvmeofError::Protocol(m)) => {
                    assert!(m.contains("desync"), "{m}");
                    break;
                }
                Ok(0) => {}
                other => panic!("unexpected: {other:?}"),
            }
            assert!(Instant::now() < deadline, "desync never surfaced");
        }
    }

    #[test]
    fn queued_frames_leave_on_flush_in_order_behind_one_write() {
        let (a, b) = pair();
        let frames: Vec<Bytes> = (0..16u16)
            .map(|cid| {
                Pdu::CapsuleResp(CapsuleResp {
                    completion: crate::nvme::completion::NvmeCompletion::ok(cid),
                })
                .encode()
            })
            .collect();
        for f in &frames {
            a.queue_frame(f).unwrap();
        }
        assert_eq!(a.tcp_metrics().tx_syscalls.get(), 0, "queueing wrote");
        assert_eq!(a.metrics().frames_sent.get(), 16);
        assert_eq!(a.tcp_metrics().frames_queued.get(), 16);
        a.flush_queued().unwrap();
        assert_eq!(a.tcp_metrics().tx_syscalls.get(), 1);
        assert_eq!(a.tcp_metrics().frames_per_flush.count(), 1);
        let got = recv_n(&b, frames.len(), Duration::from_secs(2)).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(&got[i], f);
        }
        // Nothing queued: a flush costs no syscall.
        a.flush_queued().unwrap();
        assert_eq!(a.tcp_metrics().tx_syscalls.get(), 1);
    }

    #[test]
    fn immediate_send_carries_the_queue_ahead_of_it() {
        let (a, b) = pair();
        a.queue_frame(&[1u8, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0xaa])
            .unwrap();
        // `send_frame` never defers, and it may not overtake the queue.
        a.send_frame(&[2u8, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0xbb])
            .unwrap();
        assert_eq!(a.tcp_metrics().tx_syscalls.get(), 1, "one writev for both");
        let got = recv_n(&b, 2, Duration::from_secs(2)).unwrap();
        for (i, tag) in [0xaau8, 0xbb].into_iter().enumerate() {
            assert_eq!(got[i][12], tag);
        }
    }

    /// A frame larger than `max_backlog` that the over-budget wait puts
    /// partly on the wire must survive the wait's expiry: cutting it out
    /// of the backlog would both desynchronise the stream and leave
    /// `head` past the backlog's end.
    #[test]
    fn half_flushed_frame_survives_backlog_timeout() {
        use std::sync::mpsc::channel;

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let cfg = TcpConfig {
            sndbuf: Some(4096),
            max_backlog: 1024,
            backoff: BackoffConfig {
                spin_limit: 8,
                send_full_timeout: Duration::from_millis(400),
            },
            ..TcpConfig::default()
        };
        let tx = TcpTransport::connect(listener.local_addr().unwrap(), cfg).unwrap();
        let (mut peer, _) = listener.accept().unwrap();

        let frame = |tag: u8, len: usize| {
            let mut f = vec![tag; len];
            f[4..8].copy_from_slice(&(len as u32).to_le_bytes());
            f
        };
        // Fill the socket until a filler's tail parks.
        let filler = frame(1, 512);
        let mut accepted = 0usize;
        while lock_ignore_poison(&tx.tx).pending() == 0 {
            tx.send_frame(&filler).unwrap();
            accepted += 1;
            assert!(accepted < 1_000_000, "socket never filled");
        }

        let (go, wait_go) = channel::<()>();
        let (resume, wait_resume) = channel::<()>();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            wait_go.recv().unwrap();
            // Read a little while the sender sits in its over-budget
            // wait, so that wait flushes the head of the big frame...
            std::thread::sleep(Duration::from_millis(50));
            let mut some = vec![0u8; 48 * 1024];
            peer.read_exact(&mut some).unwrap();
            got.extend_from_slice(&some);
            // ...then stall until the wait has expired.
            wait_resume.recv().unwrap();
            peer.read_to_end(&mut got).unwrap();
            got
        });

        const BIG: usize = 256 * 1024;
        go.send(()).unwrap();
        tx.send_frame(&frame(2, BIG))
            .expect("a frame partly on the wire is kept, not refused");
        resume.send(()).unwrap();
        while !tx.flush().unwrap() {
            std::thread::yield_now();
        }
        drop(tx);

        // The stream still parses: every filler, then the big frame.
        let got = reader.join().unwrap();
        let mut at = 0usize;
        let mut lens = Vec::new();
        while at < got.len() {
            let plen = u32::from_le_bytes(got[at + 4..at + 8].try_into().unwrap()) as usize;
            assert!(
                got[at + 8..at + plen].iter().all(|&b| b == got[at]),
                "frame at byte {at} is torn"
            );
            lens.push(plen);
            at += plen;
        }
        assert_eq!(at, got.len());
        assert_eq!(lens.len(), accepted + 1);
        assert_eq!(lens.last(), Some(&BIG));
    }

    #[test]
    fn buffer_sizes_are_applied_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = TcpConfig {
            sndbuf: Some(8 * 1024),
            rcvbuf: Some(8 * 1024),
            ..TcpConfig::default()
        };
        let client = TcpTransport::connect(addr, cfg.clone()).unwrap();
        let _server = TcpTransport::accept_from(&listener, cfg).unwrap();
        let (snd, rcv) = client.effective_bufs();
        // The kernel doubles the requested value for bookkeeping; just
        // check the request visibly landed (tiny, not the default).
        assert!(snd.unwrap() <= 64 * 1024, "sndbuf: {snd:?}");
        assert!(rcv.unwrap() <= 64 * 1024, "rcvbuf: {rcv:?}");
    }
}
