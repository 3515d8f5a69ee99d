//! Variable-size SPSC frame ring in shared memory.
//!
//! This ring carries *whole control PDUs* of arbitrary size, enabling the
//! §5.5 future-work configuration where even the control path leaves
//! kernel TCP: two byte rings (one per direction) make a full duplex
//! in-region transport.
//!
//! Layout: `[head u64 | pad][tail u64, closed u64 | pad][data: capacity
//! bytes]`. Frames are `[len: u32][payload]`, written contiguously; a
//! frame that would straddle the wrap point writes a `len == u32::MAX`
//! skip marker and starts at offset 0. Producer owns `tail` and
//! `closed`, consumer owns `head`; publication is the release-store of
//! `tail`, consumption the release-store of `head` — the same discipline
//! as the slot ring. A producer that hangs up release-stores `closed`
//! ([`ByteRing::close`]) after its last publish, so a consumer that
//! finds the ring empty and the mark set has seen every frame once it
//! drains one more time.
//!
//! # Hot-path discipline
//!
//! Each endpoint handle keeps a *cached copy of the peer's index*
//! (the rtrb/crossbeam shadow-index idiom): the producer re-Acquires
//! `head` only when the ring looks full against its cache, the consumer
//! re-Acquires `tail` only when the ring looks empty. In the steady
//! state a push or pop therefore touches only the cache line it owns,
//! and cross-core traffic is amortized over many frames. The cached
//! values are always historical values of the peer index, so they are
//! conservative: a stale cache can only cause a spurious refresh, never
//! an unsafe read or write.
//!
//! Batched operation is available through [`ByteRing::push_n`] (one
//! Release publish for a whole burst) and [`ByteRing::drain`] /
//! [`ByteRing::pop_into`] (one Release consume for a whole burst, zero
//! allocations).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::region::{ShmRegion, CACHE_LINE};
use crate::stats::RingStats;
use crate::ShmError;

const SKIP: u32 = u32::MAX;
const HDR: u64 = 4;

/// Frames advance in 4-byte units so the length word (and the wrap
/// marker) never straddles the wrap point.
fn align4(n: u64) -> u64 {
    (n + 3) & !3
}

/// One end of a variable-size SPSC frame ring. Clone freely; exactly one
/// thread may push and one may pop.
pub struct ByteRing {
    region: Arc<ShmRegion>,
    base: usize,
    capacity: u64,
    /// Producer-side shadow of the consumer's `head` (always a
    /// historical value, i.e. `cached_head <= head`).
    cached_head: AtomicU64,
    /// Consumer-side shadow of the producer's `tail` (always a
    /// historical value, i.e. `head <= cached_tail <= tail`).
    cached_tail: AtomicU64,
    /// Per-handle producer telemetry; not inherited by clones so the
    /// `let peer = ring.clone()` pairing pattern cannot double-count.
    stats: Option<Arc<RingStats>>,
}

impl Clone for ByteRing {
    fn clone(&self) -> Self {
        // Fresh shadows, seeded from the live indices: the clone may be
        // handed to a different thread, and a shadow must never lag
        // behind the *consumer's own* progress (`cached_tail >= head`).
        let ring = ByteRing {
            region: self.region.clone(),
            base: self.base,
            capacity: self.capacity,
            cached_head: AtomicU64::new(0),
            cached_tail: AtomicU64::new(0),
            stats: None,
        };
        ring.reseed_caches();
        ring
    }
}

impl ByteRing {
    /// Region bytes needed for a ring with `capacity` data bytes.
    pub fn required_len(capacity: u64) -> usize {
        2 * CACHE_LINE + capacity as usize
    }

    /// Creates a ring with `capacity` data bytes (a power of two) at
    /// `base` within `region` (cache-line aligned). Both endpoints
    /// construct a `ByteRing` over the same `(region, base)`.
    pub fn new(region: Arc<ShmRegion>, base: usize, capacity: u64) -> Result<Self, ShmError> {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert_eq!(base % CACHE_LINE, 0, "base must be cache-line aligned");
        let needed = base + Self::required_len(capacity);
        if needed > region.len() {
            return Err(ShmError::RegionTooSmall {
                needed,
                have: region.len(),
            });
        }
        let ring = ByteRing {
            region,
            base,
            capacity,
            cached_head: AtomicU64::new(0),
            cached_tail: AtomicU64::new(0),
            stats: None,
        };
        ring.reseed_caches();
        Ok(ring)
    }

    /// Attaches producer-side telemetry to *this* handle. Pushes through
    /// this handle then record frames/bytes published, `RingFull`
    /// events, and the occupancy high-water mark. Clones never inherit
    /// the bundle (see [`RingStats`]).
    pub fn set_stats(&mut self, stats: Arc<RingStats>) {
        self.stats = Some(stats);
    }

    /// Seeds both shadow indices from the live shared indices. Acquire
    /// on `tail` also makes every already-published frame visible.
    fn reseed_caches(&self) {
        self.cached_head
            .store(self.head().load(Ordering::Acquire), Ordering::Relaxed);
        self.cached_tail
            .store(self.tail().load(Ordering::Acquire), Ordering::Relaxed);
    }

    /// Largest frame this ring can ever carry.
    pub fn max_frame(&self) -> usize {
        // A frame must fit contiguously: capacity minus header, and the
        // ring must never fill completely.
        (self.capacity - HDR - 1) as usize / 2
    }

    fn head(&self) -> &AtomicU64 {
        self.region.atomic_u64(self.base)
    }

    fn tail(&self) -> &AtomicU64 {
        self.region.atomic_u64(self.base + CACHE_LINE)
    }

    /// The hang-up mark, in the padding of `tail`'s cache line: a
    /// consumer reads it only after it reloaded `tail` and found the
    /// ring empty, so the read costs no extra miss.
    fn closed(&self) -> &AtomicU64 {
        self.region.atomic_u64(self.base + CACHE_LINE + 8)
    }

    /// Producer: marks the ring closed — the producer hung up. Frames
    /// published before the mark stay readable.
    pub fn close(&self) {
        self.closed().store(1, Ordering::Release);
    }

    /// Consumer: whether the producer hung up. Acquire pairs with
    /// [`ByteRing::close`], so once this reads `true` every frame the
    /// producer published is visible to the next drain.
    pub fn is_closed(&self) -> bool {
        self.closed().load(Ordering::Acquire) != 0
    }

    fn data_off(&self, pos: u64) -> usize {
        self.base + 2 * CACHE_LINE + (pos & (self.capacity - 1)) as usize
    }

    /// Contiguous bytes available at `pos` before the wrap point.
    fn contiguous(&self, pos: u64) -> u64 {
        self.capacity - (pos & (self.capacity - 1))
    }

    /// Producer: space check against the shadow head, refreshing it from
    /// the shared index only when the ring looks full. Returns the new
    /// (possibly refreshed) head on success.
    fn ensure_space(&self, tail: u64, total: u64) -> Result<(), ShmError> {
        let head = self.cached_head.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) + total < self.capacity {
            return Ok(());
        }
        // Looks full: pay the cross-core Acquire and retry once. The
        // Acquire pairs with the consumer's Release store of `head`, so
        // the freed bytes are safe to overwrite.
        let head = self.head().load(Ordering::Acquire);
        self.cached_head.store(head, Ordering::Relaxed);
        if tail.wrapping_sub(head) + total < self.capacity {
            Ok(())
        } else {
            Err(ShmError::RingFull)
        }
    }

    /// Writes one frame at `tail` without publishing. Returns the next
    /// tail position. Caller must have verified space.
    fn write_frame(&self, tail: u64, frame: &[u8], write_at: u64, total: u64) -> u64 {
        if write_at != tail {
            // SAFETY: producer owns [tail, head+capacity); in-bounds.
            unsafe {
                self.region
                    .write_at(self.data_off(tail), &SKIP.to_le_bytes());
            }
        }
        // SAFETY: producer-owned range, contiguous by construction.
        unsafe {
            self.region
                .write_at(self.data_off(write_at), &(frame.len() as u32).to_le_bytes());
            self.region
                .write_at(self.data_off(write_at) + HDR as usize, frame);
        }
        tail.wrapping_add(total)
    }

    /// Frame geometry at `tail`: `(write_at, total)` including wrap
    /// padding.
    fn placement(&self, tail: u64, frame_len: usize) -> (u64, u64) {
        let need = align4(HDR + frame_len as u64);
        let contig = self.contiguous(tail);
        // If the frame would straddle the wrap point, burn the remainder
        // with a skip marker (needs 4 bytes for the marker itself).
        if contig < need {
            (tail + contig, need + contig)
        } else {
            (tail, need)
        }
    }

    /// Producer: appends one frame. Fails with [`ShmError::RingFull`]
    /// when there is not enough free space (including wrap padding).
    pub fn push(&self, frame: &[u8]) -> Result<(), ShmError> {
        if frame.len() > self.max_frame() {
            return Err(ShmError::PayloadTooLarge {
                len: frame.len(),
                slot_size: self.max_frame(),
            });
        }
        let tail = self.tail().load(Ordering::Relaxed); // producer-owned
        let (write_at, total) = self.placement(tail, frame.len());
        self.ensure_space(tail, total)?;
        let next = self.write_frame(tail, frame, write_at, total);
        self.tail().store(next, Ordering::Release);
        if let Some(stats) = &self.stats {
            stats.on_publish(
                1,
                frame.len() as u64,
                next.wrapping_sub(self.cached_head.load(Ordering::Relaxed)),
            );
        }
        Ok(())
    }

    /// Producer: appends as many whole frames as fit, in order, with a
    /// *single* Release publish for the whole burst. Returns how many
    /// frames were pushed; stops early (without error) at the first
    /// frame that does not currently fit. An oversized frame is an
    /// error only if it is the first frame not yet pushed — otherwise
    /// the caller sees the short count and hits the error on retry.
    pub fn push_n<I, F>(&self, frames: I) -> Result<usize, ShmError>
    where
        I: IntoIterator<Item = F>,
        F: AsRef<[u8]>,
    {
        let start = self.tail().load(Ordering::Relaxed); // producer-owned
        let mut tail = start;
        let mut pushed = 0usize;
        let mut bytes = 0u64;
        for frame in frames {
            let frame = frame.as_ref();
            if frame.len() > self.max_frame() {
                if pushed == 0 {
                    return Err(ShmError::PayloadTooLarge {
                        len: frame.len(),
                        slot_size: self.max_frame(),
                    });
                }
                break;
            }
            let (write_at, total) = self.placement(tail, frame.len());
            if self.ensure_space(tail, total).is_err() {
                break;
            }
            tail = self.write_frame(tail, frame, write_at, total);
            pushed += 1;
            bytes += frame.len() as u64;
        }
        if tail != start {
            self.tail().store(tail, Ordering::Release);
        }
        if let Some(stats) = &self.stats {
            if pushed > 0 {
                stats.on_publish(
                    pushed as u64,
                    bytes,
                    tail.wrapping_sub(self.cached_head.load(Ordering::Relaxed)),
                );
            }
        }
        Ok(pushed)
    }

    /// Consumer: locates the next ready frame, refreshing the shadow
    /// tail only when the ring looks empty. Returns
    /// `(frame_start, len, next_head)`.
    fn next_frame(&self, head: u64) -> Option<(u64, usize, u64)> {
        let mut tail = self.cached_tail.load(Ordering::Relaxed);
        if tail == head {
            // Looks empty: pay the cross-core Acquire. Pairs with the
            // producer's Release store of `tail`, publishing the frames.
            tail = self.tail().load(Ordering::Acquire);
            self.cached_tail.store(tail, Ordering::Relaxed);
            if tail == head {
                return None;
            }
        }
        let mut pos = head;
        let mut len_bytes = [0u8; 4];
        // SAFETY: published by the Release store of `tail` we Acquired.
        unsafe { self.region.read_into(self.data_off(pos), &mut len_bytes) };
        let mut len = u32::from_le_bytes(len_bytes);
        if len == SKIP {
            // Wrap marker: skip to the start of the ring.
            pos = pos.wrapping_add(self.contiguous(pos));
            debug_assert_ne!(pos, tail, "skip marker with no frame behind it");
            unsafe { self.region.read_into(self.data_off(pos), &mut len_bytes) };
            len = u32::from_le_bytes(len_bytes);
        }
        debug_assert!(len as usize <= self.max_frame(), "corrupt frame length");
        let next = pos.wrapping_add(align4(HDR + u64::from(len)));
        Some((pos, len as usize, next))
    }

    /// Consumer: pops the oldest frame, if any.
    ///
    /// Allocates a fresh `Vec` per frame; hot paths should prefer
    /// [`ByteRing::pop_into`] or [`ByteRing::drain`].
    pub fn pop(&self) -> Option<Vec<u8>> {
        let head = self.head().load(Ordering::Relaxed); // consumer-owned
        let (pos, len, next) = self.next_frame(head)?;
        let mut out = vec![0u8; len];
        // SAFETY: same publication argument as `next_frame`.
        unsafe {
            self.region
                .read_into(self.data_off(pos) + HDR as usize, &mut out);
        }
        self.head().store(next, Ordering::Release);
        Some(out)
    }

    /// Consumer: pops the oldest frame into `out` (cleared first),
    /// reusing its capacity — zero allocations in the steady state.
    /// Returns the frame length.
    pub fn pop_into(&self, out: &mut Vec<u8>) -> Option<usize> {
        let head = self.head().load(Ordering::Relaxed); // consumer-owned
        let (pos, len, next) = self.next_frame(head)?;
        out.clear();
        out.resize(len, 0);
        // SAFETY: same publication argument as `next_frame`.
        unsafe {
            self.region
                .read_into(self.data_off(pos) + HDR as usize, out);
        }
        self.head().store(next, Ordering::Release);
        Some(len)
    }

    /// Consumer: processes every frame published at entry with a
    /// *single* Acquire of `tail` and a *single* Release of `head`,
    /// handing each frame to `f` as a borrowed slice of the ring — no
    /// copies, no allocations.
    ///
    /// The borrow is sound because the producer cannot reuse the bytes
    /// until `head` is published, which happens only after every
    /// callback returned. `f` must not call back into this ring (it
    /// only receives `&[u8]`, so that would require smuggling a second
    /// handle — don't).
    ///
    /// Returns the number of frames processed.
    pub fn drain(&self, mut f: impl FnMut(&[u8])) -> usize {
        let mut head = self.head().load(Ordering::Relaxed); // consumer-owned
                                                            // One Acquire for the whole burst.
        let tail = self.tail().load(Ordering::Acquire);
        self.cached_tail.store(tail, Ordering::Relaxed);
        if head == tail {
            return 0;
        }
        let mut n = 0usize;
        while head != tail {
            let mut pos = head;
            let mut len_bytes = [0u8; 4];
            // SAFETY: published by the Release store of `tail` we
            // Acquired above.
            unsafe { self.region.read_into(self.data_off(pos), &mut len_bytes) };
            let mut len = u32::from_le_bytes(len_bytes);
            if len == SKIP {
                pos = pos.wrapping_add(self.contiguous(pos));
                debug_assert_ne!(pos, tail, "skip marker with no frame behind it");
                unsafe { self.region.read_into(self.data_off(pos), &mut len_bytes) };
                len = u32::from_le_bytes(len_bytes);
            }
            debug_assert!(len as usize <= self.max_frame(), "corrupt frame length");
            // SAFETY: frame bytes are contiguous by construction and
            // producer-untouchable until `head` is released below.
            let frame = unsafe {
                self.region
                    .slice(self.data_off(pos) + HDR as usize, len as usize)
            };
            f(frame);
            head = pos.wrapping_add(align4(HDR + u64::from(len)));
            n += 1;
        }
        // One Release for the whole burst.
        self.head().store(head, Ordering::Release);
        n
    }

    /// Whether the ring currently holds no frames (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.head().load(Ordering::Acquire) == self.tail().load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cap: u64) -> ByteRing {
        let region = Arc::new(ShmRegion::new(ByteRing::required_len(cap)));
        ByteRing::new(region, 0, cap).unwrap()
    }

    #[test]
    fn push_pop_fifo_variable_sizes() {
        let r = ring(1024);
        r.push(b"a").unwrap();
        r.push(b"longer frame here").unwrap();
        r.push(&[7u8; 200]).unwrap();
        assert_eq!(r.pop().unwrap(), b"a");
        assert_eq!(r.pop().unwrap(), b"longer frame here");
        assert_eq!(r.pop().unwrap(), vec![7u8; 200]);
        assert!(r.pop().is_none());
    }

    #[test]
    fn wraps_cleanly_across_the_boundary() {
        let r = ring(256);
        // Fill and drain with frames that do not divide the capacity, so
        // every wrap alignment gets exercised.
        for i in 0..500u32 {
            let len = 1 + (i % 90) as usize;
            let frame = vec![(i % 251) as u8; len];
            r.push(&frame).unwrap();
            assert_eq!(r.pop().unwrap(), frame, "iteration {i}");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn fills_up_and_recovers() {
        let r = ring(256);
        let mut pushed = 0;
        while r.push(&[9u8; 40]).is_ok() {
            pushed += 1;
        }
        assert!(pushed >= 4, "capacity too small: {pushed}");
        assert!(matches!(r.push(&[9u8; 40]), Err(ShmError::RingFull)));
        r.pop().unwrap();
        r.pop().unwrap();
        assert!(r.push(&[9u8; 40]).is_ok());
    }

    #[test]
    fn oversized_frame_rejected() {
        let r = ring(256);
        assert!(matches!(
            r.push(&vec![0u8; r.max_frame() + 1]),
            Err(ShmError::PayloadTooLarge { .. })
        ));
        assert!(r.push(&vec![0u8; r.max_frame()]).is_ok());
    }

    #[test]
    fn pop_into_reuses_buffer_and_preserves_content() {
        let r = ring(1024);
        let mut buf = Vec::with_capacity(256);
        for round in 0..50u32 {
            let len = 1 + (round % 200) as usize;
            let frame = vec![(round % 251) as u8; len];
            r.push(&frame).unwrap();
            let cap_before = buf.capacity();
            assert_eq!(r.pop_into(&mut buf), Some(len), "round {round}");
            assert_eq!(&buf[..], &frame[..], "round {round}");
            if len <= cap_before {
                assert_eq!(buf.capacity(), cap_before, "pop_into reallocated");
            }
        }
        assert_eq!(r.pop_into(&mut buf), None);
    }

    #[test]
    fn push_n_publishes_whole_burst_in_order() {
        let r = ring(1024);
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 3 + i as usize]).collect();
        assert_eq!(r.push_n(frames.iter()).unwrap(), 10);
        for f in &frames {
            assert_eq!(&r.pop().unwrap(), f);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn push_n_stops_at_full_without_error() {
        let r = ring(256);
        let big = vec![1u8; 60];
        let n = r.push_n(std::iter::repeat_n(&big, 100)).unwrap();
        assert!((2..100).contains(&n), "pushed {n}");
        // Everything pushed is intact; the rest was simply not accepted.
        for _ in 0..n {
            assert_eq!(r.pop().unwrap(), big);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn push_n_oversized_first_frame_errors() {
        let r = ring(256);
        let huge = vec![0u8; r.max_frame() + 1];
        assert!(matches!(
            r.push_n([&huge[..]]),
            Err(ShmError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn drain_sees_every_frame_in_order() {
        let r = ring(2048);
        let frames: Vec<Vec<u8>> = (0..32u8)
            .map(|i| vec![i; 1 + (i as usize * 7) % 48])
            .collect();
        for f in &frames {
            r.push(f).unwrap();
        }
        let mut seen = Vec::new();
        let n = r.drain(|frame| seen.push(frame.to_vec()));
        assert_eq!(n, frames.len());
        assert_eq!(seen, frames);
        assert_eq!(r.drain(|_| panic!("ring should be empty")), 0);
        // The ring is fully reusable afterwards.
        r.push(b"again").unwrap();
        assert_eq!(r.pop().unwrap(), b"again");
    }

    #[test]
    fn drain_handles_wrap_markers() {
        let r = ring(256);
        // Leave the indices near the wrap point, then drain a burst that
        // straddles it.
        for _ in 0..3 {
            r.push(&[0u8; 60]).unwrap();
            r.pop().unwrap();
        }
        let frames: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i + 1; 50]).collect();
        for f in &frames {
            r.push(f).unwrap();
        }
        let mut seen = Vec::new();
        r.drain(|frame| seen.push(frame.to_vec()));
        assert_eq!(seen, frames);
    }

    #[test]
    fn clone_mid_stream_continues_cleanly() {
        let r = ring(1024);
        r.push(b"one").unwrap();
        r.push(b"two").unwrap();
        assert_eq!(r.pop().unwrap(), b"one");
        // A clone taken mid-stream must see exactly the unconsumed data.
        let c = r.clone();
        assert_eq!(c.pop().unwrap(), b"two");
        assert!(c.pop().is_none());
    }

    #[test]
    fn spsc_batched_push_n_drain_stress() {
        // Two threads, batched APIs end to end: the producer publishes
        // bursts with one Release each, the consumer drains whole
        // batches with pop_into (reused buffer) and drain (borrowed
        // frames) alternately. Every frame must arrive intact, in order.
        const TOTAL: u32 = 30_000;
        let r = ring(4096);
        let producer = {
            let r = r.clone();
            std::thread::spawn(move || {
                let mut next = 0u32;
                while next < TOTAL {
                    let burst: Vec<Vec<u8>> = (next..(next + 8).min(TOTAL))
                        .map(|i| {
                            let len = 4 + (i % 64) as usize;
                            let mut frame = vec![(i % 251) as u8; len];
                            frame[..4].copy_from_slice(&i.to_le_bytes());
                            frame
                        })
                        .collect();
                    let mut sent = 0usize;
                    while sent < burst.len() {
                        match r.push_n(burst[sent..].iter()) {
                            Ok(0) => std::thread::yield_now(),
                            Ok(n) => sent += n,
                            Err(e) => panic!("{e}"),
                        }
                    }
                    next += burst.len() as u32;
                }
            })
        };
        let mut expected = 0u32;
        let mut scratch = Vec::new();
        let mut use_drain = false;
        while expected < TOTAL {
            let before = expected;
            if use_drain {
                r.drain(|frame| {
                    let got = u32::from_le_bytes(frame[..4].try_into().unwrap());
                    assert_eq!(got, expected, "out of order");
                    assert_eq!(frame.len(), 4 + (expected % 64) as usize);
                    assert!(frame[4..].iter().all(|&b| b == (expected % 251) as u8));
                    expected += 1;
                });
            } else if let Some(n) = r.pop_into(&mut scratch) {
                let got = u32::from_le_bytes(scratch[..4].try_into().unwrap());
                assert_eq!(got, expected, "out of order");
                assert_eq!(n, 4 + (expected % 64) as usize);
                expected += 1;
            }
            if expected == before {
                std::thread::yield_now();
            }
            use_drain = !use_drain;
        }
        producer.join().unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn random_ops_match_fifo_model() {
        // Single-threaded randomized equivalence against a VecDeque
        // model: any interleaving of push/push_n/pop/pop_into/drain must
        // preserve FIFO order and contents, and a RingFull push must
        // succeed after the ring drains (congestion, not corruption).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0af_5eed);
        let r = ring(4096);
        let mut model: std::collections::VecDeque<Vec<u8>> = Default::default();
        let mut seq = 0u32;
        let mk = |seq: &mut u32, rng: &mut SmallRng| {
            let len = rng.gen_range(4..200usize);
            let mut frame = vec![(*seq % 251) as u8; len];
            frame[..4].copy_from_slice(&seq.to_le_bytes());
            *seq += 1;
            frame
        };
        for _ in 0..20_000 {
            match rng.gen_range(0..5u32) {
                0 => {
                    let frame = mk(&mut seq, &mut rng);
                    match r.push(&frame) {
                        Ok(()) => model.push_back(frame),
                        Err(ShmError::RingFull) => {
                            // Retryable after draining.
                            while r.pop_into(&mut Vec::new()).is_some() {
                                model.pop_front().expect("model in sync");
                            }
                            r.push(&frame).unwrap();
                            model.push_back(frame);
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
                1 => {
                    let burst: Vec<Vec<u8>> = (0..rng.gen_range(1..6))
                        .map(|_| mk(&mut seq, &mut rng))
                        .collect();
                    let n = r.push_n(burst.iter()).unwrap();
                    for frame in burst.into_iter().take(n) {
                        model.push_back(frame);
                    }
                }
                2 => assert_eq!(r.pop(), model.pop_front()),
                3 => {
                    let mut buf = Vec::new();
                    match r.pop_into(&mut buf) {
                        Some(n) => {
                            let want = model.pop_front().expect("model in sync");
                            assert_eq!(n, want.len());
                            assert_eq!(buf, want);
                        }
                        None => assert!(model.is_empty()),
                    }
                }
                _ => {
                    let drained = r.drain(|frame| {
                        let want = model.pop_front().expect("model in sync");
                        assert_eq!(frame, &want[..], "torn or reordered frame");
                    });
                    if drained == 0 {
                        assert!(model.is_empty());
                    }
                }
            }
        }
        // Final flush: ring and model agree to the end.
        r.drain(|frame| {
            let want = model.pop_front().expect("model in sync");
            assert_eq!(frame, &want[..]);
        });
        assert!(model.is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn close_marks_the_ring_without_hiding_published_frames() {
        let r = ring(256);
        let consumer = r.clone();
        r.push(b"last words").unwrap();
        assert!(!consumer.is_closed());
        r.close();
        assert!(consumer.is_closed());
        assert_eq!(consumer.pop().unwrap(), b"last words");
        assert!(consumer.pop().is_none());
        // The mark lives in the tail line's padding: the data area and
        // the region size are what they were.
        assert_eq!(ByteRing::required_len(256), 2 * CACHE_LINE + 256);
    }

    #[test]
    fn stats_track_publishes_and_occupancy() {
        let mut r = ring(256);
        let stats = RingStats::new();
        r.set_stats(stats.clone());
        r.push(&[1u8; 40]).unwrap();
        assert_eq!(r.push_n([[2u8; 30], [3u8; 30]]).unwrap(), 2);
        assert_eq!(stats.frames.get(), 3);
        assert_eq!(stats.bytes.get(), 100);
        // Occupancy includes headers/padding, so it exceeds payload bytes.
        assert!(stats.occupancy.hwm() >= 100, "{}", stats.occupancy.hwm());
        // A clone (the consumer handle) must not report into the bundle.
        let consumer = r.clone();
        let frames_before = stats.frames.get();
        consumer.pop().unwrap();
        assert_eq!(stats.frames.get(), frames_before);
    }

    #[test]
    fn spsc_threads_preserve_order() {
        let r = ring(4096);
        let producer = {
            let r = r.clone();
            std::thread::spawn(move || {
                for i in 0..30_000u32 {
                    let len = 4 + (i % 64) as usize;
                    let mut frame = vec![0u8; len];
                    frame[..4].copy_from_slice(&i.to_le_bytes());
                    loop {
                        match r.push(&frame) {
                            Ok(()) => break,
                            Err(ShmError::RingFull) => std::thread::yield_now(),
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            })
        };
        let mut expected = 0u32;
        while expected < 30_000 {
            if let Some(frame) = r.pop() {
                let got = u32::from_le_bytes(frame[..4].try_into().unwrap());
                assert_eq!(got, expected, "out of order");
                assert_eq!(frame.len(), 4 + (expected % 64) as usize);
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
