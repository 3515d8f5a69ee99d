//! The closed loop: one client thread keeps `QD` commands in flight per
//! connection and submits the next only on a completion (SPDK `perf`
//! style, as in the paper's §5.1).
//!
//! The hot loop allocates nothing of its own: per-cid records live in a
//! cid-indexed array, latencies go into fixed histograms allocated
//! before the phase starts.

use std::time::{Duration, Instant};

use nvme_oaf::nvmeof::initiator::IoResult;
use nvme_oaf::oaf::runtime::AfClient;

use crate::alloc::thread_allocs;
use crate::catalog::Workload;
use crate::gen::{OpGen, Pattern};
use crate::hist::Hist;
use crate::session::WATCHDOG;
use crate::trace::{OpTimes, TraceBuf};

/// Consecutive empty polls before the loop starts yielding the CPU on
/// every further one: long enough (~100 us) that RAM-backed waits never
/// yield, short enough that a wait on `fdatasync` lets the sync worker
/// have the core.
const SPIN_POLLS: u32 = 128;
/// Untraced idle polls between clock reads (deadline and watchdog).
const IDLE_CLOCK_EVERY: u32 = 256;
const UNTRACED: u32 = u32::MAX;

#[derive(Clone, Copy, Default)]
struct OpRec {
    live: bool,
    read: bool,
    slot: u32,
    /// Trace op id, or `UNTRACED`.
    op_id: u32,
    /// Submit-call entry: the start of the op's latency.
    start: u64,
    submit_end: u64,
    alloc_start: u64,
    alloc_end: u64,
}

struct Conn<'a> {
    client: &'a mut AfClient,
    inflight: usize,
    /// Indexed by cid (wire cids are 16 bits).
    recs: Vec<OpRec>,
}

/// One stretch of the loop: an unrecorded warm-up followed by
/// `intervals` recorded intervals.
pub struct Phase {
    pub warmup: Duration,
    pub intervals: usize,
    pub interval: Duration,
    /// Verify every word of every read (traced pass) instead of two
    /// words per block (end-to-end pass).
    pub full_verify: bool,
}

/// What one phase recorded.
pub struct PhaseOut {
    /// Completed ops per interval.
    pub ops: Vec<u64>,
    /// Read / write latency histogram per interval.
    pub read: Vec<Hist>,
    pub write: Vec<Hist>,
    /// Over the whole phase (warm-up included): poll calls, completions,
    /// writes among them, client-thread heap allocations, wall time.
    pub polls: u64,
    pub completed: u64,
    pub writes: u64,
    pub allocs: u64,
    pub wall_s: f64,
}

impl PhaseOut {
    pub fn interval_rates(&self, interval: Duration) -> Vec<f64> {
        self.ops
            .iter()
            .map(|&n| n as f64 / interval.as_secs_f64())
            .collect()
    }

    /// Per-interval quantile of the read or write histograms, in µs;
    /// intervals with no sample are skipped.
    pub fn interval_quantiles_us(&self, write: bool, p: f64) -> Vec<f64> {
        let hs = if write { &self.write } else { &self.read };
        hs.iter()
            .filter_map(|h| h.quantile(p))
            .map(|ns| ns / 1e3)
            .collect()
    }

    pub fn samples(&self, write: bool) -> u64 {
        let hs = if write { &self.write } else { &self.read };
        hs.iter().map(Hist::count).sum()
    }
}

/// What a finished loop hands to the correctness gate.
pub struct Tally {
    /// Every command the loop submitted (flushes included).
    pub attempted: u64,
    pub bad_status: u64,
    pub mismatches: u64,
    /// Ops that never completed within the watchdog.
    pub stuck: u64,
    pub trace: TraceBuf,
}

pub struct Loop<'a> {
    w: &'a Workload,
    pattern: &'a Pattern,
    gen: OpGen,
    conns: Vec<Conn<'a>>,
    epoch: Instant,
    next_op_id: u32,
    since_flush: u64,
    flushes: u32,
    attempted: u64,
    bad_status: u64,
    mismatches: u64,
    trace: TraceBuf,
}

impl<'a> Loop<'a> {
    pub fn new(
        w: &'a Workload,
        pattern: &'a Pattern,
        seed: u64,
        clients: &'a mut [AfClient],
    ) -> Self {
        Loop {
            w,
            pattern,
            gen: OpGen::new(seed, w.slots(), w.read_pct),
            conns: clients
                .iter_mut()
                .map(|client| Conn {
                    client,
                    inflight: 0,
                    recs: vec![OpRec::default(); 1 << 16],
                })
                .collect(),
            epoch: Instant::now(),
            next_op_id: 0,
            since_flush: 0,
            flushes: 0,
            attempted: 0,
            bad_status: 0,
            mismatches: 0,
            trace: TraceBuf::new(),
        }
    }

    fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight).sum()
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Generates and submits one op on connection `ci`; returns the
    /// timestamp taken after the submit call (traced runs only, else 0).
    #[inline]
    fn submit_one<const TRACE: bool>(&mut self, ci: usize) -> Result<u64, String> {
        let op = self.gen.next_op();
        let nlb = self.w.nlb();
        let slba = u64::from(op.slot) * u64::from(nlb);
        let mut rec = OpRec {
            live: true,
            read: op.read,
            slot: op.slot,
            op_id: UNTRACED,
            ..OpRec::default()
        };
        let cid = if op.read {
            rec.start = self.now();
            self.conns[ci]
                .client
                .submit_read(1, slba, nlb, self.w.io_bytes)
        } else {
            if TRACE {
                rec.alloc_start = self.now();
            }
            let mut buf = self.conns[ci]
                .client
                .alloc(self.w.io_bytes)
                .map_err(|e| format!("alloc: {e}"))?;
            if TRACE {
                rec.alloc_end = self.now();
            }
            self.pattern.fill(slba, &mut buf);
            rec.start = self.now();
            let client = &mut self.conns[ci].client;
            if self.w.fua {
                client.submit_write_fua(1, slba, nlb, buf)
            } else {
                client.submit_write(1, slba, nlb, buf)
            }
        }
        .map_err(|e| format!("submit: {e}"))?;
        if TRACE {
            rec.submit_end = self.now();
            rec.op_id = self.next_op_id;
            self.next_op_id = self.next_op_id.wrapping_add(1) % UNTRACED;
        }
        let conn = &mut self.conns[ci];
        conn.recs[usize::from(cid)] = rec;
        conn.inflight += 1;
        self.attempted += 1;
        Ok(rec.submit_end)
    }

    /// Accounts one completion: status, content, and — for traced ops in
    /// traced phases — its spans. Returns the record it matched.
    #[inline]
    fn complete<const TRACE: bool>(
        &mut self,
        ci: usize,
        r: &IoResult,
        full_verify: bool,
        poll_start: u64,
        poll_end: u64,
        batch: usize,
    ) -> Option<OpRec> {
        let conn = &mut self.conns[ci];
        let rec = std::mem::take(&mut conn.recs[usize::from(r.cid)]);
        if !rec.live {
            // A completion for a command the loop never issued.
            self.bad_status += 1;
            return None;
        }
        conn.inflight -= 1;
        if !r.status.is_ok() {
            self.bad_status += 1;
        } else if rec.read {
            let slba = u64::from(rec.slot) * u64::from(self.w.nlb());
            let ok = r.data.len() == self.w.io_bytes
                && if full_verify {
                    self.pattern.verify_full(slba, &r.data)
                } else {
                    self.pattern.verify_sampled(slba, &r.data, rec.start)
                };
            if !ok {
                self.mismatches += 1;
            }
        }
        if TRACE && rec.op_id != UNTRACED {
            self.trace.on_op(&OpTimes {
                op_id: rec.op_id,
                read: rec.read,
                alloc: (!rec.read).then_some((rec.alloc_start, rec.alloc_end)),
                submit_start: rec.start,
                submit_end: rec.submit_end,
                poll_start,
                poll_end,
                batch,
            });
        }
        Some(rec)
    }

    /// The workload's periodic blocking `Flush`. Completions that arrive
    /// while it waits are stashed by the runtime and returned by the
    /// next poll — the client-visible cost of the call.
    fn flush<const TRACE: bool>(&mut self) {
        let t0 = self.now();
        self.attempted += 1;
        if self.conns[0].client.flush(1, WATCHDOG).is_err() {
            self.bad_status += 1;
        }
        if TRACE {
            let t1 = self.now();
            self.trace.on_flush(self.flushes, t0, t1);
        }
        self.flushes = self.flushes.wrapping_add(1);
        self.since_flush = 0;
    }

    /// Runs one phase. In-flight ops carry over from the previous phase
    /// and into the next; call [`Loop::finish`] after the last one.
    pub fn run<const TRACE: bool>(&mut self, ph: &Phase) -> Result<PhaseOut, String> {
        let mut out = PhaseOut {
            ops: vec![0; ph.intervals],
            read: (0..ph.intervals).map(|_| Hist::new()).collect(),
            write: (0..ph.intervals).map(|_| Hist::new()).collect(),
            polls: 0,
            completed: 0,
            writes: 0,
            allocs: 0,
            wall_s: 0.0,
        };
        let interval = ph.interval.as_nanos() as u64;
        let allocs0 = thread_allocs();
        for ci in 0..self.conns.len() {
            while self.conns[ci].inflight < self.w.qd {
                self.submit_one::<TRACE>(ci)?;
            }
        }
        let t_begin = self.now();
        let m_start = t_begin + ph.warmup.as_nanos() as u64;
        let m_end = m_start + interval * ph.intervals as u64;
        // Start of the poll span in progress (traced runs).
        let mut last_t = t_begin;
        let mut last_progress = t_begin;
        let mut idle = 0u32;
        let t_end = 'phase: loop {
            let mut progressed = None;
            for ci in 0..self.conns.len() {
                let results = self.conns[ci]
                    .client
                    .poll()
                    .map_err(|e| format!("poll: {e}"))?;
                out.polls += 1;
                if results.is_empty() {
                    if TRACE {
                        let t = self.now();
                        self.trace.poll_empty.record(t - last_t);
                        last_t = t;
                    }
                    continue;
                }
                let t = self.now();
                let batch = results.len();
                let poll_start = last_t;
                for r in &results {
                    let Some(rec) =
                        self.complete::<TRACE>(ci, r, ph.full_verify, poll_start, t, batch)
                    else {
                        continue;
                    };
                    out.completed += 1;
                    out.writes += u64::from(!rec.read);
                    if t >= m_start {
                        let idx = ((t - m_start) / interval) as usize;
                        if idx < ph.intervals {
                            out.ops[idx] += 1;
                            let h = if rec.read {
                                &mut out.read[idx]
                            } else {
                                &mut out.write[idx]
                            };
                            h.record(t - rec.start);
                        }
                    }
                    self.since_flush += 1;
                    let end = self.submit_one::<TRACE>(ci)?;
                    if TRACE {
                        last_t = end;
                    }
                }
                if self.w.flush_every.is_some_and(|n| self.since_flush >= n) {
                    self.flush::<TRACE>();
                    if TRACE {
                        last_t = self.now();
                    }
                }
                progressed = Some(t);
            }
            match progressed {
                Some(t) => {
                    idle = 0;
                    last_progress = t;
                    if t >= m_end {
                        break 'phase t;
                    }
                }
                None => {
                    idle += 1;
                    if idle < SPIN_POLLS {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                        if TRACE {
                            last_t = self.now();
                        }
                    }
                    if TRACE || idle.is_multiple_of(IDLE_CLOCK_EVERY) {
                        let t = if TRACE { last_t } else { self.now() };
                        if t >= m_end {
                            break 'phase t;
                        }
                        if t - last_progress > WATCHDOG.as_nanos() as u64 {
                            return Err(format!(
                                "no completion for {WATCHDOG:?} with {} ops in flight",
                                self.inflight()
                            ));
                        }
                    }
                }
            }
        };
        out.allocs = thread_allocs() - allocs0;
        out.wall_s = (t_end - t_begin) as f64 / 1e9;
        Ok(out)
    }

    /// Collects the ops still in flight without submitting more (those
    /// that never complete within the watchdog count as stuck) and hands
    /// the loop's tallies over.
    pub fn finish(mut self, full_verify: bool) -> Result<Tally, String> {
        let mut last_progress = Instant::now();
        while self.inflight() > 0 {
            let mut progressed = false;
            for ci in 0..self.conns.len() {
                let results = self.conns[ci]
                    .client
                    .poll()
                    .map_err(|e| format!("poll: {e}"))?;
                for r in &results {
                    self.complete::<false>(ci, r, full_verify, 0, 0, 1);
                    progressed = true;
                }
            }
            if progressed {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > WATCHDOG {
                break;
            } else {
                std::thread::yield_now();
            }
        }
        Ok(Tally {
            attempted: self.attempted,
            bad_status: self.bad_status,
            mismatches: self.mismatches,
            stuck: self.inflight() as u64,
            trace: self.trace,
        })
    }
}
