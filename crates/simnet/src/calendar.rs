//! Order-insensitive single-resource scheduling: the calendar server.
//!
//! A FIFO server, which only remembers when it next falls free, assumes
//! jobs are *submitted* in non-decreasing time order. Experiments that
//! simulate one I/O's whole phase chain eagerly violate that: I/O *k*'s
//! early phases are submitted to a resource after I/O *k−1*'s late
//! phases, even though they happen earlier in virtual time — a FIFO
//! server would serialize the pipeline.
//!
//! [`CalendarServer`] fixes this by keeping the resource's actual busy
//! schedule (a set of disjoint busy intervals) and placing each job in
//! the earliest gap at or after its arrival. Submission order no longer
//! matters: capacity-1 contention is still exact, and for in-order
//! arrivals the result coincides with the FIFO server.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// How far behind the latest activity intervals are retained. Jobs
/// arriving more than this window in the past are clamped forward; in a
/// closed-loop experiment arrivals never regress anywhere near this far.
const PRUNE_WINDOW: SimDuration = SimDuration::from_secs(2);

/// A capacity-1 resource scheduled by earliest-gap placement.
#[derive(Clone, Debug, Default)]
pub struct CalendarServer {
    /// Busy intervals `start → end`, disjoint and non-adjacent.
    busy: BTreeMap<u64, u64>,
    busy_total: SimDuration,
    jobs: u64,
    horizon: u64, // latest interval end
    floor: u64,   // nothing may be scheduled before this (pruned region)
}

impl CalendarServer {
    /// An idle server.
    pub fn new() -> Self {
        CalendarServer::default()
    }

    /// Schedules a job arriving at `now` needing `service`; returns
    /// `(start, completion)` with `start >= now` placed in the earliest
    /// gap.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        self.jobs += 1;
        self.busy_total += service;
        let dur = service.as_nanos();
        let arrival = now.as_nanos().max(self.floor);
        if dur == 0 {
            return (SimTime::from_nanos(arrival), SimTime::from_nanos(arrival));
        }
        // Find the earliest gap of length `dur` starting at or after
        // `arrival`. Candidate start: `arrival`, pushed forward past any
        // interval overlapping [cand, cand + dur). Intervals are disjoint
        // and non-adjacent, so only the predecessor can straddle the
        // initial candidate; afterwards the candidate always sits at an
        // interval end, and only successors matter.
        let mut cand = arrival;
        if let Some((_, &e)) = self.busy.range(..=cand).next_back() {
            if e > cand {
                cand = e;
            }
        }
        while let Some((&s, &e)) = self.busy.range(cand..).next() {
            if s >= cand.saturating_add(dur) {
                break; // the gap before this interval fits
            }
            cand = e;
        }
        let start = cand;
        let end = start + dur;
        self.insert(start, end);
        self.prune();
        (SimTime::from_nanos(start), SimTime::from_nanos(end))
    }

    fn insert(&mut self, mut start: u64, mut end: u64) {
        // Merge with an adjacent/overlapping predecessor.
        if let Some((&ps, &pe)) = self.busy.range(..=start).next_back() {
            debug_assert!(pe <= start, "overlapping schedule insert");
            if pe == start {
                self.busy.remove(&ps);
                start = ps;
            }
        }
        // Merge with an adjacent successor.
        if let Some((&ns, &ne)) = self.busy.range(end..).next() {
            debug_assert!(ns >= end, "overlapping schedule insert");
            if ns == end {
                self.busy.remove(&ns);
                end = ne;
            }
        }
        self.busy.insert(start, end);
        self.horizon = self.horizon.max(end);
    }

    fn prune(&mut self) {
        let cutoff = self.horizon.saturating_sub(PRUNE_WINDOW.as_nanos());
        if cutoff <= self.floor {
            return;
        }
        // Drop intervals entirely before the cutoff; the floor guarantees
        // no job is later placed into the forgotten region.
        let keep: Vec<u64> = self
            .busy
            .range(..cutoff)
            .filter(|&(_, &e)| e <= cutoff)
            .map(|(&s, _)| s)
            .collect();
        for s in keep {
            self.busy.remove(&s);
        }
        self.floor = self.floor.max(cutoff);
    }

    /// End of the currently known schedule (when a FIFO server would
    /// next fall free, for in-order workloads).
    pub fn next_free(&self) -> SimTime {
        SimTime::from_nanos(self.horizon)
    }

    /// Total service time dispensed.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_total
    }

    /// Jobs scheduled.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total.as_secs_f64() / horizon.as_secs_f64()
    }
}

/// `k` calendar lanes fed by earliest-gap selection (the order-
/// insensitive analog of `k` parallel FIFO servers).
#[derive(Clone, Debug)]
pub struct CalendarMulti {
    lanes: Vec<CalendarServer>,
}

impl CalendarMulti {
    /// Creates `k` idle lanes.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "CalendarMulti needs at least one lane");
        CalendarMulti {
            lanes: vec![CalendarServer::new(); k],
        }
    }

    /// Submits one job to the lane that can start it earliest.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let lane = self.best_lane(now);
        self.lanes[lane].submit(now, service)
    }

    /// Stripes `pieces` equal units over the lanes; completes with the
    /// last piece.
    pub fn submit_striped(
        &mut self,
        now: SimTime,
        pieces: u64,
        unit_service: SimDuration,
    ) -> (SimTime, SimTime) {
        assert!(pieces > 0);
        let mut first = SimTime::MAX;
        let mut last = SimTime::ZERO;
        for _ in 0..pieces {
            let (s, d) = self.submit(now, unit_service);
            first = first.min(s);
            last = last.max(d);
        }
        (first, last)
    }

    /// Total jobs scheduled.
    pub fn jobs(&self) -> u64 {
        self.lanes.iter().map(CalendarServer::jobs).sum()
    }

    /// Aggregate utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let busy: SimDuration = self.lanes.iter().map(CalendarServer::busy_time).sum();
        busy.as_secs_f64() / (horizon.as_secs_f64() * self.lanes.len() as f64)
    }

    fn best_lane(&self, _now: SimTime) -> usize {
        // Earliest schedule end is a good proxy for "can start earliest";
        // exact gap search per lane would be quadratic for little gain.
        let mut best = 0;
        let mut best_t = self.lanes[0].next_free();
        for (i, lane) in self.lanes.iter().enumerate().skip(1) {
            let t = lane.next_free();
            if t < best_t {
                best = i;
                best_t = t;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn in_order_arrivals_match_fifo() {
        let mut cal = CalendarServer::new();
        // The FIFO oracle: start at arrival or when the server frees.
        let mut next_free = SimTime::ZERO;
        let jobs = [(0u64, 10u64), (0, 10), (5, 3), (40, 8), (41, 8)];
        for &(t, s) in &jobs {
            let a = cal.submit(at(t), us(s));
            let start = next_free.max(at(t));
            next_free = start + us(s);
            assert_eq!(a, (start, next_free), "job at t={t}");
        }
    }

    #[test]
    fn out_of_order_job_fills_gap() {
        let mut cal = CalendarServer::new();
        // A long job far in the future...
        let (s1, e1) = cal.submit(at(100), us(50));
        assert_eq!((s1, e1), (at(100), at(150)));
        // ...must not delay an earlier short job.
        let (s2, e2) = cal.submit(at(0), us(10));
        assert_eq!((s2, e2), (at(0), at(10)));
        // A job that fits exactly in the remaining gap.
        let (s3, e3) = cal.submit(at(0), us(90));
        assert_eq!((s3, e3), (at(10), at(100)));
        // Next job has no gap until 150.
        let (s4, _) = cal.submit(at(0), us(1));
        assert_eq!(s4, at(150));
    }

    #[test]
    fn overlapping_candidate_pushed_past_interval() {
        let mut cal = CalendarServer::new();
        cal.submit(at(10), us(10)); // busy 10..20
        let (s, e) = cal.submit(at(15), us(5));
        assert_eq!((s, e), (at(20), at(25)));
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut cal = CalendarServer::new();
        cal.submit(at(0), us(10)); // 0..10
        cal.submit(at(15), us(10)); // 15..25
                                    // 5us gap at 10..15 cannot fit 7us.
        let (s, _) = cal.submit(at(8), us(7));
        assert_eq!(s, at(25));
        // But 4us fits.
        let (s, e) = cal.submit(at(8), us(4));
        assert_eq!((s, e), (at(10), at(14)));
    }

    #[test]
    fn zero_service_jobs_cost_nothing() {
        let mut cal = CalendarServer::new();
        cal.submit(at(0), us(100));
        let (s, e) = cal.submit(at(50), SimDuration::ZERO);
        assert_eq!(s, e);
        assert_eq!(s, at(50));
    }

    #[test]
    fn accounting() {
        let mut cal = CalendarServer::new();
        cal.submit(at(0), us(10));
        cal.submit(at(0), us(10));
        assert_eq!(cal.jobs(), 2);
        assert_eq!(cal.busy_time(), us(20));
        assert_eq!(cal.next_free(), at(20));
        assert!((cal.utilization(at(40)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merging_keeps_map_small_under_saturation() {
        let mut cal = CalendarServer::new();
        for _ in 0..10_000 {
            cal.submit(SimTime::ZERO, us(3));
        }
        assert!(cal.busy.len() <= 4, "intervals: {}", cal.busy.len());
        assert_eq!(cal.next_free(), at(30_000));
    }

    #[test]
    fn pruning_does_not_create_false_gaps() {
        let mut cal = CalendarServer::new();
        // Fill 0..3s solid (beyond the prune window).
        for _ in 0..30 {
            cal.submit(SimTime::ZERO, SimDuration::from_millis(100));
        }
        assert_eq!(cal.next_free(), SimTime::from_secs(3));
        // A very late arrival followed by an early one: the early one
        // must not be scheduled into the pruned region.
        cal.submit(SimTime::from_secs(10), us(1));
        let (s, _) = cal.submit(SimTime::ZERO, us(1));
        assert!(
            s >= SimTime::from_secs(3),
            "scheduled into pruned region at {s:?}"
        );
    }

    #[test]
    fn multi_parallelizes() {
        let mut m = CalendarMulti::new(4);
        let mut dones = Vec::new();
        for _ in 0..4 {
            dones.push(m.submit(at(0), us(10)).1);
        }
        assert!(dones.iter().all(|&d| d == at(10)));
        let (_, d5) = m.submit(at(0), us(10));
        assert_eq!(d5, at(20));
        assert_eq!(m.jobs(), 5);
    }

    #[test]
    fn multi_striping() {
        let mut m = CalendarMulti::new(4);
        let (s, d) = m.submit_striped(at(0), 8, us(10));
        assert_eq!((s, d), (at(0), at(20)));
    }

    #[test]
    fn pipelined_eager_simulation_overlaps() {
        // The exact pattern that broke the FIFO server in the experiment
        // driver: IO1's late phase lands at t=300 on the core, then IO2's
        // early phase arrives "later" (in submission order) at t=0.
        let mut core = CalendarServer::new();
        let (_, io1_late) = core.submit(at(300), us(5));
        assert_eq!(io1_late, at(305));
        let (s, _) = core.submit(at(0), us(5));
        assert_eq!(s, at(0), "early phase must not queue behind late one");
    }
}
