//! Spans of the traced pass.
//!
//! Every span is aggregated into a histogram; every 64th op is also kept
//! verbatim as `(op id, name, parent, start, end)` in a buffer allocated
//! before the run and written out after it. A span's self time is its
//! duration minus the part its children cover.

use std::path::Path;

use crate::hist::Hist;
use crate::json::Json;

/// Span names. `Op` is the root of one operation; `Submit`, `Wait` and
/// `PollHit` are its children and tile it exactly. `Alloc` precedes the
/// op it belongs to (the timed op starts at submit-call entry).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Name {
    Op,
    Alloc,
    Submit,
    Wait,
    PollHit,
    Flush,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Alloc => "core.alloc",
            Name::Submit => "core.submit",
            Name::Wait => "fabric.wait",
            Name::PollHit => "core.poll_hit",
            Name::Flush => "store.flush",
        }
    }
}

/// One op in this many keeps its spans verbatim.
const KEEP_EVERY: u32 = 64;
/// Verbatim spans kept at most; later ones are only aggregated.
const SPAN_CAP: usize = 5 * 8192;

#[derive(Clone, Copy)]
struct SpanRec {
    op: u32,
    name: Name,
    parent: Option<Name>,
    start: u64,
    end: u64,
}

/// Timestamps of one completed, traced operation (ns since the loop's
/// epoch).
pub struct OpTimes {
    pub op_id: u32,
    pub read: bool,
    /// `Some((start, end))` of `AfClient::alloc` for writes.
    pub alloc: Option<(u64, u64)>,
    pub submit_start: u64,
    pub submit_end: u64,
    /// Start of the poll call that returned the completion.
    pub poll_start: u64,
    /// Its end: the completion time.
    pub poll_end: u64,
    /// Completions that poll call returned.
    pub batch: usize,
}

/// Aggregates and the verbatim buffer. Index 0 of the pairs is reads,
/// index 1 writes.
pub struct TraceBuf {
    pub op: [Hist; 2],
    pub submit: [Hist; 2],
    pub wait: [Hist; 2],
    /// The whole poll call that returned the op.
    pub poll_full: [Hist; 2],
    /// That call's span divided by the completions it returned.
    pub poll_share: Hist,
    pub alloc: Hist,
    pub poll_empty: Hist,
    pub flush: Hist,
    spans: Vec<SpanRec>,
}

impl TraceBuf {
    pub fn new() -> TraceBuf {
        let pair = || [Hist::new(), Hist::new()];
        TraceBuf {
            op: pair(),
            submit: pair(),
            wait: pair(),
            poll_full: pair(),
            poll_share: Hist::new(),
            alloc: Hist::new(),
            poll_empty: Hist::new(),
            flush: Hist::new(),
            spans: Vec::with_capacity(SPAN_CAP),
        }
    }

    #[inline]
    fn keep(&mut self, op: u32, name: Name, parent: Option<Name>, start: u64, end: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(SpanRec {
                op,
                name,
                parent,
                start,
                end,
            });
        }
    }

    #[inline]
    pub fn on_op(&mut self, t: &OpTimes) {
        let k = usize::from(!t.read);
        let submit = t.submit_end - t.submit_start;
        let poll = t.poll_end - t.poll_start;
        // A completion stashed during a blocking flush is returned by a
        // poll that started after it arrived; the wait then ends where
        // that poll begins, never before the submit returned.
        let wait = t.poll_start.saturating_sub(t.submit_end);
        self.op[k].record(t.poll_end - t.submit_start);
        self.submit[k].record(submit);
        self.wait[k].record(wait);
        self.poll_full[k].record(poll);
        self.poll_share.record(poll / t.batch.max(1) as u64);
        if let Some((a, b)) = t.alloc {
            self.alloc.record(b - a);
        }
        if t.op_id.is_multiple_of(KEEP_EVERY) {
            let root = Some(Name::Op);
            if let Some((a, b)) = t.alloc {
                self.keep(t.op_id, Name::Alloc, None, a, b);
            }
            self.keep(t.op_id, Name::Op, None, t.submit_start, t.poll_end);
            self.keep(t.op_id, Name::Submit, root, t.submit_start, t.submit_end);
            self.keep(
                t.op_id,
                Name::Wait,
                root,
                t.submit_end,
                t.poll_start.max(t.submit_end),
            );
            self.keep(
                t.op_id,
                Name::PollHit,
                root,
                t.poll_start.max(t.submit_end),
                t.poll_end,
            );
        }
    }

    #[inline]
    pub fn on_flush(&mut self, seq: u32, start: u64, end: u64) {
        self.flush.record(end - start);
        self.keep(seq, Name::Flush, None, start, end);
    }

    /// p50 of a read/write pair merged.
    pub fn p50_both(pair: &[Hist; 2]) -> f64 {
        let mut h = pair[0].clone();
        h.merge(&pair[1]);
        h.quantile(0.5).unwrap_or(0.0)
    }

    /// `|p50(submit)+p50(poll)+p50(wait) - p50(op)| / p50(op)` for reads.
    pub fn reconstruct_err(&self) -> f64 {
        let q = |h: &Hist| h.quantile(0.5).unwrap_or(0.0);
        let op = q(&self.op[0]);
        if op == 0.0 {
            return 0.0;
        }
        let sum = q(&self.submit[0]) + q(&self.poll_full[0]) + q(&self.wait[0]);
        (sum - op).abs() / op
    }

    /// Writes the verbatim spans and the per-name aggregates.
    pub fn dump(&self, path: &Path, workload: &str) -> Result<(), String> {
        let mut spans = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            // Children of a root follow it directly, same op id.
            let covered: u64 = if s.parent.is_none() {
                self.spans[i + 1..]
                    .iter()
                    .take_while(|c| c.op == s.op && c.parent == Some(s.name))
                    .map(|c| c.end - c.start)
                    .sum()
            } else {
                0
            };
            let mut o = Json::obj();
            o.set("op", Json::Num(f64::from(s.op)))
                .set("name", Json::Str(s.name.label().into()))
                .set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Str(p.label().into())),
                )
                .set("start_ns", Json::Num(s.start as f64))
                .set("end_ns", Json::Num(s.end as f64))
                .set("self_ns", Json::Num(dur.saturating_sub(covered) as f64));
            spans.push(o);
        }
        let agg = |h: &Hist| {
            let mut o = Json::obj();
            o.set("count", Json::Num(h.count() as f64))
                .set("p50_ns", Json::Num(h.quantile(0.5).unwrap_or(0.0)))
                .set("p99_ns", Json::Num(h.quantile(0.99).unwrap_or(0.0)));
            o
        };
        let mut aggregate = Json::obj();
        for (name, pair) in [
            ("op", &self.op),
            ("core.submit", &self.submit),
            ("fabric.wait", &self.wait),
            ("core.poll_hit", &self.poll_full),
        ] {
            aggregate.set(&format!("{name}.read"), agg(&pair[0]));
            aggregate.set(&format!("{name}.write"), agg(&pair[1]));
        }
        aggregate.set("core.poll_hit.per_completion", agg(&self.poll_share));
        aggregate.set("core.alloc", agg(&self.alloc));
        aggregate.set("core.poll_empty", agg(&self.poll_empty));
        aggregate.set("store.flush", agg(&self.flush));
        let mut doc = Json::obj();
        doc.set("workload", Json::Str(workload.into()))
            .set("kept_one_op_in", Json::Num(f64::from(KEEP_EVERY)))
            .set("aggregate", aggregate)
            .set("spans", Json::Arr(spans));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
