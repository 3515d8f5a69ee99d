//! The two passes over one workload: the end-to-end pass (tracing off)
//! and the traced pass (probes, then a live session with spans and
//! telemetry deltas), plus the correctness gate both share.

use std::time::Duration;

use nvme_oaf::telemetry::Snapshot;

use crate::catalog::{Backend, Fabric, Workload, LAYER};
use crate::engine::{Loop, Phase, Tally};
use crate::gen::Pattern;
use crate::hist::{median, midmean, rel_iqr};
use crate::layers;
use crate::probes;
use crate::procfs;
use crate::session::{Dirs, Session};
use crate::trace::TraceBuf;

/// How long each part of a run lasts.
#[derive(Clone, Copy)]
pub struct Timing {
    /// Set-ups per end-to-end pass; `setup_s` is their median.
    pub setups: usize,
    pub e2e_warmup: Duration,
    pub e2e_intervals: usize,
    pub e2e_interval: Duration,
    pub trace_warmup: Duration,
    /// Untraced reference window of the traced session.
    pub trace_ref: Duration,
    pub trace_window: Duration,
    /// Time budget of each isolated probe.
    pub probe_budget: Duration,
}

impl Timing {
    /// `run`: 2 s warm-up + 8 x 1 s; traced 1 s warm-up + 2 s untraced
    /// reference + 3 s traced.
    pub fn full() -> Timing {
        Timing {
            setups: 3,
            e2e_warmup: Duration::from_secs(2),
            e2e_intervals: 8,
            e2e_interval: Duration::from_secs(1),
            trace_warmup: Duration::from_secs(1),
            trace_ref: Duration::from_secs(2),
            trace_window: Duration::from_secs(3),
            probe_budget: Duration::from_millis(100),
        }
    }

    /// `--smoke`: 0.2 s windows, one set-up, token probes.
    pub fn smoke() -> Timing {
        let w = Duration::from_millis(200);
        Timing {
            setups: 1,
            e2e_warmup: w,
            e2e_intervals: 2,
            e2e_interval: w,
            trace_warmup: w,
            trace_ref: w,
            trace_window: w,
            probe_budget: Duration::from_millis(5),
        }
    }

    /// The benchmark-contract entry point: `seconds` one-second measured
    /// intervals end to end; the traced pass splits `seconds` a quarter
    /// untraced reference, three quarters traced, and halves the probe
    /// budget so both kinds of run take about as long.
    pub fn driver(seconds: u64) -> Timing {
        Timing {
            e2e_intervals: seconds as usize,
            trace_ref: Duration::from_millis(seconds * 250),
            trace_window: Duration::from_millis(seconds * 750),
            probe_budget: Duration::from_millis(50),
            ..Timing::full()
        }
    }
}

/// A reported value with its sample count and relative spread
/// (inter-quartile range / median across intervals or set-ups).
#[derive(Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub n: u64,
    pub spread: f64,
}

pub struct PassResult<V> {
    /// `(metric name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, V)>,
    pub attempted: u64,
    pub failed: u64,
    /// Fabric/backend assertions that did not hold.
    pub violations: Vec<String>,
}

impl<V> PassResult<V> {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The correctness gate's fabric half: the session must be the fabric
/// and backend the workload names. `delta` spans the measured phases.
fn fabric_violations(
    w: &Workload,
    shm_active: &[bool],
    after: &Snapshot,
    delta: &Snapshot,
) -> Vec<String> {
    let mut v = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            v.push(format!("{}: {what}", w.name));
        }
    };
    let socket = layers::has_scope(after, "tcp_client");
    let ring = layers::has_scope(after, "control_ring_client");
    match w.fabric {
        Fabric::Oshm => {
            need(shm_active.iter().all(|&a| a), "shm payload path not active");
            // Without the tcp_client scope the sockets-forbidden
            // MemTransport fallback is standing in for the socket.
            need(socket, "control PDUs not on a real socket");
            need(!ring, "in-region control rings active");
        }
        Fabric::InRegion => {
            need(shm_active.iter().all(|&a| a), "shm payload path not active");
            need(ring, "control PDUs not on the in-region rings");
            need(!socket, "a socket is carrying control PDUs");
        }
        Fabric::Tcp | Fabric::Tcp2 => {
            need(
                shm_active.iter().all(|&a| !a),
                "shm active on a remote fabric",
            );
            need(socket, "no real socket (MemTransport fallback?)");
        }
    }
    if socket {
        need(
            layers::counter(delta, &["tcp_client"], "tx_syscalls") > 0,
            "socket saw no writes",
        );
    }
    let store = |name: &str| layers::counter(delta, &["store_ns"], name);
    match w.backend {
        Backend::Ram => need(
            !layers::has_scope(after, "store_ns"),
            "file store behind a RAM workload",
        ),
        Backend::File { .. } => {
            need(
                store("barriers_offloaded") > 0,
                "no barrier reached the sync worker",
            );
            need(store("fsyncs") > 0, "no fdatasync issued");
            if w.flush_every.is_some() {
                need(
                    store("cache_misses") > 0,
                    "working set did not overflow the cache",
                );
            }
        }
    }
    v
}

/// Applies the gate to a finished loop and tears the session down.
/// Returns `(attempted, failed, violations)`.
fn gate(
    w: &Workload,
    session: Session,
    before: &Snapshot,
    tally: &Tally,
) -> Result<(u64, u64, Vec<String>), String> {
    let after = session.telemetry.snapshot();
    let shm: Vec<bool> = session.clients.iter().map(|c| c.shm_active()).collect();
    let violations = fabric_violations(w, &shm, &after, &after.delta(before));
    let Tally {
        bad_status,
        mismatches,
        stuck,
        ..
    } = *tally;
    if bad_status + mismatches + stuck > 0 {
        eprintln!(
            "{}: {bad_status} non-OK statuses, {mismatches} content mismatches, {stuck} ops stuck",
            w.name
        );
    }
    let attempted = session.prefill_ops + tally.attempted;
    // With ops stuck the fabric is wedged; dropping the session (and
    // with it the store image) is all that is safe.
    if stuck == 0 {
        session.close()?;
    }
    Ok((
        attempted,
        bad_status + mismatches + stuck + violations.len() as u64,
        violations,
    ))
}

/// End-to-end pass: tracing off, sampled-word verification of every
/// read, the eight end-to-end metrics.
pub fn e2e_pass(
    w: &Workload,
    seed: u64,
    dirs: &Dirs,
    t: &Timing,
) -> Result<PassResult<Stat>, String> {
    let pattern = Pattern::new(seed);
    let mut setups = Vec::with_capacity(t.setups);
    for _ in 1..t.setups {
        let session = Session::open(w, dirs, &pattern)?;
        setups.push(session.setup_s);
        session.close()?;
    }
    let mut session = Session::open(w, dirs, &pattern)?;
    setups.push(session.setup_s);
    let before = session.telemetry.snapshot();
    let mut lp = Loop::new(w, &pattern, seed, &mut session.clients);
    let out = lp.run::<false>(&Phase {
        warmup: t.e2e_warmup,
        intervals: t.e2e_intervals,
        interval: t.e2e_interval,
        full_verify: false,
    })?;
    let rss = procfs::rss_mib().unwrap_or(0.0);
    let tally = lp.finish(false)?;
    let (attempted, failed, violations) = gate(w, session, &before, &tally)?;

    // Across intervals: interquartile mean, with the inter-quartile
    // spread beside it. Across the few set-ups: the median.
    let stat = |samples: &[f64], n: u64| Stat {
        value: midmean(samples).unwrap_or(0.0),
        n,
        spread: rel_iqr(samples),
    };
    let lat = |write: bool, p: f64| stat(&out.interval_quantiles_us(write, p), out.samples(write));
    let rates = out.interval_rates(t.e2e_interval);
    let metrics = vec![
        (
            "setup_s",
            Stat {
                value: median(&setups).unwrap_or(0.0),
                n: setups.len() as u64,
                spread: rel_iqr(&setups),
            },
        ),
        ("iops", stat(&rates, out.ops.iter().sum())),
        ("read_p50_us", lat(false, 0.5)),
        ("read_p95_us", lat(false, 0.95)),
        ("write_p50_us", lat(true, 0.5)),
        ("write_p95_us", lat(true, 0.95)),
        (
            "fail_ratio",
            Stat {
                value: failed as f64 / attempted.max(1) as f64,
                n: attempted,
                spread: 0.0,
            },
        ),
        (
            "rss_mib",
            Stat {
                value: rss,
                n: 1,
                spread: 0.0,
            },
        ),
    ];
    Ok(PassResult {
        metrics,
        attempted,
        failed,
        violations,
    })
}

/// Traced pass: the isolated probes, then a live session — an untraced
/// reference window followed by the traced window — with full-buffer
/// verification of every read throughout.
pub fn trace_pass(
    w: &Workload,
    seed: u64,
    dirs: &Dirs,
    t: &Timing,
) -> Result<PassResult<f64>, String> {
    let pattern = Pattern::new(seed);
    let mut values = probes::run_all(w, dirs, &pattern, t.probe_budget)?;

    let mut session = Session::open(w, dirs, &pattern)?;
    values.push(("core.establish_ms", session.establish_ms));
    let gate_before = session.telemetry.snapshot();
    let mut lp = Loop::new(w, &pattern, seed, &mut session.clients);
    let reference = lp.run::<false>(&Phase {
        warmup: t.trace_warmup,
        intervals: 1,
        interval: t.trace_ref,
        full_verify: true,
    })?;
    let before = session.telemetry.snapshot();
    let (cpu0, ctx0) = (procfs::cpu_seconds(), procfs::invol_ctx_switches());
    let traced = lp.run::<true>(&Phase {
        warmup: Duration::ZERO,
        intervals: 1,
        interval: t.trace_window,
        full_verify: true,
    })?;
    let (cpu1, ctx1) = (procfs::cpu_seconds(), procfs::invol_ctx_switches());
    let after = session.telemetry.snapshot();
    let tally = lp.finish(true)?;
    let (attempted, failed, violations) = gate(w, session, &gate_before, &tally)?;
    let trace = &tally.trace;

    let ops = traced.completed.max(1);
    values.extend(layers::from_telemetry(
        &after.delta(&before),
        &after,
        ops,
        traced.writes,
        w.io_bytes,
    ));
    let p50 = |h: &crate::hist::Hist| h.quantile(0.5).unwrap_or(0.0);
    let ref_iops = reference.ops[0] as f64 / t.trace_ref.as_secs_f64();
    let traced_iops = traced.ops[0] as f64 / t.trace_window.as_secs_f64();
    let wall = traced.wall_s.max(1e-9);
    values.extend([
        ("core.alloc_ns", p50(&trace.alloc)),
        ("core.submit_ns", TraceBuf::p50_both(&trace.submit)),
        ("core.poll_hit_ns", p50(&trace.poll_share)),
        ("core.poll_empty_ns", p50(&trace.poll_empty)),
        ("core.polls_per_op", traced.polls as f64 / ops as f64),
        (
            "core.client_allocs_per_op",
            traced.allocs as f64 / ops as f64,
        ),
        ("fabric.wait_ns", TraceBuf::p50_both(&trace.wait)),
        ("fabric.wait_read_ns", p50(&trace.wait[0])),
        ("fabric.wait_write_ns", p50(&trace.wait[1])),
        ("store.flush_p50_us", p50(&trace.flush) / 1e3),
        (
            "proc.cpu_util",
            match (cpu0, cpu1) {
                (Some(a), Some(b)) => (b - a) / (wall * procfs::nproc() as f64),
                _ => 0.0,
            },
        ),
        (
            "proc.invol_ctx_per_s",
            match (ctx0, ctx1) {
                (Some(a), Some(b)) => b.saturating_sub(a) as f64 / wall,
                _ => 0.0,
            },
        ),
        (
            "trace.overhead_frac",
            if ref_iops > 0.0 {
                1.0 - traced_iops / ref_iops
            } else {
                0.0
            },
        ),
        ("trace.reconstruct_err_frac", trace.reconstruct_err()),
        ("trace.iops", traced_iops),
        ("trace.read_p50_us", p50(&trace.op[0]) / 1e3),
        ("trace.write_p50_us", p50(&trace.op[1]) / 1e3),
    ]);
    trace.dump(&dirs.out.join(format!("trace-{}.json", w.name)), w.name)?;

    // Catalogue order; a metric the pass failed to produce is a bug in
    // the benchmark, not a zero.
    let metrics = LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| (m.name, v))
                .ok_or_else(|| format!("traced pass produced no value for {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PassResult {
        metrics,
        attempted,
        failed,
        violations,
    })
}
