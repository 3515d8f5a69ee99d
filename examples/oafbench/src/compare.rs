//! `compare A.json B.json`: B against A, per (metric, workload), with the
//! bounds the catalogue fixes.

use crate::catalog::{self, Better, E2eMetric, E2E, FAIL_RATIO};
use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// The recorded spread of either side exceeds the bound, so the
    /// pair can show neither a regression nor its absence.
    Unresolved,
    Regression,
}

/// Verdict for one metric: `a`/`b` are `(value, spread)` of the baseline
/// and the candidate. Returns the verdict and B's relative worsening
/// (positive = worse).
pub fn judge(m: &E2eMetric, a: (f64, f64), b: (f64, f64)) -> (Verdict, f64) {
    if m.name == FAIL_RATIO {
        // Absolute bound of 0: any failure on the candidate regresses.
        let v = if b.0 > 0.0 {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        return (v, b.0 - a.0);
    }
    let worse = if a.0 == 0.0 {
        0.0
    } else {
        match m.better {
            Better::Lower => (b.0 - a.0) / a.0,
            Better::Higher => (a.0 - b.0) / a.0,
        }
    };
    let verdict = if a.1.max(b.1) > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn metric(doc: &Json, workload: &str, name: &str) -> Option<(f64, f64)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

/// Prints one row per workload; returns whether any pair regressed.
pub fn compare_docs(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .ok_or("baseline document has no workloads")?;
    let mut regressed = false;
    let mut compared = 0;
    print!("{:<18}", "workload");
    for m in &E2E {
        print!(" {:>16}", m.name);
    }
    println!();
    for (name, _) in workloads.fields() {
        if b.get("workloads").and_then(|w| w.get(name)).is_none() {
            println!("{name:<18} (not in candidate; skipped)");
            continue;
        }
        print!("{name:<18}");
        for m in &E2E {
            let (Some(va), Some(vb)) = (metric(a, name, m.name), metric(b, name, m.name)) else {
                return Err(format!(
                    "{name}: end_to_end.{} missing in a document",
                    m.name
                ));
            };
            let (verdict, worse) = judge(m, va, vb);
            let tag = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            };
            regressed |= verdict == Verdict::Regression;
            compared += 1;
            let cell = if m.name == FAIL_RATIO {
                format!("{:.2e} {tag}", vb.0)
            } else {
                format!("{:+.1}% {tag}", worse * 100.0)
            };
            print!(" {cell:>16}");
        }
        println!();
    }
    if compared == 0 {
        return Err("the documents share no workload".into());
    }
    println!("(cells: candidate's relative worsening vs baseline; positive = worse)");
    Ok(regressed)
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    compare_docs(&load(a)?, &load(b)?)
}

/// Verdict logic pinned for the smoke run.
pub fn self_test() -> Result<(), String> {
    let cases = [
        ("iops", (100.0, 0.01), (80.0, 0.01), Verdict::Ok),
        ("iops", (100.0, 0.01), (70.0, 0.01), Verdict::Regression),
        ("iops", (100.0, 0.01), (140.0, 0.01), Verdict::Ok),
        ("iops", (100.0, 0.3), (70.0, 0.01), Verdict::Unresolved),
        ("read_p50_us", (10.0, 0.0), (13.0, 0.0), Verdict::Regression),
        ("read_p50_us", (10.0, 0.0), (12.0, 0.0), Verdict::Ok),
        ("rss_mib", (100.0, 0.0), (120.0, 0.0), Verdict::Regression),
        (FAIL_RATIO, (0.0, 0.0), (1e-6, 0.0), Verdict::Regression),
        (FAIL_RATIO, (0.0, 0.0), (0.0, 0.0), Verdict::Ok),
    ];
    for (name, a, b, want) in cases {
        let m = catalog::e2e(name).ok_or_else(|| format!("no catalogue metric {name}"))?;
        let (got, _) = judge(m, a, b);
        if got != want {
            return Err(format!(
                "compare verdict for {name} {a:?} -> {b:?}: got {got:?}, want {want:?}"
            ));
        }
    }
    Ok(())
}
