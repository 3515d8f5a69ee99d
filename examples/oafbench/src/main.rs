//! `oafbench` — the end-to-end + per-layer benchmark of the real
//! NVMe-oAF runtime (not the DES). A single-process closed loop drives
//! `AfClient` submit → completion through the public API only.
//!
//! ```text
//! oafbench run       [--seed N] [--workload NAME] [--smoke] [--out FILE]
//! oafbench trace     [--seed N] [--workload NAME] [--smoke] [--out FILE]
//! oafbench list
//! oafbench compare   A.json B.json
//! oafbench selfcheck [--seed N] [--workload NAME]
//! oafbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the benchmark-contract entry `BENCHMARK.json` names:
//! one workload, one pass, the result as one JSON object on the last
//! line of standard output. See `README.md` beside this package.

mod alloc;
mod catalog;
mod compare;
mod engine;
mod gen;
mod hist;
mod json;
mod layers;
mod probes;
mod procfs;
mod report;
mod run;
mod session;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Workload, WORKLOADS};
use run::Timing;
use session::Dirs;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  oafbench run       [--seed N] [--workload NAME] [--smoke] [--out FILE]
  oafbench trace     [--seed N] [--workload NAME] [--smoke] [--out FILE]
  oafbench list
  oafbench compare   A.json B.json
  oafbench selfcheck [--seed N] [--workload NAME]
  oafbench --workload NAME --seed N --seconds S --trace 0|1";

/// Exit code for a failed gate or a regression; aborts and usage errors
/// use 2.
const EXIT_FAILED: u8 = 1;
const EXIT_ABORT: u8 = 2;

struct Args {
    seed: u64,
    workload: Option<&'static Workload>,
    smoke: bool,
    out: Option<PathBuf>,
    seconds: Option<u64>,
    trace: Option<bool>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        workload: None,
        smoke: false,
        out: None,
        seconds: None,
        trace: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes a value"))
        };
        match arg.as_str() {
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--workload" => {
                let name = value("--workload")?;
                a.workload = Some(catalog::workload(&name).ok_or_else(|| {
                    format!(
                        "unknown workload {name}; known: {}",
                        WORKLOADS.map(|w| w.name).join(", ")
                    )
                })?);
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

fn selected(a: &Args) -> Vec<&'static Workload> {
    match a.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    }
}

/// Runs the chosen passes over the chosen workloads, prints every metric
/// and writes the JSON document. Returns the document and whether every
/// gate held.
fn suite(
    a: &Args,
    dirs: &Dirs,
    timing: &Timing,
    mode: &str,
    e2e: bool,
    layers: bool,
) -> Result<(json::Json, bool), String> {
    let mut doc = report::Document::new(mode, a.seed, dirs);
    let mut all_ok = true;
    for w in selected(a) {
        if e2e {
            let r = run::e2e_pass(w, a.seed, dirs, timing)?;
            report::print_e2e(w, &r);
            all_ok &= r.correct();
            doc.add_e2e(w, &r);
        }
        if layers {
            let r = run::trace_pass(w, a.seed, dirs, timing)?;
            report::print_layers(w, &r);
            all_ok &= r.correct();
            doc.add_layers(w, &r);
        }
    }
    Ok((doc.finish(), all_ok))
}

fn write_doc(a: &Args, dirs: &Dirs, mode: &str, doc: &json::Json) -> Result<PathBuf, String> {
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| dirs.out.join(format!("{mode}-seed{}.json", a.seed)));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// `run` / `trace`, full or `--smoke`.
fn cmd_suite(a: &Args, dirs: &Dirs, e2e: bool) -> Result<bool, String> {
    let (timing, mode) = match (a.smoke, e2e) {
        (true, _) => (Timing::smoke(), "smoke"),
        (false, true) => (Timing::full(), "run"),
        (false, false) => (Timing::full(), "trace"),
    };
    if a.smoke {
        hist::self_test()?;
        json::self_test()?;
        compare::self_test()?;
        // Present when run from a checkout root; the package directory
        // alone (or an installed binary) has nothing to check against.
        if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
            report::check_benchmark_json(&text)?;
        }
    }
    let (doc, ok) = suite(a, dirs, &timing, mode, e2e, true)?;
    let path = write_doc(a, dirs, mode, &doc)?;
    if a.smoke {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        report::check_shape(&json::Json::parse(&text)?, e2e, true)?;
        println!("smoke: self-tests and document shape ok");
    }
    Ok(ok)
}

/// The end-to-end suite twice on the same build; each run must pass
/// `compare` against the other. (The traced pass feeds no bound, so it
/// is not repeated here.)
fn cmd_selfcheck(a: &Args, dirs: &Dirs) -> Result<bool, String> {
    let timing = Timing::full();
    let (first, ok1) = suite(a, dirs, &timing, "selfcheck-1", true, false)?;
    let (second, ok2) = suite(a, dirs, &timing, "selfcheck-2", true, false)?;
    println!("\nfirst -> second");
    let r1 = compare::compare_docs(&first, &second)?;
    println!("\nsecond -> first");
    let r2 = compare::compare_docs(&second, &first)?;
    Ok(ok1 && ok2 && !r1 && !r2)
}

/// The benchmark-contract entry: one workload, one pass, one JSON line.
fn cmd_contract(a: &Args, dirs: &Dirs) -> Result<bool, String> {
    let (Some(w), Some(seconds), Some(trace)) = (a.workload, a.seconds, a.trace) else {
        return Err(format!(
            "the contract entry needs --workload, --seconds and --trace\n{USAGE}"
        ));
    };
    let timing = Timing::driver(seconds);
    // Both passes return their metrics in catalogue order.
    if trace {
        let r = run::trace_pass(w, a.seed, dirs, &timing)?;
        let metrics = catalog::LAYER.iter().zip(&r.metrics);
        let line = report::contract_line(
            r.attempted,
            r.failed,
            metrics.map(|(m, &(name, v))| (name, v, m.unit)),
        );
        println!("{line}");
        Ok(r.correct())
    } else {
        let r = run::e2e_pass(w, a.seed, dirs, &timing)?;
        let metrics = catalog::E2E.iter().zip(&r.metrics);
        let line = report::contract_line(
            r.attempted,
            r.failed,
            metrics.map(|(m, &(name, s))| (name, s.value, m.unit)),
        );
        println!("{line}");
        Ok(r.correct())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(EXIT_ABORT);
        }
    };
    let dirs = Dirs::from_env();
    let command = args.positional.first().map(String::as_str);
    let outcome = match command {
        Some("list") => {
            report::print_catalogue();
            Ok(true)
        }
        Some("run") => cmd_suite(&args, &dirs, true),
        Some("trace") => cmd_suite(&args, &dirs, false),
        Some("selfcheck") => cmd_selfcheck(&args, &dirs),
        Some("compare") => match &args.positional[1..] {
            [a, b] => compare::compare_files(a, b).map(|regressed| !regressed),
            _ => Err(format!("compare takes two documents\n{USAGE}")),
        },
        None => cmd_contract(&args, &dirs),
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_FAILED),
        Err(e) => {
            // A watchdog abort or fatal runtime error does not unwind
            // through the sessions; remove whatever images remain.
            session::scrub_data_dir(&dirs);
            eprintln!("oafbench: aborted: {e}");
            ExitCode::from(EXIT_ABORT)
        }
    }
}
