//! Named output: the human-readable tables, the JSON document `run`
//! writes, and the one-line result of the benchmark-contract entry.

use crate::catalog::{self, Workload, E2E, FAIL_RATIO, LAYER, WORKLOADS};
use crate::json::Json;
use crate::procfs;
use crate::run::{PassResult, Stat};
use crate::session::Dirs;

/// `oafbench list`: the workload and metric catalogue.
pub fn print_catalogue() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!(
            "  {:<18} {:?}/{:?}, {} MiB set, {} KiB, QD{} x {} conn, {}% read{}{}",
            w.name,
            w.fabric,
            w.backend,
            w.set_mib,
            w.io_bytes / 1024,
            w.qd,
            w.conns(),
            w.read_pct,
            if w.fua { ", FUA writes" } else { "" },
            w.flush_every
                .map(|n| format!(", Flush per {n} ops"))
                .unwrap_or_default(),
        );
        println!("  {:<18} why: {}", "", w.why);
    }
    println!("\nend-to-end metrics (tracing off; same set on every workload):");
    for m in &E2E {
        let bound = if m.name == FAIL_RATIO {
            "0 (absolute)".to_string()
        } else {
            format!("{:.2}", m.bound)
        };
        println!(
            "  {:<14} {:<6} {:<6} better, bound {bound}: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.def
        );
    }
    println!("\nper-layer metrics (traced pass; P = isolated probe, S = span, T = telemetry delta, D = derived):");
    for m in &LAYER {
        println!(
            "  {:<32} [{}] {:<6} {:<6} better: {}",
            m.name,
            m.source.tag(),
            m.unit,
            m.better.as_str(),
            m.def
        );
        println!("  {:<32}     moves: {}", "", m.moves);
    }
}

pub fn print_e2e(w: &Workload, r: &PassResult<Stat>) {
    println!("== {} — end to end (tracing off) ==", w.name);
    for (m, (name, s)) in E2E.iter().zip(&r.metrics) {
        println!(
            "  {name:<14} {:>14.3} {:<5} n={:<9} spread={:.1}%",
            s.value,
            m.unit,
            s.n,
            s.spread * 100.0
        );
    }
    print_gate(r.attempted, r.failed, &r.violations);
}

pub fn print_layers(w: &Workload, r: &PassResult<f64>) {
    println!("== {} — per layer (traced pass) ==", w.name);
    for (m, (name, v)) in LAYER.iter().zip(&r.metrics) {
        println!("  {name:<32} [{}] {v:>14.3} {}", m.source.tag(), m.unit);
    }
    print_gate(r.attempted, r.failed, &r.violations);
}

fn print_gate(attempted: u64, failed: u64, violations: &[String]) {
    println!("  gate: {failed} failed of {attempted} attempted");
    for v in violations {
        println!("  VIOLATION {v}");
    }
}

fn machine(dirs: &Dirs) -> Json {
    let mut m = Json::obj();
    m.set("nproc", Json::Num(procfs::nproc() as f64))
        .set("data_dir", Json::Str(dirs.data.display().to_string()))
        .set("data_dir_fs", Json::Str(procfs::filesystem_of(&dirs.data)))
        .set("link", Json::Str("loopback".into()))
        .set(
            "flush_policy",
            Json::Str("real fdatasync, sync worker attached".into()),
        );
    m
}

/// The document `run`/`trace` write: one end-to-end block and one
/// per-layer block per workload, plus the machine facts.
pub struct Document {
    doc: Json,
    workloads: Vec<(String, Json)>,
}

impl Document {
    pub fn new(mode: &str, seed: u64, dirs: &Dirs) -> Document {
        let mut doc = Json::obj();
        doc.set("tool", Json::Str("oafbench".into()))
            .set("mode", Json::Str(mode.into()))
            .set("seed", Json::Num(seed as f64))
            .set("machine", machine(dirs));
        Document {
            doc,
            workloads: Vec::new(),
        }
    }

    fn entry(&mut self, name: &str) -> &mut Json {
        if !self.workloads.iter().any(|(n, _)| n == name) {
            self.workloads.push((name.to_string(), Json::obj()));
        }
        &mut self
            .workloads
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("just inserted")
            .1
    }

    pub fn add_e2e(&mut self, w: &Workload, r: &PassResult<Stat>) {
        let mut block = Json::obj();
        for (meta, (name, s)) in E2E.iter().zip(&r.metrics) {
            let mut m = Json::obj();
            m.set("value", Json::Num(s.value))
                .set("unit", Json::Str(meta.unit.into()))
                .set("n", Json::Num(s.n as f64))
                .set("spread", Json::Num(s.spread));
            block.set(name, m);
        }
        let e = self.entry(w.name);
        e.set("end_to_end", block);
        gate_fields(e, "end_to_end", r.attempted, r.failed, &r.violations);
    }

    pub fn add_layers(&mut self, w: &Workload, r: &PassResult<f64>) {
        let mut block = Json::obj();
        for (meta, (name, v)) in LAYER.iter().zip(&r.metrics) {
            let mut m = Json::obj();
            m.set("value", Json::Num(*v))
                .set("unit", Json::Str(meta.unit.into()))
                .set("source", Json::Str(meta.source.tag().into()));
            block.set(name, m);
        }
        let e = self.entry(w.name);
        e.set("per_layer", block);
        gate_fields(e, "per_layer", r.attempted, r.failed, &r.violations);
    }

    pub fn finish(mut self) -> Json {
        self.doc.set("workloads", Json::Obj(self.workloads));
        self.doc
    }
}

fn gate_fields(e: &mut Json, pass: &str, attempted: u64, failed: u64, violations: &[String]) {
    let mut g = Json::obj();
    g.set("attempted", Json::Num(attempted as f64))
        .set("failed", Json::Num(failed as f64))
        .set(
            "violations",
            Json::Arr(violations.iter().cloned().map(Json::Str).collect()),
        );
    e.set(&format!("{pass}_gate"), g);
}

/// The benchmark-contract result line: `correct`, `attempted`, `failed`
/// and `metrics`, the latter from `(name, value, unit)` triples
/// (`fail_ratio` is carried by the first three keys and skipped).
pub fn contract_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let mut block = Json::obj();
    for (name, value, unit) in metrics.filter(|(name, ..)| *name != FAIL_RATIO) {
        let mut m = Json::obj();
        m.set("value", Json::Num(value))
            .set("unit", Json::Str(unit.into()));
        block.set(name, m);
    }
    let mut line = Json::obj();
    line.set("correct", Json::Bool(failed == 0))
        .set("attempted", Json::Num(attempted.max(1) as f64))
        .set("failed", Json::Num(failed as f64))
        .set("metrics", block);
    line.compact()
}

/// Shape check of a written document: every listed workload carries
/// every catalogue metric of the passes that ran.
pub fn check_shape(doc: &Json, want_e2e: bool, want_layers: bool) -> Result<(), String> {
    let workloads = doc.get("workloads").ok_or("document has no workloads")?;
    if workloads.fields().is_empty() {
        return Err("document lists no workload".into());
    }
    for (name, w) in workloads.fields() {
        let has = |block: &str, metric: &str| {
            w.get(block)
                .and_then(|b| b.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .is_some()
        };
        if want_e2e {
            for m in &E2E {
                if !has("end_to_end", m.name) {
                    return Err(format!("{name}: end_to_end.{} missing", m.name));
                }
            }
        }
        if want_layers {
            for m in &LAYER {
                if !has("per_layer", m.name) {
                    return Err(format!("{name}: per_layer.{} missing", m.name));
                }
            }
        }
    }
    Ok(())
}

/// `BENCHMARK.json` must name the catalogue's metrics exactly
/// (`fail_ratio` excepted: the contract carries it as
/// `attempted`/`failed`) and only workloads the catalogue has.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .map(|a| {
                a.items()
                    .iter()
                    .filter_map(|i| i.get("name").and_then(Json::as_str))
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let same = |what: &str, got: Vec<String>, want: Vec<&str>| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json {what} differ from the catalogue:\n  file:      {got:?}\n  catalogue: {want:?}"
            ))
        }
    };
    let listed = names("workloads");
    if listed.is_empty() {
        return Err("BENCHMARK.json lists no workload".into());
    }
    if let Some(unknown) = listed.iter().find(|n| catalog::workload(n).is_none()) {
        return Err(format!(
            "BENCHMARK.json workload {unknown} is not in the catalogue"
        ));
    }
    same(
        "end_to_end metrics",
        names("end_to_end"),
        E2E.iter()
            .map(|m| m.name)
            .filter(|n| *n != FAIL_RATIO)
            .collect(),
    )?;
    same(
        "per_layer metrics",
        names("per_layer"),
        LAYER.iter().map(|m| m.name).collect(),
    )?;
    for item in doc.get("end_to_end").map(Json::items).unwrap_or_default() {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(m) = catalog::e2e(name) else {
            continue;
        };
        let bound = item.get("bound").and_then(Json::as_f64);
        let better = item.get("better").and_then(Json::as_str);
        let unit = item.get("unit").and_then(Json::as_str);
        if bound != Some(m.bound) || better != Some(m.better.as_str()) || unit != Some(m.unit) {
            return Err(format!(
                "BENCHMARK.json {name}: unit/better/bound differ from the catalogue"
            ));
        }
    }
    Ok(())
}
