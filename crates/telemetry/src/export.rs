//! Snapshot writers: Prometheus text exposition format and one-line
//! JSON.
//!
//! Metric full names are `oaf_<scope>__<name>`. Scope and metric names
//! are sanitized to `[a-z0-9_]` with no doubled underscores (see
//! [`crate::registry::sanitize`]), so the last `__` separates the pair
//! and two metrics render to the same full name only if they share
//! scope and name.
//!
//! Gauge high-water marks and histogram maxima are emitted as companion
//! gauges with an `_hwm` suffix; histograms use standard cumulative
//! `_bucket{le="..."}` lines plus `_sum`/`_count`.

use crate::histo::bucket_upper;
use crate::registry::{MetricValue, Snapshot};
use std::fmt::Write as _;

const PREFIX: &str = "oaf_";
const SEP: &str = "__";
const HWM: &str = "_hwm";

fn full_name(scope: &str, name: &str) -> String {
    format!("{PREFIX}{scope}{SEP}{name}")
}

/// Render a snapshot in Prometheus text exposition format.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for scope in &snap.scopes {
        for m in &scope.metrics {
            let fname = full_name(&scope.name, &m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {fname} counter");
                    let _ = writeln!(out, "{fname} {v}");
                }
                MetricValue::Gauge { value, max } => {
                    let _ = writeln!(out, "# TYPE {fname} gauge");
                    let _ = writeln!(out, "{fname} {value}");
                    let _ = writeln!(out, "# TYPE {fname}{HWM} gauge");
                    let _ = writeln!(out, "{fname}{HWM} {max}");
                }
                MetricValue::Histo(h) => {
                    let _ = writeln!(out, "# TYPE {fname} histogram");
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let _ = writeln!(out, "{fname}_bucket{{le=\"{}\"}} {cum}", bucket_upper(i));
                    }
                    let _ = writeln!(out, "{fname}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{fname}_sum {}", h.sum);
                    let _ = writeln!(out, "{fname}_count {}", h.count);
                    let _ = writeln!(out, "# TYPE {fname}{HWM} gauge");
                    let _ = writeln!(out, "{fname}{HWM} {}", h.max);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render a snapshot as a single-line JSON document. Histogram buckets
/// are sparse `[index, count]` pairs.
pub fn json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"scopes\":[");
    for (si, scope) in snap.scopes.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape(&scope.name, &mut out);
        out.push_str("\",\"metrics\":[");
        for (mi, m) in scope.metrics.iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape(&m.name, &mut out);
            out.push('"');
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge { value, max } => {
                    let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{value},\"max\":{max}");
                }
                MetricValue::Histo(h) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"histo\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.max
                    );
                    let mut first = true;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(out, "[{i},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        let s = r.scope("transport.shm.client");
        s.counter("frames_sent").add(1234);
        let g = s.gauge("inflight");
        g.add(9);
        g.sub(7);
        let h = s.histo("lat_write");
        for v in [0u64, 1, 3, 900, 70_000] {
            h.record(v);
        }
        let t = r.scope("target");
        t.counter("ops").add(42);
        r.snapshot()
    }

    #[test]
    fn prometheus_golden() {
        // Cumulative buckets list only the non-empty log2 bounds.
        let want = r#"# TYPE oaf_transport_shm_client__frames_sent counter
oaf_transport_shm_client__frames_sent 1234
# TYPE oaf_transport_shm_client__inflight gauge
oaf_transport_shm_client__inflight 2
# TYPE oaf_transport_shm_client__inflight_hwm gauge
oaf_transport_shm_client__inflight_hwm 9
# TYPE oaf_transport_shm_client__lat_write histogram
oaf_transport_shm_client__lat_write_bucket{le="0"} 1
oaf_transport_shm_client__lat_write_bucket{le="1"} 2
oaf_transport_shm_client__lat_write_bucket{le="3"} 3
oaf_transport_shm_client__lat_write_bucket{le="1023"} 4
oaf_transport_shm_client__lat_write_bucket{le="131071"} 5
oaf_transport_shm_client__lat_write_bucket{le="+Inf"} 5
oaf_transport_shm_client__lat_write_sum 70904
oaf_transport_shm_client__lat_write_count 5
# TYPE oaf_transport_shm_client__lat_write_hwm gauge
oaf_transport_shm_client__lat_write_hwm 70000
# TYPE oaf_target__ops counter
oaf_target__ops 42
"#;
        assert_eq!(prometheus_text(&sample_snapshot()), want);
    }

    #[test]
    fn json_golden() {
        // Buckets are sparse `[index, count]` pairs.
        let want = concat!(
            r#"{"scopes":[{"name":"transport_shm_client","metrics":["#,
            r#"{"name":"frames_sent","kind":"counter","value":1234},"#,
            r#"{"name":"inflight","kind":"gauge","value":2,"max":9},"#,
            r#"{"name":"lat_write","kind":"histo","count":5,"sum":70904,"max":70000,"#,
            r#""buckets":[[0,1],[1,1],[2,1],[10,1],[17,1]]}]},"#,
            r#"{"name":"target","metrics":[{"name":"ops","kind":"counter","value":42}]}]}"#,
        );
        assert_eq!(json(&sample_snapshot()), want);
    }

    #[test]
    fn empty_snapshot_renders_no_metric() {
        let snap = Snapshot::default();
        assert_eq!(prometheus_text(&snap), "");
        assert_eq!(json(&snap), r#"{"scopes":[]}"#);
    }
}
