//! Named metric registry.
//!
//! A [`Registry`] is a flat list of [`Scope`]s (one per subsystem /
//! connection), each holding named metrics. Registration takes a lock;
//! *recording* never does — handles returned by (or adopted into) a
//! scope are the same `Arc`-backed cells the hot path updates, so the
//! registry only matters at snapshot/export time.
//!
//! Names are sanitized to `[a-z0-9_]` at registration, so the exported
//! full name `oaf_<scope>__<name>` splits back unambiguously on its
//! *last* double underscore (see [`crate::export`]).

use crate::histo::{Histo, HistoSnapshot};
use crate::metric::{Counter, Gauge};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lowercase and map anything outside `[a-z0-9_]` to `_`, then collapse
/// runs of `_` so `__` stays reserved as the scope/name separator in
/// exported text.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut prev_us = false;
    for ch in name.chars() {
        let ch = if ch.is_ascii_alphanumeric() {
            ch.to_ascii_lowercase()
        } else {
            '_'
        };
        if ch == '_' {
            if prev_us {
                continue;
            }
            prev_us = true;
        } else {
            prev_us = false;
        }
        out.push(ch);
    }
    let trimmed = out.trim_matches('_');
    if trimmed.is_empty() {
        "unnamed".to_string()
    } else {
        trimmed.to_string()
    }
}

/// A registered metric handle.
#[derive(Clone, Debug)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

struct ScopeCell {
    name: String,
    metrics: Mutex<Vec<(String, Metric)>>,
}

/// Clonable handle to one named scope inside a registry.
#[derive(Clone)]
pub struct Scope {
    inner: Arc<ScopeCell>,
}

impl Scope {
    fn find(&self, name: &str) -> Option<Metric> {
        lock(&self.inner.metrics)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.clone())
    }

    fn insert(&self, name: String, metric: Metric) {
        let mut metrics = lock(&self.inner.metrics);
        if let Some(slot) = metrics.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = metric;
        } else {
            metrics.push((name, metric));
        }
    }

    /// Find-or-create a counter under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let name = sanitize(name);
        if let Some(Metric::Counter(c)) = self.find(&name) {
            return c;
        }
        let c = Counter::new();
        self.insert(name, Metric::Counter(c.clone()));
        c
    }

    /// Find-or-create a gauge under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let name = sanitize(name);
        if let Some(Metric::Gauge(g)) = self.find(&name) {
            return g;
        }
        let g = Gauge::new();
        self.insert(name, Metric::Gauge(g.clone()));
        g
    }

    /// Find-or-create a histogram under `name`.
    pub fn histo(&self, name: &str) -> Histo {
        let name = sanitize(name);
        if let Some(Metric::Histo(h)) = self.find(&name) {
            return h;
        }
        let h = Histo::new();
        self.insert(name, Metric::Histo(h.clone()));
        h
    }

    /// Adopt an existing (possibly detached) handle under `name`. Used
    /// by subsystems that create their metric structs before any
    /// registry exists, then publish them at wiring time.
    pub fn adopt_counter(&self, name: &str, c: &Counter) {
        self.insert(sanitize(name), Metric::Counter(c.clone()));
    }

    pub fn adopt_gauge(&self, name: &str, g: &Gauge) {
        self.insert(sanitize(name), Metric::Gauge(g.clone()));
    }

    pub fn adopt_histo(&self, name: &str, h: &Histo) {
        self.insert(sanitize(name), Metric::Histo(h.clone()));
    }

    fn snapshot(&self) -> ScopeSnapshot {
        let metrics = lock(&self.inner.metrics);
        ScopeSnapshot {
            name: self.inner.name.clone(),
            metrics: metrics
                .iter()
                .map(|(n, m)| MetricSnapshot {
                    name: n.clone(),
                    value: match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge {
                            value: g.get(),
                            max: g.hwm(),
                        },
                        Metric::Histo(h) => MetricValue::Histo(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// Top-level metric registry. Cheap to share via `Arc<Registry>`.
#[derive(Default)]
pub struct Registry {
    scopes: Mutex<Vec<Scope>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Find-or-create the scope named `name` (sanitized).
    pub fn scope(&self, name: &str) -> Scope {
        let name = sanitize(name);
        let mut scopes = lock(&self.scopes);
        if let Some(s) = scopes.iter().find(|s| s.inner.name == name) {
            return s.clone();
        }
        let s = Scope {
            inner: Arc::new(ScopeCell {
                name,
                metrics: Mutex::new(Vec::new()),
            }),
        };
        scopes.push(s.clone());
        s
    }

    pub fn scope_names(&self) -> Vec<String> {
        lock(&self.scopes)
            .iter()
            .map(|s| s.inner.name.clone())
            .collect()
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let scopes = lock(&self.scopes);
        Snapshot {
            scopes: scopes.iter().map(|s| s.snapshot()).collect(),
        }
    }
}

/// Exported value of one metric.
///
/// Histogram snapshots dominate the size, but snapshots live on the
/// read side only (one short-lived `Vec` per scrape), so flat storage
/// beats a per-histogram box.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge { value: i64, max: i64 },
    Histo(HistoSnapshot),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopeSnapshot {
    pub name: String,
    pub metrics: Vec<MetricSnapshot>,
}

/// Point-in-time copy of a whole registry — plain data, safe to ship
/// across threads, diff, or export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub scopes: Vec<ScopeSnapshot>,
}

impl Snapshot {
    /// Look up one metric by scope and name.
    pub fn get(&self, scope: &str, name: &str) -> Option<&MetricValue> {
        self.scopes
            .iter()
            .find(|s| s.name == scope)?
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Counter value, or 0 when absent / not a counter. Convenient in
    /// tests and reports.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        match self.get(scope, name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    pub fn gauge(&self, scope: &str, name: &str) -> Option<(i64, i64)> {
        match self.get(scope, name) {
            Some(MetricValue::Gauge { value, max }) => Some((*value, *max)),
            _ => None,
        }
    }

    pub fn histo(&self, scope: &str, name: &str) -> Option<&HistoSnapshot> {
        match self.get(scope, name) {
            Some(MetricValue::Histo(h)) => Some(h),
            _ => None,
        }
    }

    /// Change since `earlier`, matched by scope/metric name. Counters
    /// and histograms subtract; gauges keep their current value and
    /// lifetime high-water mark. Metrics absent from `earlier` pass
    /// through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            scopes: self
                .scopes
                .iter()
                .map(|s| {
                    let old = earlier.scopes.iter().find(|o| o.name == s.name);
                    ScopeSnapshot {
                        name: s.name.clone(),
                        metrics: s
                            .metrics
                            .iter()
                            .map(|m| {
                                let prev =
                                    old.and_then(|o| o.metrics.iter().find(|p| p.name == m.name));
                                MetricSnapshot {
                                    name: m.name.clone(),
                                    value: delta_value(&m.value, prev.map(|p| &p.value)),
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

fn delta_value(now: &MetricValue, prev: Option<&MetricValue>) -> MetricValue {
    match (now, prev) {
        (MetricValue::Counter(n), Some(MetricValue::Counter(p))) => {
            MetricValue::Counter(n.saturating_sub(*p))
        }
        (MetricValue::Histo(n), Some(MetricValue::Histo(p))) => MetricValue::Histo(n.delta(p)),
        _ => now.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("transport.shm.client"), "transport_shm_client");
        assert_eq!(sanitize("Frames Sent"), "frames_sent");
        assert_eq!(sanitize("a__b"), "a_b");
        assert_eq!(sanitize("__"), "unnamed");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn scope_find_or_create() {
        let r = Registry::new();
        let c1 = r.scope("client").counter("ops");
        let c2 = r.scope("client").counter("ops");
        assert!(c1.same_as(&c2));
        c1.inc();
        assert_eq!(r.snapshot().counter("client", "ops"), 1);
    }

    #[test]
    fn adopt_links_detached_handle() {
        let detached = Counter::new();
        detached.add(7);
        let r = Registry::new();
        r.scope("ring").adopt_counter("frames", &detached);
        detached.inc();
        assert_eq!(r.snapshot().counter("ring", "frames"), 8);
    }

    #[test]
    fn snapshot_delta() {
        let r = Registry::new();
        let s = r.scope("s");
        let c = s.counter("c");
        let g = s.gauge("g");
        let h = s.histo("h");
        c.add(10);
        g.set(5);
        h.record(3);
        let first = r.snapshot();
        c.add(2);
        g.set(1);
        h.record(9);
        let d = r.snapshot().delta(&first);
        assert_eq!(d.counter("s", "c"), 2);
        assert_eq!(d.gauge("s", "g"), Some((1, 5)));
        let hd = d.histo("s", "h").unwrap();
        assert_eq!(hd.count, 1);
        assert_eq!(hd.sum, 9);
        assert_eq!(hd.max, 9);
    }

    #[test]
    fn scope_names_ordered() {
        let r = Registry::new();
        r.scope("b");
        r.scope("a");
        r.scope("b");
        assert_eq!(r.scope_names(), vec!["b".to_string(), "a".to_string()]);
    }
}
