//! Named metric storage with snapshot and export.
//!
//! A [`Registry`] hands out shared handles to metrics by name —
//! get-or-create, so the instrumented component and the reporting side can
//! both resolve `"alaska_barrier_pause_ns"` without coordinating setup order.
//! Lookup takes a lock, so callers on hot paths resolve their handles once
//! and keep the `Arc`; recording through the handle is lock-free.
//!
//! [`RegistrySnapshot`] freezes every metric into plain data and renders it
//! as JSON Lines ([`RegistrySnapshot::to_jsonl`]), histograms as their
//! count, sum, min, max, mean and p50/p90/p99.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::JsonValue;
use crate::metrics::{Counter, Gauge};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A live metric stored in the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Get-or-create storage of named [`Counter`]s, [`Gauge`]s and
/// [`Histogram`]s.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        extract: impl FnOnce(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let metric = metrics.entry(name.to_string()).or_insert_with(make);
        match extract(metric) {
            Some(handle) => handle,
            None => panic!("telemetry metric {name:?} already registered as a {}", metric.kind()),
        }
    }

    /// Resolve (or create) the counter called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Resolve (or create) the gauge called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Resolve (or create) the histogram called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze every metric's current value, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            metrics: metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// A frozen metric value inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter total.
    Counter(u64),
    /// An instantaneous gauge reading.
    Gauge(f64),
    /// Histogram summary statistics.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of every metric in a [`Registry`], sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Render one metric as the JSON object [`Self::to_jsonl`] writes.
    fn metric_json(name: &str, value: &MetricValue) -> JsonValue {
        let mut obj = vec![
            ("name".to_string(), JsonValue::Str(name.to_string())),
            ("type".to_string(), JsonValue::Str(kind_of(value).to_string())),
        ];
        match value {
            MetricValue::Counter(v) => obj.push(("value".to_string(), JsonValue::U64(*v))),
            MetricValue::Gauge(v) => obj.push(("value".to_string(), JsonValue::F64(*v))),
            MetricValue::Histogram(h) => {
                obj.push(("count".to_string(), JsonValue::U64(h.count)));
                obj.push(("sum".to_string(), JsonValue::U64(h.sum)));
                obj.push(("min".to_string(), JsonValue::U64(h.min)));
                obj.push(("max".to_string(), JsonValue::U64(h.max)));
                obj.push(("mean".to_string(), JsonValue::F64(h.mean)));
                obj.push(("p50".to_string(), JsonValue::U64(h.p50)));
                obj.push(("p90".to_string(), JsonValue::U64(h.p90)));
                obj.push(("p99".to_string(), JsonValue::U64(h.p99)));
            }
        }
        JsonValue::Object(obj)
    }

    /// Render the snapshot as JSON Lines: one object per metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&Self::metric_json(name, value).render());
            out.push('\n');
        }
        out
    }
}

fn kind_of(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let r = Registry::new();
        r.counter("ops").add(5);
        r.counter("ops").add(7);
        assert_eq!(r.counter("ops").get(), 12);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_indexable() {
        let r = Registry::new();
        r.gauge("b_gauge").set(0.5);
        r.counter("a_counter").add(3);
        let snap = r.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_counter", "b_gauge"]);
        assert_eq!(snap.get("a_counter"), Some(&MetricValue::Counter(3)));
        assert_eq!(snap.get("b_gauge"), Some(&MetricValue::Gauge(0.5)));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn jsonl_export_matches_golden() {
        let r = Registry::new();
        r.counter("alaska_barriers").add(2);
        r.gauge("alaska_frag_ratio").set(0.25);
        let snap = r.snapshot();
        assert_eq!(
            snap.to_jsonl(),
            "{\"name\":\"alaska_barriers\",\"type\":\"counter\",\"value\":2}\n\
             {\"name\":\"alaska_frag_ratio\",\"type\":\"gauge\",\"value\":0.25}\n"
        );
    }

    #[test]
    fn jsonl_export_includes_histogram_summary() {
        let r = Registry::new();
        let h = r.histogram("pause_ns");
        h.record(10);
        h.record(10);
        let line = r.snapshot().to_jsonl();
        assert_eq!(
            line,
            "{\"name\":\"pause_ns\",\"type\":\"histogram\",\"count\":2,\"sum\":20,\
             \"min\":10,\"max\":10,\"mean\":10,\"p50\":10,\"p90\":10,\"p99\":10}\n"
        );
    }

    #[test]
    fn json_export_parses_back_and_matches_jsonl() {
        let r = Registry::new();
        r.counter("alaska_barriers").add(2);
        r.histogram("pause_ns").record(10);
        let jsonl = r.snapshot().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        // Integral floats render without `.0` and parse back as integers, so
        // compare the stable rendered form rather than the value trees.
        for line in jsonl.lines() {
            assert_eq!(JsonValue::parse(line).unwrap().render(), line);
        }
    }
}
