//! Shared experiment drivers for the figure-regeneration benches.
//!
//! Each `benches/figN_*.rs` target is a thin `main` that calls into this
//! library, prints the series the corresponding figure plots, and emits its
//! [`ManifestSection`] as a JSON blob so the numbers can be post-processed.
//! The experiment logic lives here so integration tests and the
//! `alaska-benchctl` manifest runner can exercise it at reduced scale.
//!
//! # Manifest sections
//!
//! Every harness describes its output through the [`ManifestSection`] trait:
//! a stable harness name, the configuration knobs that produced the run, the
//! full figure payload (`rows`), and a flat `metric name → f64` map that the
//! regression gate (`benchctl compare`) diffs against a baseline.  The
//! concrete section types live in [`sections`]; standalone benches print them
//! with [`emit_section`] and `benchctl` merges them into one
//! schema-versioned `run-manifest.json` (see `crates/benchctl`).
//!
//! These harnesses reproduce the paper's figures and tables; they do not
//! time the runtime's hot paths.  Stopwatch loops over translate, pin/unpin,
//! `halloc`/`hfree`, barriers and the defragmentation phases live in the
//! repository's `benchmark/` package, which reports them per layer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod memcached;
pub mod redis;
pub mod sections;

use alaska_telemetry::json::JsonValue;

/// One harness's contribution to a run manifest.
///
/// Implementations wrap a harness's results and expose them three ways:
/// machine-readable figure data (`rows`), the knobs that produced them
/// (`config`), and a flat scalar-metric map (`metrics`) that regression
/// gating can diff with per-metric tolerance rules.  Metric names are
/// dot-separated paths (`"steady_mb.anchorage"`, `"p99_us.t4.i100"`)
/// and become `"<harness>.<path>"` in a merged manifest.
pub trait ManifestSection {
    /// Stable harness name (`"fig7"`, `"fig12"`, …); the section key
    /// in the run manifest.
    fn harness(&self) -> &'static str;

    /// Configuration knobs that produced this run (scales, durations, host
    /// parallelism).  Defaults to an empty object.
    fn config(&self) -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// The full figure/table payload, as the standalone bench used to emit.
    fn rows(&self) -> JsonValue;

    /// Flat `metric path → value` pairs for regression gating.
    fn metrics(&self) -> Vec<(String, f64)>;

    /// Assemble the complete section object embedded in the run manifest.
    fn to_section(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("config".to_string(), self.config()),
            (
                "metrics".to_string(),
                JsonValue::Object(
                    self.metrics().into_iter().map(|(k, v)| (k, JsonValue::F64(v))).collect(),
                ),
            ),
            ("rows".to_string(), self.rows()),
        ])
    }
}

/// Emit a machine-readable copy of a harness's manifest section next to its
/// human-readable rows, as a single `JSON <harness> <object>` line.
pub fn emit_section(section: &dyn ManifestSection) {
    println!("JSON {} {}", section.harness(), section.to_section().render());
}

/// Read an `f64` scale factor from the environment (used to shrink or enlarge
/// experiments without recompiling), defaulting to `default`.
pub fn env_scale(var: &str, default: f64) -> f64 {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Deterministic value bytes for a key, shared by the Redis and memcached
/// experiments so both stores hold the same payloads.
pub(crate) fn value_bytes(key: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for b in v.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    v
}
