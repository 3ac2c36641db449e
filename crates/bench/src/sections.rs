//! Concrete [`ManifestSection`] types, one per figure/table harness.
//!
//! Each section wraps the result structs its harness produces and flattens
//! the regression-relevant scalars into dot-separated metric paths.  The
//! standalone `benches/` binaries and the `alaska-benchctl` runner both build
//! these, so the JSON a bench prints and the section `benchctl` embeds in a
//! run manifest are the same object by construction.
//!
//! Metric-path conventions:
//!
//! * deterministic modelled/simulated quantities (`overhead_pct.*`,
//!   `growth_x.*`, `steady_mb.*`, `passes.*`) are reproducible across
//!   machines and gate tightly,
//! * wall-clock quantities (`mean_us.*`, `p99_us.*`, `p99_pause_us.*`) are
//!   machine-dependent and gate loosely (see `benchctl`'s default tolerance
//!   rules),
//! * per-configuration axes encode as short suffixes: `t{threads}` and
//!   `i{interval_ms}` (`i0` = the no-pause reference).

use crate::memcached::PauseExperimentResult;
use crate::redis::{savings_vs_baseline, RedisExperimentResult};
use crate::ManifestSection;
use alaska::ControlParams;
use alaska_benchsuite::harness::{geomean_overhead_pct, BenchmarkResult};
use alaska_telemetry::json::{object, JsonValue, ToJson};

/// Figure 7: per-benchmark translation/tracking overhead plus the geomean
/// headline.
pub struct OverheadSection {
    /// Scale factor the study ran at.
    pub scale: f64,
    /// One result per benchmark, with an `"alaska"` configuration each.
    pub results: Vec<BenchmarkResult>,
}

impl ManifestSection for OverheadSection {
    fn harness(&self) -> &'static str {
        "fig7"
    }

    fn config(&self) -> JsonValue {
        object([("scale", JsonValue::F64(self.scale))])
    }

    fn rows(&self) -> JsonValue {
        let rows: Vec<(String, String, f64)> = self
            .results
            .iter()
            .map(|r| (r.name.clone(), r.suite.to_string(), r.alaska_overhead_pct()))
            .collect();
        rows.to_json()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .results
            .iter()
            .map(|r| (format!("overhead_pct.{}", r.name), r.alaska_overhead_pct()))
            .collect();
        out.push((
            "geomean_overhead_pct".to_string(),
            geomean_overhead_pct(&self.results, "alaska"),
        ));
        let no_violators: Vec<BenchmarkResult> = self
            .results
            .iter()
            .filter(|r| r.name != "perlbench" && r.name != "gcc")
            .cloned()
            .collect();
        out.push((
            "geomean_overhead_pct_no_violators".to_string(),
            geomean_overhead_pct(&no_violators, "alaska"),
        ));
        out
    }
}

/// Figure 8: the ablation (full pipeline vs `notracking` vs `nohoisting`).
pub struct AblationSection {
    /// Scale factor the study ran at.
    pub scale: f64,
    /// One result per benchmark with all three configurations measured.
    pub results: Vec<BenchmarkResult>,
}

impl AblationSection {
    fn overhead(r: &BenchmarkResult, config: &str) -> f64 {
        r.config(config).map(|c| c.overhead_pct).unwrap_or(0.0)
    }
}

impl ManifestSection for AblationSection {
    fn harness(&self) -> &'static str {
        "fig8"
    }

    fn config(&self) -> JsonValue {
        object([("scale", JsonValue::F64(self.scale))])
    }

    fn rows(&self) -> JsonValue {
        let rows: Vec<(String, f64, f64, f64)> = self
            .results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    Self::overhead(r, "alaska"),
                    Self::overhead(r, "notracking"),
                    Self::overhead(r, "nohoisting"),
                )
            })
            .collect();
        rows.to_json()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for r in &self.results {
            for config in ["alaska", "notracking", "nohoisting"] {
                out.push((format!("overhead_pct.{config}.{}", r.name), Self::overhead(r, config)));
            }
        }
        out
    }
}

/// Figures 9 and 11: the Redis defragmentation experiment across backends.
pub struct RedisSection {
    /// `"fig9"` or `"fig11"`.
    pub harness: &'static str,
    /// The `maxmemory` policy, in bytes.
    pub maxmemory: u64,
    /// Simulated duration, in milliseconds.
    pub duration_ms: u64,
    /// One result per backend.
    pub results: Vec<RedisExperimentResult>,
}

const MIB: f64 = 1024.0 * 1024.0;

impl ManifestSection for RedisSection {
    fn harness(&self) -> &'static str {
        self.harness
    }

    fn config(&self) -> JsonValue {
        object([
            ("maxmemory", JsonValue::U64(self.maxmemory)),
            ("duration_ms", JsonValue::U64(self.duration_ms)),
        ])
    }

    fn rows(&self) -> JsonValue {
        self.results.to_json()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for r in &self.results {
            out.push((format!("steady_mb.{}", r.backend), r.steady_rss as f64 / MIB));
            out.push((format!("peak_mb.{}", r.backend), r.peak_rss as f64 / MIB));
            out.push((format!("passes.{}", r.backend), r.passes as f64));
            out.push((format!("evictions.{}", r.backend), r.evictions as f64));
        }
        if let Some(baseline) = self.results.iter().find(|r| r.backend == "baseline") {
            for r in self.results.iter().filter(|r| r.backend != "baseline") {
                out.push((
                    format!("savings_pct.{}", r.backend),
                    savings_vs_baseline(r, baseline) * 100.0,
                ));
            }
        }
        out
    }
}

/// Figure 10: the control-parameter sweep's envelope.
pub struct ControlEnvelopeSection {
    /// `(set index, parameters, result)` per configuration.
    pub curves: Vec<(usize, ControlParams, RedisExperimentResult)>,
}

impl ManifestSection for ControlEnvelopeSection {
    fn harness(&self) -> &'static str {
        "fig10"
    }

    fn config(&self) -> JsonValue {
        object([("param_sets", JsonValue::U64(self.curves.len() as u64))])
    }

    fn rows(&self) -> JsonValue {
        JsonValue::Array(
            self.curves
                .iter()
                .map(|(i, p, r)| {
                    object([
                        ("set", JsonValue::U64(*i as u64)),
                        ("frag_low", JsonValue::F64(p.frag_low)),
                        ("frag_high", JsonValue::F64(p.frag_high)),
                        ("overhead_high", JsonValue::F64(p.overhead_high)),
                        ("alpha", JsonValue::F64(p.alpha)),
                        ("steady_mb", JsonValue::F64(r.steady_rss as f64 / MIB)),
                        ("peak_mb", JsonValue::F64(r.peak_rss as f64 / MIB)),
                        ("passes", JsonValue::U64(r.passes)),
                    ])
                })
                .collect(),
        )
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let steadies: Vec<f64> =
            self.curves.iter().map(|(_, _, r)| r.steady_rss as f64 / MIB).collect();
        let lo = steadies.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = steadies.iter().cloned().fold(0.0f64, f64::max);
        let passes: u64 = self.curves.iter().map(|(_, _, r)| r.passes).sum();
        vec![
            ("steady_mb.envelope_lo".to_string(), lo),
            ("steady_mb.envelope_hi".to_string(), hi),
            ("passes.total".to_string(), passes as f64),
        ]
    }
}

/// Figure 12: memcached request latency under periodic stop-the-world pauses.
pub struct PauseSection {
    /// Wall-clock duration per configuration, in milliseconds.
    pub duration_ms: u64,
    /// One result per `(threads, pause interval)` configuration.
    pub results: Vec<PauseExperimentResult>,
}

impl ManifestSection for PauseSection {
    fn harness(&self) -> &'static str {
        "fig12"
    }

    fn config(&self) -> JsonValue {
        object([("duration_ms", JsonValue::U64(self.duration_ms))])
    }

    fn rows(&self) -> JsonValue {
        self.results.to_json()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for r in &self.results {
            let key = format!("t{}.i{}", r.threads, r.pause_interval_ms);
            out.push((format!("mean_us.{key}"), r.mean_us));
            out.push((format!("p99_us.{key}"), r.p99_us));
            if r.pause_interval_ms > 0 {
                out.push((format!("p99_pause_us.{key}"), r.p99_pause_us));
            }
        }
        out
    }
}

/// §5.2 code-size study rows.
pub struct CodesizeSection {
    /// Scale factor the study ran at.
    pub scale: f64,
    /// `(benchmark, growth factor, static translations, static safepoints)`.
    pub rows: Vec<(String, f64, u64, u64)>,
}

impl ManifestSection for CodesizeSection {
    fn harness(&self) -> &'static str {
        "table_codesize"
    }

    fn config(&self) -> JsonValue {
        object([("scale", JsonValue::F64(self.scale))])
    }

    fn rows(&self) -> JsonValue {
        self.rows.to_json()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .rows
            .iter()
            .map(|(name, growth, _, _)| (format!("growth_x.{name}"), *growth))
            .collect();
        let factors: Vec<f64> = self.rows.iter().map(|(_, g, _, _)| *g).collect();
        if !factors.is_empty() {
            let geomean =
                (factors.iter().map(|f| f.ln()).sum::<f64>() / factors.len() as f64).exp();
            out.push(("geomean_growth_x".to_string(), geomean));
            out.push(("worst_growth_x".to_string(), factors.iter().cloned().fold(0.0, f64::max)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_objects_have_the_manifest_shape() {
        let section = CodesizeSection {
            scale: 0.2,
            rows: vec![("mcf".to_string(), 1.5, 100, 10), ("xz".to_string(), 2.0, 50, 5)],
        };
        let json = section.to_section();
        assert!(json.get("config").is_some());
        assert!(json.get("rows").is_some());
        let metrics = json.get("metrics").unwrap();
        assert_eq!(metrics.get("growth_x.mcf").unwrap().as_f64(), Some(1.5));
        let geomean = metrics.get("geomean_growth_x").unwrap().as_f64().unwrap();
        assert!((geomean - (1.5f64 * 2.0).sqrt()).abs() < 1e-9);
        assert_eq!(metrics.get("worst_growth_x").unwrap().as_f64(), Some(2.0));
    }
}
