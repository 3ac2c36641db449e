//! CI-sized drivers for the seven harnesses plus the telemetry smoke run.
//!
//! `benchctl run` executes the same experiment code the standalone
//! `benches/` binaries use, but with manifest-friendly defaults: every
//! harness finishes in seconds rather than the tens of seconds the
//! publication-sized figures take, and the knobs used are recorded in each
//! section's `config` so two manifests are only ever compared when they were
//! produced the same way.  `--scale` multiplies the work of every harness
//! (1.0 = CI-sized, 4.0 ≈ figure-sized).

use alaska::ControlParams;
use alaska_bench::memcached::{run_pause_experiment, PauseExperimentConfig};
use alaska_bench::redis::{run_redis_experiment, Backend, RedisExperimentConfig, ValueSizing};
use alaska_bench::sections::{
    AblationSection, CodesizeSection, ControlEnvelopeSection, OverheadSection, PauseSection,
    RedisSection,
};
use alaska_bench::ManifestSection;
use alaska_benchsuite::harness::{run_ablation_study, run_codesize_study, run_overhead_study};
use alaska_benchsuite::Scale;
use alaska_telemetry::json::JsonValue;
use alaska_telemetry::Telemetry;
use std::sync::Arc;

/// The seven harnesses a manifest can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harness {
    /// Figure 7: per-benchmark translation/tracking overhead.
    Fig7,
    /// Figure 8: optimisation ablation.
    Fig8,
    /// Figure 9: Redis defragmentation across backends.
    Fig9,
    /// Figure 10: control-parameter envelope.
    Fig10,
    /// Figure 11: large-workload Redis defragmentation.
    Fig11,
    /// Figure 12: memcached latency under pauses.
    Fig12,
    /// §5.2 static code-size growth.
    TableCodesize,
}

impl Harness {
    /// Every harness, in manifest order.
    pub const ALL: [Harness; 7] = [
        Harness::Fig7,
        Harness::Fig8,
        Harness::Fig9,
        Harness::Fig10,
        Harness::Fig11,
        Harness::Fig12,
        Harness::TableCodesize,
    ];

    /// Stable name, equal to the section key the harness writes.
    pub fn name(&self) -> &'static str {
        match self {
            Harness::Fig7 => "fig7",
            Harness::Fig8 => "fig8",
            Harness::Fig9 => "fig9",
            Harness::Fig10 => "fig10",
            Harness::Fig11 => "fig11",
            Harness::Fig12 => "fig12",
            Harness::TableCodesize => "table_codesize",
        }
    }

    /// Parse a harness name as given on the command line.
    pub fn from_name(name: &str) -> Option<Harness> {
        Harness::ALL.into_iter().find(|h| h.name() == name)
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Run one harness at `scale` (1.0 = CI-sized defaults) and return its
/// manifest section.
pub fn run_harness(harness: Harness, scale: f64) -> Box<dyn ManifestSection> {
    match harness {
        Harness::Fig7 => {
            let s = 0.5 * scale;
            Box::new(OverheadSection { scale: s, results: run_overhead_study(Scale(s)) })
        }
        Harness::Fig8 => {
            let s = 0.5 * scale;
            Box::new(AblationSection { scale: s, results: run_ablation_study(Scale(s)) })
        }
        Harness::Fig9 => {
            let cfg = RedisExperimentConfig {
                maxmemory: (32.0 * MIB * scale) as u64,
                duration_ms: 4_000,
                sample_interval_ms: 200,
                control: ControlParams::default(),
                ..Default::default()
            }
            .with_fill_factor(2.5);
            let results = Backend::all()
                .into_iter()
                .map(|backend| run_redis_experiment(backend, &cfg))
                .collect();
            Box::new(RedisSection {
                harness: "fig9",
                maxmemory: cfg.maxmemory,
                duration_ms: cfg.duration_ms,
                results,
            })
        }
        Harness::Fig10 => {
            let base_cfg = RedisExperimentConfig {
                maxmemory: (8.0 * MIB * scale) as u64,
                duration_ms: 3_000,
                sample_interval_ms: 250,
                ..Default::default()
            }
            .with_fill_factor(2.5);
            // The corners plus the default: aggressive, default, conservative
            // bounds crossed with low/high aggression (the full figure sweeps
            // 18 sets; the manifest needs the envelope, not every curve).
            let mut curves = Vec::new();
            for (f_lb, f_ub) in [(1.05, 1.2), (1.2, 1.5), (1.8, 2.5)] {
                for (o_ub, alpha) in [(0.02, 0.05), (0.10, 0.75)] {
                    let params = ControlParams {
                        frag_low: f_lb,
                        frag_high: f_ub,
                        overhead_low: o_ub / 5.0,
                        overhead_high: o_ub,
                        alpha,
                        ..Default::default()
                    };
                    let cfg = RedisExperimentConfig { control: params, ..base_cfg };
                    let r = run_redis_experiment(Backend::Anchorage, &cfg);
                    curves.push((curves.len(), params, r));
                }
            }
            Box::new(ControlEnvelopeSection { curves })
        }
        Harness::Fig11 => {
            let cfg = RedisExperimentConfig {
                maxmemory: (32.0 * MIB * scale) as u64,
                duration_ms: 8_000,
                sample_interval_ms: 500,
                sizing: ValueSizing::Fixed(500),
                control: ControlParams { overhead_high: 0.05, alpha: 0.10, ..Default::default() },
                ..Default::default()
            }
            .with_fill_factor(2.5);
            let results = Backend::all()
                .into_iter()
                .map(|backend| run_redis_experiment(backend, &cfg))
                .collect();
            Box::new(RedisSection {
                harness: "fig11",
                maxmemory: cfg.maxmemory,
                duration_ms: cfg.duration_ms,
                results,
            })
        }
        Harness::Fig12 => {
            let duration_ms = (100.0 * scale) as u64;
            let mut results = Vec::new();
            for threads in [1usize, 4] {
                for interval in [None, Some(100u64), Some(500)] {
                    let cfg = PauseExperimentConfig {
                        threads,
                        pause_interval_ms: interval,
                        duration_ms,
                        record_count: 20_000,
                        value_size: 128,
                        move_budget_bytes: 1 << 20,
                    };
                    results.push(run_pause_experiment(&cfg));
                }
            }
            Box::new(PauseSection { duration_ms, results })
        }
        Harness::TableCodesize => {
            let s = 0.2 * scale;
            let rows = run_codesize_study(Scale(s))
                .into_iter()
                .map(|(name, report)| {
                    (
                        name,
                        report.code_growth(),
                        report.total_translations() as u64,
                        report.total_safepoints() as u64,
                    )
                })
                .collect();
            Box::new(CodesizeSection { scale: s, rows })
        }
    }
}

/// Run a short instrumented workload (allocate, translate, defragment under
/// an installed telemetry hub, publish runtime stats) and return the
/// registry snapshot embedded in the manifest's `telemetry` field.
pub fn telemetry_snapshot() -> JsonValue {
    use alaska::AlaskaBuilder;
    let hub = Arc::new(Telemetry::new());
    let rt = AlaskaBuilder::new().with_anchorage().with_telemetry(hub.clone()).build();
    let handles: Vec<u64> = (0..4_096).map(|_| rt.halloc(128).expect("halloc")).collect();
    for (i, h) in handles.iter().enumerate() {
        if i % 2 == 0 {
            rt.hfree(*h).expect("hfree");
        } else {
            std::hint::black_box(rt.translate(*h).expect("translate"));
        }
    }
    rt.defragment(Some(1 << 20));
    rt.publish_telemetry();
    hub.registry().snapshot().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_names_round_trip() {
        for h in Harness::ALL {
            assert_eq!(Harness::from_name(h.name()), Some(h));
        }
        assert_eq!(Harness::from_name("fig99"), None);
    }

    #[test]
    fn telemetry_snapshot_contains_runtime_metrics() {
        let snap = telemetry_snapshot();
        let rendered = snap.render();
        assert!(rendered.contains("alaska_barrier_pause_ns"));
        assert!(rendered.contains("alaska_translations"));
        assert!(rendered.contains("anchorage_subheaps"));
    }

    #[test]
    fn tiny_harness_runs_produce_gating_metrics() {
        // The cheapest harness: enough to prove run_harness → section →
        // metrics end to end without slowing tests.
        let section = run_harness(Harness::TableCodesize, 1.0);
        assert_eq!(section.harness(), "table_codesize");
        assert!(section.metrics().iter().any(|(k, _)| k == "geomean_growth_x"));
    }

    #[test]
    fn baseline_sections_match_the_harness_list() {
        // A harness added or deleted without its BENCH_BASELINE.json section
        // would otherwise only fail the `compare` gate.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
        let baseline = crate::RunManifest::load(std::path::Path::new(path))
            .expect("BENCH_BASELINE.json parses");
        let mut sections: Vec<&str> = baseline.sections.iter().map(|(k, _)| k.as_str()).collect();
        let mut harnesses: Vec<&str> = Harness::ALL.iter().map(|h| h.name()).collect();
        sections.sort_unstable();
        harnesses.sort_unstable();
        assert_eq!(sections, harnesses);
    }
}
