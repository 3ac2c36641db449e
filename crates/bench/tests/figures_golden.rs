//! Golden values of the deterministic figures: fig7–fig11 and the §5.2
//! code-size table, each run at CI size.
//!
//! Every metric these harnesses report comes from modelled cycles, static
//! code counts or a simulated clock, so it is bit-identical across runs,
//! build profiles and thread interleavings.  `figures_golden.txt` holds one
//! `<harness>.<metric> <value>` line per metric, each f64 printed with
//! `{:?}` so it round-trips exactly.  Any change to a cost model, a compiler
//! pass, the simulated heap or the control algorithm shows up as a
//! mismatching line; a change that is meant shows up as a reviewed diff of
//! the `.txt`.
//!
//! Fig12 is absent on purpose: it measures wall-clock latency, so its tests
//! in `src/memcached.rs` assert invariants instead of values.

use alaska::ControlParams;
use alaska_bench::redis::{
    run_redis_experiment, savings_vs_baseline, Backend, RedisExperimentConfig,
    RedisExperimentResult, ValueSizing,
};
use alaska_benchsuite::harness::{
    geomean_overhead_pct, run_ablation_study, run_codesize_study, run_overhead_study,
    BenchmarkResult,
};
use alaska_benchsuite::Scale;

const MIB: f64 = 1024.0 * 1024.0;

/// Compare one harness's metrics against its lines of `figures_golden.txt`.
fn check(harness: &str, metrics: Vec<(String, f64)>) {
    let prefix = format!("{harness}.");
    let expected: Vec<&str> =
        include_str!("figures_golden.txt").lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual: Vec<String> =
        metrics.iter().map(|(name, value)| format!("{harness}.{name} {value:?}")).collect();
    let mismatches: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|&(i, line)| expected.get(i) != Some(&line.as_str()))
        .map(|(i, line)| format!("expected {}\n  actual {line}", expected.get(i).unwrap_or(&"-")))
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} {harness} metrics differ from figures_golden.txt ({} recorded):\n{}\n\
         every line as it is now:\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}

/// Steady and peak RSS, passes and evictions per backend, plus each
/// backend's steady-state savings against the baseline.
fn redis_metrics(results: &[RedisExperimentResult]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for r in results {
        out.push((format!("steady_mb.{}", r.backend), r.steady_rss as f64 / MIB));
        out.push((format!("peak_mb.{}", r.backend), r.peak_rss as f64 / MIB));
        out.push((format!("passes.{}", r.backend), r.passes as f64));
        out.push((format!("evictions.{}", r.backend), r.evictions as f64));
    }
    let baseline = results.iter().find(|r| r.backend == "baseline").expect("baseline ran");
    for r in results.iter().filter(|r| r.backend != "baseline") {
        out.push((format!("savings_pct.{}", r.backend), savings_vs_baseline(r, baseline) * 100.0));
    }
    out
}

fn run_all_backends(cfg: &RedisExperimentConfig) -> Vec<RedisExperimentResult> {
    Backend::all().into_iter().map(|backend| run_redis_experiment(backend, cfg)).collect()
}

#[test]
fn fig7_overhead() {
    let results = run_overhead_study(Scale(0.5));
    let mut metrics: Vec<(String, f64)> = results
        .iter()
        .map(|r| (format!("overhead_pct.{}", r.name), r.alaska_overhead_pct()))
        .collect();
    metrics.push(("geomean_overhead_pct".to_string(), geomean_overhead_pct(&results, "alaska")));
    let no_violators: Vec<BenchmarkResult> =
        results.into_iter().filter(|r| r.name != "perlbench" && r.name != "gcc").collect();
    metrics.push((
        "geomean_overhead_pct_no_violators".to_string(),
        geomean_overhead_pct(&no_violators, "alaska"),
    ));
    check("fig7", metrics);
}

#[test]
fn fig8_ablation() {
    let mut metrics = Vec::new();
    for r in &run_ablation_study(Scale(0.5)) {
        for config in ["alaska", "notracking", "nohoisting"] {
            let overhead = r.config(config).map(|c| c.overhead_pct).unwrap_or(0.0);
            metrics.push((format!("overhead_pct.{config}.{}", r.name), overhead));
        }
    }
    check("fig8", metrics);
}

#[test]
fn fig9_redis_defrag() {
    let cfg = RedisExperimentConfig {
        maxmemory: (32.0 * MIB) as u64,
        duration_ms: 4_000,
        sample_interval_ms: 200,
        control: ControlParams::default(),
        ..Default::default()
    }
    .with_fill_factor(2.5);
    check("fig9", redis_metrics(&run_all_backends(&cfg)));
}

/// The corners plus the default of the control envelope: aggressive, default
/// and conservative fragmentation bounds crossed with low and high
/// aggression (the full figure sweeps 18 sets).
#[test]
fn fig10_control_envelope() {
    let base_cfg = RedisExperimentConfig {
        maxmemory: (8.0 * MIB) as u64,
        duration_ms: 3_000,
        sample_interval_ms: 250,
        ..Default::default()
    }
    .with_fill_factor(2.5);
    let mut steadies = Vec::new();
    let mut passes = 0u64;
    for (frag_low, frag_high) in [(1.05, 1.2), (1.2, 1.5), (1.8, 2.5)] {
        for (o_ub, alpha) in [(0.02, 0.05), (0.10, 0.75)] {
            let control = ControlParams {
                frag_low,
                frag_high,
                overhead_low: o_ub / 5.0,
                overhead_high: o_ub,
                alpha,
                ..Default::default()
            };
            let r = run_redis_experiment(
                Backend::Anchorage,
                &RedisExperimentConfig { control, ..base_cfg },
            );
            steadies.push(r.steady_rss as f64 / MIB);
            passes += r.passes;
        }
    }
    let lo = steadies.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = steadies.iter().cloned().fold(0.0f64, f64::max);
    check(
        "fig10",
        vec![
            ("steady_mb.envelope_lo".to_string(), lo),
            ("steady_mb.envelope_hi".to_string(), hi),
            ("passes.total".to_string(), passes as f64),
        ],
    );
}

#[test]
fn fig11_large_workload() {
    let cfg = RedisExperimentConfig {
        maxmemory: (32.0 * MIB) as u64,
        duration_ms: 8_000,
        sample_interval_ms: 500,
        sizing: ValueSizing::Fixed(500),
        control: ControlParams { overhead_high: 0.05, alpha: 0.10, ..Default::default() },
        ..Default::default()
    }
    .with_fill_factor(2.5);
    check("fig11", redis_metrics(&run_all_backends(&cfg)));
}

#[test]
fn table_codesize() {
    let rows: Vec<(String, f64)> = run_codesize_study(Scale(0.2))
        .into_iter()
        .map(|(name, report)| (name, report.code_growth()))
        .collect();
    let mut metrics: Vec<(String, f64)> =
        rows.iter().map(|(name, growth)| (format!("growth_x.{name}"), *growth)).collect();
    let geomean = (rows.iter().map(|(_, g)| g.ln()).sum::<f64>() / rows.len() as f64).exp();
    metrics.push(("geomean_growth_x".to_string(), geomean));
    metrics.push(("worst_growth_x".to_string(), rows.iter().map(|(_, g)| *g).fold(0.0, f64::max)));
    check("table_codesize", metrics);
}
