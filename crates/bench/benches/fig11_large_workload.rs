//! Figure 11: the large-memory variant of the Redis defragmentation
//! experiment.  The paper uses a 50 GiB `maxmemory` policy and inserts
//! 100 GiB in 500-byte values over ~2000 s; this reproduction runs the same
//! experiment scaled down (default 192 MiB policy) over the same relative
//! horizon — set `ALASKA_FIG11_SCALE` to raise the absolute size.  The shape
//! the paper highlights (the control algorithm's mispredicted first pass,
//! back-off to honour the overhead bound, and a long slow defragmentation
//! tail that still reaches activedefrag-like steady state) is preserved
//! because the control algorithm works in ratios, not absolute bytes.

use alaska::ControlParams;
use alaska_bench::env_scale;
use alaska_bench::redis::{
    run_redis_experiment, savings_vs_baseline, Backend, RedisExperimentConfig, ValueSizing,
};

fn main() {
    let scale = env_scale("ALASKA_FIG11_SCALE", 1.0);
    let cfg = RedisExperimentConfig {
        maxmemory: (96.0 * 1024.0 * 1024.0 * scale) as u64,
        duration_ms: 20_000, // 2000 s at 10 ms per simulated "second"
        sample_interval_ms: 500,
        sizing: ValueSizing::Fixed(500),
        control: ControlParams {
            overhead_high: 0.05, // the 5% bound the paper configures
            alpha: 0.10,
            ..Default::default()
        },
        ..Default::default()
    }
    .with_fill_factor(2.5);
    eprintln!(
        "# Figure 11: large workload, maxmemory {} MiB, 500-byte values",
        cfg.maxmemory / (1024 * 1024)
    );

    let mut results = Vec::new();
    for backend in Backend::all() {
        eprintln!("running {} ...", backend.label());
        results.push(run_redis_experiment(backend, &cfg));
    }

    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "t", "anchorage_MB", "baseline_MB", "mesh_MB", "activedefrag_MB"
    );
    let len = results[0].series.len();
    for i in (0..len).step_by(2) {
        let t = results[0].series[i].t_ms;
        let mb = |r: &alaska_bench::redis::RedisExperimentResult| {
            r.series.get(i).map(|s| s.rss_bytes as f64 / (1024.0 * 1024.0)).unwrap_or(f64::NAN)
        };
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            t,
            mb(&results[0]),
            mb(&results[1]),
            mb(&results[2]),
            mb(&results[3])
        );
    }

    println!();
    println!("{:<14} {:>12} {:>12} {:>8}", "backend", "peak_MB", "steady_MB", "passes");
    for r in &results {
        println!(
            "{:<14} {:>12.1} {:>12.1} {:>8}",
            r.backend,
            r.peak_rss as f64 / (1024.0 * 1024.0),
            r.steady_rss as f64 / (1024.0 * 1024.0),
            r.passes
        );
    }
    let baseline = results.iter().find(|r| r.backend == "baseline").unwrap();
    let anchorage = results.iter().find(|r| r.backend == "anchorage").unwrap();
    println!();
    println!(
        "Anchorage defragments the large heap over a longer horizon (bounded by its 5% overhead \
         budget) and reaches {:.0}% below the baseline's steady RSS.",
        savings_vs_baseline(anchorage, baseline) * 100.0
    );
}
