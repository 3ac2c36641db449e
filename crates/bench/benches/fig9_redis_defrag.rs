//! Figures 1 and 9: RSS over time of the Redis-like store under an LRU churn
//! with a 100 MiB `maxmemory` policy, comparing Anchorage, the non-moving
//! baseline, Mesh and activedefrag.  The Figure 1 headline (memory saved by
//! Anchorage vs the baseline) is printed at the end.

use alaska::ControlParams;
use alaska_bench::env_scale;
use alaska_bench::redis::{
    run_redis_experiment, savings_vs_baseline, Backend, RedisExperimentConfig,
};

fn main() {
    let scale = env_scale("ALASKA_FIG9_SCALE", 1.0);
    let cfg = RedisExperimentConfig {
        maxmemory: (100.0 * 1024.0 * 1024.0 * scale) as u64,
        duration_ms: 10_000,
        sample_interval_ms: 200,
        // Default control parameters (F ∈ [1.2, 1.5], O_ub = 5%, α = 0.25);
        // Figure 10 explores the rest of the envelope.
        control: ControlParams::default(),
        ..Default::default()
    }
    .with_fill_factor(2.5);
    eprintln!(
        "# Figure 9: Redis defragmentation, maxmemory {} MiB, 10 s simulated",
        cfg.maxmemory / (1024 * 1024)
    );

    let mut results = Vec::new();
    for backend in Backend::all() {
        eprintln!("running {} ...", backend.label());
        results.push(run_redis_experiment(backend, &cfg));
    }

    // The series, one column per backend (MB), mirroring the figure.
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "t_s", "anchorage_MB", "baseline_MB", "mesh_MB", "activedefrag_MB"
    );
    let len = results[0].series.len();
    for i in 0..len {
        let t = results[0].series[i].t_ms as f64 / 1000.0;
        let mb = |r: &alaska_bench::redis::RedisExperimentResult| {
            r.series.get(i).map(|s| s.rss_bytes as f64 / (1024.0 * 1024.0)).unwrap_or(f64::NAN)
        };
        println!(
            "{:>8.1} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            t,
            mb(&results[0]),
            mb(&results[1]),
            mb(&results[2]),
            mb(&results[3])
        );
    }

    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10}",
        "backend", "peak_MB", "steady_MB", "passes", "evictions"
    );
    for r in &results {
        println!(
            "{:<14} {:>12.1} {:>12.1} {:>10} {:>10}",
            r.backend,
            r.peak_rss as f64 / (1024.0 * 1024.0),
            r.steady_rss as f64 / (1024.0 * 1024.0),
            r.passes,
            r.evictions
        );
    }

    let baseline = results.iter().find(|r| r.backend == "baseline").unwrap();
    let anchorage = results.iter().find(|r| r.backend == "anchorage").unwrap();
    let activedefrag = results.iter().find(|r| r.backend == "activedefrag").unwrap();
    println!();
    println!(
        "Figure 1 headline: Anchorage saves {:.0}% of steady-state RSS vs the baseline \
         (paper: up to 40%); activedefrag saves {:.0}% (paper: on par with Anchorage).",
        savings_vs_baseline(anchorage, baseline) * 100.0,
        savings_vs_baseline(activedefrag, baseline) * 100.0
    );
}
