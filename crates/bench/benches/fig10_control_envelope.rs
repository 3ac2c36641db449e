//! Figure 10: the envelope of control — sweeping Anchorage's control
//! parameters ([F_lb, F_ub], [O_lb, O_ub], α) produces a wide range of
//! RSS-over-time behaviours, bounded below by aggressive configurations and
//! above by conservative ones.

use alaska::ControlParams;
use alaska_bench::env_scale;
use alaska_bench::redis::{run_redis_experiment, Backend, RedisExperimentConfig};

fn main() {
    let scale = env_scale("ALASKA_FIG10_SCALE", 1.0);
    let base_cfg = RedisExperimentConfig {
        maxmemory: (12.0 * 1024.0 * 1024.0 * scale) as u64,
        duration_ms: 10_000,
        sample_interval_ms: 250,
        ..Default::default()
    }
    .with_fill_factor(2.5);
    eprintln!("# Figure 10: Anchorage control-parameter sweep");

    // The sweep: fragmentation bounds x overhead bounds x aggression.
    let mut param_sets = Vec::new();
    for (f_lb, f_ub) in [(1.05, 1.2), (1.2, 1.5), (1.8, 2.5)] {
        for o_ub in [0.02, 0.10] {
            for alpha in [0.05, 0.25, 0.75] {
                param_sets.push(ControlParams {
                    frag_low: f_lb,
                    frag_high: f_ub,
                    overhead_low: o_ub / 5.0,
                    overhead_high: o_ub,
                    alpha,
                    ..Default::default()
                });
            }
        }
    }
    eprintln!("{} parameter sets", param_sets.len());

    let mut curves = Vec::new();
    for (i, params) in param_sets.iter().enumerate() {
        let cfg = RedisExperimentConfig { control: *params, ..base_cfg };
        let r = run_redis_experiment(Backend::Anchorage, &cfg);
        curves.push((i, *params, r));
    }

    // Print the envelope (min and max RSS across all configurations at each
    // sample) plus a summary row per configuration.
    println!("{:>8} {:>14} {:>14}", "t_s", "envelope_lo_MB", "envelope_hi_MB");
    let len = curves[0].2.series.len();
    for s in 0..len {
        let t = curves[0].2.series[s].t_ms as f64 / 1000.0;
        let vals: Vec<f64> = curves
            .iter()
            .filter_map(|(_, _, r)| r.series.get(s).map(|p| p.rss_bytes as f64 / (1024.0 * 1024.0)))
            .collect();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0f64, f64::max);
        println!("{:>8.1} {:>14.1} {:>14.1}", t, lo, hi);
    }

    println!();
    println!(
        "{:>4} {:>6} {:>6} {:>6} {:>6} {:>12} {:>12} {:>8}",
        "set", "F_lb", "F_ub", "O_ub", "alpha", "steady_MB", "peak_MB", "passes"
    );
    for (i, params, r) in &curves {
        println!(
            "{:>4} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>12.1} {:>12.1} {:>8}",
            i,
            params.frag_low,
            params.frag_high,
            params.overhead_high,
            params.alpha,
            r.steady_rss as f64 / (1024.0 * 1024.0),
            r.peak_rss as f64 / (1024.0 * 1024.0),
            r.passes
        );
    }

    let steadies: Vec<f64> =
        curves.iter().map(|(_, _, r)| r.steady_rss as f64 / (1024.0 * 1024.0)).collect();
    let lo = steadies.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = steadies.iter().cloned().fold(0.0f64, f64::max);
    println!();
    println!(
        "Envelope of control: steady-state RSS ranges from {lo:.1} MB (aggressive) to {hi:.1} MB \
         (conservative) — the operator-visible tradeoff between overhead and fragmentation."
    );
}
