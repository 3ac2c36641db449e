//! Figure 12: request latency of the memcached-like store as a function of the
//! stop-the-world pause interval, for several worker-thread counts.  ~1 MiB is
//! relocated at every pause regardless of fragmentation, as in the paper's
//! synthetic setup.

use alaska_bench::env_scale;
use alaska_bench::memcached::{run_pause_experiment, PauseExperimentConfig, PauseExperimentResult};

fn main() {
    let duration_ms = env_scale("ALASKA_FIG12_DURATION_MS", 300.0) as u64;
    let threads_list = [1usize, 2, 4, 8, 16];
    let intervals_ms = [50u64, 100, 200, 500, 1000];
    eprintln!(
        "# Figure 12: memcached pause study ({duration_ms} ms per configuration, {} configs)",
        threads_list.len() * (intervals_ms.len() + 1)
    );

    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>8} {:>12}",
        "threads", "interval_ms", "mean_us", "p99_us", "pauses", "ops"
    );
    let mut all: Vec<PauseExperimentResult> = Vec::new();
    for &threads in &threads_list {
        // No-pause reference first (the "baseline" series).
        for interval in std::iter::once(None).chain(intervals_ms.iter().map(|&i| Some(i))) {
            let cfg = PauseExperimentConfig {
                threads,
                pause_interval_ms: interval,
                duration_ms,
                record_count: 20_000,
                value_size: 128,
                move_budget_bytes: 1 << 20,
            };
            let r = run_pause_experiment(&cfg);
            println!(
                "{:>8} {:>12} {:>10.1} {:>10.1} {:>8} {:>12}",
                r.threads,
                if r.pause_interval_ms == 0 {
                    "none".to_string()
                } else {
                    r.pause_interval_ms.to_string()
                },
                r.mean_us,
                r.p99_us,
                r.pauses,
                r.operations
            );
            all.push(r);
        }
    }

    // The pauses themselves, as measured by the runtime's telemetry registry
    // (`alaska_barrier_pause_ns`), not by the harness's stopwatch.
    println!();
    println!("stop-the-world pause percentiles (telemetry registry):");
    println!(
        "{:>8} {:>12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "threads", "interval_ms", "pauses", "mean_us", "p50_us", "p99_us", "max_us"
    );
    for r in all.iter().filter(|r| r.pause_interval_ms > 0) {
        println!(
            "{:>8} {:>12} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            r.threads,
            r.pause_interval_ms,
            r.pauses,
            r.mean_pause_us,
            r.p50_pause_us,
            r.p99_pause_us,
            r.max_pause_us
        );
    }

    // Summary: how much do short pause intervals raise mean latency over the
    // no-pause reference, per thread count?
    println!();
    for &threads in &threads_list {
        let rows: Vec<&PauseExperimentResult> =
            all.iter().filter(|r| r.threads == threads).collect();
        let no_pause = rows.iter().find(|r| r.pause_interval_ms == 0).unwrap();
        let shortest = rows
            .iter()
            .filter(|r| r.pause_interval_ms > 0)
            .min_by_key(|r| r.pause_interval_ms)
            .unwrap();
        let longest = rows.iter().max_by_key(|r| r.pause_interval_ms).unwrap();
        println!(
            "threads {:>2}: no-pause {:.1} us, {} ms interval {:.1} us ({:+.0}%), {} ms interval {:.1} us ({:+.0}%)",
            threads,
            no_pause.mean_us,
            shortest.pause_interval_ms,
            shortest.mean_us,
            (shortest.mean_us / no_pause.mean_us - 1.0) * 100.0,
            longest.pause_interval_ms,
            longest.mean_us,
            (longest.mean_us / no_pause.mean_us - 1.0) * 100.0,
        );
    }
    println!();
    println!(
        "Paper shape: short pause intervals raise average latency (~10% including impractical \
         intervals, <7% above 500 ms), and there is no systematic trend with thread count."
    );
}
