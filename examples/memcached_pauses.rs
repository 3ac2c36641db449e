//! A miniature of the Figure 12 experiment: multithreaded workers hammer a
//! memcached-like handle-backed store while the main thread periodically stops
//! the world and relocates objects.  Per-request latency is reported with and
//! without pauses, and the stop-the-world pauses themselves are measured by
//! the telemetry registry — the percentile table at the end is read straight
//! out of the `alaska_barrier_pause_ns` histogram.
//!
//! Run with: `cargo run --example memcached_pauses --release`

use alaska_bench::memcached::{run_pause_experiment, PauseExperimentConfig};

fn main() {
    println!("request latency (application side):");
    println!("{:>8} {:>12} {:>10} {:>10}", "threads", "pauses", "mean_us", "p99_us");
    let mut paused = Vec::new();
    for threads in [2usize, 4] {
        for pause_interval_ms in [None, Some(20u64), Some(100)] {
            let r = run_pause_experiment(&PauseExperimentConfig {
                threads,
                pause_interval_ms,
                duration_ms: 300,
                record_count: 10_000,
                ..Default::default()
            });
            let label = pause_interval_ms.map_or("none".to_string(), |ms| format!("{ms} ms"));
            println!("{threads:>8} {label:>12} {:>10.1} {:>10.1}", r.mean_us, r.p99_us);
            if pause_interval_ms.is_some() {
                paused.push(r);
            }
        }
    }

    println!();
    println!("stop-the-world pauses (from the telemetry registry, `alaska_barrier_pause_ns`):");
    println!(
        "{:>12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "run", "count", "p50_us", "p90_us", "p99_us", "max_us"
    );
    for r in &paused {
        println!(
            "{:>12} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            format!("{}t/{}ms", r.threads, r.pause_interval_ms),
            r.pauses,
            r.p50_pause_us,
            r.p90_pause_us,
            r.p99_pause_us,
            r.max_pause_us
        );
    }
    println!();
    println!(
        "Shorter pause intervals raise tail latency; longer intervals approach the no-pause line."
    );
}
