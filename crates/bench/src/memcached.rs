//! The memcached pause-time experiment behind Figure 12.
//!
//! Worker threads issue closed-loop YCSB-A requests against a
//! [`ShardedStore`] whose values live behind Alaska handles; a control thread
//! stops the world every `pause_interval_ms` and relocates about 1 MiB of
//! objects, regardless of fragmentation (the paper's synthetic setup).  The
//! workers record per-request latency; the figure plots mean latency against
//! the pause interval for different thread counts.
//!
//! The request stream is YCSB workload A and nothing more: zipfian key
//! popularity (θ = 0.99) with an even read/update mix, drawn by `YcsbA`
//! from a per-worker xorshift so each worker's stream is reproducible.

use crate::value_bytes;
use alaska::runtime::telemetry_names;
use alaska::{AlaskaBuilder, Telemetry};
use alaska_kvstore::ShardedStore;
use alaska_telemetry::json::{object, JsonValue, ToJson};
use alaska_telemetry::{Histogram, MetricValue};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one pause-experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct PauseExperimentConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Interval between stop-the-world pauses, in milliseconds.  `None`
    /// disables pauses entirely (the no-pause reference).
    pub pause_interval_ms: Option<u64>,
    /// Wall-clock duration of the measurement, in milliseconds.
    pub duration_ms: u64,
    /// Number of records preloaded into the store.
    pub record_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Bytes relocated per pause (~1 MiB in the paper).
    pub move_budget_bytes: u64,
}

impl Default for PauseExperimentConfig {
    fn default() -> Self {
        PauseExperimentConfig {
            threads: 4,
            pause_interval_ms: Some(200),
            duration_ms: 400,
            record_count: 20_000,
            value_size: 128,
            move_budget_bytes: 1 << 20,
        }
    }
}

/// Result of one configuration.
#[derive(Debug, Clone)]
pub struct PauseExperimentResult {
    /// Worker thread count.
    pub threads: usize,
    /// Pause interval in milliseconds (0 = no pauses).
    pub pause_interval_ms: u64,
    /// Requests completed.
    pub operations: u64,
    /// Mean request latency in microseconds.
    pub mean_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Stop-the-world pauses executed.
    pub pauses: u64,
    /// Mean pause duration in microseconds.
    pub mean_pause_us: f64,
    /// Median pause duration in microseconds, from the runtime's
    /// `alaska_barrier_pause_ns` telemetry histogram.
    pub p50_pause_us: f64,
    /// 90th-percentile pause duration in microseconds (same histogram).
    pub p90_pause_us: f64,
    /// 99th-percentile pause duration in microseconds (same histogram).
    pub p99_pause_us: f64,
    /// Longest pause in microseconds (same histogram).
    pub max_pause_us: f64,
    /// Objects moved across all pauses.
    pub objects_moved: u64,
    /// Contended handle-table shard-lock acquisitions during the run.
    pub shard_lock_contention: u64,
    /// Per-thread free-ID magazine refills during the run.
    pub magazine_refills: u64,
    /// Translations served on the lock-free fast path (no handle fault).
    pub fast_path_translations: u64,
}

impl ToJson for PauseExperimentResult {
    fn to_json(&self) -> JsonValue {
        object([
            ("threads", JsonValue::U64(self.threads as u64)),
            ("pause_interval_ms", JsonValue::U64(self.pause_interval_ms)),
            ("operations", JsonValue::U64(self.operations)),
            ("mean_us", JsonValue::F64(self.mean_us)),
            ("p99_us", JsonValue::F64(self.p99_us)),
            ("pauses", JsonValue::U64(self.pauses)),
            ("mean_pause_us", JsonValue::F64(self.mean_pause_us)),
            ("p50_pause_us", JsonValue::F64(self.p50_pause_us)),
            ("p90_pause_us", JsonValue::F64(self.p90_pause_us)),
            ("p99_pause_us", JsonValue::F64(self.p99_pause_us)),
            ("max_pause_us", JsonValue::F64(self.max_pause_us)),
            ("objects_moved", JsonValue::U64(self.objects_moved)),
            ("shard_lock_contention", JsonValue::U64(self.shard_lock_contention)),
            ("magazine_refills", JsonValue::U64(self.magazine_refills)),
            ("fast_path_translations", JsonValue::U64(self.fast_path_translations)),
        ])
    }
}

/// A YCSB workload A request stream: zipfian keys over `[0, n)` with
/// YCSB's `ZipfianGenerator` approximation at θ = 0.99, half reads and half
/// updates.
struct YcsbA {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    state: u64,
}

impl YcsbA {
    const THETA: f64 = 0.99;

    fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "zipfian needs at least one item");
        let zeta =
            |count: u64| -> f64 { (1..=count).map(|i| 1.0 / (i as f64).powf(Self::THETA)).sum() };
        let zetan = zeta(n);
        let alpha = 1.0 / (1.0 - Self::THETA);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - Self::THETA)) / (1.0 - zeta(2) / zetan);
        YcsbA { n, alpha, zetan, eta, state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    /// A uniform variate in `[0, 1)` from the xorshift state.
    fn next_unit(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_key(&mut self) -> u64 {
        let u = self.next_unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(Self::THETA) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// The next request as `(key, is_read)`.
    fn next_op(&mut self) -> (u64, bool) {
        let key = self.next_key();
        (key, self.next_unit() < 0.5)
    }
}

/// Run one configuration of the pause experiment.
pub fn run_pause_experiment(cfg: &PauseExperimentConfig) -> PauseExperimentResult {
    let hub = Arc::new(Telemetry::new());
    let rt = Arc::new(AlaskaBuilder::new().with_anchorage().with_telemetry(hub.clone()).build());
    let store = Arc::new(ShardedStore::new(rt.clone(), 16));

    // Preload.
    for key in 0..cfg.record_count {
        store.set(key, &value_bytes(key, cfg.value_size));
    }
    let moved_before = rt.stats().objects_moved;

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..cfg.threads {
        let store = store.clone();
        let stop = stop.clone();
        let (record_count, value_size) = (cfg.record_count, cfg.value_size);
        workers.push(std::thread::spawn(move || {
            let _guard = store.runtime().register_current_thread();
            let mut requests = YcsbA::new(record_count, 1000 + t as u64);
            let hist = Histogram::new();
            while !stop.load(Ordering::Relaxed) {
                let (key, is_read) = requests.next_op();
                let start = Instant::now();
                if is_read {
                    let _ = store.get(key);
                } else {
                    store.set(key, &value_bytes(key, value_size));
                }
                hist.record(start.elapsed().as_nanos() as u64);
            }
            hist
        }));
    }

    // Control loop: periodic stop-the-world relocation pauses.
    let deadline = Instant::now() + Duration::from_millis(cfg.duration_ms);
    let mut pauses = 0u64;
    let mut pause_time = Duration::ZERO;
    while Instant::now() < deadline {
        match cfg.pause_interval_ms {
            Some(interval) => {
                let next = Instant::now() + Duration::from_millis(interval.max(1));
                let start = Instant::now();
                rt.defragment(Some(cfg.move_budget_bytes));
                pause_time += start.elapsed();
                pauses += 1;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep((next - now).min(deadline.saturating_duration_since(now)));
                }
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    stop.store(true, Ordering::Relaxed);

    let merged = Histogram::new();
    for w in workers {
        merged.merge(&w.join().expect("worker panicked"));
    }

    // Pause percentiles come from the runtime's own histogram rather than the
    // harness's stopwatch: the registry sees every barrier, including any the
    // harness did not initiate.
    let pause_hist = match hub.registry().snapshot().get(telemetry_names::BARRIER_PAUSE_NS) {
        Some(MetricValue::Histogram(h)) => Some(*h),
        _ => None,
    };

    let final_stats = rt.stats();
    PauseExperimentResult {
        threads: cfg.threads,
        pause_interval_ms: cfg.pause_interval_ms.unwrap_or(0),
        operations: merged.count(),
        mean_us: merged.mean() / 1000.0,
        p99_us: merged.percentile(99.0) as f64 / 1000.0,
        pauses,
        mean_pause_us: if pauses == 0 {
            0.0
        } else {
            pause_time.as_micros() as f64 / pauses as f64
        },
        p50_pause_us: pause_hist.map_or(0.0, |h| h.p50 as f64 / 1000.0),
        p90_pause_us: pause_hist.map_or(0.0, |h| h.p90 as f64 / 1000.0),
        p99_pause_us: pause_hist.map_or(0.0, |h| h.p99 as f64 / 1000.0),
        max_pause_us: pause_hist.map_or(0.0, |h| h.max as f64 / 1000.0),
        objects_moved: final_stats.objects_moved - moved_before,
        shard_lock_contention: final_stats.shard_lock_contention,
        magazine_refills: final_stats.magazine_refills,
        fast_path_translations: final_stats.translations.saturating_sub(final_stats.handle_faults),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_prefers_low_keys() {
        let mut requests = YcsbA::new(1000, 7);
        let draws = 20_000;
        let low = (0..draws).filter(|_| requests.next_key() < 100).count();
        // With theta=0.99, far more than 10% of draws hit the hottest 10% keys.
        assert!(low as f64 / draws as f64 > 0.4, "zipfian skew too weak: {low}/{draws}");
    }

    #[test]
    fn zipfian_keys_are_in_range() {
        let record_count = 2_000;
        let mut requests = YcsbA::new(record_count, 3);
        for _ in 0..20_000 {
            assert!(requests.next_key() < record_count);
        }
    }

    #[test]
    fn workload_a_is_half_reads() {
        let mut requests = YcsbA::new(2_000, 3);
        let draws = 20_000;
        let reads = (0..draws).filter(|_| requests.next_op().1).count();
        let frac = reads as f64 / draws as f64;
        assert!((frac - 0.5).abs() <= 0.02, "read fraction {frac}");
    }

    #[test]
    fn pause_experiment_completes_and_moves_objects() {
        let cfg = PauseExperimentConfig {
            threads: 2,
            pause_interval_ms: Some(20),
            duration_ms: 120,
            record_count: 2_000,
            value_size: 64,
            move_budget_bytes: 256 * 1024,
        };
        let r = run_pause_experiment(&cfg);
        assert!(r.operations > 0);
        assert!(r.pauses > 0);
        assert!(r.mean_us > 0.0);
        assert!(r.p99_us >= r.mean_us * 0.5);
        assert!(r.p99_pause_us >= r.p50_pause_us, "histogram percentiles must be ordered");
        assert!(r.max_pause_us > 0.0, "pauses ran, so the registry histogram must be populated");
        assert!(r.magazine_refills > 0, "allocating workers must refill their ID magazines");
        assert!(r.fast_path_translations > 0, "reads must translate on the lock-free fast path");
    }

    #[test]
    fn no_pause_reference_runs() {
        let cfg = PauseExperimentConfig {
            threads: 1,
            pause_interval_ms: None,
            duration_ms: 60,
            record_count: 1_000,
            value_size: 64,
            move_budget_bytes: 0,
        };
        let r = run_pause_experiment(&cfg);
        assert_eq!(r.pauses, 0);
        assert!(r.operations > 0);
    }
}
