//! Thread-scaling sweep of the runtime's hot paths.
//!
//! Measures aggregate throughput of two operation mixes as the worker-thread
//! count grows, exposing whether the sharded handle table actually removed
//! the global lock from the hot paths:
//!
//! * **translate-heavy** — each thread hammers `translate` over a private
//!   working set of live handles (the Figure 5 sequence; lock-free reads), and
//! * **alloc/free-heavy** — each thread runs a `halloc`/`write`/`hfree` loop
//!   (magazine-buffered shard mutations).
//!
//! Alongside throughput, each run reports the contention counters the sharded
//! table exports: shard-lock contention events, magazine refills/flushes and
//! fast-path translations.  On a single-core machine the throughput columns
//! will not scale — the counters still validate that threads stay off each
//! other's locks.

use alaska::AlaskaBuilder;
use alaska_telemetry::json::{object, JsonValue, ToJson};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Operation mix driven by each worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMix {
    /// Mostly `translate` over live handles, with a sprinkle of allocation.
    TranslateHeavy,
    /// A tight `halloc`/`write`/`hfree` loop.
    AllocFreeHeavy,
}

impl SweepMix {
    /// Stable label used in output rows and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMix::TranslateHeavy => "translate_heavy",
            SweepMix::AllocFreeHeavy => "alloc_free_heavy",
        }
    }
}

/// Parameters of one sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSweepConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Operation mix each thread drives.
    pub mix: SweepMix,
    /// Operations issued per thread (fixed work, so runs are comparable).
    pub ops_per_thread: u64,
    /// Object size in bytes.
    pub object_size: usize,
    /// Live handles per thread in the translate-heavy working set.
    pub working_set: usize,
    /// Magazine `(cap, refill)` override applied via
    /// `Runtime::set_magazine_sizing`, or `None` for the runtime default.
    /// Sweeping this axis answers the ROADMAP question of whether the
    /// default 64/32 sizing is actually right.
    pub magazine: Option<(usize, usize)>,
}

impl Default for ThreadSweepConfig {
    fn default() -> Self {
        ThreadSweepConfig {
            threads: 1,
            mix: SweepMix::TranslateHeavy,
            ops_per_thread: 200_000,
            object_size: 64,
            working_set: 1024,
            magazine: None,
        }
    }
}

/// Result of one sweep configuration.
#[derive(Debug, Clone)]
pub struct ThreadSweepResult {
    /// Worker thread count.
    pub threads: usize,
    /// Operation-mix label.
    pub mix: &'static str,
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Wall-clock time of the measured region, in microseconds: from the
    /// first worker's start to the last worker's end, both read inside the
    /// workers.
    pub elapsed_us: u64,
    /// Aggregate throughput in million operations per second.
    pub mops: f64,
    /// Contended shard-lock acquisitions during the run.
    pub shard_lock_contention: u64,
    /// Magazine refills during the run.
    pub magazine_refills: u64,
    /// Magazine flushes during the run.
    pub magazine_flushes: u64,
    /// Translations served without a handle fault.
    pub fast_path_translations: u64,
    /// `available_parallelism` of the host: single-core machines cannot show
    /// throughput scaling, so consumers must label the `mops` column
    /// accordingly (see the ROADMAP caveat).
    pub available_parallelism: usize,
    /// Effective handle-table shard count of the runtime under test (sized
    /// from `available_parallelism` at construction).
    pub shards: usize,
    /// Magazine flush threshold the run used.
    pub magazine_cap: usize,
    /// Magazine refill batch size the run used.
    pub magazine_refill: usize,
    /// Whether the sweep overrode the runtime's default magazine sizing.
    pub magazine_override: bool,
}

impl ToJson for ThreadSweepResult {
    fn to_json(&self) -> JsonValue {
        object([
            ("threads", JsonValue::U64(self.threads as u64)),
            ("mix", JsonValue::Str(self.mix.to_string())),
            ("total_ops", JsonValue::U64(self.total_ops)),
            ("elapsed_us", JsonValue::U64(self.elapsed_us)),
            ("mops", JsonValue::F64(self.mops)),
            ("shard_lock_contention", JsonValue::U64(self.shard_lock_contention)),
            ("magazine_refills", JsonValue::U64(self.magazine_refills)),
            ("magazine_flushes", JsonValue::U64(self.magazine_flushes)),
            ("fast_path_translations", JsonValue::U64(self.fast_path_translations)),
            ("available_parallelism", JsonValue::U64(self.available_parallelism as u64)),
            ("shards", JsonValue::U64(self.shards as u64)),
            ("magazine_cap", JsonValue::U64(self.magazine_cap as u64)),
            ("magazine_refill", JsonValue::U64(self.magazine_refill as u64)),
            ("magazine_override", JsonValue::Bool(self.magazine_override)),
        ])
    }
}

/// No operation of either mix takes less than a nanosecond, so no thread
/// sustains more than this many Mops/s; a result above it is the harness
/// mistiming, not the runtime being fast.
const MOPS_CEILING_PER_THREAD: f64 = 1_000.0;

/// Run one sweep configuration and return its throughput and counters.
///
/// # Panics
///
/// Panics if the throughput it measured is not a finite number below
/// 1 000 Mops/s per thread (an operation per nanosecond).
pub fn run_thread_sweep(cfg: &ThreadSweepConfig) -> ThreadSweepResult {
    let rt = Arc::new(AlaskaBuilder::new().with_anchorage().build());
    if let Some((cap, refill)) = cfg.magazine {
        rt.set_magazine_sizing(cap, refill);
    }
    let (magazine_cap, magazine_refill) = rt.magazine_sizing();
    let start_line = Arc::new(Barrier::new(cfg.threads));

    let mut workers = Vec::new();
    for _ in 0..cfg.threads {
        let rt = Arc::clone(&rt);
        let start_line = Arc::clone(&start_line);
        let cfg = *cfg;
        workers.push(std::thread::spawn(move || {
            let _guard = rt.register_current_thread();
            // Build the working set before the clock starts.
            let handles: Vec<u64> = match cfg.mix {
                SweepMix::TranslateHeavy => {
                    (0..cfg.working_set).map(|_| rt.halloc(cfg.object_size).unwrap()).collect()
                }
                SweepMix::AllocFreeHeavy => Vec::new(),
            };
            start_line.wait();
            // The clock runs inside the workers: one read by a coordinator
            // after the barrier starts when the coordinator is next scheduled,
            // which on a host with fewer cores than threads is after the
            // workers are done.
            let started = Instant::now();
            match cfg.mix {
                SweepMix::TranslateHeavy => {
                    for i in 0..cfg.ops_per_thread {
                        let h = handles[(i as usize) % handles.len()];
                        std::hint::black_box(rt.translate(h).unwrap());
                        if i % 1024 == 0 {
                            rt.safepoint();
                        }
                    }
                }
                SweepMix::AllocFreeHeavy => {
                    // Bursts of 16 live allocations stress the magazine
                    // transfer paths in both directions (drain on the alloc
                    // run, fill on the free run); strict alloc/free
                    // alternation would keep the magazine length flat and
                    // hide the cap/refill axis entirely.
                    let mut burst = Vec::with_capacity(16);
                    for i in 0..cfg.ops_per_thread {
                        let h = rt.halloc(cfg.object_size).unwrap();
                        rt.write_u64(h, 0, i);
                        burst.push(h);
                        if burst.len() == 16 || i + 1 == cfg.ops_per_thread {
                            for h in burst.drain(..) {
                                rt.hfree(h).unwrap();
                            }
                        }
                    }
                }
            }
            let ended = Instant::now();
            // Clean-up waits for the slowest worker's measured region.
            start_line.wait();
            for h in handles {
                rt.hfree(h).unwrap();
            }
            (started, ended)
        }));
    }

    let spans: Vec<(Instant, Instant)> =
        workers.into_iter().map(|w| w.join().expect("sweep worker panicked")).collect();
    let first_start = spans.iter().map(|s| s.0).min().expect("at least one worker");
    let last_end = spans.iter().map(|s| s.1).max().expect("at least one worker");
    let elapsed = last_end - first_start;

    let snap = rt.stats();
    let total_ops = cfg.ops_per_thread * cfg.threads as u64;
    let mops = total_ops as f64 / elapsed.as_secs_f64() / 1e6;
    assert!(
        mops.is_finite() && mops < MOPS_CEILING_PER_THREAD * cfg.threads as f64,
        "{} at {} threads: {mops} Mops/s ({total_ops} ops in {elapsed:?}) is not a measurement",
        cfg.mix.label(),
        cfg.threads
    );
    ThreadSweepResult {
        threads: cfg.threads,
        mix: cfg.mix.label(),
        total_ops,
        elapsed_us: elapsed.as_micros() as u64,
        mops,
        shard_lock_contention: snap.shard_lock_contention,
        magazine_refills: snap.magazine_refills,
        magazine_flushes: snap.magazine_flushes,
        fast_path_translations: snap.translations.saturating_sub(snap.handle_faults),
        available_parallelism: available_parallelism(),
        shards: rt.handle_table_shards(),
        magazine_cap,
        magazine_refill,
        magazine_override: cfg.magazine.is_some(),
    }
}

/// The host's `available_parallelism`, or 1 if it cannot be determined.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_sweep_counts_fast_path_translations() {
        let cfg = ThreadSweepConfig {
            threads: 2,
            mix: SweepMix::TranslateHeavy,
            ops_per_thread: 5_000,
            object_size: 64,
            working_set: 128,
            magazine: None,
        };
        let r = run_thread_sweep(&cfg);
        assert_eq!(r.total_ops, 10_000);
        assert!(!r.magazine_override);
        assert!(r.magazine_cap >= r.magazine_refill);
        assert!(r.fast_path_translations >= r.total_ops, "every op is a translation");
        assert!(r.mops > 0.0);
        assert!(r.available_parallelism >= 1);
        assert!(r.shards.is_power_of_two(), "auto shard count is a power of two");
    }

    #[test]
    fn alloc_sweep_exercises_the_magazines() {
        let cfg = ThreadSweepConfig {
            threads: 2,
            mix: SweepMix::AllocFreeHeavy,
            ops_per_thread: 2_000,
            object_size: 64,
            working_set: 0,
            magazine: None,
        };
        let r = run_thread_sweep(&cfg);
        assert!(r.magazine_refills > 0, "allocating threads must refill magazines");
    }

    #[test]
    fn magazine_override_changes_refill_behaviour() {
        let base = ThreadSweepConfig {
            threads: 2,
            mix: SweepMix::AllocFreeHeavy,
            ops_per_thread: 2_000,
            object_size: 64,
            working_set: 0,
            magazine: Some((4, 2)),
        };
        let small = run_thread_sweep(&base);
        assert!(small.magazine_override);
        assert_eq!((small.magazine_cap, small.magazine_refill), (4, 2));
        let large = run_thread_sweep(&ThreadSweepConfig { magazine: Some((256, 128)), ..base });
        assert_eq!((large.magazine_cap, large.magazine_refill), (256, 128));
        assert!(
            small.magazine_refills > large.magazine_refills,
            "tiny magazines ({} refills) must refill more often than big ones ({} refills)",
            small.magazine_refills,
            large.magazine_refills
        );
    }
}
