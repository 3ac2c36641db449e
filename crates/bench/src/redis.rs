//! The Redis fragmentation experiment behind Figures 1, 9, 10 and 11.
//!
//! A [`RedisLike`] store with a `maxmemory` policy is driven past its limit so
//! it continuously evicts LRU values while inserting new ones; the value-size
//! distribution drifts over time so freed blocks cannot simply be reused by
//! later allocations (the cross-phase fragmentation of §1).  RSS is sampled on
//! a simulated-millisecond timeline, with each back-end given its own
//! reclamation mechanism:
//!
//! * **Anchorage** — the control algorithm (§4.3) triggers bounded
//!   stop-the-world defragmentation passes,
//! * **baseline** — the non-moving free-list allocator: nothing ever shrinks,
//! * **Mesh** — periodic meshing passes merge disjoint spans,
//! * **activedefrag** — the application itself re-packs values on the
//!   arena back-end, mimicking Redis's bespoke defragmenter.

use crate::value_bytes;
use alaska::{AlaskaBuilder, ControlAlgorithm, ControlParams, Runtime};
use alaska_heap::freelist::FreeListAllocator;
use alaska_heap::mesh::MeshAllocator;
use alaska_heap::vmem::VirtualMemory;
use alaska_kvstore::{ArenaStorage, HandleStorage, RawStorage, RedisLike, ValueStorage};
use alaska_telemetry::json::{object, JsonValue, ToJson};
use std::sync::Arc;

/// Which allocator configuration backs the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Alaska + Anchorage (this paper).
    Anchorage,
    /// Non-moving free-list allocator (glibc-malloc-like baseline).
    Baseline,
    /// The Mesh-like allocator.
    Mesh,
    /// Application-level activedefrag over the arena allocator.
    ActiveDefrag,
}

impl Backend {
    /// Label used in the printed series.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Anchorage => "anchorage",
            Backend::Baseline => "baseline",
            Backend::Mesh => "mesh",
            Backend::ActiveDefrag => "activedefrag",
        }
    }

    /// All backends in the order Figure 9 plots them.
    pub fn all() -> [Backend; 4] {
        [Backend::Anchorage, Backend::Baseline, Backend::Mesh, Backend::ActiveDefrag]
    }
}

/// How value sizes evolve over the run.
#[derive(Debug, Clone, Copy)]
pub enum ValueSizing {
    /// Every value has the same size (Figure 11 uses 500 bytes).
    Fixed(usize),
    /// Sizes drift linearly from `start` to `end` over the run, with `spread`
    /// bytes of per-value jitter — the phase-shift pattern that defeats free
    /// lists.
    Drifting {
        /// Mean size at the start of the run.
        start: usize,
        /// Mean size at the end of the run.
        end: usize,
        /// Uniform jitter added to each value.
        spread: usize,
    },
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct RedisExperimentConfig {
    /// The store's `maxmemory` policy in bytes.
    pub maxmemory: u64,
    /// Simulated duration in milliseconds.
    pub duration_ms: u64,
    /// Bytes of new values inserted per simulated millisecond.
    pub bytes_per_ms: u64,
    /// RSS sampling interval in simulated milliseconds.
    pub sample_interval_ms: u64,
    /// Value-size policy.
    pub sizing: ValueSizing,
    /// Anchorage control parameters.
    pub control: ControlParams,
    /// Reclamation period for Mesh/activedefrag, in simulated milliseconds.
    pub reclaim_interval_ms: u64,
    /// GET operations issued per simulated millisecond.  Reads follow a
    /// zipfian distribution skewed towards the *oldest* live keys, which keeps
    /// popular old values alive and scatters survivors across the heap — the
    /// cache-like access pattern that makes Redis fragmentation hard.
    pub gets_per_ms: u64,
}

impl Default for RedisExperimentConfig {
    fn default() -> Self {
        RedisExperimentConfig {
            maxmemory: 100 * 1024 * 1024,
            duration_ms: 10_000,
            bytes_per_ms: 0, // filled in by `with_fill_factor`
            sample_interval_ms: 100,
            sizing: ValueSizing::Drifting { start: 96, end: 640, spread: 64 },
            control: ControlParams::default(),
            reclaim_interval_ms: 100,
            gets_per_ms: 8,
        }
        .with_fill_factor(2.5)
    }
}

impl RedisExperimentConfig {
    /// Set the insertion rate so that `factor × maxmemory` bytes are inserted
    /// over the whole run (the paper inserts "more than" the limit; Figure 11
    /// uses ~2.5×).
    pub fn with_fill_factor(mut self, factor: f64) -> Self {
        self.bytes_per_ms =
            ((self.maxmemory as f64 * factor) / self.duration_ms as f64).ceil() as u64;
        self
    }
}

/// One sample of the RSS-over-time series.
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// Simulated time in milliseconds.
    pub t_ms: u64,
    /// Resident set size in bytes.
    pub rss_bytes: u64,
    /// Live value bytes in the store.
    pub live_bytes: u64,
    /// Fragmentation ratio.
    pub fragmentation: f64,
}

impl ToJson for SeriesPoint {
    fn to_json(&self) -> JsonValue {
        object([
            ("t_ms", JsonValue::U64(self.t_ms)),
            ("rss_bytes", JsonValue::U64(self.rss_bytes)),
            ("live_bytes", JsonValue::U64(self.live_bytes)),
            ("fragmentation", JsonValue::F64(self.fragmentation)),
        ])
    }
}

/// The result of one backend's run.
#[derive(Debug, Clone)]
pub struct RedisExperimentResult {
    /// Backend label.
    pub backend: String,
    /// The sampled series.
    pub series: Vec<SeriesPoint>,
    /// Peak RSS over the run.
    pub peak_rss: u64,
    /// Mean RSS over the last quarter of the run (steady state).
    pub steady_rss: u64,
    /// Defragmentation passes (Anchorage) or reclamation passes (others).
    pub passes: u64,
    /// Keys evicted by the LRU policy.
    pub evictions: u64,
}

impl ToJson for RedisExperimentResult {
    fn to_json(&self) -> JsonValue {
        object([
            ("backend", JsonValue::Str(self.backend.clone())),
            ("series", self.series.to_json()),
            ("peak_rss", JsonValue::U64(self.peak_rss)),
            ("steady_rss", JsonValue::U64(self.steady_rss)),
            ("passes", JsonValue::U64(self.passes)),
            ("evictions", JsonValue::U64(self.evictions)),
        ])
    }
}

fn value_len(sizing: ValueSizing, t_ms: u64, duration_ms: u64, nonce: u64) -> usize {
    match sizing {
        ValueSizing::Fixed(n) => n,
        ValueSizing::Drifting { start, end, spread } => {
            let frac = t_ms as f64 / duration_ms.max(1) as f64;
            let mean = start as f64 + (end as f64 - start as f64) * frac;
            let jitter = (nonce.wrapping_mul(0x9E37_79B9) % (spread.max(1) as u64)) as f64;
            (mean + jitter).max(1.0) as usize
        }
    }
}

/// Run the experiment for one backend.
pub fn run_redis_experiment(
    backend: Backend,
    cfg: &RedisExperimentConfig,
) -> RedisExperimentResult {
    let (storage, runtime): (Box<dyn ValueStorage>, Option<Arc<Runtime>>) = match backend {
        Backend::Anchorage => {
            let rt = Arc::new(AlaskaBuilder::new().with_anchorage().build());
            (Box::new(HandleStorage::new(rt.clone())), Some(rt))
        }
        Backend::Baseline => {
            let vm = VirtualMemory::default();
            (Box::new(RawStorage::new(vm.clone(), FreeListAllocator::new(vm), "baseline")), None)
        }
        Backend::Mesh => {
            let vm = VirtualMemory::default();
            (Box::new(RawStorage::new(vm.clone(), MeshAllocator::new(vm), "mesh")), None)
        }
        Backend::ActiveDefrag => {
            let vm = VirtualMemory::default();
            (Box::new(ArenaStorage::new(vm)), None)
        }
    };

    let mut store: RedisLike<Box<dyn ValueStorage>> = RedisLike::new(storage, cfg.maxmemory);
    let mut control = ControlAlgorithm::new(cfg.control);
    let mut series = Vec::new();
    let mut next_key = 0u64;
    let mut passes = 0u64;
    let mut carry = 0u64;
    let mut rng_state = 0x5DEECE66Du64;
    let mut zipf_pick = |range: u64| -> u64 {
        // Cheap zipf-ish chooser: squaring a uniform variate concentrates the
        // mass near zero (the oldest live keys).
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        let u = (rng_state >> 11) as f64 / (1u64 << 53) as f64;
        ((u * u) * range as f64) as u64
    };

    for t in 0..cfg.duration_ms {
        // Insert this millisecond's worth of new values.
        let mut budget = cfg.bytes_per_ms + carry;
        while budget > 0 {
            let len = value_len(cfg.sizing, t, cfg.duration_ms, next_key);
            if len as u64 > budget && budget < cfg.bytes_per_ms {
                break;
            }
            let value = value_bytes(next_key, len);
            store.set(next_key, &value);
            next_key += 1;
            budget = budget.saturating_sub(len as u64);
        }
        carry = budget;

        // Read traffic: touch old-but-popular keys so they survive eviction
        // scattered among dead neighbours.
        let live_keys = store.len() as u64;
        if live_keys > 0 {
            let oldest = next_key.saturating_sub(live_keys);
            for _ in 0..cfg.gets_per_ms {
                let key = oldest + zipf_pick(live_keys);
                let _ = store.get(key);
            }
        }

        // Backend-specific reclamation on its own cadence.
        match backend {
            Backend::Anchorage => {
                if let Some(rt) = &runtime {
                    if control.tick(rt, t).is_some() {
                        passes += 1;
                    }
                }
            }
            Backend::Mesh => {
                if t % cfg.reclaim_interval_ms == 0 && t > 0 {
                    store.storage_mut().reclaim(None);
                    passes += 1;
                }
            }
            Backend::ActiveDefrag => {
                if t % cfg.reclaim_interval_ms == 0 && t > 0 {
                    let budget = (cfg.maxmemory / 50).max(64 * 1024);
                    if store.active_defrag(1.2, budget) > 0 {
                        passes += 1;
                    }
                }
            }
            Backend::Baseline => {}
        }

        if t % cfg.sample_interval_ms == 0 {
            series.push(SeriesPoint {
                t_ms: t,
                rss_bytes: store.rss_bytes(),
                live_bytes: store.used_memory(),
                fragmentation: store.fragmentation(),
            });
        }
    }

    let peak_rss = series.iter().map(|s| s.rss_bytes).max().unwrap_or(0);
    let tail = series.len() / 4;
    let steady: Vec<u64> = series.iter().rev().take(tail.max(1)).map(|s| s.rss_bytes).collect();
    let steady_rss = steady.iter().sum::<u64>() / steady.len() as u64;

    RedisExperimentResult {
        backend: backend.label().to_string(),
        series,
        peak_rss,
        steady_rss,
        passes,
        evictions: store.evictions(),
    }
}

/// Memory saved at steady state relative to the baseline run — the paper's
/// "up to 40% in Redis" headline (Figure 1).
pub fn savings_vs_baseline(
    result: &RedisExperimentResult,
    baseline: &RedisExperimentResult,
) -> f64 {
    if baseline.steady_rss == 0 {
        return 0.0;
    }
    1.0 - result.steady_rss as f64 / baseline.steady_rss as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RedisExperimentConfig {
        RedisExperimentConfig {
            maxmemory: 4 * 1024 * 1024,
            duration_ms: 2_500,
            sample_interval_ms: 100,
            control: ControlParams {
                poll_interval_ms: 100,
                frag_low: 1.1,
                frag_high: 1.3,
                alpha: 0.5,
                overhead_high: 0.2,
                ..Default::default()
            },
            ..Default::default()
        }
        .with_fill_factor(2.5)
    }

    #[test]
    fn anchorage_beats_the_baseline_on_steady_state_rss() {
        let cfg = small_config();
        let baseline = run_redis_experiment(Backend::Baseline, &cfg);
        let anchorage = run_redis_experiment(Backend::Anchorage, &cfg);
        assert!(anchorage.passes > 0, "the control algorithm must have fired");
        let savings = savings_vs_baseline(&anchorage, &baseline);
        assert!(
            savings > 0.15,
            "Anchorage should save a substantial fraction of RSS (got {:.1}%)",
            savings * 100.0
        );
        assert!(baseline.series.len() > 10);
    }

    #[test]
    fn activedefrag_also_recovers_memory() {
        let cfg = small_config();
        let baseline = run_redis_experiment(Backend::Baseline, &cfg);
        let adf = run_redis_experiment(Backend::ActiveDefrag, &cfg);
        assert!(savings_vs_baseline(&adf, &baseline) > 0.1);
    }

    #[test]
    fn all_backends_produce_full_series() {
        let cfg = RedisExperimentConfig {
            maxmemory: 2 * 1024 * 1024,
            duration_ms: 600,
            ..Default::default()
        }
        .with_fill_factor(2.0);
        for backend in Backend::all() {
            let r = run_redis_experiment(backend, &cfg);
            assert_eq!(r.series.len(), (cfg.duration_ms / cfg.sample_interval_ms) as usize);
            assert!(r.peak_rss > 0);
            assert!(r.evictions > 0, "{} never evicted", r.backend);
        }
    }
}
