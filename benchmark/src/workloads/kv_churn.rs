//! `kv_churn`: a `RedisLike` store with `maxmemory` and LRU eviction, churned
//! by one thread on a simulated-millisecond clock — first over Alaska handles
//! with Anchorage and its control algorithm, then the identical stream over
//! the non-moving free-list allocator.
//!
//! Nothing here depends on wall time or on a second thread, so op, pass and
//! RSS counts repeat exactly for a given seed and `--seconds`.

use super::{
    last_quarter_mean, merge_trace, report_runtime_counts, report_units, tracer_for, unit_rate,
    verify_runtime, DefragTotals, Outcome, Unit, FULL_CHECK_EVERY, LATENCY_SAMPLE_EVERY,
    SETUP_REPEATS,
};
use crate::gen::{check_full, check_stamp, fill_value, Rng, StreamHash};
use crate::stats::{median, Latencies};
use crate::trace::{span, ThreadTracer, Trace};
use alaska::AlaskaBuilder;
use alaska_anchorage::{ControlAlgorithm, ControlParams};
use alaska_heap::freelist::FreeListAllocator;
use alaska_heap::vmem::VirtualMemory;
use alaska_kvstore::{HandleStorage, RawStorage, RedisLike, ValueStorage};
use alaska_runtime::Runtime;
use alaska_telemetry::{Gauge, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Small on purpose, as `kv_sharded::RECORDS` is: at 32 MiB the run-to-run
/// spread of throughput on the shared reference host was 19 %, at 4 MiB 5 %.
pub const MAXMEMORY: u64 = 4 * 1024 * 1024;
/// New value bytes inserted per simulated millisecond: 20 x `maxmemory` per
/// simulated minute.
pub const BYTES_PER_MS: u64 = 20 * MAXMEMORY / 60_000;
pub const GETS_PER_MS: u64 = 8;
/// The first `maxmemory` worth of inserts fills the store; it is the set-up.
pub const FILL_MS: u64 = MAXMEMORY / BYTES_PER_MS;
/// Simulated milliseconds of churn per second of `--seconds`.  Calibrated so
/// that the Anchorage and baseline phases together take about `--seconds` on
/// the 2-core reference host at the seed commit.
pub const SIM_MS_PER_SECOND: f64 = 40_000.0;
/// Simulated milliseconds per generated batch.
pub const BATCH_MS: u64 = 250;
/// Mean value size swings 96 -> 640 -> 96 bytes once per this many simulated
/// milliseconds — slowly against the ~2 500 ms a value lives, so the blocks
/// evictions free do not fit what is being inserted.  One swing is also the
/// unit of measurement: batches differ (small values, large values, with or
/// without a pass), whole cycles do not.
pub const SIZE_CYCLE_MS: u64 = 15_000;
pub const SIZE_LOW: f64 = 96.0;
pub const SIZE_HIGH: f64 = 640.0;
pub const SIZE_JITTER: u64 = 64;
/// `get`s pick among this many most recent keys, older ones more often.
pub const GET_WINDOW: u64 = 7_500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    Set {
        key: u64,
        len: u32,
        offset: u32,
    },
    Get {
        key: u64,
    },
    /// End of a simulated millisecond: the control algorithm gets a turn.
    Tick {
        now_ms: u64,
    },
}

/// The op stream; depends on the seed only, never on what a store answers.
pub struct ChurnStream {
    rng: Rng,
    now_ms: u64,
    carry_bytes: u64,
    /// Length of every key inserted so far (keys are 0, 1, 2, ...).
    pub lens: Vec<u32>,
    pub ops: Vec<ChurnOp>,
    arena: Vec<u8>,
}

impl ChurnStream {
    pub fn new(seed: u64) -> Self {
        ChurnStream {
            rng: Rng::new(seed, 0x20),
            now_ms: 0,
            carry_bytes: 0,
            lens: Vec::new(),
            ops: Vec::new(),
            arena: Vec::new(),
        }
    }

    fn mean_len(now_ms: u64) -> f64 {
        let phase = (now_ms % SIZE_CYCLE_MS) as f64 / SIZE_CYCLE_MS as f64;
        let triangle = 1.0 - (2.0 * phase - 1.0).abs();
        SIZE_LOW + (SIZE_HIGH - SIZE_LOW) * triangle
    }

    /// Replace the current batch with the ops of the next `ms` milliseconds.
    pub fn next_batch(&mut self, ms: u64) {
        self.ops.clear();
        self.arena.clear();
        for _ in 0..ms {
            self.carry_bytes += BYTES_PER_MS;
            loop {
                let len = Self::mean_len(self.now_ms) as u64 + self.rng.below(SIZE_JITTER);
                if len > self.carry_bytes {
                    break;
                }
                self.carry_bytes -= len;
                let key = self.lens.len() as u64;
                let offset = self.arena.len();
                self.arena.resize(offset + len as usize, 0);
                fill_value(&mut self.arena[offset..], key, 0);
                self.lens.push(len as u32);
                self.ops.push(ChurnOp::Set { key, len: len as u32, offset: offset as u32 });
            }
            let newest = self.lens.len() as u64;
            for _ in 0..GETS_PER_MS.min(newest) {
                let u = self.rng.next_f64();
                let age = (GET_WINDOW.min(newest) as f64 * (1.0 - u * u)) as u64;
                self.ops.push(ChurnOp::Get { key: newest - 1 - age.min(newest - 1) });
            }
            self.ops.push(ChurnOp::Tick { now_ms: self.now_ms });
            self.now_ms += 1;
        }
    }

    fn value(&self, offset: u32, len: u32) -> &[u8] {
        &self.arena[offset as usize..(offset + len) as usize]
    }
}

/// What one store measured over the churn phase.
#[derive(Default)]
pub struct PhaseResult {
    /// One unit per size cycle.
    pub units: Vec<Unit>,
    /// Every sampled latency of the phase, for the 99.9th percentile.
    pub latencies_ns: Vec<u32>,
    batches: u64,
    pub rss_bytes: Vec<f64>,
    pub rss_per_live: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// Fingerprint of every `get`'s hit or miss; must match across stores.
    pub answers: StreamHash,
    pub pauses: DefragTotals,
    pub evictions: u64,
    /// Anchorage's sub-heap gauge (present when a hub is installed) and the
    /// highest value seen at a batch boundary.
    pub subheaps: Option<Arc<Gauge>>,
    pub subheaps_peak: f64,
}

/// Drive `store` through the next `ms` milliseconds of `stream`.
fn drive<S: ValueStorage>(
    store: &mut RedisLike<S>,
    stream: &mut ChurnStream,
    ms: u64,
    res: &mut PhaseResult,
    mut tracer: Option<&mut ThreadTracer>,
    mut tick: impl FnMut(u64, &mut DefragTotals, Option<&mut ThreadTracer>),
) {
    let mut deferred: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut samples_ns: Vec<u64> = Vec::new();
    let (mut unit_ms, mut unit_ops, mut unit_secs) = (0u64, 0u64, 0.0f64);
    let mut left = ms;
    while left > 0 {
        let this = left.min(BATCH_MS);
        left -= this;
        stream.next_batch(this);
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("batch", res.batches);
        }
        let mut done = 0u64;
        let timer = Instant::now();
        for (i, op) in stream.ops.iter().enumerate() {
            let sampled = (i % LATENCY_SAMPLE_EVERY == 0).then(Instant::now);
            match *op {
                ChurnOp::Set { key, len, offset } => {
                    span(tracer.as_deref_mut(), "kvstore.redis_set", res.ops + done, || {
                        store.set(key, stream.value(offset, len))
                    });
                    done += 1;
                }
                ChurnOp::Get { key } => {
                    let got =
                        span(tracer.as_deref_mut(), "kvstore.redis_get", res.ops + done, || {
                            store.get(key)
                        });
                    res.answers.push(got.is_some() as u64);
                    if let Some(v) = got {
                        // A miss is a legal answer (the key was evicted); a
                        // hit must carry the bytes inserted under that key.
                        if !check_stamp(&v, key, 0, stream.lens[key as usize] as usize) {
                            res.failed += 1;
                        } else if i % FULL_CHECK_EVERY == 0 {
                            deferred.push((key, v));
                        }
                    }
                    done += 1;
                }
                ChurnOp::Tick { now_ms } => {
                    tick(now_ms, &mut res.pauses, tracer.as_deref_mut());
                    continue;
                }
            }
            if let Some(at) = sampled {
                samples_ns.push(at.elapsed().as_nanos() as u64);
            }
        }
        let elapsed = timer.elapsed().as_secs_f64();
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
            t.count("ops", done);
        }
        res.batches += 1;
        res.ops += done;
        unit_ms += this;
        unit_ops += done;
        unit_secs += elapsed;
        if unit_ms >= SIZE_CYCLE_MS || left == 0 {
            res.latencies_ns.extend(samples_ns.iter().map(|&ns| ns.min(u32::MAX as u64) as u32));
            res.units.push(Unit::close(unit_ops, unit_secs, &mut samples_ns));
            (unit_ms, unit_ops, unit_secs) = (0, 0, 0.0);
        }
        for (key, value) in deferred.drain(..) {
            let len = stream.lens[key as usize] as usize;
            res.failed += !check_full(&value, key, 0, len) as u64;
        }
        let rss = store.rss_bytes() as f64;
        res.rss_bytes.push(rss);
        res.rss_per_live.push(rss / store.storage().live_bytes().max(1) as f64);
        if let Some(gauge) = &res.subheaps {
            res.subheaps_peak = res.subheaps_peak.max(gauge.get());
        }
    }
    res.evictions = store.evictions();
}

/// Read back, in full, every key the store still holds among the most recent
/// ones; returns (attempted, failed).
fn final_sweep<S: ValueStorage>(store: &mut RedisLike<S>, stream: &ChurnStream) -> (u64, u64) {
    let newest = stream.lens.len() as u64;
    let (mut attempted, mut failed, mut hits) = (0u64, 0u64, 0u64);
    for key in newest.saturating_sub(GET_WINDOW)..newest {
        attempted += 1;
        if let Some(v) = store.get(key) {
            hits += 1;
            failed += !check_full(&v, key, 0, stream.lens[key as usize] as usize) as u64;
        }
    }
    // The newest key can never have been evicted, and the store holds
    // `store.len()` keys in all.
    failed += (hits == 0 || hits > store.len() as u64) as u64;
    (attempted, failed)
}

struct AnchorageSide {
    rt: Arc<Runtime>,
    store: RedisLike<HandleStorage>,
    control: ControlAlgorithm,
    stream: ChurnStream,
    fill: PhaseResult,
}

fn tick_with<'a>(
    rt: &'a Runtime,
    control: &'a mut ControlAlgorithm,
) -> impl FnMut(u64, &mut DefragTotals, Option<&mut ThreadTracer>) + 'a {
    move |now_ms, pauses, tracer| {
        pauses.timed(tracer, "anchorage.control_tick", now_ms, || {
            control.tick(rt, now_ms).map(|report| report.outcome)
        });
    }
}

/// Build the Anchorage-backed store and fill it to `maxmemory`.
fn set_up_anchorage(seed: u64, hub: Option<&Arc<Telemetry>>) -> AnchorageSide {
    let mut builder = AlaskaBuilder::new().with_anchorage();
    if let Some(hub) = hub {
        builder = builder.with_telemetry(hub.clone());
    }
    let rt = Arc::new(builder.build());
    let mut side = AnchorageSide {
        store: RedisLike::new(HandleStorage::new(rt.clone()), MAXMEMORY),
        rt,
        control: ControlAlgorithm::new(ControlParams::default()),
        stream: ChurnStream::new(seed),
        fill: PhaseResult::default(),
    };
    {
        let _registered = side.rt.register_current_thread();
        let tick = tick_with(&side.rt, &mut side.control);
        drive(&mut side.store, &mut side.stream, FILL_MS, &mut side.fill, None, tick);
    }
    side
}

/// Run one pass of `kv_churn`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let churn_ms = ((seconds * SIM_MS_PER_SECOND) as u64).max(BATCH_MS);

    // -- Anchorage ----------------------------------------------------------
    let mut setup_s = Vec::new();
    let mut side = None;
    for _ in 0..SETUP_REPEATS {
        drop(side.take());
        let hub = traced.then(|| Arc::new(Telemetry::new()));
        let timer = Instant::now();
        side = Some((set_up_anchorage(seed, hub.as_ref()), hub));
        setup_s.push(timer.elapsed().as_secs_f64());
    }
    let (mut side, hub) = side.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));

    let registered = side.rt.register_current_thread();
    let before = side.rt.stats();
    let vm_before = side.rt.vm().stats();
    let mut tracer = tracer_for(traced, Instant::now(), 0);
    if let Some(t) = tracer.as_mut() {
        t.enter("workload", 0);
    }
    let mut anchorage = PhaseResult {
        subheaps: hub
            .as_ref()
            .map(|h| h.registry().gauge(alaska_anchorage::telemetry_names::SUBHEAPS)),
        ..Default::default()
    };
    let tick = tick_with(&side.rt, &mut side.control);
    drive(&mut side.store, &mut side.stream, churn_ms, &mut anchorage, tracer.as_mut(), tick);
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
    report_runtime_counts(&mut out, &side.rt, &before, &vm_before, anchorage.ops);
    let delta = side.rt.stats().since(&before);
    let (swept, wrong) = final_sweep(&mut side.store, &side.stream);
    verify_runtime(&mut out, &side.rt);
    drop(registered);

    // -- the same stream on the non-moving allocator ---------------------------
    let vm = VirtualMemory::default();
    let storage = RawStorage::new(vm.clone(), FreeListAllocator::new(vm), "baseline");
    let mut base_store = RedisLike::new(storage, MAXMEMORY);
    let mut base_stream = ChurnStream::new(seed);
    let mut base_fill = PhaseResult::default();
    let mut baseline = PhaseResult::default();
    drive(&mut base_store, &mut base_stream, FILL_MS, &mut base_fill, None, |_, _, _| {});
    drive(&mut base_store, &mut base_stream, churn_ms, &mut baseline, None, |_, _, _| {});
    let (base_swept, base_wrong) = final_sweep(&mut base_store, &base_stream);

    out.attempted =
        side.fill.ops + anchorage.ops + swept + baseline.ops + base_fill.ops + base_swept;
    out.failed = side.fill.failed
        + anchorage.failed
        + wrong
        + base_fill.failed
        + baseline.failed
        + base_wrong;
    // Eviction is decided by the store, not the allocator: both stores must
    // have answered every `get` the same way.
    if anchorage.answers != baseline.answers || anchorage.evictions != baseline.evictions {
        out.failed += 1;
        out.invalid
            .push("Anchorage and baseline stores answered the same stream differently".into());
    }

    report_units(&mut out, &[&anchorage.units]);
    let rate = out.values["throughput_ops_s"];
    let base_rate = unit_rate(&baseline.units);
    let lat = Latencies::from_samples([std::mem::take(&mut anchorage.latencies_ns)]);
    out.set("kvstore.op_p999_us", lat.supported_percentile_us(99.9).unwrap_or(0.0));
    out.set("rss_per_live_byte", last_quarter_mean(&anchorage.rss_per_live));
    let steady = last_quarter_mean(&anchorage.rss_bytes);
    let base_steady = last_quarter_mean(&baseline.rss_bytes);
    out.set("rss_saved_pct", (1.0 - steady / base_steady) * 100.0);
    out.set("slowdown_vs_malloc_x", base_rate / rate);
    out.set("kvstore.redis_evictions", anchorage.evictions as f64);
    if anchorage.subheaps.is_some() {
        out.set("anchorage.subheaps_peak", anchorage.subheaps_peak);
    }
    out.set("failed_ops_share", out.failed as f64 / out.attempted.max(1) as f64);
    out.set("ops", anchorage.ops as f64);
    anchorage.pauses.report(&mut out);
    out.exact = vec![
        ("ops", anchorage.ops),
        ("passes", anchorage.pauses.passes()),
        ("evictions", anchorage.evictions),
        ("steady_rss_bytes", steady as u64),
        ("baseline_steady_rss_bytes", base_steady as u64),
        ("answers_hash", anchorage.answers.0),
    ];

    (out, tracer.map(|t| merge_trace(vec![t], &delta)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(seed: u64, ms: u64) -> (u64, usize) {
        let mut s = ChurnStream::new(seed);
        let mut h = StreamHash::default();
        let mut ops = 0;
        for _ in 0..ms.div_ceil(BATCH_MS) {
            s.next_batch(BATCH_MS);
            ops += s.ops.len();
            for op in &s.ops {
                match *op {
                    ChurnOp::Set { key, len, offset } => {
                        h.push(key);
                        h.push(len as u64);
                        h.push(s.value(offset, len)[8] as u64);
                    }
                    ChurnOp::Get { key } => h.push(!key),
                    ChurnOp::Tick { now_ms } => h.push(now_ms << 1),
                }
            }
        }
        (h.0, ops)
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_another_seed_another() {
        assert_eq!(stream_hash(3, 1000), stream_hash(3, 1000));
        assert_ne!(stream_hash(3, 1000).0, stream_hash(4, 1000).0);
    }

    #[test]
    fn stream_inserts_at_the_stated_rate_with_drifting_sizes() {
        let mut s = ChurnStream::new(1);
        let mut bytes = 0u64;
        let (mut small, mut large) = (0u64, 0u64);
        for batch in 0..(SIZE_CYCLE_MS / BATCH_MS) {
            s.next_batch(BATCH_MS);
            for op in &s.ops {
                if let ChurnOp::Set { len, .. } = *op {
                    bytes += len as u64;
                    assert!((96..640 + 64).contains(&len));
                    // The middle of the cycle holds the large values.
                    let mid = (SIZE_CYCLE_MS / BATCH_MS) / 2;
                    if batch.abs_diff(mid) <= 2 {
                        large += (len > 500) as u64;
                    } else if batch < 2 {
                        small += (len < 200) as u64;
                    }
                }
            }
            let gets = s.ops.iter().filter(|op| matches!(op, ChurnOp::Get { .. })).count();
            assert_eq!(gets as u64, GETS_PER_MS * BATCH_MS);
        }
        let want = BYTES_PER_MS * SIZE_CYCLE_MS;
        assert!(bytes <= want && bytes > want - 1024, "{bytes} of {want} bytes inserted");
        assert!(small > 1000 && large > 1000, "sizes drift: {small} small, {large} large");
    }

    /// The acceptance criterion "same seed -> identical op and pass counts",
    /// on a pass short enough for a unit test.
    #[test]
    fn a_short_pass_repeats_exactly_and_is_correct() {
        let (a, _) = run(11, 0.25, false);
        let (b, _) = run(11, 0.25, false);
        assert!(a.correct(), "failed {} invalid {:?}", a.failed, a.invalid);
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.attempted, b.attempted);
        let (c, _) = run(12, 0.25, false);
        assert_ne!(a.exact, c.exact);
    }
}
