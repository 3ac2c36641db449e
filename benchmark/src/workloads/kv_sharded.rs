//! `kv_read_heavy` and `kv_pause`: a 16-shard `ShardedStore` over Anchorage,
//! driven by two threads.
//!
//! Key spaces are partitioned per thread (`key % threads == t`).  That lets
//! each thread know the exact generation of every key it reads, so every
//! answer can be checked — and it is required: `ShardedStore::get` reads the
//! token after dropping the shard lock and would panic if another thread
//! resized the same key in between (a known limitation of the store, noted in
//! README.md, not worked around anywhere else).

use super::{
    last_quarter_mean, merge_trace, panic_text, report_runtime_counts, report_units, tracer_for,
    verify_runtime, DefragTotals, Outcome, Unit, BATCH_OPS, FULL_CHECK_EVERY, LATENCY_SAMPLE_EVERY,
    SETUP_REPEATS,
};
use crate::gen::{check_full, check_stamp, fill_value, mix64, Rng, Zipfian};
use crate::stats::{median, Latencies};
use crate::trace::{span, ThreadTracer, Trace};
use alaska::AlaskaBuilder;
use alaska_kvstore::ShardedStore;
use alaska_runtime::Runtime;
use alaska_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Records preloaded.  Small on purpose: with ten times as many the working
/// set leaves the core's cache, and on the shared reference host the speed of
/// everything beyond it moves with the neighbours (15 % run to run against
/// 4 % at this size).
pub const RECORDS: u64 = 20_000;
pub const SHARDS: usize = 16;
pub const THREADS: usize = 2;
pub const ZIPF_THETA: f64 = 0.99;

/// Pauses per second of `--seconds` in `kv_pause` (1 000 at the default 20 s,
/// so `pause_p95_us` has 50 samples beyond it).
pub const PAUSES_PER_SECOND: f64 = 50.0;
/// Ops thread 0 issues between two `defragment` calls.  Calibrated so that
/// 1 000 pauses and the ops between them take about 18 s on the 2-core
/// reference host at the seed commit.
pub const OPS_PER_PAUSE: u64 = 8_000;
/// Copy budget handed to each `defragment` call.
pub const PAUSE_BUDGET_BYTES: u64 = 512 * 1024;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sizing {
    /// Every value has this length; a `set` overwrites in place.
    Fixed(usize),
    /// Length `min + hash(key, generation) % span`; a `set` almost always
    /// changes the length, so it allocates, writes and frees.
    Hashed { min: usize, span: usize },
}

impl Sizing {
    pub fn len(self, key: u64, generation: u32) -> usize {
        match self {
            Sizing::Fixed(n) => n,
            Sizing::Hashed { min, span } => {
                min + (mix64(key.wrapping_mul(31) ^ generation as u64) % span as u64) as usize
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Until {
    /// Start no new batch after this much wall time.
    Elapsed(Duration),
    /// Thread 0 stops the run after this many pauses.
    Pauses(u64),
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub set_share: f64,
    pub sizing: Sizing,
    /// Thread 0 calls `defragment` every this many of its own ops.
    pub pause_every: Option<u64>,
    pub until: Until,
}

impl Params {
    pub fn read_heavy(seconds: f64) -> Params {
        Params {
            set_share: 0.05,
            sizing: Sizing::Fixed(128),
            pause_every: None,
            until: Until::Elapsed(Duration::from_secs_f64(seconds)),
        }
    }

    pub fn pause(seconds: f64) -> Params {
        Params {
            set_share: 0.5,
            sizing: Sizing::Hashed { min: 64, span: 448 },
            pause_every: Some(OPS_PER_PAUSE),
            until: Until::Pauses((seconds * PAUSES_PER_SECOND).round().max(1.0) as u64),
        }
    }
}

/// The keys one thread owns and the generation each currently holds.
#[derive(Debug, Clone)]
pub struct Partition {
    thread: usize,
    generations: Vec<u32>,
}

impl Partition {
    pub fn new(thread: usize) -> Self {
        let keys = (RECORDS as usize - thread).div_ceil(THREADS);
        Partition { thread, generations: vec![0; keys] }
    }

    fn key(&self, index: usize) -> u64 {
        (index * THREADS + self.thread) as u64
    }
}

const GET: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u64,
    /// Generation a `get` must observe, or a `set` installs.
    pub generation: u32,
    pub len: u32,
    /// Offset of a `set`'s bytes in the batch arena; `GET` for a `get`.
    offset: u32,
}

impl Op {
    pub fn is_get(&self) -> bool {
        self.offset == GET
    }
}

/// One thread's op stream.
pub struct Stream {
    rng: Rng,
    zipf: Zipfian,
    params: Params,
    pub partition: Partition,
    pub ops: Vec<Op>,
    arena: Vec<u8>,
    /// Net change in live value bytes the current batch causes.
    pub live_delta: i64,
}

impl Stream {
    pub fn new(seed: u64, thread: usize, params: Params) -> Self {
        let partition = Partition::new(thread);
        Stream {
            rng: Rng::new(seed, 0x10 + thread as u64),
            zipf: Zipfian::new(partition.generations.len() as u64, ZIPF_THETA),
            params,
            partition,
            ops: Vec::with_capacity(BATCH_OPS),
            arena: Vec::new(),
            live_delta: 0,
        }
    }

    /// Replace the current batch with the next `n` ops.
    pub fn next_batch(&mut self, n: usize) {
        self.ops.clear();
        self.arena.clear();
        self.live_delta = 0;
        for _ in 0..n {
            let index = self.zipf.sample_scrambled(&mut self.rng) as usize;
            let key = self.partition.key(index);
            let generation = self.partition.generations[index];
            let len = self.params.sizing.len(key, generation);
            if self.rng.next_f64() >= self.params.set_share {
                self.ops.push(Op { key, generation, len: len as u32, offset: GET });
                continue;
            }
            let generation = generation + 1;
            let new_len = self.params.sizing.len(key, generation);
            let offset = self.arena.len();
            self.arena.resize(offset + new_len, 0);
            fill_value(&mut self.arena[offset..], key, generation);
            self.partition.generations[index] = generation;
            self.live_delta += new_len as i64 - len as i64;
            self.ops.push(Op { key, generation, len: new_len as u32, offset: offset as u32 });
        }
    }

    fn value(&self, op: &Op) -> &[u8] {
        &self.arena[op.offset as usize..op.offset as usize + op.len as usize]
    }
}

/// The runtime, the store over it and the key partitions after preloading.
pub struct Loaded {
    pub rt: Arc<Runtime>,
    pub store: ShardedStore,
    pub live_bytes: i64,
    pub hub: Option<Arc<Telemetry>>,
}

/// Build an Anchorage runtime and preload every record at generation 0.
///
/// The loading thread registers with the runtime and *drops the registration
/// before returning*: a registered but idle thread never reaches a safepoint,
/// so every later pause would wait out all three 100 ms watchdog attempts.
pub fn load(sizing: Sizing, with_hub: bool) -> Loaded {
    let hub = with_hub.then(|| Arc::new(Telemetry::new()));
    let mut builder = AlaskaBuilder::new().with_anchorage();
    if let Some(hub) = &hub {
        builder = builder.with_telemetry(hub.clone());
    }
    let rt = Arc::new(builder.build());
    let store = ShardedStore::new(rt.clone(), SHARDS);
    let mut live_bytes = 0i64;
    {
        let _registered = rt.register_current_thread();
        let mut buf = Vec::new();
        for key in 0..RECORDS {
            let len = sizing.len(key, 0);
            buf.resize(len, 0);
            fill_value(&mut buf, key, 0);
            store.set(key, &buf);
            live_bytes += len as i64;
        }
    }
    assert_eq!(rt.registered_threads(), 0, "the loader must not stay registered");
    Loaded { rt, store, live_bytes, hub }
}

/// What one worker thread measured.
#[derive(Default)]
struct WorkerResult {
    /// One unit per batch.
    units: Vec<Unit>,
    /// Every sampled latency of the pass, for the 99.9th percentile.
    latencies_ns: Vec<u32>,
    rss_per_live: Vec<f64>,
    ops: u64,
    failed: u64,
    pauses: DefragTotals,
    generations: Vec<u32>,
    tracer: Option<ThreadTracer>,
}

struct Shared<'a> {
    loaded: &'a Loaded,
    params: Params,
    live_bytes: AtomicI64,
    stop: AtomicBool,
    start: Barrier,
}

fn worker(
    shared: &Shared<'_>,
    seed: u64,
    thread: usize,
    tracer: Option<ThreadTracer>,
) -> WorkerResult {
    let Shared { loaded, params, .. } = shared;
    let rt = &loaded.rt;
    let mut res = WorkerResult { tracer, ..Default::default() };
    let mut stream = Stream::new(seed, thread, *params);
    let mut deferred: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut samples_ns: Vec<u64> = Vec::new();
    let pause_every = params.pause_every.filter(|_| thread == 0);
    let pause_limit = match params.until {
        Until::Pauses(n) => n,
        Until::Elapsed(_) => u64::MAX,
    };
    let mut since_pause = 0u64;

    let _registered = rt.register_current_thread();
    // Not at a safepoint while waiting or generating: tell barriers not to
    // wait for this thread then.
    rt.external_begin();
    stream.next_batch(BATCH_OPS);
    shared.start.wait();
    let began = Instant::now();
    if let Some(t) = res.tracer.as_mut() {
        t.enter("workload", thread as u64);
    }

    'run: loop {
        rt.external_end();
        if let Some(t) = res.tracer.as_mut() {
            t.enter("batch", res.units.len() as u64);
        }
        let mut done = 0u64;
        let timer = Instant::now();
        for (i, op) in stream.ops.iter().enumerate() {
            if i % 1024 == 0 && shared.stop.load(Ordering::Relaxed) {
                break;
            }
            let sampled = (i % LATENCY_SAMPLE_EVERY == 0).then(Instant::now);
            let request = res.ops + done;
            if op.is_get() {
                let got =
                    span(res.tracer.as_mut(), "kvstore.get", request, || loaded.store.get(op.key));
                match got {
                    Some(v) if check_stamp(&v, op.key, op.generation, op.len as usize) => {
                        if i % FULL_CHECK_EVERY == 0 {
                            deferred.push((i, v));
                        }
                    }
                    _ => res.failed += 1,
                }
            } else {
                span(res.tracer.as_mut(), "kvstore.set", request, || {
                    loaded.store.set(op.key, stream.value(op))
                });
            }
            if let Some(at) = sampled {
                samples_ns.push(at.elapsed().as_nanos() as u64);
            }
            done += 1;
            since_pause += 1;
            if pause_every == Some(since_pause) {
                since_pause = 0;
                let request = res.pauses.passes();
                res.pauses.timed(res.tracer.as_mut(), "runtime.defragment", request, || {
                    Some(rt.defragment(Some(PAUSE_BUDGET_BYTES)))
                });
                if res.pauses.passes() >= pause_limit {
                    shared.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        let elapsed = timer.elapsed().as_secs_f64();
        if let Some(t) = res.tracer.as_mut() {
            t.exit();
            t.count("ops", done);
        }
        rt.external_begin();
        res.latencies_ns.extend(samples_ns.iter().map(|&ns| ns.min(u32::MAX as u64) as u32));
        res.units.push(Unit::close(done, elapsed, &mut samples_ns));
        res.ops += done;

        for (i, value) in deferred.drain(..) {
            let op = &stream.ops[i];
            res.failed += !check_full(&value, op.key, op.generation, op.len as usize) as u64;
        }
        let partial = (done as usize) < stream.ops.len();
        if partial {
            // Roll back the generations of the sets that never ran, so the
            // final sweep expects what the store really holds.
            for op in stream.ops[done as usize..].iter().rev().filter(|op| !op.is_get()) {
                let index = (op.key as usize - thread) / THREADS;
                stream.partition.generations[index] = op.generation - 1;
            }
        } else {
            let live = shared.live_bytes.fetch_add(stream.live_delta, Ordering::Relaxed)
                + stream.live_delta;
            if thread == 0 {
                res.rss_per_live.push(rt.rss_bytes() as f64 / live.max(1) as f64);
            }
        }
        let out_of_time = match params.until {
            Until::Elapsed(limit) => began.elapsed() >= limit,
            Until::Pauses(_) => false,
        };
        if partial || out_of_time || shared.stop.load(Ordering::Relaxed) {
            break 'run;
        }
        stream.next_batch(BATCH_OPS);
    }
    if let Some(t) = res.tracer.as_mut() {
        t.exit();
    }
    res.generations = stream.partition.generations;
    res
}

/// Read every key in full and compare it with what its owner last wrote.
fn final_sweep(loaded: &Loaded, sizing: Sizing, generations: &[Vec<u32>]) -> (u64, u64) {
    let _registered = loaded.rt.register_current_thread();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (thread, gens) in generations.iter().enumerate() {
        for (index, &generation) in gens.iter().enumerate() {
            let key = (index * THREADS + thread) as u64;
            let len = sizing.len(key, generation);
            attempted += 1;
            let ok = loaded.store.get(key).is_some_and(|v| check_full(&v, key, generation, len));
            failed += !ok as u64;
        }
    }
    (attempted, failed)
}

/// Run one pass of a sharded-store workload.
pub fn run(seed: u64, params: Params, traced: bool) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPEATS {
        drop(loaded.take());
        let timer = Instant::now();
        loaded = Some(load(params.sizing, traced));
        setup_s.push(timer.elapsed().as_secs_f64());
    }
    let loaded = loaded.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));

    let before = loaded.rt.stats();
    let vm_before = loaded.rt.vm().stats();
    let shared = Shared {
        loaded: &loaded,
        params,
        live_bytes: AtomicI64::new(loaded.live_bytes),
        stop: AtomicBool::new(false),
        start: Barrier::new(THREADS),
    };
    let epoch = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let shared = &shared;
                let tracer = tracer_for(traced, epoch, thread);
                scope.spawn(move || {
                    let res =
                        catch_unwind(AssertUnwindSafe(|| worker(shared, seed, thread, tracer)));
                    if res.is_err() {
                        // Let the peer stop instead of waiting for pauses that
                        // will never come.
                        shared.stop.store(true, Ordering::Relaxed);
                    }
                    res
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .filter_map(|(thread, h)| match h.join().expect("worker thread itself never panics") {
                Ok(res) => Some(res),
                Err(payload) => {
                    out.failed += 1;
                    out.invalid.push(format!("worker {thread} panicked: {}", panic_text(payload)));
                    None
                }
            })
            .collect()
    });

    let ops: u64 = results.iter().map(|r| r.ops).sum();
    out.attempted = ops;
    out.failed += results.iter().map(|r| r.failed).sum::<u64>();
    report_runtime_counts(&mut out, &loaded.rt, &before, &vm_before, ops);

    if results.len() == THREADS {
        let generations: Vec<Vec<u32>> = results.iter().map(|r| r.generations.clone()).collect();
        let (swept, wrong) = final_sweep(&loaded, params.sizing, &generations);
        out.attempted += swept;
        out.failed += wrong;
    }
    verify_runtime(&mut out, &loaded.rt);

    report_units(&mut out, &results.iter().map(|r| r.units.as_slice()).collect::<Vec<_>>());
    let lat = Latencies::from_samples(results.iter().map(|r| r.latencies_ns.clone()));
    out.set("kvstore.op_p999_us", lat.supported_percentile_us(99.9).unwrap_or(0.0));
    if let Some(r0) = results.first() {
        out.set("rss_per_live_byte", last_quarter_mean(&r0.rss_per_live));
        r0.pauses.report(&mut out);
        if let Until::Pauses(want) = params.until {
            if r0.pauses.passes() != want {
                out.invalid.push(format!("{} pauses ran, {want} wanted", r0.pauses.passes()));
            }
        }
    }
    out.set("failed_ops_share", out.failed as f64 / out.attempted.max(1) as f64);
    out.set("ops", ops as f64);
    if let Some(hub) = &loaded.hub {
        let waits = hub.registry().histogram(alaska_runtime::telemetry_names::BARRIER_STOP_WAIT_NS);
        if waits.count() > 0 {
            out.set("runtime.stop_wait_us_per_pause", waits.mean() / 1e3);
        }
    }

    let delta = loaded.rt.stats().since(&before);
    let trace =
        traced.then(|| merge_trace(results.into_iter().filter_map(|r| r.tracer).collect(), &delta));
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StreamHash;

    fn stream_hash(seed: u64, params: Params) -> u64 {
        let mut h = StreamHash::default();
        for thread in 0..THREADS {
            let mut s = Stream::new(seed, thread, params);
            for _ in 0..2 {
                s.next_batch(4096);
                for op in &s.ops {
                    h.push(op.key);
                    h.push(((op.generation as u64) << 32) | op.len as u64);
                    h.push(op.is_get() as u64);
                    if !op.is_get() {
                        h.push(mix64(s.value(op).iter().map(|&b| b as u64).sum()));
                    }
                }
            }
        }
        h.0
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_another_seed_another() {
        for params in [Params::read_heavy(1.0), Params::pause(1.0)] {
            assert_eq!(stream_hash(5, params), stream_hash(5, params));
            assert_ne!(stream_hash(5, params), stream_hash(6, params));
        }
    }

    #[test]
    fn streams_stay_in_their_partition_and_track_generations() {
        let params = Params::pause(1.0);
        for thread in 0..THREADS {
            let mut s = Stream::new(9, thread, params);
            s.next_batch(20_000);
            let mut sets = 0;
            for op in &s.ops {
                assert_eq!(op.key as usize % THREADS, thread);
                assert!(op.key < RECORDS);
                assert!((64..512).contains(&(op.len as usize)));
                assert_eq!(op.len as usize, params.sizing.len(op.key, op.generation));
                sets += !op.is_get() as usize;
            }
            let share = sets as f64 / s.ops.len() as f64;
            assert!((0.47..0.53).contains(&share), "set share {share}");
        }
        let partitions: usize = (0..THREADS).map(|t| Partition::new(t).generations.len()).sum();
        assert_eq!(partitions as u64, RECORDS);
    }

    #[test]
    fn read_heavy_sets_keep_the_length() {
        let mut s = Stream::new(1, 0, Params::read_heavy(1.0));
        s.next_batch(10_000);
        assert!(s.ops.iter().all(|op| op.len == 128));
        assert_eq!(s.live_delta, 0);
        let sets = s.ops.iter().filter(|op| !op.is_get()).count();
        assert!((300..700).contains(&sets), "{sets} sets in 10 000 ops at 5 %");
    }
}
