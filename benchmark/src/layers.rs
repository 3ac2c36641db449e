//! Isolated timed loops over each crate's public functions.
//!
//! Measured from outside: no product code is instrumented.  Each loop uses
//! the value sizes and handle counts of the workloads, runs on one thread
//! unless its name ends in `_t2`, and reports the median of [`REPEATS`]
//! repeats of about [`TARGET`] each.  README.md says which end-to-end metric
//! each of these is expected to move, on which workload.

use crate::gen::{Rng, Zipfian};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::{ThreadTracer, Trace};
use crate::workloads::compile_run::{self, compile_by_pass, config_for};
use crate::workloads::kv_sharded::{self, Sizing, RECORDS, THREADS, ZIPF_THETA};
use alaska::AlaskaBuilder;
use alaska_anchorage::subheap::SubHeap;
use alaska_anchorage::{AnchorageService, ControlAlgorithm, ControlParams};
use alaska_compiler::compile_module;
use alaska_heap::freelist::FreeListAllocator;
use alaska_heap::mesh::MeshAllocator;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_heap::BackingAllocator;
use alaska_ir::cfg::Cfg;
use alaska_ir::dom::DominatorTree;
use alaska_ir::liveness::Liveness;
use alaska_ir::loops::LoopForest;
use alaska_ir::verify::verify_module;
use alaska_kvstore::{HandleStorage, RedisLike};
use alaska_runtime::{HandleId, Runtime, Service};
use alaska_telemetry::Telemetry;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const REPEATS: usize = 9;
pub const TARGET: Duration = Duration::from_millis(20);
/// Objects a loop cycles through, so it does not sit on one cache line.
const SET: usize = 4096;

/// Median nanoseconds per call of `op`.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut iters = 64u64;
    let iters = loop {
        let timer = Instant::now();
        for _ in 0..iters {
            op();
        }
        let took = timer.elapsed();
        if took >= TARGET / 4 {
            break ((iters as f64 * TARGET.as_secs_f64() / took.as_secs_f64()).ceil() as u64)
                .max(1);
        }
        iters *= 4;
    };
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let timer = Instant::now();
            for _ in 0..iters {
                op();
            }
            timer.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median milliseconds per call of a slow `op` (called `REPEATS` times).
fn ms_per_call(mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let timer = Instant::now();
            op();
            timer.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Median summed rate, in Mops/s, of `threads` threads each running
/// `body(thread, iters)` after a common start.
fn mops(threads: usize, iters: u64, body: impl Fn(usize, u64) + Sync) -> f64 {
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Barrier::new(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (start, body) = (&start, &body);
                        scope.spawn(move || {
                            start.wait();
                            let timer = Instant::now();
                            body(t, iters);
                            iters as f64 / timer.elapsed().as_secs_f64() / 1e6
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("rate thread")).sum::<f64>()
            })
        })
        .collect();
    median(&rates)
}

fn anchorage_runtime() -> Runtime {
    AlaskaBuilder::new().with_anchorage().build()
}

fn cycle(i: &mut usize) -> usize {
    *i = (*i + 1) % SET;
    *i
}

fn runtime_layer(v: &mut Values) {
    let rt = anchorage_runtime();
    let registered = rt.register_current_thread();
    let handles: Vec<u64> = (0..SET).map(|_| rt.halloc(128).expect("halloc")).collect();
    let mut buf = [7u8; 128];
    for &h in &handles {
        rt.write_bytes(h, 0, &buf);
    }
    let mut i = 0;

    v.insert(
        "runtime.translate_ns",
        ns_per_op(|| {
            black_box(rt.translate(black_box(handles[cycle(&mut i)])).expect("live handle"));
        }),
    );
    v.insert(
        "runtime.translate_raw_ns",
        ns_per_op(|| {
            black_box(
                rt.translate(black_box(0x10_0000 + cycle(&mut i) as u64)).expect("raw pointer"),
            );
        }),
    );
    rt.enable_handle_faults(true);
    v.insert(
        "runtime.translate_faultcheck_ns",
        ns_per_op(|| {
            black_box(rt.translate(black_box(handles[cycle(&mut i)])).expect("live handle"));
        }),
    );
    rt.enable_handle_faults(false);
    v.insert(
        "runtime.pin_unpin_ns",
        ns_per_op(|| {
            black_box(rt.pin(black_box(handles[cycle(&mut i)])).expect("live handle").addr());
        }),
    );
    v.insert("runtime.safepoint_ns", ns_per_op(|| rt.safepoint()));
    v.insert(
        "runtime.read_bytes_128_ns",
        ns_per_op(|| {
            rt.read_bytes(handles[cycle(&mut i)], 0, black_box(&mut buf));
        }),
    );
    v.insert(
        "runtime.write_bytes_128_ns",
        ns_per_op(|| {
            rt.write_bytes(handles[cycle(&mut i)], 0, black_box(&buf));
        }),
    );
    v.insert(
        "runtime.read_u64_ns",
        ns_per_op(|| {
            black_box(rt.read_u64(handles[cycle(&mut i)], 8));
        }),
    );
    v.insert(
        "runtime.pin_frame_roundtrip_ns",
        ns_per_op(|| {
            rt.push_pin_frame("f", 4);
            black_box(rt.translate_into_slot(handles[cycle(&mut i)], 0).expect("live handle"));
            rt.release_slot(0);
            rt.pop_pin_frame();
        }),
    );
    v.insert(
        "runtime.halloc_hfree_64_anchorage_ns",
        ns_per_op(|| {
            rt.hfree(black_box(rt.halloc(64).expect("halloc"))).expect("hfree");
        }),
    );
    let mut burst = [0u64; 16];
    v.insert(
        "runtime.halloc_hfree_burst16_ns",
        ns_per_op(|| {
            for slot in &mut burst {
                *slot = rt.halloc(64).expect("halloc");
            }
            for &h in &burst {
                rt.hfree(h).expect("hfree");
            }
        }) / 16.0,
    );
    // Mean of a 64 -> 256 byte grow and the shrink back.
    let mut h = rt.halloc(64).expect("halloc");
    v.insert(
        "runtime.hrealloc_grow_ns",
        ns_per_op(|| {
            h = rt.hrealloc(h, 256).expect("grow");
            h = rt.hrealloc(h, 64).expect("shrink");
        }) / 2.0,
    );
    v.insert(
        "runtime.stats_snapshot_us",
        ns_per_op(|| {
            black_box(rt.stats());
        }) / 1e3,
    );
    v.insert("runtime.barrier_empty_t1_us", ns_per_op(|| rt.with_stopped_world(|_| ())) / 1e3);

    // The same with one mutator that has to be stopped at a safepoint.
    let stop = AtomicBool::new(false);
    let ready = Barrier::new(2);
    v.insert(
        "runtime.barrier_empty_t2_us",
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _registered = rt.register_current_thread();
                ready.wait();
                while !stop.load(Ordering::Relaxed) {
                    rt.safepoint();
                }
            });
            ready.wait();
            let us = ns_per_op(|| rt.with_stopped_world(|_| ())) / 1e3;
            stop.store(true, Ordering::Relaxed);
            us
        }),
    );
    drop(registered);

    let translate_loop = |t: usize, iters: u64| {
        let _registered = rt.register_current_thread();
        let mut i = t * (SET / 2);
        for _ in 0..iters {
            black_box(rt.translate(black_box(handles[cycle(&mut i)])).expect("live handle"));
        }
    };
    let t1 = mops(1, 500_000, translate_loop);
    let t2 = mops(2, 500_000, translate_loop);
    v.insert("runtime.translate_t2_mops", t2);
    v.insert("runtime.translate_scaling_t2_x", t2 / t1);
    v.insert(
        "runtime.halloc_hfree_t2_mops",
        mops(2, 100_000, |_, iters| {
            let _registered = rt.register_current_thread();
            for _ in 0..iters {
                rt.hfree(black_box(rt.halloc(64).expect("halloc"))).expect("hfree");
            }
        }),
    );

    let malloc_rt = Runtime::with_malloc_service();
    let _registered = malloc_rt.register_current_thread();
    v.insert(
        "runtime.halloc_hfree_64_malloc_ns",
        ns_per_op(|| {
            malloc_rt.hfree(black_box(malloc_rt.halloc(64).expect("halloc"))).expect("hfree");
        }),
    );
}

fn heap_layer(v: &mut Values) {
    let vm = VirtualMemory::default();
    let maps = [vm.map((SET * 128) as u64), vm.map((SET * 128) as u64)];
    let mut buf = [3u8; 128];
    for base in maps {
        vm.fill(base, 1, SET * 128);
    }
    let addr = |map: usize, i: usize| maps[map].add((i * 128) as u64);
    let mut i = 0;
    v.insert(
        "heap.vmem_read_128_ns",
        ns_per_op(|| {
            vm.read_bytes(addr(0, cycle(&mut i)), black_box(&mut buf));
        }),
    );
    v.insert(
        "heap.vmem_write_128_ns",
        ns_per_op(|| {
            vm.write_bytes(addr(0, cycle(&mut i)), black_box(&buf));
        }),
    );
    v.insert(
        "heap.vmem_read_u64_ns",
        ns_per_op(|| {
            black_box(vm.read_u64(addr(0, cycle(&mut i))));
        }),
    );
    let read_loop = |t: usize, iters: u64| {
        let (mut i, mut buf) = (0, [0u8; 128]);
        for _ in 0..iters {
            vm.read_bytes(addr(t, cycle(&mut i)), black_box(&mut buf));
        }
    };
    let t1 = mops(1, 300_000, read_loop);
    let t2 = mops(2, 300_000, read_loop);
    v.insert("heap.vmem_read_t2_mops", t2);
    v.insert("heap.vmem_read_scaling_t2_x", t2 / t1);
    // One reader and one writer on disjoint mappings: any slowdown against
    // the one-thread rates is the address space's global lock.
    v.insert(
        "heap.vmem_mixed_rw_t2_mops",
        mops(2, 300_000, |t, iters| {
            let (mut i, mut buf) = (0, [5u8; 128]);
            for _ in 0..iters {
                if t == 0 {
                    vm.read_bytes(addr(0, cycle(&mut i)), black_box(&mut buf));
                } else {
                    vm.write_bytes(addr(1, cycle(&mut i)), black_box(&buf));
                }
            }
        }),
    );

    const MB: usize = 1 << 20;
    let (src, dst) = (vm.map(MB as u64), vm.map(MB as u64));
    vm.fill(src, 9, MB);
    vm.fill(dst, 0, MB);
    v.insert(
        "heap.vmem_copy_4k_ns",
        ns_per_op(|| {
            let off = (cycle(&mut i) % 256 * 4096) as u64;
            vm.copy(src.add(off), dst.add(off), 4096);
        }),
    );
    // bytes per ns * 1e3 = MB/s
    v.insert("heap.vmem_copy_mb_s", MB as f64 / ns_per_op(|| vm.copy(src, dst, MB)) * 1e3);

    // First touch commits a page; madvise gives 16 of them back per call.
    const PAGES: u64 = 256;
    let region = vm.map(PAGES * 4096);
    let (mut touch, mut advise) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS * 4 {
        let timer = Instant::now();
        for p in 0..PAGES {
            vm.write_u8(region.add(p * 4096), 1);
        }
        touch.push(timer.elapsed().as_nanos() as f64 / PAGES as f64);
        let timer = Instant::now();
        for call in 0..PAGES / 16 {
            vm.madvise_dontneed(region.add(call * 16 * 4096), 16 * 4096);
        }
        advise.push(timer.elapsed().as_nanos() as f64 / (PAGES / 16) as f64 / 1e3);
    }
    v.insert("heap.vmem_first_touch_ns", median(&touch));
    v.insert("heap.vmem_madvise_us", median(&advise));

    let alloc_free = |alloc: &mut dyn BackingAllocator| {
        let _neighbours: Vec<VirtAddr> =
            (0..1024).map(|n| alloc.alloc(64 + n % 448).expect("alloc")).collect();
        ns_per_op(|| {
            let a = alloc.alloc(black_box(64)).expect("alloc");
            alloc.free(a);
        })
    };
    let fvm = VirtualMemory::default();
    v.insert("heap.freelist_alloc_free_ns", alloc_free(&mut FreeListAllocator::new(fvm)));
    let mvm = VirtualMemory::default();
    v.insert("heap.mesh_alloc_free_ns", alloc_free(&mut MeshAllocator::new(mvm)));
}

fn anchorage_layer(v: &mut Values) {
    let vm = VirtualMemory::default();
    let mut service = AnchorageService::new(vm.clone());
    let residents: Vec<_> = (0..1024u32)
        .map(|id| service.alloc(64 + id as usize % 448, HandleId(id)).expect("alloc"))
        .collect();
    black_box(&residents);
    let id = HandleId(1 << 20);
    v.insert(
        "anchorage.alloc_free_ns",
        ns_per_op(|| {
            let addr = service.alloc(black_box(64), id).expect("alloc");
            service.free(id, addr, 64);
        }),
    );

    let mut subheap = SubHeap::new(0, &vm, 1 << 20);
    v.insert(
        "anchorage.subheap_alloc_free_ns",
        ns_per_op(|| {
            let addr = subheap.alloc(black_box(64)).expect("alloc");
            subheap.free(addr, 64);
        }),
    );

    // A tick on a compact heap: the controller looks and decides not to run.
    let rt = anchorage_runtime();
    let _registered = rt.register_current_thread();
    let _live: Vec<u64> = (0..SET).map(|_| rt.halloc(128).expect("halloc")).collect();
    let mut control = ControlAlgorithm::new(ControlParams::default());
    let mut now_ms = 0;
    v.insert(
        "anchorage.control_tick_idle_ns",
        ns_per_op(|| {
            now_ms += 1;
            assert!(control.tick(&rt, now_ms).is_none(), "a compact heap needs no pass");
        }),
    );
}

fn kvstore_layer(v: &mut Values) {
    let zipf = Zipfian::new(RECORDS / THREADS as u64, ZIPF_THETA);
    let mut rng = Rng::new(1, 0x40);
    // Keys drawn as the workloads draw them, per thread partition.
    let keys: Vec<Vec<u64>> = (0..THREADS as u64)
        .map(|t| (0..SET).map(|_| zipf.sample_scrambled(&mut rng) * THREADS as u64 + t).collect())
        .collect();
    let (small, large) = ([1u8; 128], [2u8; 256]);

    // With and without a telemetry hub installed, in alternating rounds so
    // that drift of the host hits both sides alike.
    let stores =
        [kv_sharded::load(Sizing::Fixed(128), false), kv_sharded::load(Sizing::Fixed(128), true)];
    let mut rounds = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (loaded, round) in stores.iter().zip(&mut rounds) {
            let _registered = loaded.rt.register_current_thread();
            let mut i = 0;
            round.push(ns_per_op(|| {
                black_box(loaded.store.get(keys[0][cycle(&mut i)]));
            }));
        }
    }
    let [plain_get, hub_get] = rounds.map(|r| median(&r));
    v.insert("kvstore.sharded_get_ns", plain_get);
    v.insert("telemetry.hub_get_overhead_ns", hub_get - plain_get);

    let [loaded, _] = stores;
    {
        let _registered = loaded.rt.register_current_thread();
        let mut i = 0;
        v.insert(
            "kvstore.sharded_set_inplace_ns",
            ns_per_op(|| {
                loaded.store.set(keys[0][cycle(&mut i)], black_box(&small));
            }),
        );
        // Alternating lengths: every set allocates, writes and frees.
        let mut flip = false;
        v.insert(
            "kvstore.sharded_set_resize_ns",
            ns_per_op(|| {
                if cycle(&mut i) == 0 {
                    flip = !flip;
                }
                let key = (i * THREADS) as u64;
                loaded.store.set(key, if flip { &large[..] } else { &small[..] });
            }),
        );
    }
    v.insert(
        "kvstore.sharded_get_t2_mops",
        mops(2, 200_000, |t, iters| {
            let _registered = loaded.rt.register_current_thread();
            let mut i = 0;
            for _ in 0..iters {
                black_box(loaded.store.get(keys[t][cycle(&mut i)]));
            }
        }),
    );

    let redis = |maxmemory: u64| {
        let rt = Arc::new(anchorage_runtime());
        RedisLike::new(HandleStorage::new(rt), maxmemory)
    };
    let mut store = redis(u64::MAX);
    for key in 0..SET as u64 {
        store.set(key, &large);
    }
    let mut i = 0;
    v.insert(
        "kvstore.redis_set_ns",
        ns_per_op(|| {
            black_box(store.set(cycle(&mut i) as u64, black_box(&large)));
        }),
    );
    v.insert(
        "kvstore.redis_get_ns",
        ns_per_op(|| {
            black_box(store.get(cycle(&mut i) as u64));
        }),
    );
    // A full store and always-new keys: every set evicts the LRU entry.
    let mut full = redis(SET as u64 * (256 + 64));
    let mut next_key = 0u64;
    v.insert(
        "kvstore.redis_set_evicting_ns",
        ns_per_op(|| {
            next_key += 1;
            black_box(full.set(next_key, black_box(&large)));
        }),
    );
}

fn compiler_layer(v: &mut Values) {
    v.insert(
        "benchsuite.build_all_ms",
        ms_per_call(|| {
            black_box(compile_run::build_all(None));
        }),
    );
    let modules = compile_run::build_all(None);
    let compile_all = || -> Vec<_> {
        modules.iter().map(|(name, m)| compile_module(m, &config_for(name)).0).collect()
    };
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let timer = Instant::now();
            black_box(compile_all());
            timer.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    v.insert("compiler.compile_all_ms", median(&samples));

    // Each public pass over all modules, from the spans `compile_by_pass`
    // opens around them.
    let rounds: Vec<Trace> = (0..REPEATS)
        .map(|_| {
            let mut tracer = ThreadTracer::new(Instant::now(), 0);
            for (i, (name, m)) in modules.iter().enumerate() {
                compile_by_pass(m, config_for(name).hoisting, i as u64, &mut tracer);
            }
            Trace::merge(vec![tracer])
        })
        .collect();
    for (metric, span) in [
        ("compiler.alloc_replace_ms", "compiler.alloc_replace"),
        ("compiler.translate_insert_ms", "compiler.translate_insert"),
        ("compiler.escape_ms", "compiler.escape"),
        ("compiler.tracking_ms", "compiler.tracking"),
        ("compiler.safepoints_ms", "compiler.safepoints"),
        ("compiler.dce_ms", "compiler.dce"),
    ] {
        let ms: Vec<f64> = rounds.iter().map(|r| r.totals_of(span).total_ns as f64 / 1e6).collect();
        v.insert(metric, median(&ms));
    }

    let transformed = compile_all();
    v.insert(
        "ir.verify_all_ms",
        ms_per_call(|| {
            for m in &transformed {
                verify_module(m).expect("transformed module verifies");
            }
        }),
    );
    let functions = || transformed.iter().flat_map(|m| m.functions());
    v.insert(
        "ir.liveness_all_ms",
        ms_per_call(|| {
            for f in functions() {
                black_box(Liveness::build(f, &Cfg::build(f)));
            }
        }),
    );
    v.insert(
        "ir.dom_loops_all_ms",
        ms_per_call(|| {
            for f in functions() {
                let cfg = Cfg::build(f);
                let dom = DominatorTree::build(f, &cfg);
                black_box(LoopForest::build(f, &cfg, &dom));
            }
        }),
    );
}

fn telemetry_layer(v: &mut Values) {
    let hub = Telemetry::new();
    let counter = hub.registry().counter("benchmark_counter");
    let histogram = hub.registry().histogram("benchmark_histogram");
    v.insert("telemetry.counter_inc_ns", ns_per_op(|| counter.inc()));
    let mut x = 1u64;
    v.insert(
        "telemetry.histogram_record_ns",
        ns_per_op(|| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(black_box(x >> 44));
        }),
    );
    v.insert(
        "faultline.hit_unarmed_ns",
        ns_per_op(|| {
            black_box(alaska_faultline::hit(black_box("benchmark.unarmed")));
        }),
    );
}

/// Walk a table of 200 000 live handles, as the workloads' final check does.
fn invariants_layer(v: &mut Values) {
    let loaded = kv_sharded::load(Sizing::Fixed(128), false);
    v.insert(
        "runtime.verify_invariants_ms",
        ms_per_call(|| {
            loaded.rt.verify_table_invariants().expect("invariants hold");
        }),
    );
}

/// Run every isolated loop.
pub fn measure_all() -> Values {
    let mut v = Values::new();
    runtime_layer(&mut v);
    heap_layer(&mut v);
    anchorage_layer(&mut v);
    kvstore_layer(&mut v);
    compiler_layer(&mut v);
    telemetry_layer(&mut v);
    invariants_layer(&mut v);
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let below_store =
        get("runtime.pin_unpin_ns") + get("heap.vmem_read_128_ns") + get("runtime.safepoint_ns");
    v.insert("kvstore.self_ns_per_get", get("kvstore.sharded_get_ns") - below_store);
    v
}

/// For one op of `workload`: how often each layer is entered (counted around
/// the workload), what one entry costs alone (the loops above), and the share
/// of the op's time that product would explain.  An estimate: isolated costs
/// leave out contention and cache misses, which is exactly what the gap to
/// 100 % shows.
pub fn share_table(workload: &str, run: &Values, layers: &Values) -> String {
    use std::fmt::Write as _;
    let get = |vals: &Values, name: &str| vals.get(name).copied().unwrap_or(0.0);
    let threads = if workload.starts_with("kv_") && workload != "kv_churn" { THREADS } else { 1 };
    let op_ns = threads as f64 * 1e9 / get(run, "throughput_ops_s").max(1.0);
    let per_op = |name: &str| get(run, name) / 1000.0;
    let access_ns =
        (get(layers, "heap.vmem_read_128_ns") + get(layers, "heap.vmem_write_128_ns")) / 2.0;
    let rows: Vec<(&str, f64, f64)> = if workload == "compile_run" {
        vec![
            (
                "runtime pin frame (translate+release)",
                per_op("runtime.translations_per_kop"),
                get(layers, "runtime.pin_frame_roundtrip_ns"),
            ),
            (
                "runtime safepoint",
                per_op("runtime.safepoint_polls_per_kop"),
                get(layers, "runtime.safepoint_ns"),
            ),
            (
                "runtime halloc+hfree (malloc service)",
                per_op("runtime.hallocs_per_kop"),
                get(layers, "runtime.halloc_hfree_64_malloc_ns"),
            ),
        ]
    } else {
        vec![
            (
                "runtime pin+unpin",
                per_op("runtime.pins_per_kop"),
                get(layers, "runtime.pin_unpin_ns"),
            ),
            (
                "runtime safepoint",
                per_op("runtime.safepoint_polls_per_kop"),
                get(layers, "runtime.safepoint_ns"),
            ),
            ("heap vmem access of the value", per_op("runtime.pins_per_kop"), access_ns),
            (
                "runtime+anchorage halloc+hfree",
                per_op("runtime.hallocs_per_kop"),
                get(layers, "runtime.halloc_hfree_64_anchorage_ns"),
            ),
            ("kvstore itself (a get's self time)", 1.0, get(layers, "kvstore.self_ns_per_get")),
            (
                "anchorage plan+copy+commit of a pass",
                get(run, "anchorage.passes") / get(run, "ops").max(1.0),
                1e3 * (get(run, "anchorage.plan_us_per_pass")
                    + get(run, "anchorage.copy_us_per_pass")
                    + get(run, "anchorage.commit_us_per_pass")),
            ),
        ]
    };
    let mut out = String::new();
    let _ = writeln!(out, "  one op takes {op_ns:.0} ns of a thread ({threads} thread(s))");
    let _ = writeln!(
        out,
        "  {:<40} {:>9} {:>9} {:>9} {:>7}",
        "layer", "per op", "ns each", "ns/op", "share"
    );
    let mut explained = 0.0;
    for (layer, count, each) in rows {
        let ns = count * each;
        explained += ns;
        let _ = writeln!(
            out,
            "  {layer:<40} {count:>9.5} {each:>9.1} {ns:>9.1} {:>6.1}%",
            ns / op_ns * 100.0
        );
    }
    let rest = op_ns - explained;
    let _ = writeln!(
        out,
        "  {:<40} {:>9} {:>9} {rest:>9.1} {:>6.1}%",
        "everything else",
        "",
        "",
        rest / op_ns * 100.0
    );
    out
}
