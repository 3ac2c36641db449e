//! Chaos suite: armed failpoints (`alaska-faultline`) race mutator threads
//! against defragmentation and drive every injection site in the runtime and
//! in Anchorage.
//!
//! The contract under test (the PR 8 "failure model", see ROADMAP.md):
//!
//! * every armed site surfaces as a **typed error** or a **clean internal
//!   retry** — never a panic, never a hang past the barrier watchdog deadline;
//! * `HandleTable::verify_invariants` holds after every injected fault;
//! * lifecycle violations (double free, use after free) are typed errors with
//!   dedicated counters;
//! * aborted barriers are counted and traced.
//!
//! Failpoints are process-global, so every test here serializes on
//! [`chaos_lock`] and disarms everything on entry and exit.

use alaska::telemetry::Event;
use alaska::{AlaskaBuilder, AlaskaError, AnchorageConfig, Telemetry};
use alaska_faultline::{self as faultline, FaultAction};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Every failpoint site wired into the runtime and Anchorage, by name.
const SITES: &[&str] = &[
    "halloc.reserve.oom",
    "halloc.backing.oom",
    "halloc.publish",
    "magazine.refill",
    "hrealloc.repoint",
    "barrier.entry",
    "defrag.plan",
    "defrag.move",
    "defrag.copy",
    "defrag.commit",
    "subheap.rotate",
];

/// Serialize tests in this binary: the faultline registry is process-global.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    faultline::disarm_all();
    guard
}

/// Deterministic split-mix style generator: no external `rand`, reproducible
/// across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fragmented_runtime() -> (alaska::Runtime, Vec<u64>) {
    let rt = AlaskaBuilder::new().with_anchorage().build();
    let mut handles = Vec::new();
    for i in 0..600u64 {
        let h = rt.halloc(256).unwrap();
        rt.write_u64(h, 0, i);
        handles.push(h);
    }
    let mut survivors = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        if i % 4 == 0 {
            survivors.push(h);
        } else {
            rt.hfree(h).unwrap();
        }
    }
    (rt, survivors)
}

#[test]
fn every_armed_site_yields_a_typed_error_or_clean_retry() {
    let _serial = chaos_lock();

    // halloc.reserve.oom: the allocation fails up front with a typed error.
    {
        let (rt, _live) = fragmented_runtime();
        let _arm = faultline::arm_scoped("halloc.reserve.oom", FaultAction::Error, Some(1));
        assert!(matches!(rt.halloc(64), Err(AlaskaError::HandleTableFull)));
        rt.halloc(64).expect("exhausted failpoint no longer fires");
        rt.verify_table_invariants().unwrap();
    }

    // magazine.refill: a refused refill is indistinguishable from table
    // exhaustion — typed error, and the magazine recovers afterwards.
    {
        let rt = AlaskaBuilder::new().with_anchorage().build();
        let _arm = faultline::arm_scoped("magazine.refill", FaultAction::Error, Some(1));
        assert!(matches!(rt.halloc(64), Err(AlaskaError::HandleTableFull)));
        rt.halloc(64).expect("refill works once the fault is exhausted");
        rt.verify_table_invariants().unwrap();
    }

    // halloc.backing.oom: the pressure-recovery loop retries internally and
    // the caller never sees the fault.
    {
        let (rt, _live) = fragmented_runtime();
        let _arm = faultline::arm_scoped("halloc.backing.oom", FaultAction::Error, Some(1));
        let h = rt.halloc(64).expect("pressure recovery must absorb one backing fault");
        rt.write_u64(h, 0, 7);
        let snap = rt.stats();
        assert!(snap.alloc_pressure_events >= 1, "recovery loop must have run");
        assert!(snap.alloc_pressure_recoveries >= 1, "and must have recovered");
        rt.verify_table_invariants().unwrap();
    }

    // halloc.publish: failure between backing alloc and publish unwinds both
    // halves; nothing leaks and the next allocation reuses the ID.
    {
        let (rt, _live) = fragmented_runtime();
        let live_before = rt.live_handles();
        let _arm = faultline::arm_scoped("halloc.publish", FaultAction::Error, Some(1));
        assert!(matches!(rt.halloc(64), Err(AlaskaError::OutOfMemory { .. })));
        assert_eq!(rt.live_handles(), live_before, "failed publish must not leak an entry");
        rt.halloc(64).unwrap();
        rt.verify_table_invariants().unwrap();
    }

    // hrealloc.repoint: the fault fires before any mutation, so the old
    // object stays fully usable at its old size.
    {
        let (rt, live) = fragmented_runtime();
        let h = live[0];
        let before = rt.read_u64(h, 0);
        let _arm = faultline::arm_scoped("hrealloc.repoint", FaultAction::Error, Some(1));
        assert!(matches!(rt.hrealloc(h, 4096), Err(AlaskaError::OutOfMemory { .. })));
        assert_eq!(rt.read_u64(h, 0), before, "failed realloc leaves the object untouched");
        rt.hrealloc(h, 4096).expect("realloc succeeds once the fault is exhausted");
        rt.verify_table_invariants().unwrap();
    }

    // barrier.entry: the pause aborts, is counted, and the retry succeeds —
    // the defrag outcome is indistinguishable from an unfaulted pass.
    {
        let (rt, _live) = fragmented_runtime();
        let _arm = faultline::arm_scoped("barrier.entry", FaultAction::Error, Some(1));
        let outcome = rt.defragment(None);
        assert!(outcome.objects_moved > 0, "retried pause still defragments");
        assert!(rt.stats().barrier_aborts >= 1, "the aborted attempt is counted");
        rt.verify_table_invariants().unwrap();
    }

    // defrag.plan / defrag.move / defrag.copy / defrag.commit /
    // subheap.rotate: Anchorage sheds the faulted portion of the pass —
    // an abandoned plan, a truncated victim list, a skipped copy batch,
    // a skipped trim — and completes without error.
    for site in ["defrag.plan", "defrag.move", "defrag.copy", "defrag.commit", "subheap.rotate"] {
        let (rt, live) = fragmented_runtime();
        let _arm = faultline::arm_scoped(site, FaultAction::Error, Some(1));
        let _ = rt.defragment(None);
        for (i, &h) in live.iter().enumerate() {
            assert_eq!(rt.read_u64(h, 0), (i * 4) as u64, "fault at {site} corrupted an object");
        }
        rt.verify_table_invariants().unwrap_or_else(|e| panic!("after {site}: {e}"));
    }
}

/// A runtime with telemetry whose heap holds runs of three 256-byte survivors
/// between runs of three freed blocks, so a pass coalesces the survivors into
/// multi-object batches.
fn runs_of_three_runtime() -> (alaska::Runtime, Arc<Telemetry>, Vec<(u64, u64)>) {
    let hub = Arc::new(Telemetry::new());
    let rt = AlaskaBuilder::new().with_anchorage().with_telemetry(Arc::clone(&hub)).build();
    let handles: Vec<u64> = (0..900).map(|_| rt.halloc(256).unwrap()).collect();
    let mut survivors = Vec::new();
    for (i, h) in (0..).zip(handles) {
        if i % 6 < 3 {
            rt.hfree(h).unwrap();
        } else {
            rt.write_u64(h, 0, i);
            survivors.push((h, i));
        }
    }
    (rt, hub, survivors)
}

#[test]
fn a_copy_fault_skips_one_batch_and_leaves_its_objects_in_place() {
    let _serial = chaos_lock();
    let (clean, clean_hub, clean_survivors) = runs_of_three_runtime();
    let (faulted, _, survivors) = runs_of_three_runtime();

    let expected = clean.defragment(None);
    let largest_batch = clean_hub
        .registry()
        .histogram(alaska::anchorage::service::names::DEFRAG_BATCH_OBJECTS)
        .max();
    let outcome = {
        let _arm = faultline::arm_scoped("defrag.copy", FaultAction::Error, Some(1));
        faulted.defragment(None)
    };

    assert_eq!(outcome.copy_batches, expected.copy_batches, "both passes plan the same batches");
    assert!(largest_batch >= 2, "survivor runs must coalesce, largest batch {largest_batch}");
    assert!(
        outcome.objects_moved < expected.objects_moved
            && outcome.objects_moved + largest_batch >= expected.objects_moved,
        "one skipped batch: {} moved against {} clean, largest batch {largest_batch}",
        outcome.objects_moved,
        expected.objects_moved
    );
    for (rt, survivors) in [(&clean, &clean_survivors), (&faulted, &survivors)] {
        for &(h, expect) in survivors {
            assert_eq!(rt.read_u64(h, 0), expect, "a skipped batch corrupted an object");
        }
        rt.verify_table_invariants().unwrap();
    }
    assert_eq!(
        faulted.service_stats().live_bytes,
        clean.service_stats().live_bytes,
        "a skipped batch changes no live byte count"
    );
}

#[test]
fn randomized_faults_race_mutators_against_defrag() {
    let _serial = chaos_lock();
    let rt = Arc::new(AlaskaBuilder::new().with_anchorage().build());
    rt.set_barrier_deadline(Duration::from_millis(50));
    let mut rng = Lcg(0x5EED_CAFE_F00D);

    const ROUNDS: usize = 10;
    const WORKERS: usize = 3;
    for round in 0..ROUNDS {
        // Arm one to three random sites with a random action and budget.
        let armed = 1 + rng.below(3);
        for _ in 0..armed {
            let site = SITES[rng.below(SITES.len() as u64) as usize];
            let action = if rng.below(3) == 0 {
                FaultAction::Delay(Duration::from_micros(200))
            } else {
                FaultAction::Error
            };
            faultline::arm(site, action, Some(1 + rng.below(3)));
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for w in 0..WORKERS {
            let rt = Arc::clone(&rt);
            let stop = Arc::clone(&stop);
            let seed = (round * WORKERS + w) as u64;
            workers.push(std::thread::spawn(move || {
                let _guard = rt.register_current_thread();
                let mut rng = Lcg(0x0BAD_5EED ^ seed);
                let mut held: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match rt.halloc(64 + (rng.below(4) as usize) * 32) {
                        Ok(h) => {
                            rt.write_u64(h, 0, h);
                            held.push(h);
                        }
                        // Injected faults surface as typed errors; anything
                        // else (a panic) fails the test by poisoning the join.
                        Err(AlaskaError::HandleTableFull | AlaskaError::OutOfMemory { .. }) => {}
                        Err(other) => panic!("unexpected halloc error under chaos: {other}"),
                    }
                    if let Some(&h) = held.last() {
                        assert_eq!(rt.read_u64(h, 0), h, "object corrupted under chaos");
                    }
                    if held.len() > 64 {
                        let victim = held.swap_remove(rng.below(held.len() as u64) as usize);
                        rt.hfree(victim).unwrap();
                    }
                    rt.safepoint();
                }
                for h in held {
                    rt.hfree(h).unwrap();
                }
            }));
        }

        // Race a few defrag passes against the mutators, then stop the round.
        for _ in 0..3 {
            let _ = rt.defragment(Some(64 * 1024));
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("mutator must survive injected faults without panicking");
        }

        // Quiescent now: every fault this round must have left the table
        // structurally sound.
        faultline::disarm_all();
        rt.verify_table_invariants()
            .unwrap_or_else(|e| panic!("invariants broken after round {round}: {e}"));
        assert_eq!(rt.live_handles(), 0, "round {round} leaked handles");
    }
}

#[test]
fn stuck_straggler_aborts_the_barrier_and_is_traced() {
    let _serial = chaos_lock();
    let (rt, _live) = fragmented_runtime();
    let rt = Arc::new(rt);
    let hub = Arc::new(Telemetry::new());
    assert!(rt.install_telemetry(Arc::clone(&hub)));
    rt.set_barrier_deadline(Duration::from_millis(20));

    // A registered thread that never polls a safepoint: the worst-case
    // straggler. The watchdog must abort rather than wait forever.
    let stop = Arc::new(AtomicBool::new(false));
    let straggler = {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _guard = rt.register_current_thread();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    // Let the thread register before initiating the pause.
    std::thread::sleep(Duration::from_millis(10));

    let start = std::time::Instant::now();
    let outcome = rt.defragment(None);
    let elapsed = start.elapsed();

    stop.store(true, Ordering::Relaxed);
    straggler.join().unwrap();

    // Two aborted attempts, then the final attempt proceeds treating the
    // straggler as external — so the pass completes and stays bounded.
    assert!(outcome.objects_moved > 0, "the degraded pause still defragments");
    assert!(rt.stats().barrier_aborts >= 2, "both aborted attempts are counted");
    assert!(elapsed < Duration::from_secs(5), "watchdog must bound the pause, took {elapsed:?}");
    let aborts: Vec<_> = hub
        .ring()
        .snapshot()
        .into_iter()
        .filter(|r| matches!(r.event, Event::BarrierAbort { .. }))
        .collect();
    assert!(aborts.len() >= 2, "each aborted attempt lands in the event trace");
    rt.verify_table_invariants().unwrap();
}

#[test]
fn heap_ceiling_oom_is_typed_and_recoverable() {
    let _serial = chaos_lock();
    let cfg = AnchorageConfig {
        subheap_capacity: 64 * 1024,
        max_heap_bytes: Some(128 * 1024),
        ..Default::default()
    };
    let rt = AlaskaBuilder::new().with_anchorage_config(cfg).build();

    // Fill the whole ceiling with live objects: no amount of shedding or
    // defragmentation can help, so the typed error must surface (no panic).
    let mut handles = Vec::new();
    loop {
        match rt.halloc(4096) {
            Ok(h) => handles.push(h),
            Err(AlaskaError::OutOfMemory { requested }) => {
                assert_eq!(requested, 4096);
                break;
            }
            Err(other) => panic!("expected typed OOM, got {other}"),
        }
        assert!(handles.len() < 64, "the ceiling must bound the heap");
    }
    assert_eq!(handles.len(), 32, "128 KiB ceiling holds exactly 32 4 KiB objects");
    let snap = rt.stats();
    assert!(snap.alloc_pressure_events >= 3, "all recovery attempts ran before giving up");

    // Degradation is graceful: freeing room makes allocation work again.
    rt.hfree(handles.pop().unwrap()).unwrap();
    rt.halloc(4096).expect("allocation recovers after frees");
    rt.verify_table_invariants().unwrap();
}

#[test]
fn lifecycle_faults_under_chaos_are_typed_and_counted() {
    let _serial = chaos_lock();
    let (rt, live) = fragmented_runtime();
    let h = live[3];
    rt.hfree(h).unwrap();

    // Use after free: translation of the poisoned handle is a typed error.
    assert!(matches!(rt.translate(h), Err(AlaskaError::UseAfterFree { .. })));
    // Double free likewise.
    assert!(matches!(rt.hfree(h), Err(AlaskaError::DoubleFree { .. })));

    let snap = rt.stats();
    assert!(snap.use_after_frees_detected >= 1);
    assert!(snap.double_frees_detected >= 1);
    rt.verify_table_invariants().unwrap();
}
