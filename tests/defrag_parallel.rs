//! Stress tests for the plan → copy → commit defragmenter under parallel
//! mutators.
//!
//! These race mutator threads (allocating, freeing, reading, and *pinning*
//! objects) against repeated defragmentation passes, with plan- and
//! copy-phase faults armed part of the time.  The contract: pinned objects
//! never move, survivor data is never corrupted, budget slicing keeps
//! bounding each pass, a faulted copy batch is skipped (its objects stay put)
//! instead of aborting the pass, and the handle table stays structurally
//! sound throughout.
//!
//! Failpoints are process-global; the tests in this binary serialize on
//! [`stress_lock`] (same pattern as `tests/chaos.rs`).

use alaska::{AlaskaBuilder, AlaskaError};
use alaska_faultline::{self as faultline, FaultAction};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serialize tests in this binary: the faultline registry is process-global.
fn stress_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    faultline::disarm_all();
    guard
}

/// Deterministic split-mix style generator, reproducible across runs.
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

fn parallel_runtime() -> Arc<alaska::Runtime> {
    Arc::new(AlaskaBuilder::new().with_anchorage().build())
}

#[test]
fn mutators_pins_faults_and_budget_slices_race_defrag_passes() {
    let _serial = stress_lock();
    let rt = parallel_runtime();
    rt.set_barrier_deadline(Duration::from_millis(100));

    const ROUNDS: usize = 6;
    const WORKERS: usize = 4;
    for round in 0..ROUNDS {
        // Half the rounds run with copy/move faults armed so skipped
        // batches interleave with clean ones.
        if round % 2 == 0 {
            faultline::arm("defrag.copy", FaultAction::Error, Some(2));
            faultline::arm("defrag.move", FaultAction::Error, Some(1));
        }

        // Pre-fragment the heap from the initiating thread so the very first
        // pass of the round has coalescable work, whatever the mutators are
        // up to.
        let mut ballast = Vec::new();
        for i in 0..600u64 {
            let h = rt.halloc(256).unwrap();
            rt.write_u64(h, 0, h ^ i);
            ballast.push((h, i));
        }
        let mut survivors = Vec::new();
        for (i, (h, tag)) in ballast.into_iter().enumerate() {
            if i % 4 == 0 {
                survivors.push((h, tag));
            } else {
                rt.hfree(h).unwrap();
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut mutators = Vec::new();
        for w in 0..WORKERS {
            let rt = Arc::clone(&rt);
            let stop = Arc::clone(&stop);
            let seed = (round * WORKERS + w) as u64;
            mutators.push(std::thread::spawn(move || {
                let _guard = rt.register_current_thread();
                let mut rng = Lcg(0xDEF4_A6ED ^ seed);
                let mut held: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match rt.halloc(64 + (rng.below(4) as usize) * 64) {
                        Ok(h) => {
                            rt.write_u64(h, 0, h);
                            held.push(h);
                        }
                        Err(AlaskaError::HandleTableFull | AlaskaError::OutOfMemory { .. }) => {}
                        Err(other) => panic!("unexpected halloc error under stress: {other}"),
                    }
                    // Periodically hold a pin across a stretch of work: the
                    // planner must route around the pinned object while the
                    // pass moves its neighbours.
                    if !held.is_empty() && rng.below(4) == 0 {
                        let h = held[rng.below(held.len() as u64) as usize];
                        let pin = rt.pin(h).expect("live handle pins");
                        let addr = pin.addr();
                        for _ in 0..8 {
                            assert_eq!(
                                rt.vm().read_u64(addr),
                                h,
                                "pinned object moved under a defrag pass"
                            );
                            rt.safepoint();
                        }
                    }
                    if let Some(&h) = held.last() {
                        assert_eq!(rt.read_u64(h, 0), h, "object corrupted under stress");
                    }
                    if held.len() > 96 {
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

        // Alternate tightly budgeted slices with unbudgeted passes; budgeted
        // slices must stay bounded while mutators keep allocating.
        for pass in 0..4 {
            let budget = if pass % 2 == 0 { Some(32 * 1024) } else { None };
            let outcome = rt.defragment(budget);
            if let Some(b) = budget {
                // One-object slack: the plan stops once planned bytes reach
                // the budget, so a pass can exceed it by at most one object.
                assert!(
                    outcome.bytes_moved <= b + 4096,
                    "budget slice moved {} bytes against a {b}-byte budget",
                    outcome.bytes_moved
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for m in mutators {
            m.join().expect("mutator must survive the defrag passes");
        }

        faultline::disarm_all();
        for &(h, tag) in &survivors {
            assert_eq!(rt.read_u64(h, 0), h ^ tag, "ballast survivor corrupted in round {round}");
            rt.hfree(h).unwrap();
        }
        rt.verify_table_invariants()
            .unwrap_or_else(|e| panic!("invariants broken after round {round}: {e}"));
        assert_eq!(rt.live_handles(), 0, "round {round} leaked handles");
    }
}

#[test]
fn pins_hold_across_a_pass_that_copies_on_the_pausing_thread() {
    let _serial = stress_lock();
    let rt = parallel_runtime();
    let handles: Vec<u64> = (0..1_000)
        .map(|i| {
            let h = rt.halloc(256).unwrap();
            rt.write_u64(h, 0, i);
            h
        })
        .collect();
    let mut survivors = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        if i % 4 == 0 {
            survivors.push((h, i as u64));
        } else {
            rt.hfree(h).unwrap();
        }
    }
    // Pin a spread of survivors for the whole pass.
    let pins: Vec<_> = survivors.iter().step_by(10).map(|&(h, _)| rt.pin(h).unwrap()).collect();
    let pinned_addrs: Vec<_> = pins.iter().map(|p| p.addr()).collect();

    let outcome = rt.defragment(None);
    assert!(outcome.objects_moved > 0, "unpinned survivors must still move");
    assert!(outcome.copy_batches > 0, "moves must flow through coalesced batches");
    assert_eq!(outcome.copy_workers, 1, "one thread copies the batches, outcome: {outcome:?}");
    for (pin, addr) in pins.iter().zip(&pinned_addrs) {
        assert_eq!(pin.addr(), *addr, "pinned address changed across the pass");
    }
    drop(pins);
    for &(h, expect) in &survivors {
        assert_eq!(rt.read_u64(h, 0), expect, "survivor corrupted by the pass");
    }
    rt.verify_table_invariants().unwrap();
}
