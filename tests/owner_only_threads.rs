//! Thread-private runtime state is written by its owner alone — pins in a
//! slot stack, counters with a load and a store — and read by barrier
//! initiators and `stats` callers.  These tests check that the readers still
//! see exactly what the owners did, that resolving the calling thread once
//! per operation leaves operations free to nest, that the handle IDs a
//! thread's magazine hands back serve the next thread, and that a thread in
//! external code cannot allocate inside a pause.

use alaska::runtime::pinset::INLINE_PIN_SLOTS;
use alaska::{AlaskaBuilder, Runtime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

const WORKERS: usize = 3;

#[test]
fn pins_past_the_inline_slots_hold_objects_still_while_defrag_moves_the_rest() {
    const OBJECTS: usize = 2 * INLINE_PIN_SLOTS;
    let rt = AlaskaBuilder::new().with_anchorage().build();
    let start = Barrier::new(WORKERS + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (rt, start, done) = (&rt, &start, &done);
                scope.spawn(move || {
                    let _registered = rt.register_current_thread();
                    // Allocate with ballast in between and free the ballast,
                    // so every pass has holes to slide unpinned objects into.
                    let mut objects = Vec::new();
                    for i in 0..OBJECTS {
                        let h = rt.halloc(96).unwrap();
                        rt.write_u64(h, 0, h);
                        let ballast = rt.halloc(160).unwrap();
                        objects.push((h, ballast, i));
                    }
                    for (_, ballast, _) in &objects {
                        rt.hfree(*ballast).unwrap();
                    }
                    // Pin every third object, more of them than fit inline.
                    let (pinned, free): (Vec<_>, Vec<_>) =
                        objects.iter().partition(|(_, _, i)| i % 3 != w % 3);
                    assert!(pinned.len() > INLINE_PIN_SLOTS);
                    let mut guards: Vec<_> =
                        pinned.iter().map(|(h, _, _)| rt.pin(*h).unwrap()).collect();
                    let before: Vec<_> =
                        free.iter().map(|(h, ..)| rt.translate(*h).unwrap()).collect();
                    start.wait();
                    assert_eq!(rt.current_thread_pin_count(), guards.len());

                    let mut round = 0usize;
                    while !done.load(Ordering::Acquire) || round < 40 {
                        for guard in &guards {
                            assert_eq!(rt.translate(guard.value()).unwrap(), guard.addr());
                            assert_eq!(rt.vm().read_u64(guard.addr()), guard.value());
                        }
                        // Let go of one pin from the middle of the stack: out
                        // of order, across the inline/spill boundary.
                        if guards.len() > INLINE_PIN_SLOTS / 2 {
                            guards.remove(guards.len() / 2 + round % 7);
                            assert_eq!(rt.current_thread_pin_count(), guards.len());
                        }
                        round += 1;
                        rt.safepoint();
                    }
                    drop(guards);
                    assert_eq!(rt.current_thread_pin_count(), 0);
                    let moved = free
                        .iter()
                        .zip(&before)
                        .filter(|((h, ..), before)| rt.translate(*h).unwrap() != **before)
                        .count();
                    for (h, ..) in &objects {
                        assert_eq!(rt.read_u64(*h, 0), *h, "contents follow the object");
                    }
                    moved
                })
            })
            .collect();

        start.wait();
        for _ in 0..60 {
            rt.defragment(None);
        }
        done.store(true, Ordering::Release);
        let moved: usize = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert!(moved > 0, "unpinned objects do move");
    });
    assert!(rt.stats().objects_moved > 0);
    assert_eq!(rt.stats().barrier_aborts, 0);
    rt.verify_table_invariants().unwrap();
}

#[test]
fn hot_counters_are_exact_after_unregister_and_never_run_backwards() {
    const OPS: u64 = 20_000;
    let rt = Runtime::with_malloc_service();
    let handles: Vec<u64> = (0..64).map(|_| rt.halloc(64).unwrap()).collect();
    let base = rt.stats();
    let start = Barrier::new(WORKERS + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (rt, start, handles) = (&rt, &start, &handles);
                scope.spawn(move || {
                    start.wait();
                    let _registered = rt.register_current_thread();
                    for i in 0..OPS as usize {
                        // One translation, one pin, one unpin, one poll.
                        rt.read_u64(handles[i % handles.len()], 0);
                        rt.safepoint();
                    }
                })
            })
            .collect();
        // A reader racing the workers, through their unregistering too.
        let reader = scope.spawn(|| {
            let mut last = rt.stats();
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let now = rt.stats();
                for (name, was, is) in [
                    ("translations", last.translations, now.translations),
                    ("pins", last.pins, now.pins),
                    ("unpins", last.unpins, now.unpins),
                    ("safepoint_polls", last.safepoint_polls, now.safepoint_polls),
                ] {
                    assert!(is >= was, "{name} ran backwards: {was} -> {is}");
                }
                last = now;
                snapshots += 1;
            }
            snapshots
        });
        start.wait();
        workers.into_iter().for_each(|w| w.join().expect("worker"));
        done.store(true, Ordering::Release);
        assert!(reader.join().expect("reader") > 0);
    });

    let delta = rt.stats().since(&base);
    let expect = WORKERS as u64 * OPS;
    assert_eq!(
        (delta.translations, delta.pins, delta.unpins, delta.safepoint_polls),
        (expect, expect, expect, expect)
    );
    assert_eq!(rt.registered_threads(), 1, "only this thread is still registered");
}

#[test]
fn two_runtimes_interleave_on_one_thread() {
    let (a, b) = (Runtime::with_malloc_service(), Runtime::with_malloc_service());
    let guard_a = a.register_current_thread();
    let (ha, hb) = (a.halloc(32).unwrap(), b.halloc(32).unwrap());
    for round in 0..100u64 {
        a.write_u64(ha, 0, round);
        b.write_u64(hb, 8, !round);
        // A pin on one runtime held across operations on the other.
        let pin = a.pin(ha).unwrap();
        assert_eq!(b.read_u64(hb, 8), !round);
        b.safepoint();
        assert_eq!(a.vm().read_u64(pin.addr()), round);
        assert_eq!((a.current_thread_pin_count(), b.current_thread_pin_count()), (1, 0));
    }
    // Leaving one runtime does not disturb this thread's standing in the other.
    drop(guard_a);
    assert_eq!((a.registered_threads(), b.registered_threads()), (0, 1));
    assert_eq!(b.read_u64(hb, 8), !99);
    assert_eq!(a.read_u64(ha, 0), 99, "and it can come back");
    assert_eq!(a.stats().hallocs, 1);
}

#[test]
fn operations_nest_inside_a_stopped_world_and_a_service_closure() {
    let (a, b) = (Runtime::with_malloc_service(), Runtime::with_malloc_service());
    let (ha, hb) = (a.halloc(16).unwrap(), b.halloc(16).unwrap());
    a.write_u64(ha, 0, 1);
    let from_b = a.with_stopped_world(|_world| {
        // Another runtime is fair game while this one's world is stopped …
        b.write_u64(hb, 0, 2);
        let fresh = b.halloc(8).unwrap();
        b.hfree(fresh).unwrap();
        // … and so is a translation on the stopped runtime itself.
        assert!(a.translate(ha).is_ok());
        b.read_u64(hb, 0)
    });
    assert_eq!(from_b, 2);
    let name = a.with_service(|service| {
        assert_eq!(b.read_u64(hb, 0), 2);
        b.with_stopped_world(|_| ());
        service.name()
    });
    assert_eq!(name, a.service_name());
    assert_eq!(a.read_u64(ha, 0), 1);
    assert_eq!((a.stats().barriers, b.stats().barriers), (1, 1));
}

#[test]
fn ids_a_finished_thread_hands_back_are_reused_by_the_next_thread() {
    let rt = Runtime::with_malloc_service();
    let table_bytes: Vec<u64> = (0..3)
        .map(|_| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _registered = rt.register_current_thread();
                    let handles: Vec<u64> = (0..100).map(|_| rt.halloc(64).unwrap()).collect();
                    for h in handles {
                        rt.hfree(h).unwrap();
                    }
                });
            });
            rt.handle_table_bytes()
        })
        .collect();
    assert_eq!(table_bytes, [table_bytes[0]; 3], "each thread touched fresh entries");
    assert_eq!(rt.live_handles(), 0);
    rt.verify_table_invariants().unwrap();
}

#[test]
fn an_external_thread_cannot_allocate_inside_a_pause() {
    let rt = Runtime::with_malloc_service();
    let done = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let h = std::thread::scope(|scope| {
        let (rt, done) = (&rt, &done);
        let b = scope.spawn(move || {
            let _registered = rt.register_current_thread();
            // Fill the magazine, so the `halloc` below takes no table lock.
            rt.hfree(rt.halloc(64).unwrap()).unwrap();
            rt.external_begin();
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // `halloc` polls before it touches anything, so it parks here
            // until the pause ends.
            let h = rt.halloc(64).unwrap();
            rt.write_u64(h, 0, 0xB0B);
            done.store(true, Ordering::Release);
            rt.external_end();
            h
        });
        ready_rx.recv().unwrap();
        // B is in external code, so the barrier does not wait for it.
        let done_in_pause = rt.with_stopped_world(|_| {
            go_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            done.load(Ordering::Acquire)
        });
        assert!(!done_in_pause, "an external thread allocated inside the pause");
        b.join().expect("thread B")
    });
    assert_eq!(rt.read_u64(h, 0), 0xB0B);
    rt.verify_table_invariants().unwrap();
}
