//! Concurrency stress test for the handle table: mixed
//! `halloc`/`translate`/`hfree` workers race a barrier-and-defragment loop,
//! and the test asserts no handle ID is ever lost or handed out twice.
//!
//! Double allocation is detected by ownership tags: every worker writes its
//! own tag into each object it allocates and re-reads it before freeing — if
//! two workers ever held the same live handle, one of them observes a foreign
//! tag.  Lost IDs show up as a nonzero live-handle count after every worker
//! has freed everything it allocated.

use alaska::AlaskaBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn stress_mixed_mutators_race_defragmentation() {
    let rt = Arc::new(AlaskaBuilder::new().with_anchorage().build());
    let stop = Arc::new(AtomicBool::new(false));
    const WORKERS: u64 = 4;
    const ROUNDS: u64 = 400;
    const BATCH: usize = 48; // larger than one magazine refill, forces flushes

    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let rt = Arc::clone(&rt);
        workers.push(std::thread::spawn(move || {
            let _guard = rt.register_current_thread();
            let tag = 0xA110C000 + w; // distinct per worker
            let mut held: Vec<u64> = Vec::new();
            let mut allocated = 0u64;
            let mut freed = 0u64;
            for round in 0..ROUNDS {
                // Allocate a batch and tag it.
                for i in 0..BATCH {
                    let h = rt.halloc(64 + (i % 7) * 16).unwrap();
                    rt.write_u64(h, 0, tag);
                    rt.write_u64(h, 8, allocated);
                    held.push(h);
                    allocated += 1;
                }
                // Translate-heavy phase over everything currently held.
                for &h in &held {
                    assert_eq!(
                        rt.read_u64(h, 0),
                        tag,
                        "worker {w} observed a foreign tag: handle handed out twice"
                    );
                }
                rt.safepoint();
                // Free a prefix (other workers' frees interleave with ours).
                let keep = if round % 3 == 0 { 0 } else { BATCH / 2 };
                while held.len() > keep {
                    let h = held.swap_remove(round as usize % held.len());
                    assert_eq!(rt.read_u64(h, 0), tag);
                    rt.hfree(h).unwrap();
                    freed += 1;
                }
            }
            for h in held.drain(..) {
                rt.hfree(h).unwrap();
                freed += 1;
            }
            assert_eq!(allocated, freed, "worker {w} lost track of handles");
            allocated
        }));
    }

    // Defragment continuously while the workers hammer the table.
    let defrag = {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut passes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                rt.defragment(Some(1 << 20));
                passes += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            passes
        })
    };

    let mut total = 0u64;
    for w in workers {
        total += w.join().expect("worker panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let passes = defrag.join().expect("defrag thread panicked");

    assert_eq!(total, WORKERS * ROUNDS * BATCH as u64);
    assert!(passes > 0, "defrag loop must have run against the mutators");
    assert_eq!(rt.live_handles(), 0, "every allocated handle was freed exactly once");

    let snap = rt.stats();
    assert_eq!(snap.hallocs, total);
    assert_eq!(snap.hfrees, total);
    assert!(snap.magazine_refills > 0, "workers must draw IDs through magazines");
    assert!(snap.magazine_flushes > 0, "freeing batches above capacity must flush");
    assert!(snap.barriers >= passes, "every defrag pass stops the world");
}
