//! [`AnchorageService`], driven through a [`Runtime`], against a trivially
//! correct model: a map from handle to the bytes it must hold.  Anchorage
//! records a live object in exactly one place (its address-ordered index), so
//! this is what stands in for comparing one copy of the bookkeeping with
//! another: every fact the service reports is compared with the model.

mod common;

use alaska_anchorage::service::{AnchorageConfig, AnchorageService};
use alaska_anchorage::subheap::SubHeap;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_runtime::service::Service;
use alaska_runtime::{AlaskaError, Runtime};
use common::{pattern, Shared};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Split one random word into the fields an op needs.
struct Fields(u64);

impl Fields {
    fn take(&mut self, n: u64) -> u64 {
        let v = self.0 % n;
        self.0 /= n;
        v
    }
}

/// Everything the runtime and the service report, against the model.
fn check(rt: &Runtime, service: &AnchorageService, model: &HashMap<u64, Vec<u8>>, at: &str) {
    // (address, requested size) of every live block, as the handle table has it.
    let mut blocks: Vec<(u64, usize)> = Vec::with_capacity(model.len());
    for (&h, bytes) in model {
        let mut read = vec![0; bytes.len()];
        rt.read_bytes(h, 0, &mut read);
        prop_assert_eq!(&read, bytes, "contents of {:#x} {}", h, at);
        prop_assert_eq!(rt.usable_size(h), Some(bytes.len()), "table's size of {:#x} {}", h, at);
        blocks.push((rt.translate(h).expect("live handle").0, bytes.len()));
    }
    blocks.sort_unstable();
    let end = |&(addr, size): &(u64, usize)| addr + SubHeap::rounded_size(size as u64);
    for pair in blocks.windows(2) {
        prop_assert!(end(&pair[0]) <= pair[1].0, "blocks {:x?} overlap {}", pair, at);
    }
    for &(addr, size) in &blocks {
        prop_assert_eq!(service.usable_size(VirtAddr(addr)), Some(size), "at {:#x} {}", addr, at);
    }
    let stats = service.heap_stats();
    prop_assert_eq!(stats.live_objects, model.len() as u64, "live objects {}", at);
    let live_bytes: u64 = blocks.iter().map(|b| end(b) - b.0).sum();
    prop_assert_eq!(stats.live_bytes, live_bytes, "live bytes {}", at);
    prop_assert_eq!(stats.heap_extent, service.heap_extent(), "extent stat {}", at);
    // Per sub-heap: live count and bytes equal its range of the index (so,
    // with the above, the index holds the model's blocks and nothing else),
    // and no record lies past the extent.
    prop_assert_eq!(service.verify_index(), Ok(()), "{}", at);
}

/// What the cases exercised, summed over all of them: a change to the op mix
/// or the sizes that leaves passes with nothing to move, or allocation never
/// failing, fails the test instead of passing vacuously.
static CASES_RUN: AtomicU64 = AtomicU64::new(0);
static OBJECTS_MOVED: AtomicU64 = AtomicU64::new(0);
static BYTES_RELEASED: AtomicU64 = AtomicU64::new(0);
static SKIPPED_PINNED: AtomicU64 = AtomicU64::new(0);
static BYTES_SHED: AtomicU64 = AtomicU64::new(0);
static FAILED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FAILED_REALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static MOST_SUBHEAPS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #[test]
    fn anchorage_matches_the_reference_model(
        shape in 0u64..u64::MAX,
        words in collection::vec(0u64..u64::MAX, 1..160),
    ) {
        // 4–64 KiB sub-heaps: a case fills, rotates and defragments across
        // several of them.  One case in four runs under a heap ceiling, so
        // allocation can fail and take the runtime's shed + defragment path.
        let mut shape = Fields(shape);
        let capacity = 4096u64 << shape.take(5);
        let max_heap_bytes = (shape.take(4) == 0).then_some(2 * capacity);
        let cfg =
            AnchorageConfig { subheap_capacity: capacity, max_heap_bytes, ..Default::default() };
        let vm = VirtualMemory::default();
        let service = Arc::new(AnchorageService::with_config(vm.clone(), cfg));
        let rt = Runtime::with_vm(vm, Box::new(Shared(Arc::clone(&service))));
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut handles: Vec<u64> = Vec::new(); // the model's keys, in a repeatable order

        for (step, word) in words.into_iter().enumerate() {
            let mut f = Fields(word);
            let op = f.take(16);
            // Mostly small objects, some a good share of a sub-heap, a few
            // larger than one (they get a sub-heap of their own size).
            let size = 1 + match f.take(16) {
                0 => f.take(2 * capacity),
                1..=4 => f.take(capacity / 4),
                _ => f.take(400),
            } as usize;
            let pick = f.take(handles.len().max(1) as u64) as usize;
            match op {
                _ if handles.is_empty() || op < 6 => match rt.halloc(size) {
                    Ok(h) => {
                        let bytes = pattern(word, size);
                        rt.write_bytes(h, 0, &bytes);
                        prop_assert!(model.insert(h, bytes).is_none(), "{:#x} handed out twice", h);
                        handles.push(h);
                    }
                    Err(AlaskaError::OutOfMemory { .. }) => {
                        prop_assert!(max_heap_bytes.is_some(), "allocation failed with no ceiling");
                        FAILED_ALLOCATIONS.fetch_add(1, Relaxed);
                    }
                    Err(e) => panic!("halloc({size}): {e:?}"),
                },
                6..=8 => {
                    let h = handles.swap_remove(pick);
                    rt.hfree(h).expect("live handle");
                    model.remove(&h);
                }
                9 | 10 => {
                    // Grow or shrink; the handle survives, and so does the
                    // common prefix.  The grown tail is written afresh.
                    let h = handles[pick];
                    match rt.hrealloc(h, size) {
                        Ok(same) => {
                            prop_assert_eq!(same, h);
                            let bytes = model.get_mut(&h).expect("modelled");
                            let kept = bytes.len().min(size);
                            bytes.truncate(kept);
                            bytes.extend(pattern(word ^ 0xFF, size - kept));
                            rt.write_bytes(h, kept as u64, &bytes[kept..]);
                        }
                        Err(AlaskaError::OutOfMemory { .. }) => {
                            prop_assert!(max_heap_bytes.is_some(), "realloc failed, no ceiling");
                            FAILED_REALLOCATIONS.fetch_add(1, Relaxed);
                        }
                        Err(e) => panic!("hrealloc({size}): {e:?}"),
                    }
                }
                11..=13 => {
                    // A pass, whole or budgeted, with a few objects pinned:
                    // those stay put, everything keeps its bytes.
                    let pins: Vec<_> = (0..f.take(4) as usize)
                        .map(|i| handles[(pick + i * 7) % handles.len()])
                        .map(|h| rt.pin(h).expect("live handle"))
                        .collect();
                    let budget = (op != 11).then(|| 1 + f.take(capacity));
                    let outcome = rt.defragment(budget);
                    OBJECTS_MOVED.fetch_add(outcome.objects_moved, Relaxed);
                    BYTES_RELEASED.fetch_add(outcome.bytes_released, Relaxed);
                    SKIPPED_PINNED.fetch_add(outcome.objects_skipped_pinned, Relaxed);
                    if let Some(budget) = budget {
                        prop_assert!(
                            outcome.bytes_moved < budget + SubHeap::rounded_size(2 * capacity),
                            "budget {} bounds a pass, with one object of slack; moved {}",
                            budget,
                            outcome.bytes_moved
                        );
                    }
                    for pin in &pins {
                        prop_assert_eq!(rt.translate(pin.value()).expect("pinned"), pin.addr());
                    }
                }
                14 => {
                    let before = rt.rss_bytes();
                    let shed = rt.with_service(|s| s.shed_memory());
                    prop_assert_eq!(rt.rss_bytes(), before - shed);
                    BYTES_SHED.fetch_add(shed, Relaxed);
                }
                _ => {
                    // The second free of a handle is refused by the runtime
                    // and changes nothing in the service.
                    let h = handles[pick];
                    rt.hfree(h).expect("live handle");
                    prop_assert!(rt.hfree(h).is_err(), "double free of {:#x} accepted", h);
                    model.remove(&h);
                    handles.swap_remove(pick);
                }
            }
            let at = format!("after step {step} (op {op}, capacity {capacity})");
            check(&rt, &service, &model, &at);
        }

        for h in handles {
            rt.hfree(h).expect("live handle");
        }
        check(&rt, &service, &HashMap::new(), "after freeing everything");

        MOST_SUBHEAPS.fetch_max(service.subheap_count() as u64, Relaxed);
        if CASES_RUN.fetch_add(1, Relaxed) + 1 == u64::from(proptest::CASES) {
            let tally = [
                &OBJECTS_MOVED, &BYTES_RELEASED, &SKIPPED_PINNED, &BYTES_SHED,
                &FAILED_ALLOCATIONS, &FAILED_REALLOCATIONS, &MOST_SUBHEAPS,
            ].map(|n| n.load(Relaxed));
            prop_assert!(tally.iter().all(|&n| n > 0), "something never happened: {:?}", tally);
            prop_assert!(tally[6] >= 4, "no case spread over four sub-heaps: {:?}", tally);
        }
    }
}
