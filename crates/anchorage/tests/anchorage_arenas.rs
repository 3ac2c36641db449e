//! The arenas of [`AnchorageService`]: several threads on one [`Runtime`],
//! each allocating in its own arena, resizing and freeing blocks of the
//! others', beside a defragmentation loop — checked against one
//! `HashMap<handle, bytes>` per thread — and the placement a single thread
//! gets, which must be the one it got before there were arenas.

mod common;

use alaska_anchorage::service::{AnchorageConfig, AnchorageService};
use alaska_anchorage::subheap::SubHeap;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_runtime::service::Service;
use alaska_runtime::Runtime;
use common::{pattern, Shared};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;

const WORKERS: usize = 4;
/// Steps every worker runs at least …
const MIN_STEPS: u64 = 4_000;
/// … and passes that must have run beside them before a worker may stop.  A
/// pass starts once the workers have taken `STEPS_PER_PASS` steps since the
/// last one: the two overlap whatever the scheduler does, and neither starves
/// the other.
const MIN_PASSES: u64 = 25;
const STEPS_PER_PASS: u64 = 200;

/// How far the workers and the pass loop have come.
#[derive(Default)]
struct Progress {
    steps: AtomicU64,
    passes: AtomicU64,
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn runtime(capacity: u64) -> (Arc<AnchorageService>, Runtime) {
    let vm = VirtualMemory::default();
    let cfg = AnchorageConfig { subheap_capacity: capacity, ..Default::default() };
    let service = Arc::new(AnchorageService::with_config(vm.clone(), cfg));
    let rt = Runtime::with_vm(vm, Box::new(Shared(Arc::clone(&service))));
    (service, rt)
}

/// What one worker did and still holds.
struct Worked {
    /// The arena all its own allocations landed in.
    home: usize,
    model: HashMap<u64, Vec<u8>>,
    frees_elsewhere: u64,
    reallocs_from_elsewhere: u64,
    pins_held_across_steps: u64,
}

fn worker(
    rt: &Runtime,
    service: &AnchorageService,
    me: usize,
    inbox: Receiver<(u64, Vec<u8>)>,
    outbox: Sender<(u64, Vec<u8>)>,
    progress: &Progress,
) -> Worked {
    let _registered = rt.register_current_thread();
    let arena_of = |h: u64| service.arena_of(rt.translate(h).expect("live handle")).expect("owned");
    let holds = |h: u64, bytes: &[u8]| {
        let mut read = vec![0; bytes.len()];
        rt.read_bytes(h, 0, &mut read);
        assert_eq!(read, bytes, "contents of {h:#x}, worker {me}");
    };
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15 ^ me as u64);
    let first = rt.halloc(64).expect("halloc");
    let mut out = Worked {
        home: arena_of(first),
        model: HashMap::from([(first, vec![0; 64])]),
        frees_elsewhere: 0,
        reallocs_from_elsewhere: 0,
        pins_held_across_steps: 0,
    };
    rt.write_bytes(first, 0, &[0; 64]);
    let mut keys = vec![first]; // the model's keys, in a repeatable order
    let mut pinned: Option<(u64, alaska_runtime::runtime::Pinned<'_>, u64)> = None;
    let free = |out: &mut Worked, h: u64, bytes: &[u8]| {
        holds(h, bytes);
        out.frees_elsewhere += (arena_of(h) != out.home) as u64;
        rt.hfree(h).expect("live handle");
    };

    let mut step = 0u64;
    while step < MIN_STEPS || progress.passes.load(Relaxed) < MIN_PASSES {
        step += 1;
        progress.steps.fetch_add(1, Relaxed);
        // A block of another thread's arrives: free it from here, or adopt it
        // (to be resized and freed from here later).
        if let Ok((h, bytes)) = inbox.try_recv() {
            if rng.below(2) == 0 {
                free(&mut out, h, &bytes);
            } else {
                holds(h, &bytes);
                out.model.insert(h, bytes);
                keys.push(h);
            }
        }
        if let Some((h, pin, until)) = pinned.take() {
            assert_eq!(rt.translate(h).expect("pinned"), pin.addr(), "a pinned block moved");
            if step < until {
                pinned = Some((h, pin, until));
            } else {
                out.pins_held_across_steps += 1;
            }
        }
        let pick = rng.below(keys.len().max(1) as u64) as usize;
        let busy = |h: u64| pinned.as_ref().is_some_and(|p| p.0 == h);
        let op = match keys.len() {
            0..=40 => 0,
            400.. => 6,
            _ => rng.below(10),
        };
        match op {
            0..=3 => {
                let size = 1 + if rng.below(24) == 0 { rng.below(12_000) } else { rng.below(500) };
                let h = rt.halloc(size as usize).expect("no ceiling");
                assert_eq!(arena_of(h), out.home, "worker {me} allocated outside its arena");
                let bytes = pattern(step, size as usize);
                rt.write_bytes(h, 0, &bytes);
                assert!(out.model.insert(h, bytes).is_none(), "{h:#x} handed out twice");
                keys.push(h);
            }
            4 | 5 if !busy(keys[pick]) => {
                // Grow or shrink; the block may be one adopted from another arena.
                let h = keys[pick];
                let size = 1 + rng.below(900) as usize;
                out.reallocs_from_elsewhere += (arena_of(h) != out.home) as u64;
                assert_eq!(rt.hrealloc(h, size).expect("no ceiling"), h);
                assert_eq!(arena_of(h), out.home, "a resized block comes to the caller's arena");
                let bytes = out.model.get_mut(&h).expect("modelled");
                let kept = bytes.len().min(size);
                bytes.truncate(kept);
                bytes.extend(pattern(step ^ 0xFF, size - kept));
                rt.write_bytes(h, kept as u64, &bytes[kept..]);
            }
            6 | 7 if !busy(keys[pick]) => {
                let h = keys.swap_remove(pick);
                let bytes = out.model.remove(&h).expect("modelled");
                if op == 6 {
                    free(&mut out, h, &bytes);
                } else {
                    outbox.send((h, bytes)).expect("the neighbour outlives its inbox");
                }
            }
            8 if pinned.is_none() => {
                let h = keys[pick];
                let pin = rt.pin(h).expect("live handle");
                pinned = Some((h, pin, step + 1 + rng.below(40)));
            }
            _ => holds(keys[pick], &out.model[&keys[pick]]),
        }
    }
    drop(pinned);
    // Nothing more goes out; take what is still coming in, at safepoints (a
    // thread blocked in `recv` would stall every pause).
    drop(outbox);
    loop {
        match inbox.try_recv() {
            Ok((h, bytes)) => {
                holds(h, &bytes);
                out.model.insert(h, bytes);
            }
            Err(TryRecvError::Empty) => {
                rt.safepoint();
                std::thread::yield_now();
            }
            Err(TryRecvError::Disconnected) => return out,
        }
    }
}

/// Contents, sizes and placement of every block in `models`, and the service's
/// own view of them.
fn check(
    rt: &Runtime,
    service: &AnchorageService,
    models: &[HashMap<u64, Vec<u8>>],
) -> HashMap<u64, u64> {
    let mut addr_of = HashMap::new();
    let mut blocks: Vec<(u64, u64)> = Vec::new();
    for (&h, bytes) in models.iter().flat_map(|m| m.iter()) {
        let mut read = vec![0; bytes.len()];
        rt.read_bytes(h, 0, &mut read);
        assert_eq!(&read, bytes, "contents of {h:#x}");
        assert_eq!(rt.usable_size(h), Some(bytes.len()));
        let addr = rt.translate(h).expect("live handle");
        assert_eq!(service.usable_size(addr), Some(bytes.len()), "service's size of {h:#x}");
        blocks.push((addr.0, SubHeap::rounded_size(bytes.len() as u64)));
        assert!(addr_of.insert(h, addr.0).is_none(), "{h:#x} is in two models");
    }
    blocks.sort_unstable();
    for pair in blocks.windows(2) {
        assert!(pair[0].0 + pair[0].1 <= pair[1].0, "blocks {pair:x?} overlap");
    }
    let stats = service.heap_stats();
    assert_eq!(stats.live_objects, blocks.len() as u64, "live objects, summed over arenas");
    assert_eq!(stats.live_bytes, blocks.iter().map(|b| b.1).sum::<u64>(), "live bytes");
    assert_eq!(stats.heap_extent, service.heap_extent(), "extent stat");
    assert_eq!(rt.live_handles(), blocks.len() as u64);
    assert_eq!(service.verify_index(), Ok(()));
    rt.verify_table_invariants().expect("handle table");
    addr_of
}

#[test]
fn threads_allocate_in_their_own_arenas_and_free_each_others_blocks() {
    // Sub-heaps that a worker's live blocks never fill: a pass whose
    // destination is full of holes too small for the victims moves nothing,
    // and the loop below takes a pass without moves for the end.
    let (service, rt) = runtime(1 << 20);
    assert!(service.arena_count() >= WORKERS, "an arena per worker on any host");
    let progress = Progress::default();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..WORKERS).map(|_| mpsc::channel()).unzip();
    let mut moved_beside_mutators = 0;

    let worked: Vec<Worked> = std::thread::scope(|scope| {
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| {
                let outbox = senders[(me + 1) % WORKERS].clone();
                let (rt, service, progress) = (&rt, &*service, &progress);
                scope.spawn(move || worker(rt, service, me, inbox, outbox, progress))
            })
            .collect();
        drop(senders);
        // The pass loop: whole and budgeted passes until every worker is done.
        while !workers.iter().all(|w| w.is_finished()) {
            let passes = progress.passes.load(Relaxed);
            if progress.steps.load(Relaxed) < (passes + 1) * STEPS_PER_PASS {
                std::thread::yield_now();
                continue;
            }
            let budget = (passes % 2 == 1).then_some(32 * 1024);
            moved_beside_mutators += rt.defragment(budget).objects_moved;
            progress.passes.fetch_add(1, Relaxed);
        }
        workers.into_iter().map(|w| w.join().expect("worker")).collect()
    });

    let mut models: Vec<_> = worked.iter().map(|w| w.model.clone()).collect();
    let addr_of = check(&rt, &service, &models);
    let arena_at = |addr: u64| service.arena_of(VirtAddr(addr)).expect("owned");

    // None of it vacuous.
    let homes: BTreeSet<usize> = worked.iter().map(|w| w.home).collect();
    assert_eq!(homes.len(), WORKERS, "every worker had an arena of its own: {homes:?}");
    let holding: BTreeSet<usize> = addr_of.values().map(|&a| arena_at(a)).collect();
    assert!(holding.len() >= 2, "blocks are left in arenas {holding:?} only");
    let sum = |f: fn(&Worked) -> u64| worked.iter().map(f).sum::<u64>();
    assert!(sum(|w| w.frees_elsewhere) > 0, "no block was freed from another arena's thread");
    assert!(sum(|w| w.reallocs_from_elsewhere) > 0, "no block was resized out of another arena");
    assert!(sum(|w| w.pins_held_across_steps) > 0, "no pin was held across steps");
    assert!(progress.passes.load(Relaxed) >= MIN_PASSES);
    assert!(moved_beside_mutators > 0, "no pass beside the mutators moved anything");

    // The concurrent passes may have left little to do.  Free two blocks in
    // three, in address order, so that every arena holding blocks has holes
    // again (from this thread, which has no arena of its own yet).
    let mut by_addr: Vec<(u64, u64)> = addr_of.iter().map(|(&h, &addr)| (addr, h)).collect();
    by_addr.sort_unstable();
    for (nth, &(_, h)) in by_addr.iter().enumerate() {
        if nth % 3 != 0 {
            rt.hfree(h).expect("live handle");
            assert!(models.iter_mut().any(|m| m.remove(&h).is_some()));
        }
    }
    let mut addr_of = check(&rt, &service, &models);

    // With the mutators gone every changed address is a move: passes take
    // their one source from whichever arena has the worst, and an object
    // stays in its arena.
    let mut evacuated: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..500 {
        if rt.defragment(None).objects_moved == 0 {
            break;
        }
        let mut sources = BTreeSet::new();
        for (&h, addr) in addr_of.iter_mut() {
            let now = rt.translate(h).expect("live handle").0;
            if now != *addr {
                assert_eq!(arena_at(now), arena_at(*addr), "{h:#x} changed arenas in a pass");
                sources.insert(arena_at(*addr));
                *addr = now;
            }
        }
        assert_eq!(sources.len(), 1, "one pass, one source");
        evacuated.extend(sources);
    }
    assert!(evacuated.len() >= 2, "passes only ever evacuated arenas {evacuated:?}");
    check(&rt, &service, &models);

    // The main thread frees everything, wherever it lives.
    for &h in addr_of.keys() {
        rt.hfree(h).expect("live handle");
    }
    check(&rt, &service, &[]);
}

/// A fixed alloc / free / realloc / defragment sequence on one thread, and
/// the hash of every address it was given: recorded at the commit before
/// arenas (032cc1b), where it is the same.
#[test]
fn a_single_thread_is_placed_as_it_was_before_arenas() {
    let (service, rt) = runtime(64 * 1024);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut note = |value: u64| hash = (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    let mut live: Vec<u64> = Vec::new();
    let mut moved = 0;
    for step in 0..6_000u64 {
        match rng.below(8) {
            0..=3 => {
                let size = 1 + if rng.below(16) == 0 { rng.below(20_000) } else { rng.below(600) };
                let h = rt.halloc(size as usize).unwrap();
                note(rt.translate(h).unwrap().0);
                live.push(h);
            }
            4 | 5 if !live.is_empty() => {
                let h = live.swap_remove(rng.below(live.len() as u64) as usize);
                rt.hfree(h).unwrap();
            }
            6 if !live.is_empty() => {
                let h = live[rng.below(live.len() as u64) as usize];
                rt.hrealloc(h, 1 + rng.below(1_500) as usize).unwrap();
                note(rt.translate(h).unwrap().0);
            }
            _ => {}
        }
        if step % 500 == 499 {
            let out = rt.defragment((step % 1000 == 999).then_some(16 * 1024));
            moved += out.objects_moved;
            note(out.objects_moved);
            note(out.bytes_released);
            for &h in &live {
                note(rt.translate(h).unwrap().0);
            }
        }
    }
    let sample: Vec<u64> =
        live.iter().step_by(live.len() / 8).map(|&h| rt.translate(h).unwrap().0).collect();
    assert!(moved > 50, "the passes must move objects for their placement to count");
    assert_eq!(
        sample,
        [
            0x14e0c4d0, 0x13005670, 0x14c09c70, 0x11203ca0, 0x15204230, 0x112024a0, 0x13c06310,
            0x14e03aa0
        ],
        "final addresses"
    );
    assert_eq!(hash, 0x7cbc_1fde_5b2f_ca6c, "every address handed out on the way");
    assert!(live.iter().all(|&h| service.arena_of(rt.translate(h).unwrap()) == Some(0)));
    assert_eq!(service.verify_index(), Ok(()));
}
