//! Extending Alaska with a custom service (§3.5): a toy "cold-object swapper"
//! that uses handle invalidation (§7's handle faults) to evict rarely used
//! objects to a backing store and fault them back in on access.
//!
//! Run with: `cargo run --example custom_service`

use alaska::heap::vmem::{VirtAddr, VirtualMemory};
use alaska::heap::AllocStats;
use alaska::runtime::handle::HandleId;
use alaska::runtime::service::{DefragOutcome, Service, ServiceContext, StoppedWorld};
use alaska::{AlaskaBuilder, HandleId as Id};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// A bump allocator that, during barriers, "swaps out" the coldest unpinned
/// objects by copying them to a spill region and releasing their hot-region
/// pages.  (A real implementation would write them to disk or far memory —
/// §7's discussion; the mechanism through the service interface is the same.)
///
/// The runtime calls a service through `&self`, from any thread: what changes
/// after construction sits behind the service's own lock.
struct ColdSwapper {
    vm: VirtualMemory,
    hot_base: VirtAddr,
    spill_base: VirtAddr,
    state: Mutex<SwapState>,
}

#[derive(Default)]
struct SwapState {
    hot_cursor: u64,
    spill_cursor: u64,
    objects: HashMap<HandleId, (VirtAddr, usize)>,
    live: u64,
    swapped_out: u64,
}

impl ColdSwapper {
    fn new(vm: VirtualMemory) -> Self {
        let hot_base = vm.map(64 * 1024 * 1024);
        let spill_base = vm.map(64 * 1024 * 1024);
        ColdSwapper { vm, hot_base, spill_base, state: Mutex::default() }
    }

    fn state(&self) -> MutexGuard<'_, SwapState> {
        self.state.lock().expect("no panic under the swapper's lock")
    }
}

impl Service for ColdSwapper {
    fn init(&mut self, _ctx: &ServiceContext) {}
    fn deinit(&mut self, _ctx: &ServiceContext) {}

    fn alloc(&self, size: usize, id: HandleId) -> Option<VirtAddr> {
        let mut state = self.state();
        let addr = self.hot_base.add(state.hot_cursor);
        state.hot_cursor += alaska::heap::align_up(size.max(1) as u64, 16);
        state.objects.insert(id, (addr, size));
        state.live += size as u64;
        Some(addr)
    }

    fn free(&self, id: HandleId, _addr: VirtAddr, size: usize) {
        let mut state = self.state();
        state.objects.remove(&id);
        state.live -= size as u64;
    }

    fn usable_size(&self, addr: VirtAddr) -> Option<usize> {
        self.state().objects.values().find(|(a, _)| *a == addr).map(|(_, s)| *s)
    }

    fn heap_stats(&self) -> AllocStats {
        let state = self.state();
        AllocStats {
            live_bytes: state.live,
            live_objects: state.objects.len() as u64,
            heap_extent: state.hot_cursor + state.spill_cursor,
            ..Default::default()
        }
    }

    fn defragment(&self, world: &mut StoppedWorld<'_>, budget: Option<u64>) -> DefragOutcome {
        // "Swap out" unpinned objects: move them to the spill region and mark
        // their handle-table entries invalid so the next access faults.  The
        // world is stopped, but the lock is still taken: see `Service`.
        let mut state = self.state();
        let mut outcome = DefragOutcome::default();
        let budget = budget.unwrap_or(u64::MAX);
        let ids: Vec<HandleId> = state.objects.keys().copied().collect();
        for id in ids {
            if outcome.bytes_moved >= budget {
                break;
            }
            if world.is_pinned(id) {
                outcome.objects_skipped_pinned += 1;
                continue;
            }
            let (addr, size) = state.objects[&id];
            let dst = self.spill_base.add(state.spill_cursor);
            state.spill_cursor += alaska::heap::align_up(size.max(1) as u64, 16);
            if world.move_object(id, dst) {
                world.set_invalid(id, true);
                state.objects.insert(id, (dst, size));
                outcome.objects_moved += 1;
                outcome.bytes_moved += size as u64;
                state.swapped_out += 1;
                // Release the hot-region pages the object used to occupy.
                outcome.bytes_released += self.vm.madvise_dontneed(addr, size as u64);
            }
        }
        outcome
    }

    fn name(&self) -> &'static str {
        "cold-swapper"
    }
}

fn main() {
    let vm = VirtualMemory::default();
    let rt = AlaskaBuilder::new()
        .with_vm(vm.clone())
        .with_service(Box::new(ColdSwapper::new(vm)))
        .with_handle_faults()
        .build();

    let handles: Vec<u64> = (0..1000)
        .map(|i| {
            let h = rt.halloc(4096).unwrap();
            rt.write_u64(h, 0, i);
            h
        })
        .collect();
    println!("service: {}", rt.service_name());
    println!("before swap: rss = {} KiB", rt.rss_bytes() / 1024);

    // Swap everything cold out; entries become invalid.
    let out = rt.defragment(None);
    println!(
        "swapped out {} objects ({} KiB), skipped {} pinned",
        out.objects_moved,
        out.bytes_moved / 1024,
        out.objects_skipped_pinned
    );

    // Accessing a swapped object takes a handle fault and then just works.
    let probe: Id = alaska::Handle::from_bits(handles[77]).unwrap().id();
    let _ = probe;
    assert_eq!(rt.read_u64(handles[77], 0), 77);
    println!("handle faults taken so far: {}", rt.stats().handle_faults);
    assert!(rt.stats().handle_faults > 0);
    println!("object 77 read back correctly after being swapped and faulted in");
}
