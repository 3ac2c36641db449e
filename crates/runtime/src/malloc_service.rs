//! A pass-through service that backs handles with the non-moving free-list
//! allocator.
//!
//! This is the "Alaska without a service" configuration of the paper's
//! overhead study (§5.4): handles, translation and pin tracking are all active,
//! but backing memory comes from a `malloc`-like allocator and no movement ever
//! happens.  It is also a convenient default for tests and examples.

use crate::handle::HandleId;
use crate::service::{Service, ServiceContext};
use alaska_heap::freelist::FreeListAllocator;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_heap::{AllocStats, BackingAllocator};
use parking_lot::{Mutex, MutexGuard};

/// Service adapter around [`FreeListAllocator`].  Never moves objects.  The
/// free list is one structure, so one mutex guards it: like the `malloc` it
/// stands in for, it serialises allocating threads.
pub struct MallocService {
    alloc: Mutex<FreeListAllocator>,
}

impl MallocService {
    /// Create a malloc-backed service allocating from `vm`.
    pub fn new(vm: VirtualMemory) -> Self {
        MallocService { alloc: Mutex::new(FreeListAllocator::new(vm)) }
    }

    /// Lock and access the underlying allocator (for tests and diagnostics).
    pub fn allocator(&self) -> MutexGuard<'_, FreeListAllocator> {
        self.alloc.lock()
    }
}

impl Service for MallocService {
    fn init(&mut self, _ctx: &ServiceContext) {}

    fn deinit(&mut self, _ctx: &ServiceContext) {}

    fn alloc(&self, size: usize, _id: HandleId) -> Option<VirtAddr> {
        self.alloc.lock().alloc(size)
    }

    fn free(&self, _id: HandleId, addr: VirtAddr, _size: usize) {
        self.alloc.lock().free(addr);
    }

    fn usable_size(&self, addr: VirtAddr) -> Option<usize> {
        self.alloc.lock().size_of(addr)
    }

    fn heap_stats(&self) -> AllocStats {
        self.alloc.lock().stats()
    }

    fn name(&self) -> &'static str {
        "malloc-passthrough"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_and_frees_through_the_freelist() {
        let vm = VirtualMemory::shared(4096);
        let s = MallocService::new(vm);
        let a = s.alloc(100, HandleId(0)).unwrap();
        assert_eq!(s.usable_size(a), Some(100));
        assert_eq!(s.heap_stats().live_objects, 1);
        s.free(HandleId(0), a, 100);
        assert_eq!(s.heap_stats().live_objects, 0);
        assert_eq!(s.name(), "malloc-passthrough");
    }

    #[test]
    fn default_defragment_moves_nothing() {
        use crate::handle_table::HandleTable;
        use crate::service::StoppedWorld;
        use crate::stats::RuntimeStats;
        use std::collections::HashSet;

        let vm = VirtualMemory::shared(4096);
        let s = MallocService::new(vm.clone());
        let a = s.alloc(64, HandleId(0)).unwrap();
        let table = HandleTable::new();
        let id = table.allocate(a, 64).unwrap();
        let pinned = HashSet::new();
        let stats = RuntimeStats::new();
        let mut world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        let out = s.defragment(&mut world, None);
        assert_eq!(out.objects_moved, 0);
        assert_eq!(table.backing(id), Some(a));
    }
}
