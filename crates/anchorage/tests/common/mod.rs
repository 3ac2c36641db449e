//! Shared by the integration tests of this crate.

use alaska_anchorage::service::AnchorageService;
use alaska_heap::vmem::VirtAddr;
use alaska_heap::AllocStats;
use alaska_runtime::service::{DefragOutcome, Service, StoppedWorld};
use alaska_runtime::HandleId;
use std::sync::Arc;

/// The service the runtime owns, shared with the test so that it can look
/// inside between steps (a `Runtime` only hands out `&dyn Service`, and the
/// test wants the `AnchorageService` behind it).
pub struct Shared(pub Arc<AnchorageService>);

impl Service for Shared {
    fn alloc(&self, size: usize, id: HandleId) -> Option<VirtAddr> {
        self.0.alloc(size, id)
    }
    fn free(&self, id: HandleId, addr: VirtAddr, size: usize) {
        self.0.free(id, addr, size)
    }
    fn realloc(
        &self,
        id: HandleId,
        old: VirtAddr,
        old_size: usize,
        new_size: usize,
    ) -> Option<VirtAddr> {
        self.0.realloc(id, old, old_size, new_size)
    }
    fn usable_size(&self, addr: VirtAddr) -> Option<usize> {
        self.0.usable_size(addr)
    }
    fn heap_stats(&self) -> AllocStats {
        self.0.heap_stats()
    }
    fn fragmentation(&self) -> f64 {
        self.0.fragmentation()
    }
    fn defragment(&self, world: &mut StoppedWorld<'_>, budget: Option<u64>) -> DefragOutcome {
        self.0.defragment(world, budget)
    }
    fn shed_memory(&self) -> u64 {
        self.0.shed_memory()
    }
    fn name(&self) -> &'static str {
        "anchorage (shared with the test)"
    }
}

/// `len` bytes that depend on `seed` and on their position, none of them zero
/// (untouched memory reads as zero).
pub fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed as u8).wrapping_mul(31).wrapping_add(i as u8) | 1).collect()
}
