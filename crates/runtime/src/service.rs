//! The extensible service interface (paper §3.5, §4.2.2).
//!
//! Alaska's core runtime does not manage backing memory itself; it defers to a
//! pluggable **service**.  The paper's interface consists of eight callbacks —
//! two lifetime functions, two backing-memory functions and four metadata
//! functions — reproduced here as the [`Service`] trait:
//!
//! | paper | here |
//! |---|---|
//! | `init` / `deinit` | [`Service::init`] / [`Service::deinit`] |
//! | `alloc` / `free` | [`Service::alloc`] / [`Service::free`] |
//! | object size query | [`Service::usable_size`] |
//! | heap statistics query | [`Service::heap_stats`] |
//! | fragmentation query | [`Service::fragmentation`] |
//! | movement / barrier hook | [`Service::defragment`] |
//!
//! During a stop-the-world barrier the runtime hands the service a
//! [`StoppedWorld`], through which it can inspect pin status and relocate
//! unpinned objects; the handle-table update is the only pointer that needs to
//! change, which is what makes movement `O(1)` per object.

use crate::handle::HandleId;
use crate::handle_table::{HandleTable, HteState};
use crate::stats::RuntimeStats;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_heap::AllocStats;
use alaska_telemetry::Telemetry;
use std::collections::HashSet;
use std::sync::Arc;

/// Context handed to services at initialization: the shared address space the
/// service must allocate backing memory from.
#[derive(Debug, Clone)]
pub struct ServiceContext {
    /// The simulated address space shared with the runtime and application.
    pub vm: VirtualMemory,
}

/// Result of a [`Service::defragment`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragOutcome {
    /// Objects relocated during this barrier.
    pub objects_moved: u64,
    /// Bytes copied during this barrier.
    pub bytes_moved: u64,
    /// Bytes of physical memory returned to the kernel.
    pub bytes_released: u64,
    /// Objects that could not be moved because they were pinned.
    pub objects_skipped_pinned: u64,
    /// Nanoseconds spent building the evacuation plan (victim selection and
    /// destination reservation) under the pause.
    pub plan_ns: u64,
    /// Nanoseconds spent copying object bytes and repointing entries.
    pub copy_ns: u64,
    /// Nanoseconds spent folding bookkeeping back in and trimming sub-heaps.
    pub commit_ns: u64,
    /// Coalesced copy batches executed (0 for services that move one object
    /// at a time).
    pub copy_batches: u64,
    /// Threads that executed copy batches: 1 when the pass copied anything,
    /// else 0.
    pub copy_workers: u64,
}

/// A backing-memory service plugged into the Alaska runtime.
///
/// Implementations must be `Send + Sync`, and every operation after
/// [`Service::init`] takes `&self`: the runtime calls the service from any
/// registered thread, from several at once, and holds no lock around the
/// call.  **A service synchronises itself** — behind one mutex
/// ([`MallocService`](crate::malloc_service::MallocService)) or a finer
/// scheme (Anchorage's per-thread arenas).  [`Service::defragment`] runs with
/// the world stopped, but threads in external code and callers that use the
/// service without a runtime are not stopped, so it must still take its own
/// locks.  A service must not call back into the runtime that owns it while
/// holding one of its locks (no safepoint is ever polled under a service
/// lock).
pub trait Service: Send + Sync {
    /// Called once when the service is installed into a runtime.
    fn init(&mut self, _ctx: &ServiceContext) {}

    /// Called when the runtime is torn down.
    fn deinit(&mut self, _ctx: &ServiceContext) {}

    /// Provide backing memory for a new object of `size` bytes identified by
    /// handle `id`.  Returns `None` if the request cannot be satisfied.
    fn alloc(&self, size: usize, id: HandleId) -> Option<VirtAddr>;

    /// Release the backing memory of object `id`.  `addr` and `size` (the
    /// requested size) are read off the handle-table entry the runtime has
    /// just claimed, so they are authoritative: a service needs no ID-keyed
    /// record of its own to find the block.
    fn free(&self, id: HandleId, addr: VirtAddr, size: usize);

    /// Resize object `id` in place of the alloc/copy/free dance: on success
    /// the service has allocated the new block, copied `old_size.min(new_size)`
    /// bytes from `old_addr`, released the old block, and returns the new
    /// address.  `old_addr` and `old_size` come from the object's live
    /// handle-table entry and are authoritative, as in [`Service::free`].
    /// Implementing this is optional: the default returns `None` and the
    /// runtime falls back to alloc → copy → free under the same ID, which a
    /// service that finds blocks by address handles as it stands.  Only a
    /// service that also keeps records keyed by handle ID needs its own
    /// `realloc` (the fallback's `alloc` would meet a duplicate ID).
    fn realloc(
        &self,
        _id: HandleId,
        _old_addr: VirtAddr,
        _old_size: usize,
        _new_size: usize,
    ) -> Option<VirtAddr> {
        None
    }

    /// Usable size of the block at `addr`, if this service owns it.
    fn usable_size(&self, addr: VirtAddr) -> Option<usize>;

    /// Allocation statistics for the service's heap.
    fn heap_stats(&self) -> AllocStats;

    /// Current fragmentation estimate (heap extent over live bytes), the `O(1)`
    /// metric driving the Anchorage control algorithm.
    fn fragmentation(&self) -> f64 {
        let st = self.heap_stats();
        alaska_heap::fragmentation_ratio(st.heap_extent, st.live_bytes)
    }

    /// Invoked with the world stopped.  The service may move unpinned objects
    /// through [`StoppedWorld::move_object`] and release memory.  `budget_bytes`
    /// bounds how many bytes may be copied in this pause (partial
    /// defragmentation); `None` means unbounded.
    fn defragment(
        &self,
        _world: &mut StoppedWorld<'_>,
        _budget_bytes: Option<u64>,
    ) -> DefragOutcome {
        DefragOutcome::default()
    }

    /// Called by the runtime when a backing allocation fails: release
    /// whatever physical memory can be freed cheaply *right now* (empty
    /// sub-heaps, trimmed tails) and return how many bytes were shed.  Runs
    /// outside any barrier, so implementations must only touch memory no live
    /// object occupies.  The default sheds nothing.
    fn shed_memory(&self) -> u64 {
        0
    }

    /// Called when a telemetry hub is installed on the owning runtime.  The
    /// service may keep the `Arc` and publish its own metrics and events
    /// (Anchorage records sub-heap lifecycle and fragmentation gauges).  The
    /// default keeps nothing: telemetry stays a strictly opt-in concern.
    fn attach_telemetry(&self, _telemetry: &Arc<Telemetry>) {}

    /// Service name used in benchmark output.
    fn name(&self) -> &'static str;
}

/// One relocation inside an evacuation plan: move the `len`-byte block of
/// handle `id` from `src` to `dst`.
///
/// `len` is the service's *rounded* block length (it covers the requested
/// size), so adjacent plan entries can be recognised as one contiguous copy
/// range by [`batch_is_contiguous`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Handle whose entry is repointed once the bytes land.
    pub id: HandleId,
    /// Current backing address of the block.
    pub src: VirtAddr,
    /// Reserved destination address, owned by the planning service.
    pub dst: VirtAddr,
    /// Block length to copy, in bytes.
    pub len: u64,
}

/// Whether `moves` form one contiguous source range mapping onto one
/// contiguous destination range, i.e. each entry starts exactly where the
/// previous one ended on both sides.  Such a batch can be applied with a
/// single bulk copy instead of one copy per object.
pub fn batch_is_contiguous(moves: &[PlannedMove]) -> bool {
    moves
        .windows(2)
        .all(|w| w[0].src.add(w[0].len) == w[1].src && w[0].dst.add(w[0].len) == w[1].dst)
}

/// What applying one copy batch did — see [`StoppedWorld::move_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchApply {
    /// Entries successfully copied and repointed.
    pub objects_moved: u64,
    /// Bytes copied for those entries (rounded block lengths).
    pub bytes_moved: u64,
    /// Handles whose move was refused (pinned, dead, or no longer backed at
    /// the planned source address).  The planner keeps their old records and
    /// must return the reserved destinations to its free lists.
    pub failed: Vec<HandleId>,
}

/// A view of the stopped world handed to [`Service::defragment`].
///
/// All threads are parked (or in external code) while this value exists, so
/// the service may move any object that is not pinned.  The handle table is
/// held by shared reference: entry words are atomic, and the runtime holds
/// the table lock for the duration of the pause, so no ID is reserved or
/// restocked.  That lock does not keep a magazine `halloc`/`hfree` out: those
/// poll a safepoint first, so a registered thread that starts one parks until
/// the pause ends, and Anchorage's pass holds every arena lock against a
/// thread in external code that passed its poll before the pause began.
pub struct StoppedWorld<'a> {
    table: &'a HandleTable,
    pinned: &'a HashSet<HandleId>,
    vm: &'a VirtualMemory,
    stats: &'a RuntimeStats,
}

impl<'a> StoppedWorld<'a> {
    pub(crate) fn new(
        table: &'a HandleTable,
        pinned: &'a HashSet<HandleId>,
        vm: &'a VirtualMemory,
        stats: &'a RuntimeStats,
    ) -> Self {
        StoppedWorld { table, pinned, vm, stats }
    }

    /// The shared address space (for copying object bytes).
    pub fn vm(&self) -> &VirtualMemory {
        self.vm
    }

    /// Whether handle `id` is pinned by any thread and therefore immobile.
    pub fn is_pinned(&self, id: HandleId) -> bool {
        self.pinned.contains(&id)
    }

    /// Number of pinned handles in this pause.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// Current backing address of a live handle.
    pub fn backing(&self, id: HandleId) -> Option<VirtAddr> {
        self.table.backing(id)
    }

    /// Requested size of a live handle's object.
    pub fn size_of(&self, id: HandleId) -> Option<u32> {
        self.table.get(id).map(|e| e.size)
    }

    /// All live handle IDs (heap scan), in ID order.
    pub fn live_ids(&self) -> Vec<HandleId> {
        self.table.live_ids()
    }

    /// Move object `id` to `dst`: copy its bytes and update its handle-table
    /// entry.  Refuses (returns `false`) if the object is pinned or not live.
    ///
    /// The destination region must already be owned by the calling service and
    /// must not overlap live objects — the runtime cannot check that.
    pub fn move_object(&mut self, id: HandleId, dst: VirtAddr) -> bool {
        if self.is_pinned(id) {
            return false;
        }
        let (src, size) = match self.table.get(id) {
            Some(e) => (e.backing, e.size),
            None => return false,
        };
        if src == dst {
            return true;
        }
        self.vm.copy(src, dst, size as usize);
        self.table.set_backing(id, dst);
        RuntimeStats::bump(&self.stats.objects_moved);
        RuntimeStats::add(&self.stats.bytes_moved, size as u64);
        true
    }

    /// Apply one disjoint copy batch: copy every entry's bytes and repoint
    /// its handle-table entry.  Entries that are pinned, dead, or no longer
    /// backed at their planned `src` are skipped and reported in
    /// [`BatchApply::failed`]; the rest are moved.
    ///
    /// As for [`move_object`](Self::move_object), the destinations must
    /// already be owned by the calling service and must not overlap live
    /// objects — the runtime cannot check that.
    /// When every entry is movable and [`batch_is_contiguous`] holds, the
    /// whole batch is copied with one bulk `vm.copy`.
    pub fn move_batch(&self, moves: &[PlannedMove]) -> BatchApply {
        let mut out = BatchApply::default();
        if moves.is_empty() {
            return out;
        }
        // Validate before any bytes move, so a fully-clean batch can take the
        // single bulk copy below.
        let mut apply: Vec<&PlannedMove> = Vec::with_capacity(moves.len());
        for mv in moves {
            if mv.src == mv.dst {
                continue; // trivially done; parity with move_object
            }
            let live_at_src = self.table.get(mv.id).map(|e| e.backing == mv.src).unwrap_or(false);
            if self.is_pinned(mv.id) || !live_at_src {
                out.failed.push(mv.id);
                continue;
            }
            apply.push(mv);
        }
        if apply.len() == moves.len() && batch_is_contiguous(moves) {
            let total: u64 = moves.iter().map(|m| m.len).sum();
            self.vm.copy(moves[0].src, moves[0].dst, total as usize);
        } else {
            for mv in &apply {
                self.vm.copy(mv.src, mv.dst, mv.len as usize);
            }
        }
        for mv in &apply {
            self.table.set_backing(mv.id, mv.dst);
            out.objects_moved += 1;
            out.bytes_moved += mv.len;
        }
        RuntimeStats::add(&self.stats.objects_moved, out.objects_moved);
        RuntimeStats::add(&self.stats.bytes_moved, out.bytes_moved);
        out
    }

    /// Mark a live object invalid (handle-fault path, §7) — used by services
    /// that speculatively move or swap objects outside barriers.
    pub fn set_invalid(&mut self, id: HandleId, invalid: bool) {
        self.table.set_state(id, if invalid { HteState::Invalid } else { HteState::Live });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaska_heap::vmem::VirtualMemory;

    fn world_parts() -> (HandleTable, HashSet<HandleId>, VirtualMemory, RuntimeStats) {
        (
            HandleTable::with_capacity(1024),
            HashSet::new(),
            VirtualMemory::shared(4096),
            RuntimeStats::new(),
        )
    }

    #[test]
    fn move_object_copies_and_updates_hte() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(8192);
        let src = region;
        let dst = region.add(4096);
        vm.write_bytes(src, b"payload!");
        let id = table.allocate(src, 8).unwrap();
        {
            let mut world = StoppedWorld::new(&table, &pinned, &vm, &stats);
            assert!(world.move_object(id, dst));
        }
        assert_eq!(table.backing(id), Some(dst));
        assert_eq!(&vm.read_vec(dst, 8), b"payload!");
        assert_eq!(stats.snapshot().objects_moved, 1);
        assert_eq!(stats.snapshot().bytes_moved, 8);
    }

    #[test]
    fn pinned_objects_refuse_to_move() {
        let (table, mut pinned, vm, stats) = world_parts();
        let region = vm.map(8192);
        let id = table.allocate(region, 16).unwrap();
        pinned.insert(id);
        let mut world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        assert!(world.is_pinned(id));
        assert!(!world.move_object(id, region.add(4096)));
        assert_eq!(stats.snapshot().objects_moved, 0);
    }

    #[test]
    fn moving_to_same_location_is_a_cheap_noop() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(4096);
        let id = table.allocate(region, 16).unwrap();
        let mut world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        assert!(world.move_object(id, region));
        assert_eq!(stats.snapshot().bytes_moved, 0);
    }

    #[test]
    fn dead_objects_cannot_move() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(4096);
        let id = table.allocate(region, 16).unwrap();
        table.release(id);
        let mut world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        assert!(!world.move_object(id, region.add(64)));
    }

    #[test]
    fn set_invalid_toggles_state() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(4096);
        let id = table.allocate(region, 16).unwrap();
        {
            let mut world = StoppedWorld::new(&table, &pinned, &vm, &stats);
            world.set_invalid(id, true);
        }
        assert_eq!(table.get(id).unwrap().state, HteState::Invalid);
    }

    #[test]
    fn move_batch_bulk_copies_contiguous_runs() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(16384);
        let mut moves = Vec::new();
        for i in 0..4u64 {
            let src = region.add(512 + i * 64);
            let dst = region.add(8192 + i * 64);
            vm.write_bytes(src, &i.to_le_bytes());
            let id = table.allocate(src, 64).unwrap();
            moves.push(PlannedMove { id, src, dst, len: 64 });
        }
        assert!(batch_is_contiguous(&moves));
        let world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        let applied = world.move_batch(&moves);
        assert_eq!(applied.objects_moved, 4);
        assert_eq!(applied.bytes_moved, 256);
        assert!(applied.failed.is_empty());
        for (i, mv) in moves.iter().enumerate() {
            assert_eq!(table.backing(mv.id), Some(mv.dst));
            assert_eq!(vm.read_vec(mv.dst, 8), (i as u64).to_le_bytes());
        }
        assert_eq!(stats.snapshot().objects_moved, 4);
        assert_eq!(stats.snapshot().bytes_moved, 256);
    }

    #[test]
    fn move_batch_skips_pinned_and_dead_entries() {
        let (table, mut pinned, vm, stats) = world_parts();
        let region = vm.map(16384);
        let mk = |i: u64| {
            let src = region.add(i * 64);
            (table.allocate(src, 64).unwrap(), src)
        };
        let (alive, alive_src) = mk(0);
        let (pinned_id, pinned_src) = mk(1);
        let (dead, dead_src) = mk(2);
        pinned.insert(pinned_id);
        table.release(dead);
        vm.write_bytes(alive_src, b"still ok");
        let moves = [
            PlannedMove { id: alive, src: alive_src, dst: region.add(8192), len: 64 },
            PlannedMove { id: pinned_id, src: pinned_src, dst: region.add(8256), len: 64 },
            PlannedMove { id: dead, src: dead_src, dst: region.add(8320), len: 64 },
        ];
        let world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        let applied = world.move_batch(&moves);
        assert_eq!(applied.objects_moved, 1);
        assert_eq!(applied.failed, vec![pinned_id, dead]);
        assert_eq!(table.backing(alive), Some(region.add(8192)));
        assert_eq!(&vm.read_vec(region.add(8192), 8), b"still ok");
        assert_eq!(table.backing(pinned_id), Some(pinned_src));
    }

    #[test]
    fn disjoint_batches_apply_concurrently_from_scoped_workers() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(1 << 20);
        let mut batches: Vec<Vec<PlannedMove>> = Vec::new();
        for b in 0..4u64 {
            let mut batch = Vec::new();
            for i in 0..32u64 {
                let src = region.add((b * 32 + i) * 128);
                let dst = region.add((1 << 19) + (b * 32 + i) * 128);
                vm.write_bytes(src, &(b * 32 + i).to_le_bytes());
                let id = table.allocate(src, 128).unwrap();
                batch.push(PlannedMove { id, src, dst, len: 128 });
            }
            batches.push(batch);
        }
        let world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        let world_ref = &world;
        std::thread::scope(|scope| {
            for batch in &batches {
                scope.spawn(move || {
                    let applied = world_ref.move_batch(batch);
                    assert_eq!(applied.objects_moved, 32);
                });
            }
        });
        for (n, mv) in batches.iter().flatten().enumerate() {
            assert_eq!(table.backing(mv.id), Some(mv.dst));
            assert_eq!(vm.read_vec(mv.dst, 8), (n as u64).to_le_bytes());
        }
        assert_eq!(stats.snapshot().objects_moved, 128);
    }

    #[test]
    fn live_ids_scan_covers_all_live_ids() {
        let (table, pinned, vm, stats) = world_parts();
        let region = vm.map(8192);
        let ids: Vec<_> =
            (0..10).map(|i| table.allocate(region.add(i * 16), 16).unwrap()).collect();
        let world = StoppedWorld::new(&table, &pinned, &vm, &stats);
        assert_eq!(world.live_ids(), ids, "every live ID, in ID order");
    }
}
