//! The Anchorage service: a moving, defragmenting backing-memory allocator.
//!
//! Allocation policy (paper §4.3): requests go to the *active* sub-heap of
//! the calling thread's arena, first consulting its power-of-two free list,
//! then bumping.  When the active sub-heap cannot satisfy a request, a new
//! sub-heap is opened (or an empty one reused) and becomes active.
//!
//! # Arenas
//!
//! The service is a fixed array of **arenas**, each one a complete allocator
//! state — its sub-heaps, which of them is active, the address-ordered index
//! of its live blocks, its statistics — behind its own lock.  The count comes
//! from `available_parallelism` ([`arena_count`]).
//!
//! * **Allocation** goes to the arena named by the calling thread's *slot*: a
//!   number the service hands the thread on its first allocation (0, 1, 2, …
//!   in order of arrival, kept in a thread-local).  Threads that allocate at
//!   the same time therefore take different locks and bump different
//!   sub-heaps.  The first thread gets slot 0: a single-threaded program only
//!   ever uses arena 0, whose first sub-heap is reserved at construction; the
//!   other arenas reserve theirs on their first allocation.
//! * **`free`, `realloc`, `usable_size`** name a block by address, and the
//!   block may be another thread's.  The owning arena comes from the
//!   **address → arena table** (`Owners`): one row per sub-heap ever
//!   reserved, in base-address order, appended under a lock of its own and
//!   read with a binary search that takes no lock and writes nothing shared.
//!   A `realloc` whose block lives in another arena allocates in the caller's
//!   arena, copies, then releases in the owner's — one arena lock at a time.
//! * **[`AnchorageConfig::max_heap_bytes`]** bounds the reservations of all
//!   arenas together, through one shared total.  A thread whose arena cannot
//!   grow under it is served from another arena that still has room.
//! * A mutator holds at most one arena lock, takes no other lock of the
//!   runtime under it and never polls a safepoint while holding it; a pass
//!   takes all of them, in index order.
//!
//! # Defragmentation
//!
//! During a stop-the-world barrier, unpinned objects are moved from the top
//! of a *source* sub-heap into the active sub-heap of the same arena.  A pass
//! evacuates **one source**: the most fragmented non-active sub-heap across
//! all arenas, or — when there is none — the active sub-heap of the arena
//! whose active sub-heap is the most fragmented, which is first rotated out.
//! Each move copies the object's bytes and updates a single handle-table
//! entry.  The vacated top of the source is then returned to the kernel with
//! `MADV_DONTNEED`, so RSS drops as soon as the pause ends.  A `budget` bounds
//! how many bytes may be copied per pause (partial defragmentation, amortized
//! across pauses by the control algorithm).
//!
//! A pass runs in three phases, all under the pause:
//!
//! 1. **Plan** — pick the source, walk its address range of the arena's
//!    *index* (the one address-ordered map of live blocks, see `Arena`)
//!    top-down until the budget is filled, reserve every destination range
//!    up front, and coalesce moves whose source *and* destination blocks are
//!    adjacent into batched copy ranges.
//! 2. **Copy** — execute the batches one after another on the pausing
//!    thread ([`StoppedWorld::move_batch`], one bulk copy per contiguous
//!    batch).
//! 3. **Commit** — per moved object: free the source block and re-key its
//!    index record from source to destination address; per object not moved,
//!    give its destination block back; then trim the source's extent and
//!    release the vacated pages.

use crate::subheap::SubHeap;
use alaska_faultline as faultline;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_heap::{align_up, AllocStats};
use alaska_runtime::handle::HandleId;
use alaska_runtime::service::{DefragOutcome, PlannedMove, Service, ServiceContext, StoppedWorld};
use alaska_telemetry::{Counter, Event, Gauge, Histogram, Telemetry, TelemetrySink};
use std::cell::RefCell;
use std::collections::{btree_map::Entry, BTreeMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default capacity of a single sub-heap.
pub const DEFAULT_SUBHEAP_CAPACITY: u64 = 64 * 1024 * 1024;

/// Fewest arenas a service has: a few more threads than cores still get an
/// arena each (one that is never used reserves nothing).
const MIN_ARENAS: usize = 4;
/// Most arenas a service has; beyond this the arena locks are no longer what
/// allocating threads wait for.
const MAX_ARENAS: usize = 64;

/// Arena count derived from the machine: `available_parallelism`, rounded up
/// to a power of two (a slot is mapped to its arena with a mask), clamped to
/// `[4, 64]`.
pub fn arena_count() -> usize {
    std::thread::available_parallelism()
        .map_or(MIN_ARENAS, |n| n.get())
        .next_power_of_two()
        .clamp(MIN_ARENAS, MAX_ARENAS)
}

/// Metric names published by Anchorage (stable, used by harnesses and tests).
pub mod names {
    /// Gauge of sub-heaps currently reserved, over all arenas.
    pub const SUBHEAPS: &str = "anchorage_subheaps";
    /// Gauge of the sub-heap most recently made an allocation target (by an
    /// open, an empty-reuse or a rotation in any arena), as its position in
    /// the order the service reserved its sub-heaps.
    pub const ACTIVE_SUBHEAP: &str = "anchorage_active_subheap";
    /// Counter of bytes ever returned to the kernel with `MADV_DONTNEED`.
    pub const RELEASED_BYTES: &str = "anchorage_released_bytes";
    /// Histogram of modelled pause time per control-initiated pass, in
    /// microseconds.
    pub const PASS_PAUSE_US: &str = "anchorage_pass_pause_us";
    /// Histogram of the fragmentation ratio after each control-initiated
    /// pass, scaled by 1000 (histograms hold integers).
    pub const PASS_FRAGMENTATION_X1000: &str = "anchorage_pass_fragmentation_x1000";
    /// Gauge of the controller's measured duty cycle (pause time over
    /// elapsed simulated time).
    pub const CONTROL_OVERHEAD: &str = "anchorage_control_overhead";
    /// Gauge of controller state: 0 = waiting, 1 = defragmenting.
    pub const CONTROL_STATE: &str = "anchorage_control_state";
    /// Histogram of objects coalesced into each copy batch of a defrag pass.
    pub const DEFRAG_BATCH_OBJECTS: &str = "anchorage_defrag_batch_objects";
}

/// Resolved metric handles for Anchorage's instrumentation sites.  Created
/// once in [`Service::attach_telemetry`]; sub-heap lifecycle is rare enough
/// that caching is about clarity, not speed.
struct AnchorageTelemetry {
    hub: Arc<Telemetry>,
    subheaps: Arc<Gauge>,
    active: Arc<Gauge>,
    released: Arc<Counter>,
    batch_objects: Arc<Histogram>,
}

/// Configuration for [`AnchorageService`].
#[derive(Debug, Clone, Copy)]
pub struct AnchorageConfig {
    /// Capacity of each sub-heap in bytes.
    pub subheap_capacity: u64,
    /// Fragmentation ratio of the active sub-heap above which a defrag pass
    /// will rotate to a fresh destination even if no other source exists.
    pub rotate_threshold: f64,
    /// Ceiling on the total address space reserved across all sub-heaps of
    /// all arenas.  When reserving one more sub-heap would exceed it,
    /// allocation fails (`alloc` returns `None`) instead of growing, and the
    /// runtime's pressure-recovery path (shed + defragment + retry) takes
    /// over.  `None` (the default) means unbounded.
    pub max_heap_bytes: Option<u64>,
}

impl Default for AnchorageConfig {
    fn default() -> Self {
        AnchorageConfig {
            subheap_capacity: DEFAULT_SUBHEAP_CAPACITY,
            rotate_threshold: 1.2,
            max_heap_bytes: None,
        }
    }
}

/// One row of the address → arena table: a sub-heap's reservation and whose
/// it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner {
    base: u64,
    end: u64,
    /// Index of the owning arena.
    arena: usize,
    /// Index of the sub-heap in that arena's `subheaps`.
    local: usize,
}

/// Rows in the first chunk of [`Owners`]; each further chunk doubles.
const FIRST_CHUNK: usize = 64;
/// Chunks of [`Owners`]: room for `64 * (2^26 - 1)` sub-heaps.
const CHUNKS: usize = 26;

/// The address → arena table: one [`Owner`] row per sub-heap the service ever
/// reserved (sub-heaps are never unmapped), in increasing base order.
///
/// Rows are appended under `append` and never change; chunks of rows are
/// allocated on demand and never move.  A reader loads `len` (`Acquire`, paired
/// with the appender's `Release` store after the row is written) and searches
/// the rows below it: no lock, and no write to anything shared.
struct Owners {
    /// Chunk `k` holds `FIRST_CHUNK << k` rows, starting at row
    /// `FIRST_CHUNK * (2^k - 1)`.
    chunks: [OnceLock<Box<[OnceLock<Owner>]>>; CHUNKS],
    len: AtomicUsize,
    /// Held from `vm.map` to the append: the VM hands out increasing bases,
    /// and rows must be appended in that order.
    append: Mutex<()>,
}

impl Owners {
    fn new() -> Self {
        Owners {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
        }
    }

    /// Chunk and offset within it of row `i`.
    fn locate(i: usize) -> (usize, usize) {
        let k = (i / FIRST_CHUNK + 1).ilog2() as usize;
        (k, i - FIRST_CHUNK * ((1 << k) - 1))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Row `i`, for `i` below a value read from [`Owners::len`].
    fn row(&self, i: usize) -> Owner {
        let (k, offset) = Self::locate(i);
        let row = self.chunks[k].get().and_then(|chunk| chunk[offset].get());
        *row.expect("a row below `len` has been written")
    }

    /// The row of the sub-heap whose reservation holds `addr`.
    fn find(&self, addr: VirtAddr) -> Option<Owner> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid).base <= addr.0 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let row = self.row(lo.checked_sub(1)?);
        (addr.0 < row.end).then_some(row)
    }

    /// Reserve a sub-heap of `capacity` bytes — the `local`-th of arena
    /// `arena` — and append its row.
    fn reserve(&self, vm: &VirtualMemory, capacity: u64, arena: usize, local: usize) -> SubHeap {
        let _in_base_order = self.append.lock().expect("no panic between map and append");
        let id = self.len.load(Ordering::Relaxed);
        let heap = SubHeap::new(id, vm, capacity);
        let (k, offset) = Self::locate(id);
        let chunk =
            self.chunks[k].get_or_init(|| (0..FIRST_CHUNK << k).map(|_| OnceLock::new()).collect());
        let base = heap.base().0;
        chunk[offset]
            .set(Owner { base, end: base + capacity, arena, local })
            .expect("a row is written once");
        self.len.store(id + 1, Ordering::Release);
        heap
    }
}

/// What the arenas of one service share.
struct Shared {
    vm: VirtualMemory,
    config: AnchorageConfig,
    owners: Owners,
    /// Address space reserved by all arenas together, which
    /// [`AnchorageConfig::max_heap_bytes`] bounds.
    reserved: AtomicU64,
    /// Total bytes ever released back to the kernel.
    released: AtomicU64,
    telemetry: OnceLock<AnchorageTelemetry>,
}

impl Shared {
    /// Publish that `heap` was opened (or reused empty) as its arena's
    /// allocation target to the hub, if any.
    fn note_subheap_open(&self, heap: &SubHeap) {
        if let Some(tel) = self.telemetry.get() {
            tel.hub.emit(Event::SubheapOpen { index: heap.id as u64, capacity: heap.capacity() });
            tel.subheaps.set_u64(self.owners.len() as u64);
            tel.active.set_u64(heap.id as u64);
        }
    }

    /// Publish an active-sub-heap rotation (defrag changed the destination).
    fn note_rotate(&self, from: &SubHeap, to: &SubHeap) {
        if let Some(tel) = self.telemetry.get() {
            tel.hub.emit(Event::SubheapRotate { from: from.id as u64, to: to.id as u64 });
            tel.active.set_u64(to.id as u64);
        }
    }

    /// Account `bytes` returned to the kernel.
    fn note_released(&self, bytes: u64) {
        self.released.fetch_add(bytes, Ordering::Relaxed);
        if let Some(tel) = self.telemetry.get() {
            tel.released.add(bytes);
        }
    }
}

/// One arena: a complete allocator state, behind its own lock in
/// [`AnchorageService`].  See the [module documentation](self).
struct Arena {
    /// Position in the service's array, written into the table rows of the
    /// sub-heaps this arena reserves.
    idx: usize,
    /// In increasing base-address order (`vm.map` hands out increasing
    /// bases and sub-heaps are never removed).  Empty until the arena's
    /// first allocation, except in arena 0.
    subheaps: Vec<SubHeap>,
    active: usize,
    /// The only record of this arena's live objects: block address → (owning
    /// handle, requested size).  The occupied size is
    /// [`SubHeap::rounded_size`] of the requested one, the owning sub-heap
    /// follows from the address, and ID → address is the handle table's job —
    /// the runtime passes the address back on `free`/`realloc`.  One
    /// sub-heap's objects are one contiguous key range, which is what a
    /// defrag pass walks.
    index: BTreeMap<u64, (HandleId, u32)>,
    stats: AllocStats,
}

impl Arena {
    fn new(idx: usize) -> Self {
        Arena {
            idx,
            subheaps: Vec::new(),
            active: 0,
            index: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// The combined used extent of this arena's sub-heaps.
    fn heap_extent(&self) -> u64 {
        self.subheaps.iter().map(|s| s.extent()).sum()
    }

    /// Run a mutation against sub-heap `idx`, folding its extent change into
    /// `stats.heap_extent`.  Allocation and free keep the stat exact with one
    /// subtraction and one addition instead of an O(sub-heaps) resummation on
    /// the hot path.  Wrapping arithmetic because the stat is deliberately
    /// stale mid-defragmentation (raw sub-heap calls there, one recompute at
    /// the end).
    fn subheap_op<R>(&mut self, idx: usize, f: impl FnOnce(&mut SubHeap) -> R) -> R {
        let before = self.subheaps[idx].extent();
        let r = f(&mut self.subheaps[idx]);
        let after = self.subheaps[idx].extent();
        self.stats.heap_extent = self.stats.heap_extent.wrapping_add(after).wrapping_sub(before);
        r
    }

    /// Reserve a fresh sub-heap of `capacity` bytes and make it the active
    /// one, unless that would take the service past the configured
    /// [`AnchorageConfig::max_heap_bytes`] ceiling.
    fn open_subheap(&mut self, cx: &Shared, capacity: u64) -> Option<usize> {
        let limit = cx.config.max_heap_bytes.unwrap_or(u64::MAX);
        let within = |reserved: u64| reserved.checked_add(capacity).filter(|&r| r <= limit);
        cx.reserved.fetch_update(Ordering::Relaxed, Ordering::Relaxed, within).ok()?;
        let idx = self.subheaps.len();
        self.subheaps.push(cx.owners.reserve(&cx.vm, capacity, self.idx, idx));
        self.active = idx;
        cx.note_subheap_open(&self.subheaps[idx]);
        Some(idx)
    }

    /// Remove the record at `addr` and return its size — if it is handle
    /// `id`'s.  Anything else (no block starts there, or another handle's
    /// does) is not this caller's to release and is left alone; the runtime
    /// catches double frees upstream, so this is a defensive check.
    fn take_record(&mut self, id: HandleId, addr: VirtAddr) -> Option<u32> {
        match self.index.entry(addr.0) {
            Entry::Occupied(rec) if rec.get().0 == id => Some(rec.remove().1),
            _ => None,
        }
    }

    /// The key range of the index that holds sub-heap `idx`'s records.
    fn span(&self, idx: usize) -> std::ops::Range<u64> {
        let base = self.subheaps[idx].base().0;
        base..base + self.subheaps[idx].capacity()
    }

    /// Find a sub-heap and carve a block of `size` bytes from it, opening a
    /// fresh sub-heap when the chosen one cannot serve the request after all
    /// (e.g. its free list had only smaller blocks).
    fn obtain_block(&mut self, cx: &Shared, size: u64) -> Option<VirtAddr> {
        let idx = self.pick_subheap(cx, size)?;
        if let Some(a) = self.subheap_op(idx, |s| s.alloc(size)) {
            return Some(a);
        }
        let capacity = cx.config.subheap_capacity.max(SubHeap::rounded_size(size));
        let new_idx = self.open_subheap(cx, capacity)?;
        self.subheap_op(new_idx, |s| s.alloc(size))
    }

    /// Find a sub-heap able to serve `size`, preferring the active one, then
    /// any empty sub-heap, then a newly reserved one.  Returns the index.
    fn pick_subheap(&mut self, cx: &Shared, size: u64) -> Option<usize> {
        let rounded = SubHeap::rounded_size(size);
        if let Some(active) = self.subheaps.get(self.active) {
            // The active heap may still have a usable free-listed block even
            // if its extent is full.
            if active.extent() + rounded <= active.capacity()
                || active.free_listed_bytes() >= rounded
            {
                return Some(self.active);
            }
        }
        if let Some(idx) =
            self.subheaps.iter().position(|s| s.live_objects() == 0 && s.capacity() >= rounded)
        {
            self.subheap_op(idx, |s| s.reset());
            self.active = idx;
            cx.note_subheap_open(&self.subheaps[idx]);
            return Some(idx);
        }
        // Also this arena's first allocation, when it has no sub-heap yet.
        self.open_subheap(cx, cx.config.subheap_capacity.max(rounded))
    }

    fn alloc(&mut self, cx: &Shared, size: usize, id: HandleId) -> Option<VirtAddr> {
        let requested = u32::try_from(size).ok()?;
        let addr = self.obtain_block(cx, size as u64)?;
        self.index.insert(addr.0, (id, requested));
        self.stats.live_bytes += SubHeap::rounded_size(size as u64);
        self.stats.live_objects += 1;
        self.stats.total_allocated += size as u64;
        self.stats.total_allocations += 1;
        Some(addr)
    }

    /// Release handle `id`'s block at `addr`, which lies in sub-heap `local`.
    fn free(&mut self, id: HandleId, addr: VirtAddr, local: usize) {
        // The block's size is the record's own, so a wrong size from the
        // caller cannot corrupt the free lists.
        let Some(size) = self.take_record(id, addr) else { return };
        let rounded = SubHeap::rounded_size(u64::from(size));
        self.subheap_op(local, |s| s.free(addr, rounded));
        self.stats.live_bytes -= rounded;
        self.stats.live_objects -= 1;
        self.stats.total_frees += 1;
    }

    /// Resize handle `id`'s block at `old_addr` (in sub-heap `local`) within
    /// this arena, under one hold of its lock.
    fn realloc(
        &mut self,
        cx: &Shared,
        id: HandleId,
        old_addr: VirtAddr,
        local: usize,
        requested: u32,
    ) -> Option<VirtAddr> {
        let old_size = self.take_record(id, old_addr)?;
        // Destination before the old block is released, so a failed request
        // leaves the object untouched (its record goes back).
        let Some(dst) = self.obtain_block(cx, u64::from(requested)) else {
            self.index.insert(old_addr.0, (id, old_size));
            return None;
        };
        self.index.insert(dst.0, (id, requested));
        cx.vm.copy(old_addr, dst, old_size.min(requested) as usize);
        let old_rounded = SubHeap::rounded_size(u64::from(old_size));
        self.subheap_op(local, |s| s.free(old_addr, old_rounded));
        let rounded = SubHeap::rounded_size(u64::from(requested));
        self.stats.live_bytes = self.stats.live_bytes - old_rounded + rounded;
        self.stats.total_allocated += u64::from(requested);
        self.stats.total_allocations += 1;
        self.stats.total_frees += 1;
        Some(dst)
    }

    /// Return the pages of non-active sub-heaps that hold no live objects to
    /// the kernel and reset their bump state, so the space is reusable
    /// without re-reserving.
    fn shed(&mut self, cx: &Shared) -> u64 {
        let mut shed = 0u64;
        for idx in 0..self.subheaps.len() {
            let heap = &self.subheaps[idx];
            if idx == self.active || heap.live_objects() != 0 || heap.extent() == 0 {
                continue;
            }
            shed += cx.vm.madvise_dontneed(heap.base(), heap.extent());
            self.subheap_op(idx, |s| s.reset());
        }
        shed
    }

    /// This arena's candidate source for a pass and its fragmentation: its
    /// most fragmented non-active sub-heap.
    fn pick_source(&self) -> Option<(f64, usize)> {
        self.subheaps
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != self.active && s.live_objects() > 0 && s.fragmentation() > 1.01)
            .map(|(i, s)| (s.fragmentation(), i))
            .max_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Fragmentation of the active sub-heap, if it holds objects: what a pass
    /// that found no other source may rotate out and evacuate.
    fn active_fragmentation(&self) -> Option<f64> {
        let active = self.subheaps.get(self.active)?;
        (active.live_objects() > 0).then(|| active.fragmentation())
    }

    /// Turn the active sub-heap (which holds objects) into a source: an empty
    /// sub-heap, found or newly reserved, becomes the active one.  Returns
    /// the old active index; `None` when the heap ceiling leaves no room for
    /// a fresh destination.
    fn rotate(&mut self, cx: &Shared) -> Option<usize> {
        let old_active = self.active;
        if let Some(idx) = self.subheaps.iter().position(|s| s.live_objects() == 0) {
            self.subheap_op(idx, |s| s.reset());
            self.active = idx;
        } else {
            self.open_subheap(cx, cx.config.subheap_capacity)?;
        }
        cx.note_rotate(&self.subheaps[old_active], &self.subheaps[self.active]);
        Some(old_active)
    }

    /// After objects were moved out of sub-heap `idx`, whose extent was
    /// `old_extent` when the pass began, shrink it to the highest surviving
    /// object and return the vacated pages to the kernel.  `old_extent` is
    /// the caller's because freeing the top victim already lowered the
    /// cursor past that victim's pages.  The highest survivor comes straight
    /// off the back of the sub-heap's index range (`O(log n)`).
    fn trim_and_release(&mut self, cx: &Shared, idx: usize, old_extent: u64) -> u64 {
        let base = self.subheaps[idx].base();
        let top = self.index.range(self.span(idx)).next_back();
        let max_live_end = top.map_or(0, |(&addr, &(_, size))| {
            addr - base.0 + SubHeap::rounded_size(u64::from(size))
        });
        self.subheaps[idx].truncate_to(max_live_end);
        let release_from = align_up(max_live_end, cx.vm.page_size() as u64);
        if old_extent <= release_from {
            return 0;
        }
        let released = cx.vm.madvise_dontneed(base.add(release_from), old_extent - release_from);
        cx.note_released(released);
        released
    }

    /// Evacuate sub-heap `source` into this arena's other sub-heaps: the rest
    /// of the plan phase, the copy and the commit of a pass, added to
    /// `outcome`.  The world is stopped and every arena lock is held.
    fn evacuate(
        &mut self,
        cx: &Shared,
        world: &StoppedWorld<'_>,
        source: usize,
        budget: u64,
        plan_start: Instant,
        outcome: &mut DefragOutcome,
    ) {
        // Select victims top-down from the source's range of the index, so
        // the extent can be truncated afterwards and the budget keeps bounding
        // bytes copied per pause.
        let mut victims: Vec<(VirtAddr, HandleId, u64)> = Vec::new();
        let mut planned_bytes = 0u64;
        for (&addr, &(id, size)) in self.index.range(self.span(source)).rev() {
            if planned_bytes >= budget || faultline::fire!("defrag.move") {
                break;
            }
            if world.is_pinned(id) {
                outcome.objects_skipped_pinned += 1;
                continue;
            }
            victims.push((VirtAddr(addr), id, u64::from(size)));
            planned_bytes += SubHeap::rounded_size(u64::from(size));
        }
        // Reserve destinations in ascending source order: the destination bump
        // cursor then advances in lock-step, so adjacent source blocks get
        // adjacent destinations and coalesce into one copy range.
        victims.reverse();
        let mut moves: Vec<PlannedMove> = Vec::with_capacity(victims.len());
        for (src, id, size) in victims {
            // Destination space comes from the normal allocation path (but
            // never from the source itself).
            let dst_idx = match self.pick_subheap(cx, size) {
                Some(i) if i != source => i,
                _ => continue,
            };
            let dst = match self.subheaps[dst_idx].alloc(size) {
                Some(a) => a,
                None => continue,
            };
            moves.push(PlannedMove { id, src, dst, len: SubHeap::rounded_size(size) });
        }
        // Coalesce runs that are adjacent on both sides into copy batches
        // (half-open index ranges over `moves`).
        let mut batches: Vec<(usize, usize)> = Vec::new();
        for i in 0..moves.len() {
            match batches.last_mut() {
                Some((_, end))
                    if *end == i
                        && moves[i - 1].src.add(moves[i - 1].len) == moves[i].src
                        && moves[i - 1].dst.add(moves[i - 1].len) == moves[i].dst =>
                {
                    *end = i + 1;
                }
                _ => batches.push((i, i + 1)),
            }
        }
        outcome.copy_batches = batches.len() as u64;
        outcome.plan_ns = plan_start.elapsed().as_nanos() as u64;

        // ---- Copy: apply the batches in order on this thread.  A
        // `defrag.copy` fault skips a batch: its objects stay at their source
        // and commit gives their destination blocks back.
        let copy_start = Instant::now();
        outcome.copy_workers = u64::from(!batches.is_empty());
        let mut failed: Vec<HandleId> = Vec::new();
        for &(s, e) in &batches {
            if faultline::fire!("defrag.copy") {
                failed.extend(moves[s..e].iter().map(|mv| mv.id));
            } else {
                failed.extend(world.move_batch(&moves[s..e]).failed);
            }
        }
        outcome.copy_ns = copy_start.elapsed().as_nanos() as u64;

        // ---- Commit: fold bookkeeping back in.
        let commit_start = Instant::now();
        // Read before the frees below: freeing the top victim lowers the
        // cursor, and its pages must still be released.
        let source_extent = self.subheaps[source].extent();
        for mv in &moves {
            if failed.contains(&mv.id) {
                // Not moved: its batch was skipped, or `move_batch` refused
                // it (defensive; nothing can free an entry under the pause).
                // Give the destination block back.
                let dst = cx.owners.find(mv.dst).expect("a destination lies in a sub-heap");
                self.subheaps[dst.local].free(mv.dst, mv.len);
                continue;
            }
            // The object now lives in the destination.
            self.subheaps[source].free(mv.src, mv.len);
            let rec = self.index.remove(&mv.src.0).expect("planned object is indexed");
            self.index.insert(mv.dst.0, rec);
            outcome.objects_moved += 1;
            outcome.bytes_moved += mv.len;
        }
        // A commit fault sheds the release step (the moved objects are already
        // safely repointed; only the RSS reclaim is deferred to a later pass).
        if !faultline::fire!("defrag.commit") {
            outcome.bytes_released = self.trim_and_release(cx, source, source_extent);
        }
        // Many sub-heaps changed at once, by raw sub-heap calls: resum.
        self.stats.heap_extent = self.heap_extent();
        debug_assert_eq!(self.verify(cx), Ok(()));
        outcome.commit_ns = commit_start.elapsed().as_nanos() as u64;
        if let Some(tel) = cx.telemetry.get() {
            tel.subheaps.set_u64(cx.owners.len() as u64);
            for &(s, e) in &batches {
                tel.batch_objects.record((e - s) as u64);
            }
        }
    }

    /// Check the index against the sub-heaps' own counters — within each
    /// sub-heap's address range no two records overlap, none reaches past the
    /// used extent, and their count and rounded bytes equal the sub-heap's
    /// live counts; no record lies outside every sub-heap — and each sub-heap
    /// against its row of the address → arena table.
    fn verify(&self, cx: &Shared) -> Result<(), String> {
        let arena = self.idx;
        let mut indexed = 0;
        for (i, heap) in self.subheaps.iter().enumerate() {
            let base = heap.base().0;
            let row = Owner { base, end: base + heap.capacity(), arena, local: i };
            let found = cx.owners.find(heap.base());
            if found != Some(row) {
                return Err(format!(
                    "arena {arena} sub-heap {i}: the table has {found:?} for its base, not {row:?}"
                ));
            }
            let (mut end, mut count, mut bytes) = (base, 0u64, 0u64);
            for (&addr, &(id, size)) in self.index.range(self.span(i)) {
                if addr < end {
                    return Err(format!(
                        "arena {arena} sub-heap {i}: {id:?} at {addr:#x} overlaps its neighbour"
                    ));
                }
                end = addr + SubHeap::rounded_size(u64::from(size));
                count += 1;
                bytes += end - addr;
            }
            if end > base + heap.extent()
                || (count, bytes) != (heap.live_objects(), heap.live_bytes())
            {
                return Err(format!(
                    "arena {arena} sub-heap {i}: index holds {count} objects / {bytes} bytes \
                     ending at {end:#x}, heap counts {} / {} in extent {:#x}",
                    heap.live_objects(),
                    heap.live_bytes(),
                    heap.extent()
                ));
            }
            indexed += count;
        }
        if indexed != self.index.len() as u64 {
            return Err(format!(
                "arena {arena}: {} records, {indexed} inside its sub-heaps",
                self.index.len()
            ));
        }
        Ok(())
    }
}

/// An arena behind its lock, padded to cache lines of its own: packed, one
/// arena's statistics would share a line with the next one's lock word.
#[repr(align(128))]
struct ArenaSlot(Mutex<Arena>);

static NEXT_SERVICE_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The services this thread has allocated from and the slot each gave it,
    /// most recent first.
    static SLOTS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Services a thread remembers its slot of.  One it has forgotten (it has
/// allocated from eight others since) hands it a new slot.
const SLOTS_KEPT: usize = 8;

/// The Anchorage defragmenting allocator service.
pub struct AnchorageService {
    /// Names this service in the threads' [`SLOTS`].
    id: usize,
    shared: Shared,
    arenas: Box<[ArenaSlot]>,
    /// The slot the next thread to allocate for the first time gets.
    next_slot: AtomicUsize,
}

impl AnchorageService {
    /// Create an Anchorage service allocating from `vm` with default
    /// configuration.
    pub fn new(vm: VirtualMemory) -> Self {
        Self::with_config(vm, AnchorageConfig::default())
    }

    /// Create an Anchorage service with an explicit configuration.
    pub fn with_config(vm: VirtualMemory, config: AnchorageConfig) -> Self {
        let shared = Shared {
            vm,
            config,
            owners: Owners::new(),
            reserved: AtomicU64::new(config.subheap_capacity),
            released: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        };
        // Arena 0 has its first sub-heap from the start, whatever the ceiling.
        let mut first = Arena::new(0);
        first.subheaps.push(shared.owners.reserve(&shared.vm, config.subheap_capacity, 0, 0));
        let arenas = std::iter::once(first)
            .chain((1..arena_count()).map(Arena::new))
            .map(|arena| ArenaSlot(Mutex::new(arena)))
            .collect();
        AnchorageService {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            shared,
            arenas,
            next_slot: AtomicUsize::new(0),
        }
    }

    fn arena(&self, idx: usize) -> MutexGuard<'_, Arena> {
        self.arenas[idx].0.lock().expect("no panic under an arena lock")
    }

    /// Index of the arena the calling thread allocates from.
    fn home(&self) -> usize {
        let slot = SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            match slots.first() {
                Some(&(service, slot)) if service == self.id => slot,
                _ => self.find_slot(&mut slots),
            }
        });
        slot & (self.arenas.len() - 1)
    }

    /// Off the allocation fast path: this service is not the one the thread
    /// allocated from last.  Move its entry to the front, or make one with
    /// the next slot.
    #[cold]
    fn find_slot(&self, slots: &mut Vec<(usize, usize)>) -> usize {
        let entry = match slots.iter().position(|&(service, _)| service == self.id) {
            Some(at) => slots.remove(at),
            None => {
                slots.truncate(SLOTS_KEPT - 1);
                (self.id, self.next_slot.fetch_add(1, Ordering::Relaxed))
            }
        };
        slots.insert(0, entry);
        entry.1
    }

    /// The arenas a thread may have allocated from: slots are handed out in
    /// order, so these are the first `next_slot`.  Arena 0 always counts (its
    /// first sub-heap exists from the start).
    fn used_arenas(&self) -> impl Iterator<Item = MutexGuard<'_, Arena>> {
        let used = self.next_slot.load(Ordering::Relaxed).clamp(1, self.arenas.len());
        (0..used).map(|idx| self.arena(idx))
    }

    /// Off the allocation fast path: arena `home` cannot serve the request,
    /// which means that under the heap ceiling it cannot reserve another
    /// sub-heap.  The ceiling is on all arenas together, so room another
    /// arena still has is this caller's to use.
    #[cold]
    fn alloc_elsewhere(&self, home: usize, size: usize, id: HandleId) -> Option<VirtAddr> {
        self.used_arenas()
            .filter(|arena| arena.idx != home)
            .find_map(|mut arena| arena.alloc(&self.shared, size, id))
    }

    /// Number of arenas (fixed at construction, see [`arena_count`]).
    pub fn arena_count(&self) -> usize {
        self.arenas.len()
    }

    /// Index of the arena whose sub-heap holds `addr`, if any does.
    pub fn arena_of(&self, addr: VirtAddr) -> Option<usize> {
        self.shared.owners.find(addr).map(|owner| owner.arena)
    }

    /// Number of sub-heaps currently reserved, over all arenas.
    pub fn subheap_count(&self) -> usize {
        self.shared.owners.len()
    }

    /// The combined used extent of all sub-heaps.
    pub fn heap_extent(&self) -> u64 {
        self.used_arenas().map(|arena| arena.heap_extent()).sum()
    }

    /// Total address space reserved across all sub-heaps, in bytes.
    pub fn reserved_bytes(&self) -> u64 {
        self.shared.reserved.load(Ordering::Relaxed)
    }

    /// Total bytes ever released back to the kernel, by defragmentation and
    /// by shedding.
    pub fn total_released(&self) -> u64 {
        self.shared.released.load(Ordering::Relaxed)
    }

    /// Check every arena's index against its sub-heaps' own counters — within
    /// each sub-heap's address range no two records overlap, none reaches
    /// past the used extent, and their count and rounded bytes equal the
    /// sub-heap's live counts; no record lies outside every sub-heap — and
    /// the address → arena table against the arenas' sub-heaps: every
    /// sub-heap has its row, every row its sub-heap, and no two rows overlap.
    /// Takes one arena lock at a time; the table check needs no sub-heap to
    /// be opened meanwhile.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn verify_index(&self) -> Result<(), String> {
        let mut subheaps = 0;
        for idx in 0..self.arenas.len() {
            let arena = self.arena(idx);
            arena.verify(&self.shared)?;
            subheaps += arena.subheaps.len();
        }
        let owners = &self.shared.owners;
        if subheaps != owners.len() {
            return Err(format!("{} table rows for {subheaps} sub-heaps", owners.len()));
        }
        for i in 1..owners.len() {
            let (below, row) = (owners.row(i - 1), owners.row(i));
            if below.end > row.base {
                return Err(format!(
                    "table rows {below:?} and {row:?} overlap or are out of order"
                ));
            }
        }
        Ok(())
    }
}

impl Service for AnchorageService {
    fn init(&mut self, _ctx: &ServiceContext) {}

    fn deinit(&mut self, _ctx: &ServiceContext) {}

    fn alloc(&self, size: usize, id: HandleId) -> Option<VirtAddr> {
        let home = self.home();
        // Its own statement: the lock is dropped before another is taken.
        let block = self.arena(home).alloc(&self.shared, size, id);
        block.or_else(|| self.alloc_elsewhere(home, size, id))
    }

    fn free(&self, id: HandleId, addr: VirtAddr, _size: usize) {
        if let Some(owner) = self.shared.owners.find(addr) {
            self.arena(owner.arena).free(id, addr, owner.local);
        }
    }

    fn realloc(
        &self,
        id: HandleId,
        old_addr: VirtAddr,
        _old_size: usize,
        new_size: usize,
    ) -> Option<VirtAddr> {
        let requested = u32::try_from(new_size).ok()?;
        let owner = self.shared.owners.find(old_addr)?;
        let home = self.home();
        if home == owner.arena {
            return self.arena(home).realloc(&self.shared, id, old_addr, owner.local, requested);
        }
        // The block is in another thread's arena.  Allocate here, copy,
        // release there: one arena lock at a time, and nothing is changed
        // unless the record there is this handle's and the new block was had.
        let old_size = self.arena(owner.arena).index.get(&old_addr.0).filter(|r| r.0 == id)?.1;
        let dst = self.arena(home).alloc(&self.shared, new_size, id)?;
        self.shared.vm.copy(old_addr, dst, old_size.min(requested) as usize);
        self.arena(owner.arena).free(id, old_addr, owner.local);
        Some(dst)
    }

    fn usable_size(&self, addr: VirtAddr) -> Option<usize> {
        let owner = self.shared.owners.find(addr)?;
        self.arena(owner.arena).index.get(&addr.0).map(|&(_, size)| size as usize)
    }

    fn heap_stats(&self) -> AllocStats {
        self.used_arenas().fold(AllocStats::default(), |sum, arena| AllocStats {
            live_bytes: sum.live_bytes + arena.stats.live_bytes,
            live_objects: sum.live_objects + arena.stats.live_objects,
            total_allocated: sum.total_allocated + arena.stats.total_allocated,
            total_allocations: sum.total_allocations + arena.stats.total_allocations,
            total_frees: sum.total_frees + arena.stats.total_frees,
            heap_extent: sum.heap_extent.wrapping_add(arena.stats.heap_extent),
        })
    }

    fn fragmentation(&self) -> f64 {
        let (extent, live) = self.used_arenas().fold((0, 0), |(extent, live), arena| {
            (extent + arena.heap_extent(), live + arena.stats.live_bytes)
        });
        alaska_heap::fragmentation_ratio(extent, live)
    }

    fn shed_memory(&self) -> u64 {
        // One arena at a time: this runs outside any barrier, beside mutators.
        let shed = self.used_arenas().map(|mut arena| arena.shed(&self.shared)).sum();
        self.shared.note_released(shed);
        shed
    }

    fn defragment(&self, world: &mut StoppedWorld<'_>, budget_bytes: Option<u64>) -> DefragOutcome {
        let mut outcome = DefragOutcome::default();
        let plan_start = Instant::now();
        // Every arena lock, in index order: the pass compares all arenas, and
        // callers the barrier does not stop (see `Service`) must stay out.
        let mut arenas: Vec<MutexGuard<'_, Arena>> =
            (0..self.arenas.len()).map(|idx| self.arena(idx)).collect();

        // ---- Plan: pick the one source of this pass; if the only fragmented
        // sub-heaps are active ones, rotate the worst of them so it becomes a
        // valid source.
        let candidate = arenas
            .iter()
            .filter_map(|arena| arena.pick_source().map(|(frag, source)| (frag, arena.idx, source)))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, arena, source)| (arena, source));
        let picked = candidate.or_else(|| {
            let (frag, arena) = arenas
                .iter()
                .filter_map(|arena| arena.active_fragmentation().map(|frag| (frag, arena.idx)))
                .max_by(|a, b| a.0.total_cmp(&b.0))?;
            if frag <= self.shared.config.rotate_threshold || faultline::fire!("subheap.rotate") {
                return None;
            }
            // `None` under the heap ceiling: no room for a fresh
            // destination, shed the pass instead.
            arenas[arena].rotate(&self.shared).map(|source| (arena, source))
        });
        // A plan fault sheds the pass before any destination is reserved.
        let Some((arena, source)) = picked.filter(|_| !faultline::fire!("defrag.plan")) else {
            outcome.plan_ns = plan_start.elapsed().as_nanos() as u64;
            return outcome;
        };
        let budget = budget_bytes.unwrap_or(u64::MAX);
        arenas[arena].evacuate(&self.shared, world, source, budget, plan_start, &mut outcome);
        outcome
    }

    fn attach_telemetry(&self, telemetry: &Arc<Telemetry>) {
        let registry = telemetry.registry();
        let tel = AnchorageTelemetry {
            subheaps: registry.gauge(names::SUBHEAPS),
            active: registry.gauge(names::ACTIVE_SUBHEAP),
            released: registry.counter(names::RELEASED_BYTES),
            batch_objects: registry.histogram(names::DEFRAG_BATCH_OBJECTS),
            hub: Arc::clone(telemetry),
        };
        // Seed the gauges so the registry is meaningful before any event fires.
        tel.subheaps.set_u64(self.subheap_count() as u64);
        let first = self.arena(0);
        tel.active.set_u64(first.subheaps[first.active].id as u64);
        tel.released.store(self.total_released());
        // A second hub is ignored, as the runtime ignores it.
        let _ = self.shared.telemetry.set(tel);
    }

    fn name(&self) -> &'static str {
        "anchorage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaska_runtime::Runtime;

    fn runtime() -> Runtime {
        let vm = VirtualMemory::default();
        Runtime::with_vm(vm.clone(), Box::new(AnchorageService::new(vm)))
    }

    #[test]
    fn allocations_come_from_the_active_subheap() {
        let vm = VirtualMemory::default();
        let svc = AnchorageService::new(vm);
        let a = svc.alloc(100, HandleId(0)).unwrap();
        let b = svc.alloc(100, HandleId(1)).unwrap();
        assert_eq!(svc.subheap_count(), 1);
        assert_eq!(b.offset_from(a), 112, "granule-rounded bump allocation");
        assert_eq!(svc.usable_size(a), Some(100));
    }

    #[test]
    fn exhausting_a_subheap_opens_a_new_one() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 4096, ..Default::default() };
        let svc = AnchorageService::with_config(vm, cfg);
        for i in 0..10 {
            svc.alloc(1024, HandleId(i)).unwrap();
        }
        assert!(svc.subheap_count() > 1, "overflow must open new sub-heaps");
        assert_eq!(svc.heap_stats().live_objects, 10);
    }

    #[test]
    fn the_address_table_finds_every_subheap_as_it_grows_chunk_by_chunk() {
        for (i, at) in [(0, (0, 0)), (63, (0, 63)), (64, (1, 0)), (191, (1, 127)), (192, (2, 0))] {
            assert_eq!(Owners::locate(i), at, "row {i}");
        }
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 4096, ..Default::default() };
        let svc = AnchorageService::with_config(vm, cfg);
        // Four blocks fill a sub-heap: 1 200 blocks reserve 300 of them, which
        // is rows in three chunks of the table.
        let addrs: Vec<VirtAddr> =
            (0..1200).map(|i| svc.alloc(1024, HandleId(i)).unwrap()).collect();
        assert_eq!(svc.subheap_count(), 300);
        svc.verify_index().unwrap();
        for (i, &addr) in addrs.iter().enumerate() {
            let owner = svc.shared.owners.find(addr.add(1023)).expect("inside a sub-heap");
            assert_eq!((owner.arena, owner.local), (0, i / 4));
            assert_eq!(svc.usable_size(addr), Some(1024));
        }
        // Guard pages and everything below and above the sub-heaps are nobody's.
        let last = svc.shared.owners.row(299);
        for outside in
            [VirtAddr(0), VirtAddr(svc.shared.owners.row(0).base - 1), VirtAddr(last.end)]
        {
            assert_eq!(svc.arena_of(outside), None, "{outside:?}");
        }
        for (i, &addr) in addrs.iter().enumerate() {
            svc.free(HandleId(i as u32), addr, 1024);
        }
        assert_eq!(svc.heap_stats().live_objects, 0);
        svc.verify_index().unwrap();
    }

    #[test]
    fn free_reuses_space_via_power_of_two_bins() {
        let vm = VirtualMemory::default();
        let svc = AnchorageService::new(vm);
        let a = svc.alloc(300, HandleId(0)).unwrap();
        svc.free(HandleId(0), a, 300);
        let b = svc.alloc(300, HandleId(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn defragmentation_compacts_a_fragmented_heap_end_to_end() {
        let rt = runtime();
        // Allocate 2000 objects, write distinctive data, free 80% of them.
        let mut handles = Vec::new();
        for i in 0..2000u64 {
            let h = rt.halloc(256).unwrap();
            rt.write_u64(h, 0, i);
            handles.push(h);
        }
        let mut survivors = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if i % 5 == 0 {
                survivors.push((*h, i as u64));
            } else {
                rt.hfree(*h).unwrap();
            }
        }
        let frag_before = rt.service_fragmentation();
        assert!(frag_before > 3.0, "heap should be badly fragmented, got {frag_before}");

        let outcome = rt.defragment(None);
        assert!(outcome.objects_moved > 0);
        let frag_after = rt.service_fragmentation();
        assert!(
            frag_after < frag_before / 2.0,
            "defrag should at least halve fragmentation ({frag_before} -> {frag_after})"
        );
        // Every survivor still reads back its value through its (unchanged) handle.
        for (h, v) in survivors {
            assert_eq!(rt.read_u64(h, 0), v);
        }
    }

    #[test]
    fn defragmentation_releases_memory_to_the_kernel() {
        let rt = runtime();
        let mut handles = Vec::new();
        for _ in 0..4000u64 {
            let h = rt.halloc(512).unwrap();
            rt.write_u64(h, 0, 1);
            handles.push(h);
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 10 != 0 {
                rt.hfree(*h).unwrap();
            }
        }
        let rss_before = rt.rss_bytes();
        let outcome = rt.defragment(None);
        assert!(outcome.bytes_released > 0, "vacated pages must be madvised away");
        let rss_after = rt.rss_bytes();
        assert!(
            rss_after < rss_before,
            "RSS must drop after defragmentation ({rss_before} -> {rss_after})"
        );
    }

    #[test]
    fn a_pass_returns_the_top_victims_pages_too() {
        const BLOCK: usize = 256 * 1024;
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 1 << 20, ..Default::default() };
        let rt = Runtime::with_vm(vm.clone(), Box::new(AnchorageService::with_config(vm, cfg)));
        let touched = |size: usize| {
            let h = rt.halloc(size).unwrap();
            rt.write_bytes(h, 0, &vec![0xA5; size]);
            h
        };
        let [a, b, _c] = [touched(BLOCK), touched(BLOCK), touched(BLOCK)];
        let _big = touched(2 * BLOCK); // does not fit beside them: opens sub-heap 1
        rt.hfree(a).unwrap();
        rt.hfree(b).unwrap();
        // The only victim is the source's top block: freeing it at commit
        // lowers the cursor, and its pages must be released all the same.
        let outcome = rt.defragment(None);
        assert_eq!(outcome.objects_moved, 1);
        assert_eq!(outcome.bytes_released, 3 * BLOCK as u64, "all of sub-heap 0 was vacated");
        assert_eq!(rt.rss_bytes(), rt.service_stats().live_bytes, "no page left behind");
    }

    #[test]
    fn free_and_realloc_of_a_block_that_is_not_the_handles_change_nothing() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 4096, ..Default::default() };
        let svc = AnchorageService::with_config(vm, cfg);
        let addrs: Vec<VirtAddr> = (0..8).map(|i| svc.alloc(600, HandleId(i)).unwrap()).collect();
        svc.free(HandleId(1), addrs[1], 600);
        let snapshot = |svc: &AnchorageService| {
            let arena = svc.arena(0);
            let heaps: Vec<_> = arena
                .subheaps
                .iter()
                .map(|s| (s.extent(), s.live_objects(), s.live_bytes(), s.free_listed_bytes()))
                .collect();
            (arena.stats, arena.heap_extent(), heaps, arena.index.clone())
        };
        let before = snapshot(&svc);
        // No record at the address: freed, inside a block, outside every sub-heap.
        for addr in [addrs[1], addrs[2].add(16), VirtAddr(0), VirtAddr(u64::MAX)] {
            svc.free(HandleId(2), addr, 600);
            assert_eq!(svc.realloc(HandleId(2), addr, 600, 900), None);
        }
        // A record, but another handle's.
        svc.free(HandleId(3), addrs[2], 600);
        assert_eq!(svc.realloc(HandleId(3), addrs[2], 600, 900), None);
        assert_eq!(snapshot(&svc), before);
        svc.verify_index().unwrap();
        // The rightful owner still can.
        svc.free(HandleId(2), addrs[2], 600);
        assert_eq!(svc.heap_stats().live_objects, 6);
    }

    #[test]
    fn budget_limits_bytes_moved_per_pass() {
        let rt = runtime();
        let mut handles = Vec::new();
        for _ in 0..1000u64 {
            handles.push(rt.halloc(256).unwrap());
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 2 == 0 {
                rt.hfree(*h).unwrap();
            }
        }
        let outcome = rt.defragment(Some(10 * 256));
        assert!(outcome.bytes_moved <= 10 * 256 + 256, "budget respected (one object slack)");
        assert!(outcome.objects_moved <= 11);
    }

    #[test]
    fn pinned_objects_are_skipped() {
        let rt = runtime();
        let mut handles = Vec::new();
        for _ in 0..200u64 {
            handles.push(rt.halloc(128).unwrap());
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 2 == 0 {
                rt.hfree(*h).unwrap();
            }
        }
        // Pin one survivor; it must not move.
        let pinned_handle = handles[1];
        let guard = rt.pin(pinned_handle).unwrap();
        let addr_before = guard.addr();
        let outcome = rt.defragment(None);
        assert!(outcome.objects_skipped_pinned >= 1);
        assert_eq!(rt.translate(pinned_handle).unwrap(), addr_before);
        drop(guard);
    }

    #[test]
    fn telemetry_records_subheap_lifecycle_and_gauges() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 64 * 1024, ..Default::default() };
        let rt = Runtime::with_vm(vm.clone(), Box::new(AnchorageService::with_config(vm, cfg)));
        let hub = Arc::new(Telemetry::new());
        assert!(rt.install_telemetry(Arc::clone(&hub)));

        // Overflow the first sub-heap so new ones open, then fragment and defrag
        // so the active sub-heap rotates.
        let mut handles = Vec::new();
        for i in 0..2000u64 {
            let h = rt.halloc(256).unwrap();
            rt.write_u64(h, 0, i); // touch the page so it becomes resident
            handles.push(h);
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 5 != 0 {
                rt.hfree(*h).unwrap();
            }
        }
        rt.defragment(None);

        let snap = hub.registry().snapshot();
        let subheaps = match snap.get(names::SUBHEAPS) {
            Some(alaska_telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("expected subheap gauge, got {other:?}"),
        };
        assert!(subheaps >= 2.0, "overflow must have opened sub-heaps (gauge {subheaps})");
        match snap.get(names::RELEASED_BYTES) {
            Some(alaska_telemetry::MetricValue::Counter(v)) => {
                assert!(*v > 0, "defrag must record released bytes")
            }
            other => panic!("expected released counter, got {other:?}"),
        }
        let events = hub.ring().snapshot();
        assert!(
            events.iter().any(|e| matches!(e.event, Event::SubheapOpen { .. })),
            "sub-heap opens must be traced"
        );
        assert!(
            events.iter().any(|e| matches!(e.event, Event::DefragPass { .. })),
            "the runtime traces the defrag pass through the same hub"
        );
    }

    #[test]
    fn control_tick_publishes_pass_histograms() {
        let rt = runtime();
        let hub = Arc::new(Telemetry::new());
        assert!(rt.install_telemetry(Arc::clone(&hub)));
        let mut handles = Vec::new();
        for _ in 0..3000u64 {
            handles.push(rt.halloc(256).unwrap());
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 5 != 0 {
                rt.hfree(*h).unwrap();
            }
        }
        let mut control = crate::ControlAlgorithm::new(crate::ControlParams::default());
        let mut now = 0u64;
        let mut reports = 0u64;
        while now < 60_000 && rt.service_fragmentation() >= 1.2 {
            if control.tick(&rt, now).is_some() {
                reports += 1;
            }
            now += 100;
        }
        assert!(reports > 0);
        let snap = hub.registry().snapshot();
        match snap.get(names::PASS_PAUSE_US) {
            Some(alaska_telemetry::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, reports, "one pause sample per control pass")
            }
            other => panic!("expected pass pause histogram, got {other:?}"),
        }
        match snap.get(names::CONTROL_OVERHEAD) {
            Some(alaska_telemetry::MetricValue::Gauge(v)) => assert!(*v > 0.0),
            other => panic!("expected overhead gauge, got {other:?}"),
        }
    }

    #[test]
    fn hrealloc_preserves_contents_and_service_records() {
        let rt = runtime();
        let h = rt.halloc(64).unwrap();
        rt.write_u64(h, 0, 0xDEAD);
        rt.write_u64(h, 56, 7);
        let h2 = rt.hrealloc(h, 4096).unwrap();
        assert_eq!(h, h2, "handle value survives realloc");
        assert_eq!(rt.read_u64(h, 0), 0xDEAD);
        assert_eq!(rt.read_u64(h, 56), 7);
        assert_eq!(rt.usable_size(h), Some(4096));
        // The service still tracks exactly one live object under the same ID
        // (the seed's alloc-then-free fallback clobbered the record).
        assert_eq!(rt.service_stats().live_objects, 1);
        rt.hrealloc(h, 32).unwrap();
        assert_eq!(rt.read_u64(h, 0), 0xDEAD, "shrink keeps the prefix");
        rt.hfree(h).unwrap();
        assert_eq!(rt.live_handles(), 0);
        assert_eq!(rt.service_stats().live_objects, 0);
    }

    #[test]
    fn extent_stat_stays_exact_without_recomputation() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 4096, ..Default::default() };
        let svc = AnchorageService::with_config(vm, cfg);
        let addrs: Vec<VirtAddr> = (0..50).map(|i| svc.alloc(700, HandleId(i)).unwrap()).collect();
        for i in (0..50).step_by(2) {
            svc.free(HandleId(i as u32), addrs[i], 700);
        }
        for i in (1..50).step_by(4) {
            svc.realloc(HandleId(i as u32), addrs[i], 700, 1200).unwrap();
        }
        assert_eq!(
            svc.heap_stats().heap_extent,
            svc.heap_extent(),
            "incrementally maintained extent must equal the resummed value"
        );
    }

    #[test]
    fn heap_ceiling_fails_allocation_instead_of_growing() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig {
            subheap_capacity: 4096,
            max_heap_bytes: Some(8192),
            ..Default::default()
        };
        let svc = AnchorageService::with_config(vm, cfg);
        let mut ok = 0u64;
        for i in 0..64 {
            if svc.alloc(1024, HandleId(i)).is_some() {
                ok += 1;
            } else {
                break;
            }
        }
        assert_eq!(ok, 8, "two 4 KiB sub-heaps hold exactly eight 1 KiB objects");
        assert_eq!(svc.reserved_bytes(), 8192, "growth stops at the ceiling");
        assert!(svc.alloc(1024, HandleId(99)).is_none(), "past the ceiling allocation fails");
    }

    #[test]
    fn under_the_ceiling_a_full_arena_borrows_room_from_another() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig {
            subheap_capacity: 4096,
            max_heap_bytes: Some(8192),
            ..Default::default()
        };
        let svc = AnchorageService::with_config(vm, cfg);
        // This thread is the first to allocate: arena 0, one block of four.
        let mine = svc.alloc(1024, HandleId(0)).unwrap();
        assert_eq!(svc.arena_of(mine), Some(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The second thread's arena reserves the last sub-heap the
                // ceiling allows and fills it ...
                let own: Vec<_> = (1..5).map(|i| svc.alloc(1024, HandleId(i)).unwrap()).collect();
                assert!(own.iter().all(|&a| svc.arena_of(a) == Some(1)));
                assert_eq!(svc.reserved_bytes(), 8192);
                // ... and then gets what arena 0 has left, and no more.
                let lent: Vec<_> = (5..8).map(|i| svc.alloc(1024, HandleId(i)).unwrap()).collect();
                assert!(lent.iter().all(|&a| svc.arena_of(a) == Some(0)));
                assert_eq!(svc.alloc(1024, HandleId(8)), None);
                svc.free(HandleId(5), lent[0], 1024);
            });
        });
        assert_eq!(svc.heap_stats().live_objects, 7);
        svc.verify_index().unwrap();
    }

    #[test]
    fn shed_memory_releases_empty_inactive_subheaps() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 16384, ..Default::default() };
        let svc = AnchorageService::with_config(vm.clone(), cfg);
        // Fill sub-heap 0 with page-sized objects so a second sub-heap opens
        // and becomes active, touching every page so whole resident pages are
        // left behind for shedding.
        let mut addrs = Vec::new();
        for i in 0..8u32 {
            let a = svc.alloc(4096, HandleId(i)).unwrap();
            vm.write_u64(a, u64::from(i));
            addrs.push(a);
        }
        assert!(svc.subheap_count() >= 2);
        // Empty sub-heap 0 in address order: the non-top blocks land in bins,
        // so its extent stays nonzero while its live count drops to zero.
        for i in 0..4u32 {
            svc.free(HandleId(i), addrs[i as usize], 4096);
        }
        let shed = svc.shed_memory();
        assert!(shed > 0, "the emptied sub-heap's pages must be returned");
        assert_eq!(
            svc.heap_stats().heap_extent,
            svc.heap_extent(),
            "extent stat stays exact across shedding"
        );
        assert!(svc.total_released() >= shed);
    }

    #[test]
    fn allocation_pressure_recovers_by_shedding_and_defragmenting() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig {
            subheap_capacity: 64 * 1024,
            max_heap_bytes: Some(128 * 1024),
            ..Default::default()
        };
        let rt = Runtime::with_vm(vm.clone(), Box::new(AnchorageService::with_config(vm, cfg)));
        // Fill both permitted sub-heaps, then fragment them 50%.
        let mut handles = Vec::new();
        for _ in 0..256u64 {
            handles.push(rt.halloc(512).unwrap());
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 2 == 0 {
                rt.hfree(*h).unwrap();
            }
        }
        // A 40 KiB request cannot open a third sub-heap under the ceiling, but
        // the pressure path compacts enough to satisfy it.
        let big = rt.halloc(40 * 1024).expect("pressure recovery must free room");
        rt.write_u64(big, 0, 0xCAFE);
        let snap = rt.stats();
        assert!(snap.alloc_pressure_events >= 1, "the pressure path must have run");
        assert!(snap.alloc_pressure_recoveries >= 1, "and must have recovered");
    }

    #[test]
    fn resident_index_stays_consistent_across_lifecycle_and_moves() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 64 * 1024, ..Default::default() };
        let svc = AnchorageService::with_config(vm.clone(), cfg);
        // Alloc across several sub-heaps, free a fragmenting pattern, realloc
        // some survivors: the index must agree with the sub-heaps' counters
        // after every step.
        let mut addrs: Vec<VirtAddr> =
            (0..600u32).map(|i| svc.alloc(256, HandleId(i)).unwrap()).collect();
        svc.verify_index().unwrap();
        for i in 0..600u32 {
            if i % 4 != 0 {
                svc.free(HandleId(i), addrs[i as usize], 256);
            }
        }
        svc.verify_index().unwrap();
        for i in (0..600usize).step_by(8) {
            addrs[i] = svc.realloc(HandleId(i as u32), addrs[i], 256, 700).unwrap();
        }
        svc.verify_index().unwrap();
        assert_eq!(svc.usable_size(addrs[0]), Some(700));
        assert_eq!(svc.usable_size(addrs[4]), Some(256));
        assert_eq!(svc.usable_size(addrs[1]), None, "a freed block has no record");

        // Defragment (moves + possible rotation): `defragment` ends with a
        // debug assertion on `verify_index`, so this pass checks the index
        // after moves and rotation too.  Fresh runtime: handle IDs are
        // the runtime's to assign, so the hand-rolled ones above must not mix.
        let vm = VirtualMemory::default();
        let svc = AnchorageService::with_config(vm.clone(), cfg);
        let rt = Runtime::with_vm(vm.clone(), Box::new(svc));
        let mut handles = Vec::new();
        for _ in 0..600u64 {
            handles.push(rt.halloc(256).unwrap());
        }
        let mut survivors = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if i % 3 != 0 {
                rt.hfree(*h).unwrap();
            } else {
                survivors.push(*h);
            }
        }
        let outcome = rt.defragment(None);
        assert!(outcome.objects_moved > 0);
        // Every survivor's post-move address resolves through the index.
        for h in survivors {
            assert_eq!(rt.usable_size(h), Some(256));
        }
        assert_eq!(rt.service_stats().live_objects, 200);
    }

    #[test]
    fn serial_copy_coalesces_batches_and_reports_phase_timings() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 1 << 20, ..Default::default() };
        let rt = Runtime::with_vm(vm.clone(), Box::new(AnchorageService::with_config(vm, cfg)));
        let mut handles = Vec::new();
        for i in 0..2000u64 {
            let h = rt.halloc(256).unwrap();
            rt.write_u64(h, 0, i);
            handles.push(h);
        }
        let mut survivors = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            // Keep runs of three so adjacent source blocks coalesce.
            if i % 4 == 0 {
                rt.hfree(*h).unwrap();
            } else {
                survivors.push((*h, i as u64));
            }
        }
        let outcome = rt.defragment(None);
        assert!(outcome.objects_moved > 0);
        assert!(outcome.copy_batches > 0);
        assert!(
            outcome.copy_batches < outcome.objects_moved,
            "adjacent survivors must coalesce into larger batches \
             ({} batches for {} objects)",
            outcome.copy_batches,
            outcome.objects_moved
        );
        assert_eq!(outcome.copy_workers, 1, "batches are copied on the pausing thread");
        assert!(outcome.plan_ns > 0 && outcome.copy_ns > 0 && outcome.commit_ns > 0);
        for (h, v) in survivors {
            assert_eq!(rt.read_u64(h, 0), v, "survivor data survives the copy");
        }
        rt.verify_table_invariants().unwrap();
    }

    #[test]
    fn repeated_cycles_do_not_leak_subheaps() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 1 << 20, ..Default::default() };
        let rt = Runtime::with_vm(vm.clone(), Box::new(AnchorageService::with_config(vm, cfg)));
        for _round in 0..5 {
            let handles: Vec<u64> = (0..2000).map(|_| rt.halloc(300).unwrap()).collect();
            for (i, h) in handles.iter().enumerate() {
                if i % 4 != 0 {
                    rt.hfree(*h).unwrap();
                }
            }
            rt.defragment(None);
            for (i, h) in handles.iter().enumerate() {
                if i % 4 == 0 {
                    rt.hfree(*h).unwrap();
                }
            }
        }
        assert_eq!(rt.live_handles(), 0);
        let frag = rt.service_fragmentation();
        assert!(frag <= 2.0, "empty heap should not report high fragmentation (got {frag})");
    }
}
