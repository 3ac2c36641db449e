//! The Anchorage service: a moving, defragmenting backing-memory allocator.
//!
//! Allocation policy (paper §4.3): requests go to the *active* sub-heap, first
//! consulting its power-of-two free list, then bumping.  When the active
//! sub-heap cannot satisfy a request, a new sub-heap is opened (or an empty one
//! reused) and becomes active.
//!
//! Defragmentation policy: during a stop-the-world barrier, unpinned objects
//! are moved from the top of a *source* sub-heap (the most fragmented non-active
//! one, or the previous active heap when it is the only candidate) into the
//! destination (active) sub-heap.  Each move copies the object's bytes and
//! updates a single handle-table entry.  The vacated top of the source is then
//! returned to the kernel with `MADV_DONTNEED`, so RSS drops as soon as the
//! pause ends.  A `budget` bounds how many bytes may be copied per pause
//! (partial defragmentation, amortized across pauses by the control
//! algorithm).
//!
//! A pass runs in three phases, all under the pause:
//!
//! 1. **Plan** — pick the source, walk its address range of the *index*
//!    (the one address-ordered map of live blocks, see
//!    [`AnchorageService`]) top-down until the budget is filled, reserve
//!    every destination range up front, and coalesce moves whose source
//!    *and* destination blocks are adjacent into batched copy ranges.
//! 2. **Copy** — execute the disjoint batches on a `std::thread::scope`
//!    worker pool ([`StoppedWorld::move_batch`]); worker count comes from
//!    `ALASKA_DEFRAG_WORKERS`, [`AnchorageConfig::defrag_workers`] or
//!    `available_parallelism`, with a serial fallback on one core.
//! 3. **Commit** — on the initiating thread, per moved object: free the
//!    source block and re-key its index record from source to destination
//!    address; then trim the source's extent and release the vacated pages.

use crate::subheap::SubHeap;
use alaska_faultline as faultline;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_heap::{align_up, AllocStats};
use alaska_runtime::handle::HandleId;
use alaska_runtime::service::{DefragOutcome, PlannedMove, Service, ServiceContext, StoppedWorld};
use alaska_telemetry::{Counter, Event, Gauge, Histogram, Telemetry, TelemetrySink};
use std::collections::{btree_map::Entry, BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of a single sub-heap.
pub const DEFAULT_SUBHEAP_CAPACITY: u64 = 64 * 1024 * 1024;

/// Metric names published by Anchorage (stable, used by harnesses and tests).
pub mod names {
    /// Gauge of sub-heaps currently reserved.
    pub const SUBHEAPS: &str = "anchorage_subheaps";
    /// Gauge of the index of the active (allocation target) sub-heap.
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
    /// Ceiling on the total address space reserved across all sub-heaps.
    /// When reserving one more sub-heap would exceed it, allocation fails
    /// (`alloc` returns `None`) instead of growing, and the runtime's
    /// pressure-recovery path (shed + defragment + retry) takes over.
    /// `None` (the default) means unbounded.
    pub max_heap_bytes: Option<u64>,
    /// Worker threads for the parallel copy phase of a defrag pass.  `None`
    /// (the default) sizes the pool from `available_parallelism`; the
    /// `ALASKA_DEFRAG_WORKERS` env var overrides both.  Clamped to 1..=64;
    /// 1 means the serial fallback.
    pub defrag_workers: Option<usize>,
}

impl Default for AnchorageConfig {
    fn default() -> Self {
        AnchorageConfig {
            subheap_capacity: DEFAULT_SUBHEAP_CAPACITY,
            rotate_threshold: 1.2,
            max_heap_bytes: None,
            defrag_workers: None,
        }
    }
}

/// The Anchorage defragmenting allocator service.
pub struct AnchorageService {
    vm: VirtualMemory,
    config: AnchorageConfig,
    /// In increasing base-address order (`vm.map` hands out increasing
    /// bases and sub-heaps are never removed), so the sub-heap owning an
    /// address is found by binary search.
    subheaps: Vec<SubHeap>,
    active: usize,
    /// The only record of live objects: block address → (owning handle,
    /// requested size).  The occupied size is [`SubHeap::rounded_size`] of
    /// the requested one, the owning sub-heap follows from the address, and
    /// ID → address is the handle table's job — the runtime passes the
    /// address back on `free`/`realloc`.  One sub-heap's objects are one
    /// contiguous key range, which is what a defrag pass walks.
    index: BTreeMap<u64, (HandleId, u32)>,
    stats: AllocStats,
    /// Total bytes ever released back to the kernel by defragmentation.
    pub total_released: u64,
    telemetry: Option<AnchorageTelemetry>,
}

impl AnchorageService {
    /// Create an Anchorage service allocating from `vm` with default
    /// configuration.
    pub fn new(vm: VirtualMemory) -> Self {
        Self::with_config(vm, AnchorageConfig::default())
    }

    /// Create an Anchorage service with an explicit configuration.
    pub fn with_config(vm: VirtualMemory, config: AnchorageConfig) -> Self {
        let first = SubHeap::new(0, &vm, config.subheap_capacity);
        AnchorageService {
            vm,
            config,
            subheaps: vec![first],
            active: 0,
            index: BTreeMap::new(),
            stats: AllocStats::default(),
            total_released: 0,
            telemetry: None,
        }
    }

    /// Number of sub-heaps currently reserved.
    pub fn subheap_count(&self) -> usize {
        self.subheaps.len()
    }

    /// Index of the active (allocation target) sub-heap.
    pub fn active_subheap(&self) -> usize {
        self.active
    }

    /// The combined used extent of all sub-heaps.
    pub fn heap_extent(&self) -> u64 {
        self.subheaps.iter().map(|s| s.extent()).sum()
    }

    /// Total address space reserved across all sub-heaps, in bytes.
    pub fn reserved_bytes(&self) -> u64 {
        self.subheaps.iter().map(|s| s.capacity()).sum()
    }

    /// Recompute `stats.heap_extent` from scratch — used as a backstop at the
    /// end of a defragmentation pass, where many sub-heaps change at once.
    fn recompute_extent(&mut self) {
        self.stats.heap_extent = self.heap_extent();
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
    /// one, unless that would exceed the configured
    /// [`AnchorageConfig::max_heap_bytes`] ceiling.
    fn open_subheap(&mut self, capacity: u64) -> Option<usize> {
        let limit = self.config.max_heap_bytes.unwrap_or(u64::MAX);
        if self.reserved_bytes().saturating_add(capacity) > limit {
            return None;
        }
        let idx = self.subheaps.len();
        self.subheaps.push(SubHeap::new(idx, &self.vm, capacity));
        self.active = idx;
        self.note_subheap_open(idx);
        Some(idx)
    }

    /// Index of the sub-heap whose reservation holds `addr` (the address of
    /// an indexed block, so there always is one).
    fn subheap_of(&self, addr: VirtAddr) -> usize {
        self.subheaps.partition_point(|s| s.base() <= addr) - 1
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
    fn obtain_block(&mut self, size: u64) -> Option<VirtAddr> {
        let idx = self.pick_subheap(size)?;
        if let Some(a) = self.subheap_op(idx, |s| s.alloc(size)) {
            return Some(a);
        }
        let capacity = self.config.subheap_capacity.max(SubHeap::rounded_size(size));
        let new_idx = self.open_subheap(capacity)?;
        self.subheap_op(new_idx, |s| s.alloc(size))
    }

    /// Publish a sub-heap open (or empty-reuse) at `idx` to the hub, if any.
    fn note_subheap_open(&self, idx: usize) {
        if let Some(tel) = &self.telemetry {
            tel.hub.emit(Event::SubheapOpen {
                index: idx as u64,
                capacity: self.subheaps[idx].capacity(),
            });
            tel.subheaps.set_u64(self.subheaps.len() as u64);
            tel.active.set_u64(self.active as u64);
        }
    }

    /// Publish an active-sub-heap rotation (defrag changed the destination).
    fn note_rotate(&self, from: usize, to: usize) {
        if let Some(tel) = &self.telemetry {
            tel.hub.emit(Event::SubheapRotate { from: from as u64, to: to as u64 });
            tel.active.set_u64(to as u64);
        }
    }

    /// Find a sub-heap able to serve `size`, preferring the active one, then
    /// any empty sub-heap, then a newly reserved one.  Returns the index.
    fn pick_subheap(&mut self, size: u64) -> Option<usize> {
        let rounded = SubHeap::rounded_size(size);
        if self.subheaps[self.active].extent() + rounded <= self.subheaps[self.active].capacity() {
            return Some(self.active);
        }
        // The active heap may still have a usable free-listed block even if its
        // extent is full; try it first.
        if self.subheaps[self.active].free_listed_bytes() >= rounded {
            return Some(self.active);
        }
        if let Some(idx) =
            self.subheaps.iter().position(|s| s.live_objects() == 0 && s.capacity() >= rounded)
        {
            self.subheap_op(idx, |s| s.reset());
            self.active = idx;
            self.note_subheap_open(idx);
            return Some(idx);
        }
        self.open_subheap(self.config.subheap_capacity.max(rounded))
    }

    /// Choose the source sub-heap for a defragmentation pass.
    fn pick_source(&self) -> Option<usize> {
        self.subheaps
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != self.active && s.live_objects() > 0 && s.fragmentation() > 1.01)
            .max_by(|(_, a), (_, b)| {
                a.fragmentation()
                    .partial_cmp(&b.fragmentation())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    /// After objects were moved out of sub-heap `idx`, whose extent was
    /// `old_extent` when the pass began, shrink it to the highest surviving
    /// object and return the vacated pages to the kernel.  `old_extent` is
    /// the caller's because freeing the top victim already lowered the
    /// cursor past that victim's pages.  The highest survivor comes straight
    /// off the back of the sub-heap's index range (`O(log n)`).
    fn trim_and_release(&mut self, idx: usize, old_extent: u64) -> u64 {
        let base = self.subheaps[idx].base();
        let top = self.index.range(self.span(idx)).next_back();
        let max_live_end = top.map_or(0, |(&addr, &(_, size))| {
            addr - base.0 + SubHeap::rounded_size(u64::from(size))
        });
        self.subheaps[idx].truncate_to(max_live_end);
        let release_from = align_up(max_live_end, self.vm.page_size() as u64);
        if old_extent <= release_from {
            return 0;
        }
        let released = self.vm.madvise_dontneed(base.add(release_from), old_extent - release_from);
        self.total_released += released;
        released
    }

    /// Effective copy-phase worker count for one pass: the
    /// `ALASKA_DEFRAG_WORKERS` env var, then [`AnchorageConfig::defrag_workers`],
    /// then `available_parallelism`, clamped to 1..=64.  Read per pass — the
    /// pause path is cold — so tests and CI can force it with the env var.
    fn effective_defrag_workers(&self) -> usize {
        std::env::var("ALASKA_DEFRAG_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .or(self.config.defrag_workers)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .clamp(1, 64)
    }

    /// Check the index against the sub-heaps' own counters: within each
    /// sub-heap's address range no two records overlap, none reaches past the
    /// used extent, and their count and rounded bytes equal the sub-heap's
    /// live counts; no record lies outside every sub-heap.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn verify_index(&self) -> Result<(), String> {
        let mut indexed = 0;
        for (i, heap) in self.subheaps.iter().enumerate() {
            let (mut end, mut count, mut bytes) = (heap.base().0, 0u64, 0u64);
            for (&addr, &(id, size)) in self.index.range(self.span(i)) {
                if addr < end {
                    return Err(format!(
                        "sub-heap {i}: {id:?} at {addr:#x} overlaps its neighbour"
                    ));
                }
                end = addr + SubHeap::rounded_size(u64::from(size));
                count += 1;
                bytes += end - addr;
            }
            if end > heap.base().0 + heap.extent()
                || (count, bytes) != (heap.live_objects(), heap.live_bytes())
            {
                return Err(format!(
                    "sub-heap {i}: index holds {count} objects / {bytes} bytes ending at {end:#x}, \
                     heap counts {} / {} in extent {:#x}",
                    heap.live_objects(),
                    heap.live_bytes(),
                    heap.extent()
                ));
            }
            indexed += count;
        }
        if indexed != self.index.len() as u64 {
            return Err(format!("{} records, {indexed} inside sub-heaps", self.index.len()));
        }
        Ok(())
    }
}

impl Service for AnchorageService {
    fn init(&mut self, _ctx: &ServiceContext) {}

    fn deinit(&mut self, _ctx: &ServiceContext) {}

    fn alloc(&mut self, size: usize, id: HandleId) -> Option<VirtAddr> {
        let requested = u32::try_from(size).ok()?;
        let addr = self.obtain_block(size as u64)?;
        self.index.insert(addr.0, (id, requested));
        self.stats.live_bytes += SubHeap::rounded_size(size as u64);
        self.stats.live_objects += 1;
        self.stats.total_allocated += size as u64;
        self.stats.total_allocations += 1;
        Some(addr)
    }

    fn free(&mut self, id: HandleId, addr: VirtAddr, _size: usize) {
        // The block's size is the record's own, so a wrong `_size` cannot
        // corrupt the free lists.
        let Some(size) = self.take_record(id, addr) else { return };
        let rounded = SubHeap::rounded_size(u64::from(size));
        self.subheap_op(self.subheap_of(addr), |s| s.free(addr, rounded));
        self.stats.live_bytes -= rounded;
        self.stats.live_objects -= 1;
        self.stats.total_frees += 1;
    }

    fn realloc(
        &mut self,
        id: HandleId,
        old_addr: VirtAddr,
        _old_size: usize,
        new_size: usize,
    ) -> Option<VirtAddr> {
        let requested = u32::try_from(new_size).ok()?;
        let old_size = self.take_record(id, old_addr)?;
        // Destination before the old block is released, so a failed request
        // leaves the object untouched (its record goes back).
        let Some(dst) = self.obtain_block(new_size as u64) else {
            self.index.insert(old_addr.0, (id, old_size));
            return None;
        };
        self.index.insert(dst.0, (id, requested));
        self.vm.copy(old_addr, dst, old_size.min(requested) as usize);
        let old_rounded = SubHeap::rounded_size(u64::from(old_size));
        self.subheap_op(self.subheap_of(old_addr), |s| s.free(old_addr, old_rounded));
        let rounded = SubHeap::rounded_size(new_size as u64);
        self.stats.live_bytes = self.stats.live_bytes - old_rounded + rounded;
        self.stats.total_allocated += new_size as u64;
        self.stats.total_allocations += 1;
        self.stats.total_frees += 1;
        Some(dst)
    }

    fn usable_size(&self, addr: VirtAddr) -> Option<usize> {
        self.index.get(&addr.0).map(|&(_, size)| size as usize)
    }

    fn heap_stats(&self) -> AllocStats {
        self.stats
    }

    fn fragmentation(&self) -> f64 {
        alaska_heap::fragmentation_ratio(self.heap_extent(), self.stats.live_bytes)
    }

    fn shed_memory(&mut self) -> u64 {
        // Non-active sub-heaps that hold no live objects still pin their
        // touched pages; return them to the kernel and reset the bump state so
        // the space is reusable without re-reserving.
        let mut shed = 0u64;
        for idx in 0..self.subheaps.len() {
            if idx == self.active {
                continue;
            }
            if self.subheaps[idx].live_objects() != 0 || self.subheaps[idx].extent() == 0 {
                continue;
            }
            let base = self.subheaps[idx].base();
            let extent = self.subheaps[idx].extent();
            shed += self.vm.madvise_dontneed(base, extent);
            self.subheap_op(idx, |s| s.reset());
        }
        self.total_released += shed;
        if let Some(tel) = &self.telemetry {
            tel.released.add(shed);
        }
        shed
    }

    fn defragment(
        &mut self,
        world: &mut StoppedWorld<'_>,
        budget_bytes: Option<u64>,
    ) -> DefragOutcome {
        let mut outcome = DefragOutcome::default();
        let budget = budget_bytes.unwrap_or(u64::MAX);
        let plan_start = Instant::now();

        // ---- Plan: pick a source; if the only fragmented heap is the active
        // one, rotate the active heap so it becomes a valid source.
        let source = match self.pick_source() {
            Some(s) => s,
            None => {
                let active_frag = self.subheaps[self.active].fragmentation();
                if active_frag > self.config.rotate_threshold
                    && self.subheaps[self.active].live_objects() > 0
                    && !faultline::fire!("subheap.rotate")
                {
                    let old_active = self.active;
                    // Rotate: find or create an empty destination.
                    if let Some(idx) = self
                        .subheaps
                        .iter()
                        .position(|s| s.live_objects() == 0 && s.id != old_active)
                    {
                        self.subheap_op(idx, |s| s.reset());
                        self.active = idx;
                    } else if self.open_subheap(self.config.subheap_capacity).is_none() {
                        // Under the heap ceiling there is no room for a
                        // fresh destination; shed the pass instead.
                        outcome.plan_ns = plan_start.elapsed().as_nanos() as u64;
                        return outcome;
                    }
                    self.note_rotate(old_active, self.active);
                    old_active
                } else {
                    outcome.plan_ns = plan_start.elapsed().as_nanos() as u64;
                    return outcome;
                }
            }
        };

        // A plan fault sheds the pass before any destination is reserved.
        if faultline::fire!("defrag.plan") {
            outcome.plan_ns = plan_start.elapsed().as_nanos() as u64;
            return outcome;
        }

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
            let dst_idx = match self.pick_subheap(size) {
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

        // ---- Copy: apply disjoint batches, on a scoped worker pool when both
        // the pool size and the plan warrant it.  A `defrag.copy` fault defers
        // that batch to the initiating thread (degrade, don't abort the pause).
        let copy_start = Instant::now();
        let world_ref: &StoppedWorld<'_> = world;
        let batch_count = batches.len();
        let workers = self.effective_defrag_workers().min(batch_count);
        let deferred: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let failed: Mutex<Vec<HandleId>> = Mutex::new(Vec::new());
        let batches_ref = &batches;
        let moves_ref = &moves;
        let deferred_ref = &deferred;
        let failed_ref = &failed;
        let apply_batch = move |bi: usize| {
            if faultline::fire!("defrag.copy") {
                deferred_ref.lock().expect("defrag deferred list").push(bi);
                return;
            }
            let (s, e) = batches_ref[bi];
            let applied = world_ref.move_batch(&moves_ref[s..e]);
            if !applied.failed.is_empty() {
                failed_ref.lock().expect("defrag failed list").extend(applied.failed);
            }
        };
        if workers <= 1 {
            outcome.copy_workers = u64::from(batch_count > 0);
            for bi in 0..batch_count {
                apply_batch(bi);
            }
        } else {
            outcome.copy_workers = workers as u64;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let apply_batch = &apply_batch;
                    scope.spawn(move || {
                        // Workers are plain scoped threads: they never touch
                        // the runtime's safepoint machinery, only the handle
                        // table's atomic entry words through `move_batch`.
                        let mut bi = w;
                        while bi < batch_count {
                            apply_batch(bi);
                            bi += workers;
                        }
                    });
                }
            });
        }
        // Degraded batches run serially on the initiating thread.
        let deferred = std::mem::take(&mut *deferred.lock().expect("defrag deferred list"));
        outcome.batches_degraded = deferred.len() as u64;
        for bi in deferred {
            let (s, e) = batches[bi];
            let applied = world_ref.move_batch(&moves[s..e]);
            failed.lock().expect("defrag failed list").extend(applied.failed);
        }
        let failed: HashSet<HandleId> =
            failed.into_inner().expect("defrag failed list").into_iter().collect();
        outcome.copy_ns = copy_start.elapsed().as_nanos() as u64;

        // ---- Commit: fold bookkeeping back in on the initiating thread.
        let commit_start = Instant::now();
        // Read before the frees below: freeing the top victim lowers the
        // cursor, and its pages must still be released.
        let source_extent = self.subheaps[source].extent();
        for mv in &moves {
            if failed.contains(&mv.id) {
                // Could not move after all (defensive; nothing can free an
                // entry under the pause): give the destination block back.
                let dst_idx = self.subheap_of(mv.dst);
                self.subheaps[dst_idx].free(mv.dst, mv.len);
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
            outcome.bytes_released = self.trim_and_release(source, source_extent);
        }
        self.recompute_extent();
        debug_assert_eq!(self.verify_index(), Ok(()));
        outcome.commit_ns = commit_start.elapsed().as_nanos() as u64;
        if let Some(tel) = &self.telemetry {
            tel.released.add(outcome.bytes_released);
            tel.subheaps.set_u64(self.subheaps.len() as u64);
            for &(s, e) in &batches {
                tel.batch_objects.record((e - s) as u64);
            }
        }
        outcome
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>) {
        let registry = telemetry.registry();
        let tel = AnchorageTelemetry {
            subheaps: registry.gauge(names::SUBHEAPS),
            active: registry.gauge(names::ACTIVE_SUBHEAP),
            released: registry.counter(names::RELEASED_BYTES),
            batch_objects: registry.histogram(names::DEFRAG_BATCH_OBJECTS),
            hub: Arc::clone(telemetry),
        };
        // Seed the gauges so the registry is meaningful before any event fires.
        tel.subheaps.set_u64(self.subheaps.len() as u64);
        tel.active.set_u64(self.active as u64);
        tel.released.store(self.total_released);
        self.telemetry = Some(tel);
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
        let mut svc = AnchorageService::new(vm);
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
        let mut svc = AnchorageService::with_config(vm, cfg);
        for i in 0..10 {
            svc.alloc(1024, HandleId(i)).unwrap();
        }
        assert!(svc.subheap_count() > 1, "overflow must open new sub-heaps");
        assert_eq!(svc.heap_stats().live_objects, 10);
    }

    #[test]
    fn free_reuses_space_via_power_of_two_bins() {
        let vm = VirtualMemory::default();
        let mut svc = AnchorageService::new(vm);
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
        let mut svc = AnchorageService::with_config(vm, cfg);
        let addrs: Vec<VirtAddr> = (0..8).map(|i| svc.alloc(600, HandleId(i)).unwrap()).collect();
        svc.free(HandleId(1), addrs[1], 600);
        let snapshot = |svc: &AnchorageService| {
            let heaps: Vec<_> = svc
                .subheaps
                .iter()
                .map(|s| (s.extent(), s.live_objects(), s.live_bytes(), s.free_listed_bytes()))
                .collect();
            (svc.heap_stats(), svc.heap_extent(), heaps, svc.index.clone())
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
        let mut svc = AnchorageService::with_config(vm, cfg);
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
        let mut svc = AnchorageService::with_config(vm, cfg);
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
    fn shed_memory_releases_empty_inactive_subheaps() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig { subheap_capacity: 16384, ..Default::default() };
        let mut svc = AnchorageService::with_config(vm.clone(), cfg);
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
        assert!(svc.total_released >= shed);
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
        let mut svc = AnchorageService::with_config(vm.clone(), cfg);
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
    fn parallel_copy_uses_multiple_workers_and_reports_phase_timings() {
        let vm = VirtualMemory::default();
        let cfg = AnchorageConfig {
            subheap_capacity: 1 << 20,
            defrag_workers: Some(4),
            ..Default::default()
        };
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
        assert!(
            outcome.copy_workers >= 2,
            "a 4-worker config with many batches must fan out (got {})",
            outcome.copy_workers
        );
        assert!(outcome.plan_ns > 0 && outcome.copy_ns > 0 && outcome.commit_ns > 0);
        for (h, v) in survivors {
            assert_eq!(rt.read_u64(h, 0), v, "survivor data survives the parallel copy");
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
