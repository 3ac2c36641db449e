//! Sub-heaps: the unit of space Anchorage allocates from and defragments.
//!
//! Each sub-heap is a contiguous reservation in the shared address space.  New
//! blocks come from a bump pointer at the top of the used region; freed blocks
//! are remembered in power-of-two free lists and reused in `O(1)` — only the
//! front of the matching list is consulted, exactly as described in §4.3 of the
//! paper.  The simplicity is the point: initial placement does not matter much
//! because the service can move objects later.

use alaska_heap::align_up;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};

/// Minimum block granule.  Every block size is rounded up to a multiple of
/// this, which also serves as the alignment guarantee (like `malloc`'s 16).
pub const GRANULE: u64 = 16;

/// Number of power-of-two free-list bins (16 B .. 16 B << 31).
const BINS: usize = 32;

fn bin_for(size: u64) -> usize {
    let classes = size.max(GRANULE).next_power_of_two();
    (classes.trailing_zeros() as usize - GRANULE.trailing_zeros() as usize).min(BINS - 1)
}

/// A contiguous bump-allocated region with power-of-two free lists.
#[derive(Debug)]
pub struct SubHeap {
    /// Identifier (index within the service).
    pub id: usize,
    base: VirtAddr,
    capacity: u64,
    /// Offset of the first never-used byte.
    cursor: u64,
    /// Power-of-two free lists of (offset, block size).
    bins: Vec<Vec<(u64, u64)>>,
    /// Sum of the block sizes in `bins`, kept in step with every push, pop
    /// and drop so the allocation path never folds over the lists.
    free_listed: u64,
    /// Bytes currently live in this sub-heap.
    live_bytes: u64,
    /// Number of live objects in this sub-heap.
    live_objects: u64,
}

impl SubHeap {
    /// Reserve a new sub-heap of `capacity` bytes inside `vm`.
    pub fn new(id: usize, vm: &VirtualMemory, capacity: u64) -> Self {
        let base = vm.map(capacity);
        SubHeap {
            id,
            base,
            capacity,
            cursor: 0,
            bins: vec![Vec::new(); BINS],
            free_listed: 0,
            live_bytes: 0,
            live_objects: 0,
        }
    }

    /// Base address of the sub-heap.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Reserved capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Offset of the bump cursor (the sub-heap's used extent).
    pub fn extent(&self) -> u64 {
        self.cursor
    }

    /// Bytes occupied by live objects.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Whether `addr` lies inside this sub-heap's reservation.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.capacity
    }

    /// Fragmentation of this sub-heap: used extent over live bytes.
    pub fn fragmentation(&self) -> f64 {
        alaska_heap::fragmentation_ratio(self.cursor, self.live_bytes)
    }

    /// Bytes of free space available without growing the extent: the total
    /// size of the free-listed blocks, read from a running total in `O(1)`.
    pub fn free_listed_bytes(&self) -> u64 {
        self.free_listed
    }

    /// Allocate `size` bytes.  Checks the front of the matching power-of-two
    /// free list, then falls back to bumping.  Returns `None` when the
    /// sub-heap is exhausted.
    pub fn alloc(&mut self, size: u64) -> Option<VirtAddr> {
        let rounded = align_up(size.max(1), GRANULE);
        let bin = bin_for(rounded);
        // O(1): only the front of the exact bin is considered.
        if let Some(&(off, block)) = self.bins[bin].last() {
            if block >= rounded {
                self.bins[bin].pop();
                self.free_listed -= block;
                self.live_bytes += rounded;
                self.live_objects += 1;
                return Some(self.base.add(off));
            }
        }
        let start = align_up(self.cursor, GRANULE);
        let end = start.checked_add(rounded)?;
        if end > self.capacity {
            return None;
        }
        self.cursor = end;
        self.live_bytes += rounded;
        self.live_objects += 1;
        Some(self.base.add(start))
    }

    /// Return the block at `addr` (of rounded size `size`) to the free list.
    pub fn free(&mut self, addr: VirtAddr, size: u64) {
        debug_assert!(self.contains(addr), "free outside sub-heap");
        let rounded = align_up(size.max(1), GRANULE);
        let off = addr.offset_from(self.base);
        // Blocks freed off the top of the heap shrink the extent instead of
        // going to a bin, which keeps a freshly compacted heap tight.
        if off + rounded == self.cursor {
            self.cursor = off;
        } else {
            self.bins[bin_for(rounded)].push((off, rounded));
            self.free_listed += rounded;
        }
        self.live_bytes -= rounded;
        self.live_objects -= 1;
    }

    /// Shrink the used extent to `new_extent` after a defragmentation pass
    /// vacated the top of the sub-heap.  Free-list entries above the new
    /// extent are dropped (that space is no longer part of the heap).
    pub fn truncate_to(&mut self, new_extent: u64) {
        debug_assert!(new_extent <= self.cursor, "truncate_to must shrink the extent");
        self.cursor = new_extent;
        for bin in &mut self.bins {
            bin.retain(|&(off, _)| off < new_extent);
        }
        // The retain above already visited every entry; one more fold here
        // keeps the total exact without a subtraction per dropped block.
        self.free_listed = self.bins.iter().flatten().map(|&(_, size)| size).sum();
    }

    /// Forget all free-list state and reset the bump cursor — used after a
    /// defragmentation pass empties the sub-heap.
    pub fn reset(&mut self) {
        debug_assert_eq!(self.live_objects, 0, "reset of a sub-heap with live objects");
        self.cursor = 0;
        self.live_bytes = 0;
        self.free_listed = 0;
        for b in &mut self.bins {
            b.clear();
        }
    }

    /// The rounded size class a request of `size` bytes occupies.
    pub fn rounded_size(size: u64) -> u64 {
        align_up(size.max(1), GRANULE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> (VirtualMemory, SubHeap) {
        let vm = VirtualMemory::shared(4096);
        let sh = SubHeap::new(0, &vm, 1 << 20);
        (vm, sh)
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let (_vm, mut sh) = sub();
        let a = sh.alloc(16).unwrap();
        let b = sh.alloc(16).unwrap();
        assert_eq!(b.offset_from(a), 16);
        assert_eq!(sh.extent(), 32);
        assert_eq!(sh.live_objects(), 2);
    }

    #[test]
    fn free_then_alloc_reuses_front_of_bin() {
        let (_vm, mut sh) = sub();
        let a = sh.alloc(100).unwrap();
        let _b = sh.alloc(100).unwrap();
        sh.free(a, 100);
        let c = sh.alloc(100).unwrap();
        assert_eq!(a, c, "freed block reused from the bin front");
    }

    #[test]
    fn freeing_top_block_shrinks_extent() {
        let (_vm, mut sh) = sub();
        let _a = sh.alloc(64).unwrap();
        let b = sh.alloc(64).unwrap();
        let before = sh.extent();
        sh.free(b, 64);
        assert!(sh.extent() < before);
    }

    #[test]
    fn capacity_is_enforced() {
        let vm = VirtualMemory::shared(4096);
        let mut sh = SubHeap::new(0, &vm, 256);
        assert!(sh.alloc(200).is_some());
        assert!(sh.alloc(200).is_none(), "second allocation exceeds capacity");
    }

    #[test]
    fn fragmentation_reflects_holes() {
        let (_vm, mut sh) = sub();
        let ptrs: Vec<_> = (0..10).map(|_| sh.alloc(64).unwrap()).collect();
        assert!((sh.fragmentation() - 1.0).abs() < 1e-9);
        for p in ptrs.iter().take(9) {
            sh.free(*p, 64);
        }
        assert!(sh.fragmentation() > 5.0, "one survivor in a 10-object extent");
    }

    #[test]
    fn reset_clears_state() {
        let (_vm, mut sh) = sub();
        let a = sh.alloc(64).unwrap();
        sh.free(a, 64);
        sh.reset();
        assert_eq!(sh.extent(), 0);
        assert_eq!(sh.free_listed_bytes(), 0);
    }

    #[test]
    fn running_free_listed_total_equals_the_fold_over_the_bins() {
        let (_vm, mut sh) = sub();
        let fold = |sh: &SubHeap| sh.bins.iter().flatten().map(|&(_, s)| s).sum::<u64>();
        let mut live: Vec<(VirtAddr, u64)> = Vec::new();
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..2_000u64 {
            word = word.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = word >> 33;
            match r % 3 {
                0 if !live.is_empty() => {
                    let (addr, size) = live.swap_remove(r as usize % live.len());
                    sh.free(addr, size);
                }
                _ => {
                    // Sizes that share bins without being equal, so a pop can
                    // take a block larger than the request.
                    let size = 1 + r % 700;
                    live.push((sh.alloc(size).unwrap(), size));
                }
            }
            if step % 500 == 499 {
                // Drop the top half, as a defragmentation pass would.
                let cut = sh.extent() / 2 / GRANULE * GRANULE;
                live.retain(|&(addr, size)| {
                    let keep = addr.offset_from(sh.base()) + SubHeap::rounded_size(size) <= cut;
                    if !keep {
                        sh.free(addr, size);
                    }
                    keep
                });
                sh.truncate_to(cut.min(sh.extent()));
            }
            assert_eq!(sh.free_listed_bytes(), fold(&sh), "after step {step}");
        }
        assert!(sh.free_listed_bytes() > 0, "the sequence must leave free-listed blocks");
        for (addr, size) in live.drain(..) {
            sh.free(addr, size);
        }
        sh.reset();
        assert_eq!((sh.free_listed_bytes(), fold(&sh)), (0, 0));
    }

    #[test]
    fn rounded_size_is_granule_aligned() {
        assert_eq!(SubHeap::rounded_size(1), 16);
        assert_eq!(SubHeap::rounded_size(16), 16);
        assert_eq!(SubHeap::rounded_size(17), 32);
        assert_eq!(SubHeap::rounded_size(0), 16);
    }

    #[test]
    fn bin_for_distributes_by_power_of_two() {
        assert_eq!(bin_for(16), 0);
        assert_eq!(bin_for(32), 1);
        assert_eq!(bin_for(33), 2);
        assert_eq!(bin_for(1024), 6);
    }
}
