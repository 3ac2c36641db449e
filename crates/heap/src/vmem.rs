//! A simulated 64-bit virtual address space with page-granular residency.
//!
//! The paper measures fragmentation via resident set size (RSS): physical pages
//! a process actually occupies.  We model exactly the mechanisms that determine
//! RSS for a user-space heap:
//!
//! * `mmap`-style *reservations* ([`VirtualMemory::map`]) cost nothing until
//!   touched (demand paging),
//! * the first write to a page *commits* it (allocates backing storage),
//! * [`VirtualMemory::madvise_dontneed`] decommits whole pages, returning them
//!   to the "kernel" — subsequent reads see zeroes again, exactly like
//!   `MADV_DONTNEED`,
//! * RSS is the number of committed pages times the page size.
//!
//! Addresses are plain `u64`s wrapped in [`VirtAddr`]; address 0 is never
//! handed out so it can serve as a null pointer in the workloads and the IR
//! interpreter.
//!
//! # Structure: a page table, not a locked map
//!
//! Every mutator's every access comes through here, so the access path takes
//! no address-space-wide lock and writes no shared word:
//!
//! * mapping bases are aligned to a *granule* of [`GRANULE_PAGES`] pages, so a
//!   granule belongs to at most one mapping;
//! * a three-level radix directory of `OnceLock` nodes leads from an address
//!   to its granule — a few dependent loads and no write;
//! * a granule holds its share of the mapping's flat page array: one
//!   `RwLock<Option<Box<[u8]>>>` per page, `None` until first written
//!   (commit) and `take()`n on decommit so the real memory goes back too.
//!   Two accesses meet only when they touch the same page;
//! * directory nodes and page arrays appear on the first *write* to a granule,
//!   so `map` is O(1) however large the reservation, and reads of untouched
//!   memory allocate nothing;
//! * [`VmStats`] are atomics (the peak is a `fetch_max`);
//! * one small mutex guards the list of mappings; `map`, `unmap` and the
//!   first write to a granule take it, nothing else does.
//!
//! Addresses are never reused, so a directory entry never changes meaning.
//! `unmap` frees every page of the mapping but leaves its (now empty) page
//! arrays in the directory, as a kernel leaves page-table pages behind.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Default page size used throughout the reproduction (matches x86-64 base pages).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Base address of the first mapping.  Chosen to be comfortably above zero so
/// small integers are never valid addresses, and below 2^63 so the top bit is
/// free for Alaska's handle flag.
const MAP_BASE: u64 = 0x0000_1000_0000;

/// A virtual address inside a [`VirtualMemory`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The null address.
    pub const NULL: VirtAddr = VirtAddr(0);

    /// Whether this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Address `offset` bytes past `self`.
    #[allow(clippy::should_implement_trait)] // `addr.add(n)` reads as pointer arithmetic here
    pub fn add(self, offset: u64) -> VirtAddr {
        VirtAddr(self.0 + offset)
    }

    /// Byte distance from `other` to `self` (must not underflow).
    pub fn offset_from(self, other: VirtAddr) -> u64 {
        self.0 - other.0
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        VirtAddr(v)
    }
}

impl From<VirtAddr> for u64 {
    fn from(v: VirtAddr) -> Self {
        v.0
    }
}

/// Pages per granule: mapping bases are aligned to this many pages, and page
/// slots are allocated a granule at a time (2 MiB with 4 KiB pages).
pub const GRANULE_PAGES: u64 = 512;

/// Fan-out of each of the three directory levels.  With 4 KiB pages the
/// directory spans 512³ granules = 2^48 bytes.
const DIR_FANOUT: u64 = 512;

/// One page: `None` until first written, `take()`n on decommit.
type PageSlot = RwLock<Option<Box<[u8]>>>;
type DirNode<T> = Box<[OnceLock<T>]>;

fn dir_node<T>() -> DirNode<T> {
    (0..DIR_FANOUT).map(|_| OnceLock::new()).collect()
}

/// Granule index `g` as its index at each directory level, root first.
fn dir_path(g: u64) -> [usize; 3] {
    [g / (DIR_FANOUT * DIR_FANOUT), g / DIR_FANOUT % DIR_FANOUT, g % DIR_FANOUT].map(|i| i as usize)
}

/// One granule's share of its mapping's flat page array.
struct Granule {
    /// Cleared by `unmap` before it takes the pages.  A commit checks it under
    /// the page's write lock, so no page can appear in an unmapped granule.
    mapped: AtomicBool,
    /// One slot per page of the mapping inside this granule.  A mapping's last
    /// granule is partial: the pages past its end — the guard page among
    /// them — have no slot.
    slots: Box<[PageSlot]>,
}

/// A reserved region of address space.
#[derive(Debug, Clone, Copy)]
struct Mapping {
    base: u64,
    len: u64,
}

/// The live mappings, ascending by base (bases only grow).
struct Mappings {
    live: Vec<Mapping>,
    next_map: u64,
}

impl Mappings {
    fn containing(&self, addr: u64) -> Option<Mapping> {
        let idx = self.live.partition_point(|m| m.base <= addr).checked_sub(1)?;
        let m = self.live[idx];
        (addr < m.base + m.len).then_some(m)
    }
}

/// Counters describing the state of a [`VirtualMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Bytes of address space currently reserved via [`VirtualMemory::map`].
    pub mapped_bytes: u64,
    /// Bytes currently resident (committed pages × page size).
    pub rss_bytes: u64,
    /// High-water mark of [`VmStats::rss_bytes`] over the lifetime of the space.
    pub peak_rss_bytes: u64,
    /// Number of pages ever committed (page faults served).
    pub pages_committed_total: u64,
    /// Number of pages decommitted via `madvise_dontneed`.
    pub pages_decommitted_total: u64,
    /// Number of `madvise_dontneed` calls (each may trigger TLB shootdowns).
    pub madvise_calls: u64,
}

struct Shared {
    page_size: usize,
    page_shift: u32,
    dir: DirNode<DirNode<DirNode<Granule>>>,
    maps: Mutex<Mappings>,
    mapped_bytes: AtomicU64,
    resident_pages: AtomicU64,
    peak_resident_pages: AtomicU64,
    pages_committed_total: AtomicU64,
    pages_decommitted_total: AtomicU64,
    madvise_calls: AtomicU64,
}

impl Shared {
    /// The granule with index `g`, if a write ever populated it.
    #[inline]
    fn granule(&self, g: u64) -> Option<&Granule> {
        let [i2, i1, i0] = dir_path(g);
        self.dir.get(i2)?.get()?[i1].get()?[i0].get()
    }

    /// The page slot holding `addr`, if its granule is populated and `addr`
    /// lies inside the granule's mapping.
    #[inline]
    fn slot(&self, addr: u64) -> Option<&PageSlot> {
        let page = addr >> self.page_shift;
        self.granule(page / GRANULE_PAGES)?.slots.get((page % GRANULE_PAGES) as usize)
    }

    /// First write to the granule holding `addr`: build its directory path
    /// and page slots.
    ///
    /// # Panics
    ///
    /// Panics if `addr` belongs to no mapping.
    #[cold]
    fn populate(&self, addr: u64) -> &Granule {
        let g = (addr >> self.page_shift) / GRANULE_PAGES;
        let [i2, i1, i0] = dir_path(g);
        // The mapping is looked up under the lock `unmap` holds while it
        // clears `mapped`, so a granule is never born into a dead mapping.
        let maps = self.maps.lock();
        let Some(m) = maps.containing(addr) else { unmapped_write(addr) };
        let granule_base = (g * GRANULE_PAGES) << self.page_shift;
        let pages = ((m.base + m.len - granule_base) >> self.page_shift).min(GRANULE_PAGES);
        self.dir[i2].get_or_init(dir_node)[i1].get_or_init(dir_node)[i0].get_or_init(|| Granule {
            mapped: AtomicBool::new(true),
            slots: (0..pages).map(|_| RwLock::new(None)).collect(),
        })
    }

    /// Run `put(dst, pos)` over `[addr, addr + len)` one page piece at a time
    /// (`dst` is the piece, `pos` its offset in the range), committing pages
    /// as needed.
    fn write_with(&self, addr: VirtAddr, len: usize, mut put: impl FnMut(&mut [u8], usize)) {
        assert!(!addr.is_null(), "write to null address");
        let mut pos = 0usize;
        while pos < len {
            let a = addr.0 + pos as u64;
            let off = a as usize & (self.page_size - 1);
            let n = (self.page_size - off).min(len - pos);
            let page = a >> self.page_shift;
            let granule = match self.granule(page / GRANULE_PAGES) {
                Some(g) => g,
                None => self.populate(a),
            };
            // No slot: the guard page, or past the end of the mapping.
            let Some(slot) = granule.slots.get((page % GRANULE_PAGES) as usize) else {
                unmapped_write(a)
            };
            let mut slot = slot.write().unwrap_or_else(PoisonError::into_inner);
            let data = slot.get_or_insert_with(|| {
                if !granule.mapped.load(Ordering::Acquire) {
                    unmapped_write(a);
                }
                self.pages_committed_total.fetch_add(1, Ordering::Relaxed);
                let resident = self.resident_pages.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak_resident_pages.fetch_max(resident, Ordering::Relaxed);
                vec![0u8; self.page_size].into_boxed_slice()
            });
            put(&mut data[off..off + n], pos);
            pos += n;
        }
    }

    /// Decommit the pages `[first, end)`; returns how many were resident.
    fn decommit(&self, first: u64, end: u64) -> u64 {
        let mut released = 0u64;
        let mut page = first;
        while page < end {
            let g = page / GRANULE_PAGES;
            let stop = end.min((g + 1) * GRANULE_PAGES);
            if let Some(granule) = self.granule(g) {
                let range = (page % GRANULE_PAGES) as usize..(stop - g * GRANULE_PAGES) as usize;
                for slot in granule.slots.iter().take(range.end).skip(range.start) {
                    let taken = slot.write().unwrap_or_else(PoisonError::into_inner).take();
                    released += u64::from(taken.is_some());
                }
            }
            page = stop;
        }
        self.resident_pages.fetch_sub(released, Ordering::Relaxed);
        self.pages_decommitted_total.fetch_add(released, Ordering::Relaxed);
        released
    }
}

#[cold]
fn unmapped_write(addr: u64) -> ! {
    panic!("write to unmapped address {addr:#x}")
}

/// A shared, thread-safe simulated virtual address space.
///
/// Cloning is cheap (`Arc`); all clones observe the same memory.
#[derive(Clone)]
pub struct VirtualMemory {
    inner: Arc<Shared>,
}

impl fmt::Debug for VirtualMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        f.debug_struct("VirtualMemory")
            .field("mapped_bytes", &st.mapped_bytes)
            .field("rss_bytes", &st.rss_bytes)
            .finish()
    }
}

impl Default for VirtualMemory {
    fn default() -> Self {
        Self::shared(DEFAULT_PAGE_SIZE)
    }
}

impl VirtualMemory {
    /// Create a new address space with the given page size (must be a power of
    /// two, at least 64 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or is smaller than 64.
    pub fn shared(page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size >= 64,
            "page size must be a power of two >= 64, got {page_size}"
        );
        let granule_bytes = GRANULE_PAGES * page_size as u64;
        VirtualMemory {
            inner: Arc::new(Shared {
                page_size,
                page_shift: page_size.trailing_zeros(),
                dir: dir_node(),
                maps: Mutex::new(Mappings {
                    live: Vec::new(),
                    next_map: super::align_up(MAP_BASE, granule_bytes),
                }),
                mapped_bytes: AtomicU64::new(0),
                resident_pages: AtomicU64::new(0),
                peak_resident_pages: AtomicU64::new(0),
                pages_committed_total: AtomicU64::new(0),
                pages_decommitted_total: AtomicU64::new(0),
                madvise_calls: AtomicU64::new(0),
            }),
        }
    }

    /// The page size of this address space.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Reserve `len` bytes of address space (rounded up to whole pages).
    ///
    /// The reservation costs no resident memory until written.  Returns the
    /// base address of the mapping.
    ///
    /// # Panics
    ///
    /// Panics if the address space the directory spans is exhausted.
    pub fn map(&self, len: u64) -> VirtAddr {
        let page = self.inner.page_size as u64;
        let granule_bytes = GRANULE_PAGES * page;
        let len = super::align_up(len.max(1), page);
        let mut maps = self.inner.maps.lock();
        let base = maps.next_map;
        // At least one unmapped guard page follows every mapping (a write to
        // it panics); the next base is then rounded up to a granule.
        maps.next_map = super::align_up(base + len + page, granule_bytes);
        assert!(
            maps.next_map <= DIR_FANOUT.pow(3) * granule_bytes,
            "simulated address space exhausted mapping {len} bytes"
        );
        maps.live.push(Mapping { base, len });
        self.inner.mapped_bytes.fetch_add(len, Ordering::Relaxed);
        VirtAddr(base)
    }

    /// Release a mapping created by [`VirtualMemory::map`], decommitting all of
    /// its pages.  Later reads of its range see zeroes; later writes panic.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not the base of a live mapping.
    pub fn unmap(&self, base: VirtAddr) {
        let vm = &*self.inner;
        let mut maps = vm.maps.lock();
        let idx = maps
            .live
            .binary_search_by_key(&base.0, |m| m.base)
            .unwrap_or_else(|_| panic!("unmap of unknown mapping {base}"));
        let m = maps.live.remove(idx);
        vm.mapped_bytes.fetch_sub(m.len, Ordering::Relaxed);
        let (first, end) = (m.base >> vm.page_shift, (m.base + m.len) >> vm.page_shift);
        for g in first / GRANULE_PAGES..=(end - 1) / GRANULE_PAGES {
            if let Some(granule) = vm.granule(g) {
                granule.mapped.store(false, Ordering::Release);
            }
        }
        vm.decommit(first, end);
    }

    /// Total resident bytes (committed pages × page size).
    pub fn rss_bytes(&self) -> u64 {
        self.resident_pages() * self.inner.page_size as u64
    }

    /// Snapshot of the address-space statistics.  Each field is exact; taken
    /// while other threads commit or decommit, the fields may be from
    /// slightly different instants.
    pub fn stats(&self) -> VmStats {
        let vm = &*self.inner;
        let page = vm.page_size as u64;
        VmStats {
            mapped_bytes: vm.mapped_bytes.load(Ordering::Relaxed),
            rss_bytes: vm.resident_pages.load(Ordering::Relaxed) * page,
            peak_rss_bytes: vm.peak_resident_pages.load(Ordering::Relaxed) * page,
            pages_committed_total: vm.pages_committed_total.load(Ordering::Relaxed),
            pages_decommitted_total: vm.pages_decommitted_total.load(Ordering::Relaxed),
            madvise_calls: vm.madvise_calls.load(Ordering::Relaxed),
        }
    }

    /// Decommit all pages that lie *entirely* inside `[addr, addr+len)`,
    /// mirroring `madvise(MADV_DONTNEED)`: partial pages at the edges stay
    /// resident, decommitted pages read back as zeroes.
    ///
    /// Returns the number of bytes released.
    pub fn madvise_dontneed(&self, addr: VirtAddr, len: u64) -> u64 {
        let vm = &*self.inner;
        vm.madvise_calls.fetch_add(1, Ordering::Relaxed);
        if len == 0 {
            return 0;
        }
        let page = vm.page_size as u64;
        let first = super::align_up(addr.0, page) >> vm.page_shift;
        let end = (addr.0 + len) >> vm.page_shift; // first page NOT fully covered
        vm.decommit(first, end) * page
    }

    /// Write `bytes` starting at `addr`, committing pages as needed.
    ///
    /// # Panics
    ///
    /// Panics if the write targets the null page or any address outside a
    /// live mapping (a guard page included): such a page could never be
    /// released again.
    pub fn write_bytes(&self, addr: VirtAddr, bytes: &[u8]) {
        self.inner.write_with(addr, bytes.len(), |dst, pos| {
            dst.copy_from_slice(&bytes[pos..][..dst.len()])
        });
    }

    /// Read `len` bytes starting at `addr` into a fresh vector.  Uncommitted
    /// pages read as zeroes (demand-zero semantics).
    pub fn read_vec(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_bytes(addr, &mut out);
        out
    }

    /// Read into `out` starting at `addr`.  Uncommitted and unmapped pages
    /// read as zeroes, and reading never commits anything.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is null and `out` is non-empty.
    pub fn read_bytes(&self, addr: VirtAddr, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        assert!(!addr.is_null(), "read from null address");
        let vm = &*self.inner;
        let mut pos = 0usize;
        while pos < out.len() {
            let a = addr.0 + pos as u64;
            let off = a as usize & (vm.page_size - 1);
            let n = (vm.page_size - off).min(out.len() - pos);
            let slot = vm.slot(a).map(|s| s.read().unwrap_or_else(PoisonError::into_inner));
            match slot.as_deref() {
                Some(Some(data)) => out[pos..pos + n].copy_from_slice(&data[off..off + n]),
                _ => out[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: VirtAddr, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: VirtAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Write a single byte.
    pub fn write_u8(&self, addr: VirtAddr, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    /// Read a single byte.
    pub fn read_u8(&self, addr: VirtAddr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Copy `len` bytes from `src` to `dst` with `memmove` semantics: the
    /// regions may overlap.  The copy goes through a small buffer (2 KiB:
    /// zeroing it costs a short copy little, a long one amortises its page
    /// lookups), front to back when `dst` is below `src` and back to front
    /// when above, so no piece overwrites source bytes still to be read; it
    /// never holds two page locks at once.
    pub fn copy(&self, src: VirtAddr, dst: VirtAddr, len: usize) {
        let mut buf = [0u8; 2048];
        let mut done = 0usize;
        while done < len {
            let n = buf.len().min(len - done);
            let at = if dst <= src { done } else { len - done - n } as u64;
            self.read_bytes(src.add(at), &mut buf[..n]);
            self.write_bytes(dst.add(at), &buf[..n]);
            done += n;
        }
    }

    /// Fill `len` bytes at `addr` with `value`.
    pub fn fill(&self, addr: VirtAddr, value: u8, len: usize) {
        if len == 0 {
            return;
        }
        self.inner.write_with(addr, len, |dst, _| dst.fill(value));
    }

    /// Number of currently committed (resident) pages.
    pub fn resident_pages(&self) -> u64 {
        self.inner.resident_pages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_lazily_committed() {
        let vm = VirtualMemory::shared(4096);
        let base = vm.map(1 << 20);
        assert_eq!(vm.rss_bytes(), 0, "mapping alone must not commit pages");
        vm.write_u64(base, 42);
        assert_eq!(vm.rss_bytes(), 4096);
        assert_eq!(vm.read_u64(base), 42);
    }

    #[test]
    fn reads_of_untouched_pages_are_zero() {
        let vm = VirtualMemory::shared(4096);
        let base = vm.map(8192);
        assert_eq!(vm.read_u64(base.add(4096)), 0);
        assert_eq!(vm.rss_bytes(), 0, "reads must not commit pages");
    }

    #[test]
    fn writes_span_page_boundaries() {
        let vm = VirtualMemory::shared(4096);
        let base = vm.map(8192);
        let addr = base.add(4090);
        let data: Vec<u8> = (0..16u8).collect();
        vm.write_bytes(addr, &data);
        assert_eq!(vm.read_vec(addr, 16), data);
        assert_eq!(vm.rss_bytes(), 8192, "write across boundary commits both pages");
    }

    #[test]
    fn madvise_releases_only_fully_covered_pages() {
        let vm = VirtualMemory::shared(4096);
        let base = vm.map(4096 * 4);
        vm.fill(base, 0xAB, 4096 * 4);
        assert_eq!(vm.rss_bytes(), 4096 * 4);
        // Range starts 100 bytes into page 0 and ends 100 bytes into page 3:
        // only pages 1 and 2 are fully covered.
        let released = vm.madvise_dontneed(base.add(100), 4096 * 3);
        assert_eq!(released, 4096 * 2);
        assert_eq!(vm.rss_bytes(), 4096 * 2);
        // Released pages read back as zero, retained pages keep data.
        assert_eq!(vm.read_u8(base.add(4096)), 0);
        assert_eq!(vm.read_u8(base), 0xAB);
        assert_eq!(vm.read_u8(base.add(4096 * 3)), 0xAB);
    }

    #[test]
    fn madvise_then_rewrite_recommits() {
        let vm = VirtualMemory::shared(4096);
        let base = vm.map(4096);
        vm.write_u64(base, 7);
        vm.madvise_dontneed(base, 4096);
        assert_eq!(vm.rss_bytes(), 0);
        vm.write_u64(base, 9);
        assert_eq!(vm.rss_bytes(), 4096);
        assert_eq!(vm.read_u64(base), 9);
    }

    #[test]
    fn unmap_releases_everything() {
        let vm = VirtualMemory::shared(4096);
        let a = vm.map(4096 * 8);
        vm.fill(a, 1, 4096 * 8);
        let b = vm.map(4096);
        vm.write_u8(b, 2);
        assert_eq!(vm.rss_bytes(), 4096 * 9);
        vm.unmap(a);
        assert_eq!(vm.rss_bytes(), 4096);
        assert_eq!(vm.stats().mapped_bytes, 4096);
    }

    #[test]
    fn mappings_do_not_overlap() {
        let vm = VirtualMemory::shared(4096);
        let a = vm.map(10_000);
        let b = vm.map(10_000);
        assert!(b.0 >= a.0 + 10_000, "second mapping must start after the first");
    }

    #[test]
    fn peak_rss_tracks_high_water_mark() {
        let vm = VirtualMemory::shared(4096);
        let a = vm.map(4096 * 10);
        vm.fill(a, 3, 4096 * 10);
        vm.madvise_dontneed(a, 4096 * 10);
        let st = vm.stats();
        assert_eq!(st.rss_bytes, 0);
        assert_eq!(st.peak_rss_bytes, 4096 * 10);
        assert_eq!(st.madvise_calls, 1);
    }

    #[test]
    fn copy_moves_object_contents() {
        let vm = VirtualMemory::shared(4096);
        let a = vm.map(4096 * 2);
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        vm.write_bytes(a, &payload);
        let dst = a.add(4096);
        vm.copy(a, dst, 1000);
        assert_eq!(vm.read_vec(dst, 1000), payload);
    }

    #[test]
    #[should_panic(expected = "null")]
    fn write_to_null_panics() {
        let vm = VirtualMemory::shared(4096);
        vm.write_u8(VirtAddr::NULL, 1);
    }

    #[test]
    #[should_panic(expected = "write to unmapped address 0x5000")]
    fn write_outside_any_mapping_panics() {
        let vm = VirtualMemory::shared(4096);
        vm.map(4096);
        assert_eq!(vm.read_u64(VirtAddr(0x5000)), 0, "reads of unmapped addresses stay zero");
        vm.write_u8(VirtAddr(0x5000), 1);
    }

    #[test]
    fn guard_page_and_unmapped_range_reject_writes_but_read_zero() {
        let vm = VirtualMemory::shared(4096);
        let a = vm.map(4096 * 3);
        vm.fill(a, 5, 4096 * 3);
        let guard = a.add(4096 * 3);
        let vm2 = vm.clone();
        assert!(std::panic::catch_unwind(move || vm2.write_u8(guard, 1)).is_err());
        // A write that runs off the end commits nothing past the mapping.
        let (vm2, tail) = (vm.clone(), VirtAddr(guard.0 - 8));
        assert!(std::panic::catch_unwind(move || vm2.fill(tail, 1, 16)).is_err());
        assert_eq!(vm.read_vec(tail, 16), [[1u8; 8], [0u8; 8]].concat());
        assert_eq!(vm.rss_bytes(), 4096 * 3);

        vm.unmap(a);
        assert_eq!(vm.read_u8(a), 0);
        let vm2 = vm.clone();
        assert!(std::panic::catch_unwind(move || vm2.write_u8(a, 1)).is_err());
        assert_eq!(vm.stats().rss_bytes, 0);
        assert_eq!(vm.stats().pages_decommitted_total, 3);
    }

    #[test]
    fn mapping_is_cheap_however_large_and_bases_are_granule_aligned() {
        let vm = VirtualMemory::shared(4096);
        let granule = GRANULE_PAGES * 4096;
        let big = vm.map(1 << 40);
        let next = vm.map(1);
        assert_eq!(big.0 % granule, 0);
        assert_eq!(next.0 % granule, 0);
        assert!(next.0 >= big.0 + (1 << 40) + 4096, "a guard page separates mappings");
        // Touching the far end populates one granule, not the mapping.
        vm.write_u8(big.add((1 << 40) - 1), 9);
        assert_eq!(vm.read_u8(big.add((1 << 40) - 1)), 9);
        assert_eq!(vm.rss_bytes(), 4096);
        assert_eq!(vm.stats().mapped_bytes, (1 << 40) + 4096);
    }

    #[test]
    fn clones_share_memory() {
        let vm = VirtualMemory::shared(4096);
        let vm2 = vm.clone();
        let a = vm.map(4096);
        vm2.write_u64(a, 123);
        assert_eq!(vm.read_u64(a), 123);
        assert_eq!(vm.rss_bytes(), vm2.rss_bytes());
    }
}
