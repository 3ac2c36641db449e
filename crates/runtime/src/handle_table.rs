//! The lock-free-read handle table (paper §4.2.1).
//!
//! One handle-table entry (HTE) exists per live object and stores the current
//! address of the object's backing memory.  Translation is a single indexed
//! load: `backing(handle.id) + handle.offset`.  The table is analogous to a
//! page table but deliberately single-level — a multi-level/radix layout would
//! multiply the number of loads per translation (§3.3, footnote 4).
//!
//! # Concurrency design
//!
//! The table is built for the paper's central claim — translation cheap enough
//! to sit on *every* pointer dereference — to survive multi-threaded use:
//!
//! * **Packed atomic entries.**  Each HTE packs `(backing address, state)`
//!   into one `AtomicU64` word: bits `0..48` hold the address (the
//!   architectural 48-bit virtual address space), bits `48..50` hold the
//!   state (`Free`/`Live`/`Invalid`).  The object size lives in a sibling
//!   `AtomicU32`.  [`HandleTable::translate`] and [`HandleTable::load`] are a
//!   single `Relaxed` load of the word plus an add — no lock, no CAS.  The
//!   handle-fault path ([`HandleTable::fault_recover`]) CASes the state bits.
//! * **One pool of IDs.**  As in the paper, one free list and one bump
//!   cursor hand out IDs, behind one mutex.  Single-threaded allocation gets
//!   dense sequential IDs, which preserves the paper's "active HTE density
//!   is quite high" behaviour, and an ID one thread hands back is the next
//!   thread's to reuse.
//! * **Batch reservation.**  [`HandleTable::reserve_ids`] /
//!   [`HandleTable::restock_ids`] let callers (the runtime's per-thread
//!   magazines) move IDs in and out of the pool in batches, so the common
//!   `halloc`/`hfree` path takes no lock at all.
//! * **No stored live count.**  No data path reads one, so `publish` and
//!   `release_reserved` write only the entry, and
//!   [`HandleTable::live_entries`] counts occupied entry words instead.
//! * **Lock-free growth.**  Entry storage is a pyramid of
//!   `OnceLock`-published segments (slab → segment → `AtomicHte`), so
//!   readers never observe a reallocation; committed segments are immovable
//!   once published.  This is the safe-Rust analogue of the real system
//!   `mmap`ing the whole table and relying on demand paging.
//!
//! # Memory ordering
//!
//! * An entry becomes visible by a `Release` store of its packed word
//!   ([`HandleTable::publish`]); the size is written *before* that store, so
//!   any reader that observes `Live` with an `Acquire` load also observes the
//!   size.
//! * The translation fast path loads the word with `Relaxed`.  That is sound
//!   because a handle value can only reach another thread through a
//!   synchronizing operation (channel send, mutex, join) that establishes
//!   happens-before with the `publish`; translation of a handle a thread
//!   legitimately holds therefore never reads an out-of-thin-air word.
//!   During a stop-the-world pause, movers update the word with a single
//!   atomic store, so a straggler's `Relaxed` load observes either the old or
//!   the new address — never a torn mix.
//! * Claiming an entry ([`HandleTable::release_reserved`]) is an `AcqRel`
//!   CAS loop, which is what makes concurrent double-free detection exact:
//!   exactly one `hfree` wins, every other racer observes `Free`.
//!
//! Entry allocation follows the paper: a bump cursor starting at index zero,
//! with freed entries pushed on a free list that is consulted first (LIFO
//! reuse).  Each entry costs 16 bytes of metadata, in the same ballpark as
//! the "about eight bytes of overhead per object" figure.
//!
//! # Failure model
//!
//! The table is the last line of defence against application memory bugs, so
//! its failure paths are typed, not panicking:
//!
//! ## Poison state machine
//!
//! Freeing an entry does not return it to `Free` directly; it moves through a
//! **`Poisoned`** quarantine state first:
//!
//! ```text
//!            publish                    release_reserved
//!   Free ──────────────▶ Live ◀──────▶ Invalid ─────┐
//!    ▲                     │   set_state/recover    │
//!    │ (reserve: bump or   │ release_reserved       │
//!    │  free-list pop —    ▼                        ▼
//!    │  state unchanged) Poisoned ◀─────────────────┘
//!    └─────────────────────┘ publish (ID reuse un-poisons)
//! ```
//!
//! * `release_reserved` CASes `Live`/`Invalid` → `Poisoned` (backing wiped to
//!   NULL).  Exactly one of two racing frees wins the CAS; the loser observes
//!   `Poisoned` and gets a [`FreeFault::DoubleFree`] verdict, or
//!   [`FreeFault::Dangling`] when the entry was never occupied at all.
//! * A poisoned entry stays poisoned while its ID sits in a magazine or the
//!   free list, so a **use-after-free** translate attempt in that window is
//!   detected: [`HandleTable::load`] reports the `Poisoned` state (the runtime
//!   maps it to a typed error + telemetry counter) and
//!   [`HandleTable::translate`] / [`HandleTable::get`] return `None`.
//! * Re-publishing the ID (LIFO reuse) transitions `Poisoned` → `Live`, which
//!   closes the detection window — the classic ABA limit of any
//!   quarantine-by-state scheme; the LIFO free lists keep the window short
//!   only under allocation pressure, long when the heap is quiet.
//! * All other mutators (`set_backing`, `set_state`, `update`,
//!   `fault_recover`) treat `Poisoned` exactly like `Free`: the entry is not
//!   occupied, so they refuse.
//!
//! ## Barrier abort protocol
//!
//! A stop-the-world pause takes the table lock only after the cooperative
//! barrier reports all threads stopped.  When a straggler never reaches a
//! safepoint before the watchdog deadline, the initiator *aborts* before
//! taking it: threads are resumed, a `barrier_aborts` counter and trace event
//! fire, and the pause is retried with exponential backoff.  No entry word is
//! mutated before the barrier commits, so an aborted pause is invisible to
//! the application.
//!
//! ## Failpoint naming
//!
//! Fault-injection sites (crate `alaska-faultline`) are dot-separated
//! `component.operation[.failure]` names: `halloc.reserve.oom`,
//! `halloc.backing.oom`, `halloc.publish`, `magazine.refill`,
//! `hrealloc.repoint`, `barrier.entry`, `defrag.move`, `defrag.commit`,
//! `subheap.rotate`.  Unarmed sites cost one relaxed load; the chaos suite
//! (`tests/chaos.rs`) arms them and asserts
//! [`HandleTable::verify_invariants`] after every injected fault.

use crate::handle::{Handle, HandleId, MAX_ID};
use alaska_heap::vmem::VirtAddr;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Entries per segment (the unit of lazy storage commitment).
const SEG_BITS: u32 = 12;
const SEG_LEN: u32 = 1 << SEG_BITS;
/// Segments per slab.
const SLAB_SEGS_BITS: u32 = 9;
const SLAB_SEGS: u32 = 1 << SLAB_SEGS_BITS;
/// Entries per slab.
const SLAB_SPAN_BITS: u32 = SEG_BITS + SLAB_SEGS_BITS;
const SLAB_SPAN: u32 = 1 << SLAB_SPAN_BITS;

/// Bit layout of the packed HTE word: `[state:2][addr:48]`.
const ADDR_BITS: u32 = 48;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
const STATE_SHIFT: u32 = ADDR_BITS;

const STATE_FREE: u64 = 0;
const STATE_LIVE: u64 = 1;
const STATE_INVALID: u64 = 2;
const STATE_POISONED: u64 = 3;

/// State of a handle-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HteState {
    /// The entry is unused and available for allocation.
    Free,
    /// The entry maps a live object to its backing memory.
    Live,
    /// The entry's object has been invalidated by a service (e.g. speculatively
    /// moved or swapped out).  Translation must take the handle-fault path
    /// (§7 "handle faults").
    Invalid,
    /// The entry's object has been freed and the ID has not been reused yet.
    /// Translate attempts in this window are use-after-free; a second free is
    /// a double free.  See the poison state machine in the
    /// [module documentation](self).
    Poisoned,
}

/// The table's verdict on a failed free — see the poison state machine in the
/// [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeFault {
    /// The entry was poisoned: this handle was already freed.
    DoubleFree,
    /// The entry was never occupied (free or out of range): a wild value.
    Dangling,
}

/// A decoded handle-table entry (a plain-data copy of the atomic fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hte {
    /// Current address of the backing memory (undefined when `Free`).
    pub backing: VirtAddr,
    /// Object size in bytes as requested at allocation time.
    pub size: u32,
    /// Entry state.
    pub state: HteState,
}

impl Default for Hte {
    fn default() -> Self {
        Hte { backing: VirtAddr::NULL, size: 0, state: HteState::Free }
    }
}

#[inline]
fn pack(addr: VirtAddr, state: u64) -> u64 {
    debug_assert!(addr.0 <= ADDR_MASK, "backing address exceeds 48 bits");
    (state << STATE_SHIFT) | addr.0
}

#[inline]
fn word_state(word: u64) -> u64 {
    word >> STATE_SHIFT
}

#[inline]
fn word_addr(word: u64) -> VirtAddr {
    VirtAddr(word & ADDR_MASK)
}

#[inline]
fn decode_state(raw: u64) -> HteState {
    match raw {
        STATE_FREE => HteState::Free,
        STATE_LIVE => HteState::Live,
        STATE_INVALID => HteState::Invalid,
        _ => HteState::Poisoned,
    }
}

#[inline]
fn encode_state(state: HteState) -> u64 {
    match state {
        HteState::Free => STATE_FREE,
        HteState::Live => STATE_LIVE,
        HteState::Invalid => STATE_INVALID,
        HteState::Poisoned => STATE_POISONED,
    }
}

/// Whether a packed word maps a live object (`Live` or `Invalid`).  `Free`
/// and `Poisoned` entries are unoccupied: mutators refuse them and lookups
/// treat them as dangling.
#[inline]
fn word_occupied(word: u64) -> bool {
    matches!(word_state(word), STATE_LIVE | STATE_INVALID)
}

/// One table entry: the packed `(addr, state)` word plus the object size.
#[derive(Debug, Default)]
struct AtomicHte {
    word: AtomicU64,
    size: AtomicU32,
}

/// A lazily committed run of [`SLAB_SEGS`] segments.
#[derive(Debug)]
struct Slab {
    segs: Box<[OnceLock<Box<[AtomicHte]>>]>,
    /// Entries this slab covers (the last slab may be partial).
    span: u32,
}

impl Slab {
    fn new(span: u32) -> Self {
        let nsegs = span.div_ceil(SEG_LEN) as usize;
        Slab { segs: (0..nsegs).map(|_| OnceLock::new()).collect(), span }
    }
}

/// The table's lock-protected state: the LIFO free list and the bump cursor.
/// On cache lines of its own, so a refill or flush does not evict the line
/// every translation reads.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct IdPool {
    free: Vec<u32>,
    bump: u32,
}

/// The handle table.  See the [module documentation](self) for the
/// concurrency design; every method takes `&self`.
pub struct HandleTable {
    slabs: Box<[OnceLock<Slab>]>,
    ids: Mutex<IdPool>,
    /// Mirror of `ids.bump`, stored under the lock: the entries ever touched,
    /// readable without the lock (for heap scans).
    touched: AtomicU32,
    /// Maximum number of entries this table may hand out.
    capacity: u32,
    /// Times an acquisition of the table lock found it held and had to wait.
    contention: AtomicU64,
}

impl std::fmt::Debug for HandleTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleTable")
            .field("capacity", &self.capacity)
            .field("live", &self.live_entries())
            .field("touched", &self.touched_entries())
            .finish()
    }
}

impl Default for HandleTable {
    fn default() -> Self {
        Self::new()
    }
}

impl HandleTable {
    /// Create a table with the architectural capacity of 2^31 entries.
    ///
    /// Storage commits on demand, segment by segment (the real system `mmap`s
    /// the whole table virtually and relies on demand paging; publishing
    /// fixed-size segments through `OnceLock` is the analogous lazy
    /// commitment, and it never relocates entries under concurrent readers).
    pub fn new() -> Self {
        Self::with_capacity(MAX_ID)
    }

    /// Create a table that refuses to grow beyond `capacity` entries — useful
    /// for exercising the table-full path in tests.
    pub fn with_capacity(capacity: u32) -> Self {
        let capacity = capacity.min(MAX_ID);
        HandleTable {
            slabs: (0..capacity.div_ceil(SLAB_SPAN)).map(|_| OnceLock::new()).collect(),
            ids: Mutex::default(),
            touched: AtomicU32::new(0),
            capacity,
            contention: AtomicU64::new(0),
        }
    }

    /// Number of live (or invalid) entries, counted from the entry words.
    /// Exact when no `publish`/`release` runs meanwhile; otherwise each entry
    /// is counted as its word stood when the scan read it.
    pub fn live_entries(&self) -> u64 {
        self.occupied_ids().count() as u64
    }

    /// Number of entries ever touched (the bump high-water mark).
    pub fn touched_entries(&self) -> u64 {
        u64::from(self.touched.load(Ordering::Acquire))
    }

    /// Approximate metadata overhead in bytes: touched entries times the
    /// 16-byte packed entry.  Like the demand-paged table of the real system,
    /// never-touched slack in a partially used segment is not charged.
    pub fn metadata_bytes(&self) -> u64 {
        self.touched_entries() * std::mem::size_of::<AtomicHte>() as u64
    }

    /// Times an acquisition of the table lock found it held by another
    /// thread.
    pub fn contention_events(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Storage pyramid
    // ------------------------------------------------------------------

    /// Lock-free lookup of the entry for `id`; `None` when the ID is out of
    /// range or its segment was never committed.
    #[inline]
    fn entry(&self, id: u32) -> Option<&AtomicHte> {
        let slab = self.slabs.get((id >> SLAB_SPAN_BITS) as usize)?.get()?;
        let seg = slab.segs[((id >> SEG_BITS) & (SLAB_SEGS - 1)) as usize].get()?;
        seg.get((id & (SEG_LEN - 1)) as usize)
    }

    /// Commit storage for `id` (called with the table lock held, but correct
    /// without it thanks to `OnceLock`).
    fn ensure_storage(&self, id: u32) {
        let slab_idx = (id >> SLAB_SPAN_BITS) as usize;
        let span = (self.capacity - (slab_idx as u32) * SLAB_SPAN).min(SLAB_SPAN);
        let slab = self.slabs[slab_idx].get_or_init(|| Slab::new(span));
        let seg_idx = ((id >> SEG_BITS) & (SLAB_SEGS - 1)) as usize;
        let seg_len = (slab.span - (seg_idx as u32) * SEG_LEN).min(SEG_LEN);
        slab.segs[seg_idx].get_or_init(|| (0..seg_len).map(|_| AtomicHte::default()).collect());
    }

    // ------------------------------------------------------------------
    // ID reservation (free list + bump cursor)
    // ------------------------------------------------------------------

    /// Reserve up to `n` free IDs, free list first, then bump, appending them
    /// to `out`.  Returns how many were reserved.  Reserved IDs are *not*
    /// live: they are owned by the caller (a per-thread magazine) until
    /// passed to [`HandleTable::publish`] or returned via
    /// [`HandleTable::restock_ids`].
    pub fn reserve_ids(&self, n: usize, out: &mut Vec<u32>) -> usize {
        let mut ids = self.lock_ids();
        let mut got = 0;
        while got < n {
            if let Some(id) = ids.free.pop() {
                out.push(id);
            } else if ids.bump < self.capacity {
                let id = ids.bump;
                self.ensure_storage(id);
                ids.bump += 1;
                self.touched.store(ids.bump, Ordering::Release);
                out.push(id);
            } else {
                break;
            }
            got += 1;
        }
        got
    }

    /// Return reserved (or released) IDs to the free list.
    pub fn restock_ids(&self, ids: &[u32]) {
        self.lock_ids().free.extend_from_slice(ids);
    }

    /// Make a reserved ID live, mapping it to `backing` with `size` bytes.
    /// The entry becomes visible to concurrent translations atomically, with
    /// its backing already set — there is no window where it is live with a
    /// NULL backing.  Reuse of a freed ID transitions `Poisoned` → `Live`
    /// here, closing that ID's use-after-free detection window.
    pub fn publish(&self, id: HandleId, backing: VirtAddr, size: u32) {
        let e = self.entry(id.0).expect("publish of an unreserved id");
        debug_assert!(
            matches!(word_state(e.word.load(Ordering::Relaxed)), STATE_FREE | STATE_POISONED),
            "publish of an occupied HTE"
        );
        e.size.store(size, Ordering::Relaxed);
        e.word.store(pack(backing, STATE_LIVE), Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Allocation / release (the direct, non-magazine API)
    // ------------------------------------------------------------------

    /// Allocate an entry for an object of `size` bytes currently living at
    /// `backing`.  Free-list entries are reused before the bump cursor
    /// advances.
    ///
    /// Returns `None` when the table is full.
    pub fn allocate(&self, backing: VirtAddr, size: u32) -> Option<HandleId> {
        let mut one = Vec::with_capacity(1);
        if self.reserve_ids(1, &mut one) == 0 {
            return None;
        }
        let id = HandleId(one[0]);
        self.publish(id, backing, size);
        Some(id)
    }

    /// Atomically claim a live (or invalid) entry into the `Poisoned`
    /// quarantine state, returning its last contents.  The ID stays with the
    /// caller (it is *not* pushed on a free list) — the runtime parks it in a
    /// per-thread magazine.  Exactly one of two racing frees wins the CAS;
    /// the loser gets a typed [`FreeFault`] verdict: `DoubleFree` when the
    /// entry is poisoned (freed before, not yet reused), `Dangling` when it
    /// was never occupied.
    pub fn release_reserved(&self, id: HandleId) -> Result<Hte, FreeFault> {
        let e = self.entry(id.0).ok_or(FreeFault::Dangling)?;
        let old = e
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                word_occupied(w).then_some(pack(VirtAddr::NULL, STATE_POISONED))
            })
            .map_err(|w| {
                if word_state(w) == STATE_POISONED {
                    FreeFault::DoubleFree
                } else {
                    FreeFault::Dangling
                }
            })?;
        let size = e.size.load(Ordering::Relaxed);
        Ok(Hte { backing: word_addr(old), size, state: decode_state(word_state(old)) })
    }

    /// Release the entry for `id`, putting it on the free list for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not live (double release through the table).
    pub fn release(&self, id: HandleId) -> Hte {
        let old = self.release_reserved(id).unwrap_or_else(|_| panic!("double release of {id}"));
        self.restock_ids(&[id.0]);
        old
    }

    // ------------------------------------------------------------------
    // Lookup and mutation of individual entries
    // ------------------------------------------------------------------

    /// Look up a live (or invalid) entry, returning a plain-data copy.
    /// `Free` and `Poisoned` entries are dangling and return `None`.
    pub fn get(&self, id: HandleId) -> Option<Hte> {
        let e = self.entry(id.0)?;
        let word = e.word.load(Ordering::Acquire);
        if !word_occupied(word) {
            return None;
        }
        Some(Hte {
            backing: word_addr(word),
            size: e.size.load(Ordering::Relaxed),
            state: decode_state(word_state(word)),
        })
    }

    /// Current backing address for `id`, if live.
    pub fn backing(&self, id: HandleId) -> Option<VirtAddr> {
        self.get(id).map(|e| e.backing)
    }

    /// The translation fast path: one `Relaxed` load of the packed word.
    /// Returns the backing address and state, or `None` for a free (dangling)
    /// entry.  `Poisoned` entries *are* returned (with a NULL backing) so the
    /// runtime can report a typed use-after-free instead of a generic
    /// dangling-handle error.  See the module docs for why `Relaxed` is sound
    /// here.
    #[inline]
    pub fn load(&self, id: HandleId) -> Option<(VirtAddr, HteState)> {
        let e = self.entry(id.0)?;
        let word = e.word.load(Ordering::Relaxed);
        let state = word_state(word);
        if state == STATE_FREE {
            return None;
        }
        Some((word_addr(word), decode_state(state)))
    }

    /// Update the backing address of `id` — the `O(1)` update that makes
    /// object movement cheap.  A single atomic store, so concurrent
    /// translations see either the old or the new address.
    ///
    /// # Panics
    ///
    /// Panics if the entry is free.
    pub fn set_backing(&self, id: HandleId, backing: VirtAddr) {
        let e = self.entry(id.0).unwrap_or_else(|| panic!("set_backing on free entry {id}"));
        e.word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                word_occupied(w).then_some(pack(backing, word_state(w)))
            })
            .unwrap_or_else(|_| panic!("set_backing on free entry {id}"));
    }

    /// Mark the entry invalid (handle-fault path) or live again.
    ///
    /// # Panics
    ///
    /// Panics if the entry is free.
    pub fn set_state(&self, id: HandleId, state: HteState) {
        assert!(
            matches!(state, HteState::Live | HteState::Invalid),
            "use release() to free entries"
        );
        assert!(self.try_set_state(id, state), "set_state on free entry {id}");
    }

    /// Like [`HandleTable::set_state`] but returns `false` instead of
    /// panicking when the entry is free.
    pub fn try_set_state(&self, id: HandleId, state: HteState) -> bool {
        debug_assert!(matches!(state, HteState::Live | HteState::Invalid));
        let Some(e) = self.entry(id.0) else { return false };
        e.word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                word_occupied(w).then_some(pack(word_addr(w), encode_state(state)))
            })
            .is_ok()
    }

    /// CAS the entry from `Invalid` back to `Live` (servicing a handle
    /// fault).  Returns `true` if this call performed the transition, `false`
    /// if another thread already serviced it (or the entry is free/live).
    pub fn fault_recover(&self, id: HandleId) -> bool {
        let Some(e) = self.entry(id.0) else { return false };
        e.word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (word_state(w) == STATE_INVALID).then_some(pack(word_addr(w), STATE_LIVE))
            })
            .is_ok()
    }

    /// Repoint a live entry at a new backing and size in one step, leaving it
    /// `Live`.  This is `hrealloc`'s table update: the ID never round-trips
    /// through a free list, so the handle value stays valid throughout.
    ///
    /// # Panics
    ///
    /// Panics if the entry is free.
    pub fn update(&self, id: HandleId, backing: VirtAddr, size: u32) {
        let e = self.entry(id.0).unwrap_or_else(|| panic!("update of free entry {id}"));
        e.size.store(size, Ordering::Relaxed);
        e.word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                word_occupied(w).then_some(pack(backing, STATE_LIVE))
            })
            .unwrap_or_else(|_| panic!("update of free entry {id}"));
    }

    /// Translate a decoded handle to the address of the referenced byte.
    ///
    /// Returns `None` if the entry is free or poisoned (dangling handle) —
    /// the caller decides whether that is a panic or an error.  Invalid
    /// entries still translate (their backing address is the stale location);
    /// callers that enable handle faults must check the state first (via
    /// [`HandleTable::load`]).
    pub fn translate(&self, handle: Handle) -> Option<VirtAddr> {
        self.load(handle.id())
            .filter(|(_, state)| *state != HteState::Poisoned)
            .map(|(addr, _)| addr.add(handle.offset() as u64))
    }

    // ------------------------------------------------------------------
    // Scans and whole-table operations
    // ------------------------------------------------------------------

    /// IDs below the bump mirror whose entry is live or invalid.
    fn occupied_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.touched.load(Ordering::Acquire)).filter(|&id| {
            self.entry(id).is_some_and(|e| word_occupied(e.word.load(Ordering::Relaxed)))
        })
    }

    /// All live entry IDs (heap scan), in ID order.
    pub fn live_ids(&self) -> Vec<HandleId> {
        self.occupied_ids().map(HandleId).collect()
    }

    /// Density of live entries among touched entries, in `[0, 1]` — the
    /// paper's observation that "active HTE density is quite high".
    pub fn density(&self) -> f64 {
        let touched = self.touched_entries();
        if touched == 0 {
            1.0
        } else {
            self.live_entries() as f64 / touched as f64
        }
    }

    /// Take the table lock, counting the acquisitions that had to wait.
    /// While the guard lives no ID can be reserved or restocked; the
    /// stop-the-world barrier holds it across a pass.  Entry
    /// *words* stay atomically mutable — that is how movers update backings
    /// while stragglers translate.
    ///
    /// The guard does not keep mutators from allocating or freeing: a
    /// magazine `halloc`/`hfree` takes no table lock.  What keeps them out
    /// of a pass is that registered threads are parked, that `halloc`/`hfree`
    /// poll a safepoint before they touch anything (so one that starts
    /// during a pause parks until it ends), and, for a thread in external
    /// code that passed its poll before the pause began, that Anchorage's
    /// pass holds every arena lock.
    pub(crate) fn lock_ids(&self) -> MutexGuard<'_, IdPool> {
        if let Some(g) = self.ids.try_lock() {
            return g;
        }
        self.contention.fetch_add(1, Ordering::Relaxed);
        self.ids.lock()
    }

    /// Walk the whole table and check its structural invariants, returning a
    /// description of the first violation found.  The chaos suite runs this
    /// after every injected fault.
    ///
    /// Checked with the table lock held, so every check is valid under any
    /// concurrency:
    ///
    /// * the bump cursor never exceeds the capacity, and its lock-free
    ///   mirror equals it exactly;
    /// * every free-list ID is below the bump cursor, not duplicated, and
    ///   its entry is `Free` or `Poisoned` — never `Live`/`Invalid` (that
    ///   would be an entry simultaneously allocatable and occupied);
    /// * bumped entries have committed storage.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let ids = self.lock_ids();
        if ids.bump > self.capacity {
            return Err(format!("bump {} exceeds capacity {}", ids.bump, self.capacity));
        }
        let touched = self.touched.load(Ordering::Acquire);
        if touched != ids.bump {
            return Err(format!("bump mirror {touched} != bump {}", ids.bump));
        }
        let mut seen = std::collections::HashSet::with_capacity(ids.free.len());
        for &id in &ids.free {
            if id >= ids.bump {
                return Err(format!("free-list id {id} beyond bump cursor"));
            }
            if !seen.insert(id) {
                return Err(format!("free-list id {id} duplicated"));
            }
            let Some(e) = self.entry(id) else {
                return Err(format!("free-list id {id} has no storage"));
            };
            let state = word_state(e.word.load(Ordering::Acquire));
            if !matches!(state, STATE_FREE | STATE_POISONED) {
                return Err(format!("free-list id {id} is occupied (state {state})"));
            }
        }
        if let Some(id) = (0..ids.bump).find(|&id| self.entry(id).is_none()) {
            return Err(format!("bumped id {id} has no committed storage"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> HandleTable {
        HandleTable::with_capacity(1 << 20)
    }

    #[test]
    fn allocation_is_bump_then_freelist() {
        let t = table();
        let a = t.allocate(VirtAddr(0x1000), 16).unwrap();
        let b = t.allocate(VirtAddr(0x2000), 16).unwrap();
        assert_eq!(a, HandleId(0));
        assert_eq!(b, HandleId(1));
        t.release(a);
        let c = t.allocate(VirtAddr(0x3000), 32).unwrap();
        assert_eq!(c, HandleId(0), "freed entry is reused before bumping");
        assert_eq!(t.touched_entries(), 2);
    }

    #[test]
    fn translate_adds_offset() {
        let t = table();
        let id = t.allocate(VirtAddr(0x4000), 128).unwrap();
        let h = Handle::with_offset(id, 40);
        assert_eq!(t.translate(h), Some(VirtAddr(0x4028)));
    }

    #[test]
    fn translate_of_freed_handle_is_none() {
        let t = table();
        let id = t.allocate(VirtAddr(0x4000), 8).unwrap();
        t.release(id);
        assert_eq!(t.translate(Handle::new(id)), None);
        assert!(t.get(id).is_none());
    }

    #[test]
    fn set_backing_moves_object() {
        let t = table();
        let id = t.allocate(VirtAddr(0x1000), 64).unwrap();
        t.set_backing(id, VirtAddr(0x9000));
        assert_eq!(t.backing(id), Some(VirtAddr(0x9000)));
        assert_eq!(t.translate(Handle::with_offset(id, 4)), Some(VirtAddr(0x9004)));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let t = table();
        let id = t.allocate(VirtAddr(0x1000), 8).unwrap();
        t.release(id);
        t.release(id);
    }

    #[test]
    fn capacity_limit_is_enforced() {
        let t = HandleTable::with_capacity(2);
        assert!(t.allocate(VirtAddr(0x1), 1).is_some());
        assert!(t.allocate(VirtAddr(0x2), 1).is_some());
        assert!(t.allocate(VirtAddr(0x3), 1).is_none(), "table full");
        // Freeing makes room again.
        t.release(HandleId(0));
        assert!(t.allocate(VirtAddr(0x4), 1).is_some());
    }

    #[test]
    fn invalid_state_roundtrip() {
        let t = table();
        let id = t.allocate(VirtAddr(0x1000), 8).unwrap();
        t.set_state(id, HteState::Invalid);
        assert_eq!(t.get(id).unwrap().state, HteState::Invalid);
        t.set_state(id, HteState::Live);
        assert_eq!(t.get(id).unwrap().state, HteState::Live);
    }

    #[test]
    fn live_ids_and_density() {
        let t = table();
        let ids: Vec<_> = (0..10).map(|i| t.allocate(VirtAddr(0x1000 + i), 8).unwrap()).collect();
        for id in &ids[..5] {
            t.release(*id);
        }
        assert_eq!(t.live_ids().len(), 5);
        assert!((t.density() - 0.5).abs() < 1e-9);
        assert_eq!(t.live_entries(), 5);
    }

    #[test]
    fn metadata_overhead_is_small_per_object() {
        let t = table();
        for i in 0..1000u64 {
            t.allocate(VirtAddr(0x1000 + i * 16), 16).unwrap();
        }
        let per_obj = t.metadata_bytes() as f64 / 1000.0;
        assert!(per_obj <= 24.0, "per-object metadata should be tens of bytes, got {per_obj}");
    }

    #[test]
    fn fault_recover_is_a_single_transition() {
        let t = table();
        let id = t.allocate(VirtAddr(0x1000), 8).unwrap();
        assert!(!t.fault_recover(id), "live entries need no recovery");
        t.set_state(id, HteState::Invalid);
        assert!(t.fault_recover(id));
        assert!(!t.fault_recover(id), "second recovery loses the CAS");
        assert_eq!(t.get(id).unwrap().state, HteState::Live);
    }

    #[test]
    fn release_reserved_detects_double_free_without_panicking() {
        let t = table();
        let id = t.allocate(VirtAddr(0x2000), 8).unwrap();
        assert!(t.release_reserved(id).is_ok());
        assert_eq!(
            t.release_reserved(id),
            Err(FreeFault::DoubleFree),
            "loser of the race gets the double-free verdict"
        );
    }

    #[test]
    fn release_of_never_allocated_id_is_dangling() {
        let t = table();
        t.allocate(VirtAddr(0x1000), 8).unwrap();
        assert_eq!(t.release_reserved(HandleId(MAX_ID - 1)), Err(FreeFault::Dangling));
        // Bumped but reserved-not-published entries are Free, also dangling.
        let mut mag = Vec::new();
        t.reserve_ids(2, &mut mag);
        assert_eq!(t.release_reserved(HandleId(mag[1])), Err(FreeFault::Dangling));
    }

    #[test]
    fn freed_entries_are_poisoned_until_reuse() {
        let t = table();
        let id = t.allocate(VirtAddr(0x3000), 8).unwrap();
        t.release(id);
        // Poisoned: load reports the state, get/translate treat it as dangling.
        assert_eq!(t.load(id), Some((VirtAddr::NULL, HteState::Poisoned)));
        assert!(t.get(id).is_none());
        assert_eq!(t.translate(Handle::new(id)), None);
        assert_eq!(t.live_ids().len(), 0);
        // Reuse un-poisons: the LIFO free list hands the same ID back.
        let again = t.allocate(VirtAddr(0x4000), 8).unwrap();
        assert_eq!(again, id);
        assert_eq!(t.get(id).unwrap().state, HteState::Live);
    }

    #[test]
    fn poisoned_entries_refuse_mutation() {
        let t = table();
        let id = t.allocate(VirtAddr(0x5000), 8).unwrap();
        t.release(id);
        assert!(!t.try_set_state(id, HteState::Invalid), "poisoned is not occupied");
        assert!(!t.fault_recover(id));
    }

    #[test]
    fn invalid_entries_poison_on_release_too() {
        let t = table();
        let id = t.allocate(VirtAddr(0x6000), 8).unwrap();
        t.set_state(id, HteState::Invalid);
        let old = t.release_reserved(id).unwrap();
        assert_eq!(old.state, HteState::Invalid);
        assert_eq!(t.load(id).unwrap().1, HteState::Poisoned);
    }

    #[test]
    fn verify_invariants_holds_through_churn() {
        let t = table();
        t.verify_invariants().unwrap();
        let ids: Vec<_> = (0..64).map(|i| t.allocate(VirtAddr(0x1000 + i), 8).unwrap()).collect();
        t.verify_invariants().unwrap();
        for id in &ids[..32] {
            t.release(*id);
        }
        t.verify_invariants().unwrap();
        let mut mag = Vec::new();
        t.reserve_ids(8, &mut mag);
        t.verify_invariants().unwrap();
        t.restock_ids(&mag);
        t.verify_invariants().unwrap();
    }

    #[test]
    fn reserved_ids_publish_and_restock() {
        let t = table();
        let mut mag = Vec::new();
        assert_eq!(t.reserve_ids(4, &mut mag), 4);
        assert_eq!(t.live_entries(), 0, "reserved is not live");
        let id = HandleId(mag.pop().unwrap());
        t.publish(id, VirtAddr(0x7000), 32);
        assert_eq!(t.backing(id), Some(VirtAddr(0x7000)));
        assert_eq!(t.get(id).unwrap().size, 32);
        t.restock_ids(&mag);
        // Restocked IDs come back out of the free list before new bumps.
        let mut again = Vec::new();
        t.reserve_ids(3, &mut again);
        let mut sorted = again.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(t.touched_entries(), 4, "no new entries were bumped");
    }

    #[test]
    fn update_repoints_without_freeing() {
        let t = table();
        let id = t.allocate(VirtAddr(0x1000), 8).unwrap();
        t.update(id, VirtAddr(0x8000), 4096);
        let e = t.get(id).unwrap();
        assert_eq!(e.backing, VirtAddr(0x8000));
        assert_eq!(e.size, 4096);
        assert_eq!(e.state, HteState::Live);
        assert_eq!(t.live_entries(), 1);
    }

    #[test]
    fn out_of_range_ids_are_dangling_not_panicking() {
        let t = HandleTable::with_capacity(64);
        assert!(t.get(HandleId(MAX_ID)).is_none());
        assert!(t.load(HandleId(1 << 20)).is_none());
        assert!(!t.try_set_state(HandleId(1 << 20), HteState::Invalid));
    }

    #[test]
    fn concurrent_allocate_release_hands_out_unique_ids() {
        use std::sync::Arc;
        let t = Arc::new(HandleTable::with_capacity(1 << 16));
        let mut workers = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            workers.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..2000u64 {
                    let id = t.allocate(VirtAddr(0x1000 + i), 8).unwrap();
                    mine.push(id);
                    if mine.len() > 64 {
                        t.release(mine.remove(0));
                    }
                }
                for id in mine {
                    t.release(id);
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(t.live_entries(), 0);
        assert!(t.live_ids().is_empty());
    }

    #[test]
    fn live_entries_is_exact_when_entries_are_released_by_another_thread() {
        use std::sync::mpsc;
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 3_000;
        const KEPT: u64 = 17;
        let t = HandleTable::with_capacity(1 << 16);
        // Worker `w` publishes entries and hands every ID to worker `w + 1`,
        // which releases all but `KEPT` of them: each entry is made live by
        // one thread and released by another, concurrently.
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..THREADS).map(|_| mpsc::channel::<HandleId>()).unzip();
        let peak = std::thread::scope(|scope| {
            for (w, inbox) in receivers.into_iter().enumerate() {
                let outbox = senders[(w + 1) % THREADS].clone();
                let t = &t;
                scope.spawn(move || {
                    let mut to_release = PER_THREAD - KEPT;
                    for i in 0..PER_THREAD {
                        let id = t.allocate(VirtAddr(0x1000 + i), 8).unwrap();
                        outbox.send(id).unwrap();
                        if to_release > 0 {
                            if let Ok(theirs) = inbox.try_recv() {
                                t.release(theirs);
                                to_release -= 1;
                            }
                        }
                    }
                    drop(outbox);
                    // Drain until the sender hangs up, so no `send` ever
                    // meets a dropped receiver; release only the quota.
                    for theirs in inbox.iter() {
                        if to_release > 0 {
                            t.release(theirs);
                            to_release -= 1;
                        }
                    }
                });
            }
            drop(senders);
            // Meanwhile the count never exceeds what was published: it never
            // wraps below zero.
            (0..2_000).map(|_| t.live_entries()).max().unwrap()
        });
        assert!(peak <= THREADS as u64 * PER_THREAD, "a count ran negative: {peak}");
        assert_eq!(t.live_entries(), THREADS as u64 * KEPT);
        assert_eq!(t.live_ids().len() as u64, THREADS as u64 * KEPT);
        t.verify_invariants().unwrap();
    }

    proptest! {
        /// Interleaved allocate/release sequences never hand out the same live
        /// ID twice and always translate to the address they were given.
        #[test]
        fn prop_alloc_release_consistency(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let t = HandleTable::with_capacity(4096);
            let mut live: Vec<(HandleId, u64)> = Vec::new();
            let mut next_addr = 0x1_0000u64;
            for op in ops {
                if op < 2 || live.is_empty() {
                    next_addr += 64;
                    if let Some(id) = t.allocate(VirtAddr(next_addr), 64) {
                        prop_assert!(!live.iter().any(|(l, _)| *l == id), "duplicate live id");
                        live.push((id, next_addr));
                    }
                } else {
                    let (id, _) = live.swap_remove(0);
                    t.release(id);
                }
                for (id, addr) in &live {
                    prop_assert_eq!(t.backing(*id), Some(VirtAddr(*addr)));
                }
            }
            prop_assert_eq!(t.live_entries(), live.len() as u64);
        }
    }
}
