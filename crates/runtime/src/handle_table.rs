//! The sharded, lock-free-read handle table (paper §4.2.1).
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
//! * **ID-striped shards.**  IDs are range-striped over [`SHARD_COUNT`]
//!   shards (`shard = id >> stride_bits`), each with its own free list, bump
//!   cursor and mutex.  An allocation or release touches exactly one shard.
//!   Range striping (rather than `id % N`) keeps single-threaded allocation
//!   handing out dense sequential IDs, which preserves the paper's "active
//!   HTE density is quite high" behaviour and the historical test
//!   expectations.
//! * **Batch reservation.**  [`HandleTable::reserve_ids`] /
//!   [`HandleTable::restock_ids`] let callers (the runtime's per-thread
//!   magazines) move IDs in and out of a shard in batches, so the common
//!   `halloc`/`hfree` path takes no shard lock at all.
//! * **Per-shard live counts.**  Each shard counts its live entries on cache
//!   lines of its own ([`HandleTable::live_entries`] sums them), so threads
//!   whose magazines draw from different shards publish and release without
//!   writing a common word.
//! * **Lock-free growth.**  Entry storage is a per-shard pyramid of
//!   `OnceLock`-published segments (shard → slab → segment → `AtomicHte`),
//!   so readers never observe a reallocation; committed segments are
//!   immovable once published.  This is the safe-Rust analogue of the real
//!   system `mmap`ing the whole table and relying on demand paging.
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
//! * A poisoned entry stays poisoned while its ID sits in a magazine or shard
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
//! A stop-the-world pause acquires every shard lock **in index order** after
//! the cooperative barrier reports all threads stopped.  When a straggler
//! never reaches a safepoint before the watchdog deadline, the initiator
//! *aborts*: shard locks are released in reverse order (plain RAII drop of
//! [`AllShardsGuard`]), threads are resumed, a `barrier_aborts` counter and
//! trace event fire, and the pause is retried with exponential backoff.  No
//! entry word is mutated before the barrier commits, so an aborted pause is
//! invisible to the application.
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

/// Default number of ID-striped shards. Power of two; 16 comfortably exceeds
/// the hardware parallelism the figure harnesses sweep (1→16 threads).
/// Full-capacity tables ([`HandleTable::new`]) size their shard count from
/// [`std::thread::available_parallelism`] instead — see
/// [`auto_shard_count`].
pub const SHARD_COUNT: usize = 16;

/// Upper bound for [`auto_shard_count`]: beyond this, shard locks are no
/// longer the bottleneck and the ID space fragments for no benefit.
const MAX_SHARD_COUNT: usize = 256;

/// Shard count derived from the machine: `available_parallelism`, rounded up
/// to a power of two, clamped to `[SHARD_COUNT, 256]`.  Falls back to
/// [`SHARD_COUNT`] when parallelism cannot be queried.
pub fn auto_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(SHARD_COUNT)
        .next_power_of_two()
        .clamp(SHARD_COUNT, MAX_SHARD_COUNT)
}

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
    /// Entries this slab covers (the last slab of a shard may be partial).
    span: u32,
}

impl Slab {
    fn new(span: u32) -> Self {
        let nsegs = span.div_ceil(SEG_LEN) as usize;
        Slab { segs: (0..nsegs).map(|_| OnceLock::new()).collect(), span }
    }
}

/// Shard state that requires the shard lock: the LIFO free list and the bump
/// cursor.
#[derive(Debug, Default)]
struct ShardMut {
    free: Vec<u32>,
    bump: u32,
}

#[derive(Debug)]
struct Shard {
    /// First global ID owned by this shard.
    base: u32,
    slabs: Box<[OnceLock<Slab>]>,
    inner: Mutex<ShardMut>,
    /// Mirror of `inner.bump` readable without the lock (for heap scans).
    bump_hwm: AtomicU32,
    /// Live (or invalid) entries among this shard's IDs.
    live: LiveCount,
}

/// A shard's count of live entries, on cache lines of its own.  Every
/// `publish` and `release_reserved` writes it, and a thread's magazine draws
/// from the thread's home shard: one table-wide counter made every
/// `halloc`/`hfree` of every thread a write to the same line, and a counter
/// beside `slabs` would evict the line every translation reads.  `publish`
/// counts before its `Release` store of the word and `release_reserved` after
/// its `Acquire` claim of it, so whichever thread releases, the count never
/// runs below zero.
#[repr(align(128))]
#[derive(Debug, Default)]
struct LiveCount(AtomicU64);

/// The handle table.  See the [module documentation](self) for the
/// concurrency design; every method takes `&self`.
pub struct HandleTable {
    shards: Box<[Shard]>,
    /// IDs per shard (power of two, identical for every shard).
    stride: u32,
    stride_bits: u32,
    /// Maximum number of entries this table may hand out.
    capacity: u32,
    /// Entries ever touched (bump allocations across all shards).
    touched: AtomicU64,
    /// Times a mutating path found a shard lock held and had to wait.
    contention: AtomicU64,
}

impl std::fmt::Debug for HandleTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleTable")
            .field("shards", &self.shards.len())
            .field("stride", &self.stride)
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

/// Guard returned by [`HandleTable::lock_all`]: while it lives, every shard
/// lock is held (in index order), so no allocation or release can run.
#[derive(Debug)]
pub struct AllShardsGuard<'a> {
    _guards: Vec<MutexGuard<'a, ShardMut>>,
}

impl HandleTable {
    /// Create a table with the architectural capacity of 2^31 entries, with
    /// the shard count sized from the machine's parallelism (see
    /// [`auto_shard_count`]).
    ///
    /// Storage commits on demand, segment by segment (the real system `mmap`s
    /// the whole table virtually and relies on demand paging; publishing
    /// fixed-size segments through `OnceLock` is the analogous lazy
    /// commitment, and it never relocates entries under concurrent readers).
    pub fn new() -> Self {
        Self::with_shards(auto_shard_count(), MAX_ID)
    }

    /// Create a table that refuses to grow beyond `capacity` entries — useful
    /// for exercising the table-full path in tests.  Uses the fixed default
    /// of [`SHARD_COUNT`] shards so ID layout is deterministic across
    /// machines.
    pub fn with_capacity(capacity: u32) -> Self {
        Self::with_shards(SHARD_COUNT, capacity)
    }

    /// Create a table with an explicit shard count (rounded up to a power of
    /// two) and capacity.
    pub fn with_shards(shard_count: usize, capacity: u32) -> Self {
        let shard_count = shard_count.max(1).next_power_of_two();
        let capacity = capacity.min(MAX_ID);
        let stride =
            u32::try_from((u64::from(capacity).div_ceil(shard_count as u64)).next_power_of_two())
                .expect("per-shard stride fits u32")
                .max(1);
        let stride_bits = stride.trailing_zeros();
        let shards = (0..shard_count as u32)
            .map(|s| {
                let nslabs = stride.div_ceil(SLAB_SPAN) as usize;
                Shard {
                    base: s * stride,
                    slabs: (0..nslabs).map(|_| OnceLock::new()).collect(),
                    inner: Mutex::new(ShardMut::default()),
                    bump_hwm: AtomicU32::new(0),
                    live: LiveCount::default(),
                }
            })
            .collect();
        HandleTable {
            shards,
            stride,
            stride_bits,
            capacity,
            touched: AtomicU64::new(0),
            contention: AtomicU64::new(0),
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live entries: the per-shard counts, summed.  Exact when no
    /// `publish`/`release` runs meanwhile; otherwise each shard's term is a
    /// value its count held during the call.
    pub fn live_entries(&self) -> u64 {
        self.shards.iter().map(|s| s.live.0.load(Ordering::Relaxed)).sum()
    }

    /// The count of live entries that covers `id`.
    #[inline]
    fn live_count(&self, id: u32) -> &AtomicU64 {
        &self.shards[(id >> self.stride_bits) as usize].live.0
    }

    /// Number of entries ever touched (the bump high-water mark, summed over
    /// shards).
    pub fn touched_entries(&self) -> u64 {
        self.touched.load(Ordering::Relaxed)
    }

    /// Approximate metadata overhead in bytes: touched entries times the
    /// 16-byte packed entry.  Like the demand-paged table of the real system,
    /// never-touched slack in a partially used segment is not charged.
    pub fn metadata_bytes(&self) -> u64 {
        self.touched_entries() * std::mem::size_of::<AtomicHte>() as u64
    }

    /// Times a mutating path (allocate/release/restock) found a shard lock
    /// held by another thread.
    pub fn contention_events(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Storage pyramid
    // ------------------------------------------------------------------

    /// Lock-free lookup of the entry for a global `id`; `None` when the ID is
    /// out of range or its segment was never committed.
    #[inline]
    fn entry(&self, id: u32) -> Option<&AtomicHte> {
        let s = (id >> self.stride_bits) as usize;
        let shard = self.shards.get(s)?;
        let local = id & (self.stride - 1);
        let slab = shard.slabs.get((local >> SLAB_SPAN_BITS) as usize)?.get()?;
        let seg = slab.segs[((local >> SEG_BITS) & (SLAB_SEGS - 1)) as usize].get()?;
        seg.get((local & (SEG_LEN - 1)) as usize)
    }

    /// Commit storage for local index `local` of shard `s` (called with the
    /// shard lock held, but correct without it thanks to `OnceLock`).
    fn ensure_storage(&self, s: usize, local: u32) {
        let shard = &self.shards[s];
        let slab_idx = (local >> SLAB_SPAN_BITS) as usize;
        let span = (self.stride - (slab_idx as u32) * SLAB_SPAN).min(SLAB_SPAN);
        let slab = shard.slabs[slab_idx].get_or_init(|| Slab::new(span));
        let seg_idx = ((local >> SEG_BITS) & (SLAB_SEGS - 1)) as usize;
        let seg_len = (slab.span - (seg_idx as u32) * SEG_LEN).min(SEG_LEN);
        slab.segs[seg_idx].get_or_init(|| (0..seg_len).map(|_| AtomicHte::default()).collect());
    }

    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardMut> {
        if let Some(g) = shard.inner.try_lock() {
            return g;
        }
        self.contention.fetch_add(1, Ordering::Relaxed);
        shard.inner.lock()
    }

    /// Consume one entry of the global capacity budget; `false` when full.
    fn consume_budget(&self) -> bool {
        self.touched
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                (t < u64::from(self.capacity)).then_some(t + 1)
            })
            .is_ok()
    }

    // ------------------------------------------------------------------
    // ID reservation (shard free lists + bump cursors)
    // ------------------------------------------------------------------

    /// Reserve up to `n` free IDs, preferring shard `hint`, appending them to
    /// `out`.  Returns how many were reserved.  Reserved IDs are *not* live:
    /// they are owned by the caller (a per-thread magazine) until passed to
    /// [`HandleTable::publish`] or returned via [`HandleTable::restock_ids`].
    pub fn reserve_ids(&self, hint: usize, n: usize, out: &mut Vec<u32>) -> usize {
        let mut got = 0;
        for step in 0..self.shards.len() {
            if got >= n {
                break;
            }
            let s = (hint + step) % self.shards.len();
            got += self.reserve_from_shard(s, n - got, out);
        }
        got
    }

    /// Reserve up to `n` IDs from shard `s`: free list first, then bump.
    fn reserve_from_shard(&self, s: usize, n: usize, out: &mut Vec<u32>) -> usize {
        let shard = &self.shards[s];
        let mut inner = self.lock_shard(shard);
        let mut got = 0;
        while got < n {
            if let Some(id) = inner.free.pop() {
                out.push(id);
                got += 1;
                continue;
            }
            if inner.bump >= self.stride || !self.consume_budget() {
                break;
            }
            let local = inner.bump;
            self.ensure_storage(s, local);
            inner.bump += 1;
            shard.bump_hwm.store(inner.bump, Ordering::Release);
            out.push(shard.base + local);
            got += 1;
        }
        got
    }

    /// Return reserved (or released) IDs to their owning shards' free lists.
    pub fn restock_ids(&self, ids: &[u32]) {
        let mut i = 0;
        while i < ids.len() {
            let s = (ids[i] >> self.stride_bits) as usize;
            let mut inner = self.lock_shard(&self.shards[s]);
            // Batch all consecutive IDs owned by the same shard under one
            // lock acquisition (magazines are usually shard-homogeneous).
            while i < ids.len() && (ids[i] >> self.stride_bits) as usize == s {
                inner.free.push(ids[i]);
                i += 1;
            }
        }
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
        self.live_count(id.0).fetch_add(1, Ordering::Relaxed);
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
        self.allocate_with_hint(backing, size, 0)
    }

    /// Like [`HandleTable::allocate`], preferring shard `hint` so unrelated
    /// callers can spread over different shards.
    pub fn allocate_with_hint(
        &self,
        backing: VirtAddr,
        size: u32,
        hint: usize,
    ) -> Option<HandleId> {
        let mut one = Vec::with_capacity(1);
        if self.reserve_ids(hint, 1, &mut one) == 0 {
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
        self.live_count(id.0).fetch_sub(1, Ordering::Relaxed);
        Ok(Hte { backing: word_addr(old), size, state: decode_state(word_state(old)) })
    }

    /// Release the entry for `id`, putting it on its shard's free list for
    /// reuse.
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

    /// All live entry IDs (heap scan), shard by shard.
    pub fn live_ids(&self) -> Vec<HandleId> {
        (0..self.shards.len()).flat_map(|s| self.live_ids_in_shard(s)).collect()
    }

    /// Live entry IDs owned by shard `s` — lets services scan the table one
    /// shard at a time instead of as one flat array.
    pub fn live_ids_in_shard(&self, s: usize) -> Vec<HandleId> {
        let shard = &self.shards[s];
        let hwm = shard.bump_hwm.load(Ordering::Acquire);
        (0..hwm)
            .filter_map(|local| {
                let id = shard.base + local;
                let e = self.entry(id)?;
                word_occupied(e.word.load(Ordering::Relaxed)).then_some(HandleId(id))
            })
            .collect()
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

    /// Acquire every shard lock in index order.  While the returned guard
    /// lives no ID can be reserved or restocked; the stop-the-world barrier
    /// holds this across a defragmentation pass so shard state is quiescent.
    /// (Entry *words* are still atomically mutable — that is how movers update
    /// backings while stragglers translate.)
    pub fn lock_all(&self) -> AllShardsGuard<'_> {
        AllShardsGuard { _guards: self.shards.iter().map(|s| s.inner.lock()).collect() }
    }

    /// Walk the whole table and check its structural invariants, returning a
    /// description of the first violation found.  The chaos suite runs this
    /// after every injected fault.
    ///
    /// Checked per shard (with every shard lock held, acquired in index
    /// order):
    ///
    /// * the bump cursor never exceeds the shard stride, and the lock-free
    ///   `bump_hwm` mirror matches it exactly;
    /// * every free-list ID is owned by the shard, below the bump cursor,
    ///   not duplicated, and its entry is `Free` or `Poisoned` — never
    ///   `Live`/`Invalid` (that would be an entry simultaneously allocatable
    ///   and occupied);
    /// * bumped entries have committed storage.
    ///
    /// A shard's occupied (`Live`/`Invalid`) entries must equal its live
    /// count, and globally the summed bump cursors must equal `touched`.
    /// Those two checks require quiescence — no concurrent
    /// `publish`/`release` (e.g. mutator threads parked, or the caller owns
    /// all outstanding handles); the other checks are valid under any
    /// concurrency.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let _all = self.lock_all();
        let mut bump_total = 0u64;
        for (s, shard) in self.shards.iter().enumerate() {
            // Read shard state through the guards already held by `_all`
            // (re-locking here would deadlock).
            let inner = &_all._guards[s];
            if inner.bump > self.stride {
                return Err(format!(
                    "shard {s}: bump {} exceeds stride {}",
                    inner.bump, self.stride
                ));
            }
            let hwm = shard.bump_hwm.load(Ordering::Acquire);
            if hwm != inner.bump {
                return Err(format!("shard {s}: bump_hwm {hwm} != bump {}", inner.bump));
            }
            bump_total += u64::from(inner.bump);
            let mut seen = std::collections::HashSet::with_capacity(inner.free.len());
            for &id in &inner.free {
                if (id >> self.stride_bits) as usize != s {
                    return Err(format!("shard {s}: free-list id {id} owned by another shard"));
                }
                if id - shard.base >= inner.bump {
                    return Err(format!("shard {s}: free-list id {id} beyond bump cursor"));
                }
                if !seen.insert(id) {
                    return Err(format!("shard {s}: free-list id {id} duplicated"));
                }
                let Some(e) = self.entry(id) else {
                    return Err(format!("shard {s}: free-list id {id} has no storage"));
                };
                let state = word_state(e.word.load(Ordering::Acquire));
                if !matches!(state, STATE_FREE | STATE_POISONED) {
                    return Err(format!(
                        "shard {s}: free-list id {id} is occupied (state {state})"
                    ));
                }
            }
            let mut occupied = 0u64;
            for local in 0..inner.bump {
                let id = shard.base + local;
                let Some(e) = self.entry(id) else {
                    return Err(format!("shard {s}: bumped id {id} has no committed storage"));
                };
                if word_occupied(e.word.load(Ordering::Acquire)) {
                    occupied += 1;
                }
            }
            let live = shard.live.0.load(Ordering::Acquire);
            if occupied != live {
                return Err(format!(
                    "shard {s}: occupied entries {occupied} != live count {live} \
                     (is the table quiescent?)"
                ));
            }
        }
        let touched = self.touched.load(Ordering::Acquire);
        if bump_total != touched {
            return Err(format!("summed bump cursors {bump_total} != touched counter {touched}"));
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
        t.reserve_ids(0, 2, &mut mag);
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
    fn auto_shard_count_is_power_of_two_in_range() {
        let n = auto_shard_count();
        assert!(n.is_power_of_two());
        assert!((SHARD_COUNT..=256).contains(&n));
        let t = HandleTable::new();
        assert_eq!(t.shard_count(), n);
    }

    #[test]
    fn explicit_shard_counts_round_up_and_stripe() {
        let t = HandleTable::with_shards(64, 1 << 20);
        assert_eq!(t.shard_count(), 64);
        let a = t.allocate_with_hint(VirtAddr(0x1), 1, 0).unwrap();
        let b = t.allocate_with_hint(VirtAddr(0x2), 1, 63).unwrap();
        assert_ne!(a.0 >> 14, b.0 >> 14, "stride 2^14: hints land on distinct shards");
        let t3 = HandleTable::with_shards(3, 1 << 10);
        assert_eq!(t3.shard_count(), 4, "non-power-of-two counts round up");
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
        t.reserve_ids(0, 8, &mut mag);
        t.verify_invariants().unwrap();
        t.restock_ids(&mag);
        t.verify_invariants().unwrap();
    }

    #[test]
    fn reserved_ids_publish_and_restock() {
        let t = table();
        let mut mag = Vec::new();
        assert_eq!(t.reserve_ids(0, 4, &mut mag), 4);
        assert_eq!(t.live_entries(), 0, "reserved is not live");
        let id = HandleId(mag.pop().unwrap());
        t.publish(id, VirtAddr(0x7000), 32);
        assert_eq!(t.backing(id), Some(VirtAddr(0x7000)));
        assert_eq!(t.get(id).unwrap().size, 32);
        t.restock_ids(&mag);
        // Restocked IDs come back out of the free list before new bumps.
        let mut again = Vec::new();
        t.reserve_ids(0, 3, &mut again);
        let mut sorted = again.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(t.touched_entries(), 4, "no new entries were bumped");
    }

    #[test]
    fn hints_spread_over_distinct_shards() {
        let t = HandleTable::with_capacity(MAX_ID);
        let a = t.allocate_with_hint(VirtAddr(0x1), 1, 0).unwrap();
        let b = t.allocate_with_hint(VirtAddr(0x2), 1, 1).unwrap();
        let c = t.allocate_with_hint(VirtAddr(0x3), 1, 15).unwrap();
        let shard = |id: HandleId| id.0 >> (31 - 4); // stride 2^27, 16 shards
        assert_eq!(shard(a), 0);
        assert_eq!(shard(b), 1);
        assert_eq!(shard(c), 15);
        assert_eq!(t.live_ids().len(), 3);
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
        for w in 0..4usize {
            let t = Arc::clone(&t);
            workers.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..2000u64 {
                    let id = t.allocate_with_hint(VirtAddr(0x1000 + i), 8, w).unwrap();
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
        // Worker `w` publishes into shard `w` and hands every ID to worker
        // `w + 1`, which releases all but `KEPT` of them: each shard's count
        // is raised by one thread and lowered by another, concurrently.
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..THREADS).map(|_| mpsc::channel::<HandleId>()).unzip();
        let peak = std::thread::scope(|scope| {
            for (w, inbox) in receivers.into_iter().enumerate() {
                let outbox = senders[(w + 1) % THREADS].clone();
                let t = &t;
                scope.spawn(move || {
                    let mut to_release = PER_THREAD - KEPT;
                    for i in 0..PER_THREAD {
                        let id = t.allocate_with_hint(VirtAddr(0x1000 + i), 8, w).unwrap();
                        assert_eq!(id.0 >> t.stride_bits, w as u32, "hint {w} names the shard");
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
            // Meanwhile the sum never exceeds what was published: no shard's
            // count wraps below zero.
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
