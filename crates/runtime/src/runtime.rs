//! The Alaska runtime object: `halloc`/`hfree`, translation, pinning,
//! safepoints and barriers (paper §4.2).
//!
//! A [`Runtime`] owns the handle table, the installed [`Service`] and the
//! registry of threads using handle-backed memory.  It exposes two client
//! surfaces:
//!
//! * a **native embedding API** (`halloc`, [`Runtime::pin`], the `read_*`/
//!   `write_*` helpers) used by the Rust workloads (the key-value stores of
//!   Figures 9–12), and
//! * a **compiler/interpreter API** (`push_pin_frame`, `set_pin_slot`,
//!   `safepoint`, `external_begin`/`external_end`) used by the `alaska-ir`
//!   interpreter to execute programs transformed by the `alaska-compiler`
//!   passes, mirroring the code the real compiler would have emitted.
//!
//! Both surfaces funnel through the same handle table, pin tracking and
//! barrier machinery, so the defragmentation behaviour measured in the figure
//! harnesses is produced by the same code paths regardless of front end.
//!
//! # Scalability
//!
//! The hot paths are engineered so that worker threads share no cache line in
//! the common case:
//!
//! * `translate` is a lock-free load from the sharded
//!   [`HandleTable`](crate::handle_table) — no mutex anywhere on the path;
//! * every public operation resolves the calling thread's registration
//!   **once** ([`thread::with_current`]) and borrows it throughout — no
//!   reference count moves, `read_bytes` is one thread-local access;
//! * everything thread-private is owner-written memory behind no lock and no
//!   read-modify-write: pins in the thread's slot stack ([`crate::pinset`]),
//!   event counters in its [`ThreadHotStats`] (folded only when
//!   [`Runtime::stats`] is called), handle IDs from its **magazine**
//!   ([`ThreadCtx::magazine`]), refilled/flushed through one shard in batches.
//!
//! The allocation path takes no runtime lock either: the backing-memory
//! [`Service`] is called through `&self` and synchronises itself (Anchorage
//! with one lock per arena, an arena per allocating thread), and the handle
//! table counts live entries per shard.  What `halloc`/`hfree` of two threads
//! still share is whatever the service shares.

use crate::barrier::BarrierController;
use crate::error::{AlaskaError, Result};
use crate::handle::{is_handle, Handle, HandleId};
use crate::handle_table::{FreeFault, HandleTable, HteState};
use crate::malloc_service::MallocService;
use crate::pinset::PinSlot;
use crate::service::{DefragOutcome, Service, ServiceContext, StoppedWorld};
use crate::stats::{RuntimeStats, StatsSnapshot};
use crate::telemetry::RuntimeTelemetry;
use crate::thread::{self, ThreadCtx, ThreadHotStats, ThreadRegistry, ThreadState};
use alaska_faultline as faultline;
use alaska_heap::vmem::{VirtAddr, VirtualMemory};
use alaska_heap::AllocStats;
use alaska_telemetry::Telemetry;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

static NEXT_RUNTIME_ID: AtomicUsize = AtomicUsize::new(1);

/// Capacity of a per-thread free-ID magazine; at this size half is flushed
/// back to the owning shard.
const MAGAZINE_CAP: usize = 64;
/// Batch size of a magazine refill from a shard.
const MAGAZINE_REFILL: usize = 32;

/// The Alaska runtime.  See the [module documentation](self).
pub struct Runtime {
    id: usize,
    vm: VirtualMemory,
    table: HandleTable,
    service: Box<dyn Service>,
    threads: ThreadRegistry,
    barrier: BarrierController,
    /// Serializes stop-the-world initiators: the pressure-recovery path can
    /// start a defragmentation from any mutator thread, and two interleaved
    /// pauses must not both move objects.
    pause_lock: Mutex<()>,
    stats: RuntimeStats,
    handle_faults: AtomicBool,
    /// Installed at most once; `None` means telemetry is disabled and every
    /// instrumentation site reduces to one load and an untaken branch.
    telemetry: OnceLock<RuntimeTelemetry>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("id", &self.id)
            .field("live_handles", &self.live_handles())
            .field("service", &self.service_name())
            .finish()
    }
}

/// RAII pin: while this guard lives, the pinned object cannot be moved.
///
/// Created by [`Runtime::pin`].  Dropping the guard unpins the handle.  The
/// pin lives in the pin stack of the thread that took it, so the guard is
/// not `Send`.
#[derive(Debug)]
pub struct Pinned<'rt> {
    rt: &'rt Runtime,
    bits: u64,
    addr: VirtAddr,
    /// Where the pin lives; `None` for a raw pointer, which needs no pin.
    slot: Option<PinSlot>,
    _owner_thread: PhantomData<*const ()>,
}

impl Pinned<'_> {
    /// The (currently stable) address of the pinned object plus the handle's
    /// offset.
    pub fn addr(&self) -> VirtAddr {
        self.addr
    }

    /// The raw handle (or pointer) value that was pinned.
    pub fn value(&self) -> u64 {
        self.bits
    }
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            self.rt.with_thread(|t| drop(ScopedPin(t, slot)));
        }
    }
}

/// A pin on an already resolved thread; released on drop, so an access that
/// panics cannot leave its slot behind.
struct ScopedPin<'t>(&'t ThreadState, PinSlot);

impl Drop for ScopedPin<'_> {
    fn drop(&mut self) {
        self.0.pins.unpin(self.1);
        ThreadHotStats::bump(&self.0.hot.unpins);
    }
}

/// RAII registration of the current thread with a runtime; unregisters on drop.
#[derive(Debug)]
pub struct ThreadGuard<'rt> {
    rt: &'rt Runtime,
    id: u64,
}

impl Drop for ThreadGuard<'_> {
    fn drop(&mut self) {
        // Hand unused magazine IDs back to their shards and roll this
        // thread's counters into the global totals before it vanishes.
        if let Some(ctx) = thread::take_current(self.rt.id) {
            let ids = ctx.magazine.take();
            if !ids.is_empty() {
                self.rt.table.restock_ids(&ids);
            }
        }
        self.rt.threads.unregister(self.id, |t| t.hot.flush_into(&self.rt.stats));
    }
}

impl Runtime {
    /// Create a runtime with the given service and a fresh simulated address
    /// space.
    pub fn new(service: Box<dyn Service>) -> Self {
        Self::with_vm(VirtualMemory::default(), service)
    }

    /// Create a runtime over an existing address space (so an application can
    /// share the space with non-handle allocations).
    pub fn with_vm(vm: VirtualMemory, mut service: Box<dyn Service>) -> Self {
        service.init(&ServiceContext { vm: vm.clone() });
        Runtime {
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            vm,
            table: HandleTable::new(),
            service,
            threads: ThreadRegistry::default(),
            barrier: BarrierController::new(),
            pause_lock: Mutex::new(()),
            stats: RuntimeStats::new(),
            handle_faults: AtomicBool::new(false),
            telemetry: OnceLock::new(),
        }
    }

    /// Convenience constructor: Alaska with no movement-capable service, using
    /// the non-moving free-list allocator for backing memory.  This is the
    /// configuration of the Figure 7 overhead study ("using malloc to allocate
    /// backing memory").
    pub fn with_malloc_service() -> Self {
        let vm = VirtualMemory::default();
        let service = Box::new(MallocService::new(vm.clone()));
        Self::with_vm(vm, service)
    }

    /// The shared address space.
    pub fn vm(&self) -> &VirtualMemory {
        &self.vm
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Install a telemetry hub, enabling pause-time histograms, heap gauges
    /// and the structured event trace.  The installed [`Service`] is notified
    /// through [`Service::attach_telemetry`] so it can publish its own
    /// metrics (Anchorage publishes fragmentation and sub-heap gauges).
    ///
    /// Returns `false` (and changes nothing) if a hub was already installed —
    /// the instrumentation handles are resolved once and never swapped.
    pub fn install_telemetry(&self, hub: Arc<Telemetry>) -> bool {
        let installed = self.telemetry.set(RuntimeTelemetry::new(hub.clone())).is_ok();
        if installed {
            self.service.attach_telemetry(&hub);
        }
        installed
    }

    /// The installed telemetry hub, if any.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.telemetry.get().map(|t| t.hub.clone())
    }

    /// Mirror the runtime counters and heap gauges into the installed hub's
    /// registry (no-op without a hub).  Harnesses call this before exporting
    /// so JSONL/Prometheus snapshots carry the latest totals.
    pub fn publish_telemetry(&self) {
        if let Some(tel) = self.telemetry.get() {
            let registry = tel.hub.registry();
            let snap = self.stats();
            snap.publish(registry);
            registry
                .counter(crate::telemetry::names::FAST_PATH_TRANSLATIONS)
                .store(snap.translations.saturating_sub(snap.handle_faults));
            registry.gauge(crate::telemetry::names::RSS_BYTES).set_u64(self.rss_bytes());
            registry
                .gauge(crate::telemetry::names::FRAGMENTATION_RATIO)
                .set(self.service_fragmentation());
            registry.gauge(crate::telemetry::names::LIVE_HANDLES).set_u64(self.live_handles());
        }
    }

    // ------------------------------------------------------------------
    // Thread registration and safepoints
    // ------------------------------------------------------------------

    /// Run `f` with the calling thread's registration (made on first use).
    /// Nothing stays borrowed meanwhile: `f` may enter this or another runtime.
    #[inline]
    fn with_thread<R>(&self, f: impl FnOnce(&ThreadCtx) -> R) -> R {
        thread::with_current(self.id, &self.threads, f)
    }

    /// Explicitly register the current thread, returning a guard that
    /// unregisters it on drop.  Registration also happens implicitly on first
    /// use; worker threads that terminate while the runtime is still live
    /// should prefer the explicit form so barriers do not wait for them.
    pub fn register_current_thread(&self) -> ThreadGuard<'_> {
        ThreadGuard { rt: self, id: self.with_thread(|t| t.id) }
    }

    /// Number of threads currently registered.
    pub fn registered_threads(&self) -> usize {
        self.threads.with_all(|threads| threads.len())
    }

    /// A safepoint poll: the fast path is an atomic load of the barrier flag;
    /// if a barrier has been requested the thread parks until it completes.
    /// The compiler inserts these at loop back-edges, function entries and
    /// external-call boundaries (§4.1.3).
    #[inline]
    pub fn safepoint(&self) {
        self.with_thread(|t| self.poll(t));
    }

    #[inline]
    fn poll(&self, t: &ThreadState) {
        ThreadHotStats::bump(&t.hot.safepoint_polls);
        if self.barrier.is_requested() {
            self.barrier.park_at_safepoint(t);
        }
    }

    /// Mark the current thread as entering external (non-handle-aware) code.
    /// Barriers will not wait for it (§4.1.3's straggler handling).
    pub fn external_begin(&self) {
        self.with_thread(|t| {
            self.poll(t);
            t.in_external.store(true, Ordering::Release);
        });
    }

    /// Mark the current thread as returning from external code.  Acts as a
    /// safepoint so the thread cannot race past an in-progress barrier.
    pub fn external_end(&self) {
        self.with_thread(|t| {
            t.in_external.store(false, Ordering::Release);
            self.poll(t);
        });
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Pop a reserved handle ID from this thread's magazine, refilling it from
    /// the thread's home shard when empty.
    fn acquire_id(&self, t: &ThreadCtx) -> Option<HandleId> {
        let mut mag = t.magazine.borrow_mut();
        if let Some(id) = mag.pop() {
            return Some(HandleId(id));
        }
        let hint = t.id as usize % self.table.shard_count();
        if faultline::fire!("magazine.refill")
            || self.table.reserve_ids(hint, MAGAZINE_REFILL, &mut mag) == 0
        {
            return None;
        }
        ThreadHotStats::bump(&t.hot.magazine_refills);
        mag.pop().map(HandleId)
    }

    /// Park a freed (or never published) ID in this thread's magazine,
    /// flushing the cold half back to the owning shards at capacity.
    fn release_id(&self, t: &ThreadCtx, id: HandleId) {
        let mut mag = t.magazine.borrow_mut();
        mag.push(id.0);
        if mag.len() >= MAGAZINE_CAP {
            // Flush the cold (oldest) half, keep the hot LIFO end.
            let surplus: Vec<u32> = mag.drain(..MAGAZINE_CAP / 2).collect();
            self.table.restock_ids(&surplus);
            ThreadHotStats::bump(&t.hot.magazine_flushes);
        }
    }

    /// Allocate `size` bytes of handle-backed memory; returns the handle bits
    /// the application treats as a pointer.
    ///
    /// The ID comes from the thread's magazine (no shard lock in the common
    /// case); the entry is published with its backing already set, so there is
    /// no window where a concurrent translation can observe a live entry with
    /// a NULL backing (the old allocate → service-alloc → set-backing dance
    /// took three lock acquisitions and exposed exactly that window).
    ///
    /// # Errors
    ///
    /// * [`AlaskaError::ObjectTooLarge`] if `size` exceeds 4 GiB,
    /// * [`AlaskaError::HandleTableFull`] if the handle table is exhausted,
    /// * [`AlaskaError::OutOfMemory`] if the service cannot supply backing
    ///   memory even after the pressure recovery loop (shed + defragment +
    ///   backoff) ran out of attempts.
    pub fn halloc(&self, size: usize) -> Result<u64> {
        self.with_thread(|t| {
            self.poll(t);
            if size as u64 >= crate::MAX_OBJECT_SIZE {
                return Err(AlaskaError::ObjectTooLarge { requested: size as u64 });
            }
            if faultline::fire!("halloc.reserve.oom") {
                return Err(AlaskaError::HandleTableFull);
            }
            let id = self.acquire_id(t).ok_or(AlaskaError::HandleTableFull)?;
            let addr = match self.backing_alloc(size, id) {
                Some(a) => a,
                None => {
                    // Release-on-OOM: the reserved ID goes back to the magazine
                    // instead of leaking.
                    self.release_id(t, id);
                    return Err(AlaskaError::OutOfMemory { requested: size as u64 });
                }
            };
            if faultline::fire!("halloc.publish") {
                // Injected failure between backing allocation and publish: unwind
                // both halves so neither the block nor the ID leaks.
                self.service.free(id, addr, size);
                self.release_id(t, id);
                return Err(AlaskaError::OutOfMemory { requested: size as u64 });
            }
            self.table.publish(id, addr, size as u32);
            ThreadHotStats::bump(&t.hot.hallocs);
            Ok(Handle::new(id).bits())
        })
    }

    /// Ask the service for backing memory, falling into the pressure recovery
    /// loop when it refuses.
    fn backing_alloc(&self, size: usize, id: HandleId) -> Option<VirtAddr> {
        if !faultline::fire!("halloc.backing.oom") {
            if let Some(addr) = self.service.alloc(size, id) {
                return Some(addr);
            }
        }
        self.recover_from_alloc_pressure(size, id)
    }

    /// Graceful OOM degradation: before the application sees an allocation
    /// failure, shed cheap memory, defragment, and retry with exponential
    /// backoff.  Nothing is held between the steps: each service call takes
    /// and drops the service's own locks, so the defrag barrier in the middle
    /// starts with none of them held by this thread.
    #[cold]
    fn recover_from_alloc_pressure(&self, size: usize, id: HandleId) -> Option<VirtAddr> {
        let mut backoff = Duration::from_micros(100);
        for attempt in 1..=3u64 {
            RuntimeStats::bump(&self.stats.alloc_pressure_events);
            let shed = self.service.shed_memory();
            self.defragment(None);
            if let Some(tel) = self.telemetry.get() {
                tel.record_alloc_pressure(size as u64, shed, attempt);
            }
            if let Some(addr) = self.service.alloc(size, id) {
                RuntimeStats::bump(&self.stats.alloc_pressure_recoveries);
                return Some(addr);
            }
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        None
    }

    /// Free a handle previously returned by [`Runtime::halloc`].
    ///
    /// Claiming the entry is a CAS into the poisoned quarantine state, so of
    /// two racing frees exactly one succeeds and the other gets a typed
    /// verdict.  The freed ID parks in this thread's magazine for reuse;
    /// surplus beyond the magazine capacity (64 IDs) is flushed back to the
    /// owning shard in a batch.
    ///
    /// # Errors
    ///
    /// * [`AlaskaError::DoubleFree`] if `value` was already freed (the entry
    ///   is poisoned and its ID not yet reused),
    /// * [`AlaskaError::InvalidHandle`] if `value` never was a live handle
    ///   (wild free).
    pub fn hfree(&self, value: u64) -> Result<()> {
        self.with_thread(|t| {
            self.poll(t);
            let handle = Handle::from_bits(value).ok_or(AlaskaError::InvalidHandle { value })?;
            let id = handle.id();
            let e = match self.table.release_reserved(id) {
                Ok(e) => e,
                Err(FreeFault::DoubleFree) => {
                    RuntimeStats::bump(&self.stats.double_frees_detected);
                    if let Some(tel) = self.telemetry.get() {
                        tel.record_lifecycle_fault(id.0 as u64, 0);
                    }
                    return Err(AlaskaError::DoubleFree { value });
                }
                Err(FreeFault::Dangling) => return Err(AlaskaError::InvalidHandle { value }),
            };
            self.service.free(id, e.backing, e.size as usize);
            self.release_id(t, id);
            ThreadHotStats::bump(&t.hot.hfrees);
            Ok(())
        })
    }

    /// Resize the object behind `value` to `new_size`, preserving its handle
    /// (the application's "pointer" value does not change — one of the perks of
    /// the indirection).
    ///
    /// The handle-table entry never leaves the `Live` state: the table is
    /// repointed with one atomic update rather than a release/reallocate
    /// round-trip, so concurrent translations of the same handle stay valid
    /// throughout.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Runtime::halloc`] and [`Runtime::hfree`].
    pub fn hrealloc(&self, value: u64, new_size: usize) -> Result<u64> {
        self.safepoint();
        if new_size as u64 >= crate::MAX_OBJECT_SIZE {
            return Err(AlaskaError::ObjectTooLarge { requested: new_size as u64 });
        }
        let handle = Handle::from_bits(value).ok_or(AlaskaError::InvalidHandle { value })?;
        let id = handle.id();
        let e = self.table.get(id).ok_or(AlaskaError::InvalidHandle { value })?;
        if faultline::fire!("hrealloc.repoint") {
            // Injected failure before any mutation: the object and its entry
            // are untouched, so the caller can keep using the old size.
            return Err(AlaskaError::OutOfMemory { requested: new_size as u64 });
        }
        let (old_addr, old_size) = (e.backing, e.size as usize);
        if let Some(new_addr) = self.service.realloc(id, old_addr, old_size, new_size) {
            // The service (Anchorage) did it all: new block, bytes copied, old
            // block released — under one hold of an arena's lock when the
            // block stays in the caller's arena, else one arena lock at a
            // time.  Nothing else may name this handle's block meanwhile: a
            // pass needs this thread at a safepoint, and a free or resize of
            // a handle that is being resized is the application's bug.
            self.table.update(id, new_addr, new_size as u32);
            return Ok(value);
        }
        // Services without a `realloc`: alloc → copy → free under the same ID.
        let new_addr = self
            .service
            .alloc(new_size, id)
            .ok_or(AlaskaError::OutOfMemory { requested: new_size as u64 })?;
        self.vm.copy(old_addr, new_addr, old_size.min(new_size));
        self.table.update(id, new_addr, new_size as u32);
        self.service.free(id, old_addr, old_size);
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Translation and pinning
    // ------------------------------------------------------------------

    /// Translate a handle (or pass a raw pointer through) to an address.
    ///
    /// This is the 6-instruction sequence of Figure 5: a handle check, an ID
    /// extraction, a handle-table load and an offset add — and it is entirely
    /// lock-free: the table lookup is one relaxed atomic load of the packed
    /// entry word.
    ///
    /// # Errors
    ///
    /// Returns [`AlaskaError::InvalidHandle`] for a dangling handle.
    pub fn translate(&self, value: u64) -> Result<VirtAddr> {
        self.with_thread(|t| self.translate_with(&t.hot, value))
    }

    #[inline]
    fn translate_with(&self, hot: &ThreadHotStats, value: u64) -> Result<VirtAddr> {
        ThreadHotStats::bump(&hot.handle_checks);
        let Some(handle) = Handle::from_bits(value) else {
            ThreadHotStats::bump(&hot.pointer_passthroughs);
            return Ok(VirtAddr(value));
        };
        let id = handle.id();
        let (addr, state) = self.table.load(id).ok_or(AlaskaError::InvalidHandle { value })?;
        if state != HteState::Live {
            self.translate_fault(id, state, value)?;
        }
        ThreadHotStats::bump(&hot.translations);
        Ok(addr.add(handle.offset() as u64))
    }

    /// Off the translation fast path: the entry is not `Live`.
    #[cold]
    fn translate_fault(&self, id: HandleId, state: HteState, value: u64) -> Result<()> {
        if state == HteState::Poisoned {
            // The entry was freed and its ID not reused yet: a detectable
            // use-after-free rather than a silent read through a stale (or
            // NULL) backing.
            RuntimeStats::bump(&self.stats.use_after_frees_detected);
            if let Some(tel) = self.telemetry.get() {
                tel.record_lifecycle_fault(id.0 as u64, 1);
            }
            return Err(AlaskaError::UseAfterFree { value });
        }
        // Handle fault (§7): the object was speculatively moved or swapped
        // out.  Our model services the fault by revalidating the entry; the
        // CAS makes exactly one of any racing faulting threads count and
        // trace the fault.
        if self.handle_faults.load(Ordering::Relaxed) && self.table.fault_recover(id) {
            RuntimeStats::bump(&self.stats.handle_faults);
            if let Some(tel) = self.telemetry.get() {
                tel.record_handle_fault(id.0 as u64);
            }
        }
        Ok(())
    }

    /// Translate and pin: the returned guard keeps the object immobile until
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`AlaskaError::UseAfterFree`] for a freed-but-not-reused
    /// handle and [`AlaskaError::InvalidHandle`] for any other dangling
    /// value, so library users can recover instead of unwinding.
    pub fn pin(&self, value: u64) -> Result<Pinned<'_>> {
        let (addr, slot) = self.with_thread(|t| self.pin_on(t, value))?;
        Ok(Pinned { rt: self, bits: value, addr, slot, _owner_thread: PhantomData })
    }

    /// Translate `value` and, if it is a handle, push it on `t`'s pin stack.
    #[inline]
    fn pin_on(&self, t: &ThreadState, value: u64) -> Result<(VirtAddr, Option<PinSlot>)> {
        let addr = self.translate_with(&t.hot, value)?;
        let slot = is_handle(value).then(|| {
            ThreadHotStats::bump(&t.hot.pins);
            t.pins.pin(value)
        });
        Ok((addr, slot))
    }

    /// Number of handles currently pinned by the calling thread.
    pub fn current_thread_pin_count(&self) -> usize {
        self.with_thread(|t| t.pins.pinned().len())
    }

    // ------------------------------------------------------------------
    // Compiler/interpreter pin-frame interface
    // ------------------------------------------------------------------

    /// Push a pin-set frame of `slots` entries for an invocation of the
    /// compiled function `_function` (§4.1.3).
    pub fn push_pin_frame(&self, _function: &str, slots: usize) {
        self.with_thread(|t| t.pins.push_frame(slots));
    }

    /// Pop the top pin-set frame (function return).
    pub fn pop_pin_frame(&self) {
        self.with_thread(|t| t.pins.pop_frame());
    }

    /// Record a translated value into slot `slot` of the current frame and
    /// return the translation, counting the same events as [`Runtime::translate`].
    ///
    /// # Errors
    ///
    /// Returns [`AlaskaError::InvalidHandle`] for a dangling handle and
    /// [`AlaskaError::NoActivePinFrame`] when no pin frame has been pushed
    /// (compiler API misuse).
    pub fn translate_into_slot(&self, value: u64, slot: usize) -> Result<VirtAddr> {
        self.with_thread(|t| {
            let addr = self.translate_with(&t.hot, value)?;
            if is_handle(value) {
                if !t.pins.set(slot, value) {
                    return Err(AlaskaError::NoActivePinFrame);
                }
                ThreadHotStats::bump(&t.hot.pins);
            }
            Ok(addr)
        })
    }

    /// Release slot `slot` of the current frame (end of the translation's
    /// lifetime, as computed by the compiler's liveness analysis).
    pub fn release_slot(&self, slot: usize) {
        self.with_thread(|t| {
            t.pins.set(slot, 0);
            ThreadHotStats::bump(&t.hot.unpins);
        });
    }

    // ------------------------------------------------------------------
    // Memory access helpers (translate + pin for the duration of the access)
    // ------------------------------------------------------------------

    /// Run `access` on the address of `value`, pinned for the duration, all
    /// on one resolve of the calling thread.  The helpers below have no error
    /// channel: dereferencing an invalid value through `read_*`/`write_*` is
    /// undefined behaviour in the source program, surfaced loudly here.
    /// Callers that want to recover use [`Runtime::pin`] directly.
    #[inline]
    fn with_pinned<R>(&self, value: u64, op: &str, access: impl FnOnce(VirtAddr) -> R) -> R {
        self.with_thread(|t| {
            let (addr, slot) = self
                .pin_on(t, value)
                .unwrap_or_else(|e| panic!("{op} of invalid value {value:#x}: {e}"));
            let _pin = slot.map(|slot| ScopedPin(t, slot));
            access(addr)
        })
    }

    /// Read `out.len()` bytes from offset `offset` of the object behind `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is a dangling handle (use [`Runtime::pin`] to recover
    /// instead).
    pub fn read_bytes(&self, value: u64, offset: u64, out: &mut [u8]) {
        self.with_pinned(value, "read_bytes", |addr| self.vm.read_bytes(addr.add(offset), out));
    }

    /// Write `data` at offset `offset` of the object behind `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is a dangling handle (use [`Runtime::pin`] to recover
    /// instead).
    pub fn write_bytes(&self, value: u64, offset: u64, data: &[u8]) {
        self.with_pinned(value, "write_bytes", |addr| self.vm.write_bytes(addr.add(offset), data));
    }

    /// Read a `u64` at offset `offset` of the object behind `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is a dangling handle (use [`Runtime::pin`] to recover
    /// instead).
    pub fn read_u64(&self, value: u64, offset: u64) -> u64 {
        self.with_pinned(value, "read_u64", |addr| self.vm.read_u64(addr.add(offset)))
    }

    /// Write a `u64` at offset `offset` of the object behind `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is a dangling handle (use [`Runtime::pin`] to recover
    /// instead).
    pub fn write_u64(&self, value: u64, offset: u64, data: u64) {
        self.with_pinned(value, "write_u64", |addr| self.vm.write_u64(addr.add(offset), data));
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Stop the world, unify all threads' pin sets, and run `f` with the
    /// stopped world.  Other threads resume when `f` returns.
    ///
    /// Every handle-table shard lock is held (acquired in index order) while
    /// `f` runs, so no ID can be reserved or restocked during the pause;
    /// entry words remain atomically mutable, which is how the service
    /// relocates objects while straggler threads may still translate.
    ///
    /// A straggler that never reaches a safepoint before the watchdog
    /// deadline ([`Runtime::set_barrier_deadline`]) makes the attempt
    /// **abort**: the world is released untouched (no shard lock was taken,
    /// no entry mutated), `barrier_aborts` and a trace event fire, and the
    /// pause is retried with exponential backoff.  On the final attempt
    /// remaining stragglers are treated like external threads — they hold no
    /// pins below their current operation boundary — so a permanently stuck
    /// thread degrades the pause rather than hanging it.
    pub fn with_stopped_world<R>(&self, f: impl FnOnce(&mut StoppedWorld<'_>) -> R) -> R {
        let me = self.with_thread(|t| t.id);
        // Serialize competing initiators: the pressure-recovery path starts
        // pauses from arbitrary mutator threads.  While queueing, this thread
        // is flagged as external so the pause already in progress does not
        // read it as a straggler (it is idle until the lock is granted, and
        // external threads safepoint on exit).  Must not be called reentrantly
        // from inside the stopped-world closure.
        self.external_begin();
        let _pause = self.pause_lock.lock();
        self.external_end();

        let start = Instant::now();
        let others: Vec<Arc<ThreadState>> = self
            .threads
            .with_all(|threads| threads.iter().filter(|t| t.id != me).cloned().collect());

        const MAX_STOP_ATTEMPTS: u64 = 3;
        let mut backoff = Duration::from_millis(1);
        let mut attempt = 1u64;
        let stop_wait = loop {
            let outcome = self.barrier.stop_the_world(&others);
            // `barrier.entry` lets the chaos suite force an abort on a pause
            // that would otherwise have stopped cleanly.
            let abort = outcome.stragglers > 0 || faultline::fire!("barrier.entry");
            if !abort || attempt >= MAX_STOP_ATTEMPTS {
                break outcome.waited;
            }
            // Clean abort: release the world, record it, back off, retry.
            self.barrier.resume();
            RuntimeStats::bump(&self.stats.barrier_aborts);
            if let Some(tel) = self.telemetry.get() {
                tel.record_barrier_abort(outcome.stragglers as u64, attempt);
            }
            std::thread::sleep(backoff);
            backoff *= 2;
            attempt += 1;
        };

        // Unify pin sets from every registered thread (including ourselves).
        // `stop_the_world` read each other thread's `parked`/`in_external`
        // with `Acquire`, which is what makes its slots safe to read now.
        let mut pinned: HashSet<HandleId> = HashSet::new();
        self.threads.with_all(|threads| {
            for t in threads {
                t.pins.collect_pinned(&mut pinned);
            }
        });

        let result = {
            let _shards = self.table.lock_all();
            let mut world = StoppedWorld::new(&self.table, &pinned, &self.vm, &self.stats);
            f(&mut world)
        };

        self.barrier.resume();
        let pause = start.elapsed();
        RuntimeStats::bump(&self.stats.barriers);
        RuntimeStats::add(&self.stats.barrier_ns, pause.as_nanos() as u64);
        if let Some(tel) = self.telemetry.get() {
            tel.record_barrier(
                stop_wait.as_nanos() as u64,
                pause.as_nanos() as u64,
                self.stats().safepoint_polls,
            );
        }
        result
    }

    /// Stop the world and let the installed service defragment, bounded by
    /// `budget_bytes` of copying (`None` = unbounded).
    pub fn defragment(&self, budget_bytes: Option<u64>) -> DefragOutcome {
        let outcome = self.with_stopped_world(|world| self.service.defragment(world, budget_bytes));
        RuntimeStats::bump(&self.stats.defrag_passes);
        RuntimeStats::add(&self.stats.bytes_released, outcome.bytes_released);
        RuntimeStats::add(&self.stats.defrag_plan_ns, outcome.plan_ns);
        RuntimeStats::add(&self.stats.defrag_copy_ns, outcome.copy_ns);
        RuntimeStats::add(&self.stats.defrag_commit_ns, outcome.commit_ns);
        RuntimeStats::add(&self.stats.defrag_copy_batches, outcome.copy_batches);
        RuntimeStats::add(&self.stats.defrag_batches_degraded, outcome.batches_degraded);
        if let Some(tel) = self.telemetry.get() {
            tel.record_defrag(
                budget_bytes,
                &outcome,
                self.rss_bytes(),
                self.service_fragmentation(),
            );
        }
        outcome
    }

    /// Run `f` with the installed service (for service-specific operations
    /// or inspection).  Access is shared: the service synchronises itself.
    pub fn with_service<R>(&self, f: impl FnOnce(&dyn Service) -> R) -> R {
        f(self.service.as_ref())
    }

    /// Set the barrier watchdog deadline: how long a stop-the-world attempt
    /// waits for stragglers before aborting and retrying (default 100 ms,
    /// floor 1 ms).
    pub fn set_barrier_deadline(&self, deadline: Duration) {
        self.barrier.set_straggler_timeout(deadline);
    }

    /// Walk the handle table and check its structural invariants (see
    /// [`HandleTable::verify_invariants`]); the chaos suite calls this after
    /// every injected fault.  The global counters are only exact when the
    /// table is quiescent (no concurrent `halloc`/`hfree`).
    ///
    /// # Errors
    ///
    /// Returns [`AlaskaError::InvariantViolation`] describing the first
    /// violated invariant.
    pub fn verify_table_invariants(&self) -> Result<()> {
        self.table.verify_invariants().map_err(|detail| AlaskaError::InvariantViolation { detail })
    }

    // ------------------------------------------------------------------
    // Handle faults (§7 extension)
    // ------------------------------------------------------------------

    /// Enable or disable the handle-fault check on the translation path.
    pub fn enable_handle_faults(&self, enabled: bool) {
        self.handle_faults.store(enabled, Ordering::Relaxed);
    }

    /// Mark the object behind `value` invalid so the next translation takes the
    /// fault path.
    ///
    /// # Errors
    ///
    /// Returns [`AlaskaError::InvalidHandle`] if `value` is not a live handle.
    pub fn mark_invalid(&self, value: u64) -> Result<()> {
        let handle = Handle::from_bits(value).ok_or(AlaskaError::InvalidHandle { value })?;
        if self.table.try_set_state(handle.id(), HteState::Invalid) {
            Ok(())
        } else {
            Err(AlaskaError::InvalidHandle { value })
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot of the runtime event counters: the global totals plus every
    /// registered thread's private counters, folded together.
    pub fn stats(&self) -> StatsSnapshot {
        // Under the registry lock, so a thread that unregisters meanwhile is
        // counted exactly once: in its own counters or in the totals it
        // flushed them into.
        let mut snap = self.threads.with_all(|threads| {
            let mut snap = self.stats.snapshot();
            for t in threads {
                t.hot.fold_into(&mut snap);
            }
            snap
        });
        snap.shard_lock_contention += self.table.contention_events();
        snap
    }

    /// Number of live handles.
    pub fn live_handles(&self) -> u64 {
        self.table.live_entries()
    }

    /// Density of live entries in the handle table (§4.2.1).
    pub fn handle_table_density(&self) -> f64 {
        self.table.density()
    }

    /// Number of ID-range shards in the handle table.  Full-capacity tables
    /// size this from `available_parallelism`, so harnesses report it to
    /// label results from machines with different effective shard counts.
    pub fn handle_table_shards(&self) -> usize {
        self.table.shard_count()
    }

    /// Handle-table metadata overhead in bytes.
    pub fn handle_table_bytes(&self) -> u64 {
        self.table.metadata_bytes()
    }

    /// Requested size of the object behind `value`, if it is a live handle.
    pub fn usable_size(&self, value: u64) -> Option<usize> {
        let handle = Handle::from_bits(value)?;
        self.table.get(handle.id()).map(|e| e.size as usize)
    }

    /// Statistics of the installed service's heap.
    pub fn service_stats(&self) -> AllocStats {
        self.service.heap_stats()
    }

    /// Fragmentation ratio reported by the installed service.
    pub fn service_fragmentation(&self) -> f64 {
        self.service.fragmentation()
    }

    /// Name of the installed service.
    pub fn service_name(&self) -> &'static str {
        self.service.name()
    }

    /// Resident set size of the shared address space.
    pub fn rss_bytes(&self) -> u64 {
        self.vm.rss_bytes()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let ctx = ServiceContext { vm: self.vm.clone() };
        self.service.deinit(&ctx);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Runtime {
        Runtime::with_malloc_service()
    }

    #[test]
    fn halloc_returns_handles_not_pointers() {
        let rt = rt();
        let h = rt.halloc(64).unwrap();
        assert!(is_handle(h));
        assert_eq!(rt.usable_size(h), Some(64));
        assert_eq!(rt.live_handles(), 1);
        rt.hfree(h).unwrap();
        assert_eq!(rt.live_handles(), 0);
    }

    #[test]
    fn read_write_roundtrip_through_handles() {
        let rt = rt();
        let h = rt.halloc(256).unwrap();
        rt.write_u64(h, 0, 0xABCD);
        rt.write_u64(h, 248, 99);
        assert_eq!(rt.read_u64(h, 0), 0xABCD);
        assert_eq!(rt.read_u64(h, 248), 99);
        rt.write_bytes(h, 8, b"alaska");
        let mut buf = [0u8; 6];
        rt.read_bytes(h, 8, &mut buf);
        assert_eq!(&buf, b"alaska");
    }

    #[test]
    fn translate_passes_raw_pointers_through() {
        let rt = rt();
        let addr = rt.vm().map(4096);
        assert_eq!(rt.translate(addr.0).unwrap(), addr);
        let s = rt.stats();
        assert_eq!(s.pointer_passthroughs, 1);
        assert_eq!(s.translations, 0);
    }

    #[test]
    fn hfree_of_bad_value_errors() {
        let rt = rt();
        assert!(matches!(rt.hfree(0x1234), Err(AlaskaError::InvalidHandle { .. })));
        let h = rt.halloc(8).unwrap();
        rt.hfree(h).unwrap();
        assert!(matches!(rt.hfree(h), Err(AlaskaError::DoubleFree { .. })));
    }

    #[test]
    fn lifecycle_faults_return_typed_errors_and_count() {
        let rt = rt();
        let h = rt.halloc(16).unwrap();
        rt.hfree(h).unwrap();
        // Use-after-free: the freed ID sits poisoned in this thread's
        // magazine, so both translation and pinning detect it.
        assert!(matches!(rt.translate(h), Err(AlaskaError::UseAfterFree { .. })));
        assert!(rt.pin(h).is_err());
        // Double free of the same handle.
        assert!(matches!(rt.hfree(h), Err(AlaskaError::DoubleFree { .. })));
        let s = rt.stats();
        assert_eq!(s.use_after_frees_detected, 2);
        assert_eq!(s.double_frees_detected, 1);
        rt.verify_table_invariants().unwrap();
    }

    #[test]
    fn lifecycle_faults_are_traced_when_telemetry_is_installed() {
        let rt = rt();
        rt.install_telemetry(Arc::new(alaska_telemetry::Telemetry::new()));
        let h = rt.halloc(8).unwrap();
        rt.hfree(h).unwrap();
        let _ = rt.translate(h);
        let _ = rt.hfree(h);
        let events = rt.telemetry().unwrap().ring().snapshot();
        let kinds: Vec<u64> = events
            .iter()
            .filter_map(|r| match r.event {
                alaska_telemetry::Event::LifecycleFault { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![1, 0], "one use-after-free then one double free");
    }

    #[test]
    fn translate_into_slot_without_frame_is_a_typed_error() {
        let rt = rt();
        let h = rt.halloc(8).unwrap();
        assert_eq!(rt.translate_into_slot(h, 0), Err(AlaskaError::NoActivePinFrame));
    }

    #[test]
    fn pin_of_dangling_value_is_a_typed_error() {
        let rt = rt();
        let bogus = Handle::new(HandleId(12345)).bits();
        assert!(matches!(rt.pin(bogus), Err(AlaskaError::InvalidHandle { .. })));
    }

    #[test]
    fn object_too_large_is_rejected() {
        let rt = rt();
        assert!(matches!(rt.halloc(1 << 33), Err(AlaskaError::ObjectTooLarge { .. })));
    }

    #[test]
    fn pinned_objects_are_not_moved_by_barriers() {
        let rt = rt();
        let h = rt.halloc(64).unwrap();
        rt.write_u64(h, 0, 7);
        let guard = rt.pin(h).unwrap();
        let before = guard.addr();
        // Try to move everything; the pinned object must stay.
        rt.with_stopped_world(|world| {
            let id = Handle::from_bits(h).unwrap().id();
            assert!(world.is_pinned(id));
            let dst = world.vm().map(4096);
            assert!(!world.move_object(id, dst));
        });
        assert_eq!(rt.translate(h).unwrap(), before);
        drop(guard);
        assert_eq!(rt.current_thread_pin_count(), 0);
    }

    #[test]
    fn unpinned_objects_move_and_translation_follows() {
        let rt = rt();
        let h = rt.halloc(32).unwrap();
        rt.write_u64(h, 0, 123);
        let old = rt.translate(h).unwrap();
        let moved = rt.with_stopped_world(|world| {
            let id = Handle::from_bits(h).unwrap().id();
            let dst = world.vm().map(4096);
            world.move_object(id, dst)
        });
        assert!(moved);
        let new = rt.translate(h).unwrap();
        assert_ne!(old, new);
        assert_eq!(rt.read_u64(h, 0), 123, "data follows the object");
        assert_eq!(rt.stats().objects_moved, 1);
    }

    #[test]
    fn hrealloc_preserves_handle_and_contents() {
        let rt = rt();
        let h = rt.halloc(16).unwrap();
        rt.write_u64(h, 0, 555);
        let h2 = rt.hrealloc(h, 4096).unwrap();
        assert_eq!(h, h2, "handle value survives realloc");
        assert_eq!(rt.read_u64(h, 0), 555);
        assert_eq!(rt.usable_size(h), Some(4096));
        rt.hfree(h).unwrap();
    }

    #[test]
    fn pin_frames_pin_translated_handles() {
        let rt = rt();
        let h = rt.halloc(64).unwrap();
        rt.push_pin_frame("f", 2);
        rt.translate_into_slot(h, 0).unwrap();
        assert_eq!(rt.current_thread_pin_count(), 1);
        rt.release_slot(0);
        assert_eq!(rt.current_thread_pin_count(), 0);
        rt.pop_pin_frame();
    }

    #[test]
    fn handle_faults_are_counted_and_recovered() {
        let rt = rt();
        rt.enable_handle_faults(true);
        let h = rt.halloc(16).unwrap();
        rt.write_u64(h, 0, 1);
        rt.mark_invalid(h).unwrap();
        // Access takes the fault path once, then the entry is valid again.
        assert_eq!(rt.read_u64(h, 0), 1);
        assert_eq!(rt.stats().handle_faults, 1);
        assert_eq!(rt.read_u64(h, 0), 1);
        assert_eq!(rt.stats().handle_faults, 1);
    }

    #[test]
    fn stats_count_checks_and_translations() {
        let rt = rt();
        let h = rt.halloc(8).unwrap();
        let _ = rt.translate(h).unwrap();
        let _ = rt.translate(0x1000).unwrap();
        let s = rt.stats();
        assert_eq!(s.hallocs, 1);
        assert_eq!(s.handle_checks, 2);
        assert_eq!(s.translations, 1);
        assert_eq!(s.pointer_passthroughs, 1);
    }

    #[test]
    fn barrier_from_sole_thread_succeeds() {
        let rt = rt();
        let out = rt.defragment(None);
        assert_eq!(out.objects_moved, 0);
        assert_eq!(rt.stats().barriers, 1);
    }

    #[test]
    fn multithreaded_halloc_and_barrier() {
        use std::sync::atomic::AtomicBool;
        let rt = Arc::new(Runtime::with_malloc_service());
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for _ in 0..4 {
            let rt = rt.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                let _guard = rt.register_current_thread();
                let mut handles = Vec::new();
                let mut sum = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let h = rt.halloc(64).unwrap();
                    rt.write_u64(h, 0, 42);
                    sum += rt.read_u64(h, 0);
                    handles.push(h);
                    if handles.len() > 32 {
                        rt.hfree(handles.remove(0)).unwrap();
                    }
                    rt.safepoint();
                }
                for h in handles {
                    rt.hfree(h).unwrap();
                }
                sum
            }));
        }
        // Run a few barriers while the workers hammer the runtime.
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            rt.defragment(None);
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            assert!(w.join().unwrap() > 0);
        }
        assert_eq!(rt.live_handles(), 0);
        assert!(rt.stats().barriers >= 5);
    }
}
