//! Thread registration and per-thread runtime state.
//!
//! Every thread that touches handle-allocated memory is registered with the
//! runtime it talks to, and the registration has two sides:
//!
//! * [`ThreadState`], shared with barrier initiators and `stats` readers: the
//!   thread's pin stack ([`crate::pinset`]), whether it is parked at a
//!   safepoint or executing *external* (non-Alaska) code, and its event
//!   counters ([`ThreadHotStats`]).  The barrier (paper §4.1.3) needs two
//!   facts per thread — "is it stopped somewhere its pins are valid?" and
//!   "which handles does it pin?" — and reads both here.  The owner is the
//!   only writer, so it writes with plain loads and stores: no lock, no
//!   read-modify-write.
//! * [`ThreadCtx`], which never leaves the thread: the **free-ID magazine**,
//!   a small LIFO of handle-table IDs reserved from the table in batches, so
//!   the common `halloc`/`hfree` touches no table lock.  Nobody else ever
//!   looks at it, so it is a plain `RefCell`.
//!
//! [`with_current`] resolves the calling thread's context once per runtime
//! operation and lends it out; the hot path clones no `Arc`.

use crate::pinset::PinSlots;
use crate::stats::{RuntimeStats, StatsSnapshot};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier assigned to a registered thread.
pub type RuntimeThreadId = u64;

/// Define [`ThreadHotStats`] — one owner-bumped counter per name — with its
/// fold and flush into the like-named [`StatsSnapshot`]/[`RuntimeStats`]
/// fields.
macro_rules! hot_counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Per-thread counters for events too hot to share a cache line
        /// across cores, bumped by their owner alone.  Folded into
        /// [`StatsSnapshot`] on demand and flushed into the global
        /// [`RuntimeStats`] when the thread unregisters.
        #[derive(Debug, Default)]
        pub struct ThreadHotStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        impl ThreadHotStats {
            /// Add this thread's counters into a snapshot being assembled.
            pub fn fold_into(&self, snap: &mut StatsSnapshot) {
                $(snap.$name += self.$name.load(Ordering::Relaxed);)+
            }

            /// Drain this thread's counters into the global stats (on
            /// unregister), so totals survive thread exit.
            pub fn flush_into(&self, global: &RuntimeStats) {
                $(RuntimeStats::add(&global.$name, self.$name.swap(0, Ordering::Relaxed));)+
            }
        }
    };
}

hot_counters! {
    /// `halloc` calls served on this thread.
    hallocs,
    /// `hfree` calls served on this thread.
    hfrees,
    /// Handle checks executed on this thread.
    handle_checks,
    /// Translations that indexed the handle table on this thread.
    translations,
    /// Raw-pointer pass-throughs on this thread.
    pointer_passthroughs,
    /// Native pin operations on this thread.
    pins,
    /// Native unpin operations on this thread.
    unpins,
    /// Safepoint polls executed by this thread.
    safepoint_polls,
    /// Times this thread's magazine refilled from the handle table.
    magazine_refills,
    /// Times this thread's magazine flushed surplus IDs back to the table.
    magazine_flushes,
}

impl ThreadHotStats {
    /// Owner-only increment: a load and a store, not a locked
    /// read-modify-write — there is no second writer to lose an update to.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// The side of a registration shared between the thread itself and the
/// barrier coordinator.
#[derive(Debug)]
pub struct ThreadState {
    /// Registration ID.
    pub id: RuntimeThreadId,
    /// The thread's pin stack (owner-written, see [`crate::pinset`]).
    pub pins: PinSlots,
    /// True while the thread is blocked at a safepoint during a barrier.
    pub parked: AtomicBool,
    /// True while the thread is executing external (non-handle-aware) code —
    /// such threads need not reach a safepoint for a barrier to proceed
    /// because no pins can exist "below" the external call (§4.1.3).
    pub in_external: AtomicBool,
    /// Thread-private event counters (see [`ThreadHotStats`]).
    pub hot: ThreadHotStats,
}

impl ThreadState {
    /// Create state for a newly registered thread.
    pub fn new(id: RuntimeThreadId) -> Arc<Self> {
        Arc::new(ThreadState {
            id,
            pins: PinSlots::default(),
            parked: AtomicBool::new(false),
            in_external: AtomicBool::new(false),
            hot: ThreadHotStats::default(),
        })
    }

    /// Whether the barrier coordinator may treat this thread as stopped.
    pub fn is_stoppable(&self) -> bool {
        self.parked.load(Ordering::Acquire) || self.in_external.load(Ordering::Acquire)
    }
}

/// The set of threads currently registered with a runtime.
#[derive(Debug, Default)]
pub struct ThreadRegistry {
    threads: Mutex<Vec<Arc<ThreadState>>>,
    next_id: AtomicU64,
}

impl ThreadRegistry {
    /// Register a new thread and return its state.
    pub fn register(&self) -> Arc<ThreadState> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let state = ThreadState::new(id);
        self.threads.lock().push(state.clone());
        state
    }

    /// Remove a thread from the registry (its pins vanish with it), running
    /// `last_rites` on its state first, under the registry lock: a concurrent
    /// [`ThreadRegistry::with_all`] sees the thread either before or after
    /// both, never in between.
    pub fn unregister(&self, id: RuntimeThreadId, last_rites: impl FnOnce(&ThreadState)) {
        let mut threads = self.threads.lock();
        if let Some(pos) = threads.iter().position(|t| t.id == id) {
            last_rites(&threads[pos]);
            threads.remove(pos);
        }
    }

    /// Run `f` over the registered threads, under the registry lock.
    pub fn with_all<R>(&self, f: impl FnOnce(&[Arc<ThreadState>]) -> R) -> R {
        f(&self.threads.lock())
    }
}

/// The calling thread's own side of its registration with one runtime.
/// Dereferences to the shared [`ThreadState`].
#[derive(Debug)]
pub struct ThreadCtx {
    runtime: usize,
    shared: Arc<ThreadState>,
    /// Free-ID magazine: handle-table IDs reserved for this thread.
    pub magazine: RefCell<Vec<u32>>,
}

impl std::ops::Deref for ThreadCtx {
    type Target = ThreadState;
    fn deref(&self) -> &ThreadState {
        &self.shared
    }
}

/// This thread's contexts, one per runtime it has talked to.
struct ThreadTls {
    /// The context used last (a thread mostly talks to one runtime).  An
    /// operation *takes* it and puts it back when done, so nothing is
    /// borrowed while the operation runs: an operation nested inside
    /// another — on this or a different runtime — just misses the cache.
    current: Cell<Option<Rc<ThreadCtx>>>,
    all: RefCell<Vec<Rc<ThreadCtx>>>,
}

thread_local! {
    static TLS: ThreadTls =
        const { ThreadTls { current: Cell::new(None), all: RefCell::new(Vec::new()) } };
}

/// Run `f` with the calling thread's context for runtime `runtime`,
/// registering the thread with `registry` on first use.
#[inline]
pub fn with_current<R>(
    runtime: usize,
    registry: &ThreadRegistry,
    f: impl FnOnce(&ThreadCtx) -> R,
) -> R {
    let ctx = match TLS.with(|tls| tls.current.take()) {
        Some(ctx) if ctx.runtime == runtime => ctx,
        _ => find_or_register(runtime, registry),
    };
    let out = f(&ctx);
    TLS.with(|tls| tls.current.set(Some(ctx)));
    out
}

#[cold]
fn find_or_register(runtime: usize, registry: &ThreadRegistry) -> Rc<ThreadCtx> {
    TLS.with(|tls| {
        let mut all = tls.all.borrow_mut();
        // A context nobody else holds belongs to a runtime that is gone (or
        // that this thread left): drop it rather than collect them forever.
        all.retain(|ctx| Arc::strong_count(&ctx.shared) > 1);
        if let Some(ctx) = all.iter().find(|ctx| ctx.runtime == runtime) {
            return Rc::clone(ctx);
        }
        let shared = registry.register();
        all.push(Rc::new(ThreadCtx { runtime, shared, magazine: RefCell::default() }));
        Rc::clone(all.last().expect("just pushed"))
    })
}

/// Forget the calling thread's context for `runtime` (on unregister),
/// returning it if there was one.
pub fn take_current(runtime: usize) -> Option<Rc<ThreadCtx>> {
    TLS.with(|tls| {
        tls.current.set(tls.current.take().filter(|ctx| ctx.runtime != runtime));
        let mut all = tls.all.borrow_mut();
        let pos = all.iter().position(|ctx| ctx.runtime == runtime)?;
        Some(all.swap_remove(pos))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_ids() {
        let reg = ThreadRegistry::default();
        let a = reg.register();
        let b = reg.register();
        assert_ne!(a.id, b.id);
        assert_eq!(reg.with_all(|threads| threads.len()), 2);
    }

    #[test]
    fn unregister_removes_thread() {
        let reg = ThreadRegistry::default();
        let a = reg.register();
        let _b = reg.register();
        reg.unregister(a.id, |_| ());
        assert_eq!(reg.with_all(|threads| threads.len()), 1);
        assert!(reg.with_all(|threads| threads.iter().all(|t| t.id != a.id)));
    }

    #[test]
    fn stoppable_reflects_parked_and_external() {
        let t = ThreadState::new(0);
        assert!(!t.is_stoppable());
        t.parked.store(true, Ordering::Release);
        assert!(t.is_stoppable());
        t.parked.store(false, Ordering::Release);
        t.in_external.store(true, Ordering::Release);
        assert!(t.is_stoppable());
    }

    #[test]
    fn empty_registry_reports_empty() {
        let reg = ThreadRegistry::default();
        assert!(reg.with_all(|threads| threads.is_empty()));
    }

    #[test]
    fn hot_stats_fold_and_flush() {
        let t = ThreadState::new(7);
        t.hot.translations.store(5, Ordering::Relaxed);
        t.hot.magazine_refills.store(2, Ordering::Relaxed);

        let mut snap = StatsSnapshot { translations: 10, ..Default::default() };
        t.hot.fold_into(&mut snap);
        assert_eq!(snap.translations, 15);
        assert_eq!(snap.magazine_refills, 2);

        let global = RuntimeStats::new();
        RuntimeStats::bump(&global.translations);
        t.hot.flush_into(&global);
        assert_eq!(global.snapshot().translations, 6);
        assert_eq!(t.hot.translations.load(Ordering::Relaxed), 0, "flush drains");
    }
}
