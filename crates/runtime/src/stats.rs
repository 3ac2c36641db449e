//! Runtime event counters.
//!
//! Every dynamic event the paper's evaluation reasons about — handle checks,
//! translations, pins, safepoint polls, barriers, object moves — is counted
//! here with relaxed atomics so the figure harnesses can report them without
//! perturbing the measured behaviour.
//!
//! [`RuntimeStats`] (atomic counters) and [`StatsSnapshot`] (plain `u64`
//! copies) are generated from a single field list by `define_stats!`, so the
//! two types can never drift apart: adding a counter automatically extends
//! the snapshot, the delta arithmetic and the telemetry export.

use alaska_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Define [`RuntimeStats`] and [`StatsSnapshot`] from one field list.
///
/// For each `name: doc` entry this generates an `AtomicU64` field on
/// `RuntimeStats`, a `u64` field on `StatsSnapshot`, a line in
/// [`RuntimeStats::snapshot`], a line in [`StatsSnapshot::since`] and a
/// `alaska_<name>` counter in [`RuntimeStats::publish`].
macro_rules! define_stats {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Monotonic counters describing runtime activity.
        #[derive(Debug, Default)]
        pub struct RuntimeStats {
            $(
                $(#[$doc])*
                pub $name: AtomicU64,
            )+
        }

        /// A plain-old-data snapshot of [`RuntimeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(
                $(#[$doc])*
                pub $name: u64,
            )+
        }

        impl RuntimeStats {
            /// Take a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Mirror every counter into `registry` as `alaska_<name>`.
            ///
            /// Counters are *stored*, not added, so repeated publishes are
            /// idempotent and the registry always reflects the latest totals.
            pub fn publish(&self, registry: &Registry) {
                $(
                    registry
                        .counter(concat!("alaska_", stringify!($name)))
                        .store(self.$name.load(Ordering::Relaxed));
                )+
            }
        }

        impl StatsSnapshot {
            /// Difference between two snapshots (`self` taken after `earlier`).
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name - earlier.$name,)+
                }
            }

            /// Mirror every counter of this snapshot into `registry` as
            /// `alaska_<name>` (same contract as [`RuntimeStats::publish`]).
            /// Used when the caller has already folded per-thread counters
            /// into the snapshot and wants the folded totals exported.
            pub fn publish(&self, registry: &Registry) {
                $(
                    registry
                        .counter(concat!("alaska_", stringify!($name)))
                        .store(self.$name);
                )+
            }
        }
    };
}

define_stats! {
    /// `halloc` calls served.
    hallocs,
    /// `hfree` calls served.
    hfrees,
    /// Handle checks executed (the `cmp`/branch before a potential translation).
    handle_checks,
    /// Translations that actually indexed the handle table (value was a handle).
    translations,
    /// Values that passed through untouched because they were raw pointers.
    pointer_passthroughs,
    /// Native pin operations.
    pins,
    /// Native unpin operations.
    unpins,
    /// Stop-the-world barriers executed.
    barriers,
    /// Total nanoseconds the world was stopped across all barriers.
    barrier_ns,
    /// Objects moved by services during barriers.
    objects_moved,
    /// Bytes copied by services during barriers.
    bytes_moved,
    /// Bytes of physical memory services returned to the kernel.
    bytes_released,
    /// Defragmentation passes completed.
    defrag_passes,
    /// Handle faults taken (invalid-entry accesses with faults enabled).
    handle_faults,
    /// Safepoint polls executed across all threads.
    safepoint_polls,
    /// Times an acquisition of the handle-table lock found it contended.
    /// The name is older than the table's single lock.
    shard_lock_contention,
    /// Per-thread free-ID magazine refills (batch reservations from the table).
    magazine_refills,
    /// Per-thread free-ID magazine flushes (batch returns to the table).
    magazine_flushes,
    /// Double frees detected by the poisoned-entry state machine.
    double_frees_detected,
    /// Use-after-free translate attempts detected on poisoned entries.
    use_after_frees_detected,
    /// Stop-the-world attempts aborted by the straggler watchdog (each is
    /// retried with backoff).
    barrier_aborts,
    /// Times a failed backing allocation entered the pressure recovery loop.
    alloc_pressure_events,
    /// Pressure recoveries that ended with the allocation succeeding.
    alloc_pressure_recoveries,
    /// Nanoseconds spent in the defrag plan phase across all passes.
    defrag_plan_ns,
    /// Nanoseconds spent in the defrag copy phase across all passes.
    defrag_copy_ns,
    /// Nanoseconds spent in the defrag commit phase across all passes.
    defrag_commit_ns,
    /// Coalesced copy batches executed across all defrag passes.
    defrag_copy_batches,
}

impl RuntimeStats {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_captures_counters() {
        let s = RuntimeStats::new();
        RuntimeStats::bump(&s.hallocs);
        RuntimeStats::add(&s.bytes_moved, 100);
        let snap = s.snapshot();
        assert_eq!(snap.hallocs, 1);
        assert_eq!(snap.bytes_moved, 100);
        assert_eq!(snap.hfrees, 0);
    }

    #[test]
    fn since_computes_deltas() {
        let s = RuntimeStats::new();
        RuntimeStats::bump(&s.translations);
        let a = s.snapshot();
        RuntimeStats::add(&s.translations, 5);
        RuntimeStats::bump(&s.barriers);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.translations, 5);
        assert_eq!(d.barriers, 1);
        assert_eq!(d.hallocs, 0);
    }

    #[test]
    fn publish_mirrors_every_counter_into_a_registry() {
        let s = RuntimeStats::new();
        RuntimeStats::add(&s.translations, 7);
        RuntimeStats::add(&s.bytes_released, 4096);
        let registry = Registry::new();
        s.publish(&registry);
        assert_eq!(registry.counter("alaska_translations").get(), 7);
        assert_eq!(registry.counter("alaska_bytes_released").get(), 4096);
        assert_eq!(registry.counter("alaska_barriers").get(), 0);
        // One registry entry per stats field, never fewer (drift guard).
        let fields = format!("{:?}", s.snapshot()).matches(':').count();
        assert_eq!(registry.len(), fields);

        // Re-publishing stores rather than accumulates.
        s.publish(&registry);
        assert_eq!(registry.counter("alaska_translations").get(), 7);
    }
}
