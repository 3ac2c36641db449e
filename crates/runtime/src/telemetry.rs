//! Runtime-side telemetry wiring.
//!
//! `RuntimeTelemetry` is created once, when a hub is installed via
//! `Runtime::install_telemetry`, and caches `Arc` handles to every metric the
//! runtime records.  Instrumentation sites therefore cost one `OnceLock` load
//! and an untaken branch when no hub is installed, and never perform a
//! by-name registry lookup on a recording path.
//!
//! All recording happens on paths that are already cold — barrier completion,
//! defragmentation passes, handle faults — so the Figure 7 hot-path overhead
//! (checks and translations) is unchanged whether or not a hub is installed.

use alaska_telemetry::{Event, Gauge, Histogram, Telemetry, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::service::DefragOutcome;

/// Metric names published by the runtime (stable, used by harnesses/tests).
pub mod names {
    /// Histogram of total world-stopped time per barrier, in nanoseconds.
    pub const BARRIER_PAUSE_NS: &str = "alaska_barrier_pause_ns";
    /// Histogram of time the initiator waited for threads to park, in
    /// nanoseconds.
    pub const BARRIER_STOP_WAIT_NS: &str = "alaska_barrier_stop_wait_ns";
    /// Histogram of bytes copied per defragmentation pass.
    pub const DEFRAG_BYTES_MOVED: &str = "alaska_defrag_bytes_moved";
    /// Histogram of bytes released to the kernel per defragmentation pass.
    pub const DEFRAG_BYTES_RELEASED: &str = "alaska_defrag_bytes_released";
    /// Gauge of the address space's resident set size, in bytes.
    pub const RSS_BYTES: &str = "alaska_rss_bytes";
    /// Gauge of the installed service's fragmentation ratio.
    pub const FRAGMENTATION_RATIO: &str = "alaska_fragmentation_ratio";
    /// Gauge of live handles in the handle table.
    pub const LIVE_HANDLES: &str = "alaska_live_handles";
    /// Counter of contended handle-table lock acquisitions (mirrors
    /// `StatsSnapshot::shard_lock_contention`).
    pub const SHARD_LOCK_CONTENTION: &str = "alaska_shard_lock_contention";
    /// Counter of per-thread free-ID magazine refills (mirrors
    /// `StatsSnapshot::magazine_refills`).
    pub const MAGAZINE_REFILLS: &str = "alaska_magazine_refills";
    /// Counter of per-thread free-ID magazine flushes (mirrors
    /// `StatsSnapshot::magazine_flushes`).
    pub const MAGAZINE_FLUSHES: &str = "alaska_magazine_flushes";
    /// Counter of translations served on the lock-free fast path (total
    /// translations minus handle faults).
    pub const FAST_PATH_TRANSLATIONS: &str = "alaska_fast_path_translations";
    /// Histogram of nanoseconds spent planning the evacuation per defrag pass.
    pub const DEFRAG_PLAN_NS: &str = "alaska_defrag_phase_plan_ns";
    /// Histogram of nanoseconds spent copying batches per defrag pass.
    pub const DEFRAG_COPY_NS: &str = "alaska_defrag_phase_copy_ns";
    /// Histogram of nanoseconds spent committing bookkeeping per defrag pass.
    pub const DEFRAG_COMMIT_NS: &str = "alaska_defrag_phase_commit_ns";
}

/// Resolved metric handles for the runtime's instrumentation sites.
#[derive(Debug)]
pub(crate) struct RuntimeTelemetry {
    pub(crate) hub: Arc<Telemetry>,
    pause_ns: Arc<Histogram>,
    stop_wait_ns: Arc<Histogram>,
    defrag_bytes_moved: Arc<Histogram>,
    defrag_bytes_released: Arc<Histogram>,
    defrag_plan_ns: Arc<Histogram>,
    defrag_copy_ns: Arc<Histogram>,
    defrag_commit_ns: Arc<Histogram>,
    rss_bytes: Arc<Gauge>,
    fragmentation: Arc<Gauge>,
    /// Safepoint-poll total as of the previous barrier, for batched
    /// `SafepointBatch` events (polls are far too hot to trace one by one).
    last_safepoint_polls: AtomicU64,
}

impl RuntimeTelemetry {
    /// Resolve all metric handles against `hub`'s registry.
    pub(crate) fn new(hub: Arc<Telemetry>) -> Self {
        let registry = hub.registry();
        RuntimeTelemetry {
            pause_ns: registry.histogram(names::BARRIER_PAUSE_NS),
            stop_wait_ns: registry.histogram(names::BARRIER_STOP_WAIT_NS),
            defrag_bytes_moved: registry.histogram(names::DEFRAG_BYTES_MOVED),
            defrag_bytes_released: registry.histogram(names::DEFRAG_BYTES_RELEASED),
            defrag_plan_ns: registry.histogram(names::DEFRAG_PLAN_NS),
            defrag_copy_ns: registry.histogram(names::DEFRAG_COPY_NS),
            defrag_commit_ns: registry.histogram(names::DEFRAG_COMMIT_NS),
            rss_bytes: registry.gauge(names::RSS_BYTES),
            fragmentation: registry.gauge(names::FRAGMENTATION_RATIO),
            last_safepoint_polls: AtomicU64::new(0),
            hub,
        }
    }

    /// Record one completed barrier: pause-time histograms plus the
    /// begin/end/safepoint-batch events.
    pub(crate) fn record_barrier(&self, stop_wait_ns: u64, pause_ns: u64, total_polls: u64) {
        self.stop_wait_ns.record(stop_wait_ns);
        self.pause_ns.record(pause_ns);
        self.hub.emit(Event::BarrierBegin { stop_wait_ns });
        self.hub.emit(Event::BarrierEnd { pause_ns });
        let last = self.last_safepoint_polls.swap(total_polls, Ordering::Relaxed);
        let polls = total_polls.saturating_sub(last);
        if polls > 0 {
            self.hub.emit(Event::SafepointBatch { polls });
        }
    }

    /// Record one completed defragmentation pass and refresh the heap gauges.
    pub(crate) fn record_defrag(
        &self,
        budget_bytes: Option<u64>,
        outcome: &DefragOutcome,
        rss_bytes: u64,
        fragmentation: f64,
    ) {
        self.defrag_bytes_moved.record(outcome.bytes_moved);
        self.defrag_bytes_released.record(outcome.bytes_released);
        self.defrag_plan_ns.record(outcome.plan_ns);
        self.defrag_copy_ns.record(outcome.copy_ns);
        self.defrag_commit_ns.record(outcome.commit_ns);
        self.rss_bytes.set_u64(rss_bytes);
        self.fragmentation.set(fragmentation);
        self.hub.emit(Event::DefragPass {
            budget_bytes: budget_bytes.unwrap_or(u64::MAX),
            bytes_moved: outcome.bytes_moved,
            bytes_released: outcome.bytes_released,
            objects_moved: outcome.objects_moved,
        });
    }

    /// Record a handle fault (already the cold translation branch).
    pub(crate) fn record_handle_fault(&self, handle_id: u64) {
        self.hub.emit(Event::HandleFault { handle_id });
    }

    /// Record an aborted stop-the-world attempt (straggler watchdog fired).
    pub(crate) fn record_barrier_abort(&self, stragglers: u64, attempt: u64) {
        self.hub.emit(Event::BarrierAbort { stragglers, attempt });
    }

    /// Record a detected handle lifecycle violation (`kind`: 0 = double free,
    /// 1 = use-after-free).
    pub(crate) fn record_lifecycle_fault(&self, handle_id: u64, kind: u64) {
        self.hub.emit(Event::LifecycleFault { handle_id, kind });
    }

    /// Record one pass of the allocation pressure recovery loop.
    pub(crate) fn record_alloc_pressure(&self, requested: u64, shed_bytes: u64, attempt: u64) {
        self.hub.emit(Event::AllocPressure { requested, shed_bytes, attempt });
    }
}
