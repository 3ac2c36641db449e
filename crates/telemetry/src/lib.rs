//! **alaska-telemetry** — always-on, low-overhead observability primitives for
//! the Alaska runtime and the Anchorage allocator service.
//!
//! The paper's entire evaluation (Figures 7–12) is a story told through
//! runtime events: handle checks, translations, barrier pauses, bytes moved,
//! RSS released.  Flat monotonic counters (`alaska_runtime::stats`) can
//! reproduce the totals but not the *distributions* (p50/p99/max pause,
//! per-pass defragmentation yield) or the *time series* (fragmentation ratio,
//! RSS over a run).  This crate supplies the missing layer:
//!
//! * [`Histogram`] — a lock-free log-linear (HDR-style) histogram over
//!   relaxed atomics, with `merge` and p50/p90/p99/max queries.  Relative
//!   quantile error is bounded by the sub-bucket resolution (≈ 3%).
//! * [`Counter`] / [`Gauge`] — single-word relaxed-atomic metrics, safe to
//!   bump from any thread without perturbing the measured hot path.
//! * [`TelemetryRing`] + [`Event`] — a bounded structured event trace:
//!   barrier begin/end, defragmentation passes (budget, bytes moved, bytes
//!   released), sub-heap open/rotate, handle faults and safepoint-poll
//!   batches, each stamped with nanoseconds since the hub's epoch.
//! * [`Registry`] — named get-or-create metric storage whose
//!   [`RegistrySnapshot`] exports JSON Lines.
//! * [`Telemetry`] — the hub tying a registry, a ring and an epoch together;
//!   it implements [`TelemetrySink`] so instrumented components can hold a
//!   `dyn` sink.  [`NoopSink`] is the zero-cost default: when no hub is
//!   installed, instrumentation sites reduce to one atomic load and an
//!   untaken branch, leaving the Figure 7 overhead numbers untouched.
//!
//! # Example
//!
//! ```
//! use alaska_telemetry::{Event, Telemetry, TelemetrySink};
//! use std::sync::Arc;
//!
//! let hub = Arc::new(Telemetry::new());
//! let pauses = hub.registry().histogram("alaska_barrier_pause_ns");
//! for pause in [120_000u64, 250_000, 90_000] {
//!     pauses.record(pause);
//!     hub.emit(Event::BarrierEnd { pause_ns: pause });
//! }
//! assert_eq!(pauses.count(), 3);
//! assert!(pauses.percentile(50.0) >= 90_000);
//! let snapshot = hub.registry().snapshot();
//! assert!(snapshot.to_jsonl().contains("\"name\":\"alaska_barrier_pause_ns\""));
//! assert_eq!(hub.ring().len(), 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod histogram;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod ring;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricValue, Registry, RegistrySnapshot};
pub use ring::{Event, EventRecord, TelemetryRing};

use std::sync::Arc;
use std::time::Instant;

/// A destination for structured telemetry events.
///
/// Instrumented components hold a sink (usually behind `OnceLock`/`Option`)
/// and call [`TelemetrySink::emit`] at event sites.  The default
/// implementation of every method is a no-op, so [`NoopSink`] — and any sink
/// that only overrides what it needs — costs nothing beyond the virtual call,
/// and an *uninstalled* sink costs only the branch that finds it absent.
pub trait TelemetrySink: Send + Sync {
    /// Record a structured event.
    fn emit(&self, _event: Event) {}

    /// Whether events are actually recorded (lets hot paths skip building
    /// event payloads for a disabled sink).
    fn is_enabled(&self) -> bool {
        false
    }
}

/// The do-nothing default sink: telemetry disabled, zero recording cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

/// The telemetry hub: a [`Registry`] of metrics, a [`TelemetryRing`] of
/// structured events and the epoch their timestamps are relative to.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
    ring: TelemetryRing,
    epoch: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Create a hub with the default event-ring capacity (4096 events).
    pub fn new() -> Self {
        Self::with_ring_capacity(4096)
    }

    /// Create a hub whose event ring holds at most `events` entries.
    pub fn with_ring_capacity(events: usize) -> Self {
        Telemetry {
            registry: Registry::new(),
            ring: TelemetryRing::new(events),
            epoch: Instant::now(),
        }
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event ring.
    pub fn ring(&self) -> &TelemetryRing {
        &self.ring
    }

    /// Nanoseconds elapsed since this hub was created (the timestamp base of
    /// every ring event).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Snapshot the registry (shorthand for `registry().snapshot()`).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

impl TelemetrySink for Telemetry {
    fn emit(&self, event: Event) {
        self.ring.push(self.now_ns(), event);
    }

    fn is_enabled(&self) -> bool {
        true
    }
}

impl TelemetrySink for Arc<Telemetry> {
    fn emit(&self, event: Event) {
        (**self).emit(event);
    }

    fn is_enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_timestamps_events_monotonically() {
        let hub = Telemetry::new();
        hub.emit(Event::BarrierBegin { stop_wait_ns: 10 });
        hub.emit(Event::BarrierEnd { pause_ns: 500 });
        let events = hub.ring().snapshot();
        assert_eq!(events.len(), 2);
        assert!(events[0].at_ns <= events[1].at_ns);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.is_enabled());
        sink.emit(Event::HandleFault { handle_id: 3 }); // must not panic
    }

    #[test]
    fn hub_sink_is_enabled() {
        let hub = Arc::new(Telemetry::new());
        assert!(TelemetrySink::is_enabled(&hub));
        let dyn_sink: &dyn TelemetrySink = &hub;
        dyn_sink.emit(Event::SafepointBatch { polls: 7 });
        assert_eq!(hub.ring().len(), 1);
    }
}
