//! End-to-end observability tests: the telemetry crate wired through the
//! runtime, Anchorage and the compiler pipeline, as a harness would use it.

use alaska::telemetry::{MetricValue, Telemetry};
use alaska::{AlaskaBuilder, PipelineConfig};
use alaska_benchsuite::harness::measure_benchmark;
use alaska_benchsuite::{find_benchmark, Scale};
use alaska_runtime::telemetry_names;
use std::sync::Arc;

fn fragmented_runtime(hub: Option<Arc<Telemetry>>) -> alaska::Runtime {
    let mut b = AlaskaBuilder::new().with_anchorage();
    if let Some(hub) = hub {
        b = b.with_telemetry(hub);
    }
    let rt = b.build();
    let handles: Vec<u64> = (0..2000)
        .map(|i| {
            let h = rt.halloc(256).unwrap();
            rt.write_u64(h, 0, i);
            h
        })
        .collect();
    for (i, h) in handles.iter().enumerate() {
        if i % 4 != 0 {
            rt.hfree(*h).unwrap();
        }
    }
    rt
}

/// The headline acceptance path: after a defragmentation pass under Anchorage,
/// the barrier pause-time histogram in the registry is populated, the defrag
/// pass shows up in the event ring, and both exporters carry the data.
#[test]
fn defragment_populates_pause_histograms_and_the_event_trace() {
    let hub = Arc::new(Telemetry::new());
    let rt = fragmented_runtime(Some(hub.clone()));
    let outcome = rt.defragment(None);
    assert!(outcome.objects_moved > 0, "setup must actually defragment");

    let snap = hub.registry().snapshot();
    let pauses = match snap.get(telemetry_names::BARRIER_PAUSE_NS) {
        Some(MetricValue::Histogram(h)) => *h,
        other => panic!("expected a pause histogram, got {other:?}"),
    };
    assert!(pauses.count >= 1, "one barrier ran, so one pause must be recorded");
    assert!(pauses.max > 0, "a stop-the-world pause takes nonzero time");
    assert!(pauses.p50 <= pauses.p90 && pauses.p90 <= pauses.p99 && pauses.p99 <= pauses.max);

    match snap.get(telemetry_names::DEFRAG_BYTES_MOVED) {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.sum, outcome.bytes_moved),
        other => panic!("expected a bytes-moved histogram, got {other:?}"),
    }
    match snap.get(telemetry_names::FRAGMENTATION_RATIO) {
        Some(MetricValue::Gauge(v)) => assert!(*v >= 1.0, "fragmentation ratio is >= 1"),
        other => panic!("expected a fragmentation gauge, got {other:?}"),
    }

    let events = hub.ring().to_jsonl();
    assert!(events.contains("\"event\":\"barrier_begin\""));
    assert!(events.contains("\"event\":\"barrier_end\""));
    assert!(events.contains("\"event\":\"defrag_pass\""));

    // The JSONL export carries the pause histogram.
    let jsonl = snap.to_jsonl();
    assert!(jsonl.contains("\"name\":\"alaska_barrier_pause_ns\""));
}

/// `Runtime::publish_telemetry` mirrors the `RuntimeStats` counters and heap
/// gauges into the registry, so one snapshot has the whole picture.
#[test]
fn publish_telemetry_mirrors_stats_counters() {
    let hub = Arc::new(Telemetry::new());
    let rt = fragmented_runtime(Some(hub.clone()));
    rt.defragment(None);
    rt.publish_telemetry();

    let snap = hub.registry().snapshot();
    let stats = rt.stats();
    match snap.get("alaska_hallocs") {
        Some(MetricValue::Counter(v)) => assert_eq!(*v, stats.hallocs),
        other => panic!("expected hallocs counter, got {other:?}"),
    }
    match snap.get("alaska_defrag_passes") {
        Some(MetricValue::Counter(v)) => assert_eq!(*v, 1),
        other => panic!("expected defrag_passes counter, got {other:?}"),
    }
    match snap.get(telemetry_names::LIVE_HANDLES) {
        Some(MetricValue::Gauge(v)) => assert_eq!(*v, rt.live_handles() as f64),
        other => panic!("expected live-handle gauge, got {other:?}"),
    }
}

/// With no hub installed, instrumentation must not change observable behaviour:
/// the same workload produces identical stats counters, and the Figure 7
/// modelled-cycle measurement is byte-for-byte reproducible (the interpreter's
/// cost model never sees telemetry at all).
#[test]
fn uninstrumented_runs_are_unchanged() {
    let with_hub = fragmented_runtime(Some(Arc::new(Telemetry::new())));
    let without_hub = fragmented_runtime(None);
    let a = with_hub.defragment(None);
    let b = without_hub.defragment(None);
    // Phase timings (`plan_ns`/`copy_ns`/`commit_ns`) are wall clock and
    // never reproduce exactly; every deterministic field must.
    assert_eq!(a.objects_moved, b.objects_moved, "telemetry must not perturb defragmentation");
    assert_eq!(a.bytes_moved, b.bytes_moved);
    assert_eq!(a.bytes_released, b.bytes_released);
    assert_eq!(a.objects_skipped_pinned, b.objects_skipped_pinned);
    assert_eq!(a.copy_batches, b.copy_batches, "batch coalescing must be deterministic");
    assert_eq!(a.copy_workers, b.copy_workers);
    let sa = with_hub.stats();
    let sb = without_hub.stats();
    assert_eq!(sa.objects_moved, sb.objects_moved);
    assert_eq!(sa.bytes_released, sb.bytes_released);

    // Fig-7-style measurement is deterministic; telemetry has no hook in the
    // interpreter, so two measurements agree exactly on modelled cycles.
    let bench = find_benchmark("crc32").unwrap();
    let r1 = measure_benchmark(&bench, &[PipelineConfig::full()], Scale(0.03));
    let r2 = measure_benchmark(&bench, &[PipelineConfig::full()], Scale(0.03));
    assert_eq!(r1.baseline_cycles, r2.baseline_cycles);
    assert_eq!(
        r1.config("alaska").unwrap().cycles,
        r2.config("alaska").unwrap().cycles,
        "modelled-cycle overheads are unaffected by the telemetry subsystem"
    );
}
