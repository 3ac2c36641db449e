//! The names, units and directions of every metric the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! (`tests::benchmark_json_lists_exactly_these_metrics` in `main.rs`) fails
//! when the two drift apart.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// Metrics a user of the system sees.  Every workload reports every one of
/// them and none is ever 0; README.md says what each means per workload.
/// Each bound is about three times the widest run-to-run spread (inter-quartile
/// range over median, ten runs) seen on any workload on the shared reference
/// host — for the three timings that reaches the largest bound allowed, which
/// `setup_s` takes too.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("op_p99_us", "us", Better::Lower, 0.25),
    e2e("rss_per_live_byte", "ratio", Better::Lower, 0.04),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Metrics of single layers, plus the headline numbers that exist on only
/// some workloads (those read 0 where they do not apply).
pub const PER_LAYER: &[MetricDef] = &[
    // -- headline numbers of single workloads --------------------------------
    lo("pause_p50_us", "us"),
    lo("pause_p95_us", "us"),
    hi("rss_saved_pct", "%"),
    lo("slowdown_vs_malloc_x", "x"),
    lo("modelled_overhead_geomean_pct", "%"),
    lo("code_growth_geomean_x", "x"),
    lo("failed_ops_share", "share"),
    lo("trace.overhead_pct", "%"),
    // -- runtime: isolated loops ---------------------------------------------
    lo("runtime.translate_ns", "ns"),
    lo("runtime.translate_raw_ns", "ns"),
    lo("runtime.translate_faultcheck_ns", "ns"),
    lo("runtime.pin_unpin_ns", "ns"),
    lo("runtime.safepoint_ns", "ns"),
    lo("runtime.read_bytes_128_ns", "ns"),
    lo("runtime.write_bytes_128_ns", "ns"),
    lo("runtime.read_u64_ns", "ns"),
    lo("runtime.halloc_hfree_64_malloc_ns", "ns"),
    lo("runtime.halloc_hfree_64_anchorage_ns", "ns"),
    lo("runtime.halloc_hfree_burst16_ns", "ns"),
    lo("runtime.hrealloc_grow_ns", "ns"),
    lo("runtime.pin_frame_roundtrip_ns", "ns"),
    lo("runtime.barrier_empty_t1_us", "us"),
    lo("runtime.barrier_empty_t2_us", "us"),
    hi("runtime.translate_t2_mops", "Mops/s"),
    hi("runtime.translate_scaling_t2_x", "x"),
    hi("runtime.halloc_hfree_t2_mops", "Mops/s"),
    lo("runtime.stats_snapshot_us", "us"),
    lo("runtime.verify_invariants_ms", "ms"),
    // -- runtime: counts around the workload ---------------------------------
    lo("runtime.stop_wait_us_per_pause", "us"),
    lo("runtime.handle_table_bytes", "bytes"),
    lo("runtime.translations_per_kop", "count"),
    lo("runtime.pins_per_kop", "count"),
    lo("runtime.safepoint_polls_per_kop", "count"),
    lo("runtime.hallocs_per_kop", "count"),
    lo("runtime.magazine_refills", "count"),
    lo("runtime.shard_lock_contention", "count"),
    lo("runtime.barriers", "count"),
    lo("runtime.barrier_aborts", "count"),
    lo("runtime.pause_p99_us", "us"),
    lo("runtime.pause_max_us", "us"),
    // -- heap ------------------------------------------------------------------
    lo("heap.vmem_read_128_ns", "ns"),
    lo("heap.vmem_write_128_ns", "ns"),
    lo("heap.vmem_read_u64_ns", "ns"),
    hi("heap.vmem_read_t2_mops", "Mops/s"),
    hi("heap.vmem_read_scaling_t2_x", "x"),
    hi("heap.vmem_mixed_rw_t2_mops", "Mops/s"),
    lo("heap.vmem_copy_4k_ns", "ns"),
    hi("heap.vmem_copy_mb_s", "MB/s"),
    lo("heap.vmem_madvise_us", "us"),
    lo("heap.vmem_first_touch_ns", "ns"),
    lo("heap.freelist_alloc_free_ns", "ns"),
    lo("heap.mesh_alloc_free_ns", "ns"),
    lo("heap.pages_committed", "count"),
    lo("heap.pages_decommitted", "count"),
    lo("heap.madvise_calls", "count"),
    lo("heap.peak_rss_bytes", "bytes"),
    // -- anchorage ---------------------------------------------------------------
    lo("anchorage.alloc_free_ns", "ns"),
    lo("anchorage.subheap_alloc_free_ns", "ns"),
    lo("anchorage.control_tick_idle_ns", "ns"),
    lo("anchorage.plan_us_per_pass", "us"),
    lo("anchorage.copy_us_per_pass", "us"),
    lo("anchorage.commit_us_per_pass", "us"),
    hi("anchorage.copy_mb_s", "MB/s"),
    hi("anchorage.objects_per_batch", "count"),
    hi("anchorage.copy_workers", "count"),
    hi("anchorage.bytes_released_per_pass", "bytes"),
    lo("anchorage.moved_bytes_per_released_byte", "ratio"),
    lo("anchorage.passes", "count"),
    lo("anchorage.passes_no_progress", "count"),
    hi("anchorage.passes_with_moves_share", "share"),
    lo("anchorage.objects_skipped_pinned", "count"),
    lo("anchorage.subheaps_peak", "count"),
    // -- kvstore -----------------------------------------------------------------
    lo("kvstore.sharded_get_ns", "ns"),
    lo("kvstore.sharded_set_inplace_ns", "ns"),
    lo("kvstore.sharded_set_resize_ns", "ns"),
    hi("kvstore.sharded_get_t2_mops", "Mops/s"),
    lo("kvstore.self_ns_per_get", "ns"),
    lo("kvstore.redis_set_ns", "ns"),
    lo("kvstore.redis_get_ns", "ns"),
    lo("kvstore.redis_set_evicting_ns", "ns"),
    lo("kvstore.redis_evictions", "count"),
    lo("kvstore.op_p999_us", "us"),
    // -- compiler / ir / benchsuite ----------------------------------------------
    lo("compiler.compile_all_ms", "ms"),
    lo("compiler.alloc_replace_ms", "ms"),
    lo("compiler.translate_insert_ms", "ms"),
    lo("compiler.escape_ms", "ms"),
    lo("compiler.tracking_ms", "ms"),
    lo("compiler.safepoints_ms", "ms"),
    lo("compiler.dce_ms", "ms"),
    lo("compiler.translations_static", "count"),
    hi("compiler.hoisted_translations", "count"),
    lo("compiler.pin_slots", "count"),
    lo("compiler.safepoints_static", "count"),
    lo("ir.translations_dynamic", "count"),
    lo("ir.pins_dynamic", "count"),
    lo("ir.safepoints_dynamic", "count"),
    lo("ir.instructions_dynamic", "count"),
    hi("ir.interp_minstr_s_untransformed", "Minstr/s"),
    lo("ir.verify_all_ms", "ms"),
    lo("ir.liveness_all_ms", "ms"),
    lo("ir.dom_loops_all_ms", "ms"),
    lo("benchsuite.build_all_ms", "ms"),
    lo("benchsuite.baseline_cycles", "count"),
    // -- telemetry / faultline ---------------------------------------------------
    lo("telemetry.counter_inc_ns", "ns"),
    lo("telemetry.histogram_record_ns", "ns"),
    lo("telemetry.hub_get_overhead_ns", "ns"),
    lo("faultline.hit_unarmed_ns", "ns"),
];

pub const WORKLOADS: &[&str] = &["kv_read_heavy", "kv_pause", "kv_churn", "compile_run"];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The value of `def` in `values`; a per-layer metric nothing measured reads 0.
pub fn value_of(values: &Values, def: &MetricDef) -> f64 {
    values.get(def.name).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "no metric has a larger bound than setup_s");
    }
}
