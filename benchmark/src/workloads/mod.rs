//! The four workloads and what they share.
//!
//! Every workload is a closed loop (the next op is issued when the previous
//! one returns) driven from this process with at most two threads.  Ops are
//! generated in untimed batches and then executed timed, so generator cost is
//! never inside a reported number.  A pass is cut into homogeneous [`Unit`]s,
//! each with its own throughput and latency percentiles, and the reported
//! number is what the better tenth of the units reach (see
//! [`better_decile`]), which a noisy neighbour on the host moves far less
//! than it moves one stopwatch around the whole run.

pub mod compile_run;
pub mod kv_churn;
pub mod kv_sharded;

use crate::metrics::{Better, Values};
use crate::stats::{percentile_sorted, Latencies};
use crate::trace::{ThreadTracer, Trace};
use alaska_heap::vmem::VmStats;
use alaska_runtime::service::DefragOutcome;
use alaska_runtime::stats::StatsSnapshot;
use alaska_runtime::Runtime;
use std::time::Instant;

/// Ops per generated batch.
pub const BATCH_OPS: usize = 65_536;
/// One op in this many has its latency timed in an untraced run.
pub const LATENCY_SAMPLE_EVERY: usize = 16;
/// One `get` in this many has all its bytes compared (the rest: length and
/// stamp).
pub const FULL_CHECK_EVERY: usize = 64;
/// Set-ups per run; `setup_s` is their median.  A set-up takes 5-35 ms, short
/// enough for one preemption to add a third to it, so there are many.
pub const SETUP_REPEATS: usize = 25;

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops (or program runs) attempted, including the final verification sweep.
    pub attempted: u64,
    /// Ops that failed or returned a wrong answer.
    pub failed: u64,
    /// Reasons the run cannot be trusted (a worker panicked, a barrier was
    /// aborted by the watchdog, the handle table failed its invariants).
    pub invalid: Vec<String>,
    /// End-to-end and workload-level per-layer values by metric name.
    pub values: Values,
    /// Counts that must repeat exactly for the same seed and `--seconds`.
    pub exact: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// A tracer for thread `thread` when the pass is traced.
pub fn tracer_for(traced: bool, epoch: Instant, thread: usize) -> Option<ThreadTracer> {
    traced.then(|| ThreadTracer::new(epoch, thread as u16))
}

/// Sums over the `DefragOutcome`s of a pass, and the wall time of each call
/// as its caller saw it.
#[derive(Debug, Default, Clone)]
pub struct DefragTotals {
    pub pause_ns: Vec<u64>,
    pub plan_ns: u64,
    pub copy_ns: u64,
    pub commit_ns: u64,
    pub objects_moved: u64,
    pub bytes_moved: u64,
    pub bytes_released: u64,
    pub objects_skipped_pinned: u64,
    pub copy_batches: u64,
    pub copy_workers: u64,
    pub passes_with_moves: u64,
    pub passes_no_progress: u64,
}

impl DefragTotals {
    pub fn passes(&self) -> u64 {
        self.pause_ns.len() as u64
    }

    pub fn record(&mut self, wall_ns: u64, o: &DefragOutcome) {
        self.pause_ns.push(wall_ns);
        self.plan_ns += o.plan_ns;
        self.copy_ns += o.copy_ns;
        self.commit_ns += o.commit_ns;
        self.objects_moved += o.objects_moved;
        self.bytes_moved += o.bytes_moved;
        self.bytes_released += o.bytes_released;
        self.objects_skipped_pinned += o.objects_skipped_pinned;
        self.copy_batches += o.copy_batches;
        self.copy_workers += o.copy_workers;
        self.passes_with_moves += (o.objects_moved > 0) as u64;
        self.passes_no_progress += (o.objects_moved == 0 && o.bytes_released == 0) as u64;
    }

    /// Time a call that may run a defragmentation pass and record the pass if
    /// it did.  With a tracer, the call runs under a span named `span` and
    /// the phases its outcome reports become that span's children.
    pub fn timed(
        &mut self,
        tracer: Option<&mut ThreadTracer>,
        span: &'static str,
        request: u64,
        call: impl FnOnce() -> Option<DefragOutcome>,
    ) {
        let Some(tracer) = tracer else {
            let start = Instant::now();
            if let Some(o) = call() {
                self.record(start.elapsed().as_nanos() as u64, &o);
            }
            return;
        };
        tracer.enter(span, request);
        let began = tracer.now_ns();
        let outcome = call();
        let wall = tracer.now_ns() - began;
        if let Some(o) = outcome {
            // The three phases run back to back at the end of the pause; what
            // precedes them (stop-wait, pin-set union, shard locks) stays as
            // the span's self time.
            let phases = o.plan_ns + o.copy_ns + o.commit_ns;
            let mut at = began + wall.saturating_sub(phases);
            for (name, ns) in [
                ("anchorage.plan", o.plan_ns),
                ("anchorage.copy", o.copy_ns),
                ("anchorage.commit", o.commit_ns),
            ] {
                tracer.child(name, at, ns);
                at += ns;
            }
            self.record(wall, &o);
        }
        tracer.exit();
    }

    /// Write the per-pass metrics.
    pub fn report(&self, out: &mut Outcome) {
        let passes = self.passes();
        if passes == 0 {
            return;
        }
        let per_pass = |v: u64| v as f64 / passes as f64;
        let lat = Latencies::from_ns(self.pause_ns.clone());
        out.set("pause_p50_us", lat.percentile_us(50.0));
        out.set("pause_p95_us", lat.supported_percentile_us(95.0).unwrap_or(0.0));
        out.set("runtime.pause_p99_us", lat.percentile_us(99.0));
        out.set("runtime.pause_max_us", lat.max_us());
        out.set("anchorage.passes", passes as f64);
        out.set("anchorage.passes_no_progress", self.passes_no_progress as f64);
        out.set("anchorage.passes_with_moves_share", per_pass(self.passes_with_moves));
        out.set("anchorage.plan_us_per_pass", per_pass(self.plan_ns) / 1e3);
        out.set("anchorage.copy_us_per_pass", per_pass(self.copy_ns) / 1e3);
        out.set("anchorage.commit_us_per_pass", per_pass(self.commit_ns) / 1e3);
        if self.copy_ns > 0 {
            // bytes per ns * 1e3 = MB/s
            out.set("anchorage.copy_mb_s", self.bytes_moved as f64 / self.copy_ns as f64 * 1e3);
        }
        if self.copy_batches > 0 {
            out.set(
                "anchorage.objects_per_batch",
                self.objects_moved as f64 / self.copy_batches as f64,
            );
        }
        out.set("anchorage.copy_workers", per_pass(self.copy_workers));
        out.set("anchorage.bytes_released_per_pass", per_pass(self.bytes_released));
        if self.bytes_released > 0 {
            out.set(
                "anchorage.moved_bytes_per_released_byte",
                self.bytes_moved as f64 / self.bytes_released as f64,
            );
        }
        out.set("anchorage.objects_skipped_pinned", self.objects_skipped_pinned as f64);
    }
}

/// Counter deltas of the runtime and its address space around a pass.
pub fn report_runtime_counts(
    out: &mut Outcome,
    rt: &Runtime,
    before: &StatsSnapshot,
    vm_before: &VmStats,
    ops: u64,
) {
    let d = rt.stats().since(before);
    let per_kop = |v: u64| v as f64 * 1000.0 / ops.max(1) as f64;
    out.set("runtime.translations_per_kop", per_kop(d.translations));
    out.set("runtime.pins_per_kop", per_kop(d.pins));
    out.set("runtime.safepoint_polls_per_kop", per_kop(d.safepoint_polls));
    out.set("runtime.hallocs_per_kop", per_kop(d.hallocs));
    out.set("runtime.magazine_refills", d.magazine_refills as f64);
    out.set("runtime.shard_lock_contention", d.shard_lock_contention as f64);
    out.set("runtime.barriers", d.barriers as f64);
    out.set("runtime.barrier_aborts", d.barrier_aborts as f64);
    out.set("runtime.handle_table_bytes", rt.handle_table_bytes() as f64);
    if d.barrier_aborts > 0 {
        out.invalid.push(format!("{} barrier attempts aborted by the watchdog", d.barrier_aborts));
    }
    let vm = rt.vm().stats();
    out.set(
        "heap.pages_committed",
        (vm.pages_committed_total - vm_before.pages_committed_total) as f64,
    );
    out.set(
        "heap.pages_decommitted",
        (vm.pages_decommitted_total - vm_before.pages_decommitted_total) as f64,
    );
    out.set("heap.madvise_calls", (vm.madvise_calls - vm_before.madvise_calls) as f64);
    out.set("heap.peak_rss_bytes", vm.peak_rss_bytes as f64);
}

/// Merge the threads' tracers and add the runtime's counter deltas of the
/// pass, so counts sit next to the spans they explain.
pub fn merge_trace(tracers: Vec<ThreadTracer>, delta: &StatsSnapshot) -> Trace {
    let mut trace = Trace::merge(tracers);
    trace.counters.extend([
        ("runtime.translations", delta.translations),
        ("runtime.pins", delta.pins),
        ("runtime.safepoint_polls", delta.safepoint_polls),
        ("runtime.hallocs", delta.hallocs),
        ("runtime.hfrees", delta.hfrees),
        ("runtime.barriers", delta.barriers),
        ("runtime.objects_moved", delta.objects_moved),
    ]);
    trace
}

/// Finish a pass: the table must still satisfy its invariants.
pub fn verify_runtime(out: &mut Outcome, rt: &Runtime) {
    if let Err(e) = rt.verify_table_invariants() {
        out.invalid.push(format!("handle table invariants: {e}"));
    }
}

/// Text of a caught panic.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// One homogeneous slice of a pass — a batch of 65 536 store ops, one size
/// cycle of `kv_churn`, one pass over the 49 programs — with its own
/// throughput and op-latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub ops: u64,
    pub secs: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Unit {
    /// Close a unit; takes (and empties) the latencies sampled during it.
    pub fn close(ops: u64, secs: f64, samples_ns: &mut Vec<u64>) -> Unit {
        let lat = Latencies::from_ns(std::mem::take(samples_ns));
        Unit { ops, secs, p50_us: lat.percentile_us(50.0), p99_us: lat.percentile_us(99.0) }
    }

    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// Units that did at least a quarter of the largest unit's ops; the stub of a
/// batch cut short when the run ended says little.
pub fn whole_units(units: &[Unit]) -> impl Iterator<Item = &Unit> {
    let floor = units.iter().map(|u| u.ops).max().unwrap_or(0) / 4;
    units.iter().filter(move |u| u.ops > floor && u.secs > 0.0)
}

/// What the better tenth of `values` reach: the 90th percentile of rates, the
/// 10th of latencies.
///
/// Interference from the host (a noisy neighbour, a descheduled vCPU) slows
/// the units it hits, and on the shared reference host it hits anything from
/// a fifth to well over half of the units of a run.  The median unit therefore
/// moves with the host, the better decile much less: over the same fourteen
/// `kv_pause` runs in a noisy hour the run-to-run spread of `op_p99_us` was
/// 19.8 % for the median unit, 13.8 % for the better quartile and 10.5 % for
/// the better decile (throughput: 10.1 / 9.3 / 7.0 %), and the gap widens as
/// the host gets noisier.  A decile, not the best unit: a tenth of the units
/// (70 batches of a 20 s run) have to reach the number, so a lucky batch, or a
/// moment in which the peer thread was descheduled and the lock uncontended,
/// cannot set it.
pub fn better_decile(values: impl IntoIterator<Item = f64>, better: Better) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let p = match better {
        Better::Higher => 90.0,
        Better::Lower => 10.0,
    };
    percentile_sorted(&v, p).unwrap_or(0.0)
}

/// Rate the better tenth of a thread's whole units reach, in ops/s.
pub fn unit_rate(units: &[Unit]) -> f64 {
    better_decile(whole_units(units).map(Unit::rate), Better::Higher)
}

/// `throughput_ops_s` (summed over threads), `op_p50_us` and `op_p99_us` from
/// each thread's units.
pub fn report_units(out: &mut Outcome, per_thread: &[&[Unit]]) {
    out.set("throughput_ops_s", per_thread.iter().map(|units| unit_rate(units)).sum());
    let all = || per_thread.iter().flat_map(|units| whole_units(units));
    out.set("op_p50_us", better_decile(all().map(|u| u.p50_us), Better::Lower));
    out.set("op_p99_us", better_decile(all().map(|u| u.p99_us), Better::Lower));
}

/// Mean of the last quarter of `samples` (at least one).
pub fn last_quarter_mean(samples: &[f64]) -> f64 {
    let take = (samples.len() / 4).max(1).min(samples.len());
    crate::stats::mean(&samples[samples.len() - take..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_better_decile_of_units_is_reported() {
        let hundred = (1..=100).map(f64::from);
        assert_eq!(better_decile(hundred.clone(), Better::Higher), 90.0);
        assert_eq!(better_decile(hundred, Better::Lower), 10.0);
        assert_eq!(better_decile([], Better::Higher), 0.0);

        let unit = |ops, secs, p50_us| Unit { ops, secs, p50_us, p99_us: p50_us * 4.0 };
        // Thread 0: eleven whole units, the two fastest at 1000 and 909 ops/s,
        // and a stub, which is left out; thread 1: one unit.
        let mut t0: Vec<Unit> =
            (0..=10).map(|i| unit(1000, 1.0 + i as f64 / 10.0, 1.0 + i as f64)).collect();
        t0.push(unit(10, 0.001, 0.01));
        let t1 = vec![unit(500, 1.0, 7.5)];
        // The 90th percentile of eleven is the second best.
        assert!((unit_rate(&t0) - 1000.0 / 1.1).abs() < 1e-9);
        let mut out = Outcome::default();
        report_units(&mut out, &[&t0, &t1]);
        assert!((out.values["throughput_ops_s"] - (1000.0 / 1.1 + 500.0)).abs() < 1e-9);
        // Twelve whole units in all; the 10th percentile is the second lowest.
        assert_eq!(out.values["op_p50_us"], 2.0);
        assert_eq!(out.values["op_p99_us"], 8.0);
    }

    #[test]
    fn a_unit_takes_its_percentiles_from_its_own_samples() {
        let mut samples: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        let unit = Unit::close(200, 0.5, &mut samples);
        assert!(samples.is_empty());
        assert_eq!((unit.p50_us, unit.p99_us, unit.rate()), (50.0, 99.0, 400.0));
    }

    #[test]
    fn last_quarter_mean_takes_the_tail() {
        assert_eq!(last_quarter_mean(&[9.0, 9.0, 9.0, 9.0, 1.0, 1.0, 2.0, 4.0]), 3.0);
        assert_eq!(last_quarter_mean(&[5.0]), 5.0);
    }
}
