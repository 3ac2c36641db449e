//! `compile_run`: build all 49 benchsuite programs, compile them with the
//! full pipeline, and interpret untransformed and transformed modules.
//!
//! The only workload that runs `compiler`, `ir` and `benchsuite`, and it uses
//! the runtime differently from the stores: pin frames (`push_pin_frame` /
//! `translate_into_slot` / `release_slot`) instead of `pin`/`unpin`, over the
//! malloc service instead of Anchorage, one fresh runtime per program.
//!
//! An op is one interpreted IR instruction for `throughput_ops_s` and one
//! whole program run for `op_p50_us`/`op_p99_us` (49 programs of very
//! different length: the p99 of a pass is its longest program).  The programs
//! are fixed, so the seed only shuffles the order they run in.

use super::{report_units, tracer_for, Outcome, Unit, SETUP_REPEATS};
use crate::gen::Rng;
use crate::stats::median;
use crate::trace::{span, ThreadTracer, Trace};
use alaska_benchsuite::{all_benchmarks, Scale, STRICT_ALIASING_VIOLATORS};
use alaska_compiler::passes::{
    alloc_replace::replace_allocations, dce::eliminate_dead_code, escape::handle_escapes,
    safepoints::insert_safepoints, tracking::assign_pin_slots,
    translate_insert::insert_translations,
};
use alaska_compiler::{compile_module, CompileReport, PipelineConfig};
use alaska_ir::interp::{DynamicCounts, InterpConfig, Interpreter};
use alaska_ir::module::Module;
use alaska_runtime::stats::StatsSnapshot;
use alaska_runtime::Runtime;
use std::time::{Duration, Instant};

/// Program size knob handed to every benchsuite builder.  Chosen so that one
/// pass over the transformed programs takes about 2 s on the reference host,
/// which gives a 20 s run enough passes for a median.
pub const SCALE: Scale = Scale(0.5);

pub struct Program {
    pub name: &'static str,
    pub module: Module,
    pub transformed: Module,
    pub report: CompileReport,
}

/// As `benchsuite::harness::measure_benchmark` does: the two programs that
/// violate strict aliasing are compiled without hoisting.
pub fn config_for(name: &str) -> PipelineConfig {
    let full = PipelineConfig::full();
    if STRICT_ALIASING_VIOLATORS.contains(&name) {
        PipelineConfig { hoisting: false, ..full }
    } else {
        full
    }
}

/// Build every program's IR.
pub fn build_all(mut tracer: Option<&mut ThreadTracer>) -> Vec<(&'static str, Module)> {
    all_benchmarks()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let build = || (b.build)(SCALE);
            (b.name, span(tracer.as_deref_mut(), "benchsuite.build", i as u64, build))
        })
        .collect()
}

/// Build and compile every program.
pub fn set_up(mut tracer: Option<&mut ThreadTracer>) -> Vec<Program> {
    build_all(tracer.as_deref_mut())
        .into_iter()
        .enumerate()
        .map(|(i, (name, module))| {
            let compile = || compile_module(&module, &config_for(name));
            let (transformed, report) =
                span(tracer.as_deref_mut(), "compiler.compile_module", i as u64, compile);
            Program { name, module, transformed, report }
        })
        .collect()
}

/// Run the pipeline's public passes one by one over a copy of `module`, each
/// under its own span, in the order `compile_function` applies them.  The
/// product has no spans of its own yet, so this is how a pass's share of
/// compile time is seen.
pub fn compile_by_pass(module: &Module, hoisting: bool, request: u64, tracer: &mut ThreadTracer) {
    let mut copy = module.clone();
    for f in copy.functions_mut() {
        let t = &mut *tracer;
        span(Some(t), "compiler.alloc_replace", request, || replace_allocations(f));
        span(Some(t), "compiler.translate_insert", request, || insert_translations(f, hoisting));
        span(Some(t), "compiler.escape", request, || handle_escapes(f));
        span(Some(t), "compiler.tracking", request, || assign_pin_slots(f));
        span(Some(t), "compiler.safepoints", request, || insert_safepoints(f));
        span(Some(t), "compiler.dce", request, || eliminate_dead_code(f));
    }
}

/// One interpreted run of `main` on a fresh malloc-service runtime.
pub struct ProgramRun {
    pub value: u64,
    pub cycles: u64,
    pub dynamic: DynamicCounts,
    pub wall: Duration,
    pub stats: StatsSnapshot,
    pub peak_rss_bytes: u64,
    pub allocated_bytes: u64,
}

pub fn run_program(module: &Module) -> Result<ProgramRun, String> {
    let rt = Runtime::with_malloc_service();
    let _registered = rt.register_current_thread();
    let mut interp = Interpreter::new(module, &rt, InterpConfig::default());
    let timer = Instant::now();
    let result = interp.run("main", &[]).map_err(|e| e.to_string())?;
    let wall = timer.elapsed();
    rt.verify_table_invariants().map_err(|e| e.to_string())?;
    Ok(ProgramRun {
        value: result.return_value.unwrap_or(0),
        cycles: result.cycles,
        dynamic: result.dynamic,
        wall,
        stats: rt.stats(),
        peak_rss_bytes: rt.vm().stats().peak_rss_bytes + rt.handle_table_bytes(),
        allocated_bytes: rt.service_stats().total_allocated,
    })
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Run one pass of `compile_run`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let mut tracer = tracer_for(traced, Instant::now(), 0);
    if let Some(t) = tracer.as_mut() {
        t.enter("workload", 0);
    }

    let mut setup_s = Vec::new();
    let mut programs = Vec::new();
    for repeat in 0..SETUP_REPEATS {
        // Spans only on the set-up that is kept.
        let t = tracer.as_mut().filter(|_| repeat + 1 == SETUP_REPEATS);
        let timer = Instant::now();
        programs = set_up(t);
        setup_s.push(timer.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup_s));
    if let Some(t) = tracer.as_mut() {
        for (i, p) in programs.iter().enumerate() {
            compile_by_pass(&p.module, config_for(p.name).hoisting, i as u64, t);
        }
    }

    // -- reference pass: untransformed, then transformed, in suite order -------
    let began = Instant::now();
    let mut reference: Vec<Option<ProgramRun>> = Vec::new();
    let mut first: Vec<Option<ProgramRun>> = Vec::new();
    // One unit per pass over the transformed programs.
    let mut units: Vec<Unit> = Vec::new();
    let (mut base_instr, mut base_secs) = (0u64, 0.0f64);
    let mut traced_run = |name: &'static str, i: usize, module: &Module| {
        let run = span(tracer.as_mut(), name, i as u64, || run_program(module));
        if let Some(t) = tracer.as_mut() {
            if let Ok(run) = &run {
                t.count("ir.instructions", run.dynamic.instructions);
                t.count("runtime.translations", run.stats.translations);
                t.count("runtime.safepoint_polls", run.stats.safepoint_polls);
            }
        }
        run
    };
    for (i, p) in programs.iter().enumerate() {
        out.attempted += 2;
        let base = traced_run("ir.interp.run_untransformed", i, &p.module);
        let alaska = traced_run("ir.interp.run", i, &p.transformed);
        match (&base, &alaska) {
            (Ok(b), Ok(a)) if a.value == b.value => {
                base_instr += b.dynamic.instructions;
                base_secs += b.wall.as_secs_f64();
            }
            (Ok(b), Ok(a)) => {
                out.failed += 1;
                eprintln!(
                    "{}: transformed returned {} , untransformed {}",
                    p.name, a.value, b.value
                );
            }
            (b, a) => {
                out.failed += 1;
                for e in [b.as_ref().err(), a.as_ref().err()].into_iter().flatten() {
                    eprintln!("{}: {e}", p.name);
                }
            }
        }
        reference.push(base.ok());
        first.push(alaska.ok());
    }
    let pass_unit = |runs: &[&ProgramRun]| {
        let instr: u64 = runs.iter().map(|r| r.dynamic.instructions).sum();
        let secs: f64 = runs.iter().map(|r| r.wall.as_secs_f64()).sum();
        let mut run_ns: Vec<u64> = runs.iter().map(|r| r.wall.as_nanos() as u64).collect();
        Unit::close(instr, secs, &mut run_ns)
    };
    units.push(pass_unit(&first.iter().flatten().collect::<Vec<_>>()));

    // -- measured passes: transformed only, in an order drawn from the seed ----
    let mut order: Vec<usize> = (0..programs.len()).collect();
    let mut rng = Rng::new(seed, 0x30);
    while began.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let mut runs = Vec::with_capacity(order.len());
        for &i in &order {
            out.attempted += 1;
            let want = reference[i].as_ref().map(|r| r.value);
            match traced_run("ir.interp.run", i, &programs[i].transformed) {
                Ok(run) if Some(run.value) == want => runs.push(run),
                Ok(_) | Err(_) => out.failed += 1,
            }
        }
        units.push(pass_unit(&runs.iter().collect::<Vec<_>>()));
    }
    report_units(&mut out, &[&units]);
    out.set("failed_ops_share", out.failed as f64 / out.attempted.max(1) as f64);

    // Everything below is a count of the (deterministic) reference pass.
    let pairs: Vec<(&ProgramRun, &ProgramRun)> = reference
        .iter()
        .zip(&first)
        .filter_map(|(b, a)| Some((b.as_ref()?, a.as_ref()?)))
        .collect();
    let sum = |f: &dyn Fn(&ProgramRun) -> u64| pairs.iter().map(|(_, a)| f(a)).sum::<u64>();
    let peak_rss = sum(&|a| a.peak_rss_bytes);
    let allocated = sum(&|a| a.allocated_bytes);
    // Peak resident bytes (pages plus handle table) per byte the programs
    // allocated; they allocate up front and hold, so this is RSS per live byte.
    out.set("rss_per_live_byte", peak_rss as f64 / allocated.max(1) as f64);
    let overhead = geomean(pairs.iter().map(|(b, a)| a.cycles as f64 / b.cycles as f64));
    out.set("modelled_overhead_geomean_pct", (overhead - 1.0) * 100.0);
    out.set("code_growth_geomean_x", geomean(programs.iter().map(|p| p.report.code_growth())));
    out.set("slowdown_vs_malloc_x", {
        let alaska_secs: f64 = pairs.iter().map(|(_, a)| a.wall.as_secs_f64()).sum();
        alaska_secs / base_secs
    });
    if base_secs > 0.0 {
        out.set("ir.interp_minstr_s_untransformed", base_instr as f64 / base_secs / 1e6);
    }
    let base_cycles: u64 = pairs.iter().map(|(b, _)| b.cycles).sum();
    let instructions = sum(&|a| a.dynamic.instructions);
    out.set("benchsuite.baseline_cycles", base_cycles as f64);
    out.set("ir.instructions_dynamic", instructions as f64);
    out.set("ir.translations_dynamic", sum(&|a| a.dynamic.translations) as f64);
    out.set("ir.pins_dynamic", sum(&|a| a.dynamic.pins) as f64);
    out.set("ir.safepoints_dynamic", sum(&|a| a.dynamic.safepoints) as f64);
    let per_kop = |v: u64| v as f64 * 1000.0 / instructions.max(1) as f64;
    out.set("runtime.translations_per_kop", per_kop(sum(&|a| a.stats.translations)));
    out.set("runtime.pins_per_kop", per_kop(sum(&|a| a.stats.pins)));
    out.set("runtime.safepoint_polls_per_kop", per_kop(sum(&|a| a.stats.safepoint_polls)));
    out.set("runtime.hallocs_per_kop", per_kop(sum(&|a| a.stats.hallocs)));
    out.set("runtime.magazine_refills", sum(&|a| a.stats.magazine_refills) as f64);
    out.set(
        "heap.peak_rss_bytes",
        pairs.iter().map(|(_, a)| a.peak_rss_bytes).max().unwrap_or(0) as f64,
    );
    let functions = || programs.iter().flat_map(|p| &p.report.functions);
    out.set(
        "compiler.translations_static",
        programs.iter().map(|p| p.report.total_translations()).sum::<usize>() as f64,
    );
    out.set(
        "compiler.hoisted_translations",
        functions().map(|f| f.hoisted_translations).sum::<usize>() as f64,
    );
    out.set("compiler.pin_slots", functions().map(|f| f.pin_slots as u64).sum::<u64>() as f64);
    out.set(
        "compiler.safepoints_static",
        programs.iter().map(|p| p.report.total_safepoints()).sum::<usize>() as f64,
    );
    out.exact = vec![
        ("baseline_cycles", base_cycles),
        ("alaska_cycles", sum(&|a| a.cycles)),
        ("translations_dynamic", sum(&|a| a.dynamic.translations)),
        ("peak_rss_bytes", peak_rss),
    ];

    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
    (out, tracer.map(|t| Trace::merge(vec![t])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violators_lose_hoisting_and_nothing_else() {
        for name in STRICT_ALIASING_VIOLATORS {
            let cfg = config_for(name);
            assert!(!cfg.hoisting && cfg.tracking && cfg.safepoints && cfg.replace_allocations);
        }
        assert!(config_for("lbm").hoisting);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn a_transformed_program_returns_what_the_original_returns() {
        let b = alaska_benchsuite::find_benchmark("crc32").unwrap();
        let module = (b.build)(Scale(0.05));
        let (transformed, _) = compile_module(&module, &config_for(b.name));
        let (base, alaska) = (run_program(&module).unwrap(), run_program(&transformed).unwrap());
        assert_eq!(base.value, alaska.value);
        assert!(alaska.cycles > base.cycles && alaska.stats.translations > 0);
        assert_eq!(base.stats.translations, 0, "the untransformed program uses no handles");
    }
}
