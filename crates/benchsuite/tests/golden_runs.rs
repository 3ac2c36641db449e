//! Golden equivalence of the interpreter and the compiler over every
//! benchsuite program at `Scale(0.05)`.
//!
//! For each program, `golden_runs.txt` holds one line: the untransformed run
//! and the transformed run (return value, modelled cycles, steps and all 14
//! dynamic counts, each run on a fresh `Runtime::with_malloc_service()`), each
//! function's pin-frame size, and an FNV-1a hash of the transformed module as
//! `alaska_ir::printer` prints it.  The programs are compiled as the Figure 7
//! harness compiles them: the full pipeline, without hoisting for the
//! strict-aliasing violators.  Any change to the cost model, to the order of
//! the interpreter's charges or runtime calls, or to the compiler's output
//! shows up as a mismatching line.

use alaska_benchsuite::{all_benchmarks, Benchmark, Scale, STRICT_ALIASING_VIOLATORS};
use alaska_compiler::{compile_module, PipelineConfig};
use alaska_ir::interp::{InterpConfig, Interpreter};
use alaska_ir::module::Module;
use alaska_ir::printer::print_module;
use alaska_runtime::Runtime;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn run(name: &str, m: &Module) -> String {
    let rt = Runtime::with_malloc_service();
    let mut interp = Interpreter::new(m, &rt, InterpConfig::default());
    let r = interp.run("main", &[]).unwrap_or_else(|e| panic!("{name}: {e}"));
    let d = r.dynamic;
    let counts = [
        d.instructions,
        d.loads,
        d.stores,
        d.handle_checks,
        d.translations,
        d.pins,
        d.releases,
        d.safepoints,
        d.mallocs,
        d.frees,
        d.hallocs,
        d.hfrees,
        d.calls,
        d.external_calls,
    ];
    let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
    format!("{:?} {} {} {}", r.return_value, r.cycles, r.steps, counts.join(" "))
}

fn golden_line(b: &Benchmark) -> String {
    let module = (b.build)(Scale(0.05));
    let mut config = PipelineConfig::full();
    if STRICT_ALIASING_VIOLATORS.contains(&b.name) {
        config.hoisting = false;
    }
    let (transformed, _) = compile_module(&module, &config);
    let slots: Vec<String> =
        transformed.functions().iter().map(|f| f.pin_frame_slots.to_string()).collect();
    format!(
        "{} | {} | {} | slots {} | ir {:016x}",
        b.name,
        run(b.name, &module),
        run(b.name, &transformed),
        slots.join(","),
        fnv1a(&print_module(&transformed))
    )
}

#[test]
fn every_program_runs_and_compiles_as_recorded() {
    let expected: Vec<&str> =
        include_str!("golden_runs.txt").lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<String> = all_benchmarks().iter().map(golden_line).collect();
    let mismatches: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|&(i, line)| expected.get(i) != Some(&line.as_str()))
        .map(|(i, line)| format!("expected {}\n  actual {line}", expected.get(i).unwrap_or(&"-")))
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} programs differ from golden_runs.txt ({} recorded):\n{}\n\
         every line as it is now:\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}
