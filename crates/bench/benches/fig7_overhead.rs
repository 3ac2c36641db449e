//! Figure 7: overhead (% increase in modelled cycles) of Alaska's translation
//! and pin tracking across the Embench/GAP/NAS/SPEC-like benchmark suites,
//! plus the geometric mean the paper headlines (~10%).

use alaska_bench::env_scale;
use alaska_benchsuite::harness::{geomean_overhead_pct, run_overhead_study};
use alaska_benchsuite::Scale;

fn main() {
    let scale = Scale(env_scale("ALASKA_FIG7_SCALE", 1.0));
    eprintln!("# Figure 7: Alaska overhead per benchmark (scale {:.2})", scale.0);
    let results = run_overhead_study(scale);

    println!(
        "{:<14} {:>10} {:>14} {:>12} {:>14} {:>12}",
        "benchmark", "suite", "baseline_cyc", "alaska_cyc", "overhead_%", "translations"
    );
    for r in &results {
        let a = r.config("alaska").expect("alaska config present");
        println!(
            "{:<14} {:>10} {:>14} {:>12} {:>14.1} {:>12}",
            r.name, r.suite, r.baseline_cycles, a.cycles, a.overhead_pct, a.dynamic.translations
        );
    }
    let geomean = geomean_overhead_pct(&results, "alaska");
    let without_violators: Vec<_> =
        results.iter().filter(|r| r.name != "perlbench" && r.name != "gcc").cloned().collect();
    let geomean_no_violators = geomean_overhead_pct(&without_violators, "alaska");
    println!("{:<14} {:>10} {:>14} {:>12} {:>14.1}", "geomean", "ALL", "-", "-", geomean);
    println!(
        "{:<14} {:>10} {:>14} {:>12} {:>14.1}",
        "geomean*", "no-perl/gcc", "-", "-", geomean_no_violators
    );
    println!();
    println!(
        "Paper: geomean overhead ~10% with perlbench/gcc included, ~8% without; \
         measured {geomean:.1}% / {geomean_no_violators:.1}%"
    );
}
