//! Figure 8: ablation of Alaska's optimisations on the SPEC-like benchmarks —
//! full pipeline ("alaska"), tracking removed ("notracking") and hoisting
//! removed ("nohoisting").

use alaska_bench::env_scale;
use alaska_benchsuite::harness::run_ablation_study;
use alaska_benchsuite::Scale;

fn main() {
    let scale = Scale(env_scale("ALASKA_FIG8_SCALE", 1.0));
    eprintln!("# Figure 8: ablation on SPEC-like benchmarks (scale {:.2})", scale.0);
    let results = run_ablation_study(scale);

    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "benchmark", "alaska_%", "notracking_%", "nohoisting_%"
    );
    for r in &results {
        let alaska = r.config("alaska").map(|c| c.overhead_pct).unwrap_or(0.0);
        let notracking = r.config("notracking").map(|c| c.overhead_pct).unwrap_or(0.0);
        let nohoisting = r.config("nohoisting").map(|c| c.overhead_pct).unwrap_or(0.0);
        println!("{:<14} {:>12.1} {:>14.1} {:>14.1}", r.name, alaska, notracking, nohoisting);
    }
    println!();
    println!(
        "Paper shape: disabling hoisting roughly doubles most benchmarks' overhead; \
         removing tracking recovers a small amount (most visible on nab/xz)."
    );
}
