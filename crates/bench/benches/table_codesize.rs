//! §5.2 code-size study: static instruction growth caused by the Alaska
//! transformation (the paper reports ~48% geomean executable growth, with a
//! worst case around 2× when hoisting cannot help).

use alaska_bench::env_scale;
use alaska_benchsuite::harness::run_codesize_study;
use alaska_benchsuite::Scale;

fn main() {
    let scale = Scale(env_scale("ALASKA_CODESIZE_SCALE", 0.2));
    eprintln!("# Code-size study (§5.2), scale {:.2}", scale.0);
    let reports = run_codesize_study(scale);

    println!("{:<14} {:>12} {:>14} {:>12}", "benchmark", "growth_x", "translations", "safepoints");
    let mut factors = Vec::new();
    for (name, report) in &reports {
        let growth = report.code_growth();
        println!(
            "{:<14} {:>12.2} {:>14} {:>12}",
            name,
            growth,
            report.total_translations(),
            report.total_safepoints()
        );
        factors.push(growth);
    }
    let geomean = (factors.iter().map(|f| f.ln()).sum::<f64>() / factors.len() as f64).exp();
    let worst = factors.iter().cloned().fold(0.0f64, f64::max);
    println!();
    println!(
        "geomean growth {:.2}x (paper: ~1.48x), worst case {:.2}x (paper: ~2x)",
        geomean, worst
    );
}
