//! `aa`: run the same build several times and compare the spread of every
//! end-to-end metric with its bound, the way the acceptance check does.
//!
//! Each run is a fresh process of this executable with another seed, exactly
//! as the driver runs it.  The two workloads whose counts must repeat are run
//! once more with the first seed, and every exact count is compared.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, quartiles};
use crate::{Args, DEFAULT_SECONDS};
use alaska_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Workloads with no thread interleaving and no wall clock in their counts.
const EXACT_REPEAT: &[&str] = &["kv_churn", "compile_run"];

struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    exact: Vec<(String, String)>,
}

fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last =
        stdout.lines().last().ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    let json = JsonValue::parse(last).map_err(|e| format!("{workload}: bad result line: {e:?}"))?;
    let metrics = json
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let exact = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.trim_start().strip_prefix("exact.")?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.to_string()))
        })
        .collect();
    let correct = output.status.success()
        && matches!(json.get("correct"), Some(JsonValue::Bool(true)))
        && json.get("failed").and_then(JsonValue::as_u64) == Some(0);
    Ok(ChildRun { correct, metrics, exact })
}

pub fn cmd_aa(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.only(&["runs", "seconds", "seed"])?;
    let runs = args.get::<u64>("runs")?.unwrap_or(5);
    if !(2..=100).contains(&runs) {
        return Err(format!("--runs must be between 2 and 100, got {runs}"));
    }
    let seconds = if args.has("seconds") { args.seconds()? } else { DEFAULT_SECONDS };
    let first_seed = args.get::<u64>("seed")?.unwrap_or(1);

    let mut ok = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut first_exact = Vec::new();
        for run in 0..runs {
            let seed = first_seed + run;
            let child = child_run(workload, seed, seconds)?;
            eprintln!(
                "aa: {workload} seed {seed}: {}",
                if child.correct { "ok" } else { "NOT CORRECT" }
            );
            ok &= child.correct;
            for def in END_TO_END {
                let v = *child.metrics.get(def.name).ok_or_else(|| {
                    format!("{workload} seed {seed}: no {} in the result line", def.name)
                })?;
                samples.entry(def.name).or_default().push(v);
            }
            if run == 0 {
                first_exact = child.exact;
            }
        }
        if EXACT_REPEAT.contains(workload) {
            let again = child_run(workload, first_seed, seconds)?;
            let same = again.correct && again.exact == first_exact && !first_exact.is_empty();
            eprintln!(
                "aa: {workload} seed {first_seed} again: counts {}",
                if same { "repeat" } else { "DIFFER" }
            );
            if !same {
                ok = false;
                rows.push(format!(
                    "{workload:<14} exact counts differ: {first_exact:?} vs {:?}",
                    again.exact
                ));
            }
        }
        for def in END_TO_END {
            let values = &samples[def.name];
            let [q1, q2, q3] = quartiles(values);
            let spread = iqr_share(values);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            // The acceptance check holds every spread but that of set-up
            // time to the bound.
            let gated = def.name != "setup_s";
            let verdict = match (spread <= bound, gated) {
                (true, _) => "ok",
                (false, false) => "wide (not gated)",
                (false, true) => {
                    ok = false;
                    "TOO WIDE"
                }
            };
            rows.push(format!(
                "{workload:<14} {:<18} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>8.2}% {:>6.1}% {:>6.2}  {verdict}",
                def.name,
                spread * 100.0,
                bound * 100.0,
                spread / bound
            ));
        }
    }
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>14} {:>9} {:>7} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "ratio"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "{runs} runs per workload, seeds {first_seed}..={}, --seconds {seconds}",
        first_seed + runs - 1
    );
    Ok(ok)
}
