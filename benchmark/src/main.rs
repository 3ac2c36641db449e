//! The repository's benchmark.  See README.md for what it measures and why.
//!
//! ```text
//! alaska-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is JSON
//! alaska-benchmark run --all [--seed N] [--seconds S] [--trace] [--out FILE]
//! alaska-benchmark aa [--runs N] [--seconds S]                     same build, N runs: spread vs bound
//! ```

mod gen;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{value_of, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{compile_run, kv_churn, kv_sharded, Outcome};

/// `run_seconds` of BENCHMARK.json; the default of `run` and `aa`.
const DEFAULT_SECONDS: f64 = 20.0;
/// A traced run measures an untraced and a traced pass of this share of
/// `--seconds` each, and then the isolated per-layer loops.
const TRACED_SHARE: f64 = 0.25;
/// Where `trace.json` goes, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Outcome, Option<trace::Trace>) {
    match name {
        "kv_read_heavy" => kv_sharded::run(seed, kv_sharded::Params::read_heavy(seconds), traced),
        "kv_pause" => kv_sharded::run(seed, kv_sharded::Params::pause(seconds), traced),
        "kv_churn" => kv_churn::run(seed, seconds, traced),
        "compile_run" => compile_run::run(seed, seconds, traced),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

/// The result of one benchmark run, as the last stdout line reports it.
struct RunReport {
    out: Outcome,
    /// The metrics of the result line: end-to-end or per-layer.
    defs: &'static [MetricDef],
}

impl RunReport {
    fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.out.correct(),
            self.out.attempted,
            self.out.failed
        );
        for (i, def) in self.defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = value_of(&self.out.values, def);
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", def.name, def.unit);
        }
        s.push_str("}}");
        s
    }

    fn table(&self) -> String {
        let mut s = String::new();
        for def in self.defs {
            let v = value_of(&self.out.values, def);
            let _ = writeln!(
                s,
                "  {:<40} {:>16.4} {:<8} ({} is better)",
                def.name,
                v,
                def.unit,
                def.better.as_str()
            );
        }
        // Measured on the way but not part of this run's result line.
        let in_line = |name: &str| self.defs.iter().any(|d| d.name == name);
        for (name, v) in self.out.values.iter().filter(|(n, _)| !in_line(n)) {
            let _ = writeln!(s, "  {:<40} {:>16.4} (also measured)", name, v);
        }
        // `aa` reads these lines back from a child's output.
        for (name, v) in &self.out.exact {
            let _ =
                writeln!(s, "  {:<40} {:>16} (must repeat exactly)", format!("exact.{name}"), v);
        }
        for why in &self.out.invalid {
            let _ = writeln!(s, "  INVALID: {why}");
        }
        s
    }
}

/// An untraced run: the end-to-end metrics of one workload.
fn untraced_run(workload: &str, seed: u64, seconds: f64) -> RunReport {
    let (out, _) = run_workload(workload, seed, seconds, false);
    for def in END_TO_END {
        assert!(out.values.contains_key(def.name), "{workload} did not measure {}", def.name);
    }
    RunReport { out, defs: END_TO_END }
}

/// A traced run: a short untraced pass, the same pass with spans recorded
/// (their difference is the tracing overhead), then the isolated loops over
/// each layer.  Writes `trace.json` and prints self time per span name.
fn traced_run(workload: &str, seed: u64, seconds: f64) -> RunReport {
    let pass_seconds = seconds * TRACED_SHARE;
    let (plain, _) = run_workload(workload, seed, pass_seconds, false);
    let (mut out, trace) = run_workload(workload, seed, pass_seconds, true);
    let trace = trace.expect("a traced pass returns its trace");

    let (fast, slow) = (plain.values["throughput_ops_s"], out.values["throughput_ops_s"]);
    out.set("trace.overhead_pct", (1.0 - slow / fast) * 100.0);
    // Pause and op numbers come from the pass without tracing overhead; what
    // only a pass with a telemetry hub can measure stays from the traced one.
    out.values.extend(plain.values);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.invalid.extend(plain.invalid);

    let layer_values = layers::measure_all();
    println!(
        "== {workload}: spans of the traced pass ({} spans, {} kept in full)",
        trace.spans_total,
        trace.records.len()
    );
    print!("{}", trace.table());
    println!("== {workload}: estimated shares of one op");
    print!("{}", layers::share_table(workload, &out.values, &layer_values));
    out.values.extend(layer_values);

    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace.to_json(workload, seed)))
        .and_then(|()| std::fs::copy(&path, std::path::Path::new(OUT_DIR).join("trace.json")));
    match written {
        Ok(_) => println!("== wrote {} (and {OUT_DIR}/trace.json)", path.display()),
        Err(e) => out.invalid.push(format!("cannot write {}: {e}", path.display())),
    }

    RunReport { out, defs: PER_LAYER }
}

fn one_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> RunReport {
    let report = if traced {
        traced_run(workload, seed, seconds)
    } else {
        untraced_run(workload, seed, seconds)
    };
    println!("== {workload} seed {seed} seconds {seconds} trace {}", traced as u8);
    print!("{}", report.table());
    report
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// `--name value` pairs and bare `--name` switches.
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if switches.contains(&name) {
                flags.push((name.to_string(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Args { flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{name} needs a value")),
            Some((_, Some(v))) => {
                v.parse().map(Some).map_err(|_| format!("--{name}: cannot read {v:?}"))
            }
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s = self.get::<f64>("seconds")?.unwrap_or(DEFAULT_SECONDS);
        if s.is_finite() && (0.05..=600.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--seconds must be between 0.05 and 600, got {s}"))
        }
    }
}

/// The driver's form: one workload, one run, JSON on the last line.
fn cmd_single(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let workload: String = args.get("workload")?.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seed = args.get::<u64>("seed")?.unwrap_or(1);
    let traced = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let report = one_run(&workload, seed, args.seconds()?, traced);
    println!("{}", report.json_line());
    Ok(report.out.correct())
}

/// Every workload once (and once more traced with `--trace`), every metric
/// printed by name with its unit.
fn cmd_run(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["all", "trace"])?;
    args.only(&["all", "seed", "seconds", "trace", "out", "workload"])?;
    let seed = args.get::<u64>("seed")?.unwrap_or(1);
    let seconds = args.seconds()?;
    let only: Option<String> = args.get("workload")?;
    if !args.has("all") && only.is_none() {
        return Err("run needs --all or --workload W".into());
    }
    let mut all_correct = true;
    let mut file = String::from("{\n");
    let selected: Vec<&str> =
        WORKLOADS.iter().copied().filter(|w| only.as_deref().is_none_or(|o| o == *w)).collect();
    if selected.is_empty() {
        return Err(format!("unknown workload {only:?}; one of {WORKLOADS:?}"));
    }
    for (i, workload) in selected.iter().enumerate() {
        let mut lines = vec![one_run(workload, seed, seconds, false)];
        if args.has("trace") {
            lines.push(one_run(workload, seed, seconds, true));
        }
        all_correct &= lines.iter().all(|r| r.out.correct());
        let sep = if i + 1 == selected.len() { "" } else { "," };
        let body: Vec<String> = lines.iter().map(RunReport::json_line).collect();
        let _ = writeln!(file, "  \"{workload}\": [{}]{sep}", body.join(", "));
    }
    file.push_str("}\n");
    if let Some(path) = args.get::<String>("out")? {
        std::fs::write(&path, file).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("== wrote {path}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&raw[1..]),
        Some("aa") => aa::cmd_aa(&raw[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{}", include_str!("../USAGE.txt"));
            return ExitCode::SUCCESS;
        }
        Some(_) => cmd_single(&raw),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("alaska-benchmark: not correct, or (aa) outside a bound; see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("alaska-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

mod aa;

#[cfg(test)]
mod tests {
    use super::*;
    use alaska_telemetry::json::JsonValue;

    fn sample_report(defs: &'static [MetricDef]) -> RunReport {
        let values = defs.iter().enumerate().map(|(i, d)| (d.name, 1.5 + i as f64)).collect();
        RunReport { out: Outcome { attempted: 10, values, ..Default::default() }, defs }
    }

    #[test]
    fn the_result_line_parses_and_has_exactly_the_contract_keys() {
        for defs in [END_TO_END, PER_LAYER] {
            let line = sample_report(defs).json_line();
            assert!(!line.contains('\n'));
            let v = JsonValue::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(10));
            let metrics = v.get("metrics").and_then(JsonValue::as_object).unwrap();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());
            for ((_, m), def) in metrics.iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(def.unit));
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            }
        }
    }

    /// BENCHMARK.json and `metrics.rs` must name the same metrics, units,
    /// directions, bounds and workloads.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v = JsonValue::parse(text).expect("BENCHMARK.json is JSON");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(v.get("run_seconds").and_then(JsonValue::as_f64), Some(DEFAULT_SECONDS));

        let names = |key: &str| -> Vec<String> {
            let list = v.get(key).and_then(JsonValue::as_array).unwrap();
            list.iter()
                .map(|m| m.get("name").and_then(JsonValue::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(names(key), defs.iter().map(|d| d.name).collect::<Vec<_>>(), "{key}");
            for (m, def) in v.get(key).and_then(JsonValue::as_array).unwrap().iter().zip(defs) {
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    m.get("better").and_then(JsonValue::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(m.get("bound").and_then(JsonValue::as_f64), def.bound, "{}", def.name);
                let want_keys = if def.bound.is_some() { 4 } else { 3 };
                assert_eq!(m.as_object().unwrap().len(), want_keys, "{}", def.name);
            }
        }
        for w in v.get("workloads").and_then(JsonValue::as_array).unwrap() {
            let why = w.get("why").and_then(JsonValue::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(cmd_single(&s(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(cmd_single(&s(&["--workload", "kv_churn", "--trace", "2"])).is_err());
        assert!(cmd_single(&s(&["--workload", "kv_churn", "--seconds", "0"])).is_err());
        assert!(cmd_single(&s(&["--workload", "kv_churn", "--bogus", "1"])).is_err());
        assert!(cmd_single(&s(&["--seed", "1"])).is_err());
        assert!(cmd_run(&s(&["--seed", "1"])).is_err());
    }
}
