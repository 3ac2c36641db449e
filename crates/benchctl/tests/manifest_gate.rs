//! End-to-end manifest tests: real (tiny) harness runs round-trip through
//! JSON text, schema-version mismatches are rejected, and the compare gate
//! fails a deliberate 20% p99 regression while passing noise within
//! tolerance.

use alaska_benchctl::runner::{run_harness, telemetry_snapshot};
use alaska_benchctl::{
    compare_manifests, default_rules, host, Harness, HostInfo, ManifestError, RunManifest,
    SCHEMA_VERSION,
};
use alaska_telemetry::json::JsonValue;

/// Build a manifest from real-but-tiny harness runs: the cheap deterministic
/// code-size table plus a short fig12 run so the gate has p99 metrics to
/// trip on.
fn tiny_manifest() -> RunManifest {
    let mut m = RunManifest::new(HostInfo::detect(), host::git_sha());
    m.set_config("scale", "tiny");
    for (harness, scale) in [(Harness::TableCodesize, 1.0), (Harness::Fig12, 0.25)] {
        m.add_section(run_harness(harness, scale).as_ref());
    }
    m.telemetry = telemetry_snapshot();
    m.wall_time_s = 1.0;
    m
}

/// Multiply every metric whose full name satisfies `select` by `factor`.
fn scaled(base: &RunManifest, factor: f64, select: impl Fn(&str) -> bool) -> RunManifest {
    let mut out = base.clone();
    for (harness, section) in &mut out.sections {
        let JsonValue::Object(fields) = section else { continue };
        for (key, value) in fields.iter_mut() {
            if key != "metrics" {
                continue;
            }
            let JsonValue::Object(metrics) = value else { continue };
            for (path, metric) in metrics.iter_mut() {
                if select(&format!("{harness}.{path}")) {
                    if let Some(v) = metric.as_f64() {
                        *metric = JsonValue::F64(v * factor);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn real_runs_round_trip_through_json_text() {
    let manifest = tiny_manifest();
    let text = {
        let mut t = manifest.to_json().render();
        t.push('\n');
        t
    };
    let back = RunManifest::parse(&text).expect("parse back");
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    assert_eq!(back.host, manifest.host);
    assert_eq!(back.git_sha, manifest.git_sha);
    assert_eq!(back.metrics(), manifest.metrics());
    // Byte-identical re-render proves nothing was lost or reordered.
    assert_eq!(back.to_json().render(), manifest.to_json().render());
    // The telemetry snapshot from the instrumented smoke run made it through.
    assert!(text.contains("alaska_barrier_pause_ns"));
    assert!(!manifest.metrics().is_empty());
}

#[test]
fn schema_version_mismatch_is_rejected_on_load() {
    let mut manifest = tiny_manifest();
    manifest.schema_version = SCHEMA_VERSION + 7;
    let text = manifest.to_json().render();
    match RunManifest::parse(&text) {
        Err(ManifestError::SchemaVersionMismatch { found, expected }) => {
            assert_eq!(found, SCHEMA_VERSION + 7);
            assert_eq!(expected, SCHEMA_VERSION);
        }
        other => panic!("expected schema-version rejection, got {other:?}"),
    }
}

#[test]
fn compare_gate_fails_20pct_p99_regression_and_passes_noise() {
    let base = tiny_manifest();
    let rules = default_rules();

    // Identical manifests always pass.
    let report = compare_manifests(&base, &base, &rules).unwrap();
    assert!(report.passed());
    assert!(report.regressions.is_empty());

    // A deliberate +20% regression on every fig12 p99 must trip the gate
    // (fig12.* tolerates 15%).
    let regressed = scaled(&base, 1.20, |name| name.starts_with("fig12.p99_us."));
    let report = compare_manifests(&base, &regressed, &rules).unwrap();
    assert!(!report.passed(), "20% p99 regression must fail the gate");
    assert!(
        report.regressions.iter().any(|d| d.name.starts_with("fig12.p99_us.")),
        "the regression list must name the p99 metrics: {:?}",
        report.regressions
    );

    // +2% noise on the same metrics stays within tolerance.
    let noisy = scaled(&base, 1.02, |name| name.starts_with("fig12."));
    let report = compare_manifests(&base, &noisy, &rules).unwrap();
    assert!(report.passed(), "2% noise must pass: {:?}", report.regressions);

    // Dropping a section is lost coverage, not a pass.
    let mut shrunk = base.clone();
    shrunk.sections.retain(|(name, _)| name != "fig12");
    let report = compare_manifests(&base, &shrunk, &rules).unwrap();
    assert!(!report.passed());
    assert!(!report.missing.is_empty());
}

#[test]
fn manifest_survives_a_file_round_trip() {
    let manifest = tiny_manifest();
    let dir = std::env::temp_dir().join(format!("benchctl-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("manifest.json");
    manifest.save(&path).unwrap();
    let back = RunManifest::load(&path).unwrap();
    assert_eq!(back.metrics(), manifest.metrics());
    std::fs::remove_dir_all(&dir).ok();
}
