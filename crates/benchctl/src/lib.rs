//! **alaska-benchctl** — the unified run-manifest benchmark harness.
//!
//! The repo reproduces the paper's figures through seven separate bench
//! harnesses; each used to print its own `JSON …` blob and nothing collected
//! them.  `benchctl` runs any subset of those harnesses in one process and
//! merges their [`alaska_bench::ManifestSection`]s into a single
//! schema-versioned `run-manifest.json` — one reproducible artifact per run,
//! carrying:
//!
//! * host information (OS, arch, `available_parallelism`, hostname) and the
//!   git SHA the numbers were produced from,
//! * the configuration knobs each harness ran with (scales, durations,
//!   iteration counts),
//! * per-harness `metrics` (flat scalar maps for regression gating) and
//!   `rows` (the full figure payloads, enough to regenerate every plot),
//! * a telemetry-registry snapshot from an instrumented smoke workload, and
//! * wall-clock and CPU time of the whole run.
//!
//! The `compare` subcommand diffs two manifests under per-metric tolerance
//! rules ([`compare::default_rules`]) and exits non-zero on regression; CI
//! produces a manifest artifact on every build and gates pull requests
//! against the committed `BENCH_BASELINE.json`.
//!
//! # Module map
//!
//! * [`host`] — host detection, git SHA, CPU-time accounting,
//! * [`manifest`] — the [`manifest::RunManifest`] container: schema
//!   versioning, JSON round-tripping, metric flattening,
//! * [`runner`] — CI-sized drivers for all seven harnesses plus the
//!   instrumented telemetry smoke run,
//! * [`compare`] — tolerance rules and the regression report.
//!
//! See `docs/ARCHITECTURE.md` for where this sits in the workspace and
//! `docs/METRICS.md` for what the embedded telemetry names mean.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod host;
pub mod manifest;
pub mod runner;

pub use compare::{compare_manifests, default_rules, CompareReport, Direction, Rule};
pub use host::HostInfo;
pub use manifest::{ManifestError, RunManifest, SCHEMA_VERSION};
pub use runner::Harness;
