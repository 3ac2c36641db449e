//! Manifest diffing with per-metric tolerance rules.
//!
//! `benchctl compare base.json new.json` flattens both manifests' gating
//! metrics and classifies every shared metric as *within tolerance*,
//! *improved*, or *regressed*.  Which direction is "worse" and how much
//! movement is tolerated depends on the metric family:
//!
//! * modelled/simulated quantities (`fig7`/`fig8` overheads, code-size
//!   growth, the simulated Redis RSS curves) are deterministic and gate
//!   tightly,
//! * wall-clock quantities (the `fig12` latencies) are machine- and
//!   load-dependent and gate loosely.
//!
//! Rules are first-match-wins over `*`-wildcard patterns; callers can
//! prepend overrides (CLI `--tolerance pattern=rel`) ahead of
//! [`default_rules`].  Relative change is measured against
//! `max(|base|, floor)` so near-zero baselines (a zero pass count,
//! a 0.0µs percentile) do not turn noise into infinite regressions.

use crate::manifest::{ManifestError, RunManifest};

/// Which way a metric is allowed to move without being a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latency, overhead, RSS, contention).
    LowerIsBetter,
    /// Larger is better (throughput, savings).
    HigherIsBetter,
}

/// One tolerance rule: the first rule whose pattern matches a metric name
/// decides its direction and allowed relative movement.
#[derive(Debug, Clone)]
pub struct Rule {
    /// `*`-wildcard pattern over full metric names
    /// (`"fig12.p99_us.*"`, `"*.savings_pct.*"`).
    pub pattern: String,
    /// Which movement direction counts as a regression.
    pub direction: Direction,
    /// Allowed relative change in the worse direction (0.15 = 15%).
    pub rel_tol: f64,
    /// Floor for the relative-change denominator, in the metric's own unit.
    pub floor: f64,
}

impl Rule {
    /// Build a rule.
    pub fn new(pattern: &str, direction: Direction, rel_tol: f64, floor: f64) -> Self {
        Rule { pattern: pattern.to_string(), direction, rel_tol, floor }
    }
}

/// Match `name` against a `*`-wildcard `pattern` (no other metacharacters).
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match (p.first(), n.first()) {
            (None, None) => true,
            (Some(b'*'), _) => rec(&p[1..], n) || (!n.is_empty() && rec(p, &n[1..])),
            (Some(pc), Some(nc)) if pc == nc => rec(&p[1..], &n[1..]),
            _ => false,
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

/// The built-in rule set, ordered most-specific first.
pub fn default_rules() -> Vec<Rule> {
    use Direction::{HigherIsBetter, LowerIsBetter};
    vec![
        // Deterministic modelled-cycle overheads and static code growth:
        // identical inputs must produce near-identical numbers anywhere.
        Rule::new("fig7.*", LowerIsBetter, 0.02, 0.5),
        Rule::new("fig8.*", LowerIsBetter, 0.02, 0.5),
        Rule::new("table_codesize.*", LowerIsBetter, 0.02, 0.05),
        // Simulated Redis runs are deterministic, but sampling lands on pass
        // boundaries; allow a little movement.
        Rule::new("fig9.savings_pct.*", HigherIsBetter, 0.10, 5.0),
        Rule::new("fig11.savings_pct.*", HigherIsBetter, 0.10, 5.0),
        Rule::new("fig9.*", LowerIsBetter, 0.10, 1.0),
        Rule::new("fig10.*", LowerIsBetter, 0.10, 1.0),
        Rule::new("fig11.*", LowerIsBetter, 0.10, 1.0),
        // Wall-clock latency: a deliberate 20% p99 regression must trip even
        // on the microsecond-scale values a CI-sized run produces, so the
        // floor stays at 1µs.  Same-host comparisons hold this bar;
        // cross-machine CI relaxes the whole family with `--tolerance`.
        Rule::new("fig12.p99_pause_us.*", LowerIsBetter, 0.50, 50.0),
        Rule::new("fig12.*", LowerIsBetter, 0.15, 1.0),
        // Anything new defaults to lower-is-better with moderate slack.
        Rule::new("*", LowerIsBetter, 0.25, 1.0),
    ]
}

/// Parse a CLI `pattern=rel_tol` override into a rule (direction and floor
/// come from the first default rule the pattern itself would match, so
/// `--tolerance 'fig9.savings_pct.*=2.0'` stays higher-is-better).
pub fn parse_override(spec: &str) -> Result<Rule, String> {
    let (pattern, tol) =
        spec.split_once('=').ok_or_else(|| format!("expected pattern=rel_tol, got {spec:?}"))?;
    let rel_tol: f64 = tol.parse().map_err(|_| format!("invalid tolerance {tol:?} in {spec:?}"))?;
    if !(0.0..=1000.0).contains(&rel_tol) {
        return Err(format!("tolerance {rel_tol} out of range in {spec:?}"));
    }
    // Prefer the default rule whose pattern covers the override (the rule
    // the overridden metrics would otherwise fall under); only then consider
    // defaults the override covers, so a broad `fig9.*` inherits from the
    // default `fig9.*` rule rather than the narrower `fig9.savings_pct.*`.
    let defaults = default_rules();
    let template = defaults
        .iter()
        .find(|r| pattern_matches(&r.pattern, pattern))
        .or_else(|| defaults.iter().find(|r| pattern_matches(pattern, &r.pattern)));
    let (direction, floor) =
        template.map(|r| (r.direction, r.floor)).unwrap_or((Direction::LowerIsBetter, 1.0));
    Ok(Rule { pattern: pattern.to_string(), direction, rel_tol, floor })
}

/// One metric's movement between two manifests.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Full metric name (`"fig12.p99_us.t4.i100"`).
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Signed relative change in the *worse* direction
    /// (+0.20 = 20% worse, −0.10 = 10% better).
    pub worse_by: f64,
    /// The tolerance the matching rule allowed.
    pub rel_tol: f64,
    /// Pattern of the rule that matched.
    pub rule: String,
}

/// The outcome of diffing two manifests.
#[derive(Debug, Default)]
pub struct CompareReport {
    /// Metrics that moved beyond tolerance in the worse direction.
    pub regressions: Vec<MetricDelta>,
    /// Metrics that moved beyond tolerance in the better direction.
    pub improvements: Vec<MetricDelta>,
    /// Metrics within tolerance.
    pub within: usize,
    /// Metrics present only in the baseline (coverage shrank).
    pub missing: Vec<String>,
    /// Metrics present only in the new manifest.
    pub added: Vec<String>,
}

impl CompareReport {
    /// Whether the new manifest passes the gate: no regressions and no
    /// metric disappeared.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Diff two manifests under `rules` (first match wins; append
/// [`default_rules`] when using overrides so every metric matches something).
pub fn compare_manifests(
    base: &RunManifest,
    new: &RunManifest,
    rules: &[Rule],
) -> Result<CompareReport, ManifestError> {
    if base.schema_version != new.schema_version {
        return Err(ManifestError::SchemaVersionMismatch {
            found: new.schema_version,
            expected: base.schema_version,
        });
    }
    let base_metrics = base.metrics();
    let new_metrics = new.metrics();
    let mut report = CompareReport::default();

    for (name, &base_value) in &base_metrics {
        let Some(&new_value) = new_metrics.get(name) else {
            report.missing.push(name.clone());
            continue;
        };
        let rule = rules
            .iter()
            .find(|r| pattern_matches(&r.pattern, name))
            .unwrap_or_else(|| panic!("no rule matches {name:?}; keep a '*' catch-all"));
        let denom = base_value.abs().max(rule.floor);
        let worse_by = match rule.direction {
            Direction::LowerIsBetter => (new_value - base_value) / denom,
            Direction::HigherIsBetter => (base_value - new_value) / denom,
        };
        let delta = MetricDelta {
            name: name.clone(),
            base: base_value,
            new: new_value,
            worse_by,
            rel_tol: rule.rel_tol,
            rule: rule.pattern.clone(),
        };
        if worse_by > rule.rel_tol {
            report.regressions.push(delta);
        } else if worse_by < -rule.rel_tol {
            report.improvements.push(delta);
        } else {
            report.within += 1;
        }
    }
    for name in new_metrics.keys() {
        if !base_metrics.contains_key(name) {
            report.added.push(name.clone());
        }
    }
    // Worst offenders first, so the gate's output leads with the story.
    report.regressions.sort_by(|a, b| b.worse_by.total_cmp(&a.worse_by));
    report.improvements.sort_by(|a, b| a.worse_by.total_cmp(&b.worse_by));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_patterns_match_like_globs() {
        assert!(pattern_matches("fig12.*", "fig12.p99_us.t4.i100"));
        assert!(pattern_matches("*.savings_pct.*", "fig11.savings_pct.mesh"));
        assert!(pattern_matches("*", "anything.at.all"));
        assert!(pattern_matches("fig7.overhead_pct.mcf", "fig7.overhead_pct.mcf"));
        assert!(!pattern_matches("fig7.*", "fig8.overhead_pct.mcf"));
        assert!(!pattern_matches("fig12.p99_us.*", "fig12.p99_us"));
    }

    #[test]
    fn first_matching_rule_wins() {
        let rules = default_rules();
        let rule = rules
            .iter()
            .find(|r| pattern_matches(&r.pattern, "fig12.p99_pause_us.t4.i100"))
            .unwrap();
        assert_eq!(rule.pattern, "fig12.p99_pause_us.*");
        let rule =
            rules.iter().find(|r| pattern_matches(&r.pattern, "fig12.p99_us.t4.i100")).unwrap();
        assert_eq!(rule.pattern, "fig12.*");
    }

    #[test]
    fn overrides_inherit_direction_from_defaults() {
        let rule = parse_override("fig11.savings_pct.*=2.0").unwrap();
        assert_eq!(rule.direction, Direction::HigherIsBetter);
        assert_eq!(rule.rel_tol, 2.0);
        let rule = parse_override("fig12.*=0.5").unwrap();
        assert_eq!(rule.direction, Direction::LowerIsBetter);
        // A broad family override inherits from the family's own default
        // rule, not the narrower higher-is-better savings rule it contains.
        let rule = parse_override("fig9.*=0.5").unwrap();
        assert_eq!(rule.direction, Direction::LowerIsBetter);
        let rule = parse_override("fig9.savings_pct.*=0.5").unwrap();
        assert_eq!(rule.direction, Direction::HigherIsBetter);
        assert!(parse_override("no-equals").is_err());
        assert!(parse_override("x=-1").is_err());
    }
}
