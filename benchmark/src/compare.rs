//! Compares two `results.json` files of the suite: each end-to-end metric
//! may be worse in the second by at most its bound from `BENCHMARK.json`;
//! every count, modeled value and failure count must be *equal*, digit for
//! digit. Host-clock per-layer metrics are listed but never fail.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{lookup, Better};

/// Metrics outside the two catalogues that must also repeat exactly.
/// (`ops_attempted` is exact only for the traced run, whose passes have a
/// fixed size; an untraced run does as many reps as fit in its seconds.)
const EXACT_EXTRAS: [&str; 3] = ["ops_failed", "ops_per_rep", "paper_err_pct"];

/// What became of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound, or equal where equality is required.
    Ok,
    /// A host-clock metric with no bound: shown, never judged.
    Info,
    /// An end-to-end metric worse than its bound allows.
    Regression,
    /// A count or modeled value that differs.
    Drift,
    /// Present in one file only.
    Missing,
}

impl Verdict {
    /// Whether the comparison as a whole fails on this verdict.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::Drift | Verdict::Missing
        )
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workload name.
    pub workload: String,
    /// `untraced` or `traced`.
    pub mode: String,
    /// Metric name.
    pub metric: String,
    /// Value text in the first and second file (`-` when missing).
    pub values: (String, String),
    /// Outcome.
    pub verdict: Verdict,
    /// How the outcome was reached.
    pub detail: String,
}

/// Reads `end_to_end` bounds out of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// An entry lacks a `name` or a numeric `bound`.
pub fn bounds(benchmark: &Json) -> Result<BTreeMap<String, f64>, String> {
    benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no `end_to_end`")?
        .items()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no numeric bound"))?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

fn value_text(metric: &Json) -> Option<&str> {
    metric.get("value")?.num_text()
}

fn judge(
    metric: &str,
    mode: &str,
    a: &str,
    b: &str,
    bounds: &BTreeMap<String, f64>,
) -> (Verdict, String) {
    let def = lookup(metric);
    if let (Some(bound), Some(def)) = (bounds.get(metric), def) {
        let (Ok(a), Ok(b)) = (a.parse::<f64>(), b.parse::<f64>()) else {
            return (Verdict::Drift, "not a number".to_owned());
        };
        let worse_by = match def.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let detail = format!("{:+.1}% (bound {:.0}%)", 100.0 * worse_by, 100.0 * bound);
        return if worse_by > *bound {
            (Verdict::Regression, detail)
        } else {
            (Verdict::Ok, detail)
        };
    }
    let exact = def.is_some_and(|d| d.exact)
        || EXACT_EXTRAS.contains(&metric)
        || (metric == "ops_attempted" && mode == "traced");
    if !exact {
        return (Verdict::Info, "host clock, no bound".to_owned());
    }
    if a == b {
        (Verdict::Ok, "equal".to_owned())
    } else {
        (Verdict::Drift, "must repeat exactly".to_owned())
    }
}

/// The `(metric, value text)` pairs of one run, if the file has that run.
fn run_metrics(doc: &Json, workload: &str, mode: &str) -> Option<Vec<(String, String)>> {
    let metrics = doc
        .get("workloads")?
        .get(workload)?
        .get(mode)?
        .get("metrics")?;
    Some(
        metrics
            .members()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), value_text(v)?.to_owned())))
            .collect(),
    )
}

/// Compares two parsed `results.json` documents, first against second. A
/// workload must be in both files; a run of it (`untraced` / `traced`) that
/// only one file has — an untraced-only set against a traced one — is noted
/// and not compared.
pub fn compare(a: &Json, b: &Json, bounds: &BTreeMap<String, f64>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut workloads: Vec<&String> = Vec::new();
    for doc in [a, b] {
        for (name, _) in doc.get("workloads").map_or(&[][..], Json::members) {
            if !workloads.contains(&name) {
                workloads.push(name);
            }
        }
    }
    for workload in workloads {
        for mode in ["untraced", "traced"] {
            let mut push = |metric: &str, values: (String, String), verdict, detail: String| {
                findings.push(Finding {
                    workload: workload.clone(),
                    mode: mode.to_owned(),
                    metric: metric.to_owned(),
                    values,
                    verdict,
                    detail,
                });
            };
            let dash = || "-".to_owned();
            let (ma, mb) = match (
                run_metrics(a, workload, mode),
                run_metrics(b, workload, mode),
            ) {
                (Some(ma), Some(mb)) => (ma, mb),
                (None, None) => continue,
                (one, _) => {
                    let other = if mode == "traced" {
                        "untraced"
                    } else {
                        "traced"
                    };
                    let file = if one.is_some() { b } else { a };
                    let verdict = if run_metrics(file, workload, other).is_some() {
                        Verdict::Info
                    } else {
                        Verdict::Missing
                    };
                    push(
                        "*",
                        (dash(), dash()),
                        verdict,
                        "run in one file only".to_owned(),
                    );
                    continue;
                }
            };
            let value = |m: &[(String, String)], key: &str| {
                m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
            };
            for (key, va) in &ma {
                match value(&mb, key) {
                    Some(vb) => {
                        let (verdict, detail) = judge(key, mode, va, &vb, bounds);
                        push(key, (va.clone(), vb), verdict, detail);
                    }
                    None => push(
                        key,
                        (va.clone(), dash()),
                        Verdict::Missing,
                        "in one file only".to_owned(),
                    ),
                }
            }
            for (key, vb) in mb.iter().filter(|(k, _)| value(&ma, k).is_none()) {
                push(
                    key,
                    (dash(), vb.clone()),
                    Verdict::Missing,
                    "in one file only".to_owned(),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: &str, pages: &str, cpu: &str) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"bulk_read": {{
                "untraced": {{"metrics": {{
                    "wall_s": {{"value": {wall}, "unit": "s"}},
                    "ops_per_wall_s": {{"value": 100.0, "unit": "ops/s"}},
                    "ops_failed": {{"value": 0, "unit": "count"}},
                    "ops_attempted": {{"value": 500, "unit": "count"}}}}}},
                "traced": {{"metrics": {{
                    "flash.pages_read": {{"value": {pages}, "unit": "count"}},
                    "process.user_cpu_s": {{"value": {cpu}, "unit": "s"}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn bounds_10pct() -> BTreeMap<String, f64> {
        let benchmark = Json::parse(
            r#"{"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "ops_per_wall_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds(&benchmark).unwrap()
    }

    fn failing(findings: &[Finding]) -> Vec<(&str, Verdict)> {
        findings
            .iter()
            .filter(|f| f.verdict.fails())
            .map(|f| (f.metric.as_str(), f.verdict))
            .collect()
    }

    #[test]
    fn same_numbers_and_noise_within_bound_pass() {
        let b = bounds_10pct();
        assert!(failing(&compare(
            &doc("1.0", "42", "3.0"),
            &doc("1.0", "42", "3.0"),
            &b
        ))
        .is_empty());
        // 9 % slower and a very different CPU time: neither fails.
        let findings = compare(&doc("1.0", "42", "3.0"), &doc("1.09", "42", "9.0"), &b);
        assert!(failing(&findings).is_empty());
        assert!(findings
            .iter()
            .any(|f| f.metric == "process.user_cpu_s" && f.verdict == Verdict::Info));
        // An improvement beyond the bound is not a regression.
        assert!(failing(&compare(
            &doc("1.0", "42", "3.0"),
            &doc("0.5", "42", "3.0"),
            &b
        ))
        .is_empty());
    }

    #[test]
    fn planted_11_percent_wall_regression_is_rejected() {
        let findings = compare(
            &doc("1.0", "42", "3.0"),
            &doc("1.11", "42", "3.0"),
            &bounds_10pct(),
        );
        assert_eq!(failing(&findings), [("wall_s", Verdict::Regression)]);
    }

    #[test]
    fn planted_count_drift_is_rejected() {
        let findings = compare(
            &doc("1.0", "42", "3.0"),
            &doc("1.0", "43", "3.0"),
            &bounds_10pct(),
        );
        assert_eq!(failing(&findings), [("flash.pages_read", Verdict::Drift)]);
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let b = bounds_10pct();
        let (v, _) = judge("ops_per_wall_s", "untraced", "100", "89", &b);
        assert_eq!(v, Verdict::Regression);
        let (v, _) = judge("ops_per_wall_s", "untraced", "100", "120", &b);
        assert_eq!(v, Verdict::Ok);
        // Untraced attempts follow the clock; traced attempts are fixed.
        assert_eq!(
            judge("ops_attempted", "untraced", "5", "6", &b).0,
            Verdict::Info
        );
        assert_eq!(
            judge("ops_attempted", "traced", "5", "6", &b).0,
            Verdict::Drift
        );
    }

    #[test]
    fn missing_workloads_and_metrics_fail_but_a_missing_run_does_not() {
        let a = doc("1.0", "42", "3.0");
        let none = Json::parse(r#"{"workloads": {}}"#).unwrap();
        let findings = compare(&a, &none, &bounds_10pct());
        assert!(!findings.is_empty() && findings.iter().all(|f| f.verdict == Verdict::Missing));

        // An untraced-only set against a traced one: the traced run is noted.
        let untraced_only = Json::parse(
            r#"{"workloads": {"bulk_read": {"untraced": {"metrics": {
                "wall_s": {"value": 1.0, "unit": "s"}}}}}}"#,
        )
        .unwrap();
        let findings = compare(&untraced_only, &a, &bounds_10pct());
        assert!(findings
            .iter()
            .any(|f| f.mode == "traced" && f.verdict == Verdict::Info));
        // …but metrics the shared run lacks on one side still fail.
        assert_eq!(
            failing(&findings),
            [
                ("ops_per_wall_s", Verdict::Missing),
                ("ops_failed", Verdict::Missing),
                ("ops_attempted", Verdict::Missing)
            ]
        );
    }
}
