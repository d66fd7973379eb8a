//! `compare <a.json> <b.json>`: diff two full reports (`a` the parent,
//! `b` the change).
//!
//! The modeled clock is a pure function of the seed, so every modeled
//! metric — `sim_*`, every count and ratio of modeled events,
//! `sim.fingerprint32` — must be *equal*: any difference is a behaviour
//! change to be explained, not noise. Host end-to-end metrics compare
//! within the catalogue's `compare_bound`s; when the picked values differ by more
//! than the bound but the two sides' repetition ranges overlap, the
//! verdict is "unresolved", not "unchanged". Host per-layer metrics carry
//! no bound and are listed for the reader.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{self, Better, Clock};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Equal,
    Within,
    Improved,
    /// Beyond the bound, but the repetition ranges overlap.
    Unresolved,
    Regressed,
    /// A modeled metric differs: a behaviour change.
    Differs,
    /// Present on one side only.
    Missing,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Differs | Verdict::Missing
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regressed => "REGRESSED",
            Verdict::Differs => "DIFFERS",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One side's reading of a host metric: the picked value and the range
/// its repetitions spanned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Reading {
    fn of(metric: &Value) -> Option<Reading> {
        let value = metric.get("value")?.num()?;
        let side = |key| metric.get(key).and_then(Value::num).unwrap_or(value);
        Some(Reading {
            value,
            min: side("min"),
            max: side("max"),
        })
    }
}

/// The verdict on one bounded host metric.
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    // Positive = `b` is worse, as a share of `a`.
    let worsening = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worsening.abs() <= bound {
        return Verdict::Within;
    }
    let overlap = a.min <= b.max && b.min <= a.max;
    match (overlap, worsening > 0.0) {
        (true, _) => Verdict::Unresolved,
        (false, true) => Verdict::Regressed,
        (false, false) => Verdict::Improved,
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub name: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub verdict: Option<Verdict>,
}

fn section<'a>(report: &'a Value, workload: &str, part: &str) -> &'a [(String, Value)] {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(part))
        .map(Value::fields)
        .unwrap_or_default()
}

/// Every row of the diff, workloads and metrics in `a`'s order (then what
/// only `b` has).
pub fn diff(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads = |r: &Value| -> Vec<String> {
        r.get("workloads")
            .map(Value::fields)
            .unwrap_or_default()
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    };
    let mut names = workloads(a);
    for name in workloads(b) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    for workload in &names {
        for part in ["end_to_end", "per_layer"] {
            let (in_a, in_b) = (section(a, workload, part), section(b, workload, part));
            let mut metric_names: Vec<&String> = in_a.iter().map(|(n, _)| n).collect();
            metric_names.extend(
                in_b.iter()
                    .map(|(n, _)| n)
                    .filter(|n| !in_a.iter().any(|(m, _)| m == *n)),
            );
            for name in metric_names {
                let find = |side: &[(String, Value)]| {
                    side.iter()
                        .find(|(n, _)| n == name)
                        .and_then(|(_, v)| Reading::of(v))
                };
                let (ra, rb) = (find(in_a), find(in_b));
                let bounded = metrics::end_to_end(name);
                let clock = bounded
                    .map(|m| m.metric.clock)
                    .or_else(|| metrics::per_layer(name).map(|m| m.clock));
                let verdict = match (ra, rb, clock, bounded) {
                    (Some(_), Some(_), None, _) => None,
                    (Some(x), Some(y), Some(Clock::Modeled), _) => Some(if x.value == y.value {
                        Verdict::Equal
                    } else {
                        Verdict::Differs
                    }),
                    (Some(x), Some(y), Some(Clock::Host), Some(m)) => {
                        Some(judge(x, y, m.metric.better, m.compare_bound))
                    }
                    (Some(_), Some(_), Some(Clock::Host), None) => None,
                    _ => Some(Verdict::Missing),
                };
                rows.push(Row {
                    workload: workload.clone(),
                    name: name.clone(),
                    a: ra.map(|r| r.value),
                    b: rb.map(|r| r.value),
                    verdict,
                });
            }
        }
    }
    rows
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err("compare: expected <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "request_scale"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "compare: the reports differ in {key:?} ({:?} vs {:?}); they do not measure the same inputs",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let rows = diff(&a, &b);
    let show = |x: Option<f64>| x.map_or("absent".to_string(), |x| format!("{x:.4}"));
    let mut failures = 0;
    let mut unresolved = 0;
    for row in &rows {
        let change = match (row.a, row.b) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:+.2} %", (y - x) / x * 100.0),
            _ => String::new(),
        };
        println!(
            "{:<13} {:<36} {:>16} {:>16} {:>10}  {}",
            row.workload,
            row.name,
            show(row.a),
            show(row.b),
            change,
            row.verdict.map_or("", Verdict::label),
        );
        failures += usize::from(row.verdict.is_some_and(Verdict::fails));
        unresolved += usize::from(row.verdict == Some(Verdict::Unresolved));
    }
    println!(
        "{} rows, {failures} regressed or differing, {unresolved} unresolved \
         (beyond the bound, but the repetition ranges overlap: run again)",
        rows.len()
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn bounds_and_overlap_decide_the_verdict() {
        let a = reading(100.0, 90.0, 100.0);
        // Higher is better: 95 is within 8 %, 80 is not.
        assert_eq!(
            judge(a, reading(95.0, 93.0, 95.0), Better::Higher, 0.08),
            Verdict::Within
        );
        assert_eq!(
            judge(a, reading(80.0, 70.0, 80.0), Better::Higher, 0.08),
            Verdict::Regressed
        );
        // Worse by 15 %, but b's range reaches into a's: not resolved.
        assert_eq!(
            judge(a, reading(85.0, 60.0, 92.0), Better::Higher, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(a, reading(120.0, 110.0, 120.0), Better::Higher, 0.08),
            Verdict::Improved
        );
        // Lower is better: the same numbers flip.
        assert_eq!(
            judge(a, reading(120.0, 110.0, 120.0), Better::Lower, 0.08),
            Verdict::Regressed
        );
        assert_eq!(
            judge(a, reading(80.0, 70.0, 80.0), Better::Lower, 0.08),
            Verdict::Improved
        );
    }

    fn report(speed: (f64, f64, f64), fingerprint: f64, batches: f64) -> Value {
        let text = format!(
            r#"{{"seed": 42, "request_scale": 0.5, "workloads": {{"serve-learn": {{
                "end_to_end": {{
                    "host_req_per_s": {{"value": {}, "unit": "1/s", "min": {}, "max": {}}},
                    "sim_avg_latency_us": {{"value": 617.8, "unit": "us"}}
                }},
                "per_layer": {{
                    "sim.fingerprint32": {{"value": {fingerprint}, "unit": "count"}},
                    "serve.batches": {{"value": {batches}, "unit": "count"}},
                    "core.train_us_per_req": {{"value": 29.1, "unit": "us"}}
                }}
            }}}}}}"#,
            speed.0, speed.1, speed.2
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn modeled_metrics_must_be_equal_and_host_layers_carry_no_verdict() {
        let a = report((100.0, 90.0, 100.0), 7.0, 9375.0);
        let same = diff(&a, &report((97.0, 92.0, 97.0), 7.0, 9375.0));
        assert!(same.iter().all(|r| !r.verdict.is_some_and(Verdict::fails)));
        let by_name = |rows: &[Row], name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .map(|r| r.verdict)
                .unwrap()
        };
        assert_eq!(by_name(&same, "sim.fingerprint32"), Some(Verdict::Equal));
        assert_eq!(by_name(&same, "sim_avg_latency_us"), Some(Verdict::Equal));
        assert_eq!(by_name(&same, "host_req_per_s"), Some(Verdict::Within));
        assert_eq!(by_name(&same, "core.train_us_per_req"), None);

        let drifted = diff(&a, &report((100.0, 90.0, 100.0), 8.0, 9376.0));
        assert_eq!(
            by_name(&drifted, "sim.fingerprint32"),
            Some(Verdict::Differs)
        );
        assert_eq!(by_name(&drifted, "serve.batches"), Some(Verdict::Differs));

        let slower = diff(&a, &report((50.0, 45.0, 50.0), 7.0, 9375.0));
        assert_eq!(by_name(&slower, "host_req_per_s"), Some(Verdict::Regressed));
    }

    #[test]
    fn a_metric_on_one_side_only_is_missing() {
        let a = report((100.0, 90.0, 100.0), 7.0, 9375.0);
        let mut b = a.clone();
        if let Value::Obj(top) = &mut b {
            top.retain(|(k, _)| k != "workloads");
        }
        let rows = diff(&a, &b);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.verdict == Some(Verdict::Missing)));
    }
}
