//! Applies the bounds fixed in `BENCHMARK.json` to two result files.
//!
//! For each workload and end-to-end metric the second file (the change)
//! is set against the first (the base): a median worse than the base's
//! by more than the metric's bound is a breach; a pair whose quartile
//! spread exceeds the bound is unresolved, because the runs cannot tell
//! a change of that size from noise; and a failed operation in the
//! second file is a breach whatever the timings say.

use p_telemetry::json::JsonValue;

use crate::stats::Summary;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` list of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &JsonValue) -> Option<Vec<Bound>> {
    benchmark_json
        .get("end_to_end")?
        .as_array()?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs are steady enough to say so.
    Within,
    /// The quartile spread of either side exceeds the bound.
    Unresolved,
    /// Worse than the base by more than the bound.
    Breach,
}

/// The change's median over the base's, and how the bound judges it.
pub fn judge(bound: &Bound, base: &Summary, change: &Summary) -> (f64, Verdict) {
    let ratio = if base.median == 0.0 {
        1.0
    } else {
        change.median / base.median
    };
    let worse_by = if bound.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let verdict = if worse_by > bound.bound {
        Verdict::Breach
    } else if base.spread().max(change.spread()) > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (ratio, verdict)
}

/// Failed operations must stay at 0.
pub fn judge_failures(change_failed: u64) -> Verdict {
    if change_failed == 0 {
        Verdict::Within
    } else {
        Verdict::Breach
    }
}

fn summary_of(metric: &JsonValue) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_u64()? as usize,
    })
}

fn workload<'a>(result: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    result
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// Prints one row per workload and metric; returns the number of
/// breaches and of unresolved pairs. A workload or metric missing from
/// either file is a breach.
pub fn compare(bounds: &[Bound], base: &JsonValue, change: &JsonValue) -> (usize, usize) {
    let (mut breaches, mut unresolved) = (0, 0);
    println!(
        "{:<26} {:<13} {:>12} {:>23} {:>12} {:>23} {:>8}  verdict (ratio: change / base)",
        "workload", "metric", "base", "[q1, q3] n", "change", "[q1, q3] n", "ratio"
    );
    let names: Vec<&str> = base
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    for name in names {
        let (Some(a), Some(b)) = (workload(base, name), workload(change, name)) else {
            println!("{name:<26} missing from the second file: BREACH");
            breaches += 1;
            continue;
        };
        for bound in bounds {
            let find = |w: &JsonValue| summary_of(w.get("end_to_end")?.get(&bound.name)?);
            let (Some(sa), Some(sb)) = (find(a), find(b)) else {
                println!("{name:<26} {:<13} missing: BREACH", bound.name);
                breaches += 1;
                continue;
            };
            let (ratio, verdict) = judge(bound, &sa, &sb);
            let cell = |s: &Summary| format!("[{:.4}, {:.4}] {}", s.q1, s.q3, s.n);
            println!(
                "{name:<26} {:<13} {:>12.4} {:>23} {:>12.4} {:>23} {ratio:>8.4}  {}",
                format!("{} ({})", bound.name, bound.unit),
                sa.median,
                cell(&sa),
                sb.median,
                cell(&sb),
                match verdict {
                    Verdict::Within => format!("within {:.0}%", bound.bound * 100.0),
                    Verdict::Unresolved =>
                        format!("UNRESOLVED: spread above {:.0}%", bound.bound * 100.0),
                    Verdict::Breach => format!("BREACH of {:.0}%", bound.bound * 100.0),
                }
            );
            match verdict {
                Verdict::Within => {}
                Verdict::Unresolved => unresolved += 1,
                Verdict::Breach => breaches += 1,
            }
        }
        let failed = |w: &JsonValue| w.get("failed").and_then(JsonValue::as_u64).unwrap_or(1);
        let attempted = |w: &JsonValue| w.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0);
        let verdict = judge_failures(failed(b));
        println!(
            "{name:<26} {:<13} {:>12} {:>23} {:>12} {:>23} {:>8}  {}",
            "failed",
            failed(a),
            format!("of {}", attempted(a)),
            failed(b),
            format!("of {}", attempted(b)),
            "",
            if verdict == Verdict::Within {
                "stays 0"
            } else {
                "BREACH: must stay 0"
            }
        );
        if verdict == Verdict::Breach {
            breaches += 1;
        }
    }
    (breaches, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "wall_s".to_owned(),
            unit: "s".to_owned(),
            lower_is_better,
            bound,
        }
    }

    fn steady(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 10,
        }
    }

    #[test]
    fn a_lower_is_better_metric_may_rise_by_its_bound() {
        let b = bound(true, 0.10);
        assert_eq!(judge(&b, &steady(2.0), &steady(2.19)).1, Verdict::Within);
        assert_eq!(judge(&b, &steady(2.0), &steady(2.21)).1, Verdict::Breach);
        assert_eq!(judge(&b, &steady(2.0), &steady(1.0)).1, Verdict::Within);
        let (ratio, _) = judge(&b, &steady(2.0), &steady(2.2));
        assert!((ratio - 1.1).abs() < 1e-12);
    }

    #[test]
    fn a_higher_is_better_metric_may_fall_by_its_bound() {
        let b = bound(false, 0.05);
        assert_eq!(judge(&b, &steady(0.95), &steady(0.91)).1, Verdict::Within);
        assert_eq!(judge(&b, &steady(0.95), &steady(0.90)).1, Verdict::Breach);
        assert_eq!(judge(&b, &steady(0.95), &steady(0.99)).1, Verdict::Within);
    }

    #[test]
    fn a_spread_above_the_bound_leaves_the_pair_unresolved() {
        let b = bound(true, 0.05);
        let noisy = Summary {
            median: 2.0,
            q1: 1.9,
            q3: 2.1,
            n: 10,
        };
        assert_eq!(judge(&b, &noisy, &steady(2.0)).1, Verdict::Unresolved);
        assert_eq!(judge(&b, &steady(2.0), &noisy).1, Verdict::Unresolved);
        // A breach is a breach even when the runs are noisy.
        assert_eq!(judge(&b, &noisy, &steady(2.5)).1, Verdict::Breach);
    }

    #[test]
    fn failures_must_stay_zero() {
        assert_eq!(judge_failures(0), Verdict::Within);
        assert_eq!(judge_failures(1), Verdict::Breach);
    }

    #[test]
    fn two_result_files_are_compared_row_by_row() {
        let bounds_doc = JsonValue::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds(&bounds_doc).unwrap();
        assert_eq!(bounds, [bound(true, 0.1)]);
        let file = |median: f64, failed: u64| {
            JsonValue::parse(&format!(
                r#"{{"workloads": [{{"name": "w", "attempted": 9, "failed": {failed},
                    "end_to_end": {{"wall_s": {{"median": {median}, "q1": {median}, "q3": {median}, "n": 3}}}}}}]}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&bounds, &file(1.0, 0), &file(1.05, 0)), (0, 0));
        assert_eq!(compare(&bounds, &file(1.0, 0), &file(1.2, 0)), (1, 0));
        assert_eq!(compare(&bounds, &file(1.0, 0), &file(1.0, 2)), (1, 0));
        let empty = JsonValue::parse(r#"{"workloads": []}"#).unwrap();
        assert_eq!(compare(&bounds, &file(1.0, 0), &empty), (1, 0));
    }
}
