//! CI overhead gate: compares a fresh `perf_report` run against the
//! committed `BENCH_checker.json` and fails (exit 1) if median checker
//! throughput regressed by more than the threshold.
//!
//! ```sh
//! telemetry_gate FRESH.json BASELINE.json [--threshold 0.10] [--mode exhaustive] [--only a,b,c]
//! ```
//!
//! `--only` restricts *both* reports to the named programs before taking
//! medians, so a fresh run of the fast corpus subset (perf_report
//! `--only`) compares against the same subset of the committed
//! baseline — the `bench-regression` job's apples-to-apples guard.
//!
//! Both files are [`BenchReport`] JSON. The comparison is on the median
//! `states_per_sec` across rows of the given mode (median, not mean, so
//! one slow CI outlier program cannot flip the verdict). The CI job runs
//! `perf_report` twice — with the `telemetry` feature (default) and with
//! `--no-default-features` — and gates both against the committed
//! baseline, which is what enforces the "hooks compiled in but disabled
//! cost < 10%" budget.
//!
//! Absolute wall-clock on shared CI runners is noisy; the threshold is a
//! guard against order-of-magnitude mistakes (accidentally enabled
//! sinks, hooks in the hot loop), not a microbenchmark.

use std::process::ExitCode;

use p_core::telemetry::json::JsonValue;
use p_core::telemetry::BenchReport;

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    BenchReport::from_json(&value).ok_or_else(|| format!("{path}: not a bench report"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 0.10_f64;
    let mut mode = "exhaustive".to_owned();
    let mut only: Option<Vec<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                let value = args.get(i + 1).ok_or("--threshold needs a value")?;
                threshold = value
                    .parse()
                    .map_err(|_| format!("--threshold: `{value}` is not a number"))?;
                i += 2;
            }
            "--mode" => {
                mode = args.get(i + 1).ok_or("--mode needs a value")?.clone();
                i += 2;
            }
            "--only" => {
                let list = args
                    .get(i + 1)
                    .ok_or("--only needs a comma-separated list")?;
                only = Some(list.split(',').map(str::to_owned).collect::<Vec<_>>());
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    let [fresh_path, baseline_path] = paths.as_slice() else {
        return Err(
            "usage: telemetry_gate FRESH.json BASELINE.json [--threshold F] [--mode M] [--only a,b,c]"
                .to_owned(),
        );
    };

    let mut fresh = load(fresh_path)?;
    let mut baseline = load(baseline_path)?;
    if let Some(names) = &only {
        for report in [&mut fresh, &mut baseline] {
            report.programs.retain(|row| {
                let name = row.get("name").and_then(JsonValue::as_str);
                name.is_some_and(|name| names.iter().any(|n| n == name))
            });
        }
        if fresh.programs.is_empty() || baseline.programs.is_empty() {
            return Err("--only filtered out every row of one report".to_owned());
        }
    }
    let fresh_median = fresh
        .median_states_per_sec(Some(&mode))
        .ok_or_else(|| format!("{fresh_path}: no `{mode}` rows"))?;
    let baseline_median = baseline
        .median_states_per_sec(Some(&mode))
        .ok_or_else(|| format!("{baseline_path}: no `{mode}` rows"))?;

    let ratio = fresh_median / baseline_median;
    println!(
        "mode {mode}: fresh median {fresh_median:.0} states/s, baseline {baseline_median:.0} states/s, ratio {ratio:.3} (floor {:.3})",
        1.0 - threshold
    );
    if ratio < 1.0 - threshold {
        return Err(format!(
            "throughput regression: median {mode} states/sec dropped {:.1}% (> {:.0}% allowed)",
            (1.0 - ratio) * 100.0,
            threshold * 100.0
        ));
    }
    println!("OK: within the {:.0}% budget", threshold * 100.0);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("telemetry_gate: {message}");
            ExitCode::FAILURE
        }
    }
}
