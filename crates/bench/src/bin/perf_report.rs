//! Checker-throughput report: exhaustive verification of every corpus
//! program, printed as a table and written to `BENCH_checker.json`
//! (states/sec, unique states, peak stored bytes, and the sleep-set POR
//! and symmetry-reduction comparisons per program).
//!
//! Each program is explored four times — plain, `--por`, `--symmetry`,
//! and `--por --symmetry` — and the runs are asserted to agree on the
//! verdict, with POR preserving unique states exactly and symmetry never
//! increasing them, so the JSON doubles as a soundness witness for the
//! numbers it reports.
//!
//! The rows are [`p_core::exploration_row`]s — the same row `p verify
//! --profile` embeds in profile JSON — wrapped in a
//! [`p_core::telemetry::BenchReport`], which is what the CI
//! `telemetry_gate` parses back to compare throughput.
//!
//! ```sh
//! cargo run --release -p p-bench --bin perf_report [OUT.json] [--only a,b,c]
//! ```
//!
//! With no argument the JSON goes to `BENCH_checker.json` in the current
//! directory. `--only` restricts the run to a comma-separated list of
//! corpus program names — the fast-subset mode the `bench-regression`
//! CI job uses to guard the throughput trajectory on every PR.

use p_bench::figures::perf_rows_for;
use p_core::telemetry::json::JsonValue;
use p_core::telemetry::BenchReport;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_checker.json".to_owned();
    let mut only: Option<Vec<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--only" => {
                let list = args
                    .get(i + 1)
                    .expect("--only needs a comma-separated list");
                only = Some(list.split(',').map(str::to_owned).collect());
                i += 2;
            }
            other if other.starts_with("--") => panic!("unknown flag `{other}`"),
            _ => {
                out_path = args[i].clone();
                i += 1;
            }
        }
    }

    println!("Checker throughput — exhaustive exploration, one worker\n");
    println!(
        "{:<12} {:<14} {:>8} {:>12} {:>10} {:>12} {:>11} {:>10} {:>12} {:>9}  \
         phase ms (exec/digest/clone/canon/table)",
        "program",
        "mode",
        "states",
        "transitions",
        "time",
        "states/sec",
        "bytes/st",
        "dedup",
        "sleep-pruned",
        "merges",
    );

    let report = BenchReport {
        programs: perf_rows_for(only.as_deref()),
    };
    for row in &report.programs {
        let text = |key: &str| row.get(key).and_then(JsonValue::as_str).unwrap_or("");
        let n = |key: &str| row.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        println!(
            "{:<12} {:<14} {:>8} {:>12} {:>9.1}ms {:>12.0} {:>11.1} {:>10} {:>12} {:>9}  \
             {:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
            text("name"),
            text("mode"),
            n("states"),
            n("transitions"),
            n("seconds") * 1e3,
            n("states_per_sec"),
            n("bytes_per_state"),
            n("dedup_hits"),
            n("sleep_pruned"),
            n("symmetry_merges"),
            n("exec_seconds") * 1e3,
            n("digest_seconds") * 1e3,
            n("clone_seconds") * 1e3,
            n("canon_seconds") * 1e3,
            n("table_seconds") * 1e3,
        );
    }

    let json = report.to_json().render_pretty();
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "\nWrote {out_path}; POR and symmetry agreed with full exploration on \
         the verdict for all {} program(s).",
        report.programs.len() / 4
    );
    if only.is_some() {
        println!("(--only subset — do not commit this file as the benchmark baseline)");
    }
}
