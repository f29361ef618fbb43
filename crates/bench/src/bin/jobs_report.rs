//! Parallel-exploration report: exhaustive verification of the three
//! largest corpus benchmarks at increasing worker counts, with the
//! jobs=1 run (one worker on the calling thread) as the baseline.
//!
//! The state counts and verdicts are asserted identical across worker
//! counts (by `jobs_rows`); the table shows what parallelism buys in
//! wall-clock time on this machine.
//!
//! ```sh
//! cargo run --release -p p-bench --bin jobs_report [JOBS...]
//! ```
//!
//! With no arguments the report runs jobs = 1, 2, 4 and the detected
//! core count.

use p_bench::figures::{jobs_programs, jobs_rows};

fn main() {
    let mut job_counts: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    if job_counts.is_empty() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        job_counts = vec![1, 2, 4];
        if !job_counts.contains(&cores) {
            job_counts.push(cores);
        }
        job_counts.sort_unstable();
        job_counts.dedup();
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Parallel exhaustive exploration — jobs = {job_counts:?} ({cores} core(s) available)\n"
    );
    println!(
        "{:<12} {:>5} {:>10} {:>12} {:>12} {:>9}",
        "benchmark", "jobs", "states", "transitions", "time", "speedup"
    );

    let rows = jobs_rows(&job_counts);
    let mut baseline = std::collections::HashMap::new();
    for row in &rows {
        if row.jobs == job_counts[0] {
            baseline.insert(row.name, row.duration);
        }
        let speedup = baseline
            .get(row.name)
            .map(|base| base.as_secs_f64() / row.duration.as_secs_f64().max(1e-9))
            .unwrap_or(1.0);
        println!(
            "{:<12} {:>5} {:>10} {:>12} {:>11.1?} {:>8.2}x",
            row.name, row.jobs, row.states, row.transitions, row.duration, speedup
        );
    }

    println!(
        "\nAll {} benchmark(s) agree on states and verdict at every worker count.",
        jobs_programs().len()
    );
    if cores == 1 {
        println!("NOTE: single-core machine — parallel runs only add coordination overhead here.");
    }
}
