//! Runtime-executor throughput report: the sharded executor driven by
//! two synthetic workloads across machine counts and shard counts,
//! printed as a table and written to `BENCH_runtime.json`.
//!
//! Workloads:
//!
//! * **fan_out** — independent `Counter` machines, events injected
//!   round-robin from four producer threads. Every delivery is one
//!   machine run; scaling is limited only by scheduling overhead, so
//!   this is the workload the CI gate watches.
//! * **ping_ring** — closed rings of eight `Relay` machines wired
//!   through id-typed variables (each ring co-located on one shard, as
//!   the cross-shard boundary requires). One `go` injection per ring
//!   cascades around the ring inside a single run-to-completion
//!   delivery, so the ratio of machine runs to injections measures the
//!   in-program send path, not the mailbox path.
//!
//! Rows are [`p_core::telemetry::RuntimeBenchRow`] wrapped in a
//! [`p_core::telemetry::RuntimeBenchReport`] (`p-runtime-bench-v1`),
//! the runtime analog of `BENCH_checker.json`. The latency columns are
//! quantiles of the executor's log2 histogram: each is the upper bound of
//! the power-of-two bucket the quantile falls in (never below the true
//! value, less than twice it), and they are closed-loop figures, taken
//! while the producers saturate the executor.
//!
//! ```sh
//! cargo run --release -p p-bench --bin runtime_report [OUT.json] [--quick] [--xl] [--gate]
//! ```
//!
//! `--quick` restricts to 1k machines on 1 and 4 shards (the CI subset);
//! `--xl` adds the million-machine cells (minutes of wall clock — run
//! locally, not in CI); `--gate` exits nonzero unless fan-out throughput
//! on 4 shards clears a generous floor relative to 1 shard (see the gate
//! constant below for why the floor is below 1.0).

use std::time::{Duration, Instant};

use p_core::runtime::{Executor, Injection, OverflowPolicy, Runtime};
use p_core::telemetry::{RuntimeBenchReport, RuntimeBenchRow};
use p_core::{MachineId, Value};

const COUNTER: &str = r#"
    event tick;
    machine Counter {
        var n : int;
        state Run { on tick do bump; }
        action bump { n := n + 1; }
    }
    main Counter();
"#;

const RING: &str = r#"
    event go : int;
    event wire : id;
    machine Relay {
        var next : id;
        var wired : bool;
        var hits : int;
        state Run {
            on wire do setnext;
            on go do forward;
        }
        action setnext { next := arg; wired := true; }
        action forward {
            hits := hits + 1;
            if (wired) {
                if (arg > 0) { send(next, go, arg - 1); }
            }
        }
    }
    main Relay();
"#;

/// Ring size for the ping_ring workload.
const RING_LEN: usize = 8;
/// Laps-worth of hops each ring injection carries (two full laps).
const RING_HOPS: i64 = (2 * RING_LEN - 1) as i64;
/// Producer threads for the fan_out workload.
const PRODUCERS: usize = 4;

/// The `--gate` floor: fan-out events/sec on 4 shards must be at least
/// this fraction of the 1-shard rate. The floor sits well below 1.0 on
/// purpose: CI runners (and this repo's reference container) expose a
/// single core, where extra shards buy no parallelism and pay thread
/// scheduling overhead — the gate exists to catch collapses (lock
/// convoys, lost wakeups), not to assert a speedup the hardware cannot
/// show. See EXPERIMENTS.md E14 for measured numbers.
const GATE_FLOOR: f64 = 0.5;

fn fan_out_cell(machines: usize, shards: usize) -> RuntimeBenchRow {
    let injections = (2 * machines).clamp(20_000, 400_000);
    let program = p_core::parser::parse(COUNTER).unwrap();
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(shards)
        .mailbox_capacity(64)
        .credits(4096)
        .overflow(OverflowPolicy::Block)
        .record_latency(true)
        .start();
    let ids: Vec<MachineId> = (0..machines)
        .map(|_| {
            exec.create_machine("Counter", &[("n", Value::Int(0))])
                .unwrap()
        })
        .collect();
    let runtimes: Vec<Runtime> = (0..shards)
        .map(|s| exec.shard_runtime(s).unwrap().clone())
        .collect();
    // Machine creation ran each Counter's entry once; subtract those
    // runs so `events` counts only the timed deliveries.
    let baseline: u64 = runtimes.iter().map(Runtime::runs_executed).sum();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let exec = &exec;
            let ids = &ids;
            scope.spawn(move || {
                let mut i = p;
                while i < injections {
                    exec.inject(Injection::new(ids[i % ids.len()], "tick", Value::Null))
                        .unwrap();
                    i += PRODUCERS;
                }
            });
        }
    });
    let report = exec.shutdown().unwrap();
    let seconds = started.elapsed().as_secs_f64();
    assert_eq!(report.delivered, injections as u64);
    row(
        "fan_out", machines, shards, injections, &runtimes, baseline, seconds, &report,
    )
}

fn ping_ring_cell(machines: usize, shards: usize) -> RuntimeBenchRow {
    let rings = (machines / RING_LEN).max(1);
    let program = p_core::parser::parse(RING).unwrap();
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(shards)
        .mailbox_capacity(64)
        .credits(4096)
        .overflow(OverflowPolicy::Block)
        .record_latency(true)
        .start();
    let base = &[("hits", Value::Int(0)), ("wired", Value::Bool(false))];
    let mut heads: Vec<MachineId> = Vec::with_capacity(rings);
    for ring in 0..rings {
        // Build each ring on one shard: the chain through `next` is an
        // in-program machine reference, which must stay shard-local.
        let shard = ring % shards;
        let head = exec.create_machine_on(shard, "Relay", base).unwrap();
        let mut prev = head;
        for _ in 1..RING_LEN {
            prev = exec
                .create_machine_on(
                    shard,
                    "Relay",
                    &[
                        ("hits", Value::Int(0)),
                        ("wired", Value::Bool(true)),
                        ("next", Value::Machine(prev)),
                    ],
                )
                .unwrap();
        }
        // Close the cycle: point the head at the last-created relay.
        exec.inject(Injection::new(head, "wire", Value::Machine(prev)))
            .unwrap();
        heads.push(head);
    }
    let runtimes: Vec<Runtime> = (0..shards)
        .map(|s| exec.shard_runtime(s).unwrap().clone())
        .collect();
    // Creation entry runs and the `wire` deliveries are setup, not the
    // timed cascade: wait them out, then snapshot, so `events` is
    // hops-only whatever the shard count.
    assert!(
        exec.quiesce(Duration::from_secs(60)),
        "wiring never settled"
    );
    let baseline: u64 = runtimes.iter().map(Runtime::runs_executed).sum();
    let started = Instant::now();
    for &head in &heads {
        exec.inject(Injection::new(head, "go", Value::Int(RING_HOPS)))
            .unwrap();
    }
    let report = exec.shutdown().unwrap();
    let seconds = started.elapsed().as_secs_f64();
    // One wire + one go per ring, nothing dropped.
    assert_eq!(report.delivered, 2 * rings as u64);
    row(
        "ping_ring",
        RING_LEN * rings,
        shards,
        rings,
        &runtimes,
        baseline,
        seconds,
        &report,
    )
}

#[allow(clippy::too_many_arguments)]
fn row(
    workload: &str,
    machines: usize,
    shards: usize,
    injections: usize,
    runtimes: &[Runtime],
    baseline: u64,
    seconds: f64,
    report: &p_core::runtime::ExecReport,
) -> RuntimeBenchRow {
    let events: u64 = runtimes
        .iter()
        .map(Runtime::runs_executed)
        .sum::<u64>()
        .saturating_sub(baseline);
    // Histogram-resolved: the bucket's upper bound, see the module docs.
    let q = |q: f64| {
        report
            .latency_quantile(q)
            .map_or(0, |d| d.as_nanos() as u64)
    };
    RuntimeBenchRow {
        workload: workload.to_owned(),
        machines: machines as u64,
        shards: shards as u64,
        injections: injections as u64,
        events,
        seconds,
        p50_latency_ns: q(0.50),
        p99_latency_ns: q(0.99),
        steals: report.stats.steals,
        batches: report.stats.batches,
        max_mailbox_depth: report
            .stats
            .shards
            .iter()
            .map(|s| s.max_mailbox_depth)
            .max()
            .unwrap_or(0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_runtime.json".to_owned();
    let (mut quick, mut xl, mut gate) = (false, false, false);
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--xl" => xl = true,
            "--gate" => gate = true,
            other if other.starts_with("--") => panic!("unknown flag `{other}`"),
            other => out_path = other.to_owned(),
        }
    }
    let machine_counts: &[usize] = if quick {
        &[1_000]
    } else if xl {
        &[1_000, 10_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let shard_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    println!("Runtime executor throughput — one inbox per shard, work stealing\n");
    println!(
        "{:<10} {:>9} {:>7} {:>10} {:>10} {:>8} {:>12} {:>10} {:>10} {:>8} {:>9} {:>6}",
        "workload",
        "machines",
        "shards",
        "injections",
        "events",
        "sec",
        "events/sec",
        "p50 µs",
        "p99 µs",
        "steals",
        "batches",
        "depth"
    );
    let mut rows = Vec::new();
    for &machines in machine_counts {
        for &shards in shard_counts {
            for cell in [fan_out_cell, ping_ring_cell] {
                let r = cell(machines, shards);
                println!(
                    "{:<10} {:>9} {:>7} {:>10} {:>10} {:>8.3} {:>12.0} {:>10.1} {:>10.1} {:>8} {:>9} {:>6}",
                    r.workload,
                    r.machines,
                    r.shards,
                    r.injections,
                    r.events,
                    r.seconds,
                    r.events_per_sec(),
                    r.p50_latency_ns as f64 / 1_000.0,
                    r.p99_latency_ns as f64 / 1_000.0,
                    r.steals,
                    r.batches,
                    r.max_mailbox_depth
                );
                rows.push(r);
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let report = RuntimeBenchReport { nproc, rows };
    std::fs::write(&out_path, report.to_json().render_pretty()).expect("write report");
    println!("\nwrote {out_path} (nproc {nproc})");

    if gate {
        let one = report
            .peak_events_per_sec("fan_out", 1)
            .expect("gate needs a 1-shard fan_out row");
        let four = report
            .peak_events_per_sec("fan_out", 4)
            .expect("gate needs a 4-shard fan_out row");
        let ratio = four / one;
        println!(
            "gate: fan_out peak events/sec — 1 shard {one:.0}, 4 shards {four:.0} \
             (ratio {ratio:.2}, floor {GATE_FLOOR})"
        );
        assert!(
            ratio >= GATE_FLOOR,
            "4-shard fan-out throughput collapsed below {GATE_FLOOR}x the 1-shard rate"
        );
    }
    // Sanity floor either way: the executor must actually have moved
    // events, or every number above is vacuous.
    assert!(
        report.rows.iter().all(|r| r.events > 0 && r.seconds > 0.0),
        "every cell must process events"
    );
}
