//! Telemetry integration tests: the subsystem must be *observably
//! invisible* — enabling it changes no verdict and no exploration
//! counter — and the trace files it writes must round-trip through the
//! Chrome `trace_event` JSON format with well-formed span nesting.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use p_core::telemetry::json::JsonValue;
use p_core::telemetry::Telemetry;
use p_core::{corpus, CheckerOptions, Compiled};

fn p_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p"))
}

fn corpus_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../corpus/programs")
        .join(name)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p-telemetry-test-{name}"))
}

/// An enabled handle with an aggressive snapshot interval, so even the
/// tiny corpus programs record several snapshots.
fn hot_telemetry() -> Telemetry {
    Telemetry::builder()
        .snapshot_interval(Duration::from_micros(1))
        .build()
        .0
}

// ---- on-vs-off equivalence ---------------------------------------------

/// For every corpus program and every engine configuration (sequential,
/// POR, parallel), running with an enabled telemetry handle must produce
/// exactly the same verdict and counters as running disabled. Telemetry
/// observes the search; it must never steer it.
#[test]
fn telemetry_never_changes_checker_results() {
    for (name, program) in corpus::all() {
        let compiled = Compiled::from_program(program).expect("corpus program compiles");
        for (tag, por, jobs) in [
            ("sequential", false, 1),
            ("por", true, 1),
            ("parallel", false, 4),
        ] {
            let options = CheckerOptions {
                por,
                jobs,
                ..CheckerOptions::default()
            };
            let plain = compiled
                .verifier()
                .with_options(options.clone())
                .try_check_exhaustive()
                .unwrap();
            let traced = compiled
                .verifier()
                .with_options(options)
                .with_telemetry(hot_telemetry())
                .try_check_exhaustive()
                .unwrap();
            assert_eq!(
                plain.passed(),
                traced.passed(),
                "{name}/{tag}: telemetry changed the verdict"
            );
            assert_eq!(
                plain.complete, traced.complete,
                "{name}/{tag}: telemetry changed completeness"
            );
            assert_eq!(
                plain.stats.unique_states, traced.stats.unique_states,
                "{name}/{tag}: telemetry changed the state count"
            );
            assert_eq!(
                plain.stats.transitions, traced.stats.transitions,
                "{name}/{tag}: telemetry changed the transition count"
            );
            assert_eq!(
                plain.stats.dedup_hits, traced.stats.dedup_hits,
                "{name}/{tag}: telemetry changed the dedup count"
            );
            assert_eq!(
                plain.stats.sleep_pruned, traced.stats.sleep_pruned,
                "{name}/{tag}: telemetry changed the POR prune count"
            );
        }
    }
}

// ---- profile round-trip -------------------------------------------------

/// `p verify --profile` must emit parseable Chrome JSON whose
/// exploration counters agree with the stats the CLI printed, and the
/// verdict lines must be byte-identical to a run without the flag.
#[test]
fn verify_profile_round_trips_and_matches_plain_output() {
    let program = corpus_file("german3.p");
    let profile = temp_path("german3-prof.json");
    let with = p_bin()
        .args([
            "verify",
            program.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(with.status.success());
    let without = p_bin()
        .args(["verify", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(without.status.success());

    // The stats line and verdict line are identical with telemetry on —
    // except the wall time, which no two runs share; compare the
    // deterministic prefix ("N states, M transitions, depth D").
    let deterministic = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains(" states, ") || l.contains("PASSED") || l.contains("FAILED"))
            .map(|l| match l.split(", depth ").next() {
                Some(prefix) if l.contains(" states, ") => {
                    let depth = l
                        .split(", depth ")
                        .nth(1)
                        .and_then(|rest| rest.split(',').next())
                        .unwrap_or("");
                    format!("{prefix}, depth {depth}")
                }
                _ => l.to_owned(),
            })
            .collect()
    };
    assert_eq!(
        deterministic(&with),
        deterministic(&without),
        "--profile changed the verification output"
    );

    // Round-trip the profile document through the JSON parser.
    let text = std::fs::read_to_string(&profile).unwrap();
    let doc = JsonValue::parse(&text).expect("profile is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let snapshots: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("exploration"))
        .collect();
    assert!(
        !snapshots.is_empty(),
        "profile must contain exploration snapshots"
    );
    for snap in &snapshots {
        assert_eq!(snap.get("ph").and_then(JsonValue::as_str), Some("C"));
        assert!(snap.get("args").and_then(|a| a.get("states")).is_some());
    }

    // The embedded final metrics row agrees with the CLI's stats line.
    let exploration = doc.get("exploration").expect("final metrics row");
    let states = exploration
        .get("states")
        .and_then(JsonValue::as_u64)
        .unwrap();
    let transitions = exploration
        .get("transitions")
        .and_then(JsonValue::as_u64)
        .unwrap();
    let stdout = String::from_utf8_lossy(&with.stdout).into_owned();
    assert!(
        stdout.contains(&format!("{states} states, {transitions} transitions")),
        "profile metrics ({states} states, {transitions} transitions) disagree with CLI output:\n{stdout}"
    );
    // The last recorded snapshot has converged to the final counts.
    let last = snapshots.last().unwrap();
    assert_eq!(
        last.get("args")
            .and_then(|a| a.get("states"))
            .and_then(JsonValue::as_u64),
        Some(states)
    );
    let _ = std::fs::remove_file(&profile);
}

/// The cost of canonicalization is readable from the tool: under
/// `--symmetry` the final metrics row counts the canonicalizations run,
/// the candidate renumberings they digested (one each on German's
/// protocol: no enumeration) and the children their parent's pin keyed
/// without one, next to the sampled `canon_seconds`; every stored orbit
/// was keyed one of the two ways. With the reduction off all are zero.
#[test]
fn verify_profile_counts_canonicalizations() {
    let program = corpus_file("german3.p");
    let row = |flags: &[&str], tag: &str| {
        let profile = temp_path(tag);
        let out = p_bin()
            .args(["verify", program.to_str().unwrap(), "--profile"])
            .arg(&profile)
            .args(flags)
            .output()
            .unwrap();
        assert!(out.status.success());
        let doc = JsonValue::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        let _ = std::fs::remove_file(&profile);
        let count = |key: &str| {
            let row = doc.get("exploration").expect("final metrics row");
            row.get(key).and_then(JsonValue::as_u64).expect(key)
        };
        (
            count("canon_calls"),
            count("canon_candidates"),
            count("canon_pinned"),
            count("states"),
        )
    };
    assert_eq!(row(&[], "canon-off.json"), (0, 0, 0, 13_255));
    let (calls, candidates, pinned, states) = row(&["--symmetry"], "canon-on.json");
    assert_eq!(states, 9_457);
    assert!(
        calls + pinned >= states && pinned > 0,
        "{calls} calls and {pinned} pinned for {states} orbits"
    );
    assert!(
        candidates <= calls && candidates + 10 >= calls,
        "{candidates} candidates in {calls} calls"
    );
}

/// The phase columns are laps of one clock, so they add up: each
/// interval of a sampled task is charged to one phase at most, and
/// their sum stays within the search's own time.
#[test]
fn verify_profile_phases_add_up_to_at_most_the_search() {
    let profile = temp_path("german4-phases.json");
    let out = p_bin()
        .args(["verify", corpus_file("german4.p").to_str().unwrap()])
        .args(["--jobs", "1", "--profile"])
        .arg(&profile)
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = JsonValue::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    let _ = std::fs::remove_file(&profile);
    let row = doc.get("exploration").expect("final metrics row");
    let secs = |key: &str| row.get(key).and_then(JsonValue::as_f64).expect(key);
    let phases: f64 = ["exec", "digest", "clone", "canon", "table"]
        .iter()
        .map(|phase| secs(&format!("{phase}_seconds")))
        .sum();
    assert!(phases > 0.0, "no phase was sampled");
    assert!(
        phases <= secs("seconds"),
        "phases {phases:.4}s over a {:.4}s search",
        secs("seconds")
    );
}

/// The `exploration` object of `--profile` is the schema
/// `BENCH_checker.json`'s rows share, and downstream readers (the CI
/// jobs, `telemetry_gate`) look its keys up by name: this is its exact
/// key set, so adding, renaming or dropping a key is a deliberate edit
/// here.
#[test]
fn verify_profile_exploration_keys_are_pinned() {
    let profile = temp_path("german-keys.json");
    let out = p_bin()
        .args(["verify", corpus_file("german.p").to_str().unwrap()])
        .arg("--profile")
        .arg(&profile)
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = JsonValue::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    let _ = std::fs::remove_file(&profile);
    let Some(JsonValue::Obj(fields)) = doc.get("exploration") else {
        panic!("no exploration object");
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "bound",
            "bytes_per_state",
            "canon_calls",
            "canon_candidates",
            "canon_pinned",
            "canon_seconds",
            "clone_seconds",
            "cold_hits",
            "cold_lookups",
            "cold_reads",
            "cold_run_probes",
            "complete",
            "dedup_hits",
            "digest_seconds",
            "exec_seconds",
            "fault_transitions",
            "index_bytes",
            "max_depth",
            "mode",
            "name",
            "passed",
            "rebuilt_runs",
            "replayed_runs",
            "scheduler_nodes",
            "seconds",
            "sleep_pruned",
            "slot_bytes",
            "spill_bytes",
            "spilled_states",
            "states",
            "states_per_sec",
            "stored_bytes",
            "strategy",
            "symmetry_merges",
            "table_seconds",
            "transitions",
            "workers",
        ]
    );
}

/// `--profile` serves every strategy the kernel runs: the final row names
/// the scheduler and its bound, carries the node and injection counts the
/// CLI prints, and has the phase split and the snapshots of the run.
#[test]
fn verify_profile_names_the_strategy() {
    let row = |file: &str, flags: &[&str], tag: &str| {
        let profile = temp_path(tag);
        let out = p_bin()
            .args(["verify", corpus_file(file).to_str().unwrap(), "--profile"])
            .arg(&profile)
            .args(flags)
            .output()
            .unwrap();
        assert!(out.status.success());
        let doc = JsonValue::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        let _ = std::fs::remove_file(&profile);
        let row = doc.get("exploration").expect("final metrics row").clone();
        let count = |key: &str| row.get(key).and_then(JsonValue::as_u64).expect(key);
        let strategy = row.get("strategy").and_then(JsonValue::as_str).unwrap();
        (
            strategy.to_owned(),
            count("bound"),
            [
                count("states"),
                count("transitions"),
                count("scheduler_nodes"),
                count("fault_transitions"),
            ],
            count("workers"),
        )
    };
    let plain = row("german.p", &[], "strategy-plain.json");
    assert_eq!(plain.0, "exhaustive");
    assert_eq!((plain.1, plain.2[2], plain.2[3]), (0, 0, 0));
    let delayed = row(
        "german.p",
        &["--delay", "3", "--jobs", "2"],
        "strategy-delay.json",
    );
    assert_eq!(
        delayed,
        ("delay".to_owned(), 3, [2_425, 7_447, 4_907, 0], 2)
    );
    let faulty = row(
        "elevator.p",
        &["--faults", "1", "--fault-kinds", "drop"],
        "strategy-faults.json",
    );
    assert_eq!(
        faulty,
        ("faults".to_owned(), 1, [5_115, 25_190, 7_153, 4_297], 1)
    );
}

// ---- runtime trace nesting ---------------------------------------------

/// `p run --trace` must emit a Chrome document in which every `run` span
/// is properly bracketed (B before E, per track) and the per-event
/// instants (`dequeue`, `send`, `raise`, `inject`) fall *inside* a run
/// span on their track — the span covers the atomic run that produced
/// them.
#[test]
fn run_trace_spans_nest_their_events() {
    let program = corpus_file("switch_led.p");
    let trace = temp_path("switch-trace.json");
    let out = p_bin()
        .args([
            "run",
            program.to_str().unwrap(),
            "Driver",
            "--trace",
            trace.to_str().unwrap(),
            "DevicePowerUp",
            "IoctlSetLed:1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = JsonValue::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Replay the event stream per track, tracking open-span depth.
    use std::collections::HashMap;
    let mut depth: HashMap<u64, i64> = HashMap::new();
    let mut nested_instants = 0;
    for e in events {
        let tid = e.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
        let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("B") => {
                assert_eq!(name, "run", "only run spans are emitted by the runtime");
                *depth.entry(tid).or_insert(0) += 1;
            }
            Some("E") => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "span end without begin on track {tid}");
            }
            Some("i") => {
                if matches!(name, "dequeue" | "send" | "raise") {
                    assert!(
                        depth.get(&tid).copied().unwrap_or(0) > 0,
                        "`{name}` instant outside any run span on track {tid}"
                    );
                    nested_instants += 1;
                }
            }
            _ => {}
        }
    }
    assert!(
        depth.values().all(|d| *d == 0),
        "unbalanced run spans: {depth:?}"
    );
    assert!(
        nested_instants > 0,
        "expected dequeue/raise instants inside run spans"
    );

    // Timestamps are non-decreasing (single runtime thread).
    let ts: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("ts").and_then(JsonValue::as_u64))
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps regressed");
    let _ = std::fs::remove_file(&trace);
}

/// `p run` output (states, queue lengths, exit code) is identical with
/// and without tracing, and `--metrics` writes a parseable registry
/// report with the runtime counters.
#[test]
fn run_flags_do_not_change_behavior_and_metrics_parse() {
    let program = corpus_file("switch_led.p");
    let metrics = temp_path("switch-metrics.json");
    let events = ["DevicePowerUp", "IoctlSetLed:1", "DevicePowerDown"];
    let plain = p_bin()
        .args(["run", program.to_str().unwrap(), "Driver"])
        .args(events)
        .output()
        .unwrap();
    let instrumented = p_bin()
        .args([
            "run",
            program.to_str().unwrap(),
            "Driver",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .args(events)
        .output()
        .unwrap();
    assert!(plain.status.success() && instrumented.status.success());
    let body = |out: &std::process::Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        body(&plain),
        body(&instrumented),
        "--metrics changed the run output"
    );

    let report = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        report.get("schema").and_then(JsonValue::as_str),
        Some("p-metrics-v1")
    );
    let runs = report
        .get("counters")
        .and_then(|c| c.get("runtime.runs"))
        .and_then(JsonValue::as_u64)
        .expect("runtime.runs counter");
    assert!(runs > 0, "the runtime executed runs");
    let _ = std::fs::remove_file(&metrics);
}

/// `p run --stats` appends the RuntimeStats JSON snapshot, including the
/// per-machine supervision status.
#[test]
fn run_stats_reports_machine_status_json() {
    let program = corpus_file("switch_led.p");
    let out = p_bin()
        .args([
            "run",
            program.to_str().unwrap(),
            "Driver",
            "--stats",
            "DevicePowerUp",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let json_start = stdout.find('{').expect("stats JSON in output");
    let stats = JsonValue::parse(&stdout[json_start..stdout.rfind('}').unwrap() + 1])
        .expect("stats JSON parses");
    assert!(
        stats
            .get("events_processed")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    let machines = stats
        .get("machines")
        .and_then(JsonValue::as_array)
        .expect("machines array");
    assert_eq!(machines.len(), 1);
    assert_eq!(
        machines[0].get("status").and_then(JsonValue::as_str),
        Some("running")
    );
}
