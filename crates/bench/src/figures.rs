//! Data producers for each figure/table, used by the report binaries.

use std::time::{Duration, Instant};

use p_core::semantics::Granularity;
use p_core::telemetry::json::JsonValue;
use p_core::{corpus, exploration_row, CheckerOptions, Compiled, Runtime, Value, Verifier};

use crate::baseline::{Event, HandwrittenDriver};

/// One point of a Figure 7 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// The delay budget `d`.
    pub delay_bound: usize,
    /// Unique configurations explored.
    pub states: usize,
    /// Unique (configuration, scheduler) nodes.
    pub scheduler_nodes: usize,
    /// Exploration wall time.
    pub duration: Duration,
}

/// The three Figure 7 benchmarks, compiled.
pub fn fig7_programs() -> Vec<(&'static str, Compiled)> {
    vec![
        (
            "Elevator",
            Compiled::from_program(corpus::elevator()).unwrap(),
        ),
        (
            "Switch-LED",
            Compiled::from_program(corpus::switch_led()).unwrap(),
        ),
        ("German", Compiled::from_program(corpus::german()).unwrap()),
    ]
}

/// States explored as a function of the delay bound (the Figure 7 series)
/// for one compiled program.
pub fn fig7_series(compiled: &Compiled, max_delay: usize) -> Vec<Fig7Point> {
    (0..=max_delay)
        .map(|d| {
            let r = compiled.verifier().try_check_delay_bounded(d).unwrap();
            assert!(r.passed(), "fig7 programs are bug-free");
            Fig7Point {
                delay_bound: d,
                states: r.stats.unique_states,
                scheduler_nodes: r.stats.scheduler_nodes,
                duration: r.stats.duration,
            }
        })
        .collect()
}

/// The exhaustive state count (the plateau the Figure 7 curves approach).
pub fn exhaustive_states(compiled: &Compiled) -> usize {
    let report = compiled.verifier().try_check_exhaustive().unwrap();
    assert!(report.passed() && report.complete);
    report.stats.unique_states
}

/// For each buggy Figure 7 benchmark, the smallest delay bound at which
/// the seeded bug is found (§5 claims ≤ 2).
pub fn bug_bounds(max_delay: usize) -> Vec<(&'static str, Option<usize>, usize)> {
    corpus::figure7_benchmarks()
        .into_iter()
        .map(|(name, _, buggy)| {
            let compiled = Compiled::from_program(buggy).unwrap();
            let mut found = None;
            let mut trace_len = 0;
            for d in 0..=max_delay {
                let r = compiled.verifier().try_check_delay_bounded(d).unwrap();
                if let Some(cx) = r.counterexample {
                    found = Some(d);
                    trace_len = cx.trace.len();
                    break;
                }
            }
            (name, found, trace_len)
        })
        .collect()
}

/// One row of the Figure 8 table.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Machine name (HSM, PSM 3.0, PSM 2.0, DSM).
    pub name: &'static str,
    /// Control states of the real machine.
    pub p_states: usize,
    /// Transitions + action bindings of the real machine.
    pub p_transitions: usize,
    /// Unique configurations explored.
    pub explored: usize,
    /// Exploration time.
    pub duration: Duration,
    /// Stored-state memory estimate in bytes.
    pub memory_bytes: usize,
}

/// Verifies the four USB machines and produces the Figure 8 rows.
pub fn fig8_rows() -> Vec<Fig8Row> {
    corpus::figure8_machines()
        .into_iter()
        .map(|(name, program)| {
            let real = program.real_machines().next().expect("one real machine");
            let p_states = real.states.len();
            let p_transitions = real.transition_count();
            let compiled = Compiled::from_program(program).unwrap();
            let report = compiled.verifier().try_check_exhaustive().unwrap();
            assert!(report.passed(), "{name} must verify");
            Fig8Row {
                name,
                p_states,
                p_transitions,
                explored: report.stats.unique_states,
                duration: report.stats.duration,
                memory_bytes: report.stats.stored_bytes,
            }
        })
        .collect()
}

/// Builds the P-runtime switch-LED driver once (outside the timed region).
pub fn p_driver_runtime() -> (Runtime, p_core::MachineId) {
    let program = corpus::switch_led();
    let runtime = Runtime::builder(&program)
        .expect("switch_led compiles")
        .start();
    let id = runtime
        .create_machine("Driver", &[])
        .expect("driver created");
    (runtime, id)
}

/// Feeds one scripted event into the P driver.
pub fn p_driver_feed(runtime: &Runtime, id: p_core::MachineId, event: Event) {
    let result = match event {
        Event::PowerUp => runtime.add_event(id, "DevicePowerUp", Value::Null),
        Event::PowerDown => runtime.add_event(id, "DevicePowerDown", Value::Null),
        Event::SetLed(v) => runtime.add_event(id, "IoctlSetLed", Value::Int(v)),
        Event::GetSwitch => runtime.add_event(id, "IoctlGetSwitch", Value::Null),
        Event::SwitchChange(v) => runtime.add_event(id, "SwitchStateChange", Value::Int(v)),
        Event::SwitchDisarmed => runtime.add_event(id, "SwitchDisarmed", Value::Null),
        Event::TransferComplete => runtime.add_event(id, "TransferComplete", Value::Null),
        Event::TransferFailed => runtime.add_event(id, "TransferFailed", Value::Null),
    };
    result.expect("scripted events are legal");
}

/// Runs the full script through the P driver; returns wall time.
pub fn run_p_driver(script: &[Event]) -> Duration {
    let (runtime, id) = p_driver_runtime();
    let start = Instant::now();
    for e in script {
        p_driver_feed(&runtime, id, *e);
    }
    start.elapsed()
}

/// Runs the full script through the handwritten driver; returns wall time
/// and the driver (for result comparison).
pub fn run_handwritten(script: &[Event]) -> (Duration, HandwrittenDriver) {
    let mut driver = HandwrittenDriver::new();
    let start = Instant::now();
    for e in script {
        driver.handle(*e);
    }
    (start.elapsed(), driver)
}

/// Checks that the P driver and the handwritten driver agree on the final
/// observable state after the script.
pub fn drivers_agree(script: &[Event]) -> bool {
    let (runtime, id) = p_driver_runtime();
    for e in script {
        p_driver_feed(&runtime, id, *e);
    }
    let (_, hand) = run_handwritten(script);
    let p_led = runtime.read_var(id, "ledState");
    let p_switch = runtime.read_var(id, "switchState");
    let led_match = p_led == Some(Value::Int(hand.led_state()))
        || (p_led == Some(Value::Null) && hand.led_state() == 0);
    let switch_match = p_switch == Some(Value::Int(hand.switch_state()))
        || (p_switch == Some(Value::Null) && hand.switch_state() == 0);
    led_match && switch_match
}

/// One row of the atomicity-reduction ablation (E5).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: &'static str,
    /// States with context switches only at send/create (§5 reduction).
    pub atomic_states: usize,
    /// Exploration time, atomic granularity.
    pub atomic_time: Duration,
    /// States with a context switch after every small step.
    pub fine_states: usize,
    /// Exploration time, fine granularity.
    pub fine_time: Duration,
    /// Whether both granularities agree on the verdict (soundness).
    pub same_verdict: bool,
}

/// Runs the ablation on the (budget-reduced) Figure 7 benchmarks.
pub fn ablation_rows() -> Vec<AblationRow> {
    let programs = vec![
        ("Elevator", corpus::elevator_with_budget(1)),
        ("German", corpus::german_with_budget(1)),
    ];
    programs
        .into_iter()
        .map(|(name, program)| {
            let lowered = p_core::semantics::lower(&program).unwrap();
            let atomic = Verifier::new(&lowered).try_check_exhaustive().unwrap();
            let fine = Verifier::new(&lowered)
                .with_options(CheckerOptions {
                    granularity: Granularity::Fine,
                    ..CheckerOptions::default()
                })
                .try_check_exhaustive()
                .unwrap();
            AblationRow {
                name,
                atomic_states: atomic.stats.unique_states,
                atomic_time: atomic.stats.duration,
                fine_states: fine.stats.unique_states,
                fine_time: fine.stats.duration,
                same_verdict: atomic.passed() == fine.passed(),
            }
        })
        .collect()
}

/// Runs a (deterministic) exploration three times and keeps the fastest
/// run — state counts cannot differ, so this only de-noises the wall
/// time, which the CI overhead gate compares across builds.
fn best_of_three(run: impl Fn() -> p_core::Report) -> p_core::Report {
    let mut best = run();
    for _ in 0..2 {
        let next = run();
        assert_eq!(
            best.stats.unique_states, next.stats.unique_states,
            "exploration must be deterministic"
        );
        if next.stats.duration < best.stats.duration {
            best = next;
        }
    }
    best
}

/// Explores every `corpus::all()` program exhaustively (one worker)
/// in four modes — plain, sleep-set POR, symmetry reduction, and
/// POR+symmetry — asserting all agree on the verdict, that POR
/// preserves the unique-state count exactly (it prunes transitions,
/// never states), and that symmetry never *increases* it (it merges
/// id-permuted duplicates). Returns four rows per program, tagged
/// `"exhaustive"`, `"por"`, `"symmetry"` and `"por+symmetry"`, built by
/// [`exploration_row`]. Each measurement is the fastest of three runs.
pub fn perf_rows() -> Vec<JsonValue> {
    perf_rows_for(None)
}

/// [`perf_rows`] restricted to the corpus programs named in `only`
/// (all of them when `None`). Unknown names panic rather than silently
/// measuring nothing — a typo in a CI job must fail loudly.
pub fn perf_rows_for(only: Option<&[String]>) -> Vec<JsonValue> {
    if let Some(names) = only {
        for name in names {
            assert!(
                corpus::all().iter().any(|(n, _)| n == name),
                "--only: no corpus program named `{name}`"
            );
        }
    }
    let run_mode = |compiled: &Compiled, por: bool, symmetry: bool| {
        best_of_three(|| {
            compiled
                .verifier()
                .with_options(CheckerOptions {
                    por,
                    symmetry,
                    ..CheckerOptions::default()
                })
                .try_check_exhaustive()
                .unwrap()
        })
    };
    let mut rows = Vec::new();
    for (name, program) in corpus::all() {
        if only.is_some_and(|names| !names.iter().any(|n| n == name)) {
            continue;
        }
        let compiled = Compiled::from_program(program).unwrap();
        let full = best_of_three(|| compiled.verifier().try_check_exhaustive().unwrap());
        let por = run_mode(&compiled, true, false);
        let sym = run_mode(&compiled, false, true);
        let por_sym = run_mode(&compiled, true, true);
        assert_eq!(
            full.passed(),
            por.passed(),
            "{name}: POR changed the verdict"
        );
        assert_eq!(
            full.stats.unique_states, por.stats.unique_states,
            "{name}: POR changed the state count"
        );
        assert!(
            por.stats.transitions <= full.stats.transitions,
            "{name}: POR added transitions"
        );
        for (mode, report) in [("symmetry", &sym), ("por+symmetry", &por_sym)] {
            assert_eq!(
                full.passed(),
                report.passed(),
                "{name}: {mode} changed the verdict"
            );
            assert!(
                report.stats.unique_states <= full.stats.unique_states,
                "{name}: {mode} increased the state count"
            );
        }
        for (mode, report) in [
            ("exhaustive", &full),
            ("por", &por),
            ("symmetry", &sym),
            ("por+symmetry", &por_sym),
        ] {
            rows.push(exploration_row(name, mode, ("exhaustive", 0), 1, report));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::efficiency_script;

    #[test]
    fn fig7_series_is_monotone_and_reaches_exhaustive() {
        let compiled = Compiled::from_program(corpus::elevator_with_budget(1)).unwrap();
        let series = fig7_series(&compiled, 4);
        for w in series.windows(2) {
            assert!(w[1].states >= w[0].states);
        }
        assert!(series[0].states > 0);
    }

    #[test]
    fn bug_bounds_are_at_most_two() {
        for (name, found, trace_len) in bug_bounds(2) {
            assert!(found.is_some(), "{name}");
            assert!(trace_len > 0, "{name}");
        }
    }

    #[test]
    fn both_drivers_agree_on_scripts() {
        for rounds in [1, 5, 20] {
            assert!(drivers_agree(&efficiency_script(rounds)), "rounds={rounds}");
        }
    }

    #[test]
    fn ablation_is_sound_and_atomic_is_smaller() {
        for row in ablation_rows() {
            assert!(row.same_verdict, "{}", row.name);
            assert!(
                row.atomic_states < row.fine_states,
                "{}: {} !< {}",
                row.name,
                row.atomic_states,
                row.fine_states
            );
        }
    }
}
