//! The `verify_*` workloads: `p verify FILE [flags]` as a user types it,
//! one process per repetition, timed from spawn to exit; and, in a traced
//! run, the same pipeline called in-process layer by layer.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use p_checker::{CheckerOptions, ExplorationStats, Verifier};
use p_semantics::{Engine, ForeignEnv};

use crate::rusage::wait_with_rusage;
use crate::trace::{SpanId, Tracer};
use crate::walk::{walk, Rng};
use crate::workloads::{Outcome, Program, VerifySpec};
use crate::{Env, WALK_STEPS};

/// Times the buggy-variant leg and input generation are repeated, so
/// that `setup_s` is a median.
const SETUP_REPS: usize = 25;

/// The generated input files of one run.
struct Inputs {
    program: PathBuf,
    /// Corpus variants with a seeded bug: `p verify` must reject each.
    buggy: Vec<PathBuf>,
}

impl VerifySpec {
    fn source(&self) -> String {
        match self.program {
            Program::German6 => p_corpus::german_family_src(6, 2),
            Program::SwitchLed => p_corpus::SWITCH_LED_SRC.to_owned(),
        }
    }

    fn file_name(&self) -> &'static str {
        match self.program {
            Program::German6 => "german6.p",
            Program::SwitchLed => "switch_led.p",
        }
    }

    /// The flags after `p verify FILE`.
    pub fn flags(&self) -> Vec<String> {
        let mut flags = Vec::new();
        if self.por {
            flags.push("--por".to_owned());
        }
        if self.symmetry {
            flags.push("--symmetry".to_owned());
        }
        if self.jobs > 1 {
            flags.extend(["--jobs".to_owned(), self.jobs.to_string()]);
        }
        if let Some((typed, _)) = self.mem_limit {
            flags.extend(["--mem-limit".to_owned(), typed.to_owned()]);
        }
        flags
    }

    /// The same choices as [`VerifySpec::flags`], for the in-process run.
    fn options(&self) -> CheckerOptions {
        CheckerOptions {
            por: self.por,
            symmetry: self.symmetry,
            jobs: self.jobs,
            mem_limit: self.mem_limit.map(|(_, bytes)| bytes),
            ..CheckerOptions::default()
        }
    }
}

fn write_inputs(spec: &VerifySpec, dir: &Path) -> std::io::Result<Inputs> {
    let program = dir.join(spec.file_name());
    std::fs::write(&program, spec.source())?;
    let mut buggy = Vec::new();
    for (name, ast) in [
        ("german_buggy.p", p_corpus::german_buggy()),
        ("elevator_buggy.p", p_corpus::elevator_buggy()),
        ("switch_led_buggy.p", p_corpus::switch_led_buggy()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, p_ast::print_program(&ast))?;
        buggy.push(path);
    }
    Ok(Inputs { program, buggy })
}

/// One finished `p verify` process.
struct Run {
    wall: Duration,
    code: Option<i32>,
    peak_rss_kib: u64,
    stdout: String,
}

fn p_verify(env: &Env, file: &Path, flags: &[String]) -> std::io::Result<Run> {
    let started = Instant::now();
    let mut child = Command::new(&env.p_bin)
        .arg("verify")
        .arg(file)
        .args(flags)
        // Spill files go under the run's own directory.
        .env("TMPDIR", &env.tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    // A report is a few lines, far below the pipe's capacity, so the
    // child never blocks on a reader that waits for its exit first.
    let exit = wait_with_rusage(&mut child)?;
    let wall = started.elapsed();
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)?;
    }
    Ok(Run {
        wall,
        code: exit.code,
        peak_rss_kib: exit.peak_rss_kib,
        stdout,
    })
}

/// Reads `N states, M transitions` and `, K spilled` off a report.
fn parse_report(stdout: &str) -> Option<(usize, usize, usize)> {
    let line = stdout.lines().find(|l| l.contains(" states, "))?;
    let number_before = |marker: &str| -> Option<usize> {
        let head = &line[..line.find(marker)?];
        head.rsplit(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    Some((
        number_before(" states,")?,
        number_before(" transitions,")?,
        number_before(" spilled").unwrap_or(0),
    ))
}

/// Why a run's output is not the pinned one, if it is not.
fn complaint(spec: &VerifySpec, run: &Run) -> Option<String> {
    if run.code != Some(0) {
        return Some(format!("exit code {:?}, expected 0", run.code));
    }
    if !run.stdout.contains(": PASSED") {
        return Some("no PASSED verdict".to_owned());
    }
    let Some((states, transitions, spilled)) = parse_report(&run.stdout) else {
        return Some("no statistics line".to_owned());
    };
    if (states, transitions) != (spec.states, spec.transitions) {
        return Some(format!(
            "{states} states / {transitions} transitions, expected {} / {}",
            spec.states, spec.transitions
        ));
    }
    if spec.mem_limit.is_some() && spilled == 0 {
        return Some("no state spilled under the memory limit".to_owned());
    }
    None
}

/// Set-up: write the inputs, then check that the three buggy variants
/// are rejected with a counterexample.
fn set_up(spec: &VerifySpec, env: &Env, out: &mut Outcome) -> std::io::Result<Inputs> {
    let inputs = write_inputs(spec, &env.tmp)?;
    for file in &inputs.buggy {
        let run = p_verify(env, file, &[])?;
        out.attempted += 1;
        if run.code != Some(1) || !run.stdout.contains(": FAILED") {
            out.fail(
                1,
                format!(
                    "{}: exit code {:?} without a counterexample, expected 1",
                    file.display(),
                    run.code
                ),
            );
        }
    }
    Ok(inputs)
}

fn timed_rep(
    spec: &VerifySpec,
    env: &Env,
    inputs: &Inputs,
    tracer: &mut Tracer,
    rep: u32,
    out: &mut Outcome,
) -> std::io::Result<Run> {
    let span = tracer.begin("core.p_verify", None, rep);
    let run = p_verify(env, &inputs.program, &spec.flags())?;
    tracer.end(span);
    out.attempted += 1;
    if let Some(why) = complaint(spec, &run) {
        out.fail(1, format!("rep {rep}: {why}"));
    }
    out.push("wall_s", run.wall.as_secs_f64());
    out.push("p50_us", run.wall.as_secs_f64() * 1e6);
    out.push("peak_rss_mib", run.peak_rss_kib as f64 / 1024.0);
    Ok(run)
}

/// An untraced run: repetitions for `seconds`, whole repetitions only.
pub fn measure(spec: &VerifySpec, env: &Env, seconds: f64) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        inputs = Some(set_up(spec, env, &mut out)?);
        out.push("setup_s", started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");
    let mut tracer = Tracer::new(false, "");
    crate::repeat_for(seconds, |rep| {
        timed_rep(spec, env, &inputs, &mut tracer, rep, &mut out).map(drop)
    })?;
    Ok(out)
}

/// The pipeline behind `p verify`, called layer by layer under spans.
struct InProcess {
    source_bytes: usize,
    parse_s: f64,
    check_s: f64,
    lower_s: f64,
    search_s: f64,
    stats: ExplorationStats,
    passed: bool,
}

fn in_process(spec: &VerifySpec, file: &Path, tracer: &mut Tracer, parent: SpanId) -> InProcess {
    let source = std::fs::read_to_string(file).expect("the input was written at set-up");

    let span = tracer.begin("parser.parse", parent, 0);
    let program = p_parser::parse(&source).expect("the workload's program parses");
    tracer.end(span);
    let parse_s = tracer.duration_s(span);

    let span = tracer.begin("typecheck.check", parent, 0);
    p_typecheck::check(&program).expect("the workload's program checks");
    tracer.end(span);
    let check_s = tracer.duration_s(span);

    let span = tracer.begin("semantics.lower", parent, 0);
    let lowered = p_semantics::lower(&program).expect("the workload's program lowers");
    tracer.end(span);
    let lower_s = tracer.duration_s(span);

    let span = tracer.begin("checker.search", parent, 0);
    let report = Verifier::new(&lowered)
        .with_options(spec.options())
        .try_check_exhaustive()
        .expect("the search runs");
    tracer.end(span);
    let search_s = tracer.duration_s(span);

    InProcess {
        source_bytes: source.len(),
        parse_s,
        check_s,
        lower_s,
        search_s,
        passed: report.passed(),
        stats: report.stats,
    }
}

fn semantics_walk(file: &Path, seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let source = std::fs::read_to_string(file).expect("the input was written at set-up");
    let program = p_parser::parse(&source).expect("the workload's program parses");
    let lowered = p_semantics::lower(&program).expect("the workload's program lowers");
    let engine = Engine::new(&lowered, ForeignEnv::empty()).with_dequeue_log(false);
    let start = engine.initial_config();
    let span = tracer.begin("semantics.walk", None, 0);
    let t = walk(
        &engine,
        &start,
        &mut Rng::new(seed),
        WALK_STEPS,
        &mut |c, _| *c = start.clone(),
    );
    tracer.end(span);
    t.record(out);
}

/// A traced run: one repetition before the tracer is switched on and one
/// under it, the in-process pipeline, and the semantics walk.
pub fn measure_traced(
    spec: &VerifySpec,
    env: &Env,
    seed: u64,
    tracer: &mut Tracer,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let inputs = set_up(spec, env, &mut out)?;
    out.push("setup_s", started.elapsed().as_secs_f64());

    let untraced = timed_rep(spec, env, &inputs, &mut Tracer::new(false, ""), 0, &mut out)?;
    let traced = timed_rep(spec, env, &inputs, tracer, 1, &mut out)?;
    let (wall_u, wall_t) = (untraced.wall.as_secs_f64(), traced.wall.as_secs_f64());
    out.layer("bench.trace_overhead_share", (wall_t - wall_u) / wall_u);

    let pipeline = tracer.begin("core.in_process", None, 0);
    let inp = in_process(spec, &inputs.program, tracer, pipeline);
    tracer.end(pipeline);
    if !inp.passed
        || (inp.stats.unique_states, inp.stats.transitions) != (spec.states, spec.transitions)
    {
        out.fail(
            1,
            format!(
                "in-process search: passed={} with {} states / {} transitions",
                inp.passed, inp.stats.unique_states, inp.stats.transitions
            ),
        );
    }

    let wall = (wall_u + wall_t) / 2.0;
    let rss_bytes = (untraced.peak_rss_kib + traced.peak_rss_kib) as f64 / 2.0 * 1024.0;
    // Everything `p verify` spends outside the four library calls (what
    // the pipeline span's children cover): process start, reading the
    // file, the report, tearing the visited table down.
    let in_layers = tracer.duration_s(pipeline) - tracer.self_time_s(pipeline);
    out.layer("core.process_overhead_s", wall - in_layers);
    out.layer("parser.parse_s", inp.parse_s);
    out.layer("parser.source_bytes", inp.source_bytes as f64);
    out.layer("typecheck.check_s", inp.check_s);
    out.layer("semantics.lower_s", inp.lower_s);

    let s = &inp.stats;
    let phase = |ns: u64| ns as f64 / 1e9;
    let phases = [
        ("checker.exec_s", phase(s.phases.exec)),
        ("checker.digest_s", phase(s.phases.digest)),
        ("checker.clone_s", phase(s.phases.clone)),
        ("checker.canon_s", phase(s.phases.canon)),
        ("checker.table_s", phase(s.phases.table)),
    ];
    let attributed: f64 = phases.iter().map(|(_, v)| v).sum();
    for (name, value) in phases {
        out.layer(name, value);
    }
    out.layer("checker.search_s", inp.search_s);
    // Signed, so that the six columns add up to `search_s`.
    out.layer("checker.other_s", inp.search_s - attributed);
    out.layer("checker.states", s.unique_states as f64);
    out.layer("checker.transitions", s.transitions as f64);
    out.layer("checker.dedup_hits", s.dedup_hits as f64);
    out.layer("checker.sleep_pruned", s.sleep_pruned as f64);
    out.layer("checker.symmetry_merges", s.symmetry_merges as f64);
    out.layer("checker.max_depth", s.max_depth as f64);
    out.layer("checker.stored_bytes", s.stored_bytes as f64);
    out.layer("checker.spilled_states", s.spilled_states as f64);
    out.layer("checker.spill_bytes", s.spill_bytes as f64);
    out.layer("checker.cold_hits", s.cold_hits as f64);
    out.layer(
        "checker.states_per_s",
        s.unique_states as f64 / inp.search_s,
    );
    out.layer(
        "checker.useful_share",
        s.unique_states as f64 / s.transitions as f64,
    );
    out.layer("checker.rss_over_stored", rss_bytes / s.stored_bytes as f64);
    out.layer(
        "checker.rss_per_state_bytes",
        rss_bytes / s.unique_states as f64,
    );
    if spec.jobs > 1 {
        // Base: the same file and flags with one job, in this run.
        let base = VerifySpec { jobs: 1, ..*spec };
        let run = p_verify(env, &inputs.program, &base.flags())?;
        out.layer("checker.jobs_speedup", run.wall.as_secs_f64() / wall);
    }

    semantics_walk(&inputs.program, seed, tracer, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Kind, WORKLOADS};

    #[test]
    fn report_lines_parse() {
        let plain = "455487 states, 2217632 transitions, depth 30, 2.98s, 5.32 MiB [exec 785ms]\nf.p: PASSED\n";
        assert_eq!(parse_report(plain), Some((455_487, 2_217_632, 0)));
        let spilled = "180625 states, 633343 transitions, depth 53, 2.11s, 0.23 MiB, 158860 spilled [exec 253ms]";
        assert_eq!(parse_report(spilled), Some((180_625, 633_343, 158_860)));
        assert_eq!(parse_report("error: no such file"), None);
    }

    fn spec(name: &str) -> VerifySpec {
        match WORKLOADS.iter().find(|w| w.name == name).unwrap().kind {
            Kind::Verify(spec) => spec,
            Kind::Deliver(_) => panic!("{name} is not a verify workload"),
        }
    }

    #[test]
    fn flags_and_options_agree() {
        let reduced = spec("verify_german6_reduced");
        assert_eq!(reduced.flags(), ["--por", "--symmetry"]);
        assert!(reduced.options().por && reduced.options().symmetry);
        let spill = spec("verify_switch_led_spill");
        assert_eq!(spill.flags(), ["--mem-limit", "1m"]);
        assert_eq!(spill.options().mem_limit, Some(1 << 20));
        assert_eq!(spec("verify_german6_jobs2").flags(), ["--jobs", "2"]);
        assert!(spec("verify_german6").flags().is_empty());
    }

    #[test]
    fn a_wrong_count_or_verdict_is_a_complaint() {
        let spec = spec("verify_switch_led_spill");
        let run = |code, stdout: &str| Run {
            wall: Duration::ZERO,
            code,
            peak_rss_kib: 0,
            stdout: stdout.to_owned(),
        };
        let good = "180625 states, 633343 transitions, depth 53, 2s, 0.2 MiB, 9 spilled\nf: PASSED";
        assert_eq!(complaint(&spec, &run(Some(0), good)), None);
        assert!(complaint(&spec, &run(Some(1), good)).is_some());
        assert!(complaint(&spec, &run(Some(0), &good.replace("180625", "180624"))).is_some());
        assert!(complaint(&spec, &run(Some(0), &good.replace(", 9 spilled", ""))).is_some());
        assert!(complaint(&spec, &run(Some(0), &good.replace("PASSED", "FAILED"))).is_some());
    }
}
