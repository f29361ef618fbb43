//! `p` — the command-line front end of the P toolchain.
//!
//! ```text
//! p check FILE                      parse + static checks
//! p fmt FILE                        print the normalized program
//! p info FILE                       machines / states / transitions
//! p verify FILE [--delay N] [--max-states N] [--fine] [--jobs N] [--por]
//!              [--symmetry] [--faults N] [--fault-kinds drop,dup,delay]
//!              [--profile OUT.json] [--progress]
//!              [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]
//!              [--mem-limit BYTES] [--abort-after N]
//! p liveness FILE                   bounded liveness check (§3.2)
//! p run FILE MACHINE EVENT[:INT]... create a machine and feed it events
//!       [--stats] [--shards N] [--trace OUT.json] [--metrics OUT.json]
//! p compile FILE [-o OUT.c]         generate the C translation unit (§4)
//! p dot FILE [MACHINE] [-o OUT.dot] state-diagram export
//! ```

use std::fs;
use std::process::ExitCode;

use p_core::{CheckerOptions, Compiled, FaultKind, Value};

/// Exit code for a property violation (counterexample found).
const EXIT_VIOLATION: u8 = 1;
/// Exit code for usage, I/O, and checkpoint-compatibility errors.
const EXIT_ERROR: u8 = 2;
/// Exit code for an interrupted run (SIGINT/SIGTERM/`--abort-after`);
/// a final checkpoint was written when one was configured.
const EXIT_INTERRUPTED: u8 = 3;

/// SIGINT/SIGTERM plumbing. Handlers only flip an atomic flag (the one
/// async-signal-safe thing worth doing); the checker polls it at its
/// control points and shuts down with a final checkpoint.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    static INTERRUPT: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_signal(_sig: i32) {
        if let Some(flag) = INTERRUPT.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Restores default SIGPIPE so `p verify ... | head` dies quietly
    /// instead of panicking on a broken stdout.
    pub fn default_sigpipe() {
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }

    /// Installs the SIGINT/SIGTERM handler and returns the shared flag.
    pub fn install_interrupt() -> Arc<AtomicBool> {
        let flag = INTERRUPT
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        flag
    }
}

fn main() -> ExitCode {
    signals::default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    let ok = |()| ExitCode::SUCCESS;
    match command.as_str() {
        "check" => check(rest).map(ok),
        "fmt" => fmt(rest).map(ok),
        "info" => info(rest).map(ok),
        "verify" => verify(rest),
        "liveness" => liveness(rest),
        "run" => run_program(rest).map(ok),
        "compile" => compile(rest).map(ok),
        "dot" => dot(rest).map(ok),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: p <check|fmt|info|verify|liveness|run|compile|dot> FILE [options]\n\
     \n\
     p check FILE                      parse + static checks\n\
     p fmt FILE                        print the normalized program\n\
     p info FILE                       machines / states / transitions\n\
     p verify FILE [--delay N] [--max-states N] [--fine] [--jobs N] [--por]\n\
                   [--symmetry] [--faults N] [--fault-kinds drop,dup,delay]\n\
                   [--profile OUT.json] [--progress]\n\
                   [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]\n\
                   [--mem-limit BYTES[k|m|g]] [--abort-after N]\n\
                   exit codes: 0 passed, 1 violation, 2 error, 3 interrupted\n\
     p liveness FILE                   bounded liveness check\n\
     p run FILE MACHINE EVENT[:INT]... create a machine, feed it events\n\
           [--stats] [--shards N] [--trace OUT.json] [--metrics OUT.json]\n\
           --shards N > 1 drives the sharded executor instead of the\n\
           in-process runtime (same output shape, per-shard stats)\n\
     p compile FILE [-o OUT.c]         generate C (section 4 layout)\n\
     p dot FILE [MACHINE] [-o OUT.dot] state-diagram export"
        .to_owned()
}

fn read_source(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load(path: &str) -> Result<(String, Compiled), String> {
    let source = read_source(path)?;
    let compiled = match Compiled::from_source(&source) {
        Ok(c) => c,
        Err(p_core::CompileError::Parse(e)) => {
            return Err(format!("{path}:{}", e.render(&source)));
        }
        Err(e) => return Err(e.to_string()),
    };
    Ok((source, compiled))
}

/// What follows FILE for a subcommand with no flag loop of its own: at
/// most `max_plain` plain arguments and, where `output`, `-o PATH`.
fn tail_args(
    args: &[String],
    output: bool,
    max_plain: usize,
) -> Result<(Vec<&str>, Option<&str>), String> {
    let (mut plain, mut target) = (Vec::new(), None);
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if output && arg == "-o" {
            target = Some(rest.next().ok_or("-o needs a path")?);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else if plain.len() == max_plain {
            return Err(format!("unexpected argument `{arg}`"));
        } else {
            plain.push(arg);
        }
    }
    Ok((plain, target))
}

fn check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    tail_args(args, false, 0)?;
    let (_, compiled) = load(path)?;
    for w in compiled.warnings() {
        println!("{w}");
    }
    println!(
        "{path}: OK ({} machine(s), {} event(s), {} warning(s))",
        compiled.program().machines.len(),
        compiled.program().events.len(),
        compiled.warnings().len()
    );
    Ok(())
}

fn fmt(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    tail_args(args, false, 0)?;
    let (_, compiled) = load(path)?;
    print!("{}", p_core::ast::print_program(compiled.program()));
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    tail_args(args, false, 0)?;
    let (_, compiled) = load(path)?;
    let p = compiled.program();
    println!("{path}:");
    println!("  events: {}", p.events.len());
    println!(
        "  machines: {} ({} ghost)",
        p.machines.len(),
        p.ghost_machines().count()
    );
    for m in &p.machines {
        println!(
            "    {}{}: {} states, {} transitions, {} actions, {} vars",
            if m.ghost { "ghost " } else { "" },
            p.name(m.name),
            m.states.len(),
            m.transition_count(),
            m.actions.len(),
            m.vars.len()
        );
    }
    println!(
        "  total: {} states, {} transitions",
        p.total_states(),
        p.total_transitions()
    );
    Ok(())
}

fn verify(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or_else(usage)?;
    let (_, compiled) = load(path)?;

    let mut delay: Option<usize> = None;
    let mut faults: Option<usize> = None;
    let mut fault_kinds: Vec<FaultKind> = Vec::new();
    let mut profile: Option<String> = None;
    let mut progress = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut abort_after: Option<usize> = None;
    let mut options = CheckerOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--delay" => {
                delay = Some(parse_flag_value(args, &mut i, "--delay")?);
            }
            "--profile" => {
                profile = Some(parse_flag_path(args, &mut i, "--profile")?);
            }
            "--checkpoint" => {
                checkpoint_dir = Some(parse_flag_path(args, &mut i, "--checkpoint")?);
            }
            "--checkpoint-every" => {
                let every = parse_flag_value(args, &mut i, "--checkpoint-every")?;
                if every == 0 {
                    return Err("--checkpoint-every must be at least 1".to_owned());
                }
                checkpoint_every = Some(every);
            }
            "--resume" => {
                options.resume = Some(parse_flag_path(args, &mut i, "--resume")?.into());
            }
            "--abort-after" => {
                abort_after = Some(parse_flag_value(args, &mut i, "--abort-after")?);
            }
            "--mem-limit" => {
                let value = args
                    .get(i + 1)
                    .ok_or("--mem-limit needs a value".to_owned())?;
                options.mem_limit = Some(parse_mem_limit(value)?);
                i += 2;
            }
            "--progress" => {
                progress = true;
                i += 1;
            }
            "--faults" => {
                faults = Some(parse_flag_value(args, &mut i, "--faults")?);
            }
            "--fault-kinds" => {
                let list = args
                    .get(i + 1)
                    .ok_or("--fault-kinds needs a value".to_owned())?;
                fault_kinds =
                    FaultKind::parse_list(list).map_err(|e| format!("--fault-kinds: {e}"))?;
                i += 2;
            }
            "--max-states" => {
                options.max_states = parse_flag_value(args, &mut i, "--max-states")?;
            }
            "--fine" => {
                options.granularity = p_core::semantics::Granularity::Fine;
                i += 1;
            }
            "--jobs" => {
                options.jobs = parse_flag_value(args, &mut i, "--jobs")?;
                if options.jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "--por" => {
                options.por = true;
                i += 1;
            }
            "--symmetry" => {
                options.symmetry = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if delay.is_some() && faults.is_some() {
        return Err("--delay and --faults cannot be combined".to_owned());
    }
    if faults.is_none() && !fault_kinds.is_empty() {
        return Err("--fault-kinds needs --faults N".to_owned());
    }
    if fault_kinds.is_empty() {
        fault_kinds = FaultKind::ALL.to_vec();
    }
    if options.por && (delay.is_some() || faults.is_some()) {
        return Err(
            "--por applies to the exhaustive search only (not --delay/--faults)".to_owned(),
        );
    }
    if options.symmetry && (delay.is_some() || faults.is_some()) {
        return Err(
            "--symmetry applies to the exhaustive search only (not --delay/--faults)".to_owned(),
        );
    }
    if checkpoint_every.is_some() && checkpoint_dir.is_none() && options.resume.is_none() {
        return Err("--checkpoint-every needs --checkpoint DIR (or --resume DIR)".to_owned());
    }
    if abort_after.is_some() && checkpoint_dir.is_none() && options.resume.is_none() {
        return Err("--abort-after needs --checkpoint DIR (or --resume DIR)".to_owned());
    }
    // Resuming keeps checkpointing into the same directory unless the
    // caller pointed --checkpoint elsewhere.
    let checkpoint_dir = checkpoint_dir
        .map(std::path::PathBuf::from)
        .or_else(|| options.resume.clone());
    if let Some(dir) = checkpoint_dir {
        let mut policy = p_core::checker::CheckpointPolicy::new(dir);
        if let Some(every) = checkpoint_every {
            policy.every_states = every;
        }
        policy.abort_after_states = abort_after;
        options.checkpoint = Some(policy);
    }

    let (telemetry, ring) = if profile.is_some() || progress {
        let mut builder = p_core::Telemetry::builder();
        if progress {
            builder = builder.progress(std::time::Duration::from_millis(100));
        }
        let (t, ring) = builder.build();
        (t, Some(ring))
    } else {
        (p_core::Telemetry::disabled(), None)
    };

    let mode = checker_mode(&options);
    let workers = options.jobs.max(1) as u64;
    let (strategy, bound) = match (delay, faults) {
        (Some(d), _) => ("delay", d),
        (None, Some(budget)) => ("faults", budget),
        (None, None) => ("exhaustive", 0),
    };
    options.interrupt = Some(signals::install_interrupt());
    let ckpt_dir = options.checkpoint.as_ref().map(|p| p.dir.clone());
    let verifier = compiled
        .verifier()
        .with_options(options)
        .with_telemetry(telemetry.clone());
    let report = match (delay, faults) {
        (None, None) => verifier.try_check_exhaustive(),
        (Some(d), _) => verifier.try_check_delay_bounded(d),
        (None, Some(budget)) => verifier.try_check_with_faults(budget, &fault_kinds),
    }
    .map_err(|e| e.to_string())?;
    match (delay, faults) {
        (Some(d), _) => println!(
            "delay bound {d}, {} scheduler node(s)",
            report.stats.scheduler_nodes
        ),
        (None, Some(budget)) => println!(
            "fault budget {budget} ({}), {} fault node(s), {} injection(s) explored",
            fault_kinds
                .iter()
                .map(|k| k.tag())
                .collect::<Vec<_>>()
                .join(","),
            report.stats.scheduler_nodes,
            report.stats.fault_transitions
        ),
        (None, None) => {}
    }

    if let Some(target) = &profile {
        let row = p_core::exploration_row(
            &file_stem(path),
            mode,
            (strategy, bound as u64),
            workers,
            &report,
        );
        write_profile(target, path, row, &telemetry, ring.as_deref())?;
        println!("wrote {target}");
    }

    println!("{}", report.stats);
    match report.counterexample {
        None if report.interrupted => {
            match &ckpt_dir {
                Some(dir) => println!(
                    "{path}: INTERRUPTED (checkpoint written to {}; continue with \
                     --resume {0})",
                    dir.display()
                ),
                None => println!("{path}: INTERRUPTED (no --checkpoint configured)"),
            }
            Ok(ExitCode::from(EXIT_INTERRUPTED))
        }
        None if !report.complete => {
            // The depth bound has no flag and stays at its default; the
            // deepest task seen reaches it only when it cut the search.
            let options = verifier.options();
            let bound = if report.stats.max_depth >= options.max_depth {
                format!("depth {}", options.max_depth)
            } else {
                format!("--max-states {}", options.max_states)
            };
            println!("{path}: PASSED (incomplete: stopped at {bound})");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!("{path}: PASSED");
            Ok(ExitCode::SUCCESS)
        }
        Some(cx) => {
            println!("{path}: FAILED\n{cx}");
            let replayed = compiled.verifier().replay(&cx).reproduced();
            println!(
                "replay: {}",
                if replayed { "reproduced" } else { "DIVERGED" }
            );
            Ok(ExitCode::from(EXIT_VIOLATION))
        }
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `--mem-limit 32m`.
fn parse_mem_limit(value: &str) -> Result<usize, String> {
    let (digits, shift) = match value.chars().last() {
        Some('k' | 'K') => (&value[..value.len() - 1], 10),
        Some('m' | 'M') => (&value[..value.len() - 1], 20),
        Some('g' | 'G') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    let base: usize = digits
        .parse()
        .map_err(|_| format!("--mem-limit: `{value}` is not a byte count"))?;
    base.checked_mul(1usize << shift)
        .filter(|&b| b > 0)
        .ok_or_else(|| format!("--mem-limit: `{value}` is out of range"))
}

fn parse_flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    let value = args
        .get(*i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    let parsed = value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a number"))?;
    *i += 2;
    Ok(parsed)
}

fn parse_flag_path(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    let value = args
        .get(*i + 1)
        .ok_or_else(|| format!("{flag} needs a path"))?
        .clone();
    *i += 2;
    Ok(value)
}

/// The `mode` tag stamped into profile/bench rows for this option set.
fn checker_mode(options: &CheckerOptions) -> &'static str {
    match (options.por, options.symmetry, options.jobs > 1) {
        (true, true, _) => "por+symmetry",
        (false, true, _) => "symmetry",
        (true, false, _) => "por",
        (false, false, true) => "parallel",
        (false, false, false) => "exhaustive",
    }
}

/// Bare file name without the extension, for labeling profile rows.
fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned())
}

/// Writes the `--profile` document: a Chrome-loadable trace with the
/// exploration snapshots, the metrics report, and the run's row of the
/// exploration schema riding along as extra top-level keys.
fn write_profile(
    target: &str,
    source_path: &str,
    row: p_core::telemetry::json::JsonValue,
    telemetry: &p_core::Telemetry,
    ring: Option<&p_core::telemetry::RingRecorder>,
) -> Result<(), String> {
    use p_core::telemetry::json::{num, str as jstr};
    let records = ring
        .map(p_core::telemetry::RingRecorder::drain)
        .unwrap_or_default();
    let doc = p_core::telemetry::chrome::chrome_document(
        &records,
        telemetry
            .metrics()
            .map(p_core::telemetry::MetricsRegistry::report),
        vec![
            ("exploration", row),
            ("source", jstr(source_path)),
            ("dropped_records", num(telemetry.dropped_records() as f64)),
        ],
    );
    fs::write(target, doc.render_pretty()).map_err(|e| format!("cannot write {target}: {e}"))
}

fn liveness(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or_else(usage)?;
    tail_args(args, false, 0)?;
    let (_, compiled) = load(path)?;
    let interrupt = signals::install_interrupt();
    let options = CheckerOptions {
        interrupt: Some(interrupt.clone()),
        ..CheckerOptions::default()
    };
    let verifier = compiled.verifier().with_options(options);
    let report = verifier.try_check_liveness().map_err(|e| e.to_string())?;
    println!(
        "{} state(s), complete = {}",
        report.stats.unique_states, report.complete
    );
    if interrupt.load(std::sync::atomic::Ordering::SeqCst) && !report.complete {
        for v in &report.violations {
            println!("violation: {v}");
        }
        println!("{path}: INTERRUPTED (the graph is partial)");
        Ok(ExitCode::from(EXIT_INTERRUPTED))
    } else if report.passed() {
        println!("{path}: no liveness violations");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &report.violations {
            println!("violation: {v}");
        }
        eprintln!("error: {} liveness violation(s)", report.violations.len());
        Ok(ExitCode::from(EXIT_VIOLATION))
    }
}

fn run_program(args: &[String]) -> Result<(), String> {
    let mut stats = false;
    let mut shards = 1usize;
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => {
                stats = true;
                i += 1;
            }
            "--shards" => {
                shards = parse_flag_value(args, &mut i, "--shards")?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = Some(parse_flag_path(args, &mut i, "--trace")?);
            }
            "--metrics" => {
                metrics = Some(parse_flag_path(args, &mut i, "--metrics")?);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    let path = positional.first().copied().ok_or_else(usage)?;
    let machine = positional
        .get(1)
        .copied()
        .ok_or("run needs a machine name".to_owned())?;
    let (_, compiled) = load(path)?;

    let (telemetry, ring) = if trace.is_some() || metrics.is_some() {
        let (t, ring) = p_core::Telemetry::builder().build();
        (t, Some(ring))
    } else {
        (p_core::Telemetry::disabled(), None)
    };
    if shards > 1 {
        return run_sharded(
            path,
            &compiled,
            machine,
            &positional,
            shards,
            stats,
            &trace,
            &metrics,
            telemetry,
            ring,
        );
    }
    let runtime = {
        let mut builder = compiled.runtime().map_err(|e| e.to_string())?;
        builder.telemetry(telemetry.clone());
        builder.start()
    };

    let id = runtime
        .create_machine(machine, &[])
        .map_err(|e| e.to_string())?;
    println!(
        "created {machine} {id}, state = {}",
        runtime.current_state(id).unwrap_or_default()
    );
    for spec in &positional[2..] {
        let (event, payload) = parse_event_spec(spec)?;
        runtime
            .add_event(id, event, payload)
            .map_err(|e| e.to_string())?;
        let state = runtime.current_state(id);
        println!("{}", state_line(spec, state, runtime.queue_len(id), true));
    }

    if stats {
        println!("{}", runtime.stats().to_json().render_pretty());
    }
    write_run_exports(
        path,
        runtime.stats().to_json(),
        &trace,
        &metrics,
        &telemetry,
        ring.as_deref(),
    )
}

/// Writes what `p run --trace T --metrics M` asked for: at `T` a
/// Chrome-loadable trace carrying the run's `stats`, at `M` the metrics
/// registry's report.
fn write_run_exports(
    path: &str,
    stats: p_core::telemetry::json::JsonValue,
    trace: &Option<String>,
    metrics: &Option<String>,
    telemetry: &p_core::Telemetry,
    ring: Option<&p_core::telemetry::RingRecorder>,
) -> Result<(), String> {
    use p_core::telemetry::json::{num, obj, str as jstr};
    let metrics_report = telemetry
        .metrics()
        .map(p_core::telemetry::MetricsRegistry::report);
    if let Some(target) = trace {
        let records = ring
            .map(p_core::telemetry::RingRecorder::drain)
            .unwrap_or_default();
        let doc = p_core::telemetry::chrome::chrome_document(
            &records,
            metrics_report.clone(),
            vec![
                ("source", jstr(path)),
                ("stats", stats),
                ("dropped_records", num(telemetry.dropped_records() as f64)),
            ],
        );
        fs::write(target, doc.render_pretty())
            .map_err(|e| format!("cannot write {target}: {e}"))?;
        println!("wrote {target}");
    }
    if let Some(target) = metrics {
        let report = metrics_report.unwrap_or_else(|| obj(vec![]));
        fs::write(target, report.render_pretty())
            .map_err(|e| format!("cannot write {target}: {e}"))?;
        println!("wrote {target}");
    }
    Ok(())
}

/// Splits a `EVENT` / `EVENT:INT` argument into name and payload.
fn parse_event_spec(spec: &str) -> Result<(&str, Value), String> {
    match spec.split_once(':') {
        None => Ok((spec, Value::Null)),
        Some((e, v)) => Ok((
            e,
            Value::Int(
                v.parse()
                    .map_err(|_| format!("payload `{v}` is not an integer"))?,
            ),
        )),
    }
}

/// The line `p run` prints after an event: where the machine stands, and
/// `(still running)` when the wait for its runs timed out, in which case
/// state and queue are a snapshot of a delivery in progress.
fn state_line(spec: &str, state: Option<String>, queue: Option<usize>, settled: bool) -> String {
    format!(
        "  {spec:<24} -> state = {}, queue = {}{}",
        state.unwrap_or_else(|| "<deleted>".into()),
        queue.unwrap_or(0),
        if settled { "" } else { " (still running)" }
    )
}

/// `p run --shards N` with N > 1: the same create-and-feed loop driven
/// through the sharded executor. Each injection is awaited (the executor
/// delivers asynchronously) before its state line prints, so the output
/// keeps the single-runtime shape.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    path: &str,
    compiled: &Compiled,
    machine: &str,
    positional: &[&String],
    shards: usize,
    stats: bool,
    trace: &Option<String>,
    metrics: &Option<String>,
    telemetry: p_core::Telemetry,
    ring: Option<std::sync::Arc<p_core::telemetry::RingRecorder>>,
) -> Result<(), String> {
    use p_core::runtime::{Executor, Injection};

    let exec = Executor::builder(compiled.program())
        .map_err(|e| e.to_string())?
        .shards(shards)
        .telemetry(telemetry.clone())
        .start();
    let id = exec
        .create_machine(machine, &[])
        .map_err(|e| e.to_string())?;
    println!(
        "created {machine} {id} ({} shard(s)), state = {}",
        exec.shards(),
        exec.current_state(id).unwrap_or_default()
    );
    for spec in positional.iter().skip(2) {
        let (event, payload) = parse_event_spec(spec)?;
        exec.inject(Injection::new(id, event, payload))
            .map_err(|e| e.to_string())?;
        // Await the delivery, the runs it causes included, so the printed
        // state reflects this event. Bounded wait: a machine stuck in a
        // foreign call never finishes it.
        let settled = exec.quiesce(std::time::Duration::from_secs(5));
        let state = exec.current_state(id);
        println!("{}", state_line(spec, state, exec.queue_len(id), settled));
    }

    let exec_stats = exec.stats();
    if stats {
        println!("{}", exec_stats.to_json().render_pretty());
    }
    exec.shutdown().map_err(|e| e.to_string())?;
    write_run_exports(
        path,
        exec_stats.to_json(),
        trace,
        metrics,
        &telemetry,
        ring.as_deref(),
    )
}

fn compile(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let (_, target) = tail_args(args, true, 0)?;
    let (_, compiled) = load(path)?;
    let out = compiled.emit_c().map_err(|e| e.to_string())?;
    match target {
        Some(target) => {
            fs::write(target, &out.code).map_err(|e| format!("cannot write {target}: {e}"))?;
            println!(
                "wrote {target}: {} lines, {} functions, {} states",
                out.stats.lines, out.stats.functions, out.stats.states
            );
        }
        None => print!("{}", out.code),
    }
    Ok(())
}

fn dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    // Optional machine name: the one plain argument after FILE.
    let (machine, target) = tail_args(args, true, 1)?;
    let (_, compiled) = load(path)?;
    let rendered = match machine.first() {
        Some(name) => {
            p_core::codegen::machine_to_dot(compiled.program(), name).map_err(|e| e.to_string())?
        }
        None => p_core::codegen::program_to_dot(compiled.program()),
    };
    match target {
        Some(target) => {
            fs::write(target, &rendered).map_err(|e| format!("cannot write {target}: {e}"))?;
            println!("wrote {target}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::state_line;

    #[test]
    fn a_state_line_says_when_the_event_is_still_being_handled() {
        assert_eq!(
            state_line("PowerOn", Some("Ready".into()), Some(2), true),
            "  PowerOn                  -> state = Ready, queue = 2"
        );
        assert_eq!(
            state_line("SetAddress:5", Some("Busy".into()), Some(1), false),
            "  SetAddress:5             -> state = Busy, queue = 1 (still running)"
        );
        assert_eq!(
            state_line("Detach", None, None, true),
            "  Detach                   -> state = <deleted>, queue = 0"
        );
    }
}
