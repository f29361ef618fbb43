//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run of one workload
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--rounds K] [--twice]
//!                                                              every workload, result file
//! benchmark compare BASE.json CHANGE.json                      apply the bounds
//! ```

mod compare;
mod deliver;
mod rusage;
mod schedule;
mod stats;
mod trace;
mod verify;
mod walk;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use p_telemetry::json::{num, obj, str as jstr, JsonValue};

use stats::Summary;
use trace::Tracer;
use workloads::{Kind, Outcome, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Machine runs of the semantics walk in a traced run.
pub const WALK_STEPS: usize = 200_000;

/// Where results, traces and the run's scratch directory go.
const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 12.0;
/// `[profile.release]` of `benchmark/Cargo.toml` and of the root manifest.
const BUILD_PROFILE: &str = "release lto=thin codegen-units=1";

/// What a run needs from its surroundings.
pub struct Env {
    /// The `p` binary under test.
    pub p_bin: PathBuf,
    /// This binary, to run a repetition in a child process.
    pub self_exe: PathBuf,
    /// Scratch directory of this run: generated inputs, spill files.
    pub tmp: PathBuf,
}

/// Removes the run's scratch directory when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn environment() -> std::io::Result<(Env, Scratch)> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".into());
    let p_bin = std::env::var("P_BENCHMARK_P_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(&target).join("release/p"));
    if !p_bin.is_file() {
        return Err(std::io::Error::other(format!(
            "{} is missing: run benchmark/run.sh, which builds it",
            p_bin.display()
        )));
    }
    let tmp = std::env::current_dir()?
        .join(OUT_DIR)
        .join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let env = Env {
        p_bin: p_bin.canonicalize()?,
        self_exe: std::env::current_exe()?,
        tmp: tmp.clone(),
    };
    Ok((env, Scratch(tmp)))
}

/// Calls `rep` with 0, 1, … until `seconds` have passed: whole
/// repetitions only, and at least one.
pub fn repeat_for(
    seconds: f64,
    mut rep: impl FnMut(u32) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let started = Instant::now();
    let mut index = 0;
    while index == 0 || started.elapsed().as_secs_f64() < seconds {
        rep(index)?;
        index += 1;
    }
    Ok(())
}

/// The last line of a child's standard output, as JSON.
pub fn last_json_line(stdout: &str) -> Option<JsonValue> {
    JsonValue::parse(stdout.lines().last()?).ok()
}

/// One run of one workload; a traced run also writes its spans.
fn run(w: Workload, env: &Env, seed: u64, seconds: f64, trace: bool) -> std::io::Result<Outcome> {
    if !trace {
        return match w.kind {
            Kind::Verify(spec) => verify::measure(&spec, env, seconds),
            Kind::Deliver(_) => deliver::measure(w.name, env, seed, seconds),
        };
    }
    let mut tracer = Tracer::new(true, w.name);
    let out = match w.kind {
        Kind::Verify(spec) => verify::measure_traced(&spec, env, seed, &mut tracer)?,
        Kind::Deliver(kind) => deliver::measure_traced(w.name, kind, env, seed, &mut tracer)?,
    };
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
    tracer.write_chrome(&path, seed)?;
    println!("  spans written to {}", path.display());
    Ok(out)
}

fn print_outcome(w: Workload, out: &Outcome, trace: bool) {
    if trace {
        for &(name, unit) in PER_LAYER {
            if let Some(value) = out.per_layer.get(name) {
                println!("  {name:<32} {value:>16.4} {unit}");
            }
        }
        let other = out.per_layer.get("checker.other_s").copied().unwrap_or(0.0);
        let search = out
            .per_layer
            .get("checker.search_s")
            .copied()
            .unwrap_or(0.0);
        if search > 0.0 && other.abs() > 0.10 * search {
            println!("  note: checker.other_s is more than a tenth of checker.search_s");
        }
    } else {
        for &(name, unit, stat) in END_TO_END {
            let s = Summary::of(out.end_to_end.get(name).map_or(&[][..], Vec::as_slice));
            println!(
                "  {name:<14} {:>14.4} {unit:<4} {:<8} of {} repetitions [median {:.4}, q1 {:.4}, q3 {:.4}]",
                out.reported(name, stat),
                stat.label(),
                s.n,
                s.median,
                s.q1,
                s.q3
            );
        }
    }
    println!(
        "  {:<14} {:>14} of {} operations ({})",
        "failed",
        out.failed,
        out.attempted,
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for complaint in &out.complaints {
        println!("  {}: {complaint}", w.name);
    }
}

/// The line the driver reads: the end-to-end metrics of an untraced
/// run, or the per-layer metrics of a traced one.
fn contract_line(out: &Outcome, trace: bool) -> String {
    let metric = |value: f64, unit: &str| obj(vec![("value", num(value)), ("unit", jstr(unit))]);
    let metrics: Vec<(&str, JsonValue)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.per_layer.get(name).copied().unwrap_or(0.0);
                (name, metric(value, unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, stat)| (name, metric(out.reported(name, stat), unit)))
            .collect()
    };
    obj(vec![
        ("correct", JsonValue::Bool(out.correct())),
        ("attempted", num(out.attempted.max(1) as f64)),
        ("failed", num(out.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Every workload, `rounds` times round-robin, into one result file
/// that holds each metric's value from every round; with `trace`, a
/// traced run of each workload as well.
fn run_all(
    env: &Env,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
) -> std::io::Result<(PathBuf, bool)> {
    let started = Instant::now();
    let mut pooled: BTreeMap<&str, Outcome> = BTreeMap::new();
    for round in 0..rounds {
        for w in WORKLOADS {
            println!("{} (seed {seed}, round {} of {rounds})", w.name, round + 1);
            let out = run(w, env, seed, seconds, false)?;
            print_outcome(w, &out, false);
            let pool = pooled.entry(w.name).or_default();
            for &(name, _, stat) in END_TO_END {
                pool.push(name, out.reported(name, stat));
            }
            pool.count(out);
        }
    }
    if trace {
        for w in WORKLOADS {
            println!("{} (seed {seed}, traced)", w.name);
            let mut out = run(w, env, seed, seconds, true)?;
            print_outcome(w, &out, true);
            let pool = pooled.entry(w.name).or_default();
            pool.per_layer = std::mem::take(&mut out.per_layer);
            pool.count(out);
        }
    }

    let mut correct = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let out = &pooled[w.name];
        correct &= out.correct();
        let end_to_end = END_TO_END
            .iter()
            .map(|&(name, unit, stat)| {
                let values = out.end_to_end.get(name).map_or(&[][..], Vec::as_slice);
                let s = Summary::of(values);
                let row = obj(vec![
                    ("unit", jstr(unit)),
                    ("of_repetitions", jstr(stat.label())),
                    ("median", num(s.median)),
                    ("q1", num(s.q1)),
                    ("q3", num(s.q3)),
                    ("n", num(s.n as f64)),
                    (
                        "values",
                        JsonValue::Arr(values.iter().map(|&v| num(v)).collect()),
                    ),
                ]);
                (name, row)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|&(name, unit)| {
                let value = *out.per_layer.get(name)?;
                Some((name, obj(vec![("value", num(value)), ("unit", jstr(unit))])))
            })
            .collect();
        rows.push(obj(vec![
            ("name", jstr(w.name)),
            ("attempted", num(out.attempted as f64)),
            ("failed", num(out.failed as f64)),
            (
                "failed_share",
                num(out.failed as f64 / out.attempted.max(1) as f64),
            ),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
        ]));
    }
    let doc = obj(vec![
        ("schema", jstr("p-benchmark-result-v1")),
        (
            "provenance",
            obj(vec![
                ("seed", num(seed as f64)),
                ("nproc", num(nproc() as f64)),
                ("shards_and_jobs", num(deliver::SHARDS as f64)),
                ("build_profile", jstr(BUILD_PROFILE)),
                ("rustc", jstr(&command_output("rustc", &["-V"]))),
                (
                    "git_commit",
                    jstr(&command_output("git", &["rev-parse", "HEAD"])),
                ),
                ("seconds_per_run", num(seconds)),
                ("rounds", num(rounds as f64)),
                ("traced", JsonValue::Bool(trace)),
                ("total_wall_s", num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", JsonValue::Arr(rows)),
    ]);
    let path = Path::new(OUT_DIR).join(format!("result-seed{seed}.json"));
    std::fs::write(&path, doc.render_pretty())?;
    println!(
        "wrote {} ({:.0} s, nproc {})",
        path.display(),
        started.elapsed().as_secs_f64(),
        nproc()
    );
    Ok((path, correct))
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Exit code 1 on a breach of a bound, 0 otherwise.
fn compare_files(base: &Path, change: &Path) -> Result<ExitCode, String> {
    let bounds = compare::bounds(&read_json(Path::new("BENCHMARK.json"))?)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let (breaches, unresolved) = compare::compare(&bounds, &read_json(base)?, &read_json(change)?);
    println!("{breaches} breach(es), {unresolved} unresolved");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown argument `{name}`"));
            }
            if name == "--twice" {
                pairs.push((name.clone(), "1".to_owned()));
                continue;
            }
            let value = it.next().ok_or(format!("{name} needs a value"))?;
            pairs.push((name.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("{name}: bad value `{v}`")),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn main_with(args: &[String]) -> Result<ExitCode, String> {
    let io = |e: std::io::Error| e.to_string();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, base, change] = args else {
                return Err("usage: benchmark compare BASE.json CHANGE.json".to_owned());
            };
            compare_files(Path::new(base), Path::new(change))
        }
        Some("child") => {
            let flags = Flags::parse(&args[1..], &["--workload", "--seed", "--trace", "--setups"])?;
            let name = flags
                .text("--workload")
                .ok_or("child: --workload is missing")?;
            let Some(Kind::Deliver(kind)) = workloads::find(name).map(|w| w.kind) else {
                return Err(format!("child: `{name}` is not a deliver workload"));
            };
            let seed = flags.get("--seed", DEFAULT_SEED)?;
            let line = match flags.get("--setups", 0usize)? {
                0 => deliver::rep(kind, seed, flags.get("--trace", 0u8)? == 1).to_json(),
                times => JsonValue::Arr(
                    deliver::set_ups(kind, seed, times)
                        .into_iter()
                        .map(num)
                        .collect(),
                ),
            };
            println!("{}", line.render());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let known = [
                "--workload",
                "--seed",
                "--seconds",
                "--trace",
                "--rounds",
                "--twice",
            ];
            let flags = Flags::parse(args, &known)?;
            let seed = flags.get("--seed", DEFAULT_SEED)?;
            let seconds = flags.get("--seconds", DEFAULT_SECONDS)?;
            let trace = flags.get("--trace", 0u8)? == 1;
            let (env, _scratch) = environment().map_err(io)?;
            if let Some(name) = flags.text("--workload") {
                let w = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
                println!(
                    "{} (seed {seed}, trace {}, nproc {})",
                    w.name,
                    u8::from(trace),
                    nproc()
                );
                let out = run(w, &env, seed, seconds, trace).map_err(io)?;
                print_outcome(w, &out, trace);
                println!("{}", contract_line(&out, trace));
                return Ok(if out.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            let rounds = flags.get("--rounds", 1usize)?.max(1);
            let (first, mut correct) = run_all(&env, seed, seconds, trace, rounds).map_err(io)?;
            if flags.text("--twice").is_none() {
                return Ok(if correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            // The second set runs the same code on another seed.
            let (second, second_correct) =
                run_all(&env, seed + 1, seconds, false, rounds).map_err(io)?;
            correct &= second_correct;
            let verdict = compare_files(&first, &second)?;
            Ok(if correct { verdict } else { ExitCode::FAILURE })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_with(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables in
    /// `workloads.rs` are what the harness prints. They must agree.
    #[test]
    fn benchmark_json_names_what_the_harness_measures() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(JsonValue::as_str).unwrap().to_owned())
                .collect()
        };
        let table = |t: &[(&str, &str)], i: usize| -> Vec<String> {
            t.iter().map(|p| [p.0, p.1][i].to_owned()).collect()
        };
        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(names("end_to_end", "name"), table(&end_to_end, 0));
        assert_eq!(names("end_to_end", "unit"), table(&end_to_end, 1));
        assert_eq!(names("per_layer", "name"), table(PER_LAYER, 0));
        assert_eq!(names("per_layer", "unit"), table(PER_LAYER, 1));
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let bounds = compare::bounds(&doc).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    fn the_contract_line_holds_every_metric_of_its_kind() {
        let mut out = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        for &(name, _, _) in END_TO_END {
            out.push(name, 1.5);
            out.push(name, 2.5);
        }
        out.layer("checker.states", 455_487.0);
        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        for (trace, table) in [(false, &end_to_end[..]), (true, PER_LAYER)] {
            let doc = JsonValue::parse(&contract_line(&out, trace)).unwrap();
            let JsonValue::Obj(fields) = &doc else {
                panic!()
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
            let JsonValue::Obj(metrics) = doc.get("metrics").unwrap() else {
                panic!()
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, table.iter().map(|p| p.0).collect::<Vec<_>>());
        }
        let doc = JsonValue::parse(&contract_line(&out, false)).unwrap();
        let value = |name: &str| {
            let metric = doc.get("metrics").unwrap().get(name).unwrap();
            metric.get("value").and_then(JsonValue::as_f64)
        };
        // The fastest repetition for a time, the median for the rest.
        assert_eq!(value("wall_s"), Some(1.5));
        assert_eq!(value("peak_rss_mib"), Some(2.0));
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn flags_take_values_and_reject_strangers() {
        let args: Vec<String> = ["--seed", "7", "--twice", "--trace", "1"]
            .map(String::from)
            .to_vec();
        let flags = Flags::parse(&args, &["--seed", "--twice", "--trace"]).unwrap();
        assert_eq!(flags.get("--seed", 1u64), Ok(7));
        assert_eq!(flags.get("--seconds", 10.0), Ok(10.0));
        assert!(flags.text("--twice").is_some());
        assert!(Flags::parse(&args, &["--seed"]).is_err());
        assert!(Flags::parse(&args[..1], &["--seed"]).is_err());
        assert!(flags.get::<u64>("--trace", 0).is_ok());
        let bad = Flags(vec![("--seed".to_owned(), "x".to_owned())]);
        assert!(bad.get("--seed", 1u64).is_err());
    }
}
