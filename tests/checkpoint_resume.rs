//! Kill-and-resume consistency and memory-bounded exploration, end to
//! end through the `p verify` CLI.
//!
//! The abort points use `--abort-after N`, a deterministic stand-in for
//! `kill -9` that stops the run with a final checkpoint exactly the way
//! a signal does (same code path, same exit code 3). One test sends a
//! real SIGINT as well.
//!
//! What "identical" means per mode (established empirically; see
//! DESIGN.md §13): sequential runs are fully deterministic, so a resumed
//! run must match an uninterrupted one bit for bit — verdict, unique
//! states, transitions, max depth. Parallel runs without POR expand
//! every unique state exactly once, so their totals are also exact.
//! Parallel runs *with* POR explore a schedule-dependent transition
//! subset even uninterrupted; there the verdict and unique-state count
//! are the invariants.

use std::path::PathBuf;
use std::process::{Command, Output};

fn p_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p"))
}

fn corpus_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../corpus/programs")
        .join(name)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p-ckpt-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().unwrap_or(-1)
}

/// Runs `p verify FILE <args...>` and returns the output.
fn verify(file: &str, args: &[&str]) -> Output {
    let path = corpus_file(file);
    let mut cmd = p_bin();
    cmd.arg("verify").arg(&path).args(args);
    cmd.output().unwrap()
}

/// The `(unique_states, transitions, max_depth)` triple from the stats
/// line `N states, M transitions, depth D, ...`.
fn parse_stats(out: &Output) -> (u64, u64, u64) {
    let text = stdout(out);
    let line = text
        .lines()
        .find(|l| l.contains(" states, ") && l.contains(" transitions, "))
        .unwrap_or_else(|| panic!("no stats line in output:\n{text}"));
    let mut nums = line.split(|c: char| !c.is_ascii_digit()).filter_map(|w| {
        if w.is_empty() {
            None
        } else {
            w.parse::<u64>().ok()
        }
    });
    let states = nums.next().unwrap();
    let transitions = nums.next().unwrap();
    let depth = nums.next().unwrap();
    (states, transitions, depth)
}

/// The line a `--delay`/`--faults` run prints above its stats line:
/// bound or budget, nodes and (for faults) injections.
fn node_line(out: &Output) -> String {
    let text = stdout(out);
    let line = text.lines().find(|l| l.contains(" node(s)"));
    line.unwrap_or_else(|| panic!("no node line in output:\n{text}"))
        .to_owned()
}

/// Aborts a run mid-search, resumes it, and returns (uninterrupted
/// baseline, resumed) outputs after checking the abort leg.
fn abort_and_resume(file: &str, mode: &[&str], abort_after: &str, tag: &str) -> (Output, Output) {
    abort_and_resume_across(file, mode, &[], &[], abort_after, tag)
}

/// [`abort_and_resume`] with flags only the aborted leg (`abort_only`)
/// or only the resuming leg (`resume_only`) runs under — the worker
/// count is not part of a checkpoint.
fn abort_and_resume_across(
    file: &str,
    mode: &[&str],
    abort_only: &[&str],
    resume_only: &[&str],
    abort_after: &str,
    tag: &str,
) -> (Output, Output) {
    let dir = temp_dir(tag);
    let dir_s = dir.to_str().unwrap();

    let baseline = verify(file, mode);
    assert_eq!(exit_code(&baseline), 0, "{}", stderr(&baseline));

    let mut abort_args = mode.to_vec();
    abort_args.extend(abort_only);
    abort_args.extend(["--checkpoint", dir_s, "--abort-after", abort_after]);
    let aborted = verify(file, &abort_args);
    assert_eq!(
        exit_code(&aborted),
        3,
        "abort leg should exit 3:\n{}{}",
        stdout(&aborted),
        stderr(&aborted)
    );
    assert!(stdout(&aborted).contains("INTERRUPTED"));
    assert!(dir.join("checkpoint.bin").is_file());

    let mut resume_args = mode.to_vec();
    resume_args.extend(resume_only);
    resume_args.extend(["--resume", dir_s]);
    let resumed = verify(file, &resume_args);
    assert_eq!(
        exit_code(&resumed),
        0,
        "resume leg should pass:\n{}{}",
        stdout(&resumed),
        stderr(&resumed)
    );
    assert!(stdout(&resumed).contains("PASSED"));

    let _ = std::fs::remove_dir_all(&dir);
    (baseline, resumed)
}

#[test]
fn sequential_resume_is_bit_identical_across_modes() {
    let modes: [(&str, &[&str]); 4] = [
        ("plain", &[]),
        ("por", &["--por"]),
        ("symmetry", &["--symmetry"]),
        ("por-symmetry", &["--por", "--symmetry"]),
    ];
    for (tag, mode) in modes {
        let (baseline, resumed) =
            abort_and_resume("german3.p", mode, "4000", &format!("seq-{tag}"));
        assert_eq!(
            parse_stats(&baseline),
            parse_stats(&resumed),
            "sequential {tag}: resumed run must match uninterrupted bit for bit"
        );
    }
}

/// The delay-bounded and the fault-injecting search run on the same
/// kernel, so they stop at `--abort-after` (counted in configurations)
/// and resume the same way: a one-worker resume reports the
/// uninterrupted run's states, transitions, depth, nodes and injections.
#[test]
fn annotated_strategies_resume_bit_identically() {
    let legs: [(&str, &str, &[&str], &str); 2] = [
        ("delay", "german4.p", &["--delay", "3"], "2000"),
        (
            "faults",
            "elevator.p",
            &["--faults", "1", "--fault-kinds", "drop"],
            "2000",
        ),
    ];
    for (tag, file, mode, abort_after) in legs {
        let (baseline, resumed) =
            abort_and_resume(file, mode, abort_after, &format!("annotated-{tag}"));
        assert_eq!(parse_stats(&baseline), parse_stats(&resumed), "{tag}");
        assert_eq!(node_line(&baseline), node_line(&resumed), "{tag}");
    }
    // Four workers expand every node once too, whoever expands it; only
    // the depth a node is first reached at depends on their order.
    let (baseline, resumed) = abort_and_resume_across(
        "german4.p",
        &["--delay", "3"],
        &["--jobs", "4"],
        &["--jobs", "4", "--mem-limit", "256k"],
        "2000",
        "annotated-delay-jobs4",
    );
    let (states, transitions, _) = parse_stats(&baseline);
    let (resumed_states, resumed_transitions, _) = parse_stats(&resumed);
    assert_eq!((states, transitions), (resumed_states, resumed_transitions));
    assert_eq!(node_line(&baseline), node_line(&resumed));
}

#[test]
fn parallel_resume_without_por_is_bit_identical() {
    let (baseline, resumed) = abort_and_resume("german4.p", &["--jobs", "4"], "12000", "par-plain");
    assert_eq!(
        parse_stats(&baseline),
        parse_stats(&resumed),
        "parallel without POR expands each unique state once; totals are exact"
    );
}

/// A checkpoint holds the frontier and its paths, not a worker count: one
/// written by one worker resumes under four and the other way round, in
/// RAM and with the restored visited keys going straight to disk.
#[test]
fn resume_crosses_worker_counts() {
    let legs: [(&str, &[&str], &[&str]); 3] = [
        ("1-to-4", &["--jobs", "1"], &["--jobs", "4"]),
        ("4-to-1", &["--jobs", "4"], &["--jobs", "1"]),
        (
            "4-to-1-spilled",
            &["--jobs", "4"],
            &["--jobs", "1", "--mem-limit", "256k"],
        ),
    ];
    for (tag, abort_only, resume_only) in legs {
        let (baseline, resumed) = abort_and_resume_across(
            "german4.p",
            &[],
            abort_only,
            resume_only,
            "12000",
            &format!("jobs-{tag}"),
        );
        assert_eq!(
            parse_stats(&baseline),
            parse_stats(&resumed),
            "{tag}: without POR every state is expanded once, whoever expands it"
        );
    }
}

#[test]
fn parallel_resume_with_por_and_symmetry_matches_verdict_and_states() {
    let (baseline, resumed) = abort_and_resume(
        "german4.p",
        &["--jobs", "4", "--por", "--symmetry"],
        "12000",
        "par-por-sym",
    );
    let (base_states, _, _) = parse_stats(&baseline);
    let (resumed_states, _, _) = parse_stats(&resumed);
    assert_eq!(
        base_states, resumed_states,
        "unique states are schedule-independent even under POR"
    );
}

#[test]
fn resume_across_checkpoint_cadences_is_identical() {
    // A tight cadence exercises many checkpoint writes before the abort;
    // the resumed totals must not depend on how often snapshots landed.
    let dir = temp_dir("cadence");
    let dir_s = dir.to_str().unwrap();
    let baseline = verify("german3.p", &["--por", "--symmetry"]);
    let aborted = verify(
        "german3.p",
        &[
            "--por",
            "--symmetry",
            "--checkpoint",
            dir_s,
            "--checkpoint-every",
            "500",
            "--abort-after",
            "6000",
        ],
    );
    assert_eq!(exit_code(&aborted), 3, "{}", stderr(&aborted));
    let resumed = verify("german3.p", &["--por", "--symmetry", "--resume", dir_s]);
    assert_eq!(exit_code(&resumed), 0, "{}", stderr(&resumed));
    assert_eq!(parse_stats(&baseline), parse_stats(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A program whose only violation sits on the *last* DFS branch at
/// every choice point (counter `a` can never overflow, so the bug needs
/// all eight rounds routed to `b`, the else branch). Sequential DFS
/// visits ~900 states before finding it, so an abort at 400 reliably
/// lands first and the counterexample is discovered by the resumed run
/// — its trace rendered from a path that partly predates the
/// checkpoint.
const DEEP_BUG: &str = r#"
event inc;
event unit;
machine Counter {
    var n : int;
    var limit : int;
    state Run { on inc do bump; }
    action bump { n := n + 1; assert(n < limit); }
}
ghost machine Env {
    var a : id;
    var b : id;
    var rounds : int;
    state Init {
        entry {
            a := new Counter(n = 0, limit = 99);
            b := new Counter(n = 0, limit = 8);
            raise(unit);
        }
        on unit goto Loop;
    }
    state Loop {
        entry {
            if (rounds > 0) {
                rounds := rounds - 1;
                if (*) { send(a, inc); } else { send(b, inc); }
                raise(unit);
            } else {
                a := null;
                b := null;
            }
        }
        on unit goto Loop;
    }
}
main Env(rounds = 8);
"#;

#[test]
fn violation_found_after_resume_is_replayable() {
    let program = std::env::temp_dir().join(format!("p-ckpt-deep-bug-{}.p", std::process::id()));
    std::fs::write(&program, DEEP_BUG).unwrap();
    let program_s = program.to_str().unwrap();
    let dir = temp_dir("violation");
    let dir_s = dir.to_str().unwrap();

    let baseline = p_bin().args(["verify", program_s]).output().unwrap();
    assert_eq!(exit_code(&baseline), 1, "{}", stdout(&baseline));

    let aborted = p_bin()
        .args([
            "verify",
            program_s,
            "--checkpoint",
            dir_s,
            "--abort-after",
            "400",
        ])
        .output()
        .unwrap();
    assert_eq!(
        exit_code(&aborted),
        3,
        "abort must land before the violation:\n{}",
        stdout(&aborted)
    );

    let resumed = p_bin()
        .args(["verify", program_s, "--resume", dir_s])
        .output()
        .unwrap();
    assert_eq!(exit_code(&resumed), 1, "{}", stdout(&resumed));
    let text = stdout(&resumed);
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("replay: reproduced"), "{text}");
    assert_eq!(
        parse_stats(&baseline),
        parse_stats(&resumed),
        "the resumed run reaches the violation through the same search"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&program);
}

#[test]
fn stale_checkpoint_is_rejected() {
    let dir = temp_dir("stale");
    let dir_s = dir.to_str().unwrap();
    let aborted = verify(
        "german3.p",
        &["--por", "--checkpoint", dir_s, "--abort-after", "2000"],
    );
    assert_eq!(exit_code(&aborted), 3, "{}", stderr(&aborted));

    // Different reduction flags change the search; resuming under them
    // must be refused, not silently produce a hybrid run.
    let wrong_flags = verify("german3.p", &["--resume", dir_s]);
    assert_eq!(exit_code(&wrong_flags), 2);
    assert!(stderr(&wrong_flags).contains("stale checkpoint"));

    // So must a different program.
    let wrong_program = verify("german4.p", &["--por", "--resume", dir_s]);
    assert_eq!(exit_code(&wrong_program), 2);
    assert!(stderr(&wrong_program).contains("stale checkpoint"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The strategy, its bound or budget and the fault kinds are part of
/// what a checkpoint was written for: node keys of one are not node
/// keys of another, so resuming across them is refused, not mixed.
#[test]
fn checkpoint_does_not_resume_under_another_strategy() {
    let dir = temp_dir("strategy");
    let dir_s = dir.to_str().unwrap();
    let written: [&[&str]; 3] = [
        &["--delay", "2"],
        &["--faults", "1", "--fault-kinds", "drop"],
        &[],
    ];
    let resumed_as: [&[&str]; 5] = [
        &["--delay", "2"],
        &["--delay", "3"],
        &["--faults", "1", "--fault-kinds", "drop"],
        &["--faults", "1", "--fault-kinds", "drop,dup"],
        &[],
    ];
    for mode in written {
        let mut args = mode.to_vec();
        args.extend(["--checkpoint", dir_s, "--abort-after", "500"]);
        let aborted = verify("elevator.p", &args);
        assert_eq!(exit_code(&aborted), 3, "{mode:?}: {}", stderr(&aborted));
        for other in resumed_as {
            let mut args = other.to_vec();
            args.extend(["--resume", dir_s, "--abort-after", "1"]);
            let resumed = verify("elevator.p", &args);
            if other == mode {
                assert_eq!(exit_code(&resumed), 3, "{mode:?}: {}", stderr(&resumed));
            } else {
                assert_eq!(exit_code(&resumed), 2, "{mode:?} as {other:?}");
                assert!(stderr(&resumed).contains("stale checkpoint"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoint_is_rejected() {
    let dir = temp_dir("corrupt");
    let dir_s = dir.to_str().unwrap();
    let aborted = verify(
        "german3.p",
        &["--checkpoint", dir_s, "--abort-after", "2000"],
    );
    assert_eq!(exit_code(&aborted), 3, "{}", stderr(&aborted));

    // Flip one payload byte: the checksum must catch it.
    let file = dir.join("checkpoint.bin");
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&file, &bytes).unwrap();
    let resumed = verify("german3.p", &["--resume", dir_s]);
    assert_eq!(exit_code(&resumed), 2, "{}", stdout(&resumed));
    assert!(stderr(&resumed).contains("checkpoint"));

    // Truncate it: a short read is a format error, not a panic.
    std::fs::write(&file, &bytes[..32.min(bytes.len())]).unwrap();
    let truncated = verify("german3.p", &["--resume", dir_s]);
    assert_eq!(exit_code(&truncated), 2, "{}", stdout(&truncated));
    assert!(stderr(&truncated).contains("checkpoint"));

    // A missing directory is an I/O error with the path in the message.
    let _ = std::fs::remove_dir_all(&dir);
    let missing = verify("german3.p", &["--resume", dir_s]);
    assert_eq!(exit_code(&missing), 2);
}

/// A checkpoint of an earlier format — version 1's fingerprint-keyed
/// parent records, version 2's visited keys from the canonical digest
/// as it was before it changed representatives, version 3's tasks
/// without a scheduler annotation, version 4's edge log — is refused by
/// its version field, before anything in it is interpreted.
#[test]
fn version_1_checkpoint_is_refused() {
    let dir = temp_dir("version-1");
    let dir_s = dir.to_str().unwrap();
    let aborted = verify(
        "german3.p",
        &["--symmetry", "--checkpoint", dir_s, "--abort-after", "2000"],
    );
    assert_eq!(exit_code(&aborted), 3, "{}", stderr(&aborted));
    let file = dir.join("checkpoint.bin");
    let mut bytes = std::fs::read(&file).unwrap();
    assert_eq!(
        bytes[4..8],
        5u32.to_le_bytes(),
        "this build writes version 5"
    );
    for old in [1u32, 2, 3, 4] {
        bytes[4..8].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&file, &bytes).unwrap();
        let resumed = verify("german3.p", &["--symmetry", "--resume", dir_s]);
        assert_eq!(exit_code(&resumed), 2, "{}", stdout(&resumed));
        assert!(
            stderr(&resumed).contains(&format!("unsupported checkpoint version {old}")),
            "{}",
            stderr(&resumed)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded hostile bytes over a german4 checkpoint: byte flips,
/// truncations and ranges spliced over others. Every resume ends in a
/// typed checkpoint error and exit 2 — never a panic, never a verdict. A
/// failure names the case's seed.
#[test]
fn hostile_checkpoints_end_in_a_typed_error() {
    let dir = temp_dir("hostile");
    let dir_s = dir.to_str().unwrap();
    let aborted = verify(
        "german4.p",
        &["--checkpoint", dir_s, "--abort-after", "1000"],
    );
    assert_eq!(exit_code(&aborted), 3, "{}", stderr(&aborted));
    let file = dir.join("checkpoint.bin");
    let pristine = std::fs::read(&file).unwrap();
    let mut cases = 0;
    for seed in 0u64.. {
        if cases == 240 {
            break;
        }
        let mut draws = p_core::ast::Draws::new(seed);
        let mut bytes = pristine.clone();
        match seed % 3 {
            0 => bytes[draws.below(pristine.len())] ^= 1 << draws.below(8),
            1 => bytes.truncate(draws.below(pristine.len())),
            _ => {
                let (from, to) = (draws.below(bytes.len()), draws.below(bytes.len()));
                let len = 1 + draws.below(bytes.len() - from.max(to));
                bytes.copy_within(from..from + len, to);
            }
        }
        if bytes == pristine {
            continue;
        }
        cases += 1;
        std::fs::write(&file, &bytes).unwrap();
        let resumed = verify("german4.p", &["--resume", dir_s]);
        let err = stderr(&resumed);
        assert_eq!(
            exit_code(&resumed),
            2,
            "seed {seed}: {}{err}",
            stdout(&resumed)
        );
        assert!(
            err.contains("invalid checkpoint") || err.contains("stale checkpoint"),
            "seed {seed}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The counterexamples of the three buggy corpus variants, as the checker
/// printed them when a trace was still read back from a log of every
/// state (checked in under `tests/counterexamples/`): a one-worker run
/// prints them byte for byte — in RAM, under a memory limit, and resumed
/// from a checkpoint written halfway.
#[test]
fn buggy_counterexamples_match_the_checked_in_text() {
    use p_core::corpus;
    let programs = [
        ("german_buggy", corpus::german_buggy()),
        ("elevator_buggy", corpus::elevator_buggy()),
        ("switch_led_buggy", corpus::switch_led_buggy()),
    ];
    let counterexample = |out: &Output| -> String {
        let text = stdout(out);
        let lines = text.lines().skip_while(|l| !l.starts_with("error:"));
        lines
            .take_while(|l| !l.is_empty())
            .map(|l| format!("{l}\n"))
            .collect()
    };
    for (name, program) in programs {
        let want = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../tests/counterexamples")
                .join(format!("{name}.txt")),
        )
        .unwrap();
        let file = temp_dir(&format!("{name}.p"));
        std::fs::write(&file, p_core::ast::print_program(&program)).unwrap();
        let file_s = file.to_str().unwrap();
        let run = |args: &[&str]| {
            let out = p_bin()
                .arg("verify")
                .arg(file_s)
                .args(args)
                .output()
                .unwrap();
            assert_eq!(exit_code(&out), 1, "{name} {args:?}: {}", stdout(&out));
            out
        };
        let plain = run(&["--jobs", "1"]);
        assert_eq!(counterexample(&plain), want, "{name}");
        let low = run(&["--jobs", "1", "--mem-limit", "256k"]);
        assert_eq!(counterexample(&low), want, "{name} --mem-limit 256k");

        let dir = temp_dir(&format!("{name}-golden"));
        let dir_s = dir.to_str().unwrap();
        let half = (parse_stats(&plain).0 / 2).to_string();
        let aborted = p_bin()
            .arg("verify")
            .arg(file_s)
            .args(["--jobs", "1", "--checkpoint", dir_s, "--abort-after", &half])
            .output()
            .unwrap();
        assert_eq!(exit_code(&aborted), 3, "{name}: {}", stdout(&aborted));
        let resumed = run(&["--jobs", "1", "--resume", dir_s]);
        assert_eq!(counterexample(&resumed), want, "{name} resumed");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&file);
    }
}

#[test]
fn mem_limit_spills_and_matches_unbounded_run() {
    let baseline = verify("german3.p", &["--por", "--symmetry"]);
    assert_eq!(exit_code(&baseline), 0, "{}", stderr(&baseline));

    // Hash-consed slots retain ~0.11 MiB unbounded; 256k pins the hot
    // budget at its 64 KiB floor, which forces the visited tier onto disk.
    let bounded = verify("german3.p", &["--por", "--symmetry", "--mem-limit", "256k"]);
    assert_eq!(exit_code(&bounded), 0, "{}", stderr(&bounded));
    let text = stdout(&bounded);
    assert!(text.contains("spilled"), "no spill under 256 KiB?\n{text}");
    assert!(text.contains("PASSED"));
    assert_eq!(
        parse_stats(&baseline),
        parse_stats(&bounded),
        "spilling must not change what gets explored"
    );
}

#[test]
fn mem_limit_spills_in_parallel_too() {
    let baseline = verify("german3.p", &["--jobs", "4"]);
    let bounded = verify("german3.p", &["--jobs", "4", "--mem-limit", "256k"]);
    assert_eq!(exit_code(&bounded), 0, "{}", stderr(&bounded));
    assert!(stdout(&bounded).contains("spilled"));
    assert_eq!(parse_stats(&baseline), parse_stats(&bounded));
}

#[test]
fn checkpoint_resume_composes_with_mem_limit() {
    let dir = temp_dir("ckpt-mem");
    let dir_s = dir.to_str().unwrap();
    let baseline = verify("german3.p", &["--por", "--symmetry"]);
    let aborted = verify(
        "german3.p",
        &[
            "--por",
            "--symmetry",
            "--mem-limit",
            "256k",
            "--checkpoint",
            dir_s,
            "--abort-after",
            "5000",
        ],
    );
    assert_eq!(exit_code(&aborted), 3, "{}", stderr(&aborted));
    // The checkpoint is self-contained: resume without a limit too.
    let resumed = verify(
        "german3.p",
        &[
            "--por",
            "--symmetry",
            "--mem-limit",
            "256k",
            "--resume",
            dir_s,
        ],
    );
    assert_eq!(exit_code(&resumed), 0, "{}", stderr(&resumed));
    assert_eq!(parse_stats(&baseline), parse_stats(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flag_validation_rejects_bad_combinations() {
    let every_alone = verify("german3.p", &["--checkpoint-every", "100"]);
    assert_eq!(exit_code(&every_alone), 2);
    assert!(stderr(&every_alone).contains("--checkpoint-every needs --checkpoint"));

    let abort_alone = verify("german3.p", &["--abort-after", "100"]);
    assert_eq!(exit_code(&abort_alone), 2);
    assert!(stderr(&abort_alone).contains("--abort-after needs --checkpoint"));

    // The reductions stay with the exhaustive search; everything the
    // kernel does for every scheduler composes with `--delay`.
    let with_delay = verify("german3.p", &["--delay", "1", "--por"]);
    assert_eq!(exit_code(&with_delay), 2);
    assert!(stderr(&with_delay).contains("exhaustive search only"));
    let bounded = verify("german3.p", &["--delay", "1", "--mem-limit", "1m"]);
    assert_eq!(exit_code(&bounded), 0, "{}", stderr(&bounded));
    let unbounded = verify("german3.p", &["--delay", "1"]);
    assert_eq!(parse_stats(&bounded), parse_stats(&unbounded));
    assert_eq!(node_line(&bounded), node_line(&unbounded));

    let bad_limit = verify("german3.p", &["--mem-limit", "lots"]);
    assert_eq!(exit_code(&bad_limit), 2);
    assert!(stderr(&bad_limit).contains("not a byte count"));

    let zero_limit = verify("german3.p", &["--mem-limit", "0"]);
    assert_eq!(exit_code(&zero_limit), 2);
}

#[cfg(unix)]
#[test]
fn sigint_writes_a_loadable_checkpoint() {
    sigint_then_probe("german4.p", &[], "sigint");
}

/// The kernel's control point serves every scheduler: Ctrl-C on a
/// delay-bounded run ends it with a checkpoint, not with nothing.
#[cfg(unix)]
#[test]
fn sigint_interrupts_a_delay_bounded_run() {
    sigint_then_probe("switch_led.p", &["--delay", "8"], "sigint-delay");
}

/// Ctrl-C on `p liveness` stops the search at the kernel's control
/// point: the report says the graph is incomplete and the run exits 3.
/// Finishing first (exit 0) is allowed, as above.
#[cfg(unix)]
#[test]
fn sigint_interrupts_a_liveness_run() {
    use std::io::Read as _;

    let mut child = p_bin()
        .arg("liveness")
        .arg(corpus_file("switch_led.p"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    let status = child.wait().unwrap();
    let mut out = String::new();
    let mut pipe = child.stdout.take().unwrap();
    pipe.read_to_string(&mut out).unwrap();
    match status.code() {
        Some(3) => assert!(
            out.contains("complete = false") && out.contains("INTERRUPTED"),
            "{out}"
        ),
        Some(0) => assert!(out.contains("180625 state(s), complete = true"), "{out}"),
        other => panic!("unexpected exit {other:?}:\n{out}"),
    }
}

/// Interrupts `p verify FILE <mode> --checkpoint DIR` and checks that
/// the checkpoint it leaves loads.
#[cfg(unix)]
fn sigint_then_probe(file: &str, mode: &[&str], tag: &str) {
    use std::io::Read as _;

    let dir = temp_dir(tag);
    let dir_s = dir.to_str().unwrap();
    let path = corpus_file(file);
    let mut child = p_bin()
        .arg("verify")
        .arg(&path)
        .args(mode)
        .args(["--checkpoint", dir_s])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    // Give the search time to start, then interrupt it.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    let status = child.wait().unwrap();
    let mut out = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();

    match status.code() {
        // Interrupted mid-search: the final checkpoint must exist and
        // load cleanly (the resume leg aborts immediately after loading
        // rather than replaying the whole search).
        Some(3) => {
            assert!(out.contains("INTERRUPTED"), "{out}");
            assert!(dir.join("checkpoint.bin").is_file());
            let mut probe_args = mode.to_vec();
            probe_args.extend(["--resume", dir_s, "--abort-after", "1"]);
            let probe = verify(file, &probe_args);
            assert_eq!(exit_code(&probe), 3, "{}", stderr(&probe));
        }
        // The search won the race and finished first — legitimate on a
        // fast machine; the abort-based tests cover the resume logic.
        Some(0) => assert!(out.contains("PASSED"), "{out}"),
        other => panic!("unexpected exit {other:?}:\n{out}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
