//! End-to-end tests of the `p` command-line tool.

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

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("p-cli-test-{name}"));
    std::fs::write(&path, contents).unwrap();
    path
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn check_accepts_corpus_program() {
    let out = p_bin()
        .args(["check", corpus_file("elevator.p").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("OK"));
}

#[test]
fn check_rejects_ill_typed_program() {
    let path = write_temp(
        "bad.p",
        "machine M { var x : int; state S { entry { x := true; } } } main M();",
    );
    let out = p_bin()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("type mismatch"));
}

#[test]
fn verify_passes_and_fails_appropriately() {
    let out = p_bin()
        .args(["verify", corpus_file("ping_pong.p").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("PASSED"));

    let buggy = write_temp(
        "buggy.p",
        r#"
        event hit;
        machine T { state S { on hit goto Bad; } state Bad { entry { assert(false); } } }
        ghost machine E {
            var t : id;
            state D { entry { t := new T(); send(t, hit); } }
        }
        main E();
        "#,
    );
    let out = p_bin()
        .args(["verify", buggy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("trace"), "{text}");
    assert!(text.contains("replay: reproduced"), "{text}");
}

#[test]
fn verify_delay_flag() {
    let out = p_bin()
        .args([
            "verify",
            corpus_file("elevator.p").to_str().unwrap(),
            "--delay",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("delay bound 1"));
}

#[test]
fn verify_symmetry_flag() {
    // german3 has three interchangeable clients: --symmetry must agree
    // on the verdict while retaining strictly fewer states.
    let file = corpus_file("german3.p");
    let states = |out: &Output| {
        stdout(out)
            .split(" states")
            .next()
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap()
    };
    let plain = p_bin()
        .args(["verify", file.to_str().unwrap()])
        .output()
        .unwrap();
    let sym = p_bin()
        .args(["verify", file.to_str().unwrap(), "--symmetry"])
        .output()
        .unwrap();
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert!(sym.status.success(), "{}", stderr(&sym));
    assert!(stdout(&sym).contains("PASSED"));
    assert!(
        states(&sym) < states(&plain),
        "symmetry must merge client orbits: {} vs {}",
        states(&sym),
        states(&plain)
    );

    // A symmetry-reduced visited set only keys the exhaustive search;
    // the scheduling strategies reject the flag.
    let out = p_bin()
        .args([
            "verify",
            file.to_str().unwrap(),
            "--symmetry",
            "--delay",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--symmetry applies to the exhaustive search only"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn telemetry_flags_validate_their_inputs() {
    let program = corpus_file("ping_pong.p");
    // --profile/--progress serve every strategy the kernel runs.
    let out = p_bin()
        .args([
            "verify",
            program.to_str().unwrap(),
            "--delay",
            "1",
            "--progress",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("delay bound 1"), "{}", stdout(&out));

    // A path-taking flag without its path is rejected.
    let out = p_bin()
        .args(["run", program.to_str().unwrap(), "Client", "--trace"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--trace needs a path"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn verify_fault_flags() {
    let lossy = corpus_file("lossy_link.p");
    // Fault-free: the handshake is correct under FIFO delivery.
    let out = p_bin()
        .args(["verify", lossy.to_str().unwrap(), "--faults", "0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fault budget 0"), "{text}");
    assert!(text.contains("PASSED"), "{text}");

    // One dropped event finds the bug, with a replayable fault trace.
    let out = p_bin()
        .args([
            "verify",
            lossy.to_str().unwrap(),
            "--faults",
            "1",
            "--fault-kinds",
            "drop",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("fault budget 1 (drop)"), "{text}");
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("FAULT: dropped cfg"), "{text}");
    assert!(text.contains("replay: reproduced"), "{text}");

    // Without `--fault-kinds` every kind is in play, in canonical order.
    let out = p_bin()
        .args(["verify", lossy.to_str().unwrap(), "--faults", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with("fault budget 1 (drop,dup,delay), "),
        "{text}"
    );
    assert!(text.contains("FAILED"), "{text}");

    // Flag validation.
    let out = p_bin()
        .args([
            "verify",
            lossy.to_str().unwrap(),
            "--faults",
            "1",
            "--fault-kinds",
            "corrupt",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown fault kind"),
        "{}",
        stderr(&out)
    );
    let out = p_bin()
        .args([
            "verify",
            lossy.to_str().unwrap(),
            "--delay",
            "1",
            "--faults",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot be combined"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn info_prints_shapes() {
    let out = p_bin()
        .args(["info", corpus_file("switch_led.p").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("machines: 5 (4 ghost)"), "{text}");
    assert!(text.contains("Driver: 14 states"), "{text}");
}

#[test]
fn fmt_output_reparses() {
    let out = p_bin()
        .args(["fmt", corpus_file("german.p").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let formatted = stdout(&out);
    p_core::parser::parse(&formatted).expect("formatted output parses");
}

#[test]
fn compile_writes_c() {
    let target = std::env::temp_dir().join("p-cli-test-out.c");
    let out = p_bin()
        .args([
            "compile",
            corpus_file("ping_pong.p").to_str().unwrap(),
            "-o",
            target.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let code = std::fs::read_to_string(&target).unwrap();
    assert!(code.contains("PDriverDecl"));
}

#[test]
fn dot_exports_machine_diagram() {
    let out = p_bin()
        .args([
            "dot",
            corpus_file("elevator.p").to_str().unwrap(),
            "Elevator",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("digraph Elevator"));
    assert!(
        text.contains("style=dashed"),
        "call transitions rendered: {text}"
    );
}

#[test]
fn run_drives_a_machine() {
    let out = p_bin()
        .args([
            "run",
            corpus_file("usb_dsm.p").to_str().unwrap(),
            "DeviceSm",
            "Attach",
            "PowerOn",
            "BusReset",
            "SetAddress:5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("state = AddressState"), "{text}");
}

#[test]
fn run_shards_drives_the_sharded_executor() {
    let out = p_bin()
        .args([
            "run",
            corpus_file("usb_dsm.p").to_str().unwrap(),
            "DeviceSm",
            "Attach",
            "PowerOn",
            "BusReset",
            "SetAddress:5",
            "--shards",
            "4",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("(4 shard(s))"), "{text}");
    // Same end state as the single-runtime path above.
    assert!(text.contains("state = AddressState"), "{text}");
    // --stats prints the executor report with per-shard rows.
    assert!(text.contains("\"delivered\": 4"), "{text}");
    assert!(text.contains("\"shard\": 3"), "{text}");

    let out = p_bin()
        .args([
            "run",
            corpus_file("usb_dsm.p").to_str().unwrap(),
            "DeviceSm",
            "Attach",
            "--shards",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--shards must be at least 1"));
}

/// The sharded path writes `--trace` and `--metrics` as the
/// single-runtime path does: a Chrome document carrying the executor's
/// stats, per-shard rows included, and a metrics report that parses.
#[test]
fn run_shards_writes_trace_and_metrics() {
    use p_core::telemetry::json::JsonValue;
    let dir = std::env::temp_dir().join(format!("p-cli-shard-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, metrics) = (dir.join("trace.json"), dir.join("metrics.json"));
    let out = p_bin()
        .args([
            "run",
            corpus_file("usb_dsm.p").to_str().unwrap(),
            "DeviceSm",
            "Attach",
            "PowerOn",
            "--shards",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains(&format!("wrote {}", trace.display())),
        "{text}"
    );
    assert!(
        text.contains(&format!("wrote {}", metrics.display())),
        "{text}"
    );

    let doc = JsonValue::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .is_some());
    let shards = doc
        .get("stats")
        .and_then(|stats| stats.get("shards"))
        .and_then(JsonValue::as_array)
        .expect("the trace carries the executor's per-shard stats");
    assert_eq!(shards.len(), 2);
    let report = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap());
    assert!(report.is_ok(), "the metrics file parses");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn liveness_flags_spinner() {
    let spinner = write_temp(
        "spin.p",
        r#"
        event tick;
        machine S { state A { entry { send(this, tick); } on tick goto A; } }
        main S();
        "#,
    );
    let out = p_bin()
        .args(["liveness", spinner.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stdout(&out).contains("run forever"));
}

#[test]
fn unknown_command_shows_usage() {
    let out = p_bin().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"));
}

/// `verify` and `run` always refused an unknown flag; the other six used
/// to run as if it had not been typed (`p liveness f.p --jobs 4`).
#[test]
fn every_subcommand_refuses_flags_it_does_not_take() {
    let file = corpus_file("ping_pong.p");
    let file = file.to_str().unwrap();
    let run = |args: &[&str]| p_bin().args(args).output().unwrap();
    for command in ["check", "fmt", "info", "liveness", "compile", "dot"] {
        for stray in [&["--bogus"][..], &["--jobs", "4"], &["-x"]] {
            let out = run(&[&[command, file], stray].concat());
            assert_eq!(out.status.code(), Some(2), "p {command} FILE {stray:?}");
            let expected = format!("unknown flag `{}`", stray[0]);
            assert!(stderr(&out).contains(&expected), "{}", stderr(&out));
            assert!(stdout(&out).is_empty(), "p {command} FILE {stray:?} ran");
        }
    }
    // A second plain argument is refused too, except `dot`'s machine name.
    let out = run(&["check", file, file]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unexpected argument"));
    assert_eq!(
        run(&["dot", file, "Client", "Server"]).status.code(),
        Some(2)
    );
    let out = run(&["compile", file, "-o"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("-o needs a path"));
    // `verify` has one executor, the interpreter: no flag selects another.
    let typed = format!("verify {file} --compiled");
    let out = run(&typed.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag `--compiled`"));
    assert!(stdout(&out).is_empty());
    assert!(!stdout(&run(&["help"])).contains("compiled"));
    // What `dot` takes, it still takes, in either order.
    let target = std::env::temp_dir().join("p-cli-test-flags.dot");
    let target = target.to_str().unwrap();
    for args in [["Client", "-o", target], ["-o", target, "Client"]] {
        let _ = std::fs::remove_file(target);
        let out = run(&[&["dot", file], &args[..]].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(std::fs::read_to_string(target).unwrap().contains("Client"));
    }
}

#[test]
fn mem_limit_rejects_overflow_and_zero() {
    // `99999999999999999999k` overflows even a 64-bit byte count; the
    // parser must reject it (exit 2), not wrap around to a tiny limit.
    let file = corpus_file("ping_pong.p");
    let out = p_bin()
        .args([
            "verify",
            file.to_str().unwrap(),
            "--mem-limit",
            "99999999999999999999k",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--mem-limit"));

    // A zero limit would truncate every search at the first state.
    let out = p_bin()
        .args(["verify", file.to_str().unwrap(), "--mem-limit", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("out of range"));
}

/// The only sign of an unfinished search used to be a parenthesis in the
/// stats line above a bare `PASSED`.
#[test]
fn a_truncated_search_does_not_read_as_a_clean_pass() {
    let file = corpus_file("german.p");
    let run = |extra: &[&str]| {
        let out = p_bin()
            .args([&["verify", file.to_str().unwrap()], extra].concat())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        stdout(&out)
    };
    let cut = run(&["--max-states", "100"]);
    assert!(cut.contains("100 states") && cut.contains("(truncated)"));
    assert!(
        cut.ends_with("german.p: PASSED (incomplete: stopped at --max-states 100)\n"),
        "{cut}"
    );
    // A search that ends inside its bounds — a delay bound included —
    // keeps the bare verdict.
    for complete in [&[][..], &["--delay", "2"], &["--max-states", "100000"]] {
        let text = run(complete);
        assert!(text.ends_with("german.p: PASSED\n"), "{text}");
    }
}
