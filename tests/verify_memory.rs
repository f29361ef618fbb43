//! The memory of `p verify` on `german5.p` (plain, with `--por
//! --symmetry` without and under `--mem-limit 2m`, and with `--profile`)
//! and on `switch_led.p` under `--mem-limit 1m` at one and two workers.
//! A test binary of its own: it reads each child's peak resident set
//! from `wait4` (`support/peak_rss.rs`), and wants no sibling test's
//! children in between. Linux only.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[path = "support/peak_rss.rs"]
mod peak_rss;

use peak_rss::wait_with_peak_mib;

/// Runs `p verify` on the corpus program `name` with `args`, checks that
/// it passes with each of `expect` in its report, and returns its peak
/// in MiB.
fn verify_peak_mib(name: &str, args: &[&str], expect: &[&str]) -> f64 {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../corpus/programs")
        .join(name);
    // The report is two or three lines: it fits the pipe, so the child
    // never blocks on a reader that only comes after it is reaped.
    let mut child = Command::new(env!("CARGO_BIN_EXE_p"))
        .arg("verify")
        .arg(file)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (status, peak) = wait_with_peak_mib(&mut child);
    let mut stdout = String::new();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    pipe.read_to_string(&mut stdout).unwrap();
    assert_eq!(status, 0, "p verify {name} did not exit 0:\n{stdout}");
    assert!(expect.iter().all(|e| stdout.contains(e)), "{stdout}");
    peak
}

/// The bound: the peak measured on a 2-core x86-64 Linux box plus 10 %,
/// 8.8 MiB in a release build and 10.7 MiB in a debug one (whose larger
/// binary and unoptimised code the process maps and touches too).
const GERMAN5_PEAK_MIB: f64 = if cfg!(debug_assertions) { 11.7 } else { 9.7 };

/// The search's trace bookkeeping is the frontier's paths, not a record
/// per state: `german5.p` (155 967 states) peaked at 12.2 MiB (release)
/// while an edge log held 24 bytes for every pushed task until exit, and
/// peaks near 8.8 MiB without it.
#[test]
fn verify_on_german5_stays_under_its_measured_peak() {
    let counts = ["155967 states, 680224 transitions"];
    let peak = verify_peak_mib("german5.p", &["--jobs", "1"], &counts);
    assert!(
        peak <= GERMAN5_PEAK_MIB,
        "p verify german5.p peaked at {peak:.1} MiB, above {GERMAN5_PEAK_MIB} MiB"
    );
}

/// The bound: the peak measured on a 2-core x86-64 Linux box plus 10 %,
/// 7.5 MiB in a release build and 9.4 MiB in a debug one.
const GERMAN5_REDUCED_PEAK_MIB: f64 = if cfg!(debug_assertions) { 10.4 } else { 8.3 };

/// A hot state's sleep set is a one-byte code in its visited slot, not an
/// entry of a hash map keyed by a second copy of the fingerprint:
/// `german5.p --por --symmetry` peaked at 8.6 MiB (release) with the
/// map, and peaks near 7.5 MiB with the codes.
#[test]
fn verify_on_german5_reduced_stays_under_its_measured_peak() {
    let args = ["--por", "--symmetry", "--jobs", "1"];
    let counts = ["104065 states, 460477 transitions"];
    let peak = verify_peak_mib("german5.p", &args, &counts);
    assert!(
        peak <= GERMAN5_REDUCED_PEAK_MIB,
        "p verify german5.p --por --symmetry peaked at {peak:.1} MiB, above {GERMAN5_REDUCED_PEAK_MIB} MiB"
    );
}

/// `--profile` records a few dozen telemetry records, and its ring
/// allocates its slots as they are claimed: the run peaks within 1 MiB
/// of the plain one (38.6 against 8.4 MiB when the ring filled all 2¹⁸
/// slots up front).
#[test]
fn verify_profile_on_german5_costs_at_most_a_mebibyte() {
    let counts = ["155967 states, 680224 transitions"];
    let plain = verify_peak_mib("german5.p", &["--jobs", "1"], &counts);
    let out = std::env::temp_dir().join(format!("p-verify-memory-{}.json", std::process::id()));
    let args = ["--jobs", "1", "--profile", out.to_str().unwrap()];
    let profiled = verify_peak_mib("german5.p", &args, &counts);
    let _ = std::fs::remove_file(&out);
    assert!(
        profiled <= plain + 1.0,
        "p verify german5.p --profile peaked at {profiled:.1} MiB, the plain run at {plain:.1}"
    );
}

/// The bound: the highest peak measured on a 2-core x86-64 Linux box
/// plus 10 %, 6.45 MiB in a release build (median 6.1–6.3 over three
/// sets of ten runs) and 8.33 MiB in a debug one.
const SWITCH_LED_SPILL_PEAK_MIB: f64 = if cfg!(debug_assertions) { 9.2 } else { 7.1 };

/// `--mem-limit` sizes the hot visited tier and the interned machine
/// slots, and under `1m` the slots were most of what `switch_led.p`
/// held: it peaked at 11.8 MiB (release) while every slot kept a
/// 128-byte all-⊥ handler map and the spare capacity of the candidate it
/// came from, at 10.6 MiB while each shard kept a map of its hot keys'
/// encoding lengths beside them, and at 9.4 MiB while the worker's
/// interner kept every slot it met; it peaks near 6.3 MiB now that the
/// interner drops the slots no configuration holds when it reaches its
/// quarter of the limit.
#[test]
fn verify_on_switch_led_under_a_1m_limit_stays_under_its_measured_peak() {
    let args = ["--jobs", "1", "--mem-limit", "1m"];
    let counts = ["180625 states, 633343 transitions", "158860 spilled"];
    let peak = verify_peak_mib("switch_led.p", &args, &counts);
    assert!(
        peak <= SWITCH_LED_SPILL_PEAK_MIB,
        "p verify switch_led.p --mem-limit 1m peaked at {peak:.1} MiB, above {SWITCH_LED_SPILL_PEAK_MIB} MiB"
    );
}

/// The bound: the highest peak measured on a 2-core x86-64 Linux box
/// plus 10 %, 8.14 MiB in a release build (median 7.3–7.4 over two sets
/// of ten runs; two workers' peaks spread wider than one's) and 9.39 MiB
/// in a debug one.
const SWITCH_LED_SPILL_JOBS2_PEAK_MIB: f64 = if cfg!(debug_assertions) { 10.4 } else { 9.0 };

/// Two workers split the slots' quarter of the limit between their
/// interners: `switch_led.p --mem-limit 1m --jobs 2` peaked at 10.8–11.5
/// MiB (release) while each interner kept every slot it met.
#[test]
fn verify_on_switch_led_under_a_1m_limit_at_two_workers_stays_under_its_measured_peak() {
    let args = ["--jobs", "2", "--mem-limit", "1m"];
    let counts = ["180625 states, 633343 transitions"];
    let peak = verify_peak_mib("switch_led.p", &args, &counts);
    assert!(
        peak <= SWITCH_LED_SPILL_JOBS2_PEAK_MIB,
        "p verify switch_led.p --mem-limit 1m --jobs 2 peaked at {peak:.1} MiB, above {SWITCH_LED_SPILL_JOBS2_PEAK_MIB} MiB"
    );
}

/// The bound: the peak measured on a 2-core x86-64 Linux box plus 10 %,
/// 8.4 MiB in a release build and 10.4 MiB in a debug one.
const GERMAN5_REDUCED_SPILL_PEAK_MIB: f64 = if cfg!(debug_assertions) { 11.4 } else { 9.3 };

/// A limit saves memory: a spilled state's sleep set goes to disk in its
/// run record. `german5.p --por --symmetry --mem-limit 2m` peaked at
/// 11.2 MiB (release), above the 7.5 MiB of the run without a limit,
/// while every spilled key's set stayed in a hash map in RAM, and peaks
/// near 8.4 MiB with the sets on disk.
#[test]
fn verify_on_german5_reduced_under_a_2m_limit_stays_under_its_measured_peak() {
    let args = ["--por", "--symmetry", "--jobs", "1", "--mem-limit", "2m"];
    let counts = ["104065 states, 460477 transitions", "89041 spilled"];
    let peak = verify_peak_mib("german5.p", &args, &counts);
    assert!(
        peak <= GERMAN5_REDUCED_SPILL_PEAK_MIB,
        "p verify german5.p --por --symmetry --mem-limit 2m peaked at {peak:.1} MiB, above {GERMAN5_REDUCED_SPILL_PEAK_MIB} MiB"
    );
}
