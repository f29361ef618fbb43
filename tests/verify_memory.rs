//! The memory of `p verify` on `german5.p` (plain at one and two
//! workers, with `--por --symmetry` without and under `--mem-limit 2m`,
//! and with `--profile`) and on `switch_led.p` under `--mem-limit 1m` at
//! one and two workers, and what checkpoints and a resume add to it.
//! A test binary of its own: it reads each child's peak resident set
//! from `wait4` (`support/peak_rss.rs`), and wants no sibling test's
//! children in between. A child's peak starts from this harness's own, so
//! each pin first checks that the harness is under the pin's bound: a
//! failure that raised it (a panic's backtrace does) then fails the later
//! pins as the harness's, not as `p`'s. Linux only.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[path = "support/peak_rss.rs"]
mod peak_rss;

use peak_rss::{own_peak_mib, wait_with_peak_mib};

/// Fails `pin` if this harness has itself peaked above `bound` MiB: a
/// child spawned now would read the harness's peak, not its own.
fn harness_under(bound: f64, pin: &str) {
    let own = own_peak_mib();
    assert!(
        own <= bound,
        "{pin}: the test harness itself peaked at {own:.1} MiB, above the bound of {bound:.1} MiB, \
         so no child's peak can be read under it (an earlier failure in this binary raised it)"
    );
}

/// Runs `p verify` on the corpus program `name` with `args`, checks that
/// it passes with each of `expect` in its report, and returns its peak
/// in MiB.
fn verify_peak_mib(name: &str, args: &[&str], expect: &[&str]) -> f64 {
    let (status, stdout, peak) = verify_run(name, args);
    assert_eq!(status, 0, "p verify {name} did not exit 0:\n{stdout}");
    assert!(expect.iter().all(|e| stdout.contains(e)), "{stdout}");
    peak
}

/// Runs `p verify` on the corpus program `name` with `args` and returns
/// its wait status, its report and its peak in MiB.
fn verify_run(name: &str, args: &[&str]) -> (i32, String, f64) {
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
    (status, stdout, peak)
}

/// The bound: the highest of ten peaks measured on a 2-core x86-64 Linux
/// box plus 10 %, 7.84 MiB in a release build and 9.98 MiB in a debug one
/// (whose larger binary and unoptimised code the process maps and
/// touches too).
const GERMAN5_PEAK_MIB: f64 = if cfg!(debug_assertions) { 11.0 } else { 8.7 };

/// The search's trace bookkeeping is the frontier's paths, not a record
/// per state: `german5.p` (155 967 states) peaked at 12.2 MiB (release)
/// while an edge log held 24 bytes for every pushed task until exit, at
/// 8.8 MiB while the visited buckets' freed generations stayed in the
/// heap, and peaks near 7.8 MiB with the buckets on pages of their own.
#[test]
fn verify_on_german5_stays_under_its_measured_peak() {
    let counts = ["155967 states, 680224 transitions"];
    harness_under(GERMAN5_PEAK_MIB, "p verify german5.p");
    let peak = verify_peak_mib("german5.p", &["--jobs", "1"], &counts);
    assert!(
        peak <= GERMAN5_PEAK_MIB,
        "p verify german5.p peaked at {peak:.1} MiB, above {GERMAN5_PEAK_MIB} MiB"
    );
}

/// The bound: the highest of ten peaks measured on a 2-core x86-64 Linux
/// box plus 10 %, 8.97 MiB in a release build and 10.98 MiB in a debug one.
const GERMAN5_JOBS2_PEAK_MIB: f64 = if cfg!(debug_assertions) { 12.1 } else { 9.9 };

/// Two workers allocate from two malloc arenas, and each kept the visited
/// buckets' freed generations it had touched: `german5.p --jobs 2` peaked
/// at 9.5–10.7 MiB (release) with the buckets on the heap, and peaks near
/// 8.8 MiB with them on pages of their own, which a grow unmaps.
#[test]
fn verify_on_german5_at_two_workers_stays_under_its_measured_peak() {
    let counts = ["155967 states, 680224 transitions"];
    harness_under(GERMAN5_JOBS2_PEAK_MIB, "p verify german5.p --jobs 2");
    let peak = verify_peak_mib("german5.p", &["--jobs", "2"], &counts);
    assert!(
        peak <= GERMAN5_JOBS2_PEAK_MIB,
        "p verify german5.p --jobs 2 peaked at {peak:.1} MiB, above {GERMAN5_JOBS2_PEAK_MIB} MiB"
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
    harness_under(
        GERMAN5_REDUCED_PEAK_MIB,
        "p verify german5.p --por --symmetry",
    );
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
    harness_under(plain + 1.0, "p verify german5.p --profile");
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
    harness_under(
        SWITCH_LED_SPILL_PEAK_MIB,
        "p verify switch_led.p --mem-limit 1m",
    );
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
    let pin = "p verify switch_led.p --mem-limit 1m --jobs 2";
    harness_under(SWITCH_LED_SPILL_JOBS2_PEAK_MIB, pin);
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
    let pin = "p verify german5.p --por --symmetry --mem-limit 2m";
    harness_under(GERMAN5_REDUCED_SPILL_PEAK_MIB, pin);
    let peak = verify_peak_mib("german5.p", &args, &counts);
    assert!(
        peak <= GERMAN5_REDUCED_SPILL_PEAK_MIB,
        "p verify german5.p --por --symmetry --mem-limit 2m peaked at {peak:.1} MiB, above {GERMAN5_REDUCED_SPILL_PEAK_MIB} MiB"
    );
}

/// A fresh directory for a checkpoint.
fn checkpoint_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p-verify-memory-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A checkpoint streams the visited keys from the table into the file a
/// shard's hot keys at a time, so checkpointing every 20 000 states
/// peaks within 1 MiB of the same run without checkpoints, in RAM and
/// under a limit. The run peaked 15–23 MiB above it (release) while a
/// checkpoint held the whole visited set three times: as entries, as a
/// payload and as the file's bytes.
#[test]
fn checkpoints_cost_at_most_a_mebibyte() {
    let german5 = ["155967 states, 680224 transitions"];
    let switch_led = ["180625 states, 633343 transitions"];
    for (name, limit, counts) in [
        ("german5.p", &[][..], german5),
        ("german5.p", &["--mem-limit", "2m"], german5),
        ("switch_led.p", &["--mem-limit", "1m"], switch_led),
    ] {
        let args = [&["--jobs", "1"], limit].concat();
        let plain = verify_peak_mib(name, &args, &counts);
        let dir = checkpoint_dir("every");
        let dir_s = dir.to_str().unwrap();
        let every = ["--checkpoint", dir_s, "--checkpoint-every", "20000"];
        harness_under(
            plain + 1.0,
            &format!("p verify {name} {limit:?} --checkpoint"),
        );
        let checkpointing = verify_peak_mib(name, &[&args, &every[..]].concat(), &counts);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            checkpointing <= plain + 1.0,
            "p verify {name} {limit:?} peaked at {checkpointing:.1} MiB with checkpoints, at {plain:.1} without"
        );
    }
}

/// A resume streams the checkpoint's visited keys into the table, under
/// a limit straight into the cold tier's first run: `german5.p` under
/// `--mem-limit 2m`, resumed from a checkpoint of 80 000 states, peaks
/// within 1 MiB of the uninterrupted run. It peaked about 19 MiB above
/// it (release) while the file, its entries and their sorted batch were
/// each held whole.
#[test]
fn a_resume_under_a_limit_costs_at_most_a_mebibyte() {
    let counts = ["155967 states, 680224 transitions"];
    let args = ["--jobs", "1", "--mem-limit", "2m"];
    let plain = verify_peak_mib("german5.p", &args, &counts);
    let dir = checkpoint_dir("resume");
    let dir_s = dir.to_str().unwrap();
    let abort = ["--checkpoint", dir_s, "--abort-after", "80000"];
    let (status, stdout, _) = verify_run("german5.p", &[&args[..], &abort].concat());
    // A wait status: the exit code is its second byte.
    assert_eq!(status, 3 << 8, "the aborted run did not exit 3:\n{stdout}");
    let resume = [&args[..], &["--resume", dir_s]].concat();
    harness_under(plain + 1.0, "p verify german5.p --mem-limit 2m --resume");
    let resumed = verify_peak_mib("german5.p", &resume, &counts);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        resumed <= plain + 1.0,
        "p verify german5.p --mem-limit 2m peaked at {resumed:.1} MiB resumed, at {plain:.1} uninterrupted"
    );
}
