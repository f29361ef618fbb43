//! What `--symmetry` adds to the memory of a run under `--mem-limit`.
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

/// Runs `p verify german5.p <flags> --mem-limit 2m` to completion and
/// returns its stdout and its peak resident set in MiB.
fn peak_mib(flags: &[&str]) -> (String, f64) {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../corpus/programs/german5.p");
    // The report is a few lines: it fits the pipe, so the child never
    // blocks on a reader that only comes after it is reaped.
    let mut child = Command::new(env!("CARGO_BIN_EXE_p"))
        .arg("verify")
        .arg(file)
        .args(flags)
        .args(["--mem-limit", "2m"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (status, peak) = wait_with_peak_mib(&mut child);
    assert_eq!(status, 0, "p verify {flags:?} did not exit 0");
    let mut stdout = String::new();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    pipe.read_to_string(&mut stdout).unwrap();
    (stdout, peak)
}

/// The canonicalizer's working set is two fixed tables (the per-worker
/// concrete → canonical memo and the per-slot digest cache, under 3 MiB
/// together), so a symmetry-reduced run under `--mem-limit` may peak at
/// most 4 MiB above the plain run with the same limit. When the memo
/// was a hash map with an entry per concrete state it was counted by
/// nothing and bounded by nothing: 25 MiB against 11 MiB here.
#[test]
fn symmetry_stays_inside_the_memory_limit() {
    let (plain_out, plain) = peak_mib(&[]);
    let (reduced_out, reduced) = peak_mib(&["--symmetry"]);
    assert!(plain_out.contains("PASSED") && plain_out.contains(" spilled"));
    assert!(reduced_out.contains("104065 states, 494801 transitions"));
    assert!(reduced_out.contains("PASSED") && reduced_out.contains(" spilled"));
    assert!(
        reduced <= plain + 4.0,
        "--symmetry --mem-limit 2m peaked at {reduced:.1} MiB, the plain run at {plain:.1} MiB"
    );
}
