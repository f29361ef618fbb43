//! The memory of `p verify` on `german5.p`. A test binary of its own:
//! it reads the child's peak resident set from `wait4`
//! (`support/peak_rss.rs`), and wants no sibling test's children in
//! between. Linux only.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[path = "support/peak_rss.rs"]
mod peak_rss;

use peak_rss::wait_with_peak_mib;

/// The bound: the peak measured on a 2-core x86-64 Linux box plus 10 %,
/// 8.8 MiB in a release build and 10.7 MiB in a debug one (whose larger
/// binary and unoptimised code the process maps and touches too).
const PEAK_MIB: f64 = if cfg!(debug_assertions) { 11.7 } else { 9.7 };

/// The search's trace bookkeeping is the frontier's paths, not a record
/// per state: `german5.p` (155 967 states) peaked at 12.2 MiB (release)
/// while an edge log held 24 bytes for every pushed task until exit, and
/// peaks near 8.8 MiB without it.
#[test]
fn verify_on_german5_stays_under_its_measured_peak() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../corpus/programs/german5.p");
    // The report is two lines: it fits the pipe, so the child never
    // blocks on a reader that only comes after it is reaped.
    let mut child = Command::new(env!("CARGO_BIN_EXE_p"))
        .arg("verify")
        .arg(file)
        .args(["--jobs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (status, peak) = wait_with_peak_mib(&mut child);
    let mut stdout = String::new();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    pipe.read_to_string(&mut stdout).unwrap();
    assert_eq!(status, 0, "p verify german5.p did not exit 0:\n{stdout}");
    assert!(
        stdout.contains("155967 states, 680224 transitions"),
        "{stdout}"
    );
    assert!(
        peak <= PEAK_MIB,
        "p verify german5.p peaked at {peak:.1} MiB, above {PEAK_MIB} MiB"
    );
}
