//! The memory of `p liveness` on the largest corpus program. A test
//! binary of its own: it reads the child's peak resident set from
//! `wait4` (`support/peak_rss.rs`), and wants no sibling test's children
//! in between. Linux only.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[path = "support/peak_rss.rs"]
mod peak_rss;

use peak_rss::wait_with_peak_mib;

/// The liveness search keeps its graph on the search kernel: one
/// interned configuration per expanded node and one 32-byte record per
/// edge. When it had a search loop of its own, with a hash map index and
/// an uninterned copy of every configuration, `german5.p` peaked at
/// 277 MiB; the graph on the kernel peaks near 150 MiB.
#[test]
fn liveness_on_german5_stays_under_208_mib() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../corpus/programs/german5.p");
    // The report is two lines: it fits the pipe, so the child never
    // blocks on a reader that only comes after it is reaped.
    let mut child = Command::new(env!("CARGO_BIN_EXE_p"))
        .arg("liveness")
        .arg(file)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let (status, peak) = wait_with_peak_mib(&mut child);
    let mut stdout = String::new();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    pipe.read_to_string(&mut stdout).unwrap();
    assert_eq!(status, 0, "p liveness german5.p did not exit 0:\n{stdout}");
    assert!(
        stdout.contains("155967 state(s), complete = true"),
        "{stdout}"
    );
    assert!(stdout.contains("no liveness violations"), "{stdout}");
    assert!(
        peak <= 208.0,
        "p liveness german5.p peaked at {peak:.1} MiB"
    );
}
