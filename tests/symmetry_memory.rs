//! What `--symmetry` adds to the memory of a run under `--mem-limit`.
//! A test binary of its own: it reads each child's peak resident set
//! from `wait4`, and wants no sibling test's children in between.
//! `wait4` is declared here (the repository vendors no `libc` crate),
//! so Linux only.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Reaps `child` through `wait4`: its wait status and its own peak
/// resident set in MiB (`getrusage(RUSAGE_CHILDREN)` would give the
/// maximum over every child reaped so far).
fn wait_with_peak_mib(child: &mut Child) -> (i32, f64) {
    let pid = child.id() as i32;
    let (mut usage, mut status) = (Rusage::default(), 0i32);
    // SAFETY: `status` and `usage` are live and writable for the call;
    // `pid` is a child of this process that nothing else waits for, as
    // `child` is borrowed mutably and only reaped here.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(reaped, pid, "{}", std::io::Error::last_os_error());
    (status, usage.maxrss as f64 / 1024.0)
}

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
