//! A child's own peak resident set, for the memory tests. Each of them
//! is a test binary of its own: it reads each child's peak from `wait4`
//! and wants no sibling test's children in between. `wait4` is declared
//! here (the repository vendors no `libc` crate), so Linux only.

use std::process::Child;

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
pub fn wait_with_peak_mib(child: &mut Child) -> (i32, f64) {
    let pid = child.id() as i32;
    let (mut usage, mut status) = (Rusage::default(), 0i32);
    // SAFETY: `status` and `usage` are live and writable for the call;
    // `pid` is a child of this process that nothing else waits for, as
    // `child` is borrowed mutably and only reaped here.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(reaped, pid, "{}", std::io::Error::last_os_error());
    (status, usage.maxrss as f64 / 1024.0)
}

/// This process's own peak resident set in MiB, as a child spawned now
/// inherits it: the child shares this address space until its `exec`,
/// which starts the child's `ru_maxrss` from the space's high-water mark
/// (`VmHWM`). `getrusage(RUSAGE_SELF)` is not that number: it also holds
/// what this process inherited in turn at its own `exec` (cargo's peak,
/// 26 MiB, under `cargo test`), which no child of ours sees.
#[allow(dead_code)] // only the binaries with several pins check it
pub fn own_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
    let kib = line.and_then(|kib| kib.trim().strip_suffix("kB"));
    kib.and_then(|kib| kib.trim().parse::<f64>().ok())
        .expect("a VmHWM line in /proc/self/status")
        / 1024.0
}
