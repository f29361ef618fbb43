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
