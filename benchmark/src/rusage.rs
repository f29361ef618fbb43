//! What the operating system saw: the peak resident set size of a
//! finished child, through the C library's `wait4` (declared here; the
//! repository vendors no `libc` crate), and this process's current one.

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

/// Resident set size of this process now, in bytes (`/proc/self/statm`).
pub fn self_rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// How a child ended and the most memory it held.
#[derive(Debug, Clone, Copy)]
pub struct ChildExit {
    /// Exit code; `None` when a signal killed the child.
    pub code: Option<i32>,
    pub peak_rss_kib: u64,
}

/// Waits for `child` and returns its exit code with its own peak RSS
/// (`getrusage(RUSAGE_CHILDREN)` would give the maximum over every
/// child waited for so far).
pub fn wait_with_rusage(child: &mut Child) -> std::io::Result<ChildExit> {
    let mut usage = Rusage::default();
    let mut status = 0i32;
    let pid = child.id() as i32;
    loop {
        // SAFETY: `status` and `usage` are live and writable for the
        // call; `pid` is a child of this process that nothing else has
        // waited for, as `child` is borrowed mutably and only reaped here.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The wait status encodes a normal exit as (code << 8) with the low
    // seven bits zero; anything else is a signal.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildExit {
        code,
        peak_rss_kib: usage.maxrss.max(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    #[test]
    fn own_rss_is_read() {
        assert!(self_rss_bytes() > 0);
    }

    #[test]
    fn wait_reports_exit_code_and_child_memory() {
        let mut child = Command::new("sh")
            .args(["-c", "exit 3"])
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let exit = wait_with_rusage(&mut child).unwrap();
        assert_eq!(exit.code, Some(3));
        assert!(exit.peak_rss_kib > 0);
    }
}
