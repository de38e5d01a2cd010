//! Measuring a child process from the outside: wall time, exit status and
//! peak resident set size, plus the bytes a run leaves on disk.
//!
//! No `libc` crate is vendored, so `wait4` is declared here. It reaps one
//! child and returns that child's own `rusage`, which keeps the peak RSS of
//! `repro` apart from the RSS of the `cargo` build that ran before it.

use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn getrusage(who: c_int, rusage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const EINTR: i32 = 4;

fn empty_rusage() -> Rusage {
    Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    }
}

/// One finished child process.
pub struct Finished {
    pub status: ExitStatus,
    pub wall_s: f64,
    /// Peak RSS of the child, in MiB (`ru_maxrss` is in KiB on Linux).
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
}

/// Run `program args` to completion with stdout and stderr captured in
/// `capture_dir`, and measure it.
pub fn run(program: &Path, args: &[String], capture_dir: &Path) -> std::io::Result<Finished> {
    std::fs::create_dir_all(capture_dir)?;
    let out_path = capture_dir.join("stdout");
    let err_path = capture_dir.join("stderr");
    let out = std::fs::File::create(&out_path)?;
    let err = std::fs::File::create(&err_path)?;
    let t0 = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()?;
    let pid = child.id() as c_int;
    let mut status: c_int = 0;
    let mut usage = empty_rusage();
    loop {
        // SAFETY: `status` and `usage` are valid for writes for the whole
        // call, and `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // The child is reaped; `Child` itself never waits on drop.
    drop(child);
    Ok(Finished {
        status: ExitStatus::from_raw(status),
        wall_s,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        stdout: std::fs::read(&out_path)?,
        stderr: std::fs::read(&err_path)?,
    })
}

/// Peak RSS of this process so far, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    let mut usage = empty_rusage();
    // SAFETY: `usage` is valid for writes for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// Total size of the regular files under `path` (0 if it does not exist).
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    if !meta.is_dir() {
        return 0;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| dir_bytes(&e.path()))
        .sum()
}
