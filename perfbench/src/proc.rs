//! Building the `bagcons` binary and running it as a child process with
//! its exit code and peak resident set size.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the release `bagcons` binary of the repository at `root` and
/// returns its path (taken from cargo's own build messages, so any
/// `CARGO_TARGET_DIR` is honoured).
pub fn build_bagcons(root: &Path) -> Result<PathBuf, String> {
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "bagcons",
            "--message-format=json",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of bagcons failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        let Ok(msg) = crate::json::parse(line) else {
            continue;
        };
        let is_bin = msg
            .get("target")
            .and_then(|t| t.get("name"))
            .and_then(|n| n.as_str())
            == Some("bagcons");
        if let (true, Some(exe)) = (is_bin, msg.get("executable").and_then(|e| e.as_str())) {
            return Ok(PathBuf::from(exe));
        }
    }
    Err("cargo reported no bagcons executable".to_string())
}

/// How a child ended.
pub struct Exit {
    pub code: Option<i32>,
    pub max_rss_kb: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s then 14 `long`s.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Waits for `child` and returns its exit code and peak RSS (`wait4`
/// reports the high-water mark of the reaped process alone).
pub fn wait(child: Child) -> Result<Exit, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the kernel's `int` and `struct rusage`; `pid` is our own
        // unreaped child, so no other waiter races for it.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    // The child is reaped: dropping the handle must not wait again.
    drop(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Exit {
        code,
        max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// Runs `bin args...` to completion with stdout written to `stdout`,
/// returning the wall time from spawn to reap.
pub fn run_to_file(bin: &Path, args: &[&Path], stdout: &Path) -> Result<(Duration, Exit), String> {
    let file = std::fs::File::create(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let t = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(file)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let exit = wait(child)?;
    Ok((t.elapsed(), exit))
}
