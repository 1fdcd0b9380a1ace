//! Running the shipped binaries as child processes.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one finished child process produced.
pub struct Finished {
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Whether it exited with status 0.
    pub success: bool,
    /// Wall time from spawn to reaped exit.
    pub elapsed: Duration,
}

fn drain(
    mut pipe: impl Read + Send + 'static,
    done: Option<mpsc::Sender<()>>,
) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        if let Some(done) = done {
            let _ = done.send(());
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Runs `cmd` to completion, killing it after `timeout`. A timeout or
/// a failure to start is an `Err`; a nonzero exit is a
/// [`Finished`] with `success == false`.
pub fn run(cmd: &mut Command, timeout: Duration) -> Result<Finished, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let (done_tx, done_rx) = mpsc::channel();
    let out = drain(child.stdout.take().expect("stdout is piped"), Some(done_tx));
    let err = drain(child.stderr.take().expect("stderr is piped"), None);
    // Standard output reaches end-of-file when the child exits, so
    // waiting for it bounds the child's run time without polling.
    let timed_out = done_rx.recv_timeout(timeout).is_err();
    if timed_out {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let elapsed = start.elapsed();
    let stdout = out.join().unwrap_or_default();
    let stderr = err.join().unwrap_or_default();
    if timed_out {
        return Err(format!("{cmd:?} timed out after {timeout:?}"));
    }
    Ok(Finished {
        stdout,
        stderr,
        success: status.success(),
        elapsed,
    })
}

/// A long-running child (`implicitd`) that is killed and reaped if the
/// benchmark drops it without a clean shutdown.
pub struct Resident {
    /// The child process.
    pub child: Child,
}

impl Resident {
    /// Waits up to `timeout` for the child to exit on its own, then
    /// kills it. Returns whether it exited on its own.
    pub fn reap(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads child peak RSS through 64-bit Linux getrusage(2)");

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `struct timeval`s, then fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size, in MiB, of the largest child process this
/// benchmark has waited for so far.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the size and
    // field layout of Linux's 64-bit `struct rusage` (the `cfg` above
    // rules out other systems), and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_and_times_out() {
        let ok = run(
            Command::new("sh").args(["-c", "echo out; echo err >&2"]),
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(ok.success);
        assert_eq!(ok.stdout, "out\n");
        assert_eq!(ok.stderr, "err\n");
        let slow = run(
            Command::new("sh").args(["-c", "exec sleep 5"]),
            Duration::from_millis(100),
        );
        assert!(slow.is_err());
        assert!(children_peak_rss_mb() > 0.0);
    }
}
