//! Child processes of the benchmark: `pmaxt run` invocations timed from
//! spawn to exit with their peak resident memory, and the `pmaxt serve`
//! daemon.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use sprint_jobd::client::{expect_ok, Client};
use sprint_jobd::json::Json;
use sprint_jobd::protocol;

/// How long a daemon may take to accept connections, or to exit when asked.
const DAEMON_DEADLINE: Duration = Duration::from_secs(60);

#[repr(C)]
#[allow(dead_code)] // filled in by wait4
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
#[allow(dead_code)] // filled in by wait4
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished `pmaxt run`.
pub struct Timed {
    /// Seconds from spawn to exit.
    pub wall: f64,
    /// Exited with status 0.
    pub ok: bool,
    /// Peak resident memory (`ru_maxrss`).
    pub max_rss_mib: f64,
}

fn log_file(path: &Path) -> io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Run `cmd` to its exit, with its standard error appended to `log`.
pub fn time_run(cmd: &mut Command, log: &Path) -> io::Result<Timed> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file(log)?);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values laid out as
        // the C `int` and the Linux `struct rusage` that wait4 fills, and
        // `pid` is this process's own child, not yet reaped.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Reaped above; the handle is never waited on again.
    drop(child);
    Ok(Timed {
        wall,
        ok: status == 0,
        max_rss_mib: usage.maxrss as f64 / 1024.0,
    })
}

/// A running `pmaxt serve`; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    /// The daemon's `unix:` address.
    pub addr: String,
}

impl Daemon {
    /// Start `pmaxt serve` on the unix socket `sock`, with its result cache
    /// and journal in `cache`, and wait until it answers a ping, which is
    /// after its journal replay. Two workers of one engine thread each fit
    /// the two cores; journal durability stays at the serve default, batch.
    pub fn spawn(pmaxt: &Path, sock: &Path, cache: &Path, log: &Path) -> io::Result<Daemon> {
        let addr = format!("unix:{}", sock.display());
        let child = Command::new(pmaxt)
            .args([
                "serve",
                addr.as_str(),
                "--workers",
                "2",
                "--job-threads",
                "1",
            ])
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file(log)?)
            .spawn()?;
        let mut daemon = Daemon { child, addr };
        let deadline = Instant::now() + DAEMON_DEADLINE;
        let ping = Json::obj(vec![("cmd", Json::str("ping"))]);
        loop {
            let answer = Client::connect(&daemon.addr).and_then(|mut c| c.request(&ping));
            if answer.is_ok_and(|a| expect_ok(a).is_ok()) {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "pmaxt serve exited ({status}); see {}",
                    log.display()
                )));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("pmaxt serve did not accept connections"));
            }
            sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident memory so far (`VmHWM`).
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// Ask the daemon to shut down and wait until it has exited.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| c.request(&protocol::shutdown_request(false)));
        let deadline = Instant::now() + DAEMON_DEADLINE;
        while asked.is_ok() && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("pmaxt serve did not stop when asked"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Still running here only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
