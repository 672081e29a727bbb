//! Process plumbing: the daemon tree in its own process group, peak
//! resident memory, and the benchmark's own CPU time.
//!
//! A daemon tree leaves the benchmark's process group, so a Ctrl-C or a
//! SIGTERM aimed at the benchmark would not reach it. Two things keep it
//! from outliving the benchmark: [`stop_trees_on_signal`] kills every live
//! tree's group when the benchmark is interrupted, and each child is
//! started with a parent-death signal, which the kernel sends even when
//! the benchmark is SIGKILLed.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn signal(sig: i32, handler: usize) -> usize;
    fn prctl(option: i32, ...) -> i32;
    fn getppid() -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn _exit(code: i32) -> !;
    fn sysconf(name: i32) -> i64;
}

const SIGHUP: i32 = 1;
const SIGINT: i32 = 2;
/// The signal for a child with nothing to drain.
pub const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const RUSAGE_SELF: i32 = 0;
const PR_SET_PDEATHSIG: i32 = 1;
const SC_CLK_TCK: i32 = 2;

/// Process groups of the live daemon trees (0 = free slot), read by the
/// signal handler.
static LIVE_GROUPS: [AtomicI32; 4] = [const { AtomicI32::new(0) }; 4];

fn register_group(pgid: i32) {
    for slot in &LIVE_GROUPS {
        if slot
            .compare_exchange(0, pgid, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
    }
    eprintln!("[perfbench] more live daemon trees than signal-handler slots");
}

fn unregister_group(pgid: i32) {
    for slot in &LIVE_GROUPS {
        let _ = slot.compare_exchange(pgid, 0, Ordering::SeqCst, Ordering::SeqCst);
    }
}

extern "C" fn on_interrupt(sig: i32) {
    for slot in &LIVE_GROUPS {
        let pgid = slot.load(Ordering::SeqCst);
        if pgid > 0 {
            // SAFETY: kill, waitpid and _exit are async-signal-safe; the
            // group and its leader (our child) are ours.
            unsafe {
                kill(-pgid, SIGKILL);
                waitpid(pgid, std::ptr::null_mut(), 0);
            }
        }
    }
    // SAFETY: _exit ends the process without running non-reentrant code.
    unsafe { _exit(128 + sig) }
}

/// On SIGINT, SIGTERM or SIGHUP, SIGKILL every live daemon tree, reap its
/// leader and exit with 128 + the signal number.
pub fn stop_trees_on_signal() {
    for sig in [SIGHUP, SIGINT, SIGTERM] {
        // SAFETY: installs an async-signal-safe handler (see above).
        unsafe { signal(sig, on_interrupt as extern "C" fn(i32) as usize) };
    }
}

/// Have the kernel send `sig` to the child `cmd` starts once this process
/// (strictly: the spawning thread) is gone. Spawn only from the main
/// thread.
pub fn die_with_parent(cmd: &mut Command, sig: i32) {
    use std::os::unix::process::CommandExt;
    let parent = std::process::id() as i32;
    // SAFETY: the hook runs between fork and exec and calls only the
    // async-signal-safe prctl and getppid.
    unsafe {
        cmd.pre_exec(move || {
            if prctl(PR_SET_PDEATHSIG, sig as u64) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            // The parent may have died before the signal was armed.
            if getppid() != parent {
                return Err(std::io::Error::other("the benchmark is gone"));
            }
            Ok(())
        });
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable, properly sized and aligned `struct
    // rusage` for this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// `VmHWM` (peak resident set) of a process in MiB, from
/// `/proc/<pid>/status`; `None` once the process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(pid, process group, state)` of every process, from `/proc/*/stat`.
fn process_table() -> Vec<(u32, u32, char)> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let name = e.ok()?.file_name().into_string().ok()?;
        let pid: u32 = name.parse().ok()?;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // The command name is parenthesised and may hold spaces.
        let rest = &stat[stat.rfind(')')? + 2..];
        let mut f = rest.split_whitespace();
        let state = f.next()?.chars().next()?;
        let _ppid = f.next()?;
        let pgrp = f.next()?.parse().ok()?;
        Some((pid, pgrp, state))
    })
    .collect()
}

/// A daemon started in a process group of its own, so that it and every
/// process it spawns (a router's shards) can be stopped together. Dropping
/// the tree kills whatever is left of it.
pub struct DaemonTree {
    child: Child,
    pid: u32,
    port_file: PathBuf,
    stopped: bool,
}

impl DaemonTree {
    /// Start `bin` with `args` plus `--port-file`; temporary files of the
    /// tree (its port files) go under `tmp_dir`.
    pub fn spawn(bin: &Path, args: &[&str], tmp_dir: &Path, tag: &str) -> std::io::Result<Self> {
        use std::os::unix::process::CommandExt;
        let port_file = tmp_dir.join(format!("daemon-{}-{tag}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .arg("--port-file")
            .arg(&port_file)
            .env("TMPDIR", tmp_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .process_group(0);
        // SIGTERM, not SIGKILL: a router drains and stops its shards.
        die_with_parent(&mut cmd, SIGTERM);
        let child = cmd.spawn()?;
        let pid = child.id();
        register_group(pid as i32);
        Ok(Self {
            child,
            pid,
            port_file,
            stopped: false,
        })
    }

    /// Wait until the daemon has written its listening address.
    pub fn wait_addr(&mut self, timeout: Duration) -> std::io::Result<String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Ok(s) = std::fs::read_to_string(&self.port_file) {
                if s.ends_with('\n') {
                    return Ok(s.trim().to_owned());
                }
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "daemon exited during startup: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("daemon reported no address in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The process-group id (the daemon's pid).
    pub fn pgid(&self) -> u32 {
        self.pid
    }

    /// Stop the tree: SIGTERM the daemon (a router drains and stops its
    /// shards), SIGKILL the whole group if it lingers, then wait until no
    /// process of the group is left. Returns whether the group is gone.
    pub fn stop(&mut self) -> bool {
        // SAFETY: plain signal delivery to a pid we spawned; no memory is
        // shared with the callee.
        unsafe { kill(self.pid as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill_group()
    }

    /// SIGKILL every process of the group and wait for them to be gone.
    pub fn kill_group(&mut self) -> bool {
        let alive = |pgid| process_table().iter().any(|p| p.1 == pgid && p.2 != 'Z');
        self.stopped = true;
        // SAFETY: signal delivery to our own process group only.
        unsafe { kill(-(self.pid as i32), SIGKILL) };
        let _ = self.child.wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        while alive(self.pid) {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        unregister_group(self.pid as i32);
        let _ = std::fs::remove_file(&self.port_file);
        true
    }
}

impl Drop for DaemonTree {
    fn drop(&mut self) {
        if !self.stopped {
            self.kill_group();
        }
    }
}

/// Kill a process group from a thread that does not own its
/// [`DaemonTree`] (the client watchdog).
pub fn kill_group(pgid: u32) {
    // SAFETY: signal delivery to a process group we created.
    unsafe { kill(-(pgid as i32), SIGKILL) };
}

/// Summed peak resident memory of every live process in a daemon tree's
/// process group.
pub fn group_peak_rss_mb(pgid: u32) -> f64 {
    process_table()
        .iter()
        .filter(|p| p.1 == pgid && p.2 != 'Z')
        .filter_map(|p| peak_rss_mb(&p.0.to_string()))
        .sum()
}

/// CPU clock ticks of this machine so far, summed over CPUs, from the
/// first line of `/proc/stat`: `(steal, all)`, where steal is the time the
/// hypervisor ran something else while a CPU of this machine had work.
/// `None` where the kernel does not report steal.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Clock ticks per second, the unit of [`cpu_ticks`].
pub fn ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}
