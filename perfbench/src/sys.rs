//! Process resource counters and the host/build fingerprint.
//!
//! CPU time, context switches and peak RSS come from `getrusage(2)`
//! through a hand-declared binding (the workspace builds offline, with no
//! `libc` crate). The layout below is the Linux one for 64-bit targets,
//! where every field after the two `timeval`s is a C `long`.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process's resource usage (all threads).
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User-mode CPU time.
    pub user: Duration,
    /// Kernel-mode CPU time.
    pub sys: Duration,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size (the kernel's `VmHWM`), bytes.
    pub max_rss_bytes: u64,
}

impl Usage {
    /// Read the current process's counters.
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `Rusage` laid out as the kernel's
        // `struct rusage` on 64-bit Linux (two timevals, then 14 longs), and
        // RUSAGE_SELF is a valid `who`; the call writes only inside `ru`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let tv = |t: Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1_000);
        Usage {
            user: tv(ru.ru_utime),
            sys: tv(ru.ru_stime),
            ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
            max_rss_bytes: ru.ru_maxrss as u64 * 1024,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_bytes: self.max_rss_bytes,
        }
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// CPU time the hypervisor stole from this machine's virtual CPUs, summed
/// over CPUs (the `steal` column of `/proc/stat`, in 1/100 s ticks), or
/// `None` where the kernel does not report it. Steal accrues only while a
/// virtual CPU wants to run, so a rise during a measurement means another
/// tenant delayed it.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

/// Stolen CPU seconds while `f` runs (0 where steal is not reported).
pub fn stolen<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = steal_s();
    let r = f();
    let stolen = match (before, steal_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    (r, stolen)
}

/// Where the run happened and what built it, as JSON object members.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"host\": {{\"cores\": {cores}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit(Path::new(".git"))),
        json_str(workload),
        u8::from(trace),
    )
}

/// The checked-out commit, read from `.git` in the working directory only
/// (never searching parent directories); `"unknown"` outside a git
/// checkout.
fn git_commit(git: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(r))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
