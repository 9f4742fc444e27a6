//! Process resource counters from `getrusage(RUSAGE_SELF)`: CPU time
//! split into user and system, minor page faults, and the peak
//! resident set. They cover every thread of the process — the
//! campaign's workers and, for the daemon workload, the daemon's own
//! threads. Linux only; elsewhere every counter reads 0.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    #[cfg(target_os = "linux")]
    {
        const RUSAGE_SELF: c_int = 0;
        // SAFETY: `usage` is a valid, writable `struct rusage` in
        // Linux's layout, and getrusage writes nothing beyond it.
        if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
            usage = Rusage::default();
        }
    }
    usage
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU time, seconds.
    pub user_s: f64,
    /// System (kernel) CPU time, seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
}

impl ProcSample {
    /// Read the counters of this process.
    pub fn now() -> ProcSample {
        let usage = rusage();
        ProcSample {
            user_s: seconds(&usage.utime),
            sys_s: seconds(&usage.stime),
            minflt: usage.minflt.max(0) as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }

    /// User plus system CPU, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss.max(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_with_work() {
        let a = ProcSample::now();
        let v: Vec<u64> = (0..2_000_000).collect();
        assert!(v.iter().sum::<u64>() > 0);
        let d = ProcSample::now().since(&a);
        assert!(d.cpu_s() > 0.0, "{d:?}");
        assert!(d.minflt > 0, "{d:?}");
        assert!(peak_rss_mib() > 0.0);
    }
}
