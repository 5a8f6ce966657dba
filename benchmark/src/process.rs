//! The workload process as the kernel accounts it: CPU time, minor faults
//! and peak resident set, read from `/proc/self` (Linux only; no `libc`
//! crate is available offline, and `/proc` carries the same `getrusage`
//! numbers).

/// `sysconf(_SC_CLK_TCK)`: the unit of `utime`/`stime` in `/proc/self/stat`.
/// It is 100 on every Linux ABI the kernel exports to user space.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// A snapshot of the process's resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_cpu_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_cpu_s: f64,
    /// Minor page faults (first touches served without I/O).
    pub minor_faults: u64,
}

impl Usage {
    /// The usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_cpu_s: self.user_cpu_s - earlier.user_cpu_s,
            sys_cpu_s: self.sys_cpu_s - earlier.sys_cpu_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }

    /// Kernel share of the CPU time (0 when no CPU time was spent).
    pub fn sys_share(&self) -> f64 {
        let total = self.user_cpu_s + self.sys_cpu_s;
        if total > 0.0 {
            self.sys_cpu_s / total
        } else {
            0.0
        }
    }
}

/// Parses the fields of `/proc/<pid>/stat` that follow the parenthesised
/// command name (which may itself contain spaces and parentheses).
fn parse_stat(stat: &str) -> Option<Usage> {
    let after = stat.get(stat.rfind(')')? + 1..)?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state(0) ppid pgrp session tty tpgid flags minflt(7)
    // cminflt majflt cmajflt utime(11) stime(12).
    Some(Usage {
        minor_faults: fields.get(7)?.parse().ok()?,
        user_cpu_s: fields.get(11)?.parse::<f64>().ok()? / CLOCK_TICKS_PER_SEC,
        sys_cpu_s: fields.get(12)?.parse::<f64>().ok()? / CLOCK_TICKS_PER_SEC,
    })
}

/// Parses `VmHWM:   123456 kB` out of `/proc/<pid>/status`, in MiB.
fn parse_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The process's usage so far.
///
/// # Errors
///
/// `/proc/self/stat` is missing or malformed (not Linux).
pub fn usage() -> Result<Usage, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_stat(&stat).ok_or_else(|| "malformed /proc/self/stat".to_owned())
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// `/proc/self/status` is missing or has no `VmHWM` line (not Linux).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_hwm_mib(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 777 8 9 10 250 50 0 0 20 0 1 0 1 2 3";
        let u = parse_stat(stat).unwrap();
        assert_eq!(u.minor_faults, 777);
        assert!((u.user_cpu_s - 2.5).abs() < 1e-12);
        assert!((u.sys_cpu_s - 0.5).abs() < 1e-12);
        assert!((u.sys_share() - 1.0 / 6.0).abs() < 1e-12);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn parses_hwm_and_diffs_usage() {
        assert_eq!(parse_hwm_mib("Name:\tx\nVmHWM:\t  2048 kB\n"), Some(2.0));
        assert_eq!(parse_hwm_mib("Name:\tx\n"), None);
        let a = Usage {
            user_cpu_s: 1.0,
            sys_cpu_s: 0.5,
            minor_faults: 10,
        };
        let b = Usage {
            user_cpu_s: 3.0,
            sys_cpu_s: 0.75,
            minor_faults: 25,
        };
        let d = b.since(&a);
        assert_eq!((d.user_cpu_s, d.sys_cpu_s, d.minor_faults), (2.0, 0.25, 15));
        assert_eq!(Usage::default().sys_share(), 0.0);
    }

    #[test]
    fn live_process_reports_something() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        usage().unwrap();
    }
}
