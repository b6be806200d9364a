//! CPU time and peak resident memory of this process and its child
//! daemons, read from `/proc/<pid>/stat` and `/proc/<pid>/status`.

use std::io;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// Which process to read: this one or a child by pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proc {
    /// The benchmark process itself.
    SelfProc,
    /// A child process.
    Pid(u32),
}

impl Proc {
    fn path(self, file: &str) -> String {
        match self {
            Proc::SelfProc => format!("/proc/self/{file}"),
            Proc::Pid(p) => format!("/proc/{p}/{file}"),
        }
    }

    /// User plus system CPU seconds over every thread the process has
    /// run, exited threads included.
    pub fn cpu_seconds(self) -> io::Result<f64> {
        parse_cpu_seconds(&std::fs::read_to_string(self.path("stat"))?)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(self) -> io::Result<f64> {
        parse_peak_rss_mib(&std::fs::read_to_string(self.path("status"))?)
    }

    /// Restarts the peak-RSS count at the current RSS (`clear_refs` 5).
    pub fn reset_peak_rss(self) -> io::Result<()> {
        std::fs::write(self.path("clear_refs"), "5")
    }
}

/// Summed CPU seconds of `procs`.
pub fn cpu_seconds(procs: &[Proc]) -> Result<f64, String> {
    procs.iter().try_fold(0.0, |sum, p| {
        Ok(sum + p.cpu_seconds().map_err(|e| e.to_string())?)
    })
}

/// The largest peak RSS among `procs`, MiB.
pub fn peak_rss_mib(procs: &[Proc]) -> Result<f64, String> {
    procs.iter().try_fold(0.0f64, |max, p| {
        Ok(max.max(p.peak_rss_mib().map_err(|e| e.to_string())?))
    })
}

/// Restarts the peak-RSS count of every process in `procs`.
pub fn reset_peak_rss(procs: &[Proc]) -> Result<(), String> {
    procs
        .iter()
        .try_for_each(|p| p.reset_peak_rss().map_err(|e| e.to_string()))
}

/// CPU seconds the calling thread has run, at nanosecond resolution
/// (first field of `/proc/thread-self/schedstat`).
pub fn thread_cpu_seconds() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("schedstat: no run time"))?;
    Ok(ns as f64 / 1e9)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `utime + stime` from a `/proc/<pid>/stat` line, in seconds. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> io::Result<f64> {
    let rest = &stat[stat.rfind(')').ok_or_else(|| bad("stat: no comm field"))? + 1..];
    // After the comm field: state is field 3, utime field 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("stat: missing utime/stime"))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` from `/proc/<pid>/status`, in MiB.
pub fn parse_peak_rss_mib(status: &str) -> io::Result<f64> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| bad("status: no VmHWM"))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("status: bad VmHWM"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let stat = "4242 (csd (serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 37 0 0 20 0 5 0 1000 123456 789";
        assert_eq!(parse_cpu_seconds(stat).unwrap(), 2.87);
        assert!(parse_cpu_seconds("no parens").is_err());
    }

    #[test]
    fn vmhwm_in_mib() {
        let status =
            "Name:\tcsd-serve\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status).unwrap(), 2.0);
        assert!(parse_peak_rss_mib("Name: x\n").is_err());
    }

    #[test]
    fn this_process_is_readable() {
        assert!(Proc::SelfProc.cpu_seconds().unwrap() >= 0.0);
        assert!(Proc::SelfProc.peak_rss_mib().unwrap() > 0.0);
        let big = vec![1u8; 64 << 20];
        let before = peak_rss_mib(&[Proc::SelfProc]).unwrap();
        drop(std::hint::black_box(big));
        reset_peak_rss(&[Proc::SelfProc]).unwrap();
        assert!(peak_rss_mib(&[Proc::SelfProc]).unwrap() < before - 32.0);
        let t0 = thread_cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_seconds().unwrap() > t0, "{x}");
    }
}
