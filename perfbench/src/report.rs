//! What one run reports: op and failure counts, metrics with units, and
//! the run's metadata, printed as JSON lines.

use std::fmt::Write as _;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured window, every op kind.
    pub attempted: u64,
    /// Ops that failed, were rejected, or returned a wrong answer, plus
    /// failed post-run output checks.
    pub failed: u64,
    /// Connections or requests turned away by admission control (also
    /// counted in `failed`).
    pub rejected: u64,
    /// The first few failure messages, for stderr.
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64, String)>,
    /// Metadata as (key, JSON value) pairs.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    pub fn meta_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), json_string(value)));
    }

    /// Record the `p` tail percentile of `samples` as metadata, or why it
    /// cannot be reported.
    pub fn meta_tail(&mut self, key: &str, samples: &[f64], p: f64) {
        match crate::stats::tail(samples, p) {
            Ok(v) => self.meta_num(key, v),
            Err(e) => self.meta_str(key, &e),
        }
    }

    /// Count one failed op or failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Count one op turned away by admission control: a failure too.
    pub fn reject(&mut self, msg: impl Into<String>) {
        self.rejected += 1;
        self.fail(msg);
    }

    /// Failed or rejected ops over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The metadata line: `{"meta": {...}}`.
    pub fn meta_line(&self) -> String {
        let mut s = String::from("{\"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", json_string(k));
        }
        s.push_str("}}");
        s
    }

    /// The result line, the last of the run: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used, all threads counted, in seconds. On a
/// VM the kernel leaves time stolen by the hypervisor out of it, so work per
/// CPU-second does not move with a neighbour's load the way work per
/// wall-clock second does.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, checked below) for the whole call, and the clock id
    // is a valid constant, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock through the 64-bit Linux ABI");

/// Jiffies the machine's CPUs were stolen by the hypervisor, and all their
/// jiffies, from the first line of `/proc/stat`; (0, 0) where it cannot be
/// read.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // cpu  user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    if fields.len() < 8 {
        return (0, 0);
    }
    (fields[7], fields.iter().sum())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, when it is a git repository.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_and_rejections_feed_failed_frac() {
        let mut o = Outcome {
            attempted: 20,
            ..Outcome::default()
        };
        assert!(o.correct());
        o.fail("wrong answer");
        o.reject("overloaded");
        assert_eq!((o.failed, o.rejected), (2, 1));
        assert_eq!(o.failed_frac(), 0.1);
        assert!(!o.correct());
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn cpu_seconds_count_work() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = cpu_seconds() - t0;
        assert!(used > 0.05 && used < 1.0, "{used}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
