//! perfbench: the serving benchmark of the backbone workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|read_mix|hybrid --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives load through a real front door: the TCP
//! `Server`/`Client` for SQL reads and inserts, `Session::search` for hybrid
//! search. With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it runs the same seeded input twice, untraced and then
//! traced, and reports the per-layer breakdown (see `trace.rs`). Every run
//! checks the engine's answers and counts each wrong one as a failure.
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it carries the run's metadata.
//! Scratch files live under `.bench_data/` in the working directory.

mod hybrid;
mod ingest;
mod read_mix;
mod replay;
mod report;
mod rng;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Samples every timed op kind needs in one window, so that its p99 has
/// [`stats::MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Client threads (and wire connections) a workload runs at most: the
/// core count of the machine the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The clocks of one measured pass, started together.
pub struct Clocks {
    start: Instant,
    cpu_start: f64,
    steal_start: (u64, u64),
}

impl Clocks {
    pub fn start() -> Clocks {
        Clocks {
            start: Instant::now(),
            cpu_start: report::cpu_seconds(),
            steal_start: report::steal_jiffies(),
        }
    }

    /// Time zero of the pass.
    pub fn origin(&self) -> Instant {
        self.start
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// CPU seconds the whole process used since the pass started.
    pub fn cpu_s(&self) -> f64 {
        report::cpu_seconds() - self.cpu_start
    }

    /// Share of the machine's CPU time the hypervisor stole since the pass
    /// started; 0 where the kernel does not report it.
    pub fn steal_share(&self) -> f64 {
        let (steal, total) = report::steal_jiffies();
        let total = total.saturating_sub(self.steal_start.1);
        if total == 0 {
            return 0.0;
        }
        steal.saturating_sub(self.steal_start.0) as f64 / total as f64
    }
}

/// A timed window: at least `seconds` long, and extended (up to three
/// times that) until every timed op kind has [`MIN_SAMPLES`] samples.
pub struct Window {
    clocks: Clocks,
    seconds: f64,
    counts: Vec<AtomicUsize>,
}

impl Window {
    pub fn new(seconds: f64, op_kinds: usize) -> Window {
        Window {
            clocks: Clocks::start(),
            seconds,
            counts: (0..op_kinds).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    pub fn clocks(&self) -> &Clocks {
        &self.clocks
    }

    /// Count one completed op of kind `kind`.
    pub fn record(&self, kind: usize) {
        self.counts[kind].fetch_add(1, Ordering::Relaxed);
    }

    pub fn done(&self) -> bool {
        let t = self.clocks.elapsed_s();
        let enough = self
            .counts
            .iter()
            .all(|c| c.load(Ordering::Relaxed) >= MIN_SAMPLES);
        t >= 3.0 * self.seconds || (t >= self.seconds && enough)
    }
}

/// How long set-up took: medians over the repeated set-ups of one run.
pub struct SetupTime {
    /// CPU seconds of one set-up, all threads: the work set-up does. Wall
    /// time on a shared VM moves with hypervisor steal and the shared
    /// disk's fsync latency, so this is the figure that is compared.
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Run `setup` `n` times and keep the last result; returns it with the
/// median set-up time. Earlier results are dropped before the next set-up
/// starts, so only one is alive at a time.
pub fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let (mut cpu, mut wall) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (c0, t0) = (report::cpu_seconds(), Instant::now());
        last = Some(setup()?);
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push(report::cpu_seconds() - c0);
    }
    let time = SetupTime {
        cpu_s: stats::median(&cpu),
        wall_s: stats::median(&wall),
    };
    Ok((last.expect("at least one set-up ran"), time))
}

/// A fresh scratch directory for this process under `.bench_data/`.
pub fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_data").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The (name, unit) of every metric the benchmark declaration at `path`
/// lists under `section`; empty when it cannot be read.
fn declared(path: &str, section: &str) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = backbone_server::json::parse(&text) else {
        return Vec::new();
    };
    doc.get(section)
        .and_then(|a| a.as_arr())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(".bench_data").join(format!("trace-{workload}.jsonl"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let result = match args.workload.as_str() {
        "ingest" => ingest::run(&args),
        "read_mix" => read_mix::run(&args),
        "hybrid" => hybrid::run(&args),
        other => Err(format!(
            "unknown workload {other} (ingest, read_mix, hybrid)"
        )),
    };
    let mut out: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        // Every traced run reports every declared per-layer metric; a layer
        // this workload does not exercise reads 0.
        for (name, unit) in declared("BENCHMARK.json", "per_layer") {
            if !out.metrics.iter().any(|m| m.0 == name) {
                out.metric(name, 0.0, unit);
            }
        }
    }
    out.meta_str("workload", &args.workload);
    out.meta_num("seed", args.seed);
    out.meta_num("seconds", args.seconds);
    out.meta_num("trace", u8::from(args.trace));
    out.meta_num("nproc", report::nproc());
    out.meta_num("clients", CLIENTS);
    out.meta_str("git_rev", &report::git_rev());
    out.meta_num("failed_frac", out.failed_frac());
    out.meta_num("rejected", out.rejected);
    out.meta_num("run_s", t0.elapsed().as_secs_f64());
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("perfbench: {name:<40} {value:>14.4} {unit}");
    }
    println!("{}", out.meta_line());
    println!("{}", out.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject_bad_input() {
        let a = parse_args(
            [
                "--workload",
                "ingest",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ingest", 7, 3.0, true)
        );
        assert!(parse_args(["--trace", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--seed"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }

    #[test]
    fn reads_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let e2e = declared(path, "end_to_end");
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        assert!(declared(path, "per_layer").len() > e2e.len());
        assert!(declared("no/such/file.json", "per_layer").is_empty());
    }
}
