//! The bench ledger shared by `repro bench`, `repro ann` and `repro serve`.
//!
//! Each suite measures a list of typed [`Rung`]s (timing them with
//! [`measure`]), writes them as a `BENCH_*.json` with [`to_json`], and
//! declares its verdicts as a table of [`Gate`]s. [`report`] evaluates the
//! table; `repro` exits non-zero when any gate fails or finds a rung
//! missing, so CI gates on the exit code alone.

use crate::time;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Name as it appears in the JSON and in gate tables.
    pub name: &'static str,
    /// The measurement, in `unit`.
    pub value: f64,
    /// `ms`, `x` (a ratio), `frac`, `pct`, `ops/s`, `count` or `bytes`.
    pub unit: &'static str,
    /// Observations behind the value (result rows, queries, samples); 1
    /// for a plain count.
    pub n: usize,
}

impl Rung {
    /// A rung in any unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Rung {
        Rung {
            name,
            value,
            unit,
            n,
        }
    }

    /// A wall-clock time in milliseconds over `n` observations.
    pub fn ms(name: &'static str, ms: f64, n: usize) -> Rung {
        Rung::new(name, ms, "ms", n)
    }

    /// A plain count.
    pub fn count(name: &'static str, count: usize) -> Rung {
        Rung::new(name, count as f64, "count", 1)
    }

    /// The `cores` rung: how many cores this run had, which decides whether
    /// a gate with `min_cores` applies.
    pub fn cores() -> Rung {
        Rung::count(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
    }
}

const RUNS: usize = 5;
const WARMUPS: usize = 3;

/// Best-of-5 wall-clock milliseconds for `f`, after 3 untimed warm-ups (so
/// caches and the worker pool's allocator arenas reach steady state). The
/// minimum is the noise-robust estimator on a shared box: interference only
/// ever adds time. Returns the last run's result with the time.
pub fn measure<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    for _ in 0..WARMUPS {
        let _ = f();
    }
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..RUNS {
        let (r, s) = time(&mut f);
        best = best.min(s * 1000.0);
        last = Some(r);
    }
    (last.expect("RUNS > 0"), best)
}

/// `v` rounded to three decimals; its `Display` then prints at most three.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Render rungs as a stable, pretty-printed JSON object, values rounded to
/// three decimals.
pub fn to_json(rungs: &[Rung], quick: bool) -> String {
    let mut s = format!("{{\n  \"quick\": {quick}");
    for r in rungs {
        s.push_str(&format!(
            ",\n  \"{}\": {{ \"value\": {}, \"unit\": \"{}\", \"n\": {} }}",
            r.name,
            round3(r.value),
            r.unit,
            r.n
        ));
    }
    s.push_str("\n}");
    s
}

/// What a gate reads: one rung's value, or the ratio of two.
#[derive(Debug, Clone, Copy)]
pub enum Over {
    /// The named rung's value.
    Rung(&'static str),
    /// Numerator rung's value over denominator rung's value.
    Ratio(&'static str, &'static str),
}

/// The bound a gate holds its metric to (both inclusive).
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Passes when the value is at least this.
    Floor(f64),
    /// Passes when the value is at most this.
    Ceiling(f64),
}

/// One row of a gate table: the value read `over` the rungs must pass
/// `check` whenever the run had at least `min_cores` cores.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// What the verdict line names.
    pub label: &'static str,
    /// The rung or ratio judged.
    pub over: Over,
    /// The bound it must meet.
    pub check: Check,
    /// Fewer cores than this (per the `cores` rung) skips the gate.
    pub min_cores: usize,
}

/// The outcome of one [`Gate`]; `Fail` and `Missing` fail the run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The metric passed; carries its value.
    Ok(f64),
    /// The metric missed its bound; carries its value.
    Fail(f64),
    /// The run had fewer cores than the gate needs.
    Skip { cores: usize },
    /// The named rung is absent (or, as a ratio's denominator, not positive).
    Missing(&'static str),
}

impl Gate {
    /// A gate passing when `over` is at least `x`.
    pub const fn floor(label: &'static str, over: Over, x: f64) -> Gate {
        Gate {
            label,
            over,
            check: Check::Floor(x),
            min_cores: 0,
        }
    }

    /// A gate passing when `over` is at most `x`.
    pub const fn ceiling(label: &'static str, over: Over, x: f64) -> Gate {
        Gate {
            label,
            over,
            check: Check::Ceiling(x),
            min_cores: 0,
        }
    }

    /// Skip this gate on runs with fewer than `cores` cores.
    pub const fn min_cores(self, cores: usize) -> Gate {
        Gate {
            min_cores: cores,
            ..self
        }
    }

    /// Judge `rungs` against this gate. The core count comes from the
    /// `cores` rung (1 when absent) and is checked before anything else.
    pub fn evaluate(&self, rungs: &[Rung]) -> Verdict {
        let get = |name: &'static str| {
            rungs
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.value)
                .ok_or(Verdict::Missing(name))
        };
        let cores = get("cores").map_or(1, |c| c as usize);
        if cores < self.min_cores {
            return Verdict::Skip { cores };
        }
        let value = match self.over {
            Over::Rung(name) => get(name),
            Over::Ratio(num, den) => get(num).and_then(|n| match get(den) {
                Ok(d) if d > 0.0 => Ok(n / d),
                _ => Err(Verdict::Missing(den)),
            }),
        };
        match value {
            Err(missing) => missing,
            Ok(v) => match self.check {
                Check::Floor(x) if v >= x => Verdict::Ok(v),
                Check::Ceiling(x) if v <= x => Verdict::Ok(v),
                _ => Verdict::Fail(v),
            },
        }
    }
}

/// The rung listing plus one `PERF_OK`/`PERF_FAIL`/`PERF_SKIP`/
/// `PERF_MISSING` line per gate, and whether the run passed.
pub fn report(title: &str, rungs: &[Rung], gates: &[Gate]) -> (String, bool) {
    let mut out = format!("{title}:\n");
    for r in rungs {
        out.push_str(&format!(
            "  {:<24} {:>12} {:<5} n={}\n",
            r.name,
            round3(r.value),
            r.unit,
            r.n
        ));
    }
    let mut passed = true;
    for g in gates {
        let v = g.evaluate(rungs);
        passed &= matches!(v, Verdict::Ok(_) | Verdict::Skip { .. });
        let over = match g.over {
            Over::Rung(name) => name.to_string(),
            Over::Ratio(num, den) => format!("{num} / {den}"),
        };
        let bound = match g.check {
            Check::Floor(x) => format!("floor {x}"),
            Check::Ceiling(x) => format!("ceiling {x}"),
        };
        out.push_str(&match v {
            Verdict::Ok(x) => format!("PERF_OK {} = {x:.3} ({bound}; {over})\n", g.label),
            Verdict::Fail(x) => format!("PERF_FAIL {} = {x:.3} ({bound}; {over})\n", g.label),
            Verdict::Skip { cores } => format!(
                "PERF_SKIP {} needs >={} cores (this run had {cores})\n",
                g.label, g.min_cores
            ),
            Verdict::Missing(name) => format!("PERF_MISSING {}: no usable `{name}`\n", g.label),
        });
    }
    (out, passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_the_result_and_a_time() {
        let mut calls = 0;
        let (v, ms) = measure(|| {
            calls += 1;
            calls
        });
        assert_eq!(v, RUNS + WARMUPS);
        assert!(ms >= 0.0);
    }

    #[test]
    fn json_rounds_values_and_keeps_units() {
        let json = to_json(
            &[Rung::ms("a_ms", 1.23456, 3), Rung::count("cores", 2)],
            true,
        );
        assert_eq!(
            json,
            "{\n  \"quick\": true,\n  \"a_ms\": { \"value\": 1.235, \"unit\": \"ms\", \"n\": 3 },\n  \
             \"cores\": { \"value\": 2, \"unit\": \"count\", \"n\": 1 }\n}"
        );
    }

    #[test]
    fn a_missing_rung_is_missing_and_fails_the_run() {
        let gate = Gate::floor("speedup", Over::Ratio("slow_ms", "fast_ms"), 2.0);
        let only_slow = [Rung::ms("slow_ms", 10.0, 1)];
        assert_eq!(gate.evaluate(&only_slow), Verdict::Missing("fast_ms"));
        // A zero denominator is as unusable as an absent one.
        let zero = [Rung::ms("slow_ms", 10.0, 1), Rung::ms("fast_ms", 0.0, 1)];
        assert_eq!(gate.evaluate(&zero), Verdict::Missing("fast_ms"));
        let (text, ok) = report("t", &only_slow, &[gate]);
        assert!(!ok);
        assert!(text.contains("PERF_MISSING speedup"), "{text}");
    }

    #[test]
    fn skips_pass_and_bounds_are_inclusive() {
        let gate = Gate::floor("scaling", Over::Rung("x"), 2.5).min_cores(4);
        let rungs =
            |cores: usize, x: f64| vec![Rung::count("cores", cores), Rung::new("x", x, "x", 1)];
        assert_eq!(gate.evaluate(&rungs(2, 1.0)), Verdict::Skip { cores: 2 });
        assert!(report("t", &rungs(2, 1.0), &[gate]).1, "a skip passes");
        assert_eq!(gate.evaluate(&rungs(4, 2.5)), Verdict::Ok(2.5));
        let ceiling = Gate::ceiling("overhead", Over::Rung("x"), 1.1);
        assert_eq!(ceiling.evaluate(&rungs(1, 1.1)), Verdict::Ok(1.1));
        assert_eq!(ceiling.evaluate(&rungs(1, 1.2)), Verdict::Fail(1.2));
        // A failing gate fails the run, which is what `repro` exits 1 on.
        assert!(!report("t", &rungs(1, 1.2), &[ceiling]).1);
    }
}
