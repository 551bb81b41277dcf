//! `repro` — regenerate every experiment table from EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! repro [e1|e2|e3|e4|e5|e6|e7|e8|e9|ann|bench|serve|all] [--quick]
//! ```
//!
//! `--quick` shrinks workload sizes for smoke runs (used by CI/tests);
//! the default sizes match the numbers recorded in EXPERIMENTS.md.
//! `ann`, `bench` and `serve` exit with status 1 when any of their gates
//! fails or finds a rung missing. `--help` prints the usage; any other
//! flag, a second experiment or an unknown one prints it to stderr and
//! exits with status 2 before anything runs.

use backbone_bench as bench;
use bench::ledger::{self, Gate, Rung};

const EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "ann", "bench", "serve", "all",
];

fn usage() -> String {
    format!("usage: repro [{}] [--quick]", EXPERIMENTS.join("|"))
}

/// Exit with status 2 after printing `problem` and the usage to stderr.
fn usage_error(problem: &str) -> ! {
    eprintln!("repro: {problem}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let mut quick = false;
    let mut which = None;
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            id if !EXPERIMENTS.contains(&id) => usage_error(&format!("unknown experiment '{id}'")),
            id if which.is_some() => usage_error(&format!("unexpected argument '{id}'")),
            id => which = Some(id),
        }
    }
    let which = which.unwrap_or("all");

    let run = |id: &str| which == "all" || which == id;

    if run("e1") {
        let sfs: &[f64] = if quick {
            &[0.001, 0.002]
        } else {
            &[0.01, 0.02, 0.05]
        };
        println!("{}", bench::e1_tpch::report(sfs, 4, 42));
    }
    if run("e2") {
        let (sf, sizes): (f64, &[usize]) = if quick {
            (0.002, &[10, 50])
        } else {
            (0.01, &[10, 100, 1000])
        };
        println!("{}", bench::e2_orm::report(sf, sizes, 42));
    }
    if run("e3") {
        let (products, queries) = if quick { (2000, 10) } else { (20_000, 50) };
        println!("{}", bench::e3_hybrid::report(products, queries, 10, 42));
    }
    if run("e4") {
        let caps: &[usize] = if quick {
            &[64, 128]
        } else {
            &[32, 64, 128, 256]
        };
        println!("{}", bench::e4_kvcache::report(caps, 42));
        println!("{}", bench::e4_kvcache::pinning_report(&caps[1..], 42));
    }
    if run("e5") {
        let (threads, txns): (&[usize], usize) = if quick {
            (&[2, 4], 200)
        } else {
            (&[1, 2, 4, 8], 2000)
        };
        println!("{}", bench::e5_txn::report(threads, txns, 42));
    }
    if run("e6") {
        let sf = if quick { 0.002 } else { 0.01 };
        println!("{}", bench::e6_optimizer::report(sf, 42));
    }
    if run("e7") {
        println!(
            "{}",
            bench::e7_disciplines::report(if quick { 25 } else { 250 }, 42)
        );
    }
    if run("e8") {
        let sf = if quick { 0.002 } else { 0.02 };
        println!("{}", bench::e8_usability::report(sf, 42));
    }

    if run("e9") {
        let n = if quick { 2000 } else { 20_000 };
        println!("{}", bench::e9_ann::report(n, 42));
    }

    // The gated suites: each writes its rungs as JSON and exits non-zero
    // when a gate fails or finds a rung missing.
    type Suite = (
        &'static str,
        &'static str,
        fn(bool) -> Vec<Rung>,
        &'static [Gate],
    );
    let suites: [Suite; 3] = [
        ("ann", "ann", bench::ann_bench::run, bench::ann_bench::GATES),
        (
            "bench",
            "exec",
            bench::exec_bench::run,
            bench::exec_bench::GATES,
        ),
        (
            "serve",
            "serve",
            bench::serve_bench::run,
            bench::serve_bench::GATES,
        ),
    ];
    if let Some((_, stem, run_suite, gates)) = suites.into_iter().find(|s| s.0 == which) {
        let rungs = run_suite(quick);
        // Quick smoke runs must not clobber the committed full-size baseline.
        let path = if quick {
            format!("target/BENCH_{stem}.quick.json")
        } else {
            format!("BENCH_{stem}.json")
        };
        let json = ledger::to_json(&rungs, quick);
        std::fs::write(&path, format!("{json}\n")).expect("write bench JSON");
        let (text, passed) = ledger::report(&format!("{stem} baseline"), &rungs, gates);
        print!("{text}");
        println!("wrote {path}");
        if !passed {
            std::process::exit(1);
        }
    }
}
