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
//! fails or finds a rung missing.

use backbone_bench as bench;
use bench::ledger::{self, Gate, Rung};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("all");

    let run = |id: &str| which == "all" || which == id;
    let mut ran = false;

    if run("e1") {
        ran = true;
        let sfs: &[f64] = if quick {
            &[0.001, 0.002]
        } else {
            &[0.01, 0.02, 0.05]
        };
        println!("{}", bench::e1_tpch::report(sfs, 4, 42));
    }
    if run("e2") {
        ran = true;
        let (sf, sizes): (f64, &[usize]) = if quick {
            (0.002, &[10, 50])
        } else {
            (0.01, &[10, 100, 1000])
        };
        println!("{}", bench::e2_orm::report(sf, sizes, 42));
    }
    if run("e3") {
        ran = true;
        let (products, queries) = if quick { (2000, 10) } else { (20_000, 50) };
        println!("{}", bench::e3_hybrid::report(products, queries, 10, 42));
    }
    if run("e4") {
        ran = true;
        let caps: &[usize] = if quick {
            &[64, 128]
        } else {
            &[32, 64, 128, 256]
        };
        println!("{}", bench::e4_kvcache::report(caps, 42));
        println!("{}", bench::e4_kvcache::pinning_report(&caps[1..], 42));
    }
    if run("e5") {
        ran = true;
        let (threads, txns): (&[usize], usize) = if quick {
            (&[2, 4], 200)
        } else {
            (&[1, 2, 4, 8], 2000)
        };
        println!("{}", bench::e5_txn::report(threads, txns, 42));
    }
    if run("e6") {
        ran = true;
        let sf = if quick { 0.002 } else { 0.01 };
        println!("{}", bench::e6_optimizer::report(sf, 42));
    }
    if run("e7") {
        ran = true;
        println!(
            "{}",
            bench::e7_disciplines::report(if quick { 25 } else { 250 }, 42)
        );
    }
    if run("e8") {
        ran = true;
        let sf = if quick { 0.002 } else { 0.02 };
        println!("{}", bench::e8_usability::report(sf, 42));
    }

    if run("e9") {
        ran = true;
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
        ran = true;
    }

    if !ran {
        eprintln!("unknown experiment '{which}'; expected e1..e9, ann, bench, serve, or all");
        std::process::exit(2);
    }
}
