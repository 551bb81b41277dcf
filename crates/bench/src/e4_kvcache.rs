//! E4 — "the key-value cache of LLMs and its connection to buffering to
//! reduce inference time and cost" (Papotti, §4.7).
//!
//! Database eviction policies replayed over an LLM serving trace and a
//! classic database trace at several cache sizes. Expectations: (a) policy
//! choice moves hit rate materially on both traces — buffering knowledge
//! transfers; (b) scan-resistant policies (LRU-2, 2Q) beat LRU on the
//! scan-polluted database mix; (c) Belady bounds everything.

use backbone_kvcache::{
    evaluate_policies_observed, generate_db_scan_trace, generate_llm_trace, CostModel,
    LlmTraceConfig,
};
use backbone_storage::Metrics;

/// Evaluate both traces at the given capacities.
pub fn run(
    capacities: &[usize],
    seed: u64,
) -> Vec<(String, usize, Vec<backbone_kvcache::PolicyResult>)> {
    run_observed(capacities, seed, &Metrics::new())
}

/// Evaluate both traces at the given capacities, with every cache run
/// mirroring its counters into `metrics` under
/// `e4.{llm|db}.c{capacity}.{policy}.*` — the reported hit/miss rates are
/// read back from that shared registry, not recomputed by the harness.
pub fn run_observed(
    capacities: &[usize],
    seed: u64,
    metrics: &Metrics,
) -> Vec<(String, usize, Vec<backbone_kvcache::PolicyResult>)> {
    let llm = generate_llm_trace(&LlmTraceConfig {
        sessions: 48,
        turns_per_session: 8,
        shared_prefix_blocks: 24,
        templates: 6,
        blocks_per_turn: 4,
        skew: 0.7,
        seed,
    });
    let db = generate_db_scan_trace(400, 20, 12, 200, seed + 1);
    let mut out = Vec::new();
    for (tag, trace) in [("llm", &llm), ("db", &db)] {
        for &cap in capacities {
            let scope = format!("e4.{tag}.c{cap}");
            out.push((
                trace.label.clone(),
                cap,
                evaluate_policies_observed(trace, cap, CostModel::default(), metrics, &scope),
            ));
        }
    }
    out
}

/// Print the experiment's tables. Hit/miss numbers come from the shared
/// [`Metrics`] registry the cache runs mirror into — engine truth, not
/// harness arithmetic.
pub fn report(capacities: &[usize], seed: u64) -> String {
    let metrics = Metrics::new();
    let results = run_observed(capacities, seed, &metrics);
    let mut out = String::new();
    out.push_str("E4: DB buffer-replacement policies on LLM KV-cache traces\n");
    out.push_str("claim: LLM KV caching is a database buffering problem\n");
    out.push_str(
        "(hit/miss rates read from the shared metrics registry: e4.<trace>.c<cap>.<policy>.*)\n\n",
    );
    let mut last_label = String::new();
    for (label, cap, policies) in &results {
        if *label != last_label {
            out.push_str(&format!("trace: {label}\n"));
            last_label = label.clone();
        }
        out.push_str(&format!("  capacity {cap}:\n"));
        out.push_str(&format!(
            "    {:>8} {:>9} {:>12} {:>12}\n",
            "policy", "hit-rate", "cost", "vs-optimal"
        ));
        for p in policies {
            out.push_str(&format!(
                "    {:>8} {:>8.1}% {:>12.0} {:>11.2}x\n",
                p.policy,
                p.hit_rate * 100.0,
                p.cost,
                p.cost_vs_optimal.unwrap_or(f64::NAN)
            ));
        }
    }
    out
}

/// Extension: prefix-aware pinning on top of generic policies — the
/// "smarter admission" headroom toward the Belady bound.
pub fn pinning_report(capacities: &[usize], seed: u64) -> String {
    use backbone_kvcache::pinning::{hottest_keys, PinnedPolicy};
    use backbone_kvcache::CostModel;
    use backbone_storage::cache::CacheSim;
    use backbone_storage::eviction::PolicyKind;

    let trace = generate_llm_trace(&LlmTraceConfig {
        sessions: 48,
        turns_per_session: 8,
        shared_prefix_blocks: 24,
        templates: 6,
        blocks_per_turn: 4,
        skew: 0.7,
        seed,
    });
    let cost = CostModel::default();
    let mut out = String::new();
    out.push_str("E4 extension: prefix-aware pinning (domain knowledge + generic policy)\n\n");
    out.push_str(&format!(
        "{:>10} {:>10} {:>14} {:>10} {:>14}\n",
        "capacity", "LRU", "LRU+pin", "2Q", "2Q+pin"
    ));
    for &cap in capacities {
        let pin = hottest_keys(&trace.accesses, cap / 2);
        let run = |policy: Box<dyn backbone_storage::eviction::Policy>| {
            let mut sim = CacheSim::new(cap, policy);
            let s = sim.run(&trace.accesses);
            s.hit_rate() * 100.0
        };
        let lru = run(PolicyKind::Lru.build(cap, None));
        let lru_pin = run(Box::new(PinnedPolicy::of_kind(
            PolicyKind::Lru,
            pin.clone(),
            cap,
        )));
        let twoq = run(PolicyKind::TwoQ.build(cap, None));
        let twoq_pin = run(Box::new(PinnedPolicy::of_kind(PolicyKind::TwoQ, pin, cap)));
        out.push_str(&format!(
            "{:>10} {:>9.1}% {:>13.1}% {:>9.1}% {:>13.1}%\n",
            cap, lru, lru_pin, twoq, twoq_pin
        ));
        let _ = cost;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_all_cells() {
        let results = run(&[64, 128], 7);
        assert_eq!(results.len(), 4); // 2 traces x 2 capacities
        for (_, _, policies) in &results {
            assert_eq!(policies.len(), 8); // 7 online + Belady
            let belady = policies.iter().find(|p| p.policy == "BELADY").unwrap();
            for p in policies.iter() {
                assert!(p.cost >= belady.cost - 1e-9);
            }
        }
    }

    #[test]
    fn report_numbers_come_from_registry() {
        let metrics = Metrics::new();
        let results = run_observed(&[64], 7, &metrics);
        // Every reported hit rate must reproduce exactly from the registry.
        for (label, cap, policies) in &results {
            let tag = if label.starts_with("llm") {
                "llm"
            } else {
                "db"
            };
            for p in policies {
                let prefix = format!("e4.{tag}.c{cap}.{}", p.policy.to_lowercase());
                let lookups = metrics.value(&format!("{prefix}.lookups"));
                let hits = metrics.value(&format!("{prefix}.hits"));
                let misses = metrics.value(&format!("{prefix}.misses"));
                assert_eq!(hits + misses, lookups, "{prefix}");
                assert!((p.hit_rate - hits as f64 / lookups as f64).abs() < 1e-12);
            }
        }
    }
}
