//! Replay traces through eviction policies with an inference cost model.

use crate::cache::CacheSim;
use crate::eviction::PolicyKind;
use crate::trace::Trace;
use backbone_storage::Metrics;

/// Cost model for a KV-cache access.
///
/// A hit reads the cached KV block; a miss recomputes the attention
/// keys/values for the block's tokens — an order of magnitude more work,
/// which is why the paper's "inference time and cost" framing is a
/// buffer-management problem.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost units to read a cached block.
    pub hit_cost: f64,
    /// Cost units to recompute a missing block.
    pub miss_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hit_cost: 1.0,
            miss_cost: 10.0,
        }
    }
}

impl CostModel {
    /// Total cost of a run with the given hit/miss counts.
    pub fn total(&self, hits: u64, misses: u64) -> f64 {
        hits as f64 * self.hit_cost + misses as f64 * self.miss_cost
    }
}

/// Result of replaying a trace under one policy.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// Policy name.
    pub policy: &'static str,
    /// Hit rate in [0, 1].
    pub hit_rate: f64,
    /// Total modeled cost.
    pub cost: f64,
    /// Evictions performed.
    pub evictions: u64,
    /// Cost relative to the Belady optimum (1.0 = optimal), when the
    /// optimum was evaluated.
    pub cost_vs_optimal: Option<f64>,
}

/// Replay `trace` at the given cache capacity under every online policy plus
/// the Belady oracle; results are sorted by ascending cost.
pub fn evaluate_policies(trace: &Trace, capacity: usize, cost: CostModel) -> Vec<PolicyResult> {
    // A throwaway registry: callers who want the counters use
    // [`evaluate_policies_observed`] with a registry they keep.
    evaluate_policies_observed(trace, capacity, cost, &Metrics::new(), "kvcache")
}

/// Like [`evaluate_policies`], but every per-policy cache run mirrors its
/// counters into `metrics` under `{scope}.{policy}.{lookups,hits,misses,
/// evictions}` — and the returned hit rates and costs are *read back from
/// those registry counters*, not recomputed by the harness. One registry can
/// span the whole experiment (scope per trace/capacity cell) and the report
/// stays engine-truth.
pub fn evaluate_policies_observed(
    trace: &Trace,
    capacity: usize,
    cost: CostModel,
    metrics: &Metrics,
    scope: &str,
) -> Vec<PolicyResult> {
    let mut results: Vec<PolicyResult> = Vec::new();

    let observed = |name: &'static str, mut sim: CacheSim| {
        let prefix = format!("{scope}.{}", name.to_lowercase());
        sim = sim.with_metrics(metrics, &prefix);
        sim.run(&trace.accesses);
        // Engine truth: read the mirrored counters, not the local stats.
        let read = |c: &str| metrics.value(&format!("{prefix}.{c}"));
        let (lookups, hits, misses) = (read("lookups"), read("hits"), read("misses"));
        debug_assert_eq!(hits + misses, lookups, "cache counter invariant");
        PolicyResult {
            policy: name,
            hit_rate: hits as f64 / lookups.max(1) as f64,
            cost: cost.total(hits, misses),
            evictions: read("evictions"),
            cost_vs_optimal: None,
        }
    };

    // Belady first so every policy can be normalized against it.
    let mut belady = observed(
        "BELADY",
        CacheSim::new(
            capacity,
            PolicyKind::Belady.build(capacity, Some(&trace.accesses)),
        ),
    );
    belady.cost_vs_optimal = Some(1.0);
    let optimal_cost = belady.cost;
    results.push(belady);

    for kind in PolicyKind::online() {
        let mut r = observed(
            kind.name(),
            CacheSim::new(capacity, kind.build(capacity, None)),
        );
        r.cost_vs_optimal = Some(if optimal_cost > 0.0 {
            r.cost / optimal_cost
        } else {
            1.0
        });
        results.push(r);
    }
    results.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    results
}

/// Replay under one specific policy.
pub fn evaluate_one(
    trace: &Trace,
    capacity: usize,
    kind: PolicyKind,
    cost: CostModel,
) -> PolicyResult {
    let future = matches!(kind, PolicyKind::Belady).then_some(trace.accesses.as_slice());
    let mut sim = CacheSim::new(capacity, kind.build(capacity, future));
    let stats = sim.run(&trace.accesses);
    PolicyResult {
        policy: kind.name(),
        hit_rate: stats.hit_rate(),
        cost: cost.total(stats.hits, stats.misses),
        evictions: stats.evictions,
        cost_vs_optimal: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_db_scan_trace, generate_llm_trace, LlmTraceConfig};

    #[test]
    fn belady_is_cheapest() {
        let trace = generate_llm_trace(&LlmTraceConfig {
            sessions: 16,
            ..Default::default()
        });
        let results = evaluate_policies(&trace, 64, CostModel::default());
        let belady = results.iter().find(|r| r.policy == "BELADY").unwrap();
        for r in &results {
            assert!(
                r.cost >= belady.cost - 1e-9,
                "{} beat Belady: {} < {}",
                r.policy,
                r.cost,
                belady.cost
            );
        }
    }

    #[test]
    fn bigger_cache_never_costs_more_under_lru() {
        // LRU has the inclusion property: hit rate is monotone in capacity.
        let trace = generate_llm_trace(&LlmTraceConfig::default());
        let small = evaluate_one(&trace, 32, PolicyKind::Lru, CostModel::default());
        let big = evaluate_one(&trace, 256, PolicyKind::Lru, CostModel::default());
        assert!(big.hit_rate >= small.hit_rate);
        assert!(big.cost <= small.cost);
    }

    #[test]
    fn scan_resistant_policies_win_on_db_trace() {
        // On a scan-polluted trace sized so the hot set fits but scans do
        // not, LRU-2 / 2Q must beat plain LRU.
        let trace = generate_db_scan_trace(200, 10, 20, 100, 3);
        let capacity = 40;
        let lru = evaluate_one(&trace, capacity, PolicyKind::Lru, CostModel::default());
        let lruk = evaluate_one(&trace, capacity, PolicyKind::LruK, CostModel::default());
        let twoq = evaluate_one(&trace, capacity, PolicyKind::TwoQ, CostModel::default());
        assert!(
            lruk.hit_rate > lru.hit_rate,
            "LRU-2 ({:.3}) should beat LRU ({:.3}) on scan pollution",
            lruk.hit_rate,
            lru.hit_rate
        );
        assert!(
            twoq.hit_rate > lru.hit_rate,
            "2Q ({:.3}) should beat LRU ({:.3}) on scan pollution",
            twoq.hit_rate,
            lru.hit_rate
        );
    }

    #[test]
    fn prefix_sharing_pays_off() {
        // One shared template vs all-distinct templates: shared prefixes
        // must produce a higher hit rate at the same capacity.
        let shared = generate_llm_trace(&LlmTraceConfig {
            sessions: 32,
            templates: 1,
            ..Default::default()
        });
        let distinct = generate_llm_trace(&LlmTraceConfig {
            sessions: 32,
            templates: 32,
            skew: 0.0,
            ..Default::default()
        });
        let cap = 64;
        let s = evaluate_one(&shared, cap, PolicyKind::Lru, CostModel::default());
        let d = evaluate_one(&distinct, cap, PolicyKind::Lru, CostModel::default());
        assert!(
            s.hit_rate > d.hit_rate,
            "prefix sharing should raise hit rate: {:.3} vs {:.3}",
            s.hit_rate,
            d.hit_rate
        );
    }

    #[test]
    fn observed_results_match_plain_and_fill_registry() {
        let trace = generate_llm_trace(&LlmTraceConfig {
            sessions: 8,
            ..Default::default()
        });
        let metrics = Metrics::new();
        let plain = evaluate_policies(&trace, 64, CostModel::default());
        let observed =
            evaluate_policies_observed(&trace, 64, CostModel::default(), &metrics, "e4.llm.c64");
        for (p, o) in plain.iter().zip(&observed) {
            assert_eq!(p.policy, o.policy);
            assert!((p.hit_rate - o.hit_rate).abs() < 1e-12);
            assert!((p.cost - o.cost).abs() < 1e-9);
        }
        // And the registry holds the invariant-checked raw counters.
        let lookups = metrics.value("e4.llm.c64.lru.lookups");
        let hits = metrics.value("e4.llm.c64.lru.hits");
        let misses = metrics.value("e4.llm.c64.lru.misses");
        assert_eq!(lookups, trace.accesses.len() as u64);
        assert_eq!(hits + misses, lookups);
    }

    #[test]
    fn cost_model_math() {
        let m = CostModel {
            hit_cost: 1.0,
            miss_cost: 10.0,
        };
        assert_eq!(m.total(10, 5), 60.0);
    }
}
