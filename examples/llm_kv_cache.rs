//! LLM KV-cache management with database eviction policies.
//!
//! The paper (§4.7) points at "the key-value cache of LLMs and its
//! connection to buffering to reduce inference time and cost". This example
//! simulates a multi-tenant chat serving workload and shows how much
//! inference cost each classic buffer-replacement policy saves.
//!
//! ```sh
//! cargo run --example llm_kv_cache
//! ```

use backbone_lab::{evaluate_policies, generate_llm_trace, CostModel, LlmTraceConfig};

fn main() {
    let config = LlmTraceConfig {
        sessions: 64,
        turns_per_session: 8,
        shared_prefix_blocks: 24,
        templates: 6,
        blocks_per_turn: 4,
        skew: 0.7,
        seed: 42,
    };
    let trace = generate_llm_trace(&config);
    println!(
        "serving trace: {} ({} block accesses, {} distinct blocks)\n",
        trace.label,
        trace.len(),
        trace.unique_blocks
    );

    let cost = CostModel {
        hit_cost: 1.0,   // read a cached KV block
        miss_cost: 10.0, // recompute attention K/V for the block
    };

    for capacity in [64usize, 128, 256] {
        println!("GPU cache capacity: {capacity} blocks");
        println!(
            "  {:>8} {:>9} {:>12} {:>11}",
            "policy", "hit-rate", "cost", "vs-optimal"
        );
        for r in evaluate_policies(&trace, capacity, cost) {
            println!(
                "  {:>8} {:>8.1}% {:>12.0} {:>10.2}x",
                r.policy,
                r.hit_rate * 100.0,
                r.cost,
                r.cost_vs_optimal.unwrap_or(f64::NAN)
            );
        }
        println!();
    }
    println!("reading: the same scan-resistance that made LRU-K/2Q matter for");
    println!("database buffer pools decides LLM serving cost — policy choice is");
    println!("worth tens of percent, and Belady bounds what smarter admission");
    println!("(prefix-aware pinning) could still win.");
}
