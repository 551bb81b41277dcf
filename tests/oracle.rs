//! One differential oracle for logical/physical independence: no physical
//! knob may change an answer.
//!
//! - **One generator.** A seeded generator of typed tables (NULL-, NaN- and
//!   duplicate-heavy; long runs; residual ranges that end exactly at the
//!   u8/u16/u32 lane edges; dictionary sizes around the code-space GROUP BY
//!   domain bound) and of random SQL over them: `WHERE` with AND/OR/NOT,
//!   IS [NOT] NULL, BETWEEN, IN (with a NULL item), LIKE and column-vs-column
//!   comparisons; inner and left joins; GROUP BY with COUNT, COUNT(*), SUM,
//!   AVG, MIN and MAX; ORDER BY … LIMIT with ties.
//! - **One reference.** The parsed, unoptimized `LogicalPlan` interpreted
//!   one row at a time over `Value`s. It shares no code with the engine's
//!   evaluator or its physical operators.
//! - **One knob enum.** Each case runs at a seeded sample of the product of
//!   every [`Knob`]'s settings. A new physical knob is one more variant.
//!
//! Every case also checks two metamorphic relations that need no reference
//! (Rigger & Su, OOPSLA 2020 and ESEC/FSE 2020): ternary logic partitioning
//! (`WHERE p`, `WHERE NOT p` and `WHERE p IS NULL` together return the whole
//! input) and NoREC (`COUNT(*) … WHERE p` equals the number of TRUE lanes of
//! the projected `p`).
//!
//! A failure prints the seed, the knob tuple and a greedily shrunk SQL
//! string. To replay a case, add its seed to `SEEDS` in `differential/`,
//! which holds the machinery this target shares with the named slices in
//! `kernel_equivalence.rs`, `optimizer_equivalence.rs` and
//! `eval_model_equivalence.rs`.

mod differential;

use backbone_query::Parallelism;
use differential::*;

// ---- Properties ----------------------------------------------------------------

/// Every knob at a seeded sample of the product, against the reference,
/// with TLP and NoREC on every predicate.
#[test]
fn sampled_knobs_match_reference() {
    run_sampled();
}

/// Morsel-parallel execution at 1, 2 and 8 workers and `Auto`, with the
/// other knobs sampled.
#[test]
fn parallel_workers_match_reference() {
    let workers = [
        Parallelism::Fixed(1),
        Parallelism::Fixed(2),
        Parallelism::Fixed(8),
        Parallelism::Auto,
    ];
    for (i, seed) in SEEDS.into_iter().enumerate() {
        let slice = Slice::all().forcing(&[Knob::Workers(workers[i % workers.len()])]);
        run_case(seed, &slice, (1, 1), true, &mut Coverage::default());
    }
}

/// Budget-capped execution with caches off: a one-byte budget must spill
/// every hash aggregate and hash join that gets input, serially and in
/// parallel, and a moderate one must stay correct.
#[test]
fn budget_capped_execution_spills_and_matches_reference() {
    let settings = [
        (TINY_BUDGET, Parallelism::Serial),
        (TINY_BUDGET, Parallelism::Fixed(2)),
        (MODERATE_BUDGET, Parallelism::Serial),
        (MODERATE_BUDGET, Parallelism::Fixed(2)),
    ];
    for (i, seed) in SEEDS.into_iter().enumerate() {
        let (budget, workers) = settings[i % settings.len()];
        let slice = Slice::all().forcing(&[
            Knob::Budget(Some(budget)),
            Knob::Workers(workers),
            Knob::Caches(false),
        ]);
        run_case(seed, &slice, (1, 1), true, &mut Coverage::default());
    }
}
