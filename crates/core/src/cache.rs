//! Serving-path caches: the plan cache and the epoch-tagged result cache.
//!
//! Three levels of work can be skipped when the same statement is served
//! repeatedly (the paper's serving argument — production engines spend most
//! of their cycles on a small set of hot statements):
//!
//! 1. **Parse + optimize** — the [`PlanCache`] maps a statement
//!    *fingerprint* to its optimized [`LogicalPlan`]. The fingerprint is
//!    `hash(normalized SQL, catalog plan version, optimizer rule selection)`:
//!    formatting differences collapse (see [`backbone_query::normalize`]),
//!    a catalog shape change ([`MemCatalog::plan_version`]) orphans stale
//!    plans, and sessions that restrict the rule set never share a plan with
//!    sessions that don't. Physical planning still runs per execution, so
//!    `mem_budget` / `parallelism` / `batch_rows` deliberately stay *out* of
//!    the key — they change the physical plan, never the logical one.
//! 2. **Bind** — prepared statements hold an [`Arc<CachedPlan>`] directly;
//!    `EXECUTE` substitutes `$n` parameters into a clone of the optimized
//!    plan and goes straight to physical planning.
//! 3. **Execute** — the [`ResultCache`] keys a finished read-only batch by
//!    `hash(plan fingerprint, bound params, per-table content version)`.
//!    The content version of a table is `(generation, visible_rows_at(E))`
//!    for the snapshot epoch `E` the query pinned: in this append-only
//!    engine the bytes visible at `E` are fully determined by how many rows
//!    had committed by `E`, and the generation counter covers wholesale
//!    `register_table` replacement. Because the *key* carries the versions,
//!    eager invalidation ([`ResultCache::invalidate_table`]) is memory
//!    reclamation plus a counter — it is never load-bearing for
//!    correctness, so its timing cannot race a reader into a stale answer.
//!
//! A result entry is one flat buffer: the schema and the batch as
//! [`codec::put_schema`] and [`checkpoint::put_batch`] encode them, decoded
//! again on every hit. A hit already costs O(result) to send, so the decode
//! adds no new order of cost, and an entry retains its encoded bytes plus a
//! fixed bookkeeping share instead of a batch's column handles, bitmaps and
//! schema. Which tables an entry read lives only in the invalidation index.
//!
//! Counters: `cache.plan.{hits,misses,evictions}` and
//! `cache.result.{hits,misses,evictions,invalidations,bytes}`;
//! `cache.result.bytes` is the retained encoded bytes plus
//! [`ENTRY_OVERHEAD`] per entry.

use backbone_query::optimizer::Rule;
use backbone_query::{Counter, LogicalPlan, Metrics};
use backbone_storage::codec::{self, Cursor};
use backbone_storage::{checkpoint, RecordBatch, Value};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Optimized plans retained before the least-recently-used one is evicted.
const PLAN_CACHE_ENTRIES: usize = 256;

/// Default byte budget for retained result batches.
pub(crate) const RESULT_CACHE_BYTES: usize = 64 << 20;

/// Bytes one result entry retains besides its encoded payload: the map
/// slot, the payload's allocation header, the LRU node and the
/// invalidation-index entry.
pub(crate) const ENTRY_OVERHEAD: usize = 128;

/// Statement fingerprint: the plan-cache key and the statement half of every
/// result-cache key.
pub(crate) fn fingerprint(
    normalized_sql: &str,
    plan_version: u64,
    rules: &Option<Vec<Rule>>,
) -> u64 {
    let mut h = DefaultHasher::new();
    normalized_sql.hash(&mut h);
    plan_version.hash(&mut h);
    rules.hash(&mut h);
    h.finish()
}

/// Result-cache key: statement fingerprint x bound parameters x the
/// `(generation, visible_rows_at(epoch))` pair of every table the plan reads.
pub(crate) fn result_key(fp: u64, params: &[Value], versions: &[(u64, u64)]) -> u64 {
    let mut h = DefaultHasher::new();
    fp.hash(&mut h);
    params.len().hash(&mut h);
    for p in params {
        hash_value(p, &mut h);
    }
    versions.hash(&mut h);
    h.finish()
}

// `Value` holds an `f64` so it cannot derive `Hash`; hash the bit pattern
// (two params only collide in a key if they would evaluate identically).
fn hash_value(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Int(i) => {
            1u8.hash(h);
            i.hash(h);
        }
        Value::Float(f) => {
            2u8.hash(h);
            f.to_bits().hash(h);
        }
        Value::Str(s) => {
            3u8.hash(h);
            s.hash(h);
        }
        Value::Bool(b) => {
            4u8.hash(h);
            b.hash(h);
        }
    }
}

/// An optimized, parameter-ready statement — one plan-cache entry, and the
/// object a prepared-statement handle points at.
pub(crate) struct CachedPlan {
    /// The optimized logical plan, `$n` placeholders still unbound.
    pub plan: LogicalPlan,
    /// Tables the plan reads — the result cache's versioning footprint.
    pub tables: Vec<String>,
    /// Number of `$n` parameter slots the statement expects.
    pub params: usize,
    /// The fingerprint this plan was built under.
    pub fingerprint: u64,
}

struct PlanState {
    /// fingerprint -> (plan, last-touch tick).
    map: HashMap<u64, (Arc<CachedPlan>, u64)>,
    /// last-touch tick -> fingerprint; ticks are unique, so the first entry
    /// is always the LRU.
    lru: BTreeMap<u64, u64>,
    tick: u64,
}

/// Fingerprint-keyed cache of optimized logical plans.
pub(crate) struct PlanCache {
    state: Mutex<PlanState>,
    metrics: Metrics,
    // Bumped on every lookup, so resolved once here.
    hits: Counter,
    misses: Counter,
}

impl PlanCache {
    pub fn new(metrics: Metrics) -> PlanCache {
        PlanCache {
            state: Mutex::new(PlanState {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
            }),
            hits: metrics.counter("cache.plan.hits"),
            misses: metrics.counter("cache.plan.misses"),
            metrics,
        }
    }

    /// Look up a plan, counting the hit or miss and refreshing recency.
    pub fn get(&self, fp: u64) -> Option<Arc<CachedPlan>> {
        let mut s = self.state.lock();
        s.tick += 1;
        let tick = s.tick;
        match s.map.get_mut(&fp) {
            Some((plan, old)) => {
                let plan = plan.clone();
                let old = std::mem::replace(old, tick);
                s.lru.remove(&old);
                s.lru.insert(tick, fp);
                self.hits.incr();
                Some(plan)
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Whether a plan is cached, without touching recency or counters (used
    /// by `EXPLAIN` annotations, which must not distort the hit rate).
    pub fn contains(&self, fp: u64) -> bool {
        self.state.lock().map.contains_key(&fp)
    }

    pub fn insert(&self, plan: Arc<CachedPlan>) {
        let mut s = self.state.lock();
        s.tick += 1;
        let tick = s.tick;
        if let Some((_, old)) = s.map.remove(&plan.fingerprint) {
            s.lru.remove(&old);
        } else if s.map.len() >= PLAN_CACHE_ENTRIES {
            if let Some((&t, &victim)) = s.lru.iter().next() {
                s.lru.remove(&t);
                s.map.remove(&victim);
                self.metrics.counter("cache.plan.evictions").incr();
            }
        }
        s.lru.insert(tick, plan.fingerprint);
        s.map.insert(plan.fingerprint, (plan, tick));
    }
}

struct ResultEntry {
    /// The result's schema and batch, encoded by [`encode`].
    payload: Arc<[u8]>,
    tick: u64,
}

impl ResultEntry {
    fn bytes(&self) -> usize {
        self.payload.len() + ENTRY_OVERHEAD
    }
}

/// Encode a result for the cache. Dictionary columns whose dictionary
/// outnumbers the rows (a few rows gathered from a large row group) are
/// flattened first, so an entry never carries a group's whole dictionary.
fn encode(batch: &RecordBatch) -> Arc<[u8]> {
    let batch = batch.materialize();
    let rows = batch.num_rows();
    let oversized = |c: &Arc<backbone_storage::Column>| {
        c.dict_parts().is_some_and(|(dict, ..)| dict.len() > rows)
    };
    let batch = if batch.columns().iter().any(oversized) {
        batch.decoded()
    } else {
        batch
    };
    let mut out = Vec::new();
    codec::put_schema(&mut out, batch.schema());
    checkpoint::put_batch(&mut out, &batch);
    out.into()
}

/// Inverse of [`encode`].
fn decode(payload: &[u8]) -> backbone_storage::error::Result<RecordBatch> {
    let mut cur = Cursor::new(payload);
    let schema = codec::read_schema(&mut cur)?;
    checkpoint::read_batch(&mut cur, &schema)
}

struct ResultState {
    /// result key -> cached batch.
    map: HashMap<u64, ResultEntry>,
    /// table -> keys of entries that read it (the invalidation index, and
    /// the only record of which tables an entry read).
    by_table: HashMap<String, HashSet<u64>>,
    /// Per-table generation; bumped by `invalidate_table` so keys computed
    /// before a commit can never collide with keys computed after it, even
    /// when the commit leaves `visible_rows_at` unchanged (e.g. a wholesale
    /// `register_table` replacement of same-cardinality content).
    generations: HashMap<String, u64>,
    lru: BTreeMap<u64, u64>,
    bytes: usize,
    tick: u64,
}

/// Byte-budgeted LRU cache of finished read-only result batches.
pub(crate) struct ResultCache {
    state: Mutex<ResultState>,
    budget: usize,
    metrics: Metrics,
    // Bumped on every lookup, so resolved once here.
    hits: Counter,
    misses: Counter,
}

impl ResultCache {
    pub fn new(budget: usize, metrics: Metrics) -> ResultCache {
        ResultCache {
            hits: metrics.counter("cache.result.hits"),
            misses: metrics.counter("cache.result.misses"),
            state: Mutex::new(ResultState {
                map: HashMap::new(),
                by_table: HashMap::new(),
                generations: HashMap::new(),
                lru: BTreeMap::new(),
                bytes: 0,
                tick: 0,
            }),
            budget,
            metrics,
        }
    }

    /// Current generation of each named table (0 until first invalidation).
    pub fn generations(&self, tables: &[String]) -> Vec<u64> {
        let s = self.state.lock();
        tables
            .iter()
            .map(|t| s.generations.get(t).copied().unwrap_or(0))
            .collect()
    }

    /// Look up and decode a result, counting the hit or miss and
    /// refreshing recency. The decode runs outside the cache lock.
    pub fn get(&self, key: u64) -> Option<RecordBatch> {
        let found = {
            let mut s = self.state.lock();
            s.tick += 1;
            let tick = s.tick;
            match s.map.get_mut(&key) {
                Some(e) => {
                    let found = e.payload.clone();
                    let old = std::mem::replace(&mut e.tick, tick);
                    s.lru.remove(&old);
                    s.lru.insert(tick, key);
                    Some(found)
                }
                None => None,
            }
        };
        // The payload is this cache's own encoding, so a decode failure is
        // a bug; answering it as a miss re-executes instead of failing.
        let batch = found.and_then(|payload| decode(&payload).ok());
        let outcome = if batch.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        outcome.incr();
        batch
    }

    /// Whether a result is cached, without touching recency or counters.
    pub fn contains(&self, key: u64) -> bool {
        self.state.lock().map.contains_key(&key)
    }

    /// Store a result computed under the given per-table `generations`
    /// snapshot. If any generation moved while the query executed, a commit
    /// landed in between: the entry's key is already unreachable (future
    /// keys embed the new generation), so storing it would only leak budget
    /// — skip it instead.
    pub fn insert(&self, key: u64, batch: &RecordBatch, tables: &[String], generations: &[u64]) {
        let payload = encode(batch);
        let bytes = payload.len() + ENTRY_OVERHEAD;
        if bytes > self.budget {
            return;
        }
        let mut s = self.state.lock();
        for (t, g) in tables.iter().zip(generations) {
            if s.generations.get(t).copied().unwrap_or(0) != *g {
                return;
            }
        }
        if s.map.contains_key(&key) {
            return; // a concurrent execution of the same query filled it
        }
        while s.bytes + bytes > self.budget {
            let victim = match s.lru.iter().next() {
                Some((&t, &k)) => (t, k),
                None => break,
            };
            s.lru.remove(&victim.0);
            Self::unlink(&mut s, victim.1);
            self.metrics.counter("cache.result.evictions").incr();
        }
        s.tick += 1;
        let tick = s.tick;
        s.lru.insert(tick, key);
        s.bytes += bytes;
        for t in tables {
            s.by_table.entry(t.clone()).or_default().insert(key);
        }
        s.map.insert(key, ResultEntry { payload, tick });
        self.publish_bytes(&s);
    }

    /// A commit touched `table`: bump its generation and reclaim every entry
    /// that read it. Reclamation is bookkeeping — the generation bump alone
    /// guarantees no future lookup can hit these entries.
    pub fn invalidate_table(&self, table: &str) {
        let mut s = self.state.lock();
        *s.generations.entry(table.to_string()).or_insert(0) += 1;
        if let Some(keys) = s.by_table.remove(table) {
            let n = keys.len() as u64;
            for k in keys {
                if let Some(tick) = s.map.get(&k).map(|e| e.tick) {
                    s.lru.remove(&tick);
                }
                Self::unlink(&mut s, k);
            }
            if n > 0 {
                self.metrics.counter("cache.result.invalidations").add(n);
                self.publish_bytes(&s);
            }
        }
    }

    /// Drop an entry from the map, byte count, and per-table index (the LRU
    /// entry is the caller's job — eviction already popped it). The index
    /// holds only tables with live entries, so the sweep is short.
    fn unlink(s: &mut ResultState, key: u64) {
        if let Some(e) = s.map.remove(&key) {
            s.bytes -= e.bytes();
            s.by_table.retain(|_, keys| {
                keys.remove(&key);
                !keys.is_empty()
            });
        }
    }

    // `cache.result.bytes` is a gauge riding on a counter: reset + add under
    // the cache lock keeps it consistent.
    fn publish_bytes(&self, s: &ResultState) {
        let g = self.metrics.counter("cache.result.bytes");
        g.reset();
        g.add(s.bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_query::LogicalPlan;
    use backbone_storage::{Column, DataType, Field, Schema};

    fn plan_for(fp: u64) -> Arc<CachedPlan> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        Arc::new(CachedPlan {
            plan: LogicalPlan::Scan {
                table: "t".into(),
                table_schema: schema,
                projection: None,
                filters: Vec::new(),
            },
            tables: vec!["t".into()],
            params: 0,
            fingerprint: fp,
        })
    }

    fn batch(vals: &[i64]) -> RecordBatch {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        let col = Arc::new(Column::from_values(DataType::Int64, &values).unwrap());
        RecordBatch::try_new(schema, vec![col]).unwrap()
    }

    #[test]
    fn plan_cache_counts_and_evicts_lru() {
        let m = Metrics::new();
        let c = PlanCache::new(m.clone());
        assert!(c.get(1).is_none());
        c.insert(plan_for(1));
        assert!(c.get(1).is_some());
        assert_eq!(m.counter("cache.plan.hits").get(), 1);
        assert_eq!(m.counter("cache.plan.misses").get(), 1);
        // Fill to capacity, keep 1 warm, then overflow: 2 must go, 1 stays.
        for fp in 2..=(PLAN_CACHE_ENTRIES as u64) {
            c.insert(plan_for(fp));
        }
        assert!(c.get(1).is_some());
        c.insert(plan_for(999_999));
        assert_eq!(m.counter("cache.plan.evictions").get(), 1);
        assert!(c.contains(1), "recently touched entry survives");
        assert!(!c.contains(2), "LRU entry evicted");
    }

    #[test]
    fn result_cache_round_trip_and_generation_guard() {
        let m = Metrics::new();
        let c = ResultCache::new(1 << 20, m.clone());
        let tables = vec!["t".to_string()];
        let gens = c.generations(&tables);
        assert_eq!(gens, vec![0]);
        let b = batch(&[1, 2, 3]);
        c.insert(7, &b, &tables, &gens);
        assert_eq!(c.get(7).unwrap().num_rows(), 3);
        assert_eq!(m.counter("cache.result.hits").get(), 1);
        assert!(m.counter("cache.result.bytes").get() > 0);

        // A commit during execution (generation moved) must veto the insert.
        c.invalidate_table("t");
        assert!(c.get(7).is_none(), "invalidation reclaims entries");
        assert_eq!(m.counter("cache.result.invalidations").get(), 1);
        c.insert(8, &b, &tables, &gens); // stale generation snapshot
        assert!(!c.contains(8), "stale-generation insert is dropped");
        let fresh = c.generations(&tables);
        assert_eq!(fresh, vec![1]);
        c.insert(8, &b, &tables, &fresh);
        assert!(c.contains(8));
    }

    #[test]
    fn result_cache_evicts_by_bytes_lru_first() {
        let m = Metrics::new();
        let b = batch(&[1, 2, 3, 4]);
        let unit = encode(&b).len() + ENTRY_OVERHEAD;
        // Room for exactly two entries.
        let c = ResultCache::new(unit * 2, m.clone());
        let tables = vec!["t".to_string()];
        let gens = c.generations(&tables);
        c.insert(1, &b, &tables, &gens);
        c.insert(2, &b, &tables, &gens);
        assert!(c.get(1).is_some(), "touch 1 so 2 becomes LRU");
        c.insert(3, &b, &tables, &gens);
        assert_eq!(m.counter("cache.result.evictions").get(), 1);
        assert!(c.contains(1) && c.contains(3));
        assert!(!c.contains(2), "least-recently-used entry evicted");
        assert_eq!(m.counter("cache.result.bytes").get(), (unit * 2) as u64);
    }

    #[test]
    fn result_keys_separate_params_and_versions() {
        let base = result_key(1, &[], &[(0, 10)]);
        assert_eq!(base, result_key(1, &[], &[(0, 10)]), "deterministic");
        assert_ne!(base, result_key(2, &[], &[(0, 10)]), "fingerprint");
        assert_ne!(base, result_key(1, &[Value::Int(1)], &[(0, 10)]), "params");
        assert_ne!(base, result_key(1, &[], &[(0, 11)]), "visible rows");
        assert_ne!(base, result_key(1, &[], &[(1, 10)]), "generation");
        assert_ne!(
            result_key(1, &[Value::Float(1.0)], &[]),
            result_key(1, &[Value::Int(1)], &[]),
            "value type is part of the key"
        );
    }
}
