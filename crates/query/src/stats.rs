//! Column statistics: the optimizer's eyes.
//!
//! `ANALYZE`-style statistics (distinct count, min/max, null count) computed
//! lazily per column and cached until the catalog's plan version moves. The
//! cardinality model uses them to replace magic-constant selectivities with
//! `1/ndv` equality estimates, range-fraction estimates, and the classic
//! `|L|·|R| / max(ndv)` join estimate.

use backbone_storage::{Table, Value};
use std::collections::HashSet;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Exact number of distinct non-null values.
    pub ndv: u64,
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of NULL rows.
    pub null_count: u64,
    /// Total rows.
    pub row_count: u64,
}

impl ColumnStats {
    /// Selectivity of `col = literal` under a uniform-distribution
    /// assumption: `1/ndv` (clamped into (0, 1]).
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            (1.0 / self.ndv as f64).min(1.0)
        }
    }

    /// Selectivity of a range predicate against a numeric literal, using
    /// linear interpolation over [min, max]. `None` when the column is not
    /// numeric or has no values.
    pub fn range_selectivity(&self, op_lt: bool, inclusive: bool, v: &Value) -> Option<f64> {
        let lo = self.min.as_ref()?.as_float()?;
        let hi = self.max.as_ref()?.as_float()?;
        let x = v.as_float()?;
        if hi <= lo {
            // Degenerate single-value column.
            let matches = match (op_lt, inclusive) {
                (true, true) => x >= lo,
                (true, false) => x > lo,
                (false, true) => x <= lo,
                (false, false) => x < lo,
            };
            return Some(if matches { 1.0 } else { 0.0 });
        }
        let frac = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
        Some(if op_lt { frac } else { 1.0 - frac })
    }
}

/// Per-type accumulator for one column's statistics. Typed kernels keep the
/// hot loop on raw slices: no per-row `Value` boxing, and distinct-counting
/// hashes primitives (floats by bit pattern) instead of enum values.
enum StatAcc<'a> {
    Int {
        distinct: HashSet<i64>,
        min: i64,
        max: i64,
    },
    Float {
        distinct: HashSet<u64>,
        min: f64,
        max: f64,
    },
    Str {
        distinct: HashSet<&'a str>,
        min: Option<&'a str>,
        max: Option<&'a str>,
    },
    Bool {
        seen: [bool; 2],
    },
    Other {
        distinct: HashSet<Value>,
        min: Option<Value>,
        max: Option<Value>,
    },
}

/// Compute statistics for every column of a table (one pass per column).
pub fn analyze_table(table: &Table) -> Vec<ColumnStats> {
    let ncols = table.schema().len();
    // Materialize segments up front (paged groups decode through the pool,
    // tail chunks are shared); the string accumulators borrow from these
    // batches, so they must outlive the per-column passes. Unreadable
    // groups contribute no stats rather than failing planning.
    let batches: Vec<_> = table
        .prefix_batches(table.num_rows())
        .filter_map(|b| b.ok())
        .collect();
    let mut out = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let mut acc: Option<StatAcc> = None;
        let mut null_count = 0u64;
        let mut row_count = 0u64;
        for batch in &batches {
            let col = batch.column(c);
            let bm = col.validity();
            row_count += col.len() as u64;
            if let Ok(data) = col.i64_data() {
                let a = acc.get_or_insert(StatAcc::Int {
                    distinct: HashSet::new(),
                    min: i64::MAX,
                    max: i64::MIN,
                });
                if let StatAcc::Int { distinct, min, max } = a {
                    for (i, &v) in data.iter().enumerate() {
                        if !bm.get(i) {
                            null_count += 1;
                            continue;
                        }
                        *min = v.min(*min);
                        *max = v.max(*max);
                        distinct.insert(v);
                    }
                }
            } else if let Ok(data) = col.f64_data() {
                let a = acc.get_or_insert(StatAcc::Float {
                    distinct: HashSet::new(),
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                });
                if let StatAcc::Float { distinct, min, max } = a {
                    for (i, &v) in data.iter().enumerate() {
                        if !bm.get(i) {
                            null_count += 1;
                            continue;
                        }
                        *min = v.min(*min);
                        *max = v.max(*max);
                        distinct.insert(v.to_bits());
                    }
                }
            } else if let Ok(data) = col.utf8_data() {
                let a = acc.get_or_insert(StatAcc::Str {
                    distinct: HashSet::new(),
                    min: None,
                    max: None,
                });
                if let StatAcc::Str { distinct, min, max } = a {
                    for (i, v) in data.iter().enumerate() {
                        if !bm.get(i) {
                            null_count += 1;
                            continue;
                        }
                        let s: &str = v.as_str();
                        if min.is_none_or(|m| s < m) {
                            *min = Some(s);
                        }
                        if max.is_none_or(|m| s > m) {
                            *max = Some(s);
                        }
                        distinct.insert(s);
                    }
                }
            } else if let Ok(data) = col.bool_data() {
                let a = acc.get_or_insert(StatAcc::Bool {
                    seen: [false, false],
                });
                if let StatAcc::Bool { seen } = a {
                    for (i, &v) in data.iter().enumerate() {
                        if !bm.get(i) {
                            null_count += 1;
                            continue;
                        }
                        seen[v as usize] = true;
                    }
                }
            } else if let Some((dict, codes, _)) = col.dict_parts() {
                // Dictionary columns: O(rows) code scan for usage + nulls,
                // then string work only over the distinct entries.
                let a = acc.get_or_insert(StatAcc::Str {
                    distinct: HashSet::new(),
                    min: None,
                    max: None,
                });
                if let StatAcc::Str { distinct, min, max } = a {
                    let mut used = vec![false; dict.len()];
                    for (i, &code) in codes.iter().enumerate() {
                        if !bm.get(i) {
                            null_count += 1;
                            continue;
                        }
                        used[code as usize] = true;
                    }
                    for (entry, u) in dict.iter().zip(used) {
                        if !u {
                            continue;
                        }
                        let s: &str = entry.as_str();
                        if min.is_none_or(|m| s < m) {
                            *min = Some(s);
                        }
                        if max.is_none_or(|m| s > m) {
                            *max = Some(s);
                        }
                        distinct.insert(s);
                    }
                }
            } else {
                let a = acc.get_or_insert(StatAcc::Other {
                    distinct: HashSet::new(),
                    min: None,
                    max: None,
                });
                if let StatAcc::Other { distinct, min, max } = a {
                    for i in 0..col.len() {
                        let v = col.value(i);
                        if v.is_null() {
                            null_count += 1;
                            continue;
                        }
                        if min
                            .as_ref()
                            .is_none_or(|m| v.sql_cmp(m) == std::cmp::Ordering::Less)
                        {
                            *min = Some(v.clone());
                        }
                        if max
                            .as_ref()
                            .is_none_or(|m| v.sql_cmp(m) == std::cmp::Ordering::Greater)
                        {
                            *max = Some(v.clone());
                        }
                        distinct.insert(v);
                    }
                }
            }
        }
        let (ndv, min, max) = match acc {
            Some(StatAcc::Int { distinct, min, max }) if !distinct.is_empty() => (
                distinct.len() as u64,
                Some(Value::Int(min)),
                Some(Value::Int(max)),
            ),
            Some(StatAcc::Float { distinct, min, max }) if !distinct.is_empty() => (
                distinct.len() as u64,
                Some(Value::Float(min)),
                Some(Value::Float(max)),
            ),
            Some(StatAcc::Str { distinct, min, max }) => (
                distinct.len() as u64,
                min.map(Value::str),
                max.map(Value::str),
            ),
            Some(StatAcc::Bool { seen }) => {
                let ndv = seen.iter().filter(|&&b| b).count() as u64;
                let min = if seen[0] {
                    Some(Value::Bool(false))
                } else if seen[1] {
                    Some(Value::Bool(true))
                } else {
                    None
                };
                let max = if seen[1] {
                    Some(Value::Bool(true))
                } else if seen[0] {
                    Some(Value::Bool(false))
                } else {
                    None
                };
                (ndv, min, max)
            }
            Some(StatAcc::Other { distinct, min, max }) => (distinct.len() as u64, min, max),
            _ => (0, None, None),
        };
        out.push(ColumnStats {
            ndv,
            min,
            max,
            null_count,
            row_count,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_storage::{DataType, Field, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::nullable("v", DataType::Utf8),
        ]);
        let mut t = Table::with_group_size(schema, 4);
        for i in 0..20i64 {
            let v = if i % 5 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", i % 3))
            };
            t.append_row(vec![Value::Int(i % 7), v]).unwrap();
        }
        t.flush().unwrap();
        t
    }

    #[test]
    fn analyze_counts() {
        let stats = analyze_table(&table());
        assert_eq!(stats[0].ndv, 7);
        assert_eq!(stats[0].null_count, 0);
        assert_eq!(stats[0].min, Some(Value::Int(0)));
        assert_eq!(stats[0].max, Some(Value::Int(6)));
        assert_eq!(stats[0].row_count, 20);
        assert_eq!(stats[1].ndv, 3);
        assert_eq!(stats[1].null_count, 4);
    }

    #[test]
    fn eq_selectivity_uniform() {
        let stats = analyze_table(&table());
        assert!((stats[0].eq_selectivity() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let stats = analyze_table(&table());
        // k in [0, 6]; k < 3 ~ 0.5.
        let s = stats[0]
            .range_selectivity(true, false, &Value::Int(3))
            .unwrap();
        assert!((s - 0.5).abs() < 1e-9);
        // k > 6 ~ 0.
        let s = stats[0]
            .range_selectivity(false, false, &Value::Int(6))
            .unwrap();
        assert_eq!(s, 0.0);
        // Out-of-range literal clamps.
        let s = stats[0]
            .range_selectivity(true, false, &Value::Int(100))
            .unwrap();
        assert_eq!(s, 1.0);
        // Non-numeric columns yield None.
        assert!(stats[1]
            .range_selectivity(true, false, &Value::Int(1))
            .is_none());
    }

    #[test]
    fn degenerate_single_value_column() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let mut t = Table::new(schema);
        for _ in 0..5 {
            t.append_row(vec![Value::Int(42)]).unwrap();
        }
        t.flush().unwrap();
        let stats = analyze_table(&t);
        assert_eq!(stats[0].ndv, 1);
        assert_eq!(
            stats[0].range_selectivity(true, true, &Value::Int(42)),
            Some(1.0)
        );
        assert_eq!(
            stats[0].range_selectivity(true, false, &Value::Int(42)),
            Some(0.0)
        );
    }
}
