//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The logical type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int64 => write!(f, "INT64"),
            DataType::Float64 => write!(f, "FLOAT64"),
            DataType::Utf8 => write!(f, "UTF8"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A dynamically typed scalar value.
///
/// `Value` is the boundary type between the engine and client code: rows go in
/// and come out as `Vec<Value>`. Inside the engine data lives in typed
/// [`crate::column::Column`]s and never round-trips through `Value` on the hot
/// path.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (cheaply clonable).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Utf8),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as smallest (for sorting);
    /// numeric types compare cross-type; mismatched non-numeric types are
    /// ordered by type tag to keep sorts total.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// ORDER BY order: [`Value::sql_cmp`] made total. NaN, which compares
    /// equal to every number there, sorts after every number and equal to
    /// itself (as in PostgreSQL), so a sort's answer cannot depend on the
    /// order its input arrives in.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
        let number = |v: &Value| matches!(v, Value::Int(_) | Value::Float(_));
        if (nan(self) || nan(other)) && number(self) && number(other) {
            return nan(self).cmp(&nan(other));
        }
        self.sql_cmp(other)
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            // NULL != NULL under SQL semantics is handled by the expression
            // evaluator; `Eq` here is structural so Value can key hash maps.
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64).to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Ints and equal-valued floats must hash identically because they
            // compare equal above.
            Value::Int(v) => (*v as f64).to_bits().hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int64));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float64));
        assert_eq!(Value::str("x").data_type(), Some(DataType::Utf8));
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).sql_cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn nan_sorts_after_every_number() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(
            nan.sort_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(i64::MAX).sort_cmp(&nan), Ordering::Less);
        assert_eq!(nan.sort_cmp(&Value::Float(f64::NAN)), Ordering::Equal);
        assert_eq!(Value::Null.sort_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::str("").sql_cmp(&Value::Null), Ordering::Greater);
    }

    #[test]
    fn int_float_hash_consistency() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Value::Int(7), "seven");
        // Float(7.0) == Int(7), so lookup must succeed.
        assert_eq!(m.get(&Value::Float(7.0)), Some(&"seven"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(1.5).as_int(), None);
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }
}
