//! The owned JSON document tree.

use std::fmt;

use crate::number::Number;

/// An order-preserving string-keyed map used for JSON objects.
///
/// CDN manifests are generated deterministically and compared structurally
/// in tests, so key order must be stable: `Map` keeps entries in insertion
/// order and does lookups by linear scan. JSON objects in traffic logs are
/// small (tens of keys), where a scan beats hashing; the type is not meant
/// as a general-purpose map.
#[derive(Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Returns a mutable reference to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Inserts `value` under `key`, returning a previous value if the key
    /// already existed (the entry keeps its original position).
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Removes and returns the value for `key`, if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// True when the map contains `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// An owned JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A JSON string (already unescaped).
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object with insertion-ordered keys.
    Object(Map),
}

impl Value {
    /// Returns the object member `key`, or `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `i64`, if this is an in-range integer number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `u64`, if this is an in-range non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The array content, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object content, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// RFC 6901 JSON Pointer lookup.
    ///
    /// `""` addresses the whole document; `"/a/0/b"` descends through object
    /// member `a`, array index `0`, object member `b`. The escapes `~0` (→
    /// `~`) and `~1` (→ `/`) are decoded. Returns `None` when any step does
    /// not resolve.
    ///
    /// ```
    /// # use jcdn_json::parse;
    /// let v = parse(r#"{"a": [{"b~/c": 7}]}"#).unwrap();
    /// assert_eq!(v.pointer("/a/0/b~0~1c").unwrap().as_i64(), Some(7));
    /// ```
    pub fn pointer(&self, pointer: &str) -> Option<&Value> {
        if pointer.is_empty() {
            return Some(self);
        }
        if !pointer.starts_with('/') {
            return None;
        }
        let mut current = self;
        for raw_token in pointer[1..].split('/') {
            let token = raw_token.replace("~1", "/").replace("~0", "~");
            current = match current {
                Value::Object(map) => map.get(&token)?,
                Value::Array(items) => {
                    // Leading zeros are invalid array indices per RFC 6901.
                    if token != "0" && token.starts_with('0') {
                        return None;
                    }
                    let idx: usize = token.parse().ok()?;
                    items.get(idx)?
                }
                _ => return None,
            };
        }
        Some(current)
    }

    /// Total number of nodes in the tree (the value itself, all array
    /// elements, and all object members, recursively). Used by tests and by
    /// response-size accounting in the workload generator.
    pub fn node_count(&self) -> usize {
        match self {
            Value::Array(items) => 1 + items.iter().map(Value::node_count).sum::<usize>(),
            Value::Object(map) => 1 + map.values().map(Value::node_count).sum::<usize>(),
            _ => 1,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Number(Number::from(i))
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Number(Number::from(i))
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Self {
        Value::Number(Number::from(u))
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Self {
        Value::Number(Number::from(u))
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::Number(Number::from(u))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(items)
    }
}

impl From<Map> for Value {
    fn from(map: Map) -> Self {
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn map_preserves_insertion_order() {
        let mut map = Map::new();
        map.insert("z", Value::from(1));
        map.insert("a", Value::from(2));
        map.insert("m", Value::from(3));
        let keys: Vec<_> = map.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut map = Map::new();
        map.insert("a", Value::from(1));
        map.insert("b", Value::from(2));
        let old = map.insert("a", Value::from(10));
        assert_eq!(old, Some(Value::from(1)));
        let keys: Vec<_> = map.keys().collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(map.get("a"), Some(&Value::from(10)));
    }

    #[test]
    fn map_remove() {
        let mut map = Map::new();
        map.insert("a", Value::from(1));
        assert_eq!(map.remove("a"), Some(Value::from(1)));
        assert_eq!(map.remove("a"), None);
        assert!(map.is_empty());
    }

    #[test]
    fn pointer_whole_document_and_misses() {
        let v = parse(r#"{"a": 1}"#).unwrap();
        assert_eq!(v.pointer(""), Some(&v));
        assert!(v.pointer("/missing").is_none());
        assert!(v.pointer("a").is_none()); // must start with '/'
    }

    #[test]
    fn pointer_rejects_leading_zero_indices() {
        let v = parse(r#"[10, 20]"#).unwrap();
        assert_eq!(v.pointer("/0").unwrap().as_i64(), Some(10));
        assert!(v.pointer("/01").is_none());
    }

    #[test]
    fn node_count_counts_every_node() {
        let v = parse(r#"{"a": [1, 2, {"b": null}]}"#).unwrap();
        // object + array + 1 + 2 + inner object + null
        assert_eq!(v.node_count(), 6);
    }
}
