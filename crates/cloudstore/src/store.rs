//! Object-store abstraction: `store://bucket/key` addressing over an
//! in-memory backend.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// Error raised by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object does not exist.
    NotFound(String),
    /// The URL is not a valid `store://bucket/key`.
    BadUrl(String),
    /// The transfer failed (`ChaosStore`'s injected faults).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(k) => write!(f, "object not found: {k}"),
            StoreError::BadUrl(u) => write!(f, "bad store URL: {u}"),
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A parsed `store://bucket/key` URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreUrl {
    /// Bucket (container) name.
    pub bucket: String,
    /// Object key or key prefix.
    pub key: String,
}

/// Parse a `store://bucket/key` URL. The key may be empty or end with `/`
/// (a prefix).
pub fn parse_url(url: &str) -> Result<StoreUrl, StoreError> {
    let rest = url
        .strip_prefix("store://")
        .ok_or_else(|| StoreError::BadUrl(url.to_string()))?;
    let (bucket, key) = match rest.split_once('/') {
        Some((b, k)) => (b, k),
        None => (rest, ""),
    };
    if bucket.is_empty() {
        return Err(StoreError::BadUrl(url.to_string()));
    }
    Ok(StoreUrl {
        bucket: bucket.to_string(),
        key: key.to_string(),
    })
}

/// A blob store: buckets of byte objects. All methods are `&self` —
/// implementations are internally synchronized so the virtualizer's
/// parallel FileWriter/uploader stages can share one handle.
pub trait ObjectStore: Send + Sync {
    /// Store `data` at `bucket/key`, overwriting.
    fn put(&self, bucket: &str, key: &str, data: Vec<u8>) -> Result<(), StoreError>;

    /// Fetch the object at `bucket/key`.
    fn get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, StoreError>;

    /// List keys in `bucket` starting with `prefix`, sorted.
    fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, StoreError>;

    /// Delete the object (idempotent).
    fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError>;
}

/// One bucket's objects, keyed by object key.
type Bucket = BTreeMap<String, Arc<Vec<u8>>>;

/// In-memory store (the default for tests and benches).
#[derive(Debug, Default)]
pub struct MemStore {
    buckets: RwLock<BTreeMap<String, Bucket>>,
}

impl MemStore {
    /// New empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Number of objects in `bucket`.
    pub fn object_count(&self, bucket: &str) -> usize {
        self.buckets
            .read()
            .get(bucket)
            .map(|b| b.len())
            .unwrap_or(0)
    }
}

impl ObjectStore for MemStore {
    fn put(&self, bucket: &str, key: &str, data: Vec<u8>) -> Result<(), StoreError> {
        self.buckets
            .write()
            .entry(bucket.to_string())
            .or_default()
            .insert(key.to_string(), Arc::new(data));
        Ok(())
    }

    fn get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, StoreError> {
        self.buckets
            .read()
            .get(bucket)
            .and_then(|b| b.get(key))
            .map(|data| data.as_ref().clone())
            .ok_or_else(|| StoreError::NotFound(format!("{bucket}/{key}")))
    }

    fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, StoreError> {
        Ok(self
            .buckets
            .read()
            .get(bucket)
            .map(|b| {
                b.keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default())
    }

    fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        if let Some(b) = self.buckets.write().get_mut(bucket) {
            b.remove(key);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ObjectStore) {
        store.put("b", "job1/part-000", b"aaa".to_vec()).unwrap();
        store.put("b", "job1/part-001", b"bbbb".to_vec()).unwrap();
        store.put("b", "job2/part-000", b"cc".to_vec()).unwrap();

        assert_eq!(store.get("b", "job1/part-000").unwrap(), b"aaa");
        assert_eq!(
            store.list("b", "job1/").unwrap(),
            vec!["job1/part-000".to_string(), "job1/part-001".to_string()]
        );
        assert!(matches!(
            store.get("b", "missing"),
            Err(StoreError::NotFound(_))
        ));

        store.put("b", "job1/part-000", b"xyz".to_vec()).unwrap(); // overwrite
        assert_eq!(store.get("b", "job1/part-000").unwrap(), b"xyz");

        store.delete("b", "job1/part-000").unwrap();
        store.delete("b", "job1/part-000").unwrap(); // idempotent
        assert_eq!(store.list("b", "job1/").unwrap().len(), 1);
    }

    #[test]
    fn mem_store() {
        let store = MemStore::new();
        exercise(&store);
        assert_eq!(store.object_count("b"), 2);
    }

    #[test]
    fn url_parsing() {
        let u = parse_url("store://bucket/a/b/c").unwrap();
        assert_eq!(u.bucket, "bucket");
        assert_eq!(u.key, "a/b/c");

        let u = parse_url("store://bucket").unwrap();
        assert_eq!(u.key, "");

        assert!(parse_url("s3://bucket/k").is_err());
        assert!(parse_url("store:///k").is_err());
    }

    #[test]
    fn empty_bucket_list() {
        let store = MemStore::new();
        assert_eq!(store.list("nope", "").unwrap(), Vec::<String>::new());
    }
}
