//! Metrics-observing object-store wrapper.
//!
//! [`ObservedStore`] decorates any [`ObjectStore`] with a callback invoked
//! after every `put`/`get`, reporting the operation, the byte count moved,
//! the wall time, and whether it succeeded. Like
//! [`ChaosStore`](crate::chaos::ChaosStore), the wrapper carries no policy of its own — the
//! virtualizer installs a hook that feeds its metrics registry, so this
//! crate stays free of any dependency on the observability subsystem.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::store::{ObjectStore, StoreError};

/// Re-use the chaos enum: observers see the same operation taxonomy.
pub use crate::chaos::StoreOp;

/// Per-operation observation callback: `(op, bytes, elapsed, ok)`.
///
/// `bytes` is the payload size — the data written for `put`, the data
/// returned for `get` (0 when the read failed).
pub type StoreObserver = Arc<dyn Fn(StoreOp, u64, Duration, bool) + Send + Sync>;

/// An [`ObjectStore`] decorator that reports every `put`/`get` to an
/// observer. `list`/`delete` pass through unobserved — they are
/// control-plane operations off the data path.
pub struct ObservedStore {
    inner: Arc<dyn ObjectStore>,
    observer: StoreObserver,
}

impl ObservedStore {
    /// Wrap `inner`, reporting every put/get to `observer`.
    pub fn new(inner: Arc<dyn ObjectStore>, observer: StoreObserver) -> ObservedStore {
        ObservedStore { inner, observer }
    }
}

impl ObjectStore for ObservedStore {
    fn put(&self, bucket: &str, key: &str, data: Vec<u8>) -> Result<(), StoreError> {
        let bytes = data.len() as u64;
        let start = Instant::now();
        let result = self.inner.put(bucket, key, data);
        (self.observer)(StoreOp::Put, bytes, start.elapsed(), result.is_ok());
        result
    }

    fn get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, StoreError> {
        let start = Instant::now();
        let result = self.inner.get(bucket, key);
        let bytes = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        (self.observer)(StoreOp::Get, bytes, start.elapsed(), result.is_ok());
        result
    }

    fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(bucket, prefix)
    }

    fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        self.inner.delete(bucket, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn observer_sees_puts_gets_and_failures() {
        let mem = Arc::new(MemStore::new());
        let put_bytes = Arc::new(AtomicU64::new(0));
        let get_bytes = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(AtomicU64::new(0));
        let (pb, gb, fl) = (put_bytes.clone(), get_bytes.clone(), failures.clone());
        let observer: StoreObserver = Arc::new(move |op, bytes, _elapsed, ok| {
            if !ok {
                fl.fetch_add(1, Ordering::Relaxed);
            }
            match op {
                StoreOp::Put => pb.fetch_add(bytes, Ordering::Relaxed),
                StoreOp::Get => gb.fetch_add(bytes, Ordering::Relaxed),
            };
        });
        let store = ObservedStore::new(mem as Arc<dyn ObjectStore>, observer);

        store.put("b", "k", b"12345".to_vec()).unwrap();
        assert_eq!(store.get("b", "k").unwrap(), b"12345");
        assert!(store.get("b", "missing").is_err());

        assert_eq!(put_bytes.load(Ordering::Relaxed), 5);
        assert_eq!(get_bytes.load(Ordering::Relaxed), 5);
        assert_eq!(failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn list_and_delete_pass_through_unobserved() {
        let mem = Arc::new(MemStore::new());
        let calls = Arc::new(AtomicU64::new(0));
        let c = calls.clone();
        let observer: StoreObserver = Arc::new(move |_, _, _, _| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let store = ObservedStore::new(mem as Arc<dyn ObjectStore>, observer);
        store.put("b", "k", b"x".to_vec()).unwrap();
        assert_eq!(store.list("b", "").unwrap(), vec!["k".to_string()]);
        store.delete("b", "k").unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "only the put observed");
    }
}
