//! The system under test: one virtualizer node, in process, serving TCP
//! through the reactor — the production session path — over an object
//! store the benchmark can count bytes on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{MemStore, ObjectStore, StoreError, Throttle};
use etlv_core::{ServerHandle, Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{Connect, TcpConnector};

use crate::workloads::{Workload, BULK_WIDE};

/// An in-memory object store that counts what is put to it. The node's
/// own `JobReport.bytes_staged` is measured before compression; this is
/// what actually lands in the cloud, which is what a user pays for.
#[derive(Default)]
pub struct CountingStore {
    inner: MemStore,
    bytes_put: AtomicU64,
}

impl CountingStore {
    pub fn bytes_put(&self) -> u64 {
        self.bytes_put.load(Ordering::Relaxed)
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, bucket: &str, key: &str, data: Vec<u8>) -> Result<(), StoreError> {
        self.bytes_put
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.put(bucket, key, data)
    }

    fn get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.get(bucket, key)
    }

    fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(bucket, prefix)
    }

    fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        self.inner.delete(bucket, key)
    }
}

/// Production defaults, plus the two settings `bulk_wide` exists to
/// exercise: compressed staging over a slow, shaped upload link.
pub fn config(workload: Workload) -> VirtualizerConfig {
    let mut config = VirtualizerConfig::default();
    if workload == Workload::BulkWide {
        config.compress_staged = true;
        config.upload_throttle = Throttle::shaped(
            Duration::from_millis(BULK_WIDE.link_latency_ms),
            BULK_WIDE.link_mb_per_s * 1_000_000,
        );
    }
    config
}

/// A CDW that, like most cloud warehouses, does not enforce uniqueness
/// itself: the virtualizer's emulation does.
pub fn cdw(store: Arc<dyn ObjectStore>) -> Cdw {
    Cdw::with_config(
        CdwConfig {
            native_unique: false,
            ..CdwConfig::default()
        },
        Some(store),
    )
}

pub struct Node {
    pub v: Virtualizer,
    pub store: Arc<CountingStore>,
    pub connector: Arc<dyn Connect>,
    /// Owns the reactor threads; dropping it stops the server.
    pub server: ServerHandle,
}

pub fn start(workload: Workload) -> Node {
    let store = Arc::new(CountingStore::default());
    let shared: Arc<dyn ObjectStore> = store.clone();
    let v = Virtualizer::with_backends(config(workload), cdw(shared.clone()), shared);
    let server = v
        .listen_tcp("127.0.0.1:0")
        .expect("bind a loopback port for the node");
    let connector: Arc<dyn Connect> = Arc::new(TcpConnector::new(server.addr().to_string()));
    Node {
        v,
        store,
        connector,
        server,
    }
}
