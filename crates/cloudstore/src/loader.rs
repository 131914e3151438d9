//! The cloud bulk-upload utility — the stand-in for `aws s3 cp` / AzCopy.
//!
//! The virtualizer hands each finalized staging file to a [`BulkLoader`],
//! which optionally compresses it and writes it to the object store
//! through a [`Throttle`]d link: one upload call per staged file, the
//! bulk-upload step of the paper's §6.

use std::sync::Arc;

use crate::compress;
use crate::store::{ObjectStore, StoreError};
use crate::throttle::Throttle;

/// Bulk-loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Destination bucket.
    pub bucket: String,
    /// Compress parts before upload.
    pub compress: bool,
    /// Link model applied to each upload.
    pub throttle: Throttle,
}

impl LoaderConfig {
    /// Plain uncompressed uploads to `bucket` over an unshaped link.
    pub fn new(bucket: impl Into<String>) -> LoaderConfig {
        LoaderConfig {
            bucket: bucket.into(),
            compress: false,
            throttle: Throttle::unlimited(),
        }
    }
}

/// The bulk-upload utility.
pub struct BulkLoader {
    store: Arc<dyn ObjectStore>,
    config: LoaderConfig,
}

impl BulkLoader {
    /// Create a loader over `store` with `config`.
    pub fn new(store: Arc<dyn ObjectStore>, config: LoaderConfig) -> BulkLoader {
        BulkLoader { store, config }
    }

    /// Upload one part to `key` (e.g. `job42/part-00007`), borrowing the
    /// data so the caller can retry the same part after a failed
    /// transfer. Returns the transferred (possibly compressed) size.
    pub fn upload_part_from(&self, key: &str, data: &[u8]) -> Result<u64, StoreError> {
        let payload = if self.config.compress {
            compress::compress(data)
        } else {
            data.to_vec()
        };
        let out_len = payload.len() as u64;
        self.config.throttle.consume(out_len);
        self.store.put(&self.config.bucket, key, payload)?;
        Ok(out_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn loader(compress: bool) -> (Arc<MemStore>, BulkLoader) {
        let store = Arc::new(MemStore::new());
        let mut cfg = LoaderConfig::new("staging");
        cfg.compress = compress;
        (store.clone(), BulkLoader::new(store, cfg))
    }

    #[test]
    fn plain_upload_roundtrip() {
        let (store, l) = loader(false);
        let sent = l.upload_part_from("j/part-0", b"hello world").unwrap();
        assert_eq!(sent, 11);
        assert_eq!(store.get("staging", "j/part-0").unwrap(), b"hello world");
    }

    #[test]
    fn compressed_upload_roundtrip() {
        let (store, l) = loader(true);
        let data: Vec<u8> = b"repetitive|row|data\n".repeat(100);
        let sent = l.upload_part_from("j/part-0", &data).unwrap();
        let stored = store.get("staging", "j/part-0").unwrap();
        assert_eq!(sent, stored.len() as u64);
        assert!(
            stored.len() < data.len(),
            "{} >= {}",
            stored.len(),
            data.len()
        );
        assert_eq!(compress::decompress(&stored).unwrap(), data);
    }
}
