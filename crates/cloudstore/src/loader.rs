//! The cloud bulk-upload utility — the stand-in for `aws s3 cp` / AzCopy.
//!
//! The virtualizer hands each finalized staging file to a [`BulkLoader`],
//! which writes it to the object store through a [`Throttle`]d link: one
//! upload call per staged file, the bulk-upload step of the paper's §6.
//! A compressed part arrives already compressed: the pipeline's workers
//! build its frames as they stage it.

use std::sync::Arc;

use crate::store::{ObjectStore, StoreError};
use crate::throttle::Throttle;

/// Bulk-loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Destination bucket.
    pub bucket: String,
    /// Stage parts as LZ frames ([`compress`](mod@crate::compress)): the
    /// pipeline compresses what it stages, and the loader puts it as
    /// given.
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

    /// Whether the parts this loader puts are compressed
    /// ([`LoaderConfig::compress`]).
    pub fn compresses(&self) -> bool {
        self.config.compress
    }

    /// Upload one part to `key` (e.g. `job42/part-00007`) as given,
    /// borrowing the data so the caller can retry the same part after a
    /// failed transfer. Returns the transferred size.
    pub fn upload_part_from(&self, key: &str, data: &[u8]) -> Result<u64, StoreError> {
        let out_len = data.len() as u64;
        self.config.throttle.consume(out_len);
        self.store.put(&self.config.bucket, key, data.to_vec())?;
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
    fn compressed_part_is_put_as_given() {
        let (store, l) = loader(true);
        assert!(l.compresses());
        let data: Vec<u8> = b"repetitive|row|data\n".repeat(100);
        let mut part = crate::compress(&data[..700]);
        part.extend_from_slice(&crate::compress(&data[700..]));
        let sent = l.upload_part_from("j/part-0", &part).unwrap();
        let stored = store.get("staging", "j/part-0").unwrap();
        assert_eq!(sent, part.len() as u64);
        assert_eq!(stored, part);
        assert_eq!(crate::decompress(&stored).unwrap(), data);
    }
}
