//! # etlv-cloudstore
//!
//! A simulated cloud object store plus the client-side bulk-upload
//! utilities the virtualizer uses to stage data for the CDW — the stand-in
//! for S3/Azure Blob and `aws s3 cp`/AzCopy in the paper's §6.
//!
//! - [`store`]: the [`ObjectStore`] trait and its in-memory backend
//!   ([`MemStore`]), addressable through `store://bucket/key` URLs.
//! - [`compress`](mod@compress): a self-contained LZ codec whose
//!   self-delimiting frames make up compressed staged files (the paper:
//!   "data compression can improve upload speed if the communication link
//!   ... is slow").
//! - [`loader`]: the [`BulkLoader`] utility — uploads one staged file per
//!   call, as given.
//! - [`throttle`]: bandwidth/latency shaping so benches can model slow
//!   links between the virtualizer node and the cloud.
//! - [`observe`]: the [`ObservedStore`] decorator reporting put/get
//!   latency and byte counts to a caller-supplied observer.

pub mod chaos;
pub mod compress;
pub mod loader;
pub mod observe;
pub mod store;
pub mod throttle;

pub use chaos::{ChaosStore, StoreFault, StoreFaultHook, StoreOp};
pub use compress::{compress, decompress, CompressError};
pub use loader::{BulkLoader, LoaderConfig};
pub use observe::{ObservedStore, StoreObserver};
pub use store::{parse_url, MemStore, ObjectStore, StoreError, StoreUrl};
pub use throttle::Throttle;
