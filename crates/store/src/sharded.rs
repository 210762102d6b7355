//! The former multi-shard engine type, kept as a single constructor for the
//! end-to-end benchmark package, which builds against it. Everything else
//! uses [`DedupEngine::open_sharded`].

use crate::engine::{DedupConfig, DedupEngine};
use crate::persist::PersistError;

/// Constructor shim for [`DedupEngine::open_sharded`].
#[derive(Debug)]
pub struct ShardedDedupEngine;

impl ShardedDedupEngine {
    /// Opens a store of `shards` fingerprint-prefix shards; exactly
    /// [`DedupEngine::open_sharded`].
    ///
    /// # Errors
    ///
    /// As [`DedupEngine::open_sharded`].
    pub fn open(config: DedupConfig, shards: usize) -> Result<DedupEngine, PersistError> {
        DedupEngine::open_sharded(config, shards)
    }
}
