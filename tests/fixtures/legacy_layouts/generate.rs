//! Generator of the legacy-layout store fixtures in this directory.
//!
//! Not a build target: it is written against the store API of commit
//! 93b755f (two engine types and the `index_shards` knob), whose on-disk
//! layouts the fixtures pin. To regenerate them:
//!
//! ```text
//! mkdir -p /tmp/old && git archive 93b755f | tar -x -C /tmp/old
//! cp tests/fixtures/legacy_layouts/generate.rs /tmp/old/examples/
//! (cd /tmp/old && cargo run --offline --release --example generate -- "$OUT")
//! cp -r "$OUT"/* tests/fixtures/legacy_layouts/    # OUT: an absolute path
//! ```
//!
//! Every store runs the same churn workload (three payload backups, a
//! deletion, GC, one re-commit), closes cleanly and records its counters
//! and committed backups in `expected.txt`; `tests/persistence.rs` reopens
//! each one and checks that line and byte-identical restores.

use std::path::Path;

use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::store::persist::{FsyncPolicy, PersistConfig};
use freqdedup::store::sharded::ShardedDedupEngine;
use freqdedup::trace::ChunkRecord;

fn config(dir: &Path, index_shards: usize) -> DedupConfig {
    DedupConfig {
        container_bytes: 256,
        cache_entries: 16,
        entry_bytes: 32,
        bloom_expected: 1_000,
        bloom_fp_rate: 0.01,
        index_shards,
        persist: Some(PersistConfig::new(dir).fsync(FsyncPolicy::Never)),
    }
}

/// Backup id → its chunks (backup 4 re-commits backup 1's content).
fn backup(id: u64) -> Vec<ChunkRecord> {
    let range = match id {
        1 | 4 => 1..=24,
        2 => 16..=40,
        _ => 36..=60,
    };
    let record = |i: u64| ChunkRecord::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 16 + i as u32 % 3 * 8);
    range.map(record).collect()
}

/// Payload: the fingerprint bytes cycled to the chunk size.
fn bytes(r: ChunkRecord) -> Vec<u8> {
    let fp = r.fp.value().to_le_bytes();
    fp.into_iter().cycle().take(r.size as usize).collect()
}

macro_rules! churn {
    ($e:expr) => {{
        for id in [1u64, 2, 3, 4] {
            for &r in &backup(id) {
                $e.process_with_payload(r, &bytes(r));
            }
            $e.commit_backup(id, 10 * id, &backup(id)).unwrap();
            if id == 3 {
                $e.delete_backup(2).unwrap();
                $e.gc(500);
            }
        }
        let m = $e.metadata_access();
        let metadata = [m.update_bytes, m.index_bytes, m.loading_bytes];
        let summary = ($e.stats().to_array(), metadata, $e.loading_ops(), $e.committed_backups());
        $e.close().unwrap();
        format!("{summary:?}\n")
    }};
}

fn main() {
    let out = std::env::args().nth(1).expect("usage: generate OUT_DIR");
    let out = Path::new(&out);
    for (name, shards, index_shards) in [
        ("flat", 0, 1),
        ("index-shards-2", 0, 2),
        ("sharded-1", 1, 1),
        ("sharded-4", 4, 1),
    ] {
        let dir = out.join(name).join("store");
        std::fs::create_dir_all(&dir).unwrap();
        let expected = if shards == 0 {
            let mut e = DedupEngine::open(config(&dir, index_shards)).unwrap();
            churn!(e)
        } else {
            let mut e = ShardedDedupEngine::open(config(&dir, index_shards), shards).unwrap();
            churn!(e)
        };
        std::fs::write(out.join(name).join("expected.txt"), expected).unwrap();
    }
}
