//! A complete encrypted-deduplication store session on real bytes:
//! convergent-MLE encryption, DDFS-style deduplicated storage with payloads
//! **persisted to disk**, sealed file/key recipes, and a verified restore
//! *after a full store restart* — plus the RCE baseline demonstration that
//! even *randomized* MLE leaks frequencies through its deduplication tags
//! (§8).
//!
//! Run with: `cargo run --release --example encrypted_store`

use freqdedup::chunking::{cdc::CdcParams, content_fingerprint, records_from_bytes};
use freqdedup::mle::rce::Rce;
use freqdedup::mle::recipes::{open, seal, FileRecipe, KeyRecipe};
use freqdedup::mle::{convergent::Convergent, Mle};
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::store::persist::PersistConfig;
use freqdedup::trace::ChunkRecord;
use std::collections::HashMap;

fn main() {
    // A "file" with internal duplication: a 100 KiB segment repeated three
    // times (think: an embedded archive stored at three paths) plus a
    // unique tail. Content-defined chunking realigns inside each repeat, so
    // the interior chunks deduplicate.
    let segment: Vec<u8> = {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..100 * 1024)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    };
    let mut file = Vec::new();
    for _ in 0..3 {
        file.extend_from_slice(&segment);
    }
    file.extend((0..50 * 1024).map(|i| (i % 251) as u8));
    println!("file: {} bytes", file.len());

    // Chunk, encrypt with convergent MLE, store ciphertext payloads in a
    // *durable* engine: sealed containers land in per-container log files
    // under `store_dir`, committed through the manifest journal.
    let cdc = CdcParams::with_avg_size(4096).expect("valid parameters");
    let records = records_from_bytes(&file, &cdc);
    println!(
        "chunked: {} plaintext chunks, {} B average",
        records.len(),
        file.len() / records.len()
    );
    let mle = Convergent::new();
    let store_dir =
        std::env::temp_dir().join(format!("freqdedup-encrypted-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = DedupConfig {
        container_bytes: 64 * 1024, // small containers so the demo seals several
        persist: Some(PersistConfig::new(&store_dir)),
        ..DedupConfig::paper(8 * 1024 * 1024, 100_000)
    };
    let mut engine = DedupEngine::open(config.clone()).unwrap();

    let mut file_recipe = FileRecipe::new("demo/file.bin");
    let mut key_recipe = KeyRecipe::new();
    let spans = freqdedup::chunking::cdc::chunk_spans(&file, &cdc);
    for span in spans {
        let plain = &file[span];
        let (key, ciphertext) = mle.encrypt(plain).expect("convergent never fails");
        let cipher_fp = content_fingerprint(&ciphertext);
        let record = ChunkRecord::new(cipher_fp, ciphertext.len() as u32);
        engine.process_with_payload(record, &ciphertext);
        file_recipe.chunks.push(record);
        key_recipe.keys.push(key);
    }
    engine.finish();

    let stats = engine.stats();
    println!(
        "stored: {} logical chunks -> {} unique ({:.1}% saving from intra-file duplicates)",
        stats.logical_chunks,
        stats.unique_chunks,
        stats.storage_saving() * 100.0
    );

    // Seal the recipes under the user's own key (conventional encryption —
    // the adversary of the threat model never reads these).
    let user_key = [42u8; 32];
    let sealed_fr = seal(&user_key, &[1u8; 16], &file_recipe.to_bytes());
    let sealed_kr = seal(&user_key, &[2u8; 16], &key_recipe.to_bytes());

    // Shut the store down... and recover it from disk: `close()` flushes
    // the open container and snapshots the index; `open()` replays the
    // manifest journal and resumes exactly where the old process stopped.
    let stats_before = engine.stats();
    let containers_before = engine.shards()[0].containers().sealed_count();
    engine.close().unwrap();
    let engine = DedupEngine::open(config).unwrap();
    assert_eq!(engine.stats(), stats_before);
    println!(
        "restart: recovered {} sealed containers from {} (stats bit-identical)",
        containers_before,
        store_dir.display()
    );

    // Restore: open recipes, fetch ciphertext chunks from the *recovered*
    // store, decrypt, reassemble.
    let fr = FileRecipe::from_bytes(&open(&user_key, &sealed_fr).unwrap()).unwrap();
    let kr = KeyRecipe::from_bytes(&open(&user_key, &sealed_kr).unwrap()).unwrap();
    let mut restored = Vec::new();
    for (record, key) in fr.chunks.iter().zip(&kr.keys) {
        let ciphertext = engine.read_chunk(record.fp).expect("chunk stored");
        restored.extend_from_slice(&mle.decrypt_with_key(key, ciphertext));
    }
    assert_eq!(restored, file);
    println!(
        "restore: OK ({} bytes, byte-identical after restart)",
        restored.len()
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    // RCE baseline: randomized bodies, but deterministic dedup tags still
    // expose the frequency distribution (§8).
    let rce = Rce::new();
    let mut tag_counts: HashMap<[u8; 32], u32> = HashMap::new();
    for (i, span) in freqdedup::chunking::cdc::chunk_spans(&file, &cdc)
        .into_iter()
        .enumerate()
    {
        let mut l = [0u8; 32];
        l[..8].copy_from_slice(&(i as u64).to_le_bytes()); // fresh randomness
        let ct = rce.encrypt(&file[span], &l);
        *tag_counts.entry(ct.tag).or_insert(0) += 1;
    }
    let max_tag = tag_counts.values().max().unwrap();
    println!(
        "RCE tags: {} distinct tags, most frequent appears {max_tag}x — the \
         frequency distribution survives randomized encryption",
        tag_counts.len()
    );
}
