//! Cross-crate integration: real bytes through the full encrypted-
//! deduplication stack — chunking → MLE → DDFS-style store → sealed recipes
//! → restore.

use freqdedup::chunking::cdc::{chunk_spans, CdcParams};
use freqdedup::chunking::content_fingerprint;
use freqdedup::mle::recipes::{open, seal, FileRecipe, KeyRecipe};
use freqdedup::mle::server_aided::{KeyServer, ServerAidedMle};
use freqdedup::mle::{convergent::Convergent, Mle};
use freqdedup::store::engine::{DedupConfig, DedupEngine};
use freqdedup::trace::ChunkRecord;

fn sample_file(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

fn store_and_restore(mle: &impl Mle, file: &[u8]) -> Vec<u8> {
    let cdc = CdcParams::with_avg_size(2048).expect("valid parameters");
    let mut engine = DedupEngine::open(DedupConfig::paper(4 * 1024 * 1024, 100_000)).unwrap();
    let mut file_recipe = FileRecipe::new("f");
    let mut key_recipe = KeyRecipe::new();
    for span in chunk_spans(file, &cdc) {
        let plain = &file[span];
        let (key, ct) = mle.encrypt(plain).expect("encrypt");
        let record = ChunkRecord::new(content_fingerprint(&ct), ct.len() as u32);
        engine.process_with_payload(record, &ct);
        file_recipe.chunks.push(record);
        key_recipe.keys.push(key);
    }
    engine.finish();

    // Seal and re-open the recipes under a user key (metadata protection).
    let user_key = [9u8; 32];
    let fr = FileRecipe::from_bytes(
        &open(
            &user_key,
            &seal(&user_key, &[1; 16], &file_recipe.to_bytes()),
        )
        .unwrap(),
    )
    .unwrap();
    let kr = KeyRecipe::from_bytes(
        &open(
            &user_key,
            &seal(&user_key, &[2; 16], &key_recipe.to_bytes()),
        )
        .unwrap(),
    )
    .unwrap();

    let mut restored = Vec::new();
    for (record, key) in fr.chunks.iter().zip(&kr.keys) {
        let ct = engine.read_chunk(record.fp).expect("stored chunk");
        restored.extend_from_slice(&mle.decrypt_with_key(key, ct));
    }
    restored
}

#[test]
fn convergent_round_trip_through_store() {
    let file = sample_file(200_000, 7);
    assert_eq!(store_and_restore(&Convergent::new(), &file), file);
}

#[test]
fn server_aided_round_trip_through_store() {
    let file = sample_file(150_000, 21);
    let mle = ServerAidedMle::new(KeyServer::new([3u8; 32]));
    assert_eq!(store_and_restore(&mle, &file), file);
}

#[test]
fn duplicate_files_deduplicate_under_mle() {
    // Two users store the same file: the second ingest stores nothing new.
    let file = sample_file(120_000, 5);
    let cdc = CdcParams::with_avg_size(2048).expect("valid parameters");
    let mle = Convergent::new();
    let mut engine = DedupEngine::open(DedupConfig::paper(4 * 1024 * 1024, 100_000)).unwrap();
    for _user in 0..2 {
        for span in chunk_spans(&file, &cdc) {
            let (_, ct) = mle.encrypt(&file[span]).unwrap();
            let record = ChunkRecord::new(content_fingerprint(&ct), ct.len() as u32);
            engine.process_with_payload(record, &ct);
        }
    }
    engine.finish();
    let stats = engine.stats();
    assert_eq!(stats.unique_chunks * 2, stats.logical_chunks);
    assert!((stats.dedup_ratio() - 2.0).abs() < 1e-9);
}

#[test]
fn shifted_file_mostly_deduplicates() {
    // CDC robustness end to end: prepend bytes, most chunks still dedup.
    let file = sample_file(300_000, 11);
    let mut shifted = vec![0u8; 13];
    shifted.extend_from_slice(&file);

    let cdc = CdcParams::with_avg_size(2048).expect("valid parameters");
    let mle = Convergent::new();
    let mut engine = DedupEngine::open(DedupConfig::paper(4 * 1024 * 1024, 100_000)).unwrap();
    for data in [&file, &shifted] {
        for span in chunk_spans(data, &cdc) {
            let (_, ct) = mle.encrypt(&data[span]).unwrap();
            let record = ChunkRecord::new(content_fingerprint(&ct), ct.len() as u32);
            engine.process_with_payload(record, &ct);
        }
    }
    engine.finish();
    let stats = engine.stats();
    assert!(
        stats.dedup_ratio() > 1.7,
        "dedup ratio {} after a 13-byte shift",
        stats.dedup_ratio()
    );
}
