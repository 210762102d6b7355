//! Replays for the traced run: the same inputs and committed stream fed
//! straight into single layers (chunker, MLE, trace encryptor, a
//! standalone dedup engine), each call timed from the outside.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use freqdedup_chunking::{chunk_stream_par, content_fingerprint};
use freqdedup_mle::Mle;
use freqdedup_store::engine::DedupEngine;
use freqdedup_trace::par::ParConfig;
use freqdedup_trace::Backup;

use crate::inputs::{Inputs, Kind, Plan, UnitData};
use crate::run::engine_config;

/// Client-side layer times of one pass over every content unit.
#[derive(Debug, Default)]
pub struct ClientReplay {
    pub chunk_s: f64,
    pub chunks: u64,
    pub bytes: u64,
    pub derive_key_s: f64,
    pub encrypt_s: f64,
    pub fingerprint_s: f64,
    pub hmac_s: f64,
    pub hmac_fps: u64,
}

/// Chunks and MLE-encrypts every content unit call by call (content
/// workload), and HMAC-encrypts the auxiliary month's unique fingerprints
/// (trace-attack workload).
///
/// # Errors
///
/// Propagates an MLE key-derivation failure.
pub fn client(plan: &Plan, inputs: &Inputs) -> Result<ClientReplay, String> {
    let mut r = ClientReplay::default();
    let p = &inputs.pipeline;
    for unit in &inputs.units {
        let UnitData::Bytes(data) = &unit.data else {
            continue;
        };
        let t = Instant::now();
        let spans = chunk_stream_par(data, &p.chunker, ParConfig::with_threads(plan.par_threads));
        r.chunk_s += t.elapsed().as_secs_f64();
        r.chunks += spans.len() as u64;
        r.bytes += data.len() as u64;
        for span in spans {
            let chunk = &data[span];
            let t = Instant::now();
            let key = p
                .mle
                .derive_key(chunk)
                .map_err(|e| format!("derive key: {e}"))?;
            let t1 = Instant::now();
            let ct = p.mle.encrypt_with_key(&key, chunk);
            let t2 = Instant::now();
            std::hint::black_box(content_fingerprint(&ct));
            r.fingerprint_s += t2.elapsed().as_secs_f64();
            r.encrypt_s += (t2 - t1).as_secs_f64();
            r.derive_key_s += (t1 - t).as_secs_f64();
        }
    }
    if plan.kind == Kind::TraceAttack {
        let unique = inputs.aux.unique_fingerprints();
        let t = Instant::now();
        for fp in &unique {
            std::hint::black_box(inputs.encryptor.encrypt_fp(*fp));
        }
        r.hmac_s = t.elapsed().as_secs_f64();
        r.hmac_fps = unique.len() as u64;
    }
    Ok(r)
}

/// What a standalone engine did with the committed stream.
#[derive(Debug, Default)]
pub struct StoreReplay {
    pub ingest_s: f64,
    pub commit_s: f64,
    pub logical_chunks: u64,
    pub duplicates: u64,
    pub cache_hits: u64,
    pub index_hits: u64,
    pub bloom_false_positives: u64,
    pub metadata_bytes: u64,
    pub containers_sealed: u64,
}

/// Replays `tape` (commit order) into a fresh standalone [`DedupEngine`]
/// under the workload's store configuration, rooted at `dir`.
///
/// # Errors
///
/// The engine failed to open, commit or close.
pub fn store(
    plan: &Plan,
    dir: &Path,
    tape: &[Backup],
    payloads: &HashMap<u64, Vec<u8>>,
) -> Result<StoreReplay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut engine = DedupEngine::open(engine_config(plan, dir, None, 0))
        .map_err(|e| format!("replay open: {e}"))?;
    let mut r = StoreReplay::default();
    for (id, backup) in (1u64..).zip(tape) {
        let t = Instant::now();
        for &rec in &backup.chunks {
            match payloads.get(&rec.fp.value()) {
                Some(bytes) => engine.process_with_payload(rec, bytes),
                None => engine.process(rec),
            };
        }
        let t1 = Instant::now();
        engine
            .commit_backup(id, id, &backup.chunks)
            .map_err(|e| format!("replay commit: {e}"))?;
        r.commit_s += t1.elapsed().as_secs_f64();
        r.ingest_s += (t1 - t).as_secs_f64();
    }
    let stats = engine.stats();
    r.logical_chunks = stats.logical_chunks;
    r.duplicates = stats.duplicates();
    r.cache_hits = stats.dup_cache_hits;
    r.index_hits = stats.dup_index_hits;
    r.bloom_false_positives = stats.bloom_false_positives;
    r.containers_sealed = stats.containers_sealed;
    r.metadata_bytes = engine.metadata_access().total_bytes();
    engine.close().map_err(|e| format!("replay close: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(r)
}
