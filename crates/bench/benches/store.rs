//! Microbenchmarks for the DDFS-like storage engine: Bloom filter, LRU
//! cache, and ingest throughput on duplicate-heavy vs unique streams.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use freqdedup_store::bloom::BloomFilter;
use freqdedup_store::cache::FingerprintCache;
use freqdedup_store::engine::{DedupConfig, DedupEngine};
use freqdedup_trace::{ChunkRecord, Fingerprint};

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    group.throughput(Throughput::Elements(1));
    let mut bloom = BloomFilter::paper_default(1_000_000);
    for i in 0..500_000u64 {
        bloom.insert(Fingerprint(i.wrapping_mul(0x9e3779b97f4a7c15)));
    }
    let mut i = 0u64;
    group.bench_function("insert", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            bloom.insert(Fingerprint(i));
        });
    });
    group.bench_function("query_absent", |b| {
        b.iter(|| bloom.contains(Fingerprint(u64::MAX - 1)));
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("fingerprint_cache");
    group.throughput(Throughput::Elements(1));
    let mut cache = FingerprintCache::new(100_000);
    for i in 0..100_000u64 {
        cache.insert(Fingerprint(i));
    }
    let mut i = 0u64;
    group.bench_function("hit", |b| {
        b.iter(|| {
            i = (i + 1) % 100_000;
            cache.lookup(Fingerprint(i))
        });
    });
    group.bench_function("insert_evict", |b| {
        let mut j = 200_000u64;
        b.iter(|| {
            j += 1;
            cache.insert(Fingerprint(j));
        });
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedup_engine_ingest");
    group.sample_size(10);
    let unique: Vec<ChunkRecord> = (0..200_000u64)
        .map(|i| ChunkRecord::new(i.wrapping_mul(0x9e3779b97f4a7c15), 8192))
        .collect();
    group.throughput(Throughput::Elements(unique.len() as u64));
    group.bench_function("unique_stream", |b| {
        b.iter(|| {
            let mut engine =
                DedupEngine::open(DedupConfig::paper(64 * 1024 * 1024, 300_000)).unwrap();
            for &rec in &unique {
                engine.process(rec);
            }
            engine.finish();
        });
    });
    group.bench_function("second_full_backup", |b| {
        // Duplicate-heavy: the locality prefetch path dominates.
        let mut engine = DedupEngine::open(DedupConfig::paper(64 * 1024 * 1024, 300_000)).unwrap();
        for &rec in &unique {
            engine.process(rec);
        }
        engine.finish();
        b.iter(|| {
            for &rec in &unique {
                engine.process(rec);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_bloom, bench_cache, bench_engine);
criterion_main!(benches);
