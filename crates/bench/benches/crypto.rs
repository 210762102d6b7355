//! Microbenchmarks for the from-scratch crypto substrate: SHA-256, HMAC,
//! AES-256-CTR throughput on chunk-sized buffers, and the CRC-32 that
//! checksums every wire frame and container log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use freqdedup_crypto::{ctr::Aes256Ctr, hmac, sha256};
use freqdedup_trace::io::crc32;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [4096usize, 8192, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256::digest(data));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmac_sha256");
    let key = [7u8; 32];
    for size in [8usize, 4096] {
        let data = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| hmac::hmac(&key, data));
        });
    }
    group.finish();
}

fn bench_aes_ctr(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes256_ctr");
    for size in [4096usize, 8192] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut buf = vec![0u8; size];
            b.iter(|| {
                Aes256Ctr::new(&[1u8; 32], &[0u8; 16]).apply_keystream(&mut buf);
            });
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for size in [4096usize, 8192, 65536] {
        let data = vec![0x3cu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| crc32(data));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_aes_ctr,
    bench_crc32
);
criterion_main!(benches);
