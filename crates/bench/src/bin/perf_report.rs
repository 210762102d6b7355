//! `perf_report` — machine-readable performance trajectory of the attack
//! pipeline.
//!
//! Runs the full pipeline — MLE trace encryption, dedup-store ingest, and
//! the locality attack (COUNT + crawl, ciphertext-only) — on a synthetic
//! FSL-like backup pair over **three** implementations:
//!
//! * the fingerprint-keyed reference path (`ChunkStats` + hash-map crawl,
//!   the pre-dense layout),
//! * the sequential dense-id/CSR path (`DenseStats`, interning + one-sort
//!   co-occurrence tables), and
//! * the sharded parallel path (`freqdedup_core::par`: sharded COUNT/CSR,
//!   batch-parallel encryption, prefix-sharded store ingest) at
//!   `--threads` workers,
//!
//! checks that all inference sets are identical, and writes one row per
//! measurement to `BENCH_attack.json` (format and gates: DESIGN.md §6).
//! Every run also measures, under the row prefix named:
//!
//! * `serve.` — the network service on loopback: ingest throughput at 1,
//!   4 and 8 concurrent clients and single-client restore of a committed
//!   manifest;
//! * `streaming.` — the incremental attack engine: the cipher stream
//!   folded as 64 committed epochs, per-commit update latency (amortized,
//!   worst-case, worst compaction stall), first-half vs second-half
//!   throughput (per-chunk cost must not grow with history), and the final
//!   streaming inference checked against the batch series recompute;
//! * `faults.` — four `ResilientClient`s uploading through a `FaultProxy`
//!   (resets, torn frames, delays) vs a fault-free resilient baseline:
//!   retry counts, reconnect latency, overhead, and an exactly-once audit
//!   of what the server committed;
//! * `chunking.` — rabin-cdc vs gear-hash fastcdc MB/s on raw bytes,
//!   sequential and parallel, the fastcdc size distribution, and a
//!   parallel-equals-sequential identity check;
//! * `crypto.` — AES-256-CTR (8 KiB chunks, a key each) and CRC-32 MB/s,
//!   the two kernels every restored or recovered payload byte passes
//!   through;
//! * `lifecycle.` — 8 backup generations in a durable store, every other
//!   one deleted, GC compaction (reclaim MB/s), a REED-style rekey, and
//!   the locality attack on the churned stream vs the append-only one;
//!   surviving recipes are checked intact.
//!
//! With `--persist DIR` the `persist.` rows time the durable backend:
//! disk-backed ingest + close (fsync-always), then a cold-open recovery
//! whose counters are checked against the in-memory run.
//!
//! Exits 1 when any `flag` row is false.
//!
//! Usage: `perf_report [--quick] [--threads T] [--persist DIR] [--out PATH]`
//!
//! * `--quick` — CI-sized run (~60k logical chunks per backup, default
//!   ~1M);
//! * `--threads T` — parallel-path worker threads (default 0 = auto);
//! * `--persist DIR` — also time the durable store backend rooted at DIR
//!   (the directory is cleared first);
//! * `--out PATH` — output path (default `BENCH_attack.json`).

use freqdedup_bench::cli;
use freqdedup_bench::harness::{self, build_pair, sorted_pairs, store_config, timed};
use freqdedup_bench::output::{Kind, Rows};
use freqdedup_core::attacks::locality::{LocalityAttack, LocalityParams};
use freqdedup_core::counting::ChunkStats;
use freqdedup_core::dense::DenseStats;
use freqdedup_core::par::ParConfig;
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup_store::engine::{DedupConfig, DedupEngine};
use freqdedup_store::persist::PersistConfig;
use freqdedup_trace::Backup;

use Kind::{Exact, Higher, Info};

const USAGE: &str = "usage: perf_report [--quick] [--threads T] [--persist DIR] [--out PATH]
Times MLE encryption, store ingest and the locality attack (COUNT + crawl)
on a synthetic backup pair over the reference hash-map path, the sequential
dense-id/CSR path and the sharded parallel path, verifies identical
inference output, and writes one row per measurement to BENCH_attack.json.
Every run also times the loopback network service, the incremental attack
engine, the resilient client stack under a seeded fault schedule, the
chunking engines, the AES-CTR and CRC-32 kernels and the storage lifecycle
under churn; with --persist DIR the durable store backend is also timed
(disk ingest, close, cold-open recovery). Exits 1 when any correctness flag
row is false.";

/// Times the durable store backend rooted at `dir`: disk-backed ingest +
/// close with the crash-safe fsync-always policy, then a cold-open
/// recovery checked bit-for-bit against the pre-restart counters.
/// `totals` are the in-memory run's `(logical, unique)` chunk counts.
fn bench_persist(dir: &str, cipher: &Backup, unique: usize, totals: (u64, u64)) -> Rows {
    eprintln!("perf_report: timing durable store backend under {dir}...");
    let dir = std::path::PathBuf::from(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let pconfig = DedupConfig {
        persist: Some(PersistConfig::new(&dir)),
        ..store_config(unique)
    };
    let (ingest_ms, engine) = timed(|| {
        let mut engine = DedupEngine::open(pconfig.clone()).expect("fresh persistent dir");
        engine.ingest_backup(cipher, ParConfig::sequential());
        engine.finish();
        engine
    });
    let disk_stats = engine.stats();
    assert_eq!(
        totals,
        (disk_stats.logical_chunks, disk_stats.unique_chunks),
        "disk-backed ingest diverged from in-memory totals"
    );
    let (close_ms, ()) = timed(|| engine.close().expect("close persistent engine"));
    let (cold_open_ms, recovered) =
        timed(|| DedupEngine::open(pconfig.clone()).expect("cold-open recovery"));
    assert_eq!(
        recovered.stats(),
        disk_stats,
        "cold-open recovery diverged from the closed engine"
    );
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let mut rows = Rows::default();
    rows.push(Info, "ingest_ms", "ms", (ingest_ms, 1));
    rows.push(Info, "close_ms", "ms", (close_ms, 1));
    rows.push(Info, "cold_open_ms", "ms", (cold_open_ms, 1));
    let containers = recovered.shards()[0].containers().sealed_count();
    rows.push(Info, "containers", "count", containers);
    rows.push(Info, "disk_bytes", "bytes", disk_bytes);
    rows
}

/// Times the loopback network service: N concurrent clients each upload
/// a contiguous slice of the cipher stream (metadata mode, pipelined
/// batches) and commit, then a single client restores one committed
/// manifest. Only the single-client rates are gated: multi-client
/// throughput depends on the machine's core count.
fn bench_serve(cipher: &Backup, unique: usize) -> Rows {
    use freqdedup_server::client::Client;
    use freqdedup_server::server::{Server, ServerConfig};

    let start = |workers: usize| {
        let server = Server::bind(ServerConfig {
            workers,
            engine: store_config(unique),
            ..ServerConfig::default()
        })
        .expect("bind loopback bench server");
        let addr = server.local_addr().expect("local addr");
        (
            addr,
            std::thread::spawn(move || server.run().expect("serve")),
        )
    };

    let mut rows = Rows::default();
    for clients in [1usize, 4, 8] {
        eprintln!("perf_report: serve ingest, {clients} loopback client(s)...");
        let (addr, handle) = start(clients);
        let slices = freqdedup_core::par::shard_ranges(cipher.chunks.len(), clients);
        let (ingest_ms, ()) = timed(|| {
            std::thread::scope(|scope| {
                for (i, range) in slices.iter().cloned().enumerate() {
                    let chunks = &cipher.chunks[range];
                    scope.spawn(move || {
                        let mut client = Client::connect(addr, &format!("bench-{i}"))
                            .expect("connect bench client");
                        let part = Backup::from_chunks(format!("part-{i:02}"), chunks.to_vec());
                        client.upload_backup(&part).expect("upload");
                        client.commit(&part.label).expect("commit");
                    });
                }
            });
        });
        let mut closer = Client::connect(addr, "bench-closer").expect("connect closer");
        let stats = closer.stats().expect("stats");
        assert_eq!(
            stats.logical_chunks,
            cipher.len() as u64,
            "serve ingest lost chunks"
        );
        closer.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        let kind = if clients == 1 { Higher } else { Info };
        rows.push(Info, format!("x{clients}.ingest_ms"), "ms", (ingest_ms, 1));
        let tput = cipher.len() as f64 / ingest_ms;
        rows.push(
            kind,
            format!("x{clients}.chunks_per_ms"),
            "chunks/ms",
            (tput, 1),
        );
    }

    // Restore latency: one committed manifest streamed back whole.
    let (addr, handle) = start(1);
    let mut client = Client::connect(addr, "bench-restore").expect("connect");
    let whole = Backup::from_chunks("whole", cipher.chunks.clone());
    client.upload_backup(&whole).expect("upload");
    client.commit("whole").expect("commit");
    let (restore_ms, restored) = timed(|| client.restore("whole").expect("restore"));
    assert_eq!(restored.backup.chunks, whole.chunks, "restore diverged");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    rows.push(Info, "restore_ms", "ms", (restore_ms, 1));
    let tput = whole.len() as f64 / restore_ms;
    rows.push(Higher, "restore_chunks_per_ms", "chunks/ms", (tput, 1));
    rows
}

/// Times the incremental attack engine: the cipher stream is split into 64
/// committed epochs folded one at a time into a running `IncrementalStats`
/// (what the adversary tap maintains behind live traffic). Records
/// per-commit update latency — amortized and worst-case, plus the worst
/// commit that triggered a CSR segment merge (compaction stall) — and
/// first-half vs second-half throughput as sublinearity evidence, then
/// checks the final streaming inference bit-identical against a batch
/// series recompute of the same tape. Only the amortized throughput is
/// gated: which commit absorbs the deepest merge depends on the epoch
/// count, not on the code.
fn bench_streaming(cipher: &Backup, aux: &Backup, threads: usize) -> Rows {
    use freqdedup_core::attacks::{self, AttackKind};
    use freqdedup_core::IncrementalStats;

    const EPOCHS: usize = 64;
    eprintln!("perf_report: streaming attack updates over {EPOCHS} committed epochs...");
    let tape: Vec<Backup> = freqdedup_core::par::shard_ranges(cipher.chunks.len(), EPOCHS)
        .into_iter()
        .filter(|r| !r.is_empty())
        .enumerate()
        .map(|(i, r)| Backup::from_chunks(format!("epoch-{i:03}"), cipher.chunks[r].to_vec()))
        .collect();
    let params = LocalityParams::default().threads(threads);

    let mut stats = IncrementalStats::new(params.tie_policy);
    let mut per_commit_ms: Vec<f64> = Vec::with_capacity(tape.len());
    let mut worst_ms = 0.0f64;
    let mut worst_compaction_ms = 0.0f64;
    let mut merged_entries: usize = 0;
    for epoch in &tape {
        let (ms, receipt) = timed(|| stats.commit(epoch));
        per_commit_ms.push(ms);
        worst_ms = worst_ms.max(ms);
        if receipt.merged_entries > 0 {
            worst_compaction_ms = worst_compaction_ms.max(ms);
            merged_entries += receipt.merged_entries;
        }
    }
    let total_ms: f64 = per_commit_ms.iter().sum();
    // Sublinearity evidence: per-chunk update cost in the second half of
    // the tape (deep history) vs the first half (shallow history).
    let half = tape.len() / 2;
    let half_tput = |epochs: &[Backup], ms: &[f64]| {
        let chunks: usize = epochs.iter().map(Backup::len).sum();
        chunks as f64 / ms.iter().sum::<f64>().max(1e-9)
    };
    let first_half_tput = half_tput(&tape[..half], &per_commit_ms[..half]);
    let second_half_tput = half_tput(&tape[half..], &per_commit_ms[half..]);
    let csr_merges = stats.left().merges() + stats.right().merges();

    let (attack_ms, streamed) = timed(|| {
        attacks::run_ciphertext_only_streaming(AttackKind::Locality, &stats, aux, &params)
    });
    let (batch_ms, batch) =
        timed(|| attacks::run_ciphertext_only_series(AttackKind::Locality, &tape, aux, &params));

    let mut rows = Rows::default();
    rows.push(Info, "epochs", "count", tape.len());
    rows.push(Info, "chunks", "chunks", cipher.len());
    rows.push(Info, "update_total_ms", "ms", (total_ms, 1));
    let amortized_ms = total_ms / tape.len() as f64;
    rows.push(Info, "update_amortized_ms", "ms", (amortized_ms, 2));
    rows.push(Info, "update_worst_ms", "ms", (worst_ms, 2));
    rows.push(Info, "worst_compaction_ms", "ms", (worst_compaction_ms, 2));
    let tput = cipher.len() as f64 / total_ms.max(1e-9);
    rows.push(Higher, "update_chunks_per_ms", "chunks/ms", (tput, 1));
    rows.push(
        Info,
        "first_half_chunks_per_ms",
        "chunks/ms",
        (first_half_tput, 1),
    );
    rows.push(
        Info,
        "second_half_chunks_per_ms",
        "chunks/ms",
        (second_half_tput, 1),
    );
    rows.push(Info, "csr_merges", "count", csr_merges);
    rows.push(Info, "merged_entries", "count", merged_entries);
    rows.push(Info, "attack_ms", "ms", (attack_ms, 1));
    rows.push(Info, "batch_attack_ms", "ms", (batch_ms, 1));
    rows.flag(
        "identical_inference",
        sorted_pairs(&streamed) == sorted_pairs(&batch),
    );
    rows
}

/// Times the resilient client stack under a seeded network fault schedule:
/// four `ResilientClient`s upload contiguous slices of the cipher stream
/// and commit under fixed commit ids — once directly against the server
/// (the fault-free baseline), once through a `FaultProxy` injecting
/// connection resets, torn frames and delays. After each run the
/// exactly-once contract is audited over the wire: every committed stream
/// must restore byte-identical to what its client sent, and retried
/// batches must never double-ingest (`logical_chunks` bounded by the
/// chunks sent). Every timing row is info: a seeded schedule's cost moves
/// with socket timing, not with the code.
fn bench_faults(cipher: &Backup, unique: usize) -> Rows {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use freqdedup_server::client::{
        Client, ClientError, ResilienceReport, ResilientClient, RetryOptions,
    };
    use freqdedup_server::fault::{FaultProxy, FaultSpec};
    use freqdedup_server::server::{Server, ServerConfig};

    const CLIENTS: usize = 4;
    // Generous so the seeded schedule exercises retries without ever
    // exhausting a client: the section measures overhead, not failure.
    let opts = RetryOptions {
        max_attempts: 20,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        op_timeout: Duration::from_secs(30),
        batch: 512,
    };

    // One upload-fleet run: wall-clock ms, per-client outcome + resilience
    // report, whether the exactly-once audit held, and the injected fault
    // counts [resets, partials, delays, frames] (zero without a proxy).
    type Outcome = (Result<u64, ClientError>, ResilienceReport);
    let run = |spec: Option<FaultSpec>| -> (f64, Vec<Outcome>, bool, [u64; 4]) {
        let server = Server::bind(ServerConfig {
            workers: CLIENTS,
            engine: store_config(unique),
            ..ServerConfig::default()
        })
        .expect("bind loopback bench server");
        let server_addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let proxy = spec.map(|s| FaultProxy::start(server_addr, s).expect("start fault proxy"));
        let upload_addr = proxy.as_ref().map_or(server_addr, FaultProxy::local_addr);

        let parts: Vec<Backup> = freqdedup_core::par::shard_ranges(cipher.chunks.len(), CLIENTS)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Backup::from_chunks(format!("fault-part-{i}"), cipher.chunks[r].to_vec()))
            .collect();
        let (ms, results) = timed(|| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = parts
                    .iter()
                    .enumerate()
                    .map(|(i, part)| {
                        scope.spawn(move || {
                            let mut client = ResilientClient::new(
                                upload_addr.to_string(),
                                format!("fault-bench-{i}"),
                                opts,
                            );
                            let out = client.upload_commit(part, 0x2000 + i as u64);
                            (out, client.report().clone())
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("resilient client must not panic"))
                    .collect::<Vec<Outcome>>()
            })
        });
        let injected = proxy.map_or([0; 4], |p| {
            let c = p.counts();
            let counts = [
                c.resets.load(Ordering::SeqCst),
                c.partials.load(Ordering::SeqCst),
                c.delays.load(Ordering::SeqCst),
                c.frames.load(Ordering::SeqCst),
            ];
            p.stop();
            counts
        });

        // Exactly-once audit over a clean direct connection: committed
        // streams restore byte-identical, retries never double-ingested.
        let mut checker = Client::connect(server_addr, "fault-bench-check").expect("connect");
        let stats = checker.stats().expect("stats");
        let mut intact = stats.logical_chunks <= cipher.len() as u64;
        for (part, (out, _)) in parts.iter().zip(&results) {
            if let Ok(chunks) = out {
                intact &= *chunks == part.len() as u64;
                let restored = checker
                    .restore(&part.label)
                    .expect("restore committed part");
                intact &= restored.backup.chunks == part.chunks;
            }
        }
        checker.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        (ms, results, intact, injected)
    };

    eprintln!("perf_report: faults — fault-free resilient baseline ({CLIENTS} clients)...");
    let (clean_ms, clean_results, clean_intact, _) = run(None);
    assert!(
        clean_results.iter().all(|(out, _)| out.is_ok()),
        "fault-free resilient baseline must commit every client"
    );
    eprintln!("perf_report: faults — seeded fault schedule through the proxy...");
    // The cut rate scales inversely with the upload length: this section
    // measures the cost of *succeeding* under faults, so it aims for a
    // couple of connection cuts per client at any run size — a fixed
    // per-frame rate would leave quick runs fault-free and exhaust every
    // full-size client's retry budget (~500 frames per upload).
    let batches_per_client = cipher.chunks.len().div_ceil(CLIENTS * opts.batch).max(1);
    let cut_per_mille = ((1500 / batches_per_client) as u16).clamp(1, 25);
    let spec = FaultSpec::quiet(0x00FA_0175)
        .resets(cut_per_mille)
        .partials(cut_per_mille)
        .delays(30, 2);
    let (faulted_ms, results, fault_intact, injected) = run(Some(spec));

    let sum = |f: fn(&ResilienceReport) -> u64| results.iter().map(|(_, r)| f(r)).sum::<u64>();
    let reconnects: Vec<u64> = results
        .iter()
        .flat_map(|(_, r)| r.connect_micros.iter().copied())
        .collect();
    let reconnect_mean_us = reconnects.iter().sum::<u64>() as f64 / reconnects.len().max(1) as f64;
    let [resets, partials, delays, frames] = injected;

    let mut rows = Rows::default();
    rows.push(Info, "clients", "count", CLIENTS);
    rows.push(Info, "clean_ms", "ms", (clean_ms, 1));
    rows.push(Info, "faulted_ms", "ms", (faulted_ms, 1));
    rows.push(Info, "overhead", "x", (faulted_ms / clean_ms.max(1e-9), 2));
    rows.push(Info, "retries", "count", sum(|r| r.retries));
    rows.push(Info, "connects", "count", sum(|r| r.connects));
    rows.push(Info, "batches_skipped", "count", sum(|r| r.batches_skipped));
    let backoff_ms = sum(|r| r.backoff_micros) as f64 / 1e3;
    rows.push(Info, "backoff_ms", "ms", (backoff_ms, 1));
    rows.push(Info, "reconnect_mean_us", "us", (reconnect_mean_us, 0));
    let reconnect_max_us = reconnects.iter().copied().max().unwrap_or(0);
    rows.push(Info, "reconnect_max_us", "us", reconnect_max_us);
    rows.push(Info, "injected_resets", "count", resets);
    rows.push(Info, "injected_partials", "count", partials);
    rows.push(Info, "injected_delays", "count", delays);
    rows.push(Info, "proxied_frames", "count", frames);
    let failed_clients = results.iter().filter(|(out, _)| out.is_err()).count();
    rows.push(Info, "failed_clients", "count", failed_clients);
    rows.flag("exactly_once", clean_intact && fault_intact);
    rows
}

/// Repetitions [`best_of`] takes per timed configuration.
const REPS: usize = 3;

/// Runs `f` `reps` times and keeps the fastest run's time and output —
/// the minimum is the least-noise estimate of a hot loop's cost on a
/// shared machine, and what the bench guard's throughput comparison wants
/// to see.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut ms, mut out) = timed(&mut f);
    for _ in 1..reps {
        let (m, o) = timed(&mut f);
        if m < ms {
            (ms, out) = (m, o);
        }
    }
    (ms, out)
}

/// Times the two kernels every restored payload byte passes through:
/// AES-256-CTR over 8 KiB chunks under a fresh key each (as convergent
/// MLE decrypts them, key schedule included) and CRC-32 (frame and
/// container-log checksums), each the best of [`REPS`] passes over the
/// same buffer.
fn bench_crypto(quick: bool) -> Rows {
    use freqdedup_crypto::ctr::Aes256Ctr;
    use freqdedup_trace::io::crc32;

    let mib: usize = if quick { 8 } else { 64 };
    eprintln!("perf_report: AES-256-CTR and CRC-32 over {mib} MiB...");
    let mut data = vec![0u8; mib << 20];
    let bytes = data.len() as f64;
    let mbps = |ms: f64| (bytes / 1e3 / ms.max(1e-9), 1);
    let (aes_ms, ()) = best_of(REPS, || {
        for (i, chunk) in data.chunks_mut(8192).enumerate() {
            let mut key = [0u8; 32];
            key[..8].copy_from_slice(&(i as u64).to_le_bytes());
            Aes256Ctr::new(&key, &[0u8; 16]).apply_keystream(chunk);
        }
    });
    let (crc_ms, crc) = best_of(REPS, || crc32(std::hint::black_box(&data)));
    std::hint::black_box(crc);

    let mut rows = Rows::default();
    rows.push(Info, "input_mib", "MiB", mib);
    rows.push(Higher, "aes256_ctr_mbps", "MB/s", mbps(aes_ms));
    rows.push(Higher, "crc32_mbps", "MB/s", mbps(crc_ms));
    rows
}

/// Times the chunking engines on deterministic pseudo-random bytes
/// (64 MiB full / 8 MiB quick): rabin-cdc vs gear-hash fastcdc at the
/// paper's 8 KB-average configuration, sequential and parallel
/// (`chunk_stream_par` at `threads` workers). Records MB/s per engine,
/// the fastcdc-vs-rabin sequential speedup, fastcdc chunk-size
/// distribution stats, and whether parallel spans are bit-identical to
/// sequential for both engines. Only sequential fastcdc is gated: it is
/// the engine the client pipeline rides; rabin is legacy and the parallel
/// rows depend on the core count.
fn bench_chunking(quick: bool, threads: usize) -> Rows {
    use freqdedup_chunking::cdc::CdcParams;
    use freqdedup_chunking::fastcdc::FastCdc;
    use freqdedup_chunking::{chunk_stream_par, Chunker};

    let mib: usize = if quick { 8 } else { 64 };
    eprintln!("perf_report: chunking {mib} MiB of pseudo-random bytes...");
    let mut x = 0x243f_6a88_85a3_08d3u64;
    let data: Vec<u8> = (0..mib << 20)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect();
    let mbps = |ms: f64| (data.len() as f64 / 1e3 / ms.max(1e-9), 1);

    let rabin = CdcParams::paper_8kb();
    let fast = FastCdc::paper_8kb();
    let par_cfg = ParConfig::with_threads(threads);

    // Warm each engine once on a prefix so first-touch table builds and
    // page faults don't land in a timed run, then take the best of three
    // repetitions per configuration.
    drop(rabin.spans(&data[..1 << 20]));
    drop(fast.spans(&data[..1 << 20]));

    let (rabin_seq_ms, rabin_spans) = best_of(REPS, || rabin.spans(&data));
    let (rabin_par_ms, rabin_par_spans) =
        best_of(REPS, || chunk_stream_par(&data, &rabin, par_cfg));
    let (fast_seq_ms, fast_spans) = best_of(REPS, || fast.spans(&data));
    let (fast_par_ms, fast_par_spans) = best_of(REPS, || chunk_stream_par(&data, &fast, par_cfg));

    let sizes: Vec<usize> = fast_spans.iter().map(std::ops::Range::len).collect();
    let mean_size = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;

    let mut rows = Rows::default();
    rows.push(Info, "input_mib", "MiB", mib);
    rows.push(Info, "rabin_seq_mbps", "MB/s", mbps(rabin_seq_ms));
    rows.push(Info, "rabin_par_mbps", "MB/s", mbps(rabin_par_ms));
    rows.push(Higher, "fastcdc_seq_mbps", "MB/s", mbps(fast_seq_ms));
    rows.push(Info, "fastcdc_par_mbps", "MB/s", mbps(fast_par_ms));
    let speedup = rabin_seq_ms / fast_seq_ms.max(1e-9);
    rows.push(Info, "speedup_vs_rabin", "x", (speedup, 2));
    rows.push(Info, "chunks", "count", sizes.len());
    rows.push(Info, "mean_size", "bytes", (mean_size, 0));
    let min_size = sizes.iter().copied().min().unwrap_or(0);
    rows.push(Info, "min_size", "bytes", min_size);
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    rows.push(Info, "max_size", "bytes", max_size);
    rows.flag(
        "par_identical",
        rabin_par_spans == rabin_spans && fast_par_spans == fast_spans,
    );
    rows
}

/// Times the storage lifecycle under churn. The cipher stream is split
/// into 8 generations committed as backups into a durable (fsync-never)
/// store under a scratch directory, then churned: every other generation
/// is deleted, a full GC compaction (`gc(1000)`) rewrites the survivors
/// and reclaims the dead bytes, and a REED-style rekey rewrites every
/// live container under epoch 1. Records delete/GC/rekey latency and the
/// physical reclaim throughput in MB/s (reclaimed dead bytes per GC
/// wall-second, the gated row), then measures what churn does to the
/// adversary: the locality attack on the churned tap (surviving
/// generations only) vs the append-only stream, with the inferred-pair
/// retention ratio. Surviving recipes are verified intact after the churn.
fn bench_lifecycle(cipher: &Backup, aux: &Backup, unique: usize, threads: usize) -> Rows {
    use freqdedup_store::persist::FsyncPolicy;

    const GENERATIONS: usize = 8;
    eprintln!("perf_report: lifecycle churn over {GENERATIONS} backup generations...");
    let dir =
        std::env::temp_dir().join(format!("freqdedup-lifecycle-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DedupConfig {
        persist: Some(PersistConfig::new(&dir).fsync(FsyncPolicy::Never)),
        ..store_config(unique)
    };

    let generations: Vec<Backup> =
        freqdedup_core::par::shard_ranges(cipher.chunks.len(), GENERATIONS)
            .into_iter()
            .filter(|r| !r.is_empty())
            .enumerate()
            .map(|(i, r)| Backup::from_chunks(format!("gen-{i}"), cipher.chunks[r].to_vec()))
            .collect();

    let (ingest_ms, mut engine) = timed(|| {
        let mut engine = DedupEngine::open(config).expect("fresh lifecycle scratch dir");
        for (i, gen) in generations.iter().enumerate() {
            engine.ingest_backup(gen, ParConfig::sequential());
            engine
                .commit_backup(i as u64 + 1, i as u64 + 1, &gen.chunks)
                .expect("commit generation");
        }
        engine
    });

    // Churn: delete every other generation (the odd ids), GC-compact,
    // then rekey what survives.
    let victims: Vec<u64> = (1..=generations.len() as u64).step_by(2).collect();
    let (delete_ms, deleted_bytes) = timed(|| {
        victims
            .iter()
            .map(|&id| {
                engine
                    .delete_backup(id)
                    .expect("delete generation")
                    .logical_bytes
            })
            .sum::<u64>()
    });
    let (gc_ms, report) = timed(|| engine.gc(1000));
    let (rekey_ms, rekey) = timed(|| engine.rekey(b"lifecycle-bench-epoch"));

    // Surviving recipes must be untouched by the compaction + rekey (one
    // shard: its recipes are the whole backups).
    let mut intact = engine.committed_backups().len() == generations.len() - victims.len();
    let shard = &engine.shards()[0];
    for (i, gen) in generations.iter().enumerate() {
        let id = i as u64 + 1;
        if victims.contains(&id) {
            intact &= shard.backup_recipe(id).is_none();
        } else {
            intact &= shard
                .backup_recipe(id)
                .is_some_and(|r| r.chunks == gen.chunks);
        }
    }
    engine.close().expect("close lifecycle engine");
    let _ = std::fs::remove_dir_all(&dir);

    // The adversary after churn: the tap catalog serves only the
    // survivors, so the attack sees a shorter, gappier stream.
    let attack = LocalityAttack::new(LocalityParams::default().threads(threads));
    let churned = Backup::from_chunks(
        "churned",
        generations
            .iter()
            .enumerate()
            .filter(|(i, _)| !victims.contains(&(*i as u64 + 1)))
            .flat_map(|(_, g)| g.chunks.iter().copied())
            .collect(),
    );
    let (attack_full_ms, full_inf) = timed(|| attack.run_ciphertext_only(cipher, aux));
    let (attack_churned_ms, churned_inf) = timed(|| attack.run_ciphertext_only(&churned, aux));

    let mut rows = Rows::default();
    rows.push(Info, "generations", "count", generations.len());
    rows.push(Info, "deleted_generations", "count", victims.len());
    rows.push(Info, "ingest_ms", "ms", (ingest_ms, 1));
    rows.push(Info, "delete_ms", "ms", (delete_ms, 1));
    rows.push(Info, "deleted_bytes", "bytes", deleted_bytes);
    rows.push(Info, "gc_ms", "ms", (gc_ms, 1));
    rows.push(Info, "reclaimed_bytes", "bytes", report.reclaimed_bytes);
    let reclaim_mbps = report.reclaimed_bytes as f64 / 1e3 / gc_ms.max(1e-9);
    rows.push(Higher, "reclaim_mb_per_s", "MB/s", (reclaim_mbps, 1));
    rows.push(
        Info,
        "containers_dropped",
        "count",
        report.containers_dropped,
    );
    rows.push(Info, "moved_chunks", "count", report.moved_chunks);
    rows.push(Info, "rekey_ms", "ms", (rekey_ms, 1));
    rows.push(Info, "epoch", "epoch", rekey.epoch);
    rows.push(
        Info,
        "containers_rewritten",
        "count",
        rekey.containers_rewritten,
    );
    rows.push(Info, "attack_full_ms", "ms", (attack_full_ms, 1));
    rows.push(Info, "attack_churned_ms", "ms", (attack_churned_ms, 1));
    rows.push(Info, "inferred_pairs_full", "pairs", full_inf.len());
    rows.push(Info, "inferred_pairs_churned", "pairs", churned_inf.len());
    let retention = churned_inf.len() as f64 / full_inf.len().max(1) as f64;
    rows.push(Info, "pair_retention", "ratio", (retention, 2));
    rows.flag("recipes_intact", intact);
    rows
}

fn main() {
    let args = cli::parse_report(std::env::args().skip(1), USAGE, true);
    let threads = ParConfig::with_threads(args.threads).resolve();
    let seq_params = LocalityParams::default();
    let par_params = LocalityParams::default().threads(threads);
    let seq_attack = LocalityAttack::new(seq_params.clone());
    let par_attack = LocalityAttack::new(par_params);

    eprintln!(
        "perf_report: generating pair (~{} chunks per backup), {threads} worker thread(s)...",
        args.chunks()
    );
    let (aux, target) = build_pair(args.chunks());
    let enc = DeterministicTraceEncryptor::new(harness::MLE_SECRET);

    // --- MLE layer: sequential vs batch-parallel trace encryption. ---
    let (seq_encrypt_ms, observed) = timed(|| enc.encrypt_backup(&target));
    let (par_encrypt_ms, observed_par) =
        timed(|| enc.encrypt_backup_par(&target, ParConfig::with_threads(threads)));
    let cipher = observed.backup;
    // Compare cheaply: a full-vector assert_eq would Debug-format two
    // million-element vectors into the panic message on divergence.
    assert_eq!(
        cipher.chunks.len(),
        observed_par.backup.chunks.len(),
        "parallel encryption diverged from sequential (stream length)"
    );
    if let Some(i) =
        (0..cipher.chunks.len()).find(|&i| cipher.chunks[i] != observed_par.backup.chunks[i])
    {
        panic!(
            "parallel encryption diverged from sequential at chunk {i}: {:?} vs {:?}",
            cipher.chunks[i], observed_par.backup.chunks[i]
        );
    }
    drop(observed_par);

    let unique = cipher.unique_count();
    let mut rows = Rows::default();
    rows.push(Info, "quick", "bool", args.quick);
    rows.push(Info, "threads", "threads", threads);
    rows.push(Exact, "logical_chunks_per_backup", "chunks", cipher.len());
    rows.push(Info, "unique_chunks_cipher", "chunks", unique);

    // --- Store layer: single-engine vs prefix-sharded parallel ingest. ---
    let (seq_ingest_ms, seq_stats) = timed(|| {
        let mut engine = DedupEngine::open(store_config(unique)).expect("valid config");
        engine.ingest_backup(&cipher, ParConfig::sequential());
        engine.finish();
        engine.stats()
    });
    let (par_ingest_ms, par_stats) = timed(|| {
        let mut engine =
            DedupEngine::open_sharded(store_config(unique), threads.max(1)).expect("valid config");
        engine.ingest_backup(&cipher, ParConfig::with_threads(threads));
        engine.finish();
        engine.stats()
    });
    assert_eq!(
        (seq_stats.logical_chunks, seq_stats.unique_chunks),
        (par_stats.logical_chunks, par_stats.unique_chunks),
        "sharded ingest diverged from single-engine totals"
    );

    if let Some(dir) = &args.persist {
        let totals = (seq_stats.logical_chunks, seq_stats.unique_chunks);
        rows.nest("persist", bench_persist(dir, &cipher, unique, totals));
    }
    rows.nest("serve", bench_serve(&cipher, unique));
    rows.nest("streaming", bench_streaming(&cipher, &aux, threads));
    rows.nest("faults", bench_faults(&cipher, unique));
    rows.nest("chunking", bench_chunking(args.quick, threads));
    rows.nest("crypto", bench_crypto(args.quick));
    rows.nest("lifecycle", bench_lifecycle(&cipher, &aux, unique, threads));

    // --- Attack layer. Warm the allocator and page cache once per path,
    // so the timed runs below don't charge first-touch page faults to
    // whichever path goes first. ---
    drop(ChunkStats::full_with_policy(&cipher, seq_params.tie_policy));
    drop(DenseStats::full_with_policy(&cipher, seq_params.tie_policy));

    // COUNT in isolation (both sides), then the attack end-to-end (COUNT +
    // seed + crawl — what Algorithm 2 actually costs).
    let (ref_count_ms, _) = timed(|| {
        (
            ChunkStats::full_with_policy(&cipher, seq_params.tie_policy),
            ChunkStats::full_with_policy(&aux, seq_params.tie_policy),
        )
    });
    let (ref_e2e_ms, ref_inference) =
        timed(|| seq_attack.run_ciphertext_only_reference(&cipher, &aux));

    let (seq_count_ms, _) = timed(|| {
        (
            DenseStats::full_with_policy(&cipher, seq_params.tie_policy),
            DenseStats::full_with_policy(&aux, seq_params.tie_policy),
        )
    });
    let (seq_e2e_ms, seq_inference) = timed(|| seq_attack.run_ciphertext_only(&cipher, &aux));

    let par_cfg = ParConfig::with_threads(threads);
    let (par_count_ms, _) = timed(|| {
        (
            DenseStats::full_with_policy_par(&cipher, seq_params.tie_policy, par_cfg),
            DenseStats::full_with_policy_par(&aux, seq_params.tie_policy, par_cfg),
        )
    });
    let (par_e2e_ms, par_inference) = timed(|| par_attack.run_ciphertext_only(&cipher, &aux));

    let tput = |ms: f64| (cipher.len() as f64 / ms, 1);
    rows.push(Info, "reference.count_ms", "ms", (ref_count_ms, 1));
    rows.push(Info, "reference.end_to_end_ms", "ms", (ref_e2e_ms, 1));
    rows.push(Info, "sequential.count_ms", "ms", (seq_count_ms, 1));
    rows.push(
        Higher,
        "sequential.count_chunks_per_ms",
        "chunks/ms",
        tput(seq_count_ms),
    );
    rows.push(Info, "sequential.end_to_end_ms", "ms", (seq_e2e_ms, 1));
    rows.push(
        Higher,
        "sequential.end_to_end_chunks_per_ms",
        "chunks/ms",
        tput(seq_e2e_ms),
    );
    rows.push(Info, "sequential.encrypt_ms", "ms", (seq_encrypt_ms, 1));
    rows.push(Info, "sequential.ingest_ms", "ms", (seq_ingest_ms, 1));
    rows.push(Info, "parallel.threads", "threads", threads);
    rows.push(Info, "parallel.count_ms", "ms", (par_count_ms, 1));
    rows.push(Info, "parallel.end_to_end_ms", "ms", (par_e2e_ms, 1));
    rows.push(Info, "parallel.encrypt_ms", "ms", (par_encrypt_ms, 1));
    rows.push(Info, "parallel.ingest_ms", "ms", (par_ingest_ms, 1));
    rows.push(
        Info,
        "parallel.speedup_count",
        "x",
        (seq_count_ms / par_count_ms, 2),
    );
    rows.push(
        Info,
        "parallel.speedup_end_to_end",
        "x",
        (seq_e2e_ms / par_e2e_ms, 2),
    );
    rows.push(Info, "speedup_count", "x", (ref_count_ms / seq_count_ms, 2));
    rows.push(
        Info,
        "speedup_end_to_end",
        "x",
        (ref_e2e_ms / seq_e2e_ms, 2),
    );
    let ref_pairs = sorted_pairs(&ref_inference);
    rows.flag(
        "identical_inference",
        ref_pairs == sorted_pairs(&seq_inference) && ref_pairs == sorted_pairs(&par_inference),
    );
    rows.push(Info, "inferred_pairs", "pairs", seq_inference.len());

    let report = rows.render();
    std::fs::write(&args.out, &report)
        .unwrap_or_else(|e| cli::die(USAGE, &format!("cannot write {}: {e}", args.out)));
    print!("{report}");
    let failed = rows.failed_flags();
    if !failed.is_empty() {
        eprintln!("perf_report: FAIL — flag rows false: {}", failed.join(", "));
        std::process::exit(1);
    }
    eprintln!("perf_report: wrote {}", args.out);
}
