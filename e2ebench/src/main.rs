//! End-to-end benchmark of the encrypted-deduplication service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload content-backup|trace-attack|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives a real `freqdedup_server::server::Server` in this
//! process over loopback through the public client API, closed loop,
//! repeating one full iteration (set-up, ingest, attack, delete + GC +
//! rekey, close, reopen, restore) until `--seconds` have passed, and
//! reports medians over the iterations. Every output is checked; a failed
//! check or client operation makes the exit code non-zero.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced iterations, replays the inputs through single
//! layers, prints the per-layer metrics, and writes the spans and the
//! self-time table under `.bench_run/`. The last line of standard output
//! is always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod inputs;
mod layers;
mod probe;
mod run;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use inputs::{Kind, Plan};
use run::{Ctx, IterResult, Ops};
use spans::{Span, Tracer};

/// Iterations of each kind a run makes at least, whatever `--seconds` says.
const MIN_ITERS: usize = 5;
/// Where stores, spans and layer tables go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_run";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metric name → (value, unit), in insertion-independent order.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn median_of(iters: &[IterResult], f: impl Fn(&IterResult) -> f64) -> f64 {
    stats::median(&iters.iter().map(f).collect::<Vec<_>>())
}

fn mean_of(iters: &[IterResult], f: impl Fn(&IterResult) -> f64) -> f64 {
    iters.iter().map(f).sum::<f64>() / iters.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(iters: &[IterResult]) -> Metrics {
    let commits: Vec<f64> = iters
        .iter()
        .flat_map(|r| r.commit_ms.iter().copied())
        .collect();
    if let Some((p, v)) = stats::tail_percentile(&commits) {
        eprintln!("e2ebench: commit latency over {} samples: highest percentile with >=10 beyond is p{p} = {v:.3} ms", commits.len());
    }
    for (name, f) in [
        (
            "setup_s",
            (|r: &IterResult| r.setup_s) as fn(&IterResult) -> f64,
        ),
        ("ingest_s", |r| r.ingest_s),
        ("attack_s", |r| r.attack_s),
        ("restore_s", |r| r.restore_s),
        ("recovery_s", |r| r.recovery_s),
    ] {
        let v: Vec<f64> = iters.iter().map(f).collect();
        let (q1, q3) = stats::quartiles(&v);
        eprintln!(
            "e2ebench: {name} over {} iterations: median {:.6} [q1 {q1:.6}, q3 {q3:.6}]",
            v.len(),
            stats::median(&v)
        );
    }
    let mut m = Metrics::new();
    m.insert("setup_s", (median_of(iters, |r| r.setup_s), "s"));
    m.insert(
        "restore_mbps",
        (
            median_of(iters, |r| ratio(r.restore_bytes as f64 / 1e6, r.restore_s)),
            "MB/s",
        ),
    );
    m.insert(
        "attack_kchunks_per_s",
        (
            median_of(iters, |r| ratio(r.tape_chunks as f64 / 1e3, r.attack_s)),
            "kchunks/s",
        ),
    );
    m.insert(
        "recovery_mbps",
        (
            median_of(iters, |r| ratio(r.disk_bytes as f64 / 1e6, r.recovery_s)),
            "MB/s",
        ),
    );
    m
}

/// Self-time rows of the traced iterations, averaged per iteration, plus
/// the coverage of the root span by layer spans.
fn layer_table(spans: &[Span], iters: usize) -> (Vec<(String, spans::LayerTime)>, f64) {
    let times = spans::self_times(spans);
    let n = iters.max(1) as f64;
    let root = times.get("iteration").copied().unwrap_or_default();
    let coverage = ratio(root.total_s - root.self_s, root.total_s);
    let mut rows: Vec<(String, spans::LayerTime)> = times
        .into_iter()
        .map(|(name, t)| {
            let name = if name == "iteration" {
                "(unattributed)"
            } else {
                name
            };
            (
                name.to_string(),
                spans::LayerTime {
                    count: t.count,
                    total_s: t.total_s / n,
                    self_s: t.self_s / n,
                },
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    (rows, coverage)
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn per_layer(
    plan: &Plan,
    inputs: &inputs::Inputs,
    plain: &[IterResult],
    traced: &[IterResult],
    spans: &[Span],
    io: &[probe::IoCounts],
    args: &Args,
    failed_frac: f64,
) -> Result<Metrics, String> {
    let n = traced.len().max(1) as f64;
    let (rows, coverage) = layer_table(spans, traced.len());
    let self_of = |name: &str| {
        rows.iter()
            .find(|r| r.0 == name)
            .map_or(0.0, |r| r.1.total_s)
    };
    let last = traced.last().ok_or("no traced iteration")?;
    let client = layers::client(plan, inputs)?;
    let payloads = if plan.kind == Kind::Churn {
        &inputs.payloads
    } else {
        &last.tape_payloads
    };
    let store = layers::store(
        plan,
        &PathBuf::from(OUT_DIR).join(format!("replay-{}", std::process::id())),
        &last.tape,
        payloads,
    )?;
    let (io_bytes, io_syncs) = io.iter().fold((0u64, 0u64), |acc, c| {
        let c = c.lock().expect("io counts poisoned");
        c.values()
            .fold(acc, |(b, s), site| (b + site.bytes, s + site.syncs))
    });
    let logical_bytes = mean_of(traced, |r| r.logical_bytes as f64);
    let folds: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.tap_fold_us.iter().map(|&us| us as f64 / 1e3))
        .collect();
    let upload_s = self_of("server.upload");

    let mut m = Metrics::new();
    m.insert("chunking.busy_s", (client.chunk_s, "s"));
    m.insert(
        "chunking.mbps",
        (ratio(client.bytes as f64 / 1e6, client.chunk_s), "MB/s"),
    );
    m.insert("chunking.chunks", (client.chunks as f64, "count"));
    m.insert(
        "chunking.mean_chunk_bytes",
        (ratio(client.bytes as f64, client.chunks as f64), "B"),
    );
    m.insert("mle.derive_key_s", (client.derive_key_s, "s"));
    m.insert("mle.encrypt_s", (client.encrypt_s, "s"));
    m.insert("mle.fingerprint_s", (client.fingerprint_s, "s"));
    m.insert(
        "crypto.sha256_mbps",
        (
            ratio(client.bytes as f64 / 1e6, client.derive_key_s),
            "MB/s",
        ),
    );
    m.insert(
        "crypto.aes_ctr_mbps",
        (ratio(client.bytes as f64 / 1e6, client.encrypt_s), "MB/s"),
    );
    m.insert("mle.trace_encrypt_s", (self_of("mle.trace_encrypt"), "s"));
    m.insert(
        "crypto.hmac_ns_per_fp",
        (ratio(client.hmac_s * 1e9, client.hmac_fps as f64), "ns"),
    );
    m.insert("core.encode_s", (self_of("core.encode"), "s"));
    m.insert("core.decode_s", (self_of("core.decode"), "s"));
    m.insert("core.defend_s", (self_of("core.defend"), "s"));
    m.insert(
        "core.defense_blowup",
        (
            stats::median(
                &traced
                    .iter()
                    .flat_map(|r| r.blowups.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
    );
    m.insert("server.upload_s", (upload_s, "s"));
    m.insert("server.commit_s", (self_of("server.commit"), "s"));
    m.insert("server.restore_s", (self_of("server.restore"), "s"));
    m.insert(
        "server.batches",
        (mean_of(traced, |r| r.batches as f64), "count"),
    );
    m.insert(
        "server.restore_chunks_per_s",
        (
            ratio(
                mean_of(traced, |r| r.restore_chunks as f64),
                self_of("server.restore"),
            ),
            "1/s",
        ),
    );
    m.insert("server.wire_s", (upload_s - store.ingest_s, "s"));
    m.insert("store.replay_ingest_s", (store.ingest_s, "s"));
    m.insert("store.commit_backup_s", (store.commit_s, "s"));
    m.insert(
        "store.dup_frac",
        (
            ratio(store.duplicates as f64, store.logical_chunks as f64),
            "frac",
        ),
    );
    m.insert(
        "store.cache_hit_frac",
        (
            ratio(store.cache_hits as f64, store.logical_chunks as f64),
            "frac",
        ),
    );
    m.insert("store.index_hits", (store.index_hits as f64, "count"));
    m.insert(
        "store.bloom_false_positives",
        (store.bloom_false_positives as f64, "count"),
    );
    m.insert(
        "store.metadata_bytes_per_chunk",
        (
            ratio(store.metadata_bytes as f64, store.logical_chunks as f64),
            "B",
        ),
    );
    m.insert(
        "store.containers_sealed",
        (store.containers_sealed as f64, "count"),
    );
    m.insert(
        "store.write_bytes_per_logical_byte",
        (ratio(io_bytes as f64 / n, logical_bytes), "ratio"),
    );
    m.insert("store.fsyncs", (io_syncs as f64 / n, "count"));
    m.insert(
        "store.disk_bytes",
        (mean_of(traced, |r| r.disk_bytes as f64), "B"),
    );
    m.insert(
        "store.gc_moved_chunks",
        (mean_of(traced, |r| r.gc_moved_chunks as f64), "count"),
    );
    m.insert(
        "store.gc_reclaimed_bytes",
        (mean_of(traced, |r| r.gc_reclaimed_bytes as f64), "B"),
    );
    m.insert(
        "store.rekey_containers",
        (mean_of(traced, |r| r.rekey_containers as f64), "count"),
    );
    m.insert("store.open_s", (median_of(traced, |r| r.open_s), "s"));
    m.insert(
        "core.tap_fold_ms_p50",
        (stats::percentile(&folds, 50.0), "ms"),
    );
    m.insert(
        "core.tap_fold_ms_max",
        (stats::percentile(&folds, 100.0), "ms"),
    );
    // Too noisy on a shared two-core box to carry a regression bound, so
    // reported here rather than end to end.
    let commits: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.commit_ms.iter().copied())
        .collect();
    m.insert(
        "client.backup_mbps",
        (
            median_of(plain, |r| ratio(r.logical_bytes as f64 / 1e6, r.ingest_s)),
            "MB/s",
        ),
    );
    m.insert(
        "client.ingest_kchunks_per_s",
        (
            median_of(plain, |r| ratio(r.logical_chunks as f64 / 1e3, r.ingest_s)),
            "kchunks/s",
        ),
    );
    m.insert(
        "store.gc_mbps",
        (
            median_of(plain, |r| ratio(r.rekey_bytes as f64 / 1e6, r.gc_s)),
            "MB/s",
        ),
    );
    m.insert(
        "server.commit_p50_ms",
        (stats::percentile(&commits, 50.0), "ms"),
    );
    m.insert(
        "server.commit_p90_ms",
        (stats::percentile(&commits, 90.0), "ms"),
    );
    m.insert(
        "store.rekey_mbps",
        (
            median_of(plain, |r| ratio(r.rekey_bytes as f64 / 1e6, r.rekey_s)),
            "MB/s",
        ),
    );
    m.insert("process.peak_rss_mib", (probe::peak_rss_mib(), "MiB"));
    m.insert("core.attack_s", (median_of(traced, |r| r.attack_s), "s"));
    m.insert("store.gc_s", (median_of(traced, |r| r.gc_s), "s"));
    m.insert(
        "store.recovery_s",
        (median_of(traced, |r| r.recovery_s), "s"),
    );
    m.insert("core.count_s", (self_of("core.count"), "s"));
    m.insert("core.crawl_s", (self_of("core.crawl"), "s"));
    m.insert(
        "core.inference_rate",
        (median_of(traced, |r| r.inference_rate), "frac"),
    );
    m.insert(
        "store.stored_bytes_ratio",
        (
            median_of(traced, |r| {
                ratio(r.disk_bytes as f64, r.logical_bytes as f64)
            }),
            "ratio",
        ),
    );
    m.insert(
        "core.inferred_pairs",
        (mean_of(traced, |r| r.inferred_pairs as f64), "count"),
    );
    m.insert("trace.coverage", (coverage, "frac"));
    m.insert(
        "trace.overhead",
        (
            median_of(traced, |r| r.wall_s) / median_of(plain, |r| r.wall_s).max(1e-9) - 1.0,
            "frac",
        ),
    );
    m.insert("failed_ops_frac", (failed_frac, "frac"));

    let mut table = String::from("layer\tcalls\ttotal_s\tself_s\n");
    for (name, t) in &rows {
        let _ = writeln!(
            table,
            "{name}\t{}\t{:.6}\t{:.6}",
            t.count, t.total_s, t.self_s
        );
    }
    let _ = writeln!(
        table,
        "# per traced iteration ({} iterations); coverage {coverage:.4}",
        traced.len()
    );
    eprint!("{table}");
    let base = PathBuf::from(OUT_DIR).join(format!("{}-seed{}", args.kind.name(), args.seed));
    std::fs::write(base.with_extension("layers.tsv"), &table)
        .map_err(|e| format!("write layer table: {e}"))?;
    spans::write_spans(&base.with_extension("spans.tsv"), spans)
        .map_err(|e| format!("write spans: {e}"))?;
    Ok(m)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\nusage: e2ebench --workload content-backup|trace-attack|churn --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let plan = Plan::new(args.kind, nproc);
    let t = Instant::now();
    let inputs = inputs::generate(&plan, args.seed);
    let config = format!(
        "{{\"config\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \"clients\": {}, \"par_threads\": {}, \"fsync\": {}, \"cache_entries\": {}, \"unique_working_set\": {}, \"units\": {}, \"input_s\": {:.3}, \"revision\": {}}}}}",
        json_str(args.kind.name()),
        args.seed,
        plan.clients,
        plan.par_threads,
        json_str(&format!("{:?}", plan.fsync)),
        plan.cache_entries,
        inputs.unique_chunks,
        inputs.units.len(),
        t.elapsed().as_secs_f64(),
        json_str(&probe::git_revision()),
    );
    println!("{config}");

    let root = PathBuf::from(OUT_DIR).join(format!("{}-{}", args.kind.name(), std::process::id()));
    let ops = Ops::default();
    let (quiet, tracer) = (Tracer::new(false), Tracer::new(true));
    let (mut plain, mut traced, mut spans, mut io) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut error = None;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    for n in 0.. {
        let trace_this = args.trace && n % 2 == 1;
        let counting = trace_this.then(probe::CountingIo::new);
        let cx = Ctx {
            plan: &plan,
            inputs: &inputs,
            tracer: if trace_this { &tracer } else { &quiet },
            ops: &ops,
            dir: root.join(format!("iter-{n}")),
            io: counting.as_ref().map(|c| c.0.clone()),
        };
        match run::iteration(&cx) {
            Ok(r) if trace_this => {
                traced.push(r);
                spans.extend(tracer.drain());
                io.extend(counting.map(|c| c.1));
            }
            Ok(r) => plain.push(r),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        let enough = plain.len() >= MIN_ITERS && (!args.trace || traced.len() >= MIN_ITERS);
        if (enough && start.elapsed() >= budget) || start.elapsed() >= budget * 4 {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    // Inference is deterministic in the seed: every iteration must agree.
    if error.is_none()
        && plain
            .iter()
            .chain(&traced)
            .any(|r| r.inferred_pairs != plain[0].inferred_pairs)
    {
        error = Some("inference differs between iterations of one seed".into());
    }
    let attempted = ops.attempted.load(Ordering::Relaxed);
    let failed = ops.failed.load(Ordering::Relaxed);
    let failed_frac = ratio(failed as f64, attempted as f64);
    let metrics = match &error {
        Some(_) => Ok(Metrics::new()),
        None if args.trace => per_layer(
            &plan,
            &inputs,
            &plain,
            &traced,
            &spans,
            &io,
            &args,
            failed_frac,
        ),
        None => Ok(end_to_end(&plain)),
    };
    let (metrics, error) = match metrics {
        Ok(m) => (m, error),
        Err(e) => (Metrics::new(), Some(e)),
    };
    if let Some(e) = &error {
        eprintln!("e2ebench: FAILED: {e}");
    }
    eprintln!(
        "e2ebench: {} iterations ({} traced) in {:.1} s",
        plain.len() + traced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        error.is_none(),
        attempted.max(1),
        body.join(", ")
    );
    if error.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
