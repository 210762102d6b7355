//! One closed-loop iteration of a workload against a real in-process
//! server over loopback: set up, ingest, attack, delete + GC + rekey,
//! close, reopen, restore. Every client operation is counted as attempted
//! or failed; every output is checked.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

use freqdedup_core::attacks::advanced::AdvancedAttack;
use freqdedup_core::attacks::locality::LocalityParams;
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::counting::TiePolicy;
use freqdedup_core::dense::DenseStats;
use freqdedup_core::metrics::{self, Inference};
use freqdedup_server::client::{Client, ClientError, DefendedStream, EncodedStream};
use freqdedup_server::proto::code;
use freqdedup_server::server::{
    ServeError, ServeSummary, Server, ServerConfig, ShutdownHandle, TapView,
};
use freqdedup_store::engine::DedupConfig;
use freqdedup_store::persist::PersistConfig;
use freqdedup_store::sharded::ShardedDedupEngine;
use freqdedup_trace::par::ParConfig;
use freqdedup_trace::{Backup, Fingerprint};

use crate::inputs::{Inputs, Kind, Plan, UnitData, EPOCH_SECRET};
use crate::probe::{self, CountingIo};
use crate::spans::Tracer;

/// Client operations attempted and failed, summed over a run.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
}

impl Ops {
    /// Counts one client operation; a typed error is a failure.
    fn count<T>(&self, what: &str, result: Result<T, ClientError>) -> Result<T, String> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        result.map_err(|e| {
            self.failed.fetch_add(1, Ordering::Relaxed);
            format!("{what}: {e}")
        })
    }
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct IterResult {
    pub wall_s: f64,
    pub setup_s: f64,
    pub ingest_s: f64,
    pub logical_bytes: u64,
    pub logical_chunks: u64,
    pub commit_ms: Vec<f64>,
    pub attack_s: f64,
    /// Chunks in the committed tape the attack ran over.
    pub tape_chunks: u64,
    pub inference_rate: f64,
    pub inferred_pairs: usize,
    pub gc_s: f64,
    pub gc_moved_chunks: u64,
    pub gc_reclaimed_bytes: u64,
    pub rekey_s: f64,
    pub rekey_bytes: u64,
    pub rekey_containers: u64,
    pub recovery_s: f64,
    pub restore_s: f64,
    pub restore_bytes: u64,
    pub restore_chunks: u64,
    pub disk_bytes: u64,
    pub batches: u64,
    pub blowups: Vec<f64>,
    /// Traced iterations only: the tap's per-commit fold times (µs), the
    /// committed stream in commit order with the payload of every
    /// fingerprint (content mode), and the standalone store open time.
    pub tap_fold_us: Vec<u64>,
    pub tape: Vec<Backup>,
    pub tape_payloads: HashMap<u64, Vec<u8>>,
    pub open_s: f64,
    /// Key epoch after the rekeys.
    pub epoch: u64,
}

/// A server running on its own thread. Dropping it stops the server and
/// waits for the thread, so no path leaves a server behind.
struct Running {
    addr: std::net::SocketAddr,
    tap: TapView,
    stop: ShutdownHandle,
    thread: Option<JoinHandle<Result<ServeSummary, ServeError>>>,
}

impl Running {
    fn start(config: ServerConfig) -> Result<Running, String> {
        let server = Server::bind(config).map_err(|e| format!("bind: {e:?}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let tap = server.tap_handle();
        let stop = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            tap,
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the server (checkpoint + close) and returns its summary.
    fn finish(mut self) -> Result<ServeSummary, String> {
        self.stop.shutdown();
        let thread = self.thread.take().expect("thread joined once");
        match thread.join() {
            Ok(r) => r.map_err(|e| format!("server close: {e:?}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.shutdown();
            let _ = thread.join();
        }
    }
}

fn server_config(plan: &Plan, dir: &Path, io: Option<&CountingIo>, epoch: u64) -> ServerConfig {
    ServerConfig {
        workers: plan.clients + 1,
        shards: 1,
        engine: engine_config(plan, dir, io, epoch),
        ..ServerConfig::default()
    }
}

/// The store configuration every server life and the standalone replay
/// share: same container size, cache, Bloom sizing and fsync policy.
pub fn engine_config(plan: &Plan, dir: &Path, io: Option<&CountingIo>, epoch: u64) -> DedupConfig {
    let mut persist = PersistConfig::new(dir).fsync(plan.fsync);
    if let Some(policy) = io {
        persist = persist.io_policy(policy.clone());
    }
    if epoch > 0 {
        persist = persist.epoch_secret(epoch, EPOCH_SECRET);
    }
    DedupConfig {
        container_bytes: plan.container_bytes,
        persist: Some(persist),
        ..DedupConfig::paper(plan.cache_entries as u64 * 32, 1 << 20)
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Calls `f` until at least `min_s` seconds have passed (at most `max`
/// calls, at least one); returns the mean seconds per call and the number
/// of calls. Repeats operations too short to time once on a shared box.
fn repeat(
    min_s: f64,
    max: u32,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<(f64, u32), String> {
    let t = Instant::now();
    let mut calls = 0;
    while calls == 0 || (calls < max && secs(t) < min_s) {
        f()?;
        calls += 1;
    }
    Ok((secs(t) / f64::from(calls), calls))
}

fn sorted_pairs(inf: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = inf.iter().collect();
    v.sort_unstable();
    v
}

/// Per-iteration context.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub inputs: &'a Inputs,
    pub tracer: &'a Tracer,
    pub ops: &'a Ops,
    pub dir: PathBuf,
    /// Counting persistence policy (traced iterations only).
    pub io: Option<CountingIo>,
}

/// Runs one iteration; `Err` describes the first failed operation or
/// check.
///
/// # Errors
///
/// A client operation failed, or an output check did not hold.
pub fn iteration(cx: &Ctx<'_>) -> Result<IterResult, String> {
    let _ = std::fs::remove_dir_all(&cx.dir);
    std::fs::create_dir_all(&cx.dir).map_err(|e| format!("create {}: {e}", cx.dir.display()))?;
    let mut r = IterResult::default();
    let cells: Vec<OnceLock<EncodedStream>> =
        cx.inputs.units.iter().map(|_| OnceLock::new()).collect();
    let mut defended: Vec<Option<DefendedStream<'_>>> = Vec::new();
    let wall = Instant::now();
    let body = cx
        .tracer
        .span("iteration", || lifecycle(cx, &mut r, &cells, &mut defended));
    r.wall_s = secs(wall);
    body?;
    if cx.tracer.enabled() {
        for d in defended.iter().flatten() {
            for rec in &d.backup.chunks {
                r.tape_payloads
                    .entry(rec.fp.value())
                    .or_insert_with(|| d.payload(rec));
            }
        }
        let t = Instant::now();
        let engine = ShardedDedupEngine::open(engine_config(cx.plan, &cx.dir, None, r.epoch), 1)
            .map_err(|e| format!("standalone open: {e}"))?;
        r.open_s = secs(t);
        engine
            .close()
            .map_err(|e| format!("standalone close: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&cx.dir);
    Ok(r)
}

fn lifecycle<'s>(
    cx: &Ctx<'_>,
    r: &mut IterResult,
    cells: &'s [OnceLock<EncodedStream>],
    defended: &mut Vec<Option<DefendedStream<'s>>>,
) -> Result<(), String> {
    let (plan, inputs, tracer, ops) = (cx.plan, cx.inputs, cx.tracer, cx.ops);

    // ---- Set-up: bind the store and connect every client. ----
    let t = Instant::now();
    let server = tracer.span("server.bind", || {
        Running::start(server_config(plan, &cx.dir, cx.io.as_ref(), 0))
    })?;
    let mut clients = Vec::new();
    for c in 0..plan.clients {
        let client = tracer.span("server.connect", || {
            Client::connect(server.addr, &format!("bench-{c}"))
        });
        clients.push(ops.count("connect", client)?);
    }
    r.setup_s = secs(t);

    // ---- Ingest: closed loop, next request after the previous ack. ----
    let t = Instant::now();
    let uploaded = tracer.span("ingest", || ingest(cx, r, &mut clients, cells, defended))?;
    r.ingest_s = secs(t);
    let logical: u64 = uploaded.iter().map(|b| b.len() as u64).sum();
    let mut client = clients.swap_remove(0);
    drop(clients);
    let stats = ops.count("stats", client.stats())?;
    if stats.logical_chunks != logical {
        return Err(format!(
            "server counted {} logical chunks, clients sent {logical}",
            stats.logical_chunks
        ));
    }
    r.logical_chunks = logical;
    r.logical_bytes = uploaded.iter().map(Backup::logical_bytes).sum();

    // ---- The adversary: batch locality attack over the tap's series. ----
    tracer.span("attack", || attack(cx, r, &server.tap))?;
    if tracer.enabled() {
        r.tap_fold_us = server
            .tap
            .with_tap(|t| t.streaming().update_micros().to_vec());
        r.tape = server.tap.with_tap(|t| t.committed().to_vec());
    }

    // ---- Lifecycle: delete a share, GC, rekey. ----
    for &i in &inputs.deleted {
        let label = &inputs.units[i].label;
        tracer.span("server.delete", || {
            ops.count("delete", client.delete_backup(label, 0))
        })?;
    }
    // GC rewrites every live chunk (threshold 1000 permille); the first
    // call also reclaims what the deletes released. Short calls repeat.
    let (gc_s, _) = repeat(0.1, 16, || {
        let gc = tracer.span("server.gc", || {
            ops.count("gc", client.gc(plan.gc_threshold_permille, 0))
        })?;
        r.gc_moved_chunks += gc.moved_chunks;
        r.gc_reclaimed_bytes += gc.reclaimed_bytes;
        Ok(())
    })?;
    r.gc_s = gc_s;
    // Live container bytes: what each further GC pass and each rekey
    // rewrites.
    r.rekey_bytes = probe::container_bytes(&cx.dir);
    let mut epoch = 0;
    let (rekey_s, rekeys) = repeat(0.1, 16, || {
        let (e, rewritten) = tracer.span("server.rekey", || {
            ops.count("rekey", client.rekey(EPOCH_SECRET, 0))
        })?;
        epoch = e;
        r.rekey_containers += rewritten;
        Ok(())
    })?;
    r.rekey_s = rekey_s;
    if epoch != u64::from(rekeys) {
        return Err(format!("{rekeys} rekeys moved to epoch {epoch}"));
    }
    r.epoch = epoch;
    drop(client);
    tracer.span("server.close", || server.finish())?;
    r.disk_bytes = probe::dir_bytes(&cx.dir);

    // ---- Recovery: reopen with the new epoch secret, first request. ----
    let t = Instant::now();
    let server = tracer.span("server.bind", || {
        Running::start(server_config(plan, &cx.dir, cx.io.as_ref(), epoch))
    })?;
    let mut client = ops.count(
        "connect",
        tracer.span("server.connect", || {
            Client::connect(server.addr, "bench-restore")
        }),
    )?;
    let recovered = ops.count("stats", tracer.span("server.stats", || client.stats()))?;
    r.recovery_s = secs(t);
    if recovered.logical_chunks != logical {
        return Err(format!(
            "reopened store counts {} logical chunks, expected {logical}",
            recovered.logical_chunks
        ));
    }

    // ---- Restore the survivors; deleted labels must be refused. ----
    restore(cx, r, &mut client, &uploaded, defended)?;
    drop(client);
    tracer.span("server.close", || server.finish())?;
    Ok(())
}

/// Uploads and commits every unit; returns the uploaded (ciphertext)
/// record stream of each unit, indexed like `inputs.units`.
fn ingest<'s>(
    cx: &Ctx<'_>,
    r: &mut IterResult,
    clients: &mut [Client],
    cells: &'s [OnceLock<EncodedStream>],
    defended: &mut Vec<Option<DefendedStream<'s>>>,
) -> Result<Vec<Backup>, String> {
    let (plan, inputs, tracer, ops) = (cx.plan, cx.inputs, cx.tracer, cx.ops);
    let n = clients.len();
    let parent = tracer.current();
    let per_client: Vec<Result<ClientIngest<'s>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    tracer.adopt(parent, || {
                        let mut out = ClientIngest::default();
                        for (i, unit) in inputs.units.iter().enumerate().filter(|(i, _)| i % n == c)
                        {
                            let upload = match &unit.data {
                                UnitData::Bytes(bytes) => {
                                    let p = &inputs.pipeline;
                                    let enc = tracer.span("core.encode", || {
                                        EncodedStream::encode(
                                            &unit.label,
                                            bytes,
                                            &p.chunker,
                                            &p.mle,
                                            ParConfig::with_threads(plan.par_threads),
                                        )
                                    });
                                    let enc =
                                        enc.map_err(|e| format!("encode {}: {e}", unit.label))?;
                                    let enc = cells[i].get_or_init(|| enc);
                                    let d = tracer
                                        .span("core.defend", || enc.defend(&p.scheme, &p.ctx));
                                    let up =
                                        tracer.span("server.upload", || client.upload_defended(&d));
                                    out.batches += u64::from(ops.count("upload", up)?.batches);
                                    out.blowups.push(d.blowup());
                                    let b = d.backup.clone();
                                    out.defended.push((i, d));
                                    b
                                }
                                UnitData::Records(records) if plan.kind == Kind::TraceAttack => {
                                    let enc = tracer.span("mle.trace_encrypt", || {
                                        inputs.encryptor.encrypt_backup(records).backup
                                    });
                                    let up =
                                        tracer.span("server.upload", || client.upload_backup(&enc));
                                    out.batches += u64::from(ops.count("upload", up)?.batches);
                                    enc
                                }
                                UnitData::Records(records) => {
                                    let payload = |rec: &freqdedup_trace::ChunkRecord| {
                                        inputs
                                            .payloads
                                            .get(&rec.fp.value())
                                            .cloned()
                                            .unwrap_or_default()
                                    };
                                    let up = tracer.span("server.upload", || {
                                        client.upload_backup_payloads(records, payload)
                                    });
                                    out.batches += u64::from(ops.count("upload", up)?.batches);
                                    records.clone()
                                }
                            };
                            let t = Instant::now();
                            let commit =
                                tracer.span("server.commit", || client.commit(&unit.label));
                            out.commit_ms.push(secs(t) * 1e3);
                            let chunks = ops.count("commit", commit)?;
                            if chunks != upload.len() as u64 {
                                return Err(format!(
                                    "commit {} acked {chunks} chunks, sent {}",
                                    unit.label,
                                    upload.len()
                                ));
                            }
                            out.uploaded.push((i, upload));
                        }
                        Ok(out)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut uploaded: Vec<Backup> = vec![Backup::new(""); inputs.units.len()];
    defended.resize_with(inputs.units.len(), || None);
    for out in per_client {
        let out = out?;
        r.commit_ms.extend(out.commit_ms);
        r.batches += out.batches;
        r.blowups.extend(out.blowups);
        for (i, b) in out.uploaded {
            uploaded[i] = b;
        }
        for (i, d) in out.defended {
            defended[i] = Some(d);
        }
    }
    Ok(uploaded)
}

#[derive(Default)]
struct ClientIngest<'s> {
    commit_ms: Vec<f64>,
    batches: u64,
    blowups: Vec<f64>,
    uploaded: Vec<(usize, Backup)>,
    defended: Vec<(usize, DefendedStream<'s>)>,
}

/// The attack the adversary runs: the size-aware locality attack
/// (Algorithm 3). Chunk sizes survive MLE and every defense here, so it is
/// the one attack that still infers chunks of the defended content stream.
const ATTACK: AttackKind = AttackKind::Advanced;

/// Times the batch attack over the committed tape and checks it against
/// the tap's streaming inference under both tie policies.
fn attack(cx: &Ctx<'_>, r: &mut IterResult, tap: &TapView) -> Result<(), String> {
    let (inputs, tracer) = (cx.inputs, cx.tracer);
    let params = LocalityParams::default().threads(cx.plan.par_threads);
    let aux = &inputs.aux;
    let (tape, live) = tap.with_tap(|t| {
        (
            t.committed().to_vec(),
            t.streaming_inference_both_policies(ATTACK, aux, &params),
        )
    });
    // Key-order ties make the inference independent of the order in
    // which concurrent clients' commits landed.
    let key = params.clone().tie_policy(TiePolicy::KeyOrder);
    let t = Instant::now();
    let inferred = if tracer.enabled() {
        let (sc, sm) = tracer.span("core.count", || {
            (
                DenseStats::full_series_with_policy(&tape, TiePolicy::KeyOrder),
                DenseStats::full_with_policy_par(aux, TiePolicy::KeyOrder, key.par_config()),
            )
        });
        tracer.span("core.crawl", || {
            AdvancedAttack::new(key.clone()).run_ciphertext_only_with_stats(&sc, &sm)
        })
    } else {
        let mut out = None;
        let (mean_s, _) = repeat(0.2, 64, || {
            out = Some(attacks::run_ciphertext_only_series(
                ATTACK, &tape, aux, &key,
            ));
            Ok(())
        })?;
        r.attack_s = mean_s;
        out.expect("repeat calls at least once")
    };
    if tracer.enabled() {
        r.attack_s = secs(t);
    }
    for (policy, streamed) in &live {
        let batch = if *policy == TiePolicy::KeyOrder {
            sorted_pairs(&inferred)
        } else {
            let p = params.clone().tie_policy(*policy);
            sorted_pairs(&attacks::run_ciphertext_only_series(ATTACK, &tape, aux, &p))
        };
        if batch != sorted_pairs(streamed) {
            return Err(format!(
                "batch inference under {policy:?} differs from the tap's streaming inference"
            ));
        }
    }
    r.tape_chunks = tape.iter().map(|b| b.len() as u64).sum();
    r.inferred_pairs = inferred.len();
    r.inference_rate = metrics::score(&inferred, &inputs.target, &inputs.truth).rate;
    Ok(())
}

/// Restores every surviving unit and checks it byte for byte; checks that
/// every deleted label is refused.
fn restore(
    cx: &Ctx<'_>,
    r: &mut IterResult,
    client: &mut Client,
    uploaded: &[Backup],
    defended: &[Option<DefendedStream<'_>>],
) -> Result<(), String> {
    let (inputs, tracer, ops) = (cx.inputs, cx.tracer, cx.ops);
    let mut restore_s = 0.0;
    for (i, unit) in inputs.units.iter().enumerate() {
        if inputs.deleted.contains(&i) {
            match client.restore(&unit.label) {
                Err(ClientError::Server { code: c, .. }) if c == code::UNKNOWN_LABEL => continue,
                Err(e) => return Err(format!("restore of deleted {}: {e}", unit.label)),
                Ok(_) => return Err(format!("deleted {} still restores", unit.label)),
            }
        }
        let t = Instant::now();
        let restored = ops.count(
            "restore",
            tracer.span("server.restore", || client.restore(&unit.label)),
        )?;
        let decoded = match &unit.data {
            UnitData::Bytes(_) => {
                let d = defended[i].as_ref().ok_or("defended stream missing")?;
                let out = tracer.span("core.decode", || d.decode(&restored, &inputs.pipeline.mle));
                Some(out.map_err(|e| format!("decode {}: {e}", unit.label))?)
            }
            UnitData::Records(_) => None,
        };
        restore_s += secs(t);
        if restored.backup.chunks != uploaded[i].chunks {
            return Err(format!("restore {}: record stream differs", unit.label));
        }
        let intact = match (&unit.data, decoded, &restored.payloads) {
            (UnitData::Bytes(bytes), Some(decoded), _) => decoded == *bytes,
            (UnitData::Records(_), None, Some(payloads)) => {
                cx.plan.kind == Kind::Churn
                    && restored
                        .backup
                        .chunks
                        .iter()
                        .zip(payloads)
                        .all(|(rec, bytes)| {
                            inputs
                                .payloads
                                .get(&rec.fp.value())
                                .is_some_and(|p| p == bytes)
                        })
            }
            (UnitData::Records(_), None, None) => cx.plan.kind == Kind::TraceAttack,
            _ => false,
        };
        if !intact {
            return Err(format!(
                "restore {}: restored bytes differ from the upload",
                unit.label
            ));
        }
        r.restore_bytes += uploaded[i].logical_bytes();
        r.restore_chunks += uploaded[i].len() as u64;
    }
    r.restore_s = restore_s;
    Ok(())
}
