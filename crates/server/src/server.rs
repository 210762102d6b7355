//! The encrypted-dedup TCP service.
//!
//! One [`DedupEngine`] (optionally durable via the store's persistence
//! layer) serves N concurrent client sessions:
//!
//! * the **acceptor** polls a non-blocking [`TcpListener`] and feeds
//!   accepted connections into a [`JobQueue`];
//! * `workers` **session workers** drain the queue, each running the
//!   [`crate::session`] state machine for one connection at a time;
//! * all of them are scoped threads under
//!   [`crate::pool::run_bounded`] — no detached threads, panics
//!   propagate, and [`Server::run`] returns only after a full drain.
//!
//! **Graceful shutdown** (SHUTDOWN message, or [`ShutdownHandle`]): the
//! acceptor stops accepting, in-flight sessions finish their current
//! requests and disconnect, queued connections are still served, and the
//! engine is then checkpointed and closed — sealed containers, manifest
//! journal and snapshot are made durable, so a restart *never* relies on
//! crash recovery. The adversary tap doubles as the manifest catalog and
//! is persisted beside the store (`tap.fqdt`), which is what lets
//! clients resume committed work after a restart.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use freqdedup_store::container::PayloadMode;
use freqdedup_store::engine::{DedupConfig, DedupEngine};
use freqdedup_store::persist::PersistError;
use freqdedup_trace::io::TraceIoError;
use freqdedup_trace::ChunkRecord;

use crate::pool::{self, JobQueue};
use crate::proto::ServerStats;
use crate::session;
use crate::tap::AdversaryTap;

/// File name of the persisted tap / manifest catalog inside the store
/// directory.
pub const TAP_FILE: &str = "tap.fqdt";

/// File name of the persisted incremental attack state, beside
/// [`TAP_FILE`]. When present at bind time, the tap resumes its running
/// inference state bit-identically without replaying the catalog.
pub const STREAM_FILE: &str = "tap.fqis";

/// File name of the persisted applied-commit registry (exactly-once
/// replay suppression), beside [`TAP_FILE`].
pub const CIDS_FILE: &str = "tap.cids";

/// Locks a mutex, tolerating poison: session workers survive handler
/// panics ([`crate::pool`] catches them), so a mutex poisoned by a dying
/// handler must not cascade into every other session. The protected state
/// is safe to reuse — sessions never leave it partially updated across an
/// unwind point (the engine's own ingest path is panic-fail-stop at a
/// lower layer).
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upload progress parked for a disconnected resumable session, keyed by
/// client name: a client that declared a commit id (RESUME) and then lost
/// its connection mid-upload can reconnect and continue from
/// `acked_batches` instead of restarting — and, crucially, instead of
/// double-ingesting what the server already observed.
#[derive(Debug)]
pub(crate) struct Parked {
    /// Observed (pre-dedup) stream so far toward the commit.
    pub pending: Vec<ChunkRecord>,
    /// PUT batches fully ingested toward the commit.
    pub acked_batches: u32,
    /// The commit id the client declared for this upload.
    pub commit_id: u64,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address. Defaults to `127.0.0.1:0` (loopback, ephemeral
    /// port) — the CI-safe configuration; nothing in this workspace ever
    /// listens beyond loopback by default.
    pub addr: String,
    /// Concurrent session workers (bounded pool size).
    pub workers: usize,
    /// Fingerprint-prefix shards of the backing engine.
    pub shards: usize,
    /// Engine configuration; set [`DedupConfig::persist`] to make the
    /// service durable (the tap is then persisted alongside as
    /// [`TAP_FILE`]).
    pub engine: DedupConfig,
    /// Append-only service log (one line per event); `None` disables.
    pub log_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            shards: 4,
            engine: DedupConfig::default(),
            log_file: None,
        }
    }
}

/// Errors surfaced by [`Server::bind`] / [`Server::run`].
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The backing store failed to open, checkpoint or close.
    Persist(PersistError),
    /// The persisted tap failed to load or save.
    Tap(TraceIoError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Persist(e) => write!(f, "store error: {e}"),
            ServeError::Tap(e) => write!(f, "tap error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<TraceIoError> for ServeError {
    fn from(e: TraceIoError) -> Self {
        ServeError::Tap(e)
    }
}

/// The engine slot sessions share: the engine itself plus the service's
/// payload-mode commitment (all-payload or all-metadata, decided by the
/// first PUT and enforced thereafter — also across restarts).
#[derive(Debug)]
pub(crate) struct EngineSlot {
    pub engine: Option<DedupEngine>,
    pub payload_mode: Option<bool>,
}

/// State shared between the acceptor, the session workers and
/// [`ShutdownHandle`]s.
#[derive(Debug)]
pub(crate) struct Shared {
    pub slot: Mutex<EngineSlot>,
    pub tap: Mutex<AdversaryTap>,
    /// Parked upload progress of disconnected resumable sessions.
    pub parked: Mutex<HashMap<String, Parked>>,
    pub stop: AtomicBool,
    pub sessions_served: AtomicU64,
    pub commits: AtomicU64,
    /// Degraded-but-serving events: corrupt tap state recovered by
    /// replay, tap persistence skipped at shutdown, a session worker
    /// surviving a handler panic.
    pub tap_warnings: AtomicU64,
    log: Option<Mutex<std::fs::File>>,
}

impl Shared {
    /// Appends one line to the service log (best-effort).
    pub fn log(&self, line: &str) {
        if let Some(file) = &self.log {
            use std::io::Write;
            let ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis());
            let mut file = lock_unpoisoned(file);
            let _ = writeln!(file, "[{ms}] {line}");
        }
    }

    /// Aggregate service counters (engine stats + session/commit totals).
    pub fn stats(&self) -> ServerStats {
        let slot = lock_unpoisoned(&self.slot);
        let s = slot
            .engine
            .as_ref()
            .map(DedupEngine::stats)
            .unwrap_or_default();
        ServerStats {
            logical_chunks: s.logical_chunks,
            logical_bytes: s.logical_bytes,
            unique_chunks: s.unique_chunks,
            unique_bytes: s.unique_bytes,
            dup_cache_hits: s.dup_cache_hits,
            dup_buffer_hits: s.dup_buffer_hits,
            dup_index_hits: s.dup_index_hits,
            containers_sealed: s.containers_sealed,
            committed_backups: self.commits.load(Ordering::SeqCst),
            sessions_served: self.sessions_served.load(Ordering::SeqCst),
            tap_warnings: self.tap_warnings.load(Ordering::SeqCst),
        }
    }
}

/// What one completed service run did (returned by [`Server::run`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions served over the lifetime of the run.
    pub sessions: u64,
    /// Backup manifests committed.
    pub commits: u64,
    /// Final aggregate counters (taken just before the engine closed).
    pub stats: ServerStats,
}

/// Requests a graceful stop of a running [`Server`] from another thread
/// (the protocol-level SHUTDOWN message does the same thing).
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Signals the server to drain and stop.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

/// A bound (not yet running) encrypted-dedup service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    tap_path: Option<PathBuf>,
    stream_path: Option<PathBuf>,
    cids_path: Option<PathBuf>,
}

/// A read handle on a running server's adversary tap, for observing the
/// live attack state (catalog + running inference) from another thread —
/// e.g. to snapshot mid-stream inference between commits.
#[derive(Clone, Debug)]
pub struct TapView {
    shared: Arc<Shared>,
}

impl TapView {
    /// Runs `f` under the tap lock and returns its result. Keep `f`
    /// short: commits block on the same lock.
    pub fn with_tap<R>(&self, f: impl FnOnce(&AdversaryTap) -> R) -> R {
        let tap = lock_unpoisoned(&self.shared.tap);
        f(&tap)
    }
}

impl Server {
    /// Opens (or recovers) the backing engine and tap, and binds the
    /// listen socket.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the store directory fails to open or
    /// recover, [`ServeError::Tap`] when a persisted tap is corrupt,
    /// [`ServeError::Io`] when the socket cannot be bound.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let engine = DedupEngine::open_sharded(config.engine.clone(), config.shards)?;
        // Re-derive the payload-mode commitment from recovered containers
        // so a restarted service keeps rejecting mixed-mode uploads.
        let payload_mode = engine
            .shards()
            .iter()
            .find_map(|shard| shard.containers().mode())
            .map(|mode| mode == PayloadMode::Payload);
        let tap_path = config.engine.persist.as_ref().map(|p| p.dir.join(TAP_FILE));
        let stream_path = config
            .engine
            .persist
            .as_ref()
            .map(|p| p.dir.join(STREAM_FILE));
        let cids_path = config
            .engine
            .persist
            .as_ref()
            .map(|p| p.dir.join(CIDS_FILE));
        let mut tap = match (&tap_path, &stream_path) {
            // Resume path: catalog, plus the persisted incremental state
            // when it is present and intact — a corrupt or missing state
            // file falls back to a catalog replay inside `load_resuming`
            // (counted in `AdversaryTap::warnings`), never an error.
            (Some(path), Some(stream)) if path.exists() => {
                AdversaryTap::load_resuming(path, stream)?
            }
            _ => AdversaryTap::new(),
        };
        let mut warnings = tap.warnings();
        let mut degraded: Vec<String> = Vec::new();
        if warnings > 0 {
            degraded.push("incremental state replayed from catalog".into());
        }
        if let Some(cids) = cids_path.as_ref().filter(|p| p.exists()) {
            // The registry only suppresses commit replays; a corrupt file
            // degrades to "no suppression window" rather than failing the
            // bind.
            if let Err(e) = tap.load_commit_ids(cids) {
                warnings += 1;
                degraded.push(format!("commit registry unreadable ({e})"));
            }
        }
        let commits = tap.len() as u64;
        let log = match &config.log_file {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            slot: Mutex::new(EngineSlot {
                engine: Some(engine),
                payload_mode,
            }),
            tap: Mutex::new(tap),
            parked: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            sessions_served: AtomicU64::new(0),
            commits: AtomicU64::new(commits),
            tap_warnings: AtomicU64::new(warnings),
            log,
        });
        shared.log(&format!(
            "serve: bound {} ({} workers, {} shards, {} recovered manifests)",
            listener.local_addr()?,
            config.workers.max(1),
            config.shards,
            commits
        ));
        for what in &degraded {
            shared.log(&format!("serve: degraded recovery: {what}"));
        }
        Ok(Server {
            listener,
            shared,
            workers: config.workers.max(1),
            tap_path,
            stream_path,
            cids_path,
        })
    }

    /// The bound listen address (use after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A read handle on the adversary tap, valid while (and after) the
    /// server runs.
    #[must_use]
    pub fn tap_handle(&self) -> TapView {
        TapView {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until SHUTDOWN (or a [`ShutdownHandle`]), then drains
    /// in-flight sessions, checkpoints and closes the engine, and
    /// persists the tap. Blocks the calling thread for the lifetime of
    /// the service.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] / [`ServeError::Tap`] when the final
    /// checkpoint fails — the serve loop itself only logs per-session
    /// errors.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any session worker (scoped-pool
    /// contract).
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let shared = &self.shared;
        let queue: JobQueue<TcpStream> = JobQueue::new();
        let worker_panics = pool::run_bounded(
            &queue,
            self.workers,
            || {
                while !shared.stop.load(Ordering::SeqCst) {
                    match self.listener.accept() {
                        Ok((stream, peer)) => {
                            let _ = stream.set_nodelay(true);
                            shared.log(&format!("accept: {peer} (backlog {})", queue.backlog()));
                            queue.push(stream);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => {
                            shared.log(&format!("accept error: {e}"));
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            },
            |stream| {
                let id = shared.sessions_served.fetch_add(1, Ordering::SeqCst) + 1;
                session::serve_connection(stream, shared, id);
            },
        );
        if worker_panics > 0 {
            shared
                .tap_warnings
                .fetch_add(worker_panics, Ordering::SeqCst);
            shared.log(&format!(
                "serve: {worker_panics} session(s) ended in a caught handler panic"
            ));
        }

        // Drained: every accepted session has finished. Take the final
        // numbers, then checkpoint + close (graceful shutdown makes the
        // final state durable so a restart never needs crash recovery).
        let stats = shared.stats();
        let summary = ServeSummary {
            sessions: shared.sessions_served.load(Ordering::SeqCst),
            commits: shared.commits.load(Ordering::SeqCst),
            stats,
        };
        // Every final write must be *attempted* regardless of the others
        // failing: a tap-save error must never skip the engine close
        // (that would drop acknowledged chunk data un-checkpointed and
        // silently fall back to crash recovery). Only a **catalog** save
        // failure is an error — the catalog cannot be rebuilt. The
        // incremental state and the commit registry degrade instead:
        // their stale on-disk copies are removed so the next open
        // replays the catalog rather than resuming from a file that no
        // longer matches it.
        let tap_result = match &self.tap_path {
            Some(path) => {
                let tap = lock_unpoisoned(&shared.tap);
                let catalog = tap.save(path).map_err(|e| {
                    shared.log(&format!("shutdown: tap save failed: {e}"));
                    ServeError::from(e)
                });
                if let Some(stream) = &self.stream_path {
                    if let Err(e) = tap.streaming().save(stream) {
                        shared.tap_warnings.fetch_add(1, Ordering::SeqCst);
                        shared.log(&format!(
                            "shutdown: streaming state save failed ({e}); next open replays the catalog"
                        ));
                        let _ = std::fs::remove_file(stream);
                    }
                }
                if let Some(cids) = &self.cids_path {
                    if let Err(e) = tap.save_commit_ids(cids) {
                        shared.tap_warnings.fetch_add(1, Ordering::SeqCst);
                        shared.log(&format!(
                            "shutdown: commit registry save failed ({e}); replay suppression lost"
                        ));
                        let _ = std::fs::remove_file(cids);
                    }
                }
                catalog
            }
            None => Ok(()),
        };
        let engine = lock_unpoisoned(&shared.slot)
            .engine
            .take()
            .expect("engine present until run() ends");
        engine.close()?;
        tap_result?;
        shared.log(&format!(
            "shutdown: {} sessions, {} commits, {} unique chunks",
            summary.sessions, summary.commits, summary.stats.unique_chunks
        ));
        Ok(summary)
    }
}
