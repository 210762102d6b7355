//! Workload definitions and their seeded inputs. Everything here runs
//! before any timing starts; the program under test only ever receives
//! the generated bytes and records.

use std::collections::HashMap;

use freqdedup_chunking::segment::SegmentParams;
use freqdedup_chunking::{records_from_bytes, FastCdc};
use freqdedup_core::defense::{DefenseScheme, KeyContext, MinHashScrambleScheme};
use freqdedup_datasets::fsl::{self, FslConfig};
use freqdedup_datasets::synthetic::{SyntheticConfig, SyntheticSnapshots};
use freqdedup_mle::convergent::Convergent;
use freqdedup_mle::trace_enc::{DeterministicTraceEncryptor, GroundTruth};
use freqdedup_server::client::{synthetic_payload, EncodedStream};
use freqdedup_store::persist::FsyncPolicy;
use freqdedup_trace::par::ParConfig;
use freqdedup_trace::{Backup, BackupSeries};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Raw snapshot bytes through FastCDC, MLE and the combined defense.
    ContentBackup,
    /// HMAC-encrypted FSL records from two clients, metadata mode, small
    /// cache, many commits.
    TraceAttack,
    /// FSL generations with synthetic ciphertext payloads, then heavy
    /// deletion, GC and rekey.
    Churn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "content-backup" => Some(Kind::ContentBackup),
            "trace-attack" => Some(Kind::TraceAttack),
            "churn" => Some(Kind::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ContentBackup => "content-backup",
            Kind::TraceAttack => "trace-attack",
            Kind::Churn => "churn",
        }
    }
}

/// Fixed knobs of one workload, recorded with every result.
#[derive(Clone, Debug)]
pub struct Plan {
    pub kind: Kind,
    /// Concurrent client threads, one connection each.
    pub clients: usize,
    /// `ParConfig` threads for client-side encode and the attack's COUNT.
    pub par_threads: usize,
    pub fsync: FsyncPolicy,
    pub container_bytes: u64,
    /// Fingerprint-cache capacity in entries.
    pub cache_entries: usize,
    pub gc_threshold_permille: u32,
}

/// Secret of the trace encryptor (the clients' shared MLE secret).
pub const TRACE_SECRET: &[u8] = b"e2ebench trace secret";
/// Secret of the key epoch the lifecycle phase rekeys to.
pub const EPOCH_SECRET: &[u8] = b"e2ebench epoch secret";

/// What one commit uploads.
#[derive(Debug)]
pub enum UnitData {
    /// Plaintext bytes, encoded and defended by the client.
    Bytes(Vec<u8>),
    /// Records: plaintext fingerprints for `TraceAttack` (the client
    /// encrypts them), ciphertext fingerprints for `Churn`.
    Records(Backup),
}

/// One commit's worth of input.
#[derive(Debug)]
pub struct Unit {
    pub label: String,
    /// Snapshot or month the unit belongs to.
    pub generation: usize,
    pub data: UnitData,
}

/// The content client's fixed pipeline.
#[derive(Debug)]
pub struct ContentPipeline {
    pub chunker: FastCdc,
    pub mle: Convergent,
    pub scheme: MinHashScrambleScheme,
    pub ctx: KeyContext,
}

/// Seeded inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    pub units: Vec<Unit>,
    /// Indices into `units` that the lifecycle phase deletes.
    pub deleted: Vec<usize>,
    /// Ciphertext payload of every unique fingerprint (`Churn`).
    pub payloads: HashMap<u64, Vec<u8>>,
    /// The adversary's auxiliary information: an earlier plaintext
    /// generation.
    pub aux: Backup,
    /// The adversary's target: the ciphertext view of the latest
    /// generation, and its ground truth for scoring.
    pub target: Backup,
    pub truth: GroundTruth,
    pub pipeline: ContentPipeline,
    pub encryptor: DeterministicTraceEncryptor,
    /// Unique chunks across all units (the dedup working set).
    pub unique_chunks: u64,
}

impl Plan {
    pub fn new(kind: Kind, nproc: usize) -> Plan {
        let clients = match kind {
            Kind::TraceAttack => 2.min(nproc.max(1)),
            _ => 1,
        };
        let (fsync, cache_entries) = match kind {
            Kind::ContentBackup => (FsyncPolicy::Always, 1 << 16),
            Kind::TraceAttack => (FsyncPolicy::Never, 6_000),
            Kind::Churn => (FsyncPolicy::Always, 1 << 16),
        };
        Plan {
            kind,
            clients,
            par_threads: nproc.clamp(1, 2),
            fsync,
            container_bytes: 1 << 20,
            cache_entries,
            gc_threshold_permille: 1000,
        }
    }
}

/// Splits `backup` into `parts` contiguous commits labelled `m<g>-p<i>`.
fn split(backup: &Backup, generation: usize, parts: usize) -> Vec<Backup> {
    let n = backup.len();
    (0..parts)
        .map(|p| {
            let chunks = backup.chunks[p * n / parts..(p + 1) * n / parts].to_vec();
            Backup::from_chunks(format!("m{generation}-p{p:03}"), chunks)
        })
        .collect()
}

fn pipeline() -> ContentPipeline {
    ContentPipeline {
        chunker: FastCdc::paper_8kb(),
        mle: Convergent::new(),
        scheme: MinHashScrambleScheme::combined(SegmentParams::paper_default(8 * 1024), 0xe2e),
        ctx: KeyContext::new(b"e2ebench client secret", 0xe2e),
    }
}

/// Generates the inputs of `plan` from `seed`.
///
/// # Panics
///
/// Panics when the workload's generator or client pipeline rejects its
/// fixed configuration (a bug in this file).
pub fn generate(plan: &Plan, seed: u64) -> Inputs {
    match plan.kind {
        Kind::ContentBackup => content(plan, seed),
        Kind::TraceAttack => records(plan, seed, 5_000, 20, &[0]),
        Kind::Churn => records(plan, seed, 200, 12, &[0, 1, 2]),
    }
}

const SNAPSHOTS: usize = 6;
const GROUPS: usize = 8;

fn content(plan: &Plan, seed: u64) -> Inputs {
    let pipeline = pipeline();
    let par = ParConfig::with_threads(plan.par_threads);
    let mut snaps = SyntheticSnapshots::new(SyntheticConfig {
        seed,
        snapshots: SNAPSHOTS,
        ..SyntheticConfig::scaled(4 * 1024 * 1024)
    });
    let mut units = Vec::new();
    for s in 0..SNAPSHOTS {
        if s > 0 {
            snaps.advance();
        }
        let files = snaps.files();
        for g in 0..GROUPS {
            let mut bytes = Vec::new();
            for f in &files[g * files.len() / GROUPS..(g + 1) * files.len() / GROUPS] {
                bytes.extend_from_slice(&f.data);
            }
            units.push(Unit {
                label: format!("snap-{s:02}-g{g:02}"),
                generation: s,
                data: UnitData::Bytes(bytes),
            });
        }
    }
    let plain_of = |unit: &Unit| match &unit.data {
        UnitData::Bytes(b) => records_from_bytes(b, &pipeline.chunker),
        UnitData::Records(_) => unreachable!("content units carry bytes"),
    };
    let mut aux = Backup::new("aux");
    let mut target = Backup::new("target");
    let mut truth = GroundTruth::new();
    let mut unique = std::collections::HashSet::new();
    for unit in &units {
        let plain = plain_of(unit);
        unique.extend(plain.iter().map(|r| r.fp));
        if unit.generation == SNAPSHOTS - 2 {
            aux.chunks.extend(plain);
        } else if unit.generation == SNAPSHOTS - 1 {
            let UnitData::Bytes(bytes) = &unit.data else {
                unreachable!("content units carry bytes")
            };
            let enc =
                EncodedStream::encode(&unit.label, bytes, &pipeline.chunker, &pipeline.mle, par)
                    .expect("convergent MLE never refuses a key");
            let inner: HashMap<_, _> = enc
                .backup
                .iter()
                .map(|c| c.fp)
                .zip(plain.iter().map(|p| p.fp))
                .collect();
            let defended =
                DefenseScheme::encrypt_backup(&pipeline.scheme, &enc.backup, &pipeline.ctx);
            for (d, i) in defended.truth.iter() {
                truth.record(d, inner[&i]);
            }
            target.chunks.extend(defended.backup.chunks);
        }
    }
    let deleted = (0..units.len())
        .filter(|&i| units[i].generation < 2)
        .collect();
    Inputs {
        units,
        deleted,
        payloads: HashMap::new(),
        aux,
        target,
        truth,
        pipeline,
        encryptor: DeterministicTraceEncryptor::new(TRACE_SECRET),
        unique_chunks: unique.len() as u64,
    }
}

/// FSL-driven inputs: `TraceAttack` uploads plaintext records the client
/// encrypts; `Churn` uploads records encrypted here, with payloads.
fn records(
    plan: &Plan,
    seed: u64,
    chunks_per_user: usize,
    parts: usize,
    deleted_generations: &[usize],
) -> Inputs {
    let series: BackupSeries = fsl::generate(&FslConfig {
        seed,
        ..FslConfig::scaled(chunks_per_user)
    });
    let encryptor = DeterministicTraceEncryptor::new(TRACE_SECRET);
    let months = series.len();
    let mut units = Vec::new();
    let mut payloads = HashMap::new();
    let mut unique = std::collections::HashSet::new();
    for (g, month) in series.iter().enumerate() {
        unique.extend(month.iter().map(|r| r.fp));
        let upload = match plan.kind {
            Kind::Churn => {
                let cipher = encryptor.encrypt_backup(month).backup;
                for r in &cipher {
                    payloads
                        .entry(r.fp.value())
                        .or_insert_with(|| synthetic_payload(r.fp, r.size));
                }
                cipher
            }
            _ => month.clone(),
        };
        for part in split(&upload, g, parts) {
            units.push(Unit {
                label: part.label.clone(),
                generation: g,
                data: UnitData::Records(part),
            });
        }
    }
    let latest = encryptor.encrypt_backup(series.latest().expect("FSL series has months"));
    let deleted = (0..units.len())
        .filter(|&i| deleted_generations.contains(&units[i].generation))
        .collect();
    Inputs {
        units,
        deleted,
        payloads,
        aux: series
            .get(months - 2)
            .expect("FSL series has two months")
            .clone(),
        target: latest.backup,
        truth: latest.truth,
        pipeline: pipeline(),
        encryptor,
        unique_chunks: unique.len() as u64,
    }
}
