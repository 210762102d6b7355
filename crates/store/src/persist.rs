//! Durable-store plumbing: configuration, error type, store metadata file,
//! and the little-endian framing helpers shared by the [container
//! log](crate::log) and the [manifest journal + snapshot](crate::manifest).
//!
//! The on-disk layout of one persistent [shard](crate::engine::Shard) is:
//!
//! ```text
//! <dir>/store.meta            fixed-size config echo (magic FQSM + CRC)
//! <dir>/manifest.log          append-only journal of seal/delete events
//! <dir>/index.snap            fingerprint-index + counters snapshot
//! <dir>/container-NNNNNNNN.clog   one file per sealed container
//! ```
//!
//! The layout of a [`crate::engine::DedupEngine`] is a function of its
//! shard count alone: one shard lives flat in the store directory; more
//! live in `shard-NNN/` subdirectories below a `store.meta` of kind
//! *sharded*. All integers are little-endian; every file carries a
//! magic, a version, and a trailing CRC-32 (IEEE) so truncation and
//! corruption are detectable. See `DESIGN.md` §7 for the recovery
//! invariant.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use freqdedup_trace::io::Crc32;

use crate::fault::{FaultFile, IoPolicy, IoPolicyHandle, PersistSite};

/// When the engine calls `fsync` on its persistence files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` container files before their manifest record, `fsync` the
    /// journal after every append, and `fsync` snapshots and directories.
    /// This is the crash-safe mode: a manifest-recorded container is always
    /// fully durable, so only the *tail* of the store can ever be torn.
    #[default]
    Always,
    /// Never `fsync` (leave durability to the OS page cache). Much faster;
    /// crash consistency degrades to best-effort. Intended for tests and
    /// throughput experiments.
    Never,
}

/// Where and how a [`crate::engine::DedupEngine`] persists its state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistConfig {
    /// Root directory of the store (created on first open).
    pub dir: PathBuf,
    /// Fsync policy for container, journal and snapshot writes.
    pub fsync: FsyncPolicy,
    /// Write an index snapshot at the first consistent point
    /// ([`crate::engine::DedupEngine::finish`]) once at least this many
    /// containers have been sealed since the last snapshot. `0` disables
    /// interval snapshots — one is still always written by
    /// [`crate::engine::DedupEngine::close`].
    pub snapshot_every_seals: u32,
    /// Fault-injection hook consulted before every durable operation.
    /// Empty by default (one `Option` branch per operation, nothing else);
    /// ignored by `Clone`-shared equality — see
    /// [`crate::fault::IoPolicyHandle`].
    pub io: IoPolicyHandle,
    /// Key-epoch secrets for reading rekeyed container payloads:
    /// `(epoch, secret)` pairs. Epoch 0 is the identity (payloads stored
    /// unwrapped) and needs no entry. Secrets are **never persisted** —
    /// a store rekeyed to epoch *e* can only be reopened by supplying the
    /// epoch-*e* secret here, which is the REED revocation property.
    pub keys: Vec<(u64, Vec<u8>)>,
}

impl PersistConfig {
    /// Persistence rooted at `dir` with the crash-safe defaults
    /// ([`FsyncPolicy::Always`], snapshots only at close).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            snapshot_every_seals: 0,
            io: IoPolicyHandle::none(),
            keys: Vec::new(),
        }
    }

    /// Sets the fsync policy (builder style).
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the snapshot interval in sealed containers (builder style).
    #[must_use]
    pub fn snapshot_every_seals(mut self, seals: u32) -> Self {
        self.snapshot_every_seals = seals;
        self
    }

    /// Installs a fault-injection policy (builder style; tests only).
    #[must_use]
    pub fn io_policy(mut self, policy: impl IoPolicy + 'static) -> Self {
        self.io = IoPolicyHandle::new(policy);
        self
    }

    /// Registers the secret of a key epoch (builder style). Required to
    /// reopen a store whose payloads were rekeyed to that epoch.
    #[must_use]
    pub fn epoch_secret(mut self, epoch: u64, secret: impl Into<Vec<u8>>) -> Self {
        self.keys.push((epoch, secret.into()));
        self
    }
}

/// Errors produced by the durable-store layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A file's magic bytes did not match its expected format.
    BadMagic {
        /// The offending file (relative name).
        file: String,
    },
    /// A file carries an unsupported format version.
    BadVersion {
        /// The offending file (relative name).
        file: String,
        /// The version found.
        version: u16,
    },
    /// A file ends mid-record or fails its CRC — the signature of a torn
    /// (interrupted) write. Recovery tolerates this on the *tail* of the
    /// store only.
    Torn {
        /// The offending file (relative name).
        file: String,
        /// What was being read when the tear was detected.
        detail: String,
    },
    /// A structural invariant does not hold (ids out of order, counts
    /// disagreeing, a valid container after a torn one, ...).
    Corrupt(String),
    /// The directory was created under a different configuration than the
    /// one now supplied.
    ConfigMismatch(String),
    /// The supplied engine configuration failed
    /// [`crate::engine::DedupConfig::validate`].
    InvalidConfig(String),
    /// A container payload is wrapped under a key epoch whose secret is
    /// missing from [`PersistConfig::keys`] or fails the stored key-check
    /// value — the REED "old key reads refused" signal, distinct from data
    /// corruption.
    WrongKey {
        /// The epoch the container was written under.
        epoch: u64,
    },
    /// A fault-injection policy failed this operation (tests only; never
    /// produced without an installed [`crate::fault::IoPolicy`]).
    Injected {
        /// The durable-operation site that was failed.
        site: PersistSite,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { file } => write!(f, "{file}: not a freqdedup store file"),
            PersistError::BadVersion { file, version } => {
                write!(f, "{file}: unsupported format version {version}")
            }
            PersistError::Torn { file, detail } => {
                write!(f, "{file}: torn write detected ({detail})")
            }
            PersistError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            PersistError::ConfigMismatch(msg) => write!(f, "configuration mismatch: {msg}"),
            PersistError::InvalidConfig(msg) => write!(f, "{msg}"),
            PersistError::WrongKey { epoch } => {
                write!(f, "missing or wrong secret for key epoch {epoch}")
            }
            PersistError::Injected { site } => write!(f, "injected fault at {site:?}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// `fsync`s `file` when the policy requires it.
pub(crate) fn maybe_sync(file: &File, policy: FsyncPolicy) -> Result<(), PersistError> {
    if policy == FsyncPolicy::Always {
        file.sync_all()?;
    }
    Ok(())
}

/// `fsync`s the directory itself (making renames/creations durable) when
/// the policy requires it. Best-effort on platforms where directories
/// cannot be opened for sync.
pub(crate) fn maybe_sync_dir(dir: &Path, policy: FsyncPolicy) -> Result<(), PersistError> {
    if policy == FsyncPolicy::Always {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A byte sink that CRCs everything written through it.
pub(crate) struct CrcSink<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcSink<W> {
    pub(crate) fn new(inner: W) -> Self {
        CrcSink {
            inner,
            crc: Crc32::new(),
        }
    }

    pub(crate) fn write_all(&mut self, data: &[u8]) -> Result<(), PersistError> {
        self.crc.update(data);
        self.inner.write_all(data)?;
        Ok(())
    }

    pub(crate) fn write_u8(&mut self, v: u8) -> Result<(), PersistError> {
        self.write_all(&[v])
    }

    pub(crate) fn write_u16(&mut self, v: u16) -> Result<(), PersistError> {
        self.write_all(&v.to_le_bytes())
    }

    pub(crate) fn write_u32(&mut self, v: u32) -> Result<(), PersistError> {
        self.write_all(&v.to_le_bytes())
    }

    pub(crate) fn write_u64(&mut self, v: u64) -> Result<(), PersistError> {
        self.write_all(&v.to_le_bytes())
    }

    /// Appends the CRC of everything written so far and returns the sink.
    pub(crate) fn finish(mut self) -> Result<W, PersistError> {
        let crc = self.crc.finalize();
        self.inner.write_all(&crc.to_le_bytes())?;
        Ok(self.inner)
    }
}

/// A byte source that CRCs everything read through it.
pub(crate) struct CrcSource<R> {
    inner: R,
    crc: Crc32,
    file: &'static str,
    consumed: u64,
}

impl<R: Read> CrcSource<R> {
    pub(crate) fn new(inner: R, file: &'static str) -> Self {
        CrcSource {
            inner,
            crc: Crc32::new(),
            file,
            consumed: 0,
        }
    }

    /// Bytes read through the CRC so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Reads exactly `buf.len()` bytes; a short read is reported as a torn
    /// write of `what`.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8], what: &str) -> Result<(), PersistError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                PersistError::Torn {
                    file: self.file.to_string(),
                    detail: format!("file ends inside {what}"),
                }
            } else {
                PersistError::Io(e)
            }
        })?;
        self.crc.update(buf);
        self.consumed += buf.len() as u64;
        Ok(())
    }

    pub(crate) fn read_u8(&mut self, what: &str) -> Result<u8, PersistError> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b, what)?;
        Ok(b[0])
    }

    pub(crate) fn read_u16(&mut self, what: &str) -> Result<u16, PersistError> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b, what)?;
        Ok(u16::from_le_bytes(b))
    }

    pub(crate) fn read_u32(&mut self, what: &str) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn read_u64(&mut self, what: &str) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads the trailing CRC (not itself CRC'd) and verifies it against
    /// everything read so far. A mismatch or a short read is a torn write.
    pub(crate) fn expect_crc(&mut self) -> Result<(), PersistError> {
        let actual = self.crc.finalize();
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                PersistError::Torn {
                    file: self.file.to_string(),
                    detail: "file ends inside trailing checksum".to_string(),
                }
            } else {
                PersistError::Io(e)
            }
        })?;
        let expected = u32::from_le_bytes(b);
        if expected != actual {
            return Err(PersistError::Torn {
                file: self.file.to_string(),
                detail: format!(
                    "checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
                ),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// store.meta — configuration echo written once at directory creation.
// ---------------------------------------------------------------------------

const META_MAGIC: &[u8; 4] = b"FQSM";
const META_VERSION: u16 = 1;
pub(crate) const META_FILE: &str = "store.meta";

/// What a persistence directory holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaKind {
    /// One [`crate::engine::Shard`], laid out flat.
    Engine,
    /// The root of a multi-shard [`crate::engine::DedupEngine`] (shard
    /// subdirectories below it each carry an `Engine` meta of their own).
    Sharded,
}

/// The configuration echo stored in `store.meta`, validated on reopen so a
/// directory cannot silently be opened under an incompatible configuration.
///
/// The file also carries an `index_shards` field from when the fingerprint
/// index was prefix-sharded inside each shard: it is written as 1 and
/// ignored on read, since the index counters are summed either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Directory kind.
    pub kind: MetaKind,
    /// Shard count (1 for a flat shard directory).
    pub shards: u32,
    /// Configured metadata entry size in bytes.
    pub entry_bytes: u64,
    /// Configured container capacity in bytes.
    pub container_bytes: u64,
}

/// Writes `store.meta` into `dir`.
pub(crate) fn write_meta(
    dir: &Path,
    meta: &StoreMeta,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    let file = FaultFile::new(
        File::create(dir.join(META_FILE))?,
        io.clone(),
        PersistSite::MetaWrite,
    );
    let mut w = CrcSink::new(std::io::BufWriter::new(file));
    w.write_all(META_MAGIC)?;
    w.write_u16(META_VERSION)?;
    w.write_u8(match meta.kind {
        MetaKind::Engine => 1,
        MetaKind::Sharded => 2,
    })?;
    w.write_u32(meta.shards)?;
    w.write_u64(meta.entry_bytes)?;
    w.write_u32(1)?; // index_shards
    w.write_u64(meta.container_bytes)?;
    let mut buf = w.finish()?;
    buf.flush()?;
    buf.get_ref().maybe_sync(policy, PersistSite::MetaWrite)?;
    io.check_sync(PersistSite::DirSync)?;
    maybe_sync_dir(dir, policy)?;
    Ok(())
}

/// Ensures `dir` carries this configuration's `store.meta`: validates an
/// existing file against `meta` (rejecting a mismatch) and writes one only
/// when the directory has none yet — an existing, matching meta is never
/// rewritten, so a crash here can't tear an already-good file.
pub(crate) fn ensure_meta(
    dir: &Path,
    meta: &StoreMeta,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    if dir.join(META_FILE).exists() {
        let found = read_meta(dir)?;
        if found != *meta {
            return Err(PersistError::ConfigMismatch(format!(
                "directory was created as {found:?}, opened as {meta:?}"
            )));
        }
        Ok(())
    } else {
        write_meta(dir, meta, policy, io)
    }
}

/// Reads and verifies `store.meta` from `dir`.
pub(crate) fn read_meta(dir: &Path) -> Result<StoreMeta, PersistError> {
    let file = File::open(dir.join(META_FILE))?;
    let mut r = CrcSource::new(std::io::BufReader::new(file), META_FILE);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic, "magic")?;
    if &magic != META_MAGIC {
        return Err(PersistError::BadMagic {
            file: META_FILE.to_string(),
        });
    }
    let version = r.read_u16("version")?;
    if version != META_VERSION {
        return Err(PersistError::BadVersion {
            file: META_FILE.to_string(),
            version,
        });
    }
    let kind = match r.read_u8("kind")? {
        1 => MetaKind::Engine,
        2 => MetaKind::Sharded,
        other => {
            return Err(PersistError::Corrupt(format!(
                "store.meta: unknown directory kind {other}"
            )))
        }
    };
    let shards = r.read_u32("shards")?;
    let entry_bytes = r.read_u64("entry_bytes")?;
    r.read_u32("index_shards")?;
    let container_bytes = r.read_u64("container_bytes")?;
    r.expect_crc()?;
    Ok(StoreMeta {
        kind,
        shards,
        entry_bytes,
        container_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "freqdedup-persist-unit-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn meta_round_trip() {
        let dir = tmp_dir("meta");
        let meta = StoreMeta {
            kind: MetaKind::Sharded,
            shards: 4,
            entry_bytes: 32,
            container_bytes: 4096,
        };
        write_meta(&dir, &meta, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), meta);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_rejects_corruption() {
        let dir = tmp_dir("meta-corrupt");
        let meta = StoreMeta {
            kind: MetaKind::Engine,
            shards: 1,
            entry_bytes: 32,
            container_bytes: 64,
        };
        write_meta(&dir, &meta, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 5; // inside the payload, before the CRC
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_meta(&dir),
            Err(PersistError::Torn { .. } | PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_readable() {
        let e = PersistError::Torn {
            file: "x.clog".into(),
            detail: "file ends inside record".into(),
        };
        assert!(e.to_string().contains("torn"));
        let e = PersistError::ConfigMismatch("entry_bytes 16 vs 32".into());
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn persist_config_builder() {
        let c = PersistConfig::new("/tmp/x")
            .fsync(FsyncPolicy::Never)
            .snapshot_every_seals(8)
            .epoch_secret(1, b"s1".as_slice());
        assert_eq!(c.fsync, FsyncPolicy::Never);
        assert_eq!(c.snapshot_every_seals, 8);
        assert_eq!(c.dir, PathBuf::from("/tmp/x"));
        assert_eq!(c.keys, vec![(1, b"s1".to_vec())]);
    }
}
