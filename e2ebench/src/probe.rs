//! Measurements taken from outside the program: a counting persistence
//! policy, directory sizes, peak memory and the source revision.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use freqdedup_store::fault::{FaultAction, IoPolicy, PersistSite};

/// Bytes written and syncs issued at one persistence site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteIo {
    pub writes: u64,
    pub bytes: u64,
    pub syncs: u64,
}

/// Shared per-site counts of a [`CountingIo`] policy.
pub type IoCounts = Arc<Mutex<BTreeMap<String, SiteIo>>>;

/// An [`IoPolicy`] that never injects a fault: it lets every operation
/// proceed and counts bytes and syncs per [`PersistSite`].
#[derive(Clone, Default)]
pub struct CountingIo {
    counts: IoCounts,
}

impl CountingIo {
    pub fn new() -> (Self, IoCounts) {
        let policy = CountingIo::default();
        let counts = Arc::clone(&policy.counts);
        (policy, counts)
    }

    fn site(&self, site: PersistSite, f: impl FnOnce(&mut SiteIo)) -> FaultAction {
        let mut counts = self
            .counts
            .lock()
            .expect("io counts poisoned by a panicking store thread");
        f(counts.entry(format!("{site:?}")).or_default());
        FaultAction::Proceed
    }
}

impl IoPolicy for CountingIo {
    fn before_write(&mut self, site: PersistSite, len: usize) -> FaultAction {
        self.site(site, |c| {
            c.writes += 1;
            c.bytes += len as u64;
        })
    }

    fn before_sync(&mut self, site: PersistSite) -> FaultAction {
        self.site(site, |c| c.syncs += 1)
    }
}

/// Total size of the regular files under `dir` (0 when it is missing).
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Total size of the container logs under `dir`: the bytes a rekey
/// rewrites.
#[must_use]
pub fn container_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                container_bytes(&path)
            } else if path.extension().is_some_and(|x| x == "clog") {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out revision read from `.git` in the working directory, or
/// `"unknown"` outside a git checkout.
#[must_use]
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_io_counts_bytes_and_syncs_and_proceeds() {
        let (mut policy, counts) = CountingIo::new();
        assert_eq!(
            policy.before_write(PersistSite::ContainerWrite, 100),
            FaultAction::Proceed
        );
        policy.before_write(PersistSite::ContainerWrite, 20);
        assert_eq!(
            policy.before_sync(PersistSite::ContainerSync),
            FaultAction::Proceed
        );
        let c = counts.lock().unwrap();
        assert_eq!(
            c["ContainerWrite"],
            SiteIo {
                writes: 2,
                bytes: 120,
                syncs: 0
            }
        );
        assert_eq!(c["ContainerSync"].syncs, 1);
    }
}
