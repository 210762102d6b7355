//! Storage and metadata-access statistics (the measurands of Figs. 11/13/14).
//!
//! Both record types are closed under component-wise addition ([`Add`] /
//! [`AddAssign`] / [`Sum`]): a multi-shard engine merges its per-shard
//! counters into one aggregate record with plain `+`.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// On-disk metadata access totals, in bytes, split into the paper's three
/// categories (§7.4.2):
///
/// * **update** — writing index entries for unique chunks (S2/S3);
/// * **index** — reading the on-disk index to confirm duplicates (S3);
/// * **loading** — prefetching container fingerprint lists into the cache
///   (S4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetadataAccess {
    /// Bytes of index updates.
    pub update_bytes: u64,
    /// Bytes of index lookups.
    pub index_bytes: u64,
    /// Bytes of container-fingerprint loading.
    pub loading_bytes: u64,
}

impl MetadataAccess {
    /// Total metadata bytes accessed.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.update_bytes + self.index_bytes + self.loading_bytes
    }

    /// Fraction contributed by loading access (the paper observes ≥ 74.2%
    /// with a small cache). Returns 0 for an empty record.
    #[must_use]
    pub fn loading_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.loading_bytes as f64 / total as f64
        }
    }
}

impl Sub for MetadataAccess {
    type Output = MetadataAccess;

    /// Component-wise difference; used to derive per-backup deltas from
    /// cumulative counters.
    fn sub(self, earlier: MetadataAccess) -> MetadataAccess {
        MetadataAccess {
            update_bytes: self.update_bytes - earlier.update_bytes,
            index_bytes: self.index_bytes - earlier.index_bytes,
            loading_bytes: self.loading_bytes - earlier.loading_bytes,
        }
    }
}

impl Add for MetadataAccess {
    type Output = MetadataAccess;

    /// Component-wise sum; merges per-shard access records.
    fn add(self, other: MetadataAccess) -> MetadataAccess {
        MetadataAccess {
            update_bytes: self.update_bytes + other.update_bytes,
            index_bytes: self.index_bytes + other.index_bytes,
            loading_bytes: self.loading_bytes + other.loading_bytes,
        }
    }
}

impl AddAssign for MetadataAccess {
    fn add_assign(&mut self, other: MetadataAccess) {
        *self = *self + other;
    }
}

impl Sum for MetadataAccess {
    fn sum<I: Iterator<Item = MetadataAccess>>(iter: I) -> Self {
        iter.fold(MetadataAccess::default(), Add::add)
    }
}

/// Deduplication outcome counters for an ingest stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Logical chunks ingested (duplicates included).
    pub logical_chunks: u64,
    /// Logical bytes ingested.
    pub logical_bytes: u64,
    /// Unique chunks stored.
    pub unique_chunks: u64,
    /// Unique bytes stored.
    pub unique_bytes: u64,
    /// Duplicates resolved by the fingerprint cache (S1).
    pub dup_cache_hits: u64,
    /// Duplicates resolved by the open-container buffer.
    pub dup_buffer_hits: u64,
    /// Duplicates resolved by the on-disk index (S4).
    pub dup_index_hits: u64,
    /// Bloom-filter false positives (bloom hit, index miss).
    pub bloom_false_positives: u64,
    /// Containers sealed.
    pub containers_sealed: u64,
    /// Logical chunks released by backup deletion (still stored until GC).
    pub deleted_chunks: u64,
    /// Logical bytes released by backup deletion. Deletion is a *logical*
    /// event: the bytes stay in their containers until a [`gc`] pass
    /// physically reclaims them, which is what [`Self::reclaimed_bytes`]
    /// counts — the two grow independently and their gap is the store's
    /// reclaimable debt.
    ///
    /// [`gc`]: crate::engine::DedupEngine::gc
    pub deleted_bytes: u64,
    /// Physical bytes reclaimed by GC (dead chunk bytes dropped with their
    /// containers).
    pub reclaimed_bytes: u64,
    /// Containers dropped by GC.
    pub containers_dropped: u64,
}

impl StoreStats {
    /// Total duplicate chunks detected.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.dup_cache_hits + self.dup_buffer_hits + self.dup_index_hits
    }

    /// Storage saving `1 - unique/logical` over the ingested stream.
    #[must_use]
    pub fn storage_saving(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.unique_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// Deduplication ratio `logical/unique` over the ingested stream.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.unique_bytes as f64
        }
    }

    /// The canonical fixed-order array form (the persistence snapshot's
    /// serialization of the record). Field order is part of the on-disk
    /// format — append-only.
    #[must_use]
    pub fn to_array(&self) -> [u64; 13] {
        [
            self.logical_chunks,
            self.logical_bytes,
            self.unique_chunks,
            self.unique_bytes,
            self.dup_cache_hits,
            self.dup_buffer_hits,
            self.dup_index_hits,
            self.bloom_false_positives,
            self.containers_sealed,
            self.deleted_chunks,
            self.deleted_bytes,
            self.reclaimed_bytes,
            self.containers_dropped,
        ]
    }

    /// Rebuilds a record from its [`Self::to_array`] form.
    #[must_use]
    pub fn from_array(a: [u64; 13]) -> Self {
        StoreStats {
            logical_chunks: a[0],
            logical_bytes: a[1],
            unique_chunks: a[2],
            unique_bytes: a[3],
            dup_cache_hits: a[4],
            dup_buffer_hits: a[5],
            dup_index_hits: a[6],
            bloom_false_positives: a[7],
            containers_sealed: a[8],
            deleted_chunks: a[9],
            deleted_bytes: a[10],
            reclaimed_bytes: a[11],
            containers_dropped: a[12],
        }
    }
}

impl Add for StoreStats {
    type Output = StoreStats;

    /// Component-wise sum; merges per-shard ingest counters.
    fn add(self, other: StoreStats) -> StoreStats {
        StoreStats {
            logical_chunks: self.logical_chunks + other.logical_chunks,
            logical_bytes: self.logical_bytes + other.logical_bytes,
            unique_chunks: self.unique_chunks + other.unique_chunks,
            unique_bytes: self.unique_bytes + other.unique_bytes,
            dup_cache_hits: self.dup_cache_hits + other.dup_cache_hits,
            dup_buffer_hits: self.dup_buffer_hits + other.dup_buffer_hits,
            dup_index_hits: self.dup_index_hits + other.dup_index_hits,
            bloom_false_positives: self.bloom_false_positives + other.bloom_false_positives,
            containers_sealed: self.containers_sealed + other.containers_sealed,
            deleted_chunks: self.deleted_chunks + other.deleted_chunks,
            deleted_bytes: self.deleted_bytes + other.deleted_bytes,
            reclaimed_bytes: self.reclaimed_bytes + other.reclaimed_bytes,
            containers_dropped: self.containers_dropped + other.containers_dropped,
        }
    }
}

impl AddAssign for StoreStats {
    fn add_assign(&mut self, other: StoreStats) {
        *self = *self + other;
    }
}

impl Sum for StoreStats {
    fn sum<I: Iterator<Item = StoreStats>>(iter: I) -> Self {
        iter.fold(StoreStats::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let m = MetadataAccess {
            update_bytes: 10,
            index_bytes: 20,
            loading_bytes: 70,
        };
        assert_eq!(m.total_bytes(), 100);
        assert!((m.loading_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_metadata_access() {
        let m = MetadataAccess::default();
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.loading_fraction(), 0.0);
    }

    #[test]
    fn delta_via_sub() {
        let earlier = MetadataAccess {
            update_bytes: 5,
            index_bytes: 5,
            loading_bytes: 5,
        };
        let later = MetadataAccess {
            update_bytes: 7,
            index_bytes: 11,
            loading_bytes: 5,
        };
        let d = later - earlier;
        assert_eq!(d.update_bytes, 2);
        assert_eq!(d.index_bytes, 6);
        assert_eq!(d.loading_bytes, 0);
    }

    #[test]
    fn store_stats_derived_metrics() {
        let s = StoreStats {
            logical_chunks: 10,
            logical_bytes: 100,
            unique_chunks: 4,
            unique_bytes: 25,
            dup_cache_hits: 3,
            dup_buffer_hits: 1,
            dup_index_hits: 2,
            ..StoreStats::default()
        };
        assert_eq!(s.duplicates(), 6);
        assert!((s.storage_saving() - 0.75).abs() < 1e-12);
        assert!((s.dedup_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn store_stats_empty_neutral() {
        let s = StoreStats::default();
        assert_eq!(s.storage_saving(), 0.0);
        assert_eq!(s.dedup_ratio(), 1.0);
    }

    #[test]
    fn array_form_round_trips() {
        let s = StoreStats {
            logical_chunks: 1,
            logical_bytes: 2,
            unique_chunks: 3,
            unique_bytes: 4,
            dup_cache_hits: 5,
            dup_buffer_hits: 6,
            dup_index_hits: 7,
            bloom_false_positives: 8,
            containers_sealed: 9,
            deleted_chunks: 10,
            deleted_bytes: 11,
            reclaimed_bytes: 12,
            containers_dropped: 13,
        };
        assert_eq!(s.to_array(), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        assert_eq!(StoreStats::from_array(s.to_array()), s);
    }

    #[test]
    fn lifecycle_counters_merge_and_grow_independently() {
        // Logical deletion and physical reclaim are separate measurands:
        // deleting a backup moves deleted_* without touching reclaimed_*,
        // and the sharded merge sums each component independently.
        let deleted = StoreStats {
            deleted_chunks: 4,
            deleted_bytes: 400,
            ..StoreStats::default()
        };
        let reclaimed = StoreStats {
            reclaimed_bytes: 150,
            containers_dropped: 2,
            ..StoreStats::default()
        };
        let merged = deleted + reclaimed;
        assert_eq!(merged.deleted_chunks, 4);
        assert_eq!(merged.deleted_bytes, 400);
        assert_eq!(merged.reclaimed_bytes, 150);
        assert_eq!(merged.containers_dropped, 2);
        let mut acc = StoreStats::default();
        acc += deleted;
        acc += reclaimed;
        assert_eq!(acc, merged);
        assert_eq!([deleted, reclaimed].into_iter().sum::<StoreStats>(), merged);
    }

    #[test]
    fn merge_via_add_and_sum() {
        let a = StoreStats {
            logical_chunks: 3,
            unique_chunks: 2,
            dup_cache_hits: 1,
            ..StoreStats::default()
        };
        let b = StoreStats {
            logical_chunks: 5,
            unique_chunks: 1,
            containers_sealed: 2,
            ..StoreStats::default()
        };
        let m = a + b;
        assert_eq!(m.logical_chunks, 8);
        assert_eq!(m.unique_chunks, 3);
        assert_eq!(m.dup_cache_hits, 1);
        assert_eq!(m.containers_sealed, 2);
        let s: StoreStats = [a, b].into_iter().sum();
        assert_eq!(s, m);

        let ma = MetadataAccess {
            update_bytes: 1,
            index_bytes: 2,
            loading_bytes: 3,
        };
        let mut acc = MetadataAccess::default();
        acc += ma;
        acc += ma;
        assert_eq!(acc, ma + ma);
        assert_eq!([ma, ma].into_iter().sum::<MetadataAccess>(), acc);
    }
}
