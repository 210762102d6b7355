//! The paper's three inference attacks (§4).

pub mod advanced;
pub mod basic;
pub mod locality;

use freqdedup_trace::{Backup, Fingerprint};

use crate::counting::TiePolicy;
use crate::dense::{DenseStats, StatsView};
use crate::metrics::Inference;
use crate::streaming::IncrementalStats;

/// Which attack to run — used by the experiment harness to sweep all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Classical frequency analysis (Algorithm 1).
    Basic,
    /// Locality-based attack (Algorithm 2).
    Locality,
    /// Advanced (size-aware) locality-based attack (Algorithm 3).
    Advanced,
}

impl AttackKind {
    /// All attacks, in the paper's presentation order.
    pub const ALL: [AttackKind; 3] = [
        AttackKind::Basic,
        AttackKind::Locality,
        AttackKind::Advanced,
    ];

    /// Human-readable name as used in the figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Basic => "Basic Attack",
            AttackKind::Locality => "Locality-based Attack",
            AttackKind::Advanced => "Advanced Attack",
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `kind` in ciphertext-only mode with the given locality parameters
/// (`u`, `v`, `w` are ignored by the basic attack; `threads` applies to
/// every kind's counting phase).
#[must_use]
pub fn run_ciphertext_only(
    kind: AttackKind,
    cipher: &Backup,
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> Inference {
    match kind {
        AttackKind::Basic => {
            basic::BasicAttack::new().run_par(cipher, plain_aux, params.par_config())
        }
        AttackKind::Locality => locality::LocalityAttack::new(params.clone().size_aware(false))
            .run_ciphertext_only(cipher, plain_aux),
        AttackKind::Advanced => {
            advanced::AdvancedAttack::new(params.clone()).run_ciphertext_only(cipher, plain_aux)
        }
    }
}

/// Ciphertext-only dispatch of `kind` over pre-built attack state on both
/// sides (any [`StatsView`] each).
fn run_ciphertext_only_with_stats_kind<SC: StatsView, SM: StatsView>(
    kind: AttackKind,
    sc: &SC,
    sm: &SM,
    params: &locality::LocalityParams,
) -> Inference {
    match kind {
        AttackKind::Basic => basic::BasicAttack::new().run_with_stats(sc, sm),
        AttackKind::Locality => locality::LocalityAttack::new(params.clone().size_aware(false))
            .run_ciphertext_only_with_stats(sc, sm),
        AttackKind::Advanced => {
            advanced::AdvancedAttack::new(params.clone()).run_ciphertext_only_with_stats(sc, sm)
        }
    }
}

/// Runs `kind` in ciphertext-only mode under **both** neighbour-table
/// tie-break policies (`params.tie_policy` is overridden per run).
///
/// This is the attack entry point for provider-side tapped traces: the
/// live-traffic equivalence criterion requires that an adversary tap's
/// inference matches offline ingest under *either* [`TiePolicy`], so the
/// tap consumers (service example, integration tests, serve bench) sweep
/// the pair through this helper.
///
/// Each policy is one [`run_ciphertext_only`] call, so the pair is
/// bit-identical to two independent runs by construction.
#[must_use]
pub fn run_ciphertext_only_both_policies(
    kind: AttackKind,
    cipher: &Backup,
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> [(TiePolicy, Inference); 2] {
    [TiePolicy::StreamOrder, TiePolicy::KeyOrder].map(|policy| {
        let per_policy = params.clone().tie_policy(policy);
        (
            policy,
            run_ciphertext_only(kind, cipher, plain_aux, &per_policy),
        )
    })
}

/// Runs `kind` in ciphertext-only mode against a **series** of tapped
/// ciphertext backups, batch-recomputed from scratch: the whole tape is
/// interned in commit order, frequencies are summed across backups, and
/// adjacency stays within each backup (no edges across commit
/// boundaries). This is the batch oracle the streaming path
/// ([`run_ciphertext_only_streaming`]) is equivalence-tested against.
#[must_use]
pub fn run_ciphertext_only_series(
    kind: AttackKind,
    cipher_tape: &[Backup],
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> Inference {
    let sc = DenseStats::full_series_with_policy(cipher_tape, params.tie_policy);
    let sm = DenseStats::full_with_policy_par(plain_aux, params.tie_policy, params.par_config());
    run_ciphertext_only_with_stats_kind(kind, &sc, &sm, params)
}

/// Runs `kind` in ciphertext-only mode against a **running**
/// [`IncrementalStats`] maintained behind live traffic — the adversary's
/// O(delta)-per-commit steady state. No ciphertext-side rebuild happens;
/// the crawl reads the segmented tables directly. `params.tie_policy` is
/// ignored in favour of the state's own policy (the tables were folded
/// under it). Bit-identical to [`run_ciphertext_only_series`] over the
/// committed tape.
#[must_use]
pub fn run_ciphertext_only_streaming(
    kind: AttackKind,
    cipher: &IncrementalStats,
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> Inference {
    let per_policy = params.clone().tie_policy(cipher.policy());
    let sm = DenseStats::full_with_policy_par(plain_aux, cipher.policy(), params.par_config());
    run_ciphertext_only_with_stats_kind(kind, cipher, &sm, &per_policy)
}

/// Known-plaintext variant of [`run_ciphertext_only_streaming`]. The basic
/// attack ignores the leakage, as in [`run_known_plaintext`].
#[must_use]
pub fn run_known_plaintext_streaming(
    kind: AttackKind,
    cipher: &IncrementalStats,
    plain_aux: &Backup,
    leaked: &[(Fingerprint, Fingerprint)],
    params: &locality::LocalityParams,
) -> Inference {
    let per_policy = params.clone().tie_policy(cipher.policy());
    let sm = DenseStats::full_with_policy_par(plain_aux, cipher.policy(), params.par_config());
    match kind {
        AttackKind::Basic => basic::BasicAttack::new().run_with_stats(cipher, &sm),
        AttackKind::Locality => locality::LocalityAttack::new(per_policy.clone().size_aware(false))
            .run_known_plaintext_with_stats(cipher, &sm, leaked),
        AttackKind::Advanced => advanced::AdvancedAttack::new(per_policy)
            .run_known_plaintext_with_stats(cipher, &sm, leaked),
    }
}

/// Runs `kind` in known-plaintext mode with leaked pairs. The basic attack
/// has no known-plaintext variant in the paper and ignores the leakage.
#[must_use]
pub fn run_known_plaintext(
    kind: AttackKind,
    cipher: &Backup,
    plain_aux: &Backup,
    leaked: &[(Fingerprint, Fingerprint)],
    params: &locality::LocalityParams,
) -> Inference {
    match kind {
        AttackKind::Basic => {
            basic::BasicAttack::new().run_par(cipher, plain_aux, params.par_config())
        }
        AttackKind::Locality => locality::LocalityAttack::new(params.clone().size_aware(false))
            .run_known_plaintext(cipher, plain_aux, leaked),
        AttackKind::Advanced => advanced::AdvancedAttack::new(params.clone())
            .run_known_plaintext(cipher, plain_aux, leaked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(AttackKind::Basic.name(), "Basic Attack");
        assert_eq!(AttackKind::Locality.to_string(), "Locality-based Attack");
        assert_eq!(AttackKind::ALL.len(), 3);
    }
}
