//! The ℓp-optimization attack (§3.4): match ciphertext and plaintext chunks
//! by minimizing the ℓp distance between their frequency vectors, solved
//! exactly with the Hungarian algorithm.
//!
//! Naveed et al. proposed this combinatorial-optimization alternative to
//! frequency analysis; Lacharité & Paterson later showed frequency analysis
//! is optimal for p ≥ 1 in the maximum-likelihood sense, and the paper cites
//! both to justify focusing on frequency analysis. This module lets the
//! benches verify that equivalence empirically: on distinct frequencies the
//! two attacks return identical matchings (the assignment problem is then
//! solved by sorting), and the O(n³) cost of the Hungarian algorithm shows
//! why frequency analysis is also the *practical* choice.

use freqdedup_trace::Backup;

use crate::dense::DenseStats;
use crate::freq_analysis::top_k_dense;
use crate::metrics::Inference;

/// Solves the minimum-cost assignment problem for an `n × m` cost matrix
/// (`n ≤ m`), returning for every row the column assigned to it.
///
/// Implementation: the O(n²m) potential-based Hungarian algorithm
/// (Jonker-Volgenant style shortest augmenting paths).
///
/// # Panics
///
/// Panics if the matrix is ragged or has more rows than columns.
#[must_use]
pub fn min_cost_assignment(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    let m = cost[0].len();
    assert!(
        cost.iter().all(|row| row.len() == m),
        "cost matrix must be rectangular"
    );
    assert!(n <= m, "assignment requires rows <= columns");

    // 1-indexed potentials and matching, per the classic formulation.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut matched_row = vec![0usize; m + 1]; // column j -> row
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        matched_row[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = matched_row[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[matched_row[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if matched_row[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            matched_row[j0] = matched_row[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for (j, &row) in matched_row.iter().enumerate().take(m + 1).skip(1) {
        if row != 0 {
            assignment[row - 1] = j - 1;
        }
    }
    assignment
}

/// Runs the ℓp-optimization attack over the `top_n` most frequent chunks of
/// each side: builds the cost matrix `|f_C(i) − f_M(j)|^p` and solves the
/// assignment exactly.
///
/// # Panics
///
/// Panics if `p <= 0`.
#[must_use]
pub fn lp_optimization_attack(
    cipher: &Backup,
    plain_aux: &Backup,
    top_n: usize,
    p: f64,
) -> Inference {
    assert!(p > 0.0, "p must be positive");
    let fc = DenseStats::frequencies_only(cipher);
    let fm = DenseStats::frequencies_only(plain_aux);
    let n = top_n.min(fc.unique_chunks()).min(fm.unique_chunks());
    if n == 0 {
        return Inference::new();
    }
    let rc = top_k_dense(&fc.global_rows(), n, fc.interner.fingerprints());
    let rm = top_k_dense(&fm.global_rows(), n, fm.interner.fingerprints());
    let cost: Vec<Vec<f64>> = rc
        .iter()
        .map(|c| {
            rm.iter()
                .map(|m| (f64::from(c.count) - f64::from(m.count)).abs().powf(p))
                .collect()
        })
        .collect();
    let assignment = min_cost_assignment(&cost);
    rc.iter()
        .zip(assignment)
        .map(|(c, j)| {
            (
                fc.interner.fingerprint(c.id),
                fm.interner.fingerprint(rm[j].id),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::basic::BasicAttack;
    use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
    use freqdedup_trace::ChunkRecord;

    fn backup(fps: &[u64]) -> Backup {
        Backup::from_chunks("t", fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    #[test]
    fn assignment_identity_matrix() {
        // Diagonal dominance: identity assignment is optimal.
        let cost = vec![
            vec![0.0, 9.0, 9.0],
            vec![9.0, 0.0, 9.0],
            vec![9.0, 9.0, 0.0],
        ];
        assert_eq!(min_cost_assignment(&cost), vec![0, 1, 2]);
    }

    #[test]
    fn assignment_antidiagonal() {
        let cost = vec![
            vec![9.0, 9.0, 0.0],
            vec![9.0, 0.0, 9.0],
            vec![0.0, 9.0, 9.0],
        ];
        assert_eq!(min_cost_assignment(&cost), vec![2, 1, 0]);
    }

    #[test]
    fn assignment_classic_example() {
        // Known optimum 5 + 3 + 2 = 10 is better than greedy.
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = min_cost_assignment(&cost);
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert!((total - 5.0).abs() < 1e-9, "total {total}");
        // All columns distinct.
        let mut cols = a.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn assignment_rectangular() {
        let cost = vec![vec![5.0, 1.0, 7.0], vec![2.0, 9.0, 3.0]];
        let a = min_cost_assignment(&cost);
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn assignment_empty() {
        assert!(min_cost_assignment(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "rows <= columns")]
    fn assignment_rejects_tall_matrix() {
        let _ = min_cost_assignment(&[vec![1.0], vec![2.0]]);
    }

    #[test]
    fn matches_basic_attack_on_distinct_frequencies() {
        // Lacharité–Paterson equivalence: with strictly distinct
        // frequencies, ℓp-optimization and frequency analysis coincide.
        let fps: Vec<u64> = (1..=10u64).flat_map(|i| vec![i; i as usize]).collect();
        let plain = backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let lp = lp_optimization_attack(&observed.backup, &plain, 10, 1.0);
        let basic = BasicAttack::new().run(&observed.backup, &plain);
        for (c, m) in lp.iter() {
            assert_eq!(basic.plain_of(c), Some(m));
        }
        assert_eq!(lp.len(), basic.len());
    }

    #[test]
    fn top_n_limits_matrix() {
        let plain = backup(&(0..100u64).collect::<Vec<_>>());
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let lp = lp_optimization_attack(&observed.backup, &plain, 7, 2.0);
        assert_eq!(lp.len(), 7);
    }

    #[test]
    fn matches_reference_ranking_on_ties() {
        // Tie-heavy: many chunks share each count, so the assignment input
        // order — the canonical ranking — decides the matching. The dense
        // ranking must reproduce the fingerprint-keyed reference exactly.
        use crate::counting::ChunkStats;
        use crate::freq_analysis::rank;
        let cipher = backup(&(0..120u64).map(|i| (i * 7) % 31).collect::<Vec<_>>());
        let aux = backup(&(0..90u64).map(|i| (i * 11) % 29 + 5).collect::<Vec<_>>());
        for (top_n, p) in [(10, 1.0), (25, 2.0), (40, 0.5)] {
            let rc = rank(&ChunkStats::frequencies_only(&cipher).freq);
            let rm = rank(&ChunkStats::frequencies_only(&aux).freq);
            let n = top_n.min(rc.len()).min(rm.len());
            let cost: Vec<Vec<f64>> = rc[..n]
                .iter()
                .map(|(_, c)| {
                    rm[..n]
                        .iter()
                        .map(|(_, m)| ((c.count as f64) - (m.count as f64)).abs().powf(p))
                        .collect()
                })
                .collect();
            let reference: Inference = rc[..n]
                .iter()
                .zip(min_cost_assignment(&cost))
                .map(|(&(c, _), j)| (c, rm[j].0))
                .collect();
            let mut got: Vec<_> = lp_optimization_attack(&cipher, &aux, top_n, p)
                .iter()
                .collect();
            let mut want: Vec<_> = reference.iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "top_n {top_n} p {p}");
        }
    }

    #[test]
    #[should_panic(expected = "p must be positive")]
    fn p_validated() {
        let _ = lp_optimization_attack(&backup(&[1]), &backup(&[1]), 1, 0.0);
    }
}
