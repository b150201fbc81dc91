//! Semantic (ABFT) silent-corruption guards for the tropical semiring.
//!
//! The tile store's checksum registry (see `tile_store`) catches
//! corruption of *at-rest* host data: a bit that flips between a write
//! and the next read no longer matches its recorded row digest. What the
//! registry cannot see is corruption that happens *in flight* — a flip
//! inside a device buffer between upload and download produces a wrong
//! result panel that the store then dutifully checksums as legitimate.
//!
//! This module closes that gap with algorithm-based fault tolerance:
//! invariants of the min-plus semiring that every correct relaxation
//! round must preserve, evaluated at the barriers the drivers already
//! synchronize on.
//!
//! * **Monotone non-increase.** Floyd-Warshall (and any relaxation
//!   sweep) only ever *lowers* distances, so the per-row tropical sum
//!   `Σ_j min(d[i][j], INF)` must not increase between consecutive
//!   barriers. A flip that raises any entry — the common case for a
//!   high-bit flip on a small distance — raises its row sum.
//! * **Sampled triangle inequalities.** After pivot round `kb` of
//!   blocked FW, `d[i][j] ≤ d[i][k] + d[k][j]` holds for every `k` in a
//!   *completed* pivot block (`k < (kb+1)·block`) and all `i, j`. For
//!   Johnson batches and boundary flushes, completed rows are final
//!   metric-closure rows, so the inequality holds for `i, k` drawn from
//!   the completed set and every `j`. The guard draws a seeded,
//!   deterministic sample of `(i, k)` pairs per barrier and checks the
//!   full `j` sweep for each; tiny stores are checked exhaustively.
//!
//! All arithmetic saturates at [`INF`] in `u64`, so the checks are
//! exact at the unreachable boundary — no overflow, no false positives
//! on clean runs (a property the conformance corpus pins).
//!
//! **Determinism.** Guard reads go through
//! `TileStore::guard_read_row`, which bypasses fault plans, crash
//! points, supervision ticks, and telemetry counters. Enabling the
//! guard never perturbs injected-fault ordinals or the simulated
//! clock; a clean run computes bit-identical distances with the guard
//! on or off.

use crate::error::ApspError;
use crate::options::SdcGuardMode;
use crate::supervisor::splitmix64;
use crate::tile_store::{TileStore, SDC_PANEL_ROWS};
use apsp_graph::{Dist, INF};

/// Triangle-inequality `(i, k)` pairs sampled per barrier. Stores with
/// no more candidate pairs than this are swept exhaustively.
const DEFAULT_TRIANGLE_SAMPLES: usize = 16;

/// Sampling seed shared by every driver's guard, so clean reruns probe
/// the same triangles and stay byte-identical.
pub(crate) const SDC_SAMPLE_SEED: u64 = 0xABF7_0D15_EA5E_5EED;

/// Clamp an entry to the unreachable ceiling before arithmetic.
fn sat(d: Dist) -> u64 {
    (d as u64).min(INF as u64)
}

/// Saturating min-plus composition: `d_ik ⊕ d_kj` in `u64`, capped at
/// [`INF`] so two near-INF legs cannot wrap or exceed the ceiling.
fn compose(d_ik: Dist, d_kj: Dist) -> u64 {
    (sat(d_ik) + sat(d_kj)).min(INF as u64)
}

/// Barrier-evaluated invariant guard. One lives in each supervised
/// driver loop; the driver calls [`SdcGuard::check_round`] (FW) or
/// [`SdcGuard::check_completed_rows`] (Johnson, boundary) right after
/// each barrier it already synchronizes on.
#[derive(Debug)]
pub struct SdcGuard {
    mode: SdcGuardMode,
    seed: u64,
    samples: usize,
    /// Per-row tropical sums at the previous barrier; empty until the
    /// first semantic check seeds it.
    row_sums: Vec<u64>,
}

impl SdcGuard {
    /// A guard at `mode`, with `seed` driving the deterministic
    /// triangle sampling.
    pub fn new(mode: SdcGuardMode, seed: u64) -> SdcGuard {
        SdcGuard {
            mode,
            seed,
            samples: DEFAULT_TRIANGLE_SAMPLES,
            row_sums: Vec::new(),
        }
    }

    /// The guard's mode.
    pub fn mode(&self) -> SdcGuardMode {
        self.mode
    }

    /// Override the per-barrier triangle sample budget (tests).
    #[cfg(test)]
    pub(crate) fn with_samples(mut self, samples: usize) -> SdcGuard {
        self.samples = samples;
        self
    }

    /// Drop the monotone baseline. Recovery *raises* store entries by
    /// design (a reset panel returns to adjacency distances), so the
    /// driver must call this after any recovery rung before resuming —
    /// otherwise the first post-recovery barrier would indict the
    /// recovery itself.
    pub fn reset_baseline(&mut self) {
        self.row_sums.clear();
    }

    /// Full barrier check for round-structured drivers (blocked FW):
    /// checksum re-verification, then — in [`SdcGuardMode::Full`] — the
    /// monotone row-sum check and triangle samples with `k` drawn from
    /// the completed pivot rows `0..k_limit`.
    pub fn check_round(
        &mut self,
        store: &TileStore,
        round: usize,
        k_limit: usize,
    ) -> Result<(), ApspError> {
        if !self.mode.is_on() {
            return Ok(());
        }
        store.verify_checksums()?;
        if !self.mode.semantic() {
            return Ok(());
        }
        self.check_monotone_sums(store, round)?;
        let n = store.n();
        self.check_triangles(
            store,
            round,
            &(0..n).collect::<Vec<_>>(),
            &Vec::from_iter(0..k_limit.min(n)),
        )
    }

    /// Barrier check for drivers that finalize whole rows (Johnson
    /// batches, boundary flushes): checksum re-verification, then — in
    /// [`SdcGuardMode::Full`] — triangle samples with both `i` and `k`
    /// drawn from `completed` (rows whose metric closure is final).
    /// Completed rows are written once, so no monotone baseline
    /// applies.
    pub fn check_completed_rows(
        &mut self,
        store: &TileStore,
        round: usize,
        completed: &[usize],
    ) -> Result<(), ApspError> {
        if !self.mode.is_on() {
            return Ok(());
        }
        store.verify_checksums()?;
        if !self.mode.semantic() {
            return Ok(());
        }
        self.check_triangles(store, round, completed, completed)
    }

    /// Per-row tropical sums must not increase between barriers. The
    /// violated row localizes the damage to its panel. The same sweep
    /// enforces the value-range invariant: no clean computation ever
    /// stores a distance above [`INF`], so an out-of-range entry is
    /// corruption even when `sat` would clamp it out of the sums (a
    /// bit flip in the high bits of an INF entry leaves the clamped
    /// sum unchanged).
    fn check_monotone_sums(&mut self, store: &TileStore, round: usize) -> Result<(), ApspError> {
        let n = store.n();
        let mut sums = Vec::with_capacity(n);
        for i in 0..n {
            let row = store.guard_read_row(i)?;
            // Diagonal invariant: `d[i][i]` is exactly 0 from
            // initialization onward (no negative cycles), and it is the
            // one entry a round-0 corruption can *raise* without tripping
            // the sum check — the surrounding relaxations lower the rest
            // of the row, masking the raise. Device-side damage can span
            // rows, so the violation reports unlocalized.
            if row[i] != 0 {
                return Err(ApspError::SilentCorruption {
                    panel: usize::MAX,
                    round,
                    detail: format!(
                        "diagonal entry d[{i}][{i}] = {} must be 0; the computation was \
                         corrupted upstream of the store",
                        row[i]
                    ),
                });
            }
            if let Some((j, &d)) = row.iter().enumerate().find(|&(_, &d)| d > INF) {
                return Err(ApspError::SilentCorruption {
                    panel: i / SDC_PANEL_ROWS,
                    round,
                    detail: format!(
                        "d[{i}][{j}] = {d} exceeds the unreachable ceiling {INF}; no clean \
                         computation stores a distance above it"
                    ),
                });
            }
            sums.push(row.iter().map(|&d| sat(d)).sum::<u64>());
        }
        if self.row_sums.len() == n {
            for (i, (&new, &old)) in sums.iter().zip(&self.row_sums).enumerate() {
                if new > old {
                    return Err(ApspError::SilentCorruption {
                        panel: i / SDC_PANEL_ROWS,
                        round,
                        detail: format!(
                            "row {i} tropical sum increased across a relaxation round \
                             ({old} -> {new}); distances are monotone non-increasing"
                        ),
                    });
                }
            }
        }
        self.row_sums = sums;
        Ok(())
    }

    /// Check `d[i][j] ≤ d[i][k] ⊕ d[k][j]` for a seeded sample of
    /// `(i, k)` pairs (exhaustive when the candidate space is small),
    /// sweeping every `j`. A violation cannot attribute the damage to
    /// one row, so it reports unlocalized (`panel == usize::MAX`).
    fn check_triangles(
        &self,
        store: &TileStore,
        round: usize,
        is: &[usize],
        ks: &[usize],
    ) -> Result<(), ApspError> {
        if is.is_empty() || ks.is_empty() {
            return Ok(());
        }
        let pairs = is.len().saturating_mul(ks.len());
        let mut state = self
            .seed
            .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let check_pair = |i: usize, k: usize| -> Result<(), ApspError> {
            let row_i = store.guard_read_row(i)?;
            let row_k = store.guard_read_row(k)?;
            // Sampled diagonal invariant (see `check_monotone_sums`).
            for (r, row) in [(i, &row_i), (k, &row_k)] {
                if row[r] != 0 {
                    return Err(ApspError::SilentCorruption {
                        panel: usize::MAX,
                        round,
                        detail: format!(
                            "diagonal entry d[{r}][{r}] = {} must be 0; the computation \
                             was corrupted upstream of the store",
                            row[r]
                        ),
                    });
                }
            }
            let d_ik = row_i[k];
            for (j, (&d_ij, &d_kj)) in row_i.iter().zip(&row_k).enumerate() {
                // Range invariant on the sampled rows: entries above the
                // unreachable ceiling are corruption `sat` would hide.
                for (r, d) in [(i, d_ij), (k, d_kj)] {
                    if d > INF {
                        return Err(ApspError::SilentCorruption {
                            panel: r / SDC_PANEL_ROWS,
                            round,
                            detail: format!(
                                "d[{r}][{j}] = {d} exceeds the unreachable ceiling {INF}; \
                                 no clean computation stores a distance above it"
                            ),
                        });
                    }
                }
                if sat(d_ij) > compose(d_ik, d_kj) {
                    return Err(ApspError::SilentCorruption {
                        panel: usize::MAX,
                        round,
                        detail: format!(
                            "triangle inequality violated: d[{i}][{j}] = {d_ij} exceeds \
                             d[{i}][{k}] + d[{k}][{j}] = {} + {}",
                            row_i[k], d_kj
                        ),
                    });
                }
            }
            Ok(())
        };
        if pairs <= self.samples {
            for &i in is {
                for &k in ks {
                    check_pair(i, k)?;
                }
            }
        } else {
            for _ in 0..self.samples {
                let i = is[(splitmix64(&mut state) % is.len() as u64) as usize];
                let k = ks[(splitmix64(&mut state) % ks.len() as u64) as usize];
                check_pair(i, k)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ApspErrorKind;
    use crate::tile_store::StorageBackend;

    /// A 4-vertex metric closure (a path 0-1-2-3 with unit weights).
    fn closed_store() -> TileStore {
        let n = 4;
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        for i in 0..n {
            let row: Vec<Dist> = (0..n)
                .map(|j| (i as i64 - j as i64).unsigned_abs() as Dist)
                .collect();
            store.write_row(i, &row).unwrap();
        }
        store
    }

    #[test]
    fn off_mode_checks_nothing() {
        let store = closed_store();
        let mut guard = SdcGuard::new(SdcGuardMode::Off, 1);
        assert!(!guard.mode().is_on());
        guard.check_round(&store, 0, 4).unwrap();
        guard.check_completed_rows(&store, 0, &[0, 1]).unwrap();
    }

    #[test]
    fn clean_rounds_pass_all_levels_on_both_backends() {
        for backend in [
            StorageBackend::Memory,
            StorageBackend::Disk(std::env::temp_dir().join("apsp-sdc-guard-clean")),
        ] {
            let n = 4;
            let mut store = TileStore::new(n, &backend).unwrap();
            store.set_sdc_guard(SdcGuardMode::Full).unwrap();
            for i in 0..n {
                let row: Vec<Dist> = (0..n)
                    .map(|j| (i as i64 - j as i64).unsigned_abs() as Dist)
                    .collect();
                store.write_row(i, &row).unwrap();
            }
            let mut guard = SdcGuard::new(SdcGuardMode::Full, 7);
            for round in 0..3 {
                guard.check_round(&store, round, n).unwrap();
                guard
                    .check_completed_rows(&store, round, &(0..n).collect::<Vec<_>>())
                    .unwrap();
            }
        }
    }

    #[test]
    fn increased_row_sum_is_caught_and_localized() {
        let mut store = closed_store();
        let mut guard = SdcGuard::new(SdcGuardMode::Full, 7);
        guard.check_round(&store, 0, 0).unwrap(); // seeds the baseline
                                                  // A "device-computed" update that *raises* d[2][3]: the store
                                                  // checksums it as a legitimate write, only ABFT can object.
        store.write_row(2, &[2, 1, 0, 9]).unwrap();
        let err = guard.check_round(&store, 1, 0).unwrap_err();
        match err {
            ApspError::SilentCorruption { panel, round, .. } => {
                assert_eq!(panel, 2 / SDC_PANEL_ROWS);
                assert_eq!(round, 1);
            }
            other => panic!("expected SilentCorruption, got {other:?}"),
        }
        // Checksum-only mode cannot see semantic damage.
        let mut weak = SdcGuard::new(SdcGuardMode::Checksum, 7);
        weak.check_round(&store, 1, 0).unwrap();
    }

    #[test]
    fn triangle_violation_is_caught_unlocalized() {
        let mut store = closed_store();
        // d[0][3] should be ≤ d[0][1] + d[1][3] = 1 + 2; corrupt it up.
        store.write_row(0, &[0, 1, 2, 40]).unwrap();
        // Fresh guard: no baseline, so only the triangle sweep can fire.
        let mut guard = SdcGuard::new(SdcGuardMode::Full, 7);
        let err = guard.check_round(&store, 5, 4).unwrap_err();
        match err {
            ApspError::SilentCorruption { panel, round, .. } => {
                assert_eq!(panel, usize::MAX);
                assert_eq!(round, 5);
            }
            other => panic!("expected SilentCorruption, got {other:?}"),
        }
        assert_eq!(
            guard.check_round(&store, 5, 4).unwrap_err().kind(),
            ApspErrorKind::SilentCorruption
        );
    }

    #[test]
    fn triangle_check_respects_the_completed_pivot_limit() {
        let mut store = closed_store();
        // The same corruption as above, but only pivot rows 0..1 are
        // complete — and k = 0 alone cannot witness d[0][3]'s damage
        // within an exhaustive sweep of the permitted pairs... except
        // through d[0][3] ≤ d[0][0] + d[0][3]. Corrupt row 3 instead so
        // every admissible composition stays consistent.
        store.write_row(3, &[40, 2, 1, 0]).unwrap();
        let mut guard = SdcGuard::new(SdcGuardMode::Full, 7);
        // k_limit = 1: d[3][0] ≤ d[3][0] + d[0][0] holds, damage unseen.
        guard.check_round(&store, 0, 1).unwrap();
        guard.reset_baseline();
        // Once pivot row 1 completes, d[3][0] ≤ d[3][1] + d[1][0] = 3
        // is admissible and the corruption surfaces.
        let err = guard.check_round(&store, 1, 2).unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::SilentCorruption);
    }

    #[test]
    fn saturated_entries_never_false_positive() {
        let n = 3;
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        // A disconnected pair: INF legs must compose without overflow
        // and INF entries must pass `INF ≤ INF ⊕ anything`.
        store.write_row(0, &[0, INF, INF]).unwrap();
        store.write_row(1, &[INF, 0, 1]).unwrap();
        store.write_row(2, &[INF, 1, 0]).unwrap();
        let mut guard = SdcGuard::new(SdcGuardMode::Full, 3);
        for round in 0..2 {
            guard.check_round(&store, round, n).unwrap();
        }
    }

    #[test]
    fn reset_baseline_absorbs_recovery_writes() {
        let mut store = closed_store();
        let mut guard = SdcGuard::new(SdcGuardMode::Full, 7);
        guard.check_round(&store, 0, 0).unwrap();
        // Recovery resets a panel to adjacency distances — entries rise.
        store.write_row(1, &[INF, 0, 1, INF]).unwrap();
        assert!(guard.check_round(&store, 1, 0).is_err());
        guard.reset_baseline();
        guard.check_round(&store, 1, 0).unwrap();
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let n = 16;
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        for i in 0..n {
            let row: Vec<Dist> = (0..n)
                .map(|j| (i as i64 - j as i64).unsigned_abs() as Dist)
                .collect();
            store.write_row(i, &row).unwrap();
        }
        // 16 × 16 pairs > 4 samples: the sampled path runs; same seed
        // and round must touch the same pairs (checked indirectly: both
        // passes succeed and a corrupted pass fails identically twice).
        let mut row0: Vec<Dist> = (0..n).map(|j| j as Dist).collect();
        row0[15] = 4000;
        store.write_row(0, &row0).unwrap();
        let a = SdcGuard::new(SdcGuardMode::Full, 11)
            .with_samples(4)
            .check_triangles(
                &store,
                2,
                &(0..n).collect::<Vec<_>>(),
                &(0..n).collect::<Vec<_>>(),
            )
            .map_err(|e| e.to_string());
        let b = SdcGuard::new(SdcGuardMode::Full, 11)
            .with_samples(4)
            .check_triangles(
                &store,
                2,
                &(0..n).collect::<Vec<_>>(),
                &(0..n).collect::<Vec<_>>(),
            )
            .map_err(|e| e.to_string());
        assert_eq!(a, b);
    }
}
