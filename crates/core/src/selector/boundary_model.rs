//! Cost model for the out-of-core boundary algorithm.
//!
//! Two regimes, keyed by the boundary count `NB` after partitioning with
//! `k` components against the planar ideal `√(k·n)`:
//!
//! * **small separator** (`NB` within 2× of the ideal):
//!   `T = T₀ · (n/n₀)^{3/2}` with `T₀` calibrated on a grid graph;
//! * **large separator**: `T = N_op · c_unit(bucket(NB))` with
//!   `N_op = n³/k² + (kB)³ + n·k·B² + n²·B` (B = NB/k) and per-bucket
//!   unit costs trained on banded graphs of increasing irregularity.
//!
//! Transfers: one batched flush per `N_row` row-panels ⇒ `W·n²/TH` plus
//! per-flush latencies.

use crate::calibration::{CoeffKey, EstimateParts};
use crate::ooc_boundary::{default_num_components, ooc_boundary_supervised};
use crate::options::BoundaryOptions;
use crate::selector::CostModels;
use crate::supervisor::Supervisor;
use crate::tile_store::{StorageBackend, TileStore};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{banded, grid_2d, GridOptions, WeightRange};
use apsp_graph::CsrGraph;
use apsp_partition::{kway_partition, PartitionConfig};

/// Number of `c_unit` buckets: bucket `r` covers
/// `NB ∈ [2^r · ideal, 2^{r+1} · ideal)`.
const BUCKETS: usize = 5;

/// Calibrated boundary model.
#[derive(Debug, Clone)]
pub struct BoundaryModel {
    /// Training size for the small-separator anchor.
    pub n0: usize,
    /// Measured compute seconds of the small-separator training run.
    pub t0_compute: f64,
    /// Per-bucket unit cost (seconds per operation) for large-separator
    /// graphs; bucket 0 is unused (small-separator regime).
    pub c_unit: [f64; BUCKETS],
}

const TRAIN_SIDE: usize = 24; // 24×24 grid = 576 vertices

impl BoundaryModel {
    /// Calibrate: one grid run for the `n^{3/2}` anchor, banded runs of
    /// growing fill for the `c_unit` buckets.
    pub fn calibrate(profile: &DeviceProfile) -> Self {
        let n0 = TRAIN_SIDE * TRAIN_SIDE;
        let grid = grid_2d(
            TRAIN_SIDE,
            TRAIN_SIDE,
            GridOptions::default(),
            WeightRange::default(),
            0xB0,
        );
        let t0_compute = run_compute_seconds(profile, &grid);

        let mut c_unit = [0.0f64; BUCKETS];
        let mut trained = [false; BUCKETS];
        // Banded graphs with wider bands / more fill land in higher NB
        // buckets.
        for (bw_mult, fill) in [(2usize, 0.1f64), (6, 0.3), (12, 0.5), (24, 0.8)] {
            let g = banded(n0, bw_mult * 4, 4, fill, WeightRange::default(), 0xB1);
            let (nb, k) = partition_boundary(&g);
            let bucket = bucket_of(nb, k, n0);
            if bucket == 0 || trained[bucket] {
                continue;
            }
            let t = run_compute_seconds(profile, &g);
            let ops = n_op(n0, k, nb);
            if ops > 0.0 {
                c_unit[bucket] = t / ops;
                trained[bucket] = true;
            }
        }
        // Fill untrained buckets from the nearest trained one (scaled up
        // mildly per step — irregularity raises unit cost).
        let fallback =
            t0_compute / n_op(n0, default_num_components(n0), (n0 as f64).sqrt() as usize).max(1.0);
        let mut last = fallback;
        for b in 1..BUCKETS {
            if trained[b] {
                last = c_unit[b];
            } else {
                c_unit[b] = last * 1.3;
                last = c_unit[b];
            }
        }
        BoundaryModel {
            n0,
            t0_compute,
            c_unit,
        }
    }

    /// Estimated compute seconds for `g`, partitioning to observe `NB`.
    ///
    /// `free_bytes` is the target device's usable memory; the estimate
    /// replays the runtime's k-shrinking loop and returns `INFINITY` when
    /// no component count admits a feasible working set (the paper's
    /// "maximal number of components allowed is small" regime, where the
    /// boundary algorithm is simply not a candidate).
    pub fn compute_seconds(&self, g: &CsrGraph, free_bytes: u64) -> f64 {
        self.compute_parts(g, free_bytes).0
    }

    /// [`BoundaryModel::compute_seconds`] plus the coefficient the
    /// estimate is anchored on: [`CoeffKey::BoundaryT0`] in the
    /// small-separator regime, [`CoeffKey::BoundaryCUnit`] otherwise.
    pub fn compute_parts(&self, g: &CsrGraph, free_bytes: u64) -> (f64, CoeffKey) {
        let n = g.num_vertices();
        if n == 0 {
            return (0.0, CoeffKey::BoundaryT0);
        }
        let Some((nb, k)) = feasible_plan(g, free_bytes) else {
            return (f64::INFINITY, CoeffKey::BoundaryT0);
        };
        let bucket = bucket_of(nb, k, n);
        if bucket == 0 {
            // Small separator: T₀ · (n/n₀)^{3/2}.
            let r = n as f64 / self.n0 as f64;
            (self.t0_compute * r.powf(1.5), CoeffKey::BoundaryT0)
        } else {
            (
                n_op(n, k, nb) * self.c_unit[bucket.min(BUCKETS - 1)],
                CoeffKey::BoundaryCUnit,
            )
        }
    }

    /// Estimated transfer seconds: batched output panels.
    pub fn transfer_seconds(&self, models: &CostModels, g: &CsrGraph) -> f64 {
        let n = g.num_vertices() as f64;
        let w = std::mem::size_of::<apsp_graph::Dist>() as f64;
        w * n * n / models.throughput
    }

    /// The estimate's seed-constant decomposition. `compute_seed` is
    /// infinite when no component count admits a feasible working set.
    pub fn estimate_parts(&self, models: &CostModels, g: &CsrGraph) -> EstimateParts {
        let free = models.profile().memory_bytes;
        let (compute_seed, key) = self.compute_parts(g, free);
        EstimateParts {
            key,
            compute_seed,
            transfer: self.transfer_seconds(models, g),
        }
    }

    /// Total estimate, with `models`' refit correction applied to the
    /// compute term.
    pub fn estimate_seconds(&self, models: &CostModels, g: &CsrGraph) -> f64 {
        self.estimate_parts(models, g)
            .refitted_seconds(&models.refit)
    }

    /// Whether `g` falls in the small-separator regime (bucket 0) — the
    /// classification the paper applies to Table III.
    pub fn has_small_separator(&self, g: &CsrGraph) -> bool {
        let n = g.num_vertices();
        if n == 0 {
            return true;
        }
        let (nb, k) = partition_boundary(g);
        bucket_of(nb, k, n) == 0
    }
}

/// Replay the runtime's k-shrinking loop: partition at the paper's
/// default `k`, halving until the working set fits. Returns `(NB, k)` or
/// `None` if even `k = 2` cannot fit.
fn feasible_plan(g: &CsrGraph, free_bytes: u64) -> Option<(usize, usize)> {
    use apsp_partition::PartitionLayout;
    let n = g.num_vertices();
    let mut k = default_num_components(n).clamp(1, n.max(1));
    loop {
        let p = kway_partition(g, k, &PartitionConfig::default());
        let layout = PartitionLayout::new(g, &p);
        let nb = layout.total_boundary();
        let n_max = layout.max_component_size();
        let nb_max = (0..layout.num_components())
            .map(|i| layout.boundary_count(i))
            .max()
            .unwrap_or(0);
        if crate::ooc_boundary::working_set_fits_bytes(free_bytes, nb, n_max, nb_max) {
            return Some((nb, layout.num_components()));
        }
        if k <= 2 {
            return None;
        }
        k = (k / 2).max(2);
    }
}

/// `N_op = n³/k² + (kB)³ + n·k·B² + n²·B` with `B = NB/k`.
fn n_op(n: usize, k: usize, nb: usize) -> f64 {
    let (n, k, nb) = (n as f64, k.max(1) as f64, nb as f64);
    let b = nb / k;
    n * n * n / (k * k) + (k * b).powi(3) + n * k * b * b + n * n * b
}

/// Partition with the paper's defaults and count the boundary set.
fn partition_boundary(g: &CsrGraph) -> (usize, usize) {
    let n = g.num_vertices();
    let k = default_num_components(n).min(n.max(1));
    let p = kway_partition(g, k, &PartitionConfig::default());
    (p.num_boundary_nodes(g), k)
}

/// Bucket index against the planar ideal `√(k·n)`.
///
/// The paper's Table III classifies graphs up to ≈ 2.5× the ideal as
/// "small separator" (nm2010) while the FEM matrices sit at 10–20×; grid
/// partitions land at 3–4× (each k-way cut exposes two node layers), so
/// the small-separator cutoff is 4×, with doubling buckets above it.
fn bucket_of(nb: usize, k: usize, n: usize) -> usize {
    let ideal = ((k * n) as f64).sqrt().max(1.0);
    let ratio = nb as f64 / ideal;
    if ratio < 4.0 {
        0
    } else {
        ((ratio / 2.0).log2().floor() as usize).clamp(1, BUCKETS - 1)
    }
}

/// Compute-only seconds of a boundary run on a scratch device. The
/// scratch device gets enough memory for the training graphs even when
/// the target profile is tiny — the constants being measured are
/// compute-throughput properties, not capacity properties.
fn run_compute_seconds(profile: &DeviceProfile, g: &CsrGraph) -> f64 {
    let mut dev = GpuDevice::new(profile.with_memory_bytes(profile.memory_bytes.max(64 << 20)));
    let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory)
        .expect("memory store cannot fail");
    let opts = BoundaryOptions::default();
    ooc_boundary_supervised(&mut dev, g, &mut store, &opts, &Supervisor::unarmed())
        .expect("training run must fit");
    dev.report().total_kernel_seconds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::random_geometric;

    #[test]
    fn calibration_produces_monotone_buckets() {
        let m = BoundaryModel::calibrate(&DeviceProfile::v100());
        assert!(m.t0_compute > 0.0);
        for b in 1..BUCKETS - 1 {
            assert!(m.c_unit[b] > 0.0);
        }
    }

    #[test]
    fn grid_classified_small_separator_banded_not() {
        let m = BoundaryModel::calibrate(&DeviceProfile::v100());
        let grid = grid_2d(20, 20, GridOptions::default(), WeightRange::default(), 1);
        assert!(m.has_small_separator(&grid));
        let fem = banded(400, 48, 6, 0.8, WeightRange::default(), 2);
        assert!(!m.has_small_separator(&fem));
    }

    #[test]
    fn small_separator_estimate_scales_as_n_to_1_5() {
        let m = BoundaryModel::calibrate(&DeviceProfile::v100());
        let small = grid_2d(16, 16, GridOptions::default(), WeightRange::default(), 3);
        let large = grid_2d(32, 32, GridOptions::default(), WeightRange::default(), 3);
        let free = DeviceProfile::v100().memory_bytes;
        let t_small = m.compute_seconds(&small, free);
        let t_large = m.compute_seconds(&large, free);
        // n quadruples ⇒ n^1.5 grows 8×.
        let ratio = t_large / t_small;
        assert!((6.0..10.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn estimate_tracks_actual_run_on_geometric_graph() {
        let profile = DeviceProfile::v100();
        let models = CostModels::calibrate(&profile);
        let g = random_geometric(500, 0.06, WeightRange::default(), 31);
        let predicted = models.boundary.estimate_seconds(&models, &g);
        let mut dev = GpuDevice::new(profile);
        let mut store = TileStore::new(500, &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions::default();
        let stats =
            ooc_boundary_supervised(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
                .unwrap();
        let ratio = predicted / stats.sim_seconds;
        assert!(
            (0.2..5.0).contains(&ratio),
            "predicted {predicted}, actual {}",
            stats.sim_seconds
        );
    }

    #[test]
    fn infeasible_device_yields_infinite_estimate() {
        let m = BoundaryModel::calibrate(&DeviceProfile::v100());
        let g = banded(600, 64, 8, 0.8, WeightRange::default(), 9);
        // A device too small for any (bound, block, panel) working set.
        let t = m.compute_seconds(&g, 10_000);
        assert!(t.is_infinite());
        // A huge device admits a finite estimate.
        let t2 = m.compute_seconds(&g, u64::MAX / 2);
        assert!(t2.is_finite() && t2 > 0.0);
    }

    #[test]
    fn n_op_formula_matches_paper_shape() {
        // Dominant term for modest B is n³/k²; raising NB lifts the n²·B
        // term.
        let base = n_op(1000, 10, 100);
        let more_boundary = n_op(1000, 10, 400);
        assert!(more_boundary > base);
    }
}
