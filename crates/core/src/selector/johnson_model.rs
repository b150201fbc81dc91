//! Cost model for out-of-core Johnson's: batch sampling.
//!
//! "To estimate the execution time of a graph, we randomly choose `k`
//! batches to run and obtain the execution time as `T`. Assuming that the
//! number of batches is `n_b`, the cost of computation would be
//! `T · n_b / k`." (The paper sets `k = 5` and observes per-batch
//! standard deviations of 1.67–13.4% of the mean.)

use crate::calibration::{CoeffKey, EstimateParts};
use crate::error::ApspError;
use crate::ooc_johnson::batch_size;
use crate::options::{DynamicParallelism, JohnsonOptions};
use crate::selector::{CostModels, SelectorConfig};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::{CsrGraph, VertexId};
use apsp_kernels::mssp::{mssp_kernel, MsspOptions};
use apsp_kernels::DeviceMatrix;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A per-graph Johnson probe: measured sample batches plus the totals
/// needed to extrapolate.
#[derive(Debug, Clone, Copy)]
pub struct JohnsonModel {
    /// Batch size the real run would use.
    pub batch: usize,
    /// Total batches the real run would need (`n_b`).
    pub total_batches: usize,
    /// Batches actually sampled.
    pub sampled: usize,
    /// Simulated kernel seconds across the sampled batches.
    pub sampled_seconds: f64,
    /// Sample standard deviation of per-batch seconds, as a fraction of
    /// the mean (the paper's stability statistic).
    pub rel_std_dev: f64,
}

impl JohnsonModel {
    /// Probe `g` on a scratch device with the given profile: compute
    /// `bat`, run `cfg.johnson_sample_batches` random batches, and record
    /// the kernel time.
    pub fn probe(
        profile: &DeviceProfile,
        g: &CsrGraph,
        cfg: &SelectorConfig,
        opts: &JohnsonOptions,
    ) -> Result<Self, ApspError> {
        let mut dev = GpuDevice::new(profile.clone());
        let n = g.num_vertices();
        if n == 0 {
            return Err(ApspError::InvalidInput("empty graph".into()));
        }
        let bat = batch_size(&dev, g, opts.queue_words_per_edge)?;
        let total_batches = n.div_ceil(bat);
        let sampled = cfg.johnson_sample_batches.clamp(1, total_batches);
        let delta = opts
            .delta
            .unwrap_or_else(|| apsp_kernels::nearfar::default_delta(g));
        let dynamic = match opts.dynamic_parallelism {
            DynamicParallelism::On => true,
            DynamicParallelism::Off => false,
            DynamicParallelism::Auto => (bat as u32) < profile.saturating_blocks,
        };
        let mssp_opts = MsspOptions {
            delta,
            dynamic_parallelism: dynamic,
            heavy_degree_threshold: opts.heavy_degree_threshold,
            exec: opts.exec,
        };

        // Randomly choose which batches to sample.
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut batch_ids: Vec<usize> = (0..total_batches).collect();
        batch_ids.shuffle(&mut rng);
        batch_ids.truncate(sampled);

        let stream = dev.default_stream();
        let graph_hold: apsp_gpu_sim::DeviceBuffer<u8> = dev.alloc(g.storage_bytes())?;
        let mut per_batch = Vec::with_capacity(sampled);
        for &bi in &batch_ids {
            let lo = bi * bat;
            let hi = ((bi + 1) * bat).min(n);
            let sources: Vec<VertexId> = (lo as VertexId..hi as VertexId).collect();
            let mut panel = DeviceMatrix::alloc_inf(&dev, sources.len(), n)?;
            let before = dev.synchronize().seconds();
            mssp_kernel(&mut dev, stream, g, &sources, &mut panel, mssp_opts);
            let after = dev.synchronize().seconds();
            per_batch.push(after - before);
        }
        drop(graph_hold);

        let total: f64 = per_batch.iter().sum();
        let mean = total / sampled as f64;
        let var = per_batch
            .iter()
            .map(|t| (t - mean) * (t - mean))
            .sum::<f64>()
            / sampled as f64;
        let rel_std_dev = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        Ok(JohnsonModel {
            batch: bat,
            total_batches,
            sampled,
            sampled_seconds: total,
            rel_std_dev,
        })
    }

    /// Estimated compute seconds: `T · n_b / k`.
    pub fn compute_seconds(&self) -> f64 {
        self.sampled_seconds * self.total_batches as f64 / self.sampled as f64
    }

    /// Estimated transfer seconds: the paper's `W · n² / TH`.
    pub fn transfer_seconds(&self, models: &CostModels, g: &CsrGraph) -> f64 {
        let n = g.num_vertices() as f64;
        let w = std::mem::size_of::<apsp_graph::Dist>() as f64;
        w * n * n / models.throughput
    }

    /// The estimate's seed-constant decomposition (compute anchored on
    /// [`CoeffKey::JohnsonC`], plus the transfer term).
    pub fn estimate_parts(&self, models: &CostModels, g: &CsrGraph) -> EstimateParts {
        EstimateParts {
            key: CoeffKey::JohnsonC,
            compute_seed: self.compute_seconds(),
            transfer: self.transfer_seconds(models, g),
        }
    }

    /// Total estimate, with `models`' refit correction applied to the
    /// compute term.
    pub fn estimate_seconds(&self, models: &CostModels, g: &CsrGraph) -> f64 {
        self.estimate_parts(models, g)
            .refitted_seconds(&models.refit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooc_johnson::ooc_johnson_supervised;
    use crate::supervisor::Supervisor;
    use crate::tile_store::{StorageBackend, TileStore};
    use apsp_graph::generators::{gnp, WeightRange};

    fn probe_setup(n: usize, p: f64, mem: u64) -> (CsrGraph, DeviceProfile, SelectorConfig) {
        let g = gnp(n, p, WeightRange::default(), 77);
        let profile = DeviceProfile::v100().with_memory_bytes(mem);
        (g, profile, SelectorConfig::default())
    }

    #[test]
    fn probe_reports_batch_structure() {
        let (g, profile, cfg) = probe_setup(200, 0.04, 512 << 10);
        let m = JohnsonModel::probe(&profile, &g, &cfg, &JohnsonOptions::default()).unwrap();
        assert!(m.batch >= 1);
        assert_eq!(m.total_batches, 200usize.div_ceil(m.batch));
        assert!(m.sampled <= 5);
        assert!(m.sampled_seconds > 0.0);
    }

    #[test]
    fn per_batch_times_are_stable() {
        // The paper's premise: sampled batches predict the rest. Random
        // uniform graphs should sit well inside the 13.4% band.
        let (g, profile, cfg) = probe_setup(400, 0.03, 1 << 20);
        let m = JohnsonModel::probe(&profile, &g, &cfg, &JohnsonOptions::default()).unwrap();
        assert!(m.sampled >= 2, "need multiple batches to measure spread");
        assert!(m.rel_std_dev < 0.25, "rel std dev = {}", m.rel_std_dev);
    }

    #[test]
    fn estimate_tracks_actual_run() {
        let (g, profile, cfg) = probe_setup(250, 0.04, 512 << 10);
        let models = CostModels::calibrate(&profile);
        let opts = JohnsonOptions::default();
        let m = JohnsonModel::probe(&profile, &g, &cfg, &opts).unwrap();
        let mut dev = GpuDevice::new(profile);
        let mut store = TileStore::new(250, &StorageBackend::Memory).unwrap();
        let stats = ooc_johnson_supervised(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
            .unwrap();
        let predicted = m.estimate_seconds(&models, &g);
        let ratio = predicted / stats.sim_seconds;
        assert!(
            (0.3..3.0).contains(&ratio),
            "predicted {predicted}, actual {}",
            stats.sim_seconds
        );
    }

    #[test]
    fn empty_graph_is_invalid() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let err = JohnsonModel::probe(
            &DeviceProfile::v100(),
            &g,
            &SelectorConfig::default(),
            &JohnsonOptions::default(),
        );
        assert!(err.is_err());
    }
}
