//! The four workloads: their inputs, device profiles and options.
//! Inputs derive from the seed alone; the program sees only the
//! generated graphs and requests.

use crate::RunConfig;
use apsp_core::{Algorithm, ApspOptions, CheckpointOptions, SdcGuardMode, StorageBackend};
use apsp_cpu::ExecBackend;
use apsp_gpu_sim::DeviceProfile;
use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};
use apsp_graph::CsrGraph;
use std::path::{Path, PathBuf};

/// Worker threads are capped so numbers from a wide host stay
/// comparable with the 2-core sizing of the workloads.
const MAX_THREADS: usize = 2;

/// The host backend every timed call runs on: the register-tiled SIMD
/// kernels (the fastest host path, and the one the kernel-composition
/// gap is measured on), at most [`MAX_THREADS`] threads.
pub fn exec() -> ExecBackend {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    ExecBackend::Simd {
        threads: Some(cores.min(MAX_THREADS)),
    }
}

/// `opts` with the front-end `exec` and guard level pushed into every
/// per-algorithm block, as `apsp()` does on entry. The traced run calls
/// the drivers directly, so it needs them there too.
pub fn pushed(mut opts: ApspOptions) -> ApspOptions {
    opts.fw.exec = opts.exec;
    opts.johnson.exec = opts.exec;
    opts.boundary.exec = opts.exec;
    opts.fw.sdc_guard = opts.sdc_guard;
    opts.johnson.sdc_guard = opts.sdc_guard;
    opts.boundary.sdc_guard = opts.sdc_guard;
    opts
}

/// A named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense G(n,p) through the selector, which picks blocked FW.
    DenseFw,
    /// Road-like grid, boundary algorithm pinned.
    RoadBoundary,
    /// Grid through Johnson's with a disk store, checksum guard and
    /// checkpointing.
    DurableJohnson,
    /// Closed-loop client against the job service.
    ServeHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DenseFw,
        Workload::RoadBoundary,
        Workload::DurableJohnson,
        Workload::ServeHot,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseFw => "dense-fw",
            Workload::RoadBoundary => "road-boundary",
            Workload::DurableJohnson => "durable-johnson",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: the benchmark's, or a small set for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Small inputs that exercise the same paths in well under a second.
    Small,
}

/// SplitMix64 step: decorrelates the per-workload and per-graph seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A V100 profile with `bytes` of device memory.
pub fn v100_with(bytes: u64) -> DeviceProfile {
    DeviceProfile::v100().with_memory_bytes(bytes)
}

/// Inputs and options of one solve workload (everything but
/// serve-hot).
pub struct SolveSpec {
    /// The generated input graph.
    pub graph: CsrGraph,
    /// The device every solve runs on (fresh per solve).
    pub profile: DeviceProfile,
    /// The front-end options; [`SolveSpec::options_in`] fills in the
    /// per-solve directories.
    pub opts: ApspOptions,
    /// Result matrix on disk (spill directory per solve).
    pub disk: bool,
    /// Checkpoint after every batch (checkpoint directory per solve).
    pub checkpoint: bool,
}

impl SolveSpec {
    /// The inputs of solve workload `w` for `cfg`'s seed and scale.
    pub fn new(w: Workload, cfg: &RunConfig) -> SolveSpec {
        let small = cfg.scale == Scale::Small;
        let mut state = cfg.seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let graph_seed = splitmix64(&mut state);
        let road = |side: usize| {
            grid_2d(
                side,
                side,
                GridOptions {
                    diagonals: false,
                    deletion_prob: 0.1,
                },
                WeightRange::default(),
                graph_seed,
            )
        };
        let base = ApspOptions {
            exec: exec(),
            ..ApspOptions::default()
        };
        let (graph, profile, opts, disk, checkpoint) = match w {
            Workload::DenseFw => (
                gnp(
                    if small { 160 } else { 960 },
                    0.05,
                    WeightRange::default(),
                    graph_seed,
                ),
                v100_with(if small { 64 << 10 } else { 1 << 20 }),
                base,
                false,
                false,
            ),
            Workload::RoadBoundary => (
                road(if small { 16 } else { 64 }),
                v100_with(if small { 256 << 10 } else { 4 << 20 }),
                ApspOptions {
                    algorithm: Some(Algorithm::Boundary),
                    ..base
                },
                false,
                false,
            ),
            Workload::DurableJohnson => (
                road(if small { 12 } else { 48 }),
                v100_with(if small { 64 << 10 } else { 4 << 20 }),
                ApspOptions {
                    algorithm: Some(Algorithm::Johnson),
                    sdc_guard: SdcGuardMode::Checksum,
                    ..base
                },
                true,
                true,
            ),
            Workload::ServeHot => unreachable!("serve-hot is not a solve workload"),
        };
        let opts = pushed(opts);
        SolveSpec {
            graph,
            profile,
            opts,
            disk,
            checkpoint,
        }
    }

    /// The store backend for a solve whose scratch directory is `dir`.
    pub fn storage_in(&self, dir: &Path) -> StorageBackend {
        if self.disk {
            StorageBackend::Disk(dir.join("spill"))
        } else {
            StorageBackend::Memory
        }
    }

    /// The checkpoint directory for a solve whose scratch directory is
    /// `dir`.
    pub fn checkpoint_dir_in(&self, dir: &Path) -> Option<PathBuf> {
        self.checkpoint.then(|| dir.join("ckpt"))
    }

    /// Options for one solve with fresh directories under `dir`, so no
    /// solve resumes from or reads a file another one left.
    pub fn options_in(&self, dir: &Path) -> ApspOptions {
        ApspOptions {
            storage: self.storage_in(dir),
            checkpoint: self
                .checkpoint_dir_in(dir)
                .map(|dir| CheckpointOptions { dir, resume: false }),
            ..self.opts.clone()
        }
    }
}
