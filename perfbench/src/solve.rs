//! The solve workloads (dense-fw, road-boundary, durable-johnson): a
//! single closed loop of `apsp()` calls, and the traced decomposition
//! of the same solve into direct calls of each layer.

use crate::workload::{exec, SolveSpec};
use crate::{layers, setup_owed, stats, timed, Outcome, RunConfig, SETUP_REPS};
use apsp_core::api::RunDetails;
use apsp_core::ooc_boundary::{ooc_boundary_checkpointed_supervised, ooc_boundary_supervised};
use apsp_core::ooc_fw::{ooc_floyd_warshall_checkpointed_supervised, ooc_floyd_warshall_guarded};
use apsp_core::ooc_johnson::{ooc_johnson_checkpointed_supervised, ooc_johnson_supervised};
use apsp_core::selector::JohnsonModel;
use apsp_core::verify::verify_rows;
use apsp_core::{
    apsp, Algorithm, ApspError, ApspOptions, Checkpoint, CostModels, Progress, SdcGuardMode,
    Supervisor, TileStore,
};
use apsp_gpu_sim::GpuDevice;
use apsp_partition::{kway_partition, PartitionConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed solves per run, at least, whatever the window.
const MIN_SOLVES: usize = 3;
/// The wall-clock tail the solve workloads report as `serve_wall_p95_s`.
/// A window holds tens of solves, not the thousands of jobs serve-hot
/// runs: p75 is the highest tail percentile that keeps ten solves
/// beyond it at the 40 or more a window gives on dense-fw and
/// road-boundary. A p95 of so few solves is the third to fifth largest,
/// set by whichever few met a slow stretch of a shared host rather than
/// by the program.
const SOLVE_TAIL_PERCENTILE: f64 = 75.0;
/// Rows of every result re-derived with Dijkstra.
const VERIFY_ROWS: usize = 8;
/// Row-panel height of the result fingerprints (the checkpoint layer's
/// panel geometry).
const PANEL_ROWS: usize = 64;

/// A scratch directory under the run's work directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty directory `<work>/<tag>`.
    pub fn new(work: &Path, tag: &str) -> Scratch {
        let dir = work.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One sample of the program's once-per-process set-up: cost-model
/// calibration for the profile, and construction of the device, the
/// result store and the checkpoint directory. Sample 0 fills the
/// process-wide calibration cache, so the first timed solve finds it
/// warm; later samples calibrate uncached to time the same work again.
fn setup_sample(cfg: &RunConfig, spec: &SolveSpec, i: usize) -> Result<f64, ApspError> {
    let dir = Scratch::new(&cfg.work_dir, &format!("setup-{i}"));
    let g = &spec.graph;
    let (r, wall) = timed(|| -> Result<(), ApspError> {
        if i == 0 {
            CostModels::calibrate_cached(&spec.profile);
        } else {
            CostModels::calibrate(&spec.profile);
        }
        let _dev = GpuDevice::new(spec.profile.clone());
        let _store = TileStore::new(g.num_vertices(), &spec.storage_in(dir.path()))?;
        if let Some(ck) = spec.checkpoint_dir_in(dir.path()) {
            Checkpoint::new(ck, g)?;
        }
        Ok(())
    });
    r.map(|()| wall)
}

/// Take set-up samples until `owed` are in hand. A failed set-up
/// counts as a failed operation.
fn setup_until(
    cfg: &RunConfig,
    spec: &SolveSpec,
    owed: usize,
    samples: &mut Vec<f64>,
    out: &mut Outcome,
) -> bool {
    while samples.len() < owed {
        match setup_sample(cfg, spec, samples.len()) {
            Ok(s) => samples.push(s),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                return false;
            }
        }
    }
    true
}

/// What a verified solve leaves behind (its store is dropped).
pub struct Solved {
    /// Host wall seconds of the `apsp()` call.
    pub wall: f64,
    /// `ApspResult::sim_seconds`.
    pub sim: f64,
    /// Panel checksums of the result matrix.
    pub checksums: Vec<u64>,
    /// The implementation that ran.
    pub algorithm: Algorithm,
    /// The run report, when telemetry was on.
    pub report: Option<apsp_core::RunReport>,
}

/// Verify `store` against Dijkstra on sampled rows and fingerprint it.
fn check_store(g: &apsp_graph::CsrGraph, store: &TileStore, seed: u64) -> Result<Vec<u64>, String> {
    let v = verify_rows(g, store, VERIFY_ROWS, seed).map_err(|e| e.to_string())?;
    if !v.is_verified() {
        return Err(format!("verification failed: {v:?}"));
    }
    store.panel_checksums(PANEL_ROWS).map_err(|e| e.to_string())
}

/// One `apsp()` call in fresh directories, timed and verified. Counts
/// as one attempted operation.
pub fn solve_once(
    cfg: &RunConfig,
    spec: &SolveSpec,
    opts: &ApspOptions,
    tag: &str,
    out: &mut Outcome,
) -> Option<Solved> {
    let dir = Scratch::new(&cfg.work_dir, tag);
    let opts = ApspOptions {
        telemetry: opts.telemetry,
        ..spec.options_in(dir.path())
    };
    let mut dev = GpuDevice::new(spec.profile.clone());
    out.attempted += 1;
    let (res, wall) = timed(|| apsp(&spec.graph, &mut dev, &opts));
    let res = match res {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("{tag}: {e}"));
            return None;
        }
    };
    // The sampled rows differ per solve but repeat for a seed.
    let sample_seed = tag.bytes().fold(cfg.seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    match check_store(&spec.graph, &res.store, sample_seed) {
        Ok(checksums) => Some(Solved {
            wall,
            sim: res.sim_seconds,
            checksums,
            algorithm: res.algorithm,
            report: res.telemetry,
        }),
        Err(e) => {
            out.fail(format!("{tag}: {e}"));
            None
        }
    }
}

/// Require `s` to reproduce the reference solve exactly.
fn check_same(reference: &Solved, s: &Solved, tag: &str, out: &mut Outcome) {
    if s.checksums != reference.checksums {
        out.fail(format!("{tag}: result differs from the first solve"));
    } else if s.sim.to_bits() != reference.sim.to_bits() {
        out.fail(format!(
            "{tag}: sim seconds {} differ from the first solve's {}",
            s.sim, reference.sim
        ));
    }
}

/// End-to-end metrics: warm, untraced solves until the window is spent,
/// with set-up samples spread across the window.
pub fn end_to_end(cfg: &RunConfig, spec: &SolveSpec, out: &mut Outcome) {
    let mut setup = Vec::new();
    if !setup_until(cfg, spec, 1, &mut setup, out) {
        return;
    }
    // The warm-up solve is the reference every timed solve must match.
    let Some(reference) = solve_once(cfg, spec, &spec.opts, "warmup", out) else {
        return;
    };
    out.notes.push(format!(
        "n {} m {} algorithm {}",
        spec.graph.num_vertices(),
        spec.graph.num_edges(),
        reference.algorithm
    ));
    let start = Instant::now();
    let mut walls = Vec::new();
    while out.failed == 0
        && (walls.len() < MIN_SOLVES || start.elapsed().as_secs_f64() < cfg.seconds)
    {
        let tag = format!("solve-{}", walls.len());
        if let Some(s) = solve_once(cfg, spec, &spec.opts, &tag, out) {
            check_same(&reference, &s, &tag, out);
            walls.push(s.wall);
        }
        let owed = setup_owed(start.elapsed().as_secs_f64(), cfg.seconds);
        setup_until(cfg, spec, owed, &mut setup, out);
    }
    out.fingerprint = reference.checksums.clone();
    if walls.is_empty() || !setup_until(cfg, spec, SETUP_REPS, &mut setup, out) {
        return;
    }
    out.notes.push(stats::describe("setup_s", "s", &setup));
    out.notes.push(stats::describe("solve_wall_s", "s", &walls));
    out.measured("setup_s", "s", stats::median(&setup));
    out.measured("solve_wall_s", "s", stats::median(&walls));
    out.exact("solve_sim_s", "sim_s", reference.sim);
    // The solve loop is the closed loop of these workloads: one client,
    // one `apsp()` per request. So the serve metrics restate the solve
    // metrics: p50 is `solve_wall_s`, the simulated p95 is
    // `solve_sim_s`, and the wall tail is `SOLVE_TAIL_PERCENTILE`.
    out.measured(
        "serve_jobs_per_s",
        "jobs/s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.measured("serve_wall_p50_s", "s", stats::median(&walls));
    out.measured(
        "serve_wall_p95_s",
        "s",
        stats::percentile(&walls, SOLVE_TAIL_PERCENTILE),
    );
    out.exact("serve_sim_p95_s", "sim_s", reference.sim);
}

/// One direct driver run: the entry point `apsp()` would call for
/// `algorithm`, on a fresh store and device.
pub struct DriverRun {
    /// The finished store (its spill directory lives in `_dir`).
    pub store: TileStore,
    /// Host wall seconds of the driver call alone.
    pub wall: f64,
    /// The driver's details.
    pub details: RunDetails,
    /// The driver's simulated seconds.
    pub sim: f64,
    _dir: Scratch,
}

/// Run `algorithm`'s driver entry point the way `apsp()` does: fresh
/// store on the workload's backend, an unarmed default supervisor, and a
/// fresh checkpoint when the workload checkpoints.
pub fn drive(
    cfg: &RunConfig,
    spec: &SolveSpec,
    algorithm: Algorithm,
    opts: &ApspOptions,
    tag: &str,
) -> Result<DriverRun, ApspError> {
    let dir = Scratch::new(&cfg.work_dir, tag);
    let g = &spec.graph;
    let sup = Supervisor::new(&opts.supervision, 0.0);
    let mut store = TileStore::new(g.num_vertices(), &spec.storage_in(dir.path()))?;
    store.set_exec_backend(opts.exec);
    store.set_supervision(sup.clone());
    let ckpt = match spec.checkpoint_dir_in(dir.path()) {
        Some(d) => Some(Checkpoint::new(d, g)?),
        None => None,
    };
    let mut dev = GpuDevice::new(spec.profile.clone());
    let dev = &mut dev;
    let s = &mut store;
    let (details, wall) = timed(|| -> Result<RunDetails, ApspError> {
        Ok(match (algorithm, &ckpt) {
            (Algorithm::FloydWarshall, Some(c)) => RunDetails::FloydWarshall(
                ooc_floyd_warshall_checkpointed_supervised(dev, g, s, &opts.fw, c, &sup)?,
            ),
            (Algorithm::FloydWarshall, None) => {
                RunDetails::FloydWarshall(ooc_floyd_warshall_guarded(dev, g, s, &opts.fw, &sup)?)
            }
            (Algorithm::Johnson, Some(c)) => RunDetails::Johnson(
                ooc_johnson_checkpointed_supervised(dev, g, s, &opts.johnson, c, &sup)?,
            ),
            (Algorithm::Johnson, None) => {
                RunDetails::Johnson(ooc_johnson_supervised(dev, g, s, &opts.johnson, &sup)?)
            }
            (Algorithm::Boundary, Some(c)) => RunDetails::Boundary(
                ooc_boundary_checkpointed_supervised(dev, g, s, &opts.boundary, c, &sup)?,
            ),
            (Algorithm::Boundary, None) => {
                RunDetails::Boundary(ooc_boundary_supervised(dev, g, s, &opts.boundary, &sup)?)
            }
        })
    });
    let details = details?;
    store.clear_supervision();
    let sim = match &details {
        RunDetails::FloydWarshall(s) => s.sim_seconds,
        RunDetails::Johnson(s) => s.sim_seconds,
        RunDetails::Boundary(s) => s.sim_seconds,
    };
    Ok(DriverRun {
        store,
        wall,
        details,
        sim,
        _dir: dir,
    })
}

/// The same options with the silent-corruption guard off everywhere.
fn unguarded(opts: &ApspOptions) -> ApspOptions {
    let mut o = opts.clone();
    o.sdc_guard = SdcGuardMode::Off;
    o.fw.sdc_guard = SdcGuardMode::Off;
    o.johnson.sdc_guard = SdcGuardMode::Off;
    o.boundary.sdc_guard = SdcGuardMode::Off;
    o
}

/// Per-layer metrics: time each layer's public functions as the
/// benchmark calls them, and check that the direct driver call
/// reproduces the untraced `apsp()` exactly.
pub fn traced(cfg: &RunConfig, spec: &SolveSpec, out: &mut Outcome) {
    let g = &spec.graph;
    let n = g.num_vertices();
    let opts = &spec.opts;
    let budget = (cfg.seconds / 40.0).max(0.02);

    // selector.calibrate_s: the process's first (cold) calibration.
    let (models, calibrate_s) = timed(|| CostModels::calibrate_cached(&spec.profile));
    // The untraced reference solve doubles as the warm-up.
    let Some(reference) = solve_once(cfg, spec, opts, "reference", out) else {
        return;
    };
    let mut untraced = Vec::new();
    let start = Instant::now();
    while out.failed == 0
        && (untraced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds / 4.0)
    {
        let tag = format!("untraced-{}", untraced.len());
        if let Some(s) = solve_once(cfg, spec, opts, &tag, out) {
            check_same(&reference, &s, &tag, out);
            untraced.push(s.wall);
        }
    }
    if untraced.is_empty() {
        return;
    }
    let untraced = stats::median(&untraced);
    // The same solve with the program's telemetry on: its report gives
    // the store and simulator counters, its wall the tracing overhead.
    let tel_opts = ApspOptions {
        telemetry: true,
        ..opts.clone()
    };
    let Some(tel) = solve_once(cfg, spec, &tel_opts, "telemetry", out) else {
        return;
    };
    check_same(&reference, &tel, "telemetry solve", out);
    let report = tel.report.clone().expect("telemetry was on");

    // The selector, called as `apsp()` calls it. A pinned solve skips it;
    // with telemetry on, `apsp()` still runs it as a shadow selection,
    // whose cost is reported apart and never enters `solve_wall_s`.
    let (probe, probe_s) =
        timed(|| JohnsonModel::probe(&spec.profile, g, &opts.selector, &opts.johnson));
    let probe = match probe {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("Johnson probe: {e}"));
            return;
        }
    };
    let (selection, select_s) = timed(|| models.select(g, &opts.selector, &probe));
    let pinned = opts.algorithm.is_some();
    let algorithm = opts.algorithm.unwrap_or(selection.algorithm);
    if algorithm != reference.algorithm {
        out.fail(format!(
            "selector picked {algorithm}, apsp() ran {}",
            reference.algorithm
        ));
        return;
    }

    // The driver entry point, called directly on a fresh store.
    out.attempted += 1;
    let mut run = match drive(cfg, spec, algorithm, opts, "driver") {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("direct driver call: {e}"));
            return;
        }
    };
    match check_store(g, &run.store, cfg.seed) {
        Ok(sums) if sums == reference.checksums && run.sim.to_bits() == reference.sim.to_bits() => {
        }
        Ok(_) => out.fail(format!(
            "traced decomposition diverged from apsp(): sim {} vs {}, or panel checksums differ",
            run.sim, reference.sim
        )),
        Err(e) => out.fail(format!("direct driver call: {e}")),
    }
    out.fingerprint = reference.checksums.clone();

    // The guard's cost: the same driver call with the guard off.
    let sdc_overhead_s = if opts.sdc_guard.is_on() {
        out.attempted += 1;
        match drive(cfg, spec, algorithm, &unguarded(opts), "driver-unguarded") {
            Ok(r) => run.wall - r.wall,
            Err(e) => {
                out.fail(format!("unguarded driver call: {e}"));
                0.0
            }
        }
    } else {
        0.0
    };

    let predicted = selection
        .candidates
        .iter()
        .find(|c| c.algorithm == algorithm)
        .and_then(|c| c.estimate);
    // A pinned solve never calls the selector; what telemetry's shadow
    // selection spends is reported on its own.
    let (probe_s, select_s, shadow_s) = if pinned {
        (0.0, 0.0, probe_s + select_s)
    } else {
        (probe_s, select_s, 0.0)
    };
    out.measured("selector.calibrate_s", "s", calibrate_s);
    out.measured("selector.probe_s", "s", probe_s);
    out.measured("selector.select_s", "s", select_s);
    out.exact(
        "selector.pred_ratio",
        "ratio",
        predicted.map_or(0.0, |p| p / run.sim),
    );
    out.measured("telemetry.shadow_select_s", "s", shadow_s);

    // Driver-specific counts, and the realized tile side the kernel and
    // store timings use.
    let exec = exec();
    let (mut fw_wall, mut fw_block, mut fw_rounds) = (0.0, 0, 0);
    let (mut j_wall, mut j_batches, mut j_batch, mut j_relax) = (0.0, 0, 0, 0);
    let (mut b_wall, mut b_nrow) = (0.0, 0);
    let (mut kway_s, mut components, mut boundary_nodes) = (0.0, 0, 0);
    let (tile, barriers, commits, progress) = match &run.details {
        RunDetails::FloydWarshall(s) => {
            (fw_wall, fw_block, fw_rounds) = (run.wall, s.block, s.n_d);
            let progress = Progress::FloydWarshall {
                block: s.block,
                next_round: s.n_d,
            };
            (s.block, s.n_d, s.checkpoint_commits, progress)
        }
        RunDetails::Johnson(s) => {
            (j_wall, j_batches, j_batch) = (run.wall, s.num_batches, s.batch_size);
            j_relax = s.work.total_relaxations();
            let progress = Progress::Johnson {
                batch_size: s.batch_size,
                next_row: n,
            };
            (s.batch_size, s.num_batches, s.checkpoint_commits, progress)
        }
        RunDetails::Boundary(s) => {
            (b_wall, b_nrow) = (run.wall, s.n_row);
            let pcfg = PartitionConfig {
                seed: opts.boundary.partition_seed,
                ..PartitionConfig::default()
            };
            let (p, wall) = timed(|| kway_partition(g, s.num_components, &pcfg));
            kway_s = wall;
            components = p.k();
            boundary_nodes = p.num_boundary_nodes(g);
            let progress = Progress::Boundary {
                components: s.num_components,
                partition_seed: opts.boundary.partition_seed,
                next_component: s.num_components,
            };
            let flushes = s.num_components.div_ceil(s.n_row.max(1));
            (s.max_component, flushes, s.checkpoint_commits, progress)
        }
    };
    let n3 = (n as f64).powi(3);
    out.measured("partition.kway_s", "s", kway_s);
    out.exact("partition.components", "count", components as f64);
    out.exact("partition.boundary_nodes", "count", boundary_nodes as f64);
    // Johnson's has no tiles: its kernels are Near-Far frontiers.
    let tiled = !matches!(run.details, RunDetails::Johnson(_));
    out.measured(
        "cpu.minplus_grelax_s",
        "Grelax/s",
        if tiled {
            layers::minplus_grelax_s(tile, exec, budget)
        } else {
            0.0
        },
    );
    out.measured(
        "cpu.fw_tile_grelax_s",
        "Grelax/s",
        if tiled {
            layers::fw_tile_grelax_s(g, tile, exec, budget)
        } else {
            0.0
        },
    );
    out.measured("ooc_fw.wall_s", "s", fw_wall);
    out.measured(
        "ooc_fw.grelax_s",
        "Grelax/s",
        if fw_wall > 0.0 {
            n3 / fw_wall / 1e9
        } else {
            0.0
        },
    );
    out.exact("ooc_fw.block", "count", fw_block as f64);
    out.exact("ooc_fw.rounds", "count", fw_rounds as f64);
    out.measured("ooc_johnson.wall_s", "s", j_wall);
    out.exact("ooc_johnson.batches", "count", j_batches as f64);
    out.exact("ooc_johnson.batch_size", "count", j_batch as f64);
    out.exact("ooc_johnson.relaxations", "count", j_relax as f64);
    out.measured("ooc_boundary.wall_s", "s", b_wall);
    out.exact("ooc_boundary.n_row", "count", b_nrow as f64);

    out.exact(
        "tile_store.row_reads",
        "count",
        report.store_row_reads as f64,
    );
    out.exact(
        "tile_store.row_writes",
        "count",
        report.store_row_writes as f64,
    );
    let rates_dir = Scratch::new(&cfg.work_dir, "store-rates");
    match layers::store_mib_s(n, tile, &spec.storage_in(rates_dir.path()), exec, budget) {
        Ok((w, r)) => {
            out.measured("tile_store.write_mib_s", "MiB/s", w);
            out.measured("tile_store.read_mib_s", "MiB/s", r);
        }
        Err(e) => out.fail(format!("tile-store rates: {e}")),
    }
    drop(rates_dir);

    match layers::verify_s(&mut run.store, budget) {
        Ok(s) => out.measured("sdc.verify_s", "s", s),
        Err(e) => out.fail(format!("checksum sweep: {e}")),
    }
    let guarded = opts.sdc_guard.is_on();
    out.exact(
        "sdc.barriers",
        "count",
        if guarded { barriers as f64 } else { 0.0 },
    );
    out.measured("sdc.overhead_s", "s", sdc_overhead_s);

    let commit_s = if spec.checkpoint {
        let dir = Scratch::new(&cfg.work_dir, "commit");
        layers::commit_s(g, &run.store, &progress, dir.path(), budget).unwrap_or_else(|e| {
            out.fail(format!("checkpoint commit: {e}"));
            0.0
        })
    } else {
        0.0
    };
    out.measured("checkpoint.commit_s", "s", commit_s);
    out.exact("checkpoint.commits", "count", commits as f64);
    let matrix_mib = (n * n * std::mem::size_of::<apsp_graph::Dist>()) as f64 / (1u64 << 20) as f64;
    out.exact(
        "checkpoint.mib_written",
        "MiB_computed",
        commits as f64 * matrix_mib,
    );

    out.exact("gpu_sim.bytes_h2d", "B_computed", report.bytes_h2d as f64);
    out.exact("gpu_sim.bytes_d2h", "B_computed", report.bytes_d2h as f64);
    out.exact(
        "gpu_sim.kernel_launches",
        "count",
        report.kernel_launches as f64,
    );
    out.exact("gpu_sim.compute_busy_s", "sim_s", report.compute_busy);
    out.exact(
        "gpu_sim.overlap_efficiency",
        "ratio",
        report.overlap_efficiency,
    );

    out.measured(
        "api.unattributed_s",
        "s",
        untraced - probe_s - select_s - run.wall,
    );
    out.measured("telemetry.overhead_s", "s", tel.wall - untraced);

    // Attribution of one solve's wall time, largest layer named.
    let checkpoint_total = commit_s * commits as f64;
    let mut shares = [
        ("selector.probe_s", probe_s),
        ("selector.select_s", select_s),
        ("partition.kway_s", kway_s),
        ("sdc.overhead_s", sdc_overhead_s),
        ("checkpoint.commit_s x checkpoint.commits", checkpoint_total),
        (
            "driver remainder (kernels, store I/O, simulator)",
            run.wall - sdc_overhead_s - checkpoint_total - kway_s,
        ),
    ];
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.notes.push(format!(
        "attribution of one {untraced:.4} s solve ({algorithm}): {}; largest attributed layer: {}",
        shares
            .iter()
            .map(|(k, v)| format!("{k} {v:.4} s"))
            .collect::<Vec<_>>()
            .join(", "),
        shares[0].0
    ));
}
