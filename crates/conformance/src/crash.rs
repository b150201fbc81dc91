//! The kill–resume differential harness.
//!
//! Each cell of the crash matrix proves one checkpoint/resume contract:
//! a run killed at an arbitrary store operation and then resumed in a
//! fresh "process" (new device, new store, same checkpoint directory)
//! produces a matrix bit-identical to the uninterrupted run. The kill
//! point is drawn deterministically from a seed, so every failure
//! reproduces from its printed `CrashReport`.
//!
//! The three steps of [`run_kill_resume`]:
//!
//! 1. **Baseline** — an uninterrupted checkpointed run with the crash
//!    counter armed at `u64::MAX`, measuring the total number of
//!    row-granular store operations and establishing matrix *A* (checked
//!    against the CPU reference).
//! 2. **Kill** — a fresh device and store replay the identical operation
//!    sequence with a crash armed after `N ∈ [1, total)` operations,
//!    drawn from the seed. The run must die with a typed error; whatever
//!    the checkpoint directory holds at that instant is what a real
//!    crash would leave behind.
//! 3. **Resume** — another fresh device and store run the same
//!    checkpointed driver against the surviving directory. The result
//!    must equal *A* bitwise and the checkpoint must be cleared.

use crate::corpus::{splitmix64, Case};
use crate::runner::RunnerConfig;
use apsp_core::ooc_boundary::ooc_boundary_checkpointed_supervised;
use apsp_core::ooc_fw::ooc_floyd_warshall_checkpointed_supervised;
use apsp_core::ooc_johnson::ooc_johnson_checkpointed_supervised;
use apsp_core::options::{Algorithm, BoundaryOptions, FwOptions, JohnsonOptions};
use apsp_core::{ApspErrorKind, Checkpoint, StorageBackend, StoreFaultPlan, Supervisor, TileStore};
use apsp_cpu::bgl_plus_apsp;
use apsp_gpu_sim::{DeviceProfile, GpuDevice};

/// Per-algorithm knobs for one kill–resume cell. Defaults mirror the
/// production defaults; tests override them to force multiple commit
/// barriers (e.g. a fixed boundary component count) so the resume path
/// genuinely replays from a manifest.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashCellOptions {
    /// Floyd-Warshall knobs for the cell.
    pub fw: FwOptions,
    /// Johnson knobs for the cell.
    pub johnson: JohnsonOptions,
    /// Boundary knobs for the cell.
    pub boundary: BoundaryOptions,
}

/// What one kill–resume cell did, for logging and assertions.
#[derive(Debug)]
pub struct CrashReport {
    /// Row-granular store operations in the uninterrupted run.
    pub total_ops: u64,
    /// Operation budget the killed run was given (`1 ≤ ops < total`).
    pub crash_after_ops: u64,
    /// Typed classification of the injected failure (always `Storage`).
    pub interrupted_kind: ApspErrorKind,
    /// Whether the kill left a loadable manifest behind. `false` means
    /// the crash landed before the first commit (or mid-commit of the
    /// first), so the resume was a clean restart — still exact.
    pub resumed_from_manifest: bool,
}

impl std::fmt::Display for CrashReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "killed after {}/{} store ops ({:?}), resumed {} → exact",
            self.crash_after_ops,
            self.total_ops,
            self.interrupted_kind,
            if self.resumed_from_manifest {
                "from the manifest"
            } else {
                "as a clean restart (no commit survived)"
            },
        )
    }
}

fn run_checkpointed(
    algorithm: Algorithm,
    dev: &mut GpuDevice,
    g: &apsp_graph::CsrGraph,
    store: &mut TileStore,
    ckpt: &Checkpoint,
    cell: &CrashCellOptions,
) -> Result<(), apsp_core::ApspError> {
    let sup = Supervisor::unarmed();
    match algorithm {
        Algorithm::FloydWarshall => {
            ooc_floyd_warshall_checkpointed_supervised(dev, g, store, &cell.fw, ckpt, &sup)?;
        }
        Algorithm::Johnson => {
            ooc_johnson_checkpointed_supervised(dev, g, store, &cell.johnson, ckpt, &sup)?;
        }
        Algorithm::Boundary => {
            ooc_boundary_checkpointed_supervised(dev, g, store, &cell.boundary, ckpt, &sup)?;
        }
    }
    Ok(())
}

fn check_exact(
    store: &TileStore,
    reference: &apsp_cpu::DistMatrix,
    when: &str,
) -> Result<(), String> {
    let got = store
        .to_dist_matrix()
        .map_err(|e| format!("store unreadable {when}: {e}"))?;
    if &got == reference {
        return Ok(());
    }
    let n = reference.n();
    let idx = (0..n * n)
        .find(|&i| got.as_slice()[i] != reference.as_slice()[i])
        .unwrap();
    Err(format!(
        "{when}: cell ({}, {}) = {}, expected {}",
        idx / n,
        idx % n,
        got.as_slice()[idx],
        reference.as_slice()[idx]
    ))
}

/// Run one cell of the kill–resume matrix: `algorithm` on `case`, with
/// the store on `Memory` or `Disk` per `disk`, killed at a point drawn
/// from `crash_seed` and resumed from the surviving checkpoint.
///
/// Returns `Err` with a reproduction-ready description on any contract
/// violation: the interrupted run not failing, the resumed matrix
/// differing from the uninterrupted one, or checkpoint state leaking
/// past a completed run.
pub fn run_kill_resume(
    case: &Case,
    algorithm: Algorithm,
    disk: bool,
    crash_seed: u64,
    cfg: &RunnerConfig,
    cell: &CrashCellOptions,
) -> Result<CrashReport, String> {
    let g = &case.graph;
    let n = g.num_vertices();
    let reference = bgl_plus_apsp(g);
    let tag = match algorithm {
        Algorithm::FloydWarshall => "fw",
        Algorithm::Johnson => "johnson",
        Algorithm::Boundary => "boundary",
    };
    // The checkpoint lives in its own subdirectory: `TileStore::persist`
    // refuses to write snapshots into a `Disk` store's spill directory.
    let ckpt_dir = cfg.scratch_dir.join(format!(
        "crash-{}-{}-{}-{:x}",
        case.name,
        tag,
        if disk { "disk" } else { "memory" },
        crash_seed
    ));
    let backend = if disk {
        StorageBackend::Disk(cfg.scratch_dir.clone())
    } else {
        StorageBackend::Memory
    };
    let new_dev = || GpuDevice::new(DeviceProfile::v100().with_memory_bytes(cfg.device_bytes));
    let new_store =
        || TileStore::new(n, &backend).map_err(|e| format!("store creation failed: {e}"));

    // Step 1: the uninterrupted run — matrix A and the op budget.
    let ckpt =
        Checkpoint::new(&ckpt_dir, g).map_err(|e| format!("checkpoint dir unusable: {e}"))?;
    ckpt.clear()
        .map_err(|e| format!("stale checkpoint unclearable: {e}"))?;
    let mut dev = new_dev();
    let mut store = new_store()?;
    store.arm_faults(StoreFaultPlan::crash_after(u64::MAX));
    run_checkpointed(algorithm, &mut dev, g, &mut store, &ckpt, cell)
        .map_err(|e| format!("uninterrupted checkpointed run failed: {e}"))?;
    let total_ops = store.fault_counts().row_ops;
    store.disarm_faults();
    check_exact(&store, &reference, "after the uninterrupted run")?;
    if ckpt
        .load()
        .map_err(|e| format!("manifest unreadable after the clean run: {e}"))?
        .is_some()
    {
        return Err("the uninterrupted run left its checkpoint behind".into());
    }
    if total_ops < 2 {
        return Err(format!(
            "run too small to interrupt ({total_ops} store ops)"
        ));
    }

    // Step 2: the kill. Same op sequence, so any budget below the total
    // is guaranteed to fire.
    let mut s = crash_seed;
    let crash_after = 1 + splitmix64(&mut s) % (total_ops - 1);
    let mut dev = new_dev();
    let mut store = new_store()?;
    store.arm_faults(StoreFaultPlan::crash_after(crash_after));
    let interrupted_kind = match run_checkpointed(algorithm, &mut dev, g, &mut store, &ckpt, cell) {
        Err(e) => e.kind(),
        Ok(()) => {
            return Err(format!(
                "armed crash after {crash_after}/{total_ops} ops never fired"
            ))
        }
    };
    drop(store);
    let resumed_from_manifest = ckpt
        .load()
        .map_err(|e| format!("manifest unreadable after the kill: {e}"))?
        .is_some();

    // Step 3: the resume — fresh device, fresh store, same directory.
    let mut dev = new_dev();
    let mut store = new_store()?;
    run_checkpointed(algorithm, &mut dev, g, &mut store, &ckpt, cell)
        .map_err(|e| format!("resume after a kill at op {crash_after}/{total_ops} failed: {e}"))?;
    check_exact(
        &store,
        &reference,
        &format!("after resuming a kill at op {crash_after}/{total_ops}"),
    )?;
    if ckpt
        .load()
        .map_err(|e| format!("manifest unreadable after the resume: {e}"))?
        .is_some()
    {
        return Err("the resumed run left its checkpoint behind".into());
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(CrashReport {
        total_ops,
        crash_after_ops: crash_after,
        interrupted_kind,
        resumed_from_manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Family;

    #[test]
    fn one_cell_of_the_matrix_round_trips() {
        let cfg = RunnerConfig::default();
        let case = Case::generate(Family::ErdosRenyi, 0xC8A5);
        let cell = CrashCellOptions::default();
        let report = run_kill_resume(&case, Algorithm::FloydWarshall, false, 11, &cfg, &cell)
            .expect("kill–resume cell must hold");
        assert_eq!(report.interrupted_kind, ApspErrorKind::Storage);
        assert!(report.crash_after_ops < report.total_ops);
        assert!(report.to_string().contains("exact"));
    }
}
