//! Algorithm 1: out-of-core blocked Floyd-Warshall.
//!
//! The `n × n` matrix lives in the host [`TileStore`]; the device holds at
//! most a handful of `b × b` tiles. Each of the `n_d` rounds runs the
//! three blocked-FW stages, streaming every tile through the device and
//! back — `O(n_d · n²)` total data movement against `O(n³)` compute,
//! which is why the paper reserves this implementation for dense inputs.

use crate::checkpoint::{Checkpoint, Progress};
use crate::error::ApspError;
use crate::options::FwOptions;
use crate::sdc::SdcGuard;
use crate::supervisor::{RetryState, RetryStep, Supervisor};
use crate::tile_store::{TileStore, SDC_PANEL_ROWS};
use apsp_gpu_sim::{GpuDevice, Pinning, StreamId};
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::minplus::{
    minplus_kernel_exec, minplus_left_inplace_exec, minplus_right_inplace_exec,
};
use apsp_kernels::DeviceMatrix;

/// Outcome statistics of one out-of-core Floyd-Warshall run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwRunStats {
    /// Tile side used (by the final, successful attempt).
    pub block: usize,
    /// Number of tiles along each dimension.
    pub n_d: usize,
    /// Simulated seconds for the whole run.
    pub sim_seconds: f64,
    /// Restarts forced by mid-run device allocation failures (0 on a
    /// clean run). Each restart resumes from the partially relaxed
    /// store, possibly with a smaller block.
    pub retries: u32,
    /// Checkpoint commits performed (0 without checkpointing).
    pub checkpoint_commits: u32,
    /// Silent-corruption detections absorbed by the panel-scoped
    /// recovery rung (damaged panel reset to adjacency, rounds
    /// replayed).
    pub sdc_panel_recoveries: u32,
    /// Silent-corruption detections absorbed by the round-scoped rung
    /// (checkpoint snapshot restored, or the store reseeded from the
    /// graph).
    pub sdc_round_recoveries: u32,
}

/// Seed `store` with the adjacency of `g` (zero diagonal, weights, `INF`).
pub fn init_store_from_graph(g: &CsrGraph, store: &mut TileStore) -> Result<(), ApspError> {
    let n = g.num_vertices();
    assert_eq!(store.n(), n);
    let mut row = vec![INF; n];
    for v in 0..n as VertexId {
        row.fill(INF);
        row[v as usize] = 0;
        for (u, w) in g.edges_from(v) {
            if u != v && w < row[u as usize] {
                row[u as usize] = w;
            }
        }
        store.write_row(v as usize, &row)?;
    }
    Ok(())
}

/// Largest tile side such that `buffers` tiles of `b × b` distances fit in
/// the device's free memory.
pub fn max_block_side(dev: &GpuDevice, buffers: usize) -> usize {
    let w = std::mem::size_of::<Dist>() as u64;
    let per_buffer = dev.free_memory() / buffers as u64 / w;
    (per_buffer as f64).sqrt().floor() as usize
}

/// Run out-of-core blocked Floyd-Warshall of `g` into `store` under a
/// [`Supervisor`]: the deadline, progress watchdog, and cancellation
/// token are checked at every pivot-round barrier, and retries follow the
/// supervisor's policy. Seeds the store from `g` itself — the caller must
/// *not* pre-initialize it.
///
/// With automatic blocking (`opts.block_size == None`) a mid-run device
/// allocation failure degrades gracefully instead of aborting: the run
/// restarts on the partially relaxed store — once at the same block (a
/// transient fault clears), then at successively halved blocks (the
/// device shrank). Restarting is exact, not approximate: every entry in
/// the store is the weight of some real path, so it stays an upper bound
/// on the true distance, and re-running all rounds of blocked FW from
/// any such state converges to the same metric closure (min-plus
/// relaxations are monotone and order-insensitive). A caller-forced
/// block size propagates the failure instead.
///
/// Having the graph in hand arms the silent-corruption recovery ladder:
/// a guard detection localized to one panel resets just that panel's
/// rows to their adjacency initialization and replays (exact, by the same
/// monotonicity), and an unlocalized detection reseeds the whole store
/// from `g`. Once the ladder's budgets are spent, the detection
/// propagates as a typed [`ApspError::SilentCorruption`].
pub fn ooc_floyd_warshall_guarded(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &FwOptions,
    sup: &Supervisor,
) -> Result<FwRunStats, ApspError> {
    run(dev, g, store, opts, None, sup)
}

/// [`ooc_floyd_warshall_guarded`] with crash-safe durability: progress
/// commits to `ckpt` after every pivot round, and a checkpoint already
/// present in `ckpt`'s directory (validated against `g` and the store
/// checksums) is resumed instead of starting over. The checkpoint is
/// cleared on successful completion; a run interrupted by a deadline,
/// stall, or cancellation leaves its last committed round in `ckpt`, so
/// a later call resumes. The ladder's round rung restores the last
/// snapshot before it falls back to reseeding from `g`.
///
/// Rounds are only resumable at the blocking they committed under: a
/// forced `opts.block_size` that disagrees with the manifest is an
/// [`ApspError::InvalidInput`]; in auto mode an infeasible manifest
/// block re-fits and replays all rounds on the restored snapshot (exact,
/// by the same monotonicity argument as the OOM restarts).
pub fn ooc_floyd_warshall_checkpointed_supervised(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &FwOptions,
    ckpt: &Checkpoint,
    sup: &Supervisor,
) -> Result<FwRunStats, ApspError> {
    run(dev, g, store, opts, Some(ckpt), sup)
}

/// Seed for the guard's deterministic triangle sampling — a constant,
/// so reruns of the same case check the same pairs.
use crate::sdc::SDC_SAMPLE_SEED;

/// The resume cursor `(block, next_round)` of a Floyd-Warshall manifest.
fn fw_cursor(p: Progress) -> Option<(usize, usize)> {
    match p {
        Progress::FloydWarshall { block, next_round } => Some((block, next_round)),
        _ => None,
    }
}

/// The one driver behind both entry points: resume from `ckpt` (or seed
/// the store from `g`), run the retry/SDC loop, clear `ckpt` on success.
pub(crate) fn run(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &FwOptions,
    ckpt: Option<&Checkpoint>,
    sup: &Supervisor,
) -> Result<FwRunStats, ApspError> {
    let n = g.num_vertices();
    assert_eq!(store.n(), n);
    let resume = match ckpt {
        Some(ck) => ck.resume(store, "Floyd-Warshall", fw_cursor)?,
        None => None,
    };
    match (resume, opts.block_size) {
        (Some((block, _)), Some(forced)) if forced.min(n).max(1) != block => {
            return Err(ApspError::InvalidInput(format!(
                "checkpoint committed rounds at block {block} but block {} was \
                 forced — resume with the same block, or delete the checkpoint",
                forced.min(n).max(1)
            )));
        }
        (None, _) => init_store_from_graph(g, store)?,
        _ => {}
    }
    let stats = fw_driver(dev, g, store, opts, resume, ckpt, sup)?;
    if let Some(ck) = ckpt {
        ck.clear()?;
    }
    Ok(stats)
}

/// The retry-then-halve loop. `resume` carries `(block, start_round)`
/// from a restored manifest; restarts (OOM or re-fit) always replay from
/// round 0. `g` feeds the panel-reset and reseed rungs of the
/// silent-corruption recovery ladder.
fn fw_driver(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &FwOptions,
    resume: Option<(usize, usize)>,
    ckpt: Option<&Checkpoint>,
    sup: &Supervisor,
) -> Result<FwRunStats, ApspError> {
    let n = store.n();
    if n == 0 {
        return Ok(FwRunStats {
            block: 0,
            n_d: 0,
            sim_seconds: 0.0,
            retries: 0,
            checkpoint_commits: 0,
            sdc_panel_recoveries: 0,
            sdc_round_recoveries: 0,
        });
    }
    if opts.sdc_guard.is_on() && store.sdc_guard() != opts.sdc_guard {
        store.set_sdc_guard(opts.sdc_guard)?;
    }
    let mut guard = SdcGuard::new(opts.sdc_guard, SDC_SAMPLE_SEED);
    let mut panel_budget = sup.retry_policy().sdc_panel_retries;
    let mut round_budget = sup.retry_policy().sdc_round_retries;
    let mut panel_recoveries = 0u32;
    let mut round_recoveries = 0u32;
    // Resident working set: pivot tile + A(i,k) + A(k,j) + one or two
    // output tiles (two when overlap is on).
    let buffers = if opts.overlap_transfers { 5 } else { 4 };
    let (mut block, mut start_round) = match resume {
        Some((b, r)) => (b, r),
        None => (
            match opts.block_size {
                Some(b) => b.min(n).max(1),
                None => max_block_side(dev, buffers).min(n).max(1),
            },
            0,
        ),
    };
    let mut commits = 0u32;
    let mut retry = RetryState::new(sup.retry_policy(), "out-of-core Floyd-Warshall");
    loop {
        if block == 0 || (block as u64) * (block as u64) * 4 * buffers as u64 > dev.free_memory() {
            // Auto mode re-fits to whatever memory is left (it may have
            // shrunk since the last attempt was sized).
            if opts.block_size.is_none() {
                let refit = max_block_side(dev, buffers).min(block);
                if refit >= 1 && refit < block {
                    block = refit;
                    // Committed rounds describe a different blocking:
                    // replay them all on the (restored) store.
                    start_round = 0;
                    continue;
                }
            }
            return Err(ApspError::DeviceTooSmall {
                algorithm: "out-of-core Floyd-Warshall",
                detail: format!(
                    "cannot hold {buffers} tiles of any size in {} bytes",
                    dev.profile().memory_bytes
                ),
            });
        }
        match fw_rounds(
            dev,
            store,
            opts,
            block,
            start_round,
            ckpt,
            &mut commits,
            sup,
            &mut guard,
        ) {
            Ok(mut stats) => {
                stats.retries = retry.retries();
                stats.checkpoint_commits = commits;
                stats.sdc_panel_recoveries = panel_recoveries;
                stats.sdc_round_recoveries = round_recoveries;
                return Ok(stats);
            }
            // A caller-forced block size is a contract: never shrink it —
            // the allocation failure propagates.
            Err(e @ ApspError::OutOfDeviceMemory(_)) if opts.block_size.is_some() => return Err(e),
            Err(ApspError::SilentCorruption {
                panel,
                round,
                detail,
            }) => {
                // The SDC recovery ladder. Rung 1 — detection localized
                // to one panel (the corrupt rows were provably never
                // read): reset just those rows to adjacency and replay
                // all rounds. Exact, because the reset state is still
                // entrywise an upper bound on the true distances, and
                // min-plus relaxation converges to the same closure
                // from any such state. Rung 2 — unlocalized detection
                // (possible propagation): restore the last checkpoint
                // snapshot (committed only after its own barrier's
                // guard passed, so it predates the corruption), or
                // reseed the whole store from the graph. Exhausted
                // budgets propagate the typed error to the caller's
                // fallback chain.
                let tel = sup.telemetry().clone();
                tel.count_sdc(1, 0, 0);
                if panel != usize::MAX && panel_budget > 0 {
                    panel_budget -= 1;
                    panel_recoveries += 1;
                    let ph = tel.phase_start(dev);
                    reset_panel_from_graph(g, store, panel)?;
                    tel.phase_end(dev, ph, "sdc.recover_panel");
                    tel.count_sdc(0, 1, 0);
                    guard.reset_baseline();
                    start_round = 0;
                    continue;
                }
                if round_budget > 0 {
                    let ph = tel.phase_start(dev);
                    let restored = match ckpt {
                        Some(ck) => ck.resume(store, "Floyd-Warshall", fw_cursor)?,
                        None => None,
                    };
                    match restored {
                        Some((cb, next_round)) => {
                            block = cb;
                            start_round = next_round;
                        }
                        None => {
                            init_store_from_graph(g, store)?;
                            start_round = 0;
                        }
                    }
                    round_budget -= 1;
                    round_recoveries += 1;
                    tel.phase_end(dev, ph, "sdc.recover_round");
                    tel.count_sdc(0, 0, 1);
                    guard.reset_baseline();
                    continue;
                }
                return Err(ApspError::SilentCorruption {
                    panel,
                    round,
                    detail,
                });
            }
            Err(e) => {
                // Fatal kinds propagate out of `next_step` unchanged;
                // transient ones retry the same geometry once (a one-shot
                // fault may clear), then halve. Restarts replay all
                // rounds — exact, by min-plus monotonicity.
                let (step, oom) = retry.next_step(e, sup)?;
                start_round = 0;
                if step == RetryStep::Shrink {
                    if block <= 1 {
                        return Err(ApspError::DeviceTooSmall {
                            algorithm: "out-of-core Floyd-Warshall",
                            detail: format!(
                                "allocation kept failing at the minimum 1×1 block: {oom}"
                            ),
                        });
                    }
                    block /= 2;
                }
            }
        }
    }
}

/// The three-stage blocked-FW rounds `start_round..n_d` at a fixed
/// block, committing to `ckpt` (when present) at each round barrier.
#[allow(clippy::too_many_arguments)]
fn fw_rounds(
    dev: &mut GpuDevice,
    store: &mut TileStore,
    opts: &FwOptions,
    block: usize,
    start_round: usize,
    ckpt: Option<&Checkpoint>,
    commits: &mut u32,
    sup: &Supervisor,
    guard: &mut SdcGuard,
) -> Result<FwRunStats, ApspError> {
    let n = store.n();
    let n_d = n.div_ceil(block);
    let extent = |t: usize| -> std::ops::Range<usize> { t * block..((t + 1) * block).min(n) };

    let start = dev.elapsed().seconds();
    let s0 = dev.default_stream();
    let s1 = if opts.overlap_transfers {
        dev.create_stream()
    } else {
        s0
    };

    let tel = sup.telemetry().clone();
    for kb in start_round..n_d {
        store.set_sdc_round(kb);
        let kr = extent(kb);
        // ---- Stage 1: diagonal tile.
        let ph = tel.phase_start(dev);
        let mut diag = upload_tile(dev, s0, store, kr.clone(), kr.clone())?;
        fw_device_exec(dev, s0, &mut diag, opts.exec);
        download_tile(dev, s0, store, &diag, kr.clone(), kr.clone())?;
        tel.phase_end(dev, ph, "fw.diagonal");

        // ---- Stage 2: pivot row and pivot column.
        let ph = tel.phase_start(dev);
        for ib in 0..n_d {
            if ib == kb {
                continue;
            }
            let ir = extent(ib);
            // A(k, i) = min(A(k, i), A(k, k) ⊗ A(k, i)).
            let mut row_tile = upload_tile(dev, s0, store, kr.clone(), ir.clone())?;
            minplus_left_inplace_exec(dev, s0, &mut row_tile, &diag, opts.exec);
            download_tile(dev, s0, store, &row_tile, kr.clone(), ir.clone())?;
            // A(i, k) = min(A(i, k), A(i, k) ⊗ A(k, k)).
            let mut col_tile = upload_tile(dev, s0, store, ir.clone(), kr.clone())?;
            minplus_right_inplace_exec(dev, s0, &mut col_tile, &diag, opts.exec);
            download_tile(dev, s0, store, &col_tile, ir.clone(), kr.clone())?;
        }
        drop(diag);
        tel.phase_end(dev, ph, "fw.pivot");

        // ---- Stage 3: remainder tiles, double-buffered across streams.
        // The overlap stream must not start before stage 2 finished.
        let ph = tel.phase_start(dev);
        if opts.overlap_transfers {
            let stage2_done = dev.record_event(s0);
            dev.wait_event(s1, stage2_done);
        }
        for ib in 0..n_d {
            if ib == kb {
                continue;
            }
            let ir = extent(ib);
            let a_tile = upload_tile(dev, s0, store, ir.clone(), kr.clone())?;
            // Tiles on the overlap stream read a_tile: order them after
            // its upload.
            if opts.overlap_transfers {
                let a_ready = dev.record_event(s0);
                dev.wait_event(s1, a_ready);
            }
            for jb in 0..n_d {
                if jb == kb {
                    continue;
                }
                let jr = extent(jb);
                // Alternate streams so the previous tile's D2H overlaps
                // this tile's upload + compute.
                let stream = if opts.overlap_transfers && jb % 2 == 1 {
                    s1
                } else {
                    s0
                };
                let b_tile = upload_tile(dev, stream, store, kr.clone(), jr.clone())?;
                let mut c_tile = upload_tile(dev, stream, store, ir.clone(), jr.clone())?;
                minplus_kernel_exec(dev, stream, &mut c_tile, &a_tile, &b_tile, opts.exec);
                download_tile(dev, stream, store, &c_tile, ir.clone(), jr.clone())?;
            }
        }
        tel.phase_end(dev, ph, "fw.remainder");
        // Round barrier: the next round's pivot depends on everything.
        let now = dev.synchronize().seconds();
        // Supervision check at the natural barrier: a cancellation,
        // blown deadline, or missed progress budget surfaces here, with
        // everything committed so far still resumable.
        sup.check_barrier(now, &format!("Floyd-Warshall round {kb} barrier"))?;
        // Invariant guard at the same barrier, *before* the commit — a
        // corrupt store must never become a checkpoint snapshot. After
        // round kb the triangle inequality holds for every pivot `k`
        // in the completed blocks `0..(kb+1)·block`.
        guard.check_round(store, kb, ((kb + 1) * block).min(n))?;
        // Natural commit point: every tile reflects rounds 0..=kb. The
        // final round is not committed — completion clears the
        // checkpoint, and a crash after the last barrier replays one
        // round (exact, by monotonicity).
        if let Some(ck) = ckpt {
            if kb + 1 < n_d {
                ck.commit(
                    store,
                    &Progress::FloydWarshall {
                        block,
                        next_round: kb + 1,
                    },
                )?;
                *commits += 1;
            }
        }
    }
    let sim_seconds = dev.synchronize().seconds() - start;
    Ok(FwRunStats {
        block,
        n_d,
        sim_seconds,
        retries: 0,
        checkpoint_commits: 0,
        sdc_panel_recoveries: 0,
        sdc_round_recoveries: 0,
    })
}

/// Rung-1 recovery: rewrite the damaged panel's rows with their
/// adjacency initialization (the same state
/// [`init_store_from_graph`] seeds). Every entry of the reset rows is
/// again an upper bound on the true distance, so replaying all rounds
/// converges to the exact metric closure.
fn reset_panel_from_graph(
    g: &CsrGraph,
    store: &mut TileStore,
    panel: usize,
) -> Result<(), ApspError> {
    let n = g.num_vertices();
    let lo = (panel * SDC_PANEL_ROWS).min(n);
    let hi = ((panel + 1) * SDC_PANEL_ROWS).min(n);
    let mut row = vec![INF; n];
    for v in lo..hi {
        row.fill(INF);
        row[v] = 0;
        for (u, w) in g.edges_from(v as VertexId) {
            if u as usize != v && w < row[u as usize] {
                row[u as usize] = w;
            }
        }
        store.write_row(v, &row)?;
    }
    Ok(())
}

fn upload_tile(
    dev: &mut GpuDevice,
    stream: StreamId,
    store: &TileStore,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> Result<DeviceMatrix, ApspError> {
    let host = store.read_block(rows.clone(), cols.clone())?;
    let mut tile = DeviceMatrix::alloc_inf(dev, rows.len(), cols.len())?;
    tile.upload_rows(dev, stream, 0, &host, Pinning::Pinned);
    Ok(tile)
}

fn download_tile(
    dev: &mut GpuDevice,
    stream: StreamId,
    store: &mut TileStore,
    tile: &DeviceMatrix,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> Result<(), ApspError> {
    let mut host = vec![0 as Dist; rows.len() * cols.len()];
    tile.download_rows(dev, stream, 0..rows.len(), &mut host, Pinning::Pinned);
    store.write_block(rows, cols, &host)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile_store::{StorageBackend, StoreFaultPlan};
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, WeightRange};

    fn small_device() -> GpuDevice {
        // Forces real out-of-core behaviour on ~100-vertex graphs: 64 KiB
        // fits five ~57² u32 tiles, so n ≈ 100 needs n_d ≥ 2.
        GpuDevice::new(DeviceProfile::v100().with_memory_bytes(64 << 10))
    }

    /// Both entry points' driver, under an unarmed supervisor.
    fn unarmed(
        dev: &mut GpuDevice,
        g: &CsrGraph,
        store: &mut TileStore,
        opts: &FwOptions,
        ckpt: Option<&Checkpoint>,
    ) -> Result<FwRunStats, ApspError> {
        run(dev, g, store, opts, ckpt, &Supervisor::unarmed())
    }

    fn run_fw(g: &CsrGraph, dev: &mut GpuDevice, opts: &FwOptions) -> apsp_cpu::DistMatrix {
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        unarmed(dev, g, &mut store, opts, None).unwrap();
        store.to_dist_matrix().unwrap()
    }

    #[test]
    fn matches_reference_with_forced_blocking() {
        let g = gnp(97, 0.07, WeightRange::default(), 41);
        let mut dev = small_device();
        let result = run_fw(&g, &mut dev, &FwOptions::default());
        assert_eq!(result, bgl_plus_apsp(&g));
    }

    #[test]
    fn explicit_block_sizes_agree() {
        let g = gnp(64, 0.1, WeightRange::default(), 7);
        let reference = bgl_plus_apsp(&g);
        for block in [16, 23, 64] {
            let mut dev = GpuDevice::new(DeviceProfile::v100());
            let opts = FwOptions {
                block_size: Some(block),
                ..Default::default()
            };
            assert_eq!(run_fw(&g, &mut dev, &opts), reference, "block {block}");
        }
    }

    #[test]
    fn overlap_off_same_result_more_sim_time() {
        let g = gnp(80, 0.08, WeightRange::default(), 3);
        let mut d_on = small_device();
        let mut d_off = small_device();
        let on = run_fw(
            &g,
            &mut d_on,
            &FwOptions {
                overlap_transfers: true,
                block_size: Some(40),
                ..FwOptions::default()
            },
        );
        let off = run_fw(
            &g,
            &mut d_off,
            &FwOptions {
                overlap_transfers: false,
                block_size: Some(40),
                ..FwOptions::default()
            },
        );
        assert_eq!(on, off);
        assert!(
            d_on.elapsed().seconds() <= d_off.elapsed().seconds(),
            "overlap should never be slower"
        );
    }

    #[test]
    fn stats_report_blocking() {
        let g = gnp(100, 0.05, WeightRange::default(), 9);
        let mut dev = small_device();
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        let stats = unarmed(&mut dev, &g, &mut store, &FwOptions::default(), None).unwrap();
        assert!(
            stats.n_d >= 2,
            "device sized to force blocking, n_d = {}",
            stats.n_d
        );
        assert_eq!(stats.n_d, 100usize.div_ceil(stats.block));
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn device_too_small_errors_cleanly() {
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 16));
        // Consume almost all memory so not even 1×1 tiles fit.
        let _hog: apsp_gpu_sim::DeviceBuffer<u8> = dev.alloc((1 << 16) - 8).unwrap();
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        let g = gnp(64, 0.1, WeightRange::default(), 2);
        let err = unarmed(&mut dev, &g, &mut store, &FwOptions::default(), None);
        assert!(err.is_err());
    }

    #[test]
    fn disk_backed_store_works() {
        let g = gnp(60, 0.1, WeightRange::default(), 5);
        let dir = std::env::temp_dir().join("apsp_ooc_fw_test");
        let mut store = TileStore::new(60, &StorageBackend::Disk(dir)).unwrap();
        let mut dev = small_device();
        unarmed(&mut dev, &g, &mut store, &FwOptions::default(), None).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn transient_alloc_fault_recovers_exactly() {
        let g = gnp(90, 0.07, WeightRange::default(), 21);
        let mut dev = small_device();
        let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
        // Fail the 3rd device allocation (mid stage 2 of round 0): the run
        // restarts on the partially relaxed store and still converges.
        dev.inject_alloc_failure(3);
        let stats = unarmed(&mut dev, &g, &mut store, &FwOptions::default(), None).unwrap();
        assert_eq!(stats.retries, 1);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn repeated_alloc_faults_halve_block_and_stay_exact() {
        let g = gnp(90, 0.07, WeightRange::default(), 22);
        let mut dev = small_device();
        let buffers = 5; // FwOptions::default() has overlap on
        let initial_block = max_block_side(&dev, buffers).min(90);
        let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
        // Two overlapping faults: the first kills attempt 1 at its 3rd
        // allocation, the second (countdown 10, so 7 left after attempt 1)
        // kills the same-block retry too, forcing a halved block.
        dev.inject_alloc_failure(3);
        dev.inject_alloc_failure(10);
        let stats = unarmed(&mut dev, &g, &mut store, &FwOptions::default(), None).unwrap();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.block, initial_block / 2);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn forced_block_size_propagates_alloc_fault() {
        let g = gnp(64, 0.1, WeightRange::default(), 23);
        let mut dev = small_device();
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        dev.inject_alloc_failure(2);
        let opts = FwOptions {
            block_size: Some(32),
            ..Default::default()
        };
        let err = unarmed(&mut dev, &g, &mut store, &opts, None).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::OutOfDeviceMemory);
    }

    #[test]
    fn empty_graph() {
        let mut dev = small_device();
        let mut store = TileStore::new(0, &StorageBackend::Memory).unwrap();
        let g = apsp_graph::GraphBuilder::new(0).build();
        let stats = unarmed(&mut dev, &g, &mut store, &FwOptions::default(), None).unwrap();
        assert_eq!(stats.n_d, 0);
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("apsp_ooc_fw_ckpt").join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    use crate::options::SdcGuardMode;
    use crate::supervisor::{RetryPolicy, SupervisionOptions};

    #[test]
    fn guarded_clean_run_is_bit_identical_to_unguarded() {
        let g = gnp(90, 0.07, WeightRange::default(), 31);
        let reference = run_fw(&g, &mut small_device(), &FwOptions::default());
        for mode in [SdcGuardMode::Checksum, SdcGuardMode::Full] {
            let mut dev = small_device();
            let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
            let opts = FwOptions {
                sdc_guard: mode,
                ..Default::default()
            };
            let stats =
                ooc_floyd_warshall_guarded(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
                    .unwrap();
            assert_eq!(stats.sdc_panel_recoveries + stats.sdc_round_recoveries, 0);
            assert_eq!(store.to_dist_matrix().unwrap(), reference, "{mode}");
        }
    }

    #[test]
    fn injected_store_flips_are_recovered_bit_identical() {
        let g = gnp(90, 0.07, WeightRange::default(), 33);
        let reference = bgl_plus_apsp(&g);
        // Flip sites spread across the run: early init, stage 2/3 tile
        // writes, and late rounds. Each must be detected and recovered
        // to the exact clean result.
        for (after_ops, bit) in [(50u64, 7u64), (150, 13), (260, 31), (420, 3)] {
            let mut dev = small_device();
            let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
            store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            store.arm_faults(StoreFaultPlan::bit_flip(after_ops, bit));
            let opts = FwOptions {
                sdc_guard: SdcGuardMode::Checksum,
                ..Default::default()
            };
            let stats =
                ooc_floyd_warshall_guarded(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
                    .unwrap_or_else(|e| panic!("flip at op {after_ops} not recovered: {e}"));
            assert!(
                stats.sdc_panel_recoveries + stats.sdc_round_recoveries >= 1,
                "flip at op {after_ops} fired before the run ended but no recovery ran"
            );
            assert_eq!(
                store.to_dist_matrix().unwrap(),
                reference,
                "flip at op {after_ops} recovered to a different matrix"
            );
        }
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_typed() {
        let g = gnp(64, 0.1, WeightRange::default(), 34);
        let mut dev = small_device();
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        store.arm_faults(StoreFaultPlan::bit_flip(200, 9));
        let sup = Supervisor::new(
            &SupervisionOptions {
                retry: RetryPolicy {
                    sdc_panel_retries: 0,
                    sdc_round_retries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            0.0,
        );
        let opts = FwOptions {
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        let err = ooc_floyd_warshall_guarded(&mut dev, &g, &mut store, &opts, &sup).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::SilentCorruption, "{err}");
    }

    #[test]
    fn checkpointed_flip_recovers_via_snapshot_restore() {
        let g = gnp(97, 0.07, WeightRange::default(), 36);
        let reference = bgl_plus_apsp(&g);
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        // Fire after round 0's commit (~op 291 of 485), on a row that
        // gets re-read, so the detection is unlocalized and the round
        // rung restores the snapshot.
        store.arm_faults(StoreFaultPlan::bit_flip(380, 17));
        let ckpt = Checkpoint::new(ckpt_dir("sdc_restore"), &g).unwrap();
        let opts = FwOptions {
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        ooc_floyd_warshall_checkpointed_supervised(
            &mut dev,
            &g,
            &mut store,
            &opts,
            &ckpt,
            &Supervisor::unarmed(),
        )
        .unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), reference);
    }

    #[test]
    fn checkpointed_clean_run_commits_per_round_and_clears() {
        let g = gnp(97, 0.07, WeightRange::default(), 41);
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(ckpt_dir("clean"), &g).unwrap();
        let stats = unarmed(&mut dev, &g, &mut store, &FwOptions::default(), Some(&ckpt)).unwrap();
        assert_eq!(stats.checkpoint_commits as usize, stats.n_d - 1);
        assert!(ckpt.load().unwrap().is_none(), "cleared on completion");
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn interrupted_run_resumes_to_the_exact_matrix() {
        let g = gnp(97, 0.07, WeightRange::default(), 42);
        let dir = ckpt_dir("resume");
        // Interrupted attempt: the store dies mid-run.
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        store.arm_faults(StoreFaultPlan::crash_after(400));
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let err =
            unarmed(&mut dev, &g, &mut store, &FwOptions::default(), Some(&ckpt)).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Storage);
        drop(store);
        // Resumed attempt on fresh everything.
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        unarmed(&mut dev, &g, &mut store, &FwOptions::default(), Some(&ckpt)).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn resume_with_conflicting_forced_block_is_rejected() {
        let g = gnp(64, 0.1, WeightRange::default(), 43);
        let dir = ckpt_dir("block_conflict");
        let opts16 = FwOptions {
            block_size: Some(16),
            ..Default::default()
        };
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        // Past round 0 (init 64 + ~704 tile ops + 64 commit ops) so the
        // first round's commit has landed, but well before the run ends.
        store.arm_faults(StoreFaultPlan::crash_after(1000));
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        unarmed(&mut dev, &g, &mut store, &opts16, Some(&ckpt)).unwrap_err();
        drop(store);
        let probe = Checkpoint::new(&dir, &g).unwrap();
        assert!(
            probe.load().unwrap().is_some(),
            "round 0 must have committed"
        );
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let opts32 = FwOptions {
            block_size: Some(32),
            ..Default::default()
        };
        let err = unarmed(&mut dev, &g, &mut store, &opts32, Some(&ckpt)).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
        // Resuming with the committed block still works.
        let err_free = unarmed(&mut dev, &g, &mut store, &opts16, Some(&ckpt));
        assert!(err_free.is_ok(), "{err_free:?}");
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }
}
