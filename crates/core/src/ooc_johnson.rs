//! Algorithm 2: out-of-core batched Johnson's.
//!
//! `bat = (L − S) / (c·m + n)` Near-Far SSSP instances run per MSSP kernel
//! launch (one instance per thread block); each batch's `bat × n` result
//! panel streams back to the host, for `O(n²)` total data movement. When
//! the batch is too small to saturate the device, the paper's dynamic
//! parallelism offloads high-out-degree vertices to child kernels.

use crate::checkpoint::{Checkpoint, Progress};
use crate::error::ApspError;
use crate::options::{DynamicParallelism, JohnsonOptions};
use crate::sdc::{SdcGuard, SDC_SAMPLE_SEED};
use crate::supervisor::{RetryState, RetryStep, Supervisor};
use crate::tile_store::{TileStore, SDC_PANEL_ROWS};
use apsp_gpu_sim::{GpuDevice, Pinning};
use apsp_graph::{CsrGraph, Dist, VertexId};
use apsp_kernels::mssp::{mssp_kernel, MsspOptions};
use apsp_kernels::nearfar::NearFarStats;
use apsp_kernels::DeviceMatrix;

/// Outcome statistics of one out-of-core Johnson run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JohnsonRunStats {
    /// Batch size used (`bat`).
    pub batch_size: usize,
    /// Number of batches (`n_b`).
    pub num_batches: usize,
    /// Whether the dynamic-parallelism path was active.
    pub dynamic_parallelism: bool,
    /// Aggregated Near-Far counters.
    pub work: NearFarStats,
    /// Simulated seconds for the whole run.
    pub sim_seconds: f64,
    /// Restarts forced by mid-run device allocation failures (0 on a
    /// clean run). Each restart recomputes every uncommitted batch from
    /// the graph, possibly with a smaller `bat`.
    pub retries: u32,
    /// Checkpoint commits performed (0 without checkpointing).
    pub checkpoint_commits: u32,
    /// Silent corruptions repaired by restarting from the corrupt
    /// panel's first source row (the cheap recovery rung).
    pub sdc_panel_recoveries: u32,
    /// Silent corruptions repaired by recomputing every source from the
    /// graph (the unlocalized rung).
    pub sdc_round_recoveries: u32,
}

/// The paper's batch-size formula: `bat = (L − S) / (c·m)`, where `L` is
/// device memory, `S` the graph's storage, and `c·m` the per-instance
/// work-queue footprint — extended with the `n`-word output row each
/// instance must also keep resident. Clamped to `[1, n]`.
pub fn batch_size(
    dev: &GpuDevice,
    g: &CsrGraph,
    queue_words_per_edge: f64,
) -> Result<usize, ApspError> {
    let w = std::mem::size_of::<Dist>() as f64;
    let l = dev.free_memory() as f64;
    let s = g.storage_bytes() as f64;
    let n = g.num_vertices() as f64;
    let m = g.num_edges() as f64;
    let per_instance = (queue_words_per_edge * m + n) * w;
    let available = l - s;
    // Physical feasibility: the graph, one distance row and one set of
    // work queues (one word per edge) must fit; the tunable `c` above
    // that floor only shapes how many instances run concurrently.
    let min_instance = (m + n) * w;
    if available < min_instance {
        return Err(ApspError::DeviceTooSmall {
            algorithm: "out-of-core Johnson's",
            detail: format!(
                "graph ({s} B) plus one SSSP instance ({min_instance} B) exceeds free device memory ({l} B)"
            ),
        });
    }
    Ok(((available / per_instance) as usize).clamp(1, g.num_vertices().max(1)))
}

/// Run batched Johnson's APSP into `store` under a [`Supervisor`]: the
/// deadline, progress watchdog, and cancellation token are checked at
/// every batch barrier, and retries follow the supervisor's policy.
pub fn ooc_johnson_supervised(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &JohnsonOptions,
    sup: &Supervisor,
) -> Result<JohnsonRunStats, ApspError> {
    run(dev, g, store, opts, None, sup)
}

/// [`ooc_johnson_supervised`] with crash-safe durability: progress
/// commits to `ckpt` after every batch, and a checkpoint already present
/// in `ckpt`'s directory (validated against `g` and the store checksums)
/// is resumed — only the source rows at or above the committed cursor
/// are recomputed. The checkpoint is cleared on successful completion; a
/// run interrupted by a deadline, stall, or cancellation leaves its last
/// committed batch in `ckpt`, so a later call resumes.
///
/// Unlike Floyd-Warshall, resume is geometry-free: every batch writes
/// complete rows recomputed from the graph, so the remaining rows may be
/// re-batched at whatever size fits the device today.
pub fn ooc_johnson_checkpointed_supervised(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &JohnsonOptions,
    ckpt: &Checkpoint,
    sup: &Supervisor,
) -> Result<JohnsonRunStats, ApspError> {
    run(dev, g, store, opts, Some(ckpt), sup)
}

/// The one driver behind both entry points: resume from `ckpt`, run the
/// retry/SDC loop, clear `ckpt` on success.
pub(crate) fn run(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &JohnsonOptions,
    ckpt: Option<&Checkpoint>,
    sup: &Supervisor,
) -> Result<JohnsonRunStats, ApspError> {
    let resume = match ckpt {
        Some(ck) => ck.resume(store, "Johnson's", |p| match p {
            Progress::Johnson {
                batch_size,
                next_row,
            } => Some((batch_size, next_row)),
            _ => None,
        })?,
        None => None,
    };
    let stats = ooc_johnson_impl(dev, g, store, None, opts, resume, ckpt, sup)?;
    if let Some(ck) = ckpt {
        ck.clear()?;
    }
    Ok(stats)
}

/// Batched Johnson's without a supervisor that additionally streams the
/// full n×n *predecessor* matrix into `parent_store`:
/// `parent_store[i][j]` is the predecessor of `j` on a shortest path from
/// `i` (`VertexId::MAX` when `j` is `i` or unreachable). Doubles the
/// output traffic — exactly as it would on the real device — and
/// composes with [`crate::paths`] for reconstruction.
pub fn ooc_johnson_with_parents(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    parent_store: &mut TileStore,
    opts: &JohnsonOptions,
) -> Result<JohnsonRunStats, ApspError> {
    ooc_johnson_impl(
        dev,
        g,
        store,
        Some(parent_store),
        opts,
        None,
        None,
        &Supervisor::unarmed(),
    )
}

/// Batched MSSP over an explicit source list — the k-source partial
/// query underneath [`crate::service`]'s `JobSpec::Sources`. Returns the
/// `k × n` distance panel in *request order* (row `i` is the SSSP row of
/// `sources[i]`), never materializing the full matrix: data movement is
/// `O(k·n)`, so 1k sources out of n = 100k does not pay `n²`.
///
/// Shares the full driver's machinery: the paper's batch formula sizes
/// each kernel launch, the supervisor is consulted at every batch
/// barrier, and mid-run allocation failures restart at the same then a
/// halved batch. Restarts are exact — every row is recomputed from the
/// graph alone. Duplicate sources are allowed (each occurrence gets its
/// own output row).
pub fn ooc_johnson_sources(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    sources: &[VertexId],
    opts: &JohnsonOptions,
    sup: &Supervisor,
) -> Result<(Vec<Dist>, JohnsonRunStats), ApspError> {
    let n = g.num_vertices();
    for &s in sources {
        if (s as usize) >= n {
            return Err(ApspError::InvalidInput(format!(
                "source {s} out of range for a graph with {n} vertices"
            )));
        }
    }
    let k = sources.len();
    let mut out = vec![0 as Dist; k * n];
    if n == 0 || k == 0 {
        return Ok((
            out,
            JohnsonRunStats {
                batch_size: 0,
                num_batches: 0,
                dynamic_parallelism: false,
                work: NearFarStats::default(),
                sim_seconds: 0.0,
                retries: 0,
                checkpoint_commits: 0,
                sdc_panel_recoveries: 0,
                sdc_round_recoveries: 0,
            },
        ));
    }
    let mut bat = batch_size(dev, g, opts.queue_words_per_edge)?.min(k);
    let mut retry = RetryState::new(sup.retry_policy(), "out-of-core Johnson's (partial)");
    loop {
        match johnson_source_batches(dev, g, sources, &mut out, opts, bat, sup) {
            Ok(mut stats) => {
                stats.retries = retry.retries();
                return Ok((out, stats));
            }
            Err(e) => {
                let (step, oom) = retry.next_step(e, sup)?;
                if step == RetryStep::Shrink {
                    if bat <= 1 {
                        return Err(ApspError::DeviceTooSmall {
                            algorithm: "out-of-core Johnson's (partial)",
                            detail: format!(
                                "allocation kept failing at the minimum batch of 1: {oom}"
                            ),
                        });
                    }
                    bat = (bat / 2)
                        .min(batch_size(dev, g, opts.queue_words_per_edge)?)
                        .max(1);
                }
            }
        }
    }
}

/// One pass over the requested source batches at a fixed `bat`, writing
/// each panel straight into `out` (no tile store — the panel is the
/// product).
fn johnson_source_batches(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    sources: &[VertexId],
    out: &mut [Dist],
    opts: &JohnsonOptions,
    bat: usize,
    sup: &Supervisor,
) -> Result<JohnsonRunStats, ApspError> {
    let n = g.num_vertices();
    let delta = opts
        .delta
        .unwrap_or_else(|| apsp_kernels::nearfar::default_delta(g));
    let dynamic = match opts.dynamic_parallelism {
        DynamicParallelism::On => true,
        DynamicParallelism::Off => false,
        DynamicParallelism::Auto => (bat as u32) < dev.profile().saturating_blocks,
    };
    let mssp_opts = MsspOptions {
        delta,
        dynamic_parallelism: dynamic,
        heavy_degree_threshold: opts.heavy_degree_threshold,
        exec: opts.exec,
    };
    let graph_hold: apsp_gpu_sim::DeviceBuffer<u8> = dev.alloc(g.storage_bytes())?;
    let start = dev.elapsed().seconds();
    let s0 = dev.default_stream();
    let s1 = if opts.overlap_transfers {
        dev.create_stream()
    } else {
        s0
    };
    let tel = sup.telemetry().clone();
    let mut work = NearFarStats::default();
    let mut num_batches = 0usize;
    let mut done = 0usize;
    for (bi, chunk) in sources.chunks(bat).enumerate() {
        num_batches += 1;
        let ph = tel.phase_start(dev);
        let stream = if opts.overlap_transfers && bi % 2 == 1 {
            s1
        } else {
            s0
        };
        let mut panel = DeviceMatrix::alloc_inf(dev, chunk.len(), n)?;
        let outcome = mssp_kernel(dev, stream, g, chunk, &mut panel, mssp_opts);
        work.merge(&outcome.stats);
        let host = &mut out[done * n..(done + chunk.len()) * n];
        panel.download_rows(dev, stream, 0..chunk.len(), host, Pinning::Pinned);
        done += chunk.len();
        tel.phase_end(dev, ph, "johnson.sources_batch");
        sup.check_barrier(
            dev.elapsed().seconds(),
            &format!("Johnson sources batch {bi} barrier"),
        )?;
    }
    drop(graph_hold);
    let sim_seconds = dev.synchronize().seconds() - start;
    Ok(JohnsonRunStats {
        batch_size: bat,
        num_batches,
        dynamic_parallelism: dynamic,
        work,
        sim_seconds,
        retries: 0,
        checkpoint_commits: 0,
        sdc_panel_recoveries: 0,
        sdc_round_recoveries: 0,
    })
}

#[allow(clippy::too_many_arguments)]
fn ooc_johnson_impl(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    mut parent_store: Option<&mut TileStore>,
    opts: &JohnsonOptions,
    resume: Option<(usize, usize)>,
    ckpt: Option<&Checkpoint>,
    sup: &Supervisor,
) -> Result<JohnsonRunStats, ApspError> {
    let n = g.num_vertices();
    assert_eq!(store.n(), n);
    if let Some(ps) = parent_store.as_deref() {
        assert_eq!(ps.n(), n, "parent store dimension mismatch");
    }
    if n == 0 {
        return Ok(JohnsonRunStats {
            batch_size: 0,
            num_batches: 0,
            dynamic_parallelism: false,
            work: NearFarStats::default(),
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
    // A resumed run keeps the committed batch size (re-fitting happens
    // through the retry path if it no longer fits) and skips the rows
    // already final in the restored snapshot.
    let (resume_bat, start_row) = match resume {
        Some((b, r)) => (Some(b.clamp(1, n)), r.min(n)),
        None => (None, 0),
    };
    let mut bat = match resume_bat {
        Some(b) => b,
        None => {
            let mut b = batch_size(dev, g, opts.queue_words_per_edge)?;
            if parent_store.is_some() {
                // Two result panels (distances + parents) share the device.
                b = (b / 2).max(1);
            }
            b
        }
    };
    // A mid-run allocation failure degrades gracefully: restart once at
    // the same batch size (a transient fault clears), then at halved
    // batches. Restarts are exact — every batch writes complete rows
    // recomputed from the graph, so a retry simply overwrites them.
    let mut commits = 0u32;
    let mut retry = RetryState::new(sup.retry_policy(), "out-of-core Johnson's");
    let mut cur_start = start_row;
    loop {
        match johnson_batches(
            dev,
            g,
            store,
            parent_store.as_deref_mut(),
            opts,
            bat,
            cur_start,
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
            Err(ApspError::SilentCorruption {
                panel,
                round,
                detail,
            }) => {
                let tel = sup.telemetry().clone();
                tel.count_sdc(1, 0, 0);
                // Johnson rows never feed each other — every source row
                // is recomputed from the graph alone — so restarting the
                // batch pass at the corrupt panel's first row is exact
                // and leaves the rows below it untouched.
                if panel != usize::MAX && panel_budget > 0 {
                    panel_budget -= 1;
                    panel_recoveries += 1;
                    let ph = tel.phase_start(dev);
                    cur_start = (panel * SDC_PANEL_ROWS).min(n);
                    // The rewrite reaches the corrupt row batch by
                    // batch; re-seed the registry for everything being
                    // recomputed so the stale mismatch cannot re-fire
                    // at an earlier batch barrier.
                    store.sdc_rebaseline(cur_start..n)?;
                    tel.phase_end(dev, ph, "sdc.recover_panel");
                    tel.count_sdc(0, 1, 0);
                    continue;
                }
                // Unlocalized (or panel budget spent): recompute every
                // source. Still exact for the same reason.
                if round_budget > 0 {
                    round_budget -= 1;
                    round_recoveries += 1;
                    let ph = tel.phase_start(dev);
                    cur_start = 0;
                    store.sdc_rebaseline(0..n)?;
                    tel.phase_end(dev, ph, "sdc.recover_round");
                    tel.count_sdc(0, 0, 1);
                    continue;
                }
                return Err(ApspError::SilentCorruption {
                    panel,
                    round,
                    detail,
                });
            }
            Err(e) => {
                let (step, oom) = retry.next_step(e, sup)?;
                if step == RetryStep::Shrink {
                    if bat <= 1 {
                        return Err(ApspError::DeviceTooSmall {
                            algorithm: "out-of-core Johnson's",
                            detail: format!(
                                "allocation kept failing at the minimum batch of 1: {oom}"
                            ),
                        });
                    }
                    // Re-fit against current free memory too — the device
                    // may have shrunk since the batch was first sized (and
                    // batch_size re-checks that the graph still fits at
                    // all).
                    bat = (bat / 2).min(batch_size(dev, g, opts.queue_words_per_edge)?);
                }
            }
        }
    }
}

/// One pass over the source batches `start_row..n` at a fixed `bat`,
/// committing to `ckpt` (when present) after each batch's rows land.
#[allow(clippy::too_many_arguments)]
fn johnson_batches(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    mut parent_store: Option<&mut TileStore>,
    opts: &JohnsonOptions,
    bat: usize,
    start_row: usize,
    ckpt: Option<&Checkpoint>,
    commits: &mut u32,
    sup: &Supervisor,
    guard: &mut SdcGuard,
) -> Result<JohnsonRunStats, ApspError> {
    let n = g.num_vertices();
    let delta = opts
        .delta
        .unwrap_or_else(|| apsp_kernels::nearfar::default_delta(g));
    let dynamic = match opts.dynamic_parallelism {
        DynamicParallelism::On => true,
        DynamicParallelism::Off => false,
        // The paper's policy: engage child kernels only when the batch
        // cannot saturate the device on its own.
        DynamicParallelism::Auto => (bat as u32) < dev.profile().saturating_blocks,
    };
    let mssp_opts = MsspOptions {
        delta,
        dynamic_parallelism: dynamic,
        heavy_degree_threshold: opts.heavy_degree_threshold,
        exec: opts.exec,
    };

    // Graph occupies the device for the entire run (the `S` term).
    let graph_hold: apsp_gpu_sim::DeviceBuffer<u8> = dev.alloc(g.storage_bytes())?;

    let start = dev.elapsed().seconds();
    let s0 = dev.default_stream();
    let s1 = if opts.overlap_transfers {
        dev.create_stream()
    } else {
        s0
    };
    let tel = sup.telemetry().clone();
    let mut work = NearFarStats::default();
    let mut num_batches = 0usize;
    let mut host_panel = vec![0 as Dist; bat * n];
    let sources: Vec<VertexId> = (start_row as VertexId..n as VertexId).collect();
    for (bi, chunk) in sources.chunks(bat).enumerate() {
        num_batches += 1;
        store.set_sdc_round(bi);
        let ph = tel.phase_start(dev);
        // Alternate streams so the previous panel's D2H overlaps this
        // batch's kernel.
        let stream = if opts.overlap_transfers && bi % 2 == 1 {
            s1
        } else {
            s0
        };
        let mut panel = DeviceMatrix::alloc_inf(dev, chunk.len(), n)?;
        if let Some(ps) = parent_store.as_deref_mut() {
            let mut parents_panel = DeviceMatrix::alloc_inf(dev, chunk.len(), n)?;
            let outcome = apsp_kernels::mssp::mssp_kernel_with_parents(
                dev,
                stream,
                g,
                chunk,
                &mut panel,
                &mut parents_panel,
                mssp_opts,
            );
            work.merge(&outcome.stats);
            let host = &mut host_panel[..chunk.len() * n];
            parents_panel.download_rows(dev, stream, 0..chunk.len(), host, Pinning::Pinned);
            ps.write_rows(chunk[0] as usize, host)?;
        } else {
            let outcome = mssp_kernel(dev, stream, g, chunk, &mut panel, mssp_opts);
            work.merge(&outcome.stats);
        }
        let host = &mut host_panel[..chunk.len() * n];
        panel.download_rows(dev, stream, 0..chunk.len(), host, Pinning::Pinned);
        store.write_rows(chunk[0] as usize, host)?;
        tel.phase_end(dev, ph, "johnson.batch");
        // Supervision check at the natural barrier: this batch's rows
        // are down; everything committed so far stays resumable. Reads
        // the makespan clock (`elapsed`), not `synchronize` — a real
        // barrier would serialize the overlap streams.
        sup.check_barrier(
            dev.elapsed().seconds(),
            &format!("Johnson batch {bi} barrier"),
        )?;
        // Natural commit point: every row below the cursor is final.
        // The last batch is not committed — completion clears the
        // checkpoint, and a crash after it replays one batch (exact:
        // rows are recomputed from the graph).
        let next_row = chunk[0] as usize + chunk.len();
        // Invariant guard BEFORE the commit, so a committed snapshot is
        // never taken across undetected corruption.
        let completed: Vec<usize> = (0..next_row).collect();
        guard.check_completed_rows(store, bi, &completed)?;
        if let Some(ck) = ckpt {
            if next_row < n {
                ck.commit(
                    store,
                    &Progress::Johnson {
                        batch_size: bat,
                        next_row,
                    },
                )?;
                *commits += 1;
            }
        }
    }
    drop(graph_hold);
    let sim_seconds = dev.synchronize().seconds() - start;
    Ok(JohnsonRunStats {
        batch_size: bat,
        num_batches,
        dynamic_parallelism: dynamic,
        work,
        sim_seconds,
        retries: 0,
        checkpoint_commits: 0,
        sdc_panel_recoveries: 0,
        sdc_round_recoveries: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile_store::{StorageBackend, StoreFaultPlan};
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, rmat, RmatParams, WeightRange};

    /// Both entry points' driver, under an unarmed supervisor.
    fn unarmed(
        dev: &mut GpuDevice,
        g: &CsrGraph,
        store: &mut TileStore,
        opts: &JohnsonOptions,
        ckpt: Option<&Checkpoint>,
    ) -> Result<JohnsonRunStats, ApspError> {
        run(dev, g, store, opts, ckpt, &Supervisor::unarmed())
    }

    fn run_johnson(
        g: &CsrGraph,
        dev: &mut GpuDevice,
        opts: &JohnsonOptions,
    ) -> apsp_cpu::DistMatrix {
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let stats = unarmed(dev, g, &mut store, opts, None).unwrap();
        assert!(stats.num_batches >= 1);
        store.to_dist_matrix().unwrap()
    }

    #[test]
    fn matches_reference_multi_batch() {
        let g = gnp(150, 0.04, WeightRange::default(), 19);
        // Small device → several batches.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let result = run_johnson(&g, &mut dev, &JohnsonOptions::default());
        assert_eq!(result, bgl_plus_apsp(&g));
    }

    #[test]
    fn batch_size_formula_shrinks_with_edges() {
        let dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(4 << 20));
        let sparse = gnp(500, 0.01, WeightRange::default(), 1);
        let dense = gnp(500, 0.10, WeightRange::default(), 1);
        let b_sparse = batch_size(&dev, &sparse, 1.0).unwrap();
        let b_dense = batch_size(&dev, &dense, 1.0).unwrap();
        assert!(b_sparse > b_dense, "{b_sparse} vs {b_dense}");
    }

    #[test]
    fn batch_size_errors_when_graph_does_not_fit() {
        let dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 12));
        let g = gnp(1000, 0.05, WeightRange::default(), 3);
        assert!(batch_size(&dev, &g, 1.0).is_err());
    }

    #[test]
    fn dynamic_parallelism_policies() {
        let g = rmat(
            300,
            3000,
            RmatParams::scale_free(),
            WeightRange::default(),
            4,
        );
        let reference = bgl_plus_apsp(&g);
        for policy in [
            DynamicParallelism::Off,
            DynamicParallelism::On,
            DynamicParallelism::Auto,
        ] {
            let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
            let opts = JohnsonOptions {
                dynamic_parallelism: policy,
                heavy_degree_threshold: 16,
                ..Default::default()
            };
            let result = run_johnson(&g, &mut dev, &opts);
            assert_eq!(result, reference, "policy {policy:?}");
        }
    }

    #[test]
    fn overlap_reduces_sim_time() {
        let g = gnp(200, 0.05, WeightRange::default(), 8);
        let time_with = |overlap: bool| {
            let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
            let opts = JohnsonOptions {
                overlap_transfers: overlap,
                ..Default::default()
            };
            let mut store = TileStore::new(200, &StorageBackend::Memory).unwrap();
            unarmed(&mut dev, &g, &mut store, &opts, None)
                .unwrap()
                .sim_seconds
        };
        assert!(time_with(true) <= time_with(false));
    }

    #[test]
    fn stats_expose_batching() {
        let g = gnp(120, 0.05, WeightRange::default(), 12);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let mut store = TileStore::new(120, &StorageBackend::Memory).unwrap();
        let stats = unarmed(&mut dev, &g, &mut store, &JohnsonOptions::default(), None).unwrap();
        assert_eq!(stats.num_batches, 120usize.div_ceil(stats.batch_size));
        assert!(stats.work.total_relaxations() > 0);
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn parents_variant_streams_a_valid_predecessor_matrix() {
        use crate::paths::path_from_parent_store;
        let g = gnp(130, 0.05, WeightRange::new(1, 40), 31);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let mut dist_store = TileStore::new(130, &StorageBackend::Memory).unwrap();
        let mut parent_store = TileStore::new(130, &StorageBackend::Memory).unwrap();
        let stats = crate::ooc_johnson::ooc_johnson_with_parents(
            &mut dev,
            &g,
            &mut dist_store,
            &mut parent_store,
            &JohnsonOptions::default(),
        )
        .unwrap();
        assert!(stats.num_batches >= 1);
        // Distances unchanged by parent tracking.
        assert_eq!(dist_store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
        // Every finite pair reconstructs to a path whose weights sum to
        // the distance.
        for src in [0u32, 64, 129] {
            let row = dist_store.read_row(src as usize).unwrap();
            for dst in 0..130u32 {
                let d = row[dst as usize];
                let path = path_from_parent_store(&parent_store, src, dst).unwrap();
                if d >= apsp_graph::INF {
                    assert!(path.is_none(), "({src}, {dst}) unreachable but has a path");
                    continue;
                }
                let path = path.unwrap_or_else(|| panic!("({src}, {dst}) reachable, no path"));
                assert_eq!(path.first(), Some(&src));
                assert_eq!(path.last(), Some(&dst));
                let mut total = 0;
                for pair in path.windows(2) {
                    total += g.edge_weight(pair[0], pair[1]).expect("path edge exists");
                }
                assert_eq!(total, d, "({src}, {dst})");
            }
        }
        // The parents traffic doubles the D2H volume.
        let r = dev.report();
        assert!(r.bytes_d2h >= 2 * (130 * 130 * 4) as u64);
    }

    #[test]
    fn transient_alloc_fault_recovers_exactly() {
        let g = gnp(150, 0.04, WeightRange::default(), 19);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        // Allocation 1 is the graph hold, allocation 2 the first result
        // panel: fail the panel, expect one restart and an exact matrix.
        dev.inject_alloc_failure(2);
        let stats = unarmed(&mut dev, &g, &mut store, &JohnsonOptions::default(), None).unwrap();
        assert_eq!(stats.retries, 1);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn repeated_alloc_faults_halve_batch_and_stay_exact() {
        let g = gnp(150, 0.04, WeightRange::default(), 20);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let opts = JohnsonOptions::default();
        let initial_bat = batch_size(&dev, &g, opts.queue_words_per_edge).unwrap();
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        // Attempt 1 dies at its 2nd allocation; the leftover countdown
        // (4 − 2 = 2) kills the same-bat retry at its 2nd allocation too,
        // forcing a halved batch.
        dev.inject_alloc_failure(2);
        dev.inject_alloc_failure(4);
        let stats = unarmed(&mut dev, &g, &mut store, &opts, None).unwrap();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.batch_size, initial_bat / 2);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join("apsp_ooc_johnson_ckpt")
            .join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpointed_clean_run_commits_per_batch_and_clears() {
        let g = gnp(150, 0.04, WeightRange::default(), 19);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(ckpt_dir("clean"), &g).unwrap();
        let stats = unarmed(
            &mut dev,
            &g,
            &mut store,
            &JohnsonOptions::default(),
            Some(&ckpt),
        )
        .unwrap();
        assert!(stats.num_batches >= 2, "want a multi-batch run");
        assert_eq!(stats.checkpoint_commits as usize, stats.num_batches - 1);
        assert!(ckpt.load().unwrap().is_none(), "cleared on completion");
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn interrupted_run_resumes_skipping_committed_rows() {
        let g = gnp(150, 0.04, WeightRange::default(), 25);
        let dir = ckpt_dir("resume");
        // 256 KiB → several batches of well under 150 sources.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        // Batch writes tick 1 op, commits tick n = 150: op 200 lands in
        // the second commit, after the first one is durable.
        store.arm_faults(StoreFaultPlan::crash_after(200));
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let err = unarmed(
            &mut dev,
            &g,
            &mut store,
            &JohnsonOptions::default(),
            Some(&ckpt),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Storage);
        drop(store);
        let probe = Checkpoint::new(&dir, &g).unwrap();
        let m = probe.load().unwrap().expect("some batch committed");
        let crate::checkpoint::Progress::Johnson { next_row, .. } = m.progress else {
            panic!("wrong progress variant {:?}", m.progress);
        };
        assert!(next_row > 0 && next_row < 150);

        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let stats = unarmed(
            &mut dev,
            &g,
            &mut store,
            &JohnsonOptions::default(),
            Some(&ckpt),
        )
        .unwrap();
        // The resumed run only recomputed the uncommitted tail.
        assert!(stats.num_batches < 150usize.div_ceil(stats.batch_size) + 1);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
        assert!(ckpt.load().unwrap().is_none());
    }

    #[test]
    fn injected_flips_recover_bit_identical() {
        use crate::options::SdcGuardMode;
        let g = gnp(150, 0.04, WeightRange::default(), 19);
        let reference = bgl_plus_apsp(&g);
        // Johnson writes exactly one op per source row (150 total), so
        // these ordinals land in the first, middle, and final batches.
        for (after_ops, bit) in [(30u64, 11u64), (90, 3), (145, 25)] {
            let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
            let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
            store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            store.arm_faults(StoreFaultPlan::bit_flip(after_ops, bit));
            let opts = JohnsonOptions {
                sdc_guard: SdcGuardMode::Checksum,
                ..Default::default()
            };
            let stats = unarmed(&mut dev, &g, &mut store, &opts, None).unwrap();
            assert!(
                stats.sdc_panel_recoveries + stats.sdc_round_recoveries >= 1,
                "flip after {after_ops} ops went unnoticed"
            );
            assert_eq!(
                store.to_dist_matrix().unwrap(),
                reference,
                "flip after {after_ops} ops"
            );
        }
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_typed() {
        use crate::options::SdcGuardMode;
        use crate::supervisor::{RetryPolicy, SupervisionOptions};
        let g = gnp(150, 0.04, WeightRange::default(), 19);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        store.arm_faults(StoreFaultPlan::bit_flip(60, 9));
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
        let opts = JohnsonOptions {
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        let err = ooc_johnson_supervised(&mut dev, &g, &mut store, &opts, &sup).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::SilentCorruption, "{err}");
    }

    #[test]
    fn partial_sources_match_dijkstra_rows() {
        let g = gnp(140, 0.05, WeightRange::default(), 23);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let sources: Vec<VertexId> = vec![7, 0, 99, 42, 139, 42];
        let (rows, stats) = ooc_johnson_sources(
            &mut dev,
            &g,
            &sources,
            &JohnsonOptions::default(),
            &Supervisor::unarmed(),
        )
        .unwrap();
        assert_eq!(rows.len(), sources.len() * 140);
        assert!(stats.num_batches >= 1);
        for (i, &s) in sources.iter().enumerate() {
            let want = apsp_cpu::dijkstra_sssp(&g, s);
            assert_eq!(&rows[i * 140..(i + 1) * 140], &want[..], "source {s}");
        }
    }

    #[test]
    fn partial_sources_move_k_by_n_not_n_squared() {
        let n = 300;
        let g = gnp(n, 0.03, WeightRange::default(), 5);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let sources: Vec<VertexId> = vec![1, 50, 200];
        ooc_johnson_sources(
            &mut dev,
            &g,
            &sources,
            &JohnsonOptions::default(),
            &Supervisor::unarmed(),
        )
        .unwrap();
        let d2h = dev.report().bytes_d2h;
        let k_n = (sources.len() * n * std::mem::size_of::<Dist>()) as u64;
        let n_sq = (n * n * std::mem::size_of::<Dist>()) as u64;
        assert!(d2h >= k_n, "panel must come down: {d2h} < {k_n}");
        assert!(d2h < n_sq / 4, "partial query paid near-n² traffic: {d2h}");
    }

    #[test]
    fn partial_sources_recover_from_transient_alloc_fault() {
        let g = gnp(150, 0.04, WeightRange::default(), 19);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let sources: Vec<VertexId> = (0..40).collect();
        // Allocation 1 is the graph hold, 2 the first panel.
        dev.inject_alloc_failure(2);
        let (rows, stats) = ooc_johnson_sources(
            &mut dev,
            &g,
            &sources,
            &JohnsonOptions::default(),
            &Supervisor::unarmed(),
        )
        .unwrap();
        assert_eq!(stats.retries, 1);
        for (i, &s) in sources.iter().enumerate() {
            let want = apsp_cpu::dijkstra_sssp(&g, s);
            assert_eq!(&rows[i * 150..(i + 1) * 150], &want[..], "source {s}");
        }
    }

    #[test]
    fn partial_sources_reject_out_of_range() {
        let g = gnp(50, 0.1, WeightRange::default(), 2);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let err = ooc_johnson_sources(
            &mut dev,
            &g,
            &[3, 50],
            &JohnsonOptions::default(),
            &Supervisor::unarmed(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput);
    }

    #[test]
    fn partial_sources_empty_inputs() {
        let g = gnp(30, 0.1, WeightRange::default(), 2);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let (rows, stats) = ooc_johnson_sources(
            &mut dev,
            &g,
            &[],
            &JohnsonOptions::default(),
            &Supervisor::unarmed(),
        )
        .unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.num_batches, 0);
    }

    #[test]
    fn single_batch_on_big_device() {
        let g = gnp(100, 0.05, WeightRange::default(), 14);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        let stats = unarmed(&mut dev, &g, &mut store, &JohnsonOptions::default(), None).unwrap();
        assert_eq!(stats.num_batches, 1);
        assert_eq!(stats.batch_size, 100);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }
}
