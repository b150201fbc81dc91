//! Direct timings of single layers: the min-plus backend, tile-store
//! row I/O, the checksum sweep and checkpoint commits. Each call goes
//! through the layer's public function, at the shape the workload's
//! own run realized.

use crate::{stats, timed};
use apsp_core::{Checkpoint, Progress, StorageBackend, TileStore};
use apsp_cpu::parallel::{floyd_warshall_exec, minplus_tile_exec};
use apsp_cpu::{DistMatrix, ExecBackend};
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use std::hint::black_box;

/// Repeat `f` until `budget_s` host seconds are spent and at least
/// `min_reps` calls ran; return each call's wall seconds.
pub fn repeat_for(budget_s: f64, min_reps: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        walls.push(f());
    }
    walls
}

/// Deterministic operand values in `1..=1000` (no `INF`, so every
/// relaxation is a real add-and-compare).
fn operand(len: usize, salt: u64) -> Vec<Dist> {
    let mut state = salt;
    (0..len)
        .map(|_| (crate::workload::splitmix64(&mut state) % 1000) as Dist + 1)
        .collect()
}

/// Billions of relaxations per second of one `b × b × b` min-plus tile
/// multiply through the backend (`minplus_tile_exec`).
pub fn minplus_grelax_s(b: usize, exec: ExecBackend, budget_s: f64) -> f64 {
    let a = operand(b * b, 1);
    let bm = operand(b * b, 2);
    let mut c = vec![INF; b * b];
    let walls = repeat_for(budget_s, 3, || {
        timed(|| minplus_tile_exec(&mut c, b, &a, b, &bm, b, b, b, b, exec)).1
    });
    black_box(&c);
    (b as f64).powi(3) / stats::median(&walls) / 1e9
}

/// Billions of relaxations per second of the in-place FW sweep on a
/// `b × b` diagonal block (`floyd_warshall_exec`), seeded with the
/// adjacency among the graph's first `b` vertices — the stage-1 work
/// of one blocked-FW round.
pub fn fw_tile_grelax_s(g: &CsrGraph, b: usize, exec: ExecBackend, budget_s: f64) -> f64 {
    let b = b.min(g.num_vertices());
    let mut block = vec![INF; b * b];
    for v in 0..b {
        block[v * b + v] = 0;
        for (u, w) in g.edges_from(v as VertexId) {
            let u = u as usize;
            if u < b && u != v {
                block[v * b + u] = block[v * b + u].min(w);
            }
        }
    }
    let walls = repeat_for(budget_s, 3, || {
        let mut m = DistMatrix::from_raw(b, block.clone());
        let wall = timed(|| floyd_warshall_exec(&mut m, exec)).1;
        black_box(&m);
        wall
    });
    (b as f64).powi(3) / stats::median(&walls) / 1e9
}

/// `(write MiB/s, read MiB/s)` of a full pass over an `n × n` store on
/// `backend`: `write_rows` in `r`-row panels, then `read_block` in
/// `r × r` tiles.
pub fn store_mib_s(
    n: usize,
    r: usize,
    backend: &StorageBackend,
    exec: ExecBackend,
    budget_s: f64,
) -> std::io::Result<(f64, f64)> {
    let r = r.clamp(1, n);
    let mut store = TileStore::new(n, backend)?;
    store.set_exec_backend(exec);
    let panel = operand(r * n, 3);
    let mib = (n * n * std::mem::size_of::<Dist>()) as f64 / (1u64 << 20) as f64;
    let mut err = None;
    let writes = repeat_for(budget_s / 2.0, 2, || {
        timed(|| {
            for start in (0..n).step_by(r) {
                let rows = r.min(n - start);
                if let Err(e) = store.write_rows(start, &panel[..rows * n]) {
                    err.get_or_insert(e);
                }
            }
        })
        .1
    });
    let reads = repeat_for(budget_s / 2.0, 2, || {
        timed(|| {
            for i in (0..n).step_by(r) {
                for j in (0..n).step_by(r) {
                    match store.read_block(i..(i + r).min(n), j..(j + r).min(n)) {
                        Ok(tile) => {
                            black_box(tile);
                        }
                        Err(e) => {
                            err.get_or_insert(e);
                        }
                    }
                }
            }
        })
        .1
    });
    match err {
        Some(e) => Err(e),
        None => Ok((mib / stats::median(&writes), mib / stats::median(&reads))),
    }
}

/// Median wall seconds of one full `verify_checksums` sweep of `store`
/// under the checksum guard (armed here if the run had it off).
pub fn verify_s(store: &mut TileStore, budget_s: f64) -> std::io::Result<f64> {
    if !store.sdc_guard().is_on() {
        store.set_sdc_guard(apsp_core::SdcGuardMode::Checksum)?;
    }
    let mut err = None;
    let walls = repeat_for(budget_s, 3, || {
        let (r, wall) = timed(|| store.verify_checksums());
        if let Err(e) = r {
            err.get_or_insert(e);
        }
        wall
    });
    match err {
        Some(e) => Err(e),
        None => Ok(stats::median(&walls)),
    }
}

/// Median wall seconds of one `Checkpoint::commit` of `store` into a
/// checkpoint bound to `g` in `dir`.
pub fn commit_s(
    g: &CsrGraph,
    store: &TileStore,
    progress: &Progress,
    dir: &std::path::Path,
    budget_s: f64,
) -> Result<f64, apsp_core::ApspError> {
    let ckpt = Checkpoint::new(dir, g)?;
    let mut err = None;
    let walls = repeat_for(budget_s, 3, || {
        let (r, wall) = timed(|| ckpt.commit(store, progress));
        if let Err(e) = r {
            err.get_or_insert(e);
        }
        wall
    });
    ckpt.clear()?;
    match err {
        Some(e) => Err(e),
        None => Ok(stats::median(&walls)),
    }
}
