//! In-core (blocked) Floyd-Warshall — the SuperFW analog and the dense
//! reference the out-of-core variants are checked against.

use crate::dense::DistMatrix;
use crate::parallel::{
    branchless_add, par_bands_weighted, relax_row_branchless, ExecBackend, SharedSliceMut,
};
use apsp_graph::{dist_add, Dist};
use rayon::prelude::*;

/// Textbook Floyd-Warshall, `O(n³)`, in place.
pub fn floyd_warshall(m: &mut DistMatrix) {
    let n = m.n();
    let data = m.as_mut_slice();
    for k in 0..n {
        for i in 0..n {
            // Row k relaxed against itself is a no-op (dist_add(dik, dkj)
            // >= dkj with dkk >= 0), so skip it before touching the data —
            // one intentional skip, not a side effect of the INF guard.
            if i == k {
                continue;
            }
            let dik = data[i * n + k];
            if dik >= apsp_graph::INF {
                continue;
            }
            // Split borrows: row k is read, row i is written.
            let (row_k_start, row_i_start) = (k * n, i * n);
            let (lo, hi) = if row_k_start < row_i_start {
                let (a, b) = data.split_at_mut(row_i_start);
                (&a[row_k_start..row_k_start + n], &mut b[..n])
            } else {
                let (a, b) = data.split_at_mut(row_k_start);
                let row_i = &mut a[row_i_start..row_i_start + n];
                (&b[..n], row_i)
            };
            let (row_k, row_i): (&[Dist], &mut [Dist]) = (lo, hi);
            for j in 0..n {
                let via = dist_add(dik, row_k[j]);
                if via < row_i[j] {
                    row_i[j] = via;
                }
            }
        }
    }
}

/// Min-plus update of one tile: `C[i][j] = min(C[i][j], A[i][k] + B[k][j])`
/// over the given rectangular extents, where each operand is a sub-matrix
/// of a row-major buffer with its own origin and row stride.
///
/// Safe in-place aliasing (C overlapping A or B) is permitted in the
/// blocked-FW stage ordering; the loop order (i, k, j) reads entries that
/// the same round may update, which is exactly the (correct) behaviour of
/// in-place Floyd-Warshall.
#[allow(clippy::too_many_arguments)]
pub fn minplus_tile(
    c: &mut [Dist],
    c_stride: usize,
    a: &[Dist],
    a_stride: usize,
    b: &[Dist],
    b_stride: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for k in 0..inner {
            let aik = a[i * a_stride + k];
            if aik >= apsp_graph::INF {
                continue;
            }
            let b_row = &b[k * b_stride..k * b_stride + cols];
            let c_row = &mut c[i * c_stride..i * c_stride + cols];
            for j in 0..cols {
                let via = dist_add(aik, b_row[j]);
                if via < c_row[j] {
                    c_row[j] = via;
                }
            }
        }
    }
}

/// Blocked Floyd-Warshall under `exec`: `num_b × num_b` tiles of side
/// `b`, three stages per round (diagonal, pivot row+column, remainder),
/// with the remainder stage parallelized across tiles — the structure
/// SuperFW and the GPU versions share.
///
/// The Parallel backend bands stage 2 and stage 3 across threads with
/// branchless inner loops; both are bit-identical to the scalar stages
/// because with a fixed pivot order each stage-2 tile depends only on
/// itself plus the (finalized, unwritten) diagonal tile, and each
/// stage-3 tile depends only on itself plus the stage-2 pivot row and
/// column panels — so tile results cannot observe each other.
pub fn blocked_floyd_warshall_exec(m: &mut DistMatrix, block: usize, exec: ExecBackend) {
    let n = m.n();
    if n == 0 {
        return;
    }
    let block = block.max(1).min(n);
    let num_b = n.div_ceil(block);
    if num_b == 1 {
        crate::parallel::floyd_warshall_exec(m, exec);
        return;
    }
    let backend = exec.resolve();
    let threads = backend.threads();
    let extent = |b_idx: usize| -> (usize, usize) {
        let start = b_idx * block;
        (start, (start + block).min(n) - start)
    };
    for kb in 0..num_b {
        let (ks, kl) = extent(kb);
        // Stage 1: diagonal tile — plain FW restricted to the tile.
        if exec.is_scalar() {
            fw_tile(m.as_mut_slice(), n, ks, kl);
        } else {
            fw_tile_branchless(m.as_mut_slice(), n, ks, kl);
        }
        // Stage 2: pivot row and pivot column tiles. Each `ib` updates
        // tiles (kb, ib) and (ib, kb) in place, reading only those tiles
        // and the diagonal tile (which stage 2 never writes), so distinct
        // `ib` are independent and can band across threads.
        if exec.is_scalar() || threads <= 1 {
            for ib in 0..num_b {
                if ib == kb {
                    continue;
                }
                let (is, il) = extent(ib);
                let data = m.as_mut_slice();
                if exec.is_scalar() {
                    // A(k, i) = min(A(k, i), A(k, k) ⊗ A(k, i)) — in-place
                    // on the B operand, the standard blocked-FW idiom.
                    minplus_tile_raw(data, n, ks * n + is, ks * n + ks, ks * n + is, kl, kl, il);
                    // A(i, k) = min(A(i, k), A(i, k) ⊗ A(k, k)) — in-place on A.
                    minplus_tile_raw(data, n, is * n + ks, is * n + ks, ks * n + ks, il, kl, kl);
                } else {
                    minplus_tile_raw_branchless(
                        data,
                        n,
                        ks * n + is,
                        ks * n + ks,
                        ks * n + is,
                        kl,
                        kl,
                        il,
                    );
                    minplus_tile_raw_branchless(
                        data,
                        n,
                        is * n + ks,
                        is * n + ks,
                        ks * n + ks,
                        il,
                        kl,
                        kl,
                    );
                }
            }
        } else {
            let shared = SharedSliceMut::new(m.as_mut_slice());
            par_bands_weighted(num_b, threads, 1, 2 * kl * kl * block, |band| {
                for ib in band {
                    if ib == kb {
                        continue;
                    }
                    let (is, il) = extent(ib);
                    // SAFETY: tile pair (kb, ib)/(ib, kb) is written only
                    // by the band owning `ib`; shared reads touch only the
                    // diagonal tile, which no stage-2 writer modifies.
                    let data = unsafe { shared.slice() };
                    minplus_tile_raw_branchless(
                        data,
                        n,
                        ks * n + is,
                        ks * n + ks,
                        ks * n + is,
                        kl,
                        kl,
                        il,
                    );
                    minplus_tile_raw_branchless(
                        data,
                        n,
                        is * n + ks,
                        is * n + ks,
                        ks * n + ks,
                        il,
                        kl,
                        kl,
                    );
                }
            });
        }
        // Stage 3: remainder tiles — each (i, j) tile touches disjoint
        // output; reads go to the pivot row/column panels stage 2
        // finalized and stage 3 never writes (ib != kb, jb != kb).
        if exec.is_scalar() {
            let data_ptr = SendPtr(m.as_mut_slice().as_mut_ptr());
            (0..num_b)
                .into_par_iter()
                .filter(|&ib| ib != kb)
                .for_each(|ib| {
                    let (is, il) = extent(ib);
                    for jb in 0..num_b {
                        if jb == kb {
                            continue;
                        }
                        let (js, jl) = extent(jb);
                        // SAFETY: tiles (ib, jb) for distinct ib write
                        // disjoint row ranges; reads touch the pivot
                        // row/column tiles, which stage 2 finalized and
                        // stage 3 never writes (ib != kb, jb != kb).
                        let data = unsafe { std::slice::from_raw_parts_mut(data_ptr.get(), n * n) };
                        let (a_base, b_base, c_base) = (is * n + ks, ks * n + js, is * n + js);
                        minplus_tile_raw(data, n, c_base, a_base, b_base, il, kl, jl);
                    }
                });
        } else {
            let shared = SharedSliceMut::new(m.as_mut_slice());
            let backend = &*backend;
            let work = num_b.saturating_sub(1) * block * kl * block;
            par_bands_weighted(num_b, threads, 1, work, |band| {
                for ib in band {
                    if ib == kb {
                        continue;
                    }
                    let (is, il) = extent(ib);
                    // SAFETY: as in the scalar stage 3 — distinct ib bands
                    // write disjoint row ranges, shared reads are to the
                    // pivot panels stage 3 never writes (C tile disjoint
                    // from A and B because ib != kb and jb != kb).
                    let data = unsafe { shared.slice() };
                    for jb in 0..num_b {
                        if jb == kb {
                            continue;
                        }
                        let (js, jl) = extent(jb);
                        let (a_base, b_base, c_base) = (is * n + ks, ks * n + js, is * n + js);
                        unsafe {
                            backend.minplus_tile_raw_st(data, n, c_base, a_base, b_base, il, kl, jl)
                        };
                    }
                }
            });
        }
    }
}

/// Like [`minplus_tile`] but all three operands live in one row-major
/// buffer (base offsets + shared stride), with C disjoint from A and B.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minplus_tile_raw(
    data: &mut [Dist],
    stride: usize,
    c_base: usize,
    a_base: usize,
    b_base: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for k in 0..inner {
            let aik = data[a_base + i * stride + k];
            if aik >= apsp_graph::INF {
                continue;
            }
            for j in 0..cols {
                let via = dist_add(aik, data[b_base + k * stride + j]);
                let c = &mut data[c_base + i * stride + j];
                if via < *c {
                    *c = via;
                }
            }
        }
    }
}

/// Branchless variant of [`minplus_tile_raw`], element-wise identical
/// (same read/write order, [`branchless_add`] == `dist_add`, `min` ==
/// the guarded store), so it tolerates the same in-place aliasing the
/// stage-2 idiom relies on.
#[allow(clippy::too_many_arguments)]
fn minplus_tile_raw_branchless(
    data: &mut [Dist],
    stride: usize,
    c_base: usize,
    a_base: usize,
    b_base: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for k in 0..inner {
            let aik = data[a_base + i * stride + k];
            if aik >= apsp_graph::INF {
                continue;
            }
            for j in 0..cols {
                let via = branchless_add(aik, data[b_base + k * stride + j]);
                let c = &mut data[c_base + i * stride + j];
                *c = (*c).min(via);
            }
        }
    }
}

/// Branchless [`minplus_tile_raw`] for the stage-3 shape, where the C
/// tile is disjoint from A and B: rows materialize as split slices so
/// the inner loop vectorizes without the compiler having to prove
/// non-aliasing through one shared buffer.
///
/// Callers must guarantee the C tile overlaps neither the A nor the B
/// tile (stage 3 has `ib != kb` and `jb != kb`, which does exactly that).
#[allow(clippy::too_many_arguments)]
pub(crate) fn minplus_tile_raw_disjoint(
    data: &mut [Dist],
    stride: usize,
    c_base: usize,
    a_base: usize,
    b_base: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    let ptr = data.as_mut_ptr();
    for i in 0..rows {
        // SAFETY: the caller guarantees C is disjoint from A and B, so
        // this row never overlaps the element/row reads below.
        let c_row = unsafe { std::slice::from_raw_parts_mut(ptr.add(c_base + i * stride), cols) };
        for k in 0..inner {
            let aik = unsafe { *ptr.add(a_base + i * stride + k) };
            if aik >= apsp_graph::INF {
                continue;
            }
            let b_row = unsafe { std::slice::from_raw_parts(ptr.add(b_base + k * stride), cols) };
            relax_row_branchless(c_row, b_row, aik);
        }
    }
}

/// Branchless [`fw_tile`]: for a fixed pivot `k`, row `k` of the tile is
/// invariant (`i == k` skipped), so rows `i != k` relax against it with
/// the vectorizable row kernel — bit-identical to the scalar tile.
fn fw_tile_branchless(data: &mut [Dist], stride: usize, start: usize, len: usize) {
    let ptr = data.as_mut_ptr();
    for k in 0..len {
        for i in 0..len {
            if i == k {
                continue;
            }
            let dik = unsafe { *ptr.add((start + i) * stride + start + k) };
            if dik >= apsp_graph::INF {
                continue;
            }
            // SAFETY: rows i and k are distinct rows of the tile, so the
            // mutable and shared row views never overlap.
            let c_row = unsafe {
                std::slice::from_raw_parts_mut(ptr.add((start + i) * stride + start), len)
            };
            let b_row =
                unsafe { std::slice::from_raw_parts(ptr.add((start + k) * stride + start), len) };
            relax_row_branchless(c_row, b_row, dik);
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut Dist);

impl SendPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Send + Sync` wrapper, not the raw pointer field.
    fn get(self) -> *mut Dist {
        self.0
    }
}
// SAFETY: stage-3 tiles write disjoint regions (distinct ib ⇒ disjoint
// row ranges) and all shared reads are to tiles finalized in stage 2.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Floyd-Warshall restricted to the square tile at `(start, start)` of
/// side `len` within a row-major `stride × stride` buffer.
fn fw_tile(data: &mut [Dist], stride: usize, start: usize, len: usize) {
    for k in 0..len {
        for i in 0..len {
            if i == k {
                continue;
            }
            let dik = data[(start + i) * stride + (start + k)];
            if dik >= apsp_graph::INF {
                continue;
            }
            for j in 0..len {
                let via = dist_add(dik, data[(start + k) * stride + (start + j)]);
                let c = &mut data[(start + i) * stride + (start + j)];
                if via < *c {
                    *c = via;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgl_plus::bgl_plus_apsp;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};
    use apsp_graph::{GraphBuilder, INF};

    #[test]
    fn plain_fw_matches_dijkstra() {
        let g = gnp(60, 0.08, WeightRange::default(), 21);
        let mut m = DistMatrix::from_graph(&g);
        floyd_warshall(&mut m);
        assert_eq!(m, bgl_plus_apsp(&g));
    }

    #[test]
    fn blocked_matches_plain_various_blocks() {
        let g = gnp(53, 0.1, WeightRange::default(), 5); // prime n: ragged tiles
        let mut reference = DistMatrix::from_graph(&g);
        floyd_warshall(&mut reference);
        for block in [1, 7, 16, 53, 64] {
            let mut m = DistMatrix::from_graph(&g);
            blocked_floyd_warshall_exec(&mut m, block, ExecBackend::default());
            assert_eq!(m, reference, "block = {block}");
        }
    }

    #[test]
    fn blocked_on_grid() {
        let g = grid_2d(7, 8, GridOptions::default(), WeightRange::default(), 2);
        let mut m = DistMatrix::from_graph(&g);
        blocked_floyd_warshall_exec(&mut m, 13, ExecBackend::default());
        assert_eq!(m, bgl_plus_apsp(&g));
    }

    #[test]
    fn handles_unreachable_pairs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 3);
        let g = b.build();
        let mut m = DistMatrix::from_graph(&g);
        blocked_floyd_warshall_exec(&mut m, 2, ExecBackend::default());
        assert_eq!(m.get(0, 1), 2);
        assert_eq!(m.get(0, 2), INF);
        assert_eq!(m.get(3, 0), INF);
    }

    #[test]
    fn minplus_tile_basic() {
        // C (2×2) = min(C, A (2×2) ⊗ B (2×2)) with stride == cols.
        let a = vec![1, INF, INF, 1];
        let b = vec![5, 6, 7, 8];
        let mut c = vec![INF; 4];
        minplus_tile(&mut c, 2, &a, 2, &b, 2, 2, 2, 2);
        assert_eq!(c, vec![6, 7, 8, 9]);
    }

    #[test]
    fn blocked_exec_backends_bit_identical() {
        let g = gnp(53, 0.1, WeightRange::default(), 11); // prime n: ragged tiles
        for block in [7, 16, 53] {
            let mut scalar = DistMatrix::from_graph(&g);
            blocked_floyd_warshall_exec(&mut scalar, block, ExecBackend::Scalar);
            for exec in [
                ExecBackend::Parallel { threads: Some(1) },
                ExecBackend::Parallel { threads: Some(3) },
                ExecBackend::Simd { threads: Some(1) },
                ExecBackend::Simd { threads: Some(3) },
            ] {
                let mut fast = DistMatrix::from_graph(&g);
                blocked_floyd_warshall_exec(&mut fast, block, exec);
                assert_eq!(fast, scalar, "block {block}, {exec}");
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let mut m = DistMatrix::new(0);
        blocked_floyd_warshall_exec(&mut m, 8, ExecBackend::default());
        assert_eq!(m.n(), 0);
    }

    #[test]
    fn zero_weight_cycles() {
        let mut b = GraphBuilder::new(3).symmetric(true);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        let g = b.build();
        let mut m = DistMatrix::from_graph(&g);
        blocked_floyd_warshall_exec(&mut m, 2, ExecBackend::default());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), 0);
            }
        }
    }
}
