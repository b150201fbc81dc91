//! Result verification: independent spot-checking of a computed APSP
//! matrix against per-source Dijkstra.
//!
//! Full verification of an n×n result is itself an APSP computation, so
//! the practical tool is sampling: re-derive `sample` random rows with
//! the CPU reference and compare exactly. Used by `apsp-run --verify`
//! and the integration tests.

use crate::tile_store::TileStore;
use apsp_cpu::dijkstra_sssp;
use apsp_graph::{CsrGraph, VertexId};

/// Outcome of a sampled verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verification {
    /// Every sampled row matched exactly.
    Verified {
        /// Rows checked.
        rows_checked: usize,
    },
    /// A mismatch, with the first offending cell.
    Mismatch {
        /// Source row.
        row: usize,
        /// Column.
        col: usize,
        /// Value in the store.
        got: u32,
        /// Value Dijkstra derives.
        expected: u32,
    },
}

impl Verification {
    /// Whether verification passed.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verification::Verified { .. })
    }
}

/// Compare `sample` deterministic pseudo-random rows of `store` against
/// Dijkstra on `g`. `seed` fixes the row choice.
pub fn verify_rows(
    g: &CsrGraph,
    store: &TileStore,
    sample: usize,
    seed: u64,
) -> std::io::Result<Verification> {
    let n = g.num_vertices();
    assert_eq!(store.n(), n, "store dimension mismatch");
    if n == 0 {
        return Ok(Verification::Verified { rows_checked: 0 });
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    // `sample >= n` means exhaustive: check every row exactly once.
    let rows: Vec<usize> = if sample >= n {
        (0..n).collect()
    } else {
        (0..sample).map(|_| next()).collect()
    };
    let mut checked = std::collections::BTreeSet::new();
    for row in rows {
        if !checked.insert(row) {
            continue;
        }
        let got = store.read_row(row)?;
        let expected = dijkstra_sssp(g, row as VertexId);
        if let Some(col) = (0..n).find(|&j| got[j] != expected[j]) {
            return Ok(Verification::Mismatch {
                row,
                col,
                got: got[col],
                expected: expected[col],
            });
        }
    }
    Ok(Verification::Verified {
        rows_checked: checked.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Algorithm, ApspOptions};
    use crate::{apsp, StorageBackend};
    use apsp_gpu_sim::{DeviceProfile, GpuDevice};
    use apsp_graph::generators::{gnp, WeightRange};

    #[test]
    fn verifies_a_correct_result() {
        let g = gnp(100, 0.05, WeightRange::default(), 3);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let opts = ApspOptions {
            algorithm: Some(Algorithm::Johnson),
            storage: StorageBackend::Memory,
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        let v = verify_rows(&g, &result.store, 10, 42).unwrap();
        assert!(v.is_verified(), "{v:?}");
        match v {
            Verification::Verified { rows_checked } => assert!(rows_checked >= 5),
            _ => unreachable!(),
        }
    }

    #[test]
    fn catches_a_corrupted_cell() {
        let g = gnp(60, 0.08, WeightRange::default(), 7);
        let mut store = TileStore::new(60, &StorageBackend::Memory).unwrap();
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let sup = crate::supervisor::Supervisor::unarmed();
        crate::ooc_fw::ooc_floyd_warshall_guarded(
            &mut dev,
            &g,
            &mut store,
            &Default::default(),
            &sup,
        )
        .unwrap();
        // Corrupt one cell on a row the sampler will visit (sample = n
        // covers all rows).
        let mut row = store.read_row(30).unwrap();
        row[12] = row[12].wrapping_add(1);
        store.write_row(30, &row).unwrap();
        let v = verify_rows(&g, &store, 60, 1).unwrap();
        match v {
            Verification::Mismatch { row, .. } => assert_eq!(row, 30),
            other => panic!("corruption not caught: {other:?}"),
        }
    }

    #[test]
    fn empty_graph_is_vacuously_verified() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let store = TileStore::new(0, &StorageBackend::Memory).unwrap();
        assert!(verify_rows(&g, &store, 5, 9).unwrap().is_verified());
    }
}
