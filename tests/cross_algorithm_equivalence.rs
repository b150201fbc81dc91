//! Cross-crate equivalence: every APSP path in the suite — three
//! out-of-core GPU implementations and three CPU baselines — must produce
//! the same distance matrix on the same input.

use apsp::core::options::{Algorithm, ApspOptions};
use apsp::core::{apsp, StorageBackend};
use apsp::cpu::delta_stepping::{default_delta, galois_apsp};
use apsp::cpu::{bgl_plus_apsp, blocked_floyd_warshall_exec, DistMatrix, ExecBackend};
use apsp::gpu_sim::{DeviceProfile, GpuDevice};
use apsp::graph::generators::{
    banded, gnp, grid_2d, random_geometric, rmat, GridOptions, RmatParams, WeightRange,
};
use apsp::graph::CsrGraph;

fn workloads() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp", gnp(120, 0.05, WeightRange::new(1, 50), 101)),
        (
            "grid",
            grid_2d(11, 10, GridOptions::default(), WeightRange::new(1, 9), 102),
        ),
        (
            "geometric",
            random_geometric(150, 0.12, WeightRange::default(), 103),
        ),
        (
            "rmat",
            rmat(
                128,
                1024,
                RmatParams::scale_free(),
                WeightRange::default(),
                104,
            ),
        ),
        (
            "banded",
            banded(140, 9, 4, 0.2, WeightRange::default(), 105),
        ),
        // Disconnected input: INF handling end to end.
        (
            "sparse-disconnected",
            gnp(100, 0.01, WeightRange::default(), 106),
        ),
    ]
}

fn gpu_result(g: &CsrGraph, algorithm: Algorithm) -> DistMatrix {
    // Small device memory forces genuine out-of-core execution.
    let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: StorageBackend::Memory,
        ..Default::default()
    };
    apsp(g, &mut dev, &opts)
        .unwrap_or_else(|e| panic!("{algorithm} failed: {e}"))
        .store
        .to_dist_matrix()
        .unwrap()
}

#[test]
fn all_six_implementations_agree() {
    for (name, g) in workloads() {
        let reference = bgl_plus_apsp(&g);

        // CPU baselines.
        let mut fw = DistMatrix::from_graph(&g);
        blocked_floyd_warshall_exec(&mut fw, 32, ExecBackend::default());
        assert_eq!(fw, reference, "blocked FW vs Dijkstra on {name}");
        let galois = galois_apsp(&g, default_delta(&g));
        assert_eq!(galois, reference, "delta-stepping vs Dijkstra on {name}");

        // Out-of-core GPU implementations.
        for alg in [
            Algorithm::FloydWarshall,
            Algorithm::Johnson,
            Algorithm::Boundary,
        ] {
            let got = gpu_result(&g, alg);
            assert_eq!(got, reference, "{alg} vs Dijkstra on {name}");
        }
    }
}

#[test]
fn auto_selection_is_also_correct() {
    for (name, g) in workloads() {
        let reference = bgl_plus_apsp(&g);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let result = apsp(&g, &mut dev, &ApspOptions::default())
            .unwrap_or_else(|e| panic!("auto apsp failed on {name}: {e}"));
        assert_eq!(
            result.store.to_dist_matrix().unwrap(),
            reference,
            "auto ({}) on {name}",
            result.algorithm
        );
    }
}

#[test]
fn device_memory_never_exceeds_capacity() {
    for (name, g) in workloads() {
        for alg in [
            Algorithm::FloydWarshall,
            Algorithm::Johnson,
            Algorithm::Boundary,
        ] {
            let capacity = 256u64 << 10;
            let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(capacity));
            let opts = ApspOptions {
                algorithm: Some(alg),
                ..Default::default()
            };
            let result = apsp(&g, &mut dev, &opts).unwrap();
            assert!(
                result.report.peak_memory <= capacity,
                "{alg} on {name}: peak {} > capacity {capacity}",
                result.report.peak_memory
            );
        }
    }
}
