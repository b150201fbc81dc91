//! Road-network scenario: the boundary algorithm on a small-separator
//! graph, with the paper's transfer optimizations toggled.
//!
//! ```text
//! cargo run --release --example road_network
//! ```
//!
//! Road networks (the paper's `usroads`, `luxembourg_osm`, census
//! graphs) partition with few boundary nodes, which is exactly the case
//! the boundary algorithm dominates. This example builds a road-like
//! random geometric graph, partitions it, runs the boundary algorithm
//! with each optimization combination, and prints the simulated-time
//! breakdown.

use apsp::core::ooc_boundary::{default_num_components, ooc_boundary_supervised};
use apsp::core::options::BoundaryOptions;
use apsp::core::{StorageBackend, Supervisor, TileStore};
use apsp::cpu::dijkstra_sssp;
use apsp::gpu_sim::{DeviceProfile, GpuDevice};
use apsp::graph::generators::{ensure_connected, grid_2d, GridOptions, WeightRange};
use apsp::partition::{kway_partition, PartitionConfig};

fn main() {
    // ~2500 junctions: a 50×50 street grid with a quarter of the
    // segments removed — planar, connected, average degree ≈ 3, the
    // structure real road networks have.
    let n = 2500;
    let graph = ensure_connected(
        &grid_2d(
            50,
            50,
            GridOptions {
                diagonals: false,
                deletion_prob: 0.25,
            },
            WeightRange::new(1, 100),
            7,
        ),
        WeightRange::new(1, 100),
        7,
    );
    println!(
        "road network: {} junctions, {} segments",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Partition quality: the property the boundary algorithm lives on.
    let k = default_num_components(n);
    let partition = kway_partition(&graph, k, &PartitionConfig::default());
    let nb = partition.num_boundary_nodes(&graph);
    let ideal = ((k * n) as f64).sqrt();
    println!(
        "partition: k = {k}, boundary nodes = {nb} (planar ideal √(k·n) ≈ {ideal:.0}) → {}",
        if (nb as f64) < 4.0 * ideal {
            "small separator ✓"
        } else {
            "large separator"
        }
    );

    // A scaled-down V100 so the out-of-core machinery engages.
    let profile = DeviceProfile::v100().scaled_for_reproduction(48);
    let mut reference_row = None;
    let mut last_trace = Vec::new();
    for (label, batch, overlap) in [
        ("naive (no batching, no overlap)", false, false),
        ("batched transfers", true, false),
        ("batched + overlapped", true, true),
    ] {
        let mut dev = GpuDevice::new(profile.clone());
        dev.enable_trace();
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            batch_transfers: batch,
            overlap_transfers: overlap,
            ..Default::default()
        };
        let sup = Supervisor::unarmed();
        let stats = ooc_boundary_supervised(&mut dev, &graph, &mut store, &opts, &sup)
            .expect("boundary run");
        let report = dev.report();
        println!(
            "{label:34} {:8.3} ms  (transfer fraction {:4.1}%, D2H calls {})",
            stats.sim_seconds * 1e3,
            report.transfer_fraction() * 100.0,
            report.transfers_d2h
        );
        // All variants must produce identical distances.
        let row0 = store.read_row(0).unwrap();
        match &reference_row {
            None => reference_row = Some(row0),
            Some(r) => assert_eq!(&row0, r, "optimization changed results!"),
        }
        last_trace = dev.trace().to_vec();
    }

    // And the distances themselves are right.
    let expect = dijkstra_sssp(&graph, 0);
    assert_eq!(reference_row.unwrap(), expect);
    println!("distances verified against Dijkstra ✓");

    // Device timeline of the fully optimized run: `d` bars on the d2h row
    // while the compute row is busy = the overlap doing its job.
    println!("\ndevice timeline (batched + overlapped):");
    print!("{}", apsp::gpu_sim::trace::render_gantt(&last_trace, 100));
}
