//! Fig 5 and Table V: behaviour on graphs whose output exceeds host RAM,
//! and R-MAT scaling.

use crate::experiments::label;
use crate::{
    build_analogs, fmt_secs, scale_or, scaled_johnson, scaled_k80, scaled_selector, scaled_v100,
    Table,
};
use apsp_core::ooc_johnson::ooc_johnson_supervised;
use apsp_core::{apsp, ApspOptions, StorageBackend, Supervisor, TileStore};
use apsp_gpu_sim::GpuDevice;
use apsp_graph::generators::{rmat, RmatParams, WeightRange};
use apsp_graph::suite::TABLE4;

/// Fig 5: execution times on the Table IV analogs with a disk-backed
/// result store (the "output does not fit in CPU memory" regime). The
/// paper's point is that the out-of-core implementations complete where
/// nothing else can.
pub fn fig5() {
    let scale = scale_or(96);
    println!("== Fig 5: large graphs, disk-spilled output (scale 1/{scale}) ==");
    let profile = scaled_v100(scale);
    let spill_dir = std::env::temp_dir().join("apsp-repro-fig5");
    let mut t = Table::new(vec!["graph", "algorithm", "sim time", "store"]);
    for run in build_analogs(&TABLE4.iter().collect::<Vec<_>>(), scale) {
        // Memory scales 1/s² but the CSR input only 1/s, so at deep scale
        // the edge-heaviest analogs outgrow the scaled capacity even
        // though the paper's inputs trivially fit the real 16 GB. Floor
        // the capacity at a few × the input so the experiment's actual
        // subject — output ≫ device ≫ nothing-fits-host — is preserved.
        let input_floor = 4 * (run.graph.storage_bytes() as u64);
        let dev_profile = profile.with_memory_bytes(profile.memory_bytes.max(input_floor));
        let mut dev = GpuDevice::new(dev_profile);
        let opts = ApspOptions {
            storage: StorageBackend::Disk(spill_dir.clone()),
            johnson: scaled_johnson(scale),
            selector: scaled_selector(scale),
            ..Default::default()
        };
        match apsp(&run.graph, &mut dev, &opts) {
            Ok(result) => {
                t.row(vec![
                    label(&run),
                    result.algorithm.to_string(),
                    fmt_secs(result.sim_seconds),
                    if result.store.is_disk_backed() {
                        "disk".to_string()
                    } else {
                        "ram".to_string()
                    },
                ]);
            }
            Err(e) => t.row(vec![label(&run), "-".into(), format!("{e}"), "-".into()]),
        }
    }
    t.print();
    println!();
}

/// Table V: R-MAT scaling on both device profiles; the paper's efficiency
/// statistic `n·m/s` should stay roughly flat as sizes grow (data
/// movement does not take over).
pub fn table5() {
    let scale = scale_or(32);
    println!("== Table V: R-MAT scaling, V100 vs K80 (scale 1/{scale}) ==");
    println!("paper claim: n*m/s stays roughly stable as size doubles");
    // Paper sweep: 10K..320K vertices, in-degree distribution fixed.
    let paper_sizes = [10_000usize, 20_000, 40_000, 80_000, 160_000, 320_000];
    let avg_deg = 16usize;
    let mut t = Table::new(vec![
        "paper n",
        "analog n",
        "analog m",
        "V100 time",
        "V100 n*m/s",
        "K80 time",
        "K80 n*m/s",
    ]);
    for paper_n in paper_sizes {
        let n = (paper_n / scale).max(64);
        let m = n * avg_deg;
        let g = rmat(
            n,
            m,
            RmatParams::scale_free(),
            WeightRange::default(),
            0x7AB1E5 ^ n as u64,
        );
        let mut row = vec![
            paper_n.to_string(),
            n.to_string(),
            g.num_edges().to_string(),
        ];
        for (base, profile) in [
            (apsp_gpu_sim::DeviceProfile::v100(), scaled_v100(scale)),
            (apsp_gpu_sim::DeviceProfile::k80(), scaled_k80(scale)),
        ] {
            let mut dev = GpuDevice::new(profile);
            let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
            match ooc_johnson_supervised(
                &mut dev,
                &g,
                &mut store,
                &crate::scaled_johnson_for(&base, scale),
                &Supervisor::unarmed(),
            ) {
                Ok(stats) => {
                    let nm_per_s = (n as f64) * (g.num_edges() as f64) / stats.sim_seconds;
                    row.push(fmt_secs(stats.sim_seconds));
                    row.push(format!("{:.2e}", nm_per_s));
                }
                Err(e) => {
                    row.push(format!("{e}"));
                    row.push("-".into());
                }
            }
        }
        t.row(row);
    }
    t.print();
    println!();
}
