//! `bench_multi` — the multi-device makespan curve.
//!
//! ```text
//! bench_multi [options]
//!
//!   --smoke        reduced graph size + the same gates (CI's multi-device job)
//!   --out <path>   where to write the JSON report
//!                  (default BENCH_multi.json in the current directory)
//!   --sizes <a,b,...>   homogeneous fleet sizes to sweep (default from
//!                  APSP_FLEET_SIZES, else 1,2,4,8)
//!   --n <vertices> grid side is derived from this vertex budget
//! ```
//!
//! Sweeps the sharded boundary executor over homogeneous V100 fleets of
//! increasing size plus two heterogeneous V100/K80 mixes, on one fixed
//! partition (`k = max(sizes)`, at least 8) so every run schedules the
//! same components and only the fleet varies. Records the simulated
//! makespan, per-phase seconds, work-stealing migrations, and a
//! checksum of the result matrix per fleet (the tile store's row digest
//! over the whole matrix).
//!
//! Two gates, exit 1 on violation:
//!
//! * every fleet's matrix is bit-identical (equal checksums);
//! * the homogeneous makespan curve never rises as devices are added.

use apsp_core::options::BoundaryOptions;
use apsp_core::tile_store::row_digest;
use apsp_core::{
    ooc_boundary_multi_supervised, MultiGpuStats, StorageBackend, Supervisor, TileStore,
};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};
use apsp_graph::{CsrGraph, Dist};
use std::time::Instant;

fn checksum(values: &[Dist]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    row_digest(&bytes)
}

struct FleetCase {
    label: String,
    profiles: Vec<DeviceProfile>,
    homogeneous: bool,
}

struct FleetRow {
    label: String,
    devices: usize,
    stats: MultiGpuStats,
    checksum: u64,
    wall_secs: f64,
    homogeneous: bool,
}

fn run_fleet(g: &CsrGraph, case: &FleetCase, opts: &BoundaryOptions) -> FleetRow {
    let mut devs: Vec<GpuDevice> = case
        .profiles
        .iter()
        .map(|p| GpuDevice::new(p.clone()))
        .collect();
    let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).expect("host store");
    let wall = Instant::now();
    let stats =
        ooc_boundary_multi_supervised(&mut devs, g, &mut store, opts, &Supervisor::unarmed())
            .unwrap_or_else(|e| panic!("fleet {} failed: {e}", case.label));
    let wall_secs = wall.elapsed().as_secs_f64();
    let matrix = store.to_dist_matrix().expect("store readback");
    FleetRow {
        label: case.label.clone(),
        devices: case.profiles.len(),
        stats,
        checksum: checksum(matrix.as_slice()),
        wall_secs,
        homogeneous: case.homogeneous,
    }
}

fn main() {
    let mut out = "BENCH_multi.json".to_string();
    let mut smoke = false;
    let mut sizes_spec: Option<String> = None;
    let mut n_budget: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out needs a value"),
            "--sizes" => sizes_spec = Some(it.next().expect("--sizes needs a value")),
            "--n" => {
                n_budget = Some(
                    it.next()
                        .expect("--n needs a value")
                        .parse()
                        .expect("bad --n"),
                )
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                eprintln!(
                    "usage: bench_multi [--smoke] [--out path] [--sizes a,b,...] [--n vertices]"
                );
                std::process::exit(2);
            }
        }
    }
    let sizes_spec = sizes_spec
        .or_else(|| std::env::var("APSP_FLEET_SIZES").ok())
        .unwrap_or_else(|| "1,2,4,8".to_string());
    let sizes: Vec<usize> = sizes_spec
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&c| c >= 1)
        .collect();
    assert!(!sizes.is_empty(), "no fleet sizes in {sizes_spec:?}");

    // A grid keeps component boundaries small, so the partition stays
    // feasible on modest simulated devices at every k.
    let side = (n_budget.unwrap_or(if smoke { 196 } else { 576 }) as f64)
        .sqrt()
        .round() as usize;
    let g = grid_2d(
        side,
        side,
        GridOptions::default(),
        WeightRange::default(),
        0xB41C,
    );
    // Fix the partition across the whole sweep: with k free, the
    // executor raises it to the device count, and a finer partition has
    // more boundary work — which would confound the scaling curve.
    let k = sizes.iter().copied().max().unwrap_or(1).max(8);
    let opts = BoundaryOptions {
        num_components: Some(k),
        ..Default::default()
    };
    println!(
        "bench_multi: {}×{side} grid (n = {}), k = {k}, sizes {sizes:?}{}",
        side,
        g.num_vertices(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut cases: Vec<FleetCase> = sizes
        .iter()
        .map(|&c| FleetCase {
            label: format!("v100 x{c}"),
            profiles: vec![DeviceProfile::v100(); c],
            homogeneous: true,
        })
        .collect();
    cases.push(FleetCase {
        label: "v100+k80".into(),
        profiles: vec![DeviceProfile::v100(), DeviceProfile::k80()],
        homogeneous: false,
    });
    cases.push(FleetCase {
        label: "v100+k80 x2".into(),
        profiles: vec![
            DeviceProfile::v100(),
            DeviceProfile::k80(),
            DeviceProfile::v100(),
            DeviceProfile::k80(),
        ],
        homogeneous: false,
    });

    let rows: Vec<FleetRow> = cases.iter().map(|c| run_fleet(&g, c, &opts)).collect();
    for r in &rows {
        println!(
            "  {:<12} {} device(s): makespan {:.6} s (dist2 {:.6} / dist3 {:.6} / dist4 {:.6}), \
             {} stolen, wall {:.3} s, checksum {:#018x}",
            r.label,
            r.devices,
            r.stats.sim_seconds,
            r.stats.phase_seconds[0],
            r.stats.phase_seconds[1],
            r.stats.phase_seconds[2],
            r.stats.stolen_panels,
            r.wall_secs,
            r.checksum,
        );
    }

    let mut failed = false;
    let reference = rows[0].checksum;
    if rows.iter().any(|r| r.checksum != reference) {
        eprintln!("GATE FAILED: fleets disagree on the result matrix");
        failed = true;
    }
    let homogeneous: Vec<&FleetRow> = rows.iter().filter(|r| r.homogeneous).collect();
    for pair in homogeneous.windows(2) {
        if pair[1].stats.sim_seconds > pair[0].stats.sim_seconds * (1.0 + 1e-9) {
            eprintln!(
                "GATE FAILED: makespan rose from {} ({:.6} s) to {} ({:.6} s)",
                pair[0].label, pair[0].stats.sim_seconds, pair[1].label, pair[1].stats.sim_seconds
            );
            failed = true;
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"bench_multi\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"n\": {},\n", g.num_vertices()));
    json.push_str(&format!("  \"num_components\": {k},\n"));
    json.push_str(&format!(
        "  \"sizes\": [{}],\n",
        sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"fleets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fleet\": \"{}\", \"devices\": {}, \"homogeneous\": {}, \
             \"makespan_s\": {:.9}, \"dist2_s\": {:.9}, \"dist3_s\": {:.9}, \
             \"dist4_s\": {:.9}, \"stolen_panels\": {}, \"num_components\": {}, \
             \"wall_secs\": {:.6}, \"checksum\": \"{:#018x}\", \"bit_identical\": {}}}{}\n",
            r.label,
            r.devices,
            r.homogeneous,
            r.stats.sim_seconds,
            r.stats.phase_seconds[0],
            r.stats.phase_seconds[1],
            r.stats.phase_seconds[2],
            r.stats.stolen_panels,
            r.stats.num_components,
            r.wall_secs,
            r.checksum,
            r.checksum == reference,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("report written to {out}");
    if failed {
        std::process::exit(1);
    }
}
