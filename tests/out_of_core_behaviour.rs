//! Out-of-core behaviour under memory pressure and disk spill.

use apsp::core::ooc_fw::ooc_floyd_warshall_guarded;
use apsp::core::ooc_johnson::ooc_johnson_supervised;
use apsp::core::options::{Algorithm, ApspOptions, FwOptions, JohnsonOptions};
use apsp::core::{apsp, StorageBackend, Supervisor, TileStore};
use apsp::cpu::bgl_plus_apsp;
use apsp::gpu_sim::{DeviceProfile, GpuDevice};
use apsp::graph::generators::{gnp, random_geometric, WeightRange};

#[test]
fn shrinking_device_changes_blocking_not_results() {
    let g = gnp(120, 0.05, WeightRange::default(), 77);
    let reference = bgl_plus_apsp(&g);
    let mut last_n_d = 0;
    let mut seen_different_blockings = false;
    for mem_kib in [1024u64, 256, 96] {
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(mem_kib << 10));
        let mut store = TileStore::new(120, &StorageBackend::Memory).unwrap();
        let stats = ooc_floyd_warshall_guarded(
            &mut dev,
            &g,
            &mut store,
            &FwOptions::default(),
            &Supervisor::unarmed(),
        )
        .unwrap();
        assert_eq!(
            store.to_dist_matrix().unwrap(),
            reference,
            "mem {mem_kib} KiB"
        );
        if last_n_d != 0 && stats.n_d != last_n_d {
            seen_different_blockings = true;
        }
        last_n_d = stats.n_d;
    }
    assert!(seen_different_blockings, "memory sweep never changed n_d");
}

#[test]
fn johnson_batch_count_scales_with_memory() {
    let g = gnp(200, 0.04, WeightRange::default(), 5);
    let batches = |mem: u64| {
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(mem));
        let mut store = TileStore::new(200, &StorageBackend::Memory).unwrap();
        let opts = JohnsonOptions::default();
        ooc_johnson_supervised(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
            .unwrap()
            .num_batches
    };
    let big = batches(8 << 20);
    let small = batches(300 << 10);
    assert!(small > big, "small device {small} batches vs big {big}");
}

#[test]
fn disk_and_memory_stores_agree() {
    let g = random_geometric(180, 0.1, WeightRange::default(), 9);
    let dir = std::env::temp_dir().join("apsp_integration_disk");
    for alg in [
        Algorithm::FloydWarshall,
        Algorithm::Johnson,
        Algorithm::Boundary,
    ] {
        let run = |storage: StorageBackend| {
            let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
            let opts = ApspOptions {
                algorithm: Some(alg),
                storage,
                ..Default::default()
            };
            apsp(&g, &mut dev, &opts)
                .unwrap()
                .store
                .to_dist_matrix()
                .unwrap()
        };
        let in_ram = run(StorageBackend::Memory);
        let on_disk = run(StorageBackend::Disk(dir.clone()));
        assert_eq!(in_ram, on_disk, "{alg}");
    }
}

#[test]
fn simulated_time_increases_under_memory_pressure() {
    // Less device memory ⇒ more passes/transfers ⇒ more simulated time
    // for the O(n_d · n²)-traffic Floyd-Warshall.
    let g = gnp(150, 0.08, WeightRange::default(), 13);
    let time = |mem: u64| {
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(mem));
        let mut store = TileStore::new(150, &StorageBackend::Memory).unwrap();
        let opts = FwOptions::default();
        ooc_floyd_warshall_guarded(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
            .unwrap()
            .sim_seconds
    };
    let roomy = time(4 << 20);
    let tight = time(128 << 10);
    assert!(tight > roomy, "tight {tight} should exceed roomy {roomy}");
}

#[test]
fn profiler_reports_are_consistent() {
    let g = gnp(100, 0.06, WeightRange::default(), 21);
    let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
    let opts = ApspOptions {
        algorithm: Some(Algorithm::Johnson),
        ..Default::default()
    };
    let result = apsp(&g, &mut dev, &opts).unwrap();
    let r = &result.report;
    // The result matrix went over the link at least once.
    assert!(r.bytes_d2h as usize >= 100 * 100 * 4);
    // Engine busy times can never exceed the makespan.
    assert!(r.compute_busy <= r.elapsed + 1e-12);
    assert!(r.d2h_busy <= r.elapsed + 1e-12);
    assert!(r.h2d_busy <= r.elapsed + 1e-12);
    // Kernel seconds live on the compute engine.
    assert!((r.total_kernel_seconds() - r.compute_busy).abs() < 1e-9);
    assert!(r.transfer_fraction() > 0.0 && r.transfer_fraction() <= 1.0);
}

#[test]
fn k80_profile_is_slower_than_v100() {
    // The workload must saturate both devices, otherwise the V100's much
    // larger saturating block count makes a small batch look *slower*
    // there (a real phenomenon — big GPUs dislike small grids — but not
    // what this test is about).
    let g = gnp(400, 0.03, WeightRange::default(), 33);
    let time = |profile: DeviceProfile| {
        let mut dev = GpuDevice::new(profile.with_memory_bytes(16 << 20));
        let mut store = TileStore::new(400, &StorageBackend::Memory).unwrap();
        let opts = JohnsonOptions::default();
        let stats = ooc_johnson_supervised(&mut dev, &g, &mut store, &opts, &Supervisor::unarmed())
            .unwrap();
        assert!(
            stats.batch_size as u32 >= dev.profile().saturating_blocks,
            "batch must saturate the device"
        );
        stats.sim_seconds
    };
    let v100 = time(DeviceProfile::v100());
    let k80 = time(DeviceProfile::k80());
    assert!(k80 > v100, "K80 {k80} should be slower than V100 {v100}");
}
