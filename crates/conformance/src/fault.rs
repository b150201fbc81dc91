//! Deterministic fault plans and the graceful-degradation harness.
//!
//! A [`FaultPlan`] is a pure function of its seed: it schedules device
//! allocation failures (absorbed by the algorithms' retry drivers) and
//! store faults (short writes/reads, `ENOSPC`, latency, hangs, bit flips
//! — fed to [`TileStore::arm_faults`] as one [`StoreFaultPlan`]).
//! [`run_under_faults`] runs one algorithm under a plan and classifies
//! the outcome:
//!
//! * the run degrades gracefully and the matrix is **exact**, or
//! * the run fails with a typed [`ApspError`] and the store is **not
//!   corrupted** — every cell is still an upper bound of the true
//!   distance (`INF`, the zero diagonal, or a real path weight), and
//!   re-running after the fault clears converges to the exact matrix —
//! * anything else is [`FaultRunOutcome::Corrupted`], a harness failure.

use crate::corpus::{splitmix64, Case};
use crate::runner::RunnerConfig;
use apsp_core::ooc_boundary::ooc_boundary_supervised;
use apsp_core::ooc_fw::ooc_floyd_warshall_guarded;
use apsp_core::ooc_johnson::ooc_johnson_supervised;
use apsp_core::options::{Algorithm, BoundaryOptions, FwOptions, JohnsonOptions};
use apsp_core::{
    ApspError, ApspErrorKind, DiskFault, StorageBackend, StoreFaultPlan, Supervisor, TileStore,
};
use apsp_cpu::bgl_plus_apsp;
use apsp_gpu_sim::{DeviceProfile, GpuDevice};

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `kth` subsequent device allocation fails (1-based).
    AllocFail {
        /// Which future allocation fails.
        kth: u64,
    },
    /// Positional write `op` persists half its bytes, then errors.
    ShortWrite {
        /// 0-based write-op ordinal.
        op: u64,
    },
    /// Positional read `op` fills half its buffer, then errors.
    ShortRead {
        /// 0-based read-op ordinal.
        op: u64,
    },
    /// Positional write `op` fails up front with `ENOSPC`.
    Enospc {
        /// 0-based write-op ordinal.
        op: u64,
    },
    /// Positional write `op` stalls, then succeeds.
    Latency {
        /// 0-based write-op ordinal.
        op: u64,
        /// Stall length.
        micros: u64,
    },
    /// Positional write `op` hangs in *simulated* time: the op succeeds,
    /// the host never sleeps, and the hang is observable only through an
    /// attached supervisor's io-stall clock (deadline and progress
    /// budgets both see it).
    Hang {
        /// 0-based write-op ordinal.
        op: u64,
        /// Simulated hang length.
        micros: u64,
    },
    /// Silent data corruption: one bit of the row written by store write
    /// op `ordinal` flips *after* the write lands, with no error reported
    /// anywhere. Unlike every other kind this fault is invisible to the
    /// I/O layer — it is exercised by [`crate::sdc`]'s harness (which
    /// arms an SDC guard), not by [`run_under_faults`], whose
    /// store-uncorrupted contract a silent flip violates by design.
    BitFlip {
        /// 0-based store write-op ordinal whose row is corrupted.
        ordinal: u64,
        /// Which bit of the row's byte span flips.
        bit: u64,
    },
}

/// A deterministic schedule of faults derived from one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed that regenerates this exact plan.
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Derive a plan covering every fault kind, with positions drawn
    /// deterministically from `seed`. Same seed ⇒ same plan, always.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let mut draw = |lo: u64, span: u64| lo + splitmix64(&mut s) % span;
        // Disk ordinals stay low enough to land inside a corpus-sized
        // run (store init alone issues n ≈ 100 writes).
        let faults = vec![
            Fault::AllocFail { kth: draw(1, 6) },
            Fault::ShortWrite { op: draw(0, 60) },
            Fault::Enospc { op: draw(120, 60) },
            Fault::ShortRead { op: draw(0, 40) },
            Fault::Latency {
                op: draw(60, 40),
                micros: draw(1, 200),
            },
            Fault::Hang {
                op: draw(100, 20),
                micros: draw(1_000, 9_000),
            },
        ];
        FaultPlan { seed, faults }
    }

    /// Whether the plan contains disk faults (and thus needs a
    /// `Disk`-backed store to be observable). Bit flips corrupt the
    /// store's *contents*, not its I/O, and fire on `Memory` stores too.
    pub fn has_disk_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| !matches!(f, Fault::AllocFail { .. } | Fault::BitFlip { .. }))
    }

    /// The distinct fault kinds scheduled (for coverage assertions).
    pub fn kinds(&self) -> usize {
        let mut k = [false; 7];
        for f in &self.faults {
            k[match f {
                Fault::AllocFail { .. } => 0,
                Fault::ShortWrite { .. } => 1,
                Fault::ShortRead { .. } => 2,
                Fault::Enospc { .. } => 3,
                Fault::Latency { .. } => 4,
                Fault::Hang { .. } => 5,
                Fault::BitFlip { .. } => 6,
            }] = true;
        }
        k.iter().filter(|b| **b).count()
    }

    /// The disk-fault half of the plan in [`TileStore::arm_faults`]
    /// form. Bit flips are dropped: [`run_under_faults`] promises an
    /// uncorrupted store, which a silent flip breaks by design, so they
    /// are armed only by [`crate::sdc`]'s harness.
    pub fn store_plan(&self) -> StoreFaultPlan {
        let mut plan = StoreFaultPlan::default();
        for f in &self.faults {
            match *f {
                Fault::ShortWrite { op } => plan.write_faults.push((op, DiskFault::ShortWrite)),
                Fault::Enospc { op } => plan.write_faults.push((op, DiskFault::Enospc)),
                Fault::Latency { op, micros } => plan
                    .write_faults
                    .push((op, DiskFault::LatencyMicros(micros))),
                Fault::Hang { op, micros } => {
                    plan.write_faults.push((op, DiskFault::HangMicros(micros)))
                }
                Fault::ShortRead { op } => plan.read_faults.push((op, DiskFault::ShortRead)),
                Fault::AllocFail { .. } | Fault::BitFlip { .. } => {}
            }
        }
        plan
    }

    /// Arm the device half of the plan.
    pub fn arm_device(&self, dev: &GpuDevice) {
        for f in &self.faults {
            if let Fault::AllocFail { kth } = f {
                dev.inject_alloc_failure(*kth);
            }
        }
    }
}

/// How one algorithm behaved under a fault plan.
#[derive(Debug)]
pub enum FaultRunOutcome {
    /// The run completed (absorbing any faults via its retry driver) and
    /// the matrix equals the reference exactly.
    Exact {
        /// Restarts the retry driver reported.
        retries: u32,
    },
    /// The run failed with a typed error, the store held only valid
    /// upper bounds afterwards, and re-running after the faults cleared
    /// produced the exact matrix.
    FailedThenRecovered {
        /// The typed classification of the failure.
        kind: ApspErrorKind,
    },
    /// The harness caught a wrong value — the real failure mode the
    /// fault machinery exists to rule out.
    Corrupted {
        /// What was wrong.
        detail: String,
    },
}

impl FaultRunOutcome {
    /// Whether the algorithm behaved acceptably (exact result or a typed
    /// failure without corruption).
    pub fn is_acceptable(&self) -> bool {
        !matches!(self, FaultRunOutcome::Corrupted { .. })
    }
}

fn run_algorithm(
    algorithm: Algorithm,
    dev: &mut GpuDevice,
    g: &apsp_graph::CsrGraph,
    store: &mut TileStore,
) -> Result<u32, ApspError> {
    let sup = Supervisor::unarmed();
    Ok(match algorithm {
        Algorithm::FloydWarshall => {
            ooc_floyd_warshall_guarded(dev, g, store, &FwOptions::default(), &sup)?.retries
        }
        Algorithm::Johnson => {
            ooc_johnson_supervised(dev, g, store, &JohnsonOptions::default(), &sup)?.retries
        }
        Algorithm::Boundary => {
            ooc_boundary_supervised(dev, g, store, &BoundaryOptions::default(), &sup)?.retries
        }
    })
}

/// Run `algorithm` on `case` with `plan` armed, classify the outcome, and
/// verify the no-corruption contract either way.
pub fn run_under_faults(
    case: &Case,
    algorithm: Algorithm,
    plan: &FaultPlan,
    cfg: &RunnerConfig,
) -> FaultRunOutcome {
    let g = &case.graph;
    let n = g.num_vertices();
    let reference = bgl_plus_apsp(g);
    let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(cfg.device_bytes));
    let backend = if plan.has_disk_faults() {
        StorageBackend::Disk(cfg.scratch_dir.clone())
    } else {
        StorageBackend::Memory
    };
    let mut store = match TileStore::new(n, &backend) {
        Ok(s) => s,
        Err(e) => {
            return FaultRunOutcome::Corrupted {
                detail: format!("store creation failed before any fault was armed: {e}"),
            }
        }
    };
    store.arm_faults(plan.store_plan());
    plan.arm_device(&dev);

    let first = run_algorithm(algorithm, &mut dev, g, &mut store);
    store.disarm_faults();
    dev.clear_alloc_failure();

    match first {
        Ok(retries) => match check_exact(&store, &reference) {
            Ok(()) => FaultRunOutcome::Exact { retries },
            Err(detail) => FaultRunOutcome::Corrupted { detail },
        },
        Err(e) => {
            let kind = e.kind();
            // No cell may drop below the true distance: everything in the
            // store must still be INF, the diagonal, or a real path weight.
            for i in 0..n {
                let row = match store.read_row(i) {
                    Ok(r) => r,
                    Err(io) => {
                        return FaultRunOutcome::Corrupted {
                            detail: format!("row {i} unreadable after disarm: {io}"),
                        }
                    }
                };
                if let Some(j) = (0..n).find(|&j| row[j] < reference.get(i, j)) {
                    return FaultRunOutcome::Corrupted {
                        detail: format!(
                            "cell ({i}, {j}) = {} fell below the true distance {} \
                             after a {kind:?} failure",
                            row[j],
                            reference.get(i, j)
                        ),
                    };
                }
            }
            // The faults are gone; the same store must now converge.
            match run_algorithm(algorithm, &mut dev, g, &mut store) {
                Ok(_) => match check_exact(&store, &reference) {
                    Ok(()) => FaultRunOutcome::FailedThenRecovered { kind },
                    Err(detail) => FaultRunOutcome::Corrupted { detail },
                },
                Err(e2) => FaultRunOutcome::Corrupted {
                    detail: format!("re-run after disarm failed too: {e2}"),
                },
            }
        }
    }
}

fn check_exact(store: &TileStore, reference: &apsp_cpu::DistMatrix) -> Result<(), String> {
    let got = store
        .to_dist_matrix()
        .map_err(|e| format!("store unreadable: {e}"))?;
    if &got == reference {
        return Ok(());
    }
    let n = reference.n();
    let idx = (0..n * n)
        .find(|&i| got.as_slice()[i] != reference.as_slice()[i])
        .unwrap();
    Err(format!(
        "cell ({}, {}) = {}, expected {}",
        idx / n,
        idx % n,
        got.as_slice()[idx],
        reference.as_slice()[idx]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let a = FaultPlan::from_seed(99);
        let b = FaultPlan::from_seed(99);
        let c = FaultPlan::from_seed(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.kinds() >= 3, "plan must cover ≥3 fault kinds: {a:?}");
        assert!(a.has_disk_faults());
    }

    #[test]
    fn store_plan_routes_directions_correctly() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault::ShortWrite { op: 3 },
                Fault::ShortRead { op: 5 },
                Fault::Enospc { op: 7 },
                Fault::Latency { op: 9, micros: 11 },
                Fault::Hang { op: 13, micros: 17 },
                Fault::AllocFail { kth: 1 },
                Fault::BitFlip {
                    ordinal: 19,
                    bit: 23,
                },
            ],
        };
        let store = plan.store_plan();
        assert_eq!(store.write_faults.len(), 4);
        assert!(store
            .write_faults
            .contains(&(13, DiskFault::HangMicros(17))));
        assert_eq!(store.read_faults, vec![(5, DiskFault::ShortRead)]);
        assert!(
            store.bit_flips.is_empty(),
            "bit flips are the sdc harness's"
        );
        assert_eq!(store.crash_after, None);
    }
}
