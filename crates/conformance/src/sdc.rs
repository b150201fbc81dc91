//! The silent-data-corruption (bit-flip) conformance harness.
//!
//! [`run_under_bit_flip`] arms exactly one seeded bit flip
//! ([`crate::fault::Fault::BitFlip`]) —
//! either in the tile store's write path ([`FlipSite::Store`]) or in a
//! device upload ([`FlipSite::Device`]) — runs one algorithm with its
//! SDC guard active, and classifies the outcome against the only two
//! acceptable behaviours:
//!
//! * the run completes and the matrix is **bit-identical** to the clean
//!   reference — either the guard detected the flip and its recovery
//!   ladder repaired it, or the relaxation schedule overwrote the
//!   corrupted row before any consumer read it (an *absorbed* flip);
//! * the run fails with typed [`ApspError::SilentCorruption`] — the
//!   guard detected damage its recovery budget could not repair.
//!
//! Anything else — a wrong matrix, or any other error kind — is
//! [`SdcVerdict::Unacceptable`], the silent-corruption failure mode this
//! harness exists to rule out.
//!
//! [`ApspError::SilentCorruption`]: apsp_core::ApspError::SilentCorruption

use crate::corpus::Case;
use crate::runner::RunnerConfig;
use apsp_core::ooc_boundary::ooc_boundary_supervised;
use apsp_core::ooc_fw::ooc_floyd_warshall_guarded;
use apsp_core::ooc_johnson::ooc_johnson_supervised;
use apsp_core::options::{Algorithm, BoundaryOptions, FwOptions, JohnsonOptions, SdcGuardMode};
use apsp_core::supervisor::Supervisor;
use apsp_core::{ApspErrorKind, StorageBackend, StoreFaultPlan, TileStore};
use apsp_cpu::bgl_plus_apsp;
use apsp_gpu_sim::{DeviceProfile, GpuDevice};

/// Where the injected flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipSite {
    /// The store row written by write op `ordinal` (0-based) flips `bit`
    /// after the write lands — silent damage to data at rest. Checksums
    /// ([`SdcGuardMode::Checksum`]) catch these.
    Store {
        /// 0-based store write-op ordinal.
        ordinal: u64,
        /// Which bit of the row's byte span flips.
        bit: u64,
    },
    /// The `transfer`th non-empty host-to-device upload (1-based) flips
    /// `bit` of its payload — damage *inside* the compute path, invisible
    /// to store checksums. Only the semantic invariants of
    /// [`SdcGuardMode::Full`] can see its consequences.
    Device {
        /// 1-based non-empty H2D transfer ordinal.
        transfer: u64,
        /// Which bit of the transferred byte span flips.
        bit: u64,
    },
}

impl std::fmt::Display for FlipSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlipSite::Store { ordinal, bit } => write!(f, "store-op{ordinal}-bit{bit}"),
            FlipSite::Device { transfer, bit } => write!(f, "device-h2d{transfer}-bit{bit}"),
        }
    }
}

/// How one guarded run behaved under a single injected flip.
#[derive(Debug)]
pub enum SdcVerdict {
    /// The guard detected the flip, the recovery ladder repaired it, and
    /// the matrix equals the clean reference bit for bit.
    RecoveredExact {
        /// Panel-scoped recoveries the driver reported.
        panel: u32,
        /// Round-scoped (full-replay) recoveries the driver reported.
        round: u32,
    },
    /// The flip fired but the matrix is bit-identical anyway: the
    /// relaxation schedule overwrote the damage before anything read it.
    AbsorbedExact,
    /// The run failed typed [`ApspErrorKind::SilentCorruption`] — the
    /// detection worked and the exhausted ladder surfaced honestly.
    TypedSilentCorruption,
    /// A wrong matrix or a wrong error kind — the harness failure.
    Unacceptable {
        /// What was wrong.
        detail: String,
    },
}

impl SdcVerdict {
    /// Whether the run upheld the contract: bit-identical or typed,
    /// never silently wrong.
    pub fn is_acceptable(&self) -> bool {
        !matches!(self, SdcVerdict::Unacceptable { .. })
    }

    /// Whether the guard actively detected the flip (recovered or typed)
    /// rather than the schedule absorbing it.
    pub fn detected(&self) -> bool {
        matches!(
            self,
            SdcVerdict::RecoveredExact { .. } | SdcVerdict::TypedSilentCorruption
        )
    }
}

/// One cell of the bit-flip matrix, with the coordinates a report needs.
#[derive(Debug)]
pub struct SdcOutcome {
    /// `"<algorithm>/<storage>/<site>"`, the handle the report prints.
    pub label: String,
    /// How the run behaved.
    pub verdict: SdcVerdict,
}

impl std::fmt::Display for SdcOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.verdict {
            SdcVerdict::RecoveredExact { panel, round } => write!(
                f,
                "{}: detected, recovered exact (panel rungs {panel}, round rungs {round})",
                self.label
            ),
            SdcVerdict::AbsorbedExact => {
                write!(f, "{}: absorbed by the schedule, exact", self.label)
            }
            SdcVerdict::TypedSilentCorruption => {
                write!(
                    f,
                    "{}: typed SilentCorruption (budget exhausted)",
                    self.label
                )
            }
            SdcVerdict::Unacceptable { detail } => {
                write!(f, "{}: UNACCEPTABLE — {detail}", self.label)
            }
        }
    }
}

/// Run `algorithm` on `case` with one `site` flip armed under `mode`,
/// classify the outcome, and verify the never-silently-wrong contract.
pub fn run_under_bit_flip(
    case: &Case,
    algorithm: Algorithm,
    disk: bool,
    site: FlipSite,
    mode: SdcGuardMode,
    cfg: &RunnerConfig,
) -> SdcOutcome {
    let g = &case.graph;
    let n = g.num_vertices();
    let reference = bgl_plus_apsp(g);
    let label = format!(
        "{algorithm:?}/{}/{site}",
        if disk { "disk" } else { "memory" }
    );
    let unacceptable = |detail: String| SdcOutcome {
        label: label.clone(),
        verdict: SdcVerdict::Unacceptable { detail },
    };

    let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(cfg.device_bytes));
    let backend = if disk {
        StorageBackend::Disk(cfg.scratch_dir.clone())
    } else {
        StorageBackend::Memory
    };
    let mut store = match TileStore::new(n, &backend) {
        Ok(s) => s,
        Err(e) => return unacceptable(format!("store creation failed before any flip: {e}")),
    };
    // Guard first, flip second: the checksum registry must hold *clean*
    // hashes before the countdown starts, exactly as a production run
    // armed at startup would.
    if let Err(e) = store.set_sdc_guard(mode) {
        return unacceptable(format!("guard arming failed: {e}"));
    }
    match site {
        FlipSite::Store { ordinal, bit } => {
            store.arm_faults(StoreFaultPlan::bit_flip(ordinal, bit))
        }
        FlipSite::Device { transfer, bit } => dev.inject_bit_flip(transfer, bit),
    }

    let sup = Supervisor::unarmed();
    // (panel, round) recovery counts, per driver.
    let run = match algorithm {
        Algorithm::FloydWarshall => {
            let opts = FwOptions {
                sdc_guard: mode,
                ..Default::default()
            };
            ooc_floyd_warshall_guarded(&mut dev, g, &mut store, &opts, &sup)
                .map(|s| (s.sdc_panel_recoveries, s.sdc_round_recoveries))
        }
        Algorithm::Johnson => {
            let opts = JohnsonOptions {
                sdc_guard: mode,
                ..Default::default()
            };
            ooc_johnson_supervised(&mut dev, g, &mut store, &opts, &sup)
                .map(|s| (s.sdc_panel_recoveries, s.sdc_round_recoveries))
        }
        Algorithm::Boundary => {
            let opts = BoundaryOptions {
                sdc_guard: mode,
                ..Default::default()
            };
            // Boundary never reads the store, so its one exact rung is a
            // full recomputation — there is no panel-scoped count.
            ooc_boundary_supervised(&mut dev, g, &mut store, &opts, &sup)
                .map(|s| (0, s.sdc_round_recoveries))
        }
    };
    dev.clear_bit_flips();

    let verdict = match run {
        Ok((panel, round)) => {
            let got = match store.to_dist_matrix() {
                Ok(m) => m,
                Err(e) => {
                    return unacceptable(format!("store unreadable after an Ok run: {e}"));
                }
            };
            if got != reference {
                let idx = (0..n * n)
                    .find(|&i| got.as_slice()[i] != reference.as_slice()[i])
                    .unwrap();
                SdcVerdict::Unacceptable {
                    detail: format!(
                        "SILENTLY WRONG: cell ({}, {}) = {}, expected {} \
                         (recoveries panel {panel} / round {round})",
                        idx / n,
                        idx % n,
                        got.as_slice()[idx],
                        reference.as_slice()[idx]
                    ),
                }
            } else if panel + round > 0 {
                SdcVerdict::RecoveredExact { panel, round }
            } else {
                SdcVerdict::AbsorbedExact
            }
        }
        Err(e) if e.kind() == ApspErrorKind::SilentCorruption => SdcVerdict::TypedSilentCorruption,
        Err(e) => SdcVerdict::Unacceptable {
            detail: format!("wrong error kind {:?}: {e}", e.kind()),
        },
    };
    SdcOutcome { label, verdict }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Family;

    #[test]
    fn a_store_flip_on_a_guarded_run_is_detected_and_repaired() {
        let cfg = RunnerConfig::default();
        let case = Case::generate(Family::ErdosRenyi, 0x5DC1);
        let out = run_under_bit_flip(
            &case,
            Algorithm::Johnson,
            false,
            FlipSite::Store {
                ordinal: 20,
                bit: 9,
            },
            SdcGuardMode::Checksum,
            &cfg,
        );
        assert!(out.verdict.is_acceptable(), "{out}");
        assert!(out.verdict.detected(), "{out}");
    }

    #[test]
    fn flip_site_labels_are_printable_and_distinct() {
        let a = FlipSite::Store { ordinal: 3, bit: 7 }.to_string();
        let b = FlipSite::Device {
            transfer: 1,
            bit: 30,
        }
        .to_string();
        assert_eq!(a, "store-op3-bit7");
        assert_eq!(b, "device-h2d1-bit30");
    }
}
