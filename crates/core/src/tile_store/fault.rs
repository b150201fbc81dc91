//! The store's fault-injection seam, for tests and the conformance
//! harness. Everything injectable — disk faults addressed by
//! positional-I/O ordinal, a crash point, at-rest bit flips — is armed
//! at once as one [`StoreFaultPlan`] and held in one `Option` on the
//! store. The production path meets it only as that `Option`: in the
//! accounted prelude, in the one positional primitive per direction,
//! and after a write lands.

use super::{cast_bytes_mut, elem_offset, Backing, DiskBacking, TileStore};
use crate::supervisor::Supervisor;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// `ENOSPC` — the errno a full filesystem raises on write.
pub(super) const ENOSPC_ERRNO: i32 = 28;

/// One injectable disk-I/O fault (see [`StoreFaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// A positional write persists only the first half of its bytes,
    /// then fails with `ErrorKind::WriteZero` — the dangerous case where
    /// the store is already partially mutated when the error surfaces.
    ShortWrite,
    /// A positional read fills only the first half of its buffer, then
    /// fails with `ErrorKind::UnexpectedEof`.
    ShortRead,
    /// A positional write fails up front with the OS `ENOSPC` error
    /// (filesystem full); nothing is written.
    Enospc,
    /// The operation succeeds but stalls for this many microseconds
    /// first — a degraded spindle/network mount, not a failure.
    LatencyMicros(u64),
    /// The operation succeeds but a *simulated* hang of this many
    /// microseconds is charged to the attached [`Supervisor`]'s
    /// disk-stall clock (see [`TileStore::set_supervision`]) — a disk
    /// that goes slow instead of failing. Unlike
    /// [`DiskFault::LatencyMicros`] no host thread actually sleeps, so
    /// hangs of simulated minutes stay test-fast and deterministic;
    /// without a supervisor attached the fault is unobservable by
    /// design.
    HangMicros(u64),
}

/// Everything injectable into one store, armed together by
/// [`TileStore::arm_faults`]. Every ordinal is 0-based from arming.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreFaultPlan {
    /// `(write-op ordinal, fault)` pairs. A `Disk` backing counts every
    /// positional write it issues — one per row of a block write, one
    /// per `write_rows` call however many rows or shard files it spans —
    /// and fires the fault whose ordinal matches. `Memory` backings
    /// issue no positional I/O, so these never fire there.
    /// Read-direction kinds here are ignored.
    pub write_faults: Vec<(u64, DiskFault)>,
    /// `(read-op ordinal, fault)` pairs, counted like `write_faults`;
    /// write-direction kinds here are ignored.
    pub read_faults: Vec<(u64, DiskFault)>,
    /// A crash point: the store services this many row-granular
    /// operations (a block access of `r` rows counts `r`, a
    /// `write_rows` call one), then every later operation fails with an
    /// "injected crash" error, as if its process had died mid-run.
    /// Counts on both backings; `Some(u64::MAX)` counts a whole run
    /// without crashing it.
    pub crash_after: Option<u64>,
    /// One-shot at-rest bit flips `(write budget, bit)`: the store
    /// services `budget` row-granular write operations cleanly, then
    /// the write that exhausts it has bit `bit` (modulo the row's bit
    /// width) of its just-written row flipped in the backing — after
    /// the guard registry recorded the clean data, modelling corruption
    /// that strikes between a write and the next read. Flips count down
    /// concurrently, on both backings; with the guard off a flip is
    /// silent.
    pub bit_flips: Vec<(u64, u64)>,
}

impl StoreFaultPlan {
    /// A plan holding only a crash point after `ops` operations.
    pub fn crash_after(ops: u64) -> Self {
        StoreFaultPlan {
            crash_after: Some(ops),
            ..Self::default()
        }
    }

    /// A plan holding only one bit flip (see
    /// [`StoreFaultPlan::bit_flips`]).
    pub fn bit_flip(budget: u64, bit: u64) -> Self {
        StoreFaultPlan {
            bit_flips: vec![(budget, bit)],
            ..Self::default()
        }
    }
}

/// Operations a store has counted since its plan was armed
/// ([`TileStore::fault_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Row-granular operations: the crash point's clock.
    pub row_ops: u64,
    /// Positional writes: the `write_faults` clock.
    pub write_ops: u64,
    /// Positional reads: the `read_faults` clock.
    pub read_ops: u64,
}

/// An armed plan and its clocks.
#[derive(Debug)]
pub(super) struct FaultSeam {
    plan: StoreFaultPlan,
    row_ops: AtomicU64,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

impl FaultSeam {
    /// Count `ops` row-granular operations, failing once the crash
    /// budget is exhausted (and forever after: the clock only grows).
    pub(super) fn tick(&self, ops: u64) -> io::Result<()> {
        let before = self.row_ops.fetch_add(ops, Ordering::Relaxed);
        match self.plan.crash_after {
            Some(after) if before.saturating_add(ops) > after => Err(io::Error::other(format!(
                "injected crash after {after} store ops: process terminated"
            ))),
            _ => Ok(()),
        }
    }

    /// One positional write: count it, and fire its scheduled fault
    /// instead of (or before) writing. A `ShortWrite` persists the first
    /// half of the *logical* buffer, wherever its bytes land across
    /// shards.
    pub(super) fn write(
        &self,
        disk: &DiskBacking,
        sup: Option<&Supervisor>,
        buf: &[u8],
        offset: u64,
    ) -> io::Result<()> {
        let op = self.write_ops.fetch_add(1, Ordering::Relaxed);
        match fault_at(&self.plan.write_faults, op) {
            Some(DiskFault::Enospc) => Err(io::Error::from_raw_os_error(ENOSPC_ERRNO)),
            Some(DiskFault::ShortWrite) => {
                let half = buf.len() / 2;
                disk.write_all_at(&buf[..half], offset)?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected short write at op {op}: {half} of {} bytes persisted",
                        buf.len()
                    ),
                ))
            }
            other => {
                stall(other, sup);
                disk.write_all_at(buf, offset)
            }
        }
    }

    /// One positional read: count it, and fire its scheduled fault.
    pub(super) fn read(
        &self,
        disk: &DiskBacking,
        sup: Option<&Supervisor>,
        buf: &mut [u8],
        offset: u64,
    ) -> io::Result<()> {
        let op = self.read_ops.fetch_add(1, Ordering::Relaxed);
        match fault_at(&self.plan.read_faults, op) {
            Some(DiskFault::ShortRead) => {
                let half = buf.len() / 2;
                disk.read_exact_at(&mut buf[..half], offset)?;
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "injected short read at op {op}: {half} of {} bytes filled",
                        buf.len()
                    ),
                ))
            }
            other => {
                stall(other, sup);
                disk.read_exact_at(buf, offset)
            }
        }
    }
}

fn fault_at(faults: &[(u64, DiskFault)], op: u64) -> Option<DiskFault> {
    faults.iter().find(|(at, _)| *at == op).map(|(_, f)| *f)
}

/// The faults that succeed slowly: a real sleep, or a simulated hang
/// charged to the supervisor's disk-stall clock (so a hung disk is only
/// observable while a supervisor watches). Anything else is a no-op.
fn stall(fault: Option<DiskFault>, sup: Option<&Supervisor>) {
    match fault {
        Some(DiskFault::LatencyMicros(us)) => std::thread::sleep(Duration::from_micros(us)),
        Some(DiskFault::HangMicros(us)) => {
            if let Some(sup) = sup {
                sup.charge_io_stall(us as f64 / 1e6);
            }
        }
        _ => {}
    }
}

impl TileStore {
    /// Arm `plan`, replacing any armed one; every clock restarts at
    /// zero.
    pub fn arm_faults(&mut self, plan: StoreFaultPlan) {
        self.faults = Some(FaultSeam {
            plan,
            row_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            read_ops: AtomicU64::new(0),
        });
    }

    /// Remove the armed plan: a crashed store revives, unfired bit flips
    /// are dropped.
    pub fn disarm_faults(&mut self) {
        self.faults = None;
    }

    /// Operations counted since the plan was armed; all zero when none
    /// is.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.as_ref().map_or_else(FaultCounts::default, |f| {
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            FaultCounts {
                row_ops: load(&f.row_ops),
                write_ops: load(&f.write_ops),
                read_ops: load(&f.read_ops),
            }
        })
    }

    /// After a write of `count` rows from `row_start` landed (and the
    /// registry recorded it): fire the armed bit flips this write
    /// exhausts, each on the written row its residual budget points at.
    pub(super) fn strike(&mut self, row_start: usize, count: u64) -> io::Result<()> {
        let Some(seam) = &mut self.faults else {
            return Ok(());
        };
        let mut fired: Vec<(usize, u64)> = Vec::new();
        seam.plan.bit_flips.retain_mut(|(remaining, bit)| {
            if *remaining >= count {
                *remaining -= count;
                true
            } else {
                fired.push((row_start + *remaining as usize, *bit));
                false
            }
        });
        for (row, bit) in fired {
            // Record the row's clean content first: it may be dirty, and
            // the barrier re-hash of a dirty row would absorb the flip.
            self.sdc_rebaseline(row..row + 1)?;
            self.flip_stored_bit(row, bit)?;
        }
        Ok(())
    }

    /// XOR one bit of row `row`'s stored bytes directly in the backing:
    /// damage that happened to the store, not I/O it performed.
    fn flip_stored_bit(&mut self, row: usize, bit: u64) -> io::Result<()> {
        let n = self.n;
        let row_bits = elem_offset(n) * 8;
        if row_bits == 0 {
            return Ok(());
        }
        let b = bit % row_bits;
        let (byte, mask) = (elem_offset(row * n) + b / 8, 1u8 << (b % 8));
        match &mut self.backing {
            Backing::Memory(data) => {
                cast_bytes_mut(data)[byte as usize] ^= mask;
                Ok(())
            }
            Backing::Disk(d) => {
                let mut one = [0u8; 1];
                d.read_exact_at(&mut one, byte)?;
                one[0] ^= mask;
                d.write_all_at(&one, byte)
            }
        }
    }
}
