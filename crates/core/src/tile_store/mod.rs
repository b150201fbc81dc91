//! Host-side out-of-core result storage.
//!
//! The output distance matrix is orders of magnitude larger than the
//! input; for the paper's Table III graphs it fits in host RAM, for the
//! Table IV graphs it does not. [`TileStore`] abstracts both regimes:
//! the `Memory` backend holds one flat `n × n` buffer, the `Disk` backend
//! spills to one or more files addressed with positional I/O — the same
//! row-major layout either way. Spill files split at a configurable
//! byte threshold ([`DEFAULT_SHARD_BYTES`], 1 GiB, by default; see
//! [`StorageBackend::DiskSharded`]), row-aligned so a single row never
//! straddles two files, which keeps the hot row/panel paths one
//! `pread`/`pwrite` each while letting paper-scale matrices escape the
//! single-file sequential-I/O bottleneck.
//!
//! Every accounted operation — [`TileStore::write_rows`],
//! [`TileStore::write_block`], [`TileStore::read_block`] and the
//! conveniences built on them — runs one prelude (the injection seam's
//! operation clock, the supervision tick, the telemetry row count) and
//! then moves its data with one positional primitive per direction. The module splits along the
//! decisions it holds:
//!
//! * `digest` — [`row_digest`], [`panel_checksum`] and [`fnv1a`];
//! * `disk` — the spill files and the persisted format, whose every
//!   panel [`TileStore::open`] verifies before handing the file out;
//! * `registry` — the silent-corruption guard's checksum registry;
//! * `fault` — the test-only injection seam: everything injectable is
//!   one [`StoreFaultPlan`], held in one `Option` on the store.

mod digest;
mod disk;
mod fault;
mod registry;

pub(crate) use digest::block_panel_checksums;
pub use digest::{fnv1a, panel_checksum, row_digest, FNV_OFFSET_BASIS};
pub(crate) use disk::sync_dir;
pub use disk::DEFAULT_SHARD_BYTES;
pub use fault::{DiskFault, FaultCounts, StoreFaultPlan};

use crate::supervisor::Supervisor;
use apsp_cpu::parallel::{par_bands_weighted, ExecBackend, SharedSliceMut};
use apsp_graph::{Dist, INF};
use digest::fold_panels;
use disk::DiskBacking;
use fault::FaultSeam;
use parking_lot::Mutex;
use registry::SdcState;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

/// Rows per checksum panel — for the persisted footer and for panel
/// attribution in [`crate::ApspError::SilentCorruption`] (`panel` =
/// `row / SDC_PANEL_ROWS`). Matches the checkpoint layer's default
/// panel geometry so the two layers report comparable coordinates.
pub const SDC_PANEL_ROWS: usize = 64;

/// Where the result matrix lives.
#[derive(Debug, Clone)]
pub enum StorageBackend {
    /// Host RAM (Table III regime).
    Memory,
    /// Files inside this directory (Table IV regime). The directory is
    /// created if missing; the files are removed when the store drops.
    /// Spills split across multiple files at [`DEFAULT_SHARD_BYTES`].
    Disk(PathBuf),
    /// [`StorageBackend::Disk`] with an explicit spill-file split
    /// threshold in bytes (row-aligned, minimum one row per file).
    DiskSharded {
        /// Spill directory (created if missing).
        dir: PathBuf,
        /// Bytes per spill file before rolling over to the next shard.
        shard_bytes: u64,
    },
}

enum Backing {
    Memory(Vec<Dist>),
    Disk(DiskBacking),
}

/// An `n × n` row-major distance matrix in RAM or on disk.
pub struct TileStore {
    n: usize,
    backing: Backing,
    supervision: Option<Supervisor>,
    exec: ExecBackend,
    sdc: Option<Mutex<SdcState>>,
    sdc_round: AtomicU64,
    /// The armed injection plan (see [`Self::arm_faults`]); `None`
    /// outside tests.
    faults: Option<FaultSeam>,
}

/// Minimum rows per band for the store's staging copies — below this a
/// band is cheaper to run inline than to hand to a thread.
const STORE_MIN_ROWS_PER_BAND: usize = 64;

impl std::fmt::Debug for TileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.backing {
            Backing::Memory(_) => "memory",
            Backing::Disk(..) => "disk",
        };
        write!(f, "TileStore {{ n: {}, backing: {kind} }}", self.n)
    }
}

impl TileStore {
    /// Create a store for an `n × n` matrix, initialized to `INF` with a
    /// zero diagonal (the convention every algorithm writes over).
    pub fn new(n: usize, backend: &StorageBackend) -> io::Result<Self> {
        let backing = match backend {
            StorageBackend::Memory => {
                let mut data = vec![INF; n * n];
                for i in 0..n {
                    data[i * n + i] = 0;
                }
                Backing::Memory(data)
            }
            StorageBackend::Disk(dir) => {
                Backing::Disk(DiskBacking::create(dir, n, DEFAULT_SHARD_BYTES)?)
            }
            StorageBackend::DiskSharded { dir, shard_bytes } => {
                Backing::Disk(DiskBacking::create(dir, n, *shard_bytes)?)
            }
        };
        Ok(Self::with_backing(n, backing))
    }

    fn with_backing(n: usize, backing: Backing) -> Self {
        TileStore {
            n,
            backing,
            supervision: None,
            exec: ExecBackend::default(),
            sdc: None,
            sdc_round: AtomicU64::new(0),
            faults: None,
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the store spills to disk.
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.backing, Backing::Disk(..))
    }

    /// Attach a [`Supervisor`]: every row-granular operation checks its
    /// cancellation token (a trip surfaces as a typed
    /// [`crate::ApspError::Cancelled`] through the store's error
    /// plumbing), and simulated disk hangs injected through the fault
    /// seam charge their stall to its disk-stall clock.
    pub fn set_supervision(&mut self, sup: Supervisor) {
        self.supervision = Some(sup);
    }

    /// Detach any attached [`Supervisor`].
    pub fn clear_supervision(&mut self) {
        self.supervision = None;
    }

    /// Choose the host execution backend for bulk staging copies and
    /// checksum computation on the `Memory` backing. `Disk` I/O always
    /// stays sequential: fault-injection ordinals depend on the
    /// positional-I/O order.
    pub fn set_exec_backend(&mut self, exec: ExecBackend) {
        self.exec = exec;
    }

    /// The prelude of every accounted operation: `ops` ticks of the
    /// injection seam's operation clock, `rows` cancellation checks, and
    /// the telemetry row counts.
    fn prelude(&self, ops: u64, rows: u64, reads: u64, writes: u64) -> io::Result<()> {
        if let Some(seam) = &self.faults {
            seam.tick(ops)?;
        }
        if let Some(sup) = &self.supervision {
            sup.io_tick(rows)?;
            sup.telemetry().count_store_rows(reads, writes);
        }
        Ok(())
    }

    /// The one positional write of the accounted path.
    fn pwrite(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let Backing::Disk(d) = &self.backing else {
            unreachable!("positional I/O on a memory backing");
        };
        match &self.faults {
            Some(seam) => seam.write(d, self.supervision.as_ref(), buf, offset),
            None => d.write_all_at(buf, offset),
        }
    }

    /// The one positional read of the accounted path.
    fn pread(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let Backing::Disk(d) = &self.backing else {
            unreachable!("positional I/O on a memory backing");
        };
        match &self.faults {
            Some(seam) => seam.read(d, self.supervision.as_ref(), buf, offset),
            None => d.read_exact_at(buf, offset),
        }
    }

    /// Overwrite full row `i` (a one-row [`Self::write_rows`]).
    pub fn write_row(&mut self, i: usize, row: &[Dist]) -> io::Result<()> {
        assert_eq!(row.len(), self.n, "row width mismatch");
        self.write_rows(i, row)
    }

    /// Overwrite `rows.len() / n` consecutive rows starting at
    /// `row_start`. One contiguous positional write: one tick of the
    /// seam's operation clock and one positional-I/O ordinal however
    /// many rows, while cancellation stays row-granular.
    pub fn write_rows(&mut self, row_start: usize, rows: &[Dist]) -> io::Result<()> {
        assert_eq!(rows.len() % self.n, 0, "partial rows in write_rows");
        let count = rows.len() / self.n;
        assert!(row_start + count <= self.n, "rows out of range");
        self.prelude(1, count as u64, 0, count as u64)?;
        let at = row_start * self.n;
        match &mut self.backing {
            Backing::Memory(data) => data[at..at + rows.len()].copy_from_slice(rows),
            Backing::Disk(_) => self.pwrite(cast_bytes(rows), elem_offset(at))?,
        }
        self.sdc_record_rows(row_start, rows);
        self.strike(row_start, count as u64)
    }

    /// Overwrite the rectangular block `row_range × col_range` with
    /// `data` (row-major, dimensions matching the ranges): one
    /// positional write per row.
    pub fn write_block(
        &mut self,
        row_range: Range<usize>,
        col_range: Range<usize>,
        data: &[Dist],
    ) -> io::Result<()> {
        let (n, width, count) = (self.n, col_range.len(), row_range.len() as u64);
        assert!(row_range.end <= n && col_range.end <= n);
        assert_eq!(data.len(), row_range.len() * width, "block size mismatch");
        self.prelude(count, count, 0, count)?;
        if width != n {
            // About to dirty these rows: any clean row must still match
            // its checksum, or at-rest damage would be absorbed by the
            // barrier re-hash of dirty rows.
            self.sdc_predirty_verify(row_range.clone())?;
        }
        let threads = self.exec.resolved_threads();
        match &mut self.backing {
            Backing::Memory(buf) => {
                let shared = SharedSliceMut::new(buf.as_mut_slice());
                par_bands_weighted(
                    row_range.len(),
                    threads,
                    STORE_MIN_ROWS_PER_BAND,
                    width,
                    |band| {
                        // SAFETY: bands write disjoint row ranges of the backing.
                        let buf = unsafe { shared.slice() };
                        for r in band {
                            let dst = (row_range.start + r) * n + col_range.start;
                            buf[dst..dst + width]
                                .copy_from_slice(&data[r * width..(r + 1) * width]);
                        }
                    },
                );
            }
            Backing::Disk(_) => {
                for (r, i) in row_range.clone().enumerate() {
                    let row = &data[r * width..(r + 1) * width];
                    self.pwrite(cast_bytes(row), elem_offset(i * n + col_range.start))?;
                }
            }
        }
        if width == n {
            // Consecutive whole rows: hash the data in hand instead of
            // re-reading the backing.
            self.sdc_record_rows(row_range.start, data);
        } else {
            self.sdc_mark_dirty(row_range.clone());
        }
        self.strike(row_range.start, count)
    }

    /// Read the rectangular block `row_range × col_range` (row-major):
    /// one positional read per row.
    pub fn read_block(
        &self,
        row_range: Range<usize>,
        col_range: Range<usize>,
    ) -> io::Result<Vec<Dist>> {
        let mut out = vec![0 as Dist; row_range.len() * col_range.len()];
        self.read_into(row_range, col_range, &mut out, None)?;
        Ok(out)
    }

    /// Read full row `i` (a one-row [`Self::read_block`]).
    pub fn read_row(&self, i: usize) -> io::Result<Vec<Dist>> {
        self.read_block(i..i + 1, 0..self.n)
    }

    /// Read one element (a one-cell [`Self::read_block`]) — convenience
    /// for spot checks; row-granular I/O for bulk access.
    pub fn get(&self, i: usize, j: usize) -> io::Result<Dist> {
        Ok(self.read_block(i..i + 1, j..j + 1)?[0])
    }

    /// The accounted read behind every read: the prelude, the copy out
    /// of the backing, the registry check of full-width rows (partial
    /// reads are covered by the barrier sweep instead) and the consumed
    /// marks. With `digests`, each full row's digest — computed once,
    /// shared with the registry check — is appended to it.
    fn read_into(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        out: &mut [Dist],
        mut digests: Option<&mut Vec<u64>>,
    ) -> io::Result<()> {
        let (n, width, count) = (self.n, cols.len(), rows.len() as u64);
        assert!(rows.end <= n && cols.end <= n);
        self.prelude(count, count, count, 0)?;
        match &self.backing {
            Backing::Memory(data) => {
                let threads = self.exec.resolved_threads();
                let shared = SharedSliceMut::new(out);
                par_bands_weighted(
                    rows.len(),
                    threads,
                    STORE_MIN_ROWS_PER_BAND,
                    width,
                    |band| {
                        // SAFETY: bands write disjoint row ranges of `out`.
                        let out = unsafe { shared.slice() };
                        for r in band {
                            let src = (rows.start + r) * n + cols.start;
                            out[r * width..(r + 1) * width]
                                .copy_from_slice(&data[src..src + width]);
                        }
                    },
                );
            }
            Backing::Disk(_) => {
                for (r, i) in rows.clone().enumerate() {
                    let row = &mut out[r * width..(r + 1) * width];
                    self.pread(cast_bytes_mut(row), elem_offset(i * n + cols.start))?;
                }
            }
        }
        if width == n && (self.sdc.is_some() || digests.is_some()) {
            for (r, i) in rows.clone().enumerate() {
                let digest = digest::dist_digest(&out[r * n..(r + 1) * n]);
                self.sdc_check_row(i, digest)?;
                if let Some(d) = digests.as_deref_mut() {
                    d.push(digest);
                }
            }
        }
        self.sdc_mark_consumed(rows);
        Ok(())
    }

    /// One hashed pass over every row in order: `each` sees the rows,
    /// and the result is the [`panel_checksum`] of each `panel_rows`-row
    /// panel. A `Memory` backing is handed over whole and hashed with
    /// panels across the exec backend's threads, its prelude charged up
    /// front for all `n` rows (the same tick totals as a row pass). On a
    /// `Disk` backing each row is one accounted read, so the checksums
    /// attest to what is actually on disk, and each row's digest serves
    /// both the registry check and its panel.
    fn hashed_pass(
        &self,
        panel_rows: usize,
        mut each: impl FnMut(&[Dist]) -> io::Result<()>,
    ) -> io::Result<Vec<u64>> {
        let n = self.n;
        if let Backing::Memory(data) = &self.backing {
            self.prelude(n as u64, n as u64, 0, 0)?;
            each(data)?;
            let threads = self.exec.resolved_threads();
            return Ok(block_panel_checksums(data, n, panel_rows, threads));
        }
        let mut row = vec![0 as Dist; n];
        let mut digests = Vec::with_capacity(n);
        for i in 0..n {
            self.read_into(i..i + 1, 0..n, &mut row, Some(&mut digests))?;
            each(&row)?;
        }
        Ok(fold_panels(&digests, panel_rows))
    }

    /// [`panel_checksum`] of each consecutive panel of `panel_rows` rows
    /// (the last panel may be shorter).
    pub fn panel_checksums(&self, panel_rows: usize) -> io::Result<Vec<u64>> {
        assert!(panel_rows >= 1, "panel_rows must be positive");
        self.hashed_pass(panel_rows, |_| Ok(()))
    }

    /// Persist the matrix to `path` in the persisted format (see
    /// [`Self::open`]): header, payload, then a footer of
    /// [`SDC_PANEL_ROWS`]-row [`panel_checksum`]s, so a computed result
    /// outlives the store. A `Disk` backing is read back row by row
    /// through the accounted path; each row is hashed once.
    ///
    /// The write is **atomic and durable**: temporary sibling file,
    /// `sync_all`, rename over `path`, directory fsync — a crash or
    /// `ENOSPC` mid-persist never leaves a torn file at `path`, and a
    /// returned persist survives power loss.
    ///
    /// A `Disk`-backed store refuses to persist into its own spill
    /// directory: the target could collide with (or be cleaned up
    /// alongside) live spill files, destroying the matrix it was meant
    /// to save.
    pub fn persist<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Backing::Disk(d) = &self.backing {
            if let Some(own) = d
                .spill_dir()
                .filter(|own| disk::same_dir(own, disk::parent_dir(path)))
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "refusing to persist into the store's own spill directory {}",
                        own.display()
                    ),
                ));
            }
        }
        disk::write_persisted(path, self.n, |out: &mut BufWriter<File>| {
            self.hashed_pass(SDC_PANEL_ROWS, |rows| out.write_all(cast_bytes(rows)))
        })
    }

    /// Open a [`Self::persist`]ed `n × n` matrix read-only, in place (the
    /// caller owns the file; drop deletes nothing), with the verified
    /// [`SDC_PANEL_ROWS`]-row panel checksums of its footer.
    ///
    /// The whole file is checked here, once: the header must record
    /// `n`, the footer must be present and of format version 2, and
    /// every panel of the payload — read in 1 MiB positional reads — must
    /// match its recorded checksum. A malformed file is `InvalidData`
    /// naming what was found; a failing panel is a typed
    /// [`crate::ApspError::Corruption`] naming the panel. Writes through
    /// the opened store fail (the file is opened without write access).
    pub fn open<P: AsRef<Path>>(path: P, n: usize) -> io::Result<(Self, Vec<u64>)> {
        let (disk, checksums) = disk::open_persisted(path.as_ref(), n)?;
        Ok((Self::with_backing(n, Backing::Disk(disk)), checksums))
    }

    /// Materialize the whole matrix (tests and small-n tooling only).
    pub fn to_dist_matrix(&self) -> io::Result<apsp_cpu::DistMatrix> {
        // The materialized matrix is the run's final answer: sweep the
        // guard registry first so at-rest damage never leaves the store.
        self.verify_checksums()?;
        let data = match &self.backing {
            Backing::Memory(buf) => buf.clone(),
            Backing::Disk(..) => self.read_block(0..self.n, 0..self.n)?,
        };
        Ok(apsp_cpu::DistMatrix::from_raw(self.n, data))
    }
}

/// Byte offset of element `elem` of a row-major payload.
fn elem_offset(elem: usize) -> u64 {
    (elem * std::mem::size_of::<Dist>()) as u64
}

fn cast_bytes(d: &[Dist]) -> &[u8] {
    // SAFETY: u32 has no padding or invalid bit patterns.
    unsafe { std::slice::from_raw_parts(d.as_ptr() as *const u8, std::mem::size_of_val(d)) }
}

fn cast_bytes_mut(d: &mut [Dist]) -> &mut [u8] {
    // SAFETY: as above; all byte patterns are valid u32s.
    unsafe { std::slice::from_raw_parts_mut(d.as_mut_ptr() as *mut u8, std::mem::size_of_val(d)) }
}

#[cfg(test)]
mod tests;
