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

use crate::error::{CorruptionMark, SdcMark};
use crate::options::SdcGuardMode;
use crate::supervisor::Supervisor;
use apsp_cpu::parallel::{par_bands_weighted, ExecBackend, SharedSliceMut};
use apsp_graph::{Dist, INF};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// `ENOSPC` — the errno a full filesystem raises on write.
const ENOSPC_ERRNO: i32 = 28;

/// Magic tag opening every [`TileStore::persist`]ed file.
const PERSIST_MAGIC: u64 = u64::from_le_bytes(*b"APSPTILE");

/// Persisted-file header: the magic tag plus the matrix dimension, both
/// little-endian `u64`. [`TileStore::open`] validates the recorded
/// geometry against the requested one — a wrong-dimension file is
/// rejected even when its byte length happens to match.
const PERSIST_HEADER_BYTES: u64 = 16;

/// Magic tag opening the per-panel checksum footer (format version 2:
/// [`panel_checksum`]s of [`row_digest`]s) that [`TileStore::persist`]
/// appends after the payload. [`TileStore::open`] accepts files with or
/// without a footer (pre-footer persists stay readable); when present,
/// each panel is verified against its recorded checksum on the first
/// read that touches it.
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"APSPSUM2");

/// Footer magic of format version 1, whose panel checksums were
/// byte-serial FNV-1a. [`TileStore::open`] rejects such files as
/// `InvalidData` naming the version: their checksums cannot be checked
/// by this build, and a mismatch must never be mistaken for damage.
const FOOTER_MAGIC_V1: u64 = u64::from_le_bytes(*b"APSPSUMS");

/// Footer prelude: the footer magic plus the panel count, both
/// little-endian `u64`, followed by one `u64` checksum per panel.
const FOOTER_HEADER_BYTES: u64 = 16;

/// Rows per checksum panel — for the persisted footer and for panel
/// attribution in [`crate::ApspError::SilentCorruption`] (`panel` =
/// `row / SDC_PANEL_ROWS`). Matches the checkpoint layer's default
/// panel geometry so the two layers report comparable coordinates.
pub const SDC_PANEL_ROWS: usize = 64;

/// Spill-file split threshold for [`StorageBackend::Disk`]: shards roll
/// over at 1 GiB, the split the reference `diskMatrix` implementations
/// use. Row-aligned, so the effective shard size is the largest multiple
/// of the row width at or under this (one full row minimum).
pub const DEFAULT_SHARD_BYTES: u64 = 1 << 30;

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

/// One injectable disk-I/O fault (see [`DiskFaultPlan`]).
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

/// A deterministic schedule of disk faults, addressed by positional-I/O
/// ordinal: the store counts every positional write and read it issues
/// (a block write of `r` rows is `r` write ops) and fires the fault
/// whose ordinal matches. Ordinals are 0-based from the moment the plan
/// is armed. Plans only affect `Disk`-backed stores; arming one on a
/// memory store is a no-op by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// `(write-op ordinal, fault)` pairs. `ShortRead` entries here are
    /// ignored (wrong direction); keep entries direction-appropriate.
    pub write_faults: Vec<(u64, DiskFault)>,
    /// `(read-op ordinal, fault)` pairs. `ShortWrite`/`Enospc` entries
    /// here are ignored.
    pub read_faults: Vec<(u64, DiskFault)>,
}

impl DiskFaultPlan {
    fn write_fault_at(&self, op: u64) -> Option<DiskFault> {
        self.write_faults
            .iter()
            .find(|(at, _)| *at == op)
            .map(|(_, f)| *f)
    }

    fn read_fault_at(&self, op: u64) -> Option<DiskFault> {
        self.read_faults
            .iter()
            .find(|(at, _)| *at == op)
            .map(|(_, f)| *f)
    }
}

#[derive(Debug)]
struct FaultState {
    plan: DiskFaultPlan,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

/// An armed crash point (see [`TileStore::arm_crash`]): the store
/// services `after_ops` row-granular operations, then every subsequent
/// operation fails as if the owning process had died mid-run. Unlike
/// [`DiskFaultPlan`], this counts logical row operations on *both*
/// backings, so kill/resume behaviour is testable in the `Memory`
/// regime too.
#[derive(Debug)]
struct CrashState {
    after_ops: u64,
    ticks: AtomicU64,
    fired: AtomicBool,
}

/// FNV-1a over `bytes`, continuing from `hash` (seed with
/// [`FNV_OFFSET_BASIS`]). Byte-serial, so it is reserved for short
/// metadata — manifest and calibration self-checksums, graph, profile
/// and options fingerprints. Bulk matrix data uses [`row_digest`].
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a 64-bit offset basis — the seed for [`fnv1a`].
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Independent `u64` lanes of [`row_digest`]; one 64-byte chunk feeds
/// one word to each.
const DIGEST_LANES: usize = 8;
const DIGEST_CHUNK: usize = DIGEST_LANES * 8;
/// Odd multiplier of the digest step (2⁶⁴/φ rounded to odd).
const DIGEST_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Seed of lane 0 (lane `l` starts at `DIGEST_SEED + l`) and of the
/// panel fold.
const DIGEST_SEED: u64 = 0x2545_F491_4F6C_DD1D;

/// One digest step: absorb word `w` into state `h`. A bijection of `h`
/// for fixed `w` (xor, odd multiply and xorshift are each invertible),
/// so a difference in `h` or in `w` alone always survives the step; the
/// xorshift carries high-bit differences back down, which a bare
/// multiply would leave for the next word to cancel.
#[inline(always)]
fn digest_step(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(DIGEST_MUL);
    x ^ (x >> 32)
}

/// Lane-parallel digest of one row's bytes — the checksum of every bulk
/// integrity check (SDC registry, persisted footer, checkpoint manifest,
/// service result cache). Eight independent lanes each absorb one
/// little-endian `u64` of every 64-byte chunk, so the multiply chains
/// overlap instead of serializing on one state as FNV-1a does; a short
/// tail is zero-padded into a last chunk, and the byte length seeds the
/// final fold of the lanes. Plain Rust, identical on every host and
/// byte order.
pub fn row_digest(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; DIGEST_LANES] = std::array::from_fn(|l| DIGEST_SEED + l as u64);
    let mut absorb = |chunk: &[u8]| {
        for (h, w) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *h = digest_step(*h, u64::from_le_bytes(w.try_into().unwrap()));
        }
    };
    let mut chunks = bytes.chunks_exact(DIGEST_CHUNK);
    for chunk in &mut chunks {
        absorb(chunk);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; DIGEST_CHUNK];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&last);
    }
    lanes
        .into_iter()
        .fold(DIGEST_SEED ^ bytes.len() as u64, digest_step)
}

/// A panel's checksum: the ordered fold of its rows' [`row_digest`]s.
/// Every panel checksum in the system — persisted footer, checkpoint
/// manifest, [`TileStore::panel_checksums`], the service's result
/// cache — is this one definition, so each can be derived from row
/// digests an earlier check already computed.
pub fn panel_checksum(row_digests: impl IntoIterator<Item = u64>) -> u64 {
    row_digests.into_iter().fold(DIGEST_SEED, digest_step)
}

/// [`row_digest`] of a row of distances.
fn dist_digest(row: &[Dist]) -> u64 {
    row_digest(cast_bytes(row))
}

/// [`panel_checksum`] of each `panel_rows`-row panel of a contiguous
/// row-major block of `n`-wide rows (the last panel may be shorter),
/// panels split across up to `threads` threads.
pub(crate) fn block_panel_checksums(
    data: &[Dist],
    n: usize,
    panel_rows: usize,
    threads: usize,
) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let panel_len = panel_rows.saturating_mul(n);
    let mut out = vec![0u64; data.len().div_ceil(panel_len)];
    let shared = SharedSliceMut::new(&mut out);
    par_bands_weighted(out.len(), threads, 1, panel_len, |band| {
        // SAFETY: each band writes a disjoint range of `out`.
        let out = unsafe { shared.slice() };
        for p in band {
            let start = p * panel_len;
            let panel = &data[start..start.saturating_add(panel_len).min(data.len())];
            out[p] = panel_checksum(panel.chunks_exact(n).map(dist_digest));
        }
    });
    out
}

/// Fsync directory `dir`, making a rename into it durable: without
/// this a power loss can keep a later rename while losing an earlier
/// one.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// One spill file of a disk-backed store.
struct DiskShard {
    file: File,
    /// Empty for files opened via [`TileStore::open`] (caller-owned;
    /// drop removes nothing).
    path: PathBuf,
}

/// The disk backing: consecutive row-aligned shard files presenting one
/// flat logical payload. Shard `k` holds logical payload bytes
/// `[k·cap, (k+1)·cap)`; because `cap` is a multiple of the row width, a
/// single row is always one `pread`/`pwrite`, and only multi-row calls
/// ever split across files.
struct DiskBacking {
    shards: Vec<DiskShard>,
    /// Shard capacity in bytes (row-aligned; the last shard may hold
    /// less). Never zero.
    cap: u64,
    /// Byte offset of logical payload offset 0 within shard 0: zero for
    /// spill files, the header length for files opened via
    /// [`TileStore::open`] (always single-shard).
    base: u64,
}

impl DiskBacking {
    /// Apply `f` to each `(file, file_offset, buf_range)` segment of the
    /// logical payload range `offset..offset + len`.
    fn for_each_segment<F>(&self, offset: u64, len: usize, mut f: F) -> io::Result<()>
    where
        F: FnMut(&File, u64, std::ops::Range<usize>) -> io::Result<()>,
    {
        let mut pos = 0usize;
        while pos < len {
            let o = offset + pos as u64;
            let idx = (o / self.cap) as usize;
            let local = o % self.cap;
            let take = ((self.cap - local) as usize).min(len - pos);
            let file_off = if idx == 0 { self.base + local } else { local };
            f(&self.shards[idx].file, file_off, pos..pos + take)?;
            pos += take;
        }
        Ok(())
    }

    /// Positional write of the logical payload range, splitting across
    /// shard files as needed. No fault accounting — that lives in
    /// [`write_at`], once per *logical* call regardless of segment count.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.for_each_segment(offset, buf.len(), |file, off, range| {
            file.write_all_at(&buf[range], off)
        })
    }

    /// Positional read of the logical payload range (see
    /// [`DiskBacking::write_all_at`]).
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.for_each_segment(offset, buf.len(), |file, off, range| {
            file.read_exact_at(&mut buf[range], off)
        })
    }
}

enum Backing {
    Memory(Vec<Dist>),
    Disk(DiskBacking),
}

/// Live state of the silent-corruption guard (see
/// [`TileStore::set_sdc_guard`]): one [`row_digest`] per row, plus a
/// dirty flag for rows whose checksum is stale after a partial (block)
/// write. Full-row writes re-hash eagerly from the data being written
/// (no I/O amplification); partial writes only mark dirty, and the
/// stale rows are re-hashed lazily at the next
/// [`TileStore::verify_checksums`] barrier sweep.
#[derive(Debug)]
struct SdcState {
    mode: SdcGuardMode,
    rows: Vec<u64>,
    dirty: Vec<bool>,
    /// Whether the row was read (by accounted I/O) since its checksum
    /// was last recorded. A mismatch on an unread row is *contained* —
    /// the damage cannot have propagated into other rows — so the
    /// recovery ladder may repair just that row's panel. A mismatch on
    /// a consumed row reports unlocalized instead, forcing the
    /// round-scoped rung that discards all derived state.
    consumed: Vec<bool>,
}

/// First-read verification state for stores opened from a persisted
/// file that carries a checksum footer: `pending[p]` holds panel `p`'s
/// recorded checksum until the first read touching it verifies (then
/// `None`). The first *write* through the store invalidates the whole
/// footer — both here and on disk — since the persisted checksums no
/// longer describe the content.
#[derive(Debug)]
struct OpenVerify {
    pending: Mutex<Vec<Option<u64>>>,
    invalidated: bool,
}

/// An `n × n` row-major distance matrix in RAM or on disk.
pub struct TileStore {
    n: usize,
    backing: Backing,
    faults: Option<FaultState>,
    crash: Option<CrashState>,
    supervision: Option<Supervisor>,
    exec: ExecBackend,
    sdc: Option<Mutex<SdcState>>,
    sdc_round: AtomicU64,
    bit_flips: Vec<(u64, u64)>,
    open_verify: Option<OpenVerify>,
}

/// Minimum rows per band for the store's staging copies — below this a
/// band is cheaper to run inline than to hand to a thread.
const STORE_MIN_ROWS_PER_BAND: usize = 64;

/// Bytes per system call of the store's sequential whole-matrix passes
/// (the guard's unaccounted row scans read this much at a time, at
/// least one row; [`TileStore::persist`] buffers this much per write):
/// large enough to amortize the call over many rows, small enough to
/// stay cache-resident while the rows are hashed.
const BULK_IO_BYTES: usize = 1 << 20;

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
        match backend {
            StorageBackend::Memory => {
                let mut data = vec![INF; n * n];
                for i in 0..n {
                    data[i * n + i] = 0;
                }
                Ok(TileStore {
                    n,
                    backing: Backing::Memory(data),
                    faults: None,
                    crash: None,
                    supervision: None,
                    exec: ExecBackend::default(),
                    sdc: None,
                    sdc_round: AtomicU64::new(0),
                    bit_flips: Vec::new(),
                    open_verify: None,
                })
            }
            StorageBackend::Disk(dir) => Self::new_disk(n, dir, DEFAULT_SHARD_BYTES),
            StorageBackend::DiskSharded { dir, shard_bytes } => {
                Self::new_disk(n, dir, *shard_bytes)
            }
        }
    }

    /// Disk-backed construction: row-aligned spill shards of at most
    /// `shard_bytes` each (minimum one row per shard).
    fn new_disk(n: usize, dir: &Path, shard_bytes: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let row_bytes = n * std::mem::size_of::<Dist>();
        let rows_per_shard = if row_bytes == 0 {
            1
        } else {
            ((shard_bytes / row_bytes as u64) as usize).max(1)
        };
        let num_shards = n.div_ceil(rows_per_shard).max(1);
        let first = unique_file(dir);
        let mut shards: Vec<DiskShard> = Vec::with_capacity(num_shards);
        let open_all = |shards: &mut Vec<DiskShard>| -> io::Result<()> {
            for s in 0..num_shards {
                let path = if s == 0 {
                    first.clone()
                } else {
                    // Sibling shards append `.s<k>` to the spill name, so
                    // one store's family is recognizable (and removable)
                    // as a unit.
                    PathBuf::from(format!("{}.s{s}", first.display()))
                };
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)?;
                let rows_here = n.min((s + 1) * rows_per_shard) - s * rows_per_shard;
                file.set_len((rows_here * row_bytes) as u64)?;
                shards.push(DiskShard { file, path });
            }
            Ok(())
        };
        if let Err(e) = open_all(&mut shards) {
            for shard in &shards {
                let _ = std::fs::remove_file(&shard.path);
            }
            return Err(e);
        }
        let store = TileStore {
            n,
            backing: Backing::Disk(DiskBacking {
                shards,
                cap: ((rows_per_shard * row_bytes) as u64).max(1),
                base: 0,
            }),
            faults: None,
            crash: None,
            supervision: None,
            exec: ExecBackend::default(),
            sdc: None,
            sdc_round: AtomicU64::new(0),
            bit_flips: Vec::new(),
            open_verify: None,
        };
        // Materialize the INF + zero-diagonal initialization one
        // row at a time so even huge matrices never need n² RAM.
        let mut row = vec![INF; n];
        for i in 0..n {
            if i > 0 {
                row[i - 1] = INF;
            }
            row[i] = 0;
            store.write_row_raw(i, &row)?;
        }
        Ok(store)
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

    /// Arm a deterministic [`DiskFaultPlan`]. Positional-I/O ordinals
    /// restart at zero; any previously armed plan is replaced. Memory
    /// backings issue no positional I/O, so the plan never fires there.
    pub fn arm_faults(&mut self, plan: DiskFaultPlan) {
        self.faults = Some(FaultState {
            plan,
            write_ops: AtomicU64::new(0),
            read_ops: AtomicU64::new(0),
        });
    }

    /// Remove an armed fault plan.
    pub fn disarm_faults(&mut self) {
        self.faults = None;
    }

    /// Attach a [`Supervisor`]: every row-granular operation checks its
    /// cancellation token (a trip surfaces as a typed
    /// [`crate::ApspError::Cancelled`] through the store's error
    /// plumbing), and [`DiskFault::HangMicros`] faults charge their
    /// simulated stall to its disk-stall clock.
    pub fn set_supervision(&mut self, sup: Supervisor) {
        self.supervision = Some(sup);
    }

    /// Detach any attached [`Supervisor`].
    pub fn clear_supervision(&mut self) {
        self.supervision = None;
    }

    /// Cancellation check shared by every row-granular operation.
    fn supervision_tick(&self, ops: u64) -> io::Result<()> {
        match &self.supervision {
            Some(sup) => sup.io_tick(ops),
            None => Ok(()),
        }
    }

    /// Telemetry row accounting, reached through the attached
    /// [`Supervisor`]; a no-op when supervision or telemetry is off.
    fn count_rows(&self, reads: u64, writes: u64) {
        if let Some(sup) = &self.supervision {
            sup.telemetry().count_store_rows(reads, writes);
        }
    }

    /// Arm a crash point: the next `after_ops` row-granular operations
    /// (a block access of `r` rows counts as `r`, matching the disk
    /// backing's positional-I/O accounting) succeed, then every
    /// subsequent operation fails with an "injected crash" I/O error —
    /// the store behaves as if its process died mid-run. Works on both
    /// backings; any previously armed crash point is replaced.
    pub fn arm_crash(&mut self, after_ops: u64) {
        self.crash = Some(CrashState {
            after_ops,
            ticks: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        });
    }

    /// Remove an armed crash point, reviving a "dead" store.
    pub fn disarm_crash(&mut self) {
        self.crash = None;
    }

    /// Row-granular operations serviced since [`Self::arm_crash`]; 0
    /// when none is armed. Arm with `u64::MAX` to count a full run
    /// without crashing it.
    pub fn crash_ops(&self) -> u64 {
        self.crash
            .as_ref()
            .map(|c| c.ticks.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Count `ops` operations against the armed crash point, failing
    /// once the budget is exhausted (and forever after).
    fn crash_tick(&self, ops: u64) -> io::Result<()> {
        let Some(crash) = &self.crash else {
            return Ok(());
        };
        let before = crash.ticks.fetch_add(ops, Ordering::Relaxed);
        if crash.fired.load(Ordering::Relaxed) || before.saturating_add(ops) > crash.after_ops {
            crash.fired.store(true, Ordering::Relaxed);
            return Err(io::Error::other(format!(
                "injected crash after {} store ops: process terminated",
                crash.after_ops
            )));
        }
        Ok(())
    }

    /// `(write, read)` positional-I/O ops issued since the plan was
    /// armed; `(0, 0)` when no plan is armed.
    pub fn io_ops(&self) -> (u64, u64) {
        match &self.faults {
            Some(f) => (
                f.write_ops.load(Ordering::Relaxed),
                f.read_ops.load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    /// Choose the host execution backend for bulk staging copies and
    /// checksum computation on the `Memory` backing. `Disk` I/O always
    /// stays sequential: fault-injection ordinals and crash-tick
    /// determinism depend on the positional-I/O order.
    pub fn set_exec_backend(&mut self, exec: ExecBackend) {
        self.exec = exec;
    }

    /// Enable (or disable, with [`SdcGuardMode::Off`]) the
    /// silent-corruption guard: a per-row [`row_digest`] registry seeded
    /// from the store's *current* contents. Full-row reads verify
    /// against the registry; [`Self::verify_checksums`] sweeps the whole
    /// registry at barriers and run end. A mismatch surfaces as a typed
    /// [`crate::ApspError::SilentCorruption`] through the store's error
    /// plumbing. Guard reads bypass fault plans, crash points,
    /// supervision ticks, and telemetry counters, so arming the guard
    /// never perturbs injected-fault ordinals or the simulated clock.
    pub fn set_sdc_guard(&mut self, mode: SdcGuardMode) -> io::Result<()> {
        if !mode.is_on() {
            self.sdc = None;
            return Ok(());
        }
        let n = self.n;
        let mut rows = vec![0u64; n];
        self.scan_rows(0..n, |i, row| {
            rows[i] = dist_digest(row);
            Ok(())
        })?;
        self.sdc = Some(Mutex::new(SdcState {
            mode,
            rows,
            dirty: vec![false; n],
            consumed: vec![false; n],
        }));
        Ok(())
    }

    /// The active guard mode ([`SdcGuardMode::Off`] when disarmed).
    pub fn sdc_guard(&self) -> SdcGuardMode {
        self.sdc
            .as_ref()
            .map(|s| s.lock().mode)
            .unwrap_or(SdcGuardMode::Off)
    }

    /// Tag subsequent guard detections with the driver's current round /
    /// batch / flush ordinal, so a tripped guard reports *when* as well
    /// as *where*.
    pub fn set_sdc_round(&self, round: usize) {
        self.sdc_round.store(round as u64, Ordering::Relaxed);
    }

    fn sdc_round(&self) -> usize {
        self.sdc_round.load(Ordering::Relaxed) as usize
    }

    /// Arm a one-shot at-rest bit flip: the store services `after_ops`
    /// row-granular *write* operations cleanly, then the write that
    /// exhausts the budget has one bit of its just-written row's stored
    /// bytes flipped (`bit` wraps modulo the row's bit width) — *after*
    /// the guard registry recorded the clean data, modelling corruption
    /// that strikes between a write and the next read. Works on both
    /// backings; multiple flips count down concurrently. With the guard
    /// off the flip is silent — the wrong-distances baseline the guard
    /// exists to close.
    pub fn arm_bit_flip(&mut self, after_ops: u64, bit: u64) {
        self.bit_flips.push((after_ops, bit));
    }

    /// Remove any armed (unfired) bit flips.
    pub fn clear_bit_flips(&mut self) {
        self.bit_flips.clear();
    }

    /// Full-registry verification for barrier and run-end gates: rows
    /// marked dirty by partial writes are re-hashed (their change was
    /// legitimate); clean rows must still match their recorded checksum.
    /// A no-op when the guard is off.
    pub fn verify_checksums(&self) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let mut state = sdc.lock();
        let state = &mut *state;
        self.scan_rows(0..self.n, |i, row| {
            let hash = dist_digest(row);
            if state.dirty[i] {
                state.rows[i] = hash;
                state.dirty[i] = false;
                state.consumed[i] = false;
            } else if hash != state.rows[i] {
                return Err(self.sdc_mismatch(i, state.consumed[i]));
            }
            Ok(())
        })
    }

    /// Re-seed the checksum registry for `rows` from their *current*
    /// content, clearing dirty and consumed marks. Recovery-only: a
    /// ladder rung that recomputes these rows from the graph *lazily*
    /// (batch-by-batch, component-by-component) calls this first, so the
    /// stale mismatch it is recovering from cannot re-fire at an
    /// intermediate barrier ahead of the rewrite reaching the corrupt
    /// row. Never call it on rows that will not be rewritten — that
    /// would absorb real corruption into the registry.
    pub fn sdc_rebaseline(&self, rows: std::ops::Range<usize>) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let mut state = sdc.lock();
        self.scan_rows(rows, |i, row| {
            state.rows[i] = dist_digest(row);
            state.dirty[i] = false;
            state.consumed[i] = false;
            Ok(())
        })
    }

    /// The typed-SDC `io::Error` for a checksum mismatch on row `i`.
    /// `consumed` rows report unlocalized (`usize::MAX`): the corrupt
    /// content was already read, so panel-scoped repair cannot undo
    /// what may have propagated.
    fn sdc_mismatch(&self, i: usize, consumed: bool) -> io::Error {
        io::Error::other(SdcMark {
            panel: if consumed {
                usize::MAX
            } else {
                i / SDC_PANEL_ROWS
            },
            round: self.sdc_round(),
            detail: format!(
                "row {i} no longer matches its recorded checksum{}",
                if consumed {
                    " (read since corruption; damage may have propagated)"
                } else {
                    ""
                }
            ),
        })
    }

    /// Unaccounted full-row read for the semantic (ABFT) guards in
    /// `core::sdc`: like [`Self::read_row`] but bypassing fault plans,
    /// crash points, supervision ticks, and telemetry counters, so the
    /// invariant checks never perturb injected-fault ordinals or the
    /// simulated clock.
    pub(crate) fn guard_read_row(&self, i: usize) -> io::Result<Vec<Dist>> {
        let mut row = vec![0 as Dist; self.n];
        self.row_unaccounted_into(i, &mut row)?;
        Ok(row)
    }

    /// Full-row read bypassing fault plans, crash points, supervision
    /// ticks, and telemetry counters — the guard must observe the store
    /// without perturbing injected-fault ordinals or the simulated
    /// clock.
    fn row_unaccounted_into(&self, i: usize, buf: &mut [Dist]) -> io::Result<()> {
        match &self.backing {
            Backing::Memory(data) => {
                buf.copy_from_slice(&data[i * self.n..(i + 1) * self.n]);
                Ok(())
            }
            Backing::Disk(d) => {
                let offset = (i * self.n * std::mem::size_of::<Dist>()) as u64;
                d.read_exact_at(cast_bytes_mut(buf), offset)
            }
        }
    }

    /// Visit `rows` in order through unaccounted reads (see
    /// [`Self::row_unaccounted_into`]): memory rows in place, disk rows
    /// up to [`BULK_IO_BYTES`] per positional read.
    fn scan_rows<F>(&self, rows: std::ops::Range<usize>, mut f: F) -> io::Result<()>
    where
        F: FnMut(usize, &[Dist]) -> io::Result<()>,
    {
        let n = self.n;
        if rows.is_empty() {
            return Ok(());
        }
        match &self.backing {
            Backing::Memory(data) => {
                for i in rows {
                    f(i, &data[i * n..(i + 1) * n])?;
                }
            }
            Backing::Disk(d) => {
                let row_bytes = n * std::mem::size_of::<Dist>();
                let per_read = (BULK_IO_BYTES / row_bytes).clamp(1, rows.len());
                let mut buf = vec![0 as Dist; per_read * n];
                let mut i = rows.start;
                while i < rows.end {
                    let take = per_read.min(rows.end - i);
                    let chunk = &mut buf[..take * n];
                    d.read_exact_at(cast_bytes_mut(chunk), (i * row_bytes) as u64)?;
                    for (k, row) in chunk.chunks_exact(n).enumerate() {
                        f(i + k, row)?;
                    }
                    i += take;
                }
            }
        }
        Ok(())
    }

    /// Record fresh checksums for full rows just written from `rows`
    /// (one or more consecutive `n`-wide rows starting at `row_start`).
    fn sdc_record_rows(&mut self, row_start: usize, rows: &[Dist]) {
        let n = self.n;
        if let Some(sdc) = &mut self.sdc {
            let state = &mut *sdc.lock();
            for (k, chunk) in rows.chunks_exact(n).enumerate() {
                state.rows[row_start + k] = dist_digest(chunk);
                state.dirty[row_start + k] = false;
                state.consumed[row_start + k] = false;
            }
        }
    }

    /// Mark rows stale after a partial (sub-row) write; they are
    /// re-hashed at the next [`Self::verify_checksums`] sweep.
    fn sdc_mark_dirty(&mut self, rows: std::ops::Range<usize>) {
        if let Some(sdc) = &mut self.sdc {
            let state = &mut *sdc.lock();
            for i in rows {
                state.dirty[i] = true;
            }
        }
    }

    /// Verify one full row's just-read data against the registry (skips
    /// dirty rows — their recorded checksum is legitimately stale).
    /// Returns the row's digest when the check computed it.
    fn sdc_verify_row_data(&self, i: usize, data: &[Dist]) -> io::Result<Option<u64>> {
        let Some(sdc) = &self.sdc else {
            return Ok(None);
        };
        let state = sdc.lock();
        if state.dirty[i] {
            return Ok(None);
        }
        let hash = dist_digest(data);
        if hash != state.rows[i] {
            return Err(self.sdc_mismatch(i, state.consumed[i]));
        }
        Ok(Some(hash))
    }

    /// Mark rows as read by accounted I/O (see [`SdcState::consumed`]).
    /// Called *after* any same-call verification, so the read that
    /// detects a mismatch still reports the damage as contained.
    fn sdc_mark_consumed(&self, rows: std::ops::Range<usize>) {
        if let Some(sdc) = &self.sdc {
            let state = &mut *sdc.lock();
            for i in rows {
                state.consumed[i] = true;
            }
        }
    }

    /// Before a partial write dirties a clean row, verify the row's
    /// *current* content against the registry. Without this, the
    /// sequence "flip fires on a clean row, a later partial write marks
    /// it dirty, the barrier sweep re-hashes it" would absorb the
    /// corruption as a legitimate change. Costs one unaccounted
    /// full-row read per clean→dirty transition (at most one per row
    /// per barrier interval).
    fn sdc_predirty_verify(&self, rows: std::ops::Range<usize>) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let mut buf = vec![0 as Dist; self.n];
        for i in rows {
            let expect = {
                let state = sdc.lock();
                if state.dirty[i] {
                    None
                } else {
                    Some((state.rows[i], state.consumed[i]))
                }
            };
            if let Some((hash, consumed)) = expect {
                self.row_unaccounted_into(i, &mut buf)?;
                if dist_digest(&buf) != hash {
                    return Err(self.sdc_mismatch(i, consumed));
                }
            }
        }
        Ok(())
    }

    /// Fire any armed bit flips whose write-op budget this operation
    /// exhausts. `count` is the operation's row-granular op count; a
    /// fired flip lands on the written row its residual budget points
    /// at. A flip landing on a dirty row finalizes that row's checksum
    /// from the (clean) backing first, so the corruption is never
    /// absorbed into the registry as a legitimate change.
    fn sdc_apply_write_flips(&mut self, row_start: usize, count: u64) -> io::Result<()> {
        if self.bit_flips.is_empty() || count == 0 {
            return Ok(());
        }
        let mut fired: Vec<(usize, u64)> = Vec::new();
        self.bit_flips.retain_mut(|(remaining, bit)| {
            if *remaining >= count {
                *remaining -= count;
                true
            } else {
                fired.push((row_start + *remaining as usize, *bit));
                false
            }
        });
        for (row, bit) in fired {
            if self.sdc.is_some() {
                let mut buf = vec![0 as Dist; self.n];
                self.row_unaccounted_into(row, &mut buf)?;
                let hash = dist_digest(&buf);
                if let Some(sdc) = &mut self.sdc {
                    let state = &mut *sdc.lock();
                    state.rows[row] = hash;
                    state.dirty[row] = false;
                    state.consumed[row] = false;
                }
            }
            self.flip_stored_bit(row, bit)?;
        }
        Ok(())
    }

    /// XOR one bit of row `row`'s stored bytes, directly in the backing
    /// (unaccounted — the fault is not an I/O operation the store
    /// performed, it is damage that happened to it).
    fn flip_stored_bit(&mut self, row: usize, bit: u64) -> io::Result<()> {
        let row_bytes = self.n * std::mem::size_of::<Dist>();
        if row_bytes == 0 {
            return Ok(());
        }
        let b = (bit % (row_bytes as u64 * 8)) as usize;
        match &mut self.backing {
            Backing::Memory(data) => {
                let n = self.n;
                let elems = &mut data[row * n..(row + 1) * n];
                cast_bytes_mut(elems)[b / 8] ^= 1 << (b % 8);
                Ok(())
            }
            Backing::Disk(d) => {
                let offset = (row * row_bytes) as u64 + (b / 8) as u64;
                let mut one = [0u8; 1];
                d.read_exact_at(&mut one, offset)?;
                one[0] ^= 1 << (b % 8);
                d.write_all_at(&one, offset)
            }
        }
    }

    /// On the first write through an opened store: the persisted footer
    /// no longer describes the content, so drop the pending first-read
    /// verifications and zero the on-disk footer magic (later opens then
    /// skip verification instead of reporting false corruption).
    fn open_note_write(&mut self) -> io::Result<()> {
        let Some(ov) = &mut self.open_verify else {
            return Ok(());
        };
        if ov.invalidated {
            return Ok(());
        }
        ov.invalidated = true;
        ov.pending.lock().clear();
        if let Backing::Disk(d) = &self.backing {
            // Only stores opened from a persisted file carry a footer,
            // and those are always single-shard: the footer lives past
            // the payload in shard 0's file.
            let footer_off = d.base + (self.n * self.n * std::mem::size_of::<Dist>()) as u64;
            d.shards[0].file.write_all_at(&[0u8; 8], footer_off)?;
        }
        Ok(())
    }

    /// First-read verification of persisted panel checksums for stores
    /// opened from a footer-carrying file: every not-yet-verified panel
    /// overlapping `rows` is hashed and checked, surfacing a typed
    /// [`crate::ApspError::Corruption`] on mismatch.
    fn open_verify_panels(&self, rows: std::ops::Range<usize>) -> io::Result<()> {
        if self.open_verify.is_none() || rows.is_empty() {
            return Ok(());
        }
        let lo = rows.start / SDC_PANEL_ROWS;
        let hi = (rows.end - 1) / SDC_PANEL_ROWS;
        for p in lo..=hi {
            if self.open_pending(p).is_none() {
                continue;
            }
            let start = p * SDC_PANEL_ROWS;
            let end = ((p + 1) * SDC_PANEL_ROWS).min(self.n);
            let mut digests = Vec::with_capacity(end - start);
            self.scan_rows(start..end, |_, row| {
                digests.push(dist_digest(row));
                Ok(())
            })?;
            self.open_settle(p, panel_checksum(digests))?;
        }
        Ok(())
    }

    /// Panel `p`'s recorded footer checksum, while it still awaits its
    /// first-read verification.
    fn open_pending(&self, p: usize) -> Option<u64> {
        let ov = self.open_verify.as_ref()?;
        ov.pending.lock().get(p).copied().flatten()
    }

    /// Check panel `p`'s freshly computed checksum `actual` against its
    /// pending footer entry (a no-op once verified): a match retires the
    /// entry, a mismatch is a typed [`crate::ApspError::Corruption`].
    fn open_settle(&self, p: usize, actual: u64) -> io::Result<()> {
        let Some(expect) = self.open_pending(p) else {
            return Ok(());
        };
        if actual != expect {
            let start = p * SDC_PANEL_ROWS;
            let end = ((p + 1) * SDC_PANEL_ROWS).min(self.n);
            return Err(io::Error::other(CorruptionMark {
                detail: format!(
                    "persisted matrix panel {p} (rows {start}..{end}) fails its recorded \
                     checksum on first read"
                ),
            }));
        }
        if let Some(ov) = &self.open_verify {
            ov.pending.lock()[p] = None;
        }
        Ok(())
    }

    /// Overwrite full row `i`.
    pub fn write_row(&mut self, i: usize, row: &[Dist]) -> io::Result<()> {
        assert_eq!(row.len(), self.n, "row width mismatch");
        assert!(i < self.n, "row index out of range");
        self.crash_tick(1)?;
        self.supervision_tick(1)?;
        self.count_rows(0, 1);
        let n = self.n;
        if let Backing::Memory(data) = &mut self.backing {
            data[i * n..(i + 1) * n].copy_from_slice(row);
        } else {
            self.write_row_raw(i, row)?;
        }
        self.open_note_write()?;
        self.sdc_record_rows(i, row);
        self.sdc_apply_write_flips(i, 1)
    }

    /// Positional row write available on the shared (`&self`) path — only
    /// valid for the disk backing (used during initialization).
    fn write_row_raw(&self, i: usize, row: &[Dist]) -> io::Result<()> {
        match &self.backing {
            Backing::Memory(_) => unreachable!("memory writes go through write_row"),
            Backing::Disk(d) => {
                let offset = (i * self.n * std::mem::size_of::<Dist>()) as u64;
                write_at(
                    d,
                    self.faults.as_ref(),
                    self.supervision.as_ref(),
                    cast_bytes(row),
                    offset,
                )
            }
        }
    }

    /// Overwrite `rows.len() / n` consecutive rows starting at `row_start`.
    pub fn write_rows(&mut self, row_start: usize, rows: &[Dist]) -> io::Result<()> {
        assert_eq!(rows.len() % self.n, 0, "partial rows in write_rows");
        let count = rows.len() / self.n;
        assert!(row_start + count <= self.n, "rows out of range");
        self.crash_tick(1)?; // one contiguous positional write
        self.supervision_tick(count as u64)?; // but cancellation stays row-granular
        self.count_rows(0, count as u64);
        match &mut self.backing {
            Backing::Memory(data) => {
                data[row_start * self.n..row_start * self.n + rows.len()].copy_from_slice(rows);
            }
            Backing::Disk(d) => {
                let offset = (row_start * self.n * std::mem::size_of::<Dist>()) as u64;
                write_at(
                    d,
                    self.faults.as_ref(),
                    self.supervision.as_ref(),
                    cast_bytes(rows),
                    offset,
                )?;
            }
        }
        self.open_note_write()?;
        self.sdc_record_rows(row_start, rows);
        self.sdc_apply_write_flips(row_start, count as u64)
    }

    /// Overwrite the rectangular block `row_range × col_range` with
    /// `data` (row-major, dimensions matching the ranges).
    pub fn write_block(
        &mut self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
        data: &[Dist],
    ) -> io::Result<()> {
        assert!(row_range.end <= self.n && col_range.end <= self.n);
        let width = col_range.len();
        assert_eq!(data.len(), row_range.len() * width, "block size mismatch");
        self.crash_tick(row_range.len() as u64)?;
        self.supervision_tick(row_range.len() as u64)?;
        self.count_rows(0, row_range.len() as u64);
        if width != self.n {
            // About to dirty these rows: any clean row must still match
            // its checksum, or at-rest damage would be absorbed by the
            // barrier re-hash of dirty rows.
            self.sdc_predirty_verify(row_range.clone())?;
        }
        let n = self.n;
        let threads = self.exec.resolved_threads();
        match &mut self.backing {
            Backing::Memory(buf) => {
                let rows = row_range.len();
                let row_start = row_range.start;
                let col_start = col_range.start;
                let shared = SharedSliceMut::new(buf.as_mut_slice());
                par_bands_weighted(rows, threads, STORE_MIN_ROWS_PER_BAND, width, |band| {
                    // SAFETY: bands write disjoint row ranges of the backing.
                    let buf = unsafe { shared.slice() };
                    for r in band {
                        let dst = (row_start + r) * n + col_start;
                        buf[dst..dst + width].copy_from_slice(&data[r * width..(r + 1) * width]);
                    }
                });
            }
            Backing::Disk(d) => {
                for (r, i) in row_range.clone().enumerate() {
                    let offset =
                        ((i * self.n + col_range.start) * std::mem::size_of::<Dist>()) as u64;
                    write_at(
                        d,
                        self.faults.as_ref(),
                        self.supervision.as_ref(),
                        cast_bytes(&data[r * width..(r + 1) * width]),
                        offset,
                    )?;
                }
            }
        }
        self.open_note_write()?;
        if width == n {
            // A full-width block is consecutive whole rows: hash the
            // data in hand instead of re-reading the backing.
            self.sdc_record_rows(row_range.start, data);
        } else {
            self.sdc_mark_dirty(row_range.clone());
        }
        self.sdc_apply_write_flips(row_range.start, row_range.len() as u64)
    }

    /// Read the rectangular block `row_range × col_range` (row-major).
    pub fn read_block(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> io::Result<Vec<Dist>> {
        assert!(row_range.end <= self.n && col_range.end <= self.n);
        let width = col_range.len();
        self.crash_tick(row_range.len() as u64)?;
        self.supervision_tick(row_range.len() as u64)?;
        self.count_rows(row_range.len() as u64, 0);
        self.open_verify_panels(row_range.clone())?;
        let rows = row_range.len();
        let mut out = vec![0 as Dist; rows * width];
        match &self.backing {
            Backing::Memory(data) => {
                let n = self.n;
                let row_start = row_range.start;
                let col_start = col_range.start;
                let threads = self.exec.resolved_threads();
                let shared = SharedSliceMut::new(out.as_mut_slice());
                par_bands_weighted(rows, threads, STORE_MIN_ROWS_PER_BAND, width, |band| {
                    // SAFETY: bands write disjoint row ranges of `out`.
                    let out = unsafe { shared.slice() };
                    for r in band {
                        let src = (row_start + r) * n + col_start;
                        out[r * width..(r + 1) * width].copy_from_slice(&data[src..src + width]);
                    }
                });
            }
            Backing::Disk(d) => {
                for (r, i) in row_range.clone().enumerate() {
                    let offset =
                        ((i * self.n + col_range.start) * std::mem::size_of::<Dist>()) as u64;
                    read_at(
                        d,
                        self.faults.as_ref(),
                        self.supervision.as_ref(),
                        cast_bytes_mut(&mut out[r * width..(r + 1) * width]),
                        offset,
                    )?;
                }
            }
        }
        if width == self.n && self.sdc.is_some() {
            // Full-width reads carry whole rows: verify them against the
            // registry at zero extra I/O. Partial reads are covered by
            // the barrier-time `verify_checksums` sweep instead.
            for (r, i) in row_range.clone().enumerate() {
                self.sdc_verify_row_data(i, &out[r * width..(r + 1) * width])?;
            }
        }
        self.sdc_mark_consumed(row_range);
        Ok(out)
    }

    /// Read full row `i`.
    pub fn read_row(&self, i: usize) -> io::Result<Vec<Dist>> {
        let mut row = vec![0 as Dist; self.n];
        self.read_row_into(i, &mut row, true)?;
        Ok(row)
    }

    /// [`Self::read_row`] into `buf`, returning the row's [`row_digest`]
    /// when the registry check computed it, so a caller that needs the
    /// digest too never hashes the row twice. With `check_footer` false
    /// the caller takes over the first-read footer check of the row's
    /// panel (see [`Self::panel_checksums`]).
    fn read_row_into(
        &self,
        i: usize,
        buf: &mut [Dist],
        check_footer: bool,
    ) -> io::Result<Option<u64>> {
        assert!(i < self.n);
        self.crash_tick(1)?;
        self.supervision_tick(1)?;
        self.count_rows(1, 0);
        if check_footer {
            self.open_verify_panels(i..i + 1)?;
        }
        match &self.backing {
            Backing::Memory(data) => buf.copy_from_slice(&data[i * self.n..(i + 1) * self.n]),
            Backing::Disk(d) => {
                let offset = (i * self.n * std::mem::size_of::<Dist>()) as u64;
                read_at(
                    d,
                    self.faults.as_ref(),
                    self.supervision.as_ref(),
                    cast_bytes_mut(buf),
                    offset,
                )?;
            }
        }
        let digest = self.sdc_verify_row_data(i, buf)?;
        self.sdc_mark_consumed(i..i + 1);
        Ok(digest)
    }

    /// [`Self::read_row_into`], always returning the row's digest.
    fn read_row_digest(&self, i: usize, buf: &mut [Dist], check_footer: bool) -> io::Result<u64> {
        let digest = self.read_row_into(i, buf, check_footer)?;
        Ok(digest.unwrap_or_else(|| dist_digest(buf)))
    }

    /// Read one element — convenience for spot checks; row-granular I/O
    /// for bulk access.
    pub fn get(&self, i: usize, j: usize) -> io::Result<Dist> {
        assert!(i < self.n && j < self.n);
        self.crash_tick(1)?;
        self.supervision_tick(1)?;
        self.count_rows(1, 0);
        self.open_verify_panels(i..i + 1)?;
        self.sdc_mark_consumed(i..i + 1);
        match &self.backing {
            Backing::Memory(data) => Ok(data[i * self.n + j]),
            Backing::Disk(d) => {
                let mut one = [0 as Dist; 1];
                let offset = ((i * self.n + j) * std::mem::size_of::<Dist>()) as u64;
                read_at(
                    d,
                    self.faults.as_ref(),
                    self.supervision.as_ref(),
                    cast_bytes_mut(&mut one),
                    offset,
                )?;
                Ok(one[0])
            }
        }
    }

    /// Persist the matrix to `path`: a 16-byte header (magic + the
    /// dimension `n` as little-endian `u64`s), the raw little-endian
    /// row-major `u32` payload, then a footer of per-panel
    /// [`panel_checksum`]s over [`SDC_PANEL_ROWS`]-row panels, so a
    /// computed result outlives the store. Readable again with
    /// [`TileStore::open`], which checks the header before trusting the
    /// payload and each panel against the footer on its first read.
    ///
    /// A `Disk` backing is read back row by row through the accounted
    /// path (crash, supervision and fault ordinals as in
    /// [`Self::read_row`]). Each row is hashed once: the same digest
    /// serves the guard registry's check and the footer. The payload
    /// goes out in large buffered writes.
    ///
    /// The write is **atomic and durable**: data lands in a temporary
    /// sibling file, is `sync_all`ed, renamed over `path`, and the
    /// directory is fsynced — a crash or `ENOSPC` mid-persist can never
    /// leave a torn file at `path` (either the old content or the new
    /// content is there, whole), and a returned persist survives power
    /// loss.
    ///
    /// A `Disk`-backed store refuses to persist into its own spill
    /// directory: the target could collide with (or be cleaned up
    /// alongside) live spill files, destroying the matrix it was meant
    /// to save.
    pub fn persist<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Backing::Disk(d) = &self.backing {
            let own = &d.shards[0].path;
            if let Some(own_dir) = own.parent() {
                if !own.as_os_str().is_empty() && same_dir(own_dir, parent_dir(path)) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "refusing to persist into the store's own spill directory {}",
                            own_dir.display()
                        ),
                    ));
                }
            }
        }
        let dir = parent_dir(path);
        let file_name = path.file_name().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "persist target has no file name",
            )
        })?;
        let tmp = dir.join(format!(
            ".{}.tmp.{}",
            file_name.to_string_lossy(),
            std::process::id()
        ));
        let result = (|| -> io::Result<()> {
            use std::io::Write;
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            let mut out = io::BufWriter::with_capacity(BULK_IO_BYTES, file);
            out.write_all(&PERSIST_MAGIC.to_le_bytes())?;
            out.write_all(&(self.n as u64).to_le_bytes())?;
            let footer = match &self.backing {
                Backing::Memory(data) => {
                    self.crash_tick(self.n as u64)?; // parity with the disk backing's n row reads
                    self.supervision_tick(self.n as u64)?;
                    out.write_all(cast_bytes(data))?;
                    let threads = self.exec.resolved_threads();
                    block_panel_checksums(data, self.n, SDC_PANEL_ROWS, threads)
                }
                Backing::Disk(..) => {
                    let mut row = vec![0 as Dist; self.n];
                    let mut digests = Vec::with_capacity(self.n);
                    for i in 0..self.n {
                        digests.push(self.read_row_digest(i, &mut row, true)?);
                        out.write_all(cast_bytes(&row))?;
                    }
                    digests
                        .chunks(SDC_PANEL_ROWS)
                        .map(|panel| panel_checksum(panel.iter().copied()))
                        .collect()
                }
            };
            // Per-panel checksum footer: first reads through `open`
            // verify each panel against it, so at-rest damage to the
            // file surfaces typed instead of as wrong distances.
            out.write_all(&FOOTER_MAGIC.to_le_bytes())?;
            out.write_all(&(footer.len() as u64).to_le_bytes())?;
            for h in &footer {
                out.write_all(&h.to_le_bytes())?;
            }
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            sync_dir(dir)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// [`panel_checksum`] of each consecutive panel of `panel_rows` rows
    /// (the last panel may be shorter). Rows are read through the
    /// accounted path, so on a `Disk` backing the checksums attest to
    /// what is actually on disk, not what was last handed to `write_*`.
    /// Each row is hashed once: the same digest serves the guard
    /// registry's check, the first-read footer check of a store opened
    /// from a persisted file (when `panel_rows` gives the footer's
    /// panels) and the returned checksum.
    pub fn panel_checksums(&self, panel_rows: usize) -> io::Result<Vec<u64>> {
        assert!(panel_rows >= 1, "panel_rows must be positive");
        let n = self.n;
        // The memory backing hashes its panels in parallel. Crash and
        // supervision ticks are charged in bulk up front (same totals as
        // the row-at-a-time path).
        let threads = self.exec.resolved_threads();
        if threads > 1 {
            if let Backing::Memory(data) = &self.backing {
                self.crash_tick(n as u64)?;
                self.supervision_tick(n as u64)?;
                return Ok(block_panel_checksums(data, n, panel_rows, threads));
            }
        }
        let footer_panels =
            panel_rows == SDC_PANEL_ROWS || (panel_rows >= n && SDC_PANEL_ROWS >= n);
        let mut out = Vec::with_capacity(n.div_ceil(panel_rows));
        let mut row = vec![0 as Dist; n];
        let mut digests = Vec::with_capacity(panel_rows.min(n));
        for p in 0..n.div_ceil(panel_rows) {
            // A panel still awaiting its footer check is checked here,
            // from the digests this pass computes anyway.
            let own_footer = footer_panels && self.open_pending(p).is_some();
            digests.clear();
            for i in p * panel_rows..((p + 1) * panel_rows).min(n) {
                digests.push(self.read_row_digest(i, &mut row, !own_footer)?);
            }
            let sum = panel_checksum(digests.iter().copied());
            if own_footer {
                self.open_settle(p, sum)?;
            }
            out.push(sum);
        }
        Ok(out)
    }

    /// Open a previously [`TileStore::persist`]ed matrix read-write in
    /// place (the file is *not* deleted on drop — the caller owns it).
    ///
    /// The persisted header (magic + dimension) is validated against
    /// the requested `n`, so a file persisted at a different dimension
    /// is rejected even when its byte length happens to match.
    pub fn open<P: AsRef<Path>>(path: P, n: usize) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let actual = file.metadata()?.len();
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if actual < PERSIST_HEADER_BYTES {
            return Err(bad(format!(
                "{} holds {actual} bytes, too short for even the {PERSIST_HEADER_BYTES}-byte \
                 tile-store header",
                path.as_ref().display()
            )));
        }
        let mut header = [0u8; PERSIST_HEADER_BYTES as usize];
        file.read_exact_at(&mut header, 0)?;
        let magic = u64::from_le_bytes(header[..8].try_into().unwrap());
        if magic != PERSIST_MAGIC {
            return Err(bad(format!(
                "{} does not start with the tile-store magic — not a persisted matrix",
                path.as_ref().display()
            )));
        }
        let stored_n = u64::from_le_bytes(header[8..].try_into().unwrap());
        if stored_n != n as u64 {
            return Err(bad(format!(
                "{} was persisted as a {stored_n}×{stored_n} matrix, caller asked for {n}×{n}",
                path.as_ref().display()
            )));
        }
        let legacy = PERSIST_HEADER_BYTES + (n * n * std::mem::size_of::<Dist>()) as u64;
        let num_panels = n.div_ceil(SDC_PANEL_ROWS);
        let with_footer = legacy + FOOTER_HEADER_BYTES + 8 * num_panels as u64;
        let pending: Vec<Option<u64>> = if actual == legacy {
            // Pre-footer persist: nothing recorded, nothing to verify.
            Vec::new()
        } else if actual == with_footer {
            let mut fh = [0u8; FOOTER_HEADER_BYTES as usize];
            file.read_exact_at(&mut fh, legacy)?;
            let fmagic = u64::from_le_bytes(fh[..8].try_into().unwrap());
            if fmagic == 0 {
                // A write through a previously opened store invalidated
                // the footer; the payload is newer than the checksums.
                Vec::new()
            } else if fmagic == FOOTER_MAGIC {
                let count = u64::from_le_bytes(fh[8..].try_into().unwrap());
                if count != num_panels as u64 {
                    return Err(bad(format!(
                        "{} records {count} checksum panels, an {n}×{n} matrix has {num_panels}",
                        path.as_ref().display()
                    )));
                }
                let mut sums = vec![0u8; 8 * num_panels];
                file.read_exact_at(&mut sums, legacy + FOOTER_HEADER_BYTES)?;
                sums.chunks_exact(8)
                    .map(|c| Some(u64::from_le_bytes(c.try_into().unwrap())))
                    .collect()
            } else if fmagic == FOOTER_MAGIC_V1 {
                return Err(bad(format!(
                    "{} carries a checksum footer of format version 1 (FNV-1a panel \
                     checksums); this build reads footer version 2 only — re-persist the \
                     matrix",
                    path.as_ref().display()
                )));
            } else {
                return Err(bad(format!(
                    "{} carries an unrecognized checksum footer — damaged?",
                    path.as_ref().display()
                )));
            }
        } else {
            return Err(bad(format!(
                "{} holds {actual} bytes, an {n}×{n} matrix needs {legacy} (or {with_footer} \
                 with its checksum footer) — truncated?",
                path.as_ref().display()
            )));
        };
        let payload = (n * n * std::mem::size_of::<Dist>()) as u64;
        Ok(TileStore {
            n,
            backing: Backing::Disk(DiskBacking {
                shards: vec![DiskShard {
                    file,
                    path: PathBuf::new(), // empty ⇒ drop() removes nothing
                }],
                // A persisted matrix is one file: the single shard spans
                // the whole payload.
                cap: payload.max(1),
                base: PERSIST_HEADER_BYTES,
            }),
            faults: None,
            crash: None,
            supervision: None,
            exec: ExecBackend::default(),
            sdc: None,
            sdc_round: AtomicU64::new(0),
            bit_flips: Vec::new(),
            open_verify: if pending.iter().any(|p| p.is_some()) {
                Some(OpenVerify {
                    pending: Mutex::new(pending),
                    invalidated: false,
                })
            } else {
                None
            },
        })
    }

    /// Materialize the whole matrix (tests and small-n tooling only).
    pub fn to_dist_matrix(&self) -> io::Result<apsp_cpu::DistMatrix> {
        // The materialized matrix is the run's final answer: sweep the
        // guard registry first so at-rest damage never leaves the store.
        self.verify_checksums()?;
        let mut data = Vec::with_capacity(self.n * self.n);
        match &self.backing {
            Backing::Memory(buf) => data.extend_from_slice(buf),
            Backing::Disk(..) => {
                for i in 0..self.n {
                    data.extend_from_slice(&self.read_row(i)?);
                }
            }
        }
        Ok(apsp_cpu::DistMatrix::from_raw(self.n, data))
    }
}

impl Drop for TileStore {
    fn drop(&mut self) {
        if let Backing::Disk(d) = &self.backing {
            for shard in &d.shards {
                // Stores opened from a user-owned file carry an empty
                // path and must survive the drop.
                if !shard.path.as_os_str().is_empty() {
                    let _ = std::fs::remove_file(&shard.path);
                }
            }
        }
    }
}

/// `path.parent()`, with a bare file name resolving to the current
/// directory instead of the empty path.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Whether two directory paths name the same directory, resolving
/// symlinks/relative segments when both exist.
fn same_dir(a: &Path, b: &Path) -> bool {
    if a == b {
        return true;
    }
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

fn unique_file(dir: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("apsp-tiles-{}-{}.bin", std::process::id(), id))
}

/// Positional write with fault application: counts the op against the
/// armed plan and fires any scheduled write-direction fault. One fault
/// ordinal per *logical* call — a write that straddles shard files is
/// still one op, so fault plans replay identically at every shard
/// threshold.
///
/// A [`DiskFault::HangMicros`] fault succeeds but charges its duration
/// to the attached supervisor's io-stall clock (simulated time — the
/// host thread never sleeps), so a hung disk is only observable when a
/// supervisor is watching.
fn write_at(
    disk: &DiskBacking,
    faults: Option<&FaultState>,
    sup: Option<&Supervisor>,
    buf: &[u8],
    offset: u64,
) -> io::Result<()> {
    if let Some(state) = faults {
        let op = state.write_ops.fetch_add(1, Ordering::Relaxed);
        match state.plan.write_fault_at(op) {
            Some(DiskFault::Enospc) => {
                return Err(io::Error::from_raw_os_error(ENOSPC_ERRNO));
            }
            Some(DiskFault::ShortWrite) => {
                // First half of the *logical* buffer persists, wherever
                // its bytes land across shards.
                let half = buf.len() / 2;
                disk.write_all_at(&buf[..half], offset)?;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected short write at op {op}: {half} of {} bytes persisted",
                        buf.len()
                    ),
                ));
            }
            Some(DiskFault::LatencyMicros(us)) => std::thread::sleep(Duration::from_micros(us)),
            Some(DiskFault::HangMicros(us)) => {
                if let Some(sup) = sup {
                    sup.charge_io_stall(us as f64 / 1e6);
                }
            }
            Some(DiskFault::ShortRead) | None => {}
        }
    }
    disk.write_all_at(buf, offset)
}

/// Positional read with fault application (see [`write_at`]).
fn read_at(
    disk: &DiskBacking,
    faults: Option<&FaultState>,
    sup: Option<&Supervisor>,
    buf: &mut [u8],
    offset: u64,
) -> io::Result<()> {
    if let Some(state) = faults {
        let op = state.read_ops.fetch_add(1, Ordering::Relaxed);
        match state.plan.read_fault_at(op) {
            Some(DiskFault::ShortRead) => {
                let half = buf.len() / 2;
                disk.read_exact_at(&mut buf[..half], offset)?;
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "injected short read at op {op}: {half} of {} bytes filled",
                        buf.len()
                    ),
                ));
            }
            Some(DiskFault::LatencyMicros(us)) => std::thread::sleep(Duration::from_micros(us)),
            Some(DiskFault::HangMicros(us)) => {
                if let Some(sup) = sup {
                    sup.charge_io_stall(us as f64 / 1e6);
                }
            }
            Some(DiskFault::ShortWrite) | Some(DiskFault::Enospc) | None => {}
        }
    }
    disk.read_exact_at(buf, offset)
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
mod tests {
    use super::*;

    fn tmp_dir() -> PathBuf {
        std::env::temp_dir().join("apsp_tile_store_tests")
    }

    fn backends() -> Vec<StorageBackend> {
        vec![StorageBackend::Memory, StorageBackend::Disk(tmp_dir())]
    }

    #[test]
    fn initialization_convention() {
        for backend in backends() {
            let s = TileStore::new(4, &backend).unwrap();
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(s.get(i, j).unwrap(), if i == j { 0 } else { INF });
                }
            }
        }
    }

    #[test]
    fn row_roundtrip_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.write_row(1, &[7, 8, 9]).unwrap();
            assert_eq!(s.read_row(1).unwrap(), vec![7, 8, 9]);
            assert_eq!(s.read_row(0).unwrap()[0], 0);
        }
    }

    #[test]
    fn multi_row_and_block_writes() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.write_rows(1, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap(); // rows 1–2
            assert_eq!(s.read_row(2).unwrap(), vec![5, 6, 7, 8]);
            s.write_block(0..2, 2..4, &[90, 91, 92, 93]).unwrap();
            assert_eq!(s.get(0, 2).unwrap(), 90);
            assert_eq!(s.get(1, 3).unwrap(), 93);
            // Untouched cells survive the block write.
            assert_eq!(s.get(1, 0).unwrap(), 1);
        }
    }

    #[test]
    fn read_block_roundtrips_write_block() {
        for backend in backends() {
            let mut s = TileStore::new(5, &backend).unwrap();
            let block: Vec<u32> = (0..6).collect(); // 2×3
            s.write_block(1..3, 2..5, &block).unwrap();
            assert_eq!(s.read_block(1..3, 2..5).unwrap(), block);
            // Sub-block of the written region.
            assert_eq!(s.read_block(2..3, 3..5).unwrap(), vec![4, 5]);
        }
    }

    #[test]
    fn to_dist_matrix_matches() {
        for backend in backends() {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.write_row(0, &[0, 5, 6]).unwrap();
            let m = s.to_dist_matrix().unwrap();
            assert_eq!(m.get(0, 1), 5);
            assert_eq!(m.get(1, 1), 0);
        }
    }

    #[test]
    fn disk_file_is_cleaned_up() {
        let dir = tmp_dir();
        let path_probe;
        {
            let s = TileStore::new(8, &StorageBackend::Disk(dir.clone())).unwrap();
            assert!(s.is_disk_backed());
            path_probe = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .collect::<Vec<_>>();
            assert!(!path_probe.is_empty());
        }
        // After drop, no stale file with our pid remains among those seen.
        for p in path_probe {
            assert!(
                !p.exists()
                    || !p
                        .to_string_lossy()
                        .contains(&format!("-{}-", std::process::id()))
                    || std::fs::metadata(&p).is_err()
                    || !p.exists()
            );
        }
    }

    #[test]
    fn persist_and_open_roundtrip_both_backends() {
        // Not tmp_dir() itself: that is the Disk backend's spill
        // directory, and persisting into it is rejected by design.
        let dir = tmp_dir().join("persist_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        for (idx, backend) in backends().into_iter().enumerate() {
            let path = dir.join(format!("persist-{}.bin", idx));
            {
                let mut s = TileStore::new(3, &backend).unwrap();
                s.write_row(1, &[4, 5, 6]).unwrap();
                s.persist(&path).unwrap();
            }
            // Original store dropped; the persisted file survives.
            let reopened = TileStore::open(&path, 3).unwrap();
            assert_eq!(reopened.read_row(1).unwrap(), vec![4, 5, 6]);
            assert_eq!(reopened.get(0, 0).unwrap(), 0);
            drop(reopened);
            assert!(path.exists(), "opened store must not delete its file");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn open_rejects_wrong_size() {
        let dir = tmp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-size.bin");
        std::fs::write(&path, [0u8; 10]).unwrap();
        assert!(TileStore::open(&path, 3).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wrong_geometry_despite_right_byte_length() {
        // A tampered (or mismatched) header must be rejected even when
        // the file's byte length is exactly what the caller's n needs.
        let dir = tmp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-geometry.bin");
        TileStore::new(4, &StorageBackend::Memory)
            .unwrap()
            .persist(&path)
            .unwrap();
        // Rewrite the header's dimension field to claim 5×5; the file
        // length still matches a persisted 4×4 matrix.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TileStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("5×5"), "{err}");
        // A file without the magic is rejected too, at any length.
        let raw = vec![0u8; PERSIST_HEADER_BYTES as usize + 4 * 4 * 4];
        std::fs::write(&path, &raw).unwrap();
        let err = TileStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hang_fault_charges_the_supervisor_and_succeeds() {
        use crate::supervisor::{SupervisionOptions, Supervisor};
        let mut s = TileStore::new(3, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::HangMicros(2_500_000))],
            read_faults: vec![(1, DiskFault::HangMicros(500_000))],
        });
        let sup = Supervisor::new(&SupervisionOptions::default(), 0.0);
        s.set_supervision(sup.clone());
        // The hung ops still succeed — only the stall clock notices.
        s.write_row(0, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
        assert!((sup.io_stall_seconds() - 3.0).abs() < 1e-9);
        // Without a supervisor attached the hang is unobservable.
        s.clear_supervision();
        s.write_row(1, &[4, 5, 6]).unwrap();
        assert!((sup.io_stall_seconds() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn opened_store_is_writable() {
        let dir = tmp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("writable.bin");
        TileStore::new(2, &StorageBackend::Memory)
            .unwrap()
            .persist(&path)
            .unwrap();
        let mut s = TileStore::open(&path, 2).unwrap();
        s.write_row(0, &[9, 9]).unwrap();
        drop(s);
        let again = TileStore::open(&path, 2).unwrap();
        assert_eq!(again.read_row(0).unwrap(), vec![9, 9]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_row_width() {
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.write_row(0, &[1, 2]).unwrap();
    }

    #[test]
    fn last_row_roundtrips_on_disk() {
        // Off-by-one-row bugs in positional offsets show up exactly at
        // the file's tail, where a bad offset runs past EOF.
        let n = 7;
        let mut s = TileStore::new(n, &StorageBackend::Disk(tmp_dir())).unwrap();
        let row: Vec<Dist> = (100..100 + n as Dist).collect();
        s.write_row(n - 1, &row).unwrap();
        assert_eq!(s.read_row(n - 1).unwrap(), row);
        assert_eq!(s.get(n - 1, n - 1).unwrap(), row[n - 1]);
        // The row above is untouched.
        assert_eq!(s.get(n - 2, n - 2).unwrap(), 0);
        assert_eq!(s.get(n - 2, n - 1).unwrap(), INF);
    }

    #[test]
    fn drop_removes_exactly_its_spill_file() {
        let dir = tmp_dir().join("drop_cleanup");
        let path = {
            let s = TileStore::new(4, &StorageBackend::Disk(dir.clone())).unwrap();
            let survivor = TileStore::new(4, &StorageBackend::Disk(dir.clone())).unwrap();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files.len(), 2);
            drop(s);
            let remaining: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(remaining.len(), 1, "dropped store must remove its file");
            // The survivor still reads after its sibling's cleanup.
            assert_eq!(survivor.get(0, 0).unwrap(), 0);
            remaining[0].clone()
        };
        assert!(!path.exists(), "second drop removes the last file");
        std::fs::remove_dir(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unwritable_directory_surfaces_io_error() {
        use std::os::unix::fs::PermissionsExt;
        if effective_uid() == 0 {
            return; // root bypasses permission bits; nothing to test
        }
        let dir = tmp_dir().join("readonly_dir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        let err = TileStore::new(4, &StorageBackend::Disk(dir.clone())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        std::fs::remove_dir(&dir).unwrap();
    }

    #[cfg(unix)]
    fn effective_uid() -> u32 {
        // Avoid a libc dependency: the uid is in /proc for this purpose.
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Uid:"))
                    .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
            })
            .and_then(|u| u.parse().ok())
            .unwrap_or(u32::MAX)
    }

    #[test]
    fn fault_plan_enospc_fires_at_scheduled_write() {
        let mut s = TileStore::new(3, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(1, DiskFault::Enospc)],
            read_faults: vec![],
        });
        s.write_row(0, &[1, 2, 3]).unwrap(); // op 0: clean
        let err = s.write_row(1, &[4, 5, 6]).unwrap_err(); // op 1: ENOSPC
        assert_eq!(err.raw_os_error(), Some(ENOSPC_ERRNO));
        // Nothing from the failed write landed.
        assert_eq!(s.read_row(1).unwrap(), vec![INF, 0, INF]);
        // Subsequent ops are clean again.
        s.write_row(1, &[4, 5, 6]).unwrap();
        assert_eq!(s.read_row(1).unwrap(), vec![4, 5, 6]);
        assert_eq!(s.io_ops().0, 3);
    }

    #[test]
    fn fault_plan_short_write_mutates_then_errors() {
        let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::ShortWrite)],
            read_faults: vec![],
        });
        let err = s.write_row(2, &[9, 9, 9, 9]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // The dangerous part: half the row (2 of 4 u32s) did land.
        assert_eq!(s.read_row(2).unwrap(), vec![9, 9, 0, INF]);
    }

    #[test]
    fn fault_plan_short_read_and_latency() {
        let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.write_row(1, &[5, 6, 7, 8]).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::LatencyMicros(50))],
            read_faults: vec![(0, DiskFault::ShortRead), (1, DiskFault::LatencyMicros(50))],
        });
        let err = s.read_row(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Latency faults delay but succeed, on both directions.
        assert_eq!(s.read_row(1).unwrap(), vec![5, 6, 7, 8]);
        s.write_row(0, &[1, 1, 1, 1]).unwrap();
        assert_eq!(s.io_ops(), (1, 2));
        s.disarm_faults();
        assert_eq!(s.io_ops(), (0, 0));
    }

    #[test]
    fn fault_plan_is_inert_on_memory_backing() {
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::Enospc)],
            read_faults: vec![(0, DiskFault::ShortRead)],
        });
        s.write_row(0, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            s.io_ops(),
            (0, 0),
            "memory backing issues no positional I/O"
        );
    }

    #[test]
    fn persist_rejects_own_spill_directory() {
        let dir = tmp_dir().join("own_dir_guard");
        let s = TileStore::new(3, &StorageBackend::Disk(dir.clone())).unwrap();
        let err = s.persist(dir.join("snapshot.bin")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // A sibling directory is fine.
        let out = tmp_dir().join("own_dir_guard_out");
        std::fs::create_dir_all(&out).unwrap();
        s.persist(out.join("snapshot.bin")).unwrap();
        assert!(out.join("snapshot.bin").exists());
        std::fs::remove_file(out.join("snapshot.bin")).unwrap();
    }

    #[test]
    fn persist_is_atomic_no_tmp_left_behind() {
        let out = tmp_dir().join("atomic_persist");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.write_row(0, &[0, 7, 8]).unwrap();
        s.persist(&target).unwrap();
        // Overwrite with new content; the file is replaced whole.
        s.write_row(0, &[0, 9, 9]).unwrap();
        s.persist(&target).unwrap();
        let again = TileStore::open(&target, 3).unwrap();
        assert_eq!(again.read_row(0).unwrap(), vec![0, 9, 9]);
        drop(again);
        let leftovers: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tmp files leaked: {leftovers:?}");
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn panel_checksums_detect_any_mutation() {
        for backend in backends() {
            let mut s = TileStore::new(5, &backend).unwrap();
            s.write_row(2, &[1, 2, 3, 4, 5]).unwrap();
            let before = s.panel_checksums(2).unwrap();
            assert_eq!(before.len(), 3); // panels of 2, 2, 1 rows
            assert_eq!(before, s.panel_checksums(2).unwrap(), "deterministic");
            s.write_row(4, &[9, 9, 9, 9, 0]).unwrap();
            let after = s.panel_checksums(2).unwrap();
            assert_eq!(before[0], after[0]);
            assert_eq!(before[1], after[1]);
            assert_ne!(before[2], after[2], "mutated panel must change");
        }
    }

    /// Every single- and two-bit flip of `row` changes its digest.
    fn assert_all_flips_detected(row: &[u8]) {
        let clean = row_digest(row);
        let bits = row.len() * 8;
        let mut buf = row.to_vec();
        let flip = |buf: &mut [u8], b: usize| buf[b / 8] ^= 1 << (b % 8);
        for a in 0..bits {
            flip(&mut buf, a);
            assert_ne!(
                row_digest(&buf),
                clean,
                "{} bytes: flip of bit {a}",
                row.len()
            );
            for b in a + 1..bits {
                flip(&mut buf, b);
                assert_ne!(
                    row_digest(&buf),
                    clean,
                    "{} bytes: flips of bits {a} and {b}",
                    row.len()
                );
                flip(&mut buf, b);
            }
            flip(&mut buf, a);
        }
    }

    fn pseudo_random_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn row_digest_catches_every_one_and_two_bit_flip() {
        // A 256-byte row is four full 64-byte chunks: 2,096,128 pairs.
        assert_all_flips_detected(&pseudo_random_bytes(256, 0x5EED));
        // 200 bytes leaves an 8-byte tail in a zero-padded last chunk.
        assert_all_flips_detected(&pseudo_random_bytes(200, 0xF00D));
        // All-zero data, where a flip is the only set bit.
        assert_all_flips_detected(&[0u8; 100]);
    }

    #[test]
    fn row_digest_separates_lengths_and_lane_order() {
        // Zero padding must not make a row equal to its padded self.
        let row = pseudo_random_bytes(60, 7);
        let mut padded = row.clone();
        padded.extend_from_slice(&[0, 0, 0, 0]);
        assert_ne!(row_digest(&row), row_digest(&padded));
        assert_ne!(row_digest(&[]), row_digest(&[0]));
        // Swapping two words between lanes changes the digest.
        let a = pseudo_random_bytes(64, 9);
        let mut b = a.clone();
        b[..8].copy_from_slice(&a[8..16]);
        b[8..16].copy_from_slice(&a[..8]);
        assert_ne!(row_digest(&a), row_digest(&b));
        // And panels are order-sensitive folds of their rows.
        assert_ne!(panel_checksum([1, 2]), panel_checksum([2, 1]));
    }

    #[test]
    fn memory_and_disk_backings_agree_on_panel_checksums() {
        let n = 150; // panels of 64, 64 and 22 rows; rows not 64-byte multiples
        let mut stores: Vec<TileStore> = backends()
            .iter()
            .map(|b| TileStore::new(n, b).unwrap())
            .collect();
        for (i, row) in pseudo_random_bytes(n * n * 4, 0xC0DE)
            .chunks_exact(n * 4)
            .enumerate()
        {
            let row: Vec<Dist> = row
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            for s in &mut stores {
                s.write_row(i, &row).unwrap();
            }
        }
        for panel_rows in [1, 7, SDC_PANEL_ROWS, n, 2 * n] {
            let mut sums: Vec<Vec<u64>> = Vec::new();
            for s in &mut stores {
                for exec in [ExecBackend::scalar(), ExecBackend::parallel()] {
                    s.set_exec_backend(exec);
                    sums.push(s.panel_checksums(panel_rows).unwrap());
                }
            }
            assert_eq!(sums[0].len(), n.div_ceil(panel_rows));
            for other in &sums[1..] {
                assert_eq!(other, &sums[0], "panel_rows {panel_rows}");
            }
        }
        // The persisted footer is the same definition.
        let out = tmp_dir().join("footer_geometry");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        stores[1].persist(&target).unwrap();
        let bytes = std::fs::read(&target).unwrap();
        let footer_at = PERSIST_HEADER_BYTES as usize + n * n * 4 + FOOTER_HEADER_BYTES as usize;
        let footer: Vec<u64> = bytes[footer_at..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(footer, stores[0].panel_checksums(SDC_PANEL_ROWS).unwrap());
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn fnv_era_footer_is_rejected_naming_its_version() {
        let out = tmp_dir().join("footer_v1");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        TileStore::new(5, &StorageBackend::Memory)
            .unwrap()
            .persist(&target)
            .unwrap();
        // Rewrite the footer magic to the version-1 (FNV-1a) tag; the
        // recorded checksums no longer match under this build's digest,
        // which must not surface as a mismatch or as valid data.
        let mut bytes = std::fs::read(&target).unwrap();
        let at = PERSIST_HEADER_BYTES as usize + 5 * 5 * 4;
        bytes[at..at + 8].copy_from_slice(b"APSPSUMS");
        std::fs::write(&target, &bytes).unwrap();
        let err = TileStore::open(&target, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 1"), "{err}");
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn panel_checksums_check_the_footer_of_an_opened_store() {
        let out = tmp_dir().join("fused_footer_check");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let n = 70; // two footer panels
        let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
        s.write_row(65, &vec![3; n]).unwrap();
        s.persist(&target).unwrap();
        let expect = s.panel_checksums(SDC_PANEL_ROWS).unwrap();
        let clean = TileStore::open(&target, n).unwrap();
        assert_eq!(clean.panel_checksums(SDC_PANEL_ROWS).unwrap(), expect);
        drop(clean);
        // Damage panel 1 on disk: the one-pass read-back reports it as
        // the footer mismatch, typed, at every panel geometry.
        let mut bytes = std::fs::read(&target).unwrap();
        bytes[PERSIST_HEADER_BYTES as usize + (66 * n + 2) * 4] ^= 0x04;
        std::fs::write(&target, &bytes).unwrap();
        for panel_rows in [SDC_PANEL_ROWS, 10] {
            let damaged = TileStore::open(&target, n).unwrap();
            let err = damaged.panel_checksums(panel_rows).unwrap_err();
            match crate::ApspError::from(err) {
                crate::ApspError::Corruption { detail } => {
                    assert!(detail.contains("panel 1"), "{detail}")
                }
                other => panic!("expected Corruption, got {other:?}"),
            }
        }
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn crash_point_kills_the_store_on_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.arm_crash(2);
            s.write_row(0, &[1, 1, 1, 1]).unwrap(); // op 0
            s.read_row(0).unwrap(); // op 1
            let err = s.write_row(1, &[2, 2, 2, 2]).unwrap_err(); // op 2: dead
            assert!(err.to_string().contains("injected crash"), "{err}");
            // Every subsequent op fails too — the process is "dead".
            assert!(s.read_row(0).is_err());
            assert!(s.get(0, 0).is_err());
            assert!(s.crash_ops() >= 3);
            // Disarming revives it (the harness's post-mortem view).
            s.disarm_crash();
            assert_eq!(s.read_row(0).unwrap(), vec![1, 1, 1, 1]);
        }
    }

    #[test]
    fn crash_counts_block_ops_at_row_granularity() {
        let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
        s.arm_crash(u64::MAX);
        s.write_block(0..3, 0..2, &[1, 2, 3, 4, 5, 6]).unwrap(); // 3 ops
        s.read_block(1..3, 0..4).unwrap(); // 2 ops
        s.write_rows(0, &[7, 7, 7, 7, 8, 8, 8, 8]).unwrap(); // 1 op
        assert_eq!(s.crash_ops(), 6);
    }

    #[test]
    fn sdc_guard_clean_runs_stay_clean_on_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(5, &backend).unwrap();
            s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            assert_eq!(s.sdc_guard(), SdcGuardMode::Checksum);
            s.write_row(1, &[1, 2, 3, 4, 5]).unwrap();
            s.write_rows(2, &[6; 10]).unwrap();
            s.write_block(0..2, 1..3, &[7, 7, 7, 7]).unwrap(); // partial: dirty
            assert_eq!(s.read_row(1).unwrap(), vec![1, 7, 7, 4, 5]);
            s.verify_checksums().unwrap();
            s.verify_checksums().unwrap(); // idempotent after rehash
            let m = s.to_dist_matrix().unwrap();
            assert_eq!(m.get(2, 0), 6);
            s.set_sdc_guard(SdcGuardMode::Off).unwrap();
            assert_eq!(s.sdc_guard(), SdcGuardMode::Off);
        }
    }

    #[test]
    fn armed_bit_flip_is_detected_typed_on_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            s.set_sdc_round(3);
            s.write_row(0, &[0, 1, 2, 3]).unwrap(); // write op 0: clean
            s.arm_bit_flip(0, 5); // next write op flips bit 5 of its row
            s.write_row(2, &[9, 9, 9, 9]).unwrap();
            let err = s.read_row(2).unwrap_err();
            let typed = crate::ApspError::from(err);
            match typed {
                crate::ApspError::SilentCorruption { panel, round, .. } => {
                    assert_eq!(panel, 0); // row 2 lives in panel 0
                    assert_eq!(round, 3);
                }
                other => panic!("expected SilentCorruption, got {other:?}"),
            }
            // Untouched rows still read clean.
            assert_eq!(s.read_row(0).unwrap(), vec![0, 1, 2, 3]);
            // The full sweep sees it too (run-end gate).
            assert!(s.verify_checksums().is_err());
            assert!(s.to_dist_matrix().is_err());
        }
    }

    #[test]
    fn bit_flip_with_guard_off_is_silently_wrong() {
        // The baseline the guard exists to close: no guard, no error,
        // wrong data.
        for backend in backends() {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.arm_bit_flip(0, 0); // flip bit 0 of the next written row
            s.write_row(1, &[4, 4, 4]).unwrap();
            let row = s.read_row(1).unwrap();
            assert_eq!(row, vec![5, 4, 4], "bit 0 of element 0 flipped");
            s.verify_checksums().unwrap(); // no registry, no detection
        }
    }

    #[test]
    fn bit_flip_on_dirty_row_is_still_caught_at_the_barrier() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.set_sdc_guard(SdcGuardMode::Full).unwrap();
            // Partial write marks rows 1..3 dirty, and the armed flip
            // fires on that same operation (budget 1 ⇒ second row).
            s.arm_bit_flip(1, 17);
            s.write_block(1..3, 0..2, &[8, 8, 8, 8]).unwrap();
            // The flip finalizes the row's checksum from the clean
            // backing before striking, so the sweep cannot absorb it.
            let err = s.verify_checksums().unwrap_err();
            match crate::ApspError::from(err) {
                crate::ApspError::SilentCorruption { panel, .. } => assert_eq!(panel, 0),
                other => panic!("expected SilentCorruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_count_down_across_ops_and_clear() {
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        s.arm_bit_flip(5, 1); // budget outlives the ops below
        s.write_rows(0, &[1; 6]).unwrap(); // 2 row ops: 3 left
        s.write_row(2, &[2, 2, 2]).unwrap(); // 2 left
        s.verify_checksums().unwrap();
        s.clear_bit_flips();
        s.write_row(0, &[3, 3, 3]).unwrap();
        s.write_row(1, &[3, 3, 3]).unwrap();
        s.write_row(2, &[3, 3, 3]).unwrap(); // would have fired here
        s.verify_checksums().unwrap();
    }

    #[test]
    fn persisted_footer_catches_spill_file_damage_on_first_read() {
        let out = tmp_dir().join("footer_damage");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let mut s = TileStore::new(5, &StorageBackend::Memory).unwrap();
        s.write_row(3, &[1, 2, 3, 4, 5]).unwrap();
        s.persist(&target).unwrap();
        drop(s);
        // Clean reopen verifies every panel it touches.
        let clean = TileStore::open(&target, 5).unwrap();
        assert_eq!(clean.read_row(3).unwrap(), vec![1, 2, 3, 4, 5]);
        drop(clean);
        // Flip one payload byte behind the store's back.
        let mut bytes = std::fs::read(&target).unwrap();
        let victim = PERSIST_HEADER_BYTES as usize + (3 * 5 + 1) * 4;
        bytes[victim] ^= 0x10;
        std::fs::write(&target, &bytes).unwrap();
        let damaged = TileStore::open(&target, 5).unwrap();
        let err = damaged.read_row(3).unwrap_err();
        match crate::ApspError::from(err) {
            crate::ApspError::Corruption { detail } => {
                assert!(detail.contains("panel 0"), "{detail}");
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn legacy_footerless_persist_files_still_open() {
        let out = tmp_dir().join("legacy_open");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.write_row(0, &[0, 7, 8]).unwrap();
        s.persist(&target).unwrap();
        drop(s);
        // Truncate the footer: the file looks like a pre-footer persist.
        let legacy_len = PERSIST_HEADER_BYTES + 3 * 3 * 4;
        let f = OpenOptions::new().write(true).open(&target).unwrap();
        f.set_len(legacy_len).unwrap();
        drop(f);
        let reopened = TileStore::open(&target, 3).unwrap();
        assert_eq!(reopened.read_row(0).unwrap(), vec![0, 7, 8]);
        // A length that is neither legacy nor footer'd is rejected.
        let f = OpenOptions::new().write(true).open(&target).unwrap();
        f.set_len(legacy_len + 3).unwrap();
        drop(f);
        assert!(TileStore::open(&target, 3).is_err());
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn guard_reads_leave_fault_and_crash_ordinals_unperturbed() {
        // The guard must observe without being observed: identical op
        // accounting with the guard on and off.
        let mut ops = Vec::new();
        for guard in [SdcGuardMode::Off, SdcGuardMode::Checksum] {
            let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
            s.set_sdc_guard(guard).unwrap();
            s.arm_crash(u64::MAX);
            s.arm_faults(DiskFaultPlan::default());
            s.write_rows(0, &[1; 8]).unwrap();
            s.read_block(0..2, 0..4).unwrap();
            s.verify_checksums().unwrap();
            s.get(3, 3).unwrap();
            ops.push((s.crash_ops(), s.io_ops()));
        }
        assert_eq!(ops[0], ops[1]);
    }

    #[test]
    fn concurrent_stores_use_distinct_files() {
        let dir = tmp_dir();
        let a = TileStore::new(2, &StorageBackend::Disk(dir.clone())).unwrap();
        let b = TileStore::new(2, &StorageBackend::Disk(dir)).unwrap();
        drop(a);
        // b still works after a's file is gone.
        assert_eq!(b.get(1, 1).unwrap(), 0);
    }

    /// Sharded backend with `rows` rows per spill file.
    fn sharded(dir: PathBuf, n: usize, rows: usize) -> StorageBackend {
        StorageBackend::DiskSharded {
            dir,
            shard_bytes: (rows * n * std::mem::size_of::<Dist>()) as u64,
        }
    }

    #[test]
    fn sharded_store_splits_at_threshold_and_roundtrips() {
        let dir = tmp_dir().join("sharding_roundtrip");
        let n = 5;
        {
            // Two rows per file ⇒ shards of 2, 2, 1 rows.
            let mut s = TileStore::new(n, &sharded(dir.clone(), n, 2)).unwrap();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files.len(), 3, "5 rows at 2 rows/file is 3 shards");
            // Initialization convention holds across every shard.
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(s.get(i, j).unwrap(), if i == j { 0 } else { INF });
                }
            }
            // A multi-row write spanning a shard boundary.
            let rows: Vec<Dist> = (0..3 * n as Dist).collect();
            s.write_rows(1, &rows).unwrap();
            assert_eq!(s.read_rows_concat(1, 3), rows);
            // Block ops crossing a shard boundary.
            s.write_block(1..4, 1..3, &[70, 71, 72, 73, 74, 75])
                .unwrap();
            assert_eq!(
                s.read_block(1..4, 1..3).unwrap(),
                vec![70, 71, 72, 73, 74, 75]
            );
            // Last row (sole row of the last shard) round-trips.
            let last: Vec<Dist> = (900..900 + n as Dist).collect();
            s.write_row(n - 1, &last).unwrap();
            assert_eq!(s.read_row(n - 1).unwrap(), last);
        }
        // Drop removes the whole shard family.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }

    impl TileStore {
        /// Test helper: `count` rows from `start`, concatenated.
        fn read_rows_concat(&self, start: usize, count: usize) -> Vec<Dist> {
            let mut out = Vec::new();
            for i in start..start + count {
                out.extend_from_slice(&self.read_row(i).unwrap());
            }
            out
        }
    }

    #[test]
    fn sharded_store_matches_single_file_bit_for_bit() {
        // Same content and same fault/crash ordinals at every split
        // threshold: sharding must be invisible to everything above it.
        let n = 6;
        let mut probes = Vec::new();
        for rows_per_shard in [1, 2, 4, n] {
            let dir = tmp_dir().join(format!("shard_parity_{rows_per_shard}"));
            let mut s = TileStore::new(n, &sharded(dir.clone(), n, rows_per_shard)).unwrap();
            s.arm_crash(u64::MAX);
            s.arm_faults(DiskFaultPlan::default());
            s.write_rows(0, &vec![3; 3 * n]).unwrap();
            s.write_block(2..5, 1..4, &[8; 9]).unwrap();
            s.write_row(n - 1, &vec![5; n]).unwrap();
            s.read_block(0..n, 0..n).unwrap();
            probes.push((s.to_dist_matrix().unwrap(), s.crash_ops(), s.io_ops()));
            drop(s);
            std::fs::remove_dir(&dir).unwrap();
        }
        for p in &probes[1..] {
            assert_eq!(p, &probes[0]);
        }
    }

    #[test]
    fn sharded_short_write_persists_half_the_logical_buffer() {
        // A ShortWrite on a call spanning shards persists the first half
        // of the *logical* buffer (here exactly row 0, in shard 0) and
        // leaves the rest untouched — one fault ordinal for the call.
        let dir = tmp_dir().join("shard_short_write");
        let n = 4;
        let mut s = TileStore::new(n, &sharded(dir.clone(), n, 1)).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::ShortWrite)],
            read_faults: vec![],
        });
        let err = s.write_rows(0, &[9; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(s.read_row(0).unwrap(), vec![9, 9, 9, 9]);
        assert_eq!(s.read_row(1).unwrap(), vec![INF, 0, INF, INF]);
        assert_eq!(s.io_ops().0, 1, "a spanning write is one ordinal");
        drop(s);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn sharded_store_persists_and_guards_like_single_file() {
        let dir = tmp_dir().join("shard_persist");
        let out = tmp_dir().join("shard_persist_out");
        std::fs::create_dir_all(&out).unwrap();
        let n = 5;
        let mut s = TileStore::new(n, &sharded(dir.clone(), n, 2)).unwrap();
        s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        s.write_row(4, &[1, 2, 3, 4, 0]).unwrap();
        s.verify_checksums().unwrap();
        // Bit flips land in the right shard and are still caught.
        s.arm_bit_flip(0, 3);
        s.write_row(2, &[7, 7, 7, 7, 7]).unwrap();
        assert!(s.read_row(2).is_err());
        // Repair, then persist → one merged file, reopenable.
        s.write_row(2, &[7, 7, 7, 7, 7]).unwrap();
        let target = out.join("m.bin");
        s.persist(&target).unwrap();
        drop(s);
        let reopened = TileStore::open(&target, n).unwrap();
        assert_eq!(reopened.read_row(4).unwrap(), vec![1, 2, 3, 4, 0]);
        assert_eq!(reopened.read_row(2).unwrap(), vec![7, 7, 7, 7, 7]);
        drop(reopened);
        std::fs::remove_file(&target).unwrap();
        std::fs::remove_dir(&dir).unwrap();
    }
}
