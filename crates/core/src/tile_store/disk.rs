//! The disk backing and the persisted-matrix format.
//!
//! A spill is one or more row-aligned shard files presenting one flat
//! row-major payload. A persisted matrix ([`super::TileStore::persist`])
//! is one file: a 16-byte header (magic `APSPTILE`, then `n`, both
//! little-endian `u64`), the `n × n` little-endian `u32` payload, and a
//! footer (magic `APSPSUM2`, the panel count, then one `u64`
//! [`panel_checksum`](super::panel_checksum) per [`SDC_PANEL_ROWS`]-row panel).
//! [`open_persisted`] accepts that layout only, and verifies every panel
//! before handing the file out.

use super::digest::{dist_digest, fold_panels};
use super::{cast_bytes, cast_bytes_mut, elem_offset, SDC_PANEL_ROWS};
use crate::error::CorruptionMark;
use apsp_graph::{Dist, INF};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Spill-file split threshold for [`super::StorageBackend::Disk`]: shards
/// roll over at 1 GiB, the split the reference `diskMatrix`
/// implementations use. Row-aligned, so the effective shard size is the
/// largest multiple of the row width at or under this (one full row
/// minimum).
pub const DEFAULT_SHARD_BYTES: u64 = 1 << 30;

/// Magic tag opening every persisted file.
const PERSIST_MAGIC: u64 = u64::from_le_bytes(*b"APSPTILE");

/// Persisted-file header: the magic tag plus the matrix dimension.
pub(super) const PERSIST_HEADER_BYTES: u64 = 16;

/// Magic tag opening the footer (format version 2: panel checksums of
/// row digests).
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"APSPSUM2");

/// Footer magic of format version 1, whose panel checksums were
/// byte-serial FNV-1a: rejected naming the version, since a mismatch
/// under this build's digest must never be mistaken for damage.
const FOOTER_MAGIC_V1: u64 = u64::from_le_bytes(*b"APSPSUMS");

/// Footer prelude: the footer magic plus the panel count.
pub(super) const FOOTER_HEADER_BYTES: u64 = 16;

/// Bytes per system call of the sequential whole-matrix passes (the
/// unaccounted row scans read this much at a time, at least one row;
/// persisting buffers this much per write): large enough to amortize
/// the call over many rows, small enough to stay cache-resident while
/// the rows are hashed.
const BULK_IO_BYTES: usize = 1 << 20;

/// One file of a disk backing.
struct DiskShard {
    file: File,
    /// Removed on drop; empty for a persisted file, which the caller
    /// owns.
    path: PathBuf,
}

/// Consecutive row-aligned shard files presenting one flat logical
/// payload. Shard `k` holds logical payload bytes `[k·cap, (k+1)·cap)`;
/// because `cap` is a multiple of the row width, a single row is always
/// one `pread`/`pwrite`, and only multi-row calls ever split across
/// files.
pub(super) struct DiskBacking {
    shards: Vec<DiskShard>,
    /// Shard capacity in bytes (row-aligned; the last shard may hold
    /// less). Never zero.
    cap: u64,
    /// Byte offset of logical payload offset 0 within shard 0: zero for
    /// spill files, the header length for a persisted file.
    base: u64,
}

impl DiskBacking {
    /// Spill files for an `n × n` matrix in `dir` (created if missing),
    /// row-aligned shards of at most `shard_bytes` each, initialized to
    /// `INF` with a zero diagonal. Files already created are removed if
    /// a later step fails.
    pub(super) fn create(dir: &Path, n: usize, shard_bytes: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let row_bytes = elem_offset(n);
        let rows_per_shard = shard_bytes
            .checked_div(row_bytes)
            .map_or(1, |rows| rows.max(1) as usize);
        let first = unique_file(dir);
        let mut disk = DiskBacking {
            shards: Vec::new(),
            cap: (rows_per_shard as u64 * row_bytes).max(1),
            base: 0,
        };
        for s in 0..n.div_ceil(rows_per_shard).max(1) {
            // Sibling shards append `.s<k>` to the spill name, so one
            // store's family is recognizable (and removable) as a unit.
            let path = if s == 0 {
                first.clone()
            } else {
                PathBuf::from(format!("{}.s{s}", first.display()))
            };
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)?;
            disk.shards.push(DiskShard { file, path });
            let rows_here = n.min((s + 1) * rows_per_shard) - s * rows_per_shard;
            disk.shards[s].file.set_len(rows_here as u64 * row_bytes)?;
        }
        // One row at a time, so even huge matrices never need n² RAM.
        let mut row = vec![INF; n];
        for i in 0..n {
            if i > 0 {
                row[i - 1] = INF;
            }
            row[i] = 0;
            disk.write_all_at(cast_bytes(&row), i as u64 * row_bytes)?;
        }
        Ok(disk)
    }

    /// The spill directory, or `None` for a persisted file (whose shard
    /// path is empty).
    pub(super) fn spill_dir(&self) -> Option<&Path> {
        self.shards[0].path.parent()
    }

    /// Apply `f` to each `(file, file_offset, buf_range)` segment of the
    /// logical payload range `offset..offset + len`.
    fn for_each_segment<F>(&self, offset: u64, len: usize, mut f: F) -> io::Result<()>
    where
        F: FnMut(&File, u64, Range<usize>) -> io::Result<()>,
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

    /// Positional write of the logical payload range, split across shard
    /// files as needed.
    pub(super) fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.for_each_segment(offset, buf.len(), |file, off, range| {
            file.write_all_at(&buf[range], off)
        })
    }

    /// Positional read of the logical payload range (see
    /// [`Self::write_all_at`]).
    pub(super) fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.for_each_segment(offset, buf.len(), |file, off, range| {
            file.read_exact_at(&mut buf[range], off)
        })
    }

    /// Visit `rows` of the `n`-wide matrix in order, up to
    /// [`BULK_IO_BYTES`] per positional read.
    pub(super) fn scan_rows<F>(&self, n: usize, rows: Range<usize>, mut f: F) -> io::Result<()>
    where
        F: FnMut(usize, &[Dist]) -> io::Result<()>,
    {
        if rows.is_empty() {
            return Ok(());
        }
        let per_read = (BULK_IO_BYTES / (n * std::mem::size_of::<Dist>())).clamp(1, rows.len());
        let mut buf = vec![0 as Dist; per_read * n];
        let mut i = rows.start;
        while i < rows.end {
            let take = per_read.min(rows.end - i);
            let chunk = &mut buf[..take * n];
            self.read_exact_at(cast_bytes_mut(chunk), elem_offset(i * n))?;
            for (k, row) in chunk.chunks_exact(n).enumerate() {
                f(i + k, row)?;
            }
            i += take;
        }
        Ok(())
    }
}

impl Drop for DiskBacking {
    fn drop(&mut self) {
        for shard in self
            .shards
            .iter()
            .filter(|s| !s.path.as_os_str().is_empty())
        {
            let _ = std::fs::remove_file(&shard.path);
        }
    }
}

/// Write the persisted file for an `n × n` matrix: the header, the
/// payload `payload` streams into the buffered writer (returning its
/// [`SDC_PANEL_ROWS`]-row panel checksums), then the footer.
///
/// Atomic and durable: the data lands in a temporary sibling file, is
/// `sync_all`ed, renamed over `path`, and the directory is fsynced, so a
/// crash or `ENOSPC` mid-write never leaves a torn file at `path`, and a
/// returned write survives power loss. On error the temporary is
/// removed.
pub(super) fn write_persisted(
    path: &Path,
    n: usize,
    payload: impl FnOnce(&mut BufWriter<File>) -> io::Result<Vec<u64>>,
) -> io::Result<()> {
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
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut out = BufWriter::with_capacity(BULK_IO_BYTES, file);
        out.write_all(&PERSIST_MAGIC.to_le_bytes())?;
        out.write_all(&(n as u64).to_le_bytes())?;
        let footer = payload(&mut out)?;
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

/// Open a persisted `n × n` matrix read-only and check it whole: the
/// header must name `n`, the footer must be a version-2 footer, and the
/// payload — read once, [`BULK_IO_BYTES`] per `pread` — must match every
/// recorded panel checksum. Returns the backing and those verified
/// checksums.
///
/// A malformed layout is `InvalidData` naming what was found; a panel
/// that fails its checksum is a typed [`crate::ApspError::Corruption`]
/// naming the panel.
pub(super) fn open_persisted(path: &Path, n: usize) -> io::Result<(DiskBacking, Vec<u64>)> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let bad = |what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} {what}", path.display()),
        )
    };
    if len < PERSIST_HEADER_BYTES {
        return Err(bad(format!(
            "holds {len} bytes, too short for even the {PERSIST_HEADER_BYTES}-byte tile-store \
             header"
        )));
    }
    let mut header = [0u8; PERSIST_HEADER_BYTES as usize];
    file.read_exact_at(&mut header, 0)?;
    if le_u64(&header[..8]) != PERSIST_MAGIC {
        return Err(bad(
            "does not start with the tile-store magic — not a persisted matrix".into(),
        ));
    }
    let stored_n = le_u64(&header[8..]);
    if stored_n != n as u64 {
        return Err(bad(format!(
            "was persisted as a {stored_n}×{stored_n} matrix, caller asked for {n}×{n}"
        )));
    }
    let footer_at = PERSIST_HEADER_BYTES + elem_offset(n * n);
    let panels = n.div_ceil(SDC_PANEL_ROWS);
    let whole = footer_at + FOOTER_HEADER_BYTES + 8 * panels as u64;
    if len == footer_at {
        return Err(bad(
            "has no checksum footer (the pre-footer layout), so nothing vouches for its \
             payload — re-persist the matrix"
                .into(),
        ));
    }
    if len != whole {
        return Err(bad(format!(
            "holds {len} bytes, an {n}×{n} matrix with its checksum footer needs {whole} — \
             truncated?"
        )));
    }
    let mut footer = vec![0u8; (whole - footer_at) as usize];
    file.read_exact_at(&mut footer, footer_at)?;
    match le_u64(&footer[..8]) {
        FOOTER_MAGIC => {}
        0 => {
            return Err(bad(
                "carries a zeroed checksum footer magic (the payload was written through an \
                 opened store after its checksums were recorded), so nothing vouches for it \
                 — re-persist the matrix"
                    .into(),
            ))
        }
        FOOTER_MAGIC_V1 => {
            return Err(bad(
                "carries a checksum footer of format version 1 (FNV-1a panel checksums); this \
                 build reads footer version 2 only — re-persist the matrix"
                    .into(),
            ))
        }
        _ => {
            return Err(bad(
                "carries an unrecognized checksum footer — damaged?".into()
            ))
        }
    }
    let count = le_u64(&footer[8..16]);
    if count != panels as u64 {
        return Err(bad(format!(
            "records {count} checksum panels, an {n}×{n} matrix has {panels}"
        )));
    }
    let disk = DiskBacking {
        shards: vec![DiskShard {
            file,
            path: PathBuf::new(),
        }],
        cap: elem_offset(n * n).max(1),
        base: PERSIST_HEADER_BYTES,
    };
    let mut digests = Vec::with_capacity(n);
    disk.scan_rows(n, 0..n, |_, row| {
        digests.push(dist_digest(row));
        Ok(())
    })?;
    let sums = fold_panels(&digests, SDC_PANEL_ROWS);
    let recorded = footer[FOOTER_HEADER_BYTES as usize..].chunks_exact(8);
    if let Some(p) = sums.iter().zip(recorded).position(|(s, r)| *s != le_u64(r)) {
        return Err(io::Error::other(CorruptionMark {
            detail: format!(
                "persisted matrix {} panel {p} (rows {}..{}) fails its recorded checksum",
                path.display(),
                p * SDC_PANEL_ROWS,
                ((p + 1) * SDC_PANEL_ROWS).min(n)
            ),
        }));
    }
    Ok((disk, sums))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte field"))
}

/// Fsync directory `dir`, making a rename into it durable: without
/// this a power loss can keep a later rename while losing an earlier
/// one.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// `path.parent()`, with a bare file name resolving to the current
/// directory instead of the empty path.
pub(super) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Whether two directory paths name the same directory, resolving
/// symlinks/relative segments when both exist.
pub(super) fn same_dir(a: &Path, b: &Path) -> bool {
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
