//! Crash-safe checkpoint/resume for the out-of-core runs.
//!
//! A checkpoint is a directory holding two things:
//!
//! * `state-{a,b}.bin` — a full snapshot of the [`TileStore`] matrix,
//!   written with the store's atomic [`TileStore::persist`] (temp file +
//!   `sync_all` + rename + directory fsync). Commits alternate between
//!   the two slots so the snapshot named by the manifest is never the
//!   one being replaced.
//! * `manifest` — a small versioned text file naming the live slot and
//!   recording the run's identity (graph fingerprint, dimension), its
//!   geometry + progress cursor, and per-row-panel
//!   [`panel_checksum`](crate::tile_store::panel_checksum)s of the
//!   snapshot *as read back from disk*. The manifest ends in an FNV-1a
//!   self-checksum line and is itself written atomically — renaming it
//!   into place is the commit point of the whole checkpoint.
//!
//! Both renames are followed by an fsync of the checkpoint directory,
//! so the snapshot rename is durable before the manifest that names it
//! is written, and a returned commit survives power loss: without the
//! directory fsyncs a power cut could keep the manifest rename yet lose
//! the snapshot rename it depends on.
//!
//! Recovery is exact, not approximate, because the three out-of-core
//! algorithms only ever move store cells *downward* toward the metric
//! closure (min-plus relaxations are monotone) or overwrite rows with
//! values recomputed from the graph. Replaying a partially-committed
//! round/batch/phase on a restored snapshot therefore converges to the
//! same matrix as an uninterrupted run — the kill-resume differential
//! tests in `crates/conformance` enforce this bit-for-bit.
//!
//! Failure policy: a *missing* manifest means "no checkpoint" and resumes
//! as a fresh start (a crash can precede the first commit), but a
//! *present-and-invalid* one — truncated, failing its self-checksum,
//! fingerprinting a different graph, or naming a snapshot whose panel
//! checksums do not match — is always a typed
//! [`ApspError::Corruption`]. Wrong distances are never an outcome.

use crate::error::ApspError;
use crate::tile_store::{fnv1a, sync_dir, TileStore, FNV_OFFSET_BASIS};
use apsp_graph::{CsrGraph, VertexId};
use std::io;
use std::path::{Path, PathBuf};

/// Manifest format version this build writes and understands. Version
/// 2 records [`panel_checksum`](crate::tile_store::panel_checksum)s;
/// version 1 recorded byte-serial FNV-1a panel checksums and is rejected
/// as [`ApspError::Corruption`] naming its version, never compared.
pub const MANIFEST_VERSION: u32 = 2;

/// Rows per checksum panel recorded in new manifests: the persisted
/// footer's panels, so a commit takes its checksums from the check
/// [`TileStore::open`] makes anyway. Small enough that a corrupt region
/// is localized, large enough that the manifest stays tiny even for
/// paper-scale matrices.
pub const DEFAULT_PANEL_ROWS: usize = crate::tile_store::SDC_PANEL_ROWS;

/// Where a run is, in units of its natural commit barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Blocked Floyd-Warshall: `next_round` pivot rounds of `n_d =
    /// ceil(n / block)` are fully applied to the snapshot.
    FloydWarshall {
        /// Tile side the committed rounds ran at (rounds are only
        /// resumable at the same blocking).
        block: usize,
        /// First pivot round not yet committed.
        next_round: usize,
    },
    /// Batched Johnson's: every source row below `next_row` is final in
    /// the snapshot.
    Johnson {
        /// Batch size of the committed run (informational; a resume may
        /// re-batch the remaining rows freely).
        batch_size: usize,
        /// First source row not yet committed.
        next_row: usize,
    },
    /// Boundary algorithm: every component below `next_component` has
    /// its dist₄ row panel final in the snapshot. dist₂/dist₃ are
    /// recomputed on resume (deterministic given the partition), so the
    /// cursor only advances through the streaming phase.
    Boundary {
        /// Component count of the committed partition.
        components: usize,
        /// Partitioner seed — the resume must reproduce the identical
        /// partition or the committed panels would describe the wrong
        /// vertex sets.
        partition_seed: u64,
        /// First component whose dist₄ panel is not yet committed.
        next_component: usize,
    },
}

impl Progress {
    /// Short algorithm tag used in the manifest (`fw`, `johnson`,
    /// `boundary`).
    pub fn algorithm_tag(&self) -> &'static str {
        match self {
            Progress::FloydWarshall { .. } => "fw",
            Progress::Johnson { .. } => "johnson",
            Progress::Boundary { .. } => "boundary",
        }
    }
}

/// A parsed, self-checksum-validated manifest. Graph-fingerprint
/// validation happens in [`Checkpoint::load`]; snapshot-checksum
/// validation in [`Checkpoint::restore_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version (always [`MANIFEST_VERSION`] after a load).
    pub version: u32,
    /// [`graph_fingerprint`] of the input graph.
    pub fingerprint: u64,
    /// Matrix dimension.
    pub n: usize,
    /// Snapshot slot file name (`state-a.bin` / `state-b.bin`).
    pub state_file: String,
    /// Rows per checksum panel.
    pub panel_rows: usize,
    /// [`panel_checksum`](crate::tile_store::panel_checksum) of each
    /// consecutive `panel_rows`-row panel of the snapshot, as read back
    /// from disk at commit time.
    pub checksums: Vec<u64>,
    /// The progress cursor.
    pub progress: Progress,
}

/// Order-sensitive FNV-1a fingerprint of a graph's exact structure and
/// weights (vertex count, edge count, every adjacency in CSR order).
/// Identical graphs — and only identical graphs, up to hash collision —
/// may resume each other's checkpoints.
pub fn graph_fingerprint(g: &CsrGraph) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    h = fnv1a(&(g.num_vertices() as u64).to_le_bytes(), h);
    h = fnv1a(&(g.num_edges() as u64).to_le_bytes(), h);
    for v in 0..g.num_vertices() as VertexId {
        for (u, w) in g.edges_from(v) {
            h = fnv1a(&u.to_le_bytes(), h);
            h = fnv1a(&w.to_le_bytes(), h);
        }
    }
    h
}

/// Handle to a checkpoint directory, bound to one graph.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    fingerprint: u64,
    n: usize,
    /// Slot the *next* commit writes to; flipped after every successful
    /// commit so the manifest never points at the slot being rewritten.
    next_slot: std::cell::Cell<u8>,
}

impl Checkpoint {
    /// Bind a checkpoint directory (created if missing) to graph `g`.
    pub fn new<P: AsRef<Path>>(dir: P, g: &CsrGraph) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Checkpoint {
            dir,
            fingerprint: graph_fingerprint(g),
            n: g.num_vertices(),
            next_slot: std::cell::Cell::new(0),
        })
    }

    /// The bound directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest")
    }

    fn slot_name(slot: u8) -> &'static str {
        if slot == 0 {
            "state-a.bin"
        } else {
            "state-b.bin"
        }
    }

    /// Durably commit `store` + `progress`. The snapshot lands in the
    /// inactive slot, is re-opened and checksummed from disk, and only
    /// then does the manifest rename make it the live checkpoint — a
    /// crash anywhere in between leaves the previous checkpoint intact.
    ///
    /// The read-back is [`TileStore::open`]'s check: each snapshot row
    /// is read and hashed once, and the fold that verifies the
    /// snapshot's footer yields the manifest's checksums (the manifest's
    /// panels are the footer's).
    pub fn commit(&self, store: &TileStore, progress: &Progress) -> Result<(), ApspError> {
        let slot = self.next_slot.get();
        let state_path = self.dir.join(Self::slot_name(slot));
        store.persist(&state_path)?;
        // Checksum what is actually on disk, not what we think we wrote.
        let panel_rows = DEFAULT_PANEL_ROWS.min(self.n.max(1));
        let (_, checksums) = TileStore::open(&state_path, self.n)?;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            fingerprint: self.fingerprint,
            n: self.n,
            state_file: Self::slot_name(slot).to_string(),
            panel_rows,
            checksums,
            progress: *progress,
        };
        write_manifest_atomic(&self.manifest_path(), &manifest)?;
        self.next_slot.set(1 - slot);
        Ok(())
    }

    /// Load and validate the manifest. `Ok(None)` means no checkpoint
    /// exists (fresh start); any present-but-invalid state is
    /// [`ApspError::Corruption`].
    pub fn load(&self) -> Result<Option<Manifest>, ApspError> {
        let path = self.manifest_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let manifest = parse_manifest(&bytes).map_err(|detail| ApspError::Corruption {
            detail: format!("{}: {detail}", path.display()),
        })?;
        if manifest.fingerprint != self.fingerprint {
            return Err(ApspError::Corruption {
                detail: format!(
                    "{} was written for a different graph (fingerprint {:016x}, this graph is {:016x})",
                    path.display(),
                    manifest.fingerprint,
                    self.fingerprint
                ),
            });
        }
        if manifest.n != self.n {
            return Err(ApspError::Corruption {
                detail: format!(
                    "manifest records an {m}×{m} matrix, this graph needs {n}×{n}",
                    m = manifest.n,
                    n = self.n
                ),
            });
        }
        // Resume writes to the slot the manifest does NOT occupy.
        self.next_slot
            .set(if manifest.state_file == Self::slot_name(0) {
                1
            } else {
                0
            });
        Ok(Some(manifest))
    }

    /// Verify the snapshot named by `manifest` against its recorded
    /// checksums and copy it into `store`, row by row. Checksum or size
    /// mismatch is [`ApspError::Corruption`].
    pub fn restore_into(
        &self,
        manifest: &Manifest,
        store: &mut TileStore,
    ) -> Result<(), ApspError> {
        assert_eq!(store.n(), manifest.n, "restore target dimension mismatch");
        let state_path = self.dir.join(&manifest.state_file);
        let (snapshot, footer) = TileStore::open(&state_path, manifest.n).map_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::NotFound
            ) {
                ApspError::Corruption {
                    detail: format!("snapshot {}: {e}", state_path.display()),
                }
            } else {
                e.into()
            }
        })?;
        // The footer's panels are the manifest's: `parse_manifest` admits
        // no other panel height.
        if footer != manifest.checksums {
            let first_bad = footer
                .iter()
                .zip(&manifest.checksums)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(ApspError::Corruption {
                detail: format!(
                    "snapshot {} fails its checksums starting at row panel {first_bad} \
                     (rows {}..): the matrix on disk is not the one the manifest committed",
                    state_path.display(),
                    first_bad * manifest.panel_rows
                ),
            });
        }
        for i in 0..manifest.n {
            let row = snapshot.read_row(i)?;
            store.write_row(i, &row)?;
        }
        Ok(())
    }

    /// The resume step every checkpointed driver shares: load the
    /// manifest, map its progress to the driver's cursor with `cursor`
    /// (`None` means the manifest belongs to another algorithm, which is
    /// [`ApspError::InvalidInput`] naming `algorithm`), and restore the
    /// snapshot into `store`. `Ok(None)` means there is no checkpoint and
    /// the run starts fresh.
    pub fn resume<T>(
        &self,
        store: &mut TileStore,
        algorithm: &str,
        cursor: impl FnOnce(Progress) -> Option<T>,
    ) -> Result<Option<T>, ApspError> {
        let Some(m) = self.load()? else {
            return Ok(None);
        };
        let Some(c) = cursor(m.progress) else {
            return Err(ApspError::InvalidInput(format!(
                "checkpoint in {} belongs to the `{}` algorithm, not {algorithm} — \
                 delete it to start over",
                self.dir.display(),
                m.progress.algorithm_tag()
            )));
        };
        self.restore_into(&m, store)?;
        Ok(Some(c))
    }

    /// Delete the checkpoint. The manifest goes first, so a crash
    /// mid-clear degrades to "no checkpoint" rather than a manifest
    /// pointing at a deleted snapshot.
    pub fn clear(&self) -> io::Result<()> {
        remove_if_present(&self.manifest_path())?;
        remove_if_present(&self.dir.join(Self::slot_name(0)))?;
        remove_if_present(&self.dir.join(Self::slot_name(1)))?;
        Ok(())
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Serialize `m` and rename it into place (temp sibling + `sync_all` +
/// rename + directory fsync — same discipline as [`TileStore::persist`]).
fn write_manifest_atomic(path: &Path, m: &Manifest) -> io::Result<()> {
    let body = serialize_manifest(m);
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(".manifest.tmp.{}", std::process::id()));
    let result = (|| -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_dir(dir)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Line-oriented text encoding; the final `end <hex>` line carries the
/// FNV-1a of every preceding byte so truncation and bit-rot are caught
/// before any field is trusted.
fn serialize_manifest(m: &Manifest) -> String {
    let mut s = String::new();
    s.push_str(&format!("apsp-checkpoint {}\n", m.version));
    s.push_str(&format!("fingerprint {:016x}\n", m.fingerprint));
    s.push_str(&format!("n {}\n", m.n));
    s.push_str(&format!("state {}\n", m.state_file));
    s.push_str(&format!("panel_rows {}\n", m.panel_rows));
    s.push_str("checksums");
    for c in &m.checksums {
        s.push_str(&format!(" {c:016x}"));
    }
    s.push('\n');
    match m.progress {
        Progress::FloydWarshall { block, next_round } => {
            s.push_str(&format!("progress fw {block} {next_round}\n"));
        }
        Progress::Johnson {
            batch_size,
            next_row,
        } => {
            s.push_str(&format!("progress johnson {batch_size} {next_row}\n"));
        }
        Progress::Boundary {
            components,
            partition_seed,
            next_component,
        } => {
            s.push_str(&format!(
                "progress boundary {components} {partition_seed} {next_component}\n"
            ));
        }
    }
    let sum = fnv1a(s.as_bytes(), FNV_OFFSET_BASIS);
    s.push_str(&format!("end {sum:016x}\n"));
    s
}

/// Inverse of [`serialize_manifest`]. Every failure mode returns a
/// human-readable detail string; the caller wraps it in
/// [`ApspError::Corruption`].
fn parse_manifest(bytes: &[u8]) -> Result<Manifest, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "manifest is not UTF-8".to_string())?;
    // Locate the trailing `end <hex>` line and verify the self-checksum
    // over everything before it.
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let (body_end, end_line) = match trimmed.rfind('\n') {
        Some(i) => (i + 1, &trimmed[i + 1..]),
        None => (0, trimmed),
    };
    let declared = end_line
        .strip_prefix("end ")
        .ok_or("manifest is truncated (no `end` checksum line)")?;
    let declared =
        u64::from_str_radix(declared.trim(), 16).map_err(|_| "unparseable `end` checksum")?;
    let actual = fnv1a(&text.as_bytes()[..body_end], FNV_OFFSET_BASIS);
    if actual != declared {
        return Err(format!(
            "self-checksum mismatch (recorded {declared:016x}, content hashes to {actual:016x}) — truncated or bit-rotted"
        ));
    }

    let mut lines = text[..body_end].lines();
    let header = lines.next().ok_or("empty manifest")?;
    let version: u32 = header
        .strip_prefix("apsp-checkpoint ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or("missing `apsp-checkpoint <version>` header")?;
    if version != MANIFEST_VERSION {
        return Err(format!(
            "manifest format version {version} is not supported (this build reads and writes \
             version {MANIFEST_VERSION}; version 1 recorded FNV-1a panel checksums) — delete \
             the checkpoint to start over"
        ));
    }

    let mut fingerprint = None;
    let mut n = None;
    let mut state_file = None;
    let mut panel_rows = None;
    let mut checksums = None;
    let mut progress = None;
    for line in lines {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "fingerprint" => {
                fingerprint =
                    Some(u64::from_str_radix(rest.trim(), 16).map_err(|_| "bad fingerprint")?)
            }
            "n" => n = Some(rest.trim().parse::<usize>().map_err(|_| "bad n")?),
            "state" => {
                let name = rest.trim();
                if name != "state-a.bin" && name != "state-b.bin" {
                    return Err(format!("unknown snapshot slot {name:?}"));
                }
                state_file = Some(name.to_string());
            }
            "panel_rows" => {
                panel_rows = Some(rest.trim().parse::<usize>().map_err(|_| "bad panel_rows")?);
            }
            "checksums" => {
                let mut v = Vec::new();
                for tok in rest.split_whitespace() {
                    v.push(u64::from_str_radix(tok, 16).map_err(|_| "bad checksum entry")?);
                }
                checksums = Some(v);
            }
            "progress" => progress = Some(parse_progress(rest)?),
            other => return Err(format!("unknown manifest field {other:?}")),
        }
    }
    let n = n.ok_or("missing n")?;
    let panel_rows = panel_rows.ok_or("missing panel_rows")?;
    if panel_rows != DEFAULT_PANEL_ROWS.min(n.max(1)) {
        return Err(format!(
            "panel_rows {panel_rows} is not the snapshot footer's panel height {}",
            DEFAULT_PANEL_ROWS.min(n.max(1))
        ));
    }
    let checksums = checksums.ok_or("missing checksums")?;
    if checksums.len() != n.div_ceil(panel_rows) {
        return Err(format!(
            "checksum count {} does not cover {n} rows in panels of {panel_rows}",
            checksums.len()
        ));
    }
    Ok(Manifest {
        version,
        fingerprint: fingerprint.ok_or("missing fingerprint")?,
        n,
        state_file: state_file.ok_or("missing state")?,
        panel_rows,
        checksums,
        progress: progress.ok_or("missing progress")?,
    })
}

fn parse_progress(rest: &str) -> Result<Progress, String> {
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let want = |count: usize| -> Result<(), String> {
        if toks.len() != count + 1 {
            Err(format!("progress {:?} needs {count} fields", toks.first()))
        } else {
            Ok(())
        }
    };
    let num = |i: usize| -> Result<usize, String> {
        toks[i]
            .parse::<usize>()
            .map_err(|_| format!("bad progress field {:?}", toks[i]))
    };
    match toks.first() {
        Some(&"fw") => {
            want(2)?;
            Ok(Progress::FloydWarshall {
                block: num(1)?,
                next_round: num(2)?,
            })
        }
        Some(&"johnson") => {
            want(2)?;
            Ok(Progress::Johnson {
                batch_size: num(1)?,
                next_row: num(2)?,
            })
        }
        Some(&"boundary") => {
            want(3)?;
            Ok(Progress::Boundary {
                components: num(1)?,
                partition_seed: toks[2]
                    .parse::<u64>()
                    .map_err(|_| "bad partition seed".to_string())?,
                next_component: num(3)?,
            })
        }
        other => Err(format!("unknown progress tag {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile_store::StorageBackend;
    use apsp_graph::generators::{gnp, WeightRange};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("apsp_checkpoint_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn seeded_store(n: usize, salt: u32) -> TileStore {
        let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
        let row: Vec<u32> = (0..n as u32).map(|j| j.wrapping_mul(7) ^ salt).collect();
        s.write_row(1 % n.max(1), &row).unwrap();
        s
    }

    #[test]
    fn manifest_roundtrips() {
        for progress in [
            Progress::FloydWarshall {
                block: 32,
                next_round: 3,
            },
            Progress::Johnson {
                batch_size: 17,
                next_row: 120,
            },
            Progress::Boundary {
                components: 6,
                partition_seed: 0x9A17,
                next_component: 2,
            },
        ] {
            let m = Manifest {
                version: MANIFEST_VERSION,
                fingerprint: 0xDEAD_BEEF_0123_4567,
                n: 130,
                state_file: "state-b.bin".into(),
                panel_rows: 64,
                checksums: vec![1, 2, 3],
                progress,
            };
            let text = serialize_manifest(&m);
            assert_eq!(parse_manifest(text.as_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn every_checkpointed_entry_rejects_another_algorithms_manifest() {
        use crate::error::ApspErrorKind;
        use crate::multi_gpu::ooc_boundary_multi_checkpointed_supervised as multi;
        use crate::ooc_boundary::ooc_boundary_checkpointed_supervised as boundary;
        use crate::ooc_fw::ooc_floyd_warshall_checkpointed_supervised as fw;
        use crate::ooc_johnson::ooc_johnson_checkpointed_supervised as johnson;
        use crate::supervisor::Supervisor;
        use apsp_gpu_sim::{DeviceProfile, GpuDevice};
        type Entry<'a> = &'a dyn Fn(&mut TileStore, &Checkpoint) -> Result<(), ApspError>;
        let (g, sup) = (
            gnp(40, 0.1, WeightRange::default(), 9),
            Supervisor::unarmed(),
        );
        let v100 = || GpuDevice::new(DeviceProfile::v100());
        let (fo, jo, bo) = (Default::default(), Default::default(), Default::default());
        // Each checkpointed entry with the manifest tag it owns.
        let entries: [(&str, Entry); 4] = [
            ("fw", &|s, ck| {
                fw(&mut v100(), &g, s, &fo, ck, &sup).map(drop)
            }),
            ("johnson", &|s, ck| {
                johnson(&mut v100(), &g, s, &jo, ck, &sup).map(drop)
            }),
            ("boundary", &|s, ck| {
                boundary(&mut v100(), &g, s, &bo, ck, &sup).map(drop)
            }),
            ("boundary", &|s, ck| {
                multi(&mut [v100(), v100()], &g, s, &bo, ck, &sup).map(drop)
            }),
        ];
        let foreign = [
            Progress::FloydWarshall {
                block: 16,
                next_round: 1,
            },
            Progress::Johnson {
                batch_size: 8,
                next_row: 8,
            },
            Progress::Boundary {
                components: 4,
                partition_seed: 0,
                next_component: 1,
            },
        ];
        for (i, (own, run)) in entries.into_iter().enumerate() {
            for progress in foreign.iter().filter(|p| p.algorithm_tag() != own) {
                let tag = progress.algorithm_tag();
                let cell = format!("entry {i} ({own}) given a {tag} manifest");
                let ckpt = Checkpoint::new(tmp(&format!("foreign-{i}-{tag}")), &g).unwrap();
                ckpt.commit(&seeded_store(40, 0xF), progress).unwrap();
                let mut store = TileStore::new(40, &StorageBackend::Memory).unwrap();
                let err = run(&mut store, &ckpt).unwrap_err();
                assert_eq!(err.kind(), ApspErrorKind::InvalidInput, "{cell}: {err}");
                assert!(err.to_string().contains(tag), "{cell}: {err}");
                assert!(ckpt.load().unwrap().is_some(), "{cell} cleared it");
            }
        }
    }

    #[test]
    fn commit_load_restore_roundtrip() {
        let g = gnp(40, 0.1, WeightRange::default(), 5);
        let dir = tmp("roundtrip");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        assert!(ckpt.load().unwrap().is_none(), "fresh dir has no manifest");

        let store = seeded_store(40, 0xA);
        let progress = Progress::Johnson {
            batch_size: 8,
            next_row: 16,
        };
        ckpt.commit(&store, &progress).unwrap();

        let ckpt2 = Checkpoint::new(&dir, &g).unwrap();
        let m = ckpt2.load().unwrap().expect("manifest committed");
        assert_eq!(m.progress, progress);
        let mut restored = TileStore::new(40, &StorageBackend::Memory).unwrap();
        ckpt2.restore_into(&m, &mut restored).unwrap();
        assert_eq!(
            restored.to_dist_matrix().unwrap(),
            store.to_dist_matrix().unwrap()
        );
        ckpt2.clear().unwrap();
        assert!(ckpt2.load().unwrap().is_none());
    }

    #[test]
    fn commits_alternate_slots_preserving_the_previous_snapshot() {
        let g = gnp(20, 0.2, WeightRange::default(), 6);
        let dir = tmp("slots");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let s1 = seeded_store(20, 1);
        ckpt.commit(
            &s1,
            &Progress::Johnson {
                batch_size: 4,
                next_row: 4,
            },
        )
        .unwrap();
        let m1 = ckpt.load().unwrap().unwrap();
        let s2 = seeded_store(20, 2);
        ckpt.commit(
            &s2,
            &Progress::Johnson {
                batch_size: 4,
                next_row: 8,
            },
        )
        .unwrap();
        let m2 = ckpt.load().unwrap().unwrap();
        assert_ne!(m1.state_file, m2.state_file, "slots must alternate");
        // The second commit never touched the first snapshot's slot.
        let mut restored = TileStore::new(20, &StorageBackend::Memory).unwrap();
        ckpt.restore_into(&m2, &mut restored).unwrap();
        assert_eq!(
            restored.to_dist_matrix().unwrap(),
            s2.to_dist_matrix().unwrap()
        );
    }

    #[test]
    fn truncated_manifest_is_corruption() {
        let g = gnp(30, 0.1, WeightRange::default(), 7);
        let dir = tmp("truncated");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 3),
            &Progress::FloydWarshall {
                block: 8,
                next_round: 1,
            },
        )
        .unwrap();
        let path = dir.join("manifest");
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 5, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = ckpt.load().unwrap_err();
            assert_eq!(
                err.kind(),
                crate::ApspErrorKind::Corruption,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_in_manifest_is_corruption() {
        let g = gnp(30, 0.1, WeightRange::default(), 8);
        let dir = tmp("bitflip_manifest");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 4),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        let path = dir.join("manifest");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn version_1_manifest_is_rejected_naming_its_version() {
        let g = gnp(30, 0.1, WeightRange::default(), 14);
        let dir = tmp("manifest_v1");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let progress = Progress::Johnson {
            batch_size: 5,
            next_row: 10,
        };
        ckpt.commit(&seeded_store(30, 8), &progress).unwrap();
        // A well-formed FNV-era manifest: valid self-checksum, version 1.
        let mut m = ckpt.load().unwrap().unwrap();
        m.version = 1;
        std::fs::write(dir.join("manifest"), serialize_manifest(&m)).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
        assert!(err.to_string().contains("format version 1"), "{err}");
        let mut store = TileStore::new(30, &StorageBackend::Memory).unwrap();
        let err = ckpt.resume(&mut store, "johnson", Some).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn manifest_with_a_foreign_panel_height_is_corruption() {
        let g = gnp(30, 0.1, WeightRange::default(), 16);
        let dir = tmp("panel_height");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 10),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        // Well-formed and self-consistent, but not the footer's panels.
        let mut m = ckpt.load().unwrap().unwrap();
        m.panel_rows = 7;
        m.checksums = vec![0; 30usize.div_ceil(7)];
        std::fs::write(dir.join("manifest"), serialize_manifest(&m)).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
        assert!(err.to_string().contains("panel_rows 7"), "{err}");
    }

    #[test]
    fn fnv_era_snapshot_is_corruption_naming_its_version() {
        let g = gnp(30, 0.1, WeightRange::default(), 15);
        let dir = tmp("snapshot_v1");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 9),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        let m = ckpt.load().unwrap().unwrap();
        // Retag the snapshot's footer as the version-1 (FNV-1a) format.
        let state = dir.join(&m.state_file);
        let mut bytes = std::fs::read(&state).unwrap();
        let at = 16 + 30 * 30 * 4;
        bytes[at..at + 8].copy_from_slice(b"APSPSUMS");
        std::fs::write(&state, &bytes).unwrap();
        let mut store = TileStore::new(30, &StorageBackend::Memory).unwrap();
        let err = ckpt.restore_into(&m, &mut store).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
        assert!(err.to_string().contains("format version 1"), "{err}");
    }

    #[test]
    fn snapshot_bit_flip_is_corruption_on_restore() {
        let g = gnp(30, 0.1, WeightRange::default(), 9);
        let dir = tmp("bitflip_state");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 5),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        let m = ckpt.load().unwrap().unwrap();
        // Flip one byte deep inside the snapshot the manifest points at.
        let state = dir.join(&m.state_file);
        let mut bytes = std::fs::read(&state).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&state, &bytes).unwrap();
        let mut store = TileStore::new(30, &StorageBackend::Memory).unwrap();
        let err = ckpt.restore_into(&m, &mut store).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn truncated_snapshot_is_corruption_on_restore() {
        let g = gnp(30, 0.1, WeightRange::default(), 10);
        let dir = tmp("truncated_state");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 6),
            &Progress::FloydWarshall {
                block: 8,
                next_round: 2,
            },
        )
        .unwrap();
        let m = ckpt.load().unwrap().unwrap();
        let state = dir.join(&m.state_file);
        let bytes = std::fs::read(&state).unwrap();
        std::fs::write(&state, &bytes[..bytes.len() - 8]).unwrap();
        let mut store = TileStore::new(30, &StorageBackend::Memory).unwrap();
        let err = ckpt.restore_into(&m, &mut store).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn fingerprint_mismatch_is_corruption() {
        let g1 = gnp(30, 0.1, WeightRange::default(), 11);
        let g2 = gnp(30, 0.1, WeightRange::default(), 12);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        let dir = tmp("fingerprint");
        let ckpt1 = Checkpoint::new(&dir, &g1).unwrap();
        ckpt1
            .commit(
                &seeded_store(30, 7),
                &Progress::Johnson {
                    batch_size: 5,
                    next_row: 10,
                },
            )
            .unwrap();
        // Same directory, different graph: resume must refuse.
        let ckpt2 = Checkpoint::new(&dir, &g2).unwrap();
        let err = ckpt2.load().unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
        assert!(err.to_string().contains("different graph"), "{err}");
    }

    #[test]
    fn fingerprint_is_weight_sensitive() {
        let g1 = gnp(25, 0.15, WeightRange::new(1, 10), 13);
        let g2 = gnp(25, 0.15, WeightRange::new(1, 11), 13);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g1));
    }
}
