//! The silent-corruption guard's checksum registry (see
//! [`TileStore::set_sdc_guard`]) and the unaccounted row scans it reads
//! through.

use super::digest::dist_digest;
use super::{Backing, TileStore, SDC_PANEL_ROWS};
use crate::error::SdcMark;
use crate::options::SdcGuardMode;
use apsp_graph::Dist;
use std::io;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Live state of the guard: one [`super::row_digest`] per row, plus a
/// dirty flag for rows whose checksum is stale after a partial (block)
/// write. Full-row writes re-hash eagerly from the data being written
/// (no I/O amplification); partial writes only mark dirty, and the
/// stale rows are re-hashed lazily at the next
/// [`TileStore::verify_checksums`] barrier sweep.
#[derive(Debug)]
pub(super) struct SdcState {
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

impl SdcState {
    /// Record `hash` as row `i`'s clean checksum.
    fn record(&mut self, i: usize, hash: u64) {
        self.rows[i] = hash;
        self.dirty[i] = false;
        self.consumed[i] = false;
    }
}

impl TileStore {
    /// Enable (or disable, with [`SdcGuardMode::Off`]) the
    /// silent-corruption guard: a per-row [`super::row_digest`] registry
    /// seeded from the store's *current* contents. Full-row reads verify
    /// against the registry; [`Self::verify_checksums`] sweeps the whole
    /// registry at barriers and run end. A mismatch surfaces as a typed
    /// [`crate::ApspError::SilentCorruption`] through the store's error
    /// plumbing. Guard reads bypass the fault seam, supervision ticks
    /// and telemetry counters, so arming the guard never perturbs
    /// injected-fault ordinals or the simulated clock.
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
        self.sdc = Some(parking_lot::Mutex::new(SdcState {
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

    /// Full-registry verification for barrier and run-end gates: rows
    /// marked dirty by partial writes are re-hashed (their change was
    /// legitimate); clean rows must still match their recorded checksum.
    /// A no-op when the guard is off.
    pub fn verify_checksums(&self) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let mut state = sdc.lock();
        self.scan_rows(0..self.n, |i, row| {
            let hash = dist_digest(row);
            if state.dirty[i] {
                state.record(i, hash);
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
    pub fn sdc_rebaseline(&self, rows: Range<usize>) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let mut state = sdc.lock();
        self.scan_rows(rows, |i, row| {
            state.record(i, dist_digest(row));
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
            round: self.sdc_round.load(Ordering::Relaxed) as usize,
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
    /// `core::sdc`: like [`Self::read_row`] but bypassing the fault
    /// seam, supervision ticks and telemetry counters, so the invariant
    /// checks never perturb injected-fault ordinals or the simulated
    /// clock.
    pub(crate) fn guard_read_row(&self, i: usize) -> io::Result<Vec<Dist>> {
        let mut out = Vec::with_capacity(self.n);
        self.scan_rows(i..i + 1, |_, row| {
            out.extend_from_slice(row);
            Ok(())
        })?;
        Ok(out)
    }

    /// Visit `rows` in order through unaccounted reads: memory rows in
    /// place, disk rows in bulk positional reads.
    fn scan_rows<F>(&self, rows: Range<usize>, mut f: F) -> io::Result<()>
    where
        F: FnMut(usize, &[Dist]) -> io::Result<()>,
    {
        let n = self.n;
        match &self.backing {
            Backing::Memory(data) => rows
                .into_iter()
                .try_for_each(|i| f(i, &data[i * n..(i + 1) * n])),
            Backing::Disk(d) => d.scan_rows(n, rows, f),
        }
    }

    /// Record fresh checksums for full rows just written from `rows`
    /// (consecutive `n`-wide rows starting at `row_start`).
    pub(super) fn sdc_record_rows(&self, row_start: usize, rows: &[Dist]) {
        if let Some(sdc) = &self.sdc {
            let state = &mut *sdc.lock();
            for (k, row) in rows.chunks_exact(self.n).enumerate() {
                state.record(row_start + k, dist_digest(row));
            }
        }
    }

    /// Mark rows stale after a partial (sub-row) write; they are
    /// re-hashed at the next [`Self::verify_checksums`] sweep.
    pub(super) fn sdc_mark_dirty(&self, rows: Range<usize>) {
        if let Some(sdc) = &self.sdc {
            sdc.lock().dirty[rows].fill(true);
        }
    }

    /// Check row `i`'s just-read `digest` against the registry (dirty
    /// rows pass: their recorded checksum is legitimately stale).
    pub(super) fn sdc_check_row(&self, i: usize, digest: u64) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let state = sdc.lock();
        if !state.dirty[i] && digest != state.rows[i] {
            return Err(self.sdc_mismatch(i, state.consumed[i]));
        }
        Ok(())
    }

    /// Mark rows as read by accounted I/O (see [`SdcState::consumed`]).
    /// Called *after* any same-call check, so the read that detects a
    /// mismatch still reports the damage as contained.
    pub(super) fn sdc_mark_consumed(&self, rows: Range<usize>) {
        if let Some(sdc) = &self.sdc {
            sdc.lock().consumed[rows].fill(true);
        }
    }

    /// Before a partial write dirties a clean row, verify the row's
    /// *current* content against the registry. Without this, the
    /// sequence "damage strikes a clean row, a later partial write marks
    /// it dirty, the barrier sweep re-hashes it" would absorb the
    /// corruption as a legitimate change. Costs one unaccounted
    /// full-row read per clean→dirty transition (at most one per row
    /// per barrier interval).
    pub(super) fn sdc_predirty_verify(&self, rows: Range<usize>) -> io::Result<()> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        for i in rows {
            let expect = {
                let state = sdc.lock();
                (!state.dirty[i]).then(|| (state.rows[i], state.consumed[i]))
            };
            if let Some((hash, consumed)) = expect {
                self.scan_rows(i..i + 1, |_, row| {
                    if dist_digest(row) != hash {
                        return Err(self.sdc_mismatch(i, consumed));
                    }
                    Ok(())
                })?;
            }
        }
        Ok(())
    }
}
