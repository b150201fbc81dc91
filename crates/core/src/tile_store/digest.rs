//! The store's checksums: [`row_digest`] for bulk matrix data, the
//! [`panel_checksum`] fold over row digests, and byte-serial FNV-1a for
//! short metadata.

use super::cast_bytes;
use apsp_cpu::parallel::{par_bands_weighted, SharedSliceMut};
use apsp_graph::Dist;

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
/// manifest, [`super::TileStore::panel_checksums`], the service's result
/// cache — is this one definition, so each can be derived from row
/// digests an earlier check already computed.
pub fn panel_checksum(row_digests: impl IntoIterator<Item = u64>) -> u64 {
    row_digests.into_iter().fold(DIGEST_SEED, digest_step)
}

/// [`panel_checksum`] of each consecutive `panel_rows`-row panel of a
/// run of row digests (the last panel may be shorter).
pub(super) fn fold_panels(row_digests: &[u64], panel_rows: usize) -> Vec<u64> {
    row_digests
        .chunks(panel_rows)
        .map(|panel| panel_checksum(panel.iter().copied()))
        .collect()
}

/// [`row_digest`] of a row of distances.
pub(super) fn dist_digest(row: &[Dist]) -> u64 {
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
