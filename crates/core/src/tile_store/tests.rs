use super::disk::{FOOTER_HEADER_BYTES, PERSIST_HEADER_BYTES};
use super::fault::ENOSPC_ERRNO;
use super::*;
use crate::options::SdcGuardMode;

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
        let reopened = TileStore::open(&path, 3).unwrap().0;
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
    s.arm_faults(StoreFaultPlan {
        write_faults: vec![(0, DiskFault::HangMicros(2_500_000))],
        read_faults: vec![(1, DiskFault::HangMicros(500_000))],
        ..Default::default()
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
fn opened_store_is_read_only() {
    let dir = tmp_dir().join("read_only");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.bin");
    let mut s = TileStore::new(2, &StorageBackend::Memory).unwrap();
    s.write_row(0, &[0, 4]).unwrap();
    s.persist(&path).unwrap();
    let (mut opened, sums) = TileStore::open(&path, 2).unwrap();
    // Every write entry point fails: the file has no write access.
    assert!(opened.write_row(0, &[9, 9]).is_err());
    assert!(opened.write_rows(1, &[9, 9]).is_err());
    assert!(opened.write_block(0..1, 1..2, &[9]).is_err());
    drop(opened);
    // The file is untouched: it opens clean, with the same checksums.
    let (again, again_sums) = TileStore::open(&path, 2).unwrap();
    assert_eq!(again_sums, sums);
    assert_eq!(again.read_row(0).unwrap(), vec![0, 4]);
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
        assert!(s.is_disk_backed());
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
    s.arm_faults(StoreFaultPlan {
        write_faults: vec![(1, DiskFault::Enospc)],
        read_faults: vec![],
        ..Default::default()
    });
    s.write_row(0, &[1, 2, 3]).unwrap(); // op 0: clean
    let err = s.write_row(1, &[4, 5, 6]).unwrap_err(); // op 1: ENOSPC
    assert_eq!(err.raw_os_error(), Some(ENOSPC_ERRNO));
    // Nothing from the failed write landed.
    assert_eq!(s.read_row(1).unwrap(), vec![INF, 0, INF]);
    // Subsequent ops are clean again.
    s.write_row(1, &[4, 5, 6]).unwrap();
    assert_eq!(s.read_row(1).unwrap(), vec![4, 5, 6]);
    assert_eq!(s.fault_counts().write_ops, 3);
}

#[test]
fn fault_plan_short_write_mutates_then_errors() {
    let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
    s.arm_faults(StoreFaultPlan {
        write_faults: vec![(0, DiskFault::ShortWrite)],
        read_faults: vec![],
        ..Default::default()
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
    s.arm_faults(StoreFaultPlan {
        write_faults: vec![(0, DiskFault::LatencyMicros(50))],
        read_faults: vec![(0, DiskFault::ShortRead), (1, DiskFault::LatencyMicros(50))],
        ..Default::default()
    });
    let err = s.read_row(1).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    // Latency faults delay but succeed, on both directions.
    assert_eq!(s.read_row(1).unwrap(), vec![5, 6, 7, 8]);
    s.write_row(0, &[1, 1, 1, 1]).unwrap();
    let counts = s.fault_counts();
    assert_eq!((counts.write_ops, counts.read_ops), (1, 2));
    s.disarm_faults();
    assert_eq!(s.fault_counts(), FaultCounts::default());
}

#[test]
fn fault_plan_is_inert_on_memory_backing() {
    let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
    s.arm_faults(StoreFaultPlan {
        write_faults: vec![(0, DiskFault::Enospc)],
        read_faults: vec![(0, DiskFault::ShortRead)],
        ..Default::default()
    });
    s.write_row(0, &[1, 2, 3]).unwrap();
    assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
    let counts = s.fault_counts();
    assert_eq!(
        (counts.write_ops, counts.read_ops),
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
    let again = TileStore::open(&target, 3).unwrap().0;
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
fn open_returns_the_verified_footer_checksums() {
    let out = tmp_dir().join("open_checksums");
    std::fs::create_dir_all(&out).unwrap();
    let target = out.join("m.bin");
    for n in [0, 5, 70] {
        let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
        if n > 0 {
            s.write_row(n - 1, &vec![3; n]).unwrap();
        }
        s.persist(&target).unwrap();
        let expect = s.panel_checksums(SDC_PANEL_ROWS).unwrap();
        let (opened, sums) = TileStore::open(&target, n).unwrap();
        assert_eq!(sums, expect, "n = {n}");
        assert_eq!(opened.panel_checksums(SDC_PANEL_ROWS).unwrap(), expect);
    }
    std::fs::remove_file(&target).unwrap();
}

#[test]
fn open_rejects_a_flipped_payload_byte_naming_the_panel() {
    let out = tmp_dir().join("open_damage");
    std::fs::create_dir_all(&out).unwrap();
    let target = out.join("m.bin");
    let n = 70; // two footer panels
    let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
    s.write_row(65, &vec![3; n]).unwrap();
    s.persist(&target).unwrap();
    let clean = std::fs::read(&target).unwrap();
    // One flipped payload byte, behind the store's back, in each panel:
    // `open` itself refuses the file, typed, naming the damaged panel.
    for (row, panel) in [(66, 1), (3, 0)] {
        let mut bytes = clean.clone();
        bytes[PERSIST_HEADER_BYTES as usize + (row * n + 2) * 4] ^= 0x04;
        std::fs::write(&target, &bytes).unwrap();
        let err = TileStore::open(&target, n).unwrap_err();
        match crate::ApspError::from(err) {
            crate::ApspError::Corruption { detail } => {
                assert!(detail.contains(&format!("panel {panel}")), "{detail}")
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
        s.arm_faults(StoreFaultPlan::crash_after(2));
        s.write_row(0, &[1, 1, 1, 1]).unwrap(); // op 0
        s.read_row(0).unwrap(); // op 1
        let err = s.write_row(1, &[2, 2, 2, 2]).unwrap_err(); // op 2: dead
        assert!(err.to_string().contains("injected crash"), "{err}");
        // Every subsequent op fails too — the process is "dead".
        assert!(s.read_row(0).is_err());
        assert!(s.get(0, 0).is_err());
        assert!(s.fault_counts().row_ops >= 3);
        // Disarming revives it (the harness's post-mortem view).
        s.disarm_faults();
        assert_eq!(s.read_row(0).unwrap(), vec![1, 1, 1, 1]);
    }
}

#[test]
fn crash_counts_block_ops_at_row_granularity() {
    let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
    s.arm_faults(StoreFaultPlan::crash_after(u64::MAX));
    s.write_block(0..3, 0..2, &[1, 2, 3, 4, 5, 6]).unwrap(); // 3 ops
    s.read_block(1..3, 0..4).unwrap(); // 2 ops
    s.write_rows(0, &[7, 7, 7, 7, 8, 8, 8, 8]).unwrap(); // 1 op
    assert_eq!(s.fault_counts().row_ops, 6);
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
        s.arm_faults(StoreFaultPlan::bit_flip(0, 5)); // next write op flips bit 5 of its row
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
        s.arm_faults(StoreFaultPlan::bit_flip(0, 0)); // flip bit 0 of the next written row
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
        s.arm_faults(StoreFaultPlan::bit_flip(1, 17));
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
    s.arm_faults(StoreFaultPlan::bit_flip(5, 1)); // budget outlives the ops below
    s.write_rows(0, &[1; 6]).unwrap(); // 2 row ops: 3 left
    s.write_row(2, &[2, 2, 2]).unwrap(); // 2 left
    s.verify_checksums().unwrap();
    s.disarm_faults();
    s.write_row(0, &[3, 3, 3]).unwrap();
    s.write_row(1, &[3, 3, 3]).unwrap();
    s.write_row(2, &[3, 3, 3]).unwrap(); // would have fired here
    s.verify_checksums().unwrap();
}

#[test]
fn open_rejects_footerless_and_zeroed_footer_layouts() {
    let out = tmp_dir().join("layout_rejects");
    std::fs::create_dir_all(&out).unwrap();
    let target = out.join("m.bin");
    let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
    s.write_row(0, &[0, 7, 8]).unwrap();
    s.persist(&target).unwrap();
    drop(s);
    let footer_at = PERSIST_HEADER_BYTES as usize + 3 * 3 * 4;
    let whole = std::fs::read(&target).unwrap();
    let rejects = |bytes: &[u8], names: &str| {
        std::fs::write(&target, bytes).unwrap();
        let err = TileStore::open(&target, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(names), "{err}");
    };
    // The pre-footer layout: header and payload only.
    rejects(&whole[..footer_at], "no checksum footer");
    // A zeroed footer magic, as writes through an opened store left it.
    let mut zeroed = whole.clone();
    zeroed[footer_at..footer_at + 8].fill(0);
    rejects(&zeroed, "zeroed checksum footer");
    // A length that is neither layout.
    rejects(&whole[..footer_at + 3], "truncated?");
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
        s.arm_faults(StoreFaultPlan::crash_after(u64::MAX));
        s.write_rows(0, &[1; 8]).unwrap();
        s.read_block(0..2, 0..4).unwrap();
        s.verify_checksums().unwrap();
        s.get(3, 3).unwrap();
        ops.push(s.fault_counts());
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
        s.arm_faults(StoreFaultPlan::crash_after(u64::MAX));
        s.write_rows(0, &vec![3; 3 * n]).unwrap();
        s.write_block(2..5, 1..4, &[8; 9]).unwrap();
        s.write_row(n - 1, &vec![5; n]).unwrap();
        s.read_block(0..n, 0..n).unwrap();
        probes.push((s.to_dist_matrix().unwrap(), s.fault_counts()));
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
    s.arm_faults(StoreFaultPlan {
        write_faults: vec![(0, DiskFault::ShortWrite)],
        read_faults: vec![],
        ..Default::default()
    });
    let err = s.write_rows(0, &[9; 8]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    assert_eq!(s.read_row(0).unwrap(), vec![9, 9, 9, 9]);
    assert_eq!(s.read_row(1).unwrap(), vec![INF, 0, INF, INF]);
    assert_eq!(
        s.fault_counts().write_ops,
        1,
        "a spanning write is one ordinal"
    );
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
    s.arm_faults(StoreFaultPlan::bit_flip(0, 3));
    s.write_row(2, &[7, 7, 7, 7, 7]).unwrap();
    assert!(s.read_row(2).is_err());
    // Repair, then persist → one merged file, reopenable.
    s.write_row(2, &[7, 7, 7, 7, 7]).unwrap();
    let target = out.join("m.bin");
    s.persist(&target).unwrap();
    drop(s);
    let reopened = TileStore::open(&target, n).unwrap().0;
    assert_eq!(reopened.read_row(4).unwrap(), vec![1, 2, 3, 4, 0]);
    assert_eq!(reopened.read_row(2).unwrap(), vec![7, 7, 7, 7, 7]);
    drop(reopened);
    std::fs::remove_file(&target).unwrap();
    std::fs::remove_dir(&dir).unwrap();
}
