//! Failure injection: the store must reject corrupted files with clear
//! errors instead of panicking or silently misbehaving.

use std::io::{Seek, SeekFrom, Write};

use trex_storage::{wal_path, StorageError, Store, PAGE_SIZE};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trex-inject-{name}-{}", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
}

fn build_store(path: &std::path::Path) {
    let store = Store::create(path, 32).unwrap();
    let mut t = store.create_table("t").unwrap();
    for i in 0..2000u32 {
        t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
    }
    store.flush().unwrap();
}

#[test]
fn bad_magic_is_rejected() {
    let path = temp("magic");
    build_store(&path);
    {
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(16)).unwrap(); // magic lives after the header
        f.write_all(b"NOTMAGIC").unwrap();
    }
    let err = Store::open(&path, 32).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unsupported_version_is_rejected() {
    let path = temp("version");
    build_store(&path);
    {
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(24)).unwrap(); // version field
        f.write_all(&99u16.to_le_bytes()).unwrap();
    }
    let err = Store::open(&path, 32).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn clobbered_interior_page_surfaces_as_corrupt() {
    let path = temp("page");
    build_store(&path);
    {
        // Zap the page-type byte of every non-meta page.
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let pages = f.metadata().unwrap().len() / PAGE_SIZE as u64;
        for p in 1..pages {
            f.seek(SeekFrom::Start(p * PAGE_SIZE as u64)).unwrap();
            f.write_all(&[0xEE]).unwrap();
        }
    }
    let store = Store::open(&path, 32).unwrap();
    let t = store.open_table("t").unwrap();
    let err = t.get(&5u32.to_be_bytes()).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_file_fails_reads_not_panics() {
    let path = temp("truncate");
    build_store(&path);
    {
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        f.set_len(len / 2).unwrap();
    }
    // Opening may succeed (meta page intact); reads into the missing half
    // must produce errors, never UB or panics.
    if let Ok(store) = Store::open(&path, 32) {
        if let Ok(t) = store.open_table("t") {
            let mut saw_error = false;
            for i in 0..2000u32 {
                if t.get(&i.to_be_bytes()).is_err() {
                    saw_error = true;
                    break;
                }
            }
            assert!(saw_error, "a halved file cannot serve every key");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Regression for the unchecked indexing in `Store::parse_meta`: every
/// single-bit flip anywhere in the meta page must yield a clean open, a
/// `Corrupt` error, or (for flips in unused tail bytes) a working store —
/// never a panic or an out-of-bounds slice.
#[test]
fn bit_flipped_meta_page_never_panics() {
    let path = temp("bitflip");
    build_store(&path);
    let pristine = std::fs::read(&path).unwrap();
    // The catalog lives in the first ~40 bytes of the meta page payload
    // (header 16 + magic 8 + version 2 + free head 4 + count 2 + entries);
    // flip every bit of the first 64 bytes, plus a stride over the rest of
    // the page, restoring the file each time.
    let offsets = (0..64u64).chain((64..PAGE_SIZE as u64).step_by(509));
    for off in offsets {
        for bit in 0..8 {
            let mut bytes = pristine.clone();
            bytes[off as usize] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            match Store::open(&path, 32) {
                // A tolerated flip (unused byte): the catalog must still
                // be walkable.
                Ok(store) => {
                    let _ = store.table_names();
                }
                Err(e) => assert!(
                    matches!(e, StorageError::Corrupt(_) | StorageError::Io(_)),
                    "offset {off} bit {bit}: unexpected error kind {e}"
                ),
            }
        }
    }
    cleanup(&path);
}

/// A `count` field pointing far past the real catalog must error, not
/// panic — the original code indexed `payload[off..off + name_len]`
/// unchecked and died with a slice out-of-bounds.
#[test]
fn oversized_catalog_count_is_corrupt() {
    let path = temp("count");
    build_store(&path);
    {
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(16 + 14)).unwrap(); // catalog count field
        f.write_all(&u16::MAX.to_le_bytes()).unwrap();
    }
    let err = match Store::open(&path, 32) {
        Err(e) => e,
        Ok(_) => panic!("a catalog of 65535 entries cannot fit one page"),
    };
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    cleanup(&path);
}

/// A meta page cut off mid-catalog (torn tail) is rejected at open.
#[test]
fn truncated_meta_page_is_rejected() {
    let path = temp("tornmeta");
    build_store(&path);
    {
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(PAGE_SIZE as u64 / 2).unwrap();
    }
    let err = match Store::open(&path, 32) {
        Err(e) => e,
        Ok(_) => panic!("half a meta page must not open"),
    };
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("torn tail"), "{err}");
    cleanup(&path);
}

/// A torn tail page that no sealed log covers has nothing to be repaired
/// from, so the partial write surfaces as `Corrupt` (a tear during a
/// sealed checkpoint is repaired by recovery — covered by the crash-matrix
/// integration test).
#[test]
fn torn_tail_without_wal_is_corrupt() {
    let path = temp("torntail");
    {
        let store = Store::create(&path, 128).unwrap();
        let mut t = store.create_table("t").unwrap();
        for i in 0..500u32 {
            t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        store.flush().unwrap();
    }
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xCD; PAGE_SIZE / 4]).unwrap();
    }
    let err = match Store::open(&path, 128) {
        Err(e) => e,
        Ok(_) => panic!("torn tail must be rejected without a sealed log"),
    };
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("torn tail"), "{err}");
    cleanup(&path);
}

#[test]
fn missing_file_is_an_io_error() {
    let err = Store::open(std::path::Path::new("/nonexistent/trex.db"), 32).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)));
}

#[test]
fn flush_then_crash_simulation_preserves_flushed_data() {
    let path = temp("crash");
    {
        let store = Store::create(&path, 32).unwrap();
        let mut t = store.create_table("t").unwrap();
        for i in 0..500u32 {
            t.insert(&i.to_be_bytes(), b"flushed").unwrap();
        }
        store.flush().unwrap();
        // Writes after the flush, then "crash" (drop without flushing).
        for i in 500..1000u32 {
            t.insert(&i.to_be_bytes(), b"unflushed").unwrap();
        }
        // No flush: simulated crash.
    }
    let store = Store::open(&path, 32).unwrap();
    let t = store.open_table("t").unwrap();
    // Everything up to the flush must be intact.
    for i in (0..500u32).step_by(97) {
        assert_eq!(t.get(&i.to_be_bytes()).unwrap().unwrap(), b"flushed");
    }
    std::fs::remove_file(&path).ok();
}
