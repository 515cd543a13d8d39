//! Pins the on-disk format of the redundant lists: table names, block keys,
//! block values and registry records of both families. A fixed set of lists
//! is written through `put_list`, every record of the four tables is hashed,
//! and the digest must equal the constant below. Any change to the block
//! codec, the key layout, the registry encoding or the table names moves
//! the digest; a refactor of the write path must not.

use trex_index::{ElementRef, ErplTable, RplTable};
use trex_storage::Store;

/// The digest of every record the lists of [`fixed_lists`] leave on disk.
const FORMAT_DIGEST: u64 = 0x2642_919f_ddf2_4667;

/// One scored list, as `put_list` takes it.
type Scored = Vec<(ElementRef, f32)>;

fn el(doc: u32, end: u32, length: u32) -> ElementRef {
    ElementRef { doc, end, length }
}

/// Three lists per family: one that fits a single block, one of more than
/// 128 entries (several blocks), and an empty one (a registry record with
/// no blocks).
fn fixed_lists() -> Vec<(u32, u32, Scored)> {
    let single = vec![
        (el(0, 9, 3), 2.5),
        (el(0, 5, 2), 0.5),
        (el(1, 4, 1), 1.0),
        (el(2, 40, 12), 1.0),
    ];
    let long: Scored = (0..300)
        .map(|i| {
            (
                el(i / 40, (i % 40) * 5 + 4, 1 + i % 5),
                (i % 29) as f32 * 0.375,
            )
        })
        .collect();
    vec![(1, 10, single), (1, 11, long), (2, 10, Vec::new())]
}

/// FNV-1a over length-prefixed byte strings.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn list_tables_keep_their_on_disk_format() {
    let path = std::env::temp_dir().join(format!("trex-format-pin-{}", std::process::id()));
    let store = Store::create(&path, 64).unwrap();
    {
        let mut rpls = RplTable::open(&store).unwrap();
        let mut erpls = ErplTable::open(&store).unwrap();
        for (term, sid, entries) in fixed_lists() {
            rpls.put_list(term, sid, &entries).unwrap();
            erpls.put_list(term, sid, &entries).unwrap();
        }
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut records = 0;
    for name in ["rpls", "rpls_registry", "erpls", "erpls_registry"] {
        fnv(&mut digest, name.as_bytes());
        let table = store.open_table(name).unwrap();
        let mut cursor = table.scan().unwrap();
        while let Some((key, value)) = cursor.next_entry().unwrap() {
            fnv(&mut digest, &key);
            fnv(&mut digest, &value);
            records += 1;
        }
    }
    drop(store);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(trex_storage::wal_path(&path)).ok();

    // Per family: 3 registry records, 1 block for the single-block list and
    // at least 3 for the 300-entry one.
    assert!(records >= 2 * (3 + 1 + 3), "only {records} records");
    assert_eq!(
        digest, FORMAT_DIGEST,
        "on-disk list format changed: digest {digest:#018x}"
    );
}
