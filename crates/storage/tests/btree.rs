//! Black-box tests of the B+tree through the `Store`/`Table` API, including
//! a property test checking equivalence with `std::collections::BTreeMap`
//! under random operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;
use trex_storage::{StorageError, Store};

fn temp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("trex-btree-test-{name}-{}", std::process::id()));
    p
}

fn with_store<R>(name: &str, f: impl FnOnce(&Store) -> R) -> R {
    let path = temp(name);
    let store = Store::create(&path, 64).unwrap();
    let r = f(&store);
    drop(store);
    std::fs::remove_file(&path).ok();
    r
}

#[test]
fn insert_get_many_sequential() {
    with_store("seq", |store| {
        let mut t = store.create_table("t").unwrap();
        for i in 0..50_000u32 {
            t.insert(&i.to_be_bytes(), &(i * 2).to_le_bytes()).unwrap();
        }
        for i in (0..50_000u32).step_by(777) {
            assert_eq!(
                t.get(&i.to_be_bytes()).unwrap().unwrap(),
                (i * 2).to_le_bytes()
            );
        }
        assert!(t.get(&50_000u32.to_be_bytes()).unwrap().is_none());
    });
}

#[test]
fn insert_get_many_reverse_and_shuffled() {
    with_store("rev", |store| {
        let mut t = store.create_table("t").unwrap();
        // Reverse order stresses left-leaning splits.
        for i in (0..20_000u32).rev() {
            t.insert(&i.to_be_bytes(), b"x").unwrap();
        }
        // Pseudo-shuffled overwrites.
        for i in 0..20_000u32 {
            let j = (i * 7919) % 20_000;
            t.insert(&j.to_be_bytes(), &j.to_le_bytes()).unwrap();
        }
        for i in (0..20_000u32).step_by(501) {
            assert_eq!(t.get(&i.to_be_bytes()).unwrap().unwrap(), i.to_le_bytes());
        }
    });
}

#[test]
fn full_scan_is_sorted_and_complete() {
    with_store("scan", |store| {
        let mut t = store.create_table("t").unwrap();
        for i in 0..10_000u32 {
            let k = (i * 31) % 10_000;
            t.insert(&k.to_be_bytes(), &k.to_le_bytes()).unwrap();
        }
        let mut count = 0u32;
        let mut prev: Option<Vec<u8>> = None;
        let mut cur = t.scan().unwrap();
        while let Some((k, _)) = cur.next_entry().unwrap() {
            if let Some(p) = &prev {
                assert!(p < &k, "scan must be strictly ascending");
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 10_000);
    });
}

#[test]
fn seek_starts_at_lower_bound() {
    with_store("seek", |store| {
        let mut t = store.create_table("t").unwrap();
        for i in (0..1000u32).map(|i| i * 10) {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        // Seek to a key between entries.
        let mut cur = t.seek(&15u32.to_be_bytes()).unwrap();
        let (k, _) = cur.next_entry().unwrap().unwrap();
        assert_eq!(k, 20u32.to_be_bytes());
        // Seek to an exact key.
        let mut cur = t.seek(&20u32.to_be_bytes()).unwrap();
        let (k, _) = cur.next_entry().unwrap().unwrap();
        assert_eq!(k, 20u32.to_be_bytes());
        // Seek past the end.
        let mut cur = t.seek(&100_000u32.to_be_bytes()).unwrap();
        assert!(cur.next_entry().unwrap().is_none());
    });
}

#[test]
fn delete_removes_and_scan_skips() {
    with_store("del", |store| {
        let mut t = store.create_table("t").unwrap();
        for i in 0..5000u32 {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        for i in (0..5000u32).filter(|i| i % 2 == 0) {
            assert!(t.delete(&i.to_be_bytes()).unwrap());
        }
        assert!(!t.delete(&0u32.to_be_bytes()).unwrap(), "double delete");
        let mut count = 0;
        let mut cur = t.scan().unwrap();
        while let Some((k, _)) = cur.next_entry().unwrap() {
            let i = u32::from_be_bytes(k.try_into().unwrap());
            assert_eq!(i % 2, 1);
            count += 1;
        }
        assert_eq!(count, 2500);
    });
}

#[test]
fn variable_length_keys_and_values() {
    with_store("varlen", |store| {
        let mut t = store.create_table("t").unwrap();
        let mut expected = BTreeMap::new();
        for i in 0..2000usize {
            let key = format!("{:0width$}", i, width = 1 + i % 40).into_bytes();
            let value = vec![b'a' + (i % 26) as u8; i % 900];
            t.insert(&key, &value).unwrap();
            expected.insert(key, value);
        }
        let mut cur = t.scan().unwrap();
        let mut got = BTreeMap::new();
        while let Some((k, v)) = cur.next_entry().unwrap() {
            got.insert(k, v);
        }
        assert_eq!(got, expected);
    });
}

#[test]
fn oversized_keys_and_values_are_rejected() {
    with_store("oversize", |store| {
        let mut t = store.create_table("t").unwrap();
        let e = t.insert(&vec![0u8; 4096], b"v").unwrap_err();
        assert!(matches!(e, StorageError::KeyTooLarge(_)));
        let e = t.insert(b"k", &vec![0u8; 1 << 20]).unwrap_err();
        assert!(matches!(e, StorageError::ValueTooLarge(_)));
    });
}

#[test]
fn overwrite_with_growing_values_compacts_pages() {
    with_store("grow", |store| {
        let mut t = store.create_table("t").unwrap();
        // Repeated overwrites with progressively longer values leave dead
        // space; the tree must compact or split rather than corrupt.
        for round in 1..=8usize {
            for i in 0..500u32 {
                t.insert(&i.to_be_bytes(), &vec![round as u8; round * 100])
                    .unwrap();
            }
        }
        for i in 0..500u32 {
            assert_eq!(t.get(&i.to_be_bytes()).unwrap().unwrap(), vec![8u8; 800]);
        }
    });
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = proptest::collection::vec(0u8..8, 1..5);
    let value = proptest::collection::vec(any::<u8>(), 0..48);
    prop_oneof![
        3 => (key.clone(), value).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key.clone().prop_map(Op::Delete),
        1 => key.prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn prop_behaves_like_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let path = temp(&format!("prop-{:x}", rand_suffix(&ops)));
        let store = Store::create(&path, 16).unwrap();
        let mut table = store.create_table("t").unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    table.insert(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    let removed = table.delete(k).unwrap();
                    prop_assert_eq!(removed, model.remove(k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(table.get(k).unwrap(), model.get(k).cloned());
                }
            }
        }

        // Final full-scan equivalence.
        let mut cur = table.scan().unwrap();
        let mut got = Vec::new();
        while let Some(e) = cur.next_entry().unwrap() {
            got.push(e);
        }
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(got, want);

        drop(table);
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}

/// Cheap deterministic suffix so parallel proptest cases use distinct files.
fn rand_suffix(ops: &[Op]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    ops.len().hash(&mut h);
    for op in ops.iter().take(8) {
        match op {
            Op::Insert(k, v) => {
                k.hash(&mut h);
                v.hash(&mut h);
            }
            Op::Delete(k) | Op::Get(k) => k.hash(&mut h),
        }
    }
    h.finish()
}
