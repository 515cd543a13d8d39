//! The redundant-list table shared by both list families, and its registry
//! of materialised (term, sid) lists.
//!
//! RPLs and ERPLs (paper §2.2) are two orderings of the same scored
//! `(term, sid)` entries. [`ListTable`] is their one write path — `open`,
//! failure-atomic `put_list`, `drop_list` and the registry accessors —
//! parameterised by a [`ListFamily`] that supplies only what differs: the
//! table names and the normalise+encode step. The iterators stay per family
//! ([`crate::rpl`], [`crate::erpl`]), so TA can only ever read an RPL.
//!
//! The self-managing advisor (paper §4) must know, for each query, whether
//! the RPLs / ERPLs it needs already exist and how much disk they occupy
//! (`S_RPL(Q)`, `S_ERPL(Q)`). Each family therefore maintains a registry
//! table mapping `(term, sid)` to the entry count and byte size of its
//! materialised list.

use std::marker::PhantomData;
use std::sync::Arc;

use trex_obs::IndexCounters;
use trex_storage::codec::{get_u32, get_u64, put_u32, put_u64};
use trex_storage::{Result, StorageError, Store, Table};
use trex_summary::Sid;
use trex_text::TermId;

use crate::blocks::{
    block_key, encode_erpl_list, encode_list, encode_rpl_list, normalize_erpl, normalize_rpl,
    BlockLimits,
};
use crate::encode::ElementRef;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Rpl {}
    impl Sealed for super::Erpl {}
}

/// What differs between the two redundant list families on the write path.
/// Sealed: [`Rpl`] and [`Erpl`] are the only families.
pub trait ListFamily: sealed::Sealed {
    /// Name of the data table inside the store.
    const TABLE: &'static str;
    /// Name of the registry table inside the store.
    const REGISTRY: &'static str;
    /// Short name of the family (`"rpl"`/`"erpl"`), as the advisor journal
    /// records it.
    const NAME: &'static str;

    /// Normalises `entries` into the family's storage order and encodes
    /// them as block values: `(normalised entry count, blocks)`.
    fn encode(entries: &[(ElementRef, f32)]) -> (usize, Vec<Vec<u8>>);
}

/// Relevance posting lists: descending score order, consumed by TA.
#[derive(Debug)]
pub struct Rpl;

/// Element-relevance posting lists: position order, consumed by Merge.
#[derive(Debug)]
pub struct Erpl;

impl ListFamily for Rpl {
    const TABLE: &'static str = "rpls";
    const REGISTRY: &'static str = "rpls_registry";
    const NAME: &'static str = "rpl";

    fn encode(entries: &[(ElementRef, f32)]) -> (usize, Vec<Vec<u8>>) {
        let normalized = normalize_rpl(entries);
        let blocks = encode_rpl_list(&normalized, BlockLimits::default());
        (normalized.len(), blocks)
    }
}

impl ListFamily for Erpl {
    const TABLE: &'static str = "erpls";
    const REGISTRY: &'static str = "erpls_registry";
    const NAME: &'static str = "erpl";

    fn encode(entries: &[(ElementRef, f32)]) -> (usize, Vec<Vec<u8>>) {
        let normalized = normalize_erpl(entries);
        let blocks = encode_erpl_list(&normalized, BlockLimits::default());
        (normalized.len(), blocks)
    }
}

/// Write/read access to one family's list table and its registry. The
/// iterators live with their family: [`ListTable<Rpl>::iter_term`] and
/// [`ListTable<Erpl>::iter_list`].
pub struct ListTable<F: ListFamily> {
    pub(crate) table: Table,
    pub(crate) registry: ListRegistry,
    pub(crate) obs: Arc<IndexCounters>,
    /// Test-only fault injection: error after this many block inserts.
    fail_after: Option<u32>,
    family: PhantomData<F>,
}

impl<F: ListFamily> ListTable<F> {
    /// Opens (creating on first use) the family's tables in `store`.
    pub fn open(store: &Store) -> Result<ListTable<F>> {
        Ok(ListTable {
            table: store.open_or_create_table(F::TABLE)?,
            registry: ListRegistry::new(store.open_or_create_table(F::REGISTRY)?),
            obs: Arc::new(IndexCounters::new()),
            fail_after: None,
            family: PhantomData,
        })
    }

    /// Reports decode work into `obs` (shared by every table of an index)
    /// instead of this table's private counter group.
    pub fn with_counters(mut self, obs: Arc<IndexCounters>) -> ListTable<F> {
        self.obs = obs;
        self
    }

    /// Makes the `n`-th next block insert fail — exercises the write path's
    /// failure atomicity in regression tests.
    #[doc(hidden)]
    pub fn fail_after_inserts(&mut self, n: u32) {
        self.fail_after = Some(n);
    }

    /// Materialises the complete list of `(term, sid)`: every element of the
    /// sid's extent containing the term, with its score, in the family's
    /// order. Replaces an existing list for the same pair.
    ///
    /// The write is failure-atomic: the registry record is stamped *before*
    /// the block inserts, so every block on disk is owned by a registry
    /// record at all times (a crash mid-list is repaired by the next
    /// `put_list`/`drop_list` for the pair); if an insert fails, the landed
    /// blocks are rolled back best-effort and the stamp removed, leaving the
    /// pair unmaterialised rather than half-written.
    pub fn put_list(
        &mut self,
        term: TermId,
        sid: Sid,
        entries: &[(ElementRef, f32)],
    ) -> Result<()> {
        debug_assert!(entries
            .iter()
            .all(|&(_, score)| score.is_finite() && score >= 0.0));
        if self.registry.contains(term, sid)? {
            self.drop_list(term, sid)?;
        }
        let (encoded, stats) = encode_list::<F>(entries);
        self.registry.put(term, sid, stats)?;
        for (no, value) in encoded.iter().enumerate() {
            if let Err(e) = self.insert_block(term, sid, no as u32, value) {
                for undo in 0..=no as u32 {
                    let _ = self.table.delete(&block_key(term, sid, undo));
                }
                let _ = self.registry.remove(term, sid);
                return Err(e);
            }
        }
        Ok(())
    }

    fn insert_block(&mut self, term: TermId, sid: Sid, no: u32, value: &[u8]) -> Result<()> {
        if let Some(left) = self.fail_after.as_mut() {
            if *left == 0 {
                return Err(StorageError::Corrupt(
                    "injected block insert failure".into(),
                ));
            }
            *left -= 1;
        }
        self.table.insert(&block_key(term, sid, no), value)
    }

    /// Whether the list for `(term, sid)` is materialised.
    pub fn has_list(&self, term: TermId, sid: Sid) -> Result<bool> {
        self.registry.contains(term, sid)
    }

    /// Whether every `(term, sid)` list of `terms × sids` is materialised —
    /// the precondition for TA (RPLs) or Merge (ERPLs).
    pub fn covers(&self, sids: &[Sid], terms: &[TermId]) -> Result<bool> {
        for &term in terms {
            for &sid in sids {
                if !self.has_list(term, sid)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// The materialised lists among `terms × sids` with their stats,
    /// term-major.
    pub fn lists_of(
        &self,
        sids: &[Sid],
        terms: &[TermId],
    ) -> Result<Vec<(TermId, Sid, ListStats)>> {
        let mut lists = Vec::new();
        for &term in terms {
            for &sid in sids {
                if let Some(stats) = self.registry.get(term, sid)? {
                    lists.push((term, sid, stats));
                }
            }
        }
        Ok(lists)
    }

    /// Size bookkeeping for `(term, sid)`.
    pub fn list_stats(&self, term: TermId, sid: Sid) -> Result<Option<ListStats>> {
        self.registry.get(term, sid)
    }

    /// Drops the materialised list of `(term, sid)`: `blocks` point deletes
    /// against the dense block keys — no term-wide scan.
    pub fn drop_list(&mut self, term: TermId, sid: Sid) -> Result<Option<ListStats>> {
        let Some(stats) = self.registry.remove(term, sid)? else {
            return Ok(None);
        };
        for no in 0..stats.blocks {
            self.table.delete(&block_key(term, sid, no as u32))?;
        }
        Ok(Some(stats))
    }

    /// Total bytes across every materialised list of the family —
    /// used-space accounting.
    pub fn total_bytes(&self) -> Result<u64> {
        self.registry.total_bytes()
    }

    /// Every materialised (term, sid) pair with its stats.
    pub fn lists(&self) -> Result<Vec<(TermId, Sid, ListStats)>> {
        self.registry.all()
    }
}

/// Size bookkeeping for one materialised list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ListStats {
    /// Number of (element) entries in the list.
    pub entries: u64,
    /// Bytes of key + value data the list occupies.
    pub bytes: u64,
    /// Number of block records the list is stored as. Block keys are dense
    /// (`0..blocks`), so dropping a list is `blocks` point deletes.
    pub blocks: u64,
}

/// A registry table.
pub(crate) struct ListRegistry {
    table: Table,
}

impl ListRegistry {
    /// Wraps an open storage table.
    pub fn new(table: Table) -> ListRegistry {
        ListRegistry { table }
    }

    fn key(term: TermId, sid: Sid) -> Vec<u8> {
        let mut k = Vec::with_capacity(8);
        put_u32(&mut k, term);
        put_u32(&mut k, sid);
        k
    }

    /// Records (replaces) the stats of list `(term, sid)`.
    pub fn put(&mut self, term: TermId, sid: Sid, stats: ListStats) -> Result<()> {
        let mut v = Vec::with_capacity(24);
        put_u64(&mut v, stats.entries);
        put_u64(&mut v, stats.bytes);
        put_u64(&mut v, stats.blocks);
        self.table.insert(&Self::key(term, sid), &v)
    }

    fn decode_stats(v: &[u8]) -> Result<ListStats> {
        Ok(ListStats {
            entries: get_u64(v, 0)?,
            bytes: get_u64(v, 8)?,
            blocks: get_u64(v, 16)?,
        })
    }

    /// Stats of list `(term, sid)`, or `None` if not materialised.
    pub fn get(&self, term: TermId, sid: Sid) -> Result<Option<ListStats>> {
        match self.table.get(&Self::key(term, sid))? {
            Some(v) => Ok(Some(Self::decode_stats(&v)?)),
            None => Ok(None),
        }
    }

    /// Whether `(term, sid)` is materialised.
    pub fn contains(&self, term: TermId, sid: Sid) -> Result<bool> {
        Ok(self.get(term, sid)?.is_some())
    }

    /// Removes the registration; returns the stats it had.
    pub fn remove(&mut self, term: TermId, sid: Sid) -> Result<Option<ListStats>> {
        let stats = self.get(term, sid)?;
        if stats.is_some() {
            self.table.delete(&Self::key(term, sid))?;
        }
        Ok(stats)
    }

    /// Every registered (term, sid, stats) triple.
    pub fn all(&self) -> Result<Vec<(TermId, Sid, ListStats)>> {
        let mut out = Vec::new();
        let mut cursor = self.table.scan()?;
        while let Some((k, v)) = cursor.next_entry()? {
            out.push((get_u32(&k, 0)?, get_u32(&k, 4)?, Self::decode_stats(&v)?));
        }
        Ok(out)
    }

    /// Every materialised sid of `term`, in ascending sid order — the block
    /// iterators' fan-out set for a term-wide scan.
    pub fn sids_of(&self, term: TermId) -> Result<Vec<(Sid, ListStats)>> {
        let mut prefix = Vec::with_capacity(4);
        put_u32(&mut prefix, term);
        let mut cursor = self.table.seek(&prefix)?;
        let mut out = Vec::new();
        while let Some((k, v)) = cursor.next_entry()? {
            if get_u32(&k, 0)? != term {
                break;
            }
            out.push((get_u32(&k, 4)?, Self::decode_stats(&v)?));
        }
        Ok(out)
    }

    /// Total bytes across all registered lists — the advisor's used-space
    /// figure for one redundant table.
    pub fn total_bytes(&self) -> Result<u64> {
        Ok(self.all()?.iter().map(|(_, _, s)| s.bytes).sum())
    }
}

/// The write-path test set every family runs: the per-family test modules
/// call each check with a `read` that returns one list's entries through
/// the family's own iterator.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::encode::RplEntry;

    /// Reads list `(term, sid)` back through the family's iterator.
    type Read<F> = fn(&ListTable<F>, TermId, Sid) -> Vec<RplEntry>;

    pub(crate) fn el(doc: u32, end: u32, length: u32) -> ElementRef {
        ElementRef { doc, end, length }
    }

    /// Runs `f` on a family table in a fresh scratch store.
    pub(crate) fn with_table<F: ListFamily, R>(
        name: &str,
        f: impl FnOnce(&mut ListTable<F>) -> R,
    ) -> R {
        let path =
            std::env::temp_dir().join(format!("trex-{}-{name}-{}", F::NAME, std::process::id()));
        let store = Store::create(&path, 64).unwrap();
        let mut t = ListTable::open(&store).unwrap();
        let r = f(&mut t);
        drop(t);
        drop(store);
        std::fs::remove_file(&path).ok();
        r
    }

    pub(crate) fn registry_tracks_materialisation<F: ListFamily>(read: Read<F>) {
        with_table::<F, _>("registry", |t| {
            assert!(!t.has_list(1, 10).unwrap());
            t.put_list(1, 10, &[(el(0, 5, 2), 1.0)]).unwrap();
            assert!(t.has_list(1, 10).unwrap());
            let stats = t.list_stats(1, 10).unwrap().unwrap();
            assert_eq!(stats.entries, 1);
            assert_eq!(stats.blocks, 1);
            assert!(stats.bytes > 0);
            assert_eq!(t.total_bytes().unwrap(), stats.bytes);
            assert_eq!(t.lists().unwrap(), vec![(1, 10, stats)]);
            assert_eq!(read(t, 1, 10).len(), 1);
        });
    }

    pub(crate) fn drop_list_removes_only_that_sid<F: ListFamily>(read: Read<F>) {
        with_table::<F, _>("drop", |t| {
            t.put_list(1, 10, &[(el(0, 5, 2), 3.0), (el(0, 9, 1), 2.0)])
                .unwrap();
            t.put_list(1, 20, &[(el(1, 5, 2), 2.0)]).unwrap();
            let stats = t.drop_list(1, 10).unwrap().unwrap();
            assert_eq!(stats.entries, 2);
            assert!(!t.has_list(1, 10).unwrap());
            assert!(t.has_list(1, 20).unwrap());
            assert!(read(t, 1, 10).is_empty());
            let left = read(t, 1, 20);
            assert_eq!(left.len(), 1);
            assert_eq!(left[0].sid, 20);
            // Dropping the last list frees every byte; dropping it again
            // finds nothing.
            t.drop_list(1, 20).unwrap().unwrap();
            assert_eq!(t.total_bytes().unwrap(), 0);
            assert!(t.drop_list(1, 20).unwrap().is_none());
        });
    }

    pub(crate) fn put_list_replaces_existing<F: ListFamily>(read: Read<F>) {
        with_table::<F, _>("replace", |t| {
            t.put_list(1, 10, &[(el(0, 5, 2), 3.0), (el(0, 9, 1), 1.0)])
                .unwrap();
            t.put_list(1, 10, &[(el(0, 5, 2), 4.0)]).unwrap();
            let scores: Vec<f32> = read(t, 1, 10).iter().map(|e| e.score).collect();
            assert_eq!(scores, vec![4.0]);
            assert_eq!(t.list_stats(1, 10).unwrap().unwrap().entries, 1);
        });
    }

    pub(crate) fn failed_put_list_leaves_no_orphans<F: ListFamily>(read: Read<F>) {
        with_table::<F, _>("atomic", |t| {
            let entries: Vec<(ElementRef, f32)> = (0..600)
                .map(|i| (el(0, i * 2 + 1, 2), (i % 7) as f32))
                .collect();
            for fail_after in [0, 2] {
                t.fail_after_inserts(fail_after);
                assert!(t.put_list(1, 10, &entries).is_err());
                t.fail_after = None;
                // No registry record, no blocks, no counted bytes.
                assert!(!t.has_list(1, 10).unwrap());
                assert_eq!(t.total_bytes().unwrap(), 0);
                assert!(t.table.scan().unwrap().next_entry().unwrap().is_none());
                assert!(read(t, 1, 10).is_empty());
            }
            // And the pair is writable again afterwards.
            t.put_list(1, 10, &entries).unwrap();
            assert_eq!(read(t, 1, 10).len(), 600);
        });
    }

    #[test]
    fn put_get_remove_round_trip() {
        let mut path = std::env::temp_dir();
        path.push(format!("trex-registry-{}", std::process::id()));
        let store = Store::create(&path, 32).unwrap();
        let mut r = ListRegistry::new(store.create_table("reg").unwrap());

        assert!(!r.contains(1, 2).unwrap());
        r.put(
            1,
            2,
            ListStats {
                entries: 10,
                bytes: 200,
                blocks: 1,
            },
        )
        .unwrap();
        r.put(
            1,
            3,
            ListStats {
                entries: 5,
                bytes: 90,
                blocks: 1,
            },
        )
        .unwrap();
        r.put(
            2,
            2,
            ListStats {
                entries: 7,
                bytes: 70,
                blocks: 2,
            },
        )
        .unwrap();
        assert_eq!(
            r.get(1, 2).unwrap(),
            Some(ListStats {
                entries: 10,
                bytes: 200,
                blocks: 1,
            })
        );
        assert_eq!(r.total_bytes().unwrap(), 360);
        assert_eq!(r.all().unwrap().len(), 3);
        let sids: Vec<Sid> = r.sids_of(1).unwrap().iter().map(|&(s, _)| s).collect();
        assert_eq!(sids, vec![2, 3]);
        assert_eq!(r.sids_of(2).unwrap().len(), 1);
        assert!(r.sids_of(9).unwrap().is_empty());
        r.remove(2, 2).unwrap();

        let removed = r.remove(1, 2).unwrap();
        assert_eq!(removed.unwrap().entries, 10);
        assert!(!r.contains(1, 2).unwrap());
        assert!(r.remove(1, 2).unwrap().is_none());

        drop(r);
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}
