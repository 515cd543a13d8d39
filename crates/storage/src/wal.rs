//! Write-ahead log: crash safety for the store file.
//!
//! The paper's TReX stores its four tables in a BerkeleyDB *environment*,
//! which silently supplies write-ahead logging and recovery — durability
//! the self-managing advisor depends on when it materialises and drops
//! ERPL indexes online (§5). This module is our substitute.
//!
//! # Protocol (physical redo, atomic checkpoints)
//!
//! The pager **never writes data pages in place between checkpoints**. Every logical page write (an eviction write-back,
//! a flush write-back, a free-list link) is an append of the full page
//! image to the log; page reads consult the log's in-memory page table
//! first, so the latest image is always served. The data file therefore
//! stays byte-identical to the last completed checkpoint at all times.
//!
//! A checkpoint ([`crate::pager::Pager::checkpoint`]) then runs:
//!
//! 1. append a `Commit` record sealing the image set, **fsync the WAL**;
//! 2. write every logged image in place into the data file (write-back);
//! 3. **fsync the data file** (`sync_all` when the file grew);
//! 4. truncate the log and stamp a fresh `Checkpoint` record.
//!
//! Recovery at open scans the log, validating each record's CRC:
//!
//! * log ends with a valid `Commit` → the image set is complete; replay
//!   every image onto the data file (roll *forward* to the new checkpoint —
//!   this also repairs torn data pages from a crash during step 2), fsync,
//!   truncate the log. Replay is idempotent, so a crash during recovery
//!   just replays again on the next open.
//! * anything else (torn tail, images without a commit) → discard the log;
//!   the data file *is* the previous checkpoint, untouched (roll *back*).
//!
//! Either way the store reopens in exactly one checkpointed state, and the
//! meta page (catalog roots, free-list head) flips atomically with the data
//! pages it points at, because it is just another logged image.
//!
//! # Record format
//!
//! The file starts with a 16-byte header (`TREXWAL0`, version, padding).
//! Each record is `[len: u32][crc32: u32][kind: u8][lsn: u64][payload]`,
//! with the CRC covering kind + lsn + payload. Kinds: `Image` (page id +
//! full page image), `Alloc` (page id only — a freshly allocated, still
//! zeroed page; logged without its 8 KiB of zeroes), `Commit`, and
//! `Checkpoint` (stamped on a freshly truncated log).
//!
//! # Crash-point injection
//!
//! [`CrashPoint`] + `CrashState` extend the pager's `inject_write_failures`
//! pattern into a deterministic kill switch: the *n*-th occurrence of a
//! chosen write/fsync boundary tears (half-writes) that operation and fails,
//! after which every subsequent file operation errors — simulating a killed
//! process so tests can reopen and assert the recovered state.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use trex_obs::StorageCounters;

use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId, PAGE_SIZE};

/// Magic bytes opening every WAL file.
const WAL_MAGIC: &[u8; 8] = b"TREXWAL0";
/// WAL format version.
const WAL_VERSION: u16 = 1;
/// Bytes of header before the first record: magic + version + padding.
const WAL_HEADER_LEN: u64 = 16;
/// Fixed bytes per record before the payload: len + crc + kind + lsn.
const REC_HEADER_LEN: usize = 4 + 4 + 1 + 8;
/// Largest payload a *physical* record kind produces (an `Image`: page id +
/// image).
const MAX_PAYLOAD: usize = 4 + PAGE_SIZE;
/// Largest XML body an `Ingest` record accepts. Generous over the HTTP
/// surface's body cap so the storage layer is never the binding limit.
pub const MAX_INGEST_XML: usize = 1 << 20;
/// Largest `Ingest` payload: doc id + XML body.
const MAX_INGEST_PAYLOAD: usize = 4 + MAX_INGEST_XML;
/// Upper bound across every record kind (sizes the scan buffer).
const MAX_ANY_PAYLOAD: usize = if MAX_INGEST_PAYLOAD > MAX_PAYLOAD {
    MAX_INGEST_PAYLOAD
} else {
    MAX_PAYLOAD
};

const KIND_IMAGE: u8 = 1;
const KIND_ALLOC: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;
/// Logical redo: one ingested document (`[doc_id: u32][xml bytes]`).
/// Individually fsynced, so it is durable without a sealing `Commit`;
/// recovery surfaces it to the index layer for replay into the delta index.
const KIND_INGEST: u8 = 5;

/// The deterministic crash boundaries a test can kill the store at. Each
/// names one write or fsync in the logging/checkpoint protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// During a WAL record append (the record is torn mid-write).
    WalAppend,
    /// At the WAL fsync that makes the commit record durable.
    WalSync,
    /// During the append of the `Commit` record itself (torn commit).
    CheckpointRecord,
    /// During an in-place data-page write of checkpoint write-back or
    /// recovery replay (the data page is torn mid-write).
    DataWrite,
    /// At the data-file fsync.
    DataSync,
    /// Just before the post-checkpoint log truncation.
    WalTruncate,
    /// During the append of an `Ingest` record (the record is torn
    /// mid-write; the document is absent after recovery).
    IngestAppend,
    /// At the per-ingest WAL fsync (the record is complete on disk; the
    /// document is present after recovery).
    IngestSync,
}

/// What a crash check tells the caller to do.
pub(crate) enum CrashCheck {
    /// Not the armed boundary: proceed normally.
    Proceed,
    /// The armed boundary fired: tear the operation (write a prefix if it
    /// is a write, nothing if it is an fsync) and fail. All later checks
    /// error immediately.
    Tear,
}

/// Shared kill switch threaded through the pager and the WAL.
#[derive(Debug, Default)]
pub(crate) struct CrashState {
    /// Armed boundary and its remaining countdown.
    armed: Option<(CrashPoint, u32)>,
    /// Once true, every file operation fails (the process is "dead").
    crashed: bool,
}

fn crash_err() -> StorageError {
    StorageError::Io(std::io::Error::other("injected crash: store is dead"))
}

impl CrashState {
    /// Arms the kill switch: the `nth` occurrence of `point` crashes.
    pub(crate) fn arm(&mut self, point: CrashPoint, nth: u32) {
        self.armed = Some((point, nth.max(1)));
        self.crashed = false;
    }

    /// Fails if a crash already fired.
    pub(crate) fn ensure_alive(&self) -> Result<()> {
        if self.crashed {
            return Err(crash_err());
        }
        Ok(())
    }

    /// Checks one boundary; see [`CrashCheck`].
    pub(crate) fn check(&mut self, point: CrashPoint) -> Result<CrashCheck> {
        self.ensure_alive()?;
        if let Some((armed, n)) = &mut self.armed {
            if *armed == point {
                *n -= 1;
                if *n == 0 {
                    self.armed = None;
                    self.crashed = true;
                    return Ok(CrashCheck::Tear);
                }
            }
        }
        Ok(CrashCheck::Proceed)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Where the latest un-checkpointed version of a page lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Byte offset of the page image inside the WAL file.
    Image(u64),
    /// Freshly allocated and never written: an all-zero page.
    Zeroed,
}

/// One logged-but-not-yet-folded ingested document. Ingest records are
/// individually fsynced, so each is durable the moment `append_ingest`
/// returns; they stay in the log (surviving checkpoint truncations) until a
/// fold consumes them via the `Commit` record's doc-id watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingIngest {
    /// The document id the index layer assigned before logging.
    pub doc_id: u32,
    /// The raw XML bytes of the document.
    pub xml: Vec<u8>,
}

/// Outcome of scanning the log at open time.
pub(crate) struct WalScan {
    /// Whether a valid `Commit` seals the image set (roll forward).
    pub(crate) replay: bool,
    /// Bytes of log examined (including any invalid tail).
    pub(crate) bytes_scanned: u64,
    /// Valid image/alloc records that will be discarded (roll back only).
    pub(crate) discarded_records: u32,
}

/// Report of what recovery did when a store was opened.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Pages written back into the data file by replay.
    pub replayed_pages: u32,
    /// Bytes of WAL scanned at open.
    pub wal_bytes_scanned: u64,
    /// Logged-but-uncommitted records discarded (roll back).
    pub discarded_records: u32,
    /// True when recovery rolled *forward* (completed an interrupted
    /// checkpoint); false when it rolled back to the previous one.
    pub completed_checkpoint: bool,
}

/// The append-only log and its in-memory page table.
pub(crate) struct Wal {
    file: File,
    /// The log's own path — needed to rebuild the file atomically when a
    /// truncation must carry pending ingest records forward.
    path: PathBuf,
    /// page id → latest logged version since the last checkpoint.
    map: HashMap<PageId, Slot>,
    /// Logged ingested documents not yet consumed by a fold, in log order.
    pending: Vec<PendingIngest>,
    /// Next log sequence number to stamp.
    next_lsn: u64,
    /// Current append offset (end of the last valid record).
    end: u64,
}

/// The WAL file path for a given store file path (`store.db` → `store.db.wal`).
pub fn wal_path(store_path: &Path) -> PathBuf {
    let mut name = store_path.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

impl Wal {
    /// Creates a fresh (truncated) log with a header and checkpoint stamp.
    pub(crate) fn create(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            map: HashMap::new(),
            pending: Vec::new(),
            next_lsn: 1,
            end: WAL_HEADER_LEN,
        };
        wal.write_header()?;
        let mut crash = CrashState::default();
        wal.append(KIND_CHECKPOINT, &[], &mut crash)?;
        wal.file.sync_all()?;
        Ok(wal)
    }

    /// Opens an existing log (creating a fresh one if absent, so pre-WAL
    /// store files upgrade transparently) and scans it. After `open` the
    /// page table holds the committed image set iff `scan.replay`; the
    /// caller replays it and then calls [`Wal::reset`].
    pub(crate) fn open(path: &Path) -> Result<(Wal, WalScan)> {
        if !path.exists() {
            let wal = Wal::create(path)?;
            return Ok((
                wal,
                WalScan {
                    replay: false,
                    bytes_scanned: 0,
                    discarded_records: 0,
                },
            ));
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            map: HashMap::new(),
            pending: Vec::new(),
            next_lsn: 1,
            end: WAL_HEADER_LEN,
        };
        let scan = wal.scan()?;
        Ok((wal, scan))
    }

    fn write_header(&mut self) -> Result<()> {
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        header[..8].copy_from_slice(WAL_MAGIC);
        header[8..10].copy_from_slice(&WAL_VERSION.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        Ok(())
    }

    /// Validates the header and every record; leaves `map` holding the
    /// committed image set when the log ends with a valid `Commit`.
    fn scan(&mut self) -> Result<WalScan> {
        let len = self.file.metadata()?.len();
        if len < WAL_HEADER_LEN {
            return Err(StorageError::Corrupt("wal shorter than its header".into()));
        }
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_exact(&mut header)?;
        if &header[..8] != WAL_MAGIC {
            return Err(StorageError::Corrupt("bad wal magic".into()));
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != WAL_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported wal version {version}"
            )));
        }

        let mut offset = WAL_HEADER_LEN;
        let mut map: HashMap<PageId, Slot> = HashMap::new();
        let mut pending: Vec<PendingIngest> = Vec::new();
        let mut ingest_watermark = 0u64;
        let mut last_kind = 0u8;
        let mut max_lsn = 0u64;
        let mut rec_header = [0u8; REC_HEADER_LEN];
        let mut body = vec![0u8; 1 + 8 + MAX_ANY_PAYLOAD];
        loop {
            if offset + REC_HEADER_LEN as u64 > len {
                break;
            }
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(&mut rec_header)?;
            let rec_len = u32::from_le_bytes(rec_header[..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(rec_header[4..8].try_into().unwrap());
            // rec_len counts kind + lsn + payload.
            if !(1 + 8..=1 + 8 + MAX_ANY_PAYLOAD).contains(&rec_len) {
                break;
            }
            if offset + (8 + rec_len) as u64 > len {
                break; // torn tail record
            }
            let body = &mut body[..rec_len];
            self.file.seek(SeekFrom::Start(offset + 8))?;
            self.file.read_exact(body)?;
            if crc32(body) != crc {
                break; // bit flip or torn write
            }
            let kind = body[0];
            let lsn = u64::from_le_bytes(body[1..9].try_into().unwrap());
            let payload = &body[9..];
            match kind {
                KIND_IMAGE if payload.len() == 4 + PAGE_SIZE => {
                    let id = u32::from_le_bytes(payload[..4].try_into().unwrap());
                    map.insert(id, Slot::Image(offset + 8 + 1 + 8 + 4));
                }
                KIND_ALLOC if payload.len() == 4 => {
                    let id = u32::from_le_bytes(payload[..4].try_into().unwrap());
                    map.insert(id, Slot::Zeroed);
                }
                KIND_INGEST if (4..=MAX_INGEST_PAYLOAD).contains(&payload.len()) => {
                    pending.push(PendingIngest {
                        doc_id: u32::from_le_bytes(payload[..4].try_into().unwrap()),
                        xml: payload[4..].to_vec(),
                    });
                }
                // A fold's commit carries the doc-id watermark of the
                // ingests it folded into the tables; legacy commits are
                // payload-free (watermark zero).
                KIND_COMMIT if payload.is_empty() => {}
                KIND_COMMIT if payload.len() == 8 => {
                    ingest_watermark = u64::from_le_bytes(payload.try_into().unwrap());
                }
                KIND_CHECKPOINT => {}
                _ => break, // unknown kind or malformed payload
            }
            last_kind = kind;
            max_lsn = max_lsn.max(lsn);
            offset += (8 + rec_len) as u64;
        }

        let replay = last_kind == KIND_COMMIT && !map.is_empty();
        let discarded = if replay { 0 } else { map.len() as u32 };
        if replay {
            self.map = map;
            // Rolling forward applies the commit, so any ingests the fold
            // consumed (doc id below the watermark) are already in the
            // tables — dropping them here prevents double application.
            if ingest_watermark > 0 {
                pending.retain(|p| u64::from(p.doc_id) >= ingest_watermark);
            }
        }
        // Ingest records are individually durable: they survive a roll
        // *back* too (the fold that would have consumed them never
        // committed).
        self.pending = pending;
        self.next_lsn = max_lsn + 1;
        self.end = offset;
        Ok(WalScan {
            replay,
            bytes_scanned: len,
            discarded_records: discarded,
        })
    }

    /// Appends one record; on an armed [`CrashPoint`] the record is torn
    /// (half-written) and the error returned.
    fn append_at(
        &mut self,
        kind: u8,
        point: CrashPoint,
        payload_head: &[u8],
        payload_tail: &[u8],
        crash: &mut CrashState,
    ) -> Result<u64> {
        let lsn = self.next_lsn;
        let rec_len = 1 + 8 + payload_head.len() + payload_tail.len();
        let mut record = Vec::with_capacity(8 + rec_len);
        record.extend_from_slice(&(rec_len as u32).to_le_bytes());
        record.extend_from_slice(&[0u8; 4]); // crc placeholder
        record.push(kind);
        record.extend_from_slice(&lsn.to_le_bytes());
        record.extend_from_slice(payload_head);
        record.extend_from_slice(payload_tail);
        let crc = crc32(&record[8..]);
        record[4..8].copy_from_slice(&crc.to_le_bytes());

        let tear = matches!(crash.check(point)?, CrashCheck::Tear);
        self.file.seek(SeekFrom::Start(self.end))?;
        if tear {
            self.file.write_all(&record[..record.len() / 2])?;
            return Err(crash_err());
        }
        self.file.write_all(&record)?;
        let start = self.end;
        self.end += record.len() as u64;
        self.next_lsn += 1;
        Ok(start)
    }

    fn append(&mut self, kind: u8, payload: &[u8], crash: &mut CrashState) -> Result<u64> {
        // Each record kind bills its own crash point: a `Checkpoint` stamp
        // is part of the truncation step (post-commit, lands on the new
        // checkpoint), so it must not consume a `WalAppend` occurrence —
        // those are strictly pre-commit and recovery rolls them back.
        let point = match kind {
            KIND_COMMIT => CrashPoint::CheckpointRecord,
            KIND_CHECKPOINT => CrashPoint::WalTruncate,
            _ => CrashPoint::WalAppend,
        };
        self.append_at(kind, point, payload, &[], crash)
    }

    /// Logs the full after-image of page `id` and repoints the page table.
    pub(crate) fn append_image(
        &mut self,
        id: PageId,
        buf: &PageBuf,
        crash: &mut CrashState,
        obs: &Arc<StorageCounters>,
    ) -> Result<()> {
        let start = self.append_at(
            KIND_IMAGE,
            CrashPoint::WalAppend,
            &id.to_le_bytes(),
            buf.bytes().as_slice(),
            crash,
        )?;
        // Image payload = 4 id bytes then the page; record the page offset.
        self.map.insert(id, Slot::Image(start + 8 + 1 + 8 + 4));
        obs.wal_appends.incr();
        obs.wal_bytes.add((8 + 1 + 8 + 4 + PAGE_SIZE) as u64);
        Ok(())
    }

    /// Logs the allocation of a fresh zeroed page without its 8 KiB body.
    pub(crate) fn append_alloc(
        &mut self,
        id: PageId,
        crash: &mut CrashState,
        obs: &Arc<StorageCounters>,
    ) -> Result<()> {
        self.append(KIND_ALLOC, &id.to_le_bytes(), crash)?;
        self.map.insert(id, Slot::Zeroed);
        obs.wal_appends.incr();
        obs.wal_bytes.add((8 + 1 + 8 + 4) as u64);
        Ok(())
    }

    /// Serves page `id` from the log if it has an un-checkpointed version.
    /// Returns whether the read was served.
    pub(crate) fn read_page(&mut self, id: PageId, buf: &mut PageBuf) -> Result<bool> {
        match self.map.get(&id) {
            None => Ok(false),
            Some(Slot::Zeroed) => {
                buf.bytes_mut().fill(0);
                Ok(true)
            }
            Some(&Slot::Image(offset)) => {
                self.file.seek(SeekFrom::Start(offset))?;
                self.file.read_exact(buf.bytes_mut().as_mut_slice())?;
                Ok(true)
            }
        }
    }

    /// Seals the image set with a `Commit` record and fsyncs the log.
    ///
    /// `ingest_watermark` is the fold consumption frontier: every pending
    /// ingest whose doc id is below it is folded into the page images this
    /// commit seals (zero when the checkpoint folds nothing). Recovery that
    /// rolls this commit forward drops those ingests; a roll back keeps
    /// them.
    pub(crate) fn commit(&mut self, crash: &mut CrashState, ingest_watermark: u64) -> Result<()> {
        self.append(KIND_COMMIT, &ingest_watermark.to_le_bytes(), crash)?;
        if matches!(crash.check(CrashPoint::WalSync)?, CrashCheck::Tear) {
            return Err(crash_err());
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// Logs one ingested document and fsyncs it — each ingest record is
    /// individually durable, with no sealing `Commit` required.
    pub(crate) fn append_ingest(
        &mut self,
        doc_id: u32,
        xml: &[u8],
        crash: &mut CrashState,
        obs: &Arc<StorageCounters>,
    ) -> Result<()> {
        if xml.len() > MAX_INGEST_XML {
            return Err(StorageError::ValueTooLarge(xml.len()));
        }
        self.append_at(
            KIND_INGEST,
            CrashPoint::IngestAppend,
            &doc_id.to_le_bytes(),
            xml,
            crash,
        )?;
        if matches!(crash.check(CrashPoint::IngestSync)?, CrashCheck::Tear) {
            return Err(crash_err());
        }
        self.file.sync_data()?;
        self.pending.push(PendingIngest {
            doc_id,
            xml: xml.to_vec(),
        });
        obs.wal_appends.incr();
        obs.wal_bytes.add((8 + 1 + 8 + 4 + xml.len()) as u64);
        Ok(())
    }

    /// The logged ingests no fold has consumed yet, in log order.
    pub(crate) fn pending_ingests(&self) -> &[PendingIngest] {
        &self.pending
    }

    /// The logged page set, sorted by page id (deterministic write-back
    /// order, which the crash-matrix test relies on).
    pub(crate) fn entries(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.map.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Reads the logged image of `id` into `buf` (zero pages included).
    pub(crate) fn load(&mut self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        if !self.read_page(id, buf)? {
            return Err(StorageError::Corrupt(format!(
                "wal page table lost page {id}"
            )));
        }
        Ok(())
    }

    /// Truncates the log back to its header, durably, and stamps a fresh
    /// `Checkpoint` record. Clears the page table. Pending ingests with a
    /// doc id below `consumed_watermark` are dropped (the checkpoint that
    /// triggered this reset folded them); survivors are carried into the
    /// new log so acknowledged ingests stay durable across truncations.
    pub(crate) fn reset(&mut self, crash: &mut CrashState, consumed_watermark: u64) -> Result<()> {
        if consumed_watermark > 0 {
            self.pending
                .retain(|p| u64::from(p.doc_id) >= consumed_watermark);
        }
        if matches!(crash.check(CrashPoint::WalTruncate)?, CrashCheck::Tear) {
            return Err(crash_err());
        }
        if self.pending.is_empty() {
            self.file.set_len(WAL_HEADER_LEN)?;
            self.file.sync_data()?;
            self.map.clear();
            self.end = WAL_HEADER_LEN;
            self.append(KIND_CHECKPOINT, &[], crash)?;
            return Ok(());
        }
        // Pending ingests must survive the truncation. `set_len` then
        // re-append would open a window where a crash loses acknowledged
        // documents, so instead build the successor log beside the old one
        // and swap it in with an atomic rename: at every instant the path
        // holds either the old log (ingests intact, commit replayable) or
        // the complete new one.
        let mut name = self.path.as_os_str().to_os_string();
        name.push(".new");
        let tmp = PathBuf::from(name);
        let mut fresh = Wal::create(&tmp)?;
        for p in &self.pending {
            fresh.append_at(
                KIND_INGEST,
                CrashPoint::IngestAppend,
                &p.doc_id.to_le_bytes(),
                &p.xml,
                crash,
            )?;
        }
        fresh.file.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = fresh.file;
        self.map.clear();
        self.end = fresh.end;
        self.next_lsn = fresh.next_lsn;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("trex-wal-{name}-{}", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_scan_round_trips_committed_images() {
        let path = temp("roundtrip");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            let mut page = PageBuf::zeroed();
            page.init(PageType::Leaf);
            page.set_next_page(777);
            wal.append_image(3, &page, &mut crash, &obs).unwrap();
            wal.append_alloc(9, &mut crash, &obs).unwrap();
            wal.commit(&mut crash, 0).unwrap();
        }
        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert!(scan.replay, "commit must make the set replayable");
        assert_eq!(wal.entries(), vec![3, 9]);
        let mut back = PageBuf::zeroed();
        wal.load(3, &mut back).unwrap();
        assert_eq!(back.next_page(), 777);
        wal.load(9, &mut back).unwrap();
        assert!(back.bytes().iter().all(|&b| b == 0));
        assert_eq!(obs.wal_appends.get(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncommitted_records_are_discarded() {
        let path = temp("discard");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            let page = PageBuf::zeroed();
            wal.append_image(1, &page, &mut crash, &obs).unwrap();
            // No commit: simulated crash.
        }
        let (wal, scan) = Wal::open(&path).unwrap();
        assert!(!scan.replay);
        assert_eq!(scan.discarded_records, 1);
        assert!(wal.entries().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_commit_record_is_discarded() {
        let path = temp("torn");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            let page = PageBuf::zeroed();
            wal.append_image(1, &page, &mut crash, &obs).unwrap();
            crash.arm(CrashPoint::CheckpointRecord, 1);
            assert!(wal.commit(&mut crash, 0).is_err());
        }
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(!scan.replay, "a torn commit must not seal the set");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_invalidates_the_tail() {
        let path = temp("flip");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            let page = PageBuf::zeroed();
            wal.append_image(1, &page, &mut crash, &obs).unwrap();
            wal.append_image(2, &page, &mut crash, &obs).unwrap();
            wal.commit(&mut crash, 0).unwrap();
        }
        {
            // Flip one byte in the middle of the second image record.
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let len = f.metadata().unwrap().len();
            f.seek(SeekFrom::Start(len - (PAGE_SIZE as u64 / 2) - 40))
                .unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(len - (PAGE_SIZE as u64 / 2) - 40))
                .unwrap();
            f.write_all(&[b[0] ^ 0xFF]).unwrap();
        }
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(
            !scan.replay,
            "a corrupt record severs the chain before the commit"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_clears_the_log() {
        let path = temp("reset");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        let mut wal = Wal::create(&path).unwrap();
        let page = PageBuf::zeroed();
        wal.append_image(5, &page, &mut crash, &obs).unwrap();
        wal.commit(&mut crash, 0).unwrap();
        wal.reset(&mut crash, 0).unwrap();
        assert!(wal.entries().is_empty());
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(!scan.replay);
        assert_eq!(scan.discarded_records, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_state_kills_all_later_operations() {
        let mut crash = CrashState::default();
        crash.arm(CrashPoint::WalSync, 2);
        assert!(matches!(
            crash.check(CrashPoint::WalSync).unwrap(),
            CrashCheck::Proceed
        ));
        assert!(matches!(
            crash.check(CrashPoint::WalAppend).unwrap(),
            CrashCheck::Proceed
        ));
        assert!(matches!(
            crash.check(CrashPoint::WalSync).unwrap(),
            CrashCheck::Tear
        ));
        assert!(crash.check(CrashPoint::WalAppend).is_err());
        assert!(crash.ensure_alive().is_err());
    }

    #[test]
    fn ingest_records_survive_rollback_and_truncation() {
        let path = temp("ingest");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append_ingest(7, b"<a>x</a>", &mut crash, &obs).unwrap();
            let page = PageBuf::zeroed();
            wal.append_image(1, &page, &mut crash, &obs).unwrap();
            // No commit: the image rolls back; the ingest must not.
        }
        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert!(!scan.replay);
        assert_eq!(
            wal.pending_ingests(),
            &[PendingIngest {
                doc_id: 7,
                xml: b"<a>x</a>".to_vec(),
            }]
        );
        // A truncation that consumes nothing must carry the ingest into the
        // successor log.
        wal.reset(&mut crash, 0).unwrap();
        drop(wal);
        let (wal, scan) = Wal::open(&path).unwrap();
        assert!(!scan.replay);
        assert_eq!(wal.pending_ingests().len(), 1);
        assert_eq!(wal.pending_ingests()[0].doc_id, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_watermark_consumes_folded_ingests_on_replay() {
        let path = temp("watermark");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append_ingest(3, b"<a>3</a>", &mut crash, &obs).unwrap();
            wal.append_ingest(4, b"<a>4</a>", &mut crash, &obs).unwrap();
            let page = PageBuf::zeroed();
            wal.append_image(1, &page, &mut crash, &obs).unwrap();
            // The fold consumed doc 3 only (watermark 4); crash before the
            // truncation.
            wal.commit(&mut crash, 4).unwrap();
        }
        let (wal, scan) = Wal::open(&path).unwrap();
        assert!(scan.replay);
        let ids: Vec<u32> = wal.pending_ingests().iter().map(|p| p.doc_id).collect();
        assert_eq!(ids, vec![4], "replay drops ingests below the watermark");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_ingest_append_loses_only_that_document() {
        let path = temp("ingest-torn");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append_ingest(1, b"<a>ok</a>", &mut crash, &obs)
                .unwrap();
            crash.arm(CrashPoint::IngestAppend, 1);
            assert!(wal
                .append_ingest(2, b"<a>lost</a>", &mut crash, &obs)
                .is_err());
        }
        let (wal, scan) = Wal::open(&path).unwrap();
        assert!(!scan.replay);
        let ids: Vec<u32> = wal.pending_ingests().iter().map(|p| p.doc_id).collect();
        assert_eq!(ids, vec![1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_ingest_is_rejected() {
        let path = temp("ingest-big");
        let obs = Arc::new(StorageCounters::new());
        let mut crash = CrashState::default();
        let mut wal = Wal::create(&path).unwrap();
        let big = vec![b'x'; MAX_INGEST_XML + 1];
        assert!(matches!(
            wal.append_ingest(1, &big, &mut crash, &obs),
            Err(StorageError::ValueTooLarge(_))
        ));
        assert!(wal.pending_ingests().is_empty());
        drop(wal);
        std::fs::remove_file(&path).ok();
    }
}
