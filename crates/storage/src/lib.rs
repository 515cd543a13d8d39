//! # trex-storage
//!
//! Ordered key–value storage engine used by TReX as its substitute for
//! BerkeleyDB. The paper (§2.2, §5.1) stores the `Elements`, `PostingLists`,
//! `RPLs` and `ERPLs` tables in BDB B-trees and relies on exactly two access
//! paths: point/seek lookups on the primary key and sequential scans in key
//! order. This crate provides those access paths:
//!
//! * a single store file split into fixed-size pages ([`page`], [`pager`]);
//! * an LRU buffer pool ([`buffer`]);
//! * a persistent B+tree with chained leaves ([`btree`]);
//! * a named-table catalog ([`store`]);
//! * a write-ahead log with redo recovery ([`wal`]) — [`Store::flush`] is
//!   an atomic checkpoint, and [`Store::open`] replays or discards an
//!   interrupted one, so a crash at any point leaves the store openable at
//!   its last durable checkpoint.
//!
//! ```
//! use trex_storage::Store;
//!
//! let dir = std::env::temp_dir().join(format!("trex-doc-{}", std::process::id()));
//! let _ = std::fs::remove_file(&dir);
//! let store = Store::create(&dir, 128).unwrap();
//! let mut table = store.create_table("postings").unwrap();
//! table.insert(b"xml", b"positions...").unwrap();
//! assert_eq!(table.get(b"xml").unwrap().unwrap(), b"positions...");
//!
//! let mut cursor = table.seek(b"x").unwrap();
//! let (key, _) = cursor.next_entry().unwrap().unwrap();
//! assert_eq!(key, b"xml");
//! # std::fs::remove_file(&dir).ok();
//! # std::fs::remove_file(trex_storage::wal_path(&dir)).ok();
//! ```

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod error;
pub mod page;
pub mod pager;
pub mod store;
pub mod wal;

pub use btree::{BTree, Cursor, MAX_KEY_LEN, MAX_VALUE_LEN};
pub use buffer::BufferPool;
pub use error::{Result, StorageError};
pub use page::{PageId, PAGE_SIZE};
pub use store::{Store, StoreOptions, Table};
pub use wal::{wal_path, CrashPoint, PendingIngest, RecoveryReport, MAX_INGEST_XML};
