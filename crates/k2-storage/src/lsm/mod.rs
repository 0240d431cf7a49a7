//! Log-structured merge-tree storage engine (the paper's *k2-LSMT*, §5.2).
//!
//! The engine follows the classic LSM design (O'Neil et al., 1996),
//! production-hardened with a crash-safe write path:
//!
//! * writes are first appended to a CRC-framed **write-ahead log**
//!   ([`wal`]), then land in an in-memory **memtable** (a sorted map) —
//!   an acknowledged insert survives a crash at any later point,
//! * full memtables are flushed to immutable **SSTables** — sorted runs of
//!   `(t, oid) → (x, y)` entries split into 4 KiB blocks with a sparse
//!   in-memory index and a per-table **bloom filter** — after which the
//!   WAL generation that covered them is retired,
//! * when the number of tables grows past a threshold a
//!   [`CompactionController`] picks a run to merge — **size-tiered** by
//!   default: only the newest run of similarly sized tables, leaving
//!   settled giants alone — and a background worker thread executes it
//!   off the write path (newest version of a key wins;
//!   [`LsmStore::compact_blocking`] runs the same merges inline for
//!   deterministic tests and benches),
//! * block reads go through a **sharded LRU block cache** shared behind
//!   an `Arc` (per-shard mutex, O(1) eviction),
//! * every flush, compaction and WAL rotation is committed by an
//!   `fsync`ed record in the append-only **manifest** ([`manifest`]),
//!   written strictly *after* the files it references are durable,
//! * reads consult the memtables (active, then frozen generations),
//!   then tables newest-first; range scans k-way-merge all sources. A
//!   sorted `multi_get` batch walks each table once with a block cursor
//!   that skips tables whose key range misses the key, asks the bloom
//!   filter only before fetching a new block, and answers later keys
//!   from the block it holds.
//!
//! # One `&self` handle, MVCC state swap
//!
//! Every [`LsmStore`] method takes `&self`: writers are serialised by
//! one internal mutex over the writer-side structure, so a single store
//! behind an `Arc` serves ingest, pins and reads from any thread — the
//! serving substrate `k2-server` builds on. The store's durable
//! structure — frozen memtable generations plus the ordered table list
//! — is published as an immutable `LsmState` behind
//! `Arc<RwLock<Arc<LsmState>>>` (the classic state-swap idiom). Inserts
//! fill the active memtable; every structural change — flush,
//! compaction commit, snapshot pin — builds a fresh state and swaps the
//! pointer under a short write lock. [`LsmStore::pin_snapshot`] freezes
//! the active memtable and returns a [`StorePin`]: an `Arc` of the
//! published state that serves reads for an entire mining run without
//! blocking ingest (retired SSTables stay readable through the pin's
//! open descriptors after compaction unlinks them; pinned reads share
//! the block cache but account into per-pin counters). The store and
//! its pins serve scans and probes through one read path
//! (`lookup::ReadSources`).
//!
//! Opening a store runs recovery: fold the manifest (dropping a torn
//! tail), delete orphaned files from crashed flushes/compactions, replay
//! the live WAL tail into the memtable (truncating at the first torn or
//! corrupt frame), and rebuild the time span from the surviving state.
//! The fault-injection suite (`tests/lsm_recovery.rs`) drives crashes at
//! every one of those points and asserts recovered stores re-mine to
//! byte-identical convoy output.
//!
//! Because the composite key is big-endian `(t, oid)`, "all data
//! corresponding to a timestamp `t` is co-located \[and\] fetched with a
//! single seek" — the property §5.2 credits for k2-LSMT's benchmark-point
//! scan performance. Hop-window accesses are point queries accelerated by
//! bloom filters.

mod bloom;
mod compaction;
mod lookup;
pub mod manifest;
mod pin;
mod sstable;
mod store;
pub mod wal;

pub use bloom::BloomFilter;
pub use compaction::{CompactionController, CompactionPolicy};
pub use manifest::{Manifest, ManifestRecord};
pub use pin::StorePin;
pub use sstable::{BlockCache, SsTableReader, SsTableWriter};
pub use store::{LsmConfig, LsmStore};
pub use wal::{replay_wal, WalReplay, WalSyncPolicy, WalWriter, WAL_FRAME_SIZE};
