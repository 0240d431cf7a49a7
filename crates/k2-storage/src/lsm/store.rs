//! The LSM-tree store: WAL + memtable + SSTables + compaction + manifest,
//! published to concurrent readers as immutable MVCC states.

use super::compaction::{
    run_job, CompactionController, CompactionDone, CompactionHandle, CompactionJob,
    CompactionPolicy,
};
use super::lookup::ReadSources;
use super::manifest::{sync_dir, Manifest, ManifestRecord};
use super::pin::{LsmState, StorePin};
use super::sstable::{BlockCache, SsTableReader, SsTableWriter};
use super::wal::{replay_wal, WalSyncPolicy, WalWriter};
use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::{IoStats, SnapshotRef, SnapshotSource, StoreError, StoreResult};
use k2_model::{Dataset, ObjPos, Oid, Point, Time, TimeInterval};
use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Tuning knobs for [`LsmStore`].
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Memtable capacity in entries before an automatic flush. Counts
    /// everything buffered in memory: the active memtable plus any
    /// generations frozen by [`LsmStore::pin_snapshot`].
    pub memtable_entries: usize,
    /// Bloom-filter budget in bits per key.
    pub bloom_bits_per_key: usize,
    /// Compaction trigger: compact when the number of SSTables exceeds
    /// this.
    pub max_tables: usize,
    /// Shared block-cache capacity in blocks. `0` genuinely disables
    /// caching — every block read goes to disk and nothing is retained —
    /// so cache A/B benchmarks measure the real uncached cost (there is
    /// no hidden minimum capacity).
    pub cache_blocks: usize,
    /// Which [`CompactionPolicy`] the store runs when the trigger fires.
    pub compaction: CompactionPolicy,
    /// Tiered policy: a table joins the merge run while it is at most
    /// this multiple of the combined size of the younger tables already
    /// in the run. Ignored by [`CompactionPolicy::FullMerge`].
    pub tier_size_ratio: f64,
    /// Tiered policy: minimum number of tables worth merging as a run;
    /// below it the cheapest adjacent pair is merged instead. Ignored by
    /// [`CompactionPolicy::FullMerge`].
    pub tier_min_merge: usize,
    /// Run compactions on a background worker thread: `flush()` only
    /// enqueues, and the write path never pays the merge. With `false`
    /// the merge runs inline at the trigger point — fully deterministic,
    /// which is what tests, goldens and write-amp benches want.
    pub background_compaction: bool,
    /// Write every `insert` to the write-ahead log before acknowledging
    /// it, so a crash before the next flush loses nothing. Bulk loads
    /// ([`LsmStore::bulk_load`]) bypass the log during the load and
    /// start it afterwards.
    pub wal: bool,
    /// When the WAL is `fsync`ed (see [`WalSyncPolicy`]); irrelevant
    /// when `wal` is off.
    pub wal_sync: WalSyncPolicy,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            memtable_entries: 1 << 16,
            bloom_bits_per_key: 10,
            max_tables: 8,
            cache_blocks: 256,
            compaction: CompactionPolicy::Tiered,
            tier_size_ratio: 2.0,
            tier_min_merge: 2,
            background_compaction: true,
            wal: true,
            wal_sync: WalSyncPolicy::default(),
        }
    }
}

pub(crate) fn sst_name(seq: u64) -> String {
    format!("sst-{seq:06}.k2ss")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Composite key as an integer: ordering equals `(t, oid)` ordering.
#[inline]
pub(crate) fn key_of(t: Time, oid: Oid) -> u64 {
    ((t as u64) << 32) | oid as u64
}

#[inline]
pub(crate) fn key_parts(key: u64) -> (Time, Oid) {
    ((key >> 32) as Time, key as Oid)
}

#[inline]
fn val_of(x: f64, y: f64) -> [u8; VAL_SIZE] {
    crate::keys::encode_val(x, y)
}

#[inline]
pub(crate) fn val_parts(v: &[u8; VAL_SIZE]) -> (f64, f64) {
    crate::keys::decode_val(v)
}

/// One sorted in-memory run of `(t, oid) → (x, y)` entries.
pub(crate) type Memtable = BTreeMap<u64, [u8; VAL_SIZE]>;

/// A log-structured merge-tree over `(t, oid) → (x, y)`.
///
/// See the `k2_storage::lsm` module docs for the design. Writes go to
/// [`LsmStore::insert`] and are crash-safe: with the default
/// [`LsmConfig`] every insert is appended to a CRC-framed write-ahead
/// log before it is acknowledged, every flush/compaction is committed
/// by an `fsync`ed record in the append-only manifest, and
/// [`LsmStore::open`] runs a recovery procedure (fold the manifest,
/// drop orphans of crashed flushes/compactions, replay the live WAL
/// tail into the memtable). [`LsmStore::bulk_load`] bypasses the WAL
/// during the load — the paper's workload is bulk load followed by
/// read-only mining, and durability there is established wholesale by
/// the final flush.
///
/// # One `&self` handle (MVCC)
///
/// Every method takes `&self`, so one store (typically behind an `Arc`)
/// serves ingest, pins and reads from any number of threads. The
/// writer-side structure — active memtable, frozen generations, table
/// list, WAL, compaction bookkeeping — lives behind one internal mutex
/// that serialises writers. The durable structure is also published as
/// an immutable `LsmState` behind `Arc<RwLock<Arc<LsmState>>>`: every
/// structural change (flush, compaction commit, snapshot pin) builds a
/// fresh `Arc<LsmState>` and swaps it in under a short write lock, while
/// plain inserts only touch the active memtable. [`LsmStore::version`]
/// and [`LsmStore::live_pins`] read the published state and the pin
/// counter without the writer lock. [`LsmStore::pin_snapshot`] freezes
/// the active memtable into the published state and hands back a
/// [`StorePin`] — an `Arc` of that state plus its own I/O counters —
/// which serves reads for an entire mining run without ever taking the
/// writer lock. Compaction may unlink a pinned table's file, but unix
/// keeps the data readable through the pin's open descriptor; pinned
/// block reads share the store's block cache and account into the pin's
/// counters. Reads on the store itself see the active memtable too, so
/// they take the writer lock for their duration.
///
/// A writer that panics poisons the lock; every later call that returns
/// a [`StoreResult`] then fails with an error instead of touching the
/// half-updated structure.
///
/// Compaction runs under a [`CompactionController`] (size-tiered by
/// default: only similarly sized young runs are merged, settled tables
/// are left alone) and, by default, on a background worker thread — the
/// write path only enqueues.
///
/// ```
/// use k2_storage::{LsmStore, SnapshotSource};
/// use k2_model::Point;
///
/// let dir = std::env::temp_dir().join(format!("lsm-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = LsmStore::create(&dir)?;
/// store.insert(Point::new(1, 2.0, 3.0, 0))?;
/// store.insert(Point::new(2, 2.5, 3.0, 0))?;
/// store.flush()?;
/// assert_eq!(store.scan_snapshot(0)?.len(), 2);
/// assert_eq!(store.point_get(0, 1)?.unwrap().x, 2.0);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), k2_storage::StoreError>(())
/// ```
#[derive(Debug)]
pub struct LsmStore {
    dir: PathBuf,
    io: Arc<IoCounters>,
    /// The published MVCC state; see the struct docs.
    state: Arc<RwLock<Arc<LsmState>>>,
    /// Live [`StorePin`] count (each pin decrements on drop).
    pins: Arc<AtomicU64>,
    writer: Mutex<Writer>,
}

// The store is shared across serving threads by reference.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<LsmStore>();
};

/// The writer-side structure of an [`LsmStore`], behind its mutex.
#[derive(Debug)]
struct Writer {
    dir: PathBuf,
    config: LsmConfig,
    /// Active memtable: inserts land here without touching the
    /// published state, so a swap is only paid when the structure
    /// changes (flush/compaction/pin), never per record.
    active: Memtable,
    /// Frozen generations (oldest first) already visible in the
    /// published state; written out together at the next flush.
    frozen: Vec<Arc<Memtable>>,
    /// Cached `sum(frozen.len())` for the flush trigger.
    frozen_entries: usize,
    /// Oldest first; index position is the recency rank. Shared with
    /// the published state and any live pins.
    tables: Vec<Arc<SsTableReader>>,
    /// Sequence numbers of `tables`, same order.
    table_seqs: Vec<u64>,
    /// The store's published state, swapped by [`Writer::publish`].
    state: Arc<RwLock<Arc<LsmState>>>,
    /// Version of the currently published state; bumped on every swap.
    version: u64,
    /// Shared with the background compaction worker, which appends its
    /// own commit records.
    manifest: Arc<Mutex<Manifest>>,
    /// Live WAL appender (present iff `config.wal`).
    wal: Option<WalWriter>,
    /// A live WAL inherited from a previous WAL-enabled incarnation when
    /// this one runs with the WAL off: its contents were replayed into
    /// the memtable and it is retired at the next flush.
    stale_wal: Option<PathBuf>,
    next_seq: u64,
    cache: Arc<BlockCache>,
    io: Arc<IoCounters>,
    controller: CompactionController,
    /// Background worker, spawned lazily at the first enqueued job.
    compactor: Option<CompactionHandle>,
    /// Input seqs of the one in-flight background job, if any.
    inflight: Option<Vec<u64>>,
    span: Option<(Time, Time)>,
}

impl LsmStore {
    /// Creates an empty store in (a fresh or empty) directory `dir`.
    pub fn create(dir: impl AsRef<Path>) -> StoreResult<Self> {
        Self::create_with(dir, LsmConfig::default())
    }

    /// Creates with explicit configuration.
    pub fn create_with(dir: impl AsRef<Path>, config: LsmConfig) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let manifest = Manifest::create(&dir)?;
        let cache = Arc::new(BlockCache::new(config.cache_blocks));
        Self::from_writer(Writer::new(
            dir,
            config,
            manifest,
            cache,
            Arc::new(IoCounters::new()),
        ))
    }

    /// Opens an existing store directory.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<Self> {
        Self::open_with(dir, LsmConfig::default())
    }

    /// Opens with explicit configuration, running crash recovery:
    ///
    /// 1. fold the manifest log (a torn/corrupt tail is dropped) into
    ///    the live SSTable set and live WAL generation — including
    ///    partial (tiered) compactions, whose outputs splice into the
    ///    first input's position,
    /// 2. delete orphaned SSTables/WALs — files whose flush, compaction
    ///    or rotation crashed before its manifest commit record,
    /// 3. replay the live WAL tail into the memtable (truncating at the
    ///    first torn or corrupt frame), counted in
    ///    [`IoStats::wal_replayed`],
    /// 4. rebuild the time span from the live tables and memtable.
    ///
    /// Every insert acknowledged by a WAL-enabled store before a crash
    /// is visible again after `open_with` — see `tests/lsm_recovery.rs`.
    pub fn open_with(dir: impl AsRef<Path>, config: LsmConfig) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (manifest, records) = Manifest::open(&dir)?;

        // 1. Fold the structural history into the live state.
        let mut live: Vec<u64> = Vec::new();
        let mut wal_seq: Option<u64> = None;
        let mut next_seq: u64 = 1;
        for rec in &records {
            match rec {
                ManifestRecord::Flush { seq } => {
                    live.push(*seq);
                    next_seq = next_seq.max(seq + 1);
                }
                ManifestRecord::Compact { inputs, output } => {
                    let pos = live
                        .iter()
                        .position(|s| inputs.contains(s))
                        .unwrap_or(live.len());
                    live.retain(|s| !inputs.contains(s));
                    live.insert(pos.min(live.len()), *output);
                    next_seq = next_seq.max(output + 1);
                }
                ManifestRecord::WalRotate { seq } => {
                    wal_seq = (*seq != 0).then_some(*seq);
                    next_seq = next_seq.max(seq + 1);
                }
            }
        }

        // 2. Sweep orphans; also bump next_seq past every seq ever seen
        //    on disk so fresh files cannot collide with leftovers.
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == "MANIFEST.tmp" {
                let _ = fs::remove_file(entry.path());
            } else if let Some(seq) = parse_seq(&name, "sst-", ".k2ss") {
                next_seq = next_seq.max(seq + 1);
                if !live.contains(&seq) {
                    let _ = fs::remove_file(entry.path());
                }
            } else if let Some(seq) = parse_seq(&name, "wal-", ".log") {
                next_seq = next_seq.max(seq + 1);
                if wal_seq != Some(seq) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let cache = Arc::new(BlockCache::new(config.cache_blocks));
        let io = Arc::new(IoCounters::new());
        let mut w = Writer::new(dir, config, manifest, cache, io);
        w.next_seq = next_seq;
        for &seq in &live {
            // The table seq is the cache id: unique per file for the
            // directory's whole history, so a reopened store can never
            // alias cache entries of a retired table.
            w.tables.push(Arc::new(w.open_table(seq)?));
        }
        w.table_seqs = live;

        // 4 (span, table part). The composite key is (t << 32 | oid), so
        // each table's key range bounds its time range.
        let mut bounds: Vec<(u64, u64)> = w
            .tables
            .iter()
            .filter_map(|t| Some((t.min_key()?, t.max_key()?)))
            .collect();

        // 3. Replay the live WAL tail into the memtable.
        if let Some(seq) = wal_seq {
            let path = w.dir.join(wal_name(seq));
            let replay = replay_wal(&path, |k, v| {
                w.active.insert(k, v);
            })?;
            w.io.add_wal_replayed(replay.frames);
            if config.wal {
                w.wal = Some(WalWriter::open_append(
                    &path,
                    config.wal_sync,
                    w.io.clone(),
                )?);
            } else if path.exists() {
                w.stale_wal = Some(path);
            }
        }
        if let (Some((&lo, _)), Some((&hi, _))) =
            (w.active.first_key_value(), w.active.last_key_value())
        {
            bounds.push((lo, hi));
        }
        w.span = bounds.iter().fold(None, |span, &(lo, hi)| {
            let (lo, hi) = (key_parts(lo).0, key_parts(hi).0);
            Some(span.map_or((lo, hi), |(a, b): (Time, Time)| (a.min(lo), b.max(hi))))
        });
        w.publish();
        Self::from_writer(w)
    }

    /// Wraps a freshly built writer; starts a WAL generation when the
    /// WAL is requested but none is live (a fresh store, or one last run
    /// with the WAL off).
    fn from_writer(mut w: Writer) -> StoreResult<Self> {
        if w.config.wal && w.wal.is_none() {
            w.rotate_wal()?;
        }
        Ok(Self {
            dir: w.dir.clone(),
            io: w.io.clone(),
            state: w.state.clone(),
            pins: Arc::new(AtomicU64::new(0)),
            writer: Mutex::new(w),
        })
    }

    /// Bulk-loads a dataset: inserts every record and flushes. The WAL
    /// is bypassed during the load (the final flush establishes
    /// durability wholesale) and started afterwards if configured.
    /// Compactions run inline during the load and are fully drained
    /// before returning, so the resulting table layout — and therefore
    /// every downstream I/O counter — is deterministic for goldens and
    /// benches regardless of the configured background mode.
    pub fn bulk_load(dir: impl AsRef<Path>, dataset: &Dataset) -> StoreResult<Self> {
        Self::bulk_load_with(dir, dataset, LsmConfig::default())
    }

    /// Bulk-load with explicit configuration.
    pub fn bulk_load_with(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        config: LsmConfig,
    ) -> StoreResult<Self> {
        let mut store = Self::create_with(
            dir,
            LsmConfig {
                wal: false,
                background_compaction: false,
                ..config
            },
        )?;
        // The load owns the store, so it fills the writer directly: no
        // lock per record.
        let w = store
            .writer
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for p in dataset.iter_points() {
            w.insert(p)?;
        }
        w.flush()?;
        w.config.wal = config.wal;
        w.config.background_compaction = config.background_compaction;
        if config.wal {
            w.rotate_wal()?;
        }
        Ok(store)
    }

    /// The writer lock; a lock poisoned by a panicking writer fails
    /// closed.
    fn writer(&self) -> StoreResult<MutexGuard<'_, Writer>> {
        self.writer.lock().map_err(|_| {
            StoreError::Io(std::io::Error::other(
                "LSM store poisoned by a panic in an earlier writer",
            ))
        })
    }

    /// The writer lock for infallible metadata reads, poisoned or not.
    fn peek(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `read` over the store's current sources — the active
    /// memtable included — under the writer lock.
    fn read<R>(&self, read: impl FnOnce(&ReadSources<'_>) -> StoreResult<R>) -> StoreResult<R> {
        read(&self.writer()?.read_sources())
    }

    /// Pins the store's current contents as an immutable snapshot.
    ///
    /// The active memtable (if non-empty) is frozen into the published
    /// state first, so the pin sees every insert acknowledged before
    /// this call and nothing after it. The returned [`StorePin`] is a
    /// self-contained [`SnapshotSource`]: it holds `Arc`s to the frozen
    /// generations and open SSTable readers (compaction may unlink a
    /// retired table's file, but the open descriptor keeps it readable),
    /// reads through the store's shared block cache, and accounts its
    /// I/O into its own counters. Dropping the pin releases it; the
    /// writer is never blocked either way.
    pub fn pin_snapshot(&self) -> StoreResult<StorePin> {
        let mut w = self.writer()?;
        w.freeze_active()?;
        let state = self.state.read().expect("state lock").clone();
        Ok(StorePin::new(state, self.pins.clone()))
    }

    /// Inserts one record; may trigger an automatic memtable flush.
    ///
    /// With the WAL enabled the record is framed and handed to the OS
    /// before this returns: an acknowledged insert survives a crash at
    /// any later point (see [`LsmConfig::wal_sync`] for the power-
    /// failure window). With background compaction (the default) the
    /// flush only writes the memtable and enqueues any merge work, so
    /// insert latency never includes an O(total data) compaction. The
    /// record lands in the active memtable — no state swap, nothing a
    /// pinned reader could contend on.
    pub fn insert(&self, p: Point) -> StoreResult<()> {
        self.writer()?.insert(p)
    }

    /// Inserts a batch of records under one writer-lock acquisition, so
    /// no pin ever observes part of the batch. On an error the records
    /// before the failing one stay inserted.
    pub fn insert_batch(&self, points: impl IntoIterator<Item = Point>) -> StoreResult<()> {
        let mut w = self.writer()?;
        points.into_iter().try_for_each(|p| w.insert(p))
    }

    /// Flushes all buffered entries — frozen generations and the active
    /// memtable, merged newest-wins — to a new SSTable (no-op when
    /// nothing is buffered), retires the WAL generation that covered
    /// them, publishes the new state, then consults the compaction
    /// controller — enqueueing (background mode) or running (blocking
    /// mode) any merge it picks.
    ///
    /// The flush commits in a fixed order: the SSTable is written and
    /// `fsync`ed, the directory entry is `fsync`ed, and only then is the
    /// [`ManifestRecord::Flush`] appended — a crash before the record
    /// leaves an orphan file that recovery ignores, while the WAL still
    /// holds every entry. Pins taken before the flush keep reading the
    /// frozen generations they hold; the swap is invisible to them.
    pub fn flush(&self) -> StoreResult<()> {
        self.writer()?.flush()
    }

    /// Merges every SSTable into one run (newest version of each key
    /// wins), inline and deterministically, waiting out any in-flight
    /// background job first. This is the mode tests and goldens use; the
    /// steady-state policy path is [`Self::wait_for_compactions`].
    ///
    /// The [`ManifestRecord::Compact`] append is the commit point: a
    /// crash before it leaves an orphaned output that recovery deletes
    /// (the inputs stay live); a crash after it leaves stale inputs that
    /// recovery deletes (the output is live).
    pub fn compact_blocking(&self) -> StoreResult<()> {
        let mut w = self.writer()?;
        w.wait_for_compactions()?;
        if w.tables.len() <= 1 {
            return Ok(());
        }
        let range = 0..w.tables.len();
        w.run_inline(range)
    }

    /// Drives compaction to its policy steady state and blocks until no
    /// work remains: any in-flight background job is waited out and
    /// applied, and the controller is re-consulted until it picks
    /// nothing. After this returns `num_tables() <= max_tables`.
    pub fn wait_for_compactions(&self) -> StoreResult<()> {
        self.writer()?.wait_for_compactions()
    }

    /// Forces the live WAL (if any) to stable storage, regardless of the
    /// configured [`WalSyncPolicy`].
    pub fn sync_wal(&self) -> StoreResult<()> {
        match &mut self.writer()?.wal {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Number of on-disk SSTables.
    pub fn num_tables(&self) -> usize {
        self.peek().tables.len()
    }

    /// Entries currently buffered in memory: the active memtable plus
    /// any generations frozen by [`Self::pin_snapshot`].
    pub fn memtable_len(&self) -> usize {
        let w = self.peek();
        w.active.len() + w.frozen_entries
    }

    /// Version of the currently published state; bumped by every swap
    /// (flush, compaction commit, snapshot pin). `version() -
    /// pin.version()` is a pin's staleness in state swaps. Reads the
    /// published state only — never waits for a writer.
    pub fn version(&self) -> u64 {
        self.state.read().expect("state lock").version
    }

    /// Number of live [`StorePin`]s.
    pub fn live_pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Number of compaction jobs currently queued or running in the
    /// background (the store keeps at most one in flight).
    pub fn compaction_queue_depth(&self) -> usize {
        usize::from(self.peek().inflight.is_some())
    }

    /// Path of the live write-ahead log, if the WAL is enabled.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.peek().wal.as_ref().map(|w| w.path().to_path_buf())
    }

    /// Storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn controller_of(config: &LsmConfig) -> CompactionController {
    CompactionController::new(
        config.compaction,
        config.max_tables,
        config.tier_size_ratio,
        config.tier_min_merge,
    )
}

impl Writer {
    fn new(
        dir: PathBuf,
        config: LsmConfig,
        manifest: Manifest,
        cache: Arc<BlockCache>,
        io: Arc<IoCounters>,
    ) -> Self {
        Self {
            dir,
            config,
            active: Memtable::new(),
            frozen: Vec::new(),
            frozen_entries: 0,
            tables: Vec::new(),
            table_seqs: Vec::new(),
            state: Arc::new(RwLock::new(Arc::new(LsmState::empty()))),
            version: 0,
            manifest: Arc::new(Mutex::new(manifest)),
            wal: None,
            stale_wal: None,
            next_seq: 1,
            cache,
            io,
            controller: controller_of(&config),
            compactor: None,
            inflight: None,
            span: None,
        }
    }

    /// The sources a store-side read consults: the active memtable, the
    /// frozen generations and the tables.
    fn read_sources(&self) -> ReadSources<'_> {
        ReadSources {
            active: Some(&self.active),
            frozen: &self.frozen,
            tables: &self.tables,
            span: self.span,
        }
    }

    /// Opens the reader of table `seq` over the shared cache.
    fn open_table(&self, seq: u64) -> StoreResult<SsTableReader> {
        SsTableReader::open(
            self.dir.join(sst_name(seq)),
            seq,
            self.cache.clone(),
            self.io.clone(),
        )
    }

    /// Rebuilds the published [`LsmState`] from the writer-side fields
    /// and swaps it in. The clone is shallow — vectors of `Arc`s — so a
    /// swap costs two small allocations, never a data copy; the write
    /// lock is held only for the pointer store.
    fn publish(&mut self) {
        self.version += 1;
        let next = Arc::new(LsmState::new(
            self.frozen.clone(),
            self.tables.clone(),
            self.table_seqs.clone(),
            self.span,
            self.version,
        ));
        *self.state.write().expect("state lock") = next;
    }

    /// Freezes a non-empty active memtable into the published state, so
    /// a pin taken now sees every acknowledged insert.
    fn freeze_active(&mut self) -> StoreResult<()> {
        self.drain_finished()?;
        if !self.active.is_empty() {
            let generation = Arc::new(std::mem::take(&mut self.active));
            self.frozen_entries += generation.len();
            self.frozen.push(generation);
            self.publish();
        }
        Ok(())
    }

    fn insert(&mut self, p: Point) -> StoreResult<()> {
        let key = key_of(p.t, p.oid);
        let val = val_of(p.x, p.y);
        if let Some(w) = &mut self.wal {
            w.append(key, &val)?;
        }
        self.active.insert(key, val);
        self.span = Some(match self.span {
            None => (p.t, p.t),
            Some((lo, hi)) => (lo.min(p.t), hi.max(p.t)),
        });
        if self.active.len() + self.frozen_entries >= self.config.memtable_entries {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> StoreResult<()> {
        self.drain_finished()?;
        if self.active.is_empty() && self.frozen.is_empty() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = self.dir.join(sst_name(seq));
        // Fold the frozen generations (oldest first) under the active
        // map: inserting in age order leaves the newest version of every
        // key — the same order MergeIter resolves reads.
        let merged: Memtable;
        let entries: &Memtable = if self.frozen.is_empty() {
            &self.active
        } else {
            let mut m = Memtable::new();
            for generation in &self.frozen {
                for (&k, v) in generation.iter() {
                    m.insert(k, *v);
                }
            }
            for (&k, v) in &self.active {
                m.insert(k, *v);
            }
            merged = m;
            &merged
        };
        let mut w = SsTableWriter::create(&path, entries.len(), self.config.bloom_bits_per_key)?;
        for (&k, v) in entries {
            w.put(k, v)?;
        }
        w.finish()?;
        sync_dir(&self.dir)?;
        self.append_manifest(&ManifestRecord::Flush { seq })?;
        let reader = self.open_table(seq)?;
        self.tables.push(Arc::new(reader));
        self.table_seqs.push(seq);
        self.active.clear();
        self.frozen.clear();
        self.frozen_entries = 0;
        self.publish();
        // The flushed entries are durable in the SSTable; retire the WAL
        // generation that covered them.
        if self.config.wal {
            self.rotate_wal()?;
        } else if let Some(stale) = self.stale_wal.take() {
            self.append_manifest(&ManifestRecord::WalRotate { seq: 0 })?;
            let _ = fs::remove_file(stale);
        }
        self.maybe_compact()?;
        Ok(())
    }

    fn wait_for_compactions(&mut self) -> StoreResult<()> {
        loop {
            self.drain_finished()?;
            if self.inflight.is_some() {
                let res = self
                    .compactor
                    .as_ref()
                    .expect("in-flight job implies a worker")
                    .recv();
                self.inflight = None;
                if let Some(res) = res {
                    let done = res?;
                    self.apply_compaction(done)?;
                }
                continue;
            }
            match self.pick_compaction() {
                Some(range) => self.start_compaction(range)?,
                None => return Ok(()),
            }
        }
    }

    /// The table run the controller would merge next, if any.
    fn pick_compaction(&self) -> Option<Range<usize>> {
        let sizes: Vec<u64> = self.tables.iter().map(|t| t.num_entries()).collect();
        self.controller.pick(&sizes)
    }

    /// Applies finished background jobs and, if the controller picks a
    /// run and none is in flight, starts the next one. Blocking mode
    /// loops inline until the policy is satisfied.
    fn maybe_compact(&mut self) -> StoreResult<()> {
        self.drain_finished()?;
        loop {
            if self.inflight.is_some() {
                return Ok(());
            }
            let Some(range) = self.pick_compaction() else {
                return Ok(());
            };
            self.start_compaction(range)?;
            if self.config.background_compaction {
                return Ok(());
            }
        }
    }

    /// Launches one compaction over the given contiguous table range —
    /// enqueued to the worker in background mode, run inline otherwise.
    fn start_compaction(&mut self, range: Range<usize>) -> StoreResult<()> {
        if self.config.background_compaction {
            let inputs: Vec<u64> = self.table_seqs[range].to_vec();
            let output = self.next_seq;
            self.next_seq += 1;
            let job = CompactionJob {
                inputs: inputs.clone(),
                output,
            };
            let compactor = self.compactor.get_or_insert_with(|| {
                CompactionHandle::spawn(
                    self.dir.clone(),
                    self.config.bloom_bits_per_key,
                    self.manifest.clone(),
                    self.io.clone(),
                )
            });
            compactor.enqueue(job);
            self.inflight = Some(inputs);
            Ok(())
        } else {
            self.run_inline(range)
        }
    }

    /// Runs one compaction inline and splices the result in.
    fn run_inline(&mut self, range: Range<usize>) -> StoreResult<()> {
        let inputs: Vec<u64> = self.table_seqs[range].to_vec();
        let output = self.next_seq;
        self.next_seq += 1;
        let job = CompactionJob { inputs, output };
        let done = run_job(
            &self.dir,
            self.config.bloom_bits_per_key,
            &self.manifest,
            &self.io,
            &job,
        )?;
        self.apply_compaction(done)
    }

    /// Applies any background results that are already waiting (never
    /// blocks).
    fn drain_finished(&mut self) -> StoreResult<()> {
        loop {
            let res = match &self.compactor {
                Some(c) => c.try_recv(),
                None => None,
            };
            let Some(res) = res else { return Ok(()) };
            self.inflight = None;
            let done = res?;
            self.apply_compaction(done)?;
        }
    }

    /// Splices a committed compaction into the table list: the inputs (a
    /// contiguous run) come out, the output goes in at their position —
    /// the same splice recovery applies when folding the manifest — and
    /// the new state is published. Only the input tables' blocks are
    /// evicted from the cache; every other table's cached blocks stay
    /// hot. Pins still holding the input readers keep reading them
    /// through their open descriptors (the worker already unlinked the
    /// files); cache ids are table seqs, unique forever, so a pin
    /// re-caching a retired table's block can never alias the output's.
    fn apply_compaction(&mut self, done: CompactionDone) -> StoreResult<()> {
        let pos = self
            .table_seqs
            .iter()
            .position(|s| done.inputs.contains(s))
            .expect("compaction inputs must be live tables");
        debug_assert!(
            self.table_seqs[pos..pos + done.inputs.len()]
                .iter()
                .all(|s| done.inputs.contains(s)),
            "compaction inputs must be contiguous in recency order"
        );
        for _ in 0..done.inputs.len() {
            self.tables.remove(pos);
            self.table_seqs.remove(pos);
        }
        self.cache.evict_tables(&done.inputs);
        let reader = self.open_table(done.output)?;
        self.tables.insert(pos, Arc::new(reader));
        self.table_seqs.insert(pos, done.output);
        self.publish();
        Ok(())
    }

    fn append_manifest(&self, rec: &ManifestRecord) -> StoreResult<()> {
        self.manifest.lock().expect("manifest lock").append(rec)
    }

    /// Starts a fresh WAL generation and retires the previous one: the
    /// new log file is created and made durable, the rotation is
    /// committed to the manifest, then the old file is deleted. A crash
    /// between those steps only ever leaves an orphan file or an
    /// idempotent replay.
    fn rotate_wal(&mut self) -> StoreResult<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = self.dir.join(wal_name(seq));
        let writer = WalWriter::create(&path, self.config.wal_sync, self.io.clone())?;
        sync_dir(&self.dir)?;
        self.append_manifest(&ManifestRecord::WalRotate { seq })?;
        if let Some(old) = self.wal.replace(writer) {
            let _ = fs::remove_file(old.path());
        }
        if let Some(stale) = self.stale_wal.take() {
            let _ = fs::remove_file(stale);
        }
        Ok(())
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        // Wait out an in-flight background job so its manifest commit
        // and input deletions are not torn by process-level teardown;
        // dropping the handle afterwards joins the worker.
        if self.inflight.take().is_some() {
            if let Some(c) = &self.compactor {
                let _ = c.recv();
            }
        }
    }
}

impl SnapshotSource for LsmStore {
    fn span(&self) -> TimeInterval {
        self.peek().read_sources().span()
    }

    fn num_points(&self) -> u64 {
        self.peek().read_sources().num_points()
    }

    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        // Disk engine: records are decoded into the caller's reused
        // buffer (one copy, no fresh allocation per scan).
        self.read(|src| src.scan_into(&self.io, t, buf))?;
        Ok(SnapshotRef::Buffered(buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.read(|src| src.multi_get_into(&self.io, t, oids, out))
    }

    fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    fn name(&self) -> &'static str {
        "k2-lsmt"
    }

    fn quiesce_maintenance(&self) -> StoreResult<()> {
        self.wait_for_compactions()
    }

    fn maintenance_depth(&self) -> usize {
        self.compaction_queue_depth()
    }
}

#[cfg(test)]
impl LsmStore {
    /// Test-only flush variant that skips the compaction consult, so a
    /// test can pin a deliberately un-compacted table layout.
    fn flush_without_compaction_for_tests(&self) -> StoreResult<()> {
        let mut w = self.writer()?;
        let controller = w.controller;
        w.controller = controller_of(&LsmConfig {
            max_tables: usize::MAX,
            ..w.config
        });
        let res = w.flush();
        w.controller = controller;
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trait_tests::{conformance, toy_dataset};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("k2lsm-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lsm_store_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LsmStore>();
        assert_send::<BlockCache>();
        assert_send::<SsTableReader>();
    }

    #[test]
    fn conforms_to_trait_contract() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("conform"), &d).unwrap();
        conformance(&store, &d);
    }

    #[test]
    fn reopen_preserves_contents() {
        let d = toy_dataset();
        let dir = tmpdir("reopen");
        {
            let _ = LsmStore::bulk_load(&dir, &d).unwrap();
        }
        let store = LsmStore::open(&dir).unwrap();
        conformance(&store, &d);
    }

    #[test]
    fn small_memtable_forces_many_tables_then_compaction() {
        let d = toy_dataset(); // 1000 points
        let config = LsmConfig {
            memtable_entries: 64,
            max_tables: 4,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(tmpdir("compact"), &d, config).unwrap();
        assert!(
            store.num_tables() <= 4,
            "compaction should bound table count, got {}",
            store.num_tables()
        );
        conformance(&store, &d);
    }

    #[test]
    fn explicit_compaction_to_single_table() {
        let d = toy_dataset();
        let config = LsmConfig {
            memtable_entries: 100,
            max_tables: 100, // no auto-compaction
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(tmpdir("explicit"), &d, config).unwrap();
        assert!(store.num_tables() > 1);
        store.compact_blocking().unwrap();
        assert_eq!(store.num_tables(), 1);
        conformance(&store, &d);
    }

    #[test]
    fn tiered_compaction_leaves_settled_tables_alone() {
        let d = toy_dataset(); // 1000 points
        let dir = tmpdir("tiered");
        let config = LsmConfig {
            memtable_entries: 2000,
            max_tables: 3,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(&dir, &d, config).unwrap();
        assert_eq!(store.num_tables(), 1); // one settled 1000-entry table
        let settled_bytes = store.io_stats().bytes_compacted;
        // Pour in small flushes: the tiered policy must merge the young
        // runs among themselves, never re-reading the settled table.
        for round in 0..4u32 {
            for i in 0..40u32 {
                let t = 100 + round;
                store
                    .insert(Point::new(2000 + i, i as f64, 1.0, t))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        store.wait_for_compactions().unwrap();
        assert!(store.num_tables() <= 3);
        let compacted = store.io_stats().bytes_compacted - settled_bytes;
        // Full-merge would have rewritten the 1000-entry table every
        // trigger; tiered only rewrites the young 40-entry runs.
        let settled_table_bytes = 1000 * super::super::sstable::ENTRY_SIZE as u64;
        assert!(
            compacted < settled_table_bytes,
            "tiered compaction rewrote settled data: {compacted} bytes"
        );
        // Everything still readable.
        assert_eq!(store.scan_snapshot(100).unwrap().len(), 40);
        conformance_scan(&store, &d);
    }

    /// Scan-side subset of `conformance` usable after extra inserts.
    fn conformance_scan(store: &LsmStore, d: &Dataset) {
        for t in [0, 1] {
            let mut want: Vec<ObjPos> = d
                .iter_points()
                .filter(|p| p.t == t)
                .map(|p| ObjPos::new(p.oid, p.x, p.y))
                .collect();
            want.sort_by_key(|o| o.oid);
            let got = store.scan_snapshot(t).unwrap();
            assert_eq!(got, want, "snapshot {t} mismatch");
        }
    }

    #[test]
    fn background_compaction_reaches_steady_state() {
        let dir = tmpdir("background");
        let config = LsmConfig {
            memtable_entries: 64,
            max_tables: 4,
            background_compaction: true,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        for i in 0..2000u32 {
            store
                .insert(Point::new(i % 500, (i % 97) as f64, 2.0, (i / 500) as Time))
                .unwrap();
        }
        store.flush().unwrap();
        store.wait_for_compactions().unwrap();
        assert!(store.num_tables() <= 4, "got {} tables", store.num_tables());
        let s = store.io_stats();
        assert!(s.compactions > 0, "background worker never ran");
        assert!(s.bytes_compacted > 0);
        // Contents identical to what was inserted (newest version wins).
        let snap = store.scan_snapshot(0).unwrap();
        assert_eq!(snap.len(), 500);
    }

    #[test]
    fn background_and_blocking_agree_on_contents() {
        let build = |dir: PathBuf, background: bool| -> Vec<Vec<ObjPos>> {
            let config = LsmConfig {
                memtable_entries: 32,
                max_tables: 3,
                background_compaction: background,
                wal: false,
                ..LsmConfig::default()
            };
            let store = LsmStore::create_with(&dir, config).unwrap();
            for i in 0..600u32 {
                store
                    .insert(Point::new(
                        i % 100,
                        (i % 13) as f64,
                        (i % 7) as f64,
                        (i / 100) as Time,
                    ))
                    .unwrap();
            }
            store.flush().unwrap();
            store.wait_for_compactions().unwrap();
            (0..6).map(|t| store.scan_snapshot(t).unwrap()).collect()
        };
        let a = build(tmpdir("agree-bg"), true);
        let b = build(tmpdir("agree-bl"), false);
        assert_eq!(a, b);
    }

    #[test]
    fn compaction_keeps_other_tables_cached() {
        let d = toy_dataset(); // 1000 points over t=0,1
        let dir = tmpdir("cachesurvive");
        let config = LsmConfig {
            memtable_entries: 2000,
            max_tables: 3,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(&dir, &d, config).unwrap();
        assert_eq!(store.num_tables(), 1);
        // Warm the cache on the settled table.
        let _ = store.point_get(0, 5).unwrap();
        let before = store.io_stats();
        let _ = store.point_get(0, 5).unwrap();
        assert_eq!(
            store.io_stats().since(&before).blocks_read,
            0,
            "warm read must hit cache"
        );
        // Trigger a tiered compaction of young tables only.
        for round in 0..4u32 {
            for i in 0..20u32 {
                store
                    .insert(Point::new(3000 + i, 1.0, 1.0, 50 + round))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        store.wait_for_compactions().unwrap();
        assert!(store.io_stats().compactions > 0);
        // The settled table was not an input, so its blocks must still
        // be resident.
        let before = store.io_stats();
        let _ = store.point_get(0, 5).unwrap();
        let s = store.io_stats().since(&before);
        assert_eq!(
            s.blocks_read, 0,
            "partial compaction evicted a surviving table's blocks"
        );
        assert!(s.cache_hits >= 1);
    }

    #[test]
    fn newest_version_wins_after_overwrite() {
        let dir = tmpdir("overwrite");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 5)).unwrap();
        store.flush().unwrap();
        store.insert(Point::new(1, 9.0, 9.0, 5)).unwrap();
        // Read from memtable over table.
        assert_eq!(store.point_get(5, 1).unwrap().unwrap().x, 9.0);
        store.flush().unwrap();
        // Read newest table over oldest.
        assert_eq!(store.point_get(5, 1).unwrap().unwrap().x, 9.0);
        let snap = store.scan_snapshot(5).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].x, 9.0);
        // And compaction collapses to the newest version.
        store.compact_blocking().unwrap();
        assert_eq!(store.point_get(5, 1).unwrap().unwrap().x, 9.0);
    }

    #[test]
    fn newest_version_wins_across_frozen_generations() {
        let dir = tmpdir("frozenwins");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 5)).unwrap();
        let _pin_a = store.pin_snapshot().unwrap(); // freezes generation 1
        store.insert(Point::new(1, 2.0, 2.0, 5)).unwrap();
        let _pin_b = store.pin_snapshot().unwrap(); // freezes generation 2
        store.insert(Point::new(1, 3.0, 3.0, 5)).unwrap();
        // Active beats both frozen generations.
        assert_eq!(store.point_get(5, 1).unwrap().unwrap().x, 3.0);
        assert_eq!(store.scan_snapshot(5).unwrap()[0].x, 3.0);
        assert_eq!(store.multi_get(5, &[1]).unwrap()[0].x, 3.0);
        drop(_pin_a);
        drop(_pin_b);
        // Flush folds the generations newest-wins.
        store.flush().unwrap();
        assert_eq!(store.memtable_len(), 0);
        assert_eq!(store.point_get(5, 1).unwrap().unwrap().x, 3.0);
        let snap = store.scan_snapshot(5).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].x, 3.0);
    }

    #[test]
    fn pin_is_isolated_from_later_writes() {
        let dir = tmpdir("pinisolate");
        let store = LsmStore::create(&dir).unwrap();
        for oid in 0..10u32 {
            store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
        }
        let pin = store.pin_snapshot().unwrap();
        assert_eq!(store.live_pins(), 1);
        // Everything inserted before the pin is visible through it…
        assert_eq!(pin.scan_snapshot(0).unwrap().len(), 10);
        // …and nothing after: inserts, flushes and compactions included.
        for oid in 10..30u32 {
            store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
        }
        store.flush().unwrap();
        store.insert(Point::new(99, 9.0, 9.0, 1)).unwrap();
        store.compact_blocking().unwrap();
        assert_eq!(pin.scan_snapshot(0).unwrap().len(), 10);
        assert!(pin.scan_snapshot(1).unwrap().is_empty());
        assert_eq!(store.scan_snapshot(0).unwrap().len(), 30);
        // A fresh pin sees the new data.
        let pin2 = store.pin_snapshot().unwrap();
        assert_eq!(pin2.scan_snapshot(0).unwrap().len(), 30);
        assert_eq!(pin2.scan_snapshot(1).unwrap().len(), 1);
        assert!(pin2.version() > pin.version());
        drop(pin);
        drop(pin2);
        assert_eq!(store.live_pins(), 0);
    }

    #[test]
    fn concurrent_ingest_under_live_pin() {
        let config = LsmConfig {
            memtable_entries: 128,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(tmpdir("concurrent"), config).unwrap();
        for oid in 0..64u32 {
            store.insert(Point::new(oid, oid as f64, 0.0, 0)).unwrap();
        }
        let pin = store.pin_snapshot().unwrap();
        assert_eq!(store.live_pins(), 1);
        // Four writer threads ingest through `&LsmStore` past several
        // flush boundaries while the pin is live on this thread.
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..256u32 {
                        let t = 1 + (i % 4) as Time;
                        store
                            .insert(Point::new(1000 + w * 1000 + i, 1.0, 1.0, t))
                            .unwrap();
                    }
                });
            }
        });
        store.flush().unwrap();
        store.quiesce_maintenance().unwrap();
        // The pin's view is exactly the pre-ingest state.
        assert_eq!(pin.scan_snapshot(0).unwrap().len(), 64);
        assert!(pin.scan_snapshot(1).unwrap().is_empty());
        // The store sees everything.
        assert_eq!(store.num_points(), 64 + 4 * 256);
        drop(pin);
        assert_eq!(store.live_pins(), 0);
    }

    #[test]
    fn poisoned_writer_fails_closed() {
        let store = LsmStore::create(tmpdir("poison")).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 0)).unwrap();
        let panicked = std::panic::catch_unwind(|| {
            let _writer = store.writer.lock().unwrap();
            panic!("writer dies mid-update");
        });
        assert!(panicked.is_err());
        // Writes and reads that could see a half-updated structure fail…
        assert!(store.insert(Point::new(2, 1.0, 1.0, 0)).is_err());
        assert!(store.flush().is_err());
        assert!(store.pin_snapshot().is_err());
        assert!(store.scan_snapshot(0).is_err());
        // …while the metadata accessors still answer.
        assert_eq!(store.memtable_len(), 1);
        assert_eq!(store.live_pins(), 0);
    }

    #[test]
    fn pin_survives_compaction_unlinking_its_tables() {
        let dir = tmpdir("pinunlink");
        let config = LsmConfig {
            memtable_entries: 1000,
            max_tables: 2,
            background_compaction: false,
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        // Three flushed tables (max_tables 2 compacts on the third).
        let mut pinned_tables = Vec::new();
        let mut pin = None;
        for round in 0..3u32 {
            for oid in 0..50u32 {
                store
                    .insert(Point::new(oid + round * 100, 1.0, 1.0, round))
                    .unwrap();
            }
            if round == 1 {
                // Pin while two un-compacted tables are live.
                store.flush_without_compaction_for_tests().unwrap();
                let p = store.pin_snapshot().unwrap();
                pinned_tables = p.table_seqs().to_vec();
                pin = Some(p);
            } else {
                store.flush().unwrap();
            }
        }
        store.compact_blocking().unwrap();
        assert_eq!(store.num_tables(), 1);
        // The pinned inputs were unlinked by the compaction…
        for seq in &pinned_tables {
            assert!(
                !dir.join(sst_name(*seq)).exists(),
                "table {seq} should be unlinked"
            );
        }
        // …but the pin still reads them through its open descriptors.
        let pin = pin.unwrap();
        assert_eq!(pin.scan_snapshot(0).unwrap().len(), 50);
        assert_eq!(pin.scan_snapshot(1).unwrap().len(), 50);
        assert!(pin.scan_snapshot(2).unwrap().is_empty());
        assert_eq!(pin.point_get(0, 5).unwrap(), Some(ObjPos::new(5, 1.0, 1.0)));
    }

    #[test]
    fn pin_io_is_accounted_separately_but_shares_the_cache() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("pinio"), &d).unwrap();
        let pin = store.pin_snapshot().unwrap();
        let loaded = store.io_stats();
        // A cold pinned scan misses into the shared cache…
        let first = {
            let _ = pin.scan_snapshot(25).unwrap();
            pin.io_stats()
        };
        assert!(first.range_queries == 1 && first.cache_misses > 0);
        // …the store's own counters saw none of it…
        assert_eq!(store.io_stats().since(&loaded).range_queries, 0);
        assert_eq!(store.io_stats().since(&loaded).cache_misses, 0);
        // …and a store-side read of the same snapshot now hits the
        // blocks the pin populated.
        let _ = store.scan_snapshot(25).unwrap();
        let s = store.io_stats().since(&loaded);
        assert!(s.cache_hits > 0);
        assert_eq!(s.blocks_read, 0, "pin-warmed blocks must be shared");
        // The pin's second scan also hits.
        let before = pin.io_stats();
        let _ = pin.scan_snapshot(25).unwrap();
        let diff = pin.io_stats().since(&before);
        assert_eq!(diff.blocks_read, 0);
        assert!(diff.cache_hits > 0);
    }

    #[test]
    fn version_bumps_on_every_swap_only() {
        let dir = tmpdir("version");
        let store = LsmStore::create(&dir).unwrap();
        let v0 = store.version();
        for oid in 0..5u32 {
            store.insert(Point::new(oid, 1.0, 1.0, 0)).unwrap();
        }
        assert_eq!(store.version(), v0, "plain inserts must not swap");
        let pin = store.pin_snapshot().unwrap();
        assert_eq!(store.version(), v0 + 1, "pin freezes and swaps");
        assert_eq!(pin.version(), store.version());
        store.flush().unwrap();
        assert!(store.version() > pin.version());
        assert_eq!(
            pin.staleness(store.version()),
            store.version() - pin.version()
        );
        // Pinning a quiescent store swaps nothing.
        let v = store.version();
        let pin2 = store.pin_snapshot().unwrap();
        assert_eq!(store.version(), v);
        assert_eq!(pin2.version(), v);
    }

    #[test]
    fn unflushed_memtable_is_readable() {
        let dir = tmpdir("memread");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(7, 3.0, 4.0, 2)).unwrap();
        assert_eq!(store.memtable_len(), 1);
        assert_eq!(
            store.point_get(2, 7).unwrap(),
            Some(ObjPos::new(7, 3.0, 4.0))
        );
        assert_eq!(store.scan_snapshot(2).unwrap().len(), 1);
        assert_eq!(store.span(), TimeInterval::instant(2));
    }

    #[test]
    fn empty_store_is_sane() {
        let store = LsmStore::create(tmpdir("empty")).unwrap();
        assert_eq!(store.num_points(), 0);
        assert!(store.scan_snapshot(0).unwrap().is_empty());
        assert_eq!(store.point_get(0, 0).unwrap(), None);
    }

    #[test]
    fn bloom_negatives_accumulate_on_missing_probes() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("bloom"), &d).unwrap();
        let before = store.io_stats();
        for oid in 1000..1200u32 {
            let _ = store.point_get(0, oid).unwrap();
        }
        assert!(store.io_stats().since(&before).bloom_negatives > 150);
    }

    #[test]
    fn corrupt_manifest_rejected() {
        use crate::StoreError;
        let dir = tmpdir("badmanifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(super::super::manifest::MANIFEST_FILE), "WRONG\n").unwrap();
        assert!(matches!(LsmStore::open(&dir), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn wal_recovers_unflushed_inserts_on_reopen() {
        let dir = tmpdir("walrecover");
        {
            let store = LsmStore::create(&dir).unwrap();
            for oid in 0..10u32 {
                store.insert(Point::new(oid, oid as f64, 1.0, 3)).unwrap();
            }
            assert_eq!(store.memtable_len(), 10);
            assert_eq!(store.num_tables(), 0);
            // Dropped without flush: the memtable is gone, the WAL is not.
        }
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.memtable_len(), 10);
        assert_eq!(store.io_stats().wal_replayed, 10);
        assert_eq!(store.span(), TimeInterval::instant(3));
        for oid in 0..10u32 {
            assert_eq!(
                store.point_get(3, oid).unwrap(),
                Some(ObjPos::new(oid, oid as f64, 1.0))
            );
        }
    }

    #[test]
    fn wal_covers_frozen_generations_until_flush() {
        let dir = tmpdir("walfrozen");
        {
            let store = LsmStore::create(&dir).unwrap();
            for oid in 0..5u32 {
                store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
            }
            let _pin = store.pin_snapshot().unwrap(); // freeze, no flush
            for oid in 5..8u32 {
                store.insert(Point::new(oid, oid as f64, 1.0, 0)).unwrap();
            }
            assert_eq!(store.memtable_len(), 8);
            // Crash (drop without flush): frozen + active both live only
            // in the WAL generation.
        }
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.memtable_len(), 8);
        assert_eq!(store.scan_snapshot(0).unwrap().len(), 8);
    }

    #[test]
    fn flush_retires_the_wal_generation() {
        let dir = tmpdir("walretire");
        let store = LsmStore::create(&dir).unwrap();
        store.insert(Point::new(1, 1.0, 1.0, 0)).unwrap();
        let before = store.wal_path().unwrap();
        store.flush().unwrap();
        let after = store.wal_path().unwrap();
        assert_ne!(before, after, "flush must rotate to a fresh WAL");
        assert!(!before.exists(), "retired WAL file must be deleted");
        // Reopen replays nothing: everything lives in the SSTable.
        drop(store);
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.io_stats().wal_replayed, 0);
        assert_eq!(store.memtable_len(), 0);
        assert_eq!(store.point_get(0, 1).unwrap().unwrap().x, 1.0);
    }

    #[test]
    fn wal_disabled_store_round_trips() {
        let dir = tmpdir("nowal");
        let config = LsmConfig {
            wal: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        store.insert(Point::new(1, 1.0, 2.0, 0)).unwrap();
        assert_eq!(store.wal_path(), None);
        assert_eq!(store.io_stats().wal_appends, 0);
        store.flush().unwrap();
        drop(store);
        let store = LsmStore::open_with(&dir, config).unwrap();
        assert_eq!(store.point_get(0, 1).unwrap().unwrap().y, 2.0);
    }

    #[test]
    fn bulk_load_bypasses_wal_then_starts_one() {
        let d = toy_dataset();
        let store = LsmStore::bulk_load(tmpdir("bulkwal"), &d).unwrap();
        // No per-record WAL traffic during the load…
        assert_eq!(store.io_stats().wal_appends, 0);
        // …but the store is WAL-protected afterwards.
        assert!(store.wal_path().is_some());
    }

    #[test]
    fn disabled_cache_still_serves_reads() {
        let d = toy_dataset();
        let config = LsmConfig {
            cache_blocks: 0,
            ..LsmConfig::default()
        };
        let store = LsmStore::bulk_load_with(tmpdir("nocache"), &d, config).unwrap();
        conformance(&store, &d);
        // Re-reading the same snapshot never hits: nothing is retained.
        let before = store.io_stats();
        let _ = store.scan_snapshot(25).unwrap();
        let _ = store.scan_snapshot(25).unwrap();
        let s = store.io_stats().since(&before);
        assert_eq!(s.cache_hits, 0, "cache_blocks: 0 must disable caching");
        assert!(s.cache_misses > 0);
        assert_eq!(s.blocks_read, s.cache_misses, "every miss goes to disk");
    }
}
