//! Immutable sorted-string tables.
//!
//! An SSTable is one sorted run of `(key, value)` entries:
//!
//! ```text
//! ┌──────────────┬──────────────┬───────┬────────┐
//! │ data blocks  │ sparse index │ bloom │ footer │
//! └──────────────┴──────────────┴───────┴────────┘
//! data block: up to 4096 bytes of 24-byte entries (key u64 BE-order, x, y)
//! index row:  first_key u64 | offset u64 | len u32
//! footer:     index_off u64 | index_len u64 | bloom_off u64 | bloom_len u64
//!             | num_entries u64 | magic "K2SS"
//! ```
//!
//! The sparse index and bloom filter are small and held in memory; data
//! blocks are fetched through a shared [`BlockCache`].

use super::bloom::BloomFilter;
use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::{StoreError, StoreResult};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Data-block payload size in bytes.
pub const BLOCK_SIZE: usize = 4096;
/// Entry width: 8-byte key + 16-byte value.
pub const ENTRY_SIZE: usize = 8 + VAL_SIZE;

const MAGIC: &[u8; 4] = b"K2SS";
const FOOTER_SIZE: usize = 8 * 5 + 4;

/// Cache key: `(table id, block number)`.
type CacheKey = (u64, u32);

/// Default shard count for [`BlockCache::new`].
const DEFAULT_SHARDS: usize = 8;

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Slot {
    key: CacheKey,
    block: Arc<[u8]>,
    prev: usize,
    next: usize,
}

/// One lock-protected shard: a hash map into an intrusive doubly-linked
/// LRU list stored in a slot arena. Every operation — hit, replace,
/// insert, evict — is O(1); there is no full-map scan anywhere.
struct Shard {
    cap: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            map: HashMap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: CacheKey) -> Option<Arc<[u8]>> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i].block.clone())
    }

    fn insert(&mut self, key: CacheKey, block: Arc<[u8]>) {
        if let Some(&i) = self.map.get(&key) {
            // Replace in place: refresh the payload and recency. A
            // resident key must never cost another entry its slot.
            self.slots[i].block = block;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() >= self.cap {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    block,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    block,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn evict_tables(&mut self, ids: &[u64]) {
        // Collect victims first: can't mutate the list while iterating
        // the map. Work is proportional to this shard's residency, and
        // runs once per compaction — not once per table id ever minted.
        let victims: Vec<usize> = self
            .map
            .iter()
            .filter(|((t, _), _)| ids.contains(t))
            .map(|(_, &i)| i)
            .collect();
        for i in victims {
            self.unlink(i);
            self.map.remove(&self.slots[i].key);
            self.free.push(i);
        }
    }
}

/// Shared LRU cache of decoded data blocks, keyed by `(table id, block #)`.
///
/// The cache is sharded: each key hashes to one of N independently locked
/// shards, so concurrent readers (and the background compaction worker's
/// evictions) contend only when they touch the same shard. Within a shard
/// the LRU order lives in an intrusive doubly-linked list, making hits,
/// inserts and evictions O(1).
///
/// A capacity of `0` genuinely disables caching: every read goes to disk
/// and nothing is retained (there is no hidden minimum). The capacity is
/// split across shards, so the total resident block count never exceeds
/// the requested cap.
pub struct BlockCache {
    shards: Box<[Mutex<Shard>]>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl BlockCache {
    /// Cache holding at most `cap` blocks across the default shard count.
    /// `cap == 0` disables caching entirely.
    pub fn new(cap: usize) -> Self {
        Self::with_shards(cap, DEFAULT_SHARDS)
    }

    /// Cache holding at most `cap` blocks across (up to) `shards` shards.
    /// Exposed so tests can pin LRU behaviour with a single shard.
    pub fn with_shards(cap: usize, shards: usize) -> Self {
        if cap == 0 {
            return Self {
                shards: Box::from([]),
            };
        }
        // Never hand a shard a zero cap: that would make some keys
        // uncacheable. With fewer blocks than shards, shrink the shard
        // count instead.
        let n = shards.clamp(1, cap);
        let shards: Vec<Mutex<Shard>> = (0..n)
            .map(|i| {
                let per = cap / n + usize::from(i < cap % n);
                Mutex::new(Shard::new(per))
            })
            .collect();
        Self {
            shards: shards.into(),
        }
    }

    fn shard_for(&self, key: CacheKey) -> &Mutex<Shard> {
        // Mix table id and block index so consecutive blocks of one
        // table spread across shards (fnv-1a over both words).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.0.to_le_bytes().iter().chain(&key.1.to_le_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    fn get(&self, key: CacheKey) -> Option<Arc<[u8]>> {
        if self.shards.is_empty() {
            return None;
        }
        self.shard_for(key)
            .lock()
            .expect("cache shard lock")
            .get(key)
    }

    fn insert(&self, key: CacheKey, block: Arc<[u8]>) {
        if self.shards.is_empty() {
            return;
        }
        self.shard_for(key)
            .lock()
            .expect("cache shard lock")
            .insert(key, block);
    }

    /// Drops every cached block belonging to the given table ids (after a
    /// compaction retires its inputs). Scans each shard's residents once,
    /// regardless of how many ids the store has ever minted.
    pub fn evict_tables(&self, ids: &[u64]) {
        for shard in self.shards.iter() {
            shard.lock().expect("cache shard lock").evict_tables(ids);
        }
    }

    /// Drops every cached block belonging to table `id`.
    pub fn evict_table(&self, id: u64) {
        self.evict_tables(&[id]);
    }

    /// Number of blocks currently resident (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether caching is enabled (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        !self.shards.is_empty()
    }
}

/// Streaming writer producing one SSTable from keys fed in ascending order.
pub struct SsTableWriter {
    path: PathBuf,
    out: BufWriter<File>,
    block: Vec<u8>,
    block_first_key: Option<u64>,
    index: Vec<(u64, u64, u32)>,
    bloom: BloomFilter,
    offset: u64,
    num_entries: u64,
    last_key: Option<u64>,
}

impl SsTableWriter {
    /// Creates a writer; `expected_entries` sizes the bloom filter.
    pub fn create(
        path: impl AsRef<Path>,
        expected_entries: usize,
        bloom_bits_per_key: usize,
    ) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let out = BufWriter::new(File::create(&path)?);
        Ok(Self {
            path,
            out,
            block: Vec::with_capacity(BLOCK_SIZE),
            block_first_key: None,
            index: Vec::new(),
            bloom: BloomFilter::with_capacity(expected_entries, bloom_bits_per_key),
            offset: 0,
            num_entries: 0,
            last_key: None,
        })
    }

    /// Appends an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: u64, val: &[u8; VAL_SIZE]) -> StoreResult<()> {
        if let Some(last) = self.last_key {
            if key <= last {
                return Err(StoreError::Corrupt(format!(
                    "SSTable keys out of order: {key} after {last}"
                )));
            }
        }
        self.last_key = Some(key);
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key);
        }
        self.block.extend_from_slice(&key.to_be_bytes());
        self.block.extend_from_slice(val);
        self.num_entries += 1;
        if self.block.len() + ENTRY_SIZE > BLOCK_SIZE {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> StoreResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let first = self.block_first_key.expect("non-empty block");
        self.index
            .push((first, self.offset, self.block.len() as u32));
        self.out.write_all(&self.block)?;
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_first_key = None;
        Ok(())
    }

    /// Records a key in the bloom filter (done automatically by `add`;
    /// exposed for tests).
    pub fn note_bloom(&mut self, key: u64) {
        self.bloom.insert(key);
    }

    /// Finishes the table: writes index, bloom and footer.
    pub fn finish(mut self) -> StoreResult<PathBuf> {
        self.flush_block()?;
        let index_off = self.offset;
        let mut index_bytes = Vec::with_capacity(self.index.len() * 20);
        for (first, off, len) in &self.index {
            index_bytes.extend_from_slice(&first.to_be_bytes());
            index_bytes.extend_from_slice(&off.to_le_bytes());
            index_bytes.extend_from_slice(&len.to_le_bytes());
        }
        self.out.write_all(&index_bytes)?;
        let bloom_off = index_off + index_bytes.len() as u64;
        let bloom_bytes = self.bloom.to_bytes();
        self.out.write_all(&bloom_bytes)?;
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&(bloom_bytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&self.num_entries.to_le_bytes());
        footer.extend_from_slice(MAGIC);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(self.path)
    }
}

impl SsTableWriter {
    /// Convenience: `add` + bloom in one call (the normal write path).
    pub fn put(&mut self, key: u64, val: &[u8; VAL_SIZE]) -> StoreResult<()> {
        self.bloom.insert(key);
        self.add(key, val)
    }
}

/// Reader over one immutable SSTable.
#[derive(Debug)]
pub struct SsTableReader {
    id: u64,
    file: File,
    index: Vec<(u64, u64, u32)>,
    bloom: BloomFilter,
    num_entries: u64,
    /// Smallest and largest key, read once at open (`None` when empty):
    /// the fence every point lookup checks before the bloom filter.
    key_range: Option<(u64, u64)>,
    cache: Arc<BlockCache>,
    io: Arc<IoCounters>,
}

impl SsTableReader {
    /// Opens a table; `id` must be unique per open store (cache keying).
    pub fn open(
        path: impl AsRef<Path>,
        id: u64,
        cache: Arc<BlockCache>,
        io: Arc<IoCounters>,
    ) -> StoreResult<Self> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len < FOOTER_SIZE as u64 {
            return Err(StoreError::Corrupt("SSTable too small".into()));
        }
        let mut footer = [0u8; FOOTER_SIZE];
        file.read_exact_at(&mut footer, len - FOOTER_SIZE as u64)?;
        if &footer[40..44] != MAGIC {
            return Err(StoreError::Corrupt("bad SSTable magic".into()));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().expect("8"));
        let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8"));
        let bloom_off = u64::from_le_bytes(footer[16..24].try_into().expect("8"));
        let bloom_len = u64::from_le_bytes(footer[24..32].try_into().expect("8"));
        let num_entries = u64::from_le_bytes(footer[32..40].try_into().expect("8"));

        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_bytes, index_off)?;
        if index_len % 20 != 0 {
            return Err(StoreError::Corrupt("bad SSTable index length".into()));
        }
        let index: Vec<(u64, u64, u32)> = index_bytes
            .chunks_exact(20)
            .map(|row| {
                let first = u64::from_be_bytes(row[0..8].try_into().expect("8"));
                let off = u64::from_le_bytes(row[8..16].try_into().expect("8"));
                let blen = u32::from_le_bytes(row[16..20].try_into().expect("4"));
                (first, off, blen)
            })
            .collect();

        let mut bloom_bytes = vec![0u8; bloom_len as usize];
        file.read_exact_at(&mut bloom_bytes, bloom_off)?;
        let bloom = BloomFilter::from_bytes(&bloom_bytes)
            .ok_or_else(|| StoreError::Corrupt("bad SSTable bloom filter".into()))?;

        // The largest key opens the last entry of the last data block.
        let key_range = match (index.first(), index.last()) {
            (Some(&(first, _, _)), Some(&(_, off, len))) => {
                let last_off = (off + u64::from(len))
                    .checked_sub(ENTRY_SIZE as u64)
                    .ok_or_else(|| StoreError::Corrupt("empty SSTable data block".into()))?;
                let mut last = [0u8; 8];
                file.read_exact_at(&mut last, last_off)?;
                Some((first, u64::from_be_bytes(last)))
            }
            _ => None,
        };

        Ok(Self {
            id,
            file,
            index,
            bloom,
            num_entries,
            key_range,
            cache,
            io,
        })
    }

    /// Table id (the store's flush/compaction sequence number).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of entries in the table.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Smallest key in the table (`None` for an empty table).
    pub fn min_key(&self) -> Option<u64> {
        self.key_range.map(|(lo, _)| lo)
    }

    /// Largest key in the table (`None` for an empty table), cached at
    /// open; recovery uses it to rebuild the store's time span without a
    /// record-by-record scan.
    pub fn max_key(&self) -> Option<u64> {
        self.key_range.map(|(_, hi)| hi)
    }

    /// Can any key in `[lo, hi]` be in this table, by its key range?
    pub(crate) fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.key_range
            .is_some_and(|(min, max)| lo <= max && min <= hi)
    }

    /// May `key` be present according to the bloom filter?
    pub fn may_contain(&self, key: u64) -> bool {
        self.bloom.may_contain(key)
    }

    /// Index of the block that could contain `key` (last block whose first
    /// key is `<= key`), or `None` if `key` precedes the table.
    fn block_for(&self, key: u64) -> Option<usize> {
        let pos = self.index.partition_point(|&(first, _, _)| first <= key);
        pos.checked_sub(1)
    }

    /// Fetches one data block, accounting the access (cache hit/miss,
    /// seek, bytes) into `io` instead of the table's own counters. The
    /// block still goes through the shared [`BlockCache`] — a pinned
    /// snapshot reader and the owning store populate and hit the same
    /// cache entries; only the attribution differs.
    fn read_block_with(&self, block_idx: usize, io: &IoCounters) -> StoreResult<Arc<[u8]>> {
        let cache_key = (self.id, block_idx as u32);
        if let Some(b) = self.cache.get(cache_key) {
            io.add_cache_hit();
            return Ok(b);
        }
        io.add_cache_miss();
        let (_, off, len) = self.index[block_idx];
        // One allocation: the file is read straight into the shared
        // block, not into a scratch `Vec` that is then copied.
        let mut block: Arc<[u8]> = std::iter::repeat_n(0u8, len as usize).collect();
        let buf = Arc::get_mut(&mut block).expect("a fresh block is unshared");
        self.file.read_exact_at(buf, off)?;
        io.add_seek();
        io.add_block_read(len as u64);
        self.cache.insert(cache_key, block.clone());
        Ok(block)
    }

    /// Point lookup of one key (a one-key point-cursor batch).
    pub fn get(&self, key: u64) -> StoreResult<Option<[u8; VAL_SIZE]>> {
        self.point_cursor(&self.io).get(key)
    }

    /// A point-lookup cursor for one ascending key batch, with block
    /// fetches accounted into `io` (the table's own counters, or a pin's).
    pub(crate) fn point_cursor<'a>(&'a self, io: &'a IoCounters) -> PointCursor<'a> {
        PointCursor {
            table: self,
            io,
            held: None,
        }
    }

    /// Cursor positioned at the first entry with key `>= key`.
    pub fn iter_from(&self, key: u64) -> SsTableIter<'_> {
        self.iter_from_with(key, &self.io)
    }

    /// [`iter_from`](Self::iter_from) with block fetches accounted into
    /// `io` — the per-pin scan path (see
    /// `read_block_with`).
    pub fn iter_from_with<'a>(&'a self, key: u64, io: &'a IoCounters) -> SsTableIter<'a> {
        let (block_idx, entry_idx) = match self.block_for(key) {
            None => (0, 0),
            Some(bi) => (bi, usize::MAX), // entry index resolved lazily
        };
        SsTableIter {
            table: self,
            io,
            block_idx,
            entry_idx,
            seek_key: key,
            current: None,
        }
    }
}

/// Forward cursor over an SSTable.
pub struct SsTableIter<'a> {
    table: &'a SsTableReader,
    /// Where this cursor's block fetches are accounted (the table's own
    /// counters, or a pin's).
    io: &'a IoCounters,
    block_idx: usize,
    entry_idx: usize,
    seek_key: u64,
    current: Option<Arc<[u8]>>,
}

impl SsTableIter<'_> {
    /// Next entry, or `None` at end of table.
    pub fn next(&mut self) -> StoreResult<Option<(u64, [u8; VAL_SIZE])>> {
        loop {
            if self.block_idx >= self.table.index.len() {
                return Ok(None);
            }
            if self.current.is_none() {
                let block = self.table.read_block_with(self.block_idx, self.io)?;
                if self.entry_idx == usize::MAX {
                    // First positioning: binary search for seek_key.
                    self.entry_idx = lower_bound(&block, 0, self.seek_key);
                }
                self.current = Some(block);
            }
            let block = self.current.as_ref().expect("set above");
            let n = block.len() / ENTRY_SIZE;
            if self.entry_idx >= n {
                self.block_idx += 1;
                self.entry_idx = 0;
                self.current = None;
                continue;
            }
            let entry = (
                entry_key(block, self.entry_idx),
                entry_val(block, self.entry_idx),
            );
            self.entry_idx += 1;
            return Ok(Some(entry));
        }
    }
}

/// Key of entry `i` of a data block.
fn entry_key(block: &[u8], i: usize) -> u64 {
    let off = i * ENTRY_SIZE;
    u64::from_be_bytes(block[off..off + 8].try_into().expect("8"))
}

/// Value of entry `i` of a data block.
fn entry_val(block: &[u8], i: usize) -> [u8; VAL_SIZE] {
    let off = i * ENTRY_SIZE + 8;
    block[off..off + VAL_SIZE].try_into().expect("val")
}

/// Position of the first entry at or after `from` whose key is `>= key`.
fn lower_bound(block: &[u8], from: usize, key: u64) -> usize {
    let (mut lo, mut hi) = (from, block.len() / ENTRY_SIZE);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry_key(block, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The block a [`PointCursor`] holds: its data, the first key past it
/// (`u64::MAX` for the table's last block) and where the in-block search
/// resumes.
struct HeldBlock {
    data: Arc<[u8]>,
    end: u64,
    pos: usize,
}

/// Point lookups over one table for keys that arrive in ascending order
/// (one `multi_get` batch).
///
/// A key outside the table's key range touches neither the bloom filter
/// nor a block. Otherwise the cursor answers from the block it holds
/// while that block still covers the key, with no cache lookup and no
/// bloom probe; only before fetching a new block does it ask the bloom
/// filter. The answers equal one independent lookup per key: the held
/// block is exactly the block that lookup would read.
pub(crate) struct PointCursor<'a> {
    table: &'a SsTableReader,
    io: &'a IoCounters,
    held: Option<HeldBlock>,
}

impl PointCursor<'_> {
    /// Value stored under `key`; keys must not descend across calls.
    pub(crate) fn get(&mut self, key: u64) -> StoreResult<Option<[u8; VAL_SIZE]>> {
        let table = self.table;
        if !table.overlaps(key, key) {
            return Ok(None);
        }
        let held = match &mut self.held {
            Some(held) if key < held.end => held,
            _ => {
                if !table.bloom.may_contain(key) {
                    self.io.add_bloom_negative();
                    return Ok(None);
                }
                let idx = table
                    .block_for(key)
                    .expect("key is at or past the first key");
                self.held.insert(HeldBlock {
                    data: table.read_block_with(idx, self.io)?,
                    end: table
                        .index
                        .get(idx + 1)
                        .map_or(u64::MAX, |&(first, _, _)| first),
                    pos: 0,
                })
            }
        };
        held.pos = lower_bound(&held.data, held.pos, key);
        let n = held.data.len() / ENTRY_SIZE;
        Ok((held.pos < n && entry_key(&held.data, held.pos) == key)
            .then(|| entry_val(&held.data, held.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoStats;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("k2sst-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn fixtures() -> (Arc<BlockCache>, Arc<IoCounters>) {
        (Arc::new(BlockCache::new(64)), Arc::new(IoCounters::new()))
    }

    fn build(name: &str, keys: impl Iterator<Item = u64>) -> PathBuf {
        let path = tmp(name);
        let mut w = SsTableWriter::create(&path, 1024, 10).unwrap();
        for k in keys {
            let val = [(k % 251) as u8; VAL_SIZE];
            w.put(k, &val).unwrap();
        }
        w.finish().unwrap()
    }

    fn block(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag; 8].into_boxed_slice())
    }

    #[test]
    fn replace_in_place_does_not_evict() {
        // Single shard so both keys share one LRU; the cache is full.
        let c = BlockCache::with_shards(2, 1);
        c.insert((1, 0), block(1));
        c.insert((1, 1), block(2));
        assert_eq!(c.len(), 2);
        // Re-inserting a resident key must replace, not evict a victim.
        c.insert((1, 0), block(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get((1, 0)).unwrap()[0], 3);
        assert!(c.get((1, 1)).is_some(), "replace evicted an innocent key");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = BlockCache::with_shards(2, 1);
        c.insert((1, 0), block(1));
        c.insert((1, 1), block(2));
        // Touch (1,0) so (1,1) becomes the LRU victim.
        assert!(c.get((1, 0)).is_some());
        c.insert((1, 2), block(3));
        assert_eq!(c.len(), 2);
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((1, 1)).is_none(), "LRU victim not evicted");
        assert!(c.get((1, 2)).is_some());
    }

    #[test]
    fn zero_cap_disables_caching() {
        let c = BlockCache::new(0);
        assert!(!c.is_enabled());
        c.insert((1, 0), block(1));
        assert!(c.get((1, 0)).is_none());
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        // And nothing in the eviction path panics on the empty shard set.
        c.evict_tables(&[1]);
    }

    #[test]
    fn small_caps_do_not_round_up() {
        // The old implementation silently clamped to >= 8 blocks.
        for cap in 1..=4usize {
            let c = BlockCache::new(cap);
            for i in 0..16u32 {
                c.insert((1, i), block(i as u8));
            }
            assert!(c.len() <= cap, "cap {cap} held {} blocks", c.len());
        }
    }

    #[test]
    fn evict_tables_only_touches_named_ids() {
        let c = BlockCache::with_shards(16, 1);
        for t in 1..=3u64 {
            for b in 0..3u32 {
                c.insert((t, b), block(t as u8));
            }
        }
        c.evict_tables(&[1, 3]);
        assert_eq!(c.len(), 3);
        for b in 0..3u32 {
            assert!(c.get((1, b)).is_none());
            assert!(c.get((2, b)).is_some(), "survivor table evicted");
            assert!(c.get((3, b)).is_none());
        }
        // Freed slots are reused rather than leaked.
        for b in 10..13u32 {
            c.insert((4, b), block(4));
        }
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let c = Arc::new(BlockCache::new(128));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for b in 0..64u32 {
                        c.insert((t, b), block(b as u8));
                        let _ = c.get((t, b));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert!(c.len() <= 128);
    }

    #[test]
    fn write_read_round_trip() {
        let path = build("roundtrip.k2ss", (0..5000u64).map(|i| i * 3));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 1, cache, io).unwrap();
        assert_eq!(r.num_entries(), 5000);
        assert_eq!(r.min_key(), Some(0));
        for k in [0u64, 3, 2997, 14997] {
            let v = r.get(k).unwrap().unwrap();
            assert_eq!(v[0], (k % 251) as u8);
        }
        assert_eq!(r.get(1).unwrap(), None);
        assert_eq!(r.get(15000).unwrap(), None);
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let mut w = SsTableWriter::create(tmp("order.k2ss"), 16, 10).unwrap();
        w.put(10, &[0; VAL_SIZE]).unwrap();
        assert!(w.put(10, &[0; VAL_SIZE]).is_err());
        assert!(w.put(5, &[0; VAL_SIZE]).is_err());
    }

    #[test]
    fn iter_from_scans_in_order() {
        let path = build("iter.k2ss", (0..1000u64).map(|i| i * 2));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 2, cache, io).unwrap();
        // Seek to key 501 -> first entry 502.
        let mut it = r.iter_from(501);
        let mut prev = None;
        let mut count = 0;
        while let Some((k, _)) = it.next().unwrap() {
            if let Some(p) = prev {
                assert!(k > p);
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 1000 - 251);
        assert_eq!(prev, Some(1998));
    }

    #[test]
    fn iter_from_before_table_start() {
        let path = build("iterstart.k2ss", 100..200u64);
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 3, cache, io).unwrap();
        let mut it = r.iter_from(0);
        assert_eq!(it.next().unwrap().unwrap().0, 100);
    }

    #[test]
    fn bloom_filter_skips_absent_keys() {
        let path = build("bloom.k2ss", (0..1000u64).map(|i| i * 1000));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 4, cache, io.clone()).unwrap();
        let mut skipped = 0;
        for k in 1..500u64 {
            // Keys not multiples of 1000: mostly bloom-rejected.
            let _ = r.get(k * 1000 + 1).unwrap();
        }
        skipped += io.snapshot().bloom_negatives;
        assert!(skipped > 400, "bloom skipped only {skipped}");
    }

    #[test]
    fn key_range_is_cached_at_open() {
        let path = build("range.k2ss", (0..5000u64).map(|i| i * 3 + 7));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 8, cache, io.clone()).unwrap();
        assert_eq!(r.min_key(), Some(7));
        assert_eq!(r.max_key(), Some(4999 * 3 + 7));
        assert_eq!(
            io.snapshot(),
            IoStats::default(),
            "open and max_key read no block"
        );
    }

    #[test]
    fn probes_outside_the_key_range_touch_neither_bloom_nor_block() {
        let path = build("fence.k2ss", (1000..2000u64).map(|i| i * 1000));
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 9, cache, io.clone()).unwrap();
        let mut below = r.point_cursor(&io);
        for k in (0..999_999u64).step_by(7) {
            assert_eq!(below.get(k).unwrap(), None);
        }
        let mut above = r.point_cursor(&io);
        for k in (1_999_001..2_999_000u64).step_by(7) {
            assert_eq!(above.get(k).unwrap(), None);
        }
        // Almost all of these keys fail the bloom filter, so consulting
        // it would count ~280k negatives; the fence answers first.
        let s = io.snapshot();
        assert_eq!(s.bloom_negatives, 0);
        assert_eq!(s.cache_hits + s.cache_misses, 0);
        assert_eq!(s.blocks_read, 0);
    }

    #[test]
    fn point_cursor_reuses_its_block_and_asks_bloom_only_before_a_fetch() {
        // Dense keys: 170 entries per block, so 0..1000 spans 6 blocks.
        let path = build("cursor.k2ss", 0..1000u64);
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 10, cache, io.clone()).unwrap();
        let per_block = (BLOCK_SIZE / ENTRY_SIZE) as u64;
        let blocks = 1000u64.div_ceil(per_block);
        let mut cursor = r.point_cursor(&io);
        for k in 0..1000u64 {
            let v = cursor.get(k).unwrap().unwrap();
            assert_eq!(v[0], (k % 251) as u8);
        }
        let s = io.snapshot();
        assert_eq!(s.cache_hits + s.cache_misses, blocks, "one fetch per block");
        assert_eq!(s.bloom_negatives, 0);
        // Keys absent inside a held block are answered from the block;
        // a fresh cursor on a sparse table sees the same answers.
        let sparse = build("cursor-sparse.k2ss", (0..1000u64).map(|i| i * 2));
        let r = SsTableReader::open(&sparse, 11, fixtures().0, io.clone()).unwrap();
        let mut cursor = r.point_cursor(&io);
        for k in 0..2000u64 {
            assert_eq!(cursor.get(k).unwrap().is_some(), k % 2 == 0, "key {k}");
            assert_eq!(r.get(k).unwrap().is_some(), k % 2 == 0, "key {k}");
        }
    }

    #[test]
    fn block_cache_hits_on_repeat_reads() {
        let path = build("cache.k2ss", 0..100u64);
        let (cache, io) = fixtures();
        let r = SsTableReader::open(&path, 5, cache, io.clone()).unwrap();
        let _ = r.get(50).unwrap();
        assert_eq!(io.snapshot().cache_misses, 1);
        let before = io.snapshot();
        let _ = r.get(51).unwrap();
        let after = io.snapshot().since(&before);
        assert_eq!(after.blocks_read, 0);
        assert_eq!(after.cache_misses, 0);
        assert!(after.cache_hits >= 1);
    }

    #[test]
    fn disabled_cache_reads_disk_every_time() {
        let path = build("nocache.k2ss", 0..100u64);
        let cache = Arc::new(BlockCache::new(0));
        let io = Arc::new(IoCounters::new());
        let r = SsTableReader::open(&path, 7, cache, io.clone()).unwrap();
        let _ = r.get(50).unwrap();
        let _ = r.get(51).unwrap();
        let s = io.snapshot();
        assert_eq!(s.blocks_read, 2, "cache_blocks: 0 must not cache");
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 2);
    }

    #[test]
    fn corrupt_footer_rejected() {
        let path = tmp("corrupt.k2ss");
        std::fs::write(&path, vec![7u8; 100]).unwrap();
        let (cache, io) = fixtures();
        assert!(matches!(
            SsTableReader::open(&path, 6, cache, io),
            Err(StoreError::Corrupt(_))
        ));
    }
}
