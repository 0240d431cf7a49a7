//! The one LSM read path: batched point lookups and merged snapshot
//! scans, served identically to [`LsmStore`](super::LsmStore) (sources
//! borrowed under its writer lock) and [`StorePin`](super::StorePin)
//! (sources held by its pinned state).

use super::sstable::{SsTableIter, SsTableReader};
use super::store::{key_of, key_parts, val_parts, Memtable};
use crate::iostats::IoCounters;
use crate::keys::VAL_SIZE;
use crate::StoreResult;
use k2_model::{ObjPos, Oid, Time, TimeInterval};
use std::sync::Arc;

/// The sources one read consults, newest first: the writer's active
/// memtable (absent for a pin), the frozen generations (oldest first in
/// the slice) and the SSTables (oldest first) — plus the time span they
/// cover.
pub(crate) struct ReadSources<'a> {
    pub(crate) active: Option<&'a Memtable>,
    pub(crate) frozen: &'a [Arc<Memtable>],
    pub(crate) tables: &'a [Arc<SsTableReader>],
    pub(crate) span: Option<(Time, Time)>,
}

impl ReadSources<'_> {
    /// The covered time span (an empty instant at 0 for an empty store).
    pub(crate) fn span(&self) -> TimeInterval {
        match self.span {
            Some((lo, hi)) => TimeInterval::new(lo, hi),
            None => TimeInterval::instant(0),
        }
    }

    /// Entries across every source. Counts versions, not unique keys;
    /// exact for the append-only workloads of the experiments.
    pub(crate) fn num_points(&self) -> u64 {
        self.tables.iter().map(|t| t.num_entries()).sum::<u64>()
            + self.frozen.iter().map(|m| m.len() as u64).sum::<u64>()
            + self.active.map_or(0, |m| m.len() as u64)
    }

    /// All positions at `t` into `out` (cleared first), newest version
    /// of each key winning, in oid order. Merged entries decode straight
    /// into the caller's buffer — no intermediate entry vector, no
    /// per-scan allocation.
    pub(crate) fn scan_into(
        &self,
        io: &IoCounters,
        t: Time,
        out: &mut Vec<ObjPos>,
    ) -> StoreResult<()> {
        io.add_range_query();
        io.add_snapshot_copied();
        out.clear();
        let (lo, hi) = (key_of(t, 0), key_of(t, Oid::MAX));
        let mut merge = MergeIter::over_tables(self.tables, lo, io)?;
        for generation in self.frozen {
            merge.add_mem(generation.range(lo..=hi));
        }
        if let Some(active) = self.active {
            merge.add_mem(active.range(lo..=hi));
        }
        while let Some((k, v)) = merge.next()? {
            if k > hi {
                break;
            }
            let (x, y) = val_parts(&v);
            out.push(ObjPos::new(key_parts(k).1, x, y));
        }
        Ok(())
    }

    /// Newest version of `DB[t]|oids` into `out`, in oid order.
    ///
    /// §5.2: "for fetching the data for HWMT, a point query is issued for
    /// each (timestamp, oid) pair." The batch's keys ascend (fixed `t`,
    /// sorted oids), so every source is walked once, in step with them:
    /// the active memtable as one range cursor, each SSTable whose key
    /// range meets the batch's as one [`PointCursor`] that reuses its
    /// block while the block still covers the next key. Newest wins:
    /// active memtable, then frozen generations newest first, then
    /// tables newest first.
    ///
    /// [`PointCursor`]: super::sstable::PointCursor
    pub(crate) fn multi_get_into(
        &self,
        io: &IoCounters,
        t: Time,
        oids: &[Oid],
        out: &mut Vec<ObjPos>,
    ) -> StoreResult<()> {
        debug_assert!(oids.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        let (Some(&first), Some(&last)) = (oids.first(), oids.last()) else {
            return Ok(());
        };
        io.add_point_queries(oids.len() as u64);
        let (lo, hi) = (key_of(t, first), key_of(t, last));
        let mut active = self.active.map(|m| m.range(lo..=hi).peekable());
        let mut tables: Vec<_> = self
            .tables
            .iter()
            .rev()
            .filter(|table| table.overlaps(lo, hi))
            .map(|table| table.point_cursor(io))
            .collect();
        for &oid in oids {
            let key = key_of(t, oid);
            let mut hit = active.as_mut().and_then(|mem| {
                while mem.next_if(|&(&k, _)| k < key).is_some() {}
                mem.next_if(|&(&k, _)| k == key).map(|(_, v)| *v)
            });
            if hit.is_none() {
                hit = self
                    .frozen
                    .iter()
                    .rev()
                    .find_map(|generation| generation.get(&key).copied());
            }
            if hit.is_none() {
                for table in &mut tables {
                    hit = table.get(key)?;
                    if hit.is_some() {
                        break;
                    }
                }
            }
            if let Some(v) = hit {
                let (x, y) = val_parts(&v);
                out.push(ObjPos::new(oid, x, y));
            }
        }
        Ok(())
    }
}

/// One merged `(key, value)` entry.
type Entry = (u64, [u8; VAL_SIZE]);
type MemRange<'a> = std::collections::btree_map::Range<'a, u64, [u8; VAL_SIZE]>;

/// K-way merging cursor over SSTable iterators plus any number of
/// memtable ranges. Sources are ranked by recency (higher = newer); for
/// duplicate keys only the newest version is emitted. Tables rank below
/// every memtable range; memtable ranges rank in the order they are
/// added (add frozen generations oldest first, the active memtable
/// last). Shared with the compaction module, whose merges rank inputs
/// the same way.
pub(crate) struct MergeIter<'a> {
    /// `(rank, head, cursor)` per table, ranks `0..tables.len()`.
    tables: Vec<(usize, Option<Entry>, SsTableIter<'a>)>,
    /// `(rank, cursor, head)` per memtable range, ranks continuing
    /// upward in add order.
    mems: Vec<(usize, MemRange<'a>, Option<Entry>)>,
    next_rank: usize,
}

impl<'a> MergeIter<'a> {
    /// Cursor over `tables` (oldest first) starting at `from`, with
    /// block fetches accounted into `io`.
    pub(crate) fn over_tables(
        tables: &'a [Arc<SsTableReader>],
        from: u64,
        io: &'a IoCounters,
    ) -> StoreResult<Self> {
        let mut v = Vec::with_capacity(tables.len());
        for (rank, t) in tables.iter().enumerate() {
            let mut it = t.iter_from_with(from, io);
            let head = it.next()?;
            v.push((rank, head, it));
        }
        Ok(Self {
            next_rank: tables.len(),
            tables: v,
            mems: Vec::new(),
        })
    }

    /// Adds a memtable range outranking the tables and every range
    /// added before it.
    pub(crate) fn add_mem(&mut self, mut range: MemRange<'a>) {
        let head = range.next().map(|(&k, v)| (k, *v));
        let rank = self.next_rank;
        self.next_rank += 1;
        self.mems.push((rank, range, head));
    }

    pub(crate) fn next(&mut self) -> StoreResult<Option<Entry>> {
        // Minimum key across all heads.
        let mut min_key: Option<u64> = None;
        for (_, head, _) in &self.tables {
            if let Some((k, _)) = head {
                min_key = Some(min_key.map_or(*k, |m: u64| m.min(*k)));
            }
        }
        for (_, _, head) in &self.mems {
            if let Some((k, _)) = head {
                min_key = Some(min_key.map_or(*k, |m: u64| m.min(*k)));
            }
        }
        let Some(key) = min_key else {
            return Ok(None);
        };
        // Newest version wins: every source holding the key advances,
        // the highest rank keeps the value.
        let mut best: Option<(usize, [u8; VAL_SIZE])> = None;
        for (rank, head, it) in &mut self.tables {
            if head.map(|(k, _)| k) == Some(key) {
                let (_, v) = head.expect("checked above");
                if best.is_none_or(|(r, _)| *rank > r) {
                    best = Some((*rank, v));
                }
                *head = it.next()?;
            }
        }
        for (rank, range, head) in &mut self.mems {
            if head.map(|(k, _)| k) == Some(key) {
                let (_, v) = head.expect("checked above");
                if best.is_none_or(|(r, _)| *rank > r) {
                    best = Some((*rank, v));
                }
                *head = range.next().map(|(&k, v)| (k, *v));
            }
        }
        Ok(best.map(|(_, v)| (key, v)))
    }
}
