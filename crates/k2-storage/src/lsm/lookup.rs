//! Batched point lookups: the one read path behind `multi_get_into` and
//! `point_get` on both [`LsmStore`](super::LsmStore) and
//! [`StorePin`](super::StorePin).

use super::sstable::SsTableReader;
use super::store::{key_of, val_parts, Memtable};
use crate::iostats::IoCounters;
use crate::StoreResult;
use k2_model::{ObjPos, Oid, Time};
use std::sync::Arc;

/// The sources one lookup consults, newest first: the writer's active
/// memtable (absent for a pin), the frozen generations (oldest first in
/// the slice) and the SSTables (oldest first).
pub(crate) struct ReadSources<'a> {
    pub(crate) active: Option<&'a Memtable>,
    pub(crate) frozen: &'a [Arc<Memtable>],
    pub(crate) tables: &'a [Arc<SsTableReader>],
}

impl ReadSources<'_> {
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

    /// Newest version of one key, through the same path as a batch.
    pub(crate) fn point_get(
        &self,
        io: &IoCounters,
        t: Time,
        oid: Oid,
    ) -> StoreResult<Option<ObjPos>> {
        let mut out = Vec::with_capacity(1);
        self.multi_get_into(io, t, &[oid], &mut out)?;
        Ok(out.pop())
    }
}
