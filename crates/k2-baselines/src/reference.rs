//! Brute-force reference miner — ground truth for tests.
//!
//! Completely independent of the k/2-hop pipeline: no benchmark points, no
//! HWMT, no extension. It clusters **every** snapshot, sweeps for maximal
//! partially-connected convoys, then validates each with an exhaustive
//! recursion ([`validate_fc`]):
//!
//! * `(O, T)` is fully connected iff at every `t ∈ T` the restriction
//!   `DB[t]|O` clusters into exactly `{O}`;
//! * otherwise, every maximal FC sub-convoy is confined to either (a) a
//!   cluster of `DB[t]|O` at a broken timestamp `t` (it must sit inside
//!   one — adding objects only merges clusters), or (b) one of the two
//!   sub-intervals avoiding `t`. Recurse on all three and keep the
//!   maximal results.
//!
//! This is exponential in pathological cases but exact; test workloads are
//! small.

use crate::sweep::{snapshot_sweep, SeedRule};
use crate::BaselineResult;
use k2_cluster::{dbscan, DbscanParams};
use k2_model::{Convoy, ConvoySet, ObjectSet, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};

/// Mines all maximal fully-connected convoys by brute force.
pub fn mine<S: SnapshotSource + ?Sized>(
    store: &S,
    m: usize,
    k: u32,
    eps: f64,
) -> StoreResult<BaselineResult> {
    let params = DbscanParams::new(m, eps);
    let sweep = snapshot_sweep(store, params, k, SeedRule::EveryCluster)?;
    let pre_validation = sweep.convoys.len() as u32;
    let mut points = sweep.points_processed;
    let mut fc = ConvoySet::new();
    for cand in sweep.convoys {
        let found = validate_fc(store, params, k, &cand.objects, cand.lifespan, &mut points)?;
        fc.merge(found);
    }
    Ok(BaselineResult {
        convoys: fc.into_sorted_vec(),
        points_processed: points,
        pre_validation,
    })
}

/// Exhaustively finds all maximal FC convoys with objects ⊆ `objects`,
/// lifespan ⊆ `span`, length ≥ `k` (see module docs).
pub fn validate_fc<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    k: u32,
    objects: &ObjectSet,
    span: TimeInterval,
    points: &mut u64,
) -> StoreResult<ConvoySet> {
    let mut out = ConvoySet::new();
    if span.len() < k || objects.len() < params.min_pts {
        return Ok(out);
    }
    // Find the first broken timestamp, caching clusters along the way.
    let mut broken: Option<(u32, Vec<ObjectSet>)> = None;
    let mut posbuf = Vec::new();
    for t in span.iter() {
        store.multi_get_into(t, objects.ids(), &mut posbuf)?;
        *points += posbuf.len() as u64;
        let clusters = dbscan(&posbuf, params);
        let intact = clusters.len() == 1 && clusters[0] == *objects;
        if !intact {
            broken = Some((t, clusters));
            break;
        }
    }
    let Some((t, clusters)) = broken else {
        // Intact everywhere: (objects, span) is an FC convoy.
        out.update(Convoy::new(objects.clone(), span));
        return Ok(out);
    };
    // (a) FC convoys inside each cluster at the broken timestamp (they may
    // still span t).
    for c in &clusters {
        debug_assert!(c.len() < objects.len() || clusters.len() > 1);
        out.merge(validate_fc(store, params, k, c, span, points)?);
    }
    // (b) FC convoys of the full object set avoiding t.
    if t > span.start {
        let left = TimeInterval::new(span.start, t - 1);
        out.merge(validate_fc(store, params, k, objects, left, points)?);
    }
    if t < span.end {
        let right = TimeInterval::new(t + 1, span.end);
        out.merge(validate_fc(store, params, k, objects, right, points)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_model::{Dataset, Point};
    use k2_storage::InMemoryStore;

    const PARAMS: DbscanParams = DbscanParams {
        min_pts: 2,
        eps: 1.0,
    };

    fn store_of(pts: Vec<Point>) -> InMemoryStore {
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn clean_convoy_is_returned_whole() {
        let mut pts = Vec::new();
        for t in 0..8u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64 * 2.0, oid as f64 * 0.5, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 2, 4, 1.0).unwrap();
        assert_eq!(res.convoys, vec![Convoy::from_parts([0u32, 1, 2], 0, 7)]);
    }

    #[test]
    fn bridge_split_matches_fc_semantics() {
        // 0-1-2 chained through 1; at t >= 5, 1 leaves: {0,2} are then far
        // apart. FC convoys with k=3: {0,1,2} [0,4] only.
        let mut pts = Vec::new();
        for t in 0..8u32 {
            if t < 5 {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 0.9, 0.0, t));
                pts.push(Point::new(2, 1.8, 0.0, t));
            } else {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 70.0, 0.0, t));
                pts.push(Point::new(2, 1.8, 0.0, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 2, 3, 1.0).unwrap();
        assert_eq!(res.convoys, vec![Convoy::from_parts([0u32, 1, 2], 0, 4)]);
    }

    #[test]
    fn validate_fc_rejects_non_fc_and_finds_true_subconvoys() {
        // The §4.6 pattern: abcd connected through e at one timestamp.
        let mut pts = Vec::new();
        for t in 0..6u32 {
            if t == 3 {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 0.8, 0.0, t));
                pts.push(Point::new(2, 1.6, 0.0, t));
                pts.push(Point::new(4, 2.4, 0.0, t)); // e, the bridge
                pts.push(Point::new(3, 3.2, 0.0, t));
            } else {
                for oid in 0..5u32 {
                    pts.push(Point::new(oid, oid as f64 * 0.8, 0.0, t));
                }
            }
        }
        let store = store_of(pts);
        let mut points = 0;
        let out = validate_fc(
            &store,
            PARAMS,
            2,
            &ObjectSet::from([0, 1, 2, 3]),
            TimeInterval::new(0, 5),
            &mut points,
        )
        .unwrap();
        assert!(out.contains(&Convoy::from_parts([0u32, 1, 2], 0, 5)));
        assert!(out.contains(&Convoy::from_parts([0u32, 1, 2, 3], 0, 2)));
        assert!(out.contains(&Convoy::from_parts([0u32, 1, 2, 3], 4, 5)));
        assert!(!out.contains(&Convoy::from_parts([0u32, 1, 2, 3], 0, 5)));
    }

    #[test]
    fn too_short_span_returns_nothing() {
        let store = store_of(vec![Point::new(0, 0.0, 0.0, 0), Point::new(1, 0.5, 0.0, 0)]);
        let mut points = 0;
        let out = validate_fc(
            &store,
            PARAMS,
            5,
            &ObjectSet::from([0, 1]),
            TimeInterval::new(0, 0),
            &mut points,
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
