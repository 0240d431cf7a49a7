//! DCVal — the *original* fully-connected convoy validation of Yoon &
//! Shahabi, including its flaw.
//!
//! DCVal walks a candidate's lifespan once, re-clustering the candidate's
//! objects at each timestamp restricted to the current object set. When a
//! candidate shrinks (a cluster drops objects), the shrunken set **keeps
//! the inherited start time** — its connectivity at the already-passed
//! timestamps is *not* re-checked. §4.6 of the k/2-hop paper shows why
//! that is wrong: the dropped objects may have been the bridges that
//! connected the survivors earlier on. [`crate::reference::validate_fc`]
//! implements the corrected recursive validation.

use k2_cluster::{dbscan, DbscanParams};
use k2_model::{Convoy, ConvoySet};
use k2_storage::{SnapshotSource, StoreResult};

/// Runs original DCVal over `candidates`; returns the purported FC convoys
/// of length ≥ `k` (which may include false positives — see module docs)
/// along with the number of points read.
pub fn dcval_original<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    k: u32,
    candidates: impl IntoIterator<Item = Convoy>,
) -> StoreResult<(ConvoySet, u64)> {
    let mut out = ConvoySet::new();
    let mut points = 0u64;
    let mut posbuf = Vec::new();
    for cand in candidates {
        // Active sub-candidates: (objects, inherited start).
        let mut active: Vec<Convoy> = vec![Convoy::new(
            cand.objects.clone(),
            k2_model::TimeInterval::instant(cand.start()),
        )];
        for t in cand.lifespan.iter() {
            let mut next: ConvoySet = ConvoySet::new();
            for v in &active {
                store.multi_get_into(t, v.objects.ids(), &mut posbuf)?;
                points += posbuf.len() as u64;
                let clusters = dbscan(&posbuf, params);
                let mut intact = false;
                for c in &clusters {
                    if *c == v.objects {
                        intact = true;
                    }
                    // The flaw: the new (possibly smaller) set inherits
                    // ts(v) without re-validating earlier timestamps.
                    next.update(Convoy::from_parts(c.ids(), v.start(), t));
                }
                if !intact && v.end() >= v.start() && v.len() >= k {
                    out.update(v.clone());
                }
            }
            active = next.drain();
            if active.is_empty() {
                break;
            }
        }
        for v in active {
            if v.len() >= k {
                out.update(v);
            }
        }
    }
    Ok((out, points))
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

    /// Objects 0,1,2,3 where 3 is the bridge connecting 2 to {0,1} during
    /// [0,4]; from t = 5 the bridge leaves but 0,1,2 bunch up tightly.
    fn bridge_then_tight() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..10u32 {
            if t < 5 {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 0.8, 0.0, t));
                pts.push(Point::new(3, 1.6, 0.0, t)); // bridge
                pts.push(Point::new(2, 2.4, 0.0, t));
            } else {
                pts.push(Point::new(0, 0.0, 0.0, t));
                pts.push(Point::new(1, 0.5, 0.0, t));
                pts.push(Point::new(2, 1.0, 0.0, t));
                pts.push(Point::new(3, 60.0, 60.0, t)); // bridge gone
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn dcval_emits_the_false_positive_the_paper_describes() {
        let store = bridge_then_tight();
        // Candidate {0,1,2,3} over [0,9]. At t = 5 it shrinks to {0,1,2},
        // which DCVal lets keep start 0 — but over [0,4] the set {0,1,2}
        // is NOT fully connected (object 3 bridged 2 to the rest).
        let cand = Convoy::from_parts([0u32, 1, 2, 3], 0, 9);
        let (out, _) = dcval_original(&store, PARAMS, 6, vec![cand]).unwrap();
        let fp = Convoy::from_parts([0u32, 1, 2], 0, 9);
        assert!(
            out.contains(&fp),
            "expected the documented false positive, got {out:?}"
        );
    }

    #[test]
    fn dcval_accepts_genuinely_fc_candidate() {
        let store = bridge_then_tight();
        let cand = Convoy::from_parts([0u32, 1, 2, 3], 0, 4);
        let (out, _) = dcval_original(&store, PARAMS, 5, vec![cand.clone()]).unwrap();
        assert!(out.contains(&cand));
    }

    #[test]
    fn dcval_filters_short_output() {
        let store = bridge_then_tight();
        let cand = Convoy::from_parts([0u32, 1, 2, 3], 0, 4);
        let (out, _) = dcval_original(&store, PARAMS, 8, vec![cand]).unwrap();
        assert!(out.is_empty());
    }
}
