//! Hop-Window Mining Tree (§4.3, Algorithm 2).

use crate::benchpoints::{hop_window, hwmt_order};
use crate::ProbeScratch;
use k2_cluster::DbscanParams;
use k2_model::{Convoy, ObjectSet, Time, TimeInterval};
use k2_storage::{SnapshotSource, StoreResult};

/// Outcome of mining one hop-window.
#[derive(Debug)]
pub struct WindowResult {
    /// 1st-order spanning convoys, lifespan `[b_left, b_right]`.
    pub spanning: Vec<Convoy>,
    /// Points fetched from the store while re-clustering.
    pub points_fetched: u64,
    /// Timestamps actually probed (≤ window length thanks to early exit).
    pub timestamps_probed: u32,
}

/// Mines the 1st-order spanning convoys of the hop-window between
/// benchmark points `b_left` and `b_right` (Algorithm 2).
///
/// `cc` is the window's candidate cluster set `CCᵢ`. The candidates are
/// re-clustered at each window timestamp in binary-tree order; candidates
/// that fail to cluster are shed, and the whole window is abandoned as
/// soon as no candidate survives. Each surviving cluster becomes a
/// spanning convoy with lifespan `[b_left, b_right]` (the window's
/// bordering benchmark points, line 11 of Algorithm 2).
pub fn mine_window<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
) -> StoreResult<WindowResult> {
    mine_window_ordered(store, params, b_left, b_right, cc, hwmt_order)
}

/// [`mine_window`] with an explicit probe order — the ablation hook for
/// comparing the paper's binary-tree order against
/// [`linear_order`](crate::benchpoints::linear_order) (§4.3's
/// coincidental-togetherness heuristic).
pub fn mine_window_ordered<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
    order: impl Fn(TimeInterval) -> Vec<Time>,
) -> StoreResult<WindowResult> {
    mine_window_scratched(
        store,
        params,
        b_left,
        b_right,
        cc,
        order,
        &mut ProbeScratch::default(),
    )
}

/// [`mine_window_ordered`] reusing a caller-provided probe scratch — the
/// pipeline passes one scratch (buffers + set-interning pool) across all
/// its hop-windows so the steady state of the probe loop never allocates.
/// Each probed timestamp costs one store call for the union of the
/// surviving candidates; `points_fetched` still counts each candidate's
/// own restriction, so the Table 5 counters match per-candidate probing.
/// The candidate reclusters inside each probe filter distances through
/// the chunked kernel (`k2_cluster::dist2_filter_chunked`), the same
/// four-lane path the benchmark clustering uses.
pub(crate) fn mine_window_scratched<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
    order: impl Fn(TimeInterval) -> Vec<Time>,
    scratch: &mut ProbeScratch,
) -> StoreResult<WindowResult> {
    let lifespan = TimeInterval::new(b_left, b_right);
    let mut result = WindowResult {
        spanning: Vec::new(),
        points_fetched: 0,
        timestamps_probed: 0,
    };
    if cc.is_empty() {
        return Ok(result);
    }
    let mut survivors: Vec<ObjectSet> = cc.to_vec();
    if let Some(window) = hop_window(b_left, b_right) {
        for t in order(window) {
            result.timestamps_probed += 1;
            // One store call per probed timestamp: fetch `DB[t]|∪survivors`
            // once, then restrict it to each candidate — the same
            // restriction the slab path uses, so each candidate sees
            // exactly what its own `DB[t]|O` probe would return.
            scratch.fetch_union(store, t, &survivors)?;
            let mut next = Vec::with_capacity(survivors.len());
            for candidate in &survivors {
                let (clusters, fetched) = scratch.recluster_from_union(params, candidate);
                result.points_fetched += fetched;
                next.extend(clusters);
            }
            if next.is_empty() {
                // Line 7–8: no clusters at this timestamp — no convoy can
                // span the window; stop descending the tree.
                return Ok(result);
            }
            survivors = next;
        }
    }
    // Degenerate window (h = 1, adjacent benchmarks): the candidate
    // clusters themselves already span.
    result.spanning = survivors
        .into_iter()
        .map(|objects| Convoy::new(objects, lifespan))
        .collect();
    Ok(result)
}

/// One hop-window's worth of prefetched store data: `DB[t]|union(CCᵢ)`
/// for every *open-window* timestamp `t ∈ (b_left, b_right)`, one
/// oid-sorted column per timestamp.
///
/// The bounded prefetcher of
/// [`K2HopParallel`](crate::K2HopParallel) fills a ring of these on the
/// calling thread (store I/O is single-threaded) and hands them to the
/// HWMT workers; the column buffers are reused across temporal shards,
/// so peak memory is one shard's slabs, never the span.
#[derive(Debug, Default)]
pub(crate) struct WindowSlab {
    /// First open-window timestamp (`b_left + 1`); meaningless while
    /// `cols` is empty (degenerate `h = 1` windows fetch nothing).
    pub(crate) start: Time,
    /// One column per open-window timestamp, ascending from `start`.
    pub(crate) cols: Vec<Vec<k2_model::ObjPos>>,
}

impl WindowSlab {
    /// Logical bytes resident in this slab's columns.
    pub(crate) fn bytes(&self) -> u64 {
        let points: u64 = self.cols.iter().map(|c| c.len() as u64).sum();
        points * std::mem::size_of::<k2_model::ObjPos>() as u64
    }

    /// Fetches the slab for the window `(b_left, b_right)` restricted to
    /// the sorted id list `union`, reusing this slab's column buffers.
    /// Returns the number of points fetched.
    pub(crate) fn fill<S: SnapshotSource + ?Sized>(
        &mut self,
        store: &S,
        b_left: Time,
        b_right: Time,
        union: &[k2_model::Oid],
    ) -> StoreResult<u64> {
        let window = match hop_window(b_left, b_right) {
            Some(w) if !union.is_empty() => w,
            _ => {
                self.cols.clear();
                return Ok(0);
            }
        };
        self.start = window.start;
        let n = window.len() as usize;
        self.cols.truncate(n);
        self.cols.resize_with(n, Vec::new);
        let mut fetched = 0u64;
        for (col, t) in self.cols.iter_mut().zip(window.iter()) {
            store.multi_get_into(t, union, col)?;
            fetched += col.len() as u64;
        }
        Ok(fetched)
    }
}

/// [`mine_window_scratched`] probing a prefetched [`WindowSlab`] instead
/// of the store — the compute half of the bounded prefetcher.
///
/// Restricting a slab column (already `DB[t]|union(CCᵢ)`, oid-sorted) by
/// a candidate's ids equals restricting the full snapshot, because every
/// set HWMT probes is a subset of the window's candidate union — so the
/// output is bit-identical to probing the store, with zero I/O here.
pub(crate) fn mine_window_slab(
    slab: &WindowSlab,
    params: DbscanParams,
    b_left: Time,
    b_right: Time,
    cc: &[ObjectSet],
    scratch: &mut crate::validate::DatasetProbeScratch,
) -> Vec<Convoy> {
    use k2_cluster::recluster_with;
    if cc.is_empty() {
        return Vec::new();
    }
    let mut survivors: Vec<ObjectSet> = cc.to_vec();
    if let Some(window) = hop_window(b_left, b_right) {
        debug_assert_eq!(slab.start, window.start);
        debug_assert_eq!(slab.cols.len() as u32, window.len());
        for t in hwmt_order(window) {
            let col = &slab.cols[(t - slab.start) as usize];
            let mut next = Vec::with_capacity(survivors.len());
            for candidate in &survivors {
                scratch.positions.clear();
                k2_model::restrict_sorted_ids_into(col, candidate.ids(), &mut scratch.positions);
                next.extend(recluster_with(
                    &scratch.positions,
                    params,
                    &mut scratch.cluster,
                ));
            }
            if next.is_empty() {
                return Vec::new();
            }
            survivors = next;
        }
    }
    survivors
        .into_iter()
        .map(|objects| Convoy::from_parts(objects.ids(), b_left, b_right))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_model::{Dataset, Point};
    use k2_storage::InMemoryStore;

    /// Builds the paper's Figure 6 dataset: benchmarks at t = 0 and t = 8,
    /// window [1, 7]. Objects a,b,c,d (0..3) stay together the whole time;
    /// x,y,z (20..22) are together at the benchmarks but scatter inside
    /// the window (coincidental togetherness).
    fn figure6() -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..=8u32 {
            for oid in 0..4u32 {
                pts.push(Point::new(oid, t as f64 * 10.0, oid as f64 * 0.5, t));
            }
            for (i, oid) in (20..23u32).enumerate() {
                // Together at t = 0 and t = 8 only.
                let spread = if t == 0 || t == 8 { 0.5 } else { 50.0 };
                pts.push(Point::new(
                    oid,
                    500.0 + i as f64 * spread,
                    t as f64 * 3.0,
                    t,
                ));
            }
        }
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    #[test]
    fn figure6_only_abcd_spans() {
        let store = figure6();
        let params = DbscanParams::new(3, 2.0);
        let cc = vec![ObjectSet::from([0, 1, 2, 3]), ObjectSet::from([20, 21, 22])];
        let res = mine_window(&store, params, 0, 8, &cc).unwrap();
        assert_eq!(res.spanning.len(), 1);
        assert_eq!(res.spanning[0].objects, ObjectSet::from([0, 1, 2, 3]));
        assert_eq!(res.spanning[0].lifespan, TimeInterval::new(0, 8));
        assert_eq!(res.timestamps_probed, 7);
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let store = figure6();
        let res = mine_window(&store, DbscanParams::new(3, 2.0), 0, 8, &[]).unwrap();
        assert!(res.spanning.is_empty());
        assert_eq!(res.timestamps_probed, 0);
        assert_eq!(res.points_fetched, 0);
    }

    #[test]
    fn early_exit_when_nothing_survives_root() {
        // Candidate objects that never cluster inside the window: the root
        // probe (t = 4) kills them and no further timestamp is touched.
        let store = figure6();
        let params = DbscanParams::new(3, 2.0);
        let cc = vec![ObjectSet::from([20, 21, 22])];
        let res = mine_window(&store, params, 0, 8, &cc).unwrap();
        assert!(res.spanning.is_empty());
        assert_eq!(res.timestamps_probed, 1, "root probe only");
    }

    #[test]
    fn adjacent_benchmarks_pass_candidates_through() {
        // h = 1: window empty, candidate clusters become spanning convoys.
        let store = figure6();
        let cc = vec![ObjectSet::from([0, 1, 2, 3])];
        let res = mine_window(&store, DbscanParams::new(3, 2.0), 3, 4, &cc).unwrap();
        assert_eq!(res.spanning.len(), 1);
        assert_eq!(res.spanning[0].lifespan, TimeInterval::new(3, 4));
        assert_eq!(res.timestamps_probed, 0);
    }

    #[test]
    fn candidate_splits_into_two_spanning_convoys() {
        // Six objects clustered at both benchmarks, but inside the window
        // they travel as two separate triples.
        let mut pts = Vec::new();
        for t in 0..=4u32 {
            for oid in 0..6u32 {
                let gap = if t == 0 || t == 4 || oid < 3 {
                    0.4
                } else {
                    100.0 // second triple far away, but internally tight
                };
                let base = if oid < 3 { 0.0 } else { gap };
                pts.push(Point::new(oid, base + (oid % 3) as f64 * 0.4, t as f64, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let params = DbscanParams::new(3, 0.5);
        let cc = vec![ObjectSet::from([0, 1, 2, 3, 4, 5])];
        let res = mine_window(&store, params, 0, 4, &cc).unwrap();
        assert_eq!(res.spanning.len(), 2);
        let mut objs: Vec<_> = res.spanning.iter().map(|c| c.objects.clone()).collect();
        objs.sort_by(|a, b| a.ids().cmp(b.ids()));
        assert_eq!(objs[0], ObjectSet::from([0, 1, 2]));
        assert_eq!(objs[1], ObjectSet::from([3, 4, 5]));
    }

    #[test]
    fn binary_order_beats_linear_on_mid_window_breaks() {
        // Candidates cluster everywhere except at the exact middle of the
        // window: the binary order dies at the root probe, the linear
        // order walks half the window first (§4.3's heuristic).
        let mut pts = Vec::new();
        for t in 0..=16u32 {
            let spread = if t == 8 { 60.0 } else { 0.4 };
            for oid in 0..3u32 {
                pts.push(Point::new(oid, oid as f64 * spread, 0.0, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let params = DbscanParams::new(3, 1.0);
        let cc = vec![ObjectSet::from([0, 1, 2])];
        let binary = mine_window(&store, params, 0, 16, &cc).unwrap();
        let linear =
            mine_window_ordered(&store, params, 0, 16, &cc, crate::benchpoints::linear_order)
                .unwrap();
        assert!(binary.spanning.is_empty());
        assert!(linear.spanning.is_empty());
        assert_eq!(binary.timestamps_probed, 1, "root probe kills it");
        assert_eq!(linear.timestamps_probed, 8, "linear walks to the break");
    }

    /// Algorithm 2 with one store probe per candidate per timestamp —
    /// the reference the union fetch must reproduce.
    fn per_candidate_probing(
        store: &InMemoryStore,
        params: DbscanParams,
        b_left: Time,
        b_right: Time,
        cc: &[ObjectSet],
    ) -> (Vec<ObjectSet>, u64, u32) {
        let mut scratch = ProbeScratch::default();
        let (mut survivors, mut fetched, mut probed) = (cc.to_vec(), 0u64, 0u32);
        for t in hwmt_order(hop_window(b_left, b_right).unwrap()) {
            probed += 1;
            let mut next = Vec::new();
            for candidate in &survivors {
                let (clusters, n) =
                    crate::recluster_at_with(store, params, t, candidate, &mut scratch).unwrap();
                fetched += n;
                next.extend(clusters);
            }
            if next.is_empty() {
                return (Vec::new(), fetched, probed);
            }
            survivors = next;
        }
        (survivors, fetched, probed)
    }

    #[test]
    fn union_fetch_equals_per_candidate_probing() {
        // Four disjoint candidates over a 17-timestamp window: one stays
        // together, one scatters at t = 5, one splits into two pairs for
        // the whole window, and one loses a member (absent from the store)
        // at odd timestamps but keeps three close together.
        let mut pts = Vec::new();
        for t in 0..=16u32 {
            let y = t as f64;
            for oid in 0..3u32 {
                pts.push(Point::new(oid, oid as f64 * 0.4, y, t));
            }
            for oid in 10..13u32 {
                let spread = if t == 5 { 80.0 } else { 0.4 };
                pts.push(Point::new(oid, 200.0 + oid as f64 * spread, y, t));
            }
            for oid in 20..24u32 {
                let gap = if (1..16).contains(&t) && oid >= 22 {
                    50.0
                } else {
                    0.0
                };
                pts.push(Point::new(oid, 400.0 + gap + oid as f64 * 0.4, y, t));
            }
            for oid in 30..34u32 {
                if oid == 33 && t % 2 == 1 {
                    continue;
                }
                pts.push(Point::new(oid, 600.0 + oid as f64 * 0.4, y, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let cc = vec![
            ObjectSet::from([0, 1, 2]),
            ObjectSet::from([10, 11, 12]),
            ObjectSet::from([20, 21, 22, 23]),
            ObjectSet::from([30, 31, 32, 33]),
        ];
        for params in [DbscanParams::new(2, 1.0), DbscanParams::new(3, 1.0)] {
            let res = mine_window(&store, params, 0, 16, &cc).unwrap();
            let (spanning, fetched, probed) = per_candidate_probing(&store, params, 0, 16, &cc);
            let got: Vec<ObjectSet> = res.spanning.iter().map(|c| c.objects.clone()).collect();
            assert_eq!(got, spanning, "{params:?}");
            assert!(!got.is_empty(), "{params:?}");
            assert_eq!(res.points_fetched, fetched, "{params:?}");
            assert_eq!(res.timestamps_probed, probed, "{params:?}");
        }
    }

    #[test]
    fn pruning_counts_only_candidate_points() {
        let store = figure6();
        let params = DbscanParams::new(3, 2.0);
        let cc = vec![ObjectSet::from([0, 1, 2, 3])];
        let res = mine_window(&store, params, 0, 8, &cc).unwrap();
        // 7 window timestamps × 4 candidate objects.
        assert_eq!(res.points_fetched, 28);
    }
}
