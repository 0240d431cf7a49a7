//! The k/2-hop pipeline (Algorithm 1).

use crate::benchpoints::{benchmark_points, hwmt_order};
use crate::candidates::candidate_clusters_pooled;
use crate::config::K2Config;
use crate::extend::{extend_directed, Direction};
use crate::hwmt::mine_window_scratched;
use crate::merge::merge_spanning;
use crate::miner::{ConvoyMiner, MineError, MineOutcome, MineStats};
use crate::par::{cluster_benchmark_snapshots, Executor, FanOut, Inline};
use crate::stats::{GridStats, PruningStats};
use crate::validate::validate_scratched;
use k2_model::{Convoy, ConvoySet, ObjectSet, Time};
use k2_storage::{SnapshotSource, StoreResult};
use std::time::Instant;

/// The k/2-hop miner. Construct with a validated [`K2Config`], then mine
/// any [`SnapshotSource`] (a storage engine or a bare dataset) through
/// [`ConvoyMiner::mine`].
///
/// `threads` workers share the run. Benchmark clustering — the only
/// full-snapshot work — always uses them: snapshots are fetched on the
/// calling thread and DBSCANed by the workers. Steps 2–6 are ordered maps
/// over independent items (hop-windows, merged convoys, candidates —
/// §4.3 notes that hop-windows are mined independently of one another),
/// and where they run depends on the source:
///
/// * a **resident** source ([`SnapshotSource::as_dataset`] returns the
///   dataset, which is `Sync`) fans each step out over the workers;
/// * any **other** source runs each step inline on the calling thread:
///   the disk engines' buffer pools are not `Sync`, and their probes stay
///   in the order of a single-threaded run.
///
/// Both executors make the same probes and count them the same way, so
/// convoys, [`PruningStats`] and the seven phase timings are comparable
/// across sources and thread counts. [`K2Hop::new`] sizes the worker
/// count to the machine; [`K2Hop::with_threads`] pins it (1 = fully
/// sequential).
#[derive(Debug, Clone, Copy)]
pub struct K2Hop {
    config: K2Config,
    threads: usize,
}

impl K2Hop {
    /// Creates a miner with one worker per available core.
    pub fn new(config: K2Config) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(config, threads)
    }

    /// Creates a miner with an explicit worker count (≥ 1; 1 runs the
    /// whole pipeline on the calling thread).
    pub fn with_threads(config: K2Config, threads: usize) -> Self {
        Self {
            config,
            threads: threads.max(1),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> K2Config {
        self.config
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Steps 2–6 of Algorithm 1 from the benchmark `clusters`, each
    /// per-item step run by `exec`:
    ///
    /// 2. intersect adjacent benchmark cluster sets into candidates,
    /// 3. HWMT every hop-window (spanning convoys),
    /// 4. DCM-merge into maximal spanning convoys,
    /// 5. extend right then left (discarding convoys shorter than `k`),
    /// 6. validate into maximal fully-connected convoys.
    fn finish<S, E>(
        &self,
        exec: &E,
        source: &S,
        bench: &[Time],
        clusters: &[Vec<ObjectSet>],
        stats: &mut MineStats,
    ) -> StoreResult<Vec<Convoy>>
    where
        S: SnapshotSource + ?Sized,
        E: Executor<S>,
    {
        let cfg = self.config;
        let params = cfg.dbscan();
        let span = source.span();
        let (timings, pruning) = (&mut stats.timings, &mut stats.pruning);

        // Step 2: candidate clusters per hop-window, interned through the
        // scratch's set pool.
        let t0 = Instant::now();
        let pairs: Vec<&[Vec<ObjectSet>]> = clusters.windows(2).collect();
        let ccs = exec.map(source, &pairs, |_, scratch, pair| {
            let pool = scratch.cluster.pool_mut();
            Ok(candidate_clusters_pooled(&pair[0], &pair[1], cfg.m, pool))
        })?;
        pruning.candidate_clusters = ccs.iter().map(|cc| cc.len() as u32).sum();
        timings.intersect = t0.elapsed();

        // Step 3: HWMT per window, one union fetch per probed timestamp.
        // The interning pool is rotated per window: the repeats that
        // matter (a candidate surviving every probe of its window) are
        // within-window, and clearing bounds the pool to one window's
        // distinct sets (outstanding handles stay valid through their
        // `Arc`s).
        let t0 = Instant::now();
        let windows: Vec<(&[Time], &Vec<ObjectSet>)> = bench.windows(2).zip(&ccs).collect();
        let mined = exec.map(source, &windows, |src, scratch, &(b, cc)| {
            scratch.cluster.pool_mut().clear();
            mine_window_scratched(src, params, b[0], b[1], cc, hwmt_order, scratch)
        })?;
        let mut spanning = Vec::with_capacity(mined.len());
        for window in mined {
            pruning.hwmt_points += window.points_fetched;
            pruning.spanning_convoys += window.spanning.len() as u32;
            let peak = &mut stats.prefetch.prefetch_bytes_peak;
            *peak = (*peak).max(window.peak_fetch_bytes);
            spanning.push(window.spanning);
        }
        timings.hwmt = t0.elapsed();

        // Step 4: merge into maximal spanning convoys.
        let t0 = Instant::now();
        let merged = merge_spanning(&spanning, cfg.m);
        pruning.merged_convoys = merged.len() as u32;
        timings.merge = t0.elapsed();

        // Step 5: extension — right over the merged set, then left (with
        // the k filter) over the right results.
        let t0 = Instant::now();
        let dir = Direction::Right(span.end);
        let right = extend_each(exec, source, merged, dir, cfg, &mut pruning.extend_points)?;
        timings.extend_right = t0.elapsed();

        let t0 = Instant::now();
        let dir = Direction::Left(span.start, cfg.k);
        let left = extend_each(exec, source, right, dir, cfg, &mut pruning.extend_points)?;
        timings.extend_left = t0.elapsed();
        pruning.pre_validation_convoys = left.len() as u32;

        // Step 6: validation per candidate, last to first (the order one
        // shared validation queue pops them in), with the results merged.
        let t0 = Instant::now();
        let mut candidates: Vec<Convoy> = left.into_iter().collect();
        candidates.reverse();
        let validated = exec.map(source, &candidates, |src, scratch, v| {
            validate_scratched(src, params, cfg.k, [v.clone()], scratch)
        })?;
        let mut fc = ConvoySet::new();
        for res in validated {
            pruning.validation_points += res.points_fetched;
            fc.merge(res.convoys);
        }
        timings.validation = t0.elapsed();
        Ok(fc.into_sorted_vec())
    }
}

/// One extension pass with one seed per item. Merging the per-seed result
/// sets in seed order builds exactly the set one pass over all the seeds
/// would, in the same insertion order.
fn extend_each<S, E>(
    exec: &E,
    source: &S,
    seeds: ConvoySet,
    dir: Direction,
    cfg: K2Config,
    fetched: &mut u64,
) -> StoreResult<ConvoySet>
where
    S: SnapshotSource + ?Sized,
    E: Executor<S>,
{
    let params = cfg.dbscan();
    let seeds: Vec<Convoy> = seeds.into_iter().collect();
    let passes = exec.map(source, &seeds, |src, scratch, seed| {
        extend_directed(src, params, [seed.clone()], dir, scratch)
    })?;
    let mut out = ConvoySet::new();
    for pass in passes {
        *fetched += pass.points_fetched;
        out.merge(pass.convoys);
    }
    Ok(out)
}

impl ConvoyMiner for K2Hop {
    fn engine_name(&self) -> &'static str {
        "k2hop"
    }

    fn mine(&self, source: &dyn SnapshotSource) -> Result<MineOutcome, MineError> {
        let cfg = self.config;
        let mut stats = MineStats {
            engine: self.engine_name(),
            threads: self.threads,
            timings: Default::default(),
            pruning: PruningStats {
                total_points: source.num_points(),
                ..PruningStats::default()
            },
            prefetch: Default::default(),
            grid: Default::default(),
        };
        let span = source.span();
        let mut convoys = Vec::new();
        // A span shorter than k holds no convoy.
        if span.len() >= cfg.k {
            // Step 1: benchmark clusters (the only full-snapshot scans),
            // always through the source itself: the in-memory store hands
            // out Arc-backed snapshot views, disk engines decode into a
            // bounded ring of reused buffers.
            let t0 = Instant::now();
            let bench = benchmark_points(span, cfg.hop());
            let step1 =
                cluster_benchmark_snapshots(self.threads, &bench, cfg.dbscan(), |t, buf| {
                    source.scan_snapshot_ref(t, buf)
                })?;
            stats.pruning.benchmark_points = step1.points;
            stats.pruning.benchmark_timestamps = bench.len() as u32;
            stats.grid = GridStats::from(step1.grid);
            stats.timings.benchmark = t0.elapsed();

            let clusters = &step1.clusters;
            convoys = match source.as_dataset() {
                Some(dataset) => {
                    self.finish(&FanOut(self.threads), dataset, &bench, clusters, &mut stats)
                }
                None => self.finish(&Inline, source, &bench, clusters, &mut stats),
            }?;
        }
        Ok(MineOutcome {
            convoys,
            stats,
            io: source.io_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_model::{Dataset, ObjectSet, Point, TimeInterval};
    use k2_storage::InMemoryStore;

    fn store_of(pts: Vec<Point>) -> InMemoryStore {
        InMemoryStore::new(Dataset::from_points(&pts).unwrap())
    }

    /// One clean convoy of three objects over the full span, two noise
    /// objects wandering.
    fn simple_convoy(len: u32) -> InMemoryStore {
        let mut pts = Vec::new();
        for t in 0..len {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 10..12u32 {
                pts.push(Point::new(
                    oid,
                    500.0 + oid as f64 * 100.0 + (t as f64 * (oid as f64 - 9.0) * 3.0),
                    700.0,
                    t,
                ));
            }
        }
        store_of(pts)
    }

    fn mine(store: &InMemoryStore, m: usize, k: u32, eps: f64) -> MineOutcome {
        ConvoyMiner::mine(&K2Hop::new(K2Config::new(m, k, eps).unwrap()), store).unwrap()
    }

    #[test]
    fn finds_a_full_span_convoy() {
        let store = simple_convoy(20);
        let res = mine(&store, 3, 8, 1.0);
        assert_eq!(res.convoys.len(), 1);
        let c = &res.convoys[0];
        assert_eq!(c.objects, ObjectSet::from([0, 1, 2]));
        assert_eq!(c.lifespan, TimeInterval::new(0, 19));
    }

    #[test]
    fn k_larger_than_span_yields_nothing() {
        let store = simple_convoy(5);
        let res = mine(&store, 3, 10, 1.0);
        assert!(res.convoys.is_empty());
    }

    #[test]
    fn m_larger_than_group_yields_nothing() {
        let store = simple_convoy(20);
        let res = mine(&store, 4, 8, 1.0);
        assert!(res.convoys.is_empty());
    }

    #[test]
    fn convoy_with_interior_bounds() {
        // Objects together only during [5, 16] of a span [0, 29].
        let mut pts = Vec::new();
        for t in 0..30u32 {
            for oid in 0..4u32 {
                let (x, y) = if (5..=16).contains(&t) {
                    (t as f64, oid as f64 * 0.4)
                } else {
                    (oid as f64 * 100.0 + t as f64 * (oid + 2) as f64, 300.0)
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 4, 6, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].lifespan, TimeInterval::new(5, 16));
        assert_eq!(res.convoys[0].objects.len(), 4);
    }

    #[test]
    fn two_disjoint_convoys() {
        let mut pts = Vec::new();
        for t in 0..24u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 5..8u32 {
                pts.push(Point::new(oid, t as f64, 1000.0 + oid as f64 * 0.4, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 10, 1.0);
        assert_eq!(res.convoys.len(), 2);
    }

    #[test]
    fn odd_k_works() {
        let store = simple_convoy(21);
        let res = mine(&store, 3, 7, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].len(), 21);
    }

    #[test]
    fn k_equals_two_degenerate_hop() {
        let store = simple_convoy(6);
        let res = mine(&store, 3, 2, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].len(), 6);
    }

    #[test]
    fn pruning_stats_reflect_benchmark_only_scans() {
        let store = simple_convoy(40);
        let res = mine(&store, 3, 20, 1.0);
        // hop = 10: benchmarks at 0, 10, 20, 30 — 4 timestamps of 5 points.
        assert_eq!(res.stats.pruning.benchmark_timestamps, 4);
        assert_eq!(res.stats.pruning.benchmark_points, 20);
        // Noise objects never enter HWMT: 3 candidate objects per probe.
        assert!(res.stats.pruning.hwmt_points <= 3 * 36);
    }

    #[test]
    fn pruning_dominates_on_noise_heavy_data() {
        // 3 convoy objects, 60 noise objects: the pruning ratio must be
        // high because only the convoy objects are ever fetched outside
        // benchmark timestamps.
        let mut pts = Vec::new();
        for t in 0..40u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
            for oid in 100..160u32 {
                pts.push(Point::new(
                    oid,
                    1000.0 + oid as f64 * 50.0 + t as f64 * (oid % 7 + 2) as f64,
                    oid as f64 * 17.0,
                    t,
                ));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 20, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert!(
            res.stats.pruning.pruning_ratio() > 0.7,
            "pruning ratio {} too low",
            res.stats.pruning.pruning_ratio()
        );
    }

    #[test]
    fn convoy_shorter_than_k_not_reported() {
        // Together for 7 timestamps, k = 8.
        let mut pts = Vec::new();
        for t in 0..20u32 {
            for oid in 0..3u32 {
                let (x, y) = if (5..12).contains(&t) {
                    (t as f64, oid as f64 * 0.4)
                } else {
                    (oid as f64 * 90.0 + t as f64 * (oid + 1) as f64, 500.0)
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 8, 1.0);
        assert!(res.convoys.is_empty(), "got {:?}", res.convoys);
    }

    #[test]
    fn bridge_object_breaks_full_connectivity() {
        // Five objects in a chain where object 2 is the middle link; when
        // it leaves at t >= 10, {0,1} and {3,4} remain as separate pairs
        // (never FC with each other without 2).
        let mut pts = Vec::new();
        for t in 0..20u32 {
            for oid in 0..5u32 {
                let (x, y) = if t < 10 || oid != 2 {
                    (oid as f64 * 0.9, t as f64 * 0.01)
                } else {
                    (300.0, 300.0) // bridge leaves
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 2, 12, 1.0);
        // FC convoys of length >= 12: {0,1} [0,19] and {3,4} [0,19].
        assert!(res.convoys.contains(&Convoy::from_parts([0u32, 1], 0, 19)));
        assert!(res.convoys.contains(&Convoy::from_parts([3u32, 4], 0, 19)));
        // {0,1,3,4} over the full span is NOT fully connected.
        assert!(!res
            .convoys
            .iter()
            .any(|c| c.objects == ObjectSet::from([0, 1, 3, 4])));
    }

    #[test]
    fn timings_are_populated() {
        let store = simple_convoy(30);
        let res = mine(&store, 3, 10, 1.0);
        assert!(res.stats.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn offset_time_range() {
        // Dataset starting at t = 1000.
        let mut pts = Vec::new();
        for t in 1000..1030u32 {
            for oid in 0..3u32 {
                pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
            }
        }
        let store = store_of(pts);
        let res = mine(&store, 3, 10, 1.0);
        assert_eq!(res.convoys.len(), 1);
        assert_eq!(res.convoys[0].lifespan, TimeInterval::new(1000, 1029));
    }
}
