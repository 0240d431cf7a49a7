//! The work engines of the k/2-hop pipeline: the streamed, zero-copy
//! benchmark-clustering phase, the self-scheduled order-preserving
//! parallel map, and the two [`Executor`]s that run the per-item steps
//! (hop-windows, merged convoys, candidates) on top of it.

use crate::ProbeScratch;
use k2_cluster::{dbscan_with, DbscanParams, GridCounters, GridScratch};
use k2_model::{ObjPos, ObjectSet, Time};
use k2_storage::{SnapshotRef, SnapshotSource, StoreResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the benchmark-clustering phase hands back to the miners: the
/// per-benchmark cluster sets (in `bench` order), the number of points
/// scanned, and the grid-reuse counters harvested from every worker's
/// [`GridScratch`].
pub(crate) struct BenchClusters {
    /// Cluster sets per benchmark timestamp, in `bench` order.
    pub clusters: Vec<Vec<ObjectSet>>,
    /// Total points scanned across the benchmark snapshots.
    pub points: u64,
    /// Summed grid build/patch counters of the phase.
    pub grid: GridCounters,
}

/// How long the calling thread maps alone before it spawns helpers.
///
/// Spawning and joining one scoped thread costs about 35–40 µs (p50;
/// p99 about 110 µs) on a 2-core Linux container, while the short steps
/// of a small mine (intersect, extension) finish in 10–20 µs. A step that
/// is done within this budget never spawns; a longer one spawns its
/// helpers once and gives up at most the budget's worth of parallelism.
const SPAWN_AFTER: Duration = Duration::from_micros(100);

/// Maps `f` over `items` on up to `threads` workers, preserving order.
///
/// The calling thread is one of the workers. It starts alone and spawns
/// the other `threads - 1` only once the step has run for
/// [`SPAWN_AFTER`] and the items left look like at least as much work
/// again, so a step too small to pay for a thread runs sequentially.
///
/// Work is self-scheduled: each worker atomically claims the next
/// unprocessed index, so skewed items (hop-windows whose candidates die at
/// the root probe vs. windows that probe every timestamp) cannot strand
/// one thread with all the slow work the way static `chunks()`
/// partitioning would. Results are re-placed by index, so the output
/// order is identical to the sequential map. A worker's panic reaches the
/// caller with its original payload.
///
/// Every worker builds one context with `make_ctx` and reuses it across
/// all the items it claims — this is how per-worker scratch (probe
/// buffers, set pools) is threaded through without any locking.
pub(crate) fn self_scheduled_map<T, R, C>(
    threads: usize,
    items: &[T],
    make_ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let next = AtomicUsize::new(0);
    // Claims and maps one item; `false` once none is left.
    let claim = |ctx: &mut C, produced: &mut Vec<(usize, R)>| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            return false;
        };
        produced.push((i, f(ctx, item)));
        true
    };
    let helper = || {
        let mut ctx = make_ctx();
        let mut produced = Vec::new();
        while claim(&mut ctx, &mut produced) {}
        produced
    };
    let start = Instant::now();
    let produced = std::thread::scope(|scope| {
        let mut ctx = make_ctx();
        let mut produced = Vec::with_capacity(items.len());
        let mut helpers = Vec::new();
        while claim(&mut ctx, &mut produced) {
            if !helpers.is_empty() || threads <= 1 {
                continue;
            }
            // Spawn once the step has run for the budget, and only if the
            // items left, at the pace so far, will take as long again.
            let done = next.load(Ordering::Relaxed).min(items.len());
            let left = items.len() - done;
            let elapsed = start.elapsed().as_secs_f64();
            let budget = SPAWN_AFTER.as_secs_f64();
            if elapsed >= budget && elapsed * left as f64 >= budget * done as f64 {
                let spawn = (threads - 1).min(left);
                helpers = (0..spawn).map(|_| scope.spawn(helper)).collect();
            }
        }
        for handle in helpers {
            let theirs = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            produced.extend(theirs);
        }
        produced
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, r) in produced {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|o| o.expect("every index was claimed"))
        .collect()
}

/// Runs one per-item step of the pipeline over a source: maps `f` over
/// `items`, in order, and stops at the first error.
///
/// `f` takes the source as an argument instead of capturing it, so one
/// closure serves both executors and only [`FanOut`] needs `S: Sync`.
pub(crate) trait Executor<S: ?Sized> {
    fn map<T: Sync, R: Send>(
        &self,
        source: &S,
        items: &[T],
        f: impl Fn(&S, &mut ProbeScratch, &T) -> StoreResult<R> + Sync,
    ) -> StoreResult<Vec<R>>;
}

/// Runs every item on the calling thread with one [`ProbeScratch`] —
/// the executor for stores, whose buffer pools are not `Sync`.
pub(crate) struct Inline;

impl<S: SnapshotSource + ?Sized> Executor<S> for Inline {
    fn map<T: Sync, R: Send>(
        &self,
        source: &S,
        items: &[T],
        f: impl Fn(&S, &mut ProbeScratch, &T) -> StoreResult<R> + Sync,
    ) -> StoreResult<Vec<R>> {
        let mut scratch = ProbeScratch::default();
        items
            .iter()
            .map(|item| f(source, &mut scratch, item))
            .collect()
    }
}

/// Fans the items out over this many workers with
/// [`self_scheduled_map`], one [`ProbeScratch`] per worker — the
/// executor for resident sources.
pub(crate) struct FanOut(pub(crate) usize);

impl<S: SnapshotSource + Sync + ?Sized> Executor<S> for FanOut {
    fn map<T: Sync, R: Send>(
        &self,
        source: &S,
        items: &[T],
        f: impl Fn(&S, &mut ProbeScratch, &T) -> StoreResult<R> + Sync,
    ) -> StoreResult<Vec<R>> {
        self_scheduled_map(self.0, items, ProbeScratch::default, |scratch, item| {
            f(source, scratch, item)
        })
        .into_iter()
        .collect()
    }
}

/// Benchmark clustering over a fetched snapshot stream — step 1 of
/// [`K2Hop`](crate::K2Hop).
///
/// `fetch` resolves one benchmark timestamp to a [`SnapshotRef`], filling
/// the passed buffer only when the engine cannot share its storage (see
/// `SnapshotSource::scan_snapshot_ref`). Fetching stays on the calling
/// thread, in ascending time order (store I/O and its statistics are
/// single-threaded, so stores need not be `Sync`, and a sequential engine
/// such as the flat file never rewinds).
///
/// With more than one thread, the benchmark list is cut into one
/// contiguous **run** per worker, and the workers are spawned once for
/// the whole phase. Each worker clusters its run in time order with one
/// [`GridScratch`], so its [`GridState`](k2_cluster::GridState)
/// *patches* the grid from one snapshot to the next across the entire
/// run instead of rebuilding it. The calling thread streams snapshots to
/// the workers while they cluster, so fetching overlaps clustering:
///
/// * **Resident engines** ([`SnapshotRef::Shared`]) hand over an O(1)
///   `Arc` clone — no benchmark snapshot is ever copied.
/// * **Materialising engines** ([`SnapshotRef::Buffered`]) decode into
///   a ring of at most `threads × 8` recycled buffers: a worker sends
///   each buffer back once it has clustered it, and the fetcher waits
///   for a returned buffer when the ring is out, so peak memory stays
///   O(ring × population) however long the benchmark list is.
///
/// Output is identical at every thread count — DBSCAN depends only on
/// the exact neighbour sets, which the patched and the rebuilt grid both
/// answer — so the thread-count invariance the goldens pin is untouched.
/// A fetch error stops the stream: the workers drain what they were
/// sent, are joined, and the error is returned.
///
/// Returns a [`BenchClusters`]: cluster sets in `bench` order, points
/// scanned, and the phase's grid-reuse counters.
pub(crate) fn cluster_benchmark_snapshots<F>(
    threads: usize,
    bench: &[Time],
    params: DbscanParams,
    mut fetch: F,
) -> StoreResult<BenchClusters>
where
    F: for<'a> FnMut(Time, &'a mut Vec<ObjPos>) -> StoreResult<SnapshotRef<'a>>,
{
    // One contiguous run per worker, run lengths differing by at most one.
    let workers = threads.clamp(1, bench.len().max(1));
    let (base, extra) = (bench.len() / workers, bench.len() % workers);
    let runs: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|i| {
            let lo = i * base + i.min(extra);
            lo..lo + base + usize::from(i < extra)
        })
        .filter(|run| !run.is_empty())
        .collect();
    if runs.len() <= 1 {
        // Sequential: cluster each snapshot while it is still hot in
        // cache, reusing one scratch and one scan buffer across all —
        // one long run, so every adjacent pair is a patch candidate.
        let mut scratch = GridScratch::new();
        let mut buf = Vec::new();
        let mut points = 0u64;
        let mut clusters = Vec::with_capacity(bench.len());
        for &b in bench {
            let snapshot = fetch(b, &mut buf)?;
            points += snapshot.len() as u64;
            clusters.push(dbscan_with(&snapshot, params, &mut scratch));
        }
        return Ok(BenchClusters {
            clusters,
            points,
            grid: scratch.grid_counters(),
        });
    }

    let ring = threads * 8;
    std::thread::scope(|scope| {
        // Buffers come back on `free`; its capacity covers the whole
        // ring plus one panic signal per worker, so a send never blocks.
        let (free_tx, free_rx) = sync_channel::<Option<Vec<ObjPos>>>(ring + runs.len());
        let mut feeds = Vec::with_capacity(runs.len());
        let mut workers = Vec::with_capacity(runs.len());
        for run in &runs {
            // A feed holds at most its run, so the fetcher never waits on
            // a worker's queue; the buffer ring is what bounds memory.
            let (feed_tx, feed_rx) = sync_channel::<Fetched>(run.len());
            feeds.push(feed_tx);
            let free = PanicSignal(free_tx.clone());
            workers.push(scope.spawn(move || {
                let mut scratch = GridScratch::new();
                let mut clusters = Vec::new();
                for snapshot in feed_rx {
                    clusters.push(dbscan_with(snapshot.positions(), params, &mut scratch));
                    if let Fetched::Buffer(buf) = snapshot {
                        let _ = free.0.send(Some(buf));
                    }
                }
                (clusters, scratch.grid_counters())
            }));
        }
        drop(free_tx);

        let mut points = 0u64;
        let mut made = 0usize;
        let mut spare: Option<Vec<ObjPos>> = None;
        let mut stream = || -> StoreResult<()> {
            for (run, feed) in runs.iter().zip(&feeds) {
                for &b in &bench[run.clone()] {
                    let mut buf = match spare.take() {
                        Some(buf) => buf,
                        None if made < ring => {
                            made += 1;
                            Vec::new()
                        }
                        None => match free_rx.recv() {
                            Ok(Some(buf)) => buf,
                            // A worker died: stop feeding; its panic
                            // resurfaces when it is joined below.
                            _ => return Ok(()),
                        },
                    };
                    let snapshot = match fetch(b, &mut buf)? {
                        SnapshotRef::Shared(arc) => {
                            spare = Some(buf);
                            Fetched::Shared(arc)
                        }
                        SnapshotRef::Buffered(records) => {
                            // The records are the buffer's contents (the
                            // `Buffered` contract); an empty view may be a
                            // static slice, so trim to what it shows.
                            let len = records.len();
                            debug_assert!(len == 0 || records.as_ptr() == buf.as_ptr());
                            buf.truncate(len);
                            Fetched::Buffer(buf)
                        }
                    };
                    points += snapshot.positions().len() as u64;
                    if feed.send(snapshot).is_err() {
                        return Ok(()); // this run's worker died
                    }
                }
            }
            Ok(())
        };
        let streamed = stream();
        // Closing the feeds lets every worker finish; join them all
        // before reporting either outcome.
        drop(feeds);
        let mut clusters = Vec::with_capacity(bench.len());
        let mut grid = GridCounters::default();
        for worker in workers {
            let (run_clusters, counters) = worker
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            clusters.extend(run_clusters);
            grid.add(counters);
        }
        streamed?;
        Ok(BenchClusters {
            clusters,
            points,
            grid,
        })
    })
}

/// One benchmark snapshot on its way to a clustering worker.
enum Fetched {
    /// A resident engine's shared storage.
    Shared(Arc<[ObjPos]>),
    /// A ring buffer the engine decoded into; returned after clustering.
    Buffer(Vec<ObjPos>),
}

impl Fetched {
    fn positions(&self) -> &[ObjPos] {
        match self {
            Fetched::Shared(arc) => arc,
            Fetched::Buffer(buf) => buf,
        }
    }
}

/// A worker's handle on the buffer-return channel. If the worker panics,
/// dropping it sends `None`, which wakes a fetcher waiting for a buffer
/// the dead worker will never return.
struct PanicSignal(SyncSender<Option<Vec<ObjPos>>>);

impl Drop for PanicSignal {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.try_send(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step that makes helpers take part: item 0 outlasts the spawn
    /// budget, and afterwards the calling thread maps nothing until a
    /// helper has mapped an item. `helper_item` runs on the helpers.
    fn forced_fan_out<R: Send>(
        threads: usize,
        items: &[u32],
        helper_item: impl Fn(u32) -> R + Sync,
    ) -> Vec<R> {
        let caller = std::thread::current().id();
        let helped = std::sync::atomic::AtomicBool::new(false);
        self_scheduled_map(
            threads,
            items,
            || (),
            |_, &x| {
                if std::thread::current().id() != caller {
                    helped.store(true, Ordering::SeqCst);
                    return helper_item(x);
                }
                if x == 0 {
                    std::thread::sleep(SPAWN_AFTER * 2);
                } else {
                    while threads > 1 && !helped.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                helper_item(x)
            },
        )
    }

    #[test]
    fn preserves_order_for_any_thread_count() {
        let items: Vec<u32> = (0..97).collect();
        let expect: Vec<u32> = items.iter().map(|x| x * 3).collect();
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 4, 16, 128] {
            let got = forced_fan_out(threads, &items, |x| (x * 3, std::thread::current().id()));
            let values: Vec<u32> = got.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, expect, "{threads} threads");
            let helped = got.iter().any(|&(_, id)| id != caller);
            assert_eq!(helped, threads > 1, "{threads} threads");
        }
    }

    #[test]
    fn context_is_reused_within_a_worker() {
        // Sequential path: one context sees every item.
        let items = [1u32, 2, 3, 4];
        let sums = self_scheduled_map(
            1,
            &items,
            || 0u32,
            |acc, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(sums, vec![1, 3, 6, 10]);
    }

    #[test]
    fn benchmark_clustering_is_thread_count_invariant_and_zero_copy() {
        use k2_model::{Dataset, Point};
        use k2_storage::{InMemoryStore, SnapshotSource};

        let mut pts = Vec::new();
        for t in 0..30u32 {
            for oid in 0..12u32 {
                // Two tight groups plus wanderers.
                let (x, y) = match oid {
                    0..=3 => (t as f64, oid as f64 * 0.3),
                    4..=7 => (300.0 + t as f64, oid as f64 * 0.3),
                    _ => (oid as f64 * 50.0 + t as f64 * (oid - 6) as f64, 900.0),
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
        let params = DbscanParams::new(2, 1.0);
        let bench: Vec<Time> = (0..30).step_by(3).collect();

        let res = cluster_benchmark_snapshots(1, &bench, params, |t, buf| {
            store.scan_snapshot_ref(t, buf)
        })
        .unwrap();
        let (seq, seq_points) = (res.clusters, res.points);
        assert_eq!(seq.len(), bench.len());
        assert!(seq.iter().any(|c| !c.is_empty()));
        for threads in [2usize, 4, 64] {
            let par = cluster_benchmark_snapshots(threads, &bench, params, |t, buf| {
                store.scan_snapshot_ref(t, buf)
            })
            .unwrap();
            assert_eq!(par.clusters, seq, "{threads} threads");
            assert_eq!(par.points, seq_points, "{threads} threads");
        }
        // Every fetch above was served from shared storage: the in-memory
        // benchmark path performs zero snapshot copies.
        let io = store.io_stats();
        assert_eq!(io.snapshots_copied, 0);
        assert_eq!(io.snapshots_shared as usize, 4 * bench.len());

        // The buffered regime (disk-engine shape: records decoded into
        // the caller's buffer) and a mixed engine (shared prefix, then
        // buffered) must produce identical clusters — including when the
        // benchmark list is longer than the buffer ring (97 > threads * 8).
        let dataset = store.dataset();
        let long_bench: Vec<Time> = (0..30).cycle().take(97).collect();
        let res = cluster_benchmark_snapshots(2, &long_bench, params, |t, buf| {
            store.scan_snapshot_ref(t, buf)
        })
        .unwrap();
        let (shared_clusters, shared_points) = (res.clusters, res.points);
        let buffered = cluster_benchmark_snapshots(2, &long_bench, params, |t, buf| {
            buf.clear();
            buf.extend_from_slice(dataset.snapshot(t).map(|s| s.positions()).unwrap_or(&[]));
            Ok(k2_storage::SnapshotRef::Buffered(buf))
        })
        .unwrap();
        assert_eq!(buffered.clusters, shared_clusters);
        assert_eq!(buffered.points, shared_points);
        for switch_at in [0usize, 1, 40, 96] {
            let mut fetches = 0usize;
            let mixed = cluster_benchmark_snapshots(2, &long_bench, params, |t, buf| {
                fetches += 1;
                if fetches <= switch_at {
                    store.scan_snapshot_ref(t, buf)
                } else {
                    buf.clear();
                    buf.extend_from_slice(
                        dataset.snapshot(t).map(|s| s.positions()).unwrap_or(&[]),
                    );
                    Ok(k2_storage::SnapshotRef::Buffered(buf))
                }
            })
            .unwrap();
            assert_eq!(mixed.clusters, shared_clusters, "switch at {switch_at}");
            assert_eq!(mixed.points, shared_points, "switch at {switch_at}");
            assert_eq!(fetches, long_bench.len(), "no refetch at {switch_at}");
        }
    }

    /// A wandering-groups dataset inside a fixed bounding box (two
    /// anchor objects pin the corners), so the grid geometry never needs
    /// a retune and every rebuild counted is a run boundary.
    fn buffered_fixture() -> (k2_model::Dataset, Vec<Time>, DbscanParams) {
        use k2_model::{Dataset, Point};
        let mut pts = Vec::new();
        for t in 0..300u32 {
            for oid in 0..42u32 {
                let drift = (t as f64 * 0.7).sin() * 5.0;
                let (x, y) = match (oid, oid % 4) {
                    (40, _) => (0.0, 0.0),
                    (41, _) => (1000.0, 1000.0),
                    (_, 0 | 1) => (100.0 + t as f64 + drift, 100.0 + (oid / 4) as f64 * 0.4),
                    (_, 2) => (700.0 - t as f64, 300.0 + oid as f64 * 0.4 + drift),
                    _ => (
                        (oid as f64 * 37.0 + t as f64 * (oid % 7) as f64) % 990.0,
                        900.0,
                    ),
                };
                pts.push(Point::new(oid, x, y, t));
            }
        }
        let bench = (0..300).step_by(3).collect();
        (
            Dataset::from_points(&pts).unwrap(),
            bench,
            DbscanParams::new(3, 1.5),
        )
    }

    /// A buffered (disk-engine shaped) fetch: the records are decoded
    /// into the caller's buffer.
    fn buffered<'a>(
        dataset: &k2_model::Dataset,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        buf.clear();
        buf.extend_from_slice(dataset.snapshot(t).map(|s| s.positions()).unwrap_or(&[]));
        Ok(SnapshotRef::Buffered(buf))
    }

    #[test]
    fn streamed_phase_equals_sequential_and_patches_each_run() {
        let (dataset, bench, params) = buffered_fixture();
        let seq =
            cluster_benchmark_snapshots(1, &bench, params, |t, buf| buffered(&dataset, t, buf))
                .unwrap();
        assert!(seq.clusters.iter().any(|c| !c.is_empty()));
        assert_eq!(seq.grid.builds, 1, "one run, one build");
        for threads in [2usize, 4, 16] {
            let par = cluster_benchmark_snapshots(threads, &bench, params, |t, buf| {
                buffered(&dataset, t, buf)
            })
            .unwrap();
            assert_eq!(par.clusters, seq.clusters, "{threads} threads");
            assert_eq!(par.points, seq.points, "{threads} threads");
            // One grid per worker, patched across its whole run — the
            // benchmark list (100 points) is longer than the buffer
            // ring (threads × 8) at 2 and 4 threads.
            let runs = threads.min(bench.len()) as u64;
            assert!(par.grid.builds <= runs, "{threads} threads: {:?}", par.grid);
            assert_eq!(
                par.grid.builds + par.grid.patches,
                bench.len() as u64,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn fetch_error_midway_stops_the_stream_and_returns_it() {
        let (dataset, bench, params) = buffered_fixture();
        for threads in [2usize, 4, 16] {
            for fail_at in [0usize, 1, 17, 50, 99] {
                let mut fetches = 0usize;
                // The scope inside joins every worker before this returns,
                // so returning at all proves no worker was left blocked.
                let res = cluster_benchmark_snapshots(threads, &bench, params, |t, buf| {
                    fetches += 1;
                    if fetches > fail_at {
                        return Err(k2_storage::StoreError::Corrupt(format!("at {t}")));
                    }
                    buffered(&dataset, t, buf)
                });
                match res {
                    Err(k2_storage::StoreError::Corrupt(msg)) => {
                        assert_eq!(msg, format!("at {}", bench[fail_at]));
                    }
                    _ => panic!("{threads} threads, fail at {fail_at}: expected the fetch error"),
                }
                assert_eq!(fetches, fail_at + 1, "no fetch after the error");
            }
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        let items: Vec<u32> = (0..64).collect();
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            forced_fan_out(4, &items, |x| {
                if std::thread::current().id() != caller {
                    panic!("boom");
                }
                x
            })
        })
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(self_scheduled_map(8, &empty, || (), |_, &x: &u32| x).is_empty());
        assert_eq!(
            self_scheduled_map(8, &[7u32], || (), |_, &x| x + 1),
            vec![8]
        );
    }
}
