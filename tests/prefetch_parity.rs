//! Property tests for the store path of `K2Hop`: on random workloads,
//! mining any of the four storage engines at any thread count must equal
//! the resident dataset mine, and the hop-window fetches must stay within
//! one snapshot — HWMT holds one per-timestamp union fetch at a time, so
//! its peak is bounded by the largest snapshot, never the span.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::model::{Dataset, ObjPos, Point};
use k2hop::storage::{FlatFileStore, InMemoryStore, LsmStore, RelationalStore, SnapshotSource};
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    // A handful of objects over a few dozen timestamps, coordinates
    // coarse enough that DBSCAN at eps=1.5 finds real clusters.
    proptest::collection::vec((0u32..12, 0u32..36, 0i32..40, 0i32..40), 30..400).prop_map(|rows| {
        rows.into_iter()
            .map(|(oid, t, x, y)| Point::new(oid, x as f64 / 2.0, y as f64 / 2.0, t))
            .collect()
    })
}

fn tmp(salt: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "k2prefetchprops-{}-{:?}-{salt}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn windowed_prefetch_equals_resident_on_all_engines(
        points in points_strategy(),
        m in 2usize..4,
        k in 4u32..10,
    ) {
        let Some(dataset) = Dataset::from_points(&points) else {
            return Ok(());
        };
        let cfg = K2Config::new(m, k, 1.5).unwrap();
        let resident = ConvoyMiner::mine(&K2Hop::with_threads(cfg, 1), &dataset).unwrap();
        let bound = dataset.stats().max_snapshot_size as u64 * std::mem::size_of::<ObjPos>() as u64;
        prop_assert!(resident.stats.prefetch.prefetch_bytes_peak <= bound);

        let dir = tmp("engines");
        let store = InMemoryStore::new(dataset.clone());
        let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).unwrap();
        let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).unwrap();
        let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();
        let engines: [&dyn SnapshotSource; 4] = [&store, &flat, &btree, &lsm];

        for threads in [1usize, 3] {
            for source in engines {
                let miner = K2Hop::with_threads(cfg, threads);
                let outcome = ConvoyMiner::mine(&miner, source).unwrap();
                prop_assert_eq!(
                    &outcome.convoys, &resident.convoys,
                    "{} threads {}", source.name(), threads
                );
                // The peak is one union fetch: the same on every engine
                // and at every thread count, and within one snapshot.
                prop_assert_eq!(
                    outcome.stats.prefetch, resident.stats.prefetch,
                    "{} threads {}", source.name(), threads
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
