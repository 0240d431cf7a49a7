//! Property tests for the LSM read path: a batched `multi_get_into`
//! must return exactly what one `point_get` per key returns — and what
//! the last-write-wins model holds — on a live `LsmStore` and on a
//! `StorePin`, whatever mix of tables, frozen memtable generations and
//! active memtable the keys live in.

use k2hop::model::{Oid, Point, Time};
use k2hop::storage::{LsmConfig, LsmStore, SnapshotSource};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<(Time, Oid), (f64, f64)>;

/// Entries per 4 KiB SSTable block (24-byte entries).
const PER_BLOCK: u32 = 4096 / 24;

/// One write round: random points over timestamps `2..10` and oids
/// `0..600`, so rounds overwrite each other's keys.
fn round_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((2u32..10, 0u32..600, -100i32..100, -100i32..100), 0..300).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(t, oid, x, y)| Point::new(oid, x as f64, y as f64, t))
                .collect()
        },
    )
}

/// Query batches: a timestamp (including ones before, between and after
/// every table's range) and arbitrary oids, some never written.
fn batches_strategy() -> impl Strategy<Value = Vec<(Time, Vec<Oid>)>> {
    proptest::collection::vec(
        (0u32..14, proptest::collection::vec(0u32..700, 0..400)),
        1..12,
    )
}

fn tmp(salt: u64) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("k2readprops-{}-{salt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A dense round: every oid below `2 * PER_BLOCK + 10` at timestamps 3
/// and 4, so each of those snapshots spans several SSTable blocks.
fn dense_round(seed: u64) -> Vec<Point> {
    let mut pts = Vec::new();
    for t in 3..5u32 {
        for oid in 0..2 * PER_BLOCK + 10 {
            let v = (u64::from(oid) * 31 + u64::from(t) * 17 + seed) % 200;
            pts.push(Point::new(oid, v as f64, -(v as f64), t));
        }
    }
    pts
}

fn write(store: &LsmStore, model: &mut Model, round: &[Point]) {
    for p in round {
        store.insert(*p).unwrap();
        model.insert((p.t, p.oid), (p.x, p.y));
    }
}

/// Batched, per-key and model answers agree for every batch.
fn check(source: &dyn SnapshotSource, model: &Model, batches: &[(Time, Vec<Oid>)]) {
    let mut got = Vec::new();
    for (t, oids) in batches {
        let mut oids = oids.clone();
        oids.sort_unstable();
        oids.dedup();
        source.multi_get_into(*t, &oids, &mut got).unwrap();
        let per_key: Vec<_> = oids
            .iter()
            .filter_map(|&oid| source.point_get(*t, oid).unwrap())
            .collect();
        assert_eq!(got, per_key, "{} t={t}", source.name());
        let want: Vec<(Oid, f64, f64)> = oids
            .iter()
            .filter_map(|&oid| model.get(&(*t, oid)).map(|&(x, y)| (oid, x, y)))
            .collect();
        let got: Vec<(Oid, f64, f64)> = got.iter().map(|p| (p.oid, p.x, p.y)).collect();
        assert_eq!(got, want, "{} t={t}", source.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlapping tables with overwrites, two frozen generations and a
    /// non-empty active memtable; batches that cross block boundaries,
    /// oids never written, and timestamps outside every table's range
    /// (the active round also writes timestamps 10 and 11, which no table
    /// or frozen generation holds).
    #[test]
    fn batched_lookup_equals_per_key_lookup(
        tables in proptest::collection::vec(round_strategy(), 1..4),
        frozen in proptest::collection::vec(round_strategy(), 2..3),
        active in round_strategy(),
        batches in batches_strategy(),
        salt in 0u64..1_000_000,
    ) {
        let dir = tmp(salt);
        let config = LsmConfig {
            memtable_entries: usize::MAX,
            max_tables: usize::MAX,
            background_compaction: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(&dir, config).unwrap();
        let mut model = Model::new();
        write(&store, &mut model, &dense_round(salt));
        store.flush().unwrap();
        for round in &tables {
            write(&store, &mut model, round);
            store.flush().unwrap();
        }
        let mut pin = None;
        for round in &frozen {
            write(&store, &mut model, round);
            pin = Some(store.pin_snapshot().unwrap());
        }
        let (pin, pinned) = (pin.expect("two frozen rounds"), model.clone());
        let late: Vec<Point> = active
            .iter()
            .map(|p| Point::new(p.oid, p.x, p.y, p.t + 2))
            .collect();
        write(&store, &mut model, &late);
        prop_assert!(store.num_tables() >= 2);

        // Whole dense snapshots too, so some batches surely span blocks.
        let mut all = batches.clone();
        all.push((3, (0..2 * PER_BLOCK + 10).collect()));
        all.push((4, (0..700).step_by(3).collect()));
        check(&store, &model, &all);
        check(&pin, &pinned, &all);
        drop((pin, store));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
