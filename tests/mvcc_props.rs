//! MVCC properties of the LSM store: pinned snapshots are immutable
//! under any interleaving of {insert, flush, background compaction,
//! pin, mine, unpin}, and holding a pin never blocks the writer.
//!
//! The golden invariant: a mine run against a [`StorePin`] — even one
//! executed *after* the store has flushed, compacted and swapped states
//! many times — is byte-identical to mining a frozen copy of the store
//! taken at pin time.

use k2hop::model::{Dataset, Point};
use k2hop::storage::{LsmConfig, LsmStore, SnapshotSource, StorePin};
use k2hop::MiningSession;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<(u32, u32), (f64, f64)>;

fn tmp(name: &str, salt: u64) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("k2mvcc-{}-{name}-{salt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A frozen in-memory copy of the model, for mining comparison.
fn freeze(model: &Model) -> Option<Dataset> {
    if model.is_empty() {
        return None;
    }
    let points: Vec<Point> = model
        .iter()
        .map(|(&(t, oid), &(x, y))| Point::new(oid, x, y, t))
        .collect();
    Some(Dataset::from_points(&points).unwrap())
}

/// Asserts a pin reads exactly like the frozen copy of the store at its
/// pin instant: scans, probes, span, and a full mining run.
fn assert_pin_matches_frozen(pin: &StorePin, frozen: &Dataset) {
    assert_eq!(pin.span(), frozen.span(), "pinned span drifted");
    let span = frozen.span();
    for t in span.iter() {
        let got = pin.scan_snapshot(t).unwrap();
        let want = frozen
            .snapshot(t)
            .map(|s| s.positions().to_vec())
            .unwrap_or_default();
        assert_eq!(got, want, "pinned scan at t={t} drifted");
    }
    // Nothing newer leaked past the span end.
    assert!(pin.scan_snapshot(span.end + 1).unwrap().is_empty());
    // The mining outcome over the pin is byte-identical to mining the
    // frozen copy (m=2, k=2, generous eps: small random workloads still
    // produce convoys often enough to make the comparison meaningful).
    let session = MiningSession::with_params(2, 2, 60.0).unwrap();
    let from_pin = session.mine(pin).unwrap();
    let from_frozen = session.mine(frozen).unwrap();
    assert_eq!(
        from_pin.convoys, from_frozen.convoys,
        "pinned mine diverged from frozen-copy mine"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of writer ops and pins: every pin, verified
    /// at the *end* of the whole sequence (after all later inserts,
    /// flushes and compactions), still reads and mines exactly the
    /// store contents from its pin instant.
    #[test]
    fn pinned_mines_are_frozen_in_time(
        rows in proptest::collection::vec(
            (0u32..16, 0u32..24, -50i32..50, -50i32..50, 0u8..10),
            1..150,
        ),
        salt in 0u64..1_000_000,
    ) {
        let dir = tmp("interleave", salt);
        let config = LsmConfig {
            memtable_entries: 32,
            max_tables: 3,
            background_compaction: true,
            ..LsmConfig::default()
        };
        let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
        let mut model: Model = BTreeMap::new();
        // (pin, frozen copy at pin time), verified after the sequence.
        let mut pins: Vec<(StorePin, Dataset)> = Vec::new();

        for (oid, t, x, y, action) in rows {
            store.insert(Point::new(oid, x as f64, y as f64, t)).unwrap();
            model.insert((t, oid), (x as f64, y as f64));
            match action {
                // 0..=5: keep inserting.
                6 => store.flush().unwrap(),
                7 => store.wait_for_compactions().unwrap(),
                8 | 9 => {
                    let pin = store.pin_snapshot().unwrap();
                    let frozen = freeze(&model).expect("model non-empty after insert");
                    // The pin is also correct *immediately*…
                    prop_assert_eq!(pin.span(), frozen.span());
                    pins.push((pin, frozen));
                    // …and unpinning some earlier pin must not disturb
                    // the others (Drop path under live siblings).
                    if pins.len() > 3 {
                        pins.remove(0);
                    }
                }
                _ => {}
            }
        }
        // Churn the store once more so every surviving pin has writes,
        // a flush and (policy permitting) a compaction after it.
        for i in 0..64u32 {
            store.insert(Point::new(100 + i, 0.0, 0.0, i % 24)).unwrap();
        }
        store.flush().unwrap();
        store.wait_for_compactions().unwrap();

        for (pin, frozen) in &pins {
            assert_pin_matches_frozen(pin, frozen);
        }
        drop(pins);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance shape from the issue, deterministic: a mine pinned
/// before a batch of inserts + flush + compaction returns byte-identical
/// output to the pre-ingest golden, while the same request re-issued
/// after the swap sees the new data.
#[test]
fn pin_before_ingest_serves_the_past_reissue_serves_the_present() {
    let dir = tmp("acceptance", 0);
    let mut points = Vec::new();
    // Two objects travelling together for t=0..10 → one convoy.
    for t in 0..10u32 {
        points.push(Point::new(1, t as f64, 0.0, t));
        points.push(Point::new(2, t as f64, 0.5, t));
        points.push(Point::new(9, 500.0 + t as f64, 900.0, t)); // loner
    }
    let dataset = Dataset::from_points(&points).unwrap();
    let config = LsmConfig {
        memtable_entries: 8,
        max_tables: 2,
        ..LsmConfig::default()
    };
    let store = LsmStore::bulk_load_with(dir.join("lsm"), &dataset, config).unwrap();
    let session = MiningSession::with_params(2, 5, 2.0).unwrap();
    let golden = session.mine(&dataset).unwrap().convoys;
    assert_eq!(golden.len(), 1, "workload must produce exactly one convoy");

    let pin = store.pin_snapshot().unwrap();
    // Ingest a second travelling pair at t=0..10, forcing flushes and a
    // compaction — several state swaps.
    for t in 0..10u32 {
        store.insert(Point::new(5, t as f64, 100.0, t)).unwrap();
        store.insert(Point::new(6, t as f64, 100.5, t)).unwrap();
    }
    store.flush().unwrap();
    store.wait_for_compactions().unwrap();

    // The pinned mine is byte-identical to the pre-ingest golden…
    assert_eq!(session.mine(&pin).unwrap().convoys, golden);
    // …while a fresh pin (a re-issued request) sees the new convoy too.
    let repin = store.pin_snapshot().unwrap();
    let now = session.mine(&repin).unwrap().convoys;
    assert_eq!(now.len(), 2, "re-issued request must see the ingested pair");
    assert!(now.iter().any(|c| c.objects.ids() == [5, 6]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reader-blocks-nothing regression: holding a pin — and actively
/// scanning through it from another thread — must not degrade insert
/// latency beyond a generous absolute bound. Guards against any return
/// to copy-on-write-per-insert or reader-lock-on-the-write-path designs
/// (which push p99 into milliseconds immediately).
#[test]
fn insert_p99_stays_bounded_under_a_live_pin() {
    let dir = tmp("p99", 0);
    let config = LsmConfig {
        memtable_entries: 1 << 14,
        wal: false, // isolate the in-memory write path from fs jitter
        ..LsmConfig::default()
    };
    let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
    for oid in 0..256u32 {
        store.insert(Point::new(oid, oid as f64, 0.0, 0)).unwrap();
    }
    let pin = store.pin_snapshot().unwrap();
    // A busy reader hammering the pinned snapshot for the whole run.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let stop = stop.clone();
        let reader_pin = store.pin_snapshot().unwrap();
        std::thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let n = reader_pin.scan_snapshot(0).unwrap().len();
                assert_eq!(n, 256);
                scans += 1;
            }
            scans
        })
    };

    const N: usize = 20_000;
    let mut lat = Vec::with_capacity(N);
    for i in 0..N as u32 {
        let p = Point::new(1000 + (i % 4096), 1.0, 2.0, 1 + i / 4096);
        let t0 = std::time::Instant::now();
        store.insert(p).unwrap();
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scans = reader.join().unwrap();
    assert!(scans > 0, "reader thread never got a scan through");

    lat.sort_unstable();
    let p99 = lat[(N * 99) / 100 - 1];
    // Insert under a live pin is a WAL-less memtable insert: single-digit
    // microseconds. 2ms catches structural regressions (per-insert state
    // clone, reader-held locks) with ~1000x headroom over CI noise.
    assert!(
        p99 < 2_000_000,
        "insert p99 under live pin too high: {p99}ns"
    );
    // The pin still reads its frozen past.
    assert_eq!(pin.scan_snapshot(0).unwrap().len(), 256);
    assert_eq!(pin.scan_snapshot(1).unwrap().len(), 0);
    drop(pin);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins interact correctly with reopen-oriented state: a pin holds data
/// alive across compactions that unlink its files, and the store's own
/// contents stay model-exact throughout.
#[test]
fn store_stays_model_exact_while_pins_churn() {
    let dir = tmp("churn", 0);
    let config = LsmConfig {
        memtable_entries: 16,
        max_tables: 2,
        ..LsmConfig::default()
    };
    let store = LsmStore::create_with(dir.join("lsm"), config).unwrap();
    let mut model: Model = BTreeMap::new();
    let mut held: Vec<(StorePin, Dataset)> = Vec::new();
    for i in 0..400u32 {
        let (oid, t) = (i % 12, i % 20);
        let (x, y) = ((i % 7) as f64, (i % 5) as f64);
        store.insert(Point::new(oid, x, y, t)).unwrap();
        model.insert((t, oid), (x, y));
        if i % 37 == 0 {
            held.push((store.pin_snapshot().unwrap(), freeze(&model).unwrap()));
        }
        if i % 90 == 0 {
            held.clear(); // mass unpin mid-churn
        }
    }
    store.wait_for_compactions().unwrap();
    for (pin, frozen) in &held {
        assert_pin_matches_frozen(pin, frozen);
    }
    // The live store matches the full model.
    let full = freeze(&model).unwrap();
    for t in 0..20u32 {
        assert_eq!(
            store.scan_snapshot(t).unwrap(),
            full.snapshot(t)
                .map(|s| s.positions().to_vec())
                .unwrap_or_default()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
