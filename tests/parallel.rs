//! Parallel k/2-hop (§7 future work): `K2Hop` mines the same convoys,
//! and counts the same work, at every thread count and on every source.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop, MineOutcome};
use k2hop::datagen::{tdrive::TDriveConfig, trucks::TrucksConfig, ConvoyInjector};
use k2hop::model::{Convoy, Dataset, ObjPos, Oid, Time, TimeInterval};
use k2hop::storage::{
    FlatFileStore, InMemoryStore, IoStats, LsmStore, RelationalStore, SnapshotRef, SnapshotSource,
    StoreResult,
};
use std::time::Duration;

/// Hides the resident dataset, so the miner runs its steps inline on the
/// calling thread, as it does for the disk engines.
struct OpaqueSource(InMemoryStore);

impl SnapshotSource for OpaqueSource {
    fn span(&self) -> TimeInterval {
        self.0.span()
    }
    fn num_points(&self) -> u64 {
        self.0.num_points()
    }
    fn scan_snapshot_ref<'a>(
        &self,
        t: Time,
        buf: &'a mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'a>> {
        self.0.scan_snapshot_ref(t, buf)
    }
    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.0.multi_get_into(t, oids, out)
    }
    fn io_stats(&self) -> IoStats {
        self.0.io_stats()
    }
    fn name(&self) -> &'static str {
        "opaque"
    }
}

fn mine(source: &dyn SnapshotSource, cfg: K2Config, threads: usize) -> MineOutcome {
    ConvoyMiner::mine(&K2Hop::with_threads(cfg, threads), source).unwrap()
}

/// The single-threaded inline mine every other run must reproduce.
fn sequential(d: &Dataset, m: usize, k: u32, eps: f64) -> Vec<Convoy> {
    let cfg = K2Config::new(m, k, eps).unwrap();
    mine(&OpaqueSource(InMemoryStore::new(d.clone())), cfg, 1).convoys
}

fn tmp_dir(salt: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("k2par-{salt}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn parallel_equals_sequential_on_injected_workloads() {
    for seed in [1u64, 17, 99] {
        let d = ConvoyInjector::new(80, 120)
            .convoys(4, 4, 50)
            .seed(seed)
            .generate();
        let expect = sequential(&d, 3, 20, 1.0);
        assert!(!expect.is_empty());
        let cfg = K2Config::new(3, 20, 1.0).unwrap();
        for threads in [1usize, 2, 8] {
            let got = mine(&d, cfg, threads).convoys;
            assert_eq!(got, expect, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn parallel_equals_sequential_on_trucks() {
    let d = TrucksConfig::scaled(0.1).seed(5).generate();
    let (m, k, eps) = (3usize, 300u32, 6.0e-5);
    let expect = sequential(&d, m, k, eps);
    let cfg = K2Config::new(m, k, eps).unwrap();
    assert_eq!(mine(&d, cfg, 4).convoys, expect);
}

#[test]
fn parallel_equals_sequential_on_tdrive() {
    let d = TDriveConfig::scaled(0.05).seed(5).generate();
    let (m, k, eps) = (3usize, 40u32, 6.0e-4);
    let expect = sequential(&d, m, k, eps);
    let cfg = K2Config::new(m, k, eps).unwrap();
    assert_eq!(mine(&d, cfg, 4).convoys, expect);
}

#[test]
fn parallel_mines_from_all_four_storage_engines() {
    let d = ConvoyInjector::new(60, 60)
        .convoys(3, 4, 30)
        .seed(11)
        .generate();
    let expect = sequential(&d, 3, 16, 1.0);
    assert!(!expect.is_empty());
    let cfg = K2Config::new(3, 16, 1.0).unwrap();

    let dir = tmp_dir("store");
    let mem = InMemoryStore::new(d.clone());
    let flat = FlatFileStore::create(dir.join("data.bin"), &d).unwrap();
    let btree = RelationalStore::create(dir.join("data.k2bt"), &d).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &d).unwrap();
    let engines: [&dyn SnapshotSource; 4] = [&mem, &flat, &btree, &lsm];

    for threads in [1usize, 4] {
        for source in engines {
            assert_eq!(
                mine(source, cfg, threads).convoys,
                expect,
                "{}, {threads} threads",
                source.name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversubscribed_thread_count_is_harmless() {
    let d = ConvoyInjector::new(20, 30)
        .convoys(1, 3, 15)
        .seed(2)
        .generate();
    let cfg = K2Config::new(3, 10, 1.0).unwrap();
    let expect = sequential(&d, 3, 10, 1.0);
    assert_eq!(mine(&d, cfg, 64).convoys, expect);
}

#[test]
fn counters_do_not_depend_on_the_source() {
    // Resident sources (the dataset, the in-memory store) fan steps 2-6
    // out; the opaque wrapper and the LSM store run them inline. Both
    // executors must make the same probes, so every pruning counter and
    // the fetch peak agree, and both must time all seven phases.
    let d = ConvoyInjector::new(80, 120)
        .convoys(4, 4, 50)
        .seed(17)
        .generate();
    let cfg = K2Config::new(3, 20, 1.0).unwrap();
    let dir = tmp_dir("counters");
    let mem = InMemoryStore::new(d.clone());
    let opaque = OpaqueSource(InMemoryStore::new(d.clone()));
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &d).unwrap();
    let sources: [&dyn SnapshotSource; 4] = [&d, &mem, &opaque, &lsm];

    let reference = mine(&d, cfg, 1);
    assert!(!reference.convoys.is_empty());
    assert!(reference.stats.pruning.pre_validation_convoys > 0);
    for threads in [1usize, 4] {
        for source in sources {
            let outcome = mine(source, cfg, threads);
            let what = format!("{}, {threads} threads", source.name());
            assert_eq!(outcome.convoys, reference.convoys, "{what}");
            assert_eq!(outcome.stats.pruning, reference.stats.pruning, "{what}");
            assert_eq!(outcome.stats.prefetch, reference.stats.prefetch, "{what}");
            for (phase, took) in outcome.stats.timings.rows() {
                assert!(took > Duration::ZERO, "{what}: phase {phase} untimed");
            }
        }
    }
    assert!(reference.stats.prefetch.prefetch_bytes_peak > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
