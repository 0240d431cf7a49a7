//! Storage-engine parity: mining must return identical convoys whichever
//! persistent store backs the data — in-memory (k2-File after load), the
//! clustered B+tree (k2-RDBMS), or the LSM-tree (k2-LSMT) — and the I/O
//! profiles must match the paper's access-path story.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::ConvoyInjector;
use k2hop::storage::{
    FlatFileStore, InMemoryStore, LsmConfig, LsmStore, MemoryBudget, RelationalStore,
    SnapshotSource, StoreError,
};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("k2parity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn all_engines_agree_on_mining_results() {
    let dataset = ConvoyInjector::new(60, 50)
        .convoys(3, 4, 25)
        .seed(21)
        .generate();
    let dir = tmpdir("agree");

    let mem = InMemoryStore::new(dataset.clone());
    let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).unwrap();
    let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();

    let miner = K2Hop::new(K2Config::new(3, 10, 1.0).unwrap());
    let from_mem = ConvoyMiner::mine(&miner, &mem).unwrap().convoys;
    let from_flat = ConvoyMiner::mine(
        &miner,
        &flat.load_in_memory(MemoryBudget::unlimited()).unwrap(),
    )
    .unwrap()
    .convoys;
    let from_btree = ConvoyMiner::mine(&miner, &btree).unwrap().convoys;
    let from_lsm = ConvoyMiner::mine(&miner, &lsm).unwrap().convoys;

    assert!(!from_mem.is_empty(), "workload should contain convoys");
    assert_eq!(from_mem, from_flat, "k2-File");
    assert_eq!(from_mem, from_btree, "k2-RDBMS");
    assert_eq!(from_mem, from_lsm, "k2-LSMT");
}

#[test]
fn disk_engines_serve_benchmark_scans_and_point_queries() {
    let dataset = ConvoyInjector::new(40, 30)
        .convoys(1, 4, 20)
        .seed(3)
        .generate();
    let dir = tmpdir("iostats");
    let btree = RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap();
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap();

    let miner = K2Hop::new(K2Config::new(4, 10, 1.0).unwrap());
    for engine in [&btree as &dyn SnapshotSource, &lsm as &dyn SnapshotSource] {
        let before = engine.io_stats();
        let res = ConvoyMiner::mine(&miner, engine).unwrap();
        let io = engine.io_stats().since(&before);
        assert!(!res.convoys.is_empty(), "{}", engine.name());
        // Benchmark scans: hop = 5 over 30 timestamps -> 6 range queries.
        assert_eq!(io.range_queries, 6, "{}", engine.name());
        // Hop-window work arrives as point queries (the §5 access paths).
        assert!(io.point_queries > 0, "{}", engine.name());
    }
}

#[test]
fn vcoda_on_flat_file_hits_memory_budget() {
    // Reproduces the paper's "VCoDA crashed on Brinkhoff" rows: loading
    // the whole dataset in memory fails under a budget.
    let dataset = ConvoyInjector::new(50, 40).seed(1).generate();
    let dir = tmpdir("budget");
    let flat = FlatFileStore::create(dir.join("big.bin"), &dataset).unwrap();
    let needed = dataset.num_points() * 24;
    let err = flat
        .load_in_memory(MemoryBudget::bytes(needed - 1))
        .unwrap_err();
    assert!(matches!(err, StoreError::MemoryBudgetExceeded { .. }));
    // A sufficient budget works.
    assert!(flat.load_in_memory(MemoryBudget::bytes(needed)).is_ok());
}

#[test]
fn lsm_reopen_mid_experiment_is_consistent() {
    let dataset = ConvoyInjector::new(30, 30)
        .convoys(2, 3, 18)
        .seed(8)
        .generate();
    let dir = tmpdir("reopen");
    let miner = K2Hop::new(K2Config::new(3, 8, 1.0).unwrap());
    let before = {
        let lsm = LsmStore::bulk_load_with(
            dir.join("lsm"),
            &dataset,
            LsmConfig {
                memtable_entries: 128,
                ..LsmConfig::default()
            },
        )
        .unwrap();
        ConvoyMiner::mine(&miner, &lsm).unwrap().convoys
    };
    let reopened = LsmStore::open(dir.join("lsm")).unwrap();
    let after = ConvoyMiner::mine(&miner, &reopened).unwrap().convoys;
    assert_eq!(before, after);
}

#[test]
fn trait_objects_support_heterogeneous_pipelines() {
    // The miner accepts `&dyn SnapshotSource` — the bench harness depends
    // on this to sweep engines generically.
    let dataset = ConvoyInjector::new(20, 20)
        .convoys(1, 3, 12)
        .seed(2)
        .generate();
    let dir = tmpdir("dyn");
    let stores: Vec<Box<dyn SnapshotSource>> = vec![
        Box::new(InMemoryStore::new(dataset.clone())),
        Box::new(RelationalStore::create(dir.join("d.k2bt"), &dataset).unwrap()),
        Box::new(LsmStore::bulk_load(dir.join("lsm"), &dataset).unwrap()),
    ];
    let miner = K2Hop::new(K2Config::new(3, 6, 1.0).unwrap());
    let results: Vec<_> = stores
        .iter()
        .map(|s| ConvoyMiner::mine(&miner, s.as_ref()).unwrap().convoys)
        .collect();
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}
