//! Storage-engine comparison — §5 of the paper in action.
//!
//! Loads the same workload into all three persistent stores (flat file,
//! clustered B+tree, LSM-tree), mines it with identical parameters, and
//! prints the per-engine I/O profile: the flat file pays sequential scans
//! for random access, the B+tree and LSM-tree serve the two k/2-hop
//! access paths (benchmark range scans + hop-window point queries)
//! efficiently.
//!
//! ```sh
//! cargo run --release --example storage_engines
//! ```

use k2hop::prelude::*;
use k2hop::storage::{FlatFileStore, LsmStore, MemoryBudget, RelationalStore};
use std::time::Instant;

fn main() {
    let dataset = k2hop::datagen::ConvoyInjector::new(400, 200)
        .convoys(4, 5, 80)
        .seed(7)
        .generate();
    println!(
        "workload: {} points ({} objects x {} timestamps)\n",
        dataset.num_points(),
        dataset.stats().num_objects,
        dataset.num_timestamps()
    );

    let dir = std::env::temp_dir().join(format!("k2-example-stores-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let flat = FlatFileStore::create(dir.join("data.bin"), &dataset).expect("flat store");
    let btree = RelationalStore::create(dir.join("data.k2bt"), &dataset).expect("b+tree store");
    let lsm = LsmStore::bulk_load(dir.join("lsm"), &dataset).expect("lsm store");

    let session = MiningSession::with_params(4, 40, 1.0).expect("valid parameters");

    println!(
        "{:<10} {:>9} {:>8} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "engine", "convoys", "time", "seeks", "blocks", "bytes", "pt-qrys", "cache-hit"
    );

    // k2-File: load fully into memory first (counts as one full scan),
    // then mine at RAM speed.
    let t0 = Instant::now();
    let mem = flat
        .load_in_memory(MemoryBudget::unlimited())
        .expect("fits in memory");
    let res = session.mine(&mem).expect("mining");
    let io = flat.io_stats();
    print_row("k2-file", res.convoys.len(), t0.elapsed(), io);

    // k2-RDBMS. One session, any engine: the outcome carries the I/O
    // profile of whichever store served it.
    let before = btree.io_stats();
    let t0 = Instant::now();
    let res_b = session.mine(&btree).expect("mining");
    print_row(
        "k2-rdbms",
        res_b.convoys.len(),
        t0.elapsed(),
        res_b.io.since(&before),
    );

    // k2-LSMT.
    let before = lsm.io_stats();
    let t0 = Instant::now();
    let res_l = session.mine(&lsm).expect("mining");
    print_row(
        "k2-lsmt",
        res_l.convoys.len(),
        t0.elapsed(),
        res_l.io.since(&before),
    );

    assert_eq!(res.convoys, res_b.convoys);
    assert_eq!(res.convoys, res_l.convoys);
    println!("\nall engines returned identical convoys ✓");
    let _ = std::fs::remove_dir_all(&dir);
}

fn print_row(
    name: &str,
    convoys: usize,
    elapsed: std::time::Duration,
    io: k2hop::storage::IoStats,
) {
    println!(
        "{:<10} {:>9} {:>8.1?} {:>10} {:>10} {:>10} {:>9} {:>8}",
        name,
        convoys,
        elapsed,
        io.seeks,
        io.blocks_read,
        io.bytes_read,
        io.point_queries,
        io.cache_hits
    );
}
