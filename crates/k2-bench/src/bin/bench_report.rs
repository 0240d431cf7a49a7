//! Fixed-workload performance report — the repo's measured perf
//! trajectory.
//!
//! Runs k/2-hop end to end on a seeded Brinkhoff-style workload (the
//! same shape `figures` uses for the paper's Brinkhoff experiments),
//! plus two microbenchmarks of the clustering substrate, plus a
//! Trucks-shaped lat/lon workload (degree coordinates around Athens)
//! that keeps the geo-scale CSR grid path on the perf trajectory, and
//! writes the numbers as JSON. Each perf-focused PR commits its report
//! as `BENCH_<n>.json` at the repo root so speedups (and regressions)
//! are visible in history, not just claimed in PR descriptions.
//!
//! A `--scale-axis` list adds a dataset-size axis: for each scale the
//! Brinkhoff *time* axis is stretched (objects arrive at the fixed base
//! rate), the points are bulk-loaded into an on-disk LSM store, the
//! resident dataset is dropped, and `K2Hop` mines the store — recording
//! wall-clock, the deterministic `prefetch_bytes_peak` counter (the
//! largest per-timestamp hop-window fetch), and the process RSS around
//! the mine.
//! This is the report's proof that mining memory stays bounded while the
//! dataset grows past the first million points.
//!
//! An `ingest` section measures the LSM write path under sustained
//! insert load three ways — tiered compaction run inline (deterministic
//! write-amplification numbers), the pre-tiered full-merge policy (the
//! baseline tiering must beat), and tiered compaction on the background
//! worker (insert-latency percentiles with the merges off the write
//! path) — plus a deterministic block-cache hit-rate probe over the
//! ingested tables. `bytes_compacted / bytes_ingested` is the write-amp
//! number the CI gate holds below the full-merge baseline.
//!
//! A `serving` section drives the k2-server front end: concurrent
//! miners (each request pinning its own MVCC snapshot through the wire
//! codec) race a sustained insert stream on the same store. It records
//! request latency percentiles, the insert percentiles *under* that
//! read load (the reader-blocks-nothing claim, gated against the
//! unloaded `ingest.background` leg of the same report), a determinism
//! probe at 1 vs 4 mining threads (convoy count + content hash must
//! match), and the peak live-pin count and snapshot staleness observed.
//!
//! ```sh
//! cargo run --release -p k2-bench --bin bench-report -- --out BENCH_9.json --scale-axis 1,10,50
//! cargo run --release -p k2-bench --bin bench-report -- --scale 0.1 --runs 1
//! ```
//!
//! `BENCH_SMOKE.json` is the committed tiny-workload baseline the CI
//! bench-smoke job diffs fresh runs against; regenerate it with exactly
//! the flags the CI job uses (`--scale 0.5 --runs 5`, see
//! `.github/workflows/ci.yml` and `scripts/bench_gate.py` — the gate
//! fails on a workload mismatch).

use k2_cluster::{dbscan_with, DbscanParams, GridScratch};
use k2_core::{ConvoyMiner, K2Config, K2Hop, MineOutcome, PrefetchStats};
use k2_datagen::brinkhoff::BrinkhoffConfig;
use k2_datagen::trucks::TrucksConfig;
use k2_datagen::ConvoyInjector;
use k2_model::Point;
use k2_server::{K2Service, LocalClient, Pattern, Request, Response, WireConvoy};
use k2_storage::{
    CompactionPolicy, InMemoryStore, IoStats, LsmConfig, LsmStore, SnapshotSource, KEY_SIZE,
    VAL_SIZE,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Mining parameters. Chosen so the scaled Brinkhoff traffic yields real
/// convoys (a few dozen at scale 1.0) and every pipeline phase does
/// non-trivial work; the figures-harness preset `(3, 80, 100)` finds
/// nothing at laptop scale, which would make the report a degenerate
/// perf point.
const M: usize = 2;
const K: u32 = 40;
const EPS: f64 = 600.0;

/// Trucks-shaped geo workload parameters: degree coordinates, an eps in
/// the paper's lat/lon range — every benchmark snapshot exercises the
/// density-tuned CSR grid path that PR 4 pinned with unit tests.
const GEO_M: usize = 3;
const GEO_K: u32 = 60;
const GEO_EPS: f64 = 6.0e-4;

/// Worker threads for the scale-axis mines. Fixed (not
/// `available_parallelism`) so the entry's workload — and its grid
/// counters — are identical on every machine.
const SCALE_THREADS: usize = 4;

/// Serving-section shape: miner count doubles as the worker-pool size,
/// so the section measures a fully-loaded pool. The request parameters
/// target the injector's planted convoys (size 5, tight eps), keeping
/// the per-request mining work real but bounded.
const SERVE_MINERS: usize = 4;
const SERVE_REQUESTS: usize = 6;
const SERVE_M: u32 = 4;
const SERVE_K: u32 = 10;
const SERVE_EPS: f64 = 1.5;

struct Args {
    out: String,
    scale: f64,
    seed: u64,
    runs: usize,
    scale_axis: Vec<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_9.json".into(),
        scale: 1.0,
        seed: 42,
        runs: 3,
        scale_axis: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--out" => args.out = value("--out"),
            "--scale" => args.scale = value("--scale").parse().expect("--scale: f64"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: u64"),
            "--runs" => args.runs = value("--runs").parse().expect("--runs: usize"),
            "--scale-axis" => {
                args.scale_axis = value("--scale-axis")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--scale-axis: comma-separated f64"))
                    .collect();
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-report [--out FILE] [--scale F] [--seed N] [--runs N] \
                     [--scale-axis F,F,...]"
                );
                std::process::exit(2);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.runs >= 1, "--runs must be >= 1");
    assert!(args.scale > 0.0, "--scale must be positive");
    assert!(
        args.scale_axis.iter().all(|&s| s > 0.0),
        "--scale-axis entries must be positive"
    );
    args
}

/// One field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`), in bytes.
/// Returns `None` off Linux or if the field is missing — the report
/// records 0 rather than failing, since the deterministic prefetch
/// peak is the primary memory gauge.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            if let Some(rest) = rest.strip_prefix(':') {
                let kb: u64 = rest.split_whitespace().next()?.parse().ok()?;
                return Some(kb * 1024);
            }
        }
    }
    None
}

fn median_by_total(mut runs: Vec<(f64, MineOutcome)>) -> (f64, MineOutcome) {
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// Mines `store` `runs` times through the unified API, returning the
/// median run by total wall-clock plus the (deterministic) I/O profile.
fn mine_runs(store: &InMemoryStore, config: K2Config, runs: usize) -> (f64, MineOutcome, IoStats) {
    let miner = K2Hop::new(config);
    let mut samples = Vec::with_capacity(runs);
    let mut snapshot_io = IoStats::default();
    for i in 0..runs {
        let before = store.io_stats();
        let start = Instant::now();
        let outcome = ConvoyMiner::mine(&miner, store).expect("in-memory mining cannot fail");
        let secs = start.elapsed().as_secs_f64();
        // Identical every run (mining is deterministic); recorded so the
        // report proves the zero-copy benchmark-scan path held.
        snapshot_io = outcome.io.since(&before);
        eprintln!(
            "run {}/{}: {secs:.3}s, {} convoys",
            i + 1,
            runs,
            outcome.convoys.len()
        );
        samples.push((secs, outcome));
    }
    let (secs, outcome) = median_by_total(samples);
    (secs, outcome, snapshot_io)
}

/// One point on the dataset-size axis: a `K2Hop` mine of an LSM store
/// holding a time-stretched Brinkhoff workload.
struct ScaleEntry {
    scale: f64,
    max_time: u32,
    stats: k2_model::DatasetStats,
    gen_secs: f64,
    load_secs: f64,
    mine_secs: f64,
    convoys: usize,
    points_processed: u64,
    prefetch: PrefetchStats,
    vm_rss_before: u64,
    vm_rss_after: u64,
    vm_hwm: u64,
}

fn run_scale_axis(args: &Args) -> Vec<ScaleEntry> {
    let mut entries = Vec::new();
    for &scale in &args.scale_axis {
        // Only the time axis stretches; objects keep arriving at the
        // base rate, so the point count grows roughly linearly and
        // per-snapshot density (the DBSCAN unit of work) stays fixed.
        let max_time = ((1300.0 * scale).round() as u32).max(60);
        let cfg = BrinkhoffConfig {
            max_time,
            obj_begin: 300,
            obj_time: 5,
            ..BrinkhoffConfig::default()
        }
        .seed(args.seed);
        eprintln!("scale-axis {scale}: generating (max_time {max_time})...");
        let t0 = Instant::now();
        let dataset = cfg.generate();
        let gen_secs = t0.elapsed().as_secs_f64();
        let stats = dataset.stats();

        let dir = std::env::temp_dir().join(format!(
            "k2bench-scale-{}-{}",
            std::process::id(),
            (scale * 1000.0).round() as u64
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scale-axis temp dir");
        let t0 = Instant::now();
        let store = LsmStore::bulk_load(dir.join("lsm"), &dataset).expect("bulk load");
        let load_secs = t0.elapsed().as_secs_f64();
        // From here on only the disk engine holds the points: the mine
        // below fetches one hop-window timestamp at a time, which is what
        // the prefetch peak and RSS samples witness.
        drop(dataset);

        let vm_rss_before = proc_status_bytes("VmRSS").unwrap_or(0);
        let miner = K2Hop::with_threads(
            K2Config::new(M, K, EPS).expect("valid config"),
            SCALE_THREADS,
        );
        let t0 = Instant::now();
        let outcome = ConvoyMiner::mine(&miner, &store).expect("lsm mining cannot fail");
        let mine_secs = t0.elapsed().as_secs_f64();
        let vm_rss_after = proc_status_bytes("VmRSS").unwrap_or(0);
        let vm_hwm = proc_status_bytes("VmHWM").unwrap_or(0);
        eprintln!(
            "scale-axis {scale}: {} points, gen {gen_secs:.2}s, load {load_secs:.2}s, \
             mine {mine_secs:.2}s, {} convoys, peak prefetch {} bytes",
            stats.num_points,
            outcome.convoys.len(),
            outcome.stats.prefetch.prefetch_bytes_peak
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        entries.push(ScaleEntry {
            scale,
            max_time,
            stats,
            gen_secs,
            load_secs,
            mine_secs,
            convoys: outcome.convoys.len(),
            points_processed: outcome.stats.pruning.points_processed(),
            prefetch: outcome.stats.prefetch,
            vm_rss_before,
            vm_rss_after,
            vm_hwm,
        });
    }
    entries
}

/// One leg of the ingest bench: a full insert+flush pass under one
/// compaction configuration, with per-insert latencies sampled.
struct IngestSide {
    secs: f64,
    io: IoStats,
    tables: usize,
    p50_nanos: u64,
    p99_nanos: u64,
    max_nanos: u64,
}

/// The ingest-heavy section: write amplification and insert latency
/// under sustained insert load, per compaction policy/mode.
struct IngestSection {
    points: u64,
    memtable_entries: usize,
    max_tables: usize,
    bytes_ingested: u64,
    tiered: IngestSide,
    full_merge: IngestSide,
    background: IngestSide,
    /// Deterministic block-cache probe over the tiered store's tables:
    /// a cold scan pass then an identical warm pass.
    cache_hits: u64,
    cache_misses: u64,
}

/// Deterministic ingest workload: unique `(t, oid)` keys, 300 objects
/// per timestamp, positions a cheap function of `i`.
fn ingest_point(i: u64) -> Point {
    let oid = (i % 300) as u32;
    let t = (i / 300) as u32;
    Point::new(oid, (i % 977) as f64, (i % 131) as f64 * 0.5, t)
}

fn run_ingest_side(dir: &std::path::Path, config: LsmConfig, points: u64) -> IngestSide {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("ingest temp dir");
    let store = LsmStore::create_with(dir, config).expect("create ingest store");
    let mut lat_nanos = Vec::with_capacity(points as usize);
    let t0 = Instant::now();
    for i in 0..points {
        let p = ingest_point(i);
        let t1 = Instant::now();
        store.insert(p).expect("insert");
        lat_nanos.push(t1.elapsed().as_nanos() as u64);
    }
    store.flush().expect("final flush");
    store.wait_for_compactions().expect("drain compactions");
    let secs = t0.elapsed().as_secs_f64();
    let io = store.io_stats();
    let tables = store.num_tables();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    lat_nanos.sort_unstable();
    let pct = |q: f64| lat_nanos[((lat_nanos.len() - 1) as f64 * q) as usize];
    IngestSide {
        secs,
        io,
        tables,
        p50_nanos: pct(0.50),
        p99_nanos: pct(0.99),
        max_nanos: *lat_nanos.last().expect("non-empty"),
    }
}

fn run_ingest(args: &Args) -> IngestSection {
    // Small memtable + tight trigger so even the smoke scale sustains
    // dozens of flushes and repeated compactions — the regime the
    // policies differ in.
    let points = ((150_000.0 * args.scale).round() as u64).max(20_000);
    let memtable_entries = 2048;
    let max_tables = 4;
    // WAL off: the section isolates compaction write amplification and
    // merge stalls; fsync cadence is a different (machine-bound) story.
    let base = LsmConfig {
        memtable_entries,
        max_tables,
        wal: false,
        ..LsmConfig::default()
    };
    let tmp = std::env::temp_dir().join(format!("k2bench-ingest-{}", std::process::id()));

    eprintln!("ingest: {points} inserts, tiered blocking...");
    let tiered = run_ingest_side(
        &tmp,
        LsmConfig {
            compaction: CompactionPolicy::Tiered,
            background_compaction: false,
            ..base
        },
        points,
    );
    eprintln!("ingest: full-merge blocking (baseline)...");
    let full_merge = run_ingest_side(
        &tmp,
        LsmConfig {
            compaction: CompactionPolicy::FullMerge,
            background_compaction: false,
            ..base
        },
        points,
    );
    eprintln!("ingest: tiered background...");
    let background = run_ingest_side(
        &tmp,
        LsmConfig {
            compaction: CompactionPolicy::Tiered,
            background_compaction: true,
            ..base
        },
        points,
    );

    // Cache probe: rebuild the (deterministic) tiered store, then read a
    // fixed snapshot slate twice — the second pass measures residency.
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("ingest temp dir");
    let store = LsmStore::create_with(
        &tmp,
        LsmConfig {
            compaction: CompactionPolicy::Tiered,
            background_compaction: false,
            ..base
        },
    )
    .expect("create cache-probe store");
    for i in 0..points {
        store.insert(ingest_point(i)).expect("insert");
    }
    store.flush().expect("final flush");
    let loaded = store.io_stats();
    let max_t = (points / 300) as u32;
    let mut buf = Vec::new();
    for _pass in 0..2 {
        for t in (0..max_t).step_by(16) {
            store.scan_snapshot_ref(t, &mut buf).expect("scan");
        }
    }
    let probe = store.io_stats().since(&loaded);
    drop(store);
    let _ = std::fs::remove_dir_all(&tmp);

    let bytes_ingested = points * (KEY_SIZE + VAL_SIZE) as u64;
    eprintln!(
        "ingest: write-amp tiered {:.2} vs full-merge {:.2}, background insert p99 {} ns, \
         cache hit rate {:.3}",
        tiered.io.bytes_compacted as f64 / bytes_ingested as f64,
        full_merge.io.bytes_compacted as f64 / bytes_ingested as f64,
        background.p99_nanos,
        probe.cache_hits as f64 / (probe.cache_hits + probe.cache_misses).max(1) as f64,
    );
    IngestSection {
        points,
        memtable_entries,
        max_tables,
        bytes_ingested,
        tiered,
        full_merge,
        background,
        cache_hits: probe.cache_hits,
        cache_misses: probe.cache_misses,
    }
}

/// The MVCC serving section: concurrent mine requests (through the
/// k2-server wire codec) racing a sustained insert stream on one store.
struct ServingSection {
    objects: u32,
    timestamps: u32,
    points: u64,
    convoys_t1: usize,
    hash_t1: u64,
    convoys_t4: usize,
    hash_t4: u64,
    request_p50_nanos: u64,
    request_p99_nanos: u64,
    inserts: u64,
    insert_p50_nanos: u64,
    insert_p99_nanos: u64,
    insert_max_nanos: u64,
    max_live_pins: u64,
    max_staleness: u64,
}

/// FNV-1a over the full convoy content (oids + lifespans): the
/// determinism fingerprint the gate compares across thread counts and
/// committed reports.
fn convoys_hash(convoys: &[WireConvoy]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for c in convoys {
        mix(c.t_start as u64);
        mix(c.t_end as u64);
        mix(c.oids.len() as u64);
        for &oid in &c.oids {
            mix(oid as u64);
        }
    }
    h
}

fn run_serving(args: &Args) -> ServingSection {
    // Planted-convoy workload: deterministic golden convoys for the
    // thread-count determinism probe, sized with --scale.
    let objects = ((240.0 * args.scale).round() as u32).max(60);
    let timestamps = ((160.0 * args.scale).round() as u32).max(40);
    let dataset = ConvoyInjector::new(objects, timestamps)
        .convoys(3, 5, (timestamps / 2).max(12))
        .seed(args.seed)
        .generate();
    let span_end = dataset.span().end;
    let points = dataset.num_points();

    let dir = std::env::temp_dir().join(format!("k2bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Same LSM shape as the ingest section's background leg, so the
    // insert-latency-under-load percentiles are comparable with the
    // unloaded ones measured there.
    let store = LsmStore::bulk_load_with(
        &dir,
        &dataset,
        LsmConfig {
            memtable_entries: 2048,
            max_tables: 4,
            wal: false,
            compaction: CompactionPolicy::Tiered,
            background_compaction: true,
            ..LsmConfig::default()
        },
    )
    .expect("bulk load serving store");
    drop(dataset);
    let service = Arc::new(K2Service::new(store));
    let store = service.store();
    let client = LocalClient::new(Arc::clone(&service), SERVE_MINERS);
    let mine_req = |t_hi: u32, threads: u32| Request::MineRange {
        t_lo: 0,
        t_hi,
        pattern: Pattern::Convoy,
        m: SERVE_M,
        k: SERVE_K,
        eps: SERVE_EPS,
        threads,
    };

    // Determinism probe before any ingest: the same request at 1 and 4
    // mining threads must produce identical convoys (count + content
    // hash) — parallel mining is not allowed to reorder or drop output.
    let probe = |threads: u32| match client.request(&mine_req(span_end, threads)) {
        Ok(Response::Convoys(r)) => (r.convoys.len(), convoys_hash(&r.convoys)),
        other => panic!("serving probe failed: {other:?}"),
    };
    let (convoys_t1, hash_t1) = probe(1);
    let (convoys_t4, hash_t4) = probe(4);
    eprintln!(
        "serving: probe t1 {convoys_t1} convoys ({hash_t1:016x}), \
         t4 {convoys_t4} convoys ({hash_t4:016x})"
    );

    // Concurrent phase: SERVE_MINERS clients hammer full-span requests
    // while this thread sustains the insert stream. Each request pins
    // its own snapshot; the writer must never feel the readers.
    let finished = Arc::new(AtomicUsize::new(0));
    let mut miners = Vec::new();
    for _ in 0..SERVE_MINERS {
        let client = client.clone();
        let finished = Arc::clone(&finished);
        miners.push(std::thread::spawn(move || {
            let mut lat = Vec::with_capacity(SERVE_REQUESTS);
            let mut max_staleness = 0u64;
            for _ in 0..SERVE_REQUESTS {
                let t0 = Instant::now();
                match client.request(&mine_req(u32::MAX, 0)) {
                    Ok(Response::Convoys(r)) => max_staleness = max_staleness.max(r.staleness),
                    other => panic!("serving mine failed: {other:?}"),
                }
                lat.push(t0.elapsed().as_nanos() as u64);
            }
            finished.fetch_add(1, Ordering::Release);
            (lat, max_staleness)
        }));
    }
    // Keep inserting until every miner is done (with a floor so the
    // percentiles are stable even if the miners finish first).
    let floor = ((40_000.0 * args.scale).round() as usize).max(10_000);
    let mut insert_lat = Vec::with_capacity(floor);
    let mut max_live_pins = 0u64;
    let mut i = 0u64;
    while finished.load(Ordering::Acquire) < SERVE_MINERS || insert_lat.len() < floor {
        let p = Point::new(
            (i % 300) as u32,
            (i % 977) as f64,
            (i % 131) as f64 * 0.5,
            span_end + 1 + (i / 300) as u32,
        );
        let t0 = Instant::now();
        store.insert(p).expect("serving insert");
        insert_lat.push(t0.elapsed().as_nanos() as u64);
        max_live_pins = max_live_pins.max(store.live_pins());
        i += 1;
    }
    let mut request_lat = Vec::new();
    let mut max_staleness = 0u64;
    for m in miners {
        let (lat, stale) = m.join().expect("miner thread");
        request_lat.extend(lat);
        max_staleness = max_staleness.max(stale);
    }
    store
        .quiesce_maintenance()
        .expect("drain serving compactions");
    drop(client);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    request_lat.sort_unstable();
    insert_lat.sort_unstable();
    let pct = |lat: &[u64], q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
    eprintln!(
        "serving: {} requests p99 {} ns, {} inserts under load p99 {} ns, \
         max {} live pins, max staleness {}",
        request_lat.len(),
        pct(&request_lat, 0.99),
        insert_lat.len(),
        pct(&insert_lat, 0.99),
        max_live_pins,
        max_staleness,
    );
    ServingSection {
        objects,
        timestamps,
        points,
        convoys_t1,
        hash_t1,
        convoys_t4,
        hash_t4,
        request_p50_nanos: pct(&request_lat, 0.50),
        request_p99_nanos: pct(&request_lat, 0.99),
        inserts: insert_lat.len() as u64,
        insert_p50_nanos: pct(&insert_lat, 0.50),
        insert_p99_nanos: pct(&insert_lat, 0.99),
        insert_max_nanos: *insert_lat.last().expect("non-empty"),
        max_live_pins,
        max_staleness,
    }
}

fn main() {
    let args = parse_args();

    // The fixed workload: the figures harness's Brinkhoff shape at
    // `--scale` (1.0 = the committed BENCH_*.json point).
    let cfg = BrinkhoffConfig {
        max_time: ((1300.0 * args.scale).round() as u32).max(60),
        obj_begin: ((300.0 * args.scale).round() as u32).max(20),
        obj_time: ((5.0 * args.scale).round() as u32).max(1),
        ..BrinkhoffConfig::default()
    }
    .seed(args.seed);
    eprintln!("generating brinkhoff workload (scale {})...", args.scale);
    let dataset = cfg.generate();
    let stats = dataset.stats();
    let store = InMemoryStore::new(dataset);

    // End-to-end k/2-hop, median of `--runs` by total time.
    let (mine_secs, result, snapshot_io) = mine_runs(
        &store,
        K2Config::new(M, K, EPS).expect("valid config"),
        args.runs,
    );

    // Microbenchmark 1: full-snapshot DBSCAN on the largest snapshot
    // (the benchmark-clustering unit of work).
    let largest = store
        .dataset()
        .iter()
        .max_by_key(|(_, s)| s.len())
        .map(|(t, _)| t)
        .expect("non-empty dataset");
    let snapshot = store.dataset().snapshot(largest).expect("largest snapshot");
    let params = DbscanParams::new(M, EPS);
    let mut scratch = GridScratch::new();
    let dbscan_secs = median_secs(31, || {
        // Pinned reference work each iteration — cold geometry (warm
        // buffers) and the seed-and-expand loop: this probe is the
        // machine-speed denominator the bench gate normalizes every
        // committed report by, so it must keep timing the build-and-
        // cluster cost those baselines timed — not the zero-churn patch
        // path plus min_pts<=2 shortcut a repeated identical snapshot
        // would hit.
        scratch.invalidate_grid();
        k2_cluster::dbscan_reference_with(snapshot.positions(), params, &mut scratch).len()
    });

    // Microbenchmark 2: a tiny `reCluster`-style probe (restrict + cluster
    // of an m-sized candidate), the HWMT/extension/validation unit of work.
    let candidate =
        k2_model::ObjectSet::new(snapshot.positions().iter().take(8).map(|p| p.oid).collect());
    let mut positions = Vec::new();
    let probe_secs = median_secs(1001, || {
        store
            .dataset()
            .restrict_at_into(largest, &candidate, &mut positions);
        dbscan_with(&positions, params, &mut scratch).len()
    });

    // Geo workload: Trucks-shaped depot runs in degree coordinates. The
    // lat/lon extents put every benchmark snapshot on the density-tuned
    // CSR path, so this point tracks the PR 4 geo-scale grid work.
    let geo_cfg = TrucksConfig {
        days: 2,
        trucks_per_day: ((60.0 * args.scale).round() as u32).max(8),
        samples_per_day: ((800.0 * args.scale).round() as u32).max(120),
        ..TrucksConfig::default()
    }
    .seed(args.seed);
    eprintln!("generating trucks geo workload (scale {})...", args.scale);
    let geo_dataset = geo_cfg.generate();
    let geo_stats = geo_dataset.stats();
    let geo_store = InMemoryStore::new(geo_dataset);
    let (geo_secs, geo_result, _) = mine_runs(
        &geo_store,
        K2Config::new(GEO_M, GEO_K, GEO_EPS).expect("valid config"),
        args.runs,
    );

    // Sustained-ingest section: compaction write amp and insert latency.
    let ingest = run_ingest(&args);

    // MVCC serving: concurrent miners vs a live insert stream.
    let serving = run_serving(&args);

    // Dataset-size axis: disk-resident data, bounded-memory mining.
    let scale_entries = run_scale_axis(&args);

    let json = render_json(&RenderInput {
        args: &args,
        stats: &stats,
        mine_secs,
        result: &result,
        snapshot_io: &snapshot_io,
        snapshot_n: snapshot.len(),
        dbscan_secs,
        probe_secs,
        geo: GeoSection {
            cfg: &geo_cfg,
            stats: &geo_stats,
            mine_secs: geo_secs,
            result: &geo_result,
        },
        ingest: &ingest,
        serving: &serving,
        scale_entries: &scale_entries,
    });
    std::fs::write(&args.out, &json).expect("write report");
    eprintln!("wrote {}", args.out);
    println!("{json}");
}

/// Median wall-clock seconds of `iters` calls to `f` (odd `iters`).
fn median_secs(iters: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

struct GeoSection<'a> {
    cfg: &'a TrucksConfig,
    stats: &'a k2_model::DatasetStats,
    mine_secs: f64,
    result: &'a MineOutcome,
}

struct RenderInput<'a> {
    args: &'a Args,
    stats: &'a k2_model::DatasetStats,
    mine_secs: f64,
    result: &'a MineOutcome,
    snapshot_io: &'a IoStats,
    snapshot_n: usize,
    dbscan_secs: f64,
    probe_secs: f64,
    geo: GeoSection<'a>,
    ingest: &'a IngestSection,
    serving: &'a ServingSection,
    scale_entries: &'a [ScaleEntry],
}

fn render_json(input: &RenderInput) -> String {
    let RenderInput {
        args,
        stats,
        mine_secs,
        result,
        snapshot_io,
        snapshot_n,
        dbscan_secs,
        probe_secs,
        geo,
        ingest,
        serving,
        scale_entries,
    } = input;
    let mine_secs = *mine_secs;
    let t = &result.stats.timings;
    let phases: [(&str, f64); 7] = [
        ("benchmark", t.benchmark.as_secs_f64()),
        ("intersect", t.intersect.as_secs_f64()),
        ("hwmt", t.hwmt.as_secs_f64()),
        ("merge", t.merge.as_secs_f64()),
        ("extend_right", t.extend_right.as_secs_f64()),
        ("extend_left", t.extend_left.as_secs_f64()),
        ("validation", t.validation.as_secs_f64()),
    ];
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"k2hop-bench-report/4\",");
    let _ = writeln!(
        s,
        "  \"workload\": {{\"generator\": \"brinkhoff\", \"scale\": {}, \"seed\": {}, \"m\": {M}, \"k\": {K}, \"eps\": {EPS:.1}}},",
        args.scale, args.seed
    );
    let _ = writeln!(
        s,
        "  \"dataset\": {{\"points\": {}, \"timestamps\": {}, \"objects\": {}, \"max_snapshot\": {}}},",
        stats.num_points, stats.num_timestamps, stats.num_objects, stats.max_snapshot_size
    );
    let _ = writeln!(s, "  \"mine\": {{");
    let _ = writeln!(s, "    \"runs\": {},", args.runs);
    let _ = writeln!(s, "    \"median_total_secs\": {mine_secs:.6},");
    let _ = writeln!(
        s,
        "    \"points_per_sec\": {:.0},",
        stats.num_points as f64 / mine_secs
    );
    let _ = writeln!(s, "    \"convoys\": {},", result.convoys.len());
    let _ = writeln!(
        s,
        "    \"points_processed\": {},",
        result.stats.pruning.points_processed()
    );
    let _ = writeln!(
        s,
        "    \"pruning_ratio\": {:.4},",
        result.stats.pruning.pruning_ratio()
    );
    // Grid-reuse proof: `grid_patches > 0` witnesses that the benchmark
    // snapshots were served by patching the previous grid, not rebuilding
    // it (the CI gate asserts this on reports that carry the field).
    let g = &result.stats.grid;
    let _ = writeln!(
        s,
        "    \"grid\": {{\"grid_builds\": {}, \"grid_patches\": {}, \"cells_moved\": {}}},",
        g.grid_builds, g.grid_patches, g.cells_moved
    );
    // Zero-copy proof: on the in-memory store every benchmark-point scan
    // must be a shared view ("copied" stays 0).
    let _ = writeln!(
        s,
        "    \"snapshot_io\": {{\"snapshots_shared\": {}, \"snapshots_copied\": {}}},",
        snapshot_io.snapshots_shared, snapshot_io.snapshots_copied
    );
    s.push_str("    \"phases_secs\": {");
    for (i, (name, secs)) in phases.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {secs:.6}");
    }
    s.push_str("}\n  },\n");
    // Nanosecond precision: this field is the denominator of the CI smoke
    // gate's machine-speed normalization (scripts/bench_gate.py), and the
    // measured value is single-digit microseconds — {:.6} would leave it
    // ~1 significant digit.
    let _ = writeln!(
        s,
        "  \"dbscan_largest_snapshot\": {{\"points\": {snapshot_n}, \"median_secs\": {dbscan_secs:.9}, \"points_per_sec\": {:.0}}},",
        *snapshot_n as f64 / *dbscan_secs
    );
    let _ = writeln!(
        s,
        "  \"recluster_probe_8pt\": {{\"median_nanos\": {:.0}}},",
        probe_secs * 1e9
    );
    // Geo point: lat/lon degree coordinates, density-tuned CSR grids.
    let _ = writeln!(s, "  \"trucks_geo\": {{");
    let _ = writeln!(
        s,
        "    \"workload\": {{\"generator\": \"trucks\", \"days\": {}, \"trucks_per_day\": {}, \"samples_per_day\": {}, \"seed\": {}, \"m\": {GEO_M}, \"k\": {GEO_K}, \"eps\": {GEO_EPS:e}}},",
        geo.cfg.days, geo.cfg.trucks_per_day, geo.cfg.samples_per_day, geo.cfg.seed
    );
    let _ = writeln!(
        s,
        "    \"dataset\": {{\"points\": {}, \"timestamps\": {}, \"objects\": {}, \"max_snapshot\": {}}},",
        geo.stats.num_points,
        geo.stats.num_timestamps,
        geo.stats.num_objects,
        geo.stats.max_snapshot_size
    );
    let _ = writeln!(s, "    \"mine\": {{");
    let _ = writeln!(s, "      \"runs\": {},", args.runs);
    let _ = writeln!(s, "      \"median_total_secs\": {:.6},", geo.mine_secs);
    // Throughput over the points the pruning pipeline actually touched
    // (dataset-size / mine-time would overstate a workload whose pruning
    // discards most snapshots before any per-point work).
    let _ = writeln!(
        s,
        "      \"points_per_sec\": {:.0},",
        geo.result.stats.pruning.points_processed() as f64 / geo.mine_secs
    );
    let _ = writeln!(s, "      \"convoys\": {},", geo.result.convoys.len());
    let _ = writeln!(
        s,
        "      \"points_processed\": {},",
        geo.result.stats.pruning.points_processed()
    );
    let gg = &geo.result.stats.grid;
    let _ = writeln!(
        s,
        "      \"grid\": {{\"grid_builds\": {}, \"grid_patches\": {}, \"cells_moved\": {}}},",
        gg.grid_builds, gg.grid_patches, gg.cells_moved
    );
    let _ = writeln!(
        s,
        "      \"pruning_ratio\": {:.4}",
        geo.result.stats.pruning.pruning_ratio()
    );
    s.push_str("    }\n  },\n");
    // Sustained ingest: compaction write amplification per policy and
    // insert latency per execution mode. `bytes_compacted` is a logical
    // count (entries merged x entry width), so the write-amp numbers are
    // machine-independent and deterministically gateable; the latency
    // percentiles are informational wall-clock.
    let _ = writeln!(s, "  \"ingest\": {{");
    let _ = writeln!(
        s,
        "    \"workload\": {{\"points\": {}, \"memtable_entries\": {}, \"max_tables\": {}, \"entry_bytes\": {}}},",
        ingest.points,
        ingest.memtable_entries,
        ingest.max_tables,
        KEY_SIZE + VAL_SIZE
    );
    let _ = writeln!(s, "    \"bytes_ingested\": {},", ingest.bytes_ingested);
    let side = |s: &mut String, name: &str, side: &IngestSide, last: bool| {
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"ingest_secs\": {:.6}, \"compactions\": {}, \"bytes_compacted\": {}, \"write_amp\": {:.4}, \"tables_final\": {}, \"insert_p50_nanos\": {}, \"insert_p99_nanos\": {}, \"insert_max_nanos\": {}}}{}",
            side.secs,
            side.io.compactions,
            side.io.bytes_compacted,
            side.io.bytes_compacted as f64 / ingest.bytes_ingested as f64,
            side.tables,
            side.p50_nanos,
            side.p99_nanos,
            side.max_nanos,
            if last { "" } else { "," }
        );
    };
    side(&mut s, "tiered", &ingest.tiered, false);
    side(&mut s, "full_merge", &ingest.full_merge, false);
    side(&mut s, "background", &ingest.background, false);
    let _ = writeln!(
        s,
        "    \"cache_probe\": {{\"cache_hits\": {}, \"cache_misses\": {}, \"hit_rate\": {:.4}}}",
        ingest.cache_hits,
        ingest.cache_misses,
        ingest.cache_hits as f64 / (ingest.cache_hits + ingest.cache_misses).max(1) as f64
    );
    s.push_str("  },\n");
    // MVCC serving: requests through the k2-server codec, each pinning
    // its own snapshot, racing a sustained insert stream. The hashes are
    // the determinism fingerprint (hex — exact u64 survives any JSON
    // parser); the insert percentiles are the reader-blocks-nothing
    // number the gate bounds against the unloaded ingest.background leg.
    let _ = writeln!(s, "  \"serving\": {{");
    let _ = writeln!(
        s,
        "    \"workload\": {{\"generator\": \"convoy-injector\", \"objects\": {}, \"timestamps\": {}, \"planted\": 3, \"convoy_size\": 5, \"seed\": {}, \"m\": {SERVE_M}, \"k\": {SERVE_K}, \"eps\": {SERVE_EPS:.1}}},",
        serving.objects, serving.timestamps, args.seed
    );
    let _ = writeln!(
        s,
        "    \"points\": {}, \"miners\": {SERVE_MINERS}, \"requests_per_miner\": {SERVE_REQUESTS}, \"worker_slots\": {SERVE_MINERS},",
        serving.points
    );
    let _ = writeln!(
        s,
        "    \"determinism\": {{\"threads_1\": {{\"convoys\": {}, \"hash\": \"{:016x}\"}}, \"threads_4\": {{\"convoys\": {}, \"hash\": \"{:016x}\"}}}},",
        serving.convoys_t1, serving.hash_t1, serving.convoys_t4, serving.hash_t4
    );
    let _ = writeln!(
        s,
        "    \"request_p50_nanos\": {}, \"request_p99_nanos\": {},",
        serving.request_p50_nanos, serving.request_p99_nanos
    );
    let _ = writeln!(
        s,
        "    \"insert_under_load\": {{\"inserts\": {}, \"p50_nanos\": {}, \"p99_nanos\": {}, \"max_nanos\": {}}},",
        serving.inserts,
        serving.insert_p50_nanos,
        serving.insert_p99_nanos,
        serving.insert_max_nanos
    );
    let _ = writeln!(
        s,
        "    \"max_live_pins\": {}, \"max_staleness\": {}",
        serving.max_live_pins, serving.max_staleness
    );
    s.push_str("  },\n");
    // Dataset-size axis: LSM-resident data mined by `K2Hop`.
    // `prefetch_bytes_peak` is deterministic (logical bytes of the largest
    // hop-window fetch) — the CI gate holds it under a committed ceiling
    // while `dataset.points` grows into the millions.
    s.push_str("  \"scale_axis\": [");
    for (i, e) in scale_entries.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = writeln!(s, "    {{");
        let _ = writeln!(
            s,
            "      \"workload\": {{\"generator\": \"brinkhoff\", \"scale\": {}, \"max_time\": {}, \"obj_begin\": 300, \"obj_time\": 5, \"seed\": {}, \"m\": {M}, \"k\": {K}, \"eps\": {EPS:.1}}},",
            e.scale, e.max_time, args.seed
        );
        let _ = writeln!(
            s,
            "      \"dataset\": {{\"points\": {}, \"timestamps\": {}, \"objects\": {}, \"max_snapshot\": {}}},",
            e.stats.num_points, e.stats.num_timestamps, e.stats.num_objects, e.stats.max_snapshot_size
        );
        let _ = writeln!(
            s,
            "      \"engine\": \"k2-lsmt\", \"threads\": {SCALE_THREADS},"
        );
        let _ = writeln!(
            s,
            "      \"gen_secs\": {:.3}, \"load_secs\": {:.3},",
            e.gen_secs, e.load_secs
        );
        let _ = writeln!(
            s,
            "      \"mine\": {{\"total_secs\": {:.6}, \"points_per_sec\": {:.0}, \"convoys\": {}, \"points_processed\": {}}},",
            e.mine_secs,
            e.stats.num_points as f64 / e.mine_secs,
            e.convoys,
            e.points_processed
        );
        let _ = writeln!(
            s,
            "      \"prefetch\": {{\"prefetch_bytes_peak\": {}}},",
            e.prefetch.prefetch_bytes_peak
        );
        let _ = writeln!(
            s,
            "      \"memory\": {{\"vm_rss_before_mine_bytes\": {}, \"vm_rss_after_mine_bytes\": {}, \"vm_hwm_bytes\": {}}}",
            e.vm_rss_before, e.vm_rss_after, e.vm_hwm
        );
        let _ = write!(s, "    }}");
    }
    s.push_str(if scale_entries.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    s.push_str("}\n");
    s
}
