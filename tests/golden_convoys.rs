//! End-to-end golden-output regression tests.
//!
//! Three fixed-seed workloads — Brinkhoff network traffic (metric
//! coordinates), Trucks depot runs and T-Drive taxi platoons (both
//! lat/lon degree coordinates, which also pin the geo-scale CSR grid
//! path) — are mined end to end and the *full* sorted convoy output is
//! asserted against committed expectations under `tests/golden/`. The
//! miner must reproduce the files bit for bit at every worker count, on
//! a resident source (steps fanned out over the workers) and on an
//! opaque one (steps run inline, as for the disk engines), so a future
//! refactor cannot silently change mining results and still pass CI.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```sh
//! K2_UPDATE_GOLDEN=1 cargo test --test golden_convoys
//! ```
//!
//! and commit the diff under `tests/golden/` together with the change
//! that explains it.

use k2hop::core::{ConvoyMiner, K2Config, K2Hop};
use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::datagen::tdrive::TDriveConfig;
use k2hop::datagen::trucks::TrucksConfig;
use k2hop::model::{Convoy, Dataset, ObjPos, Oid, Time, TimeInterval};
use k2hop::storage::{InMemoryStore, IoStats, SnapshotRef, SnapshotSource, StoreResult};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Hides the resident dataset so the miner takes the store path — every
/// step inline on the calling thread — without any disk I/O in the loop.
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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"))
}

/// Canonical text form: one convoy per line, `start-end: oid,oid,...`,
/// in the miners' canonical sorted order.
fn render(convoys: &[Convoy]) -> String {
    let mut s = String::new();
    for c in convoys {
        let _ = write!(s, "{}-{}:", c.start(), c.end());
        for (i, oid) in c.objects.iter().enumerate() {
            let _ = write!(s, "{}{oid}", if i == 0 { " " } else { "," });
        }
        s.push('\n');
    }
    s
}

/// Mines `dataset` at several worker counts, from the resident dataset
/// and from an opaque store, asserts they all agree, and diffs the
/// canonical output against `tests/golden/<name>.golden`.
fn golden_check(name: &str, dataset: Dataset, cfg: K2Config) {
    let opaque = OpaqueSource(InMemoryStore::new(dataset.clone()));
    let sequential = ConvoyMiner::mine(&K2Hop::with_threads(cfg, 1), &opaque)
        .expect("opaque in-memory mining cannot fail")
        .convoys;
    assert!(
        !sequential.is_empty(),
        "{name}: golden workload must contain convoys"
    );
    let sources: [&dyn SnapshotSource; 2] = [&dataset, &opaque];
    for threads in [1usize, 2, 4, 8] {
        for source in sources {
            let got = ConvoyMiner::mine(&K2Hop::with_threads(cfg, threads), source)
                .expect("in-memory mining cannot fail")
                .convoys;
            assert_eq!(
                got,
                sequential,
                "{name}: K2Hop on {} with {threads} threads",
                source.name()
            );
        }
    }

    let rendered = render(&sequential);
    let path = golden_path(name);
    if std::env::var_os("K2_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: cannot read {} ({e}); run with K2_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "{name}: mining output diverged from the committed golden file \
         {} — if the change is intentional, regenerate with K2_UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn brinkhoff_golden() {
    // Metric coordinates, organic convoys from shared motorway queues.
    let dataset = BrinkhoffConfig {
        max_time: 120,
        obj_begin: 60,
        obj_time: 2,
        ..BrinkhoffConfig::default()
    }
    .seed(42)
    .generate();
    golden_check("brinkhoff", dataset, K2Config::new(2, 20, 600.0).unwrap());
}

#[test]
fn trucks_golden() {
    // Degree coordinates around Athens; eps in the paper's lat/lon range,
    // which exercises the density-tuned CSR grid on every benchmark
    // snapshot.
    let dataset = TrucksConfig {
        days: 2,
        trucks_per_day: 12,
        samples_per_day: 400,
        ..TrucksConfig::default()
    }
    .seed(5)
    .generate();
    golden_check("trucks", dataset, K2Config::new(2, 30, 6.0e-4).unwrap());
}

#[test]
fn tdrive_golden() {
    // Degree coordinates around Beijing with taxi platoons.
    let dataset = TDriveConfig {
        num_taxis: 60,
        num_timestamps: 90,
        platoon_fraction: 0.25,
        seed: 0,
    }
    .seed(3)
    .generate();
    golden_check("tdrive", dataset, K2Config::new(2, 30, 2.0e-4).unwrap());
}
