//! The benchmark's own tests: the correctness check catches a wrong
//! answer, inputs are a function of the seed, and a tiny run of every
//! workload reports every metric `BENCHMARK.json` names.

use crate::check::{self, Canon};
use crate::inputs::{Inputs, Scale, Workload};
use crate::run::{run, verify_served, Options, Report, ServedMine, END_TO_END, PER_LAYER};
use k2hop::server::{MineReply, Response, ServerError, WireConvoy};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// A run measures the memory of the whole process, so the tests that
/// generate data take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_work")
        .join(format!("test-{tag}-{}", std::process::id()))
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let _turn = serial();
    let tag = format!("{}-{seed}-{trace}", workload.name());
    let opts = Options {
        workload,
        seed,
        seconds: 0.5,
        trace,
        scale: Scale::TINY,
        work_dir: scratch(&tag),
        out_dir: scratch(&format!("{tag}-out")),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let _ = std::fs::remove_dir_all(&opts.out_dir);
    report
}

fn reply(convoys: Vec<WireConvoy>) -> Result<Response, ServerError> {
    Ok(Response::Convoys(MineReply {
        engine: "k2hop".into(),
        threads: 1,
        pin_version: 1,
        staleness: 0,
        elapsed_nanos: 1,
        timings_nanos: [0; 7],
        io: Default::default(),
        convoys,
    }))
}

#[test]
fn a_forged_wrong_reply_is_a_failure() {
    let _turn = serial();
    let inputs = Inputs::generate(Workload::ServeMine, &Scale::TINY, 3, 0.5);
    let (lo, hi) = inputs.hot[0];
    let expected = check::reference(&inputs.base, lo, hi);
    let right: Vec<WireConvoy> = expected
        .iter()
        .map(|(oids, s, e)| WireConvoy {
            oids: oids.clone(),
            t_start: *s,
            t_end: *e,
        })
        .collect();
    // The forgery drops a member of the first convoy, or invents a
    // convoy when the window has none.
    let mut forged = right.clone();
    match forged.first_mut() {
        Some(c) => {
            c.oids.pop();
        }
        None => forged.push(WireConvoy {
            oids: vec![1, 2],
            t_start: lo,
            t_end: hi,
        }),
    }
    let answers = [
        reply(right),
        reply(forged),
        Ok(Response::Error {
            message: "boom".into(),
        }),
        Err(ServerError::Protocol("torn frame".into())),
    ];
    let mines: Vec<ServedMine> = answers
        .iter()
        .map(|r| ServedMine {
            window: (lo, hi),
            ms: 1.0,
            traced: false,
            convoys: check::answer(r),
            reply: None,
            codec: None,
        })
        .collect();
    let mut refs: HashMap<_, Vec<Canon>> = HashMap::new();
    let verdicts = verify_served(&mines, &mut refs, &inputs.base);
    assert_eq!(verdicts, vec![true, false, false, false]);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let _turn = serial();
    for w in Workload::ALL {
        let a = Inputs::generate(w, &Scale::TINY, 5, 1.0);
        let b = Inputs::generate(w, &Scale::TINY, 5, 1.0);
        let c = Inputs::generate(w, &Scale::TINY, 6, 1.0);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
        // Only `serve-mixed` ingests.
        let ingests = w == Workload::ServeMixed;
        assert_eq!(!a.batches.is_empty(), ingests, "{}", w.name());
        assert!(a.batches.iter().all(|b| !b.is_empty()));
        assert_eq!(a.base.end() + 1, a.base_end);
        assert_eq!(a.extended.is_some(), ingests, "{}", w.name());
        assert_eq!(a.truth().start(), a.base.start());
    }
}

#[test]
fn a_second_seed_passes_the_checks() {
    for w in Workload::ALL {
        let r = tiny(w, 2, false);
        assert!(r.correct && r.failed == 0, "{}: {r:?}", w.name());
    }
}

/// The `"<key>": "..."` entries of one array in `BENCHMARK.json`.
fn declared(section: &str, key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split(&format!("\"{key}\": \""))
        .skip(1)
        .map(|s| s[..s.find('"').expect("value end")].to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_runs_report() {
    assert_eq!(declared("end_to_end", "name"), END_TO_END);
    assert_eq!(declared("per_layer", "name"), PER_LAYER);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads", "name"), workloads);
}

#[test]
fn a_tiny_run_of_each_workload_reports_every_metric() {
    for w in Workload::ALL {
        let plain = tiny(w, 1, false);
        assert!(plain.correct, "{}: {plain:?}", w.name());
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        let units: Vec<&str> = plain.metrics.iter().map(|m| m.unit).collect();
        assert_eq!(declared("end_to_end", "unit"), units);
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }

        let traced = tiny(w, 1, true);
        assert!(traced.correct, "{}: {traced:?}", w.name());
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER, "{}", w.name());
        let units: Vec<&str> = traced.metrics.iter().map(|m| m.unit).collect();
        assert_eq!(declared("per_layer", "unit"), units);
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(traced.get("fail_share"), Some(0.0));
        assert!(traced.get("trace.overhead").unwrap() > 0.0);
        let json = traced.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(PER_LAYER
            .iter()
            .all(|n| json.contains(&format!("\"{n}\": {{\"value\": "))));
        if w == Workload::MineBatch {
            assert!(traced.get("storage.gets").unwrap() > 0.0);
            assert!(traced.get("core.points_processed").unwrap() > 0.0);
        } else {
            assert!(traced.get("server.wire_ms").unwrap() > 0.0);
            assert!(traced.get("server.service_ms").unwrap() > 0.0);
        }
        if w == Workload::ServeMixed {
            assert!(traced.get("ingest_p50_ms").unwrap() > 0.0);
            assert!(traced.get("storage.wal_appends").unwrap() > 0.0);
        }
    }
}
