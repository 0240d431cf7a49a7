//! The three workloads: set-up, the timed loops, correctness checks and
//! the metrics they report.

use crate::check::{self, Canon};
use crate::heap;
use crate::inputs::{Inputs, Rng, Scale, Workload};
use crate::source::Timed;
use crate::stats::{self, Summary};
use crate::trace::{Span, SpanLog, Tracer};
use k2hop::model::{Dataset, Point, Time};
use k2hop::server::{
    K2Service, MineReply, Pattern, Request, Response, Server, ServerError, TcpClient,
};
use k2hop::storage::{IoStats, LsmConfig, LsmStore, SharedLsm, SnapshotSource};
use k2hop::{MineOutcome, MiningSession};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker slots of the served store: the `k2 serve` default.
const SERVER_WORKERS: usize = 4;

/// Clustering threads of the batch miner, fixed so that no figure
/// depends on the host's core count.
const BATCH_THREADS: usize = 2;

/// Bytes per stored point (key + value), the base of `space_amp` and
/// `storage.write_amp`.
const POINT_BYTES: f64 = 24.0;

/// Request ids of ingest batches start here, above any mine's.
const INGEST_REQ: u64 = 1 << 32;

/// The seven phases of Fig. 8i, in pipeline order, as span names.
const PHASES: [&str; 7] = [
    "core.benchmark",
    "core.intersect",
    "core.hwmt",
    "core.merge",
    "core.extend_right",
    "core.extend_left",
    "core.validation",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds every input.
    pub seed: u64,
    /// Seconds the timed loops run (at least; see [`Scale::min_samples`]).
    pub seconds: f64,
    /// Traced run: record spans and report the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for the stores; removed at the end.
    pub work_dir: PathBuf,
    /// Where the span log is written in a traced run.
    pub out_dir: PathBuf,
}

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted (mines and ingest batches).
    pub attempted: u64,
    /// Operations that failed: errors, transport failures, wrong answers.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable notes: sample counts and tails.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Names of the end-to-end metrics, in report order.
pub const END_TO_END: [&str; 4] = ["mine_p50_ms", "setup_s", "heap_peak_mb", "space_amp"];

/// Names of the per-layer metrics, in report order.
pub const PER_LAYER: [&str; 41] = [
    "fail_share",
    "trace.overhead",
    "host.steal_share",
    "rss_peak_mb",
    "mine_p90_ms",
    "ingest_p50_ms",
    "ingest_p90_ms",
    "loadgen.lag_ms",
    "server.wire_ms",
    "server.pin_ms",
    "server.pin_p90_ms",
    "server.service_ms",
    "server.staleness",
    "server.codec_us",
    "server.resp_bytes",
    "core.benchmark_ms",
    "core.intersect_ms",
    "core.hwmt_ms",
    "core.merge_ms",
    "core.extend_right_ms",
    "core.extend_left_ms",
    "core.validation_ms",
    "core.self_ms",
    "core.points_processed",
    "core.pruning_ratio",
    "cluster.grid_builds",
    "cluster.grid_patches",
    "storage.scan_ms",
    "storage.scans",
    "storage.get_ms",
    "storage.gets",
    "storage.blocks_read",
    "storage.bytes_read",
    "storage.cache_hit_ratio",
    "storage.bloom_negatives",
    "storage.wal_appends",
    "storage.compactions",
    "storage.tables_end",
    "storage.write_amp",
    "mine.samples",
    "ingest.samples",
];

/// Everything the timed loops observe.
#[derive(Default)]
struct Observed {
    /// Mine latency (round trip or `mine()` call), ms, untraced requests.
    mine_ms: Vec<f64>,
    /// The same for traced requests.
    mine_traced_ms: Vec<f64>,
    /// Ingest latency from the batch's due time, ms.
    ingest_ms: Vec<f64>,
    /// How late each batch was sent, ms.
    lag_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Per traced mine: the I/O it caused.
    io: Vec<IoStats>,
    /// Per traced served mine.
    staleness: Vec<f64>,
    codec_us: Vec<f64>,
    resp_bytes: Vec<f64>,
    /// Per traced batch mine: its store calls.
    store_calls: Vec<StoreCalls>,
    /// Per traced batch mine: Table 5 and grid counters.
    points_processed: Vec<f64>,
    pruning_ratio: Vec<f64>,
    grid_builds: Vec<f64>,
    grid_patches: Vec<f64>,
    /// Write path over the whole run.
    write_io: IoStats,
    ingested_points: u64,
    tables_end: u64,
    setup_s: Vec<f64>,
    space_amp: f64,
    /// Memory once the inputs exist, and how far it rose above that
    /// during set-up and the timed loops.
    memory: MemoryUse,
    /// Share of the machine's CPU time the host took away during set-up
    /// and the timed loops.
    steal_share: f64,
    spans: Vec<Span>,
}

/// The store calls of one traced batch mine, summed from its spans.
#[derive(Debug, Default, Clone, Copy)]
struct StoreCalls {
    mine_ns: u64,
    scans: u64,
    scan_ns: u64,
    gets: u64,
    get_ns: u64,
}

/// Traced batch mines whose store-call spans are kept and written out.
/// A batch mine makes some 13 000 store calls; for the other mines the
/// spans are summed into [`StoreCalls`] and dropped, which keeps a traced
/// run's memory and span log small.
const KEPT_STORE_MINES: usize = 3;

impl Observed {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// When the timed loops stop: at `deadline` once `min` samples are in,
/// and in any case at `hard`.
#[derive(Debug, Clone, Copy)]
struct Stop {
    deadline: Instant,
    hard: Instant,
    min: usize,
}

impl Stop {
    fn new(seconds: f64, min: usize) -> Self {
        let now = Instant::now();
        Self {
            deadline: now + Duration::from_secs_f64(seconds),
            hard: now + Duration::from_secs_f64(seconds * 3.0 + 5.0),
            min,
        }
    }

    fn done(&self, samples: usize) -> bool {
        let now = Instant::now();
        (now >= self.deadline && samples >= self.min) || now >= self.hard
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let inputs = Inputs::generate(opts.workload, &opts.scale, opts.seed, opts.seconds);
    let cpu_before = cpu_steal();
    let result = match opts.workload {
        Workload::MineBatch => mine_batch(opts, &inputs),
        served => serve(opts, &inputs, served == Workload::ServeMixed),
    };
    let cpu_after = cpu_steal();
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let mut obs = result?;
    obs.steal_share = stats::ratio(
        cpu_after.0.saturating_sub(cpu_before.0) as f64,
        cpu_after.1.saturating_sub(cpu_before.1) as f64,
    );
    if opts.trace {
        std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("out dir: {e}"))?;
        let path = opts
            .out_dir
            .join(format!("{}.trace.tsv", opts.workload.name()));
        let log = SpanLog::new(std::mem::take(&mut obs.spans));
        std::fs::write(&path, log.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(report(obs, Some(&log)))
    } else {
        Ok(report(obs, None))
    }
}

// ---- served workloads ---------------------------------------------------

/// `serve-mine` and `serve-mixed`: the shipped server on loopback,
/// driven by the shipped `TcpClient`.
fn serve(opts: &Options, inputs: &Inputs, mixed: bool) -> Result<Observed, String> {
    let mut obs = Observed::default();
    let memory = Memory::reset()?;
    let (server, service, store_dir) = serve_setup(opts, inputs, &mut obs)?;
    let addr = server.addr();
    let epoch = Instant::now();
    let scale = &opts.scale;
    let io_before = service.store().io_stats();
    let stop = Stop::new(opts.seconds, scale.min_samples);
    let mut client = TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut tracer = Tracer::new(epoch, 1);

    let mines = if mixed {
        let mut ingest_client = TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut ingest_tracer = Tracer::new(epoch, 2);
        let acked = AtomicU32::new(inputs.base_end - 1);
        let (mines, ingest) = std::thread::scope(|s| {
            let ingest = s.spawn(|| {
                ingest_stream(
                    &inputs.batches,
                    scale.rate_hz,
                    stop,
                    &mut ingest_tracer,
                    opts.trace,
                    |j, req| {
                        let r = ingest_client.request(req);
                        let ok = check::ingest_ok(&r, inputs.batches[j].len());
                        if ok {
                            acked.store(last_t(&inputs.batches[j]), Ordering::Release);
                        }
                        ok
                    },
                )
            });
            let mines = mine_loop(&mut client, stop, &mut tracer, opts.trace, |_| {
                let hi = acked.load(Ordering::Acquire);
                (hi + 1 - scale.window, hi)
            });
            (mines, ingest.join().expect("ingest thread panicked"))
        });
        ingest.fold_into(&mut obs);
        obs.spans.extend(ingest_tracer.into_spans());
        mines
    } else {
        let mut rng = Rng::new(inputs.pick_seed);
        let hot = &inputs.hot;
        mine_loop(&mut client, stop, &mut tracer, opts.trace, |_| {
            hot[rng.below(hot.len() as u64) as usize]
        })
    };

    // Settle the store, then read its size and write-path counters.
    let stats = match client.request(&Request::Stats { quiesce: true }) {
        Ok(Response::Stats(s)) => s,
        other => return Err(format!("stats request failed: {other:?}")),
    };
    obs.write_io = service.store().io_stats().since(&io_before);
    obs.tables_end = stats.num_tables;
    obs.space_amp = dir_bytes(&store_dir) as f64 / (stats.num_points as f64 * POINT_BYTES);
    drop(client);
    stop_server(server, service);
    obs.memory = memory.read();

    // Correctness, outside the timed loops.
    let mut refs = HashMap::new();
    for (m, ok) in mines
        .iter()
        .zip(verify_served(&mines, &mut refs, inputs.truth()))
    {
        obs.count(ok);
        if m.traced {
            obs.mine_traced_ms.push(m.ms);
        } else {
            obs.mine_ms.push(m.ms);
        }
        if let Some(r) = &m.reply {
            obs.io.push(r.io);
            obs.staleness.push(r.staleness as f64);
        }
        if let Some((us, bytes)) = m.codec {
            obs.codec_us.push(us);
            obs.resp_bytes.push(bytes);
        }
    }
    obs.spans.extend(tracer.into_spans());
    Ok(obs)
}

/// Bulk-loads the base and binds a server, `setup_reps` times; keeps
/// the last. Each repetition first closes the one before it.
fn serve_setup(
    opts: &Options,
    inputs: &Inputs,
    obs: &mut Observed,
) -> Result<(Server, Arc<K2Service>, PathBuf), String> {
    let mut kept: Option<(Server, Arc<K2Service>, PathBuf)> = None;
    for rep in 0..opts.scale.setup_reps {
        if let Some((old_server, old_service, old_dir)) = kept.take() {
            stop_server(old_server, old_service);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = opts.work_dir.join(format!("store-{rep}"));
        let t0 = Instant::now();
        let store = SharedLsm::bulk_load_with(&dir, &inputs.base, LsmConfig::default())
            .map_err(|e| format!("bulk load: {e}"))?;
        let service = Arc::new(K2Service::new(store));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), SERVER_WORKERS)
            .map_err(|e| format!("bind: {e}"))?;
        obs.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((server, service, dir));
    }
    kept.ok_or_else(|| "no set-up repetitions".to_string())
}

/// Stops the accept loop and waits until every connection thread has
/// let go of the service, so the store closes before we return.
fn stop_server(server: Server, service: Arc<K2Service>) {
    drop(server);
    let give_up = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&service) > 1 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(service);
}

/// One served mine request as observed by the client.
pub(crate) struct ServedMine {
    pub(crate) window: (Time, Time),
    pub(crate) ms: f64,
    pub(crate) traced: bool,
    /// The reply's convoys, `None` on any error.
    pub(crate) convoys: Option<Vec<Canon>>,
    /// The reply itself, kept for traced requests.
    pub(crate) reply: Option<MineReply>,
    /// Traced requests: codec time (µs) and response size (bytes).
    pub(crate) codec: Option<(f64, f64)>,
}

/// Whether each served mine got the right answer. References missing
/// from `refs` are mined from `dataset` over the mine's window.
pub(crate) fn verify_served(
    mines: &[ServedMine],
    refs: &mut HashMap<(Time, Time), Vec<Canon>>,
    dataset: &Dataset,
) -> Vec<bool> {
    mines
        .iter()
        .map(|m| {
            let (lo, hi) = m.window;
            let expected = refs
                .entry(m.window)
                .or_insert_with(|| check::reference(dataset, lo, hi));
            m.convoys.as_ref() == Some(expected)
        })
        .collect()
}

/// The closed mine loop over one connection. In a traced run every
/// second request is traced, so traced and untraced requests see the
/// same conditions.
fn mine_loop(
    client: &mut TcpClient,
    stop: Stop,
    tracer: &mut Tracer,
    trace: bool,
    mut window: impl FnMut(u64) -> (Time, Time),
) -> Vec<ServedMine> {
    let mut out = Vec::new();
    let mut i = 0u64;
    while !stop.done(out.len()) {
        let (lo, hi) = window(i);
        let req = Request::MineRange {
            t_lo: lo,
            t_hi: hi,
            pattern: Pattern::Convoy,
            m: check::M as u32,
            k: check::K,
            eps: check::EPS,
            threads: 1,
        };
        let traced = trace && i % 2 == 1;
        let start = Instant::now();
        let result = client.request(&req);
        let end = Instant::now();
        let mut mine = ServedMine {
            window: (lo, hi),
            ms: (end - start).as_secs_f64() * 1e3,
            traced,
            convoys: check::answer(&result),
            reply: None,
            codec: None,
        };
        if traced {
            let id = tracer.record("mine.request", 0, i, start, end);
            if let Some(r) = check::mine_reply(&result) {
                record_server_spans(tracer, id, i, r);
                mine.codec = Some(time_codec(tracer, i, &req, &result));
                mine.reply = Some(r.clone());
            }
        }
        out.push(mine);
        i += 1;
    }
    out
}

/// Rebuilds the server side of a traced request from its reply: the
/// service span (`elapsed_nanos`) centred in the round trip, the time
/// before mining (`server.pin`: service minus the phases), then the
/// seven phases end to end.
fn record_server_spans(tracer: &mut Tracer, request: u64, req: u64, r: &MineReply) {
    let rt = tracer.get(request);
    let service = r.elapsed_nanos.min(rt.nanos());
    let start = rt.start + (rt.nanos() - service) / 2;
    let id = tracer.reported(
        "server.service",
        request,
        req,
        start,
        Duration::from_nanos(service),
    );
    let phases: u64 = r.timings_nanos.iter().sum::<u64>().min(service);
    let pin = service - phases;
    tracer.reported("server.pin", id, req, start, Duration::from_nanos(pin));
    let mut at = start + pin;
    for (name, &ns) in PHASES.iter().zip(&r.timings_nanos) {
        tracer.reported(name, id, req, at, Duration::from_nanos(ns));
        at += ns;
    }
}

/// Times `encode`/`decode` of the request and its response, as the two
/// ends of the wire do them. Returns (µs, response bytes).
fn time_codec(
    tracer: &mut Tracer,
    req_id: u64,
    req: &Request,
    result: &Result<Response, ServerError>,
) -> (f64, f64) {
    let Ok(resp) = result else {
        return (0.0, 0.0);
    };
    let start = Instant::now();
    let req_bytes = std::hint::black_box(req.encode());
    let _ = std::hint::black_box(Request::decode(&req_bytes));
    let resp_bytes = std::hint::black_box(resp.encode());
    let _ = std::hint::black_box(Response::decode(&resp_bytes));
    let end = Instant::now();
    tracer.record("server.codec", 0, req_id, start, end);
    ((end - start).as_secs_f64() * 1e6, resp_bytes.len() as f64)
}

/// What the ingest stream observed.
#[derive(Default)]
struct IngestLog {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    ok: Vec<bool>,
    points: u64,
}

impl IngestLog {
    fn fold_into(self, obs: &mut Observed) {
        for ok in &self.ok {
            obs.count(*ok);
        }
        obs.ingest_ms = self.latency_ms;
        obs.lag_ms = self.lag_ms;
        obs.ingested_points = self.points;
    }
}

/// The open-loop ingest generator: batch `j` falls due at `j / rate`
/// seconds. It waits for a due time but never for a late batch, and
/// times each batch from when it was due, so a stall also counts against
/// the batches queued behind it.
fn ingest_stream(
    batches: &[Vec<Point>],
    rate_hz: f64,
    stop: Stop,
    tracer: &mut Tracer,
    trace: bool,
    mut send: impl FnMut(usize, &Request) -> bool,
) -> IngestLog {
    let mut log = IngestLog::default();
    let start = Instant::now();
    for (j, batch) in batches.iter().enumerate() {
        let due = start + Duration::from_secs_f64(j as f64 / rate_hz);
        if (due >= stop.deadline && j >= stop.min) || Instant::now() >= stop.hard {
            break;
        }
        let req = Request::Ingest {
            points: batch.clone(),
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let ok = send(j, &req);
        let done = Instant::now();
        log.latency_ms.push((done - due).as_secs_f64() * 1e3);
        log.lag_ms.push((sent - due).as_secs_f64() * 1e3);
        log.ok.push(ok);
        log.points += batch.len() as u64;
        if trace {
            let req = INGEST_REQ + j as u64;
            let id = tracer.record("ingest", 0, req, due, done);
            tracer.record("ingest.send", id, req, sent, done);
        }
    }
    log
}

fn last_t(batch: &[Point]) -> Time {
    batch
        .iter()
        .map(|p| p.t)
        .max()
        .expect("non-empty ingest batch")
}

// ---- batch workload -----------------------------------------------------

/// `mine-batch`: what `k2 mine --engine lsmt` runs, in process — a
/// bulk-loaded `LsmStore` mined by a two-thread `MiningSession`.
fn mine_batch(opts: &Options, inputs: &Inputs) -> Result<Observed, String> {
    let mut obs = Observed::default();
    let scale = &opts.scale;
    let session = MiningSession::new(check::config()).threads(BATCH_THREADS);
    let expected = check::canon(
        &session
            .mine(&inputs.base)
            .map_err(|e| format!("reference mine: {e}"))?
            .convoys,
    );
    let memory = Memory::reset()?;
    let mut kept: Option<(LsmStore, PathBuf)> = None;
    for rep in 0..scale.setup_reps {
        if let Some((old, old_dir)) = kept.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = opts.work_dir.join(format!("store-{rep}"));
        let t0 = Instant::now();
        let store =
            LsmStore::bulk_load(&dir, &inputs.base).map_err(|e| format!("bulk load: {e}"))?;
        obs.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((store, dir));
    }
    let (mut store, store_dir) = kept.ok_or("no set-up repetitions")?;
    let io_before = store.io_stats();
    // One untimed warm-up mine fills the cache and the page cache.
    let warm = session
        .mine(&store)
        .map_err(|e| format!("warm-up mine: {e}"))?;
    obs.count(check::canon(&warm.convoys) == expected);

    let epoch = Instant::now();
    let tracer = RefCell::new(Tracer::new(epoch, 1));
    let stop = Stop::new(opts.seconds, scale.min_samples);
    let mut i = 0u64;
    while !stop.done(obs.mine_ms.len() + obs.mine_traced_ms.len()) {
        let traced = opts.trace && i % 2 == 1;
        let outcome = if traced {
            traced_batch_mine(&session, &store, &tracer, i, &mut obs)
        } else {
            let start = Instant::now();
            let outcome = session.mine(&store);
            obs.mine_ms.push(start.elapsed().as_secs_f64() * 1e3);
            outcome
        };
        obs.count(outcome.is_ok_and(|o| check::canon(&o.convoys) == expected));
        i += 1;
    }

    store
        .wait_for_compactions()
        .map_err(|e| format!("quiesce: {e}"))?;
    obs.write_io = store.io_stats().since(&io_before);
    obs.tables_end = store.num_tables() as u64;
    obs.space_amp = dir_bytes(&store_dir) as f64 / (store.num_points() as f64 * POINT_BYTES);
    obs.memory = memory.read();
    obs.spans = tracer.into_inner().into_spans();
    Ok(obs)
}

/// One traced batch mine: a `mine` span, the store calls under it, and
/// the phases as reported by `MineStats`, laid end to end from the
/// mine's start.
fn traced_batch_mine(
    session: &MiningSession,
    store: &LsmStore,
    tracer: &RefCell<Tracer>,
    req: u64,
    obs: &mut Observed,
) -> Result<MineOutcome, k2hop::MineError> {
    let timed = Timed::traced(store, tracer);
    let (id, mark) = {
        let mut t = tracer.borrow_mut();
        (t.begin("mine", 0, req), t.mark())
    };
    timed.set_parent(id, req);
    let before = store.io_stats();
    let outcome = session.mine(&timed);
    let mut t = tracer.borrow_mut();
    t.end(id);
    let span = t.get(id);
    obs.mine_traced_ms.push(span.nanos() as f64 / 1e6);
    obs.io.push(store.io_stats().since(&before));
    let mut calls = StoreCalls {
        mine_ns: span.nanos(),
        ..StoreCalls::default()
    };
    for s in t.since(mark) {
        let (n, ns) = match s.name {
            "store.scan" => (&mut calls.scans, &mut calls.scan_ns),
            "store.get" => (&mut calls.gets, &mut calls.get_ns),
            _ => continue,
        };
        *n += 1;
        *ns += s.nanos();
    }
    obs.store_calls.push(calls);
    if obs.store_calls.len() > KEPT_STORE_MINES {
        t.discard(mark, |s| s.name.starts_with("store."));
    }
    if let Ok(o) = &outcome {
        let mut at = span.start;
        for (name, (_, dur)) in PHASES.iter().zip(o.stats.timings.rows()) {
            t.reported(name, id, req, at, dur);
            at += dur.as_nanos() as u64;
        }
        let p = &o.stats.pruning;
        obs.points_processed.push(p.points_processed() as f64);
        obs.pruning_ratio.push(p.pruning_ratio());
        obs.grid_builds.push(o.stats.grid.grid_builds as f64);
        obs.grid_patches.push(o.stats.grid.grid_patches as f64);
    }
    outcome
}

// ---- metrics ------------------------------------------------------------

/// Memory measured from a baseline taken once the inputs exist, so that
/// the peaks cover what set-up and the timed loops add, not the data the
/// benchmark holds or the transient of generating it.
struct Memory {
    heap: usize,
    rss_mb: f64,
}

/// What [`Memory::read`] found, in MB.
#[derive(Debug, Default, Clone, Copy)]
struct MemoryUse {
    /// Live heap once the inputs exist.
    heap_base: f64,
    /// How far live heap rose above that.
    heap_peak: f64,
    /// Resident memory once the inputs exist.
    rss_base: f64,
    /// How far resident memory rose above that.
    rss_peak: f64,
}

impl Memory {
    /// Restarts both high-water marks. Freed heap goes back to the
    /// system first, and the kernel's mark (`VmHWM`) is reset to the
    /// current `VmRSS` by writing `5` to `/proc/self/clear_refs`.
    fn reset() -> Result<Self, String> {
        trim_heap();
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("resetting the peak-memory mark: {e}"))?;
        Ok(Self {
            heap: heap::reset_peak(),
            rss_mb: proc_status_mb("VmRSS"),
        })
    }

    /// The baselines and the rise of each peak above them.
    fn read(&self) -> MemoryUse {
        MemoryUse {
            heap_base: mb(self.heap),
            heap_peak: mb(heap::peak().saturating_sub(self.heap)),
            rss_base: self.rss_mb,
            rss_peak: (proc_status_mb("VmHWM") - self.rss_mb).max(0.0),
        }
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Returns free heap pages to the system, so that the baseline holds
/// only live data.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` only releases unused heap memory.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// One memory field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's (steal, total) CPU time so far, in clock ticks, from
/// the first line of `/proc/stat`; zeros where it is unavailable.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...; guest time is
    // already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn summary_note(label: &str, samples: &[f64]) -> String {
    match Summary::of(samples) {
        Some(s) => {
            let tail = s
                .tail
                .map_or("none".to_string(), |(p, v)| format!("p{p} {v:.3}"));
            format!(
                "{label}: n={} p50 {:.3} p90 {:.3}{} tail {tail}",
                s.n,
                s.p50,
                s.p90,
                if s.p90_supported() {
                    ""
                } else {
                    " (fewer than 10 beyond p90)"
                }
            )
        }
        None => format!("{label}: no samples"),
    }
}

fn report(obs: Observed, log: Option<&SpanLog>) -> Report {
    let mut notes = vec![
        summary_note("mine ms (untraced)", &obs.mine_ms),
        summary_note("mine ms (traced)", &obs.mine_traced_ms),
        summary_note("ingest ms from due", &obs.ingest_ms),
        summary_note("ingest lag ms", &obs.lag_ms),
    ];
    notes.push(format!(
        "setup_s reps {:?}; ingested {} points; {} compactions",
        obs.setup_s, obs.ingested_points, obs.write_io.compactions
    ));
    notes.push(format!("host steal share {:.4}", obs.steal_share));
    let mem = obs.memory;
    notes.push(format!(
        "memory MB once the inputs exist: heap {:.1} (peak {:.2} above), resident {:.1} (peak {:.2} above)",
        mem.heap_base, mem.heap_peak, mem.rss_base, mem.rss_peak
    ));
    let metrics = match log {
        None => end_to_end(&obs),
        Some(log) => per_layer(&obs, log),
    };
    Report {
        correct: obs.failed == 0,
        attempted: obs.attempted.max(1),
        failed: obs.failed,
        metrics,
        notes,
    }
}

fn end_to_end(obs: &Observed) -> Vec<Metric> {
    let values = [
        stats::median(&obs.mine_ms),
        stats::median(&obs.setup_s),
        obs.memory.heap_peak,
        obs.space_amp,
    ];
    let units = ["ms", "s", "MB", "ratio"];
    END_TO_END
        .iter()
        .zip(values)
        .zip(units)
        .map(|((&name, value), unit)| Metric { name, value, unit })
        .collect()
}

fn per_layer(obs: &Observed, log: &SpanLog) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        debug_assert!(PER_LAYER.contains(&name), "unlisted metric {name}");
        m.push(Metric { name, value, unit });
    };
    let fail_share = stats::ratio(obs.failed as f64, obs.attempted as f64);
    put("fail_share", fail_share, "ratio");
    let traced = stats::median(&obs.mine_traced_ms);
    let overhead = stats::ratio(traced, stats::median(&obs.mine_ms));
    put("trace.overhead", overhead, "ratio");
    put("host.steal_share", obs.steal_share, "ratio");
    put("rss_peak_mb", obs.memory.rss_peak, "MB");
    let untraced = Summary::of(&obs.mine_ms);
    put("mine_p90_ms", untraced.map_or(0.0, |s| s.p90), "ms");
    let ingest = Summary::of(&obs.ingest_ms);
    put("ingest_p50_ms", ingest.map_or(0.0, |s| s.p50), "ms");
    put("ingest_p90_ms", ingest.map_or(0.0, |s| s.p90), "ms");
    put(
        "loadgen.lag_ms",
        Summary::of(&obs.lag_ms).map_or(0.0, |s| s.p90),
        "ms",
    );

    // k2-server: the wire is the round trip minus the service under it.
    let wire: Vec<f64> = log
        .named("server.service")
        .filter_map(|s| Some((log.parent(s)?.nanos() - s.nanos()) as f64 / 1e6))
        .collect();
    put("server.wire_ms", stats::median(&wire), "ms");
    let pin = Summary::of(&log.durations_ms("server.pin"));
    put("server.pin_ms", pin.map_or(0.0, |s| s.p50), "ms");
    put("server.pin_p90_ms", pin.map_or(0.0, |s| s.p90), "ms");
    put(
        "server.service_ms",
        stats::median(&log.durations_ms("server.service")),
        "ms",
    );
    put("server.staleness", stats::mean(&obs.staleness), "count");
    put("server.codec_us", stats::median(&obs.codec_us), "us");
    put("server.resp_bytes", stats::mean(&obs.resp_bytes), "B");

    // k2-core: the seven phases, whichever side mined.
    let phase_metrics = [
        "core.benchmark_ms",
        "core.intersect_ms",
        "core.hwmt_ms",
        "core.merge_ms",
        "core.extend_right_ms",
        "core.extend_left_ms",
        "core.validation_ms",
    ];
    for (metric, span) in phase_metrics.into_iter().zip(PHASES) {
        put(metric, stats::median(&log.durations_ms(span)), "ms");
    }
    // In-process mines: core self time is the mine minus its store calls.
    let per_call = |f: fn(&StoreCalls) -> f64| -> f64 {
        stats::median(&obs.store_calls.iter().map(f).collect::<Vec<_>>())
    };
    let core_self = per_call(|c| c.mine_ns.saturating_sub(c.scan_ns + c.get_ns) as f64 / 1e6);
    put("core.self_ms", core_self, "ms");
    put(
        "core.points_processed",
        stats::median(&obs.points_processed),
        "count",
    );
    put(
        "core.pruning_ratio",
        stats::median(&obs.pruning_ratio),
        "ratio",
    );
    put(
        "cluster.grid_builds",
        stats::median(&obs.grid_builds),
        "count",
    );
    put(
        "cluster.grid_patches",
        stats::median(&obs.grid_patches),
        "count",
    );

    // k2-storage read path, per traced mine.
    put(
        "storage.scan_ms",
        per_call(|c| c.scan_ns as f64 / 1e6),
        "ms",
    );
    put("storage.scans", per_call(|c| c.scans as f64), "count");
    put("storage.get_ms", per_call(|c| c.get_ns as f64 / 1e6), "ms");
    put("storage.gets", per_call(|c| c.gets as f64), "count");
    let per_mine = |f: fn(&IoStats) -> u64| -> f64 {
        stats::median(&obs.io.iter().map(|io| f(io) as f64).collect::<Vec<_>>())
    };
    put(
        "storage.blocks_read",
        per_mine(|io| io.blocks_read),
        "count",
    );
    put("storage.bytes_read", per_mine(|io| io.bytes_read), "B");
    let hits: u64 = obs.io.iter().map(|io| io.cache_hits).sum();
    let misses: u64 = obs.io.iter().map(|io| io.cache_misses).sum();
    let hit_ratio = stats::ratio(hits as f64, (hits + misses) as f64);
    put("storage.cache_hit_ratio", hit_ratio, "ratio");
    put(
        "storage.bloom_negatives",
        per_mine(|io| io.bloom_negatives),
        "count",
    );

    // k2-storage write path, over the whole run.
    put(
        "storage.wal_appends",
        obs.write_io.wal_appends as f64,
        "count",
    );
    put(
        "storage.compactions",
        obs.write_io.compactions as f64,
        "count",
    );
    put("storage.tables_end", obs.tables_end as f64, "count");
    let ingested = obs.ingested_points as f64 * POINT_BYTES;
    let write_amp = stats::ratio(obs.write_io.bytes_compacted as f64, ingested);
    put("storage.write_amp", write_amp, "ratio");
    put(
        "mine.samples",
        (obs.mine_ms.len() + obs.mine_traced_ms.len()) as f64,
        "count",
    );
    put("ingest.samples", obs.ingest_ms.len() as f64, "count");
    m
}
