//! [`K2Service`]: the request handler both transports share.
//!
//! Each `MineRange` request pins its own MVCC snapshot
//! ([`LsmStore::pin_snapshot`]),
//! clamps it to the requested time range ([`TimeRange`]), and runs a
//! mining session against the pinned view — so any number of mine
//! requests proceed concurrently with each other and with live ingest,
//! each seeing exactly the store contents at its own pin instant and
//! reporting exactly its own I/O.

use crate::pool::WorkerPool;
use crate::protocol::{MineReply, Pattern, Request, Response, StatsReply, WireConvoy};
use k2_core::{ConvoyMiner, K2Config, K2Hop, MineError, MineOutcome, MineStats};
use k2_model::{Convoy, Dataset, ObjPos, Snapshot};
use k2_patterns::{FlockConfig, FlockMiner};
use k2_storage::{LsmStore, SnapshotSource, StorePin, TimeRange};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The [`Request::MineRange`] fields, regrouped for the handler.
struct MineParams {
    t_lo: u32,
    t_hi: u32,
    pattern: Pattern,
    m: u32,
    k: u32,
    eps: f64,
    threads: u32,
}

/// The shared request handler: owns the store and serves [`Request`]s
/// from any number of threads.
#[derive(Debug)]
pub struct K2Service {
    store: LsmStore,
    requests: AtomicU64,
}

impl K2Service {
    /// Serves `store`.
    pub fn new(store: LsmStore) -> Self {
        Self {
            store,
            requests: AtomicU64::new(0),
        }
    }

    /// The served store.
    pub fn store(&self) -> &LsmStore {
        &self.store
    }

    /// Requests served so far (all kinds, including failed ones).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Serves one request. Never panics on bad input — malformed
    /// parameters come back as [`Response::Error`].
    pub fn handle(&self, req: Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::MineRange {
                t_lo,
                t_hi,
                pattern,
                m,
                k,
                eps,
                threads,
            } => self.mine(MineParams {
                t_lo,
                t_hi,
                pattern,
                m,
                k,
                eps,
                threads,
            }),
            Request::Ingest { points } => self.ingest(points),
            Request::Stats { quiesce } => self.stats(quiesce),
        }
    }

    fn mine(&self, params: MineParams) -> Response {
        let MineParams {
            t_lo,
            t_hi,
            pattern,
            m,
            k,
            eps,
            threads,
        } = params;
        if t_lo > t_hi {
            return Response::Error {
                message: format!("invalid range: t_lo {t_lo} > t_hi {t_hi}"),
            };
        }
        let config = match K2Config::new(m as usize, k, eps) {
            Ok(c) => c,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        let start = Instant::now();
        // Pin once: the request's whole view of the data, isolated from
        // every concurrent insert/flush/compaction.
        let pin = match self.store.pin_snapshot() {
            Ok(p) => p,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        let pin_version = pin.version();
        let ranged = TimeRange::new(pin, t_lo, t_hi);
        let outcome = match pattern {
            Pattern::Convoy => {
                let miner = if threads == 0 {
                    K2Hop::new(config)
                } else {
                    K2Hop::with_threads(config, threads as usize)
                };
                ConvoyMiner::mine(&miner, &ranged)
            }
            Pattern::Flock => mine_flocks(config, &ranged),
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        // Staleness at reply time: swaps published while we mined.
        let staleness = self.store.version().saturating_sub(pin_version);
        let t = &outcome.stats.timings;
        Response::Convoys(MineReply {
            engine: outcome.stats.engine.to_string(),
            threads: outcome.stats.threads as u32,
            pin_version,
            staleness,
            elapsed_nanos: start.elapsed().as_nanos() as u64,
            timings_nanos: [
                t.benchmark.as_nanos() as u64,
                t.intersect.as_nanos() as u64,
                t.hwmt.as_nanos() as u64,
                t.merge.as_nanos() as u64,
                t.extend_right.as_nanos() as u64,
                t.extend_left.as_nanos() as u64,
                t.validation.as_nanos() as u64,
            ],
            io: outcome.io,
            convoys: outcome.convoys.iter().map(wire_convoy).collect(),
        })
    }

    fn ingest(&self, points: Vec<k2_model::Point>) -> Response {
        let count = points.len() as u64;
        // One writer-lock acquisition for the whole batch.
        match self.store.insert_batch(points) {
            Ok(()) => Response::Ingested {
                count,
                version: self.store.version(),
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    fn stats(&self, quiesce: bool) -> Response {
        if quiesce {
            if let Err(e) = self.store.quiesce_maintenance() {
                return Response::Error {
                    message: e.to_string(),
                };
            }
        }
        Response::Stats(StatsReply {
            num_points: self.store.num_points(),
            num_tables: self.store.num_tables() as u64,
            memtable_len: self.store.memtable_len() as u64,
            version: self.store.version(),
            live_pins: self.store.live_pins(),
            maintenance_depth: self.store.compaction_queue_depth() as u64,
            requests_served: self.requests_served(),
        })
    }
}

/// Handles `req` on a `pool` worker — the one dispatch path of the TCP
/// server and [`LocalClient`](crate::LocalClient). A handler that
/// panics becomes [`Response::Error`] and its worker lives on.
pub(crate) fn handle_on(pool: &WorkerPool, service: &Arc<K2Service>, req: Request) -> Response {
    let service = Arc::clone(service);
    pool.run(move || service.handle(req))
        .unwrap_or_else(|panic| Response::Error {
            message: format!("request handler panicked: {panic}"),
        })
}

fn wire_convoy(c: &Convoy) -> WireConvoy {
    WireConvoy {
        oids: c.objects.ids().to_vec(),
        t_start: c.lifespan.start,
        t_end: c.lifespan.end,
    }
}

/// Flock mining over a pinned, range-clamped source — the same
/// materialise-then-mine shape as the facade's `MiningSession` (which
/// this crate cannot depend on without a cycle).
fn mine_flocks(config: K2Config, source: &TimeRange<StorePin>) -> Result<MineOutcome, MineError> {
    let t0 = Instant::now();
    let flock = FlockMiner::new(FlockConfig::new(config.m, config.k, config.eps));
    let dataset = materialize(source)?;
    let convoys = flock.mine_hop(&dataset);
    let mut stats = MineStats {
        engine: "flock-k2hop",
        threads: 1,
        timings: Default::default(),
        pruning: Default::default(),
        prefetch: Default::default(),
        grid: Default::default(),
    };
    stats.timings.hwmt = t0.elapsed();
    Ok(MineOutcome {
        convoys,
        stats,
        io: source.io_stats(),
    })
}

/// Reads every snapshot of `source` into an owned [`Dataset`].
fn materialize(source: &dyn SnapshotSource) -> Result<Dataset, MineError> {
    let span = source.span();
    let mut snapshots = Vec::with_capacity(span.len() as usize);
    let mut buf: Vec<ObjPos> = Vec::new();
    for t in span.iter() {
        let positions = source.scan_snapshot_ref(t, &mut buf)?.positions().to_vec();
        snapshots.push(Snapshot::from_sorted(positions));
    }
    Ok(Dataset::from_snapshots(span.start, snapshots))
}
