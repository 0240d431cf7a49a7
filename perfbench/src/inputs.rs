//! Seeded inputs: the Brinkhoff movement data, the base/continuation
//! split, the hot mine windows and the ingest batches.

use k2hop::datagen::brinkhoff::BrinkhoffConfig;
use k2hop::model::{Dataset, Point, Time, TimeInterval};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop `MineRange` over a hot window set, over TCP.
    ServeMine,
    /// Full-span `MiningSession` mines of an `LsmStore`, in process.
    MineBatch,
    /// Open-loop `Ingest` beside closed-loop `MineRange` of the freshest
    /// windows, over TCP.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::ServeMine, Self::MineBatch, Self::ServeMixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeMine => "serve-mine",
            Self::MineBatch => "mine-batch",
            Self::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and load shape. [`Scale::FULL`] is the benchmark;
/// [`Scale::TINY`] keeps the same shape small enough for unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Brinkhoff objects present at t = 0.
    pub obj_begin: u32,
    /// Brinkhoff objects added per tick.
    pub obj_time: u32,
    /// Ticks skipped before any slice starts: the start-up burst of
    /// `obj_begin` objects has thinned to the steady population by then.
    pub warmup: Time,
    /// Slices start anywhere in `warmup..warmup + slice_room`.
    pub slice_room: Time,
    /// Timestamps bulk-loaded into the served store.
    pub serve_base: Time,
    /// Timestamps bulk-loaded into the batch store.
    pub batch_base: Time,
    /// Length of a served mine window, in timestamps.
    pub window: Time,
    /// Windows in the `serve-mine` hot set.
    pub hot_windows: u32,
    /// Offset between consecutive hot windows.
    pub hot_stride: Time,
    /// Whole timestamps per ingest batch.
    pub batch_ts: Time,
    /// Ingest batches due per second (open loop).
    pub rate_hz: f64,
    /// Minimum samples per timed stream, so that p90 has ten beyond it.
    pub min_samples: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes (see `perfbench/WORKLOADS.md`).
    pub const FULL: Scale = Scale {
        obj_begin: 300,
        obj_time: 5,
        warmup: 200,
        slice_room: 2000,
        serve_base: 1300,
        batch_base: 3900,
        window: 200,
        hot_windows: 8,
        hot_stride: 5,
        batch_ts: 12,
        rate_hz: 10.0,
        min_samples: 100,
        setup_reps: 25,
    };

    /// Some 20 k points: every code path, in seconds.
    pub const TINY: Scale = Scale {
        obj_begin: 150,
        obj_time: 3,
        warmup: 20,
        slice_room: 50,
        serve_base: 120,
        batch_base: 200,
        window: 60,
        hot_windows: 3,
        hot_stride: 4,
        batch_ts: 5,
        rate_hz: 20.0,
        min_samples: 4,
        setup_reps: 2,
    };

    /// Timestamps of the slice the workload's store starts with.
    pub fn base_len(&self, w: Workload) -> Time {
        match w {
            Workload::MineBatch => self.batch_base,
            _ => self.serve_base,
        }
    }
}

/// SplitMix64: a tiny seeded generator for window picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6b32_6265_6e63_6821)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seed of the Brinkhoff road network and traffic. It is fixed: every
/// run drives the same city, and `--seed` picks the period of its
/// traffic that is loaded, the hot windows and the request order. Runs
/// of different seeds then differ in data, not in the size of the city,
/// which keeps their figures comparable.
pub const TRAFFIC_SEED: u64 = 0;

/// Everything a run feeds the program, derived from the seed alone.
#[derive(Debug)]
pub struct Inputs {
    /// The slice bulk-loaded at set-up: timestamps `base_start..base_end`.
    pub base: Dataset,
    /// The base followed by the ingest stream (`serve-mixed` only).
    pub extended: Option<Dataset>,
    /// First timestamp of the continuation.
    pub base_end: Time,
    /// The ingest stream: whole-timestamp batches of the continuation.
    pub batches: Vec<Vec<Point>>,
    /// The `serve-mine` hot set of `[lo, hi]` windows.
    pub hot: Vec<(Time, Time)>,
    /// Seeds the per-request window picks.
    pub pick_seed: u64,
}

impl Inputs {
    /// Generates the inputs of workload `w` for a run of `seconds`.
    pub fn generate(w: Workload, scale: &Scale, seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed);
        let base_start = scale.warmup + rng.below(scale.slice_room as u64) as Time;
        let base_end = base_start + scale.base_len(w);
        // Only `serve-mixed` ingests: every batch that can fall due, plus
        // one spare. The stream follows the latest possible slice, so the
        // generated volume, and with it the memory the run holds, does
        // not depend on the seed.
        let stream = if w == Workload::ServeMixed {
            let due = (seconds * scale.rate_hz).ceil() as u32;
            (due.max(scale.min_samples as u32) + 1) * scale.batch_ts
        } else {
            0
        };
        let total = scale.warmup + scale.slice_room + scale.base_len(w) + stream;
        let generated = BrinkhoffConfig {
            max_time: total,
            obj_begin: scale.obj_begin,
            obj_time: scale.obj_time,
            ..BrinkhoffConfig::default()
        }
        .seed(TRAFFIC_SEED)
        .generate();
        // Keep only the timestamps the run uses; the rest of the traffic
        // is dropped here, before the run measures memory.
        let end = base_end + stream - 1;
        let dataset = generated
            .restrict_time(TimeInterval::new(base_start, end))
            .expect("run span is non-empty");
        drop(generated);
        let base = dataset
            .restrict_time(TimeInterval::new(base_start, base_end - 1))
            .expect("base span is non-empty");
        let batches = (base_end..=end)
            .step_by(scale.batch_ts as usize)
            .map(|t0| {
                (t0..(t0 + scale.batch_ts).min(end + 1))
                    .flat_map(|t| {
                        dataset
                            .snapshot(t)
                            .into_iter()
                            .flat_map(move |s| s.positions().iter().map(move |p| (t, *p)))
                    })
                    .map(|(t, p)| Point::new(p.oid, p.x, p.y, t))
                    .collect()
            })
            .collect();
        // The hot set: overlapping windows over one region of the base.
        let hot_span = scale.window + (scale.hot_windows - 1) * scale.hot_stride;
        let room = scale.base_len(w).saturating_sub(hot_span).max(1) as u64;
        let region = base_start + rng.below(room) as Time;
        let hot = (0..scale.hot_windows)
            .map(|j| {
                let lo = region + j * scale.hot_stride;
                (lo, lo + scale.window - 1)
            })
            .collect();
        Self {
            base,
            extended: (stream > 0).then_some(dataset),
            base_end,
            batches,
            hot,
            pick_seed: rng.next_u64(),
        }
    }

    /// The data a mine's reference answer is computed from.
    pub fn truth(&self) -> &Dataset {
        self.extended.as_ref().unwrap_or(&self.base)
    }

    /// A byte encoding of every input, for determinism checks.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: &[u8]| out.extend_from_slice(v);
        for p in self.base.iter_points() {
            put(&p.oid.to_le_bytes());
            put(&p.t.to_le_bytes());
            put(&p.x.to_le_bytes());
            put(&p.y.to_le_bytes());
        }
        for b in &self.batches {
            put(&(b.len() as u64).to_le_bytes());
            for p in b {
                put(&p.oid.to_le_bytes());
                put(&p.t.to_le_bytes());
                put(&p.x.to_le_bytes());
                put(&p.y.to_le_bytes());
            }
        }
        for (lo, hi) in &self.hot {
            put(&lo.to_le_bytes());
            put(&hi.to_le_bytes());
        }
        put(&self.pick_seed.to_le_bytes());
        out
    }
}
