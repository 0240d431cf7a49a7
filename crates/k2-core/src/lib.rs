//! # k2-core — the k/2-hop convoy mining algorithm
//!
//! A faithful implementation of Algorithm 1 of the paper (§4). The six
//! steps map to the modules of this crate:
//!
//! 1. **Benchmark clustering** ([`benchpoints`], [`candidates`]) — DBSCAN
//!    the full snapshots only at every ⌊k/2⌋-th timestamp.
//! 2. **Candidate clusters** ([`candidates`]) — set-wise intersection of
//!    adjacent benchmark cluster sets, discarding sets smaller than `m`.
//! 3. **HWMT** ([`hwmt`]) — per hop-window re-clustering of the candidate
//!    objects in binary-tree (farthest-first) timestamp order, yielding
//!    1st-order spanning convoys.
//! 4. **DCM merge** ([`merge`]) — left-to-right merging of adjacent
//!    spanning convoys into maximal spanning convoys.
//! 5. **Extension** ([`extend`]) — extendRight / extendLeft to recover the
//!    true convoy endpoints inside the bordering hop-windows.
//! 6. **Validation** ([`validate`]) — the corrected HWMT\*-based recursive
//!    validation producing maximal *fully connected* convoys.
//!
//! The entry point is the [`ConvoyMiner`] trait — implemented by
//! [`K2Hop`] (sequential pipeline, sharded benchmark clustering) and
//! [`K2HopParallel`] (every phase parallel) — which mines any
//! [`SnapshotSource`] (in-memory dataset,
//! flat file, B+tree, or LSM-tree) and returns a [`MineOutcome`]: the
//! convoys together with [`PhaseTimings`] (Figure 8i), [`PruningStats`]
//! (Table 5), and the source's I/O profile.
//!
//! [`SnapshotSource`]: k2_storage::SnapshotSource
//!
//! ```
//! use k2_core::{ConvoyMiner, K2Config, K2Hop};
//! use k2_model::{Dataset, Point};
//! use k2_storage::InMemoryStore;
//!
//! // Three objects travelling together for 10 timestamps.
//! let mut pts = Vec::new();
//! for t in 0..10u32 {
//!     for oid in 0..3u32 {
//!         pts.push(Point::new(oid, t as f64, oid as f64 * 0.4, t));
//!     }
//! }
//! let store = InMemoryStore::new(Dataset::from_points(&pts).unwrap());
//! let miner = K2Hop::new(K2Config::new(3, 5, 1.0).unwrap());
//! let outcome = ConvoyMiner::mine(&miner, &store).unwrap();
//! assert_eq!(outcome.convoys.len(), 1);
//! assert_eq!(outcome.convoys[0].objects.len(), 3);
//! assert_eq!(outcome.convoys[0].len(), 10);
//! ```

pub mod benchpoints;
pub mod candidates;
pub mod extend;
pub mod hwmt;
pub mod merge;
pub mod stats;
pub mod validate;

mod config;
mod miner;
mod par;
mod parallel;
mod pipeline;

pub use config::{ConfigError, K2Config};
pub use miner::{ConvoyMiner, MineError, MineOutcome, MineStats};
pub use parallel::K2HopParallel;
pub use pipeline::{K2Hop, MiningResult};
pub use stats::{GridStats, PhaseTimings, PrefetchStats, PruningStats};

use k2_cluster::{recluster_with, DbscanParams, GridScratch};
use k2_model::{restrict_sorted_ids_into, ObjPos, ObjectSet, Oid, Time};
use k2_storage::{SnapshotSource, StoreResult};

/// Reusable working memory for one `reCluster` probe loop: the fetched
/// `DB[t]|O` positions plus the clustering scratch ([`GridScratch`]).
///
/// Every probe loop (HWMT, extension, validation) creates one of these
/// per task and reuses it across all its probes, so the steady state of
/// the hottest code in the system performs no heap allocation.
///
/// HWMT also keeps the sorted id union of a window's surviving
/// candidates and the positions fetched for it, which each candidate's
/// probe restricts instead of calling the store again.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    positions: Vec<ObjPos>,
    cluster: GridScratch,
    union_ids: Vec<Oid>,
    union_positions: Vec<ObjPos>,
}

impl ProbeScratch {
    /// Fetches `DB[t]|∪sets` (one store call) for
    /// [`recluster_from_union`](Self::recluster_from_union).
    fn fetch_union<S: SnapshotSource + ?Sized>(
        &mut self,
        store: &S,
        t: Time,
        sets: &[ObjectSet],
    ) -> StoreResult<()> {
        self.union_ids.clear();
        for set in sets {
            self.union_ids.extend_from_slice(set.ids());
        }
        self.union_ids.sort_unstable();
        self.union_ids.dedup();
        store.multi_get_into(t, &self.union_ids, &mut self.union_positions)
    }

    /// [`recluster_at_with`] for a subset of the last
    /// [`fetch_union`](Self::fetch_union), restricting the fetched
    /// positions instead of probing the store.
    fn recluster_from_union(
        &mut self,
        params: DbscanParams,
        objects: &ObjectSet,
    ) -> (Vec<ObjectSet>, u64) {
        self.positions.clear();
        restrict_sorted_ids_into(&self.union_positions, objects.ids(), &mut self.positions);
        let clusters = recluster_with(&self.positions, params, &mut self.cluster);
        (clusters, self.positions.len() as u64)
    }
}

/// Re-clusters the objects of a candidate at timestamp `t` — the paper's
/// `reCluster(v, DB[t])`: fetch `DB[t]|O` from the store, then DBSCAN it,
/// reusing `scratch` for both steps.
///
/// Returns the clusters and the number of points fetched (for pruning
/// statistics).
pub(crate) fn recluster_at_with<S: SnapshotSource + ?Sized>(
    store: &S,
    params: DbscanParams,
    t: Time,
    objects: &ObjectSet,
    scratch: &mut ProbeScratch,
) -> StoreResult<(Vec<ObjectSet>, u64)> {
    store.multi_get_into(t, objects.ids(), &mut scratch.positions)?;
    let fetched = scratch.positions.len() as u64;
    let clusters = recluster_with(&scratch.positions, params, &mut scratch.cluster);
    Ok((clusters, fetched))
}
