//! Correctness: replies compared with reference mines of the same data.

use k2hop::core::K2Config;
use k2hop::model::{Convoy, Dataset, Time};
use k2hop::server::{MineReply, Response, ServerError, WireConvoy};
use k2hop::storage::TimeRange;
use k2hop::MiningSession;

use crate::source::Timed;

/// Mining parameters of every workload: Brinkhoff traffic at these
/// settings yields dozens of convoys and work in every phase.
pub const M: usize = 2;
/// Minimum convoy lifetime.
pub const K: u32 = 40;
/// Clustering radius.
pub const EPS: f64 = 600.0;

/// The mining configuration.
pub fn config() -> K2Config {
    K2Config::new(M, K, EPS).expect("valid mining parameters")
}

/// A convoy as `(sorted members, start, end)`.
pub type Canon = (Vec<u32>, Time, Time);

/// Canonical, order-free form of mined convoys.
pub fn canon(convoys: &[Convoy]) -> Vec<Canon> {
    let mut out: Vec<Canon> = convoys
        .iter()
        .map(|c| (c.objects.ids().to_vec(), c.lifespan.start, c.lifespan.end))
        .collect();
    out.sort();
    out
}

/// Canonical form of convoys received over the wire.
pub fn canon_wire(convoys: &[WireConvoy]) -> Vec<Canon> {
    let mut out: Vec<Canon> = convoys
        .iter()
        .map(|c| (c.oids.clone(), c.t_start, c.t_end))
        .collect();
    out.sort();
    out
}

/// The reference answer for `[lo, hi]`: the same session mining a
/// [`TimeRange`] of the in-memory dataset.
pub fn reference(dataset: &Dataset, lo: Time, hi: Time) -> Vec<Canon> {
    // `TimeRange` owns its source; `Timed::plain` lends it the dataset.
    let ranged = TimeRange::new(Timed::plain(dataset), lo, hi);
    let outcome = MiningSession::new(config())
        .threads(1)
        .mine(&ranged)
        .expect("in-memory reference mine");
    canon(&outcome.convoys)
}

/// The mine reply inside a round trip's result, if it is one.
pub fn mine_reply(result: &Result<Response, ServerError>) -> Option<&MineReply> {
    match result {
        Ok(Response::Convoys(r)) => Some(r),
        _ => None,
    }
}

/// The canonical convoys of a mine round trip; `None` for an error
/// reply or a transport failure.
pub fn answer(result: &Result<Response, ServerError>) -> Option<Vec<Canon>> {
    mine_reply(result).map(|r| canon_wire(&r.convoys))
}

/// Whether an ingest round trip acknowledged all `count` records.
pub fn ingest_ok(result: &Result<Response, ServerError>, count: usize) -> bool {
    matches!(result, Ok(Response::Ingested { count: c, .. }) if *c == count as u64)
}
