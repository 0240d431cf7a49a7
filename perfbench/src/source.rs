//! [`Timed`]: a [`SnapshotSource`] wrapper that forwards every call and,
//! when given a tracer, records a span around each store access.

use crate::trace::Tracer;
use k2hop::model::{Dataset, ObjPos, Oid, Time, TimeInterval};
use k2hop::storage::{IoStats, SnapshotRef, SnapshotSource, StoreResult};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Forwards to `inner`; with a tracer, times `scan_snapshot_ref`
/// (`store.scan`) and `multi_get_into` (`store.get`) as children of the
/// current parent span.
pub struct Timed<'a> {
    inner: &'a dyn SnapshotSource,
    tracer: Option<&'a RefCell<Tracer>>,
    parent: Cell<(u64, u64)>,
}

impl<'a> Timed<'a> {
    /// A plain forwarding wrapper (records nothing).
    pub fn plain(inner: &'a dyn SnapshotSource) -> Self {
        Self {
            inner,
            tracer: None,
            parent: Cell::new((0, 0)),
        }
    }

    /// A recording wrapper.
    pub fn traced(inner: &'a dyn SnapshotSource, tracer: &'a RefCell<Tracer>) -> Self {
        Self {
            inner,
            tracer: Some(tracer),
            parent: Cell::new((0, 0)),
        }
    }

    /// Sets the span (and request) that later store spans belong to.
    pub fn set_parent(&self, parent: u64, req: u64) {
        self.parent.set((parent, req));
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let Some(tracer) = self.tracer else {
            return call();
        };
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let (parent, req) = self.parent.get();
        tracer.borrow_mut().record(name, parent, req, start, end);
        out
    }
}

impl SnapshotSource for Timed<'_> {
    fn span(&self) -> TimeInterval {
        self.inner.span()
    }

    fn num_points(&self) -> u64 {
        self.inner.num_points()
    }

    fn scan_snapshot_ref<'b>(
        &self,
        t: Time,
        buf: &'b mut Vec<ObjPos>,
    ) -> StoreResult<SnapshotRef<'b>> {
        self.timed("store.scan", || self.inner.scan_snapshot_ref(t, buf))
    }

    fn multi_get_into(&self, t: Time, oids: &[Oid], out: &mut Vec<ObjPos>) -> StoreResult<()> {
        self.timed("store.get", || self.inner.multi_get_into(t, oids, out))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_dataset(&self) -> Option<&Dataset> {
        self.inner.as_dataset()
    }

    fn quiesce_maintenance(&self) -> StoreResult<()> {
        self.inner.quiesce_maintenance()
    }

    fn maintenance_depth(&self) -> usize {
        self.inner.maintenance_depth()
    }
}
