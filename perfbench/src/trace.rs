//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, and the per-layer figures derived from them.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! of one request share the request id. Server-side spans cannot be
//! observed from a client; they are rebuilt from the durations the
//! server reports in its reply (see [`Tracer::reported`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// Layer call, e.g. `mine.request` or `store.get`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-thread span recorder. Tracers of one run share an epoch and
/// hand out ids from disjoint ranges, so their spans merge into one log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    /// Ascending by id.
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start above `lane << 40`.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch at `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let now = self.ns(Instant::now());
        self.push(name, parent, req, now, now)
    }

    fn index(&self, id: u64) -> usize {
        self.spans
            .binary_search_by_key(&id, |s| s.id)
            .expect("span recorded by this tracer")
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: u64) {
        let now = self.ns(Instant::now());
        let i = self.index(id);
        self.spans[i].end = now;
    }

    /// The span with id `id`.
    pub fn get(&self, id: u64) -> Span {
        self.spans[self.index(id)]
    }

    /// Spans recorded so far: a mark for [`Tracer::since`] and
    /// [`Tracer::discard`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded after `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Drops the spans recorded after `mark` that match `drop`.
    pub fn discard(&mut self, mark: usize, drop: impl Fn(&Span) -> bool) {
        let tail = self.spans.split_off(mark);
        self.spans.extend(tail.into_iter().filter(|s| !drop(s)));
    }

    /// Records a measured span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, start, end)
    }

    /// Records a span the benchmark did not time itself: a duration a
    /// layer reported, placed at `start_ns`.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        dur: Duration,
    ) -> u64 {
        self.push(
            name,
            parent,
            req,
            start_ns,
            start_ns + dur.as_nanos() as u64,
        )
    }

    fn push(&mut self, name: &'static str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A merged span log, in start order, indexed by id.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    by_id: HashMap<u64, usize>,
}

impl SpanLog {
    /// Indexes `spans`.
    pub fn new(mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| (s.start, s.id));
        let by_id = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        Self { spans, by_id }
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.nanos() as f64 / 1e6).collect()
    }

    /// The span that encloses `span`, if it has one.
    pub fn parent(&self, span: &Span) -> Option<&Span> {
        self.by_id.get(&span.parent).map(|&i| &self.spans[i])
    }

    /// The log as tab-separated lines:
    /// `id parent req name start_ns end_ns`, with a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_merge_into_one_log() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 1);
        let mut b = Tracer::new(epoch, 2);
        let root = a.reported("mine", 0, 7, 0, Duration::from_nanos(100));
        let get = a.reported("store.get", root, 7, 10, Duration::from_nanos(20));
        let mark = a.mark();
        a.reported("store.scan", root, 7, 40, Duration::from_nanos(5));
        assert_eq!(a.since(mark).len(), 1);
        a.discard(mark, |s| s.name == "store.scan");
        b.reported("ingest", 0, 9, 5, Duration::from_nanos(50));
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        let log = SpanLog::new(spans);
        let child = log.named("store.get").next().unwrap();
        assert_eq!(child.id, get);
        assert_eq!(log.parent(child).map(|p| p.id), Some(root));
        assert_eq!(log.parent(log.named("ingest").next().unwrap()), None);
        assert_eq!(log.durations_ms("mine"), vec![100.0 / 1e6]);
        assert_eq!(log.to_tsv().lines().count(), 4);
    }
}
