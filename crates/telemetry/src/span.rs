//! The span layer: per-thread span trees with wall-time and attribute
//! attributions, collected centrally for export.
//!
//! A [`SpanRecord`] is one completed region of work — a `BuildPlan` stage,
//! a worker process's busy time, an epoch publish — with a parent pointer so
//! the records form a forest per thread. Guards keep a thread-local parent
//! stack; layers that already measure their own durations (the runtime's
//! map-reduce wall-clock) submit pre-measured records instead so the span
//! tree and the stats structs are fed by the *same* `Duration` values and
//! cannot drift.
//!
//! The collector is a capped `Mutex<Vec<_>>`: spans are pushed once at
//! completion (never on the per-item hot path), and past the cap they are
//! counted as dropped rather than growing without bound.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard cap on buffered span records; completions past this only bump the
/// dropped counter.
pub const MAX_SPANS: usize = 65_536;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Region name (e.g. `build.assign`, `build.map_reduce`, `publish`).
    pub name: &'static str,
    /// Unique id within the process.
    pub id: u64,
    /// Enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// Logical thread id (guards use the recording thread; synthesized
    /// records — e.g. per-worker spans built from a worker's own stats —
    /// carry the worker's logical id).
    pub thread: u64,
    /// Start, in nanoseconds on the collector's clock ([`SpanCollector::stamp`]).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric attributions (`("comparisons", n)`, `("bytes", n)`, ...).
    pub attrs: Vec<(&'static str, u64)>,
}

/// Aggregate of all spans sharing a name.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Completed spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Attribute sums across all spans with this name.
    pub attrs: Vec<(&'static str, u64)>,
}

/// Process-wide unique span ids; 0 is reserved for "no parent".
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Logical id of the calling thread (stable per thread, dense from 1).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

thread_local! {
    /// Open-span stack: the top is the parent for the next span started
    /// on this thread.
    static PARENT_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Central sink for completed spans.
pub struct SpanCollector {
    records: Mutex<Vec<SpanRecord>>,
    dropped: AtomicUsize,
    epoch: std::time::Instant,
}

impl SpanCollector {
    /// A fresh collector; its clock epoch is the construction instant.
    pub fn new() -> Self {
        SpanCollector {
            records: Mutex::new(Vec::new()),
            dropped: AtomicUsize::new(0),
            epoch: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since the collector's epoch — the timebase for
    /// [`SpanRecord::start_ns`].
    pub fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh process-unique span id (for synthesized records).
    pub fn next_span_id(&self) -> u64 {
        next_id()
    }

    /// The calling thread's current innermost open span id (0 if none).
    pub fn current_parent(&self) -> u64 {
        PARENT_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Buffers a completed record (drops past [`MAX_SPANS`], counting).
    pub fn submit(&self, record: SpanRecord) {
        let mut records = self.records.lock().expect("span collector poisoned");
        if records.len() < MAX_SPANS {
            records.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Opens a span on the calling thread: allocates an id, parents it
    /// under the innermost open span, and pushes it on the stack. The
    /// caller must balance with [`SpanCollector::finish`].
    pub fn start(&self, name: &'static str) -> OpenSpan {
        let id = next_id();
        let parent = self.current_parent();
        PARENT_STACK.with(|s| s.borrow_mut().push(id));
        OpenSpan {
            name,
            id,
            parent,
            thread: thread_id(),
            start_ns: self.stamp(),
            started: std::time::Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Completes a span opened by [`SpanCollector::start`].
    pub fn finish(&self, span: OpenSpan) {
        PARENT_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop back to (and including) this span; tolerates guards
            // dropped out of order rather than corrupting the stack.
            if let Some(pos) = stack.iter().rposition(|&id| id == span.id) {
                stack.truncate(pos);
            }
        });
        self.submit(SpanRecord {
            name: span.name,
            id: span.id,
            parent: span.parent,
            thread: span.thread,
            start_ns: span.start_ns,
            dur_ns: span.started.elapsed().as_nanos() as u64,
            attrs: span.attrs,
        });
    }

    /// Records a span whose duration was measured by the caller — used
    /// where stats structs already hold the `Duration`, so the span tree
    /// is fed by the identical value.
    pub fn record_complete(
        &self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        attrs: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = next_id();
        self.submit(SpanRecord {
            name,
            id,
            parent: self.current_parent(),
            thread: thread_id(),
            start_ns,
            dur_ns,
            attrs,
        });
        id
    }

    /// A copy of all buffered records.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("span collector poisoned").clone()
    }

    /// Records dropped past the buffer cap.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Per-name aggregates (count, total time, attr sums), ordered by
    /// first appearance.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let records = self.records.lock().expect("span collector poisoned");
        let mut out: Vec<SpanSummary> = Vec::new();
        for r in records.iter() {
            let entry = match out.iter_mut().find(|s| s.name == r.name) {
                Some(e) => e,
                None => {
                    out.push(SpanSummary { name: r.name, ..Default::default() });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_ns += r.dur_ns;
            for &(key, value) in &r.attrs {
                match entry.attrs.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, total)) => *total += value,
                    None => entry.attrs.push((key, value)),
                }
            }
        }
        out
    }

    /// Clears buffered records and the dropped counter.
    pub fn reset(&self) {
        self.records.lock().expect("span collector poisoned").clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// An in-flight span started via [`SpanCollector::start`]. Carries its
/// own `Instant` so duration measurement needs no lock.
pub struct OpenSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    thread: u64,
    start_ns: u64,
    started: std::time::Instant,
    attrs: Vec<(&'static str, u64)>,
}

impl OpenSpan {
    /// Attaches (or accumulates into) a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        match self.attrs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, total)) => *total += value,
            None => self.attrs.push((key, value)),
        }
    }

    /// This span's id (for parenting synthesized children under it).
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_a_parented_tree() {
        let collector = SpanCollector::new();
        let outer = collector.start("outer");
        let outer_id = outer.id();
        let mut inner = collector.start("inner");
        inner.attr("bytes", 10);
        inner.attr("bytes", 5);
        collector.finish(inner);
        collector.finish(outer);

        let records = collector.records();
        assert_eq!(records.len(), 2);
        let inner_rec = records.iter().find(|r| r.name == "inner").expect("inner");
        let outer_rec = records.iter().find(|r| r.name == "outer").expect("outer");
        assert_eq!(inner_rec.parent, outer_id);
        assert_eq!(outer_rec.parent, 0);
        assert_eq!(inner_rec.attrs, vec![("bytes", 15)]);
        assert!(collector.current_parent() == 0, "stack drained");
    }

    #[test]
    fn record_complete_preserves_the_given_duration() {
        let collector = SpanCollector::new();
        collector.record_complete("stage", 100, 42, vec![("comparisons", 7)]);
        let records = collector.records();
        assert_eq!(records[0].dur_ns, 42);
        assert_eq!(records[0].start_ns, 100);
        assert_eq!(records[0].attrs, vec![("comparisons", 7)]);
    }

    #[test]
    fn summary_aggregates_by_name() {
        let collector = SpanCollector::new();
        collector.record_complete("solve", 0, 10, vec![("comparisons", 3)]);
        collector.record_complete("solve", 10, 20, vec![("comparisons", 4)]);
        collector.record_complete("merge", 30, 5, vec![]);
        let summary = collector.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "solve");
        assert_eq!(summary[0].count, 2);
        assert_eq!(summary[0].total_ns, 30);
        assert_eq!(summary[0].attrs, vec![("comparisons", 7)]);
        assert_eq!(summary[1].name, "merge");
        assert_eq!(summary[1].count, 1);
    }

    #[test]
    fn collector_caps_and_counts_drops() {
        let collector = SpanCollector::new();
        for i in 0..(MAX_SPANS + 10) {
            collector.record_complete("s", i as u64, 1, Vec::new());
        }
        assert_eq!(collector.records().len(), MAX_SPANS);
        assert_eq!(collector.dropped(), 10);
        collector.reset();
        assert!(collector.records().is_empty());
        assert_eq!(collector.dropped(), 0);
    }
}
