//! `cnc-telemetry` — the workspace observability substrate.
//!
//! One global [`Telemetry`] instance carries a [`SpanCollector`]
//! (per-thread span trees with numeric attributes). Instrumented layers
//! ask [`Telemetry::global`] and check [`Telemetry::enabled`] — a single
//! relaxed atomic load — before doing any work, so a disabled build pays
//! one branch per hook and allocates nothing.
//!
//! Spans and the layers' typed results are the one book: a count a
//! result already returns (`C2Stats::comparisons`, `RebuildStats`,
//! `ServingStats`, `RuntimeReport`, `QueryResult`) is read there, and a
//! count that only exists while an action runs — a requeued cluster, a
//! retried spill write, a quarantined snapshot — is an attribute of the
//! span that encloses the action.
//!
//! ```
//! use cnc_telemetry::Telemetry;
//!
//! let t = Telemetry::global();
//! t.enable(true);
//! {
//!     let mut span = t.span("build.assign");
//!     span.attr("clusters", 128);
//! } // recorded on drop
//! println!("{}", t.json_profile());
//! # t.reset();
//! # t.enable(false);
//! ```
//!
//! Exports: [`Telemetry::json_profile`] (a per-name span summary) and
//! [`Telemetry::chrome_trace`] (every buffered span, Perfetto-loadable).
//!
//! The collector is *global and cumulative*: parallel tests and repeated
//! bench phases all record into it. Code asserting exact figures finds
//! its own spans by their attributes, not by global totals.

pub mod export;
pub mod span;
pub mod wire;

pub use span::{SpanCollector, SpanRecord, SpanSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide telemetry hub.
pub struct Telemetry {
    enabled: AtomicBool,
    collector: SpanCollector,
}

impl Telemetry {
    /// A private instance (tests; production code uses [`Telemetry::global`]).
    pub fn new() -> Self {
        Telemetry { enabled: AtomicBool::new(false), collector: SpanCollector::new() }
    }

    /// The process-wide instance. Starts disabled; benches and serving
    /// binaries call `enable(true)` at startup.
    pub fn global() -> &'static Telemetry {
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        GLOBAL.get_or_init(Telemetry::new)
    }

    /// Turns recording on or off.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on — the one check every hot-path hook makes.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The span collector.
    pub fn collector(&self) -> &SpanCollector {
        &self.collector
    }

    /// Opens a RAII span guard. When disabled this is `Span(None)`: no
    /// allocation, no clock read, nothing recorded on drop.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if self.enabled() {
            Span { collector: &self.collector, inner: Some(self.collector.start(name)) }
        } else {
            Span { collector: &self.collector, inner: None }
        }
    }

    /// Nanoseconds since the collector epoch, or 0 when disabled — the
    /// timebase for [`Telemetry::record_complete`].
    pub fn stamp(&self) -> u64 {
        if self.enabled() {
            self.collector.stamp()
        } else {
            0
        }
    }

    /// Records a pre-measured span (no-op when disabled). Used where a
    /// stats struct already holds the duration so span tree and stats
    /// are fed by the identical value.
    pub fn record_complete(
        &self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        attrs: Vec<(&'static str, u64)>,
    ) {
        if self.enabled() {
            self.collector.record_complete(name, start_ns, dur_ns, attrs);
        }
    }

    /// Submits a fully synthesized record (no-op when disabled) — for
    /// engine code reconstructing worker spans from joined stats.
    pub fn submit(&self, record: SpanRecord) {
        if self.enabled() {
            self.collector.submit(record);
        }
    }

    /// A fresh span id for synthesized records.
    pub fn next_span_id(&self) -> u64 {
        self.collector.next_span_id()
    }

    /// A copy of buffered span records.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.collector.records()
    }

    /// Per-name span aggregates.
    pub fn span_summary(&self) -> Vec<SpanSummary> {
        self.collector.summary()
    }

    /// JSON run profile (the span summary).
    pub fn json_profile(&self) -> String {
        export::json_profile(&self.collector)
    }

    /// Chrome `trace_event` JSON of all buffered spans.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.collector.records())
    }

    /// Clears all spans.
    pub fn reset(&self) {
        self.collector.reset();
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII span guard from [`Telemetry::span`]; records on drop. Holds
/// `None` when telemetry is disabled, so attrs and drop are free.
pub struct Span<'a> {
    collector: &'a SpanCollector,
    inner: Option<span::OpenSpan>,
}

impl Span<'_> {
    /// Attaches (or accumulates into) a numeric attribute.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.attr(key, value);
        }
    }

    /// The span id, or 0 when disabled.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id())
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            self.collector.finish(inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Telemetry::new();
        {
            let mut span = t.span("quiet");
            span.attr("bytes", 1);
            assert_eq!(span.id(), 0);
        }
        t.record_complete("quiet2", 0, 5, Vec::new());
        assert_eq!(t.stamp(), 0);
        assert!(t.span_records().is_empty());
    }

    #[test]
    fn enabled_spans_nest_and_record() {
        let t = Telemetry::new();
        t.enable(true);
        let outer_id;
        {
            let outer = t.span("outer");
            outer_id = outer.id();
            {
                let mut inner = t.span("inner");
                inner.attr("comparisons", 9);
            }
        }
        let records = t.span_records();
        assert_eq!(records.len(), 2);
        let inner = records.iter().find(|r| r.name == "inner").expect("inner");
        assert_eq!(inner.parent, outer_id);
        assert_eq!(inner.attrs, vec![("comparisons", 9)]);
    }

    #[test]
    fn spans_flow_to_exports() {
        let t = Telemetry::new();
        t.enable(true);
        t.record_complete("demo", 0, 123, vec![("rows", 4)]);
        let json = t.json_profile();
        assert!(json.contains("\"name\": \"demo\", \"count\": 1, \"total_ns\": 123"));
        assert!(json.contains("\"rows\": 4"));
        t.reset();
        assert!(t.span_records().is_empty());
    }

    #[test]
    fn global_is_a_singleton() {
        let a = Telemetry::global() as *const _;
        let b = Telemetry::global() as *const _;
        assert_eq!(a, b);
    }
}
