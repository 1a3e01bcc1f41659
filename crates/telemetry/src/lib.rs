//! `cnc-telemetry` — the workspace observability substrate.
//!
//! One global [`Telemetry`] instance carries a [`MetricsRegistry`]
//! (sharded counters, gauges, log-linear histograms) and a
//! [`SpanCollector`] (per-thread span trees). Instrumented layers ask
//! [`Telemetry::global`] and check [`Telemetry::enabled`] — a single
//! relaxed atomic load — before doing any work, so a disabled build pays
//! one branch per hook and allocates nothing.
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
//! t.counter("cnc_build_comparisons_total", &[]).add(1_000);
//! println!("{}", t.json_profile());
//! # t.reset();
//! # t.enable(false);
//! ```
//!
//! Exports: [`Telemetry::json_profile`] (run profile written next to
//! `BENCH_*.json`), [`Telemetry::chrome_trace`] (Perfetto-loadable).
//!
//! The registry is *global and cumulative*: parallel tests and repeated
//! bench phases all write into it. Code asserting exact totals must use
//! per-run handles or local deltas, not global snapshots — the runtime
//! engine follows this rule by cross-checking span records it built
//! itself against its own `RuntimeReport` before publishing.

pub mod export;
pub mod metrics;
pub mod span;
pub mod wire;

pub use metrics::{Counter, Gauge, Histogram, MetricKey, MetricsRegistry};
pub use span::{SpanCollector, SpanRecord, SpanSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The process-wide telemetry hub.
pub struct Telemetry {
    enabled: AtomicBool,
    registry: MetricsRegistry,
    collector: SpanCollector,
}

impl Telemetry {
    /// A private instance (tests; production code uses [`Telemetry::global`]).
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            registry: MetricsRegistry::new(),
            collector: SpanCollector::new(),
        }
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

    /// The metric registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span collector.
    pub fn collector(&self) -> &SpanCollector {
        &self.collector
    }

    /// Counter handle (always resolvable so layers can cache it once;
    /// recording through it is a no-op decision made by the caller via
    /// [`Telemetry::enabled`]).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.registry.counter(name, labels)
    }

    /// Gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.registry.gauge(name, labels)
    }

    /// Histogram handle.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.registry.histogram(name, labels)
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

    /// JSON run profile (counters, gauges, histograms, span summary).
    pub fn json_profile(&self) -> String {
        export::json_profile(&self.registry, &self.collector)
    }

    /// Chrome `trace_event` JSON of all buffered spans.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.collector.records())
    }

    /// Zeroes all metrics and clears all spans (handles stay valid).
    pub fn reset(&self) {
        self.registry.reset();
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
    fn metrics_flow_to_exports() {
        let t = Telemetry::new();
        t.enable(true);
        t.counter("demo_total", &[]).add(4);
        t.histogram("demo_ns", &[]).record(123);
        let json = t.json_profile();
        assert!(json.contains("{\"name\": \"demo_total\", \"labels\": {}, \"value\": 4}"));
        assert!(json.contains("\"name\": \"demo_ns\", \"labels\": {}, \"stats\": {\"count\":1,"));
        t.reset();
        assert_eq!(t.counter("demo_total", &[]).value(), 0);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = Telemetry::global() as *const _;
        let b = Telemetry::global() as *const _;
        assert_eq!(a, b);
    }
}
