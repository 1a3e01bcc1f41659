//! Exporters: JSON run profiles and Chrome `trace_event` JSON
//! (Perfetto-loadable).
//!
//! Both are string builders over registry/collector snapshots — no
//! serde (offline-build constraint), so JSON strings are escaped by hand
//! and every number is emitted through `format!`.

use crate::metrics::{Histogram, MetricsRegistry};
use crate::span::{SpanCollector, SpanRecord};
use std::fmt::Write as _;

/// Quantiles rendered in the JSON profile.
pub const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

fn json_histogram(hist: &Histogram) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3}",
        hist.count(),
        hist.sum(),
        hist.min(),
        hist.max(),
        hist.mean()
    );
    for (q, label) in EXPORT_QUANTILES {
        let _ = write!(out, ",\"p{}\":{}", label.trim_start_matches("0."), hist.quantile(q));
    }
    out.push('}');
    out
}

/// Renders a JSON run profile: counters/gauges as `{name, labels, value}`
/// object arrays (grep- and `json.load`-friendly for CI), histograms with
/// count/sum/min/max/mean/quantiles, and a per-name span summary.
pub fn json_profile(registry: &MetricsRegistry, collector: &SpanCollector) -> String {
    let mut out = String::from("{\n  \"counters\": [");
    let counters: Vec<String> = registry
        .counter_values()
        .iter()
        .map(|(key, value)| {
            format!(
                "\n    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}",
                escape_json(&key.name),
                json_labels(&key.labels),
                value
            )
        })
        .collect();
    out.push_str(&counters.join(","));
    out.push_str("\n  ],\n  \"gauges\": [");
    let gauges: Vec<String> = registry
        .gauge_values()
        .iter()
        .map(|(key, value)| {
            format!(
                "\n    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}",
                escape_json(&key.name),
                json_labels(&key.labels),
                value
            )
        })
        .collect();
    out.push_str(&gauges.join(","));
    out.push_str("\n  ],\n  \"histograms\": [");
    let histograms: Vec<String> = registry
        .histogram_handles()
        .iter()
        .map(|(key, hist)| {
            format!(
                "\n    {{\"name\": \"{}\", \"labels\": {}, \"stats\": {}}}",
                escape_json(&key.name),
                json_labels(&key.labels),
                json_histogram(hist)
            )
        })
        .collect();
    out.push_str(&histograms.join(","));
    out.push_str("\n  ],\n  \"spans\": [");
    let spans: Vec<String> = collector
        .summary()
        .iter()
        .map(|s| {
            let attrs: Vec<String> =
                s.attrs.iter().map(|(k, v)| format!("\"{}\": {}", escape_json(k), v)).collect();
            format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"attrs\": {{{}}}}}",
                escape_json(s.name),
                s.count,
                s.total_ns,
                attrs.join(", ")
            )
        })
        .collect();
    out.push_str(&spans.join(","));
    let _ = write!(out, "\n  ],\n  \"spans_dropped\": {}\n}}\n", collector.dropped());
    out
}

/// Renders buffered spans as Chrome `trace_event` JSON (complete `"X"`
/// events, microsecond timestamps), loadable in Perfetto / `chrome://tracing`.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let events: Vec<String> = records
        .iter()
        .map(|r| {
            let mut args: Vec<String> = vec![
                format!("\"id\":{}", r.id),
                format!("\"parent\":{}", r.parent),
            ];
            for (k, v) in &r.attrs {
                args.push(format!("\"{}\":{}", escape_json(k), v));
            }
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                escape_json(r.name),
                r.thread,
                r.start_ns as f64 / 1_000.0,
                r.dur_ns as f64 / 1_000.0,
                args.join(",")
            )
        })
        .collect();
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (MetricsRegistry, SpanCollector) {
        let registry = MetricsRegistry::new();
        registry.counter("cnc_queries_total", &[("outcome", "served")]).add(12);
        registry.gauge("cnc_epoch", &[]).set(3);
        let hist = registry.histogram("cnc_query_latency_ns", &[]);
        for v in [100u64, 200, 400, 800] {
            hist.record(v);
        }
        let collector = SpanCollector::new();
        collector.record_complete("publish", 0, 5_000, vec![("bytes", 64)]);
        (registry, collector)
    }

    #[test]
    fn json_profile_is_shaped_for_ci_grep() {
        let (registry, collector) = seeded();
        let json = json_profile(&registry, &collector);
        assert!(json.contains("\"name\": \"cnc_queries_total\""));
        assert!(json.contains("\"value\": 12"));
        assert!(json.contains("\"name\": \"publish\""));
        assert!(json.contains("\"spans_dropped\": 0"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_events_are_complete_events() {
        let (_, collector) = seeded();
        let trace = chrome_trace(&collector.records());
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"publish\""));
        assert!(trace.contains("\"dur\":5.000"));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
