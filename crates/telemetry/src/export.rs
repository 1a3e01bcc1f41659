//! Exporters: JSON run profiles and Chrome `trace_event` JSON
//! (Perfetto-loadable).
//!
//! Both are string builders over collector snapshots — no serde
//! (offline-build constraint), so JSON strings are escaped by hand and
//! every number is emitted through `format!`.

use crate::span::{SpanCollector, SpanRecord};
use std::fmt::Write as _;

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

/// Renders a JSON run profile: a per-name span summary (count, total
/// wall time and summed attributes; grep- and `json.load`-friendly for
/// CI) and the number of spans dropped past the collector's cap.
pub fn json_profile(collector: &SpanCollector) -> String {
    let mut out = String::from("{\n  \"spans\": [");
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

    fn seeded() -> SpanCollector {
        let collector = SpanCollector::new();
        collector.record_complete("publish", 0, 5_000, vec![("bytes", 64)]);
        collector.record_complete("publish", 5_000, 3_000, vec![("bytes", 36)]);
        collector
    }

    #[test]
    fn json_profile_is_shaped_for_ci_grep() {
        let json = json_profile(&seeded());
        assert!(json.contains("\"name\": \"publish\", \"count\": 2, \"total_ns\": 8000"));
        assert!(json.contains("\"bytes\": 100"));
        assert!(json.contains("\"spans_dropped\": 0"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_events_are_complete_events() {
        let collector = seeded();
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
