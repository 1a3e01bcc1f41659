//! Benchmark-side spans: the traced run wraps every call into a layer in
//! one of these, keeps them in memory, and writes them out at exit as
//! Chrome-trace JSON. Nothing here reaches into the program under test —
//! a span is two `Instant` reads around a public call.
//!
//! Timing (`Tracer::time`) works whether tracing is on or off, so the
//! traced and untraced runs execute the same benchmark code; only the
//! bookkeeping differs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. `parent` is 0 for a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Finished spans not yet handed to the tracer (client threads record
    /// one span per request; a shared lock there would be a layer of its
    /// own).
    static DONE: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, returns its result and wall time, and — when tracing —
    /// records a span named `name` under the innermost open span of this
    /// thread.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        if !self.on {
            let start = Instant::now();
            let result = f();
            return (result, start.elapsed());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
        };
        DONE.with(|done| done.borrow_mut().push(span));
        (result, elapsed)
    }

    /// The innermost open span of the calling thread (0 if none): what a
    /// spawned client thread adopts as its parent.
    pub fn current(&self) -> u64 {
        OPEN.with(|open| open.borrow().last().copied().unwrap_or(0))
    }

    /// Runs a spawned thread's body under `parent` and hands its spans to
    /// the tracer when the body returns.
    pub fn thread<R>(&self, parent: u64, body: impl FnOnce() -> R) -> R {
        if parent != 0 {
            OPEN.with(|open| open.borrow_mut().push(parent));
        }
        let result = body();
        if parent != 0 {
            OPEN.with(|open| open.borrow_mut().pop());
        }
        self.flush();
        result
    }

    /// Moves the calling thread's finished spans into the tracer.
    pub fn flush(&self) {
        let done = DONE.with(|done| std::mem::take(&mut *done.borrow_mut()));
        if !done.is_empty() {
            self.spans.lock().expect("span store poisoned").extend(done);
        }
    }

    /// Every span recorded so far (after flushing the calling thread).
    pub fn spans(&self) -> Vec<Span> {
        self.flush();
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Cost of recording one span on this machine, from a loop of empty
    /// spans: what `trace.overhead_pct` multiplies by the span count.
    pub fn span_cost_ns() -> f64 {
        const PROBES: u32 = 200_000;
        let probe = Tracer::new(true);
        // The probe spans must not mix with real ones still buffered here.
        let buffered = DONE.with(|done| std::mem::take(&mut *done.borrow_mut()));
        let start = Instant::now();
        for _ in 0..PROBES {
            std::hint::black_box(probe.time("probe", || ()));
        }
        let traced = start.elapsed();
        DONE.with(|done| *done.borrow_mut() = buffered);
        // An untraced `time` still reads the clock twice; only the extra
        // bookkeeping is tracing overhead.
        let plain = Tracer::new(false);
        let start = Instant::now();
        for _ in 0..PROBES {
            std::hint::black_box(plain.time("probe", || ()));
        }
        traced.saturating_sub(start.elapsed()).as_nanos() as f64 / PROBES as f64
    }
}

/// Per-name count, total and self time. Self time subtracts the union of
/// the direct children's intervals, so children running in parallel on
/// other threads are not subtracted twice.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        let covered = children.get_mut(&span.id).map_or(0, |intervals| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += duration;
        layer.self_ns += duration - covered;
    }
    layers
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events with
/// the span id, its parent and the workload as arguments.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\"}}}}",
            span.name,
            span.thread,
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            span.id,
            span.parent,
            workload,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, thread: 1, start_ns, end_ns }
    }

    #[test]
    fn untraced_time_measures_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (value, elapsed) = tracer.time("x", || 7);
        assert_eq!(value, 7);
        assert!(elapsed < Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent_across_threads() {
        let tracer = Tracer::new(true);
        tracer.time("outer", || {
            tracer.time("inner", || ());
            let parent = tracer.current();
            std::thread::scope(|scope| {
                scope.spawn(|| tracer.thread(parent, || tracer.time("remote", || ())));
            });
        });
        let spans = tracer.spans();
        let by_name = |name| *spans.iter().find(|s| s.name == name).expect("span recorded");
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("remote").parent, outer.id);
        assert_ne!(by_name("remote").thread, outer.thread);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "child", 10, 40),
            // Overlaps the first child (parallel thread) and overruns the
            // parent: only 40..60 and 90..100 are newly covered.
            span(3, 1, "child", 30, 60),
            span(4, 1, "child", 90, 120),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["root"], LayerTime { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(layers["child"], LayerTime { count: 3, total_ns: 90, self_ns: 90 });
    }

    #[test]
    fn chrome_trace_lists_every_span_with_parent_and_workload() {
        let json = chrome_trace(&[span(1, 0, "a", 0, 1_000), span(2, 1, "b", 100, 200)], "w");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"workload\":\"w\""));
        assert!(serde::json::parse(&json).is_ok(), "trace must be valid JSON");
    }
}
