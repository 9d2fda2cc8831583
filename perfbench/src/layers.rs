//! The benchmark's own in-memory tracer.
//!
//! Spans are opened by the benchmark around its calls into each crate's
//! public functions; the program itself is not instrumented further. When
//! tracing is off, `span` costs one atomic load. Spans nest per thread: a
//! span's self time is its duration minus the durations of the spans opened
//! inside it on the same thread, and every span carries the id of the
//! request it belongs to.

use predict_graph::{CsrGraph, VertexId};
use predict_sampling::{BiasedRandomJump, GraphSample, SampleScratch, Sampler};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// One closed span.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: &'static str,
    /// Request the span belongs to; 0 outside any request.
    pub request: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    start: Instant,
    children_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Marks the spans this thread opens from now on as belonging to `request`.
pub fn set_request(request: u64) {
    REQUEST.with(|r| r.set(request));
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Record> {
    std::mem::take(&mut *RECORDS.lock().expect("span records poisoned"))
}

/// Open span; records itself when dropped.
pub struct Span(Option<&'static str>);

pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            start: Instant::now(),
            children_ns: 0,
        })
    });
    Span(Some(name))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(name) = self.0 else { return };
        let (total_ns, children_ns) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            let total = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.children_ns += total;
            }
            (total, frame.children_ns)
        });
        let record = Record {
            name,
            request: REQUEST.with(Cell::get),
            total_ns,
            self_ns: total_ns.saturating_sub(children_ns),
        };
        if let Ok(mut records) = RECORDS.lock() {
            records.push(record);
        }
    }
}

/// Count and summed self/total time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    /// Distinct requests the span was opened in.
    pub requests: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl SpanTotals {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

pub fn totals(records: &[Record]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let mut seen = std::collections::HashSet::new();
    for r in records {
        let t = out.entry(r.name).or_default();
        t.count += 1;
        if seen.insert((r.name, r.request)) {
            t.requests += 1;
        }
        t.self_ns += r.self_ns;
        t.total_ns += r.total_ns;
    }
    out
}

/// The paper's BRJ sampler with a `sampling.draw` span around every draw
/// the prediction session asks for.
pub struct TimedSampler(pub BiasedRandomJump);

impl Sampler for TimedSampler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn sample_vertices_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut SampleScratch,
    ) -> Vec<VertexId> {
        self.0.sample_vertices_with(graph, ratio, seed, scratch)
    }

    fn sample_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut SampleScratch,
    ) -> GraphSample {
        let _span = span("sampling.draw");
        self.0.sample_with(graph, ratio, seed, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        set_request(9);
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let records = drain();
        let t = totals(&records);
        let (outer, inner) = (t["outer"], t["inner"]);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(records.iter().all(|r| r.request == 9));
        assert_eq!((outer.requests, inner.requests), (1, 1));
    }
}
