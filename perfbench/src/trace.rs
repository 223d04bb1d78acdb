//! In-memory span recorder for the traced run.
//!
//! A [`Tracer`] is a cheap handle: when off it records nothing and a span
//! costs one branch. When on, every span records its name, start, end,
//! parent span and run (pass) id; spans are kept in memory and handed
//! back once, after the measurement, by [`Tracer::finish`].
//!
//! Hot callbacks that fire once per component (`ComponentSink::component`,
//! `TileSink::merge`) are timed as *leaf* calls instead of full spans:
//! their durations and call counts are added to the innermost open span
//! of the calling thread. That keeps memory bounded on inputs with
//! hundreds of thousands of components, and leaf time still counts as
//! child time when a span's self time is computed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Kinds of leaf calls folded into their parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// `ComponentSink::component`.
    Emit = 0,
    /// `TileSink::merge`.
    Merge = 1,
}

const LEAF_KINDS: usize = 2;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u32,
    /// Id of the span open on the same thread when this one started, or 0.
    pub parent: u32,
    /// Run (pass) id current when the span started.
    pub run: u32,
    /// Layer call, e.g. `stream.push_band`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Time spent in leaf calls made directly inside this span, per [`Leaf`].
    pub leaf_ns: [u64; LEAF_KINDS],
    /// Number of those leaf calls, per [`Leaf`].
    pub leaf_calls: [u64; LEAF_KINDS],
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Shared {
    epoch: Instant,
    next_id: AtomicU32,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

struct Open {
    id: u32,
    leaf_ns: [u64; LEAF_KINDS],
    leaf_calls: [u64; LEAF_KINDS],
}

thread_local! {
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Handle to a span recorder; clones share one recording.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Shared>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer(Some(Arc::new(Shared {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the run id stamped on spans started from now on.
    pub fn set_run(&self, run: u32) {
        if let Some(shared) = &self.0 {
            shared.run.store(run, Ordering::Relaxed);
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(shared) = &self.0 else {
            return SpanGuard(None);
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map_or(0, |o| o.id);
            open.push(Open {
                id,
                leaf_ns: [0; LEAF_KINDS],
                leaf_calls: [0; LEAF_KINDS],
            });
            parent
        });
        SpanGuard(Some(OpenGuard {
            shared: Arc::clone(shared),
            id,
            parent,
            run: shared.run.load(Ordering::Relaxed),
            name,
            start: Instant::now(),
        }))
    }

    /// Runs `f` as a leaf call of the innermost open span on this thread.
    pub fn leaf<R>(&self, kind: Leaf, f: impl FnOnce() -> R) -> R {
        if self.0.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            if let Some(top) = open.borrow_mut().last_mut() {
                top.leaf_ns[kind as usize] += ns;
                top.leaf_calls[kind as usize] += 1;
            }
        });
        out
    }

    /// Takes every span recorded so far (sorted by start time).
    pub fn finish(&self) -> Vec<Span> {
        let Some(shared) = &self.0 else {
            return Vec::new();
        };
        let mut spans =
            std::mem::take(&mut *shared.spans.lock().expect("a tracing thread panicked"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

struct OpenGuard {
    shared: Arc<Shared>,
    id: u32,
    parent: u32,
    run: u32,
    name: &'static str,
    start: Instant,
}

/// Closes its span on drop.
pub struct SpanGuard(Option<OpenGuard>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(g) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        let open = OPEN.with(|open| open.borrow_mut().pop());
        let (leaf_ns, leaf_calls) = match open {
            Some(o) if o.id == g.id => (o.leaf_ns, o.leaf_calls),
            _ => ([0; LEAF_KINDS], [0; LEAF_KINDS]),
        };
        let epoch = g.shared.epoch;
        let span = Span {
            id: g.id,
            parent: g.parent,
            run: g.run,
            name: g.name,
            start_ns: g.start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            leaf_ns,
            leaf_calls,
        };
        // Never panic in Drop: a poisoned lock only loses this span.
        if let Ok(mut spans) = g.shared.spans.lock() {
            spans.push(span);
        };
    }
}

/// Length of `[start, end)` covered by the union of `children`, each
/// clipped to that interval. Children may nest or overlap.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The recorded spans of one traced phase, with per-name aggregates.
pub struct Trace {
    /// Every span, sorted by start.
    pub spans: Vec<Span>,
    children: std::collections::HashMap<u32, Vec<(u64, u64)>>,
}

impl Trace {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        Trace { spans, children }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A span's duration minus the part covered by its child spans and
    /// its leaf calls.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let kids = self.children.get(&span.id).map_or(&[][..], Vec::as_slice);
        let covered = covered_ns(span.start_ns, span.end_ns, kids);
        let leaf: u64 = span.leaf_ns.iter().sum();
        span.duration_ns().saturating_sub(covered + leaf)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        ns_to_ms(self.named(name).map(Span::duration_ns).sum())
    }

    /// Summed self time of the spans called `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        ns_to_ms(self.named(name).map(|s| self.self_ns(s)).sum())
    }

    /// Summed leaf time of `kind` across all spans, in milliseconds.
    pub fn leaf_ms(&self, kind: Leaf) -> f64 {
        ns_to_ms(self.spans.iter().map(|s| s.leaf_ns[kind as usize]).sum())
    }

    /// Number of leaf calls of `kind` across all spans.
    pub fn leaf_calls(&self, kind: Leaf) -> u64 {
        self.spans.iter().map(|s| s.leaf_calls[kind as usize]).sum()
    }

    /// The spans as JSON lines (name, start, end, parent, run, leaves).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"emit_ns\":{},\"emit_calls\":{},\"merge_ns\":{},\"merge_calls\":{}}}\n",
                s.id,
                s.parent,
                s.run,
                s.name,
                s.start_ns,
                s.end_ns,
                s.leaf_ns[Leaf::Emit as usize],
                s.leaf_calls[Leaf::Emit as usize],
                s.leaf_ns[Leaf::Merge as usize],
                s.leaf_calls[Leaf::Merge as usize],
            ));
        }
        out
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "t",
            start_ns,
            end_ns,
            leaf_ns: [0; LEAF_KINDS],
            leaf_calls: [0; LEAF_KINDS],
        }
    }

    #[test]
    fn covered_merges_overlapping_and_clips_to_parent() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        // overlapping children count once
        assert_eq!(covered_ns(0, 100, &[(10, 50), (40, 60)]), 50);
        // a child nested in another adds nothing
        assert_eq!(covered_ns(0, 100, &[(10, 90), (20, 30)]), 80);
        // children sticking out of the parent are clipped
        assert_eq!(covered_ns(50, 100, &[(0, 60), (90, 200)]), 20);
        // touching intervals
        assert_eq!(covered_ns(0, 100, &[(10, 20), (20, 30)]), 20);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // parent 1 = [0, 100); children 2 = [10, 40), 3 = [30, 60) overlap;
        // grandchild 4 = [15, 20) nests inside 2 and must not count twice.
        let mut spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 2, 15, 20),
        ];
        spans[0].leaf_ns[Leaf::Emit as usize] = 5;
        let trace = Trace::new(spans);
        let parent = trace.spans[0].clone();
        assert_eq!(trace.self_ns(&parent), 100 - 50 - 5);
        let child = trace.spans[1].clone();
        assert_eq!(trace.self_ns(&child), 30 - 5);
        let leafless = trace.spans[3].clone();
        assert_eq!(trace.self_ns(&leafless), 5);
    }

    #[test]
    fn recorded_spans_nest_and_carry_leaf_time() {
        let tracer = Tracer::on();
        tracer.set_run(7);
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            tracer.leaf(Leaf::Emit, || std::hint::black_box(1 + 1));
            tracer.leaf(Leaf::Merge, || ());
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.run, 7);
        assert_eq!(inner.leaf_calls, [1, 1]);
        assert_eq!(outer.leaf_calls, [0, 0]);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let trace = Trace::new(spans);
        assert_eq!(trace.count("inner"), 1);
        assert_eq!(trace.leaf_calls(Leaf::Emit), 1);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tracer = Tracer::off();
        {
            let _s = tracer.span("x");
            assert_eq!(tracer.leaf(Leaf::Emit, || 3), 3);
        }
        assert!(tracer.finish().is_empty());
    }
}
