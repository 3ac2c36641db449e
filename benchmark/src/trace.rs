//! The benchmark's own in-memory span recorder.
//!
//! A span is opened around every call the harness makes into a layer (a store
//! op, a `defragment`, a compiler pass, an interpreter run).  Spans nest: the
//! one open when another opens is its parent, and spans of one request (one
//! store op, one program) share a request id.  A span's *self time* is its
//! duration minus the part its children cover.
//!
//! Each worker thread owns a [`ThreadTracer`], so recording takes no lock.
//! Per-name totals are kept for every span; full records are kept for the
//! first [`RECORD_CAP`] spans of each thread (a multi-million-op pass would
//! otherwise need gigabytes) and written to `trace.json` at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Full span records retained per thread.
pub const RECORD_CAP: usize = 20_000;

/// No parent: a root span.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub thread: u16,
    /// Thread-local span id.
    pub id: u32,
    /// Thread-local id of the span that caused this one (`u32::MAX`: none).
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct OpenSpan {
    name: &'static str,
    id: u32,
    request: u64,
    start_ns: u64,
    children_ns: u64,
}

/// One thread's recorder.
pub struct ThreadTracer {
    epoch: Instant,
    thread: u16,
    next_id: u32,
    stack: Vec<OpenSpan>,
    totals: Vec<(&'static str, NameTotals)>,
    counters: Vec<(&'static str, u64)>,
    records: Vec<SpanRecord>,
}

impl ThreadTracer {
    /// `epoch` is shared by all threads of a trace so their clocks line up.
    pub fn new(epoch: Instant, thread: u16) -> Self {
        ThreadTracer {
            epoch,
            thread,
            next_id: 0,
            stack: Vec::new(),
            totals: Vec::new(),
            counters: Vec::new(),
            records: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before [`exit`].
    ///
    /// [`exit`]: ThreadTracer::exit
    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(OpenSpan { name, id, request, start_ns, children_ns: 0 });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let span = self.stack.pop().expect("exit without a matching enter");
        self.close(span, end_ns);
    }

    /// Record an already-finished span as a child of the innermost open one.
    /// Used for phases the program reports only as durations (the plan, copy
    /// and commit times inside a `DefragOutcome`).
    pub fn child(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let request = self.stack.last().map_or(0, |s| s.request);
        self.close(OpenSpan { name, id, request, start_ns, children_ns: 0 }, start_ns + dur_ns);
    }

    /// Add to a named count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        slot(&mut self.counters, name).1 += delta;
    }

    fn close(&mut self, span: OpenSpan, end_ns: u64) {
        let dur = end_ns.saturating_sub(span.start_ns);
        let t = &mut slot(&mut self.totals, span.name).1;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(span.children_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        if self.records.len() < RECORD_CAP {
            self.records.push(SpanRecord {
                name: span.name,
                thread: self.thread,
                id: span.id,
                parent,
                request: span.request,
                start_ns: span.start_ns,
                end_ns,
            });
        }
    }
}

/// Run `f` under a span when there is a tracer, bare when there is not.
#[inline]
pub fn span<R>(
    tracer: Option<&mut ThreadTracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => {
            t.enter(name, request);
            let r = f();
            t.exit();
            r
        }
        None => f(),
    }
}

/// Find or append the entry for `name`.  There are a dozen names at most, and
/// a hot name is found on the first or second probe.
fn slot<'a, T: Default>(
    entries: &'a mut Vec<(&'static str, T)>,
    name: &'static str,
) -> &'a mut (&'static str, T) {
    let at = entries.iter().position(|(n, _)| std::ptr::eq(*n, name) || *n == name);
    let at = at.unwrap_or_else(|| {
        entries.push((name, T::default()));
        entries.len() - 1
    });
    &mut entries[at]
}

/// The merged trace of one workload pass.
#[derive(Default)]
pub struct Trace {
    pub totals: Vec<(&'static str, NameTotals)>,
    pub counters: Vec<(&'static str, u64)>,
    pub records: Vec<SpanRecord>,
    pub spans_total: u64,
}

impl Trace {
    pub fn merge(threads: Vec<ThreadTracer>) -> Trace {
        let mut trace = Trace::default();
        for t in threads {
            assert!(t.stack.is_empty(), "thread {} ended with an open span", t.thread);
            for (name, tot) in t.totals {
                let into = &mut slot(&mut trace.totals, name).1;
                into.count += tot.count;
                into.total_ns += tot.total_ns;
                into.self_ns += tot.self_ns;
            }
            for (name, n) in t.counters {
                slot(&mut trace.counters, name).1 += n;
            }
            trace.spans_total += t.next_id as u64;
            trace.records.extend(t.records);
        }
        trace.totals.sort_by_key(|t| std::cmp::Reverse(t.1.total_ns));
        trace.counters.sort_by_key(|c| c.0);
        trace
    }

    pub fn totals_of(&self, name: &str) -> NameTotals {
        self.totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
    }

    /// Count, total and self time per span name, longest first.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>12} {:>10}",
            "span", "count", "total ms", "self ms", "self ns/ea"
        );
        for (name, t) in &self.totals {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12.3} {:>12.3} {:>10.0}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / t.count.max(1) as f64
            );
        }
        for (name, n) in &self.counters {
            let _ = writeln!(out, "  {:<28} {:>10}  (count)", name, n);
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_total\":{},\"spans_recorded\":{},\"by_name\":[",
            self.spans_total,
            self.records.len()
        );
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{n}");
        }
        out.push_str("},\"spans\":[");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let id = ((r.thread as u64) << 32) | r.id as u64;
            let _ = write!(out, "{sep}\n{{\"id\":{id},\"parent\":");
            if r.parent == NO_PARENT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", ((r.thread as u64) << 32) | r.parent as u64);
            }
            let _ = write!(
                out,
                ",\"thread\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.thread, r.name, r.request, r.start_ns, r.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Close spans at chosen times instead of the wall clock.
    fn closed(t: &mut ThreadTracer, end_ns: u64) {
        let span = t.stack.pop().unwrap();
        t.close(span, end_ns);
    }

    fn open(t: &mut ThreadTracer, name: &'static str, request: u64, start_ns: u64) {
        t.enter(name, request);
        t.stack.last_mut().unwrap().start_ns = start_ns;
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = ThreadTracer::new(Instant::now(), 0);
        open(&mut t, "batch", 0, 0);
        open(&mut t, "op", 1, 100);
        closed(&mut t, 400); // op: 300, leaf
        open(&mut t, "pause", 2, 500);
        t.child("plan", 600, 100);
        t.child("copy", 700, 250);
        closed(&mut t, 1000); // pause: 500, children 350 -> self 150
        closed(&mut t, 2000); // batch: 2000, children 300 + 500 -> self 1200
        let trace = Trace::merge(vec![t]);

        assert_eq!(trace.totals_of("op"), NameTotals { count: 1, total_ns: 300, self_ns: 300 });
        assert_eq!(trace.totals_of("plan"), NameTotals { count: 1, total_ns: 100, self_ns: 100 });
        assert_eq!(trace.totals_of("copy"), NameTotals { count: 1, total_ns: 250, self_ns: 250 });
        assert_eq!(trace.totals_of("pause"), NameTotals { count: 1, total_ns: 500, self_ns: 150 });
        assert_eq!(
            trace.totals_of("batch"),
            NameTotals { count: 1, total_ns: 2000, self_ns: 1200 }
        );
        // Self times of a tree add up to the root's duration.
        let self_sum: u64 = trace.totals.iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(self_sum, 2000);
    }

    #[test]
    fn parents_and_request_ids_are_recorded() {
        let mut t = ThreadTracer::new(Instant::now(), 3);
        t.enter("batch", 0);
        t.enter("op", 7);
        t.child("inner", 1, 1);
        t.exit();
        t.exit();
        t.count("polls", 2);
        t.count("polls", 3);
        let trace = Trace::merge(vec![t]);
        let by_name = |n: &str| *trace.records.iter().find(|r| r.name == n).unwrap();
        let (batch, op, inner) = (by_name("batch"), by_name("op"), by_name("inner"));
        assert_eq!(batch.parent, NO_PARENT);
        assert_eq!(op.parent, batch.id);
        assert_eq!(inner.parent, op.id);
        assert_eq!(inner.request, 7, "a synthesised child inherits the request id");
        assert_eq!(trace.counters, vec![("polls", 5)]);
        assert_eq!(trace.spans_total, 3);

        let json = trace.to_json("w", 1);
        let parsed = alaska_telemetry::json::JsonValue::parse(&json).expect("trace.json parses");
        assert_eq!(parsed.get("spans").and_then(|s| s.as_array()).map(|a| a.len()), Some(3));
        assert_eq!(parsed.get("spans_total").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn records_are_capped_but_totals_are_not() {
        let mut t = ThreadTracer::new(Instant::now(), 0);
        for i in 0..(RECORD_CAP as u64 + 50) {
            t.enter("op", i);
            t.exit();
        }
        let trace = Trace::merge(vec![t]);
        assert_eq!(trace.records.len(), RECORD_CAP);
        assert_eq!(trace.totals_of("op").count, RECORD_CAP as u64 + 50);
    }
}
