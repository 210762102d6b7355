//! In-memory spans recorded around the benchmark's own calls into each
//! crate. Nothing inside the program is instrumented: a span measures one
//! public call from the outside.
//!
//! A disabled [`Tracer`] calls the wrapped closure and nothing else, so the
//! untraced runs that produce the end-to-end metrics pay no clock reads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied());
        STACK.with(|s| s.borrow_mut().push(id));
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        out
    }

    /// The innermost open span of this thread, to hand to a worker thread.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` on a worker thread with `parent` as its enclosing span.
    pub fn adopt<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        STACK.with(|s| *s.borrow_mut() = parent.into_iter().collect());
        let out = f();
        STACK.with(|s| s.borrow_mut().clear());
        out
    }

    /// Takes every finished span out of the tracer.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicking benchmark thread"),
        )
    }
}

/// Per-name totals of a span tree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on other threads included, overlaps counted
/// once). Returns totals keyed by span name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let dur = s.end - s.start;
        let row = out.entry(s.name).or_default();
        row.count += 1;
        row.total_s += dur;
        row.self_s += dur - covered(kids, s.start, s.end);
    }
    out
}

/// Writes spans as tab-separated `id parent name start end` lines.
///
/// # Errors
///
/// Propagates file errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_s\tend_s")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{:.9}\t{:.9}",
            s.id, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, None, "root", 0.0, 10.0),
            // Two overlapping children (two threads): union is [1, 6].
            span(2, Some(1), "a", 1.0, 5.0),
            span(3, Some(1), "a", 2.0, 6.0),
            span(4, Some(2), "b", 1.0, 2.0),
        ];
        let t = self_times(&spans);
        assert!((t["root"].self_s - 5.0).abs() < 1e-12);
        assert!((t["a"].total_s - 8.0).abs() < 1e-12);
        assert!((t["a"].self_s - 7.0).abs() < 1e-12);
        assert_eq!(t["a"].count, 2);
        assert!((t["b"].self_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_links_nested_and_adopted_spans() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            let parent = tracer.current();
            std::thread::scope(|s| {
                s.spawn(|| tracer.adopt(parent, || tracer.span("worker", || ())));
            });
            tracer.span("inner", || ());
        });
        let spans = tracer.drain();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        for name in ["worker", "inner"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(outer.id), "{name}");
        }
        assert!(Tracer::new(false).span("x", || 7) == 7);
    }
}
