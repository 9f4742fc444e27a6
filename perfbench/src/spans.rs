//! In-memory span recorder for the traced run. A span is a name
//! (`<layer>.<call>`), a start and end relative to the recorder's
//! epoch, and the span that caused it. Spans nest through a
//! per-thread stack; a span opened on a thread with an empty stack
//! (a campaign worker) is parented to the recorder's current root, so
//! engine work on worker threads still hangs under the campaign call
//! that caused it.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. Spans stay in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its value and the
    /// span's duration.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().or_else(|| {
                let root = self.root.load(Ordering::Relaxed);
                (root != 0).then_some(root)
            });
            s.push(id);
            parent
        });
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span { id, parent, name, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span list lock poisoned").push(span);
        (value, end - start)
    }

    /// [`Tracer::span`], also adopting spans that worker threads open
    /// while `f` runs.
    pub fn root_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.next_id.load(Ordering::Relaxed);
        let previous = self.root.swap(id, Ordering::Relaxed);
        let out = self.span(name, f);
        self.root.store(previous, Ordering::Relaxed);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Self time per layer, milliseconds: each span's duration minus
    /// the part of its interval that its children cover (children on
    /// parallel threads overlap, so coverage is a union, not a sum).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_within(c, s));
            let own = s.duration_ns().saturating_sub(covered);
            *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `span`.
fn union_within(intervals: &mut [(u64, u64)], span: &Span) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(span.start_ns), b.min(span.end_ns));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn nested_spans_split_self_time_by_layer() {
        let t = Tracer::default();
        t.span("core.outer", || {
            spin(5);
            t.span("vfs.inner", || spin(20));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "vfs.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "core.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["vfs"] >= 19.0, "{by_layer:?}");
        assert!(by_layer["core"] >= 4.0 && by_layer["core"] < by_layer["vfs"], "{by_layer:?}");
    }

    #[test]
    fn worker_thread_spans_hang_under_the_root_and_overlap_once() {
        let t = Tracer::default();
        t.root_span("core.campaign", || {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span("nyx-sim.analyze", || spin(30)));
                }
            });
        });
        let spans = t.spans();
        let root = spans.iter().find(|s| s.name == "core.campaign").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name != "core.campaign")
            .all(|s| s.parent == Some(root.id)));
        // Two overlapping 30 ms children cover ~30 ms of the root, not 60.
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["core"] < 25.0, "{by_layer:?}");
        assert!(by_layer["nyx-sim"] >= 59.0, "{by_layer:?}");
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let span = Span { id: 1, parent: None, name: "x.y", start_ns: 10, end_ns: 100 };
        let mut iv = vec![(0, 20), (15, 30), (50, 60), (90, 200)];
        assert_eq!(union_within(&mut iv, &span), 20 + 10 + 10);
    }
}
