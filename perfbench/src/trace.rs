//! Benchmark-side tracing: a span around every call the benchmark makes
//! into a layer's public function, and counter snapshots around phases.
//!
//! Each span enters a `udm_observe::SpanGuard`, so the program's own
//! self-time profile tree (`udm_observe::profile`) aggregates it, and
//! also keeps an in-memory record (name, start, end, parent, request id)
//! that is written out once the run ends. Nothing here is added inside
//! the program.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use udm_observe::{HistogramSnapshot, Snapshot, SpanGuard, SpanNode};

/// One finished benchmark span.
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans in memory; inert when built with `on == false`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself when dropped.
#[must_use = "a span times the scope it is bound in"]
pub struct Span<'a> {
    open: Option<OpenSpan<'a>>,
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    _guard: SpanGuard,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` for request `request`, nested under the
    /// calling thread's innermost open benchmark span.
    pub fn span(&self, name: &'static str, request: u64) -> Span<'_> {
        if !self.on {
            return Span { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        Span {
            open: Some(OpenSpan {
                tracer: self,
                _guard: SpanGuard::enter(name),
                id,
                parent,
                name,
                request,
                start: Instant::now(),
            }),
        }
    }

    pub fn spans_recorded(&self) -> usize {
        self.records.lock().expect("span records lock").len()
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let records = self.records.lock().expect("span records lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in records.iter() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.id, parent, r.name, r.request, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|stack| stack.borrow_mut().pop());
        let ns = |t: Instant| u64::try_from((t - open.tracer.epoch).as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start_ns: ns(open.start),
            end_ns: ns(end),
        };
        if let Ok(mut records) = open.tracer.records.lock() {
            records.push(record);
        }
    }
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Total seconds in benchmark spans named `name`, from the profile tree.
pub fn total_seconds(profile: &[SpanNode], name: &str) -> f64 {
    profile
        .iter()
        .filter(|n| leaf(&n.path) == name)
        .map(|n| n.total_seconds)
        .sum()
}

/// A counter/histogram snapshot of the global `udm_observe` registry.
pub struct Counters(Snapshot);

impl Counters {
    pub fn capture() -> Self {
        Counters(Snapshot::capture())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.0.histograms.iter().find(|h| h.name == name)
    }

    /// Counter increase since `before`.
    pub fn delta(&self, before: &Counters, name: &str) -> u64 {
        self.counter(name).saturating_sub(before.counter(name))
    }

    /// Histogram observations since `before`: (bounds, per-bucket
    /// counts, count, sum).
    pub fn histogram_delta(&self, before: &Counters, name: &str) -> (Vec<f64>, Vec<u64>, u64, f64) {
        let Some(after) = self.histogram(name) else {
            return (Vec::new(), Vec::new(), 0, 0.0);
        };
        let mut counts = after.bucket_counts.clone();
        let (mut count, mut sum) = (after.count, after.sum);
        if let Some(b) = before.histogram(name) {
            for (c, prev) in counts.iter_mut().zip(&b.bucket_counts) {
                *c = c.saturating_sub(*prev);
            }
            count = count.saturating_sub(b.count);
            sum -= b.sum;
        }
        (after.bounds.clone(), counts, count, sum)
    }
}
