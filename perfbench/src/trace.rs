//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Buffers created so far; each takes a distinct id range.
static BUFFERS: AtomicU64 = AtomicU64::new(0);
/// Requests issued so far, across every phase and thread.
static REQUESTS: AtomicU64 = AtomicU64::new(0);

/// A request id unique within the process, shared by the spans of one
/// request.
pub fn request_id() -> u64 {
    REQUESTS.fetch_add(1, Ordering::Relaxed)
}

/// One timed call. Times are nanoseconds since the trace origin; a
/// `parent` of 0 marks a root. Spans of one request share `req`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Disabled buffers record nothing, so the
/// untraced run pays one branch per call site.
pub struct SpanBuf {
    origin: Instant,
    enabled: bool,
    id_base: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer whose span ids are unique among all buffers of the
    /// process.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        SpanBuf {
            origin,
            enabled,
            id_base: (BUFFERS.fetch_add(1, Ordering::Relaxed) + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserve an id for a span whose children are recorded before it
    /// ends (0 when disabled).
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        self.id_base | self.next
    }

    /// Record a span opened with [`SpanBuf::open`].
    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record a leaf span.
    pub fn leaf(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open();
        self.close(id, parent, req, name, start, end);
    }

    /// Time `f` as a leaf span; the closure runs whether or not the
    /// buffer records.
    pub fn time<T>(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.leaf(parent, req, name, start, Instant::now());
        out
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once; parts
/// of a child outside its parent do not count).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub name: &'static str,
    pub count: usize,
    pub total_us: f64,
    pub self_us: f64,
    pub median_us: f64,
}

/// One row per span name, sorted by total self time, largest first.
pub fn table(spans: &[Span]) -> Vec<SpanRow> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, (Vec<f64>, f64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1 += selfs[&s.id] as f64 / 1e3;
    }
    let mut rows: Vec<SpanRow> = by_name
        .into_iter()
        .map(|(name, (durs, self_us))| SpanRow {
            name,
            count: durs.len(),
            total_us: durs.iter().sum(),
            self_us,
            median_us: crate::stats::median(&durs),
        })
        .collect();
    rows.sort_by(|a, b| b.self_us.total_cmp(&a.self_us).then(a.name.cmp(b.name)));
    rows
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "request", 0, 100),
            // Two overlapping children cover [10, 50): 40 ns.
            span(2, 1, "engine.wait", 10, 40),
            span(3, 1, "engine.wait", 30, 50),
            // A child running past its parent counts only inside it.
            span(4, 1, "engine.resolve", 90, 120),
            span(5, 2, "inner", 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn table_sums_self_time_per_name() {
        let spans = [
            span(1, 0, "request", 0, 1000),
            span(2, 1, "engine.wait", 0, 400),
            span(3, 1, "engine.wait", 500, 700),
        ];
        let rows = table(&spans);
        assert_eq!(rows[0].name, "engine.wait");
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].self_us - 0.6).abs() < 1e-12);
        assert_eq!(rows[1].name, "request");
        assert!((rows[1].self_us - 0.4).abs() < 1e-12);
        assert_eq!(rows[1].total_us, 1.0);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let origin = Instant::now();
        let mut off = SpanBuf::new(origin, false);
        assert_eq!(off.time(0, 1, "x", || 5), 5);
        assert_eq!(off.open(), 0);
        assert!(off.spans.is_empty());
        let mut a = SpanBuf::new(origin, true);
        let mut b = SpanBuf::new(origin, true);
        let (ia, ib) = (a.open(), b.open());
        assert_ne!(ia, ib, "ids are unique across threads");
        a.leaf(ia, 1, "y", origin, Instant::now());
        assert_eq!(a.spans[0].parent, ia);
    }
}
