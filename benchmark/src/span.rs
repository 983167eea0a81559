//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside `crates/` is touched.
//! Every span has a name, start, end, parent and campaign id. A layer's
//! *self time* is its span's duration minus the part its child spans
//! cover, and the share table divides each name's total self time by the
//! root span's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for the root).
    pub parent: Option<usize>,
    /// Campaign the span worked for (0 when none or not known).
    pub campaign: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, campaign: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            campaign,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Close `id` after naming what it turned out to be: a shard unit is
    /// classified by the frames it emitted, known only once it returns.
    pub fn exit_as(&mut self, id: usize, name: &'static str, campaign: u64) {
        self.exit(id);
        self.spans[id].name = name;
        self.spans[id].campaign = campaign;
    }

    /// Time `f` as a span.
    pub fn scope<T>(&mut self, name: &'static str, campaign: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, campaign);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Self time of every span: duration minus its direct children's
/// durations (children nest inside their parent and do not overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Share of the root span (span 0) each span name's self time takes.
pub fn shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let Some(root) = spans.first() else {
        return out;
    };
    let total = root.duration_ns().max(1) as f64;
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0.0) += own as f64 / total;
    }
    out
}

/// The share table, largest first.
pub fn render_shares(workload: &str, spans: &[Span]) -> String {
    let mut rows: Vec<(&str, f64)> = shares(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = format!("self-time share of the `{workload}` span, by layer\n");
    for (name, share) in rows {
        out.push_str(&format!("  {name:<32} {:>7.3} %\n", 100.0 * share));
    }
    out
}

/// Chrome trace-event JSON (`ph: "X"` complete events, µs) with the
/// parent index and campaign id in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"campaign\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.campaign
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            campaign: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100
        //   a 10..60
        //     b 20..30
        //     b 40..55
        //   c 70..90
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("b", 40, 55, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 25, 10, 15, 20]);
        let shares = shares(&spans);
        assert_eq!(shares["root"], 0.30);
        assert_eq!(shares["a"], 0.25);
        assert_eq!(shares["b"], 0.25);
        assert_eq!(shares["c"], 0.20);
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_renames() {
        let mut t = Tracer::default();
        let root = t.enter("root", 0);
        let unit = t.enter("unit", 0);
        t.exit_as(unit, "shard.point_hit", 7);
        t.scope("server.submit", 8, || ());
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].name, "shard.point_hit");
        assert_eq!(spans[1].campaign, 7);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.count("server.submit"), 1);
        assert!(chrome_json(spans).contains("\"campaign\":7"));
    }
}
