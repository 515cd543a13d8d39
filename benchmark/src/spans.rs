//! The benchmark's own span recorder: one span (name, start, end, parent,
//! request id) around each call into a layer's public functions. Spans stay
//! in memory and are written out once, at exit. Spans inside the engine are
//! a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u64,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

/// One thread's recorder. Threads record on their own tracer against a
/// shared epoch and are [`Tracer::absorb`]ed into one at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of request `id`; spans entered until its exit
    /// carry the same id.
    pub fn request(&mut self, id: u64) -> Open {
        self.request = id;
        self.enter("request")
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close in the order they nest");
        self.spans[open.0].end_ns = self.now();
    }

    /// Appends another thread's spans, re-pointing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `op` as request `id` inside one `name` span, when there is a tracer;
/// just runs it when there is none.
pub fn in_request<R>(
    tracer: Option<&mut Tracer>,
    id: u64,
    name: &'static str,
    op: impl FnOnce() -> R,
) -> R {
    let Some(tracer) = tracer else {
        return op();
    };
    let root = tracer.request(id);
    let span = tracer.enter(name);
    let result = op();
    tracer.exit(span);
    tracer.exit(root);
    result
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many, total duration, total self time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    by_name
}

/// Share of all `request` time that is `name`'s self time; 0 when nothing
/// was recorded under a request.
pub fn self_share(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    let request_ns = totals.get("request").map_or(0, |t| t.total_ns);
    if request_ns == 0 {
        return 0.0;
    }
    totals.get(name).map_or(0.0, |t| t.self_ns as f64) / request_ns as f64
}

pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",\n")?;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union covers 10..60, not 30 + 30.
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 10, 5]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"].self_ns, 25);
        assert_eq!(totals["request"].total_ns, 100);
        assert!((self_share(&totals, "b") - 0.30).abs() < 1e-12);
        assert_eq!(self_share(&totals, "absent"), 0.0);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_links_parents_and_requests_across_threads() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch);
        let r = main.request(7);
        let t = main.enter("nexi.translate");
        main.exit(t);
        main.exit(r);

        let mut other = Tracer::new(epoch);
        assert_eq!(in_request(Some(&mut other), 8, "serve.execute", || 5), 5);
        assert_eq!(in_request(None, 9, "serve.execute", || 6), 6);
        main.absorb(other);

        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2), "absorbed parents are re-pointed");
        assert_eq!(spans[3].request, 8);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
