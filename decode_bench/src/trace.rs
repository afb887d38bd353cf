//! In-memory spans recorded around calls into each layer, and the
//! per-request ledger built from them.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. Spans of one request share its id; the request's root span
//! runs from when the request was due to when its session closed, so the
//! root's own self time is the part of the wall time no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Spans nest strictly: `end` closes the
/// innermost open span.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.begin_at(name, now)
    }

    pub fn begin_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.end_at(id, now);
    }

    pub fn end_at(&mut self, id: usize, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span (signed: a negative value means the children
/// overlap or overrun their parent).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns() as i64;
        }
    }
    own
}

/// Checks that every child lies inside its parent and belongs to the same
/// request.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns || s.req != ps.req {
                return Err(format!(
                    "span {i} ({}) escapes parent {p} ({})",
                    s.name, ps.name
                ));
            }
        }
    }
    Ok(())
}

/// One request's ledger: wall time against the self time its layers
/// account for.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestLedger {
    pub req: u64,
    pub wall_ns: u64,
    pub attributed_ns: i64,
}

impl RequestLedger {
    /// Share of the wall time the layers do not account for.
    pub fn gap_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.wall_ns as f64 - self.attributed_ns as f64).abs() / self.wall_ns as f64
    }
}

/// Ledgers of every root span named `root`.
pub fn request_ledgers(spans: &[Span], root: &str) -> Vec<RequestLedger> {
    let own = self_times(spans);
    let mut attributed: BTreeMap<usize, i64> = BTreeMap::new();
    for (i, &self_ns) in own.iter().enumerate() {
        let mut top = i;
        while let Some(p) = spans[top].parent {
            top = p;
        }
        if top != i {
            *attributed.entry(top).or_default() += self_ns;
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == root)
        .map(|(i, s)| RequestLedger {
            req: s.req,
            wall_ns: s.dur_ns(),
            attributed_ns: attributed.get(&i).copied().unwrap_or(0),
        })
        .collect()
}

/// Per span name: (count, summed self time ns, individual durations ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, i64, Vec<f64>)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, i64, Vec<f64>)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += o;
        e.2.push(s.dur_ns() as f64);
    }
    out
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.req
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, req: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req,
        }
    }

    /// request [0,100): admit [0,10), forward [10,90) with attend
    /// [20,60), close [95,100). Layers account for 10+80+5 = 95.
    fn one_request() -> Vec<Span> {
        vec![
            span("request", 0, 100, None, 7),
            span("admit", 0, 10, Some(0), 7),
            span("forward", 10, 90, Some(0), 7),
            span("attend", 20, 60, Some(2), 7),
            span("close", 95, 100, Some(0), 7),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&one_request()), vec![5, 10, 40, 40, 5]);
    }

    #[test]
    fn ledger_reports_unattributed_share() {
        let spans = one_request();
        let l = request_ledgers(&spans, "request");
        assert_eq!(
            l,
            vec![RequestLedger {
                req: 7,
                wall_ns: 100,
                attributed_ns: 95
            }]
        );
        assert!((l[0].gap_frac() - 0.05).abs() < 1e-12);
        check_nesting(&spans).unwrap();
    }

    #[test]
    fn overlapping_children_are_caught() {
        let mut spans = one_request();
        spans[3].end_ns = 95; // attend overruns forward
        assert!(check_nesting(&spans).is_err());
        let mut spans = one_request();
        spans[4].req = 8;
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn merge_rebases_parents() {
        let merged = merge(vec![one_request(), one_request()]);
        assert_eq!(merged.len(), 10);
        assert_eq!(merged[8].parent, Some(7));
        assert_eq!(merged[5].parent, None);
        assert_eq!(request_ledgers(&merged, "request").len(), 2);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new(Instant::now());
        t.set_request(3);
        let r = t.begin_at("request", 0);
        let a = t.begin("attend");
        t.end(a);
        t.end(r);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 3));
        check_nesting(&spans).unwrap();
        let names = by_name(&spans);
        assert_eq!(names["attend"].0, 1);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(Instant::now());
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
