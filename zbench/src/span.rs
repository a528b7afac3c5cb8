//! In-memory spans for the traced run: recorded from the benchmark's
//! own files around calls into each layer, kept in a `Vec` until the
//! run ends, then written as JSON lines. Also the arithmetic on them —
//! self time and the Fig. 5-style ledger that re-adds a session's wall
//! time from its parts.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval. Times are nanoseconds since the log's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one (`None` for a session root).
    pub parent: Option<SpanId>,
    /// Spans of one session share this identifier.
    pub session: u32,
    /// The repo layer the timed call belongs to (`core.session`, `poly`, …).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a span's time lands in the ledger (the paper's Fig. 5 columns
/// plus the verifier and the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    Setup,
    Construct,
    Commit,
    Answer,
    Verify,
    Wire,
}

/// A session's wall time split by [`Category`]; what no categorised
/// span covers is `unattributed_ns`. The parts re-add to `wall_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ledger {
    pub wall_ns: f64,
    pub setup_ns: f64,
    pub construct_ns: f64,
    pub commit_ns: f64,
    pub answer_ns: f64,
    pub verify_ns: f64,
    pub wire_ns: f64,
    pub unattributed_ns: f64,
}

impl Ledger {
    /// Sum of every part, unattributed included.
    pub fn total_ns(&self) -> f64 {
        self.setup_ns
            + self.construct_ns
            + self.commit_ns
            + self.answer_ns
            + self.verify_ns
            + self.wire_ns
            + self.unattributed_ns
    }

    fn slot(&mut self, category: Option<Category>) -> &mut f64 {
        match category {
            Some(Category::Setup) => &mut self.setup_ns,
            Some(Category::Construct) => &mut self.construct_ns,
            Some(Category::Commit) => &mut self.commit_ns,
            Some(Category::Answer) => &mut self.answer_ns,
            Some(Category::Verify) => &mut self.verify_ns,
            Some(Category::Wire) => &mut self.wire_ns,
            None => &mut self.unattributed_ns,
        }
    }

    /// `(label, nanoseconds)` rows in print order.
    pub fn rows(&self) -> [(&'static str, f64); 7] {
        [
            ("set-up", self.setup_ns),
            ("construct", self.construct_ns),
            ("commit", self.commit_ns),
            ("answer", self.answer_ns),
            ("verify", self.verify_ns),
            ("wire", self.wire_ns),
            ("unattributed", self.unattributed_ns),
        ]
    }
}

/// The span store. A disabled log records nothing, so the same driver
/// code runs traced and untraced and the difference between the two is
/// the tracing overhead.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), enabled: true }
    }

    pub fn disabled() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), enabled: false }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, parent: Option<SpanId>, session: u32, layer: &'static str, name: &'static str) -> SpanId {
        let now = self.now_ns();
        self.add(parent, session, layer, name, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Times `f` as one span under `parent`.
    pub fn record<R>(
        &mut self,
        parent: Option<SpanId>,
        session: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(parent, session, layer, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Adds a span with explicit times — how a kernel replayed after the
    /// session is attached as a child of the call it explains.
    pub fn add(
        &mut self,
        parent: Option<SpanId>,
        session: u32,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span { id, parent, session, layer, name, start_ns, end_ns });
        id
    }

    fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The part of `id`'s interval that its children cover: the length
    /// of the union of their intervals, clipped to the parent's own.
    /// Overlapping children (parallel lanes) count once; grandchildren
    /// do not count at all — they are inside a child already.
    pub fn covered_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (s, e) in intervals {
            let from = s.max(reach);
            if e > from {
                covered += e - from;
                reach = e;
            }
        }
        covered
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id].duration_ns() - self.covered_ns(id)
    }

    /// Splits the wall time of the session rooted at `root` by
    /// category. Each span's self time goes to its own category, or its
    /// nearest categorised ancestor's, or to `unattributed`. Where
    /// children overlap, the interval they cover is shared among them in
    /// proportion to their durations, so the parts always re-add to the
    /// root's duration.
    pub fn ledger(&self, root: SpanId, categorize: &dyn Fn(&Span) -> Option<Category>) -> Ledger {
        let mut ledger = Ledger { wall_ns: self.spans[root].duration_ns() as f64, ..Ledger::default() };
        self.ledger_walk(root, 1.0, None, categorize, &mut ledger);
        ledger
    }

    fn ledger_walk(
        &self,
        id: SpanId,
        weight: f64,
        inherited: Option<Category>,
        categorize: &dyn Fn(&Span) -> Option<Category>,
        ledger: &mut Ledger,
    ) {
        let span = &self.spans[id];
        let category = categorize(span).or(inherited);
        *ledger.slot(category) += weight * self.self_ns(id) as f64;
        let covered = self.covered_ns(id) as f64;
        let clipped = |c: &Span| c.end_ns.min(span.end_ns).saturating_sub(c.start_ns.max(span.start_ns)) as f64;
        let summed: f64 = self.children(id).map(clipped).sum();
        if summed <= 0.0 {
            return;
        }
        for child in self.children(id) {
            let share = clipped(child);
            let own = child.duration_ns() as f64;
            if share > 0.0 && own > 0.0 {
                // The child hands down `share·covered/summed` ns in total.
                let child_weight = weight * (share * covered / summed) / own;
                self.ledger_walk(child.id, child_weight, category, categorize, ledger);
            }
        }
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"session\":{},\"layer\":{},\"name\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.session,
                zaatar_obs::json::escape(s.layer),
                zaatar_obs::json::escape(s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(Option<SpanId>, &'static str, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new();
        for &(parent, name, start, end) in spans {
            log.add(parent, 7, "test", name, start, end);
        }
        log
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let log = log_with(&[(None, "root", 0, 100), (Some(0), "a", 10, 30), (Some(0), "b", 50, 90)]);
        assert_eq!(log.covered_ns(0), 60);
        assert_eq!(log.self_ns(0), 40);
        assert_eq!(log.self_ns(1), 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel lanes over [10,60) and [40,90): union is [10,90).
        let log = log_with(&[(None, "root", 0, 100), (Some(0), "lane0", 10, 60), (Some(0), "lane1", 40, 90)]);
        assert_eq!(log.covered_ns(0), 80);
        assert_eq!(log.self_ns(0), 20);
    }

    #[test]
    fn nested_children_are_not_subtracted_twice() {
        let log = log_with(&[(None, "root", 0, 100), (Some(0), "child", 20, 80), (Some(1), "grandchild", 30, 50)]);
        assert_eq!(log.self_ns(0), 40, "only the direct child covers the root");
        assert_eq!(log.self_ns(1), 40);
        assert_eq!(log.self_ns(2), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A replayed kernel that ran longer than the call it explains.
        let log = log_with(&[(None, "call", 100, 200), (Some(0), "replay", 100, 260)]);
        assert_eq!(log.covered_ns(0), 100);
        assert_eq!(log.self_ns(0), 0);
    }

    fn by_name(span: &Span) -> Option<Category> {
        match span.name {
            "setup" => Some(Category::Setup),
            "construct" => Some(Category::Construct),
            "commit" => Some(Category::Commit),
            "answer" => Some(Category::Answer),
            "verify" => Some(Category::Verify),
            "wire" => Some(Category::Wire),
            _ => None,
        }
    }

    #[test]
    fn ledger_re_adds_to_the_session_wall() {
        let log = log_with(&[
            (None, "session", 0, 1000),
            (Some(0), "construct", 0, 200),
            (Some(0), "setup", 210, 500),
            (Some(2), "keygen", 220, 400), // uncategorised: inherits set-up
            (Some(0), "wire", 500, 520),
            (Some(0), "instance", 520, 900), // uncategorised parent
            (Some(5), "commit", 520, 700),
            (Some(5), "answer", 700, 880),
            (Some(0), "verify", 900, 990),
        ]);
        let l = log.ledger(0, &by_name);
        assert_eq!(l.wall_ns, 1000.0);
        assert_eq!(l.construct_ns, 200.0);
        assert_eq!(l.setup_ns, 290.0);
        assert_eq!(l.wire_ns, 20.0);
        assert_eq!(l.commit_ns, 180.0);
        assert_eq!(l.answer_ns, 180.0);
        assert_eq!(l.verify_ns, 90.0);
        // Root gaps (10 + 10) plus the instance call's own 20 ns.
        assert_eq!(l.unattributed_ns, 40.0);
        assert!((l.total_ns() - l.wall_ns).abs() < 1e-6);
    }

    #[test]
    fn ledger_shares_overlapped_wall_between_parallel_lanes() {
        // Two workers construct in parallel for the whole 100 ns call.
        let log = log_with(&[
            (None, "session", 0, 100),
            (Some(0), "construct", 0, 100),
            (Some(1), "lane0", 0, 100),
            (Some(1), "lane1", 0, 100),
            (Some(2), "quotient", 0, 60),
        ]);
        let l = log.ledger(0, &by_name);
        assert!((l.construct_ns - 100.0).abs() < 1e-6, "wall, not CPU, is attributed");
        assert!((l.total_ns() - 100.0).abs() < 1e-6);
        assert_eq!(l.unattributed_ns, 0.0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let (out, _) = log.record(None, 0, "test", "work", || 41 + 1);
        assert_eq!(out, 42);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let log = log_with(&[(None, "root", 0, 10), (Some(0), "leaf", 2, 6)]);
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let leaf = zaatar_obs::json::parse(lines[1]).unwrap();
        let obj = leaf.as_object().unwrap();
        assert_eq!(obj["parent"].as_u64(), Some(0));
        assert_eq!(obj["session"].as_u64(), Some(7));
        assert_eq!(obj["self_ns"].as_u64(), Some(4));
        assert_eq!(obj["name"].as_str(), Some("leaf"));
    }
}
