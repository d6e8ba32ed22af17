//! An in-memory span recorder for the benchmark's traced passes.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! library layer: name, parent, start/end in nanoseconds since the recorder
//! was created, and items in/out. Counters record per-layer counts at the
//! same boundaries. Nothing here touches the library crates; tracing inside
//! the program is a separate concern.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within its recorder.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer boundary name, e.g. `"curation.dedup"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Items that entered the call.
    pub items_in: u64,
    /// Items that left the call.
    pub items_out: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Identifier of an open span, used to parent spans opened on other threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

thread_local! {
    /// The open spans of this thread, innermost last: the implicit parent of
    /// the next span opened with [`Recorder::span`].
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans and counters from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Every update to the recorder's vectors and maps is a single push or
/// insert, so the data stays valid even if a holder panicked.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.open(name, parent)
    }

    /// Opens a span under an explicit parent — for work fanned out to other
    /// threads, whose own stack of open spans is empty.
    pub fn child_of(&self, name: &'static str, parent: SpanId) -> SpanGuard<'_> {
        self.open(name, Some(parent.0))
    }

    fn open(&self, name: &'static str, parent: Option<u32>) -> SpanGuard<'_> {
        // Ids only need to be unique; nothing is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            recorder: self,
            span: Span {
                id,
                parent,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                items_in: 0,
                items_out: 0,
            },
        }
    }

    /// Adds `value` to a counter.
    pub fn add(&self, counter: &'static str, value: f64) {
        *relock(&self.counters).entry(counter).or_insert(0.0) += value;
    }

    /// Raises a counter to at least `value`.
    pub fn raise(&self, counter: &'static str, value: f64) {
        let mut counters = relock(&self.counters);
        let slot = counters.entry(counter).or_insert(value);
        *slot = slot.max(value);
    }

    /// The finished spans, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        relock(&self.spans).clone()
    }

    /// The counters.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        relock(&self.counters).clone()
    }
}

/// An open span; it closes, and is recorded, when dropped.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    span: Span,
}

impl SpanGuard<'_> {
    /// The span's identifier, for parenting spans on other threads.
    pub fn id(&self) -> SpanId {
        SpanId(self.span.id)
    }

    /// Records how many items entered and left the call.
    pub fn items(&mut self, items_in: usize, items_out: usize) {
        self.span.items_in = items_in as u64;
        self.span.items_out = items_out as u64;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.span.id) {
                open.truncate(pos);
            }
        });
        relock(&self.recorder.spans).push(self.span);
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of its interval that its children cover (overlapping children, e.g.
/// on parallel threads, are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let Some(intervals) = children.get_mut(&span.id) else {
                return span.duration_ns();
            };
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals folded over the spans and counters of traced passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Traced passes folded in.
    pub passes: usize,
    /// Sum of self time by span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every span duration by name, in nanoseconds.
    pub durations_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Sum of items in by span name.
    pub items_in: BTreeMap<&'static str, u64>,
    /// Sum of items out by span name.
    pub items_out: BTreeMap<&'static str, u64>,
    /// Counters summed over passes.
    pub counters: BTreeMap<&'static str, f64>,
    /// Spans folded in, over all passes.
    pub spans: usize,
}

impl LayerTotals {
    /// Folds one traced pass in.
    pub fn absorb(&mut self, recorder: &Recorder) {
        let spans = recorder.spans();
        for (span, self_ns) in spans.iter().zip(self_times_ns(&spans)) {
            *self.self_ns.entry(span.name).or_default() += self_ns;
            self.durations_ns
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64);
            *self.items_in.entry(span.name).or_default() += span.items_in;
            *self.items_out.entry(span.name).or_default() += span.items_out;
        }
        for (name, value) in recorder.counters() {
            *self.counters.entry(name).or_default() += value;
        }
        self.spans += spans.len();
        self.passes += 1;
    }

    /// Total self time over all spans: the traced busy time that shares are
    /// taken of.
    pub fn busy_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Self time of `name` as a percentage of [`LayerTotals::busy_ns`].
    pub fn self_pct(&self, name: &str) -> f64 {
        let busy = self.busy_ns();
        if busy == 0 {
            0.0
        } else {
            100.0 * self.self_ns.get(name).copied().unwrap_or(0) as f64 / busy as f64
        }
    }

    /// A counter averaged per traced pass.
    pub fn per_pass(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0) / self.passes.max(1) as f64
    }

    /// Items into spans named `name`, averaged per traced pass.
    pub fn items_in_per_pass(&self, name: &str) -> f64 {
        self.items_in.get(name).copied().unwrap_or(0) as f64 / self.passes.max(1) as f64
    }

    /// Items out of spans named `name`, averaged per traced pass.
    pub fn items_out_per_pass(&self, name: &str) -> f64 {
        self.items_out.get(name).copied().unwrap_or(0) as f64 / self.passes.max(1) as f64
    }

    /// `numerator / denominator` over the summed counters, 0 when nothing
    /// was counted.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let den = self.counters.get(denominator).copied().unwrap_or(0.0);
        if den == 0.0 {
            0.0
        } else {
            self.counters.get(numerator).copied().unwrap_or(0.0) / den
        }
    }
}

/// Renders a recorder's spans and counters as the trace file's JSON.
pub fn trace_json(workload: &str, seed: u64, recorder: &Recorder) -> String {
    let mut spans = recorder.spans();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut out =
        format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n    {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"items_in\": {}, \"items_out\": {}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.items_in,
            s.items_out
        );
    }
    out.push_str("\n  ],\n  \"counters\": {");
    for (i, (name, value)) in recorder.counters().iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{name}\": {value}",
            if i == 0 { "" } else { "," }
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            items_in: 0,
            items_out: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            span(4, Some(1), 12, 18),
        ];
        // Children of 0 cover [10, 50) and [60, 70): 50ns.
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 10, 6]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn spans_nest_on_a_thread_and_parent_across_threads() {
        let recorder = Recorder::new();
        {
            let outer = recorder.span("outer");
            let outer_id = outer.id();
            {
                let mut inner = recorder.span("inner");
                inner.items(3, 2);
            }
            std::thread::scope(|scope| {
                scope.spawn(|| drop(recorder.child_of("worker", outer_id)));
            });
        }
        drop(recorder.span("after"));
        let spans = recorder.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).copied().unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(
            (by_name("inner").items_in, by_name("inner").items_out),
            (3, 2)
        );
        assert_eq!(by_name("worker").parent, Some(outer.id));
        assert_eq!(by_name("after").parent, None);
    }

    #[test]
    fn totals_fold_shares_counters_and_items() {
        let recorder = Recorder::new();
        {
            let mut root = recorder.span("root");
            root.items(10, 4);
            drop(recorder.span("leaf"));
        }
        recorder.add("hits", 2.0);
        recorder.add("hits", 1.0);
        recorder.raise("peak", 5.0);
        recorder.raise("peak", 3.0);
        let mut totals = LayerTotals::default();
        totals.absorb(&recorder);
        totals.absorb(&recorder);
        assert_eq!(totals.passes, 2);
        assert_eq!(totals.spans, 4);
        let shares = totals.self_pct("root") + totals.self_pct("leaf");
        assert!((shares - 100.0).abs() < 1e-9);
        assert_eq!(totals.per_pass("hits"), 3.0);
        assert_eq!(totals.per_pass("peak"), 5.0);
        assert_eq!(totals.items_in_per_pass("root"), 10.0);
        assert_eq!(totals.items_out_per_pass("root"), 4.0);
        assert_eq!(totals.ratio("hits", "peak"), 0.6);
        assert_eq!(totals.ratio("hits", "missing"), 0.0);
        assert_eq!(totals.self_pct("missing"), 0.0);
    }

    #[test]
    fn trace_json_lists_spans_in_start_order() {
        let recorder = Recorder::new();
        drop(recorder.span("first"));
        drop(recorder.span("second"));
        recorder.add("n", 1.0);
        let json = trace_json("w", 7, &recorder);
        assert!(json.starts_with("{\n  \"workload\": \"w\",\n  \"seed\": 7,"));
        assert!(json.find("\"first\"").unwrap() < json.find("\"second\"").unwrap());
        assert!(json.contains("\"n\": 1"));
    }
}
