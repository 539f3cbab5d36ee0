//! The benchmark's own in-memory spans, recorded around each call
//! into a layer and written out when the workload ends.
//!
//! Spans live in the benchmark, not in the crates: every layer is
//! timed from outside, through its public functions. A [`Tracer`] is a
//! compile-time choice — [`Off`] compiles to nothing, so the untraced
//! pass of a host runs the same code minus the clock reads, and the
//! difference between the two passes is the tracing overhead.

use caex_obs::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `participant.handle.ack`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation (action instance or round) the span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where hosts report span boundaries.
pub trait Tracer {
    /// Opens a span under the innermost open one; returns its handle.
    fn begin(&mut self, name: &'static str, op: u64) -> u32;
    /// Closes the span `begin` returned.
    fn end(&mut self, span: u32);
}

/// Tracing off: no clock reads, no storage.
#[derive(Debug, Default)]
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str, _op: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _span: u32) {}
}

/// An in-memory span log with one clock epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the epoch to `at` (zero for earlier instants).
    #[must_use]
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose boundaries were observed elsewhere (phase
    /// spans derived from note timestamps); returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("span count fits u32")
    }

    /// Appends another log's spans (same epoch), re-basing their
    /// parent links; roots of `other` become children of `parent`.
    pub fn absorb(&mut self, other: SpanLog, parent: u32) {
        let base = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for SpanLog {
    fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let index = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.open.push(index);
        // The clock is read last on entry and first on exit, so the
        // span covers the layer call and one clock read, nothing else.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        index
    }

    fn end(&mut self, span: u32) {
        let end_ns = self.now_ns();
        self.spans[span as usize].end_ns = end_ns;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(span), "spans close innermost-first");
    }
}

/// What one span name added up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part covered by
    /// child spans.
    pub self_ns: u64,
}

/// Per-name totals across any number of logs.
#[derive(Debug, Default)]
pub struct LayerTotals {
    by_name: BTreeMap<&'static str, LayerTotal>,
    /// What an empty span measures: one clock read plus the store.
    pub clock_ns: f64,
}

impl LayerTotals {
    /// Totals with the clock cost of an empty span calibrated now.
    #[must_use]
    pub fn calibrated() -> Self {
        let mut log = SpanLog::new(Instant::now());
        for _ in 0..20_000 {
            let s = log.begin("calibrate", 0);
            log.end(s);
        }
        let durations: Vec<f64> = log.spans.iter().map(|s| s.duration_ns() as f64).collect();
        LayerTotals {
            by_name: BTreeMap::new(),
            clock_ns: crate::stats::median(&durations),
        }
    }

    /// Folds a log's spans into the totals.
    pub fn add(&mut self, log: &SpanLog) {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        for (s, covered) in log.spans.iter().zip(child_ns) {
            let t = self.by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(covered);
        }
    }

    /// The totals of one span name (zeros if never recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> LayerTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the named span with the calibrated clock read
    /// taken out; `0` when the span never occurred.
    #[must_use]
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let mean = t.total_ns as f64 / t.count as f64;
        (mean - self.clock_ns).max(0.0)
    }

    /// Every name with its totals, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, LayerTotal)> + '_ {
        self.by_name.iter().map(|(n, t)| (*n, *t))
    }
}

/// Raw spans kept for the trace file; the totals cover all of them.
pub const SPANS_WRITTEN_MAX: usize = 20_000;

/// Renders the trace document: per-name totals over every recorded
/// span plus the first [`SPANS_WRITTEN_MAX`] raw spans.
#[must_use]
pub fn trace_json(workload: &str, seed: u64, totals: &LayerTotals, sample: &SpanLog) -> JsonValue {
    let num = |n: u64| JsonValue::num(n);
    let layers = totals
        .iter()
        .map(|(name, t)| {
            JsonValue::Obj(vec![
                ("name".into(), JsonValue::str(name)),
                ("count".into(), num(t.count)),
                ("total_ns".into(), num(t.total_ns)),
                ("self_ns".into(), num(t.self_ns)),
                (
                    "mean_ns_less_clock".into(),
                    JsonValue::Num(totals.mean_ns(name)),
                ),
            ])
        })
        .collect();
    let spans = sample
        .spans()
        .iter()
        .take(SPANS_WRITTEN_MAX)
        .enumerate()
        .map(|(id, s)| {
            JsonValue::Obj(vec![
                ("id".into(), num(id as u64)),
                ("name".into(), JsonValue::str(s.name)),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                (
                    "parent".into(),
                    if s.parent == NO_PARENT || s.parent as usize >= SPANS_WRITTEN_MAX {
                        JsonValue::Null
                    } else {
                        num(u64::from(s.parent))
                    },
                ),
                ("op".into(), num(s.op)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("workload".into(), JsonValue::str(workload)),
        ("seed".into(), num(seed)),
        ("clock_ns_per_span".into(), JsonValue::Num(totals.clock_ns)),
        (
            "spans_recorded".into(),
            num(totals.iter().map(|(_, t)| t.count).sum()),
        ),
        (
            "spans_written".into(),
            num(sample.spans().len().min(SPANS_WRITTEN_MAX) as u64),
        ),
        ("layers".into(), JsonValue::Arr(layers)),
        ("spans".into(), JsonValue::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now());
        let outer = log.begin("outer", 1);
        let inner = log.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.end(inner);
        log.end(outer);
        assert_eq!(log.spans()[inner as usize].parent, outer);
        assert_eq!(log.spans()[outer as usize].parent, NO_PARENT);

        let mut totals = LayerTotals::default();
        totals.add(&log);
        let (o, i) = (totals.get("outer"), totals.get("inner"));
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(totals.get("absent"), LayerTotal::default());
        assert_eq!(totals.mean_ns("absent"), 0.0);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut main = SpanLog::new(epoch);
        let root = main.begin("round", 3);
        main.end(root);
        let mut node = SpanLog::new(epoch);
        let h = node.begin("handle", 3);
        let c = node.begin("child", 3);
        node.end(c);
        node.end(h);
        main.absorb(node, root);
        assert_eq!(main.spans()[1].parent, root);
        assert_eq!(main.spans()[2].parent, 1);
    }
}
