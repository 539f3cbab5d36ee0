//! Causal trace analysis: happens-before graphs, critical-path latency
//! attribution, and cross-process trace stitching.
//!
//! The input is any recorded [`ObsEvent`] stream — a single engine's
//! [`crate::Recorder`] output, a JSONL file replayed through
//! [`crate::exporters::event_from_json`], or the merged per-process
//! streams of a `caex-wire` run. From it this module builds a
//! **happens-before DAG**:
//!
//! - *program-order edges*: consecutive events at the same object, in
//!   stream order (engines emit per-object subsequences in causal
//!   order, so this is exact);
//! - *message edges*: the k-th [`ObsKind::MessageReceived`] of a
//!   `(from, to, kind)` triple is paired with the k-th
//!   [`ObsKind::MessageSent`] of the same triple — exact under the
//!   §4.2 FIFO-channel assumption the protocol itself relies on.
//!
//! Over that DAG, [`CausalGraph::critical_paths`] extracts the longest
//! latency chain of each `(action, round)` resolution by walking
//! backward from its last event, always to the latest-finishing
//! predecessor. Each hop is attributed to a protocol [`Phase`]
//! (raise propagation, resolver election, resolution, commit/abort,
//! handler dispatch), and because consecutive hops telescope, the
//! phase durations sum *exactly* to the measured end-to-end latency —
//! the same latency the §4.4 analysis prices in messages, priced here
//! in time.
//!
//! For multi-process runs, [`shift_events`] and [`merge_streams`]
//! stitch per-process streams onto one timeline using the per-peer
//! clock-skew offsets estimated by the wire transport (minimum
//! observed `recv − sent` over every frame; see `caex-wire`).

use crate::event::{CorrelationId, ObsEvent, ObsKind};
use crate::json::JsonValue;
use caex_net::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The protocol phase a critical-path hop is attributed to, derived
/// from the event that *ends* the hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Raising and propagating exceptions: `Raise`, the informing
    /// messages (`exception`, `have_nested`, `nested_completed`, and
    /// the baselines' report kinds), `ResolutionStart`.
    RaisePropagation,
    /// Electing the resolver: acknowledgement traffic (`ack`,
    /// `cr_ack`, `leave_ready`), state transitions, the election
    /// itself.
    Election,
    /// Resolving the collected set against the exception tree
    /// (`ResolutionCommit`, the CR algorithm's proposals).
    Resolution,
    /// Distributing and applying the decision: `commit` traffic,
    /// abortion spans, action leave.
    CommitAbort,
    /// Running the resolved exception's handlers.
    Handler,
    /// Everything outside the resolution protocol (action entry,
    /// failures).
    Other,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::RaisePropagation,
        Phase::Election,
        Phase::Resolution,
        Phase::CommitAbort,
        Phase::Handler,
        Phase::Other,
    ];

    /// A stable lowercase label (JSON keys, folded-stack frames,
    /// table headers).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::RaisePropagation => "raise_propagation",
            Phase::Election => "election",
            Phase::Resolution => "resolution",
            Phase::CommitAbort => "commit_abort",
            Phase::Handler => "handler",
            Phase::Other => "other",
        }
    }

    /// Classifies the event that ends a critical-path hop.
    #[must_use]
    pub fn of(kind: &ObsKind) -> Phase {
        let of_msg = |k: &str| match k {
            "exception" | "have_nested" | "nested_completed" | "central_report"
            | "cr_exception" => Phase::RaisePropagation,
            "ack" | "cr_ack" | "leave_ready" => Phase::Election,
            "cr_proposal" => Phase::Resolution,
            "commit" | "central_commit" | "cr_commit" => Phase::CommitAbort,
            _ => Phase::Other,
        };
        match kind {
            ObsKind::Raise { .. } | ObsKind::ResolutionStart => Phase::RaisePropagation,
            ObsKind::StateTransition { .. }
            | ObsKind::ResolverElected { .. }
            | ObsKind::ResolverSuspected { .. }
            | ObsKind::ResolverReelected { .. } => Phase::Election,
            ObsKind::ResolutionCommit { .. } => Phase::Resolution,
            ObsKind::AbortionStart { .. } | ObsKind::AbortionEnd | ObsKind::ActionLeave => {
                Phase::CommitAbort
            }
            ObsKind::HandlerStart { .. } | ObsKind::HandlerEnd { .. } => Phase::Handler,
            ObsKind::MessageSent { kind, .. } | ObsKind::MessageReceived { kind, .. } => {
                of_msg(kind)
            }
            ObsKind::ActionEnter
            | ObsKind::ActionFailed { .. }
            | ObsKind::PeerSuspected { .. }
            | ObsKind::PeerRejoined { .. } => Phase::Other,
        }
    }
}

/// One hop of a critical path: the edge *into* `event_index`, lasting
/// `duration_us` and attributed to `phase`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Index of the hop's target event in the analyzed stream.
    pub event_index: usize,
    /// The object the target event happened at.
    pub object: NodeId,
    /// The target event's kind label.
    pub kind: &'static str,
    /// `true` if the hop arrived over a message edge (cross-object),
    /// `false` for a program-order hop.
    pub via_message: bool,
    /// Timestamp of the target event, microseconds.
    pub at_us: u64,
    /// Time elapsed along this hop, microseconds.
    pub duration_us: u64,
    /// The protocol phase this hop's time is charged to.
    pub phase: Phase,
}

/// The critical path of one `(action, round)` resolution: the longest
/// chain of happens-before edges from the round's first event to its
/// last, with per-hop and per-phase latency attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The resolution this path describes.
    pub span: CorrelationId,
    /// Timestamp of the path's first event, microseconds.
    pub start_us: u64,
    /// Timestamp of the path's last event, microseconds.
    pub end_us: u64,
    /// The hops, in causal order. Their durations telescope:
    /// `sum(duration_us) == end_us - start_us`, always.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// End-to-end latency of the round, microseconds.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Total time charged to each phase, in [`Phase::ALL`] order.
    /// The values sum to [`CriticalPath::total_us`].
    #[must_use]
    pub fn phase_totals(&self) -> Vec<(Phase, u64)> {
        let mut totals: BTreeMap<Phase, u64> = BTreeMap::new();
        for seg in &self.segments {
            *totals.entry(seg.phase).or_default() += seg.duration_us;
        }
        Phase::ALL
            .iter()
            .map(|p| (*p, totals.get(p).copied().unwrap_or(0)))
            .collect()
    }
}

/// A happens-before DAG over a recorded event stream.
///
/// Nodes are the events (by index into the stream handed to
/// [`CausalGraph::build`]); edges are program order plus matched
/// send→receive pairs.
#[derive(Debug)]
pub struct CausalGraph {
    events: Vec<ObsEvent>,
    /// `preds[v]` = (program-order predecessor, message predecessor).
    preds: Vec<(Option<usize>, Option<usize>)>,
    /// Indices of `MessageReceived` events with no matching send.
    unmatched_receives: Vec<usize>,
    /// Indices of `MessageSent` events whose receive never appeared
    /// (in flight at crash, dropped, or an un-instrumented receiver).
    unmatched_sends: Vec<usize>,
}

impl CausalGraph {
    /// Builds the DAG from a stream in engine emission order (for
    /// merged multi-process streams, time-sort first — see
    /// [`merge_streams`]; per-object subsequences must stay in their
    /// original order, which a stable sort preserves).
    ///
    /// Message matching is positional, not order-dependent: the k-th
    /// receive of a `(from, to, kind)` triple pairs with the k-th send
    /// even when residual clock skew placed the receive *before* its
    /// send in the merged stream (on fast links the skew-correction
    /// error can exceed the real one-way delay). The resulting edges
    /// reflect true causality, so the graph stays acyclic.
    #[must_use]
    pub fn build(events: &[ObsEvent]) -> CausalGraph {
        let mut preds: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); events.len()];
        let mut last_at: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut sends: BTreeMap<(NodeId, NodeId, &'static str), VecDeque<usize>> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            if let Some(&prev) = last_at.get(&ev.object) {
                preds[i].0 = Some(prev);
            }
            last_at.insert(ev.object, i);
            if let ObsKind::MessageSent { kind, to } = &ev.kind {
                sends.entry((ev.object, *to, kind)).or_default().push_back(i);
            }
        }
        let mut unmatched_receives = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            if let ObsKind::MessageReceived { kind, from } = &ev.kind {
                match sends
                    .get_mut(&(*from, ev.object, *kind))
                    .and_then(VecDeque::pop_front)
                {
                    Some(send) => preds[i].1 = Some(send),
                    None => unmatched_receives.push(i),
                }
            }
        }
        let unmatched_sends = sends.into_values().flatten().collect();
        CausalGraph {
            events: events.to_vec(),
            preds,
            unmatched_receives,
            unmatched_sends,
        }
    }

    /// The analyzed events, in the order handed to `build`.
    #[must_use]
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Receives with no matching send. Non-empty means a stream is
    /// missing (a crashed process) or instrumentation is broken.
    #[must_use]
    pub fn unmatched_receives(&self) -> &[usize] {
        &self.unmatched_receives
    }

    /// Sends whose receive never appeared (in flight at a crash,
    /// dropped by the transport, or an un-instrumented receiver).
    #[must_use]
    pub fn unmatched_sends(&self) -> &[usize] {
        &self.unmatched_sends
    }

    /// Total happens-before edges (program order + message).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.preds
            .iter()
            .map(|(p, m)| usize::from(p.is_some()) + usize::from(m.is_some()))
            .sum()
    }

    /// `true` if the DAG is acyclic. Program-order edges follow each
    /// object's own (causally ordered) subsequence and message edges
    /// follow the FIFO pairing, so a cycle can only mean broken
    /// instrumentation — this is an invariant check, not an expected
    /// failure mode.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the predecessor lists.
        let n = self.events.len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, (po, msg)) in self.preds.iter().enumerate() {
            for u in [po, msg].into_iter().flatten() {
                succs[*u].push(v);
                indegree[v] += 1;
            }
        }
        let mut queue: VecDeque<usize> =
            (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop_front() {
            seen += 1;
            for &v in &succs[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        seen == n
    }

    /// Every `(action, round)` span with `round > 0` present in the
    /// stream, sorted.
    #[must_use]
    pub(crate) fn resolution_spans(&self) -> Vec<CorrelationId> {
        let spans: BTreeSet<CorrelationId> = self
            .events
            .iter()
            .filter(|e| e.span.round > 0)
            .map(|e| e.span)
            .collect();
        spans.into_iter().collect()
    }

    fn at_us(&self, i: usize) -> u64 {
        self.events[i].at.as_micros()
    }

    /// Extracts the critical path of `span`: starting from the span's
    /// last event, repeatedly steps to the latest-finishing
    /// predecessor still inside the span (preferring the message edge
    /// on ties — the cross-object hop is the interesting one), until
    /// no in-span predecessor remains. Returns `None` if the span has
    /// no events.
    #[must_use]
    pub(crate) fn critical_path(&self, span: CorrelationId) -> Option<CriticalPath> {
        let end = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.span == span)
            .max_by_key(|(i, e)| (e.at, *i))
            .map(|(i, _)| i)?;
        let in_span = |i: usize| self.events[i].span == span;
        let mut rev: Vec<(usize, bool)> = Vec::new(); // (event, via_message)
        let mut cur = end;
        loop {
            let (po, msg) = self.preds[cur];
            let po = po.filter(|&u| in_span(u));
            let msg = msg.filter(|&u| in_span(u));
            let step = match (po, msg) {
                (None, None) => break,
                (Some(u), None) => (u, false),
                (None, Some(u)) => (u, true),
                (Some(p), Some(m)) => {
                    // Latest-finishing predecessor wins; the message
                    // edge breaks the tie because it is the hop that
                    // crossed objects.
                    if (self.at_us(m), 1) >= (self.at_us(p), 0) {
                        (m, true)
                    } else {
                        (p, false)
                    }
                }
            };
            rev.push((cur, step.1));
            cur = step.0;
        }
        let start = cur;
        let mut segments = Vec::with_capacity(rev.len());
        // Running-max cursor: residual clock skew can invert adjacent
        // stitched timestamps, so each hop is charged the monotone
        // advance only. The durations then telescope to exactly
        // `at(end) − at(start)` (the end event carries the span's
        // maximum timestamp by construction).
        let mut cursor = self.at_us(start);
        for (target, via_message) in rev.into_iter().rev() {
            let ev = &self.events[target];
            let at = self.at_us(target);
            segments.push(PathSegment {
                event_index: target,
                object: ev.object,
                kind: ev.kind.label(),
                via_message,
                at_us: at,
                duration_us: at.saturating_sub(cursor),
                phase: Phase::of(&ev.kind),
            });
            cursor = cursor.max(at);
        }
        Some(CriticalPath {
            span,
            start_us: self.at_us(start),
            end_us: self.at_us(end),
            segments,
        })
    }

    /// The critical path of every resolution span, in span order.
    #[must_use]
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        self.resolution_spans()
            .into_iter()
            .filter_map(|s| self.critical_path(s))
            .collect()
    }
}

/// Latency percentiles over a set of samples (nearest-rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample, microseconds.
    pub min_us: u64,
    /// Largest sample, microseconds.
    pub max_us: u64,
    /// 50th percentile, microseconds.
    pub p50_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, microseconds.
    pub p999_us: u64,
}

impl LatencySummary {
    /// Summarizes `samples` (order irrelevant). `None` when empty.
    #[must_use]
    pub fn of(samples: &[u64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| {
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let idx = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        Some(LatencySummary {
            count: sorted.len(),
            min_us: sorted[0],
            max_us: sorted[sorted.len() - 1],
            p50_us: rank(0.50),
            p99_us: rank(0.99),
            p999_us: rank(0.999),
        })
    }

    /// The summary as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("count".into(), JsonValue::num(self.count as u64)),
            ("min_us".into(), JsonValue::num(self.min_us)),
            ("max_us".into(), JsonValue::num(self.max_us)),
            ("p50_us".into(), JsonValue::num(self.p50_us)),
            ("p99_us".into(), JsonValue::num(self.p99_us)),
            ("p999_us".into(), JsonValue::num(self.p999_us)),
        ])
    }
}

/// Shifts every event's timestamps by `offset_us` (negative offsets
/// saturate at zero) — the per-stream correction that moves a remote
/// process's events onto the local timeline.
pub fn shift_events(events: &mut [ObsEvent], offset_us: i64) {
    for ev in events {
        let at = i64::try_from(ev.at.as_micros()).unwrap_or(i64::MAX);
        let shifted = u64::try_from(at.saturating_add(offset_us)).unwrap_or(0);
        ev.at = caex_net::SimTime::from_micros(shifted);
        if let Some(w) = ev.wall_micros {
            let w = i64::try_from(w).unwrap_or(i64::MAX);
            ev.wall_micros = Some(u64::try_from(w.saturating_add(offset_us)).unwrap_or(0));
        }
    }
}

/// Merges per-process streams onto one timeline: stable sort by
/// timestamp, which keeps every stream's internal (per-object causal)
/// order — the precondition of [`CausalGraph::build`].
#[must_use]
pub fn merge_streams(streams: Vec<Vec<ObsEvent>>) -> Vec<ObsEvent> {
    let mut merged: Vec<ObsEvent> = streams.into_iter().flatten().collect();
    merged.sort_by_key(|e| e.at);
    merged
}

/// Solves per-stream clock offsets from pairwise skew estimates and
/// returns, for each node, the shift that moves its stream onto the
/// reference node's timeline.
///
/// `skews` holds, per observing node `i`, the transport's estimates
/// `s[i][j] = min(recv_i − sent_j) = floor_delay + (epoch_j − epoch_i)`
/// for each peer `j`. Under symmetric floor delay, the offset of `k`
/// relative to reference `r` is `(s[r][k] − s[k][r]) / 2`; adding it
/// to `k`'s timestamps expresses them on `r`'s clock. Nodes without a
/// pairwise estimate against the reference get offset 0.
#[must_use]
pub fn solve_offsets(
    skews: &BTreeMap<u32, BTreeMap<u32, i64>>,
    reference: u32,
) -> BTreeMap<u32, i64> {
    let mut offsets = BTreeMap::new();
    for &node in skews.keys() {
        if node == reference {
            offsets.insert(node, 0i64);
            continue;
        }
        let to = skews.get(&reference).and_then(|m| m.get(&node));
        let back = skews.get(&node).and_then(|m| m.get(&reference));
        let offset = match (to, back) {
            (Some(a), Some(b)) => (a - b) / 2,
            _ => 0,
        };
        offsets.insert(node, offset);
    }
    offsets
}

/// Renders critical paths as a fixed-width text table: one row per
/// span, end-to-end latency, and the per-phase breakdown. The phase
/// columns sum to the total by construction.
#[must_use]
pub fn render_table(paths: &[CriticalPath]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<10} {:>10}", "span", "total_us"));
    for phase in Phase::ALL {
        out.push_str(&format!(" {:>18}", phase.label()));
    }
    out.push('\n');
    for path in paths {
        out.push_str(&format!("{:<10} {:>10}", path.span.to_string(), path.total_us()));
        for (_, us) in path.phase_totals() {
            out.push_str(&format!(" {us:>18}"));
        }
        out.push('\n');
    }
    out
}

/// The full analysis as one JSON document: DAG shape, per-span
/// critical paths with phase breakdowns, and the latency summary over
/// all spans.
#[must_use]
pub fn report_json(graph: &CausalGraph, paths: &[CriticalPath]) -> JsonValue {
    let path_objs = paths
        .iter()
        .map(|p| {
            let phases = p
                .phase_totals()
                .into_iter()
                .map(|(ph, us)| (ph.label().to_owned(), JsonValue::num(us)))
                .collect();
            let segments = p
                .segments
                .iter()
                .map(|s| {
                    JsonValue::Obj(vec![
                        ("object".into(), JsonValue::str(s.object.to_string())),
                        ("kind".into(), JsonValue::str(s.kind)),
                        ("via_message".into(), JsonValue::Bool(s.via_message)),
                        ("at_us".into(), JsonValue::num(s.at_us)),
                        ("duration_us".into(), JsonValue::num(s.duration_us)),
                        ("phase".into(), JsonValue::str(s.phase.label())),
                    ])
                })
                .collect();
            JsonValue::Obj(vec![
                ("span".into(), JsonValue::str(p.span.to_string())),
                ("start_us".into(), JsonValue::num(p.start_us)),
                ("end_us".into(), JsonValue::num(p.end_us)),
                ("total_us".into(), JsonValue::num(p.total_us())),
                ("phases".into(), JsonValue::Obj(phases)),
                ("segments".into(), JsonValue::Arr(segments)),
            ])
        })
        .collect();
    let latencies: Vec<u64> = paths.iter().map(CriticalPath::total_us).collect();
    JsonValue::Obj(vec![
        ("events".into(), JsonValue::num(graph.events().len() as u64)),
        ("edges".into(), JsonValue::num(graph.edge_count() as u64)),
        ("acyclic".into(), JsonValue::Bool(graph.is_acyclic())),
        (
            "unmatched_receives".into(),
            JsonValue::num(graph.unmatched_receives().len() as u64),
        ),
        (
            "unmatched_sends".into(),
            JsonValue::num(graph.unmatched_sends().len() as u64),
        ),
        ("critical_paths".into(), JsonValue::Arr(path_objs)),
        (
            "latency".into(),
            LatencySummary::of(&latencies).map_or(JsonValue::Null, |s| s.to_json()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_action::ActionId;
    use caex_net::SimTime;

    fn ev(at: u64, object: u32, round: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(at),
            wall_micros: None,
            object: NodeId::new(object),
            span: CorrelationId { action: ActionId::new(0), round },
            kind,
        }
    }

    /// Two objects, one exception crossing between them, a commit
    /// coming back: the minimal cross-object resolution shape.
    fn two_object_round() -> Vec<ObsEvent> {
        vec![
            ev(0, 0, 1, ObsKind::ResolutionStart),
            ev(0, 0, 1, ObsKind::Raise { exception: caex_tree::ExceptionId::new(1) }),
            ev(5, 0, 1, ObsKind::MessageSent { kind: "exception", to: NodeId::new(1) }),
            ev(105, 1, 1, ObsKind::MessageReceived { kind: "exception", from: NodeId::new(0) }),
            ev(110, 1, 1, ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) }),
            ev(210, 0, 1, ObsKind::MessageReceived { kind: "ack", from: NodeId::new(1) }),
            ev(
                215,
                0,
                1,
                ObsKind::ResolutionCommit { resolved: caex_tree::ExceptionId::new(1), raised: 1 },
            ),
            ev(220, 0, 1, ObsKind::MessageSent { kind: "commit", to: NodeId::new(1) }),
            ev(320, 1, 1, ObsKind::MessageReceived { kind: "commit", from: NodeId::new(0) }),
        ]
    }

    #[test]
    fn builds_program_and_message_edges() {
        let graph = CausalGraph::build(&two_object_round());
        assert!(graph.is_acyclic());
        assert!(graph.unmatched_receives().is_empty());
        assert!(graph.unmatched_sends().is_empty());
        // O0 has 6 events → 5 program-order edges; O1 has 3 → 2;
        // plus the 3 matched send→receive edges.
        assert_eq!(graph.edge_count(), 5 + 2 + 3);
    }

    #[test]
    fn critical_path_telescopes_to_end_to_end_latency() {
        let graph = CausalGraph::build(&two_object_round());
        let span = CorrelationId { action: ActionId::new(0), round: 1 };
        let path = graph.critical_path(span).expect("span has events");
        assert_eq!(path.start_us, 0);
        assert_eq!(path.end_us, 320);
        let sum: u64 = path.segments.iter().map(|s| s.duration_us).sum();
        assert_eq!(sum, path.total_us());
        let phase_sum: u64 = path.phase_totals().iter().map(|(_, us)| us).sum();
        assert_eq!(phase_sum, path.total_us());
        // The path crosses objects through all three messages.
        assert_eq!(path.segments.iter().filter(|s| s.via_message).count(), 3);
        // The final hop is the commit landing at O1.
        let last = path.segments.last().expect("non-empty");
        assert_eq!(last.kind, "message_received");
        assert_eq!(last.phase, Phase::CommitAbort);
    }

    #[test]
    fn fifo_pairing_matches_kth_send_with_kth_receive() {
        let events = vec![
            ev(0, 0, 1, ObsKind::MessageSent { kind: "ack", to: NodeId::new(1) }),
            ev(1, 0, 1, ObsKind::MessageSent { kind: "ack", to: NodeId::new(1) }),
            ev(10, 1, 1, ObsKind::MessageReceived { kind: "ack", from: NodeId::new(0) }),
            ev(11, 1, 1, ObsKind::MessageReceived { kind: "ack", from: NodeId::new(0) }),
        ];
        let graph = CausalGraph::build(&events);
        assert_eq!(graph.preds[2].1, Some(0));
        assert_eq!(graph.preds[3].1, Some(1));
        assert!(graph.unmatched_receives().is_empty());
    }

    #[test]
    fn skew_inverted_receive_still_matches_and_telescopes() {
        // Residual skew put the receive 3us *before* its send in the
        // merged stream: the positional matcher still pairs them, and
        // the running-max cursor keeps the phase sums exact.
        let events = vec![
            ev(0, 0, 1, ObsKind::ResolutionStart),
            ev(7, 1, 1, ObsKind::MessageReceived { kind: "exception", from: NodeId::new(0) }),
            ev(10, 0, 1, ObsKind::MessageSent { kind: "exception", to: NodeId::new(1) }),
            ev(20, 1, 1, ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) }),
            ev(30, 0, 1, ObsKind::MessageReceived { kind: "ack", from: NodeId::new(1) }),
        ];
        let graph = CausalGraph::build(&events);
        assert!(graph.is_acyclic());
        assert!(graph.unmatched_receives().is_empty());
        assert!(graph.unmatched_sends().is_empty());
        assert_eq!(graph.preds[1].1, Some(2), "receive paired despite inversion");
        let span = CorrelationId { action: ActionId::new(0), round: 1 };
        let path = graph.critical_path(span).expect("span has events");
        let sum: u64 = path.segments.iter().map(|s| s.duration_us).sum();
        assert_eq!(sum, path.total_us(), "telescoping survives the inversion");
    }

    #[test]
    fn orphan_receive_and_lost_send_are_diagnosed() {
        let events = vec![
            ev(0, 0, 1, ObsKind::MessageSent { kind: "exception", to: NodeId::new(2) }),
            ev(10, 1, 1, ObsKind::MessageReceived { kind: "ack", from: NodeId::new(3) }),
        ];
        let graph = CausalGraph::build(&events);
        assert_eq!(graph.unmatched_sends(), &[0]);
        assert_eq!(graph.unmatched_receives(), &[1]);
        assert!(graph.is_acyclic());
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<u64> = (1..=1000).collect();
        let s = LatencySummary::of(&samples).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_us, 1);
        assert_eq!(s.max_us, 1000);
        assert_eq!(s.p50_us, 500);
        assert_eq!(s.p99_us, 990);
        assert_eq!(s.p999_us, 999);
        assert_eq!(LatencySummary::of(&[]), None);
    }

    #[test]
    fn shift_and_merge_stitch_streams() {
        let mut remote = vec![ev(50, 1, 1, ObsKind::ResolutionStart)];
        shift_events(&mut remote, -20);
        assert_eq!(remote[0].at.as_micros(), 30);
        let mut negative = vec![ev(5, 1, 1, ObsKind::ResolutionStart)];
        shift_events(&mut negative, -20);
        assert_eq!(negative[0].at.as_micros(), 0, "saturates at zero");
        let local = vec![ev(10, 0, 1, ObsKind::ResolutionStart)];
        let merged = merge_streams(vec![local, remote]);
        assert_eq!(merged.len(), 2);
        assert!(merged[0].at <= merged[1].at);
    }

    #[test]
    fn solve_offsets_halves_the_asymmetry() {
        // Node 1's clock is 100us ahead of node 0's, floor delay 10us:
        // s[0][1] = 10 + 100 = 110, s[1][0] = 10 - 100 = -90.
        let mut skews: BTreeMap<u32, BTreeMap<u32, i64>> = BTreeMap::new();
        skews.insert(0, BTreeMap::from([(1, 110)]));
        skews.insert(1, BTreeMap::from([(0, -90)]));
        let offsets = solve_offsets(&skews, 0);
        assert_eq!(offsets.get(&0), Some(&0));
        // (110 − (−90)) / 2 = 100: node 1's epoch started 100us later
        // in true time, so its local stamps read 100us small and the
        // +100 shift lands them on node 0's clock.
        assert_eq!(offsets.get(&1), Some(&100));
    }

    #[test]
    fn render_table_phases_sum_to_total() {
        let graph = CausalGraph::build(&two_object_round());
        let paths = graph.critical_paths();
        let table = render_table(&paths);
        assert!(table.contains("A0#r1"));
        assert!(table.contains("raise_propagation"));
        let doc = report_json(&graph, &paths);
        assert_eq!(doc.get("acyclic").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("unmatched_receives").and_then(JsonValue::as_u64), Some(0));
    }
}
