//! [`MetricsRegistry`]: counters and fixed-bucket histograms derived
//! live from the event stream, a §4.4 law check, Prometheus-style text
//! exposition and a JSON-round-trippable snapshot.

use crate::event::{CorrelationId, ObsEvent, ObsKind, ObsState, Observer};
use crate::json::{self, JsonValue};
use caex_action::ActionId;
use caex_net::{IdMap, LabelCounts, NodeId, SimTime};
use caex_tree::ExceptionId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Default microsecond bucket bounds shared by every histogram: powers
/// of ten from 1µs to 10s, plus the implicit `+Inf` bucket.
pub(crate) const DEFAULT_US_BOUNDS: [u64; 8] =
    [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Message kinds counted against the §4.4 bound. `leave_ready` is
/// leave coordination, which the paper's count does not include.
const LAW_KINDS: [&str; 5] =
    ["exception", "ack", "have_nested", "nested_completed", "commit"];

/// A fixed-bucket histogram over `u64` samples (microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>, // bounds.len() + 1: last bucket is +Inf
    sum: u64,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&DEFAULT_US_BOUNDS)
    }
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds
    /// (must be sorted ascending); an `+Inf` bucket is added.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> u64 {
        if self.count == 0 { 0 } else { self.sum / self.count }
    }

    /// Largest sample seen, or 0 with no samples.
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 { 0 } else { self.max }
    }

    /// Smallest sample seen, or 0 with no samples.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// `(upper_bound, cumulative_count)` pairs in Prometheus `le`
    /// convention, ending with the `+Inf` bucket (`u64::MAX`).
    #[must_use]
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut running = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            running += count;
            let bound = self.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, running));
        }
        out
    }

    /// Nearest-rank percentile estimate for `q` in `(0, 1]`: the
    /// inclusive upper bound of the bucket holding the `q`-th sample,
    /// clamped to the exact maximum (so the `+Inf` bucket reports
    /// `max`, not infinity). Returns 0 with no samples.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut running = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            running += c;
            if running >= rank {
                return self.bounds.get(i).copied().unwrap_or(self.max).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile estimate (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile estimate (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// A plain-data copy for snapshots.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            sum: self.sum,
            count: self.count,
            p50: self.p50(),
            p99: self.p99(),
            p999: self.p999(),
        }
    }
}

/// Plain-data form of a [`Histogram`] for snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (ascending).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (`+Inf` last).
    pub counts: Vec<u64>,
    /// Sum of all samples.
    pub sum: u64,
    /// Number of samples.
    pub count: u64,
    /// Median estimate at snapshot time (see [`Histogram::percentile`]).
    pub p50: u64,
    /// 99th-percentile estimate at snapshot time.
    pub p99: u64,
    /// 99.9th-percentile estimate at snapshot time.
    pub p999: u64,
}

/// Per-resolution-round metrics, finalized at end of run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionMetrics {
    /// The action the round ran in.
    pub action: ActionId,
    /// The round number (1-based).
    pub round: u32,
    /// Sim-time latency from first raise to commit, in µs.
    pub latency_us: u64,
    /// Wall-clock latency, when the engine had a real clock.
    pub wall_latency_us: Option<u64>,
    /// Protocol messages attributed to the round (law kinds only —
    /// excludes leave coordination).
    pub messages: u64,
    /// Per-kind message counts for the round (all kinds).
    pub by_kind: Vec<(String, u64)>,
    /// Participants of the action (`N`).
    pub n: u64,
    /// Distinct concurrently raised exceptions (`P`).
    pub p: u64,
    /// Participants that aborted nested actions (`Q`).
    pub q: u64,
    /// The §4.4 prediction, when a law was injected and applicable.
    pub predicted: Option<u64>,
    /// `Some(true)` iff `messages == predicted`.
    pub law_holds: Option<bool>,
    /// The exception the round resolved to, as `e<idx>`.
    pub resolved: Option<String>,
}

/// Book-keeping for one open or committed round.
#[derive(Debug, Default)]
struct RoundStats {
    started_at: Option<SimTime>,
    wall_started: Option<u64>,
    committed_at: Option<SimTime>,
    wall_committed: Option<u64>,
    /// Per-kind sends.
    by_kind: LabelCounts,
    raised: BTreeSet<u32>,
    aborters: BTreeSet<NodeId>,
    resolved: Option<ExceptionId>,
}

/// The metrics observer: counters, histograms, per-round accounting
/// and the §4.4 law check.
///
/// Attach to a run via `run_observed`, then read [`Self::prometheus`]
/// or [`Self::snapshot`]. `on_run_end` (called by the engines) closes
/// dwell intervals and finalizes the per-round records; both outputs
/// call it implicitly through the finalized data only if the engine
/// did.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    law: Option<fn(u64, u64, u64) -> u64>,
    events_total: LabelCounts,
    messages_total: LabelCounts,
    rounds: IdMap<(ActionId, u32), RoundStats>,
    participants: IdMap<ActionId, BTreeSet<NodeId>>,
    state_since: IdMap<NodeId, (ObsState, SimTime)>,
    dwell_us: LabelCounts,
    handler_open: IdMap<NodeId, (SimTime, Option<u64>)>,
    handler_durations: Histogram,
    resolution_latency: Histogram,
    resolution_latency_wall: Histogram,
    resolutions: Vec<ResolutionMetrics>,
    finished: bool,
}

impl MetricsRegistry {
    /// Creates a registry with no §4.4 law attached.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the §4.4 predictor `f(n, p, q) -> messages`; callers
    /// pass `caex::analysis::messages_general` so the check literally
    /// uses the analysis module's closed form.
    #[must_use]
    pub fn with_law(mut self, law: fn(u64, u64, u64) -> u64) -> Self {
        self.law = Some(law);
        self
    }

    /// Total events seen per kind label, as a map built for this call.
    #[must_use]
    pub fn events_total(&self) -> BTreeMap<&'static str, u64> {
        self.events_total.to_map()
    }

    /// Total messages sent per wire kind, as a map built for this call.
    #[must_use]
    pub fn messages_total(&self) -> BTreeMap<&'static str, u64> {
        self.messages_total.to_map()
    }

    /// Finalized per-round metrics (populated by `on_run_end`).
    #[must_use]
    pub fn resolutions(&self) -> &[ResolutionMetrics] {
        &self.resolutions
    }

    /// Per-state dwell time in µs, summed over all objects, as a map
    /// built for this call.
    #[must_use]
    pub fn state_dwell_us(&self) -> BTreeMap<&'static str, u64> {
        self.dwell_us.to_map()
    }

    /// The resolution-latency histogram (sim time, µs).
    #[must_use]
    pub fn resolution_latency(&self) -> &Histogram {
        &self.resolution_latency
    }

    /// The handler-duration histogram (sim time, µs).
    #[must_use]
    pub fn handler_durations(&self) -> &Histogram {
        &self.handler_durations
    }

    /// `true` iff every committed round with an applicable law matched
    /// its §4.4 prediction exactly. Rounds without a law (or with
    /// `p = 0` / `p + q > n`, outside the closed form's domain) don't
    /// count against it.
    #[must_use]
    pub fn law_holds(&self) -> bool {
        self.resolutions.iter().all(|r| r.law_holds != Some(false))
    }

    fn round_mut(&mut self, span: CorrelationId) -> &mut RoundStats {
        self.rounds.entry((span.action, span.round)).or_default()
    }

    fn touch_state(&mut self, object: NodeId, at: SimTime) {
        self.state_since.entry(object).or_insert((ObsState::N, at));
    }

    /// Renders the Prometheus text exposition format. Label values are
    /// escaped per the exposition-format rules (`\` → `\\`, `"` →
    /// `\"`, newline → `\n`).
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE caex_events_total counter\n");
        for (kind, count) in self.events_total.sorted() {
            let kind = escape_label_value(kind);
            let _ = writeln!(out, "caex_events_total{{kind=\"{kind}\"}} {count}");
        }
        out.push_str("# TYPE caex_messages_total counter\n");
        for (kind, count) in self.messages_total.sorted() {
            let kind = escape_label_value(kind);
            let _ = writeln!(out, "caex_messages_total{{kind=\"{kind}\"}} {count}");
        }
        out.push_str("# TYPE caex_state_dwell_us counter\n");
        for (state, us) in self.dwell_us.sorted() {
            let state = escape_label_value(state);
            let _ = writeln!(out, "caex_state_dwell_us{{state=\"{state}\"}} {us}");
        }
        for (name, hist) in [
            ("caex_resolution_latency_us", &self.resolution_latency),
            ("caex_resolution_latency_wall_us", &self.resolution_latency_wall),
            ("caex_handler_duration_us", &self.handler_durations),
        ] {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (bound, cumulative) in hist.cumulative_buckets() {
                if bound == u64::MAX {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                } else {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out.push_str("# TYPE caex_resolution_messages gauge\n");
        for r in &self.resolutions {
            let _ = writeln!(
                out,
                "caex_resolution_messages{{action=\"{}\",round=\"{}\"}} {}",
                escape_label_value(&r.action.to_string()),
                r.round,
                r.messages
            );
        }
        out
    }

    /// A plain-data snapshot of every metric, for serialization.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_total: owned_pairs(&self.events_total),
            messages_total: owned_pairs(&self.messages_total),
            state_dwell_us: owned_pairs(&self.dwell_us),
            resolutions: self.resolutions.clone(),
            resolution_latency: self.resolution_latency.snapshot(),
            resolution_latency_wall: self.resolution_latency_wall.snapshot(),
            handler_durations: self.handler_durations.snapshot(),
        }
    }
}

impl Observer for MetricsRegistry {
    fn on_event(&mut self, event: &ObsEvent) {
        self.events_total.add(event.kind.label(), 1);
        self.touch_state(event.object, event.at);

        match &event.kind {
            ObsKind::ActionEnter => {
                self.participants
                    .entry(event.span.action)
                    .or_default()
                    .insert(event.object);
            }
            ObsKind::StateTransition { from, to } => {
                let now = event.at;
                if let Some((state, since)) = self.state_since.get_mut(&event.object) {
                    debug_assert_eq!(state, from);
                    let dwell = now.as_micros().saturating_sub(since.as_micros());
                    self.dwell_us.add(from.label(), dwell);
                    *state = *to;
                    *since = now;
                }
            }
            ObsKind::Raise { exception } => {
                if event.span.round > 0 {
                    let at = event.at;
                    let wall = event.wall_micros;
                    let idx = exception.index();
                    let round = self.round_mut(event.span);
                    round.started_at.get_or_insert(at);
                    if round.wall_started.is_none() {
                        round.wall_started = wall;
                    }
                    round.raised.insert(idx);
                }
            }
            ObsKind::ResolutionStart => {
                let at = event.at;
                let wall = event.wall_micros;
                let round = self.round_mut(event.span);
                round.started_at.get_or_insert(at);
                if round.wall_started.is_none() {
                    round.wall_started = wall;
                }
            }
            ObsKind::AbortionStart { .. } => {
                let object = event.object;
                if event.span.round > 0 {
                    self.round_mut(event.span).aborters.insert(object);
                }
            }
            ObsKind::MessageSent { kind, .. } => {
                self.messages_total.add(kind, 1);
                if event.span.round > 0 {
                    self.round_mut(event.span).by_kind.add(kind, 1);
                }
            }
            ObsKind::ResolutionCommit { resolved, .. } => {
                let at = event.at;
                let wall = event.wall_micros;
                let round = self.round_mut(event.span);
                // First commit wins: with a resolver group > 1 the
                // replicas commit the same result.
                if round.committed_at.is_none() {
                    round.committed_at = Some(at);
                    round.wall_committed = wall;
                    round.resolved = Some(*resolved);
                }
            }
            ObsKind::HandlerStart { .. } => {
                self.handler_open
                    .insert(event.object, (event.at, event.wall_micros));
            }
            ObsKind::HandlerEnd { .. } => {
                if let Some((start, _)) = self.handler_open.remove(&event.object) {
                    let us = event.at.as_micros().saturating_sub(start.as_micros());
                    self.handler_durations.observe(us);
                }
            }
            // Receives mirror sends one-to-one under reliable FIFO
            // channels; counting them against the §4.4 law would
            // double every message. Failover events only need the
            // per-kind `events_total` tally above.
            ObsKind::ActionLeave
            | ObsKind::ResolverElected { .. }
            | ObsKind::AbortionEnd
            | ObsKind::MessageReceived { .. }
            | ObsKind::ActionFailed { .. }
            | ObsKind::ResolverSuspected { .. }
            | ObsKind::ResolverReelected { .. }
            | ObsKind::PeerSuspected { .. }
            | ObsKind::PeerRejoined { .. } => {}
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        if self.finished {
            return;
        }
        self.finished = true;

        // Close every object's final dwell interval.
        for (state, since) in self.state_since.values() {
            let dwell = at.as_micros().saturating_sub(since.as_micros());
            self.dwell_us.add(state.label(), dwell);
        }

        // Finalize committed rounds in a stable order.
        let mut keys: Vec<(ActionId, u32)> = self.rounds.keys().copied().collect();
        keys.sort_unstable_by_key(|(a, r)| (a.index(), *r));
        for key in keys {
            let (action, round_no) = key;
            let round = &self.rounds[&key];
            let (Some(started), Some(committed)) = (round.started_at, round.committed_at)
            else {
                continue; // round never opened or never committed
            };
            let latency_us = committed.as_micros().saturating_sub(started.as_micros());
            let wall_latency_us = match (round.wall_started, round.wall_committed) {
                (Some(s), Some(c)) => Some(c.saturating_sub(s)),
                _ => None,
            };
            let messages: u64 = LAW_KINDS.iter().map(|kind| round.by_kind.get(kind)).sum();
            let by_kind = owned_pairs(&round.by_kind);
            let n = self
                .participants
                .get(&action)
                .map_or(0, |set| set.len() as u64);
            let p = round.raised.len() as u64;
            let q = round.aborters.len() as u64;
            let predicted = match self.law {
                Some(law) if p >= 1 && p + q <= n && n >= 1 => Some(law(n, p, q)),
                _ => None,
            };
            let law_holds = predicted.map(|want| want == messages);
            self.resolution_latency.observe(latency_us);
            if let Some(wall) = wall_latency_us {
                self.resolution_latency_wall.observe(wall);
            }
            self.resolutions.push(ResolutionMetrics {
                action,
                round: round_no,
                latency_us,
                wall_latency_us,
                messages,
                by_kind,
                n,
                p,
                q,
                predicted,
                law_holds,
                resolved: round.resolved.map(|e| format!("e{}", e.index())),
            });
        }
    }
}

/// Plain-data snapshot of a [`MetricsRegistry`], JSON round-trippable
/// via [`MetricsSnapshot::to_json`] / [`MetricsSnapshot::from_json`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Events per kind label.
    pub events_total: Vec<(String, u64)>,
    /// Messages per wire kind.
    pub messages_total: Vec<(String, u64)>,
    /// Dwell µs per §4.2 state.
    pub state_dwell_us: Vec<(String, u64)>,
    /// Finalized per-round metrics.
    pub resolutions: Vec<ResolutionMetrics>,
    /// Resolution latency histogram (sim µs).
    pub resolution_latency: HistogramSnapshot,
    /// Resolution latency histogram (wall µs), empty for simulations.
    pub resolution_latency_wall: HistogramSnapshot,
    /// Handler duration histogram (sim µs).
    pub handler_durations: HistogramSnapshot,
}

/// `counts` as owned pairs in label order, the snapshots' form.
fn owned_pairs(counts: &LabelCounts) -> Vec<(String, u64)> {
    counts
        .sorted()
        .into_iter()
        .map(|(label, count)| (label.to_owned(), count))
        .collect()
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and newline must be backslash-escaped.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn pairs_to_json(pairs: &[(String, u64)]) -> JsonValue {
    JsonValue::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::num(*v)))
            .collect(),
    )
}

fn pairs_from_json(value: Option<&JsonValue>) -> Vec<(String, u64)> {
    value
        .and_then(JsonValue::as_object)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

fn hist_to_json(h: &HistogramSnapshot) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "bounds".into(),
            JsonValue::Arr(h.bounds.iter().map(|&b| JsonValue::num(b)).collect()),
        ),
        (
            "counts".into(),
            JsonValue::Arr(h.counts.iter().map(|&c| JsonValue::num(c)).collect()),
        ),
        ("sum".into(), JsonValue::num(h.sum)),
        ("count".into(), JsonValue::num(h.count)),
        ("p50".into(), JsonValue::num(h.p50)),
        ("p99".into(), JsonValue::num(h.p99)),
        ("p999".into(), JsonValue::num(h.p999)),
    ])
}

fn hist_from_json(value: Option<&JsonValue>) -> HistogramSnapshot {
    let nums = |key: &str| -> Vec<u64> {
        value
            .and_then(|v| v.get(key))
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().filter_map(JsonValue::as_u64).collect())
            .unwrap_or_default()
    };
    let num = |key: &str| -> u64 {
        value
            .and_then(|v| v.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    HistogramSnapshot {
        bounds: nums("bounds"),
        counts: nums("counts"),
        sum: num("sum"),
        count: num("count"),
        p50: num("p50"),
        p99: num("p99"),
        p999: num("p999"),
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let resolutions = JsonValue::Arr(
            self.resolutions
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("action".into(), JsonValue::num(u64::from(r.action.index()))),
                        ("round".into(), JsonValue::num(u64::from(r.round))),
                        ("latency_us".into(), JsonValue::num(r.latency_us)),
                        (
                            "wall_latency_us".into(),
                            r.wall_latency_us.map_or(JsonValue::Null, JsonValue::num),
                        ),
                        ("messages".into(), JsonValue::num(r.messages)),
                        ("by_kind".into(), pairs_to_json(&r.by_kind)),
                        ("n".into(), JsonValue::num(r.n)),
                        ("p".into(), JsonValue::num(r.p)),
                        ("q".into(), JsonValue::num(r.q)),
                        (
                            "predicted".into(),
                            r.predicted.map_or(JsonValue::Null, JsonValue::num),
                        ),
                        (
                            "law_holds".into(),
                            r.law_holds.map_or(JsonValue::Null, JsonValue::Bool),
                        ),
                    ];
                    fields.push((
                        "resolved".into(),
                        r.resolved
                            .as_ref()
                            .map_or(JsonValue::Null, |s| JsonValue::str(s.clone())),
                    ));
                    JsonValue::Obj(fields)
                })
                .collect(),
        );
        JsonValue::Obj(vec![
            ("events_total".into(), pairs_to_json(&self.events_total)),
            ("messages_total".into(), pairs_to_json(&self.messages_total)),
            ("state_dwell_us".into(), pairs_to_json(&self.state_dwell_us)),
            ("resolutions".into(), resolutions),
            (
                "resolution_latency".into(),
                hist_to_json(&self.resolution_latency),
            ),
            (
                "resolution_latency_wall".into(),
                hist_to_json(&self.resolution_latency_wall),
            ),
            (
                "handler_durations".into(),
                hist_to_json(&self.handler_durations),
            ),
        ])
        .to_string()
    }

    /// Parses a snapshot back from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`json::JsonError`] on malformed input.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, json::JsonError> {
        let doc = json::parse(text)?;
        let resolutions = doc
            .get("resolutions")
            .and_then(JsonValue::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        Some(ResolutionMetrics {
                            action: ActionId::new(row.get("action")?.as_u64()? as u32),
                            round: row.get("round")?.as_u64()? as u32,
                            latency_us: row.get("latency_us")?.as_u64()?,
                            wall_latency_us: row
                                .get("wall_latency_us")
                                .and_then(JsonValue::as_u64),
                            messages: row.get("messages")?.as_u64()?,
                            by_kind: pairs_from_json(row.get("by_kind")),
                            n: row.get("n")?.as_u64()?,
                            p: row.get("p")?.as_u64()?,
                            q: row.get("q")?.as_u64()?,
                            predicted: row.get("predicted").and_then(JsonValue::as_u64),
                            law_holds: row.get("law_holds").and_then(JsonValue::as_bool),
                            resolved: row
                                .get("resolved")
                                .and_then(JsonValue::as_str)
                                .map(str::to_owned),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(MetricsSnapshot {
            events_total: pairs_from_json(doc.get("events_total")),
            messages_total: pairs_from_json(doc.get("messages_total")),
            state_dwell_us: pairs_from_json(doc.get("state_dwell_us")),
            resolutions,
            resolution_latency: hist_from_json(doc.get("resolution_latency")),
            resolution_latency_wall: hist_from_json(doc.get("resolution_latency_wall")),
            handler_durations: hist_from_json(doc.get("handler_durations")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, object: u32, round: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(at),
            wall_micros: None,
            object: NodeId::new(object),
            span: CorrelationId { action: ActionId::new(0), round },
            kind,
        }
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new(&[50, 100]);
        assert_eq!(h.p50(), 0); // empty
        for v in 1..=100u64 {
            h.observe(v); // 50 samples ≤50, the rest ≤100
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.p999(), 100);
        // The +Inf bucket reports the exact max, not infinity.
        h.observe(50_000);
        assert_eq!(h.p999(), 50_000);
        // Snapshot carries the percentile fields.
        let snap = h.snapshot();
        assert_eq!(snap.p50, 100); // rank 51 of 101 lands in ≤100
        assert_eq!(snap.p999, 50_000);
    }

    #[test]
    fn histogram_percentile_clamps_to_max_within_bucket() {
        let mut h = Histogram::new(&[1_000]);
        h.observe(5);
        h.observe(7);
        // Both samples land in the ≤1000 bucket; the estimate is
        // clamped to the observed max rather than the loose bound.
        assert_eq!(h.p99(), 7);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 50, 500] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 555);
        assert_eq!(h.mean(), 185);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 500);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(10, 1), (100, 2), (u64::MAX, 3)]
        );
    }

    /// A hand-built 3-object round matching §4.4 case 1 (single raise,
    /// no nested): messages = 3(n−1) = 6.
    #[test]
    fn registry_checks_case1_law() {
        fn law(n: u64, p: u64, q: u64) -> u64 {
            (n - 1) * (2 * p + 3 * q + 1)
        }
        let mut reg = MetricsRegistry::new().with_law(law);
        for o in 0..3 {
            reg.on_event(&ev(0, o, 0, ObsKind::ActionEnter));
        }
        reg.on_event(&ev(10, 0, 1, ObsKind::ResolutionStart));
        reg.on_event(&ev(
            10,
            0,
            1,
            ObsKind::Raise { exception: ExceptionId::new(1) },
        ));
        for to in 1..3 {
            reg.on_event(&ev(
                10,
                0,
                1,
                ObsKind::MessageSent { kind: "exception", to: NodeId::new(to) },
            ));
        }
        for from in 1..3 {
            reg.on_event(&ev(
                12,
                from,
                1,
                ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) },
            ));
        }
        reg.on_event(&ev(
            15,
            0,
            1,
            ObsKind::ResolutionCommit { resolved: ExceptionId::new(1), raised: 1 },
        ));
        for to in 1..3 {
            reg.on_event(&ev(
                15,
                0,
                1,
                ObsKind::MessageSent { kind: "commit", to: NodeId::new(to) },
            ));
        }
        reg.on_run_end(SimTime::from_micros(20));

        assert_eq!(reg.resolutions().len(), 1);
        let r = &reg.resolutions()[0];
        assert_eq!((r.n, r.p, r.q), (3, 1, 0));
        assert_eq!(r.messages, 6);
        assert_eq!(r.predicted, Some(6));
        assert_eq!(r.law_holds, Some(true));
        assert_eq!(r.latency_us, 5);
        assert!(reg.law_holds());
        assert_eq!(reg.resolution_latency().count(), 1);
    }

    #[test]
    fn dwell_and_handlers_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.on_event(&ev(0, 1, 0, ObsKind::ActionEnter));
        reg.on_event(&ev(
            10,
            1,
            1,
            ObsKind::StateTransition { from: ObsState::N, to: ObsState::X },
        ));
        reg.on_event(&ev(
            30,
            1,
            1,
            ObsKind::StateTransition { from: ObsState::X, to: ObsState::N },
        ));
        reg.on_event(&ev(
            30,
            1,
            1,
            ObsKind::HandlerStart { exception: ExceptionId::new(1) },
        ));
        reg.on_event(&ev(42, 1, 1, ObsKind::HandlerEnd { signalled: false }));
        reg.on_run_end(SimTime::from_micros(50));
        assert_eq!(reg.state_dwell_us().get("N"), Some(&30)); // 0..10 and 30..50
        assert_eq!(reg.state_dwell_us().get("X"), Some(&20));
        assert_eq!(reg.handler_durations().count(), 1);
        assert_eq!(reg.handler_durations().sum(), 12);
    }

    /// Interleaves first-sight and repeat kinds and states: the public
    /// maps must come out as the entry-API bookkeeping left them,
    /// including the key a zero-length dwell creates.
    #[test]
    fn counting_interleaved_seen_and_unseen_kinds_and_states() {
        let sent = |kind| ObsKind::MessageSent { kind, to: NodeId::new(0) };
        let moved = |from, to| ObsKind::StateTransition { from, to };
        let mut reg = MetricsRegistry::new();
        reg.on_event(&ev(0, 1, 1, sent("exception")));
        reg.on_event(&ev(0, 2, 0, ObsKind::ActionEnter));
        reg.on_event(&ev(3, 1, 1, sent("ack")));
        // Object 1 was first seen at t=0 and leaves N at t=0.
        reg.on_event(&ev(0, 1, 1, moved(ObsState::N, ObsState::X)));
        reg.on_event(&ev(4, 2, 1, sent("exception")));
        reg.on_event(&ev(7, 1, 1, moved(ObsState::X, ObsState::R)));
        reg.on_event(&ev(8, 2, 0, sent("leave_ready")));
        reg.on_event(&ev(9, 1, 1, moved(ObsState::R, ObsState::X)));
        reg.on_event(&ev(9, 2, 0, ObsKind::ActionEnter));
        reg.on_event(&ev(12, 1, 1, moved(ObsState::X, ObsState::N)));
        let counts = |pairs: &[(&'static str, u64)]| -> BTreeMap<&'static str, u64> {
            pairs.iter().copied().collect()
        };
        assert_eq!(
            reg.events_total(),
            counts(&[("action_enter", 2), ("message_sent", 4), ("state_transition", 4)])
        );
        assert_eq!(
            reg.messages_total(),
            counts(&[("ack", 1), ("exception", 2), ("leave_ready", 1)])
        );
        assert_eq!(reg.state_dwell_us(), counts(&[("N", 0), ("R", 2), ("X", 10)]));
        // Run end closes both objects' last interval, both in N.
        reg.on_run_end(SimTime::from_micros(20));
        assert_eq!(reg.state_dwell_us(), counts(&[("N", 28), ("R", 2), ("X", 10)]));
    }

    #[test]
    fn prometheus_exposition_mentions_core_series() {
        let mut reg = MetricsRegistry::new();
        reg.on_event(&ev(0, 0, 0, ObsKind::ActionEnter));
        reg.on_run_end(SimTime::from_micros(1));
        let text = reg.prometheus();
        assert!(text.contains("caex_events_total{kind=\"action_enter\"} 1"));
        assert!(text.contains("# TYPE caex_resolution_latency_us histogram"));
        assert!(text.contains("caex_resolution_latency_us_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut reg = MetricsRegistry::new();
        // A hostile wire kind: quotes, a backslash and a newline must
        // all be escaped, or the exposition format breaks.
        reg.on_event(&ev(
            0,
            0,
            0,
            ObsKind::MessageSent { kind: "bad\"kind\\x\nline", to: NodeId::new(1) },
        ));
        reg.on_run_end(SimTime::from_micros(1));
        let text = reg.prometheus();
        assert!(
            text.contains(r#"caex_messages_total{kind="bad\"kind\\x\nline"} 1"#),
            "{text}"
        );
        // No raw newline may survive inside a label value.
        for line in text.lines() {
            assert!(
                !line.contains("bad\"kind"),
                "unescaped quote leaked: {line}"
            );
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        fn law(n: u64, p: u64, q: u64) -> u64 {
            (n - 1) * (2 * p + 3 * q + 1)
        }
        let mut reg = MetricsRegistry::new().with_law(law);
        for o in 0..2 {
            reg.on_event(&ev(0, o, 0, ObsKind::ActionEnter));
        }
        reg.on_event(&ev(
            5,
            0,
            1,
            ObsKind::Raise { exception: ExceptionId::new(2) },
        ));
        reg.on_event(&ev(
            5,
            0,
            1,
            ObsKind::MessageSent { kind: "exception", to: NodeId::new(1) },
        ));
        reg.on_event(&ev(
            6,
            1,
            1,
            ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) },
        ));
        reg.on_event(&ev(
            9,
            0,
            1,
            ObsKind::ResolutionCommit { resolved: ExceptionId::new(2), raised: 1 },
        ));
        reg.on_event(&ev(
            9,
            0,
            1,
            ObsKind::MessageSent { kind: "commit", to: NodeId::new(1) },
        ));
        reg.on_run_end(SimTime::from_micros(12));

        let snap = reg.snapshot();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.resolutions.len(), 1);
        assert_eq!(back.resolutions[0].law_holds, Some(true));
    }
}
