//! Exporters over the event stream: a JSONL structured log and a
//! Chrome trace-event document (`B`/`E` span pairs, one track per
//! participant) loadable in `chrome://tracing` or Perfetto.

use crate::event::{CorrelationId, ObsEvent, ObsKind, ObsState, Observer};
use crate::json::JsonValue;
use caex_action::ActionId;
use caex_net::{NodeId, SimTime};
use caex_tree::ExceptionId;
use std::collections::{BTreeMap, BTreeSet};

/// Renders one [`ObsEvent`] as a flat JSON object. Shared by the JSONL
/// exporter and tests; keys are stable.
#[must_use]
pub fn event_to_json(event: &ObsEvent) -> JsonValue {
    let mut fields = vec![
        ("at_us".to_owned(), JsonValue::num(event.at.as_micros())),
        (
            "wall_us".to_owned(),
            event.wall_micros.map_or(JsonValue::Null, JsonValue::num),
        ),
        ("object".to_owned(), JsonValue::str(event.object.to_string())),
        (
            "action".to_owned(),
            JsonValue::num(u64::from(event.span.action.index())),
        ),
        ("round".to_owned(), JsonValue::num(u64::from(event.span.round))),
        ("span".to_owned(), JsonValue::str(event.span.to_string())),
        ("kind".to_owned(), JsonValue::str(event.kind.label())),
    ];
    push_kind_fields(&event.kind, &mut fields);
    JsonValue::Obj(fields)
}

/// Appends the fields one kind adds to the keys every event has, in
/// export order; the text renderer prints the same names.
pub(crate) fn push_kind_fields(kind: &ObsKind, fields: &mut Vec<(String, JsonValue)>) {
    match kind {
        ObsKind::Raise { exception }
        | ObsKind::HandlerStart { exception }
        | ObsKind::ActionFailed { exception } => {
            fields.push((
                "exception".to_owned(),
                JsonValue::str(format!("e{}", exception.index())),
            ));
        }
        ObsKind::StateTransition { from, to } => {
            fields.push(("from".to_owned(), JsonValue::str(from.to_string())));
            fields.push(("to".to_owned(), JsonValue::str(to.to_string())));
        }
        ObsKind::ResolverElected { resolver } => {
            fields.push((
                "resolver".to_owned(),
                JsonValue::str(resolver.to_string()),
            ));
        }
        ObsKind::ResolutionCommit { resolved, raised } => {
            fields.push((
                "resolved".to_owned(),
                JsonValue::str(format!("e{}", resolved.index())),
            ));
            fields.push(("raised".to_owned(), JsonValue::num(u64::from(*raised))));
        }
        ObsKind::AbortionStart { depth } => {
            fields.push(("depth".to_owned(), JsonValue::num(u64::from(*depth))));
        }
        ObsKind::HandlerEnd { signalled } => {
            fields.push(("signalled".to_owned(), JsonValue::Bool(*signalled)));
        }
        ObsKind::MessageSent { kind, to } => {
            fields.push(("msg".to_owned(), JsonValue::str(*kind)));
            fields.push(("to".to_owned(), JsonValue::str(to.to_string())));
        }
        ObsKind::MessageReceived { kind, from } => {
            fields.push(("msg".to_owned(), JsonValue::str(*kind)));
            fields.push(("from".to_owned(), JsonValue::str(from.to_string())));
        }
        ObsKind::ResolverSuspected { resolver } => {
            fields.push((
                "resolver".to_owned(),
                JsonValue::str(resolver.to_string()),
            ));
        }
        ObsKind::PeerSuspected { peer } | ObsKind::PeerRejoined { peer } => {
            fields.push(("peer".to_owned(), JsonValue::str(peer.to_string())));
        }
        ObsKind::ResolverReelected { resolver, replaced } => {
            fields.push((
                "resolver".to_owned(),
                JsonValue::str(resolver.to_string()),
            ));
            fields.push((
                "replaced".to_owned(),
                JsonValue::str(replaced.to_string()),
            ));
        }
        ObsKind::ActionEnter
        | ObsKind::ActionLeave
        | ObsKind::ResolutionStart
        | ObsKind::AbortionEnd => {}
    }
}

fn parse_object(s: &str) -> Option<NodeId> {
    s.strip_prefix('O')?.parse().ok().map(NodeId::new)
}

fn parse_exception(s: &str) -> Option<ExceptionId> {
    s.strip_prefix('e')?.parse().ok().map(ExceptionId::new)
}

/// Interns a wire-kind label back to the `&'static str` the typed
/// event carries (`ObsKind::MessageSent` uses statics as counter
/// keys). Covers the §4.2 protocol kinds plus the baseline engines'
/// (`central`, `cr`) wire kinds, so any engine's recorded stream
/// round-trips.
fn intern_msg_kind(s: &str) -> Option<&'static str> {
    [
        "exception",
        "have_nested",
        "nested_completed",
        "ack",
        "commit",
        "leave_ready",
        "central_report",
        "central_commit",
        "cr_exception",
        "cr_ack",
        "cr_proposal",
        "cr_commit",
    ]
    .into_iter()
    .find(|k| *k == s)
}

/// Parses the flat JSON object produced by [`event_to_json`] back into
/// a typed [`ObsEvent`] — the collector side of a socket exporter
/// stream rebuilds typed events this way so the merged stream can be
/// replayed into the `MetricsRegistry`/`Watchdog` stack.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn event_from_json(doc: &JsonValue) -> Result<ObsEvent, String> {
    let str_field = |key: &str| -> Result<&str, String> {
        doc.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let num_field = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let exc_field = |key: &str| -> Result<ExceptionId, String> {
        let s = str_field(key)?;
        parse_exception(s).ok_or_else(|| format!("bad exception `{s}` in `{key}`"))
    };
    let at = SimTime::from_micros(num_field("at_us")?);
    let wall_micros = doc.get("wall_us").and_then(JsonValue::as_u64);
    let object_str = str_field("object")?;
    let object =
        parse_object(object_str).ok_or_else(|| format!("bad object `{object_str}`"))?;
    let action = ActionId::new(
        u32::try_from(num_field("action")?).map_err(|_| "action out of range".to_owned())?,
    );
    let round = u32::try_from(num_field("round")?).map_err(|_| "round out of range".to_owned())?;
    let kind = match str_field("kind")? {
        "action_enter" => ObsKind::ActionEnter,
        "action_leave" => ObsKind::ActionLeave,
        "raise" => ObsKind::Raise { exception: exc_field("exception")? },
        "state_transition" => {
            let from = ObsState::parse(str_field("from")?)
                .ok_or_else(|| "bad `from` state".to_owned())?;
            let to =
                ObsState::parse(str_field("to")?).ok_or_else(|| "bad `to` state".to_owned())?;
            ObsKind::StateTransition { from, to }
        }
        "resolution_start" => ObsKind::ResolutionStart,
        "resolver_elected" => {
            let resolver = parse_object(str_field("resolver")?)
                .ok_or_else(|| "bad `resolver`".to_owned())?;
            ObsKind::ResolverElected { resolver }
        }
        "resolution_commit" => ObsKind::ResolutionCommit {
            resolved: exc_field("resolved")?,
            raised: u32::try_from(num_field("raised")?)
                .map_err(|_| "raised out of range".to_owned())?,
        },
        "abortion_start" => ObsKind::AbortionStart {
            depth: u32::try_from(num_field("depth")?)
                .map_err(|_| "depth out of range".to_owned())?,
        },
        "abortion_end" => ObsKind::AbortionEnd,
        "handler_start" => ObsKind::HandlerStart { exception: exc_field("exception")? },
        "handler_end" => ObsKind::HandlerEnd {
            signalled: doc
                .get("signalled")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| "missing bool field `signalled`".to_owned())?,
        },
        "message_sent" => {
            let msg = str_field("msg")?;
            ObsKind::MessageSent {
                kind: intern_msg_kind(msg)
                    .ok_or_else(|| format!("unknown message kind `{msg}`"))?,
                to: parse_object(str_field("to")?).ok_or_else(|| "bad `to`".to_owned())?,
            }
        }
        "message_received" => {
            let msg = str_field("msg")?;
            ObsKind::MessageReceived {
                kind: intern_msg_kind(msg)
                    .ok_or_else(|| format!("unknown message kind `{msg}`"))?,
                from: parse_object(str_field("from")?)
                    .ok_or_else(|| "bad `from`".to_owned())?,
            }
        }
        "action_failed" => ObsKind::ActionFailed { exception: exc_field("exception")? },
        "resolver_suspected" => {
            let resolver = parse_object(str_field("resolver")?)
                .ok_or_else(|| "bad `resolver`".to_owned())?;
            ObsKind::ResolverSuspected { resolver }
        }
        "peer_suspected" => ObsKind::PeerSuspected {
            peer: parse_object(str_field("peer")?).ok_or_else(|| "bad `peer`".to_owned())?,
        },
        "peer_rejoined" => ObsKind::PeerRejoined {
            peer: parse_object(str_field("peer")?).ok_or_else(|| "bad `peer`".to_owned())?,
        },
        "resolver_reelected" => ObsKind::ResolverReelected {
            resolver: parse_object(str_field("resolver")?)
                .ok_or_else(|| "bad `resolver`".to_owned())?,
            replaced: parse_object(str_field("replaced")?)
                .ok_or_else(|| "bad `replaced`".to_owned())?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(ObsEvent {
        at,
        wall_micros,
        object,
        span: CorrelationId { action, round },
        kind,
    })
}

/// Structured-log exporter: one JSON object per line, in event order.
#[derive(Debug, Default)]
pub struct JsonlExporter {
    lines: Vec<String>,
}

impl JsonlExporter {
    /// Creates an empty exporter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The log as one newline-terminated string.
    #[must_use]
    pub fn contents(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Number of lines logged so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` if nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

impl Observer for JsonlExporter {
    fn on_event(&mut self, event: &ObsEvent) {
        self.lines.push(event_to_json(event).to_string());
    }
}

/// One open span on a participant's track.
#[derive(Debug, Clone)]
struct OpenSpan {
    name: String,
}

/// Chrome trace-event exporter.
///
/// Spans (`ActionEnter`/`ActionLeave`, `AbortionStart`/`AbortionEnd`,
/// `HandlerStart`/`HandlerEnd`) become `B`/`E` pairs on one track per
/// participant (`tid` = object index); point events (raises, elections,
/// commits, state transitions, failures) become instants (`ph:"i"`);
/// message send→receive causality becomes flow-event pairs (`ph:"s"`
/// on the sender's track, `ph:"f"` on the receiver's) so Perfetto
/// draws the arrows. `on_run_end` closes any still-open spans so the
/// document always has balanced pairs, and emits `M` metadata naming
/// each track after its participant. The result loads in Perfetto /
/// `chrome://tracing`.
#[derive(Debug, Default)]
pub struct ChromeTraceExporter {
    events: Vec<JsonValue>,
    open: BTreeMap<u64, Vec<OpenSpan>>, // tid -> span stack
    tracks: BTreeSet<u64>,
    // (from, to, kind, k) -> flow id; the k-th send and k-th receive of
    // one ordered channel share an id (exact under FIFO channels).
    flows: BTreeMap<(u64, u64, String, u64), u64>,
    next_flow_id: u64,
    sends_seen: BTreeMap<(u64, u64, String), u64>,
    recvs_seen: BTreeMap<(u64, u64, String), u64>,
    finished: bool,
}

const PID: u64 = 1;

fn ts_of(event: &ObsEvent) -> u64 {
    event.wall_micros.unwrap_or_else(|| event.at.as_micros())
}

fn trace_record(ph: &str, name: &str, cat: &str, ts: u64, tid: u64) -> JsonValue {
    let mut fields = vec![
        ("name".to_owned(), JsonValue::str(name)),
        ("cat".to_owned(), JsonValue::str(cat)),
        ("ph".to_owned(), JsonValue::str(ph)),
        ("ts".to_owned(), JsonValue::num(ts)),
        ("pid".to_owned(), JsonValue::num(PID)),
        ("tid".to_owned(), JsonValue::num(tid)),
    ];
    if ph == "i" {
        // Thread-scoped instant.
        fields.push(("s".to_owned(), JsonValue::str("t")));
    }
    JsonValue::Obj(fields)
}

impl ChromeTraceExporter {
    /// Creates an empty exporter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates (or looks up) the flow id shared by the k-th send and
    /// the k-th receive over the `(from, to, kind)` channel.
    fn flow_id(&mut self, from: u64, to: u64, kind: &str, k: u64) -> u64 {
        let key = (from, to, kind.to_owned(), k);
        if let Some(&id) = self.flows.get(&key) {
            return id;
        }
        self.next_flow_id += 1;
        let id = self.next_flow_id;
        self.flows.insert(key, id);
        id
    }

    /// Emits one flow event (`ph` = `"s"` or `"f"`) on `tid`'s track.
    fn flow_record(&mut self, ph: &str, kind: &str, id: u64, ts: u64, tid: u64) {
        let mut fields = vec![
            ("name".to_owned(), JsonValue::str(format!("msg {kind}"))),
            ("cat".to_owned(), JsonValue::str("message")),
            ("ph".to_owned(), JsonValue::str(ph)),
            ("id".to_owned(), JsonValue::num(id)),
            ("ts".to_owned(), JsonValue::num(ts)),
            ("pid".to_owned(), JsonValue::num(PID)),
            ("tid".to_owned(), JsonValue::num(tid)),
        ];
        if ph == "f" {
            // Bind the arrow head to the enclosing slice.
            fields.push(("bp".to_owned(), JsonValue::str("e")));
        }
        self.events.push(JsonValue::Obj(fields));
    }

    fn begin(&mut self, tid: u64, ts: u64, name: String, cat: &str) {
        self.events.push(trace_record("B", &name, cat, ts, tid));
        self.open.entry(tid).or_default().push(OpenSpan { name });
    }

    fn end(&mut self, tid: u64, ts: u64, cat: &str) {
        if let Some(span) = self.open.entry(tid).or_default().pop() {
            self.events.push(trace_record("E", &span.name, cat, ts, tid));
        }
        // An end with no matching begin is dropped: the watchdog (not
        // the exporter) reports unbalanced streams.
    }

    /// Renders the `{"traceEvents": [...]}` document. Call after
    /// `on_run_end`; open spans left by a deadlocked run are closed at
    /// the final timestamp first.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonValue::Obj(vec![(
            "traceEvents".to_owned(),
            JsonValue::Arr(self.events.clone()),
        )])
        .to_string()
    }

    /// The set of participant tracks (`tid`s) seen.
    #[must_use]
    pub fn tracks(&self) -> &BTreeSet<u64> {
        &self.tracks
    }
}

impl Observer for ChromeTraceExporter {
    fn on_event(&mut self, event: &ObsEvent) {
        let tid = u64::from(event.object.index());
        let ts = ts_of(event);
        if self.tracks.insert(tid) {
            // Name the track after the participant on first sight.
            let meta = vec![
                ("name".to_owned(), JsonValue::str("thread_name")),
                ("ph".to_owned(), JsonValue::str("M")),
                ("pid".to_owned(), JsonValue::num(PID)),
                ("tid".to_owned(), JsonValue::num(tid)),
                (
                    "args".to_owned(),
                    JsonValue::Obj(vec![(
                        "name".to_owned(),
                        JsonValue::str(event.object.to_string()),
                    )]),
                ),
            ];
            self.events.push(JsonValue::Obj(meta));
        }
        let action = event.span.action;
        match &event.kind {
            ObsKind::ActionEnter => {
                self.begin(tid, ts, action.to_string(), "action");
            }
            ObsKind::ActionLeave => {
                self.end(tid, ts, "action");
            }
            ObsKind::AbortionStart { .. } => {
                self.begin(tid, ts, format!("abort {action}"), "abortion");
            }
            ObsKind::AbortionEnd => {
                self.end(tid, ts, "abortion");
            }
            ObsKind::HandlerStart { exception } => {
                self.begin(
                    tid,
                    ts,
                    format!("handle e{} ({})", exception.index(), event.span),
                    "handler",
                );
            }
            ObsKind::HandlerEnd { .. } => {
                self.end(tid, ts, "handler");
            }
            ObsKind::Raise { exception } => {
                self.events.push(trace_record(
                    "i",
                    &format!("raise e{} ({})", exception.index(), event.span),
                    "raise",
                    ts,
                    tid,
                ));
            }
            ObsKind::StateTransition { from, to } => {
                self.events.push(trace_record(
                    "i",
                    &format!("{from}\u{2192}{to}"),
                    "state",
                    ts,
                    tid,
                ));
            }
            ObsKind::ResolutionStart => {
                self.events.push(trace_record(
                    "i",
                    &format!("resolution start ({})", event.span),
                    "resolution",
                    ts,
                    tid,
                ));
            }
            ObsKind::ResolverElected { resolver } => {
                self.events.push(trace_record(
                    "i",
                    &format!("resolver {resolver} ({})", event.span),
                    "resolution",
                    ts,
                    tid,
                ));
            }
            ObsKind::ResolutionCommit { resolved, .. } => {
                self.events.push(trace_record(
                    "i",
                    &format!("commit e{} ({})", resolved.index(), event.span),
                    "resolution",
                    ts,
                    tid,
                ));
            }
            ObsKind::ActionFailed { exception } => {
                self.events.push(trace_record(
                    "i",
                    &format!("failed e{}", exception.index()),
                    "failure",
                    ts,
                    tid,
                ));
            }
            ObsKind::MessageSent { kind, to } => {
                // Spans for sends would drown the view; a flow arrow
                // carries the causality instead.
                let to = u64::from(to.index());
                let k = self
                    .sends_seen
                    .entry((tid, to, (*kind).to_owned()))
                    .or_insert(0);
                let nth = *k;
                *k += 1;
                let id = self.flow_id(tid, to, kind, nth);
                self.flow_record("s", kind, id, ts, tid);
            }
            ObsKind::MessageReceived { kind, from } => {
                let from = u64::from(from.index());
                let k = self
                    .recvs_seen
                    .entry((from, tid, (*kind).to_owned()))
                    .or_insert(0);
                let nth = *k;
                *k += 1;
                let id = self.flow_id(from, tid, kind, nth);
                self.flow_record("f", kind, id, ts, tid);
            }
            ObsKind::ResolverSuspected { resolver } => {
                self.events.push(trace_record(
                    "i",
                    &format!("resolver {resolver} suspected ({})", event.span),
                    "failover",
                    ts,
                    tid,
                ));
            }
            ObsKind::ResolverReelected { resolver, replaced } => {
                self.events.push(trace_record(
                    "i",
                    &format!(
                        "resolver {resolver} re-elected for {replaced} ({})",
                        event.span
                    ),
                    "failover",
                    ts,
                    tid,
                ));
            }
            ObsKind::PeerSuspected { peer } => {
                self.events.push(trace_record(
                    "i",
                    &format!("peer {peer} suspected"),
                    "failover",
                    ts,
                    tid,
                ));
            }
            ObsKind::PeerRejoined { peer } => {
                self.events.push(trace_record(
                    "i",
                    &format!("peer {peer} rejoined"),
                    "failover",
                    ts,
                    tid,
                ));
            }
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        if self.finished {
            return;
        }
        self.finished = true;
        let ts = at.as_micros();
        let tids: Vec<u64> = self.open.keys().copied().collect();
        for tid in tids {
            while self
                .open
                .get(&tid)
                .is_some_and(|stack| !stack.is_empty())
            {
                self.end(tid, ts, "action");
            }
        }
    }
}

/// Parses a trace document and checks that, per track, `B`/`E` events
/// form balanced LIFO pairs with non-decreasing timestamps and
/// matching names. Returns the number of `B`/`E` pairs checked.
///
/// # Errors
///
/// Returns a description of the first imbalance found.
pub fn check_balanced(doc: &JsonValue) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_owned())?;
    let mut stacks: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pairs = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "event without tid".to_owned())?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "event without ts".to_owned())?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned();
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "track {tid}: timestamp {ts} decreases below {prev}"
                ));
            }
        }
        last_ts.insert(tid, ts);
        match ph {
            "B" => stacks.entry(tid).or_default().push((name, ts)),
            "E" => {
                let Some((open_name, open_ts)) =
                    stacks.entry(tid).or_default().pop()
                else {
                    return Err(format!("track {tid}: E `{name}` without open B"));
                };
                if open_name != name {
                    return Err(format!(
                        "track {tid}: E `{name}` closes B `{open_name}`"
                    ));
                }
                if ts < open_ts {
                    return Err(format!(
                        "track {tid}: span `{name}` ends at {ts} before it begins at {open_ts}"
                    ));
                }
                pairs += 1;
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("track {tid}: B `{name}` never closed"));
        }
    }
    Ok(pairs)
}

/// The set of track ids (`tid`s) present in a trace document,
/// metadata rows included.
#[must_use]
pub fn track_ids(doc: &JsonValue) -> BTreeSet<u64> {
    doc.get("traceEvents")
        .and_then(JsonValue::as_array)
        .map(|events| {
            events
                .iter()
                .filter_map(|ev| ev.get("tid").and_then(JsonValue::as_u64))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CorrelationId;
    use crate::json;
    use caex_action::ActionId;
    use caex_net::NodeId;
    use caex_tree::ExceptionId;

    fn ev(at: u64, object: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(at),
            wall_micros: None,
            object: NodeId::new(object),
            span: CorrelationId { action: ActionId::new(1), round: 1 },
            kind,
        }
    }

    /// Checks that the document's flow events form balanced send/receive
    /// pairs: every `ph:"f"` must share its `id` with exactly one earlier
    /// `ph:"s"`, and no id may be used twice in either role. Returns the
    /// number of complete pairs. Flow starts without a finish are legal
    /// (the message may have been dropped or the victim crashed) and are
    /// not counted.
    fn check_flow_pairs(doc: &JsonValue) -> Result<usize, String> {
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "missing traceEvents array".to_owned())?;
        let mut started: BTreeMap<u64, bool> = BTreeMap::new(); // id -> finished
        let mut pairs = 0usize;
        for ev in events {
            let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
            if ph != "s" && ph != "f" {
                continue;
            }
            let id = ev
                .get("id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("flow event `{ph}` without id"))?;
            match ph {
                "s" => {
                    if started.insert(id, false).is_some() {
                        return Err(format!("flow id {id} started twice"));
                    }
                }
                _ => match started.get_mut(&id) {
                    None => return Err(format!("flow id {id} finishes before it starts")),
                    Some(done) if *done => {
                        return Err(format!("flow id {id} finished twice"));
                    }
                    Some(done) => {
                        *done = true;
                        pairs += 1;
                    }
                },
            }
        }
        Ok(pairs)
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut log = JsonlExporter::new();
        log.on_event(&ev(3, 0, ObsKind::ActionEnter));
        log.on_event(&ev(
            5,
            0,
            ObsKind::Raise { exception: ExceptionId::new(2) },
        ));
        let contents = log.contents();
        assert_eq!(log.len(), 2);
        for line in contents.lines() {
            let doc = json::parse(line).expect("valid json line");
            assert!(doc.get("kind").is_some());
            assert_eq!(doc.get("action").and_then(JsonValue::as_u64), Some(1));
        }
        assert!(contents.contains("\"exception\":\"e2\""));
    }

    #[test]
    fn chrome_trace_is_balanced_and_named() {
        let mut trace = ChromeTraceExporter::new();
        trace.on_event(&ev(0, 0, ObsKind::ActionEnter));
        trace.on_event(&ev(0, 1, ObsKind::ActionEnter));
        trace.on_event(&ev(
            4,
            1,
            ObsKind::HandlerStart { exception: ExceptionId::new(1) },
        ));
        trace.on_event(&ev(9, 1, ObsKind::HandlerEnd { signalled: false }));
        trace.on_event(&ev(9, 1, ObsKind::ActionLeave));
        trace.on_event(&ev(9, 0, ObsKind::ActionLeave));
        trace.on_run_end(SimTime::from_micros(10));

        let doc = json::parse(&trace.to_json()).expect("valid trace json");
        assert_eq!(check_balanced(&doc), Ok(3));
        assert_eq!(track_ids(&doc).len(), 2);
        assert!(trace.to_json().contains("thread_name"));
        assert!(trace.to_json().contains("\"name\":\"O1\""));
    }

    #[test]
    fn run_end_closes_open_spans() {
        let mut trace = ChromeTraceExporter::new();
        trace.on_event(&ev(0, 2, ObsKind::ActionEnter));
        trace.on_event(&ev(
            1,
            2,
            ObsKind::AbortionStart { depth: 1 },
        ));
        trace.on_run_end(SimTime::from_micros(7));
        let doc = json::parse(&trace.to_json()).expect("valid");
        assert_eq!(check_balanced(&doc), Ok(2));
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        use crate::event::ObsState;
        let kinds = vec![
            ObsKind::ActionEnter,
            ObsKind::ActionLeave,
            ObsKind::Raise { exception: ExceptionId::new(2) },
            ObsKind::StateTransition { from: ObsState::N, to: ObsState::X },
            ObsKind::ResolutionStart,
            ObsKind::ResolverElected { resolver: NodeId::new(2) },
            ObsKind::ResolutionCommit { resolved: ExceptionId::new(1), raised: 2 },
            ObsKind::AbortionStart { depth: 3 },
            ObsKind::AbortionEnd,
            ObsKind::HandlerStart { exception: ExceptionId::new(4) },
            ObsKind::HandlerEnd { signalled: true },
            ObsKind::MessageSent { kind: "nested_completed", to: NodeId::new(1) },
            ObsKind::MessageReceived { kind: "exception", from: NodeId::new(3) },
            ObsKind::ActionFailed { exception: ExceptionId::new(5) },
        ];
        for kind in kinds {
            let original = ObsEvent {
                at: SimTime::from_micros(42),
                wall_micros: Some(43),
                object: NodeId::new(7),
                span: CorrelationId { action: ActionId::new(3), round: 2 },
                kind,
            };
            let line = event_to_json(&original).to_string();
            let parsed = json::parse(&line).expect("valid json");
            let back = event_from_json(&parsed).expect("round trip");
            assert_eq!(back, original);
        }
    }

    #[test]
    fn event_from_json_rejects_malformed_docs() {
        for bad in [
            r#"{"kind":"raise"}"#,
            r#"{"at_us":1,"object":"O0","action":0,"round":0,"kind":"warp"}"#,
            r#"{"at_us":1,"object":"X9","action":0,"round":0,"kind":"action_enter"}"#,
            r#"{"at_us":1,"object":"O0","action":0,"round":0,"kind":"message_sent","msg":"gossip","to":"O1"}"#,
            r#"{"at_us":1,"object":"O0","action":0,"round":0,"kind":"message_received","msg":"exception","from":"?"}"#,
        ] {
            let doc = json::parse(bad).expect("valid json");
            assert!(event_from_json(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn flow_events_pair_sends_with_receives() {
        let mut trace = ChromeTraceExporter::new();
        trace.on_event(&ev(0, 0, ObsKind::ActionEnter));
        trace.on_event(&ev(0, 1, ObsKind::ActionEnter));
        // Two sends over the same channel, received in FIFO order.
        for t in [1, 2] {
            trace.on_event(&ev(
                t,
                0,
                ObsKind::MessageSent { kind: "exception", to: NodeId::new(1) },
            ));
        }
        for t in [3, 4] {
            trace.on_event(&ev(
                t,
                1,
                ObsKind::MessageReceived { kind: "exception", from: NodeId::new(0) },
            ));
        }
        trace.on_event(&ev(
            5,
            1,
            ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) },
        ));
        trace.on_run_end(SimTime::from_micros(9));

        let doc = json::parse(&trace.to_json()).expect("valid trace json");
        // Both exception flows pair up; the unanswered ack send stays
        // a lone start, which is legal.
        assert_eq!(check_flow_pairs(&doc), Ok(2));
        // Flow events must not break span balance either.
        assert!(check_balanced(&doc).is_ok());
        assert!(trace.to_json().contains("\"ph\":\"s\""));
        assert!(trace.to_json().contains("\"bp\":\"e\""));
    }

    #[test]
    fn check_flow_pairs_rejects_orphan_finish() {
        let doc = json::parse(
            r#"{"traceEvents":[
                {"name":"msg ack","ph":"f","id":7,"ts":2,"pid":1,"tid":0,"bp":"e"}
            ]}"#,
        )
        .expect("valid json");
        assert!(check_flow_pairs(&doc).is_err());
    }

    #[test]
    fn check_balanced_rejects_mismatches() {
        let doc = json::parse(
            r#"{"traceEvents":[
                {"name":"A1","ph":"B","ts":1,"pid":1,"tid":0},
                {"name":"A2","ph":"E","ts":2,"pid":1,"tid":0}
            ]}"#,
        )
        .expect("valid json");
        assert!(check_balanced(&doc).is_err());
    }
}
