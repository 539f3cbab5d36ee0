//! Text views of a recorded event stream: one line per event, and an
//! ASCII message-sequence chart. Both read [`ObsEvent`]s and nothing
//! else, so they serve every host that has an observer — simulator,
//! thread engine, wire mesh.
//!
//! # Examples
//!
//! ```
//! use caex_action::ActionId;
//! use caex_net::{NodeId, SimTime};
//! use caex_obs::{text, CorrelationId, ObsEvent, ObsKind};
//!
//! let received = ObsEvent {
//!     at: SimTime::from_micros(110),
//!     wall_micros: None,
//!     object: NodeId::new(1),
//!     span: CorrelationId { action: ActionId::new(0), round: 1 },
//!     kind: ObsKind::MessageReceived { kind: "have_nested", from: NodeId::new(2) },
//! };
//! assert_eq!(
//!     text::render([&received]),
//!     "[     110us] delivered O2 -> O1 : have_nested\n"
//! );
//! assert!(text::sequence_chart(&[received]).contains("<-------+"));
//! ```

use crate::event::{ObsEvent, ObsKind};
use crate::exporters::push_kind_fields;
use std::fmt::Write as _;

/// Span, kind label and the kind's fields under the JSONL exporter's
/// names: `A0#r1 resolution_commit resolved=e1 raised=2`.
fn describe(event: &ObsEvent) -> String {
    let mut out = format!("{} {}", event.span, event.kind.label());
    let mut fields = Vec::new();
    push_kind_fields(&event.kind, &mut fields);
    for (key, value) in fields {
        let _ = match value.as_str() {
            Some(text) => write!(out, " {key}={text}"),
            None => write!(out, " {key}={value}"),
        };
    }
    out
}

/// Renders `events` one per line, in the order given.
///
/// A message prints from sender to receiver on both ends — `sent` at
/// the sender's event, `delivered` at the receiver's; every other event
/// prints its object, span and kind. Filter the stream first for a
/// partial view (one object, one span).
#[must_use]
pub fn render<'a>(events: impl IntoIterator<Item = &'a ObsEvent>) -> String {
    let mut out = String::new();
    for e in events {
        let (at, object) = (e.at.to_string(), e.object);
        let _ = match &e.kind {
            ObsKind::MessageSent { kind, to } => {
                writeln!(out, "[{at:>10}] sent      {object} -> {to} : {kind}")
            }
            ObsKind::MessageReceived { kind, from } => {
                writeln!(out, "[{at:>10}] delivered {from} -> {object} : {kind}")
            }
            _ => writeln!(out, "[{at:>10}] {object} {}", describe(e)),
        };
    }
    out
}

/// Renders an ASCII message-sequence chart: one lifeline per object up
/// to the highest one the rows name, an arrow row per received message
/// (sends are implicit), a `*` row per other event. State transitions
/// are left out; they accompany the events that cause them.
#[must_use]
pub fn sequence_chart(events: &[ObsEvent]) -> String {
    const COL: usize = 8;
    let rows = || {
        events.iter().filter(|e| {
            !matches!(e.kind, ObsKind::MessageSent { .. } | ObsKind::StateTransition { .. })
        })
    };
    let lifelines = rows()
        .map(|e| match e.kind {
            ObsKind::MessageReceived { from, .. } => from.max(e.object),
            _ => e.object,
        })
        .max()
        .map_or(0, |highest| highest.index() as usize + 1);
    let center = |i: usize| i * COL + COL / 2;

    let mut out = format!("{:>10} ", "time");
    for i in 0..lifelines {
        let _ = write!(out, "{:^COL$}", format!("O{i}"));
    }
    out.push('\n');
    for e in rows() {
        let mut row = vec![' '; lifelines * COL];
        for i in 0..lifelines {
            row[center(i)] = '|';
        }
        let to = e.object.index() as usize;
        row[center(to)] = '*';
        let label = match &e.kind {
            ObsKind::MessageReceived { kind, from } => {
                let from = from.index() as usize;
                if from != to {
                    let (lo, hi) = (center(from).min(center(to)), center(from).max(center(to)));
                    row[lo..hi].fill('-');
                    row[center(from)] = '+';
                    row[center(to)] = if from < to { '>' } else { '<' };
                }
                (*kind).to_owned()
            }
            _ => describe(e),
        };
        let row: String = row.into_iter().collect();
        let _ = writeln!(out, "{:>10} {row} {label}", e.at.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CorrelationId, ObsState};
    use caex_action::ActionId;
    use caex_net::{NodeId, SimTime};
    use caex_tree::ExceptionId;

    fn ev(at: u64, object: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(at),
            wall_micros: None,
            object: NodeId::new(object),
            span: CorrelationId { action: ActionId::new(0), round: 1 },
            kind,
        }
    }

    #[test]
    fn message_lines_keep_the_sender_to_receiver_form() {
        let events = [
            ev(110, 2, ObsKind::MessageSent { kind: "have_nested", to: NodeId::new(1) }),
            ev(210, 1, ObsKind::MessageReceived { kind: "have_nested", from: NodeId::new(2) }),
            ev(10_000_000, 3, ObsKind::MessageSent { kind: "ack", to: NodeId::new(4) }),
        ];
        assert_eq!(
            render(&events),
            "[     110us] sent      O2 -> O1 : have_nested\n\
             [     210us] delivered O2 -> O1 : have_nested\n\
             [10000000us] sent      O3 -> O4 : ack\n"
        );
    }

    #[test]
    fn other_lines_print_object_span_kind_and_the_exporters_fields() {
        let events = [
            ev(0, 1, ObsKind::ActionEnter),
            ev(10, 1, ObsKind::Raise { exception: ExceptionId::new(1) }),
            ev(10, 1, ObsKind::StateTransition { from: ObsState::N, to: ObsState::X }),
            ev(315, 2, ObsKind::ResolutionCommit { resolved: ExceptionId::new(1), raised: 2 }),
            ev(315, 2, ObsKind::HandlerEnd { signalled: false }),
        ];
        assert_eq!(
            render(&events),
            "[       0us] O1 A0#r1 action_enter\n\
             [      10us] O1 A0#r1 raise exception=e1\n\
             [      10us] O1 A0#r1 state_transition from=N to=X\n\
             [     315us] O2 A0#r1 resolution_commit resolved=e1 raised=2\n\
             [     315us] O2 A0#r1 handler_end signalled=false\n"
        );
        // A filtered view is the same lines, fewer of them.
        let of_o2 = render(events.iter().filter(|e| e.object == NodeId::new(2)));
        assert_eq!(of_o2.lines().count(), 2);
        assert!(render(&events).ends_with(&of_o2));
    }

    #[test]
    fn arrows_point_from_the_sender_to_the_receiver() {
        let chart = sequence_chart(&[
            ev(110, 3, ObsKind::MessageReceived { kind: "exception", from: NodeId::new(1) }),
            ev(210, 1, ObsKind::MessageReceived { kind: "ack", from: NodeId::new(3) }),
            ev(210, 2, ObsKind::MessageReceived { kind: "loop", from: NodeId::new(2) }),
        ]);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0], "      time    O0      O1      O2      O3   ");
        assert_eq!(lines[1], "     110us     |       +--------------->    exception");
        assert_eq!(lines[2], "     210us     |       <---------------+    ack");
        assert_eq!(lines[3], "     210us     |       |       *       |    loop");
    }

    #[test]
    fn the_chart_skips_sends_and_state_transitions_and_stars_the_rest() {
        let chart = sequence_chart(&[
            ev(10, 1, ObsKind::Raise { exception: ExceptionId::new(2) }),
            ev(10, 1, ObsKind::StateTransition { from: ObsState::N, to: ObsState::X }),
            ev(10, 1, ObsKind::MessageSent { kind: "exception", to: NodeId::new(0) }),
        ]);
        assert_eq!(
            chart,
            "      time    O0      O1   \n\
             \x20     10us     |       *    A0#r1 raise exception=e2\n"
        );
    }

    #[test]
    fn lifelines_come_from_the_events() {
        // The highest object is O4 — as a sender only — so five lifelines.
        let chart = sequence_chart(&[
            ev(0, 1, ObsKind::ActionEnter),
            ev(110, 2, ObsKind::MessageReceived { kind: "commit", from: NodeId::new(4) }),
        ]);
        assert_eq!(
            chart,
            "      time    O0      O1      O2      O3      O4   \n\
             \x20      0us     |       *       |       |       |    A0#r1 action_enter\n\
             \x20    110us     |       |       <---------------+    commit\n"
        );
        assert_eq!(sequence_chart(&[]), "      time \n");
    }
}
