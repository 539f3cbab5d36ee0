//! Folded-stack flame graph construction from an [`ObsEvent`] stream.
//!
//! [`FlameBuilder`] is an [`Observer`] that maintains one frame stack
//! per object — `O<i>` at the root, `A<j>` per entered action, then
//! `abort A<j>` or `handle e<k>` while those spans are open — and
//! charges the time between consecutive events at an object to the
//! stack that was live over that interval, keyed by the resolution
//! round active when the interval started. The output is the standard
//! *folded stack* format (`frame;frame;frame count`) consumed by
//! `flamegraph.pl`, `inferno-flamegraph`, speedscope and friends, with
//! microseconds as the count unit.

use crate::event::{ObsEvent, ObsKind, Observer};
use caex_net::{NodeId, SimTime};
use std::collections::BTreeMap;

/// Builds folded flame-graph stacks from an event stream. Feed it a
/// whole run (directly as an engine's observer, or by replaying a
/// recorded stream), then render with [`FlameBuilder::folded`].
///
/// Dwell is keyed internally by the full `(ActionId, round)` span
/// ([`FlameBuilder::spans`]), so one builder can profile a whole fleet
/// of multiplexed actions; the round views sum across actions.
#[derive(Debug, Default)]
pub struct FlameBuilder {
    /// Live frame stack per object (root `O<i>` frame included).
    stacks: BTreeMap<NodeId, Vec<String>>,
    /// Timestamp of each object's previous event.
    last_at: BTreeMap<NodeId, SimTime>,
    /// The span each object's current dwell interval started in, as
    /// `(action index, round)`.
    span: BTreeMap<NodeId, (u32, u32)>,
    /// Accumulated microseconds per `(action index, round, folded stack)`.
    folded: BTreeMap<(u32, u32, String), u64>,
}

impl FlameBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges the dwell since `object`'s previous event to the stack
    /// live over the interval, then advances the object's clock.
    fn charge(&mut self, object: NodeId, now: SimTime) {
        let stack = self
            .stacks
            .entry(object)
            .or_insert_with(|| vec![format!("O{}", object.index())]);
        let key = stack.join(";");
        let prev = self.last_at.get(&object).copied().unwrap_or(now);
        let dwell = now.saturating_sub(prev).as_micros();
        if dwell > 0 {
            let (action, round) = self.span.get(&object).copied().unwrap_or((0, 0));
            *self.folded.entry((action, round, key)).or_default() += dwell;
        }
        self.last_at.insert(object, now);
    }

    /// Pops `object`'s stack down to (and including) the deepest frame
    /// with `prefix`; a stray end with no matching start is ignored.
    fn pop_to(&mut self, object: NodeId, prefix: &str) {
        if let Some(stack) = self.stacks.get_mut(&object) {
            if let Some(pos) = stack.iter().rposition(|f| f.starts_with(prefix)) {
                stack.truncate(pos);
            }
        }
    }

    /// The folded stacks over the whole run, one `stack count` line
    /// per distinct stack, lexicographically sorted (deterministic
    /// output for identical streams). Counts are microseconds.
    #[must_use]
    pub fn folded(&self) -> String {
        self.render(|_, _| true)
    }

    /// Like [`FlameBuilder::folded`], restricted to dwell accumulated
    /// while `round` was the object's active resolution round (round
    /// `0` is time outside any resolution), summed across actions.
    #[must_use]
    pub fn folded_for_round(&self, round: u32) -> String {
        self.render(|_, r| r == round)
    }

    /// Folded lines over the spans selected by `keep`, one line per
    /// distinct stack (dwell summed across selected spans), sorted.
    fn render(&self, keep: impl Fn(u32, u32) -> bool) -> String {
        let mut merged: BTreeMap<&str, u64> = BTreeMap::new();
        for ((a, r, stack), us) in &self.folded {
            if keep(*a, *r) {
                *merged.entry(stack).or_default() += us;
            }
        }
        let mut out = String::new();
        for (stack, us) in merged {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }

    /// Every round that accumulated any dwell, sorted.
    #[must_use]
    pub fn rounds(&self) -> Vec<u32> {
        let mut rounds: Vec<u32> = self.folded.keys().map(|(_, r, _)| *r).collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }

    /// Every `(action index, round)` span that accumulated any dwell,
    /// sorted.
    #[must_use]
    pub fn spans(&self) -> Vec<(u32, u32)> {
        let mut spans: Vec<(u32, u32)> = self.folded.keys().map(|(a, r, _)| (*a, *r)).collect();
        spans.sort_unstable();
        spans.dedup();
        spans
    }
}

impl Observer for FlameBuilder {
    fn on_event(&mut self, event: &ObsEvent) {
        self.charge(event.object, event.at);
        self.span
            .insert(event.object, (event.span.action.index(), event.span.round));
        let stack = self
            .stacks
            .entry(event.object)
            .or_insert_with(|| vec![format!("O{}", event.object.index())]);
        match &event.kind {
            ObsKind::ActionEnter => stack.push(format!("A{}", event.span.action.index())),
            ObsKind::ActionLeave => {
                self.pop_to(event.object, &format!("A{}", event.span.action.index()));
            }
            ObsKind::AbortionStart { .. } => {
                stack.push(format!("abort A{}", event.span.action.index()));
            }
            ObsKind::AbortionEnd => self.pop_to(event.object, "abort "),
            ObsKind::HandlerStart { exception } => {
                stack.push(format!("handle e{}", exception.index()));
            }
            ObsKind::HandlerEnd { .. } => self.pop_to(event.object, "handle "),
            _ => {}
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        // Close every object's final dwell interval so time spent
        // after its last event still lands in the graph.
        let objects: Vec<NodeId> = self.stacks.keys().copied().collect();
        for object in objects {
            self.charge(object, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CorrelationId;
    use caex_action::ActionId;
    use caex_tree::ExceptionId;

    fn ev(at: u64, object: u32, round: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(at),
            wall_micros: None,
            object: NodeId::new(object),
            span: CorrelationId { action: ActionId::new(1), round },
            kind,
        }
    }

    #[test]
    fn folded_stacks_nest_and_charge_dwell() {
        let mut flame = FlameBuilder::new();
        flame.on_event(&ev(0, 1, 0, ObsKind::ActionEnter));
        flame.on_event(&ev(10, 1, 1, ObsKind::Raise { exception: ExceptionId::new(2) }));
        flame.on_event(&ev(15, 1, 1, ObsKind::AbortionStart { depth: 1 }));
        flame.on_event(&ev(40, 1, 1, ObsKind::AbortionEnd));
        flame.on_event(&ev(45, 1, 1, ObsKind::HandlerStart { exception: ExceptionId::new(2) }));
        flame.on_event(&ev(95, 1, 1, ObsKind::HandlerEnd { signalled: false }));
        flame.on_event(&ev(100, 1, 1, ObsKind::ActionLeave));
        flame.on_run_end(SimTime::from_micros(100));
        let folded = flame.folded();
        // Dwell: O1;A1 from 0→15 and 40→45 and 95→100 = 25us,
        // abort 15→40 = 25us, handler 45→95 = 50us.
        assert!(folded.contains("O1;A1 25\n"), "folded was:\n{folded}");
        assert!(folded.contains("O1;A1;abort A1 25\n"), "folded was:\n{folded}");
        assert!(folded.contains("O1;A1;handle e2 50\n"), "folded was:\n{folded}");
        // Every line is `frames space count` — the format flamegraph
        // tooling accepts.
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space-separated");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().is_ok(), "bad count in `{line}`");
        }
    }

    #[test]
    fn per_round_views_partition_the_total() {
        let mut flame = FlameBuilder::new();
        flame.on_event(&ev(0, 0, 0, ObsKind::ActionEnter));
        flame.on_event(&ev(20, 0, 1, ObsKind::ResolutionStart));
        flame.on_event(&ev(50, 0, 1, ObsKind::ActionLeave));
        flame.on_run_end(SimTime::from_micros(50));
        assert_eq!(flame.rounds(), vec![0, 1]);
        // Round 0 covers 0→20 (interval opened before the round began);
        // round 1 covers 20→50.
        assert!(flame.folded_for_round(0).contains("O0;A1 20\n"));
        assert!(flame.folded_for_round(1).contains("O0;A1 30\n"));
        assert!(flame.folded().contains("O0;A1 50\n"));
    }

    #[test]
    fn per_action_views_split_a_multiplexed_stream() {
        // Two actions interleaved on disjoint objects, as a fleet
        // engine would produce them on one shared net.
        fn span_ev(at: u64, object: u32, action: u32, round: u32, kind: ObsKind) -> ObsEvent {
            ObsEvent {
                at: SimTime::from_micros(at),
                wall_micros: None,
                object: NodeId::new(object),
                span: CorrelationId { action: ActionId::new(action), round },
                kind,
            }
        }
        let mut flame = FlameBuilder::new();
        flame.on_event(&span_ev(0, 0, 0, 0, ObsKind::ActionEnter));
        flame.on_event(&span_ev(0, 9, 5, 0, ObsKind::ActionEnter));
        flame.on_event(&span_ev(30, 0, 0, 1, ObsKind::ResolutionStart));
        flame.on_event(&span_ev(40, 9, 5, 1, ObsKind::ResolutionStart));
        flame.on_event(&span_ev(50, 0, 0, 1, ObsKind::ActionLeave));
        flame.on_event(&span_ev(100, 9, 5, 1, ObsKind::ActionLeave));
        flame.on_run_end(SimTime::from_micros(100));
        assert_eq!(flame.spans(), vec![(0, 0), (0, 1), (5, 0), (5, 1)]);
        // Action 0: O0 enters A0, 0→50. Action 5: O9 enters A5, 0→100.
        let action = |index: u32| flame.render(|a, _| a == index);
        assert!(action(0).contains("O0;A0 50\n"));
        assert!(!action(0).contains("O9"));
        assert!(action(5).contains("O9;A5 100\n"));
        assert!(flame.render(|a, r| a == 5 && r == 1).contains("O9;A5 60\n"));
        // Round views still sum across the fleet.
        let round1 = flame.folded_for_round(1);
        assert!(round1.contains("O0;A0 20\n"), "{round1}");
        assert!(round1.contains("O9;A5 60\n"), "{round1}");
    }

    #[test]
    fn stray_end_without_start_is_tolerated() {
        let mut flame = FlameBuilder::new();
        flame.on_event(&ev(0, 2, 1, ObsKind::HandlerEnd { signalled: false }));
        flame.on_event(&ev(5, 2, 1, ObsKind::ActionLeave));
        flame.on_run_end(SimTime::from_micros(9));
        let folded = flame.folded();
        assert!(folded.contains("O2 "), "root survives: {folded}");
    }
}
