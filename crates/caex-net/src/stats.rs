//! Per-kind message statistics.

use crate::{IdMap, LabelCounts, NodeId};
use std::fmt;

/// Message counters accumulated by a network.
///
/// Tracks sends, deliveries and drops, each broken down by message kind
/// (see [`Kinded`](crate::Kinded)). The §4.4 message-complexity tables
/// are produced directly from these counters.
///
/// # Examples
///
/// ```
/// use caex_net::NetStats;
///
/// let mut stats = NetStats::default();
/// stats.record_send("exception");
/// stats.record_send("ack");
/// stats.record_delivery("exception");
/// assert_eq!(stats.sent_total(), 2);
/// assert_eq!(stats.sent_of_kind("exception"), 1);
/// assert_eq!(stats.delivered_total(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    sent: LabelCounts,
    delivered: LabelCounts,
    dropped: LabelCounts,
    /// Messages sent to each node (its in-degree load).
    in_load: InLoad,
    max_in_flight: usize,
    /// Injected faults per fault kind (see
    /// [`FaultEvent::label`](crate::FaultEvent::label)).
    faults: LabelCounts,
    /// Recovery actions per kind (`"reconnect"`, `"suspicion_flap"`,
    /// `"replayed_frame"`, …) — the transport surviving a fault rather
    /// than suffering one.
    recovery: LabelCounts,
    /// Per-action counters, keyed by action index, for networks shared
    /// by a fleet of actions (see [`Kinded::action_index`](crate::Kinded::action_index)).
    /// Unordered: [`Self::actions_seen`] sorts at read time.
    per_action: IdMap<u32, ActionCounters>,
}

/// Messages sent per destination, dense by [`NodeId::index`]: node ids
/// are bounded by the network on every transport. Grows on demand, so
/// two records that differ only in trailing zeros are equal.
#[derive(Debug, Clone, Default)]
struct InLoad(Vec<u64>);

impl InLoad {
    fn add(&mut self, node: usize, count: u64) {
        if node >= self.0.len() {
            self.0.resize(node + 1, 0);
        }
        self.0[node] += count;
    }

    /// The counts up to the last nonzero one.
    fn trimmed(&self) -> &[u64] {
        let end = self
            .0
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |last| last + 1);
        &self.0[..end]
    }
}

impl PartialEq for InLoad {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}
impl Eq for InLoad {}

/// Send/delivery/drop counters for one action sharing a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCounters {
    /// Messages sent on behalf of this action.
    pub sent: u64,
    /// Messages delivered on behalf of this action.
    pub delivered: u64,
    /// Messages dropped (faults, crashed destinations) for this action.
    pub dropped: u64,
}

impl NetStats {
    /// Records one send of a message of `kind`.
    pub fn record_send(&mut self, kind: &'static str) {
        self.sent.add(kind, 1);
    }

    /// Records the destination of a send (load accounting).
    pub fn record_channel(&mut self, to: NodeId) {
        self.in_load.add(to.index() as usize, 1);
    }

    /// Total messages a node received (its in-degree load) — the
    /// hot-spot metric for centralized designs.
    #[must_use]
    pub fn node_in_load(&self, node: NodeId) -> u64 {
        self.in_load
            .0
            .get(node.index() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The node with the highest in-degree load, with that load (the
    /// highest-numbered of equally loaded nodes).
    #[must_use]
    pub fn hottest_receiver(&self) -> Option<(NodeId, u64)> {
        (0u32..)
            .zip(self.in_load.trimmed())
            .max_by_key(|&(_, &load)| load)
            .map(|(node, &load)| (NodeId::new(node), load))
    }

    /// Records one delivery of a message of `kind`.
    pub fn record_delivery(&mut self, kind: &'static str) {
        self.delivered.add(kind, 1);
    }

    /// Records one drop of a message of `kind`.
    pub fn record_drop(&mut self, kind: &'static str) {
        self.dropped.add(kind, 1);
    }

    /// Records one send attributed to action `action`.
    pub(crate) fn record_action_send(&mut self, action: u32) {
        self.per_action.entry(action).or_default().sent += 1;
    }

    /// Records one delivery attributed to action `action`.
    pub(crate) fn record_action_delivery(&mut self, action: u32) {
        self.per_action.entry(action).or_default().delivered += 1;
    }

    /// Records one drop attributed to action `action`.
    pub(crate) fn record_action_drop(&mut self, action: u32) {
        self.per_action.entry(action).or_default().dropped += 1;
    }

    /// Counters for one action, zeroed if the action never used this net.
    #[must_use]
    pub fn action_counters(&self, action: u32) -> ActionCounters {
        self.per_action.get(&action).copied().unwrap_or_default()
    }

    /// Iterates `(action index, counters)` pairs in action order.
    pub fn actions_seen(&self) -> impl Iterator<Item = (u32, ActionCounters)> {
        let mut actions: Vec<_> = self.per_action.iter().map(|(&a, &c)| (a, c)).collect();
        actions.sort_unstable_by_key(|&(a, _)| a);
        actions.into_iter()
    }

    /// Updates the high-water mark of simultaneously in-flight messages.
    pub(crate) fn observe_in_flight(&mut self, current: usize) {
        self.max_in_flight = self.max_in_flight.max(current);
    }

    /// Records one injected fault of `kind` (a
    /// [`FaultEvent::label`](crate::FaultEvent::label) string).
    pub(crate) fn record_fault(&mut self, kind: &'static str) {
        self.faults.add(kind, 1);
    }

    /// Faults injected of one kind.
    #[must_use]
    pub fn fault_of_kind(&self, kind: &str) -> u64 {
        self.faults.get(kind)
    }

    /// Records one recovery action of `kind` — a reconnect after a
    /// broken connection, a suspicion flap (a peer suspected and then
    /// heard from again), a frame replayed after a redial.
    pub fn record_recovery(&mut self, kind: &'static str) {
        self.recovery.add(kind, 1);
    }

    /// Recovery actions of one kind.
    #[must_use]
    pub fn recovery_of_kind(&self, kind: &str) -> u64 {
        self.recovery.get(kind)
    }

    /// Total messages sent (all kinds).
    #[must_use]
    pub fn sent_total(&self) -> u64 {
        self.sent.total()
    }

    /// Total messages delivered (all kinds).
    #[must_use]
    pub fn delivered_total(&self) -> u64 {
        self.delivered.total()
    }

    /// Total messages dropped (all kinds).
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.total()
    }

    /// Messages sent of one kind.
    #[must_use]
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.sent.get(kind)
    }

    /// Messages delivered of one kind.
    #[must_use]
    pub fn delivered_of_kind(&self, kind: &str) -> u64 {
        self.delivered.get(kind)
    }

    /// Messages dropped of one kind.
    #[must_use]
    pub fn dropped_of_kind(&self, kind: &str) -> u64 {
        self.dropped.get(kind)
    }

    /// Iterates `(kind, sent)` pairs in kind order.
    pub fn sent_by_kind(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.sent.sorted().into_iter()
    }

    /// The largest number of messages that were in flight at once.
    #[must_use]
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Merges another stats record into this one (kind-wise sums).
    pub fn merge(&mut self, other: &NetStats) {
        self.sent.merge(&other.sent);
        self.delivered.merge(&other.delivered);
        self.dropped.merge(&other.dropped);
        for (node, &count) in other.in_load.trimmed().iter().enumerate() {
            self.in_load.add(node, count);
        }
        self.faults.merge(&other.faults);
        self.recovery.merge(&other.recovery);
        for (&a, c) in &other.per_action {
            let mine = self.per_action.entry(a).or_default();
            mine.sent += c.sent;
            mine.delivered += c.delivered;
            mine.dropped += c.dropped;
        }
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sent={} delivered={} dropped={} max_in_flight={}",
            self.sent_total(),
            self.delivered_total(),
            self.dropped_total(),
            self.max_in_flight
        )?;
        // One row per kind over the union of all three counters: a
        // kind that was only ever dropped still shows up.
        let kinds: std::collections::BTreeSet<&str> = self
            .sent
            .labels()
            .chain(self.delivered.labels())
            .chain(self.dropped.labels())
            .collect();
        for kind in kinds {
            writeln!(
                f,
                "  {kind}: sent {} delivered {} dropped {}",
                self.sent_of_kind(kind),
                self.delivered_of_kind(kind),
                self.dropped_of_kind(kind)
            )?;
        }
        // Per-action rows only earn space when the net is actually
        // shared: a single action's row would repeat the totals.
        if self.per_action.len() > 1 {
            for (a, c) in self.actions_seen() {
                writeln!(
                    f,
                    "  A{a}: sent {} delivered {} dropped {}",
                    c.sent, c.delivered, c.dropped
                )?;
            }
        }
        for (kind, count) in self.faults.sorted() {
            writeln!(f, "  fault {kind}: {count}")?;
        }
        for (kind, count) in self.recovery.sorted() {
            writeln!(f, "  recovery {kind}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_kind() {
        let mut s = NetStats::default();
        s.record_send("a");
        s.record_send("a");
        s.record_send("b");
        s.record_delivery("a");
        s.record_drop("b");
        assert_eq!(s.sent_of_kind("a"), 2);
        assert_eq!(s.sent_of_kind("b"), 1);
        assert_eq!(s.sent_of_kind("c"), 0);
        assert_eq!(s.sent_total(), 3);
        assert_eq!(s.delivered_total(), 1);
        assert_eq!(s.dropped_of_kind("b"), 1);
    }

    /// Interleaves first-sight and repeat calls on every per-kind
    /// counter: the maps (hence totals, `Display` and the serialised
    /// form) must come out as the entry-API bookkeeping left them.
    #[test]
    fn recording_interleaved_seen_and_unseen_kinds() {
        let mut stats = NetStats::default();
        stats.record_send("exception");
        stats.record_send("ack");
        stats.record_delivery("exception");
        stats.record_send("exception");
        stats.record_drop("ack");
        stats.record_fault("duplicated");
        stats.record_delivery("exception");
        stats.record_recovery("reconnect");
        stats.record_fault("duplicated");
        stats.record_drop("commit");
        stats.record_recovery("reconnect");
        stats.record_send("ack");
        let counts = |pairs: &[(&'static str, u64)]| -> LabelCounts {
            let mut counts = LabelCounts::default();
            for &(k, v) in pairs {
                counts.add(k, v);
            }
            counts
        };
        let expected = NetStats {
            sent: counts(&[("ack", 2), ("exception", 2)]),
            delivered: counts(&[("exception", 2)]),
            dropped: counts(&[("ack", 1), ("commit", 1)]),
            faults: counts(&[("duplicated", 2)]),
            recovery: counts(&[("reconnect", 2)]),
            ..NetStats::default()
        };
        assert_eq!(stats, expected);
        assert_eq!((stats.sent_total(), stats.sent_of_kind("ack")), (4, 2));
        assert_eq!(stats.delivered_of_kind("exception"), 2);
        assert_eq!(
            (stats.dropped_total(), stats.dropped_of_kind("commit")),
            (2, 1)
        );
        assert_eq!(stats.fault_of_kind("duplicated"), 2);
        assert_eq!(stats.recovery_of_kind("reconnect"), 2);
        assert_eq!(
            stats.to_string(),
            "sent=4 delivered=2 dropped=2 max_in_flight=0\n  \
             ack: sent 2 delivered 0 dropped 1\n  \
             commit: sent 0 delivered 0 dropped 1\n  \
             exception: sent 2 delivered 2 dropped 0\n  \
             fault duplicated: 2\n  \
             recovery reconnect: 2\n"
        );
    }

    #[test]
    fn in_flight_high_water_mark() {
        let mut s = NetStats::default();
        s.observe_in_flight(3);
        s.observe_in_flight(1);
        s.observe_in_flight(7);
        s.observe_in_flight(2);
        assert_eq!(s.max_in_flight(), 7);
    }

    #[test]
    fn merge_sums_kinds() {
        let mut a = NetStats::default();
        a.record_send("x");
        a.observe_in_flight(2);
        let mut b = NetStats::default();
        b.record_send("x");
        b.record_send("y");
        b.observe_in_flight(5);
        a.merge(&b);
        assert_eq!(a.sent_of_kind("x"), 2);
        assert_eq!(a.sent_of_kind("y"), 1);
        assert_eq!(a.max_in_flight(), 5);
    }

    #[test]
    fn display_mentions_totals() {
        let mut s = NetStats::default();
        s.record_send("exception");
        let text = s.to_string();
        assert!(text.contains("sent=1"));
        assert!(text.contains("exception"));
    }

    #[test]
    fn display_breaks_down_deliveries_and_drops_per_kind() {
        let mut s = NetStats::default();
        s.record_send("exception");
        s.record_delivery("exception");
        s.record_send("ack");
        s.record_drop("ack");
        // A kind never sent but dropped (e.g. merged from a partial
        // record) still gets a row.
        s.record_drop("commit");
        let text = s.to_string();
        assert!(text.contains("exception: sent 1 delivered 1 dropped 0"), "{text}");
        assert!(text.contains("ack: sent 1 delivered 0 dropped 1"), "{text}");
        assert!(text.contains("commit: sent 0 delivered 0 dropped 1"), "{text}");
    }

    #[test]
    fn channel_and_node_loads() {
        let mut s = NetStats::default();
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert_eq!(s.hottest_receiver(), None);
        s.record_channel(c);
        s.record_channel(c);
        s.record_channel(c);
        s.record_channel(a);
        assert_eq!(s.node_in_load(a), 1);
        assert_eq!(s.node_in_load(b), 0);
        assert_eq!(s.node_in_load(c), 3);
        assert_eq!(s.node_in_load(NodeId::new(99)), 0);
        assert_eq!(s.hottest_receiver(), Some((c, 3)));
        // Ties go to the highest-numbered node.
        s.record_channel(a);
        s.record_channel(a);
        assert_eq!(s.hottest_receiver(), Some((c, 3)));
    }

    #[test]
    fn in_load_grows_to_the_highest_destination_only() {
        let mut s = NetStats::default();
        s.record_channel(NodeId::new(5));
        assert_eq!(s.in_load.0, vec![0, 0, 0, 0, 0, 1]);
        s.record_channel(NodeId::new(2));
        assert_eq!(s.in_load.0, vec![0, 0, 1, 0, 0, 1]);
        assert_eq!(s.hottest_receiver(), Some((NodeId::new(5), 1)));
    }

    #[test]
    fn merge_adds_in_loads_of_different_lengths() {
        let (a, b, far) = (NodeId::new(0), NodeId::new(1), NodeId::new(7));
        let mut short = NetStats::default();
        short.record_channel(b);
        let mut long = NetStats::default();
        long.record_channel(b);
        long.record_channel(far);
        long.record_channel(a);

        let mut x = short.clone();
        x.merge(&long);
        let mut y = long.clone();
        y.merge(&short);
        assert_eq!(x, y);
        assert_eq!(
            (x.node_in_load(a), x.node_in_load(b), x.node_in_load(far)),
            (1, 2, 1)
        );
        assert_eq!(x.hottest_receiver(), Some((b, 2)));
    }

    #[test]
    fn equality_and_display_ignore_trailing_zero_loads() {
        let mut counted = NetStats::default();
        counted.record_send("exception");
        counted.record_channel(NodeId::new(1));
        let mut padded = counted.clone();
        padded.in_load.0.resize(64, 0);
        assert_eq!(counted, padded);
        assert_eq!(counted.to_string(), padded.to_string());
        let mut other = counted.clone();
        other.record_channel(NodeId::new(40));
        assert_ne!(counted, other);
        // Merging an all-zero tail changes nothing either.
        let mut merged = counted.clone();
        merged.merge(&NetStats {
            in_load: InLoad(vec![0; 100]),
            ..NetStats::default()
        });
        assert_eq!(merged, counted);
    }

    #[test]
    fn faults_accumulate_merge_and_display() {
        let mut a = NetStats::default();
        a.record_fault("reordered");
        a.record_fault("reordered");
        a.record_fault("clock_frozen");
        let mut b = NetStats::default();
        b.record_fault("reordered");
        a.merge(&b);
        assert_eq!(a.fault_of_kind("reordered"), 3);
        assert_eq!(a.fault_of_kind("clock_frozen"), 1);
        assert_eq!(a.fault_of_kind("restarted"), 0);
        let text = a.to_string();
        assert!(text.contains("fault reordered: 3"), "{text}");
        assert!(text.contains("fault clock_frozen: 1"), "{text}");
    }

    #[test]
    fn recoveries_accumulate_merge_and_display() {
        let mut a = NetStats::default();
        a.record_recovery("reconnect");
        a.record_recovery("suspicion_flap");
        let mut b = NetStats::default();
        b.record_recovery("reconnect");
        b.record_recovery("replayed_frame");
        a.merge(&b);
        assert_eq!(a.recovery_of_kind("reconnect"), 2);
        assert_eq!(a.recovery_of_kind("suspicion_flap"), 1);
        assert_eq!(a.recovery_of_kind("replayed_frame"), 1);
        assert_eq!(a.recovery_of_kind("unknown"), 0);
        let text = a.to_string();
        assert!(text.contains("recovery reconnect: 2"), "{text}");
        assert!(text.contains("recovery suspicion_flap: 1"), "{text}");
    }

    #[test]
    fn per_action_counters_accumulate_and_merge() {
        let mut a = NetStats::default();
        a.record_action_send(0);
        a.record_action_send(0);
        a.record_action_delivery(0);
        a.record_action_send(3);
        a.record_action_drop(3);
        let mut b = NetStats::default();
        b.record_action_send(3);
        a.merge(&b);
        assert_eq!(a.action_counters(0).sent, 2);
        assert_eq!(a.action_counters(0).delivered, 1);
        assert_eq!(a.action_counters(3).sent, 2);
        assert_eq!(a.action_counters(3).dropped, 1);
        assert_eq!(a.action_counters(7), ActionCounters::default());
        let seen: Vec<u32> = a.actions_seen().map(|(i, _)| i).collect();
        assert_eq!(seen, vec![0, 3]);
    }

    #[test]
    fn display_lists_actions_only_when_net_is_shared() {
        let mut solo = NetStats::default();
        solo.record_action_send(0);
        assert!(!solo.to_string().contains("A0:"), "{solo}");

        let mut shared = NetStats::default();
        shared.record_action_send(0);
        shared.record_action_delivery(0);
        shared.record_action_send(4);
        shared.record_action_drop(4);
        let text = shared.to_string();
        assert!(text.contains("A0: sent 1 delivered 1 dropped 0"), "{text}");
        assert!(text.contains("A4: sent 1 delivered 0 dropped 1"), "{text}");
    }

    #[test]
    fn sent_by_kind_is_sorted() {
        let mut s = NetStats::default();
        s.record_send("b");
        s.record_send("a");
        let kinds: Vec<_> = s.sent_by_kind().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(kinds, vec!["a", "b"]);
    }
}
