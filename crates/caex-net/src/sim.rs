//! The deterministic discrete-event network simulator.

use crate::{FaultEvent, FaultPlan, IdMap, IdSet, Kinded, LatencyModel, NetStats, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Configuration of a [`SimNet`].
///
/// # Examples
///
/// ```
/// use caex_net::{LatencyModel, NetConfig, SimTime};
///
/// let config = NetConfig::default()
///     .with_latency(LatencyModel::Constant(SimTime::from_micros(250)))
///     .with_seed(42);
/// assert_eq!(config.seed, 42);
/// ```
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// In-flight time model for remote messages.
    pub latency: LatencyModel,
    /// Faults to inject (benign by default).
    pub faults: FaultPlan,
    /// Seed for the latency/fault RNG; equal seeds give equal runs.
    pub seed: u64,
    /// Per-ordered-pair FIFO delivery (default `true` — the §4.2
    /// substrate assumption). Setting `false` lets a later message
    /// overtake an earlier one on the same channel; protocols that rely
    /// on FIFO (the resolution algorithm does) may then misbehave —
    /// that is the point of the ablation.
    pub fifo: bool,
    /// Per-ordered-pair latency overrides (heterogeneous topologies:
    /// a WAN link between two LAN clusters, one slow node, …); pairs
    /// not listed use [`Self::latency`].
    pub link_latency: Vec<(NodeId, NodeId, LatencyModel)>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: LatencyModel::default(),
            faults: FaultPlan::none(),
            seed: 0,
            fifo: true,
            link_latency: Vec::new(),
        }
    }
}

impl NetConfig {
    /// Replaces the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables per-channel FIFO ordering (ablation knob;
    /// the resolution algorithm assumes FIFO).
    #[must_use]
    pub fn with_fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Overrides the latency model of the ordered link `from → to`
    /// (call twice for a symmetric override).
    #[must_use]
    pub fn with_link_latency(mut self, from: NodeId, to: NodeId, model: LatencyModel) -> Self {
        self.link_latency.push((from, to, model));
        self
    }
}

/// Where a delivered payload came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverySource {
    /// A remote message sent by this node.
    Remote(NodeId),
    /// A locally scheduled event (timer, scenario step).
    Local,
}

/// One payload handed to a node by [`SimNet::next_delivery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Virtual time of delivery; the simulator clock equals this.
    pub at: SimTime,
    /// The receiving node.
    pub to: NodeId,
    /// Remote sender or local event.
    pub source: DeliverySource,
    /// The message or event payload.
    pub payload: M,
}

#[derive(Debug)]
struct Queued<M> {
    at: SimTime,
    seq: u64,
    to: NodeId,
    source: DeliverySource,
    payload: M,
}

impl<M> Queued<M> {
    /// Delivery order: earliest first, then lowest sequence number.
    /// Sequence numbers are unique, making the order total and runs
    /// deterministic.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key().cmp(&self.key())
    }
}

/// The pending events, popped in [`Queued::key`] order.
///
/// A remote send's `at` is `now` plus a latency, and `now` never goes
/// back, so under a constant latency remote entries arrive already in
/// delivery order. Such an entry is appended to the `lane` — sequence
/// numbers only grow, so an entry whose `at` is not before the lane's
/// back keeps the lane sorted by key — and leaves it again from the
/// front, never sifted. Everything else goes on the `heap`: a remote
/// entry due before the lane's back (jitter, a reorder window, traffic
/// behind an entry a freeze or a healing partition deferred), and every
/// local event — a scripted step far in the future would otherwise park
/// at the lane's back and turn the traffic before it away. `pop` takes
/// the smaller of the two heads, so the order is the one a single heap
/// of all entries gives.
#[derive(Debug)]
struct EventQueue<M> {
    lane: VecDeque<Queued<M>>,
    heap: BinaryHeap<Queued<M>>,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    fn push(&mut self, entry: Queued<M>) {
        let in_order = matches!(entry.source, DeliverySource::Remote(_))
            && self.lane.back().is_none_or(|back| back.at <= entry.at);
        if in_order {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    fn pop(&mut self) -> Option<Queued<M>> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) if heap.key() < lane.key() => self.heap.pop(),
            (Some(_), _) => self.lane.pop_front(),
            (None, _) => self.heap.pop(),
        }
    }
}

/// A deterministic discrete-event message-passing network.
///
/// Guarantees, matching the paper's §4.2 substrate assumptions:
///
/// - **Reliable delivery** (with the default benign [`FaultPlan`]);
/// - **FIFO per ordered pair**: if `a` sends `m1` then `m2` to `b`, `b`
///   receives `m1` first, even under random latency jitter;
/// - **Determinism**: equal configs, seeds and send sequences produce
///   identical delivery sequences and timestamps.
///
/// The simulator is *passive*: it never invokes user code. Callers pull
/// deliveries with [`next_delivery`](Self::next_delivery) and feed them
/// to their own state machines, which keeps the borrow structure simple
/// and makes every interleaving decision explicit and reproducible.
///
/// # Examples
///
/// ```
/// use caex_net::{NetConfig, NodeId, SimNet, SimTime};
///
/// let mut net: SimNet<&'static str> = SimNet::new(NetConfig::default(), 3);
/// net.schedule_local(SimTime::from_micros(10), NodeId::new(2), "tick");
/// net.send(NodeId::new(0), NodeId::new(1), "hello");
///
/// while let Some(d) = net.next_delivery() {
///     println!("{} got {} at {}", d.to, d.payload, d.at);
/// }
/// assert!(net.is_quiescent());
/// ```
#[derive(Debug)]
pub struct SimNet<M> {
    config: NetConfig,
    now: SimTime,
    queue: EventQueue<M>,
    /// Earliest permissible delivery time per ordered (from, to) pair;
    /// enforces FIFO under jittery latency models. `None` when FIFO
    /// holds by construction or is switched off (see [`SimNet::new`]).
    channel_clock: Option<IdMap<(NodeId, NodeId), SimTime>>,
    next_seq: u64,
    num_nodes: u32,
    rng: StdRng,
    stats: NetStats,
    delivered_count: u64,
    /// Nodes whose return from a crash-with-restart down-window has
    /// already been recorded (the `Restarted` fault fires once).
    restart_logged: IdSet<NodeId>,
}

impl<M> SimNet<M> {
    /// Creates a network of `num_nodes` nodes (ids `0..num_nodes`).
    ///
    /// The FIFO clamp keeps a clock per channel only where a link's
    /// latency can fall between two sends: a jittery model on any link,
    /// or a slowdown window. Otherwise a send's time before a clock
    /// freeze, `now` plus the link's constant latency, never falls on a
    /// channel, and neither does a healing partition's deferral (the
    /// latest end over the windows covering the send: a later send is
    /// still covered by each of them or comes after its end), so the
    /// clamp could never move a delivery. A reordered send skips the
    /// clamp either way, and a freeze defers after it.
    #[must_use]
    pub fn new(config: NetConfig, num_nodes: u32) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let latency_can_fall = !config.latency.is_constant()
            || config.link_latency.iter().any(|(_, _, m)| !m.is_constant())
            || config.faults.has_slowdowns();
        SimNet {
            channel_clock: (config.fifo && latency_can_fall).then(IdMap::default),
            config,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            next_seq: 0,
            num_nodes,
            rng,
            stats: NetStats::default(),
            delivered_count: 0,
            restart_logged: IdSet::default(),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the network.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes).map(NodeId::new)
    }

    /// `true` once `node` has passed its scheduled crash time, or while
    /// it is inside a crash-with-restart down-window.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.config
            .faults
            .crashes_at(node)
            .is_some_and(|at| at <= self.now)
            || self.config.faults.is_down(node, self.now)
    }

    /// `true` when no events remain in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of events currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Total deliveries performed so far.
    #[must_use]
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Accumulated per-kind statistics.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Ends the run and hands the statistics over without copying them.
    #[must_use]
    pub fn into_stats(self) -> NetStats {
        self.stats
    }

    fn assert_node(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} outside network of {} nodes",
            self.num_nodes
        );
    }

    fn enqueue(&mut self, at: SimTime, to: NodeId, source: DeliverySource, payload: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued {
            at,
            seq,
            to,
            source,
            payload,
        });
        let in_flight = self.queue.len();
        self.stats.observe_in_flight(in_flight);
    }
}

impl<M: Kinded> SimNet<M> {
    /// Schedules a local event at absolute virtual time `at` (clamped to
    /// "now" if already past). Local events do not count as messages.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the network.
    pub fn schedule_local(&mut self, at: SimTime, node: NodeId, payload: M) {
        self.assert_node(node);
        let at = at.max(self.now);
        self.enqueue(at, node, DeliverySource::Local, payload);
    }

    /// Schedules a local event `delay` after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the network.
    pub fn schedule_local_in(&mut self, delay: SimTime, node: NodeId, payload: M) {
        self.schedule_local(self.now + delay, node, payload);
    }
}

impl<M: Kinded + Clone> SimNet<M> {
    /// Sends `payload` from `from` to `to`, subject to the latency model
    /// and fault plan. Self-sends are permitted (delivered like any other
    /// message).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the network.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        self.assert_node(from);
        self.assert_node(to);
        let kind = payload.kind();

        if self.is_crashed(from) {
            self.stats.record_fault(FaultEvent::SourceCrashed.label());
            return;
        }

        self.stats.record_send(kind);
        self.stats.record_channel(to);
        let action = payload.action_index();
        if let Some(a) = action {
            self.stats.record_action_send(a);
        }

        // Partitions sever at send time: messages already in flight
        // when a partition begins still arrive (they left the sender).
        if self.config.faults.is_partitioned(from, to, self.now) {
            self.stats.record_drop(kind);
            if let Some(a) = action {
                self.stats.record_action_drop(a);
            }
            self.stats.record_fault(FaultEvent::Partitioned.label());
            return;
        }

        if self.config.faults.drop_probability() > 0.0
            && self.rng.gen_bool(self.config.faults.drop_probability())
        {
            self.stats.record_drop(kind);
            if let Some(a) = action {
                self.stats.record_action_drop(a);
            }
            self.stats.record_fault(FaultEvent::Dropped.label());
            return;
        }

        let duplicate = self.config.faults.duplicate_probability() > 0.0
            && self
                .rng
                .gen_bool(self.config.faults.duplicate_probability());

        // The payload moves into the queue; only a duplicating fault
        // plan pays for a second copy.
        let copy = duplicate.then(|| payload.clone());
        self.enqueue_remote(from, to, payload);
        if let Some(copy) = copy {
            self.stats.record_fault(FaultEvent::Duplicated.label());
            self.enqueue_remote(from, to, copy);
        }
    }

    fn enqueue_remote(&mut self, from: NodeId, to: NodeId, payload: M) {
        let model = self
            .config
            .link_latency
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map_or(self.config.latency, |&(_, _, m)| m);
        let mut latency = model.sample(&mut self.rng);
        let slowdown = self.config.faults.slowdown_at(self.now);
        if slowdown > 1 {
            latency = SimTime::from_micros(latency.as_micros().saturating_mul(slowdown));
        }
        let mut at = self.now + latency;
        // Healing partition: a send crossing the boundary is buffered
        // by the transport and retransmitted when the partition heals —
        // deferred, not dropped. Applied before the FIFO clamp so later
        // sends on the channel cannot overtake the deferred backlog.
        if let Some(healed) = self.config.faults.heal_deferral(from, to, self.now) {
            self.stats.record_fault(FaultEvent::PartitionHealed.label());
            self.stats.record_recovery("replayed_frame");
            at = at.max(healed);
        }
        // Bounded reordering: with probability p this message escapes
        // the channel's FIFO clamp and gains up to `reorder_window` of
        // extra delay — it may overtake later sends or fall behind
        // earlier ones, violating exactly the §2.1 FIFO assumption.
        let reordered = self.config.faults.reorder_probability() > 0.0
            && self.rng.gen_bool(self.config.faults.reorder_probability());
        if reordered {
            let window = self.config.faults.reorder_window().as_micros();
            if window > 0 {
                at += SimTime::from_micros(self.rng.gen_range(0..=window));
            }
            self.stats.record_fault(FaultEvent::Reordered.label());
        } else if let Some(clock) = &mut self.channel_clock {
            // FIFO: a later send on the same channel may not arrive
            // before an earlier one, whatever latency it drew.
            let earliest = clock.entry((from, to)).or_insert(SimTime::ZERO);
            at = at.max(*earliest);
            *earliest = at;
        }
        // Clock freeze: a delivery landing inside the destination's
        // freeze window waits until the process "resumes".
        if let Some(resumed) = self.config.faults.freeze_deferral(to, at) {
            self.stats.record_fault(FaultEvent::ClockFrozen.label());
            at = resumed;
        }
        self.enqueue(at, to, DeliverySource::Remote(from), payload);
    }

    /// Sends `payload` from `from` to every node in `to` (cloned per
    /// destination). Order of sends follows the iterator.
    ///
    /// # Panics
    ///
    /// Panics if any node is outside the network.
    pub fn broadcast<I>(&mut self, from: NodeId, to: I, payload: M)
    where
        I: IntoIterator<Item = NodeId>,
    {
        for dest in to {
            self.send(from, dest, payload.clone());
        }
    }

    /// Pops the next event, advancing the virtual clock to its time.
    ///
    /// Deliveries to crashed nodes are suppressed (counted as
    /// [`FaultEvent::DestinationCrashed`]) and the following event is
    /// tried, so `None` really means quiescence.
    pub fn next_delivery(&mut self) -> Option<Delivery<M>> {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            // First event a restarted node lives through: note that the
            // "zombie" is back (its messages now test commit fencing).
            if !self.is_crashed(ev.to)
                && self
                    .config
                    .faults
                    .restarts()
                    .any(|(n, _, up)| n == ev.to && up <= ev.at)
                && self.restart_logged.insert(ev.to)
            {
                self.stats.record_fault(FaultEvent::Restarted.label());
            }
            if let DeliverySource::Remote(_) = ev.source {
                let kind = ev.payload.kind();
                if self.is_crashed(ev.to) {
                    self.stats.record_drop(kind);
                    if let Some(a) = ev.payload.action_index() {
                        self.stats.record_action_drop(a);
                    }
                    self.stats
                        .record_fault(FaultEvent::DestinationCrashed.label());
                    continue;
                }
                self.stats.record_delivery(kind);
                if let Some(a) = ev.payload.action_index() {
                    self.stats.record_action_delivery(a);
                }
            } else if self.is_crashed(ev.to) {
                self.stats
                    .record_fault(FaultEvent::DestinationCrashed.label());
                continue;
            }
            self.delivered_count += 1;
            return Some(Delivery {
                at: ev.at,
                to: ev.to,
                source: ev.source,
                payload: ev.payload,
            });
        }
        None
    }

    /// Drains the network to quiescence, collecting every delivery —
    /// convenient when the caller only inspects the schedule and never
    /// reacts to it.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_net::{NetConfig, NodeId, SimNet};
    ///
    /// let mut net: SimNet<&'static str> = SimNet::new(NetConfig::default(), 2);
    /// net.send(NodeId::new(0), NodeId::new(1), "a");
    /// net.send(NodeId::new(1), NodeId::new(0), "b");
    /// let all = net.drain();
    /// assert_eq!(all.len(), 2);
    /// assert!(net.is_quiescent());
    /// ```
    pub fn drain(&mut self) -> Vec<Delivery<M>> {
        std::iter::from_fn(|| self.next_delivery()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn net(latency: LatencyModel, seed: u64) -> SimNet<&'static str> {
        SimNet::new(
            NetConfig::default().with_latency(latency).with_seed(seed),
            4,
        )
    }

    #[test]
    fn delivers_in_time_order() {
        let mut n = net(LatencyModel::Constant(SimTime::from_micros(10)), 0);
        n.schedule_local(SimTime::from_micros(5), NodeId::new(0), "early");
        n.send(NodeId::new(0), NodeId::new(1), "later"); // arrives at 10
        let first = n.next_delivery().unwrap();
        let second = n.next_delivery().unwrap();
        assert_eq!(first.payload, "early");
        assert_eq!(second.payload, "later");
        assert_eq!(n.now(), SimTime::from_micros(10));
    }

    #[test]
    fn fifo_holds_under_jitter() {
        let mut n = net(
            LatencyModel::Uniform {
                min: SimTime::from_micros(1),
                max: SimTime::from_micros(1000),
            },
            123,
        );
        for _ in 0..50 {
            n.send(NodeId::new(0), NodeId::new(1), "a");
        }
        let mut count = 0;
        let mut last = SimTime::ZERO;
        while let Some(d) = n.next_delivery() {
            assert!(d.at >= last);
            last = d.at;
            count += 1;
        }
        assert_eq!(count, 50);
    }

    #[test]
    fn fifo_across_interleaved_kinds() {
        let mut n = net(
            LatencyModel::Uniform {
                min: SimTime::ZERO,
                max: SimTime::from_micros(500),
            },
            7,
        );
        n.send(NodeId::new(2), NodeId::new(3), "first");
        n.send(NodeId::new(2), NodeId::new(3), "second");
        n.send(NodeId::new(2), NodeId::new(3), "third");
        let order: Vec<_> = std::iter::from_fn(|| n.next_delivery())
            .map(|d| d.payload)
            .collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn determinism_under_equal_seeds() {
        let run = |seed| {
            let mut n = net(
                LatencyModel::Uniform {
                    min: SimTime::ZERO,
                    max: SimTime::from_micros(100),
                },
                seed,
            );
            n.send(NodeId::new(0), NodeId::new(1), "x");
            n.send(NodeId::new(1), NodeId::new(2), "y");
            n.send(NodeId::new(2), NodeId::new(0), "z");
            std::iter::from_fn(|| n.next_delivery())
                .map(|d| (d.at, d.to, d.payload))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn broadcast_reaches_all_targets() {
        let mut n = net(LatencyModel::zero(), 0);
        let targets: Vec<_> = (1..4).map(NodeId::new).collect();
        n.broadcast(NodeId::new(0), targets.iter().copied(), "hi");
        let mut seen = Vec::new();
        while let Some(d) = n.next_delivery() {
            seen.push(d.to);
        }
        assert_eq!(seen, targets);
        assert_eq!(n.stats().sent_of_kind("hi"), 3);
    }

    #[test]
    fn stats_track_send_and_delivery() {
        let mut n = net(LatencyModel::zero(), 0);
        n.send(NodeId::new(0), NodeId::new(1), "ping");
        assert_eq!(n.stats().sent_total(), 1);
        assert_eq!(n.stats().delivered_total(), 0);
        n.next_delivery().unwrap();
        assert_eq!(n.stats().delivered_total(), 1);
        assert_eq!(n.delivered_count(), 1);
    }

    #[test]
    fn drop_fault_loses_messages() {
        let config =
            NetConfig::default().with_faults(FaultPlan::none().with_drop_probability(1.0));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        n.send(NodeId::new(0), NodeId::new(1), "gone");
        assert!(n.next_delivery().is_none());
        assert_eq!(n.stats().dropped_total(), 1);
        assert_eq!(n.stats().sent_total(), 1);
        assert_eq!(n.stats().fault_of_kind(FaultEvent::Dropped.label()), 1);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let config = NetConfig::default()
            .with_faults(FaultPlan::none().with_duplicate_probability(1.0))
            .with_latency(LatencyModel::zero());
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        n.send(NodeId::new(0), NodeId::new(1), "twice");
        let mut count = 0;
        while n.next_delivery().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
    }

    /// A payload that counts how often it is cloned.
    struct Counted(Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::Relaxed);
            Counted(Arc::clone(&self.0))
        }
    }

    impl Kinded for Counted {
        fn kind(&self) -> &'static str {
            "counted"
        }
    }

    #[test]
    fn send_clones_the_payload_only_to_duplicate() {
        for (probability, clones_per_send) in [(0.0, 0), (1.0, 1)] {
            let config = NetConfig::default()
                .with_faults(FaultPlan::none().with_duplicate_probability(probability))
                .with_latency(LatencyModel::zero());
            let mut n: SimNet<Counted> = SimNet::new(config, 2);
            let clones = Arc::new(AtomicUsize::new(0));
            for _ in 0..3 {
                n.send(NodeId::new(0), NodeId::new(1), Counted(Arc::clone(&clones)));
            }
            assert_eq!(clones.load(Ordering::Relaxed), 3 * clones_per_send);
            let mut delivered = 0;
            while n.next_delivery().is_some() {
                delivered += 1;
            }
            assert_eq!(delivered, 3 * (1 + clones_per_send));
            assert_eq!(
                n.stats().fault_of_kind(FaultEvent::Duplicated.label()),
                3 * clones_per_send as u64
            );
            assert_eq!(n.stats().sent_of_kind("counted"), 3);
        }
    }

    #[test]
    fn crashed_source_sends_nothing() {
        let config = NetConfig::default()
            .with_faults(FaultPlan::none().with_crash(NodeId::new(0), SimTime::ZERO));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        n.send(NodeId::new(0), NodeId::new(1), "never");
        assert!(n.next_delivery().is_none());
        assert_eq!(n.stats().sent_total(), 0);
    }

    #[test]
    fn crashed_destination_receives_nothing() {
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
            .with_faults(FaultPlan::none().with_crash(NodeId::new(1), SimTime::from_micros(50)));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        n.send(NodeId::new(0), NodeId::new(1), "late");
        // Crash (t=50) precedes delivery (t=100): suppressed.
        assert!(n.next_delivery().is_none());
        assert_eq!(n.stats().dropped_total(), 1);
    }

    #[test]
    fn crash_only_takes_effect_at_its_time() {
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(10)))
            .with_faults(FaultPlan::none().with_crash(NodeId::new(1), SimTime::from_micros(50)));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        n.send(NodeId::new(0), NodeId::new(1), "early");
        assert!(n.next_delivery().is_some());
    }

    #[test]
    fn local_events_are_not_messages() {
        let mut n = net(LatencyModel::zero(), 0);
        n.schedule_local(SimTime::from_micros(3), NodeId::new(2), "tick");
        let d = n.next_delivery().unwrap();
        assert_eq!(d.source, DeliverySource::Local);
        assert_eq!(n.stats().sent_total(), 0);
        assert_eq!(n.stats().delivered_total(), 0);
    }

    #[test]
    fn local_events_clamp_to_now() {
        let mut n = net(LatencyModel::Constant(SimTime::from_micros(100)), 0);
        n.send(NodeId::new(0), NodeId::new(1), "advance-clock");
        n.next_delivery().unwrap();
        assert_eq!(n.now(), SimTime::from_micros(100));
        n.schedule_local(SimTime::from_micros(5), NodeId::new(0), "past");
        let d = n.next_delivery().unwrap();
        assert_eq!(d.at, SimTime::from_micros(100));
    }

    #[test]
    #[should_panic(expected = "outside network")]
    fn send_to_unknown_node_panics() {
        let mut n = net(LatencyModel::zero(), 0);
        n.send(NodeId::new(0), NodeId::new(99), "bad");
    }

    #[test]
    fn quiescence_reports_correctly() {
        let mut n = net(LatencyModel::zero(), 0);
        assert!(n.is_quiescent());
        n.send(NodeId::new(0), NodeId::new(1), "m");
        assert!(!n.is_quiescent());
        assert_eq!(n.in_flight(), 1);
        n.next_delivery().unwrap();
        assert!(n.is_quiescent());
    }

    #[test]
    fn stats_count_a_send_and_its_delivery_by_kind() {
        let mut n = net(LatencyModel::zero(), 0);
        n.send(NodeId::new(0), NodeId::new(1), "counted");
        n.next_delivery().unwrap();
        assert_eq!(n.stats().sent_of_kind("counted"), 1);
        assert_eq!(n.stats().delivered_of_kind("counted"), 1);
    }

    #[test]
    fn link_latency_override_applies_to_that_link_only() {
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
            .with_link_latency(
                NodeId::new(0),
                NodeId::new(1),
                LatencyModel::Constant(SimTime::from_millis(5)),
            );
        let mut n: SimNet<&'static str> = SimNet::new(config, 3);
        n.send(NodeId::new(0), NodeId::new(1), "wan");
        n.send(NodeId::new(0), NodeId::new(2), "lan");
        n.send(NodeId::new(1), NodeId::new(0), "reverse-lan");
        let delivered = n.drain();
        let at = |payload: &str| delivered.iter().find(|d| d.payload == payload).unwrap().at;
        assert_eq!(at("wan"), SimTime::from_millis(5));
        assert_eq!(at("lan"), SimTime::from_micros(100));
        // The override is directional.
        assert_eq!(at("reverse-lan"), SimTime::from_micros(100));
    }

    #[test]
    fn slowdown_window_stretches_latency() {
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
            .with_faults(FaultPlan::none().with_slowdown(
                5,
                SimTime::ZERO,
                SimTime::from_micros(50),
            ));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        // Sent at t=0, inside the window: 5 × 100µs.
        n.send(NodeId::new(0), NodeId::new(1), "slow");
        let d = n.next_delivery().unwrap();
        assert_eq!(d.at, SimTime::from_micros(500));
        // Sent at t=500, after the window: normal latency.
        n.send(NodeId::new(0), NodeId::new(1), "fast");
        let d = n.next_delivery().unwrap();
        assert_eq!(d.at, SimTime::from_micros(600));
    }

    /// The FIFO clamp keeps a clock per channel only where a link's
    /// latency can fall between two sends.
    #[test]
    fn channel_clocks_only_where_a_links_latency_can_fall() {
        let us = SimTime::from_micros;
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let jitter = LatencyModel::Uniform {
            min: us(1),
            max: us(300),
        };
        let clocks = |config: NetConfig| {
            let mut n: SimNet<&'static str> = SimNet::new(config, 3);
            n.send(a, b, "x");
            n.send(b, c, "y");
            n.send(a, b, "z");
            n.channel_clock.map(|clock| clock.len())
        };
        // Constant latency and no slowdown: a send leaves no clock,
        // whatever else defers a delivery.
        assert_eq!(clocks(NetConfig::default()), None);
        let deferring = FaultPlan::none()
            .with_healing_partition([a], us(0), us(900))
            .with_clock_freeze(b, us(50), us(700))
            .with_reorder_window(0.5, us(400));
        let constant_links = NetConfig::default()
            .with_link_latency(a, b, LatencyModel::Constant(us(5_000)))
            .with_faults(deferring);
        assert_eq!(clocks(constant_links), None);
        assert_eq!(
            clocks(NetConfig::default().with_latency(jitter).with_fifo(false)),
            None
        );
        // Jitter on the default model or on one link, or a slowdown
        // window: one clock per channel used.
        assert_eq!(clocks(NetConfig::default().with_latency(jitter)), Some(2));
        assert_eq!(
            clocks(NetConfig::default().with_link_latency(c, a, jitter)),
            Some(2)
        );
        let slowdown = FaultPlan::none().with_slowdown(3, us(0), us(100));
        assert_eq!(clocks(NetConfig::default().with_faults(slowdown)), Some(2));
    }

    #[test]
    fn partition_drops_cross_group_sends_in_window() {
        let config = NetConfig::default()
            .with_latency(LatencyModel::zero())
            .with_faults(FaultPlan::none().with_partition(
                [NodeId::new(0)],
                SimTime::ZERO,
                SimTime::from_micros(100),
            ));
        let mut n: SimNet<&'static str> = SimNet::new(config, 3);
        n.send(NodeId::new(0), NodeId::new(1), "cut");
        n.send(NodeId::new(1), NodeId::new(2), "same-side");
        assert_eq!(n.stats().dropped_of_kind("cut"), 1);
        assert_eq!(n.stats().fault_of_kind(FaultEvent::Partitioned.label()), 1);
        let delivered: Vec<_> = std::iter::from_fn(|| n.next_delivery())
            .map(|d| d.payload)
            .collect();
        assert_eq!(delivered, vec!["same-side"]);
        // After the window heals, the link works again.
        n.schedule_local(SimTime::from_micros(200), NodeId::new(0), "tick");
        n.next_delivery().unwrap();
        n.send(NodeId::new(0), NodeId::new(1), "healed");
        assert_eq!(n.next_delivery().unwrap().payload, "healed");
    }

    #[test]
    fn self_send_is_delivered() {
        let mut n = net(LatencyModel::zero(), 0);
        n.send(NodeId::new(1), NodeId::new(1), "loop");
        let d = n.next_delivery().unwrap();
        assert_eq!(d.to, NodeId::new(1));
        assert_eq!(d.source, DeliverySource::Remote(NodeId::new(1)));
    }

    #[test]
    fn reorder_window_can_invert_fifo_order() {
        // p = 1: every message escapes the clamp. With jittery latency a
        // later send can overtake an earlier one — impossible under the
        // default FIFO regime (see `delivers_in_time_order`).
        let config = NetConfig::default()
            .with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(10),
                max: SimTime::from_micros(500),
            })
            .with_seed(7)
            .with_faults(FaultPlan::none().with_reorder_window(1.0, SimTime::from_micros(2_000)));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let labels = ["m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"];
        for l in labels {
            n.send(a, b, l);
        }
        let got: Vec<_> = n.drain().into_iter().map(|d| d.payload).collect();
        assert_eq!(got.len(), labels.len(), "reordering never loses messages");
        assert_ne!(got, labels.to_vec(), "at least one inversion occurred");
        assert_eq!(n.stats().fault_of_kind("reordered"), labels.len() as u64);
    }

    #[test]
    fn clock_freeze_defers_deliveries_to_window_end() {
        let frozen = NodeId::new(1);
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(10)))
            .with_faults(FaultPlan::none().with_clock_freeze(
                frozen,
                SimTime::ZERO,
                SimTime::from_micros(300),
            ));
        let mut n: SimNet<&'static str> = SimNet::new(config, 3);
        n.send(NodeId::new(0), frozen, "stalled");
        n.send(NodeId::new(0), NodeId::new(2), "prompt");
        let first = n.next_delivery().unwrap();
        assert_eq!(first.payload, "prompt");
        assert_eq!(first.at, SimTime::from_micros(10));
        let second = n.next_delivery().unwrap();
        assert_eq!(second.payload, "stalled");
        assert_eq!(second.at, SimTime::from_micros(300));
        assert_eq!(n.stats().fault_of_kind("clock_frozen"), 1);
    }

    #[test]
    fn restart_loses_downtime_messages_then_resumes() {
        let victim = NodeId::new(1);
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(10)))
            .with_faults(FaultPlan::none().with_restart(
                victim,
                SimTime::from_micros(5),
                SimTime::from_micros(100),
            ));
        let mut n: SimNet<&'static str> = SimNet::new(config, 2);
        // Lands at t=10, inside the down-window: lost.
        n.send(NodeId::new(0), victim, "lost");
        assert!(n.next_delivery().is_none());
        assert_eq!(n.stats().fault_of_kind("destination_crashed"), 1);
        // The node itself cannot send while down.
        n.schedule_local(SimTime::from_micros(50), NodeId::new(0), "tick");
        n.next_delivery().unwrap();
        n.send(victim, NodeId::new(0), "from-zombie");
        assert_eq!(n.stats().fault_of_kind("source_crashed"), 1);
        // After up_at the node receives again and the resume is noted.
        n.schedule_local(SimTime::from_micros(200), NodeId::new(0), "tock");
        n.next_delivery().unwrap();
        n.send(NodeId::new(0), victim, "back");
        let d = n.next_delivery().unwrap();
        assert_eq!(d.payload, "back");
        assert!(!n.is_crashed(victim));
        assert_eq!(n.stats().fault_of_kind("restarted"), 1);
    }

    // The event queue: in-order remote entries wait in the lane, the
    // rest on the heap; the delivery order is the heap's alone.

    fn deliveries(n: &mut SimNet<&'static str>) -> Vec<(u64, &'static str)> {
        let drained = n.drain().into_iter();
        drained.map(|d| (d.at.as_micros(), d.payload)).collect()
    }

    #[test]
    fn sends_behind_one_a_freeze_deferred_are_delivered_first_when_due_first() {
        let frozen = NodeId::new(1);
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(10)))
            .with_faults(FaultPlan::none().with_clock_freeze(
                frozen,
                SimTime::ZERO,
                SimTime::from_micros(300),
            ));
        let mut n: SimNet<&'static str> = SimNet::new(config, 4);
        // Deferred to t=300 and first into the empty lane; what follows
        // is due at t=10 and has to pass it on the heap.
        n.send(NodeId::new(0), frozen, "stalled");
        n.send(NodeId::new(0), NodeId::new(2), "a");
        n.send(NodeId::new(2), NodeId::new(3), "b");
        assert_eq!(n.next_delivery().unwrap().payload, "a");
        // Sent at t=10, due at t=20: still before the lane's only entry.
        n.send(NodeId::new(2), NodeId::new(0), "c");
        n.schedule_local(SimTime::from_micros(290), NodeId::new(3), "tick");
        let early: Vec<_> = (0..3).map(|_| n.next_delivery().unwrap().payload).collect();
        assert_eq!(early, vec!["b", "c", "tick"]);
        // Sent at t=290, due at t=300 like "stalled": behind it.
        n.send(NodeId::new(3), frozen, "behind");
        assert_eq!(deliveries(&mut n), vec![(300, "stalled"), (300, "behind")]);
        assert_eq!(n.stats().fault_of_kind("clock_frozen"), 1);
    }

    #[test]
    fn sends_behind_one_a_healing_partition_deferred_are_delivered_first_when_due_first() {
        let config = NetConfig::default()
            .with_latency(LatencyModel::Constant(SimTime::from_micros(10)))
            .with_faults(FaultPlan::none().with_healing_partition(
                [NodeId::new(0)],
                SimTime::ZERO,
                SimTime::from_micros(500),
            ));
        let mut n: SimNet<&'static str> = SimNet::new(config, 3);
        n.send(NodeId::new(0), NodeId::new(1), "buffered-1");
        n.send(NodeId::new(1), NodeId::new(2), "same-side-1");
        n.send(NodeId::new(0), NodeId::new(2), "buffered-2");
        n.send(NodeId::new(2), NodeId::new(1), "same-side-2");
        assert_eq!(n.in_flight(), 4);
        assert_eq!(
            deliveries(&mut n),
            vec![
                (10, "same-side-1"),
                (10, "same-side-2"),
                (500, "buffered-1"),
                (500, "buffered-2"),
            ]
        );
        assert_eq!(n.stats().fault_of_kind("partition_healed"), 2);
    }

    #[test]
    fn a_local_event_due_between_two_lane_entries_is_delivered_between_them() {
        let mut n = net(LatencyModel::Constant(SimTime::from_micros(10)), 0);
        n.send(NodeId::new(0), NodeId::new(1), "first"); // t=10
        n.schedule_local(SimTime::from_micros(5), NodeId::new(0), "advance");
        assert_eq!(n.next_delivery().unwrap().payload, "advance");
        // Equal times fall back on the sequence number, whichever
        // structure holds the entry.
        n.schedule_local(SimTime::from_micros(15), NodeId::new(2), "tie-before");
        n.send(NodeId::new(0), NodeId::new(1), "second"); // t=15
        n.schedule_local(SimTime::from_micros(12), NodeId::new(2), "between");
        n.schedule_local(SimTime::from_micros(15), NodeId::new(2), "tie-after");
        assert_eq!(
            deliveries(&mut n),
            vec![
                (10, "first"),
                (12, "between"),
                (15, "tie-before"),
                (15, "second"),
                (15, "tie-after"),
            ]
        );
    }

    #[test]
    fn in_flight_counts_the_lane_and_the_heap() {
        let mut n = net(LatencyModel::Constant(SimTime::from_micros(10)), 0);
        n.send(NodeId::new(0), NodeId::new(1), "lane-1");
        n.send(NodeId::new(1), NodeId::new(2), "lane-2");
        n.schedule_local(SimTime::from_micros(50), NodeId::new(3), "heap-1");
        n.schedule_local(SimTime::from_micros(60), NodeId::new(3), "heap-2");
        assert_eq!(n.in_flight(), 4);
        assert_eq!(n.stats().max_in_flight(), 4);
        n.next_delivery().unwrap();
        n.next_delivery().unwrap();
        // Only the heap holds anything now ...
        assert_eq!(n.in_flight(), 2);
        assert!(!n.is_quiescent());
        n.next_delivery().unwrap();
        n.send(NodeId::new(3), NodeId::new(0), "lane-3"); // t=60
        n.next_delivery().unwrap();
        // ... and now only the lane.
        assert_eq!(n.in_flight(), 1);
        assert!(!n.is_quiescent());
        n.next_delivery().unwrap();
        assert!(n.is_quiescent());
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.stats().max_in_flight(), 4);
    }

    /// §4.3 Example 1 (`caex::workloads::example1`, N = 3, two raisers,
    /// ten messages) as the calls its host makes, recorded from the
    /// single-heap queue: every delivery, the count in flight after it
    /// and the high-water mark are that queue's. The fleet-sized pins of
    /// the same counter are `crates/caex/tests/fixtures/fleet64.txt`
    /// (96) and `tests/fixtures/example2_counters.txt` (22).
    #[test]
    fn example_1_replayed_reads_the_single_heaps_in_flight_counts() {
        enum Call {
            Local(u64, u32, &'static str),
            Send(u32, u32, &'static str),
            /// Time, receiver, payload, in flight afterwards.
            Deliver(u64, u32, &'static str, usize),
        }
        use Call::{Deliver, Local, Send};
        let calls = [
            Local(0, 1, "enter"),
            Local(0, 2, "enter"),
            Local(0, 3, "enter"),
            Local(10, 1, "raise"),
            Local(10, 2, "raise"),
            Deliver(0, 1, "enter", 4),
            Deliver(0, 2, "enter", 3),
            Deliver(0, 3, "enter", 2),
            Deliver(10, 1, "raise", 1),
            Send(1, 2, "exception"),
            Send(1, 3, "exception"),
            Deliver(10, 2, "raise", 2),
            Send(2, 1, "exception"),
            Send(2, 3, "exception"),
            Deliver(110, 2, "exception", 3),
            Send(2, 1, "ack"),
            Deliver(110, 3, "exception", 3),
            Send(3, 1, "ack"),
            Deliver(110, 1, "exception", 3),
            Send(1, 2, "ack"),
            Deliver(110, 3, "exception", 3),
            Send(3, 2, "ack"),
            Deliver(210, 1, "ack", 3),
            Deliver(210, 1, "ack", 2),
            Deliver(210, 2, "ack", 1),
            Deliver(210, 2, "ack", 0),
            Send(2, 1, "commit"),
            Send(2, 3, "commit"),
            Local(210, 2, "handler_done"),
            Deliver(210, 2, "handler_done", 2),
            Deliver(310, 1, "commit", 1),
            Local(310, 1, "handler_done"),
            Deliver(310, 3, "commit", 1),
            Local(310, 3, "handler_done"),
            Deliver(310, 1, "handler_done", 1),
            Deliver(310, 3, "handler_done", 0),
        ];
        let mut n: SimNet<&'static str> = SimNet::new(NetConfig::default(), 4);
        for call in calls {
            match call {
                Local(at, node, payload) => {
                    n.schedule_local(SimTime::from_micros(at), NodeId::new(node), payload);
                }
                Send(from, to, payload) => n.send(NodeId::new(from), NodeId::new(to), payload),
                Deliver(at, to, payload, in_flight) => {
                    let d = n.next_delivery().unwrap();
                    assert_eq!(
                        (d.at.as_micros(), d.to.index(), d.payload),
                        (at, to, payload)
                    );
                    assert_eq!(n.in_flight(), in_flight);
                }
            }
        }
        assert!(n.is_quiescent());
        assert_eq!(n.stats().max_in_flight(), 5);
        assert_eq!(n.stats().sent_total(), 10);
    }
}
