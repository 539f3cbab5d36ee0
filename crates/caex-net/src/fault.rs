//! Fault injection for robustness experiments.
//!
//! The paper's fault model (§2) admits node crashes and transient
//! errors of nodes or the network. The resolution algorithm itself
//! assumes reliable FIFO channels, so faults are **off by default**; the
//! robustness tests and the fault-injection example turn them on to
//! observe how the protocol degrades (e.g. quiescence without commit
//! when a raiser's messages are lost).

use crate::{NodeId, SimTime};

/// A fault the plan injected into a concrete message or node, counted
/// per kind in [`NetStats`](crate::NetStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultEvent {
    /// The message was silently dropped.
    Dropped,
    /// The message was delivered twice.
    Duplicated,
    /// The destination node had crashed; delivery suppressed.
    DestinationCrashed,
    /// The source node had crashed; send suppressed.
    SourceCrashed,
    /// The message crossed an active partition boundary; dropped.
    Partitioned,
    /// The message crossed a *healing* partition boundary; deferred to
    /// the heal time instead of dropped (TCP-style retransmission).
    PartitionHealed,
    /// The message escaped the channel's FIFO clamp and overtook (or
    /// fell behind) its predecessors within a bounded window.
    Reordered,
    /// Delivery landed inside the destination's clock-freeze window and
    /// was deferred to the window's end.
    ClockFrozen,
    /// First delivery to a node after it came back from a
    /// crash-with-restart down-window.
    Restarted,
}

impl FaultEvent {
    /// Stable lower-case label for per-kind fault accounting (see
    /// [`NetStats::fault_of_kind`](crate::NetStats::fault_of_kind)).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultEvent::Dropped => "dropped",
            FaultEvent::Duplicated => "duplicated",
            FaultEvent::DestinationCrashed => "destination_crashed",
            FaultEvent::SourceCrashed => "source_crashed",
            FaultEvent::Partitioned => "partitioned",
            FaultEvent::PartitionHealed => "partition_healed",
            FaultEvent::Reordered => "reordered",
            FaultEvent::ClockFrozen => "clock_frozen",
            FaultEvent::Restarted => "restarted",
        }
    }
}

/// Declarative fault plan applied by [`SimNet`](crate::SimNet).
///
/// # Examples
///
/// ```
/// use caex_net::{FaultPlan, NodeId, SimTime};
///
/// let plan = FaultPlan::none()
///     .with_drop_probability(0.05)
///     .with_crash(NodeId::new(2), SimTime::from_millis(10));
/// assert!(plan.crashes_at(NodeId::new(2)).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    drop_probability: f64,
    duplicate_probability: f64,
    crashes: Vec<(NodeId, SimTime)>,
    partitions: Vec<Partition>,
    healing_partitions: Vec<Partition>,
    slowdowns: Vec<Slowdown>,
    reorder_probability: f64,
    reorder_window: SimTime,
    freezes: Vec<Freeze>,
    restarts: Vec<Restart>,
}

/// A per-node clock freeze: deliveries *to* the node that would land
/// inside the window are deferred to its end, as if the process were
/// SIGSTOP-ped and resumed — it then sees a burst of stale traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Freeze {
    node: NodeId,
    from: SimTime,
    until: SimTime,
}

/// A crash-with-restart: the node is down (neither sending nor
/// receiving; deliveries landing in the window are lost) during
/// `[down_from, up_at)` and resumes afterwards with whatever state it
/// had — the simulator's "zombie" returning after the failure detector
/// already reported it dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Restart {
    node: NodeId,
    down_from: SimTime,
    up_at: SimTime,
}

/// A transient network degradation: latencies are multiplied while the
/// window is active (congestion, rerouting — the paper's "transient
/// errors … of the communication network", §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slowdown {
    factor: u32,
    from: SimTime,
    until: SimTime,
}

/// A transient network partition: messages between `group` and the
/// rest of the network are dropped while the window is active.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Partition {
    group: Vec<NodeId>,
    from: SimTime,
    until: SimTime,
}

impl Partition {
    /// `true` if a `src → dst` message at time `at` crosses this
    /// partition while it is active.
    #[must_use]
    pub(crate) fn severs(&self, src: NodeId, dst: NodeId, at: SimTime) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        self.group.contains(&src) != self.group.contains(&dst)
    }
}

impl FaultPlan {
    /// A plan that injects no faults (the algorithm's assumed regime).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            crashes: Vec::new(),
            partitions: Vec::new(),
            healing_partitions: Vec::new(),
            slowdowns: Vec::new(),
            reorder_probability: 0.0,
            reorder_window: SimTime::ZERO,
            freezes: Vec::new(),
            restarts: Vec::new(),
        }
    }

    /// Sets the probability that any message is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }

    /// Sets the probability that any message is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
        self
    }

    /// Schedules a crash-stop failure of `node` at virtual time `at`.
    /// From that moment the node neither sends nor receives.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push((node, at));
        self
    }

    /// Returns the probability of dropping each message.
    #[must_use]
    pub(crate) fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Returns the probability of duplicating each message.
    #[must_use]
    pub(crate) fn duplicate_probability(&self) -> f64 {
        self.duplicate_probability
    }

    /// Adds a transient partition: messages between `group` and the
    /// rest of the network are dropped during `[from, until)`.
    #[must_use]
    pub fn with_partition<I>(mut self, group: I, from: SimTime, until: SimTime) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.partitions.push(Partition {
            group: group.into_iter().collect(),
            from,
            until,
        });
        self
    }

    /// `true` if a `src → dst` message at time `at` crosses any active
    /// partition.
    #[must_use]
    pub(crate) fn is_partitioned(&self, src: NodeId, dst: NodeId, at: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, at))
    }

    /// Adds a *healing* partition: messages between `group` and the
    /// rest of the network sent during `[from, until)` are **deferred**
    /// to the heal time `until` instead of dropped — the transport's
    /// retransmission (TCP buffering across a SIGSTOP, the wire mesh's
    /// redial-and-replay) eventually pushes them through. This is the
    /// in-sim model of a transient partition that a phi-accrual
    /// detector should suspect but never confirm.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_net::{FaultPlan, NodeId, SimTime};
    ///
    /// let plan = FaultPlan::none().with_healing_partition(
    ///     [NodeId::new(0)],
    ///     SimTime::from_millis(1),
    ///     SimTime::from_millis(5),
    /// );
    /// let inside = SimTime::from_millis(2);
    /// assert_eq!(
    ///     plan.heal_deferral(NodeId::new(0), NodeId::new(1), inside),
    ///     Some(SimTime::from_millis(5))
    /// );
    /// assert_eq!(plan.heal_deferral(NodeId::new(1), NodeId::new(2), inside), None);
    /// assert!(!plan.is_benign());
    /// ```
    #[must_use]
    pub fn with_healing_partition<I>(mut self, group: I, from: SimTime, until: SimTime) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.healing_partitions.push(Partition {
            group: group.into_iter().collect(),
            from,
            until,
        });
        self
    }

    /// If a `src → dst` send at time `at` crosses a healing partition,
    /// returns the time delivery is deferred to (the latest heal over
    /// all covering windows).
    #[must_use]
    pub fn heal_deferral(&self, src: NodeId, dst: NodeId, at: SimTime) -> Option<SimTime> {
        self.healing_partitions
            .iter()
            .filter(|p| p.severs(src, dst, at))
            .map(|p| p.until)
            .max()
    }

    /// Adds a transient slowdown: message latencies sampled during
    /// `[from, until)` are multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn with_slowdown(mut self, factor: u32, from: SimTime, until: SimTime) -> Self {
        assert!(factor >= 1, "slowdown factor must be at least 1");
        self.slowdowns.push(Slowdown {
            factor,
            from,
            until,
        });
        self
    }

    /// The combined latency multiplier active at time `at` (1 when no
    /// slowdown window covers it).
    #[must_use]
    pub(crate) fn slowdown_at(&self, at: SimTime) -> u64 {
        self.slowdowns
            .iter()
            .filter(|s| at >= s.from && at < s.until)
            .map(|s| u64::from(s.factor))
            .product::<u64>()
            .max(1)
    }

    /// Returns when `node` crashes, if it is scheduled to.
    #[must_use]
    pub fn crashes_at(&self, node: NodeId) -> Option<SimTime> {
        self.crashes
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, t)| t)
    }

    /// Iterates every scheduled crash-stop failure as `(node, at)`.
    /// Engines use this to drive their failure detector: each survivor
    /// learns of the deserter some detection delay after `at`.
    pub fn crashes(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.crashes.iter().copied()
    }

    /// Enables bounded message reordering: each message escapes its
    /// channel's FIFO clamp with probability `p` and is instead delayed
    /// by up to `window` beyond its sampled latency. The §4.2 algorithm
    /// assumes FIFO channels, so this fault exercises exactly the
    /// assumption the paper makes (§2.1).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_net::{FaultPlan, SimTime};
    ///
    /// let plan = FaultPlan::none().with_reorder_window(0.3, SimTime::from_micros(500));
    /// assert_eq!(plan.reorder_probability(), 0.3);
    /// assert_eq!(plan.reorder_window(), SimTime::from_micros(500));
    /// assert!(!plan.is_benign());
    /// ```
    #[must_use]
    pub fn with_reorder_window(mut self, p: f64, window: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.reorder_probability = p;
        self.reorder_window = window;
        self
    }

    /// Returns the probability that a message escapes FIFO ordering.
    #[must_use]
    pub fn reorder_probability(&self) -> f64 {
        self.reorder_probability
    }

    /// Returns the bound on the extra delay a reordered message gains.
    #[must_use]
    pub fn reorder_window(&self) -> SimTime {
        self.reorder_window
    }

    /// Freezes `node`'s clock during `[from, until)`: deliveries that
    /// would land inside the window are deferred to `until`, modelling a
    /// SIGSTOP-ped process that resumes and replays a burst of stale
    /// traffic (the in-sim analogue of `--crash-mode stop`).
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_net::{FaultPlan, NodeId, SimTime};
    ///
    /// let plan = FaultPlan::none().with_clock_freeze(
    ///     NodeId::new(1),
    ///     SimTime::from_micros(10),
    ///     SimTime::from_micros(40),
    /// );
    /// let n = NodeId::new(1);
    /// assert_eq!(
    ///     plan.freeze_deferral(n, SimTime::from_micros(20)),
    ///     Some(SimTime::from_micros(40))
    /// );
    /// assert_eq!(plan.freeze_deferral(n, SimTime::from_micros(40)), None);
    /// assert_eq!(plan.freeze_deferral(NodeId::new(2), SimTime::from_micros(20)), None);
    /// ```
    #[must_use]
    pub fn with_clock_freeze(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.freezes.push(Freeze { node, from, until });
        self
    }

    /// If a delivery to `node` at time `at` lands inside a clock-freeze
    /// window, returns the time it is deferred to (the latest end over
    /// all covering windows).
    #[must_use]
    pub fn freeze_deferral(&self, node: NodeId, at: SimTime) -> Option<SimTime> {
        self.freezes
            .iter()
            .filter(|fr| fr.node == node && at >= fr.from && at < fr.until)
            .map(|fr| fr.until)
            .max()
    }

    /// Schedules a crash-with-restart: `node` is down during
    /// `[down_from, up_at)` — it neither sends nor receives, and
    /// deliveries landing in the window are lost — then resumes with
    /// its pre-crash state. Survivors whose failure detector fired in
    /// the meantime must fence the returning zombie's stale messages.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`up_at <= down_from`).
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_net::{FaultPlan, NodeId, SimTime};
    ///
    /// let plan = FaultPlan::none().with_restart(
    ///     NodeId::new(3),
    ///     SimTime::from_millis(1),
    ///     SimTime::from_millis(5),
    /// );
    /// let n = NodeId::new(3);
    /// assert!(plan.is_down(n, SimTime::from_millis(2)));
    /// assert!(!plan.is_down(n, SimTime::from_millis(5)));
    /// assert!(!plan.is_down(n, SimTime::ZERO));
    /// assert!(!plan.is_benign());
    /// ```
    #[must_use]
    pub fn with_restart(mut self, node: NodeId, down_from: SimTime, up_at: SimTime) -> Self {
        assert!(up_at > down_from, "restart window must be non-empty");
        self.restarts.push(Restart {
            node,
            down_from,
            up_at,
        });
        self
    }

    /// `true` if `node` is inside a crash-with-restart down-window at
    /// time `at`.
    #[must_use]
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.restarts
            .iter()
            .any(|r| r.node == node && at >= r.down_from && at < r.up_at)
    }

    /// Iterates every crash-with-restart as `(node, down_from, up_at)`.
    pub fn restarts(&self) -> impl Iterator<Item = (NodeId, SimTime, SimTime)> + '_ {
        self.restarts.iter().map(|r| (r.node, r.down_from, r.up_at))
    }

    /// `true` if the plan can never perturb an execution.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.healing_partitions.is_empty()
            && self.slowdowns.is_empty()
            && self.reorder_probability == 0.0
            && self.freezes.is_empty()
            && self.restarts.is_empty()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healing_partition_defers_instead_of_dropping() {
        let plan = FaultPlan::none().with_healing_partition(
            [NodeId::new(0), NodeId::new(1)],
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        let inside = SimTime::from_micros(15);
        // Crossing sends are deferred to the heal time, not severed.
        assert!(!plan.is_partitioned(NodeId::new(0), NodeId::new(2), inside));
        assert_eq!(
            plan.heal_deferral(NodeId::new(0), NodeId::new(2), inside),
            Some(SimTime::from_micros(20))
        );
        assert_eq!(
            plan.heal_deferral(NodeId::new(2), NodeId::new(1), inside),
            Some(SimTime::from_micros(20))
        );
        // Same-side and out-of-window sends are untouched.
        assert_eq!(plan.heal_deferral(NodeId::new(0), NodeId::new(1), inside), None);
        assert_eq!(
            plan.heal_deferral(NodeId::new(0), NodeId::new(2), SimTime::from_micros(20)),
            None
        );
        assert!(!plan.is_benign());
    }

    #[test]
    fn none_is_benign() {
        assert!(FaultPlan::none().is_benign());
        assert!(FaultPlan::default().is_benign());
    }

    #[test]
    fn builders_set_fields() {
        let plan = FaultPlan::none()
            .with_drop_probability(0.25)
            .with_duplicate_probability(0.5)
            .with_crash(NodeId::new(1), SimTime::from_micros(9));
        assert_eq!(plan.drop_probability(), 0.25);
        assert_eq!(plan.duplicate_probability(), 0.5);
        assert_eq!(
            plan.crashes_at(NodeId::new(1)),
            Some(SimTime::from_micros(9))
        );
        assert_eq!(plan.crashes_at(NodeId::new(2)), None);
        assert!(!plan.is_benign());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::none().with_drop_probability(1.5);
    }

    #[test]
    fn slowdowns_multiply_within_windows_only() {
        let plan = FaultPlan::none()
            .with_slowdown(3, SimTime::from_micros(10), SimTime::from_micros(20))
            .with_slowdown(2, SimTime::from_micros(15), SimTime::from_micros(30));
        assert_eq!(plan.slowdown_at(SimTime::from_micros(5)), 1);
        assert_eq!(plan.slowdown_at(SimTime::from_micros(12)), 3);
        assert_eq!(plan.slowdown_at(SimTime::from_micros(17)), 6); // overlap
        assert_eq!(plan.slowdown_at(SimTime::from_micros(25)), 2);
        assert_eq!(plan.slowdown_at(SimTime::from_micros(30)), 1);
        assert!(!plan.is_benign());
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn zero_slowdown_rejected() {
        let _ = FaultPlan::none().with_slowdown(0, SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    fn reorder_window_sets_probability_and_bound() {
        let plan = FaultPlan::none().with_reorder_window(0.5, SimTime::from_micros(250));
        assert_eq!(plan.reorder_probability(), 0.5);
        assert_eq!(plan.reorder_window(), SimTime::from_micros(250));
        assert!(!plan.is_benign());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn reorder_rejects_bad_probability() {
        let _ = FaultPlan::none().with_reorder_window(-0.1, SimTime::ZERO);
    }

    #[test]
    fn clock_freeze_defers_to_latest_covering_window() {
        let n = NodeId::new(4);
        let plan = FaultPlan::none()
            .with_clock_freeze(n, SimTime::from_micros(10), SimTime::from_micros(30))
            .with_clock_freeze(n, SimTime::from_micros(20), SimTime::from_micros(50));
        assert_eq!(
            plan.freeze_deferral(n, SimTime::from_micros(15)),
            Some(SimTime::from_micros(30))
        );
        // Overlap: the later window wins.
        assert_eq!(
            plan.freeze_deferral(n, SimTime::from_micros(25)),
            Some(SimTime::from_micros(50))
        );
        assert_eq!(plan.freeze_deferral(n, SimTime::from_micros(50)), None);
        assert_eq!(plan.freeze_deferral(NodeId::new(5), SimTime::from_micros(15)), None);
        assert!(!plan.is_benign());
    }

    #[test]
    fn restart_down_window_is_half_open() {
        let n = NodeId::new(2);
        let plan =
            FaultPlan::none().with_restart(n, SimTime::from_micros(100), SimTime::from_micros(300));
        assert!(!plan.is_down(n, SimTime::from_micros(99)));
        assert!(plan.is_down(n, SimTime::from_micros(100)));
        assert!(plan.is_down(n, SimTime::from_micros(299)));
        assert!(!plan.is_down(n, SimTime::from_micros(300)));
        assert_eq!(
            plan.restarts().collect::<Vec<_>>(),
            vec![(n, SimTime::from_micros(100), SimTime::from_micros(300))]
        );
        assert!(!plan.is_benign());
    }

    #[test]
    #[should_panic(expected = "restart window must be non-empty")]
    fn empty_restart_window_rejected() {
        let _ = FaultPlan::none().with_restart(NodeId::new(0), SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    fn crashes_iterator_exposes_schedule() {
        let plan = FaultPlan::none()
            .with_crash(NodeId::new(1), SimTime::from_micros(5))
            .with_crash(NodeId::new(3), SimTime::from_micros(9));
        assert_eq!(
            plan.crashes().collect::<Vec<_>>(),
            vec![
                (NodeId::new(1), SimTime::from_micros(5)),
                (NodeId::new(3), SimTime::from_micros(9)),
            ]
        );
    }

    #[test]
    fn fault_event_labels_are_stable() {
        assert_eq!(FaultEvent::Dropped.label(), "dropped");
        assert_eq!(FaultEvent::Reordered.label(), "reordered");
        assert_eq!(FaultEvent::ClockFrozen.label(), "clock_frozen");
        assert_eq!(FaultEvent::Restarted.label(), "restarted");
    }

    #[test]
    fn partition_severs_only_across_groups_in_window() {
        let plan = FaultPlan::none().with_partition(
            [NodeId::new(0), NodeId::new(1)],
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        let inside = SimTime::from_micros(15);
        // Across the boundary, inside the window.
        assert!(plan.is_partitioned(NodeId::new(0), NodeId::new(2), inside));
        assert!(plan.is_partitioned(NodeId::new(2), NodeId::new(1), inside));
        // Same side: fine.
        assert!(!plan.is_partitioned(NodeId::new(0), NodeId::new(1), inside));
        assert!(!plan.is_partitioned(NodeId::new(2), NodeId::new(3), inside));
        // Outside the window: fine.
        assert!(!plan.is_partitioned(NodeId::new(0), NodeId::new(2), SimTime::from_micros(9)));
        assert!(!plan.is_partitioned(NodeId::new(0), NodeId::new(2), SimTime::from_micros(20)));
        assert!(!plan.is_benign());
    }
}
