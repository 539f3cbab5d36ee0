//! The participant state machine — a direct transcription of the
//! resolution algorithm of §4.2.
//!
//! A [`Participant`] is a *pure* state machine: it consumes [`Event`]s
//! (protocol messages or local scenario steps) and emits [`Effect`]s
//! (messages to send, continuations to schedule, report notes). It never
//! touches a network itself, which makes every clause of the algorithm
//! unit-testable and lets the same machine run on the discrete-event
//! simulator or on real threads.
//!
//! State names follow the paper: `N` (normal, represented by the absence
//! of a resolution context), `X` (exceptional), `S` (suspended) and `R`
//! (ready), with the lists `LE`, `LO`, `LP` and the context stack `SA`.
//! Everything else it knows about an action is one [`ActionRec`] per
//! action, with the extensions' share in a [`Recovery`] sub-record.

use crate::{Effect, Event, LeaveMode, Msg, NestedStrategy, Note};
use caex_action::{AbortionOutcome, ActionId, ActionRegistry, HandlerOutcome, HandlerTable};
use caex_net::{IdSet, NodeId, SimTime};
use caex_tree::Exception;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The paper's participant states (the `N` state is represented by the
/// participant having no active resolution context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PState {
    /// `X`: an exception was raised in this object (or signalled by its
    /// abortion handlers).
    Exceptional,
    /// `S`: the object learnt of exceptions elsewhere and suspended.
    Suspended,
    /// `R`: exceptional and all acknowledgements/abortions are in.
    Ready,
}

/// One in-progress resolution at this participant.
#[derive(Debug, Clone)]
struct Resolution {
    /// The action the resolution runs in (the paper's `A`).
    action: ActionId,
    state: PState,
    /// `LE`: raised exceptions known here, as (raiser, occurrence).
    le: Vec<(NodeId, Exception)>,
    /// Exceptions raised by peers that have since deserted. They no
    /// longer vote in the resolver election (a dead max-raiser can
    /// never commit), but they stay in the *resolved* set: the
    /// re-elected resolver resolves the full gossiped raised set, so
    /// its decision agrees with any commit the dead resolver managed to
    /// deliver before crashing.
    ghost_le: Vec<(NodeId, Exception)>,
    /// `LO`: objects aborting nested actions, and whether their
    /// `NestedCompleted` has arrived; sorted by object (a handful of
    /// entries: a sorted `Vec`, which hashes as the ordered map did).
    lo: Vec<(NodeId, bool)>,
    /// Complement of `LP`: peers whose ACK for our own broadcast is
    /// still outstanding; sorted, no duplicates.
    pending_acks: Vec<NodeId>,
    /// Abortion of our nested actions is still executing.
    aborting: bool,
    /// ACKs owed for messages received while aborting; sent after our
    /// `NestedCompleted` (Example 2's narration order; FIFO per channel
    /// keeps the protocol correct either way).
    deferred_acks: Vec<NodeId>,
    /// Report-only: the deserted resolver this resolution lost, if the
    /// failure detector pruned the max raiser mid-resolution. Read when
    /// the re-run election elects a survivor (it then notes
    /// [`Note::ResolverReelected`]); never consulted by the protocol.
    lost_resolver: Option<NodeId>,
}

impl Resolution {
    fn new(action: ActionId, state: PState) -> Self {
        Resolution {
            action,
            state,
            le: Vec::new(),
            ghost_le: Vec::new(),
            lo: Vec::new(),
            pending_acks: Vec::new(),
            aborting: false,
            deferred_acks: Vec::new(),
            lost_resolver: None,
        }
    }

    /// `true` once every object in `LO` has sent its `NestedCompleted`.
    fn lo_done(&self) -> bool {
        self.lo.iter().all(|&(_, done)| done)
    }

    /// The `LO` flag of `from`, entered as not yet done if absent.
    fn lo_entry(&mut self, from: NodeId) -> &mut bool {
        let at = match self.lo.binary_search_by_key(&from, |&(object, _)| object) {
            Ok(at) => at,
            Err(at) => {
                self.lo.insert(at, (from, false));
                at
            }
        };
        &mut self.lo[at].1
    }

    /// The full raised set — live raisers' entries followed by the
    /// deserted raisers' retained ones — that resolution runs over.
    fn raised_set(&self) -> Vec<(NodeId, Exception)> {
        let mut raised = self.le.clone();
        raised.extend(self.ghost_le.iter().cloned());
        raised
    }

    /// Acknowledges `to`'s message — or, while the abortion handlers
    /// still run, owes the ACK until this object's `NestedCompleted`.
    fn ack(&mut self, me: NodeId, to: NodeId, fx: &mut Vec<Effect>) {
        if self.aborting {
            self.deferred_acks.push(to);
        } else {
            fx.push(Effect::Send {
                to,
                msg: Msg::Ack {
                    from: me,
                    action: self.action,
                },
            });
        }
    }
}

/// Where one action stands at this object. It is in `SA` exactly while
/// `Entered`, leaves `SA` only as `Completed` or `Aborted`, and is never
/// entered after either.
#[derive(Debug, Clone, Hash)]
enum Life {
    /// Not entered (yet): the messages that arrived before entry,
    /// replayed at `Enter` (belated participation, §3.3 problem 4).
    Buffered(Vec<Msg>),
    /// In `SA`, with the peers' `LeaveReady` announcements (distributed
    /// leave) and how far this object's own completion has got.
    Entered { ready: BTreeSet<NodeId>, exit: Exit },
    /// Left by the synchronised exit or completed by its handler
    /// (termination model); under [`NestedStrategy::Wait`], waited out.
    Completed,
    /// Aborted by an outer resolution, or its belated messages cleaned
    /// up by a peer's `HaveNested`.
    Aborted,
}

/// How far an entered action's own completion has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Exit {
    Open,
    /// Requested while a deeper action was still at its exit line;
    /// replayed as the nesting unwinds.
    Deferred,
    /// Distributed leave: at the exit line, `LeaveReady` announced.
    Requested,
}

/// The per-action state only the failover and forwarding extensions
/// use; the §4.2 transitions never read it.
#[derive(Debug, Clone, Default, Hash)]
struct Recovery {
    /// Suspects that may have missed the commit made here, drained by
    /// [`Participant::on_rejoin`]'s commit-forwarding round.
    missed_commits: BTreeSet<NodeId>,
    /// The orphaned resolution context was discarded
    /// (`stand_down_if_orphaned`) without learning the outcome, so a
    /// forwarded `Commit` is still accepted — the close of the p = 1
    /// partial-commit hole.
    stood_down: bool,
    /// The commit was re-broadcast once in answer to a crash-orphaned
    /// peer's probe; once per action keeps recovery traffic bounded.
    announced: bool,
}

/// Everything this object knows about one action besides `SA` and the
/// resolution context.
#[derive(Debug)]
struct ActionRec {
    /// The declared handler table; `None` *is* the recover-all default —
    /// every exception of the tree recovers at zero cost and nested
    /// aborts are clean — and nothing is built for it. Boxed so that a
    /// record without one stays small.
    handlers: Option<Box<HandlerTable>>,
    /// For [`NestedStrategy::Wait`]: the declared remaining run time;
    /// `None` never completes (e.g. a belated participant) — the
    /// Fig. 1(a) deadlock.
    remaining: Option<SimTime>,
    life: Life,
    /// The exception committed here. A commit comes before completion
    /// and may come before an abortion; a crash-orphaned peer's probe
    /// is answered from it after the action ended.
    resolved: Option<Exception>,
    recovery: Recovery,
}

impl Default for ActionRec {
    fn default() -> Self {
        ActionRec {
            handlers: None,
            remaining: Some(SimTime::ZERO),
            life: Life::Buffered(Vec::new()),
            resolved: None,
            recovery: Recovery::default(),
        }
    }
}

/// One record per action, sorted by action: a handful of entries, so
/// a binary search beats hashing, and every walk is in action order.
type Records = Vec<(ActionId, ActionRec)>;

/// Where `action`'s record is, or where it would go.
fn slot(actions: &Records, action: ActionId) -> Result<usize, usize> {
    actions.binary_search_by_key(&action, |&(a, _)| a)
}

/// `action`'s record, if this object has one.
fn lookup(actions: &Records, action: ActionId) -> Option<&ActionRec> {
    slot(actions, action).ok().map(|at| &actions[at].1)
}

/// [`lookup`], for an update.
fn lookup_mut(actions: &mut Records, action: ActionId) -> Option<&mut ActionRec> {
    slot(actions, action).ok().map(|at| &mut actions[at].1)
}

/// The record of an action this object has entered: one always exists.
fn record(actions: &mut Records, action: ActionId) -> &mut ActionRec {
    lookup_mut(actions, action).expect("an entered action has a record")
}

/// `action`'s record, a default one inserted in order if absent.
fn record_or_default(actions: &mut Records, action: ActionId) -> &mut ActionRec {
    let at = slot(actions, action).unwrap_or_else(|at| {
        actions.insert(at, (action, ActionRec::default()));
        at
    });
    &mut actions[at].1
}

/// How robustly invisible a message delivery would be — see
/// [`Participant::delivery_silence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Silence {
    /// Silent against every co-enabled transition: the premise is
    /// monotone (stale sets only grow, the ready guard is re-evaluated
    /// on the merged state) and nothing is sent.
    Always,
    /// Silent only while nothing else is poised to act on this node:
    /// the premise reads the node's disposition (active action, parked
    /// resolution), which a co-enabled local continuation, leave
    /// grant, scripted event, or a delivery of a `Commit` or another
    /// action's message could flip first.
    WhenNodeIdle,
}

/// A participating object of one or more (nested) CA actions, executing
/// the §4.2 algorithm. See the crate documentation for the protocol
/// overview and the field comments for the paper's data structures.
pub struct Participant {
    id: NodeId,
    registry: Arc<ActionRegistry>,
    /// One record per action this object was configured for, has
    /// entered, holds messages for or has ended.
    actions: Records,
    /// `SA`: entered actions, outermost first; the last is the *active*
    /// action. Exactly the actions whose record is [`Life::Entered`].
    entered: Vec<ActionId>,
    res: Option<Resolution>,
    strategy: NestedStrategy,
    /// Invalidates stale `AbortionDone` continuations after an outer
    /// resolution overrides an in-progress abortion.
    abort_epoch: u64,
    /// §4.4 fault-tolerance extension: the `k` highest-numbered raisers
    /// all resolve and commit (k = 1 is the paper's base algorithm).
    resolver_group: u32,
    /// Centralized or decentralized synchronized leave.
    leave_mode: LeaveMode,
    /// Peers reported crashed by the transport's failure detector;
    /// permanently excluded from every peer set (see [`Self::on_deserter`]).
    deserters: IdSet<NodeId>,
    /// Peers the transport's accrual detector currently *suspects*
    /// (silence past the suspicion threshold, not yet confirmed dead).
    /// Unlike `deserters` this set shrinks again when the peer is heard
    /// from ([`Self::on_rejoin`]); a suspect keeps all its obligations.
    suspects: IdSet<NodeId>,
    /// Resolver failover (default on). When off, the machine is the
    /// paper's literal §4.2 algorithm: desertion reports are recorded
    /// but trigger no re-election, no recovery probing and no zombie
    /// fencing — the legacy configuration the model checker's CAEX018
    /// flags as crash-vulnerable.
    failover: bool,
}

/// Everyone in `action`'s scope except `me` and the reported
/// deserters. A free function over the fields it reads, so a caller
/// can walk the peers while it updates its resolution context.
fn live_peers<'a>(
    registry: &'a ActionRegistry,
    deserters: &'a IdSet<NodeId>,
    me: NodeId,
    action: ActionId,
) -> impl Iterator<Item = NodeId> + 'a {
    registry
        .scope(action)
        .expect("peers of undeclared action")
        .participants()
        .iter()
        .copied()
        .filter(move |p| *p != me && !deserters.contains(p))
}

impl fmt::Debug for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Participant")
            .field("id", &self.id)
            .field("entered", &self.entered)
            .field("state", &self.state())
            .finish()
    }
}

impl Participant {
    /// Creates a participant executing with the given strategy for
    /// nested actions caught by an outer exception (the paper's
    /// algorithm is [`NestedStrategy::Abort`]).
    #[must_use]
    pub fn new(id: NodeId, registry: Arc<ActionRegistry>, strategy: NestedStrategy) -> Self {
        Participant {
            id,
            registry,
            actions: Vec::new(),
            entered: Vec::new(),
            res: None,
            strategy,
            abort_epoch: 0,
            resolver_group: 1,
            leave_mode: LeaveMode::default(),
            deserters: IdSet::default(),
            suspects: IdSet::default(),
            failover: true,
        }
    }

    /// Selects centralized (default) or decentralized synchronized
    /// leave (§4's "centralized or decentralized manager").
    pub(crate) fn set_leave_mode(&mut self, mode: LeaveMode) {
        self.leave_mode = mode;
    }

    /// The actions this object leaves through the managed exit line
    /// ([`crate::ExitLines`]): all of them under [`LeaveMode::Managed`].
    #[must_use]
    pub fn managed_exit(&self) -> Option<&ActionRegistry> {
        (self.leave_mode == LeaveMode::Managed).then_some(&*self.registry)
    }

    /// Enables or disables resolver failover (on by default). With
    /// failover off, an [`Event::DeserterSuspected`] only records the
    /// deserter — no obligation waiving, no re-election, no recovery
    /// probing, no commit fencing — reproducing the paper's literal
    /// §4.2 machine, which assumes the elected resolver stays alive.
    pub(crate) fn set_failover(&mut self, enabled: bool) {
        self.failover = enabled;
    }

    /// Sets the resolver-group size `k` (§4.4: "the algorithm can be
    /// easily extended to the use of a group of objects that are
    /// responsible for performing resolution and producing the commit
    /// messages. This only contributes a constant factor"). The `k`
    /// highest-numbered raisers each resolve and commit; participants
    /// accept the first commit and absorb duplicates as stale.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub(crate) fn set_resolver_group(&mut self, k: u32) {
        assert!(k >= 1, "resolver group must contain at least one object");
        self.resolver_group = k;
    }

    /// This object's identity (also its rank in resolver election).
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Installs this participant's handler table for `action`. An
    /// action with no installed table *is* the recover-all default —
    /// every exception of its tree recovers at zero cost and nested
    /// aborts are clean — and nothing is built for it.
    pub(crate) fn set_handlers(&mut self, action: ActionId, table: HandlerTable) {
        record_or_default(&mut self.actions, action).handlers = Some(Box::new(table));
    }

    /// Declares how much longer `action` would run (used only by the
    /// [`NestedStrategy::Wait`] comparison strategy); `None` marks an
    /// action that can never complete — e.g. one with a belated
    /// participant.
    pub(crate) fn set_nested_remaining(&mut self, action: ActionId, remaining: Option<SimTime>) {
        record_or_default(&mut self.actions, action).remaining = remaining;
    }

    /// The currently active (innermost entered) action, if any.
    #[must_use]
    pub fn active_action(&self) -> Option<ActionId> {
        self.entered.last().copied()
    }

    /// The current state in the paper's terms; `None` is the `N` state.
    #[must_use]
    pub fn state(&self) -> Option<PState> {
        self.res.as_ref().map(|r| r.state)
    }

    /// `true` while no resolution involves this object.
    #[must_use]
    pub fn is_normal(&self) -> bool {
        self.res.is_none()
    }

    /// The action of the current resolution context, if any.
    #[must_use]
    pub(crate) fn resolution_action(&self) -> Option<ActionId> {
        self.res.as_ref().map(|r| r.action)
    }

    /// `true` while this object is still aborting (or, under the wait
    /// strategy, waiting out) its nested actions.
    #[must_use]
    pub(crate) fn is_aborting(&self) -> bool {
        self.res.as_ref().is_some_and(|r| r.aborting)
    }

    /// The live peers of `action` in participant (ascending) order.
    fn peers(&self, action: ActionId) -> impl Iterator<Item = NodeId> + '_ {
        live_peers(&self.registry, &self.deserters, self.id, action)
    }

    /// Sends `msg` to every live peer of `action`; with a `kind`, the
    /// sends are first noted as one multicast when there is any peer.
    fn fan_out(
        &self,
        action: ActionId,
        kind: Option<&'static str>,
        msg: Msg,
        fx: &mut Vec<Effect>,
    ) {
        if let Some(kind) = kind.filter(|_| self.peers(action).next().is_some()) {
            fx.push(Effect::Note(Note::Multicast {
                object: self.id,
                kind,
            }));
        }
        for to in self.peers(action) {
            fx.push(Effect::Send {
                to,
                msg: msg.clone(),
            });
        }
    }

    /// Re-broadcasts `action`'s committed exception, once per action.
    /// `from` is this live object: the original resolver may be a
    /// deserter whose commits are fenced, so the rebroadcast vouches
    /// for the outcome under the survivor's own identity.
    fn announce_commit(&mut self, action: ActionId, fx: &mut Vec<Effect>) {
        let rec = record(&mut self.actions, action);
        if std::mem::replace(&mut rec.recovery.announced, true) {
            return;
        }
        let exc = rec.resolved.clone().expect("only a commit is announced");
        let commit = Msg::Commit {
            action,
            from: self.id,
            exc,
        };
        self.fan_out(action, None, commit, fx);
    }

    /// The peers reported so far as [`Event::DeserterSuspected`].
    #[must_use]
    pub fn deserters(&self) -> Vec<NodeId> {
        let mut d: Vec<NodeId> = self.deserters.iter().copied().collect();
        d.sort_unstable();
        d
    }

    /// The peers currently suspected (reported as
    /// [`Event::PeerSuspected`] and not yet cleared by
    /// [`Event::PeerRejoined`] or promoted by
    /// [`Event::DeserterSuspected`]).
    #[must_use]
    pub fn suspects(&self) -> Vec<NodeId> {
        let mut s: Vec<NodeId> = self.suspects.iter().copied().collect();
        s.sort_unstable();
        s
    }

    /// Feeds a canonical digest of this participant's protocol-visible
    /// state — `SA`, each action's lifecycle (buffered belated messages
    /// and leave bookkeeping included), committed exception and
    /// recovery bookkeeping, `LE`, `LO`, pending acknowledgements,
    /// abortion progress, suspects and deserters — into `h`.
    ///
    /// Unordered containers are sorted first, so two participants in
    /// the same protocol state always digest identically regardless of
    /// the insertion history that produced it. The model checker in
    /// `caex-lint` uses this for state canonicalization when
    /// enumerating message interleavings; run-constant configuration
    /// (strategy, resolver group, handler tables, declared run times)
    /// is deliberately excluded.
    pub fn protocol_digest<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        fn sorted<T: Copy + Ord>(set: &IdSet<T>) -> Vec<T> {
            let mut v: Vec<T> = set.iter().copied().collect();
            v.sort_unstable();
            v
        }
        self.id.hash(h);
        self.entered.hash(h);
        self.actions.len().hash(h);
        for (a, rec) in &self.actions {
            a.hash(h);
            rec.life.hash(h);
            rec.resolved.as_ref().map(Exception::id).hash(h);
            rec.recovery.hash(h);
        }
        sorted(&self.suspects).hash(h);
        match &self.res {
            None => 0u8.hash(h),
            Some(r) => {
                1u8.hash(h);
                r.action.hash(h);
                (match r.state {
                    PState::Exceptional => 1u8,
                    PState::Suspended => 2,
                    PState::Ready => 3,
                })
                .hash(h);
                // `LE` and the deferred-ACK list are hashed as
                // *multisets*: reception order never changes future
                // behaviour (election and resolution sort or fold over
                // them), so two interleavings that delivered the same
                // messages in different orders canonicalize to one
                // state. This is what makes exhaustive interleaving
                // enumeration over broadcast storms tractable.
                let mut le: Vec<&(NodeId, Exception)> = r.le.iter().collect();
                le.sort_unstable_by_key(|(raiser, e)| (*raiser, e.id()));
                le.hash(h);
                let mut ghost: Vec<&(NodeId, Exception)> = r.ghost_le.iter().collect();
                ghost.sort_unstable_by_key(|(raiser, e)| (*raiser, e.id()));
                ghost.hash(h);
                r.lo.hash(h);
                r.pending_acks.hash(h);
                r.aborting.hash(h);
                let mut deferred = r.deferred_acks.clone();
                deferred.sort_unstable();
                deferred.hash(h);
            }
        }
        self.abort_epoch.hash(h);
        sorted(&self.deserters).hash(h);
    }

    /// A deep copy of the full protocol state, for checker state-space
    /// exploration. Returns `None` when any handler table holds opaque
    /// closures (the model checker skips such scenarios up front, so
    /// its worlds always clone).
    #[must_use]
    pub fn clone_declarative(&self) -> Option<Participant> {
        let mut actions = Vec::with_capacity(self.actions.len());
        for (action, rec) in &self.actions {
            let handlers = match &rec.handlers {
                Some(table) => Some(Box::new(table.clone_declarative()?)),
                None => None,
            };
            let copy = ActionRec {
                handlers,
                life: rec.life.clone(),
                resolved: rec.resolved.clone(),
                recovery: rec.recovery.clone(),
                ..*rec
            };
            actions.push((*action, copy));
        }
        Some(Participant {
            registry: Arc::clone(&self.registry),
            actions,
            entered: self.entered.clone(),
            res: self.res.clone(),
            deserters: self.deserters.clone(),
            suspects: self.suspects.clone(),
            ..*self
        })
    }

    /// Whether delivering `msg` here provably has no protocol-visible
    /// effect beyond consuming the message (and possibly replying an
    /// order-independent ACK): stale cleanup that cannot trigger the
    /// crash-recovery `Commit` rebroadcast, an ACK whose removal from
    /// `pending_acks` cannot complete the §4.2 ready predicate, a
    /// duplicate raise, or resolution traffic to a *parked* resolution
    /// that can never (re-)enter the election.
    ///
    /// Model-checking support: such a delivery commutes with the
    /// co-enabled transitions its [`Silence`] level names, so the
    /// checker in `caex-lint` applies it immediately instead of
    /// branching over its interleavings (a τ-confluence reduction).
    /// The predicate is deliberately conservative: anything it cannot
    /// prove silent counts as visible. Two load-bearing exclusions: an
    /// *aborting* resolution later re-extends `pending_acks` in
    /// [`Event::AbortionDone`], so ACK removals do not commute across
    /// it; and a message for an unentered action is buffered, where
    /// arrival order decides the replay order at entry.
    #[must_use]
    pub fn delivery_silence(&self, msg: &Msg) -> Option<Silence> {
        let action = msg.action();
        if self.failover && self.deserters.contains(&msg.sender()) {
            // Fenced at the top of `on_msg`: a message speaking for a
            // reported deserter is discarded with a note and mutates
            // nothing. Monotone premise: `deserters` only grows.
            return Some(Silence::Always);
        }
        if self.suspects.contains(&msg.sender()) {
            // Proof of life: the delivery clears the sender's
            // suspicion (and may forward an owed commit) no matter
            // what the message itself says — never silent.
            return None;
        }
        let Some(rec) = lookup(&self.actions, action) else {
            // Not heard of yet: held if this object is in the action's
            // scope (arrival order is replay order), otherwise dropped
            // with a note — and the registry never changes.
            let mine = self
                .registry
                .scope(action)
                .is_ok_and(|s| s.is_participant(self.id));
            return (!mine).then_some(Silence::Always);
        };
        match (&rec.resolved, &rec.life) {
            (Some(_), _) => {
                // Stale post-commit traffic — silent unless it is about
                // to trigger the recovery rebroadcast in `on_msg`. The
                // staleness premise is monotone: a commit is never
                // forgotten and an announce never undone.
                let announces = !self.deserters.is_empty()
                    && !rec.recovery.announced
                    && matches!(
                        msg,
                        Msg::Exception { .. }
                            | Msg::HaveNested { .. }
                            | Msg::NestedCompleted { .. }
                    );
                return (!announces).then_some(Silence::Always);
            }
            // Cleaned up with a note, nothing else; an aborted or
            // completed action can never be re-entered (`on_enter` skips
            // belated entries), so the premise is monotone.
            (None, Life::Completed | Life::Aborted) => return Some(Silence::Always),
            (None, Life::Buffered(_)) => return None, // arrival order is replay order
            (None, Life::Entered { .. }) => {}
        }
        if let Some(res) = &self.res {
            if res.action != action
                && !self
                    .registry
                    .is_nested_within(res.action, action)
                    .unwrap_or(true)
            {
                // Stale note for an eliminated nested action — but only
                // while the eliminating outer resolution is still in
                // place: a co-enabled `Commit` would clear it and turn
                // this into live traffic.
                return Some(Silence::WhenNodeIdle);
            }
        }
        if let Msg::Ack { from, .. } = msg {
            let silent = match &self.res {
                None => true,                              // dropped
                Some(res) if res.action != action => true, // ignored
                Some(res) => {
                    !res.aborting
                        && !(res.state == PState::Exceptional
                            && res.lo_done()
                            && res.pending_acks.iter().all(|p| p == from))
                }
            };
            // Robust: the ready guard is re-evaluated after every
            // mutation, so both orders of this removal and any
            // co-enabled step judge the guard on the merged state.
            return silent.then_some(Silence::Always);
        }
        // A duplicate (raiser, class) exception — a crash-recovery
        // probe retransmission — changes nothing and sends no ACK,
        // provided it cannot first trigger the §4.2 abortion
        // announcement (active action already at the resolution level).
        if let Msg::Exception { from, exc, .. } = msg {
            if let Some(res) = &self.res {
                if res.action == action
                    && self.active_action() == Some(action)
                    && res.le.iter().any(|(r, e)| r == from && e.id() == exc.id())
                {
                    return Some(Silence::WhenNodeIdle);
                }
            }
        }
        // Two further classes, both premised on `res` staying in place
        // (the checker's node-idle guard bails on any co-enabled step
        // that could clear or replace it):
        //
        // **Parked.** A parked resolution can never (re-)enter the
        // election: `check_ready` demands the `Exceptional` state, and
        // nothing leads back there — a raise needs `res == None`, an
        // abortion signal needs `aborting`, and `trigger_abortion`
        // replaces the context wholesale. So once this object is
        // Suspended with its abortion done, or Ready after losing the
        // election, incoming resolution traffic only mutates
        // `LE`/`LO`/`pending_acks` bookkeeping that no election will
        // ever read, and any ACK it replies with has an
        // order-independent payload.
        //
        // **Aborting.** While the abortion handlers run, an incoming
        // `Exception` or `NestedCompleted` only merges into
        // `LE`/`LO` (canonical sets) and queues a deferred ACK.
        // Against the pending `AbortionDone` continuation both orders
        // converge: delivered before, the ACK drains right after the
        // `NestedCompleted` broadcast; delivered after, it is sent
        // directly — either way the reply channel reads
        // `[NestedCompleted, Ack]` and the ready guard is judged on
        // the merged state (`pending_acks` was just re-extended with
        // the full peer set, so no commit can fire in between). ACKs
        // themselves stay visible here: their removal does not commute
        // across that re-extension.
        //
        // `HaveNested` joins either class only when no declared action
        // nests within `action`: its buffered-message cleanup is
        // order-sensitive against late arrivals for those nested
        // actions.
        if let Some(res) = &self.res {
            if res.action == action && self.active_action() == Some(action) {
                let parked = !res.aborting && res.state != PState::Exceptional;
                let silent = match msg {
                    Msg::Exception { .. } | Msg::NestedCompleted { .. } => {
                        parked || res.aborting
                    }
                    Msg::HaveNested { .. } => {
                        (parked || res.aborting)
                            && self.registry.iter().all(|(b, _)| {
                                b == action
                                    || !self
                                        .registry
                                        .is_nested_within(b, action)
                                        .unwrap_or(true)
                            })
                    }
                    Msg::Ack { .. } | Msg::Commit { .. } | Msg::LeaveReady { .. } => false,
                };
                return silent.then_some(Silence::WhenNodeIdle);
            }
        }
        None
    }

    /// Excludes a crashed peer (a *deserter*) from the protocol.
    ///
    /// The §4.2 algorithm assumes participants do not crash; a real
    /// transport relaxes that with a heartbeat failure detector and
    /// reports timed-out peers here. The deserter is removed from every
    /// future peer set and all of its outstanding obligations are
    /// waived so resolution cannot block on it:
    ///
    /// - its pending ACK for our own broadcast is forgiven,
    /// - its `LO` entry (an abortion we were waiting to complete) is
    ///   dropped,
    /// - its raised exceptions are removed from `LE`, so the resolver
    ///   election re-runs over *live* raisers only (a dead max-raiser
    ///   can never commit),
    /// - a pending distributed leave no longer waits for it.
    ///
    /// If the removal leaves a suspended object with an empty `LE` (the
    /// only raiser deserted before any abortion traffic), the orphaned
    /// resolution context is discarded and the object resumes normal
    /// computation. Calling this again for the same peer is a no-op.
    ///
    /// With failover disabled ([`Self::set_failover`]), only the
    /// desertion itself is recorded: the paper's §4.2 machine has no
    /// failure-handling clause, so every obligation keeps waiting on
    /// the dead peer (the configuration CAEX018 proves crash-vulnerable).
    fn on_deserter(&mut self, peer: NodeId, fx: &mut Vec<Effect>) {
        if peer == self.id || !self.deserters.insert(peer) {
            return;
        }
        // A confirmation subsumes any open suspicion of the same peer.
        self.suspects.remove(&peer);
        fx.push(Effect::Note(Note::Deserted {
            object: self.id,
            peer,
        }));
        if !self.failover {
            return;
        }
        // Commit forwarding: the deserter may have been a sole raiser
        // that committed to only part of the action before dying (the
        // p = 1 partial commit). A survivor already holding the
        // decision re-forwards it once, so orphans that stood down —
        // and will never send the traffic that triggers the stale-probe
        // rebroadcast — still converge on the committed exception.
        let forwards: Vec<ActionId> = self
            .actions
            .iter()
            .filter(|(a, rec)| {
                rec.resolved.is_some()
                    && self
                        .registry
                        .scope(*a)
                        .is_ok_and(|s| s.is_participant(peer))
            })
            .map(|(a, _)| *a)
            .collect();
        for action in forwards {
            self.announce_commit(action, fx);
        }
        if let Some(res) = &mut self.res {
            res.pending_acks.retain(|&p| p != peer);
            res.lo.retain(|&(object, _)| object != peer);
            // The deserter's raises move to the ghost list: they stop
            // voting in the election but stay in the resolved set (see
            // `Resolution::ghost_le`). If the deserter was the known
            // max raiser, this resolution just lost its elected
            // resolver — note it, and remember whom a survivor's
            // re-run election replaces.
            let was_resolver = res
                .le
                .iter()
                .map(|(raiser, _)| *raiser)
                .max()
                .is_some_and(|max| max == peer);
            let mut keep = Vec::with_capacity(res.le.len());
            for entry in res.le.drain(..) {
                if entry.0 == peer {
                    if !res
                        .ghost_le
                        .iter()
                        .any(|(r, e)| *r == entry.0 && e.id() == entry.1.id())
                    {
                        res.ghost_le.push(entry);
                    }
                } else {
                    keep.push(entry);
                }
            }
            res.le = keep;
            if was_resolver {
                res.lost_resolver = Some(peer);
                let action = res.action;
                fx.push(Effect::Note(Note::ResolverSuspected {
                    object: self.id,
                    action,
                    peer,
                }));
            }
            if res.state == PState::Ready {
                // A raiser parked in R was outranked — possibly by the
                // deserter. Return to X so the ready predicate re-runs
                // the election over the surviving raisers.
                res.state = PState::Exceptional;
            }
        }
        self.check_ready(fx);
        // Still blocked mid-resolution after the cleanup and a possible
        // re-election? The deserter may have been the resolver, crashed
        // after informing only part of the action — the survivors that
        // got its commit are normal again and will never send another
        // word. Retransmit one known exception to each peer as a probe:
        // a peer still resolving treats it as duplicate traffic (LE and
        // ACK handling are idempotent), a peer that already committed
        // answers with the resolution and this object converges. One
        // entry suffices — any resolution traffic for the action
        // triggers the answer.
        if let Some(res) = &self.res {
            if !res.aborting {
                // Canonical choice (min raiser) so behaviour does not
                // depend on `LE` reception order.
                if let Some((raiser, exc)) =
                    res.le.iter().min_by_key(|(raiser, e)| (*raiser, e.id()))
                {
                    let action = res.action;
                    let probe = Msg::Exception {
                        action,
                        from: *raiser,
                        exc: exc.clone(),
                    };
                    self.fan_out(action, None, probe, fx);
                }
            }
        }
        // A pending distributed leave no longer waits for the deserter.
        for action in self.entered.clone() {
            self.try_distributed_leave(action, fx);
        }
    }

    /// Records that the transport's accrual detector *suspects* `peer`
    /// (silence beyond the suspicion threshold φ, not yet confirmed).
    ///
    /// Unlike [`Self::on_deserter`] this changes no protocol state: a
    /// suspect keeps every obligation (its ACKs are still awaited, its
    /// raises still vote) because a latency spike or transient
    /// partition must not amputate a healthy peer. The suspicion is
    /// remembered so a commit fanned out in the meantime can be
    /// re-forwarded when the peer returns ([`Self::on_rejoin`]).
    fn on_suspect(&mut self, peer: NodeId, fx: &mut Vec<Effect>) {
        if peer == self.id || self.deserters.contains(&peer) || !self.suspects.insert(peer) {
            return;
        }
        fx.push(Effect::Note(Note::PeerSuspected {
            object: self.id,
            peer,
        }));
    }

    /// Clears a suspicion: `peer` was heard from again (a suspicion
    /// flap — the partition healed, the latency spike passed).
    ///
    /// Runs the commit-forwarding round toward the returning peer: any
    /// resolution that committed here while `peer` was suspected is
    /// re-sent as a `Commit` directly to it, in case the original
    /// fan-out was swallowed by the partition. The duplicate-commit
    /// path absorbs the re-send idempotently if the peer already knows.
    fn on_rejoin(&mut self, peer: NodeId, fx: &mut Vec<Effect>) {
        if !self.suspects.remove(&peer) {
            return;
        }
        fx.push(Effect::Note(Note::PeerRejoined {
            object: self.id,
            peer,
        }));
        if !self.failover {
            return;
        }
        let owed: Vec<ActionId> = self
            .actions
            .iter()
            .filter_map(|(a, rec)| rec.recovery.missed_commits.contains(&peer).then_some(*a))
            .collect();
        for action in owed {
            let rec = record(&mut self.actions, action);
            rec.recovery.missed_commits.remove(&peer);
            if let Some(exc) = rec.resolved.clone() {
                fx.push(Effect::Send {
                    to: peer,
                    msg: Msg::Commit {
                        action,
                        from: self.id,
                        exc,
                    },
                });
            }
        }
    }

    /// Main entry point: consume one event, emit the resulting effects.
    ///
    /// # Panics
    ///
    /// Panics on scenario programming errors (entering an action whose
    /// parent is not active, raising outside any action) — the
    /// structural rules the paper assumes the runtime enforces.
    pub fn handle(&mut self, event: Event) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.handle_into(event, &mut fx);
        fx
    }

    /// [`Self::handle`], appending the effects to a buffer the host
    /// owns and reuses instead of returning a fresh `Vec` per event.
    ///
    /// # Panics
    ///
    /// As [`Self::handle`].
    pub fn handle_into(&mut self, event: Event, fx: &mut Vec<Effect>) {
        match event {
            Event::Enter(action) => self.on_enter(action, fx),
            Event::Complete(action) => self.on_complete(action, fx),
            Event::LeaveGranted(action) => self.on_leave_granted(action, fx),
            Event::Raise(exc) => self.on_raise(exc, fx),
            Event::Msg(msg) => self.on_msg(msg, fx),
            Event::AbortionDone {
                action,
                signal,
                epoch,
            } => self.on_abortion_done(action, signal, epoch, fx),
            Event::HandlerDone { action, signal } => self.on_handler_done(action, signal, fx),
            Event::DeserterSuspected { peer } => self.on_deserter(peer, fx),
            Event::PeerSuspected { peer } => self.on_suspect(peer, fx),
            Event::PeerRejoined { peer } => self.on_rejoin(peer, fx),
        }
    }

    fn on_enter(&mut self, action: ActionId, fx: &mut Vec<Effect>) {
        let ended = |rec: &ActionRec| matches!(rec.life, Life::Completed | Life::Aborted);
        // Belated entry into an action that was aborted (or already
        // completed) in the meantime is silently skipped, §4.1: "the
        // abortion handlers of other participating objects will not
        // have to wait for it". A suspended or exceptional object takes
        // no further part in normal computation, so it cannot enter
        // nested actions either.
        if lookup(&self.actions, action).is_some_and(ended) || self.res.is_some() {
            fx.push(Effect::Note(Note::EnterSkipped {
                object: self.id,
                action,
            }));
            return;
        }
        let scope = self
            .registry
            .scope(action)
            .expect("entering undeclared action");
        assert!(
            scope.is_participant(self.id),
            "{} is not a participant of {action}",
            self.id
        );
        if scope.parent() != self.active_action() {
            // The containing action is no longer (or not yet) active —
            // e.g. a belated entry firing after the parent completed or
            // aborted. The entry is void.
            fx.push(Effect::Note(Note::EnterSkipped {
                object: self.id,
                action,
            }));
            return;
        }
        self.entered.push(action);
        let entered = Life::Entered {
            ready: BTreeSet::new(),
            exit: Exit::Open,
        };
        let rec = record_or_default(&mut self.actions, action);
        let held = std::mem::replace(&mut rec.life, entered);
        fx.push(Effect::Note(Note::Entered {
            object: self.id,
            action,
        }));
        // Belated participation: messages that arrived before entry are
        // processed now ("the entire protocol execution for resolution
        // should be delayed", §3.3).
        if let Life::Buffered(pending) = held {
            for msg in pending {
                self.on_msg(msg, fx);
            }
        }
    }

    fn on_complete(&mut self, action: ActionId, fx: &mut Vec<Effect>) {
        if self.res.is_some() {
            // A suspended object's completion is overtaken by the
            // resolution.
            return;
        }
        let active = self.active_action() == Some(action);
        let distributed = self.leave_mode == LeaveMode::Distributed;
        match lookup_mut(&mut self.actions, action).map(|rec| &mut rec.life) {
            // A deeper action is still at its own exit line; the
            // completion replays once the nesting unwinds.
            Some(Life::Entered { exit, .. }) if !active => {
                *exit = Exit::Deferred;
                return;
            }
            Some(Life::Entered { exit, .. }) if distributed => *exit = Exit::Requested,
            Some(Life::Entered { .. }) => {}
            // An aborted action cannot complete, and a handler may
            // already have completed the action on the object's behalf
            // (termination model).
            Some(Life::Completed | Life::Aborted) => return,
            _ => panic!(
                "{} completing {action} which it never entered or already left",
                self.id
            ),
        }
        // Leaving is synchronous: the object waits at the exit line
        // (remaining a reachable participant — it can still be drawn
        // into a resolution) until the joint leave is coordinated.
        fx.push(Effect::Note(Note::LeaveRequested {
            object: self.id,
            action,
        }));
        if distributed {
            let ready = Msg::LeaveReady {
                from: self.id,
                action,
            };
            self.fan_out(action, None, ready, fx);
            self.try_distributed_leave(action, fx);
        }
    }

    /// Distributed leave: leaves once this object reached the exit line
    /// and every peer's announcement is in.
    fn try_distributed_leave(&mut self, action: ActionId, fx: &mut Vec<Effect>) {
        let ready = match lookup(&self.actions, action).map(|rec| &rec.life) {
            Some(Life::Entered {
                ready,
                exit: Exit::Requested,
            }) if self.res.is_none() => ready,
            _ => return,
        };
        if live_peers(&self.registry, &self.deserters, self.id, action).all(|p| ready.contains(&p))
        {
            self.on_leave_granted(action, fx);
        }
    }

    fn on_leave_granted(&mut self, action: ActionId, fx: &mut Vec<Effect>) {
        if self.res.is_some() || self.active_action() != Some(action) {
            // Overtaken by a resolution (whose handlers complete the
            // action) or by an abortion: the grant is void.
            return;
        }
        self.entered.pop();
        record(&mut self.actions, action).life = Life::Completed;
        fx.push(Effect::Note(Note::Completed {
            object: self.id,
            action,
        }));
        // Replay a completion that was waiting for this unwind.
        if let Some(next) = self.active_action() {
            if let Life::Entered {
                exit: exit @ Exit::Deferred,
                ..
            } = &mut record(&mut self.actions, next).life
            {
                *exit = Exit::Open;
                self.on_complete(next, fx);
            }
        }
    }

    fn on_raise(&mut self, exc: Exception, fx: &mut Vec<Effect>) {
        match self.active_action() {
            Some(action) if self.res.is_none() => self.raise_in(action, exc, fx),
            // §4.1: "only one such exception can be raised within Action
            // A_i" per object, and suspended objects raise nothing. With
            // no active action the enclosing action already completed
            // (termination model): a raise scheduled for after its end
            // has nothing to land in.
            _ => fx.push(Effect::Note(Note::RaiseSuppressed {
                object: self.id,
                exc,
            })),
        }
    }

    /// Shared raise path: local raises and failure signals into the
    /// containing action.
    fn raise_in(&mut self, action: ActionId, exc: Exception, fx: &mut Vec<Effect>) {
        let mut res = Resolution::new(action, PState::Exceptional);
        res.le.push((self.id, exc.clone()));
        // Peers come in participant order: ascending, as the set wants.
        res.pending_acks = self.peers(action).collect();
        self.res = Some(res);
        fx.push(Effect::Note(Note::Raised {
            object: self.id,
            action,
            exc: exc.clone(),
        }));
        let raised = Msg::Exception {
            action,
            from: self.id,
            exc,
        };
        self.fan_out(action, Some("exception"), raised, fx);
        self.check_ready(fx);
    }

    fn on_msg(&mut self, msg: Msg, fx: &mut Vec<Effect>) {
        let (action, me) = (msg.action(), self.id);
        // Zombie fencing: once the failure detector reported a peer
        // dead, nothing it says counts any more. In particular a
        // resumed (SIGCONT) or restarted resolver's late `Commit` must
        // not double-commit or split the decision the survivors have
        // re-resolved without it.
        if self.failover && self.deserters.contains(&msg.sender()) {
            fx.push(Effect::Note(Note::StaleMessage { object: me, msg }));
            return;
        }
        // Proof of life: a protocol message from a merely *suspected*
        // peer clears the suspicion before the message is interpreted,
        // so a commit triggered by this very message cannot count its
        // own sender as a suspect that "missed" it. Any commit the
        // peer genuinely missed while suspected is forwarded here.
        if self.suspects.contains(&msg.sender()) {
            self.on_rejoin(msg.sender(), fx);
        }
        let at = match slot(&self.actions, action) {
            Ok(at) => at,
            Err(at) => {
                if !self
                    .registry
                    .scope(action)
                    .is_ok_and(|s| s.is_participant(me))
                {
                    // Not an action of this object: no entry would ever
                    // release a held copy, so it is dropped at once.
                    fx.push(Effect::Note(Note::StaleMessage { object: me, msg }));
                    return;
                }
                self.actions.insert(at, (action, ActionRec::default()));
                at
            }
        };
        let rec = &mut self.actions[at].1;
        match (&rec.resolved, &mut rec.life) {
            (Some(_), _) => {
                // The resolution here already committed. A peer still
                // sending resolution traffic for it missed the commit —
                // typically because the resolver crashed after informing
                // only part of the action. Once the failure detector has
                // reported a deserter, re-broadcast the committed
                // exception so every orphan converges instead of
                // blocking forever (the message's `from` names the
                // original raiser, not the possibly different
                // retransmitting peer, so only a broadcast is guaranteed
                // to reach whoever is blocked); without any desertion
                // the traffic is merely late and is cleaned up silently
                // (§3.3 problem 4).
                if self.failover
                    && !self.deserters.is_empty()
                    && matches!(
                        msg,
                        Msg::Exception { .. }
                            | Msg::HaveNested { .. }
                            | Msg::NestedCompleted { .. }
                    )
                {
                    self.announce_commit(action, fx);
                }
                fx.push(Effect::Note(Note::StaleMessage { object: me, msg }));
                return;
            }
            (None, Life::Completed | Life::Aborted) => {
                // Messages of an eliminated nested resolution are
                // cleaned up, §3.3 problem 4.
                fx.push(Effect::Note(Note::StaleMessage { object: me, msg }));
                return;
            }
            (None, Life::Buffered(held)) => {
                // Belated participant: hold the message until entry.
                held.push(msg);
                return;
            }
            (None, Life::Entered { .. }) => {}
        }
        if let Some(res) = &self.res {
            if res.action != action && !self.registry.is_nested_within(res.action, action).unwrap()
            {
                // A message for an action nested within (or unrelated
                // to) the resolution we are already committed to: stale.
                fx.push(Effect::Note(Note::StaleMessage { object: me, msg }));
                return;
            }
        }

        // §4.2: on Exception or HaveNested, an object whose active action
        // is nested within A first announces and starts the abortion of
        // its nested actions.
        if matches!(msg, Msg::Exception { .. } | Msg::HaveNested { .. })
            && self.active_action() != Some(action)
        {
            self.trigger_abortion(action, fx);
        }

        match msg {
            Msg::Exception { from, exc, .. } => {
                let res = self.ensure_res(action);
                // Idempotent: a crash-recovery probe retransmits known
                // exceptions, so the same (raiser, class) may arrive
                // more than once. A duplicate changes nothing and is
                // not re-acknowledged: channels are reliable, so the
                // first delivery's ACK (to the same raiser) already
                // covers this object in `pending_acks`.
                if !res.le.iter().any(|(r, e)| *r == from && e.id() == exc.id()) {
                    res.le.push((from, exc));
                    res.ack(me, from, fx);
                }
            }
            Msg::HaveNested { from, .. } => {
                let res = self.ensure_res(action);
                res.lo_entry(from);
                // "clean up messages related to nested actions": the
                // sender is aborting everything below `action`, so any
                // held messages for those actions are void.
                for (b, rec) in &mut self.actions {
                    if matches!(&rec.life, Life::Buffered(held) if !held.is_empty())
                        && self.registry.is_nested_within(*b, action).unwrap_or(false)
                    {
                        rec.life = Life::Aborted;
                        fx.push(Effect::Note(Note::CleanedNestedMessages {
                            object: self.id,
                            action: *b,
                        }));
                    }
                }
            }
            Msg::NestedCompleted { from, exc, .. } => {
                let res = self.ensure_res(action);
                *res.lo_entry(from) = true;
                if let Some(exc) = exc {
                    if !res.le.iter().any(|(r, e)| *r == from && e.id() == exc.id()) {
                        res.le.push((from, exc));
                    }
                }
                res.ack(me, from, fx);
            }
            Msg::Ack { from, .. } => {
                if let Some(res) = &mut self.res {
                    if res.action == action {
                        res.pending_acks.retain(|&p| p != from);
                    }
                }
            }
            Msg::Commit { from, exc, .. } => {
                self.accept_commit(action, from, exc, fx);
                return;
            }
            Msg::LeaveReady { from, .. } => {
                if let Life::Entered { ready, .. } = &mut record(&mut self.actions, action).life {
                    ready.insert(from);
                }
                self.try_distributed_leave(action, fx);
                return;
            }
        }
        self.check_ready(fx);
    }

    /// The abortion procedure of §4.1: announce with `HaveNested`,
    /// execute abortion handlers innermost-first (taking virtual time),
    /// honour only the signal of the action directly nested in the
    /// resolving action, and discard any nested resolution in progress.
    fn trigger_abortion(&mut self, outer: ActionId, fx: &mut Vec<Effect>) {
        debug_assert!(self.entered.contains(&outer));
        let announce = Msg::HaveNested {
            from: self.id,
            action: outer,
        };
        self.fan_out(outer, Some("have_nested"), announce, fx);
        // Innermost-first chain of entered actions strictly below
        // `outer`.
        let pos = self
            .entered
            .iter()
            .position(|&a| a == outer)
            .expect("outer action is entered");
        let chain: Vec<ActionId> = self.entered[pos + 1..].iter().rev().copied().collect();
        self.entered.truncate(pos + 1);

        // The nested resolution (if any) is eliminated: "empty LE_i,
        // LO_i, LP_i". A fresh context for the outer action replaces it.
        let mut res = Resolution::new(outer, PState::Suspended);
        res.aborting = true;
        self.res = Some(res);
        self.abort_epoch += 1;
        let epoch = self.abort_epoch;

        let mut total_cost = SimTime::ZERO;
        let mut signal: Option<Exception> = None;
        match self.strategy {
            NestedStrategy::Abort => {
                let count = chain.len();
                for (idx, nested) in chain.iter().copied().enumerate() {
                    let rec = record(&mut self.actions, nested);
                    rec.life = Life::Aborted;
                    let (outcome, cost) = match &mut rec.handlers {
                        Some(table) => table.invoke_abortion(),
                        None => (AbortionOutcome::Aborted, SimTime::ZERO),
                    };
                    total_cost += cost;
                    if let AbortionOutcome::Signal(exc) = outcome {
                        // Only the *directly* nested action's signal may
                        // be raised in the resolving action (§4.1); the
                        // chain is innermost-first, so that is the last
                        // element.
                        if idx + 1 == count {
                            signal = Some(exc);
                        } else {
                            fx.push(Effect::Note(Note::DeepSignalIgnored {
                                object: self.id,
                                action: nested,
                                exc,
                            }));
                        }
                    }
                }
                fx.push(Effect::Note(Note::AbortedNested {
                    object: self.id,
                    outer,
                    chain: chain.clone(),
                }));
                fx.push(Effect::After {
                    delay: total_cost,
                    event: Event::AbortionDone {
                        action: outer,
                        signal,
                        epoch,
                    },
                });
            }
            NestedStrategy::Wait => {
                // Fig. 1(a): wait for the nested actions to complete
                // instead of aborting them. If any can never complete
                // (belated participant), no completion is ever scheduled
                // — the deadlock the paper argues against.
                let mut wait = SimTime::ZERO;
                let mut never = false;
                for nested in chain.iter().copied() {
                    let rec = record(&mut self.actions, nested);
                    match rec.remaining {
                        Some(remaining) => wait = wait.max(remaining),
                        None => never = true,
                    }
                    rec.life = Life::Completed;
                }
                fx.push(Effect::Note(Note::WaitingForNested {
                    object: self.id,
                    outer,
                    chain: chain.clone(),
                    forever: never,
                }));
                if !never {
                    fx.push(Effect::After {
                        delay: wait,
                        event: Event::AbortionDone {
                            action: outer,
                            signal: None,
                            epoch,
                        },
                    });
                }
            }
        }
    }

    fn on_abortion_done(
        &mut self,
        action: ActionId,
        signal: Option<Exception>,
        epoch: u64,
        fx: &mut Vec<Effect>,
    ) {
        let aborting = self
            .res
            .as_ref()
            .is_some_and(|r| r.action == action && r.aborting);
        if epoch != self.abort_epoch || !aborting {
            return; // superseded by a more-outer abortion, or no longer aborting
        }
        let completed = Msg::NestedCompleted {
            action,
            from: self.id,
            exc: signal.clone(),
        };
        self.fan_out(action, Some("nested_completed"), completed, fx);
        let res = self.res.as_mut().expect("checked above");
        res.aborting = false;
        // NestedCompleted expects an ACK from every peer.
        res.pending_acks
            .extend(live_peers(&self.registry, &self.deserters, self.id, action));
        res.pending_acks.sort_unstable();
        res.pending_acks.dedup();
        for to in std::mem::take(&mut res.deferred_acks) {
            res.ack(self.id, to, fx);
        }
        if let Some(exc) = signal {
            res.le.push((self.id, exc));
            res.state = PState::Exceptional;
        }
        self.check_ready(fx);
    }

    /// Failover stand-down: every raiser this object ever heard of has
    /// deserted (`LE` drained into the ghost list), it raised nothing
    /// itself, and nothing is left in flight — no live object can ever
    /// be elected, so no commit will ever arrive. Return to normal
    /// instead of waiting forever. Evaluated from [`Self::check_ready`]
    /// so it also fires when the blocking work (a nested abortion, an
    /// outstanding ACK) completes *after* the desertion was recorded.
    fn stand_down_if_orphaned(&mut self) {
        if !self.failover {
            return;
        }
        let Some(res) = &self.res else { return };
        if res.le.is_empty()
            && !res.ghost_le.is_empty()
            && res.pending_acks.is_empty()
            && res.lo_done()
            && res.state != PState::Exceptional
            && !res.aborting
        {
            // Remember the abandoned resolution: if some survivor got
            // the dead raiser's commit after all, its forwarded
            // `Commit` is still welcome (see `accept_commit`).
            record(&mut self.actions, res.action).recovery.stood_down = true;
            self.res = None;
        }
    }

    /// The ready predicate of §4.2: `S(Oi) = X`, `NestedCompleted`
    /// received from every object in `LO`, and ACKs received from all of
    /// `G_A` for our own broadcast. The ready object with the biggest
    /// number among the raisers resolves and commits.
    fn check_ready(&mut self, fx: &mut Vec<Effect>) {
        self.stand_down_if_orphaned();
        let Some(res) = &mut self.res else { return };
        if res.state != PState::Exceptional
            || res.aborting
            || !res.pending_acks.is_empty()
            || !res.lo_done()
        {
            return;
        }
        // Resolver election: rank the distinct raisers descending; the
        // top `resolver_group` of them resolve (the paper's base
        // algorithm has a group of one — the max raiser). This object
        // is elected if it raised and fewer than `resolver_group`
        // distinct raisers rank above it, counted in place (`LE` holds
        // a handful of entries: each raiser's first one counts).
        let me = self.id;
        let le = &res.le;
        debug_assert!(
            !le.is_empty(),
            "an exceptional object has at least its own entry in LE"
        );
        let above = (0..le.len())
            .filter(|&i| le[i].0 > me && le[..i].iter().all(|(r, _)| *r != le[i].0))
            .count();
        let elected = le.iter().any(|(r, _)| *r == me) && (above as u32) < self.resolver_group;
        if !elected {
            res.state = PState::Ready;
            return;
        }
        // This object resolves. The resolved set is the *full* gossiped
        // raised set — live raisers plus any deserted raiser's retained
        // exceptions — so a failover resolver reaches the same decision
        // the dead original would have, and survivors that already got
        // the original's commit stay in agreement.
        let action = res.action;
        let raised = res.raised_set();
        if let Some(replaced) = res.lost_resolver.take() {
            fx.push(Effect::Note(Note::ResolverReelected {
                action,
                resolver: self.id,
                replaced,
            }));
        }
        let tree = self
            .registry
            .scope(action)
            .expect("resolving undeclared action")
            .tree()
            .clone();
        let resolved_id = tree
            .resolve(raised.iter().map(|(_, e)| e.id()))
            .expect("LE is non-empty and ids come from this tree");
        let resolved = Exception::new(resolved_id).with_origin(format!("resolver {}", self.id));
        fx.push(Effect::Note(Note::ResolutionCommitted {
            action,
            resolver: self.id,
            resolved: resolved.clone(),
            raised,
        }));
        let commit = Msg::Commit {
            action,
            from: self.id,
            exc: resolved.clone(),
        };
        self.fan_out(action, Some("commit"), commit, fx);
        self.accept_commit(action, self.id, resolved, fx);
    }

    /// Common commit path for the resolver itself and for `Commit`
    /// receivers: empty the lists and start the handler for `E`.
    fn accept_commit(&mut self, action: ActionId, from: NodeId, exc: Exception, fx: &mut Vec<Effect>) {
        // A stood-down orphan (every known raiser deserted before the
        // outcome arrived) resumed normal computation without the
        // resolution context; a commit forwarded by a better-informed
        // survivor still applies as long as the action is the active
        // one. This closes the p = 1 partial-commit hole: without it
        // the forwarded decision would bounce off as stale and the
        // orphan would complete normally while its peers handle an
        // exception.
        let resumable = self.failover
            && self.res.is_none()
            && self.active_action() == Some(action)
            && record(&mut self.actions, action).recovery.stood_down;
        if self.res.as_ref().map(|r| r.action) != Some(action) && !resumable {
            fx.push(Effect::Note(Note::StaleMessage {
                object: self.id,
                msg: Msg::Commit { action, from, exc },
            }));
            return;
        }
        self.res = None;
        let rec = record(&mut self.actions, action);
        rec.recovery.stood_down = false;
        rec.resolved = Some(exc.clone());
        // Suspected peers were not excluded from the fan-out (their
        // obligations stand), but a transient partition may well have
        // swallowed the commit on the wire: remember whom to re-send it
        // to when the detector reports them back (`on_rejoin`).
        if self.failover && !self.suspects.is_empty() {
            let missed: BTreeSet<NodeId> =
                live_peers(&self.registry, &self.deserters, self.id, action)
                    .filter(|p| self.suspects.contains(p))
                    .collect();
            if !missed.is_empty() {
                rec.recovery.missed_commits = missed;
            }
        }
        let (outcome, cost) = match &mut rec.handlers {
            Some(table) => table.invoke(&exc),
            None => {
                let tree = self
                    .registry
                    .scope(action)
                    .expect("handler lookup for undeclared action")
                    .tree();
                assert!(
                    tree.contains(exc.id()),
                    "no handler for exception {}",
                    exc.id()
                );
                (HandlerOutcome::Recovered, SimTime::ZERO)
            }
        };
        let signal = match outcome {
            HandlerOutcome::Recovered => None,
            HandlerOutcome::Signal(e) => Some(e),
        };
        fx.push(Effect::Note(Note::HandlerStarted {
            object: self.id,
            action,
            exc,
            will_signal: signal.clone(),
        }));
        fx.push(Effect::After {
            delay: cost,
            event: Event::HandlerDone { action, signal },
        });
    }

    fn on_handler_done(
        &mut self,
        action: ActionId,
        signal: Option<Exception>,
        fx: &mut Vec<Effect>,
    ) {
        // §4.1: aborting a nested action stops "any activity of the
        // nested action … including execution of any handlers". If an
        // outer resolution aborted `action` while its handler was still
        // running, this continuation is void.
        if self.active_action() != Some(action) {
            return;
        }
        // The termination model: the handler completes the action.
        self.entered.pop();
        record(&mut self.actions, action).life = Life::Completed;
        match signal {
            None => fx.push(Effect::Note(Note::Completed {
                object: self.id,
                action,
            })),
            Some(exc) => {
                let parent = self
                    .registry
                    .scope(action)
                    .expect("declared action")
                    .parent();
                fx.push(Effect::Note(Note::SignalledFailure {
                    object: self.id,
                    action,
                    exc: exc.clone(),
                }));
                match parent {
                    // Signalling between nested actions: the failure
                    // exception is raised within the containing action,
                    // starting a fresh resolution there — or recorded
                    // as suppressed if this object is already drawn
                    // into a resolution at the parent level.
                    Some(parent) => {
                        debug_assert_eq!(self.active_action(), Some(parent));
                        self.on_raise(exc, fx);
                    }
                    None => fx.push(Effect::Note(Note::ActionFailed {
                        object: self.id,
                        action,
                        exc,
                    })),
                }
            }
        }
    }

    fn ensure_res(&mut self, action: ActionId) -> &mut Resolution {
        if self.res.is_none() {
            self.res = Some(Resolution::new(action, PState::Suspended));
        }
        let res = self.res.as_mut().expect("just ensured");
        debug_assert_eq!(res.action, action, "resolution context action mismatch");
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_action::ActionScope;
    use caex_tree::{chain_tree, ExceptionId};

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// One top-level action A0 over `n` objects; returns participant 0.
    fn single_action(n: u32) -> (Participant, ActionId) {
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", ids(n), tree))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        let fx = p.handle(Event::Enter(a));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::Entered { .. }))));
        (p, a)
    }

    /// Whether `action`'s record is in the (data-free) `life` state.
    fn is(p: &Participant, action: ActionId, life: Life) -> bool {
        let rec = lookup(&p.actions, action).expect("a record");
        std::mem::discriminant(&rec.life) == std::mem::discriminant(&life)
    }

    fn sends(fx: &[Effect]) -> Vec<(&NodeId, &Msg)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raise_broadcasts_and_enters_x() {
        let (mut p, _a) = single_action(3);
        let fx = p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        let sent = sends(&fx);
        assert_eq!(sent.len(), 2, "exception to both peers");
        assert!(sent.iter().all(|(_, m)| matches!(m, Msg::Exception { .. })));
        assert_eq!(p.state(), Some(PState::Exceptional));
    }

    #[test]
    fn receiving_exception_suspends_and_acks() {
        let (mut p, a) = single_action(3);
        let fx = p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert_eq!(p.state(), Some(PState::Suspended));
        let sent = sends(&fx);
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].1, Msg::Ack { .. }));
        assert_eq!(*sent[0].0, NodeId::new(1));
        assert_eq!(p.res.as_ref().map(|r| r.le.len()), Some(1));
    }

    #[test]
    fn x_object_reaches_r_only_after_all_acks() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(1),
            action: a,
        }));
        assert_eq!(p.state(), Some(PState::Exceptional), "one ACK missing");
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(2),
            action: a,
        }));
        // O0 is never the max raiser when others exist? Here O0 is the
        // only raiser, so with all ACKs it resolves instead of parking
        // in R — its commit empties the context.
        assert!(p.is_normal());
    }

    #[test]
    fn non_max_raiser_parks_in_ready() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        // A concurrent raiser with a bigger id becomes known.
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(1),
            action: a,
        }));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(2),
            action: a,
        }));
        assert_eq!(p.state(), Some(PState::Ready), "O2 outranks O0");
    }

    #[test]
    fn stale_acks_from_other_actions_are_ignored() {
        let (mut p, _a) = single_action(2);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        // An ACK tagged with a different action must not count.
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(1),
            action: ActionId::new(99),
        }));
        assert_eq!(p.state(), Some(PState::Exceptional));
    }

    #[test]
    fn commit_starts_handler_and_returns_to_normal() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        let fx = p.handle(Event::Msg(Msg::Commit {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert!(p.is_normal());
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::HandlerStarted { .. }))));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::After {
                event: Event::HandlerDone { .. },
                ..
            }
        )));
    }

    #[test]
    fn commit_overtaking_acks_is_accepted_in_x_state() {
        // Asynchrony can deliver the resolver's Commit to a lower-
        // ranked raiser before that raiser collected all its own ACKs
        // (the paper's pseudocode only lists R and S, but X must accept
        // too). The object must adopt the commit rather than wait.
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        assert_eq!(p.state(), Some(PState::Exceptional));
        let fx = p.handle(Event::Msg(Msg::Commit {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        assert!(p.is_normal());
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::HandlerStarted { .. }))));
    }

    #[test]
    fn nested_completed_without_prior_have_nested_is_tolerated() {
        // FIFO guarantees HaveNested precedes NestedCompleted on each
        // channel, but the handler is defensive: the LO entry is
        // created satisfied and the ACK still goes out.
        let (mut p, a) = single_action(3);
        let fx = p.handle(Event::Msg(Msg::NestedCompleted {
            action: a,
            from: NodeId::new(2),
            exc: None,
        }));
        assert_eq!(p.state(), Some(PState::Suspended));
        let sent = sends(&fx);
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].1, Msg::Ack { .. }));
    }

    #[test]
    fn ready_predicate_waits_for_nested_completions() {
        // An X object with all ACKs but an outstanding LO entry must
        // not resolve.
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        p.handle(Event::Msg(Msg::HaveNested {
            from: NodeId::new(1),
            action: a,
        }));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(1),
            action: a,
        }));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(2),
            action: a,
        }));
        // O1's NestedCompleted still missing: not ready, no commit.
        assert_eq!(p.state(), Some(PState::Exceptional));
        let fx = p.handle(Event::Msg(Msg::NestedCompleted {
            action: a,
            from: NodeId::new(1),
            exc: None,
        }));
        // Now ready; O0 is the only raiser, so it resolves.
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::ResolutionCommitted { .. }))));
    }

    #[test]
    fn duplicate_commit_is_stale() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        let commit = Msg::Commit {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        };
        p.handle(Event::Msg(commit.clone()));
        let fx = p.handle(Event::Msg(commit));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::StaleMessage { .. }))));
    }

    /// Nested structure: A0{O0,O1} ⊃ A1{O0} ⊃ A2{O0}; participant O0
    /// enters all three.
    fn nested_participant() -> (Participant, ActionId, ActionId, ActionId) {
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let a0 = reg
            .declare(ActionScope::top_level("A0", ids(2), Arc::clone(&tree)))
            .unwrap();
        let a1 = reg
            .declare(ActionScope::nested(
                "A1",
                [NodeId::new(0)],
                Arc::clone(&tree),
                a0,
            ))
            .unwrap();
        let a2 = reg
            .declare(ActionScope::nested("A2", [NodeId::new(0)], tree, a1))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        p.handle(Event::Enter(a0));
        p.handle(Event::Enter(a1));
        p.handle(Event::Enter(a2));
        (p, a0, a1, a2)
    }

    #[test]
    fn outer_exception_triggers_innermost_first_abortion() {
        let (mut p, a0, a1, a2) = nested_participant();
        let fx = p.handle(Event::Msg(Msg::Exception {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        let chain = fx.iter().find_map(|e| match e {
            Effect::Note(Note::AbortedNested { chain, .. }) => Some(chain.clone()),
            _ => None,
        });
        assert_eq!(chain, Some(vec![a2, a1]));
        assert!(is(&p, a1, Life::Aborted) && is(&p, a2, Life::Aborted));
        assert_eq!(p.active_action(), Some(a0));
        // HaveNested went out; NestedCompleted is deferred behind the
        // AbortionDone continuation.
        let sent = sends(&fx);
        assert!(sent
            .iter()
            .all(|(_, m)| matches!(m, Msg::HaveNested { .. })));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::After {
                event: Event::AbortionDone { .. },
                ..
            }
        )));
    }

    #[test]
    fn abortion_done_sends_nested_completed_and_deferred_acks() {
        let (mut p, a0, ..) = nested_participant();
        let fx = p.handle(Event::Msg(Msg::Exception {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        let (signal, epoch) = fx
            .iter()
            .find_map(|e| match e {
                Effect::After {
                    event: Event::AbortionDone { signal, epoch, .. },
                    ..
                } => Some((signal.clone(), *epoch)),
                _ => None,
            })
            .expect("abortion scheduled");
        let fx = p.handle(Event::AbortionDone {
            action: a0,
            signal,
            epoch,
        });
        let sent = sends(&fx);
        // NestedCompleted first, then the deferred ACK for the
        // triggering Exception — both to O1, FIFO on that channel.
        assert!(matches!(sent[0].1, Msg::NestedCompleted { .. }));
        assert!(matches!(sent[1].1, Msg::Ack { .. }));
    }

    #[test]
    fn stale_abortion_epoch_is_ignored() {
        let (mut p, a0, ..) = nested_participant();
        p.handle(Event::Msg(Msg::Exception {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        let fx = p.handle(Event::AbortionDone {
            action: a0,
            signal: None,
            epoch: 0, // stale: the trigger bumped the epoch to 1
        });
        assert!(sends(&fx).is_empty(), "stale continuation must be inert");
    }

    #[test]
    fn messages_for_unentered_actions_are_buffered_until_entry() {
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let a0 = reg
            .declare(ActionScope::top_level("A0", ids(2), Arc::clone(&tree)))
            .unwrap();
        let a1 = reg
            .declare(ActionScope::nested("A1", ids(2), tree, a0))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        p.handle(Event::Enter(a0));
        // Message for A1 arrives before entry: silence.
        let fx = p.handle(Event::Msg(Msg::Exception {
            action: a1,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert!(sends(&fx).is_empty());
        assert!(p.is_normal());
        // Entry releases the buffer: the ACK goes out now.
        let fx = p.handle(Event::Enter(a1));
        let sent = sends(&fx);
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].1, Msg::Ack { .. }));
        assert_eq!(p.state(), Some(PState::Suspended));
    }

    #[test]
    fn messages_for_aborted_actions_are_stale() {
        let (mut p, a0, _a1, a2) = nested_participant();
        p.handle(Event::Msg(Msg::Exception {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        // A2 is aborted; a late message for it is dropped.
        let fx = p.handle(Event::Msg(Msg::Exception {
            action: a2,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::StaleMessage { .. }))));
    }

    #[test]
    fn messages_for_actions_this_object_is_not_in_are_dropped() {
        use std::hash::{DefaultHasher, Hasher};
        fn digest(p: &Participant) -> u64 {
            let mut h = DefaultHasher::new();
            p.protocol_digest(&mut h);
            h.finish()
        }
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", ids(3), Arc::clone(&tree)))
            .unwrap();
        let b = reg
            .declare(ActionScope::top_level(
                "B",
                [NodeId::new(1), NodeId::new(2)],
                tree,
            ))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        p.handle(Event::Enter(a));
        let entered = digest(&p);
        // Another group's action and an undeclared one: no entry could
        // ever release a held copy, so none may be held.
        for i in 0..2_000u32 {
            let msg = Msg::Exception {
                action: if i % 2 == 0 { b } else { ActionId::new(999) },
                from: NodeId::new(1 + i % 2),
                exc: Exception::new(ExceptionId::new(1)),
            };
            let fx = p.handle(Event::Msg(msg.clone()));
            assert_eq!(
                fx,
                vec![Effect::Note(Note::StaleMessage {
                    object: NodeId::new(0),
                    msg,
                })]
            );
        }
        assert_eq!(digest(&p), entered);
    }

    #[test]
    fn enter_while_suspended_is_skipped() {
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let a0 = reg
            .declare(ActionScope::top_level("A0", ids(2), Arc::clone(&tree)))
            .unwrap();
        let a1 = reg
            .declare(ActionScope::nested("A1", [NodeId::new(0)], tree, a0))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        p.handle(Event::Enter(a0));
        p.handle(Event::Msg(Msg::Exception {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        let fx = p.handle(Event::Enter(a1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::EnterSkipped { .. }))));
        assert_eq!(p.active_action(), Some(a0));
    }

    #[test]
    fn complete_requests_leave_then_grant_pops() {
        let (mut p, a) = single_action(2);
        // Phase 1: the object reaches the exit line.
        let fx = p.handle(Event::Complete(a));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::LeaveRequested { .. }))));
        assert!(!is(&p, a, Life::Completed), "leave is synchronous");
        assert_eq!(p.active_action(), Some(a));
        // Phase 2: the manager grants the joint leave.
        let fx = p.handle(Event::LeaveGranted(a));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::Completed { .. }))));
        assert!(is(&p, a, Life::Completed));
        assert_eq!(p.active_action(), None);
    }

    #[test]
    fn waiting_at_the_exit_line_still_participates_in_resolution() {
        // The scenario that motivated synchronous leave: an object that
        // finished its work must remain reachable until everyone
        // leaves, so a late concurrent exception still suspends it.
        let (mut p, a) = single_action(2);
        p.handle(Event::Complete(a));
        let fx = p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(1)),
        }));
        assert_eq!(p.state(), Some(PState::Suspended));
        assert!(sends(&fx).iter().any(|(_, m)| matches!(m, Msg::Ack { .. })));
        // A stale grant arriving later is void: the resolution's
        // handler will complete the action instead.
        p.handle(Event::LeaveGranted(a));
        assert!(!is(&p, a, Life::Completed));
    }

    #[test]
    fn completing_under_an_active_nested_action_defers() {
        let (mut p, _a0, a1, a2) = nested_participant();
        // A1's completion waits until A2 has left.
        p.handle(Event::Complete(a1));
        assert!(!is(&p, a1, Life::Completed));
        p.handle(Event::Complete(a2));
        p.handle(Event::LeaveGranted(a2));
        // A2's unwind replays A1's deferred completion request.
        let fx = p.handle(Event::LeaveGranted(a1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::Completed { action, .. }) if *action == a1)));
    }

    #[test]
    #[should_panic(expected = "never entered or already left")]
    fn completing_unentered_action_panics() {
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a0 = reg
            .declare(ActionScope::top_level("A0", ids(2), Arc::clone(&tree)))
            .unwrap();
        let a1 = reg
            .declare(ActionScope::nested("A1", [NodeId::new(0)], tree, a0))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        p.handle(Event::Enter(a0));
        // A1 was never entered — scenario bug.
        p.handle(Event::Complete(a1));
    }

    #[test]
    fn single_object_action_self_resolves() {
        let (mut p, _a) = single_action(1);
        let fx = p.handle(Event::Raise(Exception::new(ExceptionId::new(2))));
        assert!(sends(&fx).is_empty());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Note(Note::ResolutionCommitted { resolver, .. }) if *resolver == NodeId::new(0)
        )));
        assert!(p.is_normal());
    }

    #[test]
    #[should_panic(expected = "resolver group must contain at least one object")]
    fn zero_resolver_group_rejected() {
        let (mut p, _a) = single_action(2);
        p.set_resolver_group(0);
    }

    #[test]
    fn deserter_ack_is_forgiven_and_resolution_completes() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(1),
            action: a,
        }));
        // O2 crashed before ACKing: without desertion the raiser would
        // wait forever.
        assert_eq!(p.state(), Some(PState::Exceptional));
        let fx = p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        assert!(fx.iter().any(
            |e| matches!(e, Effect::Note(Note::Deserted { peer, .. }) if *peer == NodeId::new(2))
        ));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::ResolutionCommitted { .. }))));
        // The commit fan-out excludes the deserter.
        let sent = sends(&fx);
        assert!(sent
            .iter()
            .all(|(to, _)| **to != NodeId::new(2)));
    }

    #[test]
    fn deserting_max_raiser_re_elects_a_live_resolver() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(1),
            action: a,
        }));
        p.handle(Event::Msg(Msg::Ack {
            from: NodeId::new(2),
            action: a,
        }));
        // O2 outranks O0, so O0 parked in R waiting for O2's commit.
        assert_eq!(p.state(), Some(PState::Ready));
        // O2 dies without committing: O0 must win the re-election.
        // (R is left behind by dropping O2 from LE; the ready predicate
        // re-runs over the live raisers.)
        let fx = p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        assert!(
            fx.iter()
                .any(|e| matches!(e, Effect::Note(Note::ResolutionCommitted { resolver, .. }) if *resolver == NodeId::new(0))),
            "surviving raiser must take over resolution: {fx:?}"
        );
    }

    #[test]
    fn suspended_object_drops_orphaned_resolution_on_desertion() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert_eq!(p.state(), Some(PState::Suspended));
        // The only raiser deserts: no commit can ever arrive.
        p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        assert!(p.is_normal());
    }

    #[test]
    fn duplicate_desertion_is_inert() {
        let (mut p, _a) = single_action(3);
        let first = p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        assert_eq!(first.len(), 1);
        let again = p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        assert!(again.is_empty());
        assert_eq!(p.deserters(), vec![NodeId::new(2)]);
    }

    #[test]
    fn suspicion_is_informational_and_confirmable() {
        let (mut p, a) = single_action(3);
        p.handle(Event::Raise(Exception::new(ExceptionId::new(1))));
        assert_eq!(p.state(), Some(PState::Exceptional));
        let fx = p.handle(Event::PeerSuspected {
            peer: NodeId::new(1),
        });
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::PeerSuspected { peer, .. }) if *peer == NodeId::new(1))));
        // A suspect keeps every obligation: the raiser still waits for
        // its ACK, no commit fires, no exclusion happens.
        assert_eq!(p.state(), Some(PState::Exceptional));
        assert_eq!(p.suspects(), vec![NodeId::new(1)]);
        assert!(
            p.handle(Event::PeerSuspected {
                peer: NodeId::new(1)
            })
            .is_empty(),
            "re-suspect is inert"
        );
        // Confirmation subsumes the suspicion.
        p.handle(Event::DeserterSuspected {
            peer: NodeId::new(1),
        });
        assert!(p.suspects().is_empty());
        assert_eq!(p.deserters(), vec![NodeId::new(1)]);
        // A confirmed deserter can no longer be suspected.
        assert!(p
            .handle(Event::PeerSuspected {
                peer: NodeId::new(1)
            })
            .is_empty());
        let _ = a;
    }

    #[test]
    fn stood_down_orphan_accepts_a_forwarded_commit() {
        // The p = 1 partial-commit hole: the sole raiser O2 committed
        // to part of the action and died; this object only ever held
        // O2's exception as a ghost and stood down. A commit forwarded
        // by a better-informed survivor must still be accepted.
        let (mut p, a) = single_action(3);
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        assert!(p.is_normal(), "orphan stands down first");
        let fx = p.handle(Event::Msg(Msg::Commit {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert!(
            fx.iter()
                .any(|e| matches!(e, Effect::Note(Note::HandlerStarted { .. }))),
            "forwarded commit must start the handler, got {fx:?}"
        );
        // Idempotence: a second forward is absorbed as stale.
        let again = p.handle(Event::Msg(Msg::Commit {
            action: a,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert!(again
            .iter()
            .all(|e| !matches!(e, Effect::Note(Note::HandlerStarted { .. }))));
    }

    #[test]
    fn survivor_holding_the_commit_forwards_it_on_desertion() {
        // This object got the sole raiser's commit before the crash; on
        // the desertion report it must re-forward the decision so
        // stood-down orphans converge.
        let (mut p, a) = single_action(3);
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        p.handle(Event::Msg(Msg::Commit {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        assert!(p.is_normal());
        let fx = p.handle(Event::DeserterSuspected {
            peer: NodeId::new(2),
        });
        let sent = sends(&fx);
        assert!(
            sent.iter()
                .any(|(to, msg)| **to == NodeId::new(1) && matches!(msg, Msg::Commit { .. })),
            "commit must be forwarded to the surviving peer, got {sent:?}"
        );
        assert!(
            sent.iter().all(|(to, _)| **to != NodeId::new(2)),
            "never forwarded to the deserter itself"
        );
    }

    #[test]
    fn rejoining_suspect_receives_the_commit_it_missed() {
        let (mut p, a) = single_action(3);
        // O1 goes silent behind a partition; suspicion is raised.
        p.handle(Event::PeerSuspected {
            peer: NodeId::new(1),
        });
        // Meanwhile the resolution commits here.
        p.handle(Event::Msg(Msg::Exception {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        p.handle(Event::Msg(Msg::Commit {
            action: a,
            from: NodeId::new(2),
            exc: Exception::new(ExceptionId::new(2)),
        }));
        // The partition heals: the returning peer is owed the commit.
        let fx = p.handle(Event::PeerRejoined {
            peer: NodeId::new(1),
        });
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::PeerRejoined { peer, .. }) if *peer == NodeId::new(1))));
        let sent = sends(&fx);
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            sent[0],
            (to, Msg::Commit { .. }) if *to == NodeId::new(1)
        ));
        // The debt is settled: a second flap forwards nothing.
        p.handle(Event::PeerSuspected {
            peer: NodeId::new(1),
        });
        let again = p.handle(Event::PeerRejoined {
            peer: NodeId::new(1),
        });
        assert!(sends(&again).is_empty());
    }

    /// A0{O0,O1} ⊃ A1{O0} over `tree`, O0 inside both. With `explicit`,
    /// O0 gets a `recover_all` table for each action; without, none.
    fn default_handler_participant(
        tree: &Arc<caex_tree::ExceptionTree>,
        explicit: bool,
    ) -> (Participant, ActionId) {
        let mut reg = ActionRegistry::new();
        let a0 = reg
            .declare(ActionScope::top_level("A0", ids(2), Arc::clone(tree)))
            .unwrap();
        let a1 = reg
            .declare(ActionScope::nested(
                "A1",
                [NodeId::new(0)],
                Arc::clone(tree),
                a0,
            ))
            .unwrap();
        let mut p = Participant::new(NodeId::new(0), Arc::new(reg), NestedStrategy::Abort);
        if explicit {
            p.set_handlers(a0, HandlerTable::recover_all(Arc::clone(tree)));
            p.set_handlers(a1, HandlerTable::recover_all(Arc::clone(tree)));
        }
        p.handle(Event::Enter(a0));
        p.handle(Event::Enter(a1));
        (p, a0)
    }

    #[test]
    fn absent_handler_table_is_the_recover_all_default() {
        for depth in [3, 6] {
            let tree = Arc::new(caex_tree::balanced_tree(2, depth));
            let exc = Exception::new(*tree.leaves().last().unwrap());
            let (mut bare, a0) = default_handler_participant(&tree, false);
            let (mut tabled, _) = default_handler_participant(&tree, true);
            let raised = Event::Msg(Msg::Exception {
                action: a0,
                from: NodeId::new(1),
                exc: exc.clone(),
            });
            // Nested-abort path: A1 is aborted cleanly and for free.
            let aborted = bare.handle(raised.clone());
            assert_eq!(aborted, tabled.handle(raised), "depth {depth}");
            let done = Event::AbortionDone {
                action: a0,
                signal: None,
                epoch: 1,
            };
            assert!(aborted.contains(&Effect::After {
                delay: SimTime::ZERO,
                event: done.clone(),
            }));
            assert_eq!(bare.handle(done.clone()), tabled.handle(done));
            let commit = Event::Msg(Msg::Commit {
                action: a0,
                from: NodeId::new(1),
                exc: exc.clone(),
            });
            let committed = bare.handle(commit.clone());
            assert_eq!(committed, tabled.handle(commit), "depth {depth}");
            assert_eq!(
                committed,
                vec![
                    Effect::Note(Note::HandlerStarted {
                        object: NodeId::new(0),
                        action: a0,
                        exc,
                        will_signal: None,
                    }),
                    Effect::After {
                        delay: SimTime::ZERO,
                        event: Event::HandlerDone {
                            action: a0,
                            signal: None,
                        },
                    },
                ]
            );
            // The default is implicit: nothing was materialised.
            let tables =
                |p: &Participant| p.actions.iter().filter(|(_, r)| r.handlers.is_some()).count();
            assert_eq!(tables(&bare), 0, "depth {depth}");
            assert_eq!(tables(&tabled), 2);
            assert!(bare.clone_declarative().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "no handler for exception")]
    fn default_handlers_reject_an_exception_outside_the_tree() {
        let tree = Arc::new(caex_tree::balanced_tree(2, 3));
        let (mut p, a0) = default_handler_participant(&tree, false);
        p.handle(Event::Msg(Msg::Exception {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(tree.root()),
        }));
        p.handle(Event::Msg(Msg::Commit {
            action: a0,
            from: NodeId::new(1),
            exc: Exception::new(ExceptionId::new(tree.len() as u32)),
        }));
    }
}
