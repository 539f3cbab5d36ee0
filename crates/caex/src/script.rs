//! What runs, as opposed to over which network — and the one place a
//! participant is configured from it.
//!
//! A [`Script`] is an action structure, its scripted timeline and the
//! per-participant settings. Every host brings it to life the same
//! way: [`Script::num_nodes`] sizes the mesh, [`Script::participant`]
//! hands out each node's configured [`Participant`], and the timeline
//! goes to the host's timers (all of it onto the simulator's net, or
//! [`Script::steps_for`] one node's drive loop). A [`crate::Scenario`]
//! carries one script; so does each fleet instance, and
//! [`crate::Scenario::for_port_host`] hands it to the hosts that run
//! without a central manager.

use crate::{Event, LeaveMode, NestedStrategy, Participant};
use caex_action::{ActionId, ActionRegistry, HandlerTable};
use caex_net::{NodeId, SimTime};
use std::sync::Arc;

/// See the module documentation.
#[derive(Debug)]
pub struct Script {
    pub(crate) registry: Arc<ActionRegistry>,
    /// The timeline as `(time, object, event)`, in script order; times
    /// are offsets from the run's (or the instance's) start. A host
    /// may re-time it before running it (`caex-wire` clamps to zero).
    pub steps: Vec<(SimTime, NodeId, Event)>,
    pub(crate) handlers: Vec<(NodeId, ActionId, HandlerTable)>,
    pub(crate) nested_remaining: Vec<(NodeId, ActionId, Option<SimTime>)>,
    pub(crate) strategy: NestedStrategy,
    pub(crate) resolver_group: u32,
    pub(crate) leave_mode: LeaveMode,
    pub(crate) failover: bool,
}

impl Script {
    /// The mesh size: the highest participant index of any declared
    /// action, plus one.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.registry
            .iter()
            .flat_map(|(_, s)| s.participants().iter().copied())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// A fresh participant for `node`, configured as the script says:
    /// strategy, resolver group, leave mode, failover, the node's
    /// nested run times and its handler tables — moved out of the
    /// script, since `HandlerTable` is not `Clone`, so each node is
    /// handed out once.
    pub fn participant(&mut self, node: NodeId) -> Participant {
        let mut p = Participant::new(node, Arc::clone(&self.registry), self.strategy);
        p.set_resolver_group(self.resolver_group);
        p.set_leave_mode(self.leave_mode);
        p.set_failover(self.failover);
        let mut i = 0;
        while i < self.handlers.len() {
            if self.handlers[i].0 == node {
                let (_, action, table) = self.handlers.remove(i);
                p.set_handlers(action, table);
            } else {
                i += 1;
            }
        }
        for &(object, action, remaining) in &self.nested_remaining {
            if object == node {
                p.set_nested_remaining(action, remaining);
            }
        }
        p
    }

    /// `node`'s part of the timeline, in script order — what a
    /// per-node drive loop ([`crate::drive`]) takes.
    #[must_use]
    pub fn steps_for(&self, node: NodeId) -> Vec<(SimTime, Event)> {
        self.steps
            .iter()
            .filter(|(_, object, _)| *object == node)
            .map(|(time, _, event)| (*time, event.clone()))
            .collect()
    }

    /// Plays the failure detector: `delay` after each `(time, victim)`
    /// down edge every other node is told the victim deserted. The
    /// reports go ahead of the scripted steps (at equal times they fire
    /// first); with failover off nothing is reported.
    pub(crate) fn report_crashes(
        &mut self,
        down: impl IntoIterator<Item = (SimTime, NodeId)>,
        delay: SimTime,
    ) {
        if !self.failover {
            return;
        }
        let nodes = self.num_nodes();
        let mut reports = Vec::new();
        for (at, victim) in down {
            for survivor in (0..nodes).map(NodeId::new).filter(|s| *s != victim) {
                let report = Event::DeserterSuspected { peer: victim };
                reports.push((at + delay, survivor, report));
            }
        }
        self.steps.splice(0..0, reports);
    }

    /// A copy whose handler tables are declarative copies — what the
    /// model checker forks its worlds from.
    ///
    /// # Errors
    ///
    /// Names the first `(object, action)` binding whose table holds an
    /// opaque closure.
    pub fn clone_declarative(&self) -> Result<Script, (NodeId, ActionId)> {
        let handlers = self
            .handlers
            .iter()
            .map(|(object, action, table)| {
                let copy = table.clone_declarative().ok_or((*object, *action))?;
                Ok((*object, *action, copy))
            })
            .collect::<Result<_, _>>()?;
        Ok(Script {
            registry: Arc::clone(&self.registry),
            steps: self.steps.clone(),
            handlers,
            nested_remaining: self.nested_remaining.clone(),
            strategy: self.strategy,
            resolver_group: self.resolver_group,
            leave_mode: self.leave_mode,
            failover: self.failover,
        })
    }
}
