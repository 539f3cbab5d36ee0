//! Scenario lints: static replay of a [`Scenario`]'s scripted timeline
//! (`CAEX010`–`CAEX013`), the handler family over its bindings, the
//! declaration family over its registry, and the tree family using the
//! *scripted raises* as the per-action raisable set.
//!
//! Scripted raises under-approximate the raisable set (handlers can
//! signal further exceptions at run time), so only lints that are
//! sound under an under-approximation run against them: a non-covering
//! *scripted* pair (`CAEX001`) really can collide, but an
//! unreachable-class report (`CAEX002`) would be speculation and is
//! left to the declaration family.

use crate::diag::{LintCode, Sink};
use caex::{Event, NestedStrategy, Scenario};
use caex_action::ActionId;
use caex_net::{NodeId, SimTime};
use caex_tree::ExceptionId;
use std::collections::HashMap;

pub(crate) fn lint_script_into(sink: &mut Sink<'_>, scenario: &Scenario) {
    let registry = scenario.registry().as_ref();

    // Sort the whole scripted timeline once (stable, so equal-time
    // events keep script order, matching the engine) and distribute it
    // to objects in a single linear sweep; the per-object lists come
    // out time-ordered for free.
    let mut timeline: Vec<(SimTime, NodeId, &Event)> = scenario.scripted().collect();
    timeline.sort_by_key(|(t, _, _)| *t);
    let mut per_object: HashMap<NodeId, Vec<&Event>> = HashMap::new();
    for (_, object, event) in timeline {
        per_object.entry(object).or_default().push(event);
    }
    let mut objects: Vec<NodeId> = per_object.keys().copied().collect();
    objects.sort_unstable();

    // Raises actually scripted, attributed to the innermost action the
    // raiser has entered at that time; also: does any action's family
    // see a raise (if so, handlers take over and CAEX011 stays quiet).
    let mut raised_in: HashMap<ActionId, Vec<ExceptionId>> = HashMap::new();
    let any_raise = scenario
        .scripted()
        .any(|(_, _, e)| matches!(e, Event::Raise(_)));

    for &object in &objects {
        let mut stack: Vec<ActionId> = Vec::new();
        for &event in &per_object[&object] {
            match event {
                Event::Enter(a) => {
                    let subject = format!("{a}/{object}");
                    let Ok(scope) = registry.scope(*a) else {
                        sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!("enter of undeclared action {a}"),
                        );
                        continue;
                    };
                    if !scope.is_participant(object) {
                        sink.emit(
                            LintCode::NonParticipantStep,
                            &subject,
                            format!("{object} enters {a} without participating in it"),
                        );
                    }
                    match (scope.parent(), stack.last()) {
                        (None, Some(active)) => sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!(
                                "{object} enters top-level action {a} while already \
                                 inside {active}"
                            ),
                        ),
                        (Some(parent), active) if active != Some(&parent) => sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!(
                                "enter of {a} requires its parent {parent} to be the \
                                 innermost active action (innermost: {:?})",
                                active
                            ),
                        ),
                        _ => {}
                    }
                    stack.push(*a);
                }
                Event::Complete(a) => {
                    let subject = format!("{a}/{object}");
                    match stack.last() {
                        Some(&innermost) if innermost == *a => {
                            stack.pop();
                        }
                        Some(&innermost) => sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!(
                                "complete of {a} while {innermost} is the innermost \
                                 active action"
                            ),
                        ),
                        None => sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!("complete of {a}, which {object} never entered"),
                        ),
                    }
                }
                Event::Raise(exc) => match stack.last() {
                    None => sink.emit(
                        LintCode::UndeclaredRaise,
                        format!("{object}"),
                        format!("raise of {} outside any action", exc.id()),
                    ),
                    Some(&innermost) => {
                        let scope = registry
                            .scope(innermost)
                            .expect("entered actions are declared");
                        let subject = format!("{innermost}/{object}");
                        if !scope.tree().contains(exc.id()) {
                            sink.emit(
                                LintCode::UndeclaredRaise,
                                &subject,
                                format!(
                                    "raise of {}, which is not in the exception tree of \
                                     the active action {innermost}",
                                    exc.id()
                                ),
                            );
                        } else {
                            if let Some(declared) = scope.declared_exceptions() {
                                if !declared.contains(&exc.id()) {
                                    sink.emit(
                                        LintCode::UndeclaredRaise,
                                        &subject,
                                        format!(
                                            "raise of {}, which {innermost} does not \
                                             declare as raisable",
                                            exc.id()
                                        ),
                                    );
                                }
                            }
                            raised_in.entry(innermost).or_default().push(exc.id());
                        }
                    }
                },
                // Only Enter/Complete/Raise are scriptable through the
                // builders; anything else is engine-internal.
                _ => {}
            }
        }

        // CAEX011: entered, never completed, and nothing anywhere can
        // raise — the scenario can only deadlock.
        if !any_raise {
            for &open in &stack {
                sink.emit(
                    LintCode::NeverCompletes,
                    format!("{open}/{object}"),
                    format!(
                        "{object} enters {open} but never completes it, and the script \
                         raises nothing: the action can never commit"
                    ),
                );
            }
        }
    }

    // Tree family per action over the *scripted* raise sets (CAEX002
    // is unsound here, see the module docs — allow it away locally).
    for (action, raisables) in {
        let mut entries: Vec<_> = raised_in.into_iter().collect();
        entries.sort_by_key(|(a, _)| *a);
        entries
    } {
        let scope = registry.scope(action).expect("attributed above");
        let subject = format!("{action} ({}) scripted raises", scope.name());
        // Concurrency matters for CAEX001, duplicates do not: the same
        // class raised twice resolves to itself.
        let mut distinct = raisables;
        distinct.sort_unstable();
        distinct.dedup();
        for (a, b) in scope.tree().non_covering_pairs(&distinct) {
            sink.emit(
                LintCode::NonCoveringPair,
                &subject,
                format!(
                    "scripted raises {a} and {b} only meet at the universal exception: \
                     if they collide, resolution loses all diagnosis"
                ),
            );
        }
    }

    // nested_remaining declarations: the Wait-strategy inputs get the
    // same static scrutiny as handler bindings. A declaration for an
    // undeclared action or a stranger is CAEX013 (it can never be
    // consulted); for a top-level action it is CAEX007 (only nested
    // actions are caught by an outer resolution); and a `None`
    // (never-completes) declaration under the Wait strategy is CAEX011
    // — the Fig. 1(a) configuration where the enclosing resolution
    // waits forever.
    let strategy = scenario.strategy();
    for (object, action, remaining) in scenario.nested_remaining_declared() {
        let Ok(scope) = registry.scope(action) else {
            sink.emit(
                LintCode::NonParticipantStep,
                format!("{action}/{object}"),
                format!("nested_remaining declared for undeclared action {action}"),
            );
            continue;
        };
        let subject = format!("{action} ({})/{object}", scope.name());
        if !scope.is_participant(object) {
            sink.emit(
                LintCode::NonParticipantStep,
                &subject,
                format!(
                    "nested_remaining declared for {object}, which does not participate \
                     in {action}"
                ),
            );
        }
        if scope.parent().is_none() {
            sink.emit(
                LintCode::ScopeContainment,
                &subject,
                format!(
                    "nested_remaining declared for top-level action {action}: only \
                     nested actions are caught by an enclosing resolution, so the \
                     declaration can never be consulted"
                ),
            );
        }
        if remaining.is_none() && strategy == NestedStrategy::Wait {
            sink.emit(
                LintCode::NeverCompletes,
                &subject,
                format!(
                    "{action} is declared to never complete at {object} while the \
                     scenario waits for nested actions instead of aborting them: an \
                     enclosing resolution that catches it waits forever (Fig. 1a)"
                ),
            );
        }
    }

    // Declaration family over the registry (includes the per-tree
    // structural lints), then the handler family over the bindings.
    let scopes: Vec<_> = registry.iter().map(|(id, s)| (id, s.clone())).collect();
    crate::decl::lint_scopes_into(sink, &scopes);
    crate::decl::lint_handlers_into(sink, registry, scenario.handler_tables());
}
