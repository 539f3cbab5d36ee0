//! Program lints: static replay of an [`ActionProgram`]'s step lists
//! (`CAEX010`–`CAEX014`), plus the declaration family over its
//! registry.

use crate::diag::{LintCode, Sink};
use caex::program::{ActionProgram, ProgramStep};
use caex_action::ActionId;

/// Lints an [`ActionProgram`] into `sink` by replaying each object's
/// step list against the declarations, without executing anything.
pub(crate) fn lint_program_into(sink: &mut Sink<'_>, program: &ActionProgram) {
    let registry = program.registry();
    let top = program.action();
    let Ok(top_scope) = registry.scope(top) else {
        sink.emit(
            LintCode::NonParticipantStep,
            top.to_string(),
            format!("program targets undeclared action {top}"),
        );
        return;
    };

    // Does any step anywhere introduce an exception? If so, handlers
    // can legitimately take over for objects that never complete, and
    // CAEX011 stays quiet.
    let any_fallible = program.objects().iter().any(|&o| {
        program
            .steps_of(o)
            .iter()
            .any(|s| matches!(s, ProgramStep::Check | ProgramStep::Raise(_)))
    });

    for object in program.objects() {
        let subject = format!("{top} ({})/{object}", top_scope.name());

        // CAEX013: a program for a stranger to the top action.
        if !top_scope.is_participant(object) {
            sink.emit(
                LintCode::NonParticipantStep,
                &subject,
                format!("program steps for {object}, which does not participate in {top}"),
            );
            continue;
        }

        // Replay: every participant starts inside the top action
        // (`run` enters all of them at time zero).
        let mut stack: Vec<ActionId> = vec![top];
        let mut completed = false;
        for step in program.steps_of(object) {
            if completed {
                sink.emit(
                    LintCode::EnterImbalance,
                    &subject,
                    "program continues after `complete()`; those steps can never run",
                );
                break;
            }
            match step {
                ProgramStep::Work(_) | ProgramStep::Check => {}
                ProgramStep::Raise(exc) => {
                    let innermost = *stack.last().expect("stack holds at least the top action");
                    let scope = registry
                        .scope(innermost)
                        .expect("entered actions are declared");
                    if !scope.tree().contains(exc) {
                        sink.emit(
                            LintCode::UndeclaredRaise,
                            &subject,
                            format!(
                                "raise of {exc}, which is not in the exception tree of \
                                 the active action {innermost}"
                            ),
                        );
                    } else if let Some(declared) = scope.declared_exceptions() {
                        if !declared.contains(&exc) {
                            sink.emit(
                                LintCode::UndeclaredRaise,
                                &subject,
                                format!(
                                    "raise of {exc}, which {innermost} does not declare \
                                     as raisable"
                                ),
                            );
                        }
                    }
                }
                ProgramStep::Enter(a) => {
                    let Ok(scope) = registry.scope(a) else {
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
                    let innermost = *stack.last().expect("non-empty");
                    if scope.parent() != Some(innermost) {
                        sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!(
                                "enter of {a}, which is not declared as directly nested \
                                 in the active action {innermost}"
                            ),
                        );
                    }
                    stack.push(a);
                }
                ProgramStep::Leave(a) => {
                    if stack.len() == 1 {
                        sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!("leave of {a} with no nested action active (use `complete()` for the top-level action)"),
                        );
                    } else if *stack.last().expect("non-empty") != a {
                        sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!(
                                "leave of {a} while {} is the innermost active action",
                                stack.last().expect("non-empty")
                            ),
                        );
                    } else {
                        stack.pop();
                    }
                }
                ProgramStep::Complete => {
                    if stack.len() > 1 {
                        sink.emit(
                            LintCode::EnterImbalance,
                            &subject,
                            format!(
                                "`complete()` while nested action {} is still active",
                                stack.last().expect("non-empty")
                            ),
                        );
                    }
                    completed = true;
                }
            }
        }

        // CAEX011: certain deadlock — no completion and nothing that
        // could hand control to the handlers.
        if !completed && !any_fallible {
            sink.emit(
                LintCode::NeverCompletes,
                &subject,
                format!(
                    "{object} enters {top} but its program never completes, and no step \
                     anywhere raises: the action can never commit"
                ),
            );
        }
    }

    // CAEX014 / CAEX011 for declared participants with no program.
    let programmed = program.objects();
    for &p in top_scope.participants() {
        if !programmed.contains(&p) {
            let subject = format!("{top} ({})/{p}", top_scope.name());
            sink.emit(
                LintCode::UnenteredParticipant,
                &subject,
                format!("declared participant {p} has no program; it is entered with {top} but contributes nothing"),
            );
            if !any_fallible {
                sink.emit(
                    LintCode::NeverCompletes,
                    &subject,
                    format!(
                        "{p} is entered into {top} with no program and never completes, \
                         and no step anywhere raises: the action can never commit"
                    ),
                );
            }
        }
    }

    // The declaration family over the program's context (a program
    // installs no handler tables of its own).
    let scopes: Vec<_> = registry.iter().map(|(id, s)| (id, s.clone())).collect();
    crate::decl::lint_scopes_into(sink, &scopes);
}
