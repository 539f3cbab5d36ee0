//! Per-operation correctness checks. Every operation of every
//! workload goes through [`check`]; a failed operation is counted,
//! never retried, and stays in every denominator.

use caex_tree::ExceptionId;
use std::fmt;

/// What a correct operation must be seen to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Participants of the action: each starts one handler.
    pub handlers: usize,
    /// The outside oracle `ExceptionTree::resolve(raised)`.
    pub resolved: ExceptionId,
    /// The §4.4 law `(N−1)(2P+3Q+1)` for the raised set's size.
    pub messages: u64,
}

/// What one operation (action instance or mesh round) was seen to do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observed {
    /// The operation ran to completion: resolution committed, every
    /// started handler finished, all participants back to normal.
    pub completed: bool,
    /// The exception the resolver committed.
    pub resolved: Option<ExceptionId>,
    /// The exception each started handler handled, when the host can
    /// see handler starts (`None` behind `FleetEngine::run`, whose
    /// report carries only the committed exception).
    pub handled: Option<Vec<ExceptionId>>,
    /// Protocol messages sent on behalf of the operation.
    pub messages: u64,
}

/// Why an operation counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// It did not complete (within the round cap, on the mesh).
    Incomplete,
    /// Not exactly `N` handlers started.
    HandlerCount {
        /// Handlers seen to start.
        got: usize,
        /// Participants of the action.
        want: usize,
    },
    /// Two participants handled different exceptions.
    Disagreement,
    /// Resolution chose something other than the outside oracle
    /// `ExceptionTree::resolve(raised)`.
    WrongResolution {
        /// What the system resolved to.
        got: Option<ExceptionId>,
        /// The oracle's answer.
        want: ExceptionId,
    },
    /// The message count broke the §4.4 law `(N−1)(2P+3Q+1)`.
    LawBroken {
        /// Messages counted.
        got: u64,
        /// The law's prediction.
        want: u64,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Incomplete => f.write_str("did not complete"),
            Failure::HandlerCount { got, want } => {
                write!(f, "{got} handlers started, expected {want}")
            }
            Failure::Disagreement => f.write_str("participants handled different exceptions"),
            Failure::WrongResolution { got, want } => {
                write!(f, "resolved to {got:?}, the oracle says {want}")
            }
            Failure::LawBroken { got, want } => {
                write!(f, "{got} messages, the law says {want}")
            }
        }
    }
}

/// Checks one operation against what it was expected to do.
///
/// # Errors
///
/// The first [`Failure`] found, in the order: completion, handler
/// count, agreement, oracle, message law.
pub fn check(want: &Expected, seen: &Observed) -> Result<(), Failure> {
    if !seen.completed {
        return Err(Failure::Incomplete);
    }
    if let Some(handled) = &seen.handled {
        if handled.len() != want.handlers {
            return Err(Failure::HandlerCount {
                got: handled.len(),
                want: want.handlers,
            });
        }
        if handled.windows(2).any(|pair| pair[0] != pair[1]) {
            return Err(Failure::Disagreement);
        }
        if handled[0] != want.resolved {
            return Err(Failure::WrongResolution {
                got: Some(handled[0]),
                want: want.resolved,
            });
        }
    }
    if seen.resolved != Some(want.resolved) {
        return Err(Failure::WrongResolution {
            got: seen.resolved,
            want: want.resolved,
        });
    }
    if seen.messages != want.messages {
        return Err(Failure::LawBroken {
            got: seen.messages,
            want: want.messages,
        });
    }
    Ok(())
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Failed operations that produced a *wrong answer* — the wrong
    /// number of handlers, disagreement, or a resolution other than
    /// the oracle's. These make the run incorrect whatever their
    /// share; an incomplete operation or a broken message law is a
    /// failure counted against the workload's allowance.
    pub wrong: u64,
}

impl Tally {
    /// Counts one checked operation, logging the first few failures.
    pub fn record(&mut self, what: &str, op: u64, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(failure) = result {
            self.failed += 1;
            if !matches!(failure, Failure::Incomplete | Failure::LawBroken { .. }) {
                self.wrong += 1;
            }
            if self.failed <= 5 {
                eprintln!("FAILED {what} operation {op}: {failure}");
            }
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Failed operations over operations attempted.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{workload, Inputs};

    fn good(want: &Expected) -> Observed {
        Observed {
            completed: true,
            resolved: Some(want.resolved),
            handled: Some(vec![want.resolved; want.handlers]),
            messages: want.messages,
        }
    }

    #[test]
    fn a_correct_operation_passes() {
        let inputs = Inputs::new(workload("fleet_wide").unwrap());
        let plan = &inputs.fleet_batch(1, 0, 1)[0];
        let want = inputs.expected(&plan.raised);
        assert_eq!((want.handlers, want.messages), (16, 435));
        assert_eq!(check(&want, &good(&want)), Ok(()));
    }

    #[test]
    fn a_deliberately_wrong_oracle_is_caught() {
        let inputs = Inputs::new(workload("fleet_wide").unwrap());
        let plan = &inputs.fleet_batch(1, 0, 1)[0];
        let truth = inputs.expected(&plan.raised);
        // "Resolve to the first raised leaf" is the priority-style
        // answer the paper argues against; it never covers the set.
        let wrong = Expected {
            resolved: plan.raised[0],
            ..truth
        };
        assert_ne!(wrong.resolved, truth.resolved);
        assert_eq!(
            check(&wrong, &good(&truth)),
            Err(Failure::WrongResolution {
                got: Some(truth.resolved),
                want: wrong.resolved
            })
        );
    }

    #[test]
    fn the_expectation_follows_the_set_actually_raised() {
        // A raise suppressed on a late thread leaves one raiser: the
        // oracle is then that exception itself, and the law is P = 1's.
        let inputs = Inputs::new(workload("mesh_threads").unwrap());
        let plan = inputs.mesh_round(1, 0);
        let both = inputs.expected(&plan.raised);
        let one = inputs.expected(&plan.raised[..1]);
        assert_eq!((both.messages, one.messages), (16, 12));
        assert_eq!(one.resolved, plan.raised[0]);
        assert_ne!(both.resolved, one.resolved);
    }

    #[test]
    fn each_failure_kind_is_reported() {
        let want = Expected {
            handlers: 3,
            resolved: ExceptionId::new(1),
            messages: 16,
        };
        let ok = good(&want);
        let e1 = want.resolved;
        let cases = [
            (
                Observed {
                    completed: false,
                    ..ok.clone()
                },
                Failure::Incomplete,
            ),
            (
                Observed {
                    handled: Some(vec![e1; 2]),
                    ..ok.clone()
                },
                Failure::HandlerCount { got: 2, want: 3 },
            ),
            (
                Observed {
                    handled: Some(vec![e1, e1, ExceptionId::new(2)]),
                    ..ok.clone()
                },
                Failure::Disagreement,
            ),
            (
                Observed {
                    resolved: None,
                    ..ok.clone()
                },
                Failure::WrongResolution {
                    got: None,
                    want: e1,
                },
            ),
            (
                Observed {
                    messages: 17,
                    ..ok.clone()
                },
                Failure::LawBroken { got: 17, want: 16 },
            ),
        ];
        let mut tally = Tally::default();
        for (i, (seen, failure)) in cases.into_iter().enumerate() {
            let result = check(&want, &seen);
            assert_eq!(result, Err(failure));
            tally.record("test", i as u64, result);
        }
        tally.record("test", 9, check(&want, &ok));
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 5,
                wrong: 3
            }
        );
    }
}
