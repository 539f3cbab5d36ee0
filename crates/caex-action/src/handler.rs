//! Handler tables: a participant's responses to the exceptions of one
//! CA action.

use crate::ActionError;
use caex_net::SimTime;
use caex_tree::{Exception, ExceptionId, ExceptionTree};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What a (non-abortion) exception handler achieved — the termination
/// model of §3.1: "handlers take over the duties of participating
/// objects in a CA action and complete the action either successfully
/// or by signalling a failure exception to the containing action".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandlerOutcome {
    /// Cooperative recovery succeeded; the action completes normally.
    Recovered,
    /// Recovery failed; signal this failure exception to the containing
    /// action.
    Signal(Exception),
}

/// What an abortion handler achieved when its nested action was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortionOutcome {
    /// The nested action was undone without raising anything further.
    Aborted,
    /// The abortion handler signals this exception to the containing
    /// action (only honoured for the *directly* nested action, §4.1).
    Signal(Exception),
}

type Handler = Box<dyn FnMut(&Exception) -> HandlerOutcome + Send>;
type AbortionHandler = Box<dyn FnMut() -> AbortionOutcome + Send>;

/// How a handler was installed: declaratively (pure data — cheap to
/// copy and introspect) or as an opaque user closure.
enum Installed {
    Declared(HandlerOutcome),
    Opaque(Handler),
}

enum InstalledAbortion {
    Declared(AbortionOutcome),
    Opaque(AbortionHandler),
}

/// One participant's handlers for one CA action.
///
/// The paper's central structural assumption (§3.3) is that **every
/// participant has a handler for every exception declared with the
/// action** — this is what removes the CR algorithm's "third source" of
/// exceptions and its domino effect. [`validate_complete`] enforces it.
///
/// Each handler carries a virtual-time cost so the simulator can account
/// for handler execution time (the paper notes resolution "may suffer
/// some delays because of the execution of abortion handlers", §4.4).
///
/// [`validate_complete`]: HandlerTable::validate_complete
///
/// # Examples
///
/// ```
/// use caex_action::{HandlerOutcome, HandlerTable};
/// use caex_net::SimTime;
/// use caex_tree::{aircraft_tree, Exception};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), caex_action::ActionError> {
/// let tree = Arc::new(aircraft_tree());
/// let emergency = tree.id_of("emergency_engine_loss_exception").unwrap();
/// let mut table = HandlerTable::recover_all(Arc::clone(&tree));
/// table.on(emergency, SimTime::from_micros(500), |_exc| {
///     HandlerOutcome::Recovered
/// });
/// table.validate_complete()?;
/// let (outcome, cost) = table.invoke(&Exception::new(emergency));
/// assert_eq!(outcome, HandlerOutcome::Recovered);
/// assert_eq!(cost, SimTime::from_micros(500));
/// # Ok(())
/// # }
/// ```
pub struct HandlerTable {
    tree: Arc<ExceptionTree>,
    handlers: HashMap<ExceptionId, (Installed, SimTime)>,
    abortion: Option<(InstalledAbortion, SimTime)>,
}

impl fmt::Debug for HandlerTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerTable")
            .field("exceptions", &self.tree.len())
            .field("handlers", &self.handlers.len())
            .field("has_abortion_handler", &self.abortion.is_some())
            .finish()
    }
}

impl HandlerTable {
    /// Creates an empty table over `tree`. Must be filled (or created
    /// via [`recover_all`](Self::recover_all)) before it passes
    /// [`validate_complete`](Self::validate_complete).
    #[must_use]
    pub fn new(tree: Arc<ExceptionTree>) -> Self {
        HandlerTable {
            tree,
            handlers: HashMap::new(),
            abortion: None,
        }
    }

    /// Creates a table with a zero-cost `Recovered` handler for every
    /// exception in the tree and a zero-cost clean abortion handler —
    /// a valid baseline to override selectively. The baseline is fully
    /// declarative (see [`clone_declarative`](Self::clone_declarative)).
    #[must_use]
    pub fn recover_all(tree: Arc<ExceptionTree>) -> Self {
        let mut table = HandlerTable::new(tree);
        for id in table.tree.clone().iter() {
            table.on_outcome(id, SimTime::ZERO, HandlerOutcome::Recovered);
        }
        table.on_abort_outcome(SimTime::ZERO, AbortionOutcome::Aborted);
        table
    }

    /// The exception tree this table covers.
    #[must_use]
    pub fn tree(&self) -> &Arc<ExceptionTree> {
        &self.tree
    }

    /// Registers (or replaces) the handler for `exception`, with the
    /// given virtual-time execution cost.
    pub fn on<F>(&mut self, exception: ExceptionId, cost: SimTime, handler: F)
    where
        F: FnMut(&Exception) -> HandlerOutcome + Send + 'static,
    {
        // An arbitrary closure may be stateful or input-dependent; its
        // behavior cannot be stated as data.
        self.handlers
            .insert(exception, (Installed::Opaque(Box::new(handler)), cost));
    }

    /// Registers (or replaces) the handler for `exception` as a fixed,
    /// stated outcome rather than an opaque closure.
    ///
    /// Declaratively installed handlers behave identically to closures
    /// at run time, but their behavior stays data and the table
    /// copyable ([`clone_declarative`](Self::clone_declarative)) — which
    /// is what allows the static model checker to explore a scenario's
    /// handler responses without executing user code.
    pub fn on_outcome(&mut self, exception: ExceptionId, cost: SimTime, outcome: HandlerOutcome) {
        self.handlers
            .insert(exception, (Installed::Declared(outcome), cost));
    }

    /// Registers a handler by the exception's declared *name* — the
    /// ergonomic form for trees built with
    /// [`ExceptionTree::parse`](caex_tree::ExceptionTree::parse).
    ///
    /// # Errors
    ///
    /// Returns the tree's error if `name` is not declared.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_action::{HandlerOutcome, HandlerTable};
    /// use caex_net::SimTime;
    /// use caex_tree::ExceptionTree;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let tree = Arc::new(ExceptionTree::parse("root(overload)")?);
    /// let mut table = HandlerTable::recover_all(Arc::clone(&tree));
    /// table.on_named("overload", SimTime::ZERO, |_| HandlerOutcome::Recovered)?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn on_named<F>(
        &mut self,
        name: &str,
        cost: SimTime,
        handler: F,
    ) -> Result<(), caex_tree::TreeError>
    where
        F: FnMut(&Exception) -> HandlerOutcome + Send + 'static,
    {
        let id = self.tree.id_of(name)?;
        self.on(id, cost, handler);
        Ok(())
    }

    /// Registers (or replaces) the abortion handler for this action.
    pub fn on_abort<F>(&mut self, cost: SimTime, handler: F)
    where
        F: FnMut() -> AbortionOutcome + Send + 'static,
    {
        self.abortion = Some((InstalledAbortion::Opaque(Box::new(handler)), cost));
    }

    /// Registers (or replaces) the abortion handler as a fixed, stated
    /// outcome — the declarative counterpart of
    /// [`on_abort`](Self::on_abort), see
    /// [`on_outcome`](Self::on_outcome).
    pub fn on_abort_outcome(&mut self, cost: SimTime, outcome: AbortionOutcome) {
        self.abortion = Some((InstalledAbortion::Declared(outcome), cost));
    }

    /// Builds an independent copy of a fully declarative table.
    ///
    /// Handler tables may hold boxed closures and are deliberately not
    /// `Clone`; a declarative table's behavior is pure data, so a
    /// faithful copy *can* be materialized — without allocating any
    /// closures, which keeps the model checker's state forks cheap.
    /// Returns `None` when any handler is opaque.
    #[must_use]
    pub fn clone_declarative(&self) -> Option<HandlerTable> {
        let mut handlers = HashMap::with_capacity(self.handlers.len());
        for (&id, (installed, cost)) in &self.handlers {
            match installed {
                Installed::Declared(outcome) => {
                    handlers.insert(id, (Installed::Declared(outcome.clone()), *cost));
                }
                Installed::Opaque(_) => return None,
            }
        }
        let abortion = match &self.abortion {
            None => None,
            Some((InstalledAbortion::Declared(outcome), cost)) => {
                Some((InstalledAbortion::Declared(outcome.clone()), *cost))
            }
            Some((InstalledAbortion::Opaque(_), _)) => return None,
        };
        Some(HandlerTable {
            tree: Arc::clone(&self.tree),
            handlers,
            abortion,
        })
    }

    /// `true` if a specific handler is registered for `exception`.
    #[must_use]
    pub fn handles(&self, exception: ExceptionId) -> bool {
        self.handlers.contains_key(&exception)
    }

    /// `true` if an abortion handler is registered.
    #[must_use]
    pub fn has_abortion_handler(&self) -> bool {
        self.abortion.is_some()
    }

    /// Verifies the paper's completeness requirement: a handler for
    /// every exception declared in the action's tree.
    ///
    /// # Errors
    ///
    /// Returns [`ActionError::MissingHandler`] naming the first
    /// uncovered exception.
    pub fn validate_complete(&self) -> Result<(), ActionError> {
        for id in self.tree.iter() {
            if !self.handlers.contains_key(&id) {
                return Err(ActionError::MissingHandler { exception: id });
            }
        }
        Ok(())
    }

    /// Invokes the handler for the occurrence's exception class and
    /// returns its outcome together with its virtual-time cost.
    ///
    /// # Panics
    ///
    /// Panics if no handler is registered for the class — call
    /// [`validate_complete`](Self::validate_complete) at setup time; a
    /// missing handler at invocation time is a programming error, which
    /// is exactly the failure mode the paper's completeness assumption
    /// exists to exclude.
    pub fn invoke(&mut self, occurrence: &Exception) -> (HandlerOutcome, SimTime) {
        let (handler, cost) = self
            .handlers
            .get_mut(&occurrence.id())
            .unwrap_or_else(|| panic!("no handler for exception {}", occurrence.id()));
        let outcome = match handler {
            Installed::Declared(outcome) => outcome.clone(),
            Installed::Opaque(closure) => closure(occurrence),
        };
        (outcome, *cost)
    }

    /// Invokes the abortion handler, returning its outcome and cost.
    /// Without a registered handler the abort is treated as clean and
    /// free.
    pub fn invoke_abortion(&mut self) -> (AbortionOutcome, SimTime) {
        match &mut self.abortion {
            Some((InstalledAbortion::Declared(outcome), cost)) => (outcome.clone(), *cost),
            Some((InstalledAbortion::Opaque(closure), cost)) => (closure(), *cost),
            None => (AbortionOutcome::Aborted, SimTime::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_tree::{aircraft_tree, chain_tree};

    #[test]
    fn empty_table_fails_validation() {
        let table = HandlerTable::new(Arc::new(chain_tree(2)));
        assert!(matches!(
            table.validate_complete(),
            Err(ActionError::MissingHandler { .. })
        ));
    }

    #[test]
    fn recover_all_passes_validation() {
        let table = HandlerTable::recover_all(Arc::new(chain_tree(5)));
        assert!(table.validate_complete().is_ok());
        assert!(table.has_abortion_handler());
    }

    #[test]
    fn invoke_dispatches_to_registered_handler() {
        let tree = Arc::new(aircraft_tree());
        let left = tree.id_of("left_engine_exception").unwrap();
        let mut table = HandlerTable::recover_all(Arc::clone(&tree));
        table.on(left, SimTime::from_micros(7), move |exc| {
            HandlerOutcome::Signal(exc.clone())
        });
        let occurrence = Exception::new(left).with_origin("test");
        let (outcome, cost) = table.invoke(&occurrence);
        assert_eq!(outcome, HandlerOutcome::Signal(occurrence));
        assert_eq!(cost, SimTime::from_micros(7));
    }

    #[test]
    fn handlers_can_mutate_captured_state() {
        let tree = Arc::new(chain_tree(1));
        let e1 = ExceptionId::new(1);
        let mut table = HandlerTable::recover_all(Arc::clone(&tree));
        let mut calls = 0;
        table.on(e1, SimTime::ZERO, move |_| {
            calls += 1;
            if calls < 2 {
                HandlerOutcome::Signal(Exception::new(e1))
            } else {
                HandlerOutcome::Recovered
            }
        });
        assert!(matches!(
            table.invoke(&Exception::new(e1)).0,
            HandlerOutcome::Signal(_)
        ));
        assert_eq!(
            table.invoke(&Exception::new(e1)).0,
            HandlerOutcome::Recovered
        );
    }

    #[test]
    #[should_panic(expected = "no handler for exception")]
    fn invoke_without_handler_panics() {
        let mut table = HandlerTable::new(Arc::new(chain_tree(1)));
        table.invoke(&Exception::new(ExceptionId::new(1)));
    }

    #[test]
    fn abortion_defaults_to_clean() {
        let mut table = HandlerTable::new(Arc::new(chain_tree(1)));
        assert!(!table.has_abortion_handler());
        let (outcome, cost) = table.invoke_abortion();
        assert_eq!(outcome, AbortionOutcome::Aborted);
        assert_eq!(cost, SimTime::ZERO);
    }

    #[test]
    fn abortion_can_signal() {
        let tree = Arc::new(chain_tree(2));
        let e2 = ExceptionId::new(2);
        let mut table = HandlerTable::recover_all(Arc::clone(&tree));
        table.on_abort(SimTime::from_micros(11), move || {
            AbortionOutcome::Signal(Exception::new(e2))
        });
        let (outcome, cost) = table.invoke_abortion();
        assert_eq!(outcome, AbortionOutcome::Signal(Exception::new(e2)));
        assert_eq!(cost, SimTime::from_micros(11));
    }

    #[test]
    fn debug_shows_coverage() {
        let table = HandlerTable::recover_all(Arc::new(chain_tree(2)));
        let shown = format!("{table:?}");
        assert!(shown.contains("handlers"));
    }

    #[test]
    fn recover_all_is_fully_declarative() {
        let table = HandlerTable::recover_all(Arc::new(chain_tree(3)));
        assert!(table.clone_declarative().is_some());
        for id in table.tree().clone().iter() {
            assert!(matches!(
                table.handlers.get(&id),
                Some((Installed::Declared(HandlerOutcome::Recovered), _))
            ));
        }
        assert!(matches!(
            table.abortion,
            Some((InstalledAbortion::Declared(AbortionOutcome::Aborted), _))
        ));
    }

    #[test]
    fn opaque_closures_forfeit_declarativeness() {
        let tree = Arc::new(chain_tree(2));
        let e1 = ExceptionId::new(1);
        let mut table = HandlerTable::recover_all(Arc::clone(&tree));
        table.on(e1, SimTime::ZERO, |_| HandlerOutcome::Recovered);
        assert!(table.clone_declarative().is_none());
        // Re-declaring restores it.
        table.on_outcome(e1, SimTime::ZERO, HandlerOutcome::Recovered);
        assert!(table.clone_declarative().is_some());
        let mut opaque_abort = HandlerTable::recover_all(tree);
        opaque_abort.on_abort(SimTime::ZERO, || AbortionOutcome::Aborted);
        assert!(opaque_abort.clone_declarative().is_none());
    }

    #[test]
    fn declarative_clone_replays_outcomes_and_costs() {
        let tree = Arc::new(chain_tree(3));
        let e1 = ExceptionId::new(1);
        let e3 = ExceptionId::new(3);
        let mut table = HandlerTable::recover_all(Arc::clone(&tree));
        table.on_outcome(
            e1,
            SimTime::from_micros(9),
            HandlerOutcome::Signal(Exception::new(e3)),
        );
        table.on_abort_outcome(
            SimTime::from_micros(4),
            AbortionOutcome::Signal(Exception::new(e1)),
        );
        let mut copy = table.clone_declarative().unwrap();
        assert!(copy.validate_complete().is_ok());
        let (outcome, cost) = copy.invoke(&Exception::new(e1));
        assert_eq!(outcome, HandlerOutcome::Signal(Exception::new(e3)));
        assert_eq!(cost, SimTime::from_micros(9));
        let (abort, abort_cost) = copy.invoke_abortion();
        assert_eq!(abort, AbortionOutcome::Signal(Exception::new(e1)));
        assert_eq!(abort_cost, SimTime::from_micros(4));
    }
}
