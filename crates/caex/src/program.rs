//! A Result-based programming model over scenarios.
//!
//! The paper assumes a language with native exceptions; Rust signals
//! errors through `Result`. This module bridges the two: each
//! participating object's work inside a CA action is written as a
//! *program* of steps whose fallible steps return
//! `Result<(), Exception>` — an `Err` becomes a raise at the exact
//! virtual time the step executes. Programs compile down to a
//! [`Scenario`], so the full protocol machinery (resolution, nested
//! abortion, handlers) runs underneath.
//!
//! # Examples
//!
//! ```
//! use caex::program::ActionProgram;
//! use caex_action::{ActionRegistry, ActionScope};
//! use caex_net::{NodeId, SimTime};
//! use caex_tree::{chain_tree, Exception, ExceptionId};
//! use std::sync::Arc;
//!
//! let tree = Arc::new(chain_tree(3));
//! let mut reg = ActionRegistry::new();
//! let job = reg.declare(ActionScope::top_level(
//!     "job", (0..3).map(NodeId::new), Arc::clone(&tree),
//! )).unwrap();
//!
//! let mut program = ActionProgram::new(Arc::new(reg), job);
//! program
//!     .object(NodeId::new(0))
//!     .work(SimTime::from_micros(100))
//!     .check(|| Ok(()))                       // fine
//!     .work(SimTime::from_micros(50))
//!     .complete();
//! program
//!     .object(NodeId::new(1))
//!     .work(SimTime::from_micros(80))
//!     .check(|| Err(Exception::new(ExceptionId::new(1))))  // fails!
//!     .complete();
//! program
//!     .object(NodeId::new(2))
//!     .work(SimTime::from_micros(200))
//!     .complete();
//!
//! let report = program.run();
//! // Object 1's Err became a raise; the action resolved it everywhere.
//! assert_eq!(report.resolutions.len(), 1);
//! assert_eq!(report.handlers_for(job).len(), 3);
//! ```

use crate::{RunReport, Scenario};
use caex_action::{ActionId, ActionRegistry};
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::Exception;
use std::collections::HashMap;
use std::sync::Arc;

enum Step {
    Work(SimTime),
    Check(Box<dyn FnOnce() -> Result<(), Exception> + Send>),
    Raise(Exception),
    Enter(ActionId),
    Leave(ActionId),
    Complete,
}

/// A statically inspectable view of one program step, exposed through
/// [`ActionProgram::steps_of`] so analysis passes (e.g. `caex-lint`)
/// can examine a program without executing it.
///
/// `Check` closures are opaque: whether one fails is only known at run
/// time, so the view records their presence but not their outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramStep {
    /// Compute for the given virtual duration.
    Work(SimTime),
    /// A fallible step with a run-time-only outcome.
    Check,
    /// An unconditional raise of the given class.
    Raise(caex_tree::ExceptionId),
    /// Enter a nested action.
    Enter(ActionId),
    /// Finish participation in a nested action.
    Leave(ActionId),
    /// Finish participation in the top-level action.
    Complete,
}

/// Builder handle for one object's program; returned by
/// [`ActionProgram::object`].
pub struct ObjectProgram<'a> {
    steps: &'a mut Vec<Step>,
}

impl std::fmt::Debug for ObjectProgram<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectProgram")
            .field("steps", &self.steps.len())
            .finish()
    }
}

impl ObjectProgram<'_> {
    /// Compute for `duration` of virtual time.
    pub fn work(&mut self, duration: SimTime) -> &mut Self {
        self.steps.push(Step::Work(duration));
        self
    }

    /// A fallible step: `Err(exc)` raises `exc` in the object's active
    /// action at the step's virtual time; `Ok(())` continues normally.
    pub fn check<F>(&mut self, step: F) -> &mut Self
    where
        F: FnOnce() -> Result<(), Exception> + Send + 'static,
    {
        self.steps.push(Step::Check(Box::new(step)));
        self
    }

    /// Unconditionally raise `exc` at the step's virtual time. Unlike
    /// [`ObjectProgram::check`], the raised class is statically known,
    /// so protocol analysers can validate it against the action's
    /// declared exceptions before the program ever runs.
    pub fn raise(&mut self, exc: Exception) -> &mut Self {
        self.steps.push(Step::Raise(exc));
        self
    }

    /// Enter a nested action (must be declared with this object as a
    /// participant and nested in the currently active action).
    pub fn enter(&mut self, action: ActionId) -> &mut Self {
        self.steps.push(Step::Enter(action));
        self
    }

    /// Finish the object's part in the given nested action.
    pub fn leave(&mut self, action: ActionId) -> &mut Self {
        self.steps.push(Step::Leave(action));
        self
    }

    /// Finish the object's part in the top-level action.
    pub fn complete(&mut self) -> &mut Self {
        self.steps.push(Step::Complete);
        self
    }
}

/// A deterministic multi-object program over one top-level CA action.
/// See the [module documentation](self).
pub struct ActionProgram {
    registry: Arc<ActionRegistry>,
    action: ActionId,
    programs: HashMap<NodeId, Vec<Step>>,
    config: NetConfig,
    start: SimTime,
}

impl std::fmt::Debug for ActionProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionProgram")
            .field("action", &self.action)
            .field("objects", &self.programs.len())
            .finish()
    }
}

impl ActionProgram {
    /// Starts a program for the given top-level `action`.
    #[must_use]
    pub fn new(registry: Arc<ActionRegistry>, action: ActionId) -> Self {
        ActionProgram {
            registry,
            action,
            programs: HashMap::new(),
            config: NetConfig::default(),
            start: SimTime::from_micros(1),
        }
    }

    /// Replaces the network configuration.
    #[must_use]
    pub fn with_config(mut self, config: NetConfig) -> Self {
        self.config = config;
        self
    }

    /// Begins (or continues) the program of `object`.
    pub fn object(&mut self, object: NodeId) -> ObjectProgram<'_> {
        ObjectProgram {
            steps: self.programs.entry(object).or_default(),
        }
    }

    /// The action structure this program runs over.
    #[must_use]
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.registry
    }

    /// The top-level action being programmed.
    #[must_use]
    pub fn action(&self) -> ActionId {
        self.action
    }

    /// The objects that have a (possibly empty) program, sorted.
    #[must_use]
    pub fn objects(&self) -> Vec<NodeId> {
        let mut objects: Vec<NodeId> = self.programs.keys().copied().collect();
        objects.sort_unstable();
        objects
    }

    /// A static view of `object`'s program, step by step, for analysis
    /// passes. Empty when the object has no program.
    #[must_use]
    pub fn steps_of(&self, object: NodeId) -> Vec<ProgramStep> {
        self.programs
            .get(&object)
            .map(|steps| {
                steps
                    .iter()
                    .map(|s| match s {
                        Step::Work(d) => ProgramStep::Work(*d),
                        Step::Check(_) => ProgramStep::Check,
                        Step::Raise(exc) => ProgramStep::Raise(exc.id()),
                        Step::Enter(a) => ProgramStep::Enter(*a),
                        Step::Leave(a) => ProgramStep::Leave(*a),
                        Step::Complete => ProgramStep::Complete,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Compiles the programs to a scenario and executes it.
    ///
    /// Virtual time advances per object as its `work` steps prescribe;
    /// `check` failures raise at the accumulated time. (A raise
    /// suspends the object, so any *later* steps of a failed object are
    /// naturally overtaken by the resolution — they are scheduled but
    /// arrive as suppressed events, matching the paper's model where
    /// handlers "take over the duties of participating objects".)
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid programs (entering undeclared
    /// actions), as the underlying scenario would.
    #[must_use]
    pub fn run(self) -> RunReport {
        let mut scenario = Scenario::new(Arc::clone(&self.registry))
            .with_config(self.config)
            .enter_all_at(SimTime::ZERO, self.action);
        for (object, steps) in self.programs {
            let mut clock = self.start;
            for step in steps {
                match step {
                    Step::Work(d) => clock += d,
                    Step::Check(f) => {
                        if let Err(exc) = f() {
                            scenario = scenario.raise_at(clock, object, exc);
                        }
                    }
                    Step::Raise(exc) => {
                        scenario = scenario.raise_at(clock, object, exc);
                    }
                    Step::Enter(a) => {
                        scenario = scenario.enter_at(clock, object, a);
                        // Structural steps take one tick so the
                        // synchronized-leave grant of a nested action
                        // lands before the object's next structural
                        // step at equal virtual time.
                        clock += SimTime::from_micros(1);
                    }
                    Step::Leave(a) => {
                        scenario = scenario.complete_at(clock, object, a);
                        clock += SimTime::from_micros(1);
                    }
                    Step::Complete => {
                        scenario = scenario.complete_at(clock, object, self.action);
                        clock += SimTime::from_micros(1);
                    }
                }
            }
        }
        scenario.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_action::ActionScope;
    use caex_tree::{chain_tree, ExceptionId};

    fn setup(n: u32) -> (Arc<ActionRegistry>, ActionId) {
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("job", (0..n).map(NodeId::new), tree))
            .unwrap();
        (Arc::new(reg), a)
    }

    #[test]
    fn all_ok_programs_complete_without_messages() {
        let (reg, job) = setup(3);
        let mut program = ActionProgram::new(reg, job);
        for i in 0..3 {
            program
                .object(NodeId::new(i))
                .work(SimTime::from_micros(100 * (i as u64 + 1)))
                .check(|| Ok(()))
                .complete();
        }
        let report = program.run();
        assert!(report.is_clean());
        assert_eq!(report.total_messages(), 0);
        assert!(report.resolutions.is_empty());
    }

    #[test]
    fn err_check_raises_at_its_virtual_time() {
        let (reg, job) = setup(2);
        let mut program = ActionProgram::new(reg, job);
        program
            .object(NodeId::new(0))
            .work(SimTime::from_millis(5))
            .check(|| Err(Exception::new(ExceptionId::new(2))))
            .complete();
        program
            .object(NodeId::new(1))
            .work(SimTime::from_millis(50))
            .complete();
        let report = program.run();
        let r = report.resolutions.first().expect("resolution");
        assert_eq!(r.resolved.id(), ExceptionId::new(2));
        // The raise happened at ~5ms, well before object 1's completion.
        assert!(report.notes.iter().any(|n| matches!(
            n,
            crate::Note::Raised { object, .. } if *object == NodeId::new(0)
        )));
    }

    #[test]
    fn concurrent_errs_resolve_to_covering_exception() {
        let (reg, job) = setup(3);
        let mut program = ActionProgram::new(reg, job);
        program
            .object(NodeId::new(0))
            .work(SimTime::from_micros(10))
            .check(|| Err(Exception::new(ExceptionId::new(2))))
            .complete();
        program
            .object(NodeId::new(2))
            .work(SimTime::from_micros(10))
            .check(|| Err(Exception::new(ExceptionId::new(4))))
            .complete();
        let report = program.run();
        let r = &report.resolutions[0];
        // Chain tree: lca(e2, e4) = e2.
        assert_eq!(r.resolved.id(), ExceptionId::new(2));
        assert_eq!(r.resolver, NodeId::new(2));
        assert_eq!(report.handlers_for(job).len(), 3);
    }

    #[test]
    fn steps_after_a_failed_check_are_overtaken() {
        let (reg, job) = setup(2);
        let mut program = ActionProgram::new(reg, job);
        program
            .object(NodeId::new(0))
            .check(|| Err(Exception::new(ExceptionId::new(1))))
            .work(SimTime::from_millis(10))
            // This later raise must be suppressed: the object is
            // already exceptional.
            .check(|| Err(Exception::new(ExceptionId::new(3))))
            .complete();
        program.object(NodeId::new(1)).complete();
        let report = program.run();
        assert_eq!(report.resolutions.len(), 1);
        assert_eq!(report.resolutions[0].resolved.id(), ExceptionId::new(1));
        assert_eq!(report.suppressed_raises(), 1);
    }

    #[test]
    fn nested_calls_compile_to_enter_leave() {
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let outer = reg
            .declare(ActionScope::top_level(
                "outer",
                (0..2).map(NodeId::new),
                Arc::clone(&tree),
            ))
            .unwrap();
        let inner = reg
            .declare(ActionScope::nested("inner", [NodeId::new(1)], tree, outer))
            .unwrap();
        let mut program = ActionProgram::new(Arc::new(reg), outer);
        program
            .object(NodeId::new(1))
            .work(SimTime::from_micros(10))
            .enter(inner)
            .work(SimTime::from_micros(10))
            .leave(inner)
            .complete();
        program.object(NodeId::new(0)).complete();
        let report = program.run();
        assert!(report.is_clean());
        assert!(report.notes.iter().any(|n| matches!(
            n,
            crate::Note::Completed { action, .. } if *action == inner
        )));
    }

    #[test]
    fn err_inside_nested_call_aborts_it_from_outside() {
        // Object 0 fails in the outer action while object 1 is inside
        // the nested action: abortion machinery engages through the
        // program layer too.
        let tree = Arc::new(chain_tree(4));
        let mut reg = ActionRegistry::new();
        let outer = reg
            .declare(ActionScope::top_level(
                "outer",
                (0..2).map(NodeId::new),
                Arc::clone(&tree),
            ))
            .unwrap();
        let inner = reg
            .declare(ActionScope::nested("inner", [NodeId::new(1)], tree, outer))
            .unwrap();
        let mut program = ActionProgram::new(Arc::new(reg), outer);
        program
            .object(NodeId::new(0))
            .work(SimTime::from_micros(50))
            .check(|| Err(Exception::new(ExceptionId::new(1))))
            .complete();
        program
            .object(NodeId::new(1))
            .enter(inner)
            .work(SimTime::from_millis(100)) // long nested work
            .leave(inner)
            .complete();
        let report = program.run();
        assert!(report.is_clean());
        assert!(report.notes.iter().any(|n| matches!(
            n,
            crate::Note::AbortedNested { object, .. } if *object == NodeId::new(1)
        )));
        assert_eq!(report.resolutions.len(), 1);
    }
}
