//! `caex-lint` — static protocol analysis over exception trees, action
//! declarations and programs.
//!
//! The dynamic engine (`caex`) verifies the exception-resolution
//! protocol of Romanovsky, Xu & Randell's *Exception Handling and
//! Resolution in Distributed Object-Oriented Systems* by executing
//! scenarios. This crate checks the *static* obligations the paper
//! states about the declarations themselves, before anything runs:
//!
//! - **tree lints** (`CAEX001`–`CAEX005`): a pair of raisables whose
//!   LCA is the universal exception predicts the §4.2 resolution
//!   fallback; unreachable classes, duplicate raisables and degenerate
//!   shapes predict dead weight;
//! - **declaration lints** (`CAEX006`–`CAEX009`): §3.3 handler
//!   totality, §3.1 nested-scope containment, abortion-handler presence
//!   for nested actions, declared-raisables ⊆ tree;
//! - **program/scenario lints** (`CAEX010`–`CAEX014`): raises of
//!   undeclared classes, participants that enter but can never
//!   complete, unbalanced enter/complete structure, steps by strangers.
//!
//! Every lint has a stable code, a default severity (warn or deny) and
//! a per-lint override in [`LintConfig`]. Reports come back as a
//! machine-readable [`LintReport`] and render to text with
//! [`LintReport::render`].
//!
//! [`explore::lint_then_explore`] combines this with `caex`'s dynamic
//! seed sweep and reports any scenario family that is lint-clean yet
//! dynamically unsafe — each such case is a gap in this analysis.
//!
//! # Examples
//!
//! ```
//! use caex_lint::{LintCode, Linter};
//! use caex_tree::{chain_tree, ExceptionId};
//!
//! // A chain tree is flagged as adding no discrimination:
//! let report = Linter::new().lint_tree(&chain_tree(6), None);
//! assert!(report.fired(LintCode::DegenerateChain));
//!
//! // A duplicate raisable is an error:
//! let e1 = ExceptionId::new(1);
//! let report = Linter::new().lint_tree(&chain_tree(6), Some(&[e1, e1]));
//! assert!(report.has_denials());
//! ```

mod decl;
mod diag;
pub mod explore;
pub mod model;
mod program;
mod scenario;
mod tree;

pub use diag::{Diagnostic, LintCode, LintConfig, LintLevel, LintReport, Severity};
pub use model::{ModelLimits, ModelOptions, ModelReport, ModelStats, ModelViolation};
pub use tree::MAX_DEPTH;

use caex::program::ActionProgram;
use caex::Scenario;
use caex_action::{ActionId, ActionRegistry, ActionScope, HandlerTable};
use caex_net::NodeId;
use caex_tree::{ExceptionId, ExceptionTree, ReducedTree};

/// The linter: a [`LintConfig`] plus one entry point per analysis
/// family.
#[derive(Debug, Clone, Default)]
pub struct Linter {
    config: LintConfig,
}

impl Linter {
    /// A linter with every lint at its default severity.
    #[must_use]
    pub fn new() -> Self {
        Linter::default()
    }

    /// A linter with the given configuration.
    #[must_use]
    pub fn with_config(config: LintConfig) -> Self {
        Linter { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Tree lints (`CAEX001`–`CAEX005`) over one tree and an optional
    /// raisable set. Without a raisable set only the structural lints
    /// (`CAEX004`, `CAEX005`) can fire.
    #[must_use]
    pub fn lint_tree(&self, tree: &ExceptionTree, raisables: Option<&[ExceptionId]>) -> LintReport {
        let mut sink = diag::Sink::new(&self.config);
        tree::lint_tree_into(&mut sink, "tree", tree, raisables);
        sink.finish()
    }

    /// Declaration lints (`CAEX007`, `CAEX009` + tree family) over a
    /// validated registry.
    #[must_use]
    pub fn lint_registry(&self, registry: &ActionRegistry) -> LintReport {
        let scopes: Vec<_> = registry.iter().map(|(id, s)| (id, s.clone())).collect();
        self.lint_scopes(&scopes)
    }

    /// Declaration lints over raw `(id, scope)` pairs — accepts
    /// declarations the registry's own `declare`-time validation would
    /// reject, reporting them as `CAEX007` instead.
    #[must_use]
    pub fn lint_scopes(&self, scopes: &[(ActionId, ActionScope)]) -> LintReport {
        let mut sink = diag::Sink::new(&self.config);
        decl::lint_scopes_into(&mut sink, scopes);
        let mut report = sink.finish();
        report.dedup();
        report
    }

    /// Handler lints (`CAEX006`, `CAEX008`, `CAEX013`) over explicit
    /// handler-table bindings.
    #[must_use]
    pub fn lint_handlers<'a, I>(&self, registry: &ActionRegistry, bindings: I) -> LintReport
    where
        I: IntoIterator<Item = (NodeId, ActionId, &'a HandlerTable)>,
    {
        let mut sink = diag::Sink::new(&self.config);
        decl::lint_handlers_into(&mut sink, registry, bindings);
        sink.finish()
    }

    /// The full battery over an [`ActionProgram`]: static replay of
    /// each object's steps plus the declaration family.
    #[must_use]
    pub fn lint_program(&self, program: &ActionProgram) -> LintReport {
        let mut sink = diag::Sink::new(&self.config);
        program::lint_program_into(&mut sink, program);
        let mut report = sink.finish();
        report.dedup();
        report
    }

    /// The full battery over a [`Scenario`]: static replay of the
    /// scripted timeline plus the declaration and handler families.
    #[must_use]
    pub fn lint_scenario(&self, scenario: &Scenario) -> LintReport {
        let mut sink = diag::Sink::new(&self.config);
        scenario::lint_script_into(&mut sink, scenario);
        let mut report = sink.finish();
        report.dedup();
        report
    }

    /// Bounded explicit-state model checking (`CAEX015`–`CAEX018`)
    /// over a [`Scenario`]: every message interleaving within the
    /// budgets is enumerated, safety is checked on each commit against
    /// the [`ExceptionTree::resolve`] oracle, quiescent states must
    /// leave every object normal, and (with
    /// [`ModelOptions::crash_sweep`]) the elected resolver is crashed
    /// after every step of the canonical run. Violations come back
    /// both as diagnostics (with the counterexample trace rendered as
    /// `help:` spans) and structurally in the [`ModelReport`].
    #[must_use]
    pub fn model_check(
        &self,
        scenario: &Scenario,
        options: &ModelOptions,
    ) -> (LintReport, ModelReport) {
        let mut sink = diag::Sink::new(&self.config);
        let model = model::check_scenario_into(&mut sink, scenario, options);
        (sink.finish(), model)
    }

    /// Static worst-case analysis of a Campbell–Randell configuration
    /// (`CAEX019`): predicts the §3.3 domino over interleaved reduced
    /// trees by a fixpoint over `closest_handled_ancestor`, escalating
    /// to deny severity when the domino destroys all diagnosis.
    #[must_use]
    pub fn lint_cr(
        &self,
        tree: &ExceptionTree,
        reduced: &[ReducedTree],
        initial: &[(NodeId, ExceptionId)],
    ) -> LintReport {
        let mut sink = diag::Sink::new(&self.config);
        model::lint_cr_domino_into(&mut sink, tree, reduced, initial);
        sink.finish()
    }
}
