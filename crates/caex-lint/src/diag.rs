//! The diagnostics engine: stable lint codes, severities, per-lint
//! configuration and the rendered / machine-readable report.

use std::fmt;

/// Every lint the analyser knows, with a stable `CAEXnnn` code.
///
/// Codes are append-only: a code, once published, never changes meaning
/// (tooling and allow-lists depend on that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `CAEX001` — two raisable classes whose LCA is the universal
    /// (root) exception: concurrent resolution degenerates to "anything
    /// went wrong" (§4.2 fallback).
    NonCoveringPair,
    /// `CAEX002` — a class on no root path of any raisable: it can
    /// never be raised nor resolved to.
    UnreachableClass,
    /// `CAEX003` — the same class listed twice in a raisable set.
    DuplicateRaisable,
    /// `CAEX004` — the tree is one long chain; concurrent resolution
    /// always picks the shallower class, so the hierarchy adds nothing.
    DegenerateChain,
    /// `CAEX005` — the tree is deeper than any handler hierarchy
    /// plausibly discriminates.
    ExcessiveDepth,
    /// `CAEX006` — an explicit handler table misses a handler for a
    /// declared exception (§3.3 totality: the engine panics at invoke
    /// time on exactly this gap).
    HandlerTotality,
    /// `CAEX007` — a nested action's participants are not a subset of
    /// its parent's (§3.1).
    ScopeContainment,
    /// `CAEX008` — an explicit table for a nested action's participant
    /// has no abortion handler, though nested actions abort during
    /// resolution (§4.1).
    MissingAbortionHandler,
    /// `CAEX009` — a declared raisable class that is not in the
    /// action's exception tree.
    UndeclaredException,
    /// `CAEX010` — a raise of a class outside the active action's tree
    /// or declared set, or outside any action at all.
    UndeclaredRaise,
    /// `CAEX011` — a participant enters the action but can never
    /// complete it (and no fallible step exists whose handlers could
    /// take over): a guaranteed deadlock.
    NeverCompletes,
    /// `CAEX012` — unbalanced enter/leave/complete structure (leaving
    /// an action that is not the innermost, completing with a nested
    /// action still open, steps after completion).
    EnterImbalance,
    /// `CAEX013` — a program step or handler table for an object that
    /// does not participate in the action.
    NonParticipantStep,
    /// `CAEX014` — a declared participant with no program at all; it
    /// is entered with the action but contributes nothing.
    UnenteredParticipant,
    /// `CAEX015` — the model checker found a reachable interleaving
    /// ending in a state where some participant is stuck mid-resolution
    /// (deadlock-freedom violated).
    ModelDeadlock,
    /// `CAEX016` — the model checker found a reachable interleaving in
    /// which an exception was raised but no resolution ever commits
    /// (resolution termination violated).
    ModelUnresolved,
    /// `CAEX017` — a reachable resolution commits an exception that is
    /// not the least common ancestor of the raised set, or participants
    /// disagree on the committed class (cross-checked against the
    /// `ExceptionTree::resolve` oracle).
    ModelWrongResolution,
    /// `CAEX018` — crashing the resolver at some step of resolution
    /// leaves a reachable interleaving in which the survivors never
    /// finish (resolver-crash survivability violated).
    ModelCrashVulnerable,
    /// `CAEX019` — under the Campbell–Randell baseline's interleaved
    /// reduced trees, a single raise can domino through re-raises at
    /// third-party objects; reports the worst-case domino depth.
    CrDominoDepth,
}

impl LintCode {
    /// All codes, in code order.
    pub const ALL: [LintCode; 19] = [
        LintCode::NonCoveringPair,
        LintCode::UnreachableClass,
        LintCode::DuplicateRaisable,
        LintCode::DegenerateChain,
        LintCode::ExcessiveDepth,
        LintCode::HandlerTotality,
        LintCode::ScopeContainment,
        LintCode::MissingAbortionHandler,
        LintCode::UndeclaredException,
        LintCode::UndeclaredRaise,
        LintCode::NeverCompletes,
        LintCode::EnterImbalance,
        LintCode::NonParticipantStep,
        LintCode::UnenteredParticipant,
        LintCode::ModelDeadlock,
        LintCode::ModelUnresolved,
        LintCode::ModelWrongResolution,
        LintCode::ModelCrashVulnerable,
        LintCode::CrDominoDepth,
    ];

    /// The stable `CAEXnnn` code string.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::NonCoveringPair => "CAEX001",
            LintCode::UnreachableClass => "CAEX002",
            LintCode::DuplicateRaisable => "CAEX003",
            LintCode::DegenerateChain => "CAEX004",
            LintCode::ExcessiveDepth => "CAEX005",
            LintCode::HandlerTotality => "CAEX006",
            LintCode::ScopeContainment => "CAEX007",
            LintCode::MissingAbortionHandler => "CAEX008",
            LintCode::UndeclaredException => "CAEX009",
            LintCode::UndeclaredRaise => "CAEX010",
            LintCode::NeverCompletes => "CAEX011",
            LintCode::EnterImbalance => "CAEX012",
            LintCode::NonParticipantStep => "CAEX013",
            LintCode::UnenteredParticipant => "CAEX014",
            LintCode::ModelDeadlock => "CAEX015",
            LintCode::ModelUnresolved => "CAEX016",
            LintCode::ModelWrongResolution => "CAEX017",
            LintCode::ModelCrashVulnerable => "CAEX018",
            LintCode::CrDominoDepth => "CAEX019",
        }
    }

    /// Short kebab-case name, as shown in `--list` and used in prose.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintCode::NonCoveringPair => "non-covering-pair",
            LintCode::UnreachableClass => "unreachable-class",
            LintCode::DuplicateRaisable => "duplicate-raisable",
            LintCode::DegenerateChain => "degenerate-chain",
            LintCode::ExcessiveDepth => "excessive-depth",
            LintCode::HandlerTotality => "handler-totality",
            LintCode::ScopeContainment => "scope-containment",
            LintCode::MissingAbortionHandler => "missing-abortion-handler",
            LintCode::UndeclaredException => "undeclared-exception",
            LintCode::UndeclaredRaise => "undeclared-raise",
            LintCode::NeverCompletes => "never-completes",
            LintCode::EnterImbalance => "enter-imbalance",
            LintCode::NonParticipantStep => "non-participant-step",
            LintCode::UnenteredParticipant => "unentered-participant",
            LintCode::ModelDeadlock => "model-deadlock",
            LintCode::ModelUnresolved => "model-unresolved",
            LintCode::ModelWrongResolution => "model-wrong-resolution",
            LintCode::ModelCrashVulnerable => "model-crash-vulnerable",
            LintCode::CrDominoDepth => "cr-domino-depth",
        }
    }

    /// The severity this lint fires at unless overridden.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::NonCoveringPair
            | LintCode::DuplicateRaisable
            | LintCode::HandlerTotality
            | LintCode::ScopeContainment
            | LintCode::UndeclaredException
            | LintCode::UndeclaredRaise
            | LintCode::NeverCompletes
            | LintCode::EnterImbalance
            | LintCode::NonParticipantStep
            | LintCode::ModelDeadlock
            | LintCode::ModelUnresolved
            | LintCode::ModelWrongResolution
            | LintCode::ModelCrashVulnerable => Severity::Deny,
            LintCode::UnreachableClass
            | LintCode::DegenerateChain
            | LintCode::ExcessiveDepth
            | LintCode::MissingAbortionHandler
            | LintCode::UnenteredParticipant
            // Advisory by default: the baseline is provided for
            // comparison, so a bad reduced-tree split should not fail
            // builds of programs that run the main engine. Escalated to
            // deny by the analysis itself when the domino reaches the
            // whole interleaving (see `model::lint_cr_domino`).
            | LintCode::CrDominoDepth => Severity::Warn,
        }
    }

    /// Parses a `CAEXnnn` code or kebab-case name.
    #[must_use]
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// How serious a fired lint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: reported, does not fail the run.
    Warn,
    /// Error: fails the run (the CLI exits nonzero).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warning",
            Severity::Deny => "error",
        })
    }
}

/// Per-lint level override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Suppress the lint entirely.
    Allow,
    /// Fire at warning severity.
    Warn,
    /// Fire at error severity.
    Deny,
}

/// Lint configuration: per-code level overrides plus a global
/// warnings-as-errors switch.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: Vec<(LintCode, LintLevel)>,
    deny_warnings: bool,
}

impl LintConfig {
    /// The default configuration (every lint at its default severity).
    #[must_use]
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Suppresses `code` entirely.
    #[must_use]
    pub fn allow(mut self, code: LintCode) -> Self {
        self.overrides.push((code, LintLevel::Allow));
        self
    }

    /// Forces `code` to warning severity.
    #[must_use]
    pub fn warn(mut self, code: LintCode) -> Self {
        self.overrides.push((code, LintLevel::Warn));
        self
    }

    /// Forces `code` to error severity.
    #[must_use]
    pub fn deny(mut self, code: LintCode) -> Self {
        self.overrides.push((code, LintLevel::Deny));
        self
    }

    /// Escalates every warning to an error (per-code `allow` still
    /// suppresses).
    #[must_use]
    pub fn deny_warnings(mut self) -> Self {
        self.deny_warnings = true;
        self
    }

    /// The severity `code` currently fires at, or `None` if allowed
    /// away. Later overrides win over earlier ones.
    #[must_use]
    pub fn severity_of(&self, code: LintCode) -> Option<Severity> {
        self.severity_from(code, code.default_severity())
    }

    /// Like [`severity_of`](Self::severity_of) but with the lint's
    /// baseline severity raised to `floor` — used by analyses that
    /// escalate a normally-advisory finding when it crosses a
    /// worst-case threshold. Explicit per-code overrides still win.
    pub(crate) fn severity_at_least(&self, code: LintCode, floor: Severity) -> Option<Severity> {
        self.severity_from(code, code.default_severity().max(floor))
    }

    fn severity_from(&self, code: LintCode, default: Severity) -> Option<Severity> {
        let level = self
            .overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|(_, l)| *l);
        let severity = match level {
            Some(LintLevel::Allow) => return None,
            Some(LintLevel::Warn) => Severity::Warn,
            Some(LintLevel::Deny) => Severity::Deny,
            None => default,
        };
        if self.deny_warnings && severity == Severity::Warn {
            Some(Severity::Deny)
        } else {
            Some(severity)
        }
    }
}

/// One fired lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity after configuration.
    pub severity: Severity,
    /// What the lint is about (an action, object or tree), for grouping.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
    /// Fix-it guidance: concrete repair steps or the counterexample
    /// trace behind the finding, rendered as indented `help:` spans
    /// below the diagnostic line. Empty for most lints.
    pub help: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity,
            self.code.code(),
            self.subject,
            self.message
        )?;
        for line in &self.help {
            write!(f, "\n  help: {line}")?;
        }
        Ok(())
    }
}

/// The machine-readable result of a lint pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every fired diagnostic, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        LintReport::default()
    }

    /// `true` when nothing fired at any severity.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one error-severity diagnostic fired.
    #[must_use]
    pub fn has_denials(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// The error-severity diagnostics.
    #[must_use]
    pub(crate) fn denials(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .collect()
    }

    /// `true` when some diagnostic fired with the given code.
    #[must_use]
    pub fn fired(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Appends another report's diagnostics.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Drops exact duplicate diagnostics (same code, subject and
    /// message), preserving first-occurrence order. Scopes sharing one
    /// tree would otherwise repeat every tree lint.
    pub fn dedup(&mut self) {
        let mut seen: Vec<Diagnostic> = Vec::new();
        self.diagnostics.retain(|d| {
            if seen.contains(d) {
                false
            } else {
                seen.push(d.clone());
                true
            }
        });
    }

    /// Renders the report as the CLI prints it: one line per
    /// diagnostic plus a summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.denials().len();
        let warnings = self.diagnostics.len() - errors;
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            errors, warnings
        ));
        out
    }
}

/// Collects diagnostics subject to a [`LintConfig`] — the single entry
/// point every analysis family reports through.
#[derive(Debug)]
pub(crate) struct Sink<'a> {
    config: &'a LintConfig,
    report: LintReport,
}

impl<'a> Sink<'a> {
    pub(crate) fn new(config: &'a LintConfig) -> Self {
        Sink {
            config,
            report: LintReport::new(),
        }
    }

    /// Fires `code` unless the configuration allows it away.
    pub(crate) fn emit(&mut self, code: LintCode, subject: impl Into<String>, message: impl Into<String>) {
        self.emit_with_help(code, subject, message, Vec::new());
    }

    /// Fires `code` with attached `help:` spans (fix-it suggestions or
    /// a counterexample trace).
    pub(crate) fn emit_with_help(
        &mut self,
        code: LintCode,
        subject: impl Into<String>,
        message: impl Into<String>,
        help: Vec<String>,
    ) {
        if let Some(severity) = self.config.severity_of(code) {
            self.report.diagnostics.push(Diagnostic {
                code,
                severity,
                subject: subject.into(),
                message: message.into(),
                help,
            });
        }
    }

    /// Fires `code` with its baseline severity raised to `floor`
    /// (explicit configuration overrides still win) — the severity
    /// tuning used when an advisory lint crosses a worst-case
    /// threshold.
    pub(crate) fn emit_escalated(
        &mut self,
        code: LintCode,
        floor: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
        help: Vec<String>,
    ) {
        if let Some(severity) = self.config.severity_at_least(code, floor) {
            self.report.diagnostics.push(Diagnostic {
                code,
                severity,
                subject: subject.into(),
                message: message.into(),
                help,
            });
        }
    }

    pub(crate) fn finish(self) -> LintReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parseable() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.code()), Some(code));
            assert_eq!(LintCode::parse(code.name()), Some(code));
        }
        assert_eq!(LintCode::parse("CAEX999"), None);
        assert_eq!(LintCode::NonCoveringPair.code(), "CAEX001");
        assert_eq!(LintCode::UnenteredParticipant.code(), "CAEX014");
        assert_eq!(LintCode::CrDominoDepth.code(), "CAEX019");
        assert_eq!(LintCode::ALL.len(), 19);
    }

    #[test]
    fn help_spans_render_indented() {
        let config = LintConfig::new();
        let mut sink = Sink::new(&config);
        sink.emit_with_help(
            LintCode::NonCoveringPair,
            "tree",
            "e1 and e2 resolve to the root",
            vec!["insert a grouping class".into(), "then re-lint".into()],
        );
        let text = sink.finish().render();
        assert!(text.contains("error[CAEX001]"));
        assert!(text.contains("\n  help: insert a grouping class\n"));
        assert!(text.contains("\n  help: then re-lint\n"));
    }

    #[test]
    fn escalation_raises_the_floor_but_respects_overrides() {
        let config = LintConfig::new();
        let mut sink = Sink::new(&config);
        sink.emit_escalated(
            LintCode::CrDominoDepth,
            Severity::Deny,
            "cr",
            "domino spans every class",
            Vec::new(),
        );
        let report = sink.finish();
        assert!(report.has_denials());
        // An explicit warn override wins over the escalation...
        let config = LintConfig::new().warn(LintCode::CrDominoDepth);
        let mut sink = Sink::new(&config);
        sink.emit_escalated(
            LintCode::CrDominoDepth,
            Severity::Deny,
            "cr",
            "x",
            Vec::new(),
        );
        assert!(!sink.finish().has_denials());
        // ...and allow suppresses it entirely.
        let config = LintConfig::new().allow(LintCode::CrDominoDepth);
        let mut sink = Sink::new(&config);
        sink.emit_escalated(
            LintCode::CrDominoDepth,
            Severity::Deny,
            "cr",
            "x",
            Vec::new(),
        );
        assert!(sink.finish().is_clean());
    }

    #[test]
    fn config_overrides_apply_last_wins() {
        let config = LintConfig::new()
            .allow(LintCode::DegenerateChain)
            .deny(LintCode::DegenerateChain);
        assert_eq!(
            config.severity_of(LintCode::DegenerateChain),
            Some(Severity::Deny)
        );
        let config = LintConfig::new().allow(LintCode::HandlerTotality);
        assert_eq!(config.severity_of(LintCode::HandlerTotality), None);
    }

    #[test]
    fn deny_warnings_escalates() {
        let config = LintConfig::new().deny_warnings();
        assert_eq!(
            config.severity_of(LintCode::ExcessiveDepth),
            Some(Severity::Deny)
        );
        // allow still wins
        let config = LintConfig::new()
            .deny_warnings()
            .allow(LintCode::ExcessiveDepth);
        assert_eq!(config.severity_of(LintCode::ExcessiveDepth), None);
    }

    #[test]
    fn report_renders_and_counts() {
        let config = LintConfig::new();
        let mut sink = Sink::new(&config);
        sink.emit(LintCode::DegenerateChain, "tree", "chain of 6");
        sink.emit(LintCode::HandlerTotality, "A1/O1", "missing handler");
        let report = sink.finish();
        assert!(!report.is_clean());
        assert!(report.has_denials());
        assert_eq!(report.denials().len(), 1);
        let text = report.render();
        assert!(text.contains("warning[CAEX004]"));
        assert!(text.contains("error[CAEX006]"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }
}
