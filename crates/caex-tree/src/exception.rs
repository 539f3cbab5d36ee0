//! The exception value carried by resolution messages.

use crate::ExceptionId;
use std::fmt;
use std::sync::Arc;

/// Coarse severity attached to an exception occurrence.
///
/// Severity does not participate in resolution (the paper resolves purely
/// through the exception tree's partial order); it is diagnostic metadata
/// used by traces and examples.
///
/// # Examples
///
/// ```
/// use caex_tree::Severity;
///
/// assert!(Severity::Fatal > Severity::Recoverable);
/// assert_eq!(Severity::default(), Severity::Recoverable);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Severity {
    /// The raising object expects cooperative recovery to succeed.
    #[default]
    Recoverable,
    /// Recovery may require aborting nested actions.
    Serious,
    /// The raising object expects the enclosing action to fail.
    Fatal,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Recoverable => "recoverable",
            Severity::Serious => "serious",
            Severity::Fatal => "fatal",
        };
        f.write_str(s)
    }
}

/// An exception *occurrence*: one raising of an exception class.
///
/// The class identity ([`ExceptionId`]) is what resolution operates on;
/// the remaining fields describe this particular occurrence (where it was
/// detected, how serious the raiser believes it is, and an optional
/// diagnostic payload). This mirrors the paper's model where exceptions
/// are classes but what travels between objects is a concrete raised
/// instance.
///
/// # Examples
///
/// ```
/// use caex_tree::{Exception, ExceptionId, Severity};
///
/// let exc = Exception::new(ExceptionId::new(2))
///     .with_origin("sensor-3")
///     .with_severity(Severity::Serious)
///     .with_detail("pressure out of range");
/// assert_eq!(exc.id(), ExceptionId::new(2));
/// assert_eq!(exc.origin(), Some("sensor-3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Exception {
    id: ExceptionId,
    severity: Severity,
    // Shared text: an occurrence is cloned into every message of a
    // multicast and into every `LE` it reaches.
    origin: Option<Arc<str>>,
    detail: Option<Arc<str>>,
}

impl Exception {
    /// Creates an occurrence of the exception class `id` with default
    /// severity and no diagnostics.
    #[must_use]
    pub fn new(id: ExceptionId) -> Self {
        Exception {
            id,
            severity: Severity::default(),
            origin: None,
            detail: None,
        }
    }

    /// Returns the exception class this occurrence belongs to.
    #[must_use]
    pub fn id(&self) -> ExceptionId {
        self.id
    }

    /// Returns the severity the raiser attached.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Returns the name of the component that detected the error, if any.
    #[must_use]
    pub fn origin(&self) -> Option<&str> {
        self.origin.as_deref()
    }

    /// Returns the free-form diagnostic payload, if any.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        self.detail.as_deref()
    }

    /// Sets the origin label, consuming and returning `self` for chaining.
    #[must_use]
    pub fn with_origin(mut self, origin: impl Into<Arc<str>>) -> Self {
        self.origin = Some(origin.into());
        self
    }

    /// Sets the severity, consuming and returning `self` for chaining.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Sets the diagnostic payload, consuming and returning `self`.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<Arc<str>>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id, self.severity)?;
        if let Some(origin) = &self.origin {
            write!(f, " from {origin}")?;
        }
        if let Some(detail) = &self.detail {
            write!(f, ": {detail}")?;
        }
        Ok(())
    }
}

impl From<ExceptionId> for Exception {
    fn from(id: ExceptionId) -> Self {
        Exception::new(id)
    }
}

/// Incremental builder for [`Exception`] occurrences sharing common
/// metadata, useful when one component raises many exceptions.
///
/// # Examples
///
/// ```
/// use caex_tree::{ExceptionBuilder, ExceptionId, Severity};
///
/// let raiser = ExceptionBuilder::for_origin("controller-7")
///     .severity(Severity::Serious);
/// let a = raiser.raise(ExceptionId::new(1));
/// let b = raiser.raise(ExceptionId::new(2));
/// assert_eq!(a.origin(), Some("controller-7"));
/// assert_eq!(b.severity(), Severity::Serious);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExceptionBuilder {
    origin: Option<Arc<str>>,
    severity: Severity,
}

impl ExceptionBuilder {
    /// Creates a builder whose occurrences carry the given origin label.
    #[must_use]
    pub fn for_origin(origin: impl Into<Arc<str>>) -> Self {
        ExceptionBuilder {
            origin: Some(origin.into()),
            severity: Severity::default(),
        }
    }

    /// Sets the severity used by subsequently raised occurrences.
    #[must_use]
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Produces an occurrence of class `id` with this builder's metadata.
    #[must_use]
    pub fn raise(&self, id: ExceptionId) -> Exception {
        let mut exc = Exception::new(id).with_severity(self.severity);
        if let Some(origin) = &self.origin {
            exc = exc.with_origin(Arc::clone(origin));
        }
        exc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_defaults() {
        let exc = Exception::new(ExceptionId::new(1));
        assert_eq!(exc.severity(), Severity::Recoverable);
        assert_eq!(exc.origin(), None);
        assert_eq!(exc.detail(), None);
    }

    #[test]
    fn chaining_sets_all_fields() {
        let exc = Exception::new(ExceptionId::new(5))
            .with_origin("o1")
            .with_severity(Severity::Fatal)
            .with_detail("disk on fire");
        assert_eq!(exc.id(), ExceptionId::new(5));
        assert_eq!(exc.origin(), Some("o1"));
        assert_eq!(exc.severity(), Severity::Fatal);
        assert_eq!(exc.detail(), Some("disk on fire"));
    }

    #[test]
    fn display_includes_metadata() {
        let exc = Exception::new(ExceptionId::new(2))
            .with_origin("o9")
            .with_detail("bad");
        let s = exc.to_string();
        assert!(s.contains("e2"), "{s}");
        assert!(s.contains("o9"), "{s}");
        assert!(s.contains("bad"), "{s}");
    }

    #[test]
    fn from_id_is_plain_occurrence() {
        let exc: Exception = ExceptionId::new(3).into();
        assert_eq!(exc.id(), ExceptionId::new(3));
        assert_eq!(exc.origin(), None);
    }

    #[test]
    fn builder_shares_metadata_across_raises() {
        let b = ExceptionBuilder::for_origin("x").severity(Severity::Serious);
        let e1 = b.raise(ExceptionId::new(1));
        let e2 = b.raise(ExceptionId::new(2));
        assert_eq!(e1.origin(), e2.origin());
        assert_eq!(e1.severity(), Severity::Serious);
        assert_ne!(e1.id(), e2.id());
    }

    #[test]
    fn builder_raises_share_one_origin_allocation() {
        let b = ExceptionBuilder::for_origin("controller-7");
        let (e1, e2) = (b.raise(ExceptionId::new(1)), b.raise(ExceptionId::new(2)));
        assert_eq!(e1.origin().unwrap().as_ptr(), e2.origin().unwrap().as_ptr());
    }

    #[test]
    fn severity_orders_by_seriousness() {
        assert!(Severity::Recoverable < Severity::Serious);
        assert!(Severity::Serious < Severity::Fatal);
    }

    #[test]
    fn debug_output_shows_the_id() {
        let exc = Exception::new(ExceptionId::new(4)).with_origin("o2");
        assert!(format!("{exc:?}").contains('4'));
    }
}
