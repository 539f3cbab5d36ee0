//! The exception value carried by resolution messages.

use crate::ExceptionId;
use std::fmt;
use std::hash::{Hash, Hasher};
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
/// # Layout
///
/// 24 bytes: the class id, one packed `u32` and one optional shared
/// string. The `u32` holds the severity (bits 0–1), whether an origin
/// and a detail are present (bits 2 and 3) and, when both are, the
/// origin's length in bytes (bits 4–31); the string holds the origin
/// followed by the detail. One string is enough because resolution
/// reads only the id: the text is written once by the raiser and then
/// only cloned, into every message of a multicast and every `LE` it
/// reaches, so both texts share one allocation and a clone is one
/// reference-count increment. A text set alone keeps the caller's
/// `Arc`, so an [`ExceptionBuilder`]'s origin stays shared.
///
/// An origin of 2<sup>28</sup> − 1 bytes or more beside a detail (never
/// one off the wire, whose texts are at most 65,535 bytes) does not fit
/// the length field; its length is then written as 16 hex digits ahead
/// of the two texts. Every length reads back as it was set.
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
/// assert_eq!(std::mem::size_of::<Exception>(), 24);
/// ```
#[derive(Clone)]
pub struct Exception {
    id: ExceptionId,
    /// Severity, the two presence flags and the origin's length.
    meta: u32,
    /// The origin followed by the detail, shared by every clone.
    text: Option<Arc<str>>,
}

const SEVERITY: u32 = 0b11;
const HAS_ORIGIN: u32 = 1 << 2;
const HAS_DETAIL: u32 = 1 << 3;
const SPLIT_SHIFT: u32 = 4;
/// The length field's value that says "the origin's length heads the
/// text". Small in unit tests, so that they reach the wide form.
const WIDE: u32 = if cfg!(test) { 0xff } else { u32::MAX >> SPLIT_SHIFT };
/// Hex digits of the wide form's length head.
const WIDE_HEAD: usize = 16;

/// Both texts copied into one string, and the flags that cut it apart.
fn join(origin: &str, detail: &str) -> (u32, Arc<str>) {
    let split = u32::try_from(origin.len()).ok().filter(|&len| len < WIDE);
    let text = match split {
        Some(_) => [origin, detail].concat(),
        None => format!("{:0width$x}{origin}{detail}", origin.len(), width = WIDE_HEAD),
    };
    let flags = HAS_ORIGIN | HAS_DETAIL | split.unwrap_or(WIDE) << SPLIT_SHIFT;
    (flags, text.into())
}

impl Exception {
    /// Creates an occurrence of the exception class `id` with default
    /// severity and no diagnostics.
    #[must_use]
    pub fn new(id: ExceptionId) -> Self {
        Exception {
            id,
            meta: Severity::default() as u32,
            text: None,
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
        match self.meta & SEVERITY {
            0 => Severity::Recoverable,
            1 => Severity::Serious,
            _ => Severity::Fatal,
        }
    }

    /// Returns the name of the component that detected the error, if any.
    #[must_use]
    pub fn origin(&self) -> Option<&str> {
        self.texts().0
    }

    /// Returns the free-form diagnostic payload, if any.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        self.texts().1
    }

    /// Sets the origin label, consuming and returning `self` for chaining.
    #[must_use]
    pub fn with_origin(self, origin: impl Into<Arc<str>>) -> Self {
        let origin = origin.into();
        let (flags, text) = match self.detail() {
            None => (HAS_ORIGIN, origin),
            Some(detail) => join(&origin, detail),
        };
        self.with_text(flags, Some(text))
    }

    /// Sets the severity, consuming and returning `self` for chaining.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.meta = (self.meta & !SEVERITY) | severity as u32;
        self
    }

    /// Sets the diagnostic payload, consuming and returning `self`.
    #[must_use]
    pub fn with_detail(self, detail: impl Into<Arc<str>>) -> Self {
        let detail = detail.into();
        let (flags, text) = match self.origin() {
            None => (HAS_DETAIL, detail),
            Some(origin) => join(origin, &detail),
        };
        self.with_text(flags, Some(text))
    }

    /// Sets both texts at once: one allocation when both are present,
    /// where the two `with_` calls would build a first string for the
    /// second one to copy.
    #[must_use]
    pub fn with_texts(self, origin: Option<&str>, detail: Option<&str>) -> Self {
        let (flags, text) = match (origin, detail) {
            (Some(origin), Some(detail)) => join(origin, detail),
            (Some(origin), None) => (HAS_ORIGIN, origin.into()),
            (None, Some(detail)) => (HAS_DETAIL, detail.into()),
            (None, None) => return self.with_text(0, None),
        };
        self.with_text(flags, Some(text))
    }

    /// `self` with `text`, which `flags` (presence and length) cut apart.
    fn with_text(mut self, flags: u32, text: Option<Arc<str>>) -> Self {
        self.meta = (self.meta & SEVERITY) | flags;
        self.text = text;
        self
    }

    /// The origin and the detail, cut out of the one string.
    fn texts(&self) -> (Option<&str>, Option<&str>) {
        let text = self.text.as_deref();
        match (self.meta & HAS_ORIGIN != 0, self.meta & HAS_DETAIL != 0) {
            (false, false) => (None, None),
            (true, false) => (text, None),
            (false, true) => (None, text),
            (true, true) => {
                let text = text.expect("two texts are stored");
                let (start, split) = match self.meta >> SPLIT_SHIFT {
                    WIDE => {
                        let len = usize::from_str_radix(&text[..WIDE_HEAD], 16)
                            .expect("the wide form's head is the origin's length");
                        (WIDE_HEAD, WIDE_HEAD + len)
                    }
                    len => (0, len as usize),
                };
                (Some(&text[start..split]), Some(&text[split..]))
            }
        }
    }
}

/// Hashes the byte stream the derived `Hash` of the two-`Arc` layout
/// fed: id, severity, origin, detail.
impl Hash for Exception {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (origin, detail) = self.texts();
        self.id.hash(state);
        self.severity().hash(state);
        origin.hash(state);
        detail.hash(state);
    }
}

impl PartialEq for Exception {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.meta & SEVERITY == other.meta & SEVERITY
            && self.texts() == other.texts()
    }
}

impl Eq for Exception {}

impl fmt::Debug for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (origin, detail) = self.texts();
        f.debug_struct("Exception")
            .field("id", &self.id)
            .field("severity", &self.severity())
            .field("origin", &origin)
            .field("detail", &detail)
            .finish()
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (origin, detail) = self.texts();
        write!(f, "{} ({})", self.id, self.severity())?;
        if let Some(origin) = origin {
            write!(f, " from {origin}")?;
        }
        if let Some(detail) = detail {
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
    fn a_text_set_alone_keeps_the_callers_arc() {
        let origin: Arc<str> = Arc::from("controller-7");
        let exc = Exception::new(ExceptionId::new(1)).with_origin(Arc::clone(&origin));
        assert_eq!(exc.origin().unwrap().as_ptr(), origin.as_ptr());
        let detail: Arc<str> = Arc::from("bad");
        let exc = Exception::new(ExceptionId::new(1)).with_detail(Arc::clone(&detail));
        assert_eq!(exc.detail().unwrap().as_ptr(), detail.as_ptr());
    }

    #[test]
    fn two_texts_share_one_string() {
        let exc = Exception::new(ExceptionId::new(1))
            .with_detail("bad")
            .with_origin("o1");
        let (origin, detail) = (exc.origin().unwrap(), exc.detail().unwrap());
        assert_eq!((origin, detail), ("o1", "bad"));
        assert_eq!(origin.as_ptr() as usize + origin.len(), detail.as_ptr() as usize);
    }

    /// Unit tests build with a length field that is full at 255 bytes,
    /// so an origin of that length or more takes the wide form.
    #[test]
    fn an_origin_too_long_for_the_length_field_reads_back_whole() {
        for len in [0, 1, WIDE as usize - 1, WIDE as usize, WIDE as usize + 1, 1_000] {
            let origin: String = "é".repeat(len / 2) + &"a".repeat(len % 2);
            for detail in ["", "€ detail"] {
                let exc = Exception::new(ExceptionId::new(3))
                    .with_severity(Severity::Fatal)
                    .with_origin(origin.as_str())
                    .with_detail(detail);
                assert_eq!(exc.origin(), Some(origin.as_str()), "len {len}");
                assert_eq!(exc.detail(), Some(detail), "len {len}");
                assert_eq!(exc.severity(), Severity::Fatal);
                assert_eq!(exc.to_string(), format!("e3 (fatal) from {origin}: {detail}"));
                let again = Exception::new(ExceptionId::new(3))
                    .with_severity(Severity::Fatal)
                    .with_texts(Some(&origin), Some(detail));
                assert_eq!(exc, again);
            }
        }
    }

    #[test]
    fn with_texts_of_nothing_clears_both() {
        let exc = Exception::new(ExceptionId::new(2))
            .with_severity(Severity::Serious)
            .with_origin("o")
            .with_detail("d")
            .with_texts(None, None);
        assert_eq!(exc, Exception::new(ExceptionId::new(2)).with_severity(Severity::Serious));
        assert_eq!((exc.origin(), exc.detail()), (None, None));
    }

    #[test]
    fn debug_output_shows_the_id() {
        let exc = Exception::new(ExceptionId::new(4)).with_origin("o2");
        assert!(format!("{exc:?}").contains('4'));
    }
}
