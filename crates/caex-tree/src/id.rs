//! Identity of an exception class within a tree.

use std::fmt;

/// Identifier of an exception class inside one [`ExceptionTree`].
///
/// Ids are dense indices assigned by [`TreeBuilder`] in insertion order;
/// the root is always id `0`. An id is only meaningful relative to the
/// tree that produced it — mixing ids across trees is caught by the
/// tree's bounds checks and reported as [`TreeError::UnknownId`].
///
/// [`ExceptionTree`]: crate::ExceptionTree
/// [`TreeBuilder`]: crate::TreeBuilder
/// [`TreeError::UnknownId`]: crate::TreeError::UnknownId
///
/// # Examples
///
/// ```
/// use caex_tree::ExceptionId;
///
/// let id = ExceptionId::new(3);
/// assert_eq!(id.index(), 3);
/// assert!(!id.is_root());
/// assert!(ExceptionId::ROOT.is_root());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExceptionId(u32);

impl ExceptionId {
    /// The id of every tree's root exception ("universal exception").
    pub const ROOT: ExceptionId = ExceptionId(0);

    /// Creates an id from a raw dense index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        ExceptionId(index)
    }

    /// Returns the dense index of this id.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns `true` if this is the root ("universal") exception id.
    #[must_use]
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ExceptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for ExceptionId {
    fn from(index: u32) -> Self {
        ExceptionId::new(index)
    }
}

impl From<ExceptionId> for u32 {
    fn from(id: ExceptionId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_zero() {
        assert_eq!(ExceptionId::ROOT.index(), 0);
        assert!(ExceptionId::ROOT.is_root());
    }

    #[test]
    fn new_round_trips_index() {
        for i in [0, 1, 7, u32::MAX] {
            assert_eq!(ExceptionId::new(i).index(), i);
        }
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(ExceptionId::new(4).to_string(), "e4");
    }

    #[test]
    fn conversions_round_trip() {
        let id: ExceptionId = 9u32.into();
        let back: u32 = id.into();
        assert_eq!(back, 9);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ExceptionId::new(1) < ExceptionId::new(2));
        assert_eq!(ExceptionId::new(3), ExceptionId::new(3));
    }
}
