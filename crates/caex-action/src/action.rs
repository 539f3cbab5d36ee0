//! Action identity and static scope.

use caex_net::NodeId;
use caex_tree::{ExceptionId, ExceptionTree};
use std::fmt;
use std::sync::Arc;

/// Identifier of a CA action within an [`ActionRegistry`].
///
/// [`ActionRegistry`]: crate::ActionRegistry
///
/// # Examples
///
/// ```
/// use caex_action::ActionId;
///
/// let a1 = ActionId::new(1);
/// assert_eq!(a1.to_string(), "A1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(u32);

impl ActionId {
    /// Creates an action id from a raw index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        ActionId(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// The static declaration of one CA action: its participants, the
/// exception tree declared with it, and its position in the nesting
/// structure.
///
/// Matches the paper's model (§3.1, §4.1): "the exceptions that can be
/// raised within a CA action are declared together with the action
/// declaration", each participant "knows all other participating objects
/// of the same action and has the same resolution tree (which is
/// statically declared)". A scope is fixed once declared, so its name
/// and its sets are boxed slices with no spare capacity.
///
/// # Examples
///
/// ```
/// use caex_action::ActionScope;
/// use caex_net::NodeId;
/// use caex_tree::aircraft_tree;
/// use std::sync::Arc;
///
/// let scope = ActionScope::top_level(
///     "mission",
///     [NodeId::new(0), NodeId::new(1)],
///     Arc::new(aircraft_tree()),
/// );
/// assert_eq!(scope.participants().len(), 2);
/// assert!(scope.parent().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ActionScope {
    name: Box<str>,
    participants: Box<[NodeId]>,
    tree: Arc<ExceptionTree>,
    parent: Option<ActionId>,
    declared: Option<Box<[ExceptionId]>>,
}

impl ActionScope {
    /// Declares a top-level (outermost) action.
    ///
    /// Participants are deduplicated and sorted: the paper requires a
    /// total order on participants so a unique resolver can be elected.
    #[must_use]
    pub fn top_level<I>(name: impl Into<String>, participants: I, tree: Arc<ExceptionTree>) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut participants: Vec<NodeId> = participants.into_iter().collect();
        participants.sort_unstable();
        participants.dedup();
        ActionScope {
            name: name.into().into_boxed_str(),
            participants: participants.into_boxed_slice(),
            tree,
            parent: None,
            declared: None,
        }
    }

    /// Declares an action nested within `parent`.
    #[must_use]
    pub fn nested<I>(
        name: impl Into<String>,
        participants: I,
        tree: Arc<ExceptionTree>,
        parent: ActionId,
    ) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut scope = ActionScope::top_level(name, participants, tree);
        scope.parent = Some(parent);
        scope
    }

    /// The action's human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The participating objects, sorted ascending (the resolver
    /// election order).
    #[must_use]
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// `true` if `object` participates in this action.
    #[must_use]
    pub fn is_participant(&self, object: NodeId) -> bool {
        self.participants.binary_search(&object).is_ok()
    }

    /// The exception tree declared with the action.
    #[must_use]
    pub fn tree(&self) -> &Arc<ExceptionTree> {
        &self.tree
    }

    /// The directly containing action, or `None` for a top-level action.
    #[must_use]
    pub fn parent(&self) -> Option<ActionId> {
        self.parent
    }

    /// Restricts the set of exception classes this action declares as
    /// raisable (a subset of the tree; the paper declares exceptions
    /// "together with the action declaration", §3.1). Duplicates are
    /// dropped; membership in the tree is *not* checked here — the
    /// static analyser reports out-of-tree declarations as a lint.
    #[must_use]
    pub fn with_declared_exceptions<I>(mut self, raisables: I) -> Self
    where
        I: IntoIterator<Item = ExceptionId>,
    {
        let mut declared: Vec<ExceptionId> = raisables.into_iter().collect();
        declared.sort_unstable();
        declared.dedup();
        self.declared = Some(declared.into_boxed_slice());
        self
    }

    /// The explicitly declared raisable classes, sorted ascending, or
    /// `None` when the declaration leaves the whole tree raisable.
    #[must_use]
    pub fn declared_exceptions(&self) -> Option<&[ExceptionId]> {
        self.declared.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_tree::aircraft_tree;

    fn tree() -> Arc<ExceptionTree> {
        Arc::new(aircraft_tree())
    }

    #[test]
    fn participants_are_sorted_and_deduped() {
        let scope = ActionScope::top_level(
            "a",
            [
                NodeId::new(3),
                NodeId::new(1),
                NodeId::new(3),
                NodeId::new(2),
            ],
            tree(),
        );
        assert_eq!(
            scope.participants(),
            &[NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
    }

    #[test]
    fn membership_and_peers() {
        let scope = ActionScope::top_level(
            "a",
            [NodeId::new(0), NodeId::new(2), NodeId::new(4)],
            tree(),
        );
        assert!(scope.is_participant(NodeId::new(2)));
        assert!(!scope.is_participant(NodeId::new(1)));
    }

    #[test]
    fn nested_records_parent() {
        let parent = ActionId::new(0);
        let scope = ActionScope::nested("n", [NodeId::new(0)], tree(), parent);
        assert_eq!(scope.parent(), Some(parent));
        assert_eq!(scope.name(), "n");
    }

    #[test]
    fn action_id_display() {
        assert_eq!(ActionId::new(2).to_string(), "A2");
        assert_eq!(ActionId::new(2).index(), 2);
    }
}
