//! The registry of declared actions and their nesting structure.

use crate::{ActionError, ActionId, ActionScope};

/// All statically declared CA actions of a program, with their nesting
/// relations validated at declaration time.
///
/// Validation enforces the paper's structural rules:
///
/// - a nested action's participants must be a subset of its parent's
///   (§3.1: "a subset of these participating objects may further enter a
///   nested CA action");
/// - every action has at least one participant;
/// - a parent must be declared before its children (so the nesting
///   relation is acyclic by construction).
///
/// # Examples
///
/// ```
/// use caex_action::{ActionRegistry, ActionScope};
/// use caex_net::NodeId;
/// use caex_tree::chain_tree;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), caex_action::ActionError> {
/// let tree = Arc::new(chain_tree(3));
/// let mut reg = ActionRegistry::new();
/// let a1 = reg.declare(ActionScope::top_level(
///     "A1", (0..4).map(NodeId::new), Arc::clone(&tree),
/// ))?;
/// let a2 = reg.declare(ActionScope::nested(
///     "A2", (1..4).map(NodeId::new), Arc::clone(&tree), a1,
/// ))?;
/// assert_eq!(reg.depth(a2)?, 1);
/// assert_eq!(reg.chain_between(a2, a1)?, vec![a2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActionRegistry {
    actions: Vec<ActionScope>,
    /// First [`ActionId`] this registry hands out. Non-zero bases let
    /// many independent registries coexist in one process (a fleet of
    /// actions multiplexed by one engine) without id collisions.
    base: u32,
}

impl ActionRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ActionRegistry::default()
    }

    /// Creates an empty registry whose ids start at `base` instead of 0.
    ///
    /// Protocol state downstream is keyed by `(ActionId, round)`, so
    /// distinct bases are what keep a fleet's actions disjoint in
    /// metrics, observability and the resolution machine itself.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_action::{ActionRegistry, ActionScope};
    /// use caex_net::NodeId;
    /// use caex_tree::chain_tree;
    /// use std::sync::Arc;
    ///
    /// let mut reg = ActionRegistry::with_base(7);
    /// let id = reg
    ///     .declare(ActionScope::top_level(
    ///         "A", [NodeId::new(0)], Arc::new(chain_tree(2)),
    ///     ))
    ///     .unwrap();
    /// assert_eq!(id.index(), 7);
    /// assert!(reg.scope(id).is_ok());
    /// ```
    #[must_use]
    pub fn with_base(base: u32) -> Self {
        ActionRegistry {
            actions: Vec::new(),
            base,
        }
    }

    /// The first id this registry hands out (0 for [`ActionRegistry::new`]).
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Maps a (possibly offset) id to a slot in `actions`, if declared.
    fn slot(&self, id: ActionId) -> Option<usize> {
        let rel = id.index().checked_sub(self.base)? as usize;
        (rel < self.actions.len()).then_some(rel)
    }

    /// Number of declared actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` if nothing is declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Declares an action, validating its structure, and returns its id.
    ///
    /// # Errors
    ///
    /// - [`ActionError::NoParticipants`] for an empty participant set;
    /// - [`ActionError::UnknownParent`] if the scope names an undeclared
    ///   parent;
    /// - [`ActionError::ParticipantsNotNested`] if a participant of a
    ///   nested action does not participate in the parent.
    pub fn declare(&mut self, scope: ActionScope) -> Result<ActionId, ActionError> {
        if scope.participants().is_empty() {
            return Err(ActionError::NoParticipants);
        }
        let id = ActionId::new(self.base + self.actions.len() as u32);
        if let Some(parent) = scope.parent() {
            let parent_scope = self
                .slot(parent)
                .map(|i| &self.actions[i])
                .ok_or(ActionError::UnknownParent(parent))?;
            for &p in scope.participants() {
                if !parent_scope.is_participant(p) {
                    return Err(ActionError::ParticipantsNotNested {
                        action: id,
                        object: p,
                    });
                }
            }
        }
        // A registry is declared once and then read for the rest of
        // the run: grow the table by exactly one slot, never more.
        self.actions.reserve_exact(1);
        self.actions.push(scope);
        Ok(id)
    }

    /// Returns the scope of a declared action.
    ///
    /// # Errors
    ///
    /// Returns [`ActionError::UnknownAction`] for an undeclared id.
    pub fn scope(&self, id: ActionId) -> Result<&ActionScope, ActionError> {
        self.slot(id)
            .map(|i| &self.actions[i])
            .ok_or(ActionError::UnknownAction(id))
    }

    /// Iterates over all declared `(id, scope)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ActionId, &ActionScope)> {
        self.actions
            .iter()
            .enumerate()
            .map(|(i, s)| (ActionId::new(self.base + i as u32), s))
    }

    /// Nesting depth of `id` (top-level actions have depth 0).
    ///
    /// # Errors
    ///
    /// Returns [`ActionError::UnknownAction`] for an undeclared id.
    pub fn depth(&self, id: ActionId) -> Result<u32, ActionError> {
        let mut depth = 0;
        let mut current = self.scope(id)?;
        while let Some(parent) = current.parent() {
            depth += 1;
            current = self.scope(parent)?;
        }
        Ok(depth)
    }

    /// `true` if `inner` is (transitively) nested within `outer`.
    /// An action is not nested within itself.
    ///
    /// # Errors
    ///
    /// Returns [`ActionError::UnknownAction`] for an undeclared id.
    pub fn is_nested_within(&self, inner: ActionId, outer: ActionId) -> Result<bool, ActionError> {
        self.scope(outer)?;
        let mut current = self.scope(inner)?;
        while let Some(parent) = current.parent() {
            if parent == outer {
                return Ok(true);
            }
            current = self.scope(parent)?;
        }
        Ok(false)
    }

    /// The chain of actions from `inner` (inclusive) up to `outer`
    /// (exclusive), innermost first — exactly the abortion order of
    /// §4.1: "it must execute abortion handlers in the order (i+k),
    /// (i+k−1), …, (i+1)".
    ///
    /// # Errors
    ///
    /// [`ActionError::UnknownAction`] for undeclared ids, or
    /// [`ActionError::NotOnOneChain`] if `outer` does not contain
    /// `inner`.
    pub fn chain_between(
        &self,
        inner: ActionId,
        outer: ActionId,
    ) -> Result<Vec<ActionId>, ActionError> {
        self.scope(outer)?;
        if inner == outer {
            return Ok(Vec::new());
        }
        let mut chain = vec![inner];
        let mut current = self.scope(inner)?;
        while let Some(parent) = current.parent() {
            if parent == outer {
                return Ok(chain);
            }
            chain.push(parent);
            current = self.scope(parent)?;
        }
        Err(ActionError::NotOnOneChain(inner, outer))
    }

    /// The directly nested children of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ActionError::UnknownAction`] for an undeclared id.
    pub fn children(&self, id: ActionId) -> Result<Vec<ActionId>, ActionError> {
        self.scope(id)?;
        Ok(self
            .iter()
            .filter(|(_, s)| s.parent() == Some(id))
            .map(|(cid, _)| cid)
            .collect())
    }

    /// All top-level (depth-0) actions, in declaration order.
    #[must_use]
    pub fn top_level(&self) -> Vec<ActionId> {
        self.iter()
            .filter(|(_, s)| s.parent().is_none())
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_net::NodeId;
    use caex_tree::{chain_tree, ExceptionTree};
    use std::sync::Arc;

    fn tree() -> Arc<ExceptionTree> {
        Arc::new(chain_tree(3))
    }

    /// Builds the paper's Figure 3/4 structure: A1 ⊃ A2 ⊃ A3 with
    /// participants {O0..O3}, {O1..O3}, {O1, O2} respectively.
    fn fig4() -> (ActionRegistry, ActionId, ActionId, ActionId) {
        let t = tree();
        let mut reg = ActionRegistry::new();
        let a1 = reg
            .declare(ActionScope::top_level(
                "A1",
                (0..4).map(NodeId::new),
                Arc::clone(&t),
            ))
            .unwrap();
        let a2 = reg
            .declare(ActionScope::nested(
                "A2",
                (1..4).map(NodeId::new),
                Arc::clone(&t),
                a1,
            ))
            .unwrap();
        let a3 = reg
            .declare(ActionScope::nested(
                "A3",
                [NodeId::new(1), NodeId::new(2)],
                Arc::clone(&t),
                a2,
            ))
            .unwrap();
        (reg, a1, a2, a3)
    }

    #[test]
    fn declares_and_looks_up() {
        let (reg, a1, _a2, a3) = fig4();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.scope(a1).unwrap().name(), "A1");
        assert_eq!(reg.scope(a3).unwrap().participants().len(), 2);
    }

    #[test]
    fn rejects_empty_participants() {
        let mut reg = ActionRegistry::new();
        let scope = ActionScope::top_level("x", std::iter::empty(), tree());
        assert_eq!(reg.declare(scope), Err(ActionError::NoParticipants));
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut reg = ActionRegistry::new();
        let scope = ActionScope::nested("x", [NodeId::new(0)], tree(), ActionId::new(9));
        assert!(matches!(
            reg.declare(scope),
            Err(ActionError::UnknownParent(_))
        ));
    }

    #[test]
    fn rejects_non_subset_nesting() {
        let t = tree();
        let mut reg = ActionRegistry::new();
        let a1 = reg
            .declare(ActionScope::top_level(
                "A1",
                [NodeId::new(0), NodeId::new(1)],
                Arc::clone(&t),
            ))
            .unwrap();
        let bad = ActionScope::nested("A2", [NodeId::new(1), NodeId::new(7)], t, a1);
        assert!(matches!(
            reg.declare(bad),
            Err(ActionError::ParticipantsNotNested { .. })
        ));
    }

    #[test]
    fn depth_counts_nesting() {
        let (reg, a1, a2, a3) = fig4();
        assert_eq!(reg.depth(a1).unwrap(), 0);
        assert_eq!(reg.depth(a2).unwrap(), 1);
        assert_eq!(reg.depth(a3).unwrap(), 2);
    }

    #[test]
    fn nesting_relation() {
        let (reg, a1, a2, a3) = fig4();
        assert!(reg.is_nested_within(a3, a1).unwrap());
        assert!(reg.is_nested_within(a3, a2).unwrap());
        assert!(reg.is_nested_within(a2, a1).unwrap());
        assert!(!reg.is_nested_within(a1, a3).unwrap());
        assert!(!reg.is_nested_within(a1, a1).unwrap());
    }

    #[test]
    fn chain_is_innermost_first() {
        let (reg, a1, a2, a3) = fig4();
        assert_eq!(reg.chain_between(a3, a1).unwrap(), vec![a3, a2]);
        assert_eq!(reg.chain_between(a2, a1).unwrap(), vec![a2]);
        assert!(reg.chain_between(a3, a3).unwrap().is_empty());
    }

    #[test]
    fn chain_rejects_disjoint_actions() {
        let t = tree();
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level(
                "A",
                [NodeId::new(0)],
                Arc::clone(&t),
            ))
            .unwrap();
        let b = reg
            .declare(ActionScope::top_level("B", [NodeId::new(1)], t))
            .unwrap();
        assert!(matches!(
            reg.chain_between(a, b),
            Err(ActionError::NotOnOneChain(..))
        ));
    }

    #[test]
    fn children_lists_direct_nesting_only() {
        let (reg, a1, a2, a3) = fig4();
        assert_eq!(reg.children(a1).unwrap(), vec![a2]);
        assert_eq!(reg.children(a2).unwrap(), vec![a3]);
        assert!(reg.children(a3).unwrap().is_empty());
    }

    #[test]
    fn based_registry_offsets_ids_and_rejects_below_base() {
        let t = tree();
        let mut reg = ActionRegistry::with_base(10);
        let a1 = reg
            .declare(ActionScope::top_level(
                "A1",
                (0..3).map(NodeId::new),
                Arc::clone(&t),
            ))
            .unwrap();
        let a2 = reg
            .declare(ActionScope::nested(
                "A2",
                [NodeId::new(1)],
                Arc::clone(&t),
                a1,
            ))
            .unwrap();
        assert_eq!(a1, ActionId::new(10));
        assert_eq!(a2, ActionId::new(11));
        assert_eq!(reg.base(), 10);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.depth(a2).unwrap(), 1);
        assert_eq!(reg.top_level(), vec![a1]);
        assert_eq!(reg.children(a1).unwrap(), vec![a2]);
        // Ids below the base (another instance's range) are unknown here.
        assert!(matches!(
            reg.scope(ActionId::new(3)),
            Err(ActionError::UnknownAction(_))
        ));
        // A parent id from a foreign range is rejected at declaration.
        let foreign = ActionScope::nested("X", [NodeId::new(1)], t, ActionId::new(2));
        let mut reg2 = ActionRegistry::with_base(10);
        assert!(matches!(
            reg2.declare(foreign),
            Err(ActionError::UnknownParent(_))
        ));
    }

    #[test]
    fn unknown_action_queries_error() {
        let (reg, ..) = fig4();
        let bogus = ActionId::new(99);
        assert!(reg.scope(bogus).is_err());
        assert!(reg.depth(bogus).is_err());
        assert!(reg.children(bogus).is_err());
    }
}
