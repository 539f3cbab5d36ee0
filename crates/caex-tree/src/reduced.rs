//! Reduced exception trees: the per-participant handler subsets of the
//! Campbell–Randell (CR, 1986) model.
//!
//! The CR algorithm assumes each participant handles only a *subset* of
//! the action's declared exceptions (§3.3). When a participant is told of
//! an exception it cannot handle, it climbs the full tree to the closest
//! ancestor it *does* handle and re-raises that — the "third source" of
//! exceptions, whose iteration over interleaved subsets produces the
//! paper's domino effect. The proposed algorithm eliminates reduced trees
//! by requiring handlers for every declared exception; this module exists
//! to reproduce the CR baseline and the §3.3 analysis.

use crate::{ExceptionId, ExceptionTree, TreeError};
use std::collections::BTreeSet;

/// A participant's subset of the action's exceptions for which it has
/// specific handlers (a "reduced tree" in the CR model).
///
/// Always contains the root: the CR model lets every participant fall
/// back to a default handler, which we model as the universal exception.
///
/// # Examples
///
/// ```
/// use caex_tree::{chain_tree, ReducedTree, ExceptionId};
///
/// # fn main() -> Result<(), caex_tree::TreeError> {
/// let tree = chain_tree(8);
/// // Participant handles only odd exceptions e1, e3, e5, e7.
/// let odd = ReducedTree::new(
///     &tree,
///     (1..=7).step_by(2).map(ExceptionId::new),
/// )?;
/// // Told of e8 (unhandled), it climbs to e7.
/// assert_eq!(
///     odd.closest_handled_ancestor(&tree, ExceptionId::new(8))?,
///     ExceptionId::new(7),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedTree {
    handled: BTreeSet<ExceptionId>,
}

impl ReducedTree {
    /// Builds a reduced tree over the exceptions `handled`, validated
    /// against `tree`. The root is always included.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if any handled id is not in
    /// `tree`.
    pub fn new<I>(tree: &ExceptionTree, handled: I) -> Result<Self, TreeError>
    where
        I: IntoIterator<Item = ExceptionId>,
    {
        let mut set = BTreeSet::new();
        set.insert(ExceptionId::ROOT);
        for id in handled {
            if !tree.contains(id) {
                return Err(TreeError::UnknownId(id));
            }
            set.insert(id);
        }
        Ok(ReducedTree { handled: set })
    }

    /// A reduced tree that handles *every* exception of `tree` — the
    /// degenerate case corresponding to the proposed algorithm's
    /// assumption (§3.3: "each participating object has handlers for all
    /// exceptions declared in a given action").
    #[must_use]
    pub fn full(tree: &ExceptionTree) -> Self {
        ReducedTree {
            handled: tree.iter().collect(),
        }
    }

    /// Returns `true` if this participant has a specific handler for `id`.
    #[must_use]
    pub fn handles(&self, id: ExceptionId) -> bool {
        self.handled.contains(&id)
    }

    /// Number of handled exceptions (including the root fallback).
    #[must_use]
    pub fn len(&self) -> usize {
        self.handled.len()
    }

    /// `true` if only the root fallback handler exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handled.len() <= 1
    }

    /// Iterates over the handled exception ids in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ExceptionId> + '_ {
        self.handled.iter().copied()
    }

    /// Finds the closest ancestor of `raised` (possibly `raised` itself)
    /// that this participant handles. This is the re-raising step of the
    /// CR algorithm: if the returned id differs from `raised`, the CR
    /// participant raises it as a *new* exception.
    ///
    /// Because the root is always handled, this never fails to find one.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `raised` is not in `tree`.
    pub fn closest_handled_ancestor(
        &self,
        tree: &ExceptionTree,
        raised: ExceptionId,
    ) -> Result<ExceptionId, TreeError> {
        let mut current = raised;
        loop {
            if self.handles(current) {
                return Ok(current);
            }
            match tree.parent(current)? {
                Some(p) => current = p,
                // Unreachable: the root is always in `handled`.
                None => return Ok(ExceptionId::ROOT),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chain_tree, TreeBuilder};

    #[test]
    fn always_contains_root() {
        let tree = chain_tree(3);
        let rt = ReducedTree::new(&tree, std::iter::empty()).unwrap();
        assert!(rt.handles(ExceptionId::ROOT));
        assert!(rt.is_empty());
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn full_reduced_tree_handles_everything() {
        let tree = chain_tree(5);
        let rt = ReducedTree::full(&tree);
        for id in tree.iter() {
            assert!(rt.handles(id));
        }
        assert_eq!(rt.len(), tree.len());
    }

    #[test]
    fn rejects_foreign_ids() {
        let tree = chain_tree(2);
        assert!(matches!(
            ReducedTree::new(&tree, [ExceptionId::new(40)]),
            Err(TreeError::UnknownId(_))
        ));
    }

    #[test]
    fn handled_exception_is_its_own_ancestor() {
        let tree = chain_tree(4);
        let rt = ReducedTree::new(&tree, [ExceptionId::new(2)]).unwrap();
        assert_eq!(
            rt.closest_handled_ancestor(&tree, ExceptionId::new(2))
                .unwrap(),
            ExceptionId::new(2)
        );
    }

    #[test]
    fn climbs_to_nearest_handled() {
        // chain: root(e0) -> e1 -> e2 -> e3 -> e4
        let tree = chain_tree(4);
        let rt = ReducedTree::new(&tree, [ExceptionId::new(1), ExceptionId::new(3)]).unwrap();
        assert_eq!(
            rt.closest_handled_ancestor(&tree, ExceptionId::new(4))
                .unwrap(),
            ExceptionId::new(3)
        );
        assert_eq!(
            rt.closest_handled_ancestor(&tree, ExceptionId::new(2))
                .unwrap(),
            ExceptionId::new(1)
        );
    }

    #[test]
    fn falls_back_to_root_when_nothing_on_path() {
        let mut b = TreeBuilder::new("root");
        let a = b.child_of_root("a").unwrap();
        let z = b.child_of_root("z").unwrap();
        let tree = b.build().unwrap();
        let rt = ReducedTree::new(&tree, [z]).unwrap();
        assert_eq!(
            rt.closest_handled_ancestor(&tree, a).unwrap(),
            ExceptionId::ROOT
        );
    }

    #[test]
    fn iter_is_sorted_and_distinct() {
        let tree = chain_tree(5);
        let rt = ReducedTree::new(
            &tree,
            [
                ExceptionId::new(4),
                ExceptionId::new(2),
                ExceptionId::new(4),
            ],
        )
        .unwrap();
        let ids: Vec<_> = rt.iter().collect();
        assert_eq!(
            ids,
            vec![ExceptionId::ROOT, ExceptionId::new(2), ExceptionId::new(4)]
        );
    }

    #[test]
    fn paper_interleaved_chain_climbs_one_step() {
        // §3.3: T_A = e1 -> ... -> e8 (chain), O1 handles odds, O2 evens.
        // If e8 is raised (O2's), O1 climbs to e7; told of e7, O2 climbs
        // to e6, and so on: each step moves exactly one link up.
        let tree = chain_tree(8);
        let odd = ReducedTree::new(&tree, (1..=7).step_by(2).map(ExceptionId::new)).unwrap();
        let even = ReducedTree::new(&tree, (2..=8).step_by(2).map(ExceptionId::new)).unwrap();
        let mut current = ExceptionId::new(8);
        let mut steps = 0;
        loop {
            let next_o1 = odd.closest_handled_ancestor(&tree, current).unwrap();
            if next_o1 == current {
                break;
            }
            current = next_o1;
            steps += 1;
            let next_o2 = even.closest_handled_ancestor(&tree, current).unwrap();
            if next_o2 == current {
                break;
            }
            current = next_o2;
            steps += 1;
        }
        // §3.3: "any exception will always lead to further exceptions
        // until the root of the exception tree is reached" — 8 re-raises
        // walk e8 → e7 → … → e1 → root.
        assert_eq!(steps, 8);
        assert_eq!(current, ExceptionId::ROOT);
    }
}
