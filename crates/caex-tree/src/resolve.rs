//! Resolution of a set of concurrently raised exceptions.

use crate::{Exception, ExceptionId, ExceptionTree, TreeError};

/// The outcome of resolving a set of concurrently raised exceptions.
///
/// Produced by [`ExceptionTree::resolve_detailed`]; the plain
/// [`ExceptionTree::resolve`] returns only the resolved id.
///
/// # Examples
///
/// ```
/// use caex_tree::{chain_tree, ExceptionId};
///
/// # fn main() -> Result<(), caex_tree::TreeError> {
/// let tree = chain_tree(4); // root -> e1 -> e2 -> e3 -> e4
/// let res = tree.resolve_detailed([ExceptionId::new(2), ExceptionId::new(4)])?;
/// assert_eq!(res.resolved(), ExceptionId::new(2));
/// assert_eq!(res.raised().len(), 2);
/// assert!(!res.was_trivial());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    resolved: ExceptionId,
    raised: Vec<ExceptionId>,
}

impl Resolution {
    /// The least exception in the tree covering all raised exceptions.
    #[must_use]
    pub fn resolved(&self) -> ExceptionId {
        self.resolved
    }

    /// The distinct raised exceptions that were resolved, in input order.
    #[must_use]
    pub fn raised(&self) -> &[ExceptionId] {
        &self.raised
    }

    /// `true` when only one distinct exception was raised, so resolution
    /// simply returned it unchanged.
    #[must_use]
    pub fn was_trivial(&self) -> bool {
        self.raised.len() == 1 && self.raised[0] == self.resolved
    }
}

impl ExceptionTree {
    /// Resolves a set of concurrently raised exceptions to the *least*
    /// exception in the tree whose handler covers all of them — the
    /// lowest common ancestor of the raised set (§3.2 of the paper).
    ///
    /// Duplicates in the input are ignored. Accepts anything iterable
    /// over [`ExceptionId`] so both id lists and extracted message sets
    /// work directly.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::EmptyResolutionSet`] for an empty input and
    /// [`TreeError::UnknownId`] if any raised id is not in this tree.
    pub fn resolve<I>(&self, raised: I) -> Result<ExceptionId, TreeError>
    where
        I: IntoIterator<Item = ExceptionId>,
    {
        let mut iter = raised.into_iter();
        let first = iter.next().ok_or(TreeError::EmptyResolutionSet)?;
        if !self.contains(first) {
            return Err(TreeError::UnknownId(first));
        }
        let mut acc = first;
        for id in iter {
            acc = self.lca(acc, id)?;
        }
        Ok(acc)
    }

    /// Like [`resolve`](Self::resolve) but also reports which distinct
    /// exceptions entered the resolution.
    ///
    /// # Errors
    ///
    /// Same as [`resolve`](Self::resolve).
    pub fn resolve_detailed<I>(&self, raised: I) -> Result<Resolution, TreeError>
    where
        I: IntoIterator<Item = ExceptionId>,
    {
        let mut distinct: Vec<ExceptionId> = Vec::new();
        for id in raised {
            if !self.contains(id) {
                return Err(TreeError::UnknownId(id));
            }
            if !distinct.contains(&id) {
                distinct.push(id);
            }
        }
        let resolved = self.resolve(distinct.iter().copied())?;
        Ok(Resolution {
            resolved,
            raised: distinct,
        })
    }

    /// Resolves a set of exception *occurrences*, convenience for
    /// resolution over collected [`Exception`] values.
    ///
    /// # Errors
    ///
    /// Same as [`resolve`](Self::resolve).
    pub fn resolve_occurrences<'a, I>(&self, raised: I) -> Result<ExceptionId, TreeError>
    where
        I: IntoIterator<Item = &'a Exception>,
    {
        self.resolve(raised.into_iter().map(Exception::id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    /// The alternative policy the paper argues *against* (§2.2):
    /// priority-based selection picks the raised exception with the
    /// highest `priority` (ties broken by lower id) — it selects *one
    /// of* the raised exceptions rather than an exception that covers
    /// them all, so the winner's handler generally cannot handle the
    /// losers ("several errors … could be the symptoms of a different,
    /// more serious fault"). The foil of the tests below.
    fn resolve_by_priority<I, P>(
        tree: &ExceptionTree,
        raised: I,
        priority: P,
    ) -> Result<ExceptionId, TreeError>
    where
        I: IntoIterator<Item = ExceptionId>,
        P: Fn(ExceptionId) -> u32,
    {
        let mut best: Option<(u32, ExceptionId)> = None;
        for id in raised {
            if !tree.contains(id) {
                return Err(TreeError::UnknownId(id));
            }
            let p = priority(id);
            best = match best {
                None => Some((p, id)),
                Some((bp, bid)) if p > bp || (p == bp && id < bid) => Some((p, id)),
                keep => keep,
            };
        }
        best.map(|(_, id)| id).ok_or(TreeError::EmptyResolutionSet)
    }

    fn engines() -> (ExceptionTree, ExceptionId, ExceptionId, ExceptionId) {
        let mut b = TreeBuilder::new("universal_exception");
        let emergency = b.child_of_root("emergency_engine_loss_exception").unwrap();
        let left = b.child("left_engine_exception", emergency).unwrap();
        let right = b.child("right_engine_exception", emergency).unwrap();
        (b.build().unwrap(), emergency, left, right)
    }

    #[test]
    fn single_exception_resolves_to_itself() {
        let (tree, _e, left, _r) = engines();
        assert_eq!(tree.resolve([left]).unwrap(), left);
    }

    #[test]
    fn siblings_resolve_to_parent() {
        let (tree, emergency, left, right) = engines();
        assert_eq!(tree.resolve([left, right]).unwrap(), emergency);
    }

    #[test]
    fn ancestor_and_descendant_resolve_to_ancestor() {
        let (tree, emergency, left, _r) = engines();
        assert_eq!(tree.resolve([left, emergency]).unwrap(), emergency);
    }

    #[test]
    fn unrelated_resolve_to_root() {
        let mut b = TreeBuilder::new("root");
        let a = b.child_of_root("a").unwrap();
        let z = b.child_of_root("z").unwrap();
        let tree = b.build().unwrap();
        let res = tree.resolve_detailed([a, z]).unwrap();
        assert!(res.resolved().is_root());
    }

    #[test]
    fn empty_set_is_an_error() {
        let (tree, ..) = engines();
        assert_eq!(
            tree.resolve(std::iter::empty()),
            Err(TreeError::EmptyResolutionSet)
        );
    }

    #[test]
    fn unknown_id_is_an_error() {
        let (tree, ..) = engines();
        assert!(matches!(
            tree.resolve([ExceptionId::new(77)]),
            Err(TreeError::UnknownId(_))
        ));
    }

    #[test]
    fn duplicates_are_ignored_in_detailed_resolution() {
        let (tree, _e, left, _r) = engines();
        let res = tree.resolve_detailed([left, left, left]).unwrap();
        assert!(res.was_trivial());
        assert_eq!(res.raised(), &[left]);
    }

    #[test]
    fn occurrences_resolve_via_their_ids() {
        let (tree, emergency, left, right) = engines();
        let occs = vec![Exception::new(left), Exception::new(right)];
        assert_eq!(tree.resolve_occurrences(&occs).unwrap(), emergency);
    }

    #[test]
    fn resolution_is_order_independent() {
        let (tree, _e, left, right) = engines();
        let ab = tree.resolve([left, right]).unwrap();
        let ba = tree.resolve([right, left]).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn priority_policy_violates_coverage_where_tree_does_not() {
        // §2.2's argument, executed: two sibling engine failures. The
        // priority policy picks one of them, whose handler cannot cover
        // the other; the tree policy escalates to the emergency class.
        let (tree, emergency, left, right) = engines();
        let by_priority = resolve_by_priority(&tree, [left, right], |id| id.index()).unwrap();
        assert_eq!(by_priority, right, "priority picks a raised exception");
        assert!(
            !tree.is_ancestor(by_priority, left).unwrap(),
            "the priority winner does not cover the other failure"
        );
        let by_tree = tree.resolve([left, right]).unwrap();
        assert_eq!(by_tree, emergency);
        assert!(tree.is_ancestor(by_tree, left).unwrap());
        assert!(tree.is_ancestor(by_tree, right).unwrap());
    }

    #[test]
    fn priority_ties_break_toward_lower_id() {
        let (tree, _e, left, right) = engines();
        let picked = resolve_by_priority(&tree, [right, left], |_| 7).unwrap();
        assert_eq!(picked, left.min(right));
    }

    #[test]
    fn priority_rejects_empty_and_foreign() {
        let (tree, ..) = engines();
        assert_eq!(
            resolve_by_priority(&tree, std::iter::empty(), |_| 0),
            Err(TreeError::EmptyResolutionSet)
        );
        assert!(matches!(
            resolve_by_priority(&tree, [ExceptionId::new(50)], |_| 0),
            Err(TreeError::UnknownId(_))
        ));
    }

    #[test]
    fn resolved_covers_every_raised() {
        let (tree, _e, left, right) = engines();
        let res = tree.resolve_detailed([left, right]).unwrap();
        for &r in res.raised() {
            assert!(tree.is_ancestor(res.resolved(), r).unwrap());
        }
    }
}
