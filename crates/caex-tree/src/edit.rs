//! Minimal structural edits that repair resolution weaknesses.
//!
//! The static analyser reports *non-covering pairs* — raisable classes
//! whose concurrent resolution degenerates to the universal root
//! exception (see [`ExceptionTree::non_covering_pairs`]). The repair is
//! always the same shape: give the offending subtrees a common ancestor
//! below the root. [`TreeEdit`] describes that repair as data so a
//! fix-it engine can render it, cost it, and apply it.

use crate::{ExceptionId, ExceptionTree, TreeError};
use std::fmt;

/// One structural edit to an exception tree: insert a fresh class
/// between the root and a set of existing root-level subtrees.
///
/// Applying the edit is guaranteed to remove every non-covering pair
/// among the raisables it was computed from: after the edit, any two of
/// them meet at (or below) the inserted class instead of at the root.
///
/// # Examples
///
/// ```
/// use caex_tree::{TreeBuilder, TreeEdit};
///
/// # fn main() -> Result<(), caex_tree::TreeError> {
/// let mut b = TreeBuilder::new("universal");
/// let e1 = b.child_of_root("e1")?;
/// let e2 = b.child_of_root("e2")?;
/// let tree = b.build()?;
/// assert_eq!(tree.non_covering_pairs(&[e1, e2]).len(), 1);
///
/// let edit = TreeEdit::group_non_covering(&tree, &[e1, e2]).unwrap();
/// let fixed = edit.apply(&tree)?;
/// assert!(fixed.non_covering_pairs(&[e1, e2]).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeEdit {
    /// Name of the class to insert (fresh in the target tree).
    pub name: String,
    /// Direct children of the root to reparent under the new class.
    pub grouped: Vec<ExceptionId>,
}

impl TreeEdit {
    /// Computes the minimal insert-parent edit that removes every
    /// non-covering pair among `raisables`, or `None` when the tree is
    /// already free of them (or the raisables share fewer than two
    /// root-level subtrees).
    ///
    /// The edit groups the root-child ancestor of each non-root
    /// raisable under one fresh class, so the LCA of any two raisables
    /// drops from the root to the inserted class: a single insertion,
    /// which is as small as a covering repair can be.
    #[must_use]
    pub fn group_non_covering(tree: &ExceptionTree, raisables: &[ExceptionId]) -> Option<TreeEdit> {
        if tree.non_covering_pairs(raisables).is_empty() {
            return None;
        }
        let mut grouped: Vec<ExceptionId> = Vec::new();
        for &id in raisables {
            let Ok(path) = tree.path_to_root(id) else {
                continue;
            };
            // path = [id, .., root_child, root]; the root-child ancestor
            // is the second-to-last entry (id itself may be the root).
            if path.len() < 2 {
                continue;
            }
            let root_child = path[path.len() - 2];
            if !grouped.contains(&root_child) {
                grouped.push(root_child);
            }
        }
        if grouped.len() < 2 {
            return None;
        }
        let mut name = String::from("resolution_group");
        let mut suffix = 2;
        while tree.id_of(&name).is_ok() {
            name = format!("resolution_group_{suffix}");
            suffix += 1;
        }
        Some(TreeEdit { name, grouped })
    }

    /// Number of elementary operations the edit performs: one class
    /// insertion plus one reparenting per grouped subtree. This is the
    /// edit distance between the original tree and the repaired one
    /// under insert/reparent operations.
    #[must_use]
    pub fn cost(&self) -> usize {
        1 + self.grouped.len()
    }

    /// Applies the edit, returning the repaired tree. Existing ids keep
    /// their meaning; the inserted class takes the next free id.
    ///
    /// # Errors
    ///
    /// [`TreeError`] for a duplicate name or a grouped id that is not a
    /// direct child of the root in `tree`.
    pub fn apply(&self, tree: &ExceptionTree) -> Result<ExceptionTree, TreeError> {
        tree.with_inserted_parent(self.name.clone(), &self.grouped)
    }
}

impl fmt::Display for TreeEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insert class \"{}\" under the root and reparent [",
            self.name
        )?;
        for (i, id) in self.grouped.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "] beneath it ({} operations)", self.cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    /// root → {a → a1, b → b1, c}; raisables a1 and b1 meet only at
    /// the root.
    fn flat() -> (ExceptionTree, ExceptionId, ExceptionId, ExceptionId) {
        let mut b = TreeBuilder::new("root");
        let a = b.child_of_root("a").unwrap();
        let bb = b.child_of_root("b").unwrap();
        let c = b.child_of_root("c").unwrap();
        let a1 = b.child("a1", a).unwrap();
        let b1 = b.child("b1", bb).unwrap();
        (b.build().unwrap(), a1, b1, c)
    }

    #[test]
    fn grouping_removes_all_pairs_and_preserves_ids() {
        let (tree, a1, b1, c) = flat();
        assert!(!tree.non_covering_pairs(&[a1, b1, c]).is_empty());
        let edit = TreeEdit::group_non_covering(&tree, &[a1, b1, c]).unwrap();
        let fixed = edit.apply(&tree).unwrap();
        assert!(fixed.non_covering_pairs(&[a1, b1, c]).is_empty());
        // Old ids keep their names; the new class is appended.
        assert_eq!(fixed.name(a1).unwrap(), "a1");
        assert_eq!(fixed.len(), tree.len() + 1);
        // Resolution of the repaired pair is now informative.
        assert!(!fixed.resolve([a1, b1]).unwrap().is_root());
    }

    #[test]
    fn covered_raisables_need_no_edit() {
        let mut b = TreeBuilder::new("root");
        let g = b.child_of_root("g").unwrap();
        let x = b.child("x", g).unwrap();
        let y = b.child("y", g).unwrap();
        let tree = b.build().unwrap();
        assert!(TreeEdit::group_non_covering(&tree, &[x, y]).is_none());
    }

    #[test]
    fn name_collisions_pick_a_fresh_suffix() {
        let mut b = TreeBuilder::new("root");
        b.child_of_root("resolution_group").unwrap();
        let x = b.child_of_root("x").unwrap();
        let y = b.child_of_root("y").unwrap();
        let tree = b.build().unwrap();
        let edit = TreeEdit::group_non_covering(&tree, &[x, y]).unwrap();
        assert_eq!(edit.name, "resolution_group_2");
        assert!(edit.apply(&tree).is_ok());
    }

    #[test]
    fn cost_counts_insert_plus_reparents() {
        let (tree, a1, b1, c) = flat();
        let edit = TreeEdit::group_non_covering(&tree, &[a1, b1, c]).unwrap();
        assert_eq!(edit.cost(), 1 + edit.grouped.len());
        assert!(edit.to_string().contains("resolution_group"));
    }

    #[test]
    fn apply_rejects_non_root_children() {
        let (tree, a1, _b1, _c) = flat();
        let edit = TreeEdit {
            name: "g".into(),
            grouped: vec![a1], // a1 is a grandchild of the root
        };
        assert!(edit.apply(&tree).is_err());
    }

    #[test]
    fn depths_are_recomputed_below_the_insertion() {
        let (tree, a1, b1, _c) = flat();
        let edit = TreeEdit::group_non_covering(&tree, &[a1, b1]).unwrap();
        let fixed = edit.apply(&tree).unwrap();
        let new = fixed.id_of(&edit.name).unwrap();
        assert_eq!(fixed.depth(new).unwrap(), 1);
        assert_eq!(fixed.depth(a1).unwrap(), tree.depth(a1).unwrap() + 1);
        assert_eq!(fixed.lca(a1, b1).unwrap(), new);
    }
}
