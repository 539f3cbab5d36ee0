//! The exception tree: a rooted hierarchy imposing the resolution order.
//!
//! # Representation
//!
//! §4.1 has every CA action declare its exception tree statically, and
//! nothing changes it while the action runs, so a tree is stored as a
//! flat, immutable table rather than a growable graph:
//!
//! - one row per class, in id order: its parent (the root stores
//!   itself), its depth, and where its children and its name end;
//! - the children of every class in one array, grouped by parent, each
//!   group in declaration order (a class's children start where the
//!   previous class's end);
//! - every name in one concatenated `str`, cut by the rows' name ends;
//! - the ids sorted by name, which [`ExceptionTree::id_of`] searches.
//!
//! Each of the four is a boxed slice sized at construction: a tree is
//! four allocations with no spare capacity, and no name is stored
//! twice. Both ways to make one — [`TreeBuilder::build`] and the
//! insert-parent edit ([`crate::TreeEdit::apply`]) — go through one
//! constructor from a parent array.

use crate::{ExceptionId, TreeError};
use std::fmt;

/// One class's row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Class {
    /// The parent's id; the root stores itself.
    parent: u32,
    /// Distance from the root (root = 0).
    depth: u32,
    /// End of this class's children in `ExceptionTree::kids`.
    kids_end: u32,
    /// End of this class's name in `ExceptionTree::names`.
    name_end: u32,
}

/// A rooted exception hierarchy declared with a CA action.
///
/// The tree encodes the paper's partial order on exceptions: an exception
/// `a` is *higher* than `b` when `a` is an ancestor of `b`, meaning the
/// handler for `a` is able to handle `b` as well (§2.2). Every tree has a
/// single root — the "universal exception" whose handler covers anything.
///
/// Trees are immutable once built (the paper requires the resolution tree
/// to be statically declared, §4.1); construct them with [`TreeBuilder`].
///
/// # Examples
///
/// ```
/// use caex_tree::TreeBuilder;
///
/// # fn main() -> Result<(), caex_tree::TreeError> {
/// let mut b = TreeBuilder::new("universal");
/// let io = b.child_of_root("io_error")?;
/// let timeout = b.child("timeout", io)?;
/// let tree = b.build()?;
///
/// assert!(tree.is_ancestor(io, timeout)?);
/// assert_eq!(tree.depth(timeout)?, 2);
/// assert_eq!(tree.name(io)?, "io_error");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExceptionTree {
    /// One row per class, in id order.
    classes: Box<[Class]>,
    /// Every class's children, grouped by parent.
    kids: Box<[u32]>,
    /// Every name, concatenated in id order.
    names: Box<str>,
    /// The ids, sorted by name.
    by_name: Box<[u32]>,
}

impl ExceptionTree {
    /// The one constructor: the table of the tree whose class `i` has
    /// parent `parent[i]` (the root, class 0, stores itself) and the
    /// name `names[name_ends[i - 1]..name_ends[i]]`. `by_name` holds
    /// the ids sorted by name. The parents may come in any order.
    fn from_parents(parent: &[u32], names: String, name_ends: &[u32], by_name: Vec<u32>) -> Self {
        let n = parent.len();
        // Children grouped by parent: a counting sort over the ids in
        // ascending order, so each group keeps declaration order.
        // `ends` holds each group's start, then, once filled, its end.
        let mut ends = vec![0u32; n];
        for &p in &parent[1..] {
            ends[p as usize] += 1;
        }
        let mut start = 0;
        for slot in &mut ends {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut kids = vec![0u32; n - 1].into_boxed_slice();
        for (i, &p) in parent.iter().enumerate().skip(1) {
            let slot = &mut ends[p as usize];
            kids[*slot as usize] = i as u32;
            *slot += 1;
        }
        let mut classes: Box<[Class]> = (0..n)
            .map(|i| Class {
                parent: parent[i],
                depth: 0,
                kids_end: ends[i],
                name_end: name_ends[i],
            })
            .collect();
        // Depths top-down over the children table, breadth first: an
        // inserted parent takes an id after its children's.
        let mut order = Vec::with_capacity(n);
        order.push(0u32);
        let mut next = 0;
        while let Some(&node) = order.get(next) {
            next += 1;
            let depth = classes[node as usize].depth + 1;
            let (from, to) = Self::kid_range(&classes, node as usize);
            for &c in &kids[from..to] {
                classes[c as usize].depth = depth;
                order.push(c);
            }
        }
        ExceptionTree {
            classes,
            kids,
            names: names.into_boxed_str(),
            by_name: by_name.into_boxed_slice(),
        }
    }

    /// Where the children of class `i` sit in `kids`.
    fn kid_range(classes: &[Class], i: usize) -> (usize, usize) {
        let from = if i == 0 { 0 } else { classes[i - 1].kids_end };
        (from as usize, classes[i].kids_end as usize)
    }

    fn kids_of(&self, i: usize) -> &[u32] {
        let (from, to) = Self::kid_range(&self.classes, i);
        &self.kids[from..to]
    }

    fn name_at(&self, i: usize) -> &str {
        let from = if i == 0 { 0 } else { self.classes[i - 1].name_end };
        &self.names[from as usize..self.classes[i].name_end as usize]
    }

    fn parent_of(&self, i: u32) -> u32 {
        self.classes[i as usize].parent
    }

    fn depth_of(&self, i: u32) -> u32 {
        self.classes[i as usize].depth
    }

    /// Where `name` sits in `by_name`: `Ok` when declared, `Err` with
    /// its insertion point otherwise.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.by_name.binary_search_by(|&i| self.name_at(i as usize).cmp(name))
    }

    /// Returns the number of exception classes in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if the tree contains only the root.
    ///
    /// A tree is never fully empty — construction guarantees a root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Returns the root ("universal") exception id.
    #[must_use]
    pub fn root(&self) -> ExceptionId {
        ExceptionId::ROOT
    }

    /// Returns `true` if `id` names a class of this tree.
    #[must_use]
    pub fn contains(&self, id: ExceptionId) -> bool {
        (id.index() as usize) < self.len()
    }

    fn check(&self, id: ExceptionId) -> Result<usize, TreeError> {
        let idx = id.index() as usize;
        if idx < self.len() {
            Ok(idx)
        } else {
            Err(TreeError::UnknownId(id))
        }
    }

    /// Returns the declared name of an exception class.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn name(&self, id: ExceptionId) -> Result<&str, TreeError> {
        Ok(self.name_at(self.check(id)?))
    }

    /// Looks an exception class up by its declared name.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownName`] if no class has that name.
    pub fn id_of(&self, name: &str) -> Result<ExceptionId, TreeError> {
        self.find(name)
            .map(|at| ExceptionId::new(self.by_name[at]))
            .map_err(|_| TreeError::UnknownName(name.to_owned()))
    }

    /// Returns the parent of `id`, or `None` for the root.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn parent(&self, id: ExceptionId) -> Result<Option<ExceptionId>, TreeError> {
        let idx = self.check(id)?;
        if idx == 0 {
            Ok(None)
        } else {
            Ok(Some(ExceptionId::new(self.classes[idx].parent)))
        }
    }

    /// Returns the children of `id` in declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn children(
        &self,
        id: ExceptionId,
    ) -> Result<impl Iterator<Item = ExceptionId> + '_, TreeError> {
        let idx = self.check(id)?;
        Ok(self.kids_of(idx).iter().map(|&c| ExceptionId::new(c)))
    }

    /// Returns the distance of `id` from the root (root has depth 0).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn depth(&self, id: ExceptionId) -> Result<u32, TreeError> {
        Ok(self.classes[self.check(id)?].depth)
    }

    /// Returns `true` if `ancestor` covers `descendant` — i.e. the handler
    /// for `ancestor` is able to handle `descendant`. Every class is its
    /// own ancestor.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if either id is not in this tree.
    pub fn is_ancestor(
        &self,
        ancestor: ExceptionId,
        descendant: ExceptionId,
    ) -> Result<bool, TreeError> {
        let a = self.check(ancestor)? as u32;
        let mut d = self.check(descendant)? as u32;
        loop {
            if d == a {
                return Ok(true);
            }
            if d == 0 {
                return Ok(false);
            }
            d = self.parent_of(d);
        }
    }

    /// Returns the lowest common ancestor of two classes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if either id is not in this tree.
    pub fn lca(&self, a: ExceptionId, b: ExceptionId) -> Result<ExceptionId, TreeError> {
        let mut x = self.check(a)? as u32;
        let mut y = self.check(b)? as u32;
        while self.depth_of(x) > self.depth_of(y) {
            x = self.parent_of(x);
        }
        while self.depth_of(y) > self.depth_of(x) {
            y = self.parent_of(y);
        }
        while x != y {
            x = self.parent_of(x);
            y = self.parent_of(y);
        }
        Ok(ExceptionId::new(x))
    }

    /// Returns the path from `id` up to and including the root.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn path_to_root(&self, id: ExceptionId) -> Result<Vec<ExceptionId>, TreeError> {
        let mut idx = self.check(id)? as u32;
        let mut path = Vec::with_capacity(self.depth_of(idx) as usize + 1);
        loop {
            path.push(ExceptionId::new(idx));
            if idx == 0 {
                return Ok(path);
            }
            idx = self.parent_of(idx);
        }
    }

    /// Iterates over all exception ids in the tree, root first.
    pub fn iter(&self) -> impl Iterator<Item = ExceptionId> + '_ {
        (0..self.len() as u32).map(ExceptionId::new)
    }

    /// Returns all ids in the subtree rooted at `id` (preorder).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn subtree(&self, id: ExceptionId) -> Result<Vec<ExceptionId>, TreeError> {
        let start = self.check(id)? as u32;
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            out.push(ExceptionId::new(n));
            // Push in reverse so preorder visits children left-to-right.
            stack.extend(self.kids_of(n as usize).iter().rev());
        }
        Ok(out)
    }

    /// Returns the ids of all leaf classes (classes with no children).
    #[must_use]
    pub fn leaves(&self) -> Vec<ExceptionId> {
        (0..self.len())
            .filter(|&i| self.kids_of(i).is_empty())
            .map(|i| ExceptionId::new(i as u32))
            .collect()
    }

    /// Returns the maximum depth of any class in the tree.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.classes.iter().map(|c| c.depth).max().unwrap_or(0)
    }


    /// Summary statistics of the tree's shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_tree::balanced_tree;
    ///
    /// let stats = balanced_tree(2, 3).stats();
    /// assert_eq!(stats.classes, 15);
    /// assert_eq!(stats.height, 3);
    /// assert_eq!(stats.leaves, 8);
    /// assert!((stats.mean_branching - 2.0).abs() < f64::EPSILON);
    /// ```
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        let leaves = self.leaves().len();
        let internal = self.len() - leaves;
        let mean_branching = if internal == 0 {
            0.0
        } else {
            (self.len() - 1) as f64 / internal as f64
        };
        TreeStats {
            classes: self.len(),
            height: self.height(),
            leaves,
            mean_branching,
        }
    }

    /// Renders the tree in Graphviz DOT format (edges point from parent
    /// to child), for documentation and debugging.
    ///
    /// # Examples
    ///
    /// ```
    /// use caex_tree::aircraft_tree;
    ///
    /// let dot = aircraft_tree().to_dot();
    /// assert!(dot.starts_with("digraph exception_tree {"));
    /// assert!(dot.contains("left_engine_exception"));
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph exception_tree {\n  rankdir=TB;\n");
        for i in 0..self.len() {
            let name = self.name_at(i);
            out.push_str(&format!("  n{i} [label=\"{name}\"];\n"));
        }
        for (i, class) in self.classes.iter().enumerate().skip(1) {
            let p = class.parent;
            out.push_str(&format!("  n{p} -> n{i};\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Returns `true` when a handler bound to `handler_class` covers a
    /// raise of `raised`: the handler's class is an ancestor of (or
    /// equal to) the raised class. Alias of [`ExceptionTree::is_ancestor`]
    /// in the vocabulary used by the static analyser.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if either id is not in this tree.
    pub fn covers(&self, handler_class: ExceptionId, raised: ExceptionId) -> Result<bool, TreeError> {
        self.is_ancestor(handler_class, raised)
    }

    /// Returns every unordered pair from `raisables` whose concurrent
    /// resolution degenerates to the universal (root) exception: their
    /// LCA is the root while neither member is the root itself.
    ///
    /// Such pairs predict the §4.2 resolution fallback — if both are
    /// raised concurrently the resolved class carries no information
    /// beyond "something went wrong", which the linter flags.
    ///
    /// Unknown ids are skipped rather than reported; callers that care
    /// should validate membership first with [`ExceptionTree::contains`].
    #[must_use]
    pub fn non_covering_pairs(&self, raisables: &[ExceptionId]) -> Vec<(ExceptionId, ExceptionId)> {
        let root = self.root();
        let known: Vec<ExceptionId> = {
            let mut seen = Vec::new();
            for &id in raisables {
                if self.contains(id) && !seen.contains(&id) {
                    seen.push(id);
                }
            }
            seen
        };
        let mut pairs = Vec::new();
        for (i, &a) in known.iter().enumerate() {
            for &b in &known[i + 1..] {
                if a == root || b == root {
                    continue;
                }
                if self.lca(a, b) == Ok(root) {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Returns the set of classes on some root path of a raisable: the
    /// union of [`ExceptionTree::path_to_root`] over `raisables`, sorted
    /// by id. Classes *outside* this closure can never be raised nor
    /// resolved to, which makes them dead weight in a declaration.
    ///
    /// Unknown ids are skipped.
    #[must_use]
    pub fn ancestor_closure(&self, raisables: &[ExceptionId]) -> Vec<ExceptionId> {
        let mut mark = vec![false; self.len()];
        for &id in raisables {
            if let Ok(path) = self.path_to_root(id) {
                for p in path {
                    mark[p.index() as usize] = true;
                }
            }
        }
        mark.iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| ExceptionId::new(i as u32))
            .collect()
    }

    /// Returns `true` when the tree is a single chain (every class has
    /// at most one child). A chain hierarchy makes every concurrent
    /// resolution trivially pick the shallower exception — usually a
    /// sign the tree was not designed for concurrent raises.
    #[must_use]
    pub fn is_chain(&self) -> bool {
        self.iter().all(|id| {
            self.children(id)
                .map(|c| c.count() <= 1)
                .unwrap_or(true)
        })
    }

    /// Returns a copy of this tree with one new class named `name`
    /// inserted between the root and the given `children`, which must
    /// currently be direct children of the root. Existing ids keep
    /// their meaning; the new class takes the next free id.
    ///
    /// This is the minimal structural edit that gives a set of
    /// root-level subtrees a common ancestor below the root — the
    /// repair suggested by the static analyser when concurrent raises
    /// would otherwise resolve to the uninformative universal
    /// exception (see [`ExceptionTree::non_covering_pairs`]).
    ///
    /// # Errors
    ///
    /// - [`TreeError::DuplicateName`] if `name` is already declared;
    /// - [`TreeError::UnknownId`] if a listed child is not in the tree,
    ///   is the root itself, or is not a direct child of the root.
    pub(crate) fn with_inserted_parent(
        &self,
        name: impl Into<String>,
        children: &[ExceptionId],
    ) -> Result<ExceptionTree, TreeError> {
        let name = name.into();
        let Err(at) = self.find(&name) else {
            return Err(TreeError::DuplicateName(name));
        };
        for &c in children {
            let idx = self.check(c)?;
            if idx == 0 || self.classes[idx].parent != 0 {
                return Err(TreeError::UnknownId(c));
            }
        }
        let new = self.len() as u32;
        let mut parent: Vec<u32> = self.classes.iter().map(|c| c.parent).collect();
        parent.push(0);
        for &c in children {
            parent[c.index() as usize] = new;
        }
        let mut names = String::with_capacity(self.names.len() + name.len());
        names.push_str(&self.names);
        names.push_str(&name);
        let mut name_ends: Vec<u32> = self.classes.iter().map(|c| c.name_end).collect();
        name_ends.push(names_len(&names));
        let mut by_name = Vec::with_capacity(self.by_name.len() + 1);
        by_name.extend_from_slice(&self.by_name[..at]);
        by_name.push(new);
        by_name.extend_from_slice(&self.by_name[at..]);
        Ok(ExceptionTree::from_parents(&parent, names, &name_ends, by_name))
    }
}

/// The end offset of the last name pushed onto `names`.
fn names_len(names: &str) -> u32 {
    u32::try_from(names.len()).expect("a tree's names total under 4 GiB")
}

impl fmt::Display for ExceptionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            tree: &ExceptionTree,
            node: u32,
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            writeln!(
                f,
                "{:indent$}{} {}",
                "",
                ExceptionId::new(node),
                tree.name_at(node as usize),
                indent = indent
            )?;
            for &c in tree.kids_of(node as usize) {
                rec(tree, c, indent + 2, f)?;
            }
            Ok(())
        }
        rec(self, 0, 0, f)
    }
}

/// Shape summary produced by [`ExceptionTree::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Number of exception classes (including the root).
    pub classes: usize,
    /// Maximum depth.
    pub height: u32,
    /// Number of leaf classes.
    pub leaves: usize,
    /// Average children per internal node.
    pub mean_branching: f64,
}

/// Builder for [`ExceptionTree`].
///
/// Nodes are added top-down: the root is fixed at construction, children
/// are attached to already-declared parents, so the result is acyclic and
/// connected by construction. Names must be unique.
///
/// # Examples
///
/// ```
/// use caex_tree::TreeBuilder;
///
/// # fn main() -> Result<(), caex_tree::TreeError> {
/// let mut b = TreeBuilder::new("universal");
/// let disk = b.child_of_root("disk_error")?;
/// b.child("disk_full", disk)?;
/// let tree = b.build()?;
/// assert_eq!(tree.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    parent: Vec<u32>,
    /// Every name so far, concatenated in id order.
    names: String,
    name_ends: Vec<u32>,
    /// The ids so far, sorted by name.
    by_name: Vec<u32>,
}

impl TreeBuilder {
    /// Starts a tree whose root class has the given name.
    #[must_use]
    pub fn new(root_name: impl Into<String>) -> Self {
        let names = root_name.into();
        TreeBuilder {
            parent: vec![0],
            name_ends: vec![names_len(&names)],
            names,
            by_name: vec![0],
        }
    }

    /// Declares a new class as a child of the root.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::DuplicateName`] if `name` is already declared.
    pub fn child_of_root(&mut self, name: impl Into<String>) -> Result<ExceptionId, TreeError> {
        self.child(name, ExceptionId::ROOT)
    }

    /// Declares a new class as a child of `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `parent` has not been declared,
    /// or [`TreeError::DuplicateName`] if `name` is already declared.
    pub fn child(
        &mut self,
        name: impl Into<String>,
        parent: ExceptionId,
    ) -> Result<ExceptionId, TreeError> {
        let name = name.into();
        if (parent.index() as usize) >= self.parent.len() {
            return Err(TreeError::UnknownId(parent));
        }
        let found = self.by_name.binary_search_by(|&i| self.name_at(i as usize).cmp(&name));
        let Err(at) = found else {
            return Err(TreeError::DuplicateName(name));
        };
        let id = self.parent.len() as u32;
        self.parent.push(parent.index());
        self.names.push_str(&name);
        self.name_ends.push(names_len(&self.names));
        self.by_name.insert(at, id);
        Ok(ExceptionId::new(id))
    }

    fn name_at(&self, i: usize) -> &str {
        let from = if i == 0 { 0 } else { self.name_ends[i - 1] };
        &self.names[from as usize..self.name_ends[i] as usize]
    }

    /// Finishes construction and returns the immutable tree.
    ///
    /// # Errors
    ///
    /// Currently infallible by construction but kept fallible for future
    /// validation extensions; never returns an error today.
    pub fn build(self) -> Result<ExceptionTree, TreeError> {
        Ok(ExceptionTree::from_parents(&self.parent, self.names, &self.name_ends, self.by_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (
        ExceptionTree,
        ExceptionId,
        ExceptionId,
        ExceptionId,
        ExceptionId,
    ) {
        let mut b = TreeBuilder::new("root");
        let a = b.child_of_root("a").unwrap();
        let b1 = b.child("b1", a).unwrap();
        let b2 = b.child("b2", a).unwrap();
        let c = b.child("c", b1).unwrap();
        (b.build().unwrap(), a, b1, b2, c)
    }

    #[test]
    fn root_only_tree_is_empty() {
        let tree = TreeBuilder::new("root").build().unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn depths_follow_structure() {
        let (tree, a, b1, _b2, c) = sample();
        assert_eq!(tree.depth(tree.root()).unwrap(), 0);
        assert_eq!(tree.depth(a).unwrap(), 1);
        assert_eq!(tree.depth(b1).unwrap(), 2);
        assert_eq!(tree.depth(c).unwrap(), 3);
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn ancestor_relation() {
        let (tree, a, b1, b2, c) = sample();
        assert!(tree.is_ancestor(a, c).unwrap());
        assert!(tree.is_ancestor(tree.root(), c).unwrap());
        assert!(tree.is_ancestor(c, c).unwrap());
        assert!(!tree.is_ancestor(c, a).unwrap());
        assert!(!tree.is_ancestor(b2, b1).unwrap());
    }

    #[test]
    fn lca_of_siblings_is_parent() {
        let (tree, a, b1, b2, c) = sample();
        assert_eq!(tree.lca(b1, b2).unwrap(), a);
        assert_eq!(tree.lca(c, b2).unwrap(), a);
        assert_eq!(tree.lca(c, b1).unwrap(), b1);
        assert_eq!(tree.lca(c, c).unwrap(), c);
    }

    #[test]
    fn path_to_root_ends_at_root() {
        let (tree, a, b1, _b2, c) = sample();
        let path = tree.path_to_root(c).unwrap();
        assert_eq!(path, vec![c, b1, a, tree.root()]);
    }

    #[test]
    fn subtree_is_preorder() {
        let (tree, a, b1, b2, c) = sample();
        assert_eq!(tree.subtree(a).unwrap(), vec![a, b1, c, b2]);
    }

    #[test]
    fn leaves_have_no_children() {
        let (tree, _a, _b1, b2, c) = sample();
        let leaves = tree.leaves();
        assert_eq!(leaves, vec![b2, c]);
    }

    #[test]
    fn name_lookup_round_trips() {
        let (tree, a, ..) = sample();
        assert_eq!(tree.id_of("a").unwrap(), a);
        assert_eq!(tree.name(a).unwrap(), "a");
        assert!(matches!(tree.id_of("nope"), Err(TreeError::UnknownName(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = TreeBuilder::new("root");
        b.child_of_root("x").unwrap();
        assert!(matches!(
            b.child_of_root("x"),
            Err(TreeError::DuplicateName(_))
        ));
        // The root name is also reserved.
        assert!(matches!(
            b.child_of_root("root"),
            Err(TreeError::DuplicateName(_))
        ));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = TreeBuilder::new("root");
        assert!(matches!(
            b.child("x", ExceptionId::new(9)),
            Err(TreeError::UnknownId(_))
        ));
    }

    #[test]
    fn unknown_id_queries_error() {
        let (tree, ..) = sample();
        let bogus = ExceptionId::new(99);
        assert!(tree.name(bogus).is_err());
        assert!(tree.parent(bogus).is_err());
        assert!(tree.depth(bogus).is_err());
        assert!(tree.is_ancestor(bogus, tree.root()).is_err());
        assert!(tree.lca(bogus, tree.root()).is_err());
        assert!(tree.path_to_root(bogus).is_err());
        assert!(tree.subtree(bogus).is_err());
        assert!(!tree.contains(bogus));
    }

    #[test]
    fn display_renders_every_node() {
        let (tree, ..) = sample();
        let shown = tree.to_string();
        for id in tree.iter() {
            assert!(shown.contains(tree.name(id).unwrap()));
        }
    }

    #[test]
    fn stats_of_chain_and_root() {
        let (tree, ..) = sample();
        let stats = tree.stats();
        assert_eq!(stats.classes, 5);
        assert_eq!(stats.height, 3);
        assert_eq!(stats.leaves, 2);
        let root_only = TreeBuilder::new("r").build().unwrap();
        let stats = root_only.stats();
        assert_eq!(stats.classes, 1);
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.mean_branching, 0.0);
    }

    #[test]
    fn dot_export_names_every_node_and_edge() {
        let (tree, ..) = sample();
        let dot = tree.to_dot();
        for id in tree.iter() {
            assert!(dot.contains(tree.name(id).unwrap()));
        }
        // Edges = nodes − 1 in a tree.
        assert_eq!(dot.matches("->").count(), tree.len() - 1);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn children_iterator_matches_structure() {
        let (tree, a, b1, b2, _c) = sample();
        let kids: Vec<_> = tree.children(a).unwrap().collect();
        assert_eq!(kids, vec![b1, b2]);
        let root_kids: Vec<_> = tree.children(tree.root()).unwrap().collect();
        assert_eq!(root_kids, vec![a]);
    }
}
