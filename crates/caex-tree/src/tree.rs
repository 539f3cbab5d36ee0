//! The exception tree: a rooted hierarchy imposing the resolution order.

use crate::{ExceptionId, TreeError};
use std::collections::HashMap;
use std::fmt;

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
    /// `parent[i]` is the parent of node `i`; the root stores itself.
    parent: Vec<u32>,
    /// `depth[i]` is the distance from the root (root = 0).
    depth: Vec<u32>,
    names: Vec<String>,
    children: Vec<Vec<u32>>,
    by_name: HashMap<String, u32>,
}

impl ExceptionTree {
    /// Returns the number of exception classes in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
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
        Ok(&self.names[self.check(id)?])
    }

    /// Looks an exception class up by its declared name.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownName`] if no class has that name.
    pub fn id_of(&self, name: &str) -> Result<ExceptionId, TreeError> {
        self.by_name
            .get(name)
            .map(|&i| ExceptionId::new(i))
            .ok_or_else(|| TreeError::UnknownName(name.to_owned()))
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
            Ok(Some(ExceptionId::new(self.parent[idx])))
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
        Ok(self.children[idx].iter().map(|&c| ExceptionId::new(c)))
    }

    /// Returns the distance of `id` from the root (root has depth 0).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownId`] if `id` is not in this tree.
    pub fn depth(&self, id: ExceptionId) -> Result<u32, TreeError> {
        Ok(self.depth[self.check(id)?])
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
            d = self.parent[d as usize];
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
        while self.depth[x as usize] > self.depth[y as usize] {
            x = self.parent[x as usize];
        }
        while self.depth[y as usize] > self.depth[x as usize] {
            y = self.parent[y as usize];
        }
        while x != y {
            x = self.parent[x as usize];
            y = self.parent[y as usize];
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
        let mut path = Vec::with_capacity(self.depth[idx as usize] as usize + 1);
        loop {
            path.push(ExceptionId::new(idx));
            if idx == 0 {
                return Ok(path);
            }
            idx = self.parent[idx as usize];
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
            for &c in self.children[n as usize].iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    /// Returns the ids of all leaf classes (classes with no children).
    #[must_use]
    pub fn leaves(&self) -> Vec<ExceptionId> {
        self.children
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_empty())
            .map(|(i, _)| ExceptionId::new(i as u32))
            .collect()
    }

    /// Returns the maximum depth of any class in the tree.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
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
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("  n{i} [label=\"{name}\"];\n"));
        }
        for (i, &p) in self.parent.iter().enumerate().skip(1) {
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
        if self.by_name.contains_key(&name) {
            return Err(TreeError::DuplicateName(name));
        }
        for &c in children {
            let idx = self.check(c)?;
            if idx == 0 || self.parent[idx] != 0 {
                return Err(TreeError::UnknownId(c));
            }
        }
        let new = self.len() as u32;
        let mut parent = self.parent.clone();
        parent.push(0);
        for &c in children {
            parent[c.index() as usize] = new;
        }
        // Reparenting breaks the parents-precede-children invariant
        // the builder relies on, so recompute depths breadth-first.
        let n = parent.len();
        let mut child_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            child_lists[p as usize].push(i as u32);
        }
        let mut depth = vec![0u32; n];
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(node) = queue.pop_front() {
            for &c in &child_lists[node as usize] {
                depth[c as usize] = depth[node as usize] + 1;
                queue.push_back(c);
            }
        }
        let mut names = self.names.clone();
        names.push(name.clone());
        let mut by_name = self.by_name.clone();
        by_name.insert(name, new);
        Ok(ExceptionTree {
            parent,
            depth,
            names,
            children: child_lists,
            by_name,
        })
    }
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
                tree.names[node as usize],
                indent = indent
            )?;
            for &c in &tree.children[node as usize] {
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
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl TreeBuilder {
    /// Starts a tree whose root class has the given name.
    #[must_use]
    pub fn new(root_name: impl Into<String>) -> Self {
        let root_name = root_name.into();
        let mut by_name = HashMap::new();
        by_name.insert(root_name.clone(), 0);
        TreeBuilder {
            parent: vec![0],
            names: vec![root_name],
            by_name,
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
        if self.by_name.contains_key(&name) {
            return Err(TreeError::DuplicateName(name));
        }
        let id = self.parent.len() as u32;
        self.parent.push(parent.index());
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        Ok(ExceptionId::new(id))
    }

    /// Finishes construction and returns the immutable tree.
    ///
    /// # Errors
    ///
    /// Currently infallible by construction but kept fallible for future
    /// validation extensions; never returns an error today.
    pub fn build(self) -> Result<ExceptionTree, TreeError> {
        let n = self.parent.len();
        let mut depth = vec![0u32; n];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 1..n {
            // Parents always precede children, so depths can be filled in
            // a single forward pass.
            depth[i] = depth[self.parent[i] as usize] + 1;
            children[self.parent[i] as usize].push(i as u32);
        }
        Ok(ExceptionTree {
            parent: self.parent,
            depth,
            names: self.names,
            children,
            by_name: self.by_name,
        })
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
