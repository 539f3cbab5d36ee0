//! Property-based tests for the exception-tree invariants the resolution
//! algorithm relies on.

use caex_tree::{
    balanced_tree, chain_tree, Exception, ExceptionBuilder, ExceptionId, ExceptionTree,
    ReducedTree, Severity, TreeBuilder, TreeEdit, TreeError,
};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

/// Strategy: a random tree built by attaching each new node to a random
/// existing node, plus the node count.
fn arb_tree() -> impl Strategy<Value = ExceptionTree> {
    // Parent choices: node i+1 attaches to some index in [0, i].
    prop::collection::vec(0usize..=usize::MAX, 0..40).prop_map(|choices| {
        let mut b = TreeBuilder::new("root");
        let mut ids = vec![ExceptionId::ROOT];
        for (i, c) in choices.into_iter().enumerate() {
            let parent = ids[c % ids.len()];
            let id = b.child(format!("n{i}"), parent).unwrap();
            ids.push(id);
        }
        b.build().unwrap()
    })
}

fn arb_tree_and_ids() -> impl Strategy<Value = (ExceptionTree, Vec<ExceptionId>)> {
    arb_tree().prop_flat_map(|tree| {
        let n = tree.len() as u32;
        let ids = prop::collection::vec(0..n, 1..12)
            .prop_map(|v| v.into_iter().map(ExceptionId::new).collect::<Vec<_>>());
        (Just(tree), ids)
    })
}

proptest! {
    /// The resolved exception is an ancestor of every raised exception —
    /// invariant 3 of DESIGN.md ("coverage").
    #[test]
    fn resolved_covers_all_raised((tree, raised) in arb_tree_and_ids()) {
        let resolved = tree.resolve(raised.iter().copied()).unwrap();
        for &r in &raised {
            prop_assert!(tree.is_ancestor(resolved, r).unwrap());
        }
    }

    /// The resolved exception is the *least* covering one: no strict
    /// descendant of it covers the whole raised set — invariant 4
    /// ("minimality").
    #[test]
    fn resolved_is_minimal((tree, raised) in arb_tree_and_ids()) {
        let resolved = tree.resolve(raised.iter().copied()).unwrap();
        for candidate in tree.subtree(resolved).unwrap() {
            if candidate == resolved {
                continue;
            }
            let covers_all = raised
                .iter()
                .all(|&r| tree.is_ancestor(candidate, r).unwrap());
            prop_assert!(
                !covers_all,
                "strict descendant {candidate} also covers the raised set"
            );
        }
    }

    /// Resolution is independent of the order exceptions arrive in.
    #[test]
    fn resolution_is_commutative((tree, raised) in arb_tree_and_ids()) {
        let forward = tree.resolve(raised.iter().copied()).unwrap();
        let mut reversed = raised.clone();
        reversed.reverse();
        let backward = tree.resolve(reversed).unwrap();
        prop_assert_eq!(forward, backward);
    }

    /// Resolution is idempotent: feeding the result back in changes
    /// nothing.
    #[test]
    fn resolution_is_idempotent((tree, raised) in arb_tree_and_ids()) {
        let resolved = tree.resolve(raised.iter().copied()).unwrap();
        let mut extended = raised.clone();
        extended.push(resolved);
        prop_assert_eq!(tree.resolve(extended).unwrap(), resolved);
    }

    /// A singleton set resolves to itself.
    #[test]
    fn singleton_resolves_to_itself(tree in arb_tree(), seed in 0u32..1000) {
        let id = ExceptionId::new(seed % tree.len() as u32);
        prop_assert_eq!(tree.resolve([id]).unwrap(), id);
    }

    /// `lca` is symmetric and dominated by the root.
    #[test]
    fn lca_symmetric((tree, raised) in arb_tree_and_ids()) {
        let a = raised[0];
        let b = *raised.last().unwrap();
        let ab = tree.lca(a, b).unwrap();
        let ba = tree.lca(b, a).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert!(tree.is_ancestor(tree.root(), ab).unwrap());
    }

    /// `path_to_root` has strictly decreasing depth and correct endpoints.
    #[test]
    fn path_to_root_is_monotone(tree in arb_tree(), seed in 0u32..1000) {
        let id = ExceptionId::new(seed % tree.len() as u32);
        let path = tree.path_to_root(id).unwrap();
        prop_assert_eq!(path[0], id);
        prop_assert_eq!(*path.last().unwrap(), tree.root());
        for w in path.windows(2) {
            prop_assert_eq!(
                tree.depth(w[0]).unwrap(),
                tree.depth(w[1]).unwrap() + 1
            );
            prop_assert_eq!(tree.parent(w[0]).unwrap(), Some(w[1]));
        }
    }

    /// A reduced tree's climb always lands on a handled ancestor of the
    /// raised exception.
    #[test]
    fn reduced_climb_lands_on_handled_ancestor(
        (tree, raised) in arb_tree_and_ids(),
        subset_mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let handled = tree
            .iter()
            .filter(|id| subset_mask.get(id.index() as usize).copied().unwrap_or(false))
            .collect::<Vec<_>>();
        let rt = ReducedTree::new(&tree, handled).unwrap();
        for &r in &raised {
            let landed = rt.closest_handled_ancestor(&tree, r).unwrap();
            prop_assert!(rt.handles(landed));
            prop_assert!(tree.is_ancestor(landed, r).unwrap());
        }
    }

    /// Subtree membership is equivalent to the ancestor relation.
    #[test]
    fn subtree_matches_ancestor_relation(tree in arb_tree(), seed in 0u32..1000) {
        let id = ExceptionId::new(seed % tree.len() as u32);
        let sub: std::collections::HashSet<_> =
            tree.subtree(id).unwrap().into_iter().collect();
        for other in tree.iter() {
            prop_assert_eq!(
                sub.contains(&other),
                tree.is_ancestor(id, other).unwrap()
            );
        }
    }
}

proptest! {
    /// Spec round trip: any tree serialises to a spec that parses back
    /// to a structurally identical tree (ids are renumbered in DFS
    /// order by the parser, so compare by names and parent names).
    #[test]
    fn spec_round_trip(tree in arb_tree()) {
        let spec = tree.to_spec();
        let parsed = ExceptionTree::parse(&spec).unwrap();
        prop_assert_eq!(parsed.len(), tree.len());
        for id in tree.iter() {
            let name = tree.name(id).unwrap();
            let parsed_id = parsed.id_of(name).unwrap();
            let parent_name = tree
                .parent(id)
                .unwrap()
                .map(|p| tree.name(p).unwrap().to_owned());
            let parsed_parent_name = parsed
                .parent(parsed_id)
                .unwrap()
                .map(|p| parsed.name(p).unwrap().to_owned());
            prop_assert_eq!(parent_name, parsed_parent_name, "parent of {}", name);
            prop_assert_eq!(
                tree.depth(id).unwrap(),
                parsed.depth(parsed_id).unwrap()
            );
        }
        // And serialisation is a fixpoint.
        prop_assert_eq!(parsed.to_spec(), spec);
    }
}

#[test]
fn chain_resolution_picks_shallowest() {
    let tree = chain_tree(10);
    let raised = [
        ExceptionId::new(3),
        ExceptionId::new(7),
        ExceptionId::new(9),
    ];
    assert_eq!(tree.resolve(raised).unwrap(), ExceptionId::new(3));
}

#[test]
fn balanced_resolution_of_all_leaves_is_root() {
    let tree = balanced_tree(2, 3);
    let resolved = tree.resolve(tree.leaves()).unwrap();
    assert_eq!(resolved, tree.root());
}

/// The naive tree the flat table must agree with: a parent array and a
/// name per class, every query answered by a scan.
struct Naive {
    parent: Vec<u32>,
    names: Vec<String>,
}

impl Naive {
    fn children(&self, id: u32) -> Vec<u32> {
        (1..self.parent.len() as u32).filter(|&c| self.parent[c as usize] == id).collect()
    }

    fn path(&self, mut id: u32) -> Vec<u32> {
        let mut path = vec![id];
        while id != 0 {
            id = self.parent[id as usize];
            path.push(id);
        }
        path
    }

    fn depth(&self, id: u32) -> u32 {
        self.path(id).len() as u32 - 1
    }

    fn lca(&self, a: u32, b: u32) -> u32 {
        let above_b = self.path(b);
        *self.path(a).iter().find(|x| above_b.contains(x)).unwrap()
    }

    fn subtree(&self, id: u32, out: &mut Vec<u32>) {
        out.push(id);
        for c in self.children(id) {
            self.subtree(c, out);
        }
    }

    fn display(&self, id: u32, indent: usize, out: &mut String) {
        out.push_str(&format!("{:indent$}e{id} {}\n", "", self.names[id as usize]));
        for c in self.children(id) {
            self.display(c, indent + 2, out);
        }
    }

    fn dot(&self) -> String {
        let mut out = String::from("digraph exception_tree {\n  rankdir=TB;\n");
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("  n{i} [label=\"{name}\"];\n"));
        }
        for (i, p) in self.parent.iter().enumerate().skip(1) {
            out.push_str(&format!("  n{p} -> n{i};\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Every answer of `tree` against the scans, `probes` as extra
    /// names to look up (hits and misses).
    fn assert_matches(&self, tree: &ExceptionTree, probes: &[String]) {
        let n = self.parent.len() as u32;
        assert_eq!(tree.len(), n as usize);
        let id = ExceptionId::new;
        for i in 0..n {
            let want_parent = (i != 0).then(|| id(self.parent[i as usize]));
            assert_eq!(tree.parent(id(i)).unwrap(), want_parent, "parent of e{i}");
            let kids: Vec<u32> = tree.children(id(i)).unwrap().map(ExceptionId::index).collect();
            assert_eq!(kids, self.children(i), "children of e{i}");
            assert_eq!(tree.depth(id(i)).unwrap(), self.depth(i), "depth of e{i}");
            let path: Vec<u32> = tree.path_to_root(id(i)).unwrap().iter().map(|e| e.index()).collect();
            assert_eq!(path, self.path(i));
            let mut sub = Vec::new();
            self.subtree(i, &mut sub);
            let got: Vec<u32> = tree.subtree(id(i)).unwrap().iter().map(|e| e.index()).collect();
            assert_eq!(got, sub, "subtree of e{i}");
            assert_eq!(tree.name(id(i)).unwrap(), self.names[i as usize]);
            assert_eq!(tree.id_of(&self.names[i as usize]).unwrap(), id(i));
            for j in 0..n {
                assert_eq!(tree.lca(id(i), id(j)).unwrap(), id(self.lca(i, j)));
                assert_eq!(
                    tree.is_ancestor(id(i), id(j)).unwrap(),
                    self.path(j).contains(&i),
                    "e{i} above e{j}"
                );
            }
        }
        assert!(tree.parent(id(n)).is_err() && tree.name(id(n)).is_err());
        let leaves: Vec<u32> = (0..n).filter(|&i| self.children(i).is_empty()).collect();
        assert_eq!(tree.leaves().iter().map(|e| e.index()).collect::<Vec<_>>(), leaves);
        assert_eq!(tree.height(), (0..n).map(|i| self.depth(i)).max().unwrap());
        for probe in probes {
            match self.names.iter().position(|name| name == probe) {
                Some(at) => assert_eq!(tree.id_of(probe).unwrap(), id(at as u32)),
                None => assert_eq!(tree.id_of(probe), Err(TreeError::UnknownName(probe.clone()))),
            }
        }
        let mut shown = String::new();
        self.display(0, 0, &mut shown);
        assert_eq!(tree.to_string(), shown);
        assert_eq!(tree.to_dot(), self.dot());
    }
}

proptest! {
    /// The flat table answers every query as a naive parent array with
    /// a name per class does, for random parent arrays and random
    /// (possibly clashing, possibly empty) names, before and after an
    /// insert-parent edit; duplicates are refused on both sides.
    #[test]
    fn flat_tree_matches_a_naive_reference(
        nodes in prop::collection::vec((0usize..=usize::MAX, ".{0,3}"), 0..24),
        probes in prop::collection::vec(".{0,3}", 0..6),
        (insert, pick) in (".{0,3}", 0u64..=u64::MAX),
    ) {
        let mut reference = Naive { parent: vec![0], names: vec![String::new()] };
        let mut b = TreeBuilder::new("");
        for (choice, name) in nodes {
            let parent = (choice % reference.parent.len()) as u32;
            match b.child(name.clone(), ExceptionId::new(parent)) {
                Ok(got) => {
                    prop_assert_eq!(got.index() as usize, reference.parent.len());
                    reference.parent.push(parent);
                    reference.names.push(name);
                }
                Err(e) => {
                    prop_assert_eq!(e, TreeError::DuplicateName(name.clone()));
                    prop_assert!(reference.names.contains(&name));
                }
            }
        }
        let tree = b.build().unwrap();
        reference.assert_matches(&tree, &probes);

        // Group a random subset of the root's children under `insert`.
        let roots = reference.children(0);
        let grouped: Vec<ExceptionId> = roots
            .iter()
            .enumerate()
            .filter(|(k, _)| pick >> (k % 64) & 1 == 1)
            .map(|(_, &c)| ExceptionId::new(c))
            .collect();
        let edit = TreeEdit { name: insert.clone(), grouped: grouped.clone() };
        match edit.apply(&tree) {
            Ok(edited) => {
                prop_assert!(!reference.names.contains(&insert));
                let new = reference.parent.len() as u32;
                reference.parent.push(0);
                for c in &grouped {
                    reference.parent[c.index() as usize] = new;
                }
                reference.names.push(insert);
                reference.assert_matches(&edited, &probes);
            }
            Err(e) => {
                prop_assert_eq!(e, TreeError::DuplicateName(insert.clone()));
                prop_assert!(reference.names.contains(&insert));
            }
        }
    }
}

/// The exception value as it was before its two texts shared one
/// string: two optional strings beside the id and the severity, every
/// trait derived. [`Exception`] must answer exactly as this does.
mod two_strings {
    use caex_tree::{ExceptionId, Severity};

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct Exception {
        pub id: ExceptionId,
        pub severity: Severity,
        pub origin: Option<String>,
        pub detail: Option<String>,
    }
}

impl two_strings::Exception {
    fn display(&self) -> String {
        let mut out = format!("{} ({})", self.id, self.severity);
        if let Some(origin) = &self.origin {
            out += &format!(" from {origin}");
        }
        if let Some(detail) = &self.detail {
            out += &format!(": {detail}");
        }
        out
    }
}

/// A hasher that keeps every byte it is fed, in order.
#[derive(Default)]
struct Recorded(Vec<u8>);

impl Hasher for Recorded {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        0
    }
}

fn hash_bytes(value: &impl Hash) -> Vec<u8> {
    let mut h = Recorded::default();
    value.hash(&mut h);
    h.0
}

/// A text of one of five kinds: absent, empty, ASCII, multibyte, or
/// longer than the 65,535 bytes a wire length can say.
fn arb_text() -> impl Strategy<Value = Option<String>> {
    (0u8..5, ".{0,6}", 0usize..4).prop_map(|(kind, ascii, extra)| match kind {
        0 => None,
        1 => Some(String::new()),
        2 => Some(ascii),
        3 => Some(ascii.chars().flat_map(|c| [c, 'é', '€', '𝄞']).collect()),
        _ => Some(ascii + &"€".repeat(usize::from(u16::MAX) / 3 + 1 + extra)),
    })
}

fn severity(k: u8) -> Severity {
    match k % 3 {
        0 => Severity::Recoverable,
        1 => Severity::Serious,
        _ => Severity::Fatal,
    }
}

/// One setter, applied alike to the value and to the model: `0` sets
/// the origin, `1` the detail, `2` the severity, `3` both texts at
/// once, `4` starts over from an [`ExceptionBuilder`] with the origin.
type Step = (u8, Option<String>, Option<String>, u8);

fn apply(
    (kind, a, b, sev): &Step,
    exc: Exception,
    mut model: two_strings::Exception,
) -> (Exception, two_strings::Exception) {
    match (kind, a) {
        (0, Some(origin)) => {
            model.origin = Some(origin.clone());
            (exc.with_origin(origin.as_str()), model)
        }
        (1, Some(detail)) => {
            model.detail = Some(detail.clone());
            (exc.with_detail(detail.clone()), model)
        }
        (3, _) => {
            (model.origin, model.detail) = (a.clone(), b.clone());
            (exc.with_texts(a.as_deref(), b.as_deref()), model)
        }
        (4, Some(origin)) => {
            let builder = ExceptionBuilder::for_origin(origin.as_str()).severity(severity(*sev));
            let model = two_strings::Exception {
                id: model.id,
                severity: severity(*sev),
                origin: Some(origin.clone()),
                detail: None,
            };
            (builder.raise(model.id), model)
        }
        _ => {
            model.severity = severity(*sev);
            (exc.with_severity(severity(*sev)), model)
        }
    }
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..5, arb_text(), arb_text(), 0u8..3), 0..5)
}

/// Builds the value and its model from `id` by `steps`.
fn build(id: u32, steps: &[Step]) -> (Exception, two_strings::Exception) {
    let id = ExceptionId::new(id);
    let model = two_strings::Exception {
        id,
        severity: Severity::default(),
        origin: None,
        detail: None,
    };
    steps
        .iter()
        .fold((Exception::new(id), model), |(exc, model), step| apply(step, exc, model))
}

/// The value answers as the model does: accessors, `Display`, `Debug`
/// and the `Hash` byte stream; its two texts sit side by side in one
/// string.
fn assert_matches(exc: &Exception, model: &two_strings::Exception) {
    assert_eq!(exc.id(), model.id);
    assert_eq!(exc.severity(), model.severity);
    assert_eq!(exc.origin(), model.origin.as_deref());
    assert_eq!(exc.detail(), model.detail.as_deref());
    assert_eq!(exc.to_string(), model.display());
    assert_eq!(format!("{exc:?}"), format!("{model:?}"));
    assert_eq!(hash_bytes(exc), hash_bytes(model));
    if let (Some(origin), Some(detail)) = (exc.origin(), exc.detail()) {
        assert_eq!(origin.as_ptr() as usize + origin.len(), detail.as_ptr() as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Exception` is the two-string value it replaced, whatever texts
    /// it is given (absent, empty, multibyte, longer than a wire length)
    /// and in whichever order: every answer, the hash bytes, and `Eq`
    /// (two values are equal exactly when their models are). The same
    /// final texts set in the other order, or at once, give an equal
    /// value with the same hash bytes.
    #[test]
    fn exception_matches_its_two_string_model(
        (id_a, id_b) in (0u32..3, 0u32..3),
        steps_a in arb_steps(),
        steps_b in arb_steps(),
    ) {
        let (a, model_a) = build(id_a, &steps_a);
        let (b, model_b) = build(id_b, &steps_b);
        assert_matches(&a, &model_a);
        assert_matches(&b, &model_b);
        prop_assert_eq!(a == b, model_a == model_b);
        prop_assert_eq!(a.clone(), a.clone());

        let plain = Exception::new(model_a.id).with_severity(model_a.severity);
        let mut reversed = plain.clone();
        if let Some(detail) = &model_a.detail {
            reversed = reversed.with_detail(detail.as_str());
        }
        if let Some(origin) = &model_a.origin {
            reversed = reversed.with_origin(origin.as_str());
        }
        let at_once = plain.with_texts(model_a.origin.as_deref(), model_a.detail.as_deref());
        for same in [reversed, at_once] {
            assert_matches(&same, &model_a);
            prop_assert_eq!(&same, &a);
            prop_assert_eq!(hash_bytes(&same), hash_bytes(&a));
        }
    }

    /// An [`ExceptionBuilder`]'s raises share its origin string, and a
    /// detail set on one of them leaves the others' origin shared.
    #[test]
    fn builder_raises_share_their_origin(origin in arb_text(), detail in arb_text()) {
        let builder = match &origin {
            Some(origin) => ExceptionBuilder::for_origin(origin.as_str()),
            None => ExceptionBuilder::default(),
        };
        let (a, b) = (builder.raise(ExceptionId::new(1)), builder.raise(ExceptionId::new(2)));
        let b = match detail {
            Some(detail) => b.with_detail(detail),
            None => b,
        };
        let c = builder.raise(ExceptionId::new(3));
        prop_assert_eq!(a.origin(), origin.as_deref());
        prop_assert_eq!(b.origin(), origin.as_deref());
        if let (Some(x), Some(y)) = (a.origin(), c.origin()) {
            prop_assert_eq!(x.as_ptr(), y.as_ptr());
        }
    }
}
