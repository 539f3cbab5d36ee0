//! Tree lints: structural checks over an [`ExceptionTree`] and an
//! optional raisable set (`CAEX001`–`CAEX005`).

use crate::diag::{LintCode, Sink};
use caex_tree::{ExceptionId, ExceptionTree, TreeEdit};

/// A chain tree at least this long fires `CAEX004`.
pub(crate) const CHAIN_THRESHOLD: usize = 4;

/// A tree higher than this fires `CAEX005`.
pub const MAX_DEPTH: u32 = 8;

/// Runs the tree lint family into `sink`.
///
/// `raisables` is the set of classes the caller believes can be raised:
/// an explicit declaration (`ActionScope::declared_exceptions`) or the
/// raises actually scripted in a scenario. When it is `None`, the
/// raisable-set lints (`CAEX001`–`CAEX003`) are skipped — without a
/// raisable set, every pair report would be speculation.
pub(crate) fn lint_tree_into(
    sink: &mut Sink<'_>,
    subject: &str,
    tree: &ExceptionTree,
    raisables: Option<&[ExceptionId]>,
) {
    if let Some(raisables) = raisables {
        // CAEX003: duplicates in the raisable set.
        let mut seen: Vec<ExceptionId> = Vec::new();
        for &id in raisables {
            if seen.contains(&id) {
                sink.emit(
                    LintCode::DuplicateRaisable,
                    subject,
                    format!("class {id} is listed more than once in the raisable set"),
                );
            } else {
                seen.push(id);
            }
        }

        // CAEX001: pairs resolving to the universal exception. Every
        // pair carries the same fix-it: one inserted grouping class
        // removes them all, so compute it once and attach it to each.
        let fix = TreeEdit::group_non_covering(tree, raisables).map(|edit| fixit_help(tree, &edit));
        for (a, b) in tree.non_covering_pairs(raisables) {
            let (na, nb) = (name_of(tree, a), name_of(tree, b));
            sink.emit_with_help(
                LintCode::NonCoveringPair,
                subject,
                format!(
                    "raisables {a} ({na}) and {b} ({nb}) only meet at the universal \
                     exception: a concurrent raise of both resolves to the root, \
                     losing all diagnosis"
                ),
                fix.clone().unwrap_or_default(),
            );
        }

        // CAEX002: classes on no raisable's root path.
        let closure = tree.ancestor_closure(raisables);
        for id in tree.iter() {
            if !closure.contains(&id) {
                sink.emit(
                    LintCode::UnreachableClass,
                    subject,
                    format!(
                        "class {id} ({}) is on no raisable's root path: it can \
                         neither be raised nor resolved to",
                        name_of(tree, id)
                    ),
                );
            }
        }
    }

    // CAEX004: degenerate chain.
    if tree.is_chain() && tree.len() >= CHAIN_THRESHOLD {
        sink.emit(
            LintCode::DegenerateChain,
            subject,
            format!(
                "the tree is a single chain of {} classes: concurrent resolution \
                 always picks the shallower class, so the hierarchy adds no \
                 discrimination",
                tree.len()
            ),
        );
    }

    // CAEX005: excessive depth.
    let height = tree.height();
    if height > MAX_DEPTH {
        sink.emit(
            LintCode::ExcessiveDepth,
            subject,
            format!("tree height {height} exceeds the plausible handler-hierarchy depth {MAX_DEPTH}"),
        );
    }
}

fn name_of(tree: &ExceptionTree, id: ExceptionId) -> String {
    tree.name(id).map_or_else(|_| "?".to_owned(), str::to_owned)
}

/// Renders the CAEX001 fix-it as `help:` spans: the edit in prose plus
/// the `TreeBuilder` calls that realize it. Applying the edit is
/// guaranteed to clear every non-covering pair it was computed from
/// (see `TreeEdit::group_non_covering`).
pub(crate) fn fixit_help(tree: &ExceptionTree, edit: &TreeEdit) -> Vec<String> {
    let grouped: Vec<String> = edit
        .grouped
        .iter()
        .map(|&id| format!("\"{}\"", name_of(tree, id)))
        .collect();
    vec![
        format!("{edit}"),
        format!(
            "equivalently: let g = b.child_of_root(\"{}\")?; declare {} as children of g \
             instead of the root",
            edit.name,
            grouped.join(", ")
        ),
        "after the edit the pair resolves to the new class, which keeps the diagnosis".into(),
    ]
}
