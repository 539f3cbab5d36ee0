//! Property-based tests of the protocol invariants (DESIGN.md §4)
//! under randomized action structures, exception trees, raise patterns
//! and network jitter.

use caex::{NestedStrategy, Scenario};
use caex_action::{AbortionOutcome, ActionRegistry, ActionScope, HandlerTable};
use caex_net::{LatencyModel, NetConfig, NodeId, SimTime};
use caex_tree::{Exception, ExceptionId, ExceptionTree, TreeBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly generated scenario description.
#[derive(Debug, Clone)]
struct RandomScenario {
    n: u32,
    tree_parents: Vec<usize>,
    /// For each object: whether it owns a singleton nested action, and
    /// whether that nested action's abortion handler signals.
    nested: Vec<(bool, bool)>,
    /// Raisers: (object index, exception choice, raise-time offset µs).
    raises: Vec<(usize, usize, u64)>,
    seed: u64,
    latency_max: u64,
}

fn arb_scenario() -> impl Strategy<Value = RandomScenario> {
    (2u32..9, 1usize..18)
        .prop_flat_map(|(n, tree_size)| {
            let nested = prop::collection::vec((any::<bool>(), any::<bool>()), n as usize);
            let raises = prop::collection::vec(
                (0usize..n as usize, 0usize..tree_size, 0u64..40),
                1..=(n as usize),
            );
            let tree_parents = prop::collection::vec(0usize..usize::MAX, tree_size);
            (
                Just(n),
                tree_parents,
                nested,
                raises,
                any::<u64>(),
                1u64..2_000,
            )
        })
        .prop_map(
            |(n, tree_parents, nested, raises, seed, latency_max)| RandomScenario {
                n,
                tree_parents,
                nested,
                raises,
                seed,
                latency_max,
            },
        )
}

fn build_tree(parents: &[usize]) -> Arc<ExceptionTree> {
    let mut b = TreeBuilder::new("root");
    let mut ids = vec![ExceptionId::ROOT];
    for (i, &c) in parents.iter().enumerate() {
        let parent = ids[c % ids.len()];
        ids.push(b.child(format!("n{i}"), parent).unwrap());
    }
    Arc::new(b.build().unwrap())
}

struct Built {
    report: caex::RunReport,
    tree: Arc<ExceptionTree>,
    top: caex_action::ActionId,
    n: u32,
}

fn run_scenario(rs: &RandomScenario) -> Built {
    let tree = build_tree(&rs.tree_parents);
    let mut reg = ActionRegistry::new();
    let top = reg
        .declare(ActionScope::top_level(
            "top",
            (0..rs.n).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .unwrap();
    let mut nested_ids = Vec::new();
    for (i, &(has_nested, _)) in rs.nested.iter().enumerate() {
        if has_nested {
            let id = reg
                .declare(ActionScope::nested(
                    format!("nested-{i}"),
                    [NodeId::new(i as u32)],
                    Arc::clone(&tree),
                    top,
                ))
                .unwrap();
            nested_ids.push((i, id));
        }
    }
    let registry = Arc::new(reg);
    let mut scenario = Scenario::new(Arc::clone(&registry))
        .with_config(
            NetConfig::default()
                .with_latency(LatencyModel::Uniform {
                    min: SimTime::from_micros(1),
                    max: SimTime::from_micros(rs.latency_max),
                })
                .with_seed(rs.seed),
        )
        .with_strategy(NestedStrategy::Abort)
        .enter_all_at(SimTime::ZERO, top);
    for &(i, nested_action) in &nested_ids {
        scenario = scenario.enter_at(
            SimTime::from_micros(1),
            NodeId::new(i as u32),
            nested_action,
        );
        if rs.nested[i].1 {
            // This nested action's abortion handler signals some
            // exception from the tree (derived from the index).
            let exc = ExceptionId::new((i as u32) % tree.len() as u32);
            let mut t = HandlerTable::recover_all(Arc::clone(&tree));
            t.on_abort(SimTime::from_micros(3), move || {
                AbortionOutcome::Signal(Exception::new(exc))
            });
            scenario = scenario.handlers(NodeId::new(i as u32), nested_action, t);
        }
    }
    for &(obj, exc_choice, offset) in &rs.raises {
        let exc = ExceptionId::new((exc_choice % tree.len()) as u32);
        scenario = scenario.raise_at(
            SimTime::from_micros(5 + offset),
            NodeId::new(obj as u32),
            Exception::new(exc),
        );
    }
    let report = scenario.with_delivery_limit(200_000).run();
    Built {
        report,
        tree,
        top,
        n: rs.n,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1 (termination): every random scenario with at least
    /// one raise reaches quiescence with no stuck participants and no
    /// livelock.
    #[test]
    fn termination(rs in arb_scenario()) {
        let built = run_scenario(&rs);
        prop_assert!(!built.report.hit_delivery_limit, "livelock");
        prop_assert!(
            built.report.deadlocked.is_empty(),
            "deadlocked: {:?}",
            built.report.deadlocked
        );
    }

    /// Invariants 2+5 (agreement, single resolver): at most one
    /// resolution commits in the top action, every participant that
    /// handles it handles the same exception, and if any raise survived
    /// to the top action a resolution did happen.
    #[test]
    fn agreement_and_single_commit(rs in arb_scenario()) {
        let built = run_scenario(&rs);
        let top_resolutions: Vec<_> = built
            .report
            .resolutions
            .iter()
            .filter(|r| r.action == built.top)
            .collect();
        prop_assert!(top_resolutions.len() <= 1, "multiple commits in one action");
        if let Some(r) = top_resolutions.first() {
            let agreed = built.report.agreed_exception(built.top);
            prop_assert_eq!(agreed.map(|e| e.id()), Some(r.resolved.id()));
            // Every participant of the action handled it.
            prop_assert_eq!(
                built.report.handlers_for(built.top).len(),
                built.n as usize
            );
        }
    }

    /// Invariants 3+4 (coverage, minimality): the committed exception is
    /// the least ancestor of everything in the resolved set.
    #[test]
    fn coverage_and_minimality(rs in arb_scenario()) {
        let built = run_scenario(&rs);
        for r in &built.report.resolutions {
            for (_, exc) in &r.raised {
                prop_assert!(
                    built.tree.is_ancestor(r.resolved.id(), exc.id()).unwrap(),
                    "{} does not cover {}", r.resolved.id(), exc.id()
                );
            }
            let lca = built
                .tree
                .resolve(r.raised.iter().map(|(_, e)| e.id()))
                .unwrap();
            prop_assert_eq!(r.resolved.id(), lca, "not minimal");
        }
    }

    /// Invariant 6 (raiser visibility via FIFO): the resolver's raised
    /// set contains an entry for every object whose raise was *not*
    /// suppressed and not eliminated with a nested resolution.
    /// Weaker check, strongest form that survives nesting: the resolver
    /// is the max id among the resolved raisers.
    #[test]
    fn resolver_is_max_raiser(rs in arb_scenario()) {
        let built = run_scenario(&rs);
        for r in &built.report.resolutions {
            let max = r.raised.iter().map(|(o, _)| *o).max().unwrap();
            prop_assert_eq!(r.resolver, max);
        }
    }

    /// Determinism: same scenario, same seed, same outcome (messages,
    /// final time, resolutions).
    #[test]
    fn deterministic_replay(rs in arb_scenario()) {
        let a = run_scenario(&rs);
        let b = run_scenario(&rs);
        prop_assert_eq!(a.report.total_messages(), b.report.total_messages());
        prop_assert_eq!(a.report.finished_at, b.report.finished_at);
        prop_assert_eq!(a.report.resolutions.len(), b.report.resolutions.len());
        for (x, y) in a.report.resolutions.iter().zip(&b.report.resolutions) {
            prop_assert_eq!(x.resolved.id(), y.resolved.id());
            prop_assert_eq!(x.resolver, y.resolver);
        }
    }

    /// Codec round-trip: any protocol message survives encode/decode,
    /// and the declared length is exact. An origin too long for its
    /// `u16` length arrives as its longest prefix that fits, cut between
    /// characters.
    #[test]
    fn codec_round_trip(
        tag in 0u8..6,
        action in 0u32..1000,
        from in 0u32..1000,
        exc_id in 0u32..1000,
        severity in 0u8..3,
        origin in prop::option::of(".{0,40}"),
        detail in prop::option::of(".{0,40}"),
        with_exc in any::<bool>(),
        // Below 12: an over-long origin of 2-, 3- or 4-byte characters
        // behind 0..4 ASCII bytes, so byte 65 535 falls at every offset
        // inside a character.
        over_cap in 0usize..24,
    ) {
        use caex::{codec, Msg};
        use caex_action::ActionId;
        use caex_tree::Severity;

        const CAP: usize = u16::MAX as usize;
        let mut e = Exception::new(ExceptionId::new(exc_id)).with_severity(
            match severity { 0 => Severity::Recoverable, 1 => Severity::Serious, _ => Severity::Fatal },
        );
        if let Some(o) = origin { e = e.with_origin(o); }
        if let Some(d) = detail { e = e.with_detail(d); }
        let mut arrives = e.clone();
        if over_cap < 12 {
            let wide = ["é", "€", "𝄞"][over_cap / 4];
            let long = "a".repeat(over_cap % 4) + &wide.repeat(CAP / wide.len() + 1);
            arrives = arrives.with_origin(&long[..long.floor_char_boundary(CAP)]);
            e = e.with_origin(long);
        }
        let action = ActionId::new(action);
        let from = NodeId::new(from);
        let build = |exc: Exception| match tag {
            0 => Msg::Exception { action, from, exc },
            1 => Msg::HaveNested { from, action },
            2 => Msg::NestedCompleted { action, from, exc: with_exc.then_some(exc) },
            3 => Msg::Ack { from, action },
            4 => Msg::Commit { action, from, exc },
            _ => Msg::LeaveReady { from, action },
        };
        let msg = build(e);
        let bytes = codec::encode(&msg);
        prop_assert_eq!(bytes.len(), codec::encoded_len(&msg));
        prop_assert_eq!(codec::decode(&bytes).unwrap(), build(arrives));
    }

    /// Message-count sanity: the executed count never exceeds the
    /// paper's worst-case law for the scenario's N with P = Q = N
    /// treated independently (upper envelope), and commit messages are
    /// exactly (participants − 1) per resolution in that action's
    /// scope... here: commits = Σ (|G_A| − 1).
    #[test]
    fn message_counts_within_paper_envelope(rs in arb_scenario()) {
        let built = run_scenario(&rs);
        let n = built.n as u64;
        // Envelope: every object both raises and aborts nested work —
        // impossible simultaneously, so this strictly dominates; plus
        // cascaded resolutions can at most repeat it once per nesting
        // level (depth ≤ 1 here).
        let envelope = 2 * (n - 1) * (2 * n + 3 * n + 1);
        prop_assert!(
            built.report.total_messages() <= envelope,
            "{} > envelope {envelope}",
            built.report.total_messages()
        );
    }
}

proptest! {
    // Nanoseconds a case, and a message with an exception in it comes
    // out of soup only once in some dozens of cases (about 100 of these).
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Byte soup straight into the decoder, the layer a frame's CRC does
    /// not shield: it never panics, and it is canonical — whatever it
    /// accepts re-encodes to the bytes it read. Two bytes in three are
    /// small and most buffers start with a real tag, so severities,
    /// flags and short strings do come out valid (about four cases in
    /// ten decode); a buffer that is only too long is cut where the
    /// decoder says the message ended and must then decode.
    #[test]
    fn codec_decodes_byte_soup_canonically(
        soup in prop::collection::vec(prop_oneof![0u8..3, 0u8..3, any::<u8>()], 0..96),
        tag in 0u8..8,
    ) {
        use caex::codec::{self, CodecError};

        let mut soup = soup;
        if let (Some(first), 1..=6) = (soup.first_mut(), tag) {
            *first = tag;
        }
        if let Err(CodecError::TrailingBytes(extra)) = codec::decode(&soup) {
            soup.truncate(soup.len() - extra);
            prop_assert!(codec::decode(&soup).is_ok(), "{:?} is where the decoder said it ended", soup);
        }
        if let Ok(msg) = codec::decode(&soup) {
            prop_assert_eq!(codec::encode(&msg), soup);
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any two texts, set in either order, cross the codec as their
    /// longest prefixes a `u16` length can carry: the decoded exception
    /// holds exactly those, in one string, and re-encodes to the bytes
    /// it came from.
    #[test]
    fn codec_carries_every_kind_of_text(
        origin in arb_text(),
        detail in arb_text(),
        detail_first in any::<bool>(),
    ) {
        use caex::{codec, Msg};
        use caex_action::ActionId;

        let cap = |s: &str| s[..s.floor_char_boundary(usize::from(u16::MAX))].to_owned();
        let mut exc = Exception::new(ExceptionId::new(4));
        let set = |exc: Exception, origin_now: bool| match (origin_now, &origin, &detail) {
            (true, Some(o), _) => exc.with_origin(o.as_str()),
            (false, _, Some(d)) => exc.with_detail(d.as_str()),
            _ => exc,
        };
        exc = set(exc, !detail_first);
        exc = set(exc, detail_first);
        let msg = Msg::Commit { action: ActionId::new(1), from: NodeId::new(2), exc };
        let bytes = codec::encode(&msg);
        let Msg::Commit { exc: got, .. } = codec::decode(&bytes).unwrap() else {
            panic!("a commit decodes as a commit");
        };
        prop_assert_eq!(got.origin().map(str::to_owned), origin.as_deref().map(cap));
        prop_assert_eq!(got.detail().map(str::to_owned), detail.as_deref().map(cap));
        if let (Some(o), Some(d)) = (got.origin(), got.detail()) {
            prop_assert_eq!(o.as_ptr() as usize + o.len(), d.as_ptr() as usize);
        }
        let again = Msg::Commit { action: ActionId::new(1), from: NodeId::new(2), exc: got };
        prop_assert_eq!(codec::encode(&again), bytes);
    }
}
