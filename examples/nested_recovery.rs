//! Example 2 of the paper (§4.3, Fig. 4): nested CA actions, a belated
//! participant, abortion handlers that signal, and the elimination of a
//! nested resolution by a containing one.
//!
//! Structure: `A1 = {O1,O2,O3,O4} ⊃ A2 = {O2,O3,O4} ⊃ A3 = {O2,O3}`,
//! where `O3` is *belated* for `A3` (it was supposed to enter but never
//! does). `O1` raises `E1` in `A1` while `O2` concurrently raises `E2`
//! inside `A3`. The protocol must:
//!
//! 1. deliver `O2`'s `Exception(A3)` nowhere (O3 is belated — buffered,
//!    then cleaned up when `A3` is aborted);
//! 2. have `O2`, `O3`, `O4` announce `HaveNested` and abort their
//!    nested actions innermost-first (`A3` before `A2`);
//! 3. honour the exception `E3` signalled by `O2`'s abortion handler of
//!    `A2` (the action *directly* nested in `A1`);
//! 4. eliminate the resolution `O2` started in `A3` (E2 is forgotten);
//! 5. elect `O2` (max raiser) to resolve `{E1, E3}` in `A1`.
//!
//! Run with: `cargo run --example nested_recovery`

use caex::{workloads, Note};
use caex_net::{NetConfig, NodeId};
use caex_obs::{text, ObsKind, Recorder};

fn main() {
    let (workload, ids) = workloads::example2(NetConfig::default());
    let mut recorder = Recorder::new();
    let report = workload.scenario.run_observed(&mut recorder);

    println!("=== Example 2 (paper §4.3, Fig. 4) ===\n");
    println!("Full protocol trace:");
    print!("{}", text::render(&recorder.events));

    println!("\nKey protocol moments:");
    for note in &report.notes {
        match note {
            Note::Raised {
                object,
                action,
                exc,
            } => {
                println!("  {object} raised {} in {action}", exc.id());
            }
            Note::AbortedNested { object, chain, .. } => {
                println!(
                    "  {object} aborted nested actions {:?} (innermost first)",
                    chain.iter().map(ToString::to_string).collect::<Vec<_>>()
                );
            }
            Note::CleanedNestedMessages { object, action } => {
                println!("  {object} cleaned up buffered messages of aborted {action}");
            }
            Note::ResolutionCommitted {
                resolver,
                resolved,
                raised,
                ..
            } => {
                println!(
                    "  {resolver} resolved {{{}}} -> {}",
                    raised
                        .iter()
                        .map(|(o, e)| format!("{o}:{}", e.id()))
                        .collect::<Vec<_>>()
                        .join(", "),
                    resolved.id()
                );
            }
            _ => {}
        }
    }

    println!("\nPer-object timelines (messages and state changes left out):");
    for object in workload.participants {
        let own = recorder.events.iter().filter(|e| {
            e.object == object
                && !matches!(
                    e.kind,
                    ObsKind::MessageSent { .. }
                        | ObsKind::MessageReceived { .. }
                        | ObsKind::StateTransition { .. }
                )
        });
        print!("{}", text::render(own));
    }

    let r = report.resolution_for(ids.a1).expect("resolution in A1");
    assert_eq!(r.resolver, NodeId::new(2), "O2 resolves (biggest raiser)");
    assert!(
        r.raised.iter().all(|(_, e)| e.id() != ids.e2),
        "E2 must be eliminated with the nested resolution"
    );
    assert!(report.is_clean());

    println!("\nAll four objects handled {}:", r.resolved.id());
    for h in report.handlers_for(ids.a1) {
        println!("  {} at {}", h.object, h.at);
    }
    println!(
        "\nOK: nested resolution eliminated, abortion signal honoured, {} messages total.",
        report.total_messages()
    );
}
