//! Golden-trace test: the complete message sequence of the paper's
//! Example 2 is pinned, line by line. Deterministic by construction
//! (fixed seed, constant latency); if the protocol implementation
//! changes its message behaviour in any way, this test shows the exact
//! diff.

use caex::workloads;
use caex_net::NetConfig;
use caex_obs::{text, Recorder};

/// The full Example 2 trace with default constant 100µs latency.
/// Regenerate with:
/// `cargo run --example nested_recovery` (prints the same trace).
const GOLDEN: &str = "\
[       0us] O1 A0#r0 action_enter
[       0us] O2 A0#r0 action_enter
[       0us] O3 A0#r0 action_enter
[       0us] O4 A0#r0 action_enter
[       1us] O2 A1#r0 action_enter
[       1us] O3 A1#r0 action_enter
[       1us] O4 A1#r0 action_enter
[       2us] O2 A2#r0 action_enter
[      10us] O1 A0#r1 resolution_start
[      10us] O1 A0#r1 raise exception=e1
[      10us] sent      O1 -> O2 : exception
[      10us] sent      O1 -> O3 : exception
[      10us] sent      O1 -> O4 : exception
[      10us] O1 A0#r1 state_transition from=N to=X
[      10us] O2 A2#r1 resolution_start
[      10us] O2 A2#r1 raise exception=e2
[      10us] sent      O2 -> O3 : exception
[      10us] O2 A2#r1 state_transition from=N to=X
[     110us] delivered O1 -> O2 : exception
[     110us] sent      O2 -> O1 : have_nested
[     110us] sent      O2 -> O3 : have_nested
[     110us] sent      O2 -> O4 : have_nested
[     110us] O2 A2#r1 action_leave
[     110us] O2 A1#r0 action_leave
[     110us] O2 A0#r1 abortion_start depth=2
[     110us] O2 A0#r1 state_transition from=X to=S
[     110us] delivered O1 -> O3 : exception
[     110us] sent      O3 -> O1 : have_nested
[     110us] sent      O3 -> O2 : have_nested
[     110us] sent      O3 -> O4 : have_nested
[     110us] O3 A1#r0 action_leave
[     110us] O3 A0#r1 abortion_start depth=1
[     110us] O3 A0#r1 state_transition from=N to=S
[     110us] delivered O1 -> O4 : exception
[     110us] sent      O4 -> O1 : have_nested
[     110us] sent      O4 -> O2 : have_nested
[     110us] sent      O4 -> O3 : have_nested
[     110us] O4 A1#r0 action_leave
[     110us] O4 A0#r1 abortion_start depth=1
[     110us] O4 A0#r1 state_transition from=N to=S
[     110us] delivered O2 -> O3 : exception
[     110us] O3 A0#r1 abortion_end
[     110us] sent      O3 -> O1 : nested_completed
[     110us] sent      O3 -> O2 : nested_completed
[     110us] sent      O3 -> O4 : nested_completed
[     110us] sent      O3 -> O1 : ack
[     110us] O4 A0#r1 abortion_end
[     110us] sent      O4 -> O1 : nested_completed
[     110us] sent      O4 -> O2 : nested_completed
[     110us] sent      O4 -> O3 : nested_completed
[     110us] sent      O4 -> O1 : ack
[     115us] O2 A0#r1 abortion_end
[     115us] O2 A0#r1 raise exception=e3
[     115us] sent      O2 -> O1 : nested_completed
[     115us] sent      O2 -> O3 : nested_completed
[     115us] sent      O2 -> O4 : nested_completed
[     115us] sent      O2 -> O1 : ack
[     115us] O2 A0#r1 state_transition from=S to=X
[     210us] delivered O2 -> O1 : have_nested
[     210us] delivered O2 -> O3 : have_nested
[     210us] delivered O2 -> O4 : have_nested
[     210us] delivered O3 -> O1 : have_nested
[     210us] delivered O3 -> O2 : have_nested
[     210us] delivered O3 -> O4 : have_nested
[     210us] delivered O4 -> O1 : have_nested
[     210us] delivered O4 -> O2 : have_nested
[     210us] delivered O4 -> O3 : have_nested
[     210us] delivered O3 -> O1 : nested_completed
[     210us] sent      O1 -> O3 : ack
[     210us] delivered O3 -> O2 : nested_completed
[     210us] sent      O2 -> O3 : ack
[     210us] delivered O3 -> O4 : nested_completed
[     210us] sent      O4 -> O3 : ack
[     210us] delivered O3 -> O1 : ack
[     210us] delivered O4 -> O1 : nested_completed
[     210us] sent      O1 -> O4 : ack
[     210us] delivered O4 -> O2 : nested_completed
[     210us] sent      O2 -> O4 : ack
[     210us] delivered O4 -> O3 : nested_completed
[     210us] sent      O3 -> O4 : ack
[     210us] delivered O4 -> O1 : ack
[     215us] delivered O2 -> O1 : nested_completed
[     215us] sent      O1 -> O2 : ack
[     215us] delivered O2 -> O3 : nested_completed
[     215us] sent      O3 -> O2 : ack
[     215us] delivered O2 -> O4 : nested_completed
[     215us] sent      O4 -> O2 : ack
[     215us] delivered O2 -> O1 : ack
[     215us] O1 A0#r1 state_transition from=X to=R
[     310us] delivered O1 -> O3 : ack
[     310us] delivered O2 -> O3 : ack
[     310us] delivered O4 -> O3 : ack
[     310us] delivered O1 -> O4 : ack
[     310us] delivered O2 -> O4 : ack
[     310us] delivered O3 -> O4 : ack
[     315us] delivered O1 -> O2 : ack
[     315us] delivered O3 -> O2 : ack
[     315us] delivered O4 -> O2 : ack
[     315us] O2 A0#r1 resolver_elected resolver=O2
[     315us] O2 A0#r1 resolution_commit resolved=e1 raised=2
[     315us] sent      O2 -> O1 : commit
[     315us] sent      O2 -> O3 : commit
[     315us] sent      O2 -> O4 : commit
[     315us] O2 A0#r1 handler_start exception=e1
[     315us] O2 A0#r1 state_transition from=X to=N
[     315us] O2 A0#r1 handler_end signalled=false
[     315us] O2 A0#r1 action_leave
[     415us] delivered O2 -> O1 : commit
[     415us] O1 A0#r1 handler_start exception=e1
[     415us] O1 A0#r1 state_transition from=R to=N
[     415us] delivered O2 -> O3 : commit
[     415us] O3 A0#r1 handler_start exception=e1
[     415us] O3 A0#r1 state_transition from=S to=N
[     415us] delivered O2 -> O4 : commit
[     415us] O4 A0#r1 handler_start exception=e1
[     415us] O4 A0#r1 state_transition from=S to=N
[     415us] O1 A0#r1 handler_end signalled=false
[     415us] O1 A0#r1 action_leave
[     415us] O3 A0#r1 handler_end signalled=false
[     415us] O3 A0#r1 action_leave
[     415us] O4 A0#r1 handler_end signalled=false
[     415us] O4 A0#r1 action_leave
";

#[test]
fn example2_golden_trace() {
    let (w, _ids) = workloads::example2(NetConfig::default());
    let mut recorder = Recorder::new();
    let _ = w.scenario.run_observed(&mut recorder);
    let rendered = text::render(&recorder.events);
    if rendered != GOLDEN {
        // Show a usable diff on failure.
        for (i, (got, want)) in rendered.lines().zip(GOLDEN.lines()).enumerate() {
            if got != want {
                panic!(
                    "trace diverges at line {}:\n  got : {got}\n  want: {want}",
                    i + 1
                );
            }
        }
        panic!(
            "trace length changed: got {} lines, want {}",
            rendered.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
