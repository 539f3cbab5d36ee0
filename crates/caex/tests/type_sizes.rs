//! Size bounds of what every protocol message is moved through.
//!
//! Each of `fleet_wide`'s 435 messages per action is moved through an
//! `Effect`, the simulator's queue entry and its delivery, so these
//! sizes are per-message costs. An `Exception` is an id, one packed
//! word and one shared string (24 B); a second string, a wider split
//! or a field beside the severity shows here.

use caex::{Effect, Event, Msg, Note};
use caex_net::Delivery;
use caex_tree::Exception;
use std::mem::size_of;

/// `(type, measured size, upper bound)`, printed with `--nocapture`.
#[test]
fn protocol_values_stay_within_their_size_bounds() {
    let sizes = [
        ("Exception", size_of::<Exception>(), 24),
        ("Msg", size_of::<Msg>(), 40),
        ("Event", size_of::<Event>(), 48),
        ("Effect", size_of::<Effect>(), 64),
        ("Note", size_of::<Note>(), 64),
        ("Delivery<Event>", size_of::<Delivery<Event>>(), 72),
    ];
    for (name, size, bound) in sizes {
        println!("{name}: {size} B (bound {bound} B)");
    }
    for (name, size, bound) in sizes {
        assert!(size <= bound, "{name} is {size} B, over its bound of {bound} B");
    }
}
