//! Allocation budget of the fleet engine's per-message path.
//!
//! §4.4 prices a resolution in messages; the run-time layer around the
//! messages should not price it in `malloc`s. This test counts heap
//! allocations around one `FleetEngine::run` and fails when an action
//! costs more of them than the budget below — the regression guard for
//! the label table, the host's reused effects buffer and the shared
//! exception payloads.
//!
//! The only test in this binary, so nothing else allocates while the
//! counter runs.

#![allow(unsafe_code)]

use caex::shard::{ActionInstance, FleetConfig, FleetEngine};
use caex::{analysis, workloads};
use caex_net::{NetConfig, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting calls that obtain memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ACTIONS: u32 = 64;

/// Heap allocations (`alloc` + `realloc`) one `general_at(4, 2, 1)`
/// action may cost inside `FleetEngine::run`, shard set-up and the
/// report included. The run measures 26 at this commit (1,716 over the
/// 64 actions): 28 (1,844) while each participant's resolver election
/// collected, sorted and deduplicated its raisers in a fresh `Vec`
/// (E44), 30 (1,979) while the bridge built its snapshots,
/// events and round entries for an un-instrumented run and each
/// resolution kept `LO` and its outstanding ACKs in B-trees (E43), 35
/// (2,272) while each shard fed a private
/// `MetricsRegistry` and kept every instance to the end of its batch
/// (E41), 40 before each `Participant` kept its per-action state in one
/// record map instead of a first insert into several per-action maps,
/// and 98 at `39a46f5`,
/// where every `Participant::handle` returned a fresh `Vec<Effect>`,
/// every multicast collected its peers and every exception clone copied
/// its origin string. `SimNet`'s FIFO lane grows once per shard, not
/// per action (E28); `NetStats`' per-node in-load grows with the
/// highest node id, and under a constant latency the net keeps no
/// per-channel table at all (E38: 2,272 allocations over the 64
/// actions, 2,283 with the two hashed channel tables they replaced).
const BUDGET_PER_ACTION: u64 = 26;

#[test]
fn a_fleet_action_stays_within_its_allocation_budget() {
    let instances: Vec<ActionInstance> = (0..ACTIONS)
        .map(|i| {
            let w = workloads::general_at(4, 2, 1, i * 4, i * 2, NetConfig::default());
            ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * 10))
        })
        .collect();
    let engine = FleetEngine::new(FleetConfig {
        shards: 1,
        capacity: 8,
        law: Some(analysis::messages_general),
        ..Default::default()
    });

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = engine.run(instances);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(report.committed_count(), ACTIONS as usize);
    assert_eq!(report.law_all_hold(), Some(true));
    assert_eq!(report.stats.sent_total(), u64::from(ACTIONS) * 24);
    let per_action = spent / u64::from(ACTIONS);
    assert!(
        per_action <= BUDGET_PER_ACTION,
        "{per_action} allocations per action ({spent} over {ACTIONS} actions), budget {BUDGET_PER_ACTION}"
    );
    // Printed with `--nocapture`, for EXPERIMENTS.md.
    println!("allocations per action: {per_action} ({spent} over {ACTIONS} actions)");
}
