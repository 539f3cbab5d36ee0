//! Heap budget of a fleet shard: what it holds beyond its input.
//!
//! A shard retires each instance once it has finished and the net holds
//! nothing more for it — participants, script, registry and tree — so
//! its live state scales with its capacity, not with its batch. What
//! stays per instance is its outcome and the shard's dense per-node and
//! per-action counters. This test counts live heap bytes around one
//! `FleetEngine::run` and fails when the peak above the input, less the
//! shard's fixed cost, costs an instance more than the budget below, or
//! when a batch eight times as large costs an instance more than 5 %
//! more: a shard that kept its finished instances would fail both.
//!
//! The only test in this binary, so nothing else allocates while the
//! counter runs.

#![allow(unsafe_code)]

use caex::shard::{ActionInstance, FleetConfig, FleetEngine};
use caex::{analysis, workloads};
use caex_net::{NetConfig, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking live bytes and their high-water mark.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Shard capacity: the engine's default.
const CAPACITY: u32 = 8;

/// Peak heap bytes an instance adds to a shard beyond a batch of
/// `CAPACITY` instances (the shard's fixed cost: its slab of 32
/// participants, event queue and buffers; 25,108 B), for
/// `general_at(4, 2, 1)` instances arriving 156 µs apart (6,400 per
/// second) through the default one-shard, capacity-8 engine. The run
/// measures 336 at K = 250 and at K = 2,000 (the plain quotients, fixed
/// cost included, read 425 and 347); a shard that keeps every instance
/// until the batch ends measured 4,437–4,438 (quotients 4,444–4,486,
/// E41).
const BUDGET_PER_INSTANCE: usize = 365;

/// The shard's peak heap above its input, in bytes, for a batch of
/// `count` instances.
fn peak_above_input(count: u32) -> usize {
    let instances: Vec<ActionInstance> = (0..count)
        .map(|i| {
            let w = workloads::general_at(4, 2, 1, i * 4, i * 2, NetConfig::default());
            ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * 156))
        })
        .collect();
    let engine = FleetEngine::new(FleetConfig {
        capacity: CAPACITY as usize,
        law: Some(analysis::messages_general),
        ..Default::default()
    });

    let input = LIVE.load(Ordering::Relaxed);
    PEAK.store(input, Ordering::Relaxed);
    let report = engine.run(instances);
    let peak = PEAK.load(Ordering::Relaxed) - input;

    assert_eq!(report.committed_count(), count as usize);
    assert!(report.outcomes.iter().all(|o| o.law_holds == Some(true)));
    peak
}

#[test]
fn a_shard_holds_its_running_instances_not_its_batch() {
    let fixed = peak_above_input(CAPACITY);
    let per_instance = |k: u32| (peak_above_input(k) - fixed) / (k - CAPACITY) as usize;
    let (small, large) = (per_instance(250), per_instance(2_000));
    // Printed with `--nocapture`, for EXPERIMENTS.md.
    println!(
        "shard fixed cost {fixed} B; per instance beyond it: \
         {small} B at K = 250, {large} B at K = 2000"
    );
    for (k, bytes) in [(250, small), (2_000, large)] {
        assert!(
            bytes <= BUDGET_PER_INSTANCE,
            "{bytes} B per instance at K = {k}, budget {BUDGET_PER_INSTANCE}"
        );
    }
    let (lo, hi) = (small.min(large), small.max(large));
    assert!(
        hi * 100 <= lo * 105,
        "K = 250 and K = 2000 differ by more than 5 %: {small} / {large} B per instance"
    );
}
