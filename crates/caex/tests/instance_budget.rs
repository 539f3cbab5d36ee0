//! Heap budget of a queued fleet instance: what one `ActionInstance`
//! holds while it waits for admission.
//!
//! A fleet shard holds only the instances it runs, so its input — the
//! batch of queued instances — is what fleet memory scales with. This
//! test counts the live heap bytes and live allocations that K
//! `general_at(4, 2, 1)` instances hold once built, and those of K
//! `Arc<chain_tree(2)>`s (the tree each such instance declares), and
//! fails when either costs more than its budget below: a tree with a
//! growable graph and a name index, a scope with spare capacity or a
//! script with slack shows here.
//!
//! The only test in this binary, so nothing else allocates while the
//! counter runs.

#![allow(unsafe_code)]

use caex::shard::ActionInstance;
use caex::workloads;
use caex_net::{NetConfig, SimTime};
use caex_tree::chain_tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, tracking live bytes and live allocations.
struct Tracking;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Items built per measurement.
const K: usize = 1_000;

/// Live heap bytes one queued `general_at(4, 2, 1)` instance holds,
/// its inline size included: 1,034 measured once an `Exception` packed
/// its texts into one string (24 B instead of 40, so each script step
/// is 64 B instead of 80; 1,146 before, E44), plus 10 %. 1,867 before
/// the tree became a flat table and scopes and scripts dropped their
/// spare capacity (E43).
const INSTANCE_BYTES: usize = 1_138;
/// Live allocations per instance, exactly as measured (24 before).
const INSTANCE_BLOCKS: usize = 15;
/// Live heap bytes of one `Arc<chain_tree(2)>`, the pointer included:
/// 179 measured (590 before), plus 10 %.
const TREE_BYTES: usize = 196;
/// Live allocations per tree: the `Arc` and the table's four boxed
/// slices (14 before: two `Vec`s, three `String`s, a `Vec<Vec<u32>>`
/// with two children lists and a `HashMap` with three more keys).
const TREE_BLOCKS: usize = 5;

/// Live bytes and allocations per item of `K` items from `build`,
/// the items' inline size included (the holder is sized beforehand).
fn per_item<T>(build: impl Fn(u32) -> T) -> (usize, usize) {
    let mut held: Vec<T> = Vec::with_capacity(K);
    let (bytes, blocks) = (BYTES.load(Ordering::Relaxed), BLOCKS.load(Ordering::Relaxed));
    for i in 0..K as u32 {
        held.push(build(i));
    }
    let bytes = BYTES.load(Ordering::Relaxed) - bytes + K * std::mem::size_of::<T>();
    let blocks = BLOCKS.load(Ordering::Relaxed) - blocks;
    drop(held);
    (bytes / K, usize::try_from(blocks).expect("items hold their blocks") / K)
}

#[test]
fn a_queued_instance_and_its_tree_stay_within_their_heap_budget() {
    let instance = per_item(|i| {
        let w = workloads::general_at(4, 2, 1, i * 4, i * 2, NetConfig::default());
        ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * 156))
    });
    let tree = per_item(|_| Arc::new(chain_tree(2)));
    // Printed with `--nocapture`, for EXPERIMENTS.md.
    println!(
        "per instance: {} B in {} allocations; per Arc<chain_tree(2)>: {} B in {}",
        instance.0, instance.1, tree.0, tree.1
    );
    assert!(instance.0 <= INSTANCE_BYTES, "{} B per instance, budget {INSTANCE_BYTES}", instance.0);
    assert_eq!(instance.1, INSTANCE_BLOCKS, "allocations per instance");
    assert!(tree.0 <= TREE_BYTES, "{} B per tree, budget {TREE_BYTES}", tree.0);
    assert_eq!(tree.1, TREE_BLOCKS, "allocations per tree");
}
