//! A choice-point resume costs the same number of allocations at every
//! depth: the snapshot it clones holds no per-decision history, so the
//! last decision of a 16-decision chain allocates no more than the last
//! decision of a 4-decision one.
//!
//! This binary installs a counting global allocator (its own, so no other
//! test binary is affected); the counter is per thread, so tests running
//! in parallel do not disturb each other's counts.

use lambda_c::compile::compile;
use lambda_c::machine::{explore, Explored, TreeChoices, TreeRunConfig};
use lambda_c::testgen::deep_decide_chain;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments verbatim to `System`, so
// `System`'s guarantees pass through unchanged; the counting touches
// only a const thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one resume of the last choice point of
/// `deep_decide_chain(n)` (the minimum over a few resumes, so a one-off
/// lazy initialisation cannot inflate it).
fn last_level_resume_allocs(n: u32) -> u64 {
    let p = deep_decide_chain(n);
    let compiled = compile(&p.expr).expect("the chain compiles");
    let cfg = TreeRunConfig {
        fuel: 0,
        choices: TreeChoices {
            ops: BTreeSet::from(["decide".to_owned()]),
            prefix_bits: 0,
            prefix_len: n - 1,
            max_decisions: n,
        },
        prune: None,
    };
    let Explored::Choice(point) = explore(&compiled, cfg).expect("the prefix runs") else {
        panic!("one decision must remain");
    };
    assert_eq!(point.depth(), n - 1);
    (0..4)
        .map(|i| {
            let before = allocs();
            let r = point.resume(i % 2 == 0);
            let used = allocs() - before;
            assert!(matches!(r, Ok(Explored::Done(_))), "the last decision finishes the run");
            used
        })
        .min()
        .expect("four resumes")
}

#[test]
fn resume_allocations_do_not_grow_with_path_length() {
    let shallow = last_level_resume_allocs(4);
    let deep = last_level_resume_allocs(16);
    // Before the snapshot kept a running total, a resume cloned the
    // whole ambient loss vector and re-summed it: 47 allocations at
    // n = 4 and 71 at n = 16, two more per level.
    assert!(deep.abs_diff(shallow) <= 2, "n = 4: {shallow} allocations, n = 16: {deep}");
    // Measured at 18 for both depths.
    const CEILING: u64 = 22;
    assert!(shallow <= CEILING && deep <= CEILING, "n = 4: {shallow}, n = 16: {deep}");
}
