//! The clock stack's allocation counters: how many allocator calls steady
//! beats of a `clock-sync` run make, started through the scenario API —
//! over the oracle coin (the clock stack alone) and over the GVSS ticket
//! coin.
//!
//! Every layer of the clock stack reads its inbox in one borrowed pass and
//! sends straight into the runner's outbox; `ClockSync`'s block receipts
//! are refilled in place. Without a coin's traffic nothing is left to
//! allocate: beats 70..120 of `clock-sync n=64 f=21 k=64 coin=oracle
//! adv=silent faults=none seed=1` make no allocator call at all — the
//! scenario layer and `TrafficStats` included — where the per-layer inbox
//! copies made 63 812.
//!
//! Every coin matrix is one flat block (`FlatMatrix`: an element `Vec`
//! plus a span table) instead of a `Vec` per row, the instance storage is
//! one zero-padded coefficient block, and `recv_share` allocates nothing.
//! The scratch the dealing, echo and recover rounds work in is sized once
//! per node, in its `GvssWorkspace`, not per call.
//! What is left per beat is a handful of allocations per message — each
//! payload's vectors and its `Arc` — plus the per-instance dealing. Every
//! payload is shared behind its `Arc`, the vote included, so a clone per
//! recipient or per demultiplexing layer is a reference-count bump.
//!
//! Beats 70..120 of `clock-sync n=13 f=4 k=8 coin=ticket adv=silent
//! faults=none seed=1`, counted per calling thread: the
//! nested layout (one `Vec` per matrix row, rows stored as `Vec<Poly>`,
//! echoes evaluated twice) made 736 299 calls there, 14 726 a beat; the
//! flat layout made 200 799, 4 016 a beat, and still did with the
//! columnar dealing and the recover view in the workspace. Building
//! lockstep inboxes at delivery and sharing the vote's payload behind an
//! `Arc` bring it to 153 774, 3 075 a beat, and dropping the clock stack's
//! per-layer inbox and send copies to 141 750, 2 835 a beat. The window
//! sits between the doublings of `TrafficStats`' per-beat row vector at
//! beats 64 and 128, like `crates/sim/tests/zero_alloc_step.rs`'s.

use byzclock::scenario::{Scenario, ScenarioSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting requests per calling thread so the
/// harness's own threads cannot disturb the figure.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local statistic
// (a const-initialised `Cell` without a destructor, so reading it never
// allocates or re-enters the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout` (above), and
        // the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls made by beats 70..120 of the spec.
fn allocations_in_steady_beats(line: &str) -> u64 {
    let spec = ScenarioSpec::parse(line).expect("spec parses");
    let mut run = Scenario::start(&spec).expect("clock-sync registered");
    for _ in 0..70 {
        run.step();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..50 {
        run.step();
    }
    let allocations = ALLOCS.with(Cell::get) - before;
    assert_eq!(run.beat(), 120);
    assert!(run.synced().is_some(), "the clock is steady by beat 120");
    allocations
}

#[test]
fn a_steady_oracle_clock_beat_allocates_nothing() {
    let allocations = allocations_in_steady_beats(
        "clock-sync n=64 f=21 k=64 coin=oracle adv=silent faults=none seed=1 budget=1000",
    );
    assert_eq!(allocations, 0, "allocator calls in 50 steady oracle beats");
}

#[test]
fn a_steady_ticket_coin_beat_allocates_per_message_not_per_row() {
    let allocations = allocations_in_steady_beats(
        "clock-sync n=13 f=4 k=8 coin=ticket adv=silent faults=none seed=1 budget=1000",
    );
    assert!(
        allocations <= 146_000,
        "{allocations} allocator calls in 50 steady beats (one-pass clock stack: 141 750)"
    );
}
