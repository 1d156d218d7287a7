//! The clock stack's allocation counters: how many allocator calls steady
//! beats of a `clock-sync` run make, and how much heap the run holds at
//! its peak, started through the scenario API — over the oracle coin (the
//! clock stack alone) and over the GVSS ticket coin.
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
//! one zero-padded block of `u32` coefficients, and `recv_share`
//! allocates nothing. What a node keeps across beats is in its
//! `GvssWorkspace`; the scratch the dealing, echo and recover rounds work
//! in, the dealt bivariates included, is one per thread, grown by the
//! call that needs it. The pipeline keeps its per-beat send and routing
//! buffers. What is left per beat is a handful of allocations per
//! message — each payload's vectors and its `Arc` — plus the
//! per-instance dealing. Every payload is shared behind its `Arc`, the
//! vote included, so a clone per recipient or per demultiplexing layer is
//! a reference-count bump.
//!
//! Beats 70..120 of `clock-sync n=13 f=4 k=8 coin=ticket adv=silent
//! faults=none seed=1`, counted per calling thread: the
//! nested layout (one `Vec` per matrix row, rows stored as `Vec<Poly>`,
//! echoes evaluated twice) made 736 299 calls there, 14 726 a beat; the
//! flat layout made 200 799, 4 016 a beat, and still did with the
//! columnar dealing and the recover view in the workspace. Building
//! lockstep inboxes at delivery and sharing the vote's payload behind an
//! `Arc` bring it to 153 774, 3 075 a beat, dropping the clock stack's
//! per-layer inbox and send copies to 141 750, 2 835 a beat, and reusing
//! the pipeline's buffers to 122 625, 2 453 a beat. The window sits
//! between the doublings of `TrafficStats`' per-beat row vector at beats
//! 64 and 128, like `crates/sim/tests/zero_alloc_step.rs`'s.
//!
//! The peak of live heap bytes from `Scenario::start` to beat 120 was
//! 2 819 944 B at n = 13 and 75 158 324 B at n = 32 (`f=10`, the same
//! window: 734 250 calls) while every workspace held its own scratch,
//! every instance its dealt bivariates and its rows as `u64`
//! coefficients; one scratch per thread, no bivariates kept and `u32`
//! coefficients bring it to 1 490 884 B and
//! 30 168 084 B (673 750 calls). Both ticket runs are pinned at their
//! measured counts plus 3 %; the n = 32 one is `#[ignore]`d, too slow in
//! a debug build, and runs in release in CI.

use byzclock::scenario::{Scenario, ScenarioSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed (it can go
    /// negative: a thread may free what another allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE` since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's live count and raises its high-water
/// mark.
fn track(bytes: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// The system allocator, counting requests and live bytes per calling
/// thread so the harness's own threads cannot disturb the figures.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is thread-local statistics
// (const-initialised `Cell`s without a destructor, so reading them never
// allocates or re-enters the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        track(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout` (above), and
        // the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a run of the spec cost the allocator on this thread.
struct Counts {
    /// Allocator calls made by beats 70..120.
    steady_calls: u64,
    /// The peak of live heap bytes from `Scenario::start` to beat 120,
    /// above what was live before it.
    peak_live_bytes: i64,
}

fn count_run(line: &str) -> Counts {
    let spec = ScenarioSpec::parse(line).expect("spec parses");
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let mut run = Scenario::start(&spec).expect("clock-sync registered");
    for _ in 0..70 {
        run.step();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..50 {
        run.step();
    }
    let steady_calls = ALLOCS.with(Cell::get) - before;
    assert_eq!(run.beat(), 120);
    assert!(run.synced().is_some(), "the clock is steady by beat 120");
    Counts {
        steady_calls,
        peak_live_bytes: PEAK.with(Cell::get) - base,
    }
}

/// Asserts `got` is at most `measured` plus 3 % headroom, and prints it.
fn assert_within_headroom(what: &str, got: i64, measured: i64) {
    eprintln!("{what}: {got} (pinned at {measured} + 3 %)");
    assert!(
        got <= measured + measured * 3 / 100,
        "{what}: {got}, pinned at {measured} + 3 %"
    );
}

#[test]
fn a_steady_oracle_clock_beat_allocates_nothing() {
    let counts = count_run(
        "clock-sync n=64 f=21 k=64 coin=oracle adv=silent faults=none seed=1 budget=1000",
    );
    assert_eq!(
        counts.steady_calls, 0,
        "allocator calls in 50 steady oracle beats"
    );
}

#[test]
fn a_steady_ticket_coin_beat_allocates_per_message_not_per_row() {
    let counts =
        count_run("clock-sync n=13 f=4 k=8 coin=ticket adv=silent faults=none seed=1 budget=1000");
    assert_within_headroom(
        "allocator calls in 50 steady beats, n = 13",
        counts.steady_calls as i64,
        STEADY_CALLS_N13,
    );
    assert_within_headroom(
        "peak live heap bytes to beat 120, n = 13",
        counts.peak_live_bytes,
        PEAK_LIVE_N13,
    );
}

/// The n = 32 twin of the ticket-coin pin: too slow in a debug build,
/// so it runs with `--include-ignored` (in release, in CI).
#[test]
#[ignore = "slow in debug; run with --release -- --include-ignored"]
fn a_ticket_coin_run_at_n32_keeps_its_working_set() {
    let counts =
        count_run("clock-sync n=32 f=10 k=8 coin=ticket adv=silent faults=none seed=1 budget=1000");
    assert_within_headroom(
        "allocator calls in 50 steady beats, n = 32",
        counts.steady_calls as i64,
        STEADY_CALLS_N32,
    );
    assert_within_headroom(
        "peak live heap bytes to beat 120, n = 32",
        counts.peak_live_bytes,
        PEAK_LIVE_N32,
    );
}

/// Measured counts of the ticket-coin runs (identical in debug and
/// release builds); the pins allow 3 % on top.
const STEADY_CALLS_N13: i64 = 122_625;
const PEAK_LIVE_N13: i64 = 1_490_884;
const STEADY_CALLS_N32: i64 = 673_750;
const PEAK_LIVE_N32: i64 = 30_168_084;
