//! The runner's deterministic work counter: a steady-state beat allocates
//! nothing.
//!
//! Every container on the send→deliver path is recycled — the per-node
//! send lists, the adversary's outbox buffer, the scheduler's ring of
//! per-recipient inboxes, the phantom-history ring once it is full — so
//! after a warm-up a `Simulation::step` over a non-allocating application
//! must not touch the allocator at all. The one amortised growth left in
//! `step` is `TrafficStats`' per-beat row vector, which doubles at beats
//! 64 and 128; the counted window (beats 70..120) sits between the two.

use byzclock_sim::{
    Application, Envelope, FaultEvent, FaultKind, FaultPlan, NodeId, Outbox, SilentAdversary,
    SimBuilder, SimRng,
};
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

/// Two phases of `Copy` traffic — a broadcast, then a unicast to the next
/// node — folded into one word of state.
struct Summer {
    me: NodeId,
    n: u16,
    sum: u64,
}

impl Application for Summer {
    type Msg = u64;
    fn phases(&self) -> usize {
        2
    }
    fn send(&mut self, phase: usize, out: &mut Outbox<'_, u64>) {
        if phase == 0 {
            out.broadcast(self.sum);
        } else {
            out.unicast(NodeId::new((self.me.raw() + 1) % self.n), self.sum);
        }
    }
    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<u64>], _rng: &mut SimRng) {
        for e in inbox {
            self.sum = self.sum.wrapping_mul(31).wrapping_add(e.msg ^ e.round);
        }
    }
    fn corrupt(&mut self, _rng: &mut SimRng) {
        self.sum = 0;
    }
}

/// Allocator calls made by beats 70..120 of an n = 16 lockstep run.
fn allocations_in_steady_state(plan: FaultPlan) -> u64 {
    let mut sim = SimBuilder::new(16, 5).seed(3).faults(plan).build(
        |cfg, _rng| Summer {
            me: cfg.id,
            n: cfg.n as u16,
            sum: u64::from(cfg.id.raw()),
        },
        SilentAdversary,
    );
    sim.run_beats(70);
    let before = ALLOCS.with(Cell::get);
    sim.run_beats(50);
    let allocations = ALLOCS.with(Cell::get) - before;
    assert_eq!(sim.beat(), 120);
    assert_eq!(sim.stats().per_beat()[119].correct_msgs, 11 * (16 + 1));
    allocations
}

#[test]
fn steady_state_beats_allocate_nothing() {
    assert_eq!(allocations_in_steady_state(FaultPlan::none()), 0);
}

/// With a phantom burst anywhere in the plan the history ring records
/// every envelope; once it holds its 4096-envelope capacity (here after 22
/// beats) recording recycles its slots.
#[test]
fn a_full_history_ring_allocates_nothing_either() {
    let plan = FaultPlan::new(vec![FaultEvent {
        beat: 1_000,
        kind: FaultKind::PhantomBurst { count: 8 },
    }]);
    assert_eq!(allocations_in_steady_state(plan), 0);
}
