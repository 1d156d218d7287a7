//! The runner's deterministic work counter: a steady-state beat allocates
//! nothing.
//!
//! Every container on the send→deliver path is recycled — the per-node
//! send lists, the adversary's outbox buffer, the scheduler's ring of
//! per-recipient inboxes, the per-phase unicast index and the one buffer
//! lockstep inboxes are built in, the phantom-history ring once it is
//! full — so after a warm-up a `Simulation::step` over a non-allocating
//! application must not touch the allocator at all. Under bounded delay
//! the warm-up lasts until every inbox of the scheduler's ring has seen
//! its peak load (the last test pins when). The one amortised growth left
//! in `step` is `TrafficStats`' per-beat row vector, which doubles at
//! beats 64, 128, 256, …; the counted window (beats 70..120) sits between
//! the first two.

use byzclock_sim::{
    Adversary, AdversaryView, Application, ByzOutbox, Envelope, FaultEvent, FaultKind, FaultPlan,
    NodeId, Outbox, SilentAdversary, SimBuilder, SimRng, Simulation, TimingModel,
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

/// One phase that mixes both kinds of send: a unicast to the next node,
/// a broadcast, and a unicast to itself.
struct Mixer(Summer);

impl Application for Mixer {
    type Msg = u64;
    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, u64>) {
        let Summer { me, n, sum } = self.0;
        out.unicast(NodeId::new((me.raw() + 1) % n), sum);
        out.broadcast(sum ^ 1);
        out.unicast(me, sum ^ 2);
    }
    fn deliver(&mut self, phase: usize, inbox: &[Envelope<u64>], rng: &mut SimRng) {
        self.0.deliver(phase, inbox, rng);
    }
    fn corrupt(&mut self, rng: &mut SimRng) {
        self.0.corrupt(rng);
    }
}

/// The lowest Byzantine id broadcasts the beat number, every beat.
struct Shouter;

impl Adversary<u64> for Shouter {
    fn act(&mut self, view: &AdversaryView<'_, u64>, out: &mut ByzOutbox<'_, u64>) {
        out.broadcast(view.byzantine()[0], view.beat());
    }
}

fn summer(cfg: byzclock_sim::NodeCfg) -> Summer {
    Summer {
        me: cfg.id,
        n: cfg.n as u16,
        sum: u64::from(cfg.id.raw()),
    }
}

/// Allocator calls made by beats 70..120 of `sim`.
fn allocations_in_beats_70_to_120<A: Application, Adv: Adversary<A::Msg>>(
    sim: &mut Simulation<A, Adv>,
) -> u64 {
    sim.run_beats(70);
    let before = ALLOCS.with(Cell::get);
    sim.run_beats(50);
    let allocations = ALLOCS.with(Cell::get) - before;
    assert_eq!(sim.beat(), 120);
    allocations
}

/// Allocator calls made by beats 70..120 of an n = 16 lockstep run.
fn allocations_in_steady_state(plan: FaultPlan) -> u64 {
    let mut sim = SimBuilder::new(16, 5)
        .seed(3)
        .faults(plan)
        .build(|cfg, _rng| summer(cfg), SilentAdversary);
    let allocations = allocations_in_beats_70_to_120(&mut sim);
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

/// Unicasts and broadcasts in one phase go through the per-phase unicast
/// index, and a Byzantine broadcast through the scheduler's ring into the
/// built inboxes (out of sender order, so each inbox is sorted): the
/// index, the ring and the inbox buffer are all recycled.
#[test]
fn mixed_traffic_and_a_byzantine_broadcaster_allocate_nothing() {
    let mut sim = SimBuilder::new(16, 5)
        .seed(3)
        .byzantine([6u16, 7, 8, 9, 10])
        .build(|cfg, _rng| Mixer(summer(cfg)), Shouter);
    assert_eq!(allocations_in_beats_70_to_120(&mut sim), 0);
    let beat = sim.stats().per_beat()[119];
    assert_eq!(beat.correct_msgs, 11 * (1 + 16 + 1));
    assert_eq!(beat.byz_msgs, 16);
}

/// Under bounded delay every correct envelope goes through the scheduler's
/// ring: one recycled inbox per (phase, arrival beat mod window,
/// recipient). Each delay is drawn at random, so an inbox's load varies
/// beat to beat, and it grows whenever a beat's arrivals beat its
/// high-water mark — 2 allocator calls in beats 70..120 at window 2, 3 at
/// window 3. Once every inbox has seen its peak, a beat allocates nothing:
/// six 50-beat windows up to beat 1 620, clear of `TrafficStats`'
/// doublings at beats 1 024 and 2 048, make none.
#[test]
fn bounded_delay_beats_allocate_only_at_ring_high_water_marks() {
    for (window, early) in [(2, 2), (3, 3)] {
        let mut sim = SimBuilder::new(16, 5)
            .seed(3)
            .byzantine([6u16, 7, 8, 9, 10])
            .timing(TimingModel::bounded(window))
            .build(|cfg, _rng| Mixer(summer(cfg)), Shouter);
        assert_eq!(
            allocations_in_beats_70_to_120(&mut sim),
            early,
            "window {window}, beats 70..120"
        );
        sim.run_beats(1_200);
        for _ in 0..6 {
            let before = ALLOCS.with(Cell::get);
            sim.run_beats(50);
            let allocations = ALLOCS.with(Cell::get) - before;
            assert_eq!(
                allocations,
                0,
                "window {window}, beats up to {}",
                sim.beat()
            );
        }
        assert_eq!(sim.beat(), 1_620);
    }
}
