//! `ss-Byz-4-Clock` (Fig. 3) — two 2-clocks composed into a 4-valued clock.
//!
//! Each beat executes a beat of `A1` and, **iff `clock(A1) = 0` after that
//! same-beat execution**, a beat of `A2`; the output is
//! `2·clock(A2) + clock(A1)`. The post-execution gate is what produces the
//! `(0,0), (1,0), (0,1), (1,1)` pattern in Theorem 3's proof: `A2` flips on
//! exactly the beats where `A1` wraps to 0.
//!
//! Two variants are provided:
//!
//! - [`FourClock`]: the paper's construction — each 2-clock runs its own
//!   coin pipeline;
//! - [`SharedFourClock`]: Remark 4.1's optimization — one pipeline feeds
//!   both sub-clocks (the same beat-`r` bit serves `A1` and `A2`), halving
//!   the coin traffic. Experiment A2 measures the saving.

use crate::clock::DigitalClock;
use crate::rand_source::RandSource;
use crate::trit::{dedup_by_sender, Trit};
use crate::two_clock::{TwoClock, TwoClockCore, TwoClockMsg};
use byzclock_sim::{
    Application, Envelope, NodeCfg, NodeId, Outbox, SimRng, Target, Wire, WireFormat, WireReader,
    WireWriter,
};
use rand::Rng;

/// Messages of `ss-Byz-4-Clock`: tagged traffic of the two sub-clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FourClockMsg<M> {
    /// Traffic of the every-beat 2-clock `A1`.
    A1(TwoClockMsg<M>),
    /// Traffic of the gated 2-clock `A2`.
    A2(TwoClockMsg<M>),
}

impl<M: Wire> Wire for FourClockMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            FourClockMsg::A1(m) => w.put_tagged(0, m, format),
            FourClockMsg::A2(m) => w.put_tagged(1, m, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(FourClockMsg::A1(Wire::decode(format, r)?)),
            1 => Some(FourClockMsg::A2(Wire::decode(format, r)?)),
            _ => None,
        }
    }
}

fn sub_inbox<M: Clone>(
    inbox: &[Envelope<FourClockMsg<M>>],
    want_a1: bool,
) -> Vec<Envelope<TwoClockMsg<M>>> {
    inbox
        .iter()
        .filter_map(|e| match (&e.msg, want_a1) {
            (FourClockMsg::A1(m), true) | (FourClockMsg::A2(m), false) => Some(e.map(m.clone())),
            _ => None,
        })
        .collect()
}

/// `ss-Byz-4-Clock` (Fig. 3). Runs as a two-phase [`Application`] or as a
/// sub-component of `ss-Byz-Clock-Sync`.
#[derive(Debug)]
pub struct FourClock<R: RandSource> {
    a1: TwoClock<R>,
    a2: TwoClock<R>,
    gate_a2: bool,
    a2_steps: u64,
    beats: u64,
}

impl<R: RandSource> FourClock<R> {
    /// Builds the 4-clock from two coin instances (one per sub-clock, as in
    /// the paper; see [`SharedFourClock`] for the Remark 4.1 variant).
    pub fn new(cfg: NodeCfg, rand_a1: R, rand_a2: R) -> Self {
        FourClock {
            a1: TwoClock::new(cfg, rand_a1),
            a2: TwoClock::new(cfg, rand_a2),
            gate_a2: false,
            a2_steps: 0,
            beats: 0,
        }
    }

    /// `clock = 2·clock(A2) + clock(A1)` (line 3), or `None` while either
    /// sub-clock holds `⊥`.
    pub fn clock(&self) -> Option<u8> {
        match (self.a1.clock().bit(), self.a2.clock().bit()) {
            (Some(c1), Some(c2)) => Some(2 * u8::from(c2) + u8::from(c1)),
            _ => None,
        }
    }

    /// The inner every-beat 2-clock.
    pub fn a1(&self) -> &TwoClock<R> {
        &self.a1
    }

    /// The inner gated 2-clock.
    pub fn a2(&self) -> &TwoClock<R> {
        &self.a2
    }

    /// [`RandSource::metrics`] summed over both sub-clocks' coins.
    pub fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut metrics = self.a1.coin_metrics();
        crate::merge_metrics(&mut metrics, self.a2.coin_metrics());
        metrics
    }

    /// Instrumentation: fraction of beats in which `A2` executed
    /// (converges to 1/2 after `A1` stabilizes — checked by experiment F3).
    pub fn a2_step_ratio(&self) -> f64 {
        if self.beats == 0 {
            0.0
        } else {
            self.a2_steps as f64 / self.beats as f64
        }
    }

    /// Sub-phase send: phase 0 drives `A1`, phase 1 drives `A2` when gated.
    pub fn phase_send(
        &mut self,
        phase: usize,
        rng: &mut SimRng,
        out: &mut Vec<(Target, FourClockMsg<R::Msg>)>,
    ) {
        let mut sub = Vec::new();
        match phase {
            0 => {
                self.a1.step_send(rng, &mut sub);
                out.extend(sub.into_iter().map(|(t, m)| (t, FourClockMsg::A1(m))));
            }
            1 if self.gate_a2 => {
                self.a2.step_send(rng, &mut sub);
                out.extend(sub.into_iter().map(|(t, m)| (t, FourClockMsg::A2(m))));
            }
            _ => {}
        }
    }

    /// Sub-phase deliver; decides the `A2` gate after `A1`'s beat.
    pub fn phase_deliver(
        &mut self,
        phase: usize,
        inbox: &[Envelope<FourClockMsg<R::Msg>>],
        rng: &mut SimRng,
    ) {
        match phase {
            0 => {
                self.beats += 1;
                let a1_inbox = sub_inbox(inbox, true);
                self.a1.step_deliver(&a1_inbox, rng);
                // Fig. 3 line 2: the gate reads clock(A1) *after* A1's beat.
                self.gate_a2 = self.a1.clock() == Trit::Zero;
                if self.gate_a2 {
                    self.a2_steps += 1;
                }
            }
            1 if self.gate_a2 => {
                let a2_inbox = sub_inbox(inbox, false);
                self.a2.step_deliver(&a2_inbox, rng);
            }
            _ => {}
        }
    }

    /// Model-checking hook: overwrites the mutable protocol state — both
    /// sub-clock values and the `A2` gate. The checker restores canonical
    /// states through this before enumerating one beat's alternatives; it
    /// is not part of the protocol surface.
    pub fn mc_set_state(&mut self, a1: Trit, a2: Trit, gate_a2: bool) {
        self.a1.set_clock(a1);
        self.a2.set_clock(a2);
        self.gate_a2 = gate_a2;
    }

    /// Transient fault.
    pub fn scramble(&mut self, rng: &mut SimRng) {
        self.a1.scramble(rng);
        self.a2.scramble(rng);
        self.gate_a2 = rng.random();
    }

    /// Forwards the runner's beat index to both sub-clocks' coins
    /// (unconditionally — the `A2` gate applies to sends, not to observing
    /// the beat, so a gated pipeline still rotates in step).
    pub fn begin_beat(&mut self, beat: u64) {
        self.a1.begin_beat(beat);
        self.a2.begin_beat(beat);
    }
}

impl<R: RandSource> DigitalClock for FourClock<R> {
    fn modulus(&self) -> u64 {
        4
    }

    fn read(&self) -> Option<u64> {
        self.clock().map(u64::from)
    }
}

impl<R: RandSource> Application for FourClock<R> {
    type Msg = FourClockMsg<R::Msg>;

    fn phases(&self) -> usize {
        2
    }

    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        let mut sends = Vec::new();
        self.phase_send(phase, out.rng(), &mut sends);
        for (target, msg) in sends {
            out.push(target, msg);
        }
    }

    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        self.phase_deliver(phase, inbox, rng);
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.scramble(rng);
    }

    fn begin_beat(&mut self, beat: u64) {
        FourClock::begin_beat(self, beat);
    }
}

/// Messages of the shared-pipeline 4-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharedFourClockMsg<M> {
    /// `A1`'s clock vote (phase 0).
    A1Vote(Trit),
    /// `A2`'s clock vote (phase 1, gated).
    A2Vote(Trit),
    /// The single shared coin pipeline's traffic (phase 0).
    Coin(M),
}

impl<M: Wire> Wire for SharedFourClockMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            SharedFourClockMsg::A1Vote(t) => w.put_tagged(0, t, format),
            SharedFourClockMsg::A2Vote(t) => w.put_tagged(1, t, format),
            SharedFourClockMsg::Coin(m) => w.put_tagged(2, m, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(SharedFourClockMsg::A1Vote(Wire::decode(format, r)?)),
            1 => Some(SharedFourClockMsg::A2Vote(Wire::decode(format, r)?)),
            2 => Some(SharedFourClockMsg::Coin(Wire::decode(format, r)?)),
            _ => None,
        }
    }
}

/// Remark 4.1: `ss-Byz-4-Clock` over a **single** coin pipeline — the
/// beat's one bit serves both sub-clocks. Message complexity drops by
/// almost half; convergence keeps the same expected-constant shape
/// (experiment A2 quantifies both).
#[derive(Debug)]
pub struct SharedFourClock<R: RandSource> {
    core1: TwoClockCore,
    core2: TwoClockCore,
    rand_source: R,
    rand_this_beat: bool,
    gate_a2: bool,
}

impl<R: RandSource> SharedFourClock<R> {
    /// Builds the shared-pipeline 4-clock.
    pub fn new(cfg: NodeCfg, rand_source: R) -> Self {
        SharedFourClock {
            core1: TwoClockCore::new(cfg),
            core2: TwoClockCore::new(cfg),
            rand_source,
            rand_this_beat: false,
            gate_a2: false,
        }
    }

    /// `clock = 2·clock(A2) + clock(A1)`, or `None` while undecided.
    pub fn clock(&self) -> Option<u8> {
        match (self.core1.clock().bit(), self.core2.clock().bit()) {
            (Some(c1), Some(c2)) => Some(2 * u8::from(c2) + u8::from(c1)),
            _ => None,
        }
    }
}

impl<R: RandSource> DigitalClock for SharedFourClock<R> {
    fn modulus(&self) -> u64 {
        4
    }

    fn read(&self) -> Option<u64> {
        self.clock().map(u64::from)
    }
}

impl<R: RandSource> Application for SharedFourClock<R> {
    type Msg = SharedFourClockMsg<R::Msg>;

    fn phases(&self) -> usize {
        2
    }

    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        match phase {
            0 => {
                out.broadcast(SharedFourClockMsg::A1Vote(self.core1.vote()));
                let mut coin_out = Vec::new();
                self.rand_source.send(out.rng(), &mut coin_out);
                for (target, m) in coin_out {
                    out.push(target, SharedFourClockMsg::Coin(m));
                }
            }
            1 if self.gate_a2 => {
                out.broadcast(SharedFourClockMsg::A2Vote(self.core2.vote()));
            }
            _ => {}
        }
    }

    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        match phase {
            0 => {
                let coin_inbox: Vec<(NodeId, R::Msg)> = inbox
                    .iter()
                    .filter_map(|e| match &e.msg {
                        SharedFourClockMsg::Coin(m) => Some((e.from, m.clone())),
                        _ => None,
                    })
                    .collect();
                self.rand_this_beat = self.rand_source.deliver(&coin_inbox, rng);
                let votes = dedup_by_sender(inbox.iter().filter_map(|e| match &e.msg {
                    SharedFourClockMsg::A1Vote(t) => Some((e.from, *t)),
                    _ => None,
                }));
                self.core1.apply(&votes, self.rand_this_beat);
                self.gate_a2 = self.core1.clock() == Trit::Zero;
            }
            1 if self.gate_a2 => {
                let votes = dedup_by_sender(inbox.iter().filter_map(|e| match &e.msg {
                    SharedFourClockMsg::A2Vote(t) => Some((e.from, *t)),
                    _ => None,
                }));
                // The same beat's bit is reused — Remark 4.1.
                self.core2.apply(&votes, self.rand_this_beat);
            }
            _ => {}
        }
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.core1.corrupt(rng);
        self.core2.corrupt(rng);
        self.rand_source.corrupt(rng);
        self.rand_this_beat = rng.random();
        self.gate_a2 = rng.random();
    }

    fn begin_beat(&mut self, beat: u64) {
        self.rand_source.begin_beat(beat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::all_synced;
    use crate::rand_source::{OracleBeacon, OracleRand};
    use byzclock_sim::{SilentAdversary, SimBuilder, Simulation};

    fn four_sim(
        n: usize,
        f: usize,
        seed: u64,
    ) -> Simulation<FourClock<OracleRand>, SilentAdversary> {
        let b1 = OracleBeacon::perfect(seed.wrapping_add(100));
        let b2 = OracleBeacon::perfect(seed.wrapping_add(200));
        SimBuilder::new(n, f).seed(seed).build(
            move |cfg, _rng| FourClock::new(cfg, b1.source(cfg.id), b2.source(cfg.id)),
            SilentAdversary,
        )
    }

    fn synced(sim: &Simulation<FourClock<OracleRand>, SilentAdversary>) -> Option<u64> {
        all_synced(sim.correct_apps().map(|(_, a)| a.read()))
    }

    /// Theorem 3: expected-constant convergence and the 0,1,2,3 pattern.
    #[test]
    fn theorem_3_convergence_and_pattern() {
        let mut total = 0u64;
        for seed in 0..10u64 {
            let mut sim = four_sim(7, 2, seed);
            let t = sim
                .run_until(400, |s| synced(s).is_some())
                .expect("4-clock must converge with perfect coins");
            total += t;
            let v0 = synced(&sim).unwrap();
            for i in 1..=8 {
                sim.step();
                let v = synced(&sim).expect("closure violated");
                assert_eq!(v, (v0 + i) % 4, "pattern must be 0,1,2,3 cyclic");
            }
        }
        let mean = total as f64 / 10.0;
        assert!(
            mean < 40.0,
            "expected-constant convergence looks broken: mean {mean}"
        );
    }

    /// After stabilization A2 executes every other beat.
    #[test]
    fn a2_steps_every_other_beat_after_convergence() {
        let mut sim = four_sim(7, 2, 3);
        sim.run_until(400, |s| synced(s).is_some()).unwrap();
        // Warm-up is over; measure the ratio over a fresh window by delta.
        let before: Vec<(u64, f64)> = sim
            .correct_apps()
            .map(|(_, a)| (a.beats, a.a2_step_ratio() * a.beats as f64))
            .collect();
        sim.run_beats(40);
        for ((b0, s0), (_, a)) in before.into_iter().zip(sim.correct_apps()) {
            let steps_delta = a.a2_step_ratio() * a.beats as f64 - s0;
            let beats_delta = a.beats - b0;
            assert_eq!(beats_delta, 40);
            assert!(
                (steps_delta - 20.0).abs() <= 1.0,
                "A2 stepped {steps_delta} times in 40 beats"
            );
        }
    }

    /// Remark 4.1: the shared-pipeline variant also solves the 4-clock.
    #[test]
    fn shared_variant_converges_and_cycles() {
        for seed in 0..5u64 {
            let beacon = OracleBeacon::perfect(seed.wrapping_add(50));
            let mut sim = SimBuilder::new(7, 2).seed(seed).build(
                move |cfg, _rng| SharedFourClock::new(cfg, beacon.source(cfg.id)),
                SilentAdversary,
            );
            let t = sim.run_until(400, |s| {
                all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
            });
            assert!(
                t.is_some(),
                "shared 4-clock failed to converge (seed {seed})"
            );
            let v0 = all_synced(sim.correct_apps().map(|(_, a)| a.read())).unwrap();
            for i in 1..=8 {
                sim.step();
                let v = all_synced(sim.correct_apps().map(|(_, a)| a.read()))
                    .expect("closure violated");
                assert_eq!(v, (v0 + i) % 4);
            }
        }
    }

    #[test]
    fn four_clock_composition_map() {
        // (clock(A1), clock(A2)) -> 2*A2 + A1 covers 0..4 exactly.
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let b = OracleBeacon::perfect(1);
        let mut fc = FourClock::new(cfg, b.source(NodeId::new(0)), b.source(NodeId::new(0)));
        assert_eq!(fc.clock(), None, "fresh clock starts undecided");
        for (c1, c2, want) in [
            (Trit::Zero, Trit::Zero, 0u8),
            (Trit::One, Trit::Zero, 1),
            (Trit::Zero, Trit::One, 2),
            (Trit::One, Trit::One, 3),
        ] {
            fc.a1.set_clock(c1);
            fc.a2.set_clock(c2);
            assert_eq!(fc.clock(), Some(want));
        }
        fc.a1.set_clock(Trit::Bot);
        assert_eq!(fc.clock(), None);
    }

    #[test]
    fn wire_sizes() {
        let m: FourClockMsg<u64> = FourClockMsg::A1(TwoClockMsg::Clock(Trit::Zero));
        assert_eq!(WireFormat::Fixed.len_of(&m), 3);
        let m: SharedFourClockMsg<u64> = SharedFourClockMsg::Coin(7);
        assert_eq!(WireFormat::Fixed.len_of(&m), 9);
    }
}
