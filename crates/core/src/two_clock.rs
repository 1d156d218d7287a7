//! `ss-Byz-2-Clock` (Fig. 2) — the probabilistic 2-valued clock.
//!
//! Each beat, every node broadcasts `clock ∈ {0,1,⊥}` (line 1), steps the
//! coin `C` and obtains `rand` (line 2), substitutes `rand` for every `⊥`
//! received (line 3), counts the majority (line 4), and either flips the
//! certified majority (`clock := 1 − maj` when `#maj ≥ n − f`, line 5) or
//! gives up for the beat (`clock := ⊥`, line 6).
//!
//! The module also contains [`BrokenTwoClock`], the *incorrect* variant
//! that Remark 3.1 warns about (senders substitute the previous beat's
//! `rand` before broadcasting). Experiment A1 shows an adversary with
//! rushing knowledge of the coin stalling it, while the correct protocol
//! keeps its expected-constant convergence.

use crate::clock::DigitalClock;
use crate::rand_source::RandSource;
use crate::trit::{dedup_by_sender, majority_literal, majority_with_rand, Trit};
use byzclock_sim::{
    Application, Envelope, NodeCfg, NodeId, Outbox, SimRng, Target, Wire, WireFormat, WireReader,
    WireWriter,
};
use rand::Rng;

/// The paper's lines 3–6 as a reusable state machine: the clock variable
/// plus the quorum rule. The coin and the message plumbing live outside so
/// that [`TwoClock`], [`BrokenTwoClock`], and the shared-pipeline 4-clock
/// (Remark 4.1) can all reuse it.
#[derive(Debug, Clone)]
pub struct TwoClockCore {
    cfg: NodeCfg,
    clock: Trit,
}

impl TwoClockCore {
    /// Fresh core; the clock starts at `⊥` (any start value is fine — the
    /// protocol stabilizes from all of them, and tests corrupt it anyway).
    pub fn new(cfg: NodeCfg) -> Self {
        TwoClockCore {
            cfg,
            clock: Trit::Bot,
        }
    }

    /// Node configuration.
    pub fn cfg(&self) -> &NodeCfg {
        &self.cfg
    }

    /// Current clock value.
    pub fn clock(&self) -> Trit {
        self.clock
    }

    /// Overwrites the clock — for harnesses that need a chosen start state
    /// (e.g. the Lemma 2 test) and for state scrambling.
    pub fn set_clock(&mut self, clock: Trit) {
        self.clock = clock;
    }

    /// The value broadcast in line 1.
    pub fn vote(&self) -> Trit {
        self.clock
    }

    /// Lines 3–6: substitute `rand` for `⊥`, count, flip or reset.
    /// `votes` must hold at most one vote per sender.
    pub fn apply(&mut self, votes: &[(NodeId, Trit)], rand: bool) {
        let m = majority_with_rand(votes, rand);
        self.clock = if m.count >= self.cfg.quorum() {
            Trit::from_bit(!m.maj) // clock := 1 - maj
        } else {
            Trit::Bot
        };
    }

    /// The broken variant's update: votes are counted literally (senders
    /// already substituted).
    pub fn apply_literal(&mut self, votes: &[(NodeId, Trit)]) {
        let m = majority_literal(votes);
        self.clock = if m.count >= self.cfg.quorum() {
            Trit::from_bit(!m.maj)
        } else {
            Trit::Bot
        };
    }

    /// Transient fault.
    pub fn corrupt(&mut self, rng: &mut SimRng) {
        self.clock = Trit::arbitrary(rng);
    }
}

/// Messages of one 2-clock: the clock broadcast plus the coin's traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoClockMsg<M> {
    /// Line 1: the sender's clock value.
    Clock(Trit),
    /// A message of the underlying coin algorithm `C`.
    Coin(M),
}

impl<M: Wire> Wire for TwoClockMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            TwoClockMsg::Clock(t) => w.put_tagged(0, t, format),
            TwoClockMsg::Coin(m) => w.put_tagged(1, m, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(TwoClockMsg::Clock(Wire::decode(format, r)?)),
            1 => Some(TwoClockMsg::Coin(Wire::decode(format, r)?)),
            _ => None,
        }
    }
}

/// A 2-clock inbox split into clock votes and coin messages.
type SplitInbox<M> = (Vec<(NodeId, Trit)>, Vec<(NodeId, M)>);

/// Extracts `(sender, vote)` pairs (one per sender, first wins) and the
/// coin sub-inbox from a 2-clock inbox.
fn split_inbox<M: Clone>(inbox: &[Envelope<TwoClockMsg<M>>]) -> SplitInbox<M> {
    let votes = dedup_by_sender(inbox.iter().filter_map(|e| match &e.msg {
        TwoClockMsg::Clock(t) => Some((e.from, *t)),
        TwoClockMsg::Coin(_) => None,
    }));
    let coin = inbox
        .iter()
        .filter_map(|e| match &e.msg {
            TwoClockMsg::Coin(m) => Some((e.from, m.clone())),
            TwoClockMsg::Clock(_) => None,
        })
        .collect();
    (votes, coin)
}

/// `ss-Byz-2-Clock` (Fig. 2), generic over the coin.
///
/// Usable directly as a [`Application`] (one exchange phase per beat) or as
/// a sub-component of `ss-Byz-4-Clock` via [`TwoClock::step_send`] /
/// [`TwoClock::step_deliver`].
#[derive(Debug)]
pub struct TwoClock<R: RandSource> {
    core: TwoClockCore,
    rand_source: R,
    last_rand: bool,
}

impl<R: RandSource> TwoClock<R> {
    /// Builds the 2-clock over the given coin.
    pub fn new(cfg: NodeCfg, rand_source: R) -> Self {
        TwoClock {
            core: TwoClockCore::new(cfg),
            rand_source,
            last_rand: false,
        }
    }

    /// Current clock value.
    pub fn clock(&self) -> Trit {
        self.core.clock()
    }

    /// Overwrites the clock (test/bench setup).
    pub fn set_clock(&mut self, clock: Trit) {
        self.core.set_clock(clock);
    }

    /// The `rand` bit obtained at the last beat (observability for the
    /// coin-quality experiments).
    pub fn last_rand(&self) -> bool {
        self.last_rand
    }

    /// The coin's [`RandSource::metrics`] (instrumentation pass-through).
    pub fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        self.rand_source.metrics()
    }

    /// One beat's send half: line 1 plus the coin's sends.
    pub fn step_send(&mut self, rng: &mut SimRng, out: &mut Vec<(Target, TwoClockMsg<R::Msg>)>) {
        out.push((Target::All, TwoClockMsg::Clock(self.core.vote())));
        let mut coin_out = Vec::new();
        self.rand_source.send(rng, &mut coin_out);
        out.extend(coin_out.into_iter().map(|(t, m)| (t, TwoClockMsg::Coin(m))));
    }

    /// One beat's deliver half: lines 2–6.
    pub fn step_deliver(&mut self, inbox: &[Envelope<TwoClockMsg<R::Msg>>], rng: &mut SimRng) {
        let (votes, coin_inbox) = split_inbox(inbox);
        // Line 2 happens *after* all senders (Byzantine included) committed
        // their line-1 messages of this beat — see Remark 3.1.
        let rand = self.rand_source.deliver(&coin_inbox, rng);
        self.last_rand = rand;
        self.core.apply(&votes, rand);
    }

    /// Transient fault.
    pub fn scramble(&mut self, rng: &mut SimRng) {
        self.core.corrupt(rng);
        self.rand_source.corrupt(rng);
        self.last_rand = rng.random();
    }

    /// Forwards the runner's beat index to the coin (see
    /// [`RandSource::begin_beat`]).
    pub fn begin_beat(&mut self, beat: u64) {
        self.rand_source.begin_beat(beat);
    }
}

impl<R: RandSource> DigitalClock for TwoClock<R> {
    fn modulus(&self) -> u64 {
        2
    }

    fn read(&self) -> Option<u64> {
        self.clock().bit().map(u64::from)
    }
}

impl<R: RandSource> Application for TwoClock<R> {
    type Msg = TwoClockMsg<R::Msg>;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        let mut sends = Vec::new();
        // Split borrows: collect with the outbox RNG, then queue.
        self.step_send(out.rng(), &mut sends);
        for (target, msg) in sends {
            out.push(target, msg);
        }
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        self.step_deliver(inbox, rng);
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.scramble(rng);
    }

    fn begin_beat(&mut self, beat: u64) {
        TwoClock::begin_beat(self, beat);
    }
}

/// The Remark 3.1 **anti-pattern**: senders substitute the *previous*
/// beat's `rand` for `⊥` before broadcasting, so the substitution bit is
/// public one beat early and Byzantine votes can depend on it.
///
/// Kept (deliberately) in the library as an executable warning; see
/// experiment A1 for the attack that separates it from [`TwoClock`].
#[derive(Debug)]
pub struct BrokenTwoClock<R: RandSource> {
    core: TwoClockCore,
    rand_source: R,
    prev_rand: bool,
}

impl<R: RandSource> BrokenTwoClock<R> {
    /// Builds the broken 2-clock over the given coin.
    pub fn new(cfg: NodeCfg, rand_source: R) -> Self {
        BrokenTwoClock {
            core: TwoClockCore::new(cfg),
            rand_source,
            prev_rand: false,
        }
    }

    /// Current clock value.
    pub fn clock(&self) -> Trit {
        self.core.clock()
    }

    /// Overwrites the clock (test/bench setup).
    pub fn set_clock(&mut self, clock: Trit) {
        self.core.set_clock(clock);
    }
}

impl<R: RandSource> DigitalClock for BrokenTwoClock<R> {
    fn modulus(&self) -> u64 {
        2
    }

    fn read(&self) -> Option<u64> {
        self.clock().bit().map(u64::from)
    }
}

impl<R: RandSource> Application for BrokenTwoClock<R> {
    type Msg = TwoClockMsg<R::Msg>;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        // Sender-side substitution with *yesterday's* bit — the bug.
        let vote = match self.core.vote() {
            Trit::Bot => Trit::from_bit(self.prev_rand),
            v => v,
        };
        let mut sends = vec![(Target::All, TwoClockMsg::Clock(vote))];
        let mut coin_out = Vec::new();
        self.rand_source.send(out.rng(), &mut coin_out);
        sends.extend(coin_out.into_iter().map(|(t, m)| (t, TwoClockMsg::Coin(m))));
        for (target, msg) in sends {
            out.push(target, msg);
        }
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        let (votes, coin_inbox) = split_inbox(inbox);
        let rand = self.rand_source.deliver(&coin_inbox, rng);
        self.core.apply_literal(&votes);
        self.prev_rand = rand;
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.core.corrupt(rng);
        self.rand_source.corrupt(rng);
        self.prev_rand = rng.random();
    }

    fn begin_beat(&mut self, beat: u64) {
        self.rand_source.begin_beat(beat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::all_synced;
    use crate::rand_source::{LocalRand, OracleBeacon};
    use byzclock_sim::{SilentAdversary, SimBuilder};

    type OracleTwoClock = TwoClock<crate::rand_source::OracleRand>;

    fn oracle_sim(
        n: usize,
        f: usize,
        seed: u64,
        beacon: &OracleBeacon,
    ) -> byzclock_sim::Simulation<OracleTwoClock, SilentAdversary> {
        let beacon = beacon.clone();
        SimBuilder::new(n, f).seed(seed).build(
            move |cfg, _rng| TwoClock::new(cfg, beacon.source(cfg.id)),
            SilentAdversary,
        )
    }

    fn clocks(sim: &byzclock_sim::Simulation<OracleTwoClock, SilentAdversary>) -> Vec<Trit> {
        sim.correct_apps().map(|(_, a)| a.clock()).collect()
    }

    /// Lemma 2: if all correct nodes start a beat with the same definite
    /// value, they all end it with the flipped value — regardless of the
    /// coin and with no help from Byzantine nodes.
    #[test]
    fn lemma_2_agreed_clock_flips_in_lockstep() {
        for start in [Trit::Zero, Trit::One] {
            // Split-only coin: the flip must not depend on the coin at all.
            let beacon = OracleBeacon::new(0.0, 0.0, 4);
            let mut sim = SimBuilder::new(7, 2).seed(1).build(
                move |cfg, _rng| {
                    let mut c = TwoClock::new(cfg, beacon.source(cfg.id));
                    c.set_clock(start);
                    c
                },
                SilentAdversary,
            );
            sim.step();
            let end = clocks(&sim);
            assert!(
                end.iter().all(|&c| c == start.flipped()),
                "{start:?} -> {end:?}"
            );
        }
    }

    /// Lemma 3: on a safe beat (common rand), the end states are contained
    /// in {v, ⊥} for a single v.
    #[test]
    fn lemma_3_safe_beat_end_states() {
        for seed in 0..30u64 {
            let beacon = OracleBeacon::perfect(seed); // every beat safe
            let mut sim = oracle_sim(7, 2, seed, &beacon);
            for _ in 0..5 {
                sim.step();
                let definite: Vec<u64> = sim.correct_apps().filter_map(|(_, a)| a.read()).collect();
                assert!(
                    definite.windows(2).all(|w| w[0] == w[1]),
                    "two different definite values after a safe beat: {definite:?}"
                );
            }
        }
    }

    /// Theorem 2 (statistical): with a perfect coin the 2-clock converges
    /// fast from the ⊥ start, and stays synced (closure).
    #[test]
    fn theorem_2_convergence_and_closure() {
        let mut total = 0u64;
        for seed in 0..20u64 {
            let beacon = OracleBeacon::perfect(seed.wrapping_mul(77).wrapping_add(5));
            let mut sim = oracle_sim(7, 2, seed, &beacon);
            let converged = sim
                .run_until(200, |s| {
                    all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
                })
                .expect("must converge within 200 beats with a perfect coin");
            total += converged;
            // Closure: once synced, the clock alternates forever.
            let v0 = all_synced(sim.correct_apps().map(|(_, a)| a.read())).unwrap();
            for i in 1..=10 {
                sim.step();
                let v = all_synced(sim.correct_apps().map(|(_, a)| a.read()))
                    .expect("closure violated: lost sync after convergence");
                assert_eq!(v, (v0 + i) % 2);
            }
        }
        let mean = total as f64 / 20.0;
        assert!(
            mean < 12.0,
            "expected-constant convergence looks broken: mean {mean}"
        );
    }

    /// With only adversarial splits (p0 = p1 = 0) the clock may still
    /// converge by luck of vote counts, but a perfect coin must dominate a
    /// split-only coin in convergence speed.
    #[test]
    fn coin_quality_matters() {
        let measure = |p: f64, seeds: std::ops::Range<u64>| -> f64 {
            let mut sum = 0f64;
            let mut count = 0f64;
            for seed in seeds {
                let beacon = OracleBeacon::new(p / 2.0, p / 2.0, seed + 1000);
                let mut sim = oracle_sim(7, 2, seed, &beacon);
                let t = sim
                    .run_until(3000, |s| {
                        all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
                    })
                    .unwrap_or(3000);
                sum += t as f64;
                count += 1.0;
            }
            sum / count
        };
        let fast = measure(1.0, 0..15);
        let slow = measure(0.2, 0..15);
        assert!(
            fast < slow,
            "perfect coin ({fast}) should beat weak coin ({slow})"
        );
    }

    /// The local-coin variant still converges for small clusters — just
    /// slower in expectation (it is the \[10\]-style baseline).
    #[test]
    fn local_rand_converges_eventually_small_n() {
        let mut sim = SimBuilder::new(4, 1)
            .seed(9)
            .build(|cfg, _rng| TwoClock::new(cfg, LocalRand), SilentAdversary);
        let converged = sim.run_until(5_000, |s| {
            all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
        });
        assert!(converged.is_some());
    }

    /// Sanity: the broken variant behaves fine *without* an adversary (the
    /// attack, not the happy path, is what separates it — experiment A1).
    #[test]
    fn broken_variant_converges_without_adversary() {
        let beacon = OracleBeacon::perfect(3);
        let mut sim = SimBuilder::new(7, 2).seed(4).build(
            move |cfg, _rng| BrokenTwoClock::new(cfg, beacon.source(cfg.id)),
            SilentAdversary,
        );
        let converged = sim.run_until(500, |s| {
            all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
        });
        assert!(converged.is_some());
    }

    #[test]
    fn wire_sizes() {
        let clock_msg: TwoClockMsg<u64> = TwoClockMsg::Clock(Trit::Bot);
        assert_eq!(WireFormat::Fixed.len_of(&clock_msg), 2);
        let coin_msg: TwoClockMsg<u64> = TwoClockMsg::Coin(5);
        assert_eq!(WireFormat::Fixed.len_of(&coin_msg), 9);
    }

    #[test]
    fn dedup_blocks_double_votes() {
        // A Byzantine node sending two Clock messages gets one vote.
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let mut core = TwoClockCore::new(cfg);
        let byz = NodeId::new(3);
        let inbox: Vec<Envelope<TwoClockMsg<()>>> = vec![
            Envelope::new(
                NodeId::new(0),
                NodeId::new(0),
                TwoClockMsg::Clock(Trit::Zero),
            ),
            Envelope::new(
                NodeId::new(1),
                NodeId::new(0),
                TwoClockMsg::Clock(Trit::Zero),
            ),
            Envelope::new(byz, NodeId::new(0), TwoClockMsg::Clock(Trit::Zero)),
            Envelope::new(byz, NodeId::new(0), TwoClockMsg::Clock(Trit::Zero)),
        ];
        let (votes, _) = split_inbox(&inbox);
        assert_eq!(votes.len(), 3, "duplicate vote must be dropped");
        core.apply(&votes, false);
        // 3 votes for Zero < quorum 3? quorum = n - f = 3 -> exactly 3.
        assert_eq!(core.clock(), Trit::One);
    }
}
