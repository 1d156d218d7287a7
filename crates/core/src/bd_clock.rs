//! `bd-clock` — a bounded-delay-tolerant digital clock on a round-tag
//! wheel.
//!
//! The paper's clocks assume the global beat system: every vote arrives
//! the beat it is cast, so "count the votes of this beat" is well-defined.
//! Under [`byzclock_sim::TimingModel::BoundedDelay`] that assumption — and
//! with it every lockstep protocol in the registry — fails for windows of
//! 2 beats or more (the `experiments d1` grid measures exactly that
//! cliff). `bd-clock` is the §6.3 answer: a `k`-valued clock whose
//! progress is driven by round tags and thresholds instead of the beat
//! index, in the style of the expected-constant-time pulse
//! resynchronization of arXiv:2203.14016 (with the threshold-clock
//! precision framing of Khanchandani–Lenzen, arXiv:1609.09281).
//!
//! # The protocol
//!
//! The clock value *is* the current round of a `k`-slot round-tag wheel
//! (the crate-private `buffered` module). Each node:
//!
//! 1. **Promise broadcast.** On entering round `x` it broadcasts the tags
//!    `x, x+1, …, x+window−1 (mod k)`. Broadcasting `window` tags ahead
//!    is what lets a quorum be *present* the beat a round is entered even
//!    though delivery stretches over `window` beats — the synced clock
//!    ticks once per beat, exactly like the lockstep clocks. The depth is
//!    exactly `window` by design: deep enough that an aligned cluster's
//!    next-round quorum is *worst-case guaranteed* (promise sent one
//!    round early + `window − 1` beats of delay land on the tick beat),
//!    yet shallow enough that a node running one round *ahead* of the
//!    cluster is **not** guaranteed its quorum — the would-be runaway
//!    stalls on missing arrivals and the cluster absorbs it. One tag
//!    deeper and an ahead-by-one node rides guaranteed quorums in a
//!    permanently skewed orbit no rule can see.
//! 2. **Quorum tick.** When the current round's slot holds `n − f`
//!    distinct senders, tick (`clock := round + 1 mod k`). A tick needs
//!    `n − f ≥ 2f + 1` supporters, so `f` liars can neither fake one
//!    alone nor block one (the `n − f` correct tags always arrive within
//!    the window).
//! 3. **Catch-up.** The mirror image of the runaway is the straggler: a
//!    node one round *behind* keeps receiving the cluster's already-sent
//!    tags, so its quorums are guaranteed too and it would orbit at skew
//!    −1 forever. After a quorum tick, *fresh* `f + 1` support one slot
//!    beyond the node's own promise reach certifies that correct nodes
//!    are ahead; while that evidence and a full quorum for the next round
//!    are both present, the node consumes extra rounds (at most `window`
//!    per beat) and closes the gap.
//! 4. **Join by evidence.** If the round times out (`window` beats, no
//!    quorum), and a slot beyond the node's own promise reach holds fresh
//!    `f + 1` support — at least one correct node going there — jump to
//!    the farthest such slot: a node booted into garbage by a transient
//!    fault lands where the live chain is *going*, and the chain's next
//!    promises complete its quorum.
//! 5. **Coin rendezvous.** If a timed-out round has no such evidence, the
//!    node consults the per-beat common coin and resets to round 0 when
//!    the bit is 1. The coin is common, so *every* stranded node resets
//!    on the same beat — from arbitrary scatter (self-stabilization's
//!    worst case) all correct nodes land on round 0 together in
//!    expected ≈2 beats after their timeouts align, and the quorum rule
//!    takes over from there.
//!
//! Rules 2–5 are the quorum/evidence/randomization triad every
//! semi-synchronous self-stabilizing clock needs: thresholds give closure,
//! `f + 1` evidence gives skewed nodes a deterministic path home, and the
//! shared coin breaks the symmetric deadlocks a rushing adversary could
//! otherwise maintain forever.

use crate::buffered::{RoundMsg, Wheel};
use crate::clock::DigitalClock;
use crate::rand_source::RandSource;
use byzclock_sim::{Application, Envelope, NodeCfg, NodeId, Outbox, SimRng};
use rand::Rng;

/// The wire message of `bd-clock`: a bare round tag (the tag *is* the
/// vote — a node's current clock value, plus its `L − 1` promises).
pub type BdClockMsg = RoundMsg<()>;

/// A full snapshot of the mutable protocol state of a [`BdClock`] node —
/// everything the merge rules read, and nothing they don't (the
/// measurement counters are excluded). Produced by
/// [`BdClock::mc_snapshot`] and consumed by [`BdClock::mc_restore`];
/// exists so an exhaustive model checker can canonicalize, hash, and
/// re-enter states of the *real* core instead of a reimplementation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BdSnapshot {
    /// Wheel round index (the clock value).
    pub round: usize,
    /// Beats the wheel has waited in the current round.
    pub beats_waiting: u64,
    /// Wheel "fresh send due" latch.
    pub pending_send: bool,
    /// Wheel resend latch.
    pub resend: bool,
    /// Wheel latch: the node has announced since its last transient
    /// fault. It changes no traffic (a re-announcement emits the tags of
    /// a fresh one) but is part of the checked state.
    pub last_send_cached: bool,
    /// Wheel support: `(tag, sender)` pairs, in no particular order.
    pub wheel: Vec<(usize, NodeId)>,
    /// Freshness evidence: `(tag, sender, claimed send beat)` rows.
    pub evidence: Vec<(usize, NodeId, u64)>,
    /// Local beat estimate (what freshness cutoffs are measured against).
    pub beat: u64,
}

/// The bounded-delay-tolerant `k`-clock (see the module docs for the
/// protocol). Generic over message-free randomness substrates — the
/// oracle beacon or local coins; the coin is consulted once per beat, so
/// the beacon schedule stays aligned across nodes regardless of round
/// skew.
#[derive(Debug)]
pub struct BdClock<R: RandSource<Msg = ()>> {
    cfg: NodeCfg,
    k: usize,
    window: u64,
    wheel: Wheel,
    rand_source: R,
    /// `evidence[tag]` = per-sender latest *claimed send beat* (the
    /// envelope round tag) for announcements of `tag` — the
    /// freshness-filtered support the jump and catch-up rules read. The
    /// wheel keeps support for *quorums*, which must not expire;
    /// inferences about who is ahead must, and they must expire by *send*
    /// time: an old promise delivered late is stale news even though it
    /// just arrived. Correct senders stamp the tag truthfully; a lying
    /// Byzantine sender only refreshes its own entry, and every rule
    /// reading this table needs `f + 1` distinct senders.
    evidence: Vec<Vec<(NodeId, u64)>>,
    /// Local beat estimate (number of deliver calls) — measurement state
    /// for the on-time/late classification of envelope round tags, never
    /// protocol state, so transient faults leave it alone (deliver fires
    /// every beat whether or not the node was scrambled).
    beat: u64,
    timeout_events: u64,
    jumps: u64,
    catchups: u64,
    resets: u64,
    late_arrivals: u64,
}

impl<R: RandSource<Msg = ()>> BdClock<R> {
    /// Builds the clock.
    ///
    /// `k` is the clock modulus (= wheel depth), `window` the delivery
    /// window of the run's timing model (1 under lockstep).
    ///
    /// # Panics
    ///
    /// Panics if `k > 255` (tags are `u8`), `window == 0`, or
    /// `k < max(2 * window, 4)` (the promise/evidence horizon must stay
    /// under half the wheel, or ahead/behind would be ambiguous).
    pub fn new(cfg: NodeCfg, k: u64, window: u64, rand_source: R) -> Self {
        assert!(k <= 255, "bd-clock modulus must be at most 255");
        assert!(window >= 1, "delivery window must be at least 1 beat");
        assert!(
            k >= (2 * window).max(4),
            "bd-clock needs k >= max(2*window, 4) (k={k}, window={window})"
        );
        let quorum = cfg.quorum();
        BdClock {
            cfg,
            k: k as usize,
            window,
            wheel: Wheel::new(k as usize, quorum, window),
            rand_source,
            evidence: (0..k).map(|_| Vec::new()).collect(),
            beat: 0,
            timeout_events: 0,
            jumps: 0,
            catchups: 0,
            resets: 0,
            late_arrivals: 0,
        }
    }

    /// Node configuration.
    pub fn cfg(&self) -> &NodeCfg {
        &self.cfg
    }

    /// The wheel's tick/buffering counters plus this clock's own
    /// merge-rule counters, in report-extras shape.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let s = &self.wheel;
        vec![
            ("bd_quorum_ticks".to_string(), s.quorum_ticks as f64),
            ("bd_timeout_events".to_string(), self.timeout_events as f64),
            ("bd_jumps".to_string(), self.jumps as f64),
            ("bd_catchup_ticks".to_string(), self.catchups as f64),
            ("bd_resets".to_string(), self.resets as f64),
            ("bd_buffered_ahead".to_string(), s.buffered_ahead as f64),
            (
                "bd_dropped_invalid".to_string(),
                (s.dropped_garbage + s.dropped_duplicates) as f64,
            ),
            ("bd_late_arrivals".to_string(), self.late_arrivals as f64),
        ]
    }

    /// The jump target: the farthest tag in the two slots *beyond this
    /// node's own promise reach* (`window` and `window + 1` rounds
    /// ahead) holding at least `f + 1` distinct supporters. The range is
    /// the load-bearing part: a node's own promises cover up to
    /// `window - 1` rounds ahead, so any nearer slot's support is partly *self*-made —
    /// jumping on it lets two skewed camps leapfrog each other forever,
    /// each propelled by its own promises. Support past the promise
    /// horizon can only mean a chain genuinely ahead (with `f + 1`
    /// supporters, at least one of them correct); landing at its far edge
    /// lets the chain's next promises complete the joiner's quorum. A
    /// node too far from any chain relies on the coin rendezvous (and on
    /// the chain's tags wrapping back into range within one `k`-cycle).
    fn jump_target(&self) -> Option<usize> {
        let current = self.wheel.round;
        (self.window..=self.window + 1)
            .rev()
            .map(|d| (current + d as usize) % self.k)
            .find(|&tag| self.fresh_support(tag) > self.cfg.f)
    }

    /// Records that `from` announced `tag`, claiming it was sent at beat
    /// `claimed` (the envelope round tag — kept as the per-sender max).
    fn note_evidence(&mut self, from: NodeId, tag: usize, claimed: u64) {
        if tag >= self.k {
            return;
        }
        match self.evidence[tag].iter_mut().find(|(s, _)| *s == from) {
            Some(entry) => entry.1 = entry.1.max(claimed),
            None => self.evidence[tag].push((from, claimed)),
        }
    }

    // --- Model-checking hooks -------------------------------------------

    /// Model-checking hook: snapshot of every mutable variable the merge
    /// rules read (see [`BdSnapshot`]). Not part of the protocol surface.
    pub fn mc_snapshot(&self) -> BdSnapshot {
        let w = &self.wheel;
        BdSnapshot {
            round: w.round,
            beats_waiting: w.beats_waiting,
            pending_send: w.pending_send,
            resend: w.resend,
            last_send_cached: w.cached,
            wheel: w
                .seen
                .iter()
                .enumerate()
                .flat_map(|(tag, slot)| {
                    (0..slot.len() as u16)
                        .filter(|&i| slot[usize::from(i)])
                        .map(move |i| (tag, NodeId::new(i)))
                })
                .collect(),
            evidence: self
                .evidence
                .iter()
                .enumerate()
                .flat_map(|(tag, slot)| {
                    slot.iter()
                        .map(move |&(from, claimed)| (tag, from, claimed))
                })
                .collect(),
            beat: self.beat,
        }
    }

    /// Model-checking hook: restores a [`BdSnapshot`] (counters are
    /// measurement state and keep their current values).
    ///
    /// # Panics
    ///
    /// Panics if a round or tag is out of range.
    pub fn mc_restore(&mut self, s: &BdSnapshot) {
        assert!(s.round < self.k, "snapshot round out of range");
        let w = &mut self.wheel;
        w.round = s.round;
        w.beats_waiting = s.beats_waiting;
        w.pending_send = s.pending_send;
        w.resend = s.resend;
        w.cached = s.last_send_cached;
        w.clear();
        for &(tag, from) in &s.wheel {
            w.park(from, tag);
        }
        for slot in &mut self.evidence {
            slot.clear();
        }
        for &(tag, from, claimed) in &s.evidence {
            self.note_evidence(from, tag, claimed);
        }
        self.beat = s.beat;
    }

    /// Distinct senders that announced `tag` with a claimed send beat in
    /// the last `window` beats. The wheel's buffered support can be a
    /// full delivery cycle old (slots skipped by a jump are consumed much
    /// later), and acting on stale announcements is how merge rules chase
    /// ghosts — every ahead-of-me inference therefore uses announcements
    /// that are fresh *by send time*, which the envelope round tag makes
    /// legible (arrival time alone would launder a `window`-delayed old
    /// promise into fresh news).
    fn fresh_support(&self, tag: usize) -> usize {
        let cutoff = self.beat.saturating_sub(self.window);
        self.evidence[tag]
            .iter()
            .filter(|&&(_, claimed)| claimed >= cutoff)
            .count()
    }
}

impl<R: RandSource<Msg = ()>> DigitalClock for BdClock<R> {
    fn modulus(&self) -> u64 {
        self.k as u64
    }

    fn read(&self) -> Option<u64> {
        Some(self.wheel.round as u64)
    }
}

impl<R: RandSource<Msg = ()>> Application for BdClock<R> {
    type Msg = BdClockMsg;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        if self.wheel.announce() {
            // Entering (or re-announcing) round x: its own tag, then the
            // promise tags x+1 .. x+window-1.
            let x = self.wheel.round;
            for j in 0..self.window as usize {
                out.broadcast(RoundMsg {
                    round: ((x + j) % self.k) as u8,
                    msg: (),
                });
            }
        }
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        for e in inbox {
            if e.round < self.beat {
                self.late_arrivals += 1;
            }
            self.note_evidence(e.from, usize::from(e.msg.round), e.round);
            self.wheel.ingest(e.from, e.msg.round);
        }
        self.beat += 1;
        // The coin is consulted every beat — not only when needed — so all
        // correct nodes stay on the same draw index of the shared schedule.
        let rand = self.rand_source.deliver(&[], rng);

        if self.wheel.quorum_ready() {
            self.wheel.tick();
            // Catch-up rule: a plain tick is one round per beat, so a
            // straggler fed by a pack one round ahead could orbit at
            // skew 1 forever — both sides quorum-ticking at full speed,
            // the gap never closing. Support at `round + window` (one
            // slot beyond anything this node could have promised before
            // the tick) is `f+1`-certified evidence that a correct node
            // is ahead; as long as that evidence *and* a full quorum for
            // the next round are both present, consume extra rounds this
            // beat (at most `window`). An aligned cluster never shows
            // correct support that far out, so the rule is quiescent at
            // skew 0 — and requiring a real quorum for every extra round
            // means catch-up never outruns the support it rides on.
            let mut extra = 0;
            while self.window >= 2 && extra < self.window {
                let probe = (self.wheel.round + self.window as usize - 1) % self.k;
                if self.fresh_support(probe) > self.cfg.f && self.wheel.quorum_ready() {
                    self.wheel.tick();
                    self.catchups += 1;
                    extra += 1;
                } else {
                    break;
                }
            }
            return;
        }
        self.wheel.age();
        if !self.wheel.expired() {
            return;
        }
        self.timeout_events += 1;
        if let Some(target) = self.jump_target() {
            // Join the chain genuinely ahead (>= f+1 supporters beyond
            // this node's own promise reach, so at least one correct node
            // really is going there).
            self.wheel.jump(target);
            self.jumps += 1;
        } else if rand && self.wheel.round != 0 {
            // No evidence anywhere: rendezvous at round 0 on a common
            // coin beat — every stranded correct node resets *together*.
            // A node already parked at 0 stays put *without* clearing, so
            // support from stragglers keeps accumulating toward the
            // quorum that restarts the chain.
            self.wheel.jump(0);
            self.resets += 1;
        }
        // else: keep waiting; the next coin-1 beat (or fresh evidence)
        // resolves the round.
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        // The wheel (round index, timer, send latches, slots) and the coin
        // cursor are the protocol state; `beat` and the rule counters are
        // measurement state and survive (the harness, not the node, owns
        // those numbers).
        self.wheel.corrupt(rng);
        self.rand_source.corrupt(rng);
        for slot in &mut self.evidence {
            slot.clear();
        }
    }
}

/// Byzantine strategies native to the round-tag message space. The
/// `VoteMessage`-based clock adversaries have nothing to grab here (there
/// is no `Trit` vote to forge) — what a bd-clock adversary forges is the
/// tag itself.
pub mod adversary {
    use super::*;
    use byzclock_sim::{Adversary, AdversaryView, ByzOutbox};

    /// Every Byzantine node broadcasts a uniformly random round tag each
    /// beat, with a random envelope-level claimed beat — unstructured
    /// tag noise.
    #[derive(Debug, Clone, Copy)]
    pub struct RandomTagAdversary {
        /// Clock modulus (tags are drawn from `0..k`).
        pub k: u64,
    }

    impl Adversary<BdClockMsg> for RandomTagAdversary {
        fn act(
            &mut self,
            view: &AdversaryView<'_, BdClockMsg>,
            out: &mut ByzOutbox<'_, BdClockMsg>,
        ) {
            for &b in view.byzantine() {
                let tag = out.rng().random_range(0..self.k) as u8;
                let claimed = out.rng().random();
                for to in view.all_ids() {
                    out.send_tagged(
                        b,
                        to,
                        RoundMsg {
                            round: tag,
                            msg: (),
                        },
                        claimed,
                    );
                }
            }
        }
    }

    /// Tag equivocation: each Byzantine node tells every recipient a
    /// *different* round tag (recipient-indexed, shifted every beat), and
    /// spreads the copies over the delivery window — the strongest
    /// tag-lying pattern the model admits short of adaptivity.
    #[derive(Debug, Clone, Copy)]
    pub struct TagEquivocator {
        /// Clock modulus.
        pub k: u64,
    }

    impl Adversary<BdClockMsg> for TagEquivocator {
        fn act(
            &mut self,
            view: &AdversaryView<'_, BdClockMsg>,
            out: &mut ByzOutbox<'_, BdClockMsg>,
        ) {
            for (bi, &b) in view.byzantine().iter().enumerate() {
                for (i, to) in view.all_ids().enumerate() {
                    let tag = ((view.beat() + i as u64 + bi as u64) % self.k) as u8;
                    let delay = (i as u64) % view.delay_window();
                    out.send_tagged_after(
                        b,
                        to,
                        RoundMsg {
                            round: tag,
                            msg: (),
                        },
                        view.beat().wrapping_sub(i as u64),
                        delay,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::adversary::{RandomTagAdversary, TagEquivocator};
    use super::*;
    use crate::clock::{all_synced, run_until_stable_sync};
    use crate::rand_source::{LocalRand, OracleBeacon};
    use byzclock_sim::{SilentAdversary, SimBuilder, TimingModel};

    type OracleBd = BdClock<crate::rand_source::OracleRand>;

    fn bd_sim<Adv: byzclock_sim::Adversary<BdClockMsg>>(
        n: usize,
        f: usize,
        k: u64,
        delay: u64,
        seed: u64,
        adv: Adv,
    ) -> byzclock_sim::Simulation<OracleBd, Adv> {
        let beacon = OracleBeacon::perfect(seed.wrapping_mul(31).wrapping_add(9));
        let timing = if delay == 0 {
            TimingModel::Lockstep
        } else {
            TimingModel::bounded(delay)
        };
        let window = timing.window();
        SimBuilder::new(n, f)
            .seed(seed)
            .timing(timing)
            .corrupted_start(true)
            .build(
                move |cfg, _rng| BdClock::new(cfg, k, window, beacon.source(cfg.id)),
                adv,
            )
    }

    /// The headline: from corrupted starts, the bd-clock reaches stable
    /// synchronized one-tick-per-beat operation for every delivery window
    /// the lockstep protocols fail under.
    #[test]
    fn converges_for_every_window_zero_to_three() {
        for delay in 0..=3u64 {
            for seed in 0..5u64 {
                let mut sim = bd_sim(7, 2, 8, delay, seed, SilentAdversary);
                let converged = run_until_stable_sync(&mut sim, 2_000, 8);
                assert!(
                    converged.is_some(),
                    "bd-clock stalled at delay={delay}, seed={seed}"
                );
            }
        }
    }

    /// Closure: once synced, the clock ticks once per beat forever (the
    /// promise-broadcast arithmetic guarantees the quorum is present the
    /// beat each round is entered).
    #[test]
    fn synced_clock_ticks_every_beat() {
        let mut sim = bd_sim(7, 2, 8, 3, 4, SilentAdversary);
        run_until_stable_sync(&mut sim, 2_000, 8).expect("converges");
        let v0 = all_synced(sim.correct_apps().map(|(_, a)| a.read())).unwrap();
        for i in 1..=30u64 {
            sim.step();
            let v = all_synced(sim.correct_apps().map(|(_, a)| a.read()))
                .expect("closure violated under bounded delay");
            assert_eq!(v, (v0 + i) % 8, "beat {i}");
        }
    }

    /// Byzantine tag lies (random tags, equivocated tags, lying envelope
    /// beats) cannot keep the clock from converging.
    #[test]
    fn tag_lying_adversaries_do_not_stall_convergence() {
        for delay in [0u64, 2] {
            for seed in 0..3u64 {
                let mut sim = bd_sim(7, 2, 8, delay, seed, RandomTagAdversary { k: 8 });
                assert!(
                    run_until_stable_sync(&mut sim, 3_000, 8).is_some(),
                    "random tags stalled bd-clock (delay={delay}, seed={seed})"
                );
                let mut sim = bd_sim(7, 2, 8, delay, seed, TagEquivocator { k: 8 });
                assert!(
                    run_until_stable_sync(&mut sim, 3_000, 8).is_some(),
                    "tag equivocation stalled bd-clock (delay={delay}, seed={seed})"
                );
            }
        }
    }

    /// Mid-run state scrambles heal: the (jump) evidence rule pulls the
    /// corrupted minority back onto the running chain.
    #[test]
    fn recovers_after_transient_corruption() {
        use byzclock_sim::{FaultEvent, FaultKind, FaultPlan};
        let beacon = OracleBeacon::perfect(77);
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 60,
            kind: FaultKind::CorruptNodes(vec![NodeId::new(0), NodeId::new(1)]),
        }]);
        let mut sim = SimBuilder::new(7, 2)
            .seed(3)
            .timing(TimingModel::bounded(2))
            .corrupted_start(true)
            .faults(plan)
            .build(
                move |cfg, _rng| BdClock::new(cfg, 8, 2, beacon.source(cfg.id)),
                SilentAdversary,
            );
        sim.run_beats(61);
        let healed = run_until_stable_sync(&mut sim, 1_000, 8);
        assert!(healed.is_some(), "no recovery after mid-run corruption");
    }

    /// The local-coin variant also converges (slower — resets are no
    /// longer simultaneous, the Dolev–Welch regime), for small clusters.
    #[test]
    fn local_coin_variant_converges_small_n() {
        let mut sim = SimBuilder::new(4, 1)
            .seed(11)
            .timing(TimingModel::bounded(2))
            .corrupted_start(true)
            .build(
                |cfg, _rng| BdClock::new(cfg, 8, 2, LocalRand),
                SilentAdversary,
            );
        assert!(run_until_stable_sync(&mut sim, 20_000, 8).is_some());
    }

    #[test]
    fn metrics_cover_the_advancement_split() {
        let mut sim = bd_sim(7, 2, 8, 2, 1, SilentAdversary);
        run_until_stable_sync(&mut sim, 2_000, 8).expect("converges");
        let (_, app) = sim.correct_apps().next().unwrap();
        let metrics = app.metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("bd_quorum_ticks") > 0.0, "{metrics:?}");
        assert!(
            get("bd_quorum_ticks") >= get("bd_resets"),
            "steady progress must be quorum-driven: {metrics:?}"
        );
    }

    #[test]
    #[should_panic(expected = "k >= max(2*window, 4)")]
    fn narrow_modulus_rejected() {
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let _ = BdClock::new(cfg, 4, 3, LocalRand);
    }
}
