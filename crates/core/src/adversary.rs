//! Clock-layer Byzantine strategies.
//!
//! The model's adversary is adaptive, rushing, and may equivocate. These
//! strategies attack the *vote* messages of the clock layer (the coin layer
//! has its own attackers in `byzclock-coin`). They are generic over any
//! protocol whose messages expose clock votes via [`VoteMessage`].

use crate::rand_source::{OracleBeacon, OracleDraw};
use crate::trit::{Tally, Trit};
use byzclock_sim::{Adversary, AdversaryView, ByzOutbox, NodeId};

/// A message type whose clock-vote content adversaries can read and forge.
pub trait VoteMessage: Clone + std::fmt::Debug {
    /// If this message carries a clock vote, its value.
    fn vote(&self) -> Option<Trit>;

    /// Builds the vote message appropriate for exchange `phase`, or `None`
    /// if that phase carries no votes for this protocol.
    fn make_vote(phase: usize, value: Trit) -> Option<Self>;
}

impl<M: Clone + std::fmt::Debug> VoteMessage for crate::two_clock::TwoClockMsg<M> {
    fn vote(&self) -> Option<Trit> {
        match self {
            crate::two_clock::TwoClockMsg::Clock(t) => Some(*t),
            crate::two_clock::TwoClockMsg::Coin(_) => None,
        }
    }

    fn make_vote(phase: usize, value: Trit) -> Option<Self> {
        (phase == 0).then_some(crate::two_clock::TwoClockMsg::Clock(value))
    }
}

impl<M: Clone + std::fmt::Debug> VoteMessage for crate::four_clock::FourClockMsg<M> {
    fn vote(&self) -> Option<Trit> {
        match self {
            crate::four_clock::FourClockMsg::A1(m) | crate::four_clock::FourClockMsg::A2(m) => {
                m.vote()
            }
        }
    }

    fn make_vote(phase: usize, value: Trit) -> Option<Self> {
        match phase {
            0 => Some(crate::four_clock::FourClockMsg::A1(
                crate::two_clock::TwoClockMsg::Clock(value),
            )),
            1 => Some(crate::four_clock::FourClockMsg::A2(
                crate::two_clock::TwoClockMsg::Clock(value),
            )),
            _ => None,
        }
    }
}

impl<M: Clone + std::fmt::Debug> VoteMessage for crate::four_clock::SharedFourClockMsg<M> {
    fn vote(&self) -> Option<Trit> {
        match self {
            crate::four_clock::SharedFourClockMsg::A1Vote(t)
            | crate::four_clock::SharedFourClockMsg::A2Vote(t) => Some(*t),
            crate::four_clock::SharedFourClockMsg::Coin(_) => None,
        }
    }

    fn make_vote(phase: usize, value: Trit) -> Option<Self> {
        match phase {
            0 => Some(crate::four_clock::SharedFourClockMsg::A1Vote(value)),
            1 => Some(crate::four_clock::SharedFourClockMsg::A2Vote(value)),
            _ => None,
        }
    }
}

impl<M: Clone + std::fmt::Debug> VoteMessage for crate::clock_sync::ClockSyncMsg<M> {
    fn vote(&self) -> Option<Trit> {
        match self {
            crate::clock_sync::ClockSyncMsg::Four(m) => m.vote(),
            _ => None,
        }
    }

    fn make_vote(phase: usize, value: Trit) -> Option<Self> {
        crate::four_clock::FourClockMsg::make_vote(phase, value)
            .map(crate::clock_sync::ClockSyncMsg::Four)
    }
}

impl<M: Clone + std::fmt::Debug> VoteMessage for crate::recursive::LevelMsg<M> {
    fn vote(&self) -> Option<Trit> {
        self.msg.vote()
    }

    fn make_vote(phase: usize, value: Trit) -> Option<Self> {
        (phase <= u8::MAX as usize).then_some(crate::recursive::LevelMsg {
            level: phase as u8,
            msg: crate::two_clock::TwoClockMsg::Clock(value),
        })
    }
}

/// Reads the correct nodes' votes this phase: one vote per correct sender,
/// as observed at the first Byzantine node (everything a correct node
/// votes is broadcast, so this is exactly the public tally). `None` when
/// there is nothing to game (no observer, or no votes in this phase).
fn observed_votes<M: VoteMessage>(view: &AdversaryView<'_, M>) -> Option<Tally> {
    let &observer = view.byzantine().first()?;
    let mut votes: Vec<(NodeId, Trit)> = view
        .visible_to(observer)
        .filter_map(|e| e.msg.vote().map(|t| (e.from, t)))
        .collect();
    votes.sort_by_key(|&(from, _)| from);
    (!votes.is_empty()).then(|| votes.into_iter().collect())
}

/// Every Byzantine node broadcasts an independent uniformly random vote in
/// every vote-carrying phase — the "noise" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomVoteAdversary;

impl<M: VoteMessage> Adversary<M> for RandomVoteAdversary {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>) {
        for &b in view.byzantine() {
            let value = Trit::arbitrary(out.rng());
            if let Some(msg) = M::make_vote(view.phase(), value) {
                out.broadcast(b, msg);
            }
        }
    }
}

/// Byzantine nodes tell even-id recipients `0` and odd-id recipients `1` —
/// the classic equivocation that keeps naive vote counts inconsistent.
#[derive(Debug, Clone, Copy, Default)]
pub struct EquivocatingAdversary;

impl<M: VoteMessage> Adversary<M> for EquivocatingAdversary {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>) {
        for &b in view.byzantine() {
            for to in view.all_ids() {
                let value = if to.raw() % 2 == 0 {
                    Trit::Zero
                } else {
                    Trit::One
                };
                if let Some(msg) = M::make_vote(view.phase(), value) {
                    out.send(b, to, msg);
                }
            }
        }
    }
}

/// The threshold-gaming splitter: reads the public tally (rushing) and
/// plays each recipient differently — pushing half of them *over* the
/// `n − f` threshold for the current majority value while starving the
/// other half — the natural strategy for keeping end-states mixed
/// (`{v, ⊥}`), which is exactly the case Lemma 4's coin has to break.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitVoteAdversary;

impl<M: VoteMessage> Adversary<M> for SplitVoteAdversary {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>) {
        let Some(Tally { zeros, ones, .. }) = observed_votes(view) else {
            // Nothing to game in this phase (e.g. gated sub-clock idle).
            return;
        };
        let maj = if zeros >= ones { Trit::Zero } else { Trit::One };
        for &b in view.byzantine() {
            for (idx, to) in view.all_ids().enumerate() {
                let value = if idx % 2 == 0 { maj } else { maj.flipped() };
                if let Some(msg) = M::make_vote(view.phase(), value) {
                    out.send(b, to, msg);
                }
            }
        }
    }
}

/// The Remark 3.1 attacker: equipped with *rushing knowledge of the coin*
/// (an [`OracleBeacon`] handle — the moral equivalent of watching the
/// recover-round shares), it steers the broken 2-clock so that next beat's
/// sender-side substitution recreates a split.
///
/// Against [`crate::BrokenTwoClock`] this stalls convergence almost
/// indefinitely; against the correct [`crate::TwoClock`] the same
/// knowledge is useless (Lemma 4 only needs the coin to be independent of
/// the *previous* beat's values) — experiment A1 is this contrast.
#[derive(Debug, Clone)]
pub struct RandAwareSplitter {
    beacon: OracleBeacon,
}

impl RandAwareSplitter {
    /// Builds the attacker around the beacon the nodes use.
    pub fn new(beacon: OracleBeacon) -> Self {
        RandAwareSplitter { beacon }
    }

    /// The bit correct nodes will substitute *next* beat (the one revealed
    /// this beat — public under rushing).
    fn upcoming_bit(&self, beat: u64) -> bool {
        match self.beacon.peek(beat as usize) {
            OracleDraw::Common(b) => b,
            OracleDraw::Split => false,
        }
    }
}

impl<M: VoteMessage> Adversary<M> for RandAwareSplitter {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>) {
        let Some(Tally { zeros, ones, .. }) = observed_votes(view) else {
            return;
        };
        let f = view.f();
        let quorum = view.n() - f;
        // `w` is the bit ⊥-holders will substitute into *next* beat's
        // votes. In the broken protocol it is public now (rushing on the
        // coin's recover traffic) while the camps that vote next beat only
        // form at the end of this beat — the one-beat head start Remark
        // 3.1 warns about.
        let w = Trit::from_bit(self.upcoming_bit(view.beat()));
        let w_count = if w == Trit::Zero { zeros } else { ones };
        let correct: Vec<NodeId> = view
            .all_ids()
            .filter(|&id| !view.is_byzantine(id))
            .collect();
        // Per-recipient plan. Crossing a recipient = our f extra `w` votes
        // lift its w-tally to the quorum, so it flips to clock = ¬w;
        // starving = our votes land on ¬w, keeping both tallies short of
        // the quorum (safe: w_count ≥ quorum − f forces ¬w_count ≤ f, and
        // 2f < n − f), so the recipient resets to ⊥ and substitutes `w`
        // next beat. Splitting the correct camp roughly in half therefore
        // *guarantees* a {¬w, w} vote base next beat. Only when crossing
        // on `w` is impossible (w_count + f < quorum) — or unavoidable
        // (w_count ≥ quorum by correct votes alone) — does the knowledge
        // run out: then vote `w` everywhere, which lifts no tally to the
        // quorum, maximizing ⊥ end-states and buying one more unsynced
        // beat before the forced unanimous flip.
        let crossable = w_count + f >= quorum && w_count < quorum;
        let cross = if crossable { correct.len() / 2 } else { 0 };
        for (bi, &b) in view.byzantine().iter().enumerate() {
            for (idx, &to) in correct.iter().enumerate() {
                let value = if crossable && idx < cross {
                    w
                } else if crossable {
                    w.flipped()
                } else {
                    w
                };
                if let Some(msg) = M::make_vote(view.phase(), value) {
                    out.send(b, to, msg.clone());
                    // Under bounded delay the rushing window is real: the
                    // straggling correct votes may concentrate in any beat
                    // of the window, so the first Byzantine node blankets
                    // the whole window with this plan — its padding is
                    // co-present with the correct `w` votes wherever they
                    // land, while the remaining Byzantine nodes keep
                    // rushing fresh plans every beat.
                    if bi == 0 {
                        for j in 1..view.delay_window() {
                            out.send_after(b, to, msg.clone(), j);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::all_synced;
    use crate::rand_source::OracleRand;
    use crate::two_clock::TwoClock;
    use crate::DigitalClock;
    use byzclock_sim::SimBuilder;

    fn converge_beats<A>(
        mut sim: byzclock_sim::Simulation<A, impl Adversary<A::Msg>>,
    ) -> Option<u64>
    where
        A: byzclock_sim::Application + DigitalClock,
    {
        sim.run_until(4000, |s| {
            all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
        })
    }

    fn two_clock_sim<Adv: Adversary<crate::two_clock::TwoClockMsg<()>>>(
        seed: u64,
        adv: Adv,
    ) -> byzclock_sim::Simulation<TwoClock<OracleRand>, Adv> {
        let beacon = OracleBeacon::perfect(seed.wrapping_add(500));
        SimBuilder::new(7, 2).seed(seed).build(
            move |cfg, _rng| TwoClock::new(cfg, beacon.source(cfg.id)),
            adv,
        )
    }

    /// Theorem 2 holds against every implemented adversary: the correct
    /// 2-clock converges despite noise, equivocation, and splitting.
    #[test]
    fn two_clock_survives_all_adversaries() {
        for seed in 0..5u64 {
            assert!(
                converge_beats(two_clock_sim(seed, RandomVoteAdversary)).is_some(),
                "random votes stalled the clock (seed {seed})"
            );
            assert!(
                converge_beats(two_clock_sim(seed, EquivocatingAdversary)).is_some(),
                "equivocation stalled the clock (seed {seed})"
            );
            assert!(
                converge_beats(two_clock_sim(seed, SplitVoteAdversary)).is_some(),
                "splitting stalled the clock (seed {seed})"
            );
        }
    }

    /// Even rushing knowledge of the coin does not help against the
    /// *correct* protocol (the Remark 3.1 independence argument).
    #[test]
    fn rand_aware_splitter_cannot_stall_correct_two_clock() {
        for seed in 0..5u64 {
            let beacon = OracleBeacon::perfect(seed.wrapping_add(500));
            let nodes_beacon = beacon.clone();
            let sim = SimBuilder::new(7, 2).seed(seed).build(
                move |cfg, _rng| TwoClock::new(cfg, nodes_beacon.source(cfg.id)),
                RandAwareSplitter::new(beacon),
            );
            assert!(
                converge_beats(sim).is_some(),
                "rand-aware splitter stalled the CORRECT clock (seed {seed})"
            );
        }
    }

    #[test]
    fn vote_message_round_trips() {
        use crate::clock_sync::ClockSyncMsg;
        use crate::four_clock::FourClockMsg;
        use crate::two_clock::TwoClockMsg;
        let m = <TwoClockMsg<()>>::make_vote(0, Trit::One).unwrap();
        assert_eq!(m.vote(), Some(Trit::One));
        assert!(<TwoClockMsg<()>>::make_vote(1, Trit::One).is_none());
        let m = <FourClockMsg<()>>::make_vote(1, Trit::Bot).unwrap();
        assert_eq!(m.vote(), Some(Trit::Bot));
        let m = <ClockSyncMsg<()>>::make_vote(0, Trit::Zero).unwrap();
        assert_eq!(m.vote(), Some(Trit::Zero));
        assert!(<ClockSyncMsg<()>>::make_vote(2, Trit::Zero).is_none());
    }
}
