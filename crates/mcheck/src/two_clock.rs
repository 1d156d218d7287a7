//! Small-model of `ss-Byz-2-Clock` (Fig. 2), driven through the real
//! [`TwoClock`] core.
//!
//! # Canonical state
//!
//! The joint state is the sorted multiset of the correct nodes' clock
//! trits. Sorting is a sound symmetry reduction: the protocol has no
//! id-dependent behavior (quorum counting and first-wins dedup are
//! permutation-equivariant) and the checker enumerates the Byzantine
//! letter for *every* recipient, so node orbits collapse.
//!
//! # Byzantine alphabet
//!
//! Per correct recipient and Byzantine sender, one of: silence, a vote of
//! each trit, or a *duplicate pair* (two envelopes from the same sender in
//! one beat). The duplicate letter is the interesting one: the honest
//! stack's first-wins vote tally ([`Tally::add`]) must make it equivalent to
//! its first vote. The alphabet is covering because the only protocol
//! input is the per-sender post-dedup vote — every wire behavior collapses
//! onto one of these letters.
//!
//! # The broken variant
//!
//! [`TwoClockModel::broken`] bypasses the dedup seam: it counts every vote
//! with [`Tally::count`], the duplicate-sender slot included, and hands
//! that tally straight to [`TwoClockCore::apply`] — the
//! "duplicate sender accepted" bug this repo once fixed. The checker is
//! expected to produce a minimal counterexample against it (see the
//! canary test), which is the evidence that the seam is load-bearing.

use byzclock_core::{FixedRand, Tally, Trit, TwoClock, TwoClockCore, TwoClockMsg};
use byzclock_sim::{NodeCfg, NodeId, SimRng};
use rand::SeedableRng;

use crate::engine::{Choice, Model};

/// What one Byzantine sender puts on the wire to one recipient in one
/// beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzLetter {
    /// No message.
    Silent,
    /// A single clock vote.
    Vote(Trit),
    /// Two clock votes from the same sender (first-wins dedup must keep
    /// the first; the broken core counts both).
    Dup(Trit, Trit),
}

impl ByzLetter {
    fn label(&self) -> String {
        match self {
            ByzLetter::Silent => "-".into(),
            ByzLetter::Vote(t) => format!("V{t:?}"),
            ByzLetter::Dup(a, b) => format!("Dup({a:?},{b:?})"),
        }
    }
}

/// The per-(recipient, sender) alphabet enumerated by [`Model::choices`].
/// Covering: after the protocol's first-wins dedup the only input a
/// Byzantine sender controls is one post-dedup vote (or silence), and
/// every dup letter is included to certify the dedup seam itself — under
/// the honest stack `Dup(a, b) ≡ Vote(a)`, while a dedup-less core counts
/// both copies (`Dup(1,1)` is the double-vote that breaks quorums).
pub const LETTERS: [ByzLetter; 7] = [
    ByzLetter::Silent,
    ByzLetter::Vote(Trit::Zero),
    ByzLetter::Vote(Trit::One),
    ByzLetter::Vote(Trit::Bot),
    ByzLetter::Dup(Trit::One, Trit::Zero),
    ByzLetter::Dup(Trit::Zero, Trit::Zero),
    ByzLetter::Dup(Trit::One, Trit::One),
];

/// The trit's rank in a packed state: 0, 1, ⊥ ↦ 0, 1, 2.
pub(crate) fn trit_rank(t: Trit) -> u8 {
    match t {
        Trit::Zero => 0,
        Trit::One => 1,
        Trit::Bot => 2,
    }
}

/// Inverse of [`trit_rank`].
pub(crate) fn trit_unrank(r: u8) -> Trit {
    match r {
        0 => Trit::Zero,
        1 => Trit::One,
        _ => Trit::Bot,
    }
}

/// Exhaustive model of the 2-clock at small `(n, f)`.
#[derive(Debug, Clone)]
pub struct TwoClockModel {
    n: usize,
    f: usize,
    broken: bool,
    bound: u32,
}

impl TwoClockModel {
    /// The honest protocol (votes travel as envelopes through the real
    /// dedup seam).
    pub fn honest(n: usize, f: usize) -> Self {
        TwoClockModel {
            n,
            f,
            broken: false,
            bound: 3,
        }
    }

    /// The seeded-bug variant: duplicate-sender slots reach the counting
    /// core.
    pub fn broken(n: usize, f: usize) -> Self {
        TwoClockModel {
            broken: true,
            ..TwoClockModel::honest(n, f)
        }
    }

    /// Overrides the claimed convergence bound (beats).
    pub fn with_bound(mut self, bound: u32) -> Self {
        self.bound = bound;
        self
    }

    fn correct(&self) -> usize {
        self.n - self.f
    }

    /// One lockstep beat of the whole system, through the real cores.
    ///
    /// `state[i]` is correct node `i`'s clock, `letters[i]` the Byzantine
    /// letters addressed to it (one per Byzantine sender, ids
    /// `n-f..n`), `bits[i]` its coin draw this beat. Public so the
    /// lemma suite can *sample* larger parameters (e.g. `n=7, f=2`) that
    /// the exhaustive menu does not enumerate.
    pub fn step_joint(
        &self,
        state: &[Trit],
        letters: &[Vec<ByzLetter>],
        bits: &[bool],
    ) -> Vec<Trit> {
        let c = self.correct();
        assert_eq!(state.len(), c);
        assert_eq!(letters.len(), c);
        assert_eq!(bits.len(), c);
        let mut rng = SimRng::seed_from_u64(0);
        (0..c)
            .map(|i| {
                if self.broken {
                    self.step_node_broken(state, &letters[i], bits[i], i)
                } else {
                    self.step_node_honest(state, &letters[i], bits[i], i, &mut rng)
                }
            })
            .collect()
    }

    fn step_node_honest(
        &self,
        state: &[Trit],
        letters: &[ByzLetter],
        bit: bool,
        i: usize,
        rng: &mut SimRng,
    ) -> Trit {
        let me = NodeId::new(i as u16);
        let mut inbox: Vec<(NodeId, TwoClockMsg<()>)> = state
            .iter()
            .enumerate()
            .map(|(j, &t)| (NodeId::new(j as u16), TwoClockMsg::Clock(t)))
            .collect();
        for (b, letter) in letters.iter().enumerate() {
            let byz = NodeId::new((self.correct() + b) as u16);
            match *letter {
                ByzLetter::Silent => {}
                ByzLetter::Vote(t) => inbox.push((byz, TwoClockMsg::Clock(t))),
                ByzLetter::Dup(a, b2) => {
                    inbox.push((byz, TwoClockMsg::Clock(a)));
                    inbox.push((byz, TwoClockMsg::Clock(b2)));
                }
            }
        }
        let handle = FixedRand::new();
        handle.set(bit);
        let mut node = TwoClock::new(NodeCfg::new(me, self.n, self.f), handle.clone());
        node.set_clock(state[i]);
        node.step_deliver(inbox.iter().map(|(from, m)| (*from, m)), rng);
        node.clock()
    }

    fn step_node_broken(&self, state: &[Trit], letters: &[ByzLetter], bit: bool, i: usize) -> Trit {
        let me = NodeId::new(i as u16);
        let mut votes = Tally::default();
        for &t in state {
            votes.count(t);
        }
        for letter in letters {
            match *letter {
                ByzLetter::Silent => {}
                ByzLetter::Vote(t) => votes.count(t),
                // The bug under test: the duplicate-sender slot is
                // accepted, so one Byzantine node votes twice.
                ByzLetter::Dup(a, b2) => {
                    votes.count(a);
                    votes.count(b2);
                }
            }
        }
        let mut core = TwoClockCore::new(NodeCfg::new(me, self.n, self.f));
        core.set_clock(state[i]);
        core.apply(&votes, bit);
        core.clock()
    }

    fn canon(&self, clocks: &[Trit]) -> Vec<u8> {
        let mut v: Vec<u8> = clocks.iter().map(|&t| trit_rank(t)).collect();
        v.sort_unstable();
        v
    }

    fn trits(&self, state: &[u8]) -> Vec<Trit> {
        state.iter().map(|&r| trit_unrank(r)).collect()
    }
}

impl Model for TwoClockModel {
    type State = Vec<u8>;

    fn name(&self) -> String {
        if self.broken {
            format!("two-clock-broken n={} f={}", self.n, self.f)
        } else {
            format!("two-clock n={} f={}", self.n, self.f)
        }
    }

    fn initial_states(&self) -> Vec<Vec<u8>> {
        // Every sorted multiset over {0, 1, ⊥}: transient faults can leave
        // the correct nodes in any joint assignment.
        let c = self.correct();
        let mut out = Vec::new();
        let mut cur = vec![0u8; c];
        loop {
            out.push(cur.clone());
            // next non-decreasing vector over 0..=2
            let mut i = c;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if cur[i] < 2 {
                    cur[i] += 1;
                    let v = cur[i];
                    for x in cur[i + 1..].iter_mut() {
                        *x = v;
                    }
                    break;
                }
            }
        }
    }

    fn choices(&self, state: &Vec<u8>) -> Vec<Choice<Vec<u8>>> {
        let c = self.correct();
        let slots = c * self.f;
        let clocks = self.trits(state);
        let mut out = Vec::new();
        // Every assignment of a letter to each (recipient, byz sender)
        // slot: LETTERS.len()^slots choices.
        let mut pick = vec![0usize; slots];
        loop {
            let letters: Vec<Vec<ByzLetter>> = (0..c)
                .map(|i| (0..self.f).map(|b| LETTERS[pick[i * self.f + b]]).collect())
                .collect();
            let label = (0..c)
                .map(|i| {
                    let ls: Vec<String> = letters[i].iter().map(|l| l.label()).collect();
                    format!("n{i}:{}", ls.join("+"))
                })
                .collect::<Vec<_>>()
                .join(" ");
            let common = vec![
                self.canon(&self.step_joint(&clocks, &letters, &vec![false; c])),
                self.canon(&self.step_joint(&clocks, &letters, &vec![true; c])),
            ];
            let mut adversarial = Vec::new();
            for bits in 1..(1u32 << c) - 1 {
                let bv: Vec<bool> = (0..c).map(|i| bits & (1 << i) != 0).collect();
                adversarial.push(self.canon(&self.step_joint(&clocks, &letters, &bv)));
            }
            out.push(Choice {
                label,
                common,
                adversarial,
            });
            // next assignment
            let mut i = slots;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                pick[i] += 1;
                if pick[i] < LETTERS.len() {
                    break;
                }
                pick[i] = 0;
            }
        }
    }

    fn is_synced(&self, state: &Vec<u8>) -> bool {
        state.iter().all(|&r| r == state[0]) && state[0] != trit_rank(Trit::Bot)
    }

    fn bound_beats(&self) -> u32 {
        self.bound
    }

    fn describe(&self, state: &Vec<u8>) -> String {
        let parts: Vec<String> = state
            .iter()
            .map(|&r| format!("{:?}", trit_unrank(r)))
            .collect();
        format!("[{}]", parts.join(","))
    }

    fn synced_progress(&self, from: &Vec<u8>, to: &Vec<u8>) -> bool {
        // A synced 2-clock alternates: all-0 -> all-1 -> all-0 -> …
        let next = trit_rank(trit_unrank(from[0]).flipped());
        to.iter().all(|&r| r == next)
    }
}
