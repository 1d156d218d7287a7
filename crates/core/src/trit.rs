//! The three-valued clock domain `{0, 1, ⊥}` and the quorum-majority rule.

use byzclock_sim::{NodeId, SimRng, Wire, WireFormat, WireReader, WireWriter};
use rand::Rng;

/// A 2-clock value: `0`, `1`, or the undecided marker `⊥` ("Bot").
///
/// This is the `u.clock ∈ {0,1,?}` domain of `ss-Byz-2-Clock` (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trit {
    /// Clock value 0.
    Zero,
    /// Clock value 1.
    One,
    /// Undecided (`?` in the paper).
    Bot,
}

impl Trit {
    /// Converts a boolean bit into a definite clock value.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// The definite value as a bit, or `None` for `⊥`.
    pub fn bit(&self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::Bot => None,
        }
    }

    /// The paper's `1 - maj` flip for definite values; `⊥` stays `⊥`.
    pub fn flipped(&self) -> Self {
        match self {
            Trit::Zero => Trit::One,
            Trit::One => Trit::Zero,
            Trit::Bot => Trit::Bot,
        }
    }

    /// A uniformly random element of `{0, 1, ⊥}` (for transient-fault
    /// state scrambling).
    pub fn arbitrary(rng: &mut SimRng) -> Self {
        match rng.random_range(0..3u8) {
            0 => Trit::Zero,
            1 => Trit::One,
            _ => Trit::Bot,
        }
    }
}

impl Wire for Trit {
    #[inline]
    fn encode(&self, _format: WireFormat, w: &mut WireWriter<'_>) {
        w.put_u8(match self {
            Trit::Zero => 0,
            Trit::One => 1,
            Trit::Bot => 2,
        });
    }

    fn decode(_format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(Trit::Zero),
            1 => Some(Trit::One),
            2 => Some(Trit::Bot),
            _ => None,
        }
    }
}

/// Result of the majority count of Fig. 2 lines 3–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityCount {
    /// The value that appeared the most (`maj`); ties break to 0, which is
    /// harmless because ties cannot reach the `n - f` threshold that lines
    /// 5–6 require (Observation 3.1).
    pub maj: bool,
    /// How many times `maj` appeared (`#maj`).
    pub count: usize,
}

impl MajorityCount {
    fn of(zeros: usize, ones: usize) -> Self {
        MajorityCount {
            maj: ones > zeros,
            count: zeros.max(ones),
        }
    }
}

/// One beat's clock votes, counted in one streaming pass over the inbox:
/// the first vote per sender, split into zeros, ones and `⊥`.
///
/// Inboxes arrive sorted by sender, so a Byzantine double-send is adjacent
/// to its first vote and [`Tally::add`] drops it. `rand` is folded in only
/// after the coin has answered ([`Tally::with_rand`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Definite `0` votes.
    pub zeros: usize,
    /// Definite `1` votes.
    pub ones: usize,
    /// `⊥` votes.
    pub bots: usize,
    last: Option<NodeId>,
}

impl Tally {
    /// Counts `vote` unless `from` also sent the previous vote added — in
    /// a sender-sorted stream, unless `from` already voted (first wins).
    pub fn add(&mut self, from: NodeId, vote: Trit) {
        if first_of_sender(&mut self.last, from) {
            self.count(vote);
        }
    }

    /// Counts `vote` with no sender check — for callers whose votes are
    /// already one per sender, or that model a protocol without the check.
    pub fn count(&mut self, vote: Trit) {
        match vote {
            Trit::Zero => self.zeros += 1,
            Trit::One => self.ones += 1,
            Trit::Bot => self.bots += 1,
        }
    }

    /// `maj`/`#maj` with `rand` substituted for every `⊥` vote (Fig. 2
    /// lines 3–4).
    pub fn with_rand(&self, rand: bool) -> MajorityCount {
        if rand {
            MajorityCount::of(self.zeros, self.ones + self.bots)
        } else {
            MajorityCount::of(self.zeros + self.bots, self.ones)
        }
    }

    /// `maj`/`#maj` over the definite votes only (`⊥` counts for neither
    /// side) — the broken Remark 3.1 variant, whose senders substitute
    /// before broadcasting.
    pub fn literal(&self) -> MajorityCount {
        MajorityCount::of(self.zeros, self.ones)
    }
}

impl FromIterator<(NodeId, Trit)> for Tally {
    /// Tallies a sender-sorted vote stream, first vote per sender.
    fn from_iter<I: IntoIterator<Item = (NodeId, Trit)>>(votes: I) -> Self {
        let mut tally = Tally::default();
        for (from, vote) in votes {
            tally.add(from, vote);
        }
        tally
    }
}

/// Whether `from` starts a new sender in a sender-sorted stream whose
/// previous sender is `last` (updated): the first-message-per-sender rule
/// every vote and receipt list of the clock stack applies.
pub(crate) fn first_of_sender(last: &mut Option<NodeId>, from: NodeId) -> bool {
    last.replace(from) != Some(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn tally(votes: &[(NodeId, Trit)]) -> Tally {
        votes.iter().copied().collect()
    }

    #[test]
    fn flip_and_bit_round_trip() {
        assert_eq!(Trit::Zero.flipped(), Trit::One);
        assert_eq!(Trit::One.flipped(), Trit::Zero);
        assert_eq!(Trit::Bot.flipped(), Trit::Bot);
        assert_eq!(Trit::from_bit(true).bit(), Some(true));
        assert_eq!(Trit::from_bit(false).bit(), Some(false));
        assert_eq!(Trit::Bot.bit(), None);
    }

    #[test]
    fn majority_substitutes_rand_for_bot() {
        let votes = tally(&[(id(0), Trit::Zero), (id(1), Trit::Bot), (id(2), Trit::Bot)]);
        assert_eq!(
            votes.with_rand(false),
            MajorityCount {
                maj: false,
                count: 3
            }
        );
        assert_eq!(
            votes.with_rand(true),
            MajorityCount {
                maj: true,
                count: 2
            }
        );
    }

    #[test]
    fn majority_tie_breaks_to_zero() {
        let m = tally(&[(id(0), Trit::Zero), (id(1), Trit::One)]).with_rand(false);
        assert!(!m.maj);
        assert_eq!(m.count, 1);
    }

    #[test]
    fn literal_majority_ignores_bot() {
        let votes = tally(&[(id(0), Trit::Bot), (id(1), Trit::Bot), (id(2), Trit::One)]);
        assert_eq!(
            votes.literal(),
            MajorityCount {
                maj: true,
                count: 1
            }
        );
    }

    #[test]
    fn dedup_keeps_first_per_sender() {
        let votes = tally(&[
            (id(0), Trit::Zero),
            (id(1), Trit::One),
            (id(1), Trit::Zero), // duplicate: ignored
            (id(2), Trit::Bot),
        ]);
        assert_eq!((votes.zeros, votes.ones, votes.bots), (1, 1, 1));
        // `count` is the unchecked seam: a second vote of the same sender
        // counts there.
        let mut unchecked = votes;
        unchecked.count(Trit::Zero);
        assert_eq!(unchecked.zeros, 2);
    }

    /// Observation 3.1, executable: two vote vectors that differ in at most
    /// `f` entries (n > 3f) cannot certify different values at the `n - f`
    /// threshold.
    #[test]
    fn observation_3_1_quorum_uniqueness_exhaustive_small() {
        let n = 4usize;
        let f = 1usize;
        // All assignments of {0,1} votes to n nodes, adversary flips <= f
        // entries between the two views.
        for base in 0..(1u32 << n) {
            for flip_idx in 0..n {
                let votes_a: Vec<(NodeId, Trit)> = (0..n)
                    .map(|i| (id(i as u16), Trit::from_bit(base >> i & 1 == 1)))
                    .collect();
                let mut votes_b = votes_a.clone();
                votes_b[flip_idx].1 = votes_b[flip_idx].1.flipped();
                let ma = tally(&votes_a).with_rand(false);
                let mb = tally(&votes_b).with_rand(false);
                if ma.count >= n - f && mb.count >= n - f {
                    assert_eq!(ma.maj, mb.maj, "base={base:b} flip={flip_idx}");
                }
            }
        }
    }

    proptest! {
        /// Observation 3.1 at property scale: random vote vectors over
        /// random (n, f) with n > 3f; views differ in at most f entries.
        #[test]
        fn observation_3_1_quorum_uniqueness(
            f in 1usize..5,
            extra in 0usize..4,
            seed_votes in proptest::collection::vec(0u8..3, 40),
            flips in proptest::collection::vec((0usize..40, 0u8..3), 0..5),
        ) {
            let n = 3 * f + 1 + extra;
            let votes_a: Vec<(NodeId, Trit)> = (0..n)
                .map(|i| {
                    let v = match seed_votes[i % seed_votes.len()] {
                        0 => Trit::Zero,
                        1 => Trit::One,
                        _ => Trit::Bot,
                    };
                    (id(i as u16), v)
                })
                .collect();
            let mut votes_b = votes_a.clone();
            for &(pos, val) in flips.iter().take(f) {
                let v = match val { 0 => Trit::Zero, 1 => Trit::One, _ => Trit::Bot };
                votes_b[pos % n].1 = v;
            }
            // Both views substitute the same rand (safe beat).
            for rand in [false, true] {
                let ma = tally(&votes_a).with_rand(rand);
                let mb = tally(&votes_b).with_rand(rand);
                if ma.count >= n - f && mb.count >= n - f {
                    prop_assert_eq!(ma.maj, mb.maj);
                }
            }
        }

        #[test]
        fn majority_count_is_bounded(votes in proptest::collection::vec((0u16..40, 0u8..3), 0..40), rand in any::<bool>()) {
            let mut votes: Vec<(NodeId, Trit)> = votes
                .into_iter()
                .map(|(i, v)| (id(i), match v { 0 => Trit::Zero, 1 => Trit::One, _ => Trit::Bot }))
                .collect();
            votes.sort_by_key(|&(from, _)| from);
            let votes = tally(&votes);
            let counted = votes.zeros + votes.ones + votes.bots;
            let m = votes.with_rand(rand);
            prop_assert!(m.count <= counted);
            // maj got at least half of the (substituted) votes.
            prop_assert!(2 * m.count >= counted);
        }
    }
}
