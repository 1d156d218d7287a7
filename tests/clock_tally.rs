//! The clock stack's one-pass inbox reading, checked against the
//! pipeline it replaced.
//!
//! Every layer of the clock stack reads its sender-sorted inbox in one
//! borrowed pass: the 2-clocks tally their votes as they stream past
//! (`Tally`, first vote per sender), and `ClockSync` refills its block
//! receipts (first `Full`, `Propose` and `BitVote` per sender) in the same
//! pass that collects its coin's sub-inbox. The reference here is the form
//! that pass replaced, kept only as a test oracle: `dedup_by_sender` over
//! one filtered copy per message kind, then `majority_with_rand` /
//! `majority_literal` over the votes, and the counting `compute_propose` /
//! `compute_save_bit` over the receipts.
//!
//! The inboxes are random and sorted by sender, as the runner delivers
//! them: duplicate senders (Byzantine double-sends), `⊥` votes, and foreign
//! variants (coin traffic, the other sub-clock's votes) interleaved. CI
//! runs this file at `PROPTEST_CASES=4096` in release.

use byzclock::alg::{
    BrokenTwoClock, ClockSync, ClockSyncMsg, DigitalClock, FixedRand, FourClock, FourClockMsg,
    MajorityCount, SharedFourClock, SharedFourClockMsg, Tally, Trit, TwoClock, TwoClockMsg,
};
use byzclock::sim::{Application, Envelope, NodeCfg, NodeId, SimRng};
use proptest::prelude::*;
use rand::SeedableRng;

// --- The reference pipeline ----------------------------------------------

/// Keeps the first message per sender of a sender-sorted list.
fn dedup_by_sender<T: Copy>(pairs: impl IntoIterator<Item = (NodeId, T)>) -> Vec<(NodeId, T)> {
    let mut out: Vec<(NodeId, T)> = Vec::new();
    for (from, value) in pairs {
        if out.last().map(|&(prev, _)| prev) != Some(from) {
            out.push((from, value));
        }
    }
    out
}

fn majority(zeros: usize, ones: usize) -> MajorityCount {
    if ones > zeros {
        MajorityCount {
            maj: true,
            count: ones,
        }
    } else {
        MajorityCount {
            maj: false,
            count: zeros,
        }
    }
}

/// `maj`/`#maj` over deduplicated votes, `rand` substituted for `⊥`.
fn majority_with_rand(votes: &[(NodeId, Trit)], rand: bool) -> MajorityCount {
    let ones = votes
        .iter()
        .filter(|&&(_, v)| v.bit().unwrap_or(rand))
        .count();
    majority(votes.len() - ones, ones)
}

/// `maj`/`#maj` over the definite votes only.
fn majority_literal(votes: &[(NodeId, Trit)]) -> MajorityCount {
    let count = |t| votes.iter().filter(|&&(_, v)| v == t).count();
    majority(count(Trit::Zero), count(Trit::One))
}

/// Fig. 2 lines 5–6 on a majority count.
fn clock_after(m: MajorityCount, quorum: usize) -> Trit {
    if m.count >= quorum {
        Trit::from_bit(!m.maj)
    } else {
        Trit::Bot
    }
}

/// Block (b): the first value (in order of first receipt) held by a quorum.
fn compute_propose(fulls: &[(NodeId, u64)], quorum: usize) -> Option<u64> {
    let mut counts: Vec<(u64, usize)> = Vec::new();
    for &(_, v) in fulls {
        match counts.iter_mut().find(|(val, _)| *val == v) {
            Some((_, c)) => *c += 1,
            None => counts.push((v, 1)),
        }
    }
    counts
        .into_iter()
        .find(|&(_, c)| c >= quorum)
        .map(|(v, _)| v)
}

/// Block (c): the most frequent non-`⊥` propose (ties to the smaller
/// value) and whether it reached the quorum.
fn compute_save_bit(proposes: &[(NodeId, Option<u64>)], quorum: usize) -> (Option<u64>, bool) {
    let mut counts: Vec<(u64, usize)> = Vec::new();
    for &(_, p) in proposes {
        if let Some(v) = p {
            match counts.iter_mut().find(|(val, _)| *val == v) {
                Some((_, c)) => *c += 1,
                None => counts.push((v, 1)),
            }
        }
    }
    let best = counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
    match best {
        Some((v, c)) => (Some(v), c >= quorum),
        None => (None, false),
    }
}

// --- Generated inboxes ---------------------------------------------------

/// One generated message: a sender, a kind selector and a value selector,
/// mapped onto each layer's message type by the test that reads it.
type Raw = (u16, u8, u8);

fn trit(v: u8) -> Trit {
    match v % 3 {
        0 => Trit::Zero,
        1 => Trit::One,
        _ => Trit::Bot,
    }
}

/// A configuration with `n > 3f` and a sender-sorted inbox over it: the
/// stable sort keeps each sender's messages in generated order, so a
/// duplicate's position relative to its sender's first message is random.
fn inbox_for(f: usize, extra: usize, raw: Vec<Raw>) -> (NodeCfg, Vec<Raw>) {
    let n = 3 * f + 1 + extra;
    let mut raw: Vec<Raw> = raw
        .into_iter()
        .map(|(from, kind, value)| (from % n as u16, kind, value))
        .collect();
    raw.sort_by_key(|&(from, _, _)| from);
    (NodeCfg::new(NodeId::new(0), n, f), raw)
}

fn fixed(bit: bool) -> FixedRand {
    let coin = FixedRand::new();
    coin.set(bit);
    coin
}

fn rng() -> SimRng {
    SimRng::seed_from_u64(0)
}

/// The reference votes: kind 0 carries a vote, every other kind is foreign.
fn reference_votes(raw: &[Raw]) -> Vec<(NodeId, Trit)> {
    dedup_by_sender(
        raw.iter()
            .filter(|&&(_, kind, _)| kind % 3 == 0)
            .map(|&(from, _, v)| (NodeId::new(from), trit(v))),
    )
}

proptest! {
    /// The tally's three counts give the reference's `maj`/`#maj` for both
    /// coin outcomes and for the literal count.
    #[test]
    fn tally_matches_dedup_then_majority(
        f in 0usize..4,
        extra in 0usize..4,
        raw in proptest::collection::vec((0u16..16, 0u8..3, 0u8..3), 0..48),
    ) {
        let (_, raw) = inbox_for(f, extra, raw);
        let votes = reference_votes(&raw);
        let tally: Tally = raw
            .iter()
            .filter(|&&(_, kind, _)| kind % 3 == 0)
            .map(|&(from, _, v)| (NodeId::new(from), trit(v)))
            .collect();
        for rand in [false, true] {
            prop_assert_eq!(tally.with_rand(rand), majority_with_rand(&votes, rand));
        }
        prop_assert_eq!(tally.literal(), majority_literal(&votes));
        prop_assert_eq!(tally.zeros + tally.ones + tally.bots, votes.len());
    }

    /// Each layer's one-pass deliver — the 2-clock, the broken 2-clock,
    /// both sub-clocks of the 4-clock and the shared-pipeline 4-clock —
    /// ends where the reference says, with coin traffic and the other
    /// sub-clock's votes interleaved in its inbox.
    #[test]
    fn every_layer_reads_its_votes_like_the_reference(
        f in 0usize..4,
        extra in 0usize..4,
        raw in proptest::collection::vec((0u16..16, 0u8..3, 0u8..3), 0..48),
        other in proptest::collection::vec((0u16..16, 0u8..3, 0u8..3), 0..48),
        rand in any::<bool>(),
    ) {
        let (cfg, raw) = inbox_for(f, extra, raw);
        let quorum = cfg.quorum();
        let votes = reference_votes(&raw);
        let expect = clock_after(majority_with_rand(&votes, rand), quorum);

        // `ss-Byz-2-Clock`: kind 0 votes, every other kind is coin traffic.
        let two_inbox: Vec<(NodeId, TwoClockMsg<()>)> = raw
            .iter()
            .map(|&(from, kind, v)| {
                let msg = if kind % 3 == 0 { TwoClockMsg::Clock(trit(v)) } else { TwoClockMsg::Coin(()) };
                (NodeId::new(from), msg)
            })
            .collect();
        let mut two = TwoClock::new(cfg, fixed(rand));
        two.step_deliver(two_inbox.iter().map(|(from, m)| (*from, m)), &mut rng());
        prop_assert_eq!(two.clock(), expect);

        // The Remark 3.1 variant counts the same votes literally.
        let envelopes: Vec<Envelope<TwoClockMsg<()>>> = two_inbox
            .iter()
            .map(|(from, m)| Envelope::new(*from, cfg.id, m.clone()))
            .collect();
        let mut broken = BrokenTwoClock::new(cfg, fixed(rand));
        broken.deliver(0, &envelopes, &mut rng());
        prop_assert_eq!(broken.clock(), clock_after(majority_literal(&votes), quorum));

        // `ss-Byz-4-Clock`: kind 0 is a vote of the phase's own sub-clock
        // (`A1` in phase 0, `A2` in phase 1), kind 1 its coin traffic,
        // kind 2 a vote of the other sub-clock.
        let (_, other) = inbox_for(f, extra, other);
        let four_msg = |own_a1: bool, kind: u8, v: u8| {
            let (a1, msg) = match kind % 3 {
                0 => (own_a1, TwoClockMsg::Clock(trit(v))),
                1 => (own_a1, TwoClockMsg::Coin(())),
                _ => (!own_a1, TwoClockMsg::Clock(trit(v))),
            };
            if a1 { FourClockMsg::A1(msg) } else { FourClockMsg::A2(msg) }
        };
        let phase0: Vec<(NodeId, FourClockMsg<()>)> =
            raw.iter().map(|&(from, kind, v)| (NodeId::new(from), four_msg(true, kind, v))).collect();
        let phase1: Vec<(NodeId, FourClockMsg<()>)> =
            other.iter().map(|&(from, kind, v)| (NodeId::new(from), four_msg(false, kind, v))).collect();
        let mut four = FourClock::new(cfg, fixed(rand), fixed(rand));
        four.phase_deliver(0, phase0.iter().map(|(from, m)| (*from, m)), &mut rng());
        prop_assert_eq!(four.a1().clock(), expect);
        four.phase_deliver(1, phase1.iter().map(|(from, m)| (*from, m)), &mut rng());
        let expect_a2 = if expect == Trit::Zero {
            clock_after(majority_with_rand(&reference_votes(&other), rand), quorum)
        } else {
            Trit::Bot // gated off: A2 keeps its fresh `⊥`
        };
        prop_assert_eq!(four.a2().clock(), expect_a2);

        // Remark 4.1's shared pipeline: both votes and the coin in one
        // message type; phase 0 reads `A1Vote`s, phase 1 `A2Vote`s.
        let shared_msg = |a1: bool, kind: u8, v: u8| match (kind % 3, a1) {
            (0, true) | (2, false) => SharedFourClockMsg::A1Vote(trit(v)),
            (0, false) | (2, true) => SharedFourClockMsg::A2Vote(trit(v)),
            _ => SharedFourClockMsg::Coin(()),
        };
        let envelopes = |raw: &[Raw], a1: bool| -> Vec<Envelope<SharedFourClockMsg<()>>> {
            raw.iter()
                .map(|&(from, kind, v)| Envelope::new(NodeId::new(from), cfg.id, shared_msg(a1, kind, v)))
                .collect()
        };
        let mut shared = SharedFourClock::new(cfg, fixed(rand));
        shared.deliver(0, &envelopes(&raw, true), &mut rng());
        shared.deliver(1, &envelopes(&other, false), &mut rng());
        let expect_shared = match (expect.bit(), expect_a2.bit()) {
            (Some(c1), Some(c2)) => Some(2 * u64::from(c2) + u64::from(c1)),
            _ => None,
        };
        prop_assert_eq!(shared.read(), expect_shared);
    }

    /// `ClockSync`'s one-pass refill of its block receipts reads like one
    /// `dedup_by_sender` pass per kind: block (b)'s propose, block (c)'s
    /// `(save, bit)` and block (d)'s bit counts agree with the reference,
    /// with coin and 4-clock traffic interleaved and senders duplicated.
    #[test]
    fn receipts_match_the_three_pass_reference(
        f in 0usize..4,
        extra in 0usize..4,
        raw in proptest::collection::vec((0u16..16, 0u8..6, 0u8..6), 0..64),
    ) {
        let (cfg, raw) = inbox_for(f, extra, raw);
        let quorum = cfg.quorum();
        // Values from a small range, so quorums and ties are common.
        let msg = |kind: u8, v: u8| match kind {
            0 => ClockSyncMsg::Full(u64::from(v % 3)),
            1 => ClockSyncMsg::Propose((v % 4 != 3).then_some(u64::from(v % 3))),
            2 => ClockSyncMsg::BitVote(v.is_multiple_of(2)),
            3 => ClockSyncMsg::Coin(()),
            _ => ClockSyncMsg::Four(FourClockMsg::A1(TwoClockMsg::Clock(trit(v)))),
        };
        let inbox: Vec<Envelope<ClockSyncMsg<()>>> = raw
            .iter()
            .map(|&(from, kind, v)| Envelope::new(NodeId::new(from), cfg.id, msg(kind, v)))
            .collect();
        let receipts = |want: u8| raw.iter().filter(move |&&(_, kind, _)| kind == want);
        let fulls = dedup_by_sender(receipts(0).map(|&(from, _, v)| (NodeId::new(from), u64::from(v % 3))));
        let proposes = dedup_by_sender(
            receipts(1).map(|&(from, _, v)| (NodeId::new(from), (v % 4 != 3).then_some(u64::from(v % 3)))),
        );
        let bits = dedup_by_sender(receipts(2).map(|&(from, _, v)| (NodeId::new(from), v.is_multiple_of(2))));

        let mut node = ClockSync::new(cfg, 8, fixed(false), fixed(false), fixed(false));
        node.deliver(2, &inbox, &mut rng());
        prop_assert_eq!(node.mc_propose_image(), compute_propose(&fulls, quorum));
        prop_assert_eq!(node.mc_save_bit_image(), compute_save_bit(&proposes, quorum));
        let tally = node.mc_prev_bits();
        let ones = bits.iter().filter(|&&(_, b)| b).count();
        prop_assert_eq!((tally.zeros, tally.ones, tally.bots), (bits.len() - ones, ones, 0));
    }
}
