//! Wire-codec properties across every protocol message type: encode→decode
//! is the identity in **both** formats for arbitrary — not just honest —
//! values and the counted length equals the bytes written (experiment M1
//! depends on it); every wrapper passes the format down to its payload;
//! and no byte string, however hostile, can panic a decoder (it yields
//! `None` or a shape-valid message).

use bytes::BytesMut;
use byzclock::alg::{
    ClockSyncMsg, FourClockMsg, LevelMsg, RoundMsg, SharedFourClockMsg, SlotMsg, Trit, TwoClockMsg,
};
use byzclock::baselines::{BaMsg, DwMsg};
use byzclock::coin::{CoinMsg, CommitteeMsg};
use byzclock::sim::{Wire, WireFormat};
use proptest::prelude::*;

const FORMATS: [WireFormat; 2] = [WireFormat::Fixed, WireFormat::Packed];

/// Encode in `format`, assert the counted length, decode back, assert
/// identity. The workhorse of every round-trip property below.
fn assert_round_trips<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    for format in FORMATS {
        let mut buf = BytesMut::new();
        format.encode_into(v, &mut buf);
        assert_eq!(
            buf.len(),
            format.len_of(v),
            "counted {format:?} length drifted for {v:?}"
        );
        let back: T = format
            .decode_from(buf.as_slice())
            .unwrap_or_else(|| panic!("{v:?} failed to decode in {format:?}"));
        assert_eq!(&back, v, "{format:?} round trip changed the value");
        // Every strict prefix is a truncated message and must fail.
        for cut in 0..buf.len() {
            assert!(
                format.decode_from::<T>(&buf.as_slice()[..cut]).is_none(),
                "truncation at {cut}/{} must fail for {v:?} ({format:?})",
                buf.len()
            );
        }
    }
}

/// Format threading — what a wrapper impl can still get wrong now that a
/// length is a counting pass over `encode`: in each format a wrapper costs
/// exactly its `header` bytes on top of its payload *in that format*. The
/// payloads below carry a [`CoinMsg`], whose two formats differ in length,
/// so a wrapper that dropped `format` on the way down is caught.
fn assert_header_over_payload<W: Wire, M: Wire>(wrapper: &W, payload: &M, header: usize) {
    for format in FORMATS {
        assert_eq!(
            format.len_of(wrapper),
            header + format.len_of(payload),
            "{format:?} did not reach the payload"
        );
    }
}

fn trit_strategy() -> impl Strategy<Value = Trit> {
    prop_oneof![Just(Trit::Zero), Just(Trit::One), Just(Trit::Bot)]
}

fn coin_msg_strategy() -> impl Strategy<Value = CoinMsg> {
    let rows = proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..4), 0..4)
        .prop_map(CoinMsg::row);
    let echo = proptest::collection::vec(
        proptest::option::of(proptest::collection::vec(any::<u64>(), 0..4)),
        0..5,
    )
    .prop_map(CoinMsg::echo);
    let vote = proptest::collection::vec(any::<bool>(), 0..8)
        .prop_map(|content| CoinMsg::Vote { content });
    let recover = proptest::collection::vec(
        proptest::option::of(proptest::collection::vec(any::<u64>(), 0..4)),
        0..5,
    )
    .prop_map(CoinMsg::recover);
    prop_oneof![rows, echo, vote, recover]
}

fn committee_msg_strategy() -> impl Strategy<Value = CommitteeMsg> {
    prop_oneof![
        coin_msg_strategy().prop_map(CommitteeMsg::Gvss),
        any::<bool>().prop_map(CommitteeMsg::Relay),
    ]
}

fn ba_msg_strategy() -> impl Strategy<Value = BaMsg> {
    (
        0u8..4,
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<bool>(),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(which, v, p, b, bp)| match which {
            0 => BaMsg::Val(v),
            1 => BaMsg::Perm(p),
            2 => BaMsg::Bit(b),
            _ => BaMsg::BitProp(bp),
        })
}

fn clock_sync_msg_strategy() -> impl Strategy<Value = ClockSyncMsg<CoinMsg>> {
    (
        0u8..5,
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        trit_strategy(),
        coin_msg_strategy(),
    )
        .prop_map(|(which, v, p, t, coin)| match which {
            0 => ClockSyncMsg::Four(FourClockMsg::A1(TwoClockMsg::Clock(t))),
            1 => ClockSyncMsg::Full(v),
            2 => ClockSyncMsg::Propose(p),
            3 => ClockSyncMsg::BitVote(v % 2 == 0),
            _ => ClockSyncMsg::Coin(coin),
        })
}

proptest! {
    // --- every wrapper is one header byte over its payload, per format ---

    #[test]
    fn slot_msg_len(tag in any::<u8>(), msg in coin_msg_strategy()) {
        assert_header_over_payload(&SlotMsg { slot: tag, msg: msg.clone() }, &msg, 1);
        assert_header_over_payload(&RoundMsg { round: tag, msg: msg.clone() }, &msg, 1);
    }

    #[test]
    fn committee_msg_len(msg in coin_msg_strategy()) {
        assert_header_over_payload(&CommitteeMsg::Gvss(msg.clone()), &msg, 1);
    }

    #[test]
    fn two_clock_msg_len(msg in coin_msg_strategy()) {
        assert_header_over_payload(&TwoClockMsg::Coin(msg.clone()), &msg, 1);
    }

    #[test]
    fn four_clock_msg_len(msg in coin_msg_strategy(), a1 in any::<bool>()) {
        let two = TwoClockMsg::Coin(msg);
        let four = if a1 { FourClockMsg::A1(two.clone()) } else { FourClockMsg::A2(two.clone()) };
        assert_header_over_payload(&four, &two, 1);
    }

    #[test]
    fn shared_four_clock_msg_len(msg in coin_msg_strategy()) {
        assert_header_over_payload(&SharedFourClockMsg::Coin(msg.clone()), &msg, 1);
    }

    #[test]
    fn clock_sync_msg_len(msg in coin_msg_strategy()) {
        assert_header_over_payload(&ClockSyncMsg::Coin(msg.clone()), &msg, 1);
        let four = FourClockMsg::A2(TwoClockMsg::Coin(msg));
        assert_header_over_payload(&ClockSyncMsg::Four(four.clone()), &four, 1);
    }

    #[test]
    fn level_msg_len(level in any::<u8>(), msg in coin_msg_strategy()) {
        let two = TwoClockMsg::Coin(msg);
        assert_header_over_payload(&LevelMsg { level, msg: two.clone() }, &two, 1);
    }

    // --- encode -> decode round trips, both formats, arbitrary values ---

    #[test]
    fn coin_msg_round_trips(msg in coin_msg_strategy()) {
        assert_round_trips(&msg);
    }

    /// A cloned matrix message — however ragged — is the same allocation,
    /// through every wrapper the clock stack clones it in, and a decoded
    /// one is equal but its own.
    #[test]
    fn coin_msg_clones_share_their_matrix(msg in coin_msg_strategy(), slot in any::<u8>()) {
        use std::sync::Arc;
        let wrapped = ClockSyncMsg::Coin(SlotMsg { slot, msg: msg.clone() }).clone();
        let ClockSyncMsg::Coin(SlotMsg { msg: copy, .. }) = &wrapped else { unreachable!() };
        let shared = match (&msg, copy) {
            (CoinMsg::Row { rows: a }, CoinMsg::Row { rows: b }) => Arc::ptr_eq(a, b),
            (CoinMsg::Echo { points: a }, CoinMsg::Echo { points: b }) => Arc::ptr_eq(a, b),
            (CoinMsg::Recover { shares: a }, CoinMsg::Recover { shares: b }) => Arc::ptr_eq(a, b),
            (CoinMsg::Vote { content: a }, CoinMsg::Vote { content: b }) => a == b,
            _ => false,
        };
        prop_assert!(shared, "{:?}", msg);
        for format in FORMATS {
            let mut buf = BytesMut::new();
            format.encode_into(&msg, &mut buf);
            let back: CoinMsg = format.decode_from(buf.as_slice()).expect("round trip");
            prop_assert_eq!(&back, &msg);
            if let (CoinMsg::Echo { points: a }, CoinMsg::Echo { points: b }) = (&msg, &back) {
                prop_assert!(!Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn slot_and_round_tagged_coin_msgs_round_trip(tag in any::<u8>(), msg in coin_msg_strategy()) {
        assert_round_trips(&SlotMsg { slot: tag, msg: msg.clone() });
        assert_round_trips(&RoundMsg { round: tag, msg });
    }

    #[test]
    fn committee_msgs_round_trip(slot in any::<u8>(), msg in committee_msg_strategy()) {
        assert_round_trips(&msg);
        // The shape the pipelined committee coin actually ships.
        assert_round_trips(&SlotMsg { slot, msg });
    }

    #[test]
    fn two_and_four_clock_msgs_round_trip(t in trit_strategy(), coin in coin_msg_strategy(), which in 0u8..4) {
        let two: TwoClockMsg<CoinMsg> = match which % 2 {
            0 => TwoClockMsg::Clock(t),
            _ => TwoClockMsg::Coin(coin),
        };
        assert_round_trips(&two);
        let four = if which < 2 { FourClockMsg::A1(two) } else { FourClockMsg::A2(two) };
        assert_round_trips(&four);
    }

    #[test]
    fn shared_four_clock_msgs_round_trip(t in trit_strategy(), coin in coin_msg_strategy(), which in 0u8..3) {
        let m: SharedFourClockMsg<CoinMsg> = match which {
            0 => SharedFourClockMsg::A1Vote(t),
            1 => SharedFourClockMsg::A2Vote(t),
            _ => SharedFourClockMsg::Coin(coin),
        };
        assert_round_trips(&m);
    }

    #[test]
    fn clock_sync_msgs_round_trip(m in clock_sync_msg_strategy()) {
        assert_round_trips(&m);
    }

    #[test]
    fn level_msgs_round_trip(level in any::<u8>(), t in trit_strategy()) {
        assert_round_trips(&LevelMsg { level, msg: TwoClockMsg::<u64>::Clock(t) });
    }

    #[test]
    fn baseline_msgs_round_trip(m in ba_msg_strategy(), slot in any::<u8>(), v in any::<u64>()) {
        assert_round_trips(&m);
        assert_round_trips(&SlotMsg { slot, msg: m });
        assert_round_trips(&DwMsg(v));
    }

    #[test]
    fn bd_clock_msgs_round_trip(round in any::<u8>()) {
        assert_round_trips(&RoundMsg { round, msg: () });
    }

    // --- fuzz: hostile bytes never panic a decoder ---

    #[test]
    fn garbage_bytes_never_panic_any_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        for format in FORMATS {
            let _ = format.decode_from::<CoinMsg>(&bytes);
            let _ = format.decode_from::<CommitteeMsg>(&bytes);
            let _ = format.decode_from::<SlotMsg<CoinMsg>>(&bytes);
            let _ = format.decode_from::<SlotMsg<CommitteeMsg>>(&bytes);
            let _ = format.decode_from::<RoundMsg<()>>(&bytes);
            let _ = format.decode_from::<TwoClockMsg<CoinMsg>>(&bytes);
            let _ = format.decode_from::<FourClockMsg<CoinMsg>>(&bytes);
            let _ = format.decode_from::<SharedFourClockMsg<CoinMsg>>(&bytes);
            let _ = format.decode_from::<ClockSyncMsg<CoinMsg>>(&bytes);
            let _ = format.decode_from::<LevelMsg<CoinMsg>>(&bytes);
            let _ = format.decode_from::<BaMsg>(&bytes);
            let _ = format.decode_from::<DwMsg>(&bytes);
            let _ = format.decode_from::<Trit>(&bytes);
        }
    }

    /// Decoded garbage, when it *does* parse, is shape-valid: re-encoding
    /// it round-trips (the decoder never fabricates unencodable values).
    #[test]
    fn parsed_garbage_is_shape_valid(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        for format in FORMATS {
            if let Some(msg) = format.decode_from::<CoinMsg>(&bytes) {
                let mut buf = BytesMut::new();
                format.encode_into(&msg, &mut buf);
                prop_assert_eq!(format.decode_from::<CoinMsg>(buf.as_slice()), Some(msg));
            }
        }
    }
}
