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
use byzclock::coin::{CoinMsg, CommitteeMsg, FlatMatrix};
use byzclock::sim::{Wire, WireFormat};
use proptest::prelude::*;
use std::sync::Arc;

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
    let vote = proptest::collection::vec(any::<bool>(), 0..8).prop_map(CoinMsg::vote);
    let recover = proptest::collection::vec(
        proptest::option::of(proptest::collection::vec(any::<u64>(), 0..4)),
        0..5,
    )
    .prop_map(CoinMsg::recover);
    prop_oneof![rows, echo, vote, recover]
}

/// Per-dealer rows of any shape: ragged, empty, absent, with elements of
/// every byte width.
fn nested_rows() -> impl Strategy<Value = Vec<Option<Vec<u64>>>> {
    let elem = prop_oneof![0u64..40, any::<u64>()];
    proptest::collection::vec(
        proptest::option::of(proptest::collection::vec(elem, 0..6)),
        0..12,
    )
}

/// The matrix a `Row`, `Echo` or `Recover` carries.
fn matrix_of(msg: &CoinMsg) -> Option<&Arc<FlatMatrix>> {
    match msg {
        CoinMsg::Row { rows: m } | CoinMsg::Echo { points: m } | CoinMsg::Recover { shares: m } => {
            Some(m)
        }
        CoinMsg::Vote { .. } => None,
    }
}

/// `v` through the generic `Wire` impls, in `Fixed`.
fn fixed_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut buf = BytesMut::new();
    WireFormat::Fixed.encode_into(v, &mut buf);
    buf.as_slice().to_vec()
}

/// The packed matrix layout written out over the nested form: the tag, a
/// `u16` row count, for `optioned` payloads an LSB-first presence bitset,
/// then `width: u8` (the fewest bytes holding every element, at least
/// one), `maxlen: u16`, and per present row a `u16` delta `maxlen − len`
/// followed by its elements big-endian at `width` bytes.
fn packed_reference(tag: u8, rows: &[Option<Vec<u64>>], optioned: bool) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend((rows.len() as u16).to_be_bytes());
    if optioned {
        let mut bits = vec![0u8; rows.len().div_ceil(8)];
        for (i, row) in rows.iter().enumerate() {
            bits[i / 8] |= u8::from(row.is_some()) << (i % 8);
        }
        out.extend(bits);
    }
    let present: Vec<&Vec<u64>> = rows.iter().flatten().collect();
    let max = present
        .iter()
        .flat_map(|row| row.iter())
        .max()
        .copied()
        .unwrap_or(0);
    let width = (64 - max.leading_zeros() as usize).div_ceil(8).max(1);
    let maxlen = present.iter().map(|row| row.len()).max().unwrap_or(0);
    out.push(width as u8);
    out.extend((maxlen as u16).to_be_bytes());
    for row in present {
        out.extend(((maxlen - row.len()) as u16).to_be_bytes());
        for v in row {
            out.extend(&v.to_be_bytes()[8 - width..]);
        }
    }
    out
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

    /// A cloned matrix message — however ragged — is the same
    /// [`FlatMatrix`] allocation, through every wrapper the clock stack
    /// clones it in, and a decoded one is equal but its own.
    #[test]
    fn coin_msg_clones_share_their_matrix(msg in coin_msg_strategy(), slot in any::<u8>()) {
        let wrapped = ClockSyncMsg::Coin(SlotMsg { slot, msg: msg.clone() }).clone();
        let ClockSyncMsg::Coin(SlotMsg { msg: copy, .. }) = &wrapped else { unreachable!() };
        let shared = match (matrix_of(&msg), matrix_of(copy)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => msg == *copy,
            _ => false,
        };
        prop_assert!(shared, "{:?}", msg);
        for format in FORMATS {
            let mut buf = BytesMut::new();
            format.encode_into(&msg, &mut buf);
            let back: CoinMsg = format.decode_from(buf.as_slice()).expect("round trip");
            prop_assert_eq!(&back, &msg);
            if let (Some(a), Some(b)) = (matrix_of(&msg), matrix_of(&back)) {
                prop_assert!(!Arc::ptr_eq(a, b));
            }
        }
    }

    /// The flat payloads write the bytes of the nested layouts they
    /// replaced, for any shape — ragged, empty, absent rows: in `Fixed`
    /// the generic `Wire` encoding of `Vec<Vec<u64>>` (`Row`) or
    /// `Vec<Option<Vec<u64>>>` (`Echo`, `Recover`), in `Packed` the layout
    /// written out in [`packed_reference`]. Those bytes decode back to the
    /// same rows, and `len_of` counts them.
    #[test]
    fn flat_payloads_encode_as_their_nested_layouts(rows in nested_rows(), which in 0u8..3) {
        let (tag, msg, fixed) = match which {
            0 => {
                let nested: Vec<Vec<u64>> = rows.iter().map(|r| r.clone().unwrap_or_default()).collect();
                (0u8, CoinMsg::row(nested.clone()), fixed_bytes(&(0u8, nested)))
            }
            1 => (1, CoinMsg::echo(rows.clone()), fixed_bytes(&(1u8, rows.clone()))),
            _ => (3, CoinMsg::recover(rows.clone()), fixed_bytes(&(3u8, rows.clone()))),
        };
        let want_rows: Vec<Option<Vec<u64>>> = if tag == 0 {
            rows.iter().map(|r| Some(r.clone().unwrap_or_default())).collect()
        } else {
            rows.clone()
        };
        let packed = packed_reference(tag, &want_rows, tag != 0);
        for (format, want) in [(WireFormat::Fixed, fixed), (WireFormat::Packed, packed)] {
            let mut buf = BytesMut::new();
            format.encode_into(&msg, &mut buf);
            prop_assert_eq!(buf.as_slice(), &want[..], "{:?}", format);
            prop_assert_eq!(format.len_of(&msg), want.len());
            let back: CoinMsg = format.decode_from(&want).expect("the nested bytes decode");
            let got: Vec<Option<Vec<u64>>> = matrix_of(&back)
                .expect("a matrix payload")
                .rows()
                .map(|row| row.map(<[u64]>::to_vec))
                .collect();
            prop_assert_eq!(&got, &want_rows);
            prop_assert_eq!(&back, &msg);
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

/// Impls the in-module proptests of `crates/sim/src/wire.rs` pin: the
/// primitives and containers every message is built from.
const PINNED_IN_SIM: [&str; 6] = ["()", "bool", "Option", "Vec", "(A, B)", "NodeId"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("readable directory").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Coverage: every `impl Wire for T` outside a test module, anywhere in
/// the workspace's sources, has `T` in the garbage fuzzer above (and so
/// in this file), unless `crates/sim/src/wire.rs` pins it itself. A new
/// message type cannot reach the wire unfuzzed.
#[test]
fn every_wire_impl_is_fuzzed_here() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&member.expect("crate dir").path().join("src"), &mut files);
    }
    let this_file = include_str!("wire_properties.rs");
    let mut impls = 0;
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let src = src.split("\n#[cfg(test)]\nmod ").next().unwrap_or_default();
        for line in src.lines().map(str::trim_start) {
            let Some((_, ty)) = line.split_once("Wire for ") else {
                continue;
            };
            if !line.starts_with("impl") || ty.starts_with('$') {
                continue;
            }
            let ty = ty.trim_end_matches(" {");
            let ty = ty.split('<').next().unwrap_or(ty);
            let name = ty.rsplit("::").next().unwrap_or(ty);
            impls += 1;
            assert!(
                PINNED_IN_SIM.contains(&name)
                    || this_file.contains(&format!("decode_from::<{name}")),
                "`{line}` ({}) has no garbage-fuzz property in tests/wire_properties.rs",
                path.display()
            );
        }
    }
    assert!(
        impls >= 10,
        "found only {impls} `impl Wire` lines — did the scan break?"
    );
}
