//! Wire messages of the GVSS common coin, with defensive parsing.
//!
//! Byzantine nodes construct these messages freely, so every consumer
//! validates shape (vector lengths, coefficient counts) and reduces field
//! values before use; anything malformed is treated as missing — and since
//! the wire layer became a real codec, *malformed bytes* are dropped at
//! decode time the same way (truncation, bad tags, and forged headers all
//! yield `None`, never a panic).
//!
//! # The packed format
//!
//! The GVSS matrices are where experiment M1's bytes live, and the fixed
//! encoding is extravagant for them: every field element is a `u64` (8
//! bytes) although the field is the smallest prime above `n` (1 byte for
//! every realistic cluster — `Fp::elem_width`), and every `Vec` pays a
//! 4-byte length plus 1-byte `Option` flags. Under `WireFormat::Packed`
//! [`CoinMsg`] instead encodes:
//!
//! - **field elements** at the minimal byte width that holds the largest
//!   value in the message (self-describing: one `width` header byte, so
//!   arbitrary — even hostile — values still round-trip);
//! - **presence** (`Option` per dealer) and **votes** as bitsets;
//! - **row/point-vector lengths** as two-byte deltas against the
//!   per-message maximum (honest senders always use the degree bound
//!   `f + 1` or the target count, so the deltas are zero).
//!
//! Counts ride in two-byte headers — `NodeId` is itself a `u16`, so no
//! cluster, however implausible, can outgrow them; the encode side is
//! trusted and panics above `u16::MAX`, mirroring the `u32` length-header
//! contract of `Vec<T>`.

use byzclock_sim::{Wire, WireFormat, WireReader, WireWriter};
use std::sync::Arc;

/// One round's payload of a coin instance.
///
/// Indexing conventions: `[dealer]` vectors always have length `n`
/// (`Option` for dealers the sender has nothing for); `[target]` vectors
/// have length `targets` (the per-dealer secret count — `n` for the ticket
/// coin, 1 for the XOR coin).
///
/// The three matrix payloads sit behind an [`Arc`]: a message is built
/// once and then only read, while the runner and every demultiplexing
/// layer above the coin clone it (per broadcast recipient, into the
/// phantom-replay history, per delivery), so each of those clones is a
/// reference-count bump instead of a copy of an O(n·targets) matrix.
/// Build them with [`CoinMsg::row`], [`CoinMsg::echo`] and
/// [`CoinMsg::recover`]. The matrices may be ragged — a Byzantine sender
/// can say anything — and receivers validate shape before use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoinMsg {
    /// Round 0, dealer → node `i`: the row polynomials `S_j(x, i)`, one
    /// per target `j` (coefficient vectors, constant term first).
    Row {
        /// `[target] -> row-polynomial coefficients`.
        rows: Arc<Vec<Vec<u64>>>,
    },
    /// Round 1, node `i` → node `m`: cross-points `S_j(m, i)` for every
    /// dealer (`None` where `i` holds no row from that dealer).
    Echo {
        /// `[dealer] -> [target] -> point value`.
        points: Arc<Vec<Option<Vec<u64>>>>,
    },
    /// Round 2, broadcast: per-dealer contentment (enough matching echoes).
    Vote {
        /// `[dealer] -> content`.
        content: Vec<bool>,
    },
    /// Round 3 (recover), broadcast: the sender's secret shares
    /// `S_j(0, sender)` for every dealer it holds rows from.
    Recover {
        /// `[dealer] -> [target] -> share value`.
        shares: Arc<Vec<Option<Vec<u64>>>>,
    },
}

impl CoinMsg {
    /// A [`CoinMsg::Row`] carrying `rows`.
    pub fn row(rows: Vec<Vec<u64>>) -> Self {
        CoinMsg::Row {
            rows: Arc::new(rows),
        }
    }

    /// A [`CoinMsg::Echo`] carrying `points`.
    pub fn echo(points: Vec<Option<Vec<u64>>>) -> Self {
        CoinMsg::Echo {
            points: Arc::new(points),
        }
    }

    /// A [`CoinMsg::Recover`] carrying `shares`.
    pub fn recover(shares: Vec<Option<Vec<u64>>>) -> Self {
        CoinMsg::Recover {
            shares: Arc::new(shares),
        }
    }
}

/// Encodes a count into the packed format's two-byte header.
///
/// # Panics
///
/// Panics above `u16::MAX` — packed counts are cluster-bounded (`NodeId`
/// itself is a `u16`, so no protocol-constructed vector can exceed it)
/// and the encode side is trusted, mirroring `Vec<T>`'s `u32` contract.
fn put_count(len: usize, w: &mut WireWriter<'_>) {
    let len = u16::try_from(len).expect("packed wire counts are u16; encode side is trusted");
    w.put_u16(len);
}

/// Reads a packed count header.
fn get_count(r: &mut WireReader<'_>) -> Option<usize> {
    r.u16().map(usize::from)
}

/// Minimal byte width (1..=8) holding every value produced by `values`.
fn min_width(values: impl Iterator<Item = u64>) -> usize {
    // The OR of the values has the same highest set bit as their maximum.
    let all = values.fold(0, |acc, v| acc | v);
    if all == 0 {
        1
    } else {
        (64 - all.leading_zeros() as usize).div_ceil(8)
    }
}

/// Appends `v` big-endian at `width` bytes (caller guarantees it fits).
fn put_elem(v: u64, width: usize, w: &mut WireWriter<'_>) {
    w.put_slice(&v.to_be_bytes()[8 - width..]);
}

/// Reads one `width`-byte big-endian value.
fn get_elem(r: &mut WireReader<'_>, width: usize) -> Option<u64> {
    let bytes = r.take(width)?;
    let mut v = 0u64;
    for &b in bytes {
        v = (v << 8) | u64::from(b);
    }
    Some(v)
}

/// Appends the flags as a bitset (LSB-first within each byte).
fn put_bitset(bits: impl Iterator<Item = bool>, w: &mut WireWriter<'_>) {
    let (mut byte, mut used) = (0u8, 0);
    for bit in bits {
        byte |= u8::from(bit) << used;
        used += 1;
        if used == 8 {
            w.put_u8(byte);
            (byte, used) = (0, 0);
        }
    }
    if used > 0 {
        w.put_u8(byte);
    }
}

/// Reads `len` flags from a bitset.
fn get_bitset(r: &mut WireReader<'_>, len: usize) -> Option<Vec<bool>> {
    let bytes = r.take(len.div_ceil(8))?;
    (0..len)
        .map(|i| Some(bytes.get(i / 8)? >> (i % 8) & 1 == 1))
        .collect()
}

/// Packed encoding of an element matrix with per-row presence: the shared
/// body of `Echo`/`Recover` (all rows present-flagged) and `Row` (all rows
/// present). Layout: `width: u8`, `maxlen: u16`, then per present row a
/// two-byte length delta followed by `len` elements of `width` bytes.
fn put_matrix<'a>(rows: impl Iterator<Item = &'a [u64]> + Clone, w: &mut WireWriter<'_>) {
    let width = min_width(rows.clone().flatten().copied());
    let maxlen = rows.clone().map(<[u64]>::len).max().unwrap_or(0);
    w.put_u8(width as u8);
    put_count(maxlen, w);
    for row in rows {
        put_count(maxlen - row.len(), w);
        for &v in row {
            put_elem(v, width, w);
        }
    }
}

/// Decodes `nrows` rows of the [`put_matrix`] layout.
fn get_matrix(r: &mut WireReader<'_>, nrows: usize) -> Option<Vec<Vec<u64>>> {
    let width = r.u8()? as usize;
    if !(1..=8).contains(&width) {
        return None;
    }
    let maxlen = get_count(r)?;
    // Capacity is a hint: forged counts reserve no more than the bytes
    // actually left (every row costs at least its two-byte delta).
    let mut rows = Vec::with_capacity(nrows.min(r.remaining()));
    for _ in 0..nrows {
        let delta = get_count(r)?;
        let len = maxlen.checked_sub(delta)?;
        let mut row = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            row.push(get_elem(r, width)?);
        }
        rows.push(row);
    }
    Some(rows)
}

impl Wire for CoinMsg {
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match format {
            WireFormat::Fixed => match self {
                CoinMsg::Row { rows } => w.put_tagged(0, &**rows, format),
                CoinMsg::Echo { points } => w.put_tagged(1, &**points, format),
                CoinMsg::Vote { content } => w.put_tagged(2, content, format),
                CoinMsg::Recover { shares } => w.put_tagged(3, &**shares, format),
            },
            WireFormat::Packed => match self {
                CoinMsg::Row { rows } => {
                    w.put_u8(0);
                    put_count(rows.len(), w);
                    put_matrix(rows.iter().map(Vec::as_slice), w);
                }
                CoinMsg::Echo { points } => {
                    w.put_u8(1);
                    put_optioned_matrix(points, w);
                }
                CoinMsg::Vote { content } => {
                    w.put_u8(2);
                    put_count(content.len(), w);
                    put_bitset(content.iter().copied(), w);
                }
                CoinMsg::Recover { shares } => {
                    w.put_u8(3);
                    put_optioned_matrix(shares, w);
                }
            },
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        let tag = r.u8()?;
        Some(match format {
            WireFormat::Fixed => match tag {
                0 => CoinMsg::row(Wire::decode(format, r)?),
                1 => CoinMsg::echo(Wire::decode(format, r)?),
                2 => CoinMsg::Vote {
                    content: Wire::decode(format, r)?,
                },
                3 => CoinMsg::recover(Wire::decode(format, r)?),
                _ => return None,
            },
            WireFormat::Packed => match tag {
                0 => {
                    let nrows = get_count(r)?;
                    CoinMsg::row(get_matrix(r, nrows)?)
                }
                1 => CoinMsg::echo(get_optioned_matrix(r)?),
                2 => {
                    let len = get_count(r)?;
                    CoinMsg::Vote {
                        content: get_bitset(r, len)?,
                    }
                }
                3 => CoinMsg::recover(get_optioned_matrix(r)?),
                _ => return None,
            },
        })
    }
}

/// Packed `[dealer] -> Option<Vec<elem>>` layout: `dealers: u8`, presence
/// bitset, then the present rows through [`put_matrix`].
fn put_optioned_matrix(m: &[Option<Vec<u64>>], w: &mut WireWriter<'_>) {
    put_count(m.len(), w);
    put_bitset(m.iter().map(Option::is_some), w);
    put_matrix(m.iter().flatten().map(Vec::as_slice), w);
}

/// Inverse of [`put_optioned_matrix`].
fn get_optioned_matrix(r: &mut WireReader<'_>) -> Option<Vec<Option<Vec<u64>>>> {
    let dealers = get_count(r)?;
    let presence = get_bitset(r, dealers)?;
    let present = presence.iter().filter(|&&p| p).count();
    let mut rows = get_matrix(r, present)?.into_iter();
    Some(
        presence
            .into_iter()
            .map(|p| if p { rows.next() } else { None })
            .collect(),
    )
}

/// Validates a per-dealer optioned matrix: outer length must be `dealers`,
/// every inner vector must have length `targets`. Returns `None` on any
/// shape violation (the message is then ignored).
pub(crate) fn check_matrix(
    m: &[Option<Vec<u64>>],
    dealers: usize,
    targets: usize,
) -> Option<&[Option<Vec<u64>>]> {
    if m.len() != dealers {
        return None;
    }
    for inner in m.iter().flatten() {
        if inner.len() != targets {
            return None;
        }
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_field::Fp;
    use byzclock_sim::WireFormat;

    #[test]
    fn wire_lengths() {
        let m = CoinMsg::Vote {
            content: vec![true, false, true],
        };
        // tag + vec header + 3 bools
        assert_eq!(WireFormat::Fixed.len_of(&m), 1 + 4 + 3);
        let m = CoinMsg::row(vec![vec![1, 2], vec![3]]);
        assert_eq!(WireFormat::Fixed.len_of(&m), 1 + 4 + (4 + 16) + (4 + 8));
        let m = CoinMsg::echo(vec![None, Some(vec![7])]);
        assert_eq!(WireFormat::Fixed.len_of(&m), 1 + 4 + 1 + (1 + 4 + 8));
    }

    #[test]
    fn packed_lengths_shrink_the_matrices() {
        // A beat-shaped Echo at n=7, f=2 (the ticket stack's hot message):
        // all 7 dealers present, 7 points each, values inside F_11.
        let points: Vec<Option<Vec<u64>>> = (0..7).map(|d| Some(vec![d % 11; 7])).collect();
        let echo = CoinMsg::echo(points);
        // fixed: tag + 4 + 7 * (1 + 4 + 7*8) = 432
        assert_eq!(WireFormat::Fixed.len_of(&echo), 432);
        // packed: tag + dealers(2) + bitset + width + maxlen(2) +
        //         7 * (delta(2) + 7 elems)
        assert_eq!(WireFormat::Packed.len_of(&echo), 1 + 2 + 1 + 1 + 2 + 7 * 9);
        assert!(WireFormat::Fixed.len_of(&echo) >= 6 * WireFormat::Packed.len_of(&echo));

        let vote = CoinMsg::Vote {
            content: vec![true; 7],
        };
        assert_eq!(WireFormat::Packed.len_of(&vote), 1 + 2 + 1);

        // Row at f=2: 7 targets x 3 coefficients.
        let row = CoinMsg::row(vec![vec![10, 0, 3]; 7]);
        assert_eq!(WireFormat::Fixed.len_of(&row), 1 + 4 + 7 * (4 + 24));
        assert_eq!(WireFormat::Packed.len_of(&row), 1 + 2 + 1 + 2 + 7 * 5);
    }

    #[test]
    fn packed_element_width_matches_the_cluster_field() {
        // The self-described width header lands on Fp::elem_width for
        // honest (reduced) payloads — the modulus-derived width the packed
        // format is designed around.
        for n in [4usize, 7, 13] {
            let fp = Fp::for_cluster(n);
            let rows: Vec<Vec<u64>> = (0..n).map(|_| vec![fp.modulus() - 1; 3]).collect();
            let msg = CoinMsg::row(rows);
            let mut buf = bytes::BytesMut::new();
            WireFormat::Packed.encode_into(&msg, &mut buf);
            // Layout: tag(1), nrows(2), width(1), maxlen(2), ...
            assert_eq!(buf.as_slice()[3] as usize, fp.elem_width(), "n={n}");
        }
    }

    #[test]
    fn both_formats_round_trip_exactly() {
        let samples = [
            CoinMsg::row(vec![]),
            CoinMsg::row(vec![vec![], vec![1, u64::MAX], vec![7]]),
            CoinMsg::echo(vec![]),
            CoinMsg::echo(vec![None, Some(vec![3, 9]), None, Some(vec![])]),
            CoinMsg::Vote { content: vec![] },
            CoinMsg::Vote {
                content: vec![true, false, true, true, false, false, true, true, false],
            },
            CoinMsg::recover(vec![Some(vec![0, 0, 0]), None]),
        ];
        for msg in &samples {
            for format in [WireFormat::Fixed, WireFormat::Packed] {
                let mut buf = bytes::BytesMut::new();
                format.encode_into(msg, &mut buf);
                assert_eq!(buf.len(), format.len_of(msg));
                let back: CoinMsg = format
                    .decode_from(buf.as_slice())
                    .unwrap_or_else(|| panic!("{msg:?} failed to decode ({format:?})"));
                assert_eq!(&back, msg, "{format:?}");
            }
        }
    }

    #[test]
    fn packed_encoding_handles_implausibly_large_clusters() {
        // n = 300 is beyond any realistic cluster but expressible through
        // the public builder; the two-byte packed counts must carry it
        // (a one-byte header panicked here).
        let vote = CoinMsg::Vote {
            content: (0..300).map(|i| i % 3 == 0).collect(),
        };
        let echo = CoinMsg::echo(
            (0..300u64)
                .map(|d| (d % 2 == 0).then(|| vec![d; 2]))
                .collect(),
        );
        for msg in [vote, echo] {
            let mut buf = bytes::BytesMut::new();
            WireFormat::Packed.encode_into(&msg, &mut buf);
            assert_eq!(buf.len(), WireFormat::Packed.len_of(&msg));
            assert_eq!(WireFormat::Packed.decode_from(buf.as_slice()), Some(msg));
        }
    }

    #[test]
    fn truncated_and_garbage_bytes_never_panic() {
        let msg = CoinMsg::echo(vec![Some(vec![5, 6]), None, Some(vec![7, 8])]);
        for format in [WireFormat::Fixed, WireFormat::Packed] {
            let mut buf = bytes::BytesMut::new();
            format.encode_into(&msg, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    format
                        .decode_from::<CoinMsg>(&buf.as_slice()[..cut])
                        .is_none(),
                    "truncation at {cut} must fail ({format:?})"
                );
            }
        }
        // Unknown tags and nonsense widths are rejected.
        assert!(WireFormat::Fixed.decode_from::<CoinMsg>(&[9]).is_none());
        assert!(WireFormat::Packed
            .decode_from::<CoinMsg>(&[0, 0, 1, 0, 0, 3, 0, 0])
            .is_none());
        assert!(WireFormat::Packed
            .decode_from::<CoinMsg>(&[0, 0, 1, 9, 0, 3, 0, 0])
            .is_none());
    }

    #[test]
    fn matrix_shape_validation() {
        let good = vec![Some(vec![1, 2]), None, Some(vec![3, 4])];
        assert!(check_matrix(&good, 3, 2).is_some());
        assert!(check_matrix(&good, 4, 2).is_none(), "wrong dealer count");
        assert!(check_matrix(&good, 3, 3).is_none(), "wrong target count");
        let ragged = vec![Some(vec![1]), Some(vec![2, 3])];
        assert!(check_matrix(&ragged, 2, 1).is_none());
    }
}
