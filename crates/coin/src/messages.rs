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
//!
//! # Flat payloads
//!
//! The three matrix payloads are [`FlatMatrix`]es: one `Vec` of elements
//! plus a span per row, so a matrix is two allocations however many rows
//! it has, and both formats encode and decode it in place. The bytes are
//! those of the nested `Vec<Vec<u64>>` (`Row`) and `Vec<Option<Vec<u64>>>`
//! (`Echo`, `Recover`) layouts the payloads used to be, in both formats.

use byzclock_sim::{Wire, WireFormat, WireReader, WireWriter, MAX_WIRE_ELEMS};
use std::sync::Arc;

/// A matrix of wire values in one flat block: every present row's
/// elements in one `Vec`, in row order with no gaps, plus each row's span
/// in it. Two matrices with the same rows are therefore equal field for
/// field.
///
/// Rows may be absent (an `Echo`/`Recover` dealer the sender holds
/// nothing for) and may have any length — a Byzantine sender can say
/// anything — so receivers validate shape before use. Every accessor is
/// total: a row that is absent or out of range reads as `None`.
///
/// # Example
///
/// ```
/// use byzclock_coin::FlatMatrix;
///
/// let m = FlatMatrix::from_rows([Some(&[1, 2][..]), None, Some(&[3][..])]);
/// assert_eq!(m.len(), 3);
/// assert_eq!(m.get(0), Some(&[1, 2][..]));
/// assert_eq!(m.get(1), None);
/// assert_eq!(m.elems(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatMatrix {
    /// The present rows' elements, back to back.
    elems: Vec<u64>,
    /// Per row: its `start..end` span in `elems`, `None` when absent.
    spans: Vec<Option<(usize, usize)>>,
}

impl FlatMatrix {
    /// An empty matrix with room for `rows` rows of `elems` elements in
    /// all.
    pub(crate) fn with_capacity(rows: usize, elems: usize) -> Self {
        FlatMatrix {
            elems: Vec::with_capacity(elems),
            spans: Vec::with_capacity(rows),
        }
    }

    /// One row per entry of `present`: `width` zeros where it is `true`,
    /// absent where it is `false`. The `k`-th present row is
    /// `elems_mut()[k·width..(k+1)·width]`, which is how a sender fills
    /// the rectangular payloads in place.
    pub(crate) fn zeroed(present: &[bool], width: usize) -> Self {
        let rows = present.iter().filter(|&&p| p).count();
        let mut spans = Vec::with_capacity(present.len());
        let mut start = 0;
        for &p in present {
            spans.push(p.then(|| {
                start += width;
                (start - width, start)
            }));
        }
        FlatMatrix {
            elems: vec![0; rows * width],
            spans,
        }
    }

    /// The matrix holding `rows` (`None` = absent), in order.
    pub fn from_rows<'a>(rows: impl IntoIterator<Item = Option<&'a [u64]>>) -> Self {
        let mut m = FlatMatrix::default();
        for row in rows {
            match row {
                Some(row) => m.push_row_with(|elems| elems.extend_from_slice(row)),
                None => m.push_absent(),
            }
        }
        m
    }

    /// Appends a present row made of whatever `fill` appends to the
    /// element buffer, and returns what `fill` returns. `fill` must only
    /// append: it sees the buffer that holds the earlier rows too.
    pub(crate) fn push_row_with<T>(&mut self, fill: impl FnOnce(&mut Vec<u64>) -> T) -> T {
        let start = self.elems.len();
        let out = fill(&mut self.elems);
        self.spans.push(Some((start, self.elems.len())));
        out
    }

    /// Appends an absent row.
    pub(crate) fn push_absent(&mut self) {
        self.spans.push(None);
    }

    /// Number of rows, absent ones included.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Row `row`, or `None` when it is absent or out of range.
    pub fn get(&self, row: usize) -> Option<&[u64]> {
        let (start, end) = (*self.spans.get(row)?)?;
        self.elems.get(start..end)
    }

    /// Every row in order, `None` for the absent ones.
    pub fn rows(&self) -> impl Iterator<Item = Option<&[u64]>> + Clone + '_ {
        self.spans
            .iter()
            .map(|span| span.and_then(|(start, end)| self.elems.get(start..end)))
    }

    /// All present rows' elements, back to back.
    pub fn elems(&self) -> &[u64] {
        &self.elems
    }

    /// The elements, writable in place (the row structure is not).
    pub(crate) fn elems_mut(&mut self) -> &mut [u64] {
        &mut self.elems
    }
}

/// One round's payload of a coin instance.
///
/// Indexing conventions: `[dealer]` rows always number `n` (absent for
/// dealers the sender has nothing for); `[target]` rows have length
/// `targets` (the per-dealer secret count — `n` for the ticket coin, 1 for
/// the XOR coin).
///
/// Every payload sits behind an [`Arc`] — the three matrices as
/// [`FlatMatrix`]es, the vote as a `[bool]`: a message is built once and
/// then only read, while the runner and every demultiplexing layer above
/// the coin clone it (per broadcast recipient, into the phantom-replay
/// history, per delivery), so each of those clones is a reference-count
/// bump instead of a copy of an O(n·targets) matrix or an `n`-entry vote.
/// The protocol builds them flat; [`CoinMsg::row`], [`CoinMsg::echo`],
/// [`CoinMsg::vote`] and [`CoinMsg::recover`] build them from vectors,
/// for adversaries and tests. The matrices may be ragged — a Byzantine sender can say
/// anything — and receivers validate shape before use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoinMsg {
    /// Round 0, dealer → node `i`: the row polynomials `S_j(x, i)`, one
    /// per target `j` (coefficient vectors, constant term first). Every
    /// row is present; one built absent encodes as an empty row, and the
    /// receiver refuses the message.
    Row {
        /// `[target] -> row-polynomial coefficients`.
        rows: Arc<FlatMatrix>,
    },
    /// Round 1, node `i` → node `m`: cross-points `S_j(m, i)` for every
    /// dealer (absent where `i` holds no row from that dealer).
    Echo {
        /// `[dealer] -> [target] -> point value`.
        points: Arc<FlatMatrix>,
    },
    /// Round 2, broadcast: per-dealer contentment (enough matching echoes).
    Vote {
        /// `[dealer] -> content`.
        content: Arc<[bool]>,
    },
    /// Round 3 (recover), broadcast: the sender's secret shares
    /// `S_j(0, sender)` for every dealer it holds rows from.
    Recover {
        /// `[dealer] -> [target] -> share value`.
        shares: Arc<FlatMatrix>,
    },
}

impl CoinMsg {
    /// A [`CoinMsg::Row`] carrying `rows`.
    pub fn row(rows: Vec<Vec<u64>>) -> Self {
        CoinMsg::Row {
            rows: Arc::new(FlatMatrix::from_rows(
                rows.iter().map(|r| Some(r.as_slice())),
            )),
        }
    }

    /// A [`CoinMsg::Echo`] carrying `points`.
    pub fn echo(points: Vec<Option<Vec<u64>>>) -> Self {
        CoinMsg::Echo {
            points: Arc::new(FlatMatrix::from_rows(points.iter().map(Option::as_deref))),
        }
    }

    /// A [`CoinMsg::Vote`] carrying `content`.
    pub fn vote(content: Vec<bool>) -> Self {
        CoinMsg::Vote {
            content: content.into(),
        }
    }

    /// A [`CoinMsg::Recover`] carrying `shares`.
    pub fn recover(shares: Vec<Option<Vec<u64>>>) -> Self {
        CoinMsg::Recover {
            shares: Arc::new(FlatMatrix::from_rows(shares.iter().map(Option::as_deref))),
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

/// Fixed-format `u32` length header, as `Vec<T>`'s [`Wire`] impl writes
/// it.
///
/// # Panics
///
/// Panics above `u32::MAX`, like `Vec<T>`'s header (the encode side is
/// trusted).
fn put_fixed_len(len: usize, w: &mut WireWriter<'_>) {
    let len = u32::try_from(len).expect("vector too long for the u32 wire length header");
    w.put_u32(len);
}

/// Reads a fixed-format length header, refusing one beyond
/// [`MAX_WIRE_ELEMS`] as `Vec<T>`'s decode does.
fn get_fixed_len(r: &mut WireReader<'_>) -> Option<usize> {
    let len = r.u32()? as usize;
    (len <= MAX_WIRE_ELEMS).then_some(len)
}

/// Fixed layout of a matrix, written from the flat form: the bytes of the
/// generic `Vec<Vec<u64>>` encoding, or with `optioned` of
/// `Vec<Option<Vec<u64>>>` — a `u32` row count, then per row an optional
/// presence byte, a `u32` length and `u64` elements. Without `optioned`
/// an absent row is written as an empty one.
fn put_fixed_matrix(m: &FlatMatrix, optioned: bool, w: &mut WireWriter<'_>) {
    put_fixed_len(m.len(), w);
    for row in m.rows() {
        if optioned {
            w.put_u8(u8::from(row.is_some()));
            if row.is_none() {
                continue;
            }
        }
        let row = row.unwrap_or_default();
        put_fixed_len(row.len(), w);
        for &v in row {
            w.put_u64(v);
        }
    }
}

/// Inverse of [`put_fixed_matrix`], decoding straight into the flat form.
fn get_fixed_matrix(r: &mut WireReader<'_>, optioned: bool) -> Option<FlatMatrix> {
    let rows = get_fixed_len(r)?;
    // Capacity is a hint: forged counts reserve no more than the bytes
    // actually left (a row costs at least a byte, an element eight).
    let mut m = FlatMatrix::with_capacity(rows.min(r.remaining()), r.remaining() / 8);
    for _ in 0..rows {
        if optioned {
            match r.u8()? {
                0 => {
                    m.push_absent();
                    continue;
                }
                1 => {}
                _ => return None,
            }
        }
        let len = get_fixed_len(r)?;
        m.push_row_with(|elems| {
            for _ in 0..len {
                elems.push(r.u64()?);
            }
            Some(())
        })?;
    }
    Some(m)
}

/// Packed encoding of an element matrix: the shared body of `Row` (every
/// row) and `Echo`/`Recover` (the present rows). Layout: `width: u8`,
/// `maxlen: u16`, then per row a two-byte length delta followed by `len`
/// elements of `width` bytes. `elems` is the flat block the rows live in,
/// so the width is one pass over it.
fn put_matrix<'a>(
    elems: &[u64],
    rows: impl Iterator<Item = &'a [u64]> + Clone,
    w: &mut WireWriter<'_>,
) {
    let width = min_width(elems.iter().copied());
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

/// Packed layout of a matrix: `rows: u16`, for `optioned` payloads
/// (`Echo`, `Recover`) a presence bitset, then the present rows through
/// [`put_matrix`]. Without `optioned` (`Row`) every row is written, an
/// absent one as an empty one.
fn put_packed_matrix(m: &FlatMatrix, optioned: bool, w: &mut WireWriter<'_>) {
    put_count(m.len(), w);
    if optioned {
        put_bitset(m.rows().map(|row| row.is_some()), w);
        put_matrix(m.elems(), m.rows().flatten(), w);
    } else {
        put_matrix(m.elems(), m.rows().map(Option::unwrap_or_default), w);
    }
}

/// Inverse of [`put_packed_matrix`], decoding straight into the flat form.
fn get_packed_matrix(r: &mut WireReader<'_>, optioned: bool) -> Option<FlatMatrix> {
    let rows = get_count(r)?;
    let presence = if optioned {
        Some(r.take(rows.div_ceil(8))?)
    } else {
        None
    };
    let width = r.u8()? as usize;
    if !(1..=8).contains(&width) {
        return None;
    }
    let maxlen = get_count(r)?;
    // Capacity is a hint: forged counts reserve no more than the bytes
    // actually left (a present row costs its two-byte delta, an element
    // at least a byte).
    let elems = rows.saturating_mul(maxlen).min(r.remaining());
    let mut m = FlatMatrix::with_capacity(rows.min(r.remaining()), elems);
    for i in 0..rows {
        let present = match presence {
            Some(bits) => bits.get(i / 8)? >> (i % 8) & 1 == 1,
            None => true,
        };
        if !present {
            m.push_absent();
            continue;
        }
        let len = maxlen.checked_sub(get_count(r)?)?;
        m.push_row_with(|elems| {
            for _ in 0..len {
                elems.push(get_elem(r, width)?);
            }
            Some(())
        })?;
    }
    Some(m)
}

impl Wire for CoinMsg {
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        let (tag, matrix, optioned) = match self {
            CoinMsg::Vote { content } => {
                w.put_u8(2);
                match format {
                    // `Vec<bool>`'s layout: a `u32` count, a byte per entry.
                    WireFormat::Fixed => {
                        let len = u32::try_from(content.len())
                            .expect("vote too long for the u32 wire length header");
                        w.put_u32(len);
                        content.iter().for_each(|b| b.encode(format, w));
                    }
                    WireFormat::Packed => {
                        put_count(content.len(), w);
                        put_bitset(content.iter().copied(), w);
                    }
                }
                return;
            }
            CoinMsg::Row { rows } => (0, rows, false),
            CoinMsg::Echo { points } => (1, points, true),
            CoinMsg::Recover { shares } => (3, shares, true),
        };
        w.put_u8(tag);
        match format {
            WireFormat::Fixed => put_fixed_matrix(matrix, optioned, w),
            WireFormat::Packed => put_packed_matrix(matrix, optioned, w),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        let tag = r.u8()?;
        let optioned = match tag {
            0 => false,
            1 | 3 => true,
            2 => {
                let content: Vec<bool> = match format {
                    WireFormat::Fixed => Wire::decode(format, r)?,
                    WireFormat::Packed => {
                        let len = get_count(r)?;
                        get_bitset(r, len)?
                    }
                };
                return Some(CoinMsg::vote(content));
            }
            _ => return None,
        };
        let matrix = Arc::new(match format {
            WireFormat::Fixed => get_fixed_matrix(r, optioned)?,
            WireFormat::Packed => get_packed_matrix(r, optioned)?,
        });
        Some(match tag {
            0 => CoinMsg::Row { rows: matrix },
            1 => CoinMsg::Echo { points: matrix },
            _ => CoinMsg::Recover { shares: matrix },
        })
    }
}

/// Validates a per-dealer matrix: it must have `dealers` rows, and every
/// present row must have length `targets`. Returns `None` on any shape
/// violation (the message is then ignored).
pub(crate) fn check_matrix(m: &FlatMatrix, dealers: usize, targets: usize) -> Option<&FlatMatrix> {
    (m.len() == dealers && m.rows().flatten().all(|row| row.len() == targets)).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_field::Fp;
    use byzclock_sim::WireFormat;

    #[test]
    fn wire_lengths() {
        let m = CoinMsg::vote(vec![true, false, true]);
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

        let vote = CoinMsg::vote(vec![true; 7]);
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
            CoinMsg::vote(vec![]),
            CoinMsg::vote(vec![
                true, false, true, true, false, false, true, true, false,
            ]),
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
        let vote = CoinMsg::vote((0..300).map(|i| i % 3 == 0).collect());
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
        let good = FlatMatrix::from_rows([Some(&[1, 2][..]), None, Some(&[3, 4][..])]);
        assert!(check_matrix(&good, 3, 2).is_some());
        assert!(check_matrix(&good, 4, 2).is_none(), "wrong dealer count");
        assert!(check_matrix(&good, 3, 3).is_none(), "wrong target count");
        let ragged = FlatMatrix::from_rows([Some(&[1][..]), Some(&[2, 3][..])]);
        assert!(check_matrix(&ragged, 2, 1).is_none());
    }

    #[test]
    fn flat_accessors_are_total() {
        let m = FlatMatrix::from_rows([None, Some(&[][..]), Some(&[5, 6][..])]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0), None, "absent");
        assert_eq!(m.get(1), Some(&[][..]), "present and empty");
        assert_eq!(m.get(2), Some(&[5, 6][..]));
        assert_eq!(m.get(3), None, "out of range");
        assert_eq!(
            m.rows().collect::<Vec<_>>(),
            [None, Some(&[][..]), Some(&[5, 6][..])]
        );
        let mut z = FlatMatrix::zeroed(&[true, false, true], 2);
        z.elems_mut().copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(
            z,
            FlatMatrix::from_rows([Some(&[1, 2][..]), None, Some(&[3, 4][..])])
        );
    }

    /// A `Row` built with an absent row (the protocol never builds one)
    /// ships it as an empty row in both formats.
    #[test]
    fn an_absent_row_in_a_row_payload_encodes_as_empty() {
        let absent = CoinMsg::Row {
            rows: Arc::new(FlatMatrix::from_rows([None, Some(&[4][..])])),
        };
        for format in [WireFormat::Fixed, WireFormat::Packed] {
            let mut buf = bytes::BytesMut::new();
            format.encode_into(&absent, &mut buf);
            assert_eq!(buf.len(), format.len_of(&absent));
            let back: CoinMsg = format.decode_from(buf.as_slice()).unwrap();
            assert_eq!(back, CoinMsg::row(vec![vec![], vec![4]]), "{format:?}");
        }
    }
}
