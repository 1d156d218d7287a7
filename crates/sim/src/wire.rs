//! Wire encoding and decoding for protocol messages.
//!
//! The paper's §5 claims *constant message-complexity overhead* over the
//! 4-clock; experiment M1 verifies it in bytes, not just message counts.
//! Every protocol message therefore implements [`Wire`], a two-method
//! **codec**: [`Wire::encode`] writes a value through a [`WireWriter`],
//! [`Wire::decode`] parses it back from a [`WireReader`]. The runner's
//! *byte-boundary* mode ([`WireConfig::byte_boundary`]) actually
//! serializes each envelope at send time and re-parses it at delivery,
//! making the encoding the seam a cross-process backend stands on.
//!
//! # Formats
//!
//! Two formats share the codec; the [`WireFormat`] is a *parameter* of
//! both methods, not a second pair of them:
//!
//! - **Fixed** (default): the historical fixed-width encoding — every
//!   integer at its natural width, `Vec` lengths as `u32`. Byte-for-byte
//!   identical to the pre-codec accounting, so all golden reports pin it.
//! - **Packed**: a compact grammar for the hot matrix-shaped payloads.
//!   A message type with a profitable compact form branches on `format`
//!   (the GVSS `CoinMsg` does: field elements at their minimal
//!   self-described byte width — 1–2 bytes for the GVSS field, whose
//!   modulus is the smallest prime above `n`, see `Fp::elem_width` in
//!   `byzclock-field` — presence and vote vectors as bitsets, matrix row
//!   lengths as deltas against the per-message maximum). Scalars ignore
//!   `format`; wrappers and containers pass it down untouched, so packing
//!   is opt-in per message type and reaches a payload through any nesting.
//!
//! # Lengths
//!
//! There is no per-type length method. A [`WireWriter`] either appends to
//! a [`BytesMut`] or only counts, and [`WireFormat::len_of`] is `encode`
//! run against the counting one — so the length the accounting charges
//! and the bytes the boundary ships come from one description of the
//! layout and cannot drift apart.
//!
//! # Adding a message type
//!
//! Write one `encode` and one `decode` (enums: a tag byte via
//! [`WireWriter::put_tagged`], then the payload with `format` passed
//! down), and name the type in `tests/wire_properties.rs` — lint rule W1
//! fails the build until its round-trip and garbage-fuzz properties exist.
//! Mark a small `encode` `#[inline]` (a thin wrapper: `#[inline(always)]`),
//! see [`WireWriter`] for why.
//!
//! # Defensive decoding
//!
//! `decode` is total: truncated, malformed, or hostile bytes yield `None`,
//! never a panic, and a length header is both capped ([`MAX_WIRE_ELEMS`])
//! and never trusted for more capacity than the bytes that are actually
//! left, so a forged header cannot trigger a large allocation. The encode
//! side is trusted (correct nodes encode their own well-formed state) and
//! panics on unencodable values (e.g. vectors longer than `u32::MAX`).

use bytes::{BufMut, BytesMut};

/// Upper bound on any decoded collection length. Real protocol vectors are
/// bounded by the cluster size `n` (at most a few hundred); this cap only
/// exists so a forged 4-byte length header cannot make a decoder allocate
/// gigabytes before the element reads fail.
pub const MAX_WIRE_ELEMS: usize = 1 << 16;

/// Which wire encoding a run uses for its messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The historical fixed-width encoding (the default; golden reports
    /// pin its byte counts).
    #[default]
    Fixed,
    /// The compact encoding: minimal-width field elements, bitsets,
    /// length deltas. Types with no compact form encode exactly as in
    /// `Fixed`.
    Packed,
}

impl WireFormat {
    /// Encodes `msg` in this format, appending to `buf`.
    pub fn encode_into<M: Wire>(&self, msg: &M, buf: &mut BytesMut) {
        msg.encode(*self, &mut WireWriter::appending(buf));
    }

    /// Encoded length of `msg` in this format: one counting pass over the
    /// same `encode` that [`WireFormat::encode_into`] appends with.
    pub fn len_of<M: Wire>(&self, msg: &M) -> usize {
        let mut w = WireWriter::counting();
        msg.encode(*self, &mut w);
        w.written()
    }

    /// Parses one message from `bytes`, requiring the whole buffer to be
    /// consumed (trailing garbage means the envelope is malformed).
    pub fn decode_from<M: Wire>(&self, bytes: &[u8]) -> Option<M> {
        let mut r = WireReader::new(bytes);
        let msg = M::decode(*self, &mut r)?;
        r.is_empty().then_some(msg)
    }
}

/// How a simulation treats message bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireConfig {
    /// Encoding used for byte accounting (and for the byte boundary, when
    /// enabled).
    pub format: WireFormat,
    /// When set, the runner serializes every envelope at send time and
    /// re-parses it at delivery — messages actually cross a byte boundary
    /// instead of being moved in memory, and envelopes whose bytes fail to
    /// parse are dropped (a correct node's messages always round-trip;
    /// only hostile or stale garbage can fail).
    pub byte_boundary: bool,
}

impl WireConfig {
    /// Fixed-format, in-memory delivery — the historical default.
    pub fn fixed() -> Self {
        WireConfig::default()
    }

    /// Packed-format, in-memory delivery.
    pub fn packed() -> Self {
        WireConfig {
            format: WireFormat::Packed,
            byte_boundary: false,
        }
    }

    /// The same format, but with the byte boundary enabled.
    pub fn with_byte_boundary(mut self) -> Self {
        self.byte_boundary = true;
        self
    }
}

/// The encode-side twin of [`WireReader`]: a sink that either appends to
/// a [`BytesMut`] or only counts the bytes it is handed. One `encode`
/// body therefore yields both a message's bytes and its length.
///
/// The `put_*` methods and the scalar/container `encode`s are `#[inline]`
/// because message crates call them across the crate boundary: inlined,
/// the optimizer hoists the append-or-count test out of element loops and
/// folds a counted run of scalars into one multiplication, so
/// [`WireFormat::len_of`] costs per matrix *row*, not per element. The
/// thin wrapper enums and structs go one step further and mark `encode`
/// `#[inline(always)]`: the runner counts every envelope, a scalar clock
/// vote is most of them, and only when the whole wrapper chain is inlined
/// into `len_of` — where the writer is a local known to be counting —
/// does its length fold to the constant a hand-written method returned
/// (measured: ~1 ns against ~3.5 ns per message out of line).
#[derive(Debug)]
pub struct WireWriter<'a> {
    /// `None` counts only.
    buf: Option<&'a mut BytesMut>,
    written: usize,
}

impl<'a> WireWriter<'a> {
    /// A writer appending to `buf`.
    pub fn appending(buf: &'a mut BytesMut) -> Self {
        WireWriter {
            buf: Some(buf),
            written: 0,
        }
    }

    /// A writer that discards the bytes and only counts them.
    pub fn counting() -> Self {
        WireWriter {
            buf: None,
            written: 0,
        }
    }

    /// Bytes handed to this writer so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Writes raw bytes.
    #[inline]
    pub fn put_slice(&mut self, src: &[u8]) {
        if let Some(buf) = &mut self.buf {
            buf.put_slice(src);
        }
        self.written += src.len();
    }

    /// Writes one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a big-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a one-byte `tag` (an enum discriminant, a slot or round
    /// index) followed by `body` in `format` — the shape of every wrapper.
    #[inline]
    pub fn put_tagged<T: Wire>(&mut self, tag: u8, body: &T, format: WireFormat) {
        self.put_u8(tag);
        body.encode(format, self);
    }
}

/// A bounds-checked cursor over received bytes — the decode-side twin of
/// [`WireWriter`]. Every read is total: past-the-end reads return `None`.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|b| b.first().copied())
    }

    /// Consumes a big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        let b = self.take(2)?;
        Some(u16::from_be_bytes(b.try_into().ok()?))
    }

    /// Consumes a big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_be_bytes(b.try_into().ok()?))
    }

    /// Consumes a big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_be_bytes(b.try_into().ok()?))
    }
}

/// A type with a deterministic wire encoding *and* a defensive decoding.
///
/// [`Wire::encode`] must write a self-contained encoding of `self` in the
/// given format; [`Wire::decode`] must be its exact inverse on well-formed
/// bytes of that format and must return `None` (never panic, never
/// over-allocate) on truncated or malformed bytes. Types with one layout
/// ignore `format`; types built from other `Wire` values pass it down.
///
/// Both formats must round-trip every value of the type within their
/// documented count bounds (`u32` fixed `Vec` headers, `u16` packed
/// counts — both far beyond anything a `u16`-identified cluster can
/// construct), not just honest protocol states — Byzantine senders encode
/// arbitrary type-valid values.
pub trait Wire: Sized {
    /// Writes the encoding of `self` in `format` to `w`.
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>);

    /// Parses one value in `format`, consuming its bytes from `r`.
    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self>;
}

impl Wire for () {
    fn encode(&self, _format: WireFormat, _w: &mut WireWriter<'_>) {}

    fn decode(_format: WireFormat, _r: &mut WireReader<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, _format: WireFormat, w: &mut WireWriter<'_>) {
        w.put_u8(u8::from(*self));
    }

    fn decode(_format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

macro_rules! impl_wire_uint {
    ($($ty:ty => $put:ident, $get:ident),* $(,)?) => {
        $(
            impl Wire for $ty {
                #[inline]
                fn encode(&self, _format: WireFormat, w: &mut WireWriter<'_>) {
                    w.$put(*self);
                }

                fn decode(_format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
                    r.$get()
                }
            }
        )*
    };
}

impl_wire_uint! {
    u8 => put_u8, u8,
    u16 => put_u16, u16,
    u32 => put_u32, u32,
    u64 => put_u64, u64,
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            None => w.put_u8(0),
            Some(v) => w.put_tagged(1, v, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(format, r)?)),
            _ => None,
        }
    }
}

/// Encodes the length header of a [`Vec<T>`]. The encode side is trusted
/// (correct nodes encode their own state), so an oversized vector is a
/// programming error, not a recoverable condition.
///
/// # Panics
///
/// Panics if `len` does not fit in a `u32` — silent `as` truncation here
/// would make two different vectors encode identically.
#[inline]
fn put_vec_len(len: usize, w: &mut WireWriter<'_>) {
    let len = u32::try_from(len).expect("vector too long for the u32 wire length header");
    w.put_u32(len);
}

/// Decodes and sanity-checks a [`Vec<T>`] length header: a forged header
/// beyond [`MAX_WIRE_ELEMS`] is rejected before any allocation happens.
fn get_vec_len(r: &mut WireReader<'_>) -> Option<usize> {
    let len = r.u32()? as usize;
    (len <= MAX_WIRE_ELEMS).then_some(len)
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        put_vec_len(self.len(), w);
        for item in self {
            item.encode(format, w);
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        let len = get_vec_len(r)?;
        // Capacity is a hint: a header under the cap still reserves no more
        // than the bytes actually left (zero-sized elements decode at the
        // cap itself from an empty tail).
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(format, r)?);
        }
        Some(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        self.0.encode(format, w);
        self.1.encode(format, w);
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        Some((A::decode(format, r)?, B::decode(format, r)?))
    }
}

impl Wire for crate::NodeId {
    fn encode(&self, _format: WireFormat, w: &mut WireWriter<'_>) {
        w.put_u16(self.raw());
    }

    fn decode(_format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        r.u16().map(crate::NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FORMATS: [WireFormat; 2] = [WireFormat::Fixed, WireFormat::Packed];

    fn len_of<T: Wire>(v: &T) -> usize {
        WireFormat::Fixed.len_of(v)
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T, format: WireFormat) -> T {
        let mut buf = BytesMut::new();
        format.encode_into(v, &mut buf);
        assert_eq!(buf.len(), format.len_of(v), "counted length drifted");
        format
            .decode_from::<T>(buf.as_slice())
            .expect("well-formed bytes must decode")
    }

    #[test]
    fn primitive_lengths() {
        assert_eq!(len_of(&()), 0);
        assert_eq!(len_of(&true), 1);
        assert_eq!(len_of(&7u8), 1);
        assert_eq!(len_of(&7u16), 2);
        assert_eq!(len_of(&7u32), 4);
        assert_eq!(len_of(&7u64), 8);
        assert_eq!(len_of(&crate::NodeId::new(3)), 2);
    }

    #[test]
    fn option_and_vec_lengths() {
        assert_eq!(len_of(&Option::<u64>::None), 1);
        assert_eq!(len_of(&Some(7u64)), 9);
        assert_eq!(len_of(&vec![1u32, 2, 3]), 4 + 12);
        assert_eq!(len_of(&(7u8, 9u64)), 9);
    }

    #[test]
    fn primitives_round_trip_in_both_formats() {
        for format in FORMATS {
            round_trip(&(), format);
            assert!(round_trip(&true, format));
            assert_eq!(round_trip(&0xAB_u8, format), 0xAB);
            assert_eq!(round_trip(&0xABCD_u16, format), 0xABCD);
            assert_eq!(round_trip(&0xDEAD_BEEF_u32, format), 0xDEAD_BEEF);
            assert_eq!(round_trip(&u64::MAX, format), u64::MAX);
            assert_eq!(
                round_trip(&crate::NodeId::new(9), format),
                crate::NodeId::new(9)
            );
            assert_eq!(round_trip(&Some(5u64), format), Some(5));
            assert_eq!(round_trip(&Option::<u64>::None, format), None);
            assert_eq!(round_trip(&vec![1u16, 2, 3], format), vec![1, 2, 3]);
            assert_eq!(round_trip(&(3u8, 4u32), format), (3, 4));
        }
    }

    #[test]
    fn truncated_bytes_decode_to_none() {
        let mut buf = BytesMut::new();
        WireFormat::Fixed.encode_into(&vec![1u64, 2, 3], &mut buf);
        for cut in 0..buf.len() {
            let cut_bytes = &buf.as_slice()[..cut];
            assert!(
                WireFormat::Fixed
                    .decode_from::<Vec<u64>>(cut_bytes)
                    .is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_by_decode_from() {
        let mut buf = BytesMut::new();
        WireFormat::Fixed.encode_into(&7u32, &mut buf);
        buf.put_u8(0xFF);
        assert_eq!(WireFormat::Fixed.decode_from::<u32>(buf.as_slice()), None);
    }

    #[test]
    fn forged_length_headers_cannot_allocate() {
        // A 4-byte header claiming u32::MAX elements of a zero-sized type:
        // without the cap this would try a 4-gigabyte Vec.
        let forged = u32::MAX.to_be_bytes();
        assert!(WireFormat::Fixed.decode_from::<Vec<()>>(&forged).is_none());
        // At the cap itself, zero-sized elements still decode fine — from
        // an empty tail, so the reserve-what-is-left rule is only a hint.
        let at_cap = (MAX_WIRE_ELEMS as u32).to_be_bytes();
        assert_eq!(
            WireFormat::Fixed
                .decode_from::<Vec<()>>(&at_cap)
                .map(|v| v.len()),
            Some(MAX_WIRE_ELEMS)
        );
        // The same header for an element type that is expensive to
        // reserve (65 536 x size_of::<Option<Vec<u64>>>() = 2 MB if the
        // header were trusted): with nothing behind it the decoder
        // reserves nothing and fails at the first element read.
        assert!(WireFormat::Fixed
            .decode_from::<Vec<Option<Vec<u64>>>>(&at_cap)
            .is_none());
    }

    #[test]
    fn invalid_bool_and_option_flags_are_rejected() {
        assert!(WireFormat::Fixed.decode_from::<bool>(&[2]).is_none());
        assert!(WireFormat::Fixed
            .decode_from::<Option<u8>>(&[7, 0])
            .is_none());
    }

    #[test]
    #[should_panic(expected = "u32 wire length header")]
    fn oversized_vec_length_panics_instead_of_truncating() {
        put_vec_len(u32::MAX as usize + 1, &mut WireWriter::counting());
    }

    #[test]
    fn reader_is_a_cursor() {
        let bytes = [1u8, 0, 2, 9];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.u16(), Some(2));
        assert_eq!(r.u8(), Some(9));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
        assert_eq!(r.take(1), None);
    }

    proptest! {
        /// The writer's two modes agree: a counting pass and an appending
        /// pass over the same value both report exactly the bytes that
        /// landed in the buffer (the appending one past a non-empty
        /// prefix, which it must not count).
        #[test]
        fn counting_and_appending_writers_agree(v in proptest::collection::vec(proptest::option::of(any::<u64>()), 0..20), prefix in 0usize..4) {
            for format in FORMATS {
                let mut buf = BytesMut::new();
                buf.put_slice(&[0xEE; 4][..prefix]);
                let mut appending = WireWriter::appending(&mut buf);
                v.encode(format, &mut appending);
                let appended = appending.written();
                let mut counting = WireWriter::counting();
                v.encode(format, &mut counting);
                prop_assert_eq!(appended, buf.len() - prefix);
                prop_assert_eq!(counting.written(), buf.len() - prefix);
            }
        }

        /// Generic containers round-trip exactly in both formats.
        #[test]
        fn containers_round_trip(v in proptest::collection::vec(proptest::option::of(any::<u64>()), 0..20)) {
            for format in FORMATS {
                prop_assert_eq!(&round_trip(&v, format), &v);
            }
        }

        /// Arbitrary garbage bytes never panic a decoder.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            for format in FORMATS {
                let _ = format.decode_from::<Vec<u64>>(&bytes);
                let _ = format.decode_from::<Option<(u8, u64)>>(&bytes);
                let _ = format.decode_from::<bool>(&bytes);
            }
        }
    }
}
