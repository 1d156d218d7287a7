//! Regression tests for the checked decode paths (lint rule P1).
//!
//! The worst pre-existing offenders in the never-panic-on-forged-bytes
//! contract were the *unchecked-indexing* readers: `WireReader::{u8,u16,
//! u32,u64}` indexed `b[0]..b[7]` into the slice `take` returned, and the
//! packed bitset reader indexed `bytes[i / 8]` — all safe only through a
//! non-local invariant relating the `take` size to the loop bound. Those
//! bodies are now written in checked form (`try_into`, `get`), which the
//! `byzclock-lint` pass (`P1`) holds them to, and this file pins the byte
//! patterns that exercised the old invariant, so a regression either
//! panics here or trips the linter.
//!
//! Forged *length* headers are pinned the same way: every decoder reserves
//! at most what the remaining bytes could hold, and the last test watches
//! the allocator to prove it.

use byzclock_coin::CoinMsg;
use byzclock_sim::{WireFormat, WireReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request it saw.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a statistic that touches no
// allocator state.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Truncated multi-byte reads return `None` at every cut point; exact
/// reads round-trip. This is the invariant the old `b[0]..b[7]` indexing
/// silently relied on `take` to uphold.
#[test]
fn multibyte_reads_are_total_at_every_truncation() {
    let bytes = 0x0123_4567_89ab_cdefu64.to_be_bytes();
    for cut in 0..bytes.len() {
        let short = &bytes[..cut];
        if cut < 1 {
            assert_eq!(WireReader::new(short).u8(), None);
        }
        if cut < 2 {
            assert_eq!(WireReader::new(short).u16(), None);
        }
        if cut < 4 {
            assert_eq!(WireReader::new(short).u32(), None);
        }
        if cut < 8 {
            assert_eq!(WireReader::new(short).u64(), None);
        }
    }
    assert_eq!(WireReader::new(&bytes).u8(), Some(0x01));
    assert_eq!(WireReader::new(&bytes).u16(), Some(0x0123));
    assert_eq!(WireReader::new(&bytes).u32(), Some(0x0123_4567));
    assert_eq!(WireReader::new(&bytes).u64(), Some(0x0123_4567_89ab_cdef));
}

/// Packed `Vote` bitsets at every length that straddles a byte boundary:
/// a count header whose bitset bytes are all present decodes, and every
/// truncation of those bytes fails cleanly. The old reader indexed
/// `bytes[i / 8]` across exactly this boundary.
#[test]
fn packed_vote_bitset_boundaries_decode_or_fail_cleanly() {
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 65] {
        let content: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
        let msg = CoinMsg::vote(content);
        let mut buf = bytes::BytesMut::new();
        WireFormat::Packed.encode_into(&msg, &mut buf);
        assert_eq!(
            WireFormat::Packed.decode_from::<CoinMsg>(buf.as_slice()),
            Some(msg),
            "len={len} round trip"
        );
        for cut in 0..buf.len() {
            assert_eq!(
                WireFormat::Packed.decode_from::<CoinMsg>(&buf.as_slice()[..cut]),
                None,
                "len={len} truncated at {cut} must fail"
            );
        }
    }
}

/// A forged count header far beyond the actual payload: the decoder must
/// reject it without panicking and without allocating the claimed size.
#[test]
fn forged_vote_count_header_is_rejected() {
    // tag=2 (Vote), count=0xffff, then a single bitset byte instead of
    // the 8192 the header promises.
    let forged = [2u8, 0xff, 0xff, 0xaa];
    assert_eq!(WireFormat::Packed.decode_from::<CoinMsg>(&forged), None);
    // Same forgery against the optioned-matrix presence bitset.
    let forged = [1u8, 0xff, 0xff, 0xaa];
    assert_eq!(WireFormat::Packed.decode_from::<CoinMsg>(&forged), None);
    let forged = [3u8, 0xff, 0xff];
    assert_eq!(WireFormat::Packed.decode_from::<CoinMsg>(&forged), None);
}

/// Length headers at their caps over an empty tail: each used to reserve
/// `len x size_of::<T>()` (1.5 MB for a fixed `Echo`) before the first
/// element read failed. Nothing in this test binary legitimately asks the
/// allocator for more than a few KB, so the largest request seen stays
/// far below what one trusted header would have cost.
#[test]
fn forged_headers_over_an_empty_tail_reserve_nothing() {
    // Fixed Echo: tag=1, u32 len = MAX_WIRE_ELEMS, no elements.
    let fixed_echo = [1u8, 0, 1, 0, 0];
    assert_eq!(WireFormat::Fixed.decode_from::<CoinMsg>(&fixed_echo), None);
    // Fixed Row: the same header one level down, inside a one-row matrix.
    let fixed_row = [0u8, 0, 0, 0, 1, 0, 1, 0, 0];
    assert_eq!(WireFormat::Fixed.decode_from::<CoinMsg>(&fixed_row), None);
    // Packed Row: nrows = 0xffff, width 1, maxlen 0, no row deltas.
    let packed_rows = [0u8, 0xff, 0xff, 1, 0, 0];
    assert_eq!(
        WireFormat::Packed.decode_from::<CoinMsg>(&packed_rows),
        None
    );
    // Packed Row: one row, maxlen = 0xffff, delta 0, no elements.
    let packed_row_len = [0u8, 0, 1, 1, 0xff, 0xff, 0, 0];
    assert_eq!(
        WireFormat::Packed.decode_from::<CoinMsg>(&packed_row_len),
        None
    );
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 64 * 1024,
        "a decoder trusted a forged length header: {largest}-byte request"
    );
}
