//! Wire-codec micro-benchmarks: encode and decode cost of the GVSS
//! messages that dominate experiment M1's bytes, fixed vs packed.
//!
//! The packed format trades a little arithmetic (width scanning, bitset
//! assembly) for a 4–7x byte reduction on the matrix messages; these
//! benches price that trade per message so a future cross-process backend
//! knows what the serialization seam costs at line rate.

use bytes::BytesMut;
use byzclock::coin::CoinMsg;
use byzclock::sim::WireFormat;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A beat-shaped `Echo`: all `n` dealers present, `n` targets each,
/// values reduced into the cluster field (the ticket coin's hot message).
fn echo_msg(n: usize) -> CoinMsg {
    let p = byzclock::field::Fp::for_cluster(n).modulus();
    CoinMsg::echo(
        (0..n)
            .map(|d| Some((0..n).map(|t| ((d * 31 + t * 7) as u64) % p).collect()))
            .collect(),
    )
}

/// A beat-shaped `Row`: `n` targets, `f + 1` coefficients each.
fn row_msg(n: usize, f: usize) -> CoinMsg {
    let p = byzclock::field::Fp::for_cluster(n).modulus();
    CoinMsg::row(
        (0..n)
            .map(|t| (0..=f).map(|c| ((t * 13 + c * 5) as u64) % p).collect())
            .collect(),
    )
}

fn bench_codec(c: &mut Criterion) {
    for (label, msg) in [
        ("echo_n7", echo_msg(7)),
        ("echo_n13", echo_msg(13)),
        ("row_n7_f2", row_msg(7, 2)),
    ] {
        let group_name = format!("wire_{label}");
        let mut group = c.benchmark_group(group_name.as_str());
        for format in [WireFormat::Fixed, WireFormat::Packed] {
            let name = match format {
                WireFormat::Fixed => "fixed",
                WireFormat::Packed => "packed",
            };
            group.bench_with_input(BenchmarkId::new("encode", name), &msg, |b, msg| {
                let mut buf = BytesMut::with_capacity(1024);
                b.iter(|| {
                    buf.clear();
                    format.encode_into(black_box(msg), &mut buf);
                    buf.len()
                })
            });
            let mut bytes = BytesMut::new();
            format.encode_into(&msg, &mut bytes);
            group.bench_with_input(BenchmarkId::new("decode", name), &bytes, |b, bytes| {
                b.iter(|| format.decode_from::<CoinMsg>(black_box(bytes.as_slice())))
            });
        }
        group.finish();
    }
}

/// The whole-envelope boundary cost: encode + re-parse, as the
/// byte-boundary runner pays it per scheduled envelope.
fn bench_boundary(c: &mut Criterion) {
    let msg = echo_msg(7);
    for format in [WireFormat::Fixed, WireFormat::Packed] {
        let name = match format {
            WireFormat::Fixed => "fixed",
            WireFormat::Packed => "packed",
        };
        let id = format!("wire_boundary_echo_n7/{name}");
        c.bench_function(id.as_str(), |b| {
            b.iter(|| {
                let mut buf = BytesMut::with_capacity(512);
                format.encode_into(black_box(&msg), &mut buf);
                format.decode_from::<CoinMsg>(buf.as_slice())
            })
        });
    }
}

criterion_group!(benches, bench_codec, bench_boundary);
criterion_main!(benches);
