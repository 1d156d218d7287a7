//! The coin's steady-state kernels allocate nothing, counted at the
//! allocator: the four GVSS receive rounds of an instance that runs on a
//! warm per-node workspace, and the field kernels they run per row and
//! per codeword — `Fp::eval_columns` and the codeword check a cached
//! `BatchDecoder` makes on its clean and erasure rungs.
//!
//! "Warm" means one instance has already run on the same workspaces: its
//! storage went back to the pool when its cores dropped, and the recover
//! round built and cached the decoder for the opened point set. Building
//! that decoder copies the point set — the cold path, once per distinct
//! point set per run. The send rounds are not counted: each payload is a
//! fresh vector behind an `Arc` (see `tests/coin_alloc_beat.rs`).

use byzclock_coin::{CoinMsg, GvssCore, GvssWorkspace};
use byzclock_field::{BatchDecoder, Fp, Poly};
use byzclock_sim::{NodeCfg, NodeId, SimRng, Target};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting requests per calling thread so the
/// harness's own threads cannot disturb the figure.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local statistic
// (a const-initialised `Cell` without a destructor, so reading it never
// allocates or re-enters the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout` (above), and
        // the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Every node's inbox for one round of sends.
fn route(n: usize, sends: Vec<Vec<(Target, CoinMsg)>>) -> Vec<Vec<(NodeId, CoinMsg)>> {
    let mut inboxes: Vec<Vec<(NodeId, CoinMsg)>> = vec![Vec::new(); n];
    for (from, outs) in sends.into_iter().enumerate() {
        let from = NodeId::new(from as u16);
        for (target, msg) in outs {
            match target {
                Target::All => inboxes.iter_mut().for_each(|i| i.push((from, msg.clone()))),
                Target::One(to) => inboxes[to.index()].push((from, msg)),
            }
        }
    }
    inboxes
}

/// One honest instance on `workspaces`, all four rounds: the allocator
/// calls each receive round made, summed over the nodes.
fn receive_allocations(
    n: usize,
    f: usize,
    workspaces: &[GvssWorkspace],
    rng: &mut SimRng,
) -> [u64; 4] {
    let mut cores: Vec<GvssCore> = workspaces
        .iter()
        .enumerate()
        .map(|(i, ws)| {
            GvssCore::with_workspace(NodeCfg::new(NodeId::new(i as u16), n, f), n, ws.clone())
        })
        .collect();
    let mut counts = [0; 4];
    for (round, count) in counts.iter_mut().enumerate() {
        let sends = cores
            .iter_mut()
            .map(|core| {
                let mut out = Vec::new();
                match round {
                    0 => core.send_share(rng, |r| r.random_range(0..n as u64), &mut out),
                    1 => core.send_echo(&mut out),
                    2 => core.send_vote(&mut out),
                    _ => core.send_recover(&mut out),
                }
                out
            })
            .collect();
        for (core, inbox) in cores.iter_mut().zip(route(n, sends)) {
            *count += allocations(|| match round {
                0 => core.recv_share(&inbox),
                1 => core.recv_echo(&inbox),
                2 => core.recv_vote(&inbox),
                _ => core.recv_recover(&inbox),
            });
        }
    }
    assert!(cores.iter().all(|c| c.included().count() == n));
    counts
}

#[test]
fn warm_gvss_receive_rounds_allocate_nothing() {
    let (n, f) = (13, 4);
    let workspaces: Vec<GvssWorkspace> = (0..n).map(|_| GvssWorkspace::new()).collect();
    let mut rng = SimRng::seed_from_u64(7);
    let cold = receive_allocations(n, f, &workspaces, &mut rng);
    assert!(cold[3] > 0, "the first recover round builds the decoders");
    for _ in 0..3 {
        let warm = receive_allocations(n, f, &workspaces, &mut rng);
        assert_eq!(
            warm, [0; 4],
            "recv_share, recv_echo, recv_vote, recv_recover"
        );
    }
}

#[test]
fn eval_columns_allocates_nothing() {
    let fp = Fp::for_cluster(13);
    let table = fp.power_columns(&[1, 2, 3, 4, 5], 4);
    let mut out = [0; 5];
    let used = allocations(|| fp.eval_columns(&[5u64, 0, 1, 7], &table, &mut out));
    assert_eq!(used, 0);
    assert_eq!(out[0], fp.reduce(5 + 1 + 7));
}

/// The codeword check (`LinearTables::fits`) runs inside every decode a
/// cached decoder answers on a linear rung: the clean rung for an honest
/// view, the erasure rung once Berlekamp–Welch has taught it the liars.
#[test]
fn a_cached_decoders_codeword_checks_allocate_nothing() {
    let (n, f) = (13, 4);
    let fp = Fp::for_cluster(n);
    let xs: Vec<u64> = (1..=n as u64).collect();
    let mut decoder = BatchDecoder::new(&fp, &xs, f).expect("distinct points");
    let poly = Poly::from_coeffs(vec![9, 2, 0, 5, 1]);
    let clean: Vec<u64> = xs.iter().map(|&x| poly.eval(&fp, x)).collect();
    let mut lying = clean.clone();
    lying[3] = fp.add(lying[3], 1);
    lying[8] = fp.add(lying[8], 2);

    // Cold: the first decodes build the clean rung's and BW's tables,
    // learn the liar hint, and size the erasure rung's buffer.
    assert_eq!(decoder.decode_at_zero(&clean), Some(9));
    assert_eq!(decoder.decode_at_zero(&lying), Some(9));
    assert_eq!(decoder.decode_at_zero(&lying), Some(9));

    let mut answers = [None; 2];
    let used = allocations(|| {
        answers = [
            decoder.decode_at_zero(&clean),
            decoder.decode_at_zero(&lying),
        ]
    });
    assert_eq!(answers, [Some(9); 2]);
    assert_eq!(used, 0, "the clean and erasure rungs on warm buffers");
}
