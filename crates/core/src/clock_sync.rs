//! `ss-Byz-Clock-Sync` (Fig. 4) — the `k`-clock for **any** `k`, with
//! constant overhead.
//!
//! The 4-clock `A` schedules a four-block agreement cycle on the full
//! `k`-valued clock (a Turpin–Coan/Rabin-style reduction):
//!
//! - block (a) `clock(A) = 0`: broadcast `full_clock`;
//! - block (b) `clock(A) = 1`: broadcast `propose` — the value received
//!   `n − f` times in the previous beat, else `⊥`;
//! - block (c) `clock(A) = 2`: `save` := the majority non-`⊥` propose;
//!   broadcast `bit := 1` iff `save` appeared `n − f` times (else 0);
//! - block (d) `clock(A) = 3`: adopt `save + 3` on `n − f` ones, reset to
//!   `0` on `n − f` zeros, otherwise let this beat's coin bit decide.
//!
//! `full_clock` is incremented (mod `k`) every beat (step 2); the block
//! dispatch uses `clock(A)` *at the beginning of the beat* (the paper's
//! footnote), i.e. the value before `A`'s same-beat execution.

use crate::clock::DigitalClock;
use crate::four_clock::{FourClock, FourClockMsg};
use crate::rand_source::RandSource;
use crate::trit::{first_of_sender, Tally, Trit};
use crate::two_clock::send_coin;
use byzclock_sim::{
    Application, Envelope, NodeCfg, NodeId, Outbox, SimRng, Wire, WireFormat, WireReader,
    WireWriter,
};
use rand::Rng;

/// Messages of `ss-Byz-Clock-Sync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockSyncMsg<M> {
    /// Traffic of the underlying 4-clock `A` (phases 0 and 1).
    Four(FourClockMsg<M>),
    /// Block (a): the sender's `full_clock`.
    Full(u64),
    /// Block (b): the sender's `propose` (`None` is the paper's `⊥`).
    Propose(Option<u64>),
    /// Block (c): the sender's `bit` vote.
    BitVote(bool),
    /// The top-level coin pipeline's traffic (phase 2, every beat).
    Coin(M),
}

impl<M: Wire> Wire for ClockSyncMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            ClockSyncMsg::Four(m) => w.put_tagged(0, m, format),
            ClockSyncMsg::Full(v) => w.put_tagged(1, v, format),
            ClockSyncMsg::Propose(p) => w.put_tagged(2, p, format),
            ClockSyncMsg::BitVote(b) => w.put_tagged(3, b, format),
            ClockSyncMsg::Coin(m) => w.put_tagged(4, m, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(ClockSyncMsg::Four(Wire::decode(format, r)?)),
            1 => Some(ClockSyncMsg::Full(Wire::decode(format, r)?)),
            2 => Some(ClockSyncMsg::Propose(Wire::decode(format, r)?)),
            3 => Some(ClockSyncMsg::BitVote(Wire::decode(format, r)?)),
            4 => Some(ClockSyncMsg::Coin(Wire::decode(format, r)?)),
            _ => None,
        }
    }
}

/// `ss-Byz-Clock-Sync` (Fig. 4): solves the `k`-Clock problem for any
/// `k ≥ 1` in expected-constant time with constant message overhead.
#[derive(Debug)]
pub struct ClockSync<R: RandSource> {
    cfg: NodeCfg,
    k: u64,
    four: FourClock<R>,
    rand_source: R,
    full_clock: u64,
    /// `clock(A)` captured at the beginning of the beat (block dispatch).
    block: Option<u8>,
    /// The value retained in block (c) for block (d)'s adoption.
    save: u64,
    /// Last beat's receipts, first message per sender and kind, refilled
    /// in place every beat. Later blocks read only their multisets, so
    /// one list holds bare values: the first `prev_fulls` are `Full`
    /// values, the rest non-`⊥` `Propose` values. The bit votes are a
    /// count.
    receipts: Vec<u64>,
    prev_fulls: usize,
    prev_bits: Tally,
    last_rand: bool,
}

impl<R: RandSource> ClockSync<R> {
    /// Builds the `k`-clock. `rand_a1`/`rand_a2` feed the 4-clock's two
    /// 2-clocks; `rand_top` feeds block (d).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(cfg: NodeCfg, k: u64, rand_a1: R, rand_a2: R, rand_top: R) -> Self {
        assert!(k >= 1, "the k-clock needs k >= 1");
        ClockSync {
            cfg,
            k,
            four: FourClock::new(cfg, rand_a1, rand_a2),
            rand_source: rand_top,
            full_clock: 0,
            block: None,
            save: 0,
            receipts: Vec::with_capacity(cfg.n),
            prev_fulls: 0,
            prev_bits: Tally::default(),
            last_rand: false,
        }
    }

    /// The clock modulus `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The current `full_clock` value.
    pub fn full_clock(&self) -> u64 {
        self.full_clock % self.k
    }

    /// The underlying 4-clock (observability).
    pub fn four_clock(&self) -> &FourClock<R> {
        &self.four
    }

    /// The top-level coin pipeline (observability — scenario adapters
    /// read scheme parameters, e.g. the committee size, off it).
    pub fn rand_source(&self) -> &R {
        &self.rand_source
    }

    /// [`RandSource::metrics`] summed over this clock's three coin
    /// pipelines (`A1`, `A2`, top level) — how scenario adapters surface
    /// coin instrumentation (decode batch counts) in report extras.
    pub fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut metrics = self.four.coin_metrics();
        crate::merge_metrics(&mut metrics, self.rand_source.metrics());
        metrics
    }

    /// Overwrites the full clock (test/bench setup).
    pub fn set_full_clock(&mut self, v: u64) {
        self.full_clock = v % self.k;
    }

    // --- Model-checking hooks -------------------------------------------
    //
    // The Layer-B top-layer model in `byzclock-mcheck` restores canonical
    // states and extracts the live-variable images of the `prev_*` receipt
    // lists through these. They are not part of the protocol surface.

    /// Model-checking hook: overwrites the top layer's mutable state and
    /// pins the 4-clock to a concrete sub-clock pair (so the next beat's
    /// block dispatch reads `clock(A) = 2·a2 + a1`). The receipts are the
    /// `Full` values, the non-`⊥` `Propose` values and the bit votes.
    #[allow(clippy::too_many_arguments)]
    pub fn mc_restore_top(
        &mut self,
        a1: Trit,
        a2: Trit,
        full_clock: u64,
        save: u64,
        fulls: &[u64],
        proposes: &[u64],
        bits: &[bool],
    ) {
        self.four.mc_set_state(a1, a2, false);
        self.full_clock = full_clock % self.k;
        self.save = save % self.k;
        self.block = None;
        self.receipts.clear();
        self.receipts.extend_from_slice(fulls);
        self.prev_fulls = fulls.len();
        self.receipts.extend_from_slice(proposes);
        self.prev_bits = Tally::default();
        for &b in bits {
            self.prev_bits.count(Trit::from_bit(b));
        }
    }

    /// Model-checking hook: the propose image of the `Full` receipts — everything
    /// block (b) will read from them.
    pub fn mc_propose_image(&self) -> Option<u64> {
        self.compute_propose()
    }

    /// Model-checking hook: the `(save, bit)` image of the propose receipts —
    /// everything block (c) will read from them.
    pub fn mc_save_bit_image(&mut self) -> (Option<u64>, bool) {
        self.compute_save_bit()
    }

    /// Model-checking hook: the retained block (c) value.
    pub fn mc_save(&self) -> u64 {
        self.save
    }

    /// Model-checking hook: the bit votes block (d) will read.
    pub fn mc_prev_bits(&self) -> Tally {
        self.prev_bits
    }

    /// Block (b): the propose derived from the previous beat's `Full`
    /// messages — `Some(v)` iff `v` was received from `n − f` distinct
    /// senders. There is one receipt per sender, so at most `n`, and
    /// `n − f > n/2` of them make `v` their strict majority: the
    /// Boyer–Moore candidate is the only value worth counting.
    fn compute_propose(&self) -> Option<u64> {
        let fulls = &self.receipts[..self.prev_fulls];
        let mut candidate = (0, 0usize);
        for &v in fulls {
            candidate = match candidate {
                (_, 0) => (v, 1),
                (c, lead) if c == v => (c, lead + 1),
                (c, lead) => (c, lead - 1),
            };
        }
        let v = candidate.0;
        let count = fulls.iter().filter(|&&w| w == v).count();
        (count >= self.cfg.quorum()).then_some(v)
    }

    /// Block (c): `(save, bit)` from the previous beat's proposes. `save`
    /// is the most frequent non-`⊥` value (ties to the smaller value —
    /// only reachable below the quorum, where Lemma 7 makes the winner
    /// unique); `bit = 1` iff it reached `n − f`. Sorts the receipts in
    /// place (only their multiset is read) and takes the first longest run.
    fn compute_save_bit(&mut self) -> (Option<u64>, bool) {
        let proposes = &mut self.receipts[self.prev_fulls..];
        proposes.sort_unstable();
        let mut best: Option<(u64, usize)> = None;
        for run in proposes.chunk_by(|a, b| a == b) {
            if best.is_none_or(|(_, c)| run.len() > c) {
                best = Some((run[0], run.len()));
            }
        }
        match best {
            Some((v, c)) => (Some(v), c >= self.cfg.quorum()),
            None => (None, false),
        }
    }
}

/// Up to `n` arbitrary receipt values for a scrambled receipt list. Each
/// receipt draws a sender id and a value; the lists keep only the value.
fn garbage_receipts(rng: &mut SimRng, n: usize) -> impl Iterator<Item = u64> + '_ {
    let len = rng.random_range(0..=n);
    (0..len).map(move |_| {
        let _sender = rng.random_range(0..n as u16);
        rng.random()
    })
}

impl<R: RandSource> DigitalClock for ClockSync<R> {
    fn modulus(&self) -> u64 {
        self.k
    }

    fn read(&self) -> Option<u64> {
        Some(self.full_clock())
    }
}

impl<R: RandSource> Application for ClockSync<R> {
    type Msg = ClockSyncMsg<R::Msg>;

    fn phases(&self) -> usize {
        3
    }

    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        match phase {
            0 => {
                // Step 3's dispatch considers clock(A) *at the beginning of
                // the beat* — capture before A executes.
                self.block = self.four.clock();
                self.four.phase_send(0, out, ClockSyncMsg::Four);
            }
            1 => self.four.phase_send(1, out, ClockSyncMsg::Four),
            2 => {
                // Step 2: increment every beat.
                self.full_clock = (self.full_clock.wrapping_add(1)) % self.k;
                match self.block {
                    Some(0) => out.broadcast(ClockSyncMsg::Full(self.full_clock)),
                    Some(1) => {
                        let propose = self.compute_propose();
                        out.broadcast(ClockSyncMsg::Propose(propose));
                    }
                    Some(2) => {
                        let (save, bit) = self.compute_save_bit();
                        out.broadcast(ClockSyncMsg::BitVote(bit));
                        // "if save = ⊥ set save := 0" (after the broadcast).
                        self.save = save.unwrap_or(0) % self.k;
                    }
                    // Block (d) broadcasts nothing; an undecided 4-clock
                    // (⊥ / out-of-range garbage) performs no block.
                    _ => {}
                }
                send_coin(&mut self.rand_source, out, ClockSyncMsg::Coin);
            }
            _ => {}
        }
    }

    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        match phase {
            0 | 1 => {
                let four = inbox.iter().filter_map(|e| match &e.msg {
                    ClockSyncMsg::Four(m) => Some((e.from, m)),
                    _ => None,
                });
                self.four.phase_deliver(phase, four, rng);
            }
            2 => {
                // One pass: collect the coin's sub-inbox and refill this
                // beat's receipts (one per sender and kind) for the next
                // block, keeping the previous bit votes for block (d).
                let bits = std::mem::take(&mut self.prev_bits);
                self.receipts.clear();
                self.prev_fulls = 0;
                let (mut last_full, mut last_propose) = (None, None);
                let mut coin_inbox: Vec<(NodeId, R::Msg)> = Vec::new();
                for e in inbox {
                    match &e.msg {
                        ClockSyncMsg::Full(v) if first_of_sender(&mut last_full, e.from) => {
                            // Keep the `Full` values in front of the proposes.
                            self.receipts.push(*v);
                            let last = self.receipts.len() - 1;
                            self.receipts.swap(self.prev_fulls, last);
                            self.prev_fulls += 1;
                        }
                        // A `⊥` propose spends its sender's turn but is not kept.
                        ClockSyncMsg::Propose(p) if first_of_sender(&mut last_propose, e.from) => {
                            self.receipts.extend(*p)
                        }
                        ClockSyncMsg::BitVote(b) => self.prev_bits.add(e.from, Trit::from_bit(*b)),
                        ClockSyncMsg::Coin(m) => coin_inbox.push((e.from, m.clone())),
                        _ => {}
                    }
                }
                // The coin of beat r is revealed only now — after every
                // sender committed its block messages (Lemma 8's
                // independence of rand and v).
                let rand = self.rand_source.deliver(&coin_inbox, rng);
                self.last_rand = rand;

                if self.block == Some(3) {
                    // Block (d): decide from the previous beat's bit votes.
                    let quorum = self.cfg.quorum();
                    self.full_clock = if bits.ones >= quorum {
                        (self.save + 3) % self.k
                    } else if bits.zeros >= quorum {
                        0
                    } else if rand {
                        (self.save + 3) % self.k
                    } else {
                        0
                    };
                }
            }
            _ => {}
        }
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.four.scramble(rng);
        self.rand_source.corrupt(rng);
        self.full_clock = rng.random();
        self.save = rng.random();
        self.block = if rng.random() {
            Some(rng.random_range(0..8))
        } else {
            None
        };
        self.last_rand = rng.random();
        // Arbitrary receipts: an even propose value stands for `⊥`, an
        // even bit value for a 1.
        let n = self.cfg.n;
        self.receipts.clear();
        self.receipts.extend(garbage_receipts(rng, n));
        self.prev_fulls = self.receipts.len();
        self.receipts
            .extend(garbage_receipts(rng, n).filter(|v| !v.is_multiple_of(2)));
        self.prev_bits = Tally::default();
        for v in garbage_receipts(rng, n) {
            self.prev_bits.count(Trit::from_bit(v.is_multiple_of(2)));
        }
    }

    fn begin_beat(&mut self, beat: u64) {
        self.four.begin_beat(beat);
        self.rand_source.begin_beat(beat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::all_synced;
    use crate::rand_source::{OracleBeacon, OracleRand};
    use byzclock_sim::{SilentAdversary, SimBuilder, Simulation};

    fn sync_sim(
        n: usize,
        f: usize,
        k: u64,
        seed: u64,
    ) -> Simulation<ClockSync<OracleRand>, SilentAdversary> {
        let b1 = OracleBeacon::perfect(seed.wrapping_add(11));
        let b2 = OracleBeacon::perfect(seed.wrapping_add(22));
        let b3 = OracleBeacon::perfect(seed.wrapping_add(33));
        SimBuilder::new(n, f).seed(seed).build(
            move |cfg, rng| {
                // Self-stabilization setup: start from a scrambled state so
                // agreement (not just closure lock-in) is exercised.
                let mut cs = ClockSync::new(
                    cfg,
                    k,
                    b1.source(cfg.id),
                    b2.source(cfg.id),
                    b3.source(cfg.id),
                );
                cs.corrupt(rng);
                cs
            },
            SilentAdversary,
        )
    }

    fn synced(sim: &Simulation<ClockSync<OracleRand>, SilentAdversary>) -> Option<u64> {
        all_synced(sim.correct_apps().map(|(_, a)| a.read()))
    }

    /// Theorem 4 + Lemma 6: expected-constant convergence for several k,
    /// then closure with +1 per beat (mod k). Convergence is measured as a
    /// *stable* streak (Definition 3.2), not first equality.
    #[test]
    fn theorem_4_convergence_and_closure() {
        use crate::clock::run_until_stable_sync;
        for &k in &[4u64, 16, 64] {
            let mut total = 0u64;
            for seed in 0..6u64 {
                let mut sim = sync_sim(7, 2, k, seed.wrapping_mul(3));
                let t = run_until_stable_sync(&mut sim, 1500, 12)
                    .unwrap_or_else(|| panic!("k={k} seed={seed}: no convergence"));
                total += t;
                // Closure persists well past the detection window.
                let v0 = synced(&sim).unwrap();
                for i in 1..=(2 * k.min(16)) {
                    sim.step();
                    let v = synced(&sim).expect("closure violated");
                    assert_eq!(v, (v0 + i) % k, "k={k}: wrong increment");
                }
            }
            let mean = total as f64 / 6.0;
            assert!(
                mean < 200.0,
                "k={k}: mean convergence {mean} beats looks wrong"
            );
        }
    }

    /// The degenerate moduli behave.
    #[test]
    fn tiny_k_values_work() {
        use crate::clock::run_until_stable_sync;
        for k in [1u64, 2, 3] {
            let mut sim = sync_sim(4, 1, k, 9);
            let t = run_until_stable_sync(&mut sim, 1500, 12);
            assert!(t.is_some(), "k={k} failed");
            for _ in 0..8 {
                let v0 = synced(&sim).unwrap();
                sim.step();
                assert_eq!(synced(&sim), Some((v0 + 1) % k));
            }
        }
    }

    /// Lemma 7, executable: at most one non-⊥ value can be proposed by
    /// correct nodes in any block-(b) beat.
    #[test]
    fn lemma_7_single_proposed_value() {
        let mut sim = sync_sim(7, 2, 32, 17);
        // Track proposes across many beats via message inspection: since
        // correct proposes derive from n-f receipts, two distinct values
        // would need 2(n-f) > n votes — check the invariant on node state.
        for _ in 0..200 {
            sim.step();
            let proposes: Vec<u64> = sim
                .correct_apps()
                .flat_map(|(_, a)| a.compute_propose())
                .collect();
            let mut dedup = proposes.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert!(
                dedup.len() <= 1,
                "two distinct correct proposes: {proposes:?}"
            );
        }
    }

    #[test]
    fn set_full_clock_reduces_mod_k() {
        let b = OracleBeacon::perfect(1);
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let mut cs = ClockSync::new(
            cfg,
            10,
            b.source(cfg.id),
            b.source(cfg.id),
            b.source(cfg.id),
        );
        cs.set_full_clock(25);
        assert_eq!(cs.full_clock(), 5);
        assert_eq!(cs.modulus(), 10);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let b = OracleBeacon::perfect(1);
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let _ = ClockSync::new(cfg, 0, b.source(cfg.id), b.source(cfg.id), b.source(cfg.id));
    }

    #[test]
    fn wire_sizes() {
        let m: ClockSyncMsg<u64> = ClockSyncMsg::Full(3);
        assert_eq!(WireFormat::Fixed.len_of(&m), 9);
        let m: ClockSyncMsg<u64> = ClockSyncMsg::Propose(None);
        assert_eq!(WireFormat::Fixed.len_of(&m), 2);
        let m: ClockSyncMsg<u64> = ClockSyncMsg::Propose(Some(1));
        assert_eq!(WireFormat::Fixed.len_of(&m), 10);
        let m: ClockSyncMsg<u64> = ClockSyncMsg::BitVote(true);
        assert_eq!(WireFormat::Fixed.len_of(&m), 2);
    }
}
