//! The Dolev–Welch-style probabilistic clock (\[10\] in Table 1).
//!
//! The algorithmic core of the first self-stabilizing Byzantine clock
//! synchronization: broadcast your clock; if `n − f` nodes show the same
//! value, adopt it (+1); otherwise gamble on a fresh uniform value. With
//! only *local* randomness, all `g = n − f` correct nodes must gamble
//! coherently, so convergence is expected-exponential in `g` — the row the
//! current paper's O(1) result is measured against.

use byzclock_core::DigitalClock;
use byzclock_sim::{
    Application, Envelope, NodeCfg, Outbox, SimRng, Wire, WireFormat, WireReader, WireWriter,
};
use rand::Rng;

/// Message of [`DwClock`]: the sender's clock value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwMsg(pub u64);

impl Wire for DwMsg {
    #[inline]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        self.0.encode(format, w);
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        u64::decode(format, r).map(DwMsg)
    }
}

/// The local-coin probabilistic `k`-clock.
#[derive(Debug)]
pub struct DwClock {
    cfg: NodeCfg,
    k: u64,
    clock: u64,
}

impl DwClock {
    /// Builds the clock for modulus `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(cfg: NodeCfg, k: u64) -> Self {
        assert!(k >= 1, "the k-clock needs k >= 1");
        DwClock { cfg, k, clock: 0 }
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.clock % self.k
    }

    /// Overwrites the clock (test/bench setup).
    pub fn set_clock(&mut self, v: u64) {
        self.clock = v % self.k;
    }
}

impl DigitalClock for DwClock {
    fn modulus(&self) -> u64 {
        self.k
    }

    fn read(&self) -> Option<u64> {
        Some(self.clock())
    }
}

impl Application for DwClock {
    type Msg = DwMsg;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, DwMsg>) {
        out.broadcast(DwMsg(self.clock % self.k));
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<DwMsg>], rng: &mut SimRng) {
        // One vote per sender (first message wins).
        let mut votes: Vec<(byzclock_sim::NodeId, u64)> = Vec::new();
        for e in inbox {
            if votes.last().map(|&(prev, _)| prev) != Some(e.from) {
                votes.push((e.from, e.msg.0 % self.k));
            }
        }
        let quorum = self.cfg.quorum();
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for &(_, v) in &votes {
            match counts.iter_mut().find(|(val, _)| *val == v) {
                Some((_, c)) => *c += 1,
                None => counts.push((v, 1)),
            }
        }
        self.clock = match counts.into_iter().find(|&(_, c)| c >= quorum) {
            Some((v, _)) => (v + 1) % self.k,
            None => rng.random_range(0..self.k),
        };
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.clock = rng.random();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_core::{all_synced, run_until_stable_sync};
    use byzclock_sim::{SilentAdversary, SimBuilder};

    /// Self-stabilization setup: every node starts from scrambled state.
    fn arbitrary_start(cfg: NodeCfg, rng: &mut SimRng, k: u64) -> DwClock {
        let mut c = DwClock::new(cfg, k);
        c.corrupt(rng);
        c
    }

    #[test]
    fn converges_eventually_for_small_clusters() {
        // g = 3 correct nodes, k = 2: expected ~2^(g-1) random tries.
        let mut sim = SimBuilder::new(4, 1)
            .seed(3)
            .build(|cfg, rng| arbitrary_start(cfg, rng, 2), SilentAdversary);
        let t = run_until_stable_sync(&mut sim, 10_000, 8);
        assert!(t.is_some(), "DW clock should converge for tiny clusters");
    }

    #[test]
    fn closure_once_synced() {
        let mut sim = SimBuilder::new(4, 1).seed(5).build(
            |cfg, _rng| {
                let mut c = DwClock::new(cfg, 8);
                c.set_clock(3); // all nodes start synced
                c
            },
            SilentAdversary,
        );
        for i in 1..=16u64 {
            sim.step();
            let v =
                all_synced(sim.correct_apps().map(|(_, a)| a.read())).expect("closure violated");
            assert_eq!(v, (3 + i) % 8);
        }
    }

    #[test]
    fn convergence_slows_exponentially_with_g() {
        // Mean over seeds: g = 3 should be clearly faster than g = 7.
        let measure = |n: usize, f: usize, seeds: u64| {
            let mut total = 0u64;
            for seed in 0..seeds {
                let mut sim = SimBuilder::new(n, f)
                    .seed(seed)
                    .build(|cfg, rng| arbitrary_start(cfg, rng, 2), SilentAdversary);
                total += run_until_stable_sync(&mut sim, 100_000, 8).unwrap();
            }
            total as f64 / seeds as f64
        };
        let fast = measure(4, 1, 20);
        let slow = measure(10, 3, 20);
        assert!(
            slow > fast,
            "expected exponential growth with g: g=3 {fast} vs g=7 {slow}"
        );
    }
}
