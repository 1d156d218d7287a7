//! Running a pipelined coin as a standalone application.
//!
//! `ss-Byz-Coin-Flip` is a tool in its own right (§6.1: "it provides a
//! self-stabilizing access to a stream of shared coins"); [`CoinApp`] wraps
//! a [`PipelinedCoin`] as a one-phase [`Application`] so the coin can be
//! simulated, attacked, and measured in isolation — experiment F1.

use byzclock_core::{CoinScheme, PipelinedCoin, RandSource, RoundProtocol, SlotMsg};
use byzclock_sim::{Adversary, Application, Envelope, NodeCfg, Outbox, SimRng, Simulation, Target};

/// Message type of a [`CoinApp`] over scheme `S`.
pub type CoinAppMsg<S> = SlotMsg<<<S as CoinScheme>::Proto as RoundProtocol>::Msg>;

/// A node running only `ss-Byz-Coin-Flip`, recording the emitted bit
/// stream.
pub struct CoinApp<S: CoinScheme> {
    coin: PipelinedCoin<S>,
    history: Vec<bool>,
}

impl<S: CoinScheme> CoinApp<S> {
    /// Builds the app for one node.
    pub fn new(scheme: S, rng: &mut SimRng) -> Self {
        CoinApp {
            coin: PipelinedCoin::new(scheme, rng),
            history: Vec::new(),
        }
    }

    /// The per-beat output bits since the start of the run
    /// (instrumentation: survives `corrupt`, which scrambles only protocol
    /// state).
    pub fn history(&self) -> &[bool] {
        &self.history
    }

    /// Pipeline depth `Δ_A`.
    pub fn depth(&self) -> usize {
        self.coin.depth()
    }

    /// The coin's [`RandSource::metrics`](byzclock_core::RandSource)
    /// totals over retired instances (decode-batch instrumentation, used
    /// by `metrics=decode` scenarios).
    pub fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        use byzclock_core::RandSource as _;
        self.coin.metrics()
    }
}

impl<S: CoinScheme> Application for CoinApp<S> {
    type Msg = CoinAppMsg<S>;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        let mut sends = Vec::new();
        self.coin.send(out.rng(), &mut sends);
        for (target, msg) in sends {
            match target {
                Target::All => out.broadcast(msg),
                Target::One(to) => out.unicast(to, msg),
            }
        }
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        let pairs: Vec<_> = inbox.iter().map(|e| (e.from, e.msg.clone())).collect();
        let bit = self.coin.deliver(&pairs, rng);
        self.history.push(bit);
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.coin.corrupt(rng);
    }

    fn begin_beat(&mut self, beat: u64) {
        use byzclock_core::RandSource as _;
        self.coin.begin_beat(beat);
    }
}

/// Per-beat agreement statistics of a coin run — the empirical
/// Definition 2.7 contract (`p0`, `p1`, commonality).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoinStats {
    /// Beats measured (after warm-up).
    pub beats: usize,
    /// Beats on which every correct node output the same bit.
    pub agree: usize,
    /// Beats on which all agreed on 0 (event `E0`).
    pub common_zeros: usize,
    /// Beats on which all agreed on 1 (event `E1`).
    pub common_ones: usize,
}

impl CoinStats {
    /// Empirical `P[E0]`.
    pub fn p0(&self) -> f64 {
        self.common_zeros as f64 / self.beats.max(1) as f64
    }

    /// Empirical `P[E1]`.
    pub fn p1(&self) -> f64 {
        self.common_ones as f64 / self.beats.max(1) as f64
    }

    /// Empirical `P[E0 ∪ E1]` — the probability a beat is "safe"
    /// (Definition 3.4).
    pub fn agreement_rate(&self) -> f64 {
        self.agree as f64 / self.beats.max(1) as f64
    }
}

/// Computes [`CoinStats`] over a finished [`CoinApp`] simulation, skipping
/// the first `warmup` beats (the pipeline needs `Δ_A` beats to stabilize —
/// Lemma 1).
pub fn coin_stats<S, Adv>(sim: &Simulation<CoinApp<S>, Adv>, warmup: usize) -> CoinStats
where
    S: CoinScheme,
    Adv: Adversary<CoinAppMsg<S>>,
{
    let histories: Vec<&[bool]> = sim.correct_apps().map(|(_, a)| a.history()).collect();
    let Some(len) = histories.iter().map(|h| h.len()).min() else {
        return CoinStats::default();
    };
    let mut stats = CoinStats::default();
    for beat in warmup..len {
        let first = histories[0][beat];
        let all_same = histories.iter().all(|h| h[beat] == first);
        stats.beats += 1;
        if all_same {
            stats.agree += 1;
            if first {
                stats.common_ones += 1;
            } else {
                stats.common_zeros += 1;
            }
        }
    }
    stats
}

/// Convenience: run a coin scheme under an adversary for `beats` beats and
/// return the stats (warm-up `Δ_A` excluded).
pub fn measure_coin<S, Adv, F>(
    n: usize,
    f: usize,
    seed: u64,
    beats: u64,
    make_scheme: F,
    adversary: Adv,
) -> CoinStats
where
    S: CoinScheme,
    Adv: Adversary<CoinAppMsg<S>>,
    F: Fn(NodeCfg) -> S,
{
    let mut sim = byzclock_sim::SimBuilder::new(n, f)
        .seed(seed)
        .build(|cfg, rng| CoinApp::new(make_scheme(cfg), rng), adversary);
    let warmup = sim.correct_apps().next().map_or(4, |(_, a)| a.depth());
    sim.run_beats(beats);
    coin_stats(&sim, warmup)
}

// RandSource is deliberately NOT implemented for CoinApp: the app is an
// observer shell; the protocol-facing abstraction stays PipelinedCoin.
#[allow(unused_imports)]
use byzclock_core::RandSource as _;
