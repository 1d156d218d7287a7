//! Per-beat shared-randomness sources.
//!
//! `ss-Byz-2-Clock` consumes one bit per beat from a self-stabilizing
//! coin-flipping algorithm `C`. This module abstracts that dependency as
//! [`RandSource`] with three implementations:
//!
//! - [`PipelinedCoin`] — the real thing: `ss-Byz-Coin-Flip` (Fig. 1) over
//!   any [`CoinScheme`] (the GVSS ticket coin lives in `byzclock-coin`);
//! - [`OracleRand`] — an ideal beacon with configurable `p0`/`p1` and an
//!   adversarial disagreement pattern. It isolates the clock layer from the
//!   coin layer and lets experiment F2 sweep coin quality against the
//!   `c2 · c1²` convergence law of Theorem 2;
//! - [`LocalRand`] — independent per-node coins, i.e. `p0 = p1 = 2^-(g-1)`
//!   over `g` correct nodes: plugging it into Fig. 2 reproduces the
//!   Dolev–Welch-style expected-exponential baseline (\[10\] in Table 1).

use crate::pipeline::{Pipeline, SlotMsg};
use crate::round::{CoinScheme, RoundProtocol};
use byzclock_sim::{NodeId, SimRng, Target, Wire};
use rand::Rng;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A source of one (ideally common) random bit per beat.
///
/// Call order per beat: [`RandSource::send`] during the exchange's send
/// phase, then [`RandSource::deliver`] with the coin messages received in
/// the same exchange; `deliver` returns this beat's `rand`.
pub trait RandSource {
    /// Message type exchanged by the source (`()`-like for oracles).
    type Msg: Clone + fmt::Debug + Wire;

    /// Emit this beat's coin messages.
    fn send(&mut self, rng: &mut SimRng, out: &mut Vec<(Target, Self::Msg)>);

    /// Consume this beat's coin messages and produce `rand`.
    fn deliver(&mut self, inbox: &[(NodeId, Self::Msg)], rng: &mut SimRng) -> bool;

    /// Transient fault: scramble all coin state.
    fn corrupt(&mut self, rng: &mut SimRng);

    /// Instrumentation counters accumulated by the source — the pipelined
    /// coin reports its retired instances' [`RoundProtocol::metrics`]
    /// totals here (decode batch counts, …). Observational only; oracles
    /// and local coins have none.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Observes the runner's global beat index, forwarded from
    /// [`byzclock_sim::Application::begin_beat`] at the top of each beat.
    /// Beat-oblivious sources keep the no-op default; [`PipelinedCoin`]
    /// forwards to its scheme so beat-keyed instance factories (committee
    /// rotation) spawn consistently across nodes.
    fn begin_beat(&mut self, _beat: u64) {}

    /// Unused: the runner steps every node serially and never calls this.
    /// The declaration remains only because the stand-alone `benchmark/`
    /// package still forwards it; ROADMAP item 2 deletes it together with
    /// that forward.
    fn independent(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Pipelined coin (Fig. 1)
// ---------------------------------------------------------------------------

/// `ss-Byz-Coin-Flip`: the self-stabilizing pipelined coin over a scheme
/// `S` (Definition 2.8 via Lemma 1).
#[derive(Debug)]
pub struct PipelinedCoin<S: CoinScheme> {
    scheme: S,
    pipeline: Pipeline<S::Proto>,
}

impl<S: CoinScheme> PipelinedCoin<S> {
    /// Builds the pipeline with `Δ_A` fresh instances.
    pub fn new(scheme: S, rng: &mut SimRng) -> Self {
        let pipeline = Pipeline::new(scheme.rounds(), || scheme.spawn(rng));
        PipelinedCoin { scheme, pipeline }
    }

    /// Pipeline depth `Δ_A` (= stabilization time, Lemma 1).
    pub fn depth(&self) -> usize {
        self.pipeline.depth()
    }

    /// The scheme this pipeline spawns instances from (scenario layers read
    /// scheme constants — e.g. the committee size — for report extras).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }
}

impl<S: CoinScheme> RandSource for PipelinedCoin<S> {
    type Msg = SlotMsg<<S::Proto as RoundProtocol>::Msg>;

    fn send(&mut self, rng: &mut SimRng, out: &mut Vec<(Target, Self::Msg)>) {
        self.pipeline.send(rng, out);
    }

    fn deliver(&mut self, inbox: &[(NodeId, Self::Msg)], rng: &mut SimRng) -> bool {
        let scheme = self.scheme.clone();
        self.pipeline
            .deliver(inbox, rng, move |r, _| scheme.spawn(r))
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.pipeline.corrupt(rng);
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.pipeline.retired_metrics().to_vec()
    }

    fn begin_beat(&mut self, beat: u64) {
        self.scheme.begin_beat(beat);
    }
}

// ---------------------------------------------------------------------------
// Local coin (Dolev–Welch baseline)
// ---------------------------------------------------------------------------

/// Independent per-node randomness — no communication, no commonality
/// beyond luck. With `g` correct nodes, all agree on a bit with probability
/// `2^-(g-1)`, which is what turns Fig. 2 into an expected-exponential
/// protocol (Table 1, row \[10\]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalRand;

impl RandSource for LocalRand {
    type Msg = ();

    fn send(&mut self, _rng: &mut SimRng, _out: &mut Vec<(Target, ())>) {}

    fn deliver(&mut self, _inbox: &[(NodeId, ())], rng: &mut SimRng) -> bool {
        rng.random()
    }

    fn corrupt(&mut self, _rng: &mut SimRng) {}
}

// ---------------------------------------------------------------------------
// Fixed coin (model-checker branching)
// ---------------------------------------------------------------------------

/// A coin whose next outcome is *set from outside*, for drivers that
/// enumerate both branches instead of sampling one.
///
/// The model checker in `byzclock-mcheck` plugs one of these into each
/// protocol core it explores: before every deliver it sets the bit for the
/// branch under exploration, so a single deterministic step function covers
/// the whole coin-outcome tree. Clones share the underlying cell — the
/// checker keeps a clone as a handle while the protocol owns the source
/// (whose `rand_source` field is private).
///
/// `corrupt` is a no-op: the coin has no state of its own beyond the
/// externally owned cell, mirroring [`OracleRand`]'s "already stabilized
/// coin" reading.
#[derive(Debug, Clone, Default)]
pub struct FixedRand {
    bit: std::rc::Rc<std::cell::Cell<bool>>,
}

impl FixedRand {
    /// A fresh coin, initially `false`.
    pub fn new() -> Self {
        FixedRand::default()
    }

    /// Sets the outcome every subsequent `deliver` returns (until set
    /// again). Shared with all clones.
    pub fn set(&self, bit: bool) {
        self.bit.set(bit);
    }

    /// The currently set outcome.
    pub fn get(&self) -> bool {
        self.bit.get()
    }
}

impl RandSource for FixedRand {
    type Msg = ();

    fn send(&mut self, _rng: &mut SimRng, _out: &mut Vec<(Target, ())>) {}

    fn deliver(&mut self, _inbox: &[(NodeId, ())], _rng: &mut SimRng) -> bool {
        self.bit.get()
    }

    fn corrupt(&mut self, _rng: &mut SimRng) {}
}

// ---------------------------------------------------------------------------
// Oracle beacon (ideal coin with dial-a-quality)
// ---------------------------------------------------------------------------

/// One beat's outcome in the oracle schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleDraw {
    /// Event `E0` or `E1`: every correct node sees the same bit.
    Common(bool),
    /// Neither event: the adversary may hand each node a different bit —
    /// modelled as node-id parity (worst-case disagreement).
    Split,
}

#[derive(Debug)]
struct OracleState {
    rng: SimRng,
    p0: f64,
    p1: f64,
    draws: Vec<OracleDraw>,
    high_water: usize,
}

impl OracleState {
    /// Extends the schedule up to `idx` without touching the high-water
    /// mark (used by adversary peeks, which must not perturb the nodes).
    fn ensure(&mut self, idx: usize) -> OracleDraw {
        while self.draws.len() <= idx {
            let x: f64 = self.rng.random();
            let draw = if x < self.p0 {
                OracleDraw::Common(false)
            } else if x < self.p0 + self.p1 {
                OracleDraw::Common(true)
            } else {
                OracleDraw::Split
            };
            self.draws.push(draw);
        }
        self.draws[idx]
    }

    /// A node-side read: extends the schedule and advances the shared
    /// high-water mark.
    fn draw_at(&mut self, idx: usize) -> OracleDraw {
        let draw = self.ensure(idx);
        self.high_water = self.high_water.max(idx + 1);
        draw
    }
}

/// Shared handle to the oracle schedule.
///
/// One [`OracleBeacon`] is created per simulation; each node's
/// [`OracleRand`] and (optionally) the adversary hold clones. The adversary
/// peeking at the schedule models *rushing knowledge* of the coin — see the
/// Remark 3.1 ablation (experiment A1).
#[derive(Debug, Clone)]
pub struct OracleBeacon {
    state: Arc<Mutex<OracleState>>,
}

impl OracleBeacon {
    /// Creates a beacon with the given event probabilities
    /// (`p0 + p1 <= 1`; the rest is the adversarial split).
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are out of range.
    pub fn new(p0: f64, p1: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p0) && (0.0..=1.0).contains(&p1) && p0 + p1 <= 1.0 + 1e-12,
            "invalid probabilities p0={p0} p1={p1}"
        );
        use rand::SeedableRng;
        OracleBeacon {
            state: Arc::new(Mutex::new(OracleState {
                rng: SimRng::seed_from_u64(seed),
                p0,
                p1,
                draws: Vec::new(),
                high_water: 0,
            })),
        }
    }

    /// A perfect beacon: always common, uniform (`p0 = p1 = 1/2`).
    pub fn perfect(seed: u64) -> Self {
        OracleBeacon::new(0.5, 0.5, seed)
    }

    /// A node-side [`RandSource`] view of this beacon.
    pub fn source(&self, id: NodeId) -> OracleRand {
        OracleRand {
            beacon: self.clone(),
            id,
            cursor: 0,
        }
    }

    /// The draw for beat-index `idx` (generating it if needed). Available
    /// to adversaries: this is exactly the rushing knowledge a real
    /// adversary gets from observing recover-round shares. Peeking does not
    /// advance the nodes' shared high-water mark.
    pub fn peek(&self, idx: usize) -> OracleDraw {
        self.state.lock().expect("beacon lock poisoned").ensure(idx)
    }

    /// The bit node `id` would observe for draw index `idx`.
    pub fn bit_for(&self, idx: usize, id: NodeId) -> bool {
        match self.peek(idx) {
            OracleDraw::Common(b) => b,
            OracleDraw::Split => id.raw().is_multiple_of(2),
        }
    }
}

/// A node's view of an [`OracleBeacon`].
#[derive(Debug, Clone)]
pub struct OracleRand {
    beacon: OracleBeacon,
    id: NodeId,
    cursor: usize,
}

impl RandSource for OracleRand {
    type Msg = ();

    fn send(&mut self, _rng: &mut SimRng, _out: &mut Vec<(Target, ())>) {}

    fn deliver(&mut self, _inbox: &[(NodeId, ())], _rng: &mut SimRng) -> bool {
        // Re-align with the schedule the other nodes are on: the real
        // pipelined coin identifies instances *positionally* (slot index),
        // so a node that skipped beats (a gated sub-clock, a corrupted
        // node) rejoins the common stream within one step rather than
        // staying offset forever. `high_water - 1` is the index the
        // current beat's first reader drew.
        let hw = self
            .beacon
            .state
            .lock()
            .expect("beacon lock poisoned")
            .high_water;
        self.cursor = self.cursor.max(hw.saturating_sub(1));
        let draw = self
            .beacon
            .state
            .lock()
            .expect("beacon lock poisoned")
            .draw_at(self.cursor);
        let bit = match draw {
            OracleDraw::Common(b) => b,
            OracleDraw::Split => self.id.raw().is_multiple_of(2),
        };
        self.cursor += 1;
        bit
    }

    fn corrupt(&mut self, _rng: &mut SimRng) {
        // The oracle models an *already stabilized* coin pipeline, so a
        // corrupted node resynchronizes to the schedule immediately: its
        // cursor jumps to the global high-water mark.
        self.cursor = self
            .beacon
            .state
            .lock()
            .expect("beacon lock poisoned")
            .high_water;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::testutil::XorTestScheme;
    use rand::SeedableRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(3)
    }

    #[test]
    fn local_rand_is_just_randomness() {
        let mut src = LocalRand;
        let mut r = rng();
        let bits: Vec<bool> = (0..64).map(|_| src.deliver(&[], &mut r)).collect();
        assert!(bits.iter().any(|&b| b));
        assert!(bits.iter().any(|&b| !b));
    }

    #[test]
    fn fixed_rand_follows_its_handle() {
        let handle = FixedRand::new();
        let mut src = handle.clone();
        let mut r = rng();
        assert!(!src.deliver(&[], &mut r), "fresh coin starts false");
        handle.set(true);
        assert!(src.deliver(&[], &mut r));
        src.corrupt(&mut r);
        assert!(src.deliver(&[], &mut r), "corrupt does not touch the cell");
        handle.set(false);
        assert!(!src.deliver(&[], &mut r));
    }

    #[test]
    fn perfect_beacon_is_common_and_roughly_fair() {
        let beacon = OracleBeacon::perfect(11);
        let mut a = beacon.source(NodeId::new(0));
        let mut b = beacon.source(NodeId::new(1));
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..200 {
            let x = a.deliver(&[], &mut r);
            let y = b.deliver(&[], &mut r);
            assert_eq!(x, y, "perfect beacon must agree");
            ones += usize::from(x);
        }
        assert!(
            (40..=160).contains(&ones),
            "wildly unfair beacon: {ones}/200"
        );
    }

    #[test]
    fn split_draws_disagree_by_parity() {
        let beacon = OracleBeacon::new(0.0, 0.0, 5); // always split
        assert_eq!(beacon.peek(0), OracleDraw::Split);
        assert!(beacon.bit_for(0, NodeId::new(0)));
        assert!(!beacon.bit_for(0, NodeId::new(1)));
    }

    #[test]
    fn corrupt_resyncs_cursor_to_high_water() {
        let beacon = OracleBeacon::perfect(9);
        let mut a = beacon.source(NodeId::new(0));
        let mut b = beacon.source(NodeId::new(1));
        let mut r = rng();
        for _ in 0..5 {
            a.deliver(&[], &mut r);
        }
        // b is behind (fresh); corruption snaps it to a's position.
        b.corrupt(&mut r);
        assert_eq!(b.cursor, 5);
        assert_eq!(a.deliver(&[], &mut r), b.deliver(&[], &mut r));
    }

    #[test]
    fn peek_matches_later_draws() {
        let beacon = OracleBeacon::new(0.3, 0.3, 77);
        let ahead: Vec<OracleDraw> = (0..16).map(|i| beacon.peek(i)).collect();
        let mut src = beacon.source(NodeId::new(2));
        let mut r = rng();
        for (i, &draw) in ahead.iter().enumerate() {
            let bit = src.deliver(&[], &mut r);
            match draw {
                OracleDraw::Common(b) => assert_eq!(bit, b, "draw {i}"),
                OracleDraw::Split => assert!(bit, "node 2 is even parity"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid probabilities")]
    fn beacon_rejects_bad_probabilities() {
        let _ = OracleBeacon::new(0.7, 0.7, 0);
    }

    #[test]
    fn pipelined_coin_has_scheme_depth() {
        let scheme = XorTestScheme {
            rounds: 4,
            quorum: 1,
        };
        let mut r = rng();
        let coin = PipelinedCoin::new(scheme, &mut r);
        assert_eq!(coin.depth(), 4);
    }
}
