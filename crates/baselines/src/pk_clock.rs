//! Deterministic pipelined clock synchronization — the `O(f)` rows of
//! Table 1 (\[7\] shape at `f < n/3`, \[15\] shape at `f < n/4`).
//!
//! The §6.2 pipelining transformation with a *deterministic* inner
//! protocol: every beat starts a fresh multivalued Byzantine-agreement
//! instance proposing the clock value predicted for the instance's
//! termination, and adopts the output of the instance terminating this
//! beat. `R` instances run staggered, one round each per beat.
//!
//! **Chain coupling.** The `R` staggered chains live in disjoint
//! beat-residue classes, so adopting raw outputs would synchronize the
//! *values* but not the *+1-per-beat closure* (each class could carry its
//! own offset). Proposals therefore anchor on the last `R` adopted
//! outputs, age-corrected into "what the clock should read now" estimates
//! `rep_j = (out_{t-j} + j) mod k`, and propose `winner + R` where the
//! winner is the **plurality** estimate, ties broken by the smallest
//! cyclic distance above the newest estimate. Both rules are invariant
//! under the per-beat rotation `rep -> rep + 1`, so once outputs are
//! common (agreement) the same cluster wins every beat, every new output
//! joins it (validity), and after two windows the whole window sits in one
//! cluster — locking the `+1` chain forever. (A plain `min` anchor fails
//! here: the mod-`k` wraparound rotates which chain is minimal every ≤ `k`
//! beats, so for `k ≤ R` the clock never stops jumping.) Deterministic
//! convergence in `O(R) = O(f)` beats after stabilization.

use crate::consensus::{
    phase_king_rounds, queen_rounds, BaMsg, PhaseKingConsensus, QueenConsensus,
};
use byzclock_core::{DigitalClock, Pipeline, RoundProtocol, SlotMsg};
use byzclock_sim::{Application, Envelope, NodeCfg, Outbox, SimRng, Target};
use rand::Rng;
use std::collections::VecDeque;

/// Factory for the consensus instances a [`ConsensusClock`] pipelines.
pub trait ConsensusScheme: Clone {
    /// The instance type.
    type Proto: RoundProtocol<Msg = BaMsg, Output = u64>;

    /// Rounds per instance (`R`, the pipeline depth).
    fn rounds(&self) -> usize;

    /// A fresh instance proposing `input`.
    fn spawn(&self, input: u64) -> Self::Proto;
}

/// Turpin–Coan + phase-king instances: `n > 3f`, `R = 2 + 3(f+1)`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseKingScheme {
    cfg: NodeCfg,
}

impl PhaseKingScheme {
    /// Scheme for one node.
    pub fn new(cfg: NodeCfg) -> Self {
        PhaseKingScheme { cfg }
    }
}

impl ConsensusScheme for PhaseKingScheme {
    type Proto = PhaseKingConsensus;

    fn rounds(&self) -> usize {
        phase_king_rounds(self.cfg.f)
    }

    fn spawn(&self, input: u64) -> PhaseKingConsensus {
        PhaseKingConsensus::new(self.cfg, input)
    }
}

/// Plurality/queen instances: `n > 4f`, `R = 2(f+1)`.
#[derive(Debug, Clone, Copy)]
pub struct QueenScheme {
    cfg: NodeCfg,
}

impl QueenScheme {
    /// Scheme for one node.
    pub fn new(cfg: NodeCfg) -> Self {
        QueenScheme { cfg }
    }
}

impl ConsensusScheme for QueenScheme {
    type Proto = QueenConsensus;

    fn rounds(&self) -> usize {
        queen_rounds(self.cfg.f)
    }

    fn spawn(&self, input: u64) -> QueenConsensus {
        QueenConsensus::new(self.cfg, input)
    }
}

/// Selects the anchor value from the age-corrected estimates `reps`
/// (`reps[age]`, values in `Z_k`): the plurality value wins. Tie-breaking
/// must commute with the per-beat rotation `rep -> rep + 1` (otherwise the
/// winner churns every time the values cross the mod-`k` wrap), so ties
/// fall through a chain of rotation-equivariant criteria:
///
/// 1. earlier position in the linear order obtained by **cutting the
///    circle at its strictly largest gap** — when such a gap exists
///    (handles the all-distinct window without favoring the newest entry,
///    which would self-perpetuate per-chain singletons);
/// 2. when the largest gap is ambiguous (a value-symmetric window, where
///    no value-only equivariant rule can exist): higher **age-weighted
///    count** (weight `R - age`; ages are not rotated, so this breaks the
///    symmetry stably), then smallest raw value as the knife-edge
///    fallback.
///
/// With this rule the winning cluster is stable across beats, every new
/// output joins it (consensus validity), and the window collapses onto one
/// chain offset within `O(R)` beats.
fn anchor_winner(reps: &[u64], k: u64) -> u64 {
    let nreps = reps.len();
    let mut distinct: Vec<(u64, usize, usize)> = Vec::new(); // (value, count, weight)
    for (age, &r) in reps.iter().enumerate() {
        let weight = nreps - age;
        match distinct.iter_mut().find(|(v, _, _)| *v == r) {
            Some((_, c, w)) => {
                *c += 1;
                *w += weight;
            }
            None => distinct.push((r, 1, weight)),
        }
    }
    if distinct.is_empty() {
        return 0;
    }
    distinct.sort_unstable_by_key(|&(v, _, _)| v);
    // The cut: the distinct value following the largest cyclic gap; note
    // whether that gap is strictly largest.
    let m = distinct.len();
    let mut cut = 0usize;
    let mut best_gap = 0u64;
    let mut gap_unique = true;
    for i in 0..m {
        let cur = distinct[i].0;
        let prev = distinct[(i + m - 1) % m].0;
        let gap = if m == 1 { k } else { (cur + k - prev) % k };
        match gap.cmp(&best_gap) {
            std::cmp::Ordering::Greater => {
                best_gap = gap;
                cut = i;
                gap_unique = true;
            }
            std::cmp::Ordering::Equal => gap_unique = false,
            std::cmp::Ordering::Less => {}
        }
    }
    if gap_unique {
        // Plurality, ties to the earliest value after the cut.
        let mut winner = distinct[cut];
        for off in 1..m {
            let cand = distinct[(cut + off) % m];
            if cand.1 > winner.1 {
                winner = cand;
            }
        }
        winner.0
    } else {
        // Value-symmetric window: plurality, then age-weight, then the
        // smallest value.
        let mut winner = distinct[0];
        for &cand in &distinct[1..] {
            if cand.1 > winner.1 || (cand.1 == winner.1 && cand.2 > winner.2) {
                winner = cand;
            }
        }
        winner.0
    }
}

/// The deterministic pipelined `k`-clock over a [`ConsensusScheme`].
///
/// Internally the agreement chain counts modulo `K`, the smallest multiple
/// of `k` that is at least `4R` (still a *bounded* counter, as the k-Clock
/// problem requires); the output clock is the internal counter mod `k`.
/// Running directly mod `k` degenerates when `k` divides the pipeline
/// depth `R`: the `+R` proposal shift then collapses mod `k`, chain
/// offsets can never merge, and a frozen window (all outputs equal) is
/// self-consistent. With `K ≥ 4R` a frozen window leaves a unique large
/// gap on the value circle and the anchor escapes it in one window.
#[derive(Debug)]
pub struct ConsensusClock<S: ConsensusScheme> {
    /// Output modulus `k`.
    k: u64,
    /// Internal modulus `K` (multiple of `k`, at least `4R`).
    k_int: u64,
    scheme: S,
    full_clock: u64,
    pipeline: Pipeline<S::Proto>,
    /// Last `R` adopted outputs, most recent first (the coupling anchor).
    recent: VecDeque<u64>,
}

/// The `f < n/3` deterministic clock (Table 1 row \[7\]).
pub type PkClock = ConsensusClock<PhaseKingScheme>;

/// The `f < n/4` deterministic clock (Table 1 row \[15\]).
pub type QueenClock = ConsensusClock<QueenScheme>;

impl<S: ConsensusScheme> ConsensusClock<S> {
    /// Builds the clock for modulus `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(scheme: S, k: u64) -> Self {
        assert!(k >= 1, "the k-clock needs k >= 1");
        let rounds = scheme.rounds();
        let k_int = k * (4 * rounds as u64).div_ceil(k).max(1);
        ConsensusClock {
            k,
            k_int,
            scheme: scheme.clone(),
            full_clock: 0,
            pipeline: Pipeline::new(rounds, || scheme.spawn(0)),
            recent: VecDeque::from(vec![0; rounds]),
        }
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.full_clock % self.k
    }

    /// The bounded internal modulus `K`.
    pub fn internal_modulus(&self) -> u64 {
        self.k_int
    }

    /// Pipeline depth `R` — also the convergence-time scale.
    pub fn rounds(&self) -> usize {
        self.pipeline.depth()
    }
}

impl<S: ConsensusScheme> DigitalClock for ConsensusClock<S> {
    fn modulus(&self) -> u64 {
        self.k
    }

    fn read(&self) -> Option<u64> {
        Some(self.clock())
    }
}

impl<S: ConsensusScheme> Application for ConsensusClock<S> {
    type Msg = SlotMsg<BaMsg>;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        let mut sends = Vec::new();
        self.pipeline.send(out.rng(), &mut sends);
        for (target, msg) in sends {
            match target {
                Target::All => out.broadcast(msg),
                Target::One(to) => out.unicast(to, msg),
            }
        }
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        let pairs: Vec<_> = inbox.iter().map(|e| (e.from, e.msg.clone())).collect();
        let k = self.k_int;
        let scheme = self.scheme.clone();
        let recent = &mut self.recent;
        let out = self.pipeline.deliver(&pairs, rng, move |_rng, out: &u64| {
            let out = *out % k;
            recent.push_front(out);
            recent.truncate(scheme.rounds());
            // Age-corrected estimates of "the clock now" per chain.
            let reps: Vec<u64> = recent
                .iter()
                .enumerate()
                .map(|(age, &o)| (o + age as u64) % k)
                .collect();
            let winner = anchor_winner(&reps, k);
            scheme.spawn((winner + scheme.rounds() as u64) % k)
        });
        self.full_clock = out % self.k_int;
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.full_clock = rng.random();
        self.pipeline.corrupt(rng);
        for slot in self.recent.iter_mut() {
            *slot = rng.random();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_core::{all_synced, run_until_stable_sync};
    use byzclock_sim::{SilentAdversary, SimBuilder};

    #[test]
    fn anchor_winner_fixed_point_and_rotation_equivariance() {
        // Single cluster: the winner is that cluster.
        assert_eq!(anchor_winner(&[5, 5, 5], 8), 5);
        assert_eq!(anchor_winner(&[0], 8), 0);
        // Plurality wins across the wrap.
        assert_eq!(anchor_winner(&[7, 7, 1], 8), 7);
        // Rotation equivariance: rotating all reps rotates the winner.
        for rot in 0..8u64 {
            let reps: Vec<u64> = [1u64, 1, 4, 6].iter().map(|&r| (r + rot) % 8).collect();
            assert_eq!(anchor_winner(&reps, 8), (1 + rot) % 8, "rot={rot}");
        }
        // All-distinct: the value right after the largest gap wins (the
        // gap 6 -> 0 of width 10 dominates, so the cut starts at 0).
        assert_eq!(anchor_winner(&[0, 1, 2, 6], 16), 0);
    }

    /// Self-stabilization setup: scrambled initial state everywhere.
    fn corrupted_pk(cfg: NodeCfg, rng: &mut SimRng, k: u64) -> PkClock {
        let mut c = PkClock::new(PhaseKingScheme::new(cfg), k);
        c.corrupt(rng);
        c
    }

    #[test]
    fn pk_clock_converges_and_ticks() {
        let mut sim = SimBuilder::new(7, 2)
            .seed(3)
            .build(|cfg, rng| corrupted_pk(cfg, rng, 64), SilentAdversary);
        let t =
            run_until_stable_sync(&mut sim, 500, 16).expect("deterministic clock must converge");
        // O(R) convergence: R = 11 for f = 2; allow a few windows.
        assert!(t <= 8 * 11, "convergence {t} beats is not O(f)-like");
        let v0 = all_synced(sim.correct_apps().map(|(_, a)| a.read())).unwrap();
        for i in 1..=32 {
            sim.step();
            let v =
                all_synced(sim.correct_apps().map(|(_, a)| a.read())).expect("closure violated");
            assert_eq!(v, (v0 + i) % 64);
        }
    }

    /// The regression that motivated the plurality anchor: pipeline depth
    /// R = 11 (f = 2) with a *small* modulus k = 8 < R must still converge
    /// and tick (a min-anchor churns under mod-k rotation here).
    #[test]
    fn pk_clock_converges_when_k_smaller_than_pipeline() {
        for k in [2u64, 3, 8] {
            let mut sim = SimBuilder::new(7, 2).seed(11).build(
                |cfg, rng| {
                    let mut c = PkClock::new(PhaseKingScheme::new(cfg), k);
                    c.corrupt(rng);
                    c
                },
                SilentAdversary,
            );
            let t = run_until_stable_sync(&mut sim, 1_000, 16)
                .unwrap_or_else(|| panic!("k={k}: deterministic clock stuck"));
            assert!(t <= 8 * 11, "k={k}: convergence {t} not O(f)-like");
            let v0 = all_synced(sim.correct_apps().map(|(_, a)| a.read())).unwrap();
            for i in 1..=(3 * k) {
                sim.step();
                assert_eq!(
                    all_synced(sim.correct_apps().map(|(_, a)| a.read())),
                    Some((v0 + i) % k),
                    "k={k}: closure violated"
                );
            }
        }
    }

    #[test]
    fn queen_clock_converges_within_its_resiliency() {
        // n = 5, f = 1: n > 4f holds.
        let mut sim = SimBuilder::new(5, 1).seed(7).build(
            |cfg, rng| {
                let mut c = QueenClock::new(QueenScheme::new(cfg), 16);
                c.corrupt(rng);
                c
            },
            SilentAdversary,
        );
        let t = run_until_stable_sync(&mut sim, 400, 16);
        assert!(t.is_some(), "queen clock must converge at f < n/4");
    }

    #[test]
    fn deterministic_replay_same_seed() {
        // Identical seeds (same scrambled starts) reproduce the exact
        // convergence beat.
        let converge = |seed: u64| {
            let mut sim = SimBuilder::new(4, 1)
                .seed(seed)
                .build(|cfg, rng| corrupted_pk(cfg, rng, 32), SilentAdversary);
            run_until_stable_sync(&mut sim, 500, 16).unwrap()
        };
        assert_eq!(converge(1), converge(1));
        // Convergence is O(f) regardless of the corrupted start.
        for seed in [1u64, 2, 3] {
            assert!(converge(seed) <= 8 * 11);
        }
    }

    #[test]
    fn recovers_after_corruption_in_o_f_beats() {
        use byzclock_sim::{FaultEvent, FaultKind, FaultPlan};
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 60,
            kind: FaultKind::CorruptAllCorrect,
        }]);
        let mut sim = SimBuilder::new(7, 2).seed(9).faults(plan).build(
            |cfg, _rng| PkClock::new(PhaseKingScheme::new(cfg), 64),
            SilentAdversary,
        );
        sim.run_beats(61); // converge, then get scrambled at beat 60
        let t = run_until_stable_sync(&mut sim, 400, 16)
            .expect("must re-converge after transient corruption");
        assert!(
            (60..=61 + 8 * 11).contains(&t),
            "re-convergence at beat {t} is not O(f) after the fault"
        );
    }
}
