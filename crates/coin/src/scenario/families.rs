//! The paper's clocks (Fig. 2–4, §5) and the bounded-delay clock, each
//! written once over any randomness source that meets the
//! `ss-Byz-Coin-Flip` contract (Def. 2.6).
//!
//! A clock family is a [`ClockShape`]; [`serve`] is the one coin dispatch
//! that checks a spec and turns `coin=`/`committee=` into each node's
//! sources.

use super::{committee_extra_pairs, metrics_extras};
use crate::{committee_coin, committee_epoch_seed, ticket_coin, xor_coin};
use byzclock_core::adversary::VoteMessage;
use byzclock_core::scenario::{
    builder_for, clock_adversary, reject_unwired, AdversarySpec, ClockRun, CoinSpec,
    ProtocolFamily, ScenarioError, ScenarioRun, ScenarioSpec,
};
use byzclock_core::{
    BdClock, BdClockMsg, BrokenTwoClock, ClockSync, FourClock, LocalRand, OracleBeacon, RandSource,
    RandomTagAdversary, RecursiveClock, SharedFourClock, TagEquivocator, TwoClock,
};
use byzclock_sim::{
    derive_seed, Adversary, Application, NodeCfg, SilentAdversary, SimRng, Simulation,
};

/// One clock, written once: the family-specific half of a spawn. [`serve`]
/// checks the coin ([`ClockShape::serves`]) and the `committee=`/`metrics=`
/// wiring ([`ClockShape::WIRED`]); `build` then checks the family's own
/// parameters and last the adversary — the registry's one check order.
trait ClockShape: Send + Sync {
    /// The registry name.
    const NAME: &'static str;

    /// Whether `committee=` and `metrics=` are wired over the ticket coin.
    const WIRED: bool = false;

    /// Whether the clock runs over `coin`.
    fn serves(&self, coin: &CoinSpec) -> bool;

    /// Builds the run. `source(cfg, rng, slot)` is a node's randomness
    /// source for `slot` (0, 1, … — one per coin the clock consumes),
    /// called in slot order; `beacon` is the oracle's first beacon, which
    /// `rand-aware-splitter` reads.
    fn build<R>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError>
    where
        R: RandSource + 'static;

    /// [`ClockShape::build`] over a source that sends no messages (the
    /// oracle and local coins): the only sources `bd-clock` can carry.
    fn build_quiet<R>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError>
    where
        R: RandSource<Msg = ()> + 'static,
    {
        self.build(spec, beacon, source)
    }
}

/// A [`ClockShape`] as a registry family.
pub(super) struct Clock<S>(pub(super) S);

impl<S: ClockShape> ProtocolFamily for Clock<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        serve(&self.0, spec)
    }
}

/// The one coin dispatch. Each coin draws what its family always drew:
/// one oracle beacon per slot, `LocalRand`, or a pipelined ticket, XOR or
/// committee coin per slot from the node's own RNG.
fn serve<S: ClockShape>(
    shape: &S,
    spec: &ScenarioSpec,
) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
    if !shape.serves(&spec.coin) {
        return Err(ScenarioError::unsupported_coin(spec));
    }
    if !(S::WIRED && spec.coin == CoinSpec::Ticket) {
        reject_unwired(spec)?;
    }
    match spec.coin {
        CoinSpec::Oracle { .. } => {
            // Beacon `slot` is made when the first node asks for it; every
            // node then shares it.
            let mut beacons = vec![oracle_beacon(spec, 0)];
            let first = beacons[0].clone();
            shape.build_quiet(spec, Some(&first), move |cfg, _, slot| {
                if slot == beacons.len() {
                    beacons.push(oracle_beacon(spec, slot as u64));
                }
                beacons[slot].source(cfg.id)
            })
        }
        CoinSpec::Local => shape.build_quiet(spec, None, |_, _, _| LocalRand),
        CoinSpec::Ticket => match spec.committee {
            Some(c) if c < spec.n => {
                let epoch_seed = committee_epoch_seed(spec.seed);
                shape.build(spec, None, move |cfg, rng, _| {
                    committee_coin(cfg, c, epoch_seed, rng)
                })
            }
            // c == n: the committee is everyone, and the relay round would
            // only re-announce what every node already recovered — run the
            // full ticket coin, so the degenerate spec reports identically
            // to the plain one (pinned by a property test).
            _ => shape.build(spec, None, |cfg, rng, _| ticket_coin(cfg, rng)),
        },
        CoinSpec::Xor => shape.build(spec, None, |cfg, rng, _| xor_coin(cfg, rng)),
        CoinSpec::None => Err(ScenarioError::unsupported_coin(spec)),
    }
}

/// The `i`-th oracle beacon of a scenario, from its own seed stream (so
/// node RNGs, adversary RNGs, and beacons never share a stream).
fn oracle_beacon(spec: &ScenarioSpec, i: u64) -> OracleBeacon {
    OracleBeacon::new(
        spec.coin.p0(),
        spec.coin.p1(),
        derive_seed(spec.seed, 0xBEAC_0000 + i),
    )
}

/// A lockstep clock's simulation under a clock-layer adversary.
type ClockSim<A> = Simulation<A, Box<dyn Adversary<<A as Application>::Msg>>>;

/// Builds `make`'s nodes against the spec's clock-layer adversary.
fn clock_sim<A>(
    spec: &ScenarioSpec,
    beacon: Option<&OracleBeacon>,
    make: impl FnMut(NodeCfg, &mut SimRng) -> A,
) -> Result<ClockSim<A>, ScenarioError>
where
    A: Application,
    A::Msg: VoteMessage + 'static,
{
    let adversary = clock_adversary(spec, beacon)?;
    Ok(builder_for(spec).build(make, adversary))
}

/// `ss-Byz-2-Clock` (Fig. 2).
pub(super) struct TwoClockShape;

impl ClockShape for TwoClockShape {
    const NAME: &'static str = "two-clock";

    fn serves(&self, coin: &CoinSpec) -> bool {
        *coin != CoinSpec::None
    }

    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let sim = clock_sim(spec, beacon, move |cfg, rng| {
            TwoClock::new(cfg, source(cfg, rng, 0))
        })?;
        Ok(Box::new(ClockRun::new(sim)))
    }
}

/// The Remark 3.1 broken variant (sender-side coin substitution) — kept to
/// demonstrate *why* the paper's protocol uses yesterday's bit at the
/// receiver. Oracle only: the ablation needs `rand-aware-splitter`.
pub(super) struct BrokenTwoClockShape;

impl ClockShape for BrokenTwoClockShape {
    const NAME: &'static str = "broken-two-clock";

    fn serves(&self, coin: &CoinSpec) -> bool {
        matches!(coin, CoinSpec::Oracle { .. })
    }

    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let sim = clock_sim(spec, beacon, move |cfg, rng| {
            BrokenTwoClock::new(cfg, source(cfg, rng, 0))
        })?;
        Ok(Box::new(ClockRun::new(sim)))
    }
}

/// `ss-Byz-4-Clock` (Fig. 3), one source per sub-clock as in the paper's
/// construction; extras: `a2_step_ratio`, the Theorem 3 every-other-beat
/// gate, as the mean over the correct nodes.
pub(super) struct FourClockShape;

impl ClockShape for FourClockShape {
    const NAME: &'static str = "four-clock";

    fn serves(&self, coin: &CoinSpec) -> bool {
        matches!(
            coin,
            CoinSpec::Ticket | CoinSpec::Xor | CoinSpec::Oracle { .. }
        )
    }

    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let sim = clock_sim(spec, beacon, move |cfg, rng| {
            FourClock::new(cfg, source(cfg, rng, 0), source(cfg, rng, 1))
        })?;
        Ok(Box::new(ClockRun::with_extras(sim, |sim| {
            let (count, sum) = sim.correct_apps().fold((0usize, 0.0f64), |(c, s), (_, a)| {
                (c + 1, s + a.a2_step_ratio())
            });
            vec![("a2_step_ratio".to_string(), sum / count as f64)]
        })))
    }
}

/// The Remark 4.1 variant: both sub-clocks share one ticket-coin pipeline.
pub(super) struct SharedFourClockShape;

impl ClockShape for SharedFourClockShape {
    const NAME: &'static str = "shared-four-clock";

    fn serves(&self, coin: &CoinSpec) -> bool {
        *coin == CoinSpec::Ticket
    }

    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let sim = clock_sim(spec, beacon, move |cfg, rng| {
            SharedFourClock::new(cfg, source(cfg, rng, 0))
        })?;
        Ok(Box::new(ClockRun::new(sim)))
    }
}

/// `ss-Byz-Clock-Sync` (Fig. 4) for any modulus `k`, over three sources
/// (`A1`, `A2`, top level) — the paper's full stack over the ticket coin,
/// the only family that wires `committee=` and `metrics=`.
pub(super) struct ClockSyncShape;

impl ClockShape for ClockSyncShape {
    const NAME: &'static str = "clock-sync";
    const WIRED: bool = true;

    fn serves(&self, coin: &CoinSpec) -> bool {
        matches!(coin, CoinSpec::Ticket | CoinSpec::Oracle { .. })
    }

    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let k = spec.clock_modulus;
        let sim = clock_sim(spec, beacon, move |cfg, rng| {
            let (a1, a2, top) = (
                source(cfg, rng, 0),
                source(cfg, rng, 1),
                source(cfg, rng, 2),
            );
            ClockSync::new(cfg, k, a1, a2, top)
        })?;
        // Extras in report order: the committee triple (only for a real
        // committee, c < n), then the `metrics=` counters.
        let committee = spec.committee.filter(|&c| c < spec.n);
        let metrics = spec.metrics;
        Ok(Box::new(ClockRun::with_extras(sim, move |sim| {
            let mut extras = committee.map_or_else(Vec::new, committee_extra_pairs);
            extras.extend(metrics_extras(
                metrics,
                sim.correct_apps().map(|(_, app)| app.coin_metrics()),
            ));
            extras
        })))
    }
}

/// The §5 recursive-doubling `2^m`-clock, one source per level.
pub(super) struct RecursiveShape;

impl ClockShape for RecursiveShape {
    const NAME: &'static str = "recursive";

    fn serves(&self, coin: &CoinSpec) -> bool {
        matches!(coin, CoinSpec::Ticket | CoinSpec::Oracle { .. })
    }

    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let k = spec.clock_modulus;
        if k < 2 || !k.is_power_of_two() {
            return Err(ScenarioError::InvalidSpec(format!(
                "recursive clock needs a power-of-two modulus >= 2, got k={k}"
            )));
        }
        let levels = k.trailing_zeros() as usize;
        let sim = clock_sim(spec, beacon, move |cfg, rng| {
            // The levels draw in turn from one copy of the node's RNG.
            let mut level_rng = rng.clone();
            RecursiveClock::new(cfg, levels, |j| source(cfg, &mut level_rng, j))
        })?;
        Ok(Box::new(ClockRun::new(sim)))
    }
}

/// `bd-clock` — the bounded-delay-tolerant threshold clock on the
/// round-tag wheel. The only family in the registry *specified* for
/// the semi-synchronous model: it converges for `delay=0..=3` where the
/// lockstep protocols stop at `delay>=2` (the `experiments d2` grid).
pub(super) struct BdClockShape;

impl ClockShape for BdClockShape {
    const NAME: &'static str = "bd-clock";

    fn serves(&self, coin: &CoinSpec) -> bool {
        matches!(coin, CoinSpec::Local | CoinSpec::Oracle { .. })
    }

    /// A coin that sends messages has no place in the bd-clock's wire
    /// type; [`ClockShape::serves`] never lets one through.
    fn build<R: RandSource + 'static>(
        &self,
        spec: &ScenarioSpec,
        _beacon: Option<&OracleBeacon>,
        _source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        Err(ScenarioError::unsupported_coin(spec))
    }

    fn build_quiet<R: RandSource<Msg = ()> + 'static>(
        &self,
        spec: &ScenarioSpec,
        _beacon: Option<&OracleBeacon>,
        mut source: impl FnMut(NodeCfg, &mut SimRng, usize) -> R,
    ) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let (k, window) = (spec.clock_modulus, spec.timing().window());
        if !(4..=255).contains(&k) || k < 2 * window {
            return Err(ScenarioError::InvalidSpec(format!(
                "bd-clock needs a modulus in 4..=255 with k >= 2*delay-window, got k={k} window={window}"
            )));
        }
        let adversary = bd_adversary(spec)?;
        let sim = builder_for(spec).build(
            move |cfg, rng| BdClock::new(cfg, k, window, source(cfg, rng, 0)),
            adversary,
        );
        Ok(Box::new(ClockRun::with_extras(sim, bd_clock_extras)))
    }
}

/// Resolves the spec's adversary in the round-tag message space: the
/// `VoteMessage` strategies have no `Trit` votes to forge here — what a
/// bd-clock adversary forges is the tag itself (and the envelope-level
/// claimed send beat).
fn bd_adversary(spec: &ScenarioSpec) -> Result<Box<dyn Adversary<BdClockMsg>>, ScenarioError> {
    let k = spec.clock_modulus;
    Ok(match spec.adversary {
        AdversarySpec::Silent => Box::new(SilentAdversary),
        AdversarySpec::RandomVote => Box::new(RandomTagAdversary { k }),
        AdversarySpec::Equivocate => Box::new(TagEquivocator { k }),
        _ => return Err(ScenarioError::unsupported_adversary(spec)),
    })
}

/// Samples the bd-clock engine/rule counters (mean over correct nodes)
/// into report extras: quorum-vs-timeout advancement, catch-ups, jumps,
/// coin resets, rounds buffered ahead, dropped tags, late arrivals.
fn bd_clock_extras<R, Adv>(sim: &Simulation<BdClock<R>, Adv>) -> Vec<(String, f64)>
where
    R: RandSource<Msg = ()>,
    Adv: Adversary<BdClockMsg>,
{
    let mut sums: Vec<(String, f64)> = Vec::new();
    let mut count = 0usize;
    for (_, app) in sim.correct_apps() {
        count += 1;
        for (name, value) in app.metrics() {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    for (_, v) in &mut sums {
        *v /= count as f64;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::super::register_protocols;
    use super::*;
    use byzclock_core::scenario::{FaultPlanSpec, ProtocolRegistry};

    fn registry() -> ProtocolRegistry {
        let mut r = ProtocolRegistry::new();
        register_protocols(&mut r);
        r
    }

    #[test]
    fn oracle_two_clock_runs_and_converges() {
        let spec = ScenarioSpec::new("two-clock", 7, 2)
            .with_coin(CoinSpec::perfect_oracle())
            .with_seed(5)
            .with_budget(2_000);
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
        assert_eq!(report.final_clocks.len(), 5);
    }

    #[test]
    fn oracle_clock_sync_honors_modulus() {
        let spec = ScenarioSpec::new("clock-sync", 4, 1)
            .with_coin(CoinSpec::perfect_oracle())
            .with_modulus(16)
            .with_budget(2_000);
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some());
        assert!(report
            .final_clocks
            .iter()
            .all(|c| c.is_some_and(|v| v < 16)));
    }

    #[test]
    fn recursive_rejects_non_power_of_two() {
        let spec = ScenarioSpec::new("recursive", 4, 1)
            .with_coin(CoinSpec::perfect_oracle())
            .with_modulus(12);
        match registry().run(&spec) {
            Err(ScenarioError::InvalidSpec(msg)) => assert!(msg.contains("power-of-two")),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn unknown_protocol_lists_known_names() {
        let spec = ScenarioSpec::new("no-such-clock", 4, 1);
        match registry().run(&spec) {
            Err(ScenarioError::UnknownProtocol { known, .. }) => {
                assert!(known.iter().any(|n| n == "clock-sync"), "{known:?}");
            }
            other => panic!("expected UnknownProtocol, got {other:?}"),
        }
    }

    #[test]
    fn rand_aware_splitter_needs_a_beacon_to_exploit_broken_clock() {
        // The A1 ablation pair: correct vs broken 2-clock under the same
        // coin-aware splitter. The broken one converges much later (or
        // not at all) on most seeds; here just pin both spawn and run.
        let base = ScenarioSpec::new("two-clock", 7, 2)
            .with_coin(CoinSpec::perfect_oracle())
            .with_adversary(AdversarySpec::RandAwareSplitter)
            .with_budget(4_000)
            .with_seed(1);
        assert!(registry().run(&base).unwrap().converged_at.is_some());
        let broken = ScenarioSpec {
            protocol: "broken-two-clock".into(),
            ..base.clone()
        };
        let report = registry().run(&broken).unwrap();
        // Spawns and runs deterministically; convergence is not promised.
        assert!(report.beats <= 4_000);
    }

    #[test]
    fn bounded_delay_threads_through_every_oracle_family() {
        // The acceptance spec of the timing-model refactor: `delay=2`
        // parses, runs deterministically, and reports delay extras.
        let spec = ScenarioSpec::parse(
            "clock-sync n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 \
             seed=4 budget=4000",
        )
        .unwrap();
        let registry = registry();
        let report = registry.run(&spec).unwrap();
        assert_eq!(report.extra("delay_window"), Some(2.0));
        let hist: f64 = (0..2)
            .map(|d| report.extra(&format!("delay_hist_{d}")).unwrap())
            .sum();
        assert!(hist > 0.0);
        assert_eq!(registry.run(&spec).unwrap(), report, "deterministic");

        // Lockstep reports carry no delay extras at all.
        let lockstep = registry
            .run(&ScenarioSpec::parse("two-clock n=4 f=1 coin=oracle budget=500").unwrap())
            .unwrap();
        assert!(lockstep.extra("delay_window").is_none());
    }

    #[test]
    fn bd_clock_converges_where_lockstep_fails() {
        // The registry-level statement of the d2 grid's headline: at
        // delay=2 the lockstep two-clock stalls, bd-clock converges and
        // reports its advancement extras.
        let registry = registry();
        let bd = ScenarioSpec::parse(
            "bd-clock n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 \
             seed=3 budget=3000",
        )
        .unwrap();
        let report = registry.run(&bd).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
        assert!(report.extra("bd_quorum_ticks").unwrap_or(0.0) > 0.0);
        assert!(report.extra("delay_window") == Some(2.0));

        let lockstep_protocol = ScenarioSpec::parse(
            "two-clock n=7 f=2 coin=oracle adv=silent faults=corrupt-start delay=2 \
             seed=3 budget=3000",
        )
        .unwrap();
        let report = registry.run(&lockstep_protocol).unwrap();
        assert!(
            report.converged_at.is_none(),
            "the lockstep 2-clock should not survive delay=2: {report:?}"
        );
    }

    #[test]
    fn bd_clock_rejects_narrow_moduli_and_foreign_adversaries() {
        let registry = registry();
        let narrow = ScenarioSpec::new("bd-clock", 7, 2)
            .with_modulus(4)
            .with_coin(CoinSpec::perfect_oracle())
            .with_delay(3);
        match registry.run(&narrow) {
            Err(ScenarioError::InvalidSpec(msg)) => assert!(msg.contains("bd-clock")),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        let wrong_adv = ScenarioSpec::new("bd-clock", 7, 2)
            .with_coin(CoinSpec::perfect_oracle())
            .with_adversary(AdversarySpec::SplitVote);
        match registry.run(&wrong_adv) {
            Err(ScenarioError::UnsupportedAdversary { protocol, .. }) => {
                assert_eq!(protocol, "bd-clock")
            }
            other => panic!("expected UnsupportedAdversary, got {other:?}"),
        }
    }

    #[test]
    fn storm_recovery_measures_from_last_fault() {
        let spec = ScenarioSpec::new("two-clock", 7, 2)
            .with_coin(CoinSpec::perfect_oracle())
            .with_faults(FaultPlanSpec::storm(30, 40))
            .with_budget(3_000)
            .with_seed(3);
        let report = registry().run(&spec).unwrap();
        let recovery = report.beats_to_sync().expect("recovers after the storm");
        assert!(report.converged_at.unwrap() >= 31);
        assert!(recovery < 2_000);
    }

    #[test]
    fn reports_are_deterministic_and_seed_sensitive() {
        let spec = ScenarioSpec::new("four-clock", 7, 2)
            .with_coin(CoinSpec::perfect_oracle())
            .with_seed(11)
            .with_budget(1_500);
        let a = registry().run(&spec).unwrap();
        let b = registry().run(&spec).unwrap();
        assert_eq!(a, b);
        assert!(a.extra("a2_step_ratio").is_some());
        let c = registry().run(&spec.clone().with_seed(12)).unwrap();
        assert_ne!(a, c);
    }
}
