//! The steady workloads' protocol stacks rebuilt around the [`trace`]
//! wrappers.
//!
//! The registry's families are private, so the traced run replicates their
//! constructors through the same public pieces they use (`builder_for`,
//! `ClockSync::new`, `PipelinedCoin::new`, the coin schemes, the beacon
//! seed tag, the public adversary structs). The wrappers forward every
//! call, so a traced run must render the very `RunReport` the registry's
//! run renders; the traced run checks that on every invocation and the
//! self-tests pin it, which is also what catches drift in the replicated
//! constructors.
//!
//! [`trace`]: crate::trace

use crate::trace::{TracedApp, TracedRand, TracedScheme};
use byzclock::scenario::{
    builder_for, clock_adversary, delay_extras, AdversarySpec, ClockRun, CoinSpec, MetricsSpec,
    ScenarioError, ScenarioRun, ScenarioSpec,
};
use byzclock_coin::adversary::RecoverEquivocator;
use byzclock_coin::{
    committee_epoch_seed, committee_fault_budget, CoinApp, CoinStats, CommitteeCoinScheme,
    TicketCoinScheme, COMMITTEE_EPOCH_BEATS,
};
use byzclock_core::{
    merge_metrics, BdClock, ClockSync, DigitalClock, OracleBeacon, OracleRand, PipelinedCoin,
    RandSource, TagEquivocator,
};
use byzclock_sim::{
    derive_seed, Adversary, Application, NodeCfg, SimRng, Simulation, TrafficStats,
};

/// A traced run: the erased scenario plus the coin-layer work counters the
/// per-layer metrics read once the run is over.
pub trait Probe: ScenarioRun {
    /// `RandSource::metrics` (decode and allocation counters of retired
    /// coin instances) summed over the correct nodes; empty for stacks
    /// without a pipelined coin.
    fn coin_metrics(&self) -> Vec<(&'static str, f64)>;
}

/// Builds the traced twin of `registry.start(spec)` for the stack shapes
/// the steady workloads use; any other spec is refused.
pub fn start_traced(spec: &ScenarioSpec) -> Result<Box<dyn Probe>, ScenarioError> {
    spec.validate()?;
    let refuse = |what: &str| {
        Err(ScenarioError::InvalidSpec(format!(
            "the traced build has no {what} stack for `{spec}`"
        )))
    };
    if spec.metrics != MetricsSpec::None {
        return refuse("metrics=");
    }
    match (spec.protocol.as_str(), spec.coin) {
        ("clock-sync", CoinSpec::Ticket) => match spec.committee {
            Some(c) if c < spec.n => {
                let epoch_seed = committee_epoch_seed(spec.seed);
                clock_sync(
                    spec,
                    None,
                    move |cfg, rng, _| {
                        let scheme = CommitteeCoinScheme::new(cfg, c, epoch_seed);
                        TracedRand(PipelinedCoin::new(TracedScheme(scheme), rng))
                    },
                    Some(committee_extras),
                )
            }
            _ => clock_sync(
                spec,
                None,
                |cfg, rng, _| {
                    let scheme = TicketCoinScheme::new(cfg);
                    TracedRand(PipelinedCoin::new(TracedScheme(scheme), rng))
                },
                None,
            ),
        },
        ("clock-sync", CoinSpec::Oracle { .. }) => {
            let beacons: Vec<OracleBeacon> = (0..3).map(|i| oracle_beacon(spec, i)).collect();
            let first = beacons[0].clone();
            // An oracle source answers from the shared beacon without a
            // message, so it gets no span of its own: its reads stay in
            // the clock's self time.
            clock_sync(
                spec,
                Some(&first),
                move |cfg, _rng, i| beacons[i].source(cfg.id),
                None,
            )
        }
        ("bd-clock", CoinSpec::Oracle { .. }) => bd_clock(spec),
        ("coin-stream", CoinSpec::Ticket) if spec.committee.is_none() => coin_stream(spec),
        _ => refuse("matching"),
    }
}

/// The `i`-th oracle beacon of a scenario, on the registry's seed stream.
fn oracle_beacon(spec: &ScenarioSpec, i: u64) -> OracleBeacon {
    OracleBeacon::new(
        spec.coin.p0(),
        spec.coin.p1(),
        derive_seed(spec.seed, 0xBEAC_0000 + i),
    )
}

/// A [`ClockRun`] over a traced clock application, with the coin counters
/// reachable behind the erased run.
struct ProbedClock<A, Adv>
where
    A: Application + DigitalClock,
    A::Msg: 'static,
    Adv: Adversary<A::Msg>,
{
    run: ClockRun<TracedApp<A>, Adv>,
    coin: fn(&A) -> Vec<(&'static str, f64)>,
}

impl<A, Adv> ScenarioRun for ProbedClock<A, Adv>
where
    A: Application + DigitalClock + Send,
    A::Msg: Send + 'static,
    Adv: Adversary<A::Msg>,
{
    fn step(&mut self) {
        self.run.step();
    }

    fn beat(&self) -> u64 {
        self.run.beat()
    }

    fn modulus(&self) -> Option<u64> {
        self.run.modulus()
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        self.run.clock_readings()
    }

    fn traffic(&self) -> &TrafficStats {
        self.run.traffic()
    }

    fn extras(&self) -> Vec<(String, f64)> {
        self.run.extras()
    }
}

impl<A, Adv> Probe for ProbedClock<A, Adv>
where
    A: Application + DigitalClock + Send,
    A::Msg: Send + 'static,
    Adv: Adversary<A::Msg>,
{
    fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut sum = Vec::new();
        for (_, app) in self.run.sim().correct_apps() {
            merge_metrics(&mut sum, (self.coin)(app.inner()));
        }
        sum
    }
}

type ClockExtras<R> = fn(
    &Simulation<TracedApp<ClockSync<R>>, Box<dyn Adversary<<ClockSync<R> as Application>::Msg>>>,
) -> Vec<(String, f64)>;

/// `ss-Byz-Clock-Sync` over three randomness sources (`source` is asked
/// for `A1`, `A2` and the top level in that order, as index 0, 1, 2) —
/// the shape of the registry's ticket, committee and oracle `clock-sync`
/// families.
fn clock_sync<R, F>(
    spec: &ScenarioSpec,
    beacon: Option<&OracleBeacon>,
    mut source: F,
    extras: Option<ClockExtras<R>>,
) -> Result<Box<dyn Probe>, ScenarioError>
where
    R: RandSource + Send + 'static,
    R::Msg: Send + 'static,
    F: FnMut(NodeCfg, &mut SimRng, usize) -> R,
{
    let adversary = clock_adversary(spec, beacon)?;
    let k = spec.clock_modulus;
    let sim = builder_for(spec).build(
        move |cfg, rng| {
            let (a1, a2, top) = (
                source(cfg, rng, 0),
                source(cfg, rng, 1),
                source(cfg, rng, 2),
            );
            TracedApp::new(cfg.id, ClockSync::new(cfg, k, a1, a2, top))
        },
        adversary,
    );
    let run = match extras {
        Some(f) => ClockRun::with_extras(sim, f),
        None => ClockRun::new(sim),
    };
    Ok(Box::new(ProbedClock {
        run,
        coin: ClockSync::coin_metrics,
    }))
}

type Committee = TracedRand<PipelinedCoin<TracedScheme<CommitteeCoinScheme>>>;

/// The committee triple the registry's `clock-sync … committee=c` family
/// echoes into its report.
fn committee_extras<Adv>(
    sim: &Simulation<TracedApp<ClockSync<Committee>>, Adv>,
) -> Vec<(String, f64)>
where
    Adv: Adversary<<ClockSync<Committee> as Application>::Msg>,
{
    let Some((_, app)) = sim.correct_apps().next() else {
        return Vec::new();
    };
    let c = app.inner().rand_source().0.scheme().0.committee_size();
    vec![
        ("committee_size".to_string(), c as f64),
        (
            "committee_fault_budget".to_string(),
            committee_fault_budget(c) as f64,
        ),
        (
            "committee_epoch_beats".to_string(),
            COMMITTEE_EPOCH_BEATS as f64,
        ),
    ]
}

/// `bd-clock` over an oracle beacon: the whole clock sits behind the
/// `Application` seam.
fn bd_clock(spec: &ScenarioSpec) -> Result<Box<dyn Probe>, ScenarioError> {
    let k = spec.clock_modulus;
    let window = spec.timing().window();
    if !(4..=255).contains(&k) || k < 2 * window {
        return Err(ScenarioError::InvalidSpec(format!(
            "bd-clock needs a modulus in 4..=255 with k >= 2*delay-window, got k={k} window={window}"
        )));
    }
    let AdversarySpec::Equivocate = spec.adversary else {
        return Err(ScenarioError::UnsupportedAdversary {
            protocol: spec.protocol.clone(),
            adversary: spec.adversary.to_string(),
        });
    };
    let beacon = oracle_beacon(spec, 0);
    let sim = builder_for(spec).build(
        move |cfg, _rng| {
            TracedApp::new(cfg.id, BdClock::new(cfg, k, window, beacon.source(cfg.id)))
        },
        TagEquivocator { k },
    );
    Ok(Box::new(ProbedClock {
        run: ClockRun::with_extras(sim, bd_extras),
        coin: |_| Vec::new(),
    }))
}

/// `bd_clock_extras` of the registry's family: every `BdClock::metrics`
/// counter as its mean over the correct nodes.
fn bd_extras(
    sim: &Simulation<TracedApp<BdClock<OracleRand>>, TagEquivocator>,
) -> Vec<(String, f64)> {
    let mut sums: Vec<(String, f64)> = Vec::new();
    let mut count = 0usize;
    for (_, app) in sim.correct_apps() {
        count += 1;
        for (name, value) in app.inner().metrics() {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    for (_, v) in &mut sums {
        *v /= count.max(1) as f64;
    }
    sums
}

type StreamApp = CoinApp<TracedScheme<TicketCoinScheme>>;

/// The registry's `coin-stream` adapter (private there) over a traced
/// ticket scheme.
struct ProbedStream {
    sim: Simulation<TracedApp<StreamApp>, RecoverEquivocator>,
}

/// `coin-stream coin=ticket adv=recover-equivocator`: the coin stream has
/// no `RandSource` seam (`CoinApp` owns its pipeline), so its spans go
/// step → app → round.
fn coin_stream(spec: &ScenarioSpec) -> Result<Box<dyn Probe>, ScenarioError> {
    let AdversarySpec::RecoverEquivocator { slot } = spec.adversary else {
        return Err(ScenarioError::UnsupportedAdversary {
            protocol: spec.protocol.clone(),
            adversary: spec.adversary.to_string(),
        });
    };
    let adversary = RecoverEquivocator {
        recover_slot: slot,
        targets: spec.n,
    };
    let sim = builder_for(spec).build(
        |cfg, rng| {
            let scheme = TracedScheme(TicketCoinScheme::new(cfg));
            TracedApp::new(cfg.id, CoinApp::new(scheme, rng))
        },
        adversary,
    );
    Ok(Box::new(ProbedStream { sim }))
}

impl ScenarioRun for ProbedStream {
    fn step(&mut self) {
        self.sim.step();
    }

    fn beat(&self) -> u64 {
        self.sim.beat()
    }

    fn modulus(&self) -> Option<u64> {
        None
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        Vec::new()
    }

    fn traffic(&self) -> &TrafficStats {
        self.sim.stats()
    }

    fn extras(&self) -> Vec<(String, f64)> {
        // `coin_stats` wants a `Simulation<CoinApp<_>, _>`; behind the
        // traced application the same tally is taken over the histories.
        let histories: Vec<&[bool]> = self
            .sim
            .correct_apps()
            .map(|(_, a)| a.inner().history())
            .collect();
        let warmup = self
            .sim
            .correct_apps()
            .next()
            .map_or(4, |(_, a)| a.inner().depth());
        let stats = stream_stats(&histories, warmup);
        let mut extras = vec![
            ("p0".to_string(), stats.p0()),
            ("p1".to_string(), stats.p1()),
            ("agreement_rate".to_string(), stats.agreement_rate()),
            ("measured_beats".to_string(), stats.beats as f64),
        ];
        extras.extend(delay_extras(self.sim.timing(), self.sim.delay_histogram()));
        extras
    }
}

/// `byzclock_coin::coin_stats`' tally, over bare histories.
fn stream_stats(histories: &[&[bool]], warmup: usize) -> CoinStats {
    let mut stats = CoinStats::default();
    let Some(len) = histories.iter().map(|h| h.len()).min() else {
        return stats;
    };
    for beat in warmup..len {
        let first = histories[0][beat];
        stats.beats += 1;
        if histories.iter().all(|h| h[beat] == first) {
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

impl Probe for ProbedStream {
    fn coin_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut sum = Vec::new();
        for (_, app) in self.sim.correct_apps() {
            merge_metrics(&mut sum, app.inner().coin_metrics());
        }
        sum
    }
}
