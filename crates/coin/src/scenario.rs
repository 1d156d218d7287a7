//! Scenario-layer registrations for the real coin substrates: every clock
//! protocol over the pipelined GVSS **ticket** coin (the paper's full
//! construction) or the weaker **XOR** coin, plus the standalone
//! `coin-stream` scenario (§6.1's "stream of shared coins") with
//! coin-quality metrics in the report extras.

use crate::adversary::{CoinNoiseAdversary, InconsistentDealer, RecoverEquivocator};
use crate::app::{coin_stats, CoinApp, CoinAppMsg};
use crate::{
    committee_clock_sync, committee_epoch_seed, committee_fault_budget, ticket_clock_sync,
    ticket_coin, ticket_four_clock, ticket_two_clock, xor_coin, CommitteeCoin, CommitteeCoinScheme,
    TicketCoinScheme, XorCoinScheme, COMMITTEE_EPOCH_BEATS,
};
use byzclock_core::scenario::{
    builder_for, clock_adversary, delay_extras, four_clock_extras, recursive_levels, AdversarySpec,
    ClockRun, CoinSpec, MetricsSpec, ProtocolFamily, ProtocolRegistry, ScenarioError, ScenarioRun,
    ScenarioSpec,
};
use byzclock_core::{
    ClockSync, CoinScheme, FourClock, PipelinedCoin, RandSource, RecursiveClock, SharedFourClock,
    TwoClock,
};
use byzclock_sim::{Adversary, Application, SilentAdversary, Simulation, TrafficStats};

/// Registers every family this crate provides.
pub fn register_protocols(registry: &mut ProtocolRegistry) {
    registry
        .register(Box::new(CoinTwoClockFamily))
        .register(Box::new(CoinFourClockFamily))
        .register(Box::new(SharedFourClockFamily))
        .register(Box::new(CoinClockSyncFamily))
        .register(Box::new(CoinRecursiveFamily))
        .register(Box::new(CoinStreamFamily));
}

fn unsupported_coin(spec: &ScenarioSpec) -> ScenarioError {
    ScenarioError::UnsupportedCoin {
        protocol: spec.protocol.clone(),
        coin: spec.coin.to_string(),
    }
}

/// Families that run the ticket coin but have no committee wiring reject
/// `committee=` loudly instead of silently running the full coin.
fn reject_committee(spec: &ScenarioSpec) -> Result<(), ScenarioError> {
    match spec.committee {
        Some(c) => Err(ScenarioError::InvalidSpec(format!(
            "committee={c} is only wired into the clock-sync and coin-stream families; \
             `{}` always runs the full coin",
            spec.protocol
        ))),
        None => Ok(()),
    }
}

/// The `metrics=decode` report extras: the GVSS recover round's
/// decode-batch totals summed over the correct nodes' coin pipelines,
/// plus the derived mean batch size (codewords per point-set decoder).
fn decode_extras<'a>(per_node: impl Iterator<Item = Vec<(&'a str, f64)>>) -> Vec<(String, f64)> {
    let (mut batches, mut codewords) = (0.0, 0.0);
    for metrics in per_node {
        for (key, value) in metrics {
            match key {
                "decode_batches" => batches += value,
                "decode_codewords" => codewords += value,
                _ => {}
            }
        }
    }
    let mean = if batches > 0.0 {
        codewords / batches
    } else {
        0.0
    };
    vec![
        ("decode_batches".to_string(), batches),
        ("decode_codewords".to_string(), codewords),
        ("decode_mean_batch".to_string(), mean),
    ]
}

/// The `metrics=alloc` report extras: the GVSS workspace allocator
/// counters summed over the correct nodes' coin pipelines. The zero-alloc
/// steady state reads as frozen `*_builds` counters while the
/// reuse/hit counters keep climbing — every retired instance after
/// warm-up drew pooled storage and a cached decoder.
fn alloc_extras<'a>(per_node: impl Iterator<Item = Vec<(&'a str, f64)>>) -> Vec<(String, f64)> {
    const KEYS: [&str; 4] = [
        "alloc_storage_builds",
        "alloc_storage_reuses",
        "alloc_decoder_builds",
        "alloc_decoder_hits",
    ];
    let mut sums = [0.0f64; 4];
    for metrics in per_node {
        for (key, value) in metrics {
            if let Some(i) = KEYS.iter().position(|k| *k == key) {
                sums[i] += value;
            }
        }
    }
    KEYS.iter()
        .zip(sums)
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// [`ClockRun`] extras sampler for `clock-sync … metrics=decode`: decode
/// batching totals across the three coin pipelines of every correct node.
fn clock_sync_decode_extras<R, Adv>(sim: &Simulation<ClockSync<R>, Adv>) -> Vec<(String, f64)>
where
    R: RandSource,
    ClockSync<R>: Application,
    Adv: Adversary<<ClockSync<R> as Application>::Msg>,
{
    decode_extras(sim.correct_apps().map(|(_, app)| app.coin_metrics()))
}

/// [`ClockRun`] extras sampler for `clock-sync … metrics=alloc`.
fn clock_sync_alloc_extras<R, Adv>(sim: &Simulation<ClockSync<R>, Adv>) -> Vec<(String, f64)>
where
    R: RandSource,
    ClockSync<R>: Application,
    Adv: Adversary<<ClockSync<R> as Application>::Msg>,
{
    alloc_extras(sim.correct_apps().map(|(_, app)| app.coin_metrics()))
}

/// The committee parameters echoed into a report's extras, read off the
/// scheme a correct node is actually running (`None` committee specs and
/// the degenerate `c = n` delegation report nothing — their reports stay
/// identical to the full-coin family's).
fn committee_extras_of<Adv>(sim: &Simulation<ClockSync<CommitteeCoin>, Adv>) -> Vec<(String, f64)>
where
    Adv: Adversary<<ClockSync<CommitteeCoin> as Application>::Msg>,
{
    let Some((_, app)) = sim.correct_apps().next() else {
        return Vec::new();
    };
    let scheme = app.rand_source().scheme();
    committee_extra_pairs(scheme.committee_size())
}

/// The extras triple shared by the clock-sync and coin-stream adapters.
fn committee_extra_pairs(c: usize) -> Vec<(String, f64)> {
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

/// Extras sampler for `clock-sync … committee=c` (no `metrics=`).
fn committee_clock_sync_extras<Adv>(
    sim: &Simulation<ClockSync<CommitteeCoin>, Adv>,
) -> Vec<(String, f64)>
where
    Adv: Adversary<<ClockSync<CommitteeCoin> as Application>::Msg>,
{
    committee_extras_of(sim)
}

/// Extras sampler for `clock-sync … committee=c metrics=decode`.
fn committee_clock_sync_decode_extras<Adv>(
    sim: &Simulation<ClockSync<CommitteeCoin>, Adv>,
) -> Vec<(String, f64)>
where
    Adv: Adversary<<ClockSync<CommitteeCoin> as Application>::Msg>,
{
    let mut extras = committee_extras_of(sim);
    extras.extend(clock_sync_decode_extras(sim));
    extras
}

/// Extras sampler for `clock-sync … committee=c metrics=alloc`.
fn committee_clock_sync_alloc_extras<Adv>(
    sim: &Simulation<ClockSync<CommitteeCoin>, Adv>,
) -> Vec<(String, f64)>
where
    Adv: Adversary<<ClockSync<CommitteeCoin> as Application>::Msg>,
{
    let mut extras = committee_extras_of(sim);
    extras.extend(clock_sync_alloc_extras(sim));
    extras
}

/// `ss-Byz-2-Clock` over a real pipelined coin.
struct CoinTwoClockFamily;

impl ProtocolFamily for CoinTwoClockFamily {
    fn name(&self) -> &'static str {
        "two-clock"
    }

    fn describe(&self) -> &'static str {
        "ss-Byz-2-Clock over the pipelined GVSS ticket coin (or XOR coin)"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        match spec.coin {
            CoinSpec::Ticket => {
                reject_committee(spec)?;
                let adversary = clock_adversary(spec, None)?;
                let sim = builder_for(spec).build(ticket_two_clock, adversary);
                Ok(Box::new(ClockRun::new(sim)))
            }
            CoinSpec::Xor => {
                reject_committee(spec)?;
                let adversary = clock_adversary(spec, None)?;
                let sim = builder_for(spec)
                    .build(|cfg, rng| TwoClock::new(cfg, xor_coin(cfg, rng)), adversary);
                Ok(Box::new(ClockRun::new(sim)))
            }
            _ => Err(unsupported_coin(spec)),
        }
    }
}

/// `ss-Byz-4-Clock` over real coins, one pipeline per sub-clock (the
/// paper's construction).
struct CoinFourClockFamily;

impl ProtocolFamily for CoinFourClockFamily {
    fn name(&self) -> &'static str {
        "four-clock"
    }

    fn describe(&self) -> &'static str {
        "ss-Byz-4-Clock over two pipelined ticket (or XOR) coins; extras: a2_step_ratio"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        match spec.coin {
            CoinSpec::Ticket => {
                reject_committee(spec)?;
                let adversary = clock_adversary(spec, None)?;
                let sim = builder_for(spec).build(ticket_four_clock, adversary);
                Ok(Box::new(ClockRun::with_extras(
                    sim,
                    four_clock_extras::<PipelinedCoin<TicketCoinScheme>, _>,
                )))
            }
            CoinSpec::Xor => {
                reject_committee(spec)?;
                let adversary = clock_adversary(spec, None)?;
                let sim = builder_for(spec).build(
                    |cfg, rng| FourClock::new(cfg, xor_coin(cfg, rng), xor_coin(cfg, rng)),
                    adversary,
                );
                Ok(Box::new(ClockRun::with_extras(
                    sim,
                    four_clock_extras::<PipelinedCoin<XorCoinScheme>, _>,
                )))
            }
            _ => Err(unsupported_coin(spec)),
        }
    }
}

/// The Remark 4.1 variant: both sub-clocks share one coin pipeline.
struct SharedFourClockFamily;

impl ProtocolFamily for SharedFourClockFamily {
    fn name(&self) -> &'static str {
        "shared-four-clock"
    }

    fn describe(&self) -> &'static str {
        "Remark 4.1 ss-Byz-4-Clock sharing one ticket-coin pipeline"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        match spec.coin {
            CoinSpec::Ticket => {
                reject_committee(spec)?;
                let adversary = clock_adversary(spec, None)?;
                let sim = builder_for(spec).build(
                    |cfg, rng| SharedFourClock::new(cfg, ticket_coin(cfg, rng)),
                    adversary,
                );
                Ok(Box::new(ClockRun::new(sim)))
            }
            _ => Err(unsupported_coin(spec)),
        }
    }
}

/// The paper's full stack: `ss-Byz-Clock-Sync` over three ticket-coin
/// pipelines.
struct CoinClockSyncFamily;

impl ProtocolFamily for CoinClockSyncFamily {
    fn name(&self) -> &'static str {
        "clock-sync"
    }

    fn describe(&self) -> &'static str {
        "ss-Byz-Clock-Sync over three pipelined GVSS ticket coins (the full paper stack)"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        match spec.coin {
            CoinSpec::Ticket => {
                if let Some(c) = spec.committee {
                    if c < spec.n {
                        let adversary = clock_adversary(spec, None)?;
                        let k = spec.clock_modulus;
                        let epoch_seed = committee_epoch_seed(spec.seed);
                        let sim = builder_for(spec).build(
                            move |cfg, rng| committee_clock_sync(cfg, k, c, epoch_seed, rng),
                            adversary,
                        );
                        return Ok(match spec.metrics {
                            MetricsSpec::Decode => Box::new(ClockRun::with_extras(
                                sim,
                                committee_clock_sync_decode_extras,
                            )),
                            MetricsSpec::Alloc => Box::new(ClockRun::with_extras(
                                sim,
                                committee_clock_sync_alloc_extras,
                            )),
                            MetricsSpec::None => {
                                Box::new(ClockRun::with_extras(sim, committee_clock_sync_extras))
                            }
                        });
                    }
                    // c == n: the committee is everyone, the relay round
                    // would only re-announce what every node already
                    // recovered — run the full ticket stack, so the
                    // degenerate spec reports identically to the plain
                    // family (pinned by a property test).
                }
                let adversary = clock_adversary(spec, None)?;
                let k = spec.clock_modulus;
                let sim = builder_for(spec)
                    .build(move |cfg, rng| ticket_clock_sync(cfg, k, rng), adversary);
                // `metrics=decode`/`metrics=alloc` opt into an
                // instrumentation sampler; the default path is
                // byte-identical to the pinned golden reports.
                Ok(match spec.metrics {
                    MetricsSpec::Decode => {
                        Box::new(ClockRun::with_extras(sim, clock_sync_decode_extras))
                    }
                    MetricsSpec::Alloc => {
                        Box::new(ClockRun::with_extras(sim, clock_sync_alloc_extras))
                    }
                    MetricsSpec::None => Box::new(ClockRun::new(sim)),
                })
            }
            _ => Err(unsupported_coin(spec)),
        }
    }
}

/// The §5 recursive chain over one ticket-coin pipeline per level.
struct CoinRecursiveFamily;

impl ProtocolFamily for CoinRecursiveFamily {
    fn name(&self) -> &'static str {
        "recursive"
    }

    fn describe(&self) -> &'static str {
        "section 5 recursive-doubling clock over per-level ticket-coin pipelines"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        match spec.coin {
            CoinSpec::Ticket => {
                reject_committee(spec)?;
                let levels = recursive_levels(spec)?;
                let adversary = clock_adversary(spec, None)?;
                let sim = builder_for(spec).build(
                    move |cfg, rng| {
                        let mut level_rng = rng.clone();
                        RecursiveClock::new(cfg, levels, move |_| ticket_coin(cfg, &mut level_rng))
                    },
                    adversary,
                );
                Ok(Box::new(ClockRun::new(sim)))
            }
            _ => Err(unsupported_coin(spec)),
        }
    }
}

/// §6.1's standalone tool: the pipelined coin as an application, reporting
/// the empirical Definition 2.7 contract through the extras.
struct CoinStreamFamily;

impl ProtocolFamily for CoinStreamFamily {
    fn name(&self) -> &'static str {
        "coin-stream"
    }

    fn describe(&self) -> &'static str {
        "standalone ss-Byz-Coin-Flip stream; extras: p0, p1, agreement_rate"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        let instrument = spec.metrics;
        match spec.coin {
            CoinSpec::Ticket => {
                if let Some(c) = spec.committee {
                    if c < spec.n {
                        // The committee stream's wire type is
                        // `SlotMsg<CommitteeMsg>`, which the coin-round
                        // attackers (built against `SlotMsg<CoinMsg>`)
                        // cannot speak; committee-targeting corruption
                        // goes through `faults=corrupt@…` instead.
                        let adversary: Box<dyn Adversary<CoinAppMsg<CommitteeCoinScheme>>> =
                            match spec.adversary {
                                AdversarySpec::Silent => Box::new(SilentAdversary),
                                _ => {
                                    return Err(ScenarioError::UnsupportedAdversary {
                                        protocol: spec.protocol.clone(),
                                        adversary: spec.adversary.to_string(),
                                    })
                                }
                            };
                        let epoch_seed = committee_epoch_seed(spec.seed);
                        let sim = builder_for(spec).build(
                            move |cfg, rng| {
                                CoinApp::new(CommitteeCoinScheme::new(cfg, c, epoch_seed), rng)
                            },
                            adversary,
                        );
                        return Ok(Box::new(CoinStreamRun {
                            sim,
                            instrument,
                            committee: Some(c),
                        }));
                    }
                    // c == n: degenerate to the full ticket stream (see
                    // the clock-sync family above).
                }
                let adversary = coin_adversary::<TicketCoinScheme>(spec, spec.n)?;
                let sim = builder_for(spec).build(
                    |cfg, rng| CoinApp::new(TicketCoinScheme::new(cfg), rng),
                    adversary,
                );
                Ok(Box::new(CoinStreamRun {
                    sim,
                    instrument,
                    committee: None,
                }))
            }
            CoinSpec::Xor => {
                reject_committee(spec)?;
                let adversary = coin_adversary::<XorCoinScheme>(spec, 1)?;
                let sim = builder_for(spec).build(
                    |cfg, rng| CoinApp::new(XorCoinScheme::new(cfg), rng),
                    adversary,
                );
                Ok(Box::new(CoinStreamRun {
                    sim,
                    instrument,
                    committee: None,
                }))
            }
            _ => Err(unsupported_coin(spec)),
        }
    }
}

/// Resolves the spec's adversary against the coin-round message type.
/// `targets` is the per-dealer secret count of the attacked scheme (`n`
/// for tickets, 1 for the XOR coin).
fn coin_adversary<S>(
    spec: &ScenarioSpec,
    targets: usize,
) -> Result<Box<dyn Adversary<CoinAppMsg<S>>>, ScenarioError>
where
    S: CoinScheme,
    CoinNoiseAdversary: Adversary<CoinAppMsg<S>>,
    InconsistentDealer: Adversary<CoinAppMsg<S>>,
    RecoverEquivocator: Adversary<CoinAppMsg<S>>,
{
    Ok(match spec.adversary {
        AdversarySpec::Silent => Box::new(SilentAdversary),
        AdversarySpec::CoinNoise { depth } => Box::new(CoinNoiseAdversary { depth, targets }),
        AdversarySpec::InconsistentDealer => Box::new(InconsistentDealer { targets, f: spec.f }),
        AdversarySpec::RecoverEquivocator { slot } => Box::new(RecoverEquivocator {
            recover_slot: slot,
            targets,
        }),
        _ => {
            return Err(ScenarioError::UnsupportedAdversary {
                protocol: spec.protocol.clone(),
                adversary: spec.adversary.to_string(),
            })
        }
    })
}

/// [`ScenarioRun`] adapter for the coin stream: no clock, coin-quality
/// metrics in the extras (warm-up `Δ_A` excluded, per Lemma 1), and —
/// under `metrics=decode` / `metrics=alloc` — the recover round's
/// decode-batch totals or the workspace allocator counters.
struct CoinStreamRun<S: CoinScheme, Adv: Adversary<CoinAppMsg<S>>> {
    sim: Simulation<CoinApp<S>, Adv>,
    instrument: MetricsSpec,
    /// `Some(c)` for a committee-subsampled stream: echo the committee
    /// parameters into the extras. `None` (full coin, or the degenerate
    /// `c = n` delegation) reports nothing, keeping those reports
    /// identical to the historical full-coin ones.
    committee: Option<usize>,
}

impl<S, Adv> ScenarioRun for CoinStreamRun<S, Adv>
where
    S: CoinScheme,
    Adv: Adversary<CoinAppMsg<S>>,
{
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
        let warmup = self.sim.correct_apps().next().map_or(4, |(_, a)| a.depth());
        let stats = coin_stats(&self.sim, warmup);
        let mut extras = vec![
            ("p0".to_string(), stats.p0()),
            ("p1".to_string(), stats.p1()),
            ("agreement_rate".to_string(), stats.agreement_rate()),
            ("measured_beats".to_string(), stats.beats as f64),
        ];
        if let Some(c) = self.committee {
            extras.extend(committee_extra_pairs(c));
        }
        match self.instrument {
            MetricsSpec::Decode => extras.extend(decode_extras(
                self.sim.correct_apps().map(|(_, app)| app.coin_metrics()),
            )),
            MetricsSpec::Alloc => extras.extend(alloc_extras(
                self.sim.correct_apps().map(|(_, app)| app.coin_metrics()),
            )),
            MetricsSpec::None => {}
        }
        extras.extend(delay_extras(self.sim.timing(), self.sim.delay_histogram()));
        extras
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ProtocolRegistry {
        let mut r = ProtocolRegistry::new();
        byzclock_core::scenario::register_protocols(&mut r);
        register_protocols(&mut r);
        r
    }

    #[test]
    fn ticket_clock_sync_spec_runs() {
        let spec = ScenarioSpec::parse(
            "clock-sync n=4 f=1 k=16 coin=ticket adv=silent faults=corrupt-start seed=2 budget=3000",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
    }

    #[test]
    fn same_name_resolves_by_coin() {
        // "two-clock" is registered by core (oracle) AND this crate
        // (ticket): the coin field picks the implementation.
        let oracle = ScenarioSpec::parse("two-clock n=4 f=1 coin=oracle budget=500").unwrap();
        let ticket = ScenarioSpec::parse("two-clock n=4 f=1 coin=ticket budget=500").unwrap();
        assert!(registry().run(&oracle).is_ok());
        assert!(registry().run(&ticket).is_ok());
    }

    #[test]
    fn coin_stream_reports_quality_extras() {
        let spec = ScenarioSpec::parse(
            "coin-stream n=4 f=1 coin=ticket adv=silent faults=none seed=11 budget=40",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert_eq!(report.beats, 40);
        assert!(report.converged_at.is_none());
        let agree = report.extra("agreement_rate").unwrap();
        assert!(agree > 0.9, "{report:?}");
        assert!(report.extra("p0").unwrap() > 0.3);
    }

    #[test]
    fn bounded_delay_threads_into_the_coin_stream() {
        // delay=2 reaches the ticket-coin families through builder_for and
        // surfaces the delay histogram in the extras.
        let spec = ScenarioSpec::parse(
            "coin-stream n=4 f=1 coin=ticket adv=silent faults=none delay=2 seed=9 budget=30",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert_eq!(report.extra("delay_window"), Some(2.0));
        let h0 = report.extra("delay_hist_0").unwrap();
        let h1 = report.extra("delay_hist_1").unwrap();
        assert!(h0 > 0.0 && h1 > 0.0, "both buckets populated: {report:?}");
        assert_eq!(registry().run(&spec).unwrap(), report, "deterministic");
    }

    #[test]
    fn metrics_decode_surfaces_batch_sizes_in_extras() {
        // The instrumented twin of a plain spec reports the decode-batch
        // counters — and the plain spec's report is untouched (the pinned
        // lockstep goldens depend on that).
        let plain = ScenarioSpec::parse(
            "coin-stream n=4 f=1 coin=ticket adv=silent faults=none seed=11 budget=40",
        )
        .unwrap();
        let instrumented = plain.clone().with_metrics(MetricsSpec::Decode);
        let registry = registry();
        let base = registry.run(&plain).unwrap();
        assert!(base.extra("decode_batches").is_none(), "{base:?}");
        let report = registry.run(&instrumented).unwrap();
        let batches = report.extra("decode_batches").unwrap();
        let codewords = report.extra("decode_codewords").unwrap();
        assert!(batches > 0.0 && codewords > 0.0, "{report:?}");
        // Every silent-adversary recover round rides one batch per node
        // per beat, n targets each (n = 4 dealers x 4 correct... the exact
        // ratio: codewords / batches = dealers x targets per point set).
        let mean = report.extra("decode_mean_batch").unwrap();
        assert!(mean >= 4.0, "honest batches span all dealers: {report:?}");
        // Instrumentation never disturbs the run itself.
        assert_eq!(report.extra("p0"), base.extra("p0"));
        assert_eq!(report.traffic, base.traffic);
        assert_eq!(report.beats, base.beats);
    }

    #[test]
    fn metrics_alloc_pins_the_zero_alloc_steady_state() {
        // Over 40 beats each node retires ~36 coin instances; only the
        // warm-up cohort may build storage/decoders — everything after
        // draws from the workspace pool and the cached point-set decoders.
        let plain = ScenarioSpec::parse(
            "coin-stream n=4 f=1 coin=ticket adv=silent faults=none seed=11 budget=40",
        )
        .unwrap();
        let instrumented = plain.clone().with_metrics(MetricsSpec::Alloc);
        let registry = registry();
        let base = registry.run(&plain).unwrap();
        assert!(base.extra("alloc_storage_builds").is_none(), "{base:?}");
        let report = registry.run(&instrumented).unwrap();
        let builds = report.extra("alloc_storage_builds").unwrap();
        let reuses = report.extra("alloc_storage_reuses").unwrap();
        let dec_builds = report.extra("alloc_decoder_builds").unwrap();
        let dec_hits = report.extra("alloc_decoder_hits").unwrap();
        assert!(builds > 0.0, "warm-up must build: {report:?}");
        assert!(
            reuses > builds,
            "steady state must dominate warm-up: {report:?}"
        );
        assert!(
            dec_hits > dec_builds,
            "point sets repeat, decoders must cache: {report:?}"
        );
        // Instrumentation never disturbs the run itself.
        assert_eq!(report.extra("p0"), base.extra("p0"));
        assert_eq!(report.traffic, base.traffic);
    }

    /// Where decoder-cache misses come from (CHANGES.md, PR 22): a scrambled
    /// cohort opens each dealer through whatever senders happen to hold a
    /// row, so its point sets differ per dealer — but it retires within
    /// the pipeline depth, and from then on every beat of every instance
    /// is served by the one cached honest set.
    #[test]
    fn decoder_cache_misses_are_warm_up_only() {
        let counters = |line: &str| {
            let spec = ScenarioSpec::parse(line).unwrap();
            let report = registry().run_exact(&spec).unwrap();
            (
                report.extra("alloc_decoder_builds").unwrap(),
                report.extra("alloc_decoder_hits").unwrap(),
            )
        };
        let stream = "coin-stream n=13 f=4 coin=ticket adv=silent faults=corrupt-start seed=1 \
                      metrics=alloc";
        // Depth 4: the last scrambled instance recovers at beat 4.
        let (warm_builds, warm_hits) = counters(&format!("{stream} budget=6"));
        let (builds, hits) = counters(&format!("{stream} budget=24"));
        assert!(warm_builds > 9.0, "scrambled sets do miss: {warm_builds}");
        assert_eq!(builds, warm_builds, "a steady-state beat built a decoder");
        assert!(hits > warm_hits);
        // From a clean start the only misses are each node's first look
        // at the honest set.
        let (builds, _) = counters(
            "coin-stream n=13 f=4 coin=ticket adv=silent faults=none seed=1 metrics=alloc budget=24",
        );
        assert_eq!(builds, 9.0, "one build per correct node's workspace");
    }

    /// The same contract under committee rotation: mid-epoch (both
    /// budgets end inside epoch 1, well past the flip's one-time
    /// re-checkouts), forty more beats build no storage and no decoder —
    /// they only recycle. Fault-free on purpose: under rotation a fixed
    /// silent set projects onto a different committee every beat, a
    /// share-pattern key space no warm-up exhausts.
    #[test]
    fn committee_builds_stop_growing_mid_epoch() {
        let counters = |budget: u64| {
            let spec = ScenarioSpec::parse(&format!(
                "coin-stream n=64 f=0 coin=ticket committee=13 adv=silent faults=none seed=1 \
                 metrics=alloc budget={budget}"
            ))
            .unwrap();
            let report = registry().run_exact(&spec).unwrap();
            ["storage_builds", "decoder_builds", "storage_reuses"]
                .map(|key| report.extra(&format!("alloc_{key}")).unwrap())
        };
        let [builds, decoders, reuses] = counters(80);
        let [later_builds, later_decoders, later_reuses] = counters(120);
        assert_eq!((builds, decoders), (180.0, 64.0));
        assert_eq!(later_builds, builds, "a mid-epoch beat built GVSS storage");
        assert_eq!(later_decoders, decoders, "a mid-epoch beat built a decoder");
        assert!(later_reuses > reuses, "{reuses} -> {later_reuses}");
    }

    #[test]
    fn metrics_alloc_reaches_the_ticket_clock_sync() {
        let spec = ScenarioSpec::parse(
            "clock-sync n=4 f=1 k=16 coin=ticket adv=silent faults=corrupt-start seed=2 \
             budget=3000 metrics=alloc",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
        let builds = report.extra("alloc_storage_builds").unwrap();
        let reuses = report.extra("alloc_storage_reuses").unwrap();
        assert!(builds > 0.0 && reuses > builds, "{report:?}");
    }

    #[test]
    fn metrics_decode_reaches_the_ticket_clock_sync() {
        let spec = ScenarioSpec::parse(
            "clock-sync n=4 f=1 k=16 coin=ticket adv=silent faults=corrupt-start seed=2 \
             budget=3000 metrics=decode",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
        assert!(report.extra("decode_batches").unwrap() > 0.0, "{report:?}");
        assert!(report.extra("decode_mean_batch").unwrap() >= 1.0);
    }

    #[test]
    fn committee_clock_sync_spec_runs_and_reports_the_committee() {
        let spec = ScenarioSpec::parse(
            "clock-sync n=16 f=1 k=8 coin=ticket committee=7 adv=silent faults=corrupt-start \
             seed=2 budget=400",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
        assert_eq!(report.extra("committee_size"), Some(7.0));
        assert_eq!(report.extra("committee_fault_budget"), Some(2.0));
        assert_eq!(report.extra("committee_epoch_beats"), Some(64.0));
        // Deterministic like every other family.
        assert_eq!(registry().run(&spec).unwrap(), report);
    }

    #[test]
    fn committee_coin_stream_reports_quality_and_committee_extras() {
        let spec = ScenarioSpec::parse(
            "coin-stream n=16 f=1 coin=ticket committee=7 adv=silent faults=none seed=11 \
             budget=60",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(
            report.extra("agreement_rate").unwrap() > 0.9,
            "relay acceptance must keep cluster-wide agreement: {report:?}"
        );
        assert_eq!(report.extra("committee_size"), Some(7.0));
        assert_eq!(report.extra("committee_epoch_beats"), Some(64.0));
    }

    #[test]
    fn committee_only_fits_the_wired_families() {
        for line in [
            "two-clock n=16 f=1 coin=ticket committee=7 budget=100",
            "four-clock n=16 f=1 coin=ticket committee=7 budget=100",
            "shared-four-clock n=16 f=1 coin=ticket committee=7 budget=100",
            "recursive n=16 f=1 k=8 coin=ticket committee=7 budget=100",
        ] {
            let spec = ScenarioSpec::parse(line).unwrap();
            match registry().run(&spec) {
                Err(ScenarioError::InvalidSpec(msg)) => {
                    assert!(msg.contains("committee=7"), "{msg}")
                }
                other => panic!("`{line}`: expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn committee_stream_rejects_coin_round_attackers() {
        // The coin-round attackers speak SlotMsg<CoinMsg>, not the relay
        // wire type; the spec layer refuses rather than silently running
        // an attacker that sends undecodable traffic.
        let spec = ScenarioSpec::parse(
            "coin-stream n=16 f=1 coin=ticket committee=7 adv=coin-noise:4 faults=none \
             budget=40",
        )
        .unwrap();
        match registry().run(&spec) {
            Err(ScenarioError::UnsupportedAdversary { .. }) => {}
            other => panic!("expected UnsupportedAdversary, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_full_size_committee_matches_the_full_coin_family() {
        // committee=n delegates to the plain ticket stack: everything but
        // the spec echo is identical.
        let full = ScenarioSpec::parse(
            "coin-stream n=7 f=2 coin=ticket adv=silent faults=none seed=11 budget=40",
        )
        .unwrap();
        let degenerate = full.clone().with_committee(7);
        let registry = registry();
        let a = registry.run(&full).unwrap();
        let b = registry.run(&degenerate).unwrap();
        assert_eq!(a.extras, b.extras);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.beats, b.beats);
    }

    #[test]
    fn coin_attacks_only_fit_the_coin_stream() {
        let spec =
            ScenarioSpec::parse("clock-sync n=4 f=1 coin=ticket adv=coin-noise:4 budget=100")
                .unwrap();
        match registry().run(&spec) {
            Err(ScenarioError::UnsupportedAdversary { .. }) => {}
            other => panic!("expected UnsupportedAdversary, got {other:?}"),
        }
        let stream = ScenarioSpec::parse(
            "coin-stream n=4 f=1 coin=ticket adv=coin-noise:4 faults=none budget=40",
        )
        .unwrap();
        assert!(registry().run(&stream).is_ok());
    }
}
