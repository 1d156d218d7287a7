//! The scenario layer's protocol families for the paper's stack, each
//! registered once: every clock over every coin it runs on (`families.rs`,
//! behind one coin dispatch), and the standalone `coin-stream` scenario
//! (§6.1's "stream of shared coins") with coin-quality metrics in the
//! report extras.

mod families;

use crate::adversary::{CoinNoiseAdversary, InconsistentDealer, RecoverEquivocator};
use crate::app::{coin_stats, CoinApp, CoinAppMsg};
use crate::{
    committee_epoch_seed, committee_fault_budget, CommitteeCoinScheme, TicketCoinScheme,
    XorCoinScheme, COMMITTEE_EPOCH_BEATS,
};
use byzclock_core::scenario::{
    builder_for, delay_extras, AdversarySpec, CoinSpec, MetricsSpec, ProtocolFamily,
    ProtocolRegistry, ScenarioError, ScenarioRun, ScenarioSpec,
};
use byzclock_core::CoinScheme;
use byzclock_sim::{Adversary, NodeCfg, SilentAdversary, Simulation, TrafficStats};
use families::{
    BdClockShape, BrokenTwoClockShape, Clock, ClockSyncShape, FourClockShape, RecursiveShape,
    SharedFourClockShape, TwoClockShape,
};

/// Registers every family this crate provides. The order is the one
/// `UnknownProtocol` lists.
pub fn register_protocols(registry: &mut ProtocolRegistry) {
    registry
        .register(Box::new(Clock(TwoClockShape)))
        .register(Box::new(Clock(BrokenTwoClockShape)))
        .register(Box::new(Clock(FourClockShape)))
        .register(Box::new(Clock(ClockSyncShape)))
        .register(Box::new(Clock(RecursiveShape)))
        .register(Box::new(Clock(BdClockShape)))
        .register(Box::new(Clock(SharedFourClockShape)))
        .register(Box::new(CoinStreamFamily));
}

/// The `metrics=` report extras: the coin counters `metrics` asks for,
/// summed over the correct nodes' coin pipelines. `decode` adds the mean
/// batch size (codewords per point-set decoder); `alloc` reads as frozen
/// `*_builds` counters while the reuse/hit counters keep climbing once
/// every retired instance draws pooled storage and a cached decoder.
fn metrics_extras(
    metrics: MetricsSpec,
    per_node: impl Iterator<Item = Vec<(&'static str, f64)>>,
) -> Vec<(String, f64)> {
    let keys: &[&str] = match metrics {
        MetricsSpec::None => return Vec::new(),
        MetricsSpec::Decode => &["decode_batches", "decode_codewords"],
        MetricsSpec::Alloc => &[
            "alloc_storage_builds",
            "alloc_storage_reuses",
            "alloc_decoder_builds",
            "alloc_decoder_hits",
        ],
    };
    let mut sums = vec![0.0f64; keys.len()];
    for node in per_node {
        for (key, value) in node {
            if let Some(i) = keys.iter().position(|k| *k == key) {
                sums[i] += value;
            }
        }
    }
    let mut extras: Vec<(String, f64)> = keys.iter().map(|k| k.to_string()).zip(sums).collect();
    if metrics == MetricsSpec::Decode {
        let (batches, codewords) = (extras[0].1, extras[1].1);
        let mean = if batches > 0.0 {
            codewords / batches
        } else {
            0.0
        };
        extras.push(("decode_mean_batch".to_string(), mean));
    }
    extras
}

/// The committee parameters a committee-subsampled run echoes into its
/// extras.
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

/// §6.1's standalone tool: the pipelined coin as an application, reporting
/// the empirical Definition 2.7 contract through the extras. Every coin it
/// runs over wires `committee=` and `metrics=`.
struct CoinStreamFamily;

impl ProtocolFamily for CoinStreamFamily {
    fn name(&self) -> &'static str {
        "coin-stream"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        match spec.coin {
            CoinSpec::Ticket => match spec.committee {
                Some(c) if c < spec.n => {
                    // The committee stream's wire type is
                    // `SlotMsg<CommitteeMsg>`, which the coin-round
                    // attackers (built against `SlotMsg<CoinMsg>`) cannot
                    // speak; committee-targeting corruption goes through
                    // `faults=corrupt@…` instead.
                    if spec.adversary != AdversarySpec::Silent {
                        return Err(ScenarioError::unsupported_adversary(spec));
                    }
                    let epoch_seed = committee_epoch_seed(spec.seed);
                    let scheme = move |cfg| CommitteeCoinScheme::new(cfg, c, epoch_seed);
                    Ok(coin_stream(spec, scheme, SilentAdversary, Some(c)))
                }
                // c == n: the full ticket stream (see `families::serve`).
                _ => {
                    let adversary = coin_adversary::<TicketCoinScheme>(spec, spec.n)?;
                    Ok(coin_stream(spec, TicketCoinScheme::new, adversary, None))
                }
            },
            CoinSpec::Xor => {
                let adversary = coin_adversary::<XorCoinScheme>(spec, 1)?;
                Ok(coin_stream(spec, XorCoinScheme::new, adversary, None))
            }
            _ => Err(ScenarioError::unsupported_coin(spec)),
        }
    }
}

/// Builds the coin stream over `scheme`; `committee` is the committee size
/// a committee-subsampled stream echoes into its extras.
fn coin_stream<S, Adv>(
    spec: &ScenarioSpec,
    scheme: impl Fn(NodeCfg) -> S,
    adversary: Adv,
    committee: Option<usize>,
) -> Box<dyn ScenarioRun>
where
    S: CoinScheme + 'static,
    Adv: Adversary<CoinAppMsg<S>> + 'static,
{
    let sim = builder_for(spec).build(|cfg, rng| CoinApp::new(scheme(cfg), rng), adversary);
    Box::new(CoinStreamRun {
        sim,
        metrics: spec.metrics,
        committee,
    })
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
        _ => return Err(ScenarioError::unsupported_adversary(spec)),
    })
}

/// [`ScenarioRun`] adapter for the coin stream: no clock, coin-quality
/// metrics in the extras (warm-up `Δ_A` excluded, per Lemma 1), then the
/// committee triple and the `metrics=` counters.
struct CoinStreamRun<S: CoinScheme, Adv: Adversary<CoinAppMsg<S>>> {
    sim: Simulation<CoinApp<S>, Adv>,
    metrics: MetricsSpec,
    /// `Some(c)` for a committee-subsampled stream. `None` (full coin, or
    /// the degenerate `c = n` delegation) reports nothing, keeping those
    /// reports identical to the historical full-coin ones.
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
        extras.extend(metrics_extras(
            self.metrics,
            self.sim.correct_apps().map(|(_, app)| app.coin_metrics()),
        ));
        extras.extend(delay_extras(self.sim.timing(), self.sim.delay_histogram()));
        extras
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ProtocolRegistry {
        let mut r = ProtocolRegistry::new();
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

    /// Where decoder-cache misses come from: a scrambled
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
