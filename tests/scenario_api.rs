//! The scenario layer's cross-crate contract: every registered protocol is
//! reachable from a spec line, errors are precise, and reports are
//! deterministic functions of the spec.

use byzclock::scenario::{
    default_registry, AdversarySpec, CoinSpec, FaultPlanSpec, RunReport, Scenario, ScenarioError,
    ScenarioSpec,
};

/// One known-good spec line per registered protocol name.
fn representative_specs() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "two-clock",
            ScenarioSpec::new("two-clock", 4, 1)
                .with_coin(CoinSpec::perfect_oracle())
                .with_budget(500),
        ),
        (
            "broken-two-clock",
            ScenarioSpec::new("broken-two-clock", 4, 1)
                .with_coin(CoinSpec::perfect_oracle())
                .with_budget(500),
        ),
        (
            "four-clock",
            ScenarioSpec::new("four-clock", 4, 1)
                .with_coin(CoinSpec::perfect_oracle())
                .with_budget(800),
        ),
        (
            "clock-sync",
            ScenarioSpec::new("clock-sync", 4, 1)
                .with_modulus(16)
                .with_budget(1_500),
        ),
        (
            "recursive",
            ScenarioSpec::new("recursive", 4, 1)
                .with_modulus(8)
                .with_coin(CoinSpec::perfect_oracle())
                .with_budget(2_000),
        ),
        (
            "shared-four-clock",
            ScenarioSpec::new("shared-four-clock", 4, 1).with_budget(1_500),
        ),
        (
            "bd-clock",
            ScenarioSpec::new("bd-clock", 7, 2)
                .with_coin(CoinSpec::perfect_oracle())
                .with_budget(1_000),
        ),
        (
            "coin-stream",
            ScenarioSpec::new("coin-stream", 4, 1)
                .with_faults(FaultPlanSpec::none())
                .with_budget(24),
        ),
        (
            "dw-clock",
            ScenarioSpec::new("dw-clock", 4, 1)
                .with_modulus(2)
                .with_coin(CoinSpec::Local)
                .with_budget(50_000),
        ),
        (
            "queen-clock",
            ScenarioSpec::new("queen-clock", 5, 1)
                .with_coin(CoinSpec::None)
                .with_budget(500),
        ),
        (
            "pk-clock",
            ScenarioSpec::new("pk-clock", 4, 1)
                .with_coin(CoinSpec::None)
                .with_budget(500),
        ),
    ]
}

/// Every name in the default registry has a representative spec here, and
/// every representative spec round-trips: spec → line → spec → run →
/// report echoing the exact spec line.
#[test]
fn every_registered_protocol_round_trips() {
    let registry = default_registry();
    let specs = representative_specs();
    let mut names = registry.names();
    names.sort();
    let mut covered: Vec<String> = specs.iter().map(|(n, _)| n.to_string()).collect();
    covered.sort();
    assert_eq!(
        names, covered,
        "registry names and representative specs diverged"
    );

    for (name, spec) in specs {
        assert_eq!(spec.protocol, name);
        let line = spec.to_string();
        let reparsed = ScenarioSpec::parse(&line)
            .unwrap_or_else(|e| panic!("{name}: line `{line}` failed to parse: {e}"));
        assert_eq!(reparsed, spec, "{name}: spec line round trip");
        let report = registry
            .run(&spec)
            .unwrap_or_else(|e| panic!("{name}: spec `{line}` failed to run: {e}"));
        assert_eq!(report.spec, line, "{name}: report echoes the spec line");
        assert!(report.beats > 0, "{name}: ran no beats");
        if name == "coin-stream" {
            assert!(
                report.converged_at.is_none(),
                "{name}: coin stream has no clock"
            );
            assert!(report.extra("agreement_rate").is_some());
        } else {
            assert!(
                report.converged_at.is_some(),
                "{name}: expected convergence within budget; report {report:?}"
            );
        }
    }
}

/// Unknown names fail with the catalog; wrong coins and wrong adversaries
/// fail with the precise category.
#[test]
fn error_paths_are_precise() {
    let registry = default_registry();

    match registry.run(&ScenarioSpec::new("nonexistent-clock", 4, 1)) {
        Err(ScenarioError::UnknownProtocol { name, known }) => {
            assert_eq!(name, "nonexistent-clock");
            for expected in ["two-clock", "clock-sync", "coin-stream", "dw-clock"] {
                assert!(
                    known.iter().any(|k| k == expected),
                    "missing {expected} in {known:?}"
                );
            }
        }
        other => panic!("expected UnknownProtocol, got {other:?}"),
    }

    // queen-clock is deterministic: a ticket coin is a category error.
    match registry.run(&ScenarioSpec::new("queen-clock", 5, 1).with_coin(CoinSpec::Ticket)) {
        Err(ScenarioError::UnsupportedCoin { protocol, .. }) => {
            assert_eq!(protocol, "queen-clock")
        }
        other => panic!("expected UnsupportedCoin, got {other:?}"),
    }

    // Coin-round attacks do not apply to clock protocols.
    match registry.run(
        &ScenarioSpec::new("clock-sync", 4, 1).with_adversary(AdversarySpec::InconsistentDealer),
    ) {
        Err(ScenarioError::UnsupportedAdversary { protocol, .. }) => {
            assert_eq!(protocol, "clock-sync")
        }
        other => panic!("expected UnsupportedAdversary, got {other:?}"),
    }

    // The coin-aware splitter needs an oracle coin to peek at.
    match registry.run(
        &ScenarioSpec::new("two-clock", 7, 2)
            .with_coin(CoinSpec::Ticket)
            .with_adversary(AdversarySpec::RandAwareSplitter),
    ) {
        Err(ScenarioError::UnsupportedAdversary { .. }) => {}
        other => panic!("expected UnsupportedAdversary, got {other:?}"),
    }

    // A family checks the coin before the adversary: both of these coins
    // are served, so the adversary is what is refused.
    for line in [
        "two-clock n=4 f=1 coin=oracle adv=coin-noise",
        "two-clock n=4 f=1 coin=local adv=rand-aware-splitter",
    ] {
        match registry.run(&ScenarioSpec::parse(line).unwrap()) {
            Err(ScenarioError::UnsupportedAdversary { protocol, .. }) => {
                assert_eq!(protocol, "two-clock")
            }
            other => panic!("`{line}`: expected UnsupportedAdversary, got {other:?}"),
        }
    }

    // `metrics=` is refused wherever no family wires it, instead of
    // running the spec and reporting no counters.
    for line in [
        "two-clock n=4 f=1 coin=ticket metrics=decode",
        "clock-sync n=4 f=1 coin=oracle metrics=alloc",
    ] {
        match registry.run(&ScenarioSpec::parse(line).unwrap()) {
            Err(ScenarioError::InvalidSpec(msg)) => {
                assert!(msg.contains("metrics="), "`{line}`: {msg}")
            }
            other => panic!("`{line}`: expected InvalidSpec, got {other:?}"),
        }
    }

    // Structural validation fires before family resolution.
    match registry.run(&ScenarioSpec::new("clock-sync", 4, 4)) {
        Err(ScenarioError::InvalidSpec(msg)) => assert!(msg.contains("fault budget")),
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
    match registry.run(&ScenarioSpec::new("clock-sync", 4, 1).with_byzantine([0, 0])) {
        Err(ScenarioError::InvalidSpec(msg)) => assert!(msg.contains("duplicate")),
        other => panic!("expected InvalidSpec, got {other:?}"),
    }

    // Parse errors name the offending fragment.
    match ScenarioSpec::parse("two-clock n=4 adv=meteor-strike") {
        Err(ScenarioError::Parse(msg)) => assert!(msg.contains("meteor-strike")),
        other => panic!("expected Parse error, got {other:?}"),
    }
}

/// The determinism pin the acceptance criteria name: a fixed spec + seed
/// produces an identical `RunReport`, and the report survives a JSON dump.
#[test]
fn fixed_spec_and_seed_pin_the_report() {
    let spec = ScenarioSpec::parse(
        "clock-sync n=4 f=1 k=16 coin=ticket adv=silent faults=corrupt-start seed=42 budget=2000",
    )
    .unwrap();
    let a = Scenario::run(&spec).unwrap();
    let b = Scenario::run(&spec).unwrap();
    assert_eq!(a, b, "same spec+seed must replay bit-identically");
    assert!(a.converged_at.is_some());

    // Seeds matter: a different seed gives a different trajectory (clock
    // readings and convergence beat may coincide, but the full report —
    // traffic included — must not).
    let c = Scenario::run(&spec.clone().with_seed(43)).unwrap();
    assert_ne!(a, c, "different seeds must not replay the same run");

    // JSON dump carries the headline numbers.
    let json = a.to_json();
    assert!(json.contains("\"spec\""));
    assert!(json.contains("\"converged_at\""));
    assert!(json.contains("\"mean_correct_msgs_per_beat\""));
}

/// Adversary sweeps through the registry preserve the paper's headline:
/// the full stack converges under every clock-layer adversary.
#[test]
fn full_stack_converges_under_every_clock_adversary() {
    let registry = default_registry();
    for adversary in [
        AdversarySpec::Silent,
        AdversarySpec::RandomVote,
        AdversarySpec::Equivocate,
        AdversarySpec::SplitVote,
    ] {
        let spec = ScenarioSpec::new("clock-sync", 4, 1)
            .with_modulus(8)
            .with_adversary(adversary)
            .with_seed(1)
            .with_budget(3_000);
        let report = registry.run(&spec).unwrap();
        assert!(
            report.converged_at.is_some(),
            "stalled under {adversary}: {report:?}"
        );
    }
}

/// The `delay=` timing knob round-trips through the one-line form on
/// every registered protocol family, and lockstep lines never carry it.
#[test]
fn delay_field_round_trips_on_every_family() {
    for (name, spec) in representative_specs() {
        let lockstep_line = spec.to_string();
        assert!(
            !lockstep_line.contains("delay="),
            "{name}: lockstep line must stay delay-free: {lockstep_line}"
        );
        let delayed = spec.with_delay(2);
        let line = delayed.to_string();
        assert!(line.contains(" delay=2 "), "{name}: {line}");
        let reparsed = ScenarioSpec::parse(&line)
            .unwrap_or_else(|e| panic!("{name}: `{line}` failed to parse: {e}"));
        assert_eq!(reparsed, delayed, "{name}: delay round trip");
        assert_eq!(
            reparsed.timing(),
            byzclock::scenario::TimingModel::BoundedDelay { window: 2 }
        );
    }
}

/// Lockstep reproduces the seed-era reports byte-for-byte: these JSON
/// lines were captured from the pre-timing-model simulator (the same-beat
/// delivery loop before the scheduler refactor). Any drift here means the
/// `TimingModel::Lockstep` path is no longer the paper's global beat.
#[test]
fn lockstep_pins_the_pre_refactor_seed_reports() {
    let goldens = [
        (
            "clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start seed=3 budget=3000",
            r#"{"spec":"clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start seed=3 budget=3000","beats":14,"converged_at":6,"measured_from":0,"final_streak":8,"final_clocks":[7,7,7,7,7],"traffic":{"correct_msgs":5719,"correct_bytes":978222,"byz_msgs":0,"byz_bytes":0,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":408.500,"mean_correct_bytes_per_beat":69873.000},"extras":{}}"#,
        ),
        (
            "two-clock n=7 f=2 coin=oracle adv=split-vote faults=corrupt-start seed=5 budget=2000",
            r#"{"spec":"two-clock n=7 f=2 k=8 coin=oracle:500,500 adv=split-vote faults=corrupt-start seed=5 budget=2000","beats":10,"converged_at":2,"measured_from":0,"final_streak":8,"final_clocks":[0,0,0,0,0],"traffic":{"correct_msgs":350,"correct_bytes":700,"byz_msgs":140,"byz_bytes":280,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":35.000,"mean_correct_bytes_per_beat":70.000},"extras":{}}"#,
        ),
        (
            "pk-clock n=4 f=1 k=32 coin=none adv=silent faults=corrupt-start seed=1 budget=500",
            r#"{"spec":"pk-clock n=4 f=1 k=32 coin=none adv=silent faults=corrupt-start seed=1 budget=500","beats":33,"converged_at":25,"measured_from":0,"final_streak":8,"final_clocks":[15,15,15],"traffic":{"correct_msgs":2640,"correct_bytes":13524,"byz_msgs":0,"byz_bytes":0,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":80.000,"mean_correct_bytes_per_beat":409.818},"extras":{}}"#,
        ),
        (
            "coin-stream n=4 f=1 coin=ticket adv=coin-noise:4 faults=none seed=11 budget=40",
            r#"{"spec":"coin-stream n=4 f=1 k=8 coin=ticket adv=coin-noise:4 faults=none seed=11 budget=40","beats":40,"converged_at":null,"measured_from":0,"final_streak":0,"final_clocks":[],"traffic":{"correct_msgs":1920,"correct_bytes":158976,"byz_msgs":640,"byz_bytes":41120,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":48.000,"mean_correct_bytes_per_beat":3974.400},"extras":{"p0":0.694444,"p1":0.305556,"agreement_rate":1.000000,"measured_beats":36.000000}}"#,
        ),
    ];
    for (line, golden) in goldens {
        let spec = ScenarioSpec::parse(line).unwrap();
        let report = Scenario::run(&spec).unwrap();
        assert_eq!(
            report.to_json(),
            golden,
            "lockstep drifted from the seed report for `{line}`"
        );
    }
}

/// The decode error path's golden: Byzantine recover shares at n = 13
/// from a corrupt start plus a scramble, so `BatchDecoder` meets views
/// with wrong shares from the same senders beat after beat. Captured at
/// the parent of the liar-hint erasure rung (`d902ff8`), which may change
/// the cost of these decodes but never their output.
#[test]
fn byzantine_recover_shares_pin_the_report() {
    let line = "coin-stream n=13 f=4 k=8 coin=ticket adv=recover-equivocator:3 \
                faults=corrupt-start+scramble@20 seed=1 budget=60";
    let golden = r#"{"spec":"coin-stream n=13 f=4 k=8 coin=ticket adv=recover-equivocator:3 faults=corrupt-start+scramble@20 seed=1 budget=60","beats":60,"converged_at":null,"measured_from":21,"final_streak":0,"final_clocks":[],"traffic":{"correct_msgs":28080,"correct_bytes":17917596,"byz_msgs":3120,"byz_bytes":4439760,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":468.000,"mean_correct_bytes_per_beat":298626.600},"extras":{"p0":0.732143,"p1":0.267857,"agreement_rate":1.000000,"measured_beats":56.000000}}"#;
    let report = Scenario::run(&ScenarioSpec::parse(line).unwrap()).unwrap();
    assert_eq!(report.to_json(), golden, "decode error path drifted");
}

/// Bounded-delay scenarios run end-to-end: `delay=2` parses, resolves,
/// replays deterministically, and reports the delay extras the grid
/// aggregates.
#[test]
fn bounded_delay_scenarios_report_delay_extras() {
    let spec = ScenarioSpec::parse(
        "clock-sync n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 \
         seed=2 budget=300",
    )
    .unwrap();
    let registry = default_registry();
    let a = registry.run_exact(&spec).unwrap();
    let b = registry.run_exact(&spec).unwrap();
    assert_eq!(a, b, "bounded delay must replay bit-identically");
    assert_eq!(a.extra("delay_window"), Some(2.0));
    let h0 = a.extra("delay_hist_0").unwrap();
    let h1 = a.extra("delay_hist_1").unwrap();
    assert!(h0 > 0.0 && h1 > 0.0);
    let mean = a.extra("mean_delay").unwrap();
    assert!(mean > 0.0 && mean < 1.0, "mean delay {mean}");
    // The window seed is part of the master seed: a different seed draws
    // different delays.
    let c = registry.run_exact(&spec.clone().with_seed(3)).unwrap();
    assert_ne!(a, c);
}

/// `beats_to_sync` measures from the end of the last scheduled fault, so
/// recovery scenarios report recovery time, not absolute beats.
#[test]
fn recovery_reports_measure_from_the_fault() {
    let spec = ScenarioSpec::new("clock-sync", 4, 1)
        .with_modulus(16)
        .with_faults(FaultPlanSpec::storm(40, 60))
        .with_seed(5)
        .with_budget(3_000);
    let report: RunReport = Scenario::run(&spec).unwrap();
    let converged = report.converged_at.expect("recovers");
    assert!(
        converged >= 41,
        "tracking must not start before the fault clears"
    );
    assert_eq!(report.beats_to_sync(), Some(converged - 41));
}

const PROTOCOLS: [&str; 11] = [
    "two-clock",
    "broken-two-clock",
    "four-clock",
    "clock-sync",
    "recursive",
    "bd-clock",
    "shared-four-clock",
    "coin-stream",
    "dw-clock",
    "queen-clock",
    "pk-clock",
];
const COINS: [&str; 5] = ["ticket", "xor", "local", "oracle", "none"];
const ADVERSARIES: [&str; 9] = [
    "silent",
    "random-vote",
    "equivocate",
    "split-vote",
    "rand-aware-splitter",
    "coin-noise",
    "inconsistent-dealer",
    "recover-equivocator",
    "ba-equivocator",
];

/// The coins each protocol runs over.
fn accepted_coins(protocol: &str) -> &'static [&'static str] {
    match protocol {
        "two-clock" => &["ticket", "xor", "local", "oracle"],
        "broken-two-clock" => &["oracle"],
        "four-clock" => &["ticket", "xor", "oracle"],
        "shared-four-clock" => &["ticket"],
        "clock-sync" | "recursive" => &["ticket", "oracle"],
        "bd-clock" => &["local", "oracle"],
        "coin-stream" => &["ticket", "xor"],
        "dw-clock" => &["local"],
        "queen-clock" | "pk-clock" => &["none"],
        other => panic!("no admission row for {other}"),
    }
}

/// The adversaries a protocol hosts over a coin it runs on.
fn accepted_adversaries(protocol: &str, coin: &str) -> Vec<&'static str> {
    match protocol {
        "bd-clock" => vec!["silent", "random-vote", "equivocate"],
        "coin-stream" => vec![
            "silent",
            "coin-noise",
            "inconsistent-dealer",
            "recover-equivocator",
        ],
        "dw-clock" => vec!["silent"],
        "queen-clock" | "pk-clock" => vec!["silent", "ba-equivocator"],
        _ => {
            let mut clock = vec!["silent", "random-vote", "equivocate", "split-vote"];
            if coin == "oracle" {
                clock.push("rand-aware-splitter");
            }
            clock
        }
    }
}

/// The whole admission table: 11 protocols × 5 coins × 9 adversaries. A
/// cell runs iff the protocol serves the coin and hosts the adversary
/// over it; otherwise the coin is refused first, then the adversary.
#[test]
fn admission_table_refuses_the_coin_first_then_the_adversary() {
    let registry = default_registry();
    assert_eq!(registry.names(), PROTOCOLS, "registry order");
    let mut served = 0;
    for protocol in PROTOCOLS {
        for coin in COINS {
            for adversary in ADVERSARIES {
                let line =
                    format!("{protocol} n=4 f=1 k=8 coin={coin} adv={adversary} faults=none");
                let spec = ScenarioSpec::parse(&line).unwrap();
                let expected = if !accepted_coins(protocol).contains(&coin) {
                    "UnsupportedCoin"
                } else if !accepted_adversaries(protocol, coin).contains(&adversary) {
                    "UnsupportedAdversary"
                } else {
                    served += 1;
                    "Ok"
                };
                let got = match registry.start(&spec) {
                    Ok(_) => "Ok",
                    Err(ScenarioError::UnsupportedCoin { .. }) => "UnsupportedCoin",
                    Err(ScenarioError::UnsupportedAdversary { .. }) => "UnsupportedAdversary",
                    Err(other) => panic!("`{line}`: unexpected {other:?}"),
                };
                assert_eq!(got, expected, "`{line}`");
            }
        }
    }
    assert_eq!(served, 76);
}

/// Every (protocol, coin) cell the registry serves, the committee= and
/// metrics= wiring, and bd-clock under bounded delay replay the reports
/// pinned in `family_reports.txt`.
#[test]
fn every_served_cell_replays_its_pinned_report() {
    let pinned: Vec<&str> = include_str!("family_reports.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(pinned.len(), 36);
    for golden in pinned {
        let line = RunReport::from_json(golden).expect("a report line").spec;
        let report = Scenario::run(&ScenarioSpec::parse(&line).unwrap()).unwrap();
        assert_eq!(report.to_json(), golden, "`{line}` drifted");
    }
}

/// A protocol name is served by one family: registering it again is a
/// bug in the registry's assembly, not a second implementation.
#[test]
#[should_panic(expected = "registered twice")]
fn a_protocol_name_registers_once() {
    let mut registry = default_registry();
    byzclock::coin::scenario::register_protocols(&mut registry);
}
