//! Self-stabilization across the whole algorithm zoo: convergence resumes
//! after memory scrambling, phantom replays, and blackouts (Def. 2.2–2.5).

use byzclock::alg::{run_until_stable_sync, DigitalClock, OracleBeacon, TwoClock};
use byzclock::baselines::{DwClock, PhaseKingScheme, PkClock};
use byzclock::coin::ticket_clock_sync;
use byzclock::sim::{
    Adversary, Application, FaultEvent, FaultKind, FaultPlan, SilentAdversary, SimBuilder,
};

fn storm(at: u64) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            beat: at,
            kind: FaultKind::CorruptAllCorrect,
        },
        FaultEvent {
            beat: at,
            kind: FaultKind::PhantomBurst { count: 120 },
        },
        FaultEvent {
            beat: at + 1,
            kind: FaultKind::Blackout { beats: 2 },
        },
    ])
}

fn recovers<A, Adv>(mut sim: byzclock::sim::Simulation<A, Adv>, fault_at: u64, horizon: u64) -> bool
where
    A: Application + DigitalClock,
    Adv: Adversary<A::Msg>,
{
    sim.run_beats(fault_at + 4); // past the fault and the blackout
    run_until_stable_sync(&mut sim, fault_at + 4 + horizon, 8).is_some()
}

#[test]
fn full_stack_recovers_from_fault_storm() {
    for seed in 0..3 {
        let sim = SimBuilder::new(7, 2)
            .seed(seed)
            .faults(storm(40))
            .build(|cfg, rng| ticket_clock_sync(cfg, 32, rng), SilentAdversary);
        assert!(recovers(sim, 40, 3_000), "seed {seed}: no recovery");
    }
}

#[test]
fn two_clock_recovers() {
    let beacon = OracleBeacon::perfect(17);
    let sim = SimBuilder::new(7, 2).seed(1).faults(storm(30)).build(
        move |cfg, _rng| TwoClock::new(cfg, beacon.source(cfg.id)),
        SilentAdversary,
    );
    assert!(recovers(sim, 30, 2_000));
}

#[test]
fn deterministic_clock_recovers_in_o_f() {
    let mut sim = SimBuilder::new(7, 2).seed(2).faults(storm(50)).build(
        |cfg, _rng| PkClock::new(PhaseKingScheme::new(cfg), 16),
        SilentAdversary,
    );
    sim.run_beats(54);
    let t = run_until_stable_sync(&mut sim, 1_000, 8).expect("recovery");
    // R = 11 for f = 2: a few windows suffice.
    assert!(t <= 54 + 10 * 11, "recovery at beat {t} is not O(f)-fast");
}

#[test]
fn dw_clock_recovers_eventually() {
    let sim = SimBuilder::new(4, 1)
        .seed(3)
        .faults(storm(20))
        .build(|cfg, _rng| DwClock::new(cfg, 2), SilentAdversary);
    assert!(recovers(sim, 20, 20_000));
}

/// Repeated fault storms: the system re-converges after each one.
#[test]
fn survives_repeated_storms() {
    let mut plan = FaultPlan::none();
    for at in [30u64, 80, 130] {
        plan.push(FaultEvent {
            beat: at,
            kind: FaultKind::CorruptAllCorrect,
        });
        plan.push(FaultEvent {
            beat: at,
            kind: FaultKind::PhantomBurst { count: 50 },
        });
    }
    let mut sim = SimBuilder::new(7, 2)
        .seed(4)
        .faults(plan)
        .build(|cfg, rng| ticket_clock_sync(cfg, 16, rng), SilentAdversary);
    for window_end in [80u64, 130, 230] {
        let t = run_until_stable_sync(&mut sim, window_end, 8);
        assert!(t.is_some(), "no re-convergence before beat {window_end}");
        sim.run_until(window_end, |_| false);
    }
}

/// Committee-targeting corruption: scramble *every* member of the
/// committee serving at the fault beat — the strongest transient fault the
/// rotation schedule must absorb. The epoch permutation plus the sliding
/// window hand the coin to fresh members within `ceil(n/c)` beats, so the
/// committee stack re-converges inside the usual contract bound instead of
/// being owned by one poisoned committee.
#[test]
fn committee_stack_recovers_when_its_serving_committee_is_corrupted() {
    use byzclock::coin::{
        committee_clock_sync, committee_epoch_seed, committee_members, default_committee_size,
    };
    let (n, f, seed, fault_at) = (32usize, 1usize, 9u64, 30u64);
    let c = default_committee_size(n);
    let epoch_seed = committee_epoch_seed(seed);
    let victims = committee_members(n, c, epoch_seed, fault_at);
    let plan = FaultPlan::new(vec![FaultEvent {
        beat: fault_at,
        kind: FaultKind::CorruptNodes(victims),
    }]);
    let mut sim = SimBuilder::new(n, f).seed(seed).faults(plan).build(
        move |cfg, rng| committee_clock_sync(cfg, 8, c, epoch_seed, rng),
        SilentAdversary,
    );
    sim.run_beats(fault_at + 1);
    let t = run_until_stable_sync(&mut sim, fault_at + 1 + 400, 8);
    assert!(t.is_some(), "no recovery after whole-committee corruption");
}

/// Partial corruption: fewer than all nodes scrambled must also recover
/// (and typically faster, since a correct quorum may persist).
#[test]
fn partial_corruption_recovers() {
    use byzclock::sim::NodeId;
    let plan = FaultPlan::new(vec![FaultEvent {
        beat: 35,
        kind: FaultKind::CorruptNodes(vec![NodeId::new(0), NodeId::new(1)]),
    }]);
    let mut sim = SimBuilder::new(7, 2)
        .seed(6)
        .faults(plan)
        .build(|cfg, rng| ticket_clock_sync(cfg, 32, rng), SilentAdversary);
    sim.run_beats(36);
    assert!(run_until_stable_sync(&mut sim, 2_000, 8).is_some());
}
