//! Scenario-layer registrations for the Table 1 comparator clocks.

use crate::adversary::BaEquivocator;
use crate::consensus::{phase_king_rounds, queen_rounds, BaMsg};
use crate::dw_clock::DwClock;
use crate::pk_clock::{PhaseKingScheme, PkClock, QueenClock, QueenScheme};
use byzclock_core::scenario::{
    builder_for, reject_unwired, AdversarySpec, ClockRun, CoinSpec, ProtocolFamily,
    ProtocolRegistry, ScenarioError, ScenarioRun, ScenarioSpec,
};
use byzclock_core::SlotMsg;
use byzclock_sim::{Adversary, SilentAdversary};

/// Registers every family this crate provides.
pub fn register_protocols(registry: &mut ProtocolRegistry) {
    registry
        .register(Box::new(DwClockFamily))
        .register(Box::new(QueenClockFamily))
        .register(Box::new(PkClockFamily));
}

/// Resolves the spec's adversary against the pipelined consensus message
/// type; `depth` is the consensus pipeline depth of the attacked clock.
fn ba_adversary(
    spec: &ScenarioSpec,
    depth: usize,
) -> Result<Box<dyn Adversary<SlotMsg<BaMsg>>>, ScenarioError> {
    Ok(match spec.adversary {
        AdversarySpec::Silent => Box::new(SilentAdversary),
        AdversarySpec::BaEquivocator { mixed_bits } => Box::new(BaEquivocator {
            depth: depth as u8,
            mixed_bits,
        }),
        _ => return Err(ScenarioError::unsupported_adversary(spec)),
    })
}

/// The Dolev-Welch-style probabilistic clock (\[10\]): local coins only,
/// expected-exponential convergence.
struct DwClockFamily;

impl ProtocolFamily for DwClockFamily {
    fn name(&self) -> &'static str {
        "dw-clock"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        // DW *is* the local-coin regime; any other coin spec is a category
        // error the registry should surface rather than paper over.
        if spec.coin != CoinSpec::Local {
            return Err(ScenarioError::unsupported_coin(spec));
        }
        reject_unwired(spec)?;
        if spec.adversary != AdversarySpec::Silent {
            return Err(ScenarioError::unsupported_adversary(spec));
        }
        let k = spec.clock_modulus;
        let sim = builder_for(spec).build(move |cfg, _rng| DwClock::new(cfg, k), SilentAdversary);
        Ok(Box::new(ClockRun::new(sim)))
    }
}

/// The `n > 4f` queen clock (\[15\]-shaped, O(f) via §6.2 pipelining).
struct QueenClockFamily;

impl ProtocolFamily for QueenClockFamily {
    fn name(&self) -> &'static str {
        "queen-clock"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        if spec.coin != CoinSpec::None {
            return Err(ScenarioError::unsupported_coin(spec));
        }
        reject_unwired(spec)?;
        let adversary = ba_adversary(spec, queen_rounds(spec.f))?;
        let k = spec.clock_modulus;
        let sim = builder_for(spec).build(
            move |cfg, _rng| QueenClock::new(QueenScheme::new(cfg), k),
            adversary,
        );
        Ok(Box::new(ClockRun::new(sim)))
    }
}

/// The `n > 3f` phase-king clock (\[7\]-shaped, O(f) via §6.2 pipelining).
struct PkClockFamily;

impl ProtocolFamily for PkClockFamily {
    fn name(&self) -> &'static str {
        "pk-clock"
    }

    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        if spec.coin != CoinSpec::None {
            return Err(ScenarioError::unsupported_coin(spec));
        }
        reject_unwired(spec)?;
        let adversary = ba_adversary(spec, phase_king_rounds(spec.f))?;
        let k = spec.clock_modulus;
        let sim = builder_for(spec).build(
            move |cfg, _rng| PkClock::new(PhaseKingScheme::new(cfg), k),
            adversary,
        );
        Ok(Box::new(ClockRun::new(sim)))
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
    fn pk_clock_spec_converges() {
        let spec = ScenarioSpec::parse(
            "pk-clock n=4 f=1 k=32 coin=none adv=silent faults=corrupt-start seed=1 budget=500",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
    }

    #[test]
    fn queen_with_byzantine_queen_placement() {
        // Node 0 (the first queen) is the actual traitor, within budget.
        let spec = ScenarioSpec::parse(
            "queen-clock n=5 f=1 k=8 coin=none adv=ba-equivocator \
             faults=corrupt-start byz=0 seed=4 budget=2000",
        )
        .unwrap();
        let report = registry().run(&spec).unwrap();
        assert!(report.converged_at.is_some(), "{report:?}");
    }

    #[test]
    fn baseline_clocks_accept_the_delay_knob() {
        // The Table 1 comparators run under bounded delay too (builder_for
        // threads the timing model); a 2-beat window stretches but does not
        // break the O(f) phase-king pipeline at this size.
        let spec = ScenarioSpec::parse(
            "pk-clock n=4 f=1 k=8 coin=none adv=silent faults=corrupt-start delay=2 \
             seed=3 budget=4000",
        )
        .unwrap();
        let registry = registry();
        let report = registry.run(&spec).unwrap();
        assert_eq!(report.extra("delay_window"), Some(2.0));
        assert!(report.extra("mean_delay").unwrap() > 0.0);
        assert_eq!(registry.run(&spec).unwrap(), report, "deterministic");
    }

    #[test]
    fn dw_requires_local_coins() {
        let spec = ScenarioSpec::parse("dw-clock n=4 f=1 k=2 coin=ticket budget=100").unwrap();
        match registry().run(&spec) {
            Err(ScenarioError::UnsupportedCoin { .. }) => {}
            other => panic!("expected UnsupportedCoin, got {other:?}"),
        }
        let spec = ScenarioSpec::parse(
            "dw-clock n=4 f=1 k=2 coin=local faults=corrupt-start seed=6 budget=100000",
        )
        .unwrap();
        assert!(registry().run(&spec).unwrap().converged_at.is_some());
    }
}
