//! Protocol families, the name → family registry, and the pieces every
//! family builds a run from.

use super::run::{drive, RunReport, ScenarioRun};
use super::spec::{AdversarySpec, MetricsSpec, ScenarioSpec};
use crate::adversary::{
    EquivocatingAdversary, RandAwareSplitter, RandomVoteAdversary, SplitVoteAdversary, VoteMessage,
};
use crate::rand_source::OracleBeacon;
use byzclock_sim::{Adversary, SilentAdversary, SimBuilder};
use std::fmt;

/// Everything that can go wrong between a [`ScenarioSpec`] and a running
/// simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec's protocol name is not registered.
    UnknownProtocol {
        /// The requested name.
        name: String,
        /// Every registered name, for the error message.
        known: Vec<String>,
    },
    /// No registered family for this protocol supports the requested coin.
    UnsupportedCoin {
        /// The protocol name.
        protocol: String,
        /// The requested coin, rendered.
        coin: String,
    },
    /// The protocol's message type cannot host the requested adversary.
    UnsupportedAdversary {
        /// The protocol name.
        protocol: String,
        /// The requested adversary, rendered.
        adversary: String,
    },
    /// The spec is structurally invalid (bad `n`/`f`/`k`/placement).
    InvalidSpec(String),
    /// The spec line could not be parsed.
    Parse(String),
    /// A sweep backend could not produce this spec's report (worker
    /// process death, malformed worker output, or a per-spec timeout) —
    /// the transport-level failure class of a sharded sweep, as opposed
    /// to the spec-level errors above.
    Sweep(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownProtocol { name, known } => {
                write!(
                    f,
                    "unknown protocol `{name}`; registered: {}",
                    known.join(", ")
                )
            }
            ScenarioError::UnsupportedCoin { protocol, coin } => {
                write!(
                    f,
                    "protocol `{protocol}` has no implementation over coin `{coin}`"
                )
            }
            ScenarioError::UnsupportedAdversary {
                protocol,
                adversary,
            } => {
                write!(
                    f,
                    "protocol `{protocol}` cannot host adversary `{adversary}`"
                )
            }
            ScenarioError::InvalidSpec(msg) => write!(f, "invalid scenario spec: {msg}"),
            ScenarioError::Parse(msg) => write!(f, "scenario spec parse error: {msg}"),
            ScenarioError::Sweep(msg) => write!(f, "sweep backend error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioError {
    /// The spec's protocol has no implementation over the spec's coin.
    pub fn unsupported_coin(spec: &ScenarioSpec) -> Self {
        ScenarioError::UnsupportedCoin {
            protocol: spec.protocol.clone(),
            coin: spec.coin.to_string(),
        }
    }

    /// The spec's protocol cannot host the spec's adversary.
    pub fn unsupported_adversary(spec: &ScenarioSpec) -> Self {
        ScenarioError::UnsupportedAdversary {
            protocol: spec.protocol.clone(),
            adversary: spec.adversary.to_string(),
        }
    }
}

/// One named protocol implementation: turns a [`ScenarioSpec`] naming it
/// into a type-erased running simulation.
///
/// Each name is registered exactly once, and the family serves every coin
/// the protocol runs over. Its `spawn` checks the spec in one order: the
/// coin, then the `committee=`/`metrics=` wiring, then its own parameters,
/// then the adversary — so a refusal names the first thing that is wrong.
///
/// Families must be `Send + Sync` so one registry can serve Monte-Carlo
/// trials from many threads; they are resolvers, not running state.
pub trait ProtocolFamily: Send + Sync {
    /// The registry name (`two-clock`, `clock-sync`, `dw-clock`, ...).
    fn name(&self) -> &'static str;

    /// Builds the erased simulation for `spec`, or explains why this
    /// family cannot serve it.
    fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError>;
}

/// The name → [`ProtocolFamily`] table every scenario run resolves
/// through: one family per name, in registration order.
#[derive(Default)]
pub struct ProtocolRegistry {
    families: Vec<Box<dyn ProtocolFamily>>,
}

impl ProtocolRegistry {
    /// An empty registry. Most callers want
    /// `byzclock::scenario::default_registry()` instead, which has every
    /// workspace protocol pre-registered.
    pub fn new() -> Self {
        ProtocolRegistry::default()
    }

    /// Registers a family.
    ///
    /// # Panics
    ///
    /// If a family with the same name is already registered.
    pub fn register(&mut self, family: Box<dyn ProtocolFamily>) -> &mut Self {
        assert!(
            self.family(family.name()).is_none(),
            "protocol `{}` is registered twice",
            family.name()
        );
        self.families.push(family);
        self
    }

    /// All registered protocol names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.families.iter().map(|f| f.name().to_string()).collect()
    }

    fn family(&self, name: &str) -> Option<&dyn ProtocolFamily> {
        self.families
            .iter()
            .find(|f| f.name() == name)
            .map(|f| f.as_ref())
    }

    /// Resolves `spec` and builds the erased simulation without driving
    /// it — for callers that need custom beat-by-beat control (the
    /// examples' live traces, post-convergence probes).
    pub fn start(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        spec.validate()?;
        let family = self
            .family(&spec.protocol)
            .ok_or_else(|| ScenarioError::UnknownProtocol {
                name: spec.protocol.clone(),
                known: self.names(),
            })?;
        family.spawn(spec)
    }

    /// Resolves `spec`, runs it to stable sync (window 8, Definition 3.2)
    /// or to the beat budget, and reports. The one-call replacement for
    /// every hand-wired `SimBuilder::build` closure.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<RunReport, ScenarioError> {
        self.run_with_window(spec, super::run::DEFAULT_SYNC_WINDOW)
    }

    /// [`ProtocolRegistry::run`] with an explicit stability window.
    pub fn run_with_window(
        &self,
        spec: &ScenarioSpec,
        window: u64,
    ) -> Result<RunReport, ScenarioError> {
        let mut run = self.start(spec)?;
        Ok(drive(run.as_mut(), spec, window))
    }

    /// Runs the spec's *entire* beat budget without stopping at
    /// convergence (`converged_at` still reports the first stable streak).
    /// This is the mode for steady-state measurements: traffic per beat,
    /// post-convergence closure, coin-quality streams.
    pub fn run_exact(&self, spec: &ScenarioSpec) -> Result<RunReport, ScenarioError> {
        let mut run = self.start(spec)?;
        Ok(super::run::drive_exact(
            run.as_mut(),
            spec,
            super::run::DEFAULT_SYNC_WINDOW,
        ))
    }
}

impl fmt::Debug for ProtocolRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// The [`SimBuilder`] every family starts from: cluster shape, seed,
/// fault schedule, boot corruption, timing model, wire codec, and
/// Byzantine placement straight from the spec — so every protocol family
/// in the workspace accepts the `delay=` and `wire=` knobs without
/// per-family plumbing.
pub fn builder_for(spec: &ScenarioSpec) -> SimBuilder {
    SimBuilder::new(spec.n, spec.f)
        .seed(spec.seed)
        .faults(spec.fault_plan.to_plan())
        .corrupted_start(spec.fault_plan.corrupt_start)
        .timing(spec.timing())
        .wire(spec.wire_config())
        .apply(|b| match &spec.byzantine {
            Some(ids) => b.byzantine(ids.iter().copied()),
            None => b,
        })
}

/// Refuses `committee=` and `metrics=` in a family (or a coin of it) that
/// does not wire them, instead of running the spec without them. They are
/// wired into `clock-sync` over the ticket coin and into `coin-stream`.
pub fn reject_unwired(spec: &ScenarioSpec) -> Result<(), ScenarioError> {
    if let Some(c) = spec.committee {
        return Err(ScenarioError::InvalidSpec(format!(
            "committee={c} is only wired into the clock-sync and coin-stream families; \
             `{}` always runs the full coin",
            spec.protocol
        )));
    }
    if spec.metrics != MetricsSpec::None {
        return Err(ScenarioError::InvalidSpec(format!(
            "metrics={} is only wired into clock-sync over coin=ticket and coin-stream over \
             coin=ticket or coin=xor; `{}` over coin `{}` has no coin counters to report",
            spec.metrics, spec.protocol, spec.coin
        )));
    }
    Ok(())
}

/// Resolves the spec's adversary for any clock-layer message type.
///
/// `beacon` is the nodes' own beacon when the scenario runs over an
/// oracle coin — handing it to [`RandAwareSplitter`] is what models
/// rushing knowledge of the coin. Coin-layer and consensus-layer
/// adversaries are rejected here; the families owning those message types
/// build them directly.
pub fn clock_adversary<M>(
    spec: &ScenarioSpec,
    beacon: Option<&OracleBeacon>,
) -> Result<Box<dyn Adversary<M>>, ScenarioError>
where
    M: VoteMessage + 'static,
{
    Ok(match spec.adversary {
        AdversarySpec::Silent => Box::new(SilentAdversary),
        AdversarySpec::RandomVote => Box::new(RandomVoteAdversary),
        AdversarySpec::Equivocate => Box::new(EquivocatingAdversary),
        AdversarySpec::SplitVote => Box::new(SplitVoteAdversary),
        AdversarySpec::RandAwareSplitter => match beacon {
            Some(beacon) => Box::new(RandAwareSplitter::new(beacon.clone())),
            None => return Err(ScenarioError::unsupported_adversary(spec)),
        },
        _ => return Err(ScenarioError::unsupported_adversary(spec)),
    })
}
