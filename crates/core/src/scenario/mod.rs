//! The declarative scenario layer: one entry point for every protocol ×
//! adversary × fault-plan run in the reproduction.
//!
//! Every experiment in this workspace is a point on the same grid: *which
//! protocol* (Figures 1–4, §5, or a Table 1 baseline), over *which coin*,
//! against *which adversary*, under *which fault plan*, with a seed and a
//! beat budget. [`ScenarioSpec`] names such a point as plain serializable
//! data; a [`ProtocolRegistry`] resolves the spec's protocol name to a
//! [`ProtocolFamily`] and hands back a type-erased [`ScenarioRun`]; and
//! [`ProtocolRegistry::run`] drives that to a deterministic [`RunReport`]
//! with convergence beat, sync quality, and traffic totals.
//!
//! This crate holds the framework only: the spec grammar, the registry,
//! the run adapters and the pieces every family builds from
//! ([`builder_for`], [`clock_adversary`], [`reject_unwired`]). The
//! families live with their randomness: `byzclock-coin` registers the
//! paper's clocks over every coin, `byzclock-baselines` the Table 1
//! clocks, and the umbrella `byzclock` crate assembles the default
//! registry. A family is any [`ProtocolFamily`]; this one runs the 2-clock
//! over the spec's oracle beacon:
//!
//! ```
//! use byzclock_core::scenario::{
//!     builder_for, clock_adversary, ClockRun, ProtocolFamily, ProtocolRegistry, ScenarioError,
//!     ScenarioRun, ScenarioSpec,
//! };
//! use byzclock_core::{OracleBeacon, TwoClock};
//!
//! struct OracleTwoClock;
//!
//! impl ProtocolFamily for OracleTwoClock {
//!     fn name(&self) -> &'static str {
//!         "two-clock"
//!     }
//!
//!     fn spawn(&self, spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
//!         let beacon = OracleBeacon::new(spec.coin.p0(), spec.coin.p1(), spec.seed);
//!         let adversary = clock_adversary(spec, Some(&beacon))?;
//!         let sim = builder_for(spec).build(
//!             move |cfg, _rng| TwoClock::new(cfg, beacon.source(cfg.id)),
//!             adversary,
//!         );
//!         Ok(Box::new(ClockRun::new(sim)))
//!     }
//! }
//!
//! let mut registry = ProtocolRegistry::new();
//! registry.register(Box::new(OracleTwoClock));
//!
//! let spec = ScenarioSpec::parse("two-clock n=7 f=2 coin=oracle seed=7 budget=2000").unwrap();
//! let report = registry.run(&spec).unwrap();
//! assert!(report.converged_at.is_some());
//! assert_eq!(report, registry.run(&spec).unwrap()); // same spec => same report
//! ```

pub mod json;
mod registry;
mod run;
mod spec;

pub use registry::{
    builder_for, clock_adversary, reject_unwired, ProtocolFamily, ProtocolRegistry, ScenarioError,
};
pub use run::{
    delay_extras, drive, drive_exact, ClockRun, RunReport, ScenarioRun, TrafficSummary,
    DEFAULT_SYNC_WINDOW,
};
pub use spec::{AdversarySpec, CoinSpec, FaultPlanSpec, MetricsSpec, ScenarioSpec, WireSpec};

// The spec's `delay=` and `wire=` knobs resolve to these sim-layer
// configs; re-exported so scenario-level callers need not depend on
// `byzclock-sim` directly.
pub use byzclock_sim::{TimingModel, WireConfig, WireFormat};
