//! `byzclock` — umbrella crate for the PODC'08 *Fast Self-Stabilizing
//! Byzantine Tolerant Digital Clock Synchronization* reproduction.
//!
//! This crate re-exports the whole workspace under one roof, assembles the
//! default [`scenario`] registry, and hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`). See the
//! individual crates for the actual machinery:
//!
//! - [`sim`] — the deterministic global-beat-system simulator (model §2),
//! - [`field`] — prime-field / coding-theory substrate for the coin,
//! - [`coin`] — graded-VSS common coin (Def. 2.6, Obs. 2.1),
//! - [`alg`] — the paper's algorithms (Figures 1–4) and the scenario layer,
//! - [`baselines`] — Table 1 comparators.
//!
//! # Quickstart
//!
//! Every run in this workspace is one declarative
//! [`ScenarioSpec`](scenario::ScenarioSpec): protocol × cluster × coin ×
//! adversary × fault plan × seed. Build one (or parse its one-line form),
//! hand it to [`scenario::run`], and read the [`RunReport`](scenario::RunReport):
//!
//! ```
//! use byzclock::scenario::{self, ScenarioSpec};
//!
//! // The paper's full stack: ss-Byz-Clock-Sync over the GVSS ticket coin,
//! // 4 nodes, 1 Byzantine (silent), k = 16, from scrambled memory.
//! let spec = ScenarioSpec::new("clock-sync", 4, 1)
//!     .with_modulus(16)
//!     .with_seed(1)
//!     .with_budget(2_000);
//! let report = scenario::run(&spec).expect("registered protocol");
//! assert!(report.converged_at.is_some(), "expected-constant convergence");
//!
//! // Same spec, same seed => bit-identical report (full determinism).
//! assert_eq!(report, scenario::run(&spec).unwrap());
//!
//! // Specs round-trip through a single self-describing line.
//! let parsed = ScenarioSpec::parse(&spec.to_string()).unwrap();
//! assert_eq!(parsed, spec);
//! ```
//!
//! The registry knows every protocol in the workspace — swap the name (and
//! coin) to sweep the paper's whole grid:
//!
//! ```
//! use byzclock::scenario::{self, CoinSpec, ScenarioSpec};
//!
//! for name in scenario::default_registry().names() {
//!     // "two-clock", "broken-two-clock", "four-clock", "clock-sync",
//!     // "recursive", "bd-clock", "shared-four-clock", "coin-stream",
//!     // "dw-clock", "queen-clock", "pk-clock"
//!     assert!(!name.is_empty());
//! }
//!
//! // The 2-clock isolated over an ideal beacon instead of the real coin:
//! let spec = ScenarioSpec::new("two-clock", 7, 2)
//!     .with_coin(CoinSpec::perfect_oracle())
//!     .with_budget(1_000);
//! assert!(scenario::run(&spec).unwrap().converged_at.is_some());
//! ```

#![forbid(unsafe_code)]

/// The paper's algorithms (crate `byzclock-core`).
pub use byzclock_core as alg;

/// Common-coin protocols (crate `byzclock-coin`).
pub use byzclock_coin as coin;

/// Prime-field substrate (crate `byzclock-field`).
pub use byzclock_field as field;

/// The global-beat-system simulator (crate `byzclock-sim`).
pub use byzclock_sim as sim;

/// Table 1 comparators (crate `byzclock-baselines`).
pub use byzclock_baselines as baselines;

/// Exhaustive small-model checker (crate `byzclock-mcheck`).
pub use byzclock_mcheck as mcheck;

/// Invariant linter for the workspace's static contracts (crate
/// `byzclock-lint`).
pub use byzclock_lint as lint;

pub mod scenario {
    //! The workspace-wide scenario API: every protocol of the reproduction
    //! behind one declarative entry point.
    //!
    //! This module re-exports the scenario layer from `byzclock-core` and
    //! assembles the [`default_registry`], one family per protocol name:
    //! `coin`'s families (the paper's clocks over every coin, and the coin
    //! stream), then `baselines`' Table 1 clocks.

    pub use byzclock_core::scenario::{
        builder_for, clock_adversary, delay_extras, drive, drive_exact, AdversarySpec, ClockRun,
        CoinSpec, FaultPlanSpec, MetricsSpec, ProtocolFamily, ProtocolRegistry, RunReport,
        ScenarioError, ScenarioRun, ScenarioSpec, TimingModel, TrafficSummary, WireConfig,
        WireFormat, WireSpec, DEFAULT_SYNC_WINDOW,
    };

    /// A registry with every protocol family in the workspace registered.
    pub fn default_registry() -> ProtocolRegistry {
        let mut registry = ProtocolRegistry::new();
        byzclock_coin::scenario::register_protocols(&mut registry);
        byzclock_baselines::scenario::register_protocols(&mut registry);
        registry
    }

    /// Resolves and runs `spec` against the default registry — the
    /// one-call entry point for scripts and examples.
    pub fn run(spec: &ScenarioSpec) -> Result<RunReport, ScenarioError> {
        default_registry().run(spec)
    }

    /// Resolves `spec` against the default registry without driving it,
    /// for callers that step the run themselves.
    pub fn start(spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
        default_registry().start(spec)
    }

    /// The spec-level entry point the rest of the workspace names in
    /// prose: `Scenario::run(&spec)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Scenario;

    impl Scenario {
        /// See [`run`].
        pub fn run(spec: &ScenarioSpec) -> Result<RunReport, ScenarioError> {
            run(spec)
        }

        /// See [`start`].
        pub fn start(spec: &ScenarioSpec) -> Result<Box<dyn ScenarioRun>, ScenarioError> {
            start(spec)
        }
    }
}
