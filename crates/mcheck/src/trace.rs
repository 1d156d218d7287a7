//! Replayable counterexample traces, exportable as one JSON record through
//! the workspace's JSON-line writer ([`byzclock_core::scenario::json`]).

use byzclock_core::scenario::json;

/// One hop of a counterexample: which adversary choice and which coin
/// outcome were taken, plus the canonical state the real core produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Index into [`crate::engine::Model::choices`] at the current state.
    pub choice: usize,
    /// Index into the chosen choice's outcomes (common first, then
    /// adversarial).
    pub outcome: usize,
    /// The choice's human-readable label (adversary letters, schedule).
    pub choice_label: String,
    /// Whether the outcome needed an adversarial (split) coin.
    pub adversarial_outcome: bool,
    /// Canonical description of the successor state.
    pub next_state: String,
}

/// A minimal replayable witness path: an initial state plus
/// `(choice, outcome)` indices that [`crate::engine::replay`] can re-apply
/// through the real protocol core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Model the trace belongs to.
    pub model: String,
    /// Canonical description of the starting state.
    pub initial_state: String,
    /// The hops, in order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Number of engine steps in the witness.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the violation is already visible in the initial state.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The witness as one JSON record: model, initial state, and each
    /// step as `[choice, outcome, label, adversarial, next_state]`. The
    /// indices are what [`crate::engine::replay`] re-applies, so a parsed
    /// record still replays exactly.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::object();
        w.key("model").str(&self.model);
        w.key("initial_state").str(&self.initial_state);
        w.key("steps").open('[');
        for step in &self.steps {
            w.open('[').raw(step.choice).raw(step.outcome);
            w.str(&step.choice_label).raw(step.adversarial_outcome);
            w.str(&step.next_state).close(']');
        }
        w.close(']');
        w.finish()
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "initial: {}", self.initial_state)?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  step {i}: adversary [{}]{} -> {}",
                step.choice_label,
                if step.adversarial_outcome {
                    " (split coin)"
                } else {
                    ""
                },
                step.next_state
            )?;
        }
        Ok(())
    }
}
