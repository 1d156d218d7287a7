//! The exhaustive explorer: BFS over canonicalized protocol states with a
//! closure (greatest-fixpoint) check and a max-min convergence-rank game.
//!
//! Terminology:
//!
//! - A **choice** is one adversary move (message contents, delivery
//!   schedule): the adversary commits to it *before* any coin is revealed
//!   (Remark 3.1's rushing adversary cannot see the current beat's coin).
//! - Within a choice, the **common** outcomes are the shared-coin draws
//!   (luck's moves); **adversarial** outcomes are coin assignments only a
//!   broken coin could produce (e.g. split per-node bits). Closure and
//!   reachability range over *all* outcomes; the convergence game lets
//!   luck pick only among the common ones.
//! - **Closure** is checked as a greatest fixpoint: the *persistent* set
//!   `P` is the largest subset of synced states all of whose successors
//!   (under every outcome) stay in `P`. Synced states outside `P` are
//!   *transient* — reported, but only an empty `P` (with synced states
//!   reachable) is a violation.
//! - **Convergence rank** is the value of the max-min game: the adversary
//!   maximizes, luck minimizes, target `P`. An infinite rank means some
//!   adversary traps the system under *every* coin sequence; a finite
//!   maximum is the measured worst case, compared against the model's
//!   claimed bound.

use std::collections::hash_map::Entry;
#[expect(
    clippy::disallowed_types,
    reason = "state interning needs O(1) lookups; ids are assigned in BFS insertion order \
              and the map itself is never iterated, so no HashMap ordering can reach a report"
)]
use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

use byzclock_core::scenario::json;

use crate::trace::{Trace, TraceStep};

/// Rank value meaning "the adversary can prevent convergence forever".
pub const RANK_INF: u32 = u32::MAX;

/// One adversary move and the coin outcomes available under it.
#[derive(Debug, Clone)]
pub struct Choice<S> {
    /// Human-readable description of the adversary move (letters sent,
    /// delivery schedule) — used in counterexample traces.
    pub label: String,
    /// Successor per common-coin outcome (luck's menu). Must be non-empty.
    pub common: Vec<S>,
    /// Successors only reachable under adversarial coin outcomes (e.g.
    /// split per-node bits). Closure must survive them; the convergence
    /// game ignores them.
    pub adversarial: Vec<S>,
}

/// A finite-state model of one protocol: canonical states plus the full
/// per-state menu of adversary choices, driven through the *real* core.
pub trait Model {
    /// Canonical (symmetry-reduced) joint state.
    type State: Clone + Eq + Hash + Ord + Debug;

    /// Model name as reported (e.g. `"two-clock"`).
    fn name(&self) -> String;

    /// Every state the checker must assume the system can wake up in.
    fn initial_states(&self) -> Vec<Self::State>;

    /// The complete menu of adversary choices from `state`. Each choice
    /// must offer at least one common outcome.
    fn choices(&self, state: &Self::State) -> Vec<Choice<Self::State>>;

    /// Whether `state` is in the synced set.
    fn is_synced(&self, state: &Self::State) -> bool;

    /// Claimed convergence bound, in *beats*.
    fn bound_beats(&self) -> u32;

    /// How many engine steps make up one protocol beat (phase-split models
    /// return > 1; ranks are divided by this before comparing to
    /// [`Model::bound_beats`]).
    fn rank_per_beat(&self) -> u32 {
        1
    }

    /// Human-readable rendering of `state` for traces and reports.
    fn describe(&self, state: &Self::State) -> String;

    /// Invariant every transition *out of a persistent state* must
    /// satisfy (e.g. the synced clock keeps ticking). Default: anything.
    fn synced_progress(&self, _from: &Self::State, _to: &Self::State) -> bool {
        true
    }
}

/// What went wrong, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A reachable synced state can be forced back out of sync.
    Closure,
    /// A reachable state cannot reach sync (or not within the bound).
    Convergence,
    /// A persistent state's transition broke [`Model::synced_progress`].
    Progress,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ViolationKind::Closure => "closure",
            ViolationKind::Convergence => "convergence",
            ViolationKind::Progress => "progress",
        })
    }
}

/// A checked property failure with a minimal replayable trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which property failed.
    pub kind: ViolationKind,
    /// One-line diagnosis.
    pub detail: String,
    /// Shortest witness path from an initial state (BFS layers are
    /// explored in order, so the prefix up to the offending state is
    /// minimal).
    pub trace: Trace,
}

/// Everything [`check`] measured.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// [`Model::name`].
    pub model: String,
    /// `false` if exploration hit `max_states` — numbers below are then
    /// lower bounds and no verdict is issued.
    pub complete: bool,
    /// Reachable canonical states.
    pub states: usize,
    /// Total transitions enumerated (per choice × outcome).
    pub edges: u64,
    /// Reachable states satisfying [`Model::is_synced`].
    pub synced_states: usize,
    /// Size of the persistent (closure-witnessing) set `P`.
    pub persistent_states: usize,
    /// Synced but not persistent.
    pub transient_synced: usize,
    /// Worst convergence rank, in engine steps: [`RANK_INF`] if some
    /// state is trapped (that is also a violation), `None` if the rank
    /// game never ran — exploration was capped, or closure or progress
    /// failed first — so no rank was measured.
    pub max_rank: Option<u32>,
    /// `max_rank` converted to beats (rounded up; [`RANK_INF`] stays).
    pub max_rank_beats: Option<u32>,
    /// The model's claimed bound, in beats.
    pub bound_beats: u32,
    /// First (and most severe) property failure, if any.
    pub violation: Option<Violation>,
}

impl CheckReport {
    /// `true` when the model was fully explored and no property failed.
    pub fn verified(&self) -> bool {
        self.complete && self.violation.is_none()
    }

    /// The verdict as one JSON record (`model-check --jsonl`): model,
    /// verdict (`verified`, `violation` or `incomplete`), the state and
    /// edge counts, the worst rank (`null` when trapped or never measured)
    /// and the bound,
    /// then a violation's kind and diagnosis. The witness is a second
    /// record, [`Trace::to_json`].
    pub fn to_json(&self) -> String {
        let finite = |r: Option<u32>| r.filter(|&r| r != RANK_INF);
        let verdict = match (&self.violation, self.complete) {
            (Some(_), _) => "violation",
            (None, true) => "verified",
            (None, false) => "incomplete",
        };
        let mut w = json::Writer::object();
        w.key("model").str(&self.model).key("verdict").str(verdict);
        w.key("states").raw(self.states);
        w.key("edges").raw(self.edges);
        w.key("synced_states").raw(self.synced_states);
        w.key("persistent_states").raw(self.persistent_states);
        w.key("transient_synced").raw(self.transient_synced);
        w.key("max_rank").opt(finite(self.max_rank));
        w.key("max_rank_beats").opt(finite(self.max_rank_beats));
        w.key("bound_beats").raw(self.bound_beats);
        if let Some(v) = &self.violation {
            w.key("violation").str(&v.kind.to_string());
            w.key("detail").str(&v.detail);
        }
        w.finish()
    }
}

struct Explored<S> {
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only interning index, never iterated"
    )]
    index: HashMap<S, u32>,
    states: Vec<S>,
    preds: Vec<u32>, // u32::MAX for initial states
    /// Deduplicated successor ids per state (every choice, every outcome).
    succ_all: Vec<Vec<u32>>,
    /// Per state: concatenated common-outcome successor lists, one slice
    /// per (deduplicated) choice, delimited by `common_ends`.
    commons: Vec<Vec<u32>>,
    common_ends: Vec<Vec<u32>>,
    edges: u64,
    complete: bool,
}

#[expect(
    clippy::disallowed_types,
    reason = "the interning index; ids are insertion-ordered"
)]
fn intern<S: Clone + Eq + Hash>(
    s: &S,
    index: &mut HashMap<S, u32>,
    states: &mut Vec<S>,
    preds: &mut Vec<u32>,
    pred: u32,
    queue: &mut VecDeque<u32>,
) -> u32 {
    match index.entry(s.clone()) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) => {
            let id = states.len() as u32;
            states.push(s.clone());
            preds.push(pred);
            queue.push_back(id);
            e.insert(id);
            id
        }
    }
}

fn explore<M: Model>(model: &M, max_states: usize) -> Explored<M::State> {
    let mut ex = Explored {
        #[expect(clippy::disallowed_types, reason = "lookup-only interning index")]
        index: HashMap::new(),
        states: Vec::new(),
        preds: Vec::new(),
        succ_all: Vec::new(),
        commons: Vec::new(),
        common_ends: Vec::new(),
        edges: 0,
        complete: true,
    };
    let mut queue = VecDeque::new();
    for s0 in model.initial_states() {
        intern(
            &s0,
            &mut ex.index,
            &mut ex.states,
            &mut ex.preds,
            u32::MAX,
            &mut queue,
        );
    }

    while let Some(id) = queue.pop_front() {
        // Keep arrays aligned for every *discovered* state even when we
        // stop expanding: unexpanded frontier states get empty menus and
        // the run is marked incomplete (no verdict).
        while ex.succ_all.len() < id as usize {
            ex.succ_all.push(Vec::new());
            ex.commons.push(Vec::new());
            ex.common_ends.push(Vec::new());
        }
        if ex.states.len() > max_states {
            ex.complete = false;
            ex.succ_all.push(Vec::new());
            ex.commons.push(Vec::new());
            ex.common_ends.push(Vec::new());
            continue;
        }
        let state = ex.states[id as usize].clone();
        let mut all: Vec<u32> = Vec::new();
        let mut commons: Vec<u32> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        let mut seen_sets: BTreeSet<Vec<u32>> = BTreeSet::new();
        for choice in model.choices(&state) {
            assert!(
                !choice.common.is_empty(),
                "{}: choice '{}' offers no common outcome",
                model.name(),
                choice.label
            );
            let mut set: Vec<u32> = choice
                .common
                .iter()
                .map(|t| {
                    intern(
                        t,
                        &mut ex.index,
                        &mut ex.states,
                        &mut ex.preds,
                        id,
                        &mut queue,
                    )
                })
                .collect();
            ex.edges += (choice.common.len() + choice.adversarial.len()) as u64;
            for t in &choice.adversarial {
                let tid = intern(
                    t,
                    &mut ex.index,
                    &mut ex.states,
                    &mut ex.preds,
                    id,
                    &mut queue,
                );
                all.push(tid);
            }
            all.extend_from_slice(&set);
            // Identical common-outcome sets contribute identically to the
            // rank game — keep one.
            set.sort_unstable();
            set.dedup();
            if seen_sets.insert(set.clone()) {
                commons.extend_from_slice(&set);
                ends.push(commons.len() as u32);
            }
        }
        all.sort_unstable();
        all.dedup();
        debug_assert_eq!(ex.succ_all.len(), id as usize);
        ex.succ_all.push(all);
        ex.commons.push(commons);
        ex.common_ends.push(ends);
    }
    while ex.succ_all.len() < ex.states.len() {
        ex.succ_all.push(Vec::new());
        ex.commons.push(Vec::new());
        ex.common_ends.push(Vec::new());
    }
    ex
}

/// Rebuilds the `(choice, outcome)` indices for the transition
/// `from -> to` by re-enumerating the model's menu — this *is* the replay:
/// the trace is only emitted if the real core reproduces every hop.
fn attribute<M: Model>(
    model: &M,
    from: &M::State,
    to: &M::State,
) -> Option<(usize, usize, String, bool)> {
    for (ci, choice) in model.choices(from).iter().enumerate() {
        for (oi, t) in choice
            .common
            .iter()
            .chain(choice.adversarial.iter())
            .enumerate()
        {
            if t == to {
                let adversarial = oi >= choice.common.len();
                return Some((ci, oi, choice.label.clone(), adversarial));
            }
        }
    }
    None
}

fn build_trace<M: Model>(model: &M, ex: &Explored<M::State>, path: &[u32]) -> Trace {
    let mut steps = Vec::new();
    for w in path.windows(2) {
        let (from, to) = (&ex.states[w[0] as usize], &ex.states[w[1] as usize]);
        let (choice, outcome, label, adversarial) = attribute(model, from, to)
            .expect("trace replay failed: explored edge not reproduced by the core");
        steps.push(TraceStep {
            choice,
            outcome,
            choice_label: label,
            adversarial_outcome: adversarial,
            next_state: model.describe(to),
        });
    }
    Trace {
        model: model.name(),
        initial_state: model.describe(&ex.states[path[0] as usize]),
        steps,
    }
}

/// Shortest path (list of state ids) from an initial state to `target`,
/// following BFS predecessors.
fn path_to<S>(ex: &Explored<S>, target: u32) -> Vec<u32> {
    let mut path = vec![target];
    let mut cur = target;
    while ex.preds[cur as usize] != u32::MAX {
        cur = ex.preds[cur as usize];
        path.push(cur);
    }
    path.reverse();
    path
}

/// Runs the full check: explore, closure fixpoint, progress, rank game.
pub fn check<M: Model>(model: &M, max_states: usize) -> CheckReport {
    let ex = explore(model, max_states);
    let n = ex.states.len();
    let synced: Vec<bool> = ex.states.iter().map(|s| model.is_synced(s)).collect();
    let synced_count = synced.iter().filter(|&&b| b).count();

    let mut report = CheckReport {
        model: model.name(),
        complete: ex.complete,
        states: n,
        edges: ex.edges,
        synced_states: synced_count,
        persistent_states: 0,
        transient_synced: 0,
        max_rank: None,
        max_rank_beats: None,
        bound_beats: model.bound_beats(),
        violation: None,
    };
    if !ex.complete {
        return report; // inconclusive: no verdict on a truncated graph
    }

    // Closure: greatest fixpoint of "synced and all successors persist".
    let mut in_p: Vec<bool> = synced.clone();
    loop {
        let mut changed = false;
        for s in 0..n {
            if in_p[s] && ex.succ_all[s].iter().any(|&t| !in_p[t as usize]) {
                in_p[s] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let p_count = in_p.iter().filter(|&&b| b).count();
    report.persistent_states = p_count;
    report.transient_synced = synced_count - p_count;

    if synced_count > 0 && p_count == 0 {
        // Every synced state can be forced back out — demonstrate it:
        // shortest path to the first synced state, then the shortest
        // escape (which exists for every state removed from the fixpoint).
        let first = (0..n).find(|&s| synced[s]).expect("synced_count > 0") as u32;
        let mut path = path_to(&ex, first);
        let mut bfs = VecDeque::from([first]);
        let mut from: BTreeMap<u32, u32> = BTreeMap::from([(first, u32::MAX)]);
        let mut exit = None;
        'escape: while let Some(s) = bfs.pop_front() {
            for &t in &ex.succ_all[s as usize] {
                if let std::collections::btree_map::Entry::Vacant(e) = from.entry(t) {
                    e.insert(s);
                    if !synced[t as usize] {
                        exit = Some(t);
                        break 'escape;
                    }
                    bfs.push_back(t);
                }
            }
        }
        let exit = exit.expect("empty persistent set implies an escape path");
        let mut tail = vec![exit];
        let mut cur = exit;
        while from[&cur] != u32::MAX {
            cur = from[&cur];
            tail.push(cur);
        }
        tail.pop(); // `first` is already the last element of `path`
        tail.reverse();
        path.extend(tail);
        report.violation = Some(Violation {
            kind: ViolationKind::Closure,
            detail: format!(
                "{} synced states are reachable but none is persistent: \
                 the adversary can force every one of them back out of sync",
                synced_count
            ),
            trace: build_trace(model, &ex, &path),
        });
        return report;
    }

    // Progress: persistent transitions must respect the model's invariant.
    for (s, &inside) in in_p.iter().enumerate().take(n) {
        if !inside {
            continue;
        }
        for &t in &ex.succ_all[s] {
            if !model.synced_progress(&ex.states[s], &ex.states[t as usize]) {
                let mut path = path_to(&ex, s as u32);
                path.push(t);
                report.violation = Some(Violation {
                    kind: ViolationKind::Progress,
                    detail: format!(
                        "persistent state {} has a transition violating synced progress",
                        model.describe(&ex.states[s])
                    ),
                    trace: build_trace(model, &ex, &path),
                });
                return report;
            }
        }
    }

    // Convergence: value iteration for the max-min rank game to `P`.
    // Sweeping until stable converges to the true game value on a finite
    // graph: after k sweeps every state luck can force into `P` within k
    // steps holds a finite rank, and trapped cycles stay at RANK_INF.
    let mut rank: Vec<u32> = (0..n).map(|s| if in_p[s] { 0 } else { RANK_INF }).collect();
    loop {
        let mut changed = false;
        for s in 0..n {
            if in_p[s] {
                continue;
            }
            let mut worst = 0u32;
            let mut start = 0usize;
            for &end in &ex.common_ends[s] {
                let best = ex.commons[s][start..end as usize]
                    .iter()
                    .map(|&t| rank[t as usize])
                    .min()
                    .expect("choice with empty common set");
                worst = worst.max(best.saturating_add(1));
                start = end as usize;
            }
            if worst < rank[s] {
                rank[s] = worst;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    if let Some(trapped) = (0..n).find(|&s| rank[s] == RANK_INF) {
        report.max_rank = Some(RANK_INF);
        report.max_rank_beats = Some(RANK_INF);
        // Name one trapping choice: a menu entry whose every common
        // outcome stays trapped.
        let state = &ex.states[trapped];
        let trapping = model
            .choices(state)
            .into_iter()
            .find(|c| {
                c.common
                    .iter()
                    .all(|t| rank[ex.index[t] as usize] == RANK_INF)
            })
            .map(|c| c.label)
            .unwrap_or_else(|| "?".into());
        report.violation = Some(Violation {
            kind: ViolationKind::Convergence,
            detail: format!(
                "state {} never converges: adversary move [{}] traps it under every coin",
                model.describe(state),
                trapping
            ),
            trace: build_trace(model, &ex, &path_to(&ex, trapped as u32)),
        });
        return report;
    }

    let max_rank = rank.iter().copied().max().unwrap_or(0);
    let max_rank_beats = max_rank.div_ceil(model.rank_per_beat());
    report.max_rank = Some(max_rank);
    report.max_rank_beats = Some(max_rank_beats);
    if max_rank_beats > report.bound_beats {
        let worst = (0..n).find(|&s| rank[s] == max_rank).expect("max exists") as u32;
        report.violation = Some(Violation {
            kind: ViolationKind::Convergence,
            detail: format!(
                "measured worst-case convergence is {} beats, over the claimed bound of {}",
                max_rank_beats, report.bound_beats
            ),
            trace: build_trace(model, &ex, &path_to(&ex, worst)),
        });
    }
    report
}

/// Replays `trace` against `model` from scratch: re-resolves the initial
/// state by description, re-applies every `(choice, outcome)` index
/// through the real core, and checks each intermediate description.
/// Returns the final state on success.
pub fn replay<M: Model>(model: &M, trace: &Trace) -> Result<M::State, String> {
    let mut state = model
        .initial_states()
        .into_iter()
        .find(|s| model.describe(s) == trace.initial_state)
        .ok_or_else(|| format!("unknown initial state: {}", trace.initial_state))?;
    for (i, step) in trace.steps.iter().enumerate() {
        let menu = model.choices(&state);
        let choice = menu
            .get(step.choice)
            .ok_or_else(|| format!("step {i}: choice {} out of range", step.choice))?;
        let next = choice
            .common
            .iter()
            .chain(choice.adversarial.iter())
            .nth(step.outcome)
            .ok_or_else(|| format!("step {i}: outcome {} out of range", step.outcome))?;
        if model.describe(next) != step.next_state {
            return Err(format!(
                "step {i}: replay diverged: expected {}, core produced {}",
                step.next_state,
                model.describe(next)
            ));
        }
        state = next.clone();
    }
    Ok(state)
}
