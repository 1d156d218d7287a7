//! Checker-level integration tests: the seeded-bug canary, trace and
//! verdict records, and the window=1 jump-rule trap the checker discovered.
//!
//! The exhaustive *verification* runs (hundreds of thousands of states)
//! live in the release-mode `model-check` CLI and its CI smoke job; the
//! tests here stay debug-mode fast by checking the small models whole and
//! the big one through a hand-pinned witness.

use byzclock_core::scenario::json;
use byzclock_mcheck::{check, replay, BdModel, Choice, Model, Trace, TraceStep, TwoClockModel};
use byzclock_mcheck::{ViolationKind, MODEL_NAMES, RANK_INF};

/// Satellite canary: re-break the PR 5 dedup bug (duplicate-sender slots
/// reaching the counting core) and assert the explorer finds it and
/// minimizes the counterexample.
#[test]
fn canary_broken_dedup_caught_with_minimal_counterexample() {
    let broken = TwoClockModel::broken(4, 1);
    let report = check(&broken, 1 << 20);
    assert!(report.complete, "tiny model must be fully explored");
    let v = report
        .violation
        .as_ref()
        .expect("the seeded dedup bug must be caught");
    assert_eq!(v.kind, ViolationKind::Convergence);
    // BFS explores layers in order, so the witness prefix is minimal —
    // the double-vote traps an *initial* state, and the trace says so
    // with zero steps rather than a meandering path.
    assert_eq!(v.trace.len(), 0, "witness must be minimal: {}", v.trace);
    assert!(
        v.detail.contains("Dup"),
        "diagnosis should name the duplicate-sender letter: {}",
        v.detail
    );
    // The witness replays through the real (broken) core.
    replay(&broken, &v.trace).expect("counterexample must replay");
    // The rank game ran and found the trap: the rank is infinite, which
    // the verdict record writes as `null` beside `"violation"`.
    assert_eq!(report.max_rank, Some(RANK_INF));
    assert_eq!(report.max_rank_beats, Some(RANK_INF));
    let record = json::parse(&report.to_json()).expect("verdict record parses");
    assert_eq!(record.get("max_rank"), Some(&json::Value::Null));
}

/// Reads `key` of a verdict record: `Some(None)` for `null`.
fn rank_field(record: &str, key: &str) -> Option<Option<u64>> {
    let v = json::parse(record).expect("verdict record parses");
    v.get(key).map(|r| r.as_u64())
}

/// A run capped before exploration ends issues no verdict and measures no
/// rank: the report says so instead of claiming convergence at rank 0.
#[test]
fn a_capped_run_reports_no_rank() {
    let report = check(&TwoClockModel::honest(4, 1), 3);
    assert!(!report.complete);
    assert!(report.violation.is_none());
    assert_eq!((report.max_rank, report.max_rank_beats), (None, None));
    let record = report.to_json();
    assert!(record.contains(r#""verdict":"incomplete""#), "{record}");
    assert_eq!(rank_field(&record, "max_rank"), Some(None));
    assert_eq!(rank_field(&record, "max_rank_beats"), Some(None));
}

/// Two states, `Out` and `In` (synced): the adversary can always move
/// between them, so `In` is reachable but never persistent.
struct Revolving;

impl Model for Revolving {
    type State = bool;
    fn name(&self) -> String {
        "revolving".into()
    }
    fn initial_states(&self) -> Vec<bool> {
        vec![false]
    }
    fn choices(&self, state: &bool) -> Vec<Choice<bool>> {
        vec![Choice {
            label: "flip".into(),
            common: vec![!state],
            adversarial: vec![],
        }]
    }
    fn is_synced(&self, state: &bool) -> bool {
        *state
    }
    fn bound_beats(&self) -> u32 {
        1
    }
    fn describe(&self, state: &bool) -> String {
        if *state { "In" } else { "Out" }.into()
    }
}

/// A closure violation returns before the rank game: no rank is reported.
#[test]
fn a_closure_violation_reports_no_rank() {
    let report = check(&Revolving, 16);
    assert!(report.complete);
    let v = report
        .violation
        .as_ref()
        .expect("In can be forced back out");
    assert_eq!(v.kind, ViolationKind::Closure);
    assert_eq!((report.max_rank, report.max_rank_beats), (None, None));
    assert_eq!(rank_field(&report.to_json(), "max_rank_beats"), Some(None));
}

/// The honest stack, same parameters, verifies clean — the dedup seam is
/// exactly what separates the two verdicts.
#[test]
fn honest_two_clock_verifies_where_broken_fails() {
    let report = check(&TwoClockModel::honest(4, 1), 1 << 20);
    assert!(report.verified(), "{:?}", report.violation);
    assert!(report.persistent_states >= 2); // all-0 and all-1 keep ticking
    let worst = report
        .max_rank_beats
        .expect("a verified run played the rank game");
    assert!(worst <= report.bound_beats);
}

/// Rebuilds a [`Trace`] from its JSON record, step tuples and all.
fn trace_from_json(line: &str) -> Trace {
    let v = json::parse(line).expect("trace record parses");
    let text = |v: &json::Value| v.as_str().expect("string field").to_string();
    let steps = v.get("steps").and_then(json::Value::as_arr).expect("steps");
    Trace {
        model: text(v.get("model").expect("model")),
        initial_state: text(v.get("initial_state").expect("initial_state")),
        steps: steps
            .iter()
            .map(|step| match step.as_arr().expect("step tuple") {
                [choice, outcome, label, adversarial, next] => TraceStep {
                    choice: choice.as_u64().expect("choice") as usize,
                    outcome: outcome.as_u64().expect("outcome") as usize,
                    choice_label: text(label),
                    adversarial_outcome: adversarial.as_bool().expect("adversarial"),
                    next_state: text(next),
                },
                other => panic!("step is not a 5-tuple: {other:?}"),
            })
            .collect(),
    }
}

/// Traces and verdicts are their own JSON records, and a parsed trace
/// record still replays exactly through the real core.
#[test]
fn trace_report_json_round_trips() {
    let model = TwoClockModel::broken(4, 1);
    let canary = check(&model, 1 << 20)
        .violation
        .expect("canary violation")
        .trace;
    // A multi-step walk through the same model, taking each menu's last
    // choice and last outcome (adversarial where one exists), so the
    // record carries real step tuples.
    let mut state = model.initial_states().swap_remove(0);
    let mut walk = Trace {
        model: model.name(),
        initial_state: model.describe(&state),
        steps: Vec::new(),
    };
    for _ in 0..3 {
        let menu = model.choices(&state);
        let choice = menu.len() - 1;
        let c = &menu[choice];
        let outcome = c.common.len() + c.adversarial.len() - 1;
        state = c
            .common
            .iter()
            .chain(&c.adversarial)
            .nth(outcome)
            .cloned()
            .unwrap();
        walk.steps.push(TraceStep {
            choice,
            outcome,
            choice_label: c.label.clone(),
            adversarial_outcome: outcome >= c.common.len(),
            next_state: model.describe(&state),
        });
    }
    for trace in [canary, walk] {
        let back = trace_from_json(&trace.to_json());
        assert_eq!(back, trace, "the record carries every field");
        assert_eq!(
            replay(&model, &back).expect("parsed trace replays"),
            replay(&model, &trace).expect("trace replays"),
            "same final state"
        );
    }
    // The verdict record reads as what it is.
    let verdict = check(&TwoClockModel::honest(4, 1), 1 << 20).to_json();
    let v = json::parse(&verdict).expect("verdict record parses");
    assert_eq!(
        v.get("verdict").and_then(json::Value::as_str),
        Some("verified")
    );
    assert_eq!(v.get("states").and_then(json::Value::as_u64), Some(10));
    assert!(v.get("violation").is_none());
}

/// The checker's own find (not a seeded bug): at `window = 1` every round
/// expires after a single beat, so the timeout-side rules (`jump_target`,
/// the rand-jump) fire before a quorum can ever accumulate. A Byzantine
/// node that plays fresh claims against a 2/1 round-split of the correct
/// nodes keeps `fresh_support > f` alive on whichever tag it needs, and
/// an adaptive choice of letters keeps the groups swapping rounds
/// forever, no matter the coin. The full exploration (`model-check
/// bd-clock --window=1`) reports this as *the* convergence violation; at
/// `window >= 2` the trap's fuel is gone (a round survives long enough
/// for the correct announcers alone to meet the quorum before any
/// timeout fires) and a 2M-state bounded sweep finds no violation.
///
/// The debug-mode test certifies the trap without the 300k-state
/// exploration: starting from the reported counterexample state it builds
/// a closed set `T` of unsynced states such that every member has an
/// adversary move whose **every** common-coin outcome stays in `T`. By
/// induction the adversary wins from anywhere in `T` under every coin
/// sequence — a hand-checkable certificate of non-convergence, driven
/// through the real `BdClock` core.
#[test]
fn window1_split_tag_trap_has_a_closed_winning_region() {
    let model = BdModel::new(1);
    let start = model
        .initial_states()
        .into_iter()
        .find(|s| {
            model.describe(s)
                == "n0(r0 w0 f00 [0,0,0,0])n1(r0 w0 f01 [0,0,0,0])\
                    n2(r2 w0 f01 [0,0,0,0]) if[0,0,0] ev[0000000000000000]"
        })
        .expect("the trap start is a corrupt image the model enumerates");
    let mut region = std::collections::BTreeSet::new();
    let mut work = vec![start];
    while let Some(state) = work.pop() {
        if !region.insert(state) {
            continue;
        }
        assert!(region.len() <= 64, "trap region should be small and closed");
        assert!(
            !model.is_synced(&state),
            "trap member must be unsynced: {}",
            model.describe(&state)
        );
        let menu = model.choices(&state);
        let trapping = menu
            .iter()
            .find(|c| c.common.iter().all(|o| !model.is_synced(o)))
            .unwrap_or_else(|| {
                panic!(
                    "every trap member needs an all-unsynced move: {}",
                    model.describe(&state)
                )
            });
        work.extend(trapping.common.iter().cloned());
    }
    // The region the greedy strategy certifies is the 9-state swap cycle.
    assert_eq!(region.len(), 9, "the certified winning region");
}

/// The CLI, the docs, and the checker agree on the model menu.
#[test]
fn model_names_cover_the_menu() {
    assert_eq!(MODEL_NAMES, ["two-clock", "clock-sync", "bd-clock"]);
}
