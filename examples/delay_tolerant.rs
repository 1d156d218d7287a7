//! Delay tolerance: the lockstep 2-clock against `bd-clock` under the
//! §6.3 semi-synchronous model, side by side.
//!
//! ```text
//! cargo run --release --example delay_tolerant
//! cargo run --release --example delay_tolerant -- 2      # fix the window
//! ```
//!
//! PR 2's `bounded_delay` example showed every lockstep protocol losing
//! its convergence once the delivery window reaches 2 beats. This example
//! shows the gap being closed: the same sweep, with the round-tagged
//! `bd-clock` (round-tag wheel) next to the `two-clock` it
//! replaces. Watch the `bd_quorum_ticks` / `bd_timeout_events` split —
//! once synced, every advancement is a quorum tick, which is why the
//! clock keeps the paper's one-tick-per-beat cadence under delay.

use byzclock::scenario::{Scenario, ScenarioSpec};

fn run_line(line: &str) -> (String, String) {
    let spec = ScenarioSpec::parse(line).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let report = Scenario::run(&spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let converged = report
        .beats_to_sync()
        .map_or("never".to_string(), |b| format!("{b} beats"));
    let extras = match (
        report.extra("bd_quorum_ticks"),
        report.extra("bd_timeout_events"),
        report.extra("bd_resets"),
    ) {
        (Some(q), Some(t), Some(r)) => format!("q={q:.0} t={t:.0} resets={r:.0}"),
        _ => "—".to_string(),
    };
    (converged, extras)
}

fn main() {
    let only: Option<u64> = std::env::args().nth(1).map(|a| {
        a.parse().unwrap_or_else(|_| {
            eprintln!("usage: delay_tolerant [window 0..=3]");
            std::process::exit(2);
        })
    });
    println!("n=7 f=2, perfect oracle coin, corrupted starts, seed 7\n");
    println!("delay | two-clock (lockstep-specified) | bd-clock (round-tagged) | bd advancement");
    println!("------|--------------------------------|-------------------------|----------------");
    for delay in 0..=3u64 {
        if only.is_some_and(|d| d != delay) {
            continue;
        }
        let suffix = if delay == 0 {
            String::new()
        } else {
            format!(" delay={delay}")
        };
        let (two, _) = run_line(&format!(
            "two-clock n=7 f=2 coin=oracle adv=silent faults=corrupt-start{suffix} \
             seed=7 budget=4000"
        ));
        let (bd, extras) = run_line(&format!(
            "bd-clock n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start{suffix} \
             seed=7 budget=4000"
        ));
        println!("{delay:>5} | {two:<30} | {bd:<23} | {extras}");
    }
    println!(
        "\nEvery cell is a spec line — rerun one with:\n  \
         cargo run --release -p byzclock-bench --bin experiments -- spec \\\n    \
         \"bd-clock n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 seed=7 budget=4000\""
    );
}
