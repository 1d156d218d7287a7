//! The six pinned workloads: their spec lines as a pure function of the
//! seed, and the beat counts that shape a run.
//!
//! The seed is the benchmark's only input. It becomes the `seed=` field of
//! every generated spec line (and the offsets of `hostile-n13`'s fault
//! plan); the program sees spec lines only.

use byzclock_sim::derive_seed;

/// Every workload name, in reporting order.
pub const NAMES: [&str; 6] = [
    "full-n32",
    "committee-n256",
    "oracle-n256",
    "hostile-n13",
    "delay-n100",
    "grid-small",
];

/// One long exact-mode run of a single spec.
///
/// A run warms up for `warmup` beats (part of set-up), then executes
/// whole *laps* of `lap` beats until the measuring time is used up. Both
/// counts are pinned, so the reports after the warm-up and after the first
/// lap are pure functions of the seed: they carry the simulated counters
/// and the byte-identity checks, while the later laps only add timing
/// samples. A lap is a whole number of the workload's own cycles (the
/// four `clock-sync` blocks, one fault-plan period) so that laps do equal
/// work.
#[derive(Debug, Clone, Copy)]
pub struct Steady {
    /// The workload's name.
    pub name: &'static str,
    /// The spec line up to `seed=`; `faults=RECURRING` stands for
    /// [`recurring_faults`] of the seed.
    pub body: &'static str,
    /// Warm-up beats: the coin pipelines fill, the pools and decoder
    /// caches warm, and every clock workload converges (seeds 1–10 checked).
    pub warmup: u64,
    /// Beats per lap.
    pub lap: u64,
    /// Laps after the warm-up whose traffic makes the simulated counters;
    /// every run completes at least these. One lap is enough wherever a
    /// lap's traffic hardly depends on the seed.
    pub counted_laps: u64,
    /// `(n, f)` the coin's field kernels run at, for the isolated `field.*`
    /// timings; `None` where the workload never reaches `field`.
    pub field_shape: Option<(usize, usize)>,
}

/// The five steady workloads.
pub const STEADY: [Steady; 5] = [
    Steady {
        name: "full-n32",
        body: "clock-sync n=32 f=10 k=64 coin=ticket adv=silent faults=corrupt-start",
        warmup: 8,
        lap: 4,
        counted_laps: 1,
        field_shape: Some((32, 10)),
    },
    Steady {
        name: "committee-n256",
        body: "clock-sync n=256 f=85 k=8 coin=ticket committee=25 adv=silent \
               faults=corrupt-start",
        // One full rotation (⌈256/25⌉ = 11 beats) puts every node on a
        // committee once, which is what warms its workspace.
        warmup: 12,
        lap: 4,
        // A beat's bytes follow how many of its committees' members are
        // Byzantine (and silent), which is the seed's draw; up to the
        // epoch's end at beat 64 the window has slid over every node
        // five times and the draw has averaged out.
        counted_laps: 13,
        field_shape: Some((25, 8)),
    },
    Steady {
        name: "oracle-n256",
        body: "clock-sync n=256 f=85 k=64 coin=oracle adv=silent faults=corrupt-start",
        warmup: 100,
        lap: 100,
        counted_laps: 1,
        field_shape: None,
    },
    Steady {
        name: "hostile-n13",
        body: "coin-stream n=13 f=4 k=8 coin=ticket adv=recover-equivocator:3 faults=RECURRING \
               wire=packed-bytes",
        warmup: HOSTILE_WARMUP,
        lap: HOSTILE_PERIOD,
        counted_laps: 1,
        field_shape: Some((13, 4)),
    },
    Steady {
        name: "delay-n100",
        // A clean start: from scrambled memory this very spec never
        // converges on one seed in eight (9, 16, 22, 23, 26 of 1–40, budget
        // 2000) — a lead for the bounded-delay item of the ROADMAP, not a
        // load a benchmark can gate on. What is left is the clock's closure
        // under tag equivocation, and the same steady-state traffic.
        body: "bd-clock n=100 f=33 k=8 coin=oracle adv=equivocate faults=none delay=3",
        warmup: 300,
        lap: 250,
        counted_laps: 1,
        field_shape: None,
    },
];

const HOSTILE_WARMUP: u64 = 50;
/// Beats between two rounds of `hostile-n13`'s recurring faults.
const HOSTILE_PERIOD: u64 = 250;
/// Fault rounds written into the plan: 32 000 beats, several times what
/// the longest permitted run reaches.
const HOSTILE_ROUNDS: u64 = 128;

/// Looks a steady workload up by name.
pub fn steady(name: &str) -> Option<&'static Steady> {
    STEADY.iter().find(|w| w.name == name)
}

impl Steady {
    /// The workload's spec line for `seed`, with the given beat budget.
    pub fn spec_line(&self, seed: u64, budget: u64) -> String {
        let body = match self.body.split_once("RECURRING") {
            Some((head, tail)) => format!("{head}{}{tail}", recurring_faults(seed)),
            None => self.body.to_string(),
        };
        format!("{body} seed={seed} budget={budget}")
    }
}

/// `hostile-n13`'s fault plan: every [`HOSTILE_PERIOD`] beats, at a
/// seed-chosen offset, a scramble, then 500 phantoms, a 3-beat blackout
/// and a 3-node corruption at 60-beat spacing. Each lap after the warm-up
/// holds exactly one of each.
fn recurring_faults(seed: u64) -> String {
    let mut events = Vec::new();
    for round in 0..HOSTILE_ROUNDS {
        let b = HOSTILE_WARMUP + round * HOSTILE_PERIOD + derive_seed(seed, round) % 60;
        events.push(format!(
            "scramble@{b}+phantoms@{}:500+blackout@{}:3+corrupt@{}:0,1,2",
            b + 60,
            b + 120,
            b + 180
        ));
    }
    events.join("+")
}

/// Protocol family of a `grid-small` spec, for the per-family wall shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// GVSS-backed stacks (`coin=ticket` clocks and the coin stream).
    Coin,
    /// `clock-sync` over the oracle beacon.
    Oracle,
    /// `bd-clock`.
    BoundedDelay,
    /// The Table 1 baseline that converges reliably (`pk-clock`).
    Baselines,
}

/// `grid-small`'s templates; `N` and `F` stand for the cluster size and
/// its fault budget ⌊(N−1)/3⌋. The clock adversaries go wherever the family
/// accepts them, `silent` alone for `recursive` and the baseline.
///
/// Left out because they do not reliably converge from scrambled memory
/// within 3000 beats, and a benchmark needs workloads on which nothing
/// fails: `queen-clock` (3 of seeds 1–300 at n=4 f=1, 2 at n=13 f=4; 34 at
/// n=4 f=0, so staying inside its f < n/4 does not help), and `bd-clock
/// delay=2` under `random-vote` (about one run in 300) or `equivocate`
/// (about one in 1500) — so `bd-clock` meets its equivocator from a clean
/// start here, as `delay-n100` does.
const GRID_TEMPLATES: [(Family, &str); 17] = {
    use Family::{Baselines, BoundedDelay, Coin, Oracle};
    [
        (Coin, "clock-sync n=N f=F k=8 coin=ticket adv=silent faults=corrupt-start budget=3000"),
        (Coin, "clock-sync n=N f=F k=8 coin=ticket adv=random-vote faults=corrupt-start budget=3000"),
        (Coin, "clock-sync n=N f=F k=8 coin=ticket adv=equivocate faults=corrupt-start budget=3000"),
        (Coin, "clock-sync n=N f=F k=8 coin=ticket adv=split-vote faults=corrupt-start budget=3000"),
        (Coin, "two-clock n=N f=F k=8 coin=ticket adv=silent faults=corrupt-start budget=3000"),
        (Coin, "two-clock n=N f=F k=8 coin=ticket adv=random-vote faults=corrupt-start budget=3000"),
        (Coin, "two-clock n=N f=F k=8 coin=ticket adv=equivocate faults=corrupt-start budget=3000"),
        (Coin, "two-clock n=N f=F k=8 coin=ticket adv=split-vote faults=corrupt-start budget=3000"),
        (Coin, "recursive n=N f=F k=8 coin=ticket adv=silent faults=corrupt-start budget=3000"),
        (Oracle, "clock-sync n=N f=F k=8 coin=oracle adv=silent faults=corrupt-start+scramble@20 budget=3000"),
        (Oracle, "clock-sync n=N f=F k=8 coin=oracle adv=random-vote faults=corrupt-start+scramble@20 budget=3000"),
        (Oracle, "clock-sync n=N f=F k=8 coin=oracle adv=equivocate faults=corrupt-start+scramble@20 budget=3000"),
        (Oracle, "clock-sync n=N f=F k=8 coin=oracle adv=split-vote faults=corrupt-start+scramble@20 budget=3000"),
        (BoundedDelay, "bd-clock n=N f=F k=8 coin=oracle adv=silent faults=corrupt-start delay=2 budget=3000"),
        (BoundedDelay, "bd-clock n=N f=F k=8 coin=oracle adv=equivocate faults=none delay=2 budget=3000"),
        (Baselines, "pk-clock n=N f=F k=8 coin=none adv=silent faults=corrupt-start budget=3000"),
        (Coin, "coin-stream n=N f=F k=8 coin=ticket adv=coin-noise faults=none wire=packed budget=40"),
    ]
};

/// Cluster sizes every template runs at.
const GRID_SIZES: [usize; 3] = [4, 7, 13];

/// Specs in one `grid-small` cycle: every template once at every size.
pub const GRID_CYCLE: usize = GRID_TEMPLATES.len() * GRID_SIZES.len();

/// Cycles every `grid-small` run completes whatever the measuring time;
/// the simulated counters are taken over exactly these.
pub const GRID_PINNED_CYCLES: usize = 2;

/// The `index`-th spec line of `grid-small` for `seed` — a pure function
/// of both. The stream repeats its [`GRID_CYCLE`] specs with a fresh
/// derived `seed=` each time, so every cycle is the same mix of short
/// convergence-mode runs.
pub fn grid_spec(seed: u64, index: usize) -> (Family, String) {
    let slot = index % GRID_CYCLE;
    let n = GRID_SIZES[slot / GRID_TEMPLATES.len()];
    let (family, template) = GRID_TEMPLATES[slot % GRID_TEMPLATES.len()];
    let spec_seed = derive_seed(seed, index as u64) % 1_000_000;
    let line = template
        .replace("n=N", &format!("n={n}"))
        .replace("f=F", &format!("f={}", (n - 1) / 3))
        .replace(" budget=", &format!(" seed={spec_seed} budget="));
    (family, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock::scenario::ScenarioSpec;

    #[test]
    fn spec_lines_are_a_pure_function_of_the_seed_and_round_trip() {
        let mut lines: Vec<String> = (0..3 * GRID_CYCLE).map(|i| grid_spec(7, i).1).collect();
        lines.extend(STEADY.iter().map(|w| w.spec_line(7, w.warmup + w.lap)));
        let again: Vec<String> = (0..3 * GRID_CYCLE)
            .map(|i| grid_spec(7, i).1)
            .chain(STEADY.iter().map(|w| w.spec_line(7, w.warmup + w.lap)))
            .collect();
        assert_eq!(lines, again);
        for line in &lines {
            let spec = ScenarioSpec::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(ScenarioSpec::parse(&spec.to_string()).as_ref(), Ok(&spec));
        }
        // Another seed moves every `seed=` field, and nothing else.
        let other = grid_spec(8, 5).1;
        assert_ne!(other, grid_spec(7, 5).1);
        assert_eq!(
            other.split(" seed=").next(),
            grid_spec(7, 5).1.split(" seed=").next()
        );
        assert_ne!(
            STEADY[3].spec_line(7, 300),
            STEADY[3].spec_line(8, 300),
            "hostile-n13's fault offsets follow the seed"
        );
    }

    #[test]
    fn a_grid_cycle_holds_every_template_once() {
        let bodies: Vec<String> = (0..GRID_CYCLE)
            .map(|i| {
                grid_spec(1, i)
                    .1
                    .split(" seed=")
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let mut unique = bodies.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), GRID_CYCLE);
        assert_eq!(
            grid_spec(1, GRID_CYCLE).1.split(" seed=").next().unwrap(),
            bodies[0]
        );
    }

    #[test]
    fn hostile_laps_each_hold_one_round_of_faults() {
        let w = steady("hostile-n13").unwrap();
        let spec = ScenarioSpec::parse(&w.spec_line(3, 1000)).unwrap();
        for lap in 0..HOSTILE_ROUNDS {
            let (lo, hi) = (w.warmup + lap * w.lap, w.warmup + (lap + 1) * w.lap);
            let inside = spec
                .fault_plan
                .events
                .iter()
                .filter(|e| (lo..hi).contains(&e.beat))
                .count();
            assert_eq!(inside, 4, "lap {lap}");
        }
    }
}
