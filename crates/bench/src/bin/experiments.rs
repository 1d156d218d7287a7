//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p byzclock-bench --bin experiments -- \
//!     [--jsonl] [--backend=threads[:N]|procs[:N]] [--manifest=FILE] \
//!     [t1|f1|f2|f3|f4|a1|a2|r1|s1|m1|m2|d1|d2|all]
//! cargo run --release -p byzclock-bench --bin experiments -- \
//!     [--jsonl] spec "<scenario line>" ["<scenario line>" ...]
//! cargo run --release -p byzclock-bench --bin experiments -- \
//!     [--jsonl] model-check [two-clock|clock-sync|bd-clock|all] \
//!     [--window=1|2] [--max-states=N]
//! cargo run --release -p byzclock-bench --bin experiments -- \
//!     worker [--exact]
//! ```
//!
//! The full reference for the subcommands, `--jsonl`, `--backend` /
//! `--manifest`, the `worker` mode, the environment knobs, and the
//! offline compat-stub story lives in one place: the `byzclock-bench`
//! crate docs (`crates/bench/src/lib.rs`), mirrored in ARCHITECTURE.md's
//! appendix. In short: every named grid builds its cells as a flat
//! `Vec<ScenarioSpec>` and runs them through one helper ([`Grid::run`],
//! over [`sweep_specs`]) — so every grid takes `--jsonl`, `--backend`
//! and `--manifest`, and each table cell is a replayable one-line spec
//! (pass one back with `spec` to rerun a single point). The grids report
//! deterministic counters only; wall-clock is `benchmark/`'s business.

use byzclock::coin::default_committee_size;
use byzclock::scenario::{
    default_registry, AdversarySpec, CoinSpec, FaultPlanSpec, MetricsSpec, ProtocolRegistry,
    RunReport, ScenarioSpec, WireSpec,
};
use byzclock_bench::shard::{worker_exact_requested, worker_loop};
use byzclock_bench::{
    default_threads, m2_max_n, md_table, power_law_exponent, sweep_specs, trials, Summary,
    SweepBackend, SweepOptions,
};
use std::path::{Path, PathBuf};

fn main() {
    let mut jsonl = false;
    let mut backend = SweepBackend::Threads(default_threads());
    let mut manifest: Option<PathBuf> = None;
    let mut args: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--jsonl" {
            jsonl = true;
        } else if let Some(v) = arg.strip_prefix("--backend=") {
            backend = SweepBackend::parse(v).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        } else if let Some(v) = arg.strip_prefix("--manifest=") {
            manifest = Some(PathBuf::from(v));
        } else {
            args.push(arg);
        }
    }
    let which = args.first().map(String::as_str).unwrap_or("all");
    if which == "worker" {
        // The worker half of the process-sharded sweep: spec lines on
        // stdin, one report-JSON line per spec on stdout (see the
        // `byzclock_bench::shard` module docs for the protocol).
        let exact = worker_exact_requested(&args[1..]);
        let registry = default_registry();
        if let Err(e) = worker_loop(
            &registry,
            exact,
            std::io::stdin().lock(),
            std::io::stdout().lock(),
        ) {
            eprintln!("worker i/o error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if which == "spec" {
        run_spec_lines(&args[1..]);
        return;
    }
    if which == "model-check" {
        run_model_check(&args[1..], jsonl);
        return;
    }
    let run_all = which == "all";
    if !jsonl {
        println!("# byzclock experiments — PODC'08 reproduction\n");
        println!(
            "(trials scale: BYZCLOCK_TRIALS={}, threads: {}; every cell is a scenario spec)\n",
            trials(1),
            default_threads()
        );
    }
    let registry = default_registry();
    let grid = Grid {
        registry: &registry,
        jsonl,
        backend,
        manifest: manifest.as_deref(),
    };
    // `all` stays interactive: the full curve's n=128/256 GVSS cells are
    // minutes each and belong to an explicit `m2` invocation (which runs
    // to n=512 — the committee column carries the tail, so the default cap
    // costs seconds, not hours).
    let m2 = |grid: Grid<'_>| m2_scaling_grid(grid, if run_all { 64 } else { 512 });
    type Run<'a> = &'a dyn Fn(Grid<'_>);
    let grids: [(&str, Run<'_>); 13] = [
        ("t1", &t1_table_1),
        ("f1", &f1_coin_contract),
        ("f2", &f2_two_clock_contract),
        ("f3", &f3_four_clock_contract),
        ("f4", &f4_k_clock_contract),
        ("a1", &a1_broken_rand_ablation),
        ("a2", &a2_shared_pipeline_ablation),
        ("r1", &r1_resiliency_boundary),
        ("s1", &s1_self_stabilization),
        ("m1", &m1_message_complexity),
        ("m2", &m2),
        ("d1", &d1_bounded_delay_grid),
        ("d2", &d2_delay_tolerance_grid),
    ];
    for (name, run) in grids {
        if run_all || which == name {
            run(grid);
        }
    }
}

/// The one way this binary runs more than one spec: the registry, output
/// format, execution backend and manifest every named grid shares.
#[derive(Clone, Copy)]
struct Grid<'a> {
    registry: &'a ProtocolRegistry,
    jsonl: bool,
    backend: SweepBackend,
    manifest: Option<&'a Path>,
}

impl Grid<'_> {
    /// Runs one flat sweep — converge mode, or with `exact` every spec's
    /// full beat budget — and returns the reports in spec order. Under
    /// `--jsonl` each report is also dumped as one JSON line, and the
    /// caller returns instead of rendering. A failed spec ends the
    /// process: a missing grid point must not masquerade as a complete
    /// archive or table.
    fn run(&self, specs: &[ScenarioSpec], exact: bool) -> Vec<RunReport> {
        let opts = SweepOptions {
            manifest: self.manifest.map(Path::to_path_buf),
            exact,
            ..SweepOptions::default()
        };
        sweep_specs(self.registry, specs, self.backend, &opts)
            .into_iter()
            .zip(specs)
            .map(|(result, spec)| {
                let report = result.unwrap_or_else(|e| {
                    eprintln!("spec `{spec}` failed: {e}");
                    std::process::exit(1);
                });
                if self.jsonl {
                    println!("{}", report.to_json());
                }
                report
            })
            .collect()
    }

    /// Converge-mode cells: each `(spec, ntrials)` cell runs as `ntrials`
    /// seeded copies of its spec (seed = trial index), all cells in one
    /// flat seed-ordered sweep. Returns one report chunk per cell, in
    /// cell order.
    fn converge(&self, cells: &[(ScenarioSpec, u64)]) -> Vec<Vec<RunReport>> {
        let specs: Vec<ScenarioSpec> = cells
            .iter()
            .flat_map(|(spec, ntrials)| (0..*ntrials).map(|seed| spec.clone().with_seed(seed)))
            .collect();
        let mut reports = self.run(&specs, false).into_iter();
        cells
            .iter()
            .map(|(_, ntrials)| reports.by_ref().take(*ntrials as usize).collect())
            .collect()
    }

    /// Exact-mode cells: one full-budget (steady-state) report per spec.
    fn exact(&self, specs: &[ScenarioSpec]) -> Vec<RunReport> {
        self.run(specs, true)
    }
}

/// One converge-mode cell as table text: mean beats to stable sync (p95)
/// over its trials, with the timeout annotation.
fn beats_cell(cell: &[RunReport], horizon: u64) -> String {
    let samples: Vec<Option<u64>> = cell.iter().map(RunReport::beats_to_sync).collect();
    Summary::of(&samples).cell(horizon)
}

/// `experiments spec "<line>" [...]`: run each scenario line and dump one
/// report-JSON line per spec (inherently `--jsonl`-shaped output).
fn run_spec_lines(lines: &[String]) {
    if lines.is_empty() {
        eprintln!("usage: experiments [--jsonl] spec \"<scenario line>\" [\"<line>\" ...]");
        eprintln!("example: experiments spec \"clock-sync n=7 f=2 k=64 coin=ticket delay=2\"");
        std::process::exit(2);
    }
    let registry = default_registry();
    for line in lines {
        let spec = match ScenarioSpec::parse(line) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        match registry.run(&spec) {
            Ok(report) => println!("{}", report.to_json()),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}

/// Exhaustive small-model checking (crate `byzclock-mcheck`): machine-
/// verifies closure and convergence of the real protocol cores at tiny
/// parameters and prints one verdict line per model (two for
/// `clock-sync`: the layer-A 4-clock and the layer-B top layer).
/// `bd-clock` checks window 2 — the bounded-delay operating regime — by
/// default; `--window=1` opts into the degenerate every-beat-expires
/// configuration whose split-tag convergence trap the checker
/// documented (see ARCHITECTURE.md's model-checking seam). Exits
/// nonzero on any violation; an exploration truncated by `--max-states`
/// reports INCOMPLETE but does not fail (CI smokes under a state cap
/// and separately enforces recorded state-count floors). With `--jsonl`,
/// each verdict is one `CheckReport::to_json` record (violations emit a
/// second record, `Trace::to_json`, carrying the minimal counterexample).
fn run_model_check(rest: &[String], jsonl: bool) {
    use byzclock::mcheck::{
        check, BdModel, CheckReport, FourClockModel, TopLayerModel, TwoClockModel, MODEL_NAMES,
    };

    let usage = || -> ! {
        eprintln!(
            "usage: experiments [--jsonl] model-check [{}|all] [--window=1|2] [--max-states=N]",
            MODEL_NAMES.join("|")
        );
        std::process::exit(2);
    };
    let mut target: Option<String> = None;
    let mut max_states: Option<usize> = None;
    let mut window: Option<u64> = None;
    for arg in rest {
        if let Some(v) = arg.strip_prefix("--max-states=") {
            max_states = Some(v.parse().unwrap_or_else(|_| usage()));
        } else if let Some(v) = arg.strip_prefix("--window=") {
            window = match v.parse() {
                Ok(w @ 1..=2) => Some(w),
                _ => usage(),
            };
        } else if target.is_none() && (MODEL_NAMES.contains(&arg.as_str()) || arg == "all") {
            target = Some(arg.clone());
        } else {
            usage();
        }
    }
    let target = target.unwrap_or_else(|| "all".to_string());
    let wants = |name: &str| target == name || target == "all";
    // Default caps: every menu that completes does so well under 2^19
    // states (bd-clock window=1 fully explores at 304,303). The bd-clock
    // window=2 space exceeds 2M canonical states — its default run is a
    // ~30s capped sweep; raise --max-states (and budget tens of GB) to
    // push the frontier.
    let lockstep_cap = max_states.unwrap_or(1 << 19);
    let bd_cap = max_states.unwrap_or(if window == Some(1) { 1 << 19 } else { 1 << 17 });

    let mut violated = false;
    let mut show = |report: CheckReport| {
        if jsonl {
            println!("{}", report.to_json());
            if let Some(v) = &report.violation {
                println!("{}", v.trace.to_json());
            }
        } else {
            let verdict = if report.verified() {
                "verified".to_string()
            } else if let Some(v) = &report.violation {
                format!("VIOLATION({})", v.kind)
            } else {
                "INCOMPLETE (raise --max-states)".to_string()
            };
            // `-` when the rank game never ran: no rank was measured.
            let worst = match report.max_rank_beats {
                None => "-".to_string(),
                Some(byzclock::mcheck::RANK_INF) => "infb".to_string(),
                Some(beats) => format!("{beats}b"),
            };
            println!(
                "{}: {} states={} edges={} synced={} persistent={} worst={} bound={}b",
                report.model,
                verdict,
                report.states,
                report.edges,
                report.synced_states,
                report.persistent_states,
                worst,
                report.bound_beats
            );
            if let Some(v) = &report.violation {
                println!("  {}", v.detail);
                for line in v.trace.to_string().lines() {
                    println!("  {line}");
                }
            }
        }
        violated |= report.violation.is_some();
    };
    if wants("two-clock") {
        show(check(&TwoClockModel::honest(4, 1), lockstep_cap));
    }
    if wants("clock-sync") {
        show(check(&FourClockModel::new(), lockstep_cap));
        show(check(&TopLayerModel::new(), lockstep_cap));
    }
    if wants("bd-clock") {
        show(check(&BdModel::new(window.unwrap_or(2)), bd_cap));
    }
    if violated {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// T1: Table 1
// ---------------------------------------------------------------------------

fn t1_table_1(grid: Grid<'_>) {
    struct Row {
        label: &'static str,
        protocol: &'static str,
        coin: CoinSpec,
        f_of: fn(usize) -> usize,
        horizon: u64,
        ntrials: u64,
    }
    let spec_rows = [
        Row {
            label: "[10] probabilistic, local coins (O(2^{2(n-f)}))",
            protocol: "dw-clock",
            coin: CoinSpec::Local,
            f_of: |n| (n - 1) / 3,
            horizon: 300_000,
            ntrials: trials(10).min(10),
        },
        Row {
            label: "[15] deterministic queen (O(f), f<n/4)",
            protocol: "queen-clock",
            coin: CoinSpec::None,
            f_of: |n| (n - 1) / 4,
            horizon: 5_000,
            ntrials: trials(20),
        },
        Row {
            label: "[7] deterministic phase-king (O(f), f<n/3)",
            protocol: "pk-clock",
            coin: CoinSpec::None,
            f_of: |n| (n - 1) / 3,
            horizon: 5_000,
            ntrials: trials(20),
        },
        Row {
            label: "**current** ss-Byz-Clock-Sync (expected O(1), f<n/3)",
            protocol: "clock-sync",
            coin: CoinSpec::Ticket,
            f_of: |n| (n - 1) / 3,
            horizon: 5_000,
            ntrials: trials(20),
        },
    ];
    let ns = [4usize, 7, 10, 13];

    // One flat grid, row-major; a cluster too small to carry a fault
    // (f = 0) has no cell.
    let mut cells = Vec::new();
    for row in &spec_rows {
        for &n in &ns {
            let f = (row.f_of)(n);
            if f > 0 {
                let spec = ScenarioSpec::new(row.protocol, n, f)
                    .with_coin(row.coin)
                    .with_faults(FaultPlanSpec::corrupt_start())
                    .with_budget(row.horizon);
                cells.push((spec, row.ntrials));
            }
        }
    }
    let mut chunks = grid.converge(&cells).into_iter();
    if grid.jsonl {
        return;
    }

    println!("## T1 — Table 1: convergence beats (measured) by algorithm and n\n");
    println!(
        "k = 8; f = ⌊(n−1)/3⌋ (⌊(n−1)/4⌋ for [15]-queen); corrupted starts; silent\n\
         Byzantine nodes (adversarial stress is measured in R1/A1). Cells:\n\
         mean beats (p95) over trials.\n"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for row in &spec_rows {
        let mut cells = vec![row.label.to_string()];
        for &n in &ns {
            cells.push(if (row.f_of)(n) == 0 {
                "f=0 (n too small)".to_string()
            } else {
                beats_cell(&chunks.next().expect("grid shape"), row.horizon)
            });
        }
        rows.push(cells);
    }

    let headers: Vec<String> = std::iter::once("algorithm".to_string())
        .chain(ns.iter().map(|n| format!("n={n}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", md_table(&headers_ref, &rows));
    println!(
        "Semi-synchronous rows of Table 1 (analytic, different network model —\n\
         bounded-delay is this paper's future work, §6.3):\n\
         [10] semi-sync probabilistic: O(n^(6(n-f))), f<n/3;\n\
         [6,5] semi-sync deterministic: O(f), f<n/3.\n"
    );
}

// ---------------------------------------------------------------------------
// F1: Fig. 1 contract — the pipelined coin
// ---------------------------------------------------------------------------

fn f1_coin_contract(grid: Grid<'_>) {
    let beats = 40 * trials(1).clamp(1, 10);
    let columns: [(&str, CoinSpec, AdversarySpec); 5] = [
        ("ticket / silent", CoinSpec::Ticket, AdversarySpec::Silent),
        (
            "ticket / noise",
            CoinSpec::Ticket,
            AdversarySpec::CoinNoise { depth: 4 },
        ),
        (
            "ticket / bad dealer",
            CoinSpec::Ticket,
            AdversarySpec::InconsistentDealer,
        ),
        (
            "ticket / recover-equiv",
            CoinSpec::Ticket,
            AdversarySpec::RecoverEquivocator { slot: 3 },
        ),
        (
            "XOR / recover-equiv",
            CoinSpec::Xor,
            AdversarySpec::RecoverEquivocator { slot: 3 },
        ),
    ];
    let ns = [4usize, 7, 10];
    // One flat grid, row-major; every cell is one full-budget run.
    let mut specs = Vec::new();
    for &n in &ns {
        for (_, coin, adversary) in &columns {
            let spec = ScenarioSpec::new("coin-stream", n, (n - 1) / 3)
                .with_coin(*coin)
                .with_adversary(*adversary)
                .with_faults(FaultPlanSpec::none())
                .with_metrics(MetricsSpec::Decode)
                .with_seed(specs.len() as u64 + 1)
                .with_budget(beats);
            specs.push(spec);
        }
    }
    let reports = grid.exact(&specs);
    if grid.jsonl {
        return;
    }

    println!("## F1 — Fig. 1 contract: ss-Byz-Coin-Flip quality (p0 / p1 / safe-beat rate)\n");
    let mut rows = Vec::new();
    for (&n, row) in ns.iter().zip(reports.chunks(columns.len())) {
        let mut cells = vec![format!("n={n}, f={}", (n - 1) / 3)];
        for report in row {
            cells.push(format!(
                "p0={:.2} p1={:.2} agree={:.2} b\u{304}={:.0}",
                report.extra("p0").unwrap_or(f64::NAN),
                report.extra("p1").unwrap_or(f64::NAN),
                report.extra("agreement_rate").unwrap_or(f64::NAN),
                report.extra("decode_mean_batch").unwrap_or(f64::NAN),
            ));
        }
        rows.push(cells);
    }
    let headers: Vec<&str> = std::iter::once("cluster")
        .chain(columns.iter().map(|(h, _, _)| *h))
        .collect();
    println!("{}", md_table(&headers, &rows));
    println!(
        "Contract: p0 and p1 are bounded away from 0 under every adversary\n\
         (Def. 2.6/2.7); honest ticket-coin frequencies follow the FM lottery\n\
         (p0 ~ 1-(1-1/n)^n, p1 ~ (1-1/n)^n). b\u{304} is the mean recover-round\n\
         decode batch size (codewords per factored elimination, via\n\
         metrics=decode).\n"
    );
}

// ---------------------------------------------------------------------------
// F2: Fig. 2 contract — 2-clock convergence law and tail
// ---------------------------------------------------------------------------

fn f2_two_clock_contract(grid: Grid<'_>) {
    let horizon = 20_000u64;
    let c1s = [1.0f64, 0.8, 0.5, 0.3];
    let two_clock = |coin: CoinSpec, budget: u64| {
        ScenarioSpec::new("two-clock", 7, 2)
            .with_coin(coin)
            .with_adversary(AdversarySpec::SplitVote)
            .with_faults(FaultPlanSpec::corrupt_start())
            .with_budget(budget)
    };
    // One cell per coin quality, then the tail cell (Remark 3.2).
    let mut cells: Vec<(ScenarioSpec, u64)> = c1s
        .iter()
        .map(|&c1| {
            let coin = CoinSpec::oracle(c1 / 2.0, c1 / 2.0);
            (two_clock(coin, horizon), trials(60))
        })
        .collect();
    cells.push((two_clock(CoinSpec::perfect_oracle(), 2_000), trials(400)));
    let chunks = grid.converge(&cells);
    if grid.jsonl {
        return;
    }

    println!("## F2 — Fig. 2 contract: ss-Byz-2-Clock convergence vs coin quality\n");
    println!(
        "n=7, f=2, splitter adversary, oracle coin with P[safe beat] = c1\n\
         (split beats are adversarial). Theorem 2 predicts expected beats\n\
         = O(1/(c2*c1^2)) with c2 = min(p0,p1) = c1/2.\n"
    );
    let mut rows = Vec::new();
    for (&c1, chunk) in c1s.iter().zip(&chunks) {
        let analytic = 1.0 / ((c1 / 2.0) * c1 * c1);
        rows.push(vec![
            format!("{c1:.1}"),
            beats_cell(chunk, horizon),
            format!("{analytic:.1}"),
        ]);
    }
    println!(
        "{}",
        md_table(
            &[
                "c1 = p0+p1",
                "measured beats mean (p95)",
                "analytic 1/(c2*c1^2)"
            ],
            &rows
        )
    );

    // Geometric tail (Remark 3.2): P[T > l] decays exponentially.
    println!("Tail of the convergence time (perfect coin, splitter adversary):\n");
    let tail = &chunks[c1s.len()];
    let total = tail.len() as f64;
    let mut rows = Vec::new();
    for l in [2u64, 4, 8, 16, 32, 64] {
        let exceed = tail
            .iter()
            .filter(|r| r.beats_to_sync().is_none_or(|t| t > l))
            .count();
        rows.push(vec![
            format!("{l}"),
            format!("{:.3}", exceed as f64 / total),
        ]);
    }
    println!("{}", md_table(&["l (beats)", "P[T > l]"], &rows));
}

// ---------------------------------------------------------------------------
// F3: Fig. 3 contract — 4-clock
// ---------------------------------------------------------------------------

fn f3_four_clock_contract(grid: Grid<'_>) {
    let horizon = 3_000u64;
    let spec = ScenarioSpec::new("four-clock", 7, 2)
        .with_coin(CoinSpec::Ticket)
        .with_faults(FaultPlanSpec::corrupt_start())
        .with_budget(horizon);
    let chunks = grid.converge(&[(spec.clone(), trials(30))]);
    if grid.jsonl {
        return;
    }

    println!("## F3 — Fig. 3 contract: ss-Byz-4-Clock (GVSS ticket coin)\n");
    println!(
        "convergence (n=7, f=2): {}\n",
        beats_cell(&chunks[0], horizon)
    );

    // A2 step ratio after convergence (Theorem 3's every-other-beat gate):
    // drive the same spec to convergence, then 200 more beats, comparing
    // the gate metric the family reports through the extras. A single
    // stepped run, not a grid cell — the one direct `registry.start`.
    let probe = spec.with_seed(5).with_faults(FaultPlanSpec::none());
    let mut run = grid
        .registry
        .start(&probe)
        .expect("four-clock spec resolves");
    let at_sync = byzclock::scenario::drive(run.as_mut(), &probe, 8);
    let before = at_sync.extra("a2_step_ratio").unwrap_or(f64::NAN);
    for _ in 0..200 {
        run.step();
    }
    let after = run
        .extras()
        .iter()
        .find(|(n, _)| n == "a2_step_ratio")
        .map_or(f64::NAN, |&(_, v)| v);
    println!(
        "A2 step ratio drifts to 1/2 after convergence: at convergence {before:.3}, +200 beats {after:.3}\n",
    );
}

// ---------------------------------------------------------------------------
// F4: Fig. 4 contract — k-independence
// ---------------------------------------------------------------------------

fn f4_k_clock_contract(grid: Grid<'_>) {
    let ntrials = trials(30);
    let ks = [4u64, 16, 64, 256, 1024];
    // (protocol, coin, horizon, trials) — three cells per k, in column
    // order.
    let columns = [
        ("clock-sync", CoinSpec::perfect_oracle(), 5_000u64, ntrials),
        ("recursive", CoinSpec::perfect_oracle(), 20_000, ntrials),
        ("dw-clock", CoinSpec::Local, 300_000, ntrials.min(10)),
    ];
    let mut cells = Vec::new();
    for &k in &ks {
        for &(protocol, coin, horizon, ntrials) in &columns {
            let spec = ScenarioSpec::new(protocol, 7, 2)
                .with_modulus(k)
                .with_coin(coin)
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon);
            cells.push((spec, ntrials));
        }
    }
    let chunks = grid.converge(&cells);
    if grid.jsonl {
        return;
    }

    println!("## F4 — Fig. 4 contract: convergence vs k (n=7, f=2)\n");
    println!(
        "ss-Byz-Clock-Sync is flat in k (Theorem 4); the paragraph-5\n\
         recursive doubling grows with log k; Dolev–Welch blows up with k.\n\
         Oracle coins isolate k-scaling from coin cost; DW uses local coins.\n"
    );
    let mut rows = Vec::new();
    for (&k, row) in ks.iter().zip(chunks.chunks(columns.len())) {
        let levels = (k as f64).log2().ceil() as usize;
        let [cs, rec, dw] = [0, 1, 2].map(|c| beats_cell(&row[c], columns[c].2));
        rows.push(vec![
            format!("{k}"),
            cs,
            format!("{rec} (levels={levels})"),
            dw,
        ]);
    }
    println!(
        "{}",
        md_table(
            &[
                "k",
                "ss-Byz-Clock-Sync",
                "sec. 5 recursive doubling",
                "Dolev–Welch local-coin"
            ],
            &rows
        )
    );
}

// ---------------------------------------------------------------------------
// A1: Remark 3.1 ablation
// ---------------------------------------------------------------------------

fn a1_broken_rand_ablation(grid: Grid<'_>) {
    let horizon = 5_000u64;
    let variants = [
        ("ss-Byz-2-Clock (correct)", "two-clock"),
        ("broken variant (Remark 3.1)", "broken-two-clock"),
    ];
    let cells = variants.map(|(_, protocol)| {
        let spec = ScenarioSpec::new(protocol, 7, 2)
            .with_coin(CoinSpec::perfect_oracle())
            .with_adversary(AdversarySpec::RandAwareSplitter)
            .with_faults(FaultPlanSpec::corrupt_start())
            .with_budget(horizon);
        (spec, trials(60))
    });
    let chunks = grid.converge(&cells);
    if grid.jsonl {
        return;
    }

    println!("## A1 — Remark 3.1 ablation: sender-side substitution is exploitable\n");
    println!(
        "Both clocks run over a perfect beacon; the adversary holds a beacon\n\
         handle (= rushing knowledge of the coin). The correct 2-clock\n\
         shrugs it off; the broken variant (senders substitute *yesterday's*\n\
         bit) lets the adversary steer vote counts with full knowledge.\n"
    );
    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&chunks)
        .map(|((label, _), chunk)| vec![label.to_string(), beats_cell(chunk, horizon)])
        .collect();
    println!(
        "{}",
        md_table(&["protocol", "convergence beats (n=7, f=2)"], &rows)
    );
}

// ---------------------------------------------------------------------------
// A2: Remark 4.1 ablation — shared coin pipeline
// ---------------------------------------------------------------------------

fn a2_shared_pipeline_ablation(grid: Grid<'_>) {
    let horizon = 3_000u64;
    let variants = [
        ("two pipelines (paper)", "four-clock"),
        ("shared pipeline (Remark 4.1)", "shared-four-clock"),
    ];
    let ticket = |protocol: &str| ScenarioSpec::new(protocol, 7, 2).with_coin(CoinSpec::Ticket);
    let converge = variants.map(|(_, protocol)| {
        let spec = ticket(protocol)
            .with_faults(FaultPlanSpec::corrupt_start())
            .with_budget(horizon);
        (spec, trials(20))
    });
    // Traffic: steady state over exactly 100 beats, clean boot.
    let traffic = variants.map(|(_, protocol)| {
        ticket(protocol)
            .with_faults(FaultPlanSpec::none())
            .with_seed(1)
            .with_budget(100)
    });
    let chunks = grid.converge(&converge);
    let steady = grid.exact(&traffic);
    if grid.jsonl {
        return;
    }

    println!("## A2 — Remark 4.1 ablation: per-sub-clock pipelines vs one shared pipeline\n");
    let mut rows = Vec::new();
    for (((label, _), chunk), report) in variants.iter().zip(&chunks).zip(&steady) {
        let t = &report.traffic;
        rows.push(vec![
            label.to_string(),
            beats_cell(chunk, horizon),
            format!("{:.0}", t.mean_correct_msgs_per_beat),
            format!("{:.0}", t.mean_correct_bytes_per_beat),
        ]);
    }
    println!(
        "{}",
        md_table(
            &["variant", "convergence beats", "msgs/beat", "bytes/beat"],
            &rows
        )
    );
}

// ---------------------------------------------------------------------------
// R1: resiliency boundary
// ---------------------------------------------------------------------------

fn r1_resiliency_boundary(grid: Grid<'_>) {
    let ntrials = trials(20);
    let horizon = 2_000u64;
    let cs_spec = |n: usize, f: usize| {
        ScenarioSpec::new("clock-sync", n, f)
            .with_modulus(8)
            .with_coin(CoinSpec::perfect_oracle())
            .with_adversary(AdversarySpec::SplitVote)
            .with_faults(FaultPlanSpec::corrupt_start())
            .with_budget(horizon)
    };
    // Queen clock under an equivocating Byzantine queen, within budget.
    let queen_spec = ScenarioSpec::new("queen-clock", 5, 1)
        .with_modulus(8)
        .with_coin(CoinSpec::None)
        .with_adversary(AdversarySpec::BaEquivocator { mixed_bits: false })
        .with_byzantine([0])
        .with_faults(FaultPlanSpec::corrupt_start())
        .with_budget(horizon);
    let configurations = [
        (
            "ss-Byz-Clock-Sync n=7, f=2 + splitter (legal)", // 2 < 7/3
            cs_spec(7, 2),
        ),
        (
            "ss-Byz-Clock-Sync n=6, f=2 + splitter (f = n/3)", // 2 = 6/3
            cs_spec(6, 2),
        ),
        (
            "queen clock n=5, f=1 + equivocating queen (legal)",
            queen_spec,
        ),
    ];
    let cells = configurations.clone().map(|(_, spec)| (spec, ntrials));
    let chunks = grid.converge(&cells);
    if grid.jsonl {
        return;
    }

    println!("## R1 — resiliency boundary (f < n/3 optimality; f < n/4 for the queen)\n");
    let rows: Vec<Vec<String>> = configurations
        .iter()
        .zip(&chunks)
        .map(|((label, _), chunk)| {
            let ok = chunk.iter().filter(|r| r.beats_to_sync().is_some()).count();
            vec![label.to_string(), format!("{ok}/{} converged", chunk.len())]
        })
        .collect();
    println!(
        "{}",
        md_table(&["configuration", "success within horizon"], &rows)
    );
    println!(
        "Queen boundary (f = n/4): in the *clock*, consensus validity shields an\n\
         already-unanimous steady state, so the violation shows up in one-shot\n\
         agreement from mixed inputs: the deterministic schedule in\n\
         `byzclock-baselines::consensus` test `queen_agreement_breaks_at_n_equals_4f...`\n\
         splits the queen protocol's outputs [0, 1, 1] at n=4, f=1 while the\n\
         phase-king protocol (n > 3f) stays in agreement under the same lies.\n"
    );
}

// ---------------------------------------------------------------------------
// S1: self-stabilization
// ---------------------------------------------------------------------------

fn s1_self_stabilization(grid: Grid<'_>) {
    let ntrials = trials(30);
    let horizon = 3_000u64;
    let base = ScenarioSpec::new("clock-sync", 7, 2)
        .with_modulus(64)
        .with_coin(CoinSpec::Ticket);
    let scenarios = [
        (
            "fresh start (corrupted init)",
            base.clone()
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
        // beats_to_sync counts from the end of the beat-60 storm
        // automatically.
        (
            "post-fault recovery (beats after fault)",
            base.with_faults(FaultPlanSpec::storm(60, 100))
                .with_budget(61 + horizon),
        ),
    ];
    let cells = scenarios.clone().map(|(_, spec)| (spec, ntrials));
    let chunks = grid.converge(&cells);
    if grid.jsonl {
        return;
    }

    println!("## S1 — self-stabilization: recovery after transient memory corruption\n");
    println!(
        "Full GVSS stack (n=7, f=2, k=64). At beat 60: every correct node's\n\
         memory is scrambled and 100 phantom messages are replayed. Recovery\n\
         time is measured from the fault and compared with a fresh start.\n"
    );
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .zip(&chunks)
        .map(|((label, _), chunk)| vec![label.to_string(), beats_cell(chunk, horizon)])
        .collect();
    println!("{}", md_table(&["scenario", "beats to stable sync"], &rows));
}

// ---------------------------------------------------------------------------
// M1: message complexity
// ---------------------------------------------------------------------------

fn m1_message_complexity(grid: Grid<'_>) {
    let columns: [(&str, &str, CoinSpec); 4] = [
        ("ClockSync (GVSS ticket)", "clock-sync", CoinSpec::Ticket),
        ("Recursive x6 levels", "recursive", CoinSpec::Ticket),
        ("PkClock (O(f) pipeline)", "pk-clock", CoinSpec::None),
        ("DwClock", "dw-clock", CoinSpec::Local),
    ];
    // One flat grid in cell order — per n, per column: the fixed-wire
    // spec then its packed-wire twin. Every cell is a full-budget
    // (steady-state) run.
    let ns = [4usize, 7, 10, 13];
    let mut specs = Vec::new();
    for &n in &ns {
        let f = (n - 1) / 3;
        for (_, protocol, coin) in &columns {
            let spec = ScenarioSpec::new(*protocol, n, f)
                .with_modulus(64)
                .with_coin(*coin)
                .with_faults(FaultPlanSpec::none())
                .with_seed(1)
                .with_budget(50);
            specs.push(spec.clone());
            specs.push(spec.with_wire(WireSpec::Packed));
        }
    }
    let reports = grid.exact(&specs);
    if grid.jsonl {
        return;
    }

    println!("## M1 — message complexity per beat (correct senders, k = 64)\n");
    println!(
        "Cells: msgs / fixed-wire bytes / packed-wire bytes (packed gain).\n\
         The packed format prices field elements at their minimal width and\n\
         presence vectors as bitsets (`wire=packed`); message counts and\n\
         protocol behavior are identical between the two encodings.\n"
    );
    let mut rows = Vec::new();
    let mut cells_iter = reports.chunks(2);
    for &n in &ns {
        let f = (n - 1) / 3;
        let mut cells = vec![format!("n={n}, f={f}")];
        for _ in &columns {
            let pair = cells_iter.next().expect("grid shape");
            let [fixed, packed] = [&pair[0].traffic, &pair[1].traffic];
            cells.push(format!(
                "{:.0} / {:.0} / {:.0} ({:.1}x)",
                fixed.mean_correct_msgs_per_beat,
                fixed.mean_correct_bytes_per_beat,
                packed.mean_correct_bytes_per_beat,
                fixed.mean_correct_bytes_per_beat / packed.mean_correct_bytes_per_beat
            ));
        }
        rows.push(cells);
    }
    let headers: Vec<&str> = std::iter::once("cluster")
        .chain(columns.iter().map(|(h, _, _)| *h))
        .collect();
    println!("{}", md_table(&headers, &rows));
    println!(
        "Shape check: ClockSync's overhead over the 4-clock is a constant\n\
         (one extra broadcast + one coin pipeline); the recursive clock pays\n\
         log k pipelines; PkClock pays an O(f)-deep pipeline. The packed\n\
         gain concentrates where the GVSS matrices are (ticket columns) —\n\
         the scalar-message baselines barely move.\n"
    );
}

// ---------------------------------------------------------------------------
// M2: traffic × n scaling curve
// ---------------------------------------------------------------------------

fn m2_scaling_grid(grid: Grid<'_>, default_cap: usize) {
    // (header, protocol, coin, committee-subsampled?) — the committee
    // column runs the same clock-sync protocol over the subsampled coin
    // (`committee=default_committee_size(n)`), so the gap to the full
    // GVSS column is exactly the price of dealing to everyone.
    let columns: [(&str, &str, CoinSpec, bool); 4] = [
        (
            "ClockSync (GVSS ticket)",
            "clock-sync",
            CoinSpec::Ticket,
            false,
        ),
        (
            "ClockSync (committee ticket)",
            "clock-sync",
            CoinSpec::Ticket,
            true,
        ),
        (
            "Coin stream (GVSS ticket)",
            "coin-stream",
            CoinSpec::Ticket,
            false,
        ),
        (
            "ClockSync (oracle coin)",
            "clock-sync",
            CoinSpec::perfect_oracle(),
            false,
        ),
    ];
    let max_n = m2_max_n(default_cap);
    let ns: Vec<usize> = [7usize, 13, 32, 64, 128, 256, 512]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    // Exact beat budgets: every budget clears the ticket pipeline's
    // 4-beat depth, so the steady-state round mix (share + echo + vote +
    // recover in flight simultaneously) is what gets priced; beyond
    // that, the big cells run the fewest beats that still average out
    // per-beat jitter, because their ~n⁴ per-beat cost dominates the
    // grid's wall-clock.
    let budget = |n: usize| -> u64 {
        match n {
            0..=13 => 50,
            14..=32 => 24,
            33..=64 => 12,
            65..=128 => 6,
            _ => 5,
        }
    };
    // One flat grid in cell order. The full-coin cells stop where their
    // ~n⁴ per-beat cost would dominate the grid's wall-clock for one
    // data point (clock-sync drives three coin pipelines per node and
    // stops at n=128; the standalone coin stream stops at n=256). The
    // committee and oracle columns are the cheap ones — they carry the
    // curve to n=512. Committee cells run a 5-round pipeline and a
    // rotation schedule, so they always get enough beats to price the
    // steady-state mix across several committees.
    let mut specs = Vec::new();
    let mut cells: Vec<(usize, usize)> = Vec::new(); // (n, column index)
    for &n in &ns {
        let f = (n - 1) / 3;
        for (ci, (_, protocol, coin, committee)) in columns.iter().enumerate() {
            let c = default_committee_size(n);
            if *committee && c >= n {
                // committee=n IS the full coin; skip the duplicate cell.
                continue;
            }
            if !*committee && *protocol == "clock-sync" && n > 128 {
                continue;
            }
            if *protocol == "coin-stream" && n > 256 {
                continue;
            }
            let mut spec = ScenarioSpec::new(*protocol, n, f)
                .with_coin(*coin)
                .with_faults(FaultPlanSpec::none())
                .with_seed(1)
                .with_budget(if *committee {
                    budget(n).max(24)
                } else {
                    budget(n)
                });
            if *committee {
                spec = spec.with_committee(c);
            }
            if *protocol == "clock-sync" {
                spec = spec.with_modulus(64);
            }
            specs.push(spec);
            cells.push((n, ci));
        }
    }
    let reports = grid.exact(&specs);

    // The committee family's headline number: the least-squares
    // power-law exponent of its bytes/beat curve. The full coin is
    // ~n⁴ here; with c(n) = Θ(√n) the committee's Θ(c⁴ + n·c) traffic
    // is ~n², and anything ≥ 3 means the subsampling seam regressed.
    // Asserted in both output modes, so the CI --jsonl slice enforces it.
    let committee_points: Vec<(f64, f64)> = cells
        .iter()
        .zip(&reports)
        .filter(|((n, ci), _)| columns[*ci].3 && *n >= 32)
        .map(|((n, _), report)| (*n as f64, report.traffic.mean_correct_bytes_per_beat))
        .collect();
    let committee_fit = (committee_points.len() >= 2).then(|| {
        let fitted = power_law_exponent(&committee_points);
        assert!(
            fitted < 3.0,
            "committee bytes/beat exponent {fitted:.2} >= 3 — the subsampled \
             coin no longer breaks the n\u{2074} wall"
        );
        fitted
    });

    if grid.jsonl {
        return;
    }

    println!("## M2 — per-beat traffic by cluster size (exact budgets, k = 64)\n");
    println!(
        "Cells: msgs per beat / bytes per beat (correct senders), means over\n\
         full-budget runs — deterministic counters, the same on every\n\
         machine and backend.\n\
         Full-coin clock-sync stops at n=128 (three GVSS pipelines per\n\
         node) and the full coin stream at n=256; the committee column\n\
         (`committee=c(n)`, c(n) = smallest c ≡ 1 mod 3 with\n\
         c ≥ max(7, 1.5·√n)) carries the curve to n=512 and always runs\n\
         ≥ 24 beats so the 5-round pipeline and the rotation schedule are\n\
         priced at steady state. `BYZCLOCK_M2_MAX_N` caps the grid (CI\n\
         runs the 128 slice).\n"
    );
    let mut rows = Vec::new();
    let mut it = cells.iter().zip(&reports).peekable();
    for &n in &ns {
        let f = (n - 1) / 3;
        let mut row = vec![format!("n={n}, f={f} ({} beats)", budget(n))];
        for ci in 0..columns.len() {
            let cell = match it.peek() {
                Some(((cn, cc), _)) if *cn == n && *cc == ci => {
                    let (_, report) = it.next().expect("peeked");
                    format!(
                        "{:.0} msgs / {:.0} B",
                        report.traffic.mean_correct_msgs_per_beat,
                        report.traffic.mean_correct_bytes_per_beat
                    )
                }
                _ => "–".to_string(),
            };
            row.push(cell);
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("cluster")
        .chain(columns.iter().map(|(h, _, _, _)| *h))
        .collect();
    println!("{}", md_table(&headers, &rows));
    if let Some(fitted) = committee_fit {
        let span = format!(
            "n \u{2208} {{{}..{}}}",
            committee_points[0].0 as usize,
            committee_points[committee_points.len() - 1].0 as usize
        );
        println!(
            "Committee bytes/beat fit over {span}: bytes/beat ~ n^{fitted:.2}\n\
             (sub-quartic target: exponent < 3; the full coin grows ~n\u{2074}).\n"
        );
    }
    println!(
        "Shape check: the oracle column isolates the clock layer's own\n\
         traffic (n² scalar messages, no GVSS), so the gap between it and\n\
         the ticket column is the per-beat price of three real coin\n\
         pipelines. The full-GVSS columns grow ~n\u{2074} in bytes (n² messages\n\
         × n² bytes each) while the committee column stays ~n·c in\n\
         messages. How fast a beat runs is `benchmark/`'s question\n\
         (`beats_per_s`, repeated, with a spread) — not this grid's.\n"
    );
}

/// Shared scaffolding of the lockstep-vs-delay grids (D1/D2): every
/// `(row, delay)` is one converge-mode cell, rendered as the aggregated
/// Markdown table. `annotate` appends a grid's per-cell extras (D1: mean
/// message delay; D2: the quorum/timeout advancement split).
fn delay_grid(
    grid: Grid<'_>,
    heading: &str,
    intro: &str,
    rows: &[(&str, ScenarioSpec)],
    annotate: impl Fn(&mut String, &[RunReport], u64),
) {
    let ntrials = trials(20);
    let horizon = rows
        .iter()
        .map(|(_, base)| base.beat_budget)
        .max()
        .unwrap_or(10_000);
    let delays: [u64; 4] = [0, 1, 2, 3];

    let mut cells = Vec::new();
    for (_, base) in rows {
        for &delay in &delays {
            cells.push((base.clone().with_delay(delay), ntrials));
        }
    }
    let mut chunks = grid.converge(&cells).into_iter();
    if grid.jsonl {
        return;
    }

    println!("{heading}\n");
    println!("{intro}\n");
    let mut table = Vec::new();
    for (label, _) in rows {
        let mut cells = vec![label.to_string()];
        for &delay in &delays {
            let chunk = chunks.next().expect("grid shape");
            let mut cell = beats_cell(&chunk, horizon);
            annotate(&mut cell, &chunk, delay);
            cells.push(cell);
        }
        table.push(cells);
    }
    let headers: Vec<String> = std::iter::once("protocol".to_string())
        .chain(delays.iter().map(|d| {
            if *d == 0 {
                "lockstep".to_string()
            } else {
                format!("delay={d}")
            }
        }))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", md_table(&headers_ref, &table));
}

// ---------------------------------------------------------------------------
// D1: §6.3 bounded-delay (semi-synchronous) grid
// ---------------------------------------------------------------------------

/// Lockstep vs bounded-delay sweep: the paper's protocols are specified
/// for the global beat system, so this grid *measures* how far each one
/// degrades when delivery stretches over a window — the §6.3 future-work
/// rows of Table 1 turned into runnable scenarios.
fn d1_bounded_delay_grid(grid: Grid<'_>) {
    let horizon = 10_000u64;
    let rows = [
        (
            "2-clock (oracle, splitter)",
            ScenarioSpec::new("two-clock", 7, 2)
                .with_coin(CoinSpec::perfect_oracle())
                .with_adversary(AdversarySpec::SplitVote)
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
        (
            "clock-sync k=8 (oracle, silent)",
            ScenarioSpec::new("clock-sync", 7, 2)
                .with_modulus(8)
                .with_coin(CoinSpec::perfect_oracle())
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
        (
            "broken-2-clock (rand-aware splitter)",
            ScenarioSpec::new("broken-two-clock", 7, 2)
                .with_coin(CoinSpec::perfect_oracle())
                .with_adversary(AdversarySpec::RandAwareSplitter)
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
    ];
    delay_grid(
        grid,
        "## D1 — \u{a7}6.3 bounded-delay grid: convergence vs delivery window",
        "delay=0 is the paper's lockstep beat; delay=d delivers each correct\n\
         message within a seeded d-beat window while the adversary rushes.\n\
         The protocols are *specified* for lockstep — this grid measures the\n\
         degradation the \u{a7}6.3 future work has to beat. Cells: mean beats\n\
         (p95) over trials; mean msg delay from the report extras.",
        &rows,
        |cell, chunk, delay| {
            if delay == 0 {
                return;
            }
            let mean_delay = chunk
                .iter()
                .filter_map(|r| r.extra("mean_delay"))
                .sum::<f64>()
                / chunk.len() as f64;
            cell.push_str(&format!(" \u{b7} d\u{304}={mean_delay:.2}"));
        },
    );
}

// ---------------------------------------------------------------------------
// D2: delay tolerance — bd-clock vs the lockstep protocols
// ---------------------------------------------------------------------------

/// The answer to D1's measured gap: the same lockstep-vs-delay sweep, with
/// the `bd-clock` (round-tag wheel) rows added. The lockstep
/// protocols stop converging at `delay>=2`; `bd-clock` keeps a finite
/// convergence beat across the whole `delay=0..3` range, with extras
/// showing how its progress splits between quorum ticks and
/// timeout-driven merge events.
fn d2_delay_tolerance_grid(grid: Grid<'_>) {
    let horizon = 10_000u64;
    let rows = [
        (
            "2-clock (oracle, silent) — lockstep-specified",
            ScenarioSpec::new("two-clock", 7, 2)
                .with_coin(CoinSpec::perfect_oracle())
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
        (
            "clock-sync k=8 (oracle, silent) — lockstep-specified",
            ScenarioSpec::new("clock-sync", 7, 2)
                .with_modulus(8)
                .with_coin(CoinSpec::perfect_oracle())
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
        (
            "bd-clock k=8 (oracle, silent) — delay-tolerant",
            ScenarioSpec::new("bd-clock", 7, 2)
                .with_modulus(8)
                .with_coin(CoinSpec::perfect_oracle())
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
        (
            "bd-clock k=8 (oracle, tag-equivocator)",
            ScenarioSpec::new("bd-clock", 7, 2)
                .with_modulus(8)
                .with_coin(CoinSpec::perfect_oracle())
                .with_adversary(AdversarySpec::Equivocate)
                .with_faults(FaultPlanSpec::corrupt_start())
                .with_budget(horizon),
        ),
    ];
    delay_grid(
        grid,
        "## D2 — delay tolerance: bd-clock closes the d1 grid gap",
        "Same sweep as D1 (corrupted starts, mean beats (p95) over trials),\n\
         with the buffered-round-engine clock added. Lockstep-specified\n\
         protocols stop converging at delay>=2; bd-clock's round-tagged\n\
         quorum advancement keeps a finite convergence beat across the\n\
         whole range. bd-clock cells also show the quorum-vs-timeout\n\
         advancement split (q/t, per node) from the report extras.",
        &rows,
        |cell, chunk, _delay| {
            let mean_extra = |name: &str| {
                let vals: Vec<f64> = chunk.iter().filter_map(|r| r.extra(name)).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            };
            if let (Some(q), Some(t)) = (
                mean_extra("bd_quorum_ticks"),
                mean_extra("bd_timeout_events"),
            ) {
                cell.push_str(&format!(" \u{b7} q/t={q:.0}/{t:.0}"));
            }
        },
    );
    if !grid.jsonl {
        println!(
            "Rerun any cell:\n  cargo run --release -p byzclock-bench --bin experiments -- spec \\\n    \"{}\"\n",
            rows[2].1.clone().with_delay(2).with_seed(0)
        );
    }
}
