//! Measurement utilities for the reproduction harness: the spec-grid
//! runner ([`sweep_specs`]), summary statistics, and Markdown table
//! rendering — plus the `experiments` binary built on them.
//!
//! This page is the reference for the harness's command-line surface and
//! for the offline-dependency story (ARCHITECTURE.md carries the same
//! material as an appendix; the spec-line grammar itself is documented on
//! `byzclock_core::scenario::ScenarioSpec`).
//!
//! # The `experiments` binary
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
//! **Named grids.** Each name regenerates one table or figure of the
//! paper as Markdown on stdout: `t1` (Table 1 convergence), `f1`–`f4`
//! (the Fig. 1–4 contracts), `a1`/`a2` (the Remark 3.1/4.1 ablations),
//! `r1` (resiliency boundary), `s1` (self-stabilization), `m1` (message
//! complexity), `m2` (the traffic × n scaling curve — msgs/beat and
//! bytes/beat as n scales to 512, plus the committee column's fitted
//! bytes/beat exponent), `d1` (lockstep vs bounded-delay degradation),
//! `d2` (bd-clock delay tolerance). `all` (the default) runs everything.
//! Every grid builds its cells as a flat `Vec<ScenarioSpec>` and runs
//! them through [`sweep_specs`], so each cell is a replayable one-line
//! spec and every grid takes the same three flags below.
//!
//! **`spec` subcommand.** Runs each quoted scenario line through the
//! default registry and prints one `RunReport::to_json` line per spec —
//! the way to replay any single grid point:
//!
//! ```text
//! experiments spec "clock-sync n=7 f=2 k=64 coin=ticket delay=2"
//! ```
//!
//! **`--jsonl`.** Switches output to JSON lines (diffable, archivable)
//! instead of the aggregated Markdown, all written by one writer,
//! `byzclock_core::scenario::json`. `spec` and every named grid print one
//! `RunReport::to_json` line per executed spec; `model-check` prints one
//! verdict record per model (`CheckReport::to_json`, plus a
//! `Trace::to_json` record per violation). A grid emits its converge-mode
//! cells in build order, then its full-budget (exact-mode) cells, and
//! nothing else on the stream.
//!
//! **`--backend` and `--manifest`.** Every named grid accepts
//! `--backend=threads[:N]` (the default: worker threads in this process)
//! or `--backend=procs[:N]` (N worker subprocesses, each an
//! `experiments worker` re-exec — see [`shard`]). Output is
//! byte-identical across backends. `--manifest=FILE` makes the grid
//! resumable: completed reports are appended to `FILE` as they land and
//! served from it on restart.
//!
//! **`worker` subcommand.** The worker half of the process backend:
//! reads canonical spec lines on stdin, writes one `RunReport::to_json`
//! (or `{"error":…}`) line per spec on stdout, exits on EOF. `--exact`
//! (or `BYZCLOCK_WORKER_EXACT=1`, which the coordinator exports) runs
//! each spec's full beat budget instead of stopping at stable sync.
//!
//! **Environment knobs.** `BYZCLOCK_TRIALS` scales every grid's trial
//! count ([`trials`]); `BYZCLOCK_THREADS` sizes the sweep's worker pool
//! ([`default_threads`]) — a run itself always steps its beats serially
//! on one thread; `BYZCLOCK_M2_MAX_N` caps the largest n the `m2` grid runs
//! ([`m2_max_n`]: a standalone `m2` defaults to the full 512-point
//! curve, `all` caps at 64 to stay interactive, the CI smoke sets 128);
//! `PROPTEST_CASES` keeps the property tests fast in CI. The three
//! `BYZCLOCK_*` knobs take a positive integer; `0` or anything
//! unparsable falls back to the default, exactly as if it were unset.
//!
//! **Wall-clock.** Nothing here reads a clock: the grids report
//! deterministic counters only (stabilisation beats, msgs and bytes per
//! beat). Speed — beats/s, per-op `field.*` / `sim.wire.*` prices — is
//! measured by the one harness that repeats it and reports a spread, the
//! `benchmark/` package (see `benchmark/README.md`).
//!
//! # Offline compat stubs and the swap-back path
//!
//! The build environment has no crates.io access, so three third-party
//! dependencies resolve to API-compatible stand-ins under
//! `crates/compat/`: `rand` (seedable `StdRng`-style PRNG), `bytes`
//! (`BytesMut` encode buffers) and `proptest` (strategy/`proptest!`
//! subset). `serde` and `parking_lot` were dropped outright (one small
//! JSON-line codec, `byzclock_core::scenario::json`; std `Mutex` in the
//! oracle beacon).
//! **Swap-back:** to use the real crates, replace the three
//! `[workspace.dependencies]` path entries in the root `Cargo.toml` with
//! registry versions (`rand = "0.9"`, `bytes = "1"`, `proptest = "1"`)
//! and delete `crates/compat/` — the stubs expose the same call surface
//! the workspace uses, so no source change is expected beyond the
//! manifests.
//!
//! # Example
//!
//! ```
//! use byzclock::scenario::{default_registry, ScenarioSpec};
//! use byzclock_bench::{md_table, sweep_specs, Summary, SweepBackend, SweepOptions};
//!
//! // A two-point grid over two worker threads, aggregated into a table.
//! let registry = default_registry();
//! let specs: Vec<ScenarioSpec> = (0..2)
//!     .map(|seed| ScenarioSpec::parse("two-clock n=4 f=1 coin=oracle budget=300")
//!         .unwrap()
//!         .with_seed(seed))
//!     .collect();
//! let samples: Vec<Option<u64>> =
//!     sweep_specs(&registry, &specs, SweepBackend::Threads(2), &SweepOptions::default())
//!         .into_iter()
//!         .map(|r| r.expect("registered protocol").beats_to_sync())
//!         .collect();
//! let summary = Summary::of(&samples);
//! assert_eq!(summary.trials, 2);
//! let table = md_table(&["protocol", "beats"], &[vec!["two-clock".into(), summary.cell(300)]]);
//! assert!(table.starts_with("| protocol | beats |"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::num::NonZeroUsize;

pub mod shard;

pub use shard::{sweep_specs, SweepBackend, SweepOptions, SweepResult};

/// Summary statistics over convergence-time samples; `None` samples are
/// timeouts at the experiment's horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of trials.
    pub trials: usize,
    /// Trials that did not converge within the horizon.
    pub timeouts: usize,
    /// Mean over converged trials.
    pub mean: f64,
    /// Median over converged trials.
    pub p50: f64,
    /// 95th percentile over converged trials.
    pub p95: f64,
    /// Maximum over converged trials.
    pub max: u64,
}

impl Summary {
    /// Summarizes samples (`None` = timeout).
    pub fn of(samples: &[Option<u64>]) -> Summary {
        let mut ok: Vec<u64> = samples.iter().flatten().copied().collect();
        ok.sort_unstable();
        let timeouts = samples.len() - ok.len();
        if ok.is_empty() {
            return Summary {
                trials: samples.len(),
                timeouts,
                mean: f64::NAN,
                p50: f64::NAN,
                p95: f64::NAN,
                max: 0,
            };
        }
        let mean = ok.iter().map(|&x| x as f64).sum::<f64>() / ok.len() as f64;
        let pct = |q: f64| -> f64 {
            let idx = ((ok.len() as f64 - 1.0) * q).round() as usize;
            ok[idx] as f64
        };
        Summary {
            trials: samples.len(),
            timeouts,
            mean,
            p50: pct(0.5),
            p95: pct(0.95),
            max: *ok.last().expect("nonempty"),
        }
    }

    /// Compact cell text: `mean (p95)`, with a timeout annotation.
    pub fn cell(&self, horizon: u64) -> String {
        if self.timeouts == self.trials {
            return format!("> {horizon} (all {} timed out)", self.trials);
        }
        let mut s = format!("{:.1} (p95 {:.0})", self.mean, self.p95);
        if self.timeouts > 0 {
            let _ = write!(s, " [{}/{} > {horizon}]", self.timeouts, self.trials);
        }
        s
    }
}

/// Renders a Markdown table.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// The largest n the M2 grid runs: `BYZCLOCK_M2_MAX_N` if set, else
/// `default_cap`. The callers pick the cap by context: a standalone
/// `experiments m2` defaults to the full curve (512, committee cells
/// carrying the tail), while `all` caps at 64 so the every-table run
/// stays interactive — the full-GVSS families' per-beat cost grows ~n⁴
/// (n² messages × n² bytes each), so the largest full-coin cells
/// dominate any run that includes them. CI smokes the 128 slice by
/// exporting `BYZCLOCK_M2_MAX_N=128`.
pub fn m2_max_n(default_cap: usize) -> usize {
    positive_env("BYZCLOCK_M2_MAX_N").unwrap_or(default_cap)
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the fitted exponent
/// `b` of a power law `y = a·x^b`. The M2 grid prints this for the
/// committee column's bytes/beat curve (the committee family's headline
/// claim is that it stays sub-cubic where the full coin grows ~n⁴).
/// Returns `NaN` with fewer than two points or any non-positive
/// coordinate.
pub fn power_law_exponent(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 || points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return f64::NAN;
    }
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let (sx, sy) = logs
        .iter()
        .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (num, den) = logs.iter().fold((0.0, 0.0), |(num, den), &(x, y)| {
        (num + (x - mx) * (y - my), den + (x - mx) * (x - mx))
    });
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Number of sweep worker threads to use (respects `BYZCLOCK_THREADS`).
pub fn default_threads() -> usize {
    positive_env("BYZCLOCK_THREADS").unwrap_or_else(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "sizes the sweep's pool; the core count reaches no report"
        )]
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Trials knob (respects `BYZCLOCK_TRIALS`), default `base`.
pub fn trials(base: u64) -> u64 {
    positive_env("BYZCLOCK_TRIALS").map_or(base, |t| t as u64)
}

/// The positive integer in environment variable `name`, or `None` when it
/// is unset, unparsable or `0` — a zero knob would run nothing (or size a
/// pool of no workers) while the output claimed otherwise.
fn positive_env(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<NonZeroUsize>().ok())
        .map(NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock::scenario::ScenarioSpec;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[Some(10), Some(20), Some(30), None]);
        assert_eq!(s.trials, 4);
        assert_eq!(s.timeouts, 1);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.max, 30);
    }

    #[test]
    fn summary_all_timeouts() {
        let s = Summary::of(&[None, None]);
        assert_eq!(s.timeouts, 2);
        assert!(s.mean.is_nan());
        assert!(s.cell(100).contains("> 100"));
    }

    #[test]
    fn sweep_preserves_spec_order_and_determinism() {
        let registry = byzclock::scenario::default_registry();
        let specs: Vec<ScenarioSpec> = (0..6)
            .map(|seed| {
                ScenarioSpec::new("two-clock", 4, 1)
                    .with_coin(byzclock::scenario::CoinSpec::perfect_oracle())
                    .with_delay(seed % 3) // mix lockstep and bounded delay
                    .with_seed(seed)
                    .with_budget(500)
            })
            .collect();
        let opts = SweepOptions::default();
        let a = sweep_specs(&registry, &specs, SweepBackend::Threads(3), &opts);
        let b = sweep_specs(&registry, &specs, SweepBackend::Threads(1), &opts);
        assert_eq!(a.len(), specs.len());
        for ((ra, rb), spec) in a.iter().zip(&b).zip(&specs) {
            let ra = ra.as_ref().expect("spec runs");
            assert_eq!(ra, rb.as_ref().unwrap(), "thread count changed a report");
            assert_eq!(ra.spec, spec.to_string(), "results stay in input order");
        }
    }

    #[test]
    fn sweep_surfaces_per_spec_errors() {
        let registry = byzclock::scenario::default_registry();
        let specs = vec![
            ScenarioSpec::new("two-clock", 4, 1)
                .with_coin(byzclock::scenario::CoinSpec::perfect_oracle())
                .with_budget(300),
            ScenarioSpec::new("no-such-clock", 4, 1),
        ];
        // The thread backend keeps the registry's typed error (the process
        // backend can only relay its message, as `ScenarioError::Sweep`).
        let out = sweep_specs(
            &registry,
            &specs,
            SweepBackend::Threads(2),
            &SweepOptions::default(),
        );
        assert!(out[0].is_ok());
        assert!(matches!(
            out[1],
            Err(byzclock::scenario::ScenarioError::UnknownProtocol { .. })
        ));
    }

    #[test]
    fn m2_max_n_prefers_the_env_knob_over_the_caller_cap() {
        // The knob is process-global env, so probe both directions in one
        // test body instead of racing parallel test threads over it.
        std::env::remove_var("BYZCLOCK_M2_MAX_N");
        assert_eq!(m2_max_n(512), 512, "unset env falls back to the cap");
        assert_eq!(m2_max_n(64), 64, "`all` hands in its interactive cap");
        std::env::set_var("BYZCLOCK_M2_MAX_N", "128");
        assert_eq!(m2_max_n(512), 128, "the CI knob wins over the cap");
        std::env::set_var("BYZCLOCK_M2_MAX_N", "not-a-number");
        assert_eq!(m2_max_n(256), 256, "garbage env falls back to the cap");
        std::env::set_var("BYZCLOCK_M2_MAX_N", "0");
        assert_eq!(m2_max_n(256), 256, "zero falls back to the cap");
        std::env::remove_var("BYZCLOCK_M2_MAX_N");
    }

    #[test]
    fn zero_env_knobs_fall_back_to_their_defaults() {
        // Obeying a zero would run no trials (yet print every cell as "all
        // 0 timed out") or size a zero-worker pool. Any concurrent reader
        // sees the default either way, so setting them here is race-free.
        // (`BYZCLOCK_M2_MAX_N`'s zero is probed in the m2 test's body,
        // which owns that variable.)
        let knobs = ["BYZCLOCK_TRIALS", "BYZCLOCK_THREADS"];
        let saved: Vec<_> = knobs.map(|k| (k, std::env::var_os(k))).into();
        let read = || (trials(7), default_threads());
        knobs.iter().for_each(|k| std::env::remove_var(k));
        let unset = read();
        knobs.iter().for_each(|k| std::env::set_var(k, "0"));
        assert_eq!(read(), unset, "a zero knob reads as unset");
        assert_eq!(
            SweepBackend::parse("threads").unwrap().to_string(),
            format!("threads:{}", unset.1)
        );
        for (k, v) in saved {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }

    #[test]
    fn power_law_exponent_recovers_known_slopes() {
        let quad: Vec<(f64, f64)> = [2.0f64, 8.0, 32.0, 128.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((power_law_exponent(&quad) - 2.0).abs() < 1e-9);
        let cubic: Vec<(f64, f64)> = [4.0f64, 16.0, 64.0]
            .iter()
            .map(|&x| (x, 0.5 * x * x * x))
            .collect();
        assert!((power_law_exponent(&cubic) - 3.0).abs() < 1e-9);
        assert!(power_law_exponent(&[(1.0, 1.0)]).is_nan());
        assert!(power_law_exponent(&[(1.0, 1.0), (0.0, 2.0)]).is_nan());
        assert!(power_law_exponent(&[(5.0, 1.0), (5.0, 2.0)]).is_nan());
    }

    #[test]
    fn md_table_shape() {
        let t = md_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }
}
