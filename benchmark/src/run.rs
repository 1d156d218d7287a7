//! One measured run of one workload, in this process.
//!
//! The program is driven only through its public scenario API:
//! `default_registry().start`, `drive` / `drive_exact`, and
//! `RunReport::to_json`. [`StepTimer`] sits between `drive*` and the run
//! and timestamps every `step`.

use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stacks::{start_traced, Probe};
use crate::trace::{self, BeatRow, ROUND_NAMES};
use crate::workloads::{grid_spec, Family, Steady, GRID_CYCLE, GRID_PINNED_CYCLES};
use crate::{json, micro, stats};
use byzclock::scenario::{
    default_registry, drive, drive_exact, RunReport, ScenarioRun, ScenarioSpec, TrafficSummary,
    DEFAULT_SYNC_WINDOW,
};
use byzclock_core::SyncTracker;
use byzclock_sim::TrafficStats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Set-ups per `grid-small` run, where one takes well under a
/// millisecond.
const GRID_SETUP_REPS: usize = 51;

/// Agreement the coin stream must keep under `hostile-n13`'s faults.
const MIN_AGREEMENT: f64 = 0.95;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Runs (`start` → `drive*` → report) attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
    /// The metrics of the run's mode, every one present.
    pub metrics: Values,
    /// FNV-1a digest of the run's pinned `to_json` lines: equal for equal
    /// `(workload, seed)` whatever the mode, machine or measuring time.
    pub digest: u64,
    /// Human-readable notes (sample counts, percentiles) printed above the
    /// result line.
    pub notes: Vec<String>,
    /// The trace file's lines (`--trace 1` only).
    pub trace_lines: Vec<String>,
}

fn fnv1a(digest: &mut u64, line: &str) {
    for &b in line.as_bytes().iter().chain(b"\n") {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The whole-run view of synchronization that one `drive_exact` over all
/// the beats would have reported, rebuilt across laps.
struct WholeRunSync {
    tracker: SyncTracker,
    converged_at: Option<u64>,
}

/// A [`ScenarioRun`] adapter that forwards every method and timestamps
/// `step`.
///
/// `drive*` asks `synced()` once after every step; the adapter feeds each
/// answer to its own [`SyncTracker`], so that a run driven lap by lap
/// still knows the `converged_at` and final streak of the run as a whole.
pub struct StepTimer<'a> {
    inner: &'a mut dyn ScenarioRun,
    traced: bool,
    /// Nanoseconds of every `step` so far, oldest first.
    pub step_ns: Vec<u64>,
    sync: RefCell<Option<WholeRunSync>>,
}

impl<'a> StepTimer<'a> {
    /// Wraps `inner`; `traced` also opens a `step` span per beat for the
    /// [`trace`] wrappers inside the run to nest under.
    pub fn new(inner: &'a mut dyn ScenarioRun, traced: bool) -> Self {
        let sync = inner.modulus().map(|k| WholeRunSync {
            tracker: SyncTracker::new(k),
            converged_at: None,
        });
        StepTimer {
            inner,
            traced,
            step_ns: Vec::new(),
            sync: RefCell::new(sync),
        }
    }

    /// `(converged_at, final_streak)` as `run_exact` over every beat so
    /// far would report them; `None` for a scenario without a clock.
    pub fn whole_run_sync(&self) -> Option<(Option<u64>, u64)> {
        self.sync
            .borrow()
            .as_ref()
            .map(|s| (s.converged_at, s.tracker.streak_len()))
    }
}

impl ScenarioRun for StepTimer<'_> {
    fn step(&mut self) {
        if self.traced {
            trace::begin_beat(self.inner.beat());
        }
        let t = Instant::now();
        self.inner.step();
        let ns = t.elapsed().as_nanos() as u64;
        if self.traced {
            trace::end_beat(ns);
        }
        self.step_ns.push(ns);
    }

    fn beat(&self) -> u64 {
        self.inner.beat()
    }

    fn modulus(&self) -> Option<u64> {
        self.inner.modulus()
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        self.inner.clock_readings()
    }

    fn synced(&self) -> Option<u64> {
        let value = self.inner.synced();
        if let Some(sync) = self.sync.borrow_mut().as_mut() {
            sync.tracker.observe(value);
            if sync.converged_at.is_none() && sync.tracker.streak_len() >= DEFAULT_SYNC_WINDOW {
                sync.converged_at = Some(self.inner.beat() - sync.tracker.streak_len());
            }
        }
        value
    }

    fn traffic(&self) -> &TrafficStats {
        self.inner.traffic()
    }

    fn extras(&self) -> Vec<(String, f64)> {
        self.inner.extras()
    }
}

/// What driving one started run through its warm-up and laps yielded.
struct Laps {
    /// Report after the warm-up — pinned by `(workload, seed)`.
    warm: RunReport,
    /// Report after the last *counted* lap — pinned too. `None` if the run
    /// stopped after its warm-up.
    counted: Option<RunReport>,
    /// Report after the last lap (the warm-up's if no lap ran).
    last: RunReport,
    /// `step` durations of the lap beats, ms.
    step_ms: Vec<f64>,
    /// Time inside each lap's `drive_exact` call, seconds.
    lap_s: Vec<f64>,
    /// `TrafficSummary::of` + `to_json` per lap, µs (traced runs only).
    report_us: Vec<f64>,
    /// `(converged_at, final_streak)` of the run as a whole.
    sync: Option<(Option<u64>, u64)>,
}

impl Laps {
    /// Laps driven.
    fn count(&self) -> u64 {
        self.lap_s.len() as u64
    }

    /// Time inside the laps' `drive_exact` calls, seconds.
    fn total_s(&self) -> f64 {
        self.lap_s.iter().sum()
    }
}

/// A started run, warmed up and then driven on one lap at a time, each
/// lap one `drive_exact` call with the spec's budget moved up by a lap.
struct LapRun<'a> {
    w: &'a Steady,
    spec: ScenarioSpec,
    timer: StepTimer<'a>,
    warm_beats: usize,
    /// When the warm-up's last beat was done: the end of set-up.
    warm_done: Instant,
    laps: Laps,
}

impl<'a> LapRun<'a> {
    fn warm_up(
        run: &'a mut dyn ScenarioRun,
        mut spec: ScenarioSpec,
        w: &'a Steady,
        traced: bool,
    ) -> Self {
        let mut timer = StepTimer::new(run, traced);
        spec.beat_budget = w.warmup;
        let warm = drive_exact(&mut timer, &spec, DEFAULT_SYNC_WINDOW);
        LapRun {
            w,
            spec,
            warm_beats: timer.step_ns.len(),
            timer,
            warm_done: Instant::now(),
            laps: Laps {
                last: warm.clone(),
                warm,
                counted: None,
                step_ms: Vec::new(),
                lap_s: Vec::new(),
                report_us: Vec::new(),
                sync: None,
            },
        }
    }

    fn lap(&mut self) {
        self.spec.beat_budget += self.w.lap;
        let t = Instant::now();
        let report = drive_exact(&mut self.timer, &self.spec, DEFAULT_SYNC_WINDOW);
        self.laps.lap_s.push(t.elapsed().as_secs_f64());
        if self.timer.traced {
            // Outside `drive_exact`, so `core.drive.self_ms` stays what
            // the program itself spends around `step`.
            let t = Instant::now();
            std::hint::black_box(TrafficSummary::of(self.timer.traffic()));
            std::hint::black_box(report.to_json());
            self.laps.report_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if self.laps.count() == self.w.counted_laps {
            self.laps.counted = Some(report.clone());
        }
        self.laps.last = report;
    }

    fn finish(mut self) -> Laps {
        self.laps.step_ms = self.timer.step_ns[self.warm_beats..]
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        self.laps.sync = self.timer.whole_run_sync();
        self.laps
    }
}

fn parse_spec(w: &Steady, seed: u64) -> Result<ScenarioSpec, String> {
    let line = w.spec_line(seed, w.warmup);
    ScenarioSpec::parse(&line).map_err(|e| format!("`{line}`: {e}"))
}

/// One set-up of a steady workload through the registry, as a user's
/// `run_exact` begins — registry, parse, `start`, warm-up — then whole
/// laps until `seconds` have passed, and the counted laps whatever the
/// time; no lap at all for `None`. Returns the laps and `setup_s`.
fn registry_run(w: &Steady, seed: u64, seconds: Option<f64>) -> Result<(Laps, f64), String> {
    let t0 = Instant::now();
    let registry = default_registry();
    let spec = parse_spec(w, seed)?;
    let mut run = registry
        .start(&spec)
        .map_err(|e| format!("`{spec}`: {e}"))?;
    let mut laps = LapRun::warm_up(run.as_mut(), spec, w, false);
    let setup_s = laps.warm_done.duration_since(t0).as_secs_f64();
    while seconds.is_some_and(|s| laps.laps.count() < w.counted_laps || laps.laps.total_s() < s) {
        laps.lap();
    }
    Ok((laps.finish(), setup_s))
}

/// Checks every steady run must pass, as failure lines.
fn steady_failures(w: &Steady, laps: &Laps) -> Vec<String> {
    let mut failures = Vec::new();
    match laps.sync {
        Some((None, _)) => failures.push(format!(
            "{}: converged_at is null after {} beats",
            w.name, laps.last.beats
        )),
        Some((Some(at), streak)) if streak != laps.last.beats - at => failures.push(format!(
            "{}: lost sync after converging at beat {at}: final streak {streak} of {} beats",
            w.name, laps.last.beats
        )),
        _ => {}
    }
    if let Some(rate) = laps.last.extra("agreement_rate") {
        if rate < MIN_AGREEMENT {
            failures.push(format!(
                "{}: agreement_rate {rate:.4} below {MIN_AGREEMENT}",
                w.name
            ));
        }
    }
    failures
}

/// The simulated counters of the pinned counted laps: correct-node wire
/// bytes and envelopes per beat.
fn counted_traffic(w: &Steady, laps: &Laps) -> (f64, f64) {
    let Some(counted) = &laps.counted else {
        return (0.0, 0.0);
    };
    let (a, b) = (&laps.warm.traffic, &counted.traffic);
    let beats = (w.counted_laps * w.lap) as f64;
    (
        (b.correct_bytes - a.correct_bytes) as f64 / beats,
        (b.correct_msgs - a.correct_msgs) as f64 / beats,
    )
}

/// The typical beat: the median over laps of a lap's mean `step`. A lap
/// is a whole cycle of the protocol, so its mean is taken over the same
/// mix of beats every time — the plain median over beats is not steady
/// when the cycle is multi-modal (`full-n32`'s beats alternate between
/// ≈ 265 and ≈ 420 ms).
fn typical_beat_ms(step_ms: &[f64], lap: u64) -> f64 {
    let lap_means: Vec<f64> = step_ms
        .chunks(lap as usize)
        .map(|lap| lap.iter().sum::<f64>() / lap.len() as f64)
        .collect();
    stats::median(&lap_means)
}

fn pinned_digest(laps: &Laps) -> u64 {
    let mut digest = FNV_OFFSET;
    fnv1a(&mut digest, &laps.warm.to_json());
    if let Some(counted) = &laps.counted {
        fnv1a(&mut digest, &counted.to_json());
    }
    digest
}

/// The end-to-end run of a steady workload (`--trace 0`): the set-up
/// several times over, then laps on the last one.
pub fn steady_timed(w: &Steady, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    let mut failed_runs = 0;
    let mut pinned: Option<String> = None;
    let mut measured = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (laps, setup_s) = registry_run(w, seed, last.then_some(seconds))?;
        setups.push(setup_s);
        let json = laps.warm.to_json();
        let mut bad = false;
        if pinned.as_ref().is_some_and(|p| *p != json) {
            failures.push(format!(
                "{}: set-up {rep} rendered a different warm-up report",
                w.name
            ));
            bad = true;
        }
        pinned.get_or_insert(json);
        if last {
            let checks = steady_failures(w, &laps);
            bad |= !checks.is_empty();
            failures.extend(checks);
            measured = Some(laps);
        }
        failed_runs += u64::from(bad);
    }
    let laps = measured.expect("the last set-up is the measured run");
    let (bytes_per_beat, msgs_per_beat) = counted_traffic(w, &laps);

    let mut metrics = Values::zeroed(&END_TO_END);
    metrics.set("setup_s", stats::median(&setups));
    // Per lap, beats ÷ the time `drive_exact` took; the median over laps,
    // so that a burst of interference on the machine costs the laps it
    // hits and not the run.
    let lap_rates: Vec<f64> = laps.lap_s.iter().map(|s| w.lap as f64 / s).collect();
    metrics.set("beats_per_s", stats::median(&lap_rates));
    metrics.set("beat_ms_p50", typical_beat_ms(&laps.step_ms, w.lap));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("bytes_per_beat", bytes_per_beat);
    metrics.set("msgs_per_beat", msgs_per_beat);
    Ok(Outcome {
        attempted: SETUP_REPS as u64,
        failed: failed_runs,
        failures,
        metrics,
        digest: pinned_digest(&laps),
        notes: vec![format!(
            "N = {} timed beats in {:.3} s ({} warm-up + {} laps of {}); setup_s is the median of \
             {} set-ups ({}); counters are over the first {} lap(s)",
            laps.step_ms.len(),
            laps.total_s(),
            w.warmup,
            laps.count(),
            w.lap,
            SETUP_REPS,
            setups
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
            w.counted_laps,
        )],
        trace_lines: Vec::new(),
    })
}

/// The traced run of a steady workload (`--trace 1`): the registry's run
/// and its traced twin live side by side in one process and take turns,
/// lap about, so that drift in the machine or the heap falls on both
/// alike; each gets half the measuring time.
pub fn steady_traced(w: &Steady, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let spec = parse_spec(w, seed)?;
    let registry = default_registry();
    let mut start_us = Vec::new();
    let mut plain_run = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        plain_run = Some(
            registry
                .start(&spec)
                .map_err(|e| format!("`{spec}`: {e}"))?,
        );
        start_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut plain_run = plain_run.expect("SETUP_REPS is positive");
    let mut run: Box<dyn Probe> = start_traced(&spec).map_err(|e| format!("`{spec}`: {e}"))?;

    let mut plain = LapRun::warm_up(plain_run.as_mut(), spec.clone(), w, false);
    trace::take_rows();
    trace::capture_envelopes_at(w.warmup - 1);
    let mut traced = LapRun::warm_up(&mut *run, spec.clone(), w, true);
    while plain.laps.count() < w.counted_laps
        || plain.laps.total_s() + traced.laps.total_s() < seconds
    {
        plain.lap();
        traced.lap();
    }
    let (plain, traced) = (plain.finish(), traced.finish());
    let rows: Vec<BeatRow> = trace::take_rows()
        .into_iter()
        .filter(|r| r.beat >= w.warmup)
        .collect();

    // Transparency: the wrappers must not change a single reported byte.
    // Both runs did the same laps, so every report pairs up — the two
    // pinned ones and the one after the last lap.
    let mut failures = steady_failures(w, &traced);
    let same = |a: &RunReport, b: &RunReport| a.to_json() == b.to_json();
    if !same(&plain.warm, &traced.warm)
        || plain.counted.as_ref().map(RunReport::to_json)
            != traced.counted.as_ref().map(RunReport::to_json)
        || !same(&plain.last, &traced.last)
    {
        failures.push(format!(
            "{}: the traced run's reports differ from the registry run's",
            w.name
        ));
    }

    let n = rows.len().max(1) as f64;
    let per_beat_ms = |ns: u64| ns as f64 / n / 1e6;
    let total = |f: &dyn Fn(&BeatRow) -> u64| rows.iter().map(f).sum::<u64>();
    let layers = Layers::split(&rows, traced.sync.is_some());
    let Layers {
        step_ns,
        runner_ns,
        clock_ns,
        pipeline_ns,
        coin_ns,
    } = layers;

    let mut m = Values::zeroed(&PER_LAYER);
    m.set("sim.runner.self_ms", per_beat_ms(runner_ns));
    let timed_traffic = &run.traffic().per_beat()[w.warmup as usize..];
    let envelopes: u64 = timed_traffic.iter().map(|b| b.total_msgs()).sum();
    m.set(
        "sim.runner.ns_per_envelope",
        runner_ns as f64 / envelopes.max(1) as f64,
    );
    let (tail, rank) = stats::tail(&traced.step_ms);
    m.set("sim.step.tail_ms", tail);
    m.set("sim.step.max_ms", stats::max(&traced.step_ms));
    let wire = trace::measure_captured(spec.wire_config().format);
    let per = |ns: u64, of: u64| ns as f64 / of.max(1) as f64;
    m.set("sim.wire.len_ns_per_msg", per(wire.len_ns, wire.msgs));
    m.set(
        "sim.wire.encode_ns_per_byte",
        per(wire.encode_ns, wire.bytes),
    );
    m.set(
        "sim.wire.decode_ns_per_byte",
        per(wire.decode_ns, wire.bytes),
    );
    m.set(
        "sim.envelope.clone_ns_per_msg",
        per(wire.clone_ns, wire.msgs),
    );
    let beats = traced.last.beats.max(1) as f64;
    let traffic = &traced.last.traffic;
    m.set("sim.byz_msgs_per_beat", traffic.byz_msgs as f64 / beats);
    m.set("sim.phantom_msgs", traffic.phantom_msgs as f64);
    m.set("sim.forged_dropped", traffic.forged_dropped as f64);
    m.set("core.clock.self_ms", per_beat_ms(clock_ns));
    m.set("core.pipeline.self_ms", per_beat_ms(pipeline_ns));
    m.set(
        "core.drive.self_ms",
        (traced.total_s() * 1e3 - traced.step_ms.iter().sum::<f64>()) / n,
    );
    m.set("core.scenario.start_us_p50", stats::median(&start_us));
    m.set(
        "core.scenario.report_us_p50",
        stats::median(&traced.report_us),
    );
    if let Some((Some(at), _)) = traced.sync {
        m.set("core.sync.converged_at", at as f64);
        m.set("core.sync.mean_beats_to_sync", at as f64);
    }
    let extra = |name: &str| traced.last.extra(name).unwrap_or(0.0);
    let advances: f64 = [
        "bd_quorum_ticks",
        "bd_timeout_events",
        "bd_jumps",
        "bd_catchup_ticks",
        "bd_resets",
    ]
    .iter()
    .map(|name| extra(name))
    .sum();
    if advances > 0.0 {
        m.set(
            "core.bd.quorum_tick_ratio",
            extra("bd_quorum_ticks") / advances,
        );
    }
    m.set(
        "core.bd.late_arrivals_per_beat",
        extra("bd_late_arrivals") / beats,
    );
    m.set(
        "core.bd.dropped_invalid_per_beat",
        extra("bd_dropped_invalid") / beats,
    );
    for (r, name) in ROUND_NAMES.iter().enumerate() {
        m.set(
            &format!("coin.{name}.send_ms"),
            per_beat_ms(total(&|row| row.round_send_ns(r))),
        );
        m.set(
            &format!("coin.{name}.recv_ms"),
            per_beat_ms(total(&|row| row.round_recv_ns(r))),
        );
    }
    m.set("coin.spawn_ms", per_beat_ms(total(&BeatRow::spawn_ns)));
    m.set(
        "coin.instances_per_beat",
        rows.iter().map(|r| f64::from(r.spawns())).sum::<f64>() / n,
    );
    let coin = run.coin_metrics();
    let counter = |name: &str| {
        coin.iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    };
    m.set(
        "coin.decode.codewords_per_beat",
        counter("decode_codewords") / beats,
    );
    m.set(
        "coin.decode.batches_per_beat",
        counter("decode_batches") / beats,
    );
    m.set("coin.alloc.storage_builds", counter("alloc_storage_builds"));
    m.set("coin.alloc.decoder_builds", counter("alloc_decoder_builds"));
    let lookups = counter("alloc_decoder_hits") + counter("alloc_decoder_builds");
    if lookups > 0.0 {
        m.set(
            "coin.alloc.decoder_hit_ratio",
            counter("alloc_decoder_hits") / lookups,
        );
    }
    m.set("coin.agreement_rate", extra("agreement_rate"));
    m.set("coin.p0", extra("p0"));
    m.set("coin.p1", extra("p1"));
    if let Some((fn_, ff)) = w.field_shape {
        set_field_timings(&mut m, micro::field_timings(fn_, ff, seed));
    }
    let (plain_p50, traced_p50) = (
        typical_beat_ms(&plain.step_ms, w.lap),
        typical_beat_ms(&traced.step_ms, w.lap),
    );
    if plain_p50 > 0.0 {
        m.set(
            "trace.overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50,
        );
    }

    let layers_ns = runner_ns + clock_ns + pipeline_ns + coin_ns;
    let mut trace_lines = vec![trace_header(w.name, seed, &spec.to_string())];
    trace_lines.extend(rows.iter().map(beat_line));
    Ok(Outcome {
        attempted: 2,
        failed: u64::from(!failures.is_empty()),
        failures,
        metrics: m,
        digest: pinned_digest(&traced),
        notes: vec![
            format!(
                "N = {} traced beats in {:.3} s, lap about with {} untraced in {:.3} s; \
                 beat_ms_p50 traced {traced_p50:.4} vs untraced {plain_p50:.4}",
                traced.step_ms.len(),
                traced.total_s(),
                plain.step_ms.len(),
                plain.total_s(),
            ),
            format!(
                "layer self times sum to {:.4} % of the step spans",
                100.0 * layers_ns as f64 / step_ns.max(1) as f64
            ),
            format!(
                "sim.step.tail_ms is the {rank}th-largest of N = {} (p{:.2})",
                traced.step_ms.len(),
                stats::percentile_of_rank(rank, traced.step_ms.len()),
            ),
        ],
        trace_lines,
    })
}

/// Self time by layer over a set of traced beats: each layer's spans minus
/// its children's, so the four parts are the `step` spans split four ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layers {
    /// The `step` spans.
    step_ns: u64,
    /// `sim.runner`: `step` minus the `Application` spans.
    runner_ns: u64,
    /// `core`'s clock logic.
    clock_ns: u64,
    /// `core.pipeline` (and, for the coin stream, the thin `CoinApp`
    /// around it).
    pipeline_ns: u64,
    /// `coin`: the round and spawn spans, which have no children.
    coin_ns: u64,
}

impl Layers {
    /// With a clock on top (`has_clock`), a pipelined coin sits behind the
    /// `RandSource` seam; the coin stream owns its pipeline inside the
    /// application, so there the whole application is pipeline and coin.
    fn split(rows: &[BeatRow], has_clock: bool) -> Layers {
        let total = |f: fn(&BeatRow) -> u64| rows.iter().map(f).sum::<u64>();
        let step_ns = total(|r| r.step_ns);
        let app_ns = total(BeatRow::app_ns);
        let rand_ns = total(BeatRow::rand_ns);
        let coin_ns = total(BeatRow::coin_ns);
        let (clock_ns, pipeline_ns) = if has_clock {
            (app_ns - rand_ns, rand_ns - coin_ns)
        } else {
            (0, app_ns - coin_ns)
        };
        Layers {
            step_ns,
            runner_ns: step_ns - app_ns,
            clock_ns,
            pipeline_ns,
            coin_ns,
        }
    }
}

fn set_field_timings(m: &mut Values, t: micro::FieldTimings) {
    m.set("field.poly.eval_ns", t.eval_ns);
    m.set("field.bivariate.row_ns", t.row_ns);
    m.set("field.bivariate.deal_ns", t.deal_ns);
    m.set(
        "field.decode.clean_ns_per_codeword",
        t.clean_ns_per_codeword,
    );
    m.set(
        "field.decode.errors_ns_per_codeword",
        t.errors_ns_per_codeword,
    );
    m.set("field.decoder.build_us", t.build_us);
}

/// First line of a trace file: what ran and how the spans nest.
fn trace_header(workload: &str, seed: u64, spec: &str) -> String {
    let mut s = format!(
        "{{\"workload\":{},\"seed\":{seed},\"spec\":{},\"spans\":{{",
        json::quote(workload),
        json::quote(spec)
    );
    for (i, (name, parent)) in trace::SPAN_TABLE.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}:{{\"parent\":{}}}",
            if i == 0 { "" } else { "," },
            json::quote(name),
            json::quote(parent)
        );
    }
    s.push_str("}}");
    s
}

/// One beat of a trace file: the `step` span and every span that ran
/// under it, as summed nanoseconds and a count.
fn beat_line(row: &BeatRow) -> String {
    let mut s = format!(
        "{{\"beat\":{},\"step_ns\":{},\"spans\":{{",
        row.beat, row.step_ns
    );
    let mut first = true;
    for (i, (name, _)) in trace::SPAN_TABLE.iter().enumerate() {
        if row.count[i] == 0 {
            continue;
        }
        let _ = write!(
            s,
            "{}{}:{{\"ns\":{},\"n\":{}}}",
            if first { "" } else { "," },
            json::quote(name),
            row.ns[i],
            row.count[i]
        );
        first = false;
    }
    s.push_str("}}");
    s
}

/// One `grid-small` spec, run the way the experiment grids run theirs.
struct GridRun {
    family: Family,
    /// The report and its `to_json` line; `None` if `start` refused.
    report: Option<(RunReport, String)>,
    start_us: f64,
    drive_us: f64,
    report_us: f64,
    step_ms: Vec<f64>,
    failure: Option<String>,
}

fn grid_run(
    registry: &byzclock::scenario::ProtocolRegistry,
    family: Family,
    line: &str,
    spec: &ScenarioSpec,
    traced: bool,
) -> GridRun {
    let mut out = GridRun {
        family,
        report: None,
        start_us: 0.0,
        drive_us: 0.0,
        report_us: 0.0,
        step_ms: Vec::new(),
        failure: None,
    };
    let t = Instant::now();
    let mut run = match registry.start(spec) {
        Ok(run) => run,
        Err(e) => {
            out.failure = Some(format!("`{line}`: {e}"));
            return out;
        }
    };
    out.start_us = t.elapsed().as_secs_f64() * 1e6;
    let mut timer = StepTimer::new(run.as_mut(), false);
    let t = Instant::now();
    let report = drive(&mut timer, spec, DEFAULT_SYNC_WINDOW);
    out.drive_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    if traced {
        // `drive` has already paid this once inside; the traced run
        // repeats it where it can be timed.
        std::hint::black_box(TrafficSummary::of(timer.traffic()));
    }
    let json = report.to_json();
    out.report_us = t.elapsed().as_secs_f64() * 1e6;
    out.step_ms = timer.step_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    if timer.modulus().is_some() && report.converged_at.is_none() {
        out.failure = Some(format!(
            "`{line}`: converged_at is null after {} beats",
            report.beats
        ));
    }
    out.report = Some((report, json));
    out
}

/// `grid-small`, either mode: whole cycles of short convergence-mode
/// specs until the measuring time is used up. The ScenarioRun seam is the
/// only one traced here, and [`StepTimer`] sits on it in both modes, so
/// the modes differ in what they report, not in what they run.
pub fn grid(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // Set-up: the registry and one cycle of parsed specs. Per-spec `start`
    // is inside the timed region, because users pay it on every run.
    let parse_cycle = |cycle: usize| -> Result<Vec<(Family, String, ScenarioSpec)>, String> {
        (cycle * GRID_CYCLE..(cycle + 1) * GRID_CYCLE)
            .map(|i| {
                let (family, line) = grid_spec(seed, i);
                let spec = ScenarioSpec::parse(&line).map_err(|e| format!("`{line}`: {e}"))?;
                Ok((family, line, spec))
            })
            .collect()
    };
    let mut setups = Vec::new();
    for _ in 0..GRID_SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box((default_registry(), parse_cycle(0)?));
        setups.push(t.elapsed().as_secs_f64());
    }
    let registry = default_registry();

    let mut runs: Vec<GridRun> = Vec::new();
    let mut cycle_s: Vec<f64> = Vec::new();
    while cycle_s.len() < GRID_PINNED_CYCLES || cycle_s.iter().sum::<f64>() < seconds {
        let specs = parse_cycle(cycle_s.len())?;
        let t = Instant::now();
        for (family, line, spec) in &specs {
            runs.push(grid_run(&registry, *family, line, spec, traced));
        }
        cycle_s.push(t.elapsed().as_secs_f64());
    }
    let wall_s: f64 = cycle_s.iter().sum();

    let failures: Vec<String> = runs.iter().filter_map(|r| r.failure.clone()).collect();
    let pinned = &runs[..GRID_PINNED_CYCLES * GRID_CYCLE];
    let mut digest = FNV_OFFSET;
    for run in pinned {
        fnv1a(&mut digest, run.report.as_ref().map_or("error", |r| &r.1));
    }
    // Sums `f` over the reports of the specs that started.
    let sum = |f: &dyn Fn(&RunReport) -> u64| {
        runs.iter()
            .filter_map(|r| r.report.as_ref())
            .map(|r| f(&r.0))
            .sum::<u64>()
    };
    let beats = sum(&|r| r.beats);
    let step_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    let n_note = format!(
        "N = {} specs ({} cycles of {GRID_CYCLE}) = {beats} beats in {wall_s:.3} s; counters are \
         over the first {GRID_PINNED_CYCLES} cycles",
        runs.len(),
        cycle_s.len(),
    );

    if !traced {
        // A cycle is `grid-small`'s lap: the same templates every time.
        // Per cycle, the mean step and the beats per second of wall
        // (`start`, `drive` and `to_json` of every spec included).
        let (cycle_means, cycle_rates): (Vec<f64>, Vec<f64>) = runs
            .chunks(GRID_CYCLE)
            .zip(&cycle_s)
            .map(|(cycle, wall_s)| {
                let steps = cycle.iter().map(|r| r.step_ms.len()).sum::<usize>();
                let step_ms = cycle.iter().flat_map(|r| &r.step_ms).sum::<f64>();
                (step_ms / steps.max(1) as f64, steps as f64 / wall_s)
            })
            .unzip();
        let mean = |f: &dyn Fn(&TrafficSummary) -> f64| {
            let cells = pinned.iter().filter_map(|r| r.report.as_ref());
            cells.map(|r| f(&r.0.traffic)).sum::<f64>() / pinned.len() as f64
        };
        let mut m = Values::zeroed(&END_TO_END);
        m.set("setup_s", stats::median(&setups));
        m.set("beats_per_s", stats::median(&cycle_rates));
        m.set("beat_ms_p50", stats::median(&cycle_means));
        m.set("peak_rss_mb", peak_rss_mb());
        // The mean grid cell: each spec's own bytes per beat, every spec
        // counting once. (Σ bytes ÷ Σ beats would follow whichever cheap
        // spec happened to take a thousand beats to converge.)
        m.set("bytes_per_beat", mean(&|t| t.mean_correct_bytes_per_beat));
        m.set("msgs_per_beat", mean(&|t| t.mean_correct_msgs_per_beat));
        return Ok(Outcome {
            attempted: runs.len() as u64,
            failed: failures.len() as u64,
            failures,
            metrics: m,
            digest,
            notes: vec![
                n_note,
                format!(
                    "setup_s is the median of {GRID_SETUP_REPS} set-ups (registry + one cycle of \
                     parsed specs)"
                ),
            ],
            trace_lines: Vec::new(),
        });
    }

    let mut m = Values::zeroed(&PER_LAYER);
    let (tail, rank) = stats::tail(&step_ms);
    m.set("sim.step.tail_ms", tail);
    m.set("sim.step.max_ms", stats::max(&step_ms));
    m.set(
        "sim.byz_msgs_per_beat",
        sum(&|r| r.traffic.byz_msgs) as f64 / beats.max(1) as f64,
    );
    m.set("sim.phantom_msgs", sum(&|r| r.traffic.phantom_msgs) as f64);
    m.set(
        "sim.forged_dropped",
        sum(&|r| r.traffic.forged_dropped) as f64,
    );
    let column = |f: &dyn Fn(&GridRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    m.set(
        "core.scenario.start_us_p50",
        stats::median(&column(&|r| r.start_us)),
    );
    m.set(
        "core.scenario.report_us_p50",
        stats::median(&column(&|r| r.report_us)),
    );
    let drive_ms: f64 = runs.iter().map(|r| r.drive_us / 1e3).sum();
    m.set(
        "core.drive.self_ms",
        (drive_ms - step_ms.iter().sum::<f64>()) / step_ms.len().max(1) as f64,
    );
    let to_sync: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.report.as_ref()?.0.beats_to_sync())
        .map(|b| b as f64)
        .collect();
    let mean_to_sync = to_sync.iter().sum::<f64>() / to_sync.len().max(1) as f64;
    m.set("core.sync.converged_at", mean_to_sync);
    m.set("core.sync.mean_beats_to_sync", mean_to_sync);
    let spec_us = |r: &GridRun| r.start_us + r.drive_us + r.report_us;
    let all_us: f64 = runs.iter().map(spec_us).sum();
    let share = |family: Family| {
        let us: f64 = runs
            .iter()
            .filter(|r| r.family == family)
            .map(spec_us)
            .sum();
        100.0 * us / all_us.max(1.0)
    };
    m.set("baselines.share_pct", share(Family::Baselines));
    m.set("core.bd.share_pct", share(Family::BoundedDelay));
    m.set("coin.share_pct", share(Family::Coin));
    // The ticket specs run the field kernels at n = 4, 7 and 13; the
    // largest is where their time goes.
    set_field_timings(&mut m, micro::field_timings(13, 4, seed));

    let mut trace_lines = vec![format!(
        "{{\"workload\":\"grid-small\",\"seed\":{seed},\"specs\":{}}}",
        runs.len()
    )];
    for (i, r) in runs.iter().enumerate() {
        trace_lines.push(format!(
            "{{\"spec\":{},\"family\":\"{:?}\",\"beats\":{},\"start_us\":{:.1},\
             \"drive_us\":{:.1},\"to_json_us\":{:.1},\"step_us\":{:.1}}}",
            json::quote(&grid_spec(seed, i).1),
            r.family,
            r.report.as_ref().map_or(0, |r| r.0.beats),
            r.start_us,
            r.drive_us,
            r.report_us,
            r.step_ms.iter().sum::<f64>() * 1e3,
        ));
    }
    Ok(Outcome {
        attempted: runs.len() as u64,
        failed: failures.len() as u64,
        failures,
        metrics: m,
        digest,
        notes: vec![
            n_note,
            format!(
                "sim.step.tail_ms is the {rank}th-largest of N = {} (p{:.2}); the remaining share \
                 of the wall is clock-sync over the oracle beacon ({:.1} %)",
                step_ms.len(),
                stats::percentile_of_rank(rank, step_ms.len()),
                share(Family::Oracle),
            ),
        ],
        trace_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{steady, STEADY};

    /// A steady workload at reduced beat counts: same spec line, same
    /// shape, fewer beats.
    fn reduced(name: &'static str, warmup: u64, lap: u64) -> Steady {
        Steady {
            warmup,
            lap,
            counted_laps: 1,
            ..*steady(name).expect("a steady workload")
        }
    }

    /// Beat counts that keep `cargo test` in seconds while still filling
    /// the coin pipelines, crossing `hostile-n13`'s first round of faults,
    /// and letting `delay-n100` converge.
    fn reduced_workloads() -> [Steady; 5] {
        [
            reduced("full-n32", 5, 2),
            reduced("committee-n256", 3, 2),
            reduced("oracle-n256", 20, 12),
            reduced("hostile-n13", 50, 250),
            reduced("delay-n100", 80, 40),
        ]
    }

    #[test]
    fn the_traced_build_renders_the_registry_s_report_byte_for_byte() {
        assert_eq!(reduced_workloads().len(), STEADY.len());
        for w in reduced_workloads() {
            let line = w.spec_line(5, w.warmup + w.lap);
            let spec = ScenarioSpec::parse(&line).unwrap();
            let expected = default_registry().run_exact(&spec).unwrap().to_json();
            let mut run = start_traced(&spec).unwrap();
            let mut timer = StepTimer::new(&mut *run, true);
            let report = drive_exact(&mut timer, &spec, DEFAULT_SYNC_WINDOW);
            assert_eq!(report.to_json(), expected, "{}", w.name);
            assert_eq!(report.beats, w.warmup + w.lap);
            trace::take_rows();
        }
    }

    #[test]
    fn self_times_sum_to_the_step_span_and_spans_nest() {
        for w in reduced_workloads() {
            let spec = parse_spec(&w, 2).unwrap();
            let mut run = start_traced(&spec).unwrap();
            trace::take_rows();
            let mut laps = LapRun::warm_up(&mut *run, spec, &w, true);
            laps.lap();
            let has_clock = laps.finish().sync.is_some();
            let rows = trace::take_rows();
            assert_eq!(rows.len() as u64, w.warmup + w.lap, "{}", w.name);
            for row in &rows {
                // Children never outlast their parents, so no layer's
                // self time is negative...
                assert!(row.app_ns() <= row.step_ns, "{} beat {}", w.name, row.beat);
                assert!(row.rand_ns() + row.coin_ns() <= 2 * row.app_ns());
                assert!(row.rand_ns() == 0 || row.coin_ns() <= row.rand_ns());
                // ...and per beat the layers add up to the step span.
                let l = Layers::split(std::slice::from_ref(row), has_clock);
                let sum = l.runner_ns + l.clock_ns + l.pipeline_ns + l.coin_ns;
                let off = (sum as f64 - l.step_ns as f64).abs() / l.step_ns as f64;
                assert!(off < 0.01, "{} beat {}: {off}", w.name, row.beat);
            }
            // The layer each bypass workload skips reads exactly zero.
            let l = Layers::split(&rows, has_clock);
            let coinless = matches!(w.name, "oracle-n256" | "delay-n100");
            assert_eq!(l.coin_ns == 0 && l.pipeline_ns == 0, coinless, "{}", w.name);
        }
    }

    #[test]
    fn laps_add_up_to_the_run_exact_of_all_their_beats() {
        let w = reduced("oracle-n256", 10, 6);
        let registry = default_registry();
        let spec = parse_spec(&w, 9).unwrap();
        let mut run = registry.start(&spec).unwrap();
        let mut laps = LapRun::warm_up(run.as_mut(), spec.clone(), &w, false);
        for _ in 0..3 {
            laps.lap();
        }
        let laps = laps.finish();
        let mut whole = spec.clone();
        whole.beat_budget = w.warmup + 3 * w.lap;
        let expected = registry.run_exact(&whole).unwrap();
        assert_eq!(
            laps.sync,
            Some((expected.converged_at, expected.final_streak))
        );
        assert!(expected.converged_at.is_some(), "{expected:?}");
        assert_eq!(laps.last.traffic, expected.traffic);
        assert_eq!(laps.last.final_clocks, expected.final_clocks);
        assert_eq!(laps.step_ms.len() as u64, 3 * w.lap);
        assert!(steady_failures(&w, &laps).is_empty());
        // The warm-up report is `run_exact` of the warm-up budget itself.
        assert_eq!(
            laps.warm.to_json(),
            registry.run_exact(&spec).unwrap().to_json()
        );
    }

    #[test]
    fn every_grid_template_runs_and_converges() {
        let registry = default_registry();
        for i in 0..GRID_CYCLE {
            let (family, line) = grid_spec(3, i);
            let spec = ScenarioSpec::parse(&line).unwrap();
            let run = grid_run(&registry, family, &line, &spec, true);
            assert_eq!(run.failure, None);
            assert!(run.report.is_some_and(|r| r.0.beats > 0), "{line}");
        }
    }
}
