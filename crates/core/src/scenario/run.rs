//! Type-erased running scenarios and the [`RunReport`] they produce.

use super::spec::ScenarioSpec;
use crate::clock::{all_synced, DigitalClock, SyncTracker};
use byzclock_sim::{Adversary, Application, Simulation, TimingModel, TrafficStats};

/// Stability window used by [`drive`] by default: the system must stay
/// clock-synched *and incrementing* this many beats before a run counts as
/// converged (Definition 3.2).
pub const DEFAULT_SYNC_WINDOW: u64 = 8;

/// A started scenario with the protocol and adversary types erased —
/// what a [`super::ProtocolRegistry`] hands back so grids of heterogeneous
/// protocols can be driven by one loop.
pub trait ScenarioRun {
    /// Executes one beat.
    fn step(&mut self);

    /// Beats executed so far.
    fn beat(&self) -> u64;

    /// The clock modulus, or `None` for non-clock scenarios (the
    /// standalone coin stream).
    fn modulus(&self) -> Option<u64>;

    /// Current clock readings of the correct nodes (empty for non-clock
    /// scenarios).
    fn clock_readings(&self) -> Vec<Option<u64>>;

    /// The value all correct clocks agree on right now, if any
    /// (Definition 3.1).
    fn synced(&self) -> Option<u64> {
        let readings = self.clock_readings();
        if readings.is_empty() {
            None
        } else {
            all_synced(readings)
        }
    }

    /// Traffic accounting so far.
    fn traffic(&self) -> &TrafficStats;

    /// Protocol-specific named metrics sampled at reporting time (e.g.
    /// the 4-clock's `a2_step_ratio`, the coin stream's `p0`/`p1`).
    fn extras(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// A protocol-specific metrics sampler attached to a [`ClockRun`].
type ExtrasFn<A, Adv> = Box<dyn Fn(&Simulation<A, Adv>) -> Vec<(String, f64)>>;

/// Timing-model extras every scenario adapter appends to its report:
/// nothing under lockstep (reports stay byte-identical to the
/// pre-timing-model era), and under bounded delay the window width, the
/// mean observed delay, and the full observed-delay histogram
/// (`delay_hist_d` = messages that arrived `d` beats after sending).
pub fn delay_extras(timing: TimingModel, histogram: &[u64]) -> Vec<(String, f64)> {
    match timing {
        TimingModel::Lockstep => Vec::new(),
        TimingModel::BoundedDelay { window } => {
            let total: u64 = histogram.iter().sum();
            let mean = if total == 0 {
                0.0
            } else {
                histogram
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| d as f64 * c as f64)
                    .sum::<f64>()
                    / total as f64
            };
            let mut extras = vec![
                ("delay_window".to_string(), window as f64),
                ("mean_delay".to_string(), mean),
            ];
            extras.extend(
                histogram
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| (format!("delay_hist_{d}"), c as f64)),
            );
            extras
        }
    }
}

/// The standard [`ScenarioRun`] adapter: any simulated [`DigitalClock`]
/// application plus any adversary.
pub struct ClockRun<A, Adv>
where
    A: Application + DigitalClock,
    Adv: Adversary<A::Msg>,
{
    sim: Simulation<A, Adv>,
    extras_fn: Option<ExtrasFn<A, Adv>>,
}

impl<A, Adv> ClockRun<A, Adv>
where
    A: Application + DigitalClock,
    Adv: Adversary<A::Msg>,
{
    /// Wraps a built simulation.
    pub fn new(sim: Simulation<A, Adv>) -> Self {
        ClockRun {
            sim,
            extras_fn: None,
        }
    }

    /// Wraps a simulation with a protocol-specific metrics sampler.
    pub fn with_extras(
        sim: Simulation<A, Adv>,
        extras_fn: impl Fn(&Simulation<A, Adv>) -> Vec<(String, f64)> + 'static,
    ) -> Self {
        ClockRun {
            sim,
            extras_fn: Some(Box::new(extras_fn)),
        }
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &Simulation<A, Adv> {
        &self.sim
    }
}

impl<A, Adv> ScenarioRun for ClockRun<A, Adv>
where
    A: Application + DigitalClock,
    Adv: Adversary<A::Msg>,
{
    fn step(&mut self) {
        self.sim.step();
    }

    fn beat(&self) -> u64 {
        self.sim.beat()
    }

    fn modulus(&self) -> Option<u64> {
        self.sim.correct_apps().next().map(|(_, a)| a.modulus())
    }

    fn clock_readings(&self) -> Vec<Option<u64>> {
        self.sim.correct_apps().map(|(_, a)| a.read()).collect()
    }

    fn traffic(&self) -> &TrafficStats {
        self.sim.stats()
    }

    fn extras(&self) -> Vec<(String, f64)> {
        let mut extras = self
            .extras_fn
            .as_ref()
            .map_or_else(Vec::new, |f| f(&self.sim));
        extras.extend(delay_extras(self.sim.timing(), self.sim.delay_histogram()));
        extras
    }
}

/// Traffic totals of a finished run, aggregated for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficSummary {
    /// Envelopes sent by correct nodes.
    pub correct_msgs: u64,
    /// Encoded payload bytes sent by correct nodes.
    pub correct_bytes: u64,
    /// Envelopes sent by Byzantine nodes.
    pub byz_msgs: u64,
    /// Encoded payload bytes sent by Byzantine nodes.
    pub byz_bytes: u64,
    /// Forged envelopes dropped by the authenticated network.
    pub forged_dropped: u64,
    /// Phantom envelopes injected by fault events.
    pub phantom_msgs: u64,
    /// Mean correct-node envelopes per beat.
    pub mean_correct_msgs_per_beat: f64,
    /// Mean correct-node payload bytes per beat.
    pub mean_correct_bytes_per_beat: f64,
}

impl TrafficSummary {
    /// Aggregates a run's per-beat history.
    pub fn of(stats: &TrafficStats) -> Self {
        let mut s = TrafficSummary {
            mean_correct_msgs_per_beat: stats.mean_correct_msgs_per_beat(),
            mean_correct_bytes_per_beat: stats.mean_correct_bytes_per_beat(),
            ..TrafficSummary::default()
        };
        for b in stats.per_beat() {
            s.correct_msgs += b.correct_msgs;
            s.correct_bytes += b.correct_bytes;
            s.byz_msgs += b.byz_msgs;
            s.byz_bytes += b.byz_bytes;
            s.forged_dropped += b.forged_dropped;
            s.phantom_msgs += b.phantom_msgs;
        }
        s
    }
}

/// Everything a finished scenario run reports: convergence, sync quality,
/// traffic, and protocol-specific extras — one comparable, serializable
/// struct for every protocol in the registry.
///
/// Reports are deterministic: the same [`ScenarioSpec`] always yields an
/// identical (`==`) report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The spec line this run executed (parseable back into the spec).
    pub spec: String,
    /// Beats executed.
    pub beats: u64,
    /// Beat at which the stable sync streak began (Definition 3.2),
    /// measured from the end of the last scheduled fault; `None` if the
    /// budget ran out first or the scenario has no clock.
    pub converged_at: Option<u64>,
    /// Beat from which sync tracking started (0 for clean/corrupt-start
    /// runs, the end of the last scheduled fault otherwise).
    pub measured_from: u64,
    /// Clock readings of the correct nodes at the end of the run.
    pub final_clocks: Vec<Option<u64>>,
    /// Length of the sync streak still standing at the end of the run.
    pub final_streak: u64,
    /// Aggregated traffic.
    pub traffic: TrafficSummary,
    /// Protocol-specific named metrics.
    pub extras: Vec<(String, f64)>,
}

impl RunReport {
    /// Convergence time relative to the run's measurement start (the end
    /// of the last scheduled fault) — the number every table cell wants.
    /// `None` while unconverged.
    pub fn beats_to_sync(&self) -> Option<u64> {
        self.converged_at
            .map(|b| b.saturating_sub(self.measured_from))
    }

    /// A named extra metric, if the protocol reported it.
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extras.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Hand-rolled JSON rendering (the build environment has no serde);
    /// stable key order, suitable for log archiving.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "{{\"spec\":{:?},\"beats\":{}", self.spec, self.beats);
        match self.converged_at {
            Some(b) => {
                let _ = write!(s, ",\"converged_at\":{b}");
            }
            None => s.push_str(",\"converged_at\":null"),
        }
        let _ = write!(s, ",\"measured_from\":{}", self.measured_from);
        let _ = write!(s, ",\"final_streak\":{}", self.final_streak);
        s.push_str(",\"final_clocks\":[");
        for (i, c) in self.final_clocks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match c {
                Some(v) => {
                    let _ = write!(s, "{v}");
                }
                None => s.push_str("null"),
            }
        }
        let t = &self.traffic;
        let _ = write!(
            s,
            "],\"traffic\":{{\"correct_msgs\":{},\"correct_bytes\":{},\"byz_msgs\":{},\
             \"byz_bytes\":{},\"forged_dropped\":{},\"phantom_msgs\":{},\
             \"mean_correct_msgs_per_beat\":{:.3},\"mean_correct_bytes_per_beat\":{:.3}}}",
            t.correct_msgs,
            t.correct_bytes,
            t.byz_msgs,
            t.byz_bytes,
            t.forged_dropped,
            t.phantom_msgs,
            t.mean_correct_msgs_per_beat,
            t.mean_correct_bytes_per_beat,
        );
        s.push_str(",\"extras\":{");
        for (i, (k, v)) in self.extras.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{k:?}:{v:.6}");
        }
        s.push_str("}}");
        s
    }

    /// Parses a [`RunReport::to_json`] line back into a report — the
    /// decode half of the report codec, for sweep workers streaming
    /// reports across a process boundary and for resumable sweep
    /// manifests. Defensive like `Wire::decode`: malformed, truncated, or
    /// forged input yields `None`, never a panic.
    ///
    /// Floats travel at `to_json`'s decimal precision (3 places for the
    /// traffic means, 6 for extras), so `from_json` is not an exact
    /// inverse of the in-memory report — but it *is* exact at the JSON
    /// level: `r.to_json() == RunReport::from_json(&r.to_json())?.to_json()`
    /// always holds (pinned by a unit test below), which is what makes a
    /// process-sharded sweep's JSONL output byte-identical to an
    /// in-process one.
    pub fn from_json(s: &str) -> Option<RunReport> {
        let v = json::parse(s.trim())?;
        let opt_u64 = |v: &json::Value| match v {
            json::Value::Null => Some(None),
            other => other.as_u64().map(Some),
        };
        let t = v.get("traffic")?;
        Some(RunReport {
            spec: v.get("spec")?.as_str()?.to_string(),
            beats: v.get("beats")?.as_u64()?,
            converged_at: opt_u64(v.get("converged_at")?)?,
            measured_from: v.get("measured_from")?.as_u64()?,
            final_clocks: v
                .get("final_clocks")?
                .as_arr()?
                .iter()
                .map(opt_u64)
                .collect::<Option<Vec<_>>>()?,
            final_streak: v.get("final_streak")?.as_u64()?,
            traffic: TrafficSummary {
                correct_msgs: t.get("correct_msgs")?.as_u64()?,
                correct_bytes: t.get("correct_bytes")?.as_u64()?,
                byz_msgs: t.get("byz_msgs")?.as_u64()?,
                byz_bytes: t.get("byz_bytes")?.as_u64()?,
                forged_dropped: t.get("forged_dropped")?.as_u64()?,
                phantom_msgs: t.get("phantom_msgs")?.as_u64()?,
                mean_correct_msgs_per_beat: t.get("mean_correct_msgs_per_beat")?.as_f64()?,
                mean_correct_bytes_per_beat: t.get("mean_correct_bytes_per_beat")?.as_f64()?,
            },
            extras: v
                .get("extras")?
                .as_obj()?
                .iter()
                .map(|(k, val)| val.as_f64().map(|f| (k.clone(), f)))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A minimal recursive-descent JSON reader for the report codec.
///
/// Scope-matched to what [`RunReport::to_json`] emits (the workspace has
/// no serde): objects keep key order, numbers stay as their source text
/// so `u64` fields never round through `f64`, and the non-standard float
/// tokens `to_json` can produce (`NaN`, `inf`, `-inf` — Rust's `{:.6}`
/// renderings) are accepted. Anything else malformed parses to `None`.
mod json {
    /// One parsed JSON value.
    pub enum Value {
        /// `null`.
        Null,
        /// A number, kept as its source text.
        Num(String),
        /// A string, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source key order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(pairs) => Some(pairs),
                _ => None,
            }
        }
    }

    /// Parses one complete JSON value; trailing garbage fails the parse.
    pub fn parse(s: &str) -> Option<Value> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.b.len() {
            Some(v)
        } else {
            None
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
        depth: u32,
    }

    /// Forged input cannot allocate unbounded recursion frames.
    const MAX_DEPTH: u32 = 64;

    impl Parser<'_> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Option<()> {
            self.ws();
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Some(())
            } else {
                None
            }
        }

        fn lit(&mut self, word: &str) -> Option<()> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Some(())
            } else {
                None
            }
        }

        fn value(&mut self) -> Option<Value> {
            if self.depth >= MAX_DEPTH {
                return None;
            }
            self.depth += 1;
            self.ws();
            let v = match self.b.get(self.i)? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => self.string().map(Value::Str),
                b'n' => self.lit("null").map(|()| Value::Null),
                _ => self.number(),
            };
            self.depth -= 1;
            v
        }

        fn object(&mut self) -> Option<Value> {
            self.eat(b'{')?;
            let mut pairs = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Some(Value::Obj(pairs));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.eat(b':')?;
                pairs.push((key, self.value()?));
                self.ws();
                match self.b.get(self.i)? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Some(Value::Obj(pairs));
                    }
                    _ => return None,
                }
            }
        }

        fn array(&mut self) -> Option<Value> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.b.get(self.i)? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }

        /// Strings are produced by `{:?}` on the encode side, so both the
        /// JSON escapes and Rust's `\u{…}` form are accepted.
        fn string(&mut self) -> Option<String> {
            if self.b.get(self.i) != Some(&b'"') {
                return None;
            }
            self.i += 1;
            let mut out = Vec::new();
            loop {
                match *self.b.get(self.i)? {
                    b'"' => {
                        self.i += 1;
                        return String::from_utf8(out).ok();
                    }
                    b'\\' => {
                        self.i += 1;
                        match *self.b.get(self.i)? {
                            c @ (b'"' | b'\\' | b'/' | b'\'') => {
                                out.push(c);
                                self.i += 1;
                            }
                            b'n' => {
                                out.push(b'\n');
                                self.i += 1;
                            }
                            b't' => {
                                out.push(b'\t');
                                self.i += 1;
                            }
                            b'r' => {
                                out.push(b'\r');
                                self.i += 1;
                            }
                            b'0' => {
                                out.push(0);
                                self.i += 1;
                            }
                            b'u' => {
                                self.i += 1;
                                let c = self.unicode_escape()?;
                                let mut buf = [0u8; 4];
                                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            }
                            _ => return None,
                        }
                    }
                    c => {
                        out.push(c);
                        self.i += 1;
                    }
                }
            }
        }

        fn unicode_escape(&mut self) -> Option<char> {
            let hex = if self.b.get(self.i) == Some(&b'{') {
                // Rust-style \u{…}.
                self.i += 1;
                let start = self.i;
                while self.b.get(self.i)? != &b'}' {
                    self.i += 1;
                }
                let hex = &self.b[start..self.i];
                self.i += 1; // closing brace
                hex
            } else {
                // JSON-style \uXXXX (surrogate pairs unsupported).
                let start = self.i;
                self.i = self.i.checked_add(4)?;
                self.b.get(start..self.i)?
            };
            let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
            char::from_u32(code)
        }

        fn number(&mut self) -> Option<Value> {
            let start = self.i;
            while matches!(
                self.b.get(self.i),
                Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'+' | b'-' | b'.')
            ) {
                self.i += 1;
            }
            let tok = std::str::from_utf8(&self.b[start..self.i]).ok()?;
            // Rust's f64 parser already accepts `inf`, `-inf`, and `NaN` —
            // exactly the non-standard tokens `{:.6}` can emit.
            tok.parse::<f64>().ok()?;
            Some(Value::Num(tok.to_string()))
        }
    }
}

/// Drives a started run to completion and reports.
///
/// Clock scenarios run until the correct nodes have been clock-synched and
/// incrementing for `window` consecutive beats (counted only after the
/// last scheduled fault — recovery experiments measure recovery, not the
/// pre-fault warm-up), or until the beat budget is exhausted. Non-clock
/// scenarios (coin streams) run the full budget.
pub fn drive(run: &mut dyn ScenarioRun, spec: &ScenarioSpec, window: u64) -> RunReport {
    drive_impl(run, spec, window, true)
}

/// Like [`drive`], but always executes the spec's entire beat budget;
/// `converged_at` still reports the first stable streak. The mode for
/// steady-state measurements (traffic per beat, closure checks).
pub fn drive_exact(run: &mut dyn ScenarioRun, spec: &ScenarioSpec, window: u64) -> RunReport {
    drive_impl(run, spec, window, false)
}

fn drive_impl(
    run: &mut dyn ScenarioRun,
    spec: &ScenarioSpec,
    window: u64,
    stop_at_sync: bool,
) -> RunReport {
    let budget = spec.beat_budget;
    let measure_from = spec.fault_plan.measurement_start();
    let mut converged_at = None;
    let mut final_streak = 0;
    match run.modulus() {
        None => {
            while run.beat() < budget {
                run.step();
            }
        }
        Some(k) => {
            while run.beat() < measure_from.min(budget) {
                run.step();
            }
            let mut tracker = SyncTracker::new(k);
            while run.beat() < budget {
                run.step();
                tracker.observe(run.synced());
                if tracker.streak_len() >= window && converged_at.is_none() {
                    converged_at = Some(run.beat() - tracker.streak_len());
                    if stop_at_sync {
                        break;
                    }
                }
            }
            final_streak = tracker.streak_len();
        }
    }
    RunReport {
        spec: spec.to_string(),
        beats: run.beat(),
        converged_at,
        measured_from: measure_from,
        final_clocks: run.clock_readings(),
        final_streak,
        traffic: TrafficSummary::of(run.traffic()),
        extras: run.extras(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            spec: "clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start \
                   seed=3 budget=3000"
                .to_string(),
            beats: 41,
            converged_at: Some(33),
            measured_from: 0,
            final_clocks: vec![Some(5), None, Some(5), Some(5), Some(5)],
            final_streak: 8,
            traffic: TrafficSummary {
                correct_msgs: 12_345,
                correct_bytes: 987_654_321,
                byz_msgs: 17,
                byz_bytes: 2_048,
                forged_dropped: 3,
                phantom_msgs: 100,
                mean_correct_msgs_per_beat: 301.097,
                mean_correct_bytes_per_beat: 61_408.333,
            },
            extras: vec![
                ("p0".to_string(), 0.718_281),
                ("delay_hist_0".to_string(), 120.0),
                ("weird".to_string(), f64::NAN),
            ],
        }
    }

    #[test]
    fn report_json_round_trips_field_for_field() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).expect("own output parses");
        assert_eq!(parsed.spec, report.spec);
        assert_eq!(parsed.beats, report.beats);
        assert_eq!(parsed.converged_at, report.converged_at);
        assert_eq!(parsed.measured_from, report.measured_from);
        assert_eq!(parsed.final_clocks, report.final_clocks);
        assert_eq!(parsed.final_streak, report.final_streak);
        assert_eq!(parsed.traffic, report.traffic);
        // NaN breaks plain Vec equality; compare keys and finite values.
        assert_eq!(parsed.extras.len(), report.extras.len());
        for ((ka, va), (kb, vb)) in parsed.extras.iter().zip(&report.extras) {
            assert_eq!(ka, kb);
            assert!(va == vb || (va.is_nan() && vb.is_nan()));
        }
    }

    #[test]
    fn report_json_round_trip_is_identity_at_the_json_level() {
        // The property the process-sharded sweep backend stands on: a
        // report that crossed the JSONL boundary re-serializes to the
        // byte-identical line.
        let json = sample_report().to_json();
        let reparsed = RunReport::from_json(&json).expect("parses");
        assert_eq!(reparsed.to_json(), json);
        // And again, to pin idempotence rather than one lucky round.
        assert_eq!(
            RunReport::from_json(&reparsed.to_json()).unwrap().to_json(),
            json
        );
    }

    #[test]
    fn unconverged_and_extra_less_reports_round_trip() {
        let mut report = sample_report();
        report.converged_at = None;
        report.extras.clear();
        report.final_clocks = vec![None, None];
        let json = report.to_json();
        assert!(json.contains("\"converged_at\":null"));
        assert_eq!(RunReport::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn malformed_report_json_is_rejected_not_panicked() {
        let json = sample_report().to_json();
        // Every strict prefix is truncated input; none may parse or panic.
        for cut in 0..json.len() {
            assert!(
                RunReport::from_json(&json[..cut]).is_none(),
                "truncation at {cut} parsed"
            );
        }
        for garbage in [
            "",
            "not json at all",
            "{}",
            "{\"spec\":3}",
            "[1,2,3]",
            "{\"spec\":\"x\",\"beats\":-1}",
            "{\"spec\":\"unterminated",
        ] {
            assert!(
                RunReport::from_json(garbage).is_none(),
                "`{garbage}` parsed"
            );
        }
        // Trailing garbage after a valid report is forgery, not noise.
        assert!(RunReport::from_json(&format!("{json}x")).is_none());
    }
}
