//! The grid runner: one shared-queue coordinator over thread or
//! subprocess workers, with resumable manifests.
//!
//! [`sweep_specs`] is the workspace's one grid runner: a
//! `Vec<ScenarioSpec> → Vec<Result<RunReport>>` contract over a
//! [`SweepBackend`] — [`SweepBackend::Threads`] runs the grid on scoped
//! worker threads in this process, [`SweepBackend::Processes`] shards it
//! across worker *subprocesses*. Both are the same scheduler with two
//! kinds of worker: every worker slot pulls the next spec index off one
//! shared queue, so a heterogeneous grid (a 300 000-beat `dw-clock` cell
//! beside millisecond two-clock cells) balances itself. Either way the
//! results come back **in input order**, so aggregation is deterministic
//! regardless of scheduling, and for any grid the two backends produce
//! byte-identical `RunReport::to_json` lines (pinned by
//! `tests/shard_backend.rs` and a CI smoke diff).
//!
//! # The worker protocol
//!
//! A worker is any process that speaks one line of text per spec:
//!
//! ```text
//! stdin :  one canonical ScenarioSpec line per job
//! stdout:  one JSON line per job, in input order — either the
//!          RunReport::to_json of the finished run, or
//!          {"error":"<message>"} if the spec itself is unrunnable
//! ```
//!
//! Workers exit when stdin closes. The `experiments` binary is its own
//! worker (`experiments worker`), so the default [`SweepOptions::worker`]
//! command is simply a re-exec of the current executable; the coordinator
//! exports `BYZCLOCK_WORKER_EXACT=1` when [`SweepOptions::exact`] asks
//! for full-budget (`run_exact`) semantics, so wrapper scripts inherit
//! the mode for free. This line protocol deliberately carries no session
//! state — it is the same protocol a multi-*machine* backend can speak
//! over a socket later.
//!
//! Reports cross the boundary through [`RunReport::from_json`], which is
//! exact at the JSON level, so `--jsonl` archives are byte-identical
//! whichever backend produced them.
//!
//! # Failure handling
//!
//! Each process-backend slot keeps one worker subprocess alive. A worker
//! that dies (crash, killed, or stdout EOF), emits a malformed or
//! mismatched report line, or blows the per-spec
//! [`SweepOptions::timeout`] is killed and respawned, and the spec is
//! **requeued** on the shared queue — a surviving worker (or the respawn)
//! picks it up — with a bounded per-spec retry budget
//! ([`SweepOptions::retries`]). A spec that exhausts its budget reports
//! [`ScenarioError::Sweep`]; spec-level errors relayed by a healthy
//! worker (`{"error":…}` lines) are terminal immediately, exactly like
//! the thread backend's per-spec errors.
//!
//! # The manifest
//!
//! [`SweepOptions::manifest`] names an append-only JSONL file of
//! completed work: one `{"mode":"converge|exact","report":{…}}` line per
//! finished spec, flushed as results land, keyed by the **canonical spec
//! line** (`ScenarioSpec::to_string`, which `RunReport.spec` echoes). On
//! start, specs whose key is already present (under the same mode) are
//! served from the manifest without running; everything else runs and is
//! appended. Malformed lines — say, the torn tail of a crashed
//! coordinator — are skipped, so a manifest is always safe to resume
//! from. Both backends honor the manifest, and the key is
//! backend-agnostic, so a sweep can be started under threads, killed, and
//! finished under processes (or vice versa).

use byzclock::scenario::{json, ProtocolRegistry, RunReport, ScenarioError, ScenarioSpec};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// One spec's sweep outcome.
pub type SweepResult = Result<RunReport, ScenarioError>;

/// Which execution substrate runs a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepBackend {
    /// Scoped worker threads in this process.
    Threads(usize),
    /// Worker subprocesses speaking the [module-level](self) line
    /// protocol.
    Processes {
        /// Number of worker processes to keep alive.
        workers: usize,
    },
}

impl SweepBackend {
    /// Parses the CLI form: `threads[:N]` or `procs[:N]`; a missing `N`
    /// falls back to [`crate::default_threads`].
    pub fn parse(s: &str) -> Result<SweepBackend, String> {
        let (kind, count) = match s.split_once(':') {
            Some((kind, n)) => {
                let count = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("bad worker count `{n}` in backend `{s}`"))?;
                (kind, count)
            }
            None => (s, crate::default_threads()),
        };
        match kind {
            "threads" => Ok(SweepBackend::Threads(count)),
            "procs" => Ok(SweepBackend::Processes { workers: count }),
            _ => Err(format!(
                "unknown sweep backend `{s}` (valid: threads[:N], procs[:N])"
            )),
        }
    }
}

impl fmt::Display for SweepBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepBackend::Threads(n) => write!(f, "threads:{n}"),
            SweepBackend::Processes { workers } => write!(f, "procs:{workers}"),
        }
    }
}

/// Knobs shared by every sweep backend.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker command line for [`SweepBackend::Processes`]. Empty (the
    /// default) re-execs the current executable with one argument,
    /// `worker` — correct inside the `experiments` binary, which serves
    /// its own worker mode. Any other host (tests, custom harnesses)
    /// must point this at a real worker, e.g.
    /// `[env!("CARGO_BIN_EXE_experiments"), "worker"]`.
    pub worker: Vec<String>,
    /// Resumable-manifest path; `None` disables the manifest.
    pub manifest: Option<PathBuf>,
    /// Per-spec wall-clock timeout under [`SweepBackend::Processes`];
    /// `None` (the default) waits indefinitely, which is right for grids
    /// whose cells legitimately run minutes.
    pub timeout: Option<Duration>,
    /// Worker attempts per spec before it reports
    /// [`ScenarioError::Sweep`] (transport failures only; spec-level
    /// errors never retry). At least 1.
    pub retries: u32,
    /// Run each spec's full beat budget (`registry.run_exact`) instead of
    /// stopping at stable sync (`registry.run`) — the steady-state mode
    /// the `m1` traffic grid needs.
    pub exact: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            worker: Vec::new(),
            manifest: None,
            timeout: None,
            retries: 3,
            exact: false,
        }
    }
}

/// Fans `specs` across the chosen backend and returns one result per
/// spec, **in input order** — build the grid in seed order and the
/// aggregation is deterministic regardless of scheduling (each run is
/// itself a pure function of its spec). See the [module docs](self) for
/// the worker protocol, failure handling, and the manifest format.
pub fn sweep_specs(
    registry: &ProtocolRegistry,
    specs: &[ScenarioSpec],
    backend: SweepBackend,
    opts: &SweepOptions,
) -> Vec<SweepResult> {
    let keys: Vec<String> = specs.iter().map(ToString::to_string).collect();
    let mut slots: Vec<Option<SweepResult>> = vec![None; specs.len()];

    if let Some(path) = opts.manifest.as_deref() {
        let cached = load_manifest(path, opts.exact);
        for (slot, key) in slots.iter_mut().zip(&keys) {
            if let Some(report) = cached.get(key) {
                *slot = Some(Ok(report.clone()));
            }
        }
    }
    let pending: VecDeque<(usize, u32)> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some((i, 0)))
        .collect();

    if !pending.is_empty() {
        let writer = opts.manifest.as_deref().map(|path| {
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("cannot append to manifest {path:?}: {e}"));
            // If the file ends in a torn line (a coordinator died
            // mid-append), start this session's entries on a fresh line
            // so the tear corrupts at most its own entry.
            if !ends_with_newline(path) {
                let _ = writeln!(file);
            }
            Mutex::new(file)
        });
        let (SweepBackend::Threads(count) | SweepBackend::Processes { workers: count }) = backend;
        let workers = count.max(1).min(pending.len());
        let ctx = Coordinator {
            queue: Mutex::new(pending),
            slots: Mutex::new(&mut slots),
            keys: &keys,
            opts,
            writer,
        };
        match backend {
            SweepBackend::Threads(_) => {
                run_slots(workers, || thread_slot(&ctx, registry, specs));
            }
            SweepBackend::Processes { .. } => {
                let cmd = if opts.worker.is_empty() {
                    let exe = std::env::current_exe()
                        .unwrap_or_else(|e| panic!("cannot locate the worker executable: {e}"));
                    vec![exe.to_string_lossy().into_owned(), "worker".to_string()]
                } else {
                    opts.worker.clone()
                };
                run_slots(workers, || process_slot(&ctx, &cmd));
            }
        }
    }

    slots
        .into_iter()
        .map(|s| s.expect("every spec resolved"))
        .collect()
}

// ---------------------------------------------------------------------------
// The coordinator: one shared queue, two kinds of worker slot
// ---------------------------------------------------------------------------

/// Shared coordinator state: the job queue, the result slots, and the
/// sweep configuration every worker slot reads.
struct Coordinator<'a> {
    /// `(spec index, attempts so far)`.
    queue: Mutex<VecDeque<(usize, u32)>>,
    slots: Mutex<&'a mut [Option<SweepResult>]>,
    keys: &'a [String],
    opts: &'a SweepOptions,
    writer: Option<Mutex<File>>,
}

impl Coordinator<'_> {
    fn take_job(&self) -> Option<(usize, u32)> {
        self.queue.lock().expect("queue lock").pop_front()
    }

    /// Resolves one spec; finished reports are appended to the manifest
    /// as they land.
    fn record(&self, idx: usize, result: SweepResult) {
        if let (Some(writer), Ok(report)) = (&self.writer, &result) {
            let mut file = writer.lock().expect("manifest lock");
            let _ = writeln!(file, "{}", manifest_line(self.opts.exact, report));
            let _ = file.flush();
        }
        self.slots.lock().expect("slots lock")[idx] = Some(result);
    }

    /// Requeues a spec after a transport fault, or records the terminal
    /// [`ScenarioError::Sweep`] once its retry budget is spent.
    fn transport_failure(&self, idx: usize, attempts: u32, msg: &str) {
        let attempts = attempts + 1;
        if attempts >= self.opts.retries.max(1) {
            self.record(
                idx,
                Err(ScenarioError::Sweep(format!(
                    "spec `{}` failed after {attempts} worker attempts: {msg}",
                    self.keys[idx]
                ))),
            );
        } else {
            self.queue
                .lock()
                .expect("queue lock")
                .push_back((idx, attempts));
        }
    }
}

/// Runs `workers` copies of one worker-slot loop on scoped threads and
/// joins them.
#[expect(
    clippy::disallowed_methods,
    reason = "the sweep's worker pool runs whole runs side by side, never threads inside one"
)]
fn run_slots(workers: usize, slot: impl Fn() + Sync) {
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(&slot);
        }
    });
}

/// An in-process worker slot: runs specs off the shared queue on this
/// thread until the queue drains.
fn thread_slot(ctx: &Coordinator<'_>, registry: &ProtocolRegistry, specs: &[ScenarioSpec]) {
    while let Some((idx, _)) = ctx.take_job() {
        let result = if ctx.opts.exact {
            registry.run_exact(&specs[idx])
        } else {
            registry.run(&specs[idx])
        };
        ctx.record(idx, result);
    }
}

/// A subprocess worker slot: keeps one worker subprocess alive, feeds it
/// specs off the shared queue, and requeues on any transport failure.
fn process_slot(ctx: &Coordinator<'_>, cmd: &[String]) {
    let mut worker: Option<WorkerProc> = None;
    while let Some((idx, attempts)) = ctx.take_job() {
        let key = &ctx.keys[idx];
        if worker.is_none() {
            match WorkerProc::spawn(cmd, ctx.opts.exact) {
                Ok(w) => worker = Some(w),
                Err(e) => {
                    ctx.transport_failure(idx, attempts, &format!("spawn failed: {e}"));
                    continue;
                }
            }
        }
        let outcome = worker
            .as_mut()
            .expect("spawned above")
            .submit(key, ctx.opts.timeout);
        let failure = match outcome {
            Ok(line) => {
                if let Some(msg) = parse_error_line(&line) {
                    // A healthy worker relaying a spec-level error: the
                    // retry budget is for transport faults, not for specs
                    // that deterministically cannot run.
                    ctx.record(idx, Err(ScenarioError::Sweep(msg)));
                    continue;
                }
                match RunReport::from_json(&line) {
                    Some(report) if report.spec == *key => {
                        ctx.record(idx, Ok(report));
                        continue;
                    }
                    Some(report) => {
                        format!("worker answered for the wrong spec (`{}`)", report.spec)
                    }
                    None => "malformed report line from worker".to_string(),
                }
            }
            Err(failure) => failure,
        };
        worker.take().expect("present").shutdown();
        ctx.transport_failure(idx, attempts, &failure);
    }
    if let Some(w) = worker {
        w.shutdown();
    }
}

/// A live worker subprocess plus the channel its stdout drains into.
struct WorkerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl WorkerProc {
    fn spawn(cmd: &[String], exact: bool) -> std::io::Result<WorkerProc> {
        let mut child = Command::new(&cmd[0])
            .args(&cmd[1..])
            .env("BYZCLOCK_WORKER_EXACT", if exact { "1" } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        // A dedicated reader thread turns blocking pipe reads into
        // `recv_timeout`-able messages; it exits on worker EOF (channel
        // disconnect is the coordinator's death signal).
        #[expect(
            clippy::disallowed_methods,
            reason = "the pipe reader of a worker process, outside every run"
        )]
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match stdout.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx
                            .send(line.trim_end_matches(['\n', '\r']).to_string())
                            .is_err()
                        {
                            break;
                        }
                    }
                }
            }
        });
        Ok(WorkerProc {
            child,
            stdin: Some(stdin),
            lines,
            reader: Some(reader),
        })
    }

    /// Sends one spec line and waits for its single response line.
    fn submit(&mut self, spec_line: &str, timeout: Option<Duration>) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("open until shutdown");
        if let Err(e) = writeln!(stdin, "{spec_line}").and_then(|()| stdin.flush()) {
            return Err(format!("worker stdin closed: {e}"));
        }
        match timeout {
            Some(t) => self.lines.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => format!("timed out after {t:?}"),
                RecvTimeoutError::Disconnected => "worker died (stdout closed)".to_string(),
            }),
            None => self
                .lines
                .recv()
                .map_err(|_| "worker died (stdout closed)".to_string()),
        }
    }

    /// Tears the worker down: close stdin, kill whatever is left, reap,
    /// and join the reader. Used both for clean end-of-queue shutdown
    /// (the worker has already exited on EOF by the time kill fires) and
    /// for failure-path disposal of wedged workers.
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Renders the worker-side line for a spec that cannot run:
/// `{"error":"<message>"}` through the [`json`] writer, whose escape
/// keeps the line on one line.
pub fn error_line(message: &str) -> String {
    let mut w = json::Writer::object();
    w.key("error").str(message);
    w.finish()
}

/// Recognizes an [`error_line`] and returns the message.
fn parse_error_line(line: &str) -> Option<String> {
    Some(json::parse(line)?.get("error")?.as_str()?.to_string())
}

// ---------------------------------------------------------------------------
// The worker side
// ---------------------------------------------------------------------------

/// The worker half of the protocol: reads one spec line per job from
/// `input`, runs it against `registry`, and writes one JSON line per job
/// to `output` (flushed per line — the coordinator is waiting on it).
/// Blank input lines are ignored; returns when `input` reaches EOF.
pub fn worker_loop<R: BufRead, W: Write>(
    registry: &ProtocolRegistry,
    exact: bool,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let response = ScenarioSpec::parse(line)
            .and_then(|spec| {
                if exact {
                    registry.run_exact(&spec)
                } else {
                    registry.run(&spec)
                }
            })
            .map_or_else(|e| error_line(&e.to_string()), |report| report.to_json());
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    Ok(())
}

/// Whether a worker invocation asked for full-budget semantics: the
/// coordinator exports `BYZCLOCK_WORKER_EXACT=1` (inherited by wrapper
/// scripts), and `--exact` works for running a worker by hand.
pub fn worker_exact_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--exact")
        || std::env::var("BYZCLOCK_WORKER_EXACT").is_ok_and(|v| v == "1")
}

// ---------------------------------------------------------------------------
// The manifest
// ---------------------------------------------------------------------------

fn mode_tag(exact: bool) -> &'static str {
    if exact {
        "exact"
    } else {
        "converge"
    }
}

/// Loads a manifest's completed reports for one mode, keyed by canonical
/// spec line. A missing file is an empty manifest; malformed lines (torn
/// tails, hand edits) are skipped, and entries for other modes or other
/// grids are simply never looked up.
pub fn load_manifest(path: &Path, exact: bool) -> BTreeMap<String, RunReport> {
    let Ok(file) = File::open(path) else {
        return BTreeMap::new();
    };
    let mut cached = BTreeMap::new();
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if let Some(report) = parse_manifest_line(&line, exact) {
            cached.insert(report.spec.clone(), report);
        }
    }
    cached
}

fn manifest_line(exact: bool, report: &RunReport) -> String {
    let mut w = json::Writer::object();
    w.key("mode").str(mode_tag(exact));
    w.key("report").raw(report.to_json());
    w.finish()
}

fn parse_manifest_line(line: &str, exact: bool) -> Option<RunReport> {
    let v = json::parse(line)?;
    (v.get("mode")?.as_str()? == mode_tag(exact)).then_some(())?;
    RunReport::from_value(v.get("report")?)
}

/// Whether the manifest's last byte is a newline (a missing or empty
/// file trivially is: there is no torn line to guard against).
fn ends_with_newline(path: &Path) -> bool {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut file) = File::open(path) else {
        return true;
    };
    let Ok(len) = file.seek(SeekFrom::End(0)) else {
        return true;
    };
    if len == 0 {
        return true;
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::End(-1)).is_ok() && file.read_exact(&mut last).is_ok() && last[0] == b'\n'
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn backend_grammar_round_trips() {
        assert_eq!(
            SweepBackend::parse("threads:4").unwrap(),
            SweepBackend::Threads(4)
        );
        assert_eq!(
            SweepBackend::parse("procs:2").unwrap(),
            SweepBackend::Processes { workers: 2 }
        );
        for s in ["threads:4", "procs:2", "procs:16"] {
            assert_eq!(SweepBackend::parse(s).unwrap().to_string(), s);
        }
        // The exact `--backend=` values shown in README.md,
        // ARCHITECTURE.md, the experiments usage text, and the CI smoke
        // step — a failure here means those documents drifted from the
        // parser.
        for documented in ["threads:2", "procs:2", "procs:4"] {
            assert_eq!(
                SweepBackend::parse(documented).unwrap().to_string(),
                documented
            );
        }
        // Countless forms fall back to the thread default.
        assert!(matches!(
            SweepBackend::parse("threads"),
            Ok(SweepBackend::Threads(n)) if n >= 1
        ));
        assert!(matches!(
            SweepBackend::parse("procs"),
            Ok(SweepBackend::Processes { workers }) if workers >= 1
        ));
        for bad in ["", "fibers:2", "procs:0", "procs:x", "threads:-1"] {
            assert!(SweepBackend::parse(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn error_lines_round_trip() {
        for msg in [
            "unknown protocol `x`",
            "weird \"quoted\" message with \\ backslash",
        ] {
            let line = error_line(msg);
            assert_eq!(parse_error_line(&line).as_deref(), Some(msg), "{line}");
            // An error line must never parse as a report.
            assert!(RunReport::from_json(&line).is_none());
        }
        assert_eq!(parse_error_line("{\"spec\":\"...\"}"), None);
        assert_eq!(parse_error_line("{\"error\":\"torn"), None);
        // Control characters ride as `\u00XX` escapes, never as raw bytes
        // that would tear the line; the reader takes any JSON escape.
        assert_eq!(error_line("a\tb\n"), "{\"error\":\"a\\u0009b\\u000a\"}");
        assert_eq!(
            parse_error_line("{\"error\":\"a\\tb\"}").as_deref(),
            Some("a\tb")
        );
    }

    /// Lines written by builds before the shared JSON codec still load:
    /// a resumed manifest re-runs nothing, and a worker of either
    /// vintage can serve a coordinator of the other.
    #[test]
    fn lines_earlier_builds_wrote_still_read() {
        // A worker error line in the earlier hand-escaped format.
        assert_eq!(
            parse_error_line(r#"{"error":"a\u0009b\u000a"}"#).as_deref(),
            Some("a\tb\n")
        );
        // A converge-mode manifest line, verbatim.
        let converge = r#"{"mode":"converge","report":{"spec":"two-clock n=4 f=1 k=8 coin=ticket adv=equivocate faults=corrupt-start+scramble@20 seed=1 budget=80","beats":29,"converged_at":21,"measured_from":21,"final_streak":8,"final_clocks":[0,0,0],"traffic":{"correct_msgs":1740,"correct_bytes":112072,"byz_msgs":116,"byz_bytes":232,"forged_dropped":0,"phantom_msgs":0,"mean_correct_msgs_per_beat":60.000,"mean_correct_bytes_per_beat":3864.552},"extras":{}}}"#;
        let report = parse_manifest_line(converge, false).expect("converge line loads");
        assert_eq!((report.beats, report.converged_at), (29, Some(21)));
        assert_eq!(manifest_line(false, &report), converge);
        // An exact-mode manifest line around every pinned report golden.
        let goldens = include_str!("../../../tests/family_reports.txt");
        for golden in goldens.lines().filter(|l| l.starts_with('{')) {
            let line = format!("{{\"mode\":\"exact\",\"report\":{golden}}}");
            let report = parse_manifest_line(&line, true).expect("exact line loads");
            assert_eq!(report.to_json(), golden);
            assert_eq!(manifest_line(true, &report), line);
        }
    }

    proptest! {
        /// `parse_error_line` inverts `error_line` for every string — tabs,
        /// control characters, combining marks, quotes, backslash runs —
        /// and the rendered message never spans lines.
        #[test]
        fn error_lines_round_trip_for_arbitrary_strings(
            chars in proptest::collection::vec(
                prop_oneof![
                    proptest::sample::select(vec![
                        '\t', '\r', '\n', '\0', '\'', '"', '\\', 'u', '}', '\u{7f}', '\u{85}',
                        '\u{304}', '\u{2028}', '\u{1f600}',
                    ]),
                    (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
                ],
                0..24,
            ),
        ) {
            let msg: String = chars.into_iter().collect();
            let line = error_line(&msg);
            prop_assert!(!line.contains(['\n', '\r']), "{line:?}");
            prop_assert_eq!(parse_error_line(&line), Some(msg));
        }
    }

    #[test]
    fn manifest_lines_round_trip_and_respect_mode() {
        let registry = byzclock::scenario::default_registry();
        let spec = ScenarioSpec::new("two-clock", 4, 1)
            .with_coin(byzclock::scenario::CoinSpec::perfect_oracle())
            .with_budget(300);
        let report = registry.run(&spec).unwrap();
        let line = manifest_line(false, &report);
        let parsed = parse_manifest_line(&line, false).expect("round trips");
        assert_eq!(parsed.to_json(), report.to_json());
        // The same line under the other mode is not a hit.
        assert!(parse_manifest_line(&line, true).is_none());
        assert!(parse_manifest_line("{\"mode\":\"converge\",\"report\":{gar", false).is_none());
    }

    #[test]
    fn worker_loop_speaks_the_line_protocol() {
        let registry = byzclock::scenario::default_registry();
        let spec = ScenarioSpec::new("two-clock", 4, 1)
            .with_coin(byzclock::scenario::CoinSpec::perfect_oracle())
            .with_budget(300);
        let input = format!("{spec}\n\nno-such-clock n=4 f=1\nnot a spec line at all\n");
        let mut output = Vec::new();
        worker_loop(&registry, false, input.as_bytes(), &mut output).unwrap();
        let output = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        // Blank input line ignored: three jobs, three responses, in order.
        assert_eq!(lines.len(), 3);
        let report = RunReport::from_json(lines[0]).expect("first line is a report");
        assert_eq!(report.spec, spec.to_string());
        assert_eq!(report.to_json(), registry.run(&spec).unwrap().to_json());
        assert!(parse_error_line(lines[1])
            .unwrap()
            .contains("unknown protocol"));
        assert!(parse_error_line(lines[2])
            .unwrap()
            .contains("malformed token"));
    }

    #[test]
    fn worker_loop_exact_mode_runs_the_full_budget() {
        let registry = byzclock::scenario::default_registry();
        let spec = ScenarioSpec::new("two-clock", 4, 1)
            .with_coin(byzclock::scenario::CoinSpec::perfect_oracle())
            .with_budget(200);
        let mut converge = Vec::new();
        let mut exact = Vec::new();
        worker_loop(
            &registry,
            false,
            format!("{spec}\n").as_bytes(),
            &mut converge,
        )
        .unwrap();
        worker_loop(&registry, true, format!("{spec}\n").as_bytes(), &mut exact).unwrap();
        let converge = RunReport::from_json(String::from_utf8(converge).unwrap().trim()).unwrap();
        let exact = RunReport::from_json(String::from_utf8(exact).unwrap().trim()).unwrap();
        assert!(converge.beats < 200, "stops at stable sync");
        assert_eq!(exact.beats, 200, "exact mode runs the whole budget");
    }
}
