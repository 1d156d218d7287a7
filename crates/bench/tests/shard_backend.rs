//! End-to-end tests of the process-sharded sweep backend: byte-identity
//! against the thread backend, every worker-failure path (malformed
//! output, death mid-sweep, per-spec timeout), and manifest resume — at
//! the library seam and, for a named grid, through the binary's own
//! `--jsonl` / `--backend` / `--manifest` flags.
//!
//! The worker under test is the real `experiments` binary in `worker`
//! mode (cargo exports its path as `CARGO_BIN_EXE_experiments` for this
//! crate's integration tests); the failure injections wrap it in small
//! `/bin/sh` scripts that misbehave a bounded number of times — tracked
//! through marker files — and then hand over to the real worker, so
//! every test still ends with a complete result set to compare.

use byzclock::scenario::{default_registry, CoinSpec, RunReport, ScenarioError, ScenarioSpec};
use byzclock_bench::{sweep_specs, SweepBackend, SweepOptions, SweepResult};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The real worker command: the `experiments` binary in `worker` mode.
fn real_worker() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_experiments").to_string(),
        "worker".to_string(),
    ]
}

fn opts_with(worker: Vec<String>) -> SweepOptions {
    SweepOptions {
        worker,
        ..SweepOptions::default()
    }
}

/// A small mixed grid: delays 0..3, distinct seeds, fast budgets.
fn grid(len: usize) -> Vec<ScenarioSpec> {
    (0..len)
        .map(|i| {
            ScenarioSpec::new("two-clock", 4, 1)
                .with_coin(CoinSpec::perfect_oracle())
                .with_delay((i % 3) as u64)
                .with_seed(i as u64)
                .with_budget(400)
        })
        .collect()
}

/// Reference results from the thread backend, as JSON lines (reports are
/// compared at the JSON level — that is the byte-identity the JSONL
/// pipeline and the CI smoke diff care about).
fn reference_jsonl(specs: &[ScenarioSpec]) -> Vec<String> {
    let registry = default_registry();
    sweep_specs(
        &registry,
        specs,
        SweepBackend::Threads(2),
        &SweepOptions::default(),
    )
    .into_iter()
    .map(|r| r.expect("reference spec runs").to_json())
    .collect()
}

fn jsonl_of(results: Vec<SweepResult>) -> Vec<String> {
    results
        .into_iter()
        .map(|r| r.expect("spec runs").to_json())
        .collect()
}

/// A scratch directory scoped to one test (temp dir + pid + tag keeps
/// concurrent test binaries apart).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("byzclock-shard-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(unix)]
fn write_script(dir: &Path, body: &str) -> Vec<String> {
    use std::os::unix::fs::PermissionsExt;
    let path = dir.join("worker.sh");
    std::fs::write(&path, body).expect("write wrapper script");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod +x");
    vec![path.to_string_lossy().into_owned()]
}

#[test]
fn process_backend_matches_thread_backend_for_several_worker_counts() {
    let specs = grid(7);
    let reference = reference_jsonl(&specs);
    let registry = default_registry();
    // The acceptance bar asks for at least two worker counts; three also
    // covers workers > specs-per-worker rounding.
    for workers in [1usize, 2, 3] {
        let out = sweep_specs(
            &registry,
            &specs,
            SweepBackend::Processes { workers },
            &opts_with(real_worker()),
        );
        assert_eq!(
            jsonl_of(out),
            reference,
            "procs:{workers} diverged from the thread backend"
        );
    }
}

#[test]
fn process_backend_matches_thread_backend_in_exact_mode() {
    let specs = grid(4);
    let registry = default_registry();
    let exact_opts = |worker: Vec<String>| SweepOptions {
        worker,
        exact: true,
        ..SweepOptions::default()
    };
    let threads = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Threads(2),
        &exact_opts(Vec::new()),
    );
    let procs = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &exact_opts(real_worker()),
    );
    let threads = jsonl_of(threads);
    assert_eq!(threads, jsonl_of(procs));
    // And exact mode really ran the full budget (converge mode stops
    // early on this grid).
    for line in &threads {
        assert!(
            line.contains("\"beats\":400"),
            "not a full-budget run: {line}"
        );
    }
}

#[test]
fn worker_relayed_spec_errors_surface_without_retry_burn() {
    let mut specs = grid(3);
    specs.insert(1, ScenarioSpec::new("no-such-clock", 4, 1));
    let registry = default_registry();
    let out = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &opts_with(real_worker()),
    );
    assert!(out[0].is_ok() && out[2].is_ok() && out[3].is_ok());
    match &out[1] {
        Err(ScenarioError::Sweep(msg)) => {
            assert!(
                msg.contains("unknown protocol"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("expected a relayed spec error, got {other:?}"),
    }
}

#[cfg(unix)]
#[test]
fn malformed_worker_line_requeues_the_spec() {
    let dir = scratch("malformed");
    let marker = dir.join("poisoned-once");
    // First spawn: swallow one spec, answer garbage (a torn line), keep
    // serving; the coordinator must discard this worker and requeue.
    // Later spawns are the real worker.
    let worker = write_script(
        &dir,
        &format!(
            "#!/bin/sh\n\
             if [ ! -e {marker} ]; then\n\
               touch {marker}\n\
               read line\n\
               echo '{{\"spec\":\"truncated mid-'\n\
             fi\n\
             exec {real} worker\n",
            marker = marker.display(),
            real = env!("CARGO_BIN_EXE_experiments"),
        ),
    );
    let specs = grid(5);
    let reference = reference_jsonl(&specs);
    let registry = default_registry();
    let out = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &opts_with(worker),
    );
    assert_eq!(jsonl_of(out), reference);
    assert!(marker.exists(), "the poisoned first spawn never ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn worker_death_mid_sweep_requeues_to_a_respawn() {
    let dir = scratch("death");
    let marker = dir.join("died-once");
    // First spawn: accept a spec, then die without answering.
    let worker = write_script(
        &dir,
        &format!(
            "#!/bin/sh\n\
             if [ ! -e {marker} ]; then\n\
               touch {marker}\n\
               read line\n\
               exit 1\n\
             fi\n\
             exec {real} worker\n",
            marker = marker.display(),
            real = env!("CARGO_BIN_EXE_experiments"),
        ),
    );
    let specs = grid(5);
    let reference = reference_jsonl(&specs);
    let registry = default_registry();
    let out = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &opts_with(worker),
    );
    assert_eq!(jsonl_of(out), reference);
    assert!(marker.exists(), "the dying first spawn never ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn per_spec_timeout_kills_the_wedged_worker_and_requeues() {
    let dir = scratch("timeout");
    let marker = dir.join("wedged-once");
    // First spawn: accept a spec and wedge. The coordinator's per-spec
    // timeout must kill it and requeue; later spawns are the real worker
    // (whose per-spec runtime is milliseconds, far under the timeout).
    let worker = write_script(
        &dir,
        &format!(
            "#!/bin/sh\n\
             if [ ! -e {marker} ]; then\n\
               touch {marker}\n\
               read line\n\
               sleep 30\n\
               exit 1\n\
             fi\n\
             exec {real} worker\n",
            marker = marker.display(),
            real = env!("CARGO_BIN_EXE_experiments"),
        ),
    );
    let specs = grid(4);
    let reference = reference_jsonl(&specs);
    let registry = default_registry();
    let opts = SweepOptions {
        worker,
        timeout: Some(Duration::from_secs(5)),
        ..SweepOptions::default()
    };
    let out = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &opts,
    );
    assert_eq!(jsonl_of(out), reference);
    assert!(marker.exists(), "the wedged first spawn never ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn permanently_broken_worker_exhausts_retries_with_a_sweep_error() {
    let specs = grid(2);
    let registry = default_registry();
    let opts = SweepOptions {
        worker: vec!["/bin/false".to_string()],
        retries: 2,
        ..SweepOptions::default()
    };
    let out = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 1 },
        &opts,
    );
    for (r, spec) in out.iter().zip(&specs) {
        match r {
            Err(ScenarioError::Sweep(msg)) => {
                assert!(
                    msg.contains("2 worker attempts") && msg.contains(&spec.to_string()),
                    "unexpected message: {msg}"
                );
            }
            other => panic!("expected retry exhaustion, got {other:?}"),
        }
    }
}

#[test]
fn manifest_resume_serves_completed_specs_without_a_worker() {
    let dir = scratch("manifest-resume");
    let manifest = dir.join("sweep.manifest.jsonl");
    let specs = grid(5);
    let reference = reference_jsonl(&specs);
    let registry = default_registry();
    let opts = |worker: Vec<String>| SweepOptions {
        worker,
        manifest: Some(manifest.clone()),
        ..SweepOptions::default()
    };
    // First pass fills the manifest (thread backend — the manifest is
    // backend-agnostic).
    let first = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Threads(2),
        &opts(Vec::new()),
    );
    assert_eq!(jsonl_of(first), reference);
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap().lines().count(),
        specs.len()
    );
    // Resume under the process backend with a worker command that cannot
    // run anything: every spec must come out of the manifest, proving
    // nothing was re-run (and exercising cross-backend manifest reuse).
    let broken = opts(vec!["/bin/false".to_string()]);
    let resumed = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &broken,
    );
    assert_eq!(jsonl_of(resumed), reference);
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap().lines().count(),
        specs.len(),
        "a fully-cached resume must not append"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn killed_sweep_resumes_from_the_manifest_with_the_identical_aggregate() {
    let dir = scratch("manifest-kill");
    let manifest = dir.join("sweep.manifest.jsonl");
    let counter = dir.join("spawns");
    // A worker that serves one spec per spawn, and only two spawns ever:
    // the sweep completes exactly two specs, then every remaining spec
    // exhausts its retries — a stand-in for a sweep killed partway.
    let worker = write_script(
        &dir,
        &format!(
            "#!/bin/sh\n\
             count=$(cat {counter} 2>/dev/null || echo 0)\n\
             echo $((count+1)) > {counter}\n\
             if [ \"$count\" -ge 2 ]; then exit 1; fi\n\
             read line || exit 0\n\
             printf '%s\\n' \"$line\" | {real} worker\n",
            counter = counter.display(),
            real = env!("CARGO_BIN_EXE_experiments"),
        ),
    );
    let specs = grid(6);
    let reference = reference_jsonl(&specs);
    let registry = default_registry();
    let crashy = SweepOptions {
        worker,
        manifest: Some(manifest.clone()),
        retries: 2,
        ..SweepOptions::default()
    };
    let first = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 1 },
        &crashy,
    );
    let completed = first.iter().filter(|r| r.is_ok()).count();
    assert_eq!(completed, 2, "the worker cap should stop the sweep partway");
    assert!(first
        .iter()
        .any(|r| matches!(r, Err(ScenarioError::Sweep(_)))));
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap().lines().count(),
        completed
    );
    // A torn tail (the coordinator died mid-append) must not spoil the
    // resume.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&manifest)
            .unwrap();
        write!(f, "{{\"mode\":\"converge\",\"report\":{{\"spec\":\"torn").unwrap();
    }
    // Resume with a healthy worker: cached specs come from the manifest,
    // the rest run, and the aggregate equals the never-killed reference.
    let healthy = SweepOptions {
        worker: real_worker(),
        manifest: Some(manifest.clone()),
        ..SweepOptions::default()
    };
    let resumed = sweep_specs(
        &registry,
        &specs,
        SweepBackend::Processes { workers: 2 },
        &healthy,
    );
    assert_eq!(jsonl_of(resumed), reference);
    // The manifest now covers the whole grid exactly once: the torn line
    // plus one line per spec — completed specs were NOT re-run.
    let lines = std::fs::read_to_string(&manifest).unwrap();
    let parsed: Vec<&str> = lines.lines().collect();
    assert_eq!(parsed.len(), 1 + specs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn growing_the_grid_reuses_the_manifest_and_appends_only_the_new_specs() {
    let dir = scratch("manifest-grow");
    let manifest = dir.join("sweep.manifest.jsonl");
    let registry = default_registry();
    let opts = SweepOptions {
        manifest: Some(manifest.clone()),
        ..SweepOptions::default()
    };
    let small = grid(3);
    let big = grid(6);
    let reference = reference_jsonl(&big);
    let first = sweep_specs(&registry, &small, SweepBackend::Threads(2), &opts);
    assert_eq!(first.len(), 3);
    let grown = sweep_specs(&registry, &big, SweepBackend::Threads(2), &opts);
    assert_eq!(jsonl_of(grown), reference);
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap().lines().count(),
        big.len(),
        "only the three new specs should have been appended"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the real `experiments` binary at `BYZCLOCK_TRIALS=2` and returns
/// its stdout.
fn experiments(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("BYZCLOCK_TRIALS", "2")
        .output()
        .expect("run the experiments binary");
    assert!(
        out.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `a2` is a mixed-mode grid: two converge cells of two trials each, then
/// two full-budget traffic runs — two sweeps on one stream.
#[test]
fn mixed_mode_named_grid_is_byte_identical_across_backends_via_jsonl() {
    let threads = experiments(&["--jsonl", "--backend=threads:2", "a2"]);
    let procs = experiments(&["--jsonl", "--backend=procs:2", "a2"]);
    assert_eq!(threads, procs);
    // Nothing but report lines on the stream, each exact at the JSON level.
    assert_eq!(threads.lines().count(), 6);
    for line in threads.lines() {
        let report = RunReport::from_json(line).unwrap_or_else(|| panic!("not a report: {line}"));
        assert_eq!(report.to_json(), line);
    }
    // The exact-mode cells ran their whole 100-beat budget; the converge
    // cells stopped at stable sync long before their 3000.
    let full_budget = |l: &&str| l.contains("budget=100\"") && l.contains("\"beats\":100,");
    assert_eq!(threads.lines().filter(full_budget).count(), 2);
    assert!(!threads.contains("\"beats\":3000,"));
}

/// The binary takes no worker-command option, so "nothing re-ran" is shown
/// the other way round: every executed spec appends to the manifest, and
/// the second pass leaves it byte-for-byte alone.
#[test]
fn named_grid_rerenders_the_same_markdown_from_its_manifest_alone() {
    let dir = scratch("grid-manifest");
    let manifest = dir.join("a2.manifest.jsonl");
    let flag = format!("--manifest={}", manifest.display());
    let first = experiments(&[&flag, "--backend=threads:2", "a2"]);
    let filled = std::fs::read_to_string(&manifest).unwrap();
    let tagged = |mode: &str| {
        let prefix = format!("{{\"mode\":\"{mode}\",");
        filled.lines().filter(|l| l.starts_with(&prefix)).count()
    };
    assert_eq!((tagged("converge"), tagged("exact")), (4, 2));
    let second = experiments(&[&flag, "--backend=procs:2", "a2"]);
    assert!(first.contains("| two pipelines (paper) |"), "{first}");
    assert_eq!(first, second);
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap(),
        filled,
        "a fully cached grid must not run anything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
