//! `benchmark all`: every workload, every metric, one fresh child process
//! per run.
//!
//! Runs are sequential and closed-loop: one driver thread, one run at a
//! time. Each is a re-exec of this binary in its single-run form, so peak
//! memory and heap state belong to that run alone, and a timed and a
//! traced run never share a process. The children's environment is
//! scrubbed of the three `BYZCLOCK_*` knobs: the benchmark measures
//! default in-beat stepping.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{GRID_CYCLE, GRID_PINNED_CYCLES, NAMES, STEADY};
use crate::{stats, Args, OUT_DIR};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Environment knobs of the program that would change what a run measures.
const SCRUBBED_ENV: [&str; 3] = [
    "BYZCLOCK_STEP_THREADS",
    "BYZCLOCK_THREADS",
    "BYZCLOCK_TRIALS",
];

/// What a child run printed, or why it counts as failed.
struct Child {
    metrics: Vec<(String, f64)>,
    digest: String,
    correct: bool,
}

fn spawn(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for knob in SCRUBBED_ENV {
        command.env_remove(knob);
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED ")) {
        eprintln!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let result = stdout
        .lines()
        .last()
        .and_then(json::parse)
        .ok_or("child printed no result line")?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or("")
        .to_string();
    Ok(Child {
        metrics,
        digest,
        correct: result.get("correct") == Some(&Json::Bool(true)),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the suite, prints every metric by name with its unit, and writes
/// the result file.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    args.only(&["seed", "seconds", "repeats", "out"])?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    let repeats: usize = args.number("repeats", 3)?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    let out = args
        .get("out")
        .map_or_else(|| format!("{OUT_DIR}/BENCH.json"), str::to_string);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    println!(
        "# byzclock benchmark: seed {seed}, {seconds} s per run, K = {repeats} timed runs + 1 traced \
         run per workload"
    );
    println!("# nproc {nproc}; {rustc}; commit {commit}");

    let mut file = format!(
        "{{\"header\":{{\"nproc\":{nproc},\"rustc\":{},\"commit\":{},\"seed\":{seed},\
         \"seconds\":{seconds},\"repeats\":{repeats},\"beats\":{{",
        json::quote(&rustc),
        json::quote(&commit)
    );
    for w in &STEADY {
        let _ = write!(
            file,
            "{}:{{\"warmup\":{},\"lap\":{}}},",
            json::quote(w.name),
            w.warmup,
            w.lap
        );
    }
    let _ = write!(
        file,
        "\"grid-small\":{{\"cycle_specs\":{GRID_CYCLE},\"pinned_cycles\":{GRID_PINNED_CYCLES}}}}}}},\
         \"workloads\":{{"
    );

    let mut any_failed = false;
    for (wi, name) in NAMES.iter().enumerate() {
        println!("\n## {name}");
        let mut timed: Vec<Child> = Vec::new();
        let mut failed_runs = 0usize;
        for k in 0..repeats {
            match spawn(name, seed, seconds, false) {
                Ok(child) => timed.push(child),
                Err(why) => {
                    eprintln!("  timed run {k} failed: {why}");
                    failed_runs += 1;
                }
            }
        }
        let traced = match spawn(name, seed, seconds, true) {
            Ok(child) => Some(child),
            Err(why) => {
                eprintln!("  traced run failed: {why}");
                failed_runs += 1;
                None
            }
        };
        // Same workload, same seed: every run, timed or traced, must have
        // rendered the same pinned reports.
        let digest = timed
            .iter()
            .chain(&traced)
            .map(|c| c.digest.clone())
            .next()
            .unwrap_or_default();
        failed_runs += timed
            .iter()
            .chain(&traced)
            .filter(|c| !c.correct || c.digest != digest)
            .count();
        let failed_share = failed_runs as f64 / (repeats + 1) as f64;
        any_failed |= failed_runs > 0;

        let _ = write!(
            file,
            "{}{}:{{\"digest\":{},\"runs\":{},\"failed_runs\":{failed_runs},\"end_to_end\":{{",
            if wi == 0 { "" } else { "," },
            json::quote(name),
            json::quote(&digest),
            repeats + 1
        );
        println!(
            "{:<34} {:>16} {:>16} {:>16}  unit (median, min, max of {} runs)",
            "end to end",
            "median",
            "min",
            "max",
            timed.len()
        );
        for (metric, unit, better) in END_TO_END {
            let values: Vec<f64> = timed
                .iter()
                .filter_map(|c| c.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
                .collect();
            let (median, min, max) = (
                stats::median(&values),
                stats::min(&values),
                stats::max(&values),
            );
            println!(
                "{metric:<34} {:>16} {:>16} {:>16}  {unit}",
                stats::digits(median),
                stats::digits(min),
                stats::digits(max)
            );
            let _ = write!(
                file,
                "{}:{{\"unit\":{},\"better\":{},\"median\":{median},\"min\":{min},\"max\":{max},\
                 \"values\":[{}]}},",
                json::quote(metric),
                json::quote(unit),
                json::quote(better.as_str()),
                values
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        println!(
            "{:<34} {failed_share:>16.4} {:>16} {:>16}  ratio ({failed_runs} of {} runs)",
            "failed_share",
            "",
            "",
            repeats + 1
        );
        let _ = write!(
            file,
            "\"failed_share\":{{\"unit\":\"ratio\",\"better\":\"lower\",\"median\":{failed_share}}}}},\
             \"per_layer\":{{"
        );
        println!("{:<34} {:>16}", "per layer (traced run)", "value");
        for (i, (metric, unit, _)) in PER_LAYER.iter().enumerate() {
            let value = traced
                .as_ref()
                .and_then(|c| c.metrics.iter().find(|(n, _)| n == metric))
                .map_or(0.0, |&(_, v)| v);
            println!("{metric:<34} {:>16}  {unit}", stats::digits(value));
            let _ = write!(
                file,
                "{}{}:{{\"unit\":{},\"value\":{value}}}",
                if i == 0 { "" } else { "," },
                json::quote(metric),
                json::quote(unit)
            );
        }
        file.push_str("}}");
    }
    file.push_str("}}\n");

    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, file).map_err(|e| format!("{out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
