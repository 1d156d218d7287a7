//! The byzclock benchmark: six pinned workloads over the simulator's beat
//! path, end-to-end metrics from an untraced run, per-layer metrics from
//! a separate traced one. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all [--seed=<n>] [--seconds=<s>] [--repeats=<k>] [--out=<file>]
//! benchmark compare <a.json> <b.json> [--bounds=<BENCHMARK.json>]
//! ```
//!
//! The first form is one run in this process and ends with one JSON result
//! line; `all` spawns that form as a fresh child process per run.

mod compare;
mod json;
mod metrics;
mod micro;
mod run;
mod stacks;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

/// Where trace files and `all`'s result file go, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = "benchmark/out";

/// `--key value` and `--key=value` options plus positional words.
pub(crate) struct Args {
    pub(crate) options: Vec<(String, String)>,
    pub(crate) words: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            words: Vec::new(),
        };
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(option) => {
                    let (key, value) = match option.split_once('=') {
                        Some((k, v)) => (k.to_string(), v.to_string()),
                        None => (
                            option.to_string(),
                            raw.next()
                                .ok_or_else(|| format!("--{option} needs a value"))?,
                        ),
                    };
                    args.options.push((key, value));
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{key}")),
            None => Ok(default),
        }
    }

    pub(crate) fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// One run in this process; prints every metric of the mode and, last,
/// the result line.
fn single(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let outcome = match (workloads::steady(name), name) {
        (Some(w), _) if traced => run::steady_traced(w, seed, seconds)?,
        (Some(w), _) => run::steady_timed(w, seed, seconds)?,
        (None, "grid-small") => run::grid(seed, seconds, traced)?,
        (None, _) => {
            return Err(format!(
                "unknown workload `{name}`; workloads: {}",
                workloads::NAMES.join(", ")
            ))
        }
    };

    println!(
        "workload {name} seed {seed} seconds {seconds} trace {}",
        u8::from(traced)
    );
    for note in &outcome.notes {
        println!("note {note}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for (metric, unit, value) in outcome.metrics.iter() {
        println!("metric {metric} {value} {unit}");
    }
    println!("digest {:016x}", outcome.digest);
    if traced {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.jsonl"));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, outcome.trace_lines.join("\n") + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace {}", path.display());
    }

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (metric, unit, value)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let value = if value.is_finite() { value } else { 0.0 };
        line.push_str(&format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json::quote(metric),
            json::quote(unit)
        ));
    }
    line.push_str("}}");
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None => single(&args),
            Some("all") => suite::run(&args),
            Some("compare") => compare::run(&args),
            Some(other) => Err(format!("unknown command `{other}`")),
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
