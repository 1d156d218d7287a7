//! `benchmark compare <a.json> <b.json>`: two result files of `benchmark
//! all`, one row per workload × end-to-end metric — how a later change
//! reads parent against change, and how two sets of runs of one commit are
//! shown to agree.

use crate::json::{self, Json};
use crate::{stats, Args};
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))
}

/// `name → (better, bound)` from `BENCHMARK.json`'s `end_to_end` list.
fn bounds(contract: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list in the bounds file")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in the bounds file".to_string())
}

/// By how much of `a` the value `b` is worse (negative: better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Prints the comparison; fails on any breach of a bound or any rise in
/// `failed_share`.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    args.only(&["bounds"])?;
    let [_, a_path, b_path] = args.words.as_slice() else {
        return Err(
            "usage: benchmark compare <a.json> <b.json> [--bounds=<BENCHMARK.json>]".into(),
        );
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut table = bounds(&load(args.get("bounds").unwrap_or("BENCHMARK.json"))?)?;
    table.push(("failed_share".to_string(), false, 0.0));
    let same_seed = {
        let seed = |f: &Json| f.get("header")?.get("seed")?.as_f64();
        seed(&a).is_some() && seed(&a) == seed(&b)
    };

    let workloads = |f: &Json| f.get("workloads").and_then(Json::as_obj).map(<[_]>::to_vec);
    let (wa, wb) = (
        workloads(&a).ok_or_else(|| format!("{a_path}: no workloads"))?,
        workloads(&b).ok_or_else(|| format!("{b_path}: no workloads"))?,
    );
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "delta", "bound"
    );
    let mut breaches = 0;
    for (name, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<16} only in {a_path}");
            continue;
        };
        for (metric, higher, bound) in &table {
            let median = |w: &Json| w.get("end_to_end")?.get(metric)?.get("median")?.as_f64();
            let (Some(ma), Some(mb)) = (median(in_a), median(in_b)) else {
                println!("{name:<16} {metric:<16} missing from one file");
                breaches += 1;
                continue;
            };
            let worse = worsening(ma, mb, *higher);
            let breach = worse > *bound;
            breaches += usize::from(breach);
            let delta = if ma == 0.0 {
                mb - ma
            } else {
                100.0 * (mb - ma) / ma.abs()
            };
            println!(
                "{name:<16} {metric:<16} {:>16} {:>16} {delta:>+8.2}% {:>6.1}%  {}",
                stats::digits(ma),
                stats::digits(mb),
                100.0 * bound,
                match (breach, ma == mb) {
                    (true, _) => "BREACH",
                    (false, true) => "equal",
                    (false, false) => "within bound",
                }
            );
        }
        if same_seed {
            let digest = |w: &Json| w.get("digest").and_then(Json::as_str).map(str::to_string);
            println!(
                "{name:<16} {:<16} {}",
                "pinned reports",
                if digest(in_a) == digest(in_b) {
                    "byte-identical (same seed, same simulated outputs)"
                } else {
                    "DIFFER: the simulated outputs moved between a and b"
                }
            );
        }
    }
    println!("{breaches} breach(es)");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_metric_s_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert_eq!(worsening(0.0, 0.25, false), f64::INFINITY);
    }
}
