//! `compare a.json b.json`: two sets of runs (files written with `--json`)
//! held against the bounds of `BENCHMARK.json`, one row per (workload,
//! end-to-end metric). `a` is the base; a row is *worse* when `b`'s median
//! is worse than `a`'s by more than the metric's bound, *better* when it is
//! better by more than the bound, and *unresolved* when either side's own
//! spread (interquartile distance over median) is wider than the bound —
//! then the runs cannot tell a change of that size from noise.

use std::collections::BTreeMap;
use std::process::ExitCode;

use trex::obs::{parse_json, JsonValue};

use crate::stats::{median, quartiles};

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

fn bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(JsonValue::Array(metrics)) = json.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(JsonValue::as_str).map(str::to_string);
            Some(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: an end_to_end entry lacks name, unit, better or bound"))
}

/// Untraced runs only: end-to-end metrics come from nowhere else.
fn runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let json = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let bad = || format!("{path}:{}: not a line written by --json", n + 1);
        if json.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            continue;
        }
        let workload = json
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(bad)?;
        let Some(JsonValue::Object(metrics)) = json.get("result").and_then(|r| r.get("metrics"))
        else {
            return Err(bad());
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64).ok_or_else(bad)?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Interquartile distance as a share of the median; 0 for a single run,
/// which has no spread to show.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, mid, q3]| {
        (q3 - q1) / mid.abs().max(f64::MIN_POSITIVE)
    })
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Unchanged,
    Better,
    Worse,
    Unresolved,
}

fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let verdict = if spread(a) > bound.bound || spread(b) > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (verdict, change)
}

pub fn main(args: &[String]) -> ExitCode {
    let (Some(a_path), Some(b_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: trex-benchmark compare A.json B.json [BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let bounds_path = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let loaded = bounds(bounds_path).and_then(|bs| Ok((bs, runs(a_path)?, runs(b_path)?)));
    let (bounds, a, b) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    println!("workload metric unit a_median b_median change a_spread b_spread bound verdict");
    let mut worse = 0;
    for workload in crate::metrics::WORKLOADS {
        for bound in &bounds {
            let key = (workload.to_string(), bound.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (verdict, change) = verdict(va, vb, bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload} {} {} {:.6} {:.6} {:+.4} {:.4} {:.4} {} {}",
                bound.name,
                bound.unit,
                median(va).unwrap_or(0.0),
                median(vb).unwrap_or(0.0),
                change,
                spread(va),
                spread(vb),
                bound.bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        let slower = [12.0, 12.1, 11.9, 12.0];
        assert_eq!(
            verdict(&steady, &steady, &bound(true)).0,
            Verdict::Unchanged
        );
        assert_eq!(verdict(&steady, &slower, &bound(true)).0, Verdict::Worse);
        assert_eq!(verdict(&slower, &steady, &bound(true)).0, Verdict::Better);
        // The same numbers read as throughput: more is better.
        assert_eq!(verdict(&steady, &slower, &bound(false)).0, Verdict::Better);
        assert_eq!(verdict(&slower, &steady, &bound(false)).0, Verdict::Worse);
        // A side that scatters wider than the bound resolves nothing.
        let noisy = [8.0, 12.0, 9.0, 13.0];
        assert_eq!(
            verdict(&steady, &noisy, &bound(true)).0,
            Verdict::Unresolved
        );
        // One run a side has no spread; the medians decide.
        assert_eq!(
            verdict(&[10.0], &[10.5], &bound(true)).0,
            Verdict::Unchanged
        );
    }
}
