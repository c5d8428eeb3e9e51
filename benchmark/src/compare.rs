//! `compare A.json… -- B.json…`: two sets of `--out` records, side by
//! side, judged against the bounds `BENCHMARK.json` fixes.
//!
//! For every (workload, end-to-end metric) both sides measured, it prints
//! each side's median and quartiles, the change of B against A in the
//! metric's "worse" direction, the bound, and a verdict:
//!
//! * `agree` — B is no worse than A by more than the bound;
//! * `regressed` — B is worse by more than the bound;
//! * `unresolved` — either side's quartile spread is wider than the
//!   bound, so the difference cannot be told from noise (unless every B
//!   run is better than every A run, which is `agree`).
//!
//! Quartiles are Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), so the spreads match the ones the benchmark's
//! acceptance is stated in.

use cenju4_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Bound {
    lower_is_better: bool,
    bound: f64,
}

/// `statistics.quantiles(values, n=4)`: (q1, median, q3).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn read_json(path: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(src.trim()).map_err(|e| format!("{path}: {e}"))
}

fn bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = read_json(path)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path} has no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

type Values = BTreeMap<(String, String), Vec<f64>>;

/// (workload, metric) → values, over a set of `--out` records.
fn values(paths: &[String]) -> Result<Values, String> {
    let mut out = Values::new();
    for p in paths {
        let rec = read_json(p)?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{p}: no workload"))?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("{p}: no metrics"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("compare: {e}");
            eprintln!("usage: compare A.json... -- B.json... [--bounds BENCHMARK.json]");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut bounds_path = "BENCHMARK.json".to_string();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut second = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => second = true,
            "--bounds" => bounds_path = it.next().ok_or("--bounds needs a file")?.clone(),
            path if second => b.push(path.to_string()),
            path => a.push(path.to_string()),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("both sides need at least one record".into());
    }
    let bounds = bounds(&bounds_path)?;
    let (va, vb) = (values(&a)?, values(&b)?);
    println!(
        "{:<15} {:<12} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    let mut rows = 0;
    for ((workload, metric), xa) in &va {
        let (Some(xb), Some(bound)) = (
            vb.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let (a1, am, a3) = quartiles(xa);
        let (b1, bm, b3) = quartiles(xb);
        let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
        let worse = sign * (bm - am) / am;
        let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
        let b_always_better = xb.iter().all(|&y| {
            xa.iter()
                .all(|&x| if bound.lower_is_better { y < x } else { y > x })
        });
        let verdict = if spread > bound.bound && !b_always_better {
            unresolved += 1;
            "unresolved"
        } else if worse > bound.bound {
            regressed += 1;
            "regressed"
        } else {
            "agree"
        };
        rows += 1;
        println!(
            "{workload:<15} {metric:<12} {:>34} {:>34} {:>7.1}% {:>5.0}%  {verdict}",
            format!("{am:.5} [{a1:.5}, {a3:.5}]"),
            format!("{bm:.5} [{b1:.5}, {b3:.5}]"),
            100.0 * worse,
            100.0 * bound.bound
        );
    }
    println!(
        "{rows} comparisons ({} A runs, {} B runs): {} agree, {regressed} regressed, {unresolved} unresolved",
        a.len(),
        b.len(),
        rows - regressed - unresolved
    );
    Ok(if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
