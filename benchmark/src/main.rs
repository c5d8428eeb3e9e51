//! The Cenju-4 end-to-end benchmark: one seeded command per workload,
//! covering figure regeneration, `cenju4-serve`, and the checker, with a
//! traced mode that attributes the time to the repository's layers.
//! See README.md for every metric, workload and recipe.
//!
//! ```text
//! cenju4-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                  [--trace-dir DIR] [--out FILE] [--smoke]
//! cenju4-benchmark --smoke                      # every workload, small
//! cenju4-benchmark compare A.json... -- B.json... [--bounds BENCHMARK.json]
//! ```

mod check;
mod compare;
mod dsm;
mod layers;
mod report;
mod serve_mix;
mod trace;

use cenju4_obs::json::{self, Json};
use report::{Metrics, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every workload, in the order `--smoke` runs them.
const WORKLOADS: [&str; 5] = [
    "dsm-gather",
    "dsm-migratory",
    "serve-mix",
    "check-explore",
    "check-walks",
];

/// Pinned results: digests and explored counts, per workload (`@smoke`
/// for the smoke sizes).
const PINS: &str = include_str!("../pins.json");

/// One workload run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: PathBuf,
    pub smoke: bool,
    pins: Json,
}

impl Run {
    fn pin_key(&self) -> String {
        if self.smoke {
            format!("{}@smoke", self.workload)
        } else {
            self.workload.clone()
        }
    }

    /// Fails the run unless `got` equals the pinned value `name`. Checked
    /// on every repetition; each mismatch is reported once.
    pub fn check_pin(&self, out: &mut Outcome, name: &str, got: &str) {
        let key = self.pin_key();
        let want = self
            .pins
            .get(&key)
            .and_then(|p| p.get(name))
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => format!("{n}"),
                other => format!("{other:?}"),
            });
        let failure = match want {
            Some(w) if w == got => return,
            Some(w) => format!("{key}.{name}: measured {got}, pinned {w}"),
            None => format!("{key}.{name}: no pin (measured {got})"),
        };
        if !out.gate_failures.contains(&failure) {
            out.gate_failures.push(failure);
        }
    }

    /// Writes the trace and layers files of a traced run.
    pub fn write_trace(
        &self,
        out: &mut Outcome,
        tracer: &trace::Tracer,
        per_layer: &Metrics,
        work: &layers::EngineWork,
        extra: Metrics,
    ) {
        let mut all = layers::layers_file_metrics(per_layer, work, tracer);
        all.0.extend(extra.0);
        if let Err(e) = trace::write_files(&self.trace_dir, &self.workload, tracer, &all) {
            out.gate_failures.push(e);
        }
    }
}

fn run_workload(run: &Run) -> Outcome {
    let mut out = match run.workload.as_str() {
        "dsm-gather" => {
            let (points, warmup) = dsm::gather_points(run.smoke);
            dsm::run(run, points, warmup)
        }
        "dsm-migratory" => {
            let (points, warmup) = dsm::migratory_points(run.smoke);
            dsm::run(run, points, warmup)
        }
        "serve-mix" => serve_mix::run(run),
        "check-explore" => check::explore(run),
        "check-walks" => check::walks(run),
        other => unreachable!("workload {other} was validated"),
    };
    out.finite();
    out
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_dir: PathBuf::from("bench-out"),
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = val()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; workloads: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => cli.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--trace-dir" => cli.trace_dir = PathBuf::from(val()?),
            "--out" => cli.out = Some(PathBuf::from(val()?)),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("cenju4-benchmark: {err}");
    eprintln!(
        "usage: cenju4-benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-dir DIR] [--out FILE] [--smoke]\n       \
         cenju4-benchmark --smoke\n       \
         cenju4-benchmark compare A.json... -- B.json... [--bounds BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Runs one workload, prints its metrics and the result line, and writes
/// the `--out` record. Returns whether every gate passed.
fn measure(cli: &Cli, workload: &str, pins: &Json) -> bool {
    let run = Run {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke { 1.0 } else { 15.0 }),
        trace: cli.trace,
        trace_dir: cli.trace_dir.clone(),
        smoke: cli.smoke,
        pins: pins.clone(),
    };
    let out = run_workload(&run);
    let shown = match (&out.per_layer, run.trace) {
        (Some(layers), true) => layers,
        _ => &out.end_to_end,
    };
    for m in &shown.0 {
        println!("{} {} {}", m.name, report::json_num(m.value), m.unit);
    }
    for e in &out.gate_failures {
        eprintln!("{workload}: FAILED: {e}");
    }
    let mut ok = out.correct() && out.failed == 0;
    if let Some(path) = &cli.out {
        let record = report::out_record(workload, run.seed, run.trace, &out);
        if let Err(e) = std::fs::write(path, record + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{}", report::result_line(&out, shown));
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("serve-child") => return serve_mix::child_main(),
        _ => {}
    }
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let pins = json::parse(PINS).expect("pins.json is valid JSON");
    let workloads: Vec<&str> = match (&cli.workload, cli.smoke) {
        (Some(w), _) => vec![w.as_str()],
        (None, true) => WORKLOADS.to_vec(),
        (None, false) => return usage("--workload is required"),
    };
    let mut ok = true;
    for w in &workloads {
        ok &= measure(&cli, w, &pins);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
