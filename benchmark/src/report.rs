//! Metrics, percentiles, the result line, and the helpers every workload
//! shares (peak memory, result digests, the seeded shuffle).

use cenju4_des::{FxHasher, SplitMix64};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `{"name":{"value":v,"unit":"u"},...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values cannot be written as JSON; they become `null`, and
/// [`Outcome::finite`] turns them into a failed run first.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (panicked, errored, timed out).
    pub failed: u64,
    /// Correctness-gate failures, one message each.
    pub gate_failures: Vec<String>,
    /// The end-to-end metrics (always measured).
    pub end_to_end: Metrics,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Option<Metrics>,
    /// Workload-specific numbers for `--out` and the README (JSON object
    /// members, without braces).
    pub details: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Flags any non-finite metric as a gate failure.
    pub fn finite(&mut self) {
        let all = self
            .end_to_end
            .0
            .iter()
            .chain(self.per_layer.iter().flat_map(|m| m.0.iter()));
        let bad: Vec<String> = all
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not a finite number", m.name))
            .collect();
        self.gate_failures.extend(bad);
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }
}

/// Host time of a set of operations, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Quantile `p` (in `[0, 1]`) by linear interpolation between the
    /// closest ranks, in nanoseconds; NaN when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        match v.len() {
            0 => f64::NAN,
            n => {
                let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                let frac = pos - lo as f64;
                v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
            }
        }
    }
}

/// The five end-to-end metrics every workload reports: set-up time, the
/// median and 90th-percentile operation latency, operations completed
/// per second of measured window, and peak resident memory.
pub fn end_to_end(setup: &[Duration], ops: &Samples, window: Duration, rss_mib: f64) -> Metrics {
    let mut m = Metrics::default();
    let setup = Samples(setup.iter().map(|d| d.as_nanos() as u64).collect());
    m.push("setup_s", setup.quantile(0.5) / 1e9, "s");
    m.push("op_p50_ms", ops.quantile(0.5) / 1e6, "ms");
    m.push("op_p90_ms", ops.quantile(0.9) / 1e6, "ms");
    m.push("ops_per_s", ops.len() as f64 / window.as_secs_f64(), "1/s");
    m.push("peak_rss_mb", rss_mib, "MiB");
    m
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A deterministic 64-bit digest (the in-repo FxHasher) over strings.
#[derive(Default)]
pub struct Digest(FxHasher);

impl Digest {
    pub fn add(&mut self, s: &str) {
        self.0.write(s.as_bytes());
        self.0.write_u64(s.len() as u64);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Wall time of the reference probe between operations on a 2-core
/// x86-64 virtual machine (alone, with warm caches, it takes about half
/// that). Normalized times read roughly as wall times on such a machine.
const REFERENCE_NS: f64 = 3.0e6;

/// Normalized time: the hosts this benchmark runs on are shared, and their
/// speed drifts by tens of percent over minutes. A `Clock` runs a fixed
/// probe of the benchmark's own code (no repository code) before and after
/// each timed call and scales the call's wall time by `REFERENCE_NS` ÷ the
/// mean of the two probe times, which cancels most of the drift. The probe
/// mixes the three kinds of work the simulator and the checker do: random
/// reads and writes over 4 MiB, the same over a cache-resident 32 KiB, and
/// small-allocation churn. Each kind alone tracks some workloads well and
/// others badly; their sum tracks all of them.
///
/// `serve-mix` round trips are not read through a `Clock`: they wait on
/// kernel timers and sockets, which host speed does not scale.
pub struct Clock {
    memory: Vec<u64>,
    cache: Vec<u64>,
    /// The latest probe time, which also opens the next call.
    last: Option<Duration>,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            memory: vec![1; 1 << 19],
            cache: vec![1; 1 << 12],
            last: None,
        }
    }

    fn random_walk(buf: &mut [u64]) {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % buf.len() as u64) as usize;
            acc = acc.wrapping_add(buf[i]);
            buf[i] = acc ^ x;
        }
        std::hint::black_box(acc);
    }

    fn allocation_churn() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(256);
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = vec![x; (x % 64) as usize + 1];
            if live.len() < 256 {
                live.push(v);
            } else {
                live[(x % 256) as usize] = v;
            }
        }
        std::hint::black_box(&live);
    }

    fn probe(memory: &mut [u64], cache: &mut [u64]) -> Duration {
        let t = Instant::now();
        Clock::random_walk(memory);
        Clock::random_walk(cache);
        Clock::allocation_churn();
        t.elapsed()
    }

    /// Runs `f`; returns its value, its normalized time, and its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration, Duration) {
        let before = match self.last.take() {
            Some(d) => d,
            None => Clock::probe(&mut self.memory, &mut self.cache),
        };
        let t = Instant::now();
        let v = f();
        let wall = t.elapsed();
        let after = Clock::probe(&mut self.memory, &mut self.cache);
        self.last = Some(after);
        let scale = 2.0 * REFERENCE_NS / (before + after).as_nanos() as f64;
        (v, wall.mul_f64(scale), wall)
    }

    /// Runs `setup` [`SETUP_REPS`] times and returns each repetition's
    /// time and the last repetition's product.
    pub fn repeat<T>(&mut self, mut setup: impl FnMut() -> T) -> (Vec<Duration>, T) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (v, d, _) = self.time(&mut setup);
            times.push(d);
            last = Some(v);
        }
        (times, last.expect("at least one set-up repetition"))
    }
}

/// The result line the benchmark prints last: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(out: &Outcome, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    )
}

/// The richer record `--out FILE` writes, which `compare` reads.
pub fn out_record(workload: &str, seed: u64, traced: bool, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{traced},\"host_cores\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}",
        host_cores(),
        out.correct(),
        out.attempted,
        out.failed,
        out.end_to_end.to_json()
    );
    if let Some(layers) = &out.per_layer {
        let _ = write!(s, ",\"per_layer\":{}", layers.to_json());
    }
    let details: Vec<String> = out
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let _ = write!(s, ",\"details\":{{{}}}}}", details.join(","));
    s
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
