//! The line-delimited JSON request protocol.
//!
//! One request per line in, one response per line out. Requests carry a
//! client-chosen `id` that is echoed on the response, so clients may
//! pipeline. Responses are either
//! `{"id":N,"ok":true,"result":<object>}` or
//! `{"id":N,"ok":false,"error":"<message>"}`.
//!
//! Everything in a response is a pure function of the request — no
//! wall-clock, no randomness, no cache metadata — so a response served
//! from the result cache is byte-identical to one computed fresh, and
//! the declarative scenario harness can pin whole response lines.

use cenju4_des::Duration;
use cenju4_directory::DirectoryId;
use cenju4_network::MulticastMode;
use cenju4_obs::json::{self, Json};
use cenju4_protocol::{ConfigError, ProtocolId, ProtocolKind, SystemConfig};
use cenju4_workloads::{AppKind, Variant};

/// The largest workload `scale` a request may ask for: the default of
/// every figure binary's problem-size argument. A workload program holds
/// one cursor per node whatever the scale, but run time grows linearly
/// with it, so the cap bounds what one request line can cost. It also
/// keeps BT, SP and FT (2048·scale blocks) clear of the 8192-block limit
/// `SharedArray::new` asserts.
pub const MAX_SCALE: f64 = 2.0;

/// A parsed request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The command.
    pub cmd: Cmd,
}

/// Every command the service understands.
#[derive(Clone, Debug)]
pub enum Cmd {
    /// Liveness probe.
    Ping,
    /// Canonical fingerprint of a configuration, without simulating.
    Fingerprint(Box<SystemConfig>),
    /// One what-if query: simulate (or serve from cache) and report.
    Simulate(Query),
    /// A batch of what-if queries fanned across the worker pool;
    /// identical in-flight queries coalesce onto one simulation.
    Batch(Vec<Query>),
    /// Deterministic service counters.
    Stats,
    /// Start a live (steerable) run.
    RunStart(Query),
    /// Pump a live run by up to `steps` engine events.
    RunStep {
        /// The run id from `run_start`.
        run: u64,
        /// Maximum events to process.
        steps: u64,
    },
    /// Checkpoint a live run.
    RunCheckpoint {
        /// The run id.
        run: u64,
    },
    /// Rebuild a run from a checkpoint (bit-identical to the original).
    RunResume {
        /// The snapshot id from `run_checkpoint`.
        snapshot: u64,
    },
    /// The finished run's report.
    RunResult {
        /// The run id.
        run: u64,
    },
    /// Discard a live run.
    RunDrop {
        /// The run id.
        run: u64,
    },
    /// Close this client's session (and, on stdio, stop the server).
    Shutdown,
}

/// A what-if query: a machine configuration plus a workload to predict.
#[derive(Clone, Debug)]
pub struct Query {
    /// The machine.
    pub cfg: SystemConfig,
    /// The workload.
    pub workload: WorkloadSpec,
}

/// Which workload to run on the configured machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// One of the paper's four NPB kernels.
    pub app: AppKind,
    /// Program variant (seq / mpi / dsm1 / dsm2).
    pub variant: Variant,
    /// Partitioned block mapping (the paper's optimized placement).
    pub mapping: bool,
    /// Problem-size multiplier.
    pub scale: f64,
}

/// The cache/coalescing key of a query: the canonical config fingerprint
/// plus the workload knobs (scale keyed by its exact bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// [`SystemConfig::fingerprint`].
    pub cfg: u64,
    /// The kernel.
    pub app: AppKind,
    /// The variant.
    pub variant: Variant,
    /// The mapping flag.
    pub mapping: bool,
    /// `scale.to_bits()`.
    pub scale_bits: u64,
}

impl Query {
    /// The dedup/cache key for this query.
    pub fn key(&self) -> SimKey {
        SimKey {
            cfg: self.cfg.fingerprint(),
            app: self.workload.app,
            variant: self.workload.variant,
            mapping: self.workload.mapping,
            scale_bits: self.workload.scale.to_bits(),
        }
    }
}

/// Parses one request line. On failure the error carries the request id
/// when one could be extracted (0 otherwise), so the response still
/// correlates.
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v = json::parse(line).map_err(|e| (0, format!("malformed JSON: {e}")))?;
    let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
    let fail = |msg: String| (id, msg);
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing \"cmd\"".into()))?;
    let cmd = match cmd {
        "ping" => Cmd::Ping,
        "fingerprint" => Cmd::Fingerprint(Box::new(parse_config(&v).map_err(fail)?)),
        "simulate" => Cmd::Simulate(parse_query(&v).map_err(fail)?),
        "batch" => {
            let reqs = v
                .get("queries")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("batch needs a \"queries\" array".into()))?;
            let queries = reqs
                .iter()
                .map(parse_query)
                .collect::<Result<Vec<_>, _>>()
                .map_err(fail)?;
            if queries.is_empty() {
                return Err((id, "batch needs at least one query".into()));
            }
            Cmd::Batch(queries)
        }
        "stats" => Cmd::Stats,
        "run_start" => Cmd::RunStart(parse_query(&v).map_err(fail)?),
        "run_step" => Cmd::RunStep {
            run: field_u64(&v, "run").map_err(fail)?,
            steps: field_u64(&v, "steps").map_err(fail)?,
        },
        "run_checkpoint" => Cmd::RunCheckpoint {
            run: field_u64(&v, "run").map_err(fail)?,
        },
        "run_resume" => Cmd::RunResume {
            snapshot: field_u64(&v, "snapshot").map_err(fail)?,
        },
        "run_result" => Cmd::RunResult {
            run: field_u64(&v, "run").map_err(fail)?,
        },
        "run_drop" => Cmd::RunDrop {
            run: field_u64(&v, "run").map_err(fail)?,
        },
        "shutdown" => Cmd::Shutdown,
        other => return Err((id, format!("unknown command {other:?}"))),
    };
    Ok(Request { id, cmd })
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer \"{key}\""))
}

/// Parses the request's `config` object into a validated [`SystemConfig`].
fn parse_config(v: &Json) -> Result<SystemConfig, String> {
    let c = v.get("config").ok_or("missing \"config\"")?;
    let nodes = c
        .get("nodes")
        .and_then(Json::as_u64)
        .ok_or("config needs integer \"nodes\"")?;
    let nodes = u16::try_from(nodes).map_err(|_| format!("nodes {nodes} out of range"))?;
    let mut b = SystemConfig::builder(nodes);
    if let Some(name) = opt_str(c, "protocol")? {
        let id = ProtocolId::parse(name).ok_or_else(|| format!("unknown protocol {name:?}"))?;
        b = b.protocol(id);
    }
    if let Some(name) = opt_str(c, "directory")? {
        let id = DirectoryId::parse(name).ok_or_else(|| format!("unknown directory {name:?}"))?;
        b = b.directory(id);
    }
    match opt_str(c, "kind")? {
        None | Some("queuing") => {}
        Some("nack") => b = b.kind(ProtocolKind::Nack),
        Some(other) => return Err(format!("unknown protocol kind {other:?}")),
    }
    if opt_bool(c, "multicast")? == Some(false) {
        b = b.multicast(MulticastMode::SinglecastEmulation);
    }
    if let Some(ns) = opt_u64(c, "mpi_latency_ns")? {
        b = b.mpi_latency(Duration::from_ns(ns));
    }
    if let Some(bw) = opt_u64(c, "mpi_bytes_per_us")? {
        b = b.mpi_bandwidth(bw);
    }
    b.build()
        .map_err(|e: ConfigError| format!("bad config: {e}"))
}

fn parse_workload(v: &Json) -> Result<WorkloadSpec, String> {
    let w = v.get("workload").ok_or("missing \"workload\"")?;
    let app = match w.get("app").and_then(Json::as_str) {
        Some(name) => AppKind::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown app {name:?} (BT, CG, FT, SP)"))?,
        None => return Err("workload needs string \"app\"".into()),
    };
    let variant = match opt_str(w, "variant")?.unwrap_or("dsm2") {
        "seq" => Variant::Seq,
        "mpi" => Variant::Mpi,
        "dsm1" | "dsm(1)" => Variant::Dsm1,
        "dsm2" | "dsm(2)" => Variant::Dsm2,
        other => return Err(format!("unknown variant {other:?} (seq, mpi, dsm1, dsm2)")),
    };
    let mapping = opt_bool(w, "mapping")?.unwrap_or(true);
    let scale = opt_f64(w, "scale")?.unwrap_or(1.0);
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("scale must be finite and positive, got {scale}"));
    }
    if scale > MAX_SCALE {
        return Err(format!("scale must be at most {MAX_SCALE}, got {scale}"));
    }
    Ok(WorkloadSpec {
        app,
        variant,
        mapping,
        scale,
    })
}

/// The optional `key` of `obj` read as `T`: absent is `None`, and a
/// value of the wrong type is an error naming the key and its type.
fn opt<'a, T>(
    obj: &'a Json,
    key: &str,
    want: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    obj.get(key)
        .map(|v| read(v).ok_or_else(|| format!("\"{key}\" must be {want}")))
        .transpose()
}

fn opt_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    opt(obj, key, "a string", Json::as_str)
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    opt(obj, key, "a non-negative integer", Json::as_u64)
}

fn opt_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    opt(obj, key, "a number", Json::as_f64)
}

fn opt_bool(obj: &Json, key: &str) -> Result<Option<bool>, String> {
    opt(obj, key, "true or false", |v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    })
}

fn parse_query(v: &Json) -> Result<Query, String> {
    Ok(Query {
        cfg: parse_config(v)?,
        workload: parse_workload(v)?,
    })
}

/// Wraps a result object into a success line.
pub fn ok_line(id: u64, result: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}")
}

/// Wraps an error message into a failure line.
pub fn err_line(id: u64, msg: &str) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", esc(msg))
}

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
