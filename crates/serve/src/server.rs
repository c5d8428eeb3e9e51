//! The request-handling core: one [`Server`] owns the result cache, the
//! live-run actor, and a thread pool for batch query fan-out; each TCP
//! session gets its own thread (sessions are rare, long-lived, and
//! mostly blocked on the socket, so a fixed pool would starve the
//! (N+1)-th client). `handle` maps one request line to one response
//! line; the scenario harness and the stress test drive it directly,
//! and the stdio and TCP front ends through one session loop,
//! [`Server::serve_lines`].
//!
//! # Threading model
//!
//! The [`Engine`](cenju4_protocol::Engine) is deliberately not `Send`
//! (its hot path uses `Rc` payloads). Stateless queries build, run, and
//! drop an engine inside one worker, so nothing crosses threads. Live
//! (steerable) runs persist between requests, so they live on a
//! dedicated **run-actor thread** that owns every driver and snapshot
//! and is driven over a channel — engines are thread-confined by
//! construction, and the actor serializes run commands, which keeps
//! checkpoint/resume ids deterministic.

use crate::cache::{Claim, Counters, ResultCache};
use crate::pool::ThreadPool;
use crate::proto::{self, Cmd, Query};
use cenju4_obs::summary_to_json;
use cenju4_sim::{AccessClass, Driver, RunReport};
use cenju4_workloads::{runner, AppKind, KernelProgram};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// The longest request line a session reads, newline excluded.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Sequential baselines memoized before the memo is cleared. One entry
/// per distinct (app, scale), so a stream of fresh scales would
/// otherwise grow it without bound; a cleared entry is recomputed to the
/// same value.
const SEQ_MEMO_ENTRIES: usize = 4096;

/// Shared (Sync) server state; everything the stateless commands touch.
pub struct State {
    cache: ResultCache,
    /// Service counters (see [`Counters`] for which are exact).
    pub counters: Counters,
    /// Sequential-baseline memo: (app, scale bits) → simulated ns.
    seq_ns: Mutex<HashMap<(AppKind, u64), u64>>,
}

/// The capacity-planning service.
pub struct Server {
    state: Arc<State>,
    /// Channel into the run-actor thread (see module docs).
    runs: Mutex<Sender<RunMsg>>,
    run_actor: Option<std::thread::JoinHandle<()>>,
    /// Fan-out pool for `batch` queries. TCP sessions deliberately do
    /// NOT run here: each gets its own thread (see [`Server::serve_tcp`])
    /// so sessions never starve each other or the batch fan-out.
    queries: ThreadPool,
}

/// One handled request: the response line, and whether the client asked
/// to shut the session down.
pub struct Reply {
    /// The response line (no trailing newline).
    pub line: String,
    /// `true` for the `shutdown` command.
    pub shutdown: bool,
}

/// A live-run command forwarded to the actor, with the request id and a
/// reply channel for the response line.
struct RunMsg {
    id: u64,
    cmd: RunCmd,
    reply: Sender<String>,
}

enum RunCmd {
    Start(Box<Query>),
    Step { run: u64, steps: u64 },
    Checkpoint { run: u64 },
    Resume { snapshot: u64 },
    Result { run: u64 },
    Drop { run: u64 },
}

impl Default for Server {
    fn default() -> Self {
        Server::new(4)
    }
}

impl Server {
    /// A server whose pools run `workers` threads each.
    pub fn new(workers: usize) -> Server {
        let state = Arc::new(State {
            cache: ResultCache::default(),
            counters: Counters::default(),
            seq_ns: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = channel::<RunMsg>();
        let actor_state = Arc::clone(&state);
        let run_actor = std::thread::Builder::new()
            .name("serve-run-actor".into())
            .spawn(move || run_actor(actor_state, rx))
            .expect("spawn run actor");
        Server {
            state,
            runs: Mutex::new(tx),
            run_actor: Some(run_actor),
            queries: ThreadPool::new(workers),
        }
    }

    /// The shared state (counter observability for tests).
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }

    /// Handles one request line, returning one response line.
    pub fn handle(&self, line: &str) -> String {
        self.handle_full(line).line
    }

    /// Handles one request line, also reporting a shutdown request.
    pub fn handle_full(&self, line: &str) -> Reply {
        self.state.counters.requests.fetch_add(1, Ordering::SeqCst);
        let req = match proto::parse_request(line) {
            Ok(req) => req,
            Err((id, msg)) => {
                return Reply {
                    line: proto::err_line(id, &msg),
                    shutdown: false,
                }
            }
        };
        let id = req.id;
        let mut shutdown = false;
        let line = match req.cmd {
            Cmd::Ping => proto::ok_line(id, "{\"pong\":true}"),
            Cmd::Fingerprint(cfg) => proto::ok_line(
                id,
                &format!("{{\"fingerprint\":\"{}\"}}", cfg.fingerprint_hex()),
            ),
            Cmd::Simulate(q) => match simulate(&self.state, &q) {
                Ok(result) => proto::ok_line(id, &result),
                Err(e) => proto::err_line(id, &e),
            },
            Cmd::Batch(queries) => {
                type QueryJob = Box<dyn FnOnce() -> Result<Arc<String>, String> + Send>;
                let jobs: Vec<QueryJob> = queries
                    .into_iter()
                    .map(|q| {
                        let state = Arc::clone(&self.state);
                        // Contain panics inside the job: `map` counts on
                        // one result per job, and the claim guard has
                        // already published the failure to the cache.
                        Box::new(move || {
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                simulate(&state, &q)
                            }))
                            .unwrap_or_else(|_| Err("simulation panicked".into()))
                        }) as QueryJob
                    })
                    .collect();
                let results = self.queries.map(jobs);
                let mut body = String::from("{\"results\":[");
                for (i, r) in results.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    match r {
                        Ok(s) => body.push_str(s),
                        Err(e) => body.push_str(&format!("{{\"error\":\"{}\"}}", proto::esc(e))),
                    }
                }
                body.push_str("]}");
                proto::ok_line(id, &body)
            }
            Cmd::Stats => {
                let c = &self.state.counters;
                proto::ok_line(
                    id,
                    &format!(
                        "{{\"requests\":{},\"sims\":{},\"deduped\":{},\"snapshots\":{},\"runs\":{}}}",
                        c.requests.load(Ordering::SeqCst),
                        c.sims.load(Ordering::SeqCst),
                        c.deduped(),
                        c.snapshots.load(Ordering::SeqCst),
                        c.runs.load(Ordering::SeqCst),
                    ),
                )
            }
            Cmd::RunStart(q) => self.run_call(id, RunCmd::Start(Box::new(q))),
            Cmd::RunStep { run, steps } => self.run_call(id, RunCmd::Step { run, steps }),
            Cmd::RunCheckpoint { run } => self.run_call(id, RunCmd::Checkpoint { run }),
            Cmd::RunResume { snapshot } => self.run_call(id, RunCmd::Resume { snapshot }),
            Cmd::RunResult { run } => self.run_call(id, RunCmd::Result { run }),
            Cmd::RunDrop { run } => self.run_call(id, RunCmd::Drop { run }),
            Cmd::Shutdown => {
                shutdown = true;
                proto::ok_line(id, "{\"bye\":true}")
            }
        };
        Reply { line, shutdown }
    }

    /// Round-trips one live-run command through the actor.
    fn run_call(&self, id: u64, cmd: RunCmd) -> String {
        let (reply, rx) = channel();
        let sent = self
            .runs
            .lock()
            .unwrap()
            .send(RunMsg { id, cmd, reply })
            .is_ok();
        if !sent {
            return proto::err_line(id, "run actor is gone");
        }
        rx.recv()
            .unwrap_or_else(|_| proto::err_line(id, "run actor dropped the request"))
    }

    /// Serves one session: reads request lines from `reader` until EOF
    /// or a `shutdown` request, and answers each with one response line,
    /// sent as a single write of the line and its newline. Both front
    /// ends run this loop.
    ///
    /// A request line longer than [`MAX_REQUEST_BYTES`] is answered with
    /// one typed error line (id 0); the rest of it is discarded unread
    /// into memory, and the session continues with the next line.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let mut request = Vec::new();
        let mut response = Vec::new();
        loop {
            request.clear();
            let n = reader
                .by_ref()
                .take(MAX_REQUEST_BYTES as u64 + 1)
                .read_until(b'\n', &mut request)?;
            if n == 0 {
                return Ok(());
            }
            let reply = if request.last() != Some(&b'\n') && n > MAX_REQUEST_BYTES {
                reader.skip_until(b'\n')?;
                Reply {
                    line: proto::err_line(
                        0,
                        &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                    ),
                    shutdown: false,
                }
            } else {
                match std::str::from_utf8(&request) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => self.handle_full(line.trim_end_matches(['\n', '\r'])),
                    Err(_) => Reply {
                        line: proto::err_line(0, "request line is not valid UTF-8"),
                        shutdown: false,
                    },
                }
            };
            // One write per reply: a reply and its newline sent as two
            // writes leave the newline to Nagle's algorithm, which holds
            // it until the client's delayed ACK (~40 ms) of the first.
            response.clear();
            response.extend_from_slice(reply.line.as_bytes());
            response.push(b'\n');
            writer.write_all(&response)?;
            writer.flush()?;
            if reply.shutdown {
                return Ok(());
            }
        }
    }

    /// Serves TCP clients until the listener errors. Each connection
    /// gets a dedicated session thread — sessions block on the socket
    /// for most of their life, so pooling them would leave the
    /// (pool+1)-th client accepted but never serviced. The thread exits
    /// with its connection; `shutdown` ends that session only.
    pub fn serve_tcp(self: &Arc<Self>, listener: std::net::TcpListener) -> io::Result<()> {
        loop {
            let (stream, _) = listener.accept()?;
            let server = Arc::clone(self);
            let session = move || {
                // Every reply is one complete write, so Nagle's algorithm
                // has nothing to coalesce and could only delay a reply
                // queued behind an unacknowledged one (a pipelining
                // client). Failing to set it costs speed, not bytes.
                let _ = stream.set_nodelay(true);
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let _ = server.serve_lines(BufReader::new(read_half), stream);
            };
            if std::thread::Builder::new()
                .name("serve-session".into())
                .spawn(session)
                .is_err()
            {
                // Out of threads: drop the connection rather than hang
                // the accept loop; the client sees EOF and can retry.
                continue;
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Replace the sender with a dead channel so the actor's recv
        // errors out and the thread exits, then join it.
        let (dead, _) = channel();
        *self.runs.lock().unwrap() = dead;
        if let Some(h) = self.run_actor.take() {
            let _ = h.join();
        }
    }
}

impl State {
    /// The sequential baseline for the query's app/scale, memoized.
    fn seq_time(&self, q: &Query) -> Result<u64, String> {
        let key = (q.workload.app, q.workload.scale.to_bits());
        if let Some(&ns) = self.seq_ns.lock().unwrap().get(&key) {
            return Ok(ns);
        }
        let ns = runner::sequential_time(q.workload.app, q.workload.scale)
            .map_err(|e| format!("sequential baseline failed: {e}"))?;
        let mut memo = self.seq_ns.lock().unwrap();
        if memo.len() >= SEQ_MEMO_ENTRIES {
            memo.clear();
        }
        memo.insert(key, ns);
        Ok(ns)
    }
}

// ---------------------------------------------------------------------
// The run actor: owns every live driver and stored snapshot.
// ---------------------------------------------------------------------

/// A live run: a driver mid-flight, or its finished report.
enum RunState {
    Live(Box<Driver<KernelProgram>>),
    Done { steps: u64, result: String },
}

struct LiveRun {
    query: Query,
    state: RunState,
}

/// A stored checkpoint: the query that produced the run plus the
/// engine's step count, which [`Driver::resume`] replays to.
struct StoredSnapshot {
    query: Query,
    steps: u64,
}

fn build_program(q: &Query) -> KernelProgram {
    KernelProgram::build(
        q.workload.app,
        q.workload.variant,
        q.workload.mapping,
        &q.cfg,
        q.workload.scale,
    )
}

fn run_actor(state: Arc<State>, rx: Receiver<RunMsg>) {
    let mut runs: HashMap<u64, LiveRun> = HashMap::new();
    let mut snaps: HashMap<u64, StoredSnapshot> = HashMap::new();
    let next_run = AtomicU64::new(1);
    let next_snap = AtomicU64::new(1);
    while let Ok(RunMsg { id, cmd, reply }) = rx.recv() {
        let line = match cmd {
            RunCmd::Start(query) => {
                let query = *query;
                let mut driver = Driver::new(&query.cfg, build_program(&query));
                driver.start();
                state.counters.runs.fetch_add(1, Ordering::SeqCst);
                let run = next_run.fetch_add(1, Ordering::SeqCst);
                runs.insert(
                    run,
                    LiveRun {
                        query,
                        state: RunState::Live(Box::new(driver)),
                    },
                );
                proto::ok_line(id, &format!("{{\"run\":{run},\"steps\":0,\"done\":false}}"))
            }
            RunCmd::Step { run, steps } => match runs.get_mut(&run) {
                None => proto::err_line(id, &format!("unknown run {run}")),
                Some(live) => step_run(&state, run, live, id, steps),
            },
            RunCmd::Checkpoint { run } => match runs.get(&run) {
                None => proto::err_line(id, &format!("unknown run {run}")),
                Some(LiveRun {
                    state: RunState::Done { .. },
                    ..
                }) => proto::err_line(id, &format!("run {run} already finished")),
                Some(LiveRun {
                    state: RunState::Live(driver),
                    query,
                }) => {
                    let steps = driver.engine().steps();
                    let sid = next_snap.fetch_add(1, Ordering::SeqCst);
                    state.counters.snapshots.fetch_add(1, Ordering::SeqCst);
                    snaps.insert(
                        sid,
                        StoredSnapshot {
                            query: query.clone(),
                            steps,
                        },
                    );
                    proto::ok_line(
                        id,
                        &format!("{{\"snapshot\":{sid},\"run\":{run},\"steps\":{steps}}}"),
                    )
                }
            },
            RunCmd::Resume { snapshot } => match snaps.get(&snapshot) {
                None => proto::err_line(id, &format!("unknown snapshot {snapshot}")),
                Some(stored) => {
                    let q = stored.query.clone();
                    match Driver::resume(&q.cfg, build_program(&q), stored.steps) {
                        Some(driver) => {
                            state.counters.runs.fetch_add(1, Ordering::SeqCst);
                            let run = next_run.fetch_add(1, Ordering::SeqCst);
                            let steps = driver.engine().steps();
                            runs.insert(
                                run,
                                LiveRun {
                                    query: q,
                                    state: RunState::Live(Box::new(driver)),
                                },
                            );
                            proto::ok_line(
                                id,
                                &format!("{{\"run\":{run},\"steps\":{steps},\"done\":false}}"),
                            )
                        }
                        None => proto::err_line(
                            id,
                            &format!(
                                "cannot resume: replay went quiescent before step {}",
                                stored.steps
                            ),
                        ),
                    }
                }
            },
            RunCmd::Result { run } => match runs.get(&run) {
                None => proto::err_line(id, &format!("unknown run {run}")),
                Some(LiveRun {
                    state: RunState::Live(_),
                    ..
                }) => proto::err_line(id, &format!("run {run} not finished (keep stepping)")),
                Some(LiveRun {
                    state: RunState::Done { result, .. },
                    ..
                }) => proto::ok_line(id, result),
            },
            RunCmd::Drop { run } => {
                if runs.remove(&run).is_some() {
                    proto::ok_line(id, &format!("{{\"dropped\":{run}}}"))
                } else {
                    proto::err_line(id, &format!("unknown run {run}"))
                }
            }
        };
        // A dropped reply receiver just means the client went away.
        let _ = reply.send(line);
    }
}

/// Pumps a live run by up to `steps` events, finalizing the report at
/// quiescence so every later `run_result` returns the identical line.
fn step_run(state: &Arc<State>, run: u64, live: &mut LiveRun, id: u64, steps: u64) -> String {
    let RunState::Live(driver) = &mut live.state else {
        let RunState::Done { steps, .. } = &live.state else {
            unreachable!()
        };
        return proto::ok_line(
            id,
            &format!("{{\"run\":{run},\"steps\":{steps},\"done\":true}}"),
        );
    };
    let mut drained = false;
    for _ in 0..steps {
        if !driver.pump() {
            drained = true;
            break;
        }
    }
    let at = driver.engine().steps();
    if !drained {
        return proto::ok_line(
            id,
            &format!("{{\"run\":{run},\"steps\":{at},\"done\":false}}"),
        );
    }
    // Resolve the sequential baseline *before* consuming the driver: if
    // it fails, the run stays `Live` (the drained driver is untouched)
    // and the client can simply step again to retry. Consuming first
    // would strand the run on an unrecoverable empty report.
    let t_seq = match state.seq_time(&live.query) {
        Ok(t) => t,
        Err(e) => return proto::err_line(id, &e),
    };
    let placeholder = RunState::Done {
        steps: at,
        result: String::new(),
    };
    let RunState::Live(driver) = std::mem::replace(&mut live.state, placeholder) else {
        unreachable!()
    };
    let report = driver.finish();
    live.state = RunState::Done {
        steps: at,
        result: result_json(&live.query, &report, t_seq),
    };
    proto::ok_line(
        id,
        &format!("{{\"run\":{run},\"steps\":{at},\"done\":true}}"),
    )
}

// ---------------------------------------------------------------------
// Stateless query execution
// ---------------------------------------------------------------------

/// Clears a claimed `InFlight` slot if the owner never publishes — the
/// unwind path. Without this, a panicking simulation would leave every
/// coalesced waiter (and all future requests for the key) parked on the
/// cache condvar forever.
struct ClaimGuard<'a> {
    state: &'a State,
    key: Option<crate::proto::SimKey>,
}

impl<'a> ClaimGuard<'a> {
    fn new(state: &'a State, key: crate::proto::SimKey) -> Self {
        ClaimGuard {
            state,
            key: Some(key),
        }
    }

    /// The owner published (`fill` or `fail`); nothing left to clean up.
    fn disarm(&mut self) {
        self.key = None;
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let State {
                cache, counters, ..
            } = self.state;
            cache.fail(key, "simulation panicked".into(), counters);
        }
    }
}

/// Runs (or coalesces / serves from cache) one what-if query. Exactly
/// one simulation runs per distinct [`SimKey`](crate::proto::SimKey) at
/// any concurrency; every caller receives the same `Arc`'d result
/// string, so cached responses are byte-identical to fresh ones.
/// Failures publish to the cache too — every claimed slot resolves, so
/// coalesced waiters can never wedge.
fn simulate(state: &Arc<State>, q: &Query) -> Result<Arc<String>, String> {
    match state.cache.claim(q.key(), &state.counters) {
        Claim::Served(r) => Ok(r),
        Claim::Failed(e) => Err(e.as_ref().clone()),
        Claim::Run => {
            let mut guard = ClaimGuard::new(state, q.key());
            let outcome = runner::run_workload_on(
                &q.cfg,
                q.workload.app,
                q.workload.variant,
                q.workload.mapping,
                q.workload.scale,
            )
            .map_err(|e| format!("simulation failed: {e}"))
            .and_then(|report| Ok((report, state.seq_time(q)?)));
            guard.disarm();
            match outcome {
                Ok((report, t_seq)) => {
                    Ok(state
                        .cache
                        .fill(q.key(), result_json(q, &report, t_seq), &state.counters))
                }
                Err(e) => {
                    state.cache.fail(q.key(), e.clone(), &state.counters);
                    Err(e)
                }
            }
        }
    }
}

fn class_name(c: AccessClass) -> &'static str {
    match c {
        AccessClass::Private => "private",
        AccessClass::SharedLocal => "shared-local",
        AccessClass::SharedRemote => "shared-remote",
    }
}

/// The predicted-performance result object: identity (fingerprint +
/// workload), end-to-end time and speedup over the sequential baseline,
/// and per-class access counts and latency summaries (the
/// [`MetricsRegistry`](cenju4_obs::MetricsRegistry)-style quantile shape
/// via [`summary_to_json`]). Field order is fixed; equal reports
/// serialize byte-identically — and the object deliberately carries no
/// cache metadata, so cached and fresh responses cannot differ.
fn result_json(q: &Query, report: &RunReport, seq_ns: u64) -> String {
    let total = report.total_time().as_ns();
    let speedup = seq_ns as f64 / (total.max(1)) as f64;
    let mut out = format!(
        "{{\"fingerprint\":\"{}\",\"app\":\"{}\",\"variant\":\"{}\",\"mapping\":{},\"scale\":{},\
         \"nodes\":{},\"total_ns\":{},\"seq_ns\":{},\"speedup\":{:.4},\"miss_ratio\":{:.6},\
         \"sync_fraction\":{:.6}",
        q.cfg.fingerprint_hex(),
        q.workload.app.name(),
        q.workload.variant.name(),
        q.workload.mapping,
        q.workload.scale,
        q.cfg.sys.nodes(),
        total,
        seq_ns,
        speedup,
        report.miss_ratio(),
        report.sync_fraction(),
    );
    out.push_str(",\"accesses\":{");
    for (i, c) in AccessClass::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"total\":{},\"misses\":{}}}",
            class_name(c),
            report.accesses(c),
            report.misses(c)
        ));
    }
    out.push_str("},\"latency\":{");
    for (i, (c, h)) in AccessClass::ALL
        .into_iter()
        .zip(report.latency_hist.iter())
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{}",
            class_name(c),
            summary_to_json(&h.summary())
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const TOO_LONG: &str =
        "{\"id\":0,\"ok\":false,\"error\":\"request line exceeds 1048576 bytes\"}";
    const PONG: &str = "{\"id\":7,\"ok\":true,\"result\":{\"pong\":true}}";

    /// An over-long request line followed by `ping`: the line is one
    /// JSON-looking request padded past the cap, so only the cap rejects
    /// it.
    fn over_long_then_ping() -> Vec<u8> {
        let mut input = b"{\"id\":3,\"cmd\":\"ping\",\"pad\":\"".to_vec();
        input.resize(MAX_REQUEST_BYTES + 4096, b'x');
        input.extend_from_slice(b"\"}\n{\"id\":7,\"cmd\":\"ping\"}\n");
        input
    }

    #[test]
    fn over_long_line_is_one_error_and_the_session_continues() {
        let server = Server::new(1);
        let mut out = Vec::new();
        server
            .serve_lines(Cursor::new(over_long_then_ping()), &mut out)
            .expect("in-memory session");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("{TOO_LONG}\n{PONG}\n")
        );
    }

    /// The cap counts the line without its newline: a line of exactly
    /// `MAX_REQUEST_BYTES` is read and handled.
    #[test]
    fn line_at_the_cap_is_handled() {
        let server = Server::new(1);
        let mut input = b"{\"id\":7,\"cmd\":\"ping\"}".to_vec();
        input.resize(MAX_REQUEST_BYTES, b' ');
        input.push(b'\n');
        let mut out = Vec::new();
        server
            .serve_lines(Cursor::new(input), &mut out)
            .expect("in-memory session");
        assert_eq!(String::from_utf8(out).unwrap(), format!("{PONG}\n"));
    }

    #[test]
    fn over_long_line_over_tcp() {
        use std::net::{TcpListener, TcpStream};
        let server = Arc::new(Server::new(1));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        // The acceptor blocks forever; it dies with the test process.
        std::thread::spawn(move || server.serve_tcp(listener));

        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(&over_long_then_ping()).expect("send");
        for want in [TOO_LONG, PONG] {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            assert_eq!(line.trim_end(), want);
        }
    }
}
