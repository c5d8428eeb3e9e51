//! The request-handling core: one [`Server`] owns the result cache, the
//! live runs and stored snapshots, and a thread pool for batch query
//! fan-out; each TCP session gets its own thread (sessions are rare,
//! long-lived, and mostly blocked on the socket, so a fixed pool would
//! starve the (N+1)-th client). `handle` maps one request line to one
//! response line; the scenario harness and the stress test drive it
//! directly, and the stdio and TCP front ends through one session loop,
//! [`Server::serve_lines`].
//!
//! # Threading model
//!
//! Every command runs on the thread that handles its request line.
//! Stateless queries build, run, and drop an engine there (or in the
//! batch pool). Live (steerable) runs persist between requests: each is
//! a [`Driver`] behind its own lock in a shared map, which is locked only
//! to look a run up or to insert or remove one. `run_step` holds only its
//! own run's lock, so a long step blocks no other run, and `run_resume`
//! replays with no lock held. Run and snapshot ids come from two
//! counters, so one session's ids are the same on every replay of its
//! request stream.

use crate::cache::{Claim, Counters, ResultCache};
use crate::pool::ThreadPool;
use crate::proto::{self, Cmd, Query};
use cenju4_obs::summary_to_json;
use cenju4_sim::{AccessClass, Driver, RunReport};
use cenju4_workloads::{runner, KernelProgram};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The longest request line a session reads, newline excluded.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Shared (Sync) server state: what the stateless commands touch, plus
/// the live runs and stored snapshots of the `run_*` commands.
pub struct State {
    cache: ResultCache,
    /// Service counters (see [`Counters`] for which are exact).
    pub counters: Counters,
    /// Live runs by id, each behind its own lock.
    runs: Mutex<HashMap<u64, Arc<Mutex<LiveRun>>>>,
    /// Stored checkpoints by id.
    snaps: Mutex<HashMap<u64, StoredSnapshot>>,
    next_run: AtomicU64,
    next_snap: AtomicU64,
}

/// The capacity-planning service.
pub struct Server {
    state: Arc<State>,
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
            runs: Mutex::new(HashMap::new()),
            snaps: Mutex::new(HashMap::new()),
            next_run: AtomicU64::new(1),
            next_snap: AtomicU64::new(1),
        });
        Server {
            state,
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
            Cmd::RunStart(q) => run_reply(id, || self.state.run_start(q)),
            Cmd::RunStep { run, steps } => run_reply(id, || self.state.run_step(run, steps)),
            Cmd::RunCheckpoint { run } => run_reply(id, || self.state.run_checkpoint(run)),
            Cmd::RunResume { snapshot } => run_reply(id, || self.state.run_resume(snapshot)),
            Cmd::RunResult { run } => run_reply(id, || self.state.run_result(run)),
            Cmd::RunDrop { run } => run_reply(id, || self.state.run_drop(run)),
            Cmd::Shutdown => {
                shutdown = true;
                proto::ok_line(id, "{\"bye\":true}")
            }
        };
        Reply { line, shutdown }
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

/// The sequential baseline for the query's app/scale. Not memoized: a
/// memo by (app, scale) saved under 2% of a CG batch's time at scale 2.0
/// (EXPERIMENTS.md, "Sequential baseline without an engine").
fn seq_time(q: &Query) -> Result<u64, String> {
    runner::sequential_time(q.workload.app, q.workload.scale)
        .map_err(|e| format!("sequential baseline failed: {e}"))
}

// ---------------------------------------------------------------------
// Live runs and stored snapshots
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

/// The run and snapshot maps are locked only to look up, insert or
/// remove an entry, none of which panics, so their locks never poison.
const MAP_LOCK: &str = "run/snapshot map lock poisoned";

fn build_program(q: &Query) -> KernelProgram {
    KernelProgram::build(
        q.workload.app,
        q.workload.variant,
        q.workload.mapping,
        &q.cfg,
        q.workload.scale,
    )
}

/// The response line of a `run_*` command whose result is the `Ok` body
/// or the `Err` message. A simulator panic becomes an error line, so it
/// ends neither the session nor the server; the run it hit stays
/// unusable (its lock is poisoned).
fn run_reply(id: u64, f: impl FnOnce() -> Result<String, String>) -> String {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(body)) => proto::ok_line(id, &body),
        Ok(Err(e)) => proto::err_line(id, &e),
        Err(_) => proto::err_line(id, "run command panicked"),
    }
}

fn run_line(run: u64, steps: u64, done: bool) -> String {
    format!("{{\"run\":{run},\"steps\":{steps},\"done\":{done}}}")
}

impl State {
    /// Registers a live driver under a fresh run id.
    fn insert_run(&self, query: Query, driver: Driver<KernelProgram>) -> u64 {
        self.counters.runs.fetch_add(1, Ordering::SeqCst);
        let run = self.next_run.fetch_add(1, Ordering::SeqCst);
        let live = LiveRun {
            query,
            state: RunState::Live(Box::new(driver)),
        };
        self.runs
            .lock()
            .expect(MAP_LOCK)
            .insert(run, Arc::new(Mutex::new(live)));
        run
    }

    /// Runs `f` on run `run` under its own lock; the map is locked only
    /// for the lookup.
    fn with_run<T>(
        &self,
        run: u64,
        f: impl FnOnce(&mut LiveRun) -> Result<T, String>,
    ) -> Result<T, String> {
        let live = self.runs.lock().expect(MAP_LOCK).get(&run).cloned();
        let live = live.ok_or_else(|| format!("unknown run {run}"))?;
        let mut live = live
            .lock()
            .map_err(|_| format!("run {run} panicked earlier"))?;
        f(&mut live)
    }

    fn run_start(&self, query: Query) -> Result<String, String> {
        let mut driver = Driver::new(&query.cfg, build_program(&query));
        driver.start();
        Ok(run_line(self.insert_run(query, driver), 0, false))
    }

    fn run_step(&self, run: u64, steps: u64) -> Result<String, String> {
        self.with_run(run, |live| self.step_run(run, live, steps))
    }

    fn run_checkpoint(&self, run: u64) -> Result<String, String> {
        let (query, steps) = self.with_run(run, |live| match &live.state {
            RunState::Done { .. } => Err(format!("run {run} already finished")),
            RunState::Live(driver) => Ok((live.query.clone(), driver.engine().steps())),
        })?;
        let sid = self.next_snap.fetch_add(1, Ordering::SeqCst);
        self.counters.snapshots.fetch_add(1, Ordering::SeqCst);
        self.snaps
            .lock()
            .expect(MAP_LOCK)
            .insert(sid, StoredSnapshot { query, steps });
        Ok(format!(
            "{{\"snapshot\":{sid},\"run\":{run},\"steps\":{steps}}}"
        ))
    }

    /// Rebuilds a checkpointed run as a new live run, replaying with no
    /// lock held.
    fn run_resume(&self, snapshot: u64) -> Result<String, String> {
        let (query, steps) = match self.snaps.lock().expect(MAP_LOCK).get(&snapshot) {
            None => return Err(format!("unknown snapshot {snapshot}")),
            Some(stored) => (stored.query.clone(), stored.steps),
        };
        let driver = Driver::resume(&query.cfg, build_program(&query), steps)
            .ok_or_else(|| format!("cannot resume: replay went quiescent before step {steps}"))?;
        let at = driver.engine().steps();
        Ok(run_line(self.insert_run(query, driver), at, false))
    }

    fn run_result(&self, run: u64) -> Result<String, String> {
        self.with_run(run, |live| match &live.state {
            RunState::Live(_) => Err(format!("run {run} not finished (keep stepping)")),
            RunState::Done { result, .. } => Ok(result.clone()),
        })
    }

    fn run_drop(&self, run: u64) -> Result<String, String> {
        match self.runs.lock().expect(MAP_LOCK).remove(&run) {
            Some(_) => Ok(format!("{{\"dropped\":{run}}}")),
            None => Err(format!("unknown run {run}")),
        }
    }

    /// Pumps a live run by up to `steps` events, finalizing the report
    /// at quiescence so every later `run_result` returns the identical
    /// line.
    fn step_run(&self, run: u64, live: &mut LiveRun, steps: u64) -> Result<String, String> {
        let driver = match &mut live.state {
            RunState::Done { steps, .. } => return Ok(run_line(run, *steps, true)),
            RunState::Live(driver) => driver,
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
            return Ok(run_line(run, at, false));
        }
        // Resolve the sequential baseline *before* consuming the driver:
        // if it fails, the run stays `Live` (the drained driver is
        // untouched) and the client can simply step again to retry.
        // Consuming first would strand the run on an unrecoverable empty
        // report.
        let t_seq = seq_time(&live.query)?;
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
        Ok(run_line(run, at, true))
    }
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
            .and_then(|report| Ok((report, seq_time(q)?)));
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
        report.speedup(seq_ns),
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
