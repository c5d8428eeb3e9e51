//! `serve-mix`: `cenju4-serve` over TCP under a seeded closed-loop mix.
//!
//! The benchmark starts itself again as a server child
//! (`serve-child`), which runs `Server::new(2)` + `Server::serve_tcp` on
//! `127.0.0.1:0` — the path `cenju4-serve --tcp 127.0.0.1:0 --workers 2`
//! takes. Two client threads each hold one connection and send their
//! next request only when the previous reply has arrived. Each replays
//! its own seeded stream:
//!
//! * 80% `simulate` on a 16-key hot set primed during set-up;
//! * 12% `simulate` on a fresh key, never repeated within a stream; one
//!   fresh key in four sits at the same position in both streams;
//! * 5% `batch` of 4 keys (3 hot, 1 fresh);
//! * 3% `fingerprint`.

use crate::dsm::{self, Point};
use crate::layers::{self, EngineWork, LayerInputs};
use crate::report::{self, Clock, Metrics, Outcome, Samples};
use crate::trace::Tracer;
use crate::Run;
use cenju4_des::SplitMix64;
use cenju4_obs::json::{self, Json};
use cenju4_serve::{proto, Cmd, Server};
use cenju4_sim::SystemConfig;
use cenju4_workloads::{runner, AppKind, Variant};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HOT: usize = 16;
const CLIENTS: usize = 2;
/// A reply slower than this is a failed request.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One simulate query: the machine size and the workload.
#[derive(Clone, Copy)]
struct Key {
    app: AppKind,
    variant: Variant,
    nodes: u16,
    scale: f64,
}

impl Key {
    fn query(&self) -> String {
        let variant = match self.variant {
            Variant::Dsm1 => "dsm1",
            _ => "dsm2",
        };
        format!(
            "\"config\":{{\"nodes\":{}}},\"workload\":{{\"app\":\"{}\",\"variant\":\"{variant}\",\"scale\":{}}}",
            self.nodes,
            self.app.name(),
            self.scale
        )
    }

    fn id(&self) -> String {
        format!(
            "{}/{}/{}/{:016x}",
            self.app,
            self.variant,
            self.nodes,
            self.scale.to_bits()
        )
    }

    fn point(&self) -> Point {
        Point {
            app: self.app,
            variant: self.variant,
            mapping: true,
            nodes: self.nodes,
            scale: self.scale,
        }
    }
}

fn fingerprint_hex(nodes: u16) -> String {
    SystemConfig::builder(nodes)
        .build()
        .expect("benchmark configs use valid node counts")
        .fingerprint_hex()
}

/// Every app, both DSM variants, 8 and 32 nodes, at scale 0.25: larger
/// than any fresh key, so the server's peak memory is mostly set while
/// priming, whatever the seed.
fn hot_keys() -> Vec<Key> {
    let mut keys = Vec::with_capacity(HOT);
    for app in AppKind::ALL {
        for variant in [Variant::Dsm1, Variant::Dsm2] {
            for nodes in [8, 32] {
                keys.push(Key {
                    app,
                    variant,
                    nodes,
                    scale: 0.25,
                });
            }
        }
    }
    keys
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Cold,
    Batch,
    Fingerprint,
}

enum Req {
    Simulate(Class, Key),
    Batch([Key; 4]),
    Fingerprint(u16),
}

impl Req {
    fn class(&self) -> Class {
        match self {
            Req::Simulate(c, _) => *c,
            Req::Batch(_) => Class::Batch,
            Req::Fingerprint(_) => Class::Fingerprint,
        }
    }

    fn line(&self, id: u64) -> String {
        match self {
            Req::Simulate(_, k) => simulate_line(id, k),
            Req::Batch(keys) => {
                let qs: Vec<String> = keys.iter().map(|k| format!("{{{}}}", k.query())).collect();
                format!(
                    "{{\"id\":{id},\"cmd\":\"batch\",\"queries\":[{}]}}",
                    qs.join(",")
                )
            }
            Req::Fingerprint(nodes) => {
                format!("{{\"id\":{id},\"cmd\":\"fingerprint\",\"config\":{{\"nodes\":{nodes}}}}}")
            }
        }
    }

    fn keys(&self) -> &[Key] {
        match self {
            Req::Simulate(_, k) => std::slice::from_ref(k),
            Req::Batch(keys) => keys,
            Req::Fingerprint(_) => &[],
        }
    }
}

fn simulate_line(id: u64, k: &Key) -> String {
    format!("{{\"id\":{id},\"cmd\":\"simulate\",{}}}", k.query())
}

/// One client's seeded request stream.
struct Stream {
    seed: u64,
    client: u64,
    rng: SplitMix64,
    hot: Vec<Key>,
    next_fresh: u64,
    seen: HashSet<String>,
    next_id: u64,
}

impl Stream {
    fn new(seed: u64, client: usize, hot: &[Key]) -> Stream {
        Stream {
            seed,
            client: client as u64,
            rng: SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            hot: hot.to_vec(),
            next_fresh: 0,
            seen: HashSet::new(),
            next_id: 100,
        }
    }

    /// The next fresh key: any app and DSM variant, 2 or 4 nodes, scale
    /// in [0.02, 0.05). Every fourth is shared by both streams.
    fn fresh(&mut self) -> Key {
        loop {
            let k = self.next_fresh;
            self.next_fresh += 1;
            let owner = if k.is_multiple_of(4) {
                u64::MAX
            } else {
                self.client
            };
            let mut r = SplitMix64::new(
                self.seed
                    ^ owner.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ k.wrapping_mul(0xBF58_476D_1CE4_E5B9),
            );
            let key = Key {
                app: AppKind::ALL[r.next_below(4) as usize],
                variant: [Variant::Dsm1, Variant::Dsm2][r.next_below(2) as usize],
                nodes: [2, 4][r.next_below(2) as usize],
                scale: 0.02 + 0.03 * r.next_f64(),
            };
            if self.seen.insert(key.id()) {
                return key;
            }
        }
    }

    fn hot(&mut self) -> Key {
        self.hot[self.rng.next_below(HOT as u64) as usize]
    }

    fn next(&mut self) -> (u64, Req) {
        self.next_id += 1;
        let req = match self.rng.next_below(100) {
            0..80 => Req::Simulate(Class::Hit, self.hot()),
            80..92 => Req::Simulate(Class::Cold, self.fresh()),
            92..97 => Req::Batch([self.hot(), self.hot(), self.hot(), self.fresh()]),
            _ => Req::Fingerprint(2 + self.rng.next_below(127) as u16),
        };
        (self.next_id, req)
    }
}

/// State both clients share: the first result seen per key, and every
/// key sent.
#[derive(Default)]
struct Shared {
    canonical: Mutex<HashMap<String, String>>,
    keys: Mutex<HashSet<String>>,
}

impl Shared {
    fn note_keys(&self, keys: &[Key]) {
        let mut set = self.keys.lock().expect("key set lock poisoned");
        for k in keys {
            set.insert(k.id());
        }
    }

    fn canonical(&self, k: &Key) -> Option<String> {
        self.canonical
            .lock()
            .expect("canonical map lock poisoned")
            .get(&k.id())
            .cloned()
    }

    /// Checks a result object for `k`: it names the config's fingerprint,
    /// and it is byte-identical to the first result seen for the key.
    fn settle(&self, k: &Key, body: &str) -> Result<(), String> {
        let fp = format!("{{\"fingerprint\":\"{}\",", fingerprint_hex(k.nodes));
        if !body.starts_with(&fp) {
            return Err(format!("result for {} does not start with {fp}", k.id()));
        }
        let mut map = self.canonical.lock().expect("canonical map lock poisoned");
        match map.get(&k.id()) {
            None => {
                map.insert(k.id(), body.to_string());
                Ok(())
            }
            Some(first) if first == body => Ok(()),
            Some(first) => Err(format!(
                "result for {} differs from the first one:\n  first: {first}\n  now:   {body}",
                k.id()
            )),
        }
    }
}

/// Strips `{"id":N,"ok":true,"result":` … `}` from a reply.
fn ok_body(id: u64, resp: &str) -> Result<&str, String> {
    resp.strip_prefix(&format!("{{\"id\":{id},\"ok\":true,\"result\":"))
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| format!("request {id}: unexpected reply {resp}"))
}

fn check_reply(req: &Req, id: u64, resp: &str, shared: &Shared) -> Result<(), String> {
    let body = ok_body(id, resp)?;
    match req {
        Req::Simulate(_, k) => shared.settle(k, body),
        Req::Batch(keys) => {
            let mut rest = body
                .strip_prefix("{\"results\":[")
                .and_then(|r| r.strip_suffix("]}"))
                .ok_or_else(|| format!("request {id}: batch reply is not a results array"))?;
            for k in &keys[..3] {
                let first = shared
                    .canonical(k)
                    .ok_or_else(|| format!("hot key {} was never primed", k.id()))?;
                rest = rest
                    .strip_prefix(first.as_str())
                    .and_then(|r| r.strip_prefix(','))
                    .ok_or_else(|| format!("request {id}: batch result for {} differs", k.id()))?;
            }
            shared.settle(&keys[3], rest)
        }
        Req::Fingerprint(nodes) => {
            let want = format!("{{\"fingerprint\":\"{}\"}}", fingerprint_hex(*nodes));
            if body == want {
                Ok(())
            } else {
                Err(format!("request {id}: fingerprint {body}, computed {want}"))
            }
        }
    }
}

/// One connection, line in, line out.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.reader.read_line(&mut s)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(s.trim_end().to_string())
    }
}

/// The server child; killed and waited for when dropped.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    fn spawn() -> Result<ServerChild, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the server child: {e}"))?;
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening ")?.parse().ok());
        match addr {
            Some(addr) => Ok(ServerChild { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server child did not report an address: {line:?}"))
            }
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        report::peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve-child` entry point: serve TCP until killed, or until the
/// parent's end of stdin closes.
pub fn child_main() -> ExitCode {
    // Detached on purpose: it ends the whole process, so an orphaned
    // server cannot outlive a benchmark that was killed.
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve-child: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("listening {addr}");
    let _ = io::stdout().flush();
    let server = Arc::new(Server::new(2));
    if let Err(e) = server.serve_tcp(listener) {
        eprintln!("serve-child: accept failed: {e}");
    }
    ExitCode::FAILURE
}

/// Starts a server child, connects both clients, and primes the hot set
/// (pipelined on the first connection). Returns the primed results.
fn start(hot: &[Key]) -> Result<(ServerChild, Vec<Conn>, Vec<String>), String> {
    let child = ServerChild::spawn()?;
    let io_err = |e: io::Error| format!("server child at {}: {e}", child.addr);
    let mut conns = (0..CLIENTS)
        .map(|_| Conn::connect(child.addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(io_err)?;
    for (i, k) in hot.iter().enumerate() {
        conns[0]
            .send(&simulate_line(i as u64 + 1, k))
            .map_err(io_err)?;
    }
    let mut primes = Vec::with_capacity(hot.len());
    for i in 0..hot.len() {
        let resp = conns[0].recv().map_err(io_err)?;
        primes.push(ok_body(i as u64 + 1, &resp)?.to_string());
    }
    Ok((child, conns, primes))
}

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    /// Request line, reply line, class and round-trip time.
    done: Vec<(String, String, Class, u64)>,
    /// Fresh keys this client sent, in order.
    fresh: Vec<Key>,
    failed: u64,
    errors: Vec<String>,
}

fn client_loop(
    conn: &mut Conn,
    mut stream: Stream,
    deadline: Instant,
    shared: &Shared,
) -> ClientLog {
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let (id, req) = stream.next();
        let line = req.line(id);
        shared.note_keys(req.keys());
        log.fresh.extend(match &req {
            Req::Simulate(Class::Cold, k) => Some(*k),
            Req::Batch(keys) => Some(keys[3]),
            _ => None,
        });
        log.attempted += 1;
        let t = Instant::now();
        let reply = conn.send(&line).and_then(|_| conn.recv());
        let ns = t.elapsed().as_nanos() as u64;
        match reply {
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("request {id}: {e}"));
                break;
            }
            Ok(resp) => {
                if let Err(e) = check_reply(&req, id, &resp, shared) {
                    log.failed += 1;
                    log.errors.push(e);
                }
                log.done.push((line, resp, req.class(), ns));
            }
        }
    }
    log
}

/// Runs both clients' closed loops for `secs` seconds.
fn closed_loop(
    conns: &mut [Conn],
    seed: u64,
    hot: &[Key],
    secs: f64,
    shared: &Shared,
) -> (Vec<ClientLog>, Duration) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stream = Stream::new(seed, c, hot);
                s.spawn(move || client_loop(conn, stream, deadline, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed())
}

/// Round-trip times of one class, in ns.
fn class_samples(logs: &[ClientLog], class: Class) -> Samples {
    Samples(
        logs.iter()
            .flat_map(|l| l.done.iter())
            .filter(|d| d.2 == class)
            .map(|d| d.3)
            .collect(),
    )
}

/// The server's `stats` counters: (sims, deduped).
fn server_stats(conn: &mut Conn) -> Result<(u64, u64), String> {
    conn.send("{\"id\":1,\"cmd\":\"stats\"}")
        .and_then(|_| conn.recv())
        .map_err(|e| format!("stats request failed: {e}"))
        .and_then(|resp| {
            let v = json::parse(&resp).map_err(|e| format!("stats reply {resp}: {e}"))?;
            let r = v.get("result").ok_or("stats reply has no result")?;
            let get = |k: &str| {
                r.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("stats has no {k}"))
            };
            Ok((get("sims")?, get("deduped")?))
        })
}

pub fn run(run: &Run) -> Outcome {
    let hot = hot_keys();
    let mut out = Outcome::default();
    // Set-up is mostly the priming simulations, so it is normalized like
    // the CPU-bound workloads; the round trips are wall time.
    let (setup, started) = Clock::new().repeat(|| start(&hot));
    let (child, mut conns, primes) = match started {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.gate_failures.push(e);
            return out;
        }
    };
    let shared = Shared::default();
    for (k, body) in hot.iter().zip(&primes) {
        shared.note_keys(std::slice::from_ref(k));
        if let Err(e) = shared.settle(k, body) {
            out.gate_failures.push(e);
        }
    }

    // A traced run spends half its window on TCP and the rest replaying
    // the same streams in process.
    let secs = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let (logs, window) = closed_loop(&mut conns, run.seed, &hot, secs, &shared);
    let distinct = shared.keys.lock().expect("key set lock poisoned").len() as u64;
    match server_stats(&mut conns[0]) {
        Ok((sims, deduped)) => {
            out.detail("server_sims", sims);
            out.detail("server_deduped", deduped);
            if sims != distinct {
                out.gate_failures.push(format!(
                    "server ran {sims} simulations for {distinct} distinct keys"
                ));
            }
        }
        Err(e) => out.gate_failures.push(e),
    }
    let rss = child.peak_rss_mib();
    drop(conns);
    drop(child);

    let ops = Samples(
        logs.iter()
            .flat_map(|l| l.done.iter().map(|d| d.3))
            .collect(),
    );
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    for l in &logs {
        out.gate_failures.extend(l.errors.iter().take(5).cloned());
    }
    out.end_to_end = report::end_to_end(&setup, &ops, window, rss);

    // A healthy server answers a cached query well within 100 ms; fewer
    // than 10 hits per measured second means the service stalled.
    let hits = class_samples(&logs, Class::Hit);
    let min_hits = (10.0 * secs) as usize;
    if hits.len() < min_hits {
        out.gate_failures.push(format!(
            "only {} cache-hit samples in {secs} s (need {min_hits})",
            hits.len()
        ));
    }
    for (name, class) in [
        ("hit", Class::Hit),
        ("cold", Class::Cold),
        ("batch", Class::Batch),
        ("fingerprint", Class::Fingerprint),
    ] {
        let s = class_samples(&logs, class);
        out.detail(&format!("{name}_samples"), s.len());
        if s.len() > 0 {
            out.detail(&format!("{name}_p50_us"), s.quantile(0.5) / 1e3);
            out.detail(&format!("{name}_p90_us"), s.quantile(0.9) / 1e3);
        }
    }
    out.detail("distinct_keys", distinct);

    if run.trace {
        trace_in_process(run, &mut out, &logs, &hot, &hits);
    }
    out
}

/// Service counters of a replay server: (sims, hits, coalesced).
type ServeCounters = (u64, u64, u64);

/// Replays the logged request lines through a fresh primed `Server`, one
/// thread per client as over TCP, and checks every reply against the one
/// the TCP server gave. Returns the time spent in `Server::handle`, the
/// spans when `traced` (one `serve.handle` root per request, its op id
/// tagged with the class in the top bits), and the server's counters.
fn replay(
    logs: &[ClientLog],
    hot: &[Key],
    traced: bool,
) -> Result<(u64, Tracer, ServeCounters), String> {
    let server = Server::new(2);
    for (i, k) in hot.iter().enumerate() {
        server.handle(&simulate_line(i as u64 + 1, k));
    }
    let epoch = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, log)| {
                let server = &server;
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, c as u32 + 1);
                    let mut handle_ns = 0u64;
                    let mut bad = None;
                    for (i, (line, want, class, _)) in log.done.iter().enumerate() {
                        let op = ((*class as u64) << 48) | ((c as u64) << 32) | i as u64;
                        let t = Instant::now();
                        let got = if traced {
                            tr.span("serve.handle", op, None, || server.handle(line))
                        } else {
                            server.handle(line)
                        };
                        handle_ns += t.elapsed().as_nanos() as u64;
                        if got != *want && bad.is_none() {
                            bad = Some(format!(
                                "in-process reply differs from the TCP reply:\n  tcp:        {want}\n  in-process: {got}"
                            ));
                        }
                    }
                    (handle_ns, tr, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut tracer = Tracer::new(epoch, 0);
    let mut handle_ns = 0;
    for (ns, tr, bad) in results {
        if let Some(e) = bad {
            return Err(e);
        }
        handle_ns += ns;
        tracer.absorb(tr);
    }
    let c = &server.state().counters;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::SeqCst);
    Ok((
        handle_ns,
        tracer,
        (load(&c.sims), load(&c.hits), load(&c.coalesced)),
    ))
}

/// Replays both logged streams in process (once untraced, once traced),
/// probes the protocol layer with the same lines, then simulates every
/// fresh key directly to attribute the cold requests' time to the
/// simulator's layers.
fn trace_in_process(
    run: &Run,
    out: &mut Outcome,
    logs: &[ClientLog],
    hot: &[Key],
    tcp_hits: &Samples,
) {
    let replays = replay(logs, hot, false)
        .and_then(|(untraced_ns, ..)| Ok((untraced_ns, replay(logs, hot, true)?)));
    let (untraced_ns, (_, mut tracer, (sims, hits, coalesced))) = match replays {
        Ok(r) => r,
        Err(e) => {
            out.gate_failures.push(e);
            return;
        }
    };
    let overhead = layers::overhead_pct(tracer.root_ns("serve.handle"), untraced_ns);

    // Parse and key probes: the same lines through the protocol layer.
    for (c, log) in logs.iter().enumerate() {
        for (i, (line, ..)) in log.done.iter().enumerate() {
            let op = ((c as u64) << 32) | i as u64;
            let req = tracer.span("serve.parse", op, None, || proto::parse_request(line));
            if let Ok(proto::Request {
                cmd: Cmd::Simulate(q),
                ..
            }) = req
            {
                tracer.span("serve.key", op, None, || q.key());
            }
        }
    }

    // Attribution: each distinct fresh key simulated directly, and each
    // distinct sequential baseline.
    let mut work = EngineWork::default();
    let mut seen = HashSet::new();
    let mut seq_seen = HashSet::new();
    for (n, k) in logs.iter().flat_map(|l| l.fresh.iter()).enumerate() {
        if !seen.insert(k.id()) {
            continue;
        }
        let op = n as u64;
        dsm::run_point_traced(&k.point(), op, &mut tracer, &mut work);
        if seq_seen.insert((k.app, k.scale.to_bits())) {
            let root = tracer.begin("bench.seq", op, None);
            let seq = tracer.span("workloads.seq_baseline", op, Some(root), || {
                runner::sequential_time(k.app, k.scale)
            });
            tracer.end(root);
            if let Err(e) = seq {
                out.gate_failures
                    .push(format!("sequential baseline for {}: {e}", k.id()));
            }
        }
    }

    // `Server::handle` time not accounted for by the simulations it ran
    // is the serve layer's own.
    let handle_ns = tracer.root_ns("serve.handle");
    let mut self_ns: BTreeMap<&'static str, u64> = tracer
        .layer_self_ns(&["bench.point", "bench.seq"])
        .into_iter()
        .filter(|(layer, _)| *layer != "bench")
        .collect();
    let simulated: u64 = self_ns.values().sum();
    self_ns.insert("serve", handle_ns.saturating_sub(simulated));

    let handle_of = |class: Class| {
        Samples(
            tracer
                .spans
                .iter()
                .filter(|s| s.name == "serve.handle" && s.op >> 48 == class as u64)
                .map(|s| s.busy_ns)
                .collect(),
        )
    };
    let by_name = tracer.by_name();
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / s.spans.max(1) as f64 / 1e3)
    };
    let tcp_hit_ns = tcp_hits.quantile(0.5);
    let handle_hit_ns = handle_of(Class::Hit).quantile(0.5);
    let inputs = LayerInputs {
        self_ns,
        transport_share_pct: 100.0 * (tcp_hit_ns - handle_hit_ns) / tcp_hit_ns,
        serve_dedup_ratio: (hits + coalesced) as f64 / (sims + hits + coalesced).max(1) as f64,
        trace_overhead_pct: overhead,
        ..LayerInputs::default()
    };
    let per_layer = layers::per_layer(&work, &inputs);
    let mut extra = Metrics::default();
    extra.push("serve.handle_hit_us", handle_hit_ns / 1e3, "us");
    extra.push(
        "serve.transport_hit_us",
        (tcp_hit_ns - handle_hit_ns) / 1e3,
        "us",
    );
    extra.push("serve.parse_us", mean_us("serve.parse"), "us");
    extra.push("serve.key_us", mean_us("serve.key"), "us");
    extra.push(
        "serve.handle_cold_ms",
        handle_of(Class::Cold).quantile(0.5) / 1e6,
        "ms",
    );
    extra.push(
        "serve.batch_us",
        handle_of(Class::Batch).quantile(0.5) / 1e3,
        "us",
    );
    extra.push(
        "serve.seq_baseline_ms",
        mean_us("workloads.seq_baseline") / 1e3,
        "ms",
    );
    extra.push("serve.sims", sims as f64, "count");
    extra.push("serve.hits", hits as f64, "count");
    extra.push("serve.coalesced", coalesced as f64, "count");
    for m in &extra.0 {
        out.detail(&m.name, m.value);
    }
    run.write_trace(out, &tracer, &per_layer, &work, extra);
    out.per_layer = Some(per_layer);
}
