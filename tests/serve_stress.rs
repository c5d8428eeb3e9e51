//! Concurrency stress for the capacity-planning service: many client
//! threads firing overlapping what-if queries must (a) each receive a
//! response byte-identical to the sequential ground truth, and (b)
//! leave the dedup/cache counters *exactly* right — `sims` equals the
//! number of distinct sweep points no matter how many threads raced,
//! and every other request was either a cache hit or coalesced onto an
//! in-flight simulation.

use cenju4_serve::Server;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Six distinct sweep points, each fast enough for a debug-build test.
/// Requests reuse the same id for the same point so duplicate requests
/// are byte-for-byte identical, responses included.
fn sweep_points() -> Vec<String> {
    let mut lines = Vec::new();
    for (id, (nodes, app)) in [
        (8, "cg"),
        (16, "cg"),
        (8, "ft"),
        (16, "ft"),
        (32, "ft"),
        (16, "sp"),
    ]
    .into_iter()
    .enumerate()
    {
        lines.push(format!(
            "{{\"id\":{id},\"cmd\":\"simulate\",\"config\":{{\"nodes\":{nodes}}},\
             \"workload\":{{\"app\":\"{app}\",\"scale\":0.25}}}}"
        ));
    }
    lines
}

/// Sequential ground truth: one fresh server answers each distinct
/// request once.
fn ground_truth(points: &[String]) -> HashMap<String, String> {
    let server = Server::new(1);
    points
        .iter()
        .map(|req| (req.clone(), server.handle(req)))
        .collect()
}

fn run_stress(threads: usize, rounds: usize, workers: usize) {
    let points = sweep_points();
    let truth = ground_truth(&points);
    let server = Arc::new(Server::new(workers));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let server = Arc::clone(&server);
            let points = points.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for r in 0..rounds {
                    // Each thread walks the points in a different
                    // rotation so distinct keys race against each other
                    // as well as against their own duplicates.
                    for i in 0..points.len() {
                        let req = &points[(i + t + r) % points.len()];
                        got.push((req.clone(), server.handle(req)));
                    }
                }
                got
            })
        })
        .collect();

    let mut total = 0usize;
    for h in handles {
        for (req, resp) in h.join().expect("client thread") {
            assert_eq!(
                &resp, &truth[&req],
                "concurrent response diverged from sequential ground truth for {req}"
            );
            total += 1;
        }
    }
    assert_eq!(total, threads * rounds * points.len());

    // The counters are exact at any thread count: every distinct sweep
    // point simulated exactly once; every other request deduplicated.
    let c = &server.state().counters;
    assert_eq!(
        c.sims.load(Ordering::SeqCst) as usize,
        points.len(),
        "exactly one simulation per distinct sweep point"
    );
    assert_eq!(
        c.deduped() as usize,
        total - points.len(),
        "every non-first request was a cache hit or coalesced"
    );
    assert_eq!(c.requests.load(Ordering::SeqCst) as usize, total);
}

#[test]
fn concurrent_queries_are_bit_identical_and_dedup_exactly() {
    run_stress(8, 2, 4);
}

#[test]
fn single_worker_pool_gives_identical_counters() {
    run_stress(4, 2, 1);
}

/// The same property over real sockets: several TCP clients hammer one
/// listener; every response line must match the sequential ground truth.
#[test]
fn tcp_clients_get_ground_truth_responses() {
    let points = sweep_points();
    let truth = ground_truth(&points);
    let server = Arc::new(Server::new(4));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound");
    {
        let server = Arc::clone(&server);
        // The acceptor blocks forever; it dies with the test process.
        std::thread::spawn(move || {
            let _ = server.serve_tcp(listener);
        });
    }

    let clients: Vec<_> = (0..3)
        .map(|t| {
            let points = points.clone();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut got = Vec::new();
                for i in 0..points.len() {
                    let req = &points[(i + t) % points.len()];
                    writeln!(writer, "{req}").expect("send");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("reply");
                    got.push((req.clone(), line.trim_end().to_string()));
                }
                got
            })
        })
        .collect();

    for c in clients {
        for (req, resp) in c.join().expect("tcp client") {
            assert_eq!(&resp, &truth[&req], "tcp response diverged for {req}");
        }
    }
    let c = &server.state().counters;
    assert_eq!(c.sims.load(Ordering::SeqCst) as usize, points.len());
    assert_eq!(c.deduped() as usize, 3 * points.len() - points.len());
}

/// Cached round trips over TCP cost microseconds, not a delayed-ACK
/// timer: a reply sent as two writes (line, then newline) leaves the
/// newline to Nagle's algorithm, which holds it until the client ACKs
/// the first segment, ~40 ms later on Linux. The client does what a
/// latency-sensitive client should — NODELAY, one write per request —
/// so any stall is the server's.
#[test]
fn tcp_cached_round_trips_do_not_wait_for_delayed_acks() {
    let server = Arc::new(Server::new(1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound");
    // The acceptor blocks forever; it dies with the test process.
    std::thread::spawn(move || server.serve_tcp(listener));

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let req = format!("{}\n", sweep_points()[0]);
    let mut round_trip = || {
        let t = std::time::Instant::now();
        writer.write_all(req.as_bytes()).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        assert!(line.contains("\"ok\":true"), "{line}");
        t.elapsed()
    };
    round_trip(); // prime the key
    let mut times: Vec<_> = (0..50).map(|_| round_trip()).collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "median cached round trip {median:?}"
    );
}

/// Live runs step independently: while one thread drains a long run, a
/// `run_step` on another run returns at once instead of waiting its
/// turn. The long drain takes over a second unoptimised (32-node CG at
/// scale 0.5) and over half a second optimised (64-node CG at scale
/// 1.0), and the short step starts 100 ms into it.
#[test]
fn a_long_run_step_blocks_no_other_live_run() {
    let (nodes, scale) = if cfg!(debug_assertions) {
        (32, 0.5)
    } else {
        (64, 1.0)
    };
    let server = Arc::new(Server::new(1));
    let long = server.handle(&format!(
        "{{\"id\":1,\"cmd\":\"run_start\",\"config\":{{\"nodes\":{nodes}}},\
         \"workload\":{{\"app\":\"cg\",\"scale\":{scale}}}}}"
    ));
    assert!(long.contains("\"run\":1,"), "{long}");
    let short = server.handle(
        "{\"id\":2,\"cmd\":\"run_start\",\"config\":{\"nodes\":8},\
         \"workload\":{\"app\":\"ft\",\"scale\":0.25}}",
    );
    assert!(short.contains("\"run\":2,"), "{short}");

    let long_done = Arc::new(AtomicBool::new(false));
    let drain = {
        let (server, long_done) = (Arc::clone(&server), Arc::clone(&long_done));
        std::thread::spawn(move || {
            let line =
                server.handle("{\"id\":3,\"cmd\":\"run_step\",\"run\":1,\"steps\":1000000000}");
            long_done.store(true, Ordering::SeqCst);
            line
        })
    };
    // Wait until the drain request is being handled (the third request),
    // then give it time to be pumping the long run.
    while server.state().counters.requests.load(Ordering::SeqCst) < 3 {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let stepped = server.handle("{\"id\":4,\"cmd\":\"run_step\",\"run\":2,\"steps\":10}");
    let long_still_running = !long_done.load(Ordering::SeqCst);
    assert_eq!(
        stepped,
        "{\"id\":4,\"ok\":true,\"result\":{\"run\":2,\"steps\":10,\"done\":false}}"
    );
    assert!(
        long_still_running,
        "the short run's step waited for the long run's drain"
    );
    let drained = drain.join().expect("drain thread");
    assert!(drained.contains("\"done\":true"), "{drained}");
}
