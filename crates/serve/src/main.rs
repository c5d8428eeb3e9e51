//! The `cenju4-serve` binary: line-delimited JSON requests on
//! stdin/stdout (default) or a TCP listener (`--tcp ADDR`).
//!
//! ```text
//! cenju4-serve                     # serve stdin/stdout
//! cenju4-serve --tcp 127.0.0.1:0  # serve TCP; prints the bound address
//! cenju4-serve --workers 8        # pool width (default 4)
//! ```

use cenju4_serve::Server;
use std::io::Write;
use std::sync::Arc;

fn main() {
    let mut tcp: Option<String> = None;
    let mut workers = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tcp" => {
                tcp = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--tcp needs an address")),
                )
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|w| w.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a number"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let server = Arc::new(Server::new(workers));
    match tcp {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| usage(&format!("cannot bind {addr}: {e}")));
            // Print the bound address (meaningful with port 0) so
            // scripts can connect.
            println!("listening {}", listener.local_addr().expect("bound"));
            let _ = std::io::stdout().flush();
            if let Err(e) = server.serve_tcp(listener) {
                eprintln!("cenju4-serve: accept failed: {e}");
                std::process::exit(1);
            }
        }
        None => {
            // A read or write error ends the session, as EOF does.
            let _ = server.serve_lines(std::io::stdin().lock(), std::io::stdout().lock());
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("cenju4-serve: {err}");
    }
    eprintln!("usage: cenju4-serve [--tcp ADDR] [--workers N]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
