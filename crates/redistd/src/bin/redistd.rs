//! `redistd` — the K-PBS scheduling daemon.
//!
//! ```sh
//! redistd [--addr 127.0.0.1:7411] [--workers N] [--queue-depth N]
//!         [--cache-capacity N] [--max-cells N] [--io-threads N]
//!         [--flight-capacity N] [--trace out.json] [--flight-dump PATH]
//!         [--port-file PATH]
//! ```
//!
//! Accepts length-prefixed binary planning requests (see `redistd::wire`),
//! plans them with OGGP/GGP on a fixed worker pool behind a bounded
//! admission queue, and serves repeated instances from a sharded plan
//! cache. A few `epoll` I/O threads carry the sockets. Plaintext admin
//! commands on a connection: `METRICS\n` returns Prometheus text
//! exposition, `FLIGHT\n` a dump of the always-on per-request flight
//! recorder (`redistctl` fetches both).
//!
//! An unknown flag, a flag without its value or a malformed value exits 2
//! with one line on stderr, before anything binds.
//!
//! SIGTERM or ctrl-c triggers a graceful shutdown: the listener closes,
//! every admitted request is drained to its response, then the process
//! exits. With `--trace` the daemon records telemetry spans for every
//! planned request and writes a Chrome trace-event JSON on shutdown.

use redistd::server::{self, ServerConfig};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use telemetry::{counters, export, spans};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Zero-dependency signal hookup: libc is already linked by std, so the
    // two symbols we need can be declared directly. The handler only
    // stores to an atomic — async-signal-safe by construction.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// The parsed command line.
struct Options {
    config: ServerConfig,
    trace: Option<String>,
    flight_dump: Option<String>,
    port_file: Option<String>,
}

/// Takes and parses the value that follows `flag`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("bad value for {flag}: {v:?}"))
}

/// Parses the arguments after the program name. An unknown flag, a flag
/// without its value or a malformed value is an error, never a silent
/// default.
fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        config: ServerConfig {
            addr: "127.0.0.1:7411".into(),
            ..ServerConfig::default()
        },
        trace: None,
        flight_dump: None,
        port_file: None,
    };
    let c = &mut o.config;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => c.addr = value(&mut args, &flag)?,
            "--workers" => c.workers = value(&mut args, &flag)?,
            "--queue-depth" => c.queue_depth = value(&mut args, &flag)?,
            "--cache-capacity" => c.cache_capacity = value(&mut args, &flag)?,
            "--max-cells" => c.max_cells = value(&mut args, &flag)?,
            "--flight-capacity" => c.flight_capacity = value(&mut args, &flag)?,
            "--io-threads" => c.io_threads = value(&mut args, &flag)?,
            "--trace" => o.trace = Some(value(&mut args, &flag)?),
            "--flight-dump" => o.flight_dump = Some(value(&mut args, &flag)?),
            "--port-file" => o.port_file = Some(value(&mut args, &flag)?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(o)
}

fn main() {
    if std::env::args().any(|a| a == "--help") {
        println!(
            "redistd — long-lived K-PBS scheduling daemon\n\
             \n\
             usage: redistd [--addr 127.0.0.1:7411] [--workers N]\n\
             \x20              [--queue-depth N] [--cache-capacity N]\n\
             \x20              [--max-cells N] [--io-threads N] [--trace out.json]\n\
             \n\
             --addr A            bind address (default 127.0.0.1:7411)\n\
             --workers N         planner threads (default: cores, max 8)\n\
             --queue-depth N     admission queue bound; overflow answers\n\
             \x20                   Rejected{{queue_full}} (default 64)\n\
             --cache-capacity N  plan-cache entries, 0 disables (default 1024)\n\
             --max-cells N       reject matrices with more than N cells\n\
             \x20                   (default 1048576)\n\
             --io-threads N      epoll I/O threads carrying the sockets (default 2)\n\
             --trace PATH        record spans; write Chrome trace JSON on exit\n\
             --flight-capacity N flight-recorder ring size (default 1024)\n\
             --flight-dump PATH  write the flight-recorder dump on drain\n\
             --port-file PATH    write the bound address once listening\n\
             \x20                   (lets scripts use --addr host:0)\n\
             \n\
             Plaintext admin commands on a connection: 'METRICS\\n'\n\
             (Prometheus exposition), 'FLIGHT\\n' (flight dump).\n\
             An unknown flag or a missing or malformed value exits 2.\n\
             SIGTERM / ctrl-c drains in-flight requests and exits."
        );
        return;
    }

    let Options {
        config,
        trace: trace_path,
        flight_dump,
        port_file,
    } = parse_options(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("redistd: {e}");
        std::process::exit(2);
    });

    // Work counters power the per-request deltas in every response; spans
    // only when a trace is requested (they buffer events).
    counters::enable();
    if trace_path.is_some() {
        spans::enable();
    }

    install_signal_handlers();
    let handle = match server::start(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("redistd: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "redistd listening on {} ({} workers, {} I/O threads, queue depth {}, cache {})",
        handle.addr(),
        config.workers,
        config.io_threads,
        config.queue_depth,
        config.cache_capacity
    );
    if let Some(path) = &port_file {
        // Written last, atomically enough for a poll loop: scripts binding
        // port 0 wait for this file to learn the real address.
        if let Err(e) = std::fs::write(path, format!("{}\n", handle.addr())) {
            eprintln!("redistd: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("redistd: shutting down (draining in-flight requests)");
    let (stats, flight) = handle.shutdown_with_flight();
    if let Some(path) = &flight_dump {
        match std::fs::write(path, &flight) {
            Ok(()) => eprintln!("redistd: flight records written to {path}"),
            Err(e) => eprintln!("redistd: cannot write {path}: {e}"),
        }
    }
    eprintln!(
        "redistd: served {} requests ({} cache hits, {} rejected), p99 {} us",
        stats.served,
        stats.cache.hits,
        stats.rejected_queue_full + stats.rejected_too_large,
        stats.p99_us
    );

    if let Some(path) = trace_path {
        spans::disable();
        let events = spans::drain_all();
        match std::fs::write(&path, export::chrome_trace(&events)) {
            Ok(()) => eprintln!("redistd: {} span events written to {path}", events.len()),
            Err(e) => eprintln!("redistd: cannot write {path}: {e}"),
        }
    }
}
