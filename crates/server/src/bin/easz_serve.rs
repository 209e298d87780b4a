//! `easz-serve` — stand up a batched `.easz` decode server.
//!
//! ```sh
//! cargo run --release -p easz-server --bin easz-serve -- --addr 127.0.0.1:4860
//! ```
//!
//! The first run pretrains the quick reconstructor (minutes on one CPU
//! core); afterwards weights load from `target/easz-weights/`. The wire
//! protocol is specified in `docs/FORMAT.md`. Both decode tiers are always
//! served: containers carrying the quantized opt-in flag (and `DECODE_TIERED`
//! requests naming tier 1) run on the int8 fast path, everything else on the
//! bit-exact f32 path.

#![deny(clippy::undocumented_unsafe_blocks)]

use easz_core::zoo;
use easz_server::{EaszServer, ReactorConfig, ServerConfig, TraceConfig};
use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "usage: easz-serve [--addr HOST:PORT] [--model DOMAIN]...
                  [--max-frame-len BYTES] [--max-batch N]
                  [--read-timeout-ms MS] [--gateway-max-batch N]
                  [--gateway-max-wait-us US] [--gateway-workers N]
                  [--gateway-adaptive-wait] [--gateway-deadline-us US]
                  [--reactor] [--reactor-max-conns N]
                  [--reactor-max-inflight N]
                  [--trace-sample N] [--trace-slow-us US] [--trace-ring N]

  --addr HOST:PORT        listen address (default 127.0.0.1:4860)
  --model DOMAIN          also serve the fine-tuned zoo model for DOMAIN
                          ('textured' or 'flat') under its zoo model id;
                          repeatable. The generic model always serves id 0.
                          First use fine-tunes from the pretrained weights
                          (seconds), then loads from target/easz-weights/
  --max-frame-len BYTES   largest accepted request frame payload (default 16 MiB)
  --max-batch N           largest accepted DECODE_BATCH count (default 64)
  --read-timeout-ms MS    disconnect a connection idle for MS milliseconds
                          (default: never; 0 also means never)
  --gateway-max-batch N   decode gateway window size (default 8). Every
                          decode goes through the gateway on both front
                          ends; the --gateway-* flags only tune it
  --gateway-max-wait-us US window latency budget in microseconds (default 2000)
  --gateway-workers N     gateway decode worker threads (default 2)
  --gateway-adaptive-wait scale the window wait budget by the observed
                          arrival rate (sparse traffic dispatches early;
                          on by default)
  --gateway-deadline-us US answer a queued decode with DEADLINE_EXCEEDED when
                          no worker starts it within US microseconds
                          (default 0 = wait forever)
  --reactor               serve through the epoll reactor front end (one
                          readiness loop instead of one thread per
                          connection; Linux only)
  --reactor-max-conns N   connections admitted before BUSY (default 4096)
  --reactor-max-inflight N per-connection in-flight decode cap (default 32)
  --trace-sample N        capture every Nth request as a trace span served
                          through TRACE frames / easz-top (0 = only slow
                          requests). Passing ANY --trace-* flag enables
                          tracing; without one it stays off (latency
                          histograms in STATS are always on).
  --trace-slow-us US      always capture requests slower than US
                          microseconds into the slow-request log
                          (default 50000; 0 disables slow capture)
  --trace-ring N          recent-span ring capacity (default 512)";

fn main() {
    let mut addr = "127.0.0.1:4860".to_string();
    let mut config = ServerConfig::default();
    let mut reactor: Option<ReactorConfig> = None;
    let mut trace: Option<TraceConfig> = None;
    let mut domains: Vec<zoo::FinetuneDomain> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value\n{USAGE}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--model" => {
                let name = value("--model");
                let Some(domain) = zoo::FinetuneDomain::parse(&name) else {
                    eprintln!("unknown model domain {name:?} (try 'textured' or 'flat')\n{USAGE}");
                    exit(2);
                };
                if !domains.contains(&domain) {
                    domains.push(domain);
                }
            }
            "--max-frame-len" => config.max_frame_len = parse(&value("--max-frame-len")),
            "--max-batch" => config.max_batch = parse(&value("--max-batch")),
            "--read-timeout-ms" => {
                config.read_timeout =
                    Some(Duration::from_millis(parse(&value("--read-timeout-ms")) as u64));
            }
            "--gateway-max-batch" => {
                config.gateway.max_batch = parse(&value("--gateway-max-batch"));
            }
            "--gateway-max-wait-us" => {
                config.gateway.max_wait_us = parse(&value("--gateway-max-wait-us")) as u64;
            }
            "--gateway-workers" => {
                config.gateway.workers = parse(&value("--gateway-workers"));
            }
            "--gateway-adaptive-wait" => config.gateway.adaptive_wait = true,
            "--gateway-deadline-us" => {
                config.gateway.deadline_us = parse(&value("--gateway-deadline-us")) as u64;
            }
            "--reactor" => {
                reactor.get_or_insert_with(ReactorConfig::default);
            }
            "--reactor-max-conns" => {
                reactor.get_or_insert_with(ReactorConfig::default).max_connections =
                    parse(&value("--reactor-max-conns"));
            }
            "--reactor-max-inflight" => {
                reactor.get_or_insert_with(ReactorConfig::default).max_inflight =
                    parse(&value("--reactor-max-inflight"));
            }
            "--trace-sample" => {
                trace.get_or_insert_with(TraceConfig::default).sample_every =
                    parse(&value("--trace-sample")) as u64;
            }
            "--trace-slow-us" => {
                trace.get_or_insert_with(TraceConfig::default).slow_threshold_us =
                    parse(&value("--trace-slow-us")) as u64;
            }
            "--trace-ring" => {
                trace.get_or_insert_with(TraceConfig::default).capacity =
                    parse(&value("--trace-ring"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                exit(2);
            }
        }
    }
    config.reactor = reactor;
    config.trace = trace;

    println!("loading (or pretraining once) the reconstruction model...");
    let model = zoo::pretrained(zoo::PretrainSpec::quick());
    let mut server = EaszServer::new(model);
    for &domain in &domains {
        println!("loading (or fine-tuning once) the '{}' zoo model...", domain.name());
        let tuned = zoo::finetuned(zoo::FinetuneSpec::quick(domain));
        server = server.with_model(domain.model_id(), tuned);
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    let g = &config.gateway;
    let gateway_desc = format!(
        "gateway window {} reqs / {} µs{}, {} workers",
        g.max_batch,
        g.max_wait_us,
        if g.adaptive_wait { " (adaptive)" } else { "" },
        g.workers
    );
    let front_desc = match &config.reactor {
        Some(r) => format!("reactor front end, {} conns max", r.max_connections),
        None => "threaded front end".to_string(),
    };
    let model_desc = if domains.is_empty() {
        "generic model only".to_string()
    } else {
        format!(
            "models: generic + {}",
            domains
                .iter()
                .map(|d| format!("{} (id {})", d.name(), d.model_id()))
                .collect::<Vec<_>>()
                .join(" + ")
        )
    };
    println!(
        "easz-serve listening on {bound} (max frame {} B, max batch {}, {front_desc}, \
         {gateway_desc}, {model_desc})",
        config.max_frame_len, config.max_batch
    );
    let server = server.with_config(config);
    #[cfg(unix)]
    match sig::install() {
        Ok(pipe) => {
            let handle = match server.spawn_on(listener) {
                Ok(handle) => handle,
                Err(e) => {
                    eprintln!("cannot start server: {e}");
                    exit(1);
                }
            };
            sig::wait(pipe);
            println!("shutdown signal received; draining in-flight connections...");
            if let Err(e) = handle.shutdown() {
                eprintln!("accept loop failed: {e}");
                exit(1);
            }
            println!("drained; bye");
            return;
        }
        Err(e) => {
            eprintln!("cannot install signal handlers ({e}); serving without graceful drain");
        }
    }
    if let Err(e) = server.serve(listener) {
        eprintln!("accept loop failed: {e}");
        exit(1);
    }
}

/// SIGTERM/SIGINT → graceful drain, via the classic self-pipe trick: the
/// handler does one async-signal-safe `write(2)` to a pipe the main thread
/// blocks reading, and the drain itself (stop accepting, flush the gateway,
/// answer everything in flight) runs on the main thread through
/// `ServerHandle::shutdown`. No `libc` crate: the two syscalls are declared
/// against the libc the standard library already links, same as the
/// reactor's epoll shim.
#[cfg(unix)]
mod sig {
    use std::io::Read;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::OnceLock;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    static WRITE_FD: OnceLock<RawFd> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        if let Some(&fd) = WRITE_FD.get() {
            let byte = 1u8;
            // SAFETY: write(2) is async-signal-safe; the fd is leaked for
            // the life of the process so it cannot dangle.
            unsafe { write(fd, &byte, 1) };
        }
    }

    /// Installs the handlers and returns the read half of the self-pipe;
    /// one byte arrives per delivered signal.
    pub fn install() -> std::io::Result<UnixStream> {
        let (reader, writer) = UnixStream::pair()?;
        let fd = writer.as_raw_fd();
        // The handler may fire at any point for the rest of the process:
        // the write half must never close.
        std::mem::forget(writer);
        WRITE_FD.set(fd).expect("signal handlers installed once");
        // SAFETY: on_signal only touches async-signal-safe state.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
        Ok(reader)
    }

    /// Blocks until the first signal lands.
    pub fn wait(mut pipe: UnixStream) {
        let mut byte = [0u8; 1];
        let _ = pipe.read(&mut byte);
    }
}

fn parse(value: &str) -> usize {
    value.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {value}\n{USAGE}");
        exit(2);
    })
}
