//! `easz-top` — live terminal inspector for a running `easz-serve`.
//!
//! ```sh
//! cargo run --release -p easz-server --bin easz-top -- --addr 127.0.0.1:4860
//! ```
//!
//! Polls the server's `STATS` and `TRACE` frames on an interval and renders
//! throughput, latency percentiles (queue wait, decode, end-to-end
//! service), queue depth, the batch-width histogram, per-stage decode
//! timing and the latest slow requests with their per-stage breakdowns.
//! Works against any server — one running without `--trace-*` flags simply
//! shows the always-on histogram rows and an empty span section.
//!
//! `--once` prints a single report and exits (used by CI as a smoke test).

#![deny(clippy::undocumented_unsafe_blocks)]

use easz_core::DecodeStage;
use easz_server::{EaszClient, ServerStats, TraceReport, TraceSpan, TraceStage, WIDTH_BUCKETS};
use std::process::exit;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: easz-top [--addr HOST:PORT] [--interval-ms MS] [--once]

  --addr HOST:PORT   server to inspect (default 127.0.0.1:4860)
  --interval-ms MS   refresh interval in milliseconds (default 1000)
  --once             print one report and exit (no screen clearing)";

fn main() {
    let mut addr = "127.0.0.1:4860".to_string();
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
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
            "--interval-ms" => {
                let ms: u64 = value("--interval-ms").parse().unwrap_or_else(|_| {
                    eprintln!("--interval-ms needs a number\n{USAGE}");
                    exit(2);
                });
                interval = Duration::from_millis(ms.max(1));
            }
            "--once" => once = true,
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

    let mut client = match EaszClient::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("easz-top: cannot connect to {addr}: {e}");
            exit(1);
        }
    };
    let mut previous: Option<(Instant, ServerStats)> = None;
    loop {
        let polled = Instant::now();
        let stats = match client.stats() {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("easz-top: STATS poll failed: {e}");
                exit(1);
            }
        };
        let trace = match client.trace() {
            Ok(trace) => trace,
            Err(e) => {
                eprintln!("easz-top: TRACE poll failed: {e}");
                exit(1);
            }
        };
        if !once {
            // Clear and home, then redraw the whole frame.
            print!("\x1b[2J\x1b[H");
        }
        render(&addr, &stats, &trace, previous.as_ref().map(|(at, s)| (polled - *at, s)));
        if once {
            return;
        }
        previous = Some((polled, stats));
        std::thread::sleep(interval);
    }
}

/// Requests per second between two snapshots, or `None` on the first poll.
fn throughput(window: Option<(Duration, &ServerStats)>, now: &ServerStats) -> Option<f64> {
    let (elapsed, prev) = window?;
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return None;
    }
    Some((now.decode_requests.saturating_sub(prev.decode_requests)) as f64 / secs)
}

fn render(
    addr: &str,
    stats: &ServerStats,
    trace: &TraceReport,
    window: Option<(Duration, &ServerStats)>,
) {
    println!("easz-top — {addr}");
    let rate = match throughput(window, stats) {
        Some(rate) => format!("{rate:.1} req/s"),
        None => "n/a (first poll)".to_string(),
    };
    println!(
        "requests {:>10}   ok {:>10}   err {:>8}   shed {:>6}   throughput {rate}",
        stats.decode_requests, stats.decode_ok, stats.decode_err, stats.requests_shed
    );
    println!(
        "conns    {:>10}   accepted {:>6}   refused {:>5}   batches {:>6}",
        stats.connections_active,
        stats.connections_accepted,
        stats.connections_refused,
        stats.batches_dispatched
    );
    println!(
        "queue    depth {:>5}   peak {:>7}   arrival-gap ewma {} ",
        stats.queue_depth,
        stats.queue_peak,
        fmt_us(stats.arrival_ewma_us)
    );

    println!("\nlatency (µs)        p50        p90        p99       p999      count");
    for (name, histo) in [
        ("queue wait", &stats.queue_wait_histo),
        ("decode", &stats.decode_histo),
        ("service e2e", &stats.service_histo),
    ] {
        let count: u64 = histo.iter().sum();
        print!("  {name:<14}");
        for q in [0.50, 0.90, 0.99, 0.999] {
            print!(" {:>10}", easz_server::latency_percentile_us(histo, q));
        }
        println!(" {count:>10}");
    }

    let widths: Vec<String> = stats
        .batch_widths
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(bucket, n)| format!("{}:{n}", width_label(bucket)))
        .collect();
    println!(
        "\nbatch widths   {}",
        if widths.is_empty() { "(none dispatched)".to_string() } else { widths.join("  ") }
    );

    println!("\ndecode stages        calls   total (µs)     mean (µs)");
    for stage in DecodeStage::ALL {
        let (count, total_us) = trace.decode_stages[stage.index()];
        let mean = total_us.checked_div(count).unwrap_or(0);
        println!("  {:<16} {count:>9} {total_us:>12} {mean:>13}", stage.name());
    }

    println!("\nrecent spans ({}) — sampled requests since the last poll", trace.recent.len());
    for span in trace.recent.iter().rev().take(5) {
        print_span("  ", span);
    }

    println!("\nslow requests ({}) — newest last", trace.slow.len());
    for span in &trace.slow {
        print_span("  ", span);
    }
}

/// The batch-width histogram's label for `bucket`: bucket `i` counts fused
/// groups of width `i + 1`, and the last bucket every wider group.
fn width_label(bucket: usize) -> String {
    if bucket + 1 == WIDTH_BUCKETS {
        format!("{WIDTH_BUCKETS}+")
    } else {
        (bucket + 1).to_string()
    }
}

/// One span line: identity, outcome, total, then the per-stage breakdown
/// (delta between consecutive reached stamps — the time *in* each leg).
fn print_span(indent: &str, span: &TraceSpan) {
    let mut legs = String::new();
    let mut last = 0u32;
    for stage in TraceStage::ALL {
        if let Some(at) = span.stage_us(stage) {
            let delta = at.saturating_sub(last);
            last = at;
            if !legs.is_empty() {
                legs.push_str("  ");
            }
            legs.push_str(&format!("{}+{delta}", stage.name()));
        }
    }
    println!(
        "{indent}#{:<6} frame 0x{:02x} conn {:<4} {} total {:>8} | {legs}",
        span.id,
        span.frame,
        span.source,
        if span.ok { "ok " } else { "ERR" },
        fmt_us(u64::from(span.total_us())),
    );
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_width_labels_name_the_width_not_the_bucket() {
        assert_eq!(width_label(0), "1", "bucket 0 counts width-1 groups");
        assert_eq!(width_label(7), "8");
        assert_eq!(width_label(WIDTH_BUCKETS - 2), "15");
        assert_eq!(width_label(WIDTH_BUCKETS - 1), "16+", "the overflow bucket");
    }
}
