//! `telemetry_overhead` — the serve-on vs serve-off A/B behind
//! `BENCH_pr10.json`.
//!
//! Runs the same fuzzer-generated corpus through the engine three ways —
//! no telemetry at all (reference), with the metrics hub attached and an
//! HTTP server bound but idle, and with a live scraper hitting
//! `/metrics` + `/status` on an interval — interleaved round-robin, and
//! reports the min and median wall time of each arm plus the min-based
//! overhead over the reference in percent. The acceptance bar is the
//! scraped arm staying within 2% of serve-off at a 1 Hz scrape cadence.
//!
//! Usage: `cargo run --release -p teesec-bench --bin telemetry_overhead
//! [-- --cases N] [--threads N] [--scrape-ms MS] [--json]`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teesec::campaign::Campaign;
use teesec::engine::EngineOptions;
use teesec::fuzz::Fuzzer;
use teesec_telemetry::MetricsHub;
use teesec_uarch::config::CoreConfig;

const RUNS: usize = 5;

/// One blocking scrape of `target`; a failed scrape is the scraper's
/// problem, never the benchmark's.
fn scrape(addr: &str, target: &str) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    if write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").is_err() {
        return;
    }
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
}

enum Arm {
    Off,
    OnIdle,
    OnScraped { interval: Duration },
}

fn run_once(cfg: &CoreConfig, cases: usize, threads: usize, arm: &Arm) -> f64 {
    let campaign = Campaign::new(cfg.clone(), Fuzzer::with_target(cases));
    let mut opts = EngineOptions {
        threads,
        ..EngineOptions::default()
    };
    let mut infra = None;
    if !matches!(arm, Arm::Off) {
        let hub = MetricsHub::default();
        let server = teesec_telemetry::serve(hub.clone(), "127.0.0.1:0").expect("bind");
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = if let Arm::OnScraped { interval } = arm {
            let addr = server.local_addr().to_string();
            let (stop, interval) = (Arc::clone(&stop), *interval);
            Some(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    scrape(&addr, "/metrics");
                    scrape(&addr, "/status");
                    std::thread::sleep(interval);
                }
            }))
        } else {
            None
        };
        opts.telemetry = Some(hub);
        infra = Some((server, stop, scraper));
    }
    let t0 = Instant::now();
    let (result, _) = campaign.run_engine(opts);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        result.engine.cases_quarantined, 0,
        "quarantines would skew the A/B"
    );
    if let Some((_server, stop, scraper)) = infra {
        stop.store(true, Ordering::Relaxed);
        if let Some(handle) = scraper {
            handle.join().expect("scraper thread");
        }
    }
    wall_ms
}

fn median(runs: &[f64; RUNS]) -> f64 {
    let mut sorted = *runs;
    sorted.sort_by(f64::total_cmp);
    sorted[RUNS / 2]
}

/// Min-of-N: the noise-robust wall statistic. External load only ever
/// adds time, so the fastest run of each arm is the cleanest view of the
/// arm's true cost on a shared machine.
fn min(runs: &[f64; RUNS]) -> f64 {
    runs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn fmt_runs(runs: &[f64; RUNS]) -> String {
    let cells: Vec<String> = runs.iter().map(|r| format!("{r:.3}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    let mut cases = 585usize;
    let mut threads = 4usize;
    let mut scrape_ms = 1000u64;
    let mut json = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let num = |i: &mut usize| -> u64 {
            *i += 1;
            args.get(*i)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("`{}` requires a number", args[*i - 1]))
        };
        match args[i].as_str() {
            "--json" => json = true,
            "--cases" => cases = num(&mut i) as usize,
            "--threads" => threads = num(&mut i) as usize,
            "--scrape-ms" => scrape_ms = num(&mut i),
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }

    let cfg = CoreConfig::boom();
    let arms = [
        ("serve_off", Arm::Off),
        ("serve_on_idle", Arm::OnIdle),
        (
            "serve_on_scraped",
            Arm::OnScraped {
                interval: Duration::from_millis(scrape_ms),
            },
        ),
    ];
    if !json {
        teesec_bench::header("Live-telemetry overhead A/B (off = no hub, no server)");
        println!(
            "design: {} ({cases} cases, {threads} threads, scrape every {scrape_ms} ms, \
             min/median of {RUNS})",
            cfg.name
        );
    }
    // One throwaway warm-up, then the arms interleaved round-robin so
    // slow machine drift lands on every arm equally instead of biasing
    // whichever ran last.
    run_once(&cfg, cases, threads, &Arm::Off);
    let mut runs = [[0.0f64; RUNS]; 3];
    for r in 0..RUNS {
        for ((_, arm), per_arm) in arms.iter().zip(runs.iter_mut()) {
            per_arm[r] = run_once(&cfg, cases, threads, arm);
        }
    }
    let measured: Vec<(&str, [f64; RUNS], f64, f64)> = arms
        .iter()
        .zip(runs)
        .map(|((name, _), runs)| (*name, runs, median(&runs), min(&runs)))
        .collect();
    let baseline = measured[0].3;
    if json {
        // The exact shape BENCH_pr10.json commits (minus date/environment).
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"cases\": {cases},\n  \"threads\": {threads},\n  \"scrape_interval_ms\": {scrape_ms},\n"
        ));
        for (name, runs, med, best) in &measured {
            let pct = 100.0 * (best - baseline) / baseline;
            out.push_str(&format!(
                "  \"telemetry.{name}\": {{\n    \"wall_ms_min\": {best:.3},\n    \"wall_ms_median\": {med:.3},\n    \"runs\": {},\n    \"overhead_pct\": {pct:.3}\n  }},\n",
                fmt_runs(runs)
            ));
        }
        out.truncate(out.len() - 2);
        out.push_str("\n}");
        println!("{out}");
    } else {
        for (name, runs, med, best) in &measured {
            let pct = 100.0 * (best - baseline) / baseline;
            println!(
                "  {name:<17}: min {best:>9.3} ms, median {med:>9.3} ms  ({pct:>+6.2}%)  runs {}",
                fmt_runs(runs)
            );
        }
    }
}
