//! TEESec benchmark: one command that generates a seeded corpus, runs a
//! workload through the public `teesec` API, checks the outputs, and
//! prints every metric by name and unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 2128997376 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run phase executes the workload's seeded corpus
//! variants on both designs, over and over for `--seconds`, and reports
//! the end-to-end metrics. With `--trace 1` it makes the traced run of
//! `layers` instead and reports the per-layer metrics.
//! Either way the correctness gate runs, outside the timed passes; a
//! failed gate prints `"correct": false` and exits 1.

mod gate;
mod layers;
mod stats;
mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use teesec::{TestCase, VerificationPlan};
use teesec_uarch::CoreConfig;

use crate::stats::{median, pooled_rate, ratio};
use crate::workload::{
    designs, nproc, variant_seed, DesignRun, Mode, Workload, DEFAULT_SEED, VARIANTS,
};

/// Set-up repetitions per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Engine workers in the timed passes. One: on a shared 2-vCPU machine
/// the second vCPU comes and goes with the host's load, which moved
/// `nproc`-worker throughput between 1.0x and 1.9x of one worker within
/// minutes; one worker's throughput holds still. The `nproc` path is
/// still run by the gate and measured by the traced run's
/// `engine.speedup`.
const TIMED_WORKERS: usize = 1;
/// Traced passes per invocation at the least: two, so the exact counts
/// are compared between passes within every traced run.
const MIN_TRACED_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload campaign|matrix|irq-sweep|diff \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut out = Args {
        workload: Workload::Campaign,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

/// Both designs' corpora of one input variant.
type Corpora = Vec<(CoreConfig, Vec<TestCase>)>;

/// The workload's inputs plus the median set-up cost.
struct Setup {
    /// [`VARIANTS`] input variants, each with one corpus per design.
    variants: Vec<Corpora>,
    setup_s: f64,
    profile_us: f64,
    generate_us: f64,
}

/// Plan profiling plus corpus generation and assembly of every variant
/// for both designs, up to the first dispatched case; repeated
/// [`SETUP_REPS`] times.
fn setup(w: Workload, seed: u64) -> Setup {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut profiles = Vec::with_capacity(SETUP_REPS);
    let mut generates = Vec::with_capacity(SETUP_REPS);
    let mut variants = Vec::new();
    for _ in 0..SETUP_REPS {
        let (mut profile, mut generate) = (Duration::ZERO, Duration::ZERO);
        for cfg in designs() {
            let t = Instant::now();
            black_box(VerificationPlan::profile(&cfg));
            profile += t.elapsed();
        }
        let t = Instant::now();
        variants = (0..VARIANTS)
            .map(|v| {
                let seed = variant_seed(seed, v);
                designs()
                    .into_iter()
                    .map(|cfg| {
                        let corpus = w.generate(seed, &cfg);
                        (cfg, corpus)
                    })
                    .collect()
            })
            .collect();
        black_box(&variants);
        generate += t.elapsed();
        totals.push((profile + generate).as_secs_f64());
        profiles.push(profile.as_secs_f64() * 1e6);
        generates.push(generate.as_secs_f64() * 1e6);
    }
    Setup {
        variants,
        setup_s: median(&totals),
        profile_us: median(&profiles),
        generate_us: median(&generates),
    }
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of a 64-bit Linux target, and RUSAGE_SELF (0) asks
    // only for this process's figures.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The gate checks over a variant's first untraced runs (one per design).
/// With `reference`, where a reference mode applies, the corpus is also
/// run once in that mode on `nproc` workers and compared case by case.
fn run_gate(w: Workload, corpora: &Corpora, first: &[DesignRun], reference: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let reference = match w {
        Workload::Campaign => Some(Mode::Matrix),
        Workload::Matrix => Some(Mode::Campaign),
        Workload::IrqSweep => Some(Mode::CampaignNoCache),
        Workload::Diff => None,
    }
    .filter(|_| reference);
    for ((cfg, corpus), run) in corpora.iter().zip(first) {
        problems.extend(gate::check_no_failures(&cfg.name, run));
        if matches!(w, Workload::Campaign | Workload::Matrix) {
            problems.extend(gate::check_table3(&cfg.name, &run.records));
        }
        if let Some(mode) = reference {
            let other = workload::run(mode, cfg, corpus, nproc());
            problems.extend(gate::check_identical(
                &format!("{}: {} vs {mode:?} mode", cfg.name, w.name()),
                &run.records,
                &other.records,
            ));
        }
    }
    problems
}

/// Metric list: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// The untraced run: timed passes, then the gate. Pass `p` runs variant
/// `p % VARIANTS`; passes go on until `--seconds` have passed and every
/// variant has run.
fn run_untraced(a: &Args, s: &Setup) -> (Metrics, Vec<DesignRun>, Vec<String>) {
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let mode = a.workload.mode();
    let mut passes: Vec<(usize, Vec<DesignRun>)> = Vec::new();
    loop {
        let v = passes.len() % VARIANTS;
        let pass = s.variants[v]
            .iter()
            .map(|(cfg, corpus)| workload::run(mode, cfg, corpus, TIMED_WORKERS))
            .collect();
        passes.push((v, pass));
        if passes.len() >= VARIANTS && Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    let mut problems = Vec::new();
    for (v, corpora) in s.variants.iter().enumerate() {
        let mut of_v = passes.iter().filter(|(pv, _)| *pv == v).map(|(_, p)| p);
        let first = of_v.next().expect("every variant ran");
        for (k, pass) in of_v.enumerate() {
            for ((cfg, _), (run, first)) in corpora.iter().zip(pass.iter().zip(first)) {
                problems.extend(gate::check_identical(
                    &format!("{}: variant {v} pass {} vs pass 0", cfg.name, k + 1),
                    &run.records,
                    &first.records,
                ));
            }
        }
        problems.extend(run_gate(a.workload, corpora, first, v == 0));
    }

    // Each variant's corpus is timed by the fastest of its passes (host
    // noise only ever slows a pass down); rates pool the work and those
    // walls over every variant.
    let designs = s.variants[0].len();
    let wall = |v: usize, d: usize| {
        passes
            .iter()
            .filter(|(pv, _)| *pv == v)
            .map(|(_, p)| p[d].wall_s)
            .fold(f64::INFINITY, f64::min)
    };
    let first_of = |v: usize| &passes[v].1;
    let mut metrics: Metrics = Vec::new();
    let (mut all_cycles, mut all_walls) = (Vec::new(), Vec::new());
    for d in 0..designs {
        let cases: Vec<f64> = (0..VARIANTS)
            .map(|v| first_of(v)[d].records.len() as f64)
            .collect();
        let walls: Vec<f64> = (0..VARIANTS).map(|v| wall(v, d)).collect();
        all_cycles.extend((0..VARIANTS).map(|v| first_of(v)[d].sim_cycles() as f64));
        all_walls.extend(walls.iter().copied());
        metrics.push((
            format!("cases_per_s.{}", s.variants[0][d].0.name),
            pooled_rate(&cases, &walls),
            "1/s",
        ));
    }
    // The ratios count each variant once, so they depend on the seed only.
    let once = || (0..VARIANTS).flat_map(|v| first_of(v).iter());
    let attempted: usize = once().map(|r| r.records.len()).sum();
    let failed: usize = once().map(DesignRun::failed).sum();
    let checked: usize = once().map(DesignRun::checked).sum();
    metrics.extend([
        (
            "sim_cycles_per_s".to_string(),
            pooled_rate(&all_cycles, &all_walls),
            "cycles/s",
        ),
        ("setup_s".to_string(), s.setup_s, "s"),
        ("peak_rss_mb".to_string(), peak_rss, "MiB"),
        (
            "completed_ratio".to_string(),
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        (
            "checked_ratio".to_string(),
            ratio(checked as f64, attempted as f64),
            "ratio",
        ),
    ]);
    let runs = passes.into_iter().flat_map(|(_, p)| p).collect();
    (metrics, runs, problems)
}

/// The traced run: at least [`MIN_TRACED_PASSES`] traced passes over
/// variant 0 and until `--seconds` have passed, then the gate.
fn run_traced(a: &Args, s: &Setup) -> (Metrics, Vec<DesignRun>, Vec<String>) {
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let mut rec = layers::Recorder::default();
    let mut passes = Vec::new();
    let mut runs: Vec<DesignRun> = Vec::new();
    let mut problems = Vec::new();
    loop {
        let (pass, untraced, mut p) = layers::traced_pass(a.workload, &s.variants[0], &mut rec);
        if passes.is_empty() {
            problems.extend(run_gate(a.workload, &s.variants[0], &untraced, true));
        }
        problems.append(&mut p);
        passes.push(pass);
        runs.extend(untraced);
        if passes.len() >= MIN_TRACED_PASSES && Instant::now() >= deadline {
            break;
        }
    }
    for (k, pass) in passes.iter().enumerate().skip(1) {
        if pass.counts != passes[0].counts {
            problems.push(format!(
                "exact counts differ between traced passes 0 and {k}: {:?} vs {:?}",
                passes[0].counts, pass.counts
            ));
        }
    }

    let mut metrics: Metrics = vec![
        ("plan.profile_us".to_string(), s.profile_us, "us"),
        ("construct.generate_us".to_string(), s.generate_us, "us"),
    ];
    metrics.extend(layers::metrics(&passes));

    eprintln!("self time per layer (µs per pass, parent/name):");
    for (layer, us) in rec.self_times_us() {
        eprintln!("  {layer:<32} {:>14.1}", us / passes.len() as f64);
    }
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let path = dir.join(format!("perfbench-spans-{}.json", a.workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_chrome_json())) {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), rec.len()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
    (metrics, runs, problems)
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let s = setup(args.workload, args.seed);
    let (metrics, runs, mut problems) = if args.trace {
        run_traced(&args, &s)
    } else {
        run_untraced(&args, &s)
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    let metrics: Metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    let attempted: usize = runs.iter().map(|r| r.records.len()).sum();
    let failed: usize = runs.iter().map(DesignRun::failed).sum();
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    for p in &problems {
        eprintln!("GATE FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_with_defaults() {
        let a = parse_args(&argv("--workload irq-sweep")).expect("valid");
        assert_eq!(a.workload, Workload::IrqSweep);
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.trace);
        let a = parse_args(&argv("--workload diff --seed 3 --seconds 2 --trace 1")).expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
    }

    #[test]
    fn bad_args_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload diff --trace 2",
            "--workload diff --seconds -1",
            "--workload diff --seed",
            "--workload diff --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `(name, unit)` of each metric `BENCHMARK.json` declares in `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, f: &str| match m.get(f) {
            Some(serde_json::Value::String(s)) => s.clone(),
            other => panic!("{key} entry without string `{f}`: {other:?}"),
        };
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn printed(metrics: &Metrics) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        // A tiny diff run prints the end-to-end metrics by name and unit.
        let variants = (0..VARIANTS)
            .map(|v| {
                designs()
                    .into_iter()
                    .map(|cfg| {
                        let corpus = teesec::Fuzzer::with_target(3)
                            .with_seed(variant_seed(1, v))
                            .generate(&cfg);
                        (cfg, corpus)
                    })
                    .collect()
            })
            .collect();
        let s = Setup {
            variants,
            setup_s: 1.0,
            profile_us: 1.0,
            generate_us: 1.0,
        };
        let a = Args {
            workload: Workload::Diff,
            seed: 1,
            seconds: 0.001,
            trace: false,
        };
        let (metrics, runs, problems) = run_untraced(&a, &s);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(runs.len(), VARIANTS * 2);
        assert_eq!(printed(&metrics), declared("end_to_end"));

        let mut layer: Metrics = vec![
            ("plan.profile_us".to_string(), 1.0, "us"),
            ("construct.generate_us".to_string(), 1.0, "us"),
        ];
        layer.extend(layers::metrics(&[layers::PassLayers::default()]));
        assert_eq!(printed(&layer), declared("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m: Metrics = vec![("a.b".into(), 1.25, "ms"), ("c".into(), 3.0, "count")];
        assert_eq!(
            json_result(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }
}
