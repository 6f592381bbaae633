//! The traced run: each case is decomposed into calls to the modules'
//! public functions, and every call is timed as a span whose parent is the
//! case. No instrumentation is added inside the program; the spans live in
//! this benchmark's memory and are written out at the end.
//!
//! Per case, four runs are made, each its own span under the case:
//!
//! - `stream`: `run_case_opts` with a shared [`SnapshotCache`] and a
//!   [`StreamingChecker`] sink (the `campaign` per-case pipeline), then
//!   `Platform::run`, `StreamingChecker::finish_coverage`,
//!   `Core::counters` and `PlanCoverage::absorb`;
//! - `nosink`: the same build and simulation without the sink, the
//!   baseline of the streaming checker's online scan cost;
//! - `batch`: a fresh build with a buffered trace (`run_case`, the
//!   `matrix` pipeline), then `Platform::run` and `check_case`;
//! - `diff`: `diff_case`, the lockstep oracle.
//!
//! The workload's own pipeline (`stream` for `campaign` and `irq-sweep`,
//! `batch` for `matrix`, `diff` for `diff`) supplies the build, simulate
//! and exact-count figures; the other runs measure the remaining layers on
//! the same inputs, so every layer metric is measured on every workload.
//!
//! `run_case_opts` both builds and simulates. To time the two apart it is
//! called with a cycle budget that ends the run where the build left the
//! platform (cycle 0 or the boot snapshot, or one cycle past an
//! interrupt-sweep checkpoint), and `Platform::run` then simulates the
//! rest. A run split this way is cycle-identical to an uninterrupted one;
//! the gate checks that against the untraced run of the same corpus.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use teesec::runner::{run_case_opts, RunOptions, RunOutcome, SnapshotCache};
use teesec::{
    check_case, diff_case, CheckReport, DiffOptions, DiffVerdict, PlanCoverage, StreamingChecker,
    TestCase,
};
use teesec_uarch::{CoreConfig, RunExit};

use crate::stats::{
    engine_overhead_us, lockstep_share, median, online_scan_us, percentile, ratio, speedup,
};
use crate::workload::{self, CaseRecord, DesignRun, Mode, Workload};

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    parent: usize,
    name: &'static str,
    case: usize,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Span ids are 1-based; 0 is "no parent".
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: usize, case: usize) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            case,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len()
    }

    /// Closes span `id` and returns its duration in µs.
    pub fn end(&mut self, id: usize) -> f64 {
        let t = self.now_ns();
        let span = &mut self.spans[id - 1];
        span.end_ns = t;
        (t - span.start_ns) as f64 / 1e3
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer in µs — a span's duration minus its children's
    /// — keyed by `parent/name` (a root span by its name alone).
    pub fn self_times_us(&self) -> BTreeMap<String, f64> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e3;
        let mut children = vec![0.0; self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent] += dur(s);
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let key = match s.parent {
                0 => s.name.to_string(),
                p => format!("{}/{}", self.spans[p - 1].name, s.name),
            };
            *out.entry(key).or_insert(0.0) += dur(s) - children[i + 1];
        }
        out
    }

    /// Chrome/Perfetto trace-event JSON of every span (`ph: "X"`, µs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"case\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                s.case,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Counts that must repeat exactly for the same code and seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Simulated OoO cycles of the workload's own pipeline.
    pub sim_cycles: u64,
    /// Instructions retired (`Core::counters`).
    pub retired_instrs: u64,
    /// Trace events recorded (`Core::counters`).
    pub trace_events: u64,
    /// Findings of the batch checker.
    pub findings: u64,
    /// Cases with at least one leak class.
    pub leaking_cases: u64,
    /// Plan-coverage cells exercised, summed over designs.
    pub cells_exercised: u64,
    /// Retirements the oracle compared in lockstep.
    pub retires_compared: u64,
    /// Cases the oracle skipped.
    pub diff_skipped: u64,
    /// Builds per `BuildKind` label in the workload's own pipeline.
    pub builds: BTreeMap<&'static str, u64>,
    /// Snapshot-cache hits in the `stream` run.
    pub snapshot_hits: u64,
    /// Snapshot-cache lookups (hits + misses + bypasses).
    pub snapshot_lookups: u64,
    /// Decode-cache hits of the workload's own pipeline.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// Scans performed by the dirty-delta memo.
    pub scan_checks: u64,
    /// Scans elided.
    pub scan_skips: u64,
}

/// Layer timings of one traced pass over both designs' corpora.
#[derive(Debug, Default)]
pub struct PassLayers {
    /// Per-case build time of the workload's own pipeline, µs.
    pub build_us: Vec<f64>,
    /// Per-case `Platform::run` time of the workload's own pipeline, µs.
    pub simulate_us: Vec<f64>,
    /// Per-case `check_case` time, µs.
    pub check_us: Vec<f64>,
    /// Per-case `diff_case` time, µs.
    pub diff_us: Vec<f64>,
    /// Host ns inside the own pipeline's simulate spans.
    pub sim_ns: f64,
    /// Cycles stepped inside those spans.
    pub sim_cycles_stepped: u64,
    /// Time freeing the own pipeline's platforms, µs.
    pub drop_us: f64,
    /// Snapshot capture time reported by the `stream` run's cache, µs.
    pub capture_us: f64,
    /// `Platform::run` time with the streaming sink attached, µs.
    pub stream_sim_us: f64,
    /// The same simulations without the sink.
    pub nosink_sim_us: f64,
    /// `StreamingChecker::finish_coverage` time, µs.
    pub finish_us: f64,
    /// `Core::counters` time.
    pub harvest_us: f64,
    /// `PlanCoverage::absorb` time.
    pub absorb_us: f64,
    /// OoO-only (`batch` build + simulate) time over the cases the oracle
    /// compared, µs.
    pub ooo_compared_us: f64,
    /// `diff_case` time over the compared cases.
    pub diff_compared_us: f64,
    /// Summed span time of the workload's own pipeline, µs.
    pub main_run_us: f64,
    /// Summed layer time of the engine mode's pipeline, µs.
    pub engine_layer_us: f64,
    /// Untraced `run_corpus` wall at 1 worker, µs.
    pub engine_wall_1_us: f64,
    /// At `nproc` workers.
    pub engine_wall_n_us: f64,
    /// Untraced serial wall of the workload's own pipeline, µs.
    pub untraced_serial_us: f64,
    /// Non-leaf self time (this benchmark's glue between calls), µs.
    pub glue_us: f64,
    /// Spans recorded.
    pub spans: u64,
    /// Exact counts.
    pub counts: ExactCounts,
}

/// A split build + simulate of one case.
struct Simulated {
    outcome: RunOutcome,
    build_us: f64,
    sim_us: f64,
    stepped: u64,
}

/// Frees a run's platform (its memory pages, trace buffer and caches)
/// as a span under `run`: part of every case's cost, as in the engine.
fn timed_drop(rec: &mut Recorder, run: usize, case: usize, outcome: RunOutcome) -> f64 {
    let d = rec.begin("platform.drop", run, case);
    drop(outcome);
    rec.end(d)
}

/// The cycle budget that makes `run_case_opts` stop where its build left
/// the platform: an interrupt-sweep case with a snapshot cache must keep
/// its interrupt inside the budget to be eligible for the prefix
/// checkpoint, so it runs at most one cycle past the checkpoint.
fn build_budget(tc: &TestCase, cached: bool) -> u64 {
    match tc.irq_at {
        Some(at) if cached && at > 0 => at,
        _ => 0,
    }
}

/// Builds `tc` with `run_case_opts` and simulates it to the end with
/// `Platform::run`, as two spans under `run`.
fn build_and_simulate(
    rec: &mut Recorder,
    run: usize,
    case: usize,
    tc: &TestCase,
    cfg: &CoreConfig,
    opts: RunOptions<'_>,
) -> Result<Simulated, String> {
    let b = rec.begin("runner.build", run, case);
    let built = run_case_opts(tc, cfg, opts);
    let build_us = rec.end(b);
    let mut outcome = built.map_err(|e| format!("{}: build error: {e}", tc.name))?;
    let start = outcome.platform.core.cycle;
    let s = rec.begin("uarch.simulate", run, case);
    outcome.exit = outcome.platform.run(tc.max_cycles);
    let sim_us = rec.end(s);
    outcome.cycles = outcome.platform.core.cycle;
    Ok(Simulated {
        stepped: outcome.cycles - start,
        outcome,
        build_us,
        sim_us,
    })
}

fn record_of(tc: &TestCase, outcome: &RunOutcome, report: &CheckReport) -> CaseRecord {
    let failed = outcome.exit != RunExit::Halted;
    CaseRecord {
        name: tc.name.clone(),
        cycles: outcome.cycles,
        classes: report.classes(),
        findings: report.findings.len(),
        failed,
        checked: !failed,
    }
}

/// Traces one design's corpus, adding its layer figures to `layers`.
/// Returns the workload's own per-case records and any problem found.
fn trace_design(
    w: Workload,
    cfg: &CoreConfig,
    corpus: &[TestCase],
    rec: &mut Recorder,
    layers: &mut PassLayers,
) -> (Vec<CaseRecord>, Vec<String>) {
    let stream_cache = SnapshotCache::new();
    let nosink_cache = SnapshotCache::new();
    let mut plan_cov = PlanCoverage::for_design(cfg);
    let diff_opts = DiffOptions::default();
    let mut records = Vec::with_capacity(corpus.len());
    let mut problems = Vec::new();
    for tc in corpus {
        let case = rec.begin("case", 0, rec.len() + 1);
        match trace_case(
            w,
            cfg,
            tc,
            &stream_cache,
            &nosink_cache,
            &diff_opts,
            &mut plan_cov,
            rec,
            case,
            layers,
        ) {
            Ok((record, mut p)) => {
                records.push(record);
                problems.append(&mut p);
            }
            Err(e) => problems.push(e),
        }
        rec.end(case);
    }
    let m = stream_cache.metrics();
    layers.capture_us += m.capture_us as f64;
    layers.counts.snapshot_hits += m.hits;
    layers.counts.snapshot_lookups += m.hits + m.misses + m.bypasses;
    layers.counts.cells_exercised += plan_cov
        .cells
        .iter()
        .filter(|c| c.cases_exercised > 0)
        .count() as u64;
    (records, problems)
}

/// The four runs of one case (see the module docs).
#[allow(clippy::too_many_arguments)]
fn trace_case(
    w: Workload,
    cfg: &CoreConfig,
    tc: &TestCase,
    stream_cache: &SnapshotCache,
    nosink_cache: &SnapshotCache,
    diff_opts: &DiffOptions,
    plan_cov: &mut PlanCoverage,
    rec: &mut Recorder,
    case: usize,
    layers: &mut PassLayers,
) -> Result<(CaseRecord, Vec<String>), String> {
    let mut problems = Vec::new();

    // stream: the campaign pipeline.
    let run = rec.begin("stream", case, case);
    let mut s1 = build_and_simulate(
        rec,
        run,
        case,
        tc,
        cfg,
        RunOptions {
            budget: Some(build_budget(tc, true)),
            snapshot_cache: Some(stream_cache),
            sink: Some(Box::new(StreamingChecker::with_coverage(tc, cfg))),
            buffer_trace: false,
            ..RunOptions::default()
        },
    )?;
    let f = rec.begin("stream.finish", run, case);
    let checker = s1
        .outcome
        .platform
        .core
        .trace
        .take_sink()
        .and_then(|s| s.into_any().downcast::<StreamingChecker>().ok())
        .expect("the streaming run carries its checker");
    let (stream_report, coverage) = checker.finish_coverage(tc, &s1.outcome);
    let finish_us = rec.end(f);
    let h = rec.begin("obs.harvest", run, case);
    let counters = s1.outcome.platform.core.counters();
    let harvest_us = rec.end(h);
    let a = rec.begin("coverage.absorb", run, case);
    plan_cov.absorb(&tc.name, &coverage.expect("coverage is on"));
    let absorb_us = rec.end(a);
    let stream_record = record_of(tc, &s1.outcome, &stream_report);
    let stream_kind = s1.outcome.build.label();
    let stream_fast = s1.outcome.platform.core.fast_path_stats();
    let stream_drop_us = timed_drop(rec, run, case, s1.outcome);
    let stream_run_us = rec.end(run);
    let stream_layer_us =
        s1.build_us + s1.sim_us + finish_us + harvest_us + absorb_us + stream_drop_us;

    // nosink: the same runs without the online scan.
    let run = rec.begin("nosink", case, case);
    let s2 = build_and_simulate(
        rec,
        run,
        case,
        tc,
        cfg,
        RunOptions {
            budget: Some(build_budget(tc, true)),
            snapshot_cache: Some(nosink_cache),
            buffer_trace: false,
            ..RunOptions::default()
        },
    )?;
    timed_drop(rec, run, case, s2.outcome);
    rec.end(run);

    // batch: the matrix pipeline.
    let run = rec.begin("batch", case, case);
    let s3 = build_and_simulate(
        rec,
        run,
        case,
        tc,
        cfg,
        RunOptions {
            budget: Some(build_budget(tc, false)),
            ..RunOptions::default()
        },
    )?;
    let c = rec.begin("checker.check", run, case);
    let batch_report = check_case(tc, &s3.outcome, cfg);
    let check_us = rec.end(c);
    let batch_record = record_of(tc, &s3.outcome, &batch_report);
    let batch_kind = s3.outcome.build.label();
    let batch_fast = s3.outcome.platform.core.fast_path_stats();
    let batch_drop_us = timed_drop(rec, run, case, s3.outcome);
    let batch_run_us = rec.end(run);
    let batch_layer_us = s3.build_us + s3.sim_us + check_us + batch_drop_us;

    // diff: the lockstep oracle.
    let run = rec.begin("diff", case, case);
    let d = rec.begin("diff.case", run, case);
    let verdict = diff_case(tc, cfg, diff_opts).unwrap_or_else(|e| DiffVerdict::Skipped {
        reason: format!("build failed: {e:?}"),
    });
    let diff_us = rec.end(d);
    let diff_run_us = rec.end(run);
    let diff_record = CaseRecord::from_verdict(&tc.name, &verdict);

    if let Some(p) = crate::gate::check_identical(
        "streaming vs batch checker",
        std::slice::from_ref(&stream_record),
        std::slice::from_ref(&batch_record),
    )
    .pop()
    {
        problems.push(p);
    }
    match &verdict {
        DiffVerdict::Match { retires, .. } => {
            layers.counts.retires_compared += retires;
            layers.ooo_compared_us += s3.build_us + s3.sim_us;
            layers.diff_compared_us += diff_us;
        }
        DiffVerdict::Diverged(d) => problems.push(format!("{}: diff divergence: {d}", tc.name)),
        DiffVerdict::Skipped { .. } => layers.counts.diff_skipped += 1,
    }

    // Layer figures common to every workload.
    layers.stream_sim_us += s1.sim_us;
    layers.nosink_sim_us += s2.sim_us;
    layers.finish_us += finish_us;
    layers.harvest_us += harvest_us;
    layers.absorb_us += absorb_us;
    layers.check_us.push(check_us);
    layers.diff_us.push(diff_us);
    layers.counts.retired_instrs += counters.instructions_retired;
    layers.counts.trace_events += counters.trace_events;
    layers.counts.findings += batch_report.findings.len() as u64;
    layers.counts.leaking_cases += u64::from(!batch_report.classes().is_empty());

    // The workload's own pipeline.
    let (own, build_us, sim_us, stepped, kind, fast, drop_us, own_run_us) = match w.mode() {
        Mode::Campaign | Mode::CampaignNoCache => (
            stream_record,
            s1.build_us,
            s1.sim_us,
            s1.stepped,
            stream_kind,
            stream_fast,
            stream_drop_us,
            stream_run_us,
        ),
        Mode::Matrix => (
            batch_record,
            s3.build_us,
            s3.sim_us,
            s3.stepped,
            batch_kind,
            batch_fast,
            batch_drop_us,
            batch_run_us,
        ),
        Mode::Diff => (
            diff_record,
            s3.build_us,
            s3.sim_us,
            s3.stepped,
            batch_kind,
            batch_fast,
            batch_drop_us,
            diff_run_us,
        ),
    };
    layers.build_us.push(build_us);
    layers.drop_us += drop_us;
    layers.simulate_us.push(sim_us);
    layers.sim_ns += sim_us * 1e3;
    layers.sim_cycles_stepped += stepped;
    layers.main_run_us += own_run_us;
    layers.engine_layer_us += match w.engine_mode() {
        Mode::Campaign | Mode::CampaignNoCache => stream_layer_us,
        _ => batch_layer_us,
    };
    layers.counts.sim_cycles += own.cycles;
    *layers.counts.builds.entry(kind).or_insert(0) += 1;
    layers.counts.decode_hits += fast.decode.hits;
    layers.counts.decode_misses += fast.decode.misses;
    layers.counts.scan_checks += fast.scan_checks;
    layers.counts.scan_skips += fast.scan_skips;
    Ok((own, problems))
}

/// One traced pass over every design, plus the untraced runs it is
/// compared against. Returns the pass's layer figures, the untraced runs
/// of the workload's own mode, and any problem found.
pub fn traced_pass(
    w: Workload,
    corpora: &[(CoreConfig, Vec<TestCase>)],
    rec: &mut Recorder,
) -> (PassLayers, Vec<DesignRun>, Vec<String>) {
    let mut layers = PassLayers::default();
    let mut untraced = Vec::new();
    let mut problems = Vec::new();
    let spans_before = rec.len();
    let glue_before = glue_us(rec);
    for (cfg, corpus) in corpora {
        let one = workload::run(w.engine_mode(), cfg, corpus, 1);
        let many = workload::run(w.engine_mode(), cfg, corpus, workload::nproc());
        layers.engine_wall_1_us += one.wall_s * 1e6;
        layers.engine_wall_n_us += many.wall_s * 1e6;
        let serial = if w.mode() == w.engine_mode() {
            one
        } else {
            workload::run(w.mode(), cfg, corpus, 1)
        };
        layers.untraced_serial_us += serial.wall_s * 1e6;
        let (records, mut p) = trace_design(w, cfg, corpus, rec, &mut layers);
        problems.append(&mut p);
        problems.extend(crate::gate::check_identical(
            &format!("{}: traced vs untraced", cfg.name),
            &records,
            &serial.records,
        ));
        untraced.push(serial);
    }
    layers.spans = (rec.len() - spans_before) as u64;
    layers.glue_us = glue_us(rec) - glue_before;
    (layers, untraced, problems)
}

/// Self time of every non-leaf span so far: the benchmark's own glue.
fn glue_us(rec: &Recorder) -> f64 {
    rec.self_times_us()
        .iter()
        .filter(|(k, _)| {
            [
                "case",
                "case/stream",
                "case/nosink",
                "case/batch",
                "case/diff",
            ]
            .contains(&k.as_str())
        })
        .map(|(_, v)| v)
        .sum()
}

/// The per-layer metrics of a traced run: `(name, value, unit)`.
pub fn metrics(passes: &[PassLayers]) -> Vec<(String, f64, &'static str)> {
    let med = |f: &dyn Fn(&PassLayers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&PassLayers) -> &Vec<f64>| {
        passes
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<f64>>()
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let build = pooled(&|p| &p.build_us);
    let sim = pooled(&|p| &p.simulate_us);
    let check = pooled(&|p| &p.check_us);
    let diff = pooled(&|p| &p.diff_us);
    let c = &passes[0].counts;
    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "runner.build_us.sum".into(),
            med(&|p| sum(&p.build_us)),
            "us",
        ),
        ("runner.build_us.p50".into(), percentile(&build, 0.5), "us"),
        ("runner.build_us.p99".into(), percentile(&build, 0.99), "us"),
    ];
    for kind in [
        "fresh",
        "boot_capture",
        "boot_fork",
        "prefix_capture",
        "prefix_fork",
    ] {
        let n = c.builds.get(kind).copied().unwrap_or(0);
        out.push((format!("runner.builds.{kind}"), n as f64, "count"));
    }
    out.extend([
        (
            "runner.snapshot_hit_ratio".into(),
            ratio(c.snapshot_hits as f64, c.snapshot_lookups as f64),
            "ratio",
        ),
        ("runner.capture_us".into(), med(&|p| p.capture_us), "us"),
        (
            "uarch.simulate_us.sum".into(),
            med(&|p| sum(&p.simulate_us)),
            "us",
        ),
        ("uarch.simulate_us.p50".into(), percentile(&sim, 0.5), "us"),
        ("uarch.simulate_us.p99".into(), percentile(&sim, 0.99), "us"),
        (
            "uarch.host_ns_per_cycle".into(),
            med(&|p| ratio(p.sim_ns, p.sim_cycles_stepped as f64)),
            "ns/cycle",
        ),
        (
            "uarch.decode_hit_ratio".into(),
            ratio(
                c.decode_hits as f64,
                (c.decode_hits + c.decode_misses) as f64,
            ),
            "ratio",
        ),
        (
            "uarch.scan_skip_ratio".into(),
            ratio(c.scan_skips as f64, (c.scan_checks + c.scan_skips) as f64),
            "ratio",
        ),
        ("platform.drop_us".into(), med(&|p| p.drop_us), "us"),
        (
            "stream.online_scan_us".into(),
            med(&|p| online_scan_us(p.stream_sim_us, p.nosink_sim_us)),
            "us",
        ),
        ("stream.finish_us".into(), med(&|p| p.finish_us), "us"),
        (
            "checker.check_us.sum".into(),
            med(&|p| sum(&p.check_us)),
            "us",
        ),
        ("checker.check_us.p50".into(), percentile(&check, 0.5), "us"),
        (
            "checker.check_us.p99".into(),
            percentile(&check, 0.99),
            "us",
        ),
        ("obs.harvest_us".into(), med(&|p| p.harvest_us), "us"),
        ("coverage.absorb_us".into(), med(&|p| p.absorb_us), "us"),
        ("diff.case_us.p50".into(), percentile(&diff, 0.5), "us"),
        ("diff.case_us.p99".into(), percentile(&diff, 0.99), "us"),
        (
            "diff.lockstep_share".into(),
            med(&|p| lockstep_share(p.ooo_compared_us, p.diff_compared_us)),
            "ratio",
        ),
        (
            "engine.overhead_us".into(),
            med(&|p| engine_overhead_us(p.engine_wall_1_us, p.engine_layer_us)),
            "us",
        ),
        (
            "engine.speedup".into(),
            med(&|p| speedup(p.engine_wall_1_us, p.engine_wall_n_us)),
            "ratio",
        ),
        ("uarch.sim_cycles".into(), c.sim_cycles as f64, "count"),
        (
            "uarch.retired_instrs".into(),
            c.retired_instrs as f64,
            "count",
        ),
        ("uarch.trace_events".into(), c.trace_events as f64, "count"),
        ("checker.findings".into(), c.findings as f64, "count"),
        (
            "checker.leaking_cases".into(),
            c.leaking_cases as f64,
            "count",
        ),
        (
            "coverage.cells_exercised".into(),
            c.cells_exercised as f64,
            "count",
        ),
        (
            "diff.retires_compared".into(),
            c.retires_compared as f64,
            "count",
        ),
        ("diff.skipped".into(), c.diff_skipped as f64, "count"),
        (
            "trace.overhead_ratio".into(),
            med(&|p| ratio(p.main_run_us, p.untraced_serial_us)),
            "ratio",
        ),
        ("trace.glue_us".into(), med(&|p| p.glue_us), "us"),
        ("trace.spans".into(), passes[0].spans as f64, "count"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::designs;

    fn span(parent: usize, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            case: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder {
            epoch: Instant::now(),
            spans: vec![
                span(0, "case", 0, 100_000),
                span(1, "stream", 10_000, 40_000),
                span(2, "runner.build", 10_000, 15_000),
                span(1, "diff", 50_000, 60_000),
            ],
        };
        let t = rec.self_times_us();
        assert_eq!(t["case"], 60.0);
        assert_eq!(t["case/stream"], 25.0);
        assert_eq!(t["stream/runner.build"], 5.0);
        assert_eq!(t["case/diff"], 10.0);
        assert_eq!(glue_us(&rec), 95.0);
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"case\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    /// Two traced passes over the same corpus agree on every exact count,
    /// and every pass agrees with the untraced run (checked inside
    /// `traced_pass`). The corpus mixes paper cases with two three-case
    /// interrupt-sweep families, so prefix captures and forks are covered.
    #[test]
    fn traced_passes_repeat_and_match_the_untraced_run() {
        let corpora: Vec<(CoreConfig, Vec<TestCase>)> = designs()
            .into_iter()
            .map(|cfg| {
                let mut corpus = teesec::Fuzzer::with_target(3).generate(&cfg);
                let sweep = workload::irq_sweep(1, &cfg);
                corpus
                    .extend((0..3).flat_map(|k| sweep[k * workload::IRQ_FAMILIES..][..2].to_vec()));
                (cfg, corpus)
            })
            .collect();
        for w in Workload::ALL {
            let mut rec = Recorder::default();
            let (a, untraced, pa) = traced_pass(w, &corpora, &mut rec);
            let (b, _, pb) = traced_pass(w, &corpora, &mut rec);
            assert!(
                pa.is_empty() && pb.is_empty(),
                "{}: {pa:?} {pb:?}",
                w.name()
            );
            assert_eq!(a.counts, b.counts, "{}", w.name());
            assert_eq!(untraced.len(), 2);
            assert!(a.counts.retired_instrs > 0 && a.counts.trace_events > 0);
            assert_eq!(a.counts.diff_skipped, 2 * 6, "irq cases are skipped");
            assert_eq!(a.build_us.len(), 2 * 9);
            if w.mode() == Mode::Campaign {
                assert_eq!(a.counts.builds.get("prefix_capture"), Some(&4));
                assert_eq!(a.counts.builds.get("prefix_fork"), Some(&8));
            }
            let names: Vec<String> = metrics(&[a, b]).into_iter().map(|m| m.0).collect();
            assert!(names.contains(&"diff.lockstep_share".to_string()));
        }
    }
}
