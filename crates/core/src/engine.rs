//! The campaign engine: a fault-isolated, work-stealing executor for
//! simulate-then-check corpora, and the one path every campaign runs
//! through — [`Campaign::run`](crate::campaign::Campaign::run) is this
//! engine at one worker. The [`CampaignResult`] is the same (modulo timing
//! and the run-wide samples in [`EngineMetrics`]) at any worker count,
//! because
//!
//! * workers pull case indices from one shared atomic cursor (work stealing
//!   over the corpus — no static chunking, so stragglers cannot idle a
//!   worker), and one `CampaignFold` absorbs their executions strictly in
//!   corpus order, buffering early arrivals;
//! * every case runs under [`std::panic::catch_unwind`]: a case that fails
//!   to build or panics mid-simulation is *quarantined* — recorded as a
//!   [`CaseResult`] carrying the error text — instead of poisoning the
//!   whole campaign;
//! * an optional simulated-cycle watchdog clamps each case's cycle budget,
//!   so a runaway case exits with `halted: false` rather than hogging its
//!   worker.
//!
//! The engine can also narrate itself: an [`EventSink`] receives one JSON
//! object per line (see [`EngineEvent`]) for live consumption, and the
//! aggregate [`EngineMetrics`] lands in
//! [`CampaignResult::engine`](crate::campaign::CampaignResult::engine).

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use teesec_obs::{Histogram, Summary};
use teesec_telemetry::{MetricsHub, ProgressModel};
use teesec_trace::{TraceCtx, TraceReport, Tracer};
use teesec_uarch::config::CoreConfig;
use teesec_uarch::introspect::StorageInventory;
use teesec_uarch::{FastPathStats, RunExit, StructureCounters, UarchCounters};

use crate::campaign::{CampaignResult, CaseResult, PhaseTiming};
use crate::checker::replay;
use crate::coverage::{CaseCoverage, PlanCoverage};
use crate::diff::{diff_case, DiffOptions, DiffVerdict};
use crate::report::{CheckReport, LeakClass};
use crate::runner::{run_case_opts, RunOptions, SnapshotCache, SnapshotCacheMetrics};
use crate::stream::StreamingChecker;
use crate::testcase::TestCase;

/// Tuning knobs for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads (0 and 1 both mean "one worker").
    pub threads: usize,
    /// Simulated-cycle watchdog: per-case budget overriding any larger
    /// `TestCase::max_cycles`. Budget-blown cases report `halted: false`.
    pub case_cycle_budget: Option<u64>,
    /// Retain full per-case [`CheckReport`]s (memory-heavier).
    pub keep_reports: bool,
    /// Emit a live `[done/total]` progress line to stderr.
    pub progress: bool,
    /// Structured JSONL event stream.
    pub events: Option<EventSink>,
    /// Harvest per-case microarchitectural counters
    /// ([`UarchCounters`]) into [`EngineEvent::CaseCounters`] events and
    /// the aggregate [`ObsMetrics`]. Off by default: harvesting walks
    /// every storage structure at case exit.
    pub counters: bool,
    /// Run the differential co-simulation oracle on every case, emitting
    /// one [`EngineEvent::CaseDiff`] per case and aggregating a
    /// [`DiffMetrics`] into [`EngineMetrics::diff`]. Off by default:
    /// diffing re-simulates each case on both machines.
    pub diff: Option<DiffOptions>,
    /// Run each case's [`StreamingChecker`] *online* as a trace sink, with
    /// trace buffering disabled, instead of replaying the buffered trace
    /// into it after the run. Same checker, same report; peak retained
    /// trace events stay O(boot prefix) instead of O(cycles).
    pub streaming: bool,
    /// Record per-case plan coverage (the structure × transition ×
    /// observer matrix) and secret-residency windows, emitting one
    /// [`EngineEvent::CaseCoverage`] per case and merging the aggregate
    /// [`PlanCoverage`] into [`EngineMetrics::plan_coverage`]. Off by
    /// default: recording rides the checker's event scan and the JSONL
    /// stream grows by one event per case.
    pub coverage: bool,
    /// Share one [`SnapshotCache`] across workers so cases with the same
    /// setup configuration fork a copy-on-write boot snapshot instead of
    /// re-assembling and re-simulating the SM boot. Hit/miss/bypass
    /// counters land in [`EngineMetrics::snapshot`].
    pub snapshot_cache: bool,
    /// Force the fast-path simulator (page-keyed decode cache +
    /// dirty-delta storage logging) on or off for every case. `None`
    /// keeps the process default (`TEESEC_FASTPATH`, on unless set to
    /// `0`/`off`/`false`/`no`). Both settings are byte-identical on
    /// reports, coverage, counter digests, and provenance — proven by
    /// the `fastpath_equivalence` suite. Per-case decode-cache and
    /// scan-memo counters aggregate into [`EngineMetrics::fastpath`].
    pub fast_path: Option<bool>,
    /// Span recorder. When enabled ([`Tracer::new`]), the engine emits a
    /// full span tree — `campaign` → per-worker `worker` → `queue_wait` /
    /// `case` → `build` / `simulate` / `scan` / `diff` — plus watchdog
    /// and snapshot-capture instants, analyzes it into
    /// [`EngineMetrics::trace`], and leaves the raw spans retrievable via
    /// [`Tracer::snapshot`] for `--trace-out`. The default (disabled)
    /// tracer makes every instrumentation point a no-op.
    pub tracer: Tracer,
    /// Live-telemetry hub (the `--serve` flag). When set, the engine
    /// mirrors every [`EngineEvent`] into the hub's SSE ring buffer and
    /// periodically publishes a rendered `/metrics` exposition, a
    /// `/status` progress document, and (with coverage on) a live
    /// `/coverage` report. The final publication is built from the same
    /// [`CampaignResult`] the run returns, so the last live scrape and a
    /// `--metrics-out` file written from that result are byte-identical.
    pub telemetry: Option<MetricsHub>,
    /// Crash-durable checkpointing: every
    /// [`CheckpointOptions::every`] finished cases the engine atomically
    /// rewrites the metrics exposition (and optionally the coverage
    /// report) with a `"partial": true` marker in the JSON, so a killed
    /// campaign always leaves parseable mid-flight artifacts behind.
    pub checkpoint: Option<CheckpointOptions>,
}

/// Where and how often the engine checkpoints mid-flight artifacts
/// (see [`EngineOptions::checkpoint`]).
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Prometheus text lands here, JSON at `<path>.json` — the same
    /// layout as `--metrics-out`, which normally shares this path so the
    /// final write simply overwrites the last checkpoint.
    pub path: String,
    /// Checkpoint cadence in finished cases (clamped to ≥ 1).
    pub every: usize,
    /// Optional plan-coverage report checkpoint (requires
    /// [`EngineOptions::coverage`]).
    pub coverage_out: Option<String>,
}

/// A thread-safe JSONL sink for [`EngineEvent`]s.
///
/// Cloning shares the underlying writer; each event is serialized to a
/// single line. Event *emission* order is the order workers finish, not
/// corpus order — consumers should key on `seq`.
///
/// The sink flushes when its last clone drops, so buffered tail events
/// survive even when the caller forgets an explicit [`EventSink::flush`].
#[derive(Clone)]
pub struct EventSink {
    inner: Arc<Mutex<SinkInner>>,
}

struct SinkInner {
    writer: Box<dyn Write + Send>,
    /// One-shot latch: after the first I/O failure the sink goes quiet
    /// instead of spamming stderr once per event.
    failed: bool,
}

impl SinkInner {
    fn fail(&mut self, op: &str, e: &std::io::Error) {
        if !self.failed {
            eprintln!("teesec: event sink {op} failed: {e} (further events dropped)");
            self.failed = true;
        }
    }
}

impl Drop for SinkInner {
    fn drop(&mut self) {
        if !self.failed {
            if let Err(e) = self.writer.flush() {
                self.fail("flush", &e);
            }
        }
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

impl EventSink {
    /// A sink writing JSON lines to `writer`.
    pub fn new(writer: impl Write + Send + 'static) -> EventSink {
        EventSink {
            inner: Arc::new(Mutex::new(SinkInner {
                writer: Box::new(writer),
                failed: false,
            })),
        }
    }

    /// A sink appending to the file at `path` (created/truncated).
    pub fn file(path: &str) -> std::io::Result<EventSink> {
        Ok(EventSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }

    /// Serializes `event` as one line. The first I/O error is reported to
    /// stderr and latches the sink into a drop-everything state —
    /// observability must never kill (or flood) a run.
    pub fn emit(&self, event: &EngineEvent) {
        self.emit_line(&serde_json::to_string(event).expect("serialize event"));
    }

    /// Writes one pre-serialized JSON line — the shared tail of [`emit`]
    /// (`EventSink::emit`) and the dual sink+hub emission path, which
    /// serializes each event exactly once.
    pub(crate) fn emit_line(&self, line: &str) {
        let mut inner = self.inner.lock().expect("event sink poisoned");
        if inner.failed {
            return;
        }
        if let Err(e) = writeln!(inner.writer, "{line}") {
            inner.fail("write", &e);
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("event sink poisoned");
        if inner.failed {
            return;
        }
        if let Err(e) = inner.writer.flush() {
            inner.fail("flush", &e);
        }
    }
}

/// One line of the engine's JSONL event stream.
///
/// Serialized externally tagged, e.g.
/// `{"CaseFinished":{"seq":3,"case":"...","cycles":41210,...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// `CampaignFinished` carries the full `EngineMetrics` (histograms included);
// boxing it is not worth it for a once-per-run event, and the derive shim
// does not serialize through `Box`.
#[allow(clippy::large_enum_variant)]
pub enum EngineEvent {
    /// The engine accepted a corpus and is starting workers.
    CampaignStarted {
        /// Design under test.
        design: String,
        /// Corpus size.
        case_count: usize,
        /// Worker threads.
        threads: usize,
    },
    /// A worker picked up a case.
    CaseStarted {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Worker id (0-based).
        worker: usize,
        /// The case's span id on a traced run (`None` untraced) — joins
        /// this event against the `--trace-out` trace.
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// A case simulated and checked normally.
    CaseFinished {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Simulated cycles.
        cycles: u64,
        /// Whether the case halted within its budget.
        halted: bool,
        /// Total findings.
        finding_count: usize,
        /// Findings per microarchitectural structure.
        findings_by_structure: BTreeMap<String, usize>,
        /// Platform build phase cost.
        build_us: u128,
        /// Simulation phase cost (platform build excluded).
        simulate_us: u128,
        /// Check phase cost.
        check_us: u128,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// The microarchitectural counter digest of one finished case.
    /// Emitted right after [`EngineEvent::CaseFinished`] when
    /// [`EngineOptions::counters`] is on.
    CaseCounters {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// The case's harvested counters.
        counters: UarchCounters,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// The differential-oracle verdict of one finished case. Emitted
    /// right after [`EngineEvent::CaseFinished`] (and any
    /// [`EngineEvent::CaseCounters`]) when [`EngineOptions::diff`] is set.
    CaseDiff {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// The oracle's verdict for this case.
        verdict: DiffVerdict,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// The plan-coverage record of one finished case. Emitted right
    /// after [`EngineEvent::CaseFinished`] (and any
    /// [`EngineEvent::CaseCounters`] / [`EngineEvent::CaseDiff`]) when
    /// [`EngineOptions::coverage`] is on.
    CaseCoverage {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Cells exercised, cells with findings, residency windows.
        coverage: CaseCoverage,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// A case failed to build or panicked and was quarantined.
    CaseQuarantined {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Error description.
        error: String,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// All cases drained; aggregate metrics follow.
    CampaignFinished {
        /// The run's aggregate metrics.
        metrics: EngineMetrics,
    },
}

/// Aggregate engine observability, attached to
/// [`CampaignResult::engine`](crate::campaign::CampaignResult::engine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Worker threads used.
    pub threads: usize,
    /// Cases attempted (equals the corpus size).
    pub cases_total: usize,
    /// Cases quarantined by fault isolation.
    pub cases_quarantined: usize,
    /// Cases stopped by the simulated-cycle watchdog.
    pub cases_budget_exceeded: usize,
    /// Findings across all cases.
    pub findings_total: usize,
    /// Findings per microarchitectural structure, across all cases.
    pub findings_by_structure: BTreeMap<String, usize>,
    /// Cases executed by each worker (work-stealing balance).
    pub cases_per_worker: Vec<usize>,
    /// Wall-clock time of the execute+check stage.
    pub wall_us: u128,
    /// Deep observability — phase histograms and aggregated
    /// microarchitectural counters. `Some` iff
    /// [`EngineOptions::counters`] was on.
    pub obs: Option<ObsMetrics>,
    /// Differential-oracle aggregates. `Some` iff
    /// [`EngineOptions::diff`] was set.
    pub diff: Option<DiffMetrics>,
    /// Snapshot-cache hit/miss/bypass counters. `Some` iff
    /// [`EngineOptions::snapshot_cache`] was on. Absent in event streams
    /// recorded before the field existed (deserializes to `None`).
    pub snapshot: Option<SnapshotCacheMetrics>,
    /// Trace analysis — critical path, per-phase wall-time attribution,
    /// worker utilization, top straggler cases. `Some` iff
    /// [`EngineOptions::tracer`] was enabled. Absent in event streams
    /// recorded before the field existed (deserializes to `None`).
    pub trace: Option<TraceReport>,
    /// Campaign-lifetime plan-coverage matrix and secret-residency
    /// aggregates. `Some` iff [`EngineOptions::coverage`] was on. Absent
    /// in event streams recorded before the field existed (deserializes
    /// to `None`).
    pub plan_coverage: Option<PlanCoverage>,
    /// Fast-path effectiveness counters (decode-cache hit/miss/
    /// invalidation, dirty-scan check/skip) summed over every case that
    /// ran with the fast path on. `None` when every case ran the
    /// reference path. Absent in event streams recorded before the
    /// field existed (deserializes to `None`).
    pub fastpath: Option<FastPathMetrics>,
}

/// Straggler-table depth of the [`TraceReport`] a traced engine run
/// attaches to its metrics.
const TRACE_TOP_STRAGGLERS: usize = 5;

/// Aggregate fast-path effectiveness for one engine run: how well the
/// page-keyed decode cache and the dirty-scan memoization performed
/// across every case that ran with the fast path on. Purely
/// observational — the fast path is byte-identical to the reference
/// path on all checker-visible output, so none of these counters ever
/// appear in [`UarchCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastPathMetrics {
    /// Cases that ran with the fast path enabled.
    pub cases: usize,
    /// Instruction fetches served from a memoized decode slot.
    pub decode_hits: u64,
    /// Fetches decoded fresh and memoized.
    pub decode_misses: u64,
    /// Decode-cache pages invalidated (version bumps, `fence.i`,
    /// capacity evictions, explicit flushes).
    pub decode_invalidations: u64,
    /// Operand/store-queue stall scans actually performed.
    pub scan_checks: u64,
    /// Stall scans elided because no scan input changed since the
    /// entry's last `Wait` verdict.
    pub scan_skips: u64,
}

impl FastPathMetrics {
    /// Folds one case's harvested [`FastPathStats`] into the aggregate.
    pub fn absorb(&mut self, s: &FastPathStats) {
        self.cases += 1;
        self.decode_hits += s.decode.hits;
        self.decode_misses += s.decode.misses;
        self.decode_invalidations += s.decode.invalidations;
        self.scan_checks += s.scan_checks;
        self.scan_skips += s.scan_skips;
    }
}

/// Serializes `event` once and fans the line out to the JSONL sink and
/// the telemetry hub's SSE ring — whichever are present. With neither,
/// the event is never even serialized, so un-narrated runs pay nothing.
fn emit_event(sink: Option<&EventSink>, hub: Option<&MetricsHub>, event: &EngineEvent) {
    if sink.is_none() && hub.is_none() {
        return;
    }
    let line = serde_json::to_string(event).expect("serialize event");
    if let Some(sink) = sink {
        sink.emit_line(&line);
    }
    if let Some(hub) = hub {
        hub.push_event(&line);
    }
}

/// Aggregate differential-oracle outcomes for one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffMetrics {
    /// Cases the oracle looked at (equals the non-quarantined count).
    pub cases_compared: usize,
    /// Cases where core and ISS agreed at every compared point.
    pub matches: usize,
    /// Cases where the machines diverged.
    pub divergences: usize,
    /// Cases outside the oracle's model (irq-driven, implementation-
    /// defined translation staleness, budget-blown, rebuild failure).
    pub skipped: usize,
    /// Total retirements compared in lockstep across all matching cases.
    pub retires_compared: u64,
}

impl DiffMetrics {
    /// Folds one case's oracle verdict into the aggregate.
    pub fn fold(&mut self, verdict: &DiffVerdict) {
        self.cases_compared += 1;
        match verdict {
            DiffVerdict::Match { retires, .. } => {
                self.matches += 1;
                self.retires_compared += retires;
            }
            DiffVerdict::Diverged(_) => self.divergences += 1,
            DiffVerdict::Skipped { .. } => self.skipped += 1,
        }
    }
}

impl EngineMetrics {
    /// Folds one finished case into the aggregate. Its only caller is
    /// [`CampaignFold::absorb`], which calls it in corpus order.
    fn fold_case(&mut self, exec: &CaseExecution) {
        self.cases_quarantined += usize::from(exec.result.error.is_some());
        self.cases_budget_exceeded += usize::from(exec.budget_exceeded);
        self.findings_total += exec.result.finding_count;
        if let (Some(pc), Some(cc)) = (self.plan_coverage.as_mut(), &exec.coverage) {
            pc.absorb(&exec.result.name, cc);
        }
        for (s, n) in &exec.findings_by_structure {
            *self.findings_by_structure.entry(s.clone()).or_insert(0) += n;
        }
        if let (Some(dm), Some(verdict)) = (self.diff.as_mut(), &exec.diff) {
            dm.fold(verdict);
        }
        if let Some(fp) = &exec.fastpath {
            self.fastpath
                .get_or_insert_with(FastPathMetrics::default)
                .absorb(fp);
        }
        if let (Some(obs), None) = (self.obs.as_mut(), &exec.result.error) {
            obs.record_case(
                exec.result.cycles,
                exec.build_us,
                exec.simulate_us,
                exec.check_us,
            );
            if let Some(counters) = &exec.counters {
                obs.uarch.absorb(counters);
            }
        }
    }
}

/// Deep-observability aggregates for one engine run: log₂-bucketed
/// per-phase wall-time histograms, a per-case simulated-cycle histogram,
/// and campaign-wide [`UarchCounters`] seeded from the design's
/// [`StorageInventory`] (so every inventoried structure appears even when
/// no case touched it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsMetrics {
    /// Per-case platform build wall time, µs (quarantined cases excluded).
    pub build_us: Histogram,
    /// Per-case simulation wall time, µs (quarantined cases excluded).
    pub simulate_us: Histogram,
    /// Per-case check wall time, µs (quarantined cases excluded).
    pub check_us: Histogram,
    /// Per-case simulated cycles (quarantined cases excluded).
    pub case_cycles: Histogram,
    /// Campaign-wide microarchitectural counters (sums of flows, maxima
    /// of occupancies across cases).
    pub uarch: UarchCounters,
}

impl ObsMetrics {
    /// An empty aggregate whose structure list is pre-seeded from the
    /// design's storage inventory with zeroed flow counters.
    pub fn for_design(cfg: &CoreConfig) -> ObsMetrics {
        let inventory = StorageInventory::profile(cfg);
        ObsMetrics {
            build_us: Histogram::new(),
            simulate_us: Histogram::new(),
            check_us: Histogram::new(),
            case_cycles: Histogram::new(),
            uarch: UarchCounters {
                cycles: 0,
                instructions_retired: 0,
                trace_events: 0,
                counter_bumps: 0,
                domain_switches: 0,
                structures: inventory
                    .elements
                    .iter()
                    .map(|e| StructureCounters {
                        structure: e.structure,
                        fills: 0,
                        writes: 0,
                        reads: 0,
                        flushes: 0,
                        occupancy_at_exit: 0,
                        capacity: e.entries as u64,
                    })
                    .collect(),
            },
        }
    }

    /// Folds one finished (non-quarantined) case into the aggregate.
    pub fn record_case(&mut self, exec_cycles: u64, build: u128, simulate: u128, check: u128) {
        self.case_cycles.record(exec_cycles);
        self.build_us.record(build.min(u64::MAX as u128) as u64);
        self.simulate_us
            .record(simulate.min(u64::MAX as u128) as u64);
        self.check_us.record(check.min(u64::MAX as u128) as u64);
    }

    /// `(phase name, p50/p90/p99 summary)` for each histogram — the
    /// digest the CLI and the metrics snapshot print.
    pub fn phase_summaries(&self) -> [(&'static str, Summary); 4] {
        [
            ("build_us", self.build_us.summary()),
            ("simulate_us", self.simulate_us.summary()),
            ("check_us", self.check_us.summary()),
            ("case_cycles", self.case_cycles.summary()),
        ]
    }
}

/// The outcome of executing one case, handed to the [`CampaignFold`].
struct CaseExecution {
    pub result: CaseResult,
    pub report: Option<CheckReport>,
    pub findings_by_structure: BTreeMap<String, usize>,
    pub budget_exceeded: bool,
    pub build_us: u128,
    pub simulate_us: u128,
    pub check_us: u128,
    pub counters: Option<UarchCounters>,
    pub diff: Option<DiffVerdict>,
    pub coverage: Option<CaseCoverage>,
    /// Which build path produced the platform (`None` for quarantined
    /// cases that never finished building).
    pub cache: Option<&'static str>,
    /// Decode-cache and scan-memo counters harvested at case exit;
    /// `Some` iff the case finished with the fast path on.
    pub fastpath: Option<FastPathStats>,
}

/// Per-case execution knobs for [`execute_case`] (the engine-independent
/// subset of [`EngineOptions`], plus the shared snapshot cache).
#[derive(Clone, Copy)]
struct ExecOptions<'c> {
    pub keep_report: bool,
    pub budget: Option<u64>,
    pub counters: bool,
    pub streaming: bool,
    /// Record per-case plan coverage and residency windows.
    pub coverage: bool,
    pub snapshot_cache: Option<&'c SnapshotCache>,
    /// Force the fast-path simulator on/off (`None`: process default).
    pub fast_path: Option<bool>,
    /// Span recorder for the case's phase spans (`None` untraced).
    pub tracer: Option<&'c Tracer>,
    /// Worker index spans are attributed to.
    pub worker: usize,
    /// The enclosing `case` span's id (0 untraced).
    pub case_span: u64,
}

/// A fresh checker for `tc`, recording plan coverage iff `coverage`.
fn new_checker(tc: &TestCase, cfg: &CoreConfig, coverage: bool) -> StreamingChecker {
    if coverage {
        StreamingChecker::with_coverage(tc, cfg)
    } else {
        StreamingChecker::new(tc, cfg)
    }
}

/// Builds, simulates, and checks `tc`, quarantining build errors and
/// panics into `CaseResult::error` instead of propagating them. When
/// `opts.counters` is set, the finished core's microarchitectural counter
/// digest is harvested into [`CaseExecution::counters`]. Every case is
/// checked by one [`StreamingChecker`]: with `opts.streaming` it runs
/// online as the trace sink and the check phase shrinks to the finalize
/// step; otherwise the buffered trace is replayed into it after the run.
fn execute_case(tc: &TestCase, cfg: &CoreConfig, opts: ExecOptions<'_>) -> CaseExecution {
    let quarantined = |error: String| CaseExecution {
        result: CaseResult {
            name: tc.name.clone(),
            path: tc.path,
            cycles: 0,
            halted: false,
            classes: Default::default(),
            finding_count: 0,
            error: Some(error),
        },
        report: None,
        findings_by_structure: BTreeMap::new(),
        budget_exceeded: false,
        build_us: 0,
        simulate_us: 0,
        check_us: 0,
        counters: None,
        diff: None,
        coverage: None,
        cache: None,
        fastpath: None,
    };
    let tctx = TraceCtx {
        tracer: opts.tracer,
        worker: opts.worker,
        parent: opts.case_span,
    };

    let t_sim = Instant::now();
    let mut outcome = match catch_unwind(AssertUnwindSafe(|| {
        run_case_opts(
            tc,
            cfg,
            RunOptions {
                budget: opts.budget,
                snapshot_cache: opts.snapshot_cache,
                sink: opts
                    .streaming
                    .then(|| Box::new(new_checker(tc, cfg, opts.coverage)) as _),
                buffer_trace: !opts.streaming,
                fast_path: opts.fast_path,
                trace: tctx,
            },
        )
    })) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(build)) => return quarantined(format!("build error: {build}")),
        Err(panic) => return quarantined(format!("panic: {}", panic_message(&panic))),
    };
    let build_us = outcome.build_us;
    let simulate_us = t_sim.elapsed().as_micros().saturating_sub(build_us);

    let t_chk = Instant::now();
    let mut scan_span = tctx.span("scan");
    scan_span.arg("streaming", u64::from(opts.streaming));
    let streamed: Option<Box<StreamingChecker>> = outcome
        .platform
        .core
        .trace
        .take_sink()
        .and_then(|s| s.into_any().downcast::<StreamingChecker>().ok());
    let (report, coverage) = match catch_unwind(AssertUnwindSafe(|| {
        let checker = match streamed {
            Some(checker) => *checker,
            None => replay(new_checker(tc, cfg, opts.coverage), &outcome),
        };
        checker.finish_coverage(tc, &outcome)
    })) {
        Ok(out) => out,
        Err(panic) => return quarantined(format!("checker panic: {}", panic_message(&panic))),
    };
    scan_span.arg("findings", report.findings.len());
    drop(scan_span);
    let check_us = t_chk.elapsed().as_micros();
    let counters = opts.counters.then(|| outcome.platform.core.counters());
    let fastpath = outcome
        .platform
        .core
        .fast_path()
        .then(|| outcome.platform.core.fast_path_stats());

    let mut findings_by_structure = BTreeMap::new();
    for f in &report.findings {
        *findings_by_structure
            .entry(f.structure.display_name().to_string())
            .or_insert(0) += 1;
    }
    let budget_exceeded =
        outcome.exit == RunExit::CycleLimit && opts.budget.is_some_and(|b| b < tc.max_cycles);
    CaseExecution {
        result: CaseResult {
            name: tc.name.clone(),
            path: tc.path,
            cycles: outcome.cycles,
            halted: outcome.exit == RunExit::Halted,
            classes: report.classes(),
            finding_count: report.findings.len(),
            error: None,
        },
        report: opts.keep_report.then_some(report),
        findings_by_structure,
        budget_exceeded,
        build_us,
        simulate_us,
        check_us,
        counters,
        diff: None,
        coverage,
        cache: Some(outcome.build.label()),
        fastpath,
    }
}

/// Runs the differential oracle on one case under the same fault isolation
/// as the case itself: a panicking or unbuildable diff becomes a
/// [`DiffVerdict::Skipped`], never a dead worker.
fn execute_diff(tc: &TestCase, cfg: &CoreConfig, opts: &DiffOptions) -> DiffVerdict {
    match catch_unwind(AssertUnwindSafe(|| diff_case(tc, cfg, opts))) {
        Ok(Ok(verdict)) => verdict,
        Ok(Err(build)) => DiffVerdict::Skipped {
            reason: format!("rebuild for diff failed: {build}"),
        },
        Err(panic) => DiffVerdict::Skipped {
            reason: format!("diff panic: {}", panic_message(&panic)),
        },
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Finished cases between two live-telemetry publications. Publishing
/// renders a full Prometheus exposition plus the status and coverage
/// documents, so it is amortized over a small batch of cases rather
/// than done per case.
const LIVE_PUBLISH_EVERY: usize = 8;

/// Minimum wall-clock gap between two live publications. Fast corpora
/// finish hundreds of cases per second; without this gate the case-count
/// cadence alone would spend more worker time rendering expositions than
/// any scraper could consume (a 1 Hz Prometheus scrape sees at most one
/// publication per second anyway).
const LIVE_PUBLISH_MIN_INTERVAL: std::time::Duration = std::time::Duration::from_millis(200);

/// Live-publication and checkpoint bookkeeping. It sits under the fold's
/// lock, so exactly one worker claims each due publication.
struct Cadence {
    last_publish: usize,
    last_publish_at: Instant,
    last_checkpoint: usize,
}

impl Cadence {
    fn new() -> Cadence {
        Cadence {
            last_publish: 0,
            last_publish_at: Instant::now(),
            last_checkpoint: 0,
        }
    }

    /// Whether a live publication and a checkpoint are due now that
    /// `arrived` cases have finished; claims each one that is.
    fn due(&mut self, arrived: usize, opts: &EngineOptions) -> (bool, bool) {
        let publish = opts.telemetry.is_some()
            && arrived - self.last_publish >= LIVE_PUBLISH_EVERY
            && self.last_publish_at.elapsed() >= LIVE_PUBLISH_MIN_INTERVAL;
        if publish {
            self.last_publish = arrived;
            self.last_publish_at = Instant::now();
        }
        let checkpoint = opts
            .checkpoint
            .as_ref()
            .is_some_and(|c| arrived - self.last_checkpoint >= c.every.max(1));
        if checkpoint {
            self.last_checkpoint = arrived;
        }
        (publish, checkpoint)
    }
}

/// The one fold from case executions into a [`CampaignResult`].
///
/// Workers hand it `(seq, execution)` pairs in the order they finish. It
/// buffers executions that arrive ahead of the absorbed prefix and
/// absorbs strictly in corpus order, so every aggregate is the same at
/// any worker count — including [`PlanCoverage`]'s worst residency
/// window, which keeps the first case on a cycle tie. The live
/// `/metrics`, `/status` and `/coverage` publications, the checkpoint
/// files and the returned result are all views of this fold.
struct CampaignFold {
    design: String,
    metrics: EngineMetrics,
    cases: Vec<CaseResult>,
    classes: BTreeSet<LeakClass>,
    timing: PhaseTiming,
    reports: Vec<CheckReport>,
    /// Executions that finished ahead of the absorbed prefix, by seq.
    pending: BTreeMap<usize, CaseExecution>,
    /// Cases handed in so far, absorbed or pending.
    arrived: usize,
    /// Quarantined cases among the arrivals.
    quarantined: usize,
    /// Build + simulate + check time of the arrivals, µs.
    case_us_sum: u64,
}

impl CampaignFold {
    /// An empty fold over `metrics` (as seeded by the engine) and the
    /// plan/construct costs in `timing`.
    fn new(design: String, metrics: EngineMetrics, timing: PhaseTiming) -> CampaignFold {
        CampaignFold {
            design,
            metrics,
            cases: Vec::new(),
            classes: BTreeSet::new(),
            timing,
            reports: Vec::new(),
            pending: BTreeMap::new(),
            arrived: 0,
            quarantined: 0,
            case_us_sum: 0,
        }
    }

    /// Hands in the execution of corpus entry `seq`, then absorbs every
    /// buffered execution that extends the contiguous seq-prefix.
    fn absorb(&mut self, seq: usize, exec: CaseExecution) {
        self.arrived += 1;
        self.quarantined += usize::from(exec.result.error.is_some());
        let case_us = exec.build_us + exec.simulate_us + exec.check_us;
        self.case_us_sum = self
            .case_us_sum
            .saturating_add(case_us.min(u128::from(u64::MAX)) as u64);
        self.pending.insert(seq, exec);
        while let Some(exec) = self.pending.remove(&self.cases.len()) {
            self.metrics.fold_case(&exec);
            // Table 2 semantics: "simulate" covers platform build + run.
            self.timing.simulate_us += exec.build_us + exec.simulate_us;
            self.timing.check_us += exec.check_us;
            self.classes.extend(exec.result.classes.iter().copied());
            self.cases.push(exec.result);
            self.reports.extend(exec.report);
        }
    }

    /// Progress over the arrivals: a case that finished ahead of a
    /// straggler counts as done before the prefix absorbs it.
    fn progress(&self, elapsed_us: u64) -> ProgressModel {
        ProgressModel {
            done: self.arrived,
            total: self.metrics.cases_total,
            quarantined: self.quarantined,
            elapsed_us,
            threads: self.metrics.threads,
            mean_case_us: (self.arrived > 0).then(|| self.case_us_sum / self.arrived as u64),
        }
    }

    /// The absorbed seq-prefix as a result — what a live publication or
    /// a checkpoint renders.
    fn view(&self) -> CampaignResult {
        CampaignResult {
            design: self.design.clone(),
            case_count: self.cases.len(),
            cases: self.cases.clone(),
            classes_found: self.classes.clone(),
            timing: self.timing,
            engine: self.metrics.clone(),
        }
    }

    /// The final result and the retained reports.
    fn finish(self) -> (CampaignResult, Vec<CheckReport>) {
        debug_assert!(self.pending.is_empty(), "a seq never arrived");
        let result = CampaignResult {
            design: self.design,
            case_count: self.cases.len(),
            cases: self.cases,
            classes_found: self.classes,
            timing: self.timing,
            engine: self.metrics,
        };
        (result, self.reports)
    }
}

/// Renders the `/status` progress document: campaign identity and
/// counts, the shared [`ProgressModel`]'s progress/ETA, per-phase
/// percentile digests, worker busy ratios, and the cache/fast-path
/// effectiveness counters. Optional aggregates render as `null` (or an
/// empty array) when the producing option is off.
fn render_status(
    result: &CampaignResult,
    model: &ProgressModel,
    complete: bool,
    events_dropped: u64,
) -> String {
    use serde_json::Value;
    let engine = &result.engine;
    let uint = |v: u64| Value::UInt(u128::from(v));
    let phases = engine.obs.as_ref().map_or_else(
        || Value::Array(Vec::new()),
        |obs| {
            Value::Array(
                obs.phase_summaries()
                    .iter()
                    .map(|(name, s)| {
                        Value::Object(vec![
                            ("phase".to_string(), Value::String((*name).to_string())),
                            ("count".to_string(), uint(s.count)),
                            ("p50".to_string(), uint(s.p50)),
                            ("p90".to_string(), uint(s.p90)),
                            ("p99".to_string(), uint(s.p99)),
                        ])
                    })
                    .collect(),
            )
        },
    );
    let workers = engine.trace.as_ref().map_or_else(
        || Value::Array(Vec::new()),
        |trace| {
            Value::Array(
                trace
                    .workers
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("worker".to_string(), Value::UInt(w.worker as u128)),
                            ("busy_ppm".to_string(), uint(w.busy_ratio_ppm)),
                        ])
                    })
                    .collect(),
            )
        },
    );
    let snapshot_cache = engine.snapshot.as_ref().map_or(Value::Null, |s| {
        Value::Object(vec![
            ("hits".to_string(), uint(s.hits)),
            ("misses".to_string(), uint(s.misses)),
            ("bypasses".to_string(), uint(s.bypasses)),
            ("capture_us".to_string(), uint(s.capture_us)),
        ])
    });
    let fastpath = engine.fastpath.as_ref().map_or(Value::Null, |fp| {
        Value::Object(vec![
            ("cases".to_string(), Value::UInt(fp.cases as u128)),
            ("decode_hits".to_string(), uint(fp.decode_hits)),
            ("decode_misses".to_string(), uint(fp.decode_misses)),
            (
                "decode_invalidations".to_string(),
                uint(fp.decode_invalidations),
            ),
            ("scan_checks".to_string(), uint(fp.scan_checks)),
            ("scan_skips".to_string(), uint(fp.scan_skips)),
        ])
    });
    let coverage_ratio = engine
        .plan_coverage
        .as_ref()
        .map_or(Value::Null, |pc| uint(pc.coverage_ratio_ppm()));
    let status = Value::Object(vec![
        ("design".to_string(), Value::String(result.design.clone())),
        ("complete".to_string(), Value::Bool(complete)),
        ("cases_done".to_string(), Value::UInt(model.done as u128)),
        ("cases_total".to_string(), Value::UInt(model.total as u128)),
        (
            "quarantined".to_string(),
            Value::UInt(model.quarantined as u128),
        ),
        (
            "budget_exceeded".to_string(),
            Value::UInt(engine.cases_budget_exceeded as u128),
        ),
        (
            "findings_total".to_string(),
            Value::UInt(engine.findings_total as u128),
        ),
        ("progress_ppm".to_string(), uint(model.progress_ppm())),
        ("elapsed_us".to_string(), uint(model.elapsed_us)),
        (
            "eta_us".to_string(),
            model.eta_us().map_or(Value::Null, uint),
        ),
        ("phases".to_string(), phases),
        ("workers".to_string(), workers),
        ("snapshot_cache".to_string(), snapshot_cache),
        ("fastpath".to_string(), fastpath),
        ("coverage_ratio_ppm".to_string(), coverage_ratio),
        ("events_dropped_total".to_string(), uint(events_dropped)),
    ]);
    serde_json::to_string_pretty(&status).expect("serialize status document")
}

/// Publishes the full live-artifact set for one interim (or final)
/// result: the stamped `/metrics` exposition, the `/status` document,
/// and — with plan coverage on — the `/coverage` report.
fn publish_live(hub: &MetricsHub, result: &CampaignResult, model: &ProgressModel, complete: bool) {
    let dropped = hub.events_dropped_total();
    let snap = crate::metrics::live_campaign_snapshot(result, model.progress_ppm(), dropped);
    hub.publish_metrics(snap.render_prometheus());
    hub.publish_status(render_status(result, model, complete, dropped));
    if let Some(pc) = &result.engine.plan_coverage {
        hub.publish_coverage(
            serde_json::to_string_pretty(&pc.report_json()).expect("serialize coverage report"),
        );
    }
    hub.set_progress_ppm(model.progress_ppm());
}

/// Atomically checkpoints the mid-flight metrics exposition (and the
/// coverage report, when requested) with the `"partial": true` JSON
/// marker. Checkpoint I/O failures are reported once to stderr and
/// never take down the run — same contract as the event sink.
fn write_checkpoint(
    ckpt: &CheckpointOptions,
    result: &CampaignResult,
    progress_ppm: u64,
    events_dropped: u64,
) {
    let snap = crate::metrics::live_campaign_snapshot(result, progress_ppm, events_dropped);
    if let Err(e) = crate::metrics::write_checkpoint_files(&snap, &ckpt.path) {
        eprintln!("teesec: metrics checkpoint failed: {e}");
    }
    if let (Some(path), Some(pc)) = (&ckpt.coverage_out, &result.engine.plan_coverage) {
        let json =
            serde_json::to_string_pretty(&pc.report_json()).expect("serialize coverage report");
        if let Err(e) = crate::metrics::write_partial_json(&json, path) {
            eprintln!("teesec: coverage checkpoint failed: {e}");
        }
    }
}

/// Saturating microseconds since `t0` (u128 → u64 for [`ProgressModel`]).
fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A fault-isolated, work-stealing executor over an explicit corpus.
///
/// Usually reached through
/// [`Campaign::run_engine`](crate::campaign::Campaign::run_engine), which
/// generates the corpus from the campaign's fuzzer; `run_corpus` is public
/// so tests (and embedders) can inject handcrafted — including deliberately
/// broken — cases.
#[derive(Debug)]
pub struct Engine {
    cfg: CoreConfig,
    opts: EngineOptions,
}

impl Engine {
    /// An engine for the design `cfg` with the given options.
    pub fn new(cfg: CoreConfig, opts: EngineOptions) -> Engine {
        Engine { cfg, opts }
    }

    /// Executes every case in `corpus`, in any order, and returns results
    /// in corpus order plus (when `keep_reports`) the per-case reports.
    ///
    /// Every execution goes through one `CampaignFold`, which absorbs
    /// cases in corpus order. The live telemetry publications and the
    /// checkpoint files render views of its absorbed prefix, and the
    /// returned result is its final view, so publishing or checkpointing
    /// never changes what the run returns.
    ///
    /// `timing` carries the plan/construct phase costs measured by the
    /// caller; simulate/check costs are summed across workers (CPU time).
    pub fn run_corpus(
        &self,
        corpus: &[TestCase],
        timing: PhaseTiming,
    ) -> (CampaignResult, Vec<CheckReport>) {
        let threads = self.opts.threads.max(1);
        let t0 = Instant::now();
        let mut campaign_span = self.opts.tracer.span(0, "campaign", 0);
        campaign_span.arg("design", self.cfg.name.as_str());
        campaign_span.arg("cases", corpus.len());
        campaign_span.arg("threads", threads);
        let campaign_id = campaign_span.id();
        let hub = self.opts.telemetry.as_ref();
        if let Some(hub) = hub {
            hub.set_up(true);
            if self.opts.tracer.enabled() {
                hub.set_tracer(self.opts.tracer.clone());
            }
        }
        emit_event(
            self.opts.events.as_ref(),
            hub,
            &EngineEvent::CampaignStarted {
                design: self.cfg.name.clone(),
                case_count: corpus.len(),
                threads,
            },
        );

        let cursor = AtomicUsize::new(0);
        let snapshot_cache = self.opts.snapshot_cache.then(SnapshotCache::new);
        let fold = CampaignFold::new(
            self.cfg.name.clone(),
            self.seed_metrics(threads, corpus.len()),
            timing,
        );
        // Serve real (empty) artifacts from the first accept onward —
        // a scraper that beats the first publish batch must not see 503.
        if let Some(hub) = hub {
            let mut result = fold.view();
            self.stamp(&mut result.engine, t0, snapshot_cache.as_ref());
            publish_live(hub, &result, &fold.progress(elapsed_us(t0)), false);
        }
        let shared = Mutex::new((fold, Cadence::new()));
        let mut cases_per_worker = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..threads {
                let cursor = &cursor;
                let shared = &shared;
                let opts = &self.opts;
                let cfg = &self.cfg;
                let snapshot_cache = snapshot_cache.as_ref();
                handles.push(scope.spawn(move || {
                    let mut executed = 0;
                    let mut wspan = opts.tracer.span(worker, "worker", campaign_id);
                    let worker_id = wspan.id();
                    loop {
                        let queue_span = opts.tracer.span(worker, "queue_wait", worker_id);
                        let seq = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(tc) = corpus.get(seq) else { break };
                        drop(queue_span);
                        let mut case_span = opts.tracer.span(worker, "case", worker_id);
                        case_span.arg("case", tc.name.as_str());
                        case_span.arg("seq", seq);
                        case_span.arg("design", cfg.name.as_str());
                        let case_id = case_span.id();
                        let sid = (case_id != 0).then_some(case_id);
                        let pid = (worker_id != 0).then_some(worker_id);
                        if opts.events.is_some() || opts.telemetry.is_some() {
                            emit_event(
                                opts.events.as_ref(),
                                opts.telemetry.as_ref(),
                                &EngineEvent::CaseStarted {
                                    seq,
                                    case: tc.name.clone(),
                                    worker,
                                    span_id: sid,
                                    parent_id: pid,
                                },
                            );
                        }
                        let mut exec = execute_case(
                            tc,
                            cfg,
                            ExecOptions {
                                keep_report: opts.keep_reports,
                                budget: opts.case_cycle_budget,
                                counters: opts.counters,
                                streaming: opts.streaming,
                                coverage: opts.coverage,
                                snapshot_cache,
                                fast_path: opts.fast_path,
                                tracer: opts.tracer.enabled().then_some(&opts.tracer),
                                worker,
                                case_span: case_id,
                            },
                        );
                        if let Some(diff_opts) = &opts.diff {
                            if exec.result.error.is_none() {
                                let mut dspan = opts.tracer.span(worker, "diff", case_id);
                                let verdict = execute_diff(tc, cfg, diff_opts);
                                dspan.arg(
                                    "verdict",
                                    match &verdict {
                                        DiffVerdict::Match { .. } => "match",
                                        DiffVerdict::Diverged(_) => "diverged",
                                        DiffVerdict::Skipped { .. } => "skipped",
                                    },
                                );
                                exec.diff = Some(verdict);
                            }
                        }
                        if exec.budget_exceeded {
                            opts.tracer.mark(worker, "watchdog_fire", case_id);
                        }
                        if exec.result.error.is_some() {
                            case_span.arg("quarantined", 1u64);
                        }
                        if let Some(cache) = exec.cache {
                            case_span.arg("cache", cache);
                        }
                        case_span.arg("cycles", exec.result.cycles);
                        case_span.arg("findings", exec.result.finding_count);
                        if let Some(counters) = &exec.counters {
                            case_span.arg("instructions", counters.instructions_retired);
                            case_span.arg("trace_events", counters.trace_events);
                        }
                        drop(case_span);
                        if opts.events.is_some() || opts.telemetry.is_some() {
                            let sink = opts.events.as_ref();
                            let hub = opts.telemetry.as_ref();
                            emit_event(sink, hub, &case_event(seq, &exec, sid, pid));
                            if let Some(counters) = &exec.counters {
                                emit_event(
                                    sink,
                                    hub,
                                    &EngineEvent::CaseCounters {
                                        seq,
                                        case: exec.result.name.clone(),
                                        counters: counters.clone(),
                                        span_id: sid,
                                        parent_id: pid,
                                    },
                                );
                            }
                            if let Some(verdict) = &exec.diff {
                                emit_event(
                                    sink,
                                    hub,
                                    &EngineEvent::CaseDiff {
                                        seq,
                                        case: exec.result.name.clone(),
                                        verdict: verdict.clone(),
                                        span_id: sid,
                                        parent_id: pid,
                                    },
                                );
                            }
                            if let Some(coverage) = &exec.coverage {
                                emit_event(
                                    sink,
                                    hub,
                                    &EngineEvent::CaseCoverage {
                                        seq,
                                        case: exec.result.name.clone(),
                                        coverage: coverage.clone(),
                                        span_id: sid,
                                        parent_id: pid,
                                    },
                                );
                            }
                        }
                        executed += 1;
                        // Absorb under the lock; a due view is cloned out so its
                        // (comparatively expensive) rendering and I/O happen outside.
                        let (due, progress) = {
                            let mut guard = shared.lock().expect("campaign fold poisoned");
                            let (fold, cadence) = &mut *guard;
                            fold.absorb(seq, exec);
                            let (publish, checkpoint) = cadence.due(fold.arrived, opts);
                            let due =
                                (publish || checkpoint).then(|| (fold.view(), publish, checkpoint));
                            (due, fold.progress(elapsed_us(t0)))
                        };
                        if let Some((mut result, publish, checkpoint)) = due {
                            self.stamp(&mut result.engine, t0, snapshot_cache);
                            if let (true, Some(hub)) = (publish, &opts.telemetry) {
                                publish_live(hub, &result, &progress, false);
                            }
                            if let (true, Some(ckpt)) = (checkpoint, &opts.checkpoint) {
                                let dropped = opts
                                    .telemetry
                                    .as_ref()
                                    .map_or(0, MetricsHub::events_dropped_total);
                                write_checkpoint(ckpt, &result, progress.progress_ppm(), dropped);
                            }
                        }
                        if opts.progress {
                            // Trailing pad overwrites residue when the rendered ETA
                            // shrinks between repaints.
                            eprint!("\r{}   ", progress.render_line());
                        }
                    }
                    wspan.arg("cases", executed);
                    executed
                }));
            }
            for h in handles {
                cases_per_worker.push(h.join().expect("engine worker panicked outside isolation"));
            }
        });
        if self.opts.progress && !corpus.is_empty() {
            eprintln!();
        }
        drop(campaign_span);

        let (fold, _) = shared.into_inner().expect("campaign fold poisoned");
        let progress = fold.progress(elapsed_us(t0));
        let (mut result, reports) = fold.finish();
        result.engine.cases_per_worker = cases_per_worker;
        self.stamp(&mut result.engine, t0, snapshot_cache.as_ref());
        emit_event(
            self.opts.events.as_ref(),
            hub,
            &EngineEvent::CampaignFinished {
                metrics: result.engine.clone(),
            },
        );
        if let Some(sink) = &self.opts.events {
            sink.flush();
        }
        // The final publication is built from the returned result itself
        // (after the last ring-buffer push), so the last live `/metrics`
        // scrape is byte-identical to a `--metrics-out` exposition
        // rendered from the same result.
        if let Some(hub) = hub {
            publish_live(hub, &result, &progress, true);
            hub.set_complete(true);
        }
        (result, reports)
    }

    /// Stamps the run-wide samples no case execution carries — wall time,
    /// snapshot-cache counters and the trace analysis — onto a view.
    fn stamp(&self, metrics: &mut EngineMetrics, t0: Instant, cache: Option<&SnapshotCache>) {
        metrics.wall_us = t0.elapsed().as_micros();
        metrics.snapshot = cache.map(SnapshotCache::metrics);
        metrics.trace = self
            .opts
            .tracer
            .enabled()
            .then(|| self.opts.tracer.snapshot().analyze(TRACE_TOP_STRAGGLERS));
    }

    /// Seeds an [`EngineMetrics`] with the option-dependent aggregates
    /// (deep obs, diff, plan coverage) present-but-zeroed — the starting
    /// point of the run's [`CampaignFold`].
    fn seed_metrics(&self, threads: usize, cases_total: usize) -> EngineMetrics {
        EngineMetrics {
            threads,
            cases_total,
            cases_quarantined: 0,
            cases_budget_exceeded: 0,
            findings_total: 0,
            findings_by_structure: BTreeMap::new(),
            cases_per_worker: Vec::new(),
            wall_us: 0,
            obs: self
                .opts
                .counters
                .then(|| ObsMetrics::for_design(&self.cfg)),
            diff: self.opts.diff.is_some().then(DiffMetrics::default),
            snapshot: None,
            trace: None,
            plan_coverage: self
                .opts
                .coverage
                .then(|| PlanCoverage::for_design(&self.cfg)),
            fastpath: None,
        }
    }
}

fn case_event(
    seq: usize,
    exec: &CaseExecution,
    span_id: Option<u64>,
    parent_id: Option<u64>,
) -> EngineEvent {
    match &exec.result.error {
        Some(error) => EngineEvent::CaseQuarantined {
            seq,
            case: exec.result.name.clone(),
            error: error.clone(),
            span_id,
            parent_id,
        },
        None => EngineEvent::CaseFinished {
            seq,
            case: exec.result.name.clone(),
            cycles: exec.result.cycles,
            halted: exec.result.halted,
            finding_count: exec.result.finding_count,
            findings_by_structure: exec.findings_by_structure.clone(),
            build_us: exec.build_us,
            simulate_us: exec.simulate_us,
            check_us: exec.check_us,
            span_id,
            parent_id,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::Fuzzer;
    use crate::report::LeakClass;
    use serde_json::Value;

    fn small_corpus(cfg: &CoreConfig, n: usize) -> Vec<TestCase> {
        Fuzzer::with_target(n).generate(cfg)
    }

    #[test]
    fn engine_events_are_parseable_jsonl() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 6);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let opts = EngineOptions {
            threads: 2,
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        assert_eq!(result.case_count, 6);

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // started + 6x(case started + case outcome) + finished
        assert_eq!(lines.len(), 14, "events:\n{text}");
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.as_object().is_some());
        }
        assert!(lines[0].contains("CampaignStarted"));
        assert!(lines[13].contains("CampaignFinished"));
    }

    #[test]
    fn counters_flag_adds_case_counters_events_and_obs_metrics() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let opts = EngineOptions {
            threads: 2,
            counters: true,
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            ..EngineOptions::default()
        };
        let (result, _) =
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default());

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // started + 4x(started + finished + counters) + campaign finished
        assert_eq!(text.lines().count(), 14, "events:\n{text}");
        let counter_lines = text.lines().filter(|l| l.contains("CaseCounters")).count();
        assert_eq!(counter_lines, 4);

        let obs = result.engine.obs.as_ref().expect("obs");
        assert_eq!(obs.case_cycles.count(), 4);
        assert_eq!(obs.simulate_us.count(), 4);
        assert!(obs.uarch.cycles > 0, "aggregated cycles");
        assert!(obs.uarch.instructions_retired > 0);
        // Every inventoried structure is present even if untouched.
        let inventory = StorageInventory::profile(&cfg);
        for e in &inventory.elements {
            assert!(
                obs.uarch.structure(e.structure).is_some(),
                "missing {:?}",
                e.structure
            );
        }
    }

    #[test]
    fn diff_flag_adds_case_diff_events_and_diff_metrics() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let opts = EngineOptions {
            threads: 2,
            diff: Some(DiffOptions::default()),
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let diff_lines = text.lines().filter(|l| l.contains("CaseDiff")).count();
        assert_eq!(diff_lines, 4, "one CaseDiff per case:\n{text}");

        let dm = result.engine.diff.as_ref().expect("diff metrics");
        assert_eq!(dm.cases_compared, 4);
        assert_eq!(
            dm.divergences, 0,
            "default corpus must match the reference model"
        );
        assert_eq!(dm.matches + dm.skipped, 4);
        assert!(dm.matches >= 1, "at least one case compared clean");
        assert!(dm.retires_compared > 0);
    }

    #[test]
    fn diff_off_leaves_the_event_stream_and_metrics_unchanged() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let opts = EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        assert_eq!(result.engine.diff, None);
    }

    #[test]
    fn event_sink_flushes_on_drop_and_latches_errors() {
        struct FailAfter {
            shared: Arc<Mutex<(usize, usize)>>, // (writes seen, flushes seen)
            fail_from: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let mut s = self.shared.lock().unwrap();
                s.0 += 1;
                if s.0 > self.fail_from {
                    return Err(std::io::Error::other("disk full"));
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.shared.lock().unwrap().1 += 1;
                Ok(())
            }
        }

        // Drop flushes a healthy sink.
        let shared = Arc::new(Mutex::new((0, 0)));
        let sink = EventSink::new(FailAfter {
            shared: shared.clone(),
            fail_from: usize::MAX,
        });
        sink.emit(&EngineEvent::CampaignStarted {
            design: "boom".into(),
            case_count: 0,
            threads: 1,
        });
        drop(sink);
        assert_eq!(shared.lock().unwrap().1, 1, "drop must flush");

        // A failing sink latches: writes stop reaching the writer.
        let shared = Arc::new(Mutex::new((0, 0)));
        let sink = EventSink::new(FailAfter {
            shared: shared.clone(),
            fail_from: 1,
        });
        for _ in 0..5 {
            sink.emit(&EngineEvent::CampaignStarted {
                design: "boom".into(),
                case_count: 0,
                threads: 1,
            });
        }
        drop(sink);
        let s = *shared.lock().unwrap();
        assert_eq!(s.0, 2, "one success + one failure, then latched silent");
        assert_eq!(s.1, 0, "failed sink must not flush on drop");
    }

    #[test]
    fn watchdog_marks_budget_blown_cases_unhalted() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let opts = EngineOptions {
            threads: 2,
            case_cycle_budget: Some(50), // far below any real case
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        let metrics = result.engine;
        assert_eq!(metrics.cases_budget_exceeded, 4);
        assert!(result.cases.iter().all(|c| !c.halted));
        assert!(result.cases.iter().all(|c| c.cycles <= 50));
    }

    /// A synthetic execution of corpus entry `seq` with one LFB residency
    /// window of `window` cycles and a retained report.
    fn synthetic_execution(seq: usize, window: u64) -> CaseExecution {
        let name = format!("case{seq}");
        let path = crate::paths::AccessPath::all()[seq % 3];
        let class = LeakClass::all()[seq % LeakClass::all().len()];
        CaseExecution {
            result: CaseResult {
                name: name.clone(),
                path,
                cycles: 1_000 + seq as u64,
                halted: seq % 4 != 3,
                classes: BTreeSet::from([class]),
                finding_count: seq % 3,
                error: None,
            },
            report: Some(CheckReport {
                case: name,
                path,
                design: "boom".into(),
                findings: Vec::new(),
                provenance: Vec::new(),
            }),
            findings_by_structure: BTreeMap::from([("LFB".to_string(), seq % 3)]),
            budget_exceeded: seq % 4 == 3,
            build_us: 10,
            simulate_us: 20 + seq as u128,
            check_us: 5,
            counters: None,
            diff: None,
            coverage: Some(CaseCoverage {
                exercised: Vec::new(),
                detected: Vec::new(),
                residency: vec![crate::coverage::ResidencyWindow {
                    structure: teesec_uarch::trace::Structure::Lfb,
                    secret_addr: seq as u64,
                    start_cycle: 0,
                    end_cycle: window,
                }],
            }),
            cache: None,
            fastpath: None,
        }
    }

    /// Folds the synthetic executions of `windows` arriving in `order`.
    fn fold_in(order: &[usize], windows: &[u64]) -> CampaignFold {
        let cfg = CoreConfig::boom();
        let opts = EngineOptions {
            coverage: true,
            ..EngineOptions::default()
        };
        let metrics = Engine::new(cfg.clone(), opts).seed_metrics(2, windows.len());
        let mut fold = CampaignFold::new(cfg.name.clone(), metrics, PhaseTiming::default());
        for &seq in order {
            fold.absorb(seq, synthetic_execution(seq, windows[seq]));
        }
        fold
    }

    #[test]
    fn campaign_fold_absorbs_in_seq_order_whatever_the_arrival_order() {
        // Cases 2 and 5 tie on the longest LFB residency window.
        let windows = [10, 20, 50, 5, 30, 50, 1, 2];
        let in_order: Vec<usize> = (0..windows.len()).collect();
        let reversed: Vec<usize> = in_order.iter().rev().copied().collect();
        let shuffled = [3, 7, 0, 5, 1, 6, 2, 4];
        let (expected, expected_reports) = fold_in(&in_order, &windows).finish();
        for order in [&reversed[..], &shuffled[..]] {
            let (result, reports) = fold_in(order, &windows).finish();
            assert_eq!(result, expected, "arrival order {order:?}");
            assert_eq!(reports, expected_reports, "arrival order {order:?}");
        }
        let lfb = expected
            .engine
            .plan_coverage
            .as_ref()
            .expect("coverage seeded")
            .residency
            .iter()
            .find(|r| r.structure == teesec_uarch::trace::Structure::Lfb)
            .expect("LFB residency recorded");
        assert_eq!(lfb.worst_cycles, 50);
        assert_eq!(
            lfb.worst_case.as_deref(),
            Some("case2"),
            "a cycle tie keeps the lower seq"
        );
    }

    #[test]
    fn campaign_fold_view_covers_exactly_the_contiguous_prefix() {
        let windows = [10, 20, 50, 5, 30];
        let fold = fold_in(&[1, 0, 3], &windows);
        let view = fold.view();
        let names: Vec<&str> = view.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["case0", "case1"], "case3 waits for case2");
        assert_eq!(view, fold_in(&[0, 1], &windows).view());
        let progress = fold.progress(0);
        assert_eq!((progress.done, progress.total), (3, windows.len()));

        let mut fold = fold;
        fold.absorb(2, synthetic_execution(2, windows[2]));
        assert_eq!(fold.view(), fold_in(&[0, 1, 2, 3], &windows).view());
    }

    #[test]
    fn live_publishing_and_checkpointing_leave_the_result_unchanged() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 8);
        let opts = || EngineOptions {
            threads: 2,
            keep_reports: true,
            coverage: true,
            ..EngineOptions::default()
        };
        let dir = std::env::temp_dir().join(format!("teesec-fold-views-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir
            .join("metrics.prom")
            .to_str()
            .expect("utf-8 path")
            .to_string();
        let hub = MetricsHub::new(64);
        let served = EngineOptions {
            telemetry: Some(hub.clone()),
            checkpoint: Some(CheckpointOptions {
                path: path.clone(),
                every: 1,
                coverage_out: Some(format!("{path}.coverage.json")),
            }),
            ..opts()
        };
        let normalized = |(mut result, reports): (CampaignResult, Vec<CheckReport>)| {
            result.timing = PhaseTiming::default();
            result.engine.wall_us = 0;
            // Which worker ran which case is scheduling, not result.
            result.engine.cases_per_worker = Vec::new();
            (result, reports)
        };
        let served = normalized(
            Engine::new(cfg.clone(), served).run_corpus(&corpus, PhaseTiming::default()),
        );
        let plain =
            normalized(Engine::new(cfg, opts()).run_corpus(&corpus, PhaseTiming::default()));
        assert!(hub.complete(), "the served run published its final view");
        assert!(
            std::path::Path::new(&path).exists(),
            "checkpoints were written"
        );
        assert_eq!(served, plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn work_stealing_uses_every_worker_on_a_big_corpus() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 24);
        let opts = EngineOptions {
            threads: 4,
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        let metrics = result.engine;
        assert_eq!(metrics.cases_per_worker.len(), 4);
        assert_eq!(metrics.cases_per_worker.iter().sum::<usize>(), 24);
        assert_eq!(metrics.cases_total, 24);
        assert_eq!(metrics.cases_quarantined, 0);
    }
}
