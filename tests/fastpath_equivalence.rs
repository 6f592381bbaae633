//! Fast-path byte-identity: the fast-path simulator (page-keyed decode
//! cache, fetch-line memo, dirty-scan watermark kept across ordinary
//! retires, LSU retry elision, frozen trace prefixes, quiescent-cycle
//! fast-forward) must be *indistinguishable* from the reference path in
//! every checker-visible output. Over the full default corpus, on both
//! designs, with the fast path forced on and off, this suite compares the
//! serialized [`CheckReport`] (which embeds the provenance chains), the
//! per-case [`CaseCoverage`], the microarchitectural counter digest and
//! the run's exit — through both the batch and the streaming pipeline —
//! plus an interrupt-timing sweep whose interrupts land inside the stalls
//! the fast-forward jumps over.
//!
//! The fast path is elision-only by construction; this harness is the
//! lock on that construction.

use teesec::assemble::{assemble_case, CaseParams, Victim};
use teesec::checker::check_case_coverage;
use teesec::runner::{run_case_opts, RunOptions, SnapshotCache};
use teesec::stream::StreamingChecker;
use teesec::testcase::TestCase;
use teesec::{AccessPath, Fuzzer};
use teesec_uarch::{CoreConfig, RunExit};

/// Batch pipeline under a forced fast-path setting: serialized report
/// (findings + provenance chains), coverage, counter digest (which holds
/// the cycle count), and how the run ended.
fn batch_outputs(tc: &TestCase, cfg: &CoreConfig, fast: bool) -> (String, String, String, RunExit) {
    let outcome = run_case_opts(
        tc,
        cfg,
        RunOptions {
            fast_path: Some(fast),
            ..RunOptions::default()
        },
    )
    .expect("build");
    assert_eq!(
        outcome.platform.core.fast_path(),
        fast,
        "the override must stick for the whole case"
    );
    let (report, coverage) = check_case_coverage(tc, &outcome, cfg);
    (
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&coverage).expect("coverage serializes"),
        serde_json::to_string(&outcome.platform.core.counters()).expect("counters serialize"),
        outcome.exit,
    )
}

/// Streaming pipeline (online checker, no trace buffering, snapshot
/// forks) under a forced fast-path setting.
fn streaming_outputs(
    tc: &TestCase,
    cfg: &CoreConfig,
    fast: bool,
    cache: &SnapshotCache,
) -> (String, String) {
    let mut outcome = run_case_opts(
        tc,
        cfg,
        RunOptions {
            snapshot_cache: Some(cache),
            sink: Some(Box::new(StreamingChecker::with_coverage(tc, cfg))),
            buffer_trace: false,
            fast_path: Some(fast),
            ..RunOptions::default()
        },
    )
    .expect("streaming build");
    let checker = outcome
        .platform
        .core
        .trace
        .take_sink()
        .expect("sink survives the run")
        .into_any()
        .downcast::<StreamingChecker>()
        .expect("sink is the streaming checker");
    let (report, coverage) = checker.finish_coverage(tc, &outcome);
    (
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&coverage.expect("coverage recording was on"))
            .expect("coverage serializes"),
    )
}

/// The headline guarantee: over the full default corpus, on both
/// designs, the batch pipeline's report, coverage, and counter digest
/// are byte-identical with the fast path on and off.
#[test]
fn full_corpus_batch_outputs_are_byte_identical_across_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let mut findings = 0usize;
        let mut chains = 0usize;
        for tc in &corpus {
            let (ref_report, ref_cov, ref_ctr, ref_exit) = batch_outputs(tc, &cfg, false);
            let (fast_report, fast_cov, fast_ctr, fast_exit) = batch_outputs(tc, &cfg, true);
            assert_eq!(
                fast_exit, ref_exit,
                "case {} on {}: exit",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_report, ref_report,
                "case {} on {}: fast-path report differs from reference",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_cov, ref_cov,
                "case {} on {}: fast-path coverage differs from reference",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_ctr, ref_ctr,
                "case {} on {}: fast-path counter digest differs from reference",
                tc.name, cfg.name
            );
            findings += ref_report.matches("\"principle\"").count();
            chains += ref_report.matches("\"finding_index\"").count();
        }
        assert!(
            findings > 0,
            "{}: a corpus with no findings would make the comparison vacuous",
            cfg.name
        );
        assert!(
            chains > 0,
            "{}: no provenance chains were compared",
            cfg.name
        );
    }
}

/// Figure-6 interrupt-timing sweep: every access path of the design
/// (the 20k-cycle SM scrub aside) with an enclave victim and twelve
/// interrupt cycles across `100..1000`. The paper corpus's interrupts
/// never land inside a stall the fast path jumps over; these do, so the
/// jump must stop exactly at the interrupt cycle for the runs to match.
#[test]
fn interrupt_timing_sweep_is_byte_identical_across_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let mut compared = 0usize;
        for &path in AccessPath::all() {
            if path == AccessPath::SmScrub {
                continue;
            }
            for at in (100..1000).step_by(75) {
                let params = CaseParams {
                    victim: Victim::Enclave,
                    irq_at: Some(at),
                    ..CaseParams::default()
                };
                let Ok(tc) = assemble_case(path, params, &cfg) else {
                    continue;
                };
                let reference = batch_outputs(&tc, &cfg, false);
                let fast = batch_outputs(&tc, &cfg, true);
                assert_eq!(
                    fast, reference,
                    "case {} (irq at {at}) on {}: fast path differs from reference",
                    tc.name, cfg.name
                );
                compared += 1;
            }
        }
        assert!(compared >= 120, "{}: only {compared} sweep cases", cfg.name);
    }
}

/// The same identity holds through the streaming pipeline, each arm
/// forking from its own snapshot cache (caches capture simulator state,
/// so sharing one across arms would blur what is being compared).
#[test]
fn full_corpus_streaming_outputs_are_byte_identical_across_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let ref_cache = SnapshotCache::new();
        let fast_cache = SnapshotCache::new();
        for tc in &corpus {
            let (ref_report, ref_cov) = streaming_outputs(tc, &cfg, false, &ref_cache);
            let (fast_report, fast_cov) = streaming_outputs(tc, &cfg, true, &fast_cache);
            assert_eq!(
                fast_report, ref_report,
                "case {} on {}: streaming fast-path report differs",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_cov, ref_cov,
                "case {} on {}: streaming fast-path coverage differs",
                tc.name, cfg.name
            );
        }
        assert!(
            ref_cache.metrics().hits > 0 && fast_cache.metrics().hits > 0,
            "both arms exercised snapshot forking ({:?} / {:?})",
            ref_cache.metrics(),
            fast_cache.metrics()
        );
    }
}

/// The comparison is not a no-op: with the fast path on, the decode
/// cache, scan elision and quiescent-cycle fast-forward actually engage
/// over the corpus.
#[test]
fn fast_arm_actually_takes_the_fast_path() {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(8).generate(&cfg);
    let mut hits = 0u64;
    let mut skips = 0u64;
    let mut skipped_cycles = 0u64;
    for tc in &corpus {
        let outcome = run_case_opts(
            tc,
            &cfg,
            RunOptions {
                fast_path: Some(true),
                ..RunOptions::default()
            },
        )
        .expect("build");
        let stats = outcome.platform.core.fast_path_stats();
        hits += stats.decode.hits;
        skips += stats.scan_skips;
        skipped_cycles += stats.skipped_cycles;
    }
    assert!(hits > 0, "decode cache never hit");
    assert!(skips > 0, "dirty-scan elision never engaged");
    assert!(skipped_cycles > 0, "no quiescent cycle was fast-forwarded");
}
