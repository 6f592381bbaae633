//! Locks the engine to an independent serial reference. The reference runs
//! each case through the public `runner::run_case` and `check_case` and
//! builds the expected `CaseResult`s and the class union itself, sharing no
//! code with the engine or its fold. `Campaign::run_engine` must reproduce
//! it — and retain exactly `check_case`'s reports — at every worker count,
//! and the production configuration must match the plain engine.

use std::collections::BTreeSet;

use teesec::campaign::{CampaignResult, CaseResult};
use teesec::checker::check_case;
use teesec::engine::EngineOptions;
use teesec::fuzz::Fuzzer;
use teesec::report::{CheckReport, LeakClass};
use teesec::runner::run_case;
use teesec::Campaign;
use teesec_uarch::{CoreConfig, RunExit};

const CORPUS: usize = 40;

/// The expected per-case results, class union and reports of `cases`
/// cases on `cfg`, computed one case at a time.
fn reference(
    cfg: &CoreConfig,
    cases: usize,
) -> (Vec<CaseResult>, BTreeSet<LeakClass>, Vec<CheckReport>) {
    let mut results = Vec::new();
    let mut classes = BTreeSet::new();
    let mut reports = Vec::new();
    for tc in Fuzzer::with_target(cases).generate(cfg) {
        let outcome = run_case(&tc, cfg).expect("fuzzer cases build");
        let report = check_case(&tc, &outcome, cfg);
        classes.extend(report.classes());
        results.push(CaseResult {
            name: tc.name.clone(),
            path: tc.path,
            cycles: outcome.cycles,
            halted: outcome.exit == RunExit::Halted,
            classes: report.classes(),
            finding_count: report.findings.len(),
            error: None,
        });
        reports.push(report);
    }
    (results, classes, reports)
}

/// Asserts `result` is the reference's campaign.
fn assert_matches_reference(
    result: &CampaignResult,
    cfg: &CoreConfig,
    (cases, classes, _): &(Vec<CaseResult>, BTreeSet<LeakClass>, Vec<CheckReport>),
    label: &str,
) {
    assert_eq!(result.design, cfg.name, "{label}");
    assert_eq!(result.case_count, cases.len(), "{label}");
    assert_eq!(&result.cases, cases, "{label}: per-case results diverged");
    assert_eq!(
        &result.classes_found, classes,
        "{label}: class union diverged"
    );
}

#[test]
fn engine_matches_serial_at_1_2_and_7_threads() {
    let cfg = CoreConfig::boom();
    let expected = reference(&cfg, CORPUS);
    assert!(
        !expected.1.is_empty(),
        "reference corpus must uncover leaks for the comparison to be meaningful"
    );
    let campaign = Campaign::new(cfg.clone(), Fuzzer::with_target(CORPUS));
    for threads in [1usize, 2, 7] {
        let (result, reports) = campaign.run_engine(EngineOptions {
            threads,
            keep_reports: true,
            ..EngineOptions::default()
        });
        assert_eq!(result.engine.threads, threads);
        assert_eq!(result.engine.cases_total, CORPUS);
        assert_eq!(result.engine.cases_quarantined, 0);
        assert_eq!(result.engine.cases_per_worker.iter().sum::<usize>(), CORPUS);
        assert_matches_reference(&result, &cfg, &expected, &format!("{threads} threads"));
        assert_eq!(
            reports, expected.2,
            "retained reports diverged at {threads} threads"
        );
    }
}

/// The production configuration — streaming checker + shared snapshot
/// cache across workers — must be result-identical to the plain batch
/// engine, down to the retained reports, and must actually use the cache.
#[test]
fn streaming_snapshot_engine_matches_batch_engine() {
    let cfg = CoreConfig::boom();
    let expected = reference(&cfg, CORPUS);
    let campaign = Campaign::new(cfg.clone(), Fuzzer::with_target(CORPUS));
    let (batch, batch_reports) = campaign.run_engine(EngineOptions {
        threads: 4,
        keep_reports: true,
        ..EngineOptions::default()
    });
    assert!(batch.engine.snapshot.is_none());
    assert_matches_reference(&batch, &cfg, &expected, "batch");

    let (streamed, streamed_reports) = campaign.run_engine(EngineOptions {
        threads: 4,
        keep_reports: true,
        streaming: true,
        snapshot_cache: true,
        ..EngineOptions::default()
    });
    assert_matches_reference(&streamed, &cfg, &expected, "streaming + snapshot cache");
    assert_eq!(
        streamed_reports, batch_reports,
        "retained reports diverged under streaming"
    );
    let cache = streamed
        .engine
        .snapshot
        .as_ref()
        .expect("snapshot metrics attached when the cache is on");
    assert_eq!(
        (cache.hits + cache.misses + cache.bypasses) as usize,
        CORPUS,
        "every case consults the cache exactly once: {cache:?}"
    );
    assert!(
        cache.hits > 0,
        "a 40-case corpus must share setups: {cache:?}"
    );
}

#[test]
fn engine_matches_serial_on_second_design() {
    let cfg = CoreConfig::xiangshan();
    let expected = reference(&cfg, 24);
    let (result, _) =
        Campaign::new(cfg.clone(), Fuzzer::with_target(24)).run_engine(EngineOptions {
            threads: 3,
            ..EngineOptions::default()
        });
    assert_matches_reference(&result, &cfg, &expected, "xiangshan at 3 threads");
}
