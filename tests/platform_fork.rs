//! Boot-snapshot forks are isolated from their snapshot and from each
//! other. The snapshot's L1I/L1D/L2 lines are shared copy-on-write with
//! every fork, so a case that fills and evicts lines in its fork must
//! leave the snapshot's lines — addresses, bytes, LRU stamps and fill
//! domains — exactly as captured, and a second fork of the same case
//! must produce the byte-identical report and counter digest (which must
//! also equal a fresh build's).

use teesec::checker::check_case;
use teesec::runner::{build_platform_from, capture_boot_snapshot, run_case, BuildKind, RunOutcome};
use teesec::testcase::TestCase;
use teesec::Fuzzer;
use teesec_uarch::cache::Cache;
use teesec_uarch::trace::Domain;
use teesec_uarch::{Core, CoreConfig};

type Listing = Vec<(u64, Vec<u8>, u64, Domain)>;

fn listing(c: &Cache) -> Listing {
    c.valid_lines()
        .map(|l| (l.line_addr, l.data.to_vec(), l.last_use, l.fill_domain))
        .collect()
}

/// L1I, L1D and L2 contents.
fn caches(core: &Core) -> [Listing; 3] {
    [
        listing(&core.l1i),
        listing(&core.lsu.l1d),
        listing(&core.lsu.l2),
    ]
}

/// Forks `tc` from `snap`'s boot snapshot, runs it, and returns the
/// serialized report and counter digest with the final cache contents.
fn run_fork(
    tc: &TestCase,
    cfg: &CoreConfig,
    snap: &teesec_tee::platform::PlatformSnapshot,
) -> (String, String, [Listing; 3]) {
    let mut platform = build_platform_from(tc, cfg, snap).expect("fork");
    let exit = platform.run(tc.max_cycles);
    let outcome = RunOutcome {
        cycles: platform.core.cycle,
        platform,
        exit,
        build_us: 0,
        build: BuildKind::BootForked,
    };
    let report = serde_json::to_string(&check_case(tc, &outcome, cfg)).expect("report");
    let counters = serde_json::to_string(&outcome.platform.core.counters()).expect("counters");
    (report, counters, caches(&outcome.platform.core))
}

#[test]
fn forks_leave_the_boot_snapshot_untouched_and_repeat_exactly() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus: Vec<TestCase> = Fuzzer::paper_default()
            .generate(&cfg)
            .into_iter()
            .filter(|tc| tc.irq_at.is_none())
            .collect();
        let picked: Vec<&TestCase> = corpus.iter().step_by(corpus.len() / 12).collect();
        let mut filled = 0;
        for tc in picked {
            let snap = capture_boot_snapshot(tc, &cfg).expect("boot snapshot");
            let captured = caches(snap.core());
            assert!(
                !captured[0].is_empty(),
                "{}: the boot prefix fetched through L1I",
                cfg.name
            );

            let (report, counters, after) = run_fork(tc, &cfg, &snap);
            if after[1] != captured[1] && after[2] != captured[2] {
                filled += 1;
            }
            assert!(
                caches(snap.core()) == captured,
                "case {} on {}: running a fork changed the snapshot's cache lines",
                tc.name,
                cfg.name
            );

            let (again, again_counters, again_caches) = run_fork(tc, &cfg, &snap);
            assert_eq!(
                again, report,
                "case {} on {}: second fork's report differs",
                tc.name, cfg.name
            );
            assert_eq!(
                again_counters, counters,
                "case {} on {}: second fork's counter digest differs",
                tc.name, cfg.name
            );
            assert!(
                again_caches == after,
                "case {}: final caches differ",
                tc.name
            );
            assert!(caches(snap.core()) == captured);

            let fresh = run_case(tc, &cfg).expect("fresh build");
            assert_eq!(
                serde_json::to_string(&check_case(tc, &fresh, &cfg)).expect("report"),
                report,
                "case {} on {}: fork and fresh build disagree",
                tc.name,
                cfg.name
            );
        }
        assert!(
            filled >= 6,
            "{}: only {filled} picked cases filled both L1D and L2",
            cfg.name
        );
    }
}
