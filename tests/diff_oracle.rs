//! Integration tests for the differential co-simulation oracle: the
//! out-of-order core must match the reference ISS on every bundled access
//! path, on both design presets, and the oracle must catch a planted
//! architectural bug, naming the first bad retire.

use teesec::assemble::{assemble_case, CaseParams};
use teesec::diff::{
    diff_case, diff_corpus, DiffOptions, DiffVerdict, DivergenceKind, FaultInjection,
};
use teesec::paths::AccessPath;
use teesec::runner::build_platform;
use teesec_isa::reg::Reg;
use teesec_tee::layout;
use teesec_uarch::config::CoreConfig;

fn default_corpus(cfg: &CoreConfig) -> Vec<teesec::TestCase> {
    AccessPath::all()
        .iter()
        .filter_map(|p| assemble_case(*p, CaseParams::default(), cfg).ok())
        .collect()
}

#[test]
fn all_default_cases_match_the_reference_on_boom() {
    let cfg = CoreConfig::boom();
    let summary = diff_corpus(&default_corpus(&cfg), &cfg, &DiffOptions::default());
    assert_eq!(
        summary.divergences,
        0,
        "no default case may diverge on {}: {:#?}",
        cfg.name,
        summary
            .cases
            .iter()
            .filter(|c| c.verdict.diverged())
            .collect::<Vec<_>>()
    );
    assert!(summary.matches > 0, "the corpus must not be empty");
    assert!(
        summary.retires_compared > 1_000,
        "lockstep must actually compare retires (got {})",
        summary.retires_compared
    );
}

#[test]
fn all_default_cases_match_the_reference_on_xiangshan() {
    let cfg = CoreConfig::xiangshan();
    let summary = diff_corpus(&default_corpus(&cfg), &cfg, &DiffOptions::default());
    assert_eq!(
        summary.divergences,
        0,
        "no default case may diverge on {}: {:#?}",
        cfg.name,
        summary
            .cases
            .iter()
            .filter(|c| c.verdict.diverged())
            .collect::<Vec<_>>()
    );
    assert!(summary.matches > 0);
}

#[test]
fn wider_register_file_stride_still_matches() {
    let cfg = CoreConfig::boom();
    let opts = DiffOptions {
        stride: 64,
        ..DiffOptions::default()
    };
    let tc = assemble_case(AccessPath::LoadMemMiss, CaseParams::default(), &cfg).unwrap();
    let v = diff_case(&tc, &cfg, &opts).expect("build");
    assert!(matches!(v, DiffVerdict::Match { .. }), "got {v:?}");
}

/// The oracle self-test: plant a single-bit-pattern corruption in the
/// core's architectural register file mid-run and require a structured
/// divergence that does not pre-date the injection.
#[test]
fn planted_ooo_bug_is_reported_with_the_first_bad_retire() {
    let cfg = CoreConfig::xiangshan();
    let tc = assemble_case(AccessPath::StoreL1Hit, CaseParams::default(), &cfg).unwrap();
    let opts = DiffOptions {
        fault: Some(FaultInjection::CorruptArchReg {
            at_retire: 40,
            reg: Reg::T4,
            xor: 0x1,
        }),
        ..DiffOptions::default()
    };
    let v = diff_case(&tc, &cfg, &opts).expect("build");
    let DiffVerdict::Diverged(d) = v else {
        panic!("planted corruption must be caught, got {v:?}");
    };
    assert!(
        d.retire_seq >= 40,
        "first bad retire is at or after the injection"
    );
    assert!(!d.inst.is_empty(), "the report names the instruction");
    assert_eq!(d.core.regs.len(), 32);
    assert_eq!(d.iss.regs.len(), 32);
}

/// The same case without the fault knob stays clean — the self-test
/// discriminates, it does not just always fire.
#[test]
fn self_test_discriminates_clean_from_faulty() {
    let cfg = CoreConfig::xiangshan();
    let tc = assemble_case(AccessPath::StoreL1Hit, CaseParams::default(), &cfg).unwrap();
    let v = diff_case(&tc, &cfg, &DiffOptions::default()).expect("build");
    assert!(matches!(v, DiffVerdict::Match { .. }), "got {v:?}");
}

/// The memory self-test: flip one byte of the core's memory on a page the
/// case never writes. The ISS starts from a copy-on-write fork of the same
/// image, so the page is still shared when the flip lands; the end-of-test
/// compare must report exactly that byte rather than skip the page as
/// shared. Without the fault the same case matches.
#[test]
fn planted_memory_flip_on_a_shared_page_is_reported_at_its_address() {
    // Last byte of the host code page: loaded at build, never stored to.
    let addr = layout::HOST_BASE + 0xFFF;
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let tc = assemble_case(AccessPath::StoreL1Hit, CaseParams::default(), &cfg).unwrap();

        let mut platform = build_platform(&tc, &cfg).expect("build");
        let built = platform.core.mem.page_version(addr);
        assert!(built > 0, "{}: the target page must be backed", cfg.name);
        platform.run(tc.max_cycles);
        assert_eq!(
            platform.core.mem.page_version(addr),
            built,
            "{}: the case must never write the target page",
            cfg.name
        );

        let clean = diff_case(&tc, &cfg, &DiffOptions::default()).expect("build");
        let DiffVerdict::Match { retires, .. } = clean else {
            panic!("{}: clean run must match, got {clean:?}", cfg.name);
        };

        let opts = DiffOptions {
            fault: Some(FaultInjection::CorruptMemory {
                at_retire: 30,
                addr,
                xor: 0x5A,
            }),
            ..DiffOptions::default()
        };
        let v = diff_case(&tc, &cfg, &opts).expect("build");
        let DiffVerdict::Diverged(d) = v else {
            panic!(
                "{}: planted memory flip must be caught, got {v:?}",
                cfg.name
            );
        };
        let DivergenceKind::Memory {
            addr: found,
            core_byte,
            iss_byte,
        } = d.kind
        else {
            panic!(
                "{}: expected a memory divergence, got {:?}",
                cfg.name, d.kind
            );
        };
        assert_eq!(
            found, addr,
            "{}: the report names the flipped byte",
            cfg.name
        );
        assert_eq!(core_byte ^ iss_byte, 0x5A, "{}", cfg.name);
        assert_eq!(d.retire_seq, retires, "{}: found at end of test", cfg.name);
    }
}
