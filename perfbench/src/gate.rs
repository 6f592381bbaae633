//! The correctness gate: checks over per-case records that fail the
//! benchmark when the program's outputs are wrong. Each check returns the
//! problems it found; an empty list passes.

use std::collections::BTreeSet;

use teesec::LeakClass;

use crate::workload::{CaseRecord, DesignRun};

/// The Table 3 leak classes each design must show on the paper corpus.
fn table3_expected(design: &str) -> Option<BTreeSet<LeakClass>> {
    use LeakClass::*;
    let classes: &[LeakClass] = match design {
        "boom" => &[D1, D2, D3, D4, D5, D6, D7, M1, M2],
        "xiangshan" => &[D4, D5, D6, D7, D8, M1, M2],
        _ => return None,
    };
    Some(classes.iter().copied().collect())
}

/// The union of leak classes over `records` must equal the design's
/// Table 3 row.
pub fn check_table3(design: &str, records: &[CaseRecord]) -> Vec<String> {
    let Some(expected) = table3_expected(design) else {
        return vec![format!("{design}: no Table 3 reference")];
    };
    let found: BTreeSet<LeakClass> = records.iter().flat_map(|r| r.classes.clone()).collect();
    if found == expected {
        Vec::new()
    } else {
        vec![format!(
            "{design}: Table 3 classes {found:?}, expected {expected:?}"
        )]
    }
}

/// Two runs of the same corpus must agree case by case on name, cycles,
/// leak classes and finding count.
pub fn check_identical(what: &str, a: &[CaseRecord], b: &[CaseRecord]) -> Vec<String> {
    if a.len() != b.len() {
        return vec![format!("{what}: {} cases vs {}", a.len(), b.len())];
    }
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            (&x.name, x.cycles, &x.classes, x.findings)
                != (&y.name, y.cycles, &y.classes, y.findings)
        })
        .take(3)
        .map(|(x, y)| format!("{what}: {x:?} != {y:?}"))
        .collect()
}

/// No case may fail (quarantine, budget, build failure or divergence): the
/// workloads are chosen so that every case runs clean.
pub fn check_no_failures(design: &str, run: &DesignRun) -> Vec<String> {
    let mut problems = Vec::new();
    if run.divergences > 0 {
        problems.push(format!("{design}: {} diff divergence(s)", run.divergences));
    }
    let failed: Vec<&str> = run
        .records
        .iter()
        .filter(|r| r.failed)
        .map(|r| r.name.as_str())
        .take(3)
        .collect();
    if !failed.is_empty() {
        problems.push(format!(
            "{design}: {} failed case(s), e.g. {failed:?}",
            run.failed()
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, classes: &[LeakClass]) -> CaseRecord {
        CaseRecord {
            name: name.to_string(),
            cycles: 1_000,
            classes: classes.iter().copied().collect(),
            findings: classes.len(),
            failed: false,
            checked: true,
        }
    }

    fn boom_records() -> Vec<CaseRecord> {
        use LeakClass::*;
        vec![
            record("a", &[D1, D2, D3]),
            record("b", &[D4, D5, D6, D7]),
            record("c", &[M1, M2]),
            record("d", &[]),
        ]
    }

    #[test]
    fn table3_passes_on_the_paper_row() {
        assert!(check_table3("boom", &boom_records()).is_empty());
    }

    #[test]
    fn table3_fails_on_a_dropped_leak_class() {
        let mut tampered = boom_records();
        tampered[2].classes.remove(&LeakClass::M2);
        assert_eq!(check_table3("boom", &tampered).len(), 1);
    }

    #[test]
    fn table3_fails_on_an_extra_class_or_unknown_design() {
        let mut tampered = boom_records();
        tampered[3].classes.insert(LeakClass::D8);
        assert_eq!(check_table3("boom", &tampered).len(), 1);
        assert_eq!(check_table3("rocket", &boom_records()).len(), 1);
    }

    #[test]
    fn identical_runs_pass_and_tampered_ones_fail() {
        let a = boom_records();
        assert!(check_identical("x", &a, &a.clone()).is_empty());
        let mut cycles = a.clone();
        cycles[0].cycles += 1;
        assert_eq!(check_identical("x", &a, &cycles).len(), 1);
        let mut findings = a.clone();
        findings[1].findings += 1;
        assert_eq!(check_identical("x", &a, &findings).len(), 1);
        assert_eq!(check_identical("x", &a, &a[..3]).len(), 1);
    }

    #[test]
    fn a_divergence_or_failed_case_fails_the_gate() {
        let clean = DesignRun {
            records: boom_records(),
            wall_s: 1.0,
            divergences: 0,
        };
        assert!(check_no_failures("boom", &clean).is_empty());
        let diverged = DesignRun {
            divergences: 1,
            ..clean.clone()
        };
        assert_eq!(check_no_failures("boom", &diverged).len(), 1);
        let mut quarantined = clean;
        quarantined.records[0].failed = true;
        assert_eq!(check_no_failures("boom", &quarantined).len(), 1);
    }
}
