//! The four workloads: how each corpus is generated from the seed and how
//! it is executed through the public `teesec` API.

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use teesec::assemble::{assemble_case, Attacker, CaseParams, Lifecycle, Victim};
use teesec::campaign::{CaseResult, PhaseTiming};
use teesec::{
    diff_corpus, AccessPath, DiffOptions, DiffVerdict, Engine, EngineOptions, Fuzzer, LeakClass,
    TestCase,
};
use teesec_isa::inst::MemWidth;
use teesec_uarch::CoreConfig;

/// The seed used when `--seed` is not given: the fuzzer's own default, so
/// the `campaign`, `matrix` and `diff` corpora equal the CLI's 585-case
/// paper corpus.
pub const DEFAULT_SEED: u64 = 0x7EE5_EC00;

/// Input variants per run. Variant 0 is generated from `--seed` itself,
/// variant `v` from [`variant_seed`]; the timed passes cycle through them,
/// so one run's figures average over several seeded corpora instead of
/// hinging on one random draw (the paper corpus's randomized phase decides,
/// for one, how many 20k-cycle SM-scrub cases a corpus holds).
pub const VARIANTS: usize = 16;

/// The generator seed of input variant `v` of a run seeded with `seed`:
/// `seed` itself for variant 0, otherwise a SplitMix64 output of `seed`
/// mixed with `v`, so no variant's random stream is a shifted copy of
/// another's and neighbouring run seeds share no variant.
pub fn variant_seed(seed: u64, v: usize) -> u64 {
    match v {
        0 => seed,
        v => SplitMix64::new(seed ^ (v as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64(),
    }
}

/// Interrupt-timing families per design in `irq-sweep`; below the
/// snapshot cache's 64-family bound, so no family is evicted mid-sweep.
pub const IRQ_FAMILIES: usize = 48;
/// Cases per family (the swept interrupt cycles).
pub const IRQ_SIBLINGS: usize = 12;
/// Interrupt cycles are drawn from this window: after the boot prefix and
/// before most cases halt, so the interrupt usually lands mid-case.
const IRQ_WINDOW: std::ops::Range<u64> = 100..1_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper corpus with the CLI `campaign` defaults.
    Campaign,
    /// The paper corpus the way `teesec matrix` runs it (engine defaults).
    Matrix,
    /// Figure-6 interrupt-timing families with `campaign` options.
    IrqSweep,
    /// The lockstep OoO-vs-ISS oracle over the paper corpus, serially.
    Diff,
}

/// How a corpus is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `teesec campaign` defaults: streaming checker, snapshot cache,
    /// counters and coverage on.
    Campaign,
    /// [`Mode::Campaign`] with the snapshot cache off (the reference the
    /// `irq-sweep` results are checked against).
    CampaignNoCache,
    /// Engine defaults (`teesec matrix`): fresh build per case, buffered
    /// trace, batch checker with provenance, no counters or coverage.
    Matrix,
    /// `teesec diff`: `diff_corpus` with default options, one thread.
    Diff,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Matrix,
        Workload::IrqSweep,
        Workload::Diff,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Matrix => "matrix",
            Workload::IrqSweep => "irq-sweep",
            Workload::Diff => "diff",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the workload's timed runs execute the corpus.
    pub fn mode(self) -> Mode {
        match self {
            Workload::Campaign | Workload::IrqSweep => Mode::Campaign,
            Workload::Matrix => Mode::Matrix,
            Workload::Diff => Mode::Diff,
        }
    }

    /// The engine mode whose `run_corpus` overhead and speed-up the traced
    /// run reports. `diff` never runs on the engine, so it reports the
    /// engine defaults on its corpus.
    pub fn engine_mode(self) -> Mode {
        match self.mode() {
            Mode::Diff => Mode::Matrix,
            m => m,
        }
    }

    /// Generates the workload's corpus for one design.
    pub fn generate(self, seed: u64, cfg: &CoreConfig) -> Vec<TestCase> {
        match self {
            Workload::IrqSweep => irq_sweep(seed, cfg),
            _ => Fuzzer::paper_default().with_seed(seed).generate(cfg),
        }
    }
}

/// The two designs of Table 3, in report order.
pub fn designs() -> [CoreConfig; 2] {
    [CoreConfig::boom(), CoreConfig::xiangshan()]
}

/// Worker threads for the parallel modes: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: a small, fixed generator, so the `irq-sweep` corpus for a
/// seed never changes with a dependency's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Figure-6 interrupt-timing sweep: [`IRQ_FAMILIES`] families of
/// [`IRQ_SIBLINGS`] cases each. Siblings differ only in `irq_at`. Families
/// take the design's access paths in turn, in an order the seed shuffles,
/// so every path is swept about equally often; the seed picks each
/// family's attacker, offset, width, seeding, lifecycle and counter
/// restriction, and its interrupt cycles. The victim is always the
/// enclave, as in Figure 6: a security-monitor victim makes some paths run
/// 12k cycles instead of 1k, and twelve siblings share that cost, so a
/// seed's handful of such families would decide its whole run time. Siblings are interleaved across families (every family's first
/// sibling, then every family's second, ...), each family ascending in
/// interrupt cycle as a sweep would visit it.
///
/// The SM-scrub path is left out: its 20k-cycle scrub loop would make
/// whichever families draw it dominate the run.
pub fn irq_sweep(seed: u64, cfg: &CoreConfig) -> Vec<TestCase> {
    let paths: Vec<AccessPath> = AccessPath::all()
        .iter()
        .copied()
        .filter(|p| p.exists_on(cfg) && *p != AccessPath::SmScrub)
        .collect();
    let widths = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];
    let mut rng = SplitMix64::new(seed);
    let mut paths = paths;
    for i in (1..paths.len()).rev() {
        paths.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut seen = HashSet::new();
    let mut families: Vec<Vec<TestCase>> = Vec::with_capacity(IRQ_FAMILIES);
    while families.len() < IRQ_FAMILIES {
        let path = paths[families.len() % paths.len()];
        let params = CaseParams {
            victim: Victim::Enclave,
            attacker: if rng.below(4) == 0 {
                Attacker::Enclave1
            } else {
                Attacker::Host
            },
            offset: rng.below(0x100) * 8,
            width: widths[rng.below(widths.len() as u64) as usize],
            warm_via_stores: rng.below(2) == 0,
            lifecycle: match rng.below(3) {
                0 => Lifecycle::Stop,
                1 => Lifecycle::StopResumeStop,
                _ => Lifecycle::Exit,
            },
            irq_at: None,
            restricted_counters: rng.below(2) == 0,
            reprobe: false,
        };
        let mut ats = BTreeSet::new();
        while ats.len() < IRQ_SIBLINGS {
            ats.insert(IRQ_WINDOW.start + rng.below(IRQ_WINDOW.end - IRQ_WINDOW.start));
        }
        if !seen.insert((path, params)) {
            continue;
        }
        let family: Vec<TestCase> = ats
            .iter()
            .enumerate()
            .filter_map(|(k, &at)| {
                let sibling = CaseParams {
                    irq_at: Some(at),
                    ..params
                };
                let mut tc = assemble_case(path, sibling, cfg).ok()?;
                tc.name = format!("{}_f{}_irq{k}", tc.name, families.len());
                Some(tc)
            })
            .collect();
        if family.len() == IRQ_SIBLINGS {
            families.push(family);
        }
    }
    (0..IRQ_SIBLINGS)
        .flat_map(|k| families.iter().map(move |f| f[k].clone()))
        .collect()
}

/// One case's result, reduced to what the correctness gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// Test-case name.
    pub name: String,
    /// Simulated OoO cycles (0 for a case the oracle skipped).
    pub cycles: u64,
    /// Leak classes found.
    pub classes: BTreeSet<LeakClass>,
    /// Number of findings.
    pub findings: usize,
    /// Quarantined, over budget, failed to build or diverged.
    pub failed: bool,
    /// The workload's oracle produced a verdict for the case (always true
    /// for the leak checker; false for a case `diff` skipped).
    pub checked: bool,
}

impl CaseRecord {
    /// The record of an engine-run case.
    pub fn from_result(r: &CaseResult) -> CaseRecord {
        let failed = r.error.is_some() || !r.halted;
        CaseRecord {
            name: r.name.clone(),
            cycles: r.cycles,
            classes: r.classes.clone(),
            findings: r.finding_count,
            failed,
            checked: !failed,
        }
    }

    /// The record of a differential verdict.
    pub fn from_verdict(name: &str, v: &DiffVerdict) -> CaseRecord {
        let (cycles, failed, checked) = match v {
            DiffVerdict::Match { cycles, .. } => (*cycles, false, true),
            DiffVerdict::Diverged(_) => (0, true, true),
            DiffVerdict::Skipped { reason } => {
                let build_failed = reason.contains("build failed");
                (0, build_failed, false)
            }
        };
        CaseRecord {
            name: name.to_string(),
            cycles,
            classes: BTreeSet::new(),
            findings: 0,
            failed,
            checked,
        }
    }
}

/// One design's corpus executed once.
#[derive(Debug, Clone)]
pub struct DesignRun {
    /// Per-case records, in corpus order.
    pub records: Vec<CaseRecord>,
    /// Host seconds the run took.
    pub wall_s: f64,
    /// Cases the oracle reported as diverged (`diff` only).
    pub divergences: u64,
}

impl DesignRun {
    /// Simulated OoO cycles summed over the run.
    pub fn sim_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.cycles).sum()
    }

    /// Cases that failed.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failed).count()
    }

    /// Cases the oracle checked.
    pub fn checked(&self) -> usize {
        self.records.iter().filter(|r| r.checked).count()
    }
}

/// Engine options for `mode` at `threads` workers.
pub fn engine_options(mode: Mode, threads: usize) -> EngineOptions {
    let campaign = EngineOptions {
        threads,
        keep_reports: true,
        counters: true,
        streaming: true,
        snapshot_cache: true,
        coverage: true,
        ..EngineOptions::default()
    };
    match mode {
        Mode::Campaign => campaign,
        Mode::CampaignNoCache => EngineOptions {
            snapshot_cache: false,
            ..campaign
        },
        Mode::Matrix | Mode::Diff => EngineOptions {
            threads,
            ..EngineOptions::default()
        },
    }
}

/// Executes `corpus` on `cfg` in `mode` (`threads` workers for the engine
/// modes; `diff` is serial).
pub fn run(mode: Mode, cfg: &CoreConfig, corpus: &[TestCase], threads: usize) -> DesignRun {
    if mode == Mode::Diff {
        let t0 = Instant::now();
        let summary = diff_corpus(corpus, cfg, &DiffOptions::default());
        let wall_s = t0.elapsed().as_secs_f64();
        return DesignRun {
            records: summary
                .cases
                .iter()
                .map(|c| CaseRecord::from_verdict(&c.case, &c.verdict))
                .collect(),
            wall_s,
            divergences: summary.divergences,
        };
    }
    let engine = Engine::new(cfg.clone(), engine_options(mode, threads));
    let t0 = Instant::now();
    let (result, reports) = engine.run_corpus(corpus, PhaseTiming::default());
    let wall_s = t0.elapsed().as_secs_f64();
    drop(reports);
    DesignRun {
        records: result.cases.iter().map(CaseRecord::from_result).collect(),
        wall_s,
        divergences: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_seeds_are_distinct_and_start_at_the_seed() {
        let seeds: HashSet<u64> = (0..VARIANTS).map(|v| variant_seed(5, v)).collect();
        assert_eq!(seeds.len(), VARIANTS);
        assert_eq!(variant_seed(5, 0), 5);
        // Neighbouring run seeds share no variant.
        assert!((0..VARIANTS).all(|v| !seeds.contains(&variant_seed(6, v))));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn irq_sweep_is_seeded_interleaved_families() {
        let cfg = CoreConfig::boom();
        let a = irq_sweep(7, &cfg);
        let b = irq_sweep(7, &cfg);
        let c = irq_sweep(8, &cfg);
        assert_eq!(a.len(), IRQ_FAMILIES * IRQ_SIBLINGS);
        let names = |v: &[TestCase]| v.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b), "same seed, same corpus");
        assert_ne!(names(&a), names(&c), "another seed, another corpus");
        // Interleaved: the first IRQ_FAMILIES cases are one per family.
        for (f, tc) in a.iter().take(IRQ_FAMILIES).enumerate() {
            assert!(tc.name.ends_with(&format!("_f{f}_irq0")), "{}", tc.name);
            assert!(tc.irq_at.is_some());
        }
        // Each family sweeps ascending interrupt cycles.
        for f in 0..IRQ_FAMILIES {
            let ats: Vec<u64> = (0..IRQ_SIBLINGS)
                .map(|k| a[k * IRQ_FAMILIES + f].irq_at.expect("irq case"))
                .collect();
            assert!(ats.windows(2).all(|w| w[0] < w[1]), "family {f}: {ats:?}");
        }
    }

    #[test]
    fn verdicts_map_to_records() {
        let skipped = DiffVerdict::Skipped {
            reason: "asynchronous external interrupt".into(),
        };
        let r = CaseRecord::from_verdict("a", &skipped);
        assert!(!r.checked && !r.failed);
        let build = DiffVerdict::Skipped {
            reason: "build failed: overflow".into(),
        };
        assert!(CaseRecord::from_verdict("b", &build).failed);
        let ok = DiffVerdict::Match {
            retires: 10,
            cycles: 99,
        };
        let r = CaseRecord::from_verdict("c", &ok);
        assert!(r.checked && !r.failed && r.cycles == 99);
    }
}
