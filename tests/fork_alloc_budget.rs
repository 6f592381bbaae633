//! Heap-allocation budgets of the per-case hot paths, counted by a
//! thread-local counting global allocator (this file is its own test
//! binary, so the allocator sees nothing but these tests).
//!
//! - Forking a platform checkpoint — the boot snapshot every case starts
//!   from, or a mid-run checkpoint after `Core::share_storage` — copies
//!   no cache line: L1I/L1D/L2 chunks are shared copy-on-write, so the
//!   clone costs a bounded number of heap blocks however large the
//!   caches are (it was one block per cache line before: 2 598 on BOOM,
//!   6 191 on XiangShan).
//! - `Inst::sources`, which the execute stage calls for every waiting ROB
//!   entry every cycle, allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use teesec_isa::inst::{AluOp, BranchCond, Inst, MemWidth};
use teesec_isa::reg::Reg;
use teesec_tee::platform::{HostVm, Platform, PlatformSnapshot};
use teesec_tee::sm::SmOptions;
use teesec_uarch::{CoreConfig, RunExit};

/// Counts every allocation (including reallocations) made on the calling
/// thread, then defers to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap blocks it allocated.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// The most heap blocks one checkpoint fork may allocate.
const FORK_BUDGET: u64 = 64;

fn designs() -> [CoreConfig; 2] {
    [CoreConfig::boom(), CoreConfig::xiangshan()]
}

fn boot_snapshot(cfg: &CoreConfig) -> PlatformSnapshot {
    let sm = SmOptions {
        hpm_counters: cfg.hpm_counters,
        ..SmOptions::default()
    };
    PlatformSnapshot::capture(cfg.clone(), &sm, HostVm::Bare).expect("boot snapshot")
}

#[test]
fn boot_snapshot_forks_stay_within_the_allocation_budget() {
    for cfg in designs() {
        let snap = boot_snapshot(&cfg);
        let lines = snap.core().l1i.valid_lines().count()
            + snap.core().lsu.l1d.valid_lines().count()
            + snap.core().lsu.l2.valid_lines().count();
        assert!(lines > 0, "{}: the boot prefix fills caches", cfg.name);
        let (fork, n) = allocations(|| snap.clone());
        assert!(
            n <= FORK_BUDGET,
            "{}: forking the boot snapshot allocated {n} heap blocks (budget {FORK_BUDGET})",
            cfg.name
        );
        drop(fork);
    }
}

#[test]
fn mid_run_checkpoint_forks_stay_within_the_allocation_budget() {
    for cfg in designs() {
        let snap = boot_snapshot(&cfg);
        let mut platform = Platform::builder(cfg.clone())
            .host_code(|a, lay| {
                // Load 512 consecutive lines: every L2 set (and so every
                // L1D and L2 chunk) is written before the checkpoint, so
                // an unshared fork would copy far more than the budget.
                a.li(Reg::T0, lay.shared_base);
                a.li(Reg::T2, 512);
                a.label("next");
                a.ld(Reg::T1, Reg::T0, 0);
                a.addi(Reg::T0, Reg::T0, 64);
                a.addi(Reg::T2, Reg::T2, -1);
                a.bnez(Reg::T2, "next");
            })
            .build_from(&snap)
            .expect("fork");
        assert_eq!(platform.run(2_000_000), RunExit::Halted);
        assert!(platform.core.lsu.l2.valid_lines().count() >= 512);
        // Checkpoint as the runner does: share the cache lines and freeze
        // the trace prefix (whose events would otherwise be deep-copied).
        platform.core.share_storage();
        platform.core.trace.freeze();
        let (fork, n) = allocations(|| platform.clone());
        assert!(
            n <= FORK_BUDGET,
            "{}: forking a shared mid-run checkpoint allocated {n} heap blocks \
             (budget {FORK_BUDGET})",
            cfg.name
        );
        drop(fork);
    }
}

#[test]
fn inst_sources_never_allocate() {
    let insts = [
        Inst::Load {
            width: MemWidth::D,
            signed: true,
            rd: Reg::A5,
            rs1: Reg::A4,
            offset: 0,
        },
        Inst::Store {
            width: MemWidth::W,
            rs2: Reg::A5,
            rs1: Reg::A4,
            offset: 8,
        },
        Inst::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            offset: -8,
        },
        Inst::AluReg {
            op: AluOp::Add,
            rd: Reg::S2,
            rs1: Reg::A0,
            rs2: Reg::A1,
            word: false,
        },
        Inst::Lui {
            rd: Reg::A0,
            imm20: 1,
        },
    ];
    let (total, n) = allocations(|| {
        let mut total = 0usize;
        for _ in 0..1000 {
            for inst in black_box(insts) {
                let s = inst.sources();
                total += s.len();
                total += s.into_iter().map(|r| r.index() as usize).sum::<usize>();
            }
        }
        total
    });
    assert!(total > 0);
    assert_eq!(n, 0, "Inst::sources allocated {n} heap blocks");
}
