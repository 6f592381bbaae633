//! Pipeline edge cases: squash correctness, fence ordering, TLB staleness
//! semantics, transient non-retirement, cache behaviour under pressure, and
//! the fast path's quiescent-cycle fast-forward on the stalls it jumps.

use teesec_isa::asm::Assembler;
use teesec_isa::csr;
use teesec_isa::inst::Inst;
use teesec_isa::reg::Reg;
use teesec_isa::vm::{PhysAddr, Pte};
use teesec_uarch::core::Core;
use teesec_uarch::mem::Memory;
use teesec_uarch::trace::{Structure, TraceEvent, TraceEventKind};
use teesec_uarch::trap::{Exception, Interrupt};
use teesec_uarch::{CoreConfig, RunExit};

const BASE: u64 = 0x8000_0000;

fn build(cfg: CoreConfig, f: impl FnOnce(&mut Assembler)) -> Core {
    let mut asm = Assembler::new(BASE);
    f(&mut asm);
    let mut mem = Memory::new();
    mem.load_words(BASE, &asm.assemble().expect("assemble"));
    Core::new(cfg, mem, BASE)
}

#[test]
fn data_dependent_branches_squash_cleanly() {
    // Collatz-style loop: heavy data-dependent branching exercises squash
    // paths; result must be exact.
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let mut core = build(cfg, |a| {
            a.li(Reg::A0, 27); // n
            a.li(Reg::A1, 0); // steps
            a.li(Reg::T2, 1);
            a.label("loop");
            a.beq(Reg::A0, Reg::T2, "done");
            a.andi(Reg::T0, Reg::A0, 1);
            a.bnez(Reg::T0, "odd");
            a.srli(Reg::A0, Reg::A0, 1);
            a.j("next");
            a.label("odd");
            a.slli(Reg::T1, Reg::A0, 1);
            a.add(Reg::A0, Reg::A0, Reg::T1);
            a.addi(Reg::A0, Reg::A0, 1);
            a.label("next");
            a.addi(Reg::A1, Reg::A1, 1);
            a.j("loop");
            a.label("done");
            a.inst(Inst::Ebreak);
        });
        assert_eq!(core.run(1_000_000), RunExit::Halted);
        assert_eq!(core.reg(Reg::A1), 111, "27 reaches 1 in 111 Collatz steps");
    }
}

#[test]
fn wrong_path_loads_fill_caches_but_never_retire() {
    // A load guarded by a never-taken branch: the predictor may fetch it
    // speculatively; its architectural effect must be nil, while its cache
    // footprint is allowed (that asymmetry is the whole paper).
    let mut core = build(CoreConfig::boom(), |a| {
        a.li(Reg::T0, 0x8010_0000);
        a.li(Reg::S2, 0);
        a.li(Reg::T2, 10);
        a.label("loop");
        // The branch is always taken (skipping the load) but the BHT needs
        // training; early iterations execute the shadow path transiently.
        a.bnez(Reg::T2, "skip");
        a.ld(Reg::S2, Reg::T0, 0); // architecturally never executes
        a.label("skip");
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, "loop");
        a.inst(Inst::Ebreak);
    });
    core.mem.write_u64(0x8010_0000, 0xFEED);
    assert_eq!(core.run(1_000_000), RunExit::Halted);
    assert_eq!(core.reg(Reg::S2), 0, "wrong-path load must not retire");
}

#[test]
fn fence_drains_stores_before_commit_completes() {
    // With a fence, memory is up to date the moment the program halts,
    // before any post-halt drain.
    let mut core = build(CoreConfig::xiangshan(), |a| {
        a.li(Reg::T0, 0x8010_0000);
        a.li(Reg::T1, 0xAB);
        a.sd(Reg::T1, Reg::T0, 0);
        a.fence();
        a.inst(Inst::Ebreak);
    });
    while !core.halted && core.cycle < 100_000 {
        core.step();
    }
    assert!(core.halted);
    // No drain() call: the fence already pushed the store out.
    assert_eq!(core.mem.read_u64(0x8010_0000), 0xAB);
    assert!(core.lsu.stores_drained());
}

#[test]
fn without_fence_stores_may_lag_behind_halt() {
    let mut core = build(CoreConfig::xiangshan(), |a| {
        a.li(Reg::T0, 0x8010_0000);
        a.li(Reg::T1, 0xAB);
        a.sd(Reg::T1, Reg::T0, 0);
        a.inst(Inst::Ebreak);
    });
    while !core.halted && core.cycle < 100_000 {
        core.step();
    }
    assert!(core.halted);
    // The store sits in the buffer (this lag is what D8/D3 exploit)...
    assert!(
        !core.lsu.stores_drained(),
        "store should still be buffered at halt"
    );
    // ...and the drain completes it.
    core.drain();
    assert_eq!(core.mem.read_u64(0x8010_0000), 0xAB);
}

#[test]
fn stale_tlb_translations_persist_until_sfence() {
    // Hardware behaviour the attacker of D2 depends on: changing a PTE
    // without sfence.vma leaves the old translation live in the TLB.
    let pt_root = 0x8100_0000u64;
    let l1 = 0x8100_1000u64;
    let l0 = 0x8100_2000u64;
    let va = 0x0000_0000_4000_0000u64;
    let pa1 = 0x8020_0000u64;
    let pa2 = 0x8020_1000u64;

    let mut core = build(CoreConfig::boom(), |a| {
        // M-mode sets up satp for S-mode, then drops privilege.
        a.li(Reg::T0, teesec_isa::csr::Satp::sv39(pt_root).0);
        a.csrw(csr::SATP, Reg::T0);
        a.la(Reg::T1, "smode");
        a.csrw(csr::MEPC, Reg::T1);
        a.li(Reg::T2, 0x800);
        a.csrw(csr::MSTATUS, Reg::T2);
        a.la(Reg::T3, "handler");
        a.csrw(csr::MTVEC, Reg::T3);
        a.mret();
        a.label("smode");
        a.li(Reg::S10, va);
        a.ld(Reg::S2, Reg::S10, 0); // walk -> TLB caches va -> pa1
                                    // Rewrite the leaf PTE to pa2 (the page table itself is mapped).
        a.li(Reg::T0, l0); // identity: S-mode touches PT via physical alias
        a.li(Reg::T1, Pte::leaf(PhysAddr(pa2), Pte::R | Pte::W).0);
        a.sd(Reg::T1, Reg::T0, 0);
        a.fence();
        a.ld(Reg::S3, Reg::S10, 0); // stale TLB: still pa1
        a.sfence_vma();
        a.ld(Reg::S4, Reg::S10, 0); // fresh walk: pa2
        a.label("handler");
        a.inst(Inst::Ebreak);
    });
    // Build the page tables by hand: the probed VA plus identity maps for
    // the S-mode code pages and the L0 table page it rewrites.
    let l1b = 0x8100_3000u64;
    let l0b = 0x8100_4000u64;
    let l0c = 0x8100_5000u64;
    let vaddr = teesec_isa::vm::VirtAddr(va);
    core.mem
        .write_u64(pt_root + vaddr.vpn(2) * 8, Pte::table(PhysAddr(l1)).0);
    core.mem
        .write_u64(l1 + vaddr.vpn(1) * 8, Pte::table(PhysAddr(l0)).0);
    core.mem.write_u64(
        l0 + vaddr.vpn(0) * 8,
        Pte::leaf(PhysAddr(pa1), Pte::R | Pte::W).0,
    );
    // Identity maps under vpn2 = 2 (the 0x8000_0000 gigapage).
    let code = teesec_isa::vm::VirtAddr(BASE);
    core.mem
        .write_u64(pt_root + code.vpn(2) * 8, Pte::table(PhysAddr(l1b)).0);
    core.mem
        .write_u64(l1b + code.vpn(1) * 8, Pte::table(PhysAddr(l0b)).0);
    for k in 0..4u64 {
        let page = BASE + k * 0x1000;
        core.mem.write_u64(
            l0b + teesec_isa::vm::VirtAddr(page).vpn(0) * 8,
            Pte::leaf(PhysAddr(page), Pte::R | Pte::X).0,
        );
    }
    let l0va = teesec_isa::vm::VirtAddr(l0);
    core.mem
        .write_u64(l1b + l0va.vpn(1) * 8, Pte::table(PhysAddr(l0c)).0);
    core.mem.write_u64(
        l0c + l0va.vpn(0) * 8,
        Pte::leaf(PhysAddr(l0), Pte::R | Pte::W).0,
    );
    core.mem.write_u64(pa1, 0x1111);
    core.mem.write_u64(pa2, 0x2222);
    assert_eq!(core.run(1_000_000), RunExit::Halted);
    assert_eq!(core.reg(Reg::S2), 0x1111, "initial translation");
    assert_eq!(
        core.reg(Reg::S3),
        0x1111,
        "stale TLB survives the PTE rewrite"
    );
    assert_eq!(
        core.reg(Reg::S4),
        0x2222,
        "sfence.vma picks up the new mapping"
    );
}

#[test]
fn cache_pressure_evicts_lru_lines() {
    // Touch ways+1 lines of one L1D set; the first line must be evicted
    // and re-miss (visible via the L1D-miss counter).
    let cfg = CoreConfig::boom(); // 64 sets x 4 ways
    let stride = cfg.l1d_sets as u64 * cfg.line_size;
    let mut core = build(cfg, |a| {
        a.li(Reg::S10, 0x8020_0000);
        for k in 0..5u64 {
            a.li(Reg::T0, 0x8020_0000 + k * stride);
            a.ld(Reg::T1, Reg::T0, 0);
        }
        // Re-touch the first line: must miss again (LRU evicted it).
        a.csrr(Reg::S2, csr::mhpmcounter_csr(1)); // L1D-miss counter
        a.ld(Reg::T1, Reg::S10, 0);
        a.csrr(Reg::S3, csr::mhpmcounter_csr(1));
        a.inst(Inst::Ebreak);
    });
    assert_eq!(core.run(1_000_000), RunExit::Halted);
    assert!(
        core.reg(Reg::S3) > core.reg(Reg::S2),
        "re-access of the evicted line must miss (misses {} -> {})",
        core.reg(Reg::S2),
        core.reg(Reg::S3)
    );
}

#[test]
fn trained_prefetcher_hides_sequential_miss_latency() {
    // Sequential scan on BOOM: the next-line prefetcher turns most misses
    // into hits; the same scan on XiangShan (no prefetcher) misses every
    // line.
    let run = |cfg: CoreConfig| {
        let mut core = build(cfg, |a| {
            a.li(Reg::S10, 0x8020_0000);
            for k in 0..8i32 {
                a.ld(Reg::T1, Reg::S10, k * 64);
                // Spacing beyond the memory round trip so the prefetch has
                // landed before the next demand access.
                for _ in 0..120 {
                    a.nop();
                }
            }
            a.csrr(Reg::S2, csr::mhpmcounter_csr(1));
            a.inst(Inst::Ebreak);
        });
        assert_eq!(core.run(1_000_000), RunExit::Halted);
        core.reg(Reg::S2)
    };
    let boom_misses = run(CoreConfig::boom());
    let xs_misses = run(CoreConfig::xiangshan());
    assert!(
        boom_misses < xs_misses,
        "prefetcher must reduce demand misses (boom {boom_misses} vs xs {xs_misses})"
    );
}

#[test]
fn transient_writeback_trace_has_pc_attribution() {
    // Every register-file trace event carries the PC of the writing
    // instruction — the checker's CheckerLog relies on it.
    let mut core = build(CoreConfig::boom(), |a| {
        a.li(Reg::A0, 7);
        a.addi(Reg::A1, Reg::A0, 1);
        a.inst(Inst::Ebreak);
    });
    assert_eq!(core.run(100_000), RunExit::Halted);
    for e in core.trace.for_structure(Structure::RegFile) {
        if let TraceEventKind::Write { .. } = e.kind {
            let pc = e.pc.expect("RF writes carry a PC");
            assert!(
                (BASE..BASE + 0x100).contains(&pc),
                "pc {pc:#x} inside the program"
            );
        }
    }
}

#[test]
fn cycle_limit_reported_for_runaway_programs() {
    let mut core = build(CoreConfig::boom(), |a| {
        a.label("spin");
        a.j("spin");
    });
    assert_eq!(core.run(5_000), RunExit::CycleLimit);
    assert!(!core.halted);
}

#[test]
fn division_in_pipeline_matches_alu_semantics() {
    let mut core = build(CoreConfig::xiangshan(), |a| {
        a.li(Reg::A0, (-100i64) as u64);
        a.li(Reg::A1, 7);
        a.inst(Inst::AluReg {
            op: teesec_isa::inst::AluOp::Div,
            rd: Reg::S2,
            rs1: Reg::A0,
            rs2: Reg::A1,
            word: false,
        });
        a.inst(Inst::AluReg {
            op: teesec_isa::inst::AluOp::Rem,
            rd: Reg::S3,
            rs1: Reg::A0,
            rs2: Reg::A1,
            word: false,
        });
        a.inst(Inst::AluReg {
            op: teesec_isa::inst::AluOp::Divu,
            rd: Reg::S4,
            rs1: Reg::A0,
            rs2: Reg::ZERO,
            word: false,
        });
        a.inst(Inst::Ebreak);
    });
    assert_eq!(core.run(100_000), RunExit::Halted);
    assert_eq!(core.reg(Reg::S2) as i64, -14);
    assert_eq!(core.reg(Reg::S3) as i64, -2);
    assert_eq!(core.reg(Reg::S4), u64::MAX, "divide by zero");
}

#[test]
fn store_queue_forwards_to_younger_loads() {
    // A load immediately after a store to the same address must receive the
    // value from the store queue (and the forward counter must tick) even
    // though the store has not drained.
    let mut core = build(CoreConfig::xiangshan(), |a| {
        a.li(Reg::T0, 0x8010_0000);
        a.li(Reg::T1, 0x5A5A);
        a.sd(Reg::T1, Reg::T0, 0);
        a.ld(Reg::S2, Reg::T0, 0);
        a.csrr(Reg::S3, csr::mhpmcounter_csr(5)); // store-to-load forwards
        a.inst(Inst::Ebreak);
    });
    assert_eq!(core.run(100_000), RunExit::Halted);
    assert_eq!(core.reg(Reg::S2), 0x5A5A);
    assert!(core.reg(Reg::S3) >= 1, "SQ forward must be counted");
}

#[test]
fn partial_overlap_stalls_instead_of_forwarding() {
    // A byte store followed by a doubleword load of the same line must see
    // the merged memory value, not a bogus forward.
    let mut core = build(CoreConfig::xiangshan(), |a| {
        a.li(Reg::T0, 0x8010_0000);
        a.li(Reg::T1, 0x1111_2222_3333_4444u64);
        a.sd(Reg::T1, Reg::T0, 0);
        a.fence();
        a.li(Reg::T2, 0xAB);
        a.sb(Reg::T2, Reg::T0, 0);
        a.ld(Reg::S2, Reg::T0, 0); // partial overlap: must wait for drain
        a.inst(Inst::Ebreak);
    });
    assert_eq!(core.run(200_000), RunExit::Halted);
    assert_eq!(core.reg(Reg::S2), 0x1111_2222_3333_44AB);
}

// ---------------------------------------------------------------------
// Quiescent-cycle fast-forward: each stall kind the fast path jumps over
// must give the reference path's exact run, and the jump must fire.
// ---------------------------------------------------------------------

/// An uncached line, so a load or store to it misses to memory.
const COLD: u64 = 0x8010_0000;

/// The program built twice: `[reference, fast path]`, with an optional
/// external interrupt scheduled on both.
fn arms(cfg: &CoreConfig, irq_at: Option<u64>, program: &dyn Fn(&mut Assembler)) -> [Core; 2] {
    [false, true].map(|fast| {
        let mut core = build(cfg.clone(), program);
        core.set_fast_path(fast);
        if let Some(at) = irq_at {
            core.schedule_external_interrupt(at);
        }
        core
    })
}

/// Asserts the two arms ended in the same state: cycle, architectural
/// registers, counter digest, trace statistics and every trace event.
fn assert_same_run(reference: &Core, fast: &Core, what: &str) {
    assert_eq!(fast.cycle, reference.cycle, "{what}: cycle");
    assert_eq!(fast.halted, reference.halted, "{what}: halted");
    for r in Reg::all() {
        assert_eq!(fast.reg(r), reference.reg(r), "{what}: {r:?}");
    }
    assert_eq!(fast.counters(), reference.counters(), "{what}: counters");
    assert_eq!(
        fast.trace.stats(),
        reference.trace.stats(),
        "{what}: trace stats"
    );
    let events = |c: &Core| c.trace.iter_events().cloned().collect::<Vec<TraceEvent>>();
    assert_eq!(events(fast), events(reference), "{what}: trace events");
}

/// Runs both arms to halt (within 100 000 cycles), asserts identical runs
/// and that only the fast arm jumped, and returns the fast arm.
fn run_both(cfg: &CoreConfig, irq_at: Option<u64>, program: &dyn Fn(&mut Assembler)) -> Core {
    let [mut reference, mut fast] = arms(cfg, irq_at, program);
    assert_eq!(reference.run(100_000), RunExit::Halted, "reference halts");
    assert_eq!(fast.run(100_000), RunExit::Halted, "fast path halts");
    assert_same_run(&reference, &fast, &cfg.name);
    assert_eq!(
        reference.fast_path_stats().skipped_cycles,
        0,
        "reference never skips"
    );
    assert!(
        fast.fast_path_stats().skipped_cycles > 0,
        "{}: the stall must be fast-forwarded",
        cfg.name
    );
    fast
}

/// A load miss whose consumer stalls until the fill lands.
fn load_miss_then(a: &mut Assembler) {
    a.li(Reg::T0, COLD);
    a.ld(Reg::T1, Reg::T0, 0);
    a.add(Reg::T2, Reg::T1, Reg::T1);
}

fn load_miss(a: &mut Assembler) {
    load_miss_then(a);
    a.inst(Inst::Ebreak);
}

#[test]
fn fast_forward_over_a_load_miss_is_exact() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let core = run_both(&cfg, None, &load_miss);
        assert_eq!(core.reg(Reg::T2), 0);
    }
}

#[test]
fn fast_forward_to_a_faulting_loads_response_is_exact() {
    // XiangShan answers a PMP-faulting L1D miss with a fake hit a few
    // cycles out and no fill request: the pending response is the only
    // timed event, so the jump must stop right before it.
    const SECRET: u64 = 0x8040_0000;
    let core = run_both(&CoreConfig::xiangshan(), None, &|a| {
        a.la(Reg::T0, "handler");
        a.csrw(csr::MTVEC, Reg::T0);
        // PMP entry 0 denies the secret page; entry 1 allows the rest.
        a.li(Reg::T1, (SECRET >> 2) | ((0x1000 >> 3) - 1));
        a.csrw(csr::PMPADDR0, Reg::T1);
        a.li(Reg::T2, 0x18);
        a.csrw(csr::PMPCFG0, Reg::T2);
        a.li(Reg::T1, u64::MAX >> 10);
        a.csrw(csr::PMPADDR0 + 1, Reg::T1);
        a.li(Reg::T2, 0x1F << 8);
        a.csrrs(Reg::ZERO, csr::PMPCFG0, Reg::T2);
        a.la(Reg::T3, "smode");
        a.csrw(csr::MEPC, Reg::T3);
        a.li(Reg::T4, 0x800);
        a.csrw(csr::MSTATUS, Reg::T4);
        a.mret();
        a.label("smode");
        a.li(Reg::A4, SECRET);
        a.ld(Reg::A5, Reg::A4, 0);
        a.label("handler");
        a.inst(Inst::Ebreak);
    });
    assert_eq!(core.csr.mcause, Exception::LoadAccessFault(0).cause());
}

#[test]
fn fast_forward_over_a_fence_draining_a_store_burst_is_exact() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let core = run_both(&cfg, None, &|a| {
            a.li(Reg::T0, COLD);
            a.li(Reg::T1, 0xC0FFEE);
            for k in 0..4 {
                a.sd(Reg::T1, Reg::T0, k * 64);
            }
            a.fence();
            a.ld(Reg::T2, Reg::T0, 192);
            a.inst(Inst::Ebreak);
        });
        assert!(core.lsu.stores_drained());
        assert_eq!(core.reg(Reg::T2), 0xC0FFEE);
    }
}

#[test]
fn fast_forward_of_wfi_stops_at_the_scheduled_interrupt() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let core = run_both(&cfg, Some(300), &|a| {
            a.li(Reg::T1, 1 << 11); // MEIE; global MIE stays off
            a.csrw(csr::MIE, Reg::T1);
            a.wfi();
            a.li(Reg::A0, 0x77);
            a.inst(Inst::Ebreak);
        });
        assert_eq!(core.reg(Reg::A0), 0x77);
        assert!(core.cycle > 300, "wfi waited for the interrupt");
    }
}

#[test]
fn fast_forward_runs_through_a_pending_but_masked_interrupt() {
    // The interrupt asserts almost at once but stays masked (global MIE
    // off) across a load miss; enabling it afterwards takes it.
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let core = run_both(&cfg, Some(5), &|a| {
            a.la(Reg::T0, "handler");
            a.csrw(csr::MTVEC, Reg::T0);
            a.li(Reg::T1, 1 << 11);
            a.csrw(csr::MIE, Reg::T1);
            load_miss_then(a);
            a.li(Reg::T3, 0x8); // mstatus.MIE
            a.csrrs(Reg::ZERO, csr::MSTATUS, Reg::T3);
            a.li(Reg::A0, 1); // never retires: the interrupt comes first
            a.label("handler");
            a.inst(Inst::Ebreak);
        });
        assert_eq!(core.csr.mcause, Interrupt::MachineExternal.cause());
        assert_eq!(core.reg(Reg::A0), 0);
    }
}

#[test]
fn fast_forward_never_passes_the_run_limit() {
    // Every limit up to the halt, so many fall inside the miss stall: a
    // cycle-limited run must stop at exactly `limit` on both arms.
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let [mut probe, _] = arms(&cfg, None, &load_miss);
        assert_eq!(probe.run(100_000), RunExit::Halted);
        let mut jumped_to_limit = 0;
        for limit in 1..=probe.cycle + 2 {
            let [mut reference, mut fast] = arms(&cfg, None, &load_miss);
            let exit = reference.run(limit);
            assert_eq!(fast.run(limit), exit, "{} limit {limit}", cfg.name);
            assert_same_run(&reference, &fast, &format!("{} limit {limit}", cfg.name));
            if exit == RunExit::CycleLimit {
                assert_eq!(fast.cycle, limit);
                if fast.fast_path_stats().skipped_cycles > 0 {
                    jumped_to_limit += 1;
                }
            }
        }
        assert!(
            jumped_to_limit > 0,
            "{}: no limit fell in a skipped stall",
            cfg.name
        );
    }
}

#[test]
fn fast_forward_keeps_run_batched_sample_points() {
    // Batch edges inside stalls: the observer must fire at the same
    // cycles, on the same state, on both arms.
    let program = |a: &mut Assembler| {
        a.li(Reg::T0, COLD);
        for k in 0..3 {
            a.ld(Reg::T1, Reg::T0, k * 256);
            a.add(Reg::T2, Reg::T2, Reg::T1);
            a.sd(Reg::T2, Reg::T0, k * 256 + 1024);
        }
        a.fence();
        a.inst(Inst::Ebreak);
    };
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        for batch in [1, 3, 7, 16, 50] {
            let [mut reference, mut fast] = arms(&cfg, None, &program);
            let (mut ref_samples, mut fast_samples) = (Vec::new(), Vec::new());
            let exit = reference.run_batched(100_000, batch, &mut |c| {
                ref_samples.push((c.cycle, c.retired()))
            });
            let fast_exit = fast.run_batched(100_000, batch, &mut |c| {
                fast_samples.push((c.cycle, c.retired()))
            });
            assert_eq!(fast_exit, exit);
            assert_eq!(exit, RunExit::Halted);
            assert_eq!(fast_samples, ref_samples, "{} batch {batch}", cfg.name);
            assert_same_run(&reference, &fast, &format!("{} batch {batch}", cfg.name));
            // A one-cycle batch leaves nothing to jump.
            let skipped = fast.fast_path_stats().skipped_cycles;
            assert_eq!(skipped > 0, batch > 1, "{} batch {batch}", cfg.name);
        }
    }
}
