//! Property-based tests of the microarchitectural storage structures:
//! caches, fill buffers, TLBs and branch predictors maintain their
//! invariants under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::HashMap;

use teesec_uarch::btb::Ubtb;
use teesec_uarch::cache::{Cache, Lfb};
use teesec_uarch::mem::Memory;
use teesec_uarch::tlb::Tlb;
use teesec_uarch::trace::{Domain, FillPurpose};

proptest! {
    /// A cache behaves like a (partial) map: after a fill, reads return the
    /// filled bytes until the line is displaced; a displaced line reports a
    /// miss. A model HashMap tracks expected contents.
    #[test]
    fn cache_read_after_fill_is_consistent(
        ops in prop::collection::vec((0u64..64, any::<u8>()), 1..80)
    ) {
        let mut cache = Cache::new(4, 2, 64);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (line_idx, byte) in ops {
            let line_addr = line_idx * 64;
            cache.fill(line_addr, &[byte; 64], Domain::Untrusted);
            model.insert(line_addr, byte);
            // Whatever is still resident must match the model.
            for (&la, &b) in &model {
                if cache.contains(la) {
                    prop_assert_eq!(cache.read(la, 1), Some(b as u64));
                }
            }
            // Structural invariant: at most sets×ways lines resident.
            prop_assert!(cache.valid_lines().count() <= 8);
        }
    }

    /// Cache writes modify exactly the targeted bytes of a resident line.
    #[test]
    fn cache_write_is_byte_precise(
        off in 0u64..56,
        value in any::<u64>(),
        len in prop::sample::select(vec![1u64, 2, 4, 8]),
    ) {
        let mut cache = Cache::new(2, 2, 64);
        cache.fill(0x1000, &[0xAA; 64], Domain::Untrusted);
        let off = off / len * len; // align to the width
        prop_assert!(cache.write(0x1000 + off, value, len));
        let mask = if len == 8 { u64::MAX } else { (1 << (len * 8)) - 1 };
        prop_assert_eq!(cache.read(0x1000 + off, len), Some(value & mask));
        // A disjoint byte elsewhere in the line is untouched.
        let other = if off >= 8 { 0 } else { 56 };
        prop_assert_eq!(cache.read(0x1000 + other, 1), Some(0xAA));
    }

    /// The LFB never loses a pending request except through `flush_all`,
    /// and residual (filled) entries persist until reallocated.
    #[test]
    fn lfb_pending_requests_are_stable(
        lines in prop::collection::vec(1u64..1000, 1..30)
    ) {
        let mut lfb = Lfb::new(4, 64);
        let mut pending: Vec<(usize, u64)> = Vec::new();
        for line in lines {
            let line_addr = line * 64;
            if pending.iter().any(|&(_, la)| la == line_addr) {
                // Request merging: hardware never double-allocates a line.
                prop_assert!(lfb.pending_for(line_addr).is_some());
                continue;
            }
            if let Some(idx) = lfb.allocate(line_addr, FillPurpose::Demand) {
                pending.push((idx, line_addr));
                // Every pending request is still discoverable.
                for &(_, la) in &pending {
                    prop_assert!(lfb.pending_for(la).is_some(), "lost pending {:#x}", la);
                }
            } else {
                // Saturated: complete the oldest to make room.
                let (idx, la) = pending.remove(0);
                lfb.complete(idx, &[0x5A; 64], Domain::Enclave(0), 1);
                prop_assert!(lfb.pending_for(la).is_none());
                // Residual data persists after completion.
                prop_assert!(lfb.entry(idx).valid);
                prop_assert_eq!(lfb.entry(idx).data[0], 0x5A);
            }
        }
    }

    /// TLB: the most recently inserted translation for a page always wins,
    /// and capacity is respected.
    #[test]
    fn tlb_latest_translation_wins(
        inserts in prop::collection::vec((0u64..32, 1u64..500), 1..64)
    ) {
        use teesec_isa::vm::{PhysAddr, Pte, VirtAddr};
        let mut tlb = Tlb::new(8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (page, ppn) in inserts {
            let va = VirtAddr(page << 12);
            let pte = Pte::leaf(PhysAddr(ppn << 12), Pte::R | Pte::W);
            tlb.insert(va, pte, Domain::Untrusted);
            model.insert(page, ppn);
            prop_assert!(tlb.valid_count() <= 8);
            if let Some(hit) = tlb.lookup(va) {
                prop_assert_eq!(hit.ppn(), model[&page]);
            } else {
                prop_assert!(false, "entry just inserted must hit");
            }
        }
    }

    /// uBTB collisions are exactly PC pairs equal in the indexed+tagged
    /// low bits and different somewhere above.
    #[test]
    fn ubtb_collision_predicate(pc in any::<u64>(), flip_bit in 2u32..63) {
        let entries = 64usize; // 6 index bits
        let tag_bits = 10u32;
        let ubtb = Ubtb::new(entries, tag_bits);
        let pc = pc & !3; // instruction aligned
        let other = pc ^ (1 << flip_bit);
        let used_bits = 2 + entries.trailing_zeros() + tag_bits; // bits [2, 18)
        let expected = flip_bit >= used_bits;
        prop_assert_eq!(
            ubtb.collides(pc, other),
            expected,
            "pc {:#x} flip bit {} (used bits < {})",
            pc,
            flip_bit,
            used_bits
        );
    }

    /// Memory reads always reflect the latest write, across widths and
    /// page boundaries.
    #[test]
    fn memory_read_your_writes(
        writes in prop::collection::vec((0u64..0x3000, any::<u64>(), prop::sample::select(vec![1u64, 2, 4, 8])), 1..50)
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (addr, value, len) in writes {
            mem.write_uint(addr, value, len);
            for i in 0..len {
                model.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for (&a, &b) in &model {
            prop_assert_eq!(mem.read_u8(a), b);
        }
    }
}
