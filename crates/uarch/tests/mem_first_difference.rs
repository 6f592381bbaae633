//! `Memory::first_difference` compares page by page, skips pages two
//! copy-on-write clones still share, and scans bytes only inside the first
//! unequal page. These tests hold it to the byte-wise definition: the
//! lowest address, over the union of both memories' backed pages, at which
//! the two memories read differently.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teesec_uarch::mem::Memory;

const PAGE: u64 = 4096;
const BASE: u64 = 0x8000_0000;

/// The byte-wise reference: two lookups per byte over every page backed on
/// either side, in ascending address order.
fn first_difference_bytewise(a: &Memory, b: &Memory) -> Option<u64> {
    let mut pages: Vec<u64> = a
        .page_base_addrs()
        .into_iter()
        .chain(b.page_base_addrs())
        .collect();
    pages.sort_unstable();
    pages.dedup();
    for base in pages {
        for off in 0..PAGE {
            let addr = base + off;
            if a.read_u8(addr) != b.read_u8(addr) {
                return Some(addr);
            }
        }
    }
    None
}

fn page(n: u64) -> u64 {
    BASE + n * PAGE
}

/// Checks both argument orders against the reference and returns the
/// page-granular answer.
fn checked(a: &Memory, b: &Memory) -> Option<u64> {
    let got = a.first_difference(b);
    assert_eq!(got, first_difference_bytewise(a, b), "a vs b");
    assert_eq!(b.first_difference(a), got, "b vs a");
    got
}

/// A memory with three backed pages of distinct non-zero content.
fn image() -> Memory {
    let mut m = Memory::new();
    for n in [1, 2, 5] {
        m.write_u64(page(n) + 0x10, 0x1111_2222_3333_4444 * n);
        m.write_u8(page(n) + PAGE - 1, 0x77);
    }
    m
}

#[test]
fn cow_shared_clone_has_no_difference() {
    let a = image();
    let b = a.clone();
    assert_eq!(checked(&a, &b), None);
}

#[test]
fn page_backed_on_one_side_only() {
    let a = image();
    let mut b = a.clone();
    b.write_u8(page(7) + 9, 0);
    assert_eq!(
        checked(&a, &b),
        None,
        "an all-zero page equals an unbacked one"
    );
    b.write_u8(page(7) + 9, 0x42);
    assert_eq!(checked(&a, &b), Some(page(7) + 9));
}

#[test]
fn write_after_clone_on_either_half() {
    let a = image();
    let mut b = a.clone();
    b.write_u8(page(2) + 100, 0xEE);
    assert_eq!(checked(&a, &b), Some(page(2) + 100));

    let mut a = image();
    let b = a.clone();
    a.write_u8(page(5) + 200, 0xEE);
    assert_eq!(checked(&a, &b), Some(page(5) + 200));
}

#[test]
fn equal_bytes_on_a_split_page_are_not_a_difference() {
    let a = image();
    let mut b = a.clone();
    // Rewriting a byte with its own value splits the CoW page without
    // changing it: the pages are no longer shared but still equal.
    b.write_u8(page(1) + 0x10, a.read_u8(page(1) + 0x10));
    assert_eq!(checked(&a, &b), None);
}

#[test]
fn differences_at_the_first_and_last_offset() {
    let a = image();
    let mut b = a.clone();
    b.write_u8(page(2) + PAGE - 1, 0);
    assert_eq!(checked(&a, &b), Some(page(2) + PAGE - 1));
    b.write_u8(page(2), 1);
    assert_eq!(checked(&a, &b), Some(page(2)));
}

#[test]
fn write_spanning_two_pages() {
    let a = image();
    let mut b = a.clone();
    // The first bytes rewrite the old content; the first real change is
    // on the second page.
    let keep = a.read_u8(page(1) + PAGE - 1);
    b.write_bytes(page(1) + PAGE - 1, &[keep, 0xAB, 0xCD]);
    assert_eq!(checked(&a, &b), Some(page(2)));
    b.write_bytes(page(1) + PAGE - 2, &[0x01, 0x02, 0x03, 0x04]);
    assert_eq!(checked(&a, &b), Some(page(1) + PAGE - 2));
}

#[test]
fn lowest_address_wins_across_unequal_pages() {
    let mut a = image();
    let mut b = a.clone();
    b.write_u8(page(5), 0xFF);
    a.write_u8(page(9) + 3, 0xFF);
    b.write_u8(page(2) + PAGE - 1, 0);
    b.write_u8(page(0) + 1, 0);
    assert_eq!(checked(&a, &b), Some(page(2) + PAGE - 1));
}

/// Builds a random pair of memories: a random image, a CoW clone of it, then
/// a random mix of writes landing on either half — single bytes (often at
/// offsets 0 and 4095), zero bytes that only back a page, rewrites of the
/// current value, and multi-byte writes that straddle a page boundary.
fn random_pair(seed: u64) -> (Memory, Memory) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Memory::new();
    for _ in 0..rng.gen_range(0..6) {
        let addr = page(rng.gen_range(0..10)) + rng.gen_range(0..PAGE);
        a.write_u8(addr, rng.gen());
    }
    let mut b = a.clone();
    for _ in 0..rng.gen_range(0..8) {
        let side = if rng.gen_bool(0.5) { &mut a } else { &mut b };
        let base = page(rng.gen_range(0..10));
        let off = match rng.gen_range(0..3) {
            0 => 0,
            1 => PAGE - 1,
            _ => rng.gen_range(0..PAGE),
        };
        let addr = base + off;
        match rng.gen_range(0..5) {
            0 => side.write_u8(addr, rng.gen()),
            1 => side.write_u8(addr, 0),
            2 => {
                let v = side.read_u8(addr);
                side.write_u8(addr, v);
            }
            3 => {
                let len = rng.gen_range(2..16);
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                side.write_bytes(base + PAGE - len as u64 / 2, &data);
            }
            _ => side.write_u64(base + PAGE - 4, rng.gen()),
        }
    }
    (a, b)
}

proptest! {
    /// On random page sets the page-granular compare names the same byte
    /// as the byte-wise reference, in both argument orders.
    #[test]
    fn page_granular_compare_agrees_with_bytewise_reference(seed in any::<u64>()) {
        let (a, b) = random_pair(seed);
        let reference = first_difference_bytewise(&a, &b);
        prop_assert_eq!(a.first_difference(&b), reference);
        prop_assert_eq!(b.first_difference(&a), reference);
    }
}
