//! Copy-on-write cache storage is observably identical to private lines.
//!
//! Random `fill`/`read`/`read_line`/`write`/`invalidate`/`flush_all`
//! sequences run against [`Cache`] and against a plain reference model
//! whose lines each own a `Vec<u8>`. At random points a cache is
//! `share()`d and cloned (the reference is deep-copied), and both halves
//! carry on with independent operations. After every step every live
//! cache must match its reference: the operation's result, `contains`,
//! `peek_line`, and the full `valid_lines` listing including LRU stamps
//! and fill domains. A write that landed in a chunk still shared with a
//! sibling would show up as a mismatch on the sibling.

use proptest::prelude::*;

use teesec_uarch::cache::Cache;
use teesec_uarch::trace::Domain;

/// One line of the reference model.
#[derive(Debug, Clone)]
struct RefLine {
    valid: bool,
    line_addr: u64,
    data: Vec<u8>,
    last_use: u64,
    fill_domain: Domain,
}

/// The reference: one owned line per way, deep-copied by `clone`.
#[derive(Debug, Clone)]
struct RefCache {
    sets: usize,
    ways: usize,
    line_size: u64,
    lines: Vec<RefLine>,
    use_counter: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize, line_size: u64) -> RefCache {
        let line = RefLine {
            valid: false,
            line_addr: 0,
            data: vec![0; line_size as usize],
            last_use: 0,
            fill_domain: Domain::Untrusted,
        };
        RefCache {
            sets,
            ways,
            line_size,
            lines: vec![line; sets * ways],
            use_counter: 0,
        }
    }

    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let s = ((line_addr / self.line_size) as usize) & (self.sets - 1);
        s * self.ways..(s + 1) * self.ways
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        self.set_range(line_addr)
            .find(|&i| self.lines[i].valid && self.lines[i].line_addr == line_addr)
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    fn contains(&self, addr: u64) -> bool {
        self.find(self.line_addr(addr)).is_some()
    }

    fn read(&mut self, addr: u64, len: u64) -> Option<u64> {
        let la = self.line_addr(addr);
        let idx = self.find(la)?;
        self.use_counter += 1;
        self.lines[idx].last_use = self.use_counter;
        let off = (addr - la) as usize;
        let mut v = 0u64;
        for i in (0..len as usize).rev() {
            v = (v << 8) | self.lines[idx].data[off + i] as u64;
        }
        Some(v)
    }

    /// `line_size` single-byte reads of the line.
    fn read_line(&mut self, line_addr: u64) -> Option<Vec<u8>> {
        self.find(line_addr)?;
        Some(
            (0..self.line_size)
                .map(|i| self.read(line_addr + i, 1).unwrap() as u8)
                .collect(),
        )
    }

    fn write(&mut self, addr: u64, value: u64, len: u64) -> bool {
        let la = self.line_addr(addr);
        let Some(idx) = self.find(la) else {
            return false;
        };
        self.use_counter += 1;
        self.lines[idx].last_use = self.use_counter;
        let off = (addr - la) as usize;
        for i in 0..len as usize {
            self.lines[idx].data[off + i] = (value >> (8 * i)) as u8;
        }
        true
    }

    fn fill(&mut self, line_addr: u64, data: &[u8], domain: Domain) -> Option<u64> {
        self.use_counter += 1;
        let counter = self.use_counter;
        if let Some(idx) = self.find(line_addr) {
            let l = &mut self.lines[idx];
            l.data = data.to_vec();
            l.last_use = counter;
            l.fill_domain = domain;
            return None;
        }
        let range = self.set_range(line_addr);
        let victim = range
            .clone()
            .find(|&i| !self.lines[i].valid)
            .unwrap_or_else(|| range.min_by_key(|&i| self.lines[i].last_use).unwrap());
        let evicted = self.lines[victim]
            .valid
            .then_some(self.lines[victim].line_addr);
        self.lines[victim] = RefLine {
            valid: true,
            line_addr,
            data: data.to_vec(),
            last_use: counter,
            fill_domain: domain,
        };
        evicted
    }

    fn invalidate(&mut self, addr: u64) {
        if let Some(idx) = self.find(self.line_addr(addr)) {
            self.lines[idx].valid = false;
        }
    }

    fn flush_all(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }
}

type LineView = (u64, Vec<u8>, u64, Domain);

fn listing(c: &Cache) -> Vec<LineView> {
    c.valid_lines()
        .map(|l| {
            assert!(l.valid);
            (l.line_addr, l.data.to_vec(), l.last_use, l.fill_domain)
        })
        .collect()
}

fn ref_listing(r: &RefCache) -> Vec<LineView> {
    r.lines
        .iter()
        .filter(|l| l.valid)
        .map(|l| (l.line_addr, l.data.clone(), l.last_use, l.fill_domain))
        .collect()
}

/// Geometries spanning one to eight storage chunks, with power-of-two and
/// odd way counts and lines up to a whole chunk per set.
const GEOMETRIES: [(usize, usize, u64); 5] = [
    (64, 2, 64),
    (32, 4, 128),
    (8, 8, 512),
    (4, 3, 64),
    (16, 3, 256),
];

fn domain(code: u8) -> Domain {
    match code % 3 {
        0 => Domain::Untrusted,
        1 => Domain::SecurityMonitor,
        _ => Domain::Enclave((code / 3) as u32 % 4),
    }
}

/// One live cache and its reference.
struct Pair {
    cow: Cache,
    reference: RefCache,
}

/// Runs `ops` and checks every pair after every step.
fn run_ops(geometry: usize, ops: &[(u8, usize, u64, u64, u8)]) -> Result<(), TestCaseError> {
    let (sets, ways, line_size) = GEOMETRIES[geometry];
    let mut pairs = vec![Pair {
        cow: Cache::new(sets, ways, line_size),
        reference: RefCache::new(sets, ways, line_size),
    }];
    // Enough distinct lines that every set sees conflicts and evictions.
    let lines = (sets * ways * 2) as u64;
    for (step, &(kind, target, a, b, c)) in ops.iter().enumerate() {
        let t = target % pairs.len();
        let la = (a % lines) * line_size;
        let len = [1u64, 2, 4, 8][(c % 4) as usize];
        let addr = la + (b % line_size) / len * len;
        let p = &mut pairs[t];
        match kind % 8 {
            0 | 1 => {
                let data: Vec<u8> = (0..line_size)
                    .map(|i| (b.rotate_left(i as u32 % 64) as u8) ^ i as u8)
                    .collect();
                let d = domain(c);
                prop_assert_eq!(
                    p.cow.fill(la, &data, d),
                    p.reference.fill(la, &data, d),
                    "step {}: fill {:#x} evicted",
                    step,
                    la
                );
            }
            2 => prop_assert_eq!(
                p.cow.read(addr, len),
                p.reference.read(addr, len),
                "step {}: read {:#x}/{}",
                step,
                addr,
                len
            ),
            3 => prop_assert_eq!(
                p.cow.write(addr, b, len),
                p.reference.write(addr, b, len),
                "step {}: write {:#x}/{}",
                step,
                addr,
                len
            ),
            4 => {
                let mut buf = vec![0u8; line_size as usize];
                let hit = p.cow.read_line(la, &mut buf);
                let expected = p.reference.read_line(la);
                prop_assert_eq!(hit.then_some(buf), expected, "step {}: read_line", step);
            }
            5 => {
                p.cow.invalidate(addr);
                p.reference.invalidate(addr);
            }
            6 if c % 8 == 0 => {
                p.cow.flush_all();
                p.reference.flush_all();
            }
            6 => {}
            _ => {
                if pairs.len() < 4 {
                    let p = &mut pairs[t];
                    p.cow.share();
                    let fork = Pair {
                        cow: p.cow.clone(),
                        reference: p.reference.clone(),
                    };
                    pairs.push(fork);
                }
            }
        }
        for (i, p) in pairs.iter().enumerate() {
            prop_assert_eq!(
                p.cow.contains(addr),
                p.reference.contains(addr),
                "step {}: cache {} contains {:#x}",
                step,
                i,
                addr
            );
            let peek = p
                .cow
                .peek_line(addr)
                .map(|l| (l.line_addr, l.data.to_vec()));
            let ref_peek = p
                .reference
                .find(la)
                .map(|j| (la, p.reference.lines[j].data.clone()));
            prop_assert_eq!(peek, ref_peek, "step {}: cache {} peek_line", step, i);
            prop_assert_eq!(
                listing(&p.cow),
                ref_listing(&p.reference),
                "step {}: cache {} valid_lines",
                step,
                i
            );
        }
    }
    Ok(())
}

proptest! {
    /// Every live cache matches its reference after every step, across
    /// any number of share/clone points.
    #[test]
    fn cow_cache_matches_reference_model(
        geometry in 0usize..GEOMETRIES.len(),
        ops in prop::collection::vec(
            (any::<u8>(), 0usize..8, any::<u64>(), any::<u64>(), any::<u8>()),
            1..300,
        )
    ) {
        run_ops(geometry, &ops)?;
    }
}

/// Writes into one half after a fork leave the other half's bytes and
/// LRU stamps alone, in both directions, and a re-share of a fork keeps
/// the original intact too.
#[test]
fn forks_are_isolated_in_both_directions() {
    let mut parent = Cache::new(8, 2, 64);
    for i in 0..16u64 {
        parent.fill(i * 64, &[i as u8; 64], Domain::Enclave(0));
    }
    parent.share();
    let before = listing(&parent);
    let mut child = parent.clone();
    assert!(child.write(0x40, 0xFFFF, 2));
    assert_eq!(child.read(0x80, 1), Some(2));
    child.fill(0x1040, &[0xAB; 64], Domain::Untrusted);
    assert_eq!(listing(&parent), before, "child writes stay in the child");

    child.share();
    let mut grandchild = child.clone();
    grandchild.flush_all();
    assert_eq!(grandchild.valid_lines().count(), 0);
    assert_eq!(listing(&parent), before);
    assert_eq!(child.read(0x40, 2), Some(0xFFFF));

    assert!(parent.write(0x0, 0x77, 1));
    assert_eq!(
        child.read(0x0, 1),
        Some(0),
        "parent writes stay in the parent"
    );
}
