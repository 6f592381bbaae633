//! Set-associative caches and the line-fill buffer (LFB/MSHR).
//!
//! The hierarchy is modeled write-through (stores propagate to every level
//! and memory at commit). This keeps all levels coherent without a
//! writeback protocol while preserving every leakage-relevant behaviour:
//! write-allocate still pulls the *old* line through the LFB (paper case
//! D3), and fills still deposit whole cache lines of another domain's data
//! into the LFB and L1D (cases D1/D2).
//!
//! # Storage
//!
//! A [`Cache`] keeps its per-way metadata (valid bit, line address, LRU
//! stamp, fill domain) and its line payloads in two arrays of ~4 KiB
//! chunks. A chunk holds whole sets, so one lookup touches one chunk. Each
//! chunk is either owned by this cache or shared (reference-counted) with
//! its clones, the same copy-on-write scheme [`crate::mem::Memory`] uses
//! for pages:
//!
//! - [`Cache::new`] points every chunk at one shared all-invalid chunk;
//! - [`Cache::share`] turns owned chunks into shared ones, so a later
//!   clone bumps one refcount per chunk and copies no line;
//! - the first write to a shared chunk copies it into an owned one, after
//!   which accesses to it take no atomics.
//!
//! Sharing changes the storage representation only: every read, LRU
//! decision and eviction is the same as with private lines. Snapshot
//! points call `share()` on L1I, L1D and L2 through
//! [`crate::Core::share_storage`] — `PlatformSnapshot::capture` (boot
//! snapshots) and the runner's setup-prefix capture — so the many forks
//! of one snapshot share its cache lines and allocate only the chunks
//! they write.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::trace::{Domain, FillPurpose};

/// Target size of one storage chunk, in bytes of line payload.
const CHUNK_BYTES: u64 = 4096;

/// Fixed-length storage that clones share until one of them writes it.
#[derive(Debug)]
enum Chunk<T> {
    /// Private to this cache: written in place.
    Owned(Box<[T]>),
    /// Shared with clones: copied into an owned chunk on first write.
    Shared(Arc<[T]>),
}

impl<T: Copy> Chunk<T> {
    fn get(&self) -> &[T] {
        match self {
            Chunk::Owned(b) => b,
            Chunk::Shared(a) => a,
        }
    }

    fn get_mut(&mut self) -> &mut [T] {
        if let Chunk::Shared(a) = self {
            *self = Chunk::Owned(Box::from(&a[..]));
        }
        match self {
            Chunk::Owned(b) => b,
            Chunk::Shared(_) => unreachable!("just made owned"),
        }
    }

    fn share(&mut self) {
        if let Chunk::Owned(b) = self {
            *self = Chunk::Shared(Arc::from(&b[..]));
        }
    }
}

impl<T: Copy> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        match self {
            Chunk::Owned(b) => Chunk::Owned(b.clone()),
            Chunk::Shared(a) => Chunk::Shared(Arc::clone(a)),
        }
    }
}

/// Per-way metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineMeta {
    valid: bool,
    line_addr: u64,
    last_use: u64,
    fill_domain: Domain,
}

const INVALID_LINE: LineMeta = LineMeta {
    valid: false,
    line_addr: 0,
    last_use: 0,
    fill_domain: Domain::Untrusted,
};

/// One cache line, borrowed from its [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine<'a> {
    /// Valid bit.
    pub valid: bool,
    /// Full line address (line-aligned physical address; doubles as tag).
    pub line_addr: u64,
    /// Line payload.
    pub data: &'a [u8],
    /// LRU timestamp (higher = more recent).
    pub last_use: u64,
    /// Domain that caused the fill (diagnostic; the checker works from the
    /// trace, but snapshots are useful in tests).
    pub fill_domain: Domain,
}

/// Where a way lives: its chunk and its line index inside that chunk.
#[derive(Debug, Clone, Copy)]
struct Slot {
    chunk: usize,
    line: usize,
}

/// A physically indexed, physically tagged set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_size: u64,
    /// log2 of the sets one chunk holds.
    chunk_sets_log2: u32,
    meta: Vec<Chunk<LineMeta>>,
    data: Vec<Chunk<u8>>,
    use_counter: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_size` are powers of two.
    pub fn new(sets: usize, ways: usize, line_size: u64) -> Cache {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        // The largest power-of-two number of sets whose payload fits one
        // chunk (at least one set, at most all of them).
        let set_bytes = (ways as u64 * line_size).max(1);
        let fit = (CHUNK_BYTES / set_bytes).max(1);
        let chunk_sets_log2 = fit.ilog2().min(sets.ilog2());
        let chunk_lines = ways << chunk_sets_log2;
        let chunks = sets >> chunk_sets_log2;
        let meta: Arc<[LineMeta]> = vec![INVALID_LINE; chunk_lines].into();
        let data: Arc<[u8]> = vec![0; chunk_lines * line_size as usize].into();
        Cache {
            sets,
            ways,
            line_size,
            chunk_sets_log2,
            meta: vec![Chunk::Shared(meta); chunks],
            data: vec![Chunk::Shared(data); chunks],
            use_counter: 0,
        }
    }

    /// Makes every chunk shared, so clones taken from now on share this
    /// cache's lines copy-on-write instead of copying them. Observable
    /// state is unchanged.
    pub fn share(&mut self) {
        self.meta.iter_mut().for_each(Chunk::share);
        self.data.iter_mut().for_each(Chunk::share);
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// The chunk holding `line_addr`'s set and that set's first way in it.
    fn set_base(&self, line_addr: u64) -> Slot {
        let set = ((line_addr / self.line_size) as usize) & (self.sets - 1);
        let in_chunk = set & ((1 << self.chunk_sets_log2) - 1);
        Slot {
            chunk: set >> self.chunk_sets_log2,
            line: in_chunk * self.ways,
        }
    }

    fn find(&self, line_addr: u64) -> Option<Slot> {
        let base = self.set_base(line_addr);
        self.meta[base.chunk].get()[base.line..base.line + self.ways]
            .iter()
            .position(|m| m.valid && m.line_addr == line_addr)
            .map(|w| Slot {
                chunk: base.chunk,
                line: base.line + w,
            })
    }

    fn line_bytes(&self, slot: Slot) -> std::ops::Range<usize> {
        let ls = self.line_size as usize;
        slot.line * ls..(slot.line + 1) * ls
    }

    /// Stamps `slot` as most recently used.
    fn touch(&mut self, slot: Slot) {
        self.use_counter += 1;
        self.meta[slot.chunk].get_mut()[slot.line].last_use = self.use_counter;
    }

    /// `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(self.line_addr(addr)).is_some()
    }

    /// Reads `len` bytes at `addr` on a hit, updating LRU state.
    pub fn read(&mut self, addr: u64, len: u64) -> Option<u64> {
        let la = self.line_addr(addr);
        // Accesses are assumed not to straddle lines (the LSU splits them).
        let slot = self.find(la)?;
        self.touch(slot);
        let off = self.line_bytes(slot).start + (addr - la) as usize;
        let bytes = &self.data[slot.chunk].get()[off..off + len as usize];
        Some(bytes.iter().rev().fold(0u64, |v, &b| (v << 8) | b as u64))
    }

    /// Copies the whole line at `line_addr` into `buf` on a hit. LRU state
    /// ends exactly as after `buf.len()` single-byte [`Cache::read`]s of
    /// it. Returns `false` (leaving `buf` untouched) on a miss.
    pub fn read_line(&mut self, line_addr: u64, buf: &mut [u8]) -> bool {
        debug_assert_eq!(buf.len() as u64, self.line_size);
        let Some(slot) = self.find(line_addr) else {
            return false;
        };
        self.use_counter += self.line_size - 1;
        self.touch(slot);
        buf.copy_from_slice(&self.data[slot.chunk].get()[self.line_bytes(slot)]);
        true
    }

    /// Writes `len` bytes at `addr` on a hit. Returns `false` on a miss.
    pub fn write(&mut self, addr: u64, value: u64, len: u64) -> bool {
        let la = self.line_addr(addr);
        let Some(slot) = self.find(la) else {
            return false;
        };
        self.touch(slot);
        let off = self.line_bytes(slot).start + (addr - la) as usize;
        let len = len as usize;
        self.data[slot.chunk].get_mut()[off..off + len]
            .copy_from_slice(&value.to_le_bytes()[..len]);
        true
    }

    fn line_at(&self, slot: Slot) -> CacheLine<'_> {
        let m = self.meta[slot.chunk].get()[slot.line];
        CacheLine {
            valid: m.valid,
            line_addr: m.line_addr,
            data: &self.data[slot.chunk].get()[self.line_bytes(slot)],
            last_use: m.last_use,
            fill_domain: m.fill_domain,
        }
    }

    /// The line containing `addr`, if present.
    pub fn peek_line(&self, addr: u64) -> Option<CacheLine<'_>> {
        self.find(self.line_addr(addr)).map(|s| self.line_at(s))
    }

    /// Installs a copy of `data` as the line at `line_addr`, evicting LRU
    /// if needed. Returns the evicted line's address if one was displaced.
    pub fn fill(&mut self, line_addr: u64, data: &[u8], domain: Domain) -> Option<u64> {
        debug_assert_eq!(
            line_addr & (self.line_size - 1),
            0,
            "fill address must be line aligned"
        );
        debug_assert_eq!(data.len() as u64, self.line_size);
        self.use_counter += 1;
        let counter = self.use_counter;
        // Re-fill in place if already present; otherwise take the first
        // invalid way, else the LRU one.
        let (slot, evicted) = match self.find(line_addr) {
            Some(slot) => (slot, None),
            None => {
                let base = self.set_base(line_addr);
                let set = &self.meta[base.chunk].get()[base.line..base.line + self.ways];
                let w = set.iter().position(|m| !m.valid).unwrap_or_else(|| {
                    (0..set.len())
                        .min_by_key(|&w| set[w].last_use)
                        .expect("ways >= 1")
                });
                let evicted = set[w].valid.then_some(set[w].line_addr);
                let slot = Slot {
                    chunk: base.chunk,
                    line: base.line + w,
                };
                (slot, evicted)
            }
        };
        self.meta[slot.chunk].get_mut()[slot.line] = LineMeta {
            valid: true,
            line_addr,
            last_use: counter,
            fill_domain: domain,
        };
        let bytes = self.line_bytes(slot);
        self.data[slot.chunk].get_mut()[bytes].copy_from_slice(data);
        evicted
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: u64) {
        if let Some(slot) = self.find(self.line_addr(addr)) {
            self.meta[slot.chunk].get_mut()[slot.line].valid = false;
        }
    }

    /// Invalidates every line. Chunks with no valid line stay shared.
    pub fn flush_all(&mut self) {
        for chunk in &mut self.meta {
            if chunk.get().iter().any(|m| m.valid) {
                chunk.get_mut().iter_mut().for_each(|m| m.valid = false);
            }
        }
    }

    /// Iterates currently valid lines in set-then-way order (for
    /// snapshot-based checks).
    pub fn valid_lines(&self) -> impl Iterator<Item = CacheLine<'_>> {
        (0..self.meta.len()).flat_map(move |chunk| {
            let metas = self.meta[chunk].get();
            (0..metas.len())
                .filter(move |&line| metas[line].valid)
                .map(move |line| self.line_at(Slot { chunk, line }))
        })
    }
}

/// State of a line-fill-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LfbState {
    /// Request outstanding; no data yet.
    Pending,
    /// Fill completed; data resides in the buffer until the entry is
    /// *reallocated* (residual data — this persistence is case D3's leak).
    Filled,
}

/// Per-entry LFB metadata; the payloads live in [`Lfb`]'s byte slab.
#[derive(Debug, Clone, Copy)]
struct LfbMeta {
    valid: bool,
    line_addr: u64,
    state: LfbState,
    purpose: FillPurpose,
    fill_domain: Domain,
    fill_cycle: u64,
    /// Allocation order, for oldest-filled replacement.
    alloc_stamp: u64,
}

/// One LFB/MSHR entry, borrowed from its [`Lfb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfbEntry<'a> {
    /// Entry holds a live or residual request.
    pub valid: bool,
    /// Line address of the fill.
    pub line_addr: u64,
    /// Fill payload (valid once `state == Filled`).
    pub data: &'a [u8],
    /// Request state.
    pub state: LfbState,
    /// What initiated the fill.
    pub purpose: FillPurpose,
    /// Domain active when the data arrived.
    pub fill_domain: Domain,
    /// Cycle the data arrived.
    pub fill_cycle: u64,
}

/// The line-fill buffer (doubles as the MSHR file).
#[derive(Debug, Clone)]
pub struct Lfb {
    meta: Vec<LfbMeta>,
    /// Entry `i`'s payload is `data[i * line_size..(i + 1) * line_size]`.
    data: Vec<u8>,
    line_size: u64,
    alloc_clock: u64,
}

impl Lfb {
    /// Creates an LFB with `n` entries.
    pub fn new(n: usize, line_size: u64) -> Lfb {
        let e = LfbMeta {
            valid: false,
            line_addr: 0,
            state: LfbState::Filled,
            purpose: FillPurpose::Demand,
            fill_domain: Domain::Untrusted,
            fill_cycle: 0,
            alloc_stamp: 0,
        };
        Lfb {
            meta: vec![e; n],
            data: vec![0; n * line_size as usize],
            line_size,
            alloc_clock: 0,
        }
    }

    fn payload_mut(&mut self, idx: usize) -> &mut [u8] {
        let ls = self.line_size as usize;
        &mut self.data[idx * ls..(idx + 1) * ls]
    }

    /// Allocates an entry for a new outstanding fill.
    ///
    /// Prefers invalid entries, then the oldest *completed* entry (whose
    /// residual data is thereby finally displaced). Returns `None` when
    /// every entry is still pending (structural stall).
    pub fn allocate(&mut self, line_addr: u64, purpose: FillPurpose) -> Option<usize> {
        let idx = self.meta.iter().position(|e| !e.valid).or_else(|| {
            self.meta
                .iter()
                .enumerate()
                .filter(|(_, e)| e.state == LfbState::Filled)
                .min_by_key(|(_, e)| e.alloc_stamp)
                .map(|(i, _)| i)
        })?;
        self.alloc_clock += 1;
        let e = &mut self.meta[idx];
        e.alloc_stamp = self.alloc_clock;
        e.valid = true;
        e.line_addr = line_addr;
        e.state = LfbState::Pending;
        e.purpose = purpose;
        self.payload_mut(idx).fill(0);
        Some(idx)
    }

    /// Marks entry `idx` filled with a copy of `data`.
    pub fn complete(&mut self, idx: usize, data: &[u8], domain: Domain, cycle: u64) {
        debug_assert_eq!(data.len() as u64, self.line_size);
        let e = &mut self.meta[idx];
        debug_assert!(e.valid && e.state == LfbState::Pending);
        e.state = LfbState::Filled;
        e.fill_domain = domain;
        e.fill_cycle = cycle;
        self.payload_mut(idx).copy_from_slice(data);
    }

    /// Is a fill for this line already outstanding? (Request merging.)
    pub fn pending_for(&self, line_addr: u64) -> Option<usize> {
        self.meta
            .iter()
            .position(|e| e.valid && e.state == LfbState::Pending && e.line_addr == line_addr)
    }

    /// Invalidates a single entry, dropping its residual data (models a
    /// design that releases MSHR data on refill completion).
    pub fn invalidate_entry(&mut self, idx: usize) {
        self.meta[idx].valid = false;
        self.payload_mut(idx).fill(0);
    }

    /// Invalidates every entry (mitigation flush).
    pub fn flush_all(&mut self) {
        for e in &mut self.meta {
            e.valid = false;
        }
        self.data.fill(0);
    }

    /// Entry accessor.
    pub fn entry(&self, idx: usize) -> LfbEntry<'_> {
        let e = &self.meta[idx];
        let ls = self.line_size as usize;
        LfbEntry {
            valid: e.valid,
            line_addr: e.line_addr,
            data: &self.data[idx * ls..(idx + 1) * ls],
            state: e.state,
            purpose: e.purpose,
            fill_domain: e.fill_domain,
            fill_cycle: e.fill_cycle,
        }
    }

    /// All entries in index order (tests and snapshot checks).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = LfbEntry<'_>> {
        (0..self.meta.len()).map(|i| self.entry(i))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` when the LFB has no entries (never the case in a validated
    /// configuration).
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Valid entries whose residual data belongs to a trusted domain —
    /// convenience for tests mirroring the checker's P1 scan.
    pub fn residual_trusted_entries(&self) -> impl Iterator<Item = LfbEntry<'_>> {
        self.entries()
            .filter(|e| e.valid && e.state == LfbState::Filled && e.fill_domain.is_trusted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(b: u8) -> Vec<u8> {
        vec![b; 64]
    }

    #[test]
    fn fill_then_read() {
        let mut c = Cache::new(4, 2, 64);
        let mut data = line(0);
        data[8..16].copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
        c.fill(0x1000, &data, Domain::Untrusted);
        assert!(c.contains(0x1008));
        assert_eq!(c.read(0x1008, 8), Some(0xDEAD_BEEF));
        assert_eq!(c.read(0x1040, 8), None); // next line absent
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(1, 2, 64);
        c.fill(0x0000, &line(1), Domain::Untrusted);
        c.fill(0x0040, &line(2), Domain::Untrusted);
        // Touch the first line so the second becomes LRU.
        assert!(c.read(0x0000, 1).is_some());
        let evicted = c
            .fill(0x0080, &line(3), Domain::Untrusted)
            .expect("eviction");
        assert_eq!(evicted, 0x0040);
        assert!(c.contains(0x0000) && c.contains(0x0080) && !c.contains(0x0040));
    }

    #[test]
    fn write_hits_update_data() {
        let mut c = Cache::new(4, 2, 64);
        c.fill(0x2000, &line(0), Domain::Untrusted);
        assert!(c.write(0x2010, 0x55AA, 2));
        assert_eq!(c.read(0x2010, 2), Some(0x55AA));
        assert!(!c.write(0x3000, 1, 8)); // miss
    }

    #[test]
    fn refill_in_place_keeps_single_copy() {
        let mut c = Cache::new(4, 4, 64);
        c.fill(0x1000, &line(1), Domain::Untrusted);
        c.fill(0x1000, &line(2), Domain::Enclave(0));
        assert_eq!(c.valid_lines().count(), 1);
        assert_eq!(c.read(0x1000, 1), Some(2));
        assert_eq!(c.peek_line(0x1000).unwrap().fill_domain, Domain::Enclave(0));
    }

    #[test]
    fn flush_and_invalidate() {
        let mut c = Cache::new(4, 2, 64);
        c.fill(0x1000, &line(1), Domain::Untrusted);
        c.fill(0x2000, &line(2), Domain::Untrusted);
        c.invalidate(0x1000);
        assert!(!c.contains(0x1000) && c.contains(0x2000));
        c.flush_all();
        assert_eq!(c.valid_lines().count(), 0);
    }

    #[test]
    fn lfb_allocation_prefers_invalid_then_oldest_filled() {
        let mut lfb = Lfb::new(2, 64);
        let a = lfb.allocate(0x1000, FillPurpose::Demand).unwrap();
        let b = lfb.allocate(0x2000, FillPurpose::Demand).unwrap();
        assert_ne!(a, b);
        // Both pending: no entry available.
        assert_eq!(lfb.allocate(0x3000, FillPurpose::Demand), None);
        lfb.complete(a, &line(0xEE), Domain::Enclave(0), 10);
        // Now the filled entry is displaceable.
        let c = lfb.allocate(0x3000, FillPurpose::Prefetch).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn lfb_residual_data_persists_after_completion() {
        let mut lfb = Lfb::new(4, 64);
        let idx = lfb.allocate(0x5000, FillPurpose::StoreRefill).unwrap();
        lfb.complete(idx, &line(0x42), Domain::Enclave(1), 99);
        // Long after the request completed, the secret bytes are still there.
        let e = lfb.entry(idx);
        assert_eq!(e.state, LfbState::Filled);
        assert!(e.data.iter().all(|&b| b == 0x42));
        assert_eq!(lfb.residual_trusted_entries().count(), 1);
    }

    #[test]
    fn lfb_request_merging_lookup() {
        let mut lfb = Lfb::new(4, 64);
        let idx = lfb.allocate(0x7000, FillPurpose::Demand).unwrap();
        assert_eq!(lfb.pending_for(0x7000), Some(idx));
        lfb.complete(idx, &line(0), Domain::Untrusted, 1);
        assert_eq!(lfb.pending_for(0x7000), None);
    }

    #[test]
    fn lfb_flush_clears_residue() {
        let mut lfb = Lfb::new(2, 64);
        let idx = lfb.allocate(0x5000, FillPurpose::Demand).unwrap();
        lfb.complete(idx, &line(0x42), Domain::Enclave(1), 5);
        lfb.flush_all();
        assert_eq!(lfb.residual_trusted_entries().count(), 0);
        assert!(lfb.entries().all(|e| !e.valid));
    }
}
