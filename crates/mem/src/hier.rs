//! The full memory hierarchy: L1I + L1D + unified L2 + DRAM, with
//! MSHR-style merging of outstanding misses.
//!
//! Latencies follow the paper's Table 1: a hit in a level costs that
//! level's latency *in total* (L1 = 2, L2 = 10, memory = 250), plus the TLB
//! penalty when the page is not mapped. Outstanding misses to the same
//! line merge: the second access is ready when the first fill returns,
//! without issuing a new memory transaction. Lines are installed at access
//! time; the MSHR table supplies the correct readiness for every access
//! that lands on a line still in flight.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};
use crate::tlb::{Tlb, TlbConfig};
use std::collections::HashMap;

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierConfig {
    /// Level-one instruction cache.
    pub l1i: CacheConfig,
    /// Level-one data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Total latency of a DRAM access, in cycles.
    pub mem_latency: u64,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
}

impl HierConfig {
    /// The paper's Table 1 memory system.
    pub fn isca2002_base() -> HierConfig {
        HierConfig {
            l1i: CacheConfig::l1_32k("L1I"),
            l1d: CacheConfig::l1_32k("L1D"),
            l2: CacheConfig::l2_256k(),
            mem_latency: 250,
            itlb: TlbConfig::isca2002(),
            dtlb: TlbConfig::isca2002(),
        }
    }
}

/// Timing outcome of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Cycle at which the value is available (loads) or the line is owned
    /// (stores).
    pub ready_at: u64,
    /// Whether the access hit in the L1 data cache.
    pub l1_hit: bool,
    /// Whether the line had to go to DRAM (L2 miss, not merged).
    pub to_memory: bool,
    /// Whether the miss merged into an already outstanding line fill
    /// (MSHR hit: no new memory transaction, but the access still waits
    /// out the fill).
    pub mshr_merged: bool,
}

impl DataAccess {
    /// Latency relative to the access cycle.
    pub fn latency(&self, now: u64) -> u64 {
        self.ready_at.saturating_sub(now)
    }
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierStats {
    /// Loads + stores that reached the L1D.
    pub data_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses (from either L1).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Misses merged into an already-outstanding line fill.
    pub mshr_merges: u64,
}

impl HierStats {
    /// L1 data-cache miss ratio.
    pub fn l1d_miss_ratio(&self) -> f64 {
        ratio(self.l1d_misses, self.data_accesses)
    }

    /// Local L2 miss ratio (L2 misses / L2 accesses), as in the paper's
    /// Table 2.
    pub fn l2_local_miss_ratio(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one side (instruction or data) of the warm-up path touched last.
///
/// A warm access to the page its side translated last is already MRU in
/// that side's TLB, and one to the line it touched last is already MRU
/// in that side's L1 (only this side reaches its TLB and L1, and an L1
/// hit never reaches L2). Repeating such a lookup changes nothing but
/// the LRU clock, whose values only ever compare within one set, and the
/// statistics, which are reset after warm-up. So the lookup is skipped,
/// except for a write to a line not yet dirtied here.
#[derive(Debug, Clone, Copy, Default)]
struct WarmFilter {
    page: Option<u32>,
    line: Option<u32>,
    /// `line` is known to be dirty.
    dirty: bool,
}

impl WarmFilter {
    /// Record a warm access to `page`; true if its TLB lookup is needed.
    fn needs_page(&mut self, page: u32) -> bool {
        let needed = self.page != Some(page);
        self.page = Some(page);
        needed
    }

    /// Record a warm access to `line`; true if its L1 lookup is needed.
    fn needs_line(&mut self, line: u32, write: bool) -> bool {
        if self.line == Some(line) {
            if self.dirty || !write {
                return false;
            }
        } else {
            self.line = Some(line);
            self.dirty = false;
        }
        self.dirty |= write;
        true
    }
}

/// The L1I/L1D/L2/DRAM timing stack.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    mem_latency: u64,
    /// Outstanding line fills: line address -> fill completion cycle.
    ///
    /// Cleaned **lazily**: completed fills linger until the periodic
    /// [`MemoryHierarchy::maybe_drain`] sweep (or an exact-count query)
    /// removes them, so the per-access path never scans the table. Every
    /// read goes through [`MemoryHierarchy::live_fill`], which filters
    /// stale entries by comparing against `now`.
    inflight: HashMap<u32, u64>,
    /// Accesses since the last stale-fill sweep.
    accesses_since_drain: u32,
    stats: HierStats,
    /// Page-number shift of the instruction and data TLBs.
    ipage_shift: u32,
    dpage_shift: u32,
    warm_i: WarmFilter,
    warm_d: WarmFilter,
    /// TLB and L1 lookups performed by `warm_inst`/`warm_data`.
    warm_lookups: u64,
}

impl MemoryHierarchy {
    /// Build an empty (cold) hierarchy.
    pub fn new(cfg: HierConfig) -> MemoryHierarchy {
        let ipage_shift = cfg.itlb.page_bytes.trailing_zeros();
        let dpage_shift = cfg.dtlb.page_bytes.trailing_zeros();
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            mem_latency: cfg.mem_latency,
            inflight: HashMap::new(),
            accesses_since_drain: 0,
            stats: HierStats::default(),
            ipage_shift,
            dpage_shift,
            warm_i: WarmFilter::default(),
            warm_d: WarmFilter::default(),
            warm_lookups: 0,
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> HierStats {
        self.stats
    }

    /// Per-cache statistics `(l1i, l1d, l2)`.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats())
    }

    /// Reset all statistics (after warm-up), keeping cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
    }

    fn drain_completed(&mut self, now: u64) {
        self.inflight.retain(|_, ready| *ready > now);
    }

    /// Amortized stale-fill sweep: a full [`HashMap::retain`] scan per
    /// access would dominate miss-heavy runs (the WIB keeps dozens of
    /// fills in flight), so completed entries are only swept every 1024
    /// accesses and ignored in between via [`MemoryHierarchy::live_fill`].
    fn maybe_drain(&mut self, now: u64) {
        self.accesses_since_drain += 1;
        if self.accesses_since_drain >= 1024 {
            self.accesses_since_drain = 0;
            self.drain_completed(now);
        }
    }

    /// The fill in flight for `line` at `now`, ignoring stale entries the
    /// lazy sweep has not removed yet.
    fn live_fill(&self, line: u32, now: u64) -> Option<u64> {
        self.inflight
            .get(&line)
            .copied()
            .filter(|&ready| ready > now)
    }

    /// If the line holding `addr` is still being filled at `now`, when it
    /// arrives.
    pub fn inflight_ready(&self, addr: u32, now: u64) -> Option<u64> {
        self.live_fill(self.l1d.line_addr(addr), now)
    }

    /// Fetch the instruction at `pc`: returns the cycle the bytes are
    /// available.
    pub fn inst_fetch(&mut self, pc: u32, now: u64) -> u64 {
        self.clear_warm_filters();
        self.maybe_drain(now);
        let tlb_extra = self.itlb.translate(pc);
        let line = self.l1i.line_addr(pc);
        let l1 = self.l1i.access(pc, AccessKind::Read);
        let base_ready = if l1.hit {
            now + self.l1i.config().hit_latency
        } else {
            self.stats.l2_accesses += 1;
            let l2 = self.l2.access(pc, AccessKind::Read);
            if l2.hit {
                now + self.l2.config().hit_latency
            } else {
                self.stats.l2_misses += 1;
                let ready = now + self.mem_latency;
                if self.live_fill(line, now).is_none() {
                    // Overwrites a stale (completed) fill, if any; a live
                    // one is kept, matching the old `or_insert`.
                    self.inflight.insert(line, ready);
                }
                ready
            }
        };
        let merged = self.live_fill(line, now).unwrap_or(0);
        base_ready.max(merged) + tlb_extra
    }

    /// Perform a data access (load or store) at cycle `now`.
    ///
    /// Stores allocate and dirty the line but the caller decides whether
    /// their latency matters (committed stores retire into a write buffer).
    pub fn data_access(&mut self, addr: u32, kind: AccessKind, now: u64) -> DataAccess {
        self.clear_warm_filters();
        self.maybe_drain(now);
        self.stats.data_accesses += 1;
        let tlb_extra = self.dtlb.translate(addr);
        let line = self.l1d.line_addr(addr);
        let l1 = self.l1d.access(addr, kind);
        let mut to_memory = false;
        let mut mshr_merged = false;
        let base_ready = if l1.hit {
            now + self.l1d.config().hit_latency
        } else {
            self.stats.l1d_misses += 1;
            self.stats.l2_accesses += 1;
            let l2 = self.l2.access(addr, AccessKind::Read);
            if l2.hit {
                now + self.l2.config().hit_latency
            } else {
                self.stats.l2_misses += 1;
                match self.live_fill(line, now) {
                    Some(ready) => {
                        // A fill for this line is already on its way.
                        self.stats.mshr_merges += 1;
                        self.stats.l2_misses -= 1; // merged, not a new transaction
                        self.stats.l2_accesses -= 1;
                        mshr_merged = true;
                        ready
                    }
                    None => {
                        to_memory = true;
                        let ready = now + self.mem_latency;
                        self.inflight.insert(line, ready);
                        ready
                    }
                }
            }
        };
        // Even an L1 "hit" on a line still in flight waits for the fill.
        let merged = self.live_fill(line, now).unwrap_or(0);
        let ready_at = base_ready.max(merged) + tlb_extra;
        DataAccess {
            ready_at,
            l1_hit: l1.hit,
            to_memory,
            mshr_merged,
        }
    }

    /// Forget what the warm-up path touched last: a timed access may move
    /// another line or page into MRU position.
    fn clear_warm_filters(&mut self) {
        self.warm_i = WarmFilter::default();
        self.warm_d = WarmFilter::default();
    }

    /// Warm the data-side hierarchy with `addr` without collecting stats
    /// (used during fast-forward). Timing state (MSHRs) is untouched.
    pub fn warm_data(&mut self, addr: u32, kind: AccessKind) {
        if self.warm_d.needs_page(addr >> self.dpage_shift) {
            self.warm_lookups += 1;
            self.dtlb.translate(addr);
        }
        let line = self.l1d.line_addr(addr);
        if self.warm_d.needs_line(line, kind == AccessKind::Write) {
            self.warm_lookups += 1;
            if !self.l1d.access(addr, kind).hit {
                self.l2.access(addr, AccessKind::Read);
            }
        }
    }

    /// Warm the instruction-side hierarchy with `pc` (fast-forward).
    pub fn warm_inst(&mut self, pc: u32) {
        if self.warm_i.needs_page(pc >> self.ipage_shift) {
            self.warm_lookups += 1;
            self.itlb.translate(pc);
        }
        let line = self.l1i.line_addr(pc);
        if self.warm_i.needs_line(line, false) {
            self.warm_lookups += 1;
            if !self.l1i.access(pc, AccessKind::Read).hit {
                self.l2.access(pc, AccessKind::Read);
            }
        }
    }

    /// TLB and L1 lookups `warm_inst` and `warm_data` have performed (a
    /// work counter; [`MemoryHierarchy::reset_stats`] leaves it alone).
    pub fn warm_lookups(&self) -> u64 {
        self.warm_lookups
    }

    /// Number of line fills currently outstanding at `now`.
    pub fn inflight_fills(&mut self, now: u64) -> usize {
        self.drain_completed(now);
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(HierConfig::isca2002_base())
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = hier();
        let a = h.data_access(0x10_0000, AccessKind::Read, 100);
        assert!(!a.l1_hit);
        assert!(a.to_memory);
        // 250 DRAM + 30 TLB fill.
        assert_eq!(a.ready_at, 100 + 250 + 30);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = hier();
        h.data_access(0x10_0000, AccessKind::Read, 0);
        // Wait past fill completion, then re-access.
        let a = h.data_access(0x10_0000, AccessKind::Read, 300);
        assert!(a.l1_hit);
        assert_eq!(a.ready_at, 302);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut h = hier();
        let first = h.data_access(0x10_0000, AccessKind::Read, 0);
        // Second access to the same line, 10 cycles later, while in flight:
        // it "hits" in L1 (line installed) but data arrives with the fill.
        let second = h.data_access(0x10_0004, AccessKind::Read, 10);
        assert_eq!(second.ready_at, first.ready_at - 30); // no second TLB fill
        assert!(!second.to_memory);
        assert_eq!(h.stats().mshr_merges, 0); // merged via install, not MSHR path
    }

    #[test]
    fn independent_lines_overlap() {
        let mut h = hier();
        let a = h.data_access(0x10_0000, AccessKind::Read, 0);
        let b = h.data_access(0x20_0000, AccessKind::Read, 1);
        // Both are full-latency DRAM accesses that overlap in time.
        assert_eq!(a.ready_at, 280);
        assert_eq!(b.ready_at, 1 + 280);
        assert_eq!(h.inflight_fills(2), 2);
        assert_eq!(h.inflight_fills(10_000), 0);
    }

    #[test]
    fn l2_hit_latency() {
        let mut h = hier();
        // Fill a line, then evict it from L1 by sweeping one L1 set.
        h.data_access(0x40_0000, AccessKind::Read, 0);
        // L1: 32KB 4-way 64B lines -> 128 sets, set stride 8KB.
        for i in 1..=4u32 {
            h.data_access(0x40_0000 + i * 8192, AccessKind::Read, 1000 + i as u64);
        }
        assert_eq!(h.stats().l1d_misses, 5);
        let a = h.data_access(0x40_0000, AccessKind::Read, 10_000);
        assert!(!a.l1_hit);
        assert!(!a.to_memory); // still in L2
        assert_eq!(a.ready_at, 10_000 + 10);
    }

    #[test]
    fn inst_fetch_paths() {
        let mut h = hier();
        let cold = h.inst_fetch(0x1000, 0);
        assert_eq!(cold, 250 + 30);
        let warm = h.inst_fetch(0x1004, 1000);
        assert_eq!(warm, 1002);
    }

    #[test]
    fn warmup_does_not_count_stats() {
        let mut h = hier();
        h.warm_data(0x9000, AccessKind::Read);
        h.warm_inst(0x1000);
        h.reset_stats();
        assert_eq!(h.stats().data_accesses, 0);
        // After warming, the access is a hit with short latency.
        let a = h.data_access(0x9000, AccessKind::Read, 50);
        assert!(a.l1_hit);
        assert_eq!(a.ready_at, 52);
    }

    #[test]
    fn stats_ratios() {
        let mut h = hier();
        h.data_access(0x10_0000, AccessKind::Read, 0);
        h.data_access(0x10_0000, AccessKind::Read, 1000);
        let s = h.stats();
        assert_eq!(s.data_accesses, 2);
        assert_eq!(s.l1d_misses, 1);
        assert!((s.l1d_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.l2_local_miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn store_dirties_and_costs_same_path() {
        let mut h = hier();
        let w = h.data_access(0x50_0000, AccessKind::Write, 0);
        assert!(w.to_memory);
        let (_, l1d, _) = h.cache_stats();
        assert_eq!(l1d.misses, 1);
    }
}
