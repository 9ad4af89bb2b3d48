//! The warm-up filter is exact: a hierarchy warmed through `warm_inst` and
//! `warm_data` (which skip repeated lookups of the last page and line on
//! each side) must end in the same state as one fed the same stream
//! through the timed `inst_fetch`/`data_access`, which never skip.
//!
//! Each timed access of the reference starts after the previous one's
//! fill and TLB walk have finished, so no fill is in flight and the two
//! differ only in what the filter could have skipped. Both then take the
//! same probe stream: every latency, every hit/miss and the per-cache
//! statistics must agree. Writebacks in those statistics check the dirty
//! bits the warm stream left behind.

use wib_mem::{AccessKind, CacheConfig, HierConfig, MemoryHierarchy, TlbConfig};
use wib_rng::StdRng;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// An instruction fetch (`warm_inst` on the warmed side).
    Fetch(u32),
    /// A data access (`warm_data` on the warmed side).
    Data(u32, AccessKind),
    /// A timed data access on both sides, between warm accesses.
    Timed(u32, AccessKind),
    /// A timed instruction fetch on both sides, between warm accesses.
    TimedFetch(u32),
}

/// A hierarchy small enough that random streams over a few pages evict
/// lines, dirty lines and TLB entries.
fn small() -> HierConfig {
    let cache = |name: &str, size_bytes, assoc| CacheConfig {
        name: name.to_string(),
        size_bytes,
        assoc,
        line_bytes: 32,
        hit_latency: 2,
    };
    let tlb = TlbConfig {
        entries: 8,
        assoc: 2,
        page_bytes: 256,
        miss_penalty: 30,
    };
    HierConfig {
        l1i: cache("L1I", 512, 2),
        l1d: cache("L1D", 512, 2),
        l2: CacheConfig {
            hit_latency: 10,
            ..cache("L2", 4096, 4)
        },
        mem_latency: 250,
        itlb: tlb.clone(),
        dtlb: tlb,
    }
}

fn kind(r: &mut StdRng) -> AccessKind {
    if r.random::<bool>() {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Runs of straight-line fetches, jumps, same-line and same-page data
/// runs, read-then-write pairs, scattered accesses and the odd timed
/// access over `span` bytes.
fn stream(r: &mut StdRng, len: usize, span: u32) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len + 64);
    let mut pc = 0u32;
    while ops.len() < len {
        let addr = r.random_range(0..span);
        match r.random_range(0..8u32) {
            0 => {
                for _ in 0..r.random_range(1..40u32) {
                    ops.push(Op::Fetch(pc));
                    pc = pc.wrapping_add(4) % span;
                }
            }
            1 => pc = addr & !3,
            2 => {
                for _ in 0..r.random_range(1..8u32) {
                    ops.push(Op::Data((addr & !31) | r.random_range(0..32u32), kind(r)));
                }
            }
            3 => {
                for _ in 0..r.random_range(1..8u32) {
                    ops.push(Op::Data((addr & !255) | r.random_range(0..256u32), kind(r)));
                }
            }
            4 => {
                ops.push(Op::Data(addr, AccessKind::Read));
                ops.push(Op::Data(addr, AccessKind::Write));
            }
            5 => ops.push(Op::Data(addr, kind(r))),
            6 => ops.push(Op::Timed(addr, kind(r))),
            _ => ops.push(Op::TimedFetch(addr & !3)),
        }
    }
    ops
}

/// Cycles between timed accesses: past any fill plus both TLB walks.
fn gap(cfg: &HierConfig) -> u64 {
    cfg.mem_latency + cfg.itlb.miss_penalty + cfg.dtlb.miss_penalty + 1
}

/// Warm one hierarchy through the filter and one through timed accesses,
/// then probe both identically.
fn check(cfg: &HierConfig, warm: &[Op], probe: &[Op]) {
    let mut a = MemoryHierarchy::new(cfg.clone());
    let mut b = MemoryHierarchy::new(cfg.clone());
    let mut now = 0;
    for &op in warm {
        now += gap(cfg);
        match op {
            Op::Fetch(pc) => {
                a.warm_inst(pc);
                b.inst_fetch(pc, now);
            }
            Op::Data(addr, k) => {
                a.warm_data(addr, k);
                b.data_access(addr, k, now);
            }
            Op::Timed(addr, k) => {
                a.data_access(addr, k, now);
                b.data_access(addr, k, now);
            }
            Op::TimedFetch(pc) => {
                a.inst_fetch(pc, now);
                b.inst_fetch(pc, now);
            }
        }
    }
    a.reset_stats();
    b.reset_stats();
    for (i, &op) in probe.iter().enumerate() {
        now += gap(cfg);
        match op {
            Op::Fetch(pc) | Op::TimedFetch(pc) => {
                assert_eq!(
                    a.inst_fetch(pc, now),
                    b.inst_fetch(pc, now),
                    "probe {i}: fetch {pc:#x}"
                );
            }
            Op::Data(addr, k) | Op::Timed(addr, k) => {
                assert_eq!(
                    a.data_access(addr, k, now),
                    b.data_access(addr, k, now),
                    "probe {i}: {k:?} {addr:#x}"
                );
            }
        }
    }
    assert_eq!(a.cache_stats(), b.cache_stats());
    assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
}

#[test]
fn filtered_warm_up_matches_timed_accesses() {
    for seed in 0..24u64 {
        let mut r = StdRng::seed_from_u64(0x3a7f_0000 + seed);
        let (cfg, span) = if seed % 2 == 0 {
            (small(), 16 * 1024)
        } else {
            (HierConfig::isca2002_base(), 2 * 1024 * 1024)
        };
        let warm = stream(&mut r, 6_000, span);
        let probe = stream(&mut r, 3_000, span);
        check(&cfg, &warm, &probe);
    }
}

#[test]
fn timed_access_between_warm_accesses_to_one_line() {
    // 0x000 and 0x100 share an L1D set (512 B, 2-way, 32 B lines: 8 sets)
    // and 0x200 evicts whichever of them is LRU. If the timed access did
    // not clear the filter, the second warm access to 0x000 would be
    // skipped, leaving 0x000 LRU, and the probe would evict it.
    let cfg = small();
    let warm = [
        Op::Data(0x000, AccessKind::Read),
        Op::Timed(0x100, AccessKind::Read),
        Op::Data(0x004, AccessKind::Read),
    ];
    let probe = [
        Op::Data(0x200, AccessKind::Read),
        Op::Data(0x000, AccessKind::Read),
        Op::Data(0x100, AccessKind::Read),
    ];
    check(&cfg, &warm, &probe);
    // The same on the instruction side.
    let warm = [Op::Fetch(0x000), Op::TimedFetch(0x100), Op::Fetch(0x004)];
    let probe = [Op::Fetch(0x200), Op::Fetch(0x000), Op::Fetch(0x100)];
    check(&cfg, &warm, &probe);
    // Dirty bits: a write after a read of the same line, and a warm write
    // after a timed read of a line already dirtied, both reach the
    // writeback count.
    let warm = [
        Op::Data(0x000, AccessKind::Read),
        Op::Data(0x008, AccessKind::Write),
        Op::Data(0x120, AccessKind::Write),
        Op::Timed(0x120, AccessKind::Read),
        Op::Data(0x124, AccessKind::Write),
    ];
    let probe = [
        Op::Data(0x200, AccessKind::Read),
        Op::Data(0x300, AccessKind::Read),
        Op::Data(0x400, AccessKind::Read),
        Op::Data(0x500, AccessKind::Read),
    ];
    check(&cfg, &warm, &probe);
}
