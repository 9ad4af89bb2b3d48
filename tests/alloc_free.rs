//! Steady-state allocation gate: a counting `#[global_allocator]` shim
//! proves the cycle loop does not allocate per simulated cycle.
//!
//! Method: run the same workload twice on the same machine with a short
//! and a long instruction budget, and compare allocation counts. The
//! fixed construction cost (arena slots, register files, caches) and the
//! warm-up transient (buffers growing to their plateau) are identical in
//! both runs, so the *delta* divided by the extra cycles measures the
//! per-cycle allocation rate of the steady-state loop. The arena issue
//! queue, in-place WIB extraction, scratch-buffer cycle loop and the
//! event heap hold this near zero; the `HashMap + BTreeSet + per-cycle
//! collect` structures they replaced allocated many times per cycle.
//!
//! Everything runs inside one `#[test]` so no concurrent test pollutes
//! the counter (the harness's own bookkeeping between tests is not
//! counted against the budget).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wib_core::{MachineConfig, Processor, RunLimit};
use wib_workloads::test_suite;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations and cycles consumed by one cold run of `insts`
/// instructions.
fn measure(cfg: &MachineConfig, insts: u64) -> (u64, u64) {
    let w = test_suite().into_iter().next().expect("a workload");
    let program = w.program();
    let p = Processor::new(cfg.clone());
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = p.run(&program, RunLimit::instructions(insts).into());
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(r.stats.cycles > 0);
    (after - before, r.stats.cycles)
}

// The `checked` feature compiles the per-cycle machine check into the
// loop, and its ownership census allocates scratch by design; the gate's
// claim — no checker overhead in a normal release build — is only
// meaningful with the feature off.
#[cfg_attr(feature = "checked", ignore = "machine check allocates by design")]
#[test]
fn steady_state_cycle_loop_is_allocation_free() {
    for (name, cfg, budget_per_kcycle) in [
        // No WIB: the wakeup-select/writeback/event loop proper. The
        // budget asserts a true zero (measured ~0.06/kcycle residual from
        // one late-growing buffer).
        ("base", MachineConfig::base_8way(), 1.0),
        // Banked WIB + two-level register file: eligible sets are
        // lazy-deletion binary heaps and the L1 recency tracker is an
        // intrusive list, so the only remaining growth is heaps/buffers
        // doubling toward their plateau (measured ~1.5/kcycle on this
        // miss-heavy cold run, and shrinking with run length).
        ("wib2k", MachineConfig::wib_2k(), 20.0),
    ] {
        let (short_allocs, short_cycles) = measure(&cfg, 20_000);
        let (long_allocs, long_cycles) = measure(&cfg, 80_000);
        let extra_allocs = long_allocs.saturating_sub(short_allocs);
        let extra_cycles = long_cycles - short_cycles;
        let per_kcycle = extra_allocs as f64 * 1000.0 / extra_cycles as f64;
        eprintln!(
            "[{name}] {extra_allocs} allocations over {extra_cycles} extra cycles \
             ({per_kcycle:.3} per 1000 cycles)"
        );
        // The residual budget covers amortized growth that is O(log n),
        // not O(n): interval time-series samples, histogram bins, the
        // event heap and lsq/rob rings doubling toward their plateau.
        assert!(
            per_kcycle < budget_per_kcycle,
            "[{name}] steady-state cycle loop allocates {per_kcycle:.3} times per \
             1000 cycles (budget {budget_per_kcycle}): a per-cycle allocation crept \
             back into the hot path"
        );
    }
}
