//! Directed timing tests: crafted scenarios whose cycle counts are
//! predictable from Table 1's latencies, asserted within tolerances.
//! These pin the timing model against accidental regressions.

use wib::core::{MachineConfig, Processor, RunLimit, RunResult};
use wib::isa::asm::ProgramBuilder;
use wib::isa::program::Program;
use wib::isa::reg::*;

fn run(cfg: MachineConfig, p: &Program) -> RunResult {
    let mut proc_ = Processor::new(cfg);
    proc_.enable_cosim();
    proc_.run(p, RunLimit::instructions(1_000_000).into())
}

/// A serial pointer chase pays the full memory latency per hop.
#[test]
fn dependent_misses_serialize_at_dram_latency() {
    let hops = 64u32;
    let mut b = ProgramBuilder::new(0x1000);
    // Each node on its own page: every hop is a TLB miss + DRAM miss.
    let base = 0x40_0000u32;
    for i in 0..hops {
        let next = if i + 1 < hops {
            base + (i + 1) * 4096
        } else {
            0
        };
        b.data_u32(base + i * 4096, &[next]);
    }
    b.li(R1, base);
    b.label("walk");
    b.lw(R1, R1, 0);
    b.bne(R1, R0, "walk");
    b.halt();
    let p = b.finish().unwrap();
    let r = run(MachineConfig::base_8way(), &p);
    // 64 serial hops x (250 DRAM + 30 TLB) = 17,920 cycles minimum.
    let floor = hops as u64 * 280;
    assert!(
        r.stats.cycles >= floor && r.stats.cycles < floor + 2_000,
        "serial chain should cost ~{floor} cycles, took {}",
        r.stats.cycles
    );
    // A 2K window cannot help a serial chain.
    let big = run(MachineConfig::conventional(2048), &p);
    assert!(
        big.stats.cycles as f64 > 0.9 * r.stats.cycles as f64,
        "no window can parallelize a serial chain: {} vs {}",
        big.stats.cycles,
        r.stats.cycles
    );
}

/// Loads to the same cache line merge into one fill (MSHR behaviour):
/// 8 loads on one line cost one memory round trip, not eight.
#[test]
fn same_line_misses_merge() {
    let mut one_line = ProgramBuilder::new(0x1000);
    one_line.li(R1, 0x40_0000);
    for k in 0..8i32 {
        one_line.lw(R2, R1, 4 * k);
    }
    one_line.halt();
    let merged = run(MachineConfig::base_8way(), &one_line.finish().unwrap());

    let mut eight_lines = ProgramBuilder::new(0x1000);
    eight_lines.li(R1, 0x40_0000);
    for k in 0..8i32 {
        eight_lines.lw(R2, R1, 64 * k); // one per line, same page
    }
    eight_lines.halt();
    let spread = run(MachineConfig::base_8way(), &eight_lines.finish().unwrap());

    // Both fit one window, so both cost roughly one cold instruction
    // fetch (~280) plus one overlapped data round trip (~280).
    assert!(
        merged.stats.cycles < 700,
        "merged line fills should cost one trip: {}",
        merged.stats.cycles
    );
    assert!(
        spread.stats.cycles < merged.stats.cycles + 120,
        "independent misses should overlap: {} vs {}",
        spread.stats.cycles,
        merged.stats.cycles
    );
    // One data line fetched: only the first of the 8 loads misses.
    assert_eq!(merged.stats.mem.l1d_misses, 1, "one line fetched");
}

/// The TLB's 30-cycle penalty shows up on first touch of each page.
#[test]
fn tlb_penalty_on_first_touch() {
    // Two passes over 64 pages: the second pass misses the L1/L2 less but
    // the page count exceeds nothing — both TLB-resident afterwards.
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 0x40_0000);
    b.li(R4, 64);
    b.label("touch");
    b.lw(R2, R1, 0);
    b.addi(R1, R1, 4096);
    b.addi(R4, R4, -1);
    b.bne(R4, R0, "touch");
    b.halt();
    let r = run(MachineConfig::base_8way(), &b.finish().unwrap());
    // Misses overlap (independent), but each fill carries its +30 TLB
    // penalty; the run must cost clearly more than the no-TLB bound.
    assert!(r.stats.cycles > 280, "{}", r.stats.cycles);
}

/// Non-pipelined dividers: 8 independent divides on 2 units at 12 cycles
/// each need >= 4 x 12 cycles; 8 pipelined multiplies on 2 units do not.
#[test]
fn nonpipelined_dividers_throttle() {
    let mut divs = ProgramBuilder::new(0x1000);
    divs.data_f64(0x8000, &[3.0, 1.5]);
    divs.li(R1, 0x8000);
    divs.fld(F1, R1, 0);
    divs.fld(F2, R1, 8);
    for k in 0..8 {
        let d = ArchReg::fp(3 + k);
        divs.fdiv(d, F1, F2);
    }
    divs.halt();
    let r = run(MachineConfig::base_8way(), &divs.finish().unwrap());
    // Startup (cold I-cache fetch ~280) + ceil(8/2) * 12 serial occupancy.
    let data_ready = 280 + 300; // two cold data loads, merged line
    assert!(
        r.stats.cycles >= 48,
        "eight divides on two non-pipelined units need 4 rounds: {}",
        r.stats.cycles
    );
    assert!(
        r.stats.cycles < data_ready as u64 + 150,
        "{}",
        r.stats.cycles
    );
}

/// A branch whose direction is data-random mispredicts often and each
/// misprediction costs a refill; IPC collapses versus a predictable loop.
#[test]
fn mispredictions_cost_refills() {
    let body = |predictable: bool| {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R15, 987_654);
        b.li(R14, 12_345);
        b.li(R1, 4_000);
        b.label("loop");
        if predictable {
            b.andi(R4, R0, 1); // always zero: branch never taken
        } else {
            b.mul(R15, R15, R14);
            b.addi(R15, R15, 777);
            b.srli(R4, R15, 13);
            b.andi(R4, R4, 1); // pseudo-random bit
        }
        b.beq(R4, R0, "skip");
        b.addi(R3, R3, 1);
        b.label("skip");
        b.addi(R1, R1, -1);
        b.bne(R1, R0, "loop");
        b.halt();
        b.finish().unwrap()
    };
    let good = run(MachineConfig::base_8way(), &body(true));
    let bad = run(MachineConfig::base_8way(), &body(false));
    assert!(good.stats.branch_dir_rate() > 0.99);
    assert!(bad.stats.branch_dir_rate() < 0.90);
    // Note: the random version also executes more instructions per
    // iteration; compare cycle cost per iteration instead of IPC.
    let good_cpi = good.stats.cycles as f64 / 4_000.0;
    let bad_cpi = bad.stats.cycles as f64 / 4_000.0;
    assert!(
        bad_cpi > good_cpi + 2.0,
        "mispredictions should add cycles per iteration: {good_cpi:.2} vs {bad_cpi:.2}"
    );
}

/// L2 hits cost ~10 cycles: a working set between L1 and L2 lands between
/// the L1-resident and DRAM-bound versions of the same loop.
#[test]
fn l2_latency_sits_between_l1_and_dram() {
    let loop_over = |stride: u32, span: u32| {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 0x40_0000);
        b.li(R4, 20_000);
        b.li(R6, 0x40_0000);
        b.li(R7, span);
        b.label("loop");
        b.lw(R2, R1, 0);
        b.add(R3, R3, R2);
        b.addi(R1, R1, stride as i32);
        // wrap: if R1 - base >= span, reset
        b.sub(R8, R1, R6);
        b.blt(R8, R7, "ok");
        b.mv(R1, R6);
        b.label("ok");
        b.addi(R4, R4, -1);
        b.bne(R4, R0, "loop");
        b.halt();
        b.finish().unwrap()
    };
    // 16KB: L1-resident. 128KB: L2-resident. Loads hit every iteration.
    let l1 = run(MachineConfig::base_8way(), &loop_over(64, 16 * 1024));
    let l2 = run(MachineConfig::base_8way(), &loop_over(64, 128 * 1024));
    assert!(
        l2.stats.cycles > l1.stats.cycles,
        "L2-resident loop must be slower: {} vs {}",
        l1.stats.cycles,
        l2.stats.cycles
    );
    assert!(
        l2.stats.mem.l2_local_miss_ratio() < 0.25,
        "128KB set should live in L2"
    );
}
