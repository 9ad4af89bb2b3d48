//! Directed behavioural tests of specific pipeline mechanisms: penalties,
//! gating, the two-level register file, the trace facility, and the
//! forward-progress machinery.

use wib::core::trace::Trace;
use wib::core::{MachineConfig, Processor, RegFileConfig, RunLimit, RunOptions};
use wib::isa::asm::ProgramBuilder;
use wib::isa::program::Program;
use wib::isa::reg::*;

fn run(cfg: MachineConfig, p: &Program, n: u64) -> wib::core::RunResult {
    let mut proc_ = Processor::new(cfg);
    proc_.enable_cosim();
    proc_.run(p, RunLimit::instructions(n).into())
}

/// Alternating-direction branch that the two-level history captures but
/// bimodal cannot.
#[test]
fn history_predictor_learns_alternation() {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 2_000);
    b.label("loop");
    b.andi(R2, R1, 1);
    b.beq(R2, R0, "even");
    b.addi(R3, R3, 1);
    b.label("even");
    b.addi(R1, R1, -1);
    b.bne(R1, R0, "loop");
    b.halt();
    let r = run(MachineConfig::base_8way(), &b.finish().unwrap(), 50_000);
    // After warm-up the alternating branch should be nearly perfect.
    assert!(
        r.stats.branch_dir_rate() > 0.95,
        "two-level predictor should capture alternation: {}",
        r.stats.branch_dir_rate()
    );
}

/// Indirect jumps through a changing target must pay target-misprediction
/// penalties.
#[test]
fn indirect_jumps_mispredict_on_changing_targets() {
    let mut b = ProgramBuilder::new(0x1000);
    // Alternate jr target between two blocks via a toggling register.
    b.li(R1, 600);
    b.li(R5, 0); // toggle
    b.label("loop");
    // target = (toggle & 1) ? blockB : blockA, read from a table
    b.li(R6, 0x9000);
    b.andi(R7, R5, 1);
    b.slli(R7, R7, 2);
    b.add(R7, R7, R6);
    b.lw(R8, R7, 0);
    b.jr(R8);
    b.label("blockA");
    b.addi(R3, R3, 1);
    b.j("join");
    b.label("blockB");
    b.addi(R4, R4, 1);
    b.label("join");
    b.addi(R5, R5, 1);
    b.addi(R1, R1, -1);
    b.bne(R1, R0, "loop");
    b.halt();
    let mut p = b.finish().unwrap();
    let dis = p.disassemble();
    let addr_of = |needle: &str| {
        dis.iter()
            .find(|(_, t)| t == needle)
            .map(|(a, _)| *a)
            .expect("instruction present")
    };
    // blockA starts at the first `addi r3, r3, 1`, blockB at `addi r4...`.
    let block_a = addr_of("addi r3, r3, 1");
    let block_b = addr_of("addi r4, r4, 1");
    p.data.push((
        0x9000,
        [block_a.to_le_bytes(), block_b.to_le_bytes()].concat(),
    ));
    let r = run(MachineConfig::base_8way(), &p, 50_000);
    assert!(r.halted);
    assert!(
        r.stats.target_mispredicts > 100,
        "alternating indirect targets should mispredict: {}",
        r.stats.target_mispredicts
    );
}

/// The two-level register file costs something on the WIB machine but
/// stays within a modest factor (the paper picked it because it barely
/// hurts).
#[test]
fn two_level_register_file_costs_little() {
    // em3d keeps enough values in flight that some register reads fall to
    // the second level.
    let w = wib::workloads::suite::olden::em3d(256, 8, 4);
    let two_level = run(MachineConfig::wib_2k(), w.program(), 20_000);
    let mut cfg = MachineConfig::wib_2k();
    cfg.regfile = RegFileConfig::SingleLevel;
    let single = run(cfg, w.program(), 20_000);
    assert!(
        two_level.stats.rf_l2_reads > 0,
        "two-level file never touched its L2"
    );
    assert_eq!(single.stats.rf_l2_reads, 0);
    let ratio = single.ipc() / two_level.ipc();
    assert!(
        ratio < 1.35,
        "two-level register file should cost modestly, lost {ratio:.2}x"
    );
}

/// The multi-banked register file (paper 3.4's alternative) co-simulates
/// and performs "similar" to the two-level file.
#[test]
fn multi_banked_register_file_is_similar() {
    let w = wib::workloads::suite::fp::art(2048, 2, 2);
    let two_level = run(MachineConfig::wib_2k(), w.program(), 15_000);
    let mut cfg = MachineConfig::wib_2k();
    cfg.regfile = RegFileConfig::multi_banked_8x2();
    let banked = run(cfg, w.program(), 15_000);
    let ratio = banked.ipc() / two_level.ipc();
    assert!(
        (0.8..=1.25).contains(&ratio),
        "multi-banked should be similar to two-level, got {ratio:.2}x"
    );
}

/// Store-wait training: after an order violation, re-executions of the
/// same load are gated and violations stop recurring every iteration.
#[test]
fn store_wait_training_reduces_replays() {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R9, 0x8000);
    b.li(R8, 5);
    b.li(R7, 400);
    b.label("loop");
    // Slow store address; fast conflicting load.
    b.mul(R1, R9, R8);
    b.mul(R1, R1, R8);
    b.sub(R1, R1, R1);
    b.add(R1, R1, R9);
    b.sw(R8, R1, 0);
    b.lw(R2, R9, 0);
    b.add(R3, R3, R2);
    b.addi(R7, R7, -1);
    b.bne(R7, R0, "loop");
    b.halt();
    let r = run(MachineConfig::base_8way(), &b.finish().unwrap(), 20_000);
    assert!(r.halted);
    assert!(
        r.stats.order_violations >= 1,
        "expected an initial violation"
    );
    // 400 iterations but far fewer replays: the predictor learned.
    assert!(
        r.stats.order_violations < 40,
        "store-wait table failed to train: {} replays",
        r.stats.order_violations
    );
}

/// The pipeline trace records a sane lifecycle ordering for every
/// instruction.
#[test]
fn trace_lifecycles_are_ordered() {
    let w = wib::workloads::suite::olden::em3d(64, 4, 2);
    let p = Processor::new(MachineConfig::wib_2k());
    let mut trace = Trace::new(256);
    let result = p.run(
        w.program(),
        RunOptions {
            sink: Some(&mut trace),
            ..RunLimit::instructions(5_000).into()
        },
    );
    assert!(result.stats.committed >= 256);
    assert_eq!(trace.len(), 256);
    let mut prev_commit = 0;
    for r in trace.records() {
        assert!(r.fetch <= r.dispatch, "{}: fetch after dispatch", r.seq);
        assert!(
            r.dispatch <= r.complete,
            "{}: dispatch after complete",
            r.seq
        );
        if let Some(issue) = r.issue {
            assert!(r.dispatch <= issue && issue <= r.complete);
        }
        assert!(r.complete <= r.commit, "{}: complete after commit", r.seq);
        assert!(r.commit >= prev_commit, "commit order must be monotonic");
        prev_commit = r.commit;
    }
    // On this pointer-chasing kernel some instructions must have parked.
    assert!(trace.records().any(|r| r.wib_trips > 0));
}

/// Occupancy histograms distinguish the small window from the WIB window.
#[test]
fn occupancy_statistics_show_the_window_difference() {
    let w = wib::workloads::suite::fp::art(2048, 2, 2);
    let base = Processor::new(MachineConfig::base_8way())
        .run(w.program(), RunLimit::instructions(20_000).into());
    let wib = Processor::new(MachineConfig::wib_2k())
        .run(w.program(), RunLimit::instructions(20_000).into());
    assert!(base.stats.occupancy_window.count() > 0);
    assert!(base.stats.occupancy_window.max() <= 128);
    assert!(
        wib.stats.occupancy_window.mean() > base.stats.occupancy_window.mean(),
        "the WIB machine should keep a deeper window: {} vs {}",
        wib.stats.occupancy_window.mean(),
        base.stats.occupancy_window.mean()
    );
    assert!(
        wib.stats.occupancy_wib.max() > 0,
        "WIB residency never sampled"
    );
}

/// Different commit widths change little on serial code but the machine
/// still co-simulates (exercises the commit-width parameter).
#[test]
fn commit_width_parameter_is_respected() {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 3_000);
    b.label("loop");
    b.addi(R2, R2, 1);
    b.addi(R3, R3, 1);
    b.addi(R4, R4, 1);
    b.addi(R1, R1, -1);
    b.bne(R1, R0, "loop");
    b.halt();
    let p = b.finish().unwrap();
    let mut narrow = MachineConfig::base_8way();
    narrow.commit_width = 1;
    let wide = run(MachineConfig::base_8way(), &p, 20_000);
    let one = run(narrow, &p, 20_000);
    // A 1-wide commit caps IPC at 1.
    assert!(
        one.ipc() <= 1.0 + 1e-9,
        "1-wide commit exceeded IPC 1: {}",
        one.ipc()
    );
    assert!(wide.ipc() > one.ipc());
}

/// Tiny issue queues still work and co-simulate (resource-pressure path).
#[test]
fn minimal_issue_queues_still_work() {
    let w = wib::workloads::suite::int::gzip(2048, 1);
    let mut cfg = MachineConfig::wib_2k();
    cfg.iq_int_size = 4;
    cfg.iq_fp_size = 4;
    let r = run(cfg, w.program(), 10_000);
    assert!(r.stats.committed > 0);
}

/// An instruction fetch queue of one serializes fetch but stays correct.
#[test]
fn single_entry_fetch_queue_works() {
    let w = wib::workloads::suite::olden::treeadd(6, 2);
    let mut cfg = MachineConfig::base_8way();
    cfg.ifq_size = 1;
    cfg.fetch_width = 1;
    cfg.decode_width = 1;
    let r = run(cfg, w.program(), 10_000);
    assert!(r.halted);
    assert!(r.ipc() <= 1.0 + 1e-9);
}
