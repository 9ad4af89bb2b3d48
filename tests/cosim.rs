//! Architectural co-simulation: the detailed pipeline must commit exactly
//! the interpreter's instruction stream — same PCs, same destination
//! values — on every kernel and machine configuration, including randomly
//! generated programs (fuzzing the rename/forward/squash machinery).

use wib::core::{MachineConfig, Processor, RunLimit, SelectionPolicy, WibOrganization};
use wib::isa::asm::ProgramBuilder;
use wib::isa::program::Program;
use wib::isa::reg::*;
use wib::workloads::test_suite;
use wib_rng::StdRng;

fn cosim(cfg: MachineConfig, program: &Program, insts: u64) -> wib::core::RunResult {
    let mut p = Processor::new(cfg);
    p.enable_cosim();
    p.run(program, RunLimit::instructions(insts).into())
}

#[test]
fn all_kernels_on_base_machine() {
    for w in test_suite() {
        let r = cosim(MachineConfig::base_8way(), w.program(), 25_000);
        assert!(r.stats.committed > 0, "{} committed nothing", w.name());
    }
}

#[test]
fn all_kernels_on_wib_machine() {
    for w in test_suite() {
        let r = cosim(MachineConfig::wib_2k(), w.program(), 25_000);
        assert!(r.stats.committed > 0, "{} committed nothing", w.name());
    }
}

#[test]
fn all_kernels_on_scaled_conventional_machine() {
    for w in test_suite() {
        cosim(MachineConfig::conventional(1024), w.program(), 15_000);
    }
}

#[test]
fn all_kernels_on_small_wib_machine() {
    for w in test_suite() {
        cosim(
            MachineConfig::wib_sized(128).with_bit_vectors(4),
            w.program(),
            15_000,
        );
    }
}

#[test]
fn all_kernels_with_long_fp_op_diversion() {
    for w in test_suite() {
        cosim(
            MachineConfig::wib_2k().with_long_fp_divert(),
            w.program(),
            15_000,
        );
    }
}

#[test]
fn all_kernels_on_pool_of_blocks_wib() {
    for w in test_suite() {
        cosim(MachineConfig::wib_pool(8, 256), w.program(), 15_000);
    }
}

#[test]
fn all_kernels_on_starved_pool_wib() {
    // A pool small enough to be refused constantly still commits the
    // right architectural stream.
    for w in test_suite() {
        cosim(MachineConfig::wib_pool(2, 4), w.program(), 10_000);
    }
}

#[test]
fn all_kernels_on_nonbanked_wib() {
    let cfg =
        MachineConfig::wib_2k().with_wib_organization(WibOrganization::NonBanked { latency: 6 });
    for w in test_suite() {
        cosim(cfg.clone(), w.program(), 15_000);
    }
}

#[test]
fn all_kernels_on_ideal_wib_policies() {
    for policy in [
        SelectionPolicy::ProgramOrder,
        SelectionPolicy::RoundRobinLoads,
        SelectionPolicy::OldestLoadFirst,
    ] {
        let cfg = MachineConfig::wib_2k()
            .with_wib_organization(WibOrganization::Ideal)
            .with_wib_policy(policy);
        for w in test_suite() {
            cosim(cfg.clone(), w.program(), 10_000);
        }
    }
}

// ---------------------------------------------------------------------
// Random-program fuzzing
// ---------------------------------------------------------------------

const SCRATCH: u32 = 0x9000;

/// Generate a random but always-terminating program: an 8-iteration
/// counted loop around a block of random ALU/FP/memory instructions and
/// short forward branches, plus a leaf call.
fn random_program(seed: u64) -> Program {
    let mut r = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(0x1000);
    let int_regs = [R1, R2, R3, R4, R5, R6, R7, R8];
    let fp_regs = [F1, F2, F3, F4, F5, F6];
    let pick = |r: &mut StdRng, pool: &[ArchReg]| pool[r.random_range(0..pool.len())];

    b.li(R16, SCRATCH);
    b.li(R15, 8); // loop counter
                  // Seed some registers.
    for (i, reg) in int_regs.iter().enumerate() {
        b.li(*reg, (seed as u32).wrapping_mul(i as u32 + 3) & 0xffff);
    }
    b.data_f64(SCRATCH as u32, &[1.5, -2.25, 3.0, 0.5]);
    for (i, reg) in fp_regs.iter().enumerate() {
        b.fld(*reg, R16, (8 * (i % 4)) as i32);
    }
    b.label("loop");
    let block_len = r.random_range(20..60);
    let mut skip = 0u32;
    for i in 0..block_len {
        if skip > 0 {
            skip -= 1;
        }
        match r.random_range(0..10) {
            0 => {
                let (d, a, c) = (
                    pick(&mut r, &int_regs),
                    pick(&mut r, &int_regs),
                    pick(&mut r, &int_regs),
                );
                match r.random_range(0..5) {
                    0 => b.add(d, a, c),
                    1 => b.sub(d, a, c),
                    2 => b.xor(d, a, c),
                    3 => b.mul(d, a, c),
                    _ => b.slt(d, a, c),
                };
            }
            1 => {
                let (d, a) = (pick(&mut r, &int_regs), pick(&mut r, &int_regs));
                b.addi(d, a, r.random_range(-100..100));
            }
            2 => {
                // Load from scratch.
                let d = pick(&mut r, &int_regs);
                b.lw(d, R16, r.random_range(0..1020) & !3);
            }
            3 => {
                // Store to scratch.
                let s = pick(&mut r, &int_regs);
                b.sw(s, R16, r.random_range(0..1020) & !3);
            }
            4 => {
                let (d, a, c) = (
                    pick(&mut r, &fp_regs),
                    pick(&mut r, &fp_regs),
                    pick(&mut r, &fp_regs),
                );
                match r.random_range(0..4) {
                    0 => b.fadd(d, a, c),
                    1 => b.fsub(d, a, c),
                    2 => b.fmul(d, a, c),
                    _ => b.fdiv(d, a, c),
                };
            }
            5 => {
                let d = pick(&mut r, &fp_regs);
                b.fld(d, R16, (r.random_range(0..127) * 8) % 1024);
            }
            6 => {
                let s = pick(&mut r, &fp_regs);
                b.fsd(s, R16, (r.random_range(0..127) * 8) % 1024);
            }
            7 if skip == 0 && i + 4 < block_len => {
                // Short forward branch (sometimes mispredicted).
                let (a, c) = (pick(&mut r, &int_regs), pick(&mut r, &int_regs));
                let label = format!("skip_{seed}_{i}");
                match r.random_range(0..3) {
                    0 => b.beq(a, c, &label),
                    1 => b.bne(a, c, &label),
                    _ => b.blt(a, c, &label),
                };
                skip = r.random_range(1..4);
                // Emit the skipped instructions then the label.
                for _ in 0..skip {
                    let (d, a2) = (pick(&mut r, &int_regs), pick(&mut r, &int_regs));
                    b.addi(d, a2, 1);
                }
                b.label(&label);
                skip = 0;
            }
            8 => {
                let (d, a) = (pick(&mut r, &int_regs), pick(&mut r, &fp_regs));
                b.cvtfi(d, a);
            }
            _ => {
                let (d, a) = (pick(&mut r, &fp_regs), pick(&mut r, &int_regs));
                b.cvtif(d, a);
            }
        }
    }
    // Leaf call to stress the RAS.
    b.li(SP, 0xf0000);
    b.jal("leaf");
    b.addi(R15, R15, -1);
    b.bne(R15, R0, "loop");
    b.halt();
    b.label("leaf");
    b.addi(R9, R9, 7);
    b.ret();
    b.finish().expect("random program assembles")
}

#[test]
fn random_programs_cosimulate_on_all_machines() {
    for seed in 0..16u64 {
        let program = random_program(seed);
        let base = cosim(MachineConfig::base_8way(), &program, 50_000);
        let wib = cosim(MachineConfig::wib_2k(), &program, 50_000);
        let conv = cosim(MachineConfig::conventional(256), &program, 50_000);
        assert!(
            base.halted && wib.halted && conv.halted,
            "seed {seed} did not halt"
        );
        assert_eq!(
            base.stats.committed, wib.stats.committed,
            "seed {seed}: commit counts diverge"
        );
        assert_eq!(base.stats.committed, conv.stats.committed);
    }
}

#[test]
fn random_programs_with_tiny_caches_and_windows() {
    // A hostile configuration: tiny window, tiny WIB, few bit-vectors.
    let mut cfg = MachineConfig::wib_sized(128).with_bit_vectors(2);
    cfg.iq_int_size = 8;
    cfg.iq_fp_size = 8;
    for seed in 16..24u64 {
        let program = random_program(seed);
        let r = cosim(cfg.clone(), &program, 50_000);
        assert!(r.halted, "seed {seed} did not halt");
    }
}
