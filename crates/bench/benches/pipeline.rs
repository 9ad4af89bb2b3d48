//! Whole-core simulation throughput: simulated instructions per
//! wall-clock second for the base and WIB machines. Uses the in-repo
//! `timer` harness (no external bench framework) so everything builds
//! offline.

use std::hint::black_box;
use wib_bench::timer::Harness;
use wib_core::{MachineConfig, Processor, RunLimit};
use wib_isa::asm::ProgramBuilder;
use wib_isa::program::Program;
use wib_isa::reg::*;

fn kernel() -> Program {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 0x20_0000);
    b.li(R4, 1_000_000);
    b.label("loop");
    b.lw(R2, R1, 0);
    b.add(R3, R2, R2);
    b.add(R5, R5, R3);
    b.addi(R1, R1, 64);
    b.andi(R1, R1, 0x7fff);
    b.li(R6, 0x20_0000);
    b.or(R1, R1, R6);
    b.addi(R4, R4, -1);
    b.bne(R4, R0, "loop");
    b.halt();
    b.finish().expect("assembles")
}

fn main() {
    const INSTS: u64 = 20_000;
    let h = Harness::from_env();
    let program = kernel();
    for (name, cfg) in [
        ("pipeline/base_8way", MachineConfig::base_8way()),
        ("pipeline/wib_2k", MachineConfig::wib_2k()),
        (
            "pipeline/conventional_2k",
            MachineConfig::conventional(2048),
        ),
    ] {
        let p = Processor::new(cfg);
        let secs = h.bench(name, || {
            black_box(p.run(&program, RunLimit::instructions(INSTS).into()));
        });
        println!(
            "{name:<40} {:>10.2} M simulated insts/s",
            INSTS as f64 / secs / 1e6
        );
    }
}
