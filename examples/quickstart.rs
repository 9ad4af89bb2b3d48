//! Quickstart: assemble a small program, run it on the paper's base
//! machine and on the WIB machine, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wib::core::{MachineConfig, Processor, RunLimit};
use wib::isa::asm::ProgramBuilder;
use wib::isa::reg::*;

fn main() {
    // A loop that chases independent cache misses: each iteration loads
    // from a fresh page, then does dependent arithmetic on the value.
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 0x20_0000); // array base
    b.li(R4, 2_000); // iterations
    b.li(R5, 0);
    b.label("loop");
    b.lw(R2, R1, 0); // miss to DRAM
    b.add(R3, R2, R2); // dependent
    b.add(R5, R5, R3); // dependent
    b.addi(R1, R1, 4096); // next page: independent misses
    b.addi(R4, R4, -1);
    b.bne(R4, R0, "loop");
    b.halt();
    let program = b.finish().expect("assembles");

    let limit = RunLimit::instructions(50_000);
    let base = Processor::new(MachineConfig::base_8way()).run(&program, limit.into());
    let wib = Processor::new(MachineConfig::wib_2k()).run(&program, limit.into());

    println!("base machine (32-entry issue queue, 128-entry window):");
    println!(
        "  IPC = {:.3} over {} cycles",
        base.ipc(),
        base.stats.cycles
    );
    println!("WIB machine (same issue queue + 2K-entry waiting instruction buffer):");
    println!("  IPC = {:.3} over {} cycles", wib.ipc(), wib.stats.cycles);
    println!(
        "  {} instructions took {} trips through the WIB",
        wib.stats.wib_touched_insts, wib.stats.wib_insertions
    );
    println!("speedup: {:.2}x", wib.ipc() / base.ipc());
}
