//! Co-simulation validation sweep: every kernel (miniature instances) on
//! three machine configurations with the reference-interpreter checker
//! enabled. Any timing-model bookkeeping bug that corrupts architectural
//! state (forwarding, renaming, squash, ordering) panics immediately.

use wib_core::{MachineConfig, Processor, RunLimit};

fn main() {
    for w in wib_workloads::test_suite() {
        for (cname, cfg) in [
            ("base", MachineConfig::base_8way()),
            ("wib2k", MachineConfig::wib_2k()),
            ("conv1k", MachineConfig::conventional(1024)),
        ] {
            let mut p = Processor::new(cfg);
            p.enable_cosim();
            let r = p.run(w.program(), RunLimit::instructions(40_000).into());
            println!(
                "{:>10} {:>7}: {:>7} insts {:>8} cycles ipc {:.3} halted={}",
                w.name(),
                cname,
                r.stats.committed,
                r.stats.cycles,
                r.ipc(),
                r.halted
            );
        }
    }
    println!("co-simulation clean on all kernels and configurations");
}
