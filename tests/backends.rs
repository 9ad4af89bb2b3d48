//! The latency-tolerance backend arena (tier-1).
//!
//! All four `backend=` machines — the conventional base, the WIB, the
//! runahead pre-executor and the load-delay-tracking scheduler — share
//! one fetch/rename/commit spine and must agree on architecture: every
//! run here is co-simulated against the reference interpreter, and under
//! `--features checked` also runs the per-cycle machine-check invariants
//! (including the delay-queue checker and the cross-structure ownership
//! census). Performance-wise,
//! runahead must actually earn its keep on an L2-miss-heavy kernel, and
//! each backend's own machinery must demonstrably engage.

use wib::core::{MachineConfig, Processor, RunLimit, RunResult};
use wib::isa::asm::ProgramBuilder;
use wib::isa::program::Program;
use wib::isa::reg::*;
use wib::workloads::test_suite;

/// The four arena machines, by backend name.
fn arena() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("base", MachineConfig::base_8way()),
        ("wib", MachineConfig::wib_2k()),
        ("runahead", MachineConfig::runahead_8way()),
        ("delay_track", MachineConfig::delay_track_2k()),
    ]
}

fn checked_cosim(cfg: MachineConfig, program: &Program, insts: u64) -> RunResult {
    let mut p = Processor::new(cfg);
    // Architectural lockstep always; the per-cycle invariant checkers
    // and ownership census arm with the rest of the suite under
    // `--features checked` (the offline gate's dedicated release phase —
    // they are an order of magnitude too slow for the debug tier).
    p.enable_cosim();
    p.run(program, RunLimit::instructions(insts).into())
}

/// Independent streaming loads, one DRAM miss per iteration: the regime
/// the paper's latency-tolerance mechanisms target.
fn streaming_misses() -> Program {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 0x20_0000);
    b.li(R4, 64);
    b.li(R5, 0);
    b.label("loop");
    b.lw(R2, R1, 0); // miss
    b.add(R3, R2, R2); // dependent
    b.add(R5, R5, R3);
    b.addi(R1, R1, 4096); // next page
    b.addi(R4, R4, -1);
    b.bne(R4, R0, "loop");
    b.halt();
    b.finish().unwrap()
}

/// A dependent pointer chase: serialized DRAM misses, where runahead can
/// do little (the next address is the missing data) but must stay
/// architecturally exact anyway.
fn pointer_chase() -> Program {
    let mut b = ProgramBuilder::new(0x1000);
    let nodes = 32u32;
    let base = 0x10_0000u32;
    let stride = 4096 + 64;
    let addrs: Vec<u32> = (0..nodes).map(|i| base + i * stride).collect();
    for i in 0..nodes as usize {
        let next = if i + 1 < nodes as usize {
            addrs[i + 1]
        } else {
            0
        };
        b.data_u32(addrs[i], &[next, i as u32]);
    }
    b.li(R1, addrs[0]);
    b.li(R3, 0);
    b.label("walk");
    b.lw(R2, R1, 4);
    b.add(R3, R3, R2);
    b.lw(R1, R1, 0); // dependent miss
    b.bne(R1, R0, "walk");
    b.halt();
    b.finish().unwrap()
}

#[test]
fn all_kernels_run_checked_on_all_backends() {
    // The per-cycle checkers are an order of magnitude slower without
    // optimization; a debug (`cargo test -q`) run covers the same
    // kernel x backend matrix on a shorter leash.
    let insts = if cfg!(debug_assertions) { 500 } else { 5_000 };
    for w in test_suite() {
        for (name, cfg) in arena() {
            let r = checked_cosim(cfg, w.program(), insts);
            assert!(
                r.stats.committed > 0,
                "{}/{name} committed nothing",
                w.name()
            );
        }
    }
}

#[test]
fn backends_agree_on_committed_work() {
    // On a program every machine runs to `halt`, the committed
    // instruction count is an architectural fact: all four backends must
    // agree exactly (runahead's pseudo-retired instructions must never
    // leak into the commit counters).
    for prog in [streaming_misses(), pointer_chase()] {
        let mut runs = Vec::new();
        for (name, cfg) in arena() {
            let r = checked_cosim(cfg, &prog, 50_000);
            assert!(r.halted, "{name} did not halt");
            runs.push((name, r.stats.committed));
        }
        let want = runs[0].1;
        for (name, got) in &runs {
            assert_eq!(*got, want, "{name} committed {got}, base committed {want}");
        }
    }
}

#[test]
fn runahead_beats_base_on_streaming_misses() {
    let prog = streaming_misses();
    let base = checked_cosim(MachineConfig::base_8way(), &prog, 10_000);
    let ra = checked_cosim(MachineConfig::runahead_8way(), &prog, 10_000);
    assert!(base.halted && ra.halted);
    assert!(
        ra.stats.runahead_episodes > 0,
        "runahead never entered an episode"
    );
    assert!(
        ra.stats.runahead_pseudo_retired > 0,
        "episodes pre-executed nothing"
    );
    assert!(
        ra.ipc() > base.ipc(),
        "runahead {} should beat base {} when misses are prefetchable",
        ra.ipc(),
        base.ipc()
    );
}

#[test]
fn delay_tracking_engages_and_keeps_up() {
    let prog = streaming_misses();
    let base = checked_cosim(MachineConfig::base_8way(), &prog, 10_000);
    let dt = checked_cosim(MachineConfig::delay_track_2k(), &prog, 10_000);
    assert!(base.halted && dt.halted);
    assert!(dt.stats.delay_parked > 0, "nothing ever parked");
    assert_eq!(
        dt.stats.delay_parked, dt.stats.delay_reinserted,
        "every parked instruction must reinsert (none were squashed here)"
    );
    // Parking dependents frees the issue queue like the WIB does; on this
    // kernel that must not cost throughput.
    assert!(
        dt.ipc() >= base.ipc(),
        "delay tracking {} fell behind base {}",
        dt.ipc(),
        base.ipc()
    );
}

#[test]
fn backend_stats_section_is_gated() {
    // Base/WIB runs serialize without a `backend` stats section (the 90
    // cycle-identity goldens pin that); the new backends name themselves.
    let prog = streaming_misses();
    for (name, cfg) in arena() {
        let r = checked_cosim(cfg, &prog, 10_000);
        let json = r.stats.to_json().to_string();
        match name {
            "base" | "wib" => {
                assert_eq!(r.stats.backend, "");
                assert!(
                    !json.contains("\"backend\""),
                    "{name} emitted a backend section"
                );
            }
            _ => {
                assert_eq!(r.stats.backend, name);
                assert!(
                    json.contains("\"backend\""),
                    "{name} lost its backend section"
                );
            }
        }
    }
}

#[test]
fn backend_specs_build_working_processors() {
    // The spec strings the sweep/serve planes pass around reconstruct
    // machines that actually run — the full axis, through `from_spec`.
    let prog = streaming_misses();
    for spec in [
        "base",
        "wib:w=2048",
        "base,backend=runahead",
        "base,backend=runahead,rathresh=64",
        "wib:w=2048,backend=delay_track",
        "wib:w=512,backend=delay_track,dtthresh=24",
    ] {
        let cfg = MachineConfig::from_spec(spec).expect(spec);
        assert_eq!(MachineConfig::from_spec(&cfg.to_spec()).unwrap(), cfg);
        let r = checked_cosim(cfg, &prog, 5_000);
        assert!(r.halted, "{spec} did not halt");
    }
}
