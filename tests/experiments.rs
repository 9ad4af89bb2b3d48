//! Smoke tests for the experiment harness configurations: every machine
//! the figures use runs correctly, and the headline qualitative results
//! hold even on miniature inputs.

use wib::core::{MachineConfig, Processor, RunLimit, WibOrganization};
use wib::workloads::suite::{fp, olden};

fn ipc(cfg: MachineConfig, program: &wib::isa::program::Program, insts: u64) -> f64 {
    Processor::new(cfg)
        .run(program, RunLimit::instructions(insts).into())
        .ipc()
}

/// A memory-parallel kernel big enough to overwhelm the caches even in
/// miniature (the independent-miss stream the WIB is built for).
fn mlp_kernel() -> wib::isa::program::Program {
    use wib::isa::asm::ProgramBuilder;
    use wib::isa::reg::*;
    let mut b = ProgramBuilder::new(0x1000);
    b.li(R1, 0x20_0000);
    b.li(R4, 4_000);
    b.label("loop");
    b.lw(R2, R1, 0);
    b.add(R5, R5, R2);
    b.addi(R1, R1, 4096);
    b.addi(R4, R4, -1);
    b.bne(R4, R0, "loop");
    b.halt();
    b.finish().expect("assembles")
}

#[test]
fn figure1_larger_windows_help_mlp() {
    let p = mlp_kernel();
    let small = ipc(MachineConfig::conventional(32), &p, 15_000);
    let large = ipc(MachineConfig::conventional(2048), &p, 15_000);
    assert!(
        large > 2.0 * small,
        "2K window should crush the 32-entry one on independent misses: {small} vs {large}"
    );
}

#[test]
fn figure4_wib_captures_most_of_the_large_window() {
    let p = mlp_kernel();
    let base = ipc(MachineConfig::base_8way(), &p, 15_000);
    let big_iq = ipc(MachineConfig::conventional(2048), &p, 15_000);
    let wib = ipc(MachineConfig::wib_2k(), &p, 15_000);
    assert!(
        wib > base * 1.5,
        "WIB should clearly beat base: {base} vs {wib}"
    );
    assert!(
        wib > 0.5 * big_iq,
        "WIB should capture a significant fraction of 2K-IQ: {wib} vs {big_iq}"
    );
}

#[test]
fn figure5_bit_vectors_scale_monotonically_ish() {
    let p = mlp_kernel();
    let few = ipc(MachineConfig::wib_2k().with_bit_vectors(2), &p, 15_000);
    let many = ipc(MachineConfig::wib_2k(), &p, 15_000);
    assert!(
        many >= few * 0.95,
        "unlimited bit-vectors should not lose to 2: {few} vs {many}"
    );
}

#[test]
fn figure6_capacity_scales() {
    let p = mlp_kernel();
    let small = ipc(MachineConfig::wib_sized(128), &p, 15_000);
    let large = ipc(MachineConfig::wib_sized(2048), &p, 15_000);
    assert!(
        large >= small * 0.95,
        "2K WIB should not lose to 128: {small} vs {large}"
    );
}

#[test]
fn figure7_nonbanked_is_close_to_banked() {
    let w = olden::em3d(256, 4, 3);
    let banked = ipc(MachineConfig::wib_2k(), w.program(), 20_000);
    for latency in [4u64, 6] {
        let cfg =
            MachineConfig::wib_2k().with_wib_organization(WibOrganization::NonBanked { latency });
        let non = ipc(cfg, w.program(), 20_000);
        // The paper: "only slight reductions in performance".
        assert!(
            non > 0.7 * banked,
            "{latency}-cycle non-banked too far below banked: {non} vs {banked}"
        );
    }
}

#[test]
fn recycling_statistics_are_collected() {
    // The stencil waits on multiple misses per instruction: at least some
    // instructions should take more than one WIB trip.
    let w = fp::mgrid(16, 4);
    let r = Processor::new(MachineConfig::wib_2k())
        .run(w.program(), RunLimit::instructions(30_000).into());
    assert!(r.stats.wib_insertions > 0, "mgrid never used the WIB");
    assert!(
        r.stats.wib_insertions_committed >= r.stats.wib_touched_insts,
        "trip accounting is inconsistent"
    );
}

#[test]
fn sensitivity_shorter_memory_latency_shrinks_the_gain() {
    let p = mlp_kernel();
    let speedup_at = |lat: u64| {
        let base = ipc(
            MachineConfig::base_8way().with_memory_latency(lat),
            &p,
            15_000,
        );
        let wib = ipc(MachineConfig::wib_2k().with_memory_latency(lat), &p, 15_000);
        wib / base
    };
    let s250 = speedup_at(250);
    let s100 = speedup_at(100);
    assert!(
        s100 < s250,
        "less latency to tolerate should mean less WIB gain: 100c {s100} vs 250c {s250}"
    );
}

#[test]
fn runs_are_deterministic() {
    let w = olden::treeadd(8, 2);
    let cfg = MachineConfig::wib_2k();
    let a = Processor::new(cfg.clone()).run(w.program(), RunLimit::instructions(20_000).into());
    let b = Processor::new(cfg).run(w.program(), RunLimit::instructions(20_000).into());
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.committed, b.stats.committed);
    assert_eq!(a.stats.wib_insertions, b.stats.wib_insertions);
}

#[test]
fn table2_statistics_are_sane() {
    for w in wib::workloads::test_suite() {
        let r = Processor::new(MachineConfig::base_8way())
            .run(w.program(), RunLimit::instructions(10_000).into());
        let s = &r.stats;
        assert!(
            s.ipc() > 0.0 && s.ipc() <= 8.0,
            "{}: ipc {}",
            w.name(),
            s.ipc()
        );
        let rate = s.branch_dir_rate();
        assert!((0.0..=1.0).contains(&rate), "{}: dir rate {rate}", w.name());
        assert!(s.mem.l1d_miss_ratio() <= 1.0);
        assert!(s.mem.l2_local_miss_ratio() <= 1.0);
    }
}
