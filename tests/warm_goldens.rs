//! Warmed-run identity: every in-repo workload, fast-forwarded on the
//! reference interpreter (warming caches and TLBs) and then simulated in
//! detail, must produce *exactly* the statistics captured in the
//! committed goldens (`tests/goldens/warm/*.json`).
//!
//! The cold-start goldens of `tests/cycle_identity.rs` never run the
//! warm-up path, so this harness is what pins it: the interpreter, the
//! hierarchy's `warm_inst`/`warm_data` and the hand-over of architectural
//! state to the detailed machine. Each point is also re-run with the
//! co-simulation checker enabled, which takes the other hand-over branch
//! (the checker itself is fast-forwarded) and must give the same
//! fingerprint.
//!
//! To re-bless after an *intentional* timing change:
//!
//! ```text
//! WIB_BLESS=1 cargo test --test warm_goldens
//! ```

use std::path::PathBuf;
use wib_core::{Json, MachineConfig, Processor, RunLimit, RunOptions, WarmUpWork};
use wib_isa::interp::{Interpreter, StopReason};
use wib_workloads::{test_suite, Workload};

/// Instructions simulated in detail after the warm-up.
const INSTS: u64 = 5_000;

/// Longest warm-up used (keeps the debug-build run short).
const MAX_WARMUP: u64 = 40_000;

/// Machines every kernel runs on, plus the backends a subset runs on.
fn configs(kernel_index: usize) -> Vec<(&'static str, MachineConfig)> {
    let mut v = vec![
        ("base", MachineConfig::base_8way()),
        ("wib2k", MachineConfig::wib_2k()),
    ];
    if kernel_index % 4 == 0 {
        v.push((
            "runahead",
            MachineConfig::from_spec("base,backend=runahead").expect("spec parses"),
        ));
    }
    if kernel_index % 4 == 1 {
        v.push((
            "delay_track",
            MachineConfig::from_spec("wib:w=2048,backend=delay_track").expect("spec parses"),
        ));
    }
    v
}

/// Dynamic length of `w` on the reference interpreter.
fn kernel_length(w: &Workload) -> u64 {
    let mut i = Interpreter::new(w.program());
    let stop = i.run(10_000_000).expect("kernel interprets");
    assert_eq!(stop, StopReason::Halted, "{} halts", w.name());
    i.retired()
}

/// A warm-up that ends before the kernel halts and, where the kernel is
/// long enough, leaves 1,000 instructions of slack after the detailed run.
fn warmup_for(length: u64) -> u64 {
    if length > INSTS + 2_000 {
        (length - INSTS - 1_000).min(MAX_WARMUP)
    } else {
        length / 2
    }
}

/// Deterministic fingerprint of one warmed run: everything `--stats-json`
/// emits except the wall-clock fields.
fn fingerprint(w: &Workload, cname: &str, cfg: &MachineConfig, warmup: u64, cosim: bool) -> String {
    let mut cpu = Processor::new(cfg.clone());
    if cosim {
        cpu.enable_cosim();
    }
    let result = cpu.run(
        w.program(),
        RunOptions {
            warmup,
            ..RunLimit::instructions(INSTS).into()
        },
    );
    Json::obj()
        .field("schema", "wib-sim/warm-identity-v1")
        .field("benchmark", w.name())
        .field("config", cname)
        .field("warmup", warmup)
        .field("insts", INSTS)
        .field("halted", result.halted)
        .field("ipc", result.ipc())
        .field("stats", result.stats.to_json())
        .pretty()
}

#[test]
fn warmed_runs_match_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/warm");
    let bless = std::env::var("WIB_BLESS").is_ok();
    if bless {
        std::fs::create_dir_all(&dir).expect("create goldens directory");
    }
    let mut mismatches = Vec::new();
    for (k, w) in test_suite().iter().enumerate() {
        let length = kernel_length(w);
        let warmup = warmup_for(length);
        assert!(warmup < length, "{}: warm-up reaches halt", w.name());
        for (cname, cfg) in configs(k) {
            let got = fingerprint(w, cname, &cfg, warmup, false);
            let checked = fingerprint(w, cname, &cfg, warmup, true);
            assert_eq!(
                got,
                checked,
                "{} / {cname}: co-simulation changed stats",
                w.name()
            );
            let path = dir.join(format!("{}_{}.json", w.name(), cname));
            if bless {
                std::fs::write(&path, &got).expect("write golden");
                continue;
            }
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
            if got != want {
                mismatches.push(format!("{} / {}", w.name(), cname));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "warmed-run identity broken for {} run(s): {:?}\n\
         (diff tests/goldens/warm/*.json against a fresh WIB_BLESS=1 run to \
         see which statistics moved)",
        mismatches.len(),
        mismatches
    );
}

/// The warm-up's work counters repeat exactly. On em3d's first 3,000
/// instructions (1,556 of them loads or stores, a 39-word code image,
/// two 4 KB pages of memory) the warm-up decodes each code word once,
/// makes one TLB or L1 lookup per new page or line rather than two per
/// instruction and two per memory op, and copies the warmed memory once.
#[test]
fn warm_up_work_counts_are_exact() {
    let w = test_suite()
        .into_iter()
        .find(|w| w.name() == "em3d")
        .expect("known workload");
    let run = |cosim: bool| {
        let mut cpu = Processor::new(MachineConfig::base_8way());
        if cosim {
            cpu.enable_cosim();
        }
        cpu.run(
            w.program(),
            RunOptions {
                warmup: 3_000,
                ..RunLimit::instructions(100).into()
            },
        )
        .warmup_work
    };
    let want = WarmUpWork {
        decodes: 39,
        hier_lookups: 1_488,
        bytes_cloned: 8_192,
    };
    assert_eq!(run(false), want);
    assert_eq!(run(true), want);
    let cold = Processor::new(MachineConfig::base_8way())
        .run(w.program(), RunLimit::instructions(100).into());
    assert_eq!(cold.warmup_work, WarmUpWork::default());
}
