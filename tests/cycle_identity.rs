//! Cycle-identity harness: every in-repo workload, run on a spread of
//! machine configurations, must produce *exactly* the statistics captured
//! in the committed golden fixtures (`tests/goldens/*.json`).
//!
//! The goldens were blessed from the pre-optimization simulator, so this
//! test proves that performance rewrites of the cycle loop (arena issue
//! queue, in-place WIB extraction, hoisted scratch buffers, the event
//! wheel) are cycle-for-cycle identical to the original data structures:
//! cycles, commits, the full CPI stack, WIB insertion/extraction counts
//! and the interval time-series all have to match byte for byte.
//!
//! To re-bless after an *intentional* timing change:
//!
//! ```text
//! WIB_BLESS=1 cargo test --test cycle_identity
//! ```

use std::path::PathBuf;
use wib_core::{Json, MachineConfig, Processor, RunLimit, SelectionPolicy, WibOrganization};
use wib_workloads::test_suite;

/// Instructions simulated in detail (cold start: every workload begins
/// with compulsory misses, which exercises the WIB paths hard).
const INSTS: u64 = 10_000;

/// Configurations chosen to cover every extraction/selection code path:
/// no WIB, banked bit-vector, non-banked (global eligible set), ideal
/// round-robin (per-column draining) and the pool-of-blocks organization.
fn configs() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("base", MachineConfig::base_8way()),
        ("wib2k", MachineConfig::wib_2k()),
        (
            "nonbanked4",
            MachineConfig::wib_2k()
                .with_wib_organization(WibOrganization::NonBanked { latency: 4 }),
        ),
        (
            "ideal_rr",
            MachineConfig::wib_2k()
                .with_wib_organization(WibOrganization::Ideal)
                .with_wib_policy(SelectionPolicy::RoundRobinLoads),
        ),
        ("pool4x64", MachineConfig::wib_pool(4, 64)),
        // Tiny stats epoch: quiescent fast-forwards cross interval
        // boundaries constantly, so this golden pins the skip's
        // per-interval attribution (each interval's committed count and
        // occupancy samples), not just end-of-run totals.
        (
            "wib2k_epoch64",
            MachineConfig::wib_2k().with_stats_epoch(64),
        ),
    ]
}

/// Deterministic fingerprint of one run: everything `--stats-json` emits
/// except the wall-clock fields.
fn fingerprint(bench: &str, cname: &str, cfg: &MachineConfig) -> String {
    let workload = test_suite()
        .into_iter()
        .find(|w| w.name() == bench)
        .expect("known workload");
    let result =
        Processor::new(cfg.clone()).run(workload.program(), RunLimit::instructions(INSTS).into());
    Json::obj()
        .field("schema", "wib-sim/cycle-identity-v1")
        .field("benchmark", bench)
        .field("config", cname)
        .field("insts", INSTS)
        .field("halted", result.halted)
        .field("ipc", result.ipc())
        .field("stats", result.stats.to_json())
        .pretty()
}

#[test]
fn all_workloads_match_seed_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let bless = std::env::var("WIB_BLESS").is_ok();
    if bless {
        std::fs::create_dir_all(&dir).expect("create goldens directory");
    }
    let configs = configs();
    let mut mismatches = Vec::new();
    for w in test_suite() {
        for (cname, cfg) in &configs {
            let got = fingerprint(w.name(), cname, cfg);
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
        "cycle-identity broken for {} run(s): {:?}\n\
         (diff tests/goldens/*.json against a fresh WIB_BLESS=1 run to see \
         which statistics moved)",
        mismatches.len(),
        mismatches
    );
}
