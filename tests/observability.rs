//! The observability layer, end to end: the pipeline event stream agrees
//! with the aggregate statistics, the CPI stack sums exactly to the cycle
//! count, the interval time-series has the promised cadence, and the JSON
//! export keeps a stable schema (key order is part of the contract).

use wib::core::trace::Trace;
use wib::core::{
    CountingSink, CpiCategory, EventKind, MachineConfig, Processor, RunLimit, RunOptions,
    RunResult, TextSink, CPI_CATEGORIES,
};
use wib::isa::program::Program;

fn em3d() -> wib::workloads::Workload {
    wib::workloads::suite::olden::em3d(64, 4, 2)
}

fn run(cfg: MachineConfig, p: &Program, n: u64) -> RunResult {
    Processor::new(cfg).run(p, RunLimit::instructions(n).into())
}

/// Every cycle lands in exactly one CPI category, so the stack totals the
/// cycle count — on every machine organization, halted or limit-stopped.
#[test]
fn cpi_stack_sums_exactly_to_cycles() {
    let configs = [
        ("base", MachineConfig::base_8way()),
        ("wib2k", MachineConfig::wib_2k()),
        ("pool", MachineConfig::wib_pool(4, 64)),
        ("conv", MachineConfig::conventional(512)),
    ];
    for w in wib::workloads::test_suite() {
        for (name, cfg) in &configs {
            for insts in [500, 20_000] {
                let r = run(cfg.clone(), w.program(), insts);
                assert_eq!(
                    r.stats.cpi.total(),
                    r.stats.cycles,
                    "CPI stack must sum to cycles: {} on {name} ({insts} insts)",
                    w.name()
                );
            }
        }
    }
}

/// A memory-bound kernel must show memory stall cycles in the stack, and
/// the base category must match the committing cycles.
#[test]
fn cpi_stack_attributes_memory_stalls() {
    let r = run(MachineConfig::base_8way(), em3d().program(), 20_000);
    let mem_cycles = r.stats.cpi.get(CpiCategory::L1dMiss) + r.stats.cpi.get(CpiCategory::L2Miss);
    assert!(
        mem_cycles > r.stats.cycles / 20,
        "em3d on the base machine should stall on memory: {mem_cycles} of {} cycles",
        r.stats.cycles
    );
    assert!(r.stats.cpi.get(CpiCategory::Base) > 0);
}

/// The counting sink's event totals agree with the aggregate statistics
/// the engine keeps independently.
#[test]
fn counting_sink_agrees_with_sim_stats() {
    for cfg in [MachineConfig::base_8way(), MachineConfig::wib_2k()] {
        let mut sink = CountingSink::new();
        let p = Processor::new(cfg);
        let r = p.run(
            em3d().program(),
            RunOptions {
                sink: Some(&mut sink),
                ..RunLimit::instructions(20_000).into()
            },
        );
        assert_eq!(sink.count(EventKind::Fetch), r.stats.fetched);
        assert_eq!(sink.count(EventKind::Dispatch), r.stats.dispatched);
        assert_eq!(sink.count(EventKind::Issue), r.stats.issued);
        assert_eq!(sink.count(EventKind::Commit), r.stats.committed);
        assert_eq!(sink.count(EventKind::WibInsert), r.stats.wib_insertions);
        assert_eq!(sink.count(EventKind::WibExtract), r.stats.wib_extractions);
        assert_eq!(sink.count(EventKind::MshrMerge), r.stats.mem.mshr_merges);
        // Every miss that started also finished (or was squashed): finish
        // events can only lag, never lead.
        assert!(sink.count(EventKind::MissFinish) <= sink.count(EventKind::MissStart));
        // Commits complete exactly once; wrong-path instructions may
        // complete and be squashed, so completes can exceed commits.
        assert!(sink.count(EventKind::Complete) >= r.stats.committed);
    }
}

/// WIB traffic lands in the banks `slot % banks` predicts, and spreads
/// over more than one bank on a banked configuration.
#[test]
fn banked_wib_traffic_is_per_bank() {
    let mut sink = CountingSink::new();
    let p = Processor::new(MachineConfig::wib_2k());
    let r = p.run(
        em3d().program(),
        RunOptions {
            sink: Some(&mut sink),
            ..RunLimit::instructions(20_000).into()
        },
    );
    assert!(r.stats.wib_insertions > 0, "kernel must exercise the WIB");
    let inserted: u64 = sink.bank_inserts().iter().sum();
    assert_eq!(inserted, r.stats.wib_insertions);
    let active = sink.bank_inserts().iter().filter(|&&n| n > 0).count();
    assert!(active > 1, "banked WIB should use multiple banks: {active}");
}

/// The interval series samples every `stats_epoch` cycles: length is
/// exactly `cycles / epoch`, cycle stamps are the epoch boundaries, and
/// the per-interval commit deltas sum to the committed total at the last
/// boundary.
#[test]
fn interval_series_has_epoch_cadence() {
    let epoch = 500u64;
    let cfg = MachineConfig::wib_2k().with_stats_epoch(epoch);
    let r = run(cfg, em3d().program(), 30_000);
    let n = r.stats.intervals.len() as u64;
    assert_eq!(n, r.stats.cycles / epoch, "cycles={}", r.stats.cycles);
    assert!(n > 3, "test must cover several epochs");
    for (i, s) in r.stats.intervals.iter().enumerate() {
        assert_eq!(s.cycle, (i as u64 + 1) * epoch);
        assert!(s.ipc <= 8.0, "IPC beyond machine width");
    }
    let committed: u64 = r.stats.intervals.iter().map(|s| s.committed).sum();
    assert!(committed <= r.stats.committed);
    let tail = r.stats.committed - committed;
    assert!(
        tail <= 8 * epoch,
        "unsampled tail longer than an epoch's worth of commits: {tail}"
    );
    // A WIB kernel's series should show occupancy.
    assert!(r.stats.intervals.iter().any(|s| s.window_occupancy > 0));
}

/// The JSON export's schema is stable: top-level keys, CPI categories and
/// interval fields appear in a fixed order (goldens for downstream
/// tooling — changing them is an intentional schema break).
#[test]
fn stats_json_schema_is_stable() {
    let cfg = MachineConfig::wib_2k().with_stats_epoch(1_000);
    let r = run(cfg, em3d().program(), 5_000);
    let j = r.stats.to_json();
    assert_eq!(
        j.keys(),
        vec![
            "cycles",
            "committed",
            "ipc",
            "fetched",
            "dispatched",
            "issued",
            "committed_loads",
            "committed_stores",
            "cond_branches",
            "dir_mispredicts",
            "branch_dir_rate",
            "target_mispredicts",
            "order_violations",
            "dir_lookups",
            "rf_l2_reads",
            "mem",
            "stalls",
            "wib",
            "occupancy",
            "cpi_stack",
            "interval_epoch",
            "intervals",
        ]
    );
    let cpi = j.get("cpi_stack").expect("cpi_stack present");
    let names: Vec<&str> = CPI_CATEGORIES.iter().map(|c| c.name()).collect();
    assert_eq!(cpi.keys(), names);
    let intervals = j.get("intervals").expect("intervals present");
    if let wib::core::Json::Arr(items) = intervals {
        let first = items
            .first()
            .expect("5k insts spans at least one 1k-cycle epoch");
        assert_eq!(
            first.keys(),
            vec![
                "cycle",
                "committed",
                "ipc",
                "window_occupancy",
                "iq_occupancy",
                "wib_resident",
                "wib_columns_in_use",
                "outstanding_misses",
            ]
        );
    } else {
        panic!("intervals must be an array");
    }
    // The serialized text round-trips the key order.
    let text = j.pretty();
    let cycles_at = text.find("\"cycles\"").unwrap();
    let intervals_at = text.find("\"intervals\"").unwrap();
    assert!(cycles_at < intervals_at);
}

/// The text event log has the documented line format and honors its
/// budget.
#[test]
fn text_event_log_is_pipeview_shaped() {
    let mut sink = TextSink::new(2_000);
    let p = Processor::new(MachineConfig::wib_2k());
    p.run(
        em3d().program(),
        RunOptions {
            sink: Some(&mut sink),
            ..RunLimit::instructions(2_000).into()
        },
    );
    let seen = sink.events_seen();
    assert!(
        seen > 2_000,
        "a 2k-inst run emits more events than lines kept"
    );
    let text = sink.into_text();
    assert!(text.starts_with("# wib-sim pipeline events v1"));
    assert!(text.contains(" D  seq="), "dispatch lines present");
    assert!(text.contains(" R  seq="), "retire lines present");
    assert!(text.contains("# truncated:"), "budget enforced");
    // Budget: 2 header lines + max_lines + 1 truncation comment.
    assert_eq!(text.lines().count(), 2 + 2_000 + 1);
}

/// With no sink attached the stream costs one branch per event site:
/// results must be identical with and without an attached sink.
#[test]
fn observed_run_is_deterministically_identical() {
    let p = Processor::new(MachineConfig::wib_2k());
    let plain = p.run(em3d().program(), RunLimit::instructions(10_000).into());
    let mut sink = CountingSink::new();
    let observed = p.run(
        em3d().program(),
        RunOptions {
            sink: Some(&mut sink),
            ..RunLimit::instructions(10_000).into()
        },
    );
    assert_eq!(plain.stats.cycles, observed.stats.cycles);
    assert_eq!(plain.stats.committed, observed.stats.committed);
    assert_eq!(plain.stats.cpi, observed.stats.cpi);
    assert_eq!(plain.stats.intervals, observed.stats.intervals);
}

/// Tail-mode tracing keeps the last N commits, head mode the first N.
#[test]
fn trace_tail_mode_keeps_the_end_of_the_run() {
    let p = Processor::new(MachineConfig::base_8way());
    let limit = RunLimit::instructions(2_000);
    let (mut head, mut tail) = (Trace::new(64), Trace::new_tail(64));
    let r_head = p.run(
        em3d().program(),
        RunOptions {
            sink: Some(&mut head),
            ..limit.into()
        },
    );
    let r_tail = p.run(
        em3d().program(),
        RunOptions {
            sink: Some(&mut tail),
            ..limit.into()
        },
    );
    assert_eq!(r_head.stats.committed, r_tail.stats.committed);
    assert_eq!(head.len(), 64);
    assert_eq!(tail.len(), 64);
    let first_head = head.records().next().unwrap().seq;
    let last_tail = tail.records().last().unwrap().seq;
    assert!(
        last_tail > first_head,
        "tail trace must cover later commits"
    );
    assert_eq!(tail.dropped(), r_tail.stats.committed - 64);
}
