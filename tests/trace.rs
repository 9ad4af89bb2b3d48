//! The pipeline trace as an event sink: how it assembles records from
//! events, and its rendering byte for byte. em3d's first and last 64
//! committed instructions of a 20k-instruction cold run, rendered by
//! [`Trace`]'s `Display`, must match the timelines committed in
//! `tests/goldens/trace/` on five machines (base, the 2K WIB, runahead,
//! delay tracking and the pool-of-blocks WIB). The goldens are
//! `wib-sim trace em3d --config <spec> --limit 64 --insts 20000 [--tail]`
//! without its first (summary) line.

use std::path::PathBuf;
use wib_core::trace::Trace;
use wib_core::{EventSink, MachineConfig, PipeEvent, Processor, RunLimit, RunOptions};
use wib_isa::inst::Inst;
use wib_workloads::eval_suite;

#[test]
fn records_are_built_from_dispatch_issue_complete_and_commit() {
    let mut t = Trace::new(8);
    let dispatch = |seq| PipeEvent::Dispatch {
        seq,
        pc: 0x1000 + 4 * seq as u32,
        inst: Inst::NOP,
        fetched: 1,
    };
    let commit = |seq| PipeEvent::Commit {
        seq,
        pc: 0,
        wib_trips: 1,
    };
    for seq in 0..3 {
        t.emit(2, &dispatch(seq));
    }
    t.emit(3, &PipeEvent::Issue { seq: 0 });
    t.emit(5, &PipeEvent::Issue { seq: 0 }); // reissued after a WIB trip
    t.emit(6, &PipeEvent::Complete { seq: 0 });
    t.emit(
        6,
        &PipeEvent::Squash {
            from_seq: 1,
            count: 2,
        },
    );
    t.emit(7, &commit(0));
    // Seq 3 is pseudo-retired by runahead: no commit, no squash.
    t.emit(8, &dispatch(3));
    t.emit(9, &dispatch(4));
    t.emit(10, &commit(4));
    let got: Vec<(u64, u64, Option<u64>, u64, u64, u32)> = t
        .records()
        .map(|r| {
            (
                r.seq,
                r.dispatch,
                r.issue,
                r.complete,
                r.commit,
                r.wib_trips,
            )
        })
        .collect();
    assert_eq!(got, vec![(0, 2, Some(5), 6, 7, 1), (4, 9, None, 0, 10, 1)]);
}

/// Feeds one event stream to a head-mode and a tail-mode trace.
struct HeadAndTail(Trace, Trace);

impl EventSink for HeadAndTail {
    fn emit(&mut self, cycle: u64, ev: &PipeEvent) {
        self.0.emit(cycle, ev);
        self.1.emit(cycle, ev);
    }
}

#[test]
fn em3d_traces_match_goldens() {
    let em3d = eval_suite()
        .into_iter()
        .find(|w| w.name() == "em3d")
        .expect("em3d is in the suite");
    let spec = |s: &str| MachineConfig::from_spec(s).expect("valid spec");
    let configs = [
        ("base", MachineConfig::base_8way()),
        ("wib2k", MachineConfig::wib_2k()),
        ("runahead", spec("base,backend=runahead")),
        ("delay_track", spec("wib:w=2048,backend=delay_track")),
        ("pool8x64", MachineConfig::wib_pool(8, 64)),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/trace");
    for (name, cfg) in configs {
        let mut traces = HeadAndTail(Trace::new(64), Trace::new_tail(64));
        Processor::new(cfg).run(
            em3d.program(),
            RunOptions {
                sink: Some(&mut traces),
                ..RunLimit::instructions(20_000).into()
            },
        );
        for (mode, trace) in [("head", &traces.0), ("tail", &traces.1)] {
            let path = dir.join(format!("em3d_{name}_{mode}.txt"));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            assert_eq!(
                trace.to_string(),
                golden,
                "{name} {mode} trace differs from {}",
                path.display()
            );
        }
    }
}
