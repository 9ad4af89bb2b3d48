//! Per-instruction pipeline tracing.
//!
//! A [`Trace`] is an [`EventSink`]: attach it as the run's sink (see
//! [`crate::processor::RunOptions`]) and it records the cycle at which
//! every *committed* instruction passed each pipeline milestone, plus its
//! WIB trips — enough to render a pipeview-style timeline and to see
//! chains parking and reinserting.
//!
//! Each record is built from the `Dispatch`, `Issue`, `Complete` and
//! `Commit` events of one sequence number; a repeated `Issue` or
//! `Complete` keeps the last cycle. Runahead's pseudo-retired
//! instructions end in neither a `Commit` nor a `Squash`, so a commit
//! drops every older record still pending.
//!
//! Two capture modes: keep the **first** `capacity` commits (startup
//! behavior), or keep the **last** `capacity` as a ring buffer (steady
//! state / end-of-run behavior; see [`Trace::new_tail`]).

use crate::events::{EventSink, PipeEvent};
use std::collections::VecDeque;
use std::fmt;
use wib_isa::inst::Inst;

/// Lifecycle of one committed instruction.
#[derive(Debug, Clone, Copy)]
pub struct InstTrace {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Fetch PC.
    pub pc: u32,
    /// The instruction (disassemble via `Display`).
    pub inst: Inst,
    /// Cycle fetched.
    pub fetch: u64,
    /// Cycle renamed/dispatched into the window.
    pub dispatch: u64,
    /// Cycle issued to a functional unit (`None` = completed in the
    /// front end and never occupied an issue queue).
    pub issue: Option<u64>,
    /// Cycle the result was produced.
    pub complete: u64,
    /// Cycle committed.
    pub commit: u64,
    /// Trips through the WIB.
    pub wib_trips: u32,
}

/// Which end of the run a bounded trace keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    /// Keep the first `capacity` commits, ignore the rest.
    Head,
    /// Ring buffer: keep the most recent `capacity` commits.
    Tail,
}

/// A bounded log of committed-instruction lifecycles.
#[derive(Debug, Clone)]
pub struct Trace {
    records: VecDeque<InstTrace>,
    capacity: usize,
    mode: TraceMode,
    dropped: u64,
    /// Dispatched, not yet committed or squashed; ascending `seq`.
    pending: VecDeque<InstTrace>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new(0)
    }
}

impl Trace {
    /// A trace that keeps the first `capacity` committed instructions.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            records: VecDeque::new(),
            capacity,
            mode: TraceMode::Head,
            dropped: 0,
            pending: VecDeque::new(),
        }
    }

    /// A trace that keeps the *last* `capacity` committed instructions
    /// (older records are evicted as newer ones arrive).
    pub fn new_tail(capacity: usize) -> Trace {
        Trace {
            records: VecDeque::new(),
            capacity,
            mode: TraceMode::Tail,
            dropped: 0,
            pending: VecDeque::new(),
        }
    }

    /// Record one commit.
    fn push(&mut self, record: InstTrace) {
        match self.mode {
            TraceMode::Head => {
                if self.records.len() < self.capacity {
                    self.records.push_back(record);
                } else {
                    self.dropped += 1;
                }
            }
            TraceMode::Tail => {
                if self.capacity == 0 {
                    self.dropped += 1;
                    return;
                }
                if self.records.len() == self.capacity {
                    self.records.pop_front();
                    self.dropped += 1;
                }
                self.records.push_back(record);
            }
        }
    }

    /// Records collected so far, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &InstTrace> {
        self.records.iter()
    }

    /// Number of records retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// True once `capacity` records have been collected.
    pub fn is_full(&self) -> bool {
        self.records.len() >= self.capacity
    }

    /// Commits not retained (ignored in head mode, evicted in tail mode).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn pending_mut(&mut self, seq: u64) -> Option<&mut InstTrace> {
        let i = self.pending.binary_search_by_key(&seq, |p| p.seq).ok()?;
        self.pending.get_mut(i)
    }
}

impl EventSink for Trace {
    fn emit(&mut self, cycle: u64, ev: &PipeEvent) {
        match *ev {
            PipeEvent::Dispatch {
                seq,
                pc,
                inst,
                fetched,
            } => self.pending.push_back(InstTrace {
                seq,
                pc,
                inst,
                fetch: fetched,
                dispatch: cycle,
                issue: None,
                complete: 0,
                commit: 0,
                wib_trips: 0,
            }),
            PipeEvent::Issue { seq } => {
                if let Some(p) = self.pending_mut(seq) {
                    p.issue = Some(cycle);
                }
            }
            PipeEvent::Complete { seq } => {
                if let Some(p) = self.pending_mut(seq) {
                    p.complete = cycle;
                }
            }
            PipeEvent::Squash { from_seq, .. } => {
                while self.pending.back().is_some_and(|p| p.seq >= from_seq) {
                    self.pending.pop_back();
                }
            }
            PipeEvent::Commit { seq, wib_trips, .. } => {
                while self.pending.front().is_some_and(|p| p.seq < seq) {
                    self.pending.pop_front();
                }
                if self.pending.front().is_some_and(|p| p.seq == seq) {
                    let mut record = self.pending.pop_front().expect("checked");
                    record.commit = cycle;
                    record.wib_trips = wib_trips;
                    self.push(record);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Trace {
    /// Render a compact timeline: one instruction per row, with the
    /// cycles of each milestone (F fetch, D dispatch, I issue, C complete,
    /// R retire) and the WIB trip count.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>6} {:>10}  {:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>5}",
            "seq", "pc", "instruction", "F", "D", "I", "C", "R", "WIB"
        )?;
        for r in &self.records {
            writeln!(
                f,
                "{:>6} {:>#10x}  {:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>5}",
                r.seq,
                r.pc,
                r.inst.to_string(),
                r.fetch,
                r.dispatch,
                match r.issue {
                    None => "-".to_string(),
                    Some(c) => c.to_string(),
                },
                r.complete,
                r.commit,
                if r.wib_trips == 0 {
                    "".to_string()
                } else {
                    format!("x{}", r.wib_trips)
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> InstTrace {
        InstTrace {
            seq,
            pc: 0x1000,
            inst: Inst::NOP,
            fetch: 1,
            dispatch: 3,
            issue: Some(4),
            complete: 5,
            commit: 6,
            wib_trips: 2,
        }
    }

    #[test]
    fn head_mode_keeps_the_first_records() {
        let mut t = Trace::new(2);
        for s in 0..5 {
            t.push(record(s));
        }
        assert_eq!(t.len(), 2);
        assert!(t.is_full());
        assert_eq!(t.dropped(), 3);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn tail_mode_keeps_the_last_records() {
        let mut t = Trace::new_tail(3);
        for s in 0..10 {
            t.push(record(s));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn display_contains_milestones() {
        let mut t = Trace::new(4);
        t.push(record(7));
        let mut front_end = record(8);
        front_end.issue = None;
        front_end.wib_trips = 0;
        t.push(front_end);
        let s = t.to_string();
        assert!(s.contains("nop"));
        assert!(s.contains("x2"));
        assert!(
            s.contains(" - "),
            "front-end completion renders as `-`:\n{s}"
        );
    }

    #[test]
    fn zero_capacity_is_safe() {
        let mut t = Trace::new_tail(0);
        t.push(record(1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
