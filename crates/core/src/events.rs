//! Structured pipeline event stream.
//!
//! The engine can emit a typed event at every pipeline milestone — fetch,
//! dispatch, issue, WIB insert/extract (with the bank), completion,
//! commit, squash, and the start/finish of cache misses (including MSHR
//! merges). Consumers implement [`EventSink`]; the engine holds an
//! `Option<&mut dyn EventSink>` and the emission path is a single
//! `is_some` test when no sink is installed, so observability is free
//! when disabled.
//!
//! Three sinks are provided:
//! - [`CountingSink`] — per-kind (and per-WIB-bank) counters, cheap
//!   enough for full-length runs and cross-checkable against
//!   [`crate::SimStats`];
//! - [`BoundedSink`] — an in-memory ring that keeps the most recent
//!   `capacity` events, for post-mortem inspection;
//! - [`TextSink`] — a pipeview-style text log (one line per event,
//!   cycle-stamped), the `--events <path>` format of the CLI.

use crate::json::Json;
use std::collections::VecDeque;
use std::fmt::Write as _;
use wib_isa::inst::Inst;

/// One pipeline event. All payloads are `Copy` so emission never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipeEvent {
    /// An instruction word was fetched.
    Fetch {
        /// Fetch PC.
        pc: u32,
    },
    /// An instruction was renamed and entered the active list.
    Dispatch {
        /// Dynamic sequence number.
        seq: u64,
        /// Fetch PC.
        pc: u32,
        /// The decoded instruction (disassemble via `Display`).
        inst: Inst,
        /// Cycle the instruction was fetched.
        fetched: u64,
    },
    /// An instruction was selected and sent to a functional unit.
    Issue {
        /// Dynamic sequence number.
        seq: u64,
    },
    /// A pretend-ready instruction was parked in the WIB.
    WibInsert {
        /// Dynamic sequence number.
        seq: u64,
        /// WIB bank (0 for non-banked organizations).
        bank: u32,
    },
    /// A parked instruction was reinserted into its issue queue.
    WibExtract {
        /// Dynamic sequence number.
        seq: u64,
        /// WIB bank (0 for non-banked organizations).
        bank: u32,
    },
    /// An instruction produced its result.
    Complete {
        /// Dynamic sequence number.
        seq: u64,
    },
    /// An instruction retired architecturally.
    Commit {
        /// Dynamic sequence number.
        seq: u64,
        /// Fetch PC.
        pc: u32,
        /// Times the instruction was parked (WIB insertions, or
        /// delay-tracking parks, which emit no event of their own).
        wib_trips: u32,
    },
    /// Every instruction with `seq >= from_seq` was squashed.
    Squash {
        /// First squashed sequence number.
        from_seq: u64,
        /// How many in-flight instructions were removed.
        count: u64,
    },
    /// A load's data is not in the L1D: a miss begins.
    MissStart {
        /// The load's sequence number.
        seq: u64,
        /// Effective address.
        addr: u32,
        /// True when the line comes from DRAM (L2 miss), false for an L2
        /// hit.
        to_dram: bool,
    },
    /// A missed load's data arrived.
    MissFinish {
        /// The load's sequence number.
        seq: u64,
    },
    /// A miss merged into an already outstanding line fill (MSHR hit).
    MshrMerge {
        /// Effective address.
        addr: u32,
    },
}

/// The event kinds, for counting and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`PipeEvent::Fetch`].
    Fetch,
    /// [`PipeEvent::Dispatch`].
    Dispatch,
    /// [`PipeEvent::Issue`].
    Issue,
    /// [`PipeEvent::WibInsert`].
    WibInsert,
    /// [`PipeEvent::WibExtract`].
    WibExtract,
    /// [`PipeEvent::Complete`].
    Complete,
    /// [`PipeEvent::Commit`].
    Commit,
    /// [`PipeEvent::Squash`].
    Squash,
    /// [`PipeEvent::MissStart`].
    MissStart,
    /// [`PipeEvent::MissFinish`].
    MissFinish,
    /// [`PipeEvent::MshrMerge`].
    MshrMerge,
}

/// All event kinds, in declaration order.
pub const EVENT_KINDS: [EventKind; 11] = [
    EventKind::Fetch,
    EventKind::Dispatch,
    EventKind::Issue,
    EventKind::WibInsert,
    EventKind::WibExtract,
    EventKind::Complete,
    EventKind::Commit,
    EventKind::Squash,
    EventKind::MissStart,
    EventKind::MissFinish,
    EventKind::MshrMerge,
];

impl EventKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fetch => "fetch",
            EventKind::Dispatch => "dispatch",
            EventKind::Issue => "issue",
            EventKind::WibInsert => "wib_insert",
            EventKind::WibExtract => "wib_extract",
            EventKind::Complete => "complete",
            EventKind::Commit => "commit",
            EventKind::Squash => "squash",
            EventKind::MissStart => "miss_start",
            EventKind::MissFinish => "miss_finish",
            EventKind::MshrMerge => "mshr_merge",
        }
    }
}

impl PipeEvent {
    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            PipeEvent::Fetch { .. } => EventKind::Fetch,
            PipeEvent::Dispatch { .. } => EventKind::Dispatch,
            PipeEvent::Issue { .. } => EventKind::Issue,
            PipeEvent::WibInsert { .. } => EventKind::WibInsert,
            PipeEvent::WibExtract { .. } => EventKind::WibExtract,
            PipeEvent::Complete { .. } => EventKind::Complete,
            PipeEvent::Commit { .. } => EventKind::Commit,
            PipeEvent::Squash { .. } => EventKind::Squash,
            PipeEvent::MissStart { .. } => EventKind::MissStart,
            PipeEvent::MissFinish { .. } => EventKind::MissFinish,
            PipeEvent::MshrMerge { .. } => EventKind::MshrMerge,
        }
    }
}

/// A consumer of the pipeline event stream.
pub trait EventSink {
    /// Called once per event, with the cycle it occurred in.
    fn emit(&mut self, cycle: u64, ev: &PipeEvent);
}

/// Counts events per kind, and WIB traffic per bank.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    counts: [u64; EVENT_KINDS.len()],
    /// Per-bank WIB insertions (grown on demand).
    bank_inserts: Vec<u64>,
    /// Per-bank WIB extractions (grown on demand).
    bank_extracts: Vec<u64>,
}

impl CountingSink {
    /// An empty counter set.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Events of `kind` seen so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Per-bank WIB insertion counts.
    pub fn bank_inserts(&self) -> &[u64] {
        &self.bank_inserts
    }

    /// Per-bank WIB extraction counts.
    pub fn bank_extracts(&self) -> &[u64] {
        &self.bank_extracts
    }

    /// Ordered `{kind: count}` object plus per-bank WIB traffic.
    pub fn to_json(&self) -> Json {
        let mut counts = Json::obj();
        for kind in EVENT_KINDS {
            counts.set(kind.name(), self.count(kind));
        }
        Json::obj()
            .field("counts", counts)
            .field(
                "wib_bank_inserts",
                Json::Arr(self.bank_inserts.iter().map(|&n| Json::U64(n)).collect()),
            )
            .field(
                "wib_bank_extracts",
                Json::Arr(self.bank_extracts.iter().map(|&n| Json::U64(n)).collect()),
            )
    }
}

fn bump_bank(v: &mut Vec<u64>, bank: u32) {
    let i = bank as usize;
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] += 1;
}

impl EventSink for CountingSink {
    fn emit(&mut self, _cycle: u64, ev: &PipeEvent) {
        self.counts[ev.kind() as usize] += 1;
        match *ev {
            PipeEvent::WibInsert { bank, .. } => bump_bank(&mut self.bank_inserts, bank),
            PipeEvent::WibExtract { bank, .. } => bump_bank(&mut self.bank_extracts, bank),
            _ => {}
        }
    }
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Debug, Clone)]
pub struct BoundedSink {
    events: VecDeque<(u64, PipeEvent)>,
    capacity: usize,
    dropped: u64,
}

impl BoundedSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> BoundedSink {
        BoundedSink {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// The retained `(cycle, event)` pairs, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, PipeEvent)> {
        self.events.iter()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl EventSink for BoundedSink {
    fn emit(&mut self, cycle: u64, ev: &PipeEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((cycle, *ev));
    }
}

/// Renders one event as a pipeview-style text line (no trailing newline).
pub fn format_event(cycle: u64, ev: &PipeEvent) -> String {
    match *ev {
        PipeEvent::Fetch { pc } => format!("{cycle:>10} F  pc={pc:#010x}"),
        PipeEvent::Dispatch { seq, pc, inst, .. } => {
            format!("{cycle:>10} D  seq={seq} pc={pc:#010x} {inst}")
        }
        PipeEvent::Issue { seq } => format!("{cycle:>10} I  seq={seq}"),
        PipeEvent::WibInsert { seq, bank } => {
            format!("{cycle:>10} W+ seq={seq} bank={bank}")
        }
        PipeEvent::WibExtract { seq, bank } => {
            format!("{cycle:>10} W- seq={seq} bank={bank}")
        }
        PipeEvent::Complete { seq } => format!("{cycle:>10} C  seq={seq}"),
        PipeEvent::Commit { seq, pc, .. } => format!("{cycle:>10} R  seq={seq} pc={pc:#010x}"),
        PipeEvent::Squash { from_seq, count } => {
            format!("{cycle:>10} X  from={from_seq} count={count}")
        }
        PipeEvent::MissStart { seq, addr, to_dram } => format!(
            "{cycle:>10} M+ seq={seq} addr={addr:#010x} {}",
            if to_dram { "dram" } else { "l2" }
        ),
        PipeEvent::MissFinish { seq } => format!("{cycle:>10} M- seq={seq}"),
        PipeEvent::MshrMerge { addr } => format!("{cycle:>10} M= addr={addr:#010x}"),
    }
}

/// Accumulates a pipeview-style text log, bounded by a line budget so a
/// long run cannot exhaust memory (lines past the budget are counted,
/// not stored).
#[derive(Debug, Clone)]
pub struct TextSink {
    text: String,
    lines: u64,
    max_lines: u64,
}

impl TextSink {
    /// A log keeping at most `max_lines` lines.
    pub fn new(max_lines: u64) -> TextSink {
        let mut text = String::new();
        let _ = writeln!(text, "# wib-sim pipeline events v1");
        let _ = writeln!(
            text,
            "# cycle kind args   (F fetch, D dispatch, I issue, W+/W- WIB insert/extract, \
             C complete, R retire, X squash, M+/M-/M= miss start/finish/merge)"
        );
        TextSink {
            text,
            lines: 0,
            max_lines,
        }
    }

    /// The rendered log. A final comment reports truncation, if any.
    pub fn into_text(mut self) -> String {
        if self.lines > self.max_lines {
            let _ = writeln!(
                self.text,
                "# truncated: {} further events not shown",
                self.lines - self.max_lines
            );
        }
        self.text
    }

    /// Events seen (stored or not).
    pub fn events_seen(&self) -> u64 {
        self.lines
    }
}

impl EventSink for TextSink {
    fn emit(&mut self, cycle: u64, ev: &PipeEvent) {
        self.lines += 1;
        if self.lines <= self.max_lines {
            let _ = writeln!(self.text, "{}", format_event(cycle, ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_by_kind_and_bank() {
        let mut s = CountingSink::new();
        s.emit(1, &PipeEvent::Fetch { pc: 0x1000 });
        s.emit(2, &PipeEvent::WibInsert { seq: 1, bank: 3 });
        s.emit(3, &PipeEvent::WibInsert { seq: 2, bank: 3 });
        s.emit(4, &PipeEvent::WibExtract { seq: 1, bank: 0 });
        assert_eq!(s.count(EventKind::Fetch), 1);
        assert_eq!(s.count(EventKind::WibInsert), 2);
        assert_eq!(s.count(EventKind::Commit), 0);
        assert_eq!(s.bank_inserts(), &[0, 0, 0, 2]);
        assert_eq!(s.bank_extracts(), &[1]);
        let j = s.to_json();
        assert_eq!(
            j.get("counts").unwrap().get("wib_insert"),
            Some(&Json::U64(2))
        );
    }

    #[test]
    fn bounded_sink_keeps_the_last_n() {
        let mut s = BoundedSink::new(2);
        for seq in 0..5u64 {
            s.emit(seq, &PipeEvent::Issue { seq });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let seqs: Vec<u64> = s.events().map(|(c, _)| *c).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn text_sink_formats_and_truncates() {
        let mut s = TextSink::new(2);
        s.emit(10, &PipeEvent::Issue { seq: 7 });
        s.emit(
            11,
            &PipeEvent::MissStart {
                seq: 7,
                addr: 0x80,
                to_dram: true,
            },
        );
        s.emit(12, &PipeEvent::Issue { seq: 8 });
        assert_eq!(s.events_seen(), 3);
        let text = s.into_text();
        assert!(text.contains("I  seq=7"), "{text}");
        assert!(text.contains("dram"), "{text}");
        assert!(!text.contains("seq=8"), "{text}");
        assert!(text.contains("truncated: 1"), "{text}");
    }
}
