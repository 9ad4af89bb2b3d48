//! The active list (reorder buffer).
//!
//! An ordered queue of in-flight instructions. Sequence numbers are
//! globally unique and never reused (stale completion events detect dead
//! instructions by lookup failure); each entry also carries a **slot**
//! index in `0..size`, allocated circularly in program order — the slot is
//! the instruction's WIB entry, mirroring the paper's rule that WIB
//! entries are allocated in lockstep with active-list entries.

use crate::types::{ColumnId, PhysReg, Seq, SrcRef};
use std::collections::VecDeque;
use wib_bpred::dir::BranchCheckpoint;
use wib_bpred::ras::RasCheckpoint;
use wib_isa::inst::Inst;
use wib_isa::reg::ArchReg;

/// Control-flow bookkeeping carried by branch/jump instructions.
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    /// Predicted direction (true for unconditional transfers).
    pub pred_taken: bool,
    /// The PC fetch continued at after this instruction.
    pub pred_next: u32,
    /// Direction-predictor checkpoint (conditional branches only).
    pub dir_ckpt: Option<BranchCheckpoint>,
    /// RAS state *after* this instruction's own push/pop, restored when
    /// this branch itself mispredicts.
    pub ras_after: RasCheckpoint,
}

/// Where a load miss was serviced from (commit-slot CPI attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// Missed the L1D, hit in the L2.
    L2Hit,
    /// Missed the L2 (or merged into an outstanding fill): DRAM latency.
    Dram,
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global sequence number (unique, monotonic).
    pub seq: Seq,
    /// Active-list slot in `0..size`; also the WIB entry index.
    pub slot: usize,
    /// Fetch PC.
    pub pc: u32,
    /// Decoded instruction.
    pub inst: Inst,
    /// Source operand renames captured at dispatch.
    pub srcs: [Option<SrcRef>; 2],
    /// Destination rename: `(arch, new phys, previous phys)`.
    pub dest: Option<(ArchReg, PhysReg, PhysReg)>,
    /// Ready to commit.
    pub completed: bool,
    /// Has left the issue queue for a functional unit at least once.
    pub issued: bool,
    /// Currently parked in the WIB.
    pub in_wib: bool,
    /// Times this instruction entered the WIB (paper section 4.1 tracks
    /// the average and max of this).
    pub wib_trips: u32,
    /// For loads: the bit-vector column allocated for this load's miss.
    pub miss_column: Option<ColumnId>,
    /// For loads: the deepest hierarchy level this load's data came from
    /// (set when the access outlasted the L1D hit latency; fuels the CPI
    /// stack's memory categories).
    pub miss_kind: Option<MissKind>,
    /// For loads serviced by the memory hierarchy: the absolute cycle the
    /// data arrives (0 until known). Runahead uses the head load's value
    /// to decide whether an episode is worth the pipeline restart.
    pub data_ready_at: u64,
    /// Occupies a load-queue entry.
    pub in_lq: bool,
    /// Occupies a store-queue entry.
    pub in_sq: bool,
    /// True once this conditional branch resolved with the wrong
    /// direction (counted at commit).
    pub dir_wrong: bool,
    /// Control-flow info (control instructions only).
    pub branch: Option<BranchInfo>,
    /// Global branch history before this instruction was fetched (squash
    /// repair for replays that start at an arbitrary instruction).
    pub hist_before: u32,
    /// RAS state before this instruction was fetched.
    pub ras_before: RasCheckpoint,
}

/// The active list.
#[derive(Debug, Clone)]
pub struct ActiveList {
    entries: VecDeque<RobEntry>,
    /// Parallel ring of the entries' sequence numbers. Lookups binary
    /// search this dense 8-byte-per-entry ring instead of striding over
    /// the (much larger) `RobEntry` structs — the whole ring stays
    /// cache-resident even for a 2048-entry window.
    seqs: VecDeque<Seq>,
    size: usize,
    head_slot: usize,
    next_seq: Seq,
}

impl ActiveList {
    /// An empty active list with `size` slots.
    pub fn new(size: usize) -> ActiveList {
        ActiveList {
            entries: VecDeque::with_capacity(size),
            seqs: VecDeque::with_capacity(size),
            size,
            head_slot: 0,
            next_seq: 0,
        }
    }

    /// An empty active list that continues an interrupted sequence-number
    /// stream (runahead episode exit rebuilds the window this way: seqs
    /// stay globally unique so stale scheduled events keep missing their
    /// lookups, exactly as after a squash).
    pub fn new_resuming(size: usize, next_seq: Seq) -> ActiveList {
        ActiveList {
            next_seq,
            ..ActiveList::new(size)
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.size
    }

    /// In-flight instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free slots.
    pub fn free_slots(&self) -> usize {
        self.size - self.entries.len()
    }

    /// Sequence number the next dispatched instruction will get.
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Slot the next dispatched instruction will occupy (its WIB entry).
    pub fn next_slot(&self) -> usize {
        (self.head_slot + self.entries.len()) % self.size
    }

    /// Append an entry at the tail. The caller must have filled `seq` and
    /// `slot` from [`ActiveList::next_seq`] / [`ActiveList::next_slot`].
    ///
    /// # Panics
    /// Panics if full or if `entry.seq`/`entry.slot` do not match.
    pub fn push(&mut self, entry: RobEntry) {
        assert!(self.free_slots() > 0, "active list overflow");
        assert_eq!(entry.seq, self.next_seq, "out-of-order dispatch");
        assert_eq!(entry.slot, self.next_slot(), "slot mismatch");
        self.seqs.push_back(entry.seq);
        self.entries.push_back(entry);
        self.next_seq += 1;
    }

    fn index_of(&self, seq: Seq) -> Option<usize> {
        // Sequence numbers are strictly increasing but *not* contiguous:
        // a squash removes a tail range while later dispatches continue
        // with fresh numbers. Gaps only ever push an entry *left* of its
        // no-squash position, so `seq - head_seq` bounds the search from
        // above.
        let &head = self.seqs.front()?;
        if seq < head {
            return None;
        }
        let hi = (((seq - head) as usize) + 1).min(self.seqs.len());
        // Common case: no squash gap in range — the entry sits exactly at
        // its dense offset.
        if self.seqs[hi - 1] == seq {
            return Some(hi - 1);
        }
        let (front, back) = self.seqs.as_slices();
        if hi <= front.len() {
            front[..hi].binary_search(&seq).ok()
        } else {
            match back[..hi - front.len()].binary_search(&seq) {
                Ok(i) => Some(front.len() + i),
                Err(_) => front[..front.len()].binary_search(&seq).ok(),
            }
        }
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Look up a live instruction by sequence number; `None` for
    /// squashed/committed seqs.
    pub fn get(&self, seq: Seq) -> Option<&RobEntry> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    /// Mutable lookup, same semantics as [`ActiveList::get`].
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut RobEntry> {
        self.index_of(seq).map(|i| &mut self.entries[i])
    }

    /// Remove and return the head entry (commit).
    ///
    /// # Panics
    /// Panics if empty.
    pub fn pop_head(&mut self) -> RobEntry {
        let e = self
            .entries
            .pop_front()
            .expect("pop from empty active list");
        self.seqs.pop_front();
        self.head_slot = (self.head_slot + 1) % self.size;
        e
    }

    /// Remove every entry with `seq >= from`, youngest first, yielding
    /// each to `undo` (rename rollback, resource release). Sequence
    /// numbers are *not* reused; slots are.
    pub fn squash_from<F: FnMut(RobEntry)>(&mut self, from: Seq, mut undo: F) {
        while self.entries.back().is_some_and(|e| e.seq >= from) {
            self.seqs.pop_back();
            undo(self.entries.pop_back().expect("nonempty"));
        }
    }

    /// Iterate live entries oldest-first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Machine-check: verify the seq ring mirrors the entries, sequence
    /// numbers are strictly increasing (the binary-search lookup and the
    /// dense-offset fast path both depend on it), and slots advance
    /// circularly from the head.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fail = |msg: String| Err(format!("active-list: {msg}"));
        if self.seqs.len() != self.entries.len() {
            return fail(format!(
                "seq ring len {} != entries {}",
                self.seqs.len(),
                self.entries.len()
            ));
        }
        if self.entries.len() > self.size {
            return fail(format!(
                "len {} exceeds size {}",
                self.entries.len(),
                self.size
            ));
        }
        let mut prev: Option<Seq> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if self.seqs[i] != e.seq {
                return fail(format!(
                    "seq ring [{i}] = {} != entry {}",
                    self.seqs[i], e.seq
                ));
            }
            if let Some(p) = prev {
                if e.seq <= p {
                    return fail(format!("seqs not strictly increasing at {}", e.seq));
                }
            }
            prev = Some(e.seq);
            let expect = (self.head_slot + i) % self.size;
            if e.slot != expect {
                return fail(format!(
                    "seq {} slot {} != circular position {expect}",
                    e.seq, e.slot
                ));
            }
        }
        if let Some(&back) = self.seqs.back() {
            if self.next_seq <= back {
                return fail(format!("next_seq {} not past tail {back}", self.next_seq));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wib_bpred::ras::Ras;

    fn entry(al: &ActiveList) -> RobEntry {
        RobEntry {
            seq: al.next_seq(),
            slot: al.next_slot(),
            pc: 0x1000 + 4 * al.next_seq() as u32,
            inst: Inst::NOP,
            srcs: [None, None],
            dest: None,
            completed: false,
            issued: false,
            in_wib: false,
            wib_trips: 0,
            miss_column: None,
            miss_kind: None,
            data_ready_at: 0,
            in_lq: false,
            in_sq: false,
            dir_wrong: false,
            branch: None,
            hist_before: 0,
            ras_before: Ras::new(4).checkpoint(),
        }
    }

    #[test]
    fn fifo_commit_order() {
        let mut al = ActiveList::new(4);
        for _ in 0..3 {
            let e = entry(&al);
            al.push(e);
        }
        assert_eq!(al.len(), 3);
        assert_eq!(al.head().unwrap().seq, 0);
        assert_eq!(al.pop_head().seq, 0);
        assert_eq!(al.pop_head().seq, 1);
        assert_eq!(al.len(), 1);
    }

    #[test]
    fn slots_wrap_but_seqs_do_not() {
        let mut al = ActiveList::new(2);
        al.push(entry(&al));
        al.push(entry(&al));
        assert_eq!(al.free_slots(), 0);
        al.pop_head();
        let e = entry(&al);
        assert_eq!(e.seq, 2);
        assert_eq!(e.slot, 0); // reused slot
        al.push(e);
        assert_eq!(al.get(2).unwrap().slot, 0);
    }

    #[test]
    fn seqs_not_reused_after_squash() {
        let mut al = ActiveList::new(8);
        for _ in 0..5 {
            al.push(entry(&al));
        }
        let mut squashed = Vec::new();
        al.squash_from(2, |e| squashed.push(e.seq));
        assert_eq!(squashed, vec![4, 3, 2]);
        assert_eq!(al.next_seq(), 5); // monotonic
        assert_eq!(al.next_slot(), 2); // slots rewound
        let e = entry(&al);
        assert_eq!((e.seq, e.slot), (5, 2));
        al.push(e);
        // Stale lookups for squashed seqs fail even though slot 2 is live.
        assert!(al.get(2).is_none());
        assert!(al.get(5).is_some());
    }

    #[test]
    fn stale_seq_lookup_fails() {
        let mut al = ActiveList::new(4);
        al.push(entry(&al));
        al.pop_head();
        assert!(al.get(0).is_none());
        assert!(al.get(99).is_none());
    }

    #[test]
    fn get_mut_finds_middle_entry() {
        let mut al = ActiveList::new(8);
        for _ in 0..4 {
            al.push(entry(&al));
        }
        al.get_mut(2).unwrap().completed = true;
        assert!(al.get(2).unwrap().completed);
        assert!(!al.get(1).unwrap().completed);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut al = ActiveList::new(1);
        al.push(entry(&al));
        let mut e = entry(&al);
        e.seq = al.next_seq();
        al.push(e);
    }
}
