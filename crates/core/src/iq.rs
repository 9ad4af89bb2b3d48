//! Event-driven issue queue with wakeup-select and WIB pretend-ready
//! support.
//!
//! Entries do not poll their operands: the processor subscribes pending
//! operands to the producing physical register and calls
//! [`IssueQueue::satisfy`] when the register becomes ready (true wakeup)
//! or gains a wait bit (pretend-ready wakeup, which routes the consumer to
//! the WIB). Entries whose operands are all satisfied sit in an age-ordered
//! ready set that select logic walks oldest-first.
//!
//! # Storage
//!
//! The queue is a fixed-capacity **slot arena**: entries live in
//! pre-allocated slots handed out from a free list, a fixed-size
//! open-addressing table maps sequence numbers to slots, and the ready set
//! is an intrusive doubly-linked list threaded through the slots in age
//! (sequence-number) order. After construction no operation allocates, so
//! the per-cycle wakeup/select loop is allocation-free in steady state
//! (see `docs/perf.md`); the selection semantics — oldest satisfied entry
//! first — are identical to the original map + ordered-set implementation.

use crate::types::{PhysReg, Seq, SrcRef};
use wib_isa::reg::RegClass;

/// Per-operand wakeup status inside the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcStatus {
    /// Value available.
    Ready,
    /// Producer chain hangs off an outstanding load miss (wait bit):
    /// satisfied for *pretend-ready* selection.
    Wait,
    /// Still waiting for a broadcast.
    Pending,
}

/// One issue-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct IqEntry {
    /// Source operands (None = no operand in that slot).
    pub srcs: [Option<(SrcRef, SrcStatus)>; 2],
    pending: u8,
}

impl IqEntry {
    /// Build an entry from operand references and initial statuses.
    pub fn new(srcs: [Option<(SrcRef, SrcStatus)>; 2]) -> IqEntry {
        let pending = srcs
            .iter()
            .flatten()
            .filter(|(_, s)| *s == SrcStatus::Pending)
            .count() as u8;
        IqEntry { srcs, pending }
    }

    /// True when no operand is still pending.
    pub fn is_satisfied(&self) -> bool {
        self.pending == 0
    }
}

/// Sentinel for "no slot" in the intrusive links and the index table.
const NIL: u32 = u32::MAX;

/// One arena slot: the entry plus its intrusive ready-list links.
#[derive(Debug, Clone)]
struct Slot {
    seq: Seq,
    entry: IqEntry,
    ready_prev: u32,
    ready_next: u32,
    ready: bool,
    occupied: bool,
}

impl Slot {
    fn vacant() -> Slot {
        Slot {
            seq: 0,
            entry: IqEntry::new([None, None]),
            ready_prev: NIL,
            ready_next: NIL,
            ready: false,
            occupied: false,
        }
    }
}

/// Fixed-size open-addressing `Seq -> slot` map: linear probing with
/// backward-shift deletion (no tombstones), sized to at most 50% load so
/// probe chains stay short. Never allocates after construction.
#[derive(Debug, Clone)]
struct SeqIndex {
    /// `(seq, slot)`; `slot == NIL` marks an empty cell.
    table: Vec<(Seq, u32)>,
    mask: usize,
}

impl SeqIndex {
    fn new(slots: usize) -> SeqIndex {
        let size = (slots * 2).next_power_of_two().max(8);
        SeqIndex {
            table: vec![(0, NIL); size],
            mask: size - 1,
        }
    }

    #[inline]
    fn home(&self, seq: Seq) -> usize {
        // Fibonacci hashing: multiply spreads consecutive seqs, the high
        // bits feed the table index.
        (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    fn insert(&mut self, seq: Seq, slot: u32) {
        let mut i = self.home(seq);
        while self.table[i].1 != NIL {
            debug_assert_ne!(self.table[i].0, seq, "duplicate key {seq}");
            i = (i + 1) & self.mask;
        }
        self.table[i] = (seq, slot);
    }

    fn get(&self, seq: Seq) -> Option<u32> {
        let mut i = self.home(seq);
        loop {
            let (s, slot) = self.table[i];
            if slot == NIL {
                return None;
            }
            if s == seq {
                return Some(slot);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, seq: Seq) -> Option<u32> {
        let mut i = self.home(seq);
        loop {
            let (s, slot) = self.table[i];
            if slot == NIL {
                return None;
            }
            if s == seq {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let removed = self.table[i].1;
        // Backward-shift deletion: pull displaced entries into the hole so
        // every probe chain stays contiguous.
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.table[j].1 == NIL {
                break;
            }
            let k = self.home(self.table[j].0);
            // Move `j` into the hole unless its home lies cyclically in
            // (i, j] — in that case the entry is already on its shortest
            // reachable position.
            let stuck = if j > i {
                k > i && k <= j
            } else {
                k > i || k <= j
            };
            if !stuck {
                self.table[i] = self.table[j];
                i = j;
            }
        }
        self.table[i].1 = NIL;
        Some(removed)
    }
}

/// An age-ordered issue queue.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    capacity: usize,
    len: usize,
    /// `capacity + 1` slots: one extra for the overflow entry.
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: SeqIndex,
    ready_head: u32,
    ready_tail: u32,
}

impl IssueQueue {
    /// An empty queue with `capacity` entries.
    pub fn new(capacity: usize) -> IssueQueue {
        let arena = capacity + 1; // one overflow slot
        IssueQueue {
            capacity,
            len: 0,
            slots: vec![Slot::vacant(); arena],
            free: (0..arena as u32).rev().collect(),
            index: SeqIndex::new(arena),
            ready_head: NIL,
            ready_tail: NIL,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no instructions are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots (0 when at or beyond nominal capacity — the queue can
    /// briefly hold one overflow entry, see [`IssueQueue::insert_overflow`]).
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.len)
    }

    /// True if an instruction with this sequence number is resident.
    pub fn contains(&self, seq: Seq) -> bool {
        self.index.get(seq).is_some()
    }

    /// Insert a dispatched (or WIB-reinserted) instruction.
    ///
    /// # Panics
    /// Panics if the queue is full or `seq` is already present.
    pub fn insert(&mut self, seq: Seq, entry: IqEntry) {
        assert!(self.len < self.capacity, "issue queue overflow");
        self.insert_unchecked(seq, entry);
    }

    /// Insert past nominal capacity (at most one extra entry). Reserved
    /// for the forward-progress guarantee: the oldest in-flight
    /// instruction can always reenter the queue from the WIB — all its
    /// elders have committed, so it issues (and frees the slot) at once.
    ///
    /// # Panics
    /// Panics if the queue already holds an overflow entry or `seq` is
    /// already present.
    pub fn insert_overflow(&mut self, seq: Seq, entry: IqEntry) {
        assert!(self.len <= self.capacity, "double overflow");
        self.insert_unchecked(seq, entry);
    }

    fn insert_unchecked(&mut self, seq: Seq, entry: IqEntry) {
        assert!(
            self.index.get(seq).is_none(),
            "duplicate issue-queue entry {seq}"
        );
        let id = self.free.pop().expect("arena slot available") as usize;
        let ready = entry.is_satisfied();
        let s = &mut self.slots[id];
        s.seq = seq;
        s.entry = entry;
        s.occupied = true;
        self.index.insert(seq, id as u32);
        self.len += 1;
        if ready {
            self.ready_link(id as u32);
        }
    }

    /// Link `id` into the ready list, keeping it sorted by age. Newly
    /// satisfied instructions are usually the youngest resident, so the
    /// backward walk from the tail is O(1) in the common case.
    fn ready_link(&mut self, id: u32) {
        let seq = self.slots[id as usize].seq;
        debug_assert!(!self.slots[id as usize].ready);
        let mut after = self.ready_tail;
        while after != NIL && self.slots[after as usize].seq > seq {
            after = self.slots[after as usize].ready_prev;
        }
        let next = match after {
            NIL => self.ready_head,
            a => self.slots[a as usize].ready_next,
        };
        {
            let s = &mut self.slots[id as usize];
            s.ready = true;
            s.ready_prev = after;
            s.ready_next = next;
        }
        match after {
            NIL => self.ready_head = id,
            a => self.slots[a as usize].ready_next = id,
        }
        match next {
            NIL => self.ready_tail = id,
            n => self.slots[n as usize].ready_prev = id,
        }
    }

    /// Unlink `id` from the ready list (O(1)).
    fn ready_unlink(&mut self, id: u32) {
        let (prev, next) = {
            let s = &mut self.slots[id as usize];
            debug_assert!(s.ready);
            s.ready = false;
            (s.ready_prev, s.ready_next)
        };
        match prev {
            NIL => self.ready_head = next,
            p => self.slots[p as usize].ready_next = next,
        }
        match next {
            NIL => self.ready_tail = prev,
            n => self.slots[n as usize].ready_prev = prev,
        }
    }

    /// Wake operand `preg` of instruction `seq`: a broadcast arrived
    /// (`status` = `Ready`) or the producer moved to the WIB
    /// (`status` = `Wait`). Returns true if the instruction was found.
    pub fn satisfy(&mut self, seq: Seq, preg: PhysReg, class: RegClass, status: SrcStatus) -> bool {
        let Some(id) = self.index.get(seq) else {
            return false;
        };
        let entry = &mut self.slots[id as usize].entry;
        let mut hit = false;
        for src in entry.srcs.iter_mut().flatten() {
            if src.0.preg == preg && src.0.class == class && src.1 == SrcStatus::Pending {
                src.1 = status;
                entry.pending -= 1;
                hit = true;
            }
        }
        if hit && entry.pending == 0 {
            self.ready_link(id);
        }
        hit
    }

    /// True if at least one instruction is selectable this cycle.
    pub fn has_ready(&self) -> bool {
        self.ready_head != NIL
    }

    /// Ready instructions, oldest first.
    pub fn ready_seqs(&self) -> impl Iterator<Item = Seq> + '_ {
        ReadyIter {
            q: self,
            cursor: self.ready_head,
        }
    }

    /// Immutable view of an entry.
    pub fn entry(&self, seq: Seq) -> Option<&IqEntry> {
        self.index.get(seq).map(|id| &self.slots[id as usize].entry)
    }

    /// Remove an instruction (issued, moved to the WIB, or squashed).
    /// Returns its entry if present.
    pub fn remove(&mut self, seq: Seq) -> Option<IqEntry> {
        let id = self.index.remove(seq)?;
        if self.slots[id as usize].ready {
            self.ready_unlink(id);
        }
        let s = &mut self.slots[id as usize];
        debug_assert!(s.occupied);
        s.occupied = false;
        self.free.push(id);
        self.len -= 1;
        Some(s.entry)
    }

    /// Diagnostic: borrowed snapshot of every entry, oldest first.
    #[doc(hidden)]
    pub fn dump(&self) -> Vec<(Seq, &IqEntry)> {
        let mut v: Vec<_> = self
            .slots
            .iter()
            .filter(|s| s.occupied)
            .map(|s| (s.seq, &s.entry))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    /// Machine-check: verify every structural invariant of the slot
    /// arena, free list, seq index, and intrusive ready list. Returns a
    /// description of the first violation found. Always compiled (it is
    /// cheap to build and tests call it directly); the per-cycle hook in
    /// the pipeline is gated behind the `checked` cargo feature.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fail = |msg: String| Err(format!("iq: {msg}"));
        // Arena partition: `free` and occupied slots split the arena
        // exactly, with no duplicates on the free list.
        let occupied: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&i| self.slots[i as usize].occupied)
            .collect();
        if occupied.len() != self.len {
            return fail(format!(
                "len {} != occupied slot count {}",
                self.len,
                occupied.len()
            ));
        }
        if self.len > self.capacity + 1 {
            return fail(format!(
                "len {} exceeds capacity {} + overflow slot",
                self.len, self.capacity
            ));
        }
        let mut seen = vec![false; self.slots.len()];
        for &f in &self.free {
            if f as usize >= self.slots.len() {
                return fail(format!("free-list id {f} out of range"));
            }
            if seen[f as usize] {
                return fail(format!("free-list id {f} duplicated"));
            }
            seen[f as usize] = true;
            if self.slots[f as usize].occupied {
                return fail(format!("slot {f} both free and occupied"));
            }
        }
        if self.free.len() + self.len != self.slots.len() {
            return fail(format!(
                "free {} + occupied {} != arena {}",
                self.free.len(),
                self.len,
                self.slots.len()
            ));
        }
        // Index bijection: every occupied slot is findable by seq and maps
        // back to itself; the table holds exactly `len` live cells; no
        // duplicate seqs among occupied slots.
        let mut seqs = std::collections::HashSet::new();
        for &id in &occupied {
            let s = &self.slots[id as usize];
            if !seqs.insert(s.seq) {
                return fail(format!("seq {} occupies two slots", s.seq));
            }
            match self.index.get(s.seq) {
                Some(found) if found == id => {}
                Some(found) => {
                    return fail(format!(
                        "index maps seq {} to slot {found}, expected {id}",
                        s.seq
                    ));
                }
                None => return fail(format!("occupied seq {} missing from index", s.seq)),
            }
        }
        let live_cells = self.index.table.iter().filter(|(_, s)| *s != NIL).count();
        if live_cells != self.len {
            return fail(format!(
                "index holds {live_cells} live cells, expected {}",
                self.len
            ));
        }
        // Ready list: walk head -> tail; links consistent, strictly
        // age-sorted, members occupied + satisfied; `ready` flags agree
        // with membership and satisfaction.
        let mut cursor = self.ready_head;
        let mut prev = NIL;
        let mut last_seq: Option<Seq> = None;
        let mut on_list = vec![false; self.slots.len()];
        let mut walked = 0usize;
        while cursor != NIL {
            if walked > self.slots.len() {
                return fail("ready list cycle".into());
            }
            let s = &self.slots[cursor as usize];
            if !s.occupied {
                return fail(format!("ready list holds vacant slot {cursor}"));
            }
            if !s.ready {
                return fail(format!("slot {cursor} on ready list without ready flag"));
            }
            if s.ready_prev != prev {
                return fail(format!(
                    "slot {cursor} ready_prev {} != walk prev {prev}",
                    s.ready_prev
                ));
            }
            if !s.entry.is_satisfied() {
                return fail(format!("unsatisfied seq {} on ready list", s.seq));
            }
            if let Some(last) = last_seq {
                if s.seq <= last {
                    return fail(format!("ready list out of age order at seq {}", s.seq));
                }
            }
            last_seq = Some(s.seq);
            on_list[cursor as usize] = true;
            walked += 1;
            prev = cursor;
            cursor = s.ready_next;
        }
        if self.ready_tail != prev {
            return fail(format!(
                "ready_tail {} != last walked slot {prev}",
                self.ready_tail
            ));
        }
        for &id in &occupied {
            let s = &self.slots[id as usize];
            if s.ready != on_list[id as usize] {
                return fail(format!(
                    "slot {id} ready flag {} disagrees with list membership",
                    s.ready
                ));
            }
            if s.entry.is_satisfied() != s.ready {
                return fail(format!(
                    "seq {} satisfied={} but ready={}",
                    s.seq,
                    s.entry.is_satisfied(),
                    s.ready
                ));
            }
            // `pending` cache equals the recount.
            let pending = s
                .entry
                .srcs
                .iter()
                .flatten()
                .filter(|(_, st)| *st == SrcStatus::Pending)
                .count() as u8;
            if pending != s.entry.pending {
                return fail(format!(
                    "seq {} pending cache {} != recount {pending}",
                    s.seq, s.entry.pending
                ));
            }
        }
        Ok(())
    }

    /// Demote an operand that validation found neither ready nor waiting
    /// (its producer was reinserted from the WIB and has not executed
    /// yet). The entry leaves the ready set; the caller must re-subscribe
    /// it to the producing register.
    pub fn demote(&mut self, seq: Seq, preg: PhysReg, class: RegClass) {
        let Some(id) = self.index.get(seq) else {
            return;
        };
        let entry = &mut self.slots[id as usize].entry;
        for src in entry.srcs.iter_mut().flatten() {
            if src.0.preg == preg && src.0.class == class && src.1 != SrcStatus::Pending {
                src.1 = SrcStatus::Pending;
                entry.pending += 1;
            }
        }
        if entry.pending > 0 && self.slots[id as usize].ready {
            self.ready_unlink(id);
        }
    }
}

struct ReadyIter<'a> {
    q: &'a IssueQueue,
    cursor: u32,
}

impl Iterator for ReadyIter<'_> {
    type Item = Seq;

    fn next(&mut self) -> Option<Seq> {
        if self.cursor == NIL {
            return None;
        }
        let s = &self.q.slots[self.cursor as usize];
        self.cursor = s.ready_next;
        Some(s.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(p: u16) -> SrcRef {
        SrcRef {
            class: RegClass::Int,
            preg: PhysReg(p),
        }
    }

    #[test]
    fn ready_on_insert_when_satisfied() {
        let mut q = IssueQueue::new(4);
        q.insert(1, IqEntry::new([Some((src(5), SrcStatus::Ready)), None]));
        assert_eq!(q.ready_seqs().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn wakeup_ordering_is_by_age() {
        let mut q = IssueQueue::new(4);
        q.insert(9, IqEntry::new([Some((src(1), SrcStatus::Pending)), None]));
        q.insert(3, IqEntry::new([Some((src(1), SrcStatus::Pending)), None]));
        assert!(q.ready_seqs().next().is_none());
        assert!(q.satisfy(9, PhysReg(1), RegClass::Int, SrcStatus::Ready));
        assert!(q.satisfy(3, PhysReg(1), RegClass::Int, SrcStatus::Ready));
        assert_eq!(q.ready_seqs().collect::<Vec<_>>(), vec![3, 9]);
    }

    #[test]
    fn both_operands_must_arrive() {
        let mut q = IssueQueue::new(4);
        q.insert(
            1,
            IqEntry::new([
                Some((src(1), SrcStatus::Pending)),
                Some((src(2), SrcStatus::Pending)),
            ]),
        );
        q.satisfy(1, PhysReg(1), RegClass::Int, SrcStatus::Ready);
        assert!(q.ready_seqs().next().is_none());
        q.satisfy(1, PhysReg(2), RegClass::Int, SrcStatus::Ready);
        assert_eq!(q.ready_seqs().count(), 1);
    }

    #[test]
    fn pretend_ready_via_wait() {
        let mut q = IssueQueue::new(4);
        q.insert(
            1,
            IqEntry::new([
                Some((src(1), SrcStatus::Ready)),
                Some((src(2), SrcStatus::Pending)),
            ]),
        );
        q.satisfy(1, PhysReg(2), RegClass::Int, SrcStatus::Wait);
        let e = q.entry(1).unwrap();
        assert!(e.is_satisfied() && e.srcs[1].is_some_and(|(_, s)| s == SrcStatus::Wait));
    }

    #[test]
    fn same_register_both_operands() {
        let mut q = IssueQueue::new(4);
        q.insert(
            1,
            IqEntry::new([
                Some((src(7), SrcStatus::Pending)),
                Some((src(7), SrcStatus::Pending)),
            ]),
        );
        // One broadcast satisfies both.
        q.satisfy(1, PhysReg(7), RegClass::Int, SrcStatus::Ready);
        assert!(q.entry(1).unwrap().is_satisfied());
    }

    #[test]
    fn class_mismatch_is_not_satisfied() {
        let mut q = IssueQueue::new(4);
        q.insert(1, IqEntry::new([Some((src(7), SrcStatus::Pending)), None]));
        assert!(!q.satisfy(1, PhysReg(7), RegClass::Fp, SrcStatus::Ready));
        assert!(!q.entry(1).unwrap().is_satisfied());
    }

    #[test]
    fn demote_returns_to_pending() {
        let mut q = IssueQueue::new(4);
        q.insert(1, IqEntry::new([Some((src(7), SrcStatus::Wait)), None]));
        assert_eq!(q.ready_seqs().count(), 1);
        q.demote(1, PhysReg(7), RegClass::Int);
        assert_eq!(q.ready_seqs().count(), 0);
        q.satisfy(1, PhysReg(7), RegClass::Int, SrcStatus::Ready);
        assert_eq!(q.ready_seqs().count(), 1);
    }

    #[test]
    fn capacity_and_removal() {
        let mut q = IssueQueue::new(2);
        q.insert(1, IqEntry::new([None, None]));
        q.insert(2, IqEntry::new([None, None]));
        assert_eq!(q.free_slots(), 0);
        assert!(q.remove(1).is_some());
        assert!(q.remove(1).is_none());
        assert_eq!(q.free_slots(), 1);
        assert!(q.contains(2) && !q.contains(1));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = IssueQueue::new(1);
        q.insert(1, IqEntry::new([None, None]));
        q.insert(2, IqEntry::new([None, None]));
    }

    #[test]
    fn overflow_slot_holds_one_extra_entry() {
        let mut q = IssueQueue::new(2);
        q.insert(5, IqEntry::new([None, None]));
        q.insert(6, IqEntry::new([None, None]));
        assert_eq!(q.free_slots(), 0);
        q.insert_overflow(4, IqEntry::new([None, None]));
        assert_eq!(q.len(), 3);
        // Oldest first even though the overflow entry arrived last.
        assert_eq!(q.ready_seqs().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert!(q.remove(4).is_some());
        assert_eq!(q.free_slots(), 0);
    }

    #[test]
    fn ready_order_survives_interleaved_removal() {
        let mut q = IssueQueue::new(8);
        for seq in [12, 3, 9, 7, 1] {
            q.insert(seq, IqEntry::new([None, None]));
        }
        assert_eq!(q.ready_seqs().collect::<Vec<_>>(), vec![1, 3, 7, 9, 12]);
        q.remove(7);
        q.remove(1);
        assert_eq!(q.ready_seqs().collect::<Vec<_>>(), vec![3, 9, 12]);
        q.insert(5, IqEntry::new([None, None]));
        assert_eq!(q.ready_seqs().collect::<Vec<_>>(), vec![3, 5, 9, 12]);
    }

    #[test]
    fn slots_recycle_without_growth() {
        let mut q = IssueQueue::new(4);
        for round in 0..100u64 {
            for k in 0..4 {
                q.insert(round * 4 + k, IqEntry::new([None, None]));
            }
            assert_eq!(q.free_slots(), 0);
            for k in 0..4 {
                assert!(q.remove(round * 4 + k).is_some());
            }
            assert!(q.is_empty());
        }
    }
}
