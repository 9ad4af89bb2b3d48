//! The out-of-order core: a 7-stage, 8-wide pipeline loosely modeled on
//! the Alpha 21264 (paper Table 1), with an optional Waiting Instruction
//! Buffer.
//!
//! The model is **execution-driven**: values live in the physical register
//! files and are computed in dataflow order by the execute stage; stores
//! update architectural memory at commit; loads execute speculatively with
//! store-queue forwarding and order-violation replay. Wrong-path
//! instructions after a branch misprediction are genuinely fetched,
//! renamed and executed until the branch resolves.
//!
//! An optional co-simulation checker retires a reference interpreter in
//! lockstep with commit and cross-checks every PC and destination value —
//! the integration test suite runs every configuration with it enabled.

use crate::cancel::CancelToken;
use crate::config::{Backend, MachineConfig, RegFileConfig, WibOrganization, WibTrigger};
use crate::cpi::CpiCategory;
use crate::delay::DelayQueue;
use crate::events::{EventSink, PipeEvent};
use crate::fu::FuPool;
use crate::iq::{IqEntry, IssueQueue, SrcStatus};
use crate::lsq::{ForwardResult, LoadStoreQueue};
use crate::profile::{StageProfile, PROFILE_SAMPLE_PERIOD, STAGE_COUNT};
use crate::regfile::{RegFile, RegTiming};
use crate::rename::RenameMap;
use crate::rob::{ActiveList, BranchInfo, MissKind, RobEntry};
use crate::runahead::RunaheadState;
use crate::stats::{IntervalSample, SimStats};
use crate::types::{PhysReg, Seq, SrcRef};
use crate::window::Window;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use wib_bpred::btb::Btb;
use wib_bpred::dir::CombinedPredictor;
use wib_bpred::ras::Ras;
use wib_bpred::storewait::StoreWaitTable;
use wib_isa::exec;
use wib_isa::inst::Inst;
use wib_isa::interp::Interpreter;
use wib_isa::mem::{Memory, PagedMemory};
use wib_isa::program::Program;
use wib_isa::reg::{ArchReg, RegClass, NUM_ARCH_REGS};
use wib_mem::cache::AccessKind;
use wib_mem::hier::MemoryHierarchy;

/// How long to run the detailed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimit {
    max_insts: u64,
    max_cycles: u64,
}

impl RunLimit {
    /// Stop after `n` committed instructions (or `halt`, whichever is
    /// first). A generous cycle backstop prevents runaway simulations.
    pub fn instructions(n: u64) -> RunLimit {
        RunLimit {
            max_insts: n,
            max_cycles: n.saturating_mul(1000).max(1_000_000),
        }
    }

    /// Stop after `n` cycles (or `halt`).
    pub fn cycles(n: u64) -> RunLimit {
        RunLimit {
            max_insts: u64::MAX,
            max_cycles: n,
        }
    }
}

/// What [`Processor::run`] does: how many instructions to fast-forward
/// first, how long to simulate in detail, and where pipeline events go.
///
/// A bare [`RunLimit`] converts into a cold run with no sink:
/// `processor.run(&program, RunLimit::instructions(n).into())`.
pub struct RunOptions<'s> {
    /// Instructions fast-forwarded on the reference interpreter before
    /// the detailed run (0 = start the detailed run from reset).
    pub warmup: u64,
    /// How long to simulate in detail.
    pub limit: RunLimit,
    /// Receives every pipeline event of the detailed run (see
    /// [`crate::events`]; a [`crate::trace::Trace`] is one such sink).
    /// Warm-up emits no events.
    pub sink: Option<&'s mut dyn EventSink>,
}

impl From<RunLimit> for RunOptions<'_> {
    fn from(limit: RunLimit) -> Self {
        RunOptions {
            warmup: 0,
            limit,
            sink: None,
        }
    }
}

/// Outcome of a detailed-simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Accumulated statistics.
    pub stats: SimStats,
    /// True if the program executed `halt`.
    pub halted: bool,
    /// True if the run was stopped early by a [`CancelToken`] (explicit
    /// cancel or deadline expiry). Statistics then cover only the cycles
    /// simulated before the epoch-boundary poll noticed, and must not be
    /// compared against — or cached as — a completed run.
    pub cancelled: bool,
    /// Sampled wall-clock attribution of engine time to pipeline stages
    /// (one cycle in [`PROFILE_SAMPLE_PERIOD`] is timed). Host-machine
    /// telemetry, *not* simulated state: two identical runs produce
    /// identical `stats` but different profiles.
    pub profile: StageProfile,
    /// Work the warm-up did (all zero for a run with no warm-up).
    pub warmup_work: WarmUpWork,
}

/// Deterministic counts of the work a warm-up did. Like
/// [`RunResult::profile`] they describe the host-side cost of a run, not
/// the simulated machine, so they stay out of [`SimStats`] and its
/// digest; unlike it, they repeat exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmUpWork {
    /// Instruction words the reference interpreter decoded.
    pub decodes: u64,
    /// TLB and L1 lookups made to warm the memory hierarchy.
    pub hier_lookups: u64,
    /// Bytes of memory image copied to hand the warmed state over.
    pub bytes_cloned: u64,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// A configured processor, ready to run programs.
///
/// Each [`Processor::run`] call simulates from a cold (or warmed) machine
/// state; the `Processor` itself is reusable.
#[derive(Debug, Clone)]
pub struct Processor {
    cfg: MachineConfig,
    cosim: bool,
    machine_check: bool,
    no_skip: bool,
    cancel: Option<CancelToken>,
}

impl Processor {
    /// Build a processor.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig) -> Processor {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine configuration: {e}");
        }
        Processor {
            cfg,
            cosim: false,
            machine_check: false,
            no_skip: false,
            cancel: None,
        }
    }

    /// The configuration this processor was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Enable the co-simulation checker: every committed instruction is
    /// cross-checked against the reference interpreter.
    ///
    /// # Panics (during runs)
    /// A run panics if the pipeline ever diverges from the interpreter —
    /// that is a simulator bug, not a user error.
    pub fn enable_cosim(&mut self) -> &mut Self {
        self.cosim = true;
        self
    }

    /// Run every machine-check invariant (see [`crate::check`]) once per
    /// simulated cycle, regardless of the `checked` cargo feature. Used by
    /// the differential fuzzer and repro replays.
    ///
    /// # Panics (during runs)
    /// A run panics on the first cycle whose state violates an invariant —
    /// that is a simulator bug, not a user error.
    pub fn enable_machine_check(&mut self) -> &mut Self {
        self.machine_check = true;
        self
    }

    /// Disable the quiescent-cycle fast-forward optimization: simulate
    /// every cycle individually. The result must be bit-identical to a
    /// fast-forwarding run — the differential fuzzer exercises exactly
    /// that equivalence.
    pub fn disable_fast_forward(&mut self) -> &mut Self {
        self.no_skip = true;
        self
    }

    /// Attach a cooperative [`CancelToken`]: runs stop at the next
    /// stats-epoch boundary once the token trips (explicit cancel or
    /// deadline), returning with [`RunResult::cancelled`] set. The token
    /// is polled once per epoch (and every 4096 warm-up instructions),
    /// so the cycle loop stays allocation- and syscall-free.
    pub fn set_cancel_token(&mut self, token: CancelToken) -> &mut Self {
        self.cancel = Some(token);
        self
    }

    /// Run `program` until `halt` or `opts.limit`.
    ///
    /// With `opts.warmup > 0` the reference interpreter first
    /// fast-forwards that many instructions (warming caches and TLBs;
    /// predictors are left cold) and the detailed run starts from the
    /// resulting architectural state — the paper's skip-then-measure
    /// methodology. A warm-up that reaches `halt` returns a halted result
    /// with no detailed cycles. With `opts.warmup == 0` the detailed run
    /// starts from reset.
    pub fn run(&self, program: &Program, opts: RunOptions<'_>) -> RunResult {
        let mut engine = Engine::new(&self.cfg, program, self.cosim);
        engine.machine_check = self.machine_check;
        engine.no_skip = self.no_skip;
        engine.cancel = self.cancel.clone();
        let mut warmup_work = WarmUpWork::default();
        if opts.warmup > 0 {
            warmup_work = engine.warm_up(program, opts.warmup);
            engine.halted = engine.checker.as_ref().is_some_and(Interpreter::is_halted);
        }
        engine.sink = opts.sink.map(|sink| sink as &mut dyn EventSink);
        RunResult {
            warmup_work,
            ..engine.run(opts.limit)
        }
    }

    /// [`Processor::run`] after `warmup` fast-forwarded instructions, with
    /// no event sink.
    pub fn run_program_warmed(&self, program: &Program, warmup: u64, limit: RunLimit) -> RunResult {
        self.run(
            program,
            RunOptions {
                warmup,
                ..limit.into()
            },
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Non-load instruction finishes execution.
    Complete(Seq),
    /// Load address generation done: access the D-cache / store queue.
    LoadAddr(Seq),
    /// Load data arrives.
    LoadData(Seq),
}

#[derive(Debug, Clone)]
struct Fetched {
    pc: u32,
    inst: Inst,
    ready_at: u64,
    fetched_at: u64,
    branch: Option<BranchInfo>,
    hist_before: u32,
    ras_before: wib_bpred::ras::RasCheckpoint,
}

/// One scheduled pipeline event. Orders by `(at, order)` where `order` is
/// a monotone insertion counter, so a min-heap pops events in exactly the
/// sequence the old `BTreeMap<u64, Vec<Event>>` produced (ascending cycle,
/// insertion order within a cycle) without allocating a map node and a
/// vector per busy cycle.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: u64,
    order: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.at == other.at && self.order == other.order
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> std::cmp::Ordering {
        (self.at, self.order).cmp(&(other.at, other.order))
    }
}

/// Cycles a committed-store retry or forwarding hit takes to deliver data.
const FORWARD_LATENCY: u64 = 2;

/// Commit inactivity threshold for the deadlock watchdog.
const WATCHDOG_CYCLES: u64 = 200_000;

struct Engine<'c> {
    cfg: &'c MachineConfig,
    now: u64,
    mem: PagedMemory,
    hier: MemoryHierarchy,
    dir: CombinedPredictor,
    btb: Btb,
    ras: Ras,
    storewait: StoreWaitTable,
    rename: RenameMap,
    rf_int: RegFile,
    rf_fp: RegFile,
    iq_int: IssueQueue,
    iq_fp: IssueQueue,
    lsq: LoadStoreQueue,
    rob: ActiveList,
    fu: FuPool,
    wib: Option<Window>,
    /// Runahead backend: `Some` while a pre-execution episode is in
    /// flight (see [`crate::runahead`]).
    ra: Option<RunaheadState>,
    /// Runahead: two-level register-file L2 reads accumulated before
    /// episode exits rebuilt the register files (their counters restart;
    /// the end-of-run total adds this back).
    ra_lost_l2_reads: u64,
    /// Delay-tracking backend's parking structure (`Some` iff
    /// `backend = delay_track`; see [`crate::delay`]).
    delayq: Option<DelayQueue>,
    /// Delay-tracking: predicted absolute data-ready cycle per physical
    /// register (0 = no prediction). Sized only for the delay backend.
    delay_hint_int: Vec<u64>,
    delay_hint_fp: Vec<u64>,
    events: BinaryHeap<Reverse<Scheduled>>,
    event_order: u64,
    fetch_pc: u32,
    fetch_resume_at: u64,
    fetch_halted: bool,
    ifq: VecDeque<Fetched>,
    pending_load_values: HashMap<Seq, u64>,
    /// Loads blocked on a partially overlapping older store: retried when
    /// that store commits.
    blocked_loads: Vec<(Seq, Seq)>,
    halted: bool,
    stats: SimStats,
    checker: Option<Interpreter>,
    /// Optional pipeline event stream (observability layer).
    sink: Option<&'c mut dyn EventSink>,
    /// CPI-stack bookkeeping: the resource that blocked dispatch this
    /// cycle, the cycle branch-recovery redirect ends, and the commit
    /// count at the last interval-sample boundary.
    dispatch_block: Option<CpiCategory>,
    recovery_until: u64,
    interval_committed_mark: u64,
    last_commit_cycle: u64,
    /// Run the machine-check invariants every cycle (see [`crate::check`]).
    /// Forced on by the `checked` cargo feature.
    machine_check: bool,
    /// Quiescent-cycle fast-forward disabled: simulate every cycle.
    no_skip: bool,
    /// Cooperative stop request, polled at stats-epoch boundaries only.
    cancel: Option<CancelToken>,
    /// Set once the token is observed tripped; the run unwinds cleanly.
    cancelled: bool,
    /// Sampled per-stage wall-clock attribution (see [`crate::profile`]).
    profile: StageProfile,
    /// Reusable per-cycle scratch buffers (taken with `mem::take`, used,
    /// cleared and put back) so the steady-state cycle loop performs no
    /// heap allocation. The three wakeup buffers are distinct because the
    /// deepest synchronous chain nests them: `writeback` →
    /// `complete_store_data` → `retry_loads_blocked_on` →
    /// `try_load_data` → `divert_chain_to_wib` → `wake_as_wait`.
    scratch_candidates: Vec<Seq>,
    scratch_woken_wb: Vec<Seq>,
    scratch_woken_wait: Vec<Seq>,
    scratch_unblocked: Vec<Seq>,
    scratch_undo: Vec<RobEntry>,
    scratch_cols: Vec<(crate::types::ColumnId, Seq)>,
}

/// Register-file timing model for `cfg` (shared between engine
/// construction and the runahead episode-exit rebuild).
fn rf_timing(cfg: &MachineConfig) -> RegTiming {
    match cfg.regfile {
        RegFileConfig::SingleLevel => RegTiming::Flat,
        RegFileConfig::TwoLevel {
            l1_regs,
            l2_latency,
            ..
        } => RegTiming::TwoLevel {
            l1_regs: l1_regs as usize,
            l2_latency,
        },
        RegFileConfig::MultiBanked {
            banks,
            ports_per_bank,
            conflict_penalty,
        } => RegTiming::Banked {
            banks: banks as usize,
            ports: ports_per_bank,
            conflict_penalty,
        },
    }
}

/// One profiling lap: charge the time since the previous lap to `slot`
/// and restart the clock. A no-op on unprofiled cycles (`at` is `None`).
#[inline]
fn profile_lap(at: &mut Option<std::time::Instant>, slot: &mut u64) {
    if let Some(t) = at {
        let now = std::time::Instant::now();
        *slot += now.duration_since(*t).as_nanos() as u64;
        *t = now;
    }
}

impl<'c> Engine<'c> {
    fn new(cfg: &'c MachineConfig, program: &Program, cosim: bool) -> Engine<'c> {
        let mut mem = PagedMemory::new();
        program.load_into(&mut mem);
        let rf_timing = rf_timing(cfg);
        let delayq = matches!(cfg.backend, Backend::DelayTrack { .. })
            .then(|| DelayQueue::new(cfg.active_list as usize));
        let delay_hints = if delayq.is_some() {
            vec![0u64; cfg.regs_per_class as usize]
        } else {
            Vec::new()
        };
        let wib = cfg.wib.as_ref().map(|w| {
            Window::new(
                cfg.active_list as usize,
                w.organization,
                w.policy,
                w.max_bit_vectors as usize,
            )
        });
        Engine {
            cfg,
            now: 0,
            mem,
            hier: MemoryHierarchy::new(cfg.mem.clone()),
            dir: CombinedPredictor::new(cfg.dir.clone()),
            btb: Btb::new(cfg.btb),
            ras: Ras::new(cfg.ras_entries as usize),
            storewait: StoreWaitTable::isca2002(),
            rename: RenameMap::new(),
            rf_int: RegFile::new(cfg.regs_per_class as usize, 32, rf_timing),
            rf_fp: RegFile::new(cfg.regs_per_class as usize, 32, rf_timing),
            iq_int: IssueQueue::new(cfg.iq_int_size as usize),
            iq_fp: IssueQueue::new(cfg.iq_fp_size as usize),
            lsq: LoadStoreQueue::new(cfg.load_queue as usize, cfg.store_queue as usize),
            rob: ActiveList::new(cfg.active_list as usize),
            fu: FuPool::new(cfg.fu.clone()),
            wib,
            ra: None,
            ra_lost_l2_reads: 0,
            delayq,
            delay_hint_int: delay_hints.clone(),
            delay_hint_fp: delay_hints,
            events: BinaryHeap::with_capacity(256),
            event_order: 0,
            fetch_pc: program.entry,
            fetch_resume_at: 0,
            fetch_halted: false,
            ifq: VecDeque::new(),
            pending_load_values: HashMap::new(),
            blocked_loads: Vec::new(),
            halted: false,
            stats: SimStats {
                interval_epoch: cfg.stats_epoch,
                backend: match cfg.backend {
                    Backend::Runahead { .. } => "runahead".to_string(),
                    Backend::DelayTrack { .. } => "delay_track".to_string(),
                    Backend::Base | Backend::Wib => String::new(),
                },
                ..SimStats::default()
            },
            checker: cosim.then(|| Interpreter::new(program)),
            sink: None,
            dispatch_block: None,
            recovery_until: 0,
            interval_committed_mark: 0,
            last_commit_cycle: 0,
            machine_check: false,
            no_skip: false,
            cancel: None,
            cancelled: false,
            profile: StageProfile::default(),
            scratch_candidates: Vec::with_capacity(64),
            scratch_woken_wb: Vec::with_capacity(32),
            scratch_woken_wait: Vec::with_capacity(32),
            scratch_unblocked: Vec::with_capacity(16),
            scratch_undo: Vec::with_capacity(cfg.active_list as usize),
            scratch_cols: Vec::with_capacity(16),
        }
    }

    /// Report a pipeline event to the attached sink, if any.
    #[inline]
    fn emit(&mut self, ev: PipeEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(self.now, &ev);
        }
    }

    /// The WIB bank an active-list slot maps to (0 for non-banked
    /// organizations; mirrors the `slot % banks` mapping in `wib.rs`).
    fn wib_bank(&self, slot: usize) -> u32 {
        match self.cfg.wib.as_ref().map(|w| w.organization) {
            Some(WibOrganization::Banked { banks }) => (slot % banks as usize) as u32,
            _ => 0,
        }
    }

    /// Fast-forward on the interpreter, warming caches/TLBs, then seed the
    /// detailed machine from the resulting architectural state. The
    /// advanced interpreter then checks every commit of the detailed run.
    fn warm_up(&mut self, program: &Program, instructions: u64) -> WarmUpWork {
        let mut interp = self
            .checker
            .take()
            .unwrap_or_else(|| Interpreter::new(program));
        for done in 0..instructions {
            if interp.is_halted() {
                break;
            }
            // Same spirit as the epoch poll in the cycle loop: warm-up can
            // dominate a job's wall clock, so it honors the token too, at a
            // granularity that keeps the interpreter loop branch-predictable.
            if done % 4096 == 0 {
                if let Some(token) = &self.cancel {
                    token.beat();
                    if token.should_stop() {
                        self.cancelled = true;
                        break;
                    }
                }
            }
            let info = interp.step().expect("warm-up hit an invalid instruction");
            self.hier.warm_inst(info.pc);
            if let Some(m) = info.mem {
                let kind = if m.is_store {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                self.hier.warm_data(m.addr, kind);
            }
        }
        self.hier.reset_stats();
        // Seed architectural state.
        self.mem = interp.memory().clone();
        let work = WarmUpWork {
            decodes: interp.decodes(),
            hier_lookups: self.hier.warm_lookups(),
            bytes_cloned: self.mem.bytes_allocated() as u64,
        };
        self.fetch_pc = interp.pc();
        for flat in 0..NUM_ARCH_REGS as u8 {
            let r = ArchReg::from_flat(flat);
            let p = self.rename.lookup(r);
            let bits = interp.reg_bits(r);
            match r.class() {
                RegClass::Int => self.rf_int.poke(p, bits),
                RegClass::Fp => self.rf_fp.poke(p, bits),
            }
        }
        if interp.retired() > 0 {
            self.checker = Some(interp);
        }
        work
    }

    fn rf(&self, class: RegClass) -> &RegFile {
        match class {
            RegClass::Int => &self.rf_int,
            RegClass::Fp => &self.rf_fp,
        }
    }

    fn rf_mut(&mut self, class: RegClass) -> &mut RegFile {
        match class {
            RegClass::Int => &mut self.rf_int,
            RegClass::Fp => &mut self.rf_fp,
        }
    }

    fn iq_for(&mut self, inst: &Inst) -> &mut IssueQueue {
        if inst.is_fp_queue() {
            &mut self.iq_fp
        } else {
            &mut self.iq_int
        }
    }

    fn iq_for_ref(&self, inst: &Inst) -> &IssueQueue {
        if inst.is_fp_queue() {
            &self.iq_fp
        } else {
            &self.iq_int
        }
    }

    /// Instructions parked outside the issue queues: in the WIB or the
    /// delay queue (at most one exists per configuration).
    fn parked_resident(&self) -> usize {
        self.wib.as_ref().map_or(0, Window::resident)
            + self.delayq.as_ref().map_or(0, DelayQueue::resident)
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        debug_assert!(at > self.now);
        self.event_order += 1;
        self.events.push(Reverse(Scheduled {
            at,
            order: self.event_order,
            ev,
        }));
    }

    /// Raw bits of a source operand (0 for absent operands).
    fn src_value(&self, src: Option<SrcRef>) -> u64 {
        match src {
            Some(s) => self.rf(s.class).value(s.preg),
            None => 0,
        }
    }

    /// Needs an issue-queue entry at dispatch? `nop`, `halt` and direct
    /// jumps complete in the front end.
    fn needs_iq(inst: &Inst) -> bool {
        use wib_isa::inst::Opcode::*;
        !matches!(inst.op, Nop | Halt | J | Jal)
    }

    /// The operands the issue queue tracks for wakeup. Stores issue on
    /// their base register alone (address generation is decoupled from
    /// the data operand, as on the 21264).
    fn tracked_srcs(inst: &Inst, srcs: &[Option<SrcRef>; 2]) -> [Option<SrcRef>; 2] {
        if inst.is_store() {
            [srcs[0], None]
        } else {
            *srcs
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn do_fetch(&mut self) {
        if self.fetch_halted || self.now < self.fetch_resume_at {
            return;
        }
        if self.ifq.len() >= self.cfg.ifq_size as usize {
            return;
        }
        // One I-cache access per fetch group; a miss stalls fetch until
        // the line arrives.
        let hit_latency = self.cfg.mem.l1i.hit_latency;
        let ready = self.hier.inst_fetch(self.fetch_pc, self.now);
        if ready > self.now + hit_latency {
            self.fetch_resume_at = ready;
            return;
        }
        let dispatch_at = self.now + self.cfg.front_end_delay;
        for _ in 0..self.cfg.fetch_width {
            if self.ifq.len() >= self.cfg.ifq_size as usize {
                break;
            }
            let pc = self.fetch_pc;
            let word = self.mem.read_u32(pc);
            // Wrong-path fetches can land in data; treat undecodable words
            // as nops (they are squashed before commit on a correct run).
            let inst = Inst::decode(word).unwrap_or(Inst::NOP);
            self.stats.fetched += 1;
            self.emit(PipeEvent::Fetch { pc });
            let hist_before = self.dir.history();
            let ras_before = self.ras.checkpoint();
            let mut branch = None;
            let mut next_pc = pc.wrapping_add(4);
            let mut bubble = 0u64;
            let mut stop = false;

            if inst.is_cond_branch() {
                self.stats.dir_lookups += 1;
                let pr = self.dir.predict(pc);
                let mut pred_next = pc.wrapping_add(4);
                if pr.taken {
                    let target = exec::control_target(&inst, pc, 0);
                    if self.btb.lookup(pc).is_none() {
                        bubble = self.cfg.btb_miss_penalty_direct;
                    }
                    self.btb.update(pc, target);
                    pred_next = target;
                    stop = true;
                }
                branch = Some(BranchInfo {
                    pred_taken: pr.taken,
                    pred_next,
                    dir_ckpt: Some(pr.ckpt),
                    ras_after: self.ras.checkpoint(),
                });
                next_pc = pred_next;
            } else if inst.is_jump_direct() {
                let target = exec::control_target(&inst, pc, 0);
                if self.btb.lookup(pc).is_none() {
                    bubble = self.cfg.btb_miss_penalty_direct;
                }
                self.btb.update(pc, target);
                if inst.is_call() {
                    self.ras.push(pc.wrapping_add(4));
                }
                branch = Some(BranchInfo {
                    pred_taken: true,
                    pred_next: target,
                    dir_ckpt: None,
                    ras_after: self.ras.checkpoint(),
                });
                next_pc = target;
                stop = true;
            } else if inst.is_jump_indirect() {
                let target = if inst.is_return() {
                    self.ras.pop()
                } else {
                    match self.btb.lookup(pc) {
                        Some(t) => t,
                        None => {
                            bubble = self.cfg.btb_miss_penalty_other;
                            pc.wrapping_add(4) // will almost surely mispredict
                        }
                    }
                };
                if inst.is_call() {
                    self.ras.push(pc.wrapping_add(4));
                }
                branch = Some(BranchInfo {
                    pred_taken: true,
                    pred_next: target,
                    dir_ckpt: None,
                    ras_after: self.ras.checkpoint(),
                });
                next_pc = target;
                stop = true;
            }

            self.ifq.push_back(Fetched {
                pc,
                inst,
                ready_at: dispatch_at,
                fetched_at: self.now,
                branch,
                hist_before,
                ras_before,
            });
            self.fetch_pc = next_pc;
            if inst.is_halt() {
                self.fetch_halted = true;
                break;
            }
            if stop {
                if bubble > 0 {
                    self.fetch_resume_at = self.now + 1 + bubble;
                }
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (WIB reinsertion has priority for the shared bandwidth)
    // ------------------------------------------------------------------

    fn evaluate_srcs(
        &mut self,
        seq: Seq,
        srcs: &[Option<SrcRef>; 2],
    ) -> [Option<(SrcRef, SrcStatus)>; 2] {
        let mut out = [None, None];
        for (slot, src) in srcs.iter().enumerate() {
            let Some(s) = *src else { continue };
            let status = if self.rf(s.class).is_ready(s.preg) {
                SrcStatus::Ready
            } else if self.rf(s.class).wait_column(s.preg).is_some() {
                SrcStatus::Wait
            } else {
                self.rf_mut(s.class).subscribe(s.preg, seq);
                SrcStatus::Pending
            };
            out[slot] = Some((s, status));
        }
        out
    }

    /// Reinsert a WIB instruction into its issue queue; false if full.
    fn try_reinsert(&mut self, seq: Seq) -> bool {
        let Some(e) = self.rob.get(seq) else {
            debug_assert!(false, "WIB held a dead instruction");
            return false;
        };
        let inst = e.inst;
        let srcs = e.srcs;
        let dest = e.dest;
        let overflow = self.iq_for(&inst).free_slots() == 0;
        if overflow && self.rob.head().map(|h| h.seq) != Some(seq) {
            return false;
        }
        let tracked = Engine::tracked_srcs(&inst, &srcs);
        let entry = IqEntry::new(self.evaluate_srcs(seq, &tracked));
        if overflow {
            // Forward-progress guarantee: the oldest in-flight instruction
            // may always reenter — its elders have committed, so its
            // operands are ready and it issues immediately.
            self.iq_for(&inst).insert_overflow(seq, entry);
        } else {
            self.iq_for(&inst).insert(seq, entry);
        }
        if let Some((arch, p, _)) = dest {
            // The destination no longer hangs off a column; consumers that
            // latched `Wait` re-pend via select-time validation.
            self.rf_mut(arch.class()).clear_wait(p);
        }
        let e = self.rob.get_mut(seq).expect("checked above");
        e.in_wib = false;
        let slot = e.slot;
        self.stats.wib_extractions += 1;
        self.emit(PipeEvent::WibExtract {
            seq,
            bank: self.wib_bank(slot),
        });
        true
    }

    /// Reinsert a delay-parked instruction into its issue queue; false if
    /// full. Mirrors [`Engine::try_reinsert`] (the issue queue's overflow
    /// slot is reserved for the window head) but with no wait bits to
    /// clear — delay tracking never sets them.
    fn try_reinsert_delayed(&mut self, seq: Seq) -> bool {
        let Some(e) = self.rob.get(seq) else {
            debug_assert!(false, "delay queue held a dead instruction");
            return false;
        };
        let inst = e.inst;
        let srcs = e.srcs;
        let overflow = self.iq_for(&inst).free_slots() == 0;
        if overflow && self.rob.head().map(|h| h.seq) != Some(seq) {
            return false;
        }
        let tracked = Engine::tracked_srcs(&inst, &srcs);
        let entry = IqEntry::new(self.evaluate_srcs(seq, &tracked));
        if overflow {
            self.iq_for(&inst).insert_overflow(seq, entry);
        } else {
            self.iq_for(&inst).insert(seq, entry);
        }
        self.rob.get_mut(seq).expect("checked above").in_wib = false;
        self.stats.delay_reinserted += 1;
        true
    }

    /// Reinsert due delay-parked instructions: a due window head first
    /// (it may claim the overflow slot so commit always makes progress),
    /// then the regular wake-order extraction. Returns the dispatch
    /// bandwidth consumed.
    fn do_delay_reinsert(&mut self, mut budget: usize) -> usize {
        let mut used = 0;
        let head_parked = self
            .rob
            .head()
            .filter(|h| h.in_wib)
            .map(|h| (h.seq, h.slot));
        if let Some((hseq, hslot)) = head_parked {
            let due = self
                .delayq
                .as_ref()
                .is_some_and(|dq| dq.due_slot(hslot, self.now));
            if due && budget > 0 && self.try_reinsert_delayed(hseq) {
                self.delayq
                    .as_mut()
                    .expect("checked above")
                    .take_slot(hslot);
                budget -= 1;
                used += 1;
            }
        }
        if budget > 0 {
            if let Some(mut dq) = self.delayq.take() {
                used += dq.extract(self.now, budget, |seq, _slot| {
                    self.try_reinsert_delayed(seq)
                });
                self.delayq = Some(dq);
            }
        }
        used
    }

    // ------------------------------------------------------------------
    // Delay-tracking backend (see `crate::delay`)
    // ------------------------------------------------------------------

    /// Predicted absolute data-ready cycle for `(class, p)`; 0 = none.
    fn delay_hint(&self, class: RegClass, p: PhysReg) -> u64 {
        match class {
            RegClass::Int => self.delay_hint_int[p.0 as usize],
            RegClass::Fp => self.delay_hint_fp[p.0 as usize],
        }
    }

    fn set_delay_hint_raw(&mut self, class: RegClass, p: PhysReg, at: u64) {
        let plane = match class {
            RegClass::Int => &mut self.delay_hint_int,
            RegClass::Fp => &mut self.delay_hint_fp,
        };
        plane[p.0 as usize] = at;
    }

    /// Issue-to-writeback latency for `inst` once its operands are ready:
    /// one register-read cycle, one wakeup/select cycle, then the
    /// functional-unit (or L1D-hit) latency. The delay-chain stamp a
    /// parked consumer hands its own dependents.
    fn delay_estimate(&self, inst: &Inst) -> u64 {
        use wib_isa::inst::FuKind;
        let fu = &self.cfg.fu;
        2 + match inst.fu_kind() {
            FuKind::IntAlu => 1,
            FuKind::IntMul => fu.int_mul_latency,
            FuKind::FpAdd => fu.fp_add_latency,
            FuKind::FpMul => fu.fp_mul_latency,
            FuKind::FpDiv => fu.fp_div_latency,
            FuKind::FpSqrt => fu.fp_sqrt_latency,
            FuKind::Mem => 1 + self.cfg.mem.l1d.hit_latency,
        }
    }

    /// A load's data-arrival cycle became known. If the remaining latency
    /// exceeds the parking threshold, stamp the destination and park the
    /// waiting dependence chain in the delay queue.
    fn delay_note_arrival(&mut self, seq: Seq, arrive: u64) {
        let Backend::DelayTrack { park_threshold } = self.cfg.backend else {
            return;
        };
        if arrive.saturating_sub(self.now) <= park_threshold {
            return;
        }
        let Some((arch, p, _)) = self.rob.get(seq).and_then(|e| e.dest) else {
            return;
        };
        self.propagate_delay(arch.class(), p, arrive);
    }

    /// Stamp `(class, p)` with predicted-ready cycle `at` and cascade:
    /// subscribers whose operands all carry predictions park in the delay
    /// queue and stamp their own destinations one estimate later.
    fn propagate_delay(&mut self, class: RegClass, p: PhysReg, at: u64) {
        let mut work = vec![(class, p, at)];
        let mut woken = Vec::new();
        while let Some((class, p, at)) = work.pop() {
            if self.rf(class).is_ready(p) {
                continue; // raced with the writeback; nothing to predict
            }
            self.set_delay_hint_raw(class, p, at);
            woken.clear();
            self.rf_mut(class).take_waiters_into(p, &mut woken);
            for i in 0..woken.len() {
                if let Some(next) = self.try_park(woken[i], class, p) {
                    work.push(next);
                }
            }
        }
    }

    /// Try to park subscriber `seq` of `(class, p)`. Non-parkable
    /// subscribers (already issued, store-data waiters, operands without
    /// predictions, predictions already due) are re-subscribed so the real
    /// writeback still reaches them. Returns the parked instruction's
    /// destination stamp for cascading.
    fn try_park(
        &mut self,
        seq: Seq,
        class: RegClass,
        p: PhysReg,
    ) -> Option<(RegClass, PhysReg, u64)> {
        let Some(e) = self.rob.get(seq) else {
            return None; // squashed since subscribing
        };
        if e.completed || e.in_wib {
            return None;
        }
        let inst = e.inst;
        let slot = e.slot;
        let dest = e.dest;
        let srcs = Engine::tracked_srcs(&inst, &e.srcs);
        if e.issued || !Engine::needs_iq(&inst) || !self.iq_for_ref(&inst).contains(seq) {
            // A store waiting for its data operand, or an issued load whose
            // producer re-subscribed it: needs the value, not a prediction.
            self.rf_mut(class).subscribe(p, seq);
            return None;
        }
        let mut wake = 0u64;
        for s in srcs.iter().flatten() {
            if self.rf(s.class).is_ready(s.preg) {
                continue;
            }
            let hint = self.delay_hint(s.class, s.preg);
            if hint == 0 {
                // An operand with no prediction: cannot park safely.
                self.rf_mut(class).subscribe(p, seq);
                return None;
            }
            wake = wake.max(hint);
        }
        if wake <= self.now {
            self.rf_mut(class).subscribe(p, seq);
            return None;
        }
        self.iq_for(&inst).remove(seq);
        {
            let e = self.rob.get_mut(seq).expect("live");
            e.in_wib = true; // "parked outside the issue queue"
            e.wib_trips += 1;
        }
        self.delayq
            .as_mut()
            .expect("delay backend")
            .insert(slot, seq, wake);
        self.stats.delay_parked += 1;
        dest.map(|(arch, dp, _)| (arch.class(), dp, wake + self.delay_estimate(&inst)))
    }

    /// Would dispatching `inst` (the IFQ front) stall, and on which full
    /// resource? `None` means dispatch can proceed. Shared between
    /// [`Engine::do_dispatch`] and the quiescence check in
    /// [`Engine::try_skip`] so the two can never disagree on what blocks a
    /// cycle.
    fn dispatch_stall_category(&self, inst: &Inst) -> Option<CpiCategory> {
        if self.rob.free_slots() == 0 {
            return Some(CpiCategory::ActiveListFull);
        }
        // While instructions are parked outside the issue queues (WIB or
        // delay queue), hold one issue queue slot in reserve for
        // reinsertion: if newly fetched instructions (necessarily
        // younger, possibly dependent on the parked chain) could fill the
        // queue completely, the oldest parked instruction might never get
        // back in.
        let reserve = if self.parked_resident() > 0 { 1 } else { 0 };
        if Engine::needs_iq(inst) && self.iq_for_ref(inst).free_slots() <= reserve {
            return Some(CpiCategory::IqFull);
        }
        if (inst.is_load() && self.lsq.lq_free() == 0)
            || (inst.is_store() && self.lsq.sq_free() == 0)
        {
            return Some(CpiCategory::LsqFull);
        }
        if let Some(d) = inst.dest() {
            if self.rf(d.class()).free_count() == 0 {
                return Some(CpiCategory::RegsFull);
            }
        }
        None
    }

    /// Charge `n` cycles of dispatch stall to `cat`'s counter and record
    /// it as this cycle's block for CPI attribution.
    fn charge_dispatch_stall(&mut self, cat: CpiCategory, n: u64) {
        let counter = match cat {
            CpiCategory::ActiveListFull => &mut self.stats.stall_active_list,
            CpiCategory::IqFull => &mut self.stats.stall_issue_queue,
            CpiCategory::LsqFull => &mut self.stats.stall_lsq,
            CpiCategory::RegsFull => &mut self.stats.stall_regs,
            _ => unreachable!("dispatch only stalls on resource categories"),
        };
        *counter += n;
        self.dispatch_block = Some(cat);
    }

    fn do_dispatch(&mut self) {
        let mut budget = self.cfg.decode_width as usize;
        // Forward-progress guarantee: a parked, eligible ROB head is
        // reinserted first, ahead of the regular extraction order (it may
        // use the issue queue's overflow slot — see `try_reinsert`).
        let head_parked = self
            .rob
            .head()
            .filter(|h| h.in_wib)
            .map(|h| (h.seq, h.slot));
        if let Some((hseq, hslot)) = head_parked {
            if let Some(mut wib) = self.wib.take() {
                if wib.eligible_slot(hslot) && self.try_reinsert(hseq) {
                    wib.take_slot(hslot);
                    budget -= 1;
                }
                self.wib = Some(wib);
            }
        }
        // WIB reinsertion next (paper: dispatch logic gives reinserted
        // instructions priority over newly fetched ones).
        if let Some(mut wib) = self.wib.take() {
            let n = wib.extract(self.now, budget, |seq, _slot| self.try_reinsert(seq));
            self.wib = Some(wib);
            budget -= n;
        }
        // Delay-queue reinsertion shares dispatch bandwidth the same way.
        if self.delayq.is_some() && budget > 0 {
            budget -= self.do_delay_reinsert(budget);
        }

        while budget > 0 {
            let Some(front) = self.ifq.front() else { break };
            if front.ready_at > self.now {
                break;
            }
            let inst = front.inst;
            if let Some(cat) = self.dispatch_stall_category(&inst) {
                self.charge_dispatch_stall(cat, 1);
                break;
            }

            let f = self.ifq.pop_front().expect("peeked above");
            let seq = self.rob.next_seq();
            let slot = self.rob.next_slot();
            let [s1, s2] = f.inst.sources();
            let to_ref = |r: Option<ArchReg>, this: &Engine| {
                r.map(|r| SrcRef {
                    class: r.class(),
                    preg: this.rename.lookup(r),
                })
            };
            let srcs = [to_ref(s1, self), to_ref(s2, self)];
            let dest = f.inst.dest().map(|arch| {
                let p = self
                    .rf_mut(arch.class())
                    .alloc()
                    .expect("checked free_count");
                let prev = self.rename.rename(arch, p);
                (arch, p, prev)
            });
            // A freshly allocated register carries no stale prediction or
            // poison from its previous life.
            if let Some((arch, p, _)) = dest {
                if self.delayq.is_some() {
                    self.set_delay_hint_raw(arch.class(), p, 0);
                }
                if let Some(ra) = self.ra.as_mut() {
                    ra.poison.set(arch.class(), p, false);
                }
            }
            let mut entry = RobEntry {
                seq,
                slot,
                pc: f.pc,
                inst: f.inst,
                srcs,
                dest,
                completed: false,
                issued: false,
                in_wib: false,
                wib_trips: 0,
                miss_column: None,
                miss_kind: None,
                data_ready_at: 0,
                in_lq: f.inst.is_load(),
                in_sq: f.inst.is_store(),
                dir_wrong: false,
                branch: f.branch,
                hist_before: f.hist_before,
                ras_before: f.ras_before,
            };
            if f.inst.is_load() {
                self.lsq.push_load(seq, f.inst.mem_width());
            } else if f.inst.is_store() {
                self.lsq.push_store(seq, f.inst.mem_width());
            }
            if Engine::needs_iq(&f.inst) {
                let tracked = Engine::tracked_srcs(&f.inst, &srcs);
                let iq_entry = IqEntry::new(self.evaluate_srcs(seq, &tracked));
                self.iq_for(&f.inst).insert(seq, iq_entry);
            } else {
                // nop/halt/j complete in the front end; jal also links.
                entry.completed = true;
                if let Some((arch, p, _)) = entry.dest {
                    let link = exec::alu_result(&f.inst, 0, 0, f.pc).expect("jal links");
                    self.writeback(arch.class(), p, link);
                }
            }
            let front_end_complete = entry.completed;
            self.rob.push(entry);
            self.stats.dispatched += 1;
            self.emit(PipeEvent::Dispatch {
                seq,
                pc: f.pc,
                inst: f.inst,
                fetched: f.fetched_at,
            });
            if front_end_complete {
                self.emit(PipeEvent::Complete { seq });
            }
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Broadcast a produced value: mark ready and wake subscribed
    /// consumers in both issue queues. Consumers that are not issue-queue
    /// entries are stores waiting for their data operand (agen done, data
    /// outstanding).
    fn writeback(&mut self, class: RegClass, p: PhysReg, value: u64) {
        if self.delayq.is_some() {
            // The value is real now; any outstanding prediction is dead.
            self.set_delay_hint_raw(class, p, 0);
        }
        let mut woken = std::mem::take(&mut self.scratch_woken_wb);
        debug_assert!(woken.is_empty());
        self.rf_mut(class).write_into(p, value, &mut woken);
        for &seq in &woken {
            if self.iq_int.satisfy(seq, p, class, SrcStatus::Ready)
                || self.iq_fp.satisfy(seq, p, class, SrcStatus::Ready)
            {
                continue;
            }
            self.complete_store_data(seq, p, class, value);
        }
        woken.clear();
        self.scratch_woken_wb = woken;
    }

    /// A store subscribed for its data operand: capture the value and
    /// mark the store complete.
    fn complete_store_data(&mut self, seq: Seq, p: PhysReg, class: RegClass, value: u64) {
        let Some(e) = self.rob.get(seq) else { return };
        if !e.inst.is_store() || e.completed {
            return;
        }
        if !e.srcs[1].is_some_and(|s| s.preg == p && s.class == class) {
            return;
        }
        self.lsq.set_store_data(seq, value);
        if let Some(ra) = self.ra.as_mut() {
            if ra.poison.get(class, p) {
                ra.poisoned_stores.insert(seq);
            }
        }
        self.mark_complete(seq);
        // Loads that found this store's data missing can retry.
        self.retry_loads_blocked_on(seq);
    }

    /// Retry loads that were blocked on store `store_seq` (its data
    /// arrived or it committed).
    fn retry_loads_blocked_on(&mut self, store_seq: Seq) {
        let mut unblocked = std::mem::take(&mut self.scratch_unblocked);
        debug_assert!(unblocked.is_empty());
        {
            let unblocked = &mut unblocked;
            self.blocked_loads.retain(|&(l, s)| {
                if s == store_seq {
                    unblocked.push(l);
                    false
                } else {
                    true
                }
            });
        }
        for &load_seq in &unblocked {
            let Some(le) = self.rob.get(load_seq) else {
                continue;
            };
            let width = le.inst.mem_width();
            let addr = self
                .lsq
                .loads()
                .find(|l| l.seq == load_seq)
                .and_then(|l| l.addr)
                .expect("blocked load has an address");
            self.try_load_data(load_seq, addr, width);
        }
        unblocked.clear();
        self.scratch_unblocked = unblocked;
    }

    /// Deliver pretend-ready wakeups for `woken` subscribers of `(class,
    /// p)`; non-issue-queue subscribers (store-data waiters) are
    /// re-subscribed — they need the real value, not the wait bit.
    fn wake_as_wait(&mut self, woken: &[Seq], p: PhysReg, class: RegClass) {
        for &c in woken {
            if self.iq_int.satisfy(c, p, class, SrcStatus::Wait)
                || self.iq_fp.satisfy(c, p, class, SrcStatus::Wait)
            {
                continue;
            }
            if self.rob.get(c).is_some() {
                self.rf_mut(class).subscribe(p, c);
            }
        }
    }

    /// Set the wait bit on `(class, p)` and deliver the pretend-ready
    /// wakeups through the reusable wait-wakeup scratch buffer.
    fn set_wait_and_wake(&mut self, class: RegClass, p: PhysReg, column: crate::types::ColumnId) {
        let mut woken = std::mem::take(&mut self.scratch_woken_wait);
        debug_assert!(woken.is_empty());
        self.rf_mut(class).set_wait_into(p, column, &mut woken);
        self.wake_as_wait(&woken, p, class);
        woken.clear();
        self.scratch_woken_wait = woken;
    }

    /// Move a pretend-ready instruction from its issue queue to the WIB.
    /// Returns false when the buffer refused it (pool-of-blocks
    /// exhaustion): the instruction stays in its issue queue and the
    /// issue slot is wasted, as the paper's section 3.5 anticipates.
    fn move_to_wib(&mut self, seq: Seq, column: crate::types::ColumnId) -> bool {
        let e = self.rob.get(seq).expect("live instruction");
        let slot = e.slot;
        let inst = e.inst;
        let dest = e.dest;
        if !self
            .wib
            .as_mut()
            .expect("WIB configured")
            .insert(slot, seq, column)
        {
            return false;
        }
        let e = self.rob.get_mut(seq).expect("live instruction");
        e.in_wib = true;
        e.wib_trips += 1;
        self.iq_for(&inst).remove(seq);
        self.stats.wib_insertions += 1;
        self.emit(PipeEvent::WibInsert {
            seq,
            bank: self.wib_bank(slot),
        });
        if let Some((arch, p, _)) = dest {
            self.set_wait_and_wake(arch.class(), p, column);
        }
        true
    }

    fn do_issue(&mut self) {
        self.fu.begin_cycle();
        self.rf_int.begin_cycle();
        self.rf_fp.begin_cycle();
        let l2_ports = match self.cfg.regfile {
            RegFileConfig::TwoLevel { l2_read_ports, .. } => l2_read_ports as usize,
            _ => usize::MAX,
        };
        let mut l2_reads = [0usize; 2]; // per class
        for fp_queue in [false, true] {
            let width = if fp_queue {
                self.cfg.issue_width_fp
            } else {
                self.cfg.issue_width_int
            } as usize;
            let mut budget = width;
            // Snapshot the ready set into the reusable candidate buffer:
            // wakeups fired while issuing (e.g. a WIB insertion setting a
            // wait bit) must not make *new* entries selectable this cycle.
            let mut candidates = std::mem::take(&mut self.scratch_candidates);
            debug_assert!(candidates.is_empty());
            {
                let iq = if fp_queue { &self.iq_fp } else { &self.iq_int };
                candidates.extend(iq.ready_seqs().take(64));
            }
            for &seq in &candidates {
                if budget == 0 {
                    break;
                }
                let Some(e) = self.rob.get(seq) else {
                    // Should have been removed at squash.
                    debug_assert!(false, "dead instruction in issue queue");
                    continue;
                };
                let inst = e.inst;
                let pc = e.pc;
                // Validate the *tracked* operands (stores issue on their
                // base register alone) against the register files.
                let srcs = Engine::tracked_srcs(&inst, &e.srcs);
                let mut wait_col = None;
                let mut invalid = false;
                for s in srcs.iter().flatten() {
                    if self.rf(s.class).is_ready(s.preg) {
                        continue;
                    }
                    match self.rf(s.class).wait_column(s.preg) {
                        Some(col) => {
                            if wait_col.is_none() {
                                // Fixed operand ordering picks the first
                                // waiting operand's load (paper 3.3).
                                wait_col = Some(col);
                            }
                        }
                        None => {
                            // Producer was reinserted from the WIB but has
                            // not executed: go back to pending.
                            let iq = if fp_queue {
                                &mut self.iq_fp
                            } else {
                                &mut self.iq_int
                            };
                            iq.demote(seq, s.preg, s.class);
                            self.rf_mut(s.class).subscribe(s.preg, seq);
                            invalid = true;
                        }
                    }
                }
                if invalid {
                    continue;
                }
                if let Some(col) = wait_col {
                    if self.wib.is_some() {
                        // Pretend-ready: consumes an issue slot, then parks
                        // in the WIB instead of a functional unit.
                        if !self.move_to_wib(seq, col) {
                            // Pool exhaustion: fall back to a conventional
                            // stall — wait in the queue for the *actual*
                            // value, so parked chains can still drain into
                            // the issue queue (otherwise the full queue and
                            // the full pool deadlock each other, the
                            // hazard paper section 3.5 raises).
                            self.stats.wib_pool_stalls += 1;
                            for s in srcs.iter().flatten() {
                                if !self.rf(s.class).is_ready(s.preg) {
                                    let iq = if fp_queue {
                                        &mut self.iq_fp
                                    } else {
                                        &mut self.iq_int
                                    };
                                    iq.demote(seq, s.preg, s.class);
                                    self.rf_mut(s.class).subscribe(s.preg, seq);
                                }
                            }
                        }
                        budget -= 1;
                        continue;
                    }
                    // No WIB: wait bits are never set, unreachable.
                    unreachable!("wait bit without a WIB");
                }

                // Store-wait gating: marked loads wait for older stores'
                // addresses.
                if inst.is_load()
                    && self.storewait.should_wait(pc)
                    && !self.lsq.older_stores_resolved(seq)
                {
                    continue;
                }

                // Two-level register file: budget L2 read ports.
                let mut l2_needed = [0usize; 2];
                for s in srcs.iter().flatten() {
                    if self.rf(s.class).needs_l2_read(s.preg) {
                        l2_needed[s.class as usize] += 1;
                    }
                }
                if l2_reads[0] + l2_needed[0] > l2_ports || l2_reads[1] + l2_needed[1] > l2_ports {
                    continue;
                }

                // Functional unit / memory port.
                let Some(latency) = self.fu.try_issue(inst.fu_kind(), self.now) else {
                    continue;
                };

                // Commit to the issue: charge register-read penalties.
                let mut rf_penalty = 0;
                for s in srcs.iter().flatten() {
                    let p = self.rf_mut(s.class).read_penalty(s.preg);
                    rf_penalty = rf_penalty.max(p);
                }
                l2_reads[0] += l2_needed[0];
                l2_reads[1] += l2_needed[1];
                self.stats.rf_l2_reads += (l2_needed[0] + l2_needed[1]) as u64;

                let iq = if fp_queue {
                    &mut self.iq_fp
                } else {
                    &mut self.iq_int
                };
                iq.remove(seq);
                self.rob.get_mut(seq).expect("live").issued = true;
                self.stats.issued += 1;
                self.emit(PipeEvent::Issue { seq });
                let exec_start = self.now + 1 + rf_penalty; // register read
                if inst.is_load() {
                    self.schedule(exec_start + 1, Event::LoadAddr(seq));
                } else {
                    self.schedule(exec_start + latency, Event::Complete(seq));
                    // Section 6 extension: treat long non-pipelined FP ops
                    // like misses and park their dependence chains.
                    if self.cfg.wib.as_ref().is_some_and(|w| w.divert_long_fp_ops)
                        && matches!(
                            inst.fu_kind(),
                            wib_isa::inst::FuKind::FpDiv | wib_isa::inst::FuKind::FpSqrt
                        )
                    {
                        self.divert_chain_to_wib(seq);
                    }
                }
                budget -= 1;
            }
            candidates.clear();
            self.scratch_candidates = candidates;
        }
    }

    // ------------------------------------------------------------------
    // Execute-completion events
    // ------------------------------------------------------------------

    fn drain_events(&mut self) {
        while let Some(Reverse(next)) = self.events.peek() {
            if next.at > self.now {
                break;
            }
            let Reverse(s) = self.events.pop().expect("peeked");
            match s.ev {
                Event::Complete(seq) => self.handle_complete(seq),
                Event::LoadAddr(seq) => self.handle_load_addr(seq),
                Event::LoadData(seq) => self.handle_load_data(seq),
            }
        }
    }

    /// Mark the live instruction `seq` complete and report it.
    fn mark_complete(&mut self, seq: Seq) {
        self.rob.get_mut(seq).expect("live").completed = true;
        self.emit(PipeEvent::Complete { seq });
    }

    fn handle_complete(&mut self, seq: Seq) {
        let Some(e) = self.rob.get(seq) else { return };
        let inst = e.inst;
        let pc = e.pc;
        let srcs = e.srcs;
        let dest = e.dest;
        let branch = e.branch;
        let a = self.src_value(srcs[0]);
        let b = self.src_value(srcs[1]);
        // Runahead episode: operand poison (false outside episodes).
        let poisoned = |s: Option<SrcRef>| {
            self.ra
                .as_ref()
                .zip(s)
                .is_some_and(|(ra, s)| ra.poison.get(s.class, s.preg))
        };
        let (inv_a, inv_b) = (poisoned(srcs[0]), poisoned(srcs[1]));

        if inst.is_cond_branch() {
            if inv_a || inv_b {
                // A branch on garbage: keep the predicted path rather than
                // resolving on an invalid value (Mutlu: predict and go).
                self.mark_complete(seq);
                return;
            }
            let taken = exec::branch_taken(&inst, a, b);
            let actual_next = if taken {
                exec::control_target(&inst, pc, a)
            } else {
                pc.wrapping_add(4)
            };
            let bi = branch.expect("branch info recorded at fetch");
            let dir_wrong = taken != bi.pred_taken;
            self.dir
                .resolve(&bi.dir_ckpt.expect("cond"), taken, dir_wrong);
            if taken {
                self.btb.update(pc, actual_next);
            }
            self.rob.get_mut(seq).expect("live").dir_wrong = dir_wrong;
            self.mark_complete(seq);
            if actual_next != bi.pred_next {
                self.squash_redirect(seq, actual_next, &bi, dir_wrong);
            }
        } else if inst.is_jump_indirect() {
            if inv_a {
                // Target computed from garbage: trust the BTB/RAS path.
                if let Some((arch, p, _)) = dest {
                    let link = exec::alu_result(&inst, a, b, pc).expect("jalr links");
                    self.writeback(arch.class(), p, link);
                }
                self.mark_complete(seq);
                return;
            }
            let actual_next = exec::control_target(&inst, pc, a);
            if let Some((arch, p, _)) = dest {
                let link = exec::alu_result(&inst, a, b, pc).expect("jalr links");
                self.writeback(arch.class(), p, link);
            }
            self.btb.update(pc, actual_next);
            self.mark_complete(seq);
            let bi = branch.expect("branch info recorded at fetch");
            if actual_next != bi.pred_next {
                self.stats.target_mispredicts += 1;
                self.squash_redirect(seq, actual_next, &bi, false);
            }
        } else if inst.is_store() {
            // Address generation is decoupled from data: the store issued
            // on its base operand alone. Capture the data now if it is
            // ready, otherwise subscribe and complete on its writeback.
            let addr = exec::effective_address(&inst, a);
            let violation = self.lsq.set_store_addr(seq, addr);
            if inv_a || inv_b {
                // Garbage address or data: the pseudo-retired store must
                // not enter the runahead store cache.
                self.ra
                    .as_mut()
                    .expect("poison implies an episode")
                    .poisoned_stores
                    .insert(seq);
            }
            match srcs[1] {
                None => {
                    self.lsq.set_store_data(seq, 0); // r0 data
                    self.mark_complete(seq);
                }
                Some(s) if self.rf(s.class).is_ready(s.preg) => {
                    self.lsq.set_store_data(seq, b);
                    self.mark_complete(seq);
                }
                Some(s) => {
                    self.rf_mut(s.class).subscribe(s.preg, seq);
                }
            }
            if let Some(load_seq) = violation {
                // Runahead never replays on ordering: the affected load's
                // value is speculative garbage anyway and the episode's
                // whole pipeline state is discarded at exit.
                if self.ra.is_none() {
                    self.handle_order_violation(load_seq);
                }
            }
        } else {
            if (inv_a || inv_b) && dest.is_some() {
                let (arch, p, _) = dest.expect("checked");
                // Propagate before the writeback below wakes consumers, so
                // a store-data waiter sees its operand already poisoned.
                self.ra
                    .as_mut()
                    .expect("poison implies an episode")
                    .poison
                    .set(arch.class(), p, true);
            }
            let result = exec::alu_result(&inst, a, b, pc);
            self.mark_complete(seq);
            let column = self.rob.get(seq).expect("live").miss_column; // long-FP-op diversion, if enabled
            if let (Some((arch, p, _)), Some(v)) = (dest, result) {
                self.writeback(arch.class(), p, v);
            }
            if let Some(col) = column {
                self.wib
                    .as_mut()
                    .expect("column implies WIB")
                    .column_completed(col);
            }
        }
    }

    fn handle_load_addr(&mut self, seq: Seq) {
        let Some(e) = self.rob.get(seq) else { return };
        let inst = e.inst;
        let a = self.src_value(e.srcs[0]);
        let addr = exec::effective_address(&inst, a);
        self.lsq.set_load_addr(seq, addr);
        self.try_load_data(seq, addr, inst.mem_width());
    }

    fn try_load_data(&mut self, seq: Seq, addr: u32, width: u32) {
        if self.ra.is_some() {
            return self.ra_load_data(seq, addr, width);
        }
        match self.lsq.forward_for_load(seq, addr, width) {
            ForwardResult::Forward(_, bits) => {
                self.pending_load_values.insert(seq, bits);
                self.schedule(self.now + FORWARD_LATENCY, Event::LoadData(seq));
            }
            ForwardResult::BlockedOn(store_seq) => {
                self.blocked_loads.push((seq, store_seq));
                // A load stalled behind a store is another operation of
                // unknown latency: divert its dependence chain to the WIB
                // exactly like a cache miss (the paper's section 3.2
                // extension), otherwise dependents can clog the issue
                // queue and block the very reinsertion that would unclog
                // it.
                self.divert_chain_to_wib(seq);
            }
            ForwardResult::FromMemory => {
                let access = self.hier.data_access(addr, AccessKind::Read, self.now);
                let value = self.mem.read_bits(addr, width);
                self.pending_load_values.insert(seq, value);
                let arrive = access.ready_at.max(self.now + 1);
                self.schedule(arrive, Event::LoadData(seq));
                if let Some(e) = self.rob.get_mut(seq) {
                    e.data_ready_at = arrive;
                }
                // The "load miss" signal is latency-based, like the
                // 21264's: any load whose data will not arrive within the
                // trigger level's hit time diverts its dependence chain to
                // the WIB. (A load merged into an outstanding line fill
                // "hits" in the tag array but still waits out the fill.)
                let latency = access.ready_at.saturating_sub(self.now);
                // CPI-stack attribution (independent of the WIB trigger):
                // classify anything slower than an L1D hit as a miss and
                // record the deepest level it had to wait on.
                if latency > self.cfg.mem.l1d.hit_latency {
                    let kind = if access.to_memory || access.mshr_merged {
                        MissKind::Dram
                    } else {
                        MissKind::L2Hit
                    };
                    if let Some(e) = self.rob.get_mut(seq) {
                        if e.miss_kind.is_none() {
                            e.miss_kind = Some(kind);
                        }
                    }
                    self.emit(PipeEvent::MissStart {
                        seq,
                        addr,
                        to_dram: kind == MissKind::Dram,
                    });
                    if access.mshr_merged {
                        self.emit(PipeEvent::MshrMerge { addr });
                    }
                }
                let missed = match self.cfg.wib.as_ref().map(|w| w.trigger) {
                    Some(WibTrigger::L1Miss) => latency > self.cfg.mem.l1d.hit_latency,
                    Some(WibTrigger::L2Miss) => latency > self.cfg.mem.l2.hit_latency,
                    None => false,
                };
                if missed {
                    self.divert_chain_to_wib(seq);
                }
                self.delay_note_arrival(seq, arrive);
            }
        }
    }

    /// Runahead-episode load: no order-violation machinery, no
    /// blocked-load parking, no miss accounting — just prefetch and keep
    /// the dataflow moving or poison it.
    fn ra_load_data(&mut self, seq: Seq, addr: u32, width: u32) {
        let base_poisoned = self.rob.get(seq).is_some_and(|e| {
            e.srcs[0].is_some_and(|s| {
                self.ra
                    .as_ref()
                    .expect("in an episode")
                    .poison
                    .get(s.class, s.preg)
            })
        });
        if base_poisoned {
            // Garbage address: do not pollute the cache with it.
            return self.ra_inv_load(seq);
        }
        match self.lsq.forward_for_load(seq, addr, width) {
            ForwardResult::Forward(store_seq, bits) => {
                if self
                    .ra
                    .as_ref()
                    .expect("in an episode")
                    .poisoned_stores
                    .contains(&store_seq)
                {
                    return self.ra_inv_load(seq);
                }
                self.pending_load_values.insert(seq, bits);
                self.schedule(self.now + FORWARD_LATENCY, Event::LoadData(seq));
            }
            ForwardResult::BlockedOn(_) => {
                // Waiting out the store could outlive the episode; give up
                // on this value.
                self.ra_inv_load(seq);
            }
            ForwardResult::FromMemory => {
                // THE point of runahead: a real hierarchy access starts
                // the fill early and trains the MSHRs/LRU state that the
                // post-episode replay will hit.
                let access = self.hier.data_access(addr, AccessKind::Read, self.now);
                let exit_at = self.ra.as_ref().expect("in an episode").exit_at;
                if access.to_memory || access.mshr_merged || access.ready_at >= exit_at {
                    // The data cannot arrive before the episode exits. The
                    // `ready_at` check matters for the blocking load's own
                    // refetch: its line is already allocated (an L1 "hit")
                    // but still waits out the in-flight fill, which lands
                    // exactly at `exit_at`. INV now lets dependents keep
                    // prefetching instead of clogging the episode window.
                    return self.ra_inv_load(seq);
                }
                let ra = self.ra.as_ref().expect("in an episode");
                let value = ra.overlay_read(&self.mem, addr, width);
                self.pending_load_values.insert(seq, value);
                self.schedule(access.ready_at.max(self.now + 1), Event::LoadData(seq));
            }
        }
    }

    /// Complete load `seq` with an invalid (poisoned) result next cycle.
    fn ra_inv_load(&mut self, seq: Seq) {
        self.stats.runahead_inv_loads += 1;
        if let Some((arch, p, _)) = self.rob.get(seq).and_then(|e| e.dest) {
            self.ra
                .as_mut()
                .expect("in an episode")
                .poison
                .set(arch.class(), p, true);
        }
        self.pending_load_values.insert(seq, 0);
        self.schedule(self.now + 1, Event::LoadData(seq));
    }

    /// Allocate a bit-vector column for load `seq` and set the wait bit on
    /// its destination so the dependence chain drains into the WIB. No-op
    /// without a WIB, without a destination, if the load already has a
    /// column (a blocked load that retried), or when the column budget is
    /// exhausted (dependents then stall conventionally, as the paper's
    /// limited-bit-vector study models).
    fn divert_chain_to_wib(&mut self, seq: Seq) {
        let Some(wib) = self.wib.as_mut() else { return };
        let Some(e) = self.rob.get(seq) else { return };
        if e.miss_column.is_some() {
            return;
        }
        let Some((arch, p, _)) = e.dest else { return };
        let Some(col) = wib.allocate_column(seq) else {
            self.stats.wib_column_exhausted += 1;
            return;
        };
        self.rob.get_mut(seq).expect("live").miss_column = Some(col);
        self.set_wait_and_wake(arch.class(), p, col);
    }

    fn handle_load_data(&mut self, seq: Seq) {
        let Some(value) = self.pending_load_values.remove(&seq) else {
            return;
        };
        let Some(e) = self.rob.get_mut(seq) else {
            return;
        };
        e.completed = true;
        let dest = e.dest;
        let column = e.miss_column;
        let was_miss = e.miss_kind.is_some();
        self.emit(PipeEvent::Complete { seq });
        if was_miss {
            self.emit(PipeEvent::MissFinish { seq });
        }
        if let Some((arch, p, _)) = dest {
            self.writeback(arch.class(), p, value);
        }
        if let Some(col) = column {
            self.wib
                .as_mut()
                .expect("column implies WIB")
                .column_completed(col);
        }
    }

    fn handle_order_violation(&mut self, load_seq: Seq) {
        let Some(load) = self.rob.get(load_seq) else {
            return;
        };
        let pc = load.pc;
        let hist = load.hist_before;
        let ras = load.ras_before;
        self.stats.order_violations += 1;
        self.storewait.mark(pc);
        self.squash_from(load_seq, pc, 0);
        self.dir.set_history(hist);
        self.ras.restore(&ras);
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    fn squash_redirect(&mut self, branch_seq: Seq, target: u32, bi: &BranchInfo, _dir: bool) {
        self.squash_from(branch_seq + 1, target, self.cfg.mispredict_extra_penalty);
        self.ras.restore(&bi.ras_after);
        // Direction history was repaired by `resolve`.
    }

    /// Remove every instruction with `seq >= from` and refetch at
    /// `new_pc` after `extra_penalty` bubbles. Predictor/RAS repair is the
    /// caller's responsibility (it differs by cause).
    fn squash_from(&mut self, from: Seq, new_pc: u32, extra_penalty: u64) {
        let mut squashed_cols = std::mem::take(&mut self.scratch_cols);
        let mut undo = std::mem::take(&mut self.scratch_undo);
        debug_assert!(squashed_cols.is_empty() && undo.is_empty());
        {
            let undo = &mut undo;
            self.rob.squash_from(from, |e| undo.push(e));
        }
        self.emit(PipeEvent::Squash {
            from_seq: from,
            count: undo.len() as u64,
        });
        for e in undo.drain(..) {
            if !e.issued || e.in_wib {
                // May be in an issue queue or the WIB.
                self.iq_int.remove(e.seq);
                self.iq_fp.remove(e.seq);
            }
            if e.in_wib {
                if let Some(w) = self.wib.as_mut() {
                    w.squash_slot(e.slot);
                } else if let Some(dq) = self.delayq.as_mut() {
                    dq.squash_slot(e.slot);
                } else {
                    unreachable!("parked entry without a parking structure");
                }
            }
            if let Some(col) = e.miss_column {
                squashed_cols.push((col, e.seq));
            }
            if let Some((arch, p, prev)) = e.dest {
                self.rename.restore(arch, prev);
                self.rf_mut(arch.class()).release(p);
            }
        }
        if let Some(wib) = self.wib.as_mut() {
            for &(col, load_seq) in &squashed_cols {
                wib.squash_column(col, load_seq);
            }
        }
        squashed_cols.clear();
        self.scratch_cols = squashed_cols;
        self.scratch_undo = undo;
        self.lsq.squash_from(from);
        self.pending_load_values.retain(|&s, _| s < from);
        self.blocked_loads.retain(|&(l, _)| l < from);
        if let Some(ra) = self.ra.as_mut() {
            ra.poisoned_stores.retain(|&s| s < from);
        }
        self.ifq.clear();
        self.fetch_halted = false;
        self.fetch_pc = new_pc;
        self.fetch_resume_at = self.now + 1 + extra_penalty;
        // CPI stack: while the refilled front end is still in flight the
        // empty window is charged to branch recovery, not fetch supply.
        self.recovery_until = self.fetch_resume_at + self.cfg.front_end_delay;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn do_commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.head() else { break };
            if !head.completed {
                break;
            }
            let e = self.rob.pop_head();
            self.last_commit_cycle = self.now;

            // Co-simulation: the reference interpreter retires in
            // lockstep.
            if let Some(mut checker) = self.checker.take() {
                assert_eq!(
                    e.pc,
                    checker.pc(),
                    "cosim divergence at seq {}: pipeline commits pc {:#x} ({}), reference \
                     expects pc {:#x}",
                    e.seq,
                    e.pc,
                    e.inst,
                    checker.pc()
                );
                checker.step().expect("reference interpreter faulted");
                if let Some((arch, p, _)) = e.dest {
                    let got = self.rf(arch.class()).value(p);
                    let want = checker.reg_bits(arch);
                    assert_eq!(
                        got, want,
                        "cosim divergence at pc {:#x} ({}): {} = {:#x}, reference says {:#x}",
                        e.pc, e.inst, arch, got, want
                    );
                }
                self.checker = Some(checker);
            }

            if e.inst.is_store() {
                let s = self.lsq.pop_store(e.seq);
                let addr = s.addr.expect("committed store has an address");
                self.mem.write_bits(addr, s.width, s.data);
                // Timing: the write drains through the D-cache from the
                // write buffer; commit does not stall on it.
                self.hier.data_access(addr, AccessKind::Write, self.now);
                self.stats.committed_stores += 1;
                // Loads blocked on this store can retry against memory.
                self.retry_loads_blocked_on(e.seq);
            } else if e.inst.is_load() {
                self.lsq.pop_load(e.seq);
                self.stats.committed_loads += 1;
            }

            if let Some((_, _, prev)) = e.dest {
                let class = e.dest.expect("checked").0.class();
                self.rf_mut(class).release(prev);
            }
            if e.inst.is_cond_branch() {
                self.stats.cond_branches += 1;
                if e.dir_wrong {
                    self.stats.dir_mispredicts += 1;
                }
            }
            if e.wib_trips > 0 {
                self.stats.wib_touched_insts += 1;
                self.stats.wib_insertions_committed += e.wib_trips as u64;
                self.stats.wib_max_insertions_per_inst = self
                    .stats
                    .wib_max_insertions_per_inst
                    .max(e.wib_trips as u64);
            }
            self.stats.committed += 1;
            self.emit(PipeEvent::Commit {
                seq: e.seq,
                pc: e.pc,
                wib_trips: e.wib_trips,
            });
            if e.inst.is_halt() {
                self.halted = true;
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Runahead backend (see `crate::runahead`)
    // ------------------------------------------------------------------

    /// Enter a runahead episode if the window head is a load stalled on a
    /// DRAM-latency miss with enough service time left to be worth the
    /// checkpoint/restore round trip. The whole pipeline is flushed (the
    /// fill stays in flight in the MSHRs), architectural state is
    /// checkpointed, and fetch restarts at the blocking load — this time
    /// pre-executing for prefetch value only.
    fn maybe_enter_runahead(&mut self) {
        let Backend::Runahead { min_remaining } = self.cfg.backend else {
            return;
        };
        // Entry condition: the machine must actually be stalled behind the
        // miss — the window is full, or dispatch spent last cycle blocked
        // on some other full back-end resource (issue queue, LSQ, physical
        // registers: the miss's dependence chain clogs those well before a
        // large active list fills). Entering while the front end still has
        // headroom would squash useful in-flight work for nothing.
        if self.rob.free_slots() > 0 && self.dispatch_block.is_none() {
            return;
        }
        let Some(head) = self.rob.head() else { return };
        if head.completed || head.miss_kind != Some(MissKind::Dram) {
            return;
        }
        // Entry costs a full squash and exit a pipeline rebuild; demand at
        // least a couple of cycles of covered latency beyond that.
        if head.data_ready_at <= self.now + min_remaining.max(2) {
            return;
        }
        let head_seq = head.seq;
        let resume_pc = head.pc;
        let exit_at = head.data_ready_at;
        let hist = head.hist_before;
        let ras = head.ras_before;
        self.stats.runahead_episodes += 1;
        self.squash_from(head_seq, resume_pc, 0);
        self.dir.set_history(hist);
        self.ras.restore(&ras);
        // The squash restored the rename map to the committed state, so
        // the current mappings *are* the architectural values.
        let mut arch = [0u64; NUM_ARCH_REGS];
        for flat in 0..NUM_ARCH_REGS as u8 {
            let r = ArchReg::from_flat(flat);
            arch[flat as usize] = self.rf(r.class()).value(self.rename.lookup(r));
        }
        self.ra = Some(RunaheadState::new(
            resume_pc,
            exit_at,
            arch,
            hist,
            ras,
            self.cfg.regs_per_class as usize,
        ));
    }

    /// The blocking load's data arrived: discard every trace of the
    /// episode, restore the checkpoint and replay from the blocking load
    /// against the now-warmed hierarchy.
    fn exit_runahead(&mut self) {
        let ra = self.ra.take().expect("exit without an episode");
        // Pseudo-retired instructions' undo records are gone, so the
        // pipeline structures are rebuilt rather than unwound. Sequence
        // numbers continue where they left off (stale events must keep
        // failing their lookups); the memory hierarchy and predictors
        // keep their runahead training — that is the whole benefit.
        self.events.clear();
        self.ifq.clear();
        self.pending_load_values.clear();
        self.blocked_loads.clear();
        self.lsq = LoadStoreQueue::new(self.cfg.load_queue as usize, self.cfg.store_queue as usize);
        self.rob = ActiveList::new_resuming(self.cfg.active_list as usize, self.rob.next_seq());
        self.iq_int = IssueQueue::new(self.cfg.iq_int_size as usize);
        self.iq_fp = IssueQueue::new(self.cfg.iq_fp_size as usize);
        self.fu = FuPool::new(self.cfg.fu.clone());
        self.ra_lost_l2_reads += self.rf_int.l2_reads + self.rf_fp.l2_reads;
        let timing = rf_timing(self.cfg);
        self.rename = RenameMap::new();
        self.rf_int = RegFile::new(self.cfg.regs_per_class as usize, 32, timing);
        self.rf_fp = RegFile::new(self.cfg.regs_per_class as usize, 32, timing);
        for flat in 0..NUM_ARCH_REGS as u8 {
            let r = ArchReg::from_flat(flat);
            let p = self.rename.lookup(r);
            match r.class() {
                RegClass::Int => self.rf_int.poke(p, ra.arch[flat as usize]),
                RegClass::Fp => self.rf_fp.poke(p, ra.arch[flat as usize]),
            }
        }
        self.dir.set_history(ra.hist);
        self.ras.restore(&ra.ras);
        self.fetch_halted = false;
        self.fetch_pc = ra.resume_pc;
        self.fetch_resume_at = self.now + 1;
        self.recovery_until = self.fetch_resume_at + self.cfg.front_end_delay;
        self.dispatch_block = None;
        self.last_commit_cycle = self.now;
    }

    /// Commit-stage stand-in during an episode: completed instructions
    /// leave the window and free their resources, but nothing becomes
    /// architectural — no checker step, no commit counters, no memory
    /// writes (non-poisoned store data lands in the episode's store cache
    /// so later runahead loads stay accurate).
    fn do_pseudo_retire(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.head() else { break };
            if !head.completed {
                break;
            }
            let e = self.rob.pop_head();
            self.last_commit_cycle = self.now;
            self.stats.runahead_pseudo_retired += 1;
            if e.inst.is_store() {
                let s = self.lsq.pop_store(e.seq);
                let addr = s.addr.expect("pseudo-retired store has an address");
                let ra = self.ra.as_mut().expect("in an episode");
                if !ra.poisoned_stores.remove(&e.seq) {
                    ra.store_bytes(addr, s.width, s.data);
                    // Write prefetch: train the hierarchy like a committed
                    // store would, without touching memory contents.
                    self.hier.data_access(addr, AccessKind::Write, self.now);
                }
            } else if e.inst.is_load() {
                self.lsq.pop_load(e.seq);
            }
            if let Some((arch, _, prev)) = e.dest {
                self.rf_mut(arch.class()).release(prev);
            }
            if e.inst.is_halt() {
                // Speculative program end: idle out the episode, then the
                // replay retires the halt architecturally.
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Fast-forward through provably idle stall cycles.
    ///
    /// When the machine is *quiescent* — the window head is incomplete
    /// (typically parked under a cache miss), no completion event is due
    /// before some future cycle, no issue-queue entry is selectable, the
    /// WIB has nothing extractable, and fetch/dispatch are idle or blocked
    /// on a full resource — every stage of [`Engine::step`] is a no-op
    /// except the per-cycle bookkeeping (CPI attribution, stall counters,
    /// occupancy samples), and nothing can change machine state before the
    /// next scheduled event. Those cycles are all identical, so this
    /// routine applies their bookkeeping in bulk and jumps `now` forward.
    /// The statistics are bit-identical to stepping cycle by cycle (the
    /// golden cycle-identity fixtures pin the equivalence down); only wall
    /// clock changes. On miss-dominated workloads — the regime the paper
    /// targets — this skips the bulk of all simulated cycles.
    ///
    /// Returns the cycles consumed; 0 means "run this cycle normally".
    /// The skip never crosses a boundary something else observes cycle by
    /// cycle: the next event time, fetch resume, IFQ-front readiness, the
    /// watchdog deadline, the run limit (`budget`), or a stats-epoch
    /// boundary (the run loop samples an interval exactly there).
    fn try_skip(&mut self, budget: u64) -> u64 {
        if self.no_skip || self.halted {
            return 0;
        }
        // Runahead is never quiescent under a miss — the stall is exactly
        // when it enters an episode and keeps executing.
        if matches!(self.cfg.backend, Backend::Runahead { .. }) {
            return 0;
        }
        // Commit is blocked on an incomplete head (which also means the
        // window is nonempty and no halt can retire mid-skip).
        let Some(head) = self.rob.head() else {
            return 0;
        };
        if head.completed {
            return 0;
        }
        let head_miss = head.miss_kind;
        // No event due this cycle; with *no* event pending at all the
        // machine is wedged, which the watchdog should report normally.
        let Some(Reverse(next_ev)) = self.events.peek() else {
            return 0;
        };
        if next_ev.at <= self.now {
            return 0;
        }
        let mut cap = next_ev.at - self.now;
        // Issue is a no-op: nothing selectable, nothing extractable.
        if self.iq_int.has_ready() || self.iq_fp.has_ready() {
            return 0;
        }
        if self.wib.as_ref().is_some_and(|w| !w.quiescent()) {
            return 0;
        }
        // The delay queue reinserts at exact cycles: skip at most up to
        // its next wake.
        if let Some(dq) = self.delayq.as_mut() {
            match dq.next_wake() {
                Some(w) if w <= self.now => return 0,
                Some(w) => cap = cap.min(w - self.now),
                None => {}
            }
        }
        // Fetch idle: halted, IFQ full, or waiting out an I-miss/redirect
        // bubble (then skip at most up to the resume cycle).
        if !self.fetch_halted && self.ifq.len() < self.cfg.ifq_size as usize {
            if self.fetch_resume_at <= self.now {
                return 0;
            }
            cap = cap.min(self.fetch_resume_at - self.now);
        }
        // Dispatch idle (IFQ empty, or its front still in the front-end
        // pipe) or parked on one full resource for the whole stretch.
        let mut stall = None;
        match self.ifq.front() {
            None => {}
            Some(f) if f.ready_at > self.now => cap = cap.min(f.ready_at - self.now),
            Some(f) => {
                let inst = f.inst;
                match self.dispatch_stall_category(&inst) {
                    Some(cat) => stall = Some(cat),
                    // Dispatch would make progress: not quiescent.
                    None => return 0,
                }
            }
        }
        // Never skip past the watchdog deadline; the normal path panics
        // there with full diagnostics.
        cap = cap.min((self.last_commit_cycle + WATCHDOG_CYCLES).saturating_sub(self.now));
        // Stop exactly on run-limit and stats-epoch boundaries.
        cap = cap.min(budget);
        let epoch = self.cfg.stats_epoch.max(1);
        cap = cap.min(epoch - self.stats.cycles % epoch);
        if cap <= 1 {
            return 0;
        }
        let k = cap;

        // Replicate the k skipped cycles' bookkeeping on the frozen state.
        self.dispatch_block = None;
        if let Some(cat) = stall {
            self.charge_dispatch_stall(cat, k);
        }
        let cat = match head_miss {
            Some(MissKind::L2Hit) => CpiCategory::L1dMiss,
            Some(MissKind::Dram) => CpiCategory::L2Miss,
            None => stall.unwrap_or(CpiCategory::Exec),
        };
        self.stats.cpi.add_n(cat, k);
        let occ = crate::stats::OCCUPANCY_SAMPLE_PERIOD;
        let first = self.now.next_multiple_of(occ);
        if first < self.now + k {
            let n = (self.now + k - 1 - first) / occ + 1;
            self.stats
                .occupancy_window
                .record_n(self.rob.len() as u64, n);
            self.stats
                .occupancy_iq
                .record_n((self.iq_int.len() + self.iq_fp.len()) as u64, n);
            self.stats
                .occupancy_wib
                .record_n(self.parked_resident() as u64, n);
        }
        // `storewait.tick` needs no catch-up: it clears in whole intervals
        // on its next call, and no store-order marks can land mid-skip.
        self.now += k;
        k
    }

    /// Fold one profiled cycle's stage laps into the run profile (no-op
    /// when the cycle was not sampled).
    fn record_profile_laps(&mut self, profiled: bool, lap_ns: &[u64; STAGE_COUNT]) {
        if !profiled {
            return;
        }
        self.profile.sampled_cycles += 1;
        for (total, lap) in self.profile.stage_ns.iter_mut().zip(lap_ns.iter()) {
            *total += lap;
        }
    }

    fn step(&mut self) {
        // Stage profiling samples one cycle in PROFILE_SAMPLE_PERIOD: a
        // monotonic-clock lap after each stage, nothing on the other 1023
        // cycles (the mask test and a dead branch). No allocation either
        // way — the alloc-gate covers this path.
        let mut lap_at = if (self.now & (PROFILE_SAMPLE_PERIOD - 1)) == 0 {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let mut lap_ns = [0u64; STAGE_COUNT];
        let committed_before = self.stats.committed;
        self.storewait.tick(self.now);
        if self.ra.as_ref().is_some_and(|ra| self.now >= ra.exit_at) {
            self.exit_runahead();
        }
        if self.ra.is_some() {
            self.do_pseudo_retire();
        } else {
            self.do_commit();
        }
        profile_lap(&mut lap_at, &mut lap_ns[0]);
        if self.halted {
            // The halt itself retired this cycle: useful work.
            self.stats.cpi.add(CpiCategory::Base);
            self.record_profile_laps(lap_at.is_some(), &lap_ns);
            return;
        }
        if self.ra.is_none() {
            self.maybe_enter_runahead();
        }
        self.drain_events();
        profile_lap(&mut lap_at, &mut lap_ns[1]);
        self.dispatch_block = None;
        self.do_dispatch();
        profile_lap(&mut lap_at, &mut lap_ns[2]);
        self.do_issue();
        profile_lap(&mut lap_at, &mut lap_ns[3]);
        self.do_fetch();
        profile_lap(&mut lap_at, &mut lap_ns[4]);
        self.attribute_cycle(committed_before);
        if self
            .now
            .is_multiple_of(crate::stats::OCCUPANCY_SAMPLE_PERIOD)
        {
            self.stats.occupancy_window.record(self.rob.len() as u64);
            self.stats
                .occupancy_iq
                .record((self.iq_int.len() + self.iq_fp.len()) as u64);
            self.stats
                .occupancy_wib
                .record(self.parked_resident() as u64);
        }
        if cfg!(feature = "checked") || self.machine_check {
            if let Err(e) = self.machine_check() {
                panic!("{}", crate::check::at_cycle(self.now, &e));
            }
        }
        profile_lap(&mut lap_at, &mut lap_ns[5]);
        self.record_profile_laps(lap_at.is_some(), &lap_ns);
        self.now += 1;
        if self.now - self.last_commit_cycle > WATCHDOG_CYCLES {
            self.watchdog_panic();
        }
    }

    // ------------------------------------------------------------------
    // Machine check (see `crate::check`)
    // ------------------------------------------------------------------

    /// Run every structure's invariant checker plus the cross-structure
    /// ownership census against the current cycle's settled state.
    fn machine_check(&self) -> Result<(), String> {
        use crate::check::component;
        component("int", self.iq_int.check_invariants())?;
        component("fp", self.iq_fp.check_invariants())?;
        self.lsq.check_invariants()?;
        self.rob.check_invariants()?;
        component("int", self.rf_int.check_invariants())?;
        component("fp", self.rf_fp.check_invariants())?;
        if let Some(w) = &self.wib {
            w.check_invariants()?;
        }
        if let Some(dq) = &self.delayq {
            dq.check_invariants()?;
        }
        self.ownership_census()
    }

    /// Cross-structure ownership census.
    ///
    /// - Every live, uncommitted instruction that needs an issue-queue
    ///   entry is in **exactly one** residence state: its issue queue, the
    ///   WIB, or issued (executing / waiting on an event).
    /// - The `in_wib` active-list flag agrees with the window's own notion
    ///   of which slots are parked, and the window's resident count equals
    ///   the number of flagged entries (so the window holds no strays).
    /// - Load/store-queue occupancy mirrors the `in_lq`/`in_sq` flags.
    /// - A wait bit always names a column still tracking an outstanding
    ///   load (wait bits are cleared at reinsertion and writeback, both of
    ///   which happen before the column can be freed).
    /// - Physical registers are conserved per class: the rename map plus
    ///   the previous mappings recorded by in-flight destinations claim
    ///   every non-free register exactly once.
    fn ownership_census(&self) -> Result<(), String> {
        let mut parked = 0usize;
        for e in self.rob.iter() {
            let in_iq = Engine::needs_iq(&e.inst) && self.iq_for_ref(&e.inst).contains(e.seq);
            if e.in_wib {
                parked += 1;
            }
            let slot_parked = self.wib.as_ref().is_some_and(|w| w.contains(e.slot))
                || self.delayq.as_ref().is_some_and(|dq| dq.contains(e.slot));
            if e.in_wib != slot_parked {
                return Err(format!(
                    "census: seq {} in_wib={} but window slot {} parked={}",
                    e.seq, e.in_wib, e.slot, slot_parked
                ));
            }
            if e.completed {
                if in_iq || e.in_wib {
                    return Err(format!(
                        "census: completed seq {} still resident (iq={in_iq}, wib={})",
                        e.seq, e.in_wib
                    ));
                }
                continue;
            }
            if !Engine::needs_iq(&e.inst) {
                return Err(format!(
                    "census: seq {} ({}) completes in the front end yet is not completed",
                    e.seq, e.inst
                ));
            }
            let states = in_iq as u32 + e.in_wib as u32 + e.issued as u32;
            if states != 1 {
                return Err(format!(
                    "census: seq {} ({}) in {states} residence states \
                     (iq={in_iq}, wib={}, issued={})",
                    e.seq, e.inst, e.in_wib, e.issued
                ));
            }
        }
        if let Some(w) = &self.wib {
            if w.resident() != parked {
                return Err(format!(
                    "census: window resident {} != {parked} in_wib active-list entries",
                    w.resident()
                ));
            }
        } else if let Some(dq) = &self.delayq {
            if dq.resident() != parked {
                return Err(format!(
                    "census: delay-queue resident {} != {parked} parked active-list entries",
                    dq.resident()
                ));
            }
        } else if parked > 0 {
            return Err(format!(
                "census: {parked} parked entries without a parking structure"
            ));
        }

        let lq: Vec<Seq> = self.lsq.loads().map(|l| l.seq).collect();
        let sq: Vec<Seq> = self.lsq.stores().map(|s| s.seq).collect();
        let checks: [(&str, &[Seq], fn(&RobEntry) -> bool); 2] =
            [("lq", &lq, |e| e.in_lq), ("sq", &sq, |e| e.in_sq)];
        for (name, queue, flag) in checks {
            for &seq in queue {
                match self.rob.get(seq) {
                    None => {
                        return Err(format!("census: {name} holds dead seq {seq}"));
                    }
                    Some(e) if !flag(e) => {
                        return Err(format!("census: {name} holds unflagged seq {seq}"));
                    }
                    Some(_) => {}
                }
            }
            let flagged = self.rob.iter().filter(|e| flag(e)).count();
            if flagged != queue.len() {
                return Err(format!(
                    "census: {flagged} {name}-flagged entries vs {} queued",
                    queue.len()
                ));
            }
        }

        for (name, rf) in [("int", &self.rf_int), ("fp", &self.rf_fp)] {
            for (r, col) in rf.waiting_regs() {
                if !self.wib.as_ref().is_some_and(|w| w.column_live(col)) {
                    return Err(format!("census: {name} {r} waits on dead column {col}"));
                }
            }
        }

        for class in [RegClass::Int, RegClass::Fp] {
            let name = match class {
                RegClass::Int => "int",
                RegClass::Fp => "fp",
            };
            let rf = self.rf(class);
            let mut claims = vec![0u32; rf.num_regs()];
            for flat in 0..NUM_ARCH_REGS as u8 {
                let a = ArchReg::from_flat(flat);
                if a.class() == class {
                    claims[self.rename.lookup(a).0 as usize] += 1;
                }
            }
            for e in self.rob.iter() {
                if let Some((arch, _, prev)) = e.dest {
                    if arch.class() == class {
                        claims[prev.0 as usize] += 1;
                    }
                }
            }
            for (i, &c) in claims.iter().enumerate() {
                let free = rf.is_free(PhysReg(i as u16));
                if (free && c != 0) || (!free && c != 1) {
                    return Err(format!(
                        "census: {name} p{i} claimed {c} times, free={free}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Charge this cycle to exactly one CPI-stack category. Called once
    /// per non-halting [`Engine::step`]; together with the halt cycle's
    /// `Base` charge this makes the stack sum exactly to the cycle count.
    ///
    /// Priority order (first match wins):
    /// 1. at least one instruction committed → `Base`
    /// 2. empty window → `BranchRecovery` while a squash redirect is
    ///    still refilling the front end, else `FrontEnd`
    /// 3. the window head is an incomplete load miss → `L1dMiss`/`L2Miss`
    /// 4. dispatch stopped on a full resource → that resource's category
    /// 5. otherwise → `Exec` (dependence/latency/issue-bandwidth limits)
    fn attribute_cycle(&mut self, committed_before: u64) {
        let cat = if self.stats.committed > committed_before {
            CpiCategory::Base
        } else if self.rob.is_empty() {
            if self.now < self.recovery_until {
                CpiCategory::BranchRecovery
            } else {
                CpiCategory::FrontEnd
            }
        } else if let Some(kind) = self
            .rob
            .head()
            .filter(|h| !h.completed)
            .and_then(|h| h.miss_kind)
        {
            match kind {
                MissKind::L2Hit => CpiCategory::L1dMiss,
                MissKind::Dram => CpiCategory::L2Miss,
            }
        } else if let Some(block) = self.dispatch_block {
            block
        } else {
            CpiCategory::Exec
        };
        self.stats.cpi.add(cat);
    }

    /// Close an interval: record one [`IntervalSample`] covering the last
    /// `stats_epoch` cycles.
    fn sample_interval(&mut self) {
        let epoch = self.cfg.stats_epoch.max(1);
        let committed = self.stats.committed - self.interval_committed_mark;
        self.interval_committed_mark = self.stats.committed;
        let sample = IntervalSample {
            cycle: self.stats.cycles,
            committed,
            ipc: committed as f64 / epoch as f64,
            window_occupancy: self.rob.len() as u64,
            iq_occupancy: (self.iq_int.len() + self.iq_fp.len()) as u64,
            wib_resident: self.parked_resident() as u64,
            wib_columns_in_use: self.wib.as_ref().map_or(0, |w| w.columns_in_use() as u64),
            outstanding_misses: self.hier.inflight_fills(self.now) as u64,
        };
        self.stats.intervals.push(sample);
    }

    fn watchdog_panic(&self) -> ! {
        let head = self.rob.head();
        panic!(
            "no commit for {WATCHDOG_CYCLES} cycles at cycle {}: head={:?} pc={:#x?} \
             completed={:?} issued={:?} in_wib={:?}, iq_int={}, iq_fp={}, rob={}, \
             wib_resident={:?}, events={}, fetch_pc={:#x}",
            self.now,
            head.map(|e| e.inst.to_string()),
            head.map(|e| e.pc),
            head.map(|e| e.completed),
            head.map(|e| e.issued),
            head.map(|e| e.in_wib),
            self.iq_int.len(),
            self.iq_fp.len(),
            self.rob.len(),
            self.wib.as_ref().map(Window::resident),
            self.events.len(),
            self.fetch_pc,
        );
    }

    fn run(&mut self, limit: RunLimit) -> RunResult {
        self.last_commit_cycle = self.now;
        let epoch = self.cfg.stats_epoch.max(1);
        while !self.halted
            && !self.cancelled
            && self.stats.committed < limit.max_insts
            && self.stats.cycles < limit.max_cycles
        {
            let skipped = self.try_skip(limit.max_cycles - self.stats.cycles);
            if skipped == 0 {
                self.step();
            }
            self.stats.cycles += skipped.max(1);
            if self.stats.cycles.is_multiple_of(epoch) {
                self.sample_interval();
                // Cancellation poll rides the epoch boundary (fast-forward
                // never skips past one), so the per-cycle path is untouched.
                // Each poll also beats the progress heartbeat the serving
                // daemon's hung-job watchdog reads.
                if let Some(token) = &self.cancel {
                    token.beat();
                    if token.should_stop() {
                        self.cancelled = true;
                    }
                }
            }
        }
        self.stats.mem = self.hier.stats();
        self.stats.rf_l2_reads = self.ra_lost_l2_reads + self.rf_int.l2_reads + self.rf_fp.l2_reads;
        if let Some(w) = &self.wib {
            let ws = w.stats();
            self.stats.wib_insertions = ws.insertions;
            self.stats.wib_pool_stalls = self.stats.wib_pool_stalls.max(w.insert_failures());
        }
        RunResult {
            stats: self.stats.clone(),
            halted: self.halted,
            cancelled: self.cancelled,
            profile: self.profile,
            warmup_work: WarmUpWork::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wib_isa::asm::ProgramBuilder;
    use wib_isa::reg::*;

    fn run_cosim(cfg: MachineConfig, prog: &Program, n: u64) -> RunResult {
        let mut p = Processor::new(cfg);
        p.enable_cosim();
        p.run(prog, RunLimit::instructions(n).into())
    }

    fn sum_loop() -> Program {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 100);
        b.li(R2, 0);
        b.label("loop");
        b.add(R2, R2, R1);
        b.addi(R1, R1, -1);
        b.bne(R1, R0, "loop");
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn base_machine_runs_simple_loop() {
        let r = run_cosim(MachineConfig::base_8way(), &sum_loop(), 10_000);
        assert!(r.halted);
        assert!(r.stats.committed > 300);
        assert!(r.ipc() > 0.5, "ipc {}", r.ipc());
    }

    #[test]
    fn wib_machine_runs_simple_loop() {
        let r = run_cosim(MachineConfig::wib_2k(), &sum_loop(), 10_000);
        assert!(r.halted);
    }

    #[test]
    fn store_load_forwarding_is_correct() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 0x8000);
        b.li(R2, 1234);
        b.sw(R2, R1, 0);
        b.lw(R3, R1, 0); // must forward from the store
        b.add(R4, R3, R3);
        b.sw(R4, R1, 4);
        b.lw(R5, R1, 4);
        b.halt();
        let r = run_cosim(MachineConfig::base_8way(), &b.finish().unwrap(), 1000);
        assert!(r.halted);
    }

    #[test]
    fn pointer_chase_with_misses() {
        // A short linked list spread across cache lines.
        let mut b = ProgramBuilder::new(0x1000);
        let nodes = 64u32;
        let base = 0x10_0000u32;
        let stride = 4096 + 64; // new page + new line every hop
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
        b.lw(R2, R1, 4); // payload
        b.add(R3, R3, R2);
        b.lw(R1, R1, 0); // next pointer (dependent miss)
        b.bne(R1, R0, "walk");
        b.halt();
        let prog = b.finish().unwrap();
        let base_r = run_cosim(MachineConfig::base_8way(), &prog, 10_000);
        let wib_r = run_cosim(MachineConfig::wib_2k(), &prog, 10_000);
        assert!(base_r.halted && wib_r.halted);
        assert_eq!(base_r.stats.committed, wib_r.stats.committed);
    }

    #[test]
    fn wib_actually_engages_on_independent_misses() {
        // Independent streaming loads with dependent consumers: the WIB
        // should capture the consumers and expose miss parallelism.
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 0x20_0000);
        b.li(R4, 256); // iterations
        b.li(R5, 0);
        b.label("loop");
        b.lw(R2, R1, 0); // miss
        b.add(R3, R2, R2); // dependent
        b.add(R5, R5, R3); // dependent chain
        b.addi(R1, R1, 4096); // next page
        b.addi(R4, R4, -1);
        b.bne(R4, R0, "loop");
        b.halt();
        let prog = b.finish().unwrap();
        let wib_r = run_cosim(MachineConfig::wib_2k(), &prog, 10_000);
        assert!(wib_r.halted);
        assert!(wib_r.stats.wib_insertions > 0, "WIB never used");
        let base_r = run_cosim(MachineConfig::base_8way(), &prog, 10_000);
        assert!(
            wib_r.ipc() > base_r.ipc(),
            "WIB {} should beat base {} on this kernel",
            wib_r.ipc(),
            base_r.ipc()
        );
    }

    #[test]
    fn function_calls_exercise_ras() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R10, 50);
        b.li(R11, 0);
        b.label("loop");
        b.jal("leaf");
        b.addi(R10, R10, -1);
        b.bne(R10, R0, "loop");
        b.halt();
        b.label("leaf");
        b.addi(R11, R11, 3);
        b.ret();
        let r = run_cosim(MachineConfig::base_8way(), &b.finish().unwrap(), 10_000);
        assert!(r.halted);
    }

    #[test]
    fn branchy_code_with_mispredictions() {
        // Data-dependent branches on a pseudo-random sequence (LCG).
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 12345); // lcg state
        b.li(R2, 200); // iterations
        b.li(R3, 0);
        b.li(R7, 1103515245 & 0xffff);
        b.label("loop");
        b.mul(R1, R1, R7);
        b.addi(R1, R1, 12345);
        b.andi(R4, R1, 1);
        b.beq(R4, R0, "even");
        b.addi(R3, R3, 1);
        b.j("next");
        b.label("even");
        b.addi(R3, R3, 2);
        b.label("next");
        b.addi(R2, R2, -1);
        b.bne(R2, R0, "loop");
        b.halt();
        let r = run_cosim(MachineConfig::base_8way(), &b.finish().unwrap(), 10_000);
        assert!(r.halted);
        assert!(r.stats.cond_branches >= 400);
        assert!(
            r.stats.dir_mispredicts > 0,
            "LCG parity should mispredict sometimes"
        );
    }

    #[test]
    fn order_violation_replay() {
        // A store whose address depends on a long chain, followed closely
        // by a load to the same address: the load speculates ahead and
        // must replay.
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R9, 0x8000);
        b.li(R8, 77);
        b.li(R7, 40); // iterations
        b.label("loop");
        // Slow chain feeding the store address.
        b.mul(R1, R9, R8);
        b.mul(R1, R1, R8);
        b.sub(R1, R1, R1); // becomes 0
        b.add(R1, R1, R9); // = 0x8000, slowly
        b.sw(R8, R1, 0); // store to 0x8000
        b.lw(R2, R9, 0); // load from 0x8000 executes first
        b.add(R3, R3, R2);
        b.addi(R7, R7, -1);
        b.bne(R7, R0, "loop");
        b.halt();
        let r = run_cosim(MachineConfig::base_8way(), &b.finish().unwrap(), 10_000);
        assert!(r.halted);
        assert!(r.stats.order_violations > 0, "expected at least one replay");
    }

    #[test]
    fn fp_workload_runs() {
        let mut b = ProgramBuilder::new(0x1000);
        b.data_f64(0x8000, &[1.0, 2.0, 3.0, 4.0]);
        b.li(R1, 0x8000);
        b.li(R2, 100);
        b.fld(F1, R1, 0);
        b.fld(F2, R1, 8);
        b.label("loop");
        b.fmul(F3, F1, F2);
        b.fadd(F1, F3, F2);
        b.fdiv(F4, F1, F2);
        b.fsqrt(F5, F4);
        b.addi(R2, R2, -1);
        b.bne(R2, R0, "loop");
        b.fsd(F5, R1, 16);
        b.halt();
        let r = run_cosim(MachineConfig::base_8way(), &b.finish().unwrap(), 10_000);
        assert!(r.halted);
    }

    #[test]
    fn limits_stop_runaway_programs() {
        let mut b = ProgramBuilder::new(0x1000);
        b.label("spin");
        b.addi(R1, R1, 1);
        b.j("spin");
        let prog = b.finish().unwrap();
        let p = Processor::new(MachineConfig::base_8way());
        let r = p.run(&prog, RunLimit::instructions(5_000).into());
        assert!(!r.halted);
        assert!(r.stats.committed >= 5_000);
        let r = p.run(&prog, RunLimit::cycles(1_000).into());
        assert_eq!(r.stats.cycles, 1_000);
    }

    #[test]
    fn cancel_token_stops_a_run_within_one_epoch() {
        let mut b = ProgramBuilder::new(0x1000);
        b.label("spin");
        b.addi(R1, R1, 1);
        b.j("spin");
        let prog = b.finish().unwrap();
        let cfg = MachineConfig::base_8way().with_stats_epoch(1_000);
        // A token tripped before the run starts: the engine notices at the
        // first epoch boundary and unwinds, well short of the cycle limit.
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let mut p = Processor::new(cfg.clone());
        p.set_cancel_token(token);
        let r = p.run(&prog, RunLimit::cycles(1_000_000).into());
        assert!(r.cancelled && !r.halted);
        assert_eq!(r.stats.cycles, 1_000, "stop lands on the epoch boundary");
        // An untripped token changes nothing, and `cancelled` stays false.
        let mut p = Processor::new(cfg);
        p.set_cancel_token(crate::cancel::CancelToken::new());
        let r = p.run(&prog, RunLimit::instructions(5_000).into());
        assert!(!r.cancelled && r.stats.committed >= 5_000);
    }

    #[test]
    fn expired_deadline_cancels_warmup_and_run() {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 1_000_000);
        b.label("loop");
        b.addi(R1, R1, -1);
        b.bne(R1, R0, "loop");
        b.halt();
        let prog = b.finish().unwrap();
        let token = crate::cancel::CancelToken::with_deadline(std::time::Duration::ZERO);
        let mut p = Processor::new(MachineConfig::base_8way());
        p.set_cancel_token(token.clone());
        let r = p.run_program_warmed(&prog, 500_000, RunLimit::instructions(1_000_000));
        assert!(r.cancelled && !r.halted);
        assert!(
            !token.is_cancelled(),
            "deadline expiry is not an explicit cancel"
        );
        assert!(
            r.stats.committed < 1_000_000,
            "warm-up poll must have aborted the run early"
        );
    }

    #[test]
    fn warmed_run_matches_architecture() {
        let prog = sum_loop();
        let mut p = Processor::new(MachineConfig::base_8way());
        p.enable_cosim();
        let r = p.run_program_warmed(&prog, 50, RunLimit::instructions(10_000));
        assert!(r.halted);
        // 50 instructions were skipped; the detailed run commits the rest.
        assert!(r.stats.committed < 400);
    }

    #[test]
    fn warm_up_past_halt_returns_a_halted_result() {
        let mut b = ProgramBuilder::new(0x1000);
        b.addi(R1, R0, 7);
        b.addi(R2, R1, 1);
        b.add(R3, R1, R2);
        b.halt();
        let prog = b.finish().unwrap();
        for cosim in [false, true] {
            let mut p = Processor::new(MachineConfig::base_8way());
            if cosim {
                p.enable_cosim();
            }
            // Warmed up to exactly the `halt`, and far past it.
            for warmup in [prog.len() as u64, 1_000] {
                let r = p.run_program_warmed(&prog, warmup, RunLimit::instructions(1_000));
                assert!(r.halted && !r.cancelled, "cosim {cosim}, warm-up {warmup}");
                assert_eq!((r.stats.cycles, r.stats.committed), (0, 0));
            }
        }
    }

    #[test]
    fn conventional_large_iq_runs() {
        let r = run_cosim(MachineConfig::conventional(256), &sum_loop(), 10_000);
        assert!(r.halted);
    }

    fn streaming_misses() -> Program {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(R1, 0x20_0000);
        b.li(R4, 64);
        b.li(R5, 0);
        b.label("loop");
        b.lw(R2, R1, 0); // miss
        b.add(R3, R2, R2); // dependent
        b.add(R5, R5, R3);
        b.addi(R1, R1, 4096);
        b.addi(R4, R4, -1);
        b.bne(R4, R0, "loop");
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn fast_forward_equivalence() {
        // The quiescent-cycle skip must be invisible: identical cycle
        // counts, commit counts, stall attribution and WIB traffic.
        let prog = streaming_misses();
        for cfg in [
            MachineConfig::base_8way(),
            MachineConfig::wib_2k(),
            MachineConfig::wib_pool(8, 256),
            // A tiny epoch places interval boundaries inside fast-forward
            // stretches: the skip must stop exactly on each boundary so
            // per-interval attribution matches the stepped run.
            MachineConfig::wib_2k().with_stats_epoch(64),
        ] {
            let epoch = cfg.stats_epoch;
            let mut fast = Processor::new(cfg.clone());
            fast.enable_cosim();
            let mut slow = Processor::new(cfg);
            slow.enable_cosim().disable_fast_forward();
            let limit = RunLimit::instructions(10_000);
            let a = fast.run(&prog, limit.into());
            let b = slow.run(&prog, limit.into());
            let key = |r: &RunResult| {
                (
                    r.stats.cycles,
                    r.stats.committed,
                    r.stats.dispatched,
                    r.stats.issued,
                    r.stats.wib_insertions,
                    r.stats.wib_extractions,
                    r.stats.stall_active_list,
                    r.stats.stall_issue_queue,
                    r.stats.stall_lsq,
                    r.stats.stall_regs,
                )
            };
            assert_eq!(key(&a), key(&b));
            assert_eq!(a.stats.cpi.total(), b.stats.cpi.total());
            let intervals = |r: &RunResult| {
                r.stats
                    .intervals
                    .iter()
                    .map(|s| {
                        (
                            s.cycle,
                            s.committed,
                            s.window_occupancy,
                            s.iq_occupancy,
                            s.wib_resident,
                            s.wib_columns_in_use,
                            s.outstanding_misses,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            if epoch == 64 {
                assert!(!intervals(&a).is_empty());
            }
            assert_eq!(intervals(&a), intervals(&b));
        }
    }

    #[test]
    fn machine_check_clean_on_runtime_flag() {
        // The per-cycle machine check (census + every structure checker)
        // holds on a WIB-engaging workload without the `checked` feature.
        let prog = streaming_misses();
        for cfg in [
            MachineConfig::base_8way(),
            MachineConfig::wib_2k(),
            MachineConfig::wib_pool(8, 256),
        ] {
            let mut p = Processor::new(cfg);
            p.enable_cosim().enable_machine_check();
            let r = p.run(&prog, RunLimit::instructions(10_000).into());
            assert!(r.halted);
        }
    }
}
