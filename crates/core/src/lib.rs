//! The out-of-order core with the ISCA 2002 **Waiting Instruction Buffer**
//! (Lebeck, Koppanalil, Li, Patwardhan, Rotenberg: *A Large, Fast
//! Instruction Window for Tolerating Cache Misses*).
//!
//! The headline idea: keep the cycle-critical issue queue small (32
//! entries) and move every instruction that directly or transitively
//! depends on a load cache miss into a large (2K-entry) WIB, reinserting
//! the chain when the miss completes. Dependents are found by reusing the
//! issue queue's own select logic: a register whose producer chain hangs
//! off a miss carries a *wait bit*, instructions whose remaining operands
//! are ready become **pretend ready**, issue normally, and are diverted
//! into the WIB instead of a functional unit.
//!
//! # Quick start
//!
//! ```
//! use wib_core::trace::Trace;
//! use wib_core::{MachineConfig, Processor, RunLimit, RunOptions};
//! use wib_isa::asm::ProgramBuilder;
//! use wib_isa::reg::*;
//!
//! let mut b = ProgramBuilder::new(0x1000);
//! b.li(R1, 1000);
//! b.label("loop");
//! b.addi(R1, R1, -1);
//! b.bne(R1, R0, "loop");
//! b.halt();
//! let prog = b.finish()?;
//!
//! let base = Processor::new(MachineConfig::base_8way());
//! let result = base.run(&prog, RunLimit::instructions(10_000).into());
//! println!("IPC = {:.2}", result.ipc());
//!
//! // Fast-forward 500 instructions on the interpreter, then record the
//! // pipeline timeline of the first 8 detailed commits.
//! let mut trace = Trace::new(8);
//! base.run(
//!     &prog,
//!     RunOptions {
//!         warmup: 500,
//!         limit: RunLimit::instructions(1_000),
//!         sink: Some(&mut trace),
//!     },
//! );
//! assert_eq!(trace.len(), 8);
//! print!("{trace}");
//! # Ok::<(), wib_isa::asm::AsmError>(())
//! ```
//!
//! The paper's machines are presets: [`MachineConfig::base_8way`] (Table
//! 1), [`MachineConfig::wib_2k`] (the 2K-entry WIB machine with a
//! two-level register file), [`MachineConfig::conventional`] (the limit
//! study's scaled issue queues), and [`MachineConfig::wib_sized`] (Figure
//! 6 capacities). WIB design parameters — bit-vector budget (Figure 5),
//! banked vs. multicycle non-banked organization (Figure 7), selection
//! policy (section 4.4) — are all configurable through
//! [`config::WibConfig`].

pub mod cancel;
pub mod check;
pub mod config;
pub mod cpi;
pub mod delay;
pub mod digest;
pub mod events;
pub mod fu;
pub mod hist;
pub mod iq;
pub mod json;
pub mod lsq;
pub mod metrics;
pub mod processor;
pub mod profile;
pub mod regfile;
pub mod rename;
pub mod rob;
pub mod runahead;
pub mod stats;
pub mod trace;
pub mod types;
pub mod wib;
pub mod wib_pool;
pub mod window;

pub use cancel::CancelToken;
pub use config::{
    Backend, MachineConfig, RegFileConfig, SelectionPolicy, WibConfig, WibOrganization, WibTrigger,
    BACKEND_VALUES,
};
pub use cpi::{CpiCategory, CpiStack, CPI_CATEGORIES};
pub use digest::{fnv1a64, fnv1a64_hex};
pub use events::{
    format_event, BoundedSink, CountingSink, EventKind, EventSink, PipeEvent, TextSink, EVENT_KINDS,
};
pub use hist::{Log2Snapshot, LOG2_BUCKETS};
pub use json::Json;
pub use metrics::{Counter, Exposition, Gauge, HistogramMetric, Registry};
pub use processor::{Processor, RunLimit, RunOptions, RunResult, WarmUpWork};
pub use profile::{StageProfile, PROFILE_SAMPLE_PERIOD, STAGE_COUNT, STAGE_NAMES};
pub use rob::MissKind;
pub use stats::{IntervalSample, SimStats};
