//! Umbrella crate for the WIB reproduction: re-exports the simulator
//! stack so examples and downstream users need a single dependency.
//!
//! The system reproduces *A Large, Fast Instruction Window for Tolerating
//! Cache Misses* (Lebeck et al., ISCA 2002): an out-of-order core whose
//! issue queue stays small because instructions dependent on load cache
//! misses are parked in a large Waiting Instruction Buffer (WIB) and
//! reinserted when the miss completes.
//!
//! - [`isa`]: instruction set, assembler, reference interpreter.
//! - [`mem`]: caches, TLB, DRAM model, memory hierarchy.
//! - [`bpred`]: branch predictors, BTB, RAS, store-wait table.
//! - [`core`]: the 8-wide out-of-order pipeline and the WIB itself.
//! - [`workloads`]: synthetic stand-ins for the paper's benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use wib::core::{MachineConfig, Processor, RunLimit};
//! use wib::workloads::{suite, Workload};
//!
//! // Build a pointer-chasing workload and run it on the paper's
//! // base machine and on the WIB machine.
//! let program = suite::olden::treeadd(12, 1).build();
//! let base = Processor::new(MachineConfig::base_8way()).run(
//!     &program, RunLimit::instructions(20_000).into());
//! let wib = Processor::new(MachineConfig::wib_2k()).run(
//!     &program, RunLimit::instructions(20_000).into());
//! assert!(wib.ipc() > 0.0 && base.ipc() > 0.0);
//! ```

pub use wib_bpred as bpred;
pub use wib_core as core;
pub use wib_isa as isa;
pub use wib_mem as mem;
pub use wib_workloads as workloads;
