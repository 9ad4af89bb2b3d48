//! Differential fuzzer for the pipeline model.
//!
//! Each case is a randomly generated (but guaranteed-terminating)
//! assembly program run on a handful of randomly sampled machine
//! configurations (drawn from the [`MachineConfig::from_spec`] family)
//! with every correctness oracle armed:
//!
//! - **co-simulation**: every committed instruction is cross-checked
//!   against the reference interpreter (PC and destination value);
//! - **machine check**: every structure's invariant checker plus the
//!   cross-structure ownership census runs once per cycle
//!   (see `wib_core::check`);
//! - **fast-forward differential**: the same run with the
//!   quiescent-cycle skip disabled must produce bit-identical statistics;
//! - **cross-config differential**: every configuration must commit the
//!   same number of instructions (they all run the program to `halt`).
//!
//! A failing case is automatically shrunk (line deletion + loop-count
//! reduction to a fixpoint) and written to `tests/repros/` as a
//! self-describing `.s` file whose header names the seed and the exact
//! machine specs — the tier-1 `repros` test replays every file there.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use wib_core::{MachineConfig, Processor, RunLimit, RunResult};
use wib_isa::text::parse_program;
use wib_rng::StdRng;

/// Instruction budget per run: far above any generated program's dynamic
/// length, so a run that hits it without halting is a hang (or a
/// generator bug), which the oracles report as a failure.
const INSTS_CAP: u64 = 50_000;

/// One generated fuzz case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The seed that generated this case (reproduces it exactly).
    pub seed: u64,
    /// Assembly text (`wib_isa::text` syntax).
    pub text: String,
    /// Machine specs ([`MachineConfig::from_spec`]) to run it on.
    pub specs: Vec<String>,
}

// ---------------------------------------------------------------------
// Program generation
// ---------------------------------------------------------------------

const WRITABLE: [&str; 12] = [
    "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12",
];
const READABLE: [&str; 14] = [
    "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r14",
];
const FREGS: [&str; 6] = ["f1", "f2", "f3", "f4", "f5", "f6"];

fn pick<'a>(rng: &mut StdRng, xs: &[&'a str]) -> &'a str {
    xs[rng.random_range(0..xs.len())]
}

fn pick_u64(rng: &mut StdRng, xs: &[u64]) -> u64 {
    xs[rng.random_range(0..xs.len())]
}

/// Chance of roughly `pct` percent.
fn chance(rng: &mut StdRng, pct: u64) -> bool {
    rng.random_range(0..100u64) < pct
}

/// Emit one random body instruction (or a short forward-branch block)
/// into `out`. `label_id` feeds fresh skip labels; `leaves` is the number
/// of callable leaf functions.
fn gen_item(rng: &mut StdRng, out: &mut Vec<String>, label_id: &mut u32, leaves: u32, chase: bool) {
    // Shared offset pool keeps loads and stores of different widths
    // landing on overlapping addresses: store-to-load forwarding, partial
    // coverage and order-violation replay all get exercised.
    let word_off = 4 * rng.random_range(0..16u32);
    match rng.random_range(0..100u32) {
        // Integer ALU, register form.
        0..=24 => {
            let op = pick(
                rng,
                &[
                    "add", "sub", "mul", "and", "or", "xor", "slt", "sltu", "sll", "srl", "sra",
                ],
            );
            out.push(format!(
                "    {op} {}, {}, {}",
                pick(rng, &WRITABLE),
                pick(rng, &READABLE),
                pick(rng, &READABLE)
            ));
        }
        // Integer ALU, immediate form.
        25..=39 => {
            let (op, imm) = match rng.random_range(0..8u32) {
                0 => ("addi", rng.random_range(-512..512i64)),
                1 => ("andi", rng.random_range(0..1024i64)),
                2 => ("ori", rng.random_range(0..1024i64)),
                3 => ("xori", rng.random_range(0..1024i64)),
                4 => ("slti", rng.random_range(-512..512i64)),
                5 => ("slli", rng.random_range(0..31i64)),
                6 => ("srli", rng.random_range(0..31i64)),
                _ => ("srai", rng.random_range(0..31i64)),
            };
            out.push(format!(
                "    {op} {}, {}, {imm}",
                pick(rng, &WRITABLE),
                pick(rng, &READABLE)
            ));
        }
        // Loads (word, byte, double) against the streaming region.
        40..=54 => match rng.random_range(0..4u32) {
            0 => out.push(format!(
                "    lbu {}, {}(r14)",
                pick(rng, &WRITABLE),
                rng.random_range(0..64u32)
            )),
            1 => out.push(format!(
                "    fld {}, {}(r14)",
                pick(rng, &FREGS),
                8 * rng.random_range(0..8u32)
            )),
            _ => out.push(format!("    lw {}, {word_off}(r14)", pick(rng, &WRITABLE))),
        },
        // Stores into the same region.
        55..=69 => match rng.random_range(0..4u32) {
            0 => out.push(format!(
                "    sb {}, {}(r14)",
                pick(rng, &READABLE),
                rng.random_range(0..64u32)
            )),
            1 => out.push(format!(
                "    fsd {}, {}(r14)",
                pick(rng, &FREGS),
                8 * rng.random_range(0..8u32)
            )),
            _ => out.push(format!("    sw {}, {word_off}(r14)", pick(rng, &READABLE))),
        },
        // Floating point (including the long non-pipelined ops that the
        // `fpdivert` configurations park in the WIB).
        70..=81 => {
            let d = pick(rng, &FREGS);
            let a = pick(rng, &FREGS);
            match rng.random_range(0..6u32) {
                0 => out.push(format!("    fdiv {d}, {a}, {}", pick(rng, &FREGS))),
                1 => out.push(format!("    fsqrt {d}, {a}")),
                2 => out.push(format!("    cvtif {d}, {}", pick(rng, &READABLE))),
                3 => out.push(format!("    fadd {d}, {a}, {}", pick(rng, &FREGS))),
                4 => out.push(format!("    fsub {d}, {a}, {}", pick(rng, &FREGS))),
                _ => out.push(format!("    fmul {d}, {a}, {}", pick(rng, &FREGS))),
            }
        }
        // Data-dependent forward branch over a short block (mispredicts
        // and wrong-path execution).
        82..=91 => {
            let op = pick(rng, &["beq", "bne", "blt", "bge"]);
            let l = format!("skip_{}", *label_id);
            *label_id += 1;
            out.push(format!(
                "    {op} {}, {}, {l}",
                pick(rng, &READABLE),
                pick(rng, &READABLE)
            ));
            for _ in 0..rng.random_range(1..4u32) {
                // Branch shadows hold only straight-line work.
                let mut dummy = 0;
                gen_straightline(rng, out, &mut dummy);
            }
            out.push(format!("{l}:"));
        }
        // Pointer chase: dependent-miss chains (the paper's nemesis).
        92..=95 if chase => {
            out.push("    lw r13, 0(r13)".to_string());
            if chance(rng, 50) {
                out.push(format!("    lw {}, 4(r13)", pick(rng, &WRITABLE)));
            }
        }
        // Leaf call through the RAS.
        96..=97 if leaves > 0 => {
            out.push(format!("    jal leaf{}", rng.random_range(0..leaves)));
        }
        _ => {
            let mut dummy = 0;
            gen_straightline(rng, out, &mut dummy);
        }
    }
}

/// A non-branching filler instruction (used inside branch shadows, where
/// nested labels would tangle).
fn gen_straightline(rng: &mut StdRng, out: &mut Vec<String>, _label_id: &mut u32) {
    match rng.random_range(0..4u32) {
        0 => out.push(format!(
            "    add {}, {}, {}",
            pick(rng, &WRITABLE),
            pick(rng, &READABLE),
            pick(rng, &READABLE)
        )),
        1 => out.push(format!(
            "    lw {}, {}(r14)",
            pick(rng, &WRITABLE),
            4 * rng.random_range(0..16u32)
        )),
        2 => out.push(format!(
            "    sw {}, {}(r14)",
            pick(rng, &READABLE),
            4 * rng.random_range(0..16u32)
        )),
        _ => out.push(format!(
            "    addi {}, {}, {}",
            pick(rng, &WRITABLE),
            pick(rng, &READABLE),
            rng.random_range(-64..64i64)
        )),
    }
}

/// Generate a terminating assembly program.
///
/// The skeleton is a counted outer loop (register `r15`, touched nowhere
/// else) around a random body; all other branches are forward-only, so
/// the dynamic length is bounded by construction. `r14` is a streaming
/// pointer bumped once per iteration; `r13` walks a circular pointer
/// chain laid out in `.data`.
pub fn generate_program(rng: &mut StdRng) -> String {
    let iters = rng.random_range(3..20u32);
    let body_items = rng.random_range(8..36u32);
    let leaves = rng.random_range(0..3u32);
    let chase = chance(rng, 70);
    // Page-sized strides make every iteration's loads miss; small strides
    // keep hitting the same lines (forwarding and replay instead).
    let stride = pick_u64(rng, &[0, 4, 64, 4096]);

    let mut out = vec![format!("# fuzz program (iters={iters}, stride={stride})")];
    out.push(format!("    li r15, {iters}"));
    out.push("    li r14, 0x20000".to_string());
    out.push("    li r13, 0x40000".to_string());
    out.push("    li r12, 0".to_string());
    if chance(rng, 50) {
        out.push("    fld f1, 0(r14)".to_string());
        out.push("    fld f2, 8(r14)".to_string());
    }
    out.push("loop:".to_string());
    let mut label_id = 0;
    for _ in 0..body_items {
        gen_item(rng, &mut out, &mut label_id, leaves, chase);
    }
    if stride > 0 {
        out.push(format!("    addi r14, r14, {stride}"));
    }
    out.push("    addi r15, r15, -1".to_string());
    out.push("    bne r15, r0, loop".to_string());
    out.push("    halt".to_string());

    for leaf in 0..leaves {
        out.push(format!("leaf{leaf}:"));
        for _ in 0..rng.random_range(1..5u32) {
            match rng.random_range(0..3u32) {
                0 => out.push(format!(
                    "    addi r10, {}, {}",
                    pick(rng, &READABLE),
                    rng.random_range(-64..64i64)
                )),
                1 => out.push(format!(
                    "    lw r11, {}(r14)",
                    4 * rng.random_range(0..16u32)
                )),
                _ => out.push(format!("    fmul f6, f5, {}", pick(rng, &FREGS))),
            }
        }
        out.push("    ret".to_string());
    }

    // Streaming region: nonzero seed data so early loads see values.
    out.push("    .data 0x20000".to_string());
    for _ in 0..8 {
        out.push(format!("    .u32 {}", rng.next_u64() as u32));
    }
    // Circular pointer chain scattered across pages: node = [next,
    // payload]. The final node points back to the first, so chasing never
    // escapes initialized memory.
    let nodes = rng.random_range(4..12u64);
    let node_stride = 4096 + 64;
    for i in 0..nodes {
        let addr = 0x40000 + i * node_stride;
        let next = 0x40000 + ((i + 1) % nodes) * node_stride;
        out.push(format!("    .data {addr:#x}"));
        out.push(format!("    .u32 {next:#x}"));
        out.push(format!("    .u32 {}", rng.next_u64() as u32));
    }
    out.join("\n") + "\n"
}

// ---------------------------------------------------------------------
// Config sampling
// ---------------------------------------------------------------------

/// Sample one machine spec from the [`MachineConfig::from_spec`] family.
pub fn sample_spec(rng: &mut StdRng) -> String {
    match rng.random_range(0..12u32) {
        0 => "base".to_string(),
        1 => format!("conv:iq={}", pick_u64(rng, &[64, 256])),
        2 => {
            // Runahead backend over a base or scaled-conventional head.
            let mut s = if chance(rng, 50) {
                "base".to_string()
            } else {
                format!("conv:iq={}", pick_u64(rng, &[64, 256]))
            };
            s.push_str(",backend=runahead");
            if chance(rng, 40) {
                // A tiny entry threshold forces frequent short episodes.
                s.push_str(&format!(",rathresh={}", pick_u64(rng, &[4, 16, 96])));
            }
            if chance(rng, 30) {
                s.push_str(&format!(",epoch={}", pick_u64(rng, &[64, 512, 4096])));
            }
            if chance(rng, 30) {
                s.push_str(",memlat=100");
            }
            s
        }
        3 => {
            // Delay-tracking backend (borrows the WIB's window sizing).
            let w = pick_u64(rng, &[128, 512, 2048]);
            let mut s = format!("wib:w={w},backend=delay_track");
            if chance(rng, 40) {
                // A small parking threshold parks even L2-hit chains.
                s.push_str(&format!(",dtthresh={}", pick_u64(rng, &[4, 16, 48])));
            }
            if chance(rng, 30) {
                s.push_str(&format!(",epoch={}", pick_u64(rng, &[64, 512, 4096])));
            }
            if chance(rng, 20) {
                s.push_str(",memlat=100");
            }
            s
        }
        _ => {
            let w = pick_u64(rng, &[128, 256, 512, 1024, 2048]);
            let mut s = format!("wib:w={w}");
            match rng.random_range(0..6u32) {
                0 | 1 => {} // paper default: banked16
                2 => s.push_str(&format!(",org=banked{}", pick_u64(rng, &[4, 8, 32]))),
                3 => s.push_str(&format!(",org=nonbanked{}", pick_u64(rng, &[2, 4, 6]))),
                4 => {
                    s.push_str(",org=ideal");
                    match rng.random_range(0..3u32) {
                        0 => {}
                        1 => s.push_str(",policy=rrl"),
                        _ => s.push_str(",policy=olf"),
                    }
                }
                _ => s.push_str(&format!(
                    ",org=pool{}x{}",
                    pick_u64(rng, &[2, 4, 8]),
                    pick_u64(rng, &[8, 32, 128])
                )),
            }
            if chance(rng, 40) {
                // A tiny bit-vector budget forces constant column
                // exhaustion and refusal paths.
                s.push_str(&format!(",bv={}", pick_u64(rng, &[1, 4, 16, 64])));
            }
            if chance(rng, 15) {
                s.push_str(",trigger=l2");
            }
            if chance(rng, 20) {
                s.push_str(",fpdivert");
            }
            if chance(rng, 30) {
                // Small epochs put interval boundaries inside fast-forward
                // stretches.
                s.push_str(&format!(",epoch={}", pick_u64(rng, &[64, 512, 4096])));
            }
            if chance(rng, 20) {
                s.push_str(",memlat=100");
            }
            s
        }
    }
}

/// Generate a full case: program plus 2–3 distinct machine specs.
pub fn generate_case(seed: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let text = generate_program(&mut rng);
    let mut specs: Vec<String> = Vec::new();
    let want = rng.random_range(2..4usize);
    let mut attempts = 0;
    while specs.len() < want && attempts < 32 {
        attempts += 1;
        let s = sample_spec(&mut rng);
        if MachineConfig::from_spec(&s).is_ok() && !specs.contains(&s) {
            specs.push(s);
        }
    }
    FuzzCase { seed, text, specs }
}

// ---------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------

type IntervalKey = (u64, u64, u64, u64, u64, u64, u64);

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    totals: (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64),
    halted: bool,
    intervals: Vec<IntervalKey>,
}

fn fingerprint(r: &RunResult) -> Fingerprint {
    Fingerprint {
        totals: (
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
            r.stats.cpi.total(),
        ),
        halted: r.halted,
        // The whole interval series: a fast-forward that mis-bucketed
        // work across an epoch boundary shows up here even when the
        // end-of-run totals agree.
        intervals: r
            .stats
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
            .collect(),
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn run_one(
    cfg: &MachineConfig,
    program: &wib_isa::Program,
    no_skip: bool,
) -> Result<RunResult, String> {
    let cfg = cfg.clone();
    catch_unwind(AssertUnwindSafe(|| {
        let mut p = Processor::new(cfg);
        p.enable_cosim().enable_machine_check();
        if no_skip {
            p.disable_fast_forward();
        }
        p.run(program, RunLimit::instructions(INSTS_CAP).into())
    }))
    .map_err(panic_message)
}

/// Run one program text against `specs` with every oracle armed.
///
/// # Errors
/// Returns a description of the first oracle violation: a parse failure,
/// a co-simulation or machine-check panic, a run that never halts, a
/// fast-forward statistics divergence, or a cross-config commit-count
/// divergence.
pub fn run_case_text(text: &str, specs: &[String]) -> Result<(), String> {
    let program = parse_program(text).map_err(|e| format!("parse: {e}"))?;
    let mut committed: Option<(u64, String)> = None;
    for spec in specs {
        let cfg = MachineConfig::from_spec(spec).map_err(|e| format!("config {spec:?}: {e}"))?;
        let fast = run_one(&cfg, &program, false).map_err(|e| format!("[{spec}] {e}"))?;
        let slow = run_one(&cfg, &program, true).map_err(|e| format!("[{spec}] no-skip: {e}"))?;
        if fingerprint(&fast) != fingerprint(&slow) {
            return Err(format!(
                "[{spec}] fast-forward divergence:\n  fast {:?}\n  slow {:?}",
                fingerprint(&fast),
                fingerprint(&slow)
            ));
        }
        if !fast.halted {
            return Err(format!(
                "[{spec}] did not halt within {INSTS_CAP} instructions"
            ));
        }
        match &committed {
            None => committed = Some((fast.stats.committed, spec.clone())),
            Some((n, first)) if *n != fast.stats.committed => {
                return Err(format!(
                    "commit-count divergence: [{first}] {n} vs [{spec}] {}",
                    fast.stats.committed
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Run a generated case.
///
/// # Errors
/// See [`run_case_text`].
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    run_case_text(&case.text, &case.specs)
}

/// Run `f` with panic backtraces suppressed (the oracles convert panics
/// into failure descriptions; the default hook would spam stderr during
/// shrinking).
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Shrink a failing case to a local minimum: greedily delete line blocks
/// (largest first), drop machine specs, and halve loop counts, as long as
/// *some* failure remains. The result is the smallest variant this
/// process reaches, not necessarily a global minimum.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    let mut lines: Vec<String> = case.text.lines().map(String::from).collect();
    let mut specs = case.specs.clone();
    if run_case_text(&lines.join("\n"), &specs).is_ok() {
        // Not reproducible from the text alone (should not happen — the
        // oracles are deterministic); return unchanged.
        return case.clone();
    }
    // Fewer configs first: every later probe gets cheaper.
    while specs.len() > 1 {
        let mut dropped = false;
        for i in 0..specs.len() {
            let mut cand = specs.clone();
            cand.remove(i);
            if run_case_text(&lines.join("\n"), &cand).is_err() {
                specs = cand;
                dropped = true;
                break;
            }
        }
        if !dropped {
            break;
        }
    }
    for _round in 0..6 {
        let mut changed = false;
        for size in [16usize, 8, 4, 2, 1] {
            let mut i = 0;
            while i < lines.len() && size <= lines.len() {
                let end = (i + size).min(lines.len());
                let mut cand = lines.clone();
                cand.drain(i..end);
                if run_case_text(&cand.join("\n"), &specs).is_err() {
                    lines = cand;
                    changed = true;
                } else {
                    i = end;
                }
            }
        }
        // Halve loop iteration counts (`li r15, N`).
        for i in 0..lines.len() {
            if let Some(rest) = lines[i].trim().strip_prefix("li r15, ") {
                if let Ok(n) = rest.trim().parse::<u64>() {
                    if n > 1 {
                        let mut cand = lines.clone();
                        cand[i] = format!("    li r15, {}", n / 2);
                        if run_case_text(&cand.join("\n"), &specs).is_err() {
                            lines = cand;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    FuzzCase {
        seed: case.seed,
        text: lines.join("\n") + "\n",
        specs,
    }
}

// ---------------------------------------------------------------------
// Reproducer files
// ---------------------------------------------------------------------

/// Write `case` as a self-describing reproducer under `dir`
/// (`fuzz_seed_<seed>.s`). The header names the seed, every machine
/// spec, and the failure; the tier-1 `repros` test replays the file.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_repro(dir: &Path, case: &FuzzCase, failure: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fuzz_seed_{}.s", case.seed));
    let mut head = format!("# fuzz reproducer: seed {}\n", case.seed);
    for spec in &case.specs {
        // The digest is the same spec_digest the serving layer's result
        // cache uses, so a repro header names the exact cache identity of
        // the configuration it ran on.
        let digest = match MachineConfig::from_spec(spec) {
            Ok(cfg) => cfg.spec_digest(),
            Err(_) => wib_core::fnv1a64_hex(spec.as_bytes()),
        };
        head.push_str(&format!("# config: {spec}  [digest {digest}]\n"));
    }
    let first_line = failure.lines().next().unwrap_or("unknown");
    head.push_str(&format!("# failure: {first_line}\n"));
    std::fs::write(&path, head + &case.text)?;
    Ok(path)
}

/// Parse the `# config:` header lines of a reproducer file. A trailing
/// `[digest ...]` annotation (written by [`write_repro`] since the
/// serving layer introduced spec digests) is ignored; headers without
/// one still parse.
pub fn repro_specs(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# config:"))
        .map(|s| s.split("[digest").next().unwrap_or(s).trim().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_parse_and_terminate() {
        for seed in 0..12 {
            let case = generate_case(seed);
            assert!(
                case.specs.len() >= 2,
                "seed {seed} produced {} specs",
                case.specs.len()
            );
            let prog = parse_program(&case.text).unwrap_or_else(|e| {
                panic!("seed {seed} generated unparsable text: {e}\n{}", case.text)
            });
            // Terminates on the reference machine with room to spare.
            let p = Processor::new(MachineConfig::base_8way());
            let r = p.run(&prog, RunLimit::instructions(INSTS_CAP).into());
            assert!(r.halted, "seed {seed} did not halt");
            assert!(r.stats.committed < INSTS_CAP / 8, "seed {seed} too long");
        }
    }

    #[test]
    fn sampled_specs_are_valid() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let s = sample_spec(&mut rng);
            MachineConfig::from_spec(&s)
                .unwrap_or_else(|e| panic!("sampled invalid spec {s:?}: {e}"));
        }
    }

    #[test]
    fn clean_case_passes_all_oracles() {
        let case = generate_case(1);
        with_quiet_panics(|| run_case(&case)).unwrap_or_else(|e| {
            panic!("seed 1 should be clean, got: {e}\n{}", case.text);
        });
    }

    #[test]
    fn oracle_catches_a_hang() {
        // An infinite loop must surface as "did not halt", not wedge the
        // fuzzer (the run limit caps it).
        let text = "spin:\n    addi r1, r1, 1\n    j spin\n";
        let specs = vec!["base".to_string()];
        let err = with_quiet_panics(|| run_case_text(text, &specs)).unwrap_err();
        assert!(err.contains("did not halt"), "got: {err}");
    }

    #[test]
    fn shrinker_minimizes_a_hang() {
        let text = "\
    li r1, 5
    add r2, r1, r1
    sw r2, 0(r14)
spin:
    addi r1, r1, 1
    j spin
    halt
";
        let case = FuzzCase {
            seed: 0,
            text: text.to_string(),
            specs: vec!["base".to_string(), "wib:w=256".to_string()],
        };
        let small = with_quiet_panics(|| shrink(&case));
        assert!(with_quiet_panics(|| run_case(&small)).is_err());
        assert!(
            small.specs.len() == 1,
            "specs not dropped: {:?}",
            small.specs
        );
        assert!(
            small.text.lines().count() < text.lines().count(),
            "not shrunk:\n{}",
            small.text
        );
    }

    #[test]
    fn repro_files_round_trip() {
        let case = FuzzCase {
            seed: 42,
            text: "    halt\n".to_string(),
            specs: vec!["base".to_string(), "wib:w=128,bv=4".to_string()],
        };
        let dir = std::env::temp_dir().join("wib_fuzz_test_repro");
        let path = write_repro(&dir, &case, "synthetic failure\nsecond line").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(repro_specs(&text), case.specs);
        // Each config line carries the cache-identity digest of its spec.
        let digest = MachineConfig::from_spec("base").unwrap().spec_digest();
        assert!(text.contains(&format!("# config: base  [digest {digest}]")));
        // Headers written before digests existed still parse.
        assert_eq!(repro_specs("# config: wib:w=256\n"), vec!["wib:w=256"]);
        assert!(text.contains("# failure: synthetic failure"));
        assert!(!text.contains("second line"));
        // The body still parses with the header comments in place.
        parse_program(&text).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
