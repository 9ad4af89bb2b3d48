//! Calls into the simulator crates: one point run plain or under the
//! layer probes, the checks every result must pass, and the per-layer
//! totals of the engine-side crates (`wib-isa`, `wib-mem`, `wib-core`).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use wib_core::{Json, MachineConfig, Processor, RunLimit, RunResult, PROFILE_SAMPLE_PERIOD};
use wib_isa::interp::Interpreter;
use wib_mem::{AccessKind, MemoryHierarchy};
use wib_serve::protocol::parse_machine_spec;
use wib_serve::server::result_doc;
use wib_workloads::Workload;

use crate::points::{Point, BENCH_V1_SPECS};
use crate::stats::{metric, ratio, Metric};

/// The scale name result documents carry for eval-size kernels.
pub const SCALE: &str = "eval";

/// Interpreter steps buffered per chunk of [`trace_warmup`].
const REPLAY_CHUNK: usize = 1 << 16;

/// The eval-scale programs by name, plus every spec resolved once.
pub struct Catalog {
    programs: HashMap<String, Workload>,
    configs: HashMap<&'static str, MachineConfig>,
}

impl Catalog {
    /// Build every program (the timed part of set-up).
    pub fn build() -> Catalog {
        let configs = crate::points::SPECS
            .iter()
            .map(|&s| (s, parse_machine_spec(s).expect("benchmark specs parse")))
            .collect();
        Catalog {
            programs: wib_serve::server::build_catalog(false),
            configs,
        }
    }

    pub fn workload(&self, p: &Point) -> &Workload {
        &self.programs[p.kernel]
    }

    pub fn config(&self, p: &Point) -> &MachineConfig {
        &self.configs[p.spec]
    }
}

/// Simulate one point as `server::compute_result` does, keeping the
/// `RunResult` (and its stage profile) the traced run needs.
pub fn run_point(cat: &Catalog, p: &Point) -> RunResult {
    Processor::new(cat.config(p).clone()).run_program_warmed(
        cat.workload(p).program(),
        p.warmup,
        RunLimit::instructions(p.insts),
    )
}

/// A finished point must have committed its requested instructions
/// (the engine retires whole commit groups, so it may overshoot by less
/// than one group) without halting. A cancelled job never gets here: the
/// service answers it with an error, and in-process runs carry no cancel
/// token.
pub fn check_committed(
    p: &Point,
    commit_width: u64,
    committed: u64,
    halted: bool,
) -> Result<(), String> {
    let what = format!("{} on {} after {}", p.kernel, p.spec, p.warmup);
    if halted {
        return Err(format!("{what}: halted early"));
    }
    if committed < p.insts || committed >= p.insts + commit_width {
        return Err(format!(
            "{what}: committed {committed}, asked for {}",
            p.insts
        ));
    }
    Ok(())
}

/// [`check_committed`] on a result document; returns the committed
/// instruction count.
pub fn check_doc(cat: &Catalog, p: &Point, doc: &str) -> Result<u64, String> {
    let json = Json::parse(doc).map_err(|e| format!("unparseable result: {e}"))?;
    let committed = json
        .get("stats")
        .and_then(|s| s.get("committed"))
        .and_then(Json::as_u64)
        .ok_or("result has no stats.committed")?;
    let halted = json.get("halted").and_then(Json::as_bool) != Some(false);
    let width = u64::from(cat.config(p).commit_width);
    check_committed(p, width, committed, halted)?;
    Ok(committed)
}

/// Digest of a set of result documents keyed by point, independent of
/// the order they were produced in.
pub fn stats_digest<'a>(docs: impl Iterator<Item = (&'a str, &'a str)>) -> String {
    let mut v: Vec<(&str, &str)> = docs.collect();
    v.sort_unstable();
    let mut all = String::new();
    for (key, doc) in v {
        all.push_str(key);
        all.push('\n');
        all.push_str(doc);
        all.push('\n');
    }
    wib_core::fnv1a64_hex(all.as_bytes())
}

/// Interpret `warmup` instructions the way the engine's warm-up does,
/// in chunks: the interpreter's step loop fills a buffer with each
/// instruction's fetch and data address (timed as the interpreter),
/// then the buffer is replayed through a fresh hierarchy's `warm_inst`
/// and `warm_data` (timed as the hierarchy). Returns both times.
pub fn trace_warmup(cat: &Catalog, p: &Point) -> (Duration, Duration) {
    let mut interp = Interpreter::new(cat.workload(p).program());
    let mut hier = MemoryHierarchy::new(cat.config(p).mem.clone());
    let mut buf: Vec<(u32, Option<(u32, AccessKind)>)> = Vec::with_capacity(REPLAY_CHUNK);
    let mut left = p.warmup;
    let (mut interp_t, mut hier_t) = (Duration::ZERO, Duration::ZERO);
    while left > 0 && !interp.is_halted() {
        buf.clear();
        let n = left.min(REPLAY_CHUNK as u64);
        let t = Instant::now();
        for _ in 0..n {
            let s = interp.step().expect("warm-up hit an invalid instruction");
            let data = s.mem.map(|m| {
                let kind = if m.is_store {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                (m.addr, kind)
            });
            buf.push((s.pc, data));
        }
        interp_t += t.elapsed();
        left -= n;
        let t = Instant::now();
        for &(pc, data) in &buf {
            hier.warm_inst(pc);
            if let Some((addr, kind)) = data {
                hier.warm_data(addr, kind);
            }
        }
        hier_t += t.elapsed();
    }
    black_box(hier.stats());
    (interp_t, hier_t)
}

/// One point run under the engine probes.
pub struct Traced {
    pub result: RunResult,
    pub doc: String,
    /// The full point: warm-up plus detailed simulation.
    pub total: Duration,
    /// `run_program_warmed(p, skip, RunLimit::cycles(1))`.
    pub warmup: Duration,
    /// A second full run produced identical statistics and profile
    /// sample count.
    pub repeatable: bool,
}

/// Run `p` behind a warm-up probe, then once more to check that its
/// counters repeat exactly.
pub fn trace_point(cat: &Catalog, p: &Point) -> Traced {
    let cpu = Processor::new(cat.config(p).clone());
    let t = Instant::now();
    black_box(cpu.run_program_warmed(cat.workload(p).program(), p.warmup, RunLimit::cycles(1)));
    let warmup = t.elapsed();
    let t = Instant::now();
    let result = run_point(cat, p);
    let total = t.elapsed();
    let again = run_point(cat, p);
    let repeatable = again.stats.to_json() == result.stats.to_json()
        && again.profile.sampled_cycles == result.profile.sampled_cycles;
    Traced {
        doc: result_doc(
            cat.workload(p),
            cat.config(p),
            p.insts,
            p.warmup,
            SCALE,
            &result,
        )
        .to_string(),
        result,
        total,
        warmup,
        repeatable,
    }
}

/// Engine-side per-layer totals over the points a traced run simulated.
#[derive(Debug, Default)]
pub struct EngineTotals {
    warmup_insts: u64,
    total_s: f64,
    warmup_s: f64,
    interp_s: f64,
    hier_s: f64,
    committed: u64,
    cycles: u64,
    sampled_cycles: u64,
    stage_ns: [u64; wib_core::STAGE_COUNT],
    l1d_misses: u64,
    l2_misses: u64,
    mshr_merges: u64,
    wib_insertions: u64,
    wib_extractions: u64,
    wib_insertions_committed: u64,
    wib_touched: u64,
    wib_column_exhausted: u64,
    iq_stalls: u64,
    ra_episodes: u64,
    ra_committed: u64,
    ra_pseudo_retired: u64,
    delay_parked: u64,
    delay_reinserted: u64,
    v1_committed: u64,
    v1_s: f64,
}

impl EngineTotals {
    /// One interpreted warm-up, from [`trace_warmup`].
    pub fn add_warmup(&mut self, insts: u64, (interp, hier): (Duration, Duration)) {
        self.warmup_insts += insts;
        self.interp_s += interp.as_secs_f64();
        self.hier_s += hier.as_secs_f64();
    }

    /// One point, from [`trace_point`].
    pub fn add(&mut self, p: &Point, t: &Traced) {
        let s = &t.result.stats;
        self.total_s += t.total.as_secs_f64();
        self.warmup_s += t.warmup.as_secs_f64();
        self.committed += s.committed;
        self.cycles += s.cycles;
        self.sampled_cycles += t.result.profile.sampled_cycles;
        for (a, b) in self.stage_ns.iter_mut().zip(t.result.profile.stage_ns) {
            *a += b;
        }
        self.l1d_misses += s.mem.l1d_misses;
        self.l2_misses += s.mem.l2_misses;
        self.mshr_merges += s.mem.mshr_merges;
        self.wib_insertions += s.wib_insertions;
        self.wib_extractions += s.wib_extractions;
        self.wib_insertions_committed += s.wib_insertions_committed;
        self.wib_touched += s.wib_touched_insts;
        self.wib_column_exhausted += s.wib_column_exhausted;
        self.iq_stalls += s.stall_issue_queue;
        self.ra_episodes += s.runahead_episodes;
        if s.backend == "runahead" {
            self.ra_committed += s.committed;
            self.ra_pseudo_retired += s.runahead_pseudo_retired;
        }
        self.delay_parked += s.delay_parked;
        self.delay_reinserted += s.delay_reinserted;
        if BENCH_V1_SPECS.contains(&p.spec) {
            self.v1_committed += s.committed;
            self.v1_s += t.total.as_secs_f64();
        }
    }

    pub fn total_seconds(&self) -> f64 {
        self.total_s
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let detailed_s = (self.total_s - self.warmup_s).max(0.0);
        let interp_ns_per_inst = ratio(self.interp_s * 1e9, self.warmup_insts as f64, 0.0);
        let stepped = self.sampled_cycles * PROFILE_SAMPLE_PERIOD;
        let mut m = vec![
            metric("interp.s", "s", self.interp_s),
            metric(
                "interp.minsts_per_s",
                "Minst/s",
                ratio(self.warmup_insts as f64, self.interp_s * 1e6, 0.0),
            ),
            metric(
                "interp.lockstep_share_est",
                "ratio",
                ratio(
                    interp_ns_per_inst * self.committed as f64,
                    detailed_s * 1e9,
                    0.0,
                ),
            ),
            metric("hier.warm_s", "s", self.hier_s),
            metric("hier.l1d_misses", "count", self.l1d_misses as f64),
            metric("hier.l2_misses", "count", self.l2_misses as f64),
            metric("hier.mshr_merges", "count", self.mshr_merges as f64),
            metric("warmup.s", "s", self.warmup_s),
            metric(
                "warmup.share",
                "ratio",
                ratio(self.warmup_s, self.total_s, 0.0),
            ),
            metric("engine.detailed_s", "s", detailed_s),
            metric(
                "engine.ns_per_inst",
                "ns",
                ratio(detailed_s * 1e9, self.committed as f64, 0.0),
            ),
            metric(
                "engine.ns_per_cycle",
                "ns",
                ratio(detailed_s * 1e9, self.cycles as f64, 0.0),
            ),
        ];
        for (name, ns) in wib_core::STAGE_NAMES.iter().zip(self.stage_ns) {
            m.push(metric(
                format!("engine.stage.{name}_ns"),
                "ns/inst",
                ratio(
                    (ns * PROFILE_SAMPLE_PERIOD) as f64,
                    self.committed as f64,
                    0.0,
                ),
            ));
        }
        m.extend([
            metric("engine.cycles", "count", self.cycles as f64),
            metric("engine.stepped_cycles", "count", stepped as f64),
            metric(
                "engine.skip_ratio",
                "ratio",
                1.0 - ratio(stepped as f64, self.cycles as f64, 1.0).min(1.0),
            ),
            metric("wib.insertions", "count", self.wib_insertions as f64),
            metric("wib.extractions", "count", self.wib_extractions as f64),
            metric(
                "wib.trips_per_touched_inst",
                "ratio",
                ratio(
                    self.wib_insertions_committed as f64,
                    self.wib_touched as f64,
                    0.0,
                ),
            ),
            metric(
                "wib.column_exhausted",
                "count",
                self.wib_column_exhausted as f64,
            ),
            metric("iq.stall_cycles", "count", self.iq_stalls as f64),
            metric("runahead.episodes", "count", self.ra_episodes as f64),
            metric(
                "runahead.useful_ratio",
                "ratio",
                ratio(
                    self.ra_committed as f64,
                    (self.ra_committed + self.ra_pseudo_retired) as f64,
                    1.0,
                ),
            ),
            metric("delay.parked", "count", self.delay_parked as f64),
            metric("delay.reinserted", "count", self.delay_reinserted as f64),
            metric(
                "bench_v1.sim_minsts_per_s",
                "Minst/s",
                ratio(self.v1_committed as f64, self.v1_s * 1e6, 0.0),
            ),
        ]);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> Point {
        Point {
            kernel: "mst",
            spec: "base",
            warmup: 1_000,
            insts: 100,
        }
    }

    #[test]
    fn commit_groups_may_overshoot_by_less_than_one_group() {
        let p = point();
        assert!(check_committed(&p, 8, 100, false).is_ok());
        assert!(check_committed(&p, 8, 107, false).is_ok());
        assert!(check_committed(&p, 8, 108, false).is_err());
        assert!(check_committed(&p, 8, 99, false).is_err());
        assert!(check_committed(&p, 8, 100, true).is_err());
    }

    #[test]
    fn digest_ignores_production_order() {
        let a = stats_digest([("k1", "doc1"), ("k2", "doc2")].into_iter());
        let b = stats_digest([("k2", "doc2"), ("k1", "doc1")].into_iter());
        let c = stats_digest([("k1", "doc1"), ("k2", "doc3")].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
