//! `simbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! simbench --workload <paper_sweep|skip_long|serve_mix> --seed <n>
//!          [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with nothing
//! extra timed; with `--trace 1` it times calls into each crate's public
//! functions and reports the per-layer metrics instead. Either way it
//! runs every correctness check and prints, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for the metrics, the workloads and why
//! each was chosen.

mod inproc;
mod mix;
mod points;
mod service;
mod sim;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use sim::Catalog;
use stats::{median, metric, ratio, tail_percentile, Metric};

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

/// Scratch space for result caches and journals, relative to the
/// working directory. Runs leave it in place: unlinking thousands of
/// fsync'd files can take longer than the run itself.
const WORK_DIR: &str = ".simbench_work";

const USAGE: &str = "usage: simbench --workload <paper_sweep|skip_long|serve_mix> --seed <n> \
                     [--seconds <n>] [--trace <0|1>]";

/// End-to-end metrics, in report order.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "sim_minsts_per_s",
    "points_per_s",
    "point_ms_p50",
    "point_ms_p90",
    "hit_ms_p50",
    "miss_ms_p50",
    "peak_rss_mb",
    "success_ratio",
];

/// Per-layer metrics, in report order.
pub const PER_LAYER: [&str; 51] = [
    "workloads.build_ms",
    "interp.s",
    "interp.minsts_per_s",
    "interp.lockstep_share_est",
    "hier.warm_s",
    "hier.l1d_misses",
    "hier.l2_misses",
    "hier.mshr_merges",
    "warmup.s",
    "warmup.share",
    "engine.detailed_s",
    "engine.ns_per_inst",
    "engine.ns_per_cycle",
    "engine.stage.commit_ns",
    "engine.stage.events_ns",
    "engine.stage.dispatch_ns",
    "engine.stage.issue_ns",
    "engine.stage.fetch_ns",
    "engine.stage.other_ns",
    "engine.cycles",
    "engine.stepped_cycles",
    "engine.skip_ratio",
    "wib.insertions",
    "wib.extractions",
    "wib.trips_per_touched_inst",
    "wib.column_exhausted",
    "iq.stall_cycles",
    "runahead.episodes",
    "runahead.useful_ratio",
    "delay.parked",
    "delay.reinserted",
    "bench_v1.sim_minsts_per_s",
    "protocol.parse_us",
    "ring.route_ns",
    "cache.get_us",
    "cache.put_us",
    "journal.accept_us",
    "cache.hit_ratio",
    "cache.peer_probes",
    "cache.peer_hit_ratio",
    "journal.appends",
    "serve.queue_wait_us_p50",
    "serve.run_us_p50",
    "client.shed_retries",
    "coord.reroutes",
    "coord.node_deaths",
    "client.connect_us",
    "trace.point_ms_p50",
    "trace.cost_ratio",
    "run.attempted",
    "run.failed_ratio",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    SkipLong,
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_sweep" => Some(Workload::PaperSweep),
            "skip_long" => Some(Workload::SkipLong),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Wall clock of the timed region.
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Detailed instructions simulated inside the timed region.
    pub committed: u64,
    pub point_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// `(points_per_s, sim_minsts_per_s)` as medians over windows of the
    /// timed region, in place of whole-run totals (`serve_mix` only).
    pub window_rates: Option<(f64, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    notes: Vec<String>,
    wrong: Vec<String>,
}

impl Run {
    pub fn new(setup_s: Vec<f64>) -> Run {
        Run {
            setup_s,
            elapsed_s: 0.0,
            attempted: 0,
            failed: 0,
            completed: 0,
            committed: 0,
            point_ms: Vec::new(),
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
            peak_rss_mb: 0.0,
            window_rates: None,
            layers: Vec::new(),
            notes: Vec::new(),
            wrong: Vec::new(),
        }
    }

    /// A point that produced no usable result.
    pub fn fail(&mut self, why: String) {
        eprintln!("simbench: point failed: {why}");
        self.failed += 1;
    }

    /// A failed correctness check.
    pub fn wrong(&mut self, why: String) {
        eprintln!("simbench: check failed: {why}");
        self.wrong.push(why);
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// A line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s).unwrap_or(0.0)
    }

    fn success_ratio(&self) -> f64 {
        ratio(
            (self.attempted - self.failed) as f64,
            self.attempted as f64,
            0.0,
        )
    }

    fn end_to_end(&mut self) -> Vec<Metric> {
        let p90 = match tail_percentile(&self.point_ms, 0.9) {
            Some(v) => v,
            None => {
                self.wrong(format!(
                    "{} point samples are too few for a p90",
                    self.point_ms.len()
                ));
                0.0
            }
        };
        let (points_per_s, minsts_per_s) = self.window_rates.unwrap_or((
            ratio(self.completed as f64, self.elapsed_s, 0.0),
            ratio(self.committed as f64, self.elapsed_s * 1e6, 0.0),
        ));
        vec![
            metric("setup_s", "s", self.setup_median()),
            metric("sim_minsts_per_s", "Minst/s", minsts_per_s),
            metric("points_per_s", "1/s", points_per_s),
            metric("point_ms_p50", "ms", median(&self.point_ms).unwrap_or(0.0)),
            metric("point_ms_p90", "ms", p90),
            metric("hit_ms_p50", "ms", median(&self.hit_ms).unwrap_or(0.0)),
            metric("miss_ms_p50", "ms", median(&self.miss_ms).unwrap_or(0.0)),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
            metric("success_ratio", "ratio", self.success_ratio()),
        ]
    }

    /// Per-layer metrics plus the traced run's own failure count.
    fn per_layer(&mut self) -> Vec<Metric> {
        let mut m = std::mem::take(&mut self.layers);
        m.extend([
            metric("run.attempted", "count", self.attempted as f64),
            metric("run.failed_ratio", "ratio", 1.0 - self.success_ratio()),
        ]);
        m
    }
}

/// Build the programs [`SETUP_REPEATS`] times; returns the last build
/// and the seconds each took.
pub fn setup_catalog() -> (Catalog, Vec<f64>) {
    let mut times = Vec::new();
    let mut cat = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        cat = Some(Catalog::build());
        times.push(t.elapsed().as_secs_f64());
    }
    (cat.expect("at least one set-up"), times)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Check the metric set against the declared names and that every value
/// is a finite number.
fn validate(metrics: &[Metric], declared: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    if names != declared {
        problems.push(format!(
            "metric set {names:?} differs from the declared {declared:?}"
        ));
    }
    for m in metrics {
        if !stats::valid_name(&m.name) || !stats::valid_unit(m.unit) || !m.value.is_finite() {
            problems.push(format!("invalid metric {m:?}"));
        }
    }
    problems
}

fn execute(args: &Args, work: &Path) -> Result<Run, String> {
    match (args.workload, args.trace) {
        (Workload::PaperSweep, false) => {
            inproc::timed(&points::paper_sweep(args.seed), args.seconds)
        }
        (Workload::PaperSweep, true) => inproc::traced(&points::paper_sweep(args.seed), work),
        (Workload::SkipLong, false) => inproc::timed(&points::skip_long(args.seed), args.seconds),
        (Workload::SkipLong, true) => inproc::traced(&points::skip_long(args.seed), work),
        (Workload::ServeMix, trace) => mix::run(args.seed, args.seconds, work, trace),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}-{stamp}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("simbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let outcome = execute(&args, &work);
    let mut run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    };
    let (metrics, declared) = if args.trace {
        (run.per_layer(), &PER_LAYER[..])
    } else {
        (run.end_to_end(), &END_TO_END[..])
    };
    for problem in validate(&metrics, declared) {
        run.wrong(problem);
    }
    println!(
        "simbench: {:?} seed {} trace {}: {} attempted, {} failed, {} completed in {:.3} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.attempted,
        run.failed,
        run.completed,
        run.elapsed_s
    );
    for line in &run.notes {
        println!("simbench: {line}");
    }
    if !args.trace {
        for (what, v) in [
            ("point", &run.point_ms),
            ("hit", &run.hit_ms),
            ("miss", &run.miss_ms),
        ] {
            let tail = stats::highest_tail(v)
                .map(|(q, x)| format!(", p{} {x:.4} ms", q * 100.0))
                .unwrap_or_default();
            let q = |q| stats::quantile(v, q).unwrap_or(0.0);
            println!(
                "simbench: {what} latency: {} samples, p25 {:.4} p50 {:.4} p75 {:.4} ms{tail}",
                v.len(),
                q(0.25),
                q(0.5),
                q(0.75)
            );
        }
    }
    for m in &metrics {
        println!("simbench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_line(run.correct(), run.attempted.max(1), run.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wib_core::Json;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "skip_long",
            "--seed",
            "4",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::SkipLong,
                seed: 4,
                seconds: 20.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve_mix"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        for set in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut seen = std::collections::HashSet::new();
            for name in set {
                assert!(stats::valid_name(name), "{name}");
                assert!(seen.insert(name), "{name} twice");
            }
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), strings(&END_TO_END));
        assert_eq!(names("per_layer"), strings(&PER_LAYER));
        for w in names("workloads") {
            assert!(Workload::parse(&w).is_some(), "{w}");
        }
    }

    #[test]
    fn validate_flags_missing_and_non_finite_metrics() {
        let good = [metric("a", "s", 1.0)];
        assert!(validate(&good, &["a"]).is_empty());
        assert!(!validate(&good, &["a", "b"]).is_empty());
        assert!(!validate(&[metric("a", "s", f64::NAN)], &["a"]).is_empty());
    }
}
