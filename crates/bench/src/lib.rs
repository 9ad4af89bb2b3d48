//! Shared infrastructure for the experiment harnesses that regenerate the
//! paper's tables and figures.
//!
//! Every harness binary (`table1`, `table2`, `fig1`, `fig4`, `fig5`,
//! `fig6`, `fig7`, `policies`, `sensitivity`) uses [`Runner`] to execute
//! the 18-kernel suite on a set of machine configurations and prints an
//! aligned text table of IPCs / speedups, with the paper's reported
//! numbers alongside where applicable.
//!
//! Environment knobs:
//! - `WIB_WARMUP`: fast-forward instructions before detailed simulation
//!   (default 200,000; the paper skips 400M).
//! - `WIB_INSTS`: detailed instructions per run (default 200,000; the
//!   paper measures 100M).
//! - `WIB_QUICK=1`: 20k/20k smoke-test mode (used by integration tests).
//! - `WIB_THREADS`: sweep worker threads (default: available parallelism;
//!   `1` forces the serial path). Results are merged in input order, so
//!   output is identical for any thread count.

use wib_core::{Json, MachineConfig, Processor, RunLimit, RunOptions, RunResult};
use wib_workloads::{Suite, Workload};

pub mod fuzz;
pub mod parallel;
pub mod timer;

/// Executes workloads under a consistent warm-up/measurement protocol.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    /// Instructions fast-forwarded on the reference interpreter.
    pub warmup: u64,
    /// Instructions measured in detail.
    pub insts: u64,
}

impl Runner {
    /// Read the protocol from the environment (see module docs).
    pub fn from_env() -> Runner {
        let get = |k: &str, d: u64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        if std::env::var("WIB_QUICK").is_ok() {
            return Runner {
                warmup: 20_000,
                insts: 20_000,
            };
        }
        Runner {
            warmup: get("WIB_WARMUP", 200_000),
            insts: get("WIB_INSTS", 200_000),
        }
    }

    /// Run one workload on one machine.
    pub fn run(&self, cfg: &MachineConfig, w: &Workload) -> RunResult {
        Processor::new(cfg.clone()).run(
            w.program(),
            RunOptions {
                warmup: self.warmup,
                ..RunLimit::instructions(self.insts).into()
            },
        )
    }
}

/// Arithmetic mean.
pub fn amean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Harmonic mean (the paper reports HM of IPCs in Table 2).
pub fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        0.0
    } else {
        xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
    }
}

/// One measured row: a workload's IPC under every configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// IPC per configuration, in the order the configs were given.
    pub ipcs: Vec<f64>,
    /// Full run results (for harnesses that need more statistics).
    pub results: Vec<RunResult>,
}

/// Run `workloads` x `configs` and collect IPC rows. Points are fanned
/// across `WIB_THREADS` scoped workers (one independent `Processor` per
/// run) and reassembled in input order, so the rows — and any JSON
/// derived from them — are identical to a serial sweep. A line per run is
/// printed to stderr so long sweeps are watchable (line *order* follows
/// completion and may interleave across threads).
pub fn sweep(
    runner: &Runner,
    configs: &[(&str, MachineConfig)],
    workloads: &[Workload],
) -> Vec<Row> {
    let points: Vec<(usize, usize)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| (0..configs.len()).map(move |ci| (wi, ci)))
        .collect();
    let names = |_: usize, &(wi, ci): &(usize, usize)| {
        format!("{}/{}", configs[ci].0, workloads[wi].name())
    };
    let results = parallel::parallel_map_named(&points, names, |_, &(wi, ci)| {
        let (cname, cfg) = &configs[ci];
        let w = &workloads[wi];
        let t = std::time::Instant::now();
        let r = runner.run(cfg, w);
        eprintln!(
            "  [{}] {} ipc={:.3} ({:.1}s)",
            cname,
            w.name(),
            r.ipc(),
            t.elapsed().as_secs_f64()
        );
        r
    });
    let mut results = results.into_iter();
    workloads
        .iter()
        .map(|w| {
            let results: Vec<RunResult> = (0..configs.len())
                .map(|_| results.next().expect("one result per point"))
                .collect();
            let ipcs = results.iter().map(RunResult::ipc).collect();
            Row {
                name: w.name().to_string(),
                suite: w.suite(),
                ipcs,
                results,
            }
        })
        .collect()
}

/// Print a per-benchmark speedup table (each config's IPC over the first
/// config's), followed by per-suite arithmetic-mean speedups — the layout
/// of the paper's bar charts.
pub fn print_speedups(title: &str, config_names: &[&str], rows: &[Row]) {
    println!("\n== {title} ==");
    print!("{:>12}", "benchmark");
    for c in &config_names[1..] {
        print!(" {c:>12}");
    }
    println!();
    for row in rows {
        print!("{:>12}", row.name);
        for i in 1..row.ipcs.len() {
            print!(" {:>12.3}", row.ipcs[i] / row.ipcs[0]);
        }
        println!();
    }
    for suite in [Suite::Int, Suite::Fp, Suite::Olden] {
        let members: Vec<&Row> = rows.iter().filter(|r| r.suite == suite).collect();
        if members.is_empty() {
            continue;
        }
        print!("{:>12}", format!("avg {suite}"));
        for i in 1..config_names.len() {
            let speedups: Vec<f64> = members.iter().map(|r| r.ipcs[i] / r.ipcs[0]).collect();
            print!(" {:>12.3}", amean(&speedups));
        }
        println!();
    }
}

/// Render per-suite average speedups as an ASCII bar chart (the shape of
/// the paper's figures). Bars are scaled to the largest value shown.
pub fn print_suite_bars(config_names: &[&str], rows: &[Row]) {
    let suites = [Suite::Int, Suite::Fp, Suite::Olden];
    let mut values: Vec<(String, f64)> = Vec::new();
    for suite in suites {
        for (i, name) in config_names.iter().enumerate().skip(1) {
            let speedups: Vec<f64> = rows
                .iter()
                .filter(|r| r.suite == suite)
                .map(|r| r.ipcs[i] / r.ipcs[0])
                .collect();
            values.push((format!("{suite} / {name}"), amean(&speedups)));
        }
    }
    let max = values.iter().map(|(_, v)| *v).fold(1.0, f64::max);
    println!("\nsuite-average speedup over {}:", config_names[0]);
    for (label, v) in values {
        let width = ((v / max) * 48.0).round().max(0.0) as usize;
        println!("  {label:<24} {:<48} {v:.2}", "#".repeat(width));
    }
}

/// Machine-readable form of an experiment's sweep: one record per
/// benchmark with per-configuration IPC, cycles, committed instructions
/// and the CPI stack, plus speedups over the first configuration.
pub fn rows_to_json(experiment: &str, runner: &Runner, names: &[&str], rows: &[Row]) -> Json {
    let mut out = Vec::new();
    for row in rows {
        let mut per_config = Json::obj();
        for (i, name) in names.iter().enumerate() {
            let r = &row.results[i];
            per_config.set(
                name,
                Json::obj()
                    .field("ipc", r.ipc())
                    .field("cycles", r.stats.cycles)
                    .field("committed", r.stats.committed)
                    .field("cpi_stack", r.stats.cpi.to_json()),
            );
        }
        let mut speedups = Json::obj();
        for (i, name) in names.iter().enumerate().skip(1) {
            speedups.set(name, row.ipcs[i] / row.ipcs[0]);
        }
        out.push(
            Json::obj()
                .field("benchmark", row.name.as_str())
                .field("suite", row.suite.to_string())
                .field("configs", per_config)
                .field("speedup", speedups),
        );
    }
    Json::obj()
        .field("schema", "wib-sim/experiment-v1")
        .field("experiment", experiment)
        .field("warmup", runner.warmup)
        .field("insts", runner.insts)
        .field("rows", out)
}

/// Write an experiment's sweep as `$WIB_RESULTS_DIR/<experiment>.json`.
/// A silent no-op when `WIB_RESULTS_DIR` is unset, so the text harnesses
/// behave exactly as before unless the experiment driver opts in. The
/// directory (and any missing parents) is created on first write, so
/// pointing the variable at a fresh path just works.
pub fn emit_results_json(experiment: &str, runner: &Runner, names: &[&str], rows: &[Row]) {
    let Ok(dir) = std::env::var("WIB_RESULTS_DIR") else {
        return;
    };
    let doc = rows_to_json(experiment, runner, names, rows);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("  warning: cannot create {dir}: {e}");
        return;
    }
    let path = format!("{dir}/{experiment}.json");
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  warning: cannot write {path}: {e}"),
    }
}

/// Per-suite average speedups of config `idx` relative to config 0.
pub fn suite_speedups(rows: &[Row], idx: usize) -> [(Suite, f64); 3] {
    let mut out = [(Suite::Int, 0.0), (Suite::Fp, 0.0), (Suite::Olden, 0.0)];
    for (suite, avg) in &mut out {
        let s: Vec<f64> = rows
            .iter()
            .filter(|r| r.suite == *suite)
            .map(|r| r.ipcs[idx] / r.ipcs[0])
            .collect();
        *avg = amean(&s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((hmean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((hmean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        // HM is dominated by the small value.
        assert!(hmean(&[0.1, 10.0]) < 0.2);
        assert_eq!(hmean(&[]), 0.0);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn env_defaults() {
        let r = Runner {
            warmup: 1,
            insts: 2,
        };
        assert_eq!((r.warmup, r.insts), (1, 2));
        let r = Runner::from_env();
        assert!(r.insts > 0 && r.warmup > 0);
    }
}
