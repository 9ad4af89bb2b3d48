//! `wib-sim` — command-line front end for the WIB simulator.
//!
//! ```text
//! wib-sim list                          benchmarks and machine specs
//! wib-sim workloads                     suite table with instruction counts
//! wib-sim run <bench> [options]         simulate one benchmark
//! wib-sim compare <bench> [options]     base vs WIB side by side
//! wib-sim disasm <bench> [--limit N]    disassemble a kernel
//! wib-sim serve [options]               run the simulation daemon
//! wib-sim coord --backends a,b,...      run the sweep coordinator
//! wib-sim submit <bench[:spec]>...      send jobs to a daemon (or --local)
//! wib-sim watch / stats / shutdown      observe and control a daemon
//! wib-sim metrics / top                 scrape or live-view daemon telemetry
//! ```
//!
//! Every client command accepts `--coord H:P` to talk to a coordinator
//! instead of a single daemon — same protocol, cluster-wide semantics.

use std::process::ExitCode;
use wib_core::trace::Trace;
use wib_core::{
    EventSink, Json, MachineConfig, Processor, RunLimit, RunOptions, RunResult, TextSink,
    WibOrganization,
};
use wib_workloads::{eval_suite, test_suite, Workload};

/// Line budget for `--events` logs (~60 bytes/line, so tens of MB).
const EVENT_LOG_MAX_LINES: u64 = 1_000_000;

mod args;
mod report;
mod top;

use args::{Args, ParseError};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.wants_usage() {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:
  wib-sim list
  wib-sim workloads [--tiny]
  wib-sim run <bench> [--config <spec>] [--insts N] [--warmup N] [--tiny] [--cosim] [--stats]
                      [--cpi-stack] [--stats-json <path>] [--events <path>] [--epoch N]
  wib-sim compare <bench> [--insts N] [--warmup N] [--tiny]
  wib-sim disasm <bench> [--limit N] [--tiny]
  wib-sim trace <bench> [--config <spec>] [--limit N] [--tail] [--tiny]
  wib-sim exec <file.s> [--config <spec>] [--insts N] [--cosim] [--stats] [--cpi-stack]

simulation service (see docs/serve.md):
  wib-sim serve [--addr H:P] [--workers N] [--queue N] [--tiny] [--results-dir D]
                [--port-file F] [--insts N] [--warmup N] [--watchdog-ms N] [--quiet]
  wib-sim coord --backends H:P,H:P,... [--addr H:P] [--vnodes N] [--tiny]
                [--insts N] [--warmup N] [--port-file F] [--quiet]
                [--supervise-ms N] [--fail-threshold N]
  wib-sim submit <bench[:spec]>... [--addr H:P | --coord H:P | --local] [--config <spec>]
                 [--insts N] [--warmup N] [--deadline-ms N] [--retry N] [--out DIR]
                 [--tiny] [--progress]
  wib-sim watch [--addr H:P | --coord H:P]
  wib-sim stats [--addr H:P | --coord H:P]        (--coord prints the cluster view)
  wib-sim metrics [--addr H:P | --coord H:P]      (--coord merges every node)
  wib-sim top [--addr H:P | --coord H:P] [--interval-ms N] [--iters N] [--plain]
  wib-sim shutdown [--addr H:P | --coord H:P] [--now]

observability:
  --cpi-stack          print the commit-slot CPI stack (categories sum to cycles)
  --stats-json <path>  write the full statistics (CPI stack, interval series, ...) as JSON
  --events <path>      write a pipeview-style pipeline event log
  --epoch N            interval time-series sample period in cycles (default 10000)

machine specs for --config:
  base            the paper's Table 1 base machine (default)
  wib2k           32-entry issue queues + 2K-entry banked WIB
  wib:<N>         WIB machine with an N-entry window (128..2048)
  conv:<N>        conventional machine with an N-entry issue queue
  pool:<S>x<B>    pool-of-blocks WIB, B blocks of S slots
  nonbanked:<L>   non-banked WIB with an L-cycle access
plus the full canonical grammar, including the backend axis:
  base,backend=runahead[,rathresh=N]
  wib:w=<N>,backend=delay_track[,dtthresh=N]"
}

fn run(argv: &[String]) -> Result<(), ParseError> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "list" => cmd_list(),
        "workloads" => cmd_workloads(&args),
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "disasm" => cmd_disasm(&args),
        "trace" => cmd_trace(&args),
        "exec" => cmd_exec(&args),
        "serve" => cmd_serve(&args),
        "coord" => cmd_coord(&args),
        "submit" => cmd_submit(&args),
        "watch" => cmd_watch(&args),
        "stats" => cmd_serve_stats(&args),
        "metrics" => cmd_metrics(&args),
        "top" => cmd_top(&args),
        "shutdown" => cmd_shutdown(&args),
        other => Err(ParseError::new(format!("unknown command `{other}`"))),
    }
}

fn find_workload(name: &str, tiny: bool) -> Result<Workload, ParseError> {
    let pool = if tiny { test_suite() } else { eval_suite() };
    pool.into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| ParseError::new(format!("unknown benchmark `{name}` (try `wib-sim list`)")))
}

fn parse_config(spec: &str) -> Result<MachineConfig, ParseError> {
    // Shorthands first; anything they don't fully match falls through to
    // the canonical grammar (`wib:w=2048,backend=delay_track` starts with
    // `wib:` but is not a shorthand).
    if spec == "base" {
        return Ok(MachineConfig::base_8way());
    }
    if spec == "wib2k" {
        return Ok(MachineConfig::wib_2k());
    }
    if let Some(n) = spec.strip_prefix("wib:").and_then(|n| n.parse().ok()) {
        return Ok(MachineConfig::wib_sized(n));
    }
    if let Some(n) = spec.strip_prefix("conv:").and_then(|n| n.parse().ok()) {
        return Ok(MachineConfig::conventional(n));
    }
    if let Some((slots, blocks)) = spec
        .strip_prefix("pool:")
        .and_then(|rest| rest.split_once('x'))
        .and_then(|(s, b)| Some((s.parse().ok()?, b.parse().ok()?)))
    {
        return Ok(MachineConfig::wib_pool(slots, blocks));
    }
    if let Some(latency) = spec.strip_prefix("nonbanked:").and_then(|l| l.parse().ok()) {
        return Ok(
            MachineConfig::wib_2k().with_wib_organization(WibOrganization::NonBanked { latency })
        );
    }
    // Canonical grammar last: full specs like `base,backend=runahead` or
    // `wib:w=512,backend=delay_track,dtthresh=24`.
    MachineConfig::from_spec(spec).map_err(ParseError::new)
}

fn cmd_list() -> Result<(), ParseError> {
    println!("benchmarks (use --tiny for miniature test instances):");
    for w in eval_suite() {
        println!("  {:<10} [{}]", w.name(), w.suite());
    }
    println!(
        "\nmachine specs: base, wib2k, wib:<N>, conv:<N>, pool:<S>x<B>, nonbanked:<L>, \
         or any canonical spec (e.g. base,backend=runahead; \
         wib:w=2048,backend=delay_track)"
    );
    Ok(())
}

fn cmd_workloads(args: &Args) -> Result<(), ParseError> {
    let suite = if args.flag("tiny") {
        test_suite()
    } else {
        eval_suite()
    };
    print!("{}", wib_workloads::table(&suite));
    Ok(())
}

/// Default daemon address for `serve`/`submit`/`watch`/`stats`/`shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:7431";

/// Default bind address for the coordinator (one below the daemon's, so
/// both run side by side on one host out of the box).
const DEFAULT_COORD_ADDR: &str = "127.0.0.1:7430";

fn addr_of(args: &Args) -> String {
    args.option("addr").unwrap_or_else(|| DEFAULT_ADDR.into())
}

/// Where a client command should connect: `--coord H:P` wins over
/// `--addr H:P` — the coordinator speaks the same protocol, so every
/// client path works against either.
fn target_addr(args: &Args) -> String {
    args.option("coord").unwrap_or_else(|| addr_of(args))
}

fn cmd_serve(args: &Args) -> Result<(), ParseError> {
    let mut opts = wib_serve::ServerOptions::default();
    opts.addr = addr_of(args);
    opts.workers = args.number("workers", 0)? as usize;
    opts.queue_capacity = args.number("queue", opts.queue_capacity as u64)? as usize;
    opts.tiny = args.flag("tiny");
    if let Some(dir) = args.option("results-dir") {
        opts.results_dir = Some(dir.into());
    }
    opts.default_insts = args.number("insts", opts.default_insts)?;
    opts.default_warmup = args.number("warmup", opts.default_warmup)?;
    opts.quiet = args.flag("quiet");
    if let Some(path) = args.option("port-file") {
        opts.port_file = Some(path.into());
    }
    // 0 disables the hung-job watchdog; absent keeps the WIB_WATCHDOG_MS
    // default resolved by ServerOptions::default().
    if args.option("watchdog-ms").is_some() {
        opts.watchdog_ms = Some(args.number("watchdog-ms", 0)?).filter(|&ms| ms > 0);
    }
    wib_serve::server::run(opts).map_err(|e| ParseError::runtime(format!("serve: {e}")))
}

fn cmd_coord(args: &Args) -> Result<(), ParseError> {
    let backends: Vec<String> = args
        .option("backends")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|b| !b.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    if backends.is_empty() {
        return Err(ParseError::new(
            "coord needs --backends H:P,H:P,... (at least one backend daemon)",
        ));
    }
    let mut opts = wib_serve::CoordOptions::default();
    opts.addr = args
        .option("addr")
        .unwrap_or_else(|| DEFAULT_COORD_ADDR.into());
    opts.backends = backends;
    opts.vnodes = args.number("vnodes", opts.vnodes as u64)? as usize;
    opts.tiny = args.flag("tiny");
    opts.default_insts = args.number("insts", opts.default_insts)?;
    opts.default_warmup = args.number("warmup", opts.default_warmup)?;
    opts.quiet = args.flag("quiet");
    if let Some(path) = args.option("port-file") {
        opts.port_file = Some(path.into());
    }
    opts.supervise_ms = args.number("supervise-ms", opts.supervise_ms)?;
    opts.fail_threshold = args.number("fail-threshold", u64::from(opts.fail_threshold))? as u32;
    wib_serve::coord::run(opts).map_err(|e| ParseError::runtime(format!("coord: {e}")))
}

/// `--insts` / `--warmup` as optional overrides (absent means "let the
/// daemon's defaults decide").
fn optional_number(args: &Args, key: &str) -> Result<Option<u64>, ParseError> {
    match args.option(key) {
        None => Ok(None),
        Some(_) => Ok(Some(args.number(key, 0)?)),
    }
}

fn cmd_submit(args: &Args) -> Result<(), ParseError> {
    let default_spec = args.option("config").unwrap_or_else(|| "base".into());
    let jobs: Vec<wib_serve::JobRequest> = args
        .rest(1)
        .iter()
        .map(|item| {
            // `bench:spec` — the spec itself may contain `:` (wib:w=256),
            // so split at the first colon only.
            let (bench, spec) = match item.split_once(':') {
                Some((b, s)) => (b.to_string(), s.to_string()),
                None => (item.clone(), default_spec.clone()),
            };
            wib_serve::JobRequest {
                workload: bench,
                spec,
                insts: None,
                warmup: None,
                deadline_ms: None,
            }
        })
        .collect();
    if jobs.is_empty() {
        return Err(ParseError::new(
            "submit needs at least one <bench[:spec]> job",
        ));
    }
    let insts = optional_number(args, "insts")?;
    let warmup = optional_number(args, "warmup")?;
    let out = args.option("out").map(std::path::PathBuf::from);
    let progress = args.flag("progress");
    let outcomes = if args.flag("local") {
        wib_serve::client::run_local(
            &jobs,
            insts,
            warmup,
            args.flag("tiny"),
            out.as_deref(),
            progress,
        )
        .map_err(String::from)
    } else {
        let opts = wib_serve::SubmitOptions {
            insts,
            warmup,
            deadline_ms: optional_number(args, "deadline-ms")?,
            out,
            progress,
            retries: args.number("retry", 8)? as u32,
            ..wib_serve::SubmitOptions::default()
        };
        wib_serve::client::submit_with(&target_addr(args), &jobs, &opts).map_err(String::from)
    }
    .map_err(ParseError::runtime)?;
    let mut failures = 0;
    for o in &outcomes {
        match &o.status {
            wib_serve::JobStatus::Done { cached, result } => {
                let ipc = result
                    .get("ipc")
                    .map(|j| j.to_string())
                    .unwrap_or_else(|| "?".into());
                println!(
                    "{:<12} {:<24} done{}  ipc={ipc}  [{}]",
                    o.workload,
                    o.spec,
                    if *cached { " (cached)" } else { "" },
                    o.digest
                );
            }
            wib_serve::JobStatus::Error(msg) => {
                failures += 1;
                println!("{:<12} {:<24} ERROR: {msg}", o.workload, o.spec);
            }
            wib_serve::JobStatus::Cancelled => {
                failures += 1;
                println!("{:<12} {:<24} cancelled", o.workload, o.spec);
            }
            wib_serve::JobStatus::Rejected(reason) => {
                failures += 1;
                println!("{:<12} {:<24} rejected: {reason}", o.workload, o.spec);
            }
            wib_serve::JobStatus::Shed { retry_after_ms } => {
                failures += 1;
                println!(
                    "{:<12} {:<24} shed by overloaded server (retry budget exhausted; \
                     last hint {retry_after_ms}ms)",
                    o.workload, o.spec
                );
            }
        }
    }
    if failures > 0 {
        return Err(ParseError::runtime(format!(
            "{failures} of {} job(s) did not complete",
            outcomes.len()
        )));
    }
    Ok(())
}

fn cmd_watch(args: &Args) -> Result<(), ParseError> {
    let mut stdout = std::io::stdout();
    wib_serve::client::watch(&target_addr(args), &mut stdout).map_err(ParseError::runtime)
}

fn cmd_serve_stats(args: &Args) -> Result<(), ParseError> {
    // Against a coordinator, show the cluster-wide aggregated view;
    // against a daemon, its own snapshot.
    let doc = if args.option("coord").is_some() {
        wib_serve::client::cluster_stats(&target_addr(args)).map_err(ParseError::runtime)?
    } else {
        wib_serve::client::stats(&addr_of(args)).map_err(ParseError::runtime)?
    };
    print!("{}", doc.pretty());
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), ParseError> {
    let text = wib_serve::client::metrics(&target_addr(args)).map_err(ParseError::runtime)?;
    print!("{text}");
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), ParseError> {
    let interval_ms = args.number("interval-ms", 1000)?;
    let iters = optional_number(args, "iters")?;
    top::run(&target_addr(args), interval_ms, iters, args.flag("plain"))
        .map_err(ParseError::runtime)
}

fn cmd_shutdown(args: &Args) -> Result<(), ParseError> {
    let reply = wib_serve::client::shutdown(&target_addr(args), !args.flag("now"))
        .map_err(ParseError::runtime)?;
    println!("{reply}");
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), ParseError> {
    let bench = args.positional(1, "benchmark name")?;
    let workload = find_workload(&bench, args.flag("tiny"))?;
    let spec = args.option("config").unwrap_or_else(|| "base".into());
    let mut cfg = parse_config(&spec)?;
    if args.option("epoch").is_some() {
        let epoch = args.number("epoch", 0)?;
        if epoch == 0 {
            return Err(ParseError::new("--epoch must be at least 1 cycle"));
        }
        cfg = cfg.with_stats_epoch(epoch);
    }
    let mut processor = Processor::new(cfg);
    if args.flag("cosim") {
        processor.enable_cosim();
    }
    let insts = args.number("insts", 200_000)?;
    let warmup = args.number("warmup", 200_000)?;
    let mut events = args
        .option("events")
        .map(|path| (path, TextSink::new(EVENT_LOG_MAX_LINES)));
    let start = std::time::Instant::now();
    let result = processor.run(
        workload.program(),
        RunOptions {
            warmup,
            limit: RunLimit::instructions(insts),
            sink: events.as_mut().map(|(_, sink)| sink as &mut dyn EventSink),
        },
    );
    if let Some((path, sink)) = events {
        write_file(&path, &sink.into_text())?;
    }
    let wall = start.elapsed().as_secs_f64();
    report::summary(workload.name(), &result, wall);
    if args.flag("stats") {
        report::detail(&result);
    }
    if args.flag("cpi-stack") {
        report::cpi_stack(&result);
    }
    if let Some(path) = args.option("stats-json") {
        write_stats_json(&path, workload.name(), &spec, insts, warmup, &result, wall)?;
    }
    Ok(())
}

fn write_file(path: &str, contents: &str) -> Result<(), ParseError> {
    std::fs::write(path, contents)
        .map_err(|e| ParseError::new(format!("cannot write `{path}`: {e}")))
}

/// Compose and write the `wib-sim/run-v1` JSON document.
#[allow(clippy::too_many_arguments)]
fn write_stats_json(
    path: &str,
    bench: &str,
    spec: &str,
    insts: u64,
    warmup: u64,
    result: &RunResult,
    wall: f64,
) -> Result<(), ParseError> {
    let doc = Json::obj()
        .field("schema", "wib-sim/run-v1")
        .field("benchmark", bench)
        .field("config", spec)
        .field("insts", insts)
        .field("warmup", warmup)
        .field("halted", result.halted)
        .field("ipc", result.ipc())
        .field("wall_seconds", wall)
        .field(
            "sim_minsts_per_s",
            result.stats.committed as f64 / wall / 1e6,
        )
        .field("stats", result.stats.to_json());
    write_file(path, &doc.pretty())
}

fn cmd_compare(args: &Args) -> Result<(), ParseError> {
    let bench = args.positional(1, "benchmark name")?;
    let workload = find_workload(&bench, args.flag("tiny"))?;
    let insts = args.number("insts", 200_000)?;
    let warmup = args.number("warmup", 200_000)?;
    let limit = RunLimit::instructions(insts);
    println!(
        "{}: base vs WIB ({insts} instructions after {warmup} warm-up)\n",
        workload.name()
    );
    let base = Processor::new(MachineConfig::base_8way()).run_program_warmed(
        workload.program(),
        warmup,
        limit,
    );
    let wib = Processor::new(MachineConfig::wib_2k()).run_program_warmed(
        workload.program(),
        warmup,
        limit,
    );
    report::compare(&base, &wib);
    Ok(())
}

fn cmd_exec(args: &Args) -> Result<(), ParseError> {
    let path = args.positional(1, "assembly file")?;
    let source = std::fs::read_to_string(&path)
        .map_err(|e| ParseError::new(format!("cannot read `{path}`: {e}")))?;
    let program = wib_isa::text::parse_program(&source)
        .map_err(|e| ParseError::new(format!("{path}: {e}")))?;
    let spec = args.option("config").unwrap_or_else(|| "base".into());
    let cfg = parse_config(&spec)?;
    let mut processor = Processor::new(cfg);
    if args.flag("cosim") {
        processor.enable_cosim();
    }
    let insts = args.number("insts", 1_000_000)?;
    let start = std::time::Instant::now();
    let result = processor.run(&program, RunLimit::instructions(insts).into());
    let wall = start.elapsed().as_secs_f64();
    report::summary(&path, &result, wall);
    if args.flag("stats") {
        report::detail(&result);
    }
    if args.flag("cpi-stack") {
        report::cpi_stack(&result);
    }
    if let Some(out) = args.option("stats-json") {
        write_stats_json(&out, &path, &spec, insts, 0, &result, wall)?;
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ParseError> {
    let bench = args.positional(1, "benchmark name")?;
    let workload = find_workload(&bench, args.flag("tiny"))?;
    let cfg = parse_config(&args.option("config").unwrap_or_else(|| "wib2k".into()))?;
    let limit = args.number("limit", 48)? as usize;
    let insts = args.number("insts", (limit as u64).max(1_000))?;
    let mut trace = if args.flag("tail") {
        Trace::new_tail(limit)
    } else {
        Trace::new(limit)
    };
    let result = Processor::new(cfg).run(
        workload.program(),
        RunOptions {
            sink: Some(&mut trace),
            ..RunLimit::instructions(insts).into()
        },
    );
    println!(
        "{}: {} {} committed instructions (IPC {:.3}); columns are cycles:",
        workload.name(),
        if args.flag("tail") { "last" } else { "first" },
        trace.len(),
        result.ipc()
    );
    print!("{trace}");
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), ParseError> {
    let bench = args.positional(1, "benchmark name")?;
    let workload = find_workload(&bench, args.flag("tiny"))?;
    let limit = args.number("limit", 64)? as usize;
    let program = workload.program();
    println!(
        "{}: {} instructions, {} bytes of initialized data, entry {:#x}",
        workload.name(),
        program.len(),
        program.data_bytes(),
        program.entry
    );
    for (addr, text) in program.disassemble().into_iter().take(limit) {
        println!("  {addr:#010x}: {text}");
    }
    if program.len() > limit {
        println!("  ... ({} more; use --limit)", program.len() - limit);
    }
    Ok(())
}
