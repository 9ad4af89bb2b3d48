//! The simulation daemon.
//!
//! Connections are served by the shared NDJSON front end
//! (`front.rs`): one reader and one writer thread per connection,
//! with workers streaming event lines into per-connection channels so
//! they never contend on socket I/O. This module supplies the daemon's
//! own ops (`submit`, `cancel`, `stats`, `metrics`). Jobs flow
//! through a [`BoundedQueue`] into a persistent worker pool sized like
//! the sweep harnesses' pool (`WIB_THREADS` /
//! [`wib_bench::parallel::worker_threads`]); every worker owns its
//! `Processor` per job, exactly as in `parallel_map_named`, so results
//! are bit-identical to in-process runs.
//!
//! # Failure containment
//!
//! The daemon assumes any individual job, connection, or disk write can
//! fail and none of them may take the service down:
//!
//! * every simulation runs under `catch_unwind`; a panic becomes a
//!   terminal `error` event carrying the job's spec digest, and the
//!   worker moves on to the next job. A panic *outside* that shield
//!   (bookkeeping bugs) recycles the whole worker thread, up to
//!   [`MAX_WORKER_RESTARTS`] times.
//! * jobs may carry a `deadline_ms`; the engine polls a cooperative
//!   [`CancelToken`] once per stats epoch, so an expired or cancelled
//!   *running* job terminates within one epoch.
//! * a full queue **sheds** the submission (terminal `shed` event with a
//!   jittered, escalating `retry_after_ms`) instead of blocking the
//!   connection thread.
//! * all of the above injection points are drivable deterministically
//!   via `WIB_FAULTS` (see [`crate::fault`]).
//!
//! Shutdown (`{"op":"shutdown"}`) is a drain: the queue closes, workers
//! finish what is queued (or skip it, in `"now"` mode — which also trips
//! the cancel token of every running job), the accept loop is woken and
//! exits, every connection thread is joined, and only then does the
//! requesting client receive its `shutdown` event — the daemon leaks no
//! threads.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use wib_bench::parallel::worker_threads;
use wib_bench::Runner;
use wib_core::{
    CancelToken, Counter, Gauge, HistogramMetric, Json, MachineConfig, Processor, Registry,
    RunLimit, RunResult, StageProfile, STAGE_COUNT, STAGE_NAMES,
};
use wib_workloads::{eval_suite, test_suite, Workload};

use crate::cache::ResultCache;
use crate::fault::FaultPlan;
use crate::front::{self, Front, Role, Service};
use crate::journal::{Journal, JournalEntry};
use crate::protocol::{self, JobRequest, Request, MAX_INSTS};
use crate::queue::{BoundedQueue, TryPushError};

/// Interval events streamed per job before truncation (the full series
/// is always in the result document; streaming is a progress feed).
const MAX_STREAMED_INTERVALS: usize = 64;

/// How many times a worker thread is restarted after a panic that
/// escaped per-job isolation before the daemon gives up on that slot.
/// High enough to never matter in practice, low enough to stop a
/// pathological panic loop from spinning forever.
const MAX_WORKER_RESTARTS: u64 = 1000;

/// Shed-backoff shape: base delay, doubling per consecutive shed, cap,
/// plus jitter in `[0, SHED_JITTER_MS]`.
const SHED_BASE_MS: u64 = 25;
const SHED_CAP_MS: u64 = 2000;
const SHED_JITTER_MS: u64 = 25;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker pool size (0 = the sweep pool default, `WIB_THREADS`).
    pub workers: usize,
    /// Bounded job-queue capacity (the overload-shedding threshold).
    pub queue_capacity: usize,
    /// Serve the miniature test suite instead of the eval suite.
    pub tiny: bool,
    /// Root for result-cache persistence (`<dir>/cache/*.json`).
    pub results_dir: Option<PathBuf>,
    /// Default measured instructions when a job names none.
    pub default_insts: u64,
    /// Default warm-up instructions when a job names none.
    pub default_warmup: u64,
    /// Suppress stderr logging.
    pub quiet: bool,
    /// File to write the bound address into once listening (for
    /// scripts driving an ephemeral port).
    pub port_file: Option<PathBuf>,
    /// Fault-injection spec (see [`crate::fault`]); falls back to the
    /// `WIB_FAULTS` environment variable when `None`.
    pub faults: Option<String>,
    /// Hung-job watchdog: a running job whose engine heartbeat freezes
    /// for this many milliseconds is cancelled and reported as a
    /// structured `hung` error (the client's idempotent retry then
    /// resubmits it). `None` disables the watchdog.
    pub watchdog_ms: Option<u64>,
}

impl Default for ServerOptions {
    /// Loopback ephemeral port, pool-sized workers, protocol defaults
    /// from the environment (`WIB_INSTS`/`WIB_WARMUP`/`WIB_QUICK`),
    /// persistence from `WIB_RESULTS_DIR`, faults from `WIB_FAULTS`.
    fn default() -> ServerOptions {
        let runner = Runner::from_env();
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 1024,
            tiny: false,
            results_dir: std::env::var_os("WIB_RESULTS_DIR").map(PathBuf::from),
            default_insts: runner.insts,
            default_warmup: runner.warmup,
            quiet: false,
            port_file: None,
            faults: None,
            watchdog_ms: std::env::var("WIB_WATCHDOG_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&ms| ms > 0),
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "error",
            JobState::Cancelled => "cancelled",
        }
    }
}

struct Job {
    workload: String,
    key: String,
    cfg: MachineConfig,
    insts: u64,
    warmup: u64,
    /// Tracing span id minted at submit; every event of this job's
    /// `span` record carries it.
    span: String,
    /// Queue-entry timestamp: the zero point of the span's stage marks.
    queued_at: Instant,
    /// Wall-clock budget, armed when a worker picks the job up.
    deadline_ms: Option<u64>,
    state: JobState,
    cancelled: bool,
    /// Set by the watchdog just before it trips the token: the worker
    /// reads it to tell a hung cancellation apart from a client one.
    hung: bool,
    /// Engine heartbeat ticks last observed by the watchdog, and when
    /// they last changed. Initialized at pickup, under the jobs lock.
    progress_seen: u64,
    progress_at: Instant,
    /// Present while the job is running: tripping it stops the engine at
    /// the next epoch boundary. Created under the jobs lock at pickup,
    /// so a cancel request can never race past it.
    token: Option<CancelToken>,
    /// Event channel back to the submitting connection; dropped at the
    /// terminal event so writer threads can exit.
    sender: Option<Sender<String>>,
}

/// RAII decrement of the busy-worker gauge; `Drop` keeps it accurate
/// even if job bookkeeping panics.
struct BusyGuard<'a>(&'a AtomicUsize);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How one job attempt ended (internal to the worker).
enum Outcome {
    Done {
        doc: Json,
        cached: bool,
    },
    Cancelled,
    /// The watchdog cancelled a wedged run. A distinct arm (not
    /// `Failed`) because the terminal event carries `kind: "hung"`,
    /// which clients treat as retryable.
    Hung,
    Failed(String),
}

/// Registry-backed telemetry: scrape-time gauges, the job latency
/// histograms, and the engine self-profiling rollup. The job outcome
/// counters live directly on [`Shared`] as [`Counter`] handles — the
/// same cells feed `stats_json` and the exposition.
struct Telemetry {
    registry: Registry,
    started: Instant,
    queue_depth: Gauge,
    queue_capacity: Gauge,
    busy_workers: Gauge,
    worker_count: Gauge,
    watcher_count: Gauge,
    uptime_ms: Gauge,
    /// Microseconds from queue entry to worker pickup.
    queue_wait_us: HistogramMetric,
    /// Microseconds simulating (cache misses only).
    run_us: HistogramMetric,
    /// Microseconds spent in the cache lookup on a hit.
    cache_hit_us: HistogramMetric,
    /// Engine stage-profile rollup across every simulated job.
    profiled_cycles: Counter,
    stage_ns: [Counter; STAGE_COUNT],
}

impl Telemetry {
    fn new(registry: Registry) -> Telemetry {
        Telemetry {
            started: Instant::now(),
            queue_depth: registry.gauge(
                "wib_serve_queue_depth",
                "Jobs waiting in the bounded queue.",
            ),
            queue_capacity: registry.gauge(
                "wib_serve_queue_capacity",
                "Bounded queue capacity (the shed threshold).",
            ),
            busy_workers: registry.gauge(
                "wib_serve_busy_workers",
                "Workers currently executing a job.",
            ),
            worker_count: registry.gauge("wib_serve_workers", "Worker pool size."),
            watcher_count: registry.gauge(
                "wib_serve_watchers",
                "Connections subscribed to all job events.",
            ),
            uptime_ms: registry.gauge(
                "wib_serve_uptime_ms",
                "Milliseconds since the daemon started.",
            ),
            queue_wait_us: registry.histogram(
                "wib_serve_queue_wait_us",
                "Microseconds from queue entry to worker pickup.",
            ),
            run_us: registry.histogram(
                "wib_serve_run_us",
                "Microseconds spent simulating (cache misses only).",
            ),
            cache_hit_us: registry.histogram(
                "wib_serve_cache_hit_us",
                "Microseconds spent in the result-cache lookup on a hit.",
            ),
            profiled_cycles: registry.counter(
                "wib_engine_profiled_cycles_total",
                "Engine cycles stage-timed by the sampling profiler.",
            ),
            stage_ns: std::array::from_fn(|i| {
                registry.counter_with(
                    "wib_engine_stage_ns_total",
                    "Sampled engine wall-clock nanoseconds by pipeline stage.",
                    &[("stage", STAGE_NAMES[i])],
                )
            }),
            registry,
        }
    }

    /// The per-(workload, outcome) end-to-end latency histogram,
    /// registered on first use (terminal events only — never hot).
    fn job_us(&self, workload: &str, outcome: &'static str) -> HistogramMetric {
        self.registry.histogram_with(
            "wib_serve_job_us",
            "End-to-end job latency in microseconds (queue entry to terminal event).",
            &[("workload", workload), ("outcome", outcome)],
        )
    }

    /// Fold one run's engine stage profile into the daemon-wide rollup.
    fn record_engine_profile(&self, p: &StageProfile) {
        if p.sampled_cycles == 0 {
            return;
        }
        self.profiled_cycles.add(p.sampled_cycles);
        for (counter, &ns) in self.stage_ns.iter().zip(p.stage_ns.iter()) {
            counter.add(ns);
        }
    }
}

/// Microseconds elapsed since `t`. Span stage marks all come from this
/// one clock, so adjacent-mark differences telescope exactly to the
/// final mark.
fn us_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

struct Shared {
    opts: ServerOptions,
    catalog: HashMap<String, Workload>,
    scale: &'static str,
    cache: ResultCache,
    faults: Arc<FaultPlan>,
    /// Write-ahead job journal; present when `results_dir` is set.
    journal: Option<Journal>,
    queue: BoundedQueue<u64>,
    jobs: Mutex<HashMap<u64, Job>>,
    next_job: AtomicU64,
    busy: AtomicUsize,
    workers: usize,
    telemetry: Telemetry,
    submitted: Counter,
    completed: Counter,
    errors: Counter,
    cancelled: Counter,
    panicked: Counter,
    deadline_expired: Counter,
    shed: Counter,
    /// Consecutive sheds with no accepted enqueue in between; drives the
    /// escalating `retry_after_ms` hint (backoff state, not a metric).
    shed_streak: AtomicU64,
    worker_restarts: Counter,
    /// Running jobs cancelled by the hung-job watchdog.
    watchdog_hangs: Counter,
    /// Tells the watchdog thread the worker pool has drained.
    watchdog_stop: AtomicBool,
    front: Front,
}

impl Shared {
    /// Jobs-map lock, tolerant of poisoning: a panicking worker must
    /// not wedge every other worker and connection forever. Panics in
    /// this file never happen while the map is mid-mutation (single
    /// field writes), so the recovered state is consistent.
    fn lock_jobs(&self) -> MutexGuard<'_, HashMap<u64, Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The introspection snapshot (`{"op":"stats"}`).
    fn stats_json(&self) -> Json {
        Json::obj()
            .field("event", "stats")
            .field("schema", "wib-serve/stats-v1")
            .field("addr", self.front.bound().to_string())
            .field("version", env!("CARGO_PKG_VERSION"))
            .field(
                "uptime_ms",
                self.telemetry.started.elapsed().as_millis() as u64,
            )
            .field("scale", self.scale)
            .field("workers", self.workers)
            .field("busy_workers", self.busy.load(Ordering::Relaxed))
            .field("queue_depth", self.queue.len())
            .field("queue_capacity", self.opts.queue_capacity)
            .field("draining", self.front.is_shutting_down())
            .field("submitted", self.submitted.get())
            .field("completed", self.completed.get())
            .field("errors", self.errors.get())
            .field("cancelled", self.cancelled.get())
            .field("panicked", self.panicked.get())
            .field("deadline_expired", self.deadline_expired.get())
            .field("shed", self.shed.get())
            .field("worker_restarts", self.worker_restarts.get())
            .field("watchdog_hangs", self.watchdog_hangs.get())
            .field(
                "journal_live",
                self.journal.as_ref().map_or(0, Journal::live),
            )
            .field(
                "journal_replayed",
                self.journal.as_ref().map_or(0, Journal::replayed),
            )
            .field("watchers", self.front.watcher_count())
            .field("cache", self.cache.stats().to_json())
    }

    /// The Prometheus text exposition (`{"op":"metrics"}`): refresh the
    /// scrape-time gauges, then render the registry.
    fn metrics_text(&self) -> String {
        let t = &self.telemetry;
        t.queue_depth.set(self.queue.len() as u64);
        t.queue_capacity.set(self.opts.queue_capacity as u64);
        t.busy_workers.set(self.busy.load(Ordering::Relaxed) as u64);
        t.worker_count.set(self.workers as u64);
        t.watcher_count.set(self.front.watcher_count() as u64);
        t.uptime_ms.set(t.started.elapsed().as_millis() as u64);
        t.registry.render()
    }

    /// The `retry_after_ms` hint for the `n`-th consecutive shed:
    /// exponential from [`SHED_BASE_MS`], capped at [`SHED_CAP_MS`],
    /// plus deterministic jitter so a herd of shed clients does not
    /// retry in lockstep.
    fn retry_after_ms(&self, streak: u64) -> u64 {
        let base = (SHED_BASE_MS << streak.saturating_sub(1).min(6)).min(SHED_CAP_MS);
        base + self.faults.jitter_ms(streak, SHED_JITTER_MS)
    }

    /// Journal a job's terminal outcome (no-op without a journal).
    fn journal_finished(&self, id: u64, outcome: &str) {
        if let Some(j) = &self.journal {
            j.finished(id, outcome);
        }
    }

    /// Flip into shutdown: in non-drain mode flag every queued job
    /// cancelled and trip every running job's token first, then close
    /// the queue and wake the accept loop.
    fn begin_shutdown(&self, drain: bool) {
        self.front.begin_shutdown(|| {
            self.front.log(if drain {
                "shutdown requested (drain)"
            } else {
                "shutdown requested (now)"
            });
            if !drain {
                let mut jobs = self.lock_jobs();
                for job in jobs.values_mut() {
                    match job.state {
                        JobState::Queued => job.cancelled = true,
                        JobState::Running => {
                            if let Some(t) = &job.token {
                                t.cancel();
                            }
                        }
                        _ => {}
                    }
                }
            }
            self.queue.close();
        });
    }

    /// The `cancel` op: flag a queued job, or trip a running job's
    /// token. Returns the `cancel` reply.
    fn cancel(&self, job: u64) -> Json {
        let (ok, state) = {
            let mut jobs = self.lock_jobs();
            match jobs.get_mut(&job) {
                Some(j) if j.state == JobState::Queued && !j.cancelled => {
                    j.cancelled = true;
                    (true, "queued")
                }
                Some(j) if j.state == JobState::Running => match &j.token {
                    Some(t) => {
                        // The engine observes this at its next epoch
                        // boundary; the worker then publishes the
                        // terminal `cancelled` event.
                        t.cancel();
                        (true, "running")
                    }
                    None => (false, "running"),
                },
                Some(j) => (false, j.state.name()),
                None => (false, "unknown"),
            }
        };
        Json::obj()
            .field("event", "cancel")
            .field("job", job)
            .field("ok", ok)
            .field("state", state)
    }
}

/// A running daemon spawned with [`spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics registry (shared handles — a coordinator can
    /// merge it into a fleet-wide registry).
    pub fn registry(&self) -> Registry {
        self.shared.telemetry.registry.clone()
    }

    /// Request shutdown locally (equivalent to the `shutdown` op).
    pub fn shutdown(&self, drain: bool) {
        self.shared.begin_shutdown(drain);
    }

    /// Block until the daemon has fully stopped (all threads joined).
    pub fn join(self) {
        self.thread.join().expect("server thread panicked");
    }
}

/// Build the deterministic result document for one completed run.
///
/// Everything in here is a pure function of the job identity — no wall
/// clock, no hostname — which is what makes daemon results byte-
/// comparable with local runs and cacheable by content address.
pub fn result_doc(
    workload: &Workload,
    cfg: &MachineConfig,
    insts: u64,
    warmup: u64,
    scale: &str,
    r: &RunResult,
) -> Json {
    Json::obj()
        .field("schema", "wib-serve/result-v1")
        .field("workload", workload.name())
        .field("suite", workload.suite().to_string())
        .field("scale", scale)
        .field("spec", cfg.to_spec())
        .field(
            "digest",
            ResultCache::key(workload.name(), cfg, insts, warmup, scale),
        )
        .field("insts", insts)
        .field("warmup", warmup)
        .field("halted", r.halted)
        .field("ipc", r.ipc())
        .field("stats", r.stats.to_json())
}

/// Run one job in-process and return its result document — the exact
/// computation a daemon worker performs on a cache miss. The `submit
/// --local` client path uses this for byte-identical comparisons.
pub fn compute_result(
    workload: &Workload,
    cfg: &MachineConfig,
    insts: u64,
    warmup: u64,
    scale: &str,
) -> Json {
    simulate(workload, cfg, insts, warmup, scale, None).0
}

/// Simulate one job and render its result document, stopping early if
/// `token` trips. Shared by [`compute_result`] and the daemon's workers.
fn simulate(
    workload: &Workload,
    cfg: &MachineConfig,
    insts: u64,
    warmup: u64,
    scale: &str,
    token: Option<&CancelToken>,
) -> (Json, RunResult) {
    let mut proc = Processor::new(cfg.clone());
    if let Some(token) = token {
        proc.set_cancel_token(token.clone());
    }
    let r = proc.run_program_warmed(workload.program(), warmup, RunLimit::instructions(insts));
    (result_doc(workload, cfg, insts, warmup, scale, &r), r)
}

/// Validate one submitted job against a workload catalog and resolve its
/// protocol parameters. Returns `(workload name, config, insts, warmup)`.
///
/// # Errors
/// A reason string suitable for a `rejected` event.
pub fn resolve_job(
    catalog: &HashMap<String, Workload>,
    job: &JobRequest,
    batch_insts: Option<u64>,
    batch_warmup: Option<u64>,
    default_insts: u64,
    default_warmup: u64,
) -> Result<(String, MachineConfig, u64, u64), String> {
    if !catalog.contains_key(&job.workload) {
        return Err(format!(
            "unknown workload {:?} (see `wib-sim workloads`)",
            job.workload
        ));
    }
    let cfg = protocol::parse_machine_spec(&job.spec)?;
    let insts = job.insts.or(batch_insts).unwrap_or(default_insts);
    let warmup = job.warmup.or(batch_warmup).unwrap_or(default_warmup);
    if insts == 0 {
        return Err("insts must be at least 1".to_string());
    }
    if insts > MAX_INSTS || warmup > MAX_INSTS {
        return Err(format!("insts/warmup capped at {MAX_INSTS}"));
    }
    Ok((job.workload.clone(), cfg, insts, warmup))
}

/// The workload catalog a daemon serves (name -> built program).
pub fn build_catalog(tiny: bool) -> HashMap<String, Workload> {
    let suite = if tiny { test_suite() } else { eval_suite() };
    suite
        .into_iter()
        .map(|w| (w.name().to_string(), w))
        .collect()
}

/// Bind and start a daemon in background threads.
///
/// # Errors
/// Socket binding / port-file errors, or a malformed fault spec
/// (`InvalidInput` naming the bad clause).
pub fn spawn(opts: ServerOptions) -> std::io::Result<ServerHandle> {
    let fault_spec = opts
        .faults
        .clone()
        .or_else(|| std::env::var("WIB_FAULTS").ok());
    let faults = match &fault_spec {
        Some(spec) => Arc::new(
            FaultPlan::parse(spec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
        ),
        None => Arc::new(FaultPlan::none()),
    };
    let listener = TcpListener::bind(&opts.addr)?;
    let bound = listener.local_addr()?;
    if let Some(path) = &opts.port_file {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, format!("{bound}\n"))?;
    }
    let workers = if opts.workers == 0 {
        worker_threads()
    } else {
        opts.workers
    };
    let registry = Registry::new();
    // Open the journal before anything can accept work: incomplete jobs
    // from a crashed predecessor are re-queued below, ahead of any new
    // submission.
    let (journal, replayed) = match &opts.results_dir {
        Some(dir) => {
            let (j, replayed) = Journal::open(dir, &registry)?;
            (Some(j), replayed)
        }
        None => (None, Vec::new()),
    };
    let shared = Arc::new(Shared {
        catalog: build_catalog(opts.tiny),
        scale: if opts.tiny { "tiny" } else { "eval" },
        cache: ResultCache::with_metrics(opts.results_dir.clone(), Arc::clone(&faults), &registry),
        journal,
        queue: BoundedQueue::new(opts.queue_capacity),
        jobs: Mutex::new(HashMap::new()),
        next_job: AtomicU64::new(1),
        busy: AtomicUsize::new(0),
        workers,
        submitted: registry.counter(
            "wib_serve_jobs_submitted_total",
            "Jobs accepted into the queue.",
        ),
        completed: registry.counter(
            "wib_serve_jobs_completed_total",
            "Jobs finished successfully (including cache hits).",
        ),
        errors: registry.counter(
            "wib_serve_jobs_failed_total",
            "Jobs that ended in a terminal error.",
        ),
        cancelled: registry.counter(
            "wib_serve_jobs_cancelled_total",
            "Jobs cancelled while queued or running.",
        ),
        panicked: registry.counter(
            "wib_serve_job_panics_total",
            "Simulations that panicked inside per-job isolation.",
        ),
        deadline_expired: registry.counter(
            "wib_serve_deadline_expirations_total",
            "Jobs whose wall-clock deadline expired mid-run.",
        ),
        shed: registry.counter(
            "wib_serve_jobs_shed_total",
            "Submissions refused because the queue was full.",
        ),
        shed_streak: AtomicU64::new(0),
        worker_restarts: registry.counter(
            "wib_serve_worker_restarts_total",
            "Worker threads recycled after an escaped panic.",
        ),
        watchdog_hangs: registry.counter(
            "wib_serve_watchdog_hangs_total",
            "Running jobs cancelled by the hung-job watchdog.",
        ),
        watchdog_stop: AtomicBool::new(false),
        telemetry: Telemetry::new(registry),
        front: Front::new(Role::Daemon, bound, opts.quiet, Arc::clone(&faults)),
        faults,
        opts,
    });
    shared.front.log(&format!(
        "listening on {bound} ({} workers, {} catalog programs, {} suite)",
        workers,
        shared.catalog.len(),
        shared.scale
    ));
    if shared.faults.is_active() {
        shared.front.log(&format!(
            "fault injection ARMED: {}",
            fault_spec.as_deref().unwrap_or("")
        ));
    }
    if !replayed.is_empty() {
        requeue_replayed(&shared, replayed);
    }
    let run_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("wib-serve-accept".to_string())
        .spawn(move || run_loop(run_shared, listener))?;
    Ok(ServerHandle {
        addr: bound,
        thread,
        shared,
    })
}

/// Bind and run a daemon on the calling thread (the CLI `serve` path).
/// Prints the listening address to stdout so callers on ephemeral ports
/// can find it. Returns after a client-requested shutdown completes.
///
/// # Errors
/// Socket binding / port-file errors.
pub fn run(opts: ServerOptions) -> std::io::Result<()> {
    let handle = spawn(opts)?;
    println!("wib-serve listening on {}", handle.addr());
    // Line-buffered stdout under a pipe would hold this back forever.
    std::io::stdout().flush()?;
    handle.join();
    Ok(())
}

fn run_loop(shared: Arc<Shared>, listener: TcpListener) {
    let watchdog_handle = shared.opts.watchdog_ms.map(|ms| {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("wib-serve-watchdog".to_string())
            .spawn(move || watchdog_loop(&shared, ms))
            .expect("spawn watchdog")
    });
    let worker_handles: Vec<_> = (0..shared.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("wib-serve-worker-{i}"))
                .spawn(move || {
                    // Recycle loop: per-job panics are absorbed inside
                    // `worker_loop`; anything that still escapes (a
                    // bookkeeping bug) restarts the slot instead of
                    // silently shrinking the pool.
                    loop {
                        if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_ok() {
                            break; // queue drained: normal exit
                        }
                        let n = shared.worker_restarts.inc_and_get();
                        shared.front.log(&format!(
                            "worker {i} panicked outside job isolation; recycling (restart {n})"
                        ));
                        if n >= MAX_WORKER_RESTARTS {
                            shared
                                .front
                                .log(&format!("worker {i} exceeded restart budget; retiring"));
                            break;
                        }
                    }
                })
                .expect("spawn worker")
        })
        .collect();
    let conns = front::accept(&shared, listener);
    for h in worker_handles {
        h.join().expect("worker thread panicked");
    }
    shared.watchdog_stop.store(true, Ordering::Relaxed);
    if let Some(h) = watchdog_handle {
        h.join().expect("watchdog thread panicked");
    }
    front::close(&*shared, conns);
    shared.front.log("stopped");
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        run_one_job(shared, id);
    }
}

/// The hung-job watchdog: periodically compare each running job's
/// engine heartbeat ([`CancelToken::progress`]) against the last scan.
/// A job whose ticks have not moved for `watchdog_ms` is wedged —
/// inside one epoch, a stuck syscall, an injected `hang` fault — and
/// gets its token tripped. The worker then reports a structured `hung`
/// error the client treats as retryable, and picks up the next job.
fn watchdog_loop(shared: &Shared, watchdog_ms: u64) {
    let tick = Duration::from_millis((watchdog_ms / 4).clamp(10, 500));
    let budget = Duration::from_millis(watchdog_ms);
    while !shared.watchdog_stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        let now = Instant::now();
        let mut tripped = Vec::new();
        {
            let mut jobs = shared.lock_jobs();
            for (&id, job) in jobs.iter_mut() {
                if job.state != JobState::Running || job.hung {
                    continue;
                }
                let Some(token) = &job.token else { continue };
                let ticks = token.progress();
                if ticks != job.progress_seen {
                    job.progress_seen = ticks;
                    job.progress_at = now;
                } else if now.duration_since(job.progress_at) >= budget {
                    job.hung = true;
                    token.cancel();
                    tripped.push(id);
                }
            }
        }
        for id in tripped {
            shared.watchdog_hangs.inc();
            shared.front.log(&format!(
                "watchdog: job {id} made no engine progress for {watchdog_ms}ms; cancelling"
            ));
        }
    }
}

/// Execute one dequeued job end to end: pickup (arming its cancel
/// token), panic-shielded simulation, terminal bookkeeping, span record,
/// terminal event.
///
/// Span stage marks are µs offsets from the job's queue entry, all read
/// from one monotonic clock: `queue` ends at pickup, `cache` at the
/// cache lookup, `run` at simulation end (misses only), `finish` at the
/// span's emission. Adjacent-mark differences therefore sum *exactly*
/// to `total_us`.
fn run_one_job(shared: &Shared, id: u64) {
    let picked = {
        let mut jobs = shared.lock_jobs();
        let Some(job) = jobs.get_mut(&id) else {
            return; // unknown id: nothing to do
        };
        if job.cancelled {
            job.state = JobState::Cancelled;
            Err((
                job.sender.take(),
                job.span.clone(),
                job.queued_at,
                job.workload.clone(),
            ))
        } else {
            job.state = JobState::Running;
            let token = match job.deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            job.token = Some(token.clone());
            // Zero point for the watchdog: "no progress" is measured
            // from pickup, never from queue time.
            job.progress_seen = token.progress();
            job.progress_at = Instant::now();
            Ok((
                job.sender.clone(),
                job.workload.clone(),
                job.cfg.clone(),
                job.insts,
                job.warmup,
                job.key.clone(),
                token,
                job.span.clone(),
                job.queued_at,
            ))
        }
    };
    let (tx, workload_name, cfg, insts, warmup, key, token, span, queued_at) = match picked {
        Err((tx, span, queued_at, workload)) => {
            // Cancelled while queued: the whole life was the queue wait.
            let queue_us = us_since(queued_at);
            shared.cancelled.inc();
            shared.telemetry.queue_wait_us.observe(queue_us);
            shared
                .telemetry
                .job_us(&workload, "cancelled")
                .observe(queue_us);
            shared.front.publish(
                tx.as_ref(),
                &protocol::ev_span(
                    id,
                    &span,
                    &workload,
                    "cancelled",
                    &[("queue", queue_us)],
                    queue_us,
                ),
            );
            shared
                .front
                .publish(tx.as_ref(), &protocol::ev_cancelled(id));
            shared.journal_finished(id, "cancelled");
            return;
        }
        Ok(p) => p,
    };
    shared.busy.fetch_add(1, Ordering::Relaxed);
    let _busy = BusyGuard(&shared.busy);
    if let Some(journal) = &shared.journal {
        journal.started(id);
    }
    shared.front.publish(tx.as_ref(), &protocol::ev_running(id));
    if shared.faults.next_execution_dies() {
        // Node-death fault: take the whole process down — no unwind, no
        // drain, no farewell. The coordinator sees exactly what a
        // kill -9 or kernel panic looks like: a dead TCP peer mid-job.
        // Only ever armed on daemons running as their own process.
        eprintln!("wib-serve: injected fault: node death on job {id}");
        std::process::abort();
    }
    let queue_mark = us_since(queued_at);
    let cached_doc = shared.cache.get(&key);
    let lookup_mark = us_since(queued_at);
    // Parse up front: a cached entry that somehow fails to parse is
    // dropped and recomputed rather than trusted (or allowed to panic
    // the worker outside job isolation).
    let cached_json = cached_doc.and_then(|doc| match Json::parse(&doc) {
        Ok(parsed) => Some(parsed),
        Err(e) => {
            shared.front.log(&format!(
                "cached document for {key} failed to parse ({e}); recomputing"
            ));
            None
        }
    });
    let mut ran = false;
    let outcome = if let Some(doc) = cached_json {
        shared
            .telemetry
            .cache_hit_us
            .observe(lookup_mark - queue_mark);
        Outcome::Done { doc, cached: true }
    } else if let Some(workload) = shared.catalog.get(&workload_name) {
        ran = true;
        let sim = catch_unwind(AssertUnwindSafe(|| {
            if shared.faults.next_sim_panics() {
                panic!("injected fault: worker panic");
            }
            if shared.faults.next_sim_hangs() {
                // A wedged simulation: no heartbeat, no progress, no
                // return — until something (the watchdog, a client
                // cancel, a deadline) trips the token. The engine then
                // starts with an already-tripped token and returns
                // `cancelled` at its first poll.
                shared
                    .front
                    .log(&format!("injected fault: job {id} hanging"));
                while !token.should_stop() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            simulate(workload, &cfg, insts, warmup, shared.scale, Some(&token))
        }));
        // Engine self-profiling rides every completed simulation,
        // cancelled or not (host telemetry, never part of the result).
        if let Ok((_, r)) = &sim {
            shared.telemetry.record_engine_profile(&r.profile);
        }
        let hung = shared.lock_jobs().get(&id).is_some_and(|j| j.hung);
        match sim {
            // The watchdog tripped the token on a frozen heartbeat:
            // report a retryable `hung` error, not a plain cancel.
            Ok((_, r)) if r.cancelled && hung => Outcome::Hung,
            // A cancelled run carries partial statistics: never cache
            // or publish its document.
            Ok((_, r)) if r.cancelled && token.is_cancelled() => Outcome::Cancelled,
            Ok((_, r)) if r.cancelled => {
                shared.deadline_expired.inc();
                let ms = shared.lock_jobs().get(&id).and_then(|j| j.deadline_ms);
                Outcome::Failed(format!("deadline of {}ms expired mid-run", ms.unwrap_or(0)))
            }
            Ok((doc, r)) => {
                for sample in r.stats.intervals.iter().take(MAX_STREAMED_INTERVALS) {
                    shared
                        .front
                        .publish(tx.as_ref(), &protocol::ev_interval(id, sample));
                }
                shared.cache.put(&key, doc.to_string());
                Outcome::Done { doc, cached: false }
            }
            Err(panic) => {
                shared.panicked.inc();
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Outcome::Failed(format!("simulation panicked: {msg}"))
            }
        }
    } else {
        Outcome::Failed(format!("workload {workload_name:?} vanished from catalog"))
    };
    let run_mark = us_since(queued_at);
    {
        let mut jobs = shared.lock_jobs();
        if let Some(job) = jobs.get_mut(&id) {
            job.sender = None;
            job.token = None;
            job.state = match outcome {
                Outcome::Done { .. } => JobState::Done,
                Outcome::Cancelled => JobState::Cancelled,
                Outcome::Hung | Outcome::Failed(_) => JobState::Failed,
            };
        }
    }
    // Latency rollups and the span record, just before the terminal
    // event (a client sees the span first, then the outcome it explains).
    let outcome_name = match &outcome {
        Outcome::Done { .. } => "done",
        Outcome::Cancelled => "cancelled",
        Outcome::Hung => "hung",
        Outcome::Failed(_) => "error",
    };
    let finish_mark = us_since(queued_at);
    let mut stages: Vec<(&'static str, u64)> =
        vec![("queue", queue_mark), ("cache", lookup_mark - queue_mark)];
    if ran {
        stages.push(("run", run_mark - lookup_mark));
        stages.push(("finish", finish_mark - run_mark));
    } else {
        stages.push(("finish", finish_mark - lookup_mark));
    }
    shared.telemetry.queue_wait_us.observe(queue_mark);
    if ran {
        shared.telemetry.run_us.observe(run_mark - lookup_mark);
    }
    shared
        .telemetry
        .job_us(&workload_name, outcome_name)
        .observe(finish_mark);
    shared.front.publish(
        tx.as_ref(),
        &protocol::ev_span(
            id,
            &span,
            &workload_name,
            outcome_name,
            &stages,
            finish_mark,
        ),
    );
    match outcome {
        Outcome::Done { doc, cached } => {
            shared.completed.inc();
            shared.front.log(&format!(
                "job {id} {workload_name} done{}",
                if cached { " (cached)" } else { "" }
            ));
            shared
                .front
                .publish(tx.as_ref(), &protocol::ev_done(id, cached, doc));
        }
        Outcome::Cancelled => {
            shared.cancelled.inc();
            shared
                .front
                .log(&format!("job {id} {workload_name} cancelled mid-run"));
            shared
                .front
                .publish(tx.as_ref(), &protocol::ev_cancelled(id));
        }
        Outcome::Hung => {
            shared.errors.inc();
            shared.front.log(&format!(
                "job {id} {workload_name} hung: watchdog cancelled it; worker recycled"
            ));
            shared.front.publish(
                tx.as_ref(),
                &protocol::ev_hung(id, &key, "watchdog: no engine progress; job cancelled"),
            );
        }
        Outcome::Failed(msg) => {
            shared.errors.inc();
            shared
                .front
                .log(&format!("job {id} {workload_name} failed: {msg}"));
            shared
                .front
                .publish(tx.as_ref(), &protocol::ev_error(id, &key, &msg));
        }
    }
    shared.journal_finished(id, outcome_name);
}

impl Service for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// The `sick` fault makes this node answer health probes (ping,
    /// stats, metrics — everything a coordinator uses to judge liveness)
    /// with an error, while job traffic is untouched: an intermittently
    /// sick-but-working backend, the exact case the coordinator's
    /// K-failure policy and rejoin supervisor exist for.
    fn screen(&self, request: &Request) -> Result<(), String> {
        if matches!(request, Request::Ping | Request::Stats | Request::Metrics)
            && self.faults.next_probe_fails()
        {
            self.front
                .log("injected fault: sick node, failing health probe");
            return Err("injected fault: sick node".to_string());
        }
        Ok(())
    }

    fn handle(&self, tx: &Sender<String>, request: Request) {
        let reply = |ev: Json| {
            let _ = tx.send(ev.to_string());
        };
        match request {
            Request::Stats => reply(self.stats_json()),
            Request::Metrics => reply(protocol::ev_metrics(&self.metrics_text())),
            Request::Cancel { job } => reply(self.cancel(job)),
            Request::Submit {
                jobs,
                insts,
                warmup,
                deadline_ms,
            } => submit_batch(self, tx, &jobs, insts, warmup, deadline_ms),
            // Answered by the front end.
            Request::Ping
            | Request::Watch
            | Request::Shutdown { .. }
            | Request::Join { .. }
            | Request::ClusterStats => {}
        }
    }

    fn shutdown(&self, drain: bool) {
        self.begin_shutdown(drain);
    }

    fn farewell(&self) -> Json {
        protocol::ev_shutdown(
            self.completed.get(),
            self.errors.get(),
            self.cancelled.get(),
        )
    }
}

fn submit_batch(
    shared: &Shared,
    tx: &Sender<String>,
    jobs: &[JobRequest],
    batch_insts: Option<u64>,
    batch_warmup: Option<u64>,
    batch_deadline: Option<u64>,
) {
    for (index, job) in jobs.iter().enumerate() {
        if shared.front.is_shutting_down() {
            let _ = tx.send(
                protocol::ev_rejected(index, &job.workload, "server is shutting down").to_string(),
            );
            continue;
        }
        let resolved = resolve_job(
            &shared.catalog,
            job,
            batch_insts,
            batch_warmup,
            shared.opts.default_insts,
            shared.opts.default_warmup,
        );
        let (workload, cfg, insts, warmup) = match resolved {
            Ok(r) => r,
            Err(reason) => {
                let _ = tx.send(protocol::ev_rejected(index, &job.workload, &reason).to_string());
                continue;
            }
        };
        let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
        let spec = cfg.to_spec();
        let key = ResultCache::key(&workload, &cfg, insts, warmup, shared.scale);
        // The span id is unique per submission *attempt* (a resubmit of
        // the same job identity gets a fresh span): job id plus the
        // daemon's monotonic clock. Never part of the result document.
        let span = format!("{id:x}.{:x}", shared.telemetry.started.elapsed().as_nanos());
        let deadline_ms = job.deadline_ms.or(batch_deadline);
        shared.lock_jobs().insert(
            id,
            Job {
                workload: workload.clone(),
                key: key.clone(),
                cfg,
                insts,
                warmup,
                span: span.clone(),
                queued_at: Instant::now(),
                deadline_ms,
                state: JobState::Queued,
                cancelled: false,
                hung: false,
                progress_seen: 0,
                progress_at: Instant::now(),
                token: None,
                sender: Some(tx.clone()),
            },
        );
        // The durability point: the accepted record is fsync'd before
        // the client sees `queued`. If the push is then refused, the
        // journal gets the matching terminal record so a restart does
        // not replay a job the client was told to retry.
        if let Some(journal) = &shared.journal {
            journal.accept(&JournalEntry {
                id,
                digest: key.clone(),
                workload: workload.clone(),
                spec: spec.clone(),
                insts,
                warmup,
                deadline_ms,
            });
        }
        // `queued` goes out before the enqueue so no worker can emit
        // `running` first; if the push is then refused, the terminal
        // `shed` event (same job id) retracts it.
        shared.front.publish(
            Some(tx),
            &protocol::ev_queued(id, index, &workload, &spec, &key, &span),
        );
        let refused = if shared.faults.next_enqueue_sheds() {
            Err(TryPushError::Full) // injected overload
        } else {
            shared.queue.try_push(id)
        };
        match refused {
            Ok(()) => {
                shared.submitted.inc();
                shared.shed_streak.store(0, Ordering::Relaxed);
            }
            Err(TryPushError::Full) => {
                shared.lock_jobs().remove(&id);
                shared.journal_finished(id, "shed");
                shared.shed.inc();
                let streak = shared.shed_streak.fetch_add(1, Ordering::Relaxed) + 1;
                let retry_after = shared.retry_after_ms(streak);
                shared.front.log(&format!(
                    "queue full: shed job {id} {workload} (retry in {retry_after}ms)"
                ));
                shared
                    .front
                    .publish(Some(tx), &protocol::ev_shed(id, &workload, retry_after));
            }
            Err(TryPushError::Closed) => {
                shared.lock_jobs().remove(&id);
                shared.journal_finished(id, "rejected");
                let _ = tx.send(
                    protocol::ev_rejected(index, &workload, "server is shutting down").to_string(),
                );
            }
        }
    }
}

/// Re-enqueue jobs recovered from the journal at startup: each entry is
/// re-accepted under a fresh id through the normal journaling path,
/// with no client connection attached — watchers still see the full
/// event lifecycle, and the result lands in the cache where the
/// resubmitting client's retry finds it.
fn requeue_replayed(shared: &Shared, entries: Vec<JournalEntry>) {
    let count = entries.len();
    shared.front.log(&format!(
        "journal replay: re-queueing {count} incomplete job(s)"
    ));
    for entry in entries {
        let Ok(cfg) = MachineConfig::from_spec(&entry.spec) else {
            shared.front.log(&format!(
                "journal replay: dropping job with unparseable spec {:?}",
                entry.spec
            ));
            continue;
        };
        if !shared.catalog.contains_key(&entry.workload) {
            shared.front.log(&format!(
                "journal replay: dropping job for unknown workload {:?}",
                entry.workload
            ));
            continue;
        }
        let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
        let span = format!("{id:x}.{:x}", shared.telemetry.started.elapsed().as_nanos());
        shared.lock_jobs().insert(
            id,
            Job {
                workload: entry.workload.clone(),
                key: entry.digest.clone(),
                cfg,
                insts: entry.insts,
                warmup: entry.warmup,
                span: span.clone(),
                queued_at: Instant::now(),
                deadline_ms: entry.deadline_ms,
                state: JobState::Queued,
                cancelled: false,
                hung: false,
                progress_seen: 0,
                progress_at: Instant::now(),
                token: None,
                sender: None,
            },
        );
        if let Some(journal) = &shared.journal {
            journal.accept(&JournalEntry {
                id,
                ..entry.clone()
            });
        }
        shared.front.publish(
            None,
            &protocol::ev_queued(id, 0, &entry.workload, &entry.spec, &entry.digest, &span),
        );
        match shared.queue.try_push(id) {
            Ok(()) => {
                shared.submitted.inc();
            }
            Err(_) => {
                // A replay bigger than the queue: beyond-capacity jobs
                // are dropped (journaled as such) rather than blocking
                // startup — the client's own retry still covers them.
                shared.lock_jobs().remove(&id);
                shared.journal_finished(id, "dropped");
                shared
                    .front
                    .log(&format!("journal replay: queue full, dropped job {id}"));
            }
        }
    }
}
