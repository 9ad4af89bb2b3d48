//! Client helpers for talking to a `wib-serve` daemon — and for doing
//! the same work in-process (`--local`) so the two paths can be
//! byte-compared.
//!
//! [`submit`] (and its configurable form, [`submit_with`]) connects,
//! sends a `submit` batch, and streams events until every job has
//! reached a terminal state, writing each result document to
//! `<out>/<workload>-<digest>.json`. Jobs the daemon **sheds** under
//! overload are resubmitted on the same connection after the server's
//! `retry_after_ms` hint, up to [`SubmitOptions::retries`] times —
//! resubmission is idempotent because a job's identity is its content
//! digest, so a retry that races a completed duplicate simply hits the
//! cache. [`run_local`] resolves and runs the identical batch with no
//! daemon involved and writes files through the same code path;
//! `offline_gate.sh` diffs the two trees to prove the daemon changes
//! nothing about the simulation.
//!
//! Every helper returns [`ServeError`] instead of a bare string, and
//! every socket carries read/write timeouts so a wedged daemon surfaces
//! as [`ServeError::Stalled`] rather than a hung client.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wib_core::Json;

use crate::error::ServeError;
use crate::protocol::JobRequest;
use crate::server::{build_catalog, compute_result, resolve_job};

/// How often the event loop wakes to check timers while waiting for the
/// daemon (also the granularity of shed-retry sleeps).
const EVENT_TICK: Duration = Duration::from_millis(200);

/// Read budget for one-shot request/response ops (`ping`, `stats`).
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Read budget for `shutdown` — a drain legitimately takes as long as
/// the queued work.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(600);

/// Read budget for `cluster_stats` — the coordinator probes every
/// backend (each at its own RPC budget) before it can answer.
const CLUSTER_TIMEOUT: Duration = Duration::from_secs(60);

/// Minimum backoff before resubmitting a shed job. A shed event with a
/// missing or zero `retry_after_ms` hint must not let the client
/// hot-loop a server that is telling it to go away.
const SHED_RETRY_FLOOR_MS: u64 = 25;

/// Deterministic jitter (`0..=this`) added on top of every shed backoff
/// so a fleet of clients shed together does not re-arrive in lockstep.
const SHED_RETRY_JITTER_MS: u64 = 25;

/// Backoff before resubmitting a shed job: the server's hint floored at
/// [`SHED_RETRY_FLOOR_MS`], plus per-(job, attempt) jitter seeded from
/// those values so the schedule is reproducible.
fn shed_backoff_ms(hint: u64, job_id: u64, attempt: u32) -> u64 {
    let mut rng =
        wib_rng::StdRng::seed_from_u64(job_id ^ u64::from(attempt).wrapping_mul(0x9e37_79b9));
    hint.max(SHED_RETRY_FLOOR_MS) + rng.random_range(0..=SHED_RETRY_JITTER_MS)
}

/// Terminal state of one submitted job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Completed; `cached` says whether the daemon served it from the
    /// result cache.
    Done { cached: bool, result: Json },
    /// The simulation failed server-side (panicked, or its deadline
    /// expired).
    Error(String),
    /// Cancelled (while queued, or mid-run via its cancel token).
    Cancelled,
    /// Never accepted (unknown workload, bad spec, oversized protocol).
    Rejected(String),
    /// Refused by an overloaded daemon more times than the retry
    /// budget allowed; `retry_after_ms` is the server's last hint.
    Shed { retry_after_ms: u64 },
}

/// What became of one job in a batch.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Daemon job id (0 for rejected jobs, which never get one).
    pub job: u64,
    pub workload: String,
    /// Canonical spec (as echoed by the daemon), or the submitted text
    /// for rejected jobs.
    pub spec: String,
    /// Content-address digest (empty for rejected jobs).
    pub digest: String,
    pub status: JobStatus,
}

impl JobOutcome {
    /// True for `Done` in any form.
    pub fn succeeded(&self) -> bool {
        matches!(self.status, JobStatus::Done { .. })
    }
}

/// Knobs for [`submit_with`]. The [`Default`] matches what [`submit`]
/// uses: no protocol overrides, 8 shed-retries, 10-minute idle budget.
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Batch-level measured-instruction override.
    pub insts: Option<u64>,
    /// Batch-level warm-up override.
    pub warmup: Option<u64>,
    /// Batch-level per-job deadline (milliseconds of run wall-clock).
    pub deadline_ms: Option<u64>,
    /// Directory for result files (one per completed job).
    pub out: Option<PathBuf>,
    /// Echo lifecycle events to stderr.
    pub progress: bool,
    /// How many times one job may be resubmitted after a `shed` before
    /// it is reported as [`JobStatus::Shed`]. 0 disables retry.
    pub retries: u32,
    /// Give up ([`ServeError::Stalled`]) after this long with no bytes
    /// from the daemon while work is outstanding.
    pub idle_timeout: Duration,
}

impl Default for SubmitOptions {
    fn default() -> SubmitOptions {
        SubmitOptions {
            insts: None,
            warmup: None,
            deadline_ms: None,
            out: None,
            progress: false,
            retries: 8,
            idle_timeout: Duration::from_secs(600),
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, ServeError> {
    TcpStream::connect(addr).map_err(|e| ServeError::Connect {
        addr: addr.to_string(),
        source: e,
    })
}

fn send_line(stream: &TcpStream, line: &str) -> Result<(), ServeError> {
    let mut w = BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| ServeError::io("clone socket", e))?,
    );
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush())
        .map_err(|e| ServeError::io("send request", e))
}

/// Read the next event line into `line`, waking every [`EVENT_TICK`]
/// (the socket's read timeout) and keeping a partial line across those
/// wake-ups. Returns `Ok(false)` at EOF, and [`ServeError::Stalled`]
/// once `budget` passes with no complete line.
fn next_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    budget: Duration,
) -> Result<bool, ServeError> {
    line.clear();
    let start = Instant::now();
    loop {
        match reader.read_line(line) {
            Ok(n) => return Ok(n > 0),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let idle = start.elapsed();
                if idle >= budget {
                    return Err(ServeError::Stalled { idle });
                }
            }
            Err(e) => return Err(ServeError::io("read event", e)),
        }
    }
}

/// Build one `submit` frame for the given subset of `jobs` (identified
/// by index so retries resend the original per-job parameters).
fn submit_request(jobs: &[JobRequest], subset: &[usize], opts: &SubmitOptions) -> Json {
    let mut arr = Vec::new();
    for &i in subset {
        let j = &jobs[i];
        let mut o = Json::obj()
            .field("workload", j.workload.as_str())
            .field("spec", j.spec.as_str());
        if let Some(n) = j.insts {
            o = o.field("insts", n);
        }
        if let Some(n) = j.warmup {
            o = o.field("warmup", n);
        }
        if let Some(n) = j.deadline_ms {
            o = o.field("deadline_ms", n);
        }
        arr.push(o);
    }
    let mut req = Json::obj().field("op", "submit").field("jobs", arr);
    if let Some(n) = opts.insts {
        req = req.field("insts", n);
    }
    if let Some(n) = opts.warmup {
        req = req.field("warmup", n);
    }
    if let Some(n) = opts.deadline_ms {
        req = req.field("deadline_ms", n);
    }
    req
}

/// Write one finished job's result document under `out`, named by its
/// content address: `<workload>-<digest>.json` (pretty-printed, one
/// trailing newline). Numbers round-trip through the shortest-repr
/// float writer, so a parsed-and-rewritten document is byte-stable.
///
/// # Errors
/// Filesystem errors.
pub fn write_result_file(
    out: &Path,
    workload: &str,
    digest: &str,
    result: &Json,
) -> Result<PathBuf, ServeError> {
    std::fs::create_dir_all(out).map_err(|e| ServeError::io("create output directory", e))?;
    let path = out.join(format!("{workload}-{digest}.json"));
    std::fs::write(&path, result.pretty()).map_err(|e| ServeError::io("write result file", e))?;
    Ok(path)
}

/// A job the client has submitted and not yet seen a terminal event
/// for: original batch index plus the daemon's echo of its identity.
struct InFlight {
    orig: usize,
    workload: String,
    spec: String,
    digest: String,
}

/// [`submit_with`] using the default [`SubmitOptions`] (plus the given
/// overrides) — the signature the CLI and tests use for simple batches.
///
/// # Errors
/// Connection/protocol failures. Per-job failures are *not* errors —
/// they come back as [`JobStatus`] variants.
pub fn submit(
    addr: &str,
    jobs: &[JobRequest],
    insts: Option<u64>,
    warmup: Option<u64>,
    out: Option<&Path>,
    progress: bool,
) -> Result<Vec<JobOutcome>, ServeError> {
    submit_with(
        addr,
        jobs,
        &SubmitOptions {
            insts,
            warmup,
            out: out.map(Path::to_path_buf),
            progress,
            ..SubmitOptions::default()
        },
    )
}

/// Submit a batch to the daemon at `addr` and stream events until every
/// job is terminal, resubmitting shed jobs on the same connection after
/// the server's backoff hint. Outcomes are returned in submission
/// order.
///
/// # Errors
/// Connection/protocol failures (including [`ServeError::Stalled`] when
/// the daemon goes silent). Per-job failures come back as [`JobStatus`]
/// variants, not errors.
pub fn submit_with(
    addr: &str,
    jobs: &[JobRequest],
    opts: &SubmitOptions,
) -> Result<Vec<JobOutcome>, ServeError> {
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let stream = connect(addr)?;
    stream
        .set_read_timeout(Some(EVENT_TICK))
        .map_err(|e| ServeError::io("set read timeout", e))?;
    let _ = stream.set_write_timeout(Some(RPC_TIMEOUT));
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| ServeError::io("clone socket", e))?,
    );

    let mut slots: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut attempts = vec![0u32; jobs.len()];
    // Jobs waiting to go out in the next frame (initially: all of them).
    let mut to_send: Vec<usize> = (0..jobs.len()).collect();
    let mut retry_at = Instant::now();
    // The frame currently on the wire: original indices (for mapping the
    // daemon's frame-relative `index` fields back), jobs not yet
    // acknowledged as queued/rejected, and queued jobs not yet terminal.
    let mut frame: Vec<usize> = Vec::new();
    let mut awaiting_ack = 0usize;
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut line = String::new();

    while slots.iter().any(Option::is_none) {
        // Between frames: dispatch the next batch once its backoff is up.
        if awaiting_ack == 0 && pending.is_empty() {
            if to_send.is_empty() {
                // Defensive: nothing in flight, nothing to send, yet a
                // slot is open — a server accounting bug, not a hang.
                return Err(ServeError::Protocol(
                    "event stream ended with unaccounted jobs".to_string(),
                ));
            }
            let now = Instant::now();
            if now < retry_at {
                std::thread::sleep((retry_at - now).min(EVENT_TICK));
                continue;
            }
            frame = std::mem::take(&mut to_send);
            send_line(&stream, &submit_request(jobs, &frame, opts).to_string())?;
            awaiting_ack = frame.len();
        }
        if !next_line(&mut reader, &mut line, opts.idle_timeout)? {
            let outstanding = awaiting_ack + pending.len();
            return Err(ServeError::Server(format!(
                "server closed the connection with {outstanding} job(s) outstanding"
            )));
        }
        let ev = Json::parse(line.trim())
            .map_err(|e| ServeError::Protocol(format!("bad event line: {e}")))?;
        let kind = ev.get("event").and_then(Json::as_str).unwrap_or("");
        let job_id = ev.get("job").and_then(Json::as_u64).unwrap_or(0);
        let text = |k: &str| {
            ev.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        match kind {
            "queued" => {
                // A missing index cannot be defaulted: attributing the
                // event to frame slot 0 would cross job identities on
                // retry. Fail loudly instead.
                let Some(index) = ev.get("index").and_then(Json::as_u64) else {
                    return Err(ServeError::Protocol(
                        "queued event is missing its `index` field".to_string(),
                    ));
                };
                let Some(&orig) = frame.get(index as usize) else {
                    continue; // stray echo from a frame we do not own
                };
                let inflight = InFlight {
                    orig,
                    workload: text("workload"),
                    spec: text("spec"),
                    digest: text("digest"),
                };
                if opts.progress {
                    eprintln!(
                        "job {job_id} queued: {} [{}]",
                        inflight.workload, inflight.spec
                    );
                }
                pending.insert(job_id, inflight);
                awaiting_ack = awaiting_ack.saturating_sub(1);
            }
            "rejected" => {
                let Some(index) = ev.get("index").and_then(Json::as_u64) else {
                    return Err(ServeError::Protocol(
                        "rejected event is missing its `index` field".to_string(),
                    ));
                };
                let Some(&orig) = frame.get(index as usize) else {
                    continue;
                };
                let reason = text("reason");
                if opts.progress {
                    eprintln!("job rejected ({}): {reason}", jobs[orig].workload);
                }
                slots[orig] = Some(JobOutcome {
                    job: 0,
                    workload: jobs[orig].workload.clone(),
                    spec: jobs[orig].spec.clone(),
                    digest: String::new(),
                    status: JobStatus::Rejected(reason),
                });
                awaiting_ack = awaiting_ack.saturating_sub(1);
            }
            "shed" => {
                let Some(inflight) = pending.remove(&job_id) else {
                    continue;
                };
                let hint = ev.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0);
                if attempts[inflight.orig] < opts.retries {
                    attempts[inflight.orig] += 1;
                    let wait = shed_backoff_ms(hint, job_id, attempts[inflight.orig]);
                    if opts.progress {
                        eprintln!(
                            "job {job_id} shed ({}): retrying in {wait}ms (attempt {})",
                            inflight.workload, attempts[inflight.orig]
                        );
                    }
                    to_send.push(inflight.orig);
                    let when = Instant::now() + Duration::from_millis(wait);
                    retry_at = retry_at.max(when);
                } else {
                    if opts.progress {
                        eprintln!(
                            "job {job_id} shed ({}): retry budget exhausted",
                            inflight.workload
                        );
                    }
                    slots[inflight.orig] = Some(JobOutcome {
                        job: job_id,
                        workload: inflight.workload,
                        spec: inflight.spec,
                        digest: inflight.digest,
                        status: JobStatus::Shed {
                            retry_after_ms: hint,
                        },
                    });
                }
            }
            "running" => {
                if opts.progress {
                    eprintln!("job {job_id} running");
                }
            }
            "span" => {
                // Tracing record (precedes the terminal event): surface
                // under --progress, otherwise informational only.
                if opts.progress {
                    let stages = ev
                        .get("stages")
                        .and_then(Json::as_arr)
                        .map(|arr| {
                            arr.iter()
                                .map(|s| {
                                    format!(
                                        "{}={}us",
                                        s.get("stage").and_then(Json::as_str).unwrap_or("?"),
                                        s.get("us").and_then(Json::as_u64).unwrap_or(0)
                                    )
                                })
                                .collect::<Vec<_>>()
                                .join(" ")
                        })
                        .unwrap_or_default();
                    eprintln!(
                        "job {job_id} span {}: {stages} total={}us",
                        text("span"),
                        ev.get("total_us").and_then(Json::as_u64).unwrap_or(0)
                    );
                }
            }
            "interval" => {
                if opts.progress {
                    let sample = ev.get("sample");
                    let field = |k: &str| {
                        sample
                            .and_then(|s| s.get(k))
                            .map(Json::to_string)
                            .unwrap_or_else(|| "?".into())
                    };
                    eprintln!(
                        "job {job_id} interval @cycle {} ipc={}",
                        field("cycle"),
                        field("ipc")
                    );
                }
            }
            "done" | "error" | "cancelled" => {
                let Some(inflight) = pending.remove(&job_id) else {
                    continue; // stray event for a job we do not own
                };
                // A `hung` error is the watchdog reporting a wedged run
                // it cancelled — environmental, not deterministic, so it
                // shares the shed path's idempotent retry: resubmission
                // either hits the cache (a racing duplicate finished) or
                // re-runs cleanly on a recycled worker.
                if kind == "error"
                    && text("kind") == "hung"
                    && attempts[inflight.orig] < opts.retries
                {
                    attempts[inflight.orig] += 1;
                    let wait = shed_backoff_ms(0, job_id, attempts[inflight.orig]);
                    if opts.progress {
                        eprintln!(
                            "job {job_id} hung ({}): watchdog cancelled it; retrying in {wait}ms \
                             (attempt {})",
                            inflight.workload, attempts[inflight.orig]
                        );
                    }
                    to_send.push(inflight.orig);
                    let when = Instant::now() + Duration::from_millis(wait);
                    retry_at = retry_at.max(when);
                    continue;
                }
                let status = match kind {
                    "done" => {
                        let cached = ev.get("cached").and_then(Json::as_bool).unwrap_or(false);
                        let result = ev.get("result").cloned().unwrap_or_else(Json::obj);
                        if let Some(dir) = &opts.out {
                            write_result_file(dir, &inflight.workload, &inflight.digest, &result)?;
                        }
                        if opts.progress {
                            eprintln!("job {job_id} done{}", if cached { " (cached)" } else { "" });
                        }
                        JobStatus::Done { cached, result }
                    }
                    "error" => {
                        let msg = text("message");
                        if opts.progress {
                            eprintln!("job {job_id} failed: {msg}");
                        }
                        JobStatus::Error(msg)
                    }
                    _ => {
                        if opts.progress {
                            eprintln!("job {job_id} cancelled");
                        }
                        JobStatus::Cancelled
                    }
                };
                slots[inflight.orig] = Some(JobOutcome {
                    job: job_id,
                    workload: inflight.workload,
                    spec: inflight.spec,
                    digest: inflight.digest,
                    status,
                });
            }
            "protocol_error" => {
                return Err(ServeError::Protocol(format!(
                    "server rejected the request: {}",
                    text("message")
                )));
            }
            "shutdown" => {
                return Err(ServeError::Server("server shut down mid-batch".to_string()));
            }
            _ => {} // pong/stats/watching/cancel: not expected here, harmless
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Run the same batch entirely in-process (no daemon): identical
/// validation, identical simulation, identical result files. Used by
/// `submit --local` and the gate's byte-identity check.
///
/// # Errors
/// Filesystem errors only; per-job rejections come back as outcomes.
pub fn run_local(
    jobs: &[JobRequest],
    insts: Option<u64>,
    warmup: Option<u64>,
    tiny: bool,
    out: Option<&Path>,
    progress: bool,
) -> Result<Vec<JobOutcome>, ServeError> {
    let catalog = build_catalog(tiny);
    let scale = if tiny { "tiny" } else { "eval" };
    let defaults = crate::server::ServerOptions::default();
    let mut outcomes = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let resolved = resolve_job(
            &catalog,
            job,
            insts,
            warmup,
            defaults.default_insts,
            defaults.default_warmup,
        );
        let (name, cfg, insts, warmup) = match resolved {
            Ok(r) => r,
            Err(reason) => {
                if progress {
                    eprintln!("job rejected ({}): {reason}", job.workload);
                }
                outcomes.push(JobOutcome {
                    job: 0,
                    workload: job.workload.clone(),
                    spec: job.spec.clone(),
                    digest: String::new(),
                    status: JobStatus::Rejected(reason),
                });
                continue;
            }
        };
        let workload = &catalog[&name];
        let digest = crate::cache::ResultCache::key(&name, &cfg, insts, warmup, scale);
        if progress {
            eprintln!("job {} running locally: {name} [{}]", i + 1, cfg.to_spec());
        }
        let result = compute_result(workload, &cfg, insts, warmup, scale);
        if let Some(dir) = out {
            write_result_file(dir, &name, &digest, &result)?;
        }
        outcomes.push(JobOutcome {
            job: (i + 1) as u64,
            workload: name,
            spec: cfg.to_spec(),
            digest,
            status: JobStatus::Done {
                cached: false,
                result,
            },
        });
    }
    Ok(outcomes)
}

/// One-shot request/response helper: send `req`, return the first event
/// line parsed as JSON. Gives up ([`ServeError::Stalled`]) after
/// `budget` with no reply.
fn round_trip(addr: &str, req: &Json, budget: Duration) -> Result<Json, ServeError> {
    let stream = connect(addr)?;
    stream
        .set_read_timeout(Some(EVENT_TICK))
        .map_err(|e| ServeError::io("set read timeout", e))?;
    let _ = stream.set_write_timeout(Some(RPC_TIMEOUT));
    send_line(&stream, &req.to_string())?;
    let mut line = String::new();
    if !next_line(&mut BufReader::new(stream), &mut line, budget)? {
        return Err(ServeError::Server(
            "server closed the connection without replying".to_string(),
        ));
    }
    Json::parse(line.trim()).map_err(ServeError::Protocol)
}

/// Fetch the daemon's introspection document (`{"op":"stats"}`).
///
/// # Errors
/// Connection/protocol failures, or a reply that is not a `stats`
/// event — a health-probing caller (the coordinator's liveness policy)
/// must see a sick node's injected error as a failure, not as a
/// malformed-but-accepted document.
pub fn stats(addr: &str) -> Result<Json, ServeError> {
    let reply = round_trip(addr, &Json::obj().field("op", "stats"), RPC_TIMEOUT)?;
    match reply.get("event").and_then(Json::as_str) {
        Some("stats") => Ok(reply),
        Some("protocol_error") => Err(ServeError::Server(format!(
            "stats probe refused: {}",
            reply.get("message").and_then(Json::as_str).unwrap_or("?")
        ))),
        other => Err(ServeError::Protocol(format!(
            "unexpected stats reply: {other:?}"
        ))),
    }
}

/// Scrape the daemon's metrics registry (`{"op":"metrics"}`) and return
/// the Prometheus text exposition.
///
/// # Errors
/// Connection/protocol failures, or a reply that is not a `metrics`
/// event.
pub fn metrics(addr: &str) -> Result<String, ServeError> {
    let reply = round_trip(addr, &Json::obj().field("op", "metrics"), RPC_TIMEOUT)?;
    match reply.get("event").and_then(Json::as_str) {
        Some("metrics") => Ok(reply
            .get("text")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()),
        other => Err(ServeError::Protocol(format!(
            "unexpected metrics reply: {other:?}"
        ))),
    }
}

/// Fetch the coordinator's cluster-wide view (`{"op":"cluster_stats"}`):
/// per-node liveness and stats plus counters aggregated through one
/// merged metrics registry.
///
/// # Errors
/// Connection/protocol failures, or a reply that is not a
/// `cluster_stats` event (e.g. a backend answering a coordinator op).
pub fn cluster_stats(addr: &str) -> Result<Json, ServeError> {
    let reply = round_trip(
        addr,
        &Json::obj().field("op", "cluster_stats"),
        CLUSTER_TIMEOUT,
    )?;
    match reply.get("event").and_then(Json::as_str) {
        Some("cluster_stats") => Ok(reply),
        Some("protocol_error") => Err(ServeError::Server(format!(
            "cluster_stats refused: {}",
            reply.get("message").and_then(Json::as_str).unwrap_or("?")
        ))),
        other => Err(ServeError::Protocol(format!(
            "unexpected cluster_stats reply: {other:?}"
        ))),
    }
}

/// Ask the coordinator at `addr` to add `backend` to its hash ring
/// (`{"op":"join"}`). Returns the coordinator's confirmation event.
///
/// # Errors
/// Connection/protocol failures.
pub fn join(addr: &str, backend: &str) -> Result<Json, ServeError> {
    let req = Json::obj().field("op", "join").field("addr", backend);
    round_trip(addr, &req, RPC_TIMEOUT)
}

/// Liveness probe; returns once the daemon answers `pong`.
///
/// # Errors
/// Connection/protocol failures, or a non-pong reply.
pub fn ping(addr: &str) -> Result<(), ServeError> {
    let reply = round_trip(addr, &Json::obj().field("op", "ping"), RPC_TIMEOUT)?;
    match reply.get("event").and_then(Json::as_str) {
        Some("pong") => Ok(()),
        other => Err(ServeError::Protocol(format!(
            "unexpected ping reply: {other:?}"
        ))),
    }
}

/// Ask the daemon to shut down (`drain`: finish queued work first) and
/// wait for its confirmation event, which is returned. The read budget
/// is generous ([`SHUTDOWN_TIMEOUT`]) because a drain legitimately
/// takes as long as the work still queued.
///
/// # Errors
/// Connection/protocol failures.
pub fn shutdown(addr: &str, drain: bool) -> Result<Json, ServeError> {
    let req = Json::obj()
        .field("op", "shutdown")
        .field("mode", if drain { "drain" } else { "now" });
    round_trip(addr, &req, SHUTDOWN_TIMEOUT)
}

/// Attach as a watcher and stream every event line to `sink` until the
/// daemon shuts down (connection closes). No read timeout: silence is
/// normal for an idle daemon.
///
/// # Errors
/// Connection failures.
pub fn watch(addr: &str, sink: &mut dyn Write) -> Result<(), ServeError> {
    let stream = connect(addr)?;
    send_line(&stream, &Json::obj().field("op", "watch").to_string())?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line.map_err(|e| ServeError::io("read event", e))?;
        writeln!(sink, "{line}").map_err(|e| ServeError::io("write to sink", e))?;
        let _ = sink.flush();
    }
    Ok(())
}
