//! The NDJSON wire protocol.
//!
//! Every frame — request or event — is one JSON object on one line
//! (`\n`-terminated, no raw newlines inside thanks to the writer's
//! escaping). Requests carry an `"op"` discriminator, events an
//! `"event"` discriminator. See `docs/serve.md` for the full grammar.
//!
//! Requests:
//!
//! ```text
//! {"op":"submit","jobs":[{"workload":"gcc","spec":"wib:w=2048"},...],
//!  "insts":200000,"warmup":200000,          batch defaults optional;
//!  "deadline_ms":60000}                     per-job fields override
//! {"op":"stats"}                            introspection snapshot
//! {"op":"metrics"}                          Prometheus text exposition
//! {"op":"cancel","job":7}                   cancel a queued or running job
//! {"op":"watch"}                            subscribe to all job events
//! {"op":"shutdown","mode":"drain"|"now"}    graceful stop (default drain)
//! {"op":"ping"}                             liveness probe
//! {"op":"join","addr":"h:p"}                add a backend (coordinator)
//! {"op":"cluster_stats"}                    cluster view (coordinator)
//! ```
//!
//! Machine specs accept both the canonical [`MachineConfig::to_spec`]
//! grammar (`base`, `conv:iq=256`, `wib:w=2048,org=ideal,...`) and the
//! CLI shorthands (`wib2k`, `wib:512`, `conv:256`, `pool:8x256`,
//! `nonbanked:4`); either way the job is canonicalized through
//! `to_spec()` before hashing, so equivalent spellings share one cache
//! entry.

use wib_core::{Json, MachineConfig, WibOrganization};

/// Hard ceiling on per-job instruction counts (warm-up and measured
/// each): a submitted job may be expensive, but never unbounded.
pub const MAX_INSTS: u64 = 1_000_000_000;

/// Hard ceiling on per-job deadlines (24 h): a deadline exists to bound
/// a job's wall-clock cost, so an effectively-infinite one is a typo.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// One requested simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Benchmark name (validated against the daemon's workload catalog).
    pub workload: String,
    /// Machine spec (canonical or CLI shorthand).
    pub spec: String,
    /// Measured instructions (falls back to the batch, then the server
    /// default).
    pub insts: Option<u64>,
    /// Warm-up instructions (same fallback chain).
    pub warmup: Option<u64>,
    /// Wall-clock budget from the moment a worker picks the job up;
    /// expiry aborts the run within one stats epoch. Falls back to the
    /// batch default; `None` means unbounded.
    pub deadline_ms: Option<u64>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a batch of jobs.
    Submit {
        /// The sweep points, in submission order.
        jobs: Vec<JobRequest>,
        /// Batch-level default for measured instructions.
        insts: Option<u64>,
        /// Batch-level default for warm-up instructions.
        warmup: Option<u64>,
        /// Batch-level default deadline (milliseconds of run time).
        deadline_ms: Option<u64>,
    },
    /// Introspection snapshot.
    Stats,
    /// Scrape the metrics registry (Prometheus text exposition).
    Metrics,
    /// Cancel a queued or running job by id.
    Cancel {
        /// The id from the job's `queued` event.
        job: u64,
    },
    /// Subscribe this connection to every job's lifecycle events.
    Watch,
    /// Stop the daemon; `drain` finishes queued work first.
    Shutdown {
        /// `true` = drain queue, `false` = cancel queued jobs.
        drain: bool,
    },
    /// Liveness probe.
    Ping,
    /// Coordinator only: add a backend node to the hash ring.
    Join {
        /// The backend daemon's address.
        addr: String,
    },
    /// Coordinator only: the cluster-wide aggregated view.
    ClusterStats,
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    /// A human-readable description of the first problem; the server
    /// reports it as a `protocol_error` event and keeps the connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line)?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string `op` field")?;
        match op {
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "watch" => Ok(Request::Watch),
            "ping" => Ok(Request::Ping),
            "cluster_stats" => Ok(Request::ClusterStats),
            "join" => {
                let addr = doc
                    .get("addr")
                    .and_then(Json::as_str)
                    .filter(|a| !a.is_empty())
                    .ok_or("join needs a non-empty string `addr` field")?;
                Ok(Request::Join {
                    addr: addr.to_string(),
                })
            }
            "cancel" => {
                let job = doc
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or("cancel needs a numeric `job` field")?;
                Ok(Request::Cancel { job })
            }
            "shutdown" => {
                let drain = match doc.get("mode").and_then(Json::as_str) {
                    None | Some("drain") => true,
                    Some("now") => false,
                    Some(other) => return Err(format!("unknown shutdown mode {other:?}")),
                };
                Ok(Request::Shutdown { drain })
            }
            "submit" => {
                let jobs_json = doc
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or("submit needs a `jobs` array")?;
                if jobs_json.is_empty() {
                    return Err("submit needs at least one job".to_string());
                }
                let deadline = |j: &Json, who: &str| -> Result<Option<u64>, String> {
                    match j.get("deadline_ms").and_then(Json::as_u64) {
                        None => Ok(None),
                        Some(0) => Err(format!("{who}: deadline_ms must be >= 1")),
                        Some(ms) if ms > MAX_DEADLINE_MS => {
                            Err(format!("{who}: deadline_ms exceeds {MAX_DEADLINE_MS}"))
                        }
                        Some(ms) => Ok(Some(ms)),
                    }
                };
                let mut jobs = Vec::with_capacity(jobs_json.len());
                for (i, j) in jobs_json.iter().enumerate() {
                    let field = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
                    let workload =
                        field("workload").ok_or(format!("job {i} needs a string `workload`"))?;
                    let spec = field("spec").ok_or(format!("job {i} needs a string `spec`"))?;
                    jobs.push(JobRequest {
                        workload,
                        spec,
                        insts: j.get("insts").and_then(Json::as_u64),
                        warmup: j.get("warmup").and_then(Json::as_u64),
                        deadline_ms: deadline(j, &format!("job {i}"))?,
                    });
                }
                Ok(Request::Submit {
                    jobs,
                    insts: doc.get("insts").and_then(Json::as_u64),
                    warmup: doc.get("warmup").and_then(Json::as_u64),
                    deadline_ms: deadline(&doc, "batch")?,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Parse a machine spec in either grammar (see module docs) and return
/// the configuration; callers canonicalize via `to_spec()`.
///
/// # Errors
/// The canonical grammar's error when neither grammar matches.
pub fn parse_machine_spec(spec: &str) -> Result<MachineConfig, String> {
    let spec = spec.trim();
    // CLI shorthands first: `wib:512` would otherwise die in `from_spec`
    // (which wants `wib:w=512`), and every shorthand is unambiguous.
    if spec == "wib2k" {
        return Ok(MachineConfig::wib_2k());
    }
    if let Some(n) = spec.strip_prefix("wib:").and_then(|n| n.parse().ok()) {
        return Ok(MachineConfig::wib_sized(n));
    }
    if let Some(n) = spec.strip_prefix("conv:").and_then(|n| n.parse().ok()) {
        return Ok(MachineConfig::conventional(n));
    }
    if let Some((s, b)) = spec.strip_prefix("pool:").and_then(|g| g.split_once('x')) {
        if let (Ok(slots), Ok(blocks)) = (s.parse(), b.parse()) {
            return Ok(MachineConfig::wib_pool(slots, blocks));
        }
    }
    if let Some(l) = spec.strip_prefix("nonbanked:").and_then(|l| l.parse().ok()) {
        return Ok(MachineConfig::wib_2k()
            .with_wib_organization(WibOrganization::NonBanked { latency: l }));
    }
    MachineConfig::from_spec(spec)
}

// ---------------------------------------------------------------------
// Event frames (server -> client)
// ---------------------------------------------------------------------

/// `queued`: the job was validated and entered the queue. `index` is
/// the job's position in *this* submit frame, which is what lets a
/// retrying client map freshly assigned ids back to its own jobs.
/// `span` is the tracing span id minted at submit; the job's later
/// `span` event carries the same id.
pub fn ev_queued(
    job: u64,
    index: usize,
    workload: &str,
    spec: &str,
    digest: &str,
    span: &str,
) -> Json {
    Json::obj()
        .field("event", "queued")
        .field("job", job)
        .field("index", index)
        .field("workload", workload)
        .field("spec", spec)
        .field("digest", digest)
        .field("span", span)
}

/// `rejected`: a submitted job failed validation (never queued).
pub fn ev_rejected(index: usize, workload: &str, reason: &str) -> Json {
    Json::obj()
        .field("event", "rejected")
        .field("index", index)
        .field("workload", workload)
        .field("reason", reason)
}

/// `running`: a worker started simulating the job.
pub fn ev_running(job: u64) -> Json {
    Json::obj().field("event", "running").field("job", job)
}

/// `interval`: one epoch of the job's interval time-series.
pub fn ev_interval(job: u64, sample: &wib_core::IntervalSample) -> Json {
    Json::obj()
        .field("event", "interval")
        .field("job", job)
        .field("sample", sample.to_json())
}

/// `done`: terminal success; `result` is the full result document.
pub fn ev_done(job: u64, cached: bool, result: Json) -> Json {
    Json::obj()
        .field("event", "done")
        .field("job", job)
        .field("cached", cached)
        .field("result", result)
}

/// `error`: terminal failure — the simulation panicked, or its deadline
/// expired. `digest` is the job's cache key so a crash report names the
/// exact configuration that died.
pub fn ev_error(job: u64, digest: &str, message: &str) -> Json {
    Json::obj()
        .field("event", "error")
        .field("job", job)
        .field("digest", digest)
        .field("message", message)
}

/// `error` with `kind: "hung"`: the watchdog cancelled a wedged run.
/// Unlike a plain `error` (a panic, an expired deadline — deterministic,
/// retrying is pointless), a hang is environmental: clients treat this
/// kind as retryable, exactly like a `shed`.
pub fn ev_hung(job: u64, digest: &str, message: &str) -> Json {
    ev_error(job, digest, message).field("kind", "hung")
}

/// `shed`: terminal for this submission attempt; the queue was full and
/// the job was *not* accepted. The client should wait `retry_after_ms`
/// (jittered, grows with consecutive sheds) and resubmit.
pub fn ev_shed(job: u64, workload: &str, retry_after_ms: u64) -> Json {
    Json::obj()
        .field("event", "shed")
        .field("job", job)
        .field("workload", workload)
        .field("retry_after_ms", retry_after_ms)
}

/// `cancelled`: terminal; the job was cancelled while queued or running.
pub fn ev_cancelled(job: u64) -> Json {
    Json::obj().field("event", "cancelled").field("job", job)
}

/// `span`: the job's tracing record, emitted once just before its
/// terminal event. `stages` holds `{stage, us}` pairs in wall-clock
/// order; the durations are measured back-to-back from one clock, so
/// they sum exactly to `total_us` (the job's end-to-end latency from
/// queue entry to the terminal event).
pub fn ev_span(
    job: u64,
    span: &str,
    workload: &str,
    outcome: &str,
    stages: &[(&'static str, u64)],
    total_us: u64,
) -> Json {
    let stages: Vec<Json> = stages
        .iter()
        .map(|&(name, us)| Json::obj().field("stage", name).field("us", us))
        .collect();
    Json::obj()
        .field("event", "span")
        .field("job", job)
        .field("span", span)
        .field("workload", workload)
        .field("outcome", outcome)
        .field("stages", Json::Arr(stages))
        .field("total_us", total_us)
}

/// `metrics`: the full Prometheus text exposition, as one frame (the
/// newlines inside `text` are escaped by the JSON writer).
pub fn ev_metrics(text: &str) -> Json {
    Json::obj().field("event", "metrics").field("text", text)
}

/// `shutdown`: the final event of a drained daemon or coordinator,
/// sent to every watcher and to the connection that asked for it.
pub fn ev_shutdown(completed: u64, errors: u64, cancelled: u64) -> Json {
    Json::obj()
        .field("event", "shutdown")
        .field("completed", completed)
        .field("errors", errors)
        .field("cancelled", cancelled)
}

/// `joined`: reply to a coordinator `join`; echoes the new node and the
/// resulting live-node count.
pub fn ev_joined(addr: &str, nodes: usize) -> Json {
    Json::obj()
        .field("event", "joined")
        .field("addr", addr)
        .field("nodes", nodes)
}

/// `protocol_error`: the request line could not be honored.
pub fn ev_protocol_error(message: &str) -> Json {
    Json::obj()
        .field("event", "protocol_error")
        .field("message", message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(Request::parse(r#"{"op":"watch"}"#).unwrap(), Request::Watch);
        assert_eq!(
            Request::parse(r#"{"op":"cancel","job":12}"#).unwrap(),
            Request::Cancel { job: 12 }
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown { drain: true }
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown","mode":"now"}"#).unwrap(),
            Request::Shutdown { drain: false }
        );
        let r = Request::parse(
            r#"{"op":"submit","insts":5000,"deadline_ms":60000,
               "jobs":[{"workload":"gcc","spec":"base"},
                       {"workload":"em3d","spec":"wib2k","insts":100,"warmup":7,
                        "deadline_ms":250}]}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                jobs,
                insts,
                warmup,
                deadline_ms,
            } => {
                assert_eq!((insts, warmup), (Some(5000), None));
                assert_eq!(deadline_ms, Some(60000));
                assert_eq!(jobs.len(), 2);
                assert_eq!(jobs[0].workload, "gcc");
                assert_eq!(jobs[0].insts, None);
                assert_eq!(jobs[0].deadline_ms, None);
                assert_eq!(jobs[1].spec, "wib2k");
                assert_eq!((jobs[1].insts, jobs[1].warmup), (Some(100), Some(7)));
                assert_eq!(jobs[1].deadline_ms, Some(250));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_cluster_ops() {
        assert_eq!(
            Request::parse(r#"{"op":"cluster_stats"}"#).unwrap(),
            Request::ClusterStats
        );
        assert_eq!(
            Request::parse(r#"{"op":"join","addr":"127.0.0.1:9000"}"#).unwrap(),
            Request::Join {
                addr: "127.0.0.1:9000".to_string()
            }
        );
    }

    #[test]
    fn cluster_event_frames_are_well_formed() {
        let ev = ev_joined("a:1", 3);
        assert!(!ev.to_string().contains('\n'));
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("joined"));
        assert_eq!(ev.get("nodes").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","jobs":[]}"#,
            r#"{"op":"submit","jobs":[{"workload":"gcc"}]}"#,
            r#"{"op":"submit","jobs":[{"spec":"base"}]}"#,
            r#"{"op":"shutdown","mode":"eventually"}"#,
            r#"{"op":"submit","deadline_ms":0,"jobs":[{"workload":"gcc","spec":"base"}]}"#,
            r#"{"op":"submit","jobs":[{"workload":"gcc","spec":"base","deadline_ms":0}]}"#,
            r#"{"op":"submit","deadline_ms":99999999999,"jobs":[{"workload":"gcc","spec":"base"}]}"#,
            r#"{"op":"join"}"#,
            r#"{"op":"join","addr":""}"#,
            // Retired ops: they now parse as unknown ops.
            r#"{"op":"cache_get"}"#,
            r#"{"op":"cache_get","digest":""}"#,
            r#"{"op":"cache_get","digest":"ab12"}"#,
            r#"{"op":"peers"}"#,
            r#"{"op":"peers","addrs":[7]}"#,
            r#"{"op":"peers","addrs":[""]}"#,
            r#"{"op":"peers","addrs":["a:1","b:2"]}"#,
            r#"{"op":"peers","addrs":[]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn spec_grammars_canonicalize_identically() {
        // Shorthand and canonical spellings land on the same machine,
        // hence the same cache identity.
        let a = parse_machine_spec("wib2k").unwrap();
        let b = parse_machine_spec("wib:w=2048").unwrap();
        let c = parse_machine_spec("wib:2048").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.spec_digest(), c.spec_digest());
        assert_eq!(
            parse_machine_spec("conv:256").unwrap(),
            parse_machine_spec("conv:iq=256").unwrap()
        );
        assert_eq!(
            parse_machine_spec("pool:8x256").unwrap(),
            parse_machine_spec("wib:w=2048,org=pool8x256").unwrap()
        );
        assert_eq!(
            parse_machine_spec("nonbanked:4").unwrap(),
            parse_machine_spec("wib:w=2048,org=nonbanked4").unwrap()
        );
        // Full canonical grammar passes through.
        let full = parse_machine_spec("wib:w=512,org=ideal,policy=rrl").unwrap();
        assert_eq!(full.to_spec(), "wib:w=512,org=ideal,policy=rrl");
        assert!(parse_machine_spec("warp-drive").is_err());
    }

    #[test]
    fn event_frames_are_single_lines_with_discriminators() {
        let evs = [
            ev_queued(1, 0, "gcc", "base", "abcd", "s-1"),
            ev_rejected(0, "bad\nname", "unknown workload"),
            ev_running(1),
            ev_done(1, true, Json::obj().field("ok", true)),
            ev_error(1, "abcd", "boom"),
            ev_shed(1, "gcc", 150),
            ev_cancelled(1),
            ev_span(1, "s-1", "gcc", "done", &[("queue", 10), ("run", 20)], 30),
            ev_metrics("# HELP x y\n# TYPE x counter\nx 1\n"),
            ev_shutdown(3, 1, 0),
            ev_protocol_error("bad line"),
        ];
        for ev in evs {
            let line = ev.to_string();
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            assert!(ev.get("event").and_then(Json::as_str).is_some());
        }
    }
}
