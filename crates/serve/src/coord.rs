//! The sweep coordinator: one front door for a fleet of `wib-serve`
//! backends.
//!
//! `wib-coord` speaks the *same* NDJSON protocol as a single daemon, so
//! every existing client — `wib-sim submit/watch/stats/top` — works
//! unchanged by pointing at the coordinator instead of a backend. Under
//! the hood each submitted job is routed by consistent-hashing its
//! content digest (the exact `spec_digest`-derived key the result cache
//! uses, see [`ResultCache::key`]) onto a [`HashRing`] of backend
//! nodes:
//!
//! * **Sharding** — a job's digest has one owner, so repeated sweeps of
//!   the same points land on the nodes that already cached them, and
//!   the fleet's aggregate cache behaves like one big cache.
//! * **Node-death retry** — a backend that dies mid-batch surfaces as a
//!   failed per-node submission; the coordinator removes it from the
//!   ring (remapping only its keys), bumps `node_deaths`, and re-routes
//!   the orphaned jobs to their new owners, which simulate them afresh.
//!   Re-execution is safe because results are deterministic and
//!   content-addressed — the identical idempotency argument behind the
//!   client's shed-retry machinery.
//! * **Self-healing membership** — a supervisor thread pings dead nodes
//!   on an exponential backoff and re-adds any that answer
//!   (`node_rejoins` bumped), so a restarted backend rejoins without
//!   operator action and owns its shard again. Keys a survivor computed
//!   during the outage are simulated once more by the returning owner,
//!   with byte-identical output. Health probes (metrics scrape, stats
//!   probe) only evict a node after `fail_threshold` *consecutive*
//!   failures — one transient timeout no longer reshuffles the ring —
//!   while a failed job submission still kills a node immediately.
//!
//! Connections are served by the shared NDJSON front end
//! (`front.rs`); this module supplies the coordinator's own ops
//! (`submit`, `stats`, `cluster_stats`, `metrics`, `join`).
//!
//! The coordinator resolves and validates jobs itself (same catalog,
//! same [`resolve_job`]), mints its own job ids, and forwards backend
//! results verbatim — so a sweep through the coordinator produces
//! byte-identical result files to `--local`, which the offline gate
//! checks while killing a backend mid-sweep.
//!
//! Coordinator and backends must agree on `--tiny`: the digest is
//! computed against the coordinator's catalog/scale and must match what
//! the backend computes.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use wib_bench::Runner;
use wib_core::{Counter, Exposition, Gauge, Json, Registry};
use wib_workloads::Workload;

use crate::cache::ResultCache;
use crate::client::{self, JobStatus, SubmitOptions};
use crate::fault::FaultPlan;
use crate::front::{self, Front, Role, Service, READ_TICK};
use crate::protocol::{self, JobRequest, Request};
use crate::ring::HashRing;
use crate::server::{build_catalog, resolve_job};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordOptions {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend daemon addresses to seed the ring with. Unreachable ones
    /// start on the dead list; more can join later (`{"op":"join"}`).
    pub backends: Vec<String>,
    /// Virtual-node points per backend on the hash ring.
    pub vnodes: usize,
    /// Resolve jobs against the miniature test suite (must match the
    /// backends' `--tiny`).
    pub tiny: bool,
    /// Default measured instructions when a job names none.
    pub default_insts: u64,
    /// Default warm-up instructions when a job names none.
    pub default_warmup: u64,
    /// Suppress stderr logging.
    pub quiet: bool,
    /// File to write the bound address into once listening.
    pub port_file: Option<PathBuf>,
    /// Supervisor probe interval in milliseconds: how often dead nodes
    /// are pinged for automatic rejoin. `0` disables the supervisor.
    pub supervise_ms: u64,
    /// Consecutive scrape/stats-probe failures before a live node is
    /// declared dead. Submit-path failures still kill a node on the
    /// first error — a lost batch is definitive, a slow scrape is not.
    pub fail_threshold: u32,
}

impl Default for CoordOptions {
    /// Loopback ephemeral port, 64 vnodes, protocol
    /// defaults from the environment — the same defaulting chain as
    /// [`crate::server::ServerOptions`].
    fn default() -> CoordOptions {
        let runner = Runner::from_env();
        CoordOptions {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            tiny: false,
            default_insts: runner.insts,
            default_warmup: runner.warmup,
            quiet: false,
            port_file: None,
            supervise_ms: 1000,
            fail_threshold: 3,
        }
    }
}

/// One accepted job on its way through the ring (already validated and
/// announced as `queued` to the client).
#[derive(Debug, Clone)]
struct Routed {
    id: u64,
    workload: String,
    digest: String,
    /// The fully resolved request forwarded to backends: explicit
    /// insts/warmup so backend defaults can never change the digest.
    request: JobRequest,
}

struct CoordShared {
    opts: CoordOptions,
    catalog: HashMap<String, Workload>,
    scale: &'static str,
    ring: Mutex<HashRing>,
    /// Nodes that were configured or joined but are currently believed
    /// dead (unreachable at startup, or failed mid-batch / mid-probe).
    dead: Mutex<Vec<String>>,
    /// Consecutive health-probe failures per live node. A node is only
    /// declared dead from a *probe* path once its streak reaches
    /// `fail_threshold`; any successful probe resets it.
    health: Mutex<HashMap<String, u32>>,
    registry: Registry,
    started: Instant,
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    rerouted: Counter,
    node_deaths: Counter,
    node_rejoins: Counter,
    nodes_gauge: Gauge,
    uptime_ms: Gauge,
    next_job: AtomicU64,
    front: Front,
}

impl CoordShared {
    fn lock_ring(&self) -> MutexGuard<'_, HashRing> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_dead(&self) -> MutexGuard<'_, Vec<String>> {
        self.dead.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_health(&self) -> MutexGuard<'_, HashMap<String, u32>> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-node routing counter, registered on first use.
    fn routed_counter(&self, node: &str) -> Counter {
        self.registry.counter_with(
            "wib_coord_jobs_routed_total",
            "Jobs routed to each backend node.",
            &[("node", node)],
        )
    }

    fn refresh_gauges(&self) {
        self.nodes_gauge.set(self.lock_ring().len() as u64);
        self.uptime_ms
            .set(self.started.elapsed().as_millis() as u64);
    }

    /// Declare `node` dead: drop it from the ring (remapping only its
    /// keys) and record the death. Idempotent.
    fn mark_dead(&self, node: &str, why: &str) {
        {
            let mut ring = self.lock_ring();
            if !ring.remove(node) {
                return; // already dead (two routers can race here)
            }
            self.node_deaths.inc();
            self.nodes_gauge.set(ring.len() as u64);
        }
        self.lock_dead().push(node.to_string());
        self.lock_health().remove(node);
        self.front.log(&format!("node {node} marked dead: {why}"));
    }

    /// Record one failed health probe (metrics scrape or stats probe)
    /// against a live node. Returns `true` when the streak reached
    /// [`CoordOptions::fail_threshold`] and the node was declared dead —
    /// a single transient hiccup no longer evicts a node from the ring.
    fn note_probe_failure(&self, node: &str, why: &str) -> bool {
        let fails = {
            let mut health = self.lock_health();
            let streak = health.entry(node.to_string()).or_insert(0);
            *streak = streak.saturating_add(1);
            *streak
        };
        if fails >= self.opts.fail_threshold.max(1) {
            self.mark_dead(node, &format!("{why} ({fails} consecutive probe failures)"));
            true
        } else {
            self.front.log(&format!(
                "node {node} probe failed ({fails}/{}): {why}",
                self.opts.fail_threshold
            ));
            false
        }
    }

    /// A successful probe clears the node's failure streak.
    fn note_probe_ok(&self, node: &str) {
        self.lock_health().remove(node);
    }

    /// Add `node` to the ring (reviving it off the dead list if it was
    /// there). Returns the new live-node count.
    fn add_node(&self, node: &str) -> usize {
        let count = {
            let mut ring = self.lock_ring();
            ring.add(node);
            self.nodes_gauge.set(ring.len() as u64);
            ring.len()
        };
        self.lock_dead().retain(|d| d != node);
        self.lock_health().remove(node);
        count
    }

    /// The coordinator's own introspection snapshot (`{"op":"stats"}`).
    fn stats_json(&self) -> Json {
        let ring = self.lock_ring();
        let nodes: Vec<Json> = ring
            .nodes()
            .iter()
            .map(|n| Json::from(n.as_str()))
            .collect();
        let dead: Vec<Json> = self
            .lock_dead()
            .iter()
            .map(|n| Json::from(n.as_str()))
            .collect();
        Json::obj()
            .field("event", "stats")
            .field("schema", "wib-coord/stats-v1")
            .field("addr", self.front.bound().to_string())
            .field("version", env!("CARGO_PKG_VERSION"))
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("scale", self.scale)
            .field("vnodes", self.opts.vnodes)
            .field("nodes", Json::Arr(nodes))
            .field("dead", Json::Arr(dead))
            .field("submitted", self.submitted.get())
            .field("completed", self.completed.get())
            .field("failed", self.failed.get())
            .field("cancelled", self.cancelled.get())
            .field("rerouted", self.rerouted.get())
            .field("node_deaths", self.node_deaths.get())
            .field("node_rejoins", self.node_rejoins.get())
            .field("watchers", self.front.watcher_count())
    }

    /// One merged registry: the coordinator's own metrics plus every
    /// live backend's scraped exposition, folded in through the
    /// deadlock-free `merge_from`. A node that fails its scrape takes a
    /// strike through [`CoordShared::note_probe_failure`]; only a full
    /// streak of `fail_threshold` failures evicts it from the ring.
    fn merged_registry(&self) -> Registry {
        self.refresh_gauges();
        let merged = Registry::new();
        merged.merge_from(&self.registry);
        let nodes: Vec<String> = self.lock_ring().nodes().to_vec();
        for node in nodes {
            match client::metrics(&node) {
                Ok(text) => {
                    self.note_probe_ok(&node);
                    merged.merge_from(&Exposition::parse(&text).to_registry());
                }
                Err(e) => {
                    self.note_probe_failure(&node, &format!("metrics scrape failed: {e}"));
                }
            }
        }
        merged
    }

    /// The cluster-wide view (`{"op":"cluster_stats"}`): per-node
    /// liveness and stats documents, plus fleet counters aggregated
    /// through [`CoordShared::merged_registry`].
    fn cluster_stats_json(&self) -> Json {
        // Snapshot the dead list first so nodes that die *during* the
        // probe below are reported exactly once (inline, alive:false).
        let dead_before: Vec<String> = self.lock_dead().clone();
        let nodes: Vec<String> = self.lock_ring().nodes().to_vec();
        let mut node_docs = Vec::new();
        for node in nodes {
            match client::stats(&node) {
                Ok(doc) => {
                    self.note_probe_ok(&node);
                    node_docs.push(
                        Json::obj()
                            .field("addr", node.as_str())
                            .field("alive", true)
                            .field("stats", doc),
                    );
                }
                Err(e) => {
                    // One strike; the node only leaves the ring (and
                    // flips to alive:false) once the streak reaches the
                    // threshold. Until then it keeps serving jobs.
                    let evicted =
                        self.note_probe_failure(&node, &format!("stats probe failed: {e}"));
                    node_docs.push(
                        Json::obj()
                            .field("addr", node.as_str())
                            .field("alive", !evicted)
                            .field("error", format!("{e}")),
                    );
                }
            }
        }
        for node in dead_before {
            node_docs.push(
                Json::obj()
                    .field("addr", node.as_str())
                    .field("alive", false),
            );
        }
        let exp = Exposition::parse(&self.merged_registry().render());
        let sum = |name: &str| exp.sum(name) as u64;
        let cluster = Json::obj()
            .field("jobs_submitted", sum("wib_serve_jobs_submitted_total"))
            .field("jobs_completed", sum("wib_serve_jobs_completed_total"))
            .field("jobs_failed", sum("wib_serve_jobs_failed_total"))
            .field("jobs_shed", sum("wib_serve_jobs_shed_total"))
            .field("cache_hits", sum("wib_serve_cache_hits_total"))
            .field("cache_misses", sum("wib_serve_cache_misses_total"))
            .field("cache_entries", sum("wib_serve_cache_entries"))
            .field("queue_depth", sum("wib_serve_queue_depth"));
        Json::obj()
            .field("event", "cluster_stats")
            .field("schema", "wib-coord/cluster-stats-v1")
            .field("addr", self.front.bound().to_string())
            .field("nodes", Json::Arr(node_docs))
            .field("submitted", self.submitted.get())
            .field("completed", self.completed.get())
            .field("failed", self.failed.get())
            .field("rerouted", self.rerouted.get())
            .field("node_deaths", self.node_deaths.get())
            .field("node_rejoins", self.node_rejoins.get())
            .field("cluster", cluster)
    }

    /// Flip into shutdown and wake the accept loop.
    fn begin_shutdown(&self) {
        self.front
            .begin_shutdown(|| self.front.log("shutdown requested"));
    }
}

/// A running coordinator spawned with [`spawn`].
pub struct CoordHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
    shared: Arc<CoordShared>,
}

impl CoordHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown locally (does not touch the backends).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the coordinator has fully stopped.
    pub fn join(self) {
        self.thread.join().expect("coordinator thread panicked");
    }
}

/// Bind and start a coordinator in background threads. Backends from
/// [`CoordOptions::backends`] are pinged; reachable ones seed the ring,
/// unreachable ones start dead.
///
/// # Errors
/// Socket binding / port-file errors.
pub fn spawn(opts: CoordOptions) -> std::io::Result<CoordHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let bound = listener.local_addr()?;
    if let Some(path) = &opts.port_file {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, format!("{bound}\n"))?;
    }
    let registry = Registry::new();
    let mut ring = HashRing::new(opts.vnodes);
    let mut dead = Vec::new();
    for b in &opts.backends {
        match client::ping(b) {
            Ok(()) => {
                ring.add(b);
            }
            Err(e) => {
                if !opts.quiet {
                    eprintln!("wib-coord: backend {b} unreachable at startup: {e}");
                }
                dead.push(b.clone());
            }
        }
    }
    let shared = Arc::new(CoordShared {
        catalog: build_catalog(opts.tiny),
        scale: if opts.tiny { "tiny" } else { "eval" },
        ring: Mutex::new(ring),
        dead: Mutex::new(dead),
        health: Mutex::new(HashMap::new()),
        started: Instant::now(),
        submitted: registry.counter(
            "wib_coord_jobs_submitted_total",
            "Jobs accepted and routed by the coordinator.",
        ),
        completed: registry.counter(
            "wib_coord_jobs_completed_total",
            "Jobs that came back done from a backend.",
        ),
        failed: registry.counter(
            "wib_coord_jobs_failed_total",
            "Jobs that ended in a terminal error at the coordinator.",
        ),
        cancelled: registry.counter(
            "wib_coord_jobs_cancelled_total",
            "Jobs a backend reported cancelled.",
        ),
        rerouted: registry.counter(
            "wib_coord_reroutes_total",
            "Jobs re-routed to a new owner after a node death.",
        ),
        node_deaths: registry.counter(
            "wib_coord_node_deaths_total",
            "Backend nodes declared dead and removed from the ring.",
        ),
        node_rejoins: registry.counter(
            "wib_coord_node_rejoins_total",
            "Dead backend nodes revived into the ring by the supervisor.",
        ),
        nodes_gauge: registry.gauge("wib_coord_nodes", "Live backend nodes in the ring."),
        uptime_ms: registry.gauge(
            "wib_coord_uptime_ms",
            "Milliseconds since the coordinator started.",
        ),
        registry,
        next_job: AtomicU64::new(1),
        front: Front::new(
            Role::Coordinator,
            bound,
            opts.quiet,
            Arc::new(FaultPlan::none()),
        ),
        opts,
    });
    shared.refresh_gauges();
    shared.front.log(&format!(
        "listening on {bound} ({} live node(s), {} dead, {} vnodes, {} suite)",
        shared.lock_ring().len(),
        shared.lock_dead().len(),
        shared.opts.vnodes,
        shared.scale
    ));
    let run_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("wib-coord-accept".to_string())
        .spawn(move || run_loop(run_shared, listener))?;
    Ok(CoordHandle {
        addr: bound,
        thread,
        shared,
    })
}

/// Bind and run a coordinator on the calling thread (the CLI `coord`
/// path). Prints the listening address to stdout.
///
/// # Errors
/// Socket binding / port-file errors.
pub fn run(opts: CoordOptions) -> std::io::Result<()> {
    let handle = spawn(opts)?;
    println!("wib-coord listening on {}", handle.addr());
    std::io::stdout().flush()?;
    handle.join();
    Ok(())
}

fn run_loop(shared: Arc<CoordShared>, listener: TcpListener) {
    let supervisor = if shared.opts.supervise_ms > 0 {
        let sup_shared = Arc::clone(&shared);
        Some(
            std::thread::Builder::new()
                .name("wib-coord-supervisor".to_string())
                .spawn(move || supervisor_loop(&sup_shared))
                .expect("spawn supervisor thread"),
        )
    } else {
        None
    };
    let conns = front::accept(&shared, listener);
    front::close(&*shared, conns);
    if let Some(h) = supervisor {
        let _ = h.join();
    }
    shared.front.log("stopped");
}

/// The dead-node supervisor: every `supervise_ms` it pings nodes on the
/// dead list (with per-node exponential backoff so a long-dead backend
/// isn't hammered) and revives any that answer — `add_node` puts the
/// node back on the ring, so a restarted backend rejoins with no
/// operator action. Live nodes are deliberately *not* probed here: their health
/// is judged by the scrape/submit paths that actually talk to them.
fn supervisor_loop(shared: &Arc<CoordShared>) {
    let interval = Duration::from_millis(shared.opts.supervise_ms.max(1));
    // node -> (consecutive failed revival probes, earliest next probe)
    let mut backoff: HashMap<String, (u32, Instant)> = HashMap::new();
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.front.is_shutting_down() {
                return;
            }
            let step = READ_TICK.min(interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let dead: Vec<String> = shared.lock_dead().clone();
        backoff.retain(|node, _| dead.contains(node));
        for node in dead {
            if shared.front.is_shutting_down() {
                return;
            }
            let now = Instant::now();
            if let Some((_, next_at)) = backoff.get(&node) {
                if now < *next_at {
                    continue;
                }
            }
            match client::ping(&node) {
                Ok(()) => {
                    backoff.remove(&node);
                    // Count the revival before `add_node`, so a stats
                    // read never sees the node back on the ring with the
                    // rejoin still uncounted.
                    shared.node_rejoins.inc();
                    let count = shared.add_node(&node);
                    shared.front.log(&format!(
                        "node {node} answered its revival probe; rejoined the ring ({count} live)"
                    ));
                }
                Err(e) => {
                    let entry = backoff.entry(node.clone()).or_insert((0, now));
                    entry.0 = entry.0.saturating_add(1);
                    // 1x, 2x, 4x ... up to 64x the base interval.
                    entry.1 = now + interval * (1u32 << entry.0.min(6));
                    shared.front.log(&format!(
                        "dead node {node} still unreachable (revival probe {}): {e}",
                        entry.0
                    ));
                }
            }
        }
    }
}

impl Service for CoordShared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn handle(&self, tx: &Sender<String>, request: Request) {
        let reply = |ev: Json| {
            let _ = tx.send(ev.to_string());
        };
        match request {
            Request::Stats => reply(self.stats_json()),
            Request::ClusterStats => reply(self.cluster_stats_json()),
            Request::Metrics => reply(protocol::ev_metrics(&self.merged_registry().render())),
            Request::Join { addr } => match client::ping(&addr) {
                Ok(()) => {
                    let nodes = self.add_node(&addr);
                    self.front
                        .log(&format!("node {addr} joined the ring ({nodes} live)"));
                    reply(protocol::ev_joined(&addr, nodes));
                }
                Err(e) => reply(protocol::ev_protocol_error(&format!(
                    "join: backend {addr} unreachable: {e}"
                ))),
            },
            Request::Submit {
                jobs,
                insts,
                warmup,
                deadline_ms,
            } => route_batch(self, tx, &jobs, insts, warmup, deadline_ms),
            // Answered by the front end.
            Request::Ping | Request::Watch | Request::Shutdown { .. } | Request::Cancel { .. } => {}
        }
    }

    /// Drain the whole cluster: ask every live backend to stop first
    /// (their drains finish queued work), then stop here.
    fn shutdown(&self, drain: bool) {
        let nodes: Vec<String> = self.lock_ring().nodes().to_vec();
        for node in nodes {
            match client::shutdown(&node, drain) {
                Ok(_) => self.front.log(&format!("backend {node} shut down")),
                Err(e) => self
                    .front
                    .log(&format!("backend {node} shutdown failed: {e}")),
            }
        }
        self.begin_shutdown();
    }

    fn farewell(&self) -> Json {
        protocol::ev_shutdown(
            self.completed.get(),
            self.failed.get(),
            self.cancelled.get(),
        )
    }
}

/// Validate, announce, route, and (re-)route one submitted batch until
/// every job is terminal. Each pass of the loop either finishes jobs or
/// removes a dead node from the ring, so it terminates.
fn route_batch(
    shared: &CoordShared,
    tx: &Sender<String>,
    jobs: &[JobRequest],
    batch_insts: Option<u64>,
    batch_warmup: Option<u64>,
    batch_deadline: Option<u64>,
) {
    let mut pending: Vec<Routed> = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        if shared.front.is_shutting_down() {
            shared.front.publish(
                Some(tx),
                &protocol::ev_rejected(index, &job.workload, "coordinator is shutting down"),
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
        match resolved {
            Err(reason) => {
                shared.front.publish(
                    Some(tx),
                    &protocol::ev_rejected(index, &job.workload, &reason),
                );
            }
            Ok((name, cfg, insts, warmup)) => {
                let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
                let digest = ResultCache::key(&name, &cfg, insts, warmup, shared.scale);
                let spec = cfg.to_spec();
                let span = format!("coord-{id}");
                shared.submitted.inc();
                shared.front.publish(
                    Some(tx),
                    &protocol::ev_queued(id, index, &name, &spec, &digest, &span),
                );
                pending.push(Routed {
                    id,
                    workload: name.clone(),
                    digest,
                    request: JobRequest {
                        workload: name,
                        spec,
                        insts: Some(insts),
                        warmup: Some(warmup),
                        deadline_ms: job.deadline_ms.or(batch_deadline),
                    },
                });
            }
        }
    }
    while !pending.is_empty() {
        // Group by ring owner. An empty ring fails everything loudly.
        let mut groups: Vec<(String, Vec<Routed>)> = Vec::new();
        {
            let ring = shared.lock_ring();
            if ring.is_empty() {
                drop(ring);
                for r in pending.drain(..) {
                    shared.failed.inc();
                    shared.front.publish(
                        Some(tx),
                        &protocol::ev_error(r.id, &r.digest, "no live backend nodes in the ring"),
                    );
                }
                break;
            }
            for r in pending.drain(..) {
                let owner = ring
                    .primary(&r.digest)
                    .expect("non-empty ring has an owner")
                    .to_string();
                match groups.iter_mut().find(|(n, _)| *n == owner) {
                    Some((_, g)) => g.push(r),
                    None => groups.push((owner, vec![r])),
                }
            }
        }
        for (node, group) in &groups {
            shared.routed_counter(node).add(group.len() as u64);
            for r in group {
                shared.front.publish(Some(tx), &protocol::ev_running(r.id));
            }
        }
        // Fan out: one forwarding client per owner, concurrently. The
        // per-node submission reuses the full shed-retry client, so an
        // overloaded backend is retried there; only a *dead* one fails
        // the group and comes back here for re-routing.
        let results: Vec<Result<Vec<client::JobOutcome>, crate::ServeError>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|(node, group)| {
                        s.spawn(move || {
                            let reqs: Vec<JobRequest> =
                                group.iter().map(|r| r.request.clone()).collect();
                            client::submit_with(node, &reqs, &SubmitOptions::default())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(crate::ServeError::Protocol(
                                "router thread panicked".to_string(),
                            ))
                        })
                    })
                    .collect()
            });
        for ((node, group), result) in groups.into_iter().zip(results) {
            match result {
                Ok(outcomes) => {
                    for (r, out) in group.into_iter().zip(outcomes) {
                        finish(shared, tx, r, out.status);
                    }
                }
                Err(e) => {
                    // The node died mid-batch. Completed-but-unreported
                    // work in the group is safe to re-run: results are
                    // deterministic and content-addressed.
                    shared.mark_dead(&node, &format!("submit failed: {e}"));
                    shared.rerouted.add(group.len() as u64);
                    shared.front.log(&format!(
                        "re-routing {} job(s) after losing {node}",
                        group.len()
                    ));
                    pending.extend(group);
                }
            }
        }
    }
}

/// Publish one job's terminal event and bump the matching counter.
/// Backend results are forwarded verbatim — byte identity end to end.
fn finish(shared: &CoordShared, tx: &Sender<String>, r: Routed, status: JobStatus) {
    match status {
        JobStatus::Done { cached, result } => {
            shared.completed.inc();
            shared
                .front
                .publish(Some(tx), &protocol::ev_done(r.id, cached, result));
        }
        JobStatus::Error(msg) => {
            shared.failed.inc();
            shared
                .front
                .publish(Some(tx), &protocol::ev_error(r.id, &r.digest, &msg));
        }
        JobStatus::Cancelled => {
            shared.cancelled.inc();
            shared
                .front
                .publish(Some(tx), &protocol::ev_cancelled(r.id));
        }
        JobStatus::Rejected(reason) => {
            // The client already saw this job `queued` (the coordinator
            // validated it), so a backend rejection must terminate it as
            // an error, never as a second `rejected` index.
            shared.failed.inc();
            shared.front.publish(
                Some(tx),
                &protocol::ev_error(
                    r.id,
                    &r.digest,
                    &format!("backend rejected the job: {reason}"),
                ),
            );
        }
        JobStatus::Shed { retry_after_ms } => {
            // The per-node client exhausted its own retry budget; hand
            // the backoff decision back to the submitting client, whose
            // shed machinery will resubmit the job to us.
            shared.front.publish(
                Some(tx),
                &protocol::ev_shed(r.id, &r.workload, retry_after_ms),
            );
        }
    }
}
