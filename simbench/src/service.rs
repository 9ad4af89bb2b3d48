//! The service path (`wib-serve`): an in-process cluster of one
//! coordinator in front of two single-worker backends, the clients that
//! drive it, its counters, and probes timed around the service crates'
//! public functions.

use std::hint::black_box;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wib_core::{Exposition, Json, Log2Snapshot, Registry};
use wib_serve::client::{self, JobStatus, SubmitOptions};
use wib_serve::coord::{self, CoordHandle, CoordOptions};
use wib_serve::protocol::{JobRequest, Request};
use wib_serve::server::{self, ServerHandle, ServerOptions};
use wib_serve::{HashRing, Journal, JournalEntry, ResultCache};

use crate::points::Point;
use crate::sim::{Catalog, SCALE};
use crate::stats::{histogram_median, median, metric, ratio, Metric};

/// Backends behind the coordinator, each with one worker.
const BACKENDS: usize = 2;

/// A client that hears nothing for this long gives up on the job.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Ring lookups timed together per `ring.route_ns` sample (one lookup
/// is shorter than the clock's resolution).
const ROUTE_BATCH: u32 = 256;

/// The coordinator plus its backends, each backend with a results
/// directory of its own, so its cache persists and its journal fsyncs.
pub struct Cluster {
    coord: CoordHandle,
    backends: Vec<ServerHandle>,
    pub addr: String,
    pub backend_addrs: Vec<String>,
}

impl Cluster {
    pub fn spawn(dir: &Path) -> std::io::Result<Cluster> {
        let mut backends = Vec::new();
        for i in 0..BACKENDS {
            backends.push(server::spawn(ServerOptions {
                workers: 1,
                results_dir: Some(dir.join(format!("backend{i}"))),
                quiet: true,
                faults: Some(String::new()),
                watchdog_ms: None,
                ..ServerOptions::default()
            })?);
        }
        let backend_addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
        let coord = coord::spawn(CoordOptions {
            backends: backend_addrs.clone(),
            quiet: true,
            ..CoordOptions::default()
        })?;
        Ok(Cluster {
            addr: coord.addr().to_string(),
            coord,
            backends,
            backend_addrs,
        })
    }

    /// Stop the coordinator, then drain and stop every backend, joining
    /// all their threads.
    pub fn shutdown(self) {
        self.coord.shutdown();
        self.coord.join();
        for b in self.backends {
            b.shutdown(true);
            b.join();
        }
    }

    /// The service's own counters, read through its public clients.
    pub fn counters(&self) -> Result<ServiceCounters, String> {
        let text = client::metrics(&self.addr).map_err(|e| e.to_string())?;
        let exp = Exposition::parse(&text);
        let mut c = ServiceCounters {
            queue_wait: exp.histogram("wib_serve_queue_wait_us").unwrap_or_default(),
            run: exp.histogram("wib_serve_run_us").unwrap_or_default(),
            journal_appends: exp.sum("wib_serve_journal_appends_total") as u64,
            shed: exp.sum("wib_serve_jobs_shed_total") as u64,
            reroutes: exp.sum("wib_coord_reroutes_total") as u64,
            node_deaths: exp.sum("wib_coord_node_deaths_total") as u64,
            ..ServiceCounters::default()
        };
        for b in &self.backend_addrs {
            let s = client::stats(b).map_err(|e| e.to_string())?;
            let n = |doc: Option<&Json>, k: &str| {
                doc.and_then(|d| d.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            c.cache_hits += n(s.get("cache"), "hits");
            c.cache_misses += n(s.get("cache"), "misses");
            c.peer_probes += n(Some(&s), "peer_probes");
            c.peer_hits += n(Some(&s), "peer_hits");
        }
        Ok(c)
    }
}

/// Counters and latency histograms the cluster exposes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ServiceCounters {
    pub queue_wait: Log2Snapshot,
    pub run: Log2Snapshot,
    pub journal_appends: u64,
    pub shed: u64,
    pub reroutes: u64,
    pub node_deaths: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub peer_probes: u64,
    pub peer_hits: u64,
}

impl ServiceCounters {
    /// The counts that must repeat exactly when the same jobs are sent
    /// again to a fresh cluster, one at a time.
    pub fn deterministic(&self) -> [u64; 6] {
        [
            self.cache_hits,
            self.cache_misses,
            self.peer_probes,
            self.journal_appends,
            self.shed,
            self.node_deaths,
        ]
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "cache.hit_ratio",
                "ratio",
                ratio(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                    0.0,
                ),
            ),
            metric("cache.peer_probes", "count", self.peer_probes as f64),
            metric(
                "cache.peer_hit_ratio",
                "ratio",
                ratio(self.peer_hits as f64, self.peer_probes as f64, 0.0),
            ),
            metric("journal.appends", "count", self.journal_appends as f64),
            metric(
                "serve.queue_wait_us_p50",
                "us",
                histogram_median(&self.queue_wait),
            ),
            metric("serve.run_us_p50", "us", histogram_median(&self.run)),
            metric("client.shed_retries", "count", self.shed as f64),
            metric("coord.reroutes", "count", self.reroutes as f64),
            metric("coord.node_deaths", "count", self.node_deaths as f64),
        ]
    }
}

/// The request a client sends for `p`.
pub fn job_request(p: &Point) -> JobRequest {
    JobRequest {
        workload: p.kernel.to_string(),
        spec: p.spec.to_string(),
        insts: Some(p.insts),
        warmup: Some(p.warmup),
        deadline_ms: None,
    }
}

/// One job as its client saw it.
pub struct JobRecord {
    pub point: Point,
    pub repeat: bool,
    pub ms: f64,
    /// When the job's terminal event arrived.
    pub done: Instant,
    /// `(served from the cache, result document)`, or why it failed.
    pub outcome: Result<(bool, Arc<String>), String>,
}

/// Submit one job and wait for its terminal event.
pub fn submit(addr: &str, p: &Point, repeat: bool) -> JobRecord {
    let opts = SubmitOptions {
        idle_timeout: IDLE_TIMEOUT,
        ..SubmitOptions::default()
    };
    let t = Instant::now();
    let reply = client::submit_with(addr, &[job_request(p)], &opts);
    let done = Instant::now();
    let ms = (done - t).as_secs_f64() * 1e3;
    let outcome = match reply {
        Err(e) => Err(e.to_string()),
        Ok(mut outs) => match outs.pop().map(|o| o.status) {
            Some(JobStatus::Done { cached, result }) => Ok((cached, Arc::new(result.to_string()))),
            Some(other) => Err(format!("{other:?}")),
            None => Err("no outcome".to_string()),
        },
    };
    JobRecord {
        point: p.clone(),
        repeat,
        ms,
        done,
        outcome,
    }
}

/// Time one TCP connect to `addr` (the client's first step on every
/// job), in microseconds.
pub fn connect_us(addr: &str) -> Option<f64> {
    let t = Instant::now();
    let s = TcpStream::connect(addr).ok()?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    drop(s);
    Some(us)
}

/// What the determinism leg saw: the first pass's counters and connect
/// times, whether the second pass repeated every counter and result
/// document exactly, and any job that failed or hit/missed unexpectedly.
pub struct Leg {
    pub counters: ServiceCounters,
    pub connect_us: Vec<f64>,
    pub repeatable: bool,
    pub failures: Vec<String>,
}

/// Send `jobs` one at a time to two fresh clusters in turn.
pub fn determinism_leg(jobs: &[Point], dir: &Path) -> Result<Leg, String> {
    let mut passes = Vec::new();
    for pass in 0..2 {
        let cluster =
            Cluster::spawn(&dir.join(format!("pass{pass}"))).map_err(|e| e.to_string())?;
        let mut records = Vec::new();
        let mut connects = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for p in jobs {
            connects.extend(connect_us(&cluster.addr));
            records.push(submit(&cluster.addr, p, !seen.insert(p.clone())));
        }
        let counters = cluster.counters();
        cluster.shutdown();
        passes.push((records, counters?, connects));
    }
    let (second, c2, _) = passes.pop().expect("two passes");
    let (first, c1, connect_us) = passes.pop().expect("two passes");
    let mut failures = Vec::new();
    for r in &first {
        match &r.outcome {
            Ok((cached, _)) if *cached != r.repeat => failures.push(format!(
                "{} on {}: cached={cached} for a {} job",
                r.point.kernel,
                r.point.spec,
                if r.repeat { "repeated" } else { "new" }
            )),
            Ok(_) => {}
            Err(e) => failures.push(e.clone()),
        }
    }
    let docs = |rs: &[JobRecord]| -> Vec<Option<Arc<String>>> {
        rs.iter()
            .map(|r| r.outcome.as_ref().ok().map(|(_, d)| d.clone()))
            .collect()
    };
    let repeatable = c1.deterministic() == c2.deterministic() && docs(&first) == docs(&second);
    Ok(Leg {
        counters: c1,
        connect_us,
        repeatable,
        failures,
    })
}

/// Probes timed around single calls into the service crates, fed with
/// a workload's own points: request parsing, ring routing, the result
/// cache on disk and the journal.
pub struct ServeProbe {
    cache: ResultCache,
    journal: Journal,
    ring: HashRing,
    next_id: u64,
    parse_us: Vec<f64>,
    route_ns: Vec<f64>,
    get_us: Vec<f64>,
    put_us: Vec<f64>,
    accept_us: Vec<f64>,
}

impl ServeProbe {
    pub fn new(dir: &Path, nodes: &[String]) -> std::io::Result<ServeProbe> {
        let registry = Registry::new();
        let (journal, _) = Journal::open(dir, &registry)?;
        let mut ring = HashRing::new(CoordOptions::default().vnodes);
        for n in nodes {
            ring.add(n);
        }
        Ok(ServeProbe {
            cache: ResultCache::with_metrics(
                Some(PathBuf::from(dir)),
                Arc::new(wib_serve::FaultPlan::none()),
                &registry,
            ),
            journal,
            ring,
            next_id: 1,
            parse_us: Vec::new(),
            route_ns: Vec::new(),
            get_us: Vec::new(),
            put_us: Vec::new(),
            accept_us: Vec::new(),
        })
    }

    /// Put one point's result document through each probed call.
    pub fn observe(&mut self, cat: &Catalog, p: &Point, doc: &str) {
        let req = job_request(p);
        let line = Json::obj()
            .field("op", "submit")
            .field(
                "jobs",
                vec![Json::obj()
                    .field("workload", req.workload.as_str())
                    .field("spec", req.spec.as_str())
                    .field("insts", p.insts)
                    .field("warmup", p.warmup)],
            )
            .to_string();
        let t = Instant::now();
        let parsed = Request::parse(&line);
        self.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(parsed.expect("benchmark requests parse"));

        let cfg = cat.config(p);
        let key = ResultCache::key(p.kernel, cfg, p.insts, p.warmup, SCALE);
        let t = Instant::now();
        for _ in 0..ROUTE_BATCH {
            black_box(self.ring.primary(black_box(&key)));
        }
        self.route_ns
            .push(t.elapsed().as_secs_f64() * 1e9 / f64::from(ROUTE_BATCH));

        let entry = JournalEntry {
            id: self.next_id,
            digest: key.clone(),
            workload: p.kernel.to_string(),
            spec: cfg.to_spec(),
            insts: p.insts,
            warmup: p.warmup,
            deadline_ms: None,
        };
        self.next_id += 1;
        let t = Instant::now();
        self.journal.accept(&entry);
        self.accept_us.push(t.elapsed().as_secs_f64() * 1e6);

        let t = Instant::now();
        black_box(self.cache.put(&key, doc.to_string()));
        self.put_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(self.cache.get(&key));
        self.get_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let m = |v: &[f64]| median(v).unwrap_or(0.0);
        vec![
            metric("protocol.parse_us", "us", m(&self.parse_us)),
            metric("ring.route_ns", "ns", m(&self.route_ns)),
            metric("cache.get_us", "us", m(&self.get_us)),
            metric("cache.put_us", "us", m(&self.put_us)),
            metric("journal.accept_us", "us", m(&self.accept_us)),
        ]
    }
}
