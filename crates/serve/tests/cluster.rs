//! End-to-end cluster tests: a real coordinator fronting real backend
//! daemons over loopback sockets.
//!
//! The invariants mirror the offline gate's cluster smoke stage:
//!
//! * a sweep submitted through the coordinator is byte-identical to the
//!   same sweep computed in-process;
//! * killing a backend re-routes its jobs to the survivor and the sweep
//!   still completes byte-identically;
//! * `cluster_stats` aggregates per-node counters through one merged
//!   registry.

use wib_core::Json;
use wib_serve::client;
use wib_serve::coord::{self, CoordOptions};
use wib_serve::protocol::parse_machine_spec;
use wib_serve::server::{self, build_catalog, compute_result};
use wib_serve::{HashRing, JobRequest, JobStatus, ResultCache, ServerOptions};

const INSTS: u64 = 20_000;
const WARMUP: u64 = 2_000;

fn tiny_server() -> server::ServerHandle {
    server::spawn(ServerOptions {
        workers: 2,
        queue_capacity: 16,
        tiny: true,
        results_dir: None,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        ..ServerOptions::default()
    })
    .expect("bind backend")
}

fn tiny_coord(backends: Vec<String>) -> coord::CoordHandle {
    coord::spawn(CoordOptions {
        backends,
        tiny: true,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        ..CoordOptions::default()
    })
    .expect("bind coordinator")
}

fn job(workload: &str, spec: &str) -> JobRequest {
    JobRequest {
        workload: workload.to_string(),
        spec: spec.to_string(),
        insts: None,
        warmup: None,
        deadline_ms: None,
    }
}

/// Assert every outcome is `Done` and byte-identical to the in-process
/// computation of the same point.
fn assert_byte_identical(outcomes: &[client::JobOutcome]) {
    let catalog = build_catalog(true);
    for o in outcomes {
        let JobStatus::Done { result, .. } = &o.status else {
            panic!("job {} did not finish: {:?}", o.workload, o.status);
        };
        let spec = result.get("spec").and_then(Json::as_str).unwrap();
        let cfg = wib_core::MachineConfig::from_spec(spec).unwrap();
        let local = compute_result(&catalog[&o.workload], &cfg, INSTS, WARMUP, "tiny");
        assert_eq!(
            result.to_string(),
            local.to_string(),
            "coordinator and in-process results diverge for {}",
            o.workload
        );
    }
}

#[test]
fn coordinator_sweep_is_byte_identical_to_local() {
    let b1 = tiny_server();
    let b2 = tiny_server();
    let (a1, a2) = (b1.addr().to_string(), b2.addr().to_string());
    let ch = tiny_coord(vec![a1, a2]);
    let coord_addr = ch.addr().to_string();

    let jobs = vec![
        job("gzip", "base"),
        job("em3d", "wib:w=256"),
        job("mst", "conv:iq=64"),
    ];
    let outcomes = client::submit(&coord_addr, &jobs, None, None, None, false).expect("submit");
    assert_eq!(outcomes.len(), 3);
    assert_byte_identical(&outcomes);

    // A cluster-wide drain: the coordinator shuts its backends down
    // first, then itself — all three joins returning is the leak proof.
    client::shutdown(&coord_addr, true).expect("cluster shutdown");
    b1.join();
    b2.join();
    ch.join();
}

#[test]
fn node_death_reroutes_jobs_to_the_survivor() {
    let b1 = tiny_server();
    let b2 = tiny_server();
    let (a1, a2) = (b1.addr().to_string(), b2.addr().to_string());

    // Rebuild the coordinator's ring to pick a job the victim (b2)
    // owns, so the death is guaranteed to be on the routed path.
    let mut ring = HashRing::new(64);
    ring.add(&a1);
    ring.add(&a2);
    let mut victim_job = None;
    'search: for workload in ["gzip", "em3d", "mst"] {
        for w in [16u32, 32, 64, 128, 256, 512, 1024, 2048] {
            let spec = format!("wib:w={w}");
            let cfg = parse_machine_spec(&spec).unwrap();
            let digest = ResultCache::key(workload, &cfg, INSTS, WARMUP, "tiny");
            if ring.primary(&digest) == Some(a2.as_str()) {
                victim_job = Some(job(workload, &spec));
                break 'search;
            }
        }
    }
    let victim_job = victim_job.expect("some candidate maps to the victim node");

    let ch = tiny_coord(vec![a1, a2]);
    let coord_addr = ch.addr().to_string();

    // Kill the victim *after* the coordinator seeded its ring, exactly
    // like a node dying mid-sweep.
    b2.shutdown(false);
    b2.join();

    let outcomes =
        client::submit(&coord_addr, &[victim_job], None, None, None, false).expect("submit");
    assert_eq!(outcomes.len(), 1);
    assert_byte_identical(&outcomes);

    let cs = client::cluster_stats(&coord_addr).expect("cluster_stats");
    assert_eq!(
        cs.get("node_deaths").and_then(Json::as_u64),
        Some(1),
        "the dead node must be detected exactly once: {cs}"
    );
    assert_eq!(cs.get("rerouted").and_then(Json::as_u64), Some(1));
    let alive = cs
        .get("nodes")
        .and_then(Json::as_arr)
        .map(|nodes| {
            nodes
                .iter()
                .filter(|n| n.get("alive").and_then(Json::as_bool) == Some(true))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(alive, 1, "exactly one node should survive: {cs}");

    client::shutdown(&coord_addr, true).expect("cluster shutdown");
    b1.join();
    ch.join();
}

#[test]
fn a_backend_that_was_down_at_startup_rejoins_automatically() {
    // b2's first health probe (the coordinator's startup ping) is
    // injected to fail, so the coordinator seeds its ring with b2 on
    // the dead list. The supervisor's next revival probe succeeds and
    // must bring the node back — no operator, no `join` op.
    let b1 = tiny_server();
    let b2 = server::spawn(ServerOptions {
        workers: 2,
        queue_capacity: 16,
        tiny: true,
        results_dir: None,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        faults: Some("sick=1".to_string()),
        ..ServerOptions::default()
    })
    .expect("bind faulty backend");
    let (a1, a2) = (b1.addr().to_string(), b2.addr().to_string());
    let ch = coord::spawn(CoordOptions {
        backends: vec![a1, a2.clone()],
        tiny: true,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        supervise_ms: 100,
        ..CoordOptions::default()
    })
    .expect("bind coordinator");
    let coord_addr = ch.addr().to_string();

    // The ring starts with exactly one live node; the supervisor then
    // revives b2 within a probe interval or two.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = client::stats(&coord_addr).expect("coord stats");
        let nodes = stats.get("nodes").and_then(Json::as_arr).unwrap().len();
        let dead = stats.get("dead").and_then(Json::as_arr).unwrap().len();
        if nodes == 2 && dead == 0 {
            assert_eq!(
                stats.get("node_rejoins").and_then(Json::as_u64),
                Some(1),
                "the revival must be counted: {stats}"
            );
            assert_eq!(
                stats.get("node_deaths").and_then(Json::as_u64),
                Some(0),
                "unreachable-at-startup is not a death: {stats}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "b2 never rejoined the ring: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // The healed ring serves a sweep byte-identically across both nodes.
    let jobs = vec![
        job("gzip", "base"),
        job("em3d", "wib:w=256"),
        job("mst", "conv:iq=64"),
    ];
    let outcomes = client::submit(&coord_addr, &jobs, None, None, None, false).expect("submit");
    assert_eq!(outcomes.len(), 3);
    assert_byte_identical(&outcomes);

    client::shutdown(&coord_addr, true).expect("cluster shutdown");
    b1.join();
    b2.join();
    ch.join();
}

#[test]
fn a_transient_stats_probe_failure_does_not_evict_the_node() {
    // b2 fails its *second* health probe only — the stats probe issued
    // by the first `cluster_stats`. Under the K-consecutive-failure
    // policy one transient error is a strike, not an eviction: the node
    // must stay on the ring, keep serving jobs, and report healthy on
    // the next probe.
    let b1 = tiny_server();
    let b2 = server::spawn(ServerOptions {
        workers: 2,
        queue_capacity: 16,
        tiny: true,
        results_dir: None,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        faults: Some("sick=2".to_string()),
        ..ServerOptions::default()
    })
    .expect("bind faulty backend");
    let (a1, a2) = (b1.addr().to_string(), b2.addr().to_string());
    let ch = tiny_coord(vec![a1, a2.clone()]);
    let coord_addr = ch.addr().to_string();

    let cs = client::cluster_stats(&coord_addr).expect("cluster_stats");
    assert_eq!(
        cs.get("node_deaths").and_then(Json::as_u64),
        Some(0),
        "one failed probe must not kill the node: {cs}"
    );
    let nodes = cs.get("nodes").and_then(Json::as_arr).unwrap();
    let sick = nodes
        .iter()
        .find(|n| n.get("addr").and_then(Json::as_str) == Some(a2.as_str()))
        .expect("faulty node is reported");
    assert_eq!(
        sick.get("alive").and_then(Json::as_bool),
        Some(true),
        "a struck node is still alive: {cs}"
    );
    assert!(
        sick.get("error").is_some(),
        "the strike itself is surfaced: {cs}"
    );

    // The node still owns and serves its shard of a sweep.
    let jobs = vec![
        job("gzip", "base"),
        job("em3d", "wib:w=256"),
        job("mst", "conv:iq=64"),
    ];
    let outcomes = client::submit(&coord_addr, &jobs, None, None, None, false).expect("submit");
    assert_byte_identical(&outcomes);

    // The next probe succeeds (the fault ordinal has passed) and clears
    // the strike: fully healthy again.
    let cs = client::cluster_stats(&coord_addr).expect("cluster_stats");
    let alive = cs
        .get("nodes")
        .and_then(Json::as_arr)
        .map(|nodes| {
            nodes
                .iter()
                .filter(|n| n.get("alive").and_then(Json::as_bool) == Some(true))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(alive, 2, "both nodes healthy after the transient: {cs}");
    assert_eq!(cs.get("node_deaths").and_then(Json::as_u64), Some(0));

    client::shutdown(&coord_addr, true).expect("cluster shutdown");
    b1.join();
    b2.join();
    ch.join();
}

#[test]
fn cluster_stats_aggregates_counters_across_nodes() {
    let b1 = tiny_server();
    let b2 = tiny_server();
    let (a1, a2) = (b1.addr().to_string(), b2.addr().to_string());
    let ch = tiny_coord(vec![a1, a2]);
    let coord_addr = ch.addr().to_string();

    let jobs = vec![
        job("gzip", "base"),
        job("em3d", "wib:w=256"),
        job("mst", "conv:iq=64"),
    ];
    let outcomes = client::submit(&coord_addr, &jobs, None, None, None, false).expect("submit");
    assert!(outcomes.iter().all(client::JobOutcome::succeeded));

    let cs = client::cluster_stats(&coord_addr).expect("cluster_stats");
    let cluster = cs.get("cluster").expect("aggregated cluster block");
    let val = |k: &str| cluster.get(k).and_then(Json::as_u64).unwrap_or(0);
    // Every per-node counter flows through the one merged registry: the
    // fleet executed exactly this batch, whichever nodes it landed on.
    assert_eq!(val("jobs_submitted"), 3, "merged submit count: {cluster}");
    assert_eq!(
        val("jobs_completed"),
        3,
        "merged completion count: {cluster}"
    );
    assert_eq!(val("cache_entries"), 3, "merged cache entries: {cluster}");
    assert_eq!(cs.get("completed").and_then(Json::as_u64), Some(3));

    // The merged exposition serves both fleets' families side by side.
    let text = client::metrics(&coord_addr).expect("merged metrics");
    assert!(
        text.contains("wib_coord_nodes"),
        "coordinator family missing"
    );
    assert!(
        text.contains("wib_serve_jobs_completed_total"),
        "backend family missing from merged exposition"
    );
    assert!(text.contains("wib_coord_jobs_routed_total"));

    client::shutdown(&coord_addr, true).expect("cluster shutdown");
    b1.join();
    b2.join();
    ch.join();
}
