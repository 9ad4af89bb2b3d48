//! End-to-end daemon tests over a real loopback socket.
//!
//! Each test spawns its own daemon on an ephemeral port with the tiny
//! suite and a reduced protocol so the whole file stays fast. The big
//! invariants checked here mirror the offline gate:
//!
//! * results streamed over TCP are byte-identical to `compute_result`
//!   run in-process;
//! * resubmitting a batch is served entirely from the cache;
//! * a drain shutdown completes every queued job and joins every
//!   thread (`ServerHandle::join` returning *is* that proof);
//! * cancellation and backpressure behave as documented.

use std::collections::HashMap;

use wib_core::Json;
use wib_serve::client;
use wib_serve::server::{self, build_catalog, compute_result};
use wib_serve::{JobRequest, JobStatus, ServerOptions};

const INSTS: u64 = 20_000;
const WARMUP: u64 = 2_000;

fn tiny_server(workers: usize, queue_capacity: usize) -> server::ServerHandle {
    server::spawn(ServerOptions {
        workers,
        queue_capacity,
        tiny: true,
        results_dir: None,
        default_insts: INSTS,
        default_warmup: WARMUP,
        quiet: true,
        ..ServerOptions::default()
    })
    .expect("bind loopback")
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

#[test]
fn daemon_results_match_in_process_byte_for_byte() {
    let handle = tiny_server(2, 16);
    let addr = handle.addr().to_string();
    let jobs = vec![
        job("gzip", "base"),
        job("em3d", "wib:w=256"),
        job("mst", "conv:iq=64"),
    ];
    let outcomes = client::submit(&addr, &jobs, None, None, None, false).expect("submit");
    assert_eq!(outcomes.len(), 3);

    let catalog = build_catalog(true);
    for o in &outcomes {
        let JobStatus::Done { cached, result } = &o.status else {
            panic!("job {} did not finish: {:?}", o.workload, o.status);
        };
        assert!(!cached, "first submission must simulate, not hit cache");
        let spec = result.get("spec").and_then(Json::as_str).unwrap();
        let cfg = wib_core::MachineConfig::from_spec(spec).unwrap();
        let local = compute_result(&catalog[&o.workload], &cfg, INSTS, WARMUP, "tiny");
        // The strongest equivalence we can ask for: the rendered
        // documents are identical characters.
        assert_eq!(
            result.to_string(),
            local.to_string(),
            "daemon and in-process results diverge for {}",
            o.workload
        );
        assert_eq!(
            result.get("digest").and_then(Json::as_str).unwrap(),
            o.digest
        );
    }

    // Same batch again: every job must be served from the cache with
    // the same bytes.
    let again = client::submit(&addr, &jobs, None, None, None, false).expect("resubmit");
    let first: HashMap<&str, &Json> = outcomes
        .iter()
        .map(|o| {
            let JobStatus::Done { result, .. } = &o.status else {
                unreachable!()
            };
            (o.workload.as_str(), result)
        })
        .collect();
    for o in &again {
        let JobStatus::Done { cached, result } = &o.status else {
            panic!("cached job {} did not finish", o.workload);
        };
        assert!(cached, "resubmitted job {} must be a cache hit", o.workload);
        assert_eq!(result.to_string(), first[o.workload.as_str()].to_string());
    }

    // The hit counter saw all three, and the introspection doc says so.
    let stats = client::stats(&addr).expect("stats");
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(6));

    let reply = client::shutdown(&addr, true).expect("shutdown");
    assert_eq!(reply.get("event").and_then(Json::as_str), Some("shutdown"));
    assert_eq!(reply.get("completed").and_then(Json::as_u64), Some(6));
    handle.join(); // would hang forever if any thread leaked
}

/// A job whose warm-up runs past the kernel's `halt` comes back as a
/// halted result, both in-process and from a daemon worker.
#[test]
fn a_warm_up_past_halt_is_a_halted_result() {
    let catalog = build_catalog(true);
    let cfg = wib_core::MachineConfig::base_8way();
    let warmup = 100_000_000;
    let local = compute_result(&catalog["treeadd"], &cfg, 1_000, warmup, "tiny");
    assert_eq!(local.get("halted"), Some(&Json::Bool(true)));

    let handle = tiny_server(1, 4);
    let addr = handle.addr().to_string();
    let mut j = job("treeadd", "base");
    j.insts = Some(1_000);
    j.warmup = Some(warmup);
    let outcomes = client::submit(&addr, &[j], None, None, None, false).expect("submit");
    let JobStatus::Done { result, .. } = &outcomes[0].status else {
        panic!("job did not finish: {:?}", outcomes[0].status);
    };
    assert_eq!(result.to_string(), local.to_string());
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn equivalent_spec_spellings_share_one_cache_entry() {
    let handle = tiny_server(1, 8);
    let addr = handle.addr().to_string();
    // Three spellings of the same machine: canonical grammar, CLI
    // shorthand, and shorthand with the same window size spelled out.
    let jobs = vec![job("gzip", "wib:w=2048")];
    let first = client::submit(&addr, &jobs, None, None, None, false).expect("submit");
    assert!(matches!(
        first[0].status,
        JobStatus::Done { cached: false, .. }
    ));
    for spelling in ["wib2k", "wib:2048"] {
        let o = client::submit(&addr, &[job("gzip", spelling)], None, None, None, false)
            .expect("submit alias")
            .remove(0);
        let JobStatus::Done { cached, .. } = o.status else {
            panic!("alias {spelling} failed");
        };
        assert!(cached, "spelling {spelling} must hit the canonical entry");
        assert_eq!(o.digest, first[0].digest);
    }
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn rejections_name_the_reason_and_leave_the_daemon_healthy() {
    let handle = tiny_server(1, 8);
    let addr = handle.addr().to_string();
    let jobs = vec![
        job("no-such-benchmark", "base"),
        job("gzip", "wib:w=banana"),
        job("gzip", "base"), // the valid one still runs
    ];
    let outcomes = client::submit(&addr, &jobs, None, None, None, false).expect("submit");
    let rejected: Vec<_> = outcomes
        .iter()
        .filter_map(|o| match &o.status {
            JobStatus::Rejected(reason) => Some((o.workload.as_str(), reason.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 2);
    assert!(rejected
        .iter()
        .any(|(w, r)| *w == "no-such-benchmark" && r.contains("unknown workload")));
    assert!(outcomes
        .iter()
        .any(|o| o.workload == "gzip" && o.succeeded()));
    client::ping(&addr).expect("daemon still answers after rejections");
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn queued_jobs_can_be_cancelled_and_unknown_ids_are_refused() {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;
    // One worker, so jobs after the first are definitely queued.
    let handle = tiny_server(1, 8);
    let addr = handle.addr().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    let batch = concat!(
        "{\"op\":\"submit\",\"jobs\":[",
        "{\"workload\":\"gzip\",\"spec\":\"base\"},",
        "{\"workload\":\"em3d\",\"spec\":\"base\"},",
        "{\"workload\":\"mst\",\"spec\":\"base\"}]}\n"
    );
    w.write_all(batch.as_bytes()).unwrap();
    w.flush().unwrap();
    // Collect the three queued events (ids 1..=3).
    let mut line = String::new();
    let mut queued = Vec::new();
    while queued.len() < 3 {
        line.clear();
        r.read_line(&mut line).unwrap();
        let ev = Json::parse(line.trim()).unwrap();
        if ev.get("event").and_then(Json::as_str) == Some("queued") {
            queued.push(ev.get("job").and_then(Json::as_u64).unwrap());
        }
    }
    // Cancel the last queued job; expect ok:true.
    let cancel = format!("{{\"op\":\"cancel\",\"job\":{}}}\n", queued[2]);
    w.write_all(cancel.as_bytes()).unwrap();
    w.flush().unwrap();
    // Cancelling an unknown job id is refused.
    w.write_all(b"{\"op\":\"cancel\",\"job\":999}\n").unwrap();
    w.flush().unwrap();
    let mut saw_cancel_ok = false;
    let mut saw_cancel_unknown = false;
    let mut terminal = 0;
    let mut cancelled_job = 0;
    while terminal < 3 {
        line.clear();
        r.read_line(&mut line).unwrap();
        let ev = Json::parse(line.trim()).unwrap();
        match ev.get("event").and_then(Json::as_str) {
            Some("cancel") => {
                let ok = ev.get("ok").and_then(Json::as_bool).unwrap();
                match ev.get("job").and_then(Json::as_u64).unwrap() {
                    999 => {
                        assert!(!ok);
                        assert_eq!(ev.get("state").and_then(Json::as_str), Some("unknown"));
                        saw_cancel_unknown = true;
                    }
                    id => {
                        assert_eq!(id, queued[2]);
                        assert!(ok, "job queued behind a busy worker must be cancellable");
                        saw_cancel_ok = true;
                    }
                }
            }
            Some("done") => terminal += 1,
            Some("cancelled") => {
                cancelled_job = ev.get("job").and_then(Json::as_u64).unwrap();
                terminal += 1;
            }
            _ => {}
        }
    }
    assert!(saw_cancel_ok && saw_cancel_unknown);
    assert_eq!(cancelled_job, queued[2]);
    drop((w, r));
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn a_tiny_queue_still_completes_a_big_batch() {
    // Capacity 1 with 1 worker forces repeated overload sheds; the
    // client's retry-with-backoff loop must still land every job.
    let handle = tiny_server(1, 1);
    let addr = handle.addr().to_string();
    let jobs: Vec<JobRequest> = ["gzip", "em3d", "mst", "gzip", "em3d", "mst"]
        .iter()
        .map(|w| job(w, "base"))
        .collect();
    let outcomes =
        client::submit(&addr, &jobs, Some(5_000), Some(500), None, false).expect("submit");
    assert_eq!(outcomes.len(), 6);
    assert!(outcomes.iter().all(JobOutcomeExt::finished));
    // The second round of each workload hit the cache.
    let cached = outcomes
        .iter()
        .filter(|o| matches!(o.status, JobStatus::Done { cached: true, .. }))
        .count();
    assert_eq!(cached, 3);
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

trait JobOutcomeExt {
    fn finished(&self) -> bool;
}
impl JobOutcomeExt for wib_serve::JobOutcome {
    fn finished(&self) -> bool {
        matches!(self.status, JobStatus::Done { .. })
    }
}

#[test]
fn run_local_writes_the_same_files_submit_writes() {
    let out_remote = std::env::temp_dir().join(format!("wib_serve_remote_{}", std::process::id()));
    let out_local = std::env::temp_dir().join(format!("wib_serve_local_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_remote);
    let _ = std::fs::remove_dir_all(&out_local);

    let handle = tiny_server(2, 8);
    let addr = handle.addr().to_string();
    let jobs = vec![job("gzip", "base"), job("em3d", "wib:w=256")];
    client::submit(&addr, &jobs, None, None, Some(&out_remote), false).expect("submit");
    client::run_local(
        &jobs,
        Some(INSTS),
        Some(WARMUP),
        true,
        Some(&out_local),
        false,
    )
    .expect("run_local");

    let mut remote_files: Vec<_> = std::fs::read_dir(&out_remote)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    remote_files.sort();
    let mut local_files: Vec<_> = std::fs::read_dir(&out_local)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    local_files.sort();
    assert_eq!(
        remote_files, local_files,
        "file names (content addresses) differ"
    );
    assert_eq!(remote_files.len(), 2);
    for name in &remote_files {
        let a = std::fs::read(out_remote.join(name)).unwrap();
        let b = std::fs::read(out_local.join(name)).unwrap();
        assert_eq!(
            a, b,
            "result file {name} differs between daemon and local run"
        );
    }

    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&out_remote);
    let _ = std::fs::remove_dir_all(&out_local);
}

#[test]
fn watcher_sees_other_connections_jobs_and_the_farewell() {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;
    let handle = tiny_server(1, 8);
    let addr = handle.addr().to_string();
    // Attach a watcher first.
    let wstream = TcpStream::connect(&addr).unwrap();
    let mut ww = BufWriter::new(wstream.try_clone().unwrap());
    ww.write_all(b"{\"op\":\"watch\"}\n").unwrap();
    ww.flush().unwrap();
    let mut wr = BufReader::new(wstream);
    let mut line = String::new();
    wr.read_line(&mut line).unwrap();
    assert!(line.contains("\"watching\""));
    // Run a job on a different connection.
    let outcomes = client::submit(
        &addr,
        &[job("gzip", "base")],
        Some(5_000),
        Some(500),
        None,
        false,
    )
    .unwrap();
    assert!(outcomes[0].succeeded());
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
    // The watcher stream must contain the job lifecycle and end with
    // the broadcast shutdown event before EOF.
    let mut events = Vec::new();
    loop {
        line.clear();
        if wr.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let ev = Json::parse(line.trim()).unwrap();
        events.push(ev.get("event").and_then(Json::as_str).unwrap().to_string());
    }
    assert!(events.contains(&"queued".to_string()), "events: {events:?}");
    assert!(events.contains(&"running".to_string()));
    assert!(events.contains(&"done".to_string()));
    assert_eq!(events.last().map(String::as_str), Some("shutdown"));
}

#[test]
fn cache_persists_across_daemon_restarts() {
    let dir = std::env::temp_dir().join(format!("wib_serve_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || ServerOptions {
        workers: 1,
        queue_capacity: 4,
        tiny: true,
        results_dir: Some(dir.clone()),
        default_insts: 5_000,
        default_warmup: 500,
        quiet: true,
        ..ServerOptions::default()
    };
    let first = server::spawn(opts()).unwrap();
    let addr1 = first.addr().to_string();
    let o1 = client::submit(&addr1, &[job("gzip", "base")], None, None, None, false).unwrap();
    assert!(matches!(
        o1[0].status,
        JobStatus::Done { cached: false, .. }
    ));
    client::shutdown(&addr1, true).unwrap();
    first.join();
    // A brand-new daemon over the same results dir serves the job from
    // the on-disk entry without simulating.
    let second = server::spawn(opts()).unwrap();
    let addr2 = second.addr().to_string();
    let o2 = client::submit(&addr2, &[job("gzip", "base")], None, None, None, false).unwrap();
    let JobStatus::Done { cached, result } = &o2[0].status else {
        panic!("restart run failed");
    };
    assert!(cached, "restarted daemon must hit the persisted cache");
    let JobStatus::Done { result: r1, .. } = &o1[0].status else {
        unreachable!()
    };
    assert_eq!(result.to_string(), r1.to_string());
    client::shutdown(&addr2, true).unwrap();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_report_version_and_monotonic_uptime() {
    let handle = tiny_server(1, 8);
    let addr = handle.addr().to_string();
    let first = client::stats(&addr).expect("stats");
    assert_eq!(
        first.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "stats must carry the crate version"
    );
    let t0 = first
        .get("uptime_ms")
        .and_then(Json::as_u64)
        .expect("uptime_ms");
    std::thread::sleep(std::time::Duration::from_millis(20));
    let second = client::stats(&addr).expect("stats again");
    let t1 = second.get("uptime_ms").and_then(Json::as_u64).unwrap();
    assert!(t1 >= t0 + 10, "uptime must advance: {t0} -> {t1}");
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn span_stage_durations_telescope_to_the_total() {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    let handle = tiny_server(1, 8);
    let addr = handle.addr().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    w.write_all(b"{\"op\":\"submit\",\"jobs\":[{\"workload\":\"gzip\",\"spec\":\"base\"}]}\n")
        .unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    let mut span_id = String::new();
    let mut saw_span = false;
    loop {
        line.clear();
        r.read_line(&mut line).unwrap();
        let ev = Json::parse(line.trim()).unwrap();
        match ev.get("event").and_then(Json::as_str) {
            Some("queued") => {
                span_id = ev
                    .get("span")
                    .and_then(Json::as_str)
                    .expect("queued event carries the span id")
                    .to_string();
                assert!(!span_id.is_empty());
            }
            Some("running") | Some("interval") => {}
            Some("span") => {
                saw_span = true;
                assert_eq!(
                    ev.get("span").and_then(Json::as_str),
                    Some(span_id.as_str()),
                    "span id must match the one minted at submit"
                );
                assert_eq!(ev.get("workload").and_then(Json::as_str), Some("gzip"));
                assert_eq!(ev.get("outcome").and_then(Json::as_str), Some("done"));
                let total = ev.get("total_us").and_then(Json::as_u64).unwrap();
                let stages = ev.get("stages").and_then(Json::as_arr).unwrap();
                let names: Vec<&str> = stages
                    .iter()
                    .map(|s| s.get("stage").and_then(Json::as_str).unwrap())
                    .collect();
                assert_eq!(
                    names,
                    ["queue", "cache", "run", "finish"],
                    "a simulated job passes through every stage"
                );
                // The acceptance criterion: back-to-back stage marks
                // from one monotonic clock sum *exactly* to the
                // end-to-end latency — no drift, no double-counting.
                let sum: u64 = stages
                    .iter()
                    .map(|s| s.get("us").and_then(Json::as_u64).unwrap())
                    .sum();
                assert_eq!(sum, total, "stage durations must telescope");
            }
            Some("done") => break,
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(saw_span, "span record must precede the terminal event");

    // The same latencies roll into the scraped histograms.
    let text = client::metrics(&addr).expect("metrics");
    let exp = wib_core::Exposition::parse(&text);
    let wait = exp
        .histogram("wib_serve_queue_wait_us")
        .expect("queue-wait family");
    assert_eq!(wait.count, 1, "one job -> one queue-wait observation");
    let run = exp.histogram("wib_serve_run_us").expect("run-time family");
    assert_eq!(run.count, 1, "one job -> one run-time observation");
    assert_eq!(
        exp.value_labeled(
            "wib_serve_job_us_count",
            &[("workload", "gzip"), ("outcome", "done")]
        ),
        Some(1.0),
        "end-to-end histogram is labelled by workload and outcome"
    );
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}

#[test]
fn metrics_exposition_tracks_jobs_and_cache_hits() {
    let handle = tiny_server(2, 16);
    let addr = handle.addr().to_string();
    let jobs = vec![job("gzip", "base"), job("mst", "base")];
    client::submit(&addr, &jobs, None, None, None, false).expect("submit");
    client::submit(&addr, &jobs, None, None, None, false).expect("resubmit");

    let text = client::metrics(&addr).expect("metrics");
    assert!(
        text.contains("# TYPE wib_serve_jobs_completed_total counter"),
        "exposition carries TYPE lines:\n{text}"
    );
    assert!(
        text.contains("# HELP wib_serve_queue_wait_us"),
        "exposition carries HELP lines:\n{text}"
    );
    let exp = wib_core::Exposition::parse(&text);
    assert_eq!(exp.value("wib_serve_jobs_submitted_total"), Some(4.0));
    assert_eq!(exp.value("wib_serve_jobs_completed_total"), Some(4.0));
    assert_eq!(exp.value("wib_serve_cache_misses_total"), Some(2.0));
    assert_eq!(
        exp.value("wib_serve_cache_hits_total"),
        Some(2.0),
        "resubmitted batch is served from cache"
    );
    assert_eq!(exp.value("wib_serve_workers"), Some(2.0));
    assert_eq!(exp.value("wib_serve_job_panics_total"), Some(0.0));
    // Cache hits skip simulation: the run-time histogram saw only the
    // two real runs, the hit-latency histogram only the two hits.
    assert_eq!(exp.histogram("wib_serve_run_us").map(|h| h.count), Some(2));
    assert_eq!(
        exp.histogram("wib_serve_cache_hit_us").map(|h| h.count),
        Some(2)
    );
    // The engine self-profile surfaced through the same registry.
    assert!(
        exp.value("wib_engine_profiled_cycles_total").unwrap_or(0.0) > 0.0,
        "sampled engine profiling must record cycles:\n{text}"
    );
    client::shutdown(&addr, true).expect("shutdown");
    handle.join();
}
