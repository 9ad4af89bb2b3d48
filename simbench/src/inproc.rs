//! The in-process workloads, `paper_sweep` and `skip_long`: one
//! simulation at a time on the calling thread, as a sweep harness runs
//! them.

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use wib_core::Json;
use wib_serve::server::compute_result;
use wib_serve::ResultCache;

use crate::points::{check_within_length, Point, JOB_INSTS};
use crate::service::{self, ServeProbe};
use crate::sim::{self, EngineTotals, SCALE};
use crate::stats::{median, metric, ratio};
use crate::{peak_rss_mb, setup_catalog, Run};

/// Points of the workload replayed through the service in the traced
/// run's determinism leg (each sent twice: a miss, then a hit).
const LEG_POINTS: usize = 12;

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Untraced: whole rounds over `points` until another round would end
/// after `seconds`, always at least one. Every point is simulated and
/// rendered by `server::compute_result`, exactly as `submit --local` and
/// a daemon worker on a cache miss do; that is the point's latency.
/// Rounds after the first must reproduce the first round's documents
/// byte for byte.
///
/// No in-process caller keeps a result cache, so the hit and miss
/// latencies here are proxies for the daemon's two paths, timed apart
/// from the point: a miss is the point plus a `put` into an in-memory
/// `ResultCache`, a hit is the `get` of that document and its parse.
pub fn timed(points: &[Point], seconds: f64) -> Result<Run, String> {
    check_within_length(points)?;
    let (cat, setup_s) = setup_catalog();
    let cache = ResultCache::new(None);
    let mut run = Run::new(setup_s);
    let mut first_round: HashMap<String, String> = HashMap::new();
    let mut differed = false;
    let start = Instant::now();
    let mut round_s: f64 = 0.0;
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() + round_s <= seconds {
        let round_start = Instant::now();
        for p in points {
            run.attempted += 1;
            let t = Instant::now();
            let computed = catch_unwind(AssertUnwindSafe(|| {
                compute_result(cat.workload(p), cat.config(p), p.insts, p.warmup, SCALE).to_string()
            }));
            let point_ms = t.elapsed().as_secs_f64() * 1e3;
            let doc = match computed {
                Ok(doc) => doc,
                Err(e) => {
                    run.fail(format!(
                        "{} on {}: panicked: {}",
                        p.kernel,
                        p.spec,
                        panic_message(&*e)
                    ));
                    continue;
                }
            };
            let key = ResultCache::key(p.kernel, cat.config(p), p.insts, p.warmup, SCALE);
            let t = Instant::now();
            cache.put(&key, doc);
            let put_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let doc = cache.get(&key).expect("the point was just stored");
            black_box(Json::parse(&doc).expect("result documents parse"));
            let hit_ms = t.elapsed().as_secs_f64() * 1e3;
            let committed = match sim::check_doc(&cat, p, &doc) {
                Ok(c) => c,
                Err(e) => {
                    run.wrong(e.clone());
                    run.fail(e);
                    continue;
                }
            };
            match first_round.get(&key) {
                None => {
                    first_round.insert(key, doc.to_string());
                }
                Some(first) if first.as_str() != doc.as_str() => {
                    differed = true;
                    run.wrong(format!(
                        "{} on {}: round {} differs from round 1",
                        p.kernel,
                        p.spec,
                        rounds + 1
                    ));
                }
                Some(_) => {}
            }
            run.completed += 1;
            run.committed += committed;
            run.point_ms.push(point_ms);
            run.miss_ms.push(point_ms + put_ms);
            run.hit_ms.push(hit_ms);
        }
        round_s = round_start.elapsed().as_secs_f64();
        rounds += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.peak_rss_mb = peak_rss_mb();
    run.note(format!("rounds: {rounds} of {} points", points.len()));
    run.note(format!(
        "stats digest: {}",
        sim::stats_digest(first_round.iter().map(|(k, d)| (k.as_str(), d.as_str())))
    ));
    if rounds > 1 {
        run.note(format!(
            "determinism: later rounds repeated round 1 byte for byte: {}",
            if differed { "NO" } else { "yes" }
        ));
    }
    Ok(run)
}

/// Traced: every point once under the layer probes (and once more to
/// check its counters repeat), its result fed through the service
/// probes, then a short replay of the workload through the cluster, twice.
pub fn traced(points: &[Point], work: &Path) -> Result<Run, String> {
    check_within_length(points)?;
    let (cat, setup_s) = setup_catalog();
    let mut run = Run::new(setup_s);
    let nodes = ["node-a".to_string(), "node-b".to_string()];
    let mut probe = ServeProbe::new(&work.join("probe"), &nodes).map_err(|e| e.to_string())?;
    let mut engine = EngineTotals::default();
    let mut docs: HashMap<String, String> = HashMap::new();
    let mut point_ms = Vec::new();
    let mut warmed = Vec::new();
    let start = Instant::now();
    for p in points {
        run.attempted += 1;
        let traced = match catch_unwind(AssertUnwindSafe(|| sim::trace_point(&cat, p))) {
            Ok(t) => t,
            Err(e) => {
                run.fail(format!(
                    "{} on {}: panicked: {}",
                    p.kernel,
                    p.spec,
                    panic_message(&*e)
                ));
                continue;
            }
        };
        if let Err(e) = sim::check_doc(&cat, p, &traced.doc) {
            run.wrong(e.clone());
            run.fail(e);
            continue;
        }
        if !traced.repeatable {
            run.wrong(format!(
                "{} on {}: counters differ between two runs",
                p.kernel, p.spec
            ));
        }
        engine.add(p, &traced);
        // Points that share a kernel, skip and hierarchy (skip_long's
        // base/wib2k pairs) share one interpreted warm-up.
        let mem = &cat.config(p).mem;
        if !warmed
            .iter()
            .any(|(k, w, m)| *k == p.kernel && *w == p.warmup && *m == mem)
        {
            warmed.push((p.kernel, p.warmup, mem));
            engine.add_warmup(p.warmup, sim::trace_warmup(&cat, p));
        }
        probe.observe(&cat, p, &traced.doc);
        point_ms.push(traced.total.as_secs_f64() * 1e3);
        let key = ResultCache::key(p.kernel, cat.config(p), p.insts, p.warmup, SCALE);
        docs.insert(key, traced.doc);
    }
    let traced_s = start.elapsed().as_secs_f64();
    run.elapsed_s = traced_s;
    run.completed = point_ms.len() as u64;
    run.peak_rss_mb = peak_rss_mb();
    run.note(format!(
        "stats digest: {}",
        sim::stats_digest(docs.iter().map(|(k, d)| (k.as_str(), d.as_str())))
    ));

    let mut leg_points: Vec<Point> = points
        .iter()
        .take(LEG_POINTS)
        .enumerate()
        .map(|(i, p)| Point {
            warmup: JOB_INSTS + i as u64,
            insts: JOB_INSTS,
            ..p.clone()
        })
        .collect();
    leg_points.extend(leg_points.clone());
    let leg = service::determinism_leg(&leg_points, &work.join("leg"))?;
    for f in &leg.failures {
        run.wrong(format!("service leg: {f}"));
    }
    if !leg.repeatable {
        run.wrong("service leg: counters or documents differ between two clusters".to_string());
    }
    run.note(format!(
        "determinism: engine counters of {} points and service counters of {} jobs repeated {}",
        points.len(),
        leg_points.len(),
        if run.correct() {
            "exactly"
        } else {
            "NOT exactly"
        }
    ));

    run.layers
        .push(metric("workloads.build_ms", "ms", run.setup_median() * 1e3));
    run.layers.extend(engine.metrics());
    run.layers.extend(probe.metrics());
    run.layers.extend(leg.counters.metrics());
    run.layers.push(metric(
        "client.connect_us",
        "us",
        median(&leg.connect_us).unwrap_or(0.0),
    ));
    run.layers.push(metric(
        "trace.point_ms_p50",
        "ms",
        median(&point_ms).unwrap_or(0.0),
    ));
    run.layers.push(metric(
        "trace.cost_ratio",
        "ratio",
        ratio(traced_s, engine.total_seconds(), 0.0),
    ));
    Ok(run)
}
