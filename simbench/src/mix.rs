//! `serve_mix`: two closed-loop clients, one job per call, against a
//! coordinator in front of two single-worker backends.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wib_serve::server::compute_result;
use wib_serve::ResultCache;

use crate::points::{JobStream, Point};
use crate::service::{self, connect_us, Cluster, JobRecord, ServeProbe};
use crate::sim::{self, Catalog, EngineTotals, Traced, SCALE};
use crate::stats::{median, metric, ratio};
use crate::{peak_rss_mb, Run, SETUP_REPEATS};

/// Client threads (and connections), one per core of the reference box.
const CLIENTS: u64 = 2;

/// In the traced run, one job in this many per client is preceded by a
/// timed bare connect to the coordinator.
const CONNECT_SAMPLE_EVERY: usize = 16;

/// Jobs of the seeded stream replayed in the traced run's determinism leg.
const LEG_JOBS: usize = 24;

/// Threads that recompute results for the byte-identity check.
const CHECK_THREADS: usize = 2;

/// Width of the windows of the timed region whose median throughput is
/// reported. A journal or cache fsync now and then stalls a job for
/// ~100 ms; how many stalls a run gets, and how long, varies with the
/// disk from run to run, and they move whole-run totals by 10-20 %.
const WINDOW_S: f64 = 2.0;

/// `(points_per_s, sim_minsts_per_s)`: medians over the whole
/// [`WINDOW_S`] windows of the timed region of the jobs completed in each
/// window (and the instructions their misses simulated).
fn window_rates(done: &[(Duration, u64)], elapsed_s: f64) -> (f64, f64) {
    let n = ((elapsed_s / WINDOW_S) as usize).max(1);
    let mut jobs = vec![0.0; n];
    let mut insts = vec![0.0; n];
    for &(at, committed) in done {
        if let Some(i) = Some((at.as_secs_f64() / WINDOW_S) as usize).filter(|&i| i < n) {
            jobs[i] += 1.0;
            insts[i] += committed as f64;
        }
    }
    let rate = |v: &[f64]| median(v).unwrap_or(0.0) / WINDOW_S;
    (rate(&jobs), rate(&insts) / 1e6)
}

fn client_loop(
    seed: u64,
    client: u64,
    addr: &str,
    stop_at: Instant,
    trace: bool,
) -> (Vec<JobRecord>, Vec<f64>) {
    let mut stream = JobStream::new(seed, client, CLIENTS);
    let mut records = Vec::new();
    let mut connects = Vec::new();
    // A repeat whose document equals the first one keeps only a shared
    // reference to it, so this process's memory does not grow with the
    // number of jobs and `peak_rss_mb` measures the service.
    let mut firsts: HashMap<Point, Arc<String>> = HashMap::new();
    while Instant::now() < stop_at {
        let (p, repeat) = stream.next_job();
        if trace && records.len() % CONNECT_SAMPLE_EVERY == 0 {
            connects.extend(connect_us(addr));
        }
        let mut rec = service::submit(addr, &p, repeat);
        if let Ok((_, doc)) = &mut rec.outcome {
            match firsts.entry(p.clone()) {
                Entry::Vacant(v) => {
                    v.insert(doc.clone());
                }
                Entry::Occupied(o) if o.get() == doc => *doc = o.get().clone(),
                Entry::Occupied(_) => {}
            }
            if !repeat {
                stream.completed(p);
            }
        }
        records.push(rec);
    }
    (records, connects)
}

/// Run `f` over `items` on [`CHECK_THREADS`] threads, results in order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(CHECK_THREADS)
                        .map(|(i, x)| (i, f(x)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The first [`LEG_JOBS`] jobs one client of the stream would send.
fn leg_jobs(seed: u64) -> Vec<Point> {
    let mut stream = JobStream::new(seed, 0, 1);
    (0..LEG_JOBS)
        .map(|_| {
            let (p, repeat) = stream.next_job();
            if !repeat {
                stream.completed(p.clone());
            }
            p
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, work: &Path, trace: bool) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut kept: Option<(Catalog, Cluster)> = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let cat = Catalog::build();
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let cluster =
            Cluster::spawn(&work.join(format!("cluster{i}"))).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, old)) = kept.replace((cat, cluster)) {
            old.shutdown();
        }
    }
    let (cat, cluster) = kept.expect("at least one set-up");
    let mut run = Run::new(setup_s);

    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<JobRecord>, Vec<f64>)> = std::thread::scope(|s| {
        let addr = cluster.addr.as_str();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(seed, c, addr, stop_at, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.peak_rss_mb = peak_rss_mb();
    let counters = if trace {
        Some(cluster.counters()?)
    } else {
        None
    };
    let backend_addrs = cluster.backend_addrs.clone();
    cluster.shutdown();

    // Everything below is outside the timed region.
    let mut connects = Vec::new();
    let mut docs: HashMap<String, (Point, Arc<String>)> = HashMap::new();
    let mut done = Vec::new();
    for (records, c) in per_client {
        connects.extend(c);
        for rec in records {
            run.attempted += 1;
            let (cached, doc) = match rec.outcome {
                Ok(o) => o,
                Err(e) => {
                    run.fail(format!("{} on {}: {e}", rec.point.kernel, rec.point.spec));
                    continue;
                }
            };
            let committed = match sim::check_doc(&cat, &rec.point, &doc) {
                Ok(n) => n,
                Err(e) => {
                    run.wrong(e.clone());
                    run.fail(e);
                    continue;
                }
            };
            if cached != rec.repeat {
                run.wrong(format!(
                    "{} on {}: a {} job came back cached={cached}",
                    rec.point.kernel,
                    rec.point.spec,
                    if rec.repeat { "repeated" } else { "new" }
                ));
            }
            let p = &rec.point;
            let key = ResultCache::key(p.kernel, cat.config(p), p.insts, p.warmup, SCALE);
            match docs.entry(key) {
                Entry::Vacant(v) => {
                    v.insert((rec.point.clone(), doc));
                }
                Entry::Occupied(o) if o.get().1 != doc => {
                    run.wrong(format!(
                        "{} on {}: a hit returned a different document",
                        p.kernel, p.spec
                    ));
                }
                Entry::Occupied(_) => {}
            }
            run.completed += 1;
            run.point_ms.push(rec.ms);
            let simulated = if cached { 0 } else { committed };
            done.push((rec.done - start, simulated));
            if cached {
                run.hit_ms.push(rec.ms);
            } else {
                run.miss_ms.push(rec.ms);
                run.committed += committed;
            }
        }
    }
    run.window_rates = Some(window_rates(&done, run.elapsed_s));
    run.note(format!(
        "whole-run totals: {:.3} jobs/s, {:.4} Minst/s",
        ratio(run.completed as f64, run.elapsed_s, 0.0),
        ratio(run.committed as f64, run.elapsed_s * 1e6, 0.0)
    ));
    run.note(format!(
        "stats digest: {}",
        sim::stats_digest(docs.iter().map(|(k, (_, d))| (k.as_str(), d.as_str())))
    ));

    let distinct: Vec<&(Point, Arc<String>)> = docs.values().collect();
    if !trace {
        let mismatches = par_map(&distinct, |(p, doc)| {
            let local = compute_result(cat.workload(p), cat.config(p), p.insts, p.warmup, SCALE);
            (local.to_string() != doc.as_str()).then(|| {
                format!(
                    "{} on {}: daemon and in-process results differ",
                    p.kernel, p.spec
                )
            })
        });
        for m in mismatches.into_iter().flatten() {
            run.wrong(m);
        }
        run.note(format!(
            "byte identity: {} distinct results recomputed in-process",
            distinct.len()
        ));
        return Ok(run);
    }

    // Traced: recompute every distinct result under the layer probes.
    let start = Instant::now();
    let traced: Vec<(Traced, _)> = par_map(&distinct, |(p, _)| {
        (sim::trace_point(&cat, p), sim::trace_warmup(&cat, p))
    });
    let traced_s = start.elapsed().as_secs_f64();
    let mut engine = EngineTotals::default();
    let mut probe =
        ServeProbe::new(&work.join("probe"), &backend_addrs).map_err(|e| e.to_string())?;
    for ((p, doc), (t, warm)) in distinct.iter().zip(traced) {
        if t.doc != doc.as_str() {
            run.wrong(format!(
                "{} on {}: daemon and in-process results differ",
                p.kernel, p.spec
            ));
        }
        if !t.repeatable {
            run.wrong(format!(
                "{} on {}: counters differ between two runs",
                p.kernel, p.spec
            ));
        }
        engine.add(p, &t);
        engine.add_warmup(p.warmup, warm);
        probe.observe(&cat, p, doc);
    }
    let leg = service::determinism_leg(&leg_jobs(seed), &work.join("leg"))?;
    for f in &leg.failures {
        run.wrong(format!("service leg: {f}"));
    }
    if !leg.repeatable {
        run.wrong("service leg: counters or documents differ between two clusters".to_string());
    }
    run.note(format!(
        "determinism: engine counters of {} results and service counters of {LEG_JOBS} jobs repeated {}",
        distinct.len(),
        if run.correct() { "exactly" } else { "NOT exactly" }
    ));
    run.layers.push(metric(
        "workloads.build_ms",
        "ms",
        median(&build_ms).unwrap_or(0.0),
    ));
    run.layers.extend(engine.metrics());
    run.layers.extend(probe.metrics());
    run.layers
        .extend(counters.expect("scraped when tracing").metrics());
    run.layers.push(metric(
        "client.connect_us",
        "us",
        median(&connects).unwrap_or(0.0),
    ));
    run.layers.push(metric(
        "trace.point_ms_p50",
        "ms",
        median(&run.point_ms).unwrap_or(0.0),
    ));
    // Two threads ran the probes, so compare summed thread time.
    run.layers.push(metric(
        "trace.cost_ratio",
        "ratio",
        ratio(traced_s * CHECK_THREADS as f64, engine.total_seconds(), 0.0),
    ));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rates_take_the_median_window_and_drop_the_partial_one() {
        let at = |s: f64| Duration::from_secs_f64(s);
        // Four jobs (one a 1000-instruction miss) in each of windows 0, 1
        // and 3, a stall leaves window 2 with one, and the partial window
        // after 8 s is not counted.
        let mut done = Vec::new();
        for w in [0.0, 1.0, 3.0] {
            done.push((at(w * WINDOW_S), 1000));
            done.extend((1..4).map(|j| (at(w * WINDOW_S + 0.1 * j as f64), 0)));
        }
        done.push((at(2.5 * WINDOW_S), 0));
        done.extend((0..50).map(|_| (at(4.1 * WINDOW_S), 0)));
        let (jobs, minsts) = window_rates(&done, 4.5 * WINDOW_S);
        assert_eq!(jobs, 4.0 / WINDOW_S);
        assert_eq!(minsts, 1000.0 / WINDOW_S / 1e6);
    }
}
