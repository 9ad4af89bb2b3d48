//! Content-addressed result cache with crash-safe persistence.
//!
//! A job's identity is the FNV-1a digest of everything that determines
//! its (deterministic) output: the schema version, the workload name,
//! the suite scale (eval vs. tiny), the machine's canonical
//! [`spec_digest`], and the measurement protocol (warm-up and measured
//! instruction counts). Two submissions with the same digest *must*
//! produce byte-identical result documents — the simulator is
//! deterministic — so the cache can hand back the stored rendering
//! verbatim, and a resubmitted sweep point is free.
//!
//! Entries live in memory and, when a results directory is configured
//! (`WIB_RESULTS_DIR`), persist as `<dir>/cache/<digest>.json`.
//!
//! # Crash safety
//!
//! A daemon can be `kill -9`ed (or lose power) at any byte of a cache
//! write, and the cache must never serve a torn entry afterwards. Every
//! persist therefore goes through the classic atomic-publish sequence:
//!
//! 1. write the full entry to `<digest>.json.tmp`,
//! 2. `fsync` the temp file,
//! 3. atomically `rename` it over `<digest>.json`,
//! 4. `fsync` the directory so the rename itself is durable.
//!
//! An entry file starts with a one-line generation header
//! (`wib-serve-cache/v2 <digest>`) followed by the document. Loads
//! reject anything whose header generation or digest does not match, or
//! whose document does not parse — truncation can only ever produce one
//! of those, so "parses with the right header" is the integrity check.
//! Orphaned `.tmp` files (a crash between steps 1 and 3) are scavenged
//! on startup and counted in [`CacheStats::scavenged`].
//!
//! Persistence failures degrade to memory-only operation rather than
//! failing the job; a [`FaultPlan`] can tear a write on purpose to prove
//! all of the above under test.
//!
//! # Graceful degradation
//!
//! A single failed persist keeps that one entry memory-only. When
//! persists fail [`DEGRADE_THRESHOLD`] times *in a row* — a full disk, a
//! yanked volume — the cache latches into **degraded mode**: puts stop
//! paying a doomed write-plus-fsync per job and go straight to memory.
//! Every [`REPROBE_EVERY`]-th degraded put re-probes the disk with one
//! real persist attempt; the first success un-latches the cache. The
//! latch state is a gauge (`wib_serve_cache_degraded`) and each flip to
//! degraded is counted (`wib_serve_cache_degrade_events_total`), so a
//! fleet dashboard shows exactly which nodes are running memory-only.
//!
//! [`spec_digest`]: MachineConfig::spec_digest

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wib_core::{Counter, Gauge, Json, MachineConfig, Registry};

use crate::fault::FaultPlan;

/// Consecutive persist failures that latch the cache into degraded
/// (memory-only) mode.
pub const DEGRADE_THRESHOLD: u64 = 3;

/// While degraded, every N-th put re-probes the disk with a real
/// persist attempt; the first success un-latches the cache.
pub const REPROBE_EVERY: u64 = 8;

/// Schema tag mixed into every cache key; bump on any result-format
/// change so stale on-disk entries miss instead of serving old shapes.
const KEY_SCHEMA: &str = "wib-serve/result-v1";

/// On-disk entry generation header. Bump the generation on any change to
/// the entry *file* format; older files then fail the header check and
/// are recomputed (their keys still match, so one recomputation each).
const GENERATION: &str = "wib-serve-cache/v2";

/// Introspection counters (see [`ResultCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries resident in memory.
    pub entries: usize,
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that fell through to a simulation.
    pub misses: u64,
    /// Orphaned `.tmp` files removed at startup (crash mid-publish).
    pub scavenged: u64,
    /// On-disk entries rejected at load time (bad header, torn document).
    pub rejected: u64,
    /// Persists that failed (I/O error or injected tear); the entry
    /// stayed memory-only.
    pub persist_failures: u64,
    /// Whether the cache is currently latched into memory-only mode
    /// after repeated persist failures.
    pub degraded: bool,
    /// Times the cache flipped into degraded mode.
    pub degrade_events: u64,
}

impl CacheStats {
    /// Hits over total lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The `cache` object of the daemon's introspection document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("entries", self.entries)
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("hit_rate", self.hit_rate())
            .field("scavenged", self.scavenged)
            .field("rejected", self.rejected)
            .field("persist_failures", self.persist_failures)
            .field("degraded", self.degraded)
            .field("degrade_events", self.degrade_events)
    }
}

/// Thread-safe content-addressed store of rendered result documents.
///
/// Counters are registry-backed [`Counter`]/[`Gauge`] handles: the same
/// cells feed both [`ResultCache::stats`] (the `stats` snapshot) and the
/// Prometheus exposition — one code path, two read surfaces.
pub struct ResultCache {
    /// `<results>/cache`, when persistence is enabled.
    dir: Option<PathBuf>,
    faults: Arc<FaultPlan>,
    inner: Mutex<HashMap<String, Arc<String>>>,
    /// Latched true after [`DEGRADE_THRESHOLD`] consecutive persist
    /// failures; cleared by a successful re-probe.
    degraded: AtomicBool,
    /// Persist failures since the last success (resets on success).
    failure_streak: AtomicU64,
    /// Puts absorbed while degraded, for the re-probe cadence.
    degraded_puts: AtomicU64,
    entries: Gauge,
    hits: Counter,
    misses: Counter,
    scavenged: Counter,
    rejected: Counter,
    persist_failures: Counter,
    degraded_gauge: Gauge,
    degrade_events: Counter,
}

impl ResultCache {
    /// A cache rooted at `results_dir` (persistence under
    /// `<results_dir>/cache/`), or memory-only when `None`. Scavenges
    /// temp files orphaned by a crashed predecessor.
    pub fn new(results_dir: Option<PathBuf>) -> ResultCache {
        ResultCache::with_faults(results_dir, Arc::new(FaultPlan::none()))
    }

    /// [`ResultCache::new`] with a fault-injection plan attached (the
    /// daemon shares one plan across all its subsystems).
    pub fn with_faults(results_dir: Option<PathBuf>, faults: Arc<FaultPlan>) -> ResultCache {
        ResultCache::with_metrics(results_dir, faults, &Registry::new())
    }

    /// [`ResultCache::with_faults`] with the cache's counters registered
    /// in `registry` (a throwaway registry when the caller has none).
    pub fn with_metrics(
        results_dir: Option<PathBuf>,
        faults: Arc<FaultPlan>,
        registry: &Registry,
    ) -> ResultCache {
        let dir = results_dir.map(|d| d.join("cache"));
        let scavenged = registry.counter(
            "wib_serve_cache_scavenged_total",
            "Orphaned cache temp files removed at startup.",
        );
        scavenged.add(dir.as_deref().map_or(0, Self::scavenge_temps));
        ResultCache {
            dir,
            faults,
            inner: Mutex::new(HashMap::new()),
            degraded: AtomicBool::new(false),
            failure_streak: AtomicU64::new(0),
            degraded_puts: AtomicU64::new(0),
            entries: registry.gauge(
                "wib_serve_cache_entries",
                "Result-cache entries resident in memory.",
            ),
            hits: registry.counter(
                "wib_serve_cache_hits_total",
                "Result-cache lookups served from memory or disk.",
            ),
            misses: registry.counter(
                "wib_serve_cache_misses_total",
                "Result-cache lookups that fell through to a simulation.",
            ),
            scavenged,
            rejected: registry.counter(
                "wib_serve_cache_rejected_total",
                "On-disk cache entries that failed the integrity check.",
            ),
            persist_failures: registry.counter(
                "wib_serve_cache_persist_failures_total",
                "Cache persists that failed; the entry stayed memory-only.",
            ),
            degraded_gauge: registry.gauge(
                "wib_serve_cache_degraded",
                "1 while the cache is latched into memory-only mode.",
            ),
            degrade_events: registry.counter(
                "wib_serve_cache_degrade_events_total",
                "Times the cache latched into memory-only mode.",
            ),
        }
    }

    /// The entry map's lock, surviving a poisoned mutex: the map is a
    /// plain key→document store with no multi-step invariants, so a
    /// panicking holder can never leave it half-updated.
    fn lock_inner(&self) -> MutexGuard<'_, HashMap<String, Arc<String>>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Remove `*.tmp` leftovers from a crash between temp-write and
    /// rename. They are unpublished by construction — the rename never
    /// happened — so deleting them can never lose a committed entry.
    fn scavenge_temps(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0; // no directory yet: nothing orphaned
        };
        let mut scavenged = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".tmp")
                && std::fs::remove_file(entry.path()).is_ok()
            {
                scavenged += 1;
            }
        }
        scavenged
    }

    /// The content address of one job: 16 hex digits over the canonical
    /// job description. Shares [`MachineConfig::spec_digest`] with the
    /// fuzzer's repro headers, so a repro names the cache identity of
    /// the config it ran on.
    pub fn key(
        workload: &str,
        cfg: &MachineConfig,
        insts: u64,
        warmup: u64,
        scale: &str,
    ) -> String {
        let canonical = format!(
            "{KEY_SCHEMA}\n{workload}\n{scale}\n{}\n{insts}\n{warmup}",
            cfg.spec_digest()
        );
        wib_core::fnv1a64_hex(canonical.as_bytes())
    }

    /// Validate one on-disk entry: generation header naming this key,
    /// then a parseable document. Returns the document text.
    fn validate_entry(key: &str, text: &str) -> Option<String> {
        let (header, doc) = text.split_once('\n')?;
        let expected = format!("{GENERATION} {key}");
        if header.trim_end() != expected {
            return None;
        }
        let doc = doc.trim_end();
        Json::parse(doc).ok()?;
        Some(doc.to_string())
    }

    /// Look up a digest, falling back to the on-disk entry (which is
    /// loaded into memory). Counts a hit or miss either way; entries
    /// that fail the integrity check count as `rejected` misses.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut inner = self.lock_inner();
        if let Some(doc) = inner.get(key).cloned() {
            self.hits.inc();
            return Some(doc);
        }
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{key}.json"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                match Self::validate_entry(key, &text) {
                    Some(doc) => {
                        let doc = Arc::new(doc);
                        inner.insert(key.to_string(), Arc::clone(&doc));
                        self.entries.set(inner.len() as u64);
                        self.hits.inc();
                        return Some(doc);
                    }
                    None => self.rejected.inc(),
                }
            }
        }
        self.misses.inc();
        None
    }

    /// The atomic-publish sequence (see the module docs). The injected
    /// `tear` fault simulates a crash between steps 1 and 3: a partial
    /// temp file is left behind and the rename never happens.
    fn persist(&self, dir: &Path, key: &str, doc: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{key}.json.tmp"));
        let path = dir.join(format!("{key}.json"));
        let payload = format!("{GENERATION} {key}\n{doc}\n");
        if self.faults.next_cache_persist_wedges() {
            // Clean failure before any byte is written — the repeated
            // shape (disk full, volume gone) that drives degradation.
            return Err(std::io::Error::other("injected fault: wedged persist"));
        }
        if self.faults.next_cache_write_tears() {
            // Crash mid-write: half the bytes, no fsync, no publish.
            let _ = std::fs::write(&tmp, &payload.as_bytes()[..payload.len() / 2]);
            return Err(std::io::Error::other("injected fault: torn cache write"));
        }
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(payload.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path)?;
        // Make the rename itself durable. Failure here is acceptable —
        // worst case the entry vanishes on power loss and is recomputed.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Whether the cache is currently latched into memory-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Decide whether this put should attempt a persist at all: always
    /// when healthy, and only on the re-probe cadence while degraded.
    fn should_attempt_persist(&self) -> bool {
        if !self.is_degraded() {
            return true;
        }
        let n = self.degraded_puts.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(REPROBE_EVERY)
    }

    /// Account one persist outcome, driving the degradation latch.
    fn note_persist(&self, key: &str, outcome: std::io::Result<()>) {
        match outcome {
            Ok(()) => {
                self.failure_streak.store(0, Ordering::Relaxed);
                if self.degraded.swap(false, Ordering::AcqRel) {
                    self.degraded_gauge.set(0);
                    eprintln!("wib-serve: cache disk recovered; leaving memory-only mode");
                }
            }
            Err(e) => {
                self.persist_failures.inc();
                eprintln!("wib-serve: cache persistence failed for {key}: {e}");
                let streak = self.failure_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= DEGRADE_THRESHOLD && !self.degraded.swap(true, Ordering::AcqRel) {
                    self.degraded_gauge.set(1);
                    self.degrade_events.inc();
                    eprintln!(
                        "wib-serve: cache entering memory-only mode after {streak} \
                         consecutive persist failures"
                    );
                }
            }
        }
    }

    /// Store a rendered result document under `key` (memory, and disk
    /// when persistence is on). Returns the shared rendering. Lost
    /// store races are benign: determinism makes both renderings equal.
    pub fn put(&self, key: &str, doc: String) -> Arc<String> {
        let doc = Arc::new(doc);
        if let Some(dir) = &self.dir {
            if self.should_attempt_persist() {
                self.note_persist(key, self.persist(dir, key, &doc));
            }
        }
        let mut inner = self.lock_inner();
        inner.insert(key.to_string(), Arc::clone(&doc));
        self.entries.set(inner.len() as u64);
        doc
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.lock_inner().len(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            scavenged: self.scavenged.get(),
            rejected: self.rejected.get(),
            persist_failures: self.persist_failures.get(),
            degraded: self.is_degraded(),
            degrade_events: self.degrade_events.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wib_cache_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn keys_are_content_addresses() {
        let base = MachineConfig::base_8way();
        let wib = MachineConfig::wib_2k();
        let k = ResultCache::key("gcc", &base, 1000, 100, "eval");
        assert_eq!(k, ResultCache::key("gcc", &base, 1000, 100, "eval"));
        assert_ne!(k, ResultCache::key("gzip", &base, 1000, 100, "eval"));
        assert_ne!(k, ResultCache::key("gcc", &wib, 1000, 100, "eval"));
        assert_ne!(k, ResultCache::key("gcc", &base, 2000, 100, "eval"));
        assert_ne!(k, ResultCache::key("gcc", &base, 1000, 200, "eval"));
        assert_ne!(k, ResultCache::key("gcc", &base, 1000, 100, "tiny"));
        assert_eq!(k.len(), 16);
    }

    #[test]
    fn memory_hits_and_misses_are_counted() {
        let c = ResultCache::new(None);
        let key = "00112233deadbeef";
        assert!(c.get(key).is_none());
        c.put(key, "{\"x\":1}".into());
        assert_eq!(c.get(key).as_deref().map(String::as_str), Some("{\"x\":1}"));
        let s = c.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn persists_across_instances() {
        let dir = tmp("persist");
        let c1 = ResultCache::new(Some(dir.clone()));
        c1.put("aaaa000011112222", "{\"doc\":true}".into());
        // No temp file survives a successful publish.
        assert!(!dir.join("cache/aaaa000011112222.json.tmp").exists());
        // A fresh cache over the same directory finds the entry on disk.
        let c2 = ResultCache::new(Some(dir.clone()));
        assert_eq!(
            c2.get("aaaa000011112222").as_deref().map(String::as_str),
            Some("{\"doc\":true}")
        );
        assert_eq!(c2.stats().hits, 1);
        // Corrupt entries are ignored, not served.
        std::fs::write(
            dir.join("cache/bad0bad0bad0bad0.json"),
            format!("{GENERATION} bad0bad0bad0bad0\n{{truncated"),
        )
        .unwrap();
        let c3 = ResultCache::new(Some(dir.clone()));
        assert!(c3.get("bad0bad0bad0bad0").is_none());
        assert_eq!(c3.stats().rejected, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_surface_in_a_shared_registry() {
        // The same cells back `stats()` and the exposition: no second
        // code path to drift.
        let r = Registry::new();
        let c = ResultCache::with_metrics(None, Arc::new(FaultPlan::none()), &r);
        assert!(c.get("0123456789abcdef").is_none());
        c.put("0123456789abcdef", "{}".into());
        assert!(c.get("0123456789abcdef").is_some());
        let exp = wib_core::Exposition::parse(&r.render());
        assert_eq!(exp.value("wib_serve_cache_hits_total"), Some(1.0));
        assert_eq!(exp.value("wib_serve_cache_misses_total"), Some(1.0));
        assert_eq!(exp.value("wib_serve_cache_entries"), Some(1.0));
        assert_eq!(exp.value("wib_serve_cache_scavenged_total"), Some(0.0));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn repeated_persist_failures_latch_degraded_mode_and_reprobe_recovers() {
        let dir = tmp("degrade");
        // Wedge the first DEGRADE_THRESHOLD persists, then let the disk
        // "recover": the latch must flip on, absorb puts without
        // touching disk, and flip back off at the next re-probe.
        let wedges: Vec<String> = (1..=DEGRADE_THRESHOLD).map(|n| n.to_string()).collect();
        let plan = FaultPlan::parse(&format!("wedge={}", wedges.join("+"))).unwrap();
        let c = ResultCache::with_faults(Some(dir.clone()), Arc::new(plan));

        for i in 0..DEGRADE_THRESHOLD {
            assert!(!c.is_degraded(), "not latched before the threshold");
            c.put(&format!("aaaa00000000{i:04}"), "{}".into());
        }
        let s = c.stats();
        assert!(s.degraded, "latched after {DEGRADE_THRESHOLD} failures");
        assert_eq!(s.degrade_events, 1);
        assert_eq!(s.persist_failures, DEGRADE_THRESHOLD);

        // Degraded puts stay memory-only until the re-probe cadence.
        for i in 0..REPROBE_EVERY - 1 {
            c.put(&format!("bbbb00000000{i:04}"), "{}".into());
            assert!(c.is_degraded(), "no re-probe before the cadence");
        }
        // The REPROBE_EVERY-th degraded put attempts a real persist,
        // which now succeeds and un-latches the cache.
        c.put("cccc000000000000", "{}".into());
        let s = c.stats();
        assert!(!s.degraded, "recovered at the re-probe: {s:?}");
        assert_eq!(s.degrade_events, 1, "one latch episode, not two");
        assert!(dir.join("cache/cccc000000000000.json").exists());
        // Healthy again: the next put persists normally.
        c.put("dddd000000000000", "{}".into());
        assert!(dir.join("cache/dddd000000000000.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_directory_means_memory_only() {
        let c = ResultCache::new(None);
        c.put("ffff0000ffff0000", "{}".into());
        // Nothing written anywhere; a second memory-only cache misses.
        let c2 = ResultCache::new(None);
        assert!(c2.get("ffff0000ffff0000").is_none());
        assert_eq!(c.stats().entries, 1);
    }
}
