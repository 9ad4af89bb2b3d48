//! Seeded inputs: the sweep points of each workload and the job stream
//! of `serve_mix`. Everything here is a pure function of the seed.

use wib_rng::StdRng;

/// The machine specs every workload draws from (the service protocol's
/// grammar, see `wib_serve::protocol::parse_machine_spec`).
pub const SPECS: [&str; 6] = [
    "base",
    "wib:512",
    "wib2k",
    "nonbanked:4",
    "base,backend=runahead",
    "wib:w=2048,backend=delay_track",
];

/// The two machines bench-v1 timed (`results/BENCH_wib.json`).
pub const BENCH_V1_SPECS: [&str; 2] = ["base", "wib2k"];

/// Dynamic instruction count of every eval-scale kernel, run to `halt`
/// on the reference interpreter. Kernels that had not halted after 30M
/// instructions are listed at 30M, a lower bound.
pub const KERNEL_LENGTHS: [(&str, u64); 18] = [
    ("bzip2", 25_165_838),
    ("gcc", 4_659_981),
    ("gzip", 30_000_000),
    ("parser", 8_518_766),
    ("perlbmk", 4_400_009),
    ("vortex", 2_281_886),
    ("vpr", 3_690_157),
    ("applu", 10_814_165),
    ("art", 3_145_802),
    ("facerec", 30_000_000),
    ("galgel", 30_000_000),
    ("mgrid", 30_000_000),
    ("swim", 30_000_000),
    ("wupwise", 30_000_000),
    ("em3d", 13_519_378),
    ("mst", 2_047_675),
    ("perimeter", 12_960_068),
    ("treeadd", 30_000_000),
];

/// The kernels that run at least 10M instructions before halting: the
/// only ones a `skip_long` skip can land inside.
pub const LONG_KERNELS: [&str; 11] = [
    "bzip2",
    "gzip",
    "applu",
    "facerec",
    "galgel",
    "mgrid",
    "swim",
    "wupwise",
    "em3d",
    "perimeter",
    "treeadd",
];

/// `paper_sweep` protocol: detailed instructions, nominal warm-up and
/// the warm-up jitter's half-width.
pub const SWEEP_INSTS: u64 = 200_000;
pub const SWEEP_WARMUP: u64 = 200_000;
pub const SWEEP_JITTER: u64 = 2_048;

/// `skip_long` protocol: skip range, skips per kernel (one per stratum
/// of the range, so every seed spreads its skips the same way) and the
/// detailed instructions measured after each skip.
pub const SKIP_MIN: u64 = 1_000_000;
pub const SKIP_MAX: u64 = 10_000_000;
pub const SKIPS_PER_KERNEL: u64 = 5;
pub const SKIP_INSTS: u64 = 20_000;

/// `serve_mix` protocol: instructions per job; one job in every
/// `NEW_EVERY` is new, the others repeat an earlier point.
pub const JOB_INSTS: u64 = 20_000;
pub const NEW_EVERY: u64 = 8;

/// One simulation point: a kernel on a machine after a warm-up.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Point {
    pub kernel: &'static str,
    pub spec: &'static str,
    pub warmup: u64,
    pub insts: u64,
}

/// The kernel's dynamic length, if it is an eval kernel.
pub fn kernel_length(kernel: &str) -> Option<u64> {
    KERNEL_LENGTHS
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|&(_, n)| n)
}

/// Check that every point's warm-up plus measured instructions ends
/// before its kernel halts. A warm-up that runs past `halt` panics in the
/// engine (see the benchmark's README).
pub fn check_within_length(points: &[Point]) -> Result<(), String> {
    for p in points {
        let len = kernel_length(p.kernel).ok_or(format!("unknown kernel {}", p.kernel))?;
        if p.warmup + p.insts >= len {
            return Err(format!(
                "{} on {}: warm-up {} + {} instructions reaches the kernel's length {len}",
                p.kernel, p.spec, p.warmup, p.insts
            ));
        }
    }
    Ok(())
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Every eval kernel on every spec in [`SPECS`], each warm-up jittered
/// by up to [`SWEEP_JITTER`] either way, in seed-shuffled order.
pub fn paper_sweep(seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_7065_725f_7377);
    let mut points = Vec::new();
    for &(kernel, _) in &KERNEL_LENGTHS {
        for spec in SPECS {
            let warmup = SWEEP_WARMUP - SWEEP_JITTER + rng.random_range(0..2 * SWEEP_JITTER);
            points.push(Point {
                kernel,
                spec,
                warmup,
                insts: SWEEP_INSTS,
            });
        }
    }
    shuffle(&mut points, &mut rng);
    points
}

/// [`SKIPS_PER_KERNEL`] skips per long kernel, one in each equal stratum
/// of `[SKIP_MIN, SKIP_MAX)`, each measured on `base` and `wib2k`, in
/// seed-shuffled order. Within a stratum the kernels take evenly spaced
/// slots in a seed-shuffled order, all shifted by one seeded offset, so
/// every seed draws nearly the same set of skip lengths (and the same
/// point-latency median), only assigned to kernels differently.
pub fn skip_long(seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x736b_6970_5f6c_6f6e);
    let stratum = (SKIP_MAX - SKIP_MIN) / SKIPS_PER_KERNEL;
    let slot = stratum / LONG_KERNELS.len() as u64;
    let mut skips = vec![Vec::new(); LONG_KERNELS.len()];
    for s in 0..SKIPS_PER_KERNEL {
        let mut slots: Vec<u64> = (0..LONG_KERNELS.len() as u64).collect();
        shuffle(&mut slots, &mut rng);
        let offset = rng.random_range(0..slot);
        for (k, j) in slots.into_iter().enumerate() {
            skips[k].push(SKIP_MIN + s * stratum + j * slot + offset);
        }
    }
    let mut points = Vec::new();
    for (kernel, skips) in LONG_KERNELS.into_iter().zip(skips) {
        for warmup in skips {
            for spec in BENCH_V1_SPECS {
                points.push(Point {
                    kernel,
                    spec,
                    warmup,
                    insts: SKIP_INSTS,
                });
            }
        }
    }
    shuffle(&mut points, &mut rng);
    points
}

/// One `serve_mix` client's job sequence. Every [`NEW_EVERY`]th job is
/// new: it takes the next kernel and spec from a seed-shuffled pass over
/// all of them (so every run mixes expensive and cheap points in the same
/// proportions), and its warm-up of `JOB_INSTS` plus a per-client
/// counter makes its content digest unique, so it always misses the
/// result cache. The others repeat one of this client's own completed
/// jobs, drawn by the seed, so they always hit. The sequence depends
/// only on the seed and the client number.
pub struct JobStream {
    rng: StdRng,
    client: u64,
    clients: u64,
    combos: Vec<(&'static str, &'static str)>,
    sent: u64,
    fresh: u64,
    done: Vec<Point>,
}

impl JobStream {
    pub fn new(seed: u64, client: u64, clients: u64) -> JobStream {
        let combos = KERNEL_LENGTHS
            .iter()
            .flat_map(|&(k, _)| SPECS.iter().map(move |&s| (k, s)))
            .collect();
        JobStream {
            rng: StdRng::seed_from_u64(seed ^ 0x7365_7276_655f_6d78 ^ (client << 48)),
            client,
            clients,
            combos,
            sent: 0,
            fresh: 0,
            done: Vec::new(),
        }
    }

    /// The next job, and whether it repeats an earlier one.
    pub fn next_job(&mut self) -> (Point, bool) {
        let repeat = !self.sent.is_multiple_of(NEW_EVERY) && !self.done.is_empty();
        self.sent += 1;
        if repeat {
            let i = self.rng.random_range(0..self.done.len());
            return (self.done[i].clone(), true);
        }
        let at = (self.fresh % self.combos.len() as u64) as usize;
        if at == 0 {
            shuffle(&mut self.combos, &mut self.rng);
        }
        let (kernel, spec) = self.combos[at];
        let warmup = JOB_INSTS + self.fresh * self.clients + self.client;
        self.fresh += 1;
        (
            Point {
                kernel,
                spec,
                warmup,
                insts: JOB_INSTS,
            },
            false,
        )
    }

    /// Record that a new job completed, making it eligible for repeats.
    pub fn completed(&mut self, p: Point) {
        self.done.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_points() {
        assert_eq!(paper_sweep(7), paper_sweep(7));
        assert_eq!(skip_long(7), skip_long(7));
        assert_ne!(paper_sweep(7), paper_sweep(8));
        assert_ne!(skip_long(7), skip_long(8));
    }

    #[test]
    fn workloads_have_enough_points_for_a_p90() {
        for points in [paper_sweep(1), skip_long(1)] {
            assert!(points.len() >= 100, "{} points", points.len());
            let distinct: HashSet<&Point> = points.iter().collect();
            assert_eq!(distinct.len(), points.len());
        }
    }

    #[test]
    fn every_drawn_skip_ends_before_its_kernel_halts() {
        for seed in 0..50 {
            check_within_length(&paper_sweep(seed)).expect("paper_sweep");
            check_within_length(&skip_long(seed)).expect("skip_long");
            for p in skip_long(seed) {
                assert!((SKIP_MIN..SKIP_MAX).contains(&p.warmup));
            }
        }
        let past_halt = Point {
            kernel: "gcc",
            spec: "base",
            warmup: 5_000_000,
            insts: 20_000,
        };
        assert!(check_within_length(&[past_halt]).is_err());
    }

    #[test]
    fn long_kernels_are_the_ones_past_ten_million() {
        for (k, len) in KERNEL_LENGTHS {
            assert_eq!(LONG_KERNELS.contains(&k), len >= SKIP_MAX, "{k}");
        }
    }

    #[test]
    fn job_stream_is_seeded_and_mixes_repeats() {
        // Long enough for one full pass of new jobs over every kernel/spec.
        let combos_total = KERNEL_LENGTHS.len() * SPECS.len();
        let n = combos_total * NEW_EVERY as usize;
        let run = |seed| {
            let mut s = JobStream::new(seed, 1, 2);
            (0..n)
                .map(|_| {
                    let (p, repeat) = s.next_job();
                    if !repeat {
                        s.completed(p.clone());
                    }
                    (p, repeat)
                })
                .collect::<Vec<_>>()
        };
        let a = run(3);
        assert_eq!(a, run(3));
        let repeats = a.iter().filter(|(_, r)| *r).count();
        assert_eq!(repeats, n - combos_total);
        // The first pass of new jobs covers every kernel on every spec once.
        let combos: HashSet<(&str, &str)> = a
            .iter()
            .filter(|(_, r)| !r)
            .map(|(p, _)| (p.kernel, p.spec))
            .collect();
        assert_eq!(combos.len(), combos_total);
        // New jobs never collide, within a client or across clients.
        let mut other = JobStream::new(3, 0, 2);
        let mut fresh: HashSet<Point> = a
            .iter()
            .filter(|(_, r)| !r)
            .map(|(p, _)| p.clone())
            .collect();
        for _ in 0..200 {
            let (p, repeat) = other.next_job();
            if !repeat {
                assert!(fresh.insert(p.clone()));
                other.completed(p);
            }
        }
    }
}
