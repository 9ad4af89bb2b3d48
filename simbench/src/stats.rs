//! Percentiles, metric records and the result line.

use wib_core::Json;

/// Samples that must lie beyond a reported tail percentile (a p90 of
/// fewer than 100 samples would rest on fewer than ten observations).
pub const TAIL_SAMPLES: usize = 10;

/// Tail percentiles tried, highest first, by [`highest_tail`].
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps `0.9 * 100` at rank 90 despite rounding.
    (((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile of `samples`; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[rank(q, v.len()) - 1])
}

/// Median (nearest rank) of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Nearest-rank `q`-percentile, or `None` unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let r = rank(q, n);
    if n - r < TAIL_SAMPLES {
        return None;
    }
    Some(sorted(samples)[r - 1])
}

/// The highest of p99.9, p99 and p90 that the sample count supports,
/// as `(q, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&q| tail_percentile(samples, q).map(|v| (q, v)))
}

/// Median of a log2-bucket histogram read from a metrics exposition,
/// interpolated linearly inside the bucket that holds it (bucket `i`
/// spans `(2^(i-1), 2^i]`, bucket 0 holds 0 and 1).
pub fn histogram_median(h: &wib_core::Log2Snapshot) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    // The median sample's rank, placed at the middle of its share of the
    // bucket (samples are assumed spread evenly across it).
    let target = rank(0.5, h.count as usize) as f64;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let n = n as f64;
        if seen + n >= target {
            let (lo, hi) = match i {
                0 => (0.0, 1.0),
                _ => ((1u64 << (i - 1)) as f64, (1u64 << i.min(63)) as f64),
            };
            return lo + (hi - lo) * (target - seen - 0.5) / n;
        }
        seen += n;
    }
    0.0
}

/// `num / den`, or `empty` when nothing was measured.
pub fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
}

/// True for a valid metric or workload name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for x in metrics {
        m.set(
            &x.name,
            Json::obj().field("value", x.value).field("unit", x.unit),
        );
    }
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers cannot rely on sorted input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn highest_tail_picks_the_highest_supported_percentile() {
        assert_eq!(highest_tail(&ramp(100)), Some((0.9, 90.0)));
        assert_eq!(highest_tail(&ramp(1000)), Some((0.99, 990.0)));
        assert_eq!(highest_tail(&ramp(10_000)), Some((0.999, 9990.0)));
        assert_eq!(highest_tail(&ramp(50)), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn histogram_median_interpolates_inside_the_bucket() {
        let mut h = wib_core::Log2Snapshot::new();
        for v in [3, 3, 3, 3] {
            h.observe(v);
        }
        // All four samples sit in (2, 4]; the median (rank 2 of 4) sits at
        // the middle of the second quarter of that bucket.
        assert_eq!(histogram_median(&h), 2.75);
        assert_eq!(histogram_median(&wib_core::Log2Snapshot::new()), 0.0);
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(valid_name("engine.stage.commit_ns"));
        assert!(valid_name("paper_sweep"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("latency_ms", "ms", 1.5)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.5,"unit":"ms"}}}"#
        );
    }
}
