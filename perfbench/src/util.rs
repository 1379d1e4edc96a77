//! Order statistics, the machine record, and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The lowest of repeated timings of the same work (NaN when none).
pub fn best(times: &[f64]) -> f64 {
    times.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 11] = [
    99.99, 99.95, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0,
];

/// The tail of an ascending slice: the highest ladder percentile with at
/// least ten samples above its rank, as `(percentile, value, beyond)`.
/// Falls back to the median when fewer than twenty samples exist. The
/// percentile depends only on the sample count.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50.0);
    (p, percentile(sorted, p), n - rank(n, p))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `splitmix64`: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .map(|v| v.trim().to_string())
}

/// High-water resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_status("VmHWM:")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPUs this process may run on (what `nproc` prints), read from the
/// affinity list; falls back to `available_parallelism`.
pub fn nproc() -> usize {
    let from_affinity = proc_status("Cpus_allowed_list:").map(|list| {
        list.split(',')
            .map(|part| match part.split_once('-') {
                Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                    (Ok(a), Ok(b)) if b >= a => b - a + 1,
                    _ => 0,
                },
                None => usize::from(part.parse::<usize>().is_ok()),
            })
            .sum::<usize>()
    });
    match from_affinity {
        Some(n) if n > 0 => n,
        _ => available_parallelism(),
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Collected output of one run: the run record, the metrics, and the
/// correctness tally, printed as text lines and then one JSON line.
#[derive(Default)]
pub struct Report {
    info: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Outputs checked.
    attempted: u64,
    /// Checked outputs that were wrong.
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records one line of the run record (machine, inputs, method).
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records one metric; a value that is not finite fails the run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one checked recovery; `problem` is `Some` when it was wrong.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts one wrong output that is not a single recovery (a store
    /// invariant, a staged-vs-reference mismatch).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(problem);
        }
    }

    /// Prints the run record and metrics, then the JSON result as the
    /// last line of standard output. Returns whether every check passed.
    pub fn print(&self) -> bool {
        for (k, v) in &self.info {
            println!("# {k}: {v}");
        }
        for p in &self.failures {
            eprintln!("FAILED: {p}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("{name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "failed_share = {} (of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// Each input's best (lowest) time over the repetitions of a run.
///
/// On a shared host other tenants slow the virtual CPUs in bursts shorter
/// than a call, and the share of time they do so drifts from minute to
/// minute. Over the tens of rounds of a run nearly every input has a call
/// that no burst hit, so its best time leaves the bursts out, where a
/// median over rounds, or the wall time of a whole pass, follows their
/// share. Slower changes of the host's own speed still show. Time metrics
/// are built from these best times; the passes' own wall times are
/// printed beside them in the run record.
pub struct Best(Vec<f64>);

impl Best {
    pub fn new(inputs: usize) -> Self {
        Best(vec![f64::INFINITY; inputs])
    }

    /// Records one timing of input `i`.
    pub fn add(&mut self, i: usize, time: f64) {
        self.0[i] = self.0[i].min(time);
    }

    /// Sum of the best times: one pass over the inputs at the program's
    /// own speed, one input after another.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn times(&self) -> &[f64] {
        &self.0
    }
}

/// Latency summary over inputs: the p50 and the tail of per-input times
/// (each input's best call, see `Best`). The tail's percentile is fixed
/// by the input count.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_percentile: f64,
    pub inputs_beyond: usize,
    pub inputs: usize,
}

impl Latency {
    pub fn of(per_input: &[f64]) -> Self {
        let mut v = per_input.to_vec();
        v.sort_by(f64::total_cmp);
        let (tail_percentile, tail, inputs_beyond) = tail(&v);
        Latency {
            p50: percentile(&v, 50.0),
            tail,
            tail_percentile,
            inputs_beyond,
            inputs: v.len(),
        }
    }

    /// The run-record line naming the tail percentile and its support.
    pub fn describe(&self) -> String {
        format!(
            "p{} over {} inputs ({} beyond), each input its best call over the run's rounds",
            self.tail_percentile, self.inputs, self.inputs_beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value, beyond) = tail(&v);
        assert_eq!(p, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(beyond, 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        // Per input, the best time over rounds: stalled rounds are
        // ignored while one round ran that input at full speed.
        let mut b = Best::new(v.len());
        for (i, x) in v.iter().enumerate() {
            b.add(i, x * 100.0);
            b.add(i, *x);
            b.add(i, x * 1.5);
        }
        let l = Latency::of(b.times());
        assert_eq!((l.p50, l.tail, l.inputs), (500.0, 990.0, 1000));
        assert_eq!(b.sum(), 500_500.0);
        assert_eq!(best(&[5.0, 1.0, 3.0]), 1.0);
        assert!(best(&[]).is_nan());
    }
}
