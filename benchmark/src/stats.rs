//! Order statistics used by every report: the percentile rule for op
//! latencies and the median/quartile rule the acceptance check uses.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)` (1-based).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ops per block of [`block_tail`].
pub const TAIL_BLOCK: usize = 20;

/// `op_tail_ms`, the tail latency that survives interference bursts:
/// the median, over consecutive blocks of [`TAIL_BLOCK`] ops in
/// completion order, of each block's second-slowest op (its
/// nearest-rank p95). On the sandbox a burst of a few hundred
/// milliseconds hits 2–10 % of a window's ops, which puts the pooled
/// p95 exactly on the edge between disturbed and undisturbed ops (its
/// run-to-run spread reached 27 %); a burst spoils only the one or two
/// blocks it falls in, and the median ignores them.
///
/// It is *not* a p95 and is not named one. It moves when slow ops are
/// a property of the program — at least two in most blocks, i.e. one
/// op in ten or more often — and stays put when they come in a few
/// clumps, as the host's do. Rarer stalls show in the pooled
/// `op_p95_ms` (one in twenty) and in `throughput_mbps` (all of them).
/// A trailing partial block is dropped; a series shorter than one
/// block is a single block.
pub fn block_tail(series: &[f64]) -> f64 {
    let of = |ops: &[f64]| percentile(&sorted(ops), 95.0);
    let tails: Vec<f64> = series.chunks_exact(TAIL_BLOCK).map(of).collect();
    if tails.is_empty() {
        of(series)
    } else {
        median(&tails)
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median with the usual mean-of-middle-two rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method) computes them — the rule the acceptance check applies to
/// ten runs, reproduced so `aa` predicts its verdict.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 120.0);
        assert_eq!(percentile(&v, 95.0), 228.0);
        assert_eq!(percentile(&v, 100.0), 240.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 0-th percentile clamps to the minimum instead of underflowing.
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn block_tail_ignores_a_burst_and_sees_a_habit() {
        // 12 blocks of 20 ops at 10 ms whose two slowest take 12 and
        // 13 ms; a burst makes one block's ops all take 50 ms.
        let mut series = Vec::new();
        for block in 0..12 {
            for op in 0..20 {
                series.push(match (block, op) {
                    (5, _) => 50.0,
                    (_, 7) => 12.0,
                    (_, 13) => 13.0,
                    _ => 10.0,
                });
            }
        }
        // The second-slowest op of the typical block.
        assert_eq!(block_tail(&series), 12.0);
        // The pooled p95 sits inside the burst.
        assert_eq!(percentile(&sorted(&series), 95.0), 50.0);
        // A partial trailing block is dropped; a short series is one block.
        series.extend([99.0; 7]);
        assert_eq!(block_tail(&series), 12.0);
        assert_eq!(block_tail(&[1.0, 2.0, 3.0]), 3.0);

        // A stall every 10th op is the program's habit: it moves the
        // tail. One every 30th does not — that is the pooled p95's and
        // the throughput's to show.
        let every = |k: usize| -> Vec<f64> {
            (0..240)
                .map(|i| if i % k == 0 { 40.0 } else { 10.0 })
                .collect()
        };
        assert_eq!(block_tail(&every(10)), 40.0);
        assert_eq!(block_tail(&every(30)), 10.0);
        assert_eq!(percentile(&sorted(&every(15)), 95.0), 40.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
