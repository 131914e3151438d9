//! Estimators shared by the runner and the repeat check.
//!
//! Every end-to-end number is a median: of per-job wall times, or of
//! per-block rates. Noise on a shared host is one-sided (a stall only
//! ever slows a block down) and arrives in bursts, so a median over
//! blocks ignores it where a mean over the run would not.

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A sorted copy (NaNs are not expected; they sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Linear-interpolated percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 / 50
/// that still has at least ten samples beyond it, and its value — the
/// tail a sample of this size can support.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    // Per-mille steps in integers: `100.0 * (1.0 - 0.9)` is not 10.
    for permille in [999, 990, 950, 900, 750] {
        if sorted.len() * (1000 - permille) / 1000 >= 10 {
            let p = permille as f64 / 10.0;
            return (p, percentile(sorted, p));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// the repeat check computes the same spread the driver does. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let len = data.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Cut `samples` — `(work, cost)` pairs in completion order — into at
/// most `blocks` contiguous blocks of (nearly) equal sample count and
/// return each block's `work / cost`.
pub fn block_rates(samples: &[(f64, f64)], blocks: usize) -> Vec<f64> {
    let n = samples.len();
    let blocks = blocks.clamp(1, n.max(1));
    (0..blocks)
        .filter_map(|b| {
            let block = &samples[b * n / blocks..(b + 1) * n / blocks];
            let work: f64 = block.iter().map(|s| s.0).sum();
            let cost: f64 = block.iter().map(|s| s.1).sum();
            (cost > 0.0).then(|| work / cost)
        })
        .collect()
}

/// The median block's rate: see [`block_rates`].
pub fn median_block_rate(samples: &[(f64, f64)], blocks: usize) -> f64 {
    median(&block_rates(samples, blocks))
}
