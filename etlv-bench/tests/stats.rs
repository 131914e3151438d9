//! The estimators every reported number goes through.

use etlv_bench::stats::{
    block_rates, median, median_block_rate, percentile, quartiles, sorted, tail,
};

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&v, 100.0), 40.0);
    assert_eq!(percentile(&v, 50.0), 25.0);
    assert!((percentile(&v, 90.0) - 37.0).abs() < 1e-9);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn median_sorts_first() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let n = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
    assert_eq!(tail(&n(20)).0, 50.0, "20 samples support only the median");
    assert_eq!(tail(&n(40)).0, 75.0);
    assert_eq!(tail(&n(100)).0, 90.0);
    assert_eq!(tail(&n(200)).0, 95.0);
    assert_eq!(tail(&n(1_000)).0, 99.0);
    assert_eq!(tail(&n(10_000)).0, 99.9);
    let (pct, value) = tail(&n(1_001));
    assert_eq!((pct, value), (99.0, 990.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
}

#[test]
fn blocks_have_equal_sample_counts_and_use_every_sample() {
    let samples: Vec<(f64, f64)> = (0..25).map(|_| (100.0, 1.0)).collect();
    let rates = block_rates(&samples, 10);
    assert_eq!(rates.len(), 10);
    assert!(rates.iter().all(|r| *r == 100.0));
    // Fewer samples than blocks: every sample is its own block.
    assert_eq!(block_rates(&samples[..3], 10).len(), 3);
    assert!(block_rates(&[], 10).is_empty());
}

#[test]
fn a_stalled_block_does_not_move_the_median_block_rate() {
    let mut samples: Vec<(f64, f64)> = (0..40).map(|_| (1_000.0, 1.0)).collect();
    let steady = median_block_rate(&samples, 10);
    // A host stall makes four consecutive cycles take five times as long.
    for s in &mut samples[12..16] {
        s.1 = 5.0;
    }
    assert_eq!(median_block_rate(&samples, 10), steady);
    let mean = samples.iter().map(|s| s.0).sum::<f64>() / samples.iter().map(|s| s.1).sum::<f64>();
    assert!(
        mean < 0.75 * steady,
        "the mean over the run does move: {mean}"
    );
}
