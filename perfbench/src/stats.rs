//! The one percentile helper every reported number goes through, for
//! end-to-end and per-layer metrics alike.

/// Fewest samples that must lie strictly beyond a tail percentile
/// before it is reported; a p99 from fewer is the noise of a handful
/// of requests, not a tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile (`0 < p <= 100`) in a
/// sample of `n`: the smallest rank with at least `p`% of the sample at
/// or below it. Integer arithmetic, so `p = 99, n = 1000` is exactly
/// rank 990.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile {p} out of 1..=100");
    (n * p as usize).div_ceil(100).max(1)
}

/// The `p`-th nearest-rank percentile of an ascending sample, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it (the median
/// of a non-empty sample is always reported).
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let rank = nearest_rank(sorted.len(), p);
    if p > 50 && sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Smallest sample for which the `p`-th percentile keeps
/// [`MIN_BEYOND`] samples beyond it (1 for the median and below).
pub fn min_sample(p: u32) -> usize {
    if p <= 50 {
        1
    } else {
        (100 * MIN_BEYOND).div_ceil(100 - p as usize)
    }
}

/// The `p`-th percentile of a time-ordered sample, taken in up to
/// `max_chunks` consecutive chunks of equal size (each large enough
/// for the percentile) and reported as the median of the chunks'
/// values, with the number of chunks. A burst of interference then
/// moves one chunk, not the result. `None` when even one chunk would
/// be too small.
pub fn chunked_percentile(samples: &[f64], p: u32, max_chunks: usize) -> Option<(f64, usize)> {
    let k = (samples.len() / min_sample(p)).min(max_chunks);
    if k == 0 {
        return None;
    }
    let n = samples.len();
    let mut values: Vec<f64> = (0..k)
        .map(|i| {
            let mut chunk = samples[i * n / k..(i + 1) * n / k].to_vec();
            sort(&mut chunk);
            percentile(&chunk, p).expect("chunks are large enough")
        })
        .collect();
    median(&mut values).map(|v| (v, k))
}

/// Sorts a sample in place (timings are finite by construction).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median of a sample, sorting it first; `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    sort(samples);
    percentile(samples, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(1, 50), 1);
        assert_eq!(nearest_rank(2, 50), 1);
        assert_eq!(nearest_rank(3, 50), 2);
        assert_eq!(nearest_rank(4, 50), 2);
        assert_eq!(nearest_rank(1000, 99), 990);
        assert_eq!(nearest_rank(1001, 99), 991);
        assert_eq!(nearest_rank(7, 100), 7);
        assert_eq!(nearest_rank(10, 1), 1);
    }

    #[test]
    fn percentile_selects_sample_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), Some(5.0));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), Some(500.0));
        assert_eq!(percentile(&s, 99), Some(990.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[3.5], 50), Some(3.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990 leaves 9 beyond — refused.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), None);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), Some(990.0));
        // The median is never refused.
        assert_eq!(percentile(&[1.0, 2.0], 50), Some(1.0));
    }

    #[test]
    fn chunks_are_large_enough_for_their_percentile() {
        assert_eq!(min_sample(50), 1);
        assert_eq!(min_sample(99), 1000);
        assert_eq!(min_sample(90), 100);
        let ramp: Vec<f64> = (0..3000).map(f64::from).collect();
        // Three chunks of 1000: p99s 989, 1989, 2989; median 1989.
        assert_eq!(chunked_percentile(&ramp, 99, 5), Some((1989.0, 3)));
        // Capped at two chunks of 1500: p99s 1484 and 2984; the
        // nearest-rank median of two is the lower.
        assert_eq!(chunked_percentile(&ramp, 99, 2), Some((1484.0, 2)));
        // Five chunks of 600 for the median: 299, 899, ..., median 1499.
        assert_eq!(chunked_percentile(&ramp, 50, 5), Some((1499.0, 5)));
        assert_eq!(chunked_percentile(&ramp[..999], 99, 5), None);
        assert_eq!(chunked_percentile(&[], 50, 5), None);
    }

    #[test]
    fn one_slow_chunk_does_not_move_the_result() {
        let mut s: Vec<f64> = vec![10.0; 5000];
        s[1000..2000].fill(1000.0);
        assert_eq!(chunked_percentile(&s, 99, 5), Some((10.0, 5)));
        assert_eq!(chunked_percentile(&s, 50, 5), Some((10.0, 5)));
    }

    #[test]
    fn median_sorts_first() {
        let mut s = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut s), Some(5.0));
        assert_eq!(s, vec![1.0, 5.0, 9.0]);
    }
}
