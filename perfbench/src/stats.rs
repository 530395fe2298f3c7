//! Order statistics.

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` percent of the samples are at or below it. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Samples beyond percentile `q`: how well the sample supports it.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// Rate of timed events `(t_ns, value)` in time order: the values after
/// the first per second between the first and the last event.
pub fn rate(events: &[(u64, f64)]) -> Option<f64> {
    let (first, last) = (events.first()?, events.last()?);
    (last.0 > first.0)
        .then(|| events[1..].iter().map(|e| e.1).sum::<f64>() / ((last.0 - first.0) as f64 / 1e9))
}

/// Percentile `q` of each of the consecutive chunks of `samples`, as
/// many chunks as keep at least `per` samples in each (one chunk when
/// there are fewer).
pub fn chunk_percentiles(samples: &[f64], q: f64, per: usize) -> Vec<f64> {
    let k = (samples.len() / per).max(1);
    let size = samples.len().div_ceil(k).max(1);
    samples.chunks(size).filter_map(|c| percentile(c, q)).collect()
}

/// The quartile of per-slice `values` on the better side: the upper
/// quartile when higher is better, the lower one otherwise.
///
/// A neighbour on a shared host only ever slows a slice down, and its
/// load comes and goes over seconds, so the better quartile tracks the
/// program on a quiet host more steadily than the median does, while a
/// single lucky slice still cannot set it.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> Option<f64> {
    percentile(values, if higher_is_better { 75.0 } else { 25.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The oracle: sort, then count ranks directly — the smallest
    /// sample whose share of samples at or below it reaches `q`.
    fn oracle(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        for (i, &v) in sorted.iter().enumerate() {
            if (i + 1) as f64 * 100.0 >= q * n as f64 {
                return v;
            }
        }
        sorted[n - 1]
    }

    #[test]
    fn nearest_rank_percentiles_match_a_sort_oracle() {
        let mut state = 11;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000, 1234] {
            let samples: Vec<f64> = (0..n).map(|_| (splitmix(&mut state) % 997) as f64).collect();
            for q in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&samples, q), Some(oracle(&samples, q)), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn small_cases_are_exact() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(percentile(&s, 99.0), Some(5.0));
        assert_eq!(percentile(&s, 20.0), Some(1.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn rates_run_from_first_to_last_event() {
        // Ten events 1 ms apart: nine values over 9 ms.
        let events: Vec<(u64, f64)> = (0..10u64).map(|i| (i * 1_000_000, 2.0)).collect();
        let r = rate(&events).unwrap();
        assert!((r - 2000.0).abs() < 1e-6, "{r}");
        assert_eq!(rate(&events[..1]), None);
        assert_eq!(rate(&[]), None);
    }

    #[test]
    fn chunks_keep_at_least_per_samples() {
        let lat: Vec<f64> = (0..2000).map(|i| (i % 100) as f64).collect();
        let chunks = chunk_percentiles(&lat, 99.0, 1000);
        assert_eq!(chunks, vec![98.0, 98.0]);
        // Fewer samples than a chunk: one chunk over all of them.
        assert_eq!(chunk_percentiles(&lat[..500], 100.0, 1000), vec![99.0]);
        assert!(chunk_percentiles(&[], 99.0, 1000).is_empty());
    }

    #[test]
    fn the_better_quartile_ignores_slow_slices_and_one_lucky_one() {
        // Three slices slowed by a neighbour, one lucky, four typical.
        let rates = [100.0, 101.0, 99.0, 60.0, 55.0, 70.0, 140.0, 100.0];
        assert_eq!(better_quartile(&rates, true), Some(100.0));
        let ms: Vec<f64> = rates.iter().map(|r| 1e3 / r).collect();
        assert_eq!(better_quartile(&ms, false), Some(1e3 / 101.0));
        assert_eq!(better_quartile(&[], true), None);
    }
}
