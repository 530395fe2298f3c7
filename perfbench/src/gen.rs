//! Seeded inputs: request tiles, arrival schedules and partition frames.
//!
//! Everything the program receives is derived from the workload seed,
//! so one seed always yields the same tiles, the same due times and
//! the same frames.

use std::collections::BTreeMap;

use dwt_arch::golden::still_tone_pairs;
use dwt_partition::Stimulus;

/// SplitMix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for stream `stream`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

/// `count` distinct still-tone tiles of `pairs` sample pairs each.
pub fn tile_pool(seed: u64, count: usize, pairs: usize) -> Vec<Vec<(i64, i64)>> {
    (0..count as u64).map(|i| still_tone_pairs(pairs, derive(seed, 1 << 32 | i))).collect()
}

/// Absolute due times (ns from the phase start) of a Poisson arrival
/// process at `rate` per second, covering `[0, span_ns)`.
///
/// Due times are absolute, not sleeps: a late send never pushes later
/// sends back, so the offered rate is the configured one.
pub fn poisson_due_ns(seed: u64, rate: f64, span_ns: u64) -> Vec<u64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut state = derive(seed, 2);
    let mut due = Vec::with_capacity((rate * span_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Uniform in (0, 1]: never ln(0).
        let u = 1.0 - (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate * 1e9;
        if t >= span_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// One frame's stimulus for the `in_even` / `in_odd` ports: a pair per
/// virtual cycle.
pub fn stimulus(pairs: &[(i64, i64)]) -> Stimulus {
    let mut inputs = BTreeMap::new();
    inputs.insert("in_even".to_owned(), pairs.iter().map(|p| p.0).collect());
    inputs.insert("in_odd".to_owned(), pairs.iter().map(|p| p.1).collect());
    Stimulus { cycles: pairs.len() as u64, inputs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_schedules_are_reproduced_from_the_seed() {
        let a = poisson_due_ns(7, 4_000.0, 500_000_000);
        let b = poisson_due_ns(7, 4_000.0, 500_000_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|&t| t < 500_000_000));
        // About 2000 arrivals in half a second at 4000/s.
        assert!((1_800..2_200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn a_different_seed_changes_every_generated_input() {
        assert_ne!(poisson_due_ns(7, 1_000.0, 1e9 as u64), poisson_due_ns(8, 1_000.0, 1e9 as u64));
        assert_ne!(tile_pool(7, 16, 8), tile_pool(8, 16, 8));
        assert_eq!(tile_pool(7, 16, 8), tile_pool(7, 16, 8));
    }

    #[test]
    fn a_frame_feeds_one_pair_per_cycle() {
        let pairs = tile_pool(5, 1, 16).remove(0);
        let stim = stimulus(&pairs);
        assert_eq!(stim.cycles, 16);
        assert_eq!(stim.inputs["in_even"], pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(stim.inputs["in_odd"], pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn pool_tiles_are_distinct_and_sized() {
        let pool = tile_pool(3, 64, 8);
        assert!(pool.iter().all(|t| t.len() == 8));
        let mut uniq = pool.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), pool.len());
    }
}
