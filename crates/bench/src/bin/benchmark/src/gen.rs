//! Seed-deterministic inputs: the point matrix, ingest rows, the Zipf
//! key stream and the open-loop pacer.

use std::time::Duration;

use nlq_datagen::rng::StdRng;
use nlq_storage::Value;

/// `n` points of `d` independent uniform(-50, 50) coordinates.
///
/// Centred on zero on purpose: `WHERE X1 > 0` then keeps half the rows
/// whatever the seed, so the filtered scan does the same work on every
/// seed (the paper's mixture generator draws its component means per
/// seed, which moves that selectivity by tens of percent).
pub fn points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-50.0..50.0)).collect())
        .collect()
}

/// One ingest row `(key, X1..Xd)`; the features are a pure function of
/// `(seed, key)` so any row can be regenerated for a check.
pub fn feature_row(seed: u64, key: i64, d: usize) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed ^ (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut row = Vec::with_capacity(d + 1);
    row.push(Value::Int(key));
    row.extend((0..d).map(|_| Value::Float(rng.random_range(-50.0..50.0))));
    row
}

/// One ingest envelope: `rows` consecutive keys starting at `first_key`.
pub fn envelope(seed: u64, first_key: i64, rows: usize, d: usize) -> Vec<Vec<Value>> {
    (0..rows as i64)
        .map(|k| feature_row(seed, first_key + k, d))
        .collect()
}

/// Zipf(1.1) sampler over `1..=n`: cumulative weights plus inverse-CDF
/// lookup, so batch scoring hits a skewed hot set the way feature
/// serving does.
pub struct Zipf {
    cum: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Zipf {
        let mut total = 0.0;
        let cum = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(1.1);
                total
            })
            .collect();
        Zipf {
            cum,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn sample(&mut self) -> i64 {
        let total = self.cum.last().copied().unwrap_or(1.0);
        let target = self.rng.random::<f64>() * total;
        let idx = self.cum.partition_point(|&c| c < target);
        (idx.min(self.cum.len() - 1) + 1) as i64
    }

    pub fn batch(&mut self, keys: usize) -> Vec<i64> {
        (0..keys).map(|_| self.sample()).collect()
    }
}

/// Open-loop schedule at a fixed rate: request `k` is due `k / rate`
/// after the start, whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    period: Duration,
}

impl Pacer {
    pub fn new(per_second: f64) -> Pacer {
        Pacer {
            period: Duration::from_secs_f64(1.0 / per_second),
        }
    }

    pub fn due(&self, k: u32) -> Duration {
        self.period * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_repeat_per_seed_and_centre_on_zero() {
        assert_eq!(points(64, 3, 9), points(64, 3, 9));
        assert_ne!(points(64, 3, 9), points(64, 3, 10));
        let p = points(20_000, 2, 5);
        let positive = p.iter().filter(|r| r[0] > 0.0).count() as f64 / p.len() as f64;
        assert!((positive - 0.5).abs() < 0.02, "positive share {positive}");
    }

    #[test]
    fn zipf_is_seed_deterministic_and_skewed() {
        let a = Zipf::new(1_000, 7).batch(512);
        assert_eq!(a, Zipf::new(1_000, 7).batch(512));
        assert_ne!(a, Zipf::new(1_000, 8).batch(512));
        assert!(a.iter().all(|k| (1..=1_000).contains(k)));
        let hot = a.iter().filter(|&&k| k <= 10).count();
        assert!(
            hot > a.len() / 4,
            "only {hot} of {} keys in the top ten",
            a.len()
        );
    }

    #[test]
    fn feature_rows_are_a_function_of_seed_and_key() {
        assert_eq!(feature_row(3, 41, 4), feature_row(3, 41, 4));
        assert_ne!(feature_row(3, 41, 4), feature_row(3, 42, 4));
        assert_ne!(feature_row(3, 41, 4), feature_row(4, 41, 4));
        let env = envelope(3, 100, 5, 2);
        assert_eq!(env.len(), 5);
        assert_eq!(env[4], feature_row(3, 104, 2));
    }

    #[test]
    fn pacer_schedule_is_fixed() {
        let p = Pacer::new(20.0);
        assert_eq!(p.due(0), Duration::ZERO);
        assert_eq!(p.due(20), Duration::from_secs(1));
        assert_eq!(p.due(30), Duration::from_millis(1500));
    }
}
