//! Seeded input generation. Every input a run feeds the system — stored
//! KV caches, token ids and arrival times — comes from here, before the
//! timed phase starts.

use alaya_llm::{KvCache, ModelConfig};

/// SplitMix64: a small, fast generator whose whole state is one `u64`, so
/// a seed fully determines every stream derived from it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `label` under `seed`.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut r = Self(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal (Box–Muller).
    pub fn gaussian(&mut self) -> f32 {
        let u1 = 1.0 - self.unit(); // (0, 1], keeps ln finite
        let u2 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    fn gaussian_vec(&mut self, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| self.gaussian()).collect()
    }
}

/// `n` byte-level token ids (the tokenizer's non-special range).
pub fn tokens(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(256) as u32).collect()
}

/// A KV cache of `n` tokens with standard-normal keys and values — the
/// shape of a context another engine instance prefilled and handed to
/// `Db::import`.
pub fn kv_cache(rng: &mut Rng, model: &ModelConfig, n: usize) -> KvCache {
    let mut kv = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
    for _ in 0..n {
        for layer in 0..model.n_layers {
            let keys: Vec<Vec<f32>> = (0..model.n_kv_heads)
                .map(|_| rng.gaussian_vec(model.head_dim))
                .collect();
            let values: Vec<Vec<f32>> = (0..model.n_kv_heads)
                .map(|_| rng.gaussian_vec(model.head_dim))
                .collect();
            kv.push_token(layer, &keys, &values);
        }
    }
    kv
}

/// Arrival offsets (seconds from the phase start) at `rate` per second
/// over `[0, horizon_s)`, ascending, with Erlang-`shape` gaps: `shape` 1
/// is a Poisson process, larger shapes are less bursty (the gaps'
/// coefficient of variation is `1/sqrt(shape)`). The process is
/// conditioned on its expected count, `round(rate * horizon_s)`, so every
/// seed offers the same load and only the timing of arrivals varies.
pub fn arrival_schedule(rng: &mut Rng, rate: f64, horizon_s: f64, shape: u32) -> Vec<f64> {
    assert!(
        rate > 0.0 && horizon_s > 0.0 && shape > 0,
        "rate, horizon and shape must be positive"
    );
    let n = (rate * horizon_s).round() as usize;
    let mut exp = || -(1.0 - rng.unit()).ln();
    // n arrivals split the horizon into n + 1 gaps; scaling the partial
    // sums by the total conditions the process on exactly n arrivals.
    let gaps: Vec<f64> = (0..=n).map(|_| (0..shape).map(|_| exp()).sum()).collect();
    let total: f64 = gaps.iter().sum();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g;
            t / total * horizon_s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let model = ModelConfig::tiny();
        let a = kv_cache(&mut Rng::new(9), &model, 5);
        let b = kv_cache(&mut Rng::new(9), &model, 5);
        let c = kv_cache(&mut Rng::new(10), &model, 5);
        assert_eq!(a.head(1, 1).keys.as_flat(), b.head(1, 1).keys.as_flat());
        assert_ne!(a.head(1, 1).keys.as_flat(), c.head(1, 1).keys.as_flat());
        assert_eq!(a.seq_len(0), 5);
        assert_eq!(
            tokens(&mut Rng::stream(1, 2), 64),
            tokens(&mut Rng::stream(1, 2), 64)
        );
        assert_ne!(
            tokens(&mut Rng::stream(1, 2), 64),
            tokens(&mut Rng::stream(1, 3), 64)
        );
    }

    #[test]
    fn tokens_stay_in_byte_range() {
        let t = tokens(&mut Rng::new(1), 10_000);
        assert!(t.iter().all(|&x| x < 256));
        assert!(t.iter().any(|&x| x > 200));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(4);
        let n = 200_000;
        let v: Vec<f64> = (0..n).map(|_| rng.gaussian() as f64).collect();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn schedule_is_sorted_bounded_and_at_rate() {
        for shape in [1, 4] {
            let s = arrival_schedule(&mut Rng::new(2), 50.0, 200.0, shape);
            assert_eq!(s.len(), 10_000);
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            assert!(s.iter().all(|&t| (0.0..200.0).contains(&t)));
            let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
            let want = 1.0 / (shape as f64).sqrt();
            assert!((sd / m - want).abs() < 0.05, "shape {shape}: cv {}", sd / m);
            assert_eq!(s, arrival_schedule(&mut Rng::new(2), 50.0, 200.0, shape));
        }
        assert_eq!(arrival_schedule(&mut Rng::new(3), 8.5, 20.0, 4).len(), 170);
    }
}
