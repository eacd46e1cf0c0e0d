//! Seeded open-loop arrival schedules.

use std::time::Duration;

use crate::sys::SplitMix;

/// Due times (offsets from the start of the phase) of a Poisson arrival
/// process with mean `rate` per second, covering `span`. The same seed
/// always gives the same schedule.
pub fn poisson(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix::new(seed);
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        t += -rng.next_f64().ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let span = Duration::from_secs(2);
        let a = poisson(11, 5000.0, span);
        assert_eq!(a, poisson(11, 5000.0, span));
        assert_ne!(a, poisson(12, 5000.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.last().is_some_and(|t| *t < span));
    }

    #[test]
    fn hits_its_mean_rate() {
        for seed in [1, 2, 3] {
            let s = poisson(seed, 5000.0, Duration::from_secs(20));
            let rate = s.len() as f64 / 20.0;
            assert!((rate - 5000.0).abs() < 50.0, "seed {seed}: {rate} flows/s");
            // Exponential gaps: their standard deviation equals their mean.
            let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            assert!(
                (var.sqrt() / mean - 1.0).abs() < 0.03,
                "seed {seed}: cv {}",
                var.sqrt() / mean
            );
        }
    }
}
