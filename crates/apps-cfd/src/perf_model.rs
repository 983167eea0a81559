//! The nekRS performance-prediction model.
//!
//! §V-A: "A model was developed for nekRS to predict the performance of a
//! later part of the simulation early in the process, allowing much
//! shorter and more resource-efficient benchmarks."
//!
//! The mechanism: early time steps of an incompressible-flow run are
//! expensive because the pressure solver starts from poor initial guesses;
//! as the flow develops, the projection-based initial guesses improve and
//! the per-step iteration count settles towards an asymptote. The model
//! fits the decaying-iteration profile from a short prefix of the run and
//! extrapolates the total time of the full 600-step benchmark.

/// Per-step pressure-iteration counts of a run prefix.
#[derive(Debug, Clone)]
pub struct StepProfile {
    pub iterations: Vec<f64>,
}

/// The fitted settling model: iterations(t) ≈ asymptote + amplitude·rⁿ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettlingFit {
    pub asymptote: f64,
    pub amplitude: f64,
    /// Geometric decay per step (0 < r < 1).
    pub decay: f64,
}

impl SettlingFit {
    /// Iterations predicted for step `n` (0-based).
    pub fn at(&self, n: usize) -> f64 {
        self.asymptote + self.amplitude * self.decay.powi(n as i32)
    }

    /// Total iterations predicted over `steps` steps.
    pub fn total(&self, steps: usize) -> f64 {
        // Geometric partial sum.
        let geo = if (1.0 - self.decay).abs() < 1e-12 {
            steps as f64
        } else {
            (1.0 - self.decay.powi(steps as i32)) / (1.0 - self.decay)
        };
        self.asymptote * steps as f64 + self.amplitude * geo
    }
}

/// Synthesize a nekRS-like iteration profile (used by tests and the model
/// bench): starts at `initial` iterations and settles to `asymptote`.
pub fn synthetic_profile(steps: usize, initial: f64, asymptote: f64, decay: f64) -> StepProfile {
    StepProfile {
        iterations: (0..steps)
            .map(|n| asymptote + (initial - asymptote) * decay.powi(n as i32))
            .collect(),
    }
}

/// Fit the settling model to a measured prefix. The decay is estimated
/// from successive *differences* `d[n] = x[n+1] − x[n]`, whose ratio equals
/// the decay exactly and is independent of the (unknown) asymptote; the
/// amplitude and asymptote then follow in closed form.
pub(crate) fn fit_settling(profile: &StepProfile) -> Option<SettlingFit> {
    let n = profile.iterations.len();
    if n < 8 {
        return None;
    }
    let x = &profile.iterations;
    let diffs: Vec<f64> = x.windows(2).map(|w| w[1] - w[0]).collect();
    // Median ratio of successive differences over the informative head.
    let mut ratios: Vec<f64> = diffs
        .windows(2)
        .take(n / 2)
        .filter(|w| w[0].abs() > 1e-9)
        .map(|w| (w[1] / w[0]).clamp(0.0, 0.9999))
        .collect();
    if ratios.is_empty() {
        // Already settled: a flat profile.
        let asymptote = x.iter().sum::<f64>() / n as f64;
        return Some(SettlingFit {
            asymptote,
            amplitude: 0.0,
            decay: 0.5,
        });
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let decay = ratios[ratios.len() / 2];
    // d[0] = amplitude · (decay − 1) ⇒ amplitude; asymptote = x[0] − amp.
    let amplitude = diffs[0] / (decay - 1.0);
    let asymptote = x[0] - amplitude;
    Some(SettlingFit {
        asymptote,
        amplitude,
        decay,
    })
}

/// Predict the total cost of `full_steps` from a `prefix` of measured
/// per-step iteration counts; returns (predicted total iterations, fit).
pub fn predict_run(profile: &StepProfile, full_steps: usize) -> Option<(f64, SettlingFit)> {
    let fit = fit_settling(profile)?;
    Some((fit.total(full_steps), fit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_synthetic_parameters() {
        let profile = synthetic_profile(60, 120.0, 30.0, 0.9);
        let fit = fit_settling(&profile).unwrap();
        assert!((fit.decay - 0.9).abs() < 0.02, "decay {}", fit.decay);
        assert!(
            (fit.asymptote - 30.0).abs() < 2.0,
            "asymptote {}",
            fit.asymptote
        );
    }

    #[test]
    fn short_prefix_predicts_the_full_run() {
        // The paper's use case: measure 60 steps, predict the 600-step
        // benchmark within a few percent.
        let truth = synthetic_profile(600, 120.0, 30.0, 0.92);
        let true_total: f64 = truth.iterations.iter().sum();
        let prefix = StepProfile {
            iterations: truth.iterations[..60].to_vec(),
        };
        let (predicted, _) = predict_run(&prefix, 600).unwrap();
        let rel = (predicted - true_total).abs() / true_total;
        assert!(rel < 0.05, "prediction off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn prediction_beats_naive_extrapolation() {
        // Naively scaling the prefix mean over-estimates (the early steps
        // are the expensive ones).
        let truth = synthetic_profile(600, 150.0, 25.0, 0.9);
        let true_total: f64 = truth.iterations.iter().sum();
        let prefix = StepProfile {
            iterations: truth.iterations[..50].to_vec(),
        };
        let naive = prefix.iterations.iter().sum::<f64>() / 50.0 * 600.0;
        let (predicted, _) = predict_run(&prefix, 600).unwrap();
        let model_err = (predicted - true_total).abs();
        let naive_err = (naive - true_total).abs();
        assert!(
            model_err < 0.2 * naive_err,
            "model {model_err:.0} vs naive {naive_err:.0} (truth {true_total:.0})"
        );
    }

    #[test]
    fn flat_profile_is_handled() {
        let profile = synthetic_profile(40, 30.0, 30.0, 0.9); // amplitude 0
        let (predicted, fit) = predict_run(&profile, 600).unwrap();
        assert!((fit.amplitude).abs() < 1e-9);
        assert!((predicted - 30.0 * 600.0).abs() < 1.0);
    }

    #[test]
    fn too_short_prefix_is_rejected() {
        let profile = StepProfile {
            iterations: vec![100.0; 4],
        };
        assert!(fit_settling(&profile).is_none());
    }

    #[test]
    fn settling_total_matches_sum() {
        let fit = SettlingFit {
            asymptote: 30.0,
            amplitude: 90.0,
            decay: 0.9,
        };
        let explicit: f64 = (0..100).map(|n| fit.at(n)).sum();
        assert!((fit.total(100) - explicit).abs() < 1e-9);
    }
}
