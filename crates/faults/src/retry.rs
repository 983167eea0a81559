//! Bounded retry with exponential backoff — the resilience policy shared
//! by the simulated MPI layer and the workflow engine.

/// What to do once every attempt of a [`RetryPolicy`] has failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnExhaustion {
    /// Surface the failure and keep going (the caller records it).
    Continue,
    /// Abort the enclosing operation with the failure.
    Abort,
}

/// A bounded retry policy: up to `max_attempts` tries, with exponential
/// backoff between them. In the simulated runtime the backoff is charged
/// to the **virtual clock** (wall time is never slept).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in virtual seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied per further attempt (2.0 = classic exponential).
    pub backoff_multiplier: f64,
    /// Behaviour once all attempts failed.
    pub on_exhaustion: OnExhaustion,
}

impl RetryPolicy {
    /// No retries: one attempt, abort on failure. The default everywhere.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_s: 0.0,
            backoff_multiplier: 1.0,
            on_exhaustion: OnExhaustion::Abort,
        }
    }

    /// `max_attempts` tries with exponential backoff (×2 per attempt)
    /// starting at `base_backoff_s`, aborting on exhaustion.
    pub fn new(max_attempts: u32, base_backoff_s: f64) -> Self {
        assert!(max_attempts >= 1, "a policy needs at least one attempt");
        assert!(base_backoff_s >= 0.0);
        RetryPolicy {
            max_attempts,
            base_backoff_s,
            backoff_multiplier: 2.0,
            on_exhaustion: OnExhaustion::Abort,
        }
    }

    /// Same policy, but continue (recording the failure) on exhaustion.
    pub fn or_continue(mut self) -> Self {
        self.on_exhaustion = OnExhaustion::Continue;
        self
    }

    /// Override the per-attempt backoff multiplier.
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        assert!(multiplier >= 1.0);
        self.backoff_multiplier = multiplier;
        self
    }

    /// Backoff after the `attempt`-th failure (1-indexed):
    /// `base · multiplier^(attempt−1)`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        debug_assert!(attempt >= 1);
        self.base_backoff_s * self.backoff_multiplier.powi(attempt as i32 - 1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_single_attempt_abort() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.on_exhaustion, OnExhaustion::Abort);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::new(4, 0.5);
        assert_eq!(p.backoff_s(1), 0.5);
        assert_eq!(p.backoff_s(2), 1.0);
        assert_eq!(p.backoff_s(3), 2.0);
    }

    #[test]
    fn multiplier_override() {
        let p = RetryPolicy::new(3, 1.0).with_multiplier(1.0);
        assert_eq!(p.backoff_s(1), 1.0);
        assert_eq!(p.backoff_s(2), 1.0);
    }

    #[test]
    fn or_continue_flips_exhaustion() {
        assert_eq!(
            RetryPolicy::new(2, 0.1).or_continue().on_exhaustion,
            OnExhaustion::Continue
        );
    }
}
