//! The one retry backoff every retrying component shares: AcuteMon's
//! probe retries (simulated and live) and the collector push client.

/// Capped exponential backoff with caller-supplied jitter.
///
/// Retry `attempt` (1-based: the wait after the first failure is
/// `attempt = 1`) backs off `base·2^min(attempt−1, 16)`, held to `cap`
/// when one is given, plus `u·backoff/2` of jitter for a draw
/// `u ∈ [0, 1)`; the total is held to `cap` too. Units are the
/// caller's. The caller owns the randomness, so a seeded `u` replays the
/// same schedule.
pub fn backoff(base: f64, attempt: u32, u: f64, cap: Option<f64>) -> f64 {
    let mut wait = base * f64::from(1u32 << attempt.saturating_sub(1).min(16));
    if let Some(cap) = cap {
        wait = wait.min(cap);
    }
    let total = wait + u * (wait * 0.5);
    cap.map_or(total, |cap| total.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_per_attempt_and_jitter_adds_up_to_half() {
        assert_eq!(backoff(50.0, 1, 0.0, None), 50.0);
        assert_eq!(backoff(50.0, 3, 0.0, None), 200.0);
        assert_eq!(backoff(50.0, 3, 0.5, None), 250.0);
        // The exponent stops at 16.
        assert_eq!(backoff(1.0, 40, 0.0, None), 65_536.0);
    }

    #[test]
    fn cap_bounds_the_backoff_and_the_total() {
        assert_eq!(backoff(100.0, 5, 0.0, Some(900.0)), 900.0);
        assert_eq!(backoff(100.0, 4, 0.99, Some(900.0)), 900.0);
        assert_eq!(backoff(100.0, 2, 0.5, Some(900.0)), 250.0);
    }
}
