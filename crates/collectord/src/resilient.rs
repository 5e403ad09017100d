//! The reconnecting push client: capped exponential backoff with
//! deterministic jitter, automatic re-dial and re-send, and a degraded
//! mode that keeps a campaign running when the daemon is unreachable.
//!
//! Re-sending after a lost ack is *safe by construction*: pushes carry
//! cumulative shard state and the daemon's ingest is idempotent (a
//! re-send classifies as `duplicate`, an older reordered push as
//! `stale`), so the client never needs to know whether a failed push
//! was applied before the connection died — it just pushes the latest
//! cumulative state again.
//!
//! Failure handling is split by what a retry can fix
//! ([`crate::PushError::is_retryable`]):
//!
//! * transient transport failures (dead socket, torn frame, daemon
//!   restart, `storage`/`conn-timeout` rejections) → reconnect and
//!   retry with backoff; mid-run pushes that exhaust their attempts are
//!   **dropped** (the campaign keeps running, the next push covers the
//!   same devices), final pushes get a larger budget and fail the shard
//!   only when it is truly exhausted;
//! * typed daemon rejections (`spec-mismatch`, `overlap`,
//!   `range-out-of-bounds`, …) → fail immediately; every retry would be
//!   rejected identically.
//!
//! Backoff is [`am_stats::backoff`], the retry shape AcuteMon's probe
//! retries use too — `base × 2^(attempt−1)` capped, plus
//! `uniform(0, backoff/2)` jitter — with the jitter drawn by
//! [`fleet::splitmix64`] from a caller-provided seed, so two runs of
//! the same campaign sleep the same schedule.

use std::net::TcpStream;
use std::time::Duration;

use fleet::Collector;
use wire::chaos::{ChaosPlan, ChaosStream};

use crate::client::{PushClient, PushError};
use crate::protocol::Ack;

/// When and how long to back off between push attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff; attempt *n* waits `base × 2^(n−1)` plus
    /// jitter, capped at [`RetryPolicy::cap`].
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Attempts per mid-run push before it is dropped (degraded mode).
    pub max_attempts: u32,
    /// Attempts for a shard's **final** push before the shard fails —
    /// larger than [`RetryPolicy::max_attempts`] because a dropped
    /// final push has no later push to supersede it.
    pub max_final_attempts: u32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The production defaults: 200 ms base, 5 s cap, 4 mid-run
    /// attempts, 20 final attempts.
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(200),
            cap: Duration::from_secs(5),
            max_attempts: 4,
            max_final_attempts: 20,
            seed,
        }
    }

    /// The backoff before retry number `attempt` (1-based: the sleep
    /// after the first failure is `attempt = 1`), threading the jitter
    /// rng state through. Pure — same `(policy, attempt, rng)` in, same
    /// `(delay, rng)` out — so retry schedules are reproducible.
    pub fn delay(&self, attempt: u32, rng: u64) -> (Duration, u64) {
        let rng = fleet::splitmix64(rng);
        let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
        let secs = am_stats::backoff(
            self.base.as_secs_f64(),
            attempt,
            u,
            Some(self.cap.as_secs_f64()),
        );
        (Duration::from_secs_f64(secs), rng)
    }
}

/// What happened to one push, from the campaign's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The daemon acked the push (possibly after reconnects).
    Delivered(Ack),
    /// Degraded mode: every attempt failed on a *mid-run* push, so it
    /// was dropped. Safe — the shard's next cumulative push covers the
    /// same devices — but counted and logged.
    Dropped {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

/// Push-path bookkeeping, for operator logs and the chaos soak's
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Pushes acked by the daemon.
    pub delivered: u64,
    /// Mid-run pushes dropped in degraded mode.
    pub dropped: u64,
    /// Re-dials after the first connection (includes reconnects after
    /// injected chaos resets and daemon restarts).
    pub reconnects: u64,
    /// Non-retryable typed rejections (each one also returned `Err`).
    pub rejected: u64,
}

/// A [`PushClient`] wrapped in reconnect/backoff/degraded-mode logic.
///
/// The underlying socket is always wrapped in a
/// [`wire::chaos::ChaosStream`]; without [`ResilientPushClient::with_chaos`]
/// the plan is [`ChaosPlan::none`] and bytes pass through untouched.
pub struct ResilientPushClient {
    addr: String,
    shard: String,
    policy: RetryPolicy,
    /// `(seed, min_bytes, spread)`: each new connection gets
    /// `ChaosPlan::seeded_reset(seed + connection_index, …)`.
    chaos: Option<(u64, u64, u64)>,
    conn: Option<PushClient<ChaosStream<TcpStream>>>,
    conns_opened: u64,
    rng: u64,
    stats: PushStats,
}

impl ResilientPushClient {
    /// A client for the daemon ingest listener at `addr`, identifying
    /// as `shard`. Connects lazily on the first push.
    pub fn new(addr: &str, shard: &str, policy: RetryPolicy) -> ResilientPushClient {
        let rng = fleet::splitmix64(policy.seed ^ 0xC011_EC7D);
        ResilientPushClient {
            addr: addr.to_string(),
            shard: shard.to_string(),
            policy,
            chaos: None,
            conn: None,
            conns_opened: 0,
            rng,
            stats: PushStats::default(),
        }
    }

    /// Inject seeded write-side connection resets: connection *i* dies
    /// somewhere in `min_bytes..min_bytes + spread` written bytes. The
    /// chaos soak uses this to sever live push connections on a
    /// deterministic schedule.
    pub fn with_chaos(mut self, seed: u64, min_bytes: u64, spread: u64) -> ResilientPushClient {
        self.chaos = Some((seed, min_bytes, spread));
        self
    }

    /// Push-path counters so far.
    pub fn stats(&self) -> PushStats {
        self.stats
    }

    /// Push one cumulative campaign-state partial, retrying through
    /// reconnects. Returns:
    ///
    /// * `Ok(Delivered)` — the daemon acked (maybe after retries);
    /// * `Ok(Dropped)` — mid-run push exhausted its attempts; degraded
    ///   mode, campaign continues;
    /// * `Err` — a non-retryable typed rejection, or a **final** push
    ///   that exhausted [`RetryPolicy::max_final_attempts`].
    pub fn push(&mut self, collector: &Collector, done: bool) -> Result<Delivery, PushError> {
        let budget = if done {
            self.policy.max_final_attempts
        } else {
            self.policy.max_attempts
        };
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let r = self.ensure_conn().and_then(|c| c.push(collector, done));
            match r {
                Ok(ack) => {
                    self.stats.delivered += 1;
                    return Ok(Delivery::Delivered(ack));
                }
                Err(e) if !e.is_retryable() => {
                    // The push itself is wrong; retrying cannot help and
                    // the daemon said so in a typed way. Surface it.
                    self.stats.rejected += 1;
                    self.conn = None;
                    return Err(e);
                }
                Err(e) => {
                    // Transient: drop the (possibly half-dead) socket so
                    // the next attempt re-dials, then back off.
                    self.conn = None;
                    if attempts >= budget {
                        if done {
                            return Err(e);
                        }
                        self.stats.dropped += 1;
                        return Ok(Delivery::Dropped { attempts });
                    }
                    let (delay, rng) = self.policy.delay(attempts, self.rng);
                    self.rng = rng;
                    std::thread::sleep(delay);
                }
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut PushClient<ChaosStream<TcpStream>>, PushError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            let plan = match self.chaos {
                Some((seed, min, spread)) => {
                    ChaosPlan::seeded_reset(seed.wrapping_add(self.conns_opened), min, spread)
                }
                None => ChaosPlan::none(),
            };
            if self.conns_opened > 0 {
                self.stats.reconnects += 1;
            }
            self.conns_opened += 1;
            self.conn = Some(PushClient::from_stream(
                ChaosStream::new(stream, plan),
                &self.shard,
            ));
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_millis(900),
            max_attempts: 4,
            max_final_attempts: 8,
            seed: 1,
        };
        let mut rng = 7;
        let mut raw = Vec::new();
        for attempt in 1..=5 {
            let (d, next) = p.delay(attempt, rng);
            rng = next;
            raw.push(d);
        }
        // Jitter adds at most backoff/2, so attempt n's delay lives in
        // [base·2^(n−1), min(cap, 1.5·base·2^(n−1))] — and never over
        // the cap.
        assert!(raw[0] >= Duration::from_millis(100) && raw[0] <= Duration::from_millis(150));
        assert!(raw[1] >= Duration::from_millis(200) && raw[1] <= Duration::from_millis(300));
        assert!(raw[4] <= Duration::from_millis(900), "capped");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let p = RetryPolicy::new(42);
        let (a1, r1) = p.delay(1, 1000);
        let (a2, _) = p.delay(2, r1);
        let (b1, s1) = p.delay(1, 1000);
        let (b2, _) = p.delay(2, s1);
        assert_eq!((a1, a2), (b1, b2), "same rng state, same schedule");
        let (c1, _) = p.delay(1, 1001);
        assert_ne!(a1, c1, "different rng state, different jitter");
    }
}
