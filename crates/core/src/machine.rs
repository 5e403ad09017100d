//! The AcuteMon algorithm (§4.1, Fig. 6) as a sans-IO state machine.
//!
//! [`Machine`] makes every decision and performs no I/O. Its inputs are
//! [`Machine::start`], [`Machine::timer`], [`Machine::reply`] and
//! [`Machine::send_error`], stamped with the driver's clock; its outputs
//! go through the driver's [`Io`]. The simulated phone app and the live
//! socket session are its two drivers.
//!
//! * **BT**: a warm-up, then a keep-awake packet every `db` until the
//!   last probe finishes. A tick more than `3·db` after the last good
//!   send is missed and goes out as a re-warm; after
//!   [`BT_ERROR_THRESHOLD`] failed sends in a row the BT is degraded and
//!   each new probe leads with its own warm-up, `dpre` ahead.
//! * **MT**: from `dpre` after the warm-up, `K` probes per target, one
//!   at a time, round-robin: probe `n` goes to target `n % targets`. A
//!   failed attempt is re-sent after [`am_stats::backoff`] while its
//!   budget lasts, behind a fresh re-warm and at least its lead later.

use measure::{ProbeError, RttRecord};
use obs::Snapshot;
use simcore::{SimDuration, SimTime};

/// Consecutive failed keep-awake sends after which the BT is degraded.
pub const BT_ERROR_THRESHOLD: u32 = 5;

/// The driver-independent half of a session's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Targets probed round-robin (1 for a single server).
    pub targets: u32,
    /// Probes per target `K`.
    pub k: u32,
    /// Warm-up lead `dpre`.
    pub dpre: SimDuration,
    /// Background interval `db`.
    pub db: SimDuration,
    /// The least a retried probe waits behind its re-warm.
    pub rewarm_lead: SimDuration,
    /// Per-attempt deadline.
    pub probe_timeout: SimDuration,
    /// Whether the BT keeps sending after the warm-up (off in Fig. 9).
    pub background: bool,
    /// Retries per probe after a failed attempt.
    pub max_retries: u32,
    /// Base retry backoff.
    pub retry_backoff: SimDuration,
}

/// A TTL-limited keep-awake packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAwake {
    /// The BT's first packet.
    WarmUp,
    /// A routine BT tick.
    Background,
    /// A warm-up covering a gap: before a retry, after a missed tick, or
    /// ahead of a probe while the BT is degraded.
    Rewarm,
}

/// A timer the machine arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// The next BT tick.
    Background,
    /// The first probe, `dpre` after the warm-up.
    MtStart,
    /// Probe `n`'s current attempt is due.
    Timeout(u32),
    /// Send the next attempt of probe `n` (a retry, or a led probe).
    Fire(u32),
}

/// What a driver does for the machine, at the `now` of the input being
/// handled.
pub trait Io {
    /// Send a keep-awake packet; `false` if the send failed.
    fn keep_awake(&mut self, kind: KeepAwake) -> bool;
    /// Send an attempt of probe `n` to target `target` and return the
    /// request's packet id (0 where there is none). An attempt that
    /// fails comes back as [`Machine::send_error`].
    fn probe(&mut self, n: u32, target: u32) -> u64;
    /// Call [`Machine::timer`] with `timer` after `after`.
    fn arm(&mut self, timer: Timer, after: SimDuration);
    /// Record a recovery span under the trace of request `req_id`:
    /// `retry` (the backoff window, `attr` = the next attempt) or
    /// `rewarm` (the re-warm's lead, `attr` = the probe).
    fn span(
        &mut self,
        name: &'static str,
        req_id: u64,
        start: SimTime,
        end: SimTime,
        attr: (&'static str, u32),
    );
    /// A uniform draw in `[0, 1)` for retry jitter.
    fn jitter(&mut self) -> f64;
}

/// Keep-awake accounting (the battery-cost proxy of §4.1) and BT health.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BtStats {
    /// Warm-up packets sent (normally 1).
    pub warmup_sent: u64,
    /// Background keep-awake packets sent.
    pub background_sent: u64,
    /// Re-warms sent (see [`KeepAwake::Rewarm`]).
    pub rewarms_sent: u64,
    /// Failed keep-awake sends.
    pub send_errors: u64,
    /// Ticks that came more than `3·db` after the last good send.
    pub missed_ticks: u64,
    /// Whether the BT was degraded when the run ended.
    pub degraded: bool,
    /// Times the BT became degraded.
    pub degradations: u64,
}

/// The metric names a driver publishes a session's counts under
/// ([`Machine::export`]).
#[derive(Debug, Clone, Copy)]
pub struct MetricNames {
    /// Probe attempts sent.
    pub sent: &'static str,
    /// Probes answered.
    pub received: &'static str,
    /// Probe attempts that failed (timed out or errored).
    pub failed: &'static str,
    /// Retries scheduled.
    pub retries: &'static str,
    /// Re-warms sent.
    pub rewarms: &'static str,
    /// Reported RTT per answered probe, ms.
    pub rtt_ms: &'static str,
    /// Warm-ups sent.
    pub warmup_sent: &'static str,
    /// Background packets sent.
    pub background_sent: &'static str,
    /// Times the BT became degraded, if the driver publishes it.
    pub degraded: Option<&'static str>,
}

/// One AcuteMon session.
#[derive(Debug)]
pub struct Machine {
    plan: Plan,
    /// Per-probe records in send order (probe `n` is `records[n]`).
    pub records: Vec<RttRecord>,
    /// BT accounting.
    pub bt: BtStats,
    /// Retries scheduled, each behind a re-warm (one a late reply made
    /// unnecessary still counts).
    pub retries: u64,
    /// The last good keep-awake send (`None` before one got through).
    last_awake: Option<SimTime>,
    /// Consecutive failed keep-awake sends.
    error_streak: u32,
    finished_at: Option<SimTime>,
}

impl Machine {
    /// A session that runs `plan`.
    pub fn new(plan: Plan) -> Machine {
        Machine {
            plan,
            records: Vec::new(),
            bt: BtStats::default(),
            retries: 0,
            last_awake: None,
            error_streak: 0,
            finished_at: None,
        }
    }

    /// Write the session's counts into `out` under `names`, from the
    /// records, the BT accounting and the retries: attempts sent,
    /// probes answered and their reported RTTs, failed attempts (each
    /// either retried or the error that ended its probe), retries,
    /// re-warms, warm-ups, background sends and degradations.
    pub fn export(&self, names: &MetricNames, out: &mut Snapshot) {
        let rtt_ms = out.histogram_mut(names.rtt_ms);
        let (mut sent, mut errors, mut received) = (0, 0, 0);
        for r in &self.records {
            sent += u64::from(r.attempts);
            errors += u64::from(r.error.is_some());
            if let Some(ms) = r.reported_ms {
                rtt_ms.observe(ms);
                received += 1;
            }
        }
        out.add_counter(names.sent, sent);
        out.add_counter(names.received, received);
        out.add_counter(names.failed, self.retries + errors);
        out.add_counter(names.retries, self.retries);
        out.add_counter(names.rewarms, self.bt.rewarms_sent);
        out.add_counter(names.warmup_sent, self.bt.warmup_sent);
        out.add_counter(names.background_sent, self.bt.background_sent);
        if let Some(name) = names.degraded {
            out.add_counter(name, self.bt.degradations);
        }
    }

    /// When the last probe finished (None while running).
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Records for one target, in probe order.
    pub fn records_for(&self, target: usize) -> Vec<RttRecord> {
        let stride = self.plan.targets as usize;
        self.records
            .iter()
            .skip(target)
            .step_by(stride)
            .copied()
            .collect()
    }

    /// Begin: the warm-up goes out now, the first probe `dpre` later.
    pub fn start(&mut self, io: &mut impl Io) {
        io.arm(Timer::Background, SimDuration::ZERO);
        io.arm(Timer::MtStart, self.plan.dpre);
    }

    /// A timer armed through [`Io::arm`] fired at `now`.
    pub fn timer(&mut self, now: SimTime, timer: Timer, io: &mut impl Io) {
        match timer {
            Timer::Background => self.tick(now, io),
            Timer::MtStart => self.advance(now, io),
            Timer::Timeout(n) => self.send_error(now, n, ProbeError::Timeout, io),
            // Unless a late reply already closed the probe.
            Timer::Fire(n) if !self.records[n as usize].completed() => self.fire(now, n, io),
            Timer::Fire(_) => {}
        }
    }

    /// A reply to probe `n` (packet `resp_id`) arrived at `now`. `rtt` is
    /// a round trip the driver timed around its own I/O call; with `None`
    /// the machine measures from its own send time.
    pub fn reply(
        &mut self,
        now: SimTime,
        n: u32,
        resp_id: u64,
        rtt: Option<SimDuration>,
        io: &mut impl Io,
    ) {
        let Some(rec) = self.records.get_mut(n as usize).filter(|r| !r.completed()) else {
            return;
        };
        if let Some(rtt) = rtt {
            rec.tou = SimTime::from_nanos(now.as_nanos().saturating_sub(rtt.as_nanos()));
        }
        rec.resp_id = Some(resp_id);
        rec.tiu = Some(now);
        let ms = now.saturating_since(rec.tou).as_ms_f64();
        rec.reported_ms = Some(ms);
        if n as usize + 1 == self.records.len() {
            // The outstanding probe completed: fire the next one.
            self.advance(now, io);
        }
    }

    /// Probe `n`'s current attempt failed at `now` with `error`: retry it
    /// while the budget lasts, else record why and move on (the sample
    /// stays in the set as censored).
    pub fn send_error(&mut self, now: SimTime, n: u32, error: ProbeError, io: &mut impl Io) {
        let outstanding = n as usize + 1 == self.records.len();
        let Some(rec) = self
            .records
            .get(n as usize)
            .filter(|r| outstanding && !r.completed())
        else {
            return; // answered in time, or stale
        };
        let attempts = rec.attempts;
        if error.is_retryable() && attempts <= self.plan.max_retries {
            self.retry(now, n, io);
        } else {
            self.records[n as usize].error = Some(if attempts > 1 {
                ProbeError::Exhausted { attempts }
            } else {
                error
            });
            self.advance(now, io);
        }
    }

    fn tick(&mut self, now: SimTime, io: &mut impl Io) {
        if self.finished_at.is_some() {
            return; // the BT stops with the measurement
        }
        let kind = match self.last_awake {
            None => KeepAwake::WarmUp,
            Some(_) if !self.plan.background => return, // warm-up only
            Some(at) if now.saturating_since(at) > self.plan.db * 3 => {
                self.bt.missed_ticks += 1;
                KeepAwake::Rewarm
            }
            Some(_) => KeepAwake::Background,
        };
        self.keep_awake(now, kind, io);
        io.arm(Timer::Background, self.plan.db);
    }

    fn keep_awake(&mut self, now: SimTime, kind: KeepAwake, io: &mut impl Io) -> bool {
        if !io.keep_awake(kind) {
            self.bt.send_errors += 1;
            self.error_streak += 1;
            if self.error_streak >= BT_ERROR_THRESHOLD && !self.bt.degraded {
                self.bt.degraded = true;
                self.bt.degradations += 1;
            }
            return false;
        }
        *match kind {
            KeepAwake::WarmUp => &mut self.bt.warmup_sent,
            KeepAwake::Background => &mut self.bt.background_sent,
            KeepAwake::Rewarm => &mut self.bt.rewarms_sent,
        } += 1;
        self.last_awake = Some(now);
        self.error_streak = 0;
        self.bt.degraded = false;
        true
    }

    /// Start the next probe, or finish when every probe has had its turn.
    fn advance(&mut self, now: SimTime, io: &mut impl Io) {
        let n = self.records.len() as u32;
        if n < self.plan.targets.saturating_mul(self.plan.k) {
            // The record exists before the send: a zero-RTT path may
            // answer within this same input.
            let rec = RttRecord::sent(n / self.plan.targets, 0, now);
            self.records.push(RttRecord { attempts: 0, ..rec });
            if self.bt.degraded {
                // The BT lost its cover: lead with a warm-up of our own.
                self.keep_awake(now, KeepAwake::Rewarm, io);
                io.arm(Timer::Fire(n), self.plan.dpre);
            } else {
                self.fire(now, n, io);
            }
        } else if self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }

    /// Put the next attempt of probe `n` on the wire and arm its deadline.
    fn fire(&mut self, now: SimTime, n: u32, io: &mut impl Io) {
        let id = io.probe(n, n % self.plan.targets);
        io.arm(Timer::Timeout(n), self.plan.probe_timeout);
        let rec = &mut self.records[n as usize];
        (rec.req_id, rec.tou, rec.attempts) = (id, now, rec.attempts + 1);
    }

    /// Schedule the resend of probe `n` behind a fresh re-warm. The
    /// jitter is drawn before the re-warm goes out.
    fn retry(&mut self, now: SimTime, n: u32, io: &mut impl Io) {
        let rec = self.records[n as usize];
        let u = io.jitter();
        let lead = self.plan.rewarm_lead;
        let backoff = am_stats::backoff(self.plan.retry_backoff.as_ms_f64(), rec.attempts, u, None);
        let delay = SimDuration::from_ms_f64(backoff).max(lead);
        let rewarmed = self.keep_awake(now, KeepAwake::Rewarm, io);
        self.retries += 1;
        let (attempt, id) = (rec.attempts + 1, rec.req_id);
        io.span("retry", id, now, now + delay, ("attempt", attempt));
        if rewarmed {
            io.span("rewarm", id, now, now + lead, ("probe", n));
        }
        io.arm(Timer::Fire(n), delay);
    }
}

#[cfg(test)]
mod tests {
    //! Scripts driven straight into the machine — no simulator, sockets
    //! or threads — asserting the exact output sequence.

    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Out {
        Awake(KeepAwake),
        Probe(u32, u32),
        /// Timer and delay in ms.
        Arm(Timer, u64),
        /// Name, start and end in ms, attribute value.
        Span(&'static str, u64, u64, u32),
        Jitter,
    }

    /// An [`Io`] that records every output; its keep-awake sends fail
    /// while `awake_fails` is set, and its jitter draw is always 0.5.
    #[derive(Default)]
    struct Script {
        out: Vec<Out>,
        awake_fails: bool,
    }

    impl Script {
        fn take(&mut self) -> Vec<Out> {
            std::mem::take(&mut self.out)
        }
    }

    fn ms_of(t: u64) -> u64 {
        t / 1_000_000
    }

    impl Io for Script {
        fn keep_awake(&mut self, kind: KeepAwake) -> bool {
            self.out.push(Out::Awake(kind));
            !self.awake_fails
        }
        fn probe(&mut self, n: u32, target: u32) -> u64 {
            self.out.push(Out::Probe(n, target));
            100 + u64::from(n)
        }
        fn arm(&mut self, timer: Timer, after: SimDuration) {
            self.out.push(Out::Arm(timer, ms_of(after.as_nanos())));
        }
        fn span(
            &mut self,
            name: &'static str,
            _: u64,
            start: SimTime,
            end: SimTime,
            attr: (&'static str, u32),
        ) {
            let (start, end) = (ms_of(start.as_nanos()), ms_of(end.as_nanos()));
            self.out.push(Out::Span(name, start, end, attr.1));
        }
        fn jitter(&mut self) -> f64 {
            self.out.push(Out::Jitter);
            0.5
        }
    }

    /// `dpre = db = rewarm lead = 20 ms`, 100 ms deadline, 10 ms backoff.
    fn machine(targets: u32, k: u32, max_retries: u32) -> (Machine, Script) {
        let ms = SimDuration::from_millis;
        let plan = Plan {
            targets,
            k,
            dpre: ms(20),
            db: ms(20),
            rewarm_lead: ms(20),
            probe_timeout: ms(100),
            background: true,
            max_retries,
            retry_backoff: ms(10),
        };
        (Machine::new(plan), Script::default())
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    use KeepAwake::{Background, Rewarm, WarmUp};
    use Out::{Arm, Awake, Probe};

    /// Every count a driver publishes, exported under short names, and
    /// the RTT histogram's count and sum.
    fn exported(m: &Machine) -> (Vec<(obs::MetricName, u64)>, (u64, f64)) {
        let names = MetricNames {
            sent: "sent",
            received: "received",
            failed: "failed",
            retries: "retries",
            rewarms: "rewarms",
            rtt_ms: "rtt_ms",
            warmup_sent: "warmup_sent",
            background_sent: "background_sent",
            degraded: Some("degraded"),
        };
        let mut snap = Snapshot::default();
        m.export(&names, &mut snap);
        let rtt = snap.histogram("rtt_ms").expect("rtt_ms");
        (snap.counters.clone(), (rtt.count(), rtt.sum()))
    }

    fn counts(pairs: [(&'static str, u64); 8]) -> Vec<(obs::MetricName, u64)> {
        pairs.iter().map(|&(n, v)| (n.into(), v)).collect()
    }

    #[test]
    fn clean_run_of_three_probes() {
        let (mut m, mut io) = machine(1, 3, 0);
        m.start(&mut io);
        assert_eq!(
            io.take(),
            [Arm(Timer::Background, 0), Arm(Timer::MtStart, 20)]
        );
        m.timer(at(0), Timer::Background, &mut io);
        assert_eq!(io.take(), [Awake(WarmUp), Arm(Timer::Background, 20)]);
        m.timer(at(20), Timer::MtStart, &mut io);
        assert_eq!(io.take(), [Probe(0, 0), Arm(Timer::Timeout(0), 100)]);
        m.timer(at(20), Timer::Background, &mut io);
        assert_eq!(io.take(), [Awake(Background), Arm(Timer::Background, 20)]);
        m.reply(at(35), 0, 7, None, &mut io);
        assert_eq!(io.take(), [Probe(1, 0), Arm(Timer::Timeout(1), 100)]);
        // A round trip the driver timed itself replaces the send time.
        m.reply(at(50), 1, 8, Some(SimDuration::from_millis(12)), &mut io);
        assert_eq!(io.take(), [Probe(2, 0), Arm(Timer::Timeout(2), 100)]);
        m.reply(at(65), 2, 9, None, &mut io);
        m.timer(at(70), Timer::Background, &mut io); // the BT stopped
        m.timer(at(135), Timer::Timeout(2), &mut io); // stale
        assert!(io.take().is_empty());
        assert_eq!(m.finished_at(), Some(at(65)));
        let rtts: Vec<_> = m.records.iter().map(|r| r.reported_ms).collect();
        assert_eq!(rtts, [Some(15.0), Some(12.0), Some(15.0)]);
        assert_eq!(m.records[1].tou, at(38));
        assert_eq!(m.records[2].req_id, 102);
        assert!(m
            .records
            .iter()
            .all(|r| r.attempts == 1 && r.error.is_none()));
        assert_eq!((m.bt.warmup_sent, m.bt.background_sent), (1, 1));
    }

    #[test]
    fn timeout_retries_behind_a_rewarm() {
        let (mut m, mut io) = machine(1, 1, 2);
        m.start(&mut io);
        m.timer(at(20), Timer::MtStart, &mut io);
        io.take();
        // Attempt 1 times out: backoff 10 + 0.5·5 = 12.5 ms is shorter
        // than the 20 ms re-warm lead, so the resend waits the lead. The
        // jitter is drawn before the re-warm goes out.
        m.timer(at(120), Timer::Timeout(0), &mut io);
        assert_eq!(
            io.take(),
            [
                Out::Jitter,
                Awake(Rewarm),
                Out::Span("retry", 120, 140, 2),
                Out::Span("rewarm", 120, 140, 0),
                Arm(Timer::Fire(0), 20),
            ]
        );
        m.timer(at(140), Timer::Fire(0), &mut io);
        assert_eq!(io.take(), [Probe(0, 0), Arm(Timer::Timeout(0), 100)]);
        // Attempt 2 times out: backoff 20 + 0.5·10 = 25 ms beats the lead.
        m.timer(at(240), Timer::Timeout(0), &mut io);
        assert_eq!(
            io.take(),
            [
                Out::Jitter,
                Awake(Rewarm),
                Out::Span("retry", 240, 265, 3),
                Out::Span("rewarm", 240, 260, 0),
                Arm(Timer::Fire(0), 25),
            ]
        );
        m.timer(at(265), Timer::Fire(0), &mut io);
        m.reply(at(280), 0, 9, None, &mut io);
        let rec = m.records[0];
        assert_eq!(
            (rec.attempts, rec.reported_ms, rec.error),
            (3, Some(15.0), None)
        );
        assert_eq!(m.bt.rewarms_sent, 2);
        assert_eq!(m.finished_at(), Some(at(280)));
        // Two attempts failed and each was retried behind a re-warm.
        let (counters, rtt) = exported(&m);
        let expected = counts([
            ("background_sent", 0),
            ("degraded", 0),
            ("failed", 2),
            ("received", 1),
            ("retries", 2),
            ("rewarms", 2),
            ("sent", 3),
            ("warmup_sent", 0),
        ]);
        assert_eq!(counters, expected);
        assert_eq!(rtt, (1, 15.0));
    }

    #[test]
    fn exhausted_budget_records_the_attempts() {
        let (mut m, mut io) = machine(1, 2, 1);
        m.start(&mut io);
        m.timer(at(20), Timer::MtStart, &mut io);
        m.timer(at(120), Timer::Timeout(0), &mut io);
        m.timer(at(140), Timer::Fire(0), &mut io);
        io.take();
        // The retry's deadline passes too: the budget is spent and the
        // MT moves on to the next probe.
        m.timer(at(240), Timer::Timeout(0), &mut io);
        assert_eq!(io.take(), [Probe(1, 0), Arm(Timer::Timeout(1), 100)]);
        assert_eq!(
            m.records[0].error,
            Some(ProbeError::Exhausted { attempts: 2 })
        );
        // A failure that no retry can fix is recorded as itself.
        m.send_error(
            at(250),
            1,
            ProbeError::Bind(std::io::ErrorKind::Other),
            &mut io,
        );
        assert_eq!(
            m.records[1].error,
            Some(ProbeError::Bind(std::io::ErrorKind::Other))
        );
        assert_eq!(m.finished_at(), Some(at(250)));
    }

    #[test]
    fn failing_keep_awake_degrades_the_bt_until_a_send_gets_through() {
        let (mut m, mut io) = machine(1, 2, 0);
        io.awake_fails = true;
        m.start(&mut io);
        m.timer(at(0), Timer::Background, &mut io);
        m.timer(at(20), Timer::MtStart, &mut io);
        for t in [20, 40, 60] {
            m.timer(at(t), Timer::Background, &mut io);
        }
        assert!(!m.bt.degraded, "four failures are under the threshold");
        m.timer(at(80), Timer::Background, &mut io);
        assert!(m.bt.degraded);
        io.take();
        // The next probe is led by a warm-up of its own, `dpre` ahead.
        m.reply(at(90), 0, 7, None, &mut io);
        assert_eq!(io.take(), [Awake(Rewarm), Arm(Timer::Fire(1), 20)]);
        assert_eq!(m.bt.send_errors, 6);
        // The first send that gets through clears the flag; no warm-up
        // had got through yet, so it is the warm-up.
        io.awake_fails = false;
        m.timer(at(100), Timer::Background, &mut io);
        assert_eq!(io.take(), [Awake(WarmUp), Arm(Timer::Background, 20)]);
        assert!(!m.bt.degraded);
        m.timer(at(110), Timer::Fire(1), &mut io);
        assert_eq!(io.take(), [Probe(1, 0), Arm(Timer::Timeout(1), 100)]);
        assert_eq!((m.records[1].attempts, m.records[1].tou), (1, at(110)));
        // The BT degraded once; failed keep-awake sends count nowhere
        // but `send_errors`, and probe 1 is still out.
        let (counters, rtt) = exported(&m);
        let expected = counts([
            ("background_sent", 0),
            ("degraded", 1),
            ("failed", 0),
            ("received", 1),
            ("retries", 0),
            ("rewarms", 0),
            ("sent", 2),
            ("warmup_sent", 1),
        ]);
        assert_eq!(counters, expected);
        assert_eq!(rtt, (1, 70.0));
    }

    #[test]
    fn late_tick_is_counted_and_sent_as_a_rewarm() {
        let (mut m, mut io) = machine(1, 1, 0);
        m.start(&mut io);
        m.timer(at(0), Timer::Background, &mut io);
        m.timer(at(20), Timer::Background, &mut io);
        io.take();
        // 61 ms after the last good send is more than 3·db.
        m.timer(at(81), Timer::Background, &mut io);
        assert_eq!(io.take(), [Awake(Rewarm), Arm(Timer::Background, 20)]);
        // Exactly 3·db is still on time.
        m.timer(at(141), Timer::Background, &mut io);
        assert_eq!(io.take(), [Awake(Background), Arm(Timer::Background, 20)]);
        assert_eq!((m.bt.missed_ticks, m.bt.rewarms_sent), (1, 1));
        assert_eq!(m.bt.background_sent, 2);
    }

    #[test]
    fn targets_take_turns_and_a_timeout_is_recorded() {
        let (mut m, mut io) = machine(2, 2, 0);
        m.start(&mut io);
        io.take();
        m.timer(at(20), Timer::MtStart, &mut io);
        assert_eq!(io.take()[0], Probe(0, 0));
        m.reply(at(30), 0, 7, None, &mut io);
        assert_eq!(io.take()[0], Probe(1, 1));
        m.timer(at(130), Timer::Timeout(1), &mut io);
        assert_eq!(io.take(), [Probe(2, 0), Arm(Timer::Timeout(2), 100)]);
        m.reply(at(140), 2, 8, None, &mut io);
        assert_eq!(io.take()[0], Probe(3, 1));
        m.reply(at(150), 3, 9, None, &mut io);
        assert_eq!(m.finished_at(), Some(at(150)));
        let near = m.records_for(0);
        let far = m.records_for(1);
        assert!(near.iter().all(|r| r.completed()));
        assert_eq!(far[0].error, Some(ProbeError::Timeout));
        assert!(far[1].completed());
        let probes: Vec<_> = m.records.iter().map(|r| r.probe).collect();
        assert_eq!(probes, [0, 0, 1, 1]);
    }
}
