//! Scoped wall-clock span timers.
//!
//! A [`SpanTimer`] measures the wall-clock time between its creation and
//! its drop (or explicit [`SpanTimer::stop`]) and records the elapsed
//! milliseconds into a histogram. Timers from a disabled registry never
//! read the clock. Spans nest naturally — each guard is independent, so
//! an outer span covers its inner spans' time.
//!
//! Simulated-time spans should not use this type: record
//! `SimTime` deltas directly into a histogram instead (wall time inside
//! a discrete-event run is meaningless for the model).

use std::time::Instant;

use crate::metrics::Histogram;

/// Guard that records elapsed wall-clock ms into a histogram on drop.
pub struct SpanTimer {
    hist: Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Start timing into `hist`. If `hist` belongs to a disabled
    /// registry the clock is never read.
    pub fn start(hist: Histogram) -> SpanTimer {
        let start = if hist.is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        SpanTimer { hist, start }
    }

    /// Stop now and return the elapsed ms (None when disabled).
    pub fn stop(mut self) -> Option<f64> {
        self.finish()
    }

    fn finish(&mut self) -> Option<f64> {
        let start = self.start.take()?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.hist.observe(ms);
        Some(ms)
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::Registry;

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        {
            let _s = r.span("work.ms");
        }
        let snap = r.snapshot();
        let h = snap.histogram("work.ms").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 0.0);
    }

    #[test]
    fn nested_spans_record_outer_covering_inner() {
        let r = Registry::new();
        let outer = r.span("outer.ms");
        let spin = std::time::Instant::now();
        while spin.elapsed().as_micros() < 200 {}
        let inner = r.span("inner.ms");
        while spin.elapsed().as_micros() < 400 {}
        let inner_ms = inner.stop().unwrap();
        let outer_ms = outer.stop().unwrap();
        assert!(outer_ms >= inner_ms);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("outer.ms").unwrap().count(), 1);
        assert_eq!(snap.histogram("inner.ms").unwrap().count(), 1);
    }

    #[test]
    fn disabled_span_is_a_noop() {
        let r = Registry::disabled();
        let s = r.span("skip.ms");
        assert_eq!(s.stop(), None);
    }
}
