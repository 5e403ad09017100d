//! Minimal SIGTERM/SIGINT notification for the daemon's shutdown
//! flush, with no dependencies: a raw `signal(2)` handler that sets an
//! atomic flag, polled by a watcher thread.
//!
//! Only async-signal-safe work happens in the handler (one relaxed
//! atomic store); everything interesting — flushing the ingest journal,
//! writing the final `snapshot.json`, exiting — runs on the polling
//! thread. On non-Unix targets [`install`] is a no-op and the flag
//! simply never fires, so callers need no platform gates.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::TERMINATED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install SIGTERM/SIGINT handlers that set the [`terminated`] flag.
/// Idempotent; a no-op on non-Unix targets.
pub fn install() {
    imp::install();
}

/// Whether a termination signal has arrived since [`install`].
pub fn terminated() -> bool {
    TERMINATED.load(Ordering::Relaxed)
}
