//! # acutemon-live — AcuteMon over real sockets
//!
//! The artifact a downstream user can actually run: the paper's warm-up +
//! background keep-awake measurement scheme (§4.1) with `std::net`
//! sockets on Linux, no root required. It drives the same sans-IO
//! [`acutemon::Machine`] the simulator runs, so a simulated run and a
//! live run differ only in the driver:
//!
//! * the **session thread** owns the machine, fires its timers and sends
//!   the warm-up and keep-awake datagrams from one UDP socket with TTL
//!   `warmup_ttl` (default 1 — they die at the first-hop gateway and
//!   never load the measured path);
//! * an **I/O thread** runs each of the `K` sequential probes — a fresh
//!   TCP connect (RTT = connect latency) or a UDP echo — so keep-awake
//!   ticks keep firing through a probe's RTT.
//!
//! On a phone-grade device this prevents the SDIO-bus and 802.11-PSM
//! demotions the paper demonstrates; on any device it also counters NIC
//! power-save (`iw dev wlan0 set power_save off` territory) without
//! needing privileges.
//!
//! ```no_run
//! use acutemon_live::{run, LiveConfig};
//!
//! let cfg = LiveConfig::new("93.184.216.34:80".parse().unwrap(), 100);
//! let report = run(cfg).unwrap();
//! println!("median RTT: {:?} ms", report.summary().map(|s| s.mean));
//! ```

#![warn(missing_docs)]

mod config;
mod session;

pub use config::{LiveConfig, LiveProbe};
pub use session::{run, run_traced, LiveReport, LiveSample};
