//! # acutemon — the paper's contribution
//!
//! AcuteMon (Li, Wu, Chang, Mok — CoNEXT 2016) measures network-level RTT
//! from an unrooted Android phone by *keeping the phone awake* for the
//! duration of the measurement, so that neither the SDIO bus sleep nor
//! 802.11 PSM inflates the probes:
//!
//! * a **background-traffic thread** sends one warm-up packet, waits
//!   `dpre` (default 20 ms, > the bus promotion delay), then sends a
//!   keep-awake packet every `db` (default 20 ms, < `min(Tis, Tip)`), all
//!   with TTL 1 so they die at the first-hop gateway;
//! * a **measurement thread** (native code, no DVM overhead) sends `K`
//!   TCP probes sequentially.
//!
//! The algorithm lives once, as the sans-IO [`Machine`]: a driver feeds
//! it start, timer, reply and send-error inputs and performs the sends,
//! timer arms and spans it asks for. Multi-server measurement (MopEye)
//! is a list of targets probed round-robin. This crate's driver is the
//! simulated app ([`AcuteMonApp`]) evaluated against the paper's numbers
//! by the `testbed` crate; the `acutemon-live` crate drives the same
//! machine over real sockets. The simulated app builds its probes and
//! matches its replies through [`measure::ProbeWire`], the one wire the
//! baselines use too ([`ProbeKind`] is re-exported from there). The crate also holds the two extensions
//! the paper sketches: timeout **training** ([`TimeoutInferApp`]/
//! [`estimate_tis`], §4.1 future work, and [`TrainedAcuteMonApp`], which
//! runs the machine with the trained timing) and residual
//! **calibration** ([`Calibration`], §4.2.2).
//!
//! ```
//! use acutemon::{AcuteMonConfig, ProbeKind};
//! use wire::Ip;
//!
//! let cfg = AcuteMonConfig::new(Ip::new(10, 0, 0, 1), 100)
//!     .with_probe(ProbeKind::TcpConnect);
//! assert_eq!(cfg.dpre.as_ms_f64(), 20.0);
//! assert_eq!(cfg.warmup_ttl, 1);
//! ```

#![warn(missing_docs)]

mod app;
mod calibrate;
mod config;
mod infer;
mod machine;
mod trained;

pub use app::AcuteMonApp;
pub use calibrate::Calibration;
pub use config::AcuteMonConfig;
pub use infer::{estimate_tis, GapSample, TimeoutEstimate, TimeoutInferApp, TimeoutInferConfig};
pub use machine::{BtStats, Io, KeepAwake, Machine, MetricNames, Plan, Timer, BT_ERROR_THRESHOLD};
pub use measure::ProbeKind;
pub use trained::{TrainedAcuteMonApp, TrainedPhase};
