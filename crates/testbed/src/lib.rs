//! # testbed — the Fig. 2 testbed and every experiment of the paper
//!
//! [`Testbed`] assembles the full simulated testbed (phone, station MAC,
//! medium, AP/gateway, sniffers ×3, switch, netem link, servers, optional
//! iPerf cross traffic). [`metrics`] joins the three vantage points into
//! per-probe breakdowns. [`experiments`] regenerates every table and
//! figure of the paper's evaluation — see `DESIGN.md` §5 for the index —
//! and the `repro` binary drives them from the command line.
//!
//! ```
//! use acutemon::{AcuteMonApp, AcuteMonConfig};
//! use measure::RecordSet;
//! use simcore::SimTime;
//! use testbed::{addr, Testbed, TestbedConfig};
//!
//! let mut tb = Testbed::build(TestbedConfig::new(42, phone::nexus5(), 50));
//! let app = tb.install_app(
//!     Box::new(AcuteMonApp::new(AcuteMonConfig::new(addr::SERVER, 10))),
//!     phone::RuntimeKind::Native,
//! );
//! tb.run_until(SimTime::from_secs(5));
//! let records = &tb.app::<AcuteMonApp>(app).records;
//! assert_eq!(records.completion(), 1.0);
//! let du = records.du();
//! assert!(du.iter().all(|d| (50.0..60.0).contains(d)));
//! ```

#![warn(missing_docs)]

mod cell_topology;
pub mod experiments;
pub mod metrics;
mod storage;
mod topology;

pub use cell_topology::{cell_addr, CellTestbed, CellTestbedConfig};
/// The most probes one session can tell apart, so the largest `k` an
/// experiment accepts.
pub use measure::MAX_PROBES;
pub use metrics::{breakdowns, series, ProbeBreakdown};
pub use storage::DeviceStorage;
pub use topology::{addr, Testbed, TestbedConfig};
