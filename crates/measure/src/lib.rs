//! # measure — measurement tools and baselines
//!
//! The probe tools the paper runs and compares against (§3.1, §4.3):
//!
//! * [`BaselineApp`]: one interval-driven prober whose [`Baseline`]
//!   presets are ping as run from `adb shell` (with the integer-rounding
//!   quirk that produces the negative ∆du−k of Fig. 3), httping \[18\],
//!   MobiPerf's Java ping and MobiPerf's `HttpURLConnection` method. A
//!   10 ms vs the 1 s default interval drives the whole root-cause
//!   analysis of §3;
//! * [`ProbeWire`]: the one encoding of probe `n` on the wire, and of
//!   which probe a reply answers, shared with AcuteMon;
//! * [`Ping2Prober`]: the server-side double-ping of Sui et al. \[34\],
//!   kept for the ablation showing it cannot fix long paths.
//!
//! All phone-side tools implement [`phone::App`] and produce
//! [`RttRecord`]s that join against the phone ledger and sniffer captures.

#![warn(missing_docs)]

mod baseline;
mod error;
mod ping2;
mod probe;
mod record;
#[cfg(test)]
mod testutil;

pub use baseline::{Baseline, BaselineApp};
pub use error::ProbeError;
pub use ping2::{Ping2Config, Ping2Prober, Ping2Record};
pub use probe::{ProbeKind, ProbeWire, ECHO_PORT, HTTP_PORT, MAX_PROBES};
pub use record::{ping_report_quirk, RecordSet, RttRecord};
