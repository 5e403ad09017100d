//! # phone — the smartphone substrate
//!
//! A faithful model of the delay pipeline of the paper's Fig. 1 plus the
//! energy-saving mechanisms of §3.2:
//!
//! * [`PhoneNode`]: the layered stack — app runtime (Dalvik or native) →
//!   kernel → WNIC driver (`bcmdhd`/`wcnss` style dpc + rxframe threads) →
//!   SDIO/SMD bus → NIC. Every packet is stamped at every vantage point in
//!   a [`Ledger`].
//! * [`SdioBus`]: the host-bus sleep state machine — watchdog-driven idle
//!   demotion after `Tis = idletime × watchdog` (50 ms), wake (promotion)
//!   costs of ~10–14 ms for Broadcom and less for Qualcomm (Table 3).
//! * [`PhoneProfile`]: the five phones of Table 1 with parameters
//!   calibrated to the paper (Tables 3–4, Figs. 3 and 7).
//! * [`App`]/[`AppCtx`]: the socket-like API measurement tools run on.
//!
//! The 802.11 PSM half of the story lives in the `phy80211` crate; a phone
//! connects to its [`phy80211::StaMacNode`] by node id.
//!
//! ```
//! use phone::{nexus5, PhoneNode, SdioBus};
//! use simcore::{SimDuration, SimTime};
//!
//! // The SDIO sleep state machine alone: 50 ms demotion, lazy evaluation.
//! let profile = nexus5();
//! assert_eq!(profile.bus.tis(), SimDuration::from_millis(50));
//! let mut bus = SdioBus::new(profile.bus.tis(), true);
//! assert!(!bus.is_awake(SimTime::ZERO)); // starts asleep
//! bus.touch(SimTime::from_millis(100), SimTime::from_millis(110));
//! assert!(bus.is_awake(SimTime::from_millis(150)));
//! assert!(!bus.is_awake(SimTime::from_millis(161))); // demoted at 160
//! ```

#![warn(missing_docs)]

mod app;
mod ledger;
mod node;
mod profiles;
mod sdio;

pub use app::{App, AppCtx, PhoneCore, PhoneStats};
pub use ledger::{Ledger, PacketStamps};
pub use node::{wired_ip, wlan_ip, PhoneNode, PhoneTables};
pub use profiles::{
    all_phones, htc_one, nexus4, nexus5, samsung_grand, xperia_j, BusParams, ChipVendor,
    PhoneProfile, RuntimeKind,
};
pub use sdio::{BusStats, SdioBus};
