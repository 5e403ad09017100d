//! # wire — packets, frames, and byte-level codecs
//!
//! The shared vocabulary of the simulated testbed:
//!
//! * [`Ip`] / [`Mac`] addresses;
//! * [`Packet`]: an IPv4 packet with real header fields plus simulation
//!   metadata (unique id for cross-layer correlation, experiment
//!   [`PacketTag`]);
//! * [`Frame`]: the 802.11 frames the paper's analysis cares about
//!   (beacon + TIM, data with PM bit, null-data, PS-Poll, ACK);
//! * [`Msg`]: the inter-node message enum that instantiates the
//!   `simcore` engine;
//! * [`codec`]: complete IPv4/ICMP/UDP/TCP serialization with correct
//!   checksums, and parsers that verify them;
//! * [`PcapWriter`]: export of sniffer captures as standard pcap files;
//! * [`framing`]: length-prefixed message frames for the collector
//!   daemon's push protocol;
//! * [`chaos`]: a deterministic fault-injecting stream wrapper (torn
//!   frames, partial I/O, stalls, resets at byte offsets) for
//!   crash-safety testing on both ends of the push protocol.

#![warn(missing_docs)]

mod addr;
pub mod chaos;
pub mod codec;
mod frame;
pub mod framing;
mod msg;
mod packet;
pub mod pcap;

pub use addr::{Ip, Mac, ParseIpError};
pub use frame::{Frame, FrameKind, Tim, TIM_CAPACITY};
pub use msg::Msg;
pub use packet::{IcmpKind, Packet, PacketIdGen, PacketTag, TcpFlags, L4};
pub use pcap::{read_pcap, PcapReadError, PcapRecord, PcapWriter};
