//! # sniffer — the external wireless sniffers
//!
//! The paper estimates the network-level timestamps `ton`/`tin` with
//! external wireless sniffers (three Intel-7260 desktops, §2.2). Here a
//! [`SnifferNode`] attaches to the medium and records every frame with its
//! on-air completion time; [`merge_captures`] combines multiple sniffers
//! (deduplicating by frame id, keeping the earliest observation, exactly
//! what the multi-sniffer testbed does to avoid capture losses); and
//! [`CaptureIndex`] answers the analysis queries: when was packet X on the
//! air, what is `dn` for a probe pair, and was there any PSM activity
//! (PS-Polls, TIM-advertised buffering) during a window.
//!
//! Captures export to standard pcap via [`wire::PcapWriter`].
//!
//! ```
//! use simcore::SimTime;
//! use sniffer::{Capture, CaptureIndex, SnifferNode};
//! use wire::{Frame, Ip, Mac, Packet, PacketTag, L4};
//!
//! let pkt = |id| Packet {
//!     id, src: Ip::new(192, 168, 1, 100), dst: Ip::new(10, 0, 0, 1), ttl: 64,
//!     l4: L4::Udp { src_port: 1, dst_port: 2 }, payload_len: 8, tag: PacketTag::Probe(0),
//! };
//! let mut s = SnifferNode::new("A");
//! s.captures.push(Capture {
//!     at: SimTime::from_millis(10),
//!     frame: Frame::data(1, Mac::local(1), Mac::local(0), pkt(100), false),
//! });
//! s.captures.push(Capture {
//!     at: SimTime::from_millis(40),
//!     frame: Frame::data(2, Mac::local(0), Mac::local(1), pkt(200), false),
//! });
//! let idx = CaptureIndex::from_sniffers(&[&s]);
//! assert_eq!(idx.dn_ms(100, 200), Some(30.0)); // the network-level RTT
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;

use simcore::{Ctx, Node, NodeId, SimTime};
use wire::{Frame, FrameKind, Msg, PcapWriter};

/// One captured frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Completion-of-reception time (the sniffer's stamp).
    pub at: SimTime,
    /// The frame.
    pub frame: Frame,
}

/// A passive sniffer attached to the medium.
pub struct SnifferNode {
    /// Human label ("Sniffer A" …).
    pub name: &'static str,
    /// Everything heard, in arrival order.
    pub captures: Vec<Capture>,
    /// Independent per-frame capture-loss probability (real sniffers miss
    /// frames; the testbed uses three sniffers to compensate).
    pub loss_prob: f64,
}

impl SnifferNode {
    /// A perfect sniffer.
    pub fn new(name: &'static str) -> SnifferNode {
        SnifferNode {
            name,
            captures: Vec::new(),
            loss_prob: 0.0,
        }
    }

    /// A lossy sniffer (for multi-sniffer merge tests/experiments).
    pub fn lossy(name: &'static str, loss_prob: f64) -> SnifferNode {
        SnifferNode {
            name,
            captures: Vec::new(),
            loss_prob,
        }
    }

    /// Export this sniffer's capture as a pcap byte stream.
    pub fn to_pcap(&self) -> PcapWriter {
        let mut w = PcapWriter::new();
        for c in &self.captures {
            w.record_frame(c.at, &c.frame);
        }
        w
    }
}

impl Node<Msg> for SnifferNode {
    fn layer(&self) -> &'static str {
        "sniffer"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::AirRx(frame) = msg {
            if self.loss_prob > 0.0 && ctx.rng().chance(self.loss_prob) {
                return;
            }
            self.captures.push(Capture {
                at: ctx.now(),
                frame,
            });
        }
    }
}

/// Merge several sniffers' captures: dedup by frame id (earliest stamp
/// wins), sorted by time.
pub fn merge_captures(sniffers: &[&SnifferNode]) -> Vec<Capture> {
    let mut best: HashMap<u64, Capture> = HashMap::new();
    for s in sniffers {
        for c in &s.captures {
            best.entry(c.frame.id)
                .and_modify(|old| {
                    if c.at < old.at {
                        *old = c.clone();
                    }
                })
                .or_insert_with(|| c.clone());
        }
    }
    let mut out: Vec<Capture> = best.into_values().collect();
    out.sort_by_key(|c| (c.at, c.frame.id));
    out
}

/// An index over merged captures answering the paper's analysis queries.
pub struct CaptureIndex {
    captures: Vec<Capture>,
    /// packet id → first time a data frame carrying it was on the air.
    air_time: HashMap<u64, SimTime>,
}

impl CaptureIndex {
    /// Build from merged captures.
    pub fn new(captures: Vec<Capture>) -> CaptureIndex {
        let mut air_time = HashMap::new();
        for c in &captures {
            if let FrameKind::Data { packet, .. } = &c.frame.kind {
                air_time.entry(packet.id).or_insert(c.at);
            }
        }
        CaptureIndex { captures, air_time }
    }

    /// Build directly from a set of sniffers.
    pub fn from_sniffers(sniffers: &[&SnifferNode]) -> CaptureIndex {
        CaptureIndex::new(merge_captures(sniffers))
    }

    /// The merged captures.
    pub fn captures(&self) -> &[Capture] {
        &self.captures
    }

    /// When packet `id` was on the air (first observation).
    pub fn air_time(&self, id: u64) -> Option<SimTime> {
        self.air_time.get(&id).copied()
    }

    /// `dn` in ms for a request/response packet-id pair (§2.1: the
    /// network-level RTT between `ton` and `tin`).
    pub fn dn_ms(&self, req: u64, resp: u64) -> Option<f64> {
        let ton = self.air_time(req)?;
        let tin = self.air_time(resp)?;
        Some(tin.saturating_since(ton).as_ms_f64())
    }

    /// PS-Poll frames seen in `[from, to]` — the paper's check that "no
    /// PSM activity can be detected" under AcuteMon (§4.2.1).
    pub fn ps_polls_between(&self, from: SimTime, to: SimTime) -> usize {
        self.captures
            .iter()
            .filter(|c| c.at >= from && c.at <= to)
            .filter(|c| matches!(c.frame.kind, FrameKind::PsPoll))
            .count()
    }

    /// Beacons whose TIM was non-empty in `[from, to]` (buffered traffic
    /// advertised — another PSM signature).
    pub fn tim_advertisements_between(&self, from: SimTime, to: SimTime) -> usize {
        self.captures
            .iter()
            .filter(|c| c.at >= from && c.at <= to)
            .filter(|c| matches!(&c.frame.kind, FrameKind::Beacon { tim } if !tim.is_empty()))
            .count()
    }

    /// Count of data frames captured.
    pub fn data_frames(&self) -> usize {
        self.captures
            .iter()
            .filter(|c| matches!(c.frame.kind, FrameKind::Data { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimDuration};
    use wire::{Ip, Mac, Packet, PacketTag, L4};

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src: Ip::new(192, 168, 1, 100),
            dst: Ip::new(10, 0, 0, 1),
            ttl: 64,
            l4: L4::Udp {
                src_port: 1,
                dst_port: 2,
            },
            payload_len: 16,
            tag: PacketTag::Probe(0),
        }
    }

    fn data_frame(fid: u64, pid: u64) -> Frame {
        Frame::data(fid, Mac::local(1), Mac::local(0), pkt(pid), false)
    }

    #[test]
    fn sniffer_records_airrx_only() {
        let mut sim = Sim::new(0);
        let s = sim.add_node(Box::new(SnifferNode::new("A")));
        sim.inject(s, s, SimTime::from_millis(1), Msg::AirRx(data_frame(1, 10)));
        sim.inject(s, s, SimTime::from_millis(2), Msg::TxDone { frame_id: 1 });
        sim.run_until_idle(10);
        let sn = sim.node::<SnifferNode>(s);
        assert_eq!(sn.captures.len(), 1);
        assert_eq!(sn.captures[0].at, SimTime::from_millis(1));
    }

    #[test]
    fn merge_dedups_by_frame_id_keeping_earliest() {
        let mut a = SnifferNode::new("A");
        let mut b = SnifferNode::new("B");
        a.captures.push(Capture {
            at: SimTime::from_millis(5),
            frame: data_frame(1, 10),
        });
        b.captures.push(Capture {
            at: SimTime::from_millis(4),
            frame: data_frame(1, 10),
        });
        b.captures.push(Capture {
            at: SimTime::from_millis(9),
            frame: data_frame(2, 11),
        });
        let merged = merge_captures(&[&a, &b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].at, SimTime::from_millis(4));
        assert_eq!(merged[1].frame.id, 2);
    }

    #[test]
    fn merge_fills_capture_losses() {
        // Sniffer A missed frame 2; B missed frame 1; merged has both.
        let mut a = SnifferNode::new("A");
        let mut b = SnifferNode::new("B");
        a.captures.push(Capture {
            at: SimTime::from_millis(1),
            frame: data_frame(1, 10),
        });
        b.captures.push(Capture {
            at: SimTime::from_millis(2),
            frame: data_frame(2, 11),
        });
        let idx = CaptureIndex::from_sniffers(&[&a, &b]);
        assert!(idx.air_time(10).is_some());
        assert!(idx.air_time(11).is_some());
    }

    #[test]
    fn dn_from_probe_pair() {
        let mut a = SnifferNode::new("A");
        a.captures.push(Capture {
            at: SimTime::from_millis(10),
            frame: data_frame(1, 100),
        });
        a.captures.push(Capture {
            at: SimTime::from_micros(41_300),
            frame: data_frame(2, 200),
        });
        let idx = CaptureIndex::from_sniffers(&[&a]);
        assert!((idx.dn_ms(100, 200).unwrap() - 31.3).abs() < 1e-9);
        assert_eq!(idx.dn_ms(100, 999), None);
        assert_eq!(idx.data_frames(), 2);
    }

    #[test]
    fn psm_signatures() {
        let mut a = SnifferNode::new("A");
        a.captures.push(Capture {
            at: SimTime::from_millis(1),
            frame: Frame::ps_poll(1, Mac::local(1), Mac::local(0)),
        });
        a.captures.push(Capture {
            at: SimTime::from_millis(2),
            frame: Frame::beacon(2, Mac::local(0), vec![Mac::local(1)]),
        });
        a.captures.push(Capture {
            at: SimTime::from_millis(3),
            frame: Frame::beacon(3, Mac::local(0), vec![]),
        });
        let idx = CaptureIndex::new(merge_captures(&[&a]));
        assert_eq!(
            idx.ps_polls_between(SimTime::ZERO, SimTime::from_millis(5)),
            1
        );
        assert_eq!(
            idx.tim_advertisements_between(SimTime::ZERO, SimTime::from_millis(5)),
            1
        );
        assert_eq!(
            idx.ps_polls_between(SimTime::from_millis(2), SimTime::from_millis(5)),
            0
        );
    }

    #[test]
    fn lossy_sniffer_drops_some() {
        let mut sim = Sim::new(3);
        let s = sim.add_node(Box::new(SnifferNode::lossy("L", 0.5)));
        for i in 0..200 {
            sim.inject(
                s,
                s,
                SimTime::from_micros(i * 10),
                Msg::AirRx(data_frame(i, 1000 + i)),
            );
        }
        sim.run_until_idle(1000);
        let n = sim.node::<SnifferNode>(s).captures.len();
        assert!((60..140).contains(&n), "n={n}");
    }

    #[test]
    fn pcap_export_has_all_records() {
        let mut a = SnifferNode::new("A");
        for i in 0..5 {
            a.captures.push(Capture {
                at: SimTime::from_millis(i),
                frame: data_frame(i, 100 + i),
            });
        }
        let w = a.to_pcap();
        assert_eq!(w.count(), 5);
        assert!(w.to_bytes().len() > 24);
    }

    #[test]
    fn air_time_uses_first_observation() {
        // Same packet id in two frames (e.g. a MAC retry would re-air it):
        // the first on-air time is the one that defines ton.
        let mut a = SnifferNode::new("A");
        a.captures.push(Capture {
            at: SimTime::from_millis(2),
            frame: data_frame(1, 10),
        });
        a.captures.push(Capture {
            at: SimTime::from_millis(4),
            frame: data_frame(2, 10),
        });
        let idx = CaptureIndex::new(merge_captures(&[&a]));
        assert_eq!(idx.air_time(10), Some(SimTime::from_millis(2)));
        let _ = SimDuration::ZERO;
    }
}
