//! # sniffer — the external wireless sniffers
//!
//! The paper estimates the network-level timestamps `ton`/`tin` with
//! external wireless sniffers (three Intel-7260 desktops, §2.2) and merges
//! their captures, so one sniffer's losses are covered by the others. Here
//! one [`CaptureNode`] attaches to the medium as a monitor and stands for
//! all N sniffers (its vantage points): on each frame it draws every
//! vantage point's capture loss, and stores a frame that any of them
//! caught once, in on-air order. Its [`CaptureIndex`] answers the analysis
//! queries: when was packet X on the air, what is `dn` for a probe pair,
//! and were there PS-Polls during a window. [`CaptureIndex::to_pcap`]
//! exports it as a standard pcap.
//!
//! ```
//! use simcore::{Sim, SimTime};
//! use sniffer::CaptureNode;
//! use wire::{Frame, Ip, Mac, Msg, Packet, PacketTag, L4};
//!
//! let pkt = |id| Packet {
//!     id, src: Ip::new(192, 168, 1, 100), dst: Ip::new(10, 0, 0, 1), ttl: 64,
//!     l4: L4::Udp { src_port: 1, dst_port: 2 }, payload_len: 8, tag: PacketTag::Probe(0),
//! };
//! let mut sim = Sim::new(0);
//! let cap = sim.add_node(Box::new(CaptureNode::new(3, 0.0)));
//! let req = Frame::data(1, Mac::local(1), Mac::local(0), pkt(100), false);
//! let resp = Frame::data(2, Mac::local(0), Mac::local(1), pkt(200), false);
//! sim.inject(cap, cap, SimTime::from_millis(10), Msg::AirRx(req));
//! sim.inject(cap, cap, SimTime::from_millis(40), Msg::AirRx(resp));
//! sim.run_until_idle(10);
//! let idx = sim.node::<CaptureNode>(cap).index();
//! assert_eq!(idx.dn_ms(100, 200), Some(30.0)); // the network-level RTT
//! ```

#![warn(missing_docs)]

use simcore::{Ctx, IdMap, Node, NodeId, SimTime};
use wire::{Frame, FrameKind, Msg, PcapWriter};

/// One captured frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Completion-of-reception time (the sniffer's stamp).
    pub at: SimTime,
    /// The frame.
    pub frame: Frame,
}

/// The testbed's sniffers as one monitor on the medium: `vantage_points`
/// receivers, each missing a frame independently with probability
/// `loss_prob`, whose captures merge as frames arrive.
pub struct CaptureNode {
    vantage_points: usize,
    loss_prob: f64,
    index: CaptureIndex,
}

impl CaptureNode {
    /// `vantage_points` sniffers with per-frame capture loss `loss_prob`
    /// each (real sniffers miss frames; the paper uses three to
    /// compensate).
    pub fn new(vantage_points: usize, loss_prob: f64) -> CaptureNode {
        CaptureNode {
            vantage_points,
            loss_prob,
            index: CaptureIndex::default(),
        }
    }

    /// Every frame some vantage point caught, once each.
    pub fn index(&self) -> &CaptureIndex {
        &self.index
    }

    /// Give the capture the index an earlier capture left
    /// ([`CaptureNode::take_index`]), before it runs.
    pub fn set_index(&mut self, index: CaptureIndex) {
        debug_assert!(index.captures.is_empty() && index.air_time.is_empty());
        self.index = index;
    }

    /// Take the index out, emptied but with its capacity, for the next
    /// capture ([`CaptureNode::set_index`]). A testbed that runs device
    /// after device hands it on this way, so a capture grows it only
    /// past the largest earlier one's size.
    pub fn take_index(&mut self) -> CaptureIndex {
        let mut index = std::mem::take(&mut self.index);
        index.captures.clear();
        index.air_time.clear();
        index
    }
}

impl Node<Msg> for CaptureNode {
    fn layer(&self) -> &'static str {
        "sniffer"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::AirRx(frame) = msg {
            // One loss draw per vantage point, in order, on every copy:
            // the draws N sniffer nodes heard in turn would make. A
            // lossless capture draws nothing.
            let mut missed = 0;
            for _ in 0..self.vantage_points {
                if ctx.rng().chance(self.loss_prob) {
                    missed += 1;
                }
            }
            if missed < self.vantage_points {
                self.index.record(ctx.now(), frame);
            }
        }
    }
}

/// The merged capture, answering the paper's analysis queries.
#[derive(Debug, Default)]
pub struct CaptureIndex {
    /// Sorted by `(at, frame id)`, one entry per frame id.
    captures: Vec<Capture>,
    /// packet id → first time a data frame carrying it was on the air.
    air_time: IdMap<SimTime>,
}

impl CaptureIndex {
    /// Store `frame`, caught at `at`, unless it is stored already. Frames
    /// arrive in time order, and the medium delivers every copy of a
    /// frame at one instant, so a stored copy can only sit among the
    /// captures at `at`; those stay sorted by frame id.
    fn record(&mut self, at: SimTime, frame: Frame) {
        debug_assert!(self.captures.last().is_none_or(|c| c.at <= at));
        let tie = self
            .captures
            .iter()
            .rposition(|c| c.at < at)
            .map_or(0, |i| i + 1);
        let Err(i) = self.captures[tie..].binary_search_by_key(&frame.id, |c| c.frame.id) else {
            return;
        };
        if let FrameKind::Data { packet, .. } = &frame.kind {
            self.air_time.entry(packet.id).or_insert(at);
        }
        self.captures.insert(tie + i, Capture { at, frame });
    }

    /// The merged captures, in on-air order.
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

    /// The capture as a pcap byte stream, one record per frame.
    pub fn to_pcap(&self) -> PcapWriter {
        let mut w = PcapWriter::new();
        for c in &self.captures {
            w.record_frame(c.at, &c.frame);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{DetRng, Sim};
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

    /// A lossless capture of `frames` delivered at their times.
    fn captured(frames: Vec<(SimTime, Frame)>) -> CaptureIndex {
        let mut sim = Sim::new(0);
        let cap = sim.add_node(Box::new(CaptureNode::new(1, 0.0)));
        for (at, frame) in frames {
            sim.inject(cap, cap, at, Msg::AirRx(frame));
        }
        sim.run_until_idle(1_000);
        std::mem::take(&mut sim.node_mut::<CaptureNode>(cap).index)
    }

    #[test]
    fn sniffer_records_airrx_only() {
        let mut sim = Sim::new(0);
        let s = sim.add_node(Box::new(CaptureNode::new(1, 0.0)));
        sim.inject(s, s, SimTime::from_millis(1), Msg::AirRx(data_frame(1, 10)));
        sim.inject(s, s, SimTime::from_millis(2), Msg::TxDone { frame_id: 1 });
        sim.run_until_idle(10);
        let captures = sim.node::<CaptureNode>(s).index().captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].at, SimTime::from_millis(1));
    }

    /// Three vantage points at 50% loss, fed frames 0..200 (frame `fid`
    /// at `fid × 10 µs`, frame 100 twice at one instant), next to a
    /// `DetRng` replay of three `chance(0.5)` per delivery from the same
    /// seed, in vantage order, duplicates included.
    struct LossyRun {
        /// Frame ids in delivery order.
        deliveries: Vec<u64>,
        /// Per delivery, which vantage points caught it, by the replay.
        caught: Vec<[bool; 3]>,
        /// What the capture stored.
        stored: Vec<Capture>,
        /// The engine's and the replay's next draw after the run.
        next_draws: (u64, u64),
    }

    fn lossy_run() -> LossyRun {
        const SEED: u64 = 3;
        let mut sim = Sim::new(SEED);
        let cap = sim.add_node(Box::new(CaptureNode::new(3, 0.5)));
        let mut deliveries: Vec<u64> = (0..200).collect();
        deliveries.insert(101, 100);
        for &fid in &deliveries {
            let at = SimTime::from_micros(fid * 10);
            sim.inject(cap, cap, at, Msg::AirRx(data_frame(fid, 1000 + fid)));
        }
        sim.run_until_idle(1_000);
        let mut replay = DetRng::new(SEED);
        let caught = deliveries
            .iter()
            .map(|_| std::array::from_fn(|_| !replay.chance(0.5)))
            .collect();
        let stored = std::mem::take(&mut sim.node_mut::<CaptureNode>(cap).index).captures;
        let next_draws = (sim.fork_rng(0).next_u64(), replay.fork(0).next_u64());
        LossyRun {
            deliveries,
            caught,
            stored,
            next_draws,
        }
    }

    /// Each vantage point misses frames on its own draw: the capture
    /// stores exactly the frames the replay says some vantage point
    /// caught, loses the rest, and 201 deliveries cost 603 draws.
    #[test]
    fn lossy_sniffer_drops_some() {
        let run = lossy_run();
        let mut want: Vec<u64> = Vec::new();
        for (&fid, caught) in run.deliveries.iter().zip(&run.caught) {
            if caught.contains(&true) && want.last() != Some(&fid) {
                want.push(fid);
            }
        }
        let got: Vec<u64> = run.stored.iter().map(|c| c.frame.id).collect();
        assert_eq!(got, want);
        assert!(got.len() < 200, "nothing was lost");
        assert_eq!(run.next_draws.0, run.next_draws.1);
    }

    /// One vantage point's losses are covered by the others: a frame only
    /// one of them caught is stored, and the capture holds more frames
    /// than any single vantage point caught.
    #[test]
    fn merge_fills_capture_losses() {
        let run = lossy_run();
        let stored = |fid: u64| run.stored.iter().any(|c| c.frame.id == fid);
        let by_one: Vec<u64> = run
            .deliveries
            .iter()
            .zip(&run.caught)
            .filter(|(_, caught)| caught.iter().filter(|&&c| c).count() == 1)
            .map(|(&fid, _)| fid)
            .collect();
        assert!(!by_one.is_empty(), "no frame caught by just one");
        assert!(by_one.iter().all(|&fid| stored(fid)));
        for v in 0..3 {
            let mut single: Vec<u64> = run
                .deliveries
                .iter()
                .zip(&run.caught)
                .filter(|(_, caught)| caught[v])
                .map(|(&fid, _)| fid)
                .collect();
            single.dedup();
            assert!(run.stored.len() > single.len(), "vantage point {v}");
        }
    }

    /// Frame 100, delivered twice at one instant, is stored once, at the
    /// first copy's time, and its second copy still costs each vantage
    /// point a draw.
    #[test]
    fn merge_dedups_by_frame_id_keeping_earliest() {
        let run = lossy_run();
        let copies = &run.caught[100..=101];
        assert_eq!(run.deliveries[100..=101], [100, 100]);
        assert!(copies.iter().all(|caught| caught.contains(&true)));
        let at: Vec<SimTime> = run
            .stored
            .iter()
            .filter(|c| c.frame.id == 100)
            .map(|c| c.at)
            .collect();
        assert_eq!(at, [SimTime::from_micros(1_000)]);
        assert_eq!(run.next_draws.0, run.next_draws.1);
    }

    #[test]
    fn same_instant_frames_keep_frame_id_order() {
        let t = SimTime::from_millis(3);
        let idx = captured(vec![
            (t, data_frame(9, 90)),
            (t, data_frame(4, 40)),
            (t, data_frame(9, 90)),
            (SimTime::from_millis(1), data_frame(7, 70)),
        ]);
        let order: Vec<u64> = idx.captures().iter().map(|c| c.frame.id).collect();
        assert_eq!(order, [7, 4, 9]);
    }

    #[test]
    fn dn_from_probe_pair() {
        let idx = captured(vec![
            (SimTime::from_millis(10), data_frame(1, 100)),
            (SimTime::from_micros(41_300), data_frame(2, 200)),
        ]);
        assert!((idx.dn_ms(100, 200).unwrap() - 31.3).abs() < 1e-9);
        assert_eq!(idx.dn_ms(100, 999), None);
    }

    #[test]
    fn psm_signatures() {
        let idx = captured(vec![
            (
                SimTime::from_millis(1),
                Frame::ps_poll(1, Mac::local(1), Mac::local(0)),
            ),
            (
                SimTime::from_millis(2),
                Frame::beacon(2, Mac::local(0), vec![Mac::local(1)]),
            ),
        ]);
        assert_eq!(
            idx.ps_polls_between(SimTime::ZERO, SimTime::from_millis(5)),
            1
        );
        assert_eq!(
            idx.ps_polls_between(SimTime::from_millis(2), SimTime::from_millis(5)),
            0
        );
    }

    #[test]
    fn pcap_export_has_all_records() {
        let idx = captured(
            (0..5)
                .map(|i| (SimTime::from_millis(i), data_frame(i, 100 + i)))
                .collect(),
        );
        let w = idx.to_pcap();
        assert_eq!(w.count(), 5);
        assert!(w.to_bytes().len() > 24);
    }

    #[test]
    fn air_time_uses_first_observation() {
        // Same packet id in two frames (e.g. a MAC retry would re-air it):
        // the first on-air time is the one that defines ton.
        let idx = captured(vec![
            (SimTime::from_millis(2), data_frame(1, 10)),
            (SimTime::from_millis(4), data_frame(2, 10)),
        ]);
        assert_eq!(idx.air_time(10), Some(SimTime::from_millis(2)));
    }
}
