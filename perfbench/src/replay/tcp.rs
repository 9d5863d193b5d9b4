//! Transport replay: one `tcp::Flow` (both ends, as the single-shard
//! engine keeps it) over a loss-free in-memory path — `write`, then
//! `on_data` per segment and `on_ack` per ACK, one window per round
//! trip.

use super::{mix, Pass, Replay, CHECKSUM_BASIS};
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::rng::Pcg32;
use speakup_net::tcp::{Flow, FlowAction, FlowConfig};
use speakup_net::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// How a workload uses its transport flows.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Typical message size, bytes (a payment POST is 1 MiB).
    pub message_bytes: u64,
    /// Congestion-window ceiling, bytes: what the path's queue and
    /// bandwidth-delay product let one flow keep in flight.
    pub max_cwnd_bytes: u64,
    /// Round-trip time, µs (sets the RTT samples and RTO values).
    pub rtt_us: u64,
    /// Messages sent, one after another, in one pass.
    pub messages: usize,
}

/// A generated message stream for one flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    sizes: Vec<u64>,
    max_cwnd_bytes: u64,
    half_rtt_ns: u64,
}

/// Generates message sizes within ±25% of the shape's message size.
pub fn script(shape: &Shape, seed: u64) -> Script {
    let mut rng = Pcg32::new(seed, 0x7c9);
    let lo = shape.message_bytes - shape.message_bytes / 4;
    let hi = shape.message_bytes + shape.message_bytes / 4;
    Script {
        sizes: (0..shape.messages).map(|_| rng.range_u64(lo, hi)).collect(),
        max_cwnd_bytes: shape.max_cwnd_bytes,
        half_rtt_ns: shape.rtt_us * 500,
    }
}

/// The in-memory path between the flow's ends, plus everything else the
/// flows asked for, folded into the checksum.
struct Wire {
    data: VecDeque<(u64, u32)>,
    acks: VecDeque<u64>,
    checksum: u64,
    drained: bool,
}

impl Wire {
    /// Route the actions of the last flow input.
    fn take(&mut self, out: &mut Vec<FlowAction>) {
        for a in out.drain(..) {
            match a {
                FlowAction::SendData { offset, len } => self.data.push_back((offset, len)),
                FlowAction::SendAck { cum } => self.acks.push_back(cum),
                FlowAction::ArmRto(d) => self.checksum = mix(self.checksum, d.as_nanos()),
                FlowAction::CancelRto => self.checksum = mix(self.checksum, 1),
                FlowAction::Deliver { tag } => self.checksum = mix(self.checksum, tag << 8),
                FlowAction::Drained => self.drained = true,
            }
        }
    }
}

impl Replay for Script {
    fn pass(&self) -> Pass {
        let cfg = FlowConfig {
            max_cwnd_bytes: self.max_cwnd_bytes,
            ..FlowConfig::default()
        };
        let mut flow = Flow::new(FlowId(1), NodeId(0), NodeId(1), cfg);
        let half_rtt = SimDuration::from_nanos(self.half_rtt_ns);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        let mut wire = Wire {
            data: VecDeque::new(),
            acks: VecDeque::new(),
            checksum: CHECKSUM_BASIS,
            drained: true,
        };
        let mut segments = 0u64;
        let mut sizes = self.sizes.iter().enumerate();
        loop {
            if wire.drained {
                let Some((tag, &bytes)) = sizes.next() else {
                    break;
                };
                wire.drained = false;
                flow.write(now, bytes, tag as u64, &mut out);
                wire.take(&mut out);
            }
            assert!(!wire.data.is_empty(), "transport replay stalled");
            // One round trip: the window reaches the receiver, then its
            // ACKs reach the sender, which queues the next window.
            now += half_rtt;
            while let Some((offset, len)) = wire.data.pop_front() {
                flow.on_data(now, offset, len, &mut out);
                wire.take(&mut out);
                segments += 1;
            }
            now += half_rtt;
            while let Some(cum) = wire.acks.pop_front() {
                flow.on_ack(now, cum, &mut out);
                wire.take(&mut out);
            }
        }
        Pass {
            ops: segments,
            checksum: mix(wire.checksum, flow.delivered_bytes()),
        }
    }
}
