//! Link replay: `Link::enqueue` + `Link::tx_done` with a workload's
//! rate, queue size, and data/ACK mix.

use super::{mix, Pass, Replay, CHECKSUM_BASIS};
use speakup_net::link::{Enqueue, Link, LinkConfig};
use speakup_net::packet::{FlowId, NodeId, Packet, PacketKind};
use speakup_net::rng::Pcg32;
use speakup_net::time::SimDuration;

/// How a workload uses its busiest links.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Link rate, bits/s.
    pub rate_bps: u64,
    /// One-way propagation delay, µs.
    pub delay_us: u64,
    /// Drop-tail queue capacity, full-size packets.
    pub queue_packets: u64,
    /// Percent of offered packets that are full-size data segments (the
    /// rest are 40-byte ACKs).
    pub data_pct: u32,
    /// Largest burst of back-to-back offers (or completions); bursts
    /// above the queue capacity overflow it.
    pub max_burst: u32,
    /// Packets offered in one pass.
    pub packets: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Offer one packet.
    Offer { data: bool, flow: u32 },
    /// Complete up to `n` transmissions.
    Drain { n: u32 },
}

/// A generated offer/complete stream for one link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    rate_bps: u64,
    delay_us: u64,
    queue_packets: u64,
    ops: Vec<Op>,
}

/// Generates alternating offer and completion bursts for `shape`.
pub fn script(shape: &Shape, seed: u64) -> Script {
    let mut rng = Pcg32::new(seed, 0x11c);
    let mut ops = Vec::with_capacity(shape.packets + shape.packets / 2);
    let mut offered = 0;
    while offered < shape.packets {
        let burst = 1 + rng.below(shape.max_burst);
        for _ in 0..burst {
            ops.push(Op::Offer {
                data: rng.below(100) < shape.data_pct,
                flow: rng.below(64),
            });
        }
        offered += burst as usize;
        ops.push(Op::Drain {
            n: 1 + rng.below(shape.max_burst),
        });
    }
    Script {
        rate_bps: shape.rate_bps,
        delay_us: shape.delay_us,
        queue_packets: shape.queue_packets,
        ops,
    }
}

impl Replay for Script {
    fn pass(&self) -> Pass {
        let cfg = LinkConfig::new(self.rate_bps, SimDuration::from_micros(self.delay_us))
            .queue_packets(self.queue_packets);
        let mut link = Link::new(cfg, NodeId(1));
        let mut checksum = CHECKSUM_BASIS;
        let mut offset = 0u64;
        let mut packets = 0u64;
        for op in &self.ops {
            match *op {
                Op::Offer { data, flow } => {
                    let (size, kind) = if data {
                        offset += 1460;
                        (1500, PacketKind::Data { offset, len: 1460 })
                    } else {
                        (40, PacketKind::Ack { cum: offset })
                    };
                    let p = Packet {
                        flow: FlowId(flow),
                        src: NodeId(0),
                        dst: NodeId(1),
                        size,
                        kind,
                    };
                    checksum = mix(
                        checksum,
                        match link.enqueue(p, 1.0) {
                            Enqueue::StartTx(d) => d.as_nanos(),
                            Enqueue::Queued => 1,
                            Enqueue::Dropped => 2,
                        },
                    );
                    packets += 1;
                }
                Op::Drain { n } => {
                    for _ in 0..n {
                        if !link.is_busy() {
                            break;
                        }
                        let (done, next) = link.tx_done();
                        checksum = mix(
                            checksum,
                            u64::from(done.size) ^ next.map_or(0, |d| d.as_nanos() << 16),
                        );
                    }
                }
            }
        }
        Pass {
            ops: packets,
            checksum,
        }
    }
}
