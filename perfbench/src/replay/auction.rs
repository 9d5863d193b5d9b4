//! Auction replay: `AuctionFrontEnd` on_request / on_payment /
//! on_server_done / on_tick at a workload's contender count.

use super::{mix, Pass, Replay, CHECKSUM_BASIS};
use speakup_core::thinner::{AuctionConfig, AuctionFrontEnd, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestId, RequestKey};
use speakup_net::rng::Pcg32;
use speakup_net::time::{SimDuration, SimTime};

/// How a workload loads the thinner.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Live contenders (open payment channels) held steady.
    pub contenders: u32,
    /// Payment deliveries per server completion: about the going rate
    /// divided by the segment size.
    pub payments_per_admission: u32,
    /// Simulated time between payment deliveries, ns.
    pub payment_gap_ns: u64,
    /// Server completions in one pass.
    pub admissions: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `bytes` delivered on contender slot `slot`'s channel.
    Pay { slot: u32, bytes: u32 },
    /// The server finished its request; the auction picks the next.
    Done,
    /// Housekeeping: expire idle channels.
    Tick,
}

/// A generated payment/completion stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    contenders: u32,
    payment_gap_ns: u64,
    ops: Vec<Op>,
}

/// Generates payments spread uniformly over the contender slots, a
/// completion every `payments_per_admission` payments on average, and a
/// tick every 64 completions.
pub fn script(shape: &Shape, seed: u64) -> Script {
    assert!(shape.contenders > 1, "an auction needs contenders");
    let mut rng = Pcg32::new(seed, 0xa0c);
    let per = shape.payments_per_admission.max(1);
    let mut ops = Vec::with_capacity(shape.admissions * (per as usize + 2));
    for done in 0..shape.admissions {
        for _ in 0..rng.below(2 * per) + 1 {
            ops.push(Op::Pay {
                slot: rng.below(shape.contenders),
                bytes: 1460 - rng.below(8) * 40,
            });
        }
        ops.push(Op::Done);
        if done % 64 == 63 {
            ops.push(Op::Tick);
        }
    }
    Script {
        contenders: shape.contenders,
        payment_gap_ns: shape.payment_gap_ns,
        ops,
    }
}

/// Front-end state plus the slot table mapping contender slots to
/// their current request.
struct Driver {
    fe: AuctionFrontEnd,
    live: Vec<RequestKey>,
    on_server: Option<RequestKey>,
    next_req: u64,
    now: SimTime,
    out: Vec<Directive>,
    calls: u64,
    checksum: u64,
}

impl Driver {
    /// A fresh request on `slot`, replacing whatever it held.
    fn request(&mut self, slot: u32) {
        let key = RequestKey::new(ClientId(slot), RequestId(self.next_req));
        self.next_req += 1;
        self.live[slot as usize] = key;
        self.fe.on_request(self.now, key, &mut self.out);
        self.calls += 1;
        self.settle();
    }

    /// Apply the directives of the last call: an admitted or dropped
    /// request's slot gets a fresh request, as its client would send.
    fn settle(&mut self) {
        while let Some(d) = self.out.pop() {
            let (tag, key) = match d {
                Directive::Admit(k) => {
                    self.on_server = Some(k);
                    (1, k)
                }
                Directive::Encourage(k) => (2, k),
                Directive::Drop(k) => (3, k),
                Directive::TerminateChannel(k) => (4, k),
                Directive::Suspend(k) | Directive::Resume(k) | Directive::AbortRequest(k) => (5, k),
            };
            self.checksum = mix(self.checksum, (key.req.0 << 3) | tag);
            if matches!(d, Directive::Admit(_) | Directive::Drop(_)) {
                self.request(key.client.0);
            }
        }
    }
}

impl Replay for Script {
    fn pass(&self) -> Pass {
        let placeholder = RequestKey::new(ClientId(0), RequestId(u64::MAX));
        let mut d = Driver {
            fe: AuctionFrontEnd::new(AuctionConfig::default()),
            live: vec![placeholder; self.contenders as usize],
            on_server: None,
            next_req: 0,
            now: SimTime::ZERO,
            out: Vec::new(),
            calls: 0,
            checksum: CHECKSUM_BASIS,
        };
        for slot in 0..self.contenders {
            d.request(slot);
        }
        let gap = SimDuration::from_nanos(self.payment_gap_ns);
        for op in &self.ops {
            match *op {
                Op::Pay { slot, bytes } => {
                    d.now += gap;
                    let key = d.live[slot as usize];
                    d.fe.on_payment(d.now, key, u64::from(bytes), &mut d.out);
                    d.calls += 1;
                    d.settle();
                }
                Op::Done => {
                    if let Some(k) = d.on_server.take() {
                        d.fe.on_server_done(d.now, k, &mut d.out);
                        d.calls += 1;
                        d.settle();
                    }
                }
                Op::Tick => {
                    let next = d.fe.on_tick(d.now, &mut d.out);
                    d.calls += 1;
                    d.checksum = mix(d.checksum, next.map_or(0, |t| t.as_nanos()));
                    d.settle();
                }
            }
        }
        Pass {
            ops: d.calls,
            checksum: d.checksum,
        }
    }
}
