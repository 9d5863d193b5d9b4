//! Digest replay: `BidDigest` encode → decode → `DigestBoard::merge` →
//! `remote_view` across R thinner replicas.

use super::{mix, Pass, Replay, CHECKSUM_BASIS};
use speakup_core::thinner::{BidDigest, DigestBoard};
use speakup_net::rng::Pcg32;

/// How a workload syncs its thinner replicas.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Thinner replicas exchanging digests.
    pub replicas: u32,
    /// Payment deliveries a replica folds into its digest per sync
    /// period.
    pub payments_per_sync: u32,
    /// Digest publishes (one replica's sync) in one pass.
    pub publishes: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Publish {
    replica: u32,
    payments: u32,
    contenders: u32,
    busy: bool,
    top_paid: u32,
}

/// A generated publish stream, replicas taking turns in random order
/// within each sync round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    replicas: u32,
    publishes: Vec<Publish>,
}

/// Generates `shape.publishes` digest publishes.
pub fn script(shape: &Shape, seed: u64) -> Script {
    assert!(shape.replicas > 1, "digest sync needs peers");
    let mut rng = Pcg32::new(seed, 0xd16);
    let mut publishes = Vec::with_capacity(shape.publishes);
    let mut order: Vec<u32> = (0..shape.replicas).collect();
    while publishes.len() < shape.publishes {
        rng.shuffle(&mut order);
        for &replica in &order {
            publishes.push(Publish {
                replica,
                payments: rng.below(2 * shape.payments_per_sync.max(1)),
                contenders: rng.below(200),
                busy: rng.chance(0.9),
                top_paid: rng.below(1 << 20),
            });
        }
    }
    publishes.truncate(shape.publishes);
    Script {
        replicas: shape.replicas,
        publishes,
    }
}

impl Replay for Script {
    fn pass(&self) -> Pass {
        let mut own: Vec<BidDigest> = (0..self.replicas).map(BidDigest::new).collect();
        let mut boards: Vec<DigestBoard> = (0..self.replicas).map(|_| DigestBoard::new()).collect();
        let mut checksum = CHECKSUM_BASIS;
        let mut merges = 0u64;
        for p in &self.publishes {
            let d = &mut own[p.replica as usize];
            for i in 0..p.payments {
                d.note_payment(u64::from(1460 - (i % 8) * 40));
            }
            d.epoch += 1;
            d.contenders = u64::from(p.contenders);
            d.busy = p.busy;
            d.has_top = p.contenders > 0;
            d.top_paid = u64::from(p.top_paid);
            d.top_seq = d.epoch;
            let words = d.encode();
            for peer in 0..self.replicas {
                if peer == p.replica {
                    continue;
                }
                let got = BidDigest::decode(&words).expect("encoded digest decodes");
                let board = &mut boards[peer as usize];
                let kept = board.merge(got);
                let view = board.remote_view(peer);
                merges += 1;
                checksum = mix(checksum, u64::from(kept) | (view.contenders << 1));
                checksum = mix(
                    checksum,
                    view.top
                        .map_or(0, |(paid, seq, r)| paid ^ (seq << 20) ^ u64::from(r)),
                );
            }
        }
        Pass {
            ops: merges,
            checksum,
        }
    }
}
