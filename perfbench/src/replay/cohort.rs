//! Cohort replay: `CohortTracker` on_fire / on_served / overdue for one
//! flyweight cohort.

use super::{mix, Pass, Replay, CHECKSUM_BASIS};
use speakup_core::client::ClientProfile;
use speakup_core::cohort::CohortTracker;
use speakup_net::ids::MemberId;
use speakup_net::rng::Pcg32;
use speakup_net::time::{SimDuration, SimTime};

/// How a workload uses its cohorts.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Members aggregated by one tracker.
    pub members: u32,
    /// Whether the members run the bad-client profile (λ = 40, window
    /// 20) rather than the good one (λ = 2, window 1).
    pub bad: bool,
    /// Percent of operations that serve an outstanding request (the
    /// rest are arrivals, plus an `overdue` sweep every 256 ops).
    pub serve_pct: u32,
    /// Operations in one pass.
    pub ops: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Member `member`'s arrival process fired, `gap_us` after the last op.
    Fire { member: u32, gap_us: u32 },
    /// A response arrived for outstanding request number `pick` (modulo
    /// the outstanding count).
    Serve { pick: u32 },
    /// Give-up sweep.
    Overdue,
}

/// A generated arrival/response stream for one cohort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    members: u32,
    bad: bool,
    ops: Vec<Op>,
}

/// Generates `shape.ops` operations.
pub fn script(shape: &Shape, seed: u64) -> Script {
    let mut rng = Pcg32::new(seed, 0xc0c);
    let ops = (0..shape.ops)
        .map(|i| {
            if i % 256 == 255 {
                Op::Overdue
            } else if rng.below(100) < shape.serve_pct {
                Op::Serve {
                    pick: rng.next_u32(),
                }
            } else {
                Op::Fire {
                    member: rng.below(shape.members),
                    gap_us: rng.below(50),
                }
            }
        })
        .collect();
    Script {
        members: shape.members,
        bad: shape.bad,
        ops,
    }
}

impl Replay for Script {
    fn pass(&self) -> Pass {
        let profile = if self.bad {
            ClientProfile::bad()
        } else {
            ClientProfile::good()
        };
        let mut tracker = CohortTracker::new(profile, self.members);
        let mut outstanding: Vec<u64> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut checksum = CHECKSUM_BASIS;
        let mut calls = 0u64;
        for op in &self.ops {
            match *op {
                Op::Fire { member, gap_us } => {
                    now += SimDuration::from_micros(u64::from(gap_us));
                    let issued = tracker.on_fire(MemberId(member), now);
                    calls += 1;
                    checksum = mix(checksum, issued.map_or(1, |id| id << 1));
                    outstanding.extend(issued);
                }
                Op::Serve { pick } => {
                    if outstanding.is_empty() {
                        continue;
                    }
                    let id = outstanding.swap_remove(pick as usize % outstanding.len());
                    let next = tracker.on_served(now, id);
                    calls += 1;
                    checksum = mix(checksum, next.map_or(1, |id| id << 1));
                    outstanding.extend(next);
                }
                Op::Overdue => {
                    checksum = mix(checksum, tracker.overdue(now).len() as u64);
                    calls += 1;
                }
            }
        }
        checksum = mix(
            checksum,
            tracker.stats.served ^ (tracker.stats.denied_backlog << 32),
        );
        Pass {
            ops: calls,
            checksum,
        }
    }
}
