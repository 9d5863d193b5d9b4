//! Deterministic fault schedules: link flaps and node crash/restart.
//!
//! A [`FaultSchedule`] is a list of `(at, down_for, what)` entries built
//! either explicitly (scenario- or CLI-driven) or derived from a seed via
//! the same location-keyed PCG streams the rest of the engine uses: each
//! link or node draws its flap times from its own stream, so a schedule
//! is a pure function of `(seed, entity)` — independent of iteration
//! order and of every other entity's schedule.
//!
//! The schedule itself is inert data. [`crate::sim::Simulator::inject_faults`]
//! turns it into events on dedicated fault lanes, so every fault boundary
//! takes a fixed place in the canonical `(time, lane, seq)` order.

use crate::packet::{LinkId, NodeId};
use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};

/// PCG stream namespace for fault scheduling, disjoint from the node
/// (`1 << 40`) and link (`2 << 40`) namespaces used by the simulator.
pub const STREAM_FAULT: u64 = 3 << 40;

/// Distinguishes node-crash streams from link-flap streams within
/// [`STREAM_FAULT`] (entity indices are far below this bit).
const FAULT_NODE_BIT: u64 = 1 << 39;

/// What a fault entry takes down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The link stops carrying packets: everything queued or being
    /// transmitted is dropped, and packets offered while down are
    /// dropped without consulting the link's [`crate::link::DropSampler`]
    /// (the batched loss stream must stay byte-identical).
    LinkDown(LinkId),
    /// The node crashes: its flows abort, its pending timers die, and
    /// its app re-initializes when the node restarts.
    NodeCrash(NodeId),
}

/// One scheduled fault: `kind` goes down at `at` and recovers at
/// `at + down_for`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// When the fault strikes.
    pub at: SimTime,
    /// How long the entity stays down.
    pub down_for: SimDuration,
    /// What goes down.
    pub kind: FaultKind,
}

impl FaultEntry {
    /// When the entity recovers.
    pub fn up_at(&self) -> SimTime {
        self.at + self.down_for
    }
}

/// A deterministic list of faults to inject into a run.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    entries: Vec<FaultEntry>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Schedule a link flap: `link` goes down at `at` for `down_for`.
    ///
    /// # Panics
    ///
    /// Panics if `down_for` is zero — a zero-length outage is a schedule
    /// typo, not a no-op worth silently accepting.
    pub fn link_down(&mut self, at: SimTime, link: LinkId, down_for: SimDuration) -> &mut Self {
        assert!(
            down_for > SimDuration::ZERO,
            "link flap must have a positive duration"
        );
        self.entries.push(FaultEntry {
            at,
            down_for,
            kind: FaultKind::LinkDown(link),
        });
        self
    }

    /// Schedule a node crash: `node` goes down at `at` and restarts at
    /// `at + down_for`.
    ///
    /// # Panics
    ///
    /// Panics if `down_for` is zero.
    pub fn node_crash(&mut self, at: SimTime, node: NodeId, down_for: SimDuration) -> &mut Self {
        assert!(
            down_for > SimDuration::ZERO,
            "node crash must have a positive duration"
        );
        self.entries.push(FaultEntry {
            at,
            down_for,
            kind: FaultKind::NodeCrash(node),
        });
        self
    }

    /// The scheduled faults, in insertion order (the simulator orders
    /// them by `(time, lane, seq)` at injection; insertion order here is
    /// immaterial).
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Derive link flaps for each of `links` from `seed`: flap onsets are
    /// Poisson with mean spacing `mean_every`, outages exponential with
    /// mean `mean_down` (floored at 1 ms so a degenerate draw still
    /// produces an observable outage), clipped to `[0, horizon)`.
    ///
    /// Each link draws from its own `STREAM_FAULT | link` PCG stream, so
    /// one link's schedule never perturbs another's and the result is
    /// independent of the order (or number) of links passed in.
    pub fn seeded_link_flaps(
        &mut self,
        seed: u64,
        links: &[LinkId],
        horizon: SimTime,
        mean_every: SimDuration,
        mean_down: SimDuration,
    ) -> &mut Self {
        for &link in links {
            let mut rng = Pcg32::new(seed, STREAM_FAULT | u64::from(link.0));
            self.seeded_entity_faults(&mut rng, horizon, mean_every, mean_down, |at, down| {
                FaultEntry {
                    at,
                    down_for: down,
                    kind: FaultKind::LinkDown(link),
                }
            });
        }
        self
    }

    /// Derive node crashes for each of `nodes` from `seed`, with the same
    /// distributional shape as [`Self::seeded_link_flaps`] but on the
    /// node half (`STREAM_FAULT | FAULT_NODE_BIT | node`) of the fault
    /// stream namespace.
    pub fn seeded_node_crashes(
        &mut self,
        seed: u64,
        nodes: &[NodeId],
        horizon: SimTime,
        mean_every: SimDuration,
        mean_down: SimDuration,
    ) -> &mut Self {
        for &node in nodes {
            let mut rng = Pcg32::new(seed, STREAM_FAULT | FAULT_NODE_BIT | u64::from(node.0));
            self.seeded_entity_faults(&mut rng, horizon, mean_every, mean_down, |at, down| {
                FaultEntry {
                    at,
                    down_for: down,
                    kind: FaultKind::NodeCrash(node),
                }
            });
        }
        self
    }

    fn seeded_entity_faults(
        &mut self,
        rng: &mut Pcg32,
        horizon: SimTime,
        mean_every: SimDuration,
        mean_down: SimDuration,
        mk: impl Fn(SimTime, SimDuration) -> FaultEntry,
    ) {
        assert!(
            mean_every > SimDuration::ZERO && mean_down > SimDuration::ZERO,
            "seeded faults need positive mean spacing and outage"
        );
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs_f64(rng.exp(mean_every.as_secs_f64()));
            if t >= horizon {
                return;
            }
            let down = SimDuration::from_secs_f64(rng.exp(mean_down.as_secs_f64()))
                .max(SimDuration::from_millis(1));
            self.entries.push(mk(t, down));
            t += down;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_entries_roundtrip() {
        let mut s = FaultSchedule::new();
        s.link_down(
            SimTime::from_secs(1),
            LinkId(3),
            SimDuration::from_millis(250),
        )
        .node_crash(SimTime::from_secs(2), NodeId(7), SimDuration::from_secs(5));
        assert_eq!(s.len(), 2);
        assert_eq!(s.entries()[0].kind, FaultKind::LinkDown(LinkId(3)));
        assert_eq!(s.entries()[1].kind, FaultKind::NodeCrash(NodeId(7)));
        assert_eq!(s.entries()[1].up_at(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_length_outage_is_rejected() {
        let mut s = FaultSchedule::new();
        s.link_down(SimTime::ZERO, LinkId(0), SimDuration::ZERO);
    }

    #[test]
    fn seeded_flaps_are_per_link_streams() {
        // The schedule for link 5 must be identical whether it is derived
        // alone or alongside other links, in any order.
        let horizon = SimTime::from_secs(600);
        let every = SimDuration::from_secs(60);
        let down = SimDuration::from_secs(5);
        let mut alone = FaultSchedule::new();
        alone.seeded_link_flaps(42, &[LinkId(5)], horizon, every, down);
        let mut crowd = FaultSchedule::new();
        crowd.seeded_link_flaps(42, &[LinkId(9), LinkId(5), LinkId(0)], horizon, every, down);
        let of_5 = |s: &FaultSchedule| {
            s.entries()
                .iter()
                .filter(|e| e.kind == FaultKind::LinkDown(LinkId(5)))
                .copied()
                .collect::<Vec<_>>()
        };
        assert!(!of_5(&alone).is_empty(), "600 s at mean 60 s should flap");
        assert_eq!(of_5(&alone), of_5(&crowd));
    }

    #[test]
    fn seeded_flaps_respect_horizon_and_do_not_overlap_per_link() {
        let horizon = SimTime::from_secs(120);
        let mut s = FaultSchedule::new();
        s.seeded_link_flaps(
            7,
            &[LinkId(1)],
            horizon,
            SimDuration::from_secs(10),
            SimDuration::from_secs(3),
        );
        let mut last_up = SimTime::ZERO;
        for e in s.entries() {
            assert!(e.at < horizon);
            assert!(e.at >= last_up, "per-link flaps must not overlap");
            last_up = e.up_at();
        }
    }

    #[test]
    fn node_and_link_streams_are_disjoint() {
        // Node 5 and link 5 share an index but not a stream: their
        // schedules must differ.
        let horizon = SimTime::from_secs(600);
        let every = SimDuration::from_secs(60);
        let down = SimDuration::from_secs(5);
        let mut links = FaultSchedule::new();
        links.seeded_link_flaps(42, &[LinkId(5)], horizon, every, down);
        let mut nodes = FaultSchedule::new();
        nodes.seeded_node_crashes(42, &[NodeId(5)], horizon, every, down);
        let link_times: Vec<_> = links.entries().iter().map(|e| e.at).collect();
        let node_times: Vec<_> = nodes.entries().iter().map(|e| e.at).collect();
        assert_ne!(link_times, node_times);
    }
}
