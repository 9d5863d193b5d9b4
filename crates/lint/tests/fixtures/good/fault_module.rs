//! The same schedule the deterministic way: location-keyed PCG streams
//! derived from the run seed, simulated-time onsets, ordered maps.
use std::collections::BTreeMap;

pub struct FaultSchedule {
    pub down_until: BTreeMap<u64, u64>,
}

impl FaultSchedule {
    // One stream per faulted entity: the schedule is a pure function of
    // (seed, entity), independent of iteration order or host.
    pub fn per_link_stream(seed: u64, link: u64) -> Pcg32 {
        Pcg32::new(seed, link)
    }

    pub fn total_outage(&self) -> u64 {
        self.down_until.values().sum()
    }
}
