//! Simulator applications: the thinner, clients, and Fig 9's bystanders.
//!
//! [`AppSlot`] is the crate's [`AppSet`]: the enum the simulator
//! dispatches over so the five production agents get monomorphic (and
//! inlinable) callbacks instead of a vtable hop per event.

pub mod client;
pub mod cohort;
pub mod thinner;
pub mod web;

use speakup_net::sim::{App, AppSet, Ctx};
use speakup_net::FlowId;
use std::any::{Any, TypeId};

use client::ClientAgent;
use cohort::CohortAgent;
use thinner::ThinnerAgent;
use web::{WebServerAgent, WgetAgent};

/// One node's application, as a closed enum over the production agents.
///
/// The engine matches on the discriminant and calls the concrete
/// agent's method directly — zero vtable hops for the five variants the
/// experiments install. `Boxed` is the open-world escape hatch so
/// downstream [`App`] implementations (tests, future agents) keep
/// working at dynamic-dispatch cost.
// The variants are stored inline — one slot lives per node, so dispatch
// locality beats the footprint of the largest agent.
#[allow(clippy::large_enum_variant)]
pub enum AppSlot {
    /// A speak-up client ([`ClientAgent`]).
    Client(ClientAgent),
    /// The thinner front-end ([`ThinnerAgent`]).
    Thinner(ThinnerAgent),
    /// Fig 9's bystander web server ([`WebServerAgent`]).
    Web(WebServerAgent),
    /// Fig 9's bystander wget client ([`WgetAgent`]).
    Wget(WgetAgent),
    /// A flyweight crowd of N clients ([`CohortAgent`]).
    Cohort(CohortAgent),
    /// Open-world fallback: dynamic dispatch for foreign [`App`]s.
    Boxed(Box<dyn App>),
}

/// Dispatch a callback to the concrete agent behind the discriminant.
macro_rules! each_variant {
    ($slot:expr, $a:ident => $body:expr) => {
        match $slot {
            AppSlot::Client($a) => $body,
            AppSlot::Thinner($a) => $body,
            AppSlot::Web($a) => $body,
            AppSlot::Wget($a) => $body,
            AppSlot::Cohort($a) => $body,
            AppSlot::Boxed($a) => {
                let $a = &mut **$a;
                $body
            }
        }
    };
}

impl AppSet for AppSlot {
    fn start(&mut self, ctx: &mut Ctx) {
        each_variant!(self, a => a.start(ctx))
    }
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        each_variant!(self, a => a.on_message(ctx, flow, tag))
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        each_variant!(self, a => a.on_timer(ctx, token))
    }
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        each_variant!(self, a => a.on_flow_drained(ctx, flow))
    }
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        each_variant!(self, a => a.on_flow_aborted(ctx, flow))
    }
    fn on_control(&mut self, ctx: &mut Ctx, src: speakup_net::NodeId, payload: &[u64]) {
        each_variant!(self, a => a.on_control(ctx, src, payload))
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        each_variant!(self, a => a.on_restart(ctx))
    }

    fn as_any(&self) -> &dyn Any {
        match self {
            AppSlot::Client(a) => a,
            AppSlot::Thinner(a) => a,
            AppSlot::Web(a) => a,
            AppSlot::Wget(a) => a,
            AppSlot::Cohort(a) => a,
            AppSlot::Boxed(a) => &**a as &dyn Any,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        match self {
            AppSlot::Client(a) => a,
            AppSlot::Thinner(a) => a,
            AppSlot::Web(a) => a,
            AppSlot::Wget(a) => a,
            AppSlot::Cohort(a) => a,
            AppSlot::Boxed(a) => &mut **a as &mut dyn Any,
        }
    }

    /// Recover the concrete agent from a boxed install (the
    /// `Simulator::add_app` compatibility path), so even boxed installs
    /// of the production agents dispatch devirtualized.
    fn from_boxed(app: Box<dyn App>) -> Self {
        fn unbox<T: App>(app: Box<dyn App>) -> T {
            *(app as Box<dyn Any>).downcast::<T>().expect("type checked")
        }
        let id = (&*app as &dyn Any).type_id();
        if id == TypeId::of::<ClientAgent>() {
            AppSlot::Client(unbox(app))
        } else if id == TypeId::of::<ThinnerAgent>() {
            AppSlot::Thinner(unbox(app))
        } else if id == TypeId::of::<WebServerAgent>() {
            AppSlot::Web(unbox(app))
        } else if id == TypeId::of::<WgetAgent>() {
            AppSlot::Wget(unbox(app))
        } else if id == TypeId::of::<CohortAgent>() {
            AppSlot::Cohort(unbox(app))
        } else {
            AppSlot::Boxed(app)
        }
    }

    fn variant_index(&self) -> usize {
        match self {
            AppSlot::Client(_) => 0,
            AppSlot::Thinner(_) => 1,
            AppSlot::Web(_) => 2,
            AppSlot::Wget(_) => 3,
            AppSlot::Cohort(_) => 4,
            AppSlot::Boxed(_) => 5,
        }
    }

    fn variant_names() -> &'static [&'static str] {
        &["client", "thinner", "web", "wget", "cohort", "boxed"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakup_net::link::LinkConfig;
    use speakup_net::sim::Simulator;
    use speakup_net::time::{SimDuration, SimTime};
    use speakup_net::topology::TopologyBuilder;

    /// An app the enum does not know: must land in `Boxed` and still
    /// dispatch and downcast.
    struct Foreign {
        fired: u32,
    }
    impl App for Foreign {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {
            self.fired += 1;
        }
    }

    #[test]
    fn foreign_apps_fall_back_to_boxed_dispatch() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        b.duplex(
            a,
            z,
            LinkConfig::new(1_000_000, SimDuration::from_millis(1)),
        );
        let mut sim = Simulator::<AppSlot>::with_slots(b.build(), 1);
        sim.add_app(a, Box::new(Foreign { fired: 0 }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app::<Foreign>(a).unwrap().fired, 1);
        let counts = sim.dispatch_counts();
        assert_eq!(counts.len(), 6);
        let boxed = counts.iter().find(|(n, _)| *n == "boxed").unwrap().1;
        assert_eq!(boxed, 2, "start + one timer through the fallback");
    }

    #[test]
    fn boxed_production_agents_are_recovered_to_their_variant() {
        let slot = AppSlot::from_boxed(Box::new(WebServerAgent::new(1000)));
        assert!(matches!(slot, AppSlot::Web(_)), "downcast recovery");
        assert_eq!(slot.variant_index(), 2);
        assert!(slot.as_any().downcast_ref::<WebServerAgent>().is_some());
    }
}
