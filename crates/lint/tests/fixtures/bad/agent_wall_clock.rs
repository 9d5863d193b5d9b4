//! A simulator agent timing its callbacks with the host clock: agents are
//! simulation logic, so the run would depend on how fast the host is.
use speakup_net::sim::Ctx;

pub fn on_timer(_ctx: &mut Ctx) -> std::time::Instant {
    let started = std::time::Instant::now();
    started
}
