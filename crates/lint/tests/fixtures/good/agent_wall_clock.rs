//! A simulator agent timing its callbacks in simulated time.
use speakup_net::sim::Ctx;
use speakup_net::time::SimTime;

pub fn on_timer(ctx: &mut Ctx) -> SimTime {
    ctx.now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_a_test_is_fine() {
        let _t = std::time::Instant::now();
    }
}
