//! Wall-clock and event-count attribution per event kind.
//!
//! The ROADMAP's scale item asks for profiling that shows "where the
//! event loop bends" before the node-count sweeps grow further. A
//! [`SimProfile`] answers that: it separates delivery dispatch from
//! timer dispatch (count and nanoseconds each) and counts the stale
//! heap entries skipped, the lazy-deletion cost of reschedulable timers.
//!
//! Profiling is opt-in ([`crate::World::enable_profile`]) and purely
//! observational: wall-clock readings never feed back into the
//! simulation, so event order and every deterministic output are
//! identical with profiling on or off. Event *counts* in the profile
//! are deterministic; the nanosecond attributions are host wall-clock
//! and differ run to run — render them, never fingerprint them.

/// How many events of each kind the heap dispatched and how long the
/// handlers took.
#[derive(Clone, Debug, Default)]
pub struct SimProfile {
    /// Packet deliveries dispatched.
    pub deliver_events: u64,
    /// Wall-clock nanoseconds spent inside delivery handlers.
    pub deliver_nanos: u64,
    /// Timer firings dispatched.
    pub timer_events: u64,
    /// Wall-clock nanoseconds spent inside timer handlers.
    pub timer_nanos: u64,
    /// Cancelled heap entries popped and skipped without dispatch.
    pub stale_events: u64,
}

impl SimProfile {
    /// Total events dispatched (deliveries + timers).
    pub fn events(&self) -> u64 {
        self.deliver_events + self.timer_events
    }

    /// Human-readable table. Nanosecond columns are wall-clock and vary
    /// run to run; event counts are deterministic.
    pub fn render(&self) -> String {
        format!(
            "deliver-ev  deliver-us  timer-ev  timer-us  stale\n\
             {:>10} {:>11} {:>9} {:>9} {:>6}\n",
            self.deliver_events,
            self.deliver_nanos / 1_000,
            self.timer_events,
            self.timer_nanos / 1_000,
            self.stale_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_the_deliver_timer_stale_split() {
        let prof = SimProfile {
            deliver_events: 10,
            deliver_nanos: 30_000,
            timer_events: 4,
            timer_nanos: 10_000,
            stale_events: 1,
        };
        assert_eq!(prof.events(), 14);
        let row = prof
            .render()
            .lines()
            .nth(1)
            .expect("one data row")
            .to_string();
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols, ["10", "30", "4", "10", "1"]);
    }

    #[test]
    fn empty_profile_renders_without_dividing_by_zero() {
        let prof = SimProfile::default();
        assert_eq!(prof.events(), 0);
        assert!(prof.render().contains("stale"));
    }
}
