//! The stepping contract for event-driven simulation.
//!
//! A steppable component (a NIC, a wire endpoint, a supervisor) reports,
//! via `next_event(&self, now) -> Wakeup`, when it next needs a stepped
//! cycle. A driver may skip stepping the component until that wakeup
//! (the simulation driver gates each node on it), or — when no component
//! reports [`Wakeup::Now`] — jump the clock straight to the earliest
//! [`Wakeup::At`] deadline: every skipped step is, by the contract below,
//! a no-op, so traces, statistics and delivery orders are byte-identical
//! to stepping each cycle explicitly.
//!
//! The contract a component must uphold:
//!
//! * **`Now`** — stepping this cycle may perform observable work (mutate
//!   state, emit trace events, move packets, bump counters). When unsure, a
//!   component must say `Now`: the cost is a stepped cycle, never a wrong
//!   answer.
//! * **`At(t)`** — stepping any cycle strictly before `t` is a no-op
//!   (assuming no new external input arrives); the component next does work
//!   at `t`. Deadlines must be *hard*: derived from stored timer state
//!   (retransmission timers, ack-processing delays, reclaim horizons), not
//!   guesses.
//! * **`Quiescent`** — the component will never do work again unless new
//!   external input arrives (a send from the processor, a packet from the
//!   fabric). External inputs always pass through the driver, which
//!   re-queries `next_event` after delivering them.

use crate::Cycle;

/// When a component next needs to be stepped. See the module docs for
/// the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakeup {
    /// Stepping this cycle may perform observable work.
    Now,
    /// Stepping is a no-op until the given cycle (exclusive).
    At(Cycle),
    /// No work will ever happen again without new external input.
    Quiescent,
}

impl Wakeup {
    /// A deadline that is already due collapses to `Now`; future deadlines
    /// stay `At`. Use when constructing from raw timer state.
    pub fn at_or_now(deadline: Cycle, now: Cycle) -> Wakeup {
        if deadline <= now {
            Wakeup::Now
        } else {
            Wakeup::At(deadline)
        }
    }

    /// The earlier of two wakeups (`Now` < any `At` < `Quiescent`).
    #[must_use]
    pub fn earliest(self, other: Wakeup) -> Wakeup {
        match (self, other) {
            (Wakeup::Now, _) | (_, Wakeup::Now) => Wakeup::Now,
            (Wakeup::At(a), Wakeup::At(b)) => Wakeup::At(a.min(b)),
            (Wakeup::At(a), Wakeup::Quiescent) | (Wakeup::Quiescent, Wakeup::At(a)) => {
                Wakeup::At(a)
            }
            (Wakeup::Quiescent, Wakeup::Quiescent) => Wakeup::Quiescent,
        }
    }

    /// True when the component needs stepping at `now` (it said `Now`, or
    /// its deadline is due).
    pub fn is_due(self, now: Cycle) -> bool {
        match self {
            Wakeup::Now => true,
            Wakeup::At(t) => t <= now,
            Wakeup::Quiescent => false,
        }
    }

    /// The deadline as a cycle, clamped to `bound`: `Now` maps to `now`,
    /// `Quiescent` to `bound`. The driver's skip target is the minimum of
    /// this over all components.
    pub fn deadline_or(self, now: Cycle, bound: Cycle) -> Cycle {
        match self {
            Wakeup::Now => now,
            Wakeup::At(t) => t.min(bound),
            Wakeup::Quiescent => bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_orders_now_at_quiescent() {
        let at5 = Wakeup::At(Cycle::new(5));
        let at9 = Wakeup::At(Cycle::new(9));
        assert_eq!(Wakeup::Now.earliest(at5), Wakeup::Now);
        assert_eq!(at5.earliest(Wakeup::Now), Wakeup::Now);
        assert_eq!(at5.earliest(at9), at5);
        assert_eq!(Wakeup::Quiescent.earliest(at9), at9);
        assert_eq!(
            Wakeup::Quiescent.earliest(Wakeup::Quiescent),
            Wakeup::Quiescent
        );
    }

    #[test]
    fn due_deadlines_collapse_to_now() {
        let now = Cycle::new(10);
        assert_eq!(Wakeup::at_or_now(Cycle::new(10), now), Wakeup::Now);
        assert_eq!(Wakeup::at_or_now(Cycle::new(3), now), Wakeup::Now);
        assert_eq!(
            Wakeup::at_or_now(Cycle::new(11), now),
            Wakeup::At(Cycle::new(11))
        );
        assert!(Wakeup::At(Cycle::new(10)).is_due(now));
        assert!(!Wakeup::At(Cycle::new(11)).is_due(now));
        assert!(Wakeup::Now.is_due(now));
        assert!(!Wakeup::Quiescent.is_due(now));
    }

    #[test]
    fn deadline_or_clamps_to_the_bound() {
        let now = Cycle::new(10);
        let bound = Cycle::new(100);
        assert_eq!(Wakeup::Now.deadline_or(now, bound), now);
        assert_eq!(
            Wakeup::At(Cycle::new(50)).deadline_or(now, bound),
            Cycle::new(50)
        );
        assert_eq!(Wakeup::At(Cycle::new(500)).deadline_or(now, bound), bound);
        assert_eq!(Wakeup::Quiescent.deadline_or(now, bound), bound);
    }
}
