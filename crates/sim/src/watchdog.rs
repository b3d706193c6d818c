//! Cycle-driven stall detection for simulation drivers.

use crate::Cycle;

/// A stall flagged by [`StallWatchdog::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// Index of the stalled unit (driver-defined, typically the node index).
    pub unit: usize,
    /// Cycle of the last observed progress.
    pub since: Cycle,
    /// Cycle at which the stall tripped.
    pub now: Cycle,
    /// The progress fingerprint that has not changed since `since`.
    pub fingerprint: u64,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unit {} stalled: busy with no progress since {} (now {}, fingerprint {:#x})",
            self.unit, self.since, self.now, self.fingerprint
        )
    }
}

/// Per-unit progress tracking state.
#[derive(Debug, Clone, Copy)]
struct UnitState {
    fingerprint: u64,
    last_change: Cycle,
}

/// Detects units that are busy but making no progress.
///
/// Each cycle the driver reports, per unit, a *fingerprint* — any value that
/// changes whenever the unit does useful work (a sum of monotone stat
/// counters works well) — and a *busy* flag. A unit that stays busy for
/// `limit` cycles without its fingerprint changing trips the watchdog. Idle
/// units never trip: having nothing to do is not a stall.
///
/// The limit must exceed the longest legitimate quiet period — with
/// retransmission configured, comfortably more than the maximum RTO, so a
/// backed-off sender waiting out its timer is not flagged.
///
/// # Examples
///
/// ```
/// use nifdy_sim::{Cycle, StallWatchdog};
///
/// let mut dog = StallWatchdog::new(100, 2);
/// // Unit 0 is busy but its fingerprint never moves.
/// for t in 0..100 {
///     assert!(dog.observe(0, Cycle::new(t), 7, true).is_none());
/// }
/// let report = dog.observe(0, Cycle::new(100), 7, true).expect("tripped");
/// assert_eq!(report.unit, 0);
/// ```
#[derive(Debug, Clone)]
pub struct StallWatchdog {
    limit: u64,
    units: Vec<Option<UnitState>>,
}

impl StallWatchdog {
    /// Creates a watchdog for `units` units that trips after `limit` cycles
    /// of busy non-progress.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (every busy observation would trip).
    pub fn new(limit: u64, units: usize) -> Self {
        assert!(limit > 0, "a zero stall limit trips on every observation");
        StallWatchdog {
            limit,
            units: vec![None; units],
        }
    }

    /// The configured trip limit in cycles.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The earliest cycle at which any tracked unit could trip, given no
    /// further progress: `last_change + limit` minimized over armed units.
    ///
    /// A driver that skips stepping must treat this as a hard
    /// [`crate::Wakeup`] deadline — observations between now and the
    /// deadline are no-ops for a frozen unit (same fingerprint, still
    /// busy), so skipping them is safe, but skipping *past* the deadline
    /// would let a wedged node escape detection.
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.units
            .iter()
            .flatten()
            .map(|s| s.last_change + self.limit)
            .min()
    }

    /// Feeds one observation of `unit` at cycle `now`.
    ///
    /// Returns a [`StallReport`] when the unit has been continuously busy
    /// with an unchanged fingerprint for at least the limit; the unit's
    /// timer resets after a trip, so a persistent stall re-trips every
    /// `limit` cycles rather than every observation.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn observe(
        &mut self,
        unit: usize,
        now: Cycle,
        fingerprint: u64,
        busy: bool,
    ) -> Option<StallReport> {
        let slot = &mut self.units[unit];
        if !busy {
            *slot = None;
            return None;
        }
        match slot {
            Some(s) if s.fingerprint == fingerprint => {
                if now.saturating_since(s.last_change) >= self.limit {
                    let report = StallReport {
                        unit,
                        since: s.last_change,
                        now,
                        fingerprint,
                    };
                    s.last_change = now;
                    return Some(report);
                }
                None
            }
            _ => {
                *slot = Some(UnitState {
                    fingerprint,
                    last_change: now,
                });
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_resets_the_timer() {
        let mut dog = StallWatchdog::new(10, 1);
        for t in 0..100u64 {
            // Fingerprint advances every 5 cycles: never trips.
            assert_eq!(dog.observe(0, Cycle::new(t), t / 5, true), None);
        }
    }

    #[test]
    fn idle_units_never_trip() {
        let mut dog = StallWatchdog::new(10, 1);
        for t in 0..100u64 {
            assert_eq!(dog.observe(0, Cycle::new(t), 42, false), None);
        }
    }

    #[test]
    fn busy_non_progress_trips_at_the_limit() {
        let mut dog = StallWatchdog::new(10, 2);
        for t in 0..10u64 {
            assert_eq!(dog.observe(0, Cycle::new(t), 5, true), None);
        }
        let report = dog.observe(0, Cycle::new(10), 5, true).expect("trip");
        assert_eq!(report.unit, 0);
        assert_eq!(report.since, Cycle::ZERO);
        assert_eq!(report.now, Cycle::new(10));
    }

    #[test]
    fn trips_rearm_instead_of_firing_every_cycle() {
        let mut dog = StallWatchdog::new(10, 1);
        for t in 0..=10u64 {
            let _ = dog.observe(0, Cycle::new(t), 5, true);
        }
        assert_eq!(dog.observe(0, Cycle::new(11), 5, true), None);
        assert!(dog.observe(0, Cycle::new(20), 5, true).is_some());
    }

    #[test]
    fn units_are_tracked_independently() {
        let mut dog = StallWatchdog::new(10, 2);
        for t in 0..=10u64 {
            let _ = dog.observe(0, Cycle::new(t), 5, true);
            assert_eq!(
                dog.observe(1, Cycle::new(t), t, true),
                None,
                "unit 1 progresses"
            );
        }
        assert!(dog.observe(0, Cycle::new(11), 5, true).is_none(), "rearmed");
    }

    #[test]
    fn an_idle_gap_resets_the_stall_window() {
        let mut dog = StallWatchdog::new(10, 1);
        for t in 0..9u64 {
            let _ = dog.observe(0, Cycle::new(t), 5, true);
        }
        let _ = dog.observe(0, Cycle::new(9), 5, false); // went idle
        assert_eq!(
            dog.observe(0, Cycle::new(10), 5, true),
            None,
            "timer restarts after the idle gap"
        );
    }

    #[test]
    #[should_panic(expected = "zero stall limit")]
    fn zero_limit_is_rejected() {
        let _ = StallWatchdog::new(0, 1);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_armed_unit() {
        let mut dog = StallWatchdog::new(10, 3);
        assert_eq!(dog.next_deadline(), None, "nothing armed");
        let _ = dog.observe(0, Cycle::new(5), 1, true);
        let _ = dog.observe(1, Cycle::new(2), 9, true);
        assert_eq!(dog.next_deadline(), Some(Cycle::new(12)));
        // Progress on unit 1 pushes its deadline out.
        let _ = dog.observe(1, Cycle::new(8), 10, true);
        assert_eq!(dog.next_deadline(), Some(Cycle::new(15)));
        // Going idle disarms.
        let _ = dog.observe(0, Cycle::new(9), 1, false);
        let _ = dog.observe(1, Cycle::new(9), 10, false);
        assert_eq!(dog.next_deadline(), None);
    }
}
