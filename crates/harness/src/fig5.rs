//! Figure 5: network congestion under C-shift — pending packets per
//! receiver over time, without and with NIFDY (no barriers in either case).
//!
//! The paper's observation: "some nodes may finish the current phase early
//! and move to the next phase, resulting in one node receiving from two
//! senders. This slows the progress of both senders, allowing other senders
//! to catch up and aggravating the condition" — visible as dark streaks that
//! persist without NIFDY and dissipate with it.

use nifdy_sim::NodeId;
use nifdy_traffic::{CShiftConfig, NetworkKind, NicChoice, Scenario, SoftwareModel};

use crate::exec::{self, Jobs};
use crate::report::heat_map;
use crate::scale::Scale;

/// Result of one Figure 5 run.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionTrace {
    /// Interface configuration label.
    pub config: &'static str,
    /// `series[receiver][sample]` = packets pending for that receiver.
    pub series: Vec<Vec<f64>>,
    /// Cycle at which the whole pattern finished (or the cap).
    pub finish: u64,
    /// Peak pending packets seen at any single receiver.
    pub peak: f64,
}

/// Block size per partner at each scale: large enough that multi-packet
/// transfers (and hence bulk dialogs and the in-order payload gain) remain
/// meaningful even in smoke runs.
pub fn words_for(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 90,
        Scale::Quick => 45,
        Scale::Smoke => 24,
    }
}

/// Runs C-shift on the 32-node CM-5 network and samples per-receiver
/// congestion.
pub fn run_one(choice: &NicChoice, scale: Scale, seed: u64) -> CongestionTrace {
    let nodes = 32;
    let sw = SoftwareModel::cm5_library(false);
    let words = words_for(scale);
    let mut driver = Scenario::new(NetworkKind::Cm5)
        .nodes(nodes)
        .seed(seed)
        .nic(choice.clone())
        .software(sw)
        .build_with(|sc| CShiftConfig::new(words, sc.sw()).build(sc.nodes()))
        .expect("figure cell builds");

    let cap = scale.cycles(4_000_000);
    let samples = 64;
    let period = (cap / samples).max(1);
    let mut series = vec![Vec::new(); nodes];
    let mut finish = cap;
    for c in 0..cap {
        if c % period == 0 {
            for (r, s) in series.iter_mut().enumerate() {
                s.push(f64::from(driver.fabric().pending_for(NodeId::new(r))));
            }
        }
        driver.step();
        if driver.processors().iter().all(|p| p.is_done()) && driver.fabric().in_network() == 0 {
            finish = c;
            break;
        }
    }
    let peak = series
        .iter()
        .flat_map(|s| s.iter().copied())
        .fold(0.0f64, f64::max);
    CongestionTrace {
        config: choice.label(),
        series,
        finish,
        peak,
    }
}

/// Runs both halves of Figure 5 (in parallel when `jobs` allows) and
/// renders the heat maps. Both halves share one derived seed so they watch
/// the same traffic.
pub fn run(scale: Scale, seed: u64, jobs: Jobs) -> (String, CongestionTrace, CongestionTrace) {
    let cell = exec::cell_seed("fig5", 0, seed);
    let choices = vec![
        NicChoice::Plain,
        NicChoice::Nifdy(NetworkKind::Cm5.nifdy_preset()),
    ];
    let mut traces = exec::map(jobs, choices, |choice, _| run_one(&choice, scale, cell));
    let with = traces.pop().expect("two cells");
    let without = traces.pop().expect("two cells");
    let mut out = String::new();
    out.push_str(&heat_map(
        &format!(
            "Figure 5a: C-shift pending packets per receiver, WITHOUT NIFDY \
             (finished at cycle {}, peak {})",
            without.finish, without.peak
        ),
        &without.series,
    ));
    out.push('\n');
    out.push_str(&heat_map(
        &format!(
            "Figure 5b: C-shift pending packets per receiver, WITH NIFDY \
             (finished at cycle {}, peak {})",
            with.finish, with.peak
        ),
        &with.series,
    ));
    (out, without, with)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_traces_complete_and_nifdy_bounds_congestion() {
        let (_, without, with) = run(Scale::Smoke, 5, Jobs::new(2));
        assert!(without.peak >= 1.0, "no congestion observed at all");
        assert!(
            with.peak <= without.peak,
            "NIFDY peak {} exceeds plain peak {}",
            with.peak,
            without.peak
        );
    }
}
