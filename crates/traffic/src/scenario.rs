//! One-stop experiment-cell assembly: network kind → fabric, NIC choice,
//! software model, workload factory, seed — yielding a ready [`Driver`].
//!
//! Every figure/sweep runner used to copy-paste the same four lines
//! (topology, fabric config, workload build, `Driver::new`); [`Scenario`]
//! is that assembly with the knobs named.

use nifdy_trace::TraceHandle;

use crate::driver::{BuildError, Driver, NicChoice};
use crate::network::NetworkKind;
use crate::processor::NodeWorkload;
use crate::SoftwareModel;

/// Builder for one simulation cell.
///
/// Defaults: 64 nodes, seed 1, the plain interface, and the synthetic
/// software model — override what the experiment varies.
///
/// # Examples
///
/// ```
/// use nifdy_traffic::{NetworkKind, NicChoice, Scenario, SyntheticConfig};
///
/// let kind = NetworkKind::Mesh2D;
/// let mut driver = Scenario::new(kind)
///     .nodes(16)
///     .seed(42)
///     .nic(NicChoice::Nifdy(kind.nifdy_preset()))
///     .build_with(|sc| SyntheticConfig::heavy(sc.seed()).build(sc.nodes()))
///     .unwrap();
/// driver.run_cycles(20_000);
/// assert!(driver.packets_received() > 0);
/// ```
#[derive(Debug, Clone)]
#[must_use = "a Scenario does nothing until built into a Driver"]
pub struct Scenario {
    kind: NetworkKind,
    nodes: usize,
    seed: u64,
    choice: NicChoice,
    sw: SoftwareModel,
    barrier_cost: Option<u64>,
    stall_limit: Option<u64>,
    trace: Option<TraceHandle>,
    metrics_period: Option<u64>,
}

impl Scenario {
    /// Starts a scenario on `kind` with the defaults above.
    pub fn new(kind: NetworkKind) -> Self {
        Scenario {
            kind,
            nodes: 64,
            seed: 1,
            choice: NicChoice::Plain,
            sw: SoftwareModel::synthetic(),
            barrier_cost: None,
            stall_limit: None,
            trace: None,
            metrics_period: None,
        }
    }

    /// Machine size in nodes (default 64).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Seed for the fabric and (by convention) the workload (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The interface model attached to every node (default
    /// [`NicChoice::Plain`]).
    pub fn nic(mut self, choice: NicChoice) -> Self {
        self.choice = choice;
        self
    }

    /// The software overhead model (default
    /// [`SoftwareModel::synthetic`]).
    pub fn software(mut self, sw: SoftwareModel) -> Self {
        self.sw = sw;
        self
    }

    /// Overrides the per-release barrier cost
    /// (see [`Driver::with_barrier_cost`]).
    pub fn barrier_cost(mut self, cost: u64) -> Self {
        self.barrier_cost = Some(cost);
        self
    }

    /// Arms the stall watchdog (see [`Driver::with_stall_watchdog`]).
    pub fn stall_watchdog(mut self, limit: u64) -> Self {
        self.stall_limit = Some(limit);
        self
    }

    /// Attaches a flight recorder (see [`Driver::with_trace`]).
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Streams occupancy gauges into a driver-owned registry every `period`
    /// cycles (see [`Driver::with_metrics`]).
    pub fn metrics(mut self, period: u64) -> Self {
        self.metrics_period = Some(period);
        self
    }

    /// Builds the driver from an explicit workload list (one per node, in
    /// node order).
    ///
    /// # Errors
    ///
    /// Everything [`Driver::new`] and [`Driver::with_metrics`] report.
    pub fn build(self, wls: Vec<Box<dyn NodeWorkload>>) -> Result<Driver, BuildError> {
        let fab = self.kind.fabric(self.nodes, self.seed);
        let mut driver = Driver::new(fab, &self.choice, self.sw, wls)?;
        if let Some(cost) = self.barrier_cost {
            driver = driver.with_barrier_cost(cost);
        }
        if let Some(limit) = self.stall_limit {
            driver = driver.with_stall_watchdog(limit);
        }
        if let Some(trace) = self.trace {
            driver = driver.with_trace(trace);
        }
        if let Some(period) = self.metrics_period {
            driver = driver.with_metrics(period)?;
        }
        Ok(driver)
    }

    /// Builds the driver from a workload factory, handing it the scenario
    /// view so the factory can read the size, seed, and software model.
    ///
    /// # Errors
    ///
    /// Everything [`build`](Self::build) reports.
    pub fn build_with<F>(self, factory: F) -> Result<Driver, BuildError>
    where
        F: FnOnce(&ScenarioView) -> Vec<Box<dyn NodeWorkload>>,
    {
        let view = ScenarioView {
            kind: self.kind,
            nodes: self.nodes,
            seed: self.seed,
            sw: self.sw,
        };
        let wls = factory(&view);
        self.build(wls)
    }
}

/// The scenario parameters a workload factory may depend on.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioView {
    kind: NetworkKind,
    nodes: usize,
    seed: u64,
    sw: SoftwareModel,
}

impl ScenarioView {
    /// The network under test.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// Machine size in nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The cell's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The software overhead model.
    pub fn sw(&self) -> SoftwareModel {
        self.sw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticConfig;

    #[test]
    fn scenario_builds_a_working_driver() {
        let kind = NetworkKind::Mesh2D;
        let mut d = Scenario::new(kind)
            .nodes(16)
            .seed(7)
            .nic(NicChoice::Nifdy(kind.nifdy_preset()))
            .build_with(|sc| SyntheticConfig::heavy(sc.seed()).build(sc.nodes()))
            .expect("valid scenario");
        d.run_cycles(20_000);
        assert!(d.packets_received() > 0);
    }

    #[test]
    fn scenario_threads_every_option_through() {
        let kind = NetworkKind::Mesh2D;
        let mut d = Scenario::new(kind)
            .nodes(16)
            .barrier_cost(10)
            .stall_watchdog(1_000_000)
            .metrics(100)
            .build_with(|sc| SyntheticConfig::light(sc.seed()).build(sc.nodes()))
            .expect("valid scenario");
        d.run_cycles(5_000);
        assert!(d.metrics().is_some(), "metrics registry must be attached");
    }

    #[test]
    fn workload_count_mismatch_surfaces_as_a_typed_error() {
        let err = Scenario::new(NetworkKind::Mesh2D)
            .build(Vec::new())
            .map(drop)
            .expect_err("no workloads for 64 nodes");
        assert_eq!(
            err,
            BuildError::WorkloadCountMismatch {
                nodes: 64,
                workloads: 0
            }
        );
    }
}
