//! The simulation driver: one fabric, one NIC and one processor per node,
//! all stepped cycle-synchronously, with global barrier coordination.

use nifdy::{BufferedNic, DeliveryFailure, Nic, NifdyConfig, NifdyUnit, PlainNic};
use nifdy_net::Fabric;
use nifdy_sim::{Cycle, NodeId, StallWatchdog, Wakeup};
use nifdy_trace::{trace_event, EventKind, MetricsRegistry, TraceHandle};

use crate::processor::{NodeWorkload, ProcEvent, Processor};
use crate::SoftwareModel;

/// Which network interface model to attach to every node — the three
/// configurations the paper compares.
#[derive(Debug, Clone, PartialEq)]
pub enum NicChoice {
    /// "No NIFDY": the minimal interface.
    Plain,
    /// "Buffering only": NIFDY's buffer budget without its protocol. The
    /// budget is taken from the given config's
    /// [`total_buffers`](NifdyConfig::total_buffers) so comparisons stay
    /// fair.
    BuffersOnly(NifdyConfig),
    /// The NIFDY unit.
    Nifdy(NifdyConfig),
}

impl NicChoice {
    /// Builds one NIC per node.
    pub fn build(&self, num_nodes: usize) -> Vec<Box<dyn Nic>> {
        (0..num_nodes)
            .map(|i| -> Box<dyn Nic> {
                let node = NodeId::new(i);
                match self {
                    NicChoice::Plain => Box::new(PlainNic::new(node)),
                    NicChoice::BuffersOnly(cfg) => {
                        Box::new(BufferedNic::new(node, cfg.total_buffers()))
                    }
                    NicChoice::Nifdy(cfg) => Box::new(NifdyUnit::new(node, cfg.clone())),
                }
            })
            .collect()
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            NicChoice::Plain => "none",
            NicChoice::BuffersOnly(_) => "buffers",
            NicChoice::Nifdy(_) => "nifdy",
        }
    }
}

/// Why a [`Driver`] could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The workload list does not line up with the fabric: every node needs
    /// exactly one workload, in node order.
    WorkloadCountMismatch {
        /// Nodes in the fabric.
        nodes: usize,
        /// Workloads supplied.
        workloads: usize,
    },
    /// [`Driver::with_metrics`] was given a zero sampling period.
    ZeroGaugePeriod,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::WorkloadCountMismatch { nodes, workloads } => write!(
                f,
                "need one workload per node: the fabric has {nodes} nodes \
                 but {workloads} workloads were supplied"
            ),
            BuildError::ZeroGaugePeriod => {
                write!(f, "the gauge sampling period must be positive")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A complete simulation: fabric, interfaces, processors, workloads.
///
/// A driver is `Send`: it owns all of its state (including its trace handle
/// and metrics registry), so whole replicas can be fanned out across worker
/// threads and their recordings merged afterwards
/// ([`nifdy_trace::export::merge_snapshots`], [`MetricsRegistry::merge`]).
pub struct Driver {
    fab: Fabric,
    nics: Vec<Box<dyn Nic>>,
    procs: Vec<Processor>,
    wls: Vec<Box<dyn NodeWorkload>>,
    barrier_cost: u64,
    watchdog: Option<StallWatchdog>,
    failures: Vec<DeliveryFailure>,
    trace: TraceHandle,
    metrics: Option<MetricsRegistry>,
    gauge_period: u64,
    cycles_stepped: u64,
    /// Per-node gate: strictly before this cycle, stepping node `i`'s
    /// processor and NIC is a proven no-op (absent packets waiting for it
    /// in the fabric), so [`step`](Self::step) skips them.
    /// Recomputed every time the node actually steps; conservative values
    /// (too early) only cost extra no-op steps.
    node_due: Vec<Cycle>,
}

impl Driver {
    /// Assembles a driver. One workload per node, in node order.
    ///
    /// # Errors
    ///
    /// [`BuildError::WorkloadCountMismatch`] if the number of workloads does
    /// not match the fabric's nodes.
    pub fn new(
        fab: Fabric,
        choice: &NicChoice,
        sw: SoftwareModel,
        wls: Vec<Box<dyn NodeWorkload>>,
    ) -> Result<Self, BuildError> {
        let n = fab.num_nodes();
        if wls.len() != n {
            return Err(BuildError::WorkloadCountMismatch {
                nodes: n,
                workloads: wls.len(),
            });
        }
        let nics = choice.build(n);
        let procs = (0..n).map(|i| Processor::new(NodeId::new(i), sw)).collect();
        Ok(Driver {
            fab,
            nics,
            procs,
            wls,
            barrier_cost: 40,
            watchdog: None,
            failures: Vec::new(),
            trace: TraceHandle::off(),
            metrics: None,
            gauge_period: 1_000,
            cycles_stepped: 0,
            node_due: vec![Cycle::ZERO; n],
        })
    }

    /// Cycles stepped so far. Every cycle is stepped (per-node gating
    /// skips idle nodes inside a cycle, never whole cycles), so this equals
    /// the elapsed simulated time.
    pub fn cycles_stepped(&self) -> u64 {
        self.cycles_stepped
    }

    /// Overrides the cost charged to every node when a barrier releases
    /// (the CM-5's dedicated control network made barriers cheap; default
    /// 40 cycles).
    pub fn with_barrier_cost(mut self, cost: u64) -> Self {
        self.barrier_cost = cost;
        self
    }

    /// Arms a per-node stall watchdog: a NIC that stays busy for `limit`
    /// cycles without its counters moving aborts the run with a panic,
    /// turning a would-be hang into a diagnosable failure. Pick a limit
    /// comfortably above the longest legitimate quiet period (with
    /// retransmission configured, several times the maximum RTO).
    pub fn with_stall_watchdog(mut self, limit: u64) -> Self {
        self.watchdog = Some(StallWatchdog::new(limit, self.nics.len()));
        self
    }

    /// Connects a flight recorder to every layer: the fabric (drop and
    /// delivery events) and each interface (protocol events). The driver
    /// keeps a handle too, so a tripped stall watchdog can dump the wedged
    /// node's recent history into its panic message.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.fab.attach_trace(trace.clone());
        for nic in &mut self.nics {
            nic.attach_trace(trace.clone());
        }
        self.trace = trace;
        self
    }

    /// Streams cycle-sampled occupancy gauges (buffer pool, OPT,
    /// retransmission queue, bulk window, fabric in-flight) into a registry
    /// the driver owns, every `period` cycles. Values are the maximum across
    /// nodes — the congestion signal the paper's admission-control argument
    /// turns on. Read the result with [`metrics`](Self::metrics) or claim it
    /// with [`take_metrics`](Self::take_metrics); merge registries from
    /// parallel replicas with [`MetricsRegistry::merge`].
    ///
    /// # Errors
    ///
    /// [`BuildError::ZeroGaugePeriod`] if `period` is zero.
    pub fn with_metrics(mut self, period: u64) -> Result<Self, BuildError> {
        if period == 0 {
            return Err(BuildError::ZeroGaugePeriod);
        }
        self.metrics = Some(MetricsRegistry::new());
        self.gauge_period = period;
        Ok(self)
    }

    /// The gauge registry filled by [`with_metrics`](Self::with_metrics),
    /// if one was requested.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Takes ownership of the gauge registry (for merging across replicas),
    /// leaving the driver without one.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take()
    }

    /// The flight-recorder handle attached with [`with_trace`](Self::with_trace)
    /// (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Typed delivery failures surfaced by the interfaces so far (retry
    /// budgets exhausted; see [`DeliveryFailure`]).
    pub fn delivery_failures(&self) -> &[DeliveryFailure] {
        &self.failures
    }

    /// The simulated fabric (topology, time, delivery statistics).
    pub fn fabric(&self) -> &Fabric {
        &self.fab
    }

    /// Per-node processor state and counters.
    pub fn processors(&self) -> &[Processor] {
        &self.procs
    }

    /// Per-node interface counters.
    pub fn nic(&self, node: usize) -> &dyn Nic {
        self.nics[node].as_ref()
    }

    /// Total packets the processors have received.
    pub fn packets_received(&self) -> u64 {
        self.procs.iter().map(|p| p.stats().received.get()).sum()
    }

    /// Total useful payload words received.
    pub fn user_words_received(&self) -> u64 {
        self.procs.iter().map(|p| p.stats().user_words.get()).sum()
    }

    /// Advances simulated time to exactly `until` (no-op when already
    /// there), stepping every cycle.
    pub fn advance(&mut self, until: Cycle) {
        while self.fab.now() < until {
            self.step();
        }
    }

    /// Emits one sample of every occupancy gauge, timestamped `at`.
    fn emit_gauges(&mut self, at: Cycle) {
        let Some(reg) = &mut self.metrics else {
            return;
        };
        let mut occ = nifdy::NicOccupancy::default();
        for nic in &self.nics {
            let o = nic.occupancy();
            occ.pool = occ.pool.max(o.pool);
            occ.opt = occ.opt.max(o.opt);
            occ.retx_queue = occ.retx_queue.max(o.retx_queue);
            occ.window_outstanding = occ.window_outstanding.max(o.window_outstanding);
        }
        reg.gauge("occupancy.pool.max", at, f64::from(occ.pool));
        reg.gauge("occupancy.opt.max", at, f64::from(occ.opt));
        reg.gauge("occupancy.retx_queue.max", at, f64::from(occ.retx_queue));
        reg.gauge("occupancy.window.max", at, occ.window_outstanding as f64);
        reg.gauge("fabric.in_flight", at, self.fab.in_network() as f64);
    }

    /// Whether node `i` can be skipped this cycle: its processor is inside
    /// a charged delay, its NIC promised no work before a future wakeup,
    /// and the fabric holds no packets for it. The predicate is stable for
    /// the whole cycle (`node_due` and the ejection queues only change on a
    /// node's own step or the fabric step at the end), so the processor and
    /// NIC loops agree on it.
    #[inline]
    fn node_gated(&self, i: usize, now: Cycle) -> bool {
        self.node_due[i] > now && self.fab.ready_len(NodeId::new(i)) == 0
    }

    /// Advances the simulation by one cycle: every processor, then every
    /// NIC, then the fabric. Nodes provably idle this cycle — inside a
    /// processor delay, before their NIC's next wakeup, with no packet
    /// waiting in the fabric — are skipped: their step would be a no-op, so
    /// results are bit-for-bit those of stepping everyone.
    pub fn step(&mut self) {
        self.cycles_stepped += 1;
        let now = self.fab.now();
        if self.metrics.is_some() && now.as_u64().is_multiple_of(self.gauge_period) {
            self.emit_gauges(now);
        }
        // A due stall deadline disables gating for the cycle: the watchdog
        // only accrues observations on stepped nodes, so the firing cycle
        // must step (and thus observe) everyone, exactly like ungated
        // stepping would.
        let dog_due = self
            .watchdog
            .as_ref()
            .and_then(StallWatchdog::next_deadline)
            .is_some_and(|t| t <= now);
        for i in 0..self.procs.len() {
            if !dog_due && self.node_gated(i, now) {
                continue;
            }
            let ev = self.procs[i].step(self.nics[i].as_mut(), self.wls[i].as_mut(), now);
            debug_assert!(matches!(ev, ProcEvent::None | ProcEvent::EnteredBarrier));
        }
        // Barrier release: every node is blocked in the barrier or done.
        let any_waiting = self.procs.iter().any(|p| p.in_barrier());
        if any_waiting && self.procs.iter().all(|p| p.in_barrier() || p.is_done()) {
            for (i, p) in self.procs.iter_mut().enumerate() {
                if p.in_barrier() {
                    p.release_barrier(now, self.barrier_cost);
                    // The release rewrote the processor's delay out from
                    // under the gate; re-arm it conservatively.
                    self.node_due[i] = now;
                }
            }
        }
        for (i, nic) in self.nics.iter_mut().enumerate() {
            if !dog_due && self.node_due[i] > now && self.fab.ready_len(NodeId::new(i)) == 0 {
                continue;
            }
            nic.step(&mut self.fab);
            self.failures.extend(nic.take_failures());
            if let Some(dog) = &mut self.watchdog {
                let fp = nic.stats().progress_fingerprint();
                if let Some(report) = dog.observe(i, now, fp, !nic.is_idle()) {
                    let node = NodeId::new(i);
                    trace_event!(
                        self.trace,
                        now,
                        node,
                        EventKind::WatchdogFire {
                            unit: report.unit as u32,
                            since: report.since,
                            fingerprint: report.fingerprint,
                        }
                    );
                    let dump = flight_recorder_dump(&self.trace, node);
                    panic!("stall watchdog tripped: {report}{dump}");
                }
            }
            // Both layers just ran; their own wakeups say when the node can
            // next matter. `Now` and past deadlines mean "again next cycle".
            let nic_due = match nic.next_event(now) {
                Wakeup::Now => now + 1,
                Wakeup::At(t) => t.max(now + 1),
                Wakeup::Quiescent => Cycle::MAX,
            };
            self.node_due[i] = self.procs[i].next_due().min(nic_due);
        }
        self.fab.step();
    }

    /// Whether every workload has finished and the network has drained.
    fn is_quiet(&self) -> bool {
        self.procs.iter().all(|p| p.is_done())
            && self.nics.iter().all(|n| n.is_idle())
            && self.fab.in_network() == 0
    }

    /// Runs for exactly `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        let until = self.fab.now() + cycles;
        self.advance(until);
    }

    /// Runs, invoking `sample` every `period` cycles, for `cycles` total.
    pub fn run_sampled<F: FnMut(&Driver)>(&mut self, cycles: u64, period: u64, mut sample: F) {
        assert!(period > 0, "sampling period must be positive");
        let start = self.fab.now();
        let mut c = 0;
        while c < cycles {
            self.advance(start + c);
            sample(self);
            c += period;
        }
        self.advance(start + cycles);
    }

    /// Runs until every workload has finished and the network has drained,
    /// or `limit` cycles elapse. Returns `true` on completion.
    ///
    /// Quiescence is observed after a stepped cycle, so a driver that is
    /// already quiet still steps once before returning.
    pub fn run_until_quiet(&mut self, limit: u64) -> bool {
        while self.fab.now().as_u64() < limit {
            self.step();
            if self.is_quiet() {
                return true;
            }
        }
        false
    }
}

/// Formats the wedged node's recent flight-recorder history (oldest first)
/// for a stall-watchdog panic message. Empty when no recorder is attached.
fn flight_recorder_dump(trace: &TraceHandle, node: NodeId) -> String {
    const DUMP_EVENTS: usize = 32;
    let events = trace.last_events(node, DUMP_EVENTS);
    if events.is_empty() {
        return String::new();
    }
    let mut s = format!("\nflight recorder, node {node} (oldest first):");
    for ev in &events {
        s.push_str("\n  ");
        s.push_str(&ev.to_string());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Action;
    use nifdy::{Delivered, OutboundPacket};
    use nifdy_net::topology::Mesh;
    use nifdy_net::FabricConfig;
    use nifdy_sim::Cycle;

    /// Everyone sends `count` packets to the next node, with one barrier in
    /// the middle.
    struct RingBurst {
        node: usize,
        n: usize,
        sent: u32,
        count: u32,
        did_barrier: bool,
    }

    impl NodeWorkload for RingBurst {
        fn next_action(&mut self, _now: Cycle) -> Action {
            if self.sent == self.count / 2 && !self.did_barrier {
                self.did_barrier = true;
                return Action::Barrier;
            }
            if self.sent < self.count {
                self.sent += 1;
                let dst = NodeId::new((self.node + 1) % self.n);
                Action::Send(OutboundPacket::new(dst, 8))
            } else {
                Action::Done
            }
        }
        fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {}
    }

    fn ring_driver(choice: NicChoice) -> Driver {
        let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let wls: Vec<Box<dyn NodeWorkload>> = (0..16)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(RingBurst {
                    node: i,
                    n: 16,
                    sent: 0,
                    count: 10,
                    did_barrier: false,
                })
            })
            .collect();
        Driver::new(fab, &choice, SoftwareModel::synthetic(), wls).expect("one workload per node")
    }

    #[test]
    fn nifdy_driver_completes_a_ring_exchange() {
        let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()));
        assert!(d.run_until_quiet(3_000_000), "did not drain");
        assert_eq!(d.packets_received(), 160);
        for p in d.processors() {
            assert_eq!(p.stats().barriers.get(), 1);
        }
    }

    #[test]
    fn all_three_nic_choices_complete() {
        for choice in [
            NicChoice::Plain,
            NicChoice::BuffersOnly(NifdyConfig::mesh()),
            NicChoice::Nifdy(NifdyConfig::mesh()),
        ] {
            let mut d = ring_driver(choice.clone());
            assert!(
                d.run_until_quiet(3_000_000),
                "{} did not drain",
                choice.label()
            );
            assert_eq!(d.packets_received(), 160, "{}", choice.label());
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh())).with_stall_watchdog(50_000);
        assert!(d.run_until_quiet(3_000_000), "did not drain");
        assert_eq!(d.packets_received(), 160);
        assert!(d.delivery_failures().is_empty());
    }

    #[test]
    #[should_panic(expected = "stall watchdog tripped")]
    fn watchdog_trips_on_a_genuine_livelock() {
        // Total loss with no retransmission: the sender's OPT entry waits
        // for an ack that can never come. The watchdog converts the hang
        // into a panic.
        let fab = Fabric::new(
            Box::new(Mesh::d2(4, 4)),
            FabricConfig::default().with_drop_prob(1.0),
        );
        let wls: Vec<Box<dyn NodeWorkload>> = (0..16)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(RingBurst {
                    node: i,
                    n: 16,
                    sent: 0,
                    count: 2,
                    did_barrier: true,
                })
            })
            .collect();
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NifdyConfig::mesh()),
            SoftwareModel::synthetic(),
            wls,
        )
        .expect("workload count matches")
        .with_stall_watchdog(5_000);
        let _ = d.run_until_quiet(1_000_000);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn attached_recorder_captures_protocol_events() {
        use nifdy_trace::TraceConfig;

        let trace = TraceHandle::recording(TraceConfig::default());
        let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()))
            .with_trace(trace.clone())
            .with_metrics(100)
            .expect("nonzero period");
        assert!(d.run_until_quiet(3_000_000), "did not drain");

        let events = trace.snapshot();
        assert!(!events.is_empty(), "recorder saw nothing");
        let names: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        for expected in [
            "scalar_send",
            "opt_insert",
            "opt_clear",
            "ack_send",
            "deliver",
        ] {
            assert!(names.contains(expected), "missing {expected} in {names:?}");
        }
        // Cycle-sampled gauges made it into the driver-owned registry.
        let json = d.metrics().expect("registry attached").to_json();
        let rendered = json.render();
        assert!(rendered.contains("occupancy.opt.max"), "{rendered}");
        assert!(rendered.contains("fabric.in_flight"), "{rendered}");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn watchdog_panic_carries_a_flight_recorder_dump() {
        use nifdy_trace::TraceConfig;

        let fab = Fabric::new(
            Box::new(Mesh::d2(4, 4)),
            FabricConfig::default().with_drop_prob(1.0),
        );
        let wls: Vec<Box<dyn NodeWorkload>> = (0..16)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(RingBurst {
                    node: i,
                    n: 16,
                    sent: 0,
                    count: 2,
                    did_barrier: true,
                })
            })
            .collect();
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NifdyConfig::mesh()),
            SoftwareModel::synthetic(),
            wls,
        )
        .expect("workload count matches")
        .with_stall_watchdog(5_000)
        .with_trace(TraceHandle::recording(TraceConfig::default()));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.run_until_quiet(1_000_000);
        }))
        .expect_err("watchdog must trip under total loss");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.starts_with("stall watchdog tripped"), "{msg}");
        assert!(msg.contains("flight recorder"), "{msg}");
        assert!(msg.contains("ScalarSend"), "{msg}");
        assert!(msg.contains("EligStall"), "{msg}");
    }

    #[test]
    fn build_errors_are_typed() {
        let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let err = Driver::new(
            fab,
            &NicChoice::Plain,
            SoftwareModel::synthetic(),
            Vec::new(),
        )
        .map(drop)
        .expect_err("0 workloads for 16 nodes must not build");
        assert_eq!(
            err,
            BuildError::WorkloadCountMismatch {
                nodes: 16,
                workloads: 0
            }
        );
        let err = ring_driver(NicChoice::Plain)
            .with_metrics(0)
            .map(drop)
            .expect_err("period 0 must be rejected");
        assert_eq!(err, BuildError::ZeroGaugePeriod);
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn drivers_move_across_threads() {
        // The whole point of owned trace/metrics state: a replica can run on
        // a worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<Driver>();
        let d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()));
        let received = std::thread::spawn(move || {
            let mut d = d;
            assert!(d.run_until_quiet(3_000_000), "did not drain");
            d.packets_received()
        })
        .join()
        .expect("worker panicked");
        assert_eq!(received, 160);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NicChoice::Plain.label(), "none");
        assert_eq!(
            NicChoice::BuffersOnly(NifdyConfig::mesh()).label(),
            "buffers"
        );
        assert_eq!(NicChoice::Nifdy(NifdyConfig::mesh()).label(), "nifdy");
    }

    /// Differential check of the per-node gate. Every simulation here is
    /// built twice: one copy runs through the driver's own loops (gated),
    /// the other through a reference loop that clears `node_due` before
    /// every [`Driver::step`], so every processor and NIC steps every
    /// cycle. Delivery logs, statistics, typed failures, gauges, trace
    /// streams and final clocks must all match.
    mod gating {
        use super::*;
        use std::sync::{Arc, Mutex};

        use nifdy::{Delivered, DeliveryFailure, NifdyConfig, OutboundPacket};
        use nifdy_net::topology::Mesh;
        use nifdy_net::{Fabric, FabricConfig, FaultConfig, GilbertElliott, LinkWindow, UserData};

        use crate::{
            CShiftConfig, CoalesceConfig, NetworkKind, ScanConfig, Scenario, SyntheticConfig,
        };

        /// One received packet: (cycle, receiver, sender, msg_id, pkt_index).
        type Delivery = (u64, usize, usize, u64, u32);
        type Log = Arc<Mutex<Vec<Delivery>>>;

        /// How a run advances the clock.
        #[derive(Debug, Clone, Copy)]
        enum Stepping {
            /// The driver's own loops, gate active.
            Gated,
            /// A reference loop that disarms the gate before every step.
            Ungated,
        }

        impl Stepping {
            fn advance(self, d: &mut Driver, until: Cycle) {
                match self {
                    Stepping::Gated => d.advance(until),
                    Stepping::Ungated => {
                        while d.fab.now() < until {
                            ungated_step(d);
                        }
                    }
                }
            }

            fn run_until_quiet(self, d: &mut Driver, limit: u64) -> bool {
                match self {
                    Stepping::Gated => d.run_until_quiet(limit),
                    Stepping::Ungated => {
                        while d.fab.now().as_u64() < limit {
                            ungated_step(d);
                            if d.is_quiet() {
                                return true;
                            }
                        }
                        false
                    }
                }
            }

            fn run_sampled<F: FnMut(&Driver)>(
                self,
                d: &mut Driver,
                cycles: u64,
                period: u64,
                mut sample: F,
            ) {
                match self {
                    Stepping::Gated => d.run_sampled(cycles, period, sample),
                    Stepping::Ungated => {
                        let start = d.fab.now();
                        let mut c = 0;
                        while c < cycles {
                            self.advance(d, start + c);
                            sample(d);
                            c += period;
                        }
                        self.advance(d, start + cycles);
                    }
                }
            }
        }

        fn ungated_step(d: &mut Driver) {
            d.node_due.fill(Cycle::ZERO);
            d.step();
        }

        /// Wraps a workload so every reception is appended to a shared log.
        struct Recording {
            inner: Box<dyn NodeWorkload>,
            node: usize,
            log: Log,
        }

        impl NodeWorkload for Recording {
            fn next_action(&mut self, now: Cycle) -> Action {
                self.inner.next_action(now)
            }
            fn on_receive(&mut self, pkt: &Delivered, now: Cycle) {
                self.log.lock().expect("log lock").push((
                    now.as_u64(),
                    self.node,
                    pkt.src.index(),
                    pkt.user.msg_id,
                    pkt.user.pkt_index,
                ));
                self.inner.on_receive(pkt, now);
            }
        }

        fn record_all(wls: Vec<Box<dyn NodeWorkload>>, log: &Log) -> Vec<Box<dyn NodeWorkload>> {
            wls.into_iter()
                .enumerate()
                .map(|(node, inner)| -> Box<dyn NodeWorkload> {
                    Box::new(Recording {
                        inner,
                        node,
                        log: Arc::clone(log),
                    })
                })
                .collect()
        }

        /// A scripted workload driven from a vector of actions.
        struct Script(std::vec::IntoIter<Action>);

        impl Script {
            fn boxed(actions: Vec<Action>) -> Box<dyn NodeWorkload> {
                Box::new(Script(actions.into_iter()))
            }
        }

        impl NodeWorkload for Script {
            fn next_action(&mut self, _now: Cycle) -> Action {
                self.0.next().unwrap_or(Action::Done)
            }
            fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {}
        }

        /// Everything observable about one finished run. Statistics are
        /// compared through their `Debug` forms so every counter (and the
        /// fabric's latency histogram) takes part.
        #[derive(Debug, PartialEq)]
        struct RunRecord {
            final_now: u64,
            cycles_stepped: u64,
            completed: Option<bool>,
            deliveries: Vec<Delivery>,
            stats: Vec<String>,
            failures: Vec<DeliveryFailure>,
            gauges: Option<String>,
        }

        fn observe(d: &Driver, completed: Option<bool>, log: &Log) -> RunRecord {
            let mut stats = vec![format!(
                "{:?} in flight {}",
                d.fab.stats(),
                d.fab.in_network()
            )];
            for (p, nic) in d.procs.iter().zip(&d.nics) {
                stats.push(format!("{:?} {:?}", p.stats(), nic.stats()));
            }
            RunRecord {
                final_now: d.fab.now().as_u64(),
                cycles_stepped: d.cycles_stepped(),
                completed,
                deliveries: log.lock().expect("log lock").clone(),
                stats,
                failures: d.failures.clone(),
                gauges: d.metrics().map(|reg| reg.to_json().render()),
            }
        }

        /// Builds the simulation described by `build` twice, drives one copy
        /// gated and one ungated through `run`, and asserts the full
        /// observation records match.
        fn assert_gating_is_invisible<B, R>(label: &str, build: B, run: R)
        where
            B: Fn(&Log) -> Driver,
            R: Fn(Stepping, &mut Driver) -> Option<bool>,
        {
            let run_one = |mode: Stepping| {
                let log = Log::default();
                let mut d = build(&log);
                let completed = run(mode, &mut d);
                observe(&d, completed, &log)
            };
            let gated = run_one(Stepping::Gated);
            let ungated = run_one(Stepping::Ungated);
            assert_eq!(gated, ungated, "gating changed the run on {label}");
            assert_eq!(gated.cycles_stepped, gated.final_now, "{label}");
        }

        #[test]
        fn synthetic_patterns_match() {
            // RNG-driven workloads on three topologies, sampled gauges on.
            for (kind, nodes, heavy) in [
                (NetworkKind::Mesh2D, 16, true),
                (NetworkKind::Cm5, 32, false),
                (NetworkKind::Torus2D, 16, false),
            ] {
                assert_gating_is_invisible(
                    &format!("synthetic on {kind:?}"),
                    |log| {
                        Scenario::new(kind)
                            .nodes(nodes)
                            .seed(41)
                            .nic(NicChoice::Nifdy(kind.nifdy_preset()))
                            .metrics(500)
                            .build_with(|sc| {
                                let cfg = if heavy {
                                    SyntheticConfig::heavy(sc.seed())
                                } else {
                                    SyntheticConfig::light(sc.seed())
                                };
                                record_all(cfg.build(sc.nodes()), log)
                            })
                            .expect("valid scenario")
                    },
                    |mode, d| {
                        mode.advance(d, Cycle::new(25_000));
                        None
                    },
                );
            }
        }

        #[test]
        fn radix_scan_with_compute_delays_matches() {
            // The fig9 scan pipeline: a token crawling the ring with charged
            // inter-send delays, so most nodes sit gated most of the time.
            for choice in [
                NicChoice::Plain,
                NicChoice::BuffersOnly(NifdyConfig::mesh()),
                NicChoice::Nifdy(NifdyConfig::mesh()),
            ] {
                assert_gating_is_invisible(
                    &format!("scan with {}", choice.label()),
                    |log| {
                        Scenario::new(NetworkKind::Mesh2D)
                            .nodes(4)
                            .seed(5)
                            .nic(choice.clone())
                            .metrics(1_000)
                            .build_with(|sc| {
                                record_all(
                                    ScanConfig::radix8(sc.sw())
                                        .with_delay(400)
                                        .build(sc.nodes()),
                                    log,
                                )
                            })
                            .expect("valid scenario")
                    },
                    |mode, d| Some(mode.run_until_quiet(d, 5_000_000)),
                );
            }
        }

        #[test]
        fn barrier_releases_match() {
            // Barrier release rewrites every waiting processor's delay under
            // the gate: the inter-phase barriers of C-shift and the ring
            // exchange's mid-run barrier.
            for choice in [NicChoice::Plain, NicChoice::Nifdy(NifdyConfig::cm5())] {
                assert_gating_is_invisible(
                    &format!("c-shift with barriers, {}", choice.label()),
                    |log| {
                        Scenario::new(NetworkKind::Cm5)
                            .nodes(32)
                            .seed(7)
                            .nic(choice.clone())
                            .software(SoftwareModel::cm5_library(false))
                            .barrier_cost(100)
                            .build_with(|sc| {
                                record_all(
                                    CShiftConfig::new(32, sc.sw())
                                        .with_barriers(true)
                                        .build(sc.nodes()),
                                    log,
                                )
                            })
                            .expect("valid scenario")
                    },
                    |mode, d| Some(mode.run_until_quiet(d, 5_000_000)),
                );
            }
            assert_gating_is_invisible(
                "ring exchange with a barrier",
                |log| {
                    let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()));
                    d.wls = record_all(std::mem::take(&mut d.wls), log);
                    d
                },
                |mode, d| Some(mode.run_until_quiet(d, 3_000_000)),
            );
        }

        #[test]
        fn coalesce_and_random_sweep_match() {
            // Breadth: random destinations over several seeds, topologies
            // and interfaces, run to completion.
            for seed in [3u64, 17, 92] {
                for kind in [NetworkKind::Mesh2D, NetworkKind::FatTree] {
                    for choice in [NicChoice::Plain, NicChoice::Nifdy(kind.nifdy_preset())] {
                        assert_gating_is_invisible(
                            &format!("coalesce seed {seed} on {kind:?} with {}", choice.label()),
                            |log| {
                                Scenario::new(kind)
                                    .nodes(16)
                                    .seed(seed)
                                    .nic(choice.clone())
                                    .build_with(|sc| {
                                        let cfg = CoalesceConfig {
                                            keys_per_node: 24,
                                            seed: sc.seed(),
                                            sw: sc.sw(),
                                        };
                                        record_all(cfg.build(sc.nodes()), log)
                                    })
                                    .expect("valid scenario")
                            },
                            |mode, d| Some(mode.run_until_quiet(d, 5_000_000)),
                        );
                    }
                }
            }
        }

        fn send(dst: usize, idx: u32) -> Action {
            Action::Send(
                OutboundPacket::new(NodeId::new(dst), 8).with_user(UserData {
                    msg_id: 0,
                    pkt_index: idx,
                    msg_packets: 1,
                    user_words: 6,
                }),
            )
        }

        #[test]
        fn chaos_faults_and_typed_failures_match() {
            // Uniform drops, bursty loss, a permanently dead link and a retry
            // budget: retransmission timers are the NIC wakeups the gate
            // trusts, and failure surfacing must land on the same cycles.
            let dead = NodeId::new(3);
            assert_gating_is_invisible(
                "chaos faults",
                |log| {
                    let fab = Fabric::new(
                        Box::new(Mesh::d2(2, 2)),
                        FabricConfig::default().with_drop_prob(0.02).with_fault(
                            FaultConfig::default()
                                .with_ack_drop_prob(0.01)
                                .with_burst(GilbertElliott::with_mean_loss(0.03))
                                .with_link_window(LinkWindow::edge(dead, 0, u64::MAX)),
                        ),
                    );
                    let wls = (0..4usize)
                        .map(|i| {
                            if i == 0 {
                                Script::boxed(vec![send(3, 0), send(1, 0), send(2, 0), send(1, 1)])
                            } else {
                                Script::boxed(vec![])
                            }
                        })
                        .collect();
                    let cfg = NifdyConfig::mesh()
                        .with_retx_timeout(500)
                        .with_retx_budget(3);
                    Driver::new(
                        fab,
                        &NicChoice::Nifdy(cfg),
                        SoftwareModel::synthetic(),
                        record_all(wls, log),
                    )
                    .expect("driver builds")
                    .with_stall_watchdog(200_000)
                },
                |mode, d| Some(mode.run_until_quiet(d, 2_000_000)),
            );
        }

        #[test]
        fn run_sampled_observes_identical_intermediate_states() {
            let sample_one = |mode: Stepping| {
                let log = Log::default();
                let mut d = Scenario::new(NetworkKind::Mesh2D)
                    .nodes(16)
                    .seed(9)
                    .nic(NicChoice::Nifdy(NetworkKind::Mesh2D.nifdy_preset()))
                    .build_with(|sc| {
                        record_all(
                            ScanConfig::radix8(sc.sw()).with_delay(40).build(sc.nodes()),
                            &log,
                        )
                    })
                    .expect("valid scenario");
                let mut samples = Vec::new();
                mode.run_sampled(&mut d, 120_000, 10_000, |d| {
                    samples.push((
                        d.fabric().now().as_u64(),
                        d.packets_received(),
                        d.user_words_received(),
                    ));
                });
                (samples, observe(&d, None, &log))
            };
            assert_eq!(
                sample_one(Stepping::Gated),
                sample_one(Stepping::Ungated),
                "sampled states diverged"
            );
        }

        #[test]
        fn watchdog_trips_at_the_same_cycle() {
            // Total loss with no retransmission wedges the sender. The
            // watchdog only observes stepped nodes, so the gate must open on
            // its deadline for the trip to match ungated stepping.
            let trip_message = |mode: Stepping| -> String {
                let result = std::panic::catch_unwind(move || {
                    let fab = Fabric::new(
                        Box::new(Mesh::d2(2, 2)),
                        FabricConfig::default().with_drop_prob(1.0),
                    );
                    let wls = (0..4usize)
                        .map(|i| {
                            if i == 0 {
                                Script::boxed(vec![send(1, 0)])
                            } else {
                                Script::boxed(vec![])
                            }
                        })
                        .collect();
                    let mut d = Driver::new(
                        fab,
                        &NicChoice::Nifdy(NifdyConfig::mesh()),
                        SoftwareModel::synthetic(),
                        wls,
                    )
                    .expect("driver builds")
                    .with_stall_watchdog(5_000);
                    let _ = mode.run_until_quiet(&mut d, 1_000_000);
                });
                let err = result.expect_err("watchdog must trip");
                err.downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "non-string panic".to_string())
            };
            let gated = trip_message(Stepping::Gated);
            assert!(gated.contains("stall watchdog tripped"), "{gated}");
            assert_eq!(gated, trip_message(Stepping::Ungated));
        }

        /// Trace streams and journey-analysis reports must be
        /// byte-identical too.
        #[cfg(feature = "trace")]
        #[test]
        fn trace_streams_and_journey_reports_match() {
            use nifdy_trace::TraceConfig;

            let run_one = |mode: Stepping| {
                let log = Log::default();
                let trace =
                    TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 14));
                let mut d = Scenario::new(NetworkKind::Mesh2D)
                    .nodes(16)
                    .seed(13)
                    .nic(NicChoice::Nifdy(
                        NifdyConfig::mesh()
                            .with_retx_timeout(500)
                            .with_retx_budget(4),
                    ))
                    .trace(trace.clone())
                    .build_with(|sc| {
                        record_all(
                            ScanConfig::radix8(sc.sw()).with_delay(30).build(sc.nodes()),
                            &log,
                        )
                    })
                    .expect("valid scenario");
                let done = mode.run_until_quiet(&mut d, 5_000_000);
                assert!(done, "scan never finished");
                let events = trace.snapshot();
                let report = nifdy_analyze::analyze(
                    &events,
                    &trace.loss(),
                    &nifdy_analyze::ExternalCounts::default(),
                    &nifdy_analyze::AnomalyConfig::default(),
                );
                (
                    events,
                    report.to_json().render(),
                    observe(&d, Some(done), &log),
                )
            };
            let (gated_events, gated_json, gated_rec) = run_one(Stepping::Gated);
            let (ref_events, ref_json, ref_rec) = run_one(Stepping::Ungated);
            assert_eq!(gated_events, ref_events, "trace streams differ");
            assert_eq!(gated_json, ref_json, "journey analysis JSON differs");
            assert_eq!(gated_rec, ref_rec, "observation records differ");
        }
    }
}
