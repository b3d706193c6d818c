//! The two simulated 8×8-mesh workloads, their untraced `Driver` runs and
//! the traced replays that time `traffic`, `core` and `net` separately.
//!
//! Both workloads pre-generate every packet from the seed (the plan), so
//! the exact per-pair delivery sequence is known before the run starts.
//! Neither uses barriers, so a replay that steps `Processor::step`,
//! `Nic::step` and `Fabric::step` in the driver's per-cycle order needs no
//! driver internals, and must end in exactly the driver run's state.

use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nifdy::{Delivered, DeliveryFailure, NicStats, OutboundPacket};
use nifdy_analyze::{analyze, AnomalyConfig, ExternalCounts, InvariantStatus};
use nifdy_net::{Fabric, FaultConfig, GilbertElliott, UserData};
use nifdy_sim::{Cycle, NodeId, SimRng};
use nifdy_trace::{TraceConfig, TraceHandle};
use nifdy_traffic::{
    Action, Driver, NetworkKind, NicChoice, NodeWorkload, ProcStats, Processor, SoftwareModel,
};

use crate::alloc;
use crate::report::Fnv;
use crate::spans::{self, Layer, Spans};

/// Nodes in the simulated machine (an 8×8 mesh).
pub const NODES: usize = 64;
/// The simulated network.
const KIND: NetworkKind = NetworkKind::Mesh2D;
/// Wire packet size in words, header included.
const PACKET_WORDS: u16 = 8;
/// Open-loop offer interval per node: the saturation knee of the repo's
/// load sweep (`ext:loadsweep`).
const OPEN_LOOP_INTERVAL: u64 = 60;
/// Mean Gilbert–Elliott loss of the lossy mesh, on data and acks.
const LOSS: f64 = 0.10;
/// The lossy mesh's fixed retransmission timeout before adaptation, as in
/// `ext:lossy`.
const FIXED_RTO: u64 = 2_500;

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Saturated open-loop uniform-random scalar traffic.
    OpenLoop,
    /// Bulk streams under bursty loss, with the flight recorder attached
    /// and the journey analyzer run over the recording.
    LossyTraced,
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    /// Open loop: cycles during which nodes offer packets (the run then
    /// continues until every offered packet is delivered).
    pub offer_cycles: u64,
    /// Lossy: packets per node the machine must have delivered in total
    /// before the run ends.
    pub stream_packets: u32,
}

/// A workload instance: the plan generated from one seed.
#[derive(Debug)]
pub struct SimSpec {
    workload: SimWorkload,
    seed: u64,
    /// Per source: `(cycle due, destination)` in send order.
    plan: Vec<Vec<(u64, u16)>>,
    /// Packets owed to each `(src, dst)`, indexed `src * NODES + dst`
    /// (zero for the endless lossy streams).
    pairs: Vec<u32>,
    /// Planned packets in total: the run ends once the machine has
    /// delivered this many.
    total: u64,
    /// A run that has not delivered everything by this cycle has failed.
    cycle_limit: u64,
}

impl SimSpec {
    /// Generates the plan for `workload` at `size` from `seed`.
    pub fn new(workload: SimWorkload, size: SimSize, seed: u64) -> Self {
        let plan: Vec<Vec<(u64, u16)>> = match workload {
            SimWorkload::OpenLoop => (0..NODES)
                .map(|src| {
                    let mut rng = SimRng::from_seed_stream(seed, src as u64);
                    let mut due = rng.gen_range_u64(0..OPEN_LOOP_INTERVAL);
                    let mut sends = Vec::new();
                    while due < size.offer_cycles {
                        let mut dst = rng.gen_range_usize(0..NODES - 1);
                        if dst >= src {
                            dst += 1;
                        }
                        sends.push((due, dst as u16));
                        due += OPEN_LOOP_INTERVAL;
                    }
                    sends
                })
                .collect(),
            SimWorkload::LossyTraced => (0..NODES)
                .map(|src| vec![(0, ((src + NODES / 2) % NODES) as u16)])
                .collect(),
        };
        // Lossy streams are endless: no pair is owed a count, and the run
        // ends on the machine-wide total.
        let mut pairs = vec![0u32; NODES * NODES];
        if workload == SimWorkload::OpenLoop {
            for (src, sends) in plan.iter().enumerate() {
                for &(_, dst) in sends {
                    pairs[src * NODES + usize::from(dst)] += 1;
                }
            }
        }
        let total = match workload {
            SimWorkload::OpenLoop => pairs.iter().map(|&n| u64::from(n)).sum(),
            SimWorkload::LossyTraced => (NODES as u64) * u64::from(size.stream_packets),
        };
        let cycle_limit = match workload {
            SimWorkload::OpenLoop => size.offer_cycles + 200_000,
            SimWorkload::LossyTraced => u64::from(size.stream_packets) * 30_000 + 200_000,
        };
        SimSpec {
            workload,
            seed,
            plan,
            pairs,
            total,
            cycle_limit,
        }
    }

    /// Planned packets.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the machine has delivered the planned total, given each
    /// node's received count.
    fn complete(&self, received: impl Iterator<Item = u64>) -> bool {
        received.sum::<u64>() >= self.total
    }

    /// Called after every cycle: once the run is complete the workloads
    /// stop offering (`stop`), and the run ends when no interface holds a
    /// packet its processor has not yet received, so every packet the
    /// recorder saw accepted has been delivered.
    fn finished(
        &self,
        stop: &AtomicBool,
        received: impl Iterator<Item = u64>,
        mut deliverable: impl Iterator<Item = bool>,
    ) -> bool {
        if !stop.load(Ordering::Relaxed) {
            if !self.complete(received) {
                return false;
            }
            stop.store(true, Ordering::Relaxed);
        }
        !deliverable.any(|d| d)
    }

    /// Whether the workload runs with the flight recorder attached.
    pub fn records(&self) -> bool {
        self.workload == SimWorkload::LossyTraced
    }

    fn fabric(&self) -> Fabric {
        let mut cfg = KIND.fabric_config(self.seed);
        if self.workload == SimWorkload::LossyTraced {
            let burst = GilbertElliott::with_mean_loss(LOSS);
            cfg = cfg.with_fault(FaultConfig::default().with_burst(burst));
        }
        Fabric::new(KIND.topology(NODES, self.seed), cfg)
    }

    fn nic_choice(&self) -> NicChoice {
        let preset = KIND.nifdy_preset();
        NicChoice::Nifdy(match self.workload {
            SimWorkload::OpenLoop => preset,
            SimWorkload::LossyTraced => preset.with_retx_timeout(FIXED_RTO).with_adaptive_rto(true),
        })
    }

    /// A recorder whose rings are large enough to evict nothing.
    fn recorder(&self) -> TraceHandle {
        if self.records() {
            TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 20))
        } else {
            TraceHandle::off()
        }
    }

    fn workloads(&self) -> Loads {
        let stream = self.workload == SimWorkload::LossyTraced;
        let stop = Arc::new(AtomicBool::new(false));
        let logs: Vec<_> = (0..NODES)
            .map(|_| Arc::new(Mutex::new(NodeLog::new())))
            .collect();
        let wls = self
            .plan
            .iter()
            .zip(&logs)
            .map(|(sends, log)| -> Box<dyn NodeWorkload> {
                Box::new(PlannedLoad {
                    sends: sends.clone(),
                    next: 0,
                    stream,
                    stop: Arc::clone(&stop),
                    seq_to: vec![0; NODES],
                    log: Arc::clone(log),
                })
            })
            .collect();
        Loads { wls, logs, stop }
    }
}

/// The per-node workloads of one run and what the benchmark keeps of them.
struct Loads {
    wls: Vec<Box<dyn NodeWorkload>>,
    logs: Vec<Arc<Mutex<NodeLog>>>,
    /// Set when the run is complete: no node offers another packet.
    stop: Arc<AtomicBool>,
}

/// What one receiving node observed.
#[derive(Debug)]
struct NodeLog {
    /// Next in-order sequence number expected from each source.
    next_from: Vec<u32>,
    /// Deliveries that were not the next in order from their source.
    misordered: u64,
    /// `(offer cycle, delivery cycle)` of every delivery, in order.
    deliveries: Vec<(u32, u32)>,
}

impl NodeLog {
    fn new() -> Self {
        NodeLog {
            next_from: vec![0; NODES],
            misordered: 0,
            deliveries: Vec::new(),
        }
    }
}

/// One node's share of the plan, offered through its processor. The offer
/// cycle rides in `msg_id` and the per-pair sequence number in `pkt_index`.
struct PlannedLoad {
    sends: Vec<(u64, u16)>,
    next: usize,
    /// A bulk stream: offer the one entry as bulk packets until the run
    /// is complete, instead of moving through a schedule of scalar sends.
    stream: bool,
    stop: Arc<AtomicBool>,
    seq_to: Vec<u32>,
    log: Arc<Mutex<NodeLog>>,
}

impl NodeWorkload for PlannedLoad {
    fn next_action(&mut self, now: Cycle) -> Action {
        let Some(&(due, dst)) = self.sends.get(self.next) else {
            return Action::Done;
        };
        if self.stop.load(Ordering::Relaxed) {
            return Action::Done;
        }
        if now.as_u64() < due {
            return Action::Compute(due - now.as_u64());
        }
        if !self.stream {
            self.next += 1;
        }
        let seq = &mut self.seq_to[usize::from(dst)];
        let user = UserData {
            msg_id: now.as_u64(),
            pkt_index: *seq,
            msg_packets: 1,
            user_words: PACKET_WORDS - 2,
        };
        *seq += 1;
        let pkt = OutboundPacket::new(NodeId::new(usize::from(dst)), PACKET_WORDS)
            .with_bulk(self.stream)
            .with_user(user);
        Action::Send(pkt)
    }

    fn on_receive(&mut self, pkt: &Delivered, now: Cycle) {
        let mut log = self.log.lock().expect("a node log is never poisoned");
        let next = &mut log.next_from[pkt.src.index()];
        if pkt.user.pkt_index == *next {
            *next += 1;
        } else {
            log.misordered += 1;
        }
        log.deliveries
            .push((pkt.user.msg_id as u32, now.as_u64() as u32));
    }
}

/// Summed interface counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicTotals {
    /// Data packets handed to the carrier (first transmissions).
    pub sent: u64,
    /// Offers refused for lack of buffering.
    pub send_rejected: u64,
    /// Retransmissions.
    pub retransmitted: u64,
    /// Acknowledgments sent.
    pub acks_sent: u64,
    /// Packets delivered to processors.
    pub delivered: u64,
    /// Transfers abandoned after the retry budget.
    pub delivery_failures: u64,
}

impl NicTotals {
    /// Sums the counters of every interface.
    pub fn sum<'a>(stats: impl IntoIterator<Item = &'a NicStats>) -> Self {
        let mut t = NicTotals::default();
        for s in stats {
            t.sent += s.sent.get();
            t.send_rejected += s.send_rejected.get();
            t.retransmitted += s.retransmitted.get();
            t.acks_sent += s.acks_sent.get();
            t.delivered += s.delivered.get();
            t.delivery_failures += s.delivery_failures.get();
        }
        t
    }
}

/// The recorder's output and what the analyzer made of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCheck {
    /// Events recorded.
    pub events: u64,
    /// Seconds to snapshot the recorder.
    pub snapshot_s: f64,
    /// Seconds to run the journey analyzer over the snapshot.
    pub analyze_s: f64,
}

/// The outcome of one simulated run (driver or replay).
#[derive(Debug, Default)]
pub struct SimRun {
    /// Final simulated clock.
    pub final_clock: u64,
    /// Packets delivered to processors.
    pub delivered: u64,
    /// Packets the interfaces accepted from the processors.
    pub accepted: u64,
    /// Hash of every simulated statistic (see [`conclude`]).
    pub fingerprint: u64,
    /// Planned packets not delivered exactly once in per-pair order.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Offer-to-delivery latency of every packet, in cycles, sorted.
    pub latency_cycles: Vec<u64>,
    /// Host nanoseconds from the offer cycle to the delivery cycle of every
    /// packet (driver runs only).
    pub host_latency_ns: Vec<f64>,
    /// Summed interface counters.
    pub nics: NicTotals,
    /// Cycles the driver stepped for real (driver runs only).
    pub cycles_stepped: u64,
    /// Host nanoseconds spent in the stepping loop.
    pub loop_ns: u64,
    /// Recorder and analyzer figures, when the workload records.
    pub trace: Option<TraceCheck>,
}

/// The end state a run is checked and fingerprinted from.
struct EndState<'a> {
    clock: u64,
    fabric: &'a Fabric,
    nics: Vec<&'a NicStats>,
    procs: Vec<&'a ProcStats>,
    failures: &'a [DeliveryFailure],
}

/// Checks delivery and fingerprints the simulated statistics: final clock,
/// per-node interface and processor counters, the fabric's counters and
/// latency histogram, and every delivery's offer and delivery cycle.
fn conclude(spec: &SimSpec, logs: &[Arc<Mutex<NodeLog>>], end: &EndState<'_>) -> SimRun {
    let mut run = SimRun {
        final_clock: end.clock,
        accepted: end.procs.iter().map(|p| p.sent.get()).sum(),
        nics: NicTotals::sum(end.nics.iter().copied()),
        ..SimRun::default()
    };
    let mut fp = Fnv::default();
    fp.write_u64(end.clock);
    for (nic, proc) in end.nics.iter().zip(&end.procs) {
        fp.debug(nic);
        fp.debug(proc);
    }
    fp.debug(end.fabric.stats());
    let mut misordered = 0;
    let mut in_order = 0;
    let mut owed = 0;
    for (dst, log) in logs.iter().enumerate() {
        let log = log.lock().expect("a node log is never poisoned");
        misordered += log.misordered;
        for (src, &got) in log.next_from.iter().enumerate() {
            let want = spec.pairs[src * NODES + dst];
            owed += u64::from(want.saturating_sub(got));
            in_order += u64::from(got);
        }
        for &(offer, at) in &log.deliveries {
            fp.write_u32(offer);
            fp.write_u32(at);
            run.latency_cycles.push(u64::from(at - offer));
        }
    }
    run.failed = owed.max(spec.total.saturating_sub(in_order));
    run.delivered = run.latency_cycles.len() as u64;
    run.latency_cycles.sort_unstable();
    run.fingerprint = fp.finish();
    if misordered > 0 {
        run.problems
            .push(format!("{misordered} deliveries out of per-pair order"));
    }
    if run.failed > 0 {
        run.problems.push(format!(
            "{} planned packets were not delivered in per-pair order",
            run.failed
        ));
    }
    if !end.failures.is_empty() {
        run.problems
            .push(format!("{} delivery failures", end.failures.len()));
    }
    run
}

/// Snapshots the recorder and runs the journey analyzer, checking that the
/// recording is lossless, non-empty and passes every invariant.
fn check_trace(trace: &TraceHandle, run: &mut SimRun, fabric_drops: u64) {
    let t = Instant::now();
    let events = trace.snapshot();
    let loss = trace.loss();
    let snapshot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ext = ExternalCounts {
        delivered: Some(run.nics.delivered),
        retransmitted: Some(run.nics.retransmitted),
        delivery_failures: Some(run.nics.delivery_failures),
        fabric_drops: Some(fabric_drops),
        wire_faults: None,
    };
    let report = analyze(&events, &loss, &ext, &AnomalyConfig::default());
    let analyze_s = t.elapsed().as_secs_f64();
    if events.is_empty() {
        run.problems
            .push("the flight recorder recorded no events".to_string());
    }
    if !loss.is_lossless() {
        run.problems.push(format!(
            "the recording lost events: {} evicted, {} sampled out",
            loss.evicted_total(),
            loss.sampled_out_total()
        ));
    }
    for inv in &report.invariants {
        if inv.status != InvariantStatus::Pass {
            run.problems.push(format!(
                "analyzer invariant {} is {}: {}",
                inv.name,
                inv.status.name(),
                inv.detail
            ));
        }
    }
    run.trace = Some(TraceCheck {
        events: events.len() as u64,
        snapshot_s,
        analyze_s,
    });
}

/// Seconds of set-up and of the timed window of one driver run.
#[derive(Debug, Clone, Copy)]
pub struct RoundTimes {
    /// Building the driver (fabric, interfaces, processors, workloads).
    pub setup_s: f64,
    /// From the first step to verified completion, analysis included.
    pub run_s: f64,
}

/// One untraced run through `Driver`: the end-to-end measurement.
pub fn driver_run(spec: &SimSpec) -> (RoundTimes, SimRun) {
    let setup = Instant::now();
    let Loads { wls, logs, stop } = spec.workloads();
    let trace = spec.recorder();
    let mut driver = Driver::new(
        spec.fabric(),
        &spec.nic_choice(),
        SoftwareModel::synthetic(),
        wls,
    )
    .expect("one workload per node")
    .with_trace(trace.clone());
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    // Host time at the start of every cycle, for host-time latency.
    let mut cycle_ns: Vec<u64> = Vec::with_capacity(1 << 16);
    loop {
        cycle_ns.push(start.elapsed().as_nanos() as u64);
        driver.step();
        let received = driver.processors().iter().map(|p| p.stats().received.get());
        let deliverable = (0..NODES).map(|i| driver.nic(i).has_deliverable());
        if spec.finished(&stop, received, deliverable)
            || driver.fabric().now().as_u64() >= spec.cycle_limit
        {
            break;
        }
    }
    let loop_ns = start.elapsed().as_nanos() as u64;
    let end = EndState {
        clock: driver.fabric().now().as_u64(),
        fabric: driver.fabric(),
        nics: (0..NODES).map(|i| driver.nic(i).stats()).collect(),
        procs: driver.processors().iter().map(Processor::stats).collect(),
        failures: driver.delivery_failures(),
    };
    let mut run = conclude(spec, &logs, &end);
    if spec.records() {
        check_trace(&trace, &mut run, driver.fabric().stats().dropped.get());
    }
    let run_s = start.elapsed().as_secs_f64();

    run.loop_ns = loop_ns;
    run.cycles_stepped = driver.cycles_stepped();
    for log in &logs {
        let log = log.lock().expect("a node log is never poisoned");
        run.host_latency_ns.extend(
            log.deliveries
                .iter()
                .map(|&(offer, at)| (cycle_ns[at as usize] - cycle_ns[offer as usize]) as f64),
        );
    }
    (RoundTimes { setup_s, run_s }, run)
}

/// One replay of the workload outside `Driver`, stepping the processors,
/// the interfaces that are due and the fabric in the driver's per-cycle
/// order, with one span per layer per cycle. `record` attaches the flight
/// recorder. Allocations are counted for the duration of the loop.
pub fn replay(spec: &SimSpec, record: bool, spans: &mut Spans) -> SimRun {
    let Loads {
        mut wls,
        logs,
        stop,
    } = spec.workloads();
    let mut fab = spec.fabric();
    let mut nics = spec.nic_choice().build(NODES);
    let sw = SoftwareModel::synthetic();
    let mut procs: Vec<Processor> = (0..NODES)
        .map(|i| Processor::new(NodeId::new(i), sw))
        .collect();
    let trace = if record {
        spec.recorder()
    } else {
        TraceHandle::off()
    };
    fab.attach_trace(trace.clone());
    for nic in &mut nics {
        nic.attach_trace(trace.clone());
    }
    let mut failures = Vec::new();

    let was = alloc::set_counting(true);
    let start = spans::mark();
    let mut m = start;
    loop {
        let now = fab.now();
        let step = now.as_u64();
        for ((proc, nic), wl) in procs.iter_mut().zip(&mut nics).zip(&mut wls) {
            proc.step(nic.as_mut(), wl.as_mut(), now);
        }
        m = spans.close(Layer::ProcStep, step, m, NODES as u32);
        let mut calls = 0;
        for (i, nic) in nics.iter_mut().enumerate() {
            // Stepping an interface before its wakeup, with nothing waiting
            // for it in the fabric, is a no-op by the `Wakeup` contract.
            if fab.ready_len(NodeId::new(i)) == 0 && !nic.next_event(now).is_due(now) {
                continue;
            }
            nic.step(&mut fab);
            failures.extend(nic.take_failures());
            calls += 1;
        }
        m = spans.close(Layer::NicStep, step, m, calls);
        fab.step();
        m = spans.close(Layer::FabricStep, step, m, 1);
        let received = procs.iter().map(|p| p.stats().received.get());
        let deliverable = nics.iter().map(|n| n.has_deliverable());
        if spec.finished(&stop, received, deliverable) || fab.now().as_u64() >= spec.cycle_limit {
            break;
        }
    }
    let loop_ns = spans::mark().ns_since(start);
    alloc::set_counting(was);

    let end = EndState {
        clock: fab.now().as_u64(),
        fabric: &fab,
        nics: nics.iter().map(|n| n.stats()).collect(),
        procs: procs.iter().map(Processor::stats).collect(),
        failures: &failures,
    };
    let mut run = conclude(spec, &logs, &end);
    if record {
        check_trace(&trace, &mut run, fab.stats().dropped.get());
    }
    run.loop_ns = loop_ns;
    run
}

/// Cycles the replay buffer should hold spans for, three per cycle.
pub fn span_capacity(cycles: u64) -> usize {
    3 * cycles as usize + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: SimSize = SimSize {
        offer_cycles: 1_500,
        stream_packets: 8,
    };

    #[test]
    fn a_broken_per_pair_plan_fails_the_check() {
        let mut spec = SimSpec::new(SimWorkload::OpenLoop, SMALL, 3);
        let pair = spec.pairs.iter().position(|&n| n > 0).expect("a pair");
        spec.pairs[pair] += 1;
        let (_, run) = driver_run(&spec);
        assert_eq!(run.failed, 1, "the extra planned packet never arrives");
        assert!(!run.problems.is_empty());
    }

    #[test]
    fn the_replay_reproduces_the_driver_run() {
        for workload in [SimWorkload::OpenLoop, SimWorkload::LossyTraced] {
            let spec = SimSpec::new(workload, SMALL, 5);
            let (_, reference) = driver_run(&spec);
            assert!(reference.problems.is_empty(), "{:?}", reference.problems);
            let mut spans = Spans::with_capacity(span_capacity(reference.final_clock));
            let replayed = replay(&spec, spec.records(), &mut spans);
            assert_eq!(replayed.final_clock, reference.final_clock);
            assert_eq!(replayed.fingerprint, reference.fingerprint);
            assert_eq!(spans.spans().len() as u64, 3 * reference.final_clock);
        }
    }
}
