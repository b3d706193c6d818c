//! Sim/wire differential conformance: the same seeded workload driven
//! through the cycle-accurate fabric and through a byte transport must
//! deliver identically.
//!
//! The protocol state machine ([`NifdyUnit`]) is shared verbatim between
//! the two stacks — only the [`NetPort`](nifdy_net::NetPort) under it
//! differs —
//! so any divergence in per-destination delivery order or in the dialog
//! lifecycle is a codec or transport bug, not a protocol variation. The
//! workload is a pairwise permutation (node *i* talks only to one partner),
//! which makes "per-destination delivery order" exactly "per-pair delivery
//! order" and keeps the expected log trivially computable: NIFDY guarantees
//! sender order per source, so every pair's log must equal its send order
//! regardless of latency, jitter, or which stack carried the bytes.

use std::collections::BTreeMap;

use nifdy::{FailureKind, Nic, NifdyConfig, NifdyUnit, OutboundPacket};
use nifdy_net::topology::Mesh;
use nifdy_net::{Fabric, FabricConfig, FaultConfig, UserData};
use nifdy_sim::NodeId;
use nifdy_trace::{TraceConfig, TraceHandle};

use crate::endpoint::WireEndpoint;
use crate::fault::{FaultyTransport, WireFaultConfig, WireFaultStats};
use crate::transport::LoopbackHub;

/// Per-pair delivery record: `(src, dst) -> [(msg_id, pkt_index), ...]` in
/// the order the receiving processor polled the packets.
pub type DeliveryLog = BTreeMap<(usize, usize), Vec<(u64, u32)>>;

/// Dialog-lifecycle trace events, the protocol-visible fingerprint the two
/// stacks must agree on. Frame- and fabric-level events are excluded on
/// purpose: they describe the carrier, not the protocol.
pub const LIFECYCLE_EVENTS: [&str; 5] = [
    "bulk_request",
    "dialog_open",
    "dialog_grant",
    "dialog_reject",
    "dialog_close",
];

/// One node's dialog lifecycle, split by role. A node is simultaneously a
/// bulk *sender* (bulk_request, dialog_open, teardown closes) and a bulk
/// *receiver* (dialog_grant, dialog_reject, exit/reclaim closes); the two
/// state machines are independent, and their relative interleaving on one
/// node legitimately depends on carrier latency — so each role is compared
/// as its own event stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeLifecycle {
    /// Outgoing-dialog events, in record order.
    pub sender: Vec<&'static str>,
    /// Incoming-dialog events, in record order.
    pub receiver: Vec<&'static str>,
}

/// A seeded pairwise workload: every node streams `messages` messages of
/// `packets_per_message` packets to one partner.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Node count (the permutation needs at least 2).
    pub nodes: usize,
    /// Messages each node sends to its partner.
    pub messages: u64,
    /// Packets per message.
    pub packets_per_message: u32,
    /// Packet length in words, including the header word.
    pub size_words: u16,
    /// Request bulk dialogs for every message (scalar otherwise).
    pub want_bulk: bool,
    /// Seed choosing the partner permutation.
    pub seed: u64,
    /// Give up (panic) if a run has not drained by this many cycles.
    pub max_cycles: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            nodes: 4,
            messages: 3,
            packets_per_message: 8,
            size_words: 6,
            want_bulk: true,
            seed: 1,
            max_cycles: 200_000,
        }
    }
}

impl WorkloadSpec {
    /// The partner node `i` sends to: a rotation by `1 + seed mod (n-1)`,
    /// which is a fixed-point-free permutation for any seed.
    pub fn partner(&self, i: usize) -> usize {
        let shift = 1 + (self.seed as usize) % (self.nodes - 1);
        (i + shift) % self.nodes
    }

    /// The protocol config both stacks run.
    pub fn config(&self) -> NifdyConfig {
        NifdyConfig::mesh()
    }

    /// Total packets the workload delivers.
    pub fn total_packets(&self) -> u64 {
        self.nodes as u64 * self.messages * u64::from(self.packets_per_message)
    }

    /// The delivery log every conforming run must produce: each pair sees
    /// its packets in exact send order.
    pub fn expected_log(&self) -> DeliveryLog {
        let mut log = DeliveryLog::new();
        for src in 0..self.nodes {
            let dst = self.partner(src);
            let mut order = Vec::new();
            for m in 0..self.messages {
                for p in 0..self.packets_per_message {
                    order.push((self.msg_id(src, m), p));
                }
            }
            log.insert((src, dst), order);
        }
        log
    }

    fn msg_id(&self, src: usize, m: u64) -> u64 {
        ((src as u64) << 32) | m
    }
}

/// Everything a conformance run produces for comparison.
#[derive(Debug)]
pub struct ConformanceReport {
    /// Per-pair delivery order observed at the receivers.
    pub log: DeliveryLog,
    /// Per-node, per-role dialog-lifecycle event names, in record order
    /// (empty when the `trace` feature is off).
    pub lifecycle: Vec<NodeLifecycle>,
    /// Cycles until the run drained.
    pub cycles: u64,
}

impl ConformanceReport {
    /// Panics with a readable diff if two runs disagree on delivery order
    /// or dialog lifecycle.
    pub fn assert_matches(&self, other: &ConformanceReport, label: &str) {
        assert_eq!(
            self.log, other.log,
            "{label}: per-destination delivery orders diverge"
        );
        assert_eq!(
            self.lifecycle, other.lifecycle,
            "{label}: dialog lifecycles diverge"
        );
    }
}

/// Per-pair typed delivery-failure counts:
/// `(src, dst) -> {failure kind name -> count}`. Chaos parity compares
/// failures as totals per kind, not as timed sequences, because *when* a
/// retry budget exhausts depends on the carrier's latency — only *what*
/// failed and *how* is protocol-determined.
pub type FailureLog = BTreeMap<(usize, usize), BTreeMap<&'static str, u64>>;

/// Stable comparison name for a failure kind (the per-dialog details —
/// which slot id, how many unacked — legitimately differ between carriers).
fn failure_kind_name(kind: &FailureKind) -> &'static str {
    match kind {
        FailureKind::Scalar => "scalar",
        FailureKind::BulkDialog { .. } => "bulk_dialog",
    }
}

/// Everything a chaos-conformance run produces for comparison.
///
/// Unlike [`ConformanceReport`], the dialog lifecycle is *not* compared:
/// the two fault planes draw from independent RNG streams, so which
/// message triggers a retransmission or a reject is carrier-specific. The
/// protocol guarantees under test are the ones loss cannot excuse:
/// per-destination delivery order, zero corrupted deliveries, and typed
/// failure parity when retry budgets exhaust.
#[derive(Debug)]
pub struct ChaosReport {
    /// Per-pair delivery order observed at the receivers.
    pub log: DeliveryLog,
    /// Per-pair typed failures drained from the units.
    pub failures: FailureLog,
    /// Frames rejected by the codec (checksum trailer catches corruption).
    pub decode_errors: u64,
    /// Summed per-cause wire fault counters (empty for fabric runs).
    pub fault_counts: Vec<(&'static str, u64)>,
    /// Cycles until the run quiesced.
    pub cycles: u64,
    /// Summed sender retransmissions (`NicStats.retransmitted`) — ground
    /// truth for the journey analyzer's conservation checks.
    pub retransmitted: u64,
    /// Packets the simulated fabric's fault plane dropped (zero for wire
    /// runs, whose loss shows up in `fault_counts`).
    pub fabric_dropped: u64,
}

impl ChaosReport {
    /// Packets delivered across all receivers (delivery-log volume).
    pub fn delivered(&self) -> u64 {
        self.log.values().map(|v| v.len() as u64).sum()
    }

    /// Typed delivery failures across all pairs.
    pub fn failure_total(&self) -> u64 {
        self.failures.values().flat_map(|m| m.values()).sum()
    }

    /// Total wire faults the chaos plane injected.
    pub fn wire_fault_total(&self) -> u64 {
        self.fault_counts.iter().map(|&(_, n)| n).sum()
    }

    /// Panics with a readable diff if two chaos runs disagree on delivery
    /// order or typed-failure accounting.
    pub fn assert_matches(&self, other: &ChaosReport, label: &str) {
        assert_eq!(
            self.log, other.log,
            "{label}: per-destination delivery orders diverge under faults"
        );
        assert_eq!(
            self.failures, other.failures,
            "{label}: typed delivery-failure accounting diverges"
        );
    }
}

/// The protocol config chaos runs use: the clean conformance preset plus
/// the §6.2 retransmission machinery (adaptive RTO, the given retry
/// budget), without which any loss would wedge the run instead of either
/// recovering or surfacing a typed failure.
pub fn chaos_config(spec: &WorkloadSpec, budget: u32) -> NifdyConfig {
    spec.config()
        .with_retx_timeout(64)
        .with_adaptive_rto(true)
        .with_retx_budget(budget)
}

/// Per-node send-side pacing: feeds the workload to a unit one packet at a
/// time, retrying rejected sends.
struct Feeder {
    dst: NodeId,
    queue: std::vec::IntoIter<UserData>,
    head: Option<UserData>,
    size_words: u16,
    want_bulk: bool,
}

impl Feeder {
    fn new(spec: &WorkloadSpec, src: usize) -> Self {
        let mut queue = Vec::new();
        for m in 0..spec.messages {
            for p in 0..spec.packets_per_message {
                queue.push(UserData {
                    msg_id: spec.msg_id(src, m),
                    pkt_index: p,
                    msg_packets: spec.packets_per_message,
                    // One header word plus bookkeeping, rest is payload.
                    user_words: spec.size_words.saturating_sub(2),
                });
            }
        }
        Feeder {
            dst: NodeId::new(spec.partner(src)),
            queue: queue.into_iter(),
            head: None,
            size_words: spec.size_words,
            want_bulk: spec.want_bulk,
        }
    }

    fn pump(&mut self, mut try_send: impl FnMut(OutboundPacket) -> bool) {
        let Some(user) = self.head.take().or_else(|| self.queue.next()) else {
            return;
        };
        let pkt = OutboundPacket::new(self.dst, self.size_words)
            .with_bulk(self.want_bulk)
            .with_user(user);
        if !try_send(pkt) {
            self.head = Some(user);
        }
    }

    /// Every workload packet has been accepted by the interface.
    fn done(&self) -> bool {
        self.head.is_none() && self.queue.len() == 0
    }
}

fn lifecycle_projection(trace: &TraceHandle, nodes: usize) -> Vec<NodeLifecycle> {
    use nifdy_trace::{DialogEnd, EventKind};
    let mut per_node = vec![NodeLifecycle::default(); nodes];
    for ev in trace.snapshot() {
        let name = ev.kind.name();
        let slot = &mut per_node[ev.node.index()];
        match ev.kind {
            EventKind::BulkRequest { .. }
            | EventKind::DialogOpen { .. }
            | EventKind::DialogClose {
                end: DialogEnd::TornDown,
                ..
            } => slot.sender.push(name),
            EventKind::DialogGrant { .. }
            | EventKind::DialogReject { .. }
            | EventKind::DialogClose { .. } => slot.receiver.push(name),
            // Everything else is outside the dialog lifecycle.
            EventKind::ScalarSend { .. }
            | EventKind::BulkSend { .. }
            | EventKind::AckSend { .. }
            | EventKind::OptInsert { .. }
            | EventKind::OptClear { .. }
            | EventKind::EligStall { .. }
            | EventKind::WindowAdvance { .. }
            | EventKind::Retransmit { .. }
            | EventKind::RttSample { .. }
            | EventKind::DeliveryFail { .. }
            | EventKind::Drop { .. }
            | EventKind::Deliver { .. }
            | EventKind::ScalarAccept { .. }
            | EventKind::BulkAccept { .. }
            | EventKind::FrameSend { .. }
            | EventKind::FrameRecv { .. }
            | EventKind::FrameReject { .. }
            | EventKind::WatchdogFire { .. }
            | EventKind::WireFault { .. }
            | EventKind::Heartbeat { .. }
            | EventKind::PeerDown { .. }
            | EventKind::PeerRestart { .. }
            | EventKind::EndpointRestart { .. } => {}
        }
    }
    per_node
}

fn trace_handle() -> TraceHandle {
    TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16))
}

/// Mesh dimensions for `nodes`: the most square factorization.
fn mesh_dims(nodes: usize) -> (usize, usize) {
    let mut w = (nodes as f64).sqrt() as usize;
    while w > 1 && !nodes.is_multiple_of(w) {
        w -= 1;
    }
    (w.max(1), nodes / w.max(1))
}

/// Runs the workload through the cycle-accurate simulated fabric.
///
/// # Panics
///
/// Panics if the run does not drain within `spec.max_cycles`.
pub fn run_fabric(spec: &WorkloadSpec) -> ConformanceReport {
    assert!(spec.nodes >= 2, "the permutation needs at least 2 nodes");
    let (w, h) = mesh_dims(spec.nodes);
    let mut fab = Fabric::new(
        Box::new(Mesh::d2(w, h)),
        FabricConfig::default().with_seed(spec.seed),
    );
    let trace = trace_handle();
    let mut units: Vec<NifdyUnit> = (0..spec.nodes)
        .map(|i| {
            let mut u = NifdyUnit::new(NodeId::new(i), spec.config());
            u.attach_trace(trace.clone());
            u
        })
        .collect();
    let mut feeders: Vec<Feeder> = (0..spec.nodes).map(|i| Feeder::new(spec, i)).collect();
    let mut log = DeliveryLog::new();
    let mut delivered = 0u64;
    let mut cycles = 0u64;
    while delivered < spec.total_packets() {
        assert!(
            cycles < spec.max_cycles,
            "fabric run wedged: {delivered}/{} packets after {cycles} cycles",
            spec.total_packets()
        );
        for (i, unit) in units.iter_mut().enumerate() {
            let now = fab.now();
            feeders[i].pump(|pkt| unit.try_send(pkt, now));
            unit.step(&mut fab);
            while let Some(d) = unit.poll(fab.now()) {
                log.entry((d.src.index(), i))
                    .or_default()
                    .push((d.user.msg_id, d.user.pkt_index));
                delivered += 1;
            }
        }
        fab.step();
        cycles += 1;
    }
    // Quiesce: dialog teardown (the final combined acks and close events)
    // happens after the last delivery; both stacks must trace it.
    while !units.iter().all(Nic::is_idle) {
        assert!(cycles < spec.max_cycles, "fabric run never quiesced");
        for unit in units.iter_mut() {
            unit.step(&mut fab);
            assert!(unit.poll(fab.now()).is_none(), "delivery after drain");
        }
        fab.step();
        cycles += 1;
    }
    ConformanceReport {
        log,
        lifecycle: lifecycle_projection(&trace, spec.nodes),
        cycles,
    }
}

/// Runs the workload through the loopback byte transport: encode → carry →
/// decode on every hop. `latency` is the hub's fixed delivery delay;
/// `jitter` adds a seeded uniform `0..=jitter` extra delay per frame, which
/// deliberately reorders frames to exercise the window machinery.
///
/// # Panics
///
/// Panics if the run does not drain within `spec.max_cycles`.
pub fn run_loopback(spec: &WorkloadSpec, latency: u64, jitter: u64) -> ConformanceReport {
    assert!(spec.nodes >= 2, "the permutation needs at least 2 nodes");
    let hub = LoopbackHub::new(spec.nodes, latency).with_jitter(spec.seed, jitter);
    let trace = trace_handle();
    let mut eps: Vec<WireEndpoint<_>> = (0..spec.nodes)
        .map(|i| {
            let node = NodeId::new(i);
            let mut ep = WireEndpoint::new(node, spec.config(), hub.endpoint(node));
            ep.attach_trace(trace.clone());
            ep
        })
        .collect();
    let mut feeders: Vec<Feeder> = (0..spec.nodes).map(|i| Feeder::new(spec, i)).collect();
    let mut log = DeliveryLog::new();
    let mut delivered = 0u64;
    let mut cycles = 0u64;
    while delivered < spec.total_packets() {
        assert!(
            cycles < spec.max_cycles,
            "loopback run wedged: {delivered}/{} packets after {cycles} cycles",
            spec.total_packets()
        );
        for (i, ep) in eps.iter_mut().enumerate() {
            feeders[i].pump(|pkt| ep.try_send(pkt));
            ep.step();
            while let Some(d) = ep.poll() {
                log.entry((d.src.index(), i))
                    .or_default()
                    .push((d.user.msg_id, d.user.pkt_index));
                delivered += 1;
            }
        }
        hub.tick();
        cycles += 1;
    }
    // Quiesce, as in the fabric run, so dialog teardown lands in the trace.
    while !eps.iter().all(WireEndpoint::is_idle) {
        assert!(cycles < spec.max_cycles, "loopback run never quiesced");
        for ep in eps.iter_mut() {
            ep.step();
            assert!(ep.poll().is_none(), "delivery after drain");
        }
        hub.tick();
        cycles += 1;
    }
    // No frame may have been mangled or misrouted in a clean loopback run.
    for ep in &eps {
        assert_eq!(ep.port().decode_errors(), 0, "codec corruption in flight");
        assert_eq!(ep.port().foreign(), 0, "misrouted frame");
    }
    ConformanceReport {
        log,
        lifecycle: lifecycle_projection(&trace, spec.nodes),
        cycles,
    }
}

/// Cycles of sustained all-idle (with exhausted feeders) that end a chaos
/// run: long enough for any held, delayed, or in-flight frame to land and
/// provoke more work if it is going to.
const CHAOS_QUIESCE_GRACE: u64 = 512;

/// Runs the workload through the simulated fabric with its flit-level
/// fault plane enabled. Terminates when the feeders are exhausted and
/// every unit has been idle for a sustained grace period — under loss,
/// "all packets delivered" is no longer the exit condition, because a
/// retry-budget exhaustion converts deliveries into typed failures.
///
/// # Panics
///
/// Panics if the run does not quiesce within `spec.max_cycles`.
pub fn run_fabric_chaos(spec: &WorkloadSpec, faults: FaultConfig, budget: u32) -> ChaosReport {
    run_fabric_chaos_traced(spec, faults, budget, &TraceHandle::off())
}

/// [`run_fabric_chaos`] with a caller-supplied flight recorder attached to
/// the fabric and every unit, so the run's full event stream (sends,
/// accepts, retransmits, drops, dialog lifecycle) lands in one recorder
/// for offline journey analysis.
///
/// # Panics
///
/// Panics if the run does not quiesce within `spec.max_cycles`.
pub fn run_fabric_chaos_traced(
    spec: &WorkloadSpec,
    faults: FaultConfig,
    budget: u32,
    trace: &TraceHandle,
) -> ChaosReport {
    assert!(spec.nodes >= 2, "the permutation needs at least 2 nodes");
    let (w, h) = mesh_dims(spec.nodes);
    let mut fab = Fabric::new(
        Box::new(Mesh::d2(w, h)),
        FabricConfig::default()
            .with_seed(spec.seed)
            .with_fault(faults),
    );
    fab.attach_trace(trace.clone());
    let cfg = chaos_config(spec, budget);
    let mut units: Vec<NifdyUnit> = (0..spec.nodes)
        .map(|i| {
            let mut u = NifdyUnit::new(NodeId::new(i), cfg.clone());
            u.attach_trace(trace.clone());
            u
        })
        .collect();
    let mut feeders: Vec<Feeder> = (0..spec.nodes).map(|i| Feeder::new(spec, i)).collect();
    let mut log = DeliveryLog::new();
    let mut failures = FailureLog::new();
    let mut cycles = 0u64;
    let mut idle_streak = 0u64;
    loop {
        assert!(
            cycles < spec.max_cycles,
            "fabric chaos run never quiesced ({cycles} cycles)"
        );
        for (i, unit) in units.iter_mut().enumerate() {
            let now = fab.now();
            feeders[i].pump(|pkt| unit.try_send(pkt, now));
            unit.step(&mut fab);
            while let Some(d) = unit.poll(fab.now()) {
                log.entry((d.src.index(), i))
                    .or_default()
                    .push((d.user.msg_id, d.user.pkt_index));
            }
            for f in unit.take_failures() {
                *failures
                    .entry((f.src.index(), f.dst.index()))
                    .or_default()
                    .entry(failure_kind_name(&f.kind))
                    .or_default() += 1;
            }
        }
        fab.step();
        cycles += 1;
        if feeders.iter().all(Feeder::done) && units.iter().all(Nic::is_idle) {
            idle_streak += 1;
            if idle_streak >= CHAOS_QUIESCE_GRACE {
                break;
            }
        } else {
            idle_streak = 0;
        }
    }
    ChaosReport {
        log,
        failures,
        decode_errors: 0,
        fault_counts: Vec::new(),
        cycles,
        retransmitted: units.iter().map(|u| u.stats().retransmitted.get()).sum(),
        fabric_dropped: fab.stats().dropped.get(),
    }
}

/// Runs the workload through the loopback byte transport with every
/// endpoint's frames passing through a [`FaultyTransport`] chaos plane
/// (seeded from `spec.seed`, independent per node). Termination as in
/// [`run_fabric_chaos`].
///
/// Unlike [`run_loopback`], decode errors are *expected* here (that is the
/// checksum trailer doing its job on corrupted frames) and are reported,
/// not asserted away.
///
/// # Panics
///
/// Panics if the run does not quiesce within `spec.max_cycles`.
pub fn run_loopback_chaos(
    spec: &WorkloadSpec,
    latency: u64,
    jitter: u64,
    faults: &WireFaultConfig,
    budget: u32,
) -> ChaosReport {
    run_loopback_chaos_traced(spec, latency, jitter, faults, budget, &TraceHandle::off())
}

/// [`run_loopback_chaos`] with a caller-supplied flight recorder attached
/// to every endpoint (each propagates it to its unit, port, and fault
/// plane), mirroring [`run_fabric_chaos_traced`] on the byte carrier.
///
/// # Panics
///
/// Panics if the run does not quiesce within `spec.max_cycles`.
pub fn run_loopback_chaos_traced(
    spec: &WorkloadSpec,
    latency: u64,
    jitter: u64,
    faults: &WireFaultConfig,
    budget: u32,
    trace: &TraceHandle,
) -> ChaosReport {
    assert!(spec.nodes >= 2, "the permutation needs at least 2 nodes");
    let hub = LoopbackHub::new(spec.nodes, latency).with_jitter(spec.seed, jitter);
    let cfg = chaos_config(spec, budget);
    let mut eps: Vec<WireEndpoint<FaultyTransport<_>>> = (0..spec.nodes)
        .map(|i| {
            let node = NodeId::new(i);
            let mut faulty = FaultyTransport::new(hub.endpoint(node), faults.clone(), spec.seed);
            // The endpoint propagates the recorder to its unit and port,
            // but the fault plane sits *below* the port and needs its own
            // hookup for WireFault events.
            faulty.attach_trace(trace.clone());
            let mut ep = WireEndpoint::new(node, cfg.clone(), faulty);
            ep.attach_trace(trace.clone());
            ep
        })
        .collect();
    let mut feeders: Vec<Feeder> = (0..spec.nodes).map(|i| Feeder::new(spec, i)).collect();
    let mut log = DeliveryLog::new();
    let mut failures = FailureLog::new();
    let mut cycles = 0u64;
    let mut idle_streak = 0u64;
    loop {
        assert!(
            cycles < spec.max_cycles,
            "loopback chaos run never quiesced ({cycles} cycles)"
        );
        for (i, ep) in eps.iter_mut().enumerate() {
            feeders[i].pump(|pkt| ep.try_send(pkt));
            ep.step();
            while let Some(d) = ep.poll() {
                log.entry((d.src.index(), i))
                    .or_default()
                    .push((d.user.msg_id, d.user.pkt_index));
            }
            for f in ep.take_failures() {
                *failures
                    .entry((f.src.index(), f.dst.index()))
                    .or_default()
                    .entry(failure_kind_name(&f.kind))
                    .or_default() += 1;
            }
        }
        hub.tick();
        cycles += 1;
        let quiet = feeders.iter().all(Feeder::done)
            && eps.iter().all(WireEndpoint::is_idle)
            && eps.iter().all(|ep| ep.port().transport().held() == 0)
            && hub.in_flight() == 0;
        if quiet {
            idle_streak += 1;
            if idle_streak >= CHAOS_QUIESCE_GRACE {
                break;
            }
        } else {
            idle_streak = 0;
        }
    }
    let decode_errors = eps.iter().map(|ep| ep.port().decode_errors()).sum();
    let per_node: Vec<&WireFaultStats> =
        eps.iter().map(|ep| ep.port().transport().stats()).collect();
    let fault_counts = nifdy_trace::WireFaultCause::ALL
        .iter()
        .map(|&cause| {
            let n: u64 = per_node.iter().map(|s| s.count(cause)).sum();
            (cause.label(), n)
        })
        .collect();
    ChaosReport {
        log,
        failures,
        decode_errors,
        fault_counts,
        cycles,
        retransmitted: eps.iter().map(|ep| ep.stats().retransmitted.get()).sum(),
        fabric_dropped: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_log_is_send_order() {
        let spec = WorkloadSpec {
            nodes: 4,
            messages: 2,
            packets_per_message: 3,
            ..WorkloadSpec::default()
        };
        let log = spec.expected_log();
        assert_eq!(log.len(), 4, "one entry per pair");
        for ((src, dst), order) in &log {
            assert_eq!(*dst, spec.partner(*src));
            assert_eq!(order.len(), 6);
            assert_eq!(order[0], (spec.msg_id(*src, 0), 0));
            assert_eq!(order[5], (spec.msg_id(*src, 1), 2));
        }
    }

    #[test]
    fn partner_permutation_has_no_fixed_points() {
        for seed in 0..8 {
            let spec = WorkloadSpec {
                nodes: 6,
                seed,
                ..WorkloadSpec::default()
            };
            let mut seen = [false; 6];
            for i in 0..6 {
                let p = spec.partner(i);
                assert_ne!(p, i, "no node talks to itself");
                assert!(!seen[p], "partner map is a permutation");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn mesh_dims_cover_counts() {
        assert_eq!(mesh_dims(4), (2, 2));
        assert_eq!(mesh_dims(6), (2, 3));
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(2), (1, 2));
    }
}
