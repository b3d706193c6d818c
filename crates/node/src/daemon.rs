//! The daemon: N supervised endpoints behind flow-affine shards, driven by
//! a batched poll loop over a handful of carriers.
//!
//! One [`poll_round`](NifdyNode::poll_round) is the daemon's unit of work:
//!
//! 1. deliver frames routed daemon-internally in the previous round;
//! 2. tick each carrier and drain it with **bounded** batch reads (at most
//!    [`NodeConfig::batch`] frames per lane per round, so one busy socket
//!    cannot starve the rest), demultiplexing frames to endpoints by the
//!    destination peeked from the frame header
//!    ([`peek_route`](nifdy_wire::peek_route));
//! 3. tick shards in deterministic order (shard 0 first, slots in insertion
//!    order), collecting deliveries, failures, peer events, and outbound
//!    frames;
//! 4. flush each carrier's accumulated sends with one coalesced
//!    [`send_batch`](nifdy_wire::BatchTransport::send_batch).
//!
//! Routing is static: a destination is either *hosted* (a local endpoint,
//! reached without touching a socket) or *routed* (a `(carrier, via)` pair
//! set by [`set_route`](NifdyNode::set_route), where `via` is the
//! carrier-level address of the process hosting it — the frame bytes still
//! carry the logical destination, which is what the far daemon demuxes on).

use std::collections::VecDeque;

use nifdy::{Delivered, DeliveryFailure, OutboundPacket};
use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId};
use nifdy_trace::{MetricsRegistry, TraceHandle};
use nifdy_wire::{peek_route, BatchTransport, PeerEvent, Supervisor, WireEndpoint};

use crate::config::NodeConfig;
use crate::mux::{shard_of, MuxPort};
use crate::stats::NodeStats;

/// Builds a fresh incarnation of one hosted endpoint (the supervisor calls
/// it on every restart).
type EndpointFactory = Box<dyn FnMut() -> WireEndpoint<MuxPort> + Send>;

/// One hosted logical node.
struct Slot {
    node: NodeId,
    sup: Supervisor<MuxPort, EndpointFactory>,
}

/// One flow-affine partition of the endpoint table.
struct Shard {
    slots: Vec<Slot>,
}

/// A many-endpoint NIFDY daemon: hosts logical nodes behind flow-affine
/// shards and carries their frames over [`BatchTransport`] carriers.
///
/// # Examples
///
/// Two endpoints in one daemon, exchanging a packet without any carrier:
///
/// ```
/// use nifdy::OutboundPacket;
/// use nifdy_node::{NifdyNode, NodeConfig};
/// use nifdy_sim::NodeId;
/// use nifdy_wire::LoopbackTransport;
///
/// let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(NodeConfig::default());
/// node.add_endpoint(NodeId::new(0), vec![]);
/// node.add_endpoint(NodeId::new(1), vec![]);
/// assert!(node.try_send(NodeId::new(0), OutboundPacket::new(NodeId::new(1), 6)));
/// let mut got = None;
/// for _ in 0..64 {
///     node.poll_round();
///     if let Some((dst, d)) = node.next_delivery() {
///         got = Some((dst, d.src));
///         break;
///     }
/// }
/// assert_eq!(got, Some((NodeId::new(1), NodeId::new(0))));
/// ```
pub struct NifdyNode<C: BatchTransport> {
    cfg: NodeConfig,
    shards: Vec<Shard>,
    /// Indexed by logical node id: `(shard, slot-in-shard)` of hosted nodes.
    slot_of: Vec<Option<(usize, usize)>>,
    carriers: Vec<C>,
    /// Indexed by logical destination id: `(carrier index, carrier-level
    /// address)` of routed nodes.
    routes: Vec<Option<(usize, NodeId)>>,
    /// Per-carrier send accumulators, flushed once per round.
    outboxes: Vec<Vec<(NodeId, Lane, Vec<u8>)>>,
    /// Daemon-internal frames delivered at the start of the next round.
    pending_local: Vec<(NodeId, Lane, Vec<u8>)>,
    deliveries: VecDeque<(NodeId, Delivered)>,
    peer_events: Vec<(NodeId, PeerEvent)>,
    failures: Vec<DeliveryFailure>,
    now: Cycle,
    stats: NodeStats,
    metrics: MetricsRegistry,
    /// Reused endpoint-outbound drain buffer.
    scratch: Vec<(NodeId, Lane, Vec<u8>)>,
    /// Reused carrier recv-batch buffer.
    recv_buf: Vec<Vec<u8>>,
    trace: TraceHandle,
}

impl<C: BatchTransport> std::fmt::Debug for NifdyNode<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NifdyNode")
            .field("endpoints", &self.num_endpoints())
            .field("shards", &self.shards.len())
            .field("carriers", &self.carriers.len())
            .field("rounds", &self.stats.rounds)
            .finish_non_exhaustive()
    }
}

impl<C: BatchTransport> NifdyNode<C> {
    /// Creates an empty daemon.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NodeConfig::validate`].
    pub fn new(cfg: NodeConfig) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("invalid node config: {why}");
        }
        let shards = (0..cfg.shards)
            .map(|_| Shard { slots: Vec::new() })
            .collect();
        let stats = NodeStats::new(cfg.shards);
        NifdyNode {
            cfg,
            shards,
            slot_of: Vec::new(),
            carriers: Vec::new(),
            routes: Vec::new(),
            outboxes: Vec::new(),
            pending_local: Vec::new(),
            deliveries: VecDeque::new(),
            peer_events: Vec::new(),
            failures: Vec::new(),
            now: Cycle::ZERO,
            stats,
            metrics: MetricsRegistry::new(),
            scratch: Vec::new(),
            recv_buf: Vec::new(),
            trace: TraceHandle::off(),
        }
    }

    /// Connects every hosted endpoint (current and future incarnations) to
    /// a flight recorder.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        for shard in &mut self.shards {
            for slot in &mut shard.slots {
                slot.sup.attach_trace(trace.clone());
            }
        }
        self.trace = trace;
    }

    /// Hosts logical node `node`, placed in its flow-affine shard
    /// ([`shard_of`]). `watched` lists the peers every incarnation
    /// heartbeats and monitors for liveness.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already hosted.
    pub fn add_endpoint(&mut self, node: NodeId, watched: Vec<NodeId>) {
        assert!(self.hosted(node).is_none(), "node {node} already hosted");
        let s = shard_of(node, self.cfg.shards);
        let protocol = self.cfg.protocol.clone();
        let factory: EndpointFactory =
            Box::new(move || WireEndpoint::new(node, protocol.clone(), MuxPort::new(node)));
        let mut sup = Supervisor::with_starting_epoch(
            self.cfg.supervisor,
            watched,
            factory,
            self.cfg.seed,
            self.cfg.initial_epoch,
        );
        sup.attach_trace(self.trace.clone());
        let slot_idx = self.shards[s].slots.len();
        self.shards[s].slots.push(Slot { node, sup });
        set_dense(&mut self.slot_of, node, (s, slot_idx));
    }

    /// Attaches a carrier, returning its index for [`set_route`](Self::set_route).
    pub fn add_carrier(&mut self, carrier: C) -> usize {
        self.carriers.push(carrier);
        self.outboxes.push(Vec::new());
        self.carriers.len() - 1
    }

    /// Routes frames for logical destination `dst` out of carrier `carrier`
    /// to the carrier-level address `via` (the process hosting `dst`).
    ///
    /// # Panics
    ///
    /// Panics if `carrier` is out of range.
    pub fn set_route(&mut self, dst: NodeId, carrier: usize, via: NodeId) {
        assert!(
            carrier < self.carriers.len(),
            "carrier {carrier} not attached"
        );
        set_dense(&mut self.routes, dst, (carrier, via));
    }

    /// Hosted logical nodes, in id order.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|(_, at)| at.is_some())
            .map(|(i, _)| NodeId::new(i))
    }

    /// Number of hosted logical nodes.
    pub fn num_endpoints(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// The daemon's round counter (one per [`poll_round`](Self::poll_round)).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether `node`'s current incarnation is running.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(node).sup.is_up()
    }

    /// `node`'s running supervised endpoint, if up (counter inspection).
    pub fn supervised(&self, node: NodeId) -> Option<&nifdy_wire::SupervisedEndpoint<MuxPort>> {
        self.slot(node).sup.endpoint()
    }

    /// Completed supervisor restarts of `node`.
    pub fn restarts(&self, node: NodeId) -> u32 {
        self.slot(node).sup.restarts()
    }

    /// The epoch `node`'s current (or most recent) incarnation announces.
    pub fn epoch(&self, node: NodeId) -> u32 {
        self.slot(node).sup.epoch()
    }

    /// Simulates a crash of `node`: its incarnation and all protocol state
    /// drop on the floor; the supervisor restarts it (next epoch) after the
    /// configured backoff.
    pub fn kill(&mut self, node: NodeId) {
        let now = self.now;
        self.slot_mut(node).sup.kill(now);
    }

    /// Hands an outbound packet to `src`'s interface; `false` means the
    /// buffer pool is full (retry later) or the endpoint is down.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not hosted.
    pub fn try_send(&mut self, src: NodeId, pkt: OutboundPacket) -> bool {
        match self.slot_mut(src).sup.endpoint_mut() {
            Some(sup_ep) => sup_ep.endpoint_mut().try_send(pkt),
            None => false,
        }
    }

    /// Removes the next delivered packet as `(receiving node, delivery)`,
    /// in the order the shard pass observed them.
    pub fn next_delivery(&mut self) -> Option<(NodeId, Delivered)> {
        self.deliveries.pop_front()
    }

    /// Drains typed delivery failures surfaced since the last call.
    pub fn take_failures(&mut self) -> Vec<DeliveryFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Drains `(observing node, event)` liveness transitions since the last
    /// call.
    pub fn take_peer_events(&mut self) -> Vec<(NodeId, PeerEvent)> {
        std::mem::take(&mut self.peer_events)
    }

    /// Daemon counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Batch-size histograms (`node.recv_batch`, `node.send_batch`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Carrier `i`, mutably — the place to read transport-specific counters
    /// (e.g. [`UdpTransport::take_error`](nifdy_wire::UdpTransport::take_error)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn carrier_mut(&mut self, i: usize) -> &mut C {
        &mut self.carriers[i]
    }

    /// True when every running endpoint is idle and no frames wait in the
    /// daemon's own queues (pending local routes, outboxes, undrained
    /// deliveries). Frames inside a carrier are invisible here — ask the
    /// carrier, exactly as for [`WireEndpoint::is_idle`].
    pub fn is_idle(&self) -> bool {
        self.pending_local.is_empty()
            && self.deliveries.is_empty()
            && self.outboxes.iter().all(Vec::is_empty)
            && self.shards.iter().all(|shard| {
                shard.slots.iter().all(|slot| match slot.sup.endpoint() {
                    Some(sup_ep) => sup_ep.endpoint().is_idle(),
                    None => true,
                })
            })
    }

    /// One round of daemon work; see the module docs for the four phases.
    pub fn poll_round(&mut self) {
        let now = self.now;

        // Phase 1: frames routed daemon-internally last round. The buffer
        // goes back afterwards so its allocation serves the next round.
        let mut local = std::mem::take(&mut self.pending_local);
        for (dst, lane, frame) in local.drain(..) {
            self.deliver_frame(dst, lane, frame);
        }
        self.pending_local = local;

        // Phase 2: bounded batch drain of every carrier lane.
        for c in 0..self.carriers.len() {
            self.carriers[c].tick();
            for lane in Lane::ALL {
                let mut buf = std::mem::take(&mut self.recv_buf);
                let n = self.carriers[c].recv_batch(lane, self.cfg.batch, &mut buf);
                if n > 0 {
                    self.metrics.record("node.recv_batch", n as u64);
                }
                for frame in buf.drain(..) {
                    match peek_route(&frame) {
                        Some((dst, frame_lane)) => self.deliver_frame(dst, frame_lane, frame),
                        None => self.stats.foreign += 1,
                    }
                }
                self.recv_buf = buf;
            }
        }

        // Phase 3: tick shards in deterministic order.
        let mut scratch = std::mem::take(&mut self.scratch);
        for s in 0..self.shards.len() {
            for i in 0..self.shards[s].slots.len() {
                {
                    let slot = &mut self.shards[s].slots[i];
                    slot.sup.step(now);
                    let node = slot.node;
                    if let Some(sup_ep) = slot.sup.endpoint_mut() {
                        for ev in sup_ep.take_peer_events() {
                            self.peer_events.push((node, ev));
                        }
                        let ep = sup_ep.endpoint_mut();
                        while let Some(d) = ep.poll() {
                            self.deliveries.push_back((node, d));
                            self.stats.delivered += 1;
                            self.stats.shards[s].delivered += 1;
                        }
                        for f in ep.take_failures() {
                            self.failures.push(f);
                            self.stats.shards[s].failures += 1;
                        }
                        ep.transport_mut().take_outbound_into(&mut scratch);
                    }
                }
                for (dst, lane, frame) in scratch.drain(..) {
                    self.route_outbound(s, dst, lane, frame);
                }
            }
        }
        self.scratch = scratch;

        // Phase 4: one coalesced flush per carrier.
        for c in 0..self.carriers.len() {
            let batch = &mut self.outboxes[c];
            if !batch.is_empty() {
                self.metrics.record("node.send_batch", batch.len() as u64);
            }
            self.carriers[c].send_batch(batch);
        }

        self.now += 1;
        self.stats.rounds += 1;
    }

    /// Demultiplexes one frame to its hosted endpoint.
    fn deliver_frame(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        match self.hosted(dst) {
            Some((s, i)) => match self.shards[s].slots[i].sup.endpoint_mut() {
                Some(sup_ep) => {
                    sup_ep
                        .endpoint_mut()
                        .transport_mut()
                        .push_inbound(lane, frame);
                    self.stats.frames_in += 1;
                    self.stats.shards[s].frames_in += 1;
                }
                None => self.stats.dropped_down += 1,
            },
            None => self.stats.unroutable += 1,
        }
    }

    /// Routes one endpoint-emitted frame: hosted destinations loop back
    /// daemon-internally, routed ones join their carrier's outbox.
    fn route_outbound(&mut self, from_shard: usize, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        if self.hosted(dst).is_some() {
            self.pending_local.push((dst, lane, frame));
            self.stats.local_frames += 1;
        } else if let Some(&Some((c, via))) = self.routes.get(dst.index()) {
            self.outboxes[c].push((via, lane, frame));
            self.stats.frames_out += 1;
            self.stats.shards[from_shard].frames_out += 1;
        } else {
            self.stats.unroutable += 1;
        }
    }

    /// `(shard, slot-in-shard)` of `node`, if hosted. Ids come from frame
    /// headers, so an id past the table is simply not hosted.
    fn hosted(&self, node: NodeId) -> Option<(usize, usize)> {
        self.slot_of.get(node.index()).copied().flatten()
    }

    fn slot(&self, node: NodeId) -> &Slot {
        let (s, i) = self
            .hosted(node)
            .unwrap_or_else(|| panic!("node {node} not hosted"));
        &self.shards[s].slots[i]
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut Slot {
        let (s, i) = self
            .hosted(node)
            .unwrap_or_else(|| panic!("node {node} not hosted"));
        &mut self.shards[s].slots[i]
    }
}

/// Sets `table[id] = value`, growing the id-indexed table as needed.
fn set_dense<T: Copy>(table: &mut Vec<Option<T>>, id: NodeId, value: T) {
    if table.len() <= id.index() {
        table.resize(id.index() + 1, None);
    }
    table[id.index()] = Some(value);
}

#[cfg(test)]
mod tests {
    use nifdy_net::UserData;
    use nifdy_wire::LoopbackTransport;

    use super::*;

    fn daemon(nodes: usize) -> NifdyNode<LoopbackTransport> {
        let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(NodeConfig::default());
        for i in 0..nodes {
            node.add_endpoint(NodeId::new(i), vec![]);
        }
        node
    }

    #[test]
    fn local_scalar_delivery_round_trips() {
        let mut node = daemon(2);
        let user = UserData {
            msg_id: 5,
            pkt_index: 0,
            msg_packets: 1,
            user_words: 4,
        };
        assert!(node.try_send(
            NodeId::new(0),
            OutboundPacket::new(NodeId::new(1), 6).with_user(user)
        ));
        let mut got = None;
        for _ in 0..64 {
            node.poll_round();
            if let Some((dst, d)) = node.next_delivery() {
                got = Some((dst, d));
                break;
            }
        }
        let (dst, d) = got.expect("delivered");
        assert_eq!(dst, NodeId::new(1));
        assert_eq!(d.src, NodeId::new(0));
        assert_eq!(d.user, user);
        assert!(node.stats().local_frames > 0, "routing stayed internal");
        assert_eq!(node.stats().frames_out, 0, "no carrier involved");
    }

    #[test]
    fn frames_demux_into_the_destination_shard_only() {
        let mut node = daemon(8);
        for src in 0..8usize {
            let dst = (src + 1) % 8;
            assert!(node.try_send(NodeId::new(src), OutboundPacket::new(NodeId::new(dst), 6)));
        }
        let mut delivered = 0;
        for _ in 0..256 {
            node.poll_round();
            while node.next_delivery().is_some() {
                delivered += 1;
            }
            if delivered == 8 && node.is_idle() {
                break;
            }
        }
        assert_eq!(delivered, 8);
        // Every frame landed in the shard that owns its destination: the
        // per-shard delivered counts must match the shard placement of the
        // eight destinations.
        let mut want = vec![0u64; node.cfg.shards];
        for dst in 0..8usize {
            want[shard_of(NodeId::new(dst), node.cfg.shards)] += 1;
        }
        let got: Vec<u64> = node.stats().shards.iter().map(|s| s.delivered).collect();
        assert_eq!(got, want, "delivery shard != flow-affine owner");
    }

    #[test]
    fn down_endpoints_drop_frames_and_refuse_sends() {
        let mut node = daemon(2);
        node.kill(NodeId::new(1));
        assert!(!node.is_up(NodeId::new(1)));
        assert!(
            !node.try_send(NodeId::new(1), OutboundPacket::new(NodeId::new(0), 6)),
            "down endpoint refuses work"
        );
        assert!(node.try_send(NodeId::new(0), OutboundPacket::new(NodeId::new(1), 6)));
        for _ in 0..4 {
            node.poll_round();
        }
        assert!(
            node.stats().dropped_down > 0,
            "frames for the dead node dropped"
        );
    }

    #[test]
    fn unroutable_frames_are_counted() {
        let mut node = daemon(1);
        // Node 0 sends to node 7, which is neither hosted nor routed.
        assert!(node.try_send(NodeId::new(0), OutboundPacket::new(NodeId::new(7), 6)));
        for _ in 0..8 {
            node.poll_round();
        }
        assert!(node.stats().unroutable > 0);
    }
}
