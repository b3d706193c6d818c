//! The flit-level network fabric.
//!
//! A [`Fabric`] instantiates a [`Topology`](crate::topology::Topology) as a
//! set of routers with per-input-port virtual-channel buffers, credit-based
//! link-level flow control, and per-link flit serialization, stepped one
//! cycle at a time. Network interfaces interact with the fabric only at the
//! edges: [`Fabric::can_inject`]/[`Fabric::inject`] on the way in and
//! [`Fabric::eject`] on the way out. If a node does not drain its ejection
//! queue, flits back up into the routers — exactly the *secondary blocking*
//! the NIFDY protocol is designed to avoid.

use std::collections::VecDeque;

use nifdy_sim::metrics::{Counter, LogHistogram, Stats};

use nifdy_sim::{Cycle, NodeId, SimRng, Slab, SlabKey};
use nifdy_trace::{trace_event, DropReason, EventKind, TraceHandle};

use crate::config::{FabricConfig, SwitchingPolicy};
use crate::fault::{DropCause, FaultPlane};
use crate::packet::{Lane, Packet};
use crate::topology::{Candidate, Endpoint, RouteState, Topology, VcSel};

/// Worms live in a generational [`Slab`]: flits carry the key, stale keys
/// are detected instead of aliasing a recycled slot, and the steady state
/// recycles freed slots without allocating.
type WormId = SlabKey;

/// A packet in flight, with its routing state.
#[derive(Debug)]
struct Worm {
    packet: Packet,
    route: RouteState,
    flits: u16,
}

/// One flit of a worm. `idx == 0` is the head; `idx == flits - 1` the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flit {
    worm: WormId,
    idx: u16,
}

/// State of one virtual channel at a router input port.
#[derive(Debug, Default)]
struct VcState {
    /// Buffered flits with their arrival cycles (a flit may be forwarded
    /// only on a later cycle, giving each router a one-cycle pipeline).
    buf: VecDeque<(Flit, Cycle)>,
    /// Output (port, vc) held by the worm currently traversing this VC.
    alloc: Option<(u8, u8)>,
    /// Cached route-candidate port mask for the unrouted head of `worm`
    /// waiting at the front of `buf`. Routing depends only on the worm's
    /// static route state, so the set of ports that may claim the head is
    /// stable while it waits — it is computed once, when the head reaches
    /// the front, and recorded here so releasing the head on commit can
    /// clear exactly the port bitsets it was distributed into.
    cand_ports: Option<(WormId, u64)>,
}

/// Who refills credit when this input VC pops a flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feeder {
    Router { router: u32, port: u8 },
    Node(u32),
    None,
}

#[derive(Debug)]
struct InPort {
    vcs: Vec<VcState>,
    feeder: Feeder,
}

#[derive(Debug)]
struct OutPort {
    dest: Endpoint,
    /// Free flit slots per downstream VC.
    credits: Vec<u16>,
    /// Worm currently owning each downstream VC (wormhole allocation).
    owner: Vec<Option<WormId>>,
    /// Flit on the wire per lane: (flit, downstream vc, cycles remaining).
    /// The two logical networks interleave on the physical link: strictly
    /// by cycle parity when time-multiplexed (CM-5), on demand otherwise.
    in_flight: [Option<(Flit, u8, u16)>; 2],
    /// Round-robin cursor over (in_port, vc) pairs.
    rr: u32,
    /// Demand-multiplex fairness cursor between the lanes.
    mux_rr: u8,
}

/// Holder-table entry for an output VC no input slot holds.
const NO_SLOT: u32 = u32::MAX;

/// A router with its arbitration state. Input slots `(in_port, vc)` are
/// numbered `ip * total_vcs + vc`; the per-port slot bitsets below are
/// stored flat, `words` u64s per output port.
///
/// Arbitration visits only slots that can move a flit. A buffered slot is
/// in exactly one state per output port `p`:
///
/// * **candidate** (`cands`): a worm routed to `p` whose downstream VC has
///   credit, or an unrouted head with `p` on its route that has not failed
///   allocation on `p` since the last event that could change the outcome;
/// * **head-parked** (`parked`): an unrouted head whose VC allocation on
///   `p` failed. All of `p`'s parked heads re-enter together on a credit
///   returned to `p`, a VC of `p` released, or the node behind `p`
///   draining its ejection queue; a flit joining the head's own buffer
///   re-enters it on every port (store-and-forward waits for the tail);
/// * **credit-parked**: a worm routed to `p` whose downstream VC has no
///   credit — in no set, found again through `holder` when credit returns;
/// * absent, when `p` is not the slot's allocated port or on its route.
#[derive(Debug)]
struct Router {
    ins: Vec<InPort>,
    outs: Vec<OutPort>,
    /// Words per slot bitset.
    words: usize,
    /// Candidate slots per output port.
    cands: Vec<u64>,
    /// Heads parked per output port after a failed VC allocation.
    parked: Vec<u64>,
    /// Input slot holding each output VC (`p * total_vcs + vc`), or
    /// [`NO_SLOT`]: set on the head's commit, cleared on the tail's.
    holder: Vec<u32>,
    /// Constant mask per lane: bit set iff the slot's VC belongs to that
    /// lane, folding the `lane_vc_range` filter into the word scan.
    lane_mask: [Vec<u64>; 2],
    /// Per lane, bit `p` set iff output port `p` has a flit on that wire.
    wires: [u64; 2],
    /// Per lane, bit `p` set iff `p`'s candidate set holds a slot of that
    /// lane.
    live: [u64; 2],
}

impl Router {
    #[inline]
    fn port_words(&self, p: usize) -> std::ops::Range<usize> {
        p * self.words..(p + 1) * self.words
    }

    /// The lane of slot `slot`'s VC.
    #[inline]
    fn slot_lane(&self, slot: usize) -> usize {
        usize::from(test_bit(&self.lane_mask[1], slot))
    }

    /// Whether port `p`'s candidate set holds any slot of `lane`.
    #[inline]
    fn has_cands(&self, p: usize, lane: usize) -> bool {
        self.cands[self.port_words(p)]
            .iter()
            .zip(&self.lane_mask[lane])
            .any(|(c, m)| c & m != 0)
    }

    #[inline]
    fn add_cand(&mut self, p: usize, slot: usize) {
        let words = self.port_words(p);
        set_bit(&mut self.cands[words], slot);
        self.live[self.slot_lane(slot)] |= 1u64 << p;
    }

    #[inline]
    fn remove_cand(&mut self, p: usize, slot: usize) {
        let words = self.port_words(p);
        clear_bit(&mut self.cands[words], slot);
        let lane = self.slot_lane(slot);
        if !self.has_cands(p, lane) {
            self.live[lane] &= !(1u64 << p);
        }
    }

    /// Moves a head whose VC allocation on `p` failed out of `p`'s
    /// candidate set until a wake event on `p`.
    #[inline]
    fn park(&mut self, p: usize, slot: usize) {
        self.remove_cand(p, slot);
        let words = self.port_words(p);
        set_bit(&mut self.parked[words], slot);
    }

    /// Returns every head parked on `p` to its candidate set: something
    /// their allocation depends on (credit, a free VC, ejection room) may
    /// have changed.
    #[inline]
    fn wake_parked(&mut self, p: usize) {
        for w in 0..self.words {
            let i = p * self.words + w;
            let bits = std::mem::take(&mut self.parked[i]);
            if bits == 0 {
                continue;
            }
            self.cands[i] |= bits;
            for lane in 0..2 {
                if bits & self.lane_mask[lane][w] != 0 {
                    self.live[lane] |= 1u64 << p;
                }
            }
        }
    }

    /// Enters `slot` into port `p`'s candidate set and out of its parked
    /// set (a head being re-resolved).
    #[inline]
    fn unpark(&mut self, p: usize, slot: usize) {
        let words = self.port_words(p);
        clear_bit(&mut self.parked[words], slot);
        self.add_cand(p, slot);
    }

    /// Withdraws `slot` from port `p` entirely (a head committed elsewhere).
    #[inline]
    fn withdraw(&mut self, p: usize, slot: usize) {
        let words = self.port_words(p);
        clear_bit(&mut self.parked[words], slot);
        self.remove_cand(p, slot);
    }

    /// Puts the routed slot `slot`, allocated `(p, dvc)`, in `p`'s
    /// candidate set iff it can send: a flit is buffered and the
    /// downstream VC has credit.
    #[inline]
    fn sync_routed(&mut self, p: usize, dvc: usize, slot: usize, ip: usize, vc: usize) {
        if !self.ins[ip].vcs[vc].buf.is_empty() && self.outs[p].credits[dvc] > 0 {
            self.add_cand(p, slot);
        } else {
            self.remove_cand(p, slot);
        }
    }

    /// Returns `n` flit slots of downstream VC `dvc` to output port `p`:
    /// un-parks the worm holding that VC, or, if no worm owns it, wakes
    /// `p`'s parked heads (a head allocates only an unowned VC, so credit
    /// on an owned one cannot change its outcome before the release, which
    /// wakes them itself).
    fn return_credits(&mut self, p: usize, dvc: usize, n: u16, total_vcs: usize) {
        self.outs[p].credits[dvc] += n;
        let holder = self.holder[p * total_vcs + dvc];
        if holder != NO_SLOT {
            let slot = holder as usize;
            self.sync_routed(p, dvc, slot, slot / total_vcs, slot % total_vcs);
        }
        if self.outs[p].owner[dvc].is_none() {
            self.wake_parked(p);
        }
    }

    /// Output ports with a free wire and a candidate on `lane`.
    #[inline]
    fn ready_on(&self, lane: usize) -> u64 {
        self.live[lane] & !self.wires[lane]
    }

    /// Output ports in `from..to` ready on some lane, as a bitmask.
    #[inline]
    fn ready_ports(&self, from: usize, to: usize) -> u64 {
        if from >= to {
            return 0;
        }
        let below = if to >= 64 { !0 } else { (1u64 << to) - 1 };
        (self.ready_on(0) | self.ready_on(1)) & below & (!0u64 << from)
    }
}

#[inline]
fn test_bit(bits: &[u64], slot: usize) -> bool {
    bits.get(slot / 64)
        .is_some_and(|w| w & (1u64 << (slot % 64)) != 0)
}

#[inline]
fn set_bit(bits: &mut [u64], slot: usize) {
    if let Some(w) = bits.get_mut(slot / 64) {
        *w |= 1u64 << (slot % 64);
    }
}

#[inline]
fn clear_bit(bits: &mut [u64], slot: usize) {
    if let Some(w) = bits.get_mut(slot / 64) {
        *w &= !(1u64 << (slot % 64));
    }
}

/// Per-lane injection slot at a node.
#[derive(Debug)]
struct InjSlot {
    worm: WormId,
    next_flit: u16,
    vc: Option<u8>,
}

/// Node-side interface state: injection serializer and ejection assembly.
#[derive(Debug)]
struct NodeIface {
    inj_router: u32,
    inj_port: u8,
    /// The router output port that ejects to this node.
    ej_router: u32,
    ej_port: u8,
    /// Credit mirror for the attached input port's VCs.
    inj_credits: Vec<u16>,
    inj_owner: Vec<Option<WormId>>,
    slots: [Option<InjSlot>; 2],
    /// Flit being serialized onto the injection channel, per lane.
    in_flight: [Option<(Flit, u8, u16)>; 2],
    /// Demand-multiplex fairness cursor between the lanes.
    lane_rr: u8,
    /// Fully assembled packets awaiting [`Fabric::eject`], per lane.
    ready: [VecDeque<Packet>; 2],
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Packets injected, per lane.
    pub injected: [Counter; 2],
    /// Packets fully delivered to ejection queues, per lane.
    pub delivered: [Counter; 2],
    /// Packets dropped at the edge, all causes combined (legacy uniform
    /// lottery plus every fault-plane model).
    pub dropped: Counter,
    /// Drops by the legacy uniform lottery
    /// ([`FabricConfig::drop_prob`](crate::FabricConfig::drop_prob)).
    pub dropped_uniform: Counter,
    /// Fault-plane drops of data (request-lane) packets by uniform lane loss.
    pub dropped_data: Counter,
    /// Fault-plane drops of ack (reply-lane) packets by uniform lane loss.
    pub dropped_ack: Counter,
    /// Fault-plane drops by the Gilbert–Elliott burst chain.
    pub dropped_burst: Counter,
    /// Fault-plane drops by scheduled link-down windows.
    pub dropped_link_down: Counter,
    /// Fault-plane drops by per-destination targeted loss.
    pub dropped_targeted: Counter,
    /// Injection-to-delivery latency of request-lane packets, in cycles.
    pub latency: Stats,
    /// Log-bucketed latency histogram of request-lane packets (quantile
    /// estimation: p50/p90/p99/p999).
    pub latency_hist: LogHistogram,
}

impl FabricStats {
    fn count_fault_drop(&mut self, cause: DropCause) {
        self.dropped.incr();
        match cause {
            DropCause::Data => self.dropped_data.incr(),
            DropCause::Ack => self.dropped_ack.incr(),
            DropCause::Burst => self.dropped_burst.incr(),
            DropCause::LinkDown => self.dropped_link_down.incr(),
            DropCause::Targeted => self.dropped_targeted.incr(),
        }
    }

    /// The drop counter matching a trace [`DropReason`], for counter/event
    /// parity checks.
    pub fn dropped_by_reason(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::Uniform => self.dropped_uniform.get(),
            DropReason::Data => self.dropped_data.get(),
            DropReason::Ack => self.dropped_ack.get(),
            DropReason::Burst => self.dropped_burst.get(),
            DropReason::LinkDown => self.dropped_link_down.get(),
            DropReason::Targeted => self.dropped_targeted.get(),
        }
    }
}

/// The trace-layer mirror of a fault-plane [`DropCause`].
impl From<DropCause> for DropReason {
    fn from(cause: DropCause) -> DropReason {
        match cause {
            DropCause::Data => DropReason::Data,
            DropCause::Ack => DropReason::Ack,
            DropCause::Burst => DropReason::Burst,
            DropCause::LinkDown => DropReason::LinkDown,
            DropCause::Targeted => DropReason::Targeted,
        }
    }
}

/// A simulated interconnection network.
///
/// # Examples
///
/// Injecting a packet and stepping until it pops out the other side:
///
/// ```
/// use nifdy_net::topology::Mesh;
/// use nifdy_net::{Fabric, FabricConfig, Lane, Packet};
/// use nifdy_sim::{NodeId, PacketId};
///
/// let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
/// let (src, dst) = (NodeId::new(0), NodeId::new(15));
/// assert!(fab.can_inject(src, Lane::Request));
/// fab.inject(src, Packet::data(PacketId::new(1), src, dst, 8));
/// let pkt = loop {
///     fab.step();
///     if let Some(p) = fab.eject(dst, Lane::Request) {
///         break p;
///     }
///     assert!(fab.now().as_u64() < 10_000, "packet lost");
/// };
/// assert_eq!(pkt.src, src);
/// ```
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    topo: Box<dyn Topology>,
    routers: Vec<Router>,
    nodes: Vec<NodeIface>,
    arena: Slab<Worm>,
    /// Packets sitting in ejection queues, summed over nodes and lanes —
    /// kept incrementally so [`Fabric::in_network`] is O(1).
    ready_total: usize,
    /// Injection slots currently holding a worm, summed over nodes and
    /// lanes — lets the injection phases skip entirely when no node is
    /// sending.
    inj_active: u32,
    now: Cycle,
    rng: SimRng,
    faults: FaultPlane,
    trace: TraceHandle,
    stats: FabricStats,
    pending_per_dst: Vec<u32>,
    route_buf: Vec<Candidate>,
}

impl Fabric {
    /// Builds a fabric over `topo` with configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FabricConfig::validate`] or provides fewer
    /// virtual channels than the topology requires for deadlock freedom.
    pub fn new(topo: Box<dyn Topology>, cfg: FabricConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fabric config: {e}");
        }
        assert!(
            cfg.vcs_per_lane >= topo.min_vcs_per_lane(),
            "{} requires at least {} VCs per lane",
            topo.name(),
            topo.min_vcs_per_lane()
        );
        let spec = topo.spec();
        let total_vcs = cfg.total_vcs();

        // Build routers with empty ports, then wire feeders from links.
        let mut routers: Vec<Router> = spec
            .routers
            .iter()
            .map(|r| {
                let slots = r.in_ports as usize * total_vcs;
                let words = slots.div_ceil(64);
                let lane_mask = [0usize, 1].map(|lane| {
                    let per = cfg.vcs_per_lane as usize;
                    let range = lane * per..(lane + 1) * per;
                    let mut mask = vec![0u64; words];
                    for s in (0..slots).filter(|s| range.contains(&(s % total_vcs))) {
                        set_bit(&mut mask, s);
                    }
                    mask
                });
                assert!(
                    r.links.len() <= 64,
                    "router out-degree above 64 is unsupported by the \
                     candidate-port bitmask"
                );
                Router {
                    words,
                    cands: vec![0; r.links.len() * words],
                    parked: vec![0; r.links.len() * words],
                    holder: vec![NO_SLOT; r.links.len() * total_vcs],
                    lane_mask,
                    wires: [0, 0],
                    live: [0, 0],
                    ins: (0..r.in_ports)
                        .map(|_| InPort {
                            vcs: (0..total_vcs).map(|_| VcState::default()).collect(),
                            feeder: Feeder::None,
                        })
                        .collect(),
                    outs: r
                        .links
                        .iter()
                        .map(|&dest| {
                            let cap = match dest {
                                Endpoint::Router { .. } => cfg.vc_buf_flits,
                                Endpoint::Node(_) => cfg.max_packet_flits,
                            };
                            OutPort {
                                dest,
                                credits: vec![cap; total_vcs],
                                owner: vec![None; total_vcs],
                                in_flight: [None, None],
                                rr: 0,
                                mux_rr: 0,
                            }
                        })
                        .collect(),
                }
            })
            .collect();

        for (r, rspec) in spec.routers.iter().enumerate() {
            for (p, &link) in rspec.links.iter().enumerate() {
                if let Endpoint::Router { router, in_port } = link {
                    routers[router as usize].ins[in_port as usize].feeder = Feeder::Router {
                        router: r as u32,
                        port: p as u8,
                    };
                }
            }
        }

        let nodes: Vec<NodeIface> = spec
            .attaches
            .iter()
            .map(|at| {
                routers[at.inj_router as usize].ins[at.inj_port as usize].feeder =
                    Feeder::Node(u32::MAX); // set below
                NodeIface {
                    inj_router: at.inj_router,
                    inj_port: at.inj_port,
                    ej_router: at.ej_router,
                    ej_port: at.ej_port,
                    inj_credits: vec![cfg.vc_buf_flits; total_vcs],
                    inj_owner: vec![None; total_vcs],
                    slots: [None, None],
                    in_flight: [None, None],
                    lane_rr: 0,
                    ready: [VecDeque::new(), VecDeque::new()],
                }
            })
            .collect();
        for (n, at) in spec.attaches.iter().enumerate() {
            routers[at.inj_router as usize].ins[at.inj_port as usize].feeder =
                Feeder::Node(n as u32);
        }

        let num_nodes = topo.num_nodes();
        let seed = cfg.seed;
        let faults = FaultPlane::new(cfg.fault.clone(), seed);
        Fabric {
            cfg,
            topo,
            routers,
            nodes,
            arena: Slab::with_capacity(num_nodes * 2),
            ready_total: 0,
            inj_active: 0,
            now: Cycle::ZERO,
            rng: SimRng::from_seed_stream(seed, 0xFAB),
            faults,
            trace: TraceHandle::off(),
            stats: FabricStats::default(),
            pending_per_dst: vec![0; num_nodes],
            route_buf: Vec::with_capacity(8),
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of attached nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// The topology this fabric instantiates.
    #[inline]
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The configuration this fabric was built with.
    #[inline]
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Aggregate statistics so far.
    #[inline]
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The fault-injection plane (for inspecting burst state or scheduled
    /// outages).
    #[inline]
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.faults
    }

    /// Connects the fabric to a flight recorder: edge drops (with their
    /// cause) and completed deliveries (with their latency) are logged as
    /// [`EventKind::Drop`] / [`EventKind::Deliver`] events on the receiving
    /// node's track.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Number of packets currently inside the fabric (including ejection
    /// queues not yet drained).
    #[inline]
    pub fn in_network(&self) -> usize {
        self.arena.len() + self.ready_total
    }

    /// Packets waiting in `node`'s ejection queues, both lanes — the
    /// "new input pending" signal a driver needs before it may skip
    /// stepping that node's interface.
    #[inline]
    pub fn ready_len(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.index()];
        n.ready[0].len() + n.ready[1].len()
    }

    /// Packets currently bound for (or queued at) `dst` — the Figure 5
    /// "pending packets per receiver" gauge.
    #[inline]
    pub fn pending_for(&self, dst: NodeId) -> u32 {
        self.pending_per_dst[dst.index()]
    }

    /// Whether node `node` can hand the fabric a new packet on `lane` this
    /// cycle (its injection slot for that lane is free).
    #[inline]
    pub fn can_inject(&self, node: NodeId, lane: Lane) -> bool {
        self.nodes[node.index()].slots[lane.index()].is_none()
    }

    /// Starts injecting `packet` from `node`.
    ///
    /// The packet's `stamp.injected` is set to the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if the lane's injection slot is busy (check
    /// [`Fabric::can_inject`] first), if the packet is larger than the
    /// configured maximum, or if `node` is not the packet's source.
    pub fn inject(&mut self, node: NodeId, mut packet: Packet) {
        assert_eq!(packet.src, node, "packet injected at a foreign node");
        assert!(
            packet.flits() <= self.cfg.max_packet_flits,
            "packet of {} flits exceeds configured max {}",
            packet.flits(),
            self.cfg.max_packet_flits
        );
        let lane = packet.lane;
        assert!(
            self.can_inject(node, lane),
            "injection slot busy at {node} lane {lane:?}"
        );
        packet.stamp.injected = self.now;
        self.stats.injected[lane.index()].incr();
        self.pending_per_dst[packet.dst.index()] += 1;
        let route = self.topo.init_route(packet.src, packet.dst);
        let flits = packet.flits();
        let worm = self.arena.insert(Worm {
            packet,
            route,
            flits,
        });
        self.nodes[node.index()].slots[lane.index()] = Some(InjSlot {
            worm,
            next_flit: 0,
            vc: None,
        });
        self.inj_active += 1;
    }

    /// Removes and returns the oldest fully delivered packet at `node` on
    /// `lane`, if any.
    pub fn eject(&mut self, node: NodeId, lane: Lane) -> Option<Packet> {
        let iface = &mut self.nodes[node.index()];
        let pkt = iface.ready[lane.index()].pop_front();
        if pkt.is_some() {
            self.ready_total -= 1;
            // Ejection room opened: heads parked on the port feeding this
            // node may now allocate.
            let (r, p) = (iface.ej_router as usize, iface.ej_port as usize);
            self.routers[r].wake_parked(p);
        }
        pkt
    }

    /// Peeks at the oldest delivered packet without removing it.
    pub fn peek_eject(&self, node: NodeId, lane: Lane) -> Option<&Packet> {
        self.nodes[node.index()].ready[lane.index()].front()
    }

    #[inline]
    fn lane_vc_range(&self, lane: Lane) -> std::ops::Range<usize> {
        let per = self.cfg.vcs_per_lane as usize;
        let base = lane.index() * per;
        base..base + per
    }

    /// First slot in `from..limit` in output port `p`'s candidate set on
    /// `lane` (router `r`).
    #[inline]
    fn next_candidate(
        &self,
        r: usize,
        p: usize,
        lane: Lane,
        from: usize,
        limit: usize,
    ) -> Option<usize> {
        let rt = &self.routers[r];
        let cands = &rt.cands[rt.port_words(p)];
        let mask = &rt.lane_mask[lane.index()];
        let word =
            |w: usize| cands.get(w).copied().unwrap_or(0) & mask.get(w).copied().unwrap_or(0);
        let mut w = from / 64;
        let mut bits = word(w) & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                return (s < limit).then_some(s);
            }
            w += 1;
            if w * 64 >= limit {
                return None;
            }
            bits = word(w);
        }
    }

    /// Total flits of the worm behind `id`. Defensive zero for a stale key
    /// (a live datapath never produces one).
    #[inline]
    fn worm_flits(&self, id: WormId) -> u16 {
        debug_assert!(self.arena.get(id).is_some(), "stale worm key");
        self.arena.get(id).map_or(0, |w| w.flits)
    }

    /// Flit slots a head must see downstream before advancing, per policy.
    #[inline]
    fn head_credit_need(&self, worm_flits: u16) -> u16 {
        match self.cfg.policy {
            SwitchingPolicy::Wormhole => 1,
            SwitchingPolicy::CutThrough | SwitchingPolicy::StoreAndForward => worm_flits,
        }
    }

    /// Advances the fabric by one cycle.
    pub fn step(&mut self) {
        // With no worm in flight every phase below is a no-op: no flit is
        // buffered, serializing, or awaiting arbitration (ejection queues
        // are drained by the NICs, not by stepping). Skip straight to the
        // clock tick.
        if self.arena.is_empty() {
            self.now += 1;
            return;
        }
        self.progress_wires();
        self.start_router_transmissions();
        self.progress_injection();
        self.now += 1;
    }

    /// Which lane's wire slot advances this cycle on a shared physical
    /// channel. Time-multiplexed links advance strictly by cycle parity;
    /// demand-multiplexed links give the full bandwidth to a lone flit and
    /// alternate fairly when both lanes are busy.
    fn advancing_lane(&self, busy: [bool; 2], mux_rr: u8) -> Option<Lane> {
        let index = if self.cfg.time_mux_lanes {
            let slot = (self.now.as_u64() % 2) as usize;
            busy[slot].then_some(slot)?
        } else {
            match (busy[0], busy[1]) {
                (true, true) => mux_rr as usize,
                (true, false) => 0,
                (false, true) => 1,
                (false, false) => return None,
            }
        };
        // Both arms produce 0 or 1, so the conversion is total.
        Lane::from_index(index).ok()
    }

    /// Phase A: decrement serialization counters; deliver flits whose
    /// transfer completes.
    fn progress_wires(&mut self) {
        for r in 0..self.routers.len() {
            // Only ports with a flit on a wire can advance; walk them in
            // port order (drop lotteries draw RNG in this order).
            let mut ports = self.routers[r].wires[0] | self.routers[r].wires[1];
            while ports != 0 {
                let p = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let busy = [
                    self.routers[r].outs[p].in_flight[0].is_some(),
                    self.routers[r].outs[p].in_flight[1].is_some(),
                ];
                let Some(lane) = self.advancing_lane(busy, self.routers[r].outs[p].mux_rr) else {
                    continue;
                };
                if busy[0] && busy[1] {
                    self.routers[r].outs[p].mux_rr ^= 1;
                }
                let Some((flit, dvc, rem)) = self.routers[r].outs[p].in_flight[lane.index()] else {
                    debug_assert!(false, "advancing lane has no flit in flight");
                    continue;
                };
                if rem > 1 {
                    self.routers[r].outs[p].in_flight[lane.index()] = Some((flit, dvc, rem - 1));
                    continue;
                }
                self.routers[r].outs[p].in_flight[lane.index()] = None;
                self.routers[r].wires[lane.index()] &= !(1u64 << p);
                let is_tail = flit.idx + 1 == self.worm_flits(flit.worm);
                if is_tail {
                    self.routers[r].outs[p].owner[dvc as usize] = None;
                    self.routers[r].wake_parked(p);
                }
                match self.routers[r].outs[p].dest {
                    Endpoint::Router { router, in_port } => {
                        let (router, in_port) = (router as usize, in_port as usize);
                        self.routers[router].ins[in_port].vcs[dvc as usize]
                            .buf
                            .push_back((flit, self.now));
                        self.slot_filled(router, in_port, dvc as usize);
                    }
                    Endpoint::Node(node) => {
                        self.deliver_to_node(node as usize, r, p, flit, dvc, is_tail);
                    }
                }
            }
        }
        // Injection channels. A flit can only be in flight on a node's
        // link while that lane's slot holds its worm, so nodes without an
        // active slot (and the whole phase when none is active) are no-ops.
        if self.inj_active == 0 {
            return;
        }
        for n in 0..self.nodes.len() {
            if self.nodes[n].slots[0].is_none() && self.nodes[n].slots[1].is_none() {
                continue;
            }
            let busy = [
                self.nodes[n].in_flight[0].is_some(),
                self.nodes[n].in_flight[1].is_some(),
            ];
            let Some(lane) = self.advancing_lane(busy, self.nodes[n].lane_rr) else {
                continue;
            };
            if busy[0] && busy[1] {
                self.nodes[n].lane_rr ^= 1;
            }
            let Some((flit, dvc, rem)) = self.nodes[n].in_flight[lane.index()] else {
                debug_assert!(false, "advancing lane has no flit in flight");
                continue;
            };
            if rem > 1 {
                self.nodes[n].in_flight[lane.index()] = Some((flit, dvc, rem - 1));
                continue;
            }
            self.nodes[n].in_flight[lane.index()] = None;
            let is_tail = flit.idx + 1 == self.worm_flits(flit.worm);
            if is_tail {
                self.nodes[n].inj_owner[dvc as usize] = None;
                self.nodes[n].slots[lane.index()] = None;
                self.inj_active -= 1;
            }
            let (r, p) = (
                self.nodes[n].inj_router as usize,
                self.nodes[n].inj_port as usize,
            );
            self.routers[r].ins[p].vcs[dvc as usize]
                .buf
                .push_back((flit, self.now));
            self.slot_filled(r, p, dvc as usize);
        }
    }

    /// A flit joined input slot `(ip, vc)` of router `r`: a routed worm
    /// becomes a candidate of its port if it has credit; an unrouted head
    /// at the front is offered to its route.
    fn slot_filled(&mut self, r: usize, ip: usize, vc: usize) {
        match self.routers[r].ins[ip].vcs[vc].alloc {
            Some((ap, avc)) => {
                let slot = ip * self.cfg.total_vcs() + vc;
                self.routers[r].sync_routed(ap as usize, avc as usize, slot, ip, vc);
            }
            None => self.resolve_slot(r, ip, vc),
        }
    }

    /// A flit arrives at a node's ejection assembly; on the tail, the packet
    /// is complete and moves to the ready queue (or is dropped by the lossy
    /// lottery).
    fn deliver_to_node(
        &mut self,
        node: usize,
        router: usize,
        port: usize,
        flit: Flit,
        dvc: u8,
        is_tail: bool,
    ) {
        if !is_tail {
            return;
        }
        let Some(worm) = self.arena.remove(flit.worm) else {
            debug_assert!(false, "tail flit of a dead worm");
            return;
        };
        let flits = worm.flits;
        let packet = worm.packet;
        let lane = packet.lane;
        // Return the assembly space to the ejection port's credits.
        let total_vcs = self.cfg.total_vcs();
        self.routers[router].return_credits(port, dvc as usize, flits, total_vcs);
        self.pending_per_dst[packet.dst.index()] -= 1;
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            self.stats.dropped.incr();
            self.stats.dropped_uniform.incr();
            trace_event!(
                self.trace,
                self.now,
                packet.dst,
                EventKind::Drop {
                    src: packet.src,
                    dst: packet.dst,
                    ack: lane == Lane::Reply,
                    cause: DropReason::Uniform,
                }
            );
            return;
        }
        if let Some(cause) = self.faults.judge(self.now, &packet) {
            self.stats.count_fault_drop(cause);
            trace_event!(
                self.trace,
                self.now,
                packet.dst,
                EventKind::Drop {
                    src: packet.src,
                    dst: packet.dst,
                    ack: lane == Lane::Reply,
                    cause: cause.into(),
                }
            );
            return;
        }
        self.stats.delivered[lane.index()].incr();
        let latency = self.now.saturating_since(packet.stamp.injected);
        if lane == Lane::Request {
            self.stats.latency.record(latency as f64);
            self.stats.latency_hist.record(latency);
        }
        trace_event!(
            self.trace,
            self.now,
            packet.dst,
            EventKind::Deliver {
                src: packet.src,
                dst: packet.dst,
                ack: lane == Lane::Reply,
                latency,
            }
        );
        // Ready-queue capacity was reserved when the head flit was granted
        // the ejection port (`eject_has_room`), so this never overflows.
        self.nodes[node].ready[lane.index()].push_back(packet);
        self.ready_total += 1;
    }

    /// Whether the node can accept the start of a new packet on this lane:
    /// the ready queue plus packets already mid-assembly (VCs of this lane
    /// owned by a worm at the ejection port `(r, p)`) must stay within
    /// capacity.
    fn eject_has_room(&self, r: usize, p: usize, node: usize, lane: Lane) -> bool {
        let owned = self
            .lane_vc_range(lane)
            .filter(|&vc| self.routers[r].outs[p].owner[vc].is_some())
            .count();
        self.nodes[node].ready[lane.index()].len() + owned < self.cfg.eject_ready_pkts as usize
    }

    /// Phase B: each idle output port picks one eligible flit and starts
    /// serializing it.
    fn start_router_transmissions(&mut self) {
        for r in 0..self.routers.len() {
            let num_outs = self.routers[r].outs.len();
            if self.routers[r].ready_ports(0, num_outs) == 0 {
                continue;
            }
            // Rotate starting port so adaptive choices spread over links.
            // The ready mask is re-read after every port: a commit can
            // front a new head that a port later in the rotation may take.
            let start = (self.now.as_u64() as usize + r) % num_outs;
            for (from, to) in [(start, num_outs), (0, start)] {
                let mut ready = self.routers[r].ready_ports(from, to);
                while ready != 0 {
                    let p = ready.trailing_zeros() as usize;
                    for lane in Lane::ALL {
                        if self.routers[r].ready_on(lane.index()) >> p & 1 != 0 {
                            self.try_start_one(r, p, lane);
                        }
                    }
                    ready = self.routers[r].ready_ports(p + 1, to);
                }
            }
        }
    }

    /// Attempts to start one flit of logical network `lane` on output port
    /// `p` of router `r`.
    fn try_start_one(&mut self, r: usize, p: usize, lane: Lane) {
        let num_ins = self.routers[r].ins.len();
        let total_vcs = self.cfg.total_vcs();
        let slots = num_ins * total_vcs;
        let rr = self.routers[r].outs[p].rr as usize;
        // Round-robin over port `p`'s candidate slots of `lane`, from the
        // cursor. An exhaustive `(rr + k) % slots` sweep would also visit
        // empty VCs, other lanes, worms allocated to other ports or blocked
        // on zero credit, off-route heads, and heads parked after a failed
        // allocation; each of those visits would `continue` without
        // changing state or drawing RNG. The candidate set holds exactly
        // the remaining slots, in the same order, so the first commit —
        // and the cursor it leaves — is the exhaustive sweep's.
        let mut pos = rr;
        let mut limit = slots;
        let mut wrapped = false;
        loop {
            let Some(s) = self.next_candidate(r, p, lane, pos, limit) else {
                if wrapped || rr == 0 {
                    return;
                }
                wrapped = true;
                pos = 0;
                limit = rr;
                continue;
            };
            pos = s + 1;
            let (ip, vc) = (s / total_vcs, s % total_vcs);
            let Some(&(flit, arrived)) = self.routers[r].ins[ip].vcs[vc].buf.front() else {
                debug_assert!(false, "candidate bit set on an empty VC buffer");
                continue;
            };
            if arrived >= self.now {
                continue; // one-cycle router pipeline
            }
            let (dvc, is_head) = if let Some((ap, avc)) = self.routers[r].ins[ip].vcs[vc].alloc {
                // Body/tail flit: continues on its allocated path, which
                // the candidate set only offers while it has credit.
                if ap as usize != p || self.routers[r].outs[p].credits[avc as usize] == 0 {
                    debug_assert!(false, "blocked routed worm in a candidate set");
                    continue;
                }
                (avc, false)
            } else {
                debug_assert_eq!(flit.idx, 0, "unrouted non-head flit");
                let Some(dvc) = self.head_allocation(r, p, ip, vc, flit) else {
                    self.routers[r].park(p, s);
                    continue;
                };
                (dvc, true)
            };
            self.commit_transmission(r, p, ip, vc, flit, dvc, is_head);
            self.routers[r].outs[p].rr = ((s + 1) % slots) as u32;
            return;
        }
    }

    /// Offers the unrouted head at the front of `(ip, vc)` to every port on
    /// its route, un-parking it where it was parked: called when the head
    /// reaches the front and again whenever a flit joins its buffer (which
    /// may complete a store-and-forward packet). The route mask is computed
    /// once per worm and cached per VC — it is a pure function of the
    /// worm's static route state, so the head's commit can later retract
    /// exactly the bits entered here.
    fn resolve_slot(&mut self, r: usize, ip: usize, vc: usize) {
        let slot = ip * self.cfg.total_vcs() + vc;
        let Some(&(flit, _)) = self.routers[r].ins[ip].vcs[vc].buf.front() else {
            debug_assert!(false, "resolving an empty VC buffer");
            return;
        };
        debug_assert!(self.routers[r].ins[ip].vcs[vc].alloc.is_none());
        let mask = match self.routers[r].ins[ip].vcs[vc].cand_ports {
            Some((worm, m)) if worm == flit.worm => m,
            _ => {
                let m = self.route_port_mask(r, flit);
                self.routers[r].ins[ip].vcs[vc].cand_ports = Some((flit.worm, m));
                m
            }
        };
        let mut m = mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            self.routers[r].unpark(q, slot);
        }
    }

    /// Bitmask of output ports the topology offers for `flit`'s worm at
    /// router `r`.
    fn route_port_mask(&mut self, r: usize, flit: Flit) -> u64 {
        let Some(worm) = self.arena.get(flit.worm) else {
            debug_assert!(false, "routing a dead worm");
            return 0;
        };
        let dst = worm.packet.dst;
        let route = worm.route;
        self.route_buf.clear();
        let mut cands = std::mem::take(&mut self.route_buf);
        self.topo.route(r as u32, dst, &route, &mut cands);
        let mut mask = 0u64;
        for cand in &cands {
            mask |= 1u64 << (cand.port % 64);
        }
        self.route_buf = cands;
        mask
    }

    /// Routing + VC allocation for a head flit waiting at `(ip, vc)`;
    /// returns the downstream VC to use on port `p`, if any.
    fn head_allocation(
        &mut self,
        r: usize,
        p: usize,
        ip: usize,
        vc: usize,
        flit: Flit,
    ) -> Option<u8> {
        let worm = self.arena.get(flit.worm)?;
        let lane = worm.packet.lane;
        let flits = worm.flits;
        let dst = worm.packet.dst;
        let route = worm.route;

        // Store-and-forward: the whole packet must sit here first.
        if self.cfg.policy == SwitchingPolicy::StoreAndForward {
            let present = self.routers[r].ins[ip].vcs[vc]
                .buf
                .iter()
                .take_while(|(f, _)| f.worm == flit.worm)
                .count() as u16;
            if present < flits {
                return None;
            }
        }

        self.route_buf.clear();
        let mut cands = std::mem::take(&mut self.route_buf);
        self.topo.route(r as u32, dst, &route, &mut cands);
        let need = self.head_credit_need(flits);
        let mut found = None;
        'outer: for cand in &cands {
            if cand.port as usize != p {
                continue;
            }
            // Node-bound heads additionally need a free ready-queue slot.
            if let Endpoint::Node(node) = self.routers[r].outs[p].dest {
                if !self.eject_has_room(r, p, node as usize, lane) {
                    continue;
                }
            }
            let range = self.lane_vc_range(lane);
            // Candidate VC sub-range, computed without a scratch Vec: this
            // function is on the per-cycle hot path (lint R5 keeps it
            // allocation-free).
            let (lo, hi) = match cand.vc {
                VcSel::Any => (range.start, range.end),
                VcSel::Class(k) => {
                    let idx = range.start + k as usize;
                    debug_assert!(idx < range.end, "VC class beyond lane");
                    (idx, (idx + 1).min(range.end))
                }
            };
            for dvc in lo..hi {
                let out = &self.routers[r].outs[p];
                if out.owner[dvc].is_none() && out.credits[dvc] >= need {
                    found = Some(dvc as u8);
                    break 'outer;
                }
            }
        }
        self.route_buf = cands;
        found
    }

    /// Pops the flit, updates allocation/ownership/credits, and places it on
    /// the wire.
    #[allow(clippy::too_many_arguments)]
    fn commit_transmission(
        &mut self,
        r: usize,
        p: usize,
        ip: usize,
        vc: usize,
        flit: Flit,
        dvc: u8,
        is_head: bool,
    ) {
        let Some((popped, _)) = self.routers[r].ins[ip].vcs[vc].buf.pop_front() else {
            debug_assert!(false, "committed transmission from an empty VC buffer");
            return;
        };
        debug_assert_eq!(popped, flit);
        let total_vcs = self.cfg.total_vcs();
        let slot = ip * total_vcs + vc;
        let is_tail = flit.idx + 1 == self.worm_flits(flit.worm);
        let rt = &mut self.routers[r];

        if is_head {
            // The head was offered to every port on its cached route mask
            // (as a candidate or parked); withdraw it from all of them.
            let mask = match rt.ins[ip].vcs[vc].cand_ports {
                Some((w, m)) if w == flit.worm => m,
                _ => !0u64, // unknown mask: sweep every port (defensive)
            };
            let nout = rt.outs.len();
            let mut m = mask;
            while m != 0 {
                let q = m.trailing_zeros() as usize;
                if q >= nout {
                    break;
                }
                m &= m - 1;
                rt.withdraw(q, slot);
            }
            rt.ins[ip].vcs[vc].alloc = Some((p as u8, dvc));
            rt.holder[p * total_vcs + dvc as usize] = slot as u32;
            rt.outs[p].owner[dvc as usize] = Some(flit.worm);
            let topo = &self.topo;
            if let Some(worm) = self.arena.get_mut(flit.worm) {
                topo.on_hop(r as u32, p as u8, &mut worm.route);
            }
        }
        let rt = &mut self.routers[r];
        rt.outs[p].credits[dvc as usize] -= 1;
        if is_tail {
            rt.ins[ip].vcs[vc].alloc = None;
            rt.holder[p * total_vcs + dvc as usize] = NO_SLOT;
            rt.remove_cand(p, slot);
            // The tail fronts the next worm's head, if any; resolve it now
            // so output ports later in this cycle's rotation can still
            // claim it (matching the exhaustive-scan behavior).
            if !rt.ins[ip].vcs[vc].buf.is_empty() {
                self.resolve_slot(r, ip, vc);
            }
        } else {
            rt.sync_routed(p, dvc as usize, slot, ip, vc);
        }

        // Credit return to whoever feeds this input port.
        match self.routers[r].ins[ip].feeder {
            Feeder::Router { router, port } => {
                self.routers[router as usize].return_credits(port as usize, vc, 1, total_vcs);
            }
            Feeder::Node(node) => {
                self.nodes[node as usize].inj_credits[vc] += 1;
            }
            Feeder::None => {}
        }

        let lane = dvc as usize / self.cfg.vcs_per_lane as usize;
        let rt = &mut self.routers[r];
        debug_assert!(rt.outs[p].in_flight[lane].is_none());
        rt.outs[p].in_flight[lane] = Some((flit, dvc, self.cfg.flit_cycles));
        rt.wires[lane] |= 1u64 << p;
    }

    /// Phase C: nodes serialize queued packets onto their injection links.
    /// [`Fabric::try_inject_flit`] is a no-op without a populated slot, so
    /// slot-free nodes (and the whole phase when no slot is active) skip.
    fn progress_injection(&mut self) {
        if self.inj_active == 0 {
            return;
        }
        for n in 0..self.nodes.len() {
            if self.nodes[n].slots[0].is_none() && self.nodes[n].slots[1].is_none() {
                continue;
            }
            for lane in Lane::ALL {
                if self.nodes[n].in_flight[lane.index()].is_none() {
                    let _ = self.try_inject_flit(n, lane);
                }
            }
        }
    }

    /// Attempts to put the next flit of node `n`'s `lane` slot on the wire.
    fn try_inject_flit(&mut self, n: usize, lane: Lane) -> bool {
        let Some(slot) = &self.nodes[n].slots[lane.index()] else {
            return false;
        };
        let worm_id = slot.worm;
        let next = slot.next_flit;
        let Some(worm) = self.arena.get(worm_id) else {
            debug_assert!(false, "injection slot holds a dead worm");
            return false;
        };
        let flits = worm.flits;

        let dvc = match slot.vc {
            Some(v) => v,
            None => {
                // Allocate an input VC at the attached router.
                let need = self.head_credit_need(flits);
                let range = self.lane_vc_range(lane);
                let iface = &self.nodes[n];
                let Some(v) = range
                    .clone()
                    .find(|&v| iface.inj_owner[v].is_none() && iface.inj_credits[v] >= need)
                else {
                    return false;
                };
                v as u8
            }
        };
        if self.nodes[n].inj_credits[dvc as usize] == 0 {
            return false;
        }
        let iface = &mut self.nodes[n];
        let Some(slot) = iface.slots[lane.index()].as_mut() else {
            debug_assert!(false, "slot checked non-empty above");
            return false;
        };
        if slot.vc.is_none() {
            slot.vc = Some(dvc);
            iface.inj_owner[dvc as usize] = Some(worm_id);
        }
        slot.next_flit += 1;
        iface.inj_credits[dvc as usize] -= 1;
        iface.in_flight[lane.index()] = Some((
            Flit {
                worm: worm_id,
                idx: next,
            },
            dvc,
            self.cfg.flit_cycles,
        ));
        true
    }
}

#[cfg(test)]
impl Fabric {
    /// Checks the arbitration state against an exhaustive sweep of every
    /// `(output port, input slot)` pair; panics on the first disagreement.
    /// Meant to run between steps, when every buffered flit has arrived.
    /// Returns how many `(port, head)` pairs are parked and how many routed
    /// worms wait on zero credit.
    fn check_arbitration_invariants(&mut self) -> [usize; 2] {
        let total_vcs = self.cfg.total_vcs();
        let mut parked = [0; 2];
        for r in 0..self.routers.len() {
            let rt = &self.routers[r];
            let nout = rt.outs.len();
            for p in 0..nout {
                for lane in 0..2 {
                    let wire = rt.outs[p].in_flight[lane].is_some();
                    assert_eq!(rt.wires[lane] >> p & 1 == 1, wire, "r{r}p{p}: wire mask");
                    let live = rt.live[lane] >> p & 1 == 1;
                    assert_eq!(live, rt.has_cands(p, lane), "r{r}p{p}: live mask");
                }
                for dvc in 0..total_vcs {
                    let h = rt.holder[p * total_vcs + dvc];
                    if h != NO_SLOT {
                        let (ip, vc) = (h as usize / total_vcs, h as usize % total_vcs);
                        assert_eq!(
                            rt.ins[ip].vcs[vc].alloc,
                            Some((p as u8, dvc as u8)),
                            "r{r}: holder of p{p}/vc{dvc} does not hold it"
                        );
                    }
                }
            }
            for ip in 0..self.routers[r].ins.len() {
                for vc in 0..total_vcs {
                    let [heads, worms] = self.check_slot(r, ip, vc);
                    parked[0] += heads;
                    parked[1] += worms;
                }
            }
        }
        parked
    }

    fn check_slot(&mut self, r: usize, ip: usize, vc: usize) -> [usize; 2] {
        let total_vcs = self.cfg.total_vcs();
        let slot = ip * total_vcs + vc;
        let nout = self.routers[r].outs.len();
        let in_cands = |f: &Fabric, p: usize| {
            let rt = &f.routers[r];
            test_bit(&rt.cands[rt.port_words(p)], slot)
        };
        let in_parked = |f: &Fabric, p: usize| {
            let rt = &f.routers[r];
            test_bit(&rt.parked[rt.port_words(p)], slot)
        };
        let front = self.routers[r].ins[ip].vcs[vc].buf.front().copied();
        match (front, self.routers[r].ins[ip].vcs[vc].alloc) {
            (_, Some((ap, avc))) => {
                let rt = &self.routers[r];
                assert_eq!(
                    rt.holder[ap as usize * total_vcs + avc as usize],
                    slot as u32
                );
                let starved = rt.outs[ap as usize].credits[avc as usize] == 0;
                let open = front.is_some() && !starved;
                for p in 0..nout {
                    assert!(!in_parked(self, p), "r{r}s{slot}: routed worm parked");
                    let want = p == ap as usize && open;
                    assert_eq!(in_cands(self, p), want, "r{r}s{slot}p{p}: routed worm");
                }
                [0, usize::from(front.is_some() && starved)]
            }
            (None, None) => {
                for p in 0..nout {
                    assert!(
                        !in_cands(self, p) && !in_parked(self, p),
                        "r{r}s{slot}: empty"
                    );
                }
                [0, 0]
            }
            (Some((flit, _)), None) => {
                assert_eq!(flit.idx, 0, "r{r}s{slot}: unrouted body flit");
                let mut heads = 0;
                let mask = self.route_port_mask(r, flit);
                assert_eq!(
                    self.routers[r].ins[ip].vcs[vc].cand_ports,
                    Some((flit.worm, mask)),
                    "r{r}s{slot}: stale route mask"
                );
                for p in 0..nout {
                    let (c, k) = (in_cands(self, p), in_parked(self, p));
                    if mask >> p & 1 == 0 {
                        assert!(!c && !k, "r{r}s{slot}p{p}: off-route head offered");
                        continue;
                    }
                    assert!(c != k, "r{r}s{slot}p{p}: head must be candidate xor parked");
                    let eligible = self.head_allocation(r, p, ip, vc, flit).is_some();
                    assert!(!eligible || c, "r{r}s{slot}p{p}: eligible head is parked");
                    heads += usize::from(k);
                }
                [heads, 0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Butterfly, Cm5FatTree, FatTree, Mesh, Torus};
    use nifdy_sim::PacketId;

    fn drive_one(
        topo: Box<dyn Topology>,
        cfg: FabricConfig,
        src: usize,
        dst: usize,
    ) -> (Packet, u64) {
        let mut fab = Fabric::new(topo, cfg);
        let (s, d) = (NodeId::new(src), NodeId::new(dst));
        fab.inject(s, Packet::data(PacketId::new(1), s, d, 8));
        loop {
            fab.step();
            if let Some(p) = fab.eject(d, Lane::Request) {
                return (p, fab.now().as_u64());
            }
            assert!(fab.now().as_u64() < 100_000, "packet lost in fabric");
        }
    }

    #[test]
    fn mesh_delivers_single_packet() {
        let (p, t) = drive_one(Box::new(Mesh::d2(8, 8)), FabricConfig::default(), 0, 63);
        assert_eq!(p.dst, NodeId::new(63));
        // 14 hops, 4 cycles/flit, 8 flits: latency must be in a sane window.
        assert!(t > 14 && t < 400, "latency {t}");
    }

    #[test]
    fn torus_delivers_across_the_dateline() {
        let cfg = FabricConfig::default().with_vcs_per_lane(2);
        let (p, _) = drive_one(Box::new(Torus::d2(8, 8)), cfg, 7, 0);
        assert_eq!(p.dst, NodeId::new(0));
    }

    #[test]
    fn fat_tree_delivers_with_cut_through() {
        let cfg = FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8);
        let (p, _) = drive_one(Box::new(FatTree::new(64)), cfg, 3, 60);
        assert_eq!(p.src, NodeId::new(3));
    }

    #[test]
    fn butterfly_delivers() {
        let (p, _) = drive_one(
            Box::new(Butterfly::new(64, 1, 0)),
            FabricConfig::default(),
            5,
            5,
        );
        assert_eq!(p.dst, NodeId::new(5));
        let (p, _) = drive_one(
            Box::new(Butterfly::new(64, 2, 3)),
            FabricConfig::default(),
            0,
            63,
        );
        assert_eq!(p.dst, NodeId::new(63));
    }

    #[test]
    fn cm5_time_mux_still_delivers() {
        let cfg = FabricConfig::default().with_time_mux(true);
        let (p, t_mux) = drive_one(Box::new(Cm5FatTree::new(64)), cfg, 0, 63);
        assert_eq!(p.dst, NodeId::new(63));
        let (_, t_plain) = drive_one(
            Box::new(Cm5FatTree::new(64)),
            FabricConfig::default(),
            0,
            63,
        );
        // Strict multiplexing halves effective link bandwidth.
        assert!(t_mux > t_plain, "mux {t_mux} <= plain {t_plain}");
    }

    #[test]
    fn store_and_forward_is_slower_than_wormhole() {
        let wh = FabricConfig::default().with_vc_buf_flits(8);
        let sf = FabricConfig::default()
            .with_policy(SwitchingPolicy::StoreAndForward)
            .with_vc_buf_flits(8);
        let (_, t_wh) = drive_one(Box::new(FatTree::new(64)), wh, 0, 63);
        let (_, t_sf) = drive_one(Box::new(FatTree::new(64)), sf, 0, 63);
        assert!(t_sf > t_wh, "S&F {t_sf} should exceed wormhole {t_wh}");
    }

    #[test]
    fn all_to_one_backpressure_does_not_lose_packets() {
        // Everyone sends to node 0; node 0 never ejects. Backpressure must
        // eventually stall injection (the network fills up), and every
        // injected packet must still be accounted for — blocked, not lost.
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let dst = NodeId::new(0);
        let mut sent = 0u32;
        for _ in 0..20_000 {
            for s in 1..16 {
                let src = NodeId::new(s);
                if fab.can_inject(src, Lane::Request) && sent < 200 {
                    sent += 1;
                    fab.inject(
                        src,
                        Packet::data(PacketId::new(u64::from(sent)), src, dst, 8),
                    );
                }
            }
            fab.step();
        }
        // With one VC per lane and a single blocked receiver, tree
        // saturation gridlocks the mesh almost immediately: each sender gets
        // roughly one worm in before its injection slot never frees. This is
        // exactly the secondary blocking the paper describes.
        assert!(sent >= 15, "every sender should land at least one packet");
        assert!(sent < 200, "backpressure never reached the injection ports");
        // Only the single ready-queue slot may complete; nothing is dropped.
        let completed = fab.stats().delivered[0].get() as u32;
        assert!(completed <= 1, "only the ready-queue head may complete");
        assert_eq!(fab.stats().dropped.get(), 0);
        assert_eq!(fab.pending_for(dst), sent - completed);
        assert_eq!(fab.in_network(), sent as usize);
    }

    #[test]
    fn draining_unblocks_the_backlog() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let dst = NodeId::new(0);
        let mut sent = 0u64;
        let mut got = 0u64;
        for _ in 0..200_000 {
            for s in 1..16 {
                let src = NodeId::new(s);
                if sent < 100 && fab.can_inject(src, Lane::Request) {
                    sent += 1;
                    fab.inject(src, Packet::data(PacketId::new(sent), src, dst, 8));
                }
            }
            fab.step();
            if fab.eject(dst, Lane::Request).is_some() {
                got += 1;
            }
            if got == 100 {
                break;
            }
        }
        assert_eq!(got, 100, "all packets must eventually drain");
        assert_eq!(fab.in_network(), 0);
    }

    #[test]
    fn reply_lane_flows_while_request_lane_is_blocked() {
        // Fill node 0's request-lane ejection, then verify a reply-lane
        // packet still gets through (fetch-deadlock avoidance).
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let dst = NodeId::new(0);
        let src = NodeId::new(5);
        for i in 0..4 {
            let s = NodeId::new(1 + i);
            fab.inject(s, Packet::data(PacketId::new(i as u64), s, dst, 8));
            for _ in 0..500 {
                fab.step();
            }
        }
        let mut ack = Packet::data(PacketId::new(99), src, dst, 2);
        ack.lane = Lane::Reply;
        fab.inject(src, ack);
        for _ in 0..5_000 {
            fab.step();
            if let Some(p) = fab.eject(dst, Lane::Reply) {
                assert_eq!(p.id, PacketId::new(99));
                return;
            }
        }
        panic!("reply-lane packet blocked behind request backlog");
    }

    #[test]
    fn lossy_fabric_drops_some_packets() {
        let cfg = FabricConfig::default().with_drop_prob(0.5).with_seed(1);
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), cfg);
        let (src, dst) = (NodeId::new(0), NodeId::new(15));
        let mut sent = 0u64;
        for _ in 0..100_000 {
            if sent < 100 && fab.can_inject(src, Lane::Request) {
                sent += 1;
                fab.inject(src, Packet::data(PacketId::new(sent), src, dst, 8));
            }
            fab.step();
            let _ = fab.eject(dst, Lane::Request);
            if sent == 100 && fab.in_network() == 0 {
                break;
            }
        }
        let dropped = fab.stats().dropped.get();
        let delivered = fab.stats().delivered[0].get();
        assert_eq!(dropped + delivered, 100);
        assert!(
            dropped > 10 && delivered > 10,
            "drop lottery looks broken: {dropped} dropped"
        );
    }

    #[test]
    fn stats_latency_counts_request_lane_only() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let (src, dst) = (NodeId::new(0), NodeId::new(3));
        fab.inject(src, Packet::data(PacketId::new(1), src, dst, 8));
        for _ in 0..2_000 {
            fab.step();
        }
        assert_eq!(fab.stats().latency.count(), 1);
        assert!(fab.stats().latency.mean() > 0.0);
    }

    #[test]
    #[should_panic(expected = "foreign node")]
    fn inject_checks_source() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let p = Packet::data(PacketId::new(1), NodeId::new(2), NodeId::new(3), 8);
        fab.inject(NodeId::new(0), p);
    }

    #[test]
    fn arbitration_sets_match_an_exhaustive_sweep_under_stress() {
        // Saturating traffic with slow receivers, so worms stall on zero
        // credit, ejection queues fill and adaptive heads fail allocation
        // on several ports; the parked sets, holder table and lane masks
        // must agree with an exhaustive sweep after every step and every
        // ejection.
        use crate::topology::AdaptiveMesh;
        let ct = FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8);
        let sf = FabricConfig::default()
            .with_policy(SwitchingPolicy::StoreAndForward)
            .with_vc_buf_flits(8);
        let nets: Vec<(Box<dyn Topology>, FabricConfig)> = vec![
            (Box::new(Mesh::d2(4, 4)), FabricConfig::default()),
            (
                Box::new(Torus::d2(4, 4)),
                FabricConfig::default().with_vcs_per_lane(2),
            ),
            (Box::new(AdaptiveMesh::d2(4, 4)), FabricConfig::default()),
            (Box::new(FatTree::new(16)), ct),
            (Box::new(FatTree::new(16)), sf),
            (
                Box::new(Cm5FatTree::new(32)),
                FabricConfig::default()
                    .with_vc_buf_flits(4)
                    .with_time_mux(true),
            ),
            (Box::new(Butterfly::new(16, 2, 1)), FabricConfig::default()),
        ];
        for (topo, cfg) in nets {
            let name = topo.name();
            // Cut-through heads reserve room for the whole packet, so only
            // wormhole bodies can stall on credit.
            let wormhole = cfg.policy == SwitchingPolicy::Wormhole;
            let mut fab = Fabric::new(topo, cfg);
            let n = fab.num_nodes();
            let mut rng = SimRng::from_seed_stream(99, 1);
            let mut id = 0u64;
            let mut delivered = 0u64;
            let mut seen = [0; 2];
            while fab.now().as_u64() < 600 || fab.in_network() > 0 {
                let offering = fab.now().as_u64() < 600;
                for s in 0..n {
                    for lane in Lane::ALL {
                        let src = NodeId::new(s);
                        if !(offering && rng.gen_bool(0.5) && fab.can_inject(src, lane)) {
                            continue;
                        }
                        let mut dst = rng.gen_range_usize(0..n - 1);
                        if dst >= s {
                            dst += 1;
                        }
                        id += 1;
                        let words = 1 + rng.gen_range_usize(0..8) as u16;
                        let mut p = Packet::data(PacketId::new(id), src, NodeId::new(dst), words);
                        p.lane = lane;
                        fab.inject(src, p);
                    }
                }
                fab.step();
                let parked = fab.check_arbitration_invariants();
                seen = [seen[0].max(parked[0]), seen[1].max(parked[1])];
                for d in 0..n {
                    let slow = offering && d % 3 == 0 && !fab.now().as_u64().is_multiple_of(12);
                    for lane in Lane::ALL {
                        if !slow && fab.eject(NodeId::new(d), lane).is_some() {
                            delivered += 1;
                            fab.check_arbitration_invariants();
                        }
                    }
                }
                assert!(fab.now().as_u64() < 200_000, "{name}: did not drain");
            }
            assert_eq!(delivered, id, "{name}: packets lost");
            assert!(seen[0] > 0, "{name}: no head was ever parked");
            assert_eq!(seen[1] > 0, wormhole, "{name}: worms waiting on credit");
        }
    }
}
