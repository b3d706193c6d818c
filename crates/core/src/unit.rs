//! The NIFDY unit: admission control and in-order delivery at the network
//! edge.
//!
//! Protocol summary (§2 of the paper):
//!
//! * **Scalar mode.** At most one unacknowledged packet per destination.
//!   Destinations with an outstanding packet are held in the *outstanding
//!   packet table* (OPT, `O` entries). Outbound packets wait in a pool of
//!   `B` buffers; a packet is *eligible* when no earlier packet to the same
//!   destination is waiting or outstanding (the paper's rank/eligibility
//!   unit, realized here as FIFO-per-destination ordering — observably
//!   identical behaviour).
//! * **Bulk dialogs.** A sender piggybacks a bulk request on a scalar
//!   packet; the receiver grants at most `D` dialogs, each with `W` reorder
//!   buffers. Bulk packets carry `{seq, dialog}`; in-order packets stream
//!   through, out-of-order ones wait in the window. One combined ack per
//!   `W/2` delivered packets. The sender exits by flagging the last packet.
//! * **Acks** travel on the reply network and are consumed by the NIFDY
//!   unit. Scalar packets are acked when the processor *accepts* them
//!   (footnote 2's ack-on-insert variant is available for ablation).
//! * **§6.2 extension.** With a retransmission timeout configured, the unit
//!   keeps a copy and a timer per outstanding packet, retransmits on
//!   timeout, and receivers discard duplicates via an alternating header bit
//!   (scalar) or the window sequence numbers (bulk).
//! * **Adaptive RTO.** With [`NifdyConfig::adaptive_rto`] set, the fixed
//!   timeout becomes only the initial RTO: the unit keeps a per-destination
//!   [`RttEstimator`], applies Karn's rule, backs off exponentially with a
//!   jittered cap, and — when a [`retx_budget`](NifdyConfig::retx_budget) is
//!   configured — abandons undeliverable transfers with a typed
//!   [`DeliveryFailure`] instead of retrying forever.

use std::collections::VecDeque;

use nifdy_net::{AckInfo, BulkGrant, BulkTag, Lane, NetPort, Packet, Wire};
use nifdy_sim::{Cycle, NodeId, PacketId, SimRng, Wakeup};
use nifdy_trace::{trace_event, DialogEnd, EventKind, TraceHandle};

use crate::config::NifdyConfig;
use crate::nic::{
    Delivered, DeliveryFailure, FailureKind, Nic, NicOccupancy, NicStats, OutboundPacket,
};
use crate::rto::RttEstimator;

/// Sequence numbers travel on the wire modulo this space (the paper notes
/// they "need only be as large as W"; we carry a byte and document that
/// hardware would use `log2(2W)` bits).
const SEQ_SPACE: u64 = 256;

/// `SimRng` stream id of the retransmission-jitter generator (seeded by the
/// node index, so units never share a jitter sequence).
const JITTER_STREAM: u64 = 0x717;

/// An entry in the outstanding packet table.
#[derive(Debug)]
struct OptEntry {
    dst: NodeId,
    /// When the packet — or its most recent retransmission — was staged.
    sent_at: Cycle,
    /// When the original transmission was staged (RTT sampling base).
    first_sent: Cycle,
    /// Retransmissions so far (Karn's rule: sample RTT only when zero).
    retries: u32,
    /// Cycles after `sent_at` at which the retransmission timer fires.
    wait: u64,
    /// The packet's alternating duplicate bit; an arriving scalar ack clears
    /// this entry only when its echo matches (stale re-acks for an earlier
    /// packet must not release a newer, possibly-lost one).
    dup_bit: bool,
    /// Copy kept for retransmission (§6.2 only).
    copy: Option<Packet>,
}

/// An unacknowledged bulk packet held for retransmission.
#[derive(Debug)]
struct BulkCopy {
    /// Absolute sequence number.
    seq: u64,
    pkt: Packet,
    /// When the original transmission was staged (RTT sampling base).
    first_sent: Cycle,
    /// When the packet was last (re)staged.
    last_sent: Cycle,
    /// Retransmissions so far.
    retries: u32,
    /// Cycles after `last_sent` at which the retransmission timer fires.
    wait: u64,
}

/// Sender-side state of the single outgoing bulk dialog.
#[derive(Debug)]
struct OutDialog {
    peer: NodeId,
    dialog: u8,
    window: u8,
    /// Absolute count of bulk packets sent.
    next_seq: u64,
    /// Absolute count of bulk packets acknowledged.
    acked: u64,
    /// The exit packet has been sent; no further traffic to `peer` until the
    /// dialog fully drains (preserves pairwise order).
    exiting: bool,
}

/// Receiver-side state of one granted dialog slot.
#[derive(Debug)]
struct InDialog {
    peer: NodeId,
    /// Absolute count of packets delivered in order (== next expected seq).
    expected: u64,
    /// Delivered count as of the last window ack sent.
    last_acked: u64,
    /// Last cycle any packet of this dialog arrived (reclaim watchdog).
    last_activity: Cycle,
}

/// Everything the unit remembers about one peer, in both directions.
#[derive(Debug, Default)]
struct PeerState {
    /// Sender: the alternating duplicate bit of the last scalar sent (§6.2).
    alt_bit: bool,
    /// Sender: a bulk dialog to this peer was torn down by the retry
    /// budget, so traffic to it stays scalar (a fresh dialog against the
    /// receiver's stale slot state could not resynchronize).
    bulk_poisoned: bool,
    /// Sender: round-trip estimator (adaptive RTO only).
    rtt: RttEstimator,
    /// Receiver: the dialog slot granted to this peer.
    dialog: Option<u8>,
    /// Receiver: duplicate bit of the last scalar inserted into arrivals.
    last_insert_bit: Option<bool>,
    /// Receiver: duplicate bit of the last scalar acknowledged.
    last_acked_bit: Option<bool>,
}

/// Index of the reorder cell holding absolute sequence `seq` of dialog
/// `slot`: each slot owns `window` consecutive cells, and the `window`
/// sequences a dialog can hold at once fall in distinct cells.
fn reorder_cell(window: u8, slot: usize, seq: u64) -> usize {
    let w = usize::from(window);
    slot * w + (seq % w as u64) as usize
}

/// Tombstone for a recently closed dialog slot (lossy-network robustness:
/// late retransmissions of the tail still get their final ack re-sent).
#[derive(Debug, Clone, Copy)]
struct ClosedDialog {
    peer: NodeId,
    final_count: u64,
    until: Cycle,
}

/// A queued acknowledgment, charged the NIFDY processing latency.
#[derive(Debug)]
struct PendingAck {
    dst: NodeId,
    info: AckInfo,
    ready_at: Cycle,
}

/// The NIFDY network interface unit.
///
/// # Examples
///
/// Two units exchanging a packet over a small mesh:
///
/// ```
/// use nifdy::{Nic, NifdyConfig, NifdyUnit, OutboundPacket};
/// use nifdy_net::topology::Mesh;
/// use nifdy_net::{Fabric, FabricConfig};
/// use nifdy_sim::NodeId;
///
/// let mut fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
/// let mut a = NifdyUnit::new(NodeId::new(0), NifdyConfig::mesh());
/// let mut b = NifdyUnit::new(NodeId::new(3), NifdyConfig::mesh());
/// assert!(a.try_send(OutboundPacket::new(NodeId::new(3), 8), fab.now()));
/// let got = loop {
///     a.step(&mut fab);
///     b.step(&mut fab);
///     fab.step();
///     if let Some(d) = b.poll(fab.now()) {
///         break d;
///     }
///     assert!(fab.now().as_u64() < 10_000);
/// };
/// assert_eq!(got.src, NodeId::new(0));
/// ```
#[derive(Debug)]
pub struct NifdyUnit {
    node: NodeId,
    cfg: NifdyConfig,
    now: Cycle,
    pkt_counter: u64,

    // Sender side.
    pool: VecDeque<OutboundPacket>,
    opt: Vec<OptEntry>,
    out_dialog: Option<OutDialog>,
    bulk_request_pending: Option<NodeId>,
    retx_queue: VecDeque<Packet>,
    /// Unacked copies of the outgoing dialog's packets, in sequence order
    /// (§6.2); allocated once and empty whenever no dialog is open.
    copies: VecDeque<BulkCopy>,
    /// Jitter source for the retransmission backoff.
    jitter: SimRng,
    /// Typed failures awaiting [`Nic::take_failures`].
    failures: Vec<DeliveryFailure>,

    // Receiver side.
    arrivals: VecDeque<Packet>,
    dialogs: Vec<Option<InDialog>>,
    /// The paper's `D·W` reorder buffers, allocated once: out-of-order bulk
    /// packets wait here, in the cell [`reorder_cell`] names.
    reorder: Vec<Option<Packet>>,
    closed: Vec<Option<ClosedDialog>>,
    ack_queue: VecDeque<PendingAck>,
    ack_delay: VecDeque<(Cycle, NodeId, AckInfo)>,

    /// Per-peer state, sorted by peer id (binary-searched; a table indexed
    /// by id would cost every unit a row per node of the machine).
    peers: Vec<(NodeId, PeerState)>,

    trace: TraceHandle,
    /// True while an eligibility stall episode is in progress (the stall
    /// trace event is edge-triggered on entry to this state).
    elig_stalled: bool,
    /// Cached [`Nic::next_event`] answer, recomputed at the end of every
    /// full [`Nic::step`].
    next_wake: Wakeup,
    /// Set whenever unit state changes outside `step` (a send, a poll, a
    /// peer reset) — the cached `next_wake` may then be too late.
    wake_stale: bool,
    /// Disables the cached-wakeup early-out in `step` (differential
    /// testing only; production paths always keep the cache on).
    wake_cache_enabled: bool,
    stats: NicStats,
}

impl NifdyUnit {
    /// Creates a NIFDY unit for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NifdyConfig::validate`].
    pub fn new(node: NodeId, cfg: NifdyConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid NIFDY config: {e}");
        }
        let d = cfg.max_dialogs as usize;
        let w = usize::from(cfg.window);
        NifdyUnit {
            node,
            now: Cycle::ZERO,
            pkt_counter: 0,
            pool: VecDeque::with_capacity(cfg.pool_entries as usize),
            opt: Vec::with_capacity(cfg.opt_entries as usize),
            out_dialog: None,
            bulk_request_pending: None,
            retx_queue: VecDeque::with_capacity(cfg.retx_queue_cap as usize),
            copies: VecDeque::with_capacity(w),
            jitter: SimRng::from_seed_stream(node.index() as u64, JITTER_STREAM),
            failures: Vec::new(),
            arrivals: VecDeque::with_capacity(cfg.arrivals_capacity as usize),
            dialogs: (0..d).map(|_| None).collect(),
            reorder: (0..d * w).map(|_| None).collect(),
            closed: (0..d).map(|_| None).collect(),
            ack_queue: VecDeque::with_capacity(2 * cfg.arrivals_capacity as usize),
            ack_delay: VecDeque::with_capacity(2 * cfg.arrivals_capacity as usize),
            peers: Vec::new(),
            trace: TraceHandle::off(),
            elig_stalled: false,
            next_wake: Wakeup::Now,
            wake_stale: true,
            wake_cache_enabled: true,
            stats: NicStats::default(),
            cfg,
        }
    }

    /// The configuration this unit runs with.
    pub fn config(&self) -> &NifdyConfig {
        &self.cfg
    }

    /// Number of scalar packets currently outstanding (OPT occupancy).
    pub fn opt_occupancy(&self) -> usize {
        self.opt.len()
    }

    /// Whether this unit currently holds an outgoing bulk dialog.
    pub fn in_bulk_dialog(&self) -> bool {
        self.out_dialog.is_some()
    }

    /// `(unacknowledged, window)` of the outgoing bulk dialog, if any.
    /// The protocol invariant `unacknowledged <= window` always holds.
    pub fn bulk_outstanding(&self) -> Option<(u64, u8)> {
        self.out_dialog
            .as_ref()
            .map(|d| (d.next_seq - d.acked, d.window))
    }

    /// Smoothed round-trip estimate to `dst` in cycles, once adaptive RTO
    /// has collected at least one sample.
    pub fn srtt(&self, dst: NodeId) -> Option<u64> {
        self.peer_state(dst).and_then(|p| p.rtt.srtt())
    }

    /// True when a torn-down bulk dialog has downgraded traffic to `dst` to
    /// scalar-only mode.
    pub fn bulk_poisoned(&self, dst: NodeId) -> bool {
        self.peer_state(dst).is_some_and(|p| p.bulk_poisoned)
    }

    /// The state kept for peer `id`, if any.
    fn peer_state(&self, id: NodeId) -> Option<&PeerState> {
        let at = self.peers.binary_search_by_key(&id, |&(p, _)| p).ok()?;
        self.peers.get(at).map(|(_, s)| s)
    }

    /// The state kept for peer `id`, created on first use.
    fn peer_state_mut(&mut self, id: NodeId) -> &mut PeerState {
        let at = match self.peers.binary_search_by_key(&id, |&(p, _)| p) {
            Ok(at) => at,
            Err(at) => {
                self.peers.insert(at, (id, PeerState::default()));
                at
            }
        };
        &mut self.peers[at].1
    }

    /// Empties dialog `slot`'s reorder cells, so the slot's next grant
    /// starts from clean buffers.
    fn clear_reorder(&mut self, slot: usize) {
        let w = usize::from(self.cfg.window);
        if let Some(cells) = self.reorder.get_mut(slot * w..(slot + 1) * w) {
            cells.iter_mut().for_each(|c| *c = None);
        }
    }

    /// Timeout for a *fresh* transmission to `dst`: the configured fixed
    /// value, or the per-destination RFC 6298-style estimate clamped to
    /// `[rto_min, rto_max]` when adaptive RTO is on.
    fn fresh_rto(&self, dst: NodeId) -> u64 {
        let base = self.cfg.retx_timeout.unwrap_or(0);
        if !self.cfg.adaptive_rto {
            return base;
        }
        self.peer_state(dst)
            .and_then(|p| p.rtt.rto())
            .map(|r| r.clamp(self.cfg.rto_min, self.cfg.rto_max))
            .unwrap_or(base)
    }

    /// Timeout for the retransmission after `retries` attempts: exponential
    /// backoff saturating at `rto_max`, plus up to 1/8 jitter so synchronized
    /// senders de-correlate. The legacy fixed-timeout path has neither.
    fn backoff_rto(&mut self, dst: NodeId, retries: u32) -> u64 {
        let rto = self.fresh_rto(dst);
        if !self.cfg.adaptive_rto {
            return rto;
        }
        let capped = rto
            .saturating_mul(1u64 << retries.min(10))
            .min(self.cfg.rto_max);
        capped + self.jitter.gen_range_u64(0..capped / 8 + 1)
    }

    /// Feeds one RTT sample for `dst`; callers enforce Karn's rule.
    fn sample_rtt(&mut self, dst: NodeId, rtt: u64) {
        if self.cfg.adaptive_rto {
            let est = &mut self.peer_state_mut(dst).rtt;
            est.sample(rtt);
            let (srtt, rto) = (est.srtt().unwrap_or(0), est.rto().unwrap_or(0));
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::RttSample {
                    dst,
                    rtt,
                    srtt,
                    rto,
                }
            );
        }
    }

    fn next_packet_id(&mut self) -> PacketId {
        self.pkt_counter += 1;
        PacketId::new(((self.node.index() as u64) << 40) | self.pkt_counter)
    }

    fn opt_contains(&self, dst: NodeId) -> bool {
        self.opt.iter().any(|e| e.dst == dst)
    }

    /// Queued pool packets destined to `dst`, excluding index `skip`.
    fn backlog_for(&self, dst: NodeId, skip: usize) -> usize {
        self.pool
            .iter()
            .enumerate()
            .filter(|(i, p)| *i != skip && p.dst == dst)
            .count()
    }

    fn queue_ack(&mut self, dst: NodeId, info: AckInfo) {
        self.ack_queue.push_back(PendingAck {
            dst,
            info,
            ready_at: self.now + u64::from(self.cfg.ack_proc_cycles),
        });
    }

    /// Receiver-side bulk-grant decision for a scalar packet from `src` with
    /// the given request bit.
    fn decide_grant(&mut self, requested: bool, src: NodeId) -> BulkGrant {
        if !requested {
            return BulkGrant::NotRequested;
        }
        if let Some(slot) = self.peer_state(src).and_then(|p| p.dialog) {
            // Idempotent re-grant (duplicate request after a lost ack).
            return BulkGrant::Granted {
                dialog: slot,
                window: self.cfg.window,
            };
        }
        let free = self
            .dialogs
            .iter()
            .enumerate()
            .find(|(i, d)| d.is_none() && self.closed[*i].is_none_or(|c| c.until <= self.now));
        match free {
            Some((slot, _)) => {
                self.dialogs[slot] = Some(InDialog {
                    peer: src,
                    expected: 0,
                    last_acked: 0,
                    last_activity: self.now,
                });
                self.closed[slot] = None;
                self.peer_state_mut(src).dialog = Some(slot as u8);
                self.stats.dialogs_granted.incr();
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::DialogGrant {
                        peer: src,
                        dialog: slot as u8,
                    }
                );
                BulkGrant::Granted {
                    dialog: slot as u8,
                    window: self.cfg.window,
                }
            }
            None => {
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::DialogReject { peer: src }
                );
                BulkGrant::Rejected
            }
        }
    }

    /// Builds and queues the scalar ack for an accepted data packet.
    fn ack_scalar(&mut self, pkt: &Packet) {
        let Wire::Data {
            bulk_request,
            needs_ack,
            dup_bit,
            ..
        } = pkt.wire
        else {
            return;
        };
        if !needs_ack {
            return;
        }
        let grant = self.decide_grant(bulk_request, pkt.src);
        self.peer_state_mut(pkt.src).last_acked_bit = Some(dup_bit);
        self.queue_ack(
            pkt.src,
            AckInfo::Scalar {
                grant,
                echo: dup_bit,
            },
        );
    }

    /// Processes a delayed acknowledgment (sender side).
    fn handle_ack(&mut self, from: NodeId, info: AckInfo) {
        self.stats.acks_received.incr();
        match info {
            AckInfo::Scalar { grant, echo } => {
                // A stale re-ack (its packet was already acknowledged) is
                // ignored whole, grant included: opening a dialog on it
                // would stream bulk packets past a scalar still
                // outstanding to the same peer.
                let Some(i) = self
                    .opt
                    .iter()
                    .position(|e| e.dst == from && e.dup_bit == echo)
                else {
                    return;
                };
                let e = self.opt.swap_remove(i);
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::OptClear {
                        dst: from,
                        occupancy: self.opt.len() as u32,
                    }
                );
                if e.retries == 0 {
                    let rtt = self.now.saturating_since(e.first_sent);
                    self.sample_rtt(from, rtt);
                }
                match grant {
                    BulkGrant::Granted { dialog, window } => {
                        if self.bulk_request_pending == Some(from) && self.out_dialog.is_none() {
                            self.out_dialog = Some(OutDialog {
                                peer: from,
                                dialog,
                                window,
                                next_seq: 0,
                                acked: 0,
                                exiting: false,
                            });
                            trace_event!(
                                self.trace,
                                self.now,
                                self.node,
                                EventKind::DialogOpen {
                                    peer: from,
                                    dialog,
                                    window,
                                }
                            );
                        }
                        if self.bulk_request_pending == Some(from) {
                            self.bulk_request_pending = None;
                        }
                    }
                    BulkGrant::Rejected => {
                        if self.bulk_request_pending == Some(from) {
                            self.bulk_request_pending = None;
                            self.stats.dialogs_rejected.incr();
                        }
                    }
                    BulkGrant::NotRequested => {}
                }
            }
            AckInfo::Bulk {
                dialog,
                cum_seq,
                terminate,
            } => {
                let now = self.now;
                // Detach the dialog so RTT sampling below can borrow `self`
                // freely; it goes back unless this ack closed the dialog.
                let Some(mut d) = self.out_dialog.take() else {
                    return; // stale ack after the dialog closed
                };
                if d.peer != from || d.dialog != dialog {
                    self.out_dialog = Some(d);
                    return;
                }
                // Reconstruct the absolute delivered count from the wire
                // residue: the smallest count > acked congruent to cum+1.
                let target = (u64::from(cum_seq) + 1) % SEQ_SPACE;
                let delta = (target + SEQ_SPACE - (d.acked % SEQ_SPACE)) % SEQ_SPACE;
                let count = d.acked + delta;
                if count > d.next_seq {
                    self.out_dialog = Some(d); // acknowledges packets never sent: ignore
                    return;
                }
                let mut advance = None;
                if count > d.acked {
                    d.acked = count;
                    advance = Some((count, d.next_seq - count));
                }
                let closed = terminate || (d.exiting && d.acked == d.next_seq);
                if let Some((acked, outstanding)) = advance {
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::WindowAdvance {
                            peer: from,
                            dialog,
                            acked,
                            outstanding,
                        }
                    );
                }
                if closed {
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::DialogClose {
                            peer: from,
                            dialog,
                            end: DialogEnd::Exit,
                        }
                    );
                }
                if advance.is_some() {
                    while self.copies.front().is_some_and(|c| c.seq < count) {
                        let Some(c) = self.copies.pop_front() else {
                            break;
                        };
                        // Karn's rule: retransmitted copies give no sample.
                        if c.retries == 0 {
                            self.sample_rtt(from, now.saturating_since(c.first_sent));
                        }
                    }
                }
                if closed {
                    self.copies.clear();
                } else {
                    self.out_dialog = Some(d);
                }
            }
        }
    }

    /// The peer a dialog slot belongs to: the live dialog's sender, or the
    /// tombstoned one for a slot that recently closed. Bulk-mode packets
    /// carry `{seq, dialog}` *in place of* the source-identifier bits (§3),
    /// so on a real wire this lookup — not the header — names the sender.
    fn dialog_peer(&self, slot: usize) -> Option<NodeId> {
        if let Some(d) = self.dialogs.get(slot).and_then(Option::as_ref) {
            return Some(d.peer);
        }
        self.closed
            .get(slot)
            .copied()
            .flatten()
            .map(|c: ClosedDialog| c.peer)
    }

    /// Handles an arriving bulk-mode data packet (receiver side).
    fn receive_bulk(&mut self, mut pkt: Packet, tag: BulkTag) {
        let slot = tag.dialog as usize;
        if slot >= self.dialogs.len() || self.dialogs[slot].is_none() {
            // Late retransmission for a closed dialog: re-send the final ack.
            if let Some(c) = self.closed.get(slot).copied().flatten() {
                if c.final_count > 0 {
                    let cum = ((c.final_count - 1) % SEQ_SPACE) as u8;
                    self.queue_ack(
                        c.peer,
                        AckInfo::Bulk {
                            dialog: tag.dialog,
                            cum_seq: cum,
                            terminate: true,
                        },
                    );
                }
            }
            self.stats.duplicates_dropped.incr();
            return;
        }
        let Some(d) = self.dialogs.get_mut(slot).and_then(Option::as_mut) else {
            return; // guarded above; kept total for the datapath
        };
        d.last_activity = self.now;
        // Re-substitute the source identifier from the dialog slot. Over the
        // simulated fabric this is a no-op (the struct still carries `src`);
        // over a byte transport the bulk header genuinely lacks the source
        // bits and the decoder fills in a placeholder.
        pkt.src = d.peer;
        let delta = (u64::from(tag.seq) + SEQ_SPACE - (d.expected % SEQ_SPACE)) % SEQ_SPACE;
        if delta >= u64::from(self.cfg.window) {
            // Duplicate or out-of-window: discard, refresh the cumulative ack.
            self.stats.duplicates_dropped.incr();
            if d.expected > 0 {
                let cum = ((d.expected - 1) % SEQ_SPACE) as u8;
                let (peer, dialog) = (d.peer, tag.dialog);
                self.queue_ack(
                    peer,
                    AckInfo::Bulk {
                        dialog,
                        cum_seq: cum,
                        terminate: false,
                    },
                );
            }
            return;
        }
        let abs = d.expected + delta;
        if delta > 0 {
            self.stats.bulk_out_of_order.incr();
        }
        // A duplicate within the window keeps the first copy.
        let cell = reorder_cell(self.cfg.window, slot, abs);
        if let Some(c @ None) = self.reorder.get_mut(cell) {
            *c = Some(pkt);
        }
    }

    /// Streams in-order bulk packets to the arrivals FIFO and emits window
    /// acks at half-window boundaries and on dialog exit.
    fn drain_dialogs(&mut self) {
        for slot in 0..self.dialogs.len() {
            loop {
                if self.arrivals.len() >= self.cfg.arrivals_capacity as usize {
                    return;
                }
                let Some(d) = self.dialogs[slot].as_mut() else {
                    break;
                };
                let cell = reorder_cell(self.cfg.window, slot, d.expected);
                let Some(pkt) = self.reorder.get_mut(cell).and_then(Option::take) else {
                    break;
                };
                d.expected += 1;
                let exit = matches!(
                    pkt.wire,
                    Wire::Data {
                        bulk_exit: true,
                        ..
                    }
                );
                let peer = d.peer;
                let delivered = d.expected;
                let half = if self.cfg.bulk_ack_every_packet {
                    1
                } else {
                    u64::from(self.cfg.window) / 2
                };
                let boundary = delivered - d.last_acked >= half;
                if boundary {
                    d.last_acked = delivered;
                }
                self.arrivals.push_back(pkt);
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::BulkAccept {
                        src: peer,
                        dialog: slot as u8,
                        seq: ((delivered - 1) % SEQ_SPACE) as u8,
                        exit,
                    }
                );
                if exit {
                    // Final cumulative ack; free the slot with a tombstone.
                    let cum = ((delivered - 1) % SEQ_SPACE) as u8;
                    self.queue_ack(
                        peer,
                        AckInfo::Bulk {
                            dialog: slot as u8,
                            cum_seq: cum,
                            terminate: false,
                        },
                    );
                    let linger = self.cfg.retx_timeout.map_or(0, |t| {
                        // Adaptive senders may back off as far as rto_max, so
                        // the tombstone must outlive that schedule too.
                        4 * if self.cfg.adaptive_rto {
                            self.cfg.rto_max
                        } else {
                            t
                        }
                    });
                    self.closed[slot] = Some(ClosedDialog {
                        peer,
                        final_count: delivered,
                        until: self.now + linger,
                    });
                    self.dialogs[slot] = None;
                    self.peer_state_mut(peer).dialog = None;
                    self.clear_reorder(slot);
                    break;
                } else if boundary {
                    let cum = ((delivered - 1) % SEQ_SPACE) as u8;
                    self.queue_ack(
                        peer,
                        AckInfo::Bulk {
                            dialog: slot as u8,
                            cum_seq: cum,
                            terminate: false,
                        },
                    );
                }
            }
        }
    }

    /// Handles an arriving scalar data packet; returns `false` if the
    /// arrivals FIFO was full and the packet must stay in the fabric.
    fn receive_scalar(&mut self, pkt: Packet) -> bool {
        if self.arrivals.len() >= self.cfg.arrivals_capacity as usize {
            return false;
        }
        let Wire::Data {
            dup_bit,
            needs_ack,
            bulk_request,
            ..
        } = pkt.wire
        else {
            // Acks are consumed on the reply lane; a non-data packet here is
            // a dispatch bug. Swallow it rather than poison the datapath.
            debug_assert!(false, "receive_scalar called with a non-data packet");
            return true;
        };
        if self.cfg.retx_timeout.is_some() && needs_ack {
            let seen = self.peer_state(pkt.src);
            let (inserted, acked) = (
                seen.and_then(|p| p.last_insert_bit),
                seen.and_then(|p| p.last_acked_bit),
            );
            if inserted == Some(dup_bit) {
                // Duplicate of a packet already inserted; re-ack only if the
                // original was already accepted, otherwise stay silent (the
                // original's ack is still coming).
                self.stats.duplicates_dropped.incr();
                if acked == Some(dup_bit) {
                    let src = pkt.src;
                    let grant = self.decide_grant(bulk_request, src);
                    self.queue_ack(
                        src,
                        AckInfo::Scalar {
                            grant,
                            echo: dup_bit,
                        },
                    );
                }
                return true;
            }
            self.peer_state_mut(pkt.src).last_insert_bit = Some(dup_bit);
        }
        if self.cfg.ack_on_insert {
            self.ack_scalar(&pkt);
        }
        let src = pkt.src;
        self.arrivals.push_back(pkt);
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::ScalarAccept { src }
        );
        true
    }

    /// Index of the first eligible pool packet, if any.
    fn pick_eligible(&self) -> Option<usize> {
        'outer: for (i, p) in self.pool.iter().enumerate() {
            // FIFO per destination: an earlier queued packet to the same
            // destination blocks this one (the rank unit's job).
            for q in self.pool.iter().take(i) {
                if q.dst == p.dst {
                    continue 'outer;
                }
            }
            if let Some(d) = &self.out_dialog {
                if d.peer == p.dst {
                    if d.exiting {
                        continue; // preserve order across the dialog close
                    }
                    if d.next_seq - d.acked < u64::from(d.window) {
                        return Some(i);
                    }
                    continue;
                }
            }
            // Scalar path.
            if !p.needs_ack {
                return Some(i); // §6.1 bypass: no OPT interaction
            }
            if self.opt_contains(p.dst) || self.opt.len() >= self.cfg.opt_entries as usize {
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Builds the wire packet for pool entry `i` and records protocol
    /// state. Returns `None` when `i` is out of range (callers pass indices
    /// from [`Self::pick_eligible`], so this is a defensive no-op).
    fn launch(&mut self, i: usize) -> Option<Packet> {
        let out = self.pool.remove(i)?;
        let id = self.next_packet_id();
        let mut pkt = Packet::data(id, self.node, out.dst, out.size_words);
        pkt.user = out.user;
        pkt.stamp.created = self.now;

        // §6.1: carry a pending ack for this destination instead of sending
        // a standalone ack packet. No readiness check: the ack fields are
        // computed while the data packet serializes, which takes longer than
        // the NIFDY processing delay.
        let piggy = if self.cfg.piggyback_acks {
            self.ack_queue
                .iter()
                .position(|a| a.dst == out.dst)
                .and_then(|idx| self.ack_queue.remove(idx))
                .map(|a| {
                    self.stats.acks_piggybacked.incr();
                    a.info
                })
        } else {
            None
        };

        // Claim the bulk slot in one borrow: the dialog id and the next
        // sequence number are all the rest of the branch needs.
        let bulk_fields = match self.out_dialog.as_mut() {
            Some(d) if d.peer == out.dst && !d.exiting => {
                let seq = (d.next_seq % SEQ_SPACE) as u8;
                d.next_seq += 1;
                Some((d.dialog, seq))
            }
            _ => None,
        };
        if let Some((dialog, seq)) = bulk_fields {
            let exit = self.pool.iter().all(|q| q.dst != out.dst);
            pkt.wire = Wire::Data {
                bulk_request: false,
                bulk_exit: exit,
                bulk: Some(BulkTag { dialog, seq }),
                needs_ack: true,
                dup_bit: false,
                piggy_ack: piggy,
            };
            let wait = if self.cfg.retx_timeout.is_some() {
                Some(self.fresh_rto(out.dst))
            } else {
                None
            };
            if let Some(d) = self.out_dialog.as_mut() {
                if exit {
                    d.exiting = true;
                }
                if let Some(wait) = wait {
                    // The window admitted this send, and acked copies are
                    // pruned on ack receipt, so outstanding copies stay
                    // strictly under the window.
                    debug_assert!(self.copies.len() < usize::from(d.window));
                    self.copies.push_back(BulkCopy {
                        seq: d.next_seq - 1,
                        pkt: pkt.clone(),
                        first_sent: self.now,
                        last_sent: self.now,
                        retries: 0,
                        wait,
                    });
                }
            }
            self.stats.sent_bulk.incr();
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::BulkSend {
                    dst: out.dst,
                    dialog,
                    seq,
                    exit,
                }
            );
        } else {
            let request = out.want_bulk
                && self.out_dialog.is_none()
                && self.bulk_request_pending.is_none()
                && !self.bulk_poisoned(out.dst)
                && self.backlog_for(out.dst, usize::MAX)
                    >= usize::from(self.cfg.bulk_request_min_backlog);
            let dup_bit = if self.cfg.retx_timeout.is_some() {
                let state = self.peer_state_mut(out.dst);
                state.alt_bit = !state.alt_bit;
                state.alt_bit
            } else {
                false
            };
            pkt.wire = Wire::Data {
                bulk_request: request,
                bulk_exit: false,
                bulk: None,
                needs_ack: out.needs_ack,
                dup_bit,
                piggy_ack: piggy,
            };
            if out.needs_ack {
                let wait = self.fresh_rto(out.dst);
                self.opt.push(OptEntry {
                    dst: out.dst,
                    sent_at: self.now,
                    first_sent: self.now,
                    retries: 0,
                    wait,
                    dup_bit,
                    copy: self.cfg.retx_timeout.map(|_| pkt.clone()),
                });
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::OptInsert {
                        dst: out.dst,
                        occupancy: self.opt.len() as u32,
                    }
                );
            }
            if request {
                self.bulk_request_pending = Some(out.dst);
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::BulkRequest { dst: out.dst }
                );
            }
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::ScalarSend {
                    dst: out.dst,
                    size_words: out.size_words,
                }
            );
        }
        self.stats.sent.incr();
        Some(pkt)
    }

    /// Fires retransmission timers (§6.2), applying the adaptive-RTO backoff,
    /// the bounded staging queue, and the retry budget.
    fn check_retx(&mut self) {
        if self.cfg.retx_timeout.is_none() {
            return;
        }
        let budget = self.cfg.retx_budget;
        let cap = self.cfg.retx_queue_cap as usize;

        // Scalar OPT entries.
        let mut i = 0;
        while i < self.opt.len() {
            if self.now.saturating_since(self.opt[i].sent_at) < self.opt[i].wait {
                i += 1;
                continue;
            }
            if budget.is_some_and(|b| self.opt[i].retries >= b) {
                let e = self.opt.swap_remove(i);
                self.fail_scalar(e);
                continue; // swap_remove moved a new entry into index i
            }
            if self.retx_queue.len() >= cap {
                // Timer state untouched: the firing is deferred, not lost,
                // and re-fires as soon as the staging queue drains.
                self.stats.retx_queue_overflow.incr();
                i += 1;
                continue;
            }
            if let Some(copy) = self.opt[i].copy.clone() {
                self.retx_queue.push_back(copy);
                self.stats.retransmitted.incr();
                let (dst, retries) = (self.opt[i].dst, self.opt[i].retries + 1);
                let wait = self.backoff_rto(dst, retries);
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::Retransmit {
                        dst,
                        rto: wait,
                        retries,
                        bulk: false,
                        seq: 0,
                    }
                );
                let e = &mut self.opt[i];
                e.retries = retries;
                e.sent_at = self.now;
                e.wait = wait;
            } else {
                self.opt[i].sent_at = self.now;
            }
            i += 1;
        }

        // Bulk dialog copies; one exhausted copy tears the whole dialog down.
        // The ring is detached so the backoff below can borrow `self`.
        let Some(peer) = self.out_dialog.as_ref().map(|d| d.peer) else {
            return;
        };
        let mut copies = std::mem::take(&mut self.copies);
        let mut dead = false;
        for c in &mut copies {
            if self.now.saturating_since(c.last_sent) < c.wait {
                continue;
            }
            if budget.is_some_and(|b| c.retries >= b) {
                dead = true;
                break;
            }
            if self.retx_queue.len() >= cap {
                self.stats.retx_queue_overflow.incr();
                continue;
            }
            self.retx_queue.push_back(c.pkt.clone());
            self.stats.retransmitted.incr();
            c.retries += 1;
            c.last_sent = self.now;
            c.wait = self.backoff_rto(peer, c.retries);
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::Retransmit {
                    dst: peer,
                    rto: c.wait,
                    retries: c.retries,
                    bulk: true,
                    seq: (c.seq % SEQ_SPACE) as u8,
                }
            );
        }
        self.copies = copies;
        if dead {
            if let Some(d) = self.out_dialog.take() {
                self.teardown_dialog(d);
            }
        }
    }

    /// Abandons a scalar packet whose retry budget is exhausted.
    fn fail_scalar(&mut self, e: OptEntry) {
        self.stats.delivery_failures.incr();
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::DeliveryFail {
                dst: e.dst,
                retries: e.retries,
            }
        );
        if self.bulk_request_pending == Some(e.dst) {
            // The abandoned packet carried the bulk request; release the
            // latch so later traffic isn't stuck awaiting a grant that will
            // never come.
            self.bulk_request_pending = None;
        }
        self.failures.push(DeliveryFailure {
            src: self.node,
            dst: e.dst,
            at: self.now,
            retries: e.retries,
            kind: FailureKind::Scalar,
            user: e.copy.as_ref().map(|p| p.user),
        });
    }

    /// Tears down the outgoing bulk dialog after budget exhaustion: surfaces
    /// a typed failure, downgrades the peer to scalar-only, and discards
    /// staged retransmissions of the dead dialog.
    fn teardown_dialog(&mut self, d: OutDialog) {
        self.stats.dialogs_torn_down.incr();
        self.stats.delivery_failures.incr();
        self.peer_state_mut(d.peer).bulk_poisoned = true;
        let retries = self.copies.iter().map(|c| c.retries).max().unwrap_or(0);
        self.copies.clear();
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::DialogClose {
                peer: d.peer,
                dialog: d.dialog,
                end: DialogEnd::TornDown,
            }
        );
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::DeliveryFail {
                dst: d.peer,
                retries,
            }
        );
        self.failures.push(DeliveryFailure {
            src: self.node,
            dst: d.peer,
            at: self.now,
            retries,
            kind: FailureKind::BulkDialog {
                dialog: d.dialog,
                unacked: d.next_seq - d.acked,
            },
            user: None,
        });
        let peer = d.peer;
        self.retx_queue
            .retain(|p| !(p.dst == peer && matches!(p.wire, Wire::Data { bulk: Some(_), .. })));
    }

    /// Receiver-side garbage collection: a granted dialog whose sender has
    /// been silent longer than any retransmission schedule could span is
    /// reclaimed (the sender tore it down or failed), freeing the slot and
    /// letting the unit reach idle. Buffered out-of-order packets are lost —
    /// their gap can never be filled.
    fn reclaim_dialogs(&mut self) {
        let (Some(t), Some(budget)) = (self.cfg.retx_timeout, self.cfg.retx_budget) else {
            return;
        };
        let span = if self.cfg.adaptive_rto {
            self.cfg.rto_max
        } else {
            t
        };
        let limit = span.saturating_mul(u64::from(budget) + 4);
        for slot in 0..self.dialogs.len() {
            let Some(d) = &self.dialogs[slot] else {
                continue;
            };
            if self.now.saturating_since(d.last_activity) < limit {
                continue;
            }
            let peer = d.peer;
            let final_count = d.expected;
            self.stats.dialogs_reclaimed.incr();
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::DialogClose {
                    peer,
                    dialog: slot as u8,
                    end: DialogEnd::Reclaimed,
                }
            );
            self.closed[slot] = Some(ClosedDialog {
                peer,
                final_count,
                until: self.now + 4 * span,
            });
            self.dialogs[slot] = None;
            self.peer_state_mut(peer).dialog = None;
            self.clear_reorder(slot);
        }
    }

    /// Discards all protocol state entangled with `peer` after learning the
    /// peer's interface restarted (a supervision layer detects the new
    /// incarnation, e.g. via heartbeat epochs, and calls this).
    ///
    /// A restarted peer forgot every grant, sequence number, and duplicate
    /// bit it ever exchanged with us, so state on our side referring to the
    /// old incarnation is not just stale but *hazardous*:
    ///
    /// * an outgoing bulk dialog's sequence numbers are meaningless to the
    ///   new incarnation — the dialog is torn down (unacked packets surface
    ///   as a typed [`DeliveryFailure`](crate::DeliveryFailure)), but the
    ///   peer is *not* left bulk-poisoned: unlike a budget teardown, the
    ///   receiver's slot state is gone too, so a fresh handshake can
    ///   resynchronize;
    /// * a granted incoming dialog will never see its remaining packets —
    ///   the slot is freed immediately, without the usual tombstone (no old
    ///   incarnation survives to retransmit the tail);
    /// * remembered receive-side duplicate bits would silently swallow the
    ///   new incarnation's first packet as a "retransmission" — cleared;
    /// * queued acks toward the dead incarnation are dropped.
    ///
    /// Scalar packets in flight to `peer` are left in the OPT on purpose:
    /// the §6.2 retransmission machinery re-sends them and the fresh
    /// incarnation accepts them as new inserts, so they self-heal.
    pub fn reset_peer(&mut self, peer: NodeId) {
        // Sender side: tear down the outgoing dialog.
        if let Some(d) = self.out_dialog.take_if(|d| d.peer == peer) {
            self.teardown_dialog(d);
        }
        if self.bulk_request_pending == Some(peer) {
            // The grant this latch awaits died with the old incarnation.
            self.bulk_request_pending = None;
        }
        // Lift the poison (the peer's slate is clean, a new dialog can
        // work) and forget the old incarnation's duplicate bits and grant.
        // The alternating bit and the RTT estimate stay: they describe our
        // own sends and the path.
        let state = self.peer_state_mut(peer);
        state.bulk_poisoned = false;
        state.last_insert_bit = None;
        state.last_acked_bit = None;
        let slot = state.dialog.take();

        // Receiver side: free the granted slot without a tombstone.
        if let Some(slot) = slot.map(usize::from) {
            if self
                .dialogs
                .get(slot)
                .is_some_and(|d| d.as_ref().is_some_and(|d| d.peer == peer))
            {
                self.stats.dialogs_reclaimed.incr();
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::DialogClose {
                        peer,
                        dialog: slot as u8,
                        end: DialogEnd::Reclaimed,
                    }
                );
                if let Some(d) = self.dialogs.get_mut(slot) {
                    *d = None;
                }
                self.clear_reorder(slot);
            }
        }
        for c in self.closed.iter_mut() {
            if c.is_some_and(|c| c.peer == peer) {
                *c = None;
            }
        }
        self.ack_queue.retain(|a| a.dst != peer);
        self.ack_delay.retain(|(_, dst, _)| *dst != peer);
        self.wake_stale = true;
    }

    /// Derives the unit's [`Wakeup`] from its real protocol deadlines.
    ///
    /// `Now` conditions are states in which a step performs observable
    /// work with no timer involved: staged retransmissions awaiting a free
    /// lane, launchable (or newly stalled) pool packets, and in-order bulk
    /// packets ready to stream to the arrivals FIFO. Everything else is a
    /// stored deadline: the ack processing delay line, standalone-ack
    /// readiness (including the §6.1 piggyback hold), §6.2 retransmission
    /// timers, and the receiver-side dialog reclaim horizon.
    ///
    /// States with *no* wakeup are the reactive ones: packets outstanding
    /// in the OPT without timers, a pending bulk request, arrivals awaiting
    /// the processor's poll, and closed-dialog tombstones (checked lazily
    /// on the next grant decision) — each advances only when new input
    /// arrives through the driver, which re-queries `next_event` after
    /// delivering it.
    fn compute_wakeup(&self, now: Cycle) -> Wakeup {
        if !self.retx_queue.is_empty() {
            return Wakeup::Now;
        }
        // Pool work: something launchable — or a stall episode still to be
        // latched (the edge-triggered EligStall trace event is observable).
        if !self.pool.is_empty() && (!self.elig_stalled || self.pick_eligible().is_some()) {
            return Wakeup::Now;
        }
        for (slot, d) in self.dialogs.iter().enumerate() {
            let Some(d) = d else { continue };
            let cell = reorder_cell(self.cfg.window, slot, d.expected);
            if self.reorder.get(cell).is_some_and(Option::is_some) {
                return Wakeup::Now;
            }
        }
        let mut wake = Wakeup::Quiescent;
        // The delay line is pushed in ready order (arrival cycle plus a
        // constant), so the front is the earliest entry.
        if let Some((ready, _, _)) = self.ack_delay.front() {
            wake = wake.earliest(Wakeup::at_or_now(*ready, now));
        }
        let hold = self.cfg.piggyback_hold_cycles;
        for a in &self.ack_queue {
            let held = self.cfg.piggyback_acks && self.pool.iter().any(|p| p.dst == a.dst);
            let at = if held { a.ready_at + hold } else { a.ready_at };
            wake = wake.earliest(Wakeup::at_or_now(at, now));
        }
        // §6.2 timers exist only with a timeout configured (`check_retx`
        // returns early otherwise, so zero `wait` fields never mean "due").
        if let Some(t) = self.cfg.retx_timeout {
            for e in &self.opt {
                wake = wake.earliest(Wakeup::at_or_now(e.sent_at + e.wait, now));
            }
            for c in &self.copies {
                wake = wake.earliest(Wakeup::at_or_now(c.last_sent + c.wait, now));
            }
            if let Some(budget) = self.cfg.retx_budget {
                let span = if self.cfg.adaptive_rto {
                    self.cfg.rto_max
                } else {
                    t
                };
                let limit = span.saturating_mul(u64::from(budget) + 4);
                for d in self.dialogs.iter().flatten() {
                    wake = wake.earliest(Wakeup::at_or_now(d.last_activity + limit, now));
                }
            }
        }
        wake
    }
}

impl Nic for NifdyUnit {
    fn node(&self) -> NodeId {
        self.node
    }

    fn try_send(&mut self, pkt: OutboundPacket, now: Cycle) -> bool {
        let _ = now;
        if self.pool.len() >= self.cfg.pool_entries as usize {
            self.stats.send_rejected.incr();
            return false;
        }
        self.pool.push_back(pkt);
        self.wake_stale = true;
        true
    }

    fn has_deliverable(&self) -> bool {
        !self.arrivals.is_empty()
    }

    fn poll(&mut self, now: Cycle) -> Option<Delivered> {
        self.now = now;
        let pkt = self.arrivals.pop_front()?;
        // Freed arrivals space (and a possibly queued ack below) can move
        // the next wakeup earlier.
        self.wake_stale = true;
        let is_scalar = matches!(pkt.wire, Wire::Data { bulk: None, .. });
        if is_scalar && !self.cfg.ack_on_insert {
            self.ack_scalar(&pkt);
        }
        self.stats.delivered.incr();
        Some(Delivered {
            src: pkt.src,
            size_words: pkt.size_words,
            user: pkt.user,
        })
    }

    fn step(&mut self, fab: &mut dyn NetPort) {
        self.now = fab.now();

        // 0. Sparse stepping: when the cached wakeup says this cycle is a
        //    no-op and the fabric has nothing to eject for this node, skip
        //    the whole body. The cache is recomputed at the end of every
        //    full step and marked stale by every out-of-step mutation
        //    (`try_send`, `poll`, `reset_peer`), so the early-out is
        //    behaviour-preserving — verified differentially in the tests.
        if self.wake_cache_enabled
            && !self.wake_stale
            && !self.next_wake.is_due(self.now)
            && fab.peek_eject(self.node, Lane::Reply).is_none()
            && fab.peek_eject(self.node, Lane::Request).is_none()
        {
            return;
        }

        // 1. Consume acknowledgments (reply lane) through the processing
        //    delay line.
        while let Some(ack) = fab.eject(self.node, Lane::Reply) {
            let ready = self.now + u64::from(self.cfg.ack_proc_cycles);
            if let Wire::Ack(info) = ack.wire {
                self.ack_delay.push_back((ready, ack.src, info));
            }
        }
        while self
            .ack_delay
            .front()
            .is_some_and(|(r, _, _)| *r <= self.now)
        {
            let Some((_, from, info)) = self.ack_delay.pop_front() else {
                break;
            };
            self.handle_ack(from, info);
        }

        // 2. Pull data packets from the fabric.
        #[allow(clippy::while_let_loop)] // scalar branch breaks on backpressure
        loop {
            let Some(peek) = fab.peek_eject(self.node, Lane::Request) else {
                break;
            };
            match peek.wire {
                Wire::Data { bulk: Some(_), .. } => {
                    let Some(pkt) = fab.eject(self.node, Lane::Request) else {
                        debug_assert!(false, "peeked packet vanished");
                        break;
                    };
                    let Wire::Data {
                        bulk: Some(tag),
                        piggy_ack,
                        ..
                    } = pkt.wire
                    else {
                        // Peek promised a bulk data packet; drop the impostor.
                        debug_assert!(false, "peek/eject disagree on the packet");
                        continue;
                    };
                    if let Some(info) = piggy_ack {
                        let ready = self.now + u64::from(self.cfg.ack_proc_cycles);
                        // Bulk headers have no source bits (§3): name the
                        // sender from the dialog slot, falling back to the
                        // carried field for unknown slots (the ack is then
                        // ignored by `handle_ack` anyway).
                        let from = self.dialog_peer(tag.dialog as usize).unwrap_or(pkt.src);
                        self.ack_delay.push_back((ready, from, info));
                    }
                    self.receive_bulk(pkt, tag);
                }
                Wire::Data { bulk: None, .. } => {
                    if self.arrivals.len() >= self.cfg.arrivals_capacity as usize {
                        break; // backpressure into the fabric
                    }
                    let Some(pkt) = fab.eject(self.node, Lane::Request) else {
                        debug_assert!(false, "peeked packet vanished");
                        break;
                    };
                    if let Wire::Data {
                        piggy_ack: Some(info),
                        ..
                    } = pkt.wire
                    {
                        let ready = self.now + u64::from(self.cfg.ack_proc_cycles);
                        self.ack_delay.push_back((ready, pkt.src, info));
                    }
                    let accepted = self.receive_scalar(pkt);
                    debug_assert!(accepted, "space was checked");
                }
                Wire::Ack(_) => {
                    // Acks never travel on the request lane.
                    let _ = fab.eject(self.node, Lane::Request);
                    debug_assert!(false, "ack on request lane");
                }
            }
        }

        // 3. Stream reorder buffers to the processor FIFO, emitting window
        //    acks.
        self.drain_dialogs();

        // 4. Retransmission timers and the receiver-side reclaim watchdog.
        self.check_retx();
        self.reclaim_dialogs();

        // 5. Inject one standalone ack if the reply lane is free. With §6.1
        //    piggybacking, an ack whose destination has reverse data queued
        //    is held (briefly) so `launch` can carry it for free.
        if fab.can_inject(self.node, Lane::Reply) {
            let hold = self.cfg.piggyback_hold_cycles;
            let idx = self.ack_queue.iter().position(|a| {
                if a.ready_at > self.now {
                    return false;
                }
                if !self.cfg.piggyback_acks {
                    return true;
                }
                let reverse_data = self.pool.iter().any(|p| p.dst == a.dst);
                !reverse_data || self.now.saturating_since(a.ready_at) >= hold
            });
            if let Some(a) = idx.and_then(|idx| self.ack_queue.remove(idx)) {
                let id = self.next_packet_id();
                let ack = Packet::ack(id, self.node, a.dst, a.info);
                fab.inject(self.node, ack);
                self.stats.acks_sent.incr();
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::AckSend { dst: a.dst }
                );
            }
        }

        // 6. Inject one data packet if the request lane is free:
        //    retransmissions first, then the first eligible pool packet.
        if fab.can_inject(self.node, Lane::Request) {
            if let Some(copy) = self.retx_queue.pop_front() {
                fab.inject(self.node, copy);
                self.elig_stalled = false;
            } else if let Some(pkt) = self.pick_eligible().and_then(|i| self.launch(i)) {
                fab.inject(self.node, pkt);
                self.elig_stalled = false;
            } else if !self.pool.is_empty() {
                // Buffered work exists but nothing may launch: every queued
                // destination is blocked by the OPT or an exhausted window.
                // Edge-triggered (one event per stall episode) so a long
                // stall cannot flood the flight recorder and evict the
                // history that explains it.
                if !self.elig_stalled {
                    self.elig_stalled = true;
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::EligStall {
                            pool: self.pool.len() as u32,
                            opt: self.opt.len() as u32,
                        }
                    );
                }
            } else {
                self.elig_stalled = false;
            }
        }

        // 7. Refresh the wakeup cache from the post-step protocol state.
        self.next_wake = self.compute_wakeup(self.now);
        self.wake_stale = false;
    }

    fn is_idle(&self) -> bool {
        self.pool.is_empty()
            && self.retx_queue.is_empty()
            && self.ack_queue.is_empty()
            && self.ack_delay.is_empty()
            && self.opt.is_empty()
            && self.out_dialog.is_none()
            && self.arrivals.is_empty()
            && self.dialogs.iter().all(|d| d.is_none())
    }

    fn next_event(&self, now: Cycle) -> Wakeup {
        if self.wake_stale {
            self.compute_wakeup(now)
        } else {
            self.next_wake
        }
    }

    fn stats(&self) -> &NicStats {
        &self.stats
    }

    fn take_failures(&mut self) -> Vec<DeliveryFailure> {
        std::mem::take(&mut self.failures)
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn occupancy(&self) -> NicOccupancy {
        NicOccupancy {
            pool: self.pool.len() as u32,
            opt: self.opt.len() as u32,
            retx_queue: self.retx_queue.len() as u32,
            window_outstanding: self
                .out_dialog
                .as_ref()
                .map(|d| d.next_seq - d.acked)
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_net::topology::Mesh;
    use nifdy_net::{Fabric, FabricConfig, UserData};

    fn unit(cfg: NifdyConfig) -> NifdyUnit {
        NifdyUnit::new(NodeId::new(0), cfg)
    }

    /// Test shorthand for the four headline parameters; panics on invalid
    /// combinations, which is what a test wants.
    fn params(o: u8, b: u8, d: u8, w: u8) -> NifdyConfig {
        NifdyConfig::builder()
            .opt_entries(o)
            .pool_entries(b)
            .max_dialogs(d)
            .window(w)
            .build()
            .expect("test parameters must be valid")
    }

    fn fabric() -> Fabric {
        Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default())
    }

    #[test]
    fn grant_is_idempotent_for_the_same_peer() {
        let mut u = unit(params(4, 4, 2, 4));
        let peer = NodeId::new(3);
        let g1 = u.decide_grant(true, peer);
        let g2 = u.decide_grant(true, peer);
        assert_eq!(g1, g2, "duplicate requests must re-grant the same slot");
        match g1 {
            BulkGrant::Granted { window, .. } => assert_eq!(window, 4),
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(u.stats.dialogs_granted.get(), 1, "only one real grant");
    }

    #[test]
    fn grants_stop_at_the_dialog_limit() {
        let mut u = unit(params(4, 4, 2, 4));
        assert!(matches!(
            u.decide_grant(true, NodeId::new(1)),
            BulkGrant::Granted { .. }
        ));
        assert!(matches!(
            u.decide_grant(true, NodeId::new(2)),
            BulkGrant::Granted { .. }
        ));
        assert_eq!(u.decide_grant(true, NodeId::new(3)), BulkGrant::Rejected);
        assert_eq!(
            u.decide_grant(false, NodeId::new(4)),
            BulkGrant::NotRequested
        );
    }

    #[test]
    fn bulk_ack_reconstruction_handles_wraparound() {
        let mut u = unit(params(4, 4, 1, 8));
        let peer = NodeId::new(2);
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 8,
            next_seq: 300, // past the 256-value wire space
            acked: 252,
            exiting: false,
        });
        // Receiver acks through absolute 259: wire residue (259 - 1) % 256 = 2.
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 2,
                terminate: false,
            },
        );
        assert_eq!(u.out_dialog.as_ref().expect("open").acked, 259);
        // A stale ack (older residue) must be ignored, not regress.
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 250,
                terminate: false,
            },
        );
        assert_eq!(u.out_dialog.as_ref().expect("open").acked, 259);
    }

    #[test]
    fn bulk_ack_never_acknowledges_unsent_packets() {
        let mut u = unit(params(4, 4, 1, 8));
        let peer = NodeId::new(2);
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 8,
            next_seq: 4,
            acked: 0,
            exiting: false,
        });
        // cum 9 would mean 10 delivered > 4 sent: bogus, ignored.
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 9,
                terminate: false,
            },
        );
        assert_eq!(u.out_dialog.as_ref().expect("open").acked, 0);
    }

    #[test]
    fn exiting_dialog_closes_on_final_ack() {
        let mut u = unit(params(4, 4, 1, 4));
        let peer = NodeId::new(1);
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 4,
            next_seq: 10,
            acked: 8,
            exiting: true,
        });
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 9,
                terminate: false,
            },
        );
        assert!(
            u.out_dialog.is_none(),
            "dialog must close after the exit ack"
        );
    }

    #[test]
    fn scalar_ack_clears_exactly_one_opt_entry() {
        let mut u = unit(NifdyConfig::mesh());
        u.opt.push(OptEntry {
            dst: NodeId::new(1),
            sent_at: Cycle::ZERO,
            first_sent: Cycle::ZERO,
            retries: 0,
            wait: 0,
            dup_bit: false,
            copy: None,
        });
        u.opt.push(OptEntry {
            dst: NodeId::new(2),
            sent_at: Cycle::ZERO,
            first_sent: Cycle::ZERO,
            retries: 0,
            wait: 0,
            dup_bit: false,
            copy: None,
        });
        u.handle_ack(
            NodeId::new(1),
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
        );
        assert_eq!(u.opt_occupancy(), 1);
        assert_eq!(u.opt[0].dst, NodeId::new(2));
        // A stale duplicate ack is harmless.
        u.handle_ack(
            NodeId::new(1),
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
        );
        assert_eq!(u.opt_occupancy(), 1);
    }

    #[test]
    fn stale_scalar_ack_carries_no_grant() {
        // A re-ack for an earlier scalar (echo != the outstanding entry's
        // dup bit) must not open the dialog the pending request asked for:
        // bulk packets would overtake the scalar still in flight.
        let mut u = unit(NifdyConfig::mesh());
        let peer = NodeId::new(1);
        u.opt.push(OptEntry {
            dst: peer,
            sent_at: Cycle::ZERO,
            first_sent: Cycle::ZERO,
            retries: 0,
            wait: 0,
            dup_bit: true,
            copy: None,
        });
        u.bulk_request_pending = Some(peer);
        let granted = BulkGrant::Granted {
            dialog: 0,
            window: 4,
        };
        u.handle_ack(
            peer,
            AckInfo::Scalar {
                grant: granted,
                echo: false,
            },
        );
        assert!(u.out_dialog.is_none(), "stale ack opened a dialog");
        assert_eq!(u.bulk_request_pending, Some(peer), "request dropped");
        assert_eq!(u.opt_occupancy(), 1);
        // The matching ack clears the entry and opens the dialog.
        u.handle_ack(
            peer,
            AckInfo::Scalar {
                grant: granted,
                echo: true,
            },
        );
        assert_eq!(u.opt_occupancy(), 0);
        assert!(u.out_dialog.as_ref().is_some_and(|d| d.peer == peer));
        assert!(u.bulk_request_pending.is_none());
    }

    #[test]
    fn out_of_window_bulk_arrivals_are_dropped_and_reacked() {
        let mut u = unit(params(4, 4, 1, 4));
        let peer = NodeId::new(3);
        let grant = u.decide_grant(true, peer);
        let BulkGrant::Granted { dialog, .. } = grant else {
            panic!("grant expected");
        };
        // Deliver packet 0 in order.
        let mk = |seq: u8| {
            let mut p = Packet::data(PacketId::new(1), peer, NodeId::new(0), 8);
            p.wire = Wire::Data {
                bulk_request: false,
                bulk_exit: false,
                bulk: Some(BulkTag { dialog, seq }),
                needs_ack: true,
                dup_bit: false,
                piggy_ack: None,
            };
            p.user = UserData::default();
            p
        };
        u.receive_bulk(mk(0), BulkTag { dialog, seq: 0 });
        u.drain_dialogs();
        assert_eq!(u.arrivals.len(), 1);
        // A duplicate of seq 0 (now below the window) is discarded and the
        // cumulative ack refreshed.
        let acks_before = u.ack_queue.len();
        u.receive_bulk(mk(0), BulkTag { dialog, seq: 0 });
        assert_eq!(u.arrivals.len(), 1, "duplicate delivered");
        assert_eq!(u.stats.duplicates_dropped.get(), 1);
        assert!(u.ack_queue.len() > acks_before, "no re-ack queued");
    }

    /// A bulk packet of dialog `dialog` from `src`, tagged with the wire
    /// residue of absolute sequence `abs` and identified by `id`.
    fn bulk_pkt(src: NodeId, dialog: u8, abs: u64, id: u64, exit: bool) -> Packet {
        let seq = (abs % SEQ_SPACE) as u8;
        let mut p = Packet::data(PacketId::new(id), src, NodeId::new(0), 8);
        p.wire = Wire::Data {
            bulk_request: false,
            bulk_exit: exit,
            bulk: Some(BulkTag { dialog, seq }),
            needs_ack: true,
            dup_bit: false,
            piggy_ack: None,
        };
        p
    }

    fn granted_slot(u: &mut NifdyUnit, peer: NodeId) -> u8 {
        match u.decide_grant(true, peer) {
            BulkGrant::Granted { dialog, .. } => dialog,
            other => panic!("grant expected, got {other:?}"),
        }
    }

    /// Hands `pkt` to the receive side and streams what is in order.
    fn arrive(u: &mut NifdyUnit, pkt: Packet) {
        let Wire::Data {
            bulk: Some(tag), ..
        } = pkt.wire
        else {
            panic!("bulk packet expected");
        };
        u.receive_bulk(pkt, tag);
        u.drain_dialogs();
    }

    /// Ids of the packets in the arrivals FIFO, draining it.
    fn arrived(u: &mut NifdyUnit) -> Vec<u64> {
        u.arrivals.drain(..).map(|p| p.id.as_u64()).collect()
    }

    #[test]
    fn reorder_cells_release_out_of_order_arrivals_in_order() {
        let mut u = unit(params(4, 4, 1, 4).with_arrivals_capacity(8));
        let peer = NodeId::new(3);
        let slot = granted_slot(&mut u, peer);
        for abs in [2, 1, 3] {
            arrive(&mut u, bulk_pkt(peer, slot, abs, 100 + abs, false));
            assert!(
                arrived(&mut u).is_empty(),
                "seq {abs} released before seq 0"
            );
        }
        assert_eq!(u.stats.bulk_out_of_order.get(), 3);
        assert_eq!(u.compute_wakeup(u.now), Wakeup::Quiescent);
        arrive(&mut u, bulk_pkt(peer, slot, 0, 100, false));
        assert_eq!(arrived(&mut u), vec![100, 101, 102, 103]);
        assert!(u.reorder.iter().all(Option::is_none), "cells drained");
    }

    #[test]
    fn a_duplicate_in_the_window_keeps_the_first_copy() {
        let mut u = unit(params(4, 4, 1, 4).with_arrivals_capacity(8));
        let peer = NodeId::new(3);
        let slot = granted_slot(&mut u, peer);
        arrive(&mut u, bulk_pkt(peer, slot, 1, 1, false));
        arrive(&mut u, bulk_pkt(peer, slot, 1, 2, false));
        arrive(&mut u, bulk_pkt(peer, slot, 0, 0, false));
        assert_eq!(arrived(&mut u), vec![0, 1], "the first copy of seq 1 wins");
    }

    #[test]
    fn reorder_cells_follow_the_absolute_sequence_across_the_wire_wrap() {
        // W = 12 does not divide the 256-value wire space, so a cell
        // picked from the wire residue would collide after the wrap.
        let mut u = unit(params(4, 4, 2, 12).with_arrivals_capacity(64));
        let peer = NodeId::new(5);
        let slot = granted_slot(&mut u, peer);
        let mut got = Vec::new();
        for block in 0..50u64 {
            // Each block of 12 arrives back to front.
            for abs in (block * 12..(block + 1) * 12).rev() {
                arrive(&mut u, bulk_pkt(peer, slot, abs, abs, false));
            }
            got.extend(arrived(&mut u));
        }
        assert_eq!(got, (0..600).collect::<Vec<u64>>());
        assert_eq!(u.stats.duplicates_dropped.get(), 0);
    }

    /// Leaves one out-of-order packet (id 99, absolute seq 1) in `peer`'s
    /// reorder cells.
    fn buffer_a_gap(u: &mut NifdyUnit, peer: NodeId) -> u8 {
        let slot = granted_slot(u, peer);
        arrive(u, bulk_pkt(peer, slot, 1, 99, false));
        assert!(u.reorder.iter().any(Option::is_some));
        slot
    }

    /// Grants `slot` to `peer` afresh and checks that its first packet
    /// streams alone: no cell of the previous dialog survives.
    fn assert_fresh_slot(u: &mut NifdyUnit, peer: NodeId, slot: u8) {
        assert!(u.reorder.iter().all(Option::is_none), "stale cell kept");
        assert_eq!(granted_slot(u, peer), slot);
        arrive(u, bulk_pkt(peer, slot, 0, 7, false));
        assert_eq!(arrived(u), vec![7]);
        assert_ne!(u.compute_wakeup(u.now), Wakeup::Now, "no cell is ready");
    }

    #[test]
    fn a_reclaimed_slot_starts_with_empty_cells() {
        let mut u = unit(
            params(4, 4, 1, 4)
                .with_retx_timeout(10)
                .with_retx_budget(2)
                .with_arrivals_capacity(8),
        );
        let slot = buffer_a_gap(&mut u, NodeId::new(3));
        u.now = Cycle::new(10 * (2 + 4));
        u.reclaim_dialogs();
        assert_eq!(u.stats.dialogs_reclaimed.get(), 1);
        u.now = Cycle::new(1_000); // past the tombstone
        assert_fresh_slot(&mut u, NodeId::new(2), slot);
    }

    #[test]
    fn a_reset_peer_slot_starts_with_empty_cells() {
        let mut u = unit(params(4, 4, 1, 4).with_arrivals_capacity(8));
        let peer = NodeId::new(3);
        let slot = buffer_a_gap(&mut u, peer);
        u.reset_peer(peer);
        assert_fresh_slot(&mut u, peer, slot);
    }

    #[test]
    fn a_closed_slot_starts_with_empty_cells() {
        let mut u = unit(params(4, 4, 1, 4).with_arrivals_capacity(8));
        let peer = NodeId::new(3);
        let slot = granted_slot(&mut u, peer);
        // A stray packet past the exit waits in a cell when the dialog
        // closes.
        arrive(&mut u, bulk_pkt(peer, slot, 2, 99, false));
        arrive(&mut u, bulk_pkt(peer, slot, 1, 1, true));
        arrive(&mut u, bulk_pkt(peer, slot, 0, 0, false));
        assert_eq!(arrived(&mut u), vec![0, 1]);
        assert!(
            u.dialogs.iter().all(Option::is_none),
            "exit closed the slot"
        );
        assert_fresh_slot(&mut u, NodeId::new(2), slot);
    }

    #[test]
    fn pool_rejects_when_full_and_counts_it() {
        let mut u = unit(params(2, 2, 0, 2));
        let now = Cycle::ZERO;
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), now));
        assert!(!u.try_send(OutboundPacket::new(NodeId::new(3), 8), now));
        assert_eq!(u.stats().send_rejected.get(), 1);
    }

    #[test]
    fn eligibility_respects_fifo_per_destination() {
        let mut u = unit(params(4, 4, 0, 2));
        let now = Cycle::ZERO;
        // Two packets to node 1, one to node 2.
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), now));
        // First eligible is pool[0] (first to node 1).
        assert_eq!(u.pick_eligible(), Some(0));
        // Simulate launching it: node 1 now outstanding.
        let pkt = u.launch(0).expect("index in range");
        assert_eq!(pkt.dst, NodeId::new(1));
        // The second node-1 packet is blocked; node 2 is next eligible.
        let idx = u.pick_eligible().expect("node 2 eligible");
        assert_eq!(u.pool[idx].dst, NodeId::new(2));
    }

    #[test]
    fn no_ack_packets_are_always_eligible() {
        let mut u = unit(params(1, 4, 0, 2));
        let now = Cycle::ZERO;
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        let _ = u.launch(u.pick_eligible().expect("first"));
        // OPT (size 1) is now full; an acked packet to node 2 is blocked...
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), now));
        assert_eq!(u.pick_eligible(), None);
        // ...but a no-ack packet bypasses the OPT entirely.
        let mut p = OutboundPacket::new(NodeId::new(3), 8);
        p.needs_ack = false;
        assert!(u.try_send(p, now));
        let idx = u.pick_eligible().expect("bypass eligible");
        assert_eq!(u.pool[idx].dst, NodeId::new(3));
    }

    #[test]
    fn adaptive_rto_tracks_acked_round_trips() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(2_500)
                .with_adaptive_rto(true),
        );
        let dst = NodeId::new(1);
        assert_eq!(u.fresh_rto(dst), 2_500, "no samples yet: initial RTO");
        assert!(u.try_send(OutboundPacket::new(dst, 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        u.now = Cycle::new(80);
        u.handle_ack(
            dst,
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: true,
            },
        );
        assert_eq!(u.srtt(dst), Some(80));
        // rto = srtt + 4·rttvar = 80 + 4·40, within [rto_min, rto_max].
        assert_eq!(u.fresh_rto(dst), 240);
    }

    #[test]
    fn retransmitted_packets_do_not_feed_the_estimator() {
        // Karn's rule: an ack for a retransmitted packet is ambiguous.
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(10)
                .with_adaptive_rto(true),
        );
        let dst = NodeId::new(1);
        assert!(u.try_send(OutboundPacket::new(dst, 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        u.now = Cycle::new(10);
        u.check_retx();
        assert_eq!(u.stats.retransmitted.get(), 1);
        u.now = Cycle::new(5_000);
        u.handle_ack(
            dst,
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: true,
            },
        );
        assert_eq!(u.srtt(dst), None, "ambiguous sample must be discarded");
    }

    #[test]
    fn adaptive_backoff_grows_exponentially_to_the_cap() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(100)
                .with_adaptive_rto(true)
                .with_rto_bounds(32, 1_000),
        );
        let dst = NodeId::new(1);
        let w1 = u.backoff_rto(dst, 1);
        assert!((200..=225).contains(&w1), "doubled plus jitter, got {w1}");
        let w9 = u.backoff_rto(dst, 9);
        assert!(
            (1_000..=1_125).contains(&w9),
            "capped at rto_max plus jitter, got {w9}"
        );
    }

    #[test]
    fn scalar_retry_budget_surfaces_a_typed_failure() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(10)
                .with_retx_budget(2),
        );
        let dst = NodeId::new(2);
        assert!(u.try_send(OutboundPacket::new(dst, 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        for t in 1..=100u64 {
            u.now = Cycle::new(t * 10);
            u.check_retx();
        }
        assert_eq!(u.opt_occupancy(), 0, "entry abandoned, not retried forever");
        assert_eq!(u.stats.retransmitted.get(), 2, "budget bounds the retries");
        assert_eq!(u.stats.delivery_failures.get(), 1);
        let failures = u.take_failures();
        assert_eq!(failures.len(), 1);
        let f = failures[0];
        assert_eq!((f.dst, f.retries, f.kind), (dst, 2, FailureKind::Scalar));
        assert!(
            f.user.is_some(),
            "payload annotation travels with the failure"
        );
        assert!(u.take_failures().is_empty(), "failures drain exactly once");
    }

    #[test]
    fn bulk_budget_exhaustion_tears_down_and_poisons() {
        let mut u = unit(params(4, 4, 1, 4).with_retx_timeout(10).with_retx_budget(1));
        let peer = NodeId::new(3);
        let mut pkt = Packet::data(PacketId::new(9), NodeId::new(0), peer, 8);
        pkt.wire = Wire::Data {
            bulk_request: false,
            bulk_exit: false,
            bulk: Some(BulkTag { dialog: 0, seq: 1 }),
            needs_ack: true,
            dup_bit: false,
            piggy_ack: None,
        };
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 4,
            next_seq: 3,
            acked: 1,
            exiting: false,
        });
        u.copies.push_back(BulkCopy {
            seq: 1,
            pkt,
            first_sent: Cycle::ZERO,
            last_sent: Cycle::ZERO,
            retries: 1,
            wait: 10,
        });
        u.now = Cycle::new(50);
        u.check_retx();
        assert!(u.out_dialog.is_none(), "dialog torn down");
        assert!(u.bulk_poisoned(peer), "peer downgraded to scalar-only");
        assert_eq!(u.stats.dialogs_torn_down.get(), 1);
        let failures = u.take_failures();
        assert_eq!(
            failures[0].kind,
            FailureKind::BulkDialog {
                dialog: 0,
                unacked: 2
            }
        );
    }

    #[test]
    fn poisoned_peers_fall_back_to_scalar() {
        let mut u = unit(params(8, 8, 1, 4).with_retx_timeout(10).with_retx_budget(1));
        let dst = NodeId::new(2);
        u.peer_state_mut(dst).bulk_poisoned = true;
        for _ in 0..4 {
            assert!(u.try_send(OutboundPacket::new(dst, 8).with_bulk(true), Cycle::ZERO));
        }
        let pkt = u
            .launch(u.pick_eligible().expect("eligible"))
            .expect("index in range");
        assert!(
            matches!(
                pkt.wire,
                Wire::Data {
                    bulk_request: false,
                    ..
                }
            ),
            "poisoned peer must not be asked for a new dialog"
        );
        assert!(u.bulk_request_pending.is_none());
    }

    #[test]
    fn staging_queue_bound_defers_timer_firings() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(10)
                .with_retx_queue_cap(1),
        );
        let mk = |n: usize| OptEntry {
            dst: NodeId::new(n),
            sent_at: Cycle::ZERO,
            first_sent: Cycle::ZERO,
            retries: 0,
            wait: 10,
            dup_bit: false,
            copy: Some(Packet::data(
                PacketId::new(n as u64),
                NodeId::new(0),
                NodeId::new(n),
                8,
            )),
        };
        u.opt.push(mk(1));
        u.opt.push(mk(2));
        u.now = Cycle::new(20);
        u.check_retx();
        assert_eq!(u.retx_queue.len(), 1, "cap enforced");
        assert_eq!(u.stats.retx_queue_overflow.get(), 1);
        let deferred = u.opt.iter().find(|e| e.retries == 0).expect("deferred");
        assert_eq!(deferred.sent_at, Cycle::ZERO, "deferred firing keeps state");
        // Once the queue drains, the deferred entry fires immediately.
        u.retx_queue.clear();
        u.check_retx();
        assert_eq!(u.stats.retransmitted.get(), 2);
    }

    #[test]
    fn silent_granted_dialog_is_reclaimed() {
        let mut u = unit(params(4, 4, 1, 4).with_retx_timeout(10).with_retx_budget(2));
        let peer = NodeId::new(3);
        assert!(matches!(
            u.decide_grant(true, peer),
            BulkGrant::Granted { .. }
        ));
        assert!(!u.is_idle(), "granted slot keeps the unit busy");
        u.now = Cycle::new(10 * (2 + 4)); // span · (budget + 4)
        u.reclaim_dialogs();
        assert!(u.dialogs.iter().all(|d| d.is_none()), "slot reclaimed");
        assert_eq!(u.stats.dialogs_reclaimed.get(), 1);
        assert!(u.closed[0].is_some(), "tombstone left for late duplicates");
        assert!(u.is_idle());
    }

    #[test]
    fn is_idle_reflects_every_queue() {
        let mut fab = fabric();
        let mut u = unit(NifdyConfig::mesh());
        assert!(u.is_idle());
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), fab.now()));
        assert!(!u.is_idle(), "pool occupancy must show");
        u.step(&mut fab);
        assert!(!u.is_idle(), "outstanding OPT entry must show");
    }

    #[test]
    fn next_event_is_quiescent_only_when_nothing_can_happen() {
        let u = unit(NifdyConfig::mesh());
        assert_eq!(u.next_event(Cycle::ZERO), Wakeup::Quiescent);
        // Pool work is immediate.
        let mut u = unit(NifdyConfig::mesh());
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
        assert_eq!(u.next_event(Cycle::ZERO), Wakeup::Now);
        // A packet outstanding in the OPT without timers is purely
        // reactive: the unit waits on the fabric, not on a clock.
        let mut u = unit(NifdyConfig::mesh());
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
        let mut fab = fabric();
        u.step(&mut fab);
        assert_eq!(u.opt_occupancy(), 1);
        assert_eq!(u.next_event(fab.now()), Wakeup::Quiescent);
    }

    #[test]
    fn next_event_exposes_retransmission_deadlines() {
        let mut u = unit(NifdyConfig::mesh().with_retx_timeout(500));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        assert_eq!(
            u.next_event(Cycle::ZERO),
            Wakeup::At(Cycle::new(500)),
            "the OPT timer is the only pending deadline"
        );
        assert_eq!(
            u.next_event(Cycle::new(500)),
            Wakeup::Now,
            "a due deadline collapses to Now"
        );
    }

    #[test]
    fn next_event_exposes_ack_processing_deadlines() {
        let mut u = unit(NifdyConfig::mesh());
        u.now = Cycle::new(100);
        u.queue_ack(
            NodeId::new(2),
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
        );
        u.wake_stale = true;
        let ready = Cycle::new(100 + u64::from(u.cfg.ack_proc_cycles));
        assert_eq!(u.next_event(Cycle::new(100)), Wakeup::At(ready));
    }

    #[test]
    fn next_event_latched_stall_waits_for_an_ack() {
        // OPT of one, two destinations queued: after the first launch the
        // second pool packet is blocked, and once the stall episode is
        // latched the unit has no self-driven work left.
        let mut u = unit(params(1, 4, 0, 2));
        let mut fab = fabric();
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), fab.now()));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), fab.now()));
        u.step(&mut fab); // launches the first packet
        assert_eq!(
            u.next_event(fab.now()),
            Wakeup::Now,
            "stall episode not latched yet: the trace event is still owed"
        );
        for _ in 0..100 {
            fab.step();
            u.step(&mut fab);
            if u.elig_stalled {
                break;
            }
        }
        assert!(u.elig_stalled, "stall episode latches once the lane frees");
        assert_eq!(u.next_event(fab.now()), Wakeup::Quiescent);
    }

    #[test]
    fn wakeup_cache_early_out_is_behaviour_preserving() {
        // Two identical 4-node replicas under a scripted random workload,
        // one with the sparse-stepping cache disabled. Every delivery (and
        // its cycle) plus the final counters must match exactly.
        let run = |cache: bool| {
            let cfg = NifdyConfig::mesh()
                .with_retx_timeout(400)
                .with_adaptive_rto(true)
                .with_retx_budget(6);
            let mut fab = fabric();
            let mut units: Vec<NifdyUnit> = (0..4usize)
                .map(|n| {
                    let mut u = NifdyUnit::new(NodeId::new(n), cfg.clone());
                    u.wake_cache_enabled = cache;
                    u
                })
                .collect();
            let mut rng = SimRng::from_seed_stream(7, 0);
            let mut deliveries: Vec<(u64, usize, usize)> = Vec::new();
            for t in 0..8_000u64 {
                if t % 61 == 0 {
                    let src = rng.gen_range_u64(0..4) as usize;
                    let dst = (src + 1 + rng.gen_range_u64(0..3) as usize) % 4;
                    let _ = units[src].try_send(
                        OutboundPacket::new(NodeId::new(dst), 8).with_bulk(t % 183 == 0),
                        fab.now(),
                    );
                }
                for u in units.iter_mut() {
                    u.step(&mut fab);
                }
                fab.step();
                for (n, u) in units.iter_mut().enumerate() {
                    if let Some(d) = u.poll(fab.now()) {
                        deliveries.push((fab.now().as_u64(), n, d.src.index()));
                    }
                }
            }
            let fps: Vec<u64> = units
                .iter()
                .map(|u| u.stats().progress_fingerprint())
                .collect();
            (deliveries, fps)
        };
        assert_eq!(run(true), run(false));
    }
}
