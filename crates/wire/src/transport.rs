//! Frame carriers: the [`Transport`] trait and the deterministic in-process
//! loopback backend.
//!
//! A transport moves *encoded frames* (byte strings from
//! [`codec::encode`](crate::codec::encode)) between nodes on the two lanes.
//! It makes no ordering promise beyond best effort: NIFDY itself tolerates
//! reordering (that is the point of the protocol), and the loopback backend
//! can be configured with seeded delivery jitter precisely to exercise the
//! reorder machinery while staying bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId, SimRng};

/// One node's attachment to a frame carrier.
///
/// The transport also owns the node's notion of time: the loopback backend
/// shares one hub clock across all endpoints (cycle-synchronous, like the
/// simulator), while the UDP backend free-runs a local cycle counter per
/// node (each node is its own clock domain, like real hardware).
pub trait Transport: Send {
    /// The local node this endpoint serves.
    fn node(&self) -> NodeId;

    /// The endpoint's current cycle.
    fn now(&self) -> Cycle;

    /// One tick of endpoint-local work: advance a free-running clock, pump
    /// sockets. The loopback backend does nothing here — its shared hub
    /// clock advances via [`LoopbackHub::tick`].
    fn tick(&mut self);

    /// Queues an encoded frame for delivery to `dst` on `lane`. Best
    /// effort: a transport may drop (UDP) or delay (loopback jitter), never
    /// corrupt.
    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>);

    /// The next frame delivered to this node on `lane`, if any.
    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>>;
}

/// Batched frame I/O for carriers that serve many logical endpoints at
/// once (the `nifdy-node` daemon's poll loop).
///
/// The default methods are plain loops over [`Transport::recv`] and
/// [`Transport::send`], so every transport gets the batched interface for
/// free and tests share one code path with production carriers. Backends
/// override them when a real economy exists: the loopback hub takes its
/// lock once per batch instead of once per frame, and the UDP transport
/// coalesces the peer-address lookup across consecutive frames to the same
/// destination.
pub trait BatchTransport: Transport {
    /// Drains up to `max` frames delivered to this node on `lane` into
    /// `out`, returning how many were appended. A bounded batch keeps one
    /// busy socket from starving the rest of a daemon's poll round.
    fn recv_batch(&mut self, lane: Lane, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let mut n = 0;
        while n < max {
            match self.recv(lane) {
                Some(frame) => {
                    out.push(frame);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Sends every queued `(dst, lane, frame)` in order, draining the
    /// vector (so callers can reuse its allocation round after round).
    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        for (dst, lane, frame) in frames.drain(..) {
            self.send(dst, lane, frame);
        }
    }
}

/// In-flight frames for one destination as a min-heap on `(deliver_at,
/// seq)`: delivery cycle, then global send sequence, so delivery order is
/// deterministic even under jitter. `seq` is unique, so the frame bytes
/// never take part in the order. Popping keeps the heap's allocation for
/// the next round.
type DeliveryQueue = BinaryHeap<Reverse<(u64, u64, Vec<u8>)>>;

#[derive(Debug)]
struct HubInner {
    now: Cycle,
    latency: u64,
    jitter: Option<(SimRng, u64)>,
    seq: u64,
    /// `queues[node][lane]`.
    queues: Vec<[DeliveryQueue; 2]>,
}

impl HubInner {
    /// Stamps `frame` with its delivery cycle and send sequence and queues
    /// it for `dst`.
    fn enqueue(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        let mut deliver_at = self.now.as_u64() + self.latency;
        if let Some((rng, max_extra)) = &mut self.jitter {
            deliver_at += rng.next_u64() % (*max_extra + 1);
        }
        let seq = self.seq;
        self.seq += 1;
        let Some(queue) = self.queue_mut(dst, lane) else {
            // Like a datagram to an unbound port: nobody can receive it.
            debug_assert!(false, "frame for node {dst} outside the hub's range");
            return;
        };
        queue.push(Reverse((deliver_at, seq, frame)));
    }

    /// The earliest frame queued for `node` on `lane`, if it is due.
    fn dequeue(&mut self, node: NodeId, lane: Lane) -> Option<Vec<u8>> {
        let now = self.now.as_u64();
        let queue = self.queue_mut(node, lane)?;
        let Reverse((deliver_at, _, _)) = queue.peek()?;
        if *deliver_at > now {
            return None;
        }
        queue.pop().map(|Reverse((_, _, frame))| frame)
    }

    fn queue_mut(&mut self, node: NodeId, lane: Lane) -> Option<&mut DeliveryQueue> {
        self.queues
            .get_mut(node.index())
            .and_then(|lanes| lanes.get_mut(lane.index()))
    }
}

/// A deterministic in-process frame exchange shared by N [`LoopbackTransport`]
/// endpoints.
///
/// Every frame sent at hub cycle `t` is deliverable at `t + latency`
/// (plus seeded jitter when configured). With the same seed and the same
/// sequence of sends, delivery order is bit-for-bit reproducible — the
/// property the sim-vs-wire differential conformance suite rests on.
///
/// # Examples
///
/// ```
/// use nifdy_net::Lane;
/// use nifdy_sim::NodeId;
/// use nifdy_wire::{LoopbackHub, Transport};
///
/// let hub = LoopbackHub::new(2, 3);
/// let mut a = hub.endpoint(NodeId::new(0));
/// let mut b = hub.endpoint(NodeId::new(1));
/// a.send(NodeId::new(1), Lane::Request, vec![1, 2, 3]);
/// assert!(b.recv(Lane::Request).is_none(), "still in flight");
/// for _ in 0..3 {
///     hub.tick();
/// }
/// assert_eq!(b.recv(Lane::Request), Some(vec![1, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct LoopbackHub {
    inner: Arc<Mutex<HubInner>>,
}

impl LoopbackHub {
    /// Creates a hub for `nodes` endpoints with a fixed `latency` in cycles
    /// from send to earliest delivery.
    pub fn new(nodes: usize, latency: u64) -> Self {
        LoopbackHub {
            inner: Arc::new(Mutex::new(HubInner {
                now: Cycle::ZERO,
                latency,
                jitter: None,
                seq: 0,
                queues: (0..nodes)
                    .map(|_| [BinaryHeap::new(), BinaryHeap::new()])
                    .collect(),
            })),
        }
    }

    /// Adds seeded delivery jitter: each frame's latency is extended by a
    /// uniform draw from `0..=max_extra` cycles. Different frames to the
    /// same destination can overtake each other — deliberate, deterministic
    /// reordering to exercise the protocol's window machinery.
    pub fn with_jitter(self, seed: u64, max_extra: u64) -> Self {
        {
            let mut inner = self.lock();
            inner.jitter =
                (max_extra > 0).then(|| (SimRng::from_seed_stream(seed, 0x17e), max_extra));
        }
        self
    }

    /// Advances the shared hub clock by one cycle.
    pub fn tick(&self) {
        self.lock().now += 1;
    }

    /// The shared hub clock.
    pub fn now(&self) -> Cycle {
        self.lock().now
    }

    /// The earliest cycle at which any in-flight frame becomes deliverable,
    /// if one exists. An event-driven driver folds this into its wakeup
    /// computation: [`WireEndpoint::next_event`](crate::WireEndpoint::next_event)
    /// cannot see frames still inside the transport, so the hub must be
    /// consulted for them.
    pub fn next_delivery(&self) -> Option<u64> {
        self.lock()
            .queues
            .iter()
            .flat_map(|lanes| lanes.iter())
            .filter_map(|q| q.peek().map(|Reverse((at, _, _))| *at))
            .min()
    }

    /// Frames currently in flight or awaiting [`Transport::recv`], across
    /// all nodes (drain/termination checks).
    pub fn in_flight(&self) -> usize {
        self.lock()
            .queues
            .iter()
            .map(|lanes| lanes[0].len() + lanes[1].len())
            .sum()
    }

    /// Creates the endpoint for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the hub's node range.
    pub fn endpoint(&self, node: NodeId) -> LoopbackTransport {
        assert!(
            node.index() < self.lock().queues.len(),
            "node {node} outside the hub's range"
        );
        LoopbackTransport {
            node,
            inner: Arc::clone(&self.inner),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// One node's endpoint on a [`LoopbackHub`].
#[derive(Debug)]
pub struct LoopbackTransport {
    node: NodeId,
    inner: Arc<Mutex<HubInner>>,
}

impl LoopbackTransport {
    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Transport for LoopbackTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> Cycle {
        self.lock().now
    }

    fn tick(&mut self) {
        // Time is the hub's: LoopbackHub::tick advances all endpoints at once.
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        self.lock().enqueue(dst, lane, frame);
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.lock().dequeue(self.node, lane)
    }
}

impl BatchTransport for LoopbackTransport {
    /// Lock-once batch drain: one hub-mutex acquisition per batch instead
    /// of one per frame.
    fn recv_batch(&mut self, lane: Lane, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let mut inner = self.lock();
        let mut n = 0;
        while n < max {
            match inner.dequeue(self.node, lane) {
                Some(frame) => {
                    out.push(frame);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Lock-once coalesced flush of a whole send batch.
    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        let mut inner = self.lock();
        for (dst, lane, frame) in frames.drain(..) {
            inner.enqueue(dst, lane, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_holds_frames_until_due() {
        let hub = LoopbackHub::new(2, 5);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        a.send(NodeId::new(1), Lane::Request, vec![42]);
        for _ in 0..4 {
            hub.tick();
            assert!(b.recv(Lane::Request).is_none());
        }
        hub.tick();
        assert_eq!(b.recv(Lane::Request), Some(vec![42]));
        assert_eq!(hub.in_flight(), 0);
    }

    #[test]
    fn lanes_are_independent() {
        let hub = LoopbackHub::new(2, 0);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        a.send(NodeId::new(1), Lane::Reply, vec![1]);
        hub.tick();
        assert!(b.recv(Lane::Request).is_none());
        assert_eq!(b.recv(Lane::Reply), Some(vec![1]));
    }

    #[test]
    fn batch_recv_is_bounded_and_batch_send_delivers() {
        let hub = LoopbackHub::new(2, 1);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        let mut batch: Vec<(NodeId, Lane, Vec<u8>)> = (0..5u8)
            .map(|i| (NodeId::new(1), Lane::Request, vec![i]))
            .collect();
        a.send_batch(&mut batch);
        assert!(batch.is_empty(), "send_batch drains the queue");
        hub.tick();
        let mut out = Vec::new();
        assert_eq!(b.recv_batch(Lane::Request, 3, &mut out), 3, "bounded");
        assert_eq!(b.recv_batch(Lane::Request, 8, &mut out), 2, "remainder");
        let got: Vec<u8> = out.iter().map(|f| f[0]).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "send order preserved");
    }

    #[test]
    fn next_delivery_reports_the_earliest_in_flight_frame() {
        let hub = LoopbackHub::new(2, 5);
        let mut a = hub.endpoint(NodeId::new(0));
        assert_eq!(hub.next_delivery(), None, "empty hub has no deadline");
        a.send(NodeId::new(1), Lane::Request, vec![1]);
        hub.tick();
        a.send(NodeId::new(1), Lane::Reply, vec![2]);
        assert_eq!(hub.next_delivery(), Some(5), "earliest across lanes");
        let mut b = hub.endpoint(NodeId::new(1));
        for _ in 0..5 {
            hub.tick();
        }
        assert!(b.recv(Lane::Request).is_some());
        assert_eq!(hub.next_delivery(), Some(6), "remaining frame's deadline");
    }

    #[test]
    fn jittered_frames_leave_in_deadline_then_send_order() {
        let hub = LoopbackHub::new(2, 2).with_jitter(11, 3);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        // The deadline the hub stamped on the frame just sent.
        let last_deadline = || {
            let inner = hub.lock();
            inner.queues[1][0]
                .iter()
                .find(|Reverse((_, seq, _))| seq + 1 == inner.seq)
                .map(|Reverse((at, _, _))| *at)
                .expect("frame just sent")
        };
        let mut sent: Vec<(u64, u16)> = Vec::new();
        let mut got: Vec<u16> = Vec::new();
        for i in 0..240u16 {
            if i % 8 == 0 {
                hub.tick();
                while let Some(f) = b.recv(Lane::Request) {
                    got.push(u16::from_le_bytes([f[0], f[1]]));
                }
            }
            if i % 3 == 0 {
                a.send_batch(&mut vec![(
                    NodeId::new(1),
                    Lane::Request,
                    i.to_le_bytes().to_vec(),
                )]);
            } else {
                a.send(NodeId::new(1), Lane::Request, i.to_le_bytes().to_vec());
            }
            sent.push((last_deadline(), i));
        }
        for _ in 0..8 {
            hub.tick();
            let mut out = Vec::new();
            b.recv_batch(Lane::Request, usize::MAX, &mut out);
            got.extend(out.iter().map(|f| u16::from_le_bytes([f[0], f[1]])));
        }
        let ties = sent.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(ties > 0, "equal deadlines must occur for the FIFO check");
        assert_ne!(got, (0..240).collect::<Vec<u16>>(), "jitter reorders");
        sent.sort();
        let want: Vec<u16> = sent.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, want, "delivery order is (deadline, send order)");
    }

    #[test]
    fn jitter_is_deterministic_and_can_reorder() {
        let run = |seed: u64| {
            let hub = LoopbackHub::new(2, 2).with_jitter(seed, 16);
            let mut a = hub.endpoint(NodeId::new(0));
            let mut b = hub.endpoint(NodeId::new(1));
            for i in 0..32u8 {
                a.send(NodeId::new(1), Lane::Request, vec![i]);
            }
            let mut got = Vec::new();
            for _ in 0..64 {
                hub.tick();
                while let Some(f) = b.recv(Lane::Request) {
                    got.push(f[0]);
                }
            }
            assert_eq!(got.len(), 32, "everything eventually delivers");
            got
        };
        let first = run(7);
        assert_eq!(first, run(7), "same seed, same delivery order");
        let sorted: Vec<u8> = (0..32).collect();
        assert_ne!(first, sorted, "jitter actually reorders");
    }
}
