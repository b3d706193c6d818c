//! Endpoint liveness and crash recovery: heartbeat beacons, peer-restart
//! detection, and a supervised run loop with bounded jittered backoff.
//!
//! The protocol unit assumes its peer's interface state is durable — bulk
//! dialogs, duplicate bits, and grants all persist "forever" in the paper's
//! model. A real endpoint crashes. This module layers the recovery protocol
//! on top of [`WireEndpoint`] without touching the protocol machine:
//!
//! * every endpoint incarnation carries an [`Epoch`], announced in periodic
//!   [`Heartbeat`](crate::Heartbeat) control frames on the reply lane;
//! * a [`SupervisedEndpoint`] tracks each watched peer's last-heard cycle
//!   and epoch: prolonged silence flags the peer down (a `PeerDown` trace
//!   event), and a **later epoch** (serial-number order, so `u32::MAX` → 0
//!   counts) proves the peer restarted — the
//!   survivor then calls [`NifdyUnit::reset_peer`](nifdy::NifdyUnit::reset_peer), tearing down dialogs
//!   entangled with the dead incarnation so both sides can re-handshake
//!   from a clean slate (`PeerRestart`);
//! * a [`Supervisor`] owns an endpoint factory and restarts a killed
//!   endpoint after a bounded, seeded-jitter backoff
//!   (`min(base·2ᵃᵗᵗᵉᵐᵖᵗˢ, max) + jitter`), bumping the epoch each time
//!   (`EndpointRestart`).
//!
//! Silence alone never resets protocol state: a partitioned peer that
//! reappears with the *same* epoch resumes exactly where it left off (its
//! retransmission machinery self-heals), which is why detection keys on the
//! epoch, not the timeout.

use std::collections::BTreeMap;

use nifdy_sim::{Cycle, NodeId, SimRng, Wakeup};
use nifdy_trace::{trace_event, EventKind, TraceHandle};

use crate::codec::Epoch;
use crate::endpoint::WireEndpoint;
use crate::transport::Transport;

/// Stream id for the supervisor's backoff jitter, decorrelated from the
/// chaos plane (`0xFA27_xxxx`) and the loopback jitter stream (`0x17e`).
const SUPERVISOR_STREAM: u64 = 0xBAC0_0000;

/// Timing knobs for heartbeats, liveness detection, and restart backoff,
/// all in cycles.
///
/// # Examples
///
/// ```
/// use nifdy_wire::SupervisorConfig;
///
/// let cfg = SupervisorConfig::default().with_heartbeat_every(128);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Cycles between heartbeat broadcasts to every watched peer.
    pub heartbeat_every: u64,
    /// Silence (no frame *or* heartbeat) after which a peer is flagged down.
    pub peer_timeout: u64,
    /// Backoff before the first restart attempt.
    pub backoff_base: u64,
    /// Upper bound on the exponential backoff.
    pub backoff_max: u64,
    /// Uniform seeded jitter `0..=backoff_jitter` added to each backoff, so
    /// simultaneously-killed endpoints do not restart in lockstep.
    pub backoff_jitter: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_every: 256,
            peer_timeout: 2_048,
            backoff_base: 64,
            backoff_max: 4_096,
            backoff_jitter: 32,
        }
    }
}

impl SupervisorConfig {
    /// Sets the heartbeat broadcast period.
    pub fn with_heartbeat_every(mut self, cycles: u64) -> Self {
        self.heartbeat_every = cycles;
        self
    }

    /// Sets the peer-silence threshold.
    pub fn with_peer_timeout(mut self, cycles: u64) -> Self {
        self.peer_timeout = cycles;
        self
    }

    /// Sets the restart backoff parameters.
    pub fn with_backoff(mut self, base: u64, max: u64, jitter: u64) -> Self {
        self.backoff_base = base;
        self.backoff_max = max;
        self.backoff_jitter = jitter;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: a zero
    /// heartbeat period, a timeout that a healthy peer's own heartbeat
    /// cadence would trip, a backoff cap below its base, or a jitter
    /// wider than the cap.
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_every == 0 {
            return Err("heartbeat_every must be at least 1 cycle".into());
        }
        if self.peer_timeout <= 2 * self.heartbeat_every {
            return Err(format!(
                "peer_timeout ({}) must exceed two heartbeat periods ({}): \
                 one lost beacon would otherwise flap the peer down",
                self.peer_timeout,
                2 * self.heartbeat_every
            ));
        }
        if self.backoff_base == 0 {
            return Err("backoff_base must be at least 1 cycle".into());
        }
        if self.backoff_max < self.backoff_base {
            return Err("backoff_max must be >= backoff_base".into());
        }
        if self.backoff_jitter > self.backoff_max {
            return Err("backoff_jitter must not exceed backoff_max: jitter \
                 wider than the cap makes the bound meaningless"
                .into());
        }
        Ok(())
    }
}

/// A liveness transition observed by a [`SupervisedEndpoint`], drained via
/// [`SupervisedEndpoint::take_peer_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// A watched peer has been silent past the timeout.
    Down {
        /// The silent peer.
        peer: NodeId,
        /// Cycles since its last heartbeat.
        silent_for: u64,
    },
    /// A watched peer reappeared with a later epoch: it crashed and
    /// restarted, and the entangled protocol state has been reset.
    Restarted {
        /// The restarted peer.
        peer: NodeId,
        /// Its new incarnation's epoch.
        epoch: Epoch,
    },
}

/// Per-peer liveness bookkeeping.
#[derive(Debug, Clone, Copy)]
struct PeerState {
    last_heard: Cycle,
    epoch: Epoch,
    down: bool,
}

/// A [`WireEndpoint`] with the liveness protocol attached: broadcasts
/// epoch-stamped heartbeats, tracks watched peers, and resets protocol
/// state when a peer provably restarted.
#[derive(Debug)]
pub struct SupervisedEndpoint<T: Transport> {
    ep: WireEndpoint<T>,
    cfg: SupervisorConfig,
    epoch: Epoch,
    watched: Vec<NodeId>,
    peers: BTreeMap<NodeId, PeerState>,
    /// When the last heartbeat broadcast went out (`None` = never, so the
    /// first step announces immediately — crucial after a restart).
    last_beat: Option<Cycle>,
    events: Vec<PeerEvent>,
    trace: TraceHandle,
}

impl<T: Transport> SupervisedEndpoint<T> {
    /// Wraps an endpoint as incarnation `epoch` of its node.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SupervisorConfig::validate`].
    pub fn new(ep: WireEndpoint<T>, cfg: SupervisorConfig, epoch: Epoch) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("invalid supervisor config: {why}");
        }
        SupervisedEndpoint {
            ep,
            cfg,
            epoch,
            watched: Vec::new(),
            peers: BTreeMap::new(),
            last_beat: None,
            events: Vec::new(),
            trace: TraceHandle::off(),
        }
    }

    /// Adds a peer to the heartbeat broadcast and liveness watch list.
    pub fn watch(&mut self, peer: NodeId) {
        if !self.watched.contains(&peer) {
            self.watched.push(peer);
        }
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Connects endpoint and supervision events to a flight recorder.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.ep.attach_trace(trace.clone());
        self.trace = trace;
    }

    /// Drains liveness transitions observed since the last call.
    pub fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether `peer` is currently flagged down.
    pub fn peer_down(&self, peer: NodeId) -> bool {
        self.peers.get(&peer).is_some_and(|p| p.down)
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &WireEndpoint<T> {
        &self.ep
    }

    /// The wrapped endpoint, mutably (send/poll traffic through it).
    pub fn endpoint_mut(&mut self) -> &mut WireEndpoint<T> {
        &mut self.ep
    }

    /// One cycle: protocol step, then the liveness pass — consume arrived
    /// heartbeats (detecting restarts), broadcast our own beacon when due,
    /// and flag peers that fell silent.
    pub fn step(&mut self) {
        self.ep.step();
        let now = self.ep.now();
        let me = self.ep.node();
        self.consume_heartbeats(now, me);
        self.broadcast(now, me);
        self.check_silence(now, me);
    }

    /// When this supervised endpoint next needs a [`step`](Self::step),
    /// under the [`Wakeup`] contract: the earliest of the protocol unit's
    /// own wakeup, the next heartbeat-broadcast deadline, and the earliest
    /// watched peer's silence deadline. Frames still inside the transport
    /// are invisible here, exactly as for [`WireEndpoint::next_event`] — an
    /// event-driven driver must also consult the transport's clock.
    pub fn next_event(&self) -> Wakeup {
        let now = self.ep.now();
        let mut wake = self.ep.next_event();
        wake = wake.earliest(match self.last_beat {
            // Never beaten: the next step broadcasts immediately.
            None => Wakeup::Now,
            Some(at) => Wakeup::at_or_now(at + self.cfg.heartbeat_every, now),
        });
        for state in self.peers.values() {
            if !state.down {
                wake = wake.earliest(Wakeup::at_or_now(
                    state.last_heard + self.cfg.peer_timeout,
                    now,
                ));
            }
        }
        wake
    }

    /// Applies every heartbeat the port decoded this cycle.
    fn consume_heartbeats(&mut self, now: Cycle, me: NodeId) {
        for hb in self.ep.port_mut().take_heartbeats() {
            trace_event!(
                self.trace,
                now,
                me,
                EventKind::Heartbeat {
                    peer: hb.src,
                    epoch: hb.epoch.get(),
                    sent: false,
                }
            );
            match self.peers.get_mut(&hb.src) {
                Some(state) => {
                    if hb.epoch.is_after(state.epoch) {
                        // The peer provably restarted: everything our unit
                        // remembers about the old incarnation is hazardous.
                        trace_event!(
                            self.trace,
                            now,
                            me,
                            EventKind::PeerRestart {
                                peer: hb.src,
                                epoch: hb.epoch.get(),
                            }
                        );
                        self.ep.unit_mut().reset_peer(hb.src);
                        self.events.push(PeerEvent::Restarted {
                            peer: hb.src,
                            epoch: hb.epoch,
                        });
                    }
                    state.last_heard = now;
                    state.epoch = hb.epoch;
                    state.down = false;
                }
                None => {
                    self.peers.insert(
                        hb.src,
                        PeerState {
                            last_heard: now,
                            epoch: hb.epoch,
                            down: false,
                        },
                    );
                }
            }
        }
    }

    /// Broadcasts a heartbeat to every watched peer when the period lapses.
    fn broadcast(&mut self, now: Cycle, me: NodeId) {
        let due = match self.last_beat {
            None => true,
            Some(at) => now.saturating_since(at) >= self.cfg.heartbeat_every,
        };
        if !due {
            return;
        }
        self.last_beat = Some(now);
        let epoch = self.epoch;
        for i in 0..self.watched.len() {
            let Some(&peer) = self.watched.get(i) else {
                break;
            };
            self.ep.port_mut().send_heartbeat(peer, epoch);
            trace_event!(
                self.trace,
                now,
                me,
                EventKind::Heartbeat {
                    peer,
                    epoch: epoch.get(),
                    sent: true,
                }
            );
        }
    }

    /// Flags watched peers whose silence exceeds the timeout.
    fn check_silence(&mut self, now: Cycle, me: NodeId) {
        for (&peer, state) in self.peers.iter_mut() {
            if state.down {
                continue;
            }
            let silent_for = now.saturating_since(state.last_heard);
            if silent_for >= self.cfg.peer_timeout {
                state.down = true;
                trace_event!(
                    self.trace,
                    now,
                    me,
                    EventKind::PeerDown { peer, silent_for }
                );
                self.events.push(PeerEvent::Down { peer, silent_for });
            }
        }
    }
}

/// Owns an endpoint factory and keeps one [`SupervisedEndpoint`] running:
/// [`kill`](Supervisor::kill) simulates a crash (all endpoint state is
/// dropped), and [`step`](Supervisor::step) restarts a fresh incarnation —
/// next epoch — once the bounded jittered backoff elapses.
///
/// The supervisor is driven by an external clock (`step(now)`) because
/// during downtime there is no transport to ask for the time.
pub struct Supervisor<T: Transport, F: FnMut() -> WireEndpoint<T>> {
    factory: F,
    cfg: SupervisorConfig,
    watched: Vec<NodeId>,
    ep: Option<SupervisedEndpoint<T>>,
    epoch: Epoch,
    restarts: u32,
    restart_at: Option<(Cycle, u64)>,
    rng: SimRng,
    trace: TraceHandle,
}

impl<T: Transport, F: FnMut() -> WireEndpoint<T>> std::fmt::Debug for Supervisor<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("epoch", &self.epoch)
            .field("restarts", &self.restarts)
            .field("up", &self.ep.is_some())
            .finish_non_exhaustive()
    }
}

impl<T: Transport, F: FnMut() -> WireEndpoint<T>> Supervisor<T, F> {
    /// Builds the supervisor and starts epoch 0 immediately. `watched`
    /// lists the peers every incarnation heartbeats and monitors; `seed`
    /// feeds the backoff jitter.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SupervisorConfig::validate`].
    pub fn new(cfg: SupervisorConfig, watched: Vec<NodeId>, factory: F, seed: u64) -> Self {
        Self::with_starting_epoch(cfg, watched, factory, seed, Epoch::new(0))
    }

    /// [`Supervisor::new`], but the first incarnation announces `epoch`
    /// instead of 0. A daemon process restarted *from outside* (its whole
    /// OS process died) passes the next epoch here so surviving peers see
    /// a later epoch and reset their entangled protocol state — the
    /// in-process restart path bumps the epoch automatically, but a fresh
    /// process has no memory of the old incarnation's count.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SupervisorConfig::validate`].
    pub fn with_starting_epoch(
        cfg: SupervisorConfig,
        watched: Vec<NodeId>,
        mut factory: F,
        seed: u64,
        epoch: Epoch,
    ) -> Self {
        let ep = Self::incarnate(&mut factory, cfg, &watched, epoch, TraceHandle::off());
        let node = ep.endpoint().node().index() as u64;
        Supervisor {
            factory,
            cfg,
            watched,
            ep: Some(ep),
            epoch,
            restarts: 0,
            restart_at: None,
            rng: SimRng::from_seed_stream(seed, SUPERVISOR_STREAM | node),
            trace: TraceHandle::off(),
        }
    }

    fn incarnate(
        factory: &mut F,
        cfg: SupervisorConfig,
        watched: &[NodeId],
        epoch: Epoch,
        trace: TraceHandle,
    ) -> SupervisedEndpoint<T> {
        let mut sup = SupervisedEndpoint::new(factory(), cfg, epoch);
        for &peer in watched {
            sup.watch(peer);
        }
        sup.attach_trace(trace);
        sup
    }

    /// Connects current and future incarnations to a flight recorder.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        if let Some(ep) = &mut self.ep {
            ep.attach_trace(trace.clone());
        }
        self.trace = trace;
    }

    /// Whether an incarnation is currently running.
    pub fn is_up(&self) -> bool {
        self.ep.is_some()
    }

    /// The current (or, while down, the most recent) epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Completed restarts so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// The running incarnation, if up.
    pub fn endpoint(&self) -> Option<&SupervisedEndpoint<T>> {
        self.ep.as_ref()
    }

    /// The running incarnation, mutably, if up.
    pub fn endpoint_mut(&mut self) -> Option<&mut SupervisedEndpoint<T>> {
        self.ep.as_mut()
    }

    /// Simulates a crash: the incarnation and **all** its protocol state
    /// are dropped on the floor (no goodbye frames), and a restart is
    /// scheduled after `min(base·2ᵃᵗᵗᵉᵐᵖᵗˢ, max)` plus seeded jitter.
    pub fn kill(&mut self, now: Cycle) {
        if self.ep.take().is_none() {
            return;
        }
        let shift = self.restarts.min(63);
        let exp = self.cfg.backoff_base.saturating_mul(1u64 << shift);
        let mut backoff = exp.min(self.cfg.backoff_max);
        if self.cfg.backoff_jitter > 0 {
            backoff += self.rng.next_u64() % (self.cfg.backoff_jitter + 1);
        }
        self.restart_at = Some((now + backoff, backoff));
    }

    /// When this supervisor next needs a [`step`](Self::step): the running
    /// incarnation's wakeup while up, the restart deadline while down, and
    /// [`Wakeup::Quiescent`] when down with no restart scheduled (nothing
    /// short of external input — a [`kill`](Self::kill) — changes that).
    pub fn next_event(&self, now: Cycle) -> Wakeup {
        match &self.ep {
            Some(ep) => ep.next_event(),
            None => match self.restart_at {
                Some((at, _)) => Wakeup::at_or_now(at, now),
                None => Wakeup::Quiescent,
            },
        }
    }

    /// One cycle: step the running incarnation, or — while down — restart
    /// once the backoff deadline passes `now`.
    pub fn step(&mut self, now: Cycle) {
        if let Some(ep) = &mut self.ep {
            ep.step();
            return;
        }
        let Some((at, backoff)) = self.restart_at else {
            return;
        };
        if now < at {
            return;
        }
        self.restart_at = None;
        self.epoch = self.epoch.next();
        self.restarts += 1;
        let ep = Self::incarnate(
            &mut self.factory,
            self.cfg,
            &self.watched,
            self.epoch,
            self.trace.clone(),
        );
        trace_event!(
            self.trace,
            now,
            ep.endpoint().node(),
            EventKind::EndpointRestart {
                epoch: self.epoch.get(),
                backoff,
            }
        );
        self.ep = Some(ep);
    }
}

#[cfg(test)]
mod tests {
    use nifdy::{NifdyConfig, OutboundPacket};

    use super::*;
    use crate::transport::LoopbackHub;

    fn pair(
        hub: &LoopbackHub,
        cfg: SupervisorConfig,
    ) -> [SupervisedEndpoint<crate::LoopbackTransport>; 2] {
        let mk = |n: usize| {
            let node = NodeId::new(n);
            let mut s = SupervisedEndpoint::new(
                WireEndpoint::new(node, NifdyConfig::mesh(), hub.endpoint(node)),
                cfg,
                Epoch::new(0),
            );
            s.watch(NodeId::new(1 - n));
            s
        };
        [mk(0), mk(1)]
    }

    #[test]
    fn heartbeats_establish_liveness_without_protocol_traffic() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(16)
            .with_peer_timeout(64);
        let mut eps = pair(&hub, cfg);
        for _ in 0..32 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
        for ep in eps.iter() {
            assert!(!ep.peer_down(NodeId::new(0)));
            assert!(!ep.peer_down(NodeId::new(1)));
        }
        assert!(eps[0].peers.len() == 1, "peer 1 tracked via heartbeat");
    }

    #[test]
    fn silence_flags_the_peer_down_once() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40);
        let mut eps = pair(&hub, cfg);
        // Warm up so each side has heard the other.
        for _ in 0..16 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
        // Now only node 0 keeps stepping: node 1 falls silent.
        let mut down_events = 0;
        for _ in 0..200 {
            let Some((zero, _)) = eps.split_first_mut() else {
                unreachable!()
            };
            zero.step();
            hub.tick();
            down_events += zero
                .take_peer_events()
                .iter()
                .filter(|e| matches!(e, PeerEvent::Down { .. }))
                .count();
        }
        assert_eq!(down_events, 1, "down transition is edge-triggered");
        assert!(eps[0].peer_down(NodeId::new(1)));
    }

    #[test]
    fn epoch_bump_triggers_peer_reset() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40);
        let mut eps = pair(&hub, cfg);
        for _ in 0..16 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
        // Node 1 "restarts": same transport, bumped epoch.
        eps[1].epoch = Epoch::new(1);
        let mut restarted = Vec::new();
        for _ in 0..32 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
            restarted.extend(
                eps[0]
                    .take_peer_events()
                    .into_iter()
                    .filter(|e| matches!(e, PeerEvent::Restarted { .. })),
            );
        }
        assert_eq!(
            restarted,
            vec![PeerEvent::Restarted {
                peer: NodeId::new(1),
                epoch: Epoch::new(1)
            }],
            "exactly one restart detection per epoch bump"
        );
    }

    #[test]
    fn restart_from_the_last_epoch_wraps_and_still_resets_the_peer() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40)
            .with_backoff(16, 256, 0);
        let (crasher, survivor_node) = (NodeId::new(0), NodeId::new(1));
        let mut survivor = SupervisedEndpoint::new(
            WireEndpoint::new(
                survivor_node,
                NifdyConfig::mesh(),
                hub.endpoint(survivor_node),
            ),
            cfg,
            Epoch::new(0),
        );
        survivor.watch(crasher);
        let hub2 = hub.clone();
        let mut sup = Supervisor::with_starting_epoch(
            cfg,
            vec![survivor_node],
            move || WireEndpoint::new(crasher, NifdyConfig::mesh(), hub2.endpoint(crasher)),
            7,
            Epoch::new(u32::MAX),
        );
        let step_both = |sup: &mut Supervisor<_, _>, survivor: &mut SupervisedEndpoint<_>| {
            sup.step(hub.now());
            survivor.step();
            while survivor.endpoint_mut().poll().is_some() {}
            hub.tick();
        };

        // The crasher streams bulk packets until the survivor has granted
        // it a dialog slot, then dies holding it.
        for _ in 0..2_000 {
            if survivor.endpoint().stats().dialogs_granted.get() > 0 {
                break;
            }
            if let Some(ep) = sup.endpoint_mut() {
                let pkt = OutboundPacket::new(survivor_node, 8).with_bulk(true);
                let _ = ep.endpoint_mut().try_send(pkt);
            }
            step_both(&mut sup, &mut survivor);
        }
        assert_eq!(
            survivor.endpoint().stats().dialogs_granted.get(),
            1,
            "dialog granted before the crash"
        );
        assert!(survivor.take_peer_events().is_empty());
        sup.kill(hub.now());

        let mut restarted = Vec::new();
        for _ in 0..400 {
            step_both(&mut sup, &mut survivor);
            restarted.extend(
                survivor
                    .take_peer_events()
                    .into_iter()
                    .filter(|e| matches!(e, PeerEvent::Restarted { .. })),
            );
        }
        assert_eq!(sup.epoch(), Epoch::new(0), "u32::MAX wraps to 0");
        assert_eq!(
            restarted,
            vec![PeerEvent::Restarted {
                peer: crasher,
                epoch: Epoch::new(0)
            }],
            "epoch 0 is after u32::MAX"
        );
        assert_eq!(
            survivor.endpoint().stats().dialogs_reclaimed.get(),
            1,
            "reset_peer freed the dead incarnation's slot"
        );
    }

    #[test]
    fn epoch_order_is_serial_number_arithmetic() {
        let max = Epoch::new(u32::MAX);
        assert_eq!(max.next(), Epoch::new(0));
        assert!(max.next().is_after(max));
        assert!(!max.is_after(max.next()));
        assert!(Epoch::new(5).is_after(Epoch::new(4)));
        assert!(!Epoch::new(4).is_after(Epoch::new(4)));
        // Exactly half the space apart is ordered neither way.
        let half = Epoch::new(1 << 31);
        assert!(!half.is_after(Epoch::new(0)));
        assert!(!Epoch::new(0).is_after(half));
    }

    #[test]
    fn supervisor_restarts_after_bounded_backoff() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40)
            .with_backoff(16, 256, 8);
        let node = NodeId::new(0);
        let hub2 = hub.clone();
        let mut sup = Supervisor::new(
            cfg,
            vec![NodeId::new(1)],
            move || WireEndpoint::new(node, NifdyConfig::mesh(), hub2.endpoint(node)),
            7,
        );
        assert!(sup.is_up());
        assert_eq!(sup.epoch(), Epoch::new(0));
        sup.kill(Cycle::new(100));
        assert!(!sup.is_up());
        sup.step(Cycle::new(100));
        assert!(!sup.is_up(), "backoff holds the restart");
        let mut restarted_at = None;
        for t in 101..400 {
            sup.step(Cycle::new(t));
            if sup.is_up() {
                restarted_at = Some(t);
                break;
            }
        }
        let t = restarted_at.expect("restarted within the bound");
        assert!((116..=124).contains(&t), "base 16 + jitter <= 8, got {t}");
        assert_eq!(sup.epoch(), Epoch::new(1));
        assert_eq!(sup.restarts(), 1);
        // Second crash backs off twice as far.
        sup.kill(Cycle::new(500));
        let mut second = None;
        for t in 500..900 {
            sup.step(Cycle::new(t));
            if sup.is_up() {
                second = Some(t);
                break;
            }
        }
        let t = second.expect("second restart");
        assert!((532..=540).contains(&t), "base doubled to 32, got {t}");
    }

    #[test]
    fn invalid_supervisor_configs_are_rejected() {
        assert!(SupervisorConfig::default()
            .with_heartbeat_every(0)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default()
            .with_heartbeat_every(100)
            .with_peer_timeout(150)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default()
            .with_backoff(16, 8, 0)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default()
            .with_backoff(16, 32, 64)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default().validate().is_ok());
    }
}
