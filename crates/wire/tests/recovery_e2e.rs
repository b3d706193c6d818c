//! End-to-end crash recovery: a supervised endpoint is killed mid-run —
//! losing every byte of protocol state — restarts after a bounded backoff,
//! and the two-node rotation workload still completes. Recovery must be
//! *visible*: the flight recorder has to show the restart, the survivor's
//! epoch-based detection, and the typed teardown of state entangled with
//! the dead incarnation.

use std::collections::BTreeSet;

use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::UserData;
use nifdy_sim::{Cycle, NodeId, Wakeup};
use nifdy_trace::{TraceConfig, TraceHandle};
use nifdy_wire::{
    Epoch, LoopbackHub, SupervisedEndpoint, Supervisor, SupervisorConfig, WireEndpoint,
};

const MESSAGES: u64 = 3;
const PACKETS_PER_MESSAGE: u32 = 4;
const SIZE_WORDS: u16 = 6;

fn node(i: usize) -> NodeId {
    NodeId::new(i)
}

fn workload(src: usize) -> Vec<UserData> {
    let mut users = Vec::new();
    for m in 0..MESSAGES {
        for p in 0..PACKETS_PER_MESSAGE {
            users.push(UserData {
                msg_id: ((src as u64) << 32) | m,
                pkt_index: p,
                msg_packets: PACKETS_PER_MESSAGE,
                user_words: SIZE_WORDS.saturating_sub(2),
            });
        }
    }
    users
}

fn protocol_config() -> NifdyConfig {
    NifdyConfig::mesh()
        .with_retx_timeout(64)
        .with_adaptive_rto(true)
        .with_retx_budget(6)
}

/// The application-level reliability shim a real system would run above
/// the interface: anything not confirmed delivered gets re-offered after a
/// failure. The test's "omniscient" confirmation (reading the receiver's
/// delivered set directly) stands in for an app-level acknowledgment.
fn refill(remaining: &mut Vec<UserData>, all: &[UserData], delivered: &BTreeSet<(u64, u32)>) {
    remaining.clear();
    remaining.extend(
        all.iter()
            .filter(|u| !delivered.contains(&(u.msg_id, u.pkt_index)))
            .copied(),
    );
    remaining.reverse(); // feed via pop() in send order
}

#[test]
fn killed_endpoint_recovers_and_the_rotation_completes() {
    let hub = LoopbackHub::new(2, 1);
    let sup_cfg = SupervisorConfig::default()
        .with_heartbeat_every(16)
        .with_peer_timeout(100)
        // Backoff longer than the peer timeout so the survivor visibly
        // flags the peer down before the new incarnation announces itself.
        .with_backoff(200, 512, 8);
    let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));

    // Node 0 survives the whole run.
    let mut n0 = SupervisedEndpoint::new(
        WireEndpoint::new(node(0), protocol_config(), hub.endpoint(node(0))),
        sup_cfg,
        Epoch::new(0),
    );
    n0.watch(node(1));
    n0.attach_trace(trace.clone());

    // Node 1 runs under a supervisor and will be killed mid-run.
    let hub_for_factory = hub.clone();
    let mut sup = Supervisor::new(
        sup_cfg,
        vec![node(0)],
        move || {
            WireEndpoint::new(
                node(1),
                protocol_config(),
                hub_for_factory.endpoint(node(1)),
            )
        },
        42,
    );
    sup.attach_trace(trace.clone());

    let all0 = workload(0); // node 0 -> node 1
    let all1 = workload(1); // node 1 -> node 0
    let mut remaining0: Vec<UserData> = all0.iter().rev().copied().collect();
    let mut remaining1: Vec<UserData> = all1.iter().rev().copied().collect();
    let mut delivered_at_1 = BTreeSet::new();
    let mut delivered_at_0 = BTreeSet::new();
    let mut n0_failures = 0usize;
    let mut killed = false;
    let mut last_epoch = Epoch::new(0);

    let total = all0.len();
    for cycle in 0..120_000u64 {
        // Crash node 1 once real traffic is flowing in both directions.
        if !killed && delivered_at_1.len() >= 4 && delivered_at_0.len() >= 4 {
            sup.kill(hub.now());
            killed = true;
        }

        // Node 0: feed, step, poll, and re-offer anything that failed.
        if let Some(user) = remaining0.last().copied() {
            let pkt = OutboundPacket::new(node(1), SIZE_WORDS)
                .with_bulk(true)
                .with_user(user);
            if n0.endpoint_mut().try_send(pkt) {
                remaining0.pop();
            }
        }
        n0.step();
        while let Some(d) = n0.endpoint_mut().poll() {
            delivered_at_0.insert((d.user.msg_id, d.user.pkt_index));
        }
        let failures = n0.endpoint_mut().take_failures();
        if !failures.is_empty() {
            n0_failures += failures.len();
            refill(&mut remaining0, &all0, &delivered_at_1);
        }

        // Node 1: under supervision; a fresh incarnation knows nothing, so
        // its send queue is rebuilt from what provably arrived.
        sup.step(hub.now());
        if sup.epoch().is_after(last_epoch) {
            last_epoch = sup.epoch();
            refill(&mut remaining1, &all1, &delivered_at_0);
            // The survivor's outbound state may already be poisoned against
            // the dead incarnation; re-offer its remainder too.
            refill(&mut remaining0, &all0, &delivered_at_1);
        }
        if let Some(ep) = sup.endpoint_mut() {
            if let Some(user) = remaining1.last().copied() {
                let pkt = OutboundPacket::new(node(0), SIZE_WORDS)
                    .with_bulk(true)
                    .with_user(user);
                if ep.endpoint_mut().try_send(pkt) {
                    remaining1.pop();
                }
            }
            while let Some(d) = ep.endpoint_mut().poll() {
                delivered_at_1.insert((d.user.msg_id, d.user.pkt_index));
            }
            let _ = ep.endpoint_mut().take_failures();
        }

        hub.tick();

        if delivered_at_1.len() == total && delivered_at_0.len() == total && killed {
            assert!(cycle > 0);
            break;
        }
    }

    assert!(killed, "the crash was never triggered — workload too small");
    assert_eq!(sup.restarts(), 1, "exactly one restart");
    assert_eq!(sup.epoch(), Epoch::new(1));
    assert_eq!(
        delivered_at_1.len(),
        total,
        "rotation leg 0->1 did not complete after the crash"
    );
    assert_eq!(
        delivered_at_0.len(),
        total,
        "rotation leg 1->0 did not complete after the crash"
    );
    assert!(
        n0_failures > 0,
        "the survivor must surface typed failures for state lost with the peer"
    );

    // Recovery must be visible in the flight recorder as typed events.
    #[cfg(feature = "trace")]
    {
        let names: BTreeSet<&'static str> =
            trace.snapshot().iter().map(|ev| ev.kind.name()).collect();
        for required in [
            "heartbeat",
            "peer_down",
            "endpoint_restart",
            "peer_restart",
            "dialog_close",
        ] {
            assert!(
                names.contains(required),
                "recovery left no {required:?} event in the trace; saw {names:?}"
            );
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = trace;
}

/// The same crash-and-recover rotation, driven event-style: instead of
/// stepping every hub cycle, the driver asks each component when it next
/// needs work ([`SupervisedEndpoint::next_event`], [`Supervisor::next_event`],
/// [`LoopbackHub::next_delivery`]) and jumps the clock to the earliest
/// deadline. Under the [`Wakeup`] contract the skipped cycles are no-ops,
/// so the run must still complete — through a kill, a backoff window, and
/// a restart — while stepping far fewer rounds than cycles elapse.
#[test]
fn event_driven_driver_recovers_with_fewer_stepped_rounds() {
    let hub = LoopbackHub::new(2, 1);
    let sup_cfg = SupervisorConfig::default()
        .with_heartbeat_every(16)
        .with_peer_timeout(100)
        .with_backoff(200, 512, 8);
    let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));

    let mut n0 = SupervisedEndpoint::new(
        WireEndpoint::new(node(0), protocol_config(), hub.endpoint(node(0))),
        sup_cfg,
        Epoch::new(0),
    );
    n0.watch(node(1));
    n0.attach_trace(trace.clone());

    let hub_for_factory = hub.clone();
    let mut sup = Supervisor::new(
        sup_cfg,
        vec![node(0)],
        move || {
            WireEndpoint::new(
                node(1),
                protocol_config(),
                hub_for_factory.endpoint(node(1)),
            )
        },
        42,
    );
    sup.attach_trace(trace.clone());

    let all0 = workload(0);
    let all1 = workload(1);
    let mut remaining0: Vec<UserData> = all0.iter().rev().copied().collect();
    let mut remaining1: Vec<UserData> = all1.iter().rev().copied().collect();
    let mut delivered_at_1 = BTreeSet::new();
    let mut delivered_at_0 = BTreeSet::new();
    let mut killed = false;
    let mut last_epoch = Epoch::new(0);
    let mut stepped = 0u64;

    let total = all0.len();
    let bound = Cycle::new(120_000);
    let mut done = false;
    while hub.now() < bound {
        stepped += 1;
        // `active` records whether this round performed external input the
        // components cannot predict (a fed packet, a consumed delivery, a
        // failure-driven re-offer); only then must the very next cycle be
        // stepped too. Otherwise the components' own wakeups are trusted.
        let mut active = false;
        if !killed && delivered_at_1.len() >= 4 && delivered_at_0.len() >= 4 {
            sup.kill(hub.now());
            killed = true;
            active = true;
        }

        if let Some(user) = remaining0.last().copied() {
            let pkt = OutboundPacket::new(node(1), SIZE_WORDS)
                .with_bulk(true)
                .with_user(user);
            if n0.endpoint_mut().try_send(pkt) {
                remaining0.pop();
                active = true;
            }
        }
        n0.step();
        while let Some(d) = n0.endpoint_mut().poll() {
            delivered_at_0.insert((d.user.msg_id, d.user.pkt_index));
            active = true;
        }
        if !n0.endpoint_mut().take_failures().is_empty() {
            refill(&mut remaining0, &all0, &delivered_at_1);
            active = true;
        }

        sup.step(hub.now());
        if sup.epoch().is_after(last_epoch) {
            last_epoch = sup.epoch();
            refill(&mut remaining1, &all1, &delivered_at_0);
            refill(&mut remaining0, &all0, &delivered_at_1);
            active = true;
        }
        if let Some(ep) = sup.endpoint_mut() {
            if let Some(user) = remaining1.last().copied() {
                let pkt = OutboundPacket::new(node(0), SIZE_WORDS)
                    .with_bulk(true)
                    .with_user(user);
                if ep.endpoint_mut().try_send(pkt) {
                    remaining1.pop();
                    active = true;
                }
            }
            while let Some(d) = ep.endpoint_mut().poll() {
                delivered_at_1.insert((d.user.msg_id, d.user.pkt_index));
                active = true;
            }
            let _ = ep.endpoint_mut().take_failures();
        }

        hub.tick();
        if delivered_at_1.len() == total && delivered_at_0.len() == total && killed {
            done = true;
            break;
        }

        // Skip ahead: the earliest of both components' wakeups and the
        // hub's next frame delivery. `WireEndpoint::next_event` cannot see
        // frames still inside the transport, so the hub's clock is folded
        // in explicitly, exactly as its docs demand.
        let now = hub.now();
        let mut wake = n0.next_event().earliest(sup.next_event(now));
        // A deadline already in the past is a frame addressed to the down
        // node: every live endpoint is stepped at each deliverable cycle,
        // so only a dead destination can leave one behind. It stays
        // undeliverable until the restart, whose deadline the supervisor's
        // wakeup above already carries.
        if let Some(at) = hub.next_delivery() {
            if at >= now.as_u64() {
                wake = wake.earliest(Wakeup::at_or_now(Cycle::new(at), now));
            }
        }
        if active {
            wake = Wakeup::Now;
        }
        let target = wake.deadline_or(now, bound);
        while hub.now() < target {
            hub.tick();
        }
    }

    let elapsed = hub.now().as_u64();
    assert!(done, "rotation did not complete by cycle {elapsed}");
    assert!(killed, "the crash was never triggered");
    assert_eq!(sup.restarts(), 1, "exactly one restart");
    assert_eq!(sup.epoch(), Epoch::new(1));
    assert!(
        stepped * 2 < elapsed,
        "skip-ahead stepped {stepped} rounds over {elapsed} cycles — \
         the backoff and retransmission windows were not skipped"
    );

    #[cfg(feature = "trace")]
    {
        let names: BTreeSet<&'static str> =
            trace.snapshot().iter().map(|ev| ev.kind.name()).collect();
        for required in ["endpoint_restart", "peer_restart"] {
            assert!(
                names.contains(required),
                "recovery left no {required:?} event in the trace; saw {names:?}"
            );
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = trace;
}
