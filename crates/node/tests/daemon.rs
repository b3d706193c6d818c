//! Daemon-level integration: delivery-order parity against the flit-level
//! simulator, multi-daemon exchange over a shared carrier, and supervised
//! crash recovery inside a running daemon.

use std::collections::BTreeSet;

use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::{Lane, Packet};
use nifdy_node::workload::{run_local, run_sim_reference, PlanFeeder, SwarmPlan};
use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::{NodeId, PacketId};
use nifdy_traffic::Em3dParams;
use nifdy_wire::conformance::DeliveryLog;
use nifdy_wire::{
    encode, peek_route, Epoch, LoopbackHub, LoopbackTransport, PeerEvent, SupervisorConfig,
    Transport, WirePacket,
};

#[test]
fn daemon_rotation_matches_the_flit_level_sim() {
    let plan = SwarmPlan::rotation(12, 2, 4, 6, true, 3);
    let expected = plan.expected_log();
    let sim = run_sim_reference(&plan, 400_000);
    assert_eq!(sim, expected, "sim leg must equal send order");
    let local = run_local(&plan, NodeConfig::default().with_shards(4), 200_000);
    assert_eq!(local.log, sim, "daemon delivery order diverges from sim");
    assert_eq!(local.stats.unroutable, 0);
    assert_eq!(local.stats.foreign, 0);
}

#[test]
fn daemon_em3d_matches_the_flit_level_sim() {
    let params = Em3dParams {
        iters: 2,
        ..Em3dParams::more_communication(5)
    };
    let plan = SwarmPlan::em3d(8, params, 6, true);
    let expected = plan.expected_log();
    let sim = run_sim_reference(&plan, 600_000);
    assert_eq!(sim, expected);
    let local = run_local(&plan, NodeConfig::default().with_shards(3), 400_000);
    assert_eq!(local.log, sim, "EM3D daemon order diverges from sim");
}

#[test]
fn many_endpoint_daemon_drains_a_wide_rotation() {
    let plan = SwarmPlan::rotation(96, 1, 2, 6, false, 7);
    let local = run_local(&plan, NodeConfig::default().with_shards(8), 200_000);
    assert_eq!(local.log, plan.expected_log());
    // Sharding actually spread the endpoints.
    let busy = local
        .stats
        .shards
        .iter()
        .filter(|s| s.delivered > 0)
        .count();
    assert!(busy >= 4, "only {busy}/8 shards saw deliveries");
}

#[test]
fn two_daemons_exchange_over_a_shared_carrier() {
    let plan = SwarmPlan::rotation(6, 2, 3, 6, true, 1);
    let expected = plan.expected_log();
    let hub = LoopbackHub::new(2, 1);
    let cfg = NodeConfig::default().with_shards(2);
    let build = |carrier_id: usize, hosted: std::ops::Range<usize>| {
        let mut d: NifdyNode<LoopbackTransport> = NifdyNode::new(cfg.clone());
        let c = d.add_carrier(hub.endpoint(NodeId::new(carrier_id)));
        for n in hosted.clone() {
            d.add_endpoint(NodeId::new(n), Vec::new());
        }
        for n in 0..plan.nodes {
            if !hosted.contains(&n) {
                d.set_route(NodeId::new(n), c, NodeId::new(1 - carrier_id));
            }
        }
        d
    };
    let mut d0 = build(0, 0..3);
    let mut d1 = build(1, 3..6);
    let mut feeders: Vec<PlanFeeder> = (0..plan.nodes).map(|i| PlanFeeder::new(&plan, i)).collect();
    let mut log = DeliveryLog::new();
    let mut delivered = 0u64;
    for round in 0.. {
        assert!(round < 100_000, "swarm pair wedged at {delivered} packets");
        for (i, feeder) in feeders.iter_mut().enumerate() {
            let d = if i < 3 { &mut d0 } else { &mut d1 };
            feeder.pump(|pkt| d.try_send(NodeId::new(i), pkt));
        }
        d0.poll_round();
        d1.poll_round();
        hub.tick();
        for d in [&mut d0, &mut d1] {
            while let Some((dst, del)) = d.next_delivery() {
                log.entry((del.src.index(), dst.index()))
                    .or_default()
                    .push((del.user.msg_id, del.user.pkt_index));
                delivered += 1;
            }
        }
        if delivered >= plan.total_packets()
            && feeders.iter().all(PlanFeeder::done)
            && d0.is_idle()
            && d1.is_idle()
            && hub.in_flight() == 0
        {
            break;
        }
    }
    assert_eq!(log, expected, "cross-daemon delivery order diverges");
    assert!(d0.stats().frames_out > 0, "daemon 0 used the carrier");
    assert!(d1.stats().frames_out > 0, "daemon 1 used the carrier");
    assert_eq!(d0.stats().unroutable + d1.stats().unroutable, 0);
    // The batched paths actually ran.
    assert!(d0.metrics().histogram("node.send_batch").is_some());
    assert!(d1.metrics().histogram("node.recv_batch").is_some());
}

#[test]
fn killed_endpoint_restarts_and_the_workload_completes() {
    // Scalar traffic with a generous retry budget: the sender's §6.2
    // machinery must carry the flow across the receiver's crash window.
    let plan = SwarmPlan::rotation(2, 2, 4, 6, false, 1);
    let cfg = NodeConfig::default()
        .with_shards(2)
        .with_protocol(
            NifdyConfig::mesh()
                .with_retx_timeout(64)
                .with_adaptive_rto(true)
                .with_retx_budget(1_000),
        )
        .with_supervisor(
            SupervisorConfig::default()
                .with_heartbeat_every(8)
                .with_peer_timeout(40)
                .with_backoff(16, 256, 8),
        );
    let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(cfg);
    for i in 0..2 {
        node.add_endpoint(NodeId::new(i), vec![NodeId::new(1 - i)]);
    }
    let mut feeders: Vec<PlanFeeder> = (0..2).map(|i| PlanFeeder::new(&plan, i)).collect();
    // Duplicate deliveries are legitimate across the crash (the restarted
    // incarnation lost its duplicate bits), so completeness is the gate.
    let mut seen: BTreeSet<(usize, usize, u64, u32)> = BTreeSet::new();
    let mut killed = false;
    let mut refed = false;
    let mut events = Vec::new();
    for round in 0..50_000u64 {
        for (i, feeder) in feeders.iter_mut().enumerate() {
            feeder.pump(|pkt| node.try_send(NodeId::new(i), pkt));
        }
        node.poll_round();
        while let Some((dst, d)) = node.next_delivery() {
            seen.insert((d.src.index(), dst.index(), d.user.msg_id, d.user.pkt_index));
        }
        events.extend(node.take_peer_events());
        if !killed && seen.len() >= 2 {
            node.kill(NodeId::new(1));
            killed = true;
        }
        // Packets the dead incarnation had accepted died with it: once the
        // supervisor brings node 1 back, the application re-offers its
        // whole plan (receivers deduplicate) — the same re-offer protocol
        // a respawned swarm process runs.
        if killed && !refed && node.restarts(NodeId::new(1)) == 1 && node.is_up(NodeId::new(1)) {
            feeders[1] = PlanFeeder::new(&plan, 1);
            refed = true;
        }
        if killed
            && refed
            && seen.len() == plan.total_packets() as usize
            && feeders.iter().all(PlanFeeder::done)
            && node.is_idle()
        {
            break;
        }
        let _ = round;
    }
    assert_eq!(
        seen.len(),
        plan.total_packets() as usize,
        "workload incomplete after crash recovery"
    );
    assert_eq!(
        node.restarts(NodeId::new(1)),
        1,
        "supervisor restarted node 1"
    );
    assert_eq!(
        node.epoch(NodeId::new(1)),
        Epoch::new(1),
        "restart bumped the epoch"
    );
    assert!(
        events
            .iter()
            .any(|(observer, ev)| *observer == NodeId::new(0)
                && matches!(ev, PeerEvent::Restarted { peer, .. } if *peer == NodeId::new(1))),
        "node 0 never detected the restart: {events:?}"
    );
    assert!(node.stats().dropped_down > 0, "crash window dropped frames");
    assert!(node.take_failures().is_empty(), "budget covered the outage");
}

#[test]
fn a_frame_for_an_id_past_the_demux_tables_is_unroutable() {
    // The destination comes from an untrusted frame header: the largest
    // 16-bit id is past both the hosted and the routed table.
    let hub = LoopbackHub::new(2, 1);
    let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(NodeConfig::default());
    let c = node.add_carrier(hub.endpoint(NodeId::new(0)));
    node.add_endpoint(NodeId::new(0), Vec::new());
    node.set_route(NodeId::new(5), c, NodeId::new(1));
    let far = NodeId::new(65_535);
    let frame = encode(&WirePacket::from_packet(&Packet::data(
        PacketId::new(1),
        NodeId::new(9),
        far,
        6,
    )));
    assert_eq!(peek_route(&frame), Some((far, Lane::Request)));
    hub.endpoint(NodeId::new(1))
        .send(NodeId::new(0), Lane::Request, frame);
    for _ in 0..4 {
        hub.tick();
        node.poll_round();
    }
    assert_eq!(node.stats().unroutable, 1);
    assert_eq!(node.stats().frames_in, 0);
    assert_eq!(node.stats().foreign, 0);
}

#[test]
fn sparse_hosted_ids_keep_the_daemon_api_working() {
    let hub = LoopbackHub::new(2, 1);
    let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(NodeConfig::default());
    let c = node.add_carrier(hub.endpoint(NodeId::new(0)));
    let (low, high, routed) = (NodeId::new(3), NodeId::new(60_000), NodeId::new(60_001));
    node.add_endpoint(high, Vec::new());
    node.add_endpoint(low, Vec::new());
    node.set_route(routed, c, NodeId::new(1));
    assert_eq!(node.endpoints().collect::<Vec<_>>(), vec![low, high]);
    assert_eq!(node.num_endpoints(), 2);

    // Hosted to hosted stays inside the daemon; hosted to routed leaves
    // through the carrier, still naming its logical destination.
    assert!(node.try_send(low, OutboundPacket::new(high, 6)));
    assert!(node.try_send(high, OutboundPacket::new(routed, 6)));
    let mut far = hub.endpoint(NodeId::new(1));
    let mut delivered = None;
    let mut carried = None;
    for _ in 0..64 {
        node.poll_round();
        hub.tick();
        if let Some(got) = node.next_delivery() {
            delivered = Some(got);
        }
        if let Some(frame) = far.recv(Lane::Request) {
            carried = peek_route(&frame);
        }
    }
    let (dst, d) = delivered.expect("hosted delivery");
    assert_eq!((dst, d.src), (high, low));
    assert_eq!(carried, Some((routed, Lane::Request)));
    assert_eq!(node.stats().unroutable, 0);
}
