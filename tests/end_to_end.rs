//! Cross-crate integration tests: full driver stacks (workload → processor
//! → NIC → fabric) on every topology and every interface model.

use nifdy_harness::NetworkKind;
use nifdy_net::Fabric;
use nifdy_traffic::{
    CShiftConfig, Driver, Em3dParams, NicChoice, ScanConfig, SoftwareModel, SyntheticConfig,
};

fn choices(kind: NetworkKind) -> [NicChoice; 3] {
    let preset = kind.nifdy_preset();
    [
        NicChoice::Plain,
        NicChoice::BuffersOnly(preset.clone()),
        NicChoice::Nifdy(preset),
    ]
}

#[test]
fn synthetic_heavy_delivers_on_every_network_and_interface() {
    for kind in NetworkKind::ALL {
        for choice in choices(kind) {
            let fab = Fabric::new(kind.topology(64, 1), kind.fabric_config(1));
            let wls = SyntheticConfig::heavy(1).build(64);
            let mut d =
                Driver::new(fab, &choice, SoftwareModel::synthetic(), wls).expect("driver builds");
            d.run_cycles(8_000);
            assert!(
                d.packets_received() > 100,
                "{} / {} delivered only {}",
                kind.label(),
                choice.label(),
                d.packets_received()
            );
        }
    }
}

#[test]
fn cshift_completes_on_every_network() {
    for kind in NetworkKind::ALL {
        let sw = SoftwareModel::cm5_library(false);
        let nodes = 64;
        let cfg = CShiftConfig::new(12, sw);
        let fab = Fabric::new(kind.topology(nodes, 2), kind.fabric_config(2));
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(kind.nifdy_preset()),
            sw,
            cfg.build(nodes),
        )
        .expect("driver builds");
        assert!(
            d.run_until_quiet(30_000_000),
            "{} never finished C-shift",
            kind.label()
        );
        let expected = cfg.packets_per_node(nodes) * nodes as u64;
        assert_eq!(
            d.packets_received(),
            expected,
            "{} lost packets",
            kind.label()
        );
    }
}

#[test]
fn em3d_conserves_every_value_update() {
    let kind = NetworkKind::Torus2D;
    let mut params = Em3dParams::less_communication(3);
    params.n_nodes = 40;
    params.iters = 2;
    let sw = SoftwareModel::cm5_library(false);
    let plan = nifdy_traffic::Em3dPlan::generate(params, 64);
    let words_per_iter: u64 = plan
        .sends
        .iter()
        .flat_map(|v| v.iter().map(|(_, w)| u64::from(*w)))
        .sum();
    let fab = Fabric::new(kind.topology(64, 3), kind.fabric_config(3));
    let mut d = Driver::new(
        fab,
        &NicChoice::Nifdy(kind.nifdy_preset()),
        sw,
        params.build(64, sw),
    )
    .expect("driver builds");
    assert!(d.run_until_quiet(50_000_000), "EM3D never finished");
    assert_eq!(
        d.user_words_received(),
        words_per_iter * u64::from(params.iters),
        "value updates lost or duplicated"
    );
}

#[test]
fn radix_scan_pipeline_finishes_with_and_without_nifdy() {
    let kind = NetworkKind::Cm5;
    let sw = SoftwareModel::cm5_library(false);
    let mut cfg = ScanConfig::radix8(sw);
    cfg.buckets = 32;
    for choice in [NicChoice::Plain, NicChoice::Nifdy(kind.nifdy_preset())] {
        let fab = Fabric::new(kind.topology(64, 4), kind.fabric_config(4));
        let mut d = Driver::new(fab, &choice, sw, cfg.build(64)).expect("driver builds");
        assert!(
            d.run_until_quiet(50_000_000),
            "scan stuck with {}",
            choice.label()
        );
        // 63 forwarding stages times 32 buckets.
        let sent: u64 = d.processors().iter().map(|p| p.stats().sent.get()).sum();
        assert_eq!(sent, 63 * 32, "{}", choice.label());
    }
}

#[test]
fn nifdy_survives_the_lossy_fabric_under_a_real_workload() {
    let kind = NetworkKind::Mesh2D;
    let sw = SoftwareModel::cm5_library(false);
    let cfg = CShiftConfig::new(10, sw);
    let fab = Fabric::new(
        kind.topology(64, 5),
        kind.fabric_config(5).with_drop_prob(0.05),
    );
    let nic = kind.nifdy_preset().with_retx_timeout(3_000);
    let mut d = Driver::new(fab, &NicChoice::Nifdy(nic), sw, cfg.build(64))
        .expect("driver builds")
        .with_stall_watchdog(500_000);
    assert!(
        d.run_until_quiet(80_000_000),
        "lossy C-shift never finished"
    );
    let expected = cfg.packets_per_node(64) * 64;
    assert_eq!(
        d.packets_received(),
        expected,
        "loss leaked to the workload"
    );
}

#[test]
fn adaptive_rto_survives_the_fault_plane_under_a_real_workload() {
    // The full fault plane on a real workload: bursty loss that also takes
    // out acks, plus an independent ack-lane lottery, recovered by the
    // adaptive RTO. The stall watchdog turns any livelock into a panic
    // instead of a silent timeout.
    use nifdy_net::{FaultConfig, GilbertElliott};

    let kind = NetworkKind::Mesh2D;
    let sw = SoftwareModel::cm5_library(false);
    let cfg = CShiftConfig::new(10, sw);
    let fault = FaultConfig::default()
        .with_burst(GilbertElliott::with_mean_loss(0.05))
        .with_ack_drop_prob(0.02);
    let fab = Fabric::new(
        kind.topology(64, 5),
        kind.fabric_config(5).with_fault(fault),
    );
    let nic = kind
        .nifdy_preset()
        .with_retx_timeout(3_000)
        .with_adaptive_rto(true);
    let mut d = Driver::new(fab, &NicChoice::Nifdy(nic), sw, cfg.build(64))
        .expect("driver builds")
        .with_stall_watchdog(500_000);
    assert!(
        d.run_until_quiet(80_000_000),
        "bursty C-shift never finished"
    );
    let expected = cfg.packets_per_node(64) * 64;
    assert_eq!(
        d.packets_received(),
        expected,
        "loss leaked to the workload"
    );
    assert!(
        d.delivery_failures().is_empty(),
        "no budget configured: nothing may be abandoned"
    );
    let dropped: u64 = d.fabric().stats().dropped.get();
    assert!(dropped > 0, "the fault plane must actually have fired");
}

#[test]
fn deterministic_runs_are_bit_identical() {
    let run = || {
        let kind = NetworkKind::Multibutterfly;
        let fab = Fabric::new(kind.topology(64, 9), kind.fabric_config(9));
        let wls = SyntheticConfig::light(9).build(64);
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(kind.nifdy_preset()),
            SoftwareModel::synthetic(),
            wls,
        )
        .expect("driver builds");
        d.run_cycles(15_000);
        (d.packets_received(), d.user_words_received())
    };
    assert_eq!(run(), run(), "same seed must give the same simulation");
}

#[test]
fn total_buffer_budget_matches_between_nifdy_and_buffers_only() {
    for kind in NetworkKind::ALL {
        let preset = kind.nifdy_preset();
        let budget = preset.total_buffers();
        let built = NicChoice::BuffersOnly(preset).build(4);
        // The buffered baseline exposes no capacity getters via the trait;
        // the invariant is enforced at construction (see BufferedNic::new),
        // so here we just confirm construction succeeds for every preset.
        assert_eq!(built.len(), 4);
        assert!(budget >= 2, "{} budget degenerate", kind.label());
    }
}

#[test]
fn nifdy_routes_around_fat_tree_link_faults() {
    // §1: "faults in the network may restrict the available bandwidth" —
    // kill a quarter of the up links at the leaf level; every transfer must
    // still complete, just more slowly than on the healthy tree.
    use nifdy_net::topology::FatTree;
    use nifdy_net::SwitchingPolicy;

    fn run(dead: bool) -> (bool, u64) {
        let mut topo = FatTree::new(64);
        if dead {
            topo = topo.with_dead_up_links((0u32..16).map(|w| (0u8, w, (w % 4) as u8)));
        }
        let fab = Fabric::new(
            Box::new(topo),
            nifdy_net::FabricConfig::default()
                .with_policy(SwitchingPolicy::CutThrough)
                .with_vc_buf_flits(8),
        );
        let sw = SoftwareModel::cm5_library(false);
        let cfg = CShiftConfig::new(12, sw);
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NetworkKind::FatTree.nifdy_preset()),
            sw,
            cfg.build(64),
        )
        .expect("driver builds");
        let done = d.run_until_quiet(30_000_000);
        (done, d.fabric().now().as_u64())
    }
    let (healthy_done, healthy_t) = run(false);
    let (faulty_done, faulty_t) = run(true);
    assert!(healthy_done && faulty_done, "faults must not lose packets");
    // This light load is latency- not bandwidth-bound, so the slowdown is
    // small; the essential property is lossless completion in the same
    // regime (no timeout, no pathological degradation).
    assert!(
        faulty_t as f64 >= 0.9 * healthy_t as f64 && faulty_t < 4 * healthy_t,
        "degraded tree out of regime: {faulty_t} vs {healthy_t}"
    );
}

#[test]
fn bulk_streams_stay_in_order_under_bursty_loss_with_tight_rto_bounds() {
    // 10% Gilbert–Elliott loss on data and acks with adaptive RTO bounded
    // to [32, 2500]: duplicate scalar re-acks are frequent here, and a
    // stale one once opened a bulk dialog while the scalar it answered for
    // was still outstanding, so the stream overtook it.
    use nifdy::{Delivered, NifdyConfig, OutboundPacket};
    use nifdy_net::{FaultConfig, GilbertElliott, UserData};
    use nifdy_sim::{Cycle, NodeId};
    use nifdy_traffic::{Action, NodeWorkload};
    use std::sync::{Arc, Mutex};

    const NODES: usize = 64;
    const PER_NODE: u32 = 150;

    /// `(src, dst, pkt_index)` of every delivery, in delivery order.
    type Log = Arc<Mutex<Vec<(usize, usize, u32)>>>;

    struct Stream {
        node: usize,
        dst: NodeId,
        sent: u32,
        log: Log,
    }

    impl NodeWorkload for Stream {
        fn next_action(&mut self, _now: Cycle) -> Action {
            if self.sent == PER_NODE {
                return Action::Done;
            }
            let user = UserData {
                msg_id: 0,
                pkt_index: self.sent,
                msg_packets: 1,
                user_words: 6,
            };
            self.sent += 1;
            Action::Send(
                OutboundPacket::new(self.dst, 8)
                    .with_bulk(true)
                    .with_user(user),
            )
        }
        fn on_receive(&mut self, pkt: &Delivered, _now: Cycle) {
            self.log.lock().expect("log lock").push((
                pkt.src.index(),
                self.node,
                pkt.user.pkt_index,
            ));
        }
    }

    let kind = NetworkKind::Mesh2D;
    let seed = 139;
    let fault = FaultConfig::default().with_burst(GilbertElliott::with_mean_loss(0.10));
    let fab = Fabric::new(
        kind.topology(NODES, seed),
        kind.fabric_config(seed).with_fault(fault),
    );
    let nic = NifdyConfig::mesh()
        .with_retx_timeout(2500)
        .with_adaptive_rto(true)
        .with_rto_bounds(32, 2500);
    let log = Log::default();
    let wls = (0..NODES)
        .map(|i| -> Box<dyn NodeWorkload> {
            Box::new(Stream {
                node: i,
                dst: NodeId::new((i + NODES / 2) % NODES),
                sent: 0,
                log: Arc::clone(&log),
            })
        })
        .collect();
    let mut d = Driver::new(fab, &NicChoice::Nifdy(nic), SoftwareModel::synthetic(), wls)
        .expect("driver builds");
    let finished = d.run_until_quiet(20_000_000);

    let log = log.lock().expect("log lock");
    let mut next = vec![0u32; NODES];
    let mut misordered = Vec::new();
    for &(src, dst, idx) in log.iter() {
        assert_eq!(
            dst,
            (src + NODES / 2) % NODES,
            "delivered to the wrong node"
        );
        if idx == next[src] {
            next[src] += 1;
        } else {
            misordered.push((src, dst, idx, next[src]));
        }
    }
    assert!(
        misordered.is_empty(),
        "{} out-of-order deliveries, first (src, dst, got, expected): {:?}",
        misordered.len(),
        &misordered[..misordered.len().min(4)]
    );
    assert!(
        d.delivery_failures().is_empty(),
        "{:?}",
        d.delivery_failures()
    );
    assert!(finished, "streams never drained");
    assert_eq!(log.len(), NODES * PER_NODE as usize);
    assert!(next.iter().all(|&n| n == PER_NODE), "{next:?}");
}
