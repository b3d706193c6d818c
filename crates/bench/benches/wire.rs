//! Clean vs. chaos transport throughput for the byte-level wire stack: the
//! same two-node bulk stream over a bare loopback transport and over a
//! [`FaultyTransport`] running the recoverable chaos mix, plus the
//! `nifdy-node` daemon driving a full rotation across 64/256/1024 hosted
//! endpoints. Besides the criterion smoke timings, the run writes a
//! machine-readable snapshot to `BENCH_wire.json` (override the path with
//! the `BENCH_WIRE_JSON` env var) so throughput regressions are diffable
//! across commits.

#![expect(clippy::disallowed_types, reason = "benches measure real elapsed time")]

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::{GilbertElliott, UserData};
use nifdy_node::workload::{run_local, SwarmPlan};
use nifdy_node::NodeConfig;
use nifdy_sim::NodeId;
use nifdy_trace::json::Json;
use nifdy_trace::WireFaultCause;
use nifdy_wire::codec::BYTES_PER_WORD;
use nifdy_wire::{
    FaultyTransport, LoopbackHub, LoopbackTransport, Transport, WireEndpoint, WireFaultConfig,
};

type CleanEndpoint = WireEndpoint<LoopbackTransport>;
type ChaosEndpoint = WireEndpoint<FaultyTransport<LoopbackTransport>>;

const SIZE_WORDS: u16 = 6;
const HUB_LATENCY: u64 = 8;
const MEAN_LOSS: f64 = 0.05;
const SEED: u64 = 1;

fn config() -> NifdyConfig {
    NifdyConfig::builder()
        .opt_entries(4)
        .pool_entries(8)
        .max_dialogs(1)
        .window(8)
        .build()
        .expect("wire bench config is valid")
        .with_retx_timeout(64)
        .with_adaptive_rto(true)
        .with_retx_budget(30)
}

fn chaos_faults() -> WireFaultConfig {
    WireFaultConfig::default()
        .with_burst(GilbertElliott::with_mean_loss(MEAN_LOSS))
        .with_corrupt_prob(0.02)
        .with_duplicate_prob(0.02)
}

/// Streams `packets` bulk packets from node 0 to node 1 and returns the
/// endpoints plus the cycle of the last delivery.
fn drive<T: Transport>(
    hub: &LoopbackHub,
    mut tx: WireEndpoint<T>,
    mut rx: WireEndpoint<T>,
    packets: u32,
) -> (u64, WireEndpoint<T>, WireEndpoint<T>) {
    let n1 = NodeId::new(1);
    let mut sent = 0u32;
    let mut got = 0u32;
    let mut last_delivery = 0u64;
    let deadline = 500_000 + u64::from(packets) * 4_000;
    while got < packets {
        assert!(
            hub.now().as_u64() < deadline,
            "wire bench wedged at {got}/{packets}"
        );
        if sent < packets {
            let pkt = OutboundPacket::new(n1, SIZE_WORDS)
                .with_bulk(true)
                .with_user(UserData {
                    msg_id: SEED,
                    pkt_index: sent,
                    msg_packets: packets,
                    user_words: SIZE_WORDS - 2,
                });
            if tx.try_send(pkt) {
                sent += 1;
            }
        }
        tx.step();
        rx.step();
        assert!(
            tx.take_failures().is_empty(),
            "recoverable chaos must not fail deliveries in the bench"
        );
        while let Some(d) = rx.poll() {
            let _ = d;
            got += 1;
            last_delivery = hub.now().as_u64();
        }
        hub.tick();
    }
    (last_delivery, tx, rx)
}

fn clean_pair(hub: &LoopbackHub) -> (CleanEndpoint, CleanEndpoint) {
    let n0 = NodeId::new(0);
    let n1 = NodeId::new(1);
    (
        WireEndpoint::new(n0, config(), hub.endpoint(n0)),
        WireEndpoint::new(n1, config(), hub.endpoint(n1)),
    )
}

fn chaos_pair(hub: &LoopbackHub) -> (ChaosEndpoint, ChaosEndpoint) {
    let n0 = NodeId::new(0);
    let n1 = NodeId::new(1);
    (
        WireEndpoint::new(
            n0,
            config(),
            FaultyTransport::new(hub.endpoint(n0), chaos_faults(), SEED),
        ),
        WireEndpoint::new(
            n1,
            config(),
            FaultyTransport::new(hub.endpoint(n1), chaos_faults(), SEED),
        ),
    )
}

fn bench_clean(c: &mut Criterion) {
    c.bench_function("wire-loopback-clean-256pkts", |b| {
        b.iter(|| {
            let hub = LoopbackHub::new(2, HUB_LATENCY);
            let (tx, rx) = clean_pair(&hub);
            drive(&hub, tx, rx, 256).0
        })
    });
}

fn bench_chaos(c: &mut Criterion) {
    c.bench_function("wire-loopback-chaos-256pkts", |b| {
        b.iter(|| {
            let hub = LoopbackHub::new(2, HUB_LATENCY);
            let (tx, rx) = chaos_pair(&hub);
            drive(&hub, tx, rx, 256).0
        })
    });
}

/// The seeded rotation a daemon bench cell runs: every endpoint streams
/// two 4-packet bulk messages to its partner.
fn daemon_plan(endpoints: usize) -> SwarmPlan {
    SwarmPlan::rotation(endpoints, 2, 4, SIZE_WORDS, true, SEED)
}

fn daemon_config() -> NodeConfig {
    NodeConfig::default()
        .with_shards(8)
        .with_batch(64)
        .with_seed(SEED)
}

fn bench_daemon(c: &mut Criterion) {
    c.bench_function("node-daemon-256ep-rotation", |b| {
        b.iter(|| {
            let run = run_local(&daemon_plan(256), daemon_config(), 1_000_000);
            assert!(
                run.stats.shards.iter().all(|s| s.failures == 0),
                "daemon bench lost packets"
            );
            run.rounds
        })
    });
}

/// One daemon cell of the snapshot: a full in-order rotation across
/// `endpoints` hosted endpoints, reported as wire frames per second.
fn daemon_cell(endpoints: usize) -> (&'static str, Json) {
    let plan = daemon_plan(endpoints);
    let start = Instant::now();
    let run = run_local(&plan, daemon_config(), 1_000_000);
    let wall = start.elapsed();
    assert_eq!(
        run.log,
        plan.expected_log(),
        "daemon bench diverged from send order at {endpoints} endpoints"
    );
    let secs = wall.as_secs_f64().max(1e-9);
    let packets = plan.total_packets();
    let key = match endpoints {
        64 => "ep64",
        256 => "ep256",
        _ => "ep1024",
    };
    (
        key,
        Json::obj([
            ("endpoints", Json::u64(endpoints as u64)),
            ("packets", Json::u64(packets)),
            ("rounds", Json::u64(run.rounds)),
            ("wall_ms", Json::Num(secs * 1e3)),
            (
                "frames_per_sec",
                Json::Num(run.stats.frames_in as f64 / secs),
            ),
            ("packets_per_sec", Json::Num(packets as f64 / secs)),
        ]),
    )
}

/// One timed cell of the snapshot: wall time and simulated cycles for a
/// fixed-size stream.
fn timed_cell(chaos: bool, packets: u32) -> (u64, Duration, u64, Vec<(&'static str, u64)>) {
    let hub = LoopbackHub::new(2, HUB_LATENCY);
    let start = Instant::now();
    if chaos {
        let (tx, rx) = chaos_pair(&hub);
        let (cycles, tx, rx) = drive(&hub, tx, rx, packets);
        let wall = start.elapsed();
        let retx = tx.stats().retransmitted.get();
        let counts = WireFaultCause::ALL
            .iter()
            .map(|&cause| {
                let n = tx.port().transport().stats().count(cause)
                    + rx.port().transport().stats().count(cause);
                (cause.label(), n)
            })
            .collect();
        (cycles, wall, retx, counts)
    } else {
        let (tx, rx) = clean_pair(&hub);
        let (cycles, tx, _rx) = drive(&hub, tx, rx, packets);
        let wall = start.elapsed();
        (cycles, wall, tx.stats().retransmitted.get(), Vec::new())
    }
}

fn cell_json(packets: u32, cycles: u64, wall: Duration, retx: u64) -> Vec<(&'static str, Json)> {
    let bytes = u64::from(packets) * u64::from(SIZE_WORDS) * BYTES_PER_WORD as u64;
    let secs = wall.as_secs_f64().max(1e-9);
    vec![
        ("packets", Json::u64(u64::from(packets))),
        ("cycles", Json::u64(cycles)),
        ("wall_ms", Json::Num(secs * 1e3)),
        ("packets_per_sec", Json::Num(f64::from(packets) / secs)),
        (
            "bytes_per_cycle",
            Json::Num(bytes as f64 / cycles.max(1) as f64),
        ),
        ("retransmits", Json::u64(retx)),
    ]
}

/// Writes the clean-vs-chaos snapshot consumed by trend tooling.
fn emit_snapshot() {
    let packets = 4_096u32;
    let (clean_cycles, clean_wall, clean_retx, _) = timed_cell(false, packets);
    let (chaos_cycles, chaos_wall, chaos_retx, faults) = timed_cell(true, packets);
    let mut chaos_fields = cell_json(packets, chaos_cycles, chaos_wall, chaos_retx);
    chaos_fields.push(("mean_loss", Json::Num(MEAN_LOSS)));
    chaos_fields.push((
        "fault_counts",
        Json::Obj(
            faults
                .iter()
                .map(|&(k, n)| (k.to_string(), Json::u64(n)))
                .collect(),
        ),
    ));
    let doc = Json::obj([
        ("bench", Json::str("wire")),
        ("seed", Json::u64(SEED)),
        ("size_words", Json::u64(u64::from(SIZE_WORDS))),
        ("hub_latency", Json::u64(HUB_LATENCY)),
        (
            "clean",
            Json::obj(cell_json(packets, clean_cycles, clean_wall, clean_retx)),
        ),
        ("chaos", Json::obj(chaos_fields)),
        (
            "chaos_cycle_overhead",
            Json::Num(chaos_cycles as f64 / clean_cycles.max(1) as f64),
        ),
        (
            "daemon",
            Json::obj([daemon_cell(64), daemon_cell(256), daemon_cell(1024)]),
        ),
    ]);
    let path = std::env::var("BENCH_WIRE_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json").into());
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

criterion_group! {
    name = wire;
    config = Criterion::default().sample_size(10);
    targets = bench_clean, bench_chaos, bench_daemon
}

fn main() {
    wire();
    emit_snapshot();
}
