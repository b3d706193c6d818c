//! Fabric stepping throughput across the four topologies, with a
//! machine-readable snapshot. Besides the criterion smoke timings, the
//! run writes `BENCH_fabric.json` (override the path with the
//! `BENCH_FABRIC_JSON` env var) so simulator-throughput regressions are
//! diffable across commits, alongside `BENCH_wire.json` and
//! `BENCH_unit.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use nifdy_harness::NetworkKind;
use nifdy_net::Fabric;
use nifdy_sim::NodeId;
use nifdy_trace::json::Json;
use nifdy_traffic::{NicChoice, ScanConfig, Scenario, SoftwareModel};

const NODES: usize = 64;
const SNAPSHOT_STEPS: u64 = 20_000;

const KINDS: [NetworkKind; 4] = [
    NetworkKind::Mesh2D,
    NetworkKind::FatTree,
    NetworkKind::Cm5,
    NetworkKind::Butterfly,
];

/// A 64-node fabric primed with crossing traffic so the measurement sees
/// busy routers, not idle ones.
fn loaded_fabric(kind: NetworkKind) -> Fabric {
    let mut fab = Fabric::new(kind.topology(NODES, 1), kind.fabric_config(1));
    for i in 0..NODES / 2 {
        let src = NodeId::new(i);
        let dst = NodeId::new(NODES - 1 - i);
        let pkt = nifdy_net::Packet::data(nifdy_sim::PacketId::new(i as u64), src, dst, 8);
        fab.inject(src, pkt);
    }
    fab
}

fn bench_fabric_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric-bench-step");
    group.throughput(Throughput::Elements(1_000));
    for kind in KINDS {
        group.bench_function(kind.label(), |b| {
            b.iter_batched_ref(
                || loaded_fabric(kind),
                |fab| {
                    for _ in 0..1_000 {
                        fab.step();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// One snapshot cell: wall time for a fixed step count on a loaded fabric.
fn timed_cell(kind: NetworkKind) -> (Duration, u64) {
    let mut fab = loaded_fabric(kind);
    let start = Instant::now();
    for _ in 0..SNAPSHOT_STEPS {
        fab.step();
    }
    let stats = fab.stats();
    let delivered = stats.delivered[0].get() + stats.delivered[1].get();
    (start.elapsed(), delivered)
}

/// One full-scale fig9 radix-scan cell driven end to end; returns
/// (simulated cycles, wall time).
fn scan_cell(delay: u64) -> (u64, Duration) {
    let kind = NetworkKind::FatTree;
    let sw = SoftwareModel::cm5_library(!kind.reorders());
    let mut d = Scenario::new(kind)
        .seed(1)
        .nic(NicChoice::Plain)
        .software(sw)
        .build_with(|sc| {
            ScanConfig::radix8(sc.sw())
                .with_delay(delay)
                .build(sc.nodes())
        })
        .expect("fig9 scan cell builds");
    let start = Instant::now();
    assert!(d.run_until_quiet(1_000_000_000), "scan cell must finish");
    (d.fabric().now().as_u64(), start.elapsed())
}

/// Representative fig9 full-scale cells: the saturated radix scan
/// (delay 0) and the sparser delayed scan. Records simulated-cycles/sec so
/// the bench gate tracks end-to-end simulator throughput, not just raw
/// fabric stepping; the simulated clock is a deterministic work counter.
fn scan_cells() -> Vec<(String, Json)> {
    let mut cells = Vec::new();
    for (label, delay) in [("scan-none-0", 0u64), ("scan-none-60", 60u64)] {
        let (cycles, wall) = scan_cell(delay);
        let secs = wall.as_secs_f64().max(1e-9);
        cells.push((
            label.to_string(),
            Json::obj([
                ("cycles", Json::u64(cycles)),
                ("wall_ms", Json::Num(secs * 1e3)),
                ("cycles_per_sec", Json::Num(cycles as f64 / secs)),
            ]),
        ));
    }
    cells
}

/// Writes the per-topology stepping-throughput snapshot consumed by trend
/// tooling.
fn emit_snapshot() {
    let mut cells = Vec::new();
    for kind in KINDS {
        let (wall, delivered) = timed_cell(kind);
        let secs = wall.as_secs_f64().max(1e-9);
        cells.push((
            kind.label().to_string(),
            Json::obj([
                ("steps", Json::u64(SNAPSHOT_STEPS)),
                ("wall_ms", Json::Num(secs * 1e3)),
                ("steps_per_sec", Json::Num(SNAPSHOT_STEPS as f64 / secs)),
                ("delivered", Json::u64(delivered)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("bench", Json::str("fabric")),
        ("nodes", Json::u64(NODES as u64)),
        ("topologies", Json::Obj(cells.into_iter().collect())),
        ("scan", Json::Obj(scan_cells().into_iter().collect())),
    ]);
    let path = std::env::var("BENCH_FABRIC_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fabric.json").into());
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

criterion_group! {
    name = fabric;
    config = Criterion::default().sample_size(10);
    targets = bench_fabric_step
}

fn main() {
    fabric();
    emit_snapshot();
}
