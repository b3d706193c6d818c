//! NIFDY unit stepping cost — the per-cycle protocol overhead every
//! simulated node pays — with a machine-readable snapshot. Besides the
//! criterion smoke timings, the run writes `BENCH_unit.json` (override
//! the path with the `BENCH_UNIT_JSON` env var) so protocol-hot-path
//! regressions are diffable across commits, alongside `BENCH_wire.json`
//! and `BENCH_fabric.json`.

#![expect(clippy::disallowed_types, reason = "benches measure real elapsed time")]

use std::time::{Duration, Instant};

use criterion::{criterion_group, BatchSize, Criterion};
use nifdy::{Nic, NifdyConfig, NifdyUnit, OutboundPacket};
use nifdy_harness::NetworkKind;
use nifdy_net::Fabric;
use nifdy_sim::NodeId;
use nifdy_trace::json::Json;

const NODES: usize = 64;
const SNAPSHOT_STEPS: u64 = 50_000;

/// A unit on a mesh with its send pool kept warm: eight scalar sends in
/// flight so stepping exercises the OPT, the pool, and ack processing.
fn loaded_unit() -> (Fabric, NifdyUnit) {
    let mut fab = Fabric::new(
        NetworkKind::Mesh2D.topology(NODES, 1),
        NetworkKind::Mesh2D.fabric_config(1),
    );
    let mut nic = NifdyUnit::new(NodeId::new(0), NifdyConfig::default());
    for i in 1..9 {
        let _ = nic.try_send(OutboundPacket::new(NodeId::new(i), 8), fab.now());
    }
    nic.step(&mut fab); // warm the first injection
    (fab, nic)
}

/// A unit with nothing to do: measures the fixed per-cycle overhead.
fn idle_unit() -> (Fabric, NifdyUnit) {
    let fab = Fabric::new(
        NetworkKind::Mesh2D.topology(NODES, 1),
        NetworkKind::Mesh2D.fabric_config(1),
    );
    let nic = NifdyUnit::new(NodeId::new(0), NifdyConfig::default());
    (fab, nic)
}

fn bench_unit_step(c: &mut Criterion) {
    c.bench_function("unit-bench-step-loaded", |b| {
        b.iter_batched_ref(
            loaded_unit,
            |(fab, nic)| {
                for _ in 0..1_000 {
                    nic.step(fab);
                    fab.step();
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("unit-bench-step-idle", |b| {
        b.iter_batched_ref(
            idle_unit,
            |(fab, nic)| {
                for _ in 0..1_000 {
                    nic.step(fab);
                    fab.step();
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// One snapshot cell: wall time for a fixed unit+fabric step count.
fn timed_cell(loaded: bool) -> Duration {
    let (mut fab, mut nic) = if loaded { loaded_unit() } else { idle_unit() };
    let start = Instant::now();
    for _ in 0..SNAPSHOT_STEPS {
        nic.step(&mut fab);
        fab.step();
    }
    start.elapsed()
}

fn cell_json(wall: Duration) -> Json {
    let secs = wall.as_secs_f64().max(1e-9);
    Json::obj([
        ("steps", Json::u64(SNAPSHOT_STEPS)),
        ("wall_ms", Json::Num(secs * 1e3)),
        ("steps_per_sec", Json::Num(SNAPSHOT_STEPS as f64 / secs)),
    ])
}

/// Writes the idle-vs-loaded unit-step snapshot consumed by trend tooling.
fn emit_snapshot() {
    let idle = timed_cell(false);
    let loaded = timed_cell(true);
    let doc = Json::obj([
        ("bench", Json::str("unit")),
        ("nodes", Json::u64(NODES as u64)),
        ("idle", cell_json(idle)),
        ("loaded", cell_json(loaded)),
        (
            "loaded_overhead",
            Json::Num(loaded.as_secs_f64() / idle.as_secs_f64().max(1e-9)),
        ),
    ]);
    let path = std::env::var("BENCH_UNIT_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_unit.json").into());
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

criterion_group! {
    name = unit;
    config = Criterion::default().sample_size(10);
    targets = bench_unit_step
}

fn main() {
    unit();
    emit_snapshot();
}
