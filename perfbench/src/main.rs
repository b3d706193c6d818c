//! The NIFDY reproduction's benchmark: three workloads measured end to end
//! and, in a separate traced run, layer by layer. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-mesh-openloop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
//! end-to-end metrics and `--trace 1` the per-layer ones. The process exits
//! with 1 when any output check fails and 2 on bad arguments.

#![deny(unsafe_code)]

mod alloc;
mod daemon;
mod report;
mod sim;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use daemon::{DaemonSize, DaemonSpec};
use report::{grouped_quantile, median, quantile, Outcome};
use sim::{SimRun, SimSize, SimSpec, SimWorkload};
use spans::{Layer, Spans};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, in report order: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("delivered_per_s", "packets/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("sim_goodput_pkts_per_kcycle", "pkts/kcycle"),
    ("sim_latency_p50_cycles", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in report order: `(name, unit)`. A layer a workload
/// leaves idle reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.fabric_step.ns_per_cycle", "ns/cycle"),
    ("net.fabric_step.share", "ratio"),
    ("net.fabric_step.allocs_per_cycle", "allocs/cycle"),
    ("core.nic_step.ns_per_call", "ns/call"),
    ("core.nic_step.calls", "calls"),
    ("core.nic_step.allocs_per_call", "allocs/call"),
    ("core.send_refused_ratio", "ratio"),
    ("core.retx_per_packet", "retx/packet"),
    ("core.acks_per_packet", "acks/packet"),
    ("traffic.proc_step.ns_per_call", "ns/call"),
    ("traffic.proc_step.calls", "calls"),
    ("traffic.driver.cycles_stepped", "cycles"),
    ("trace.events", "events"),
    ("trace.ns_per_event", "ns/event"),
    ("trace.snapshot_s", "s"),
    ("analyze.analyze_s", "s"),
    ("analyze.ns_per_event", "ns/event"),
    ("node.poll_round.ns_p50", "ns"),
    ("node.poll_round.ns_p99", "ns"),
    ("node.poll_round.ns_per_frame", "ns/frame"),
    ("node.poll_round.allocs_per_frame", "allocs/frame"),
    ("node.rounds", "rounds"),
    ("node.try_send.refused_ratio", "ratio"),
    ("node.carrier_frame_share", "ratio"),
    ("wire.transport.recv_batch_ns_per_frame", "ns/frame"),
    ("wire.transport.send_batch_ns_per_frame", "ns/frame"),
    ("wire.transport.frames_per_batch", "frames/batch"),
    ("wire.codec.decode_ns_per_frame", "ns/frame"),
    ("wire.codec.encode_ns_per_frame", "ns/frame"),
    ("wire.codec.allocs_per_frame", "allocs/frame"),
    ("wire.frames_per_packet", "frames/packet"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Inputs one run derives from its seed; every run does at least one round
/// of each, so set-up time and every other figure is a median or a pool.
const SUB_SEEDS: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimMeshOpenLoop,
    SimMeshLossyTraced,
    Daemon1024,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SimMeshOpenLoop,
        Workload::SimMeshLossyTraced,
        Workload::Daemon1024,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SimMeshOpenLoop => "sim-mesh-openloop",
            Workload::SimMeshLossyTraced => "sim-mesh-lossy-traced",
            Workload::Daemon1024 => "daemon-1024",
        }
    }

    fn sim(self) -> Option<SimWorkload> {
        match self {
            Workload::SimMeshOpenLoop => Some(SimWorkload::OpenLoop),
            Workload::SimMeshLossyTraced => Some(SimWorkload::LossyTraced),
            Workload::Daemon1024 => None,
        }
    }
}

/// How much work one round of each workload does.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    sim: SimSize,
    daemon: DaemonSize,
}

/// The sizes every measurement uses.
const FULL: Sizes = Sizes {
    sim: SimSize {
        offer_cycles: 10_000,
        stream_packets: 150,
    },
    daemon: DaemonSize {
        messages: 4,
        packets: 8,
    },
};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: nifdy-perfbench --workload <sim-mesh-openloop|sim-mesh-lossy-traced|daemon-1024> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_fingerprint());
    println!(
        "workload: {} seed: {} seconds: {} trace: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        traced(args.workload, FULL, args.seed, args.seconds)
    } else {
        measure(args.workload, FULL, args.seed, args.seconds)
    };
    for m in &outcome.metrics {
        println!("{:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One end-to-end round's figures.
#[derive(Debug)]
struct Round {
    seed: u64,
    setup_s: f64,
    run_s: f64,
    planned: u64,
    delivered: u64,
    /// Final simulated clock, or daemon poll rounds.
    cycles: u64,
    /// Offer-to-delivery latency of every packet in cycles (daemon: poll
    /// rounds), sorted.
    latency_cycles: Vec<u64>,
    /// Host offer-to-delivery latency percentiles, p50 and p99.
    host_latency_ns: [f64; 2],
    /// Hash of the run's simulated statistics.
    fingerprint: u64,
    failed: u64,
    problems: Vec<String>,
}

fn sim_round(workload: SimWorkload, size: SimSize, seed: u64) -> Round {
    let t = Instant::now();
    let spec = SimSpec::new(workload, size, seed);
    let plan_s = t.elapsed().as_secs_f64();
    let (times, run) = sim::driver_run(&spec);
    Round {
        seed,
        setup_s: plan_s + times.setup_s,
        run_s: times.run_s,
        planned: spec.total(),
        delivered: run.delivered,
        cycles: run.final_clock,
        fingerprint: run.fingerprint,
        latency_cycles: run.latency_cycles,
        host_latency_ns: host_percentiles(&run.host_latency_ns),
        failed: run.failed,
        problems: run.problems,
    }
}

fn daemon_round(size: DaemonSize, seed: u64) -> Round {
    let t = Instant::now();
    let spec = DaemonSpec::new(size, seed);
    let plan_s = t.elapsed().as_secs_f64();
    let (setup_s, run_s, run) = daemon::untraced_run(&spec);
    Round {
        seed,
        setup_s: plan_s + setup_s,
        run_s,
        planned: spec.total(),
        delivered: run.delivered,
        cycles: run.rounds,
        latency_cycles: run.latency_rounds,
        host_latency_ns: host_percentiles(&run.host_latency_ns),
        fingerprint: run.fingerprint,
        failed: run.failed,
        problems: run.problems,
    }
}

/// The p50 and p99 of one round's host latencies.
fn host_percentiles(ns: &[f64]) -> [f64; 2] {
    [quantile(ns, 0.5), quantile(ns, 0.99)]
}

/// Prints the fingerprint of a run's simulated statistics: two builds that
/// print the same line for a seed simulated the same thing.
fn print_fingerprint(seed: u64, clock: u64, delivered: u64, hash: u64) {
    println!("fingerprint: seed={seed} clock={clock} delivered={delivered} hash={hash:016x}");
}

/// The seed of round `i`: rounds cycle through [`SUB_SEEDS`] inputs
/// derived from the run's seed, so one run's figures pool several inputs
/// and differ less from seed to seed.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((i % SUB_SEEDS) as u64)
}

fn one_round(workload: Workload, sizes: Sizes, seed: u64) -> Round {
    match workload.sim() {
        Some(sim) => sim_round(sim, sizes.sim, seed),
        None => daemon_round(sizes.daemon, seed),
    }
}

/// The end-to-end measurement: repeats the workload's round, with its
/// set-up, until `seconds` have passed (at least once per sub-seed).
///
/// Throughputs are totals over every round's timed window and host
/// latencies the mean of each round's percentile: on shared virtual
/// machines host speed drifts in phases of tens of seconds, and a median
/// over rounds jumps between phases where these move smoothly with the
/// mix. Set-up time is the median over rounds. The model figures pool the
/// first round of every sub-seed.
fn measure(workload: Workload, sizes: Sizes, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < SUB_SEEDS || start.elapsed().as_secs_f64() < seconds {
        let i = rounds.len();
        let mut r = one_round(workload, sizes, sub_seed(seed, i));
        println!(
            "round {i}: seed {} setup {:.6} s, run {:.6} s, {} packets, {} cycles",
            r.seed, r.setup_s, r.run_s, r.delivered, r.cycles
        );
        if i < SUB_SEEDS {
            print_fingerprint(r.seed, r.cycles, r.delivered, r.fingerprint);
        } else {
            // Only the first round of each sub-seed is pooled; keeping the
            // rest would grow the process with the run's length.
            r.latency_cycles = Vec::new();
        }
        rounds.push(r);
    }
    let mut out = Outcome::default();
    for r in &mut rounds {
        out.attempted += r.planned;
        out.failed += r.failed;
        let seed = r.seed;
        out.problems
            .extend(r.problems.drain(..).map(|p| format!("seed {seed}: {p}")));
    }
    let (firsts, repeats) = rounds.split_at(SUB_SEEDS);
    out.check(
        repeats.iter().enumerate().all(|(i, r)| {
            let first = &firsts[i % SUB_SEEDS];
            r.fingerprint == first.fingerprint
                && r.cycles == first.cycles
                && r.delivered == first.delivered
        }),
        || "repeated rounds of one seed simulated different things".to_string(),
    );
    let mut pooled: Vec<u64> = firsts
        .iter()
        .flat_map(|r| r.latency_cycles.iter().copied())
        .collect();
    pooled.sort_unstable();
    let delivered: u64 = firsts.iter().map(|r| r.delivered).sum();
    let cycles: u64 = firsts.iter().map(|r| r.cycles).sum();
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let run_s = sum(&|r| r.run_s);
    let host_us = |i: usize| sum(&|r| r.host_latency_ns[i]) / 1e3 / rounds.len() as f64;
    let figures: BTreeMap<&str, f64> = BTreeMap::from([
        ("delivered_per_s", sum(&|r| r.delivered as f64) / run_s),
        ("sim_cycles_per_s", sum(&|r| r.cycles as f64) / run_s),
        (
            "sim_goodput_pkts_per_kcycle",
            ratio(delivered as f64 * 1e3, cycles as f64),
        ),
        ("sim_latency_p50_cycles", grouped_quantile(&pooled, 0.5)),
        ("sim_latency_p99_cycles", grouped_quantile(&pooled, 0.99)),
        ("latency_p50_us", host_us(0)),
        ("latency_p99_us", host_us(1)),
        (
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN)),
    ]);
    println!("rounds: {}", rounds.len());
    fill(&mut out, END_TO_END, &figures);
    out.check(out.metrics.iter().all(|m| m.value.is_finite()), || {
        "a metric could not be measured".to_string()
    });
    out
}

/// Pushes every listed metric, taking 0 for any the workload left unset.
fn fill(out: &mut Outcome, list: &[(&'static str, &'static str)], figures: &BTreeMap<&str, f64>) {
    for &(name, unit) in list {
        out.push(name, unit, figures.get(name).copied().unwrap_or(0.0));
    }
}

/// Where a traced run writes its spans.
fn span_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

/// The per-layer measurement: repeats a traced round until `seconds` have
/// passed (at least once), reports each figure's median and writes the
/// last round's spans.
fn traced(workload: Workload, sizes: Sizes, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_spans = Spans::default();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let round_seed = sub_seed(seed, rounds.len());
        let (figures, spans) = match workload.sim() {
            Some(sim) => traced_sim(sim, sizes.sim, round_seed, &mut out),
            None => traced_daemon(sizes.daemon, round_seed, &mut out),
        };
        rounds.push(figures);
        last_spans = spans;
    }
    let path = span_path(workload, seed);
    match last_spans.write_jsonl(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            last_spans.spans().len(),
            path.display()
        ),
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
    let medians: BTreeMap<&str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            (name, median(&values))
        })
        .collect();
    println!("traced rounds: {}", rounds.len());
    fill(&mut out, PER_LAYER, &medians);
    out
}

/// Ratio `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Checks that a replay ended exactly where the driver run did.
fn same_end(out: &mut Outcome, what: &str, reference: &SimRun, replay: &SimRun) {
    out.check(
        replay.final_clock == reference.final_clock
            && replay.delivered == reference.delivered
            && replay.fingerprint == reference.fingerprint,
        || {
            format!(
                "the {what} replay diverged from the driver run: clock {} vs {}, \
                 delivered {} vs {}, fingerprint {:016x} vs {:016x}",
                replay.final_clock,
                reference.final_clock,
                replay.delivered,
                reference.delivered,
                replay.fingerprint,
                reference.fingerprint
            )
        },
    );
}

fn absorb_sim(out: &mut Outcome, planned: u64, run: &mut SimRun) {
    out.attempted += planned;
    out.failed += run.failed;
    out.problems.append(&mut run.problems);
}

/// One traced round of a sim workload: the untraced driver run as the
/// reference, a traced replay that must end in the same state and, for
/// the recording workload, a second replay with the recorder off.
fn traced_sim(
    workload: SimWorkload,
    size: SimSize,
    seed: u64,
    out: &mut Outcome,
) -> (BTreeMap<&'static str, f64>, Spans) {
    let spec = SimSpec::new(workload, size, seed);
    let (_, mut reference) = sim::driver_run(&spec);
    print_fingerprint(
        seed,
        reference.final_clock,
        reference.delivered,
        reference.fingerprint,
    );
    let records = spec.records();
    let mut spans = Spans::with_capacity(sim::span_capacity(reference.final_clock));
    let mut on = sim::replay(&spec, records, &mut spans);
    same_end(out, "traced", &reference, &on);

    let cycles = on.final_clock as f64;
    let delivered = on.delivered as f64;
    let proc = spans.totals(Layer::ProcStep);
    let nic = spans.totals(Layer::NicStep);
    let fab = spans.totals(Layer::FabricStep);
    let mut f = BTreeMap::from([
        ("net.fabric_step.ns_per_cycle", ratio(fab.ns as f64, cycles)),
        (
            "net.fabric_step.share",
            ratio(fab.ns as f64, on.loop_ns as f64),
        ),
        (
            "net.fabric_step.allocs_per_cycle",
            ratio(fab.allocs as f64, cycles),
        ),
        (
            "core.nic_step.ns_per_call",
            ratio(nic.ns as f64, nic.calls as f64),
        ),
        ("core.nic_step.calls", nic.calls as f64),
        (
            "core.nic_step.allocs_per_call",
            ratio(nic.allocs as f64, nic.calls as f64),
        ),
        (
            "core.send_refused_ratio",
            ratio(
                on.nics.send_rejected as f64,
                (on.nics.send_rejected + on.accepted) as f64,
            ),
        ),
        (
            "core.retx_per_packet",
            ratio(on.nics.retransmitted as f64, delivered),
        ),
        (
            "core.acks_per_packet",
            ratio(on.nics.acks_sent as f64, delivered),
        ),
        (
            "traffic.proc_step.ns_per_call",
            ratio(proc.ns as f64, proc.calls as f64),
        ),
        ("traffic.proc_step.calls", proc.calls as f64),
        (
            "traffic.driver.cycles_stepped",
            reference.cycles_stepped as f64,
        ),
        (
            "bench.trace_overhead_ratio",
            ratio(on.loop_ns as f64, reference.loop_ns as f64) - 1.0,
        ),
    ]);
    if records {
        let mut off_spans = Spans::with_capacity(sim::span_capacity(reference.final_clock));
        let mut off = sim::replay(&spec, false, &mut off_spans);
        same_end(out, "recorder-off", &reference, &off);
        let t = on.trace.unwrap_or_default();
        let events = t.events as f64;
        f.extend([
            ("trace.events", events),
            (
                "trace.ns_per_event",
                ratio(on.loop_ns as f64 - off.loop_ns as f64, events),
            ),
            ("trace.snapshot_s", t.snapshot_s),
            ("analyze.analyze_s", t.analyze_s),
            ("analyze.ns_per_event", ratio(t.analyze_s * 1e9, events)),
        ]);
        absorb_sim(out, spec.total(), &mut off);
    }
    absorb_sim(out, spec.total(), &mut reference);
    absorb_sim(out, spec.total(), &mut on);
    (f, spans)
}

/// One traced round of the daemon workload: an untraced run as the
/// reference for the tracing overhead, then the traced run.
fn traced_daemon(
    size: DaemonSize,
    seed: u64,
    out: &mut Outcome,
) -> (BTreeMap<&'static str, f64>, Spans) {
    let spec = DaemonSpec::new(size, seed);
    let (_, _, mut reference) = daemon::untraced_run(&spec);
    let mut t = daemon::traced_run(&spec);
    let run = &t.run;
    out.check(run.fingerprint == reference.fingerprint, || {
        format!(
            "the traced daemon run diverged from the untraced one: {} rounds vs {}",
            run.rounds, reference.rounds
        )
    });
    let poll_ns = t.spans.durations(Layer::PollRound);
    let poll = t.spans.totals(Layer::PollRound);
    let recv = t.carrier_spans.totals(Layer::RecvBatch);
    let send = t.carrier_spans.totals(Layer::SendBatch);
    let frames_in = run.sum(|s| s.frames_in) as f64;
    let frames_out = run.sum(|s| s.frames_out) as f64;
    let local = run.sum(|s| s.local_frames) as f64;
    let delivered = run.delivered as f64;
    let f = BTreeMap::from([
        (
            "core.send_refused_ratio",
            ratio(
                run.nics.send_rejected as f64,
                (run.nics.send_rejected + spec.total()) as f64,
            ),
        ),
        (
            "core.retx_per_packet",
            ratio(run.nics.retransmitted as f64, delivered),
        ),
        (
            "core.acks_per_packet",
            ratio(run.nics.acks_sent as f64, delivered),
        ),
        ("node.poll_round.ns_p50", quantile(&poll_ns, 0.5)),
        ("node.poll_round.ns_p99", quantile(&poll_ns, 0.99)),
        (
            "node.poll_round.ns_per_frame",
            ratio(poll.ns as f64, frames_in),
        ),
        (
            "node.poll_round.allocs_per_frame",
            ratio(poll.allocs as f64, frames_in),
        ),
        ("node.rounds", run.rounds as f64),
        (
            "node.try_send.refused_ratio",
            ratio(run.refused as f64, run.attempts as f64),
        ),
        (
            "node.carrier_frame_share",
            ratio(frames_out, frames_out + local),
        ),
        (
            "wire.transport.recv_batch_ns_per_frame",
            ratio(recv.ns as f64, t.recv_frames as f64),
        ),
        (
            "wire.transport.send_batch_ns_per_frame",
            ratio(send.ns as f64, t.send_frames as f64),
        ),
        (
            "wire.transport.frames_per_batch",
            ratio(
                (t.recv_frames + t.send_frames) as f64,
                t.busy_batches as f64,
            ),
        ),
        ("wire.codec.decode_ns_per_frame", t.codec.decode_ns),
        ("wire.codec.encode_ns_per_frame", t.codec.encode_ns),
        ("wire.codec.allocs_per_frame", t.codec.allocs),
        ("wire.frames_per_packet", ratio(frames_in, delivered)),
        (
            "bench.trace_overhead_ratio",
            ratio(run.loop_ns as f64, reference.loop_ns as f64) - 1.0,
        ),
    ]);
    for r in [&mut reference, &mut t.run] {
        out.attempted += spec.total();
        out.failed += r.failed;
        out.problems.append(&mut r.problems);
    }
    let mut spans = t.spans;
    spans.extend(&t.carrier_spans);
    (f, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_trace::json::{self, Json};

    /// Small enough for a debug-profile test run.
    const SMOKE: Sizes = Sizes {
        sim: SimSize {
            offer_cycles: 1_500,
            stream_packets: 8,
        },
        daemon: DaemonSize {
            messages: 1,
            packets: 2,
        },
    };

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    fn reported(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        assert_eq!(listed(END_TO_END), declared("end_to_end"));
        assert_eq!(listed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let text = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn a_short_run_of_each_workload_reports_every_metric() {
        for w in Workload::ALL {
            let e2e = measure(w, SMOKE, 3, 0.0);
            assert!(e2e.correct(), "{}: {:?}", w.name(), e2e.problems);
            assert_eq!(reported(&e2e), listed(END_TO_END), "{}", w.name());
            for m in &e2e.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            let layers = traced(w, SMOKE, 3, 0.0);
            assert!(layers.correct(), "{}: {:?}", w.name(), layers.problems);
            assert_eq!(reported(&layers), listed(PER_LAYER), "{}", w.name());
            assert!(
                layers.metrics.iter().all(|m| m.value.is_finite()),
                "{}",
                w.name()
            );
            let json = layers.to_json();
            assert!(json.starts_with("{\"correct\": true"), "{json}");
        }
    }
}
