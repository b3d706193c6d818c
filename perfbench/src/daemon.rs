//! The `daemon-1024` workload: two `NifdyNode` daemons in one thread host
//! 1024 supervised endpoints between them, joined by one in-memory
//! `LoopbackHub` carrier, so no socket is involved.

use std::hash::Hasher;
use std::hint::black_box;
use std::time::Instant;

use nifdy::OutboundPacket;
use nifdy_net::{Lane, UserData};
use nifdy_node::workload::{PlannedPacket, SwarmPlan};
use nifdy_node::{NifdyNode, NodeConfig, NodeStats};
use nifdy_sim::{Cycle, NodeId, SimRng};
use nifdy_wire::conformance::DeliveryLog;
use nifdy_wire::{
    decode_frame, encode, encode_heartbeat, BatchTransport, LoopbackHub, LoopbackTransport,
    Transport, WireFrame,
};

use crate::alloc;
use crate::report::Fnv;
use crate::sim::NicTotals;
use crate::spans::{self, Layer, Spans};

/// Endpoints hosted across the two daemons.
pub const ENDPOINTS: usize = 1024;
/// Daemons sharing the endpoints.
const DAEMONS: usize = 2;
/// Packet length in words, header included (as `node:serve`).
const SIZE_WORDS: u16 = 6;
/// Hub latency between the daemons, in rounds.
const CARRIER_LATENCY: u64 = 1;
/// Frames the traced run keeps for the codec timings.
const CAPTURE_FRAMES: usize = 1 << 15;
/// Bytes reserved for the captured frames.
const CAPTURE_BYTES: usize = CAPTURE_FRAMES * 64;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct DaemonSize {
    /// Messages each endpoint sends.
    pub messages: u64,
    /// Packets per message.
    pub packets: u32,
}

/// A workload instance: the plan and the daemon placement for one seed.
#[derive(Debug)]
pub struct DaemonSpec {
    seed: u64,
    packets: u32,
    plan: SwarmPlan,
    expected: DeliveryLog,
    /// Daemon hosting each endpoint.
    owner: Vec<usize>,
    /// Endpoints hosted by each daemon, in id order.
    hosted: Vec<Vec<usize>>,
    round_limit: u64,
}

/// A seeded 64-bit mix (SplitMix64's finalizer).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DaemonSpec {
    /// Every endpoint sends `size.messages` bulk messages of `size.packets`
    /// packets, each to a uniform-random other endpoint; endpoints are
    /// placed on a daemon by a seeded hash of their id.
    pub fn new(size: DaemonSize, seed: u64) -> Self {
        let mut rng = SimRng::from_seed_stream(seed, 0xDAE);
        let sends = (0..ENDPOINTS)
            .map(|src| {
                let mut queue = Vec::new();
                for m in 0..size.messages {
                    let mut dst = rng.gen_range_usize(0..ENDPOINTS - 1);
                    if dst >= src {
                        dst += 1;
                    }
                    for p in 0..size.packets {
                        queue.push(PlannedPacket {
                            dst: NodeId::new(dst),
                            user: UserData {
                                msg_id: ((src as u64) << 32) | m,
                                pkt_index: p,
                                msg_packets: size.packets,
                                user_words: SIZE_WORDS - 2,
                            },
                        });
                    }
                }
                queue
            })
            .collect();
        let plan = SwarmPlan {
            nodes: ENDPOINTS,
            size_words: SIZE_WORDS,
            want_bulk: true,
            seed,
            sends,
        };
        let owner: Vec<usize> = (0..ENDPOINTS)
            .map(|n| (mix(seed ^ mix(n as u64)) % DAEMONS as u64) as usize)
            .collect();
        let hosted = (0..DAEMONS)
            .map(|d| (0..ENDPOINTS).filter(|&n| owner[n] == d).collect())
            .collect();
        let expected = plan.expected_log();
        let round_limit = size.messages * u64::from(size.packets) * 20_000 + 100_000;
        DaemonSpec {
            seed,
            packets: size.packets,
            plan,
            expected,
            owner,
            hosted,
            round_limit,
        }
    }

    /// Planned packets.
    pub fn total(&self) -> u64 {
        self.plan.total_packets()
    }

    /// Builds the two daemons and their hub, wrapping each daemon's hub
    /// endpoint with `carrier`.
    fn build<C: BatchTransport>(
        &self,
        carrier: impl Fn(LoopbackTransport) -> C,
    ) -> (LoopbackHub, Vec<NifdyNode<C>>) {
        let hub = LoopbackHub::new(DAEMONS, CARRIER_LATENCY);
        let daemons = (0..DAEMONS)
            .map(|d| {
                let cfg = NodeConfig::default()
                    .with_shards(8)
                    .with_batch(64)
                    .with_seed(self.seed.wrapping_add(d as u64));
                let mut node = NifdyNode::new(cfg);
                let c = node.add_carrier(carrier(hub.endpoint(NodeId::new(d))));
                for (n, &owner) in self.owner.iter().enumerate() {
                    if owner == d {
                        node.add_endpoint(NodeId::new(n), Vec::new());
                    } else {
                        node.set_route(NodeId::new(n), c, NodeId::new(owner));
                    }
                }
                node
            })
            .collect();
        (hub, daemons)
    }
}

/// The outcome of one daemon run.
#[derive(Debug, Default)]
pub struct DaemonRun {
    /// Poll rounds until every planned packet was delivered.
    pub rounds: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Planned packets not delivered exactly once in per-pair order.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Rounds from first offer to delivery, every packet, sorted.
    pub latency_rounds: Vec<u64>,
    /// Host nanoseconds from the round of first offer to delivery.
    pub host_latency_ns: Vec<f64>,
    /// `try_send` calls.
    pub attempts: u64,
    /// `try_send` calls refused.
    pub refused: u64,
    /// Each daemon's counters.
    pub stats: Vec<NodeStats>,
    /// The endpoints' summed interface counters.
    pub nics: NicTotals,
    /// Host nanoseconds in the round loop.
    pub loop_ns: u64,
    /// Hash of the rounds, the per-packet round latencies and the daemon
    /// counters: the run's simulated statistics.
    pub fingerprint: u64,
}

impl DaemonRun {
    /// A counter summed over both daemons.
    pub fn sum(&self, f: impl Fn(&NodeStats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }
}

/// Closes a span when spans are being recorded.
fn close(
    spans: &mut Option<&mut Spans>,
    layer: Layer,
    step: u64,
    from: Option<spans::Mark>,
    calls: u32,
) {
    if let (Some(s), Some(m)) = (spans.as_deref_mut(), from) {
        s.close(layer, step, m, calls);
    }
}

/// Runs the plan to completion. Every round, each endpoint with packets
/// left offers its next one (a refused packet is offered again next round),
/// then both daemons poll and the hub clock advances.
fn drive<C: BatchTransport>(
    spec: &DaemonSpec,
    hub: &LoopbackHub,
    daemons: &mut [NifdyNode<C>],
    mut spans: Option<&mut Spans>,
) -> DaemonRun {
    let total = spec.total();
    let p = spec.packets as usize;
    let mut next = vec![0usize; ENDPOINTS];
    let mut first_offer: Vec<Option<(u64, u64)>> = vec![None; ENDPOINTS];
    let mut offered: Vec<Vec<(u64, u64)>> = spec
        .plan
        .sends
        .iter()
        .map(|q| vec![(0, 0); q.len()])
        .collect();
    let mut run = DaemonRun::default();
    let mut log = DeliveryLog::new();
    let traced = spans.is_some();
    let mark = || traced.then(spans::mark);

    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let round_ns = start.elapsed().as_nanos() as u64;
        for (d, daemon) in daemons.iter_mut().enumerate() {
            let m = mark();
            let mut calls = 0;
            for &src in &spec.hosted[d] {
                let queue = &spec.plan.sends[src];
                let i = next[src];
                let Some(planned) = queue.get(i) else {
                    continue;
                };
                let stamp = *first_offer[src].get_or_insert((round, round_ns));
                let pkt = OutboundPacket::new(planned.dst, SIZE_WORDS)
                    .with_bulk(true)
                    .with_user(planned.user);
                calls += 1;
                if daemon.try_send(NodeId::new(src), pkt) {
                    offered[src][i] = stamp;
                    next[src] += 1;
                    first_offer[src] = None;
                } else {
                    run.refused += 1;
                }
            }
            run.attempts += u64::from(calls);
            close(&mut spans, Layer::TrySend, round, m, calls);
        }
        for daemon in daemons.iter_mut() {
            let m = mark();
            daemon.poll_round();
            close(&mut spans, Layer::PollRound, round, m, 1);
        }
        hub.tick();
        let done_ns = start.elapsed().as_nanos() as u64;
        for daemon in daemons.iter_mut() {
            while let Some((dst, d)) = daemon.next_delivery() {
                let src = d.src.index();
                log.entry((src, dst.index()))
                    .or_default()
                    .push((d.user.msg_id, d.user.pkt_index));
                run.delivered += 1;
                let pos = (d.user.msg_id & 0xffff_ffff) as usize * p + d.user.pkt_index as usize;
                if let Some(&(r0, ns0)) = offered[src].get(pos) {
                    run.latency_rounds.push(round - r0);
                    run.host_latency_ns.push((done_ns - ns0) as f64);
                }
            }
        }
        round += 1;
        if run.delivered >= total || round >= spec.round_limit {
            break;
        }
    }
    run.loop_ns = start.elapsed().as_nanos() as u64;
    run.rounds = round;
    let mut fp = Fnv::default();
    fp.write_u64(round);
    for &r in &run.latency_rounds {
        fp.write_u64(r);
    }
    run.latency_rounds.sort_unstable();

    // Output checks.
    if log != spec.expected {
        run.failed = mismatched(&spec.expected, &log);
        run.problems.push(format!(
            "the delivery log differs from the plan's expected log ({} packets)",
            run.failed
        ));
    }
    if run.delivered != total {
        run.problems.push(format!(
            "delivered {} of {total} planned packets",
            run.delivered
        ));
    }
    let mut failures = 0;
    for daemon in daemons.iter_mut() {
        failures += daemon.take_failures().len() as u64;
        run.stats.push(daemon.stats().clone());
    }
    run.nics = NicTotals::sum(daemons.iter().flat_map(|daemon| {
        daemon
            .endpoints()
            .filter_map(|n| daemon.supervised(n))
            .map(|ep| ep.endpoint().stats())
    }));
    for stats in &run.stats {
        fp.debug(stats);
    }
    run.fingerprint = fp.finish();
    let counters = [
        ("unroutable", run.sum(|s| s.unroutable)),
        ("foreign", run.sum(|s| s.foreign)),
        ("dropped-down", run.sum(|s| s.dropped_down)),
        ("failure", failures),
    ];
    for (name, count) in counters {
        if count > 0 {
            run.problems
                .push(format!("{count} {name} frames or packets"));
        }
    }
    run
}

/// Planned packets missing from `got`'s per-pair sequences (compared as
/// the longest matching prefix), plus deliveries the plan never made.
pub fn mismatched(expected: &DeliveryLog, got: &DeliveryLog) -> u64 {
    let mut failed = 0;
    for (pair, want) in expected {
        let have = got.get(pair).map_or(&[][..], Vec::as_slice);
        let prefix = want.iter().zip(have).take_while(|(a, b)| a == b).count();
        failed += (want.len() - prefix) as u64;
    }
    for (pair, have) in got {
        if !expected.contains_key(pair) {
            failed += have.len() as u64;
        }
    }
    failed
}

/// One untraced run: set-up seconds, seconds from the first round to
/// verified completion, and the run.
pub fn untraced_run(spec: &DaemonSpec) -> (f64, f64, DaemonRun) {
    let setup = Instant::now();
    let (hub, mut daemons) = spec.build(|t| t);
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let run = drive(spec, &hub, &mut daemons, None);
    (setup_s, start.elapsed().as_secs_f64(), run)
}

/// A bounded copy of carrier frames in preallocated buffers, so capturing
/// never allocates.
#[derive(Debug, Default)]
struct Capture {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Capture {
    fn with_capacity() -> Self {
        Capture {
            bytes: Vec::with_capacity(CAPTURE_BYTES),
            ends: Vec::with_capacity(CAPTURE_FRAMES),
        }
    }

    /// Keeps a copy of `frame` while the buffers have room.
    fn keep(&mut self, frame: &[u8]) {
        if self.ends.len() < self.ends.capacity()
            && self.bytes.len() + frame.len() <= self.bytes.capacity()
        {
            self.bytes.extend_from_slice(frame);
            self.ends.push(self.bytes.len());
        }
    }

    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.bytes[a..b])
    }
}

/// A carrier wrapper that times `recv_batch`/`send_batch`, counts frames
/// and captures frames for the codec timings.
#[derive(Debug)]
pub struct Probe {
    inner: LoopbackTransport,
    spans: Spans,
    /// Batch calls that moved at least one frame.
    busy_batches: u64,
    recv_frames: u64,
    send_frames: u64,
    capture: Capture,
}

impl Probe {
    fn new(inner: LoopbackTransport) -> Self {
        Probe {
            inner,
            spans: Spans::with_capacity(1 << 16),
            busy_batches: 0,
            recv_frames: 0,
            send_frames: 0,
            capture: Capture::with_capacity(),
        }
    }
}

impl Transport for Probe {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn tick(&mut self) {
        self.inner.tick();
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        self.inner.send(dst, lane, frame);
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.inner.recv(lane)
    }
}

impl BatchTransport for Probe {
    fn recv_batch(&mut self, lane: Lane, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let step = self.inner.now().as_u64();
        let m = spans::mark();
        let n = self.inner.recv_batch(lane, max, out);
        self.spans.close(Layer::RecvBatch, step, m, 1);
        if n > 0 {
            self.busy_batches += 1;
            self.recv_frames += n as u64;
            for frame in &out[out.len() - n..] {
                self.capture.keep(frame);
            }
        }
        n
    }

    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        if !frames.is_empty() {
            self.busy_batches += 1;
            self.send_frames += frames.len() as u64;
            for (_, _, frame) in frames.iter() {
                self.capture.keep(frame);
            }
        }
        let step = self.inner.now().as_u64();
        let m = spans::mark();
        self.inner.send_batch(frames);
        self.spans.close(Layer::SendBatch, step, m, 1);
    }
}

/// Codec figures over the captured frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecFigures {
    /// Nanoseconds per `decode_frame`.
    pub decode_ns: f64,
    /// Nanoseconds per re-encode.
    pub encode_ns: f64,
    /// Allocations per decode plus re-encode.
    pub allocs: f64,
}

/// Times `decode_frame` and the matching encoder over `frames`, checking
/// that re-encoding every decoded frame gives back the same bytes.
pub fn codec_figures(frames: &[&[u8]], problems: &mut Vec<String>) -> CodecFigures {
    let reencode = |f: &WireFrame| match f {
        WireFrame::Packet(wp) => encode(wp),
        WireFrame::Heartbeat(hb) => encode_heartbeat(hb),
    };
    let mut decoded = Vec::with_capacity(frames.len());
    let mut bad = 0;
    let was = alloc::set_counting(true);
    let a0 = alloc::allocs();
    for &bytes in frames {
        match decode_frame(bytes) {
            Ok(f) => {
                if reencode(&f) != bytes {
                    bad += 1;
                }
                decoded.push(f);
            }
            Err(_) => bad += 1,
        }
    }
    let allocs = alloc::allocs() - a0;
    alloc::set_counting(was);
    if bad > 0 {
        problems.push(format!(
            "{bad} captured frames did not decode and re-encode to the same bytes"
        ));
    }
    let n = frames.len().max(1) as f64;
    // Repeat each pass until it has run for at least 20 ms.
    let time = |pass: &dyn Fn()| {
        let t = Instant::now();
        let mut passes = 0u32;
        while passes == 0 || t.elapsed().as_millis() < 20 {
            pass();
            passes += 1;
        }
        t.elapsed().as_nanos() as f64 / (f64::from(passes) * n)
    };
    let decode_ns = time(&|| {
        for &bytes in frames {
            let _ = black_box(decode_frame(black_box(bytes)));
        }
    });
    let encode_ns = time(&|| {
        for f in &decoded {
            black_box(reencode(black_box(f)));
        }
    });
    CodecFigures {
        decode_ns,
        encode_ns,
        allocs: allocs as f64 / n,
    }
}

/// What the traced daemon run measured.
#[derive(Debug)]
pub struct TracedDaemon {
    /// The run itself (checked like an untraced run).
    pub run: DaemonRun,
    /// `try_send` and `poll_round` spans.
    pub spans: Spans,
    /// Carrier batch spans, both daemons.
    pub carrier_spans: Spans,
    /// Frames received through `recv_batch`.
    pub recv_frames: u64,
    /// Frames sent through `send_batch`.
    pub send_frames: u64,
    /// Batch calls that moved at least one frame.
    pub busy_batches: u64,
    /// Codec timings over the captured frames.
    pub codec: CodecFigures,
}

/// One traced run: spans around `try_send`, `poll_round` and the carrier's
/// batch calls, with allocation counting on for the round loop.
pub fn traced_run(spec: &DaemonSpec) -> TracedDaemon {
    let (hub, mut daemons) = spec.build(Probe::new);
    let mut spans = Spans::with_capacity(1 << 16);
    let was = alloc::set_counting(true);
    let mut run = drive(spec, &hub, &mut daemons, Some(&mut spans));
    alloc::set_counting(was);
    let mut traced = TracedDaemon {
        run: DaemonRun::default(),
        spans,
        carrier_spans: Spans::default(),
        recv_frames: 0,
        send_frames: 0,
        busy_batches: 0,
        codec: CodecFigures::default(),
    };
    let mut captures = Vec::new();
    for daemon in &mut daemons {
        let probe = daemon.carrier_mut(0);
        traced.carrier_spans.extend(&probe.spans);
        traced.recv_frames += probe.recv_frames;
        traced.send_frames += probe.send_frames;
        traced.busy_batches += probe.busy_batches;
        captures.push(std::mem::take(&mut probe.capture));
    }
    let frames: Vec<&[u8]> = captures.iter().flat_map(Capture::frames).collect();
    traced.codec = codec_figures(&frames, &mut run.problems);
    traced.run = run;
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: DaemonSize = DaemonSize {
        messages: 1,
        packets: 2,
    };

    #[test]
    fn an_intact_expected_log_passes() {
        let spec = DaemonSpec::new(SMALL, 3);
        let (_, _, run) = untraced_run(&spec);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        assert_eq!((run.delivered, run.failed), (spec.total(), 0));
    }

    #[test]
    fn a_broken_expected_log_fails_the_check() {
        let mut spec = DaemonSpec::new(SMALL, 3);
        let order = spec.expected.values_mut().next().expect("a pair");
        order.swap(0, 1);
        let (_, _, run) = untraced_run(&spec);
        assert_eq!(run.failed, 2, "both swapped packets count as failed");
        assert!(
            run.problems.iter().any(|p| p.contains("expected log")),
            "{:?}",
            run.problems
        );
    }

    #[test]
    fn mismatched_counts_missing_and_unplanned_packets() {
        let expected = DeliveryLog::from([((0, 1), vec![(0, 0), (0, 1)])]);
        let got = DeliveryLog::from([((0, 1), vec![(0, 0)]), ((2, 1), vec![(5, 0)])]);
        assert_eq!(mismatched(&expected, &got), 2);
        assert_eq!(mismatched(&expected, &expected), 0);
    }
}
