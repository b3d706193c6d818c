//! In-memory layer spans for the traced runs.
//!
//! A span covers one layer's calls within one simulated cycle or daemon
//! round: when the calls started, how long they took together, how many
//! there were and how many allocations they made. Spans are recorded from
//! the benchmark's own code, around calls into each layer's public
//! functions; the program itself is not instrumented. The buffer is
//! preallocated before counting starts so recording allocates nothing.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::alloc;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Processor::step` over every node (`traffic`).
    ProcStep,
    /// `Nic::step` over every node that is due (`core`).
    NicStep,
    /// `Fabric::step` (`net`).
    FabricStep,
    /// `NifdyNode::try_send` over one daemon's endpoints (`node`).
    TrySend,
    /// `NifdyNode::poll_round` (`node`).
    PollRound,
    /// `BatchTransport::recv_batch` on the carrier (`wire`).
    RecvBatch,
    /// `BatchTransport::send_batch` on the carrier (`wire`).
    SendBatch,
}

impl Layer {
    /// The layer's name in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ProcStep => "traffic.proc_step",
            Layer::NicStep => "core.nic_step",
            Layer::FabricStep => "net.fabric_step",
            Layer::TrySend => "node.try_send",
            Layer::PollRound => "node.poll_round",
            Layer::RecvBatch => "wire.transport.recv_batch",
            Layer::SendBatch => "wire.transport.send_batch",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The timed layer.
    pub layer: Layer,
    /// The cycle or round the calls belong to (spans of one step share it).
    pub step: u64,
    /// Start, in nanoseconds since the process's time base.
    pub start_ns: u64,
    /// Duration of the calls together.
    pub dur_ns: u64,
    /// Calls covered.
    pub calls: u32,
    /// Allocations the calls made (zero unless counting is on).
    pub allocs: u32,
}

/// Nanoseconds since the process's time base.
#[inline]
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A mark taken before a group of calls.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    ns: u64,
    allocs: u64,
}

impl Mark {
    /// Nanoseconds from `earlier` to this mark.
    pub fn ns_since(self, earlier: Mark) -> u64 {
        self.ns - earlier.ns
    }
}

/// Takes a mark.
#[inline]
pub fn mark() -> Mark {
    Mark {
        ns: now_ns(),
        allocs: alloc::allocs(),
    }
}

/// A preallocated span buffer.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// A buffer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Closes the calls started at `from`, recording them as one span, and
    /// returns the mark that ends it (the start of the next group).
    #[inline]
    pub fn close(&mut self, layer: Layer, step: u64, from: Mark, calls: u32) -> Mark {
        let to = mark();
        if self.spans.len() == self.spans.capacity() {
            // Growing the buffer must not be charged to the layer.
            let was = alloc::set_counting(false);
            self.spans.reserve(self.spans.len().max(1024));
            alloc::set_counting(was);
        }
        self.spans.push(Span {
            layer,
            step,
            start_ns: from.ns,
            dur_ns: to.ns - from.ns,
            calls,
            allocs: (to.allocs - from.allocs) as u32,
        });
        to
    }

    /// Every span recorded, in order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another buffer's spans.
    pub fn extend(&mut self, other: &Spans) {
        self.spans.extend_from_slice(&other.spans);
    }

    /// Totals for one layer.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        let mut t = LayerTotals::default();
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            t.ns += s.dur_ns;
            t.calls += u64::from(s.calls);
            t.allocs += u64::from(s.allocs);
        }
        t
    }

    /// Every span duration for one layer, in nanoseconds.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"step\":{},\"start_ns\":{},\"dur_ns\":{},\"calls\":{},\"allocs\":{}}}",
                s.layer.name(),
                s.step,
                s.start_ns,
                s.dur_ns,
                s.calls,
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// Per-layer sums over a span buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Nanoseconds spent in the layer's calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Allocations made.
    pub allocs: u64,
}
