//! Protocol flight recorder for the NIFDY reproduction: structured event
//! tracing, percentile telemetry, and Perfetto export.
//!
//! The paper's evaluation hinges on visibility into protocol state — OPT
//! occupancy, buffer-pool eligibility, bulk-window progress, per-receiver
//! congestion — that end-of-run counters cannot reconstruct. This crate is
//! the stack's measurement substrate:
//!
//! * [`TraceEvent`] / [`EventKind`] — a typed vocabulary for every protocol
//!   transition (scalar send/ack, OPT insert/clear, eligibility stall, bulk
//!   dialog request/grant/reject/close, window advance, retransmit with its
//!   RTO, drop with its cause, watchdog fire),
//! * [`TraceHandle`] / [`Recorder`] — a ring-buffered, per-node,
//!   sampled-and-bounded event log shared by every instrumented component;
//!   the rings double as the **flight recorder** the stall watchdog dumps
//!   when a node wedges,
//! * [`MetricsRegistry`] — named log-bucketed latency histograms
//!   (p50/p90/p99/p999) and cycle-sampled occupancy gauges,
//! * [`export`] — JSONL and Chrome trace-event JSON (open in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`), with one
//!   track per NIC and an async span per bulk dialog,
//! * [`json`] — the dependency-free JSON writer/parser backing the
//!   exporters and their round-trip tests.
//!
//! # Zero cost when disabled
//!
//! Instrumented code records through the [`trace_event!`] macro:
//!
//! ```
//! use nifdy_sim::{Cycle, NodeId};
//! use nifdy_trace::{trace_event, EventKind, TraceConfig, TraceHandle};
//!
//! let trace = TraceHandle::recording(TraceConfig::new());
//! trace_event!(trace, Cycle::new(5), NodeId::new(0), EventKind::ScalarSend {
//!     dst: NodeId::new(1),
//!     size_words: 8,
//! });
//! # #[cfg(feature = "trace")]
//! assert_eq!(trace.snapshot().len(), 1);
//! ```
//!
//! The macro guards the record call behind
//! [`TraceHandle::is_enabled`]. With the crate's `trace` cargo feature
//! disabled that method is a constant `false` — the branch, the record
//! call, *and the event payload expression* are dead code the optimizer
//! removes, so production binaries built without the feature pay nothing.
//! With the feature on but the handle [`off`](TraceHandle::off), the cost
//! is one pointer-null check per call site. The feature lives here (not in
//! a `#[cfg]` inside the macro body) because `cfg` inside a
//! `macro_rules!` expansion would be evaluated against the *calling*
//! crate's features.
//!
//! # Bounded when enabled
//!
//! The recorder keeps one bounded ring per node
//! ([`TraceConfig::capacity_per_node`]) and samples frequent events by
//! stride ([`TraceConfig::sample_every`]); rare events — drops,
//! retransmits, dialog lifecycle, delivery failures, watchdog fires —
//! always record, so loss accounting stays exact under sampling and is
//! property-tested against `FabricStats`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

mod event;
pub mod export;
pub mod json;
mod recorder;
mod registry;

pub use event::{DialogEnd, DropReason, EventKind, TraceEvent, WireFaultCause};
pub use recorder::{Recorder, TraceConfig, TraceHandle, TraceLoss};
pub use registry::{GaugeSeries, MetricsRegistry, PercentileRow};

/// Records one protocol event if the handle is live.
///
/// Expands to `if handle.is_enabled() { handle.record(at, node, kind) }`,
/// so the `kind` expression (which may compute occupancies or RTTs) is
/// never evaluated when tracing is off, and is removed entirely when the
/// `trace` feature is disabled.
#[macro_export]
macro_rules! trace_event {
    ($handle:expr, $at:expr, $node:expr, $kind:expr) => {
        if $handle.is_enabled() {
            $handle.record($at, $node, $kind);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_sim::{Cycle, NodeId};

    #[test]
    fn macro_skips_payload_evaluation_when_off() {
        let trace = TraceHandle::off();
        let mut evaluated = false;
        trace_event!(trace, Cycle::ZERO, NodeId::new(0), {
            evaluated = true;
            EventKind::AckSend {
                dst: NodeId::new(1),
            }
        });
        assert!(!evaluated, "payload must not run when tracing is off");
        assert_eq!(trace.recorded(), 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn macro_records_through_a_live_handle() {
        let trace = TraceHandle::recording(TraceConfig::new());
        trace_event!(
            trace,
            Cycle::new(3),
            NodeId::new(2),
            EventKind::AckSend {
                dst: NodeId::new(1),
            }
        );
        let events = trace.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, Cycle::new(3));
        assert_eq!(events[0].node, NodeId::new(2));
    }
}
