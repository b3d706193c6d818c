//! Byte-level wire format and socket transports for the NIFDY network
//! interface (Callahan & Goldstein, ISCA '95).
//!
//! The simulator crates model NIFDY's packets as Rust structs riding a
//! cycle-accurate fabric. This crate gives those packets a *real* encoding —
//! the byte layout §3 of the paper implies, including the `{sequence mod W,
//! dialog}` substitution for source-id bits on bulk packets — and carries
//! the encoded frames over pluggable transports:
//!
//! * [`LoopbackHub`] — a deterministic in-process exchange with fixed
//!   latency and optional seeded jitter, used by the differential
//!   conformance suite ([`conformance`]) to prove the wire stack delivers
//!   exactly what the simulated fabric delivers;
//! * [`UdpTransport`] — one real UDP socket per node, so OS-level loss,
//!   duplication, and reordering exercise the §6 retransmission and
//!   duplicate-bit machinery.
//!
//! The protocol state machine is [`nifdy::NifdyUnit`], unchanged: the unit
//! steps against a [`NetPort`](nifdy_net::NetPort), and [`TransportPort`]
//! implements that port by encoding on inject and decoding on eject.
//! [`codec::decode`] is total — arbitrary bytes produce a
//! [`WireError`], never a panic (property-tested).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod codec;
pub mod conformance;
mod endpoint;
pub mod fault;
mod port;
mod supervisor;
mod transport;
mod udp;

pub use codec::{
    decode, decode_frame, encode, encode_heartbeat, peek_route, Epoch, Heartbeat, WireError,
    WireFrame, WirePacket, WireSource,
};
pub use endpoint::WireEndpoint;
pub use fault::{FaultyTransport, WireFaultConfig, WireFaultStats};
pub use port::TransportPort;
pub use supervisor::{PeerEvent, SupervisedEndpoint, Supervisor, SupervisorConfig};
pub use transport::{BatchTransport, LoopbackHub, LoopbackTransport, Transport};
pub use udp::{TransportError, UdpTransport};
