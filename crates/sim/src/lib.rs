//! Cycle-synchronous simulation kernel for the NIFDY reproduction.
//!
//! The NIFDY paper (Callahan & Goldstein, ISCA '95) evaluates its network
//! interface with a simulator in which *"each cycle is simulated explicitly
//! and synchronously by all objects"*. This crate provides the shared
//! substrate for that style of simulation:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`NodeId`] — a strongly-typed processor/node identifier,
//! * [`SimRng`] — deterministic, splittable random-number streams (the paper
//!   keeps *"dedicated state for each pseudo-random number generator"* so the
//!   same bursts are generated regardless of configuration),
//! * [`metrics`] — counters, running statistics, histograms and time series
//!   used to produce the paper's tables and figures,
//! * [`StallWatchdog`] — cycle-driven detection of units that stay busy
//!   without making progress (livelock and lost-wakeup tripwire for lossy
//!   fabrics),
//! * [`Wakeup`] — the stepping contract that lets a driver skip stepping
//!   quiescent components while staying byte-identical to explicit
//!   cycle-by-cycle stepping,
//! * [`Slab`] — a generational free-list arena so steady-state packet and
//!   flit churn never allocates.
//!
//! # Examples
//!
//! ```
//! use nifdy_sim::{Cycle, NodeId, SimRng};
//!
//! let mut rng = SimRng::from_seed_stream(42, NodeId::new(3).index() as u64);
//! let mut now = Cycle::ZERO;
//! let delay = rng.gen_range_u64(1..10);
//! now += delay;
//! assert!(now.as_u64() >= 1 && now.as_u64() < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

mod cycle;
mod id;
pub mod metrics;
mod rng;
mod slab;
mod wakeup;
mod watchdog;

pub use cycle::Cycle;
pub use id::{NodeId, PacketId};
pub use rng::SimRng;
pub use slab::{Slab, SlabKey};
pub use wakeup::Wakeup;
pub use watchdog::{StallReport, StallWatchdog};
