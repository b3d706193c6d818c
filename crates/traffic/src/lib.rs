//! Workloads and processor models for evaluating NIFDY.
//!
//! This crate reproduces the traffic side of the paper's evaluation:
//!
//! * [`SoftwareModel`] — the measured CM-5 software overheads (Table 2) and
//!   the packetization rules that give NIFDY its in-order payload benefit,
//! * [`Processor`] — a polling processor ("only polling message reception is
//!   allowed") driving any [`Nic`](nifdy::Nic) through a [`NodeWorkload`],
//! * [`Driver`] — the cycle-synchronous simulation loop with global
//!   barriers — fully owned state, so replicas are `Send` and can be fanned
//!   out across threads,
//! * [`Scenario`] — a builder assembling network kind, NIC choice, software
//!   model, and workload factory into a ready driver,
//! * [`NetworkKind`] — the catalog of simulated networks (§3 / Table 3),
//! * workloads: synthetic heavy/light bursts (§4.1), the cyclic shift
//!   (§4.3), EM3D (§4.4), and radix-sort scan/coalesce (§4.5).
//!
//! # Examples
//!
//! Running the heavy synthetic pattern over a mesh with NIFDY:
//!
//! ```
//! use nifdy_traffic::{NetworkKind, NicChoice, Scenario, SyntheticConfig};
//!
//! let kind = NetworkKind::Mesh2D;
//! let mut driver = Scenario::new(kind)
//!     .nodes(16)
//!     .seed(42)
//!     .nic(NicChoice::Nifdy(kind.nifdy_preset()))
//!     .build_with(|sc| SyntheticConfig::heavy(sc.seed()).build(sc.nodes()))
//!     .unwrap();
//! driver.run_cycles(20_000);
//! assert!(driver.packets_received() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cshift;
mod driver;
mod em3d;
mod network;
mod openloop;
mod overheads;
mod processor;
mod radix;
mod scenario;
mod synthetic;

pub use cshift::{CShift, CShiftConfig};
pub use driver::{BuildError, Driver, NicChoice};
pub use em3d::{Em3d, Em3dParams, Em3dPlan};
pub use network::NetworkKind;
pub use openloop::{OpenLoop, OpenLoopConfig};
pub use overheads::{table2, SoftwareModel};
pub use processor::{Action, NodeWorkload, ProcEvent, ProcStats, Processor};
pub use radix::{Coalesce, CoalesceConfig, Scan, ScanConfig};
pub use scenario::{Scenario, ScenarioView};
pub use synthetic::{Synthetic, SyntheticConfig};
