//! Radix sort (§4.5), after Dusseau's LogP study [Dus94].
//!
//! Each iteration of the sort has two communication phases:
//!
//! * **Scan**: "a scan addition is performed across all processors for each
//!   bucket; this involves nearest-neighbor communication." Processor `i`
//!   receives running bucket sums from `i − 1`, adds its own counts, and
//!   forwards to `i + 1` — one single-packet message per bucket. "The most
//!   notable feature is that the overall communication phase runs faster if
//!   delays are inserted between successive sends. Without delays, the
//!   sends from one processor cause the next processor in the pipeline to
//!   continually receive with no chance to send, serializing the entire
//!   scan."
//! * **Coalesce**: every key is sent to its destination processor as a
//!   single-packet message to an effectively random destination.

use std::collections::VecDeque;

use nifdy::{Delivered, OutboundPacket};
use nifdy_net::UserData;
use nifdy_sim::{Cycle, NodeId, SimRng};

use crate::processor::{Action, NodeWorkload};
use crate::SoftwareModel;

/// Configuration of the scan phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanConfig {
    /// Number of buckets (an 8-bit radix gives 256).
    pub buckets: u32,
    /// Cycles of artificial delay inserted between consecutive sends
    /// (the "With Delay" bars of Figure 9); 0 disables.
    pub delay_between_sends: u64,
    /// Messaging-layer model.
    pub sw: SoftwareModel,
}

impl ScanConfig {
    /// An 8-bit-radix scan, as in Figure 9.
    pub fn radix8(sw: SoftwareModel) -> Self {
        ScanConfig {
            buckets: 256,
            delay_between_sends: 0,
            sw,
        }
    }

    /// Sets the inter-send delay.
    pub fn with_delay(mut self, cycles: u64) -> Self {
        self.delay_between_sends = cycles;
        self
    }

    /// Builds the pipeline workloads for `num_nodes` processors.
    pub fn build(&self, num_nodes: usize) -> Vec<Box<dyn NodeWorkload>> {
        (0..num_nodes)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(Scan::new(*self, NodeId::new(i), num_nodes))
            })
            .collect()
    }
}

/// Per-node scan-pipeline state.
#[derive(Debug)]
pub struct Scan {
    cfg: ScanConfig,
    node: NodeId,
    num_nodes: usize,
    /// Buckets ready to forward (node 0 starts with all of them).
    ready: VecDeque<u32>,
    sent: u32,
    received: u32,
    delayed: bool,
}

impl Scan {
    /// Creates the scan stage for one node.
    pub fn new(cfg: ScanConfig, node: NodeId, num_nodes: usize) -> Self {
        let ready = if node.index() == 0 {
            (0..cfg.buckets).collect()
        } else {
            VecDeque::new()
        };
        Scan {
            cfg,
            node,
            num_nodes,
            ready,
            sent: 0,
            received: 0,
            delayed: false,
        }
    }

    fn is_last(&self) -> bool {
        self.node.index() + 1 == self.num_nodes
    }

    fn finished(&self) -> bool {
        if self.is_last() {
            self.received == self.cfg.buckets
        } else {
            self.sent == self.cfg.buckets
        }
    }
}

impl NodeWorkload for Scan {
    fn next_action(&mut self, _now: Cycle) -> Action {
        if self.finished() {
            return Action::Done;
        }
        if self.is_last() || self.ready.is_empty() {
            return Action::Idle;
        }
        if self.cfg.delay_between_sends > 0 && !self.delayed {
            self.delayed = true;
            return Action::Compute(self.cfg.delay_between_sends);
        }
        self.delayed = false;
        let bucket = self.ready.pop_front().expect("nonempty");
        self.sent += 1;
        Action::Send(
            OutboundPacket::new(NodeId::new(self.node.index() + 1), self.cfg.sw.packet_words)
                .with_user(UserData {
                    msg_id: u64::from(bucket),
                    pkt_index: 0,
                    msg_packets: 1,
                    user_words: 1,
                }),
        )
    }

    fn on_receive(&mut self, pkt: &Delivered, _now: Cycle) {
        self.received += 1;
        if !self.is_last() {
            // Add the local count and forward the running sum.
            self.ready.push_back(pkt.user.msg_id as u32);
        }
    }
}

/// Configuration of the coalesce phase: keys to random destinations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalesceConfig {
    /// Keys each processor holds (one single-packet message per key).
    pub keys_per_node: u32,
    /// Seed for the random key distribution.
    pub seed: u64,
    /// Messaging-layer model.
    pub sw: SoftwareModel,
}

impl CoalesceConfig {
    /// Builds the coalesce workloads.
    pub fn build(&self, num_nodes: usize) -> Vec<Box<dyn NodeWorkload>> {
        (0..num_nodes)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(Coalesce {
                    cfg: *self,
                    node: NodeId::new(i),
                    num_nodes,
                    rng: SimRng::from_seed_stream(self.seed, i as u64),
                    sent: 0,
                })
            })
            .collect()
    }
}

/// Per-node coalesce state.
#[derive(Debug)]
pub struct Coalesce {
    cfg: CoalesceConfig,
    node: NodeId,
    num_nodes: usize,
    rng: SimRng,
    sent: u32,
}

impl NodeWorkload for Coalesce {
    fn next_action(&mut self, _now: Cycle) -> Action {
        if self.sent >= self.cfg.keys_per_node {
            return Action::Done;
        }
        let mut dst = self.rng.gen_range_usize(0..self.num_nodes - 1);
        if dst >= self.node.index() {
            dst += 1;
        }
        self.sent += 1;
        Action::Send(
            OutboundPacket::new(NodeId::new(dst), self.cfg.sw.packet_words).with_user(UserData {
                msg_id: u64::from(self.sent),
                pkt_index: 0,
                msg_packets: 1,
                user_words: 1,
            }),
        )
    }

    fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, NicChoice};
    use nifdy::NifdyConfig;
    use nifdy_net::topology::Mesh;
    use nifdy_net::{Fabric, FabricConfig};

    #[test]
    fn node_zero_starts_with_all_buckets_ready() {
        let cfg = ScanConfig::radix8(SoftwareModel::cm5_library(false));
        let z = Scan::new(cfg, NodeId::new(0), 4);
        assert_eq!(z.ready.len(), 256);
        let one = Scan::new(cfg, NodeId::new(1), 4);
        assert!(one.ready.is_empty());
    }

    #[test]
    fn delay_config_inserts_computes_between_sends() {
        let cfg = ScanConfig {
            buckets: 4,
            delay_between_sends: 50,
            sw: SoftwareModel::cm5_library(false),
        };
        let mut w = Scan::new(cfg, NodeId::new(0), 2);
        assert!(matches!(w.next_action(Cycle::ZERO), Action::Compute(50)));
        assert!(matches!(w.next_action(Cycle::ZERO), Action::Send(_)));
        assert!(matches!(w.next_action(Cycle::ZERO), Action::Compute(50)));
    }

    #[test]
    fn scan_pipeline_completes_end_to_end() {
        let sw = SoftwareModel::cm5_library(false);
        let cfg = ScanConfig {
            buckets: 16,
            delay_between_sends: 0,
            sw,
        };
        let fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NifdyConfig::mesh()),
            sw,
            cfg.build(4),
        )
        .expect("driver builds");
        assert!(d.run_until_quiet(1_000_000), "scan never finished");
        // Each of the 3 forwarding nodes sent 16 buckets.
        let sent: u64 = d.processors().iter().map(|p| p.stats().sent.get()).sum();
        assert_eq!(sent, 3 * 16);
    }

    #[test]
    fn coalesce_spreads_keys_across_nodes() {
        let sw = SoftwareModel::cm5_library(false);
        let cfg = CoalesceConfig {
            keys_per_node: 30,
            seed: 3,
            sw,
        };
        let fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NifdyConfig::mesh()),
            sw,
            cfg.build(4),
        )
        .expect("driver builds");
        assert!(d.run_until_quiet(2_000_000));
        assert_eq!(d.packets_received(), 4 * 30);
        for p in d.processors() {
            assert!(p.stats().received.get() > 0, "some keys land everywhere");
        }
    }
}
