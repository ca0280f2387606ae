//! Cost models for compute, network, and the combined cluster presets.

use crate::SimTime;

/// Messages per wire batch (the paper: 32 messages / 32 KiB): what
/// [`NetworkModel::transfer_cost`] prices and both runtimes count.
pub const BATCH_MAX_MSGS: usize = 32;
/// Query state a repartitioning moves per vertex, in bytes.
pub const STATE_BYTES_PER_VERTEX: u64 = 32;

/// Per-worker computation cost model.
///
/// The engine charges `vertex_update` for every executed vertex function and
/// `message_apply` for every incoming message folded into a vertex's state.
/// Defaults are in the ballpark of a JVM vertex-centric engine (the paper's
/// implementation is 25k lines of Java); only their *ratio* to the network
/// constants matters for the reproduced shapes.
#[derive(Clone, Copy, Debug)]
pub struct ComputeModel {
    /// Cost of one vertex-function execution, in nanoseconds.
    pub vertex_update_ns: u64,
    /// Cost of applying one incoming message, in nanoseconds.
    pub message_apply_ns: u64,
    /// Fixed per-superstep scheduling overhead on a worker, in nanoseconds.
    pub superstep_overhead_ns: u64,
    /// Cost of applying one graph-mutation op to the topology overlay, in
    /// nanoseconds (hash-map insert + bookkeeping; charged inside the
    /// mutation epoch barrier).
    pub mutation_apply_ns: u64,
    /// Per-edge cost of rebuilding the CSR when the overlay compacts, in
    /// nanoseconds (a counting sort pass over the live edges).
    pub compact_ns_per_edge: u64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            vertex_update_ns: 1_500,
            message_apply_ns: 300,
            superstep_overhead_ns: 5_000,
            mutation_apply_ns: 800,
            compact_ns_per_edge: 40,
        }
    }
}

impl ComputeModel {
    /// Compute time for a superstep executing `vertices` vertex functions
    /// over `messages` delivered messages.
    pub fn superstep_cost(&self, vertices: usize, messages: usize) -> SimTime {
        SimTime(
            self.superstep_overhead_ns
                + self.vertex_update_ns * vertices as u64
                + self.message_apply_ns * messages as u64,
        )
    }

    /// Time to apply a mutation batch of `ops` ops at the epoch barrier.
    pub fn mutation_cost(&self, ops: usize) -> SimTime {
        SimTime(self.mutation_apply_ns * ops as u64)
    }

    /// Time to compact an overlay into a fresh CSR of `edges` live edges.
    pub fn compaction_cost(&self, edges: usize) -> SimTime {
        SimTime(self.compact_ns_per_edge * edges as u64)
    }
}

/// Network cost model for messages between workers and worker↔controller
/// control traffic.
///
/// A transfer of `bytes` between *distinct* workers costs
/// `latency + bytes / bandwidth + serialization`; transfers between
/// co-located partitions use the loopback constants (the paper's scale-up
/// machines run k partitions over loopback TCP). Messages from a worker to
/// itself are free — that is precisely the locality the paper exploits.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way latency between distinct hosts, in nanoseconds.
    pub remote_latency_ns: u64,
    /// Bandwidth between distinct hosts, bytes/second.
    pub remote_bandwidth_bps: u64,
    /// One-way latency between partitions on the same host (loopback TCP).
    pub loopback_latency_ns: u64,
    /// Loopback bandwidth, bytes/second.
    pub loopback_bandwidth_bps: u64,
    /// Per-message serialization + deserialization cost, in nanoseconds.
    pub serialize_ns_per_msg: u64,
    /// Encoded size of one vertex message, in bytes.
    pub bytes_per_msg: u64,
    /// Fixed protocol overhead per batch, in bytes.
    pub batch_overhead_bytes: u64,
}

impl NetworkModel {
    /// Loopback-TCP preset: every worker is a partition of one multi-core
    /// machine (the paper's M1/M2 scale-up setup). The serialization
    /// constant reflects the paper's JVM implementation — Java object
    /// (de)serialization plus the "multi-layered TCP/IP stack through the
    /// operating system" it calls out in §2 — which is what makes remote
    /// messages expensive even over loopback.
    pub fn loopback() -> Self {
        NetworkModel {
            remote_latency_ns: 25_000, // same constants: "remote" == loopback here
            remote_bandwidth_bps: 8_000_000_000,
            loopback_latency_ns: 25_000,
            loopback_bandwidth_bps: 8_000_000_000,
            serialize_ns_per_msg: 4_000,
            bytes_per_msg: 24,
            batch_overhead_bytes: 66,
        }
    }

    /// 1-Gigabit-Ethernet preset (the paper's C1 cluster).
    pub fn gigabit_ethernet() -> Self {
        NetworkModel {
            remote_latency_ns: 180_000,
            remote_bandwidth_bps: 117_000_000, // ~1 GbE payload rate
            loopback_latency_ns: 25_000,
            loopback_bandwidth_bps: 8_000_000_000,
            serialize_ns_per_msg: 4_000,
            bytes_per_msg: 24,
            batch_overhead_bytes: 66,
        }
    }

    /// Wire time of `msgs` vertex messages between two workers that are
    /// on different hosts (`remote = true`) or co-located (`false`).
    /// Batching amortizes latency: ceil(msgs / [`BATCH_MAX_MSGS`]) trips.
    /// Sender-side CPU is *not* included — charge it separately via
    /// [`NetworkModel::serialize_cost`], it occupies the worker.
    pub fn transfer_cost(&self, msgs: usize, remote: bool) -> SimTime {
        if msgs == 0 {
            return SimTime::ZERO;
        }
        let batches = msgs.div_ceil(BATCH_MAX_MSGS) as u64;
        let bytes = self.bytes_per_msg * msgs as u64 + self.batch_overhead_bytes * batches;
        self.wire(bytes, remote)
    }

    /// Sender-side CPU time to serialize `msgs` messages and push them
    /// through the socket layer. This time *occupies the worker* — the
    /// engine keeps the worker busy for it — which is how communication
    /// volume erodes a query-agnostic partitioning's throughput (paper §2:
    /// "overhead for serializing and deserializing messages, ... passing
    /// the multi-layered TCP/IP stack through the operating system").
    pub fn serialize_cost(&self, msgs: usize) -> SimTime {
        SimTime(self.serialize_ns_per_msg * msgs as u64)
    }

    /// Cost of one small control message (barrier / stats), one way.
    pub fn control_cost(&self, remote: bool) -> SimTime {
        self.transfer_cost(1, remote)
    }

    /// Cost of moving `vertices` vertices' state to repartition, [`STATE_BYTES_PER_VERTEX`] each.
    pub fn bulk_move_cost(&self, vertices: usize, remote: bool) -> SimTime {
        if vertices == 0 {
            return SimTime::ZERO;
        }
        self.wire(STATE_BYTES_PER_VERTEX * vertices as u64, remote)
    }

    /// One-way latency plus `bytes` at the link's bandwidth.
    fn wire(&self, bytes: u64, remote: bool) -> SimTime {
        let (lat, bw) = if remote {
            (self.remote_latency_ns, self.remote_bandwidth_bps)
        } else {
            (self.loopback_latency_ns, self.loopback_bandwidth_bps)
        };
        SimTime(lat + bytes.saturating_mul(1_000_000_000) / bw.max(1))
    }
}

/// A complete simulated infrastructure: worker count, host mapping, and the
/// two cost models. Mirrors the paper's M1 / M2 / C1 testbeds.
#[derive(Clone, Debug)]
pub struct ClusterModel {
    /// Number of workers (graph partitions).
    pub num_workers: usize,
    /// Host index of each worker; workers on the same host communicate over
    /// loopback, others over the remote link.
    pub host_of_worker: Vec<usize>,
    /// Network cost model.
    pub network: NetworkModel,
    /// Compute cost model.
    pub compute: ComputeModel,
}

impl ClusterModel {
    /// Scale-up preset M1/M2: `k` workers on one multi-core host, loopback TCP.
    pub fn scale_up(k: usize) -> Self {
        ClusterModel {
            num_workers: k,
            host_of_worker: vec![0; k],
            network: NetworkModel::loopback(),
            compute: ComputeModel::default(),
        }
    }

    /// Scale-out preset C1: `k` workers spread round-robin over `hosts`
    /// machines connected by gigabit Ethernet.
    pub fn scale_out(k: usize, hosts: usize) -> Self {
        assert!(hosts >= 1, "need at least one host");
        ClusterModel {
            num_workers: k,
            host_of_worker: (0..k).map(|w| w % hosts).collect(),
            network: NetworkModel::gigabit_ethernet(),
            compute: ComputeModel::default(),
        }
    }

    /// The paper's C1: one worker per node, up to 8 nodes; beyond 8 workers
    /// they share nodes.
    pub fn c1(k: usize) -> Self {
        Self::scale_out(k, k.min(8))
    }

    /// Are two workers on different hosts?
    #[inline]
    pub fn is_remote(&self, a: usize, b: usize) -> bool {
        self.host_of_worker[a] != self.host_of_worker[b]
    }

    /// Transfer cost of `msgs` messages from worker `a` to worker `b`
    /// (zero if `a == b`).
    pub fn message_cost(&self, a: usize, b: usize, msgs: usize) -> SimTime {
        if a == b {
            SimTime::ZERO
        } else {
            self.network.transfer_cost(msgs, self.is_remote(a, b))
        }
    }

    /// One-way control-message cost between a worker and the controller.
    /// The controller runs on host 0.
    pub fn control_cost_to_controller(&self, w: usize) -> SimTime {
        self.network.control_cost(self.host_of_worker[w] != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_messages_are_free() {
        let c = ClusterModel::scale_up(4);
        assert_eq!(c.message_cost(2, 2, 1000), SimTime::ZERO);
    }

    #[test]
    fn remote_costs_more_than_loopback() {
        let c = ClusterModel::scale_out(4, 4);
        let remote = c.message_cost(0, 1, 100);
        let cl = ClusterModel::scale_up(4);
        let loopback = cl.message_cost(0, 1, 100);
        assert!(remote > loopback, "{remote:?} vs {loopback:?}");
    }

    #[test]
    fn transfer_cost_grows_with_messages() {
        let n = NetworkModel::gigabit_ethernet();
        let one = n.transfer_cost(1, true);
        let many = n.transfer_cost(10_000, true);
        assert!(many > one);
        assert_eq!(n.transfer_cost(0, true), SimTime::ZERO);
    }

    #[test]
    fn batching_amortizes_latency_sublinearly() {
        let n = NetworkModel::gigabit_ethernet();
        let c32 = n.transfer_cost(32, true).as_nanos();
        let c1 = n.transfer_cost(1, true).as_nanos();
        assert!(c32 < 32 * c1, "batched 32 msgs should be < 32x single");
    }

    #[test]
    fn scale_out_host_mapping_round_robin() {
        let c = ClusterModel::scale_out(6, 3);
        assert_eq!(c.host_of_worker, vec![0, 1, 2, 0, 1, 2]);
        assert!(c.is_remote(0, 1));
        assert!(!c.is_remote(0, 3));
    }

    #[test]
    fn c1_caps_hosts_at_8() {
        let c = ClusterModel::c1(16);
        assert_eq!(c.host_of_worker.iter().max(), Some(&7));
        let c2 = ClusterModel::c1(4);
        assert_eq!(c2.host_of_worker, vec![0, 1, 2, 3]);
    }

    #[test]
    fn superstep_cost_formula() {
        let m = ComputeModel {
            vertex_update_ns: 10,
            message_apply_ns: 2,
            superstep_overhead_ns: 100,
            ..Default::default()
        };
        assert_eq!(m.superstep_cost(5, 7).as_nanos(), 100 + 50 + 14);
    }

    #[test]
    fn mutation_and_compaction_costs_scale() {
        let m = ComputeModel::default();
        assert_eq!(m.mutation_cost(0), SimTime::ZERO);
        assert!(m.mutation_cost(10) > m.mutation_cost(1));
        assert!(m.compaction_cost(1000) > m.compaction_cost(10));
    }

    #[test]
    fn bulk_move_scales_with_state() {
        let n = NetworkModel::gigabit_ethernet();
        let small = n.bulk_move_cost(100, true);
        let big = n.bulk_move_cost(400, true);
        assert!(big > small);
        assert_eq!(n.bulk_move_cost(0, true), SimTime::ZERO);
    }
}
