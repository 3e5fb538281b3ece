//! Trace representation and machine model.

use sdt_topology::{HostId, Topology};

/// MPI rank index within a job.
pub type Rank = u32;

/// One blocking-MPI operation in a rank's program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpiOp {
    /// Local computation for a fixed duration.
    Compute {
        /// Nanoseconds of CPU work.
        ns: u64,
    },
    /// Blocking eager send: completes when the message is fully injected.
    Send {
        /// Destination rank.
        to: Rank,
        /// Payload bytes.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Blocking receive: completes when the matching message has fully
    /// arrived.
    Recv {
        /// Source rank.
        from: Rank,
        /// Match tag.
        tag: u32,
    },
    /// MPI_Sendrecv: both directions posted concurrently; completes when
    /// the send is injected *and* the matching message has arrived.
    SendRecv {
        /// Destination of the outgoing message.
        to: Rank,
        /// Outgoing payload bytes.
        bytes: u64,
        /// Outgoing tag.
        stag: u32,
        /// Source of the expected incoming message.
        from: Rank,
        /// Incoming tag.
        rtag: u32,
    },
}

/// One rank's program.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    /// Operations in program order.
    pub ops: Vec<MpiOp>,
}

impl RankTrace {
    /// Total bytes this rank sends.
    pub fn bytes_sent(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                MpiOp::Send { bytes, .. } | MpiOp::SendRecv { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total compute nanoseconds in this rank's program.
    pub fn compute_ns(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                MpiOp::Compute { ns } => *ns,
                _ => 0,
            })
            .sum()
    }
}

/// A complete job trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Application name + parameters, for reports.
    pub name: String,
    /// One program per rank.
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Empty trace over `n` ranks.
    pub fn new(name: impl Into<String>, n: u32) -> Self {
        Trace { name: name.into(), ranks: vec![RankTrace::default(); n as usize] }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Append an op to a rank's program.
    pub fn push(&mut self, rank: Rank, op: MpiOp) {
        self.ranks[rank as usize].ops.push(op);
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(RankTrace::bytes_sent).sum()
    }

    /// Max per-rank compute time — a lower bound on ACT.
    pub fn max_compute_ns(&self) -> u64 {
        self.ranks.iter().map(RankTrace::compute_ns).max().unwrap_or(0)
    }

    /// Sanity check: every Send/SendRecv has a matching Recv/SendRecv on the
    /// peer with the same tag, count-wise.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashMap;
        // (src, dst, tag) -> (sends, recvs)
        let mut m: HashMap<(Rank, Rank, u32), (i64, i64)> = HashMap::new();
        for (r, prog) in self.ranks.iter().enumerate() {
            let r = r as Rank;
            for op in &prog.ops {
                match *op {
                    MpiOp::Send { to, tag, .. } => m.entry((r, to, tag)).or_default().0 += 1,
                    MpiOp::Recv { from, tag } => m.entry((from, r, tag)).or_default().1 += 1,
                    MpiOp::SendRecv { to, stag, from, rtag, .. } => {
                        m.entry((r, to, stag)).or_default().0 += 1;
                        m.entry((from, r, rtag)).or_default().1 += 1;
                    }
                    MpiOp::Compute { .. } => {}
                }
            }
        }
        for (&(s, d, tag), &(tx, rx)) in &m {
            if tx != rx {
                return Err(format!("{s}->{d} tag {tag}: {tx} sends vs {rx} recvs"));
            }
        }
        Ok(())
    }
}

/// Compute-speed model used to size compute phases (a node of the paper's
/// cluster: E5-2695v4, 18 cores).
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Sustained double-precision rate per rank, GFLOP/s.
    pub gflops: f64,
    /// Sustained memory bandwidth per rank, GB/s (bounds stencil codes).
    pub mem_gbps: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        // 8 cores per computing node (the paper's VM slice), memory-bound
        // codes see ~20 GB/s of the socket's bandwidth.
        MachineModel { gflops: 50.0, mem_gbps: 20.0 }
    }
}

impl MachineModel {
    /// Nanoseconds to execute `flops` floating-point operations.
    pub fn flops_ns(&self, flops: f64) -> u64 {
        (flops / self.gflops).max(0.0) as u64
    }

    /// Nanoseconds to stream `bytes` through memory.
    pub fn mem_ns(&self, bytes: f64) -> u64 {
        (bytes / self.mem_gbps).max(0.0) as u64
    }
}

/// Deterministically pick `n` distinct hosts of a topology ("we randomly
/// select the nodes but keep the same among all the evaluations", §VI-D).
pub fn select_nodes(topo: &Topology, n: u32, seed: u64) -> Vec<HostId> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    assert!(n <= topo.num_hosts(), "cannot select {n} of {} hosts", topo.num_hosts());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<HostId> = (0..topo.num_hosts()).map(HostId).collect();
    // Fisher-Yates prefix shuffle.
    for i in 0..n as usize {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(n as usize);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_topology::dragonfly::dragonfly;

    #[test]
    fn trace_bookkeeping() {
        let mut t = Trace::new("test", 2);
        t.push(0, MpiOp::Compute { ns: 100 });
        t.push(0, MpiOp::Send { to: 1, bytes: 1000, tag: 7 });
        t.push(1, MpiOp::Recv { from: 0, tag: 7 });
        assert_eq!(t.total_bytes(), 1000);
        assert_eq!(t.max_compute_ns(), 100);
        t.validate().unwrap();
    }

    #[test]
    fn validate_catches_orphan_send() {
        let mut t = Trace::new("bad", 2);
        t.push(0, MpiOp::Send { to: 1, bytes: 8, tag: 1 });
        assert!(t.validate().is_err());
    }

    #[test]
    fn sendrecv_counts_both_directions() {
        let mut t = Trace::new("sr", 2);
        t.push(0, MpiOp::SendRecv { to: 1, bytes: 8, stag: 1, from: 1, rtag: 2 });
        t.push(1, MpiOp::SendRecv { to: 0, bytes: 8, stag: 2, from: 0, rtag: 1 });
        t.validate().unwrap();
    }

    #[test]
    fn select_nodes_deterministic_distinct() {
        let t = dragonfly(4, 9, 2, 2);
        let a = select_nodes(&t, 32, 42);
        let b = select_nodes(&t, 32, 42);
        assert_eq!(a, b);
        let uniq: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(uniq.len(), 32);
        let c = select_nodes(&t, 32, 43);
        assert_ne!(a, c, "different seed, different pick");
    }

    #[test]
    fn machine_model_scales() {
        let m = MachineModel::default();
        assert_eq!(m.flops_ns(50.0), 1); // 50 flops at 50 gflops = 1 ns
        assert_eq!(m.mem_ns(20.0), 1);
    }
}
