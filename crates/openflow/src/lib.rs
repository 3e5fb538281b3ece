//! OpenFlow switch dataplane model for SDT.
//!
//! SDT's entire trick is programmable forwarding-domain restriction: a
//! commodity OpenFlow switch is split into *sub-switches* purely by flow
//! rules that (a) constrain which ports a packet entering at a given port
//! may leave through, and (b) implement the routing strategy by 5-tuple
//! matches (§III-B, §V). This crate models exactly the OpenFlow subset the
//! SDT controller programs:
//!
//! * priority-ordered [`FlowTable`]s with wildcard-able match fields
//!   (in-port + IPv4-style src/dst + L4 ports),
//! * flow-mod / barrier messages with an installation-latency model (used
//!   for the reconfiguration-time rows of Tables I/II),
//! * flow-table **capacity limits** — the paper's §VII-C resource
//!   discussion — with explicit errors when a projection would not fit,
//! * per-port counters, the data source of the controller's Network
//!   Monitor module.
//!
//! The model is deliberately switch-agnostic: anything that supports
//! per-in-port forwarding restriction and 5-tuple matching can host SDT
//! (§VII-B), and this crate is that abstract switch.

pub mod control;
pub mod index;
pub mod overlap;
pub mod snap;
pub mod switch;
pub mod table;

pub use control::{
    reconcile, table_divergence, BarrierReport, ControlChannel, ControlConfig, Reconciled,
    RetryPolicy, RoundBatch,
};
pub use index::{EntryStore, FxBuild, FxHasher};
pub use overlap::{table_warnings_indexed, table_warnings_linear};
pub use switch::{OpenFlowSwitch, PortStats, SwitchConfig};
pub use table::{
    diff_positions, diff_tables, same_entries, shadowed_entries, shadowed_entries_in,
    subtract_witness, Action, FlowEntry, FlowMatch, FlowMod, FlowTable, MatchUniverse,
    PacketMeta, ShadowedEntry, TableError, TableStats,
};

/// A physical port number on an OpenFlow switch (0-based).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Index into per-port arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An IPv4-style endpoint address. SDT assigns one per host NIC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct HostAddr(pub u32);

/// Flow-mod installation latency model, used to estimate reconfiguration
/// time. Defaults follow common hardware-switch figures: ~1 ms per TCAM
/// entry install plus a ~50 ms barrier/commit.
#[derive(Clone, Copy, Debug)]
pub struct InstallTiming {
    /// Nanoseconds to install one flow entry.
    pub per_entry_ns: u64,
    /// Nanoseconds for the final barrier/commit round-trip.
    pub barrier_ns: u64,
}

impl Default for InstallTiming {
    fn default() -> Self {
        InstallTiming { per_entry_ns: 1_000_000, barrier_ns: 50_000_000 }
    }
}

impl InstallTiming {
    /// Total time to install `entries` flow entries and commit.
    pub fn install_time_ns(&self, entries: usize) -> u64 {
        self.per_entry_ns * entries as u64 + self.barrier_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_timing_scales_linearly() {
        let t = InstallTiming::default();
        let small = t.install_time_ns(10);
        let large = t.install_time_ns(310);
        assert_eq!(large - small, 300 * t.per_entry_ns);
        // Paper §VII-C: ~300 entries per switch for fat-tree k=4 on 2
        // switches; install stays comfortably sub-second.
        assert!(t.install_time_ns(300) < 1_000_000_000);
    }
}
