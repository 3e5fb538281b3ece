//! The OpenFlow switch: ports + two-table pipeline + counters.
//!
//! SDT programs an OpenFlow 1.3-style two-table pipeline:
//!
//! * **table 0** classifies by ingress port and stamps the packet with the
//!   sub-switch id via `write-metadata` + `goto-table`;
//! * **table 1** holds one routing entry per (sub-switch, destination).
//!
//! This factorization is what keeps the entry count at
//! `ports + Σ_subswitch destinations` — the paper's "about only 300 flow
//! table entries" for a fat-tree k=4 across 2 switches (§VII-C) — instead of
//! the quadratic `ports × destinations` a single table would need. A miss in
//! either table drops the packet, which is what guarantees hardware
//! isolation between co-deployed topologies (§VI-B).

use crate::index::EntryStore;
use crate::table::{Action, FlowMod, FlowTable, PacketMeta, TableError};
use crate::PortNo;
use std::sync::Arc;

/// Static description of a switch model (used by SDT's cost/feasibility
/// models as well as by the dataplane).
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Number of physical ports.
    pub num_ports: u16,
    /// Per-port line rate in Gbit/s.
    pub port_gbps: u32,
    /// Flow-table capacity in entries (shared across the pipeline).
    pub table_capacity: usize,
}

impl SwitchConfig {
    /// The paper's SDT cluster switch: H3C S6861-54QF-like, modeled as 64
    /// usable 10G SFP+ ports with a few-thousand-entry table.
    pub fn h3c_s6861() -> Self {
        SwitchConfig { num_ports: 64, port_gbps: 10, table_capacity: 4096 }
    }

    /// Generic 64 x 100G switch (Table II column).
    pub fn x64_100g() -> Self {
        SwitchConfig { num_ports: 64, port_gbps: 100, table_capacity: 4096 }
    }
}

/// Per-port byte/packet counters — the Network Monitor's raw data (§V-3).
#[derive(Clone, Copy, Debug, Default)]
pub struct PortStats {
    /// Bytes received on the port.
    pub rx_bytes: u64,
    /// Bytes transmitted from the port.
    pub tx_bytes: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
}

/// A programmable switch instance with a two-table pipeline.
#[derive(Clone, Debug)]
pub struct OpenFlowSwitch {
    id: u32,
    config: SwitchConfig,
    t0: FlowTable,
    t1: FlowTable,
    port_stats: Vec<PortStats>,
}

impl OpenFlowSwitch {
    /// Instantiate a switch with the given id and model.
    pub fn new(id: u32, config: SwitchConfig) -> Self {
        OpenFlowSwitch {
            id,
            config,
            t0: FlowTable::new(config.table_capacity),
            t1: FlowTable::new(config.table_capacity),
            port_stats: vec![PortStats::default(); config.num_ports as usize],
        }
    }

    /// Switch id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Static model parameters.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Read access to a pipeline table (0 or 1).
    pub fn table(&self, id: u8) -> &FlowTable {
        match id {
            0 => &self.t0,
            1 => &self.t1,
            _ => panic!("pipeline has tables 0 and 1"),
        }
    }

    /// Total installed entries across the pipeline.
    pub fn total_entries(&self) -> usize {
        self.t0.len() + self.t1.len()
    }

    /// Apply a controller flow-mod to a pipeline table. The capacity budget
    /// is shared: the pipeline as a whole holds at most
    /// `config.table_capacity` entries.
    pub fn apply(&mut self, table: u8, m: FlowMod) -> Result<(), TableError> {
        if matches!(m, FlowMod::Add(_)) && self.total_entries() >= self.config.table_capacity {
            return Err(TableError::TableFull { capacity: self.config.table_capacity });
        }
        match table {
            0 => self.t0.apply(m),
            1 => self.t1.apply(m),
            _ => panic!("pipeline has tables 0 and 1"),
        }
    }

    /// Make `store` one table's entries, shared ([`FlowTable::adopt`]),
    /// under the shared capacity budget: refused, with the pipeline left as
    /// it was, if the other table's entries and the store's exceed it.
    pub fn adopt(&mut self, table: u8, store: Arc<EntryStore>) -> Result<(), TableError> {
        let capacity = self.config.table_capacity;
        let (slot, other) = match table {
            0 => (&mut self.t0, self.t1.len()),
            1 => (&mut self.t1, self.t0.len()),
            _ => panic!("pipeline has tables 0 and 1"),
        };
        if other + store.entries().len() > capacity {
            return Err(TableError::TableFull { capacity });
        }
        slot.adopt(store)
    }

    /// Remove every entry from both tables.
    pub fn clear_tables(&mut self) {
        for t in [&mut self.t0, &mut self.t1] {
            if let Err(e) = t.apply(FlowMod::Clear) {
                unreachable!("clear cannot fail: {e}");
            }
        }
    }

    /// Dataplane forwarding: count the packet in, run the pipeline, count it
    /// out. Returns the egress port, or `None` when dropped (explicit Drop,
    /// or a miss in either table — SDT treats misses as drops to guarantee
    /// domain isolation).
    pub fn forward(&mut self, meta: &PacketMeta, bytes: u64) -> Option<PortNo> {
        let action = match self.t0.lookup(meta) {
            Some(Action::WriteMetadataGoto(md)) => self.t1.lookup_with(meta, Some(md)),
            other => other,
        };
        // An entry can name any `u16` port: an ingress this switch does
        // not have is not counted, and an egress it does not have is a
        // drop (the verifier's `DropReason::Unwired`).
        if let Some(rx) = self.port_stats.get_mut(meta.in_port.idx()) {
            rx.rx_bytes += bytes;
            rx.rx_packets += 1;
        }
        let Some(Action::Output(p)) = action else {
            // A goto out of table 1 is a programming error; treat as drop.
            return None;
        };
        let tx = self.port_stats.get_mut(p.idx())?;
        tx.tx_bytes += bytes;
        tx.tx_packets += 1;
        Some(p)
    }

    /// Read one port's counters.
    pub fn port_stats(&self, p: PortNo) -> &PortStats {
        &self.port_stats[p.idx()]
    }

    /// All port counters (Network Monitor poll).
    pub fn all_port_stats(&self) -> &[PortStats] {
        &self.port_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{FlowEntry, FlowMatch};
    use crate::HostAddr;

    fn pkt(in_port: u16, dst: u32) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(in_port),
            src: HostAddr(0),
            dst: HostAddr(dst),
            l4_src: 1,
            l4_dst: 2,
        }
    }

    fn add(sw: &mut OpenFlowSwitch, table: u8, m: FlowMatch, priority: u16, action: Action) {
        sw.apply(table, FlowMod::Add(FlowEntry { m, priority, action })).unwrap();
    }

    #[test]
    fn single_table_forwarding_counts_both_sides() {
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::h3c_s6861());
        add(&mut sw, 0, FlowMatch::to_dst(HostAddr(9)), 1, Action::Output(PortNo(5)));
        assert_eq!(sw.forward(&pkt(1, 9), 1500), Some(PortNo(5)));
        assert_eq!(sw.port_stats(PortNo(1)).rx_bytes, 1500);
        assert_eq!(sw.port_stats(PortNo(5)).tx_bytes, 1500);
        assert_eq!(sw.port_stats(PortNo(5)).tx_packets, 1);
    }

    #[test]
    fn two_table_pipeline_routes_by_subswitch() {
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::h3c_s6861());
        // Ports 1 and 2 belong to sub-switch 7; port 3 to sub-switch 8.
        add(&mut sw, 0, FlowMatch::on_port(PortNo(1)), 1, Action::WriteMetadataGoto(7));
        add(&mut sw, 0, FlowMatch::on_port(PortNo(2)), 1, Action::WriteMetadataGoto(7));
        add(&mut sw, 0, FlowMatch::on_port(PortNo(3)), 1, Action::WriteMetadataGoto(8));
        // Sub-switch 7 routes dst 9 out port 2; sub-switch 8 out port 4.
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(9)).and_metadata(7), 1, Action::Output(PortNo(2)));
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(9)).and_metadata(8), 1, Action::Output(PortNo(4)));
        assert_eq!(sw.forward(&pkt(1, 9), 100), Some(PortNo(2)));
        assert_eq!(sw.forward(&pkt(3, 9), 100), Some(PortNo(4)));
        // Unknown destination in sub-switch 7: dropped (isolation).
        assert_eq!(sw.forward(&pkt(1, 77), 100), None);
        // Unclassified ingress port: dropped.
        assert_eq!(sw.forward(&pkt(30, 9), 100), None);
    }

    #[test]
    fn miss_is_drop() {
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::h3c_s6861());
        assert_eq!(sw.forward(&pkt(1, 9), 100), None);
        assert_eq!(sw.port_stats(PortNo(1)).rx_packets, 1);
        // Nothing transmitted anywhere.
        assert!(sw.all_port_stats().iter().all(|s| s.tx_packets == 0));
    }

    #[test]
    fn capacity_shared_across_pipeline() {
        let mut sw = OpenFlowSwitch::new(
            0,
            SwitchConfig { num_ports: 8, port_gbps: 10, table_capacity: 3 },
        );
        add(&mut sw, 0, FlowMatch::on_port(PortNo(0)), 1, Action::WriteMetadataGoto(0));
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(0)), 1, Action::Drop);
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(1)), 1, Action::Drop);
        let err = sw
            .apply(1, FlowMod::Add(FlowEntry { m: FlowMatch::any(), priority: 0, action: Action::Drop }))
            .unwrap_err();
        assert_eq!(err, TableError::TableFull { capacity: 3 });
        assert_eq!(sw.total_entries(), 3);
    }

    /// An adopted store is the table's until a write: shared with whoever
    /// else holds it, refused whole past the pipeline's budget, copied —
    /// and counted — by the first write.
    #[test]
    fn adopt_shares_until_the_first_write() {
        let entries: Vec<FlowEntry> = (0..3)
            .map(|i| FlowEntry {
                m: FlowMatch::to_dst(HostAddr(i)),
                priority: 1,
                action: Action::Drop,
            })
            .collect();
        let store = Arc::new(EntryStore::from_ordered(entries.clone()));
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::x64_100g());
        sw.adopt(1, Arc::clone(&store)).unwrap();
        assert!(Arc::ptr_eq(&sw.table(1).shared_store(), &store));
        add(&mut sw, 0, FlowMatch::on_port(PortNo(0)), 1, Action::WriteMetadataGoto(0));
        assert_eq!(sw.table(0).entries_copied(), 0, "table 0 was its own");
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(9)), 1, Action::Drop);
        assert_eq!(sw.table(1).entries_copied(), 3);
        assert_eq!(store.entries(), &entries[..], "the adopted store never moves");
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(8)), 1, Action::Drop);
        assert_eq!(sw.table(1).entries_copied(), 3, "the copy is the table's own now");

        let mut tiny = OpenFlowSwitch::new(
            0,
            SwitchConfig { num_ports: 8, port_gbps: 10, table_capacity: 3 },
        );
        add(&mut tiny, 0, FlowMatch::on_port(PortNo(0)), 1, Action::WriteMetadataGoto(0));
        assert_eq!(tiny.adopt(1, Arc::clone(&store)), Err(TableError::TableFull { capacity: 3 }));
        assert!(tiny.table(1).is_empty());
    }

    /// A Clear drops the table's share for an empty store: nothing is
    /// copied, and whoever else holds the store still reads all of it.
    #[test]
    fn clear_drops_a_shared_store_without_copying_it() {
        let entries: Vec<FlowEntry> = (0..1000)
            .map(|i| FlowEntry {
                m: FlowMatch::to_dst(HostAddr(i)),
                priority: 1,
                action: Action::Drop,
            })
            .collect();
        let store = Arc::new(EntryStore::from_ordered(entries));
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::x64_100g());
        sw.adopt(1, Arc::clone(&store)).unwrap();
        sw.clear_tables();
        assert_eq!(sw.total_entries(), 0);
        assert_eq!(sw.table(1).entries_copied(), 0);
        assert_eq!(store.entries().len(), 1000, "the other holder keeps its store");
        // The fresh store behaves as a cleared one: the next Add lands first.
        add(&mut sw, 1, FlowMatch::to_dst(HostAddr(7)), 1, Action::Drop);
        assert_eq!(sw.table(1).entries().len(), 1);
        assert_eq!(sw.table(1).entries_copied(), 0);
    }

    /// A table can hold a rule the switch model has no port for: an
    /// adopted store is checked for size, not for ports.
    #[test]
    fn forward_survives_restored_out_of_range_ports() {
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::x64_100g());
        let rule =
            FlowEntry { m: FlowMatch::any(), priority: 5, action: Action::Output(PortNo(65000)) };
        sw.adopt(0, Arc::new(EntryStore::from_ordered(vec![rule]))).unwrap();
        assert_eq!(sw.forward(&pkt(1, 9), 100), None, "no such egress: dropped");
        assert_eq!(sw.port_stats(PortNo(1)).rx_packets, 1);
        assert_eq!(sw.forward(&pkt(40_000, 9), 100), None, "no such ingress either");
        assert!(sw.all_port_stats().iter().all(|s| s.tx_packets == 0));
    }

    #[test]
    fn clear_tables_keeps_counters() {
        let mut sw = OpenFlowSwitch::new(0, SwitchConfig::h3c_s6861());
        add(&mut sw, 0, FlowMatch::any(), 0, Action::Drop);
        sw.forward(&pkt(0, 1), 42);
        sw.clear_tables();
        assert_eq!(sw.port_stats(PortNo(0)).rx_bytes, 42);
        assert_eq!(sw.total_entries(), 0);
    }
}
