//! Topology Projection methods and their cost / reconfiguration models.
//!
//! The paper compares four TP methods (§III, §VI-C, Tables I & II):
//!
//! | Method   | Reconfiguration            | Hardware                  |
//! |----------|----------------------------|---------------------------|
//! | SP       | manual recabling, > 1 hour | OpenFlow switch           |
//! | SP-OS    | MEMS optical, 100 ms – 1 s | switch + optical switch   |
//! | TurboNet | P4 recompile, ≥ 10 s       | P4 (Tofino) switch        |
//! | SDT      | flow-mods, 100 ms – 1 s    | OpenFlow or P4 switch     |
//!
//! All four share the same port mathematics for *whether* a topology fits
//! (TurboNet additionally halves usable bandwidth because every logical
//! link transits a loopback port — De Sensi et al. \[35\]); they differ in
//! money and in what a reconfiguration costs.

/// Price of one MEMS optical-switch port, USD (a 320-port MEMS chassis
/// runs > $100k — §III-C).
pub const OPTICAL_PORT_USD: u32 = 320;

/// The four Topology Projection methods.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// Switch Projection: sub-switches + manual cabling.
    Sp,
    /// SP plus a MEMS optical switch for reconfiguration.
    SpOs,
    /// TurboNet-style projection through P4 loopback ports.
    Turbonet,
    /// SDT: Link Projection, flow-table-only reconfiguration.
    Sdt,
}

impl Method {
    /// All methods, table order.
    pub const ALL: [Method; 4] = [Method::Sp, Method::SpOs, Method::Turbonet, Method::Sdt];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Sp => "SP",
            Method::SpOs => "SP-OS",
            Method::Turbonet => "TurboNet",
            Method::Sdt => "SDT",
        }
    }

    /// Bandwidth divisor the method imposes on every projected link.
    /// TurboNet's loopback ports halve usable bandwidth.
    pub fn bandwidth_divisor(self) -> u32 {
        match self {
            Method::Turbonet => 2,
            _ => 1,
        }
    }

    /// Hardware class required.
    pub fn hardware(self) -> HardwareKind {
        match self {
            Method::Sp => HardwareKind::OpenFlow,
            Method::SpOs => HardwareKind::OpenFlowPlusOptical,
            Method::Turbonet => HardwareKind::P4,
            Method::Sdt => HardwareKind::OpenFlowOrP4,
        }
    }
}

/// Hardware class a method runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HardwareKind {
    /// Commodity OpenFlow switch.
    OpenFlow,
    /// OpenFlow switch + MEMS optical switch.
    OpenFlowPlusOptical,
    /// Programmable P4 (Tofino) switch.
    P4,
    /// Any switch with in-port restriction + 5-tuple match (§VII-B).
    OpenFlowOrP4,
}

impl HardwareKind {
    /// Human-readable requirement string (Table II row 2).
    pub fn describe(self) -> &'static str {
        match self {
            HardwareKind::OpenFlow => "OpenFlow Switch",
            HardwareKind::OpenFlowPlusOptical => "Switch+OS",
            HardwareKind::P4 => "P4 Switch",
            HardwareKind::OpenFlowOrP4 => "OpenFlow/P4 Switch",
        }
    }
}

/// A purchasable switch model: the unit of Table II's columns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchModel {
    /// Marketing name.
    pub name: &'static str,
    /// Port count.
    pub ports: u32,
    /// Per-port speed, Gbit/s.
    pub gbps: u32,
    /// Street price, USD.
    pub price_usd: u32,
    /// Flow/match table capacity, entries.
    pub table_capacity: usize,
    /// True for P4 (Tofino-class) silicon.
    pub p4: bool,
}

impl SwitchModel {
    /// 64 x 100G commodity OpenFlow switch (~$5k).
    pub fn openflow_64x100g() -> Self {
        SwitchModel {
            name: "OpenFlow 64x100G",
            ports: 64,
            gbps: 100,
            price_usd: 5_000,
            table_capacity: 4096,
            p4: false,
        }
    }

    /// 128 x 100G commodity OpenFlow switch (~$10k).
    pub fn openflow_128x100g() -> Self {
        SwitchModel {
            name: "OpenFlow 128x100G",
            ports: 128,
            gbps: 100,
            price_usd: 10_000,
            table_capacity: 8192,
            p4: false,
        }
    }

    /// 64 x 100G P4 switch (~$15k) — TurboNet's platform.
    pub fn p4_64x100g() -> Self {
        SwitchModel {
            name: "P4 64x100G",
            ports: 64,
            gbps: 100,
            price_usd: 15_000,
            table_capacity: 16384,
            p4: true,
        }
    }

    /// 128 x 100G P4 switch (~$30k).
    pub fn p4_128x100g() -> Self {
        SwitchModel {
            name: "P4 128x100G",
            ports: 128,
            gbps: 100,
            price_usd: 30_000,
            table_capacity: 32768,
            p4: true,
        }
    }

    /// The paper's SDT cluster switch: H3C S6861-54QF, modeled as 64 x 10G.
    pub fn h3c_64x10g() -> Self {
        SwitchModel {
            name: "H3C S6861 64x10G",
            ports: 64,
            gbps: 10,
            price_usd: 3_000,
            table_capacity: 4096,
            p4: false,
        }
    }
}

/// Cost model of one method over a cluster of `count` switches.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Switch hardware.
    pub switches_usd: u64,
    /// Optical switch hardware (SP-OS only).
    pub optical_usd: u64,
    /// Rough one-time manual cabling effort, person-minutes.
    pub deploy_minutes: u64,
}

impl CostModel {
    /// Total capital expenditure.
    pub fn total_usd(&self) -> u64 {
        self.switches_usd + self.optical_usd
    }

    /// Cost of `count` switches of `model` under `method`, for a topology
    /// needing `cabled_ports` physical cable endpoints.
    pub fn of(method: Method, model: &SwitchModel, count: u32, cabled_ports: u32) -> CostModel {
        let base = if method == Method::Turbonet {
            // TurboNet requires P4 silicon: price the P4 variant of the
            // same radix.
            let p4_price = if model.ports >= 128 {
                SwitchModel::p4_128x100g().price_usd
            } else {
                SwitchModel::p4_64x100g().price_usd
            };
            if model.p4 {
                model.price_usd
            } else {
                p4_price
            }
        } else {
            model.price_usd
        };
        let optical = if method == Method::SpOs {
            // Every cabled port must transit the optical crossbar.
            cabled_ports as u64 * OPTICAL_PORT_USD as u64
        } else {
            0
        };
        // Initial cabling effort: ~1 minute per cable end for SP/SP-OS/SDT;
        // TurboNet's loopbacks are internal.
        let deploy_minutes = match method {
            Method::Turbonet => 10,
            _ => cabled_ports as u64,
        };
        CostModel { switches_usd: base as u64 * count as u64, optical_usd: optical, deploy_minutes }
    }
}

/// Estimated time and effort of one topology reconfiguration.
#[derive(Clone, Copy, Debug)]
pub struct ReconfigEstimate {
    /// Wall-clock time, nanoseconds.
    pub time_ns: u64,
    /// True when a human must touch cables.
    pub manual: bool,
}

impl ReconfigEstimate {
    /// Reconfiguration under `method` when `links_changed` logical links and
    /// `flow_entries` table entries must be (re)installed.
    pub fn of(method: Method, links_changed: usize, flow_entries: usize) -> ReconfigEstimate {
        const SEC: u64 = 1_000_000_000;
        match method {
            // ~1 minute per recabled link plus a verification pass over the
            // whole harness: over an hour for anything non-trivial, and
            // error-prone (§III-C).
            Method::Sp => ReconfigEstimate {
                time_ns: links_changed as u64 * 60 * SEC + 1_200 * SEC,
                manual: true,
            },
            // MEMS switching time ~100 ms, amortized over the whole
            // crossbar, plus flow-table updates for the new sub-switches.
            Method::SpOs => ReconfigEstimate {
                time_ns: 100_000_000 + flow_entries as u64 * 1_000_000,
                manual: false,
            },
            // Recompiling and reloading the P4 pipeline dominates (≥ 10 s).
            Method::Turbonet => ReconfigEstimate {
                time_ns: 10 * SEC + flow_entries as u64 * 1_000_000,
                manual: false,
            },
            // Flow-mod installs + barrier: 100 ms – 1 s for realistic tables.
            Method::Sdt => ReconfigEstimate {
                time_ns: sdt_openflow::install_time_ns(flow_entries),
                manual: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbonet_halves_bandwidth() {
        assert_eq!(Method::Turbonet.bandwidth_divisor(), 2);
        assert_eq!(Method::Sdt.bandwidth_divisor(), 1);
    }

    #[test]
    fn reconfig_ordering_matches_paper() {
        // 48 links, ~300 flow entries (fat-tree k=4, §VII-C).
        let sp = ReconfigEstimate::of(Method::Sp, 48, 300);
        let spos = ReconfigEstimate::of(Method::SpOs, 48, 300);
        let tn = ReconfigEstimate::of(Method::Turbonet, 48, 300);
        let sdt = ReconfigEstimate::of(Method::Sdt, 48, 300);
        // Table II row 1: SP > 1 hour; TurboNet >= 10 s; SP-OS and SDT in
        // 100 ms – 1 s.
        assert!(sp.time_ns > 3_600 * 1_000_000_000);
        assert!(sp.manual);
        assert!(tn.time_ns >= 10_000_000_000);
        for fast in [spos, sdt] {
            assert!(fast.time_ns >= 100_000_000 && fast.time_ns <= 1_000_000_000);
            assert!(!fast.manual);
        }
    }

    #[test]
    fn cost_ordering_matches_paper() {
        let m = SwitchModel::openflow_128x100g();
        let cabled = 128;
        let sp = CostModel::of(Method::Sp, &m, 1, cabled).total_usd();
        let spos = CostModel::of(Method::SpOs, &m, 1, cabled).total_usd();
        let tn = CostModel::of(Method::Turbonet, &m, 1, cabled).total_usd();
        let sdt = CostModel::of(Method::Sdt, &m, 1, cabled).total_usd();
        // Table II row 3: SDT ($10k) = SP < TurboNet ($30k) < SP-OS ($50k+).
        assert_eq!(sdt, 10_000);
        assert_eq!(sp, sdt);
        assert_eq!(tn, 30_000);
        assert!(spos > 50_000, "spos {spos}");
    }

    #[test]
    fn hardware_strings() {
        assert_eq!(Method::Sdt.hardware().describe(), "OpenFlow/P4 Switch");
        assert_eq!(Method::Turbonet.hardware().describe(), "P4 Switch");
    }
}
