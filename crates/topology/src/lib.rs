//! Logical network topologies for Topology Projection (TP).
//!
//! This crate is the bottom layer of the SDT workspace: it defines the
//! *logical topology* — an undirected graph of logical switches, end hosts,
//! and the links between them — that the SDT testbed projects onto a small
//! number of physical OpenFlow switches (see the `sdt-core` crate).
//!
//! Besides the graph representation itself ([`Topology`]), the crate ships
//! generators for every topology family used in the paper's evaluation:
//!
//! * [`fattree::fat_tree`] — k-ary Fat-Tree (Al-Fares et al., SIGCOMM'08)
//! * [`dragonfly::dragonfly`] — Dragonfly (Kim et al., ISCA'08)
//! * [`meshtorus::mesh`] / [`meshtorus::torus`] — n-dimensional Mesh/Torus
//! * [`bcube::bcube`] — BCube (Guo et al., SIGCOMM'09)
//! * [`chain::chain`] / [`chain::ring`] / [`chain::star`] — small fixtures
//!   (Fig. 10 of the paper uses an 8-switch chain)
//! * [`zoo`] — a 261-graph synthetic stand-in for the Internet Topology Zoo
//!   WAN corpus used by Table II
//!
//! All generators are deterministic; the WAN corpus is seeded.

pub mod bcube;
pub mod chain;
pub mod dragonfly;
pub mod fattree;
pub mod graph;
pub mod meshtorus;
pub mod zoo;

pub use graph::{
    Endpoint, HostId, Link, LinkId, SwitchId, Topology, TopologyBuilder, TopologyError,
    TopologyKind,
};
