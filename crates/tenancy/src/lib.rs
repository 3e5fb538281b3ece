//! Multi-tenant topology slicing for SDT (the testbed-as-a-service layer).
//!
//! The paper's pitch (§I, §V) is that one small, fully-wired cluster can
//! host *user-defined* topologies and swap them in sub-second time. A
//! single-occupant testbed wastes exactly the resource-sharing that pitch
//! monetizes: a fat-tree k=4 needs 16 host ports and ~300 flow entries
//! while the cluster has hundreds of ports and thousands of entries. This
//! crate turns the projection machinery into a shared fabric:
//!
//! * [`SliceManager`] admits multiple logical topologies ("slices") onto
//!   one [`PhysicalCluster`](sdt_core::cluster::PhysicalCluster)
//!   concurrently, with hard resource accounting over host ports, cables,
//!   and per-switch flow-table capacity;
//! * admission is all-or-nothing: a slice that does not fit is rejected
//!   with a structured [`AdmissionError`] naming the scarce resource and
//!   the switch it ran out on — never a partial install;
//! * reconfiguring or destroying a slice is scheduled as an epoched
//!   flow-mod batch ([`Epoch`]) that is *verified* against the namespace
//!   map before anything is applied: every mod must fall inside the
//!   owning slice's (switch, in-port) and metadata space, so one tenant's
//!   churn provably cannot touch another's rules;
//! * every epoch is additionally gated on the `sdt-verify` static proof
//!   of the post-epoch tables, and [`SliceManager::verify_report`] hands
//!   that cached proof to every operator report — the one isolation
//!   checker production code runs;
//! * [`SliceAudit`] is the probe-injection **oracle** the proof is tested
//!   against (`tests/verify_differential.rs`): it walks real packets
//!   through the shared tables and reaches intra-slice delivery,
//!   cross-slice isolation and structural disjointness independently. It
//!   moves port counters, so nothing outside tests and examples calls it.
//!
//! Isolation rests on the same §VI-B mechanism as the single-tenant
//! testbed — a miss in either table is a drop — plus two disjointness
//! invariants the manager maintains: no two slices share a physical port
//! (so table-0 classification spaces cannot overlap), and each slice's
//! table-1 entries live in a private metadata/address range (so routing
//! spaces cannot overlap either).

pub mod audit;
pub mod epoch;
pub mod manager;
pub mod schedule;

pub use audit::{SliceAudit, SliceAuditEntry};
pub use epoch::{Epoch, EpochAdd, EpochDelete, EpochReport, EpochViolation, OwnedSpace};
pub use manager::{
    AdmissionError, ManagerExport, ManagerStatus, MigrationPlan, OpOutcome, Plan,
    ReclaimedResources, RestoreError, Slice, SliceId, SliceManager, SliceOp, SliceRecord,
    SliceStatus, SwitchOccupancy,
};
pub use schedule::{
    compile_rounds, install_scheduled, no_new_findings, Round, RoundPhase, RoundReport,
    ScheduleError, ScheduleReport,
};
