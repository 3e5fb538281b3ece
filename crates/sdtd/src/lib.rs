//! `sdtd` — the persistent SDT control-plane daemon.
//!
//! Everything below this crate models one deployment at a time: a
//! [`SliceController`](sdt_controller::SliceController) lives exactly as
//! long as the process that built it, and every `sdtctl` invocation wires
//! a throwaway cluster. A real testbed-as-a-service (the paper's §I pitch:
//! one small cluster, many tenants, sub-second swaps) needs the opposite —
//! a long-running owner of the physical cluster that tenants talk to over
//! a wire. This crate is that owner:
//!
//! * [`daemon`] — a JSON-RPC server on a Unix-domain socket (plain std
//!   `UnixListener` + threads; the workspace is registry-offline, so no
//!   async runtime). Concurrent tenant requests land in one admission
//!   queue; the engine drains the queue and hands *runs* of
//!   create/reconfigure/destroy to
//!   [`SliceManager::apply_batch`](sdt_tenancy::SliceManager::apply_batch),
//!   which amortizes match-universe construction and the static-verifier
//!   pass across the run while preserving per-request named
//!   [`AdmissionError`](sdt_tenancy::AdmissionError)s and FCFS fairness.
//! * [`snapshot`] — a versioned, byte-deterministic dump of the cluster
//!   spec, every slice (config text, namespace, projection, installed
//!   pipeline) and the live per-switch flow tables, written atomically
//!   (tmp + rename) after every mutating batch *before* the responses go
//!   out. A daemon killed mid-scenario restarts from the file: tables are
//!   re-applied, the proof is re-established by one full pass, and service
//!   continues where it stopped.
//!
//! `sdtctl --daemon <socket>` drives the same `slices` / `verify` /
//! `reconfigure` commands through the wire; the daemon's handlers call
//! the `sdt_controller::commands` functions local mode calls, so
//! daemon-mode output is byte-for-byte local-mode output.

pub mod daemon;
pub mod engine;
pub mod snapshot;

pub use daemon::{run, serve, DaemonMetrics, DaemonOptions, DaemonState};
pub use snapshot::{ClusterSpec, Snapshot, SnapshotError, SNAPSHOT_VERSION};
