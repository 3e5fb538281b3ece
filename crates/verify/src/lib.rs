//! Static data-plane verification for SDT (`sdt-verify`).
//!
//! This crate is the one isolation checker production code runs: every
//! install is gated on it (`SdtController::deploy_with`,
//! `SliceManager::static_gate`, one proof per `apply_batch`) and every
//! operator report (`sdtctl deploy`/`slices`/`reconfigure`/`verify`, local
//! or through `sdtd`) renders it. The workspace's other two checkers are
//! *dynamic* — walk a synthetic packet through live tables
//! ([`sdt_core::walk_packet`] and `IsolationReport` over it), or probe the
//! full cross-slice matrix (`SliceAudit`) — and survive only as the test
//! oracles `tests/verify_differential.rs` holds this crate against. It
//! proves the same properties — and more — *symbolically*, from nothing
//! but the physical wiring and the installed [`sdt_openflow::FlowEntry`]
//! lists, with **zero packet injections** (no lookup or port counter
//! moves):
//!
//! 1. **Loop detection** — any cycle in the projected forwarding
//!    port-graph, reported as the rule chain that forms it
//!    ([`LoopFinding`]).
//! 2. **Blackhole detection** — host pairs the intent expects to
//!    communicate whose match space dead-ends in a drop rule, a table
//!    miss, or an unwired port ([`BlackholeFinding`]).
//! 3. **Static isolation proof** — the exact reachability closure over
//!    every ordered host pair, so any cross-domain (cross-slice,
//!    cross-component) delivery is a leak with the offending rule named
//!    ([`LeakFinding`]). This subsumes the pairwise-only
//!    [`sdt_openflow::shadowed_entries`] diagnostic: the closure is
//!    computed from first-match semantics with union-complete shadow
//!    analysis ([`sdt_openflow::shadowed_entries_in`]).
//! 4. **Incremental epoch checking** — [`Verifier::check_delta`] verifies a
//!    pending flow-mod batch against the *current* tables plus the delta,
//!    VeriFlow-style: only the switches the batch touches are rescanned and
//!    only the host pairs whose forwarding path crosses them are re-walked,
//!    so admission-time gating costs O(delta), not O(network).
//!
//! Exhaustiveness is affordable because the match algebra is
//! equality-or-wildcard: collecting the concrete values each header field
//! is compared against anywhere, plus one "fresh" value per field, yields
//! an exact finite partition of header space ([`HeaderValues`]); two
//! packets in the same class take identical decisions at every rule, so
//! one symbolic walk per class covers all packets.
//!
//! # Verification at scale
//!
//! The exhaustive walk is collapsed (see [`mod@fast`]): structurally
//! equivalent `(ingress, header-class)` walks share one representative.
//! All of it is *transparent*: whenever a precondition fails the pass falls
//! back to the reference walker, and findings are byte-identical either way
//! ([`Verifier::stats`] reports what was saved). Callers that verify
//! repeatedly keep the previous [`Verifier`] and pass it to
//! [`Verifier::check_delta`].

pub mod analysis;
pub mod fast;
pub mod model;

pub use analysis::{
    BlackholeFinding, DropReason, LeakFinding, LoopFinding, NondetFinding, RuleRef,
    ShadowFinding, Verifier, VerifyReport,
};
pub use fast::{VerifyStats, WalkCache};
pub use model::{HeaderClass, HeaderValues, Intent, IntentHost, TableView};

/// Always `1`: every proof runs on the caller's thread. Kept only because
/// `benchmark/` calls it; a later `benchmark` issue retires it.
pub fn verify_threads() -> usize {
    1
}
