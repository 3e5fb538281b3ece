//! Transient-safe scheduled reconfiguration: dependency-ordered rounds,
//! each proven safe before it installs.
//!
//! [`Epoch::ordered_mods`] already sequences a reconfiguration
//! make-before-break, but the whole batch is installed in one shot: the
//! static gate proves the *final* table state, while every intermediate
//! state live traffic traverses during the batch is unproven. This module
//! closes that gap, Chameleon-style (SIGCOMM'23):
//!
//! 1. **Round compilation** ([`compile_rounds`]) — partition the epoch's
//!    flow-mods into dependency-ordered rounds. The dependencies are the
//!    class walks each mod touches: a table-0 classify entry that writes
//!    metadata `md` steers packets into the table-1 entries matching `md`
//!    on the same switch, so an add of the former must land in a later
//!    round than the adds of the latter, and a delete of the latter in a
//!    later round than the cutover that stops steering `md`. A delete
//!    immediately followed by adds with the same (switch, table, match,
//!    priority) key is an in-place MODIFY and is never split across
//!    rounds.
//! 2. **Per-round proofs** — [`install_scheduled`] chains a
//!    [`Verifier::check_delta`] proof across the round boundaries:
//!    each boundary state is accepted only if it introduces *no finding
//!    that the pre-migration tables did not already have* (for a healthy
//!    starting state this is exactly [`sdt_verify::VerifyReport::holds`]).
//!    Boundaries before the cutover are judged against the pre-migration
//!    intent (the new pipeline is dark until a port steers to it);
//!    boundaries from the cutover on, against the post-migration intent.
//! 3. **Merge-on-failure fallback** — the layering is a heuristic; safety
//!    never rests on it. If a boundary proof fails, the round is merged
//!    with its successor and re-proven; in the limit the whole epoch
//!    collapses back into the one-shot install, whose end state the caller
//!    gated before scheduling. Progress is therefore guaranteed.
//! 4. **Proof between send and barrier** — round N+1's proof is computed
//!    while round N's flow-mods are in flight on the (possibly lossy)
//!    [`ControlChannel`], between the sends and the barrier. Proof time
//!    is measured wall clock and install time is modeled (the channel is
//!    simulated), so the report carries the two totals in separate fields
//!    and never combines them.
//! 5. **Retry and divergence fallback** — after each barrier
//!    [`sdt_openflow::reconcile`] reads the live tables back, diffs them
//!    against the intended boundary state and re-sends stragglers with
//!    exponential backoff. If a round's retry budget runs out, the
//!    *actual* live state is re-verified from scratch
//!    — the proof-of-record for that boundary is then of what is really
//!    installed, not of what was intended — and the migration only
//!    proceeds if that state, too, introduces no new finding.

use crate::epoch::Epoch;
use sdt_core::cluster::PhysicalCluster;
use sdt_openflow::{
    reconcile, same_entries, Action, ControlChannel, FlowMod, FxBuild, InstallTiming,
    OpenFlowSwitch, RetryPolicy,
};
use sdt_verify::{Intent, TableView, Verifier, VerifyReport};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::time::Instant;

/// Which migration phase a round belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RoundPhase {
    /// New entries installed next to the old pipeline (make).
    Make,
    /// Table-0 replacements and in-place modifies: the per-port atomic
    /// switch from the old pipeline to the new one (break).
    Cutover,
    /// Old routing state garbage-collected after nothing steers to it.
    Collect,
}

impl fmt::Display for RoundPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundPhase::Make => write!(f, "make"),
            RoundPhase::Cutover => write!(f, "cutover"),
            RoundPhase::Collect => write!(f, "collect"),
        }
    }
}

/// One dependency-ordered round of an epoch's flow-mod batch.
#[derive(Clone, Debug)]
pub struct Round {
    /// The `(switch, table, mod)` sequence this round installs, in the
    /// epoch's original wire order.
    pub mods: Vec<(u32, u8, FlowMod)>,
    /// The migration phase of the latest constituent unit.
    pub phase: RoundPhase,
    /// Atomic units in the round (a MODIFY pair counts once).
    pub units: usize,
}

/// What one scheduled round did.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round index (0-based install order).
    pub round: usize,
    /// Migration phase.
    pub phase: RoundPhase,
    /// Flow-mods in the round.
    pub mods: usize,
    /// Atomic units in the round.
    pub units: usize,
    /// Compiled rounds merged into this one (1 = no merge happened).
    pub merged_from: usize,
    /// Wall-clock of this boundary's static proof, ns (includes failed
    /// pre-merge attempts).
    pub proof_wall_ns: u64,
    /// Host pairs the incremental proof actually re-walked.
    pub pairs_walked: usize,
    /// Modeled install time: sends + barriers + backoff, ns.
    pub install_ns: u64,
    /// Backoff share of `install_ns`.
    pub backoff_ns: u64,
    /// Flow-mods handed to the channel, including re-sends.
    pub sends: u64,
    /// Reconciliation retries the lossy channel forced.
    pub retries: u32,
    /// Live tables matched the intended boundary state when the round
    /// finished.
    pub converged: bool,
    /// The retry budget ran out and the actual live state was re-verified
    /// in place of the intended boundary.
    pub reverified: bool,
}

/// What a whole scheduled migration did.
#[derive(Clone, Debug, Default)]
pub struct ScheduleReport {
    /// Per-round outcomes, in install order.
    pub rounds: Vec<RoundReport>,
    /// Flow-mods across all rounds (before re-sends).
    pub total_mods: usize,
    /// Round merges the fallback performed (0 = layering held everywhere).
    pub merges: usize,
    /// Divergence re-verifications performed.
    pub reverifications: usize,
    /// Boundary states that failed their proof *and* could not be merged
    /// away — always 0 on success (kept explicit so tests and `sdtctl`
    /// can gate on it).
    pub violations: usize,
    /// Live tables byte-identical to the epoch's end state at the end.
    pub converged: bool,
    /// Sum of all boundary-proof wall clocks, ns.
    pub proof_wall_ns_total: u64,
    /// Sum of modeled per-round install times, ns.
    pub install_ns_total: u64,
}

/// Why a scheduled install stopped. Flow-mods up to the failing round may
/// already be applied — every state actually reached was proven to add no
/// new finding over the starting tables.
#[derive(Clone, Debug)]
pub enum ScheduleError {
    /// A boundary failed its proof even after merging through the final
    /// round. With the whole epoch gated beforehand this indicates the
    /// caller skipped that gate (or the base proof was stale).
    UnsafeBoundary {
        /// Install-order index of the failing round.
        round: usize,
        /// Verifier summary naming the findings.
        summary: String,
    },
    /// A round's retry budget ran out and the live tables, re-verified as
    /// they actually are, carry a finding the starting state did not.
    DivergedUnsafe {
        /// Install-order index of the diverged round.
        round: usize,
        /// Verifier summary naming the findings.
        summary: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnsafeBoundary { round, summary } => {
                write!(f, "round {round}: boundary state unprovable ({summary})")
            }
            ScheduleError::DivergedUnsafe { round, summary } => {
                write!(f, "round {round}: channel diverged and live state unsafe ({summary})")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Compile an epoch into dependency-ordered rounds against the pre-epoch
/// table state `before` (needed to resolve which metadata a deleted
/// table-0 entry used to steer).
///
/// The epoch's wire order is cut into atomic units — a single add or
/// delete, or a delete and the add(s) that follow it under the same
/// (switch, table, match, priority) key: an in-place MODIFY that must
/// never be split across rounds — and each unit is assigned a layer
/// (longest-path over the per-switch class-walk dependencies):
///
/// * table-1 adds — layer 0 (new routing entries, dark until steered to);
/// * table-0 adds — layer 1 when the metadata they write gains new table-1
///   entries on the same switch in this epoch (those must exist first),
///   else layer 0;
/// * table-0 deletes/modifies and table-1 modifies — the cutover layer,
///   strictly after every add;
/// * pure table-1 deletes — the collect layer, strictly after the cutover
///   (only then does nothing steer into the class being collected). A
///   delete whose metadata no table-0 entry of the pre-state `before`
///   steers is already dark and joins the cutover layer instead.
///
/// Units keep the epoch's original wire order within a layer, so
/// concatenating the rounds replays [`Epoch::ordered_mods`] exactly up to
/// the commuting of distinct-key units — the end state holds exactly the
/// same entries (only vector order can differ, and epoch entries never
/// share a (match, priority) key, so lookup behavior is identical; pinned
/// by `tests/round_properties.rs`). Determinism needs no seed: the
/// compilation is a pure function of the epoch and `before`.
pub fn compile_rounds(epoch: &Epoch, before: &TableView) -> Vec<Round> {
    let (mut mods, deletes_from) = epoch.ordered();

    // Metadata the pre-state's table 0 still steers, per switch: a pure
    // table-1 delete in a live class must wait for the cutover to go dark;
    // one in an already-dark class has no walk crossing it and needn't.
    // Keyed lookups only, never iterated.
    let mut steered: HashSet<(u32, u32), FxBuild> = HashSet::default();
    for sw in 0..before.num_switches() as u32 {
        for e in before.entries(sw, 0) {
            if let Action::WriteMetadataGoto(md) = e.action {
                steered.insert((sw, md));
            }
        }
    }

    // Every mod's layer, in install order, decided unit by unit. Wire
    // order puts all table-1 adds before the first table-0 add, so
    // `fresh_routes` is complete when it is first read.
    const CUTOVER: usize = 2;
    const COLLECT: usize = 3;
    let mut layers =
        [RoundPhase::Make, RoundPhase::Make, RoundPhase::Cutover, RoundPhase::Collect]
            .map(|phase| Round { mods: Vec::new(), phase, units: 0 });
    let mut sizes = [0usize; 4];
    // Metadata values gaining new table-1 routes per switch in this epoch.
    // Keyed lookups only, never iterated.
    let mut fresh_routes: HashSet<(u32, u32), FxBuild> = HashSet::default();
    let mut layer = 0;
    let mut layer_of: Vec<u8> = Vec::with_capacity(mods.len());
    for (at, (sw, table, m)) in mods.iter().enumerate() {
        // Past `deletes_from` an add is a replacement riding its delete's
        // unit; everything else starts a unit of its own.
        if at < deletes_from || matches!(m, FlowMod::Delete(..)) {
            let modify = matches!(mods.get(at + 1), Some((_, _, FlowMod::Add(_))));
            layer = match (table, m) {
                (1, FlowMod::Add(e)) => {
                    fresh_routes.extend(e.m.metadata.map(|md| (*sw, md)));
                    0
                }
                (0, FlowMod::Add(e)) => match e.action {
                    Action::WriteMetadataGoto(md) => usize::from(fresh_routes.contains(&(*sw, md))),
                    _ => 0,
                },
                // Pure table-1 delete: collect only after the cutover stops
                // steering its class — unless the class is already dark.
                (1, FlowMod::Delete(dm, _))
                    if !modify && dm.metadata.is_some_and(|md| steered.contains(&(*sw, md))) =>
                {
                    COLLECT
                }
                // Table-0 deletes and MODIFYs; a table-1 MODIFY is an
                // in-place route repoint (its class stays live throughout).
                _ => CUTOVER,
            };
            layers[layer].units += 1;
        }
        sizes[layer] += 1;
        layer_of.push(layer as u8);
    }
    // Then one pass moves every mod into its layer. The largest layer
    // keeps the wire order's own allocation, the others' mods taken out of
    // it; those are allocated once, at their final size.
    let home = (0..layers.len()).max_by_key(|&l| sizes[l]).unwrap_or(0);
    for (l, round) in layers.iter_mut().enumerate().filter(|&(l, _)| l != home) {
        round.mods.reserve_exact(sizes[l]);
    }
    let mut layer_of = layer_of.into_iter().map(usize::from);
    mods.retain(|m| match layer_of.next() {
        Some(l) if l != home => {
            layers[l].mods.push(m.clone());
            false
        }
        _ => true,
    });
    layers[home].mods = mods;
    layers.into_iter().filter(|r| !r.mods.is_empty()).collect()
}

/// True when `r` carries no loop/blackhole/leak finding that `base` did
/// not already have. A healthy base makes this exactly `r.holds()`; a
/// wounded base (recovery) accepts monotone improvement.
pub fn no_new_findings(r: &VerifyReport, base: &VerifyReport) -> bool {
    if r.holds() {
        return true;
    }
    // Keyed lookups only, never iterated.
    let known: HashSet<String> = base
        .loops
        .iter()
        .map(|f| format!("{f:?}"))
        .chain(base.blackholes.iter().map(|f| format!("{f:?}")))
        .chain(base.leaks.iter().map(|f| format!("{f:?}")))
        .collect();
    r.loops
        .iter()
        .map(|f| format!("{f:?}"))
        .chain(r.blackholes.iter().map(|f| format!("{f:?}")))
        .chain(r.leaks.iter().map(|f| format!("{f:?}")))
        .all(|s| known.contains(&s))
}

/// A proven next round: its (possibly merged) mods and the verifier of the
/// boundary state they reach.
struct Proven {
    round: Round,
    verifier: Verifier,
    proof_wall_ns: u64,
    merged_from: usize,
    pairs_walked: usize,
    /// The intent this boundary was judged against (re-used by the
    /// divergence fallback).
    post: bool,
}

/// Prove the next round's boundary, merging forward on failure. `base` is
/// the proof of the previous boundary; acceptance is "no new finding over
/// `base_report`" (the pre-migration live state).
#[allow(clippy::too_many_arguments)]
fn prove_with_merge(
    work: &mut VecDeque<Round>,
    base: &Verifier,
    base_report: &VerifyReport,
    pre_intent: &Intent,
    post_intent: &Intent,
    merges: &mut usize,
    round_index: usize,
) -> Result<Proven, ScheduleError> {
    let Some(mut round) = work.pop_front() else {
        unreachable!("prove_with_merge called with an empty worklist");
    };
    let mut merged_from = 1usize;
    let mut wall = 0u64;
    loop {
        // Pre-cutover boundaries still implement the old intent: the new
        // pipeline is dark until a port steers into it. From the cutover
        // on — and always for the final boundary — the new intent rules.
        let post = work.is_empty() || round.phase >= RoundPhase::Cutover;
        let intent = if post { post_intent } else { pre_intent };
        let t0 = Instant::now();
        let v = Verifier::check_delta(base, &round.mods, intent.clone());
        wall += t0.elapsed().as_nanos() as u64;
        if no_new_findings(v.report(), base_report) {
            let pairs_walked = v.report().pairs_walked;
            return Ok(Proven {
                round,
                verifier: v,
                proof_wall_ns: wall,
                merged_from,
                pairs_walked,
                post,
            });
        }
        // The layering mispredicted: coarsen by merging with the next
        // round. The fully-merged round is the one-shot epoch, whose end
        // state the caller already gated — so this terminates.
        match work.pop_front() {
            Some(next) => {
                round.mods.extend(next.mods);
                round.phase = round.phase.max(next.phase);
                round.units += next.units;
                merged_from += 1;
                *merges += 1;
            }
            None => {
                return Err(ScheduleError::UnsafeBoundary {
                    round: round_index,
                    summary: v.report().summary(),
                })
            }
        }
    }
}

/// Install dependency-ordered `rounds` over `channel`, proving every
/// boundary before its round goes out and computing proof N+1 while
/// round N is in flight. See the module docs for the full contract.
/// Returns the verifier of the final proven boundary and the round report.
///
/// `base` must be a proof of the *current* live tables (its intent is the
/// pre-migration intent); `pre_intent`/`post_intent` bracket the cutover.
/// The caller is expected to have gated the whole epoch's end state
/// already — that is what guarantees the merge fallback terminates.
#[allow(clippy::too_many_arguments)]
pub fn install_scheduled(
    cluster: &PhysicalCluster,
    switches: &mut [OpenFlowSwitch],
    channel: &mut ControlChannel,
    rounds: Vec<Round>,
    base: Verifier,
    pre_intent: &Intent,
    post_intent: &Intent,
    timing: &InstallTiming,
    retry: &RetryPolicy,
) -> Result<(Verifier, ScheduleReport), ScheduleError> {
    let base_report = base.report().clone();
    let total_mods: usize = rounds.iter().map(|r| r.mods.len()).sum();
    let mut work: VecDeque<Round> = rounds.into();
    let mut report = ScheduleReport { total_mods, ..Default::default() };
    // The intended boundary trajectory is the chain of proofs itself: each
    // round's verifier holds the tables its round is to reach.
    let mut current = base;

    let mut next = if work.is_empty() {
        None
    } else {
        Some(prove_with_merge(
            &mut work,
            &current,
            &base_report,
            pre_intent,
            post_intent,
            &mut report.merges,
            0,
        )?)
    };

    let mut index = 0usize;
    while let Some(p) = next.take() {
        let Proven { round, verifier, proof_wall_ns, merged_from, pairs_walked, post } = p;

        // Send the round tagged, then prove the *next* boundary while the
        // mods are in flight.
        channel.begin_round(index as u32 + 1);
        let mut per_switch = vec![0usize; switches.len()];
        for (sw, t, m) in &round.mods {
            channel.send(*sw as usize, *t, m.clone());
            per_switch[*sw as usize] += 1;
        }
        if !work.is_empty() {
            next = Some(prove_with_merge(
                &mut work,
                &verifier,
                &base_report,
                pre_intent,
                post_intent,
                &mut report.merges,
                index + 1,
            )?);
        }
        channel.barrier(switches);
        let busiest = per_switch.iter().copied().max().unwrap_or(0);
        // Reconcile the live tables against the intended boundary; the
        // round's own send + barrier above was attempt 1.
        let intended = verifier.view();
        let rec =
            reconcile(channel, switches, |sw, t| intended.entries(sw as u32, t), retry, timing, 1);
        let install_ns = timing.install_time_ns(busiest) + 2 * channel.delay_ns() + rec.install_ns;

        // Divergence fallback: the boundary proof describes the intended
        // state; if the channel never got the switches there, prove what
        // is actually installed before going on.
        let mut reverified = false;
        if !rec.converged {
            reverified = true;
            report.reverifications += 1;
            let intent = if post { post_intent } else { pre_intent };
            let live = Verifier::check(cluster, TableView::of_switches(switches), intent.clone());
            if !no_new_findings(live.report(), &base_report) {
                report.violations += 1;
                return Err(ScheduleError::DivergedUnsafe {
                    round: index,
                    summary: live.report().summary(),
                });
            }
        }

        report.rounds.push(RoundReport {
            round: index,
            phase: round.phase,
            mods: round.mods.len(),
            units: round.units,
            merged_from,
            proof_wall_ns,
            pairs_walked,
            install_ns,
            backoff_ns: rec.backoff_ns,
            sends: round.mods.len() as u64 + rec.sends,
            retries: rec.retries,
            converged: rec.converged,
            reverified,
        });
        current = verifier;
        index += 1;
    }

    // Overall convergence: later rounds chase earlier stragglers (every
    // retry diff targets its boundary's proven tables), so only the final
    // divergence matters.
    report.converged = switches.iter().enumerate().all(|(sw, s)| {
        (0u8..2).all(|t| same_entries(s.table(t).entries(), current.view().entries(sw as u32, t)))
    });
    report.proof_wall_ns_total = report.rounds.iter().map(|r| r.proof_wall_ns).sum();
    report.install_ns_total = report.rounds.iter().map(|r| r.install_ns).sum();
    Ok((current, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceId;
    use sdt_openflow::{FlowEntry, FlowMatch, HostAddr, PortNo};

    fn t0(port: u16, md: u32) -> FlowEntry {
        FlowEntry {
            m: FlowMatch::on_port(PortNo(port)),
            priority: 10,
            action: Action::WriteMetadataGoto(md),
        }
    }

    fn t1(md: u32, dst: u32, out: u16) -> FlowEntry {
        FlowEntry {
            m: FlowMatch::to_dst(HostAddr(dst)).and_metadata(md),
            priority: 10,
            action: Action::Output(PortNo(out)),
        }
    }

    fn view1() -> TableView {
        TableView::empty(1)
    }

    type Mod = (u32, u8, FlowMod);

    /// [`Epoch::ordered_mods`] as it was before the pairing was keyed by
    /// delete position: a key set, and a heap `Vec` of replacements per
    /// key. The oracle the wire order is held to.
    fn reference_ordered_mods(e: &Epoch) -> Vec<Mod> {
        use std::collections::HashMap;
        type ModKey = (u32, u8, FlowMatch, u16);
        let delete_keys: HashSet<ModKey> =
            e.deletes.iter().map(|d| (d.switch, d.table, d.m, d.priority)).collect();
        let mut replacements: HashMap<ModKey, Vec<FlowEntry>> = HashMap::new();
        let mut mods = Vec::new();
        for table in [1u8, 0u8] {
            for a in e.adds.iter().filter(|a| a.table == table) {
                let key = (a.switch, a.table, a.entry.m, a.entry.priority);
                if delete_keys.contains(&key) {
                    replacements.entry(key).or_default().push(a.entry);
                } else {
                    mods.push((a.switch, a.table, FlowMod::Add(a.entry)));
                }
            }
        }
        for table in [0u8, 1u8] {
            for d in e.deletes.iter().filter(|d| d.table == table) {
                mods.push((d.switch, d.table, FlowMod::Delete(d.m, d.priority)));
                let key = (d.switch, d.table, d.m, d.priority);
                for e in replacements.remove(&key).into_iter().flatten() {
                    mods.push((d.switch, d.table, FlowMod::Add(e)));
                }
            }
        }
        mods
    }

    /// The atomic units as they were found before `ordered` reported where
    /// its delete phase starts: regrouped by adjacency, one `Vec` each.
    fn reference_units_of(mods: Vec<Mod>) -> Vec<Vec<Mod>> {
        let mut units: Vec<Vec<Mod>> = Vec::new();
        for (sw, t, m) in mods {
            let attaches = match (&m, units.last()) {
                (FlowMod::Add(e), Some(u)) => matches!(
                    u.first(),
                    Some(&(usw, ut, FlowMod::Delete(dm, dp)))
                        if usw == sw && ut == t && dm == e.m && dp == e.priority
                ),
                _ => false,
            };
            match units.last_mut() {
                Some(u) if attaches => u.push((sw, t, m)),
                _ => units.push(vec![(sw, t, m)]),
            }
        }
        units
    }

    /// [`compile_rounds`] as it was: a layer per unit, then one filtering,
    /// cloning pass over every unit per layer.
    fn reference_compile_rounds(epoch: &Epoch, before: &TableView) -> Vec<Round> {
        let units = reference_units_of(reference_ordered_mods(epoch));
        let mut fresh_routes: HashSet<(u32, u32)> = HashSet::new();
        for u in &units {
            if let [(sw, 1, FlowMod::Add(e))] = u.as_slice() {
                if let Some(md) = e.m.metadata {
                    fresh_routes.insert((*sw, md));
                }
            }
        }
        let mut steered: HashSet<(u32, u32)> = HashSet::new();
        for sw in 0..before.num_switches() as u32 {
            for e in before.entries(sw, 0) {
                if let Action::WriteMetadataGoto(md) = e.action {
                    steered.insert((sw, md));
                }
            }
        }
        let mut add_max = 0usize;
        let mut layers: Vec<(usize, RoundPhase)> = Vec::with_capacity(units.len());
        for u in &units {
            let layer = match u.as_slice() {
                [(_, 1, FlowMod::Add(_))] => (0, RoundPhase::Make),
                [(sw, 0, FlowMod::Add(e))] => {
                    let depends = match e.action {
                        Action::WriteMetadataGoto(md) => fresh_routes.contains(&(*sw, md)),
                        _ => false,
                    };
                    (usize::from(depends), RoundPhase::Make)
                }
                [(_, 0, FlowMod::Delete(..)), ..] => (usize::MAX - 1, RoundPhase::Cutover),
                [(_, 1, FlowMod::Delete(..)), _, ..] => (usize::MAX - 1, RoundPhase::Cutover),
                [(sw, 1, FlowMod::Delete(dm, _))] => {
                    let live = dm.metadata.is_some_and(|md| steered.contains(&(*sw, md)));
                    if live {
                        (usize::MAX, RoundPhase::Collect)
                    } else {
                        (usize::MAX - 1, RoundPhase::Cutover)
                    }
                }
                _ => (usize::MAX - 1, RoundPhase::Cutover),
            };
            if layer.1 == RoundPhase::Make {
                add_max = add_max.max(layer.0);
            }
            layers.push(layer);
        }
        let resolved = |l: usize| match l {
            usize::MAX => add_max + 2,
            x if x == usize::MAX - 1 => add_max + 1,
            x => x,
        };
        let mut rounds: Vec<Round> = Vec::new();
        for target in 0..=add_max + 2 {
            let mut mods = Vec::new();
            let mut n_units = 0usize;
            let mut phase = RoundPhase::Make;
            for (u, &(l, p)) in units.iter().zip(&layers) {
                if resolved(l) == target {
                    mods.extend(u.iter().cloned());
                    n_units += 1;
                    phase = phase.max(p);
                }
            }
            if !mods.is_empty() {
                rounds.push(Round { mods, phase, units: n_units });
            }
        }
        rounds
    }

    /// A random epoch over 3 switches and a small key space, so that it
    /// holds pure adds, pure deletes, MODIFYs with several replacement
    /// adds, repeated delete keys and repeated adds, on both tables — and
    /// the pre-state it applies to.
    fn random_epoch(seed: u64) -> (Epoch, TableView) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n) as u32
        };
        let entry = |table: u8, next: &mut dyn FnMut(u64) -> u32| match table {
            0 => t0(next(4) as u16, next(3)),
            _ => t1(next(3), next(3), next(5) as u16),
        };
        let mut before = TableView::empty(3);
        for _ in 0..next(8) {
            let (sw, table) = (next(3), next(2) as u8);
            before.apply(sw, table, &FlowMod::Add(entry(table, &mut next)));
        }
        let mut e = Epoch { slice: SliceId(0), ..Default::default() };
        for _ in 0..next(40) {
            let (switch, table) = (next(3), next(2) as u8);
            let entry = entry(table, &mut next);
            if next(2) == 0 {
                e.adds.push(crate::epoch::EpochAdd { switch, table, entry });
            } else {
                e.deletes.push(crate::epoch::EpochDelete {
                    switch,
                    table,
                    m: entry.m,
                    priority: entry.priority,
                });
            }
        }
        (e, before)
    }

    #[test]
    fn wire_order_and_rounds_match_the_reference_on_random_epochs() {
        let (mut wide_modifies, mut repeated_deletes, mut unsorted) = (0, 0, 0);
        let mut modifies = [0, 0];
        for seed in 0..2000 {
            let (e, before) = random_epoch(seed);
            let want = reference_ordered_mods(&e);
            assert_eq!(format!("{:?}", e.ordered_mods()), format!("{want:?}"), "seed {seed}");
            let want = reference_compile_rounds(&e, &before);
            let got = compile_rounds(&e, &before);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}");
            // What the generator reached: MODIFYs in either table, several
            // adds behind one delete, a delete key twice, and sides in no
            // order (an epoch diffed out of tables is in key order).
            for u in reference_units_of(reference_ordered_mods(&e)).iter().filter(|u| u.len() > 1) {
                modifies[usize::from(u[0].1)] += 1;
                wide_modifies += usize::from(u.len() > 2);
            }
            let keys: HashSet<String> = e.deletes.iter().map(|d| format!("{d:?}")).collect();
            repeated_deletes += usize::from(keys.len() < e.deletes.len());
            let adds = e.adds.iter().map(|a| (a.switch, a.table, a.entry.order_key()));
            let deletes = e.deletes.iter().map(|d| (d.switch, d.table, d.m.order_key(d.priority)));
            unsorted += usize::from(!adds.is_sorted() && !deletes.is_sorted());
        }
        assert!(modifies[0] > 100 && modifies[1] > 100 && wide_modifies > 100, "{modifies:?}");
        assert!(repeated_deletes > 100 && unsorted > 1000, "{repeated_deletes} {unsorted}");
    }

    #[test]
    fn an_add_rides_the_first_delete_of_its_key() {
        use crate::epoch::{EpochAdd, EpochDelete};
        let delete = |table, e: FlowEntry| EpochDelete { switch: 0, table, m: e.m, priority: e.priority };
        let add = |table, entry| EpochAdd { switch: 0, table, entry };
        // Neither side in key order; route (5, 1) is deleted twice and
        // replaced twice, port 3 is re-classified, route (7, 2) is new.
        let e = Epoch {
            slice: SliceId(0),
            deletes: vec![delete(1, t1(5, 1, 1)), delete(0, t0(3, 5)), delete(1, t1(5, 1, 9))],
            adds: vec![add(1, t1(5, 1, 2)), add(0, t0(3, 6)), add(1, t1(7, 2, 4)), add(1, t1(5, 1, 3))],
        };
        let wire: Vec<Mod> = vec![
            (0, 1, FlowMod::Add(t1(7, 2, 4))),
            (0, 0, FlowMod::Delete(t0(3, 5).m, 10)),
            (0, 0, FlowMod::Add(t0(3, 6))),
            (0, 1, FlowMod::Delete(t1(5, 1, 1).m, 10)),
            (0, 1, FlowMod::Add(t1(5, 1, 2))),
            (0, 1, FlowMod::Add(t1(5, 1, 3))),
            (0, 1, FlowMod::Delete(t1(5, 1, 1).m, 10)),
        ];
        assert_eq!(format!("{:?}", e.ordered_mods()), format!("{wire:?}"));
        assert_eq!(format!("{:?}", reference_ordered_mods(&e)), format!("{wire:?}"));
    }

    #[test]
    fn modify_pairs_stay_atomic() {
        // Same key delete+add = MODIFY: one unit, never split.
        let mut e = Epoch { slice: SliceId(0), ..Default::default() };
        e.deletes.push(crate::epoch::EpochDelete {
            switch: 0,
            table: 1,
            m: t1(5, 1, 1).m,
            priority: 10,
        });
        e.adds.push(crate::epoch::EpochAdd { switch: 0, table: 1, entry: t1(5, 1, 2) });
        let rounds = compile_rounds(&e, &view1());
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].units, 1);
        assert_eq!(rounds[0].mods.len(), 2);
        assert_eq!(rounds[0].phase, RoundPhase::Cutover);
    }

    #[test]
    fn adds_layer_before_cutover_before_collect() {
        // Grow: new t1 route, then the t0 add steering to it; shrink: the
        // old port's t0 delete, then its route's t1 delete.
        let mut e = Epoch { slice: SliceId(0), ..Default::default() };
        e.adds.push(crate::epoch::EpochAdd { switch: 0, table: 1, entry: t1(9, 2, 3) });
        e.adds.push(crate::epoch::EpochAdd { switch: 0, table: 0, entry: t0(4, 9) });
        e.deletes.push(crate::epoch::EpochDelete {
            switch: 0,
            table: 0,
            m: t0(1, 5).m,
            priority: 10,
        });
        e.deletes.push(crate::epoch::EpochDelete {
            switch: 0,
            table: 1,
            m: t1(5, 1, 1).m,
            priority: 10,
        });
        // Pre-state: port 1 classifies into metadata 5, routed by t1.
        let mut before = view1();
        before.apply(0, 0, &FlowMod::Add(t0(1, 5)));
        before.apply(0, 1, &FlowMod::Add(t1(5, 1, 1)));
        let rounds = compile_rounds(&e, &before);
        let phases: Vec<RoundPhase> = rounds.iter().map(|r| r.phase).collect();
        assert_eq!(
            phases,
            vec![RoundPhase::Make, RoundPhase::Make, RoundPhase::Cutover, RoundPhase::Collect]
        );
        // t1 add strictly before the t0 add that steers to it.
        assert!(matches!(rounds[0].mods[0], (0, 1, FlowMod::Add(_))));
        assert!(matches!(rounds[1].mods[0], (0, 0, FlowMod::Add(_))));
        // Concatenation preserves the mod multiset.
        let total: usize = rounds.iter().map(|r| r.mods.len()).sum();
        assert_eq!(total, e.ordered_mods().len());
    }

    #[test]
    fn independent_t0_add_needs_no_extra_layer() {
        // A t0 add whose metadata gains no new routes this epoch sits in
        // layer 0 alongside the t1 adds.
        let mut e = Epoch { slice: SliceId(0), ..Default::default() };
        e.adds.push(crate::epoch::EpochAdd { switch: 0, table: 0, entry: t0(4, 9) });
        let rounds = compile_rounds(&e, &view1());
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].phase, RoundPhase::Make);
    }
}
