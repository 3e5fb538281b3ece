//! Transient-safe scheduled reconfiguration: dependency-ordered rounds,
//! each proven safe before it installs.
//!
//! An [`Epoch`] already sequences a reconfiguration make-before-break,
//! but the whole batch is installed in one shot: the
//! static gate proves the *final* table state, while every intermediate
//! state live traffic traverses during the batch is unproven. This module
//! closes that gap, Chameleon-style (SIGCOMM'23):
//!
//! 1. **Round compilation** ([`compile_rounds`]) — cut the epoch's wire
//!    order into its layers ([`Epoch::layers`]), one round each. The
//!    layers follow the class walks each mod touches: a table-0 classify
//!    entry that writes metadata `md` steers packets into the table-1
//!    entries matching `md` on the same switch, so an add of the former
//!    lands in a later round than the adds of the latter, and a delete of
//!    the latter in a later round than the cutover that stops steering
//!    `md`. A delete followed by adds with the same (switch, table, match,
//!    priority) key is an in-place MODIFY and is never split across
//!    rounds. [`Epoch::from_diff`] decides the layers as it orders the
//!    mods, so a compiled round is one contiguous run of the wire order and
//!    the rounds, concatenated, are the wire order.
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
//! 4. **Prove, send, barrier** — each round is proven, then sent on the
//!    (possibly lossy) [`ControlChannel`] and closed by a barrier before
//!    the next round is proven, so a boundary that cannot be proven leaves
//!    the switches on the last proven one with nothing in flight. Proof
//!    time is measured wall clock and install time is modeled (the channel
//!    is simulated), so the report carries the two totals in separate
//!    fields and never combines them.
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
use sdt_openflow::{install_time_ns, reconcile, ControlChannel, FlowMod, OpenFlowSwitch};
use sdt_verify::{Intent, TableView, Verifier, VerifyReport};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
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
    pub mods: RoundMods,
    /// The migration phase of the latest constituent unit.
    pub phase: RoundPhase,
    /// Atomic units in the round (a MODIFY pair counts once).
    pub units: usize,
}

/// The mods one round installs: a share of its epoch's [`Epoch::mods`]
/// and the runs of it the round installs, one after another — one run for
/// a compiled round, one per compiled round for a merged one; no mod
/// copied. Iterates (and formats) as the `(switch, table, mod)` sequence
/// it selects.
#[derive(Clone)]
pub struct RoundMods {
    batch: Arc<Vec<(u32, u8, FlowMod)>>,
    runs: Vec<Range<usize>>,
}

impl RoundMods {
    /// Flow-mods in the round.
    pub fn len(&self) -> usize {
        self.runs.iter().map(Range::len).sum()
    }

    /// True for a round with no mods.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The round's mods, in install order.
    pub fn iter(&self) -> RoundModsIter<'_> {
        RoundModsIter { batch: &self.batch, runs: self.runs.iter(), run: [].iter() }
    }
}

impl<'a> IntoIterator for &'a RoundMods {
    type Item = &'a (u32, u8, FlowMod);
    type IntoIter = RoundModsIter<'a>;

    fn into_iter(self) -> RoundModsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for RoundMods {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// [`RoundMods::iter`].
pub struct RoundModsIter<'a> {
    batch: &'a [(u32, u8, FlowMod)],
    runs: std::slice::Iter<'a, Range<usize>>,
    run: std::slice::Iter<'a, (u32, u8, FlowMod)>,
}

impl<'a> Iterator for RoundModsIter<'a> {
    type Item = &'a (u32, u8, FlowMod);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(m) = self.run.next() {
                return Some(m);
            }
            self.run = self.batch[self.runs.next()?.clone()].iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.len() + self.runs.clone().map(Range::len).sum::<usize>();
        (n, Some(n))
    }
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
    /// Live tables hold exactly the epoch's end state at the end: the last
    /// round's reconcile verdict (`true` when there were no rounds).
    pub converged: bool,
    /// Sum of all boundary-proof wall clocks, ns.
    pub proof_wall_ns_total: u64,
    /// Sum of modeled per-round install times, ns.
    pub install_ns_total: u64,
}

/// Why a scheduled install stopped. The rounds before the failing one are
/// applied and nothing is left in flight: the switches hold the last
/// proven boundary ([`ScheduleError::UnsafeBoundary`]) or the failing
/// round's unconverged state ([`ScheduleError::DivergedUnsafe`]). Every
/// state actually reached before the failure was proven to add no new
/// finding over the starting tables.
#[derive(Clone, Debug)]
pub enum ScheduleError {
    /// A boundary failed its proof even after merging through the final
    /// round; nothing of the failing round was sent. With the whole epoch
    /// gated beforehand this indicates the caller skipped that gate (or
    /// the base proof was stale).
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

/// Compile an epoch into dependency-ordered rounds: one per non-empty
/// layer of its wire order (make, make, cutover, collect: [`Epoch::layers`],
/// decided by [`Epoch::from_diff`]; see [`crate::epoch`]), each the
/// contiguous run of [`Epoch::mods`] the layer spans, with the layer's
/// atomic units — a single add or delete, or a delete and the add(s)
/// riding it under the same (switch, table, match, priority) key: an
/// in-place MODIFY, never split across rounds.
///
/// Every round shares [`Epoch::mods`]; no mod is copied, and the rounds
/// concatenated are [`Epoch::mods`] itself. Determinism needs no seed:
/// the compilation is a pure function of the epoch. `before` is not read
/// — the layers are the epoch's own; the parameter stays only because
/// `benchmark/` calls this with it, and a later `benchmark` change retires
/// it.
pub fn compile_rounds(epoch: &Epoch, _before: &TableView) -> Vec<Round> {
    const PHASES: [RoundPhase; 4] =
        [RoundPhase::Make, RoundPhase::Make, RoundPhase::Cutover, RoundPhase::Collect];
    let mut start = 0;
    let mut rounds = Vec::new();
    for (layer, phase) in epoch.layers.iter().zip(PHASES) {
        let run = start..layer.end;
        start = layer.end;
        if !run.is_empty() {
            let mods = RoundMods { batch: Arc::clone(&epoch.mods), runs: vec![run] };
            rounds.push(Round { mods, phase, units: layer.units });
        }
    }
    rounds
}

/// True when `r` carries no loop/blackhole/leak finding that `base` did
/// not already have. A healthy base makes this exactly `r.holds()`; a
/// wounded base — a slice migration starting from the live tables a
/// [`ScheduleError::DivergedUnsafe`] migration left behind — accepts
/// monotone improvement.
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

/// Install dependency-ordered `rounds` — [`compile_rounds`]' output for one
/// epoch — over `channel`, one round at a time: prove its boundary
/// (merging on failure), send it, barrier, reconcile. See the module docs
/// for the full contract. Returns the verifier of the final proven
/// boundary and the round report.
///
/// `base` must be a proof of the *current* live tables (its intent is the
/// pre-migration intent); `pre_intent`/`post_intent` bracket the cutover.
/// The caller is expected to have gated the whole epoch's end state
/// already — that is what guarantees the merge fallback terminates.
pub fn install_scheduled(
    cluster: &PhysicalCluster,
    switches: &mut [OpenFlowSwitch],
    channel: &mut ControlChannel,
    rounds: Vec<Round>,
    base: Verifier,
    pre_intent: &Intent,
    post_intent: &Intent,
) -> Result<(Verifier, ScheduleReport), ScheduleError> {
    let base_report = base.report().clone();
    let total_mods: usize = rounds.iter().map(|r| r.mods.len()).sum();
    let mut work: VecDeque<Round> = rounds.into();
    // Nothing to install has converged; otherwise the last round's
    // reconcile decides (each diffs every table against its boundary, so
    // it also chases earlier rounds' stragglers).
    let mut report = ScheduleReport { total_mods, converged: true, ..Default::default() };
    // The intended boundary trajectory is the chain of proofs itself: each
    // round's verifier holds the tables its round is to reach.
    let mut current = base;

    while let Some(mut round) = work.pop_front() {
        let index = report.rounds.len();
        // Prove the boundary; acceptance is "no new finding over the
        // pre-migration live state".
        let (mut merged_from, mut proof_wall_ns) = (1, 0);
        let (verifier, post) = loop {
            // Pre-cutover boundaries still implement the old intent: the
            // new pipeline is dark until a port steers into it. From the
            // cutover on — and always for the final boundary — the new
            // intent rules.
            let post = work.is_empty() || round.phase >= RoundPhase::Cutover;
            let intent = if post { post_intent } else { pre_intent };
            let t0 = Instant::now();
            let v = Verifier::check_delta(&current, &round.mods, intent.clone());
            proof_wall_ns += t0.elapsed().as_nanos() as u64;
            if no_new_findings(v.report(), &base_report) {
                break (v, post);
            }
            // The layering mispredicted: coarsen by merging with the next
            // round. The fully-merged round is the one-shot epoch, whose
            // end state the caller already gated — so this terminates.
            let Some(next) = work.pop_front() else {
                let summary = v.report().summary();
                return Err(ScheduleError::UnsafeBoundary { round: index, summary });
            };
            // Runs concatenate: the merged round installs what the two
            // did, in the same order.
            assert!(Arc::ptr_eq(&round.mods.batch, &next.mods.batch), "only rounds of one epoch merge");
            round.mods.runs.extend(next.mods.runs);
            round.phase = round.phase.max(next.phase);
            round.units += next.units;
            merged_from += 1;
            report.merges += 1;
        };

        // Send the proven round and close it with a barrier.
        let mut per_switch = vec![0usize; switches.len()];
        for (sw, t, m) in &round.mods {
            channel.send(*sw as usize, *t, m.clone());
            per_switch[*sw as usize] += 1;
        }
        channel.barrier(switches);
        let busiest = per_switch.iter().copied().max().unwrap_or(0);
        // Reconcile the live tables against the intended boundary; the
        // round's own send + barrier above was attempt 1.
        let intended = verifier.view();
        let rec = reconcile(channel, switches, |sw, t| intended.entries(sw as u32, t), 1);
        let install_ns = install_time_ns(busiest) + 2 * channel.delay_ns() + rec.install_ns;
        report.converged = rec.converged;

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
            pairs_walked: verifier.report().pairs_walked,
            install_ns,
            backoff_ns: rec.backoff_ns,
            sends: round.mods.len() as u64 + rec.sends,
            retries: rec.retries,
            converged: rec.converged,
            reverified,
        });
        current = verifier;
    }

    report.proof_wall_ns_total = report.rounds.iter().map(|r| r.proof_wall_ns).sum();
    report.install_ns_total = report.rounds.iter().map(|r| r.install_ns).sum();
    Ok((current, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceId;
    use sdt_core::synthesis::SynthesisOutput;
    use sdt_openflow::{Action, FlowEntry, FlowMatch, HostAddr, PortNo};

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

    /// A one-switch pipeline, tables in the order given.
    fn synth(t0: Vec<FlowEntry>, t1: Vec<FlowEntry>) -> SynthesisOutput {
        let entries = t0.len() + t1.len();
        SynthesisOutput {
            table0: vec![t0.into()],
            table1: vec![t1.into()],
            entries_per_switch: vec![entries],
        }
    }

    /// The epoch turning `old` into `new`, and `old` as the pre-state.
    fn diff(old: SynthesisOutput, new: SynthesisOutput) -> (Epoch, TableView) {
        (Epoch::from_diff(SliceId(0), &old, &new), TableView::of_synthesis(&old))
    }

    #[test]
    fn an_add_rides_the_last_delete_of_its_key() {
        // Neither side in key order; route (5, 1) is held twice, deleted
        // twice and replaced twice, port 3 is re-classified, route (7, 2)
        // is new.
        let (e, _) = diff(
            synth(vec![t0(3, 5)], vec![t1(5, 1, 9), t1(5, 1, 1)]),
            synth(vec![t0(3, 6)], vec![t1(5, 1, 2), t1(7, 2, 4), t1(5, 1, 3)]),
        );
        let wire: Vec<(u32, u8, FlowMod)> = vec![
            (0, 1, FlowMod::Add(t1(7, 2, 4))),
            (0, 0, FlowMod::Delete(t0(3, 5).m, 10)),
            (0, 0, FlowMod::Add(t0(3, 6))),
            (0, 1, FlowMod::Delete(t1(5, 1, 1).m, 10)),
            (0, 1, FlowMod::Delete(t1(5, 1, 1).m, 10)),
            (0, 1, FlowMod::Add(t1(5, 1, 2))),
            (0, 1, FlowMod::Add(t1(5, 1, 3))),
        ];
        assert_eq!(format!("{:?}", e.mods), format!("{wire:?}"));
        // One copy of route (5, 1) kept, the other gone: the delete strikes
        // both, so the kept copy is sent again behind it.
        let (e, _) = diff(
            synth(vec![], vec![t1(5, 1, 9), t1(5, 1, 1)]),
            synth(vec![], vec![t1(5, 1, 1)]),
        );
        let wire: Vec<(u32, u8, FlowMod)> =
            vec![(0, 1, FlowMod::Delete(t1(5, 1, 1).m, 10)), (0, 1, FlowMod::Add(t1(5, 1, 1)))];
        assert_eq!(format!("{:?}", e.mods), format!("{wire:?}"));
    }

    #[test]
    fn modify_pairs_stay_atomic() {
        // Same key delete+add = MODIFY: one unit, never split.
        let (e, before) = diff(synth(vec![], vec![t1(5, 1, 1)]), synth(vec![], vec![t1(5, 1, 2)]));
        let rounds = compile_rounds(&e, &before);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].units, 1);
        assert_eq!(rounds[0].mods.len(), 2);
        assert_eq!(rounds[0].phase, RoundPhase::Cutover);
    }

    #[test]
    fn adds_layer_before_cutover_before_collect() {
        // Grow: new t1 route, then the t0 add steering to it; shrink: the
        // old port's t0 delete, then its route's t1 delete. Pre-state: port
        // 1 classifies into metadata 5, routed by t1.
        let (e, before) = diff(
            synth(vec![t0(1, 5)], vec![t1(5, 1, 1)]),
            synth(vec![t0(4, 9)], vec![t1(9, 2, 3)]),
        );
        let rounds = compile_rounds(&e, &before);
        let phases: Vec<RoundPhase> = rounds.iter().map(|r| r.phase).collect();
        assert_eq!(
            phases,
            vec![RoundPhase::Make, RoundPhase::Make, RoundPhase::Cutover, RoundPhase::Collect]
        );
        // t1 add strictly before the t0 add that steers to it.
        assert!(matches!(rounds[0].mods.iter().next(), Some((0, 1, FlowMod::Add(_)))));
        assert!(matches!(rounds[1].mods.iter().next(), Some((0, 0, FlowMod::Add(_)))));
        // Concatenation preserves the mod multiset.
        let total: usize = rounds.iter().map(|r| r.mods.len()).sum();
        assert_eq!(total, e.mods.len());
    }

    #[test]
    fn independent_t0_add_needs_no_extra_layer() {
        // A t0 add whose metadata gains no new routes this epoch sits in
        // layer 0 alongside the t1 adds.
        let (e, before) = diff(synth(vec![], vec![]), synth(vec![t0(4, 9)], vec![]));
        let rounds = compile_rounds(&e, &before);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].phase, RoundPhase::Make);
    }
}
