//! The controller→switch control channel, with failure modes.
//!
//! Real OpenFlow deployments lose and reorder control messages (Azzouni et
//! al. measure both on production controllers), and a flow-mod that never
//! reaches the switch leaves a *silently stale* table — the flow-mod
//! protocol has no per-message acknowledgment, only the barrier. This
//! module models exactly that failure surface:
//!
//! * [`ControlChannel::send`] queues a flow-mod toward a switch; with
//!   probability `drop_prob` the message is lost in flight (the switch
//!   never sees it, the controller gets no error);
//! * [`ControlChannel::barrier`] delivers everything still queued — with
//!   probability `reorder_prob` adjacent messages swap, so a delete can
//!   land after the add it was supposed to precede — then returns a
//!   [`BarrierReport`]. Like the real barrier-reply, it tells the
//!   controller *when* the switch is done, not *whether* every mod
//!   arrived;
//! * divergence between a switch's live tables and the controller's
//!   intended state is therefore only detectable by reading the tables
//!   back and diffing ([`table_divergence`]) — which is precisely what
//!   [`reconcile`], the one retry loop, does.
//!
//! Randomness is a seeded [`StdRng`]: a chaos scenario's control-plane
//! behavior replays bit-identically from its seed.

use crate::switch::OpenFlowSwitch;
use crate::table::{diff_tables, each_absent, FlowEntry, FlowMod};
use crate::install_time_ns;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Control-channel reliability parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlConfig {
    /// Probability an individual flow-mod is silently lost in flight.
    pub drop_prob: f64,
    /// Probability two adjacent queued messages swap delivery order.
    pub reorder_prob: f64,
    /// One-way control-message latency, ns (added to barrier timing).
    pub delay_ns: u64,
    /// RNG seed for drop/reorder draws.
    pub seed: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig { drop_prob: 0.0, reorder_prob: 0.0, delay_ns: 0, seed: 0 }
    }
}

impl ControlConfig {
    /// A perfectly reliable, zero-latency channel.
    pub fn reliable() -> Self {
        ControlConfig::default()
    }
}

/// What a barrier round observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct BarrierReport {
    /// Flow-mods applied by switches this round.
    pub applied: usize,
    /// Flow-mods the switch refused (e.g. transient table-full when a
    /// reordered add landed before its freeing delete).
    pub rejected: usize,
    /// Adjacent message swaps that occurred in flight.
    pub reordered: usize,
}

/// A lossy, reordering controller→switch message channel.
#[derive(Clone, Debug)]
pub struct ControlChannel {
    cfg: ControlConfig,
    rng: StdRng,
    /// In-flight messages: (switch index, table id, flow-mod).
    queue: Vec<(usize, u8, FlowMod)>,
    /// Lifetime counters.
    sent: u64,
    dropped: u64,
    delivered: u64,
}

impl ControlChannel {
    /// Channel with the given reliability profile.
    pub fn new(cfg: ControlConfig) -> Self {
        ControlChannel {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            queue: Vec::new(),
            sent: 0,
            dropped: 0,
            delivered: 0,
        }
    }

    /// A perfectly reliable channel.
    pub fn reliable() -> Self {
        ControlChannel::new(ControlConfig::reliable())
    }

    /// Configured parameters.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// Flow-mods handed to the channel so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Flow-mods lost in flight so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flow-mods delivered to switches so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Queue a flow-mod toward `switch`'s pipeline table `table`. The
    /// message may be silently lost; the caller learns nothing either way
    /// — exactly the OpenFlow flow-mod contract.
    pub fn send(&mut self, switch: usize, table: u8, m: FlowMod) {
        self.sent += 1;
        if self.cfg.drop_prob > 0.0 && self.rng.random_bool(self.cfg.drop_prob) {
            self.dropped += 1;
            return;
        }
        self.queue.push((switch, table, m));
    }

    /// Deliver every queued message (possibly reordered) and wait for the
    /// switches to process them — the OpenFlow barrier. Returns what
    /// happened in flight; rejected mods are counted, not errored, because
    /// a real barrier-reply carries no per-mod status either.
    pub fn barrier(&mut self, switches: &mut [OpenFlowSwitch]) -> BarrierReport {
        let mut report = BarrierReport::default();
        let mut queue = std::mem::take(&mut self.queue);
        if self.cfg.reorder_prob > 0.0 {
            let mut i = 0;
            while i + 1 < queue.len() {
                if self.rng.random_bool(self.cfg.reorder_prob) {
                    queue.swap(i, i + 1);
                    report.reordered += 1;
                    i += 2; // a message swaps at most once per round
                } else {
                    i += 1;
                }
            }
        }
        for (sw, table, m) in queue {
            self.delivered += 1;
            match switches[sw].apply(table, m) {
                Ok(()) => report.applied += 1,
                Err(_) => report.rejected += 1,
            }
        }
        report
    }

    /// Modeled one-way latency of a control message, ns.
    pub fn delay_ns(&self) -> u64 {
        self.cfg.delay_ns
    }
}

/// How far a switch's live pipeline is from the controller's intended
/// state: the number of flow-mods needed to reconcile both tables. Zero
/// means the switch is exactly in sync — the post-barrier check the
/// controller's retry loop relies on.
pub fn table_divergence(
    sw: &OpenFlowSwitch,
    intended_t0: &[FlowEntry],
    intended_t1: &[FlowEntry],
) -> usize {
    each_absent(sw.table(0).entries(), intended_t0, |_, _| true)
        + each_absent(sw.table(1).entries(), intended_t1, |_, _| true)
}

// The retry/backoff budget of every `reconcile` loop (scheduled rounds and
// failure recovery alike).
/// Re-diff/re-send attempts after the first send before [`reconcile`]
/// gives up.
pub const MAX_RETRIES: u32 = 5;
/// Backoff before the first retry, ns.
pub const RETRY_BACKOFF_BASE_NS: u64 = 2_000_000;
/// Multiplier per further retry (exponential backoff).
pub const RETRY_BACKOFF_FACTOR: u32 = 2;

/// What one [`reconcile`] loop did. Times are modeled (the channel is
/// simulated), never measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reconciled {
    /// Send + barrier attempts made towards the target, the caller's
    /// `attempts_done` included.
    pub attempts: u32,
    /// Flow-mods handed to the channel by this loop.
    pub sends: u64,
    /// Attempts that had to wait out a backoff first (every attempt after
    /// the first towards this target).
    pub retries: u32,
    /// Total exponential-backoff wait, ns.
    pub backoff_ns: u64,
    /// Modeled time of the loop: installs + barriers + backoff, ns.
    pub install_ns: u64,
    /// Every live table matches the target.
    pub converged: bool,
}

/// Drive the live tables to `target(switch, table)` over a lossy channel:
/// read the tables back, diff them against the target, re-send what is
/// missing or stale, barrier, and repeat — waiting `base · factor^(n−1)`
/// before the n-th retry — until nothing differs or [`MAX_RETRIES`]` + 1`
/// attempts have been spent. The diff is taken from what the switches
/// *actually* hold, so flow-mods the channel silently dropped or reordered
/// are caught and re-issued. `attempts_done` counts sends towards this
/// target the caller already made (a scheduler round's own send + barrier
/// is attempt 1; a plain repair starts at 0).
pub fn reconcile<'a>(
    channel: &mut ControlChannel,
    switches: &mut [OpenFlowSwitch],
    target: impl Fn(usize, u8) -> &'a [FlowEntry],
    attempts_done: u32,
) -> Reconciled {
    let mut r = Reconciled { attempts: attempts_done, ..Default::default() };
    loop {
        let mut per_switch = vec![0usize; switches.len()];
        let mut mods = Vec::new();
        for (sw, s) in switches.iter().enumerate() {
            for t in [0u8, 1u8] {
                for m in diff_tables(s.table(t).entries(), target(sw, t)) {
                    per_switch[sw] += 1;
                    mods.push((sw, t, m));
                }
            }
        }
        if mods.is_empty() {
            r.converged = true;
            return r;
        }
        if r.attempts > MAX_RETRIES {
            return r;
        }
        if r.attempts > 0 {
            r.retries += 1;
            // Saturating: the budget's longest wait is 32 ms, but 2 ms
            // doubled leaves a u64 after 44 retries should it ever grow.
            let factor = u64::from(RETRY_BACKOFF_FACTOR).saturating_pow(r.attempts - 1);
            let wait = RETRY_BACKOFF_BASE_NS.saturating_mul(factor);
            r.backoff_ns = r.backoff_ns.saturating_add(wait);
            r.install_ns = r.install_ns.saturating_add(wait);
        }
        for (sw, t, m) in mods {
            channel.send(sw, t, m);
            r.sends += 1;
        }
        channel.barrier(switches);
        let busiest = per_switch.iter().copied().max().unwrap_or(0);
        let round_ns = install_time_ns(busiest) + 2 * channel.delay_ns();
        r.install_ns = r.install_ns.saturating_add(round_ns);
        r.attempts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::SwitchConfig;
    use crate::table::{Action, FlowMatch};
    use crate::{HostAddr, PortNo};

    fn entry(dst: u32, port: u16) -> FlowEntry {
        FlowEntry {
            m: FlowMatch::to_dst(HostAddr(dst)),
            priority: 1,
            action: Action::Output(PortNo(port)),
        }
    }

    fn switch() -> OpenFlowSwitch {
        OpenFlowSwitch::new(0, SwitchConfig::h3c_s6861())
    }

    #[test]
    fn reliable_channel_delivers_everything() {
        let mut sw = [switch()];
        let mut ch = ControlChannel::reliable();
        for i in 0..10 {
            ch.send(0, 1, FlowMod::Add(entry(i, 1)));
        }
        let r = ch.barrier(&mut sw);
        assert_eq!(r.applied, 10);
        assert_eq!(r.rejected, 0);
        assert_eq!(ch.dropped(), 0);
        assert_eq!(sw[0].table(1).len(), 10);
        assert_eq!(table_divergence(&sw[0], &[], sw[0].table(1).entries()), 0);
    }

    #[test]
    fn dropped_mods_leave_a_detectably_stale_table() {
        let intended: Vec<FlowEntry> = (0..100).map(|i| entry(i, 1)).collect();
        let mut sw = [switch()];
        let mut ch = ControlChannel::new(ControlConfig {
            drop_prob: 0.3,
            seed: 5,
            ..ControlConfig::reliable()
        });
        for &e in &intended {
            ch.send(0, 1, FlowMod::Add(e));
        }
        ch.barrier(&mut sw);
        assert!(ch.dropped() > 0, "30% loss over 100 mods must drop some");
        // The barrier reported nothing wrong — only a read-back diff
        // exposes the staleness.
        let div = table_divergence(&sw[0], &[], &intended);
        assert_eq!(div as u64, ch.dropped());
    }

    #[test]
    fn loss_is_seed_reproducible() {
        let run = |seed: u64| {
            let mut sw = [switch()];
            let mut ch = ControlChannel::new(ControlConfig {
                drop_prob: 0.5,
                seed,
                ..ControlConfig::reliable()
            });
            for i in 0..50 {
                ch.send(0, 1, FlowMod::Add(entry(i, 1)));
            }
            ch.barrier(&mut sw);
            let have: Vec<FlowEntry> = sw[0].table(1).entries().to_vec();
            (ch.dropped(), have)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1);
    }

    #[test]
    fn reordering_can_defeat_delete_then_add() {
        // diff semantics: replacing an entry's action = Delete(m, prio) then
        // Add(new). If the two swap in flight, the delete erases the new
        // entry and the table ends up *empty* — stale in a way only
        // reconciliation catches.
        let old = entry(7, 1);
        let new = entry(7, 2); // same match+priority, different action
        let mut saw_stale = false;
        for seed in 0..64 {
            let mut sw = [switch()];
            sw[0].apply(1, FlowMod::Add(old)).unwrap();
            let mut ch = ControlChannel::new(ControlConfig {
                reorder_prob: 0.5,
                seed,
                ..ControlConfig::reliable()
            });
            ch.send(0, 1, FlowMod::Delete(old.m, old.priority));
            ch.send(0, 1, FlowMod::Add(new));
            let r = ch.barrier(&mut sw);
            if r.reordered > 0 {
                assert_eq!(sw[0].table(1).len(), 0, "swap deletes the fresh add");
                assert!(table_divergence(&sw[0], &[], &[new]) > 0);
                saw_stale = true;
            } else {
                assert_eq!(sw[0].table(1).entries(), &[new]);
            }
        }
        assert!(saw_stale, "some seed in 0..64 must reorder");
    }

    /// A MODIFY is a Delete and an Add of one (match, priority) key. When
    /// the channel loses the Delete and delivers the Add, the Add replaces
    /// the entry of its key, so the switch is on target already and
    /// `reconcile` has nothing to send.
    #[test]
    fn a_modify_whose_delete_is_lost_still_lands_on_target() {
        let (old, new) = (entry(7, 1), entry(7, 2));
        let mut sw = [switch()];
        sw[0].apply(1, FlowMod::Add(old)).unwrap();
        let mut ch = ControlChannel::reliable();
        ch.send(0, 1, FlowMod::Add(new));
        ch.barrier(&mut sw);
        assert_eq!(sw[0].table(1).entries(), &[new]);
        assert_eq!(table_divergence(&sw[0], &[], &[new]), 0);
        let goal = |_: usize, t: u8| if t == 1 { std::slice::from_ref(&new) } else { &[][..] };
        let r = reconcile(&mut ch, &mut sw, goal, 1);
        assert_eq!((r.converged, r.sends, r.retries), (true, 0, 0), "{r:?}");
    }

    /// A table is its entry set: a lossy, reordering channel followed by
    /// `reconcile` leaves the bytes a reliable install leaves, although it
    /// delivered the adds in another order. The target holds overlapping
    /// equal-priority entries, whose order is what a lookup reads.
    #[test]
    fn a_reordered_install_reconciled_is_byte_equal_to_a_reliable_one() {
        let old: Vec<FlowEntry> = (0..12).map(|i| entry(i, 1)).collect();
        let mut target: Vec<FlowEntry> = (6..18).map(|i| entry(i, 2)).collect();
        target.extend((0..6).map(|i| FlowEntry {
            m: FlowMatch::on_port(PortNo(i)),
            priority: 1,
            action: Action::Output(PortNo(i + 3)),
        }));
        let install = |ch: &mut ControlChannel| {
            let mut sw = [switch()];
            for &e in &old {
                sw[0].apply(1, FlowMod::Add(e)).unwrap();
            }
            for m in diff_tables(&old, &target) {
                ch.send(0, 1, m);
            }
            let reordered = ch.barrier(&mut sw).reordered;
            let goal = |_: usize, t: u8| if t == 1 { target.as_slice() } else { &[][..] };
            assert!(reconcile(ch, &mut sw, goal, 1).converged);
            (sw[0].table(1).entries().to_vec(), reordered)
        };
        let (reliable, _) = install(&mut ControlChannel::reliable());
        let mut swaps = 0;
        for seed in 0..16 {
            let cfg = ControlConfig { reorder_prob: 0.5, seed, ..ControlConfig::reliable() };
            let (got, reordered) = install(&mut ControlChannel::new(cfg));
            assert_eq!(got, reliable, "seed {seed}");
            swaps += reordered;
        }
        assert!(swaps > 0, "some seed in 0..16 must reorder");
    }

    #[test]
    fn reconcile_retries_with_exponential_backoff_until_the_tables_match() {
        let target: Vec<FlowEntry> = (0..8).map(|i| entry(i, 1)).collect();
        let goal = |_: usize, t: u8| if t == 1 { target.as_slice() } else { &[][..] };
        let lossy =
            || ControlChannel::new(ControlConfig { drop_prob: 0.3, seed: 3, ..Default::default() });

        // A plain repair (no attempt made yet): the first send is free of
        // backoff, every later one waits base * factor^(n-1).
        let mut sw = [switch()];
        let mut ch = lossy();
        let r = reconcile(&mut ch, &mut sw, goal, 0);
        assert!(r.converged, "{r:?}");
        assert!(r.retries > 0 && r.attempts == r.retries + 1, "{r:?}");
        assert_eq!(r.sends, ch.sent());
        let waits: u64 = (0..r.retries).map(|n| RETRY_BACKOFF_BASE_NS << n).sum();
        assert_eq!(r.backoff_ns, waits);
        assert_eq!(sw[0].table(1).entries().len(), 8);

        // Tables already at the target: nothing sent, nothing waited.
        let again = reconcile(&mut ch, &mut sw, goal, 0);
        assert_eq!(again, Reconciled { converged: true, ..Default::default() });

        // The caller's own send was attempt 1: same channel draws, but every
        // send of the loop is now a retry and the budget is one shorter.
        let mut sw = [switch()];
        let after_round = reconcile(&mut lossy(), &mut sw, goal, 1);
        assert_eq!(after_round.retries, after_round.attempts - 1);
        assert_eq!(after_round.sends, r.sends);
        assert!(after_round.backoff_ns > r.backoff_ns);
    }

    #[test]
    fn reconcile_gives_up_after_max_retries_plus_one_attempts() {
        let target = [entry(1, 1)];
        let goal = |_: usize, t: u8| if t == 1 { &target[..] } else { &[][..] };
        for done in [0, 1] {
            let mut sw = [switch()];
            let mut dead =
                ControlChannel::new(ControlConfig { drop_prob: 1.0, ..Default::default() });
            let r = reconcile(&mut dead, &mut sw, goal, done);
            assert!(!r.converged);
            assert_eq!(r.attempts, MAX_RETRIES + 1, "initial + MAX_RETRIES attempts");
            assert_eq!(r.retries, MAX_RETRIES);
            assert_eq!(r.sends, u64::from(MAX_RETRIES + 1 - done));
            // Every retry waits: 2 + 4 + 8 + 16 + 32 ms.
            assert_eq!(r.backoff_ns, 62_000_000);
        }
    }
}
