//! Deterministic fault injection (§V, §VI-E failure handling).
//!
//! A [`FaultSchedule`] is a declarative, time-ordered list of data-plane
//! faults — link down/up/flap, switch crash/restart, port degradation —
//! plus the [`ControlConfig`] of the *control* channel (flow-mod delivery)
//! the scenario's recovery runs over. The schedule is applied to a
//! [`crate::Simulator`] with [`crate::Simulator::apply_fault_schedule`],
//! where every fault becomes an ordinary event in the engine's `(t, seq)`
//! queue — so a run under a fault schedule is exactly as bit-reproducible
//! as a fault-free run.
//!
//! Random schedules come from [`FaultSchedule::random`], seeded: the same
//! `(seed, topology)` pair always yields the same schedule, which is what
//! lets the chaos harness replay a failing scenario from nothing but the
//! seed printed on failure.

use crate::engine::Time;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_openflow::ControlConfig;
use sdt_topology::{SwitchId, Topology};

/// One data-plane fault.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultEvent {
    /// Both directions of the fabric link `a <-> b` stop carrying frames;
    /// everything queued on it is lost.
    LinkDown {
        /// One endpoint switch.
        a: SwitchId,
        /// The other endpoint switch.
        b: SwitchId,
    },
    /// The fabric link `a <-> b` comes back at full rate.
    LinkUp {
        /// One endpoint switch.
        a: SwitchId,
        /// The other endpoint switch.
        b: SwitchId,
    },
    /// Every channel incident to switch `s` (fabric links *and* host
    /// attachments) goes down at once.
    SwitchCrash {
        /// The crashing switch.
        s: SwitchId,
    },
    /// Every channel incident to switch `s` comes back.
    SwitchRestart {
        /// The restarting switch.
        s: SwitchId,
    },
    /// The link `a <-> b` keeps forwarding but serializes at `factor`
    /// times its nominal rate (`0 < factor <= 1`; `1.0` restores it).
    PortDegrade {
        /// One endpoint switch.
        a: SwitchId,
        /// The other endpoint switch.
        b: SwitchId,
        /// Rate multiplier.
        factor: f64,
    },
}

/// A fault pinned to a simulation timestamp.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimedFault {
    /// When the fault fires, ns.
    pub at_ns: Time,
    /// What happens.
    pub event: FaultEvent,
}

// What `FaultSchedule::random` draws.
/// Faulted links drawn, at most (each becomes a flap or a permanent cut).
const CHAOS_MAX_LINK_FAULTS: u32 = 3;
/// Probability a drawn link fault is a flap (down then up) rather than a
/// permanent cut.
const CHAOS_FLAP_PROB: f64 = 0.5;
/// Probability of one switch crash/restart pair on top of link faults.
const CHAOS_SWITCH_CRASH_PROB: f64 = 0.25;
/// Probability of one port-degradation fault.
const CHAOS_DEGRADE_PROB: f64 = 0.25;
/// Faults are spread uniformly over `[0, CHAOS_HORIZON_NS)`.
const CHAOS_HORIZON_NS: Time = 5_000_000;
/// Flap/crash outage duration bounds, ns.
const CHAOS_OUTAGE_NS: (Time, Time) = (500_000, 2_000_000);
/// Probability the scenario's control channel drops flow-mods (when it
/// does, `drop_prob` is drawn from `(0, 0.4]`).
const CHAOS_CONTROL_FAULT_PROB: f64 = 0.5;

/// A declarative, reproducible fault scenario.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Data-plane faults, kept sorted by `at_ns` (stable for equal times).
    /// Private: every fault enters through a builder, so each one has
    /// passed its builder's checks.
    events: Vec<TimedFault>,
    /// The scenario's control channel: what `ControlChannel::new` takes.
    pub control: ControlConfig,
}

impl FaultSchedule {
    /// An empty schedule with a reliable control channel.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// The data-plane faults, sorted by `at_ns` (stable for equal times).
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    fn push(&mut self, at_ns: Time, event: FaultEvent) -> &mut Self {
        let pos = self.events.partition_point(|f| f.at_ns <= at_ns);
        self.events.insert(pos, TimedFault { at_ns, event });
        self
    }

    /// Cut the link `a <-> b` permanently at `at_ns`.
    pub fn link_down(&mut self, a: SwitchId, b: SwitchId, at_ns: Time) -> &mut Self {
        self.push(at_ns, FaultEvent::LinkDown { a, b })
    }

    /// Restore the link `a <-> b` at `at_ns`.
    pub fn link_up(&mut self, a: SwitchId, b: SwitchId, at_ns: Time) -> &mut Self {
        self.push(at_ns, FaultEvent::LinkUp { a, b })
    }

    /// Flap the link: down at `at_ns`, back up `outage_ns` later.
    pub fn link_flap(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        at_ns: Time,
        outage_ns: Time,
    ) -> &mut Self {
        self.link_down(a, b, at_ns);
        self.link_up(a, b, at_ns + outage_ns)
    }

    /// Crash switch `s` (all incident channels die) at `at_ns`.
    pub fn switch_crash(&mut self, s: SwitchId, at_ns: Time) -> &mut Self {
        self.push(at_ns, FaultEvent::SwitchCrash { s })
    }

    /// Restart switch `s` at `at_ns`.
    pub fn switch_restart(&mut self, s: SwitchId, at_ns: Time) -> &mut Self {
        self.push(at_ns, FaultEvent::SwitchRestart { s })
    }

    /// Degrade the link `a <-> b` to `factor` of nominal rate at `at_ns`.
    pub fn port_degrade(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        factor: f64,
        at_ns: Time,
    ) -> &mut Self {
        assert!(factor > 0.0 && factor <= 1.0, "degrade factor must be in (0, 1]");
        self.push(at_ns, FaultEvent::PortDegrade { a, b, factor })
    }

    /// Set the scenario's control channel.
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = control;
        self
    }

    /// Links whose *last* transition in the schedule is a down (cut and
    /// never restored). Normalized `(min, max)` pairs, sorted. These are
    /// cable-level faults: a controller with spare cables can fully
    /// recover from them.
    pub fn final_link_cuts(&self) -> Vec<(SwitchId, SwitchId)> {
        use std::collections::HashMap;
        let mut link_state: HashMap<(SwitchId, SwitchId), bool> = HashMap::new();
        let key = |a: SwitchId, b: SwitchId| (a.min(b), a.max(b));
        for f in &self.events {
            match f.event {
                FaultEvent::LinkDown { a, b } => {
                    link_state.insert(key(a, b), false);
                }
                FaultEvent::LinkUp { a, b } => {
                    link_state.insert(key(a, b), true);
                }
                _ => {}
            }
        }
        let mut cut: Vec<_> =
            link_state.into_iter().filter(|&(_, up)| !up).map(|(k, _)| k).collect();
        cut.sort();
        cut
    }

    /// Switches crashed and never restarted, sorted. A crashed sub-switch
    /// cannot be fixed by re-cabling — recovery must degrade around it.
    pub fn unrecovered_crashes(&self) -> Vec<SwitchId> {
        use std::collections::HashSet;
        let mut dead: HashSet<SwitchId> = HashSet::new();
        for f in &self.events {
            match f.event {
                FaultEvent::SwitchCrash { s } => {
                    dead.insert(s);
                }
                FaultEvent::SwitchRestart { s } => {
                    dead.remove(&s);
                }
                _ => {}
            }
        }
        let mut v: Vec<_> = dead.into_iter().collect();
        v.sort();
        v
    }

    /// Generate a random schedule over `topo`'s fabric links. Same
    /// `(seed, topo)` ⇒ same schedule, always.
    pub fn random(seed: u64, topo: &Topology) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sched = FaultSchedule::new();
        // The channel's own draws replay from the scenario seed too.
        sched.control.seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let fabric: Vec<(SwitchId, SwitchId)> = topo
            .fabric_links()
            .map(|l| l.switch_ends())
            .collect();
        if fabric.is_empty() {
            return sched;
        }
        let n_faults = rng.random_range(1..=CHAOS_MAX_LINK_FAULTS);
        for _ in 0..n_faults {
            let (a, b) = fabric[rng.random_range(0..fabric.len())];
            let at = rng.random_range(0..CHAOS_HORIZON_NS);
            if rng.random_bool(CHAOS_FLAP_PROB) {
                let outage = rng.random_range(CHAOS_OUTAGE_NS.0..=CHAOS_OUTAGE_NS.1);
                sched.link_flap(a, b, at, outage);
            } else {
                sched.link_down(a, b, at);
            }
        }
        if rng.random_bool(CHAOS_SWITCH_CRASH_PROB) {
            let s = SwitchId(rng.random_range(0..topo.num_switches()));
            let at = rng.random_range(0..CHAOS_HORIZON_NS);
            let outage = rng.random_range(CHAOS_OUTAGE_NS.0..=CHAOS_OUTAGE_NS.1);
            sched.switch_crash(s, at);
            sched.switch_restart(s, at + outage);
        }
        if rng.random_bool(CHAOS_DEGRADE_PROB) {
            let (a, b) = fabric[rng.random_range(0..fabric.len())];
            let factor = 0.1 + 0.8 * rng.random::<f64>();
            sched.port_degrade(a, b, factor, rng.random_range(0..CHAOS_HORIZON_NS));
        }
        if rng.random_bool(CHAOS_CONTROL_FAULT_PROB) {
            sched.control = ControlConfig {
                drop_prob: 0.05 + 0.35 * rng.random::<f64>(),
                reorder_prob: 0.2 * rng.random::<f64>(),
                delay_ns: rng.random_range(0..1_000_000),
                ..sched.control
            };
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_topology::meshtorus::torus;

    #[test]
    fn schedule_stays_time_sorted() {
        let mut s = FaultSchedule::new();
        s.link_down(SwitchId(0), SwitchId(1), 500);
        s.link_flap(SwitchId(1), SwitchId(2), 100, 50);
        s.switch_crash(SwitchId(3), 300);
        let times: Vec<Time> = s.events.iter().map(|f| f.at_ns).collect();
        assert_eq!(times, vec![100, 150, 300, 500]);
    }

    #[test]
    fn random_is_seed_reproducible() {
        let t = torus(&[4, 4]);
        let a = FaultSchedule::random(7, &t);
        let b = FaultSchedule::random(7, &t);
        assert_eq!(a.events, b.events);
        assert_eq!(a.control, b.control);
        let c = FaultSchedule::random(8, &t);
        assert!(c.events != a.events || c.control != a.control);
    }

    #[test]
    fn final_link_cuts_track_last_transition() {
        let mut s = FaultSchedule::new();
        // Flapped link ends up: not in the cut.
        s.link_flap(SwitchId(0), SwitchId(1), 100, 50);
        // Permanently cut link: in the cut.
        s.link_down(SwitchId(1), SwitchId(2), 200);
        // Down then up then down again: in the cut.
        s.link_down(SwitchId(2), SwitchId(3), 300);
        s.link_up(SwitchId(2), SwitchId(3), 400);
        s.link_down(SwitchId(2), SwitchId(3), 500);
        let cut = s.final_link_cuts();
        assert_eq!(cut, vec![(SwitchId(1), SwitchId(2)), (SwitchId(2), SwitchId(3))]);
    }

    #[test]
    fn crash_is_unrecovered_until_restart() {
        let mut s = FaultSchedule::new();
        s.switch_crash(SwitchId(0), 100);
        assert_eq!(s.unrecovered_crashes(), vec![SwitchId(0)]);
        assert!(s.final_link_cuts().is_empty(), "no cable-level faults");
        s.switch_restart(SwitchId(0), 200);
        assert!(s.unrecovered_crashes().is_empty());
    }

    #[test]
    #[should_panic(expected = "degrade factor must be in (0, 1]")]
    fn a_zero_degrade_factor_is_refused() {
        FaultSchedule::new().port_degrade(SwitchId(0), SwitchId(1), 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "degrade factor must be in (0, 1]")]
    fn a_nan_degrade_factor_is_refused() {
        FaultSchedule::new().port_degrade(SwitchId(0), SwitchId(1), f64::NAN, 0);
    }
}
