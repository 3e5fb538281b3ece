//! The per-link simulation: a fluid model of one directed channel under
//! credit-based (lossless) flow control, solved exactly in O(F log F).
//!
//! Decomposition (see [`crate::decompose`]) hands each channel the flows
//! that cross it as a *canonical workload*: `(relative start, bytes)`
//! pairs, times relative to the link's first arrival, sorted. This module
//! answers the only question the aggregator asks of a link: *how much
//! queueing delay did each crossing flow pick up here, beyond its own
//! serialization?*
//!
//! The engine's lossless fabric splits queueing into two regimes, and the
//! model has one term for each:
//!
//! * **Fair-share stretch** — when several flows offer sustained load to
//!   one link, credit backpressure pushes the excess all the way back to
//!   their sources, and the link's cell interleaving serves the
//!   contenders round-robin. Each flow's own bytes drain at roughly its
//!   fair share, so a flow overlapping others finishes late by its
//!   processor-sharing delay. The classic virtual-time construction
//!   solves egalitarian PS in one sweep: with `V'(t) = C / n(t)`, a flow
//!   arriving at `t_a` with `b` bytes finishes when `V(t) = V(t_a) + b`.
//! * **Parked backlog** — a busy link also holds a standing queue. Every
//!   transient overshoot (a mouse landing on an elephant's link) ratchets
//!   the queue up, and credit flow control caps it at the VC buffer
//!   instead of letting it grow or drain: while input matches output the
//!   depth just stays. A flow transiting the link waits behind whatever
//!   is parked, so it is charged the open-loop FIFO backlog `W(t)` at its
//!   last byte's arrival, **capped by the buffer**: `min(W, buffer)/C`.
//!   (Uncapped open-loop FIFO — Parsimon's infinite-buffer model — badly
//!   overcharges mice here, because against PFC the real excess migrates
//!   to the elephants' sources rather than standing in the fabric.)
//!
//! A flow that never shares the link gets exactly zero from both terms,
//! which keeps single-flow estimates engine-exact. Two properties matter
//! downstream:
//!
//! * **symmetry** — entries with equal `(start, bytes)` receive equal
//!   delays, which is what makes mapping a clustered channel's flows onto
//!   its representative's canonical positions well-defined;
//! * **determinism** — both sweeps are fixed sequences of f64 operations
//!   on the canonical workload, so a workload's delay vector is
//!   byte-identical across runs, hosts, and thread counts.

/// One directed channel's workload in canonical (shift-invariant) form:
/// `(relative start ns, bytes)` sorted ascending, first entry at relative
/// time 0. Two channels with equal canonical workloads are *exactly*
/// interchangeable for delay purposes — that equality is the clustering
/// relation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonicalWorkload {
    /// `(relative start ns, bytes)`, sorted by `(start, bytes)`.
    pub entries: Vec<(u64, u64)>,
}

impl CanonicalWorkload {
    /// A 64-bit FNV-1a fingerprint over the entries, prefixed with the
    /// entry count. This is the *prefilter* key for clustering — clusters
    /// are confirmed by full workload equality, never by fingerprint
    /// alone, so a collision costs a comparison, not correctness.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.entries.len() as u64);
        for &(t, b) in &self.entries {
            eat(t);
            eat(b);
        }
        h
    }

    /// Total bytes offered to the channel.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|&(_, b)| b).sum()
    }
}

/// Min-heap key for the PS sweep: virtual finish (as ordered bits — the
/// values are sums of non-negative f64s, so the bit order is the numeric
/// order) with an index tiebreak for full determinism.
type PsPending = std::cmp::Reverse<(u64, u32)>;

/// Per-entry fair-share (processor-sharing) delay: finish time under
/// egalitarian sharing minus arrival minus own serialization.
fn ps_delays(w: &CanonicalWorkload, c: f64) -> Vec<u64> {
    let n = w.entries.len();
    let mut finish = vec![0f64; n];
    let mut heap: std::collections::BinaryHeap<PsPending> = std::collections::BinaryHeap::new();
    let mut now = 0f64; // real time, ns
    let mut v = 0f64; // virtual time: cumulative per-flow service, bytes
    let mut i = 0usize;
    while i < n || !heap.is_empty() {
        let next_arrival = if i < n { Some(w.entries[i].0 as f64) } else { None };
        if let Some(&std::cmp::Reverse((fv_bits, idx))) = heap.peek() {
            let finish_v = f64::from_bits(fv_bits);
            // Earliest completion in real time, given the current sharing.
            let t_done = now + (finish_v - v) * heap.len() as f64 / c;
            // Completions at the same instant as an arrival run first; the
            // choice just has to be fixed.
            if next_arrival.is_none_or(|ta| t_done <= ta) {
                heap.pop();
                v = finish_v;
                now = t_done;
                finish[idx as usize] = now;
                continue;
            }
        }
        let ta = match next_arrival {
            Some(t) => t,
            None => unreachable!("loop guard: empty heap implies arrivals remain"),
        };
        if !heap.is_empty() && ta > now {
            v += (ta - now) * c / heap.len() as f64;
        }
        now = now.max(ta);
        heap.push(std::cmp::Reverse(((v + w.entries[i].1 as f64).to_bits(), i as u32)));
        i += 1;
    }
    (0..n)
        .map(|j| {
            let (arr, bytes) = w.entries[j];
            (finish[j] - arr as f64 - bytes as f64 / c).max(0.0).round() as u64
        })
        .collect()
}

/// Per-entry open-loop FIFO backlog sample: the backlog `W` (bytes) an
/// entry's last byte meets, with every flow offering its bytes at line
/// rate from its arrival instant and the link draining at `c`.
fn backlog_samples(w: &CanonicalWorkload, c: f64) -> Vec<f64> {
    let n = w.entries.len();
    // Two events per flow: arrival starts (rate +C into the link) and
    // arrival completes at t + b/C (rate -C; sample W there). `W` is
    // continuous, so simultaneous events commute — any fixed tie order
    // gives the same samples. Sort by (time, kind, idx) for determinism.
    let mut events = Vec::with_capacity(2 * n);
    for (i, &(t, b)) in w.entries.iter().enumerate() {
        let start = t as f64;
        events.push((start, 0u8, i as u32));
        events.push((start + b as f64 / c, 1u8, i as u32));
    }
    events.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    });
    let mut samples = vec![0f64; n];
    let mut backlog = 0f64;
    let mut arriving = 0u32; // flows currently offering fluid at rate C
    let mut now = 0f64;
    for (t, kind, idx) in events {
        let dt = t - now;
        // Slope is constant between events: (arriving − 1)·C while work is
        // offered, −C (clipped at empty) while the link drains.
        if arriving == 0 {
            backlog = (backlog - dt * c).max(0.0);
        } else {
            backlog += dt * (arriving - 1) as f64 * c;
        }
        now = t;
        if kind == 0 {
            arriving += 1;
        } else {
            arriving -= 1;
            samples[idx as usize] = backlog;
        }
    }
    samples
}

/// One entry's queueing delay at one link, kept as its two regime terms
/// because the aggregator combines them differently along a path: the
/// fair-share stretch is governed by the single tightest bottleneck
/// (taking the max), while parked standing queues are physically distinct
/// per hop and a cell transits each in turn (so they sum).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkDelay {
    /// Fair-share (processor-sharing) stretch, ns.
    pub fair: u64,
    /// Wait behind the parked standing queue, ns (already capped at the
    /// buffer).
    pub parked: u64,
}

impl LinkDelay {
    /// Both terms together — the delay this link alone would charge.
    pub fn total(self) -> u64 {
        self.fair + self.parked
    }
}

/// Per-entry queueing delay (ns) of a canonical workload on a channel of
/// `bytes_per_ns` capacity whose standing queue is capped at `park_cap`
/// bytes by flow control: fair-share stretch plus the parked backlog the
/// flow's last byte meets, reported as separate [`LinkDelay`] terms. A
/// flow that never shares the channel gets exactly 0 from both.
///
/// Output is indexed like `w.entries`; equal entries get equal delays.
pub fn link_delays(w: &CanonicalWorkload, bytes_per_ns: f64, park_cap: u64) -> Vec<LinkDelay> {
    let ps = ps_delays(w, bytes_per_ns);
    let parked = backlog_samples(w, bytes_per_ns);
    ps.iter()
        .zip(&parked)
        .map(|(&share, &wb)| LinkDelay {
            fair: share,
            parked: (wb.min(park_cap as f64) / bytes_per_ns).round() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 96_000; // engine default vc_buffer_bytes

    fn w(entries: &[(u64, u64)]) -> CanonicalWorkload {
        CanonicalWorkload { entries: entries.to_vec() }
    }

    #[test]
    fn lone_flow_has_zero_delay() {
        assert_eq!(link_delays(&w(&[(0, 1_000_000)]), 1.25, CAP), vec![LinkDelay::default()]);
        // Two flows that never overlap: both undelayed.
        assert_eq!(
            link_delays(&w(&[(0, 1_000), (10_000_000, 1_000)]), 1.25, CAP),
            vec![LinkDelay::default(); 2]
        );
    }

    #[test]
    fn two_equal_flows_split_the_link() {
        // Both arrive at 0 with b bytes: fair share gives each an extra
        // serialization b/C; the standing queue adds the (capped) parked
        // wait on top.
        let b = 1_000_000u64;
        let c = 1.25f64;
        let d = link_delays(&w(&[(0, b), (0, b)]), c, CAP);
        let ser = (b as f64 / c).round() as u64;
        let parked = (CAP as f64 / c).round() as u64; // backlog b, capped
        assert_eq!(d, vec![LinkDelay { fair: ser, parked }; 2]);
    }

    #[test]
    fn equal_entries_get_equal_delays() {
        // Symmetry: however many ties, tied entries are interchangeable.
        let d = link_delays(
            &w(&[(0, 500), (0, 500), (0, 500), (100, 2_000), (100, 2_000)]),
            1.25,
            CAP,
        );
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(d[3], d[4]);
    }

    #[test]
    fn mouse_pays_the_parked_queue_not_the_elephants() {
        // Two elephants saturate the link from t=0; a one-cell mouse at
        // t=800_000 ns shares briefly (tiny PS term) and waits behind the
        // parked queue — which flow control caps at the buffer, NOT the
        // elephants' megabytes of open-loop backlog.
        let b = 2_500_000u64;
        let c = 1.25f64;
        let d = link_delays(&w(&[(0, b), (0, b), (800_000, 1_500)]), c, CAP);
        let parked = (CAP as f64 / c) as u64; // 76_800 ns
        assert!(d[2].parked >= parked, "mouse pays the parked queue, got {:?}", d[2]);
        assert!(
            d[2].total() < parked + 10_000,
            "mouse must not pay open-loop backlog, got {:?}",
            d[2]
        );
        assert_eq!(d[0], d[1]);
        // The elephants' own delay is dominated by the fair-share term.
        assert!(d[0].fair > (b as f64 / c) as u64, "elephants split the link: {:?}", d[0]);
    }

    #[test]
    fn staggered_arrival_delays_both() {
        // A (2b at t=0) and B (b at t=b/C): at B's arrival both have b
        // left, so fair share finishes both at 3b/C — each stretched b/C —
        // plus the capped parked wait.
        let b = 1_250_000u64; // b/C = 1e6 ns at C = 1.25
        let d = link_delays(&w(&[(0, 2 * b), (1_000_000, b)]), 1.25, CAP);
        let parked = (CAP as f64 / 1.25).round() as u64;
        assert_eq!(d, vec![LinkDelay { fair: 1_000_000, parked }; 2]);
    }

    #[test]
    fn fair_share_conserves_capacity() {
        // The last fair-share completion can never beat total_bytes / C.
        let wl = w(&[(0, 3_000), (10, 5_000), (20, 1_000), (1_000, 9_999)]);
        let c = 1.25;
        let d = ps_delays(&wl, c);
        let finish_max: f64 = wl
            .entries
            .iter()
            .zip(&d)
            .map(|(&(t, b), &delay)| t as f64 + b as f64 / c + delay as f64)
            .fold(0.0, f64::max);
        assert!(finish_max + 1.0 >= wl.total_bytes() as f64 / c);
    }

    #[test]
    fn parked_term_is_capped_and_monotone_in_the_cap() {
        let wl = w(&[(0, 10_000_000), (0, 10_000_000), (1_000_000, 1_500)]);
        let small = link_delays(&wl, 1.25, 1_000);
        let big = link_delays(&wl, 1.25, u64::MAX);
        for (s, b) in small.iter().zip(&big) {
            assert!(s.parked <= b.parked);
            assert_eq!(s.fair, b.fair, "the cap only touches the parked term");
        }
        // With an effectively infinite cap the mouse pays the full
        // open-loop backlog (~1 ms of elephant bytes).
        assert!(big[2].parked > 900_000);
        assert!(small[2].total() < 10_000);
    }

    #[test]
    fn fingerprint_separates_and_matches() {
        let a = w(&[(0, 100), (5, 200)]);
        let b = w(&[(0, 100), (5, 200)]);
        let c = w(&[(0, 100), (5, 201)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.total_bytes(), 300);
    }
}
