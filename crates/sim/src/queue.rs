//! The engine's event queue: a timing wheel of 1 ns slots in front of a
//! binary heap for the far future, dispatching in exactly `(t, push order)`.
//!
//! Every wheel event lies in `cursor..cursor + span`, so a slot holds one
//! timestamp and its FIFO — an intrusive list through one node slab — keeps
//! push order. An event at `t ≥ cursor + span` waits in the far heap on
//! `(t, push number)`; whenever a pop moves the cursor, every far event that
//! now fits is linked into its slot, in heap order. A direct push at `t`
//! needs `t − cursor < span`, by which time every far event for `t` has been
//! migrated ahead of it, as its earlier push requires; the cursor never
//! moves back, so no far push at `t` can follow a direct one.

use crate::engine::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NIL: u32 = u32::MAX;

struct Node<E> {
    ev: Option<E>,
    /// Next node of the slot FIFO, or of the free list.
    next: u32,
}

/// Min-queue of events on `(t, push order)`.
pub(crate) struct EventQueue<E> {
    /// Time of the last popped event: every wheel event lies in
    /// `cursor..cursor + span`.
    cursor: Time,
    /// `span - 1`; `span` is a power of two.
    mask: u64,
    /// First and last node of each slot's FIFO (head `NIL` when empty).
    slots: Vec<(u32, u32)>,
    /// Bit `s % 64` of word `s / 64` is set while slot `s` is occupied.
    occupied: Vec<u64>,
    wheel_len: usize,
    nodes: Vec<Node<E>>,
    free: u32,
    /// Events at `t ≥ cursor + span`: `(t, push number, node)`.
    far: BinaryHeap<Reverse<(Time, u64, u32)>>,
    far_pushes: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue whose wheel covers `span` ns (a power of two ≥ 64).
    pub(crate) fn new(span: u64) -> Self {
        assert!(span.is_power_of_two() && span >= 64, "wheel span {span}");
        EventQueue {
            cursor: 0,
            mask: span - 1,
            slots: vec![(NIL, NIL); span as usize],
            occupied: vec![0; span as usize / 64],
            wheel_len: 0,
            nodes: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            far_pushes: 0,
        }
    }

    /// Schedule `ev` at `t`. An event in the wheel's past (only after a time
    /// limit was lowered below the present) runs at the cursor. Inlined, as
    /// is `pop`, so events are not moved through the stack (≈ 30 % of a run).
    #[inline]
    pub(crate) fn push(&mut self, t: Time, ev: E) {
        let t = t.max(self.cursor);
        let node = Node { ev: Some(ev), next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.nodes[n as usize], node).next;
            n
        };
        if t - self.cursor <= self.mask {
            self.link(t, n);
        } else {
            self.far_pushes += 1;
            self.far.push(Reverse((t, self.far_pushes, n)));
        }
    }

    /// Append node `n` to the FIFO of `t`'s slot.
    fn link(&mut self, t: Time, n: u32) {
        let s = (t & self.mask) as usize;
        match self.slots[s] {
            (NIL, _) => {
                self.slots[s] = (n, n);
                self.occupied[s >> 6] |= 1 << (s & 63);
            }
            (_, tail) => {
                self.nodes[tail as usize].next = n;
                self.slots[s].1 = n;
            }
        }
        self.wheel_len += 1;
    }

    /// Timestamp of the next event, if any.
    pub(crate) fn next_time(&self) -> Option<Time> {
        if self.wheel_len == 0 {
            return self.far.peek().map(|r| r.0 .0);
        }
        let start = (self.cursor & self.mask) as usize;
        let last = self.occupied.len() - 1;
        let mut w = start >> 6;
        let mut bits = self.occupied[w] & (!0u64 << (start & 63));
        // Some bit is set, so this stops within one turn of the wheel.
        while bits == 0 {
            w = (w + 1) & last;
            bits = self.occupied[w];
        }
        let slot = ((w << 6) + bits.trailing_zeros() as usize) as u64;
        Some(self.cursor + (slot.wrapping_sub(start as u64) & self.mask))
    }

    /// Remove and return the next event in `(t, push order)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Time, E)> {
        let t = self.next_time()?;
        if t != self.cursor {
            self.cursor = t;
            let end = t + self.mask;
            while let Some(&Reverse((ft, _, n))) = self.far.peek().filter(|r| r.0 .0 <= end) {
                self.far.pop();
                self.link(ft, n);
            }
        }
        let s = (t & self.mask) as usize;
        let n = self.slots[s].0;
        let node = &mut self.nodes[n as usize];
        let Some(ev) = node.ev.take() else {
            unreachable!("a linked node holds an event")
        };
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = n;
        self.slots[s].0 = next;
        if next == NIL {
            self.occupied[s >> 6] &= !(1 << (s & 63));
        }
        self.wheel_len -= 1;
        Some((t, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pop everything: `(t, payload)` in dispatch order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(Time, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn same_time_burst_split_across_the_tiers_keeps_push_order() {
        let mut q = EventQueue::new(64);
        q.push(100, 1); // far: 100 ≥ 0 + 64
        q.push(100, 2);
        q.push(50, 0);
        assert_eq!(q.pop(), Some((50, 0)));
        // The cursor moved to 50: both far events sit in slot 100 now, and
        // a direct push at 100 queues behind them.
        q.push(100, 3);
        q.push(99, 4);
        assert_eq!(drain(&mut q), [(99, 4), (100, 1), (100, 2), (100, 3)]);
    }

    #[test]
    fn slots_wrap_past_zero() {
        // Four chains; each pop schedules its successor 1, 17, 62 or 63 ns
        // on (63: the slot just behind the cursor), so the cursor laps the
        // 64 slots many times with several events in flight.
        let mut q = EventQueue::new(64);
        let mut oracle = BinaryHeap::new();
        for seq in 0..4 {
            q.push(0, seq);
            oracle.push(Reverse((0, seq)));
        }
        let (mut seq, mut last) = (4, 0);
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
            last = want.0;
            if seq < 1_000 {
                let t = last + [1, 63, 62, 17][seq as usize % 4];
                q.push(t, seq);
                oracle.push(Reverse((t, seq)));
                seq += 1;
            }
        }
        assert_eq!(q.pop(), None);
        assert!(last > 20 * 64, "the cursor lapped the wheel ({last} ns)");
    }

    #[test]
    fn an_empty_wheel_jumps_to_the_far_event() {
        let mut q = EventQueue::new(64);
        q.push(1_000_000, 7);
        q.push(1_000_000 + 64, 8);
        assert_eq!(q.next_time(), Some(1_000_000));
        assert_eq!(q.pop(), Some((1_000_000, 7)));
        q.push(1_000_000, 9);
        assert_eq!(drain(&mut q), [(1_000_000, 9), (1_000_064, 8)]);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn a_time_limit_stop_resumes_at_a_later_now() {
        let mut q = EventQueue::new(64);
        q.push(10, 0);
        q.push(1_000, 1);
        assert_eq!(q.pop(), Some((10, 0)));
        // The engine sees 1 000 past a limit of 500, pops nothing, and
        // resumes with `now` = 500 — ahead of the cursor at 10.
        assert_eq!(q.next_time(), Some(1_000));
        q.push(500, 2);
        q.push(510, 3);
        q.push(1_000, 4);
        assert_eq!(q.next_time(), Some(500));
        assert_eq!(drain(&mut q), [(500, 2), (510, 3), (1_000, 1), (1_000, 4)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against one binary heap on `(t, seq)`: pushes at `now` plus a
        /// delay (0, `span − 1`, `span`, `span + 1`, within the wheel, far),
        /// pops, and time-limit stops that move `now` short of the next
        /// event without popping.
        #[test]
        fn pops_in_binary_heap_order(
            log_span in 6u32..9,
            ops in collection::vec((0u8..12, any::<u64>()), 1..600),
        ) {
            let span = 1u64 << log_span;
            let mut q = EventQueue::new(span);
            let mut oracle = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u32);
            for (op, raw) in ops {
                let delay = match op {
                    0 => Some(0),
                    1 => Some(span - 1),
                    2 => Some(span),
                    3 => Some(span + 1),
                    4 | 5 => Some(raw % span),
                    6 => Some(span + raw % (16 * span)),
                    _ => None,
                };
                if let Some(d) = delay {
                    q.push(now + d, seq);
                    oracle.push(Reverse((now + d, seq)));
                    seq += 1;
                } else if op == 11 {
                    // A time-limit stop: `now` moves, nothing is popped.
                    let next = q.next_time().unwrap_or(u64::MAX);
                    now = (now + raw % (4 * span)).min(next.saturating_sub(1)).max(now);
                } else {
                    let want = oracle.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(q.pop(), want);
                    if let Some((t, _)) = want {
                        now = t;
                    }
                }
                prop_assert_eq!(q.next_time(), oracle.peek().map(|r| r.0 .0));
            }
            let rest: Vec<_> = std::iter::from_fn(|| oracle.pop().map(|Reverse(e)| e)).collect();
            prop_assert_eq!(drain(&mut q), rest);
        }
    }
}
