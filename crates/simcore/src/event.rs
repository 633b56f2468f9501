//! Deterministic event queue with one re-armable wake slot per server.
//!
//! Pushed events live in a binary heap keyed by `(time, seq)`. Beside it
//! sits a winner tree of *wake slots*, one per server: a server changes
//! state on its own only at its next completion or buffer fill, so it
//! needs exactly one pending wake. [`EventQueue::arm`] overwrites the
//! slot's previous wake and [`EventQueue::disarm`] clears it, so a wake
//! the server no longer wants never reaches a pop. [`EventQueue::pop_next`]
//! takes the lesser of the heap head and the tree root.
//!
//! Determinism contract: a pop always returns the pending entry with the
//! minimum `(time, seq)` key, where `seq` comes from one counter shared by
//! [`EventQueue::push`] and [`EventQueue::arm`]. Because `seq` is unique,
//! that key is a total order: events at equal timestamps pop in the order
//! they were pushed or armed, and the pop sequence is a pure function of
//! the push/arm/disarm sequence. A wake queue behaves exactly like one
//! list in which every arm appends an entry and an entry whose slot was
//! re-armed or disarmed since is skipped — the tests pin it to that model.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a point in simulated time.
#[derive(Clone, Debug)]
pub struct EventEntry<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Global insertion sequence number; breaks timestamp ties FIFO.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> PartialEq for EventEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for EventEntry<T> {}

impl<T> PartialOrd for EventEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for EventEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed (earliest-first), so `BinaryHeap`, a max-heap, pops
        // the minimum `(time, seq)` key.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What [`EventQueue::pop_next`] hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// A payload scheduled with [`EventQueue::push`].
    Event(T),
    /// The wake armed on this slot with [`EventQueue::arm`].
    Wake(usize),
}

/// One winner-tree node: the least `(time, seq)` key below it and the
/// slot that holds it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl Node {
    /// The key of a disarmed slot: later than every armed wake.
    const IDLE: (SimTime, u64) = (SimTime::FAR_FUTURE, u64::MAX);

    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A min-priority queue of timed events with FIFO tie-breaking, plus one
/// wake slot per server. See the module docs.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<EventEntry<T>>,
    /// Winner tree over the wake slots: the leaves sit at
    /// `leaves..2 * leaves` (slot `s` at `leaves + s`), each inner node
    /// holds the lesser of its children, and `tree[1]` is the earliest
    /// armed wake. Disarmed slots and padding leaves carry [`Node::IDLE`].
    tree: Vec<Node>,
    leaves: usize,
    slots: usize,
    armed: usize,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with no wake slots.
    pub fn new() -> Self {
        Self::with_wake_slots(0)
    }

    /// Creates an empty queue with `slots` disarmed wake slots, numbered
    /// `0..slots`.
    pub fn with_wake_slots(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        let (time, seq) = Node::IDLE;
        EventQueue {
            heap: BinaryHeap::new(),
            tree: (0..2 * leaves)
                .map(|i| Node {
                    time,
                    seq,
                    slot: i.saturating_sub(leaves),
                })
                .collect(),
            leaves,
            slots,
            armed: 0,
            next_seq: 0,
        }
    }

    /// Draws the next sequence number.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `time`. Panics on non-finite times — an
    /// infinite wake must be expressed by *not* scheduling.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(
            time.is_finite(),
            "cannot schedule an event at infinite time"
        );
        let seq = self.take_seq();
        self.heap.push(EventEntry { time, seq, payload });
    }

    /// Arms `slot`'s wake at `time`, replacing any wake it held. The wake
    /// draws its `seq` now, from the counter [`EventQueue::push`] uses, so
    /// it ties with pushed events exactly as a pushed event would.
    pub fn arm(&mut self, slot: usize, time: SimTime) {
        assert!(time.is_finite(), "cannot arm a wake at infinite time");
        assert!(slot < self.slots, "wake slot {slot} out of range");
        let seq = self.take_seq();
        if self.tree[self.leaves + slot].time == SimTime::FAR_FUTURE {
            self.armed += 1;
        }
        self.set_leaf(slot, (time, seq));
    }

    /// Clears `slot`'s wake, if it holds one.
    pub fn disarm(&mut self, slot: usize) {
        debug_assert!(slot < self.slots, "wake slot {slot} out of range");
        if self.tree[self.leaves + slot].time != SimTime::FAR_FUTURE {
            self.armed -= 1;
            self.set_leaf(slot, Node::IDLE);
        }
    }

    /// Writes one leaf and replays the matches on its path to the root,
    /// stopping where a node's winner does not change.
    fn set_leaf(&mut self, slot: usize, (time, seq): (SimTime, u64)) {
        let mut i = self.leaves + slot;
        self.tree[i] = Node { time, seq, slot };
        while i > 1 {
            let (a, b) = (self.tree[i], self.tree[i ^ 1]);
            let winner = if a.key().cmp(&b.key()).is_lt() { a } else { b };
            i >>= 1;
            if self.tree[i] == winner {
                break;
            }
            self.tree[i] = winner;
        }
    }

    /// Removes and returns the earliest pending entry — a pushed event
    /// or an armed wake, which disarms its slot — or `None` if empty.
    pub fn pop_next(&mut self) -> Option<EventEntry<Popped<T>>> {
        let wake = self.tree[1];
        let take_wake = match self.heap.peek() {
            Some(head) => wake.key().cmp(&(head.time, head.seq)).is_lt(),
            None => self.armed > 0,
        };
        if take_wake {
            self.armed -= 1;
            self.set_leaf(wake.slot, Node::IDLE);
            return Some(EventEntry {
                time: wake.time,
                seq: wake.seq,
                payload: Popped::Wake(wake.slot),
            });
        }
        self.heap.pop().map(|e| EventEntry {
            time: e.time,
            seq: e.seq,
            payload: Popped::Event(e.payload),
        })
    }

    /// Removes and returns the earliest pushed event, or `None` if empty:
    /// [`EventQueue::pop_next`] for a queue that arms no wakes. Panics if
    /// the earliest entry is an armed wake.
    pub fn pop(&mut self) -> Option<EventEntry<T>> {
        let e = self.pop_next()?;
        match e.payload {
            Popped::Event(payload) => Some(EventEntry {
                time: e.time,
                seq: e.seq,
                payload,
            }),
            Popped::Wake(slot) => panic!("pop() reached the wake of slot {slot}; use pop_next"),
        }
    }

    /// The timestamp of the earliest pending entry.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wake = (self.armed > 0).then_some(self.tree[1].time);
        match (self.heap.peek().map(|e| e.time), wake) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending entries: pushed events plus armed wakes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event and disarms every wake. The sequence
    /// counter keeps counting, so FIFO ordering is preserved across a
    /// clear.
    pub fn clear(&mut self) {
        self.heap.clear();
        for slot in 0..self.slots {
            self.disarm(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), 10);
        q.push(SimTime::from_secs(1.0), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(SimTime::from_secs(5.0), 5);
        q.push(SimTime::from_secs(0.5), 0);
        // 0.5 is in the "past" relative to popped 1.0 — the queue itself
        // doesn't enforce monotonicity; the simulation loop asserts it.
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 5);
        assert_eq!(q.pop().unwrap().payload, 10);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::with_wake_slots(2);
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_secs(2.0), ());
        q.arm(1, SimTime::from_secs(1.5));
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        q.pop_next();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.5)));
        q.disarm(1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::with_wake_slots(3);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.arm(0, SimTime::ZERO);
        q.arm(0, SimTime::ZERO);
        q.arm(2, SimTime::ZERO);
        assert_eq!(q.len(), 4, "a re-arm replaces, it does not add");
        q.disarm(2);
        q.disarm(2);
        assert_eq!(q.len(), 3, "a second disarm is a no-op");
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop_next().is_none());
    }

    #[test]
    #[should_panic(expected = "infinite time")]
    fn rejects_infinite_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, ());
    }

    #[test]
    #[should_panic(expected = "infinite time")]
    fn rejects_an_infinite_wake() {
        let mut q = EventQueue::<()>::with_wake_slots(1);
        q.arm(0, SimTime::FAR_FUTURE);
    }

    #[test]
    #[should_panic(expected = "use pop_next")]
    fn plain_pop_refuses_a_wake() {
        let mut q = EventQueue::<()>::with_wake_slots(1);
        q.arm(0, SimTime::ZERO);
        q.pop();
    }

    /// A wake ties with pushed events by the `seq` it drew when armed:
    /// re-arming at the same time moves it behind events pushed since.
    #[test]
    fn a_rearm_draws_a_fresh_seq() {
        let mut q = EventQueue::with_wake_slots(1);
        let t = SimTime::from_secs(4.0);
        q.arm(0, t);
        q.push(t, 'a');
        q.arm(0, t);
        q.push(t, 'b');
        let order: Vec<(u64, Popped<char>)> =
            std::iter::from_fn(|| q.pop_next().map(|e| (e.seq, e.payload))).collect();
        assert_eq!(
            order,
            vec![
                (1, Popped::Event('a')),
                (2, Popped::Wake(0)),
                (3, Popped::Event('b'))
            ]
        );
    }

    /// A trivially-correct model: one list of every push and every arm,
    /// popped by minimum `(time, seq)`, skipping a wake whose slot was
    /// re-armed or disarmed after it.
    struct ModelQueue {
        pending: Vec<(SimTime, u64, Popped<u64>)>,
        /// The `seq` of each slot's live wake.
        live: Vec<Option<u64>>,
        next_seq: u64,
    }

    impl ModelQueue {
        fn new(slots: usize) -> Self {
            ModelQueue {
                pending: Vec::new(),
                live: vec![None; slots],
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: u64) {
            self.pending
                .push((time, self.next_seq, Popped::Event(payload)));
            self.next_seq += 1;
        }
        fn arm(&mut self, slot: usize, time: SimTime) {
            self.live[slot] = Some(self.next_seq);
            self.pending.push((time, self.next_seq, Popped::Wake(slot)));
            self.next_seq += 1;
        }
        fn disarm(&mut self, slot: usize) {
            self.live[slot] = None;
        }
        fn pop(&mut self) -> Option<(SimTime, u64, Popped<u64>)> {
            loop {
                let best = self
                    .pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, s, _))| (t, s))?
                    .0;
                let (t, s, p) = self.pending.swap_remove(best);
                match p {
                    Popped::Wake(slot) if self.live[slot] != Some(s) => continue,
                    Popped::Wake(slot) => self.live[slot] = None,
                    Popped::Event(_) => {}
                }
                return Some((t, s, p));
            }
        }
        fn len(&self) -> usize {
            let events = self
                .pending
                .iter()
                .filter(|e| matches!(e.2, Popped::Event(_)))
                .count();
            events + self.live.iter().flatten().count()
        }
    }

    /// The seq-counter FIFO contract, differentially: an arbitrary
    /// deterministic push/pop interleaving (duplicate timestamps, pushes
    /// into the past, same-time bursts) must match the reference model
    /// event for event.
    #[test]
    fn fifo_contract_matches_reference_model() {
        let mut rng = Rng::new(0x5EC_C0FFEE);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::new(0);
        let mut payload = 0u64;
        for round in 0..2000 {
            if rng.chance(0.6) || q.is_empty() {
                // Coarse quantisation makes duplicate timestamps common.
                let t = SimTime::from_secs((rng.range_f64(0.0, 50.0) * 4.0).floor() / 4.0);
                q.push(t, payload);
                model.push(t, payload);
                payload += 1;
                if round % 7 == 0 {
                    // Same-time burst: FIFO among equals is the contract.
                    for _ in 0..3 {
                        q.push(t, payload);
                        model.push(t, payload);
                        payload += 1;
                    }
                }
            } else {
                let got = q.pop().map(|e| (e.time, e.seq, Popped::Event(e.payload)));
                assert_eq!(got, model.pop(), "divergence at round {round}");
                assert_eq!(
                    q.peek_time(),
                    model
                        .pending
                        .iter()
                        .map(|&(t, s, _)| (t, s))
                        .min()
                        .map(|(t, _)| t)
                );
            }
            assert_eq!(q.len(), model.pending.len());
        }
        while let Some(e) = q.pop() {
            assert_eq!(Some((e.time, e.seq, Popped::Event(e.payload))), model.pop());
        }
        assert!(model.pop().is_none());
    }

    /// FIFO among equal timestamps holds over a large burst: 1000
    /// same-time events bracketed by an earlier and a later one pop in
    /// insertion order.
    #[test]
    fn fifo_contract_survives_resizes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7.25);
        for i in 0..1000u32 {
            q.push(t, i);
        }
        q.push(SimTime::from_secs(1.0), u32::MAX);
        q.push(SimTime::from_secs(90.0), u32::MAX - 1);
        assert_eq!(q.pop().unwrap().payload, u32::MAX);
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().payload, i, "tie order broken at {i}");
        }
        assert_eq!(q.pop().unwrap().payload, u32::MAX - 1);
        assert!(q.is_empty());
    }

    /// Far-future outliers pop in key order after the near events.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_hours(2.0), "soak");
        q.push(SimTime::from_secs(0.5), "now");
        q.push(SimTime::from_hours(2.0), "soak2");
        assert_eq!(q.pop().unwrap().payload, "now");
        assert_eq!(q.pop().unwrap().payload, "soak");
        assert_eq!(q.pop().unwrap().payload, "soak2");
    }

    /// The wake-slot contract, differentially: random interleavings of
    /// push, arm, re-arm, disarm and pop over 256 slots (as many as the
    /// largest cluster has servers), with duplicate and same-time keys
    /// and pushes and arms into the past, must pop exactly the `(time,
    /// seq, payload or slot)` sequence of the one-list model that skips
    /// superseded wakes.
    #[test]
    fn wake_contract_matches_reference_model() {
        for (seed, slots) in [(1u64, 256usize), (2, 256), (3, 5), (4, 1), (5, 3)] {
            let mut rng = Rng::new(0x3A4E_0000 + seed);
            let mut q = EventQueue::with_wake_slots(slots);
            let mut model = ModelQueue::new(slots);
            let mut payload = 0u64;
            let mut now = 0.0f64;
            for round in 0..6000 {
                // Times near the last pop (some before it), quantised so
                // that equal keys are common.
                let t = SimTime::from_secs(((now + rng.range_f64(-2.0, 30.0)) * 2.0).floor() / 2.0);
                let slot = rng.below(slots);
                let roll = rng.range_f64(0.0, 1.0);
                if roll < 0.25 {
                    q.push(t, payload);
                    model.push(t, payload);
                    payload += 1;
                } else if roll < 0.55 {
                    q.arm(slot, t);
                    model.arm(slot, t);
                    if round % 5 == 0 {
                        // Immediate re-arm at the same time: the earlier
                        // arm must never pop.
                        q.arm(slot, t);
                        model.arm(slot, t);
                    }
                } else if roll < 0.65 {
                    q.disarm(slot);
                    model.disarm(slot);
                } else {
                    let got = q.pop_next().map(|e| (e.time, e.seq, e.payload));
                    let want = model.pop();
                    assert_eq!(got, want, "seed {seed}, round {round}");
                    if let Some((t, _, _)) = got {
                        now = t.as_secs();
                    }
                    assert_eq!(q.len(), model.len(), "seed {seed}, round {round}");
                }
            }
            while let Some(e) = q.pop_next() {
                assert_eq!(Some((e.time, e.seq, e.payload)), model.pop());
            }
            assert!(model.pop().is_none());
            assert!(q.is_empty());
        }
    }

    /// `clear` must not reset the sequence counter: events pushed after a
    /// clear still order FIFO against nothing, and a fresh same-time batch
    /// stays in its own insertion order.
    #[test]
    fn clear_preserves_seq_monotonicity() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), 0);
        q.clear();
        let t = SimTime::from_secs(1.0);
        for i in 1..=5 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }
}
