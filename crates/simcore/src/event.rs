//! Deterministic event queue.
//!
//! A calendar queue (Brown 1988) keyed by `(time, sequence)`: pending
//! events hash into `buckets.len()` "days" by `floor(time / width) mod
//! days`, and a cursor walks one "year" of days per pop, so the common
//! case touches a handful of nearly-empty buckets instead of rebalancing
//! a heap. Events at equal timestamps pop in insertion order — the
//! explicit `seq` counter makes runs reproducible regardless of bucket
//! internals, which heap-based queues do not guarantee for free.
//!
//! Determinism contract: `pop` always returns the pending entry with the
//! minimum `(time, seq)` pair. Because `seq` is unique, that key is a
//! total order, so the pop sequence is a pure function of the push
//! sequence — bucket count, bucket width, and resize history cannot
//! change it.
//!
//! Resizing is hysteretic: the calendar grows at `len > 2·days` and
//! shrinks only below `days / 8`, so a workload hovering at one
//! threshold cannot alternate O(len) rebuilds. Width derivation samples
//! the *earliest* entries (see `rebuild`), and a pop that had to fall
//! back to the full far-future sweep re-centers the calendar on the
//! surviving tail — both guards exist because an alternating
//! near/far-future spacing pattern used to collapse the dense head into
//! one bucket and pay an O(len) scan on every pop.
//!
//! Cancellation is handled by the *generation* pattern at the call site
//! (each server keeps a wake-generation counter and ignores stale wakes)
//! rather than by tombstones inside the queue — that keeps this structure
//! trivial and allocation-free per operation after warm-up.

use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Ordering;

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
        // Reversed (earliest-first), so entries drop into a max-heap or
        // `sort` + `pop` pattern unchanged from the old binary-heap days.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Fewest buckets the calendar ever holds.
const MIN_BUCKETS: usize = 8;
/// Narrowest bucket width (seconds); bounds the slot index range.
const MIN_WIDTH: f64 = 1e-9;
/// Head-sample size for width derivation: the earliest `WIDTH_SAMPLE`
/// entries set the working timescale, so one far-future outlier cannot
/// inflate the width and collapse the dense head into a single bucket.
const WIDTH_SAMPLE: usize = 64;

/// Work counters for the calendar's internal scans; used by regression
/// tests to pin amortized cost, not by the simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Entries examined across all `locate` scans.
    pub scanned: u64,
    /// Times `locate` fell back to the O(len) full sweep.
    pub sweeps: u64,
    /// Bucket-array rebuilds (grow, shrink, or sweep re-centering).
    pub rebuilds: u64,
}

/// A min-priority queue of timed events with FIFO tie-breaking, backed by
/// a calendar queue.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    /// One unsorted `Vec` per calendar day.
    buckets: Vec<Vec<EventEntry<T>>>,
    /// Total pending entries across all buckets.
    len: usize,
    next_seq: u64,
    /// Seconds spanned by one bucket ("day length").
    width: f64,
    /// Absolute day index (`floor(time / width)`) the pop scan starts
    /// from. Invariant: no pending entry lives in an earlier day —
    /// `push` rewinds the cursor when scheduling into the past.
    cursor_slot: i64,
    /// Scan-work counters (`Cell` so `locate` can stay `&self`).
    scanned: Cell<u64>,
    sweeps: Cell<u64>,
    rebuilds: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        let days = (cap / 2).next_power_of_two().clamp(MIN_BUCKETS, 4096);
        EventQueue {
            buckets: (0..days).map(|_| Vec::new()).collect(),
            len: 0,
            next_seq: 0,
            width: 1.0,
            cursor_slot: 0,
            scanned: Cell::new(0),
            sweeps: Cell::new(0),
            rebuilds: 0,
        }
    }

    /// Absolute day index for `time` under the current width.
    fn slot_of(&self, time: SimTime) -> i64 {
        // `as i64` saturates on overflow, which keeps even absurd
        // timestamps ordered correctly (they all land in the last day and
        // the (time, seq) scan inside it still picks the true minimum).
        (time.as_secs() / self.width).floor() as i64
    }

    /// Schedules `payload` at `time`. Panics on non-finite times — an
    /// infinite wake must be expressed by *not* scheduling.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, payload);
    }

    /// Schedules `payload` at `time` under an externally-assigned `seq`.
    /// Used by [`crate::sharded::ShardedQueue`], which allocates sequence
    /// numbers globally so the merged pop order across shard queues
    /// equals the single-queue order. The caller must keep `seq` unique
    /// and monotone across all queues sharing the namespace.
    pub(crate) fn push_with_seq(&mut self, time: SimTime, seq: u64, payload: T) {
        assert!(
            time.is_finite(),
            "cannot schedule an event at infinite time"
        );
        let slot = self.slot_of(time);
        // Scheduling into the past (relative to the last pop) is legal:
        // rewind the cursor so the scan cannot skip the new entry.
        if self.len == 0 || slot < self.cursor_slot {
            self.cursor_slot = slot;
        }
        let days = self.buckets.len();
        self.buckets[slot.rem_euclid(days as i64) as usize].push(EventEntry { time, seq, payload });
        self.len += 1;
        if self.len > 2 * days {
            self.rebuild(2 * days);
        }
    }

    /// Finds the pending entry with the minimum `(time, seq)` key:
    /// `(bucket index, position in bucket, its day, swept)`. Scans at
    /// most one calendar year from the cursor, then falls back to a
    /// direct sweep for sparse far-future tails (`swept = true`, so `pop`
    /// can re-center the calendar on the surviving tail).
    fn locate(&self) -> Option<(usize, usize, i64, bool)> {
        if self.len == 0 {
            return None;
        }
        let days = self.buckets.len() as i64;
        let mut scanned = 0u64;
        for offset in 0..days {
            let slot = self.cursor_slot + offset;
            let bucket = slot.rem_euclid(days) as usize;
            let mut best: Option<usize> = None;
            scanned += self.buckets[bucket].len() as u64;
            for (pos, e) in self.buckets[bucket].iter().enumerate() {
                // Entries from later years share the bucket; skip them.
                // The integer day test is exact, unlike a `time < edge`
                // comparison which can mis-round at bucket boundaries.
                if self.slot_of(e.time) > slot {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let cur = &self.buckets[bucket][b];
                        (e.time, e.seq) < (cur.time, cur.seq)
                    }
                };
                if better {
                    best = Some(pos);
                }
            }
            if let Some(pos) = best {
                self.scanned.set(self.scanned.get() + scanned);
                return Some((bucket, pos, slot, false));
            }
        }
        // Nothing within a year of the cursor: sweep everything for the
        // global minimum. O(len); the caller re-centers afterwards so a
        // sparse far-future tail cannot pay this price per pop.
        self.sweeps.set(self.sweeps.get() + 1);
        self.scanned
            .set(self.scanned.get() + scanned + self.len as u64);
        let mut best: Option<(usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (pos, e) in bucket.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((bb, bp)) => {
                        let cur = &self.buckets[bb][bp];
                        (e.time, e.seq) < (cur.time, cur.seq)
                    }
                };
                if better {
                    best = Some((b, pos));
                }
            }
        }
        best.map(|(b, pos)| (b, pos, self.slot_of(self.buckets[b][pos].time), true))
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<EventEntry<T>> {
        self.pop_before(None)
    }

    /// Removes and returns the earliest event if its `(time, seq)` key is
    /// strictly below `bound` (`None`: no bound). Otherwise, or when the
    /// queue is empty, returns `None` and leaves the queue as it was. One
    /// `locate` scan either way, where a `peek_key` then `pop` pays two.
    pub fn pop_before(&mut self, bound: Option<(SimTime, u64)>) -> Option<EventEntry<T>> {
        let (bucket, pos, slot, swept) = self.locate()?;
        if let Some(bound) = bound {
            let head = &self.buckets[bucket][pos];
            if (head.time, head.seq) >= bound {
                return None;
            }
        }
        self.cursor_slot = slot;
        let entry = self.buckets[bucket].swap_remove(pos);
        self.len -= 1;
        let days = self.buckets.len();
        if swept && self.len > 1 {
            // The head the width was derived from has drained and the
            // survivors live beyond a calendar year: re-derive the width
            // from them so the next pops walk days again instead of
            // sweeping. Same O(len) as the sweep just paid, and it
            // converts every following pop back to the cheap path.
            self.rebuild(days);
        } else if days > MIN_BUCKETS && self.len < days / 8 {
            self.rebuild(days / 2);
        }
        Some(entry)
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.locate()
            .map(|(b, pos, _, _)| self.buckets[b][pos].time)
    }

    /// The full `(time, seq)` key of the earliest pending event. Keys are
    /// totally ordered (seq is unique), which is what the cross-shard
    /// barrier compares when deciding how far a shard may advance.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.locate().map(|(b, pos, _, _)| {
            let e = &self.buckets[b][pos];
            (e.time, e.seq)
        })
    }

    /// Internal scan-work counters (see [`QueueCounters`]).
    pub fn counters(&self) -> QueueCounters {
        QueueCounters {
            scanned: self.scanned.get(),
            sweeps: self.sweeps.get(),
            rebuilds: self.rebuilds,
        }
    }

    /// Redistributes every entry over `days` buckets, re-deriving the
    /// bucket width from the observed inter-event spacing (Brown's rule
    /// of thumb: a day should hold a few events on average). The width
    /// comes from the *earliest* [`WIDTH_SAMPLE`] entries: a global
    /// `(max - min) / len` estimate lets one far-future outlier inflate
    /// the width until the whole dense head lands in a single bucket and
    /// every pop degenerates to an O(len) bucket scan.
    fn rebuild(&mut self, days: usize) {
        self.rebuilds += 1;
        let mut all: Vec<EventEntry<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.append(b);
        }
        if all.len() >= 2 {
            let mut times: Vec<f64> = all.iter().map(|e| e.time.as_secs()).collect();
            let k = times.len().min(WIDTH_SAMPLE);
            times.select_nth_unstable_by(k - 1, f64::total_cmp);
            let head = &mut times[..k];
            head.sort_by(f64::total_cmp);
            let head_span = head[k - 1] - head[0];
            if head_span > 0.0 {
                self.width = (2.0 * head_span / k as f64).max(MIN_WIDTH);
            } else {
                // Degenerate head (an equal-time burst): fall back to the
                // global span so the tail still spreads over the year.
                let min_t = times[0];
                let max_t = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if max_t > min_t {
                    self.width = (2.0 * (max_t - min_t) / all.len() as f64).max(MIN_WIDTH);
                }
            }
        }
        if self.buckets.len() != days {
            self.buckets.resize_with(days, Vec::new);
            self.buckets.truncate(days);
        }
        // Width changed, so every slot assignment changes: realign the
        // cursor to the earliest entry's day to restore the invariant.
        if let Some(first) = all.first() {
            let mut min_slot = self.slot_of(first.time);
            for e in &all[1..] {
                min_slot = min_slot.min(self.slot_of(e.time));
            }
            self.cursor_slot = min_slot;
        }
        for e in all {
            let bucket = self.slot_of(e.time).rem_euclid(days as i64) as usize;
            self.buckets[bucket].push(e);
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events. The sequence counter keeps counting, so
    /// FIFO ordering is preserved across a clear.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_secs(2.0), ());
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    /// `pop_before` pops only a head strictly below its bound and leaves
    /// the queue untouched otherwise.
    #[test]
    fn pop_before_stops_at_the_bound() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let head = (SimTime::from_secs(1.0), 0);
        assert!(q.pop_before(Some(head)).is_none(), "the bound is exclusive");
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_before(Some((SimTime::from_secs(1.0), 1)))
                .unwrap()
                .payload,
            "a"
        );
        assert_eq!(q.pop_before(None).unwrap().payload, "b");
        assert!(q.pop_before(None).is_none());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "infinite time")]
    fn rejects_infinite_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, ());
    }

    /// A trivially-correct model: pops the minimum `(time, seq)` pair.
    struct ModelQueue {
        pending: Vec<(SimTime, u64, u64)>,
        next_seq: u64,
    }

    impl ModelQueue {
        fn new() -> Self {
            ModelQueue {
                pending: Vec::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: u64) {
            self.pending.push((time, self.next_seq, payload));
            self.next_seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let best = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s, _))| (t, s))?
                .0;
            let (t, _, p) = self.pending.swap_remove(best);
            Some((t, p))
        }
    }

    /// The seq-counter FIFO contract, differentially: an arbitrary
    /// deterministic push/pop interleaving (duplicate timestamps, pushes
    /// into the past, bursts big enough to force several grows and
    /// shrinks) must match the reference model event for event.
    #[test]
    fn fifo_contract_matches_reference_model() {
        let mut rng = crate::Rng::new(0x5EC_C0FFEE);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::new();
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
                let got = q.pop().map(|e| (e.time, e.payload));
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
            assert_eq!(Some((e.time, e.payload)), model.pop());
        }
        assert!(model.pop().is_none());
    }

    /// FIFO among equal timestamps survives internal resizes: a burst of
    /// 1000 same-time events forces several bucket-doubling rebuilds on
    /// the way in and halving rebuilds on the way out, none of which may
    /// reorder the tie-broken sequence.
    #[test]
    fn fifo_contract_survives_resizes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7.25);
        for i in 0..1000u32 {
            q.push(t, i);
        }
        // Interleave a distinct earlier and later event to exercise the
        // cursor across the burst.
        q.push(SimTime::from_secs(1.0), u32::MAX);
        q.push(SimTime::from_secs(90.0), u32::MAX - 1);
        assert_eq!(q.pop().unwrap().payload, u32::MAX);
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().payload, i, "tie order broken at {i}");
        }
        assert_eq!(q.pop().unwrap().payload, u32::MAX - 1);
        assert!(q.is_empty());
    }

    /// Far-future outliers (beyond one calendar year from the cursor)
    /// exercise the direct-sweep fallback and still pop in key order.
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

    /// The pathological alternating-spacing workload: a dense head of
    /// closely-spaced events interleaved with far-future outliers. Before
    /// the head-sampled width derivation, every rebuild set
    /// `width ≈ 2·(max−min)/len`, which the outliers inflated until the
    /// whole head hashed into a single bucket — every pop then scanned
    /// O(len) entries. This pins the amortized scan cost.
    #[test]
    fn alternating_spacing_stays_amortized() {
        let mut q = EventQueue::new();
        let mut ops = 0u64;
        // Dense head: 1 s spacing. Outliers: ~30 years out, one per 40
        // near events, far enough that the head's year never reaches
        // them.
        for i in 0..4000u64 {
            q.push(SimTime::from_secs(i as f64), i);
            ops += 1;
            if i % 40 == 0 {
                q.push(SimTime::from_secs(1e9 + i as f64), i);
                ops += 1;
            }
        }
        let mut last = (SimTime::ZERO, 0);
        while let Some(e) = q.pop() {
            ops += 1;
            assert!((e.time, e.seq) >= last, "order violated");
            last = (e.time, e.seq);
        }
        let c = q.counters();
        assert!(
            c.scanned < 64 * ops,
            "amortized scan cost blew up: {} entries examined over {ops} ops ({c:?})",
            c.scanned
        );
        // Rebuilds stay logarithmic-ish in the population, not per-op.
        assert!(c.rebuilds < 64, "resize thrash: {c:?}");
    }

    /// A sparse far-future tail (the sweep fallback) must re-center
    /// instead of sweeping once per pop: total sweeps stay O(1)-ish even
    /// with hundreds of events spread over decades.
    #[test]
    fn far_future_tail_does_not_sweep_per_pop() {
        let mut q = EventQueue::new();
        // Dense head that fixes a ~seconds-scale width...
        for i in 0..500u64 {
            q.push(SimTime::from_secs(i as f64 * 0.25), i);
        }
        // ...and a tail of 400 events spread over ~12 years.
        for i in 0..400u64 {
            q.push(SimTime::from_secs(1e6 + i as f64 * 1e3), 1000 + i);
        }
        let mut n = 0;
        let mut last = (SimTime::ZERO, 0);
        while let Some(e) = q.pop() {
            assert!((e.time, e.seq) >= last);
            last = (e.time, e.seq);
            n += 1;
        }
        assert_eq!(n, 900);
        let c = q.counters();
        assert!(
            c.sweeps <= 4,
            "far-future tail swept {} times over 900 pops ({c:?})",
            c.sweeps
        );
    }

    /// Hysteresis: a push/pop workload hovering exactly at the growth
    /// threshold must not rebuild on every oscillation.
    #[test]
    fn resize_hysteresis_under_alternating_push_pop() {
        let mut q = EventQueue::new();
        // Fill to just past a growth trigger so `days` settles.
        for i in 0..1025u64 {
            q.push(SimTime::from_secs(i as f64), i);
        }
        let base = q.counters().rebuilds;
        // Alternate push/pop right at the settled size for many rounds.
        for i in 0..2000u64 {
            q.push(SimTime::from_secs(2000.0 + i as f64), i);
            q.pop();
        }
        let c = q.counters();
        assert!(
            c.rebuilds - base <= 2,
            "alternating push/pop rebuilt {} times ({c:?})",
            c.rebuilds - base
        );
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
