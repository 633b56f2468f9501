//! Per-shard event queues under a conservative lower-bound-timestamp
//! barrier.
//!
//! A [`ShardedQueue`] partitions pending events over `n` calendar queues
//! (one per shard) while preserving the *global* `(time, seq)` total
//! order of a single [`EventQueue`]: sequence numbers are allocated from
//! one shared counter, so the merged pop order is a pure function of the
//! push order, exactly as in the single-queue contract.
//!
//! Execution alternates **barriers** and **runs**, the classic
//! conservative (lower-bound-timestamp) synchronization of parallel
//! discrete-event simulation, multiplexed deterministically on one
//! thread:
//!
//! 1. **Barrier** — [`ShardedQueue::begin_run`] picks the shard owning
//!    the globally-earliest key and computes its *horizon*: the minimum
//!    key pending on any *other* shard. The returned [`RunToken`] is the
//!    typestate witness of the active run.
//! 2. **Run** — [`ShardedQueue::pop_run`] drains the active shard while
//!    its head key stays below the horizon. Every event the run pushes
//!    onto a *foreign* shard (a cross-shard message) lowers the horizon,
//!    so the run can never overtake causality it just created.
//! 3. When the active shard's head reaches the horizon the run ends
//!    ([`ShardedQueue::end_run`] consumes the token) and the next
//!    barrier re-elects.
//!
//! **Observation points.** [`ShardedQueue::run_head`],
//! [`ShardedQueue::run_horizon`], [`ShardedQueue::shard_len`], and
//! [`ShardedQueue::len`] are O(1) reads with no effect on queue state;
//! they exist so election snapshots (the run summaries probes receive)
//! can observe barriers without perturbing them.
//!
//! Because the horizon comparison uses the full `(time, seq)` key —
//! unique and totally ordered — the interleaving produced by any shard
//! count is *identical* to the single-queue pop order. Shard count
//! changes batching and accounting, never outcomes. The
//! `barrier_matches_single_queue` test pins this differentially, and
//! `barrier_model_exhaustive` walks every small push pattern, which is
//! what makes the single-thread-multiplexed barrier checkable without a
//! thread sanitizer: there is no interleaving nondeterminism left to
//! sample.

use crate::event::{EventEntry, EventQueue};
use crate::time::SimTime;

/// Proof that a run is active: returned by [`ShardedQueue::begin_run`],
/// required by [`ShardedQueue::pop_run`], consumed by
/// [`ShardedQueue::end_run`]. The begin/pop/end protocol is a typestate —
/// popping outside a run is a compile error, not a runtime panic — and
/// the token is deliberately neither `Clone` nor `Copy`, so exactly one
/// run can hold it.
#[derive(Debug)]
pub struct RunToken {
    shard: usize,
}

impl RunToken {
    /// The shard this run drains.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// A set of per-shard event queues sharing one sequence-number namespace
/// and coordinated by a conservative barrier. See the module docs.
#[derive(Clone, Debug)]
pub struct ShardedQueue<T> {
    shards: Vec<EventQueue<T>>,
    next_seq: u64,
    len: usize,
    /// The shard a run is currently draining, if any.
    active: Option<usize>,
    /// The run's incoming cross-shard horizon: the minimum `(time, seq)`
    /// key the *other* shards hold, tightened by every foreign push the
    /// run performs. `None` means unbounded (no other shard has work).
    horizon: Option<(SimTime, u64)>,
}

impl<T> ShardedQueue<T> {
    /// Creates `n_shards` empty queues (at least one), each with room
    /// for `cap` events.
    pub fn new(n_shards: usize, cap: usize) -> Self {
        let n = n_shards.max(1);
        ShardedQueue {
            shards: (0..n).map(|_| EventQueue::with_capacity(cap / n)).collect(),
            next_seq: 0,
            len: 0,
            active: None,
            horizon: None,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total pending events across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending on any shard.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at `time` on `shard`. The sequence number
    /// comes from the shared counter, so pushes order FIFO across shards
    /// exactly as they would in one queue. During a run, a push onto a
    /// foreign shard tightens the active shard's horizon (it is an
    /// incoming cross-shard message for its target).
    pub fn push(&mut self, shard: usize, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[shard].push_with_seq(time, seq, payload);
        self.len += 1;
        if let Some(active) = self.active {
            if shard != active {
                let key = (time, seq);
                if self.horizon.is_none_or(|h| key < h) {
                    self.horizon = Some(key);
                }
            }
        }
    }

    /// Barrier: elects the shard owning the globally-minimal `(time,
    /// seq)` key, records the other shards' minimum as the run horizon,
    /// and returns the run's [`RunToken`]. `None` when every shard is
    /// empty.
    pub fn begin_run(&mut self) -> Option<RunToken> {
        debug_assert!(self.active.is_none(), "begin_run while a run is active");
        let mut best: Option<(usize, (SimTime, u64))> = None;
        let mut second: Option<(SimTime, u64)> = None;
        for (i, q) in self.shards.iter().enumerate() {
            let Some(key) = q.peek_key() else { continue };
            match best {
                None => best = Some((i, key)),
                Some((_, bk)) if key < bk => {
                    second = Some(bk);
                    best = Some((i, key));
                }
                _ => {
                    if second.is_none_or(|s| key < s) {
                        second = Some(key);
                    }
                }
            }
        }
        let (shard, _) = best?;
        self.active = Some(shard);
        self.horizon = second;
        Some(RunToken { shard })
    }

    /// Pops the active shard's next event while it stays strictly below
    /// the run horizon. Returns `None` when the shard drains or its head
    /// reaches the horizon — time for the next barrier. The token
    /// witnesses that a run is active, so there is no runtime state to
    /// misuse.
    pub fn pop_run(&mut self, token: &RunToken) -> Option<EventEntry<T>> {
        debug_assert_eq!(self.active, Some(token.shard), "stale run token");
        let entry = self.shards[token.shard].pop_before(self.horizon)?;
        self.len -= 1;
        Some(entry)
    }

    /// Ends the run, consuming its token.
    pub fn end_run(&mut self, token: RunToken) {
        debug_assert_eq!(self.active, Some(token.shard), "stale run token");
        self.active = None;
        self.horizon = None;
    }

    /// The `(time, seq)` key at the head of the active shard, or `None`
    /// when no run is active or the shard has drained. Observational:
    /// barrier instrumentation reads it to timestamp a run's election.
    pub fn run_head(&self) -> Option<(SimTime, u64)> {
        self.shards[self.active?].peek_key()
    }

    /// The current run's horizon key — the earliest work pending on any
    /// *other* shard, as tightened by foreign pushes. `None` when no run
    /// is active or the run is unbounded (no other shard has work).
    pub fn run_horizon(&self) -> Option<(SimTime, u64)> {
        self.active?;
        self.horizon
    }

    /// Pending events on one shard. Observational: a run that ends with
    /// its shard non-empty stalled at the barrier horizon rather than
    /// draining.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// Aggregated internal scan counters across all shard queues.
    pub fn counters(&self) -> crate::event::QueueCounters {
        let mut total = crate::event::QueueCounters::default();
        for q in &self.shards {
            let c = q.counters();
            total.scanned += c.scanned;
            total.sweeps += c.sweeps;
            total.rebuilds += c.rebuilds;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Drains a sharded queue barrier-by-barrier, recording
    /// `(shard, time, seq, payload)` and pushing follow-up events the
    /// way a simulation handler would.
    fn drain<F>(mut q: ShardedQueue<u64>, mut follow_up: F) -> Vec<(SimTime, u64, u64)>
    where
        F: FnMut(&mut ShardedQueue<u64>, &EventEntry<u64>),
    {
        let mut order = Vec::new();
        while let Some(token) = q.begin_run() {
            while let Some(e) = q.pop_run(&token) {
                order.push((e.time, e.seq, e.payload));
                follow_up(&mut q, &e);
            }
            q.end_run(token);
        }
        order
    }

    /// The barrier protocol must reproduce the single-queue pop order for
    /// every shard count, including when handlers push new (possibly
    /// cross-shard, possibly same-time) events mid-run.
    #[test]
    fn barrier_matches_single_queue() {
        for n_shards in [1usize, 2, 3, 4, 7] {
            let mut rng = Rng::new(0xBA221E12 + n_shards as u64);
            // Seed both with an identical push sequence.
            let mut single = EventQueue::new();
            let mut sharded = ShardedQueue::new(n_shards, 64);
            let mut payload = 0u64;
            for _ in 0..200 {
                let t = SimTime::from_secs((rng.range_f64(0.0, 40.0) * 2.0).floor() / 2.0);
                single.push(t, payload);
                sharded.push(payload as usize % n_shards, t, payload);
                payload += 1;
            }
            // Reference order: plain pops, plus the same deterministic
            // follow-up rule the sharded side uses (every 5th event
            // schedules one future event on a rotated shard).
            let mut expect = Vec::new();
            while let Some(e) = single.pop() {
                expect.push((e.time, e.seq, e.payload));
                if e.payload % 5 == 0 && payload < 400 {
                    single.push(e.time + 1.5, payload);
                    payload += 1;
                }
            }
            let mut payload2 = 200u64;
            let got = drain(sharded, |q, e| {
                if e.payload % 5 == 0 && payload2 < 400 {
                    q.push(payload2 as usize % n_shards, e.time + 1.5, payload2);
                    payload2 += 1;
                }
            });
            assert_eq!(got, expect, "shard count {n_shards} reordered events");
        }
    }

    /// Exhaustive model check over every assignment of 6 timestamped
    /// events to 2 shards (all 64 patterns × a handful of time shapes):
    /// the multiplexed barrier has no hidden interleavings, so walking
    /// the full assignment space is a complete proof for this size.
    #[test]
    fn barrier_model_exhaustive() {
        let time_shapes: [[f64; 6]; 4] = [
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
            [3.0, 1.0, 2.0, 1.0, 3.0, 2.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        for times in &time_shapes {
            // Reference order from the single queue.
            let mut single = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                single.push(SimTime::from_secs(t), i as u64);
            }
            let mut expect = Vec::new();
            while let Some(e) = single.pop() {
                expect.push((e.time, e.seq, e.payload));
            }
            for mask in 0u32..64 {
                let mut q = ShardedQueue::new(2, 8);
                for (i, &t) in times.iter().enumerate() {
                    q.push(((mask >> i) & 1) as usize, SimTime::from_secs(t), i as u64);
                }
                let got = drain(q, |_, _| {});
                assert_eq!(got, expect, "times {times:?} mask {mask:06b}");
            }
        }
    }

    /// A run pop locates the head once. Draining one push sequence
    /// (follow-up pushes included) through a one-shard queue scans
    /// exactly the entries the plain queue's pops scan, plus the entries
    /// the elections peek at.
    #[test]
    fn pop_run_locates_each_head_once() {
        let mut rng = Rng::new(0x10CA7E);
        let mut plain = EventQueue::with_capacity(64);
        let mut sharded = ShardedQueue::new(1, 64);
        for i in 0..300u64 {
            let t = SimTime::from_secs((rng.range_f64(0.0, 60.0) * 4.0).floor() / 4.0);
            plain.push(t, i);
            sharded.push(0, t, i);
        }
        // Every third event schedules one more, as a handler would.
        let follow_up = |e: &EventEntry<u64>| e.payload.is_multiple_of(3).then(|| e.time + 0.75);
        let mut expect = Vec::new();
        while let Some(e) = plain.pop() {
            if let Some(t) = follow_up(&e) {
                plain.push(t, e.payload + 1000);
            }
            expect.push((e.time, e.seq, e.payload));
        }
        let mut got = Vec::new();
        let mut peeked = 0;
        loop {
            let before = sharded.counters().scanned;
            let token = sharded.begin_run();
            peeked += sharded.counters().scanned - before;
            let Some(token) = token else { break };
            while let Some(e) = sharded.pop_run(&token) {
                if let Some(t) = follow_up(&e) {
                    sharded.push(0, t, e.payload + 1000);
                }
                got.push((e.time, e.seq, e.payload));
            }
            sharded.end_run(token);
        }
        assert_eq!(got, expect);
        assert!(peeked > 0);
        assert_eq!(
            sharded.counters().scanned,
            plain.counters().scanned + peeked,
            "a run pop scanned more than one locate"
        );
    }

    /// A run must stop at causality it creates: pushing an earlier
    /// cross-shard event mid-run tightens the horizon so the foreign
    /// shard gets elected before the active shard's later events.
    #[test]
    fn foreign_push_tightens_horizon() {
        let mut q = ShardedQueue::new(2, 8);
        q.push(0, SimTime::from_secs(1.0), 1);
        q.push(0, SimTime::from_secs(5.0), 5);
        let t = q.begin_run().unwrap();
        assert_eq!(t.shard(), 0);
        let first = q.pop_run(&t).unwrap();
        assert_eq!(first.payload, 1);
        // Handler effect: schedule work on shard 1 at t=3, before the
        // active shard's next event at t=5.
        q.push(1, SimTime::from_secs(3.0), 3);
        assert!(q.pop_run(&t).is_none(), "run must stop at the new horizon");
        q.end_run(t);
        let t = q.begin_run().unwrap();
        assert_eq!(t.shard(), 1);
        assert_eq!(q.pop_run(&t).unwrap().payload, 3);
        q.end_run(t);
        let t = q.begin_run().unwrap();
        assert_eq!(t.shard(), 0);
        assert_eq!(q.pop_run(&t).unwrap().payload, 5);
    }

    /// The observational accessors expose the elected head, the horizon,
    /// and per-shard backlogs without perturbing the run protocol.
    #[test]
    fn run_accessors_are_observational() {
        let mut q = ShardedQueue::new(2, 8);
        assert_eq!(q.run_head(), None, "no run active yet");
        assert_eq!(q.run_horizon(), None);
        q.push(0, SimTime::from_secs(1.0), 1);
        q.push(1, SimTime::from_secs(4.0), 4);
        let t = q.begin_run().unwrap();
        assert_eq!(t.shard(), 0);
        assert_eq!(q.run_head(), Some((SimTime::from_secs(1.0), 0)));
        assert_eq!(q.run_horizon(), Some((SimTime::from_secs(4.0), 1)));
        assert_eq!(q.shard_len(0), 1);
        assert_eq!(q.shard_len(1), 1);
        // Foreign push tightens the reported horizon too.
        q.push(1, SimTime::from_secs(2.0), 2);
        assert_eq!(q.run_horizon(), Some((SimTime::from_secs(2.0), 2)));
        q.pop_run(&t).unwrap();
        assert_eq!(q.run_head(), None, "active shard drained");
        assert_eq!(q.shard_len(0), 0);
        q.end_run(t);
        assert_eq!(q.run_head(), None, "accessors reset after end_run");
        assert_eq!(q.run_horizon(), None);
    }

    /// With one shard the barrier is vacuous: a single run drains the
    /// whole queue (the `shards = 1` fast path must not pay extra
    /// barriers).
    #[test]
    fn single_shard_drains_in_one_run() {
        let mut q = ShardedQueue::new(1, 8);
        for i in 0..50u64 {
            q.push(0, SimTime::from_secs((i % 10) as f64), i);
        }
        let t = q.begin_run().unwrap();
        assert_eq!(t.shard(), 0);
        let mut n = 0;
        while let Some(e) = q.pop_run(&t) {
            n += 1;
            // Same-time pushes mid-run stay in the same run.
            if e.payload == 7 {
                q.push(0, e.time, 1000);
            }
        }
        q.end_run(t);
        assert_eq!(n, 51);
        assert!(q.is_empty());
        assert!(q.begin_run().is_none());
    }
}
