//! The discrete-event queue.
//!
//! Events are ordered by `(time, class, sequence)`. The *class* encodes
//! the deterministic priority the historical preloaded-heap design gave
//! each event source at equal timestamps — workload arrivals (by
//! arrival index) before scripted churn (by plan index) before
//! dynamically scheduled events (by insertion order). Deriving the
//! tie-break from the event itself, rather than from global insertion
//! order, is what lets the platform push arrivals one at a time from a
//! lazy [`ArrivalStream`](esg_workload::ArrivalStream) and still
//! replay the materialised runs bit for bit.

use esg_model::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// An application invocation arrives (index into the workload).
    Arrival(usize),
    /// The controller performs its next scheduling step.
    ControllerStep,
    /// A task finished its pre-execution phase (cold start + input
    /// transfer) and wants to attach resources and run (task id).
    ExecReady(u64),
    /// A data-plane transfer's planned finish fires (task id): the flow
    /// completes and the task runs its exec-ready path. A task has at
    /// most one pending `TransferDue`; a re-plan moves it in place.
    TransferDue(u64),
    /// A running task completes (task id).
    TaskComplete(u64),
    /// A pre-warm timer fires for `(node, function)`.
    Prewarm(u32, u32),
    /// A scripted cluster-membership change fires (index into the run's
    /// `ChurnPlan`).
    Churn(usize),
}

/// A time-ordered event queue with deterministic tie-breaking. Entries
/// sort on one packed key, `time << 64 | class << 62 | index`, so a
/// comparison is a single integer compare; pop order is exactly `(time,
/// class, sequence)`.
///
/// Four structures hold the pending events:
///
/// * a binary min-heap, O(log n) push/pop, for everything else scheduled
///   ahead of the clock and for every arrival and churn event;
/// * a FIFO *lane* for dynamic (class-2) events pushed at the instant of
///   the last pop — controller wake-ups and pre-warm timers that fire
///   "now". Such keys carry the current time and a fresh sequence
///   number, so each is larger than the one before and the lane stays
///   sorted without comparisons; push and pop are O(1);
/// * an indexed *due-heap* of data-plane transfer finishes, one entry
///   per task with a [`TransferDue`](Event::TransferDue) pending. A
///   re-plan pushes the task's new finish and the entry moves in place
///   (O(log n)), so the queue never holds a superseded finish;
/// * a *wake-heap* of the bare keys of the
///   [`ControllerStep`](Event::ControllerStep)s scheduled ahead of the
///   clock (busy, defer and hold expiries, park retries): a handful of
///   16-byte keys, so the frequent wake-ups, most of which find nothing
///   to decide, stay off the large main heap.
///
/// Every push, a move included, draws its sequence number at the same
/// point, so the keys — and the pop order — are those a single heap
/// would give if each re-plan pushed a fresh event and superseded ones
/// were skipped on pop. [`pop`](Self::pop) takes the smallest of the
/// four fronts. Arrivals and churn always go to the heap: their rank is
/// an index, not a sequence number, so a same-instant one may sort
/// before lane entries already queued.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    lane: VecDeque<Entry>,
    due: DueHeap,
    wake: BinaryHeap<Reverse<u128>>,
    /// Time of the last popped event (zero before the first pop).
    now: u64,
    next_seq: u64,
    peak_len: usize,
}

/// A queued event under its packed sort key. Keys are unique, so the
/// event itself is never compared.
type Entry = (u128, Event);

// A 16-byte `Event` keeps each queued entry at 32 bytes.
const _: () = assert!(std::mem::size_of::<Entry>() == 32);

/// Bit offset of the class in the packed rank.
const CLASS_SHIFT: u32 = 62;

/// The rank class of dynamically scheduled events (the lane's only
/// tenants).
const DYNAMIC: u64 = 2;

/// The structure holding the earliest pending event.
#[derive(Clone, Copy)]
enum Front {
    Lane,
    Heap,
    Due,
    Wake,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The deterministic tie-break rank of `event` at equal timestamps,
    /// packed as `class << 62 | index`: arrivals by index, churn by plan
    /// index, everything else in insertion order.
    fn rank(&mut self, event: &Event) -> u64 {
        let (class, index) = match *event {
            Event::Arrival(i) => (0, i as u64),
            Event::Churn(i) => (1, i as u64),
            _ => {
                let s = self.next_seq;
                self.next_seq += 1;
                (DYNAMIC, s)
            }
        };
        debug_assert!(index < 1 << CLASS_SHIFT, "event index overflows its rank");
        class << CLASS_SHIFT | index
    }

    /// Schedules `event` at `at`, which must not precede the last popped
    /// event (a discrete-event simulation never schedules into the past;
    /// the lane's ordering relies on it). A `TransferDue` for a task that
    /// already has one pending replaces it: the re-planned finish.
    pub fn push(&mut self, at: SimTime, event: Event) {
        debug_assert!(at.0 >= self.now, "event scheduled before the last pop");
        let rank = self.rank(&event);
        let key = (at.0 as u128) << 64 | rank as u128;
        if let Event::TransferDue(task) = event {
            self.due.set(key, task);
        } else if at.0 == self.now && rank >> CLASS_SHIFT == DYNAMIC {
            self.lane.push_back((key, event));
        } else if event == Event::ControllerStep {
            self.wake.push(Reverse(key));
        } else {
            self.heap.push(Reverse((key, event)));
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// The key of the earliest pending event and the structure holding it.
    /// An empty structure reads as `u128::MAX`, which no key reaches (the
    /// class field never holds 3).
    fn front(&self) -> Option<(u128, Front)> {
        let mut front = (
            self.heap.peek().map_or(u128::MAX, |&Reverse((key, _))| key),
            Front::Heap,
        );
        for (key, at) in [
            (self.lane.front().map(|&(key, _)| key), Front::Lane),
            (self.due.peek().map(|(key, _)| key), Front::Due),
            (self.wake.peek().map(|&Reverse(key)| key), Front::Wake),
        ] {
            if let Some(key) = key.filter(|&key| key < front.0) {
                front = (key, at);
            }
        }
        (front.0 != u128::MAX).then_some(front)
    }

    /// Pops the earliest event, ties broken by `(class, sequence)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (key, ev) = match self.front()?.1 {
            Front::Lane => self.lane.pop_front()?,
            Front::Heap => self.heap.pop()?.0,
            Front::Due => {
                let (key, task) = self.due.pop()?;
                (key, Event::TransferDue(task))
            }
            Front::Wake => (self.wake.pop()?.0, Event::ControllerStep),
        };
        self.now = (key >> 64) as u64;
        Some((SimTime(self.now), ev))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + self.due.heap.len() + self.wake.len()
    }

    /// High-water mark of pending events over the queue's lifetime.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|(key, _)| SimTime((key >> 64) as u64))
    }

    /// The pending transfer finishes as `(time, task)`, in no particular
    /// order.
    #[cfg(test)]
    pub(crate) fn pending_dues(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.due
            .heap
            .iter()
            .map(|&(key, task)| (SimTime((key >> 64) as u64), task))
    }
}

/// An indexed binary min-heap of `(key, task)`, at most one entry per
/// task. Both vectors start empty and grow on the first transfer, so a
/// run without a data plane never allocates them.
#[derive(Debug, Default)]
struct DueHeap {
    heap: Vec<(u128, u64)>,
    /// `pos[task]` is the task's heap index plus one, or 0 when it has no
    /// entry.
    pos: Vec<u32>,
}

impl DueHeap {
    fn peek(&self) -> Option<(u128, u64)> {
        self.heap.first().copied()
    }

    /// Inserts `task` under `key`, or moves its entry there.
    fn set(&mut self, key: u128, task: u64) {
        let t = task as usize;
        if self.pos.len() <= t {
            self.pos.resize(t + 1, 0);
        }
        match self.pos[t] {
            0 => {
                self.heap.push((key, task));
                self.sift_up(self.heap.len() - 1);
            }
            p => {
                let i = p as usize - 1;
                let old = std::mem::replace(&mut self.heap[i].0, key);
                if key < old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    fn pop(&mut self) -> Option<(u128, u64)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        self.pos[top.1 as usize] = 0;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(top)
    }

    /// Writes `entry` at heap index `i` and records its position.
    fn place(&mut self, i: usize, entry: (u128, u64)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32 + 1;
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let child = if left + 1 < n && self.heap[left + 1].0 < self.heap[left].0 {
                left + 1
            } else {
                left
            };
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(5.0), Event::ControllerStep);
        q.push(SimTime::from_ms(1.0), Event::Arrival(0));
        q.push(SimTime::from_ms(3.0), Event::TaskComplete(7));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1.0)));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::Arrival(0),
                Event::TaskComplete(7),
                Event::ControllerStep
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn ties_break_by_class_then_index() {
        // At equal times: arrivals pop by arrival index (the order the
        // historical preloaded heap gave them), churn next, dynamic
        // events last in insertion order — regardless of push order.
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(2.0);
        q.push(t, Event::ControllerStep);
        q.push(t, Event::Arrival(3));
        q.push(t, Event::Churn(0));
        q.push(t, Event::Arrival(1));
        q.push(t, Event::Arrival(2));
        q.push(t, Event::Prewarm(9, 9));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::Arrival(1),
                Event::Arrival(2),
                Event::Arrival(3),
                Event::Churn(0),
                Event::ControllerStep,
                Event::Prewarm(9, 9),
            ]
        );
    }

    #[test]
    fn empty_queue() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    /// Random interleaved push/pop against a model of the queue without a
    /// due-heap: one tuple-keyed heap where every `TransferDue` push is a
    /// fresh entry under a per-task generation, and superseded ones are
    /// skipped on pop. The pop sequences must match event for event, and
    /// `len`, `peek_time` and `peak_len` must match the model's live
    /// events. Half the pushes land at the current instant (the lane's
    /// tenants when dynamic), and bursts put same-instant arrivals, churn
    /// and transfer finishes between same-instant dynamic events. A
    /// transfer finish pushed for a task with one pending moves it
    /// earlier, later or onto the current instant. Controller wake-ups
    /// land both ahead of the clock (the wake-heap) and at the current
    /// instant (the lane), and bursts ahead of the clock put them between
    /// same-instant arrivals, churn, transfer finishes and task
    /// completions. Even seeds start at time zero, so pushes made before
    /// the first pop share the lane's instant too.
    #[test]
    fn matches_a_reference_heap_under_random_interleavings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        type Model = BinaryHeap<Reverse<(SimTime, (u8, u64), Event, u64)>>;
        const TASKS: usize = 9;
        // Drops superseded transfer finishes from the model's top, so its
        // top is the earliest live event.
        fn purge(model: &mut Model, gens: &[Option<u64>; TASKS]) {
            while let Some(&Reverse((_, _, Event::TransferDue(t), g))) = model.peek() {
                if gens[t as usize] == Some(g) {
                    break;
                }
                model.pop();
            }
        }
        // Same-instant arrivals and churn pushed while the lane holds
        // entries, pushes into the lane before any pop, and due inserts
        // and moves (earlier, later, and onto the current instant while
        // the lane holds entries).
        let (mut between, mut before_first_pop) = (0usize, 0usize);
        let (mut inserts, mut earlier, mut later, mut beside_lane) = (0usize, 0, 0, 0);
        // Wake-ups pushed ahead of the clock and at the current instant,
        // arrivals, churn and transfer finishes pushed at the instant of a
        // pending wake-up ahead of the clock, and wake-ups popped at the
        // instant of the previous pop, of another kind of event.
        let (mut wake_ahead, mut wake_now, mut beside_wake, mut wake_tied) = (0usize, 0, 0, 0);
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::new();
            // The live generation of each task's transfer finish, and the
            // time it is due.
            let mut gens: [Option<u64>; TASKS] = [None; TASKS];
            let mut due_at = [SimTime::ZERO; TASKS];
            let (mut model_seq, mut model_live, mut model_peak) = (0u64, 0usize, 0usize);
            let (mut next_arrival, mut next_churn) = (0usize, 0usize);
            // Odd seeds start late, which exercises the high half of the
            // packed key.
            let mut now = if seed % 2 == 0 {
                SimTime::ZERO
            } else {
                SimTime(rng.random_range(0..1u64 << 50))
            };
            let mut popped = 0usize;
            let mut last_pop: Option<(SimTime, Event)> = None;
            let mut batch: Vec<(SimTime, Event)> = Vec::new();
            for _ in 0..400 {
                if rng.random_bool(0.55) || model_live == 0 {
                    batch.clear();
                    let task = rng.random_range(0..TASKS as u64);
                    let burst = rng.random_range(0..10u32);
                    if burst == 0 {
                        // A same-instant burst: dynamic events with an
                        // arrival, a churn event and a transfer finish
                        // pushed between them.
                        batch.extend([
                            (now, Event::ControllerStep),
                            (now, Event::Arrival(usize::MAX)),
                            (now, Event::TransferDue(task)),
                            (now, Event::Prewarm(0, 1)),
                            (now, Event::Churn(usize::MAX)),
                            (now, Event::TaskComplete(3)),
                        ]);
                    } else if burst == 1 {
                        // The same ahead of the clock: wake-ups between
                        // an arrival, churn, a transfer finish and a task
                        // completion due at one future instant.
                        let at = SimTime(now.0 + rng.random_range(1..4u64));
                        batch.extend([
                            (at, Event::ControllerStep),
                            (at, Event::Arrival(usize::MAX)),
                            (at, Event::ControllerStep),
                            (at, Event::TransferDue(task)),
                            (at, Event::Churn(usize::MAX)),
                            (at, Event::ControllerStep),
                            (at, Event::TaskComplete(5)),
                        ]);
                    } else {
                        // Half at the current instant, the rest in the
                        // near future (so equal timestamps recur).
                        let at = if rng.random_bool(0.5) {
                            now
                        } else {
                            SimTime(now.0 + rng.random_range(1..6u64))
                        };
                        let event = match rng.random_range(0..7u32) {
                            0 => Event::Arrival(usize::MAX),
                            1 => Event::Churn(usize::MAX),
                            2 => Event::ControllerStep,
                            3 => Event::TaskComplete(task),
                            4 | 5 => Event::TransferDue(task),
                            _ => Event::Prewarm(1, rng.random_range(0..3u32)),
                        };
                        batch.push((at, event));
                    }
                    for &(at, event) in &batch {
                        // Arrival and churn indices are handed out in
                        // push order, as the platform does.
                        let event = match event {
                            Event::Arrival(_) => {
                                next_arrival += 1;
                                Event::Arrival(next_arrival - 1)
                            }
                            Event::Churn(_) => {
                                next_churn += 1;
                                Event::Churn(next_churn - 1)
                            }
                            e => e,
                        };
                        let rank = match event {
                            Event::Arrival(i) => (0, i as u64),
                            Event::Churn(i) => (1, i as u64),
                            _ => {
                                model_seq += 1;
                                (2, model_seq - 1)
                            }
                        };
                        if rank.0 < 2 && at == now && !q.lane.is_empty() {
                            between += 1;
                        }
                        match event {
                            Event::ControllerStep if at > now => wake_ahead += 1,
                            Event::ControllerStep => wake_now += 1,
                            Event::Arrival(_) | Event::Churn(_) | Event::TransferDue(_)
                                if q.wake.iter().any(|&Reverse(k)| (k >> 64) as u64 == at.0) =>
                            {
                                beside_wake += 1
                            }
                            _ => {}
                        }
                        let mut gen = 0;
                        if let Event::TransferDue(t) = event {
                            let t = t as usize;
                            match gens[t] {
                                None => {
                                    inserts += 1;
                                    model_live += 1;
                                }
                                Some(_) if at < due_at[t] => earlier += 1,
                                Some(_) => later += 1,
                            }
                            if gens[t].is_some() && at == now && !q.lane.is_empty() {
                                beside_lane += 1;
                            }
                            // The push sequence number doubles as a
                            // generation no earlier push of the task had.
                            gen = rank.1;
                            gens[t] = Some(gen);
                            due_at[t] = at;
                        } else {
                            model_live += 1;
                        }
                        let lane_len = q.lane.len();
                        q.push(at, event);
                        if popped == 0 && q.lane.len() > lane_len {
                            before_first_pop += 1;
                        }
                        model.push(Reverse((at, rank, event, gen)));
                        model_peak = model_peak.max(model_live);
                    }
                } else {
                    let Reverse((at, _, event, _)) = model.pop().expect("a live event");
                    if let Event::TransferDue(t) = event {
                        gens[t as usize] = None;
                    }
                    model_live -= 1;
                    assert_eq!(q.pop(), Some((at, event)), "seed {seed} pop {popped}");
                    if event == Event::ControllerStep
                        && last_pop.is_some_and(|(t, e)| t == at && e != event)
                    {
                        wake_tied += 1;
                    }
                    last_pop = Some((at, event));
                    now = at;
                    popped += 1;
                }
                purge(&mut model, &gens);
                assert_eq!(q.len(), model_live);
                assert_eq!(q.peek_time(), model.peek().map(|Reverse((t, ..))| *t));
                assert_eq!(q.peak_len(), model_peak, "seed {seed}");
                let mut dues: Vec<(SimTime, u64)> = q.pending_dues().collect();
                dues.sort_unstable_by_key(|&(_, t)| t);
                let live: Vec<(SimTime, u64)> = (0..TASKS)
                    .filter(|&t| gens[t].is_some())
                    .map(|t| (due_at[t], t as u64))
                    .collect();
                assert_eq!(dues, live, "seed {seed}");
            }
            while let Some(Reverse((at, _, event, _))) = model.pop() {
                if let Event::TransferDue(t) = event {
                    gens[t as usize] = None;
                }
                assert_eq!(q.pop(), Some((at, event)), "seed {seed} drain");
                purge(&mut model, &gens);
            }
            assert!(q.is_empty() && q.pop().is_none());
            assert_eq!(q.peak_len(), model_peak);
        }
        assert!(
            between > 0 && before_first_pop > 0,
            "{between} {before_first_pop}"
        );
        assert!(
            inserts > 0 && earlier > 0 && later > 0 && beside_lane > 0,
            "{inserts} {earlier} {later} {beside_lane}"
        );
        assert!(
            wake_ahead > 0 && wake_now > 0 && beside_wake > 0 && wake_tied > 0,
            "{wake_ahead} {wake_now} {beside_wake} {wake_tied}"
        );
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(10.0), Event::ControllerStep);
        q.push(SimTime::from_ms(1.0), Event::Arrival(0));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::Arrival(0)));
        q.push(SimTime::from_ms(4.0), Event::Prewarm(1, 2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::Prewarm(1, 2)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::ControllerStep));
        assert!(q.pop().is_none());
    }
}
