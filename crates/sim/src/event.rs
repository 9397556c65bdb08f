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
    /// A data-plane transfer's planned finish fires (task id, plan
    /// generation). Stale generations — the flow was re-planned after
    /// this event was scheduled — are skipped on pop; a current one
    /// completes the transfer and runs the task's exec-ready path.
    TransferDue(u64, u64),
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
/// Two structures hold the pending events:
///
/// * a binary min-heap, O(log n) push/pop, for everything scheduled
///   ahead of the clock and for every arrival and churn event;
/// * a FIFO *lane* for dynamic (class-2) events pushed at the instant of
///   the last pop — controller wake-ups and pre-warm timers that fire
///   "now". Such keys carry the current time and a fresh sequence
///   number, so each is larger than the one before and the lane stays
///   sorted without comparisons; push and pop are O(1).
///
/// [`pop`](Self::pop) takes the smaller of the lane front and the heap
/// top, which is the same order one heap would give. Arrivals and churn
/// always go to the heap: their rank is an index, not a sequence number,
/// so a same-instant one may sort before lane entries already queued.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    lane: VecDeque<Entry>,
    /// Time of the last popped event (zero before the first pop).
    now: u64,
    next_seq: u64,
    peak_len: usize,
}

/// A queued event under its packed sort key. Keys are unique, so the
/// event itself is never compared.
type Entry = (u128, Event);

/// Bit offset of the class in the packed rank.
const CLASS_SHIFT: u32 = 62;

/// The rank class of dynamically scheduled events (the lane's only
/// tenants).
const DYNAMIC: u64 = 2;

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
    /// the lane's ordering relies on it).
    pub fn push(&mut self, at: SimTime, event: Event) {
        debug_assert!(at.0 >= self.now, "event scheduled before the last pop");
        let rank = self.rank(&event);
        let key = (at.0 as u128) << 64 | rank as u128;
        if at.0 == self.now && rank >> CLASS_SHIFT == DYNAMIC {
            self.lane.push_back((key, event));
        } else {
            self.heap.push(Reverse((key, event)));
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Pops the earliest event, ties broken by `(class, sequence)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let from_heap = match (self.lane.front(), self.heap.peek()) {
            (Some(&(lane, _)), Some(Reverse((heap, _)))) => *heap < lane,
            (Some(_), None) => false,
            (None, _) => true,
        };
        let (key, ev) = if from_heap {
            self.heap.pop()?.0
        } else {
            self.lane.pop_front()?
        };
        self.now = (key >> 64) as u64;
        Some((SimTime(self.now), ev))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// High-water mark of pending events over the queue's lifetime.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|&(key, _)| key);
        let heap = self.heap.peek().map(|Reverse((key, _))| *key);
        let key = match (lane, heap) {
            (Some(l), Some(h)) => l.min(h),
            (l, h) => l.or(h)?,
        };
        Some(SimTime((key >> 64) as u64))
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

    /// Random interleaved push/pop against a single tuple-keyed heap: the
    /// pop sequences must match event for event, and `len`, `peek_time`
    /// and `peak_len` must match the model's. Half the pushes land at the
    /// current instant (the lane's tenants when dynamic), and bursts put
    /// same-instant arrivals and churn between same-instant dynamic
    /// events. Even seeds start at time zero, so pushes made before the
    /// first pop share the lane's instant too.
    #[test]
    fn matches_a_reference_heap_under_random_interleavings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        type Model = BinaryHeap<Reverse<(SimTime, (u8, u64), Event)>>;
        // Same-instant arrivals and churn pushed while the lane holds
        // entries, and pushes into the lane before any pop.
        let (mut between, mut before_first_pop) = (0usize, 0usize);
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let mut model_seq = 0u64;
            let mut model_peak = 0usize;
            let (mut next_arrival, mut next_churn) = (0usize, 0usize);
            // Odd seeds start late, which exercises the high half of the
            // packed key.
            let mut now = if seed % 2 == 0 {
                SimTime::ZERO
            } else {
                SimTime(rng.random_range(0..1u64 << 50))
            };
            let mut popped = 0usize;
            let mut batch: Vec<(SimTime, Event)> = Vec::new();
            for _ in 0..400 {
                if rng.random_bool(0.55) || model.is_empty() {
                    batch.clear();
                    if rng.random_bool(0.1) {
                        // A same-instant burst: dynamic events with an
                        // arrival and a churn event pushed between them.
                        batch.extend([
                            (now, Event::ControllerStep),
                            (now, Event::Arrival(usize::MAX)),
                            (now, Event::Prewarm(0, 1)),
                            (now, Event::Churn(usize::MAX)),
                            (now, Event::TaskComplete(3)),
                        ]);
                    } else {
                        // Half at the current instant, the rest in the
                        // near future (so equal timestamps recur).
                        let at = if rng.random_bool(0.5) {
                            now
                        } else {
                            SimTime(now.0 + rng.random_range(1..6u64))
                        };
                        let event = match rng.random_range(0..6u32) {
                            0 => Event::Arrival(usize::MAX),
                            1 => Event::Churn(usize::MAX),
                            2 => Event::ControllerStep,
                            3 => Event::TaskComplete(rng.random_range(0..9u64)),
                            4 => Event::TransferDue(rng.random_range(0..9u64), 1),
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
                        let lane_len = q.lane.len();
                        q.push(at, event);
                        if popped == 0 && q.lane.len() > lane_len {
                            before_first_pop += 1;
                        }
                        model.push(Reverse((at, rank, event)));
                        model_peak = model_peak.max(model.len());
                    }
                } else {
                    let Reverse((at, _, event)) = model.pop().expect("non-empty model");
                    assert_eq!(q.pop(), Some((at, event)), "seed {seed} pop {popped}");
                    now = at;
                    popped += 1;
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.peek_time(), model.peek().map(|Reverse((t, _, _))| *t));
                assert_eq!(q.peak_len(), model_peak, "seed {seed}");
            }
            while let Some(Reverse((at, _, event))) = model.pop() {
                assert_eq!(q.pop(), Some((at, event)), "seed {seed} drain");
            }
            assert!(q.is_empty() && q.pop().is_none());
            assert_eq!(q.peak_len(), model_peak);
        }
        assert!(
            between > 0 && before_first_pop > 0,
            "{between} {before_first_pop}"
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
