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
use std::collections::BinaryHeap;

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

/// A time-ordered event queue with deterministic tie-breaking: a binary
/// min-heap, O(log n) push/pop. Entries sort on one packed key, `time <<
/// 64 | class << 62 | index`, so a heap comparison is a single integer
/// compare; pop order is exactly `(time, class, sequence)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    peak_len: usize,
}

/// A queued event under its packed sort key. Keys are unique, so the
/// event itself is never compared.
type Entry = (u128, Event);

/// Bit offset of the class in the packed rank.
const CLASS_SHIFT: u32 = 62;

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
                (2, s)
            }
        };
        debug_assert!(index < 1 << CLASS_SHIFT, "event index overflows its rank");
        class << CLASS_SHIFT | index
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let rank = self.rank(&event);
        self.heap
            .push(Reverse(((at.0 as u128) << 64 | rank as u128, event)));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pops the earliest event, ties broken by `(class, sequence)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap
            .pop()
            .map(|Reverse((key, ev))| (SimTime((key >> 64) as u64), ev))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of pending events over the queue's lifetime.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|Reverse((key, _))| SimTime((key >> 64) as u64))
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

    /// Random interleaved push/pop against the tuple-keyed heap the
    /// packed key replaced: the pop sequences must match event for event,
    /// including same-instant pushes of arrivals, churn and dynamic
    /// events.
    #[test]
    fn matches_a_reference_heap_under_random_interleavings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        type Model = BinaryHeap<Reverse<(SimTime, (u8, u64), Event)>>;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let mut model_seq = 0u64;
            let (mut next_arrival, mut next_churn) = (0usize, 0usize);
            // A large start time exercises the high half of the packed key.
            let mut now = SimTime(rng.random_range(0..1u64 << 50));
            let mut popped = 0usize;
            for _ in 0..400 {
                if rng.random_bool(0.55) || model.is_empty() {
                    // Half at the current instant, the rest in the near
                    // future (so equal timestamps recur).
                    let at = if rng.random_bool(0.5) {
                        now
                    } else {
                        SimTime(now.0 + rng.random_range(1..6u64))
                    };
                    let event = match rng.random_range(0..6u32) {
                        0 => {
                            next_arrival += 1;
                            Event::Arrival(next_arrival - 1)
                        }
                        1 => {
                            next_churn += 1;
                            Event::Churn(next_churn - 1)
                        }
                        2 => Event::ControllerStep,
                        3 => Event::TaskComplete(rng.random_range(0..9u64)),
                        4 => Event::TransferDue(rng.random_range(0..9u64), 1),
                        _ => Event::Prewarm(1, rng.random_range(0..3u32)),
                    };
                    let rank = match event {
                        Event::Arrival(i) => (0, i as u64),
                        Event::Churn(i) => (1, i as u64),
                        _ => {
                            model_seq += 1;
                            (2, model_seq - 1)
                        }
                    };
                    q.push(at, event);
                    model.push(Reverse((at, rank, event)));
                } else {
                    let Reverse((at, _, event)) = model.pop().expect("non-empty model");
                    assert_eq!(q.pop(), Some((at, event)), "seed {seed} pop {popped}");
                    now = at;
                    popped += 1;
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.peek_time(), model.peek().map(|Reverse((t, _, _))| *t));
            }
            while let Some(Reverse((at, _, event))) = model.pop() {
                assert_eq!(q.pop(), Some((at, event)), "seed {seed} drain");
            }
            assert!(q.is_empty() && q.pop().is_none());
        }
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
