//! A deterministic future-event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// An event scheduled at a virtual time, carrying an opaque payload `E`.
///
/// Ties in time are broken by insertion sequence number, so two events
/// scheduled for the same instant always pop in the order they were pushed —
/// the property that makes whole-engine replays bit-identical.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number assigned by the queue (tie-breaker).
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Min-priority queue of future events with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the fire time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics (debug) if `at` lies in the past; the simulation may never
    /// schedule backwards.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
    }

    /// Pop the earliest event and advance the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some(ev)
    }

    /// Peek at the earliest event without advancing time.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        self.heap.peek()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)] // the guard is a debug_assert
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
