//! The timed event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Cycles the ring covers: on a bit-serial hypercube fewer than one
/// event in a thousand is scheduled this far ahead. A power of two, so
/// a cycle's slot is a mask.
const WINDOW: u64 = 1 << 10;
const MASK: u64 = WINDOW - 1;
/// The "no node" link.
const NIL: u32 = u32::MAX;

/// A deterministic, stable priority queue of `(time, event)` pairs.
///
/// Events pop in nondecreasing time order; events scheduled for the *same*
/// cycle pop in the order they were pushed (FIFO among ties). This
/// stability is what makes the whole simulation suite deterministic — a
/// plain `BinaryHeap` over time alone would pop equal-time events in
/// arbitrary order.
///
/// The queue is monotone: time never runs backwards, so an event may not
/// be pushed earlier than the last popped time (see [`EventQueue::push`]).
///
/// # Layout
///
/// A calendar queue. A ring of per-cycle FIFO lists covers the window
/// `[cursor, cursor + WINDOW)`, where `cursor` is the last popped time;
/// push and pop there are O(1). The lists are threaded through one node
/// arena with a free list, so a queue that has reached its high-water
/// mark allocates nothing more. Events at or beyond the window's end wait
/// in a small `(time, push order)` heap and move into the ring, in heap
/// order, as the cursor brings their cycle into the window.
///
/// The order is exact, not approximate: an event for cycle `t` enters
/// the heap only while `t ≥ cursor + WINDOW`, a push goes straight to the
/// ring only once `t < cursor + WINDOW`, and the cursor never moves back.
/// So every heap event for a cycle was pushed before, and is linked
/// before, every event pushed straight into that cycle's list.
///
/// # Example
///
/// ```
/// use ttda_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'x');
/// q.push(Cycle(1), 'y');
/// assert_eq!(q.peek_time(), Some(Cycle(1)));
/// assert_eq!(q.pop(), Some((Cycle(1), 'y')));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Slot `t & MASK` lists the events for cycle `t`, for each `t` in
    /// the window.
    ring: Vec<Slot>,
    nodes: Vec<Node<E>>,
    /// Head of the list of unused nodes.
    free: u32,
    /// Events at or beyond `cursor + WINDOW`: `(time, seq, node)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The last popped time; every pending event is at or after it.
    cursor: u64,
    /// Events linked into the ring.
    in_ring: usize,
    /// Push order among overflow events.
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: NIL,
        tail: NIL,
    };
}

#[derive(Debug, Clone)]
struct Node<E> {
    /// `None` while the node is on the free list.
    event: Option<E>,
    next: u32,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            ring: vec![Slot::EMPTY; WINDOW as usize],
            nodes: Vec::with_capacity(cap),
            free: NIL,
            overflow: BinaryHeap::new(),
            cursor: 0,
            in_ring: 0,
            seq: 0,
        }
    }

    /// Schedules `event` to fire at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped time: scheduling
    /// into the past is always a model bug, and the queue could only
    /// honour it by breaking its nondecreasing pop order.
    pub fn push(&mut self, at: Cycle, event: E) {
        assert!(
            at.0 >= self.cursor,
            "event scheduled in the past: at={at}, last popped={}",
            Cycle(self.cursor)
        );
        let node = self.alloc(event);
        if at.0 - self.cursor < WINDOW {
            self.link(at.0, node);
        } else {
            self.overflow.push(Reverse((at.0, self.seq, node)));
            self.seq += 1;
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let at = self.peek_time()?;
        // Moving the cursor to `at` brings `[old end, at + WINDOW)` into
        // the window. The slots those cycles reuse belonged to
        // `[old cursor, at)`, which held nothing.
        self.cursor = at.0;
        self.migrate();
        let slot = &mut self.ring[(at.0 & MASK) as usize];
        let node = slot.head;
        let n = &mut self.nodes[node as usize];
        slot.head = n.next;
        if slot.head == NIL {
            slot.tail = NIL;
        }
        let event = n.event.take().expect("a linked node holds an event");
        n.next = self.free;
        self.free = node;
        self.in_ring -= 1;
        Some((at, event))
    }

    /// Returns the time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.in_ring == 0 {
            return self.overflow.peek().map(|&Reverse((t, _, _))| Cycle(t));
        }
        // Ring events all lie in the window and come before every
        // overflow event; the first nonempty slot from the cursor on is
        // the earliest.
        let start = (self.cursor & MASK) as usize;
        let ahead = self.ring[start..]
            .iter()
            .chain(&self.ring[..start])
            .position(|s| s.head != NIL)
            .expect("a nonempty ring has a nonempty slot");
        Some(Cycle(self.cursor + ahead as u64))
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`. Useful for cycle-stepped models that interleave an event
    /// queue with a per-cycle loop.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_ring + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events and rewinds the queue to time zero,
    /// keeping its storage for reuse.
    pub fn clear(&mut self) {
        self.ring.fill(Slot::EMPTY);
        self.nodes.clear();
        self.free = NIL;
        self.overflow.clear();
        self.cursor = 0;
        self.in_ring = 0;
        self.seq = 0;
    }

    /// Stores `event` in a free node, growing the arena only when none
    /// is free.
    fn alloc(&mut self, event: E) -> u32 {
        if self.free != NIL {
            let node = self.free;
            let n = &mut self.nodes[node as usize];
            self.free = n.next;
            n.event = Some(event);
            n.next = NIL;
            return node;
        }
        let node = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("fewer than u32::MAX pending events");
        self.nodes.push(Node {
            event: Some(event),
            next: NIL,
        });
        node
    }

    /// Appends `node` to the list of cycle `at`, which must lie in the
    /// window.
    fn link(&mut self, at: u64, node: u32) {
        let slot = &mut self.ring[(at & MASK) as usize];
        match slot.tail {
            NIL => slot.head = node,
            tail => self.nodes[tail as usize].next = node,
        }
        slot.tail = node;
        self.in_ring += 1;
    }

    /// Links every overflow event the window now covers into the ring,
    /// in `(time, push order)` order.
    fn migrate(&mut self) {
        while let Some(&Reverse((at, _, node))) = self.overflow.peek() {
            if at - self.cursor >= WINDOW {
                break;
            }
            self.overflow.pop();
            self.link(at, node);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), "later");
        assert_eq!(q.pop_due(Cycle(9)), None);
        assert_eq!(q.pop_due(Cycle(10)), Some((Cycle(10), "later")));
        assert_eq!(q.pop_due(Cycle(10)), None);
    }

    #[test]
    fn clear_and_len() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn migrated_events_precede_direct_pushes_of_their_cycle() {
        let far = WINDOW + 5;
        let mut q = EventQueue::new();
        q.push(Cycle(far), "early");
        q.push(Cycle(10), "step");
        assert_eq!(q.pop(), Some((Cycle(10), "step")));
        // `far` is inside the window now, so this push goes to the ring.
        q.push(Cycle(far), "late");
        assert_eq!(q.pop(), Some((Cycle(far), "early")));
        assert_eq!(q.pop(), Some((Cycle(far), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn push_before_last_pop_panics() {
        let mut q = EventQueue::new();
        q.push(Cycle(7), ());
        q.pop();
        q.push(Cycle(6), ());
    }
}
