//! A small driver loop around [`EventQueue`].

use crate::{Cycle, EventQueue};

/// What a single [`Engine::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was dispatched to the handler.
    Dispatched,
    /// The queue is empty; the simulation is quiescent.
    Quiescent,
    /// The next event lies beyond the configured horizon.
    Horizon,
}

/// An event-driven simulation engine.
///
/// `Engine` owns the clock and the event queue; the *model* lives in the
/// handler closure passed to [`Engine::run`], which may schedule further
/// events through the [`EventQueue`] it is lent. This keeps the kernel
/// free of any knowledge about machines, networks or memories.
///
/// # Example
///
/// ```
/// use ttda_sim::{Cycle, Engine};
///
/// // A self-reproducing event: each firing schedules the next, 3 cycles
/// // out, until five have fired.
/// let mut engine = Engine::new();
/// engine.schedule(Cycle(0), 0u32);
/// let mut fired = Vec::new();
/// engine.run(|now, n, q| {
///     fired.push((now, n));
///     if n < 4 {
///         q.push(now + Cycle(3), n + 1);
///     }
/// });
/// assert_eq!(fired.len(), 5);
/// assert_eq!(engine.now(), Cycle(12));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: Cycle,
    horizon: Cycle,
    dispatched: u64,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with no horizon.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: Cycle::ZERO,
            horizon: Cycle::MAX,
            dispatched: 0,
        }
    }

    /// Sets a time limit: events strictly after `horizon` are not
    /// dispatched and [`StepOutcome::Horizon`] is reported instead.
    pub fn with_horizon(mut self, horizon: Cycle) -> Self {
        self.horizon = horizon;
        self
    }

    /// Current simulated time (the time of the last dispatched event).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedules an event.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, as
    /// [`EventQueue::push`] does: the current time is the queue's last
    /// popped time.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        self.queue.push(at, event);
    }

    /// Dispatches the next event to `handler`, advancing the clock.
    pub fn step(&mut self, mut handler: impl FnMut(Cycle, E, &mut EventQueue<E>)) -> StepOutcome {
        match self.queue.peek_time() {
            None => StepOutcome::Quiescent,
            Some(t) if t > self.horizon => StepOutcome::Horizon,
            Some(_) => {
                let (t, ev) = self.queue.pop().expect("peeked");
                self.now = t;
                self.dispatched += 1;
                handler(t, ev, &mut self.queue);
                StepOutcome::Dispatched
            }
        }
    }

    /// Runs until quiescence or the horizon, returning the final outcome.
    pub fn run(&mut self, mut handler: impl FnMut(Cycle, E, &mut EventQueue<E>)) -> StepOutcome {
        loop {
            match self.step(&mut handler) {
                StepOutcome::Dispatched => continue,
                other => return other,
            }
        }
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_to_quiescence() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule(Cycle(1), 1);
        e.schedule(Cycle(2), 2);
        let mut seen = vec![];
        assert_eq!(e.run(|_, ev, _| seen.push(ev)), StepOutcome::Quiescent);
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(e.dispatched(), 2);
    }

    #[test]
    fn horizon_stops_dispatch() {
        let mut e: Engine<u8> = Engine::new().with_horizon(Cycle(5));
        e.schedule(Cycle(3), 1);
        e.schedule(Cycle(9), 2);
        let mut seen = vec![];
        assert_eq!(e.run(|_, ev, _| seen.push(ev)), StepOutcome::Horizon);
        assert_eq!(seen, vec![1]);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule(Cycle(10), ());
        e.run(|_, _, _| ());
        e.schedule(Cycle(5), ());
    }

    #[test]
    fn handler_can_chain_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(Cycle(0), 0);
        let mut count = 0;
        e.run(|now, n, q| {
            count += 1;
            if n < 9 {
                q.push(now + Cycle(1), n + 1);
            }
        });
        assert_eq!(count, 10);
        assert_eq!(e.now(), Cycle(9));
    }
}
