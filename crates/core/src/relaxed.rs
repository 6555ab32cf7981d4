//! The parallel backend of the [`Emulator`](crate::Emulator) —
//! [`RunMode::Relaxed`](crate::RunMode::Relaxed).
//!
//! Bit-identity with the sequential interpreter would need a wave
//! barrier and an index-ordered merge on a coordinator: the
//! synchronization and scheduling code the TTDA's processors exist not
//! to run. This backend has neither: there is **no coordinator in the
//! steady state at all**. Each worker owns a waiting–matching shard
//! and an I-structure shard; tokens flow worker-to-worker over channels
//! the moment they are produced, wave fronts overlap freely, and the
//! run ends when a global in-flight counter reaches zero.
//!
//! # What is still guaranteed
//!
//! Dataflow graphs are determinate (Kahn): the *values* computed do not
//! depend on execution order, only the order itself does. Concretely,
//! for any program, a relaxed run agrees with a sequential run on:
//!
//! - program **outputs** (for [`Value::Ptr`](crate::Value::Ptr) up to
//!   the structure *id* — relaxed ids come from leased blocks and are
//!   not dense);
//! - the **error discriminant** when the program faults;
//! - `instructions`, `alu_ops`, `contexts`, `istore_writes`, the total
//!   `istore_immediate + istore_deferred`, and the stranded-token count
//!   of a deadlock (all confluent);
//!
//! while `waves`/`profile` are reported as `0`/empty (there are no
//! waves to count), and `peak_matching`, `peak_deferred` and the
//! immediate/deferred *split* become schedule-dependent approximations
//! (sums of per-shard observations). The fuzz oracle's confluence check
//! (`ttda_workloads::fuzz::oracle::confluent`) states exactly this
//! contract, and every caller that compares relaxed with sequential
//! runs uses it.
//!
//! # Placement and the bounded backlog
//!
//! Activities are placed by context ([`MappingPolicy::ByContext`]): a
//! whole loop activation or procedure call lives on one worker, so only
//! call/return and loop entry/exit cross threads. Placing by context
//! alone lets the worker that owns a long loop run its iteration chain
//! to the end before it reads a single result returned to it — the
//! matching store then holds every iteration's half-matched join.
//! Every [`DRAIN_EVERY`] firings a worker therefore flushes its outbound
//! batches and drains its inbox without blocking, which bounds that
//! backlog by the drain interval instead of the loop's trip count.
//! That bound assumes the peers keep running. On a host with more
//! runnable threads than cores, the peer that owes this worker its
//! results can wait a whole time slice for a core, while this worker
//! runs its chain ahead. A drain that finds the inbox empty therefore
//! yields the core.
//!
//! # Quiescence
//!
//! One shared counter, `in_flight`, detects termination. It counts
//!
//! - every token or structure op in transit between workers (in a
//!   flushed batch, from the flushing `fetch_add` until the receiver
//!   takes the message), and
//! - one **hold** per worker that has local work: a non-empty local
//!   queue, unflushed outbound batches, or a message being handled.
//!
//! Tokens a worker routes to itself never touch it. The invariants:
//!
//! 1. A worker takes its hold in the same atomic step that stops
//!    counting the received items as in transit (`fetch_sub(k - 1)`), so
//!    taking work off a channel never lets the counter dip.
//! 2. Outbound batches are charged (`fetch_add`) before they are sent
//!    and are only ever filled while the sender holds, so charging them
//!    cannot race the counter to zero either.
//! 3. A worker releases its hold only with an empty local queue, empty
//!    outbound batches and an empty inbox.
//!
//! Hence `in_flight == 0` means no worker holds and nothing is in
//! transit: no work exists anywhere. Zero is also stable, because new
//! work only comes from processing old work. Only a hold release can
//! take the counter to zero, so exactly one worker sees it happen.
//!
//! # Wake protocol and errors
//!
//! An idle worker blocks in `recv()`; it has no timer. It wakes for
//! work, or for `Stop`, which two workers send to every peer: the one
//! whose hold release took `in_flight` to zero, and the one that
//! poisons the run. The first error (in real time, not program order —
//! this is the relaxation) lands in a shared slot and poisons the run;
//! busy workers notice the poison at their next drain.
//!
//! Fuel is counted per worker and published to a shared total at every
//! drain. A worker fails with `OutOfFuel` as soon as the last total it
//! saw plus its own unpublished firings exceeds the budget, which is
//! never early; after the run, the exact sum of all workers' firings is
//! checked against the budget once more. So `OutOfFuel` still means
//! "the program needed more than `fuel` firings", the same condition
//! the sequential interpreter enforces.
//!
//! # Causality of structure traffic
//!
//! An `IAlloc`'s create op must reach the owning shard before any token
//! that carries the pointer (which could issue a fetch or store through
//! it). The firing core resolves the allocation, queueing the create op,
//! before it routes the pointer; workers flush **ops to every peer
//! first, tokens second**. Each hop is an mpsc send, and sends ordered
//! by happens-before enqueue in that order at the receiver, so the
//! create is always applied before a dependent op arrives. A store's
//! completion signal needs no such argument: the owning shard emits it
//! after the write (DESIGN.md §18).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Mutex;

use ttda_mem::shard_of;
use ttda_sim::Cycle;
use ttda_trace::{EventBuffer, SharedSink, TraceEvent};

use crate::context::{SharedContexts, WorkerCtx};
use crate::emu::EmuResult;
use crate::graph::Program;
use crate::matching::MatchingStore;
use crate::pe::{seed, Emit, IUnit, Pe, Route, StructOp};
use crate::place::{place, MappingPolicy};
use crate::sched::{BucketQueue, CritMap, SchedPolicy};
use crate::tag::{ActivityName, Token};
use crate::ExecError;

/// Structure ids a worker takes per refill of its private lease. Ids
/// are *not* dense (unused tail ids are simply never created) — they
/// escape only inside [`Value::Ptr`](crate::Value::Ptr), whose id the relaxed contract
/// does not promise.
const STRUCT_LEASE: u32 = 64;

/// Firings between two backlog drains (see the module docs). Also the
/// batch size in which a worker publishes its firings to the shared
/// fuel meter.
const DRAIN_EVERY: u64 = 1024;

/// The one placement this backend uses.
fn owner(tag: ActivityName, threads: usize) -> usize {
    place(MappingPolicy::ByContext, tag, threads)
}

/// A message between workers: a batch of structure ops for the
/// receiver's I-structure shard, a batch of tokens for the receiver's
/// matching shard, or the order to exit. Ops and tokens are separate
/// variants because the flush order between them carries the causality
/// argument (see the module docs).
enum Msg {
    Ops(Vec<ShardOp>),
    Tokens(Vec<Token>),
    Stop,
}

/// One unit of structure-shard work: register a freshly allocated id,
/// or apply a fetch/store.
enum ShardOp {
    Create { id: u32, len: usize },
    Op(StructOp),
}

/// State shared by all workers of one relaxed run.
struct Shared<'a> {
    program: &'a Program,
    ctxs: &'a SharedContexts,
    /// Items in transit between workers plus one hold per worker with
    /// local work; zero exactly at quiescence (see the module docs).
    in_flight: AtomicUsize,
    /// Firings published so far — the shared fuel meter.
    fired: AtomicU64,
    fuel: u64,
    /// Source of leased structure-id blocks.
    next_struct: AtomicU32,
    /// Set on the first error; workers exit promptly once they see it.
    poison: AtomicBool,
    first_err: Mutex<Option<ExecError>>,
    threads: usize,
    traced: bool,
    /// `Some` under [`SchedPolicy::Crit`]: workers pop their local
    /// queues longest-remaining-path first instead of in arrival order.
    crit: Option<CritMap>,
}

impl Shared<'_> {
    /// Records `e` as the run's error if it is the first, and poisons
    /// the run either way.
    fn fail(&self, e: ExecError) {
        let mut slot = self.first_err.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.poison.store(true, Ordering::SeqCst);
    }

    /// Local-queue priority of a token: its target's remaining
    /// critical-path height under `Crit`, a constant 0 under `Fifo`
    /// (which makes [`BucketQueue`] exactly a FIFO ring).
    fn prio(&self, tag: ActivityName) -> u32 {
        self.crit.as_ref().map_or(0, |c| c.criticality(tag))
    }
}

/// Entry point: the relaxed equivalent of `Emulator::submit`. `fuel` is
/// the already-resolved batch budget.
pub(crate) fn submit(
    program: &Program,
    jobs: &[crate::machine::Job],
    threads: usize,
    fuel: u64,
    sched: SchedPolicy,
    sink: Option<SharedSink>,
) -> Result<EmuResult, ExecError> {
    debug_assert!(threads >= 1, "relaxed backend needs at least one worker");
    let ctxs = SharedContexts::new(program.main);
    // Seed tokens, sharded by matching owner. Roots are allocated here,
    // before any worker exists, so they get the same dense leading ids
    // the sequential interpreter assigns.
    let mut seeds: Vec<Vec<Token>> = (0..threads).map(|_| Vec::new()).collect();
    let mut nseeds = 0usize;
    seed(
        program,
        jobs,
        |b| ctxs.new_root(b),
        |t| {
            seeds[owner(t.tag, threads)].push(t);
            nseeds += 1;
        },
    )?;
    if let Some(s) = &sink {
        let mut s = s.borrow_mut();
        for _ in 0..nseeds {
            s.record(Cycle::ZERO, &TraceEvent::TokenEmit { pe: 0 });
        }
    }

    let shared = Shared {
        program,
        ctxs: &ctxs,
        // The seeds are the first items in transit.
        in_flight: AtomicUsize::new(nseeds),
        fired: AtomicU64::new(0),
        fuel,
        next_struct: AtomicU32::new(0),
        poison: AtomicBool::new(false),
        first_err: Mutex::new(None),
        threads,
        traced: sink.is_some(),
        crit: (sched == SchedPolicy::Crit).then(|| CritMap::of(program)),
    };

    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..threads).map(|_| channel::<Msg>()).unzip();
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(me, rx)| {
                let shared = &shared;
                let peers = txs.clone();
                scope.spawn(move || worker(shared, me, rx, peers))
            })
            .collect();
        for (w, seed) in seeds.into_iter().enumerate() {
            if !seed.is_empty() {
                txs[w].send(Msg::Tokens(seed)).expect("worker died at seed");
            }
        }
        if nseeds == 0 {
            // Nothing to run: the workers are quiescent from the start.
            for tx in &txs {
                tx.send(Msg::Stop).expect("worker died at seed");
            }
        }
        drop(txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("relaxed worker panicked"))
            .collect()
    });

    if let Some(e) = shared.first_err.lock().expect("error slot poisoned").take() {
        return Err(e);
    }
    let instructions = workers.iter().map(|w| w.pe.fired).sum::<u64>();
    if instructions > fuel {
        return Err(ExecError::OutOfFuel);
    }
    // Tokens and deferred readers stranded in the shards at quiescence.
    let stranded = workers
        .iter()
        .map(|w| w.waiting.len() + w.structs.unit.deferred_outstanding())
        .sum::<usize>();
    if stranded > 0 {
        return Err(ExecError::Deadlock { stranded });
    }

    let mut result = EmuResult {
        outputs: HashMap::new(),
        instructions,
        alu_ops: 0,
        waves: 0,
        profile: Vec::new(),
        contexts: ctxs.allocated(),
        peak_matching: 0,
        peak_deferred: 0,
        istore_immediate: 0,
        istore_deferred: 0,
        istore_writes: 0,
    };
    for mut w in workers {
        result.outputs.extend(w.pe.outputs.drain());
        result.alu_ops += w.pe.alu_ops;
        result.peak_matching += w.peak_matching;
        result.peak_deferred += w.structs.peak_deferred;
        let counts = w.structs.unit.counts;
        result.istore_immediate += counts.immediate;
        result.istore_deferred += counts.deferred;
        result.istore_writes += counts.writes;
        if let Some(s) = &sink {
            w.out.traces.replay_into(s);
        }
    }
    if let Some(s) = &sink {
        s.borrow_mut()
            .record(Cycle::ZERO, &TraceEvent::Halt { in_flight: 0 });
    }
    Ok(result)
}

/// A worker's output section: a produced token goes to the worker's
/// local queue if this worker owns its matching shard, or into that
/// peer's outbound batch.
struct Outbox<'a, 'p> {
    shared: &'a Shared<'p>,
    me: usize,
    /// Tokens owned by this worker's matching shard, pending
    /// absorption. FIFO under [`SchedPolicy::Fifo`] (everything lands
    /// at priority 0); a criticality-bucketed priority queue under
    /// [`SchedPolicy::Crit`].
    local: BucketQueue<Token>,
    /// Outbound token batches, one slot per peer (the own slot stays
    /// empty).
    tbufs: Vec<Vec<Token>>,
    traces: EventBuffer,
}

impl Emit for Outbox<'_, '_> {
    fn traced(&self) -> bool {
        self.shared.traced
    }

    fn trace(&mut self, ev: TraceEvent) {
        if self.shared.traced {
            self.traces.push(Cycle::ZERO, ev);
        }
    }

    fn token(&mut self, t: Token) {
        self.trace(TraceEvent::TokenEmit { pe: self.me as u32 });
        let w = owner(t.tag, self.shared.threads);
        if w == self.me {
            self.local.push(self.shared.prio(t.tag), t);
        } else {
            self.tbufs[w].push(t);
        }
    }
}

/// A worker's structure side: its shard of the table as an I-structure
/// unit, and the op batches bound for its peers' shards.
struct Structs {
    unit: IUnit,
    /// Outbound op batches, one slot per peer (the own slot stays empty:
    /// own ops apply inline).
    obufs: Vec<Vec<ShardOp>>,
    /// Private structure-id lease, refilled from the shared counter.
    next: u32,
    end: u32,
    /// Peak deferred-reader count of `unit`.
    peak_deferred: usize,
}

impl Structs {
    /// Applies a fetch or store to this worker's shard.
    fn apply(
        &mut self,
        program: &Program,
        op: StructOp,
        out: &mut Outbox,
    ) -> Result<(), ExecError> {
        self.unit.apply(program, op, out)?;
        self.peak_deferred = self.peak_deferred.max(self.unit.deferred_outstanding());
        Ok(())
    }
}

/// A worker's route: structure ops go inline to its own shard or into
/// the owning peer's batch.
struct WorkerRoute<'w, 'a, 'p> {
    out: &'w mut Outbox<'a, 'p>,
    structs: &'w mut Structs,
}

impl<'a, 'p> Route for WorkerRoute<'_, 'a, 'p> {
    type Out = Outbox<'a, 'p>;

    fn out(&mut self) -> &mut Outbox<'a, 'p> {
        self.out
    }

    fn alloc(&mut self, len: usize) -> u32 {
        let (shared, st) = (self.out.shared, &mut *self.structs);
        if st.next == st.end {
            st.next = shared.next_struct.fetch_add(STRUCT_LEASE, Ordering::SeqCst);
            st.end = st.next + STRUCT_LEASE;
        }
        let id = st.next;
        st.next += 1;
        let w = shard_of(id, shared.threads);
        if w == self.out.me {
            st.unit.create(id, len);
        } else {
            st.obufs[w].push(ShardOp::Create { id, len });
        }
        id
    }

    fn op(&mut self, op: StructOp) -> Result<(), ExecError> {
        let shared = self.out.shared;
        let w = shard_of(op.target().0.id, shared.threads);
        if w == self.out.me {
            self.structs.apply(shared.program, op, self.out)
        } else {
            self.structs.obufs[w].push(ShardOp::Op(op));
            Ok(())
        }
    }
}

/// Everything one relaxed worker owns.
struct Worker<'a, 'p> {
    shared: &'a Shared<'p>,
    me: usize,
    rx: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    pe: Pe<'p, WorkerCtx<'p>>,
    waiting: MatchingStore,
    out: Outbox<'a, 'p>,
    structs: Structs,
    /// Peak occupancy of `waiting`.
    peak_matching: usize,
    /// Whether this worker's hold is counted in `in_flight`.
    holding: bool,
    /// Firings already added to `shared.fired`.
    published: u64,
    /// `shared.fired` as of this worker's last publication.
    fired_seen: u64,
    /// Set when this worker failed or saw the run poisoned.
    halted: bool,
}

/// One relaxed worker: absorb and fire tokens from the local queue,
/// batch outbound traffic, drain the inbox every [`DRAIN_EVERY`]
/// firings, block when idle, exit on `Stop`, quiescence or poison. The
/// finished worker is handed back for its counts, outputs and traces.
fn worker<'a, 'p>(
    shared: &'a Shared<'p>,
    me: usize,
    rx: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
) -> Worker<'a, 'p> {
    let threads = shared.threads;
    let mut w = Worker {
        shared,
        me,
        rx,
        peers,
        pe: Pe::new(shared.program, shared.ctxs.handle()),
        waiting: MatchingStore::new(),
        out: Outbox {
            shared,
            me,
            local: BucketQueue::new(),
            tbufs: (0..threads).map(|_| Vec::new()).collect(),
            traces: EventBuffer::new(),
        },
        structs: Structs {
            unit: IUnit::whole(),
            obufs: (0..threads).map(|_| Vec::new()).collect(),
            next: 0,
            end: 0,
            peak_deferred: 0,
        },
        peak_matching: 0,
        holding: false,
        published: 0,
        fired_seen: 0,
        halted: false,
    };
    w.run();
    w
}

impl Worker<'_, '_> {
    fn run(&mut self) {
        loop {
            while !self.halted {
                let Some(t) = self.out.local.pop() else { break };
                self.process_token(t);
                if self.pe.fired - self.published >= DRAIN_EVERY {
                    self.drain();
                }
            }
            if self.halted {
                break;
            }
            self.flush();
            let msg = match self.rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => {
                    if self.release_hold() {
                        break;
                    }
                    self.rx.recv().unwrap_or(Msg::Stop)
                }
                Err(TryRecvError::Disconnected) => Msg::Stop,
            };
            if !self.handle(msg) {
                return;
            }
        }
        // Quiescence reached here, or the run is poisoned: either way,
        // nobody else will send the peers anything but `Stop`.
        for (w, peer) in self.peers.iter().enumerate() {
            if w != self.me {
                let _ = peer.send(Msg::Stop);
            }
        }
    }

    fn fail(&mut self, e: ExecError) {
        self.shared.fail(e);
        self.halted = true;
    }

    /// Drops this worker's hold, if it has one. True when that took
    /// `in_flight` to zero: the run is quiescent.
    fn release_hold(&mut self) -> bool {
        if !self.holding {
            return false;
        }
        self.holding = false;
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// The bounded-backlog step: publish firings to the fuel meter,
    /// flush outbound batches, check for poison, then take everything
    /// already waiting in the inbox without blocking, or yield the core
    /// to the peers if nothing has arrived.
    fn drain(&mut self) {
        let n = self.pe.fired - self.published;
        self.published = self.pe.fired;
        self.fired_seen = self.shared.fired.fetch_add(n, Ordering::SeqCst) + n;
        if self.fired_seen > self.shared.fuel {
            self.fail(ExecError::OutOfFuel);
            return;
        }
        self.flush();
        if self.shared.poison.load(Ordering::SeqCst) {
            self.halted = true;
            return;
        }
        let mut received = false;
        while let Ok(msg) = self.rx.try_recv() {
            received = true;
            if !self.handle(msg) {
                self.halted = true;
                return;
            }
        }
        if !received && self.shared.threads > 1 {
            std::thread::yield_now();
        }
    }

    /// Takes one token through this worker's PE.
    fn process_token(&mut self, token: Token) {
        let mut route = WorkerRoute {
            out: &mut self.out,
            structs: &mut self.structs,
        };
        match self
            .pe
            .step(self.me as u32, &mut self.waiting, token, &mut route)
        {
            Ok(fired) => {
                self.peak_matching = self.peak_matching.max(self.waiting.len());
                let unpublished = self.pe.fired - self.published;
                if fired && self.fired_seen + unpublished > self.shared.fuel {
                    self.fail(ExecError::OutOfFuel);
                }
            }
            Err(e) => self.fail(e),
        }
    }

    /// Flushes outbound batches: ops to every peer first, then tokens —
    /// the order the causality argument rests on. The whole flush is
    /// charged to `in_flight` in one step before the first send.
    fn flush(&mut self) {
        let (obufs, tbufs) = (&mut self.structs.obufs, &mut self.out.tbufs);
        let n =
            obufs.iter().map(Vec::len).sum::<usize>() + tbufs.iter().map(Vec::len).sum::<usize>();
        if n == 0 {
            return;
        }
        self.shared.in_flight.fetch_add(n, Ordering::SeqCst);
        for (peer, ops) in self.peers.iter().zip(obufs.iter_mut()) {
            if !ops.is_empty() {
                // A failed send means the peer exited on poison; the
                // batch no longer matters.
                let _ = peer.send(Msg::Ops(std::mem::take(ops)));
            }
        }
        for (peer, ts) in self.peers.iter().zip(tbufs.iter_mut()) {
            if !ts.is_empty() {
                let _ = peer.send(Msg::Tokens(std::mem::take(ts)));
            }
        }
    }

    /// Takes one message off the inbox. Returns false on `Stop`.
    fn handle(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Ops(ops) => {
                self.take_hold(ops.len());
                for op in ops {
                    match op {
                        ShardOp::Create { id, len } => self.structs.unit.create(id, len),
                        ShardOp::Op(op) => {
                            if let Err(e) =
                                self.structs.apply(self.shared.program, op, &mut self.out)
                            {
                                self.fail(e);
                            }
                        }
                    }
                }
            }
            Msg::Tokens(ts) => {
                self.take_hold(ts.len());
                for t in ts {
                    self.out.local.push(self.shared.prio(t.tag), t);
                }
            }
            Msg::Stop => return false,
        }
        true
    }

    /// Stops counting `k` received items as in transit, taking this
    /// worker's hold in the same atomic step (invariant 1).
    fn take_hold(&mut self, k: usize) {
        let settle = if self.holding { k } else { k - 1 };
        self.holding = true;
        if settle > 0 {
            self.shared.in_flight.fetch_sub(settle, Ordering::SeqCst);
        }
    }
}
