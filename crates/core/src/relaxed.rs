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
//! - program **outputs** (for [`Value::Ptr`] up to the structure *id* —
//!   relaxed ids come from leased blocks and are not dense);
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
//! An op on a structure must reach the owning shard before any op that
//! causally depends on it (`IAlloc` before a fetch through the pointer,
//! `IStore` before a fetch released by its completion signal). Workers
//! therefore flush, per batch cycle, **ops to every peer first, tokens
//! second**, and dispatch a firing's own op before routing its tokens.
//! Each hop is an mpsc send, and sends ordered by happens-before
//! enqueue in that order at the receiver, so the create/store is always
//! applied before the dependent fetch arrives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Mutex;

use ttda_mem::{shard_of, Addr, IStructureShard, Presence, ReadOutcome};
use ttda_sim::Cycle;
use ttda_trace::{EventBuffer, PresenceState, SharedSink, TraceEvent};

use crate::context::{SharedContexts, WorkerCtx};
use crate::emu::EmuResult;
use crate::exec::{absorb, continuation, dests_of, execute, StructAction};
use crate::graph::{Dest, Program};
use crate::matching::MatchingStore;
use crate::place::{place, MappingPolicy};
use crate::sched::{BucketQueue, CritMap, SchedPolicy};
use crate::tag::{ActivityName, Iter, Port, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// Structure ids a worker takes per refill of its private lease. Ids
/// are *not* dense (unused tail ids are simply never created) — they
/// escape only inside [`Value::Ptr`], whose id the relaxed contract
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
}

/// What one worker hands back when it exits.
struct WorkerOut {
    outputs: HashMap<u32, Value>,
    /// Successful firings on this worker.
    fired: u64,
    alu_ops: u64,
    /// Peak occupancy of this worker's matching shard.
    peak_matching: usize,
    /// Tokens stranded in this worker's matching shard at quiescence.
    stranded: usize,
    /// Peak and final deferred-reader counts of this worker's shard.
    peak_deferred: usize,
    deferred_outstanding: usize,
    istore: IStoreCounts,
    traces: EventBuffer,
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
    for job in jobs {
        let block = program
            .block(job.block)
            .ok_or_else(|| ExecError::BadTarget {
                activity: job.block.to_string(),
            })?;
        if job.inputs.len() != block.params.len() {
            return Err(ExecError::InputArity {
                expected: block.params.len(),
                got: job.inputs.len(),
            });
        }
        let root = ctxs.new_root(job.block);
        for (k, v) in job.inputs.iter().enumerate() {
            let t = Token::new(
                ActivityName {
                    u: root,
                    c: job.block,
                    s: block.params[k],
                    i: Iter::ONE,
                },
                Port(0),
                *v,
            );
            seeds[owner(t.tag, threads)].push(t);
            nseeds += 1;
        }
    }
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

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
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

    if let Some(e) = shared.first_err.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let instructions = outs.iter().map(|o| o.fired).sum::<u64>();
    if instructions > fuel {
        return Err(ExecError::OutOfFuel);
    }
    let stranded = outs
        .iter()
        .map(|o| o.stranded + o.deferred_outstanding)
        .sum::<usize>();
    if stranded > 0 {
        return Err(ExecError::Deadlock { stranded });
    }

    let mut outputs = HashMap::new();
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
    for mut o in outs {
        outputs.extend(o.outputs.drain());
        result.alu_ops += o.alu_ops;
        result.peak_matching += o.peak_matching;
        result.peak_deferred += o.peak_deferred;
        result.istore_immediate += o.istore.immediate;
        result.istore_deferred += o.istore.deferred;
        result.istore_writes += o.istore.writes;
        if let Some(s) = &sink {
            o.traces.replay_into(s);
        }
    }
    result.outputs = outputs;
    if let Some(s) = &sink {
        s.borrow_mut()
            .record(Cycle::ZERO, &TraceEvent::Halt { in_flight: 0 });
    }
    Ok(result)
}

/// Everything one relaxed worker owns.
struct Worker<'a, 'p> {
    shared: &'a Shared<'p>,
    me: usize,
    rx: Receiver<Msg>,
    waiting: MatchingStore,
    shard: IStructureShard<Value, (ActivityName, Port)>,
    wctx: WorkerCtx<'a>,
    /// Private structure-id lease, refilled from the shared counter.
    struct_next: u32,
    struct_end: u32,
    /// Tokens owned by this worker's matching shard, pending
    /// absorption. FIFO under [`SchedPolicy::Fifo`] (everything lands
    /// at priority 0); a criticality-bucketed priority queue under
    /// [`SchedPolicy::Crit`].
    local: BucketQueue<Token>,
    /// Outbound batches, one slot per peer (own slots stay empty — own
    /// work is dispatched inline).
    obufs: Vec<Vec<ShardOp>>,
    tbufs: Vec<Vec<Token>>,
    peers: Vec<Sender<Msg>>,
    /// The firing path's token buffer, reused by every firing.
    emitted: Vec<Token>,
    /// Tokens one structure op produced, reused by every op.
    released: Vec<Token>,
    /// Whether this worker's hold is counted in `in_flight`.
    holding: bool,
    /// Firings since the last drain, not yet in `shared.fired`.
    unpublished: u64,
    /// `shared.fired` as of this worker's last publication.
    fired_seen: u64,
    /// Set when this worker failed or saw the run poisoned.
    halted: bool,
    out: WorkerOut,
}

/// One relaxed worker: absorb and fire tokens from the local queue,
/// batch outbound traffic, drain the inbox every [`DRAIN_EVERY`]
/// firings, block when idle, exit on `Stop`, quiescence or poison.
fn worker(shared: &Shared<'_>, me: usize, rx: Receiver<Msg>, peers: Vec<Sender<Msg>>) -> WorkerOut {
    let threads = shared.threads;
    let mut w = Worker {
        shared,
        me,
        rx,
        waiting: MatchingStore::new(),
        shard: IStructureShard::new(),
        wctx: shared.ctxs.handle(),
        struct_next: 0,
        struct_end: 0,
        local: BucketQueue::new(),
        obufs: (0..threads).map(|_| Vec::new()).collect(),
        tbufs: (0..threads).map(|_| Vec::new()).collect(),
        peers,
        emitted: Vec::new(),
        released: Vec::new(),
        holding: false,
        unpublished: 0,
        fired_seen: 0,
        halted: false,
        out: WorkerOut {
            outputs: HashMap::new(),
            fired: 0,
            alu_ops: 0,
            peak_matching: 0,
            stranded: 0,
            peak_deferred: 0,
            deferred_outstanding: 0,
            istore: IStoreCounts::default(),
            traces: EventBuffer::new(),
        },
    };
    w.run();
    w.out.fired += w.unpublished;
    w.out.stranded = w.waiting.len();
    w.out.deferred_outstanding = w.shard.deferred_outstanding();
    w.out
}

impl Worker<'_, '_> {
    fn run(&mut self) {
        loop {
            while !self.halted {
                let Some(t) = self.local.pop() else { break };
                self.process_token(t);
                if self.unpublished >= DRAIN_EVERY {
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

    fn trace(&mut self, ev: TraceEvent) {
        if self.shared.traced {
            self.out.traces.push(Cycle::ZERO, ev);
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
        let n = std::mem::take(&mut self.unpublished);
        self.out.fired += n;
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

    /// Local-queue priority of a token: its target's remaining
    /// critical-path height under `Crit`, a constant 0 under `Fifo`
    /// (which makes [`BucketQueue`] exactly a FIFO ring).
    fn prio(&self, tag: ActivityName) -> u32 {
        self.shared.crit.as_ref().map_or(0, |c| c.criticality(tag))
    }

    /// Routes a freshly produced token to its matching shard's owner:
    /// onto the local queue, or into that peer's outbound batch.
    fn route(&mut self, t: Token) {
        self.trace(TraceEvent::TokenEmit { pe: self.me as u32 });
        let w = owner(t.tag, self.shared.threads);
        if w == self.me {
            self.local.push(self.prio(t.tag), t);
        } else {
            self.tbufs[w].push(t);
        }
    }

    /// Dispatches a structure op to its owning shard — inline when this
    /// worker owns the structure, batched otherwise.
    fn dispatch_op(&mut self, tag: ActivityName, action: StructAction) {
        let ptr_id = match &action {
            StructAction::Fetch { ptr, .. } | StructAction::Store { ptr, .. } => ptr.id,
            StructAction::Alloc { .. } => unreachable!("allocations are resolved by the firer"),
        };
        let op = StructOp { tag, action };
        let owner = shard_of(ptr_id, self.shared.threads);
        if owner == self.me {
            self.apply_op(op);
        } else {
            self.obufs[owner].push(ShardOp::Op(op));
        }
    }

    /// Registers a newly allocated structure with its owning shard.
    fn dispatch_create(&mut self, id: u32, len: usize) {
        let owner = shard_of(id, self.shared.threads);
        if owner == self.me {
            self.shard.create(id, len);
        } else {
            self.obufs[owner].push(ShardOp::Create { id, len });
        }
    }

    /// Applies one fetch/store against the local shard, routing any
    /// produced tokens (fetched values, released readers).
    fn apply_op(&mut self, op: StructOp) {
        // A store's completion signal was already routed by its firer
        // (see `process_token`), so only a fetch has a continuation here.
        let dests = match op.action {
            StructAction::Fetch { .. } => dests_of(self.shared.program, op.tag),
            _ => &[],
        };
        let mut released = std::mem::take(&mut self.released);
        let res = apply_one(
            &mut self.shard,
            op,
            dests,
            Cycle::ZERO,
            self.shared.traced,
            &mut self.out.istore,
            &mut released,
            &mut self.out.traces,
        );
        match res {
            Ok(()) => {
                for t in released.drain(..) {
                    self.route(t);
                }
                self.out.peak_deferred = self
                    .out
                    .peak_deferred
                    .max(self.shard.deferred_outstanding());
            }
            Err(e) => {
                released.clear();
                self.fail(e);
            }
        }
        self.released = released;
    }

    /// Takes a structure id from the private lease, refilling it from
    /// the shared counter when exhausted.
    fn take_struct_id(&mut self) -> u32 {
        if self.struct_next == self.struct_end {
            self.struct_next = self
                .shared
                .next_struct
                .fetch_add(STRUCT_LEASE, Ordering::SeqCst);
            self.struct_end = self.struct_next + STRUCT_LEASE;
        }
        let id = self.struct_next;
        self.struct_next += 1;
        id
    }

    /// Absorbs one token into the local matching shard and executes the
    /// firing it enables, if any.
    fn process_token(&mut self, token: Token) {
        self.trace(TraceEvent::TokenConsume { pe: self.me as u32 });
        let enabled = match absorb(self.shared.program, &mut self.waiting, token) {
            Ok(enabled) => enabled,
            Err(e) => {
                self.fail(e);
                return;
            }
        };
        self.out.peak_matching = self.out.peak_matching.max(self.waiting.len());
        let Some((tag, operands)) = enabled else {
            let occupancy = self.waiting.len() as u64;
            self.trace(TraceEvent::MatchWait {
                pe: self.me as u32,
                occupancy,
            });
            return;
        };
        let instr = self
            .shared
            .program
            .block(tag.c)
            .and_then(|b| b.instr(tag.s))
            .expect("absorb resolved the instruction");
        let eff = match execute(
            self.shared.program,
            &mut self.wctx,
            tag,
            instr,
            &operands,
            &mut self.emitted,
        ) {
            Ok(eff) => eff,
            Err(e) => {
                self.fail(e);
                return;
            }
        };
        self.unpublished += 1;
        if self.fired_seen + self.unpublished > self.shared.fuel {
            self.fail(ExecError::OutOfFuel);
            return;
        }
        if eff.is_alu {
            self.out.alu_ops += 1;
        }
        self.trace(TraceEvent::MatchFire {
            pe: self.me as u32,
            alu: eff.is_alu,
            busy: 0,
        });
        if let Some((slot, v)) = eff.output {
            self.out.outputs.insert(slot, v);
        }
        // Dispatch the structure op *before* routing any token of this
        // firing: a consumer reached through a token may issue a
        // dependent op, and the dependency must already be in the
        // owner's queue (see the module docs on causality).
        match eff.action {
            None => {}
            Some(StructAction::Alloc { len }) => {
                let id = self.take_struct_id();
                self.dispatch_create(id, len);
                let p = Value::Ptr(StructRef {
                    id,
                    len: len as u32,
                });
                for (rtag, port) in continuation(tag, &instr.dests) {
                    self.route(Token::new(rtag, port, p));
                }
            }
            Some(action @ StructAction::Fetch { .. }) => self.dispatch_op(tag, action),
            Some(action @ StructAction::Store { .. }) => {
                // The completion signal is emitted here, by the firer:
                // the op is flushed before the token, so a fetch the
                // signal unlocks cannot overtake the store.
                self.dispatch_op(tag, action);
                for (rtag, port) in continuation(tag, &instr.dests) {
                    self.route(Token::new(rtag, port, Value::Unit));
                }
            }
        }
        let mut emitted = std::mem::take(&mut self.emitted);
        for t in emitted.drain(..) {
            self.route(t);
        }
        self.emitted = emitted;
    }

    /// Flushes outbound batches: ops to every peer first, then tokens —
    /// the order the causality argument rests on. The whole flush is
    /// charged to `in_flight` in one step before the first send.
    fn flush(&mut self) {
        let n = self.obufs.iter().map(Vec::len).sum::<usize>()
            + self.tbufs.iter().map(Vec::len).sum::<usize>();
        if n == 0 {
            return;
        }
        self.shared.in_flight.fetch_add(n, Ordering::SeqCst);
        for w in 0..self.shared.threads {
            if !self.obufs[w].is_empty() {
                // A failed send means the peer exited on poison; the
                // batch no longer matters.
                let _ = self.peers[w].send(Msg::Ops(std::mem::take(&mut self.obufs[w])));
            }
        }
        for w in 0..self.shared.threads {
            if !self.tbufs[w].is_empty() {
                let _ = self.peers[w].send(Msg::Tokens(std::mem::take(&mut self.tbufs[w])));
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
                        ShardOp::Create { id, len } => self.shard.create(id, len),
                        ShardOp::Op(op) => self.apply_op(op),
                    }
                }
            }
            Msg::Tokens(ts) => {
                self.take_hold(ts.len());
                for t in ts {
                    self.local.push(self.prio(t.tag), t);
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

/// A structure operation routed to the shard that owns the structure.
struct StructOp {
    /// The firing's activity name (for error rendering).
    tag: ActivityName,
    action: StructAction,
}

/// Read and write counts of structure traffic.
#[derive(Debug, Clone, Copy, Default)]
struct IStoreCounts {
    /// Reads satisfied at once.
    immediate: u64,
    /// Reads that waited for their producer.
    deferred: u64,
    /// Writes.
    writes: u64,
}

/// The error for an op on a structure id no shard has registered.
fn dangling(tag: ActivityName, ptr: StructRef) -> ExecError {
    ExecError::BadTarget {
        activity: format!("{tag} (dangling {ptr:?})"),
    }
}

/// Applies one fetch/store to `shard`, pushing the tokens it produces
/// (fetched values, released readers, a store's completion signal) onto
/// `tokens` and its trace events onto `traces`.
#[allow(clippy::too_many_arguments)]
fn apply_one(
    shard: &mut IStructureShard<Value, (ActivityName, Port)>,
    op: StructOp,
    dests: &[Dest],
    now: Cycle,
    traced: bool,
    counts: &mut IStoreCounts,
    tokens: &mut Vec<Token>,
    traces: &mut EventBuffer,
) -> Result<(), ExecError> {
    let StructOp { tag, action } = op;
    match action {
        StructAction::Alloc { .. } => {
            unreachable!("allocations are resolved by the firer")
        }
        StructAction::Fetch { ptr, idx } => {
            for (rtag, port) in continuation(tag, dests) {
                let before = if traced {
                    shard
                        .store(ptr.id)
                        .ok_or_else(|| dangling(tag, ptr))?
                        .presence(Addr(idx))?
                } else {
                    Presence::Empty
                };
                let outcome = shard
                    .read(ptr.id, Addr(idx), (rtag, port))
                    .ok_or_else(|| dangling(tag, ptr))??;
                match outcome {
                    ReadOutcome::Value(v) => {
                        counts.immediate += 1;
                        tokens.push(Token::new(rtag, port, v));
                        if traced {
                            traces.push(
                                now,
                                TraceEvent::IStoreRead {
                                    module: ptr.id,
                                    immediate: true,
                                },
                            );
                        }
                    }
                    ReadOutcome::Deferred => {
                        counts.deferred += 1;
                        if traced {
                            traces.push(
                                now,
                                TraceEvent::IStoreRead {
                                    module: ptr.id,
                                    immediate: false,
                                },
                            );
                            let depth = shard
                                .store(ptr.id)
                                .expect("structure present")
                                .deferred_count(Addr(idx))?
                                as u64;
                            traces.push(
                                now,
                                TraceEvent::DeferEnqueue {
                                    module: ptr.id,
                                    depth,
                                },
                            );
                            if before != Presence::Deferred {
                                traces.push(
                                    now,
                                    TraceEvent::Presence {
                                        module: ptr.id,
                                        from: before.as_trace(),
                                        to: PresenceState::Deferred,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
        StructAction::Store { ptr, idx, value } => {
            let before = if traced {
                shard
                    .store(ptr.id)
                    .ok_or_else(|| dangling(tag, ptr))?
                    .presence(Addr(idx))?
            } else {
                Presence::Empty
            };
            // Released readers stream straight into the token buffer (the
            // packed store's zero-allocation release path).
            let released = shard
                .write_with(ptr.id, Addr(idx), value, |(rtag, port)| {
                    tokens.push(Token::new(rtag, port, value));
                })
                .ok_or_else(|| dangling(tag, ptr))??;
            counts.writes += 1;
            if traced {
                traces.push(now, TraceEvent::IStoreWrite { module: ptr.id });
                traces.push(
                    now,
                    TraceEvent::Presence {
                        module: ptr.id,
                        from: before.as_trace(),
                        to: PresenceState::Present,
                    },
                );
                if released > 0 {
                    traces.push(
                        now,
                        TraceEvent::DeferRelease {
                            module: ptr.id,
                            released: released as u64,
                        },
                    );
                }
            }
            for (rtag, port) in continuation(tag, dests) {
                tokens.push(Token::new(rtag, port, Value::Unit));
            }
        }
    }
    Ok(())
}
