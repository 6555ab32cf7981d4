//! The parallel wave-execution backend of the [`Emulator`](crate::Emulator).
//!
//! The paper's group built a 32–128-processor emulation facility (Fig
//! 3-1) because measuring the parallelism profiles of *large* programs on
//! one processor was too slow. This module is that facility for the
//! reproduction: it executes the emulator's waves across a pool of scoped
//! worker threads while producing an [`EmuResult`] that is **bit-identical**
//! to the sequential backend's, for every program.
//!
//! # The decoordinated steady state
//!
//! The first version of this backend funnelled every context allocation
//! and every structure operation through the coordinating thread — the
//! very von Neumann bottleneck the paper argues against. The steady state
//! is now coordinator-free:
//!
//! - **Leased id ranges.** Workers allocate context ids from pre-leased
//!   blocks of a lock-free [`SharedContexts`] table, so `D`/`Apply`
//!   firings execute *on the workers* without a round-trip through the
//!   coordinator and without any context lock. Context id values then
//!   differ from a sequential run, but they never escape an
//!   [`EmuResult`]: `contexts` is the semantic allocation count, which
//!   the shared loop-activation memo keeps exact.
//! - **Batched shard traffic.** A firing's `IFetch`/`IStore` is buffered
//!   on the executing worker, keyed by the shard that owns the structure,
//!   and flushed as **one message per peer per wave** on a dedicated
//!   worker-to-worker channel (combining, per the Ultracomputer
//!   retrospective). The owning shard sorts the merged batches by wave
//!   index before applying, reproducing sequential per-structure order.
//!   Only structure *ids* still come from the coordinator's merge walk,
//!   because they escape into results via [`Value::Ptr`] and must be
//!   dense in firing order.
//! - **Work stealing.** Absorption is owner-only (a token must enter its
//!   home matching shard), but execution of the enabled firings is pure.
//!   Each worker publishes its ready firings in a shared per-worker
//!   queue; a worker that drains its own queue steals the back half of
//!   the most-loaded peer's queue instead of idling at the wave barrier.
//!   Results carry their wave index, so the merge is oblivious to who
//!   executed what. Steals are reported as `WorkSteal` trace events —
//!   scheduling annotations whose count and position depend on host
//!   scheduling; the semantic event stream is unchanged.
//!
//! # How determinism is preserved
//!
//! Within one wave the sequential backend processes tokens in wave order:
//! absorb into the waiting–matching store (updating the running occupancy
//! peak per token), fire if enabled, apply any I-structure action inline,
//! and append the firing's outputs to the next wave. The parallel backend
//! reproduces that order exactly from unordered parallel work:
//!
//! - **Sharded matching.** Each worker owns the waiting–matching shard
//!   for the activity names that hash to it, so a token's absorption is a
//!   pure function of its shard's state. Workers absorb their tokens in
//!   ascending wave index and report `(index, occupancy delta)` records;
//!   the coordinator replays the deltas in index order, which
//!   reconstructs the exact running occupancy — and thus `peak_matching` —
//!   of a sequential run.
//! - **Sharded structures.** Allocation ids are assigned by the
//!   coordinator in firing order; fetches and stores are applied by the
//!   owning shard in ascending wave index (cut at the first error's
//!   index, as the coordinator instructs). Operations on distinct
//!   structures commute, so per-shard index order reproduces the
//!   sequential cell states, released-reader orders and
//!   immediate/deferred counts.
//! - **Deterministic merge.** The next wave is assembled strictly in
//!   firing order: each firing's direct output tokens, then its structure
//!   action's tokens — the exact append order of the sequential `fire`.
//!   Trace events are synthesized (or replayed from worker-filled
//!   [`EventBuffer`]s) in the same order, so order-sensitive sinks
//!   observe the sequential event stream (plus the scheduling
//!   annotations noted above, emitted after the wave's semantic events).
//! - **Error precedence.** The first error in wave-index order wins, and
//!   an `OutOfFuel` at firing *q* loses to any error at a firing ≤ *q* —
//!   exactly the sequential control flow. Workers may speculatively
//!   execute firings past an error's index; everything they produce is
//!   discarded by the index cut, and the run returns `Err`, so nothing
//!   speculative is observable.
//!
//! `loop_bound` (k-bounded loops) forces the sequential backend: its
//! holding-pen scheduling is a global, order-sensitive fixpoint that
//! would serialize the workers anyway.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use ttda_mem::{shard_of, Addr, IStructureShard, Presence, ReadOutcome};
use ttda_sim::Cycle;
use ttda_trace::{EventBuffer, PresenceState, SharedSink, TraceEvent};

use crate::context::{SharedContexts, WorkerCtx};
use crate::emu::EmuResult;
use crate::exec::{absorb, execute, Continuation, StructAction};
use crate::graph::Program;
use crate::matching::{MatchingStore, Operands};
use crate::place::{place, MappingPolicy};
use crate::sched::{CritMap, SchedPolicy};
use crate::tag::{ActivityName, Iter, Port, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// A structure operation routed to the shard that owns the structure.
pub(crate) struct StructOp {
    /// Wave index of the firing that requested the operation.
    pub(crate) index: u32,
    /// The firing's activity name (for error rendering).
    pub(crate) tag: ActivityName,
    pub(crate) action: StructAction,
}

/// Work sent from the coordinator to one worker.
enum Job {
    /// Absorb this worker's (possibly empty) slice of a wave in ascending
    /// wave index, then join the shared execution pool — executing own
    /// and stolen firings — until the wave's enabled set is exhausted.
    Wave(Vec<(u32, Token)>),
    /// Apply the structure operations batched at this shard (own plus
    /// everything peers flushed over the ops channel), in ascending wave
    /// index, skipping ops at indices ≥ `cut` (the first error's index).
    /// `creates` registers ids the coordinator allocated this wave.
    Struct {
        now: Cycle,
        creates: Vec<(u32, usize)>,
        cut: u32,
    },
}

/// Everything a worker-side firing produced. `Fetch`/`Store` actions are
/// *not* here — they went straight to the owning shard's batch buffer.
struct FireOut {
    is_alu: bool,
    tokens: Vec<Token>,
    output: Option<(u32, Value)>,
    /// An `IAlloc` request: the coordinator assigns the id (dense, in
    /// firing order) and builds the pointer tokens.
    alloc: Option<(usize, Continuation)>,
}

/// An enabled firing awaiting execution (by its owner or by a thief).
struct Ready {
    index: u32,
    tag: ActivityName,
    operands: Operands,
}

struct WaveReply {
    /// `(wave index, occupancy delta)` per absorbed token, in order.
    deltas: Vec<(u32, isize)>,
    /// Executed firings (own and stolen), keyed by wave index.
    fires: Vec<(u32, FireOut)>,
    err: Option<(u32, ExecError)>,
    /// Whether this worker buffered any structure ops this wave.
    has_ops: bool,
    /// `(victim, firings moved)` per steal this worker performed.
    steals: Vec<(u32, u64)>,
}

/// Tokens and trace events produced by one structure operation.
pub(crate) struct OpOut {
    pub(crate) index: u32,
    pub(crate) tokens: Vec<Token>,
    pub(crate) traces: EventBuffer,
}

struct StructReply {
    outs: Vec<OpOut>,
    err: Option<(u32, ExecError)>,
    /// Deferred reads outstanding in this worker's shard after the ops.
    deferred_outstanding: usize,
    immediate: u64,
    deferred: u64,
    writes: u64,
}

enum Reply {
    Wave(WaveReply),
    Struct(StructReply),
}

/// Firings an owner drains from its own queue per lock acquisition.
const DRAIN_BATCH: usize = 8;

/// State shared by all workers for intra-wave work stealing.
struct StealPool {
    /// Per-worker ready queues. Owners push their whole enabled set and
    /// pop from the front; thieves split off the back half.
    queues: Vec<Mutex<VecDeque<Ready>>>,
    /// Advisory per-queue lengths for victim selection.
    loads: Vec<AtomicUsize>,
    /// Workers that have finished absorbing this wave.
    absorb_done: AtomicUsize,
    /// Firings published / executed this wave. The execution phase is
    /// over when `absorb_done == threads` and `executed == published`.
    published: AtomicUsize,
    executed: AtomicUsize,
}

impl StealPool {
    fn new(threads: usize) -> Self {
        StealPool {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            loads: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            absorb_done: AtomicUsize::new(0),
            published: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
        }
    }

    /// Coordinator-side reset between waves. Safe because every worker
    /// has replied, so none is touching the pool.
    fn reset(&self) {
        self.absorb_done.store(0, Ordering::SeqCst);
        self.published.store(0, Ordering::SeqCst);
        self.executed.store(0, Ordering::SeqCst);
    }
}

/// Entry point: the parallel equivalent of `Emulator::submit`. `fuel`
/// is the already-resolved batch budget (machine fuel merged with the
/// jobs' fuel shares by the caller). `threads == 1` runs the full
/// protocol with a single worker — that is what the coordinator-overhead
/// benchmark measures.
pub(crate) fn submit(
    program: &Program,
    jobs: &[crate::machine::Job],
    threads: usize,
    fuel: u64,
    sched: SchedPolicy,
    sink: Option<SharedSink>,
) -> Result<EmuResult, ExecError> {
    debug_assert!(threads >= 1, "parallel backend needs at least one worker");
    let crit = (sched == SchedPolicy::Crit).then(|| CritMap::of(program));
    let ctxs = SharedContexts::new(program.main);
    let mut wave: Vec<Token> = Vec::new();
    for job in jobs {
        let (block_id, inputs) = (&job.block, &job.inputs);
        let block = program.block(*block_id).ok_or(ExecError::BadTarget {
            activity: block_id.to_string(),
        })?;
        if inputs.len() != block.params.len() {
            return Err(ExecError::InputArity {
                expected: block.params.len(),
                got: inputs.len(),
            });
        }
        let root = ctxs.new_root(*block_id);
        for (k, v) in inputs.iter().enumerate() {
            wave.push(Token::new(
                ActivityName {
                    u: root,
                    c: *block_id,
                    s: block.params[k],
                    i: Iter::ONE,
                },
                Port(0),
                *v,
            ));
        }
    }
    if let Some(s) = &sink {
        let mut s = s.borrow_mut();
        for _ in 0..wave.len() {
            s.record(Cycle::ZERO, &TraceEvent::TokenEmit { pe: 0 });
        }
    }

    let pool = StealPool::new(threads);
    let traced = sink.is_some();
    std::thread::scope(|scope| {
        let (job_txs, job_rxs): (Vec<_>, Vec<_>) = (0..threads).map(|_| channel::<Job>()).unzip();
        let (ops_txs, ops_rxs): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| channel::<Vec<StructOp>>()).unzip();
        let (reply_txs, reply_rxs): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| channel::<Reply>()).unzip();
        for (me, ((jobs_rx, ops_rx), reply_tx)) in
            job_rxs.into_iter().zip(ops_rxs).zip(reply_txs).enumerate()
        {
            let h = WorkerHandle {
                program,
                ctxs: &ctxs,
                pool: &pool,
                me,
                threads,
                traced,
                jobs: jobs_rx,
                ops_in: ops_rx,
                replies: reply_tx,
                peers: ops_txs.clone(),
            };
            scope.spawn(move || worker(h));
        }
        // Workers hold the only long-lived ops senders; nobody ever
        // *blocks* on an ops channel, so the sender cycle between
        // workers cannot deadlock the scope's implicit join.
        drop(ops_txs);
        let d = Driver {
            ctxs: &ctxs,
            pool: &pool,
            fuel,
            crit,
            job_txs,
            reply_rxs,
        };
        // `d` owns the job senders; dropping it on return hangs up the
        // workers.
        drive(&d, sink, wave)
    })
}

/// Coordinator-side handles for one run.
struct Driver<'a> {
    ctxs: &'a SharedContexts,
    pool: &'a StealPool,
    fuel: u64,
    /// `Some` under [`SchedPolicy::Crit`]: the wave is stably reordered
    /// by descending criticality *before* wave indices are assigned.
    crit: Option<CritMap>,
    job_txs: Vec<Sender<Job>>,
    reply_rxs: Vec<Receiver<Reply>>,
}

/// The coordinator's wave loop. See the module docs for the phase plan.
fn drive(
    d: &Driver<'_>,
    sink: Option<SharedSink>,
    mut wave: Vec<Token>,
) -> Result<EmuResult, ExecError> {
    const DEAD: &str = "emulator worker thread terminated unexpectedly";
    let threads = d.job_txs.len();
    let traced = sink.is_some();
    let trace = |now: Cycle, ev: &TraceEvent| {
        if let Some(s) = &sink {
            s.borrow_mut().record(now, ev);
        }
    };

    let mut outputs: HashMap<u32, Value> = HashMap::new();
    let mut profile: Vec<usize> = Vec::new();
    let mut instructions: u64 = 0;
    let mut alu_ops: u64 = 0;
    let mut peak_matching: usize = 0;
    let mut waiting_total: usize = 0;
    let mut peak_deferred: usize = 0;
    let mut deferred_by_worker = vec![0usize; threads];
    let mut istore_immediate: u64 = 0;
    let mut istore_deferred: u64 = 0;
    let mut istore_writes: u64 = 0;
    let mut next_struct_id: u32 = 0;
    let mut now = Cycle::ZERO;

    while !wave.is_empty() {
        let wlen = wave.len();
        d.pool.reset();

        // Criticality scheduling happens *here*, before wave indices
        // exist: the stable sort (ties keep arrival order) makes the
        // reordered wave a pure function of the graph and the previous
        // wave, and everything downstream — sharding, absorption,
        // occupancy replay, the index-ordered merge — runs on the
        // post-sort indices. That is why a `Crit` run is bit-identical
        // to the sequential backend's at every thread count.
        if let Some(crit) = &d.crit {
            wave.sort_by_key(|t| std::cmp::Reverse(crit.criticality(t.tag)));
        }

        // Phase 1: shard the wave's tokens by activity name. Every
        // worker gets its (possibly empty) slice — workers with little
        // to absorb join the wave as thieves.
        let mut parts: Vec<Vec<(u32, Token)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, t) in wave.into_iter().enumerate() {
            parts[place(MappingPolicy::Spread, t.tag, threads)].push((i as u32, t));
        }
        for (w, part) in parts.into_iter().enumerate() {
            d.job_txs[w].send(Job::Wave(part)).expect(DEAD);
        }
        let mut deltas: Vec<Option<isize>> = vec![None; wlen];
        let mut fires: Vec<Option<FireOut>> = (0..wlen).map(|_| None).collect();
        let mut first_err: Option<(u32, ExecError)> = None;
        let mut any_ops = false;
        let mut steal_log: Vec<(u32, u32, u64)> = Vec::new();
        for (w, rx) in d.reply_rxs.iter().enumerate() {
            let Reply::Wave(rep) = rx.recv().expect(DEAD) else {
                unreachable!("struct reply outside the structure phase");
            };
            for (i, delta) in rep.deltas {
                deltas[i as usize] = Some(delta);
            }
            for (i, f) in rep.fires {
                fires[i as usize] = Some(f);
            }
            if let Some((i, e)) = rep.err {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
            any_ops |= rep.has_ops;
            for (victim, moved) in rep.steals {
                steal_log.push((w as u32, victim, moved));
            }
        }

        // Phase 2: walk the records in wave order — assign structure
        // ids in firing order and find the fuel crossing. (Unlike the
        // original protocol there is nothing to execute and no lock to
        // take here: workers already fired everything.)
        struct Slot {
            index: u32,
            fired: FireOut,
            alloc_tokens: Vec<Token>,
        }
        let mut merged: Vec<(isize, Option<usize>)> = Vec::with_capacity(wlen);
        let mut slots: Vec<Slot> = Vec::new();
        let mut creates: Vec<Vec<(u32, usize)>> = (0..threads).map(|_| Vec::new()).collect();
        let mut fuel_idx: Option<u32> = None;
        for i in 0..wlen {
            if first_err.as_ref().is_some_and(|(j, _)| i as u32 >= *j) {
                break;
            }
            let delta = deltas[i].expect("every token before the first error has a record");
            let Some(mut fired) = fires[i].take() else {
                merged.push((delta, None));
                continue;
            };
            // The sequential backend checks the budget after every
            // firing; record where this wave would cross it.
            if fuel_idx.is_none() && instructions + slots.len() as u64 + 1 > d.fuel {
                fuel_idx = Some(i as u32);
            }
            let mut alloc_tokens: Vec<Token> = Vec::new();
            if let Some((len, dests)) = fired.alloc.take() {
                let id = next_struct_id;
                next_struct_id += 1;
                creates[shard_of(id, threads)].push((id, len));
                let p = Value::Ptr(StructRef {
                    id,
                    len: len as u32,
                });
                for (rtag, port) in dests {
                    alloc_tokens.push(Token::new(rtag, port, p));
                }
            }
            merged.push((delta, Some(slots.len())));
            slots.push(Slot {
                index: i as u32,
                fired,
                alloc_tokens,
            });
        }

        // Phase 3: tell the shards to apply the batches peers flushed to
        // them (plus this wave's creates), cut at the first error.
        let cut = first_err.as_ref().map_or(u32::MAX, |(j, _)| *j);
        let need_struct = any_ops || creates.iter().any(|c| !c.is_empty());
        let mut op_outs: Vec<Option<OpOut>> = (0..wlen).map(|_| None).collect();
        if need_struct {
            for (w, c) in creates.iter_mut().enumerate() {
                d.job_txs[w]
                    .send(Job::Struct {
                        now,
                        creates: std::mem::take(c),
                        cut,
                    })
                    .expect(DEAD);
            }
            for (w, rx) in d.reply_rxs.iter().enumerate() {
                let Reply::Struct(rep) = rx.recv().expect(DEAD) else {
                    unreachable!("wave reply inside the structure phase");
                };
                for o in rep.outs {
                    let i = o.index as usize;
                    op_outs[i] = Some(o);
                }
                if let Some((i, e)) = rep.err {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
                deferred_by_worker[w] = rep.deferred_outstanding;
                istore_immediate += rep.immediate;
                istore_deferred += rep.deferred;
                istore_writes += rep.writes;
            }
        }

        // Error precedence, exactly as the sequential control flow has
        // it: the budget check runs *after* a successful firing, so an
        // error at firing index <= the crossing index wins.
        match (first_err.take(), fuel_idx) {
            (Some((ei, e)), Some(fi)) => {
                return Err(if ei <= fi { e } else { ExecError::OutOfFuel });
            }
            (Some((_, e)), None) => return Err(e),
            (None, Some(_)) => return Err(ExecError::OutOfFuel),
            (None, None) => {}
        }

        // Phase 4: deterministic merge — replay the wave in index order,
        // reconstructing counters, traces and the next wave exactly as
        // the sequential backend builds them.
        let fired_count = slots.len();
        let mut next: Vec<Token> = Vec::new();
        for (delta, slot_idx) in merged {
            trace(now, &TraceEvent::TokenConsume { pe: 0 });
            waiting_total = (waiting_total as isize + delta) as usize;
            peak_matching = peak_matching.max(waiting_total);
            let Some(si) = slot_idx else {
                trace(
                    now,
                    &TraceEvent::MatchWait {
                        pe: 0,
                        occupancy: waiting_total as u64,
                    },
                );
                continue;
            };
            let slot = &mut slots[si];
            instructions += 1;
            if slot.fired.is_alu {
                alu_ops += 1;
            }
            trace(
                now,
                &TraceEvent::MatchFire {
                    pe: 0,
                    alu: slot.fired.is_alu,
                    busy: 0,
                },
            );
            if let Some((s, v)) = slot.fired.output.take() {
                outputs.insert(s, v);
            }
            let mut emitted = slot.fired.tokens.len();
            next.append(&mut slot.fired.tokens);
            if let Some(op) = op_outs[slot.index as usize].as_mut() {
                if let Some(sk) = &sink {
                    op.traces.replay_into(sk);
                }
                emitted += op.tokens.len();
                next.append(&mut op.tokens);
            }
            emitted += slot.alloc_tokens.len();
            next.append(&mut slot.alloc_tokens);
            if traced {
                for _ in 0..emitted {
                    trace(now, &TraceEvent::TokenEmit { pe: 0 });
                }
            }
        }

        // Scheduling annotations: after the wave's semantic events,
        // before its WaveEnd.
        if traced {
            for (by, from, moved) in steal_log {
                trace(
                    now,
                    &TraceEvent::WorkSteal {
                        pe: by,
                        from,
                        moved,
                    },
                );
            }
        }

        peak_deferred = peak_deferred.max(deferred_by_worker.iter().sum());
        if fired_count > 0 {
            profile.push(fired_count);
            trace(
                now,
                &TraceEvent::WaveEnd {
                    fired: fired_count as u64,
                },
            );
            now = now.saturating_add(Cycle(1));
        }
        wave = next;
    }

    let stranded = waiting_total + deferred_by_worker.iter().sum::<usize>();
    if stranded > 0 {
        return Err(ExecError::Deadlock { stranded });
    }
    trace(now, &TraceEvent::Halt { in_flight: 0 });

    Ok(EmuResult {
        outputs,
        instructions,
        alu_ops,
        waves: profile.len() as u64,
        profile,
        contexts: d.ctxs.allocated(),
        peak_matching,
        peak_deferred,
        istore_immediate,
        istore_deferred,
        istore_writes,
    })
}

/// Everything one worker needs for the whole run.
struct WorkerHandle<'a> {
    program: &'a Program,
    ctxs: &'a SharedContexts,
    pool: &'a StealPool,
    me: usize,
    threads: usize,
    traced: bool,
    jobs: Receiver<Job>,
    /// Structure-op batches peers flushed to this shard. Drained (never
    /// blocked on) when the coordinator starts the structure phase — by
    /// then every batch is already enqueued, because peers flush before
    /// replying and the coordinator waits for all replies.
    ops_in: Receiver<Vec<StructOp>>,
    replies: Sender<Reply>,
    /// The ops channels of all workers (index = owning shard).
    peers: Vec<Sender<Vec<StructOp>>>,
}

/// One worker: owns a waiting–matching shard, an I-structure shard and a
/// context-id lease for the whole run, draining jobs until the
/// coordinator hangs up.
fn worker(h: WorkerHandle<'_>) {
    let mut waiting = MatchingStore::new();
    let mut shard: IStructureShard<Value, (ActivityName, Port)> = IStructureShard::new();
    let mut wctx = h.ctxs.handle();
    let mut own_ops: Vec<StructOp> = Vec::new();
    while let Ok(job) = h.jobs.recv() {
        let reply = match job {
            Job::Wave(tokens) => {
                let (rep, own) = run_wave(&h, &mut waiting, &mut wctx, tokens);
                own_ops = own;
                Reply::Wave(rep)
            }
            Job::Struct { now, creates, cut } => {
                let mut ops = std::mem::take(&mut own_ops);
                for mut batch in h.ops_in.try_iter() {
                    ops.append(&mut batch);
                }
                ops.retain(|o| o.index < cut);
                ops.sort_unstable_by_key(|o| o.index);
                Reply::Struct(apply_struct_ops(&mut shard, now, creates, ops, h.traced))
            }
        };
        if h.replies.send(reply).is_err() {
            return;
        }
    }
}

/// Per-wave worker-local execution state.
struct ExecState {
    fires: Vec<(u32, FireOut)>,
    /// Structure ops buffered per owning shard, flushed once per peer at
    /// the end of the wave.
    opbufs: Vec<Vec<StructOp>>,
    err: Option<(u32, ExecError)>,
    steals: Vec<(u32, u64)>,
}

/// Worker side of a wave: absorb the slice in wave order, publish the
/// enabled firings, then execute (own and stolen) firings until the
/// wave's enabled set is globally exhausted. Flushes this worker's
/// structure-op batches to their owning shards before returning; the
/// owner's own batch is returned for local application.
fn run_wave(
    h: &WorkerHandle<'_>,
    waiting: &mut MatchingStore,
    wctx: &mut WorkerCtx<'_>,
    tokens: Vec<(u32, Token)>,
) -> (WaveReply, Vec<StructOp>) {
    let mut deltas = Vec::with_capacity(tokens.len());
    let mut err: Option<(u32, ExecError)> = None;
    let mut ready: Vec<Ready> = Vec::new();
    for (index, token) in tokens {
        let before = waiting.len() as isize;
        match absorb(h.program, waiting, token) {
            Ok(absorbed) => {
                deltas.push((index, waiting.len() as isize - before));
                if let Some((tag, operands)) = absorbed {
                    ready.push(Ready {
                        index,
                        tag,
                        operands,
                    });
                }
            }
            Err(e) => {
                err = Some((index, e));
                break;
            }
        }
    }

    let mut exec = ExecState {
        fires: Vec::new(),
        opbufs: (0..h.threads).map(|_| Vec::new()).collect(),
        err,
        steals: Vec::new(),
    };

    if h.threads == 1 {
        // Single worker: nothing to steal, skip the shared pool.
        for r in ready {
            exec_one(h, wctx, r, &mut exec);
        }
    } else {
        let n = ready.len();
        if n > 0 {
            let mut q = h.pool.queues[h.me].lock().expect("steal queue poisoned");
            q.extend(ready);
            h.pool.loads[h.me].store(q.len(), Ordering::Relaxed);
            drop(q);
            h.pool.published.fetch_add(n, Ordering::SeqCst);
        }
        h.pool.absorb_done.fetch_add(1, Ordering::SeqCst);
        execute_pool(h, wctx, &mut exec);
    }

    let has_ops = exec.opbufs.iter().any(|b| !b.is_empty());
    let mut own = Vec::new();
    for (w, buf) in exec.opbufs.drain(..).enumerate() {
        if w == h.me {
            own = buf;
        } else if !buf.is_empty() {
            // A send can only fail during teardown, when the batch no
            // longer matters.
            let _ = h.peers[w].send(buf);
        }
    }
    (
        WaveReply {
            deltas,
            fires: exec.fires,
            err: exec.err,
            has_ops,
            steals: exec.steals,
        },
        own,
    )
}

/// The shared execution phase of one wave: drain the own queue (a batch
/// per lock acquisition), then steal from the most-loaded peer, until
/// every published firing of the wave has been executed by someone.
fn execute_pool(h: &WorkerHandle<'_>, wctx: &mut WorkerCtx<'_>, exec: &mut ExecState) {
    let pool = h.pool;
    let mut batch: Vec<Ready> = Vec::new();
    loop {
        {
            let mut q = pool.queues[h.me].lock().expect("steal queue poisoned");
            let take = q.len().min(DRAIN_BATCH);
            batch.extend(q.drain(..take));
            pool.loads[h.me].store(q.len(), Ordering::Relaxed);
        }
        if !batch.is_empty() {
            for r in batch.drain(..) {
                exec_one(h, wctx, r, exec);
                pool.executed.fetch_add(1, Ordering::SeqCst);
            }
            continue;
        }
        if pool.absorb_done.load(Ordering::SeqCst) == h.threads
            && pool.executed.load(Ordering::SeqCst) == pool.published.load(Ordering::SeqCst)
        {
            return;
        }
        let victim = (0..h.threads)
            .filter(|&w| w != h.me)
            .max_by_key(|&w| pool.loads[w].load(Ordering::Relaxed))
            .filter(|&w| pool.loads[w].load(Ordering::Relaxed) > 0);
        if let Some(v) = victim {
            {
                let mut q = pool.queues[v].lock().expect("steal queue poisoned");
                let keep = q.len() / 2;
                batch.extend(q.drain(keep..));
                pool.loads[v].store(q.len(), Ordering::Relaxed);
            }
            if !batch.is_empty() {
                exec.steals.push((v as u32, batch.len() as u64));
                for r in batch.drain(..) {
                    exec_one(h, wctx, r, exec);
                    pool.executed.fetch_add(1, Ordering::SeqCst);
                }
                continue;
            }
        }
        std::thread::yield_now();
    }
}

/// Executes one enabled firing on this worker (its owner or a thief):
/// `D`/`Apply` allocate from the worker's context lease; `Fetch`/`Store`
/// actions are buffered for their owning shard; `Alloc` rides back to
/// the coordinator for dense id assignment.
fn exec_one(h: &WorkerHandle<'_>, wctx: &mut WorkerCtx<'_>, r: Ready, exec: &mut ExecState) {
    let Ready {
        index,
        tag,
        operands,
    } = r;
    let instr = h
        .program
        .block(tag.c)
        .and_then(|b| b.instr(tag.s))
        .expect("absorb resolved the instruction");
    match execute(h.program, wctx, tag, instr, &operands) {
        Ok(mut eff) => {
            let mut alloc = None;
            match eff.action.take() {
                None => {}
                Some(StructAction::Alloc { len, dests }) => alloc = Some((len, dests)),
                Some(action @ StructAction::Fetch { .. })
                | Some(action @ StructAction::Store { .. }) => {
                    let ptr = match &action {
                        StructAction::Fetch { ptr, .. } | StructAction::Store { ptr, .. } => *ptr,
                        StructAction::Alloc { .. } => unreachable!(),
                    };
                    exec.opbufs[shard_of(ptr.id, h.threads)].push(StructOp { index, tag, action });
                }
            }
            exec.fires.push((
                index,
                FireOut {
                    is_alu: eff.is_alu,
                    tokens: eff.tokens,
                    output: eff.output,
                    alloc,
                },
            ));
        }
        Err(e) => {
            if exec.err.as_ref().is_none_or(|(j, _)| index < *j) {
                exec.err = Some((index, e));
            }
        }
    }
}

pub(crate) fn dangling(tag: ActivityName, ptr: StructRef) -> ExecError {
    ExecError::BadTarget {
        activity: format!("{tag} (dangling {ptr:?})"),
    }
}

/// Worker side of the structure phase: register this wave's allocations
/// owned by the shard, then apply fetches/stores in wave order,
/// mirroring the sequential backend's inline handling (including its
/// trace event order, buffered for coordinator replay).
fn apply_struct_ops(
    shard: &mut IStructureShard<Value, (ActivityName, Port)>,
    now: Cycle,
    creates: Vec<(u32, usize)>,
    ops: Vec<StructOp>,
    traced: bool,
) -> StructReply {
    for (id, len) in creates {
        shard.create(id, len);
    }
    let mut outs = Vec::with_capacity(ops.len());
    let mut err = None;
    let mut immediate = 0u64;
    let mut deferred = 0u64;
    let mut writes = 0u64;
    for op in ops {
        match apply_one(
            shard,
            op,
            now,
            traced,
            &mut immediate,
            &mut deferred,
            &mut writes,
        ) {
            Ok(out) => outs.push(out),
            Err((i, e)) => {
                err = Some((i, e));
                break;
            }
        }
    }
    StructReply {
        outs,
        err,
        deferred_outstanding: shard.deferred_outstanding(),
        immediate,
        deferred,
        writes,
    }
}

/// Applies one fetch/store to its owning shard, mirroring the
/// sequential backend's inline handling — tokens and trace events come
/// back in the exact sequential order. Shared with the relaxed backend
/// (which passes `index = 0`: it has no wave order to preserve).
pub(crate) fn apply_one(
    shard: &mut IStructureShard<Value, (ActivityName, Port)>,
    op: StructOp,
    now: Cycle,
    traced: bool,
    immediate: &mut u64,
    deferred: &mut u64,
    writes: &mut u64,
) -> Result<OpOut, (u32, ExecError)> {
    let StructOp { index, tag, action } = op;
    let mut out = OpOut {
        index,
        tokens: Vec::new(),
        traces: EventBuffer::new(),
    };
    let fail = |e: ExecError| (index, e);
    match action {
        StructAction::Alloc { .. } => {
            unreachable!("allocations are resolved on the coordinator")
        }
        StructAction::Fetch { ptr, idx, dests } => {
            for (rtag, port) in dests {
                let before = if traced {
                    shard
                        .store(ptr.id)
                        .ok_or_else(|| fail(dangling(tag, ptr)))?
                        .presence(Addr(idx))
                        .map_err(|e| fail(e.into()))?
                } else {
                    Presence::Empty
                };
                let outcome = shard
                    .read(ptr.id, Addr(idx), (rtag, port))
                    .ok_or_else(|| fail(dangling(tag, ptr)))?
                    .map_err(|e| fail(e.into()))?;
                match outcome {
                    ReadOutcome::Value(v) => {
                        *immediate += 1;
                        out.tokens.push(Token::new(rtag, port, v));
                        if traced {
                            out.traces.push(
                                now,
                                TraceEvent::IStoreRead {
                                    module: ptr.id,
                                    immediate: true,
                                },
                            );
                        }
                    }
                    ReadOutcome::Deferred => {
                        *deferred += 1;
                        if traced {
                            out.traces.push(
                                now,
                                TraceEvent::IStoreRead {
                                    module: ptr.id,
                                    immediate: false,
                                },
                            );
                            let depth = shard
                                .store(ptr.id)
                                .expect("structure present")
                                .deferred_count(Addr(idx))
                                .map_err(|e| fail(e.into()))?
                                as u64;
                            out.traces.push(
                                now,
                                TraceEvent::DeferEnqueue {
                                    module: ptr.id,
                                    depth,
                                },
                            );
                            if before != Presence::Deferred {
                                out.traces.push(
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
        StructAction::Store {
            ptr,
            idx,
            value,
            dests,
        } => {
            let before = if traced {
                shard
                    .store(ptr.id)
                    .ok_or_else(|| fail(dangling(tag, ptr)))?
                    .presence(Addr(idx))
                    .map_err(|e| fail(e.into()))?
            } else {
                Presence::Empty
            };
            // Released readers stream straight into the reply's token
            // buffer (the packed store's zero-allocation release path).
            let tokens = &mut out.tokens;
            let released = shard
                .write_with(ptr.id, Addr(idx), value, |(rtag, port)| {
                    tokens.push(Token::new(rtag, port, value));
                })
                .ok_or_else(|| fail(dangling(tag, ptr)))?
                .map_err(|e| fail(e.into()))?;
            *writes += 1;
            if traced {
                out.traces
                    .push(now, TraceEvent::IStoreWrite { module: ptr.id });
                out.traces.push(
                    now,
                    TraceEvent::Presence {
                        module: ptr.id,
                        from: before.as_trace(),
                        to: PresenceState::Present,
                    },
                );
                if released > 0 {
                    out.traces.push(
                        now,
                        TraceEvent::DeferRelease {
                            module: ptr.id,
                            released: released as u64,
                        },
                    );
                }
            }
            for (rtag, port) in dests {
                out.tokens.push(Token::new(rtag, port, Value::Unit));
            }
        }
    }
    Ok(out)
}
