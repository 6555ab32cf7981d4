//! The detailed machine model (the *simulation* prong of Fig 3-1).
//!
//! A [`TimedMachine`] is `n` processing elements — each with its own
//! waiting–matching store, ALU, output section and attached I-structure
//! module — connected by any [`Topology`] from `ttda-net`. The model
//! charges explicit service times to each pipeline section (Fig 2-4) and
//! routes every inter-PE token and every `d=1` I-structure packet through
//! the network, so it "accounts for communication as well as processing
//! simulated time".
//!
//! The headline measurements are ALU utilization
//! ([`MachineStats::alu_utilization`]) and the latency-tolerance
//! behaviour: because a PE never waits for a response — it just keeps
//! consuming tokens from its input queue — utilization stays high as
//! network latency grows, *provided the program has parallelism to spare*
//! (the paper's claim, tested in E1/E14).

use std::collections::HashMap;

use ttda_mem::{Addr, IStructureError, IStructureShard, Presence};
use ttda_net::{Fabric, FabricConfig, Ideal, NodeId, Topology};
use ttda_sim::{Cycle, EventQueue};
use ttda_trace::{PresenceState, SharedSink, TraceEvent};

use crate::context::ContextManager;
use crate::exec::{absorb, execute, Continuation, StructAction};
use crate::graph::Program;
use crate::matching::MatchingStore;
use crate::place::{place, MappingPolicy};
use crate::sched::{env_sched, BucketQueue, CritMap, SchedPolicy};
use crate::tag::{ActivityName, Iter, Port, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// Where an I-structure's elements live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructPlacement {
    /// Element `i` of structure `s` lives on module `(s + i) mod n`: the
    /// TTDA arrangement, spreading one structure's traffic across every
    /// module.
    Interleaved,
    /// All of structure `s` lives on module `s mod n`: simpler
    /// controllers, but a heavily shared structure turns its home module
    /// into a hot spot (ablation A3).
    SingleModule,
}

/// Service times and sizing for a [`TimedMachine`].
#[derive(Debug, Clone, Copy)]
pub struct TimedConfig {
    /// Waiting–matching section service per token.
    pub match_time: Cycle,
    /// Instruction-fetch + ALU service per firing.
    pub alu_time: Cycle,
    /// Output section service per emitted token (new tag + routing
    /// translation).
    pub output_time: Cycle,
    /// Base access time of an I-structure module (reads cost 1×, writes
    /// 2× per §2.1).
    pub istore_access: Cycle,
    /// Delay for a token that stays on its own PE (the PE-internal
    /// loopback path of Fig 2-4).
    pub local_delay: Cycle,
    /// Activity→PE mapping policy.
    pub mapping: MappingPolicy,
    /// Waiting–matching store capacity per PE (0 = unbounded). The real
    /// machine's associative store was finite; entries beyond capacity
    /// overflow to a slower backing store, modelled as
    /// [`TimedConfig::match_overflow_penalty`] extra cycles per access
    /// that lands while the store is over capacity.
    pub match_capacity: usize,
    /// Extra service time per token handled while the PE's
    /// waiting–matching store is over capacity.
    pub match_overflow_penalty: Cycle,
    /// I-structure element placement across modules.
    pub placement: StructPlacement,
    /// How each PE orders its input queue: FIFO (arrival order) or
    /// criticality-aware (longest remaining critical path first, ties in
    /// arrival order — see [`SchedPolicy`]). The default honours
    /// `TTDA_SCHED`, falling back to FIFO.
    pub sched: SchedPolicy,
    /// Network queueing parameters.
    pub fabric: FabricConfig,
    /// Hard wall-clock limit.
    pub max_cycles: Cycle,
    /// Hard firing limit.
    pub fuel: u64,
}

impl Default for TimedConfig {
    fn default() -> Self {
        TimedConfig {
            match_time: Cycle(1),
            alu_time: Cycle(1),
            output_time: Cycle(1),
            istore_access: Cycle(4),
            local_delay: Cycle(1),
            mapping: MappingPolicy::ByIteration,
            match_capacity: 0,
            match_overflow_penalty: Cycle(4),
            placement: StructPlacement::Interleaved,
            sched: env_sched(),
            fabric: FabricConfig::default(),
            max_cycles: Cycle(100_000_000),
            fuel: 50_000_000,
        }
    }
}

/// Aggregate measurements from one timed run.
#[derive(Debug, Clone)]
pub struct MachineStats {
    /// Number of processing elements.
    pub pes: usize,
    /// Completion time.
    pub cycles: Cycle,
    /// Instruction firings.
    pub instructions: u64,
    /// Firings that were ALU work.
    pub alu_ops: u64,
    /// Summed ALU busy time across PEs.
    pub alu_busy: Cycle,
    /// Per-PE ALU busy time.
    pub per_pe_alu_busy: Vec<Cycle>,
    /// Tokens delivered to PE input queues.
    pub tokens_delivered: u64,
    /// Tokens that crossed the network (vs PE-local loopback).
    pub tokens_remote: u64,
    /// Contexts allocated.
    pub contexts: usize,
    /// Peak total waiting–matching occupancy across PEs.
    pub peak_matching: usize,
    /// Tokens serviced while their PE's matching store was over its
    /// configured capacity (each paid the overflow penalty).
    pub match_overflows: u64,
    /// Peak PE input-queue depth (token backlog).
    pub peak_queue: usize,
    /// I-structure reads satisfied immediately.
    pub istore_immediate: u64,
    /// I-structure reads deferred.
    pub istore_deferred: u64,
    /// I-structure writes.
    pub istore_writes: u64,
    /// Packets the network carried.
    pub net_packets: u64,
    /// Mean hops per network packet.
    pub net_mean_hops: f64,
}

impl MachineStats {
    /// Mean ALU utilization: total ALU-busy time over `pes × cycles` —
    /// the paper's figure of merit for multiprocessors.
    pub fn alu_utilization(&self) -> f64 {
        let denom = self.cycles.as_u64().saturating_mul(self.pes as u64);
        if denom == 0 {
            0.0
        } else {
            self.alu_busy.as_u64() as f64 / denom as f64
        }
    }

    /// Fraction of tokens that crossed the network.
    pub fn remote_fraction(&self) -> f64 {
        if self.tokens_delivered == 0 {
            0.0
        } else {
            self.tokens_remote as f64 / self.tokens_delivered as f64
        }
    }
}

/// Outputs plus measurements.
#[derive(Debug, Clone)]
pub struct TimedResult {
    /// Program outputs by slot.
    pub outputs: HashMap<u32, Value>,
    /// Machine measurements.
    pub stats: MachineStats,
}

/// Surfaces a module-local store error with structure-global
/// coordinates: the per-module stores work in local cells, but every
/// other engine reports the element index the program actually used.
fn globalize(e: IStructureError, ptr: StructRef, idx: usize) -> ExecError {
    ExecError::IStructure(match e {
        IStructureError::OutOfRange { .. } => IStructureError::OutOfRange {
            addr: Addr(idx),
            size: ptr.len as usize,
        },
        IStructureError::AlreadyWritten { .. } => {
            IStructureError::AlreadyWritten { addr: Addr(idx) }
        }
    })
}

#[derive(Debug)]
enum Ev {
    /// A `d=0` token reaches a PE's input.
    Deliver { pe: usize, token: Token },
    /// A PE is ready to service its queue.
    Wake { pe: usize },
    /// A `d=1` packet reaches an I-structure module.
    IsOp { module: usize, action: StructAction },
}

#[derive(Debug, Default)]
struct PeState {
    /// Input token queue: a FIFO ring under [`SchedPolicy::Fifo`]
    /// (everything arrives at priority 0), a criticality-bucketed
    /// priority queue under [`SchedPolicy::Crit`].
    queue: BucketQueue<Token>,
    waiting: MatchingStore,
    busy_until: Cycle,
    wake_scheduled: bool,
    alu_busy: Cycle,
}

/// One I-structure storage module: its slice of every structure (a
/// lazily-materialized [`IStructureShard`] over the packed store — the
/// same storage engine the emulator and the parallel backend run on)
/// plus its single service port.
#[derive(Debug, Default)]
struct ModState {
    store: IStructureShard<Value, (ActivityName, Port)>,
    port_free: Cycle,
}

/// The detailed multi-PE tagged-token machine.
///
/// # Example
///
/// ```
/// use ttda_core::{AluOp, GraphBuilder, OpCode, TimedConfig, TimedMachine, Value};
/// use ttda_sim::Cycle;
///
/// let mut g = GraphBuilder::new("add");
/// let a = g.param();
/// let b = g.param();
/// let add = g.instr(OpCode::Alu(AluOp::Add));
/// let out = g.output(0);
/// g.wire(a, add, 0).wire(b, add, 1).wire(add, out, 0);
/// let p = g.finish_program().unwrap();
///
/// let mut m = TimedMachine::ideal(p, 4, Cycle(10), TimedConfig::default());
/// let r = m.run(&[Value::Int(3), Value::Int(4)]).unwrap();
/// assert_eq!(r.outputs[&0], Value::Int(7));
/// assert!(r.stats.cycles > Cycle(0));
/// ```
pub struct TimedMachine<T> {
    program: Program,
    config: TimedConfig,
    fabric: Fabric<T>,
    sink: Option<SharedSink>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for TimedMachine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedMachine")
            .field("config", &self.config)
            .field("fabric", &self.fabric)
            .field("traced", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl TimedMachine<Ideal> {
    /// Convenience: a machine whose `pes` PEs are joined by an
    /// [`Ideal`] network of the given latency (used by latency sweeps).
    pub fn ideal(program: Program, pes: usize, latency: Cycle, config: TimedConfig) -> Self {
        TimedMachine::new(program, Ideal::new(pes, latency), config)
    }
}

impl<T: Topology> TimedMachine<T> {
    /// Builds a machine over `topology`; the PE count is the topology's
    /// port count (each port hosts one PE + one I-structure module, as in
    /// Fig 2-3's "PE, PE, ... I-structure storage" arrangement).
    pub fn new(program: Program, topology: T, config: TimedConfig) -> Self {
        TimedMachine {
            program,
            config,
            fabric: Fabric::new(topology, config.fabric),
            sink: None,
        }
    }

    /// Attaches a trace sink. The sink is also threaded into the network
    /// fabric, so one sink observes token lifecycle, I-structure and
    /// packet events for the whole machine.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.fabric.set_sink(Some(sink.clone()));
        self.sink = Some(sink);
        self
    }

    /// Overrides the firing budget ([`TimedConfig::fuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.config.fuel = fuel;
        self
    }

    /// Accepts the shared [`Machine`](crate::Machine) thread setting.
    /// The timed model is a discrete-event simulation driven by one
    /// event queue — its *simulated* PEs are already "parallel", and host
    /// threading does not apply — so the value is ignored; the method
    /// exists so engine-generic configuration code compiles against both
    /// engines.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Number of processing elements.
    pub fn pes(&self) -> usize {
        self.fabric.topology().ports()
    }

    /// The program loaded into program memory.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The output section's mapping function.
    fn pe_of(&self, tag: ActivityName) -> usize {
        place(self.config.mapping, tag, self.pes())
    }

    fn module_of(&self, ptr: StructRef, idx: usize) -> usize {
        match self.config.placement {
            StructPlacement::Interleaved => (ptr.id as usize + idx) % self.pes(),
            StructPlacement::SingleModule => ptr.id as usize % self.pes(),
        }
    }

    /// The owning module's (local cell, local slice size) for element
    /// `idx` of `ptr`. Interleaved placement strides elements round-robin
    /// across modules, so a module holds every `pes`-th element and the
    /// local index is `idx / pes`; a single-module structure maps 1:1.
    /// Bounds are enforced at slice granularity (`len.div_ceil(pes)`
    /// cells per module), which catches out-of-range indices the old
    /// per-cell hash map silently accepted.
    fn local_slot(&self, ptr: StructRef, idx: usize) -> (Addr, usize) {
        match self.config.placement {
            StructPlacement::Interleaved => {
                let n = self.pes();
                (Addr(idx / n), (ptr.len as usize).div_ceil(n))
            }
            StructPlacement::SingleModule => (Addr(idx), ptr.len as usize),
        }
    }

    /// Executes the program on `inputs`.
    ///
    /// # Errors
    ///
    /// The same error conditions as [`Emulator::run`](crate::Emulator),
    /// plus [`ExecError::OutOfFuel`] when the cycle horizon is exceeded.
    pub fn run(&mut self, inputs: &[Value]) -> Result<TimedResult, ExecError> {
        let main = self.program.main;
        self.submit(&[crate::machine::Job::new(main, inputs.to_vec())])
    }

    /// Multiprogramming: launches a batch of independent [`Job`]s (each
    /// a block and its inputs, typically former mains from
    /// [`Program::merge`]) under
    /// fresh root contexts and runs the machine to joint quiescence —
    /// tokens of different jobs interleave freely through the same PEs,
    /// matching stores and network, and can never collide. A job's
    /// `tenant` label is accounting metadata for schedulers and is
    /// ignored here; fuel shares pool into a joint batch budget (see
    /// [`Job::fuel`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimedMachine::run`].
    ///
    /// [`Job`]: crate::machine::Job
    /// [`Job::fuel`]: crate::machine::Job::fuel
    pub fn submit(&mut self, jobs: &[crate::machine::Job]) -> Result<TimedResult, ExecError> {
        self.fabric.reset();
        let n = self.pes();
        let mut cfg = self.config;
        cfg.fuel = crate::machine::batch_fuel(cfg.fuel, jobs);
        // A local clone keeps the disabled-tracing cost at one branch per
        // event site and sidesteps borrows of `self` held below.
        let sink = self.sink.clone();
        let trace = |at: Cycle, ev: &TraceEvent| {
            if let Some(s) = &sink {
                s.borrow_mut().record(at, ev);
            }
        };

        let mut ctx = ContextManager::new(self.program.main);
        // Criticality lookup for the PE input queues; `None` under FIFO,
        // where every token lands at priority 0 and the bucket queue
        // degenerates to the historical ring.
        let crit = (cfg.sched == SchedPolicy::Crit).then(|| CritMap::of(&self.program));
        let prio = |t: &Token| crit.as_ref().map_or(0, |c| c.criticality(t.tag));
        let mut pes: Vec<PeState> = (0..n).map(|_| PeState::default()).collect();
        let mut modules: Vec<ModState> = (0..n).map(|_| ModState::default()).collect();
        let mut next_struct: u32 = 0;
        let mut outputs = HashMap::new();
        let mut q: EventQueue<Ev> = EventQueue::new();

        let mut instructions: u64 = 0;
        let mut alu_ops: u64 = 0;
        let mut tokens_delivered: u64 = 0;
        let mut tokens_remote: u64 = 0;
        let mut peak_matching: usize = 0;
        let mut match_overflows: u64 = 0;
        let mut peak_queue: usize = 0;
        let mut is_immediate: u64 = 0;
        let mut is_deferred: u64 = 0;
        let mut is_writes: u64 = 0;
        let mut end = Cycle::ZERO;

        // Inject every job's inputs at time zero, each under its own
        // fresh root context.
        for job in jobs {
            let (block_id, inputs) = (&job.block, &job.inputs);
            let block = self.program.block(*block_id).ok_or(ExecError::BadTarget {
                activity: block_id.to_string(),
            })?;
            if inputs.len() != block.params.len() {
                return Err(ExecError::InputArity {
                    expected: block.params.len(),
                    got: inputs.len(),
                });
            }
            let root = ctx.new_root(*block_id);
            for (k, v) in inputs.iter().enumerate() {
                let tag = ActivityName {
                    u: root,
                    c: *block_id,
                    s: block.params[k],
                    i: Iter::ONE,
                };
                let pe = self.pe_of(tag);
                q.push(
                    Cycle::ZERO,
                    Ev::Deliver {
                        pe,
                        token: Token::new(tag, Port(0), *v),
                    },
                );
                trace(Cycle::ZERO, &TraceEvent::TokenEmit { pe: pe as u32 });
            }
        }

        while let Some((now, ev)) = q.pop() {
            end = end.max(now);
            if now > cfg.max_cycles || instructions > cfg.fuel {
                return Err(ExecError::OutOfFuel);
            }
            match ev {
                Ev::Deliver { pe, token } => {
                    tokens_delivered += 1;
                    let p = &mut pes[pe];
                    p.queue.push(prio(&token), token);
                    peak_queue = peak_queue.max(p.queue.len());
                    if !p.wake_scheduled {
                        p.wake_scheduled = true;
                        q.push(now.max(p.busy_until), Ev::Wake { pe });
                    }
                }
                Ev::Wake { pe } => {
                    let Some(token) = pes[pe].queue.pop() else {
                        pes[pe].wake_scheduled = false;
                        continue;
                    };
                    let mut busy = cfg.match_time;
                    if cfg.match_capacity > 0 && pes[pe].waiting.len() >= cfg.match_capacity {
                        busy += cfg.match_overflow_penalty;
                        match_overflows += 1;
                    }
                    let enabled = absorb(&self.program, &mut pes[pe].waiting, token)?;
                    if sink.is_some() {
                        trace(now, &TraceEvent::TokenConsume { pe: pe as u32 });
                        if enabled.is_none() {
                            trace(
                                now,
                                &TraceEvent::MatchWait {
                                    pe: pe as u32,
                                    occupancy: pes[pe].waiting.len() as u64,
                                },
                            );
                        }
                    }
                    if let Some((tag, ops)) = enabled {
                        let instr = self
                            .program
                            .block(tag.c)
                            .and_then(|b| b.instr(tag.s))
                            .ok_or_else(|| ExecError::BadTarget {
                                activity: tag.to_string(),
                            })?
                            .clone();
                        instructions += 1;
                        let eff = execute(&self.program, &mut ctx, tag, &instr, &ops)?;
                        busy += cfg.alu_time;
                        if eff.is_alu {
                            alu_ops += 1;
                            pes[pe].alu_busy += cfg.alu_time;
                        }
                        let emit_count = eff.tokens.len() as u64;
                        busy += cfg.output_time.saturating_mul(emit_count);
                        let done = now + busy;
                        trace(
                            now,
                            &TraceEvent::MatchFire {
                                pe: pe as u32,
                                alu: eff.is_alu,
                                busy: busy.as_u64(),
                            },
                        );

                        for t in eff.tokens {
                            let dest = self.pe_of(t.tag);
                            trace(done, &TraceEvent::TokenEmit { pe: dest as u32 });
                            if dest == pe {
                                q.push(done + cfg.local_delay, Ev::Deliver { pe: dest, token: t });
                            } else {
                                tokens_remote += 1;
                                let arrive = self.fabric.send(done, NodeId(pe), NodeId(dest));
                                q.push(arrive, Ev::Deliver { pe: dest, token: t });
                            }
                        }
                        if let Some((slot, v)) = eff.output {
                            outputs.insert(slot, v);
                        }
                        if let Some(action) = eff.action {
                            match action {
                                StructAction::Alloc { len, dests } => {
                                    // Allocation is a controller (d=2) job
                                    // at the firing PE.
                                    let ptr = Value::Ptr(StructRef {
                                        id: next_struct,
                                        len: len as u32,
                                    });
                                    next_struct += 1;
                                    self.route_value(
                                        &mut q,
                                        done,
                                        pe,
                                        ptr,
                                        &dests,
                                        &mut tokens_remote,
                                    );
                                }
                                StructAction::Fetch { ptr, idx, .. }
                                | StructAction::Store { ptr, idx, .. } => {
                                    let module = self.module_of(ptr, idx);
                                    let arrive = if module == pe {
                                        done + cfg.local_delay
                                    } else {
                                        tokens_remote += 1;
                                        self.fabric.send(done, NodeId(pe), NodeId(module))
                                    };
                                    q.push(arrive, Ev::IsOp { module, action });
                                }
                            }
                        }
                        pes[pe].busy_until = done;
                    } else {
                        pes[pe].busy_until = now + busy;
                    }
                    let total_waiting: usize = pes.iter().map(|p| p.waiting.len()).sum();
                    peak_matching = peak_matching.max(total_waiting);
                    let wake_at = pes[pe].busy_until;
                    if pes[pe].queue.is_empty() {
                        pes[pe].wake_scheduled = false;
                    } else {
                        q.push(wake_at, Ev::Wake { pe });
                    }
                }
                Ev::IsOp { module, action } => match action {
                    StructAction::Fetch { ptr, idx, dests } => {
                        let (local, size) = self.local_slot(ptr, idx);
                        let m = &mut modules[module];
                        let start = now.max(m.port_free);
                        let done = start + cfg.istore_access;
                        m.port_free = done;
                        m.store.ensure(ptr.id, size);
                        let before = m
                            .store
                            .store(ptr.id)
                            .expect("just ensured")
                            .presence(local)
                            .map_err(|e| globalize(e, ptr, idx))?;
                        if before == Presence::Present {
                            is_immediate += 1;
                            let v = *m
                                .store
                                .store(ptr.id)
                                .expect("just ensured")
                                .peek(local)
                                .expect("present cell holds a value");
                            trace(
                                done,
                                &TraceEvent::IStoreRead {
                                    module: module as u32,
                                    immediate: true,
                                },
                            );
                            self.route_value(&mut q, done, module, v, &dests, &mut tokens_remote);
                        } else {
                            is_deferred += 1;
                            for reader in dests {
                                m.store
                                    .read(ptr.id, local, reader)
                                    .expect("just ensured")
                                    .map_err(|e| globalize(e, ptr, idx))?;
                            }
                            if sink.is_some() {
                                let depth = m
                                    .store
                                    .store(ptr.id)
                                    .expect("just ensured")
                                    .deferred_count(local)
                                    .map_err(|e| globalize(e, ptr, idx))?;
                                trace(
                                    done,
                                    &TraceEvent::IStoreRead {
                                        module: module as u32,
                                        immediate: false,
                                    },
                                );
                                trace(
                                    done,
                                    &TraceEvent::DeferEnqueue {
                                        module: module as u32,
                                        depth: depth as u64,
                                    },
                                );
                                if before == Presence::Empty {
                                    trace(
                                        done,
                                        &TraceEvent::Presence {
                                            module: module as u32,
                                            from: PresenceState::Empty,
                                            to: PresenceState::Deferred,
                                        },
                                    );
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
                        let (local, size) = self.local_slot(ptr, idx);
                        let m = &mut modules[module];
                        let start = now.max(m.port_free);
                        // Writes cost 2x: presence-bit prefetch (§2.1).
                        let done = start + cfg.istore_access.saturating_mul(2);
                        m.port_free = done;
                        m.store.ensure(ptr.id, size);
                        let before = m
                            .store
                            .store(ptr.id)
                            .expect("just ensured")
                            .presence(local)
                            .map_err(|e| globalize(e, ptr, idx))?;
                        is_writes += 1;
                        // A double write is an error (surfaced by the
                        // store below), so only trace legal transitions.
                        // DeferRelease precedes the released TokenEmits,
                        // so its count comes from the pre-write depth.
                        if sink.is_some() && before != Presence::Present {
                            trace(
                                done,
                                &TraceEvent::IStoreWrite {
                                    module: module as u32,
                                },
                            );
                            trace(
                                done,
                                &TraceEvent::Presence {
                                    module: module as u32,
                                    from: before.as_trace(),
                                    to: PresenceState::Present,
                                },
                            );
                            if before == Presence::Deferred {
                                let depth = m
                                    .store
                                    .store(ptr.id)
                                    .expect("just ensured")
                                    .deferred_count(local)
                                    .map_err(|e| globalize(e, ptr, idx))?;
                                trace(
                                    done,
                                    &TraceEvent::DeferRelease {
                                        module: module as u32,
                                        released: depth as u64,
                                    },
                                );
                            }
                        }
                        // Released readers stream straight to the router
                        // (the packed store's zero-allocation release).
                        m.store
                            .write_with(ptr.id, local, value, |(tag, port)| {
                                self.route_one(
                                    &mut q,
                                    done,
                                    module,
                                    value,
                                    tag,
                                    port,
                                    &mut tokens_remote,
                                );
                            })
                            .expect("just ensured")
                            .map_err(|e| globalize(e, ptr, idx))?;
                        self.route_value(
                            &mut q,
                            done,
                            module,
                            Value::Unit,
                            &dests,
                            &mut tokens_remote,
                        );
                    }
                    StructAction::Alloc { .. } => unreachable!("alloc handled at the PE"),
                },
            }
        }

        // Quiescent: verify nothing is stranded. Deferred *readers* are
        // counted (not deferred cells), matching the emulator's figure.
        let stranded: usize = pes.iter().map(|p| p.waiting.len()).sum::<usize>()
            + modules
                .iter()
                .map(|m| m.store.deferred_outstanding())
                .sum::<usize>();
        if stranded > 0 {
            return Err(ExecError::Deadlock { stranded });
        }
        // The event queue drained and nothing is parked: every emitted
        // token has been consumed.
        trace(end, &TraceEvent::Halt { in_flight: 0 });

        let per_pe_alu_busy: Vec<Cycle> = pes.iter().map(|p| p.alu_busy).collect();
        let alu_busy = per_pe_alu_busy.iter().copied().sum();
        let net = self.fabric.stats();
        Ok(TimedResult {
            outputs,
            stats: MachineStats {
                pes: n,
                cycles: end,
                instructions,
                alu_ops,
                alu_busy,
                per_pe_alu_busy,
                tokens_delivered,
                tokens_remote,
                contexts: ctx.allocated(),
                peak_matching,
                match_overflows,
                peak_queue,
                istore_immediate: is_immediate,
                istore_deferred: is_deferred,
                istore_writes: is_writes,
                net_packets: net.packets.get(),
                net_mean_hops: net.mean_hops(),
            },
        })
    }

    /// Routes `value` from `from` to each continuation slot.
    fn route_value(
        &mut self,
        q: &mut EventQueue<Ev>,
        at: Cycle,
        from: usize,
        value: Value,
        dests: &Continuation,
        tokens_remote: &mut u64,
    ) {
        for &(tag, port) in dests {
            self.route_one(q, at, from, value, tag, port, tokens_remote);
        }
    }

    /// Routes a single token — the streaming unit [`route_value`]
    /// iterates, and the zero-allocation release path of the packed
    /// store invokes directly per released reader.
    #[allow(clippy::too_many_arguments)]
    fn route_one(
        &mut self,
        q: &mut EventQueue<Ev>,
        at: Cycle,
        from: usize,
        value: Value,
        tag: ActivityName,
        port: Port,
        tokens_remote: &mut u64,
    ) {
        let pe = self.pe_of(tag);
        let token = Token::new(tag, port, value);
        if let Some(s) = &self.sink {
            s.borrow_mut()
                .record(at, &TraceEvent::TokenEmit { pe: pe as u32 });
        }
        if pe == from {
            q.push(at + self.config.local_delay, Ev::Deliver { pe, token });
        } else {
            *tokens_remote += 1;
            let arrive = self.fabric.send(at, NodeId(from), NodeId(pe));
            q.push(arrive, Ev::Deliver { pe, token });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::OpCode;
    use crate::value::{AluOp, CmpOp};
    use crate::Emulator;

    fn sum_loop_program(upto: i64) -> (Program, Value) {
        let mut g = GraphBuilder::new("sum");
        let n = g.param();
        let zero = g.lit(Value::Int(0));
        let one = g.lit(Value::Int(1));
        g.wire(n, zero, 0);
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[zero, one, n],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[1], c, 0);
                    g.wire(tops[2], c, 1);
                    c
                },
                |g, vars| {
                    let acc = g.instr(OpCode::Alu(AluOp::Add));
                    g.wire(vars[0], acc, 0);
                    g.wire(vars[1], acc, 1);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[1], i2, 0);
                    vec![acc, i2, vars[2]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        (
            g.finish_program().unwrap(),
            Value::Int(upto * (upto + 1) / 2),
        )
    }

    #[test]
    fn timed_matches_emulator_on_loop() {
        let (p, expect) = sum_loop_program(30);
        let emu_out = Emulator::new(&p).run(&[Value::Int(30)]).unwrap().outputs[&0];
        for pes in [1, 2, 4, 8] {
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(5), TimedConfig::default());
            let r = m.run(&[Value::Int(30)]).unwrap();
            assert_eq!(r.outputs[&0], expect, "pes={pes}");
            assert_eq!(r.outputs[&0], emu_out);
        }
    }

    #[test]
    fn all_mapping_policies_agree_on_results() {
        let (p, expect) = sum_loop_program(15);
        for mapping in [
            MappingPolicy::ByIteration,
            MappingPolicy::ByContext,
            MappingPolicy::Spread,
        ] {
            let cfg = TimedConfig {
                mapping,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), 4, Cycle(3), cfg);
            let r = m.run(&[Value::Int(15)]).unwrap();
            assert_eq!(r.outputs[&0], expect, "{mapping:?}");
        }
    }

    #[test]
    fn istructure_traffic_is_split_phase() {
        // Producer chain delays the store; the fetch is deferred at the
        // module and delivered later, without any PE idling on it.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        let fetch = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, fetch, 0);
        let out = g.output(0);
        g.wire(fetch, out, 0);
        let mut v = x;
        for _ in 0..8 {
            let id = g.instr(OpCode::Identity);
            g.wire(v, id, 0);
            v = id;
        }
        let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        g.wire(alloc, store, 0);
        g.wire(v, store, 2);
        let sink = g.instr(OpCode::Sink);
        g.wire(store, sink, 0);
        let p = g.finish_program().unwrap();

        let mut m = TimedMachine::ideal(p, 2, Cycle(4), TimedConfig::default());
        let r = m.run(&[Value::Int(7)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(7));
        assert_eq!(r.stats.istore_deferred, 1);
        assert_eq!(r.stats.istore_writes, 1);
    }

    #[test]
    fn sink_ledger_balances_on_timed_runs() {
        use ttda_trace::{shared, CountingSink};

        let (p, expect) = sum_loop_program(25);
        let sink = shared(CountingSink::new());
        let mut m =
            TimedMachine::ideal(p, 4, Cycle(3), TimedConfig::default()).with_sink(sink.clone());
        let r = m.run(&[Value::Int(25)]).unwrap();
        assert_eq!(r.outputs[&0], expect);
        let s = sink.borrow();
        let c = s.as_any().downcast_ref::<CountingSink>().unwrap();
        assert!(
            c.token_conservation_holds(),
            "emitted {} consumed {}",
            c.tokens_emitted(),
            c.tokens_consumed()
        );
        assert!(c.quiescent());
        assert_eq!(c.tokens_emitted(), r.stats.tokens_delivered);
        assert_eq!(
            c.metrics().counter_value("match_fire"),
            r.stats.instructions
        );
        // Every remote token and istore packet crossed the traced fabric.
        assert_eq!(c.packets(), r.stats.net_packets);
    }

    #[test]
    fn utilization_tolerates_latency_with_parallelism() {
        // Many independent iterations: utilization on 2 PEs should not
        // collapse when network latency rises 10x.
        let (p, _) = sum_loop_program(200);
        let run_at = |lat: u64| {
            let mut m = TimedMachine::ideal(p.clone(), 2, Cycle(lat), TimedConfig::default());
            m.run(&[Value::Int(200)]).unwrap().stats.cycles
        };
        let t_fast = run_at(1).as_u64() as f64;
        let t_slow = run_at(20).as_u64() as f64;
        // A blocking design would slow down ~linearly in latency for its
        // remote fraction; the TTDA should degrade far less than 3x.
        assert!(
            t_slow / t_fast < 3.0,
            "latency 20x slowed the machine {}x",
            t_slow / t_fast
        );
    }

    #[test]
    fn stats_are_coherent() {
        let (p, _) = sum_loop_program(20);
        let mut m = TimedMachine::ideal(p, 4, Cycle(2), TimedConfig::default());
        let r = m.run(&[Value::Int(20)]).unwrap();
        let s = &r.stats;
        assert!(s.instructions > 40);
        assert!(s.alu_ops > 0 && s.alu_ops < s.instructions);
        assert!(s.alu_utilization() > 0.0 && s.alu_utilization() <= 1.0);
        assert!(s.tokens_remote <= s.tokens_delivered);
        assert!(s.remote_fraction() <= 1.0);
        assert!(s.contexts >= 2);
        assert_eq!(s.per_pe_alu_busy.len(), 4);
        assert!(s.net_packets > 0);
    }

    #[test]
    fn fuel_and_horizon_enforced() {
        let (p, _) = sum_loop_program(1000);
        let cfg = TimedConfig {
            fuel: 100,
            ..TimedConfig::default()
        };
        let mut m = TimedMachine::ideal(p.clone(), 2, Cycle(1), cfg);
        assert_eq!(
            m.run(&[Value::Int(1000)]).unwrap_err(),
            ExecError::OutOfFuel
        );

        let cfg = TimedConfig {
            max_cycles: Cycle(50),
            ..TimedConfig::default()
        };
        let mut m = TimedMachine::ideal(p, 2, Cycle(1), cfg);
        assert_eq!(
            m.run(&[Value::Int(1000)]).unwrap_err(),
            ExecError::OutOfFuel
        );
    }

    #[test]
    fn write_write_race_detected_in_timed_mode() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        for _ in 0..2 {
            let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
            g.wire(alloc, store, 0);
            g.wire(x, store, 2);
            let sink = g.instr(OpCode::Sink);
            g.wire(store, sink, 0);
        }
        let p = g.finish_program().unwrap();
        let mut m = TimedMachine::ideal(p, 2, Cycle(1), TimedConfig::default());
        assert!(matches!(
            m.run(&[Value::Int(1)]).unwrap_err(),
            ExecError::IStructure(_)
        ));
    }

    #[test]
    fn input_arity_checked() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        let mut m = TimedMachine::ideal(p, 1, Cycle(1), TimedConfig::default());
        assert_eq!(
            m.run(&[]).unwrap_err(),
            ExecError::InputArity {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn more_pes_scale_parallel_work() {
        // A wide program (many independent chains) should finish faster
        // on more PEs.
        let mut g = GraphBuilder::new("wide");
        let x = g.param();
        for k in 0..32u32 {
            let mut v = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(k as i64));
            g.wire(x, v, 0);
            for _ in 0..8 {
                let nx = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                g.wire(v, nx, 0);
                v = nx;
            }
            let out = g.output(k);
            g.wire(v, out, 0);
        }
        let p = g.finish_program().unwrap();
        let time = |pes: usize| {
            // Spread mapping so independent chains land on distinct PEs.
            let cfg = TimedConfig {
                mapping: MappingPolicy::Spread,
                ..TimedConfig::default()
            };
            let mut m = TimedMachine::ideal(p.clone(), pes, Cycle(1), cfg);
            m.run(&[Value::Int(0)]).unwrap().stats.cycles.as_u64()
        };
        let t1 = time(1);
        let t8 = time(8);
        assert!(t8 * 2 < t1, "8 PEs should be >2x faster: t1={t1} t8={t8}");
    }
}
