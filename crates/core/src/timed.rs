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
use std::sync::Arc;

use ttda_net::{Fabric, FabricConfig, Ideal, NodeId, Topology};
use ttda_sim::{Cycle, EventQueue};
use ttda_trace::{SharedSink, TraceEvent};

use crate::context::ContextManager;
use crate::exec::StructAction;
use crate::graph::Program;
use crate::matching::MatchingStore;
use crate::pe::{seed, Emit, IStoreCounts, IUnit, Pe, Route, StructOp};
use crate::place::{place, MappingPolicy};
use crate::sched::{BucketQueue, CritMap, SchedPolicy};
use crate::tag::Token;
use crate::value::Value;
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
    /// arrival order — see [`SchedPolicy`]). The default is FIFO.
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
            sched: SchedPolicy::Fifo,
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

#[derive(Debug)]
enum Ev {
    /// A `d=0` token reaches a PE's input.
    Deliver { pe: usize, token: Token },
    /// A PE is ready to service its queue.
    Wake { pe: usize },
    /// A `d=1` packet reaches an I-structure module.
    IsOp { module: usize, op: StructOp },
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

/// One I-structure storage module: its slice of every structure, as an
/// I-structure unit, plus its single service port.
#[derive(Debug)]
struct ModState {
    unit: IUnit,
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
    /// Shared so a run can borrow instructions from its own handle while
    /// it mutates the fabric and sink through `&mut self`.
    program: Arc<Program>,
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
            program: Arc::new(program),
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

    /// Number of processing elements.
    pub fn pes(&self) -> usize {
        self.fabric.topology().ports()
    }

    /// The program loaded into program memory.
    pub fn program(&self) -> &Program {
        &self.program
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
        let mut net = Net {
            q: EventQueue::new(),
            fabric: &mut self.fabric,
            sink: self.sink.clone(),
            cfg,
            tokens_remote: 0,
        };

        let program = Arc::clone(&self.program);
        let mut core = Pe::new(&program, ContextManager::new(program.main));
        // Criticality lookup for the PE input queues; `None` under FIFO,
        // where every token lands at priority 0 and the bucket queue
        // degenerates to the historical ring.
        let crit = (cfg.sched == SchedPolicy::Crit).then(|| CritMap::of(&program));
        let prio = |t: &Token| crit.as_ref().map_or(0, |c| c.criticality(t.tag));
        let mut pes: Vec<PeState> = (0..n).map(|_| PeState::default()).collect();
        // Interleaved placement gives each module every n-th element.
        let stride = match cfg.placement {
            StructPlacement::Interleaved => n,
            StructPlacement::SingleModule => 1,
        };
        let mut modules: Vec<ModState> = (0..n)
            .map(|m| ModState {
                unit: IUnit::new(Some(m as u32), stride),
                port_free: Cycle::ZERO,
            })
            .collect();
        let mut next_struct: u32 = 0;
        let mut tokens_delivered: u64 = 0;
        let mut peak_matching: usize = 0;
        // Tokens parked across every PE's matching store, kept current at
        // each absorb instead of summed over the PEs per event.
        let mut waiting_total: usize = 0;
        let mut match_overflows: u64 = 0;
        let mut peak_queue: usize = 0;
        let mut end = Cycle::ZERO;

        // Inject every job's inputs at time zero, each under its own
        // fresh root context.
        let mut out = net.outlet(None, Cycle::ZERO);
        let ctx = &mut core.ctx;
        seed(&program, jobs, |b| ctx.new_root(b), |t| out.token(t))?;

        while let Some((now, ev)) = net.q.pop() {
            end = end.max(now);
            if now > cfg.max_cycles || core.fired > cfg.fuel {
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
                        net.q.push(now.max(p.busy_until), Ev::Wake { pe });
                    }
                }
                Ev::Wake { pe } => {
                    let p = &mut pes[pe];
                    let Some(token) = p.queue.pop() else {
                        p.wake_scheduled = false;
                        continue;
                    };
                    let mut busy = cfg.match_time;
                    if cfg.match_capacity > 0 && p.waiting.len() >= cfg.match_capacity {
                        busy += cfg.match_overflow_penalty;
                        match_overflows += 1;
                    }
                    let parked_before = p.waiting.len();
                    let mut route = PeRoute {
                        out: net.outlet(Some(pe), now),
                        now,
                        busy,
                        alu_busy: &mut p.alu_busy,
                        next_struct: &mut next_struct,
                    };
                    core.step(pe as u32, &mut p.waiting, token, &mut route)?;
                    p.busy_until = now + route.busy;
                    waiting_total = waiting_total - parked_before + p.waiting.len();
                    peak_matching = peak_matching.max(waiting_total);
                    if p.queue.is_empty() {
                        p.wake_scheduled = false;
                    } else {
                        net.q.push(p.busy_until, Ev::Wake { pe });
                    }
                }
                Ev::IsOp { module, op } => {
                    let m = &mut modules[module];
                    let start = now.max(m.port_free);
                    // Writes cost 2x: presence-bit prefetch (§2.1).
                    let access = match op.action {
                        StructAction::Store { .. } => cfg.istore_access.saturating_mul(2),
                        _ => cfg.istore_access,
                    };
                    let done = start + access;
                    m.port_free = done;
                    // A module creates its slice of a structure on first
                    // access; an id no `IAlloc` made stays absent, and
                    // the unit reports the pointer as dangling.
                    let ptr = op.target().0;
                    if ptr.id < next_struct {
                        m.unit.ensure(ptr);
                    }
                    m.unit
                        .apply(&program, op, &mut net.outlet(Some(module), done))?;
                }
            }
        }

        // Quiescent: verify nothing is stranded. Deferred *readers* are
        // counted (not deferred cells), matching the emulator's figure.
        let stranded: usize = waiting_total
            + modules
                .iter()
                .map(|m| m.unit.deferred_outstanding())
                .sum::<usize>();
        if stranded > 0 {
            return Err(ExecError::Deadlock { stranded });
        }
        // The event queue drained and nothing is parked: every emitted
        // token has been consumed.
        if let Some(s) = &net.sink {
            s.borrow_mut()
                .record(end, &TraceEvent::Halt { in_flight: 0 });
        }
        let tokens_remote = net.tokens_remote;

        let per_pe_alu_busy: Vec<Cycle> = pes.iter().map(|p| p.alu_busy).collect();
        let alu_busy = per_pe_alu_busy.iter().copied().sum();
        let counts = |f: fn(&IStoreCounts) -> u64| modules.iter().map(|m| f(&m.unit.counts)).sum();
        let net = self.fabric.stats();
        Ok(TimedResult {
            outputs: core.outputs,
            stats: MachineStats {
                pes: n,
                cycles: end,
                instructions: core.fired,
                alu_ops: core.alu_ops,
                alu_busy,
                per_pe_alu_busy,
                tokens_delivered,
                tokens_remote,
                contexts: core.ctx.allocated(),
                peak_matching,
                match_overflows,
                peak_queue,
                istore_immediate: counts(|c| c.immediate),
                istore_deferred: counts(|c| c.deferred),
                istore_writes: counts(|c| c.writes),
                net_packets: net.packets.get(),
                net_mean_hops: net.mean_hops(),
            },
        })
    }
}

/// The interconnect of one run: the event queue and the network every
/// output section sends through.
struct Net<'a, T> {
    q: EventQueue<Ev>,
    fabric: &'a mut Fabric<T>,
    sink: Option<SharedSink>,
    cfg: TimedConfig,
    /// Tokens and `d=1` packets that crossed the network.
    tokens_remote: u64,
}

impl<'a, T> Net<'a, T> {
    /// The output section of node `from` (`None` for the host, whose
    /// input tokens arrive at once), sending at `at`.
    fn outlet(&mut self, from: Option<usize>, at: Cycle) -> Outlet<'_, 'a, T> {
        Outlet {
            net: self,
            from,
            at,
        }
    }
}

/// The output section of one node — a PE, an I-structure module or the
/// host — at one instant: a token stays on its PE through the local
/// loopback or crosses the network.
struct Outlet<'n, 'a, T> {
    net: &'n mut Net<'a, T>,
    from: Option<usize>,
    at: Cycle,
}

impl<T: Topology> Outlet<'_, '_, T> {
    /// When a packet sent now from this node reaches node `to`.
    fn send(&mut self, to: usize) -> Cycle {
        match self.from {
            None => self.at,
            Some(from) if from == to => self.at + self.net.cfg.local_delay,
            Some(from) => {
                self.net.tokens_remote += 1;
                self.net.fabric.send(self.at, NodeId(from), NodeId(to))
            }
        }
    }
}

impl<T: Topology> Emit for Outlet<'_, '_, T> {
    fn traced(&self) -> bool {
        self.net.sink.is_some()
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(s) = &self.net.sink {
            s.borrow_mut().record(self.at, &ev);
        }
    }

    fn token(&mut self, token: Token) {
        // The output section's mapping function.
        let pes = self.net.fabric.topology().ports();
        let pe = place(self.net.cfg.mapping, token.tag, pes);
        self.trace(TraceEvent::TokenEmit { pe: pe as u32 });
        let arrive = self.send(pe);
        self.net.q.push(arrive, Ev::Deliver { pe, token });
    }
}

/// A PE's route: it is busy for its service times, then its tokens and
/// `d=1` packets leave through the output section.
struct PeRoute<'n, 'a, T> {
    out: Outlet<'n, 'a, T>,
    /// When the PE took the token.
    now: Cycle,
    /// The PE's service time for this token so far.
    busy: Cycle,
    alu_busy: &'n mut Cycle,
    next_struct: &'n mut u32,
}

impl<'n, 'a, T: Topology> Route for PeRoute<'n, 'a, T> {
    type Out = Outlet<'n, 'a, T>;

    fn out(&mut self) -> &mut Outlet<'n, 'a, T> {
        &mut self.out
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(s) = &self.out.net.sink {
            s.borrow_mut().record(self.now, &ev);
        }
    }

    fn fired(&mut self, alu: bool, emitted: usize) -> u64 {
        let cfg = self.out.net.cfg;
        self.busy += cfg.alu_time;
        if alu {
            *self.alu_busy += cfg.alu_time;
        }
        self.busy += cfg.output_time.saturating_mul(emitted as u64);
        self.out.at = self.now + self.busy;
        self.busy.as_u64()
    }

    /// Allocation is a controller (`d=2`) job at the firing PE.
    fn alloc(&mut self, _len: usize) -> u32 {
        let id = *self.next_struct;
        *self.next_struct += 1;
        id
    }

    fn op(&mut self, op: StructOp) -> Result<(), ExecError> {
        let (ptr, idx) = op.target();
        let n = self.out.net.fabric.topology().ports();
        let module = match self.out.net.cfg.placement {
            StructPlacement::Interleaved => (ptr.id as usize + idx) % n,
            StructPlacement::SingleModule => ptr.id as usize % n,
        };
        let arrive = self.out.send(module);
        self.out.net.q.push(arrive, Ev::IsOp { module, op });
        Ok(())
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
