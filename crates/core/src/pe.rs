//! The firing core shared by every engine (DESIGN.md §18).
//!
//! The paper describes one processing element: the Fig 2-3 pipeline of
//! waiting–matching, instruction fetch, ALU and output section, plus
//! I-structure storage with presence bits and deferred-read lists
//! (Fig 2-1). [`Pe::step`] is that pipeline and [`IUnit`] is that
//! storage. The sequential emulator, the relaxed backend and the timed
//! machine differ only in *where and when* the tokens and structure ops
//! of a firing go; each engine says so by implementing [`Route`] (and
//! [`Emit`] for its output sections), statically dispatched.

use std::collections::HashMap;

use ttda_mem::{Addr, IStructureError, IStructureShard, Presence, ReadOutcome};
use ttda_trace::{PresenceState, TraceEvent};

use crate::context::ContextOps;
use crate::exec::{absorb, continuation, dests_of, execute, StructAction};
use crate::graph::{CodeBlockId, Program};
use crate::machine::Job;
use crate::matching::MatchingStore;
use crate::tag::{ActivityName, Ctx, Iter, Port, Token};
use crate::value::{StructRef, Value};
use crate::ExecError;

/// An output section: where the tokens and trace events of a PE or of
/// an I-structure unit go.
pub(crate) trait Emit {
    /// Whether a trace sink is attached. Work done only to build trace
    /// events is skipped when it is not.
    fn traced(&self) -> bool;
    /// Records a trace event at this output's clock.
    fn trace(&mut self, ev: TraceEvent);
    /// Sends a produced token on toward its matching store.
    fn token(&mut self, t: Token);
}

/// What an engine supplies to [`Pe::step`]: where a firing's tokens and
/// structure ops go, and when.
pub(crate) trait Route {
    /// The PE's output section.
    type Out: Emit;
    /// The output section that receives the firing's tokens.
    fn out(&mut self) -> &mut Self::Out;
    /// Records a pipeline event (consume, wait, fire) at the time the PE
    /// took the token; by default the output section's clock.
    fn trace(&mut self, ev: TraceEvent) {
        self.out().trace(ev);
    }
    /// Called once per firing after execution and before any token is
    /// routed, with whether the firing was ALU work and how many `d=0`
    /// tokens it emitted. Returns the PE busy time that the `MatchFire`
    /// event reports (0 on the untimed engines).
    fn fired(&mut self, _alu: bool, _emitted: usize) -> u64 {
        0
    }
    /// Allocates a structure of `len` elements and returns its id. The
    /// structure must reach its unit before any token that carries the
    /// pointer can reach a fetch or store through it.
    fn alloc(&mut self, len: usize) -> u32;
    /// Sends a fetch or store to the unit that owns the structure.
    fn op(&mut self, op: StructOp) -> Result<(), ExecError>;
}

/// The firing pipeline of a processing element and what it counts. The
/// waiting–matching store is passed to each [`step`](Pe::step), so one
/// core can serve every PE of a timed machine.
pub(crate) struct Pe<'p, C> {
    program: &'p Program,
    /// The context table that `D` and `Apply` allocate from.
    pub(crate) ctx: C,
    /// Firings.
    pub(crate) fired: u64,
    /// Firings that were ALU work.
    pub(crate) alu_ops: u64,
    /// Program outputs by slot.
    pub(crate) outputs: HashMap<u32, Value>,
    /// The firing path's token buffer, reused by every firing.
    emitted: Vec<Token>,
}

impl<'p, C: ContextOps> Pe<'p, C> {
    /// A core for `program` over the context table `ctx`.
    pub(crate) fn new(program: &'p Program, ctx: C) -> Self {
        Pe {
            program,
            ctx,
            fired: 0,
            alu_ops: 0,
            outputs: HashMap::new(),
            emitted: Vec::new(),
        }
    }

    /// Takes one token through the pipeline of PE `pe`: absorbs it into
    /// `waiting` and, if that enables an instruction, executes it,
    /// counts it, captures an output, resolves an `IAlloc`, and hands
    /// every produced token and structure op to `route`. Returns whether
    /// the token fired an instruction.
    pub(crate) fn step<R: Route>(
        &mut self,
        pe: u32,
        waiting: &mut MatchingStore,
        token: Token,
        route: &mut R,
    ) -> Result<bool, ExecError> {
        let enabled = absorb(self.program, waiting, token)?;
        let traced = route.out().traced();
        if traced {
            route.trace(TraceEvent::TokenConsume { pe });
            if enabled.is_none() {
                let occupancy = waiting.len() as u64;
                route.trace(TraceEvent::MatchWait { pe, occupancy });
            }
        }
        let Some((tag, instr, ops)) = enabled else {
            return Ok(false);
        };
        let eff = execute(
            self.program,
            &mut self.ctx,
            tag,
            instr,
            &ops,
            &mut self.emitted,
        )?;
        self.fired += 1;
        self.alu_ops += u64::from(eff.is_alu);
        let busy = route.fired(eff.is_alu, self.emitted.len());
        if traced {
            let alu = eff.is_alu;
            route.trace(TraceEvent::MatchFire { pe, alu, busy });
        }
        let out = route.out();
        for t in self.emitted.drain(..) {
            out.token(t);
        }
        if let Some((slot, v)) = eff.output {
            self.outputs.insert(slot, v);
        }
        match eff.action {
            None => {}
            Some(StructAction::Alloc { len }) => {
                let id = route.alloc(len);
                let p = Value::Ptr(StructRef {
                    id,
                    len: len as u32,
                });
                let out = route.out();
                for (rtag, port) in continuation(tag, &instr.dests) {
                    out.token(Token::new(rtag, port, p));
                }
            }
            Some(action) => route.op(StructOp { tag, action })?,
        }
        Ok(true)
    }
}

/// Seeds a batch of jobs: checks each job's block and input count,
/// takes a root context for it from `root`, and hands its parameter
/// tokens to `emit`, in job and parameter order.
pub(crate) fn seed(
    program: &Program,
    jobs: &[Job],
    mut root: impl FnMut(CodeBlockId) -> Ctx,
    mut emit: impl FnMut(Token),
) -> Result<(), ExecError> {
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
        let u = root(job.block);
        for (&s, &v) in block.params.iter().zip(&job.inputs) {
            let tag = ActivityName {
                u,
                c: job.block,
                s,
                i: Iter::ONE,
            };
            emit(Token::new(tag, Port(0), v));
        }
    }
    Ok(())
}

/// A fetch or store on its way to the unit that owns the structure. Its
/// continuation is the issuing firing's destinations (see
/// [`continuation`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StructOp {
    /// The issuing firing.
    pub(crate) tag: ActivityName,
    /// A [`StructAction::Fetch`] or [`StructAction::Store`].
    pub(crate) action: StructAction,
}

impl StructOp {
    /// The structure and element the op addresses.
    pub(crate) fn target(&self) -> (StructRef, usize) {
        match self.action {
            StructAction::Fetch { ptr, idx } | StructAction::Store { ptr, idx, .. } => (ptr, idx),
            StructAction::Alloc { .. } => unreachable!("allocations are resolved at the PE"),
        }
    }
}

/// Read and write counts of one unit's structure traffic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IStoreCounts {
    /// Reads satisfied at once, one per continuation slot.
    pub(crate) immediate: u64,
    /// Reads that waited for their producer, one per continuation slot.
    pub(crate) deferred: u64,
    /// Writes.
    pub(crate) writes: u64,
}

/// One I-structure storage unit (Fig 2-1): presence bits and
/// deferred-read lists over an [`IStructureShard`], the counts of its
/// traffic, and the one set of tracing rules for it.
///
/// A unit holds whole structures (the emulator's table, a relaxed
/// worker's shard) or, in the timed machine, one module's slice of
/// each: every `stride`-th element. Errors are reported in the
/// program's own element coordinates either way.
#[derive(Debug)]
pub(crate) struct IUnit {
    shard: IStructureShard<Value, (ActivityName, Port)>,
    /// Elements of a structure between two cells of this unit.
    stride: usize,
    /// The `module` label of this unit's trace events: the timed
    /// machine's module index, or `None` to label by structure id.
    module: Option<u32>,
    /// Traffic so far.
    pub(crate) counts: IStoreCounts,
}

impl IUnit {
    /// A unit holding whole structures, tracing by structure id.
    pub(crate) fn whole() -> IUnit {
        IUnit::new(None, 1)
    }

    /// A unit holding every `stride`-th element of each structure,
    /// tracing as `module`.
    pub(crate) fn new(module: Option<u32>, stride: usize) -> IUnit {
        IUnit {
            shard: IStructureShard::new(),
            stride,
            module,
            counts: IStoreCounts::default(),
        }
    }

    /// Registers a freshly allocated whole structure.
    pub(crate) fn create(&mut self, id: u32, len: usize) {
        self.shard.create(id, len);
    }

    /// Materializes this unit's slice of `ptr` if it is not there yet
    /// (the timed modules create slices on first access).
    pub(crate) fn ensure(&mut self, ptr: StructRef) {
        self.shard
            .ensure(ptr.id, (ptr.len as usize).div_ceil(self.stride));
    }

    /// Structures held.
    pub(crate) fn len(&self) -> usize {
        self.shard.len()
    }

    /// Deferred readers parked in the unit.
    pub(crate) fn deferred_outstanding(&self) -> usize {
        self.shard.deferred_outstanding()
    }

    /// Visits every parked deferred reader.
    pub(crate) fn for_each_deferred(&self, f: impl FnMut(&(ActivityName, Port))) {
        self.shard.for_each_deferred(f);
    }

    /// Applies a fetch or store and emits its continuation to `out`: a
    /// fetch's element to each reader (or parks them), a store's
    /// released readers and then its completion signal. The signal
    /// follows the write on every engine, so a fetch that the signal
    /// enables cannot overtake the store.
    pub(crate) fn apply<E: Emit>(
        &mut self,
        program: &Program,
        op: StructOp,
        out: &mut E,
    ) -> Result<(), ExecError> {
        let (tag, (ptr, idx)) = (op.tag, op.target());
        let cell = Addr(idx / self.stride);
        let module = self.module.unwrap_or(ptr.id);
        let stride = self.stride;
        let global = |e: IStructureError| globalize(e, stride, ptr, idx);
        let dangling = || ExecError::BadTarget {
            activity: format!("{tag} (dangling {ptr:?})"),
        };
        let traced = out.traced();
        let dests = dests_of(program, tag);
        match op.action {
            StructAction::Fetch { .. } => {
                for (rtag, port) in continuation(tag, dests) {
                    let before = if traced {
                        let st = self.shard.store(ptr.id).ok_or_else(dangling)?;
                        st.presence(cell).map_err(global)?
                    } else {
                        Presence::Empty
                    };
                    let read = self.shard.read(ptr.id, cell, (rtag, port));
                    match read.ok_or_else(dangling)?.map_err(global)? {
                        ReadOutcome::Value(v) => {
                            self.counts.immediate += 1;
                            out.trace(TraceEvent::IStoreRead {
                                module,
                                immediate: true,
                            });
                            out.token(Token::new(rtag, port, v));
                        }
                        ReadOutcome::Deferred => {
                            self.counts.deferred += 1;
                            if traced {
                                let st = self.shard.store(ptr.id).expect("read found it");
                                let depth = st.deferred_count(cell).map_err(global)? as u64;
                                out.trace(TraceEvent::IStoreRead {
                                    module,
                                    immediate: false,
                                });
                                out.trace(TraceEvent::DeferEnqueue { module, depth });
                                if before != Presence::Deferred {
                                    out.trace(TraceEvent::Presence {
                                        module,
                                        from: before.as_trace(),
                                        to: PresenceState::Deferred,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            StructAction::Store { value, .. } => {
                // Traced before the write, because released readers
                // stream out of it; a second write is an error (reported
                // by the write), so only a legal transition is traced.
                if traced {
                    let st = self.shard.store(ptr.id).ok_or_else(dangling)?;
                    let before = st.presence(cell).map_err(global)?;
                    if before != Presence::Present {
                        let released = st.deferred_count(cell).map_err(global)? as u64;
                        out.trace(TraceEvent::IStoreWrite { module });
                        out.trace(TraceEvent::Presence {
                            module,
                            from: before.as_trace(),
                            to: PresenceState::Present,
                        });
                        if released > 0 {
                            out.trace(TraceEvent::DeferRelease { module, released });
                        }
                    }
                }
                self.shard
                    .write_with(ptr.id, cell, value, |(rtag, port)| {
                        out.token(Token::new(rtag, port, value));
                    })
                    .ok_or_else(dangling)?
                    .map_err(global)?;
                self.counts.writes += 1;
                for (rtag, port) in continuation(tag, dests) {
                    out.token(Token::new(rtag, port, Value::Unit));
                }
            }
            StructAction::Alloc { .. } => unreachable!("target() rules it out"),
        }
        Ok(())
    }
}

/// Reports a store error at element `idx` of `ptr`: a unit of stride
/// `stride > 1` works in local cells, but every engine reports the
/// element index the program used.
fn globalize(e: IStructureError, stride: usize, ptr: StructRef, idx: usize) -> ExecError {
    ExecError::IStructure(match e {
        _ if stride == 1 => e,
        IStructureError::OutOfRange { .. } => IStructureError::OutOfRange {
            addr: Addr(idx),
            size: ptr.len as usize,
        },
        IStructureError::AlreadyWritten { .. } => {
            IStructureError::AlreadyWritten { addr: Addr(idx) }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::OpCode;
    use crate::tag::Ctx;
    use crate::{Emulator, TimedConfig, TimedMachine};
    use ttda_sim::Cycle;

    /// An output section that keeps what it is sent.
    #[derive(Default)]
    struct Collect {
        tokens: Vec<Token>,
        events: Vec<TraceEvent>,
    }

    impl Emit for Collect {
        fn traced(&self) -> bool {
            true
        }

        fn trace(&mut self, ev: TraceEvent) {
            self.events.push(ev);
        }

        fn token(&mut self, t: Token) {
            self.tokens.push(t);
        }
    }

    #[test]
    fn every_engine_seeds_through_one_arity_check() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        let want = Err(ExecError::InputArity {
            expected: 1,
            got: 0,
        });
        assert_eq!(Emulator::new(&p).run(&[]).map(drop), want);
        assert_eq!(Emulator::new(&p).relaxed().run(&[]).map(drop), want);
        let mut m = TimedMachine::ideal(p, 1, Cycle(1), TimedConfig::default());
        assert_eq!(m.run(&[]).map(drop), want);
    }

    /// A program whose main block fetches and stores through its first
    /// input, and the activity names of those two instructions.
    fn fetch_and_store() -> (Program, ActivityName, ActivityName) {
        let mut g = GraphBuilder::new("t");
        let ptr = g.param();
        let fetch = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        let store = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        let (out, done) = (g.output(0), g.output(1));
        g.wire(ptr, fetch, 0).wire(fetch, out, 0);
        g.wire(ptr, store, 0)
            .wire(ptr, store, 2)
            .wire(store, done, 0);
        let p = g.finish_program().unwrap();
        let name = |s| ActivityName {
            u: Ctx(0),
            c: p.main,
            s,
            i: Iter::ONE,
        };
        let (f, st) = (name(fetch.instr()), name(store.instr()));
        (p, f, st)
    }

    #[test]
    fn a_store_signals_after_the_readers_it_releases() {
        let (p, fetch, store) = fetch_and_store();
        let ptr = StructRef { id: 7, len: 4 };
        let mut unit = IUnit::whole();
        unit.create(ptr.id, 4);
        let mut out = Collect::default();
        let f = StructAction::Fetch { ptr, idx: 2 };
        unit.apply(
            &p,
            StructOp {
                tag: fetch,
                action: f,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.tokens.is_empty(), "the read parks");
        let value = Value::Int(5);
        let s = StructAction::Store { ptr, idx: 2, value };
        unit.apply(
            &p,
            StructOp {
                tag: store,
                action: s,
            },
            &mut out,
        )
        .unwrap();
        let got: Vec<Value> = out.tokens.iter().map(|t| t.value).collect();
        assert_eq!(got, [value, Value::Unit], "released reader, then signal");
        assert_eq!(unit.deferred_outstanding(), 0);
        assert_eq!(
            (
                unit.counts.immediate,
                unit.counts.deferred,
                unit.counts.writes
            ),
            (0, 1, 1)
        );
        assert!(matches!(
            out.events[..],
            [
                TraceEvent::IStoreRead {
                    module: 7,
                    immediate: false
                },
                TraceEvent::DeferEnqueue { depth: 1, .. },
                TraceEvent::Presence { .. },
                TraceEvent::IStoreWrite { .. },
                TraceEvent::Presence { .. },
                TraceEvent::DeferRelease { released: 1, .. },
            ]
        ));
    }

    #[test]
    fn a_module_slice_reports_global_element_coordinates() {
        let (p, _, store) = fetch_and_store();
        let ptr = StructRef { id: 0, len: 10 };
        // Module 1 of 4 holds elements 1, 5, 9 of the structure.
        let mut unit = IUnit::new(Some(1), 4);
        let mut out = Collect::default();
        let mut write = |unit: &mut IUnit, idx| {
            let action = StructAction::Store {
                ptr,
                idx,
                value: Value::Int(1),
            };
            unit.apply(&p, StructOp { tag: store, action }, &mut out)
        };
        let dangling = write(&mut unit, 5).unwrap_err();
        assert!(
            matches!(dangling, ExecError::BadTarget { .. }),
            "{dangling}"
        );
        unit.ensure(ptr);
        write(&mut unit, 5).unwrap();
        assert_eq!(
            write(&mut unit, 5),
            Err(ExecError::IStructure(IStructureError::AlreadyWritten {
                addr: Addr(5)
            }))
        );
        assert_eq!(
            write(&mut unit, 13),
            Err(ExecError::IStructure(IStructureError::OutOfRange {
                addr: Addr(13),
                size: 10
            }))
        );
    }
}
