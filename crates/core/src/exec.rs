//! Operational semantics of one instruction, shared by every engine.
//!
//! [`execute`] implements the instruction-fetch + ALU + output-section
//! behaviour of one enabled instruction, *independent of timing*: it
//! pushes the tokens to emit onto a caller-owned buffer and returns any
//! I-structure action to perform. The firing core ([`crate::pe`]) runs
//! it for every engine and hands the action to the engine's route.
//! Keeping one copy of the semantics guarantees the engines can never
//! disagree on *what* a program computes, only on *when*.

use crate::context::{ContextKind, ContextOps};
use crate::graph::{Dest, DestBranch, Instruction, OpCode, Program};
use crate::matching::{Absorbed, MatchingStore, Operands, PortOutOfRange};
use crate::tag::{ActivityName, Iter, Port, Token};
use crate::value::{as_bool, as_int, as_ptr, StructRef, Value};
use crate::ExecError;

/// An I-structure operation requested by an instruction. Its
/// continuation — who receives the pointer, the element or the store's
/// completion signal — is the issuing instruction's unconditional
/// destinations retagged by the issuing firing (see [`continuation`]),
/// so the action itself carries no heap data; the PE or I-structure
/// unit that completes the action expands the destinations.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StructAction {
    /// Allocate `len` cells; send the pointer to the continuation.
    Alloc {
        /// Element count.
        len: usize,
    },
    /// Fetch element `idx` of `ptr`; deliver it to the continuation
    /// (possibly deferred).
    Fetch {
        /// The structure.
        ptr: StructRef,
        /// Element index.
        idx: usize,
    },
    /// Store `value` at element `idx` of `ptr`; then signal the
    /// continuation.
    Store {
        /// The structure.
        ptr: StructRef,
        /// Element index.
        idx: usize,
        /// The element value.
        value: Value,
    },
}

/// Everything one firing produces besides its `d=0` tokens, which
/// [`execute`] pushes into the caller's buffer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Effect {
    /// At most one structure (`d=1`) action.
    pub action: Option<StructAction>,
    /// A program output, if the instruction was `Output`.
    pub output: Option<(u32, Value)>,
    /// Whether this firing counts as ALU work.
    pub is_alu: bool,
}

/// Sends `value` to every destination taken on branch `when`.
fn retag_on(
    when: DestBranch,
    tag: ActivityName,
    dests: &[Dest],
    value: Value,
    out: &mut Vec<Token>,
) {
    for d in dests.iter().filter(|d| d.when == when) {
        out.push(Token::new(
            ActivityName { s: d.instr, ..tag },
            d.port,
            value,
        ));
    }
}

fn retag(tag: ActivityName, dests: &[Dest], value: Value, out: &mut Vec<Token>) {
    retag_on(DestBranch::Always, tag, dests, value, out);
}

/// The continuation of a structure action issued by the firing `tag` of
/// an instruction with destinations `dests`: the fully tagged token
/// slots awaiting the pointer, element or completion signal.
pub(crate) fn continuation(
    tag: ActivityName,
    dests: &[Dest],
) -> impl Iterator<Item = (ActivityName, Port)> + '_ {
    dests
        .iter()
        .filter(|d| d.when == DestBranch::Always)
        .map(move |d| (ActivityName { s: d.instr, ..tag }, d.port))
}

/// The destinations of the instruction `tag` names. Only called for
/// firings that [`absorb`] already resolved, so the lookup cannot fail.
pub(crate) fn dests_of(program: &Program, tag: ActivityName) -> &[Dest] {
    &program
        .block(tag.c)
        .and_then(|b| b.instr(tag.s))
        .expect("absorb resolved the instruction")
        .dests
}

fn nonneg_index(tag: ActivityName, idx: i64) -> Result<usize, ExecError> {
    usize::try_from(idx).map_err(|_| ExecError::BadTarget {
        activity: format!("{tag} (negative i-structure index {idx})"),
    })
}

/// The waiting–matching section: inserts a token into `waiting`; returns
/// the target instruction and its complete operand set when it becomes
/// enabled. Tokens for `nt = 1` instructions bypass the store, as in
/// Fig 2-3.
pub(crate) fn absorb<'p>(
    program: &'p Program,
    waiting: &mut MatchingStore,
    token: Token,
) -> Result<Option<(ActivityName, &'p Instruction, Operands)>, ExecError> {
    let instr = program
        .block(token.tag.c)
        .and_then(|b| b.instr(token.tag.s))
        .ok_or_else(|| ExecError::BadTarget {
            activity: token.tag.to_string(),
        })?;
    let arity = instr.op.arity();
    let literal = instr.literal;

    if instr.nt <= 1 && arity <= 1 {
        let v = match literal {
            Some((_, lv)) => lv,
            None => token.value,
        };
        return Ok(Some((token.tag, instr, Operands::one(v))));
    }

    match waiting.absorb(token.tag, arity, literal, token.port, token.value) {
        Ok(Absorbed::Parked) => Ok(None),
        Ok(Absorbed::Enabled(operands)) => Ok(Some((token.tag, instr, operands))),
        Err(PortOutOfRange) => Err(ExecError::BadTarget {
            activity: token.tag.to_string(),
        }),
    }
}

/// Executes one enabled instruction. See the module docs.
///
/// The firing's `d=0` tokens are pushed onto `out`, a buffer the caller
/// owns and reuses across firings, so a firing allocates nothing in the
/// steady state (DESIGN.md §16).
///
/// Only `D` and `Apply` *mutate* the context table (entering a loop or
/// a call). On the relaxed backend they draw ids from leased blocks of
/// a [`crate::context::SharedContexts`] table — context id *values*
/// then differ from a sequential run, but they never escape an
/// [`EmuResult`](crate::EmuResult) (`contexts` is the semantic
/// allocation count, kept exact by the shared loop memo).
pub(crate) fn execute<C: ContextOps>(
    program: &Program,
    ctx: &mut C,
    tag: ActivityName,
    instr: &Instruction,
    ops: &[Value],
    out: &mut Vec<Token>,
) -> Result<Effect, ExecError> {
    let mut eff = Effect {
        is_alu: instr.op.is_alu_work(),
        ..Effect::default()
    };
    match &instr.op {
        OpCode::D { loop_id } => {
            let inner = ctx.enter_loop(tag.u, tag.i, *loop_id, tag.c);
            let ntag = ActivityName {
                u: inner,
                i: Iter::ONE,
                ..tag
            };
            retag(ntag, &instr.dests, ops[0], out);
        }
        OpCode::Apply { callee, argc } => {
            let cb = program.block(*callee).ok_or_else(|| ExecError::BadTarget {
                activity: tag.to_string(),
            })?;
            let new_ctx = ctx.enter_call(tag.u, tag.i, tag.c, *callee, tag.s);
            for (k, &op) in ops.iter().enumerate().take(*argc as usize) {
                out.push(Token::new(
                    ActivityName {
                        u: new_ctx,
                        c: *callee,
                        s: cb.params[k],
                        i: Iter::ONE,
                    },
                    Port(0),
                    op,
                ));
            }
        }
        OpCode::Identity => retag(tag, &instr.dests, ops[0], out),
        OpCode::Const(v) => retag(tag, &instr.dests, *v, out),
        OpCode::Alu(op) => {
            let v = op.apply(&ops[0], &ops[1])?;
            retag(tag, &instr.dests, v, out);
        }
        OpCode::Cmp(op) => {
            let v = op.apply(&ops[0], &ops[1])?;
            retag(tag, &instr.dests, v, out);
        }
        OpCode::Not => {
            let v = Value::Bool(!as_bool(&ops[0])?);
            retag(tag, &instr.dests, v, out);
        }
        OpCode::And => {
            let v = Value::Bool(as_bool(&ops[0])? && as_bool(&ops[1])?);
            retag(tag, &instr.dests, v, out);
        }
        OpCode::Or => {
            let v = Value::Bool(as_bool(&ops[0])? || as_bool(&ops[1])?);
            retag(tag, &instr.dests, v, out);
        }
        OpCode::Switch => {
            let when = if as_bool(&ops[1])? {
                DestBranch::IfTrue
            } else {
                DestBranch::IfFalse
            };
            retag_on(when, tag, &instr.dests, ops[0], out);
        }
        OpCode::DInv => {
            let rec = ctx.resolve(tag.u).ok_or_else(|| ExecError::BadTarget {
                activity: tag.to_string(),
            })?;
            let ntag = ActivityName {
                u: rec.parent,
                i: rec.parent_iter,
                ..tag
            };
            retag(ntag, &instr.dests, ops[0], out);
        }
        OpCode::L => {
            let ntag = ActivityName {
                i: tag.i.next(),
                ..tag
            };
            retag(ntag, &instr.dests, ops[0], out);
        }
        OpCode::LInv => {
            let ntag = ActivityName {
                i: Iter::ONE,
                ..tag
            };
            retag(ntag, &instr.dests, ops[0], out);
        }
        OpCode::Return => {
            let rec = ctx.resolve(tag.u).ok_or_else(|| ExecError::BadTarget {
                activity: tag.to_string(),
            })?;
            let ContextKind::Call { ret_block, site } = rec.kind else {
                return Err(ExecError::BadTarget {
                    activity: format!("{tag} (Return outside a call context)"),
                });
            };
            // The result goes wherever the calling `Apply` sends its
            // value: the call record names that instruction.
            let apply = program
                .block(ret_block)
                .and_then(|b| b.instr(site))
                .ok_or_else(|| ExecError::BadTarget {
                    activity: tag.to_string(),
                })?;
            let rtag = ActivityName {
                u: rec.parent,
                c: ret_block,
                s: tag.s, // replaced per-dest
                i: rec.parent_iter,
            };
            retag(rtag, &apply.dests, ops[0], out);
        }
        OpCode::IAlloc => {
            let len = as_int(&ops[0])?;
            if len < 0 {
                return Err(ExecError::Type(crate::value::TypeError {
                    expected: "a nonnegative size",
                    got: len.to_string(),
                }));
            }
            eff.action = Some(StructAction::Alloc { len: len as usize });
        }
        OpCode::IFetch => {
            let ptr = as_ptr(&ops[0])?;
            let idx = nonneg_index(tag, as_int(&ops[1])?)?;
            eff.action = Some(StructAction::Fetch { ptr, idx });
        }
        OpCode::IStore => {
            let ptr = as_ptr(&ops[0])?;
            let idx = nonneg_index(tag, as_int(&ops[1])?)?;
            eff.action = Some(StructAction::Store {
                ptr,
                idx,
                value: ops[2],
            });
        }
        OpCode::Output(slot) => {
            eff.output = Some((*slot, ops[0]));
        }
        OpCode::Sink => {}
    }
    Ok(eff)
}
