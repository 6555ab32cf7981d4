//! Loop unrolling and first-iteration peeling for the codegen schema.
//!
//! The Id compiler (and [`GraphBuilder::dataflow_loop`]) emit one fixed
//! arrangement per loop: each variable enters through a `D` sharing the
//! loop's id, circulates through a loop-top `Identity` that an `L`
//! re-enters, is gated by a `Switch` whose control is the shared `Cmp`
//! predicate, and exits through a `D⁻¹`. This pass pattern-matches that
//! arrangement *exactly* — any deviation (extra edges, a non-`Cmp`
//! predicate, impure or call-bearing body, nested tag operators) makes
//! the loop ineligible and nothing is touched.
//!
//! Two transforms, both output-preserving:
//!
//! * **Full unroll** — when the trip count is statically known (constant
//!   induction start, constant step on an `Add`, constant bound) and
//!   small, the body is cloned once per iteration, straight-line, and
//!   the *entire* tag machinery (`D`/`L`/`D⁻¹`, loop tops, gating
//!   switches, the predicate) is elided: per iteration that removes the
//!   per-variable top, switch, and `L` firings plus the predicate — the
//!   paper's per-iteration tag-manipulation overhead — leaving only the
//!   body's real arithmetic.
//! * **Peel** — when the bound is dynamic, the first iteration is
//!   hoisted in front of the loop behind a fresh predicate + switch
//!   pair, and exits rejoin through per-variable `Identity` joins. The
//!   peeled copy sees the loop's *initial* values directly, which is
//!   exactly where constant folding has leverage; the loop itself
//!   continues from iteration two unchanged.
//!
//! Both transforms insert only per-token operators (no tag ops), so they
//! compose with enclosing loops or conditionals: every new node fires
//! once per activation of the enclosing context, whatever its tag.
//!
//! [`GraphBuilder::dataflow_loop`]: crate::GraphBuilder::dataflow_loop

use crate::graph::{CodeBlock, Dest, DestBranch, InstrId, Instruction, OpCode};
use crate::tag::Port;
use crate::value::{AluOp, Value};

use super::analysis::{DefUse, InEdge};
use super::OptStats;

/// Schema ceiling: loops with more circulating variables than a human
/// would write by hand are left alone.
const MAX_VARS: usize = 8;
/// Body-size ceiling for full unrolling (clones = body × trips).
const MAX_BODY_UNROLL: usize = 48;
/// Body-size ceiling for peeling (one extra clone plus 2 nodes per var).
const MAX_BODY_PEEL: usize = 24;
/// Largest statically-known trip count worth unrolling; bigger static
/// loops are skipped entirely (peeling them buys nothing).
const MAX_TRIPS_UNROLL: u64 = 16;
/// Safety net for the trip-count simulation (wrapping induction).
const MAX_TRIPS_SIM: u64 = 64;

/// One recognized loop instance (all indexes into `block.instrs`;
/// vectors are parallel, one entry per circulating variable).
struct LoopShape {
    d: Vec<usize>,
    top: Vec<usize>,
    l: Vec<usize>,
    sw: Vec<usize>,
    body_in: Vec<usize>,
    dinv: Vec<usize>,
    pred: usize,
    /// Source and branch selector of the edge feeding each `D`.
    init: Vec<(u32, DestBranch)>,
    /// Source and branch selector of the edge feeding each `L` (a body
    /// node, or a `body_in` for invariant variables).
    next: Vec<(u32, DestBranch)>,
    body: Vec<usize>,
}

impl LoopShape {
    /// The variable whose loop top is `t`.
    fn var_of_top(&self, t: u32) -> usize {
        self.top
            .iter()
            .position(|&x| x == t as usize)
            .expect("the predicate is fed by loop tops only")
    }

    /// Where a body edge from `src` (with selector `when`) comes from in
    /// the current clone: the clone of a body node, or for a body entry
    /// junction, the variable's current value.
    fn resolve(
        &self,
        src: u32,
        when: DestBranch,
        clones: &[u32],
        cur: &[(u32, DestBranch)],
    ) -> (u32, DestBranch) {
        match clones[src as usize] {
            NONE => {
                let k = self
                    .body_in
                    .iter()
                    .position(|&b| b == src as usize)
                    .expect("body edges come from the body or its entries");
                cur[k]
            }
            c => (c, when),
        }
    }
}

enum Trip {
    /// Statically known and small enough to unroll.
    Known(u64),
    /// Statically analyzable but too long (or divergent): leave alone.
    Skip,
    /// Not statically analyzable: a peel candidate.
    Unknown,
}

/// Buffers the pass reuses from block to block.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    /// `(loop id, D instruction)` for every `D` of the block.
    loops: Vec<(u32, u32)>,
    /// Per instruction: the [`Role`] bits [`recognize`] assigns, or
    /// the deleted mark of [`apply_unroll`].
    marks: Vec<u8>,
    /// The body walk's FIFO queue.
    queue: Vec<usize>,
    /// Original body instruction → its clone ([`NONE`] for the rest).
    clones: Vec<u32>,
    cur: Vec<(u32, DestBranch)>,
    next: Vec<(u32, DestBranch)>,
}

/// Role bits in [`Buffers::marks`].
struct Role;

impl Role {
    /// `D`, loop top, `L`, `Switch`, body entry, `D⁻¹` or predicate.
    const MACHINERY: u8 = 1;
    /// An `L` re-entry.
    const L: u8 = 2;
    /// A body entry junction.
    const BODY_IN: u8 = 4;
    /// A body instruction.
    const BODY: u8 = 8;
    /// A loop top.
    const TOP: u8 = 16;
}

/// No clone.
const NONE: u32 = u32::MAX;

/// Transforms every eligible loop in the block, at most once each, in
/// loop-id order. `du` describes `block` on entry and on return.
///
/// The `D`s are grouped once, up front: a transform only appends
/// instructions that are not `D`s and retires its own loop's machinery
/// and body (which holds no `D`), so every other loop's group is the
/// same before and after it.
pub(super) fn run(
    block: &mut CodeBlock,
    du: &mut DefUse,
    bufs: &mut Buffers,
    stats: &mut OptStats,
) {
    bufs.loops.clear();
    for (i, ins) in block.instrs.iter().enumerate() {
        if let OpCode::D { loop_id } = ins.op {
            bufs.loops.push((loop_id, i as u32));
        }
    }
    bufs.loops.sort_unstable();
    let mut at = 0;
    while at < bufs.loops.len() {
        let lid = bufs.loops[at].0;
        let len = bufs.loops[at..]
            .iter()
            .take_while(|&&(l, _)| l == lid)
            .count();
        let group = at..at + len;
        at += len;
        // A peeled loop keeps its `D`s and would re-match the schema;
        // visiting each id once makes every loop a one-shot candidate.
        let Some(lp) = recognize(block, du, bufs, group) else {
            continue;
        };
        match trip_count(block, du, &lp) {
            Trip::Known(trips) => {
                apply_unroll(block, du, bufs, &lp, trips);
                stats.loops_unrolled += 1;
            }
            Trip::Unknown if lp.body.len() <= MAX_BODY_PEEL => {
                apply_peel(block, du, bufs, &lp);
                stats.loops_peeled += 1;
            }
            _ => continue,
        }
        du.rebuild(block);
    }
}

/// Matches the full codegen schema for one loop-id group, or bails.
fn recognize(
    block: &CodeBlock,
    du: &DefUse,
    bufs: &mut Buffers,
    group: std::ops::Range<usize>,
) -> Option<LoopShape> {
    if group.is_empty() || group.len() > MAX_VARS {
        return None;
    }
    let instr = |i: usize| &block.instrs[i];
    let is_param = |i: usize| du.is_param(i);
    let ins_of = &du.in_edges;

    // Per variable: D -> top <- L, and the edges feeding D and L.
    let d: Vec<usize> = bufs.loops[group].iter().map(|&(_, i)| i as usize).collect();
    let mut top = Vec::with_capacity(d.len());
    let mut l = Vec::with_capacity(d.len());
    let mut init = Vec::with_capacity(d.len());
    let mut next = Vec::with_capacity(d.len());
    for &dk in &d {
        if is_param(dk) {
            return None;
        }
        let &[InEdge {
            src: InstrId(isrc),
            port: Port(0),
            when: iw,
        }] = &ins_of[dk]
        else {
            return None;
        };
        init.push((isrc, iw));
        let &[dd] = &instr(dk).dests[..] else {
            return None;
        };
        if dd.port != Port(0) || dd.when != DestBranch::Always {
            return None;
        }
        let t = dd.instr.0 as usize;
        if instr(t).op != OpCode::Identity || instr(t).literal.is_some() || is_param(t) {
            return None;
        }
        let tes = &ins_of[t];
        if tes.len() != 2 || !tes.iter().any(|e| e.src.0 as usize == dk) {
            return None;
        }
        let mut lk = None;
        for e in tes {
            let s = e.src.0;
            if e.port != Port(0) || e.when != DestBranch::Always {
                return None;
            }
            if s as usize == dk {
                continue;
            }
            if instr(s as usize).op != OpCode::L || is_param(s as usize) {
                return None;
            }
            lk = Some(s as usize);
        }
        let lk = lk?;
        if instr(lk).dests[..] != [dd] {
            return None;
        }
        let &[InEdge {
            src: InstrId(nsrc),
            port: Port(0),
            when: nw,
        }] = &ins_of[lk]
        else {
            return None;
        };
        next.push((nsrc, nw));
        top.push(t);
        l.push(lk);
    }

    // Per variable: top -> Switch (data), everything else top feeds must
    // be the one shared predicate.
    let mut sw = Vec::with_capacity(d.len());
    let mut pred: Option<usize> = None;
    for &t in &top {
        let mut swk = None;
        for dd in &instr(t).dests {
            let tgt = dd.instr.0 as usize;
            if instr(tgt).op == OpCode::Switch && dd.port == Port(0) {
                if swk.replace(tgt).is_some() {
                    return None;
                }
            } else if pred.replace(tgt).is_some_and(|p| p != tgt) {
                return None;
            }
        }
        sw.push(swk?);
    }
    let pred = pred?;

    // The shared predicate: a Cmp fed only by this loop's tops, feeding
    // exactly the per-variable switch control ports.
    if !matches!(instr(pred).op, OpCode::Cmp(_)) || is_param(pred) {
        return None;
    }
    let marks = &mut bufs.marks;
    marks.clear();
    marks.resize(block.instrs.len(), 0);
    for &t in &top {
        marks[t] |= Role::TOP;
    }
    for e in &ins_of[pred] {
        if e.when != DestBranch::Always || marks[e.src.0 as usize] & Role::TOP == 0 {
            return None;
        }
    }
    let pd = &instr(pred).dests;
    if pd.len() != sw.len() {
        return None;
    }
    for (&swk, _) in sw.iter().zip(0..) {
        if pd
            .iter()
            .filter(|dd| {
                dd.instr.0 as usize == swk && dd.port == Port(1) && dd.when == DestBranch::Always
            })
            .count()
            != 1
        {
            return None;
        }
    }

    // Per variable: Switch -> body_in (true) / DInv (false).
    let mut body_in = Vec::with_capacity(d.len());
    let mut dinv = Vec::with_capacity(d.len());
    for (k, &swk) in sw.iter().enumerate() {
        if is_param(swk) {
            return None;
        }
        let es = &ins_of[swk];
        let always = |src: usize, port: u8| InEdge {
            src: InstrId(src as u32),
            port: Port(port),
            when: DestBranch::Always,
        };
        if es.len() != 2 || !es.contains(&always(top[k], 0)) || !es.contains(&always(pred, 1)) {
            return None;
        }
        let &[a, b] = &instr(swk).dests[..] else {
            return None;
        };
        let (tdest, fdest) = match (a.when, b.when) {
            (DestBranch::IfTrue, DestBranch::IfFalse) => (a, b),
            (DestBranch::IfFalse, DestBranch::IfTrue) => (b, a),
            _ => return None,
        };
        let bi = tdest.instr.0 as usize;
        let dv = fdest.instr.0 as usize;
        if tdest.port != Port(0) || fdest.port != Port(0) {
            return None;
        }
        if instr(bi).op != OpCode::Identity
            || instr(bi).literal.is_some()
            || is_param(bi)
            || ins_of[bi].len() != 1
        {
            return None;
        }
        if instr(dv).op != OpCode::DInv || is_param(dv) || ins_of[dv].len() != 1 {
            return None;
        }
        body_in.push(bi);
        dinv.push(dv);
    }

    // The body: the dataflow closure from the body_in junctions down to
    // the L re-entries. Only per-token pure value ops are eligible — a
    // call, a structure op, or another loop's tag machinery bails.
    for &m in d.iter().chain(&top).chain(&sw).chain(&dinv) {
        marks[m] |= Role::MACHINERY;
    }
    for &m in &l {
        marks[m] |= Role::MACHINERY | Role::L;
    }
    for &m in &body_in {
        marks[m] |= Role::MACHINERY | Role::BODY_IN;
    }
    marks[pred] |= Role::MACHINERY;

    let mut body = Vec::new();
    let queue = &mut bufs.queue;
    queue.clear();
    for &bi in &body_in {
        for dd in &instr(bi).dests {
            queue.push(dd.instr.0 as usize);
        }
    }
    let mut head = 0;
    while let Some(&x) = queue.get(head) {
        head += 1;
        if marks[x] & (Role::L | Role::BODY) != 0 {
            continue;
        }
        if marks[x] & Role::MACHINERY != 0 || is_param(x) {
            return None;
        }
        match instr(x).op {
            OpCode::Identity
            | OpCode::Const(_)
            | OpCode::Alu(_)
            | OpCode::Cmp(_)
            | OpCode::Not
            | OpCode::And
            | OpCode::Or
            | OpCode::Switch => {}
            _ => return None,
        }
        marks[x] |= Role::BODY;
        body.push(x);
        for dd in &instr(x).dests {
            queue.push(dd.instr.0 as usize);
        }
    }
    if body.len() > MAX_BODY_UNROLL {
        return None;
    }
    // Closure must be closed: body inputs only from body/body_in, body
    // outputs only into body/L, next values from body/body_in.
    for &b in &body {
        for e in &ins_of[b] {
            if marks[e.src.0 as usize] & (Role::BODY | Role::BODY_IN) == 0 {
                return None;
            }
        }
        for dd in &instr(b).dests {
            if marks[dd.instr.0 as usize] & (Role::BODY | Role::L) == 0 {
                return None;
            }
        }
    }
    for &(ns, _) in &next {
        if marks[ns as usize] & (Role::BODY | Role::BODY_IN) == 0 {
            return None;
        }
    }

    Some(LoopShape {
        d,
        top,
        l,
        sw,
        body_in,
        dinv,
        pred,
        init,
        next,
        body,
    })
}

/// A statically-known predicate operand during trip simulation.
#[derive(Clone, Copy)]
enum Opnd {
    Lit(Value),
    Var(usize),
}

/// Simulates the induction variable against the predicate: constant
/// `Int` start, constant `Int` step on a single `Add`, and every other
/// predicate operand a loop-invariant constant.
fn trip_count(block: &CodeBlock, du: &DefUse, lp: &LoopShape) -> Trip {
    let nvars = lp.d.len();
    let OpCode::Cmp(cmp) = block.instrs[lp.pred].op else {
        return Trip::Unknown;
    };
    let invariant: Vec<bool> = (0..nvars)
        .map(|k| lp.next[k].0 as usize == lp.body_in[k])
        .collect();
    let init_const: Vec<Option<Value>> = lp
        .init
        .iter()
        .map(|&(s, _)| match block.instrs[s as usize].op {
            OpCode::Const(v) => Some(v),
            _ => None,
        })
        .collect();

    // Predicate operands by port.
    let mut ops: [Option<Opnd>; 2] = [None, None];
    if let Some((p, v)) = block.instrs[lp.pred].literal {
        ops[p.0 as usize] = Some(Opnd::Lit(v));
    }
    for e in &du.in_edges[lp.pred] {
        let slot = &mut ops[e.port.0 as usize];
        if slot.is_some() {
            return Trip::Unknown; // a join on a predicate port
        }
        *slot = Some(Opnd::Var(lp.var_of_top(e.src.0)));
    }
    let (Some(o0), Some(o1)) = (ops[0], ops[1]) else {
        return Trip::Unknown;
    };
    // Exactly one varying operand (the induction variable); the rest
    // must be invariant with constant initial values.
    let mut f: Option<usize> = None;
    for o in [o0, o1] {
        if let Opnd::Var(j) = o {
            if invariant[j] {
                if init_const[j].is_none() {
                    return Trip::Unknown;
                }
            } else if f != Some(j) {
                if f.is_some() {
                    return Trip::Unknown;
                }
                f = Some(j);
            }
        }
    }
    let Some(f) = f else { return Trip::Unknown };
    let Some(Value::Int(i0)) = init_const[f] else {
        return Trip::Unknown;
    };

    // The induction step: next[f] is an Add of body_in[f] and a constant.
    if lp.next[f].1 != DestBranch::Always {
        return Trip::Unknown;
    }
    let a_ix = lp.next[f].0 as usize;
    let a = &block.instrs[a_ix];
    if a.op != OpCode::Alu(AluOp::Add) {
        return Trip::Unknown;
    }
    let mut aops: [Option<Opnd>; 2] = [None, None];
    if let Some((p, v)) = a.literal {
        aops[p.0 as usize] = Some(Opnd::Lit(v));
    }
    for e in &du.in_edges[a_ix] {
        let slot = &mut aops[e.port.0 as usize];
        if slot.is_some() {
            return Trip::Unknown;
        }
        let Some(j) = lp.body_in.iter().position(|&b| b == e.src.0 as usize) else {
            return Trip::Unknown; // fed by another body node: not simple
        };
        *slot = Some(Opnd::Var(j));
    }
    let step_of = |o: Opnd| -> Option<i64> {
        match o {
            Opnd::Lit(Value::Int(s)) => Some(s),
            Opnd::Var(b) if invariant[b] => match init_const[b] {
                Some(Value::Int(s)) => Some(s),
                _ => None,
            },
            _ => None,
        }
    };
    let step = match (aops[0], aops[1]) {
        (Some(Opnd::Var(j)), Some(other)) if j == f => step_of(other),
        (Some(other), Some(Opnd::Var(j))) if j == f => step_of(other),
        _ => None,
    };
    let Some(step) = step else {
        return Trip::Unknown;
    };

    // Concrete simulation (wrapping adds mirror the ALU semantics).
    let eval = |o: Opnd, i: i64| -> Value {
        match o {
            Opnd::Lit(v) => v,
            Opnd::Var(j) if j == f => Value::Int(i),
            Opnd::Var(j) => init_const[j].expect("checked invariant const"),
        }
    };
    let mut i = i0;
    let mut trips: u64 = 0;
    loop {
        let Ok(Value::Bool(cont)) = cmp.apply(&eval(o0, i), &eval(o1, i)) else {
            // A predicate that errors at runtime errors identically in
            // the untransformed loop; just leave it alone.
            return Trip::Skip;
        };
        if !cont {
            break;
        }
        trips += 1;
        if trips > MAX_TRIPS_SIM {
            return Trip::Skip;
        }
        i = i.wrapping_add(step);
    }
    if trips > MAX_TRIPS_UNROLL {
        Trip::Skip
    } else {
        Trip::Known(trips)
    }
}

/// Clones the loop body once, wiring clone-internal edges as in the
/// original (read from `du`, which still describes the block as it was
/// recognized) and substituting `cur[k]` for each `body_in[k]` source.
/// Leaves original-body-index -> clone-index in `clones`.
fn clone_body_once(
    block: &mut CodeBlock,
    du: &DefUse,
    lp: &LoopShape,
    clones: &mut [u32],
    cur: &[(u32, DestBranch)],
) {
    for &b in &lp.body {
        let o = &block.instrs[b];
        let ins = Instruction {
            op: o.op,
            nt: o.nt,
            literal: o.literal,
            dests: Vec::new(),
        };
        clones[b] = block.instrs.len() as u32;
        block.instrs.push(ins);
    }
    for &b in &lp.body {
        let tgt = clones[b];
        for e in &du.in_edges[b] {
            // A body_in is an Identity, so its out-edge is Always and
            // the substituted edge carries cur's selector instead.
            let (ns, nw) = lp.resolve(e.src.0, e.when, clones, cur);
            block.instrs[ns as usize].dests.push(Dest {
                instr: InstrId(tgt),
                port: e.port,
                when: nw,
            });
        }
    }
}

/// Each variable's next value after one more body clone, into `next`.
fn resolve_next(
    lp: &LoopShape,
    clones: &[u32],
    cur: &[(u32, DestBranch)],
    next: &mut Vec<(u32, DestBranch)>,
) {
    next.clear();
    next.extend(
        lp.next
            .iter()
            .map(|&(ns, nw)| lp.resolve(ns, nw, clones, cur)),
    );
}

/// `clones` sized for the block `du` describes, with no clone yet.
fn reset_clones(clones: &mut Vec<u32>, du: &DefUse) {
    clones.clear();
    clones.resize(du.in_edges.len(), NONE);
}

/// Replaces the whole loop with `trips` straight-line body copies.
fn apply_unroll(
    block: &mut CodeBlock,
    du: &DefUse,
    bufs: &mut Buffers,
    lp: &LoopShape,
    trips: u64,
) {
    let exits: Vec<Vec<Dest>> = lp
        .dinv
        .iter()
        .map(|&dv| block.instrs[dv].dests.clone())
        .collect();
    let Buffers {
        marks,
        clones,
        cur,
        next,
        ..
    } = bufs;
    reset_clones(clones, du);
    cur.clear();
    cur.extend_from_slice(&lp.init);
    for _ in 0..trips {
        clone_body_once(block, du, lp, clones, cur);
        resolve_next(lp, clones, cur, next);
        std::mem::swap(cur, next);
    }
    // After the last iteration each variable's value feeds the old exit
    // consumers directly (for zero trips, that is the init edge itself).
    for (k, ex) in exits.iter().enumerate() {
        for dd in ex {
            debug_assert_eq!(dd.when, DestBranch::Always, "DInv dests are Always");
            block.instrs[cur[k].0 as usize].dests.push(Dest {
                instr: dd.instr,
                port: dd.port,
                when: cur[k].1,
            });
        }
    }
    // Retire the machinery and the original body; DCE reaps the Sinks.
    const DELETED: u8 = 1;
    marks.clear();
    marks.resize(block.instrs.len(), 0);
    for set in [
        &lp.d,
        &lp.top,
        &lp.l,
        &lp.sw,
        &lp.body_in,
        &lp.dinv,
        &lp.body,
    ] {
        for &i in set {
            marks[i] = DELETED;
        }
    }
    marks[lp.pred] = DELETED;
    for (ins, &m) in block.instrs.iter_mut().zip(marks.iter()) {
        if m == DELETED {
            ins.op = OpCode::Sink;
            ins.nt = 1;
            ins.literal = None;
            ins.dests.clear();
        } else {
            ins.dests.retain(|dd| marks[dd.instr.0 as usize] != DELETED);
        }
    }
}

/// Hoists the first iteration in front of the loop:
///
/// ```text
///   init ──▶ pred₀ ──▶ S₀ ── true ──▶ body copy #0 ──▶ D (loop as-is)
///              ▲        │
///   init ──────┘        └─ false ──▶ join ◀── D⁻¹ (loop exit)
///                                      │
///                                      ▼ old exit consumers
/// ```
fn apply_peel(block: &mut CodeBlock, du: &DefUse, bufs: &mut Buffers, lp: &LoopShape) {
    let nvars = lp.d.len();

    // A fresh copy of the predicate, fed by the init edges exactly as
    // the original is fed by the loop tops.
    let pred0 = block.instrs.len();
    let p = &block.instrs[lp.pred];
    let pred0_instr = Instruction {
        op: p.op,
        nt: p.nt,
        literal: p.literal,
        dests: Vec::new(),
    };
    block.instrs.push(pred0_instr);
    for e in &du.in_edges[lp.pred] {
        let (isrc, iw) = lp.init[lp.var_of_top(e.src.0)];
        block.instrs[isrc as usize].dests.push(Dest {
            instr: InstrId(pred0 as u32),
            port: e.port,
            when: iw,
        });
    }

    // Per variable: a gating switch on the fresh predicate and an exit
    // join that both the false branch and the loop's DInv feed.
    let Buffers {
        clones, cur, next, ..
    } = bufs;
    cur.clear();
    for k in 0..nvars {
        let sk = block.instrs.len();
        block.instrs.push(Instruction::new(OpCode::Switch));
        let (isrc, iw) = lp.init[k];
        block.instrs[isrc as usize].dests.push(Dest {
            instr: InstrId(sk as u32),
            port: Port(0),
            when: iw,
        });
        block.instrs[pred0].dests.push(Dest {
            instr: InstrId(sk as u32),
            port: Port(1),
            when: DestBranch::Always,
        });
        let jk = block.instrs.len();
        let mut join = Instruction::new(OpCode::Identity);
        join.dests = std::mem::take(&mut block.instrs[lp.dinv[k]].dests);
        block.instrs.push(join);
        block.instrs[lp.dinv[k]].dests = vec![Dest {
            instr: InstrId(jk as u32),
            port: Port(0),
            when: DestBranch::Always,
        }];
        block.instrs[sk].dests.push(Dest {
            instr: InstrId(jk as u32),
            port: Port(0),
            when: DestBranch::IfFalse,
        });
        cur.push((sk as u32, DestBranch::IfTrue));
    }

    // The inits no longer feed the Ds directly...
    for ins in &mut block.instrs {
        ins.dests
            .retain(|dd| !lp.d.contains(&(dd.instr.0 as usize)));
    }
    // ...the peeled body copy does, with its inputs gated through S₀.
    reset_clones(clones, du);
    clone_body_once(block, du, lp, clones, cur);
    resolve_next(lp, clones, cur, next);
    for (k, &(ns, nw)) in next.iter().enumerate() {
        block.instrs[ns as usize].dests.push(Dest {
            instr: InstrId(lp.d[k] as u32),
            port: Port(0),
            when: nw,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::{OpCode, Program, Value};

    /// A loop whose body contains an IStore: never transformed.
    fn impure_loop() -> Program {
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let arr = g.instr(OpCode::IAlloc);
        let size = g.lit(Value::Int(4));
        g.wire(n, size, 0);
        g.wire(size, arr, 0);
        let exits = g
            .dataflow_loop(
                &[one, n],
                |g, tops| {
                    let c = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[0], c, 0);
                    g.wire(tops[1], c, 1);
                    c
                },
                |g, vars| {
                    let st = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
                    g.wire(arr, st, 0);
                    g.wire(vars[0], st, 2);
                    let sink = g.instr(OpCode::Sink);
                    g.wire(st, sink, 0);
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[0], i2, 0);
                    vec![i2, vars[1]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        g.finish_program().unwrap()
    }

    #[test]
    fn impure_bodies_are_never_transformed() {
        let p = impure_loop();
        let (_, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.loops_unrolled, 0, "{stats:?}");
        assert_eq!(stats.loops_peeled, 0, "{stats:?}");
    }

    #[test]
    fn non_cmp_predicates_are_never_transformed() {
        // A predicate built from And (not a bare Cmp) falls outside the
        // schema; the loop must be left alone.
        let mut g = GraphBuilder::new("t");
        let n = g.param();
        let one = g.lit(Value::Int(1));
        g.wire(n, one, 0);
        let exits = g
            .dataflow_loop(
                &[one, n],
                |g, tops| {
                    let c1 = g.instr_lit(OpCode::Cmp(CmpOp::Le), 1, Value::Int(8));
                    g.wire(tops[0], c1, 0);
                    let c2 = g.instr(OpCode::Cmp(CmpOp::Le));
                    g.wire(tops[0], c2, 0);
                    g.wire(tops[1], c2, 1);
                    let and = g.instr(OpCode::And);
                    g.wire(c1, and, 0);
                    g.wire(c2, and, 1);
                    and
                },
                |g, vars| {
                    let i2 = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
                    g.wire(vars[0], i2, 0);
                    vec![i2, vars[1]]
                },
            )
            .unwrap();
        let out = g.output(0);
        g.wire(exits[0], out, 0);
        let p = g.finish_program().unwrap();
        let (_, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.loops_unrolled, 0, "{stats:?}");
        assert_eq!(stats.loops_peeled, 0, "{stats:?}");
    }
}
