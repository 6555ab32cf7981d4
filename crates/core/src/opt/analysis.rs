//! Per-block analyses for the optimizer and the schedulers.
//!
//! Two independent pieces, each computed only by whoever needs it:
//!
//! * [`DefUse`] — the def-use index the rewrite passes read: every
//!   instruction's in-edges in CSR form, a parameter bitmap, the proven
//!   result types ([`Ty`]) and the unconditional set. It describes one
//!   exact block: **every rewrite invalidates it** (DESIGN.md §14), so a
//!   pass rebuilds it after each rewrite, into the buffers it already
//!   holds, instead of patching it.
//! * [`heights`] and [`depths`] — critical-path lengths over the block's
//!   back-edge-free dataflow DAG. Heights are the criticality the
//!   schedulers consume ([`annotate_criticality`](super::annotate_criticality),
//!   `sched::CritMap`); depths give [`critical_path`], which the `opt`
//!   subcommand of ttda-bench reports.

use std::ops::{Index, Range};

use crate::graph::{CodeBlock, DestBranch, InstrId, OpCode};
use crate::tag::Port;
use crate::value::Value;

/// One incoming edge of an instruction (the use-side view of a
/// [`Dest`](crate::graph::Dest); together with the forward `dests` lists
/// these form the block's def-use chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InEdge {
    /// The producing instruction.
    pub src: InstrId,
    /// Operand slot at the consumer this edge feeds.
    pub port: Port,
    /// Branch selector on the producing side (`Switch` sources).
    pub when: DestBranch,
}

/// The in-edges of every instruction of a block in compressed sparse
/// row form: instruction `i`'s edges are `edges[start[i]..start[i + 1]]`,
/// in source-scan order (by producing instruction, then by its `dests`
/// order). Index it by instruction: `in_edges[i]` is a slice.
#[derive(Debug, Clone, Default)]
pub struct InEdges {
    start: Vec<u32>,
    edges: Vec<InEdge>,
}

impl InEdges {
    /// Recomputes the table for `block`, reusing this table's buffers.
    fn rebuild(&mut self, block: &CodeBlock) {
        let n = block.instrs.len();
        // Count into `start[t + 2]`, prefix-sum so `start[t + 1]` is the
        // first slot of `t`, then fill by bumping `start[t + 1]` — which
        // leaves it at the end of `t`, i.e. the first slot of `t + 1`.
        self.start.clear();
        self.start.resize(n + 2, 0);
        for ins in &block.instrs {
            for d in &ins.dests {
                self.start[d.instr.0 as usize + 2] += 1;
            }
        }
        for i in 2..n + 2 {
            self.start[i] += self.start[i - 1];
        }
        let dummy = InEdge {
            src: InstrId(0),
            port: Port(0),
            when: DestBranch::Always,
        };
        self.edges.clear();
        self.edges.resize(self.start[n + 1] as usize, dummy);
        for (i, ins) in block.instrs.iter().enumerate() {
            for d in &ins.dests {
                let slot = &mut self.start[d.instr.0 as usize + 1];
                self.edges[*slot as usize] = InEdge {
                    src: InstrId(i as u32),
                    port: d.port,
                    when: d.when,
                };
                *slot += 1;
            }
        }
        self.start.truncate(n + 1);
    }

    /// Number of instructions the table covers.
    pub fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Whether the table covers no instruction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges in the table.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Positions of `i`'s edges in the flat edge array.
    fn range(&self, i: usize) -> Range<usize> {
        self.start[i] as usize..self.start[i + 1] as usize
    }
}

impl Index<usize> for InEdges {
    type Output = [InEdge];

    fn index(&self, i: usize) -> &[InEdge] {
        &self.edges[self.range(i)]
    }
}

/// A conservative value type for an instruction's result.
///
/// The lattice is flat: `Int`, `Float`, and `Bool` sit below [`Ty::Any`]
/// and the join of two distinct concrete types is `Any`. Types are
/// propagated pessimistically (everything starts at `Any` and is
/// refined), so a `Ty::Int` verdict is a proof — algebraic rewrites rely
/// on it because `x + 0` is *not* the identity for a float `x` (integer
/// literals promote the operation to float arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Provably a 64-bit integer.
    Int,
    /// Provably a 64-bit float.
    Float,
    /// Provably a boolean.
    Bool,
    /// Unknown (parameters, I-structure traffic, cross-block values,
    /// loop-circulated values).
    Any,
}

impl Ty {
    /// The type of a literal value.
    pub(super) fn of_value(v: &Value) -> Ty {
        match v {
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
            Value::Bool(_) => Ty::Bool,
            _ => Ty::Any,
        }
    }

    fn join(self, other: Ty) -> Ty {
        if self == other {
            self
        } else {
            Ty::Any
        }
    }
}

/// The def-use index of one code block: everything the rewrite passes
/// read about it.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// Incoming edges per instruction, in source-scan order.
    pub in_edges: InEdges,
    /// Proven result type per instruction (see [`Ty`]).
    pub ty: Vec<Ty>,
    /// The *unconditional set*: instructions proven to fire exactly once
    /// per block activation, with the activation's own tag. Membership
    /// requires a pure single-token opcode whose every operand is a
    /// literal or a single `Always` edge from another member (parameters
    /// with no extra in-edges seed the set). Members are the only places
    /// a rewrite may *drop* an edge: a member's token is redundant with
    /// any other member's token arrival.
    pub uncond: Vec<bool>,
    param: Vec<bool>,
}

impl DefUse {
    /// Computes the index for `block`.
    pub fn of(block: &CodeBlock) -> DefUse {
        let mut du = DefUse::default();
        du.rebuild(block);
        du
    }

    /// Recomputes the index for `block` from scratch, reusing this
    /// index's buffers (nothing of the previous contents survives).
    pub fn rebuild(&mut self, block: &CodeBlock) {
        let n = block.instrs.len();
        self.in_edges.rebuild(block);
        self.param.clear();
        self.param.resize(n, false);
        for p in &block.params {
            self.param[p.0 as usize] = true;
        }
        self.refine_types(block);
        self.grow_uncond(block);
    }

    /// Whether instruction `i` is one of the block's parameter entries.
    #[inline]
    pub fn is_param(&self, i: usize) -> bool {
        self.param[i]
    }

    /// Pessimistic type refinement to a fixed point.
    fn refine_types(&mut self, block: &CodeBlock) {
        let in_edges = &self.in_edges;
        let ty = &mut self.ty;
        ty.clear();
        ty.resize(block.instrs.len(), Ty::Any);
        loop {
            let mut changed = false;
            for (i, ins) in block.instrs.iter().enumerate() {
                let operand = |p: u8| -> Ty {
                    let mut t: Option<Ty> = None;
                    if let Some((lp, lv)) = &ins.literal {
                        if lp.0 == p {
                            t = Some(Ty::of_value(lv));
                        }
                    }
                    for ie in &in_edges[i] {
                        if ie.port.0 == p {
                            let s = ty[ie.src.0 as usize];
                            t = Some(match t {
                                None => s,
                                Some(cur) => cur.join(s),
                            });
                        }
                    }
                    t.unwrap_or(Ty::Any)
                };
                let new = match &ins.op {
                    OpCode::Const(v) => Ty::of_value(v),
                    OpCode::Cmp(_) | OpCode::Not | OpCode::And | OpCode::Or => Ty::Bool,
                    OpCode::Alu(_) => match (operand(0), operand(1)) {
                        (Ty::Int, Ty::Int) => Ty::Int,
                        (Ty::Int | Ty::Float, Ty::Int | Ty::Float) => Ty::Float,
                        _ => Ty::Any,
                    },
                    OpCode::Identity
                    | OpCode::Switch
                    | OpCode::L
                    | OpCode::LInv
                    | OpCode::D { .. }
                    | OpCode::DInv => operand(0),
                    _ => Ty::Any,
                };
                if new != ty[i] && ty[i] == Ty::Any {
                    ty[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The unconditional set, grown to a fixed point.
    fn grow_uncond(&mut self, block: &CodeBlock) {
        let in_edges = &self.in_edges;
        let uncond = &mut self.uncond;
        uncond.clear();
        uncond.resize(block.instrs.len(), false);
        for p in &block.params {
            let i = p.0 as usize;
            if in_edges[i].is_empty() {
                uncond[i] = true;
            }
        }
        loop {
            let mut changed = false;
            'node: for (i, ins) in block.instrs.iter().enumerate() {
                if uncond[i] || self.param[i] {
                    continue;
                }
                if !matches!(
                    ins.op,
                    OpCode::Identity
                        | OpCode::Const(_)
                        | OpCode::Alu(_)
                        | OpCode::Cmp(_)
                        | OpCode::Not
                        | OpCode::And
                        | OpCode::Or
                ) {
                    continue;
                }
                for p in 0..ins.op.arity() {
                    if ins.literal.as_ref().is_some_and(|(lp, _)| lp.0 == p) {
                        continue;
                    }
                    let mut feeds = in_edges[i].iter().filter(|ie| ie.port.0 == p);
                    let (Some(ie), None) = (feeds.next(), feeds.next()) else {
                        continue 'node;
                    };
                    if ie.when != DestBranch::Always || !uncond[ie.src.0 as usize] {
                        continue 'node;
                    }
                }
                uncond[i] = true;
                changed = true;
            }
            if !changed {
                break;
            }
        }
    }
}

/// The back-edge-free DAG view of one block that [`heights`] and
/// [`depths`] walk: reachability from the block's entries (parameters
/// and zero-in-degree instructions), a postorder, and which in-edges
/// close a cycle. Its buffers are reused from block to block.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dag {
    in_edges: InEdges,
    /// Per instruction: `UNSEEN`, `OPEN` or `DONE` (`DONE` = reachable).
    state: Vec<u8>,
    /// Per instruction: whether it is a parameter.
    param: Vec<bool>,
    /// Reachable instructions in DFS postorder (reversed, a reverse
    /// postorder: every non-back predecessor of a node precedes it).
    postorder: Vec<u32>,
    /// Per CSR edge: whether it is a back edge.
    is_back: Vec<bool>,
    /// Back edges as `(target, CSR edge)`, in the order the DFS found
    /// them.
    back: Vec<(u32, u32)>,
    stack: Vec<(u32, u32)>,
}

const UNSEEN: u8 = 0;
const OPEN: u8 = 1;
const DONE: u8 = 2;

impl Dag {
    /// Recomputes the view for `block`.
    fn build(&mut self, block: &CodeBlock) {
        let n = block.instrs.len();
        self.in_edges.rebuild(block);
        let in_edges = &self.in_edges;
        self.state.clear();
        self.state.resize(n, UNSEEN);
        self.param.clear();
        self.param.resize(n, false);
        for p in &block.params {
            self.param[p.0 as usize] = true;
        }
        self.postorder.clear();
        self.postorder.reserve(n);
        self.stack.reserve(n);
        self.is_back.clear();
        self.is_back.resize(in_edges.edges.len(), false);
        self.back.clear();

        // DFS from the virtual root over every entry in index order:
        // reachability, postorder, and back-edge marking (an edge into a
        // node still on the stack).
        for e in 0..n {
            if self.state[e] != UNSEEN || !(self.param[e] || in_edges[e].is_empty()) {
                continue;
            }
            self.stack.push((e as u32, 0));
            self.state[e] = OPEN;
            while let Some(&mut (node, ref mut idx)) = self.stack.last_mut() {
                let node = node as usize;
                let Some(&d) = block.instrs[node].dests.get(*idx as usize) else {
                    self.state[node] = DONE;
                    self.postorder.push(node as u32);
                    self.stack.pop();
                    continue;
                };
                *idx += 1;
                let t = d.instr.0 as usize;
                match self.state[t] {
                    UNSEEN => {
                        self.state[t] = OPEN;
                        self.stack.push((t as u32, 0));
                    }
                    OPEN => {
                        // A back edge; record it on the *target* as the
                        // first matching in-edge not already marked
                        // (duplicate parallel edges are each their own
                        // back edge).
                        let is_back = &self.is_back;
                        let pos = in_edges.range(t).find(|&k| {
                            let ie = in_edges.edges[k];
                            ie.src.0 as usize == node
                                && ie.port == d.port
                                && ie.when == d.when
                                && !is_back[k]
                        });
                        if let Some(k) = pos {
                            self.is_back[k] = true;
                            self.back.push((t as u32, k as u32));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Whether instruction `i` was reached from an entry.
    fn reachable(&self, i: usize) -> bool {
        self.state[i] == DONE
    }

    /// The non-back in-edges of `v` whose producer is reachable, as
    /// producer indexes.
    fn dag_preds(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.in_edges
            .range(v)
            .filter(|&k| !self.is_back[k])
            .map(|k| self.in_edges.edges[k].src.0 as usize)
            .filter(|&p| self.reachable(p))
    }

    /// Critical-path heights of `block` (see [`heights`]).
    pub(crate) fn heights(&mut self, block: &CodeBlock) -> Vec<u32> {
        self.build(block);
        let mut height = vec![0u32; block.instrs.len()];
        self.dag_pass(&mut height);
        // Loop-carried boost: a back edge's producer gates the whole
        // next iteration, so seed it with the loop entry's height and
        // re-run the DAG pass to flow the boost up the chain feeding
        // it. (One traversal of each back edge; heights only grow, and
        // the second pass sees final consumer heights in postorder, so
        // one re-run reaches the fixed point for these seeds.) Seeds go
        // by target in index order, each target's edges in the order the
        // DFS found them.
        self.back.sort_by_key(|&(t, _)| t);
        let mut seeded = false;
        for &(v, k) in &self.back {
            let v = v as usize;
            let p = self.in_edges.edges[k as usize].src.0 as usize;
            if self.reachable(p) && height[p] < height[v] + 1 {
                height[p] = height[v] + 1;
                seeded = true;
            }
        }
        if seeded {
            self.dag_pass(&mut height);
        }
        height
    }

    /// One height pass in postorder: all non-back successors of a node
    /// are processed before it, so a node's own height is final when it
    /// pushes height+1 into its producers.
    fn dag_pass(&self, height: &mut [u32]) {
        for &v in &self.postorder {
            let v = v as usize;
            for p in self.dag_preds(v) {
                height[p] = height[p].max(height[v] + 1);
            }
        }
    }

    /// Critical-path depths of `block` (see [`depths`]).
    fn depths(&mut self, block: &CodeBlock) -> Vec<u32> {
        self.build(block);
        let mut depth = vec![0u32; block.instrs.len()];
        for &v in self.postorder.iter().rev() {
            let v = v as usize;
            depth[v] = self.dag_preds(v).map(|p| depth[p] + 1).max().unwrap_or(0);
        }
        depth
    }
}

/// Critical-path height per instruction: the longest path (in
/// instructions) from it to any exit (a node with no non-back out-edges),
/// where loop back edges may be traversed **once** — the *remaining* work
/// below the node, where [`depths`] is the acyclic work above it. Exits
/// have height 0; instructions unreachable from the block's entries
/// report 0. This is the criticality the schedulers consume: a ready
/// token aimed at a high-height instruction gates a longer dependence
/// chain than one aimed at a leaf. The one back-edge traversal matters
/// for loops: the producer of a loop-carried value gates the *entire
/// next iteration*, so it (and the chain feeding it) inherits the loop
/// entry's height instead of the nearly-zero height a pure DAG view
/// would give it.
pub fn heights(block: &CodeBlock) -> Vec<u32> {
    Dag::default().heights(block)
}

/// Critical-path depth per instruction: the longest acyclic path (in
/// instructions) from any entry (a parameter or a zero-in-degree
/// instruction) to it, ignoring loop back edges. Entries have depth 0;
/// unreachable instructions report 0.
pub fn depths(block: &CodeBlock) -> Vec<u32> {
    Dag::default().depths(block)
}

/// The graph-level critical path of a whole program: the maximum
/// [`depths`] entry over every block, i.e. the longest chain of
/// data-dependent instructions within any single activation (a lower
/// bound on end-to-end latency; inter-block `Apply` chains compose on
/// top of it).
pub fn critical_path(program: &crate::graph::Program) -> u32 {
    let mut dag = Dag::default();
    program
        .blocks
        .iter()
        .map(|b| dag.depths(b).into_iter().max().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::value::{AluOp, CmpOp};
    use crate::Value;

    #[test]
    fn diamond_depth_and_height() {
        // x -> a -> c, x -> b -> c: depth(c) = 2.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let a = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        let b = g.instr_lit(OpCode::Alu(AluOp::Mul), 1, Value::Int(2));
        let c = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(x, a, 0);
        g.wire(x, b, 0);
        g.wire(a, c, 0);
        g.wire(b, c, 1);
        let out = g.output(0);
        g.wire(c, out, 0);
        let p = g.finish_program().unwrap();
        let block = &p.blocks[0];
        let mut dag = Dag::default();
        dag.build(block);
        assert!((0..block.instrs.len()).all(|i| dag.reachable(i)));
        let depth = depths(block);
        assert_eq!(depth[x.id.0 as usize], 0);
        assert_eq!(depth[c.id.0 as usize], 2);
        assert_eq!(depth[out.id.0 as usize], 3);
        // Height mirrors depth from the other end of the DAG: the sink
        // has nothing below it, the entry has the whole path.
        let height = heights(block);
        assert_eq!(height[out.id.0 as usize], 0);
        assert_eq!(height[c.id.0 as usize], 1);
        assert_eq!(height[a.id.0 as usize], 2);
        assert_eq!(height[b.id.0 as usize], 2);
        assert_eq!(height[x.id.0 as usize], 3);
        assert_eq!(critical_path(&p), 3);
        // Def-use: c has exactly two in-edges, one per port.
        let du = DefUse::of(block);
        assert_eq!(du.in_edges[c.id.0 as usize].len(), 2);
        assert!(du.is_param(x.id.0 as usize) && !du.is_param(c.id.0 as usize));
    }

    #[test]
    fn types_prove_const_arithmetic_and_nothing_else() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c3 = g.lit(Value::Int(3));
        g.wire(x, c3, 0);
        let add = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(4));
        g.wire(c3, add, 0);
        let mixed = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Float(1.0));
        g.wire(c3, mixed, 0);
        let unknowable = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        g.wire(x, unknowable, 0);
        let cmp = g.instr_lit(OpCode::Cmp(CmpOp::Lt), 1, Value::Int(9));
        g.wire(add, cmp, 0);
        let out = g.output(0);
        g.wire(cmp, out, 0);
        let s = g.instr(OpCode::Sink);
        g.wire(mixed, s, 0);
        let s2 = g.instr(OpCode::Sink);
        g.wire(unknowable, s2, 0);
        let p = g.finish_program().unwrap();
        let an = DefUse::of(&p.blocks[0]);
        assert_eq!(an.ty[add.id.0 as usize], Ty::Int);
        assert_eq!(an.ty[mixed.id.0 as usize], Ty::Float);
        assert_eq!(an.ty[unknowable.id.0 as usize], Ty::Any, "params stay Any");
        assert_eq!(an.ty[cmp.id.0 as usize], Ty::Bool);
    }

    #[test]
    fn uncond_excludes_gated_and_multi_edge_nodes() {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let c = g.instr_lit(OpCode::Cmp(CmpOp::Gt), 1, Value::Int(0));
        g.wire(x, c, 0);
        let sw = g.instr(OpCode::Switch);
        g.wire(x, sw, 0);
        g.wire(c, sw, 1);
        let gated = g.instr_lit(OpCode::Alu(AluOp::Add), 1, Value::Int(1));
        g.wire_true(sw, gated, 0);
        let join = g.instr(OpCode::Identity);
        g.wire(gated, join, 0);
        g.wire_false(sw, join, 0);
        let out = g.output(0);
        g.wire(join, out, 0);
        let p = g.finish_program().unwrap();
        let an = DefUse::of(&p.blocks[0]);
        assert!(an.uncond[x.id.0 as usize], "parameter is unconditional");
        assert!(an.uncond[c.id.0 as usize], "straight-line compare is");
        assert!(!an.uncond[sw.id.0 as usize], "Switch is not a member op");
        assert!(!an.uncond[gated.id.0 as usize], "branch edge disqualifies");
        assert!(!an.uncond[join.id.0 as usize], "two edges on one port");
    }
}
