//! Local common-subexpression elimination.
//!
//! Two instructions in one code block are duplicates when they run the
//! same operation, carry the same literal, and receive their operands
//! from the same sources on the same ports with the same branch
//! selectors — then every activation delivers them identical token
//! streams (with identical tags), so they produce identical outputs and
//! one can absorb the other's destinations. Merging is firing-safe by
//! construction: the survivor's input tokens are untouched, and the
//! victim simply stops receiving tokens (its in-edges are dropped) and
//! dies in DCE.
//!
//! The domain is the pure value ops (`Const`/`Alu`/`Cmp`/`Not`/`And`/
//! `Or`); `Identity` belongs to forwarding, `Switch` routing is shape,
//! and tag operators/parameters are pinned. The pass iterates because a
//! merge makes downstream consumers' keys converge.

use std::collections::HashMap;

use crate::graph::{CodeBlock, DestBranch, OpCode};
use crate::value::{AluOp, CmpOp, StructRef, Value};

use super::analysis::DefUse;
use super::OptStats;

/// A value as the CSE key compares it: floats by bit pattern, with
/// every NaN alike (so `0.0` and `-0.0` stay apart, and two NaN
/// literals are the same literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValKey {
    Unit,
    Bool(bool),
    Int(i64),
    Float(u64),
    Ptr(StructRef),
}

impl ValKey {
    fn of(v: &Value) -> ValKey {
        match *v {
            Value::Unit => ValKey::Unit,
            Value::Bool(b) => ValKey::Bool(b),
            Value::Int(i) => ValKey::Int(i),
            Value::Float(x) if x.is_nan() => ValKey::Float(f64::NAN.to_bits()),
            Value::Float(x) => ValKey::Float(x.to_bits()),
            Value::Ptr(p) => ValKey::Ptr(p),
        }
    }
}

/// The opcodes CSE merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKey {
    Const(ValKey),
    Alu(AluOp),
    Cmp(CmpOp),
    Not,
    And,
    Or,
}

impl OpKey {
    /// `None` outside the pure value ops.
    fn of(op: &OpCode) -> Option<OpKey> {
        Some(match op {
            OpCode::Const(v) => OpKey::Const(ValKey::of(v)),
            OpCode::Alu(a) => OpKey::Alu(*a),
            OpCode::Cmp(c) => OpKey::Cmp(*c),
            OpCode::Not => OpKey::Not,
            OpCode::And => OpKey::And,
            OpCode::Or => OpKey::Or,
            _ => return None,
        })
    }
}

/// One in-edge as the key sees it: `(port, source, branch rank)`, so a
/// sorted slice groups the edges by port.
type EdgeKey = (u8, u32, u8);

/// Two instructions are duplicates iff their keys are equal: opcode,
/// literal, and the sorted in-edges.
type Key<'a> = (OpKey, Option<(u8, ValKey)>, &'a [EdgeKey]);

/// Buffers the pass reuses from block to block and round to round.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    /// Every candidate's sorted in-edges, back to back.
    edges: Vec<EdgeKey>,
    /// Per candidate: its instruction and where its edges start in
    /// `edges`.
    cands: Vec<(u32, u32)>,
    /// `(victim, representative)`, in victim order.
    merges: Vec<(u32, u32)>,
    victim: Vec<bool>,
}

/// Runs merging to a fixed point. Returns whether anything changed;
/// `du` describes `block` on entry and on return.
pub(super) fn run(
    block: &mut CodeBlock,
    du: &mut DefUse,
    bufs: &mut Buffers,
    stats: &mut OptStats,
) -> bool {
    let mut any = false;
    while merge_round(block, du, bufs) {
        apply_merges(block, bufs, stats);
        du.rebuild(block);
        any = true;
    }
    any
}

/// Applies `bufs.merges`. The survivor absorbs the victim's
/// destinations; every edge into a victim is dropped (sources fire
/// regardless of fan-out, so dropping a delivery to a now-silent
/// duplicate is safe).
fn apply_merges(block: &mut CodeBlock, bufs: &mut Buffers, stats: &mut OptStats) {
    let victim = &mut bufs.victim;
    victim.clear();
    victim.resize(block.instrs.len(), false);
    for &(v, rep) in &bufs.merges {
        let (v, rep) = (v as usize, rep as usize);
        let dests = std::mem::take(&mut block.instrs[v].dests);
        block.instrs[rep].dests.extend_from_slice(&dests);
        // Neutralize the victim so later rounds cannot key two emptied
        // duplicates against each other; DCE reaps Sinks.
        let ins = &mut block.instrs[v];
        ins.op = OpCode::Sink;
        ins.nt = 1;
        ins.literal = None;
        victim[v] = true;
    }
    for ins in &mut block.instrs {
        ins.dests.retain(|d| !victim[d.instr.0 as usize]);
    }
    stats.cse_merged += bufs.merges.len();
}

/// Fills `bufs.merges` with this round's duplicates; returns whether
/// there are any.
///
/// The first occurrence of a key is the representative; later ones
/// merge into it. A representative can never itself be merged this
/// round (it would have matched an earlier occurrence). Victims are
/// listed in index order: the merge loop extends the survivors' dest
/// lists in this order, so the compiled program's edge order — and
/// with it every order-sensitive downstream measurement (timed-machine
/// makespans, token traces) — is the same on every run.
fn merge_round(block: &CodeBlock, du: &DefUse, bufs: &mut Buffers) -> bool {
    let Buffers {
        edges,
        cands,
        merges,
        ..
    } = bufs;
    edges.clear();
    edges.reserve(du.in_edges.edge_count());
    cands.clear();
    cands.reserve(block.instrs.len());
    merges.clear();
    'instr: for (i, ins) in block.instrs.iter().enumerate() {
        if OpKey::of(&ins.op).is_none() || du.is_param(i) {
            continue;
        }
        let start = edges.len();
        for e in &du.in_edges[i] {
            if e.src.0 as usize == i {
                // Self-loop: not a pure value stream.
                edges.truncate(start);
                continue 'instr;
            }
            edges.push((e.port.0, e.src.0, when_rank(e.when)));
        }
        edges[start..].sort_unstable();
        cands.push((i as u32, start as u32));
    }
    if cands.len() < 2 {
        return false;
    }
    let mut table: HashMap<Key<'_>, u32> = HashMap::with_capacity(cands.len());
    for (c, &(i, start)) in cands.iter().enumerate() {
        let end = cands.get(c + 1).map_or(edges.len(), |&(_, s)| s as usize);
        let ins = &block.instrs[i as usize];
        let key = (
            OpKey::of(&ins.op).expect("candidates are keyed ops"),
            ins.literal.map(|(p, v)| (p.0, ValKey::of(&v))),
            &edges[start as usize..end],
        );
        let rep = *table.entry(key).or_insert(i);
        if rep != i {
            merges.push((i, rep));
        }
    }
    !merges.is_empty()
}

fn when_rank(w: DestBranch) -> u8 {
    match w {
        DestBranch::Always => 0,
        DestBranch::IfTrue => 1,
        DestBranch::IfFalse => 2,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    use ttda_sim::SimRng;

    use super::super::{assert_equivalent, forward, optimize_at, OptLevel, OptStats};
    use super::{apply_merges, merge_round, when_rank, Buffers, DefUse};
    use crate::builder::{GraphBuilder, NodeId};
    use crate::graph::{CodeBlock, DestBranch};
    use crate::value::{AluOp, CmpOp};
    use crate::{Emulator, OpCode, Value};

    /// The key this pass used before the fixed-size one: the `Debug`
    /// rendering of the opcode, the literal and the per-port sorted
    /// in-edges. Kept as the reference model of which instructions are
    /// duplicates. Returns `(victim, representative)` in victim order.
    fn string_key_merges(block: &CodeBlock) -> Vec<(u32, u32)> {
        let n = block.instrs.len();
        let mut in_edges: Vec<Vec<(u32, u8, DestBranch)>> = vec![Vec::new(); n];
        for (i, ins) in block.instrs.iter().enumerate() {
            for d in &ins.dests {
                in_edges[d.instr.0 as usize].push((i as u32, d.port.0, d.when));
            }
        }
        let key = |i: usize| -> Option<String> {
            let ins = &block.instrs[i];
            if !matches!(
                ins.op,
                OpCode::Const(_)
                    | OpCode::Alu(_)
                    | OpCode::Cmp(_)
                    | OpCode::Not
                    | OpCode::And
                    | OpCode::Or
            ) {
                return None;
            }
            if block.params.iter().any(|p| p.0 as usize == i) {
                return None;
            }
            let mut ports: Vec<Vec<(u32, u8, DestBranch)>> =
                vec![Vec::new(); ins.op.arity() as usize];
            for &(src, port, when) in &in_edges[i] {
                if src as usize == i {
                    return None;
                }
                ports[port as usize].push((src, port, when));
            }
            for p in &mut ports {
                p.sort_by_key(|&(src, _, when)| (src, when_rank(when)));
            }
            Some(format!("{:?}|{:?}|{ports:?}", ins.op, ins.literal))
        };
        let mut table: HashMap<String, usize> = HashMap::new();
        let mut merged_into: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..n {
            let Some(k) = key(i) else { continue };
            match table.get(&k) {
                None => {
                    table.insert(k, i);
                }
                Some(&rep) => {
                    merged_into.insert(i, rep);
                }
            }
        }
        merged_into
            .into_iter()
            .map(|(v, r)| (v as u32, r as u32))
            .collect()
    }

    /// This round's merges under the fixed-size key.
    fn key_merges(block: &CodeBlock) -> Vec<(u32, u32)> {
        let mut bufs = Buffers::default();
        merge_round(block, &DefUse::of(block), &mut bufs);
        bufs.merges
    }

    /// One block of `Const`s over the values given, each triggered by
    /// the one parameter and sent to its own output.
    fn consts_block(values: &[Value]) -> CodeBlock {
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        for (slot, &v) in values.iter().enumerate() {
            let c = g.lit(v);
            g.wire(x, c, 0);
            let out = g.output(slot as u32);
            g.wire(c, out, 0);
        }
        g.finish_program().unwrap().blocks.swap_remove(0)
    }

    #[test]
    fn signed_zeros_never_merge() {
        let b = consts_block(&[Value::Float(0.0), Value::Float(-0.0)]);
        assert_eq!(key_merges(&b), vec![]);
        assert_eq!(string_key_merges(&b), vec![]);
    }

    #[test]
    fn nan_consts_merge_whatever_their_bits() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        let b = consts_block(&[
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(payload),
        ]);
        let merges = key_merges(&b);
        assert_eq!(merges.len(), 2, "{merges:?}");
        assert_eq!(merges, string_key_merges(&b));
    }

    #[test]
    fn int_and_float_one_stay_apart() {
        let b = consts_block(&[Value::Int(1), Value::Float(1.0), Value::Int(1)]);
        let merges = key_merges(&b);
        assert_eq!(merges.len(), 1, "only the two Int(1)s: {merges:?}");
        assert_eq!(merges, string_key_merges(&b));
    }

    /// Literals the random blocks draw from: the float cases the key
    /// must get right, and integers that collide often.
    const PALETTE: [Value; 9] = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Bool(true),
    ];

    /// A random expression over two parameters, shaped like the
    /// `xexpr` fuzz family (`x`, `y`, constants, `+`/`-`/`*`, and
    /// `if c > 0 then a else b` through `Switch`es and a join), built
    /// straight into the graph. Subtrees are not shared, so repeated
    /// leaves and subexpressions are what CSE finds.
    fn gen_expr(g: &mut GraphBuilder, rng: &mut SimRng, xy: [NodeId; 2], depth: usize) -> NodeId {
        if depth == 0 || rng.chance(0.3) {
            return match rng.gen_range(0u32..4) {
                k @ 0..=1 => xy[k as usize],
                _ => {
                    let c = g.lit(*rng.choose(&PALETTE).unwrap());
                    g.wire(xy[0], c, 0);
                    c
                }
            };
        }
        let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul];
        match rng.gen_range(0u32..4) {
            k @ 0..=2 => {
                let op = OpCode::Alu(ops[k as usize]);
                let a = gen_expr(g, rng, xy, depth - 1);
                if rng.chance(0.3) {
                    let node = g.instr_lit(op, 1, *rng.choose(&PALETTE).unwrap());
                    g.wire(a, node, 0);
                    node
                } else {
                    let b = gen_expr(g, rng, xy, depth - 1);
                    let node = g.instr(op);
                    g.wire(a, node, 0);
                    g.wire(b, node, 1);
                    node
                }
            }
            _ => {
                let c = gen_expr(g, rng, xy, depth - 1);
                let cmp = g.instr_lit(OpCode::Cmp(CmpOp::Gt), 1, Value::Int(0));
                g.wire(c, cmp, 0);
                let join = g.instr(OpCode::Identity);
                for taken in [true, false] {
                    let v = gen_expr(g, rng, xy, depth - 1);
                    let sw = g.instr(OpCode::Switch);
                    g.wire(v, sw, 0);
                    g.wire(cmp, sw, 1);
                    if taken {
                        g.wire_true(sw, join, 0);
                    } else {
                        g.wire_false(sw, join, 0);
                    }
                }
                join
            }
        }
    }

    #[test]
    fn fixed_size_key_partitions_like_the_string_key() {
        let mut rng = SimRng::seed(0xc5e_4e75);
        let mut merged = 0;
        for case in 0..256 {
            let mut g = GraphBuilder::new("t");
            let xy = [g.param(), g.param()];
            let root = gen_expr(&mut g, &mut rng, xy, 4);
            let out = g.output(0);
            g.wire(root, out, 0);
            let block = g.finish_program().unwrap().blocks.swap_remove(0);
            // The codegen shape, then the shape forwarding leaves (where
            // the joins are gone and more keys coincide).
            let mut forwarded = block.clone();
            let mut du = DefUse::of(&forwarded);
            let mut stats = OptStats::default();
            forward::run(&mut forwarded, &mut du, &mut Default::default(), &mut stats);
            for mut b in [block, forwarded] {
                // Every round, until no duplicates are left.
                let mut bufs = Buffers::default();
                loop {
                    let any = merge_round(&b, &DefUse::of(&b), &mut bufs);
                    assert_eq!(bufs.merges, string_key_merges(&b), "case {case}");
                    if !any {
                        break;
                    }
                    merged += bufs.merges.len();
                    apply_merges(&mut b, &mut bufs, &mut stats);
                }
            }
        }
        assert!(merged > 256, "the blocks exercise merging: {merged}");
    }

    #[test]
    fn duplicate_subexpressions_merge() {
        // (x+y) + (x+y) with the addend computed twice.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let y = g.param();
        let a1 = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(x, a1, 0);
        g.wire(y, a1, 1);
        let a2 = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(x, a2, 0);
        g.wire(y, a2, 1);
        let sum = g.instr(OpCode::Alu(AluOp::Add));
        g.wire(a1, sum, 0);
        g.wire(a2, sum, 1);
        let out = g.output(0);
        g.wire(sum, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert!(stats.cse_merged >= 1, "{stats:?}");
        assert_equivalent(&p, &opt, &[Value::Int(3), Value::Int(4)]);
        let a = Emulator::new(&p)
            .run(&[Value::Int(3), Value::Int(4)])
            .unwrap();
        let b = Emulator::new(&opt)
            .run(&[Value::Int(3), Value::Int(4)])
            .unwrap();
        assert_eq!(b.outputs[&0], Value::Int(14));
        assert!(
            b.instructions < a.instructions,
            "{} {}",
            b.instructions,
            a.instructions
        );
        assert!(b.alu_ops < a.alu_ops);
    }

    #[test]
    fn different_ports_and_literals_do_not_merge() {
        // x-y vs y-x share sources but not port assignments.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let y = g.param();
        let s1 = g.instr(OpCode::Alu(AluOp::Sub));
        g.wire(x, s1, 0);
        g.wire(y, s1, 1);
        let s2 = g.instr(OpCode::Alu(AluOp::Sub));
        g.wire(y, s2, 0);
        g.wire(x, s2, 1);
        let o1 = g.output(0);
        let o2 = g.output(1);
        g.wire(s1, o1, 0);
        g.wire(s2, o2, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize_at(&p, OptLevel::O2);
        assert_eq!(stats.cse_merged, 0, "{stats:?}");
        let r = Emulator::new(&opt)
            .run(&[Value::Int(10), Value::Int(3)])
            .unwrap();
        assert_eq!(r.outputs[&0], Value::Int(7));
        assert_eq!(r.outputs[&1], Value::Int(-7));
    }
}
