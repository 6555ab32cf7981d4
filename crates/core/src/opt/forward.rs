//! Identity forwarding with path compression.
//!
//! An `Identity` with no literal simply re-emits its input, so every
//! edge `S →(w) I` plus `I → T` composes to `S →(w) T`; the junction
//! disappears. (Parameter entries are kept — they are the block's input
//! ports.) The seed implementation rescanned and rewired the whole
//! block once per collapsed junction, an O(n²) cost that a 10k-junction
//! chain turns into ~10⁸ dest-list rebuilds; this version resolves each
//! junction's *flattened* destination list once, in post-order (path
//! compression over the identity subgraph, all of them in one flat
//! buffer), and then rewires every edge in a single sweep — O(total
//! edges) overall.

use crate::graph::{CodeBlock, Dest, OpCode};

use super::analysis::DefUse;
use super::OptStats;

/// Buffers the pass reuses from block to block and round to round.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    collapsible: Vec<bool>,
    state: Vec<u8>,
    postorder: Vec<u32>,
    stack: Vec<(u32, u32)>,
    /// Per junction: its flattened destination list as a range of
    /// `flat_dests`.
    flat: Vec<(u32, u32)>,
    flat_dests: Vec<Dest>,
    rewired: Vec<Dest>,
}

/// Collapses every forwardable `Identity` junction. Returns whether
/// anything changed; `du` describes `block` on entry and on return.
pub(super) fn run(
    block: &mut CodeBlock,
    du: &mut DefUse,
    bufs: &mut Buffers,
    stats: &mut OptStats,
) -> bool {
    let n = block.instrs.len();
    let collapsible = &mut bufs.collapsible;
    collapsible.clear();
    collapsible.extend(
        block
            .instrs
            .iter()
            .enumerate()
            .map(|(i, ins)| ins.op == OpCode::Identity && ins.literal.is_none() && !du.is_param(i)),
    );
    if !collapsible.iter().any(|&c| c) {
        return false;
    }

    // Phase 1: DFS over the identity subgraph for cycle detection and a
    // post-order. A cycle of identities (a self-loop or longer) never
    // delivers a token anywhere new, but collapsing one would silently
    // drop the circulating tokens; any identity that is the target of a
    // back edge stays a real junction.
    const UNSEEN: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let state = &mut bufs.state;
    state.clear();
    state.resize(n, UNSEEN);
    let postorder = &mut bufs.postorder;
    postorder.clear();
    postorder.reserve(n);
    let stack = &mut bufs.stack;
    stack.reserve(n);
    for start in 0..n {
        if !collapsible[start] || state[start] != UNSEEN {
            continue;
        }
        stack.push((start as u32, 0));
        state[start] = OPEN;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let node = node as usize;
            if let Some(d) = block.instrs[node].dests.get(*idx as usize) {
                let t = d.instr.0 as usize;
                *idx += 1;
                if collapsible[t] {
                    match state[t] {
                        UNSEEN => {
                            state[t] = OPEN;
                            stack.push((t as u32, 0));
                        }
                        OPEN => collapsible[t] = false,
                        _ => {}
                    }
                }
            } else {
                state[node] = DONE;
                postorder.push(node as u32);
                stack.pop();
            }
        }
    }

    // Phase 2: flattened destination lists, children before parents,
    // each appended to one flat buffer. An identity's own out-edges are
    // all `Always` (it is not a `Switch`), so the flattening never has
    // branch selectors to compose — the *incoming* edge's selector is
    // applied at rewire time.
    let flat = &mut bufs.flat;
    flat.clear();
    flat.resize(n, (0, 0));
    let flat_dests = &mut bufs.flat_dests;
    flat_dests.clear();
    for &node in postorder.iter() {
        let node = node as usize;
        if !collapsible[node] {
            continue;
        }
        let begin = flat_dests.len() as u32;
        for d in &block.instrs[node].dests {
            let t = d.instr.0 as usize;
            if collapsible[t] {
                let (b, e) = flat[t];
                flat_dests.extend_from_within(b as usize..e as usize);
            } else {
                flat_dests.push(*d);
            }
        }
        flat[node] = (begin, flat_dests.len() as u32);
    }

    // Phase 3: one rewiring sweep, composing each incoming edge's
    // branch selector over the junction's flattened list.
    let rewired = &mut bufs.rewired;
    for i in 0..n {
        if collapsible[i] {
            continue;
        }
        let dests = &mut block.instrs[i].dests;
        if !dests.iter().any(|d| collapsible[d.instr.0 as usize]) {
            continue;
        }
        rewired.clear();
        for d in dests.iter() {
            let t = d.instr.0 as usize;
            if collapsible[t] {
                let (b, e) = flat[t];
                rewired.extend(flat_dests[b as usize..e as usize].iter().map(|vd| Dest {
                    instr: vd.instr,
                    port: vd.port,
                    when: d.when,
                }));
            } else {
                rewired.push(*d);
            }
        }
        dests.clear();
        dests.extend_from_slice(rewired);
    }

    // The victims keep their slots but become unreachable dead code;
    // DCE compacts them away.
    let mut removed = 0;
    for (i, ins) in block.instrs.iter_mut().enumerate() {
        if collapsible[i] {
            ins.op = OpCode::Sink;
            ins.nt = 1;
            ins.dests.clear();
            removed += 1;
        }
    }
    stats.identities_collapsed += removed;
    if removed > 0 {
        du.rebuild(block);
    }
    removed > 0
}

#[cfg(test)]
mod tests {
    use super::super::{optimize, OptLevel, PassManager};
    use crate::builder::GraphBuilder;
    use crate::{Emulator, OpCode, Value};

    #[test]
    fn ten_thousand_identity_chain_collapses_in_one_pass() {
        // The satellite stress test: the seed's per-victim rescan made
        // this quadratic; path compression makes it linear. No timing
        // assertion — under the seed algorithm this test does not
        // finish in any tolerable budget, so completing at all (within
        // the suite's normal runtime) is the regression check.
        let mut g = GraphBuilder::new("chain");
        let x = g.param();
        let mut prev = x;
        for _ in 0..10_000 {
            let id = g.instr(OpCode::Identity);
            g.wire(prev, id, 0);
            prev = id;
        }
        let out = g.output(0);
        g.wire(prev, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = optimize(&p);
        assert_eq!(stats.identities_collapsed, 10_000);
        assert_eq!(opt.instr_count(), 2, "param and output remain");
        let r = Emulator::new(&opt).run(&[Value::Int(7)]).unwrap();
        assert_eq!(r.outputs[&0], Value::Int(7));
    }

    #[test]
    fn identity_cycles_are_left_alone() {
        // a -> b -> a circulates forever; collapsing it would drop the
        // tokens. The pass must leave the cycle intact (and the rest of
        // the program optimized).
        let mut g = GraphBuilder::new("cycle");
        let x = g.param();
        let a = g.instr(OpCode::Identity);
        let b = g.instr(OpCode::Identity);
        g.wire(x, a, 0);
        g.wire(a, b, 0);
        g.wire(b, a, 0);
        let keep = g.instr(OpCode::Identity);
        g.wire(x, keep, 0);
        let out = g.output(0);
        g.wire(keep, out, 0);
        let p = g.finish_program().unwrap();
        let (opt, stats) = PassManager::new(OptLevel::O1).run(&p);
        // `keep` collapses; at least one cycle member must survive as a
        // junction so the circulating tokens still have somewhere to go.
        assert!(stats.identities_collapsed >= 1);
        assert!(opt.validate().is_ok());
    }
}
