//! Dead-code elimination and instruction-id compaction.
//!
//! An instruction is dead if it is pure and has no live destinations;
//! removing it may strand its producers, so the scan iterates to a
//! fixed point before the surviving instructions are renumbered.

use crate::graph::{CodeBlock, InstrId, OpCode};

use super::analysis::DefUse;
use super::OptStats;

/// Buffers the pass reuses from block to block.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    dead: Vec<bool>,
    remap: Vec<u32>,
}

/// Whether removing a destination-less instance of `op` can never
/// change the program's observable behaviour.
///
/// `IFetch` is deliberately **not** pure: a destination-less fetch
/// still races the matching store at run time, so removing it changes
/// the machine's I-structure traffic — `istore_immediate` vs
/// `istore_deferred` counters and the deferred-read queues the E6
/// experiment measures (a fetch that arrives before its store parks in
/// the deferred list; deleting it deletes that event). Output *values*
/// would survive, but the optimizer's contract for structure traffic is
/// to preserve it whenever the graph shape around stores is preserved.
pub(super) fn is_pure(op: &OpCode) -> bool {
    matches!(
        op,
        OpCode::Identity
            | OpCode::Const(_)
            | OpCode::Alu(_)
            | OpCode::Cmp(_)
            | OpCode::Not
            | OpCode::And
            | OpCode::Or
            | OpCode::Switch
            | OpCode::L
            | OpCode::LInv
            | OpCode::D { .. }
            | OpCode::DInv
            | OpCode::Sink
    )
}

/// Removes dead instructions and compacts ids, in place: live
/// instructions move down to their new ids and keep their own `dests`
/// buffers. `du` must describe `block` (only its parameter bitmap is
/// read); the pass pipeline runs this last, exactly once per block.
pub(super) fn run(
    mut block: CodeBlock,
    du: &DefUse,
    bufs: &mut Buffers,
    stats: &mut OptStats,
) -> CodeBlock {
    let dead = &mut bufs.dead;
    dead.clear();
    dead.resize(block.instrs.len(), false);
    loop {
        let mut changed = false;
        for (i, ins) in block.instrs.iter().enumerate() {
            if dead[i] || du.is_param(i) {
                continue;
            }
            let live_dests = ins
                .dests
                .iter()
                .filter(|d| !dead[d.instr.0 as usize])
                .count();
            if live_dests == 0 && is_pure(&ins.op) {
                dead[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    stats.dead_removed += dead.iter().filter(|&&d| d).count();

    // Renumber: compact live instructions and remap ids.
    let remap = &mut bufs.remap;
    remap.clear();
    let mut live = 0u32;
    remap.extend(dead.iter().map(|&d| {
        let id = live;
        live += u32::from(!d);
        id
    }));
    let mut i = 0;
    block.instrs.retain_mut(|ins| {
        let keep = !dead[i];
        i += 1;
        if keep {
            ins.dests.retain_mut(|d| {
                let t = d.instr.0 as usize;
                d.instr = InstrId(remap[t]);
                !dead[t]
            });
        }
        keep
    });
    for p in &mut block.params {
        *p = InstrId(remap[p.0 as usize]);
    }
    // Any criticality annotation on the input block describes the old
    // instruction numbering; drop it (annotation runs after the whole
    // pipeline, not inside it).
    block.criticality = Vec::new();
    block
}

#[cfg(test)]
mod tests {
    use super::super::{optimize_at, OptLevel};
    use crate::builder::GraphBuilder;
    use crate::{Emulator, OpCode, Value};

    #[test]
    fn destless_ifetch_is_pinned_and_traffic_preserved() {
        // The satellite audit: a destination-less IFetch still races
        // the store, and the E6 deferred-read accounting depends on
        // that event existing. DCE must keep it — and the I-structure
        // counters must match the unoptimized run exactly.
        let mut g = GraphBuilder::new("t");
        let x = g.param();
        let size = g.lit(Value::Int(1));
        g.wire(x, size, 0);
        let alloc = g.instr(OpCode::IAlloc);
        g.wire(size, alloc, 0);
        let st = g.instr_lit(OpCode::IStore, 1, Value::Int(0));
        g.wire(alloc, st, 0);
        g.wire(x, st, 2);
        let sink = g.instr(OpCode::Sink);
        g.wire(st, sink, 0);
        // The audited instruction: a fetch nobody reads.
        let f = g.instr_lit(OpCode::IFetch, 1, Value::Int(0));
        g.wire(alloc, f, 0);
        let out = g.output(0);
        g.wire(x, out, 0);
        let p = g.finish_program().unwrap();
        for level in OptLevel::ALL {
            let (opt, _) = optimize_at(&p, level);
            assert!(
                opt.blocks[0].instrs.iter().any(|i| i.op == OpCode::IFetch),
                "{level}: destless IFetch must survive DCE"
            );
            let a = Emulator::new(&p).run(&[Value::Int(5)]).unwrap();
            let b = Emulator::new(&opt).run(&[Value::Int(5)]).unwrap();
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(
                (a.istore_immediate, a.istore_deferred, a.istore_writes),
                (b.istore_immediate, b.istore_deferred, b.istore_writes),
                "{level}: I-structure traffic must be preserved"
            );
        }
    }
}
