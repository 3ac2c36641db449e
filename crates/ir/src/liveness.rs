//! Liveness analysis.
//!
//! The Alaska compiler uses liveness for two purposes (paper §4.1.2–§4.1.3):
//! releases are inserted at the end of each translation's live range, and the
//! pin-set sizing pass builds an interference graph over translation live
//! ranges to assign frame slots with a register-allocation-style greedy
//! colouring.  This module provides classic backward block-level liveness
//! (live-in/live-out sets).
//!
//! A set is a bitset over [`ValueId`]s: ⌈`insts.len()` / 64⌉ `u64` words per
//! block, the sets of all blocks laid end to end in one vector.  The fixed
//! point visits blocks in reverse RPO and is computed with word-wide
//! union/difference, so nothing is hashed.

use crate::cfg::Cfg;
use crate::module::{BasicBlockId, Function, Instruction, Operand, ValueId};
use std::ops::Range;

/// Block-level liveness sets for a function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Words per block set.
    words: usize,
    /// Values live on entry to each block.
    live_in: Vec<u64>,
    /// Values live on exit from each block.
    live_out: Vec<u64>,
}

fn insert(set: &mut [u64], v: ValueId) {
    set[v.0 as usize / 64] |= 1 << (v.0 % 64);
}

fn contains(set: &[u64], v: ValueId) -> bool {
    set[v.0 as usize / 64] >> (v.0 % 64) & 1 == 1
}

impl Liveness {
    /// Compute block-level liveness for `f`.
    pub fn build(f: &Function, cfg: &Cfg) -> Liveness {
        let words = f.insts.len().div_ceil(64);
        let span = |bb: BasicBlockId| -> Range<usize> {
            let start = bb.0 as usize * words;
            start..start + words
        };
        let len = f.blocks.len() * words;

        // Per-block use/def sets.  Phi uses are attributed to the predecessor
        // edge (standard SSA treatment): a phi's operand is live-out of the
        // corresponding predecessor, not live-in of the phi's block.
        let mut use_set = vec![0u64; len];
        let mut def_set = vec![0u64; len];
        let mut phi_uses = vec![0u64; len]; // by predecessor
        for bb in f.block_ids() {
            let (uses, defs) = (&mut use_set[span(bb)], &mut def_set[span(bb)]);
            let block = f.block(bb);
            for &v in &block.insts {
                match f.inst(v) {
                    Instruction::Phi { incomings } => {
                        for (pred, op) in incomings {
                            if let Operand::Value(u) = op {
                                insert(&mut phi_uses[span(*pred)], *u);
                            }
                        }
                    }
                    inst => {
                        for op in inst.operands() {
                            if let Operand::Value(u) = op {
                                if !contains(defs, u) {
                                    insert(uses, u);
                                }
                            }
                        }
                    }
                }
                insert(defs, v);
            }
            for op in block.terminator.iter().flat_map(|t| t.operands()) {
                if let Operand::Value(u) = op {
                    if !contains(defs, u) {
                        insert(uses, u);
                    }
                }
            }
        }

        let mut live_in = vec![0u64; len];
        let mut live_out = vec![0u64; len];
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.reverse_post_order.iter().rev() {
                let b = span(bb);
                out.copy_from_slice(&phi_uses[b.clone()]);
                for &s in cfg.succs(bb) {
                    for (o, i) in out.iter_mut().zip(&live_in[span(s)]) {
                        *o |= i;
                    }
                }
                for (w, &o) in b.zip(&out) {
                    let inn = use_set[w] | (o & !def_set[w]);
                    changed |= o != live_out[w] || inn != live_in[w];
                    live_out[w] = o;
                    live_in[w] = inn;
                }
            }
        }
        Liveness { words, live_in, live_out }
    }

    fn holds(&self, sets: &[u64], bb: BasicBlockId, v: ValueId) -> bool {
        let word = v.0 as usize / 64;
        word < self.words
            && sets.get(bb.0 as usize * self.words + word).is_some_and(|w| w >> (v.0 % 64) & 1 == 1)
    }

    /// Whether `v` is live on entry to block `bb`.
    pub fn is_live_in(&self, bb: BasicBlockId, v: ValueId) -> bool {
        self.holds(&self.live_in, bb, v)
    }

    /// Whether `v` is live out of block `bb`.
    pub fn is_live_out(&self, bb: BasicBlockId, v: ValueId) -> bool {
        self.holds(&self.live_out, bb, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{BinOp, CmpOp, FunctionBuilder, Operand};

    /// A loop where `p` (param 0's translate stand-in) is used inside the body.
    fn loop_using_value() -> (crate::module::Function, ValueId) {
        let mut b = FunctionBuilder::new("f", 2);
        let entry = b.entry_block();
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        // v is defined in the entry and used in the loop body.
        let v = b.binop(entry, BinOp::Add, Operand::Param(0), Operand::Const(0));
        b.br(entry, header);
        let i = b.phi(header);
        b.add_phi_incoming(i, entry, Operand::Const(0));
        let c = b.cmp(header, CmpOp::Lt, Operand::Value(i), Operand::Param(1));
        b.cond_br(header, Operand::Value(c), body, exit);
        let use_v = b.binop(body, BinOp::Add, Operand::Value(v), Operand::Value(i));
        b.add_phi_incoming(i, body, Operand::Value(use_v));
        b.br(body, header);
        b.ret(exit, Some(Operand::Value(i)));
        (b.finish(), v)
    }

    #[test]
    fn value_used_in_loop_is_live_through_the_loop() {
        let (f, v) = loop_using_value();
        let cfg = Cfg::build(&f);
        let lv = Liveness::build(&f, &cfg);
        let header = BasicBlockId(1);
        let body = BasicBlockId(2);
        let exit = BasicBlockId(3);
        assert!(lv.is_live_in(header, v));
        assert!(lv.is_live_in(body, v));
        assert!(lv.is_live_out(f.entry, v));
        assert!(!lv.is_live_in(exit, v), "v is dead after the loop");
    }

    #[test]
    fn dead_values_are_not_live_anywhere() {
        let mut b = FunctionBuilder::new("dead", 0);
        let entry = b.entry_block();
        let dead = b.binop(entry, BinOp::Add, Operand::Const(1), Operand::Const(2));
        b.ret(entry, None);
        let f = b.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::build(&f, &cfg);
        assert!(!lv.is_live_out(entry, dead));
        assert!(!lv.is_live_in(entry, dead));
    }

    #[test]
    fn phi_operands_are_live_out_of_predecessors() {
        let (f, _v) = loop_using_value();
        let cfg = Cfg::build(&f);
        let lv = Liveness::build(&f, &cfg);
        // The increment feeding the phi along the back edge is live out of the
        // body, but not live into the phi's own block.
        let (header, body) = (BasicBlockId(1), BasicBlockId(2));
        let inc = *f.block(body).insts.last().unwrap();
        assert!(lv.is_live_out(body, inc));
        assert!(!lv.is_live_in(header, inc));
    }
}
