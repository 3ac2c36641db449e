//! The bitset liveness of `alaska_ir::liveness` against the hash-set fixed
//! point it replaced, on every function of every benchsuite program: as
//! built, after allocation replacement and translation insertion, and after
//! the whole pipeline.

use alaska_benchsuite::{all_benchmarks, Scale, STRICT_ALIASING_VIOLATORS};
use alaska_compiler::passes::alloc_replace::replace_allocations;
use alaska_compiler::passes::translate_insert::insert_translations;
use alaska_compiler::{compile_module, PipelineConfig};
use alaska_ir::cfg::Cfg;
use alaska_ir::liveness::Liveness;
use alaska_ir::module::{BasicBlockId, Function, Instruction, Operand, ValueId};
use std::collections::{HashMap, HashSet};

type Sets = HashMap<BasicBlockId, HashSet<ValueId>>;

/// Backward block-level liveness over hash sets, as `Liveness::build` computed
/// it before it moved to bitsets.  φ operands are live out of the predecessor
/// they flow from, not live into the φ's block.
fn reference(f: &Function, cfg: &Cfg) -> (Sets, Sets) {
    let mut use_set = Sets::new();
    let mut def_set = Sets::new();
    let mut phi_uses = Sets::new(); // pred -> values
    for bb in f.block_ids() {
        let mut uses = HashSet::new();
        let mut defs = HashSet::new();
        for &v in &f.block(bb).insts {
            match f.inst(v) {
                Instruction::Phi { incomings } => {
                    for (pred, op) in incomings {
                        if let Operand::Value(u) = op {
                            phi_uses.entry(*pred).or_default().insert(*u);
                        }
                    }
                }
                inst => {
                    for op in inst.operands() {
                        if let Operand::Value(u) = op {
                            if !defs.contains(&u) {
                                uses.insert(u);
                            }
                        }
                    }
                }
            }
            defs.insert(v);
        }
        for op in f.block(bb).terminator.iter().flat_map(|t| t.operands()) {
            if let Operand::Value(u) = op {
                if !defs.contains(&u) {
                    uses.insert(u);
                }
            }
        }
        use_set.insert(bb, uses);
        def_set.insert(bb, defs);
    }

    let mut live_in: Sets = f.block_ids().map(|b| (b, HashSet::new())).collect();
    let mut live_out: Sets = f.block_ids().map(|b| (b, HashSet::new())).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &bb in cfg.reverse_post_order.iter().rev() {
            let mut out: HashSet<ValueId> = HashSet::new();
            for &s in cfg.succs(bb) {
                out.extend(live_in[&s].iter().copied());
            }
            if let Some(pu) = phi_uses.get(&bb) {
                out.extend(pu.iter().copied());
            }
            let mut inn = use_set[&bb].clone();
            inn.extend(out.iter().copied().filter(|v| !def_set[&bb].contains(v)));
            if out != live_out[&bb] || inn != live_in[&bb] {
                live_out.insert(bb, out);
                live_in.insert(bb, inn);
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

/// Compare every (block, value) pair; returns how many were live somewhere.
fn check(f: &Function, program: &str, stage: &str) -> usize {
    let cfg = Cfg::build(f);
    let bits = Liveness::build(f, &cfg);
    let (live_in, live_out) = reference(f, &cfg);
    let mut live = 0;
    for bb in f.block_ids() {
        for v in (0..f.insts.len() as u32).map(ValueId) {
            let (inn, out) = (live_in[&bb].contains(&v), live_out[&bb].contains(&v));
            let at = format!("{program} ({stage}) {}: {v} at {bb}", f.name);
            assert_eq!(bits.is_live_in(bb, v), inn, "live-in differs, {at}");
            assert_eq!(bits.is_live_out(bb, v), out, "live-out differs, {at}");
            live += usize::from(inn) + usize::from(out);
        }
    }
    live
}

#[test]
fn bitset_liveness_matches_the_hash_set_reference_on_every_program() {
    let mut live = 0;
    for b in all_benchmarks() {
        let module = (b.build)(Scale(0.05));
        let mut config = PipelineConfig::full();
        if STRICT_ALIASING_VIOLATORS.contains(&b.name) {
            config.hoisting = false;
        }
        for f in module.functions() {
            live += check(f, b.name, "as built");
            let mut t = f.clone();
            replace_allocations(&mut t);
            insert_translations(&mut t, config.hoisting);
            live += check(&t, b.name, "translated");
        }
        for f in compile_module(&module, &config).0.functions() {
            live += check(f, b.name, "compiled");
        }
    }
    assert!(live > 1000, "the programs have loops, so plenty is live across blocks ({live})");
}
