//! Pin tracking (paper §4.1.3): size each function's pin-set frame and assign
//! every static translation a slot in it.
//!
//! A translated handle must remain pinned while raw pointers derived from the
//! translation are usable.  Rather than atomic per-object pin counts, Alaska
//! stores the handle into a slot of a per-invocation, stack-allocated pin set;
//! the slot assignment is a register-allocation-style problem:
//!
//! 1. compute the live range of every translation (from its definition to the
//!    last use of the translation result or of any address arithmetic derived
//!    from it; a range that escapes its defining block conservatively extends
//!    to the end of the function),
//! 2. build the interference graph over those ranges,
//! 3. greedily colour it; the number of colours is the frame size recorded in
//!    [`alaska_ir::module::Function::pin_frame_slots`].
//!
//! Two translations whose ranges never overlap share a slot; the later
//! translation simply overwrites the earlier pin, releasing it — which is why
//! no explicit release instructions need to survive into the final program
//! (the paper inserts and then removes them).

use alaska_ir::cfg::Cfg;
use alaska_ir::liveness::Liveness;
use alaska_ir::module::{Function, Instruction, Operand, ValueId};

/// Result of the tracking pass for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackingStats {
    /// Number of static translations assigned a slot.
    pub translations_tracked: usize,
    /// Pin-set frame size in slots.
    pub frame_slots: u32,
}

/// Linearized program-point index of each instruction (blocks in RPO),
/// indexed by [`ValueId`]; 0 for an instruction outside every reachable block.
fn linearize(f: &Function, cfg: &Cfg) -> Vec<usize> {
    let mut points = vec![0; f.insts.len()];
    let mut next = 0usize;
    for &bb in &cfg.reverse_post_order {
        for &v in &f.block(bb).insts {
            points[v.0 as usize] = next;
            next += 1;
        }
        next += 1; // terminator
    }
    points
}

/// Values transitively derived from `root` through address arithmetic,
/// indexed by [`ValueId`].
fn derived_set(f: &Function, root: ValueId) -> Vec<bool> {
    let mut derived = vec![false; f.insts.len()];
    derived[root.0 as usize] = true;
    // Iterate to a fixed point: a gep whose base is derived is derived too.
    let mut changed = true;
    while changed {
        changed = false;
        for bb in f.block_ids() {
            for &v in &f.block(bb).insts {
                if derived[v.0 as usize] {
                    continue;
                }
                if let Instruction::Gep { base: Operand::Value(b), .. } = f.inst(v) {
                    if derived[b.0 as usize] {
                        derived[v.0 as usize] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    derived
}

/// Assign pin-frame slots to all translations of `f` and set
/// [`Function::pin_frame_slots`].
pub fn assign_pin_slots(f: &mut Function) -> TrackingStats {
    let cfg = Cfg::build(f);
    let points = linearize(f, &cfg);
    let end_of_function = points.iter().copied().max().unwrap_or(0) + 2;

    // Collect translations in program order.
    let mut translations: Vec<ValueId> = Vec::new();
    for &bb in &cfg.reverse_post_order {
        for &v in &f.block(bb).insts {
            if matches!(f.inst(v), Instruction::Translate { .. }) {
                translations.push(v);
            }
        }
    }
    if translations.is_empty() {
        f.pin_frame_slots = 0;
        return TrackingStats::default();
    }
    let liveness = Liveness::build(f, &cfg);

    // Where each value's uses end: one past its last user instruction, or the
    // end of the function if a terminator uses it.
    let mut last_use = vec![0usize; f.insts.len()];
    for bb in f.block_ids() {
        let block = f.block(bb);
        for &v in &block.insts {
            for op in f.inst(v).operands() {
                if let Operand::Value(u) = op {
                    last_use[u.0 as usize] = last_use[u.0 as usize].max(points[v.0 as usize] + 1);
                }
            }
        }
        for op in block.terminator.iter().flat_map(|t| t.operands()) {
            if let Operand::Value(u) = op {
                last_use[u.0 as usize] = end_of_function;
            }
        }
    }

    // Compute each translation's live range over linearized points.
    let mut ranges: Vec<(ValueId, usize, usize)> = Vec::new();
    for &t in &translations {
        let start = points[t.0 as usize];
        let derived = derived_set(f, t);
        let mut end = start + 1;
        for d in (0..derived.len()).filter(|&d| derived[d]) {
            end = end.max(last_use[d]);
            if f.block_ids().any(|bb| liveness.is_live_out(bb, ValueId(d as u32))) {
                // Live across a block boundary (e.g. hoisted out of a loop):
                // keep the pin for the rest of the invocation.
                end = end_of_function;
                break;
            }
        }
        ranges.push((t, start, end));
    }

    // Greedy interference colouring in order of definition; the slot goes
    // straight back into the translate instruction.
    ranges.sort_by_key(|&(_, start, _)| start);
    let mut assigned: Vec<(u32, usize, usize)> = Vec::new(); // (slot, start, end)
    let mut max_slot = 0u32;
    for &(t, start, end) in &ranges {
        let mut slot = 0u32;
        while assigned.iter().any(|&(used, s, e)| used == slot && start < e && s < end) {
            slot += 1;
        }
        if let Instruction::Translate { slot: s, .. } = f.inst_mut(t) {
            *s = Some(slot);
        }
        assigned.push((slot, start, end));
        max_slot = max_slot.max(slot);
    }
    f.pin_frame_slots = max_slot + 1;
    TrackingStats { translations_tracked: translations.len(), frame_slots: f.pin_frame_slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::translate_insert::insert_translations;
    use alaska_ir::module::{BinOp, FunctionBuilder, Operand};
    use alaska_ir::verify::verify_function;

    #[test]
    fn function_without_translations_needs_no_frame() {
        let mut b = FunctionBuilder::new("f", 1);
        let e = b.entry_block();
        b.ret(e, Some(Operand::Param(0)));
        let mut f = b.finish();
        let stats = assign_pin_slots(&mut f);
        assert_eq!(stats.frame_slots, 0);
        assert_eq!(f.pin_frame_slots, 0);
    }

    #[test]
    fn every_translation_gets_a_slot_within_the_frame() {
        // Two independent objects accessed back to back.
        let mut b = FunctionBuilder::new("two", 2);
        let e = b.entry_block();
        let a = b.load(e, Operand::Param(0));
        let c = b.load(e, Operand::Param(1));
        let s = b.binop(e, BinOp::Add, Operand::Value(a), Operand::Value(c));
        b.ret(e, Some(Operand::Value(s)));
        let mut f = b.finish();
        insert_translations(&mut f, true);
        let stats = assign_pin_slots(&mut f);
        assert!(verify_function(&f).is_ok());
        assert_eq!(stats.translations_tracked, 2);
        assert!(f.pin_frame_slots >= 1);
        for inst in &f.insts {
            if let Instruction::Translate { slot, .. } = inst {
                let slot = slot.expect("tracking assigns every translation a slot");
                assert!(slot < f.pin_frame_slots);
            }
        }
    }

    #[test]
    fn overlapping_translations_do_not_share_a_slot() {
        // p and q are both live across the add: their pins must not collide.
        let mut b = FunctionBuilder::new("overlap", 2);
        let e = b.entry_block();
        let a = b.load(e, Operand::Param(0));
        let c = b.load(e, Operand::Param(1));
        b.store(e, Operand::Param(0), Operand::Value(c));
        b.store(e, Operand::Param(1), Operand::Value(a));
        b.ret(e, None);
        let mut f = b.finish();
        insert_translations(&mut f, true);
        assign_pin_slots(&mut f);
        let slots: Vec<u32> = f
            .insts
            .iter()
            .filter_map(|i| match i {
                Instruction::Translate { slot, .. } => *slot,
                _ => None,
            })
            .collect();
        assert_eq!(slots.len(), 2);
        assert_ne!(slots[0], slots[1], "simultaneously live translations interfere");
        assert_eq!(f.pin_frame_slots, 2);
    }

    #[test]
    fn sequential_disjoint_translations_share_a_slot() {
        // Access object A completely, then object B: one slot suffices.
        let mut b = FunctionBuilder::new("seq", 2);
        let e = b.entry_block();
        let a = b.load(e, Operand::Param(0));
        b.store(e, Operand::Param(0), Operand::Value(a));
        let c = b.load(e, Operand::Param(1));
        b.store(e, Operand::Param(1), Operand::Value(c));
        b.ret(e, None);
        let mut f = b.finish();
        // Use the naïve translation mode so the two roots' ranges do not overlap.
        insert_translations(&mut f, false);
        assign_pin_slots(&mut f);
        assert!(f.pin_frame_slots >= 1);
        assert!(
            f.pin_frame_slots <= 2,
            "at most two slots for four accesses with short ranges (got {})",
            f.pin_frame_slots
        );
    }

    #[test]
    fn frame_size_is_bounded_by_static_translations() {
        let mut b = FunctionBuilder::new("many", 4);
        let e = b.entry_block();
        for i in 0..4 {
            let v = b.load(e, Operand::Param(i));
            b.store(e, Operand::Param(i), Operand::Value(v));
        }
        b.ret(e, None);
        let mut f = b.finish();
        insert_translations(&mut f, true);
        let stats = assign_pin_slots(&mut f);
        assert!(stats.frame_slots as usize <= stats.translations_tracked);
        assert!(verify_function(&f).is_ok());
    }
}
