//! The IR interpreter and its architectural cost model.
//!
//! Figures 7 and 8 of the paper report the wall-clock overhead of compiled x64
//! binaries with and without Alaska's transformations.  This reproduction
//! executes the baseline and transformed IR in an interpreter that charges a
//! small, architecturally motivated cost per operation (memory access, handle
//! check, handle-table load, safepoint poll, ...), so the *relative* overhead —
//! which is a function of how many dynamic translations, pins and polls a
//! program executes, and that is exactly what the compiler's hoisting
//! optimisation changes — is reproduced deterministically.
//!
//! The interpreter runs against a real [`alaska_runtime::Runtime`]: `Halloc`
//! allocates through the installed service, `Translate` walks the real handle
//! table and records pins in real pin frames, and `Safepoint` participates in
//! real barriers.  Baseline `Malloc`/`Free` go to a private non-moving
//! free-list allocator in the same address space.
//!
//! Each activation keeps its SSA values in a register file, a `Vec<u64>`
//! indexed by [`ValueId`]; a value never written reads as 0.  Instructions are
//! borrowed from the module, and the φs of a block are resolved together into
//! one buffer reused for the whole activation, as are the argument lists of
//! its calls.  So nothing is allocated or hashed per executed instruction; the
//! cost model does not see any of this.

use crate::module::{
    BasicBlockId, BinOp, CmpOp, Function, Instruction, Module, Operand, Terminator, ValueId,
};
use alaska_heap::freelist::FreeListAllocator;
use alaska_heap::vmem::VirtAddr;
use alaska_heap::BackingAllocator;
use alaska_runtime::handle::is_handle;
use alaska_runtime::Runtime;
use std::fmt;

/// Per-operation cycle costs.
///
/// The exact numbers are a model, not a claim about any particular CPU; they
/// are chosen so that a translation (check + shift + truncate + table load +
/// add ≈ Figure 5's six instructions) costs slightly more than an L1-hit load,
/// which is what produces the paper's overhead profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Integer ALU operation.
    pub binop: u64,
    /// Comparison.
    pub cmp: u64,
    /// Select.
    pub select: u64,
    /// 64-bit load (L1 hit).
    pub load: u64,
    /// 64-bit store.
    pub store: u64,
    /// Address computation.
    pub gep: u64,
    /// φ-node (resolved at block entry, usually free).
    pub phi: u64,
    /// Branch / fallthrough.
    pub branch: u64,
    /// Call/return overhead for internal calls.
    pub call: u64,
    /// Call overhead for external (libc-model) functions.
    pub external_call: u64,
    /// Per-8-bytes cost of external memory helpers (memcpy etc.).
    pub external_per_word: u64,
    /// `malloc` (and the allocator work behind `halloc`).
    pub malloc: u64,
    /// `free`.
    pub free: u64,
    /// Extra cost of `halloc`/`hfree` over `malloc`/`free` (handle-table work).
    pub handle_alloc_extra: u64,
    /// The handle check (`cmp` + branch) executed before a potential translation.
    pub handle_check: u64,
    /// The translation itself (shift, truncate, handle-table load, add).
    pub translate: u64,
    /// Storing the translated handle into its pin-frame slot.
    pub pin_record: u64,
    /// Clearing a pin-frame slot.
    pub release: u64,
    /// A safepoint poll (NOP patch point / flag check).
    pub safepoint_poll: u64,
    /// Setting up a function's pin frame.
    pub frame_setup: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            binop: 1,
            cmp: 1,
            select: 1,
            load: 4,
            store: 4,
            gep: 1,
            phi: 0,
            branch: 1,
            call: 6,
            external_call: 20,
            external_per_word: 1,
            malloc: 40,
            free: 20,
            handle_alloc_extra: 6,
            handle_check: 1,
            translate: 4,
            pin_record: 1,
            release: 1,
            safepoint_poll: 1,
            frame_setup: 1,
        }
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct InterpConfig {
    /// The cost model used to accumulate modelled cycles.
    pub cost: CostModel,
    /// Upper bound on executed instructions, as a runaway guard.
    pub max_steps: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig { cost: CostModel::default(), max_steps: 200_000_000 }
    }
}

/// Dynamic event counts of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicCounts {
    /// Executed IR instructions.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Handle checks executed (`Translate` instructions reached).
    pub handle_checks: u64,
    /// Translations where the value really was a handle.
    pub translations: u64,
    /// Pin-slot records.
    pub pins: u64,
    /// Pin-slot releases.
    pub releases: u64,
    /// Safepoint polls.
    pub safepoints: u64,
    /// `malloc` calls.
    pub mallocs: u64,
    /// `free` calls.
    pub frees: u64,
    /// `halloc` calls.
    pub hallocs: u64,
    /// `hfree` calls.
    pub hfrees: u64,
    /// Internal calls.
    pub calls: u64,
    /// External calls.
    pub external_calls: u64,
}

/// The result of executing one entry function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// The entry function's return value, if it returned one.
    pub return_value: Option<u64>,
    /// Modelled cycles consumed.
    pub cycles: u64,
    /// Executed IR instructions.
    pub steps: u64,
    /// Detailed dynamic counts.
    pub dynamic: DynamicCounts,
}

/// Errors surfaced by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterpError {
    /// Entry or callee function does not exist.
    UnknownFunction(String),
    /// The step limit was exceeded.
    StepLimit(u64),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// A load/store or external call received an untranslated handle — the
    /// compiler pipeline failed to insert a translation (or escape pin).
    UntranslatedHandleAccess(u64),
    /// An external function the model does not know.
    UnknownExternal(String),
    /// The backing allocator could not serve an allocation.
    AllocationFailed(u64),
    /// A runtime error (dangling handle, etc.).
    Runtime(String),
    /// Call recursion exceeded the interpreter's depth limit.
    CallDepthExceeded,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            InterpError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
            InterpError::DivisionByZero => write!(f, "integer division by zero"),
            InterpError::UntranslatedHandleAccess(v) => {
                write!(f, "memory access through untranslated handle {v:#x}")
            }
            InterpError::UnknownExternal(n) => write!(f, "unknown external function `{n}`"),
            InterpError::AllocationFailed(s) => write!(f, "allocation of {s} bytes failed"),
            InterpError::Runtime(m) => write!(f, "runtime error: {m}"),
            InterpError::CallDepthExceeded => write!(f, "call depth limit exceeded"),
        }
    }
}

impl std::error::Error for InterpError {}

const MAX_CALL_DEPTH: usize = 256;

/// The IR interpreter.  See the [module documentation](self).
pub struct Interpreter<'a> {
    module: &'a Module,
    rt: &'a Runtime,
    config: InterpConfig,
    malloc: FreeListAllocator,
    cycles: u64,
    steps: u64,
    counts: DynamicCounts,
}

impl<'a> Interpreter<'a> {
    /// Create an interpreter for `module` executing against `rt`.
    pub fn new(module: &'a Module, rt: &'a Runtime, config: InterpConfig) -> Self {
        Interpreter {
            module,
            rt,
            config,
            malloc: FreeListAllocator::new(rt.vm().clone()),
            cycles: 0,
            steps: 0,
            counts: DynamicCounts::default(),
        }
    }

    /// Execute `entry` with integer arguments `args`.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(&mut self, entry: &str, args: &[u64]) -> Result<RunResult, InterpError> {
        let start_cycles = self.cycles;
        let start_steps = self.steps;
        let start_counts = self.counts;
        let ret = self.call(entry, args, 0)?;
        Ok(RunResult {
            return_value: ret,
            cycles: self.cycles - start_cycles,
            steps: self.steps - start_steps,
            dynamic: DynamicCounts {
                instructions: self.counts.instructions - start_counts.instructions,
                loads: self.counts.loads - start_counts.loads,
                stores: self.counts.stores - start_counts.stores,
                handle_checks: self.counts.handle_checks - start_counts.handle_checks,
                translations: self.counts.translations - start_counts.translations,
                pins: self.counts.pins - start_counts.pins,
                releases: self.counts.releases - start_counts.releases,
                safepoints: self.counts.safepoints - start_counts.safepoints,
                mallocs: self.counts.mallocs - start_counts.mallocs,
                frees: self.counts.frees - start_counts.frees,
                hallocs: self.counts.hallocs - start_counts.hallocs,
                hfrees: self.counts.hfrees - start_counts.hfrees,
                calls: self.counts.calls - start_counts.calls,
                external_calls: self.counts.external_calls - start_counts.external_calls,
            },
        })
    }

    fn charge(&mut self, c: u64) {
        self.cycles += c;
    }

    fn step(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        self.counts.instructions += 1;
        if self.steps > self.config.max_steps {
            return Err(InterpError::StepLimit(self.config.max_steps));
        }
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[u64], depth: usize) -> Result<Option<u64>, InterpError> {
        if depth > MAX_CALL_DEPTH {
            return Err(InterpError::CallDepthExceeded);
        }
        let f = self
            .module
            .function(name)
            .ok_or_else(|| InterpError::UnknownFunction(name.to_string()))?;
        let has_frame = f.pin_frame_slots > 0;
        if has_frame {
            self.rt.push_pin_frame(&f.name, f.pin_frame_slots as usize);
            self.charge(self.config.cost.frame_setup);
        }
        let result = self.exec_function(f, args, depth);
        if has_frame {
            self.rt.pop_pin_frame();
        }
        result
    }

    fn exec_function(
        &mut self,
        f: &'a Function,
        args: &[u64],
        depth: usize,
    ) -> Result<Option<u64>, InterpError> {
        let cost = self.config.cost;
        let mut values = vec![0u64; f.insts.len()];
        let mut phis: Vec<(ValueId, u64)> = Vec::new();
        let mut call_args: Vec<u64> = Vec::new();
        let mut current = f.entry;
        let mut previous: Option<BasicBlockId> = None;

        let eval = |values: &[u64], op: Operand| -> u64 {
            match op {
                Operand::Const(c) => c as u64,
                Operand::Param(p) => args.get(p).copied().unwrap_or(0),
                Operand::Value(v) => values.get(v.0 as usize).copied().unwrap_or(0),
            }
        };

        loop {
            let block = f.block(current);

            // Phase 1: resolve all phis of this block simultaneously.
            if let Some(prev) = previous {
                phis.clear();
                for &v in &block.insts {
                    if let Instruction::Phi { incomings } = f.inst(v) {
                        let val = incomings
                            .iter()
                            .find(|(b, _)| *b == prev)
                            .map(|(_, op)| eval(&values, *op))
                            .unwrap_or(0);
                        phis.push((v, val));
                        self.charge(cost.phi);
                    }
                }
                for &(v, val) in &phis {
                    values[v.0 as usize] = val;
                }
            }

            // Phase 2: straight-line instructions.
            for &v in &block.insts {
                let inst = f.inst(v);
                if matches!(inst, Instruction::Phi { .. }) {
                    continue;
                }
                self.step()?;
                let result: Option<u64> = match inst {
                    Instruction::Phi { .. } => unreachable!(),
                    Instruction::Bin { op, lhs, rhs } => {
                        self.charge(cost.binop);
                        let a = eval(&values, *lhs);
                        let b = eval(&values, *rhs);
                        Some(apply_binop(*op, a, b)?)
                    }
                    Instruction::Cmp { op, lhs, rhs } => {
                        self.charge(cost.cmp);
                        let a = eval(&values, *lhs) as i64;
                        let b = eval(&values, *rhs) as i64;
                        let r = match op {
                            CmpOp::Eq => a == b,
                            CmpOp::Ne => a != b,
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                        };
                        Some(r as u64)
                    }
                    Instruction::Select { cond, then_value, else_value } => {
                        self.charge(cost.select);
                        let c = eval(&values, *cond);
                        Some(if c != 0 {
                            eval(&values, *then_value)
                        } else {
                            eval(&values, *else_value)
                        })
                    }
                    Instruction::Load { addr } => {
                        self.charge(cost.load);
                        self.counts.loads += 1;
                        let a = eval(&values, *addr);
                        if is_handle(a) {
                            return Err(InterpError::UntranslatedHandleAccess(a));
                        }
                        Some(self.rt.vm().read_u64(VirtAddr(a)))
                    }
                    Instruction::Store { addr, value } => {
                        self.charge(cost.store);
                        self.counts.stores += 1;
                        let a = eval(&values, *addr);
                        if is_handle(a) {
                            return Err(InterpError::UntranslatedHandleAccess(a));
                        }
                        let val = eval(&values, *value);
                        self.rt.vm().write_u64(VirtAddr(a), val);
                        None
                    }
                    Instruction::Gep { base, index, scale } => {
                        self.charge(cost.gep);
                        let b = eval(&values, *base);
                        let i = eval(&values, *index);
                        Some(b.wrapping_add(i.wrapping_mul(*scale)))
                    }
                    Instruction::Call { callee, args: operands } => {
                        self.charge(cost.call);
                        self.counts.calls += 1;
                        call_args.clear();
                        call_args.extend(operands.iter().map(|a| eval(&values, *a)));
                        self.call(callee, &call_args, depth + 1)?
                    }
                    Instruction::CallExternal { callee, args: operands } => {
                        self.charge(cost.external_call);
                        self.counts.external_calls += 1;
                        call_args.clear();
                        call_args.extend(operands.iter().map(|a| eval(&values, *a)));
                        Some(self.call_external(callee, &call_args)?)
                    }
                    Instruction::Malloc { size } => {
                        self.charge(cost.malloc);
                        self.counts.mallocs += 1;
                        let s = eval(&values, *size) as usize;
                        let addr =
                            self.malloc.alloc(s).ok_or(InterpError::AllocationFailed(s as u64))?;
                        Some(addr.0)
                    }
                    Instruction::Free { ptr } => {
                        self.charge(cost.free);
                        self.counts.frees += 1;
                        let p = eval(&values, *ptr);
                        if p != 0 {
                            self.malloc.free(VirtAddr(p));
                        }
                        None
                    }
                    Instruction::Halloc { size } => {
                        self.charge(cost.malloc + cost.handle_alloc_extra);
                        self.counts.hallocs += 1;
                        let s = eval(&values, *size) as usize;
                        let h =
                            self.rt.halloc(s).map_err(|e| InterpError::Runtime(e.to_string()))?;
                        Some(h)
                    }
                    Instruction::Hfree { ptr } => {
                        self.charge(cost.free + cost.handle_alloc_extra);
                        self.counts.hfrees += 1;
                        let p = eval(&values, *ptr);
                        if p != 0 {
                            self.rt.hfree(p).map_err(|e| InterpError::Runtime(e.to_string()))?;
                        }
                        None
                    }
                    Instruction::Translate { value, slot } => {
                        self.charge(cost.handle_check);
                        self.counts.handle_checks += 1;
                        let v = eval(&values, *value);
                        if is_handle(v) {
                            self.charge(cost.translate);
                            self.counts.translations += 1;
                            let addr = match slot {
                                Some(s) => {
                                    self.charge(cost.pin_record);
                                    self.counts.pins += 1;
                                    self.rt
                                        .translate_into_slot(v, *s as usize)
                                        .map_err(|e| InterpError::Runtime(e.to_string()))?
                                }
                                None => self
                                    .rt
                                    .translate(v)
                                    .map_err(|e| InterpError::Runtime(e.to_string()))?,
                            };
                            Some(addr.0)
                        } else {
                            Some(v)
                        }
                    }
                    Instruction::Release { slot } => {
                        self.charge(cost.release);
                        self.counts.releases += 1;
                        self.rt.release_slot(*slot as usize);
                        None
                    }
                    Instruction::Safepoint => {
                        self.charge(cost.safepoint_poll);
                        self.counts.safepoints += 1;
                        self.rt.safepoint();
                        None
                    }
                };
                if let Some(r) = result {
                    values[v.0 as usize] = r;
                }
            }

            // Phase 3: terminator.
            self.charge(cost.branch);
            match block.terminator.as_ref().expect("verified function has terminators") {
                Terminator::Ret(v) => {
                    return Ok(v.map(|op| eval(&values, op)));
                }
                Terminator::Br(t) => {
                    previous = Some(current);
                    current = *t;
                }
                Terminator::CondBr { cond, then_bb, else_bb } => {
                    let c = eval(&values, *cond);
                    previous = Some(current);
                    current = if c != 0 { *then_bb } else { *else_bb };
                }
            }
        }
    }

    /// Model of the external (precompiled libc) functions the benchmarks use.
    ///
    /// External code cannot translate handles; passing an untranslated handle
    /// is exactly the escape hazard §4.1.4 describes, and is reported as
    /// [`InterpError::UntranslatedHandleAccess`].
    fn call_external(&mut self, name: &str, args: &[u64]) -> Result<u64, InterpError> {
        let vm = self.rt.vm().clone();
        let check_ptr = |v: u64| -> Result<VirtAddr, InterpError> {
            if is_handle(v) {
                Err(InterpError::UntranslatedHandleAccess(v))
            } else {
                Ok(VirtAddr(v))
            }
        };
        match name {
            "memcpy" => {
                let dst = check_ptr(args[0])?;
                let src = check_ptr(args[1])?;
                let n = args[2] as usize;
                self.charge(self.config.cost.external_per_word * (n as u64 / 8 + 1));
                vm.copy(src, dst, n);
                Ok(dst.0)
            }
            "memset" => {
                let dst = check_ptr(args[0])?;
                let n = args[2] as usize;
                self.charge(self.config.cost.external_per_word * (n as u64 / 8 + 1));
                vm.fill(dst, args[1] as u8, n);
                Ok(dst.0)
            }
            "strlen" => {
                let p = check_ptr(args[0])?;
                let mut n = 0u64;
                while vm.read_u8(p.add(n)) != 0 {
                    n += 1;
                    if n > 1 << 20 {
                        break;
                    }
                }
                self.charge(self.config.cost.external_per_word * (n / 8 + 1));
                Ok(n)
            }
            "strstr" => {
                // Returns a pointer *into* the haystack (or 0) — the classic
                // escaped-interior-pointer case the paper discusses.
                let hay = check_ptr(args[0])?;
                let needle = check_ptr(args[1])?;
                let mut nlen = 0u64;
                while vm.read_u8(needle.add(nlen)) != 0 {
                    nlen += 1;
                }
                let mut i = 0u64;
                loop {
                    let c = vm.read_u8(hay.add(i));
                    if c == 0 {
                        self.charge(self.config.cost.external_per_word * (i / 8 + 1));
                        return Ok(0);
                    }
                    let mut matched = true;
                    for j in 0..nlen {
                        if vm.read_u8(hay.add(i + j)) != vm.read_u8(needle.add(j)) {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        self.charge(self.config.cost.external_per_word * (i / 8 + 1));
                        return Ok(hay.add(i).0);
                    }
                    i += 1;
                }
            }
            "puts" | "print_i64" => Ok(args.first().copied().unwrap_or(0)),
            "clock" => Ok(self.cycles),
            "abs" => Ok((args[0] as i64).unsigned_abs()),
            other => Err(InterpError::UnknownExternal(other.to_string())),
        }
    }

    /// Total modelled cycles accumulated across all runs of this interpreter.
    pub fn total_cycles(&self) -> u64 {
        self.cycles
    }

    /// Total dynamic counts accumulated across all runs.
    pub fn total_counts(&self) -> DynamicCounts {
        self.counts
    }
}

fn apply_binop(op: BinOp, a: u64, b: u64) -> Result<u64, InterpError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(InterpError::DivisionByZero);
            }
            ((a as i64).wrapping_div(b as i64)) as u64
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(InterpError::DivisionByZero);
            }
            ((a as i64).wrapping_rem(b as i64)) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::FunctionBuilder;

    fn run_function(f: Function, args: &[u64]) -> RunResult {
        let mut m = Module::new("t");
        let name = f.name.clone();
        m.add_function(f);
        let rt = Runtime::with_malloc_service();
        let mut interp = Interpreter::new(&m, &rt, InterpConfig::default());
        interp.run(&name, args).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = FunctionBuilder::new("f", 2);
        let e = b.entry_block();
        let s = b.binop(e, BinOp::Mul, Operand::Param(0), Operand::Param(1));
        let s2 = b.binop(e, BinOp::Add, Operand::Value(s), Operand::Const(7));
        b.ret(e, Some(Operand::Value(s2)));
        let r = run_function(b.finish(), &[6, 7]);
        assert_eq!(r.return_value, Some(49));
        assert!(r.cycles > 0);
        assert_eq!(r.dynamic.instructions, 2);
    }

    #[test]
    fn loop_with_phi_counts_to_n() {
        let mut b = FunctionBuilder::new("count", 1);
        let entry = b.entry_block();
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.br(entry, header);
        let i = b.phi(header);
        b.add_phi_incoming(i, entry, Operand::Const(0));
        let c = b.cmp(header, CmpOp::Lt, Operand::Value(i), Operand::Param(0));
        b.cond_br(header, Operand::Value(c), body, exit);
        let n = b.binop(body, BinOp::Add, Operand::Value(i), Operand::Const(1));
        b.add_phi_incoming(i, body, Operand::Value(n));
        b.br(body, header);
        b.ret(exit, Some(Operand::Value(i)));
        let r = run_function(b.finish(), &[10]);
        assert_eq!(r.return_value, Some(10));
    }

    #[test]
    fn phis_of_a_block_are_resolved_simultaneously() {
        // (a, b) = (1, 2), then `a, b = b, a` three times through phis only.
        let mut b = FunctionBuilder::new("swap", 0);
        let entry = b.entry_block();
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.br(entry, header);
        let (x, y, i) = (b.phi(header), b.phi(header), b.phi(header));
        let c = b.cmp(header, CmpOp::Lt, Operand::Value(i), Operand::Const(3));
        b.cond_br(header, Operand::Value(c), body, exit);
        let n = b.binop(body, BinOp::Add, Operand::Value(i), Operand::Const(1));
        b.br(body, header);
        for (phi, init, next) in [(x, 1, y), (y, 2, x), (i, 0, n)] {
            b.add_phi_incoming(phi, entry, Operand::Const(init));
            b.add_phi_incoming(phi, body, Operand::Value(next));
        }
        let tens = b.binop(exit, BinOp::Mul, Operand::Value(x), Operand::Const(10));
        let r = b.binop(exit, BinOp::Add, Operand::Value(tens), Operand::Value(y));
        b.ret(exit, Some(Operand::Value(r)));
        assert_eq!(run_function(b.finish(), &[]).return_value, Some(21));
    }

    #[test]
    fn malloc_store_load_roundtrip() {
        let mut b = FunctionBuilder::new("mem", 0);
        let e = b.entry_block();
        let p = b.malloc(e, Operand::Const(64));
        b.store(e, Operand::Value(p), Operand::Const(1234));
        let q = b.gep(e, Operand::Value(p), Operand::Const(1), 8);
        b.store(e, Operand::Value(q), Operand::Const(99));
        let v = b.load(e, Operand::Value(p));
        let w = b.load(e, Operand::Value(q));
        let s = b.binop(e, BinOp::Add, Operand::Value(v), Operand::Value(w));
        b.free(e, Operand::Value(p));
        b.ret(e, Some(Operand::Value(s)));
        let r = run_function(b.finish(), &[]);
        assert_eq!(r.return_value, Some(1333));
        assert_eq!(r.dynamic.mallocs, 1);
        assert_eq!(r.dynamic.frees, 1);
        assert_eq!(r.dynamic.loads, 2);
        assert_eq!(r.dynamic.stores, 2);
    }

    #[test]
    fn halloc_without_translation_faults_on_access() {
        let mut b = FunctionBuilder::new("bad", 0);
        let e = b.entry_block();
        let h = b.push_halloc(e);
        b.store(e, Operand::Value(h), Operand::Const(5));
        b.ret(e, None);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let rt = Runtime::with_malloc_service();
        let mut interp = Interpreter::new(&m, &rt, InterpConfig::default());
        let err = interp.run("bad", &[]).unwrap_err();
        assert!(matches!(err, InterpError::UntranslatedHandleAccess(_)));
    }

    #[test]
    fn translate_makes_handles_usable_and_counts_pins() {
        let mut b = FunctionBuilder::new("good", 0);
        let e = b.entry_block();
        let h = b.push_halloc(e);
        let t = b.push_inst(e, Instruction::Translate { value: Operand::Value(h), slot: Some(0) });
        b.store(e, Operand::Value(t), Operand::Const(77));
        let v = b.load(e, Operand::Value(t));
        b.push_inst(e, Instruction::Release { slot: 0 });
        b.push_inst(e, Instruction::Hfree { ptr: Operand::Value(h) });
        b.ret(e, Some(Operand::Value(v)));
        let mut f = b.finish();
        f.pin_frame_slots = 1;
        let mut m = Module::new("t");
        m.add_function(f);
        let rt = Runtime::with_malloc_service();
        let mut interp = Interpreter::new(&m, &rt, InterpConfig::default());
        let r = interp.run("good", &[]).unwrap();
        assert_eq!(r.return_value, Some(77));
        assert_eq!(r.dynamic.translations, 1);
        assert_eq!(r.dynamic.pins, 1);
        assert_eq!(r.dynamic.releases, 1);
        assert_eq!(rt.stats().hallocs, 1);
        assert_eq!(rt.stats().hfrees, 1);
    }

    #[test]
    fn internal_calls_work() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("double", 1);
        let e = callee.entry_block();
        let d = callee.binop(e, BinOp::Mul, Operand::Param(0), Operand::Const(2));
        callee.ret(e, Some(Operand::Value(d)));
        m.add_function(callee.finish());

        let mut caller = FunctionBuilder::new("main", 0);
        let e = caller.entry_block();
        let r = caller.call(e, "double", vec![Operand::Const(21)]);
        caller.ret(e, Some(Operand::Value(r)));
        m.add_function(caller.finish());

        let rt = Runtime::with_malloc_service();
        let mut interp = Interpreter::new(&m, &rt, InterpConfig::default());
        let r = interp.run("main", &[]).unwrap();
        assert_eq!(r.return_value, Some(42));
        assert_eq!(r.dynamic.calls, 1);
    }

    #[test]
    fn external_memcpy_and_strlen() {
        let mut b = FunctionBuilder::new("ext", 0);
        let e = b.entry_block();
        let src = b.malloc(e, Operand::Const(64));
        let dst = b.malloc(e, Operand::Const(64));
        // Store "hi\0" packed in a word: 'h' = 0x68, 'i' = 0x69.
        b.store(e, Operand::Value(src), Operand::Const(0x6968));
        b.call_external(
            e,
            "memcpy",
            vec![Operand::Value(dst), Operand::Value(src), Operand::Const(8)],
        );
        let n = b.call_external(e, "strlen", vec![Operand::Value(dst)]);
        b.ret(e, Some(Operand::Value(n)));
        let r = run_function(b.finish(), &[]);
        assert_eq!(r.return_value, Some(2));
        assert_eq!(r.dynamic.external_calls, 2);
    }

    #[test]
    fn passing_a_handle_to_external_code_is_the_escape_hazard() {
        let mut b = FunctionBuilder::new("escape", 0);
        let e = b.entry_block();
        let h = b.push_halloc(e);
        b.call_external(e, "strlen", vec![Operand::Value(h)]);
        b.ret(e, None);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let rt = Runtime::with_malloc_service();
        let mut interp = Interpreter::new(&m, &rt, InterpConfig::default());
        assert!(matches!(
            interp.run("escape", &[]).unwrap_err(),
            InterpError::UntranslatedHandleAccess(_)
        ));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut b = FunctionBuilder::new("spin", 0);
        let e = b.entry_block();
        let l = b.add_block("l");
        b.br(e, l);
        let _x = b.binop(l, BinOp::Add, Operand::Const(1), Operand::Const(1));
        b.br(l, l);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let rt = Runtime::with_malloc_service();
        let cfg = InterpConfig { max_steps: 1000, ..Default::default() };
        let mut interp = Interpreter::new(&m, &rt, cfg);
        assert!(matches!(interp.run("spin", &[]).unwrap_err(), InterpError::StepLimit(1000)));
    }

    #[test]
    fn division_by_zero_is_reported() {
        let mut b = FunctionBuilder::new("div", 1);
        let e = b.entry_block();
        let d = b.binop(e, BinOp::Div, Operand::Const(10), Operand::Param(0));
        b.ret(e, Some(Operand::Value(d)));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let rt = Runtime::with_malloc_service();
        let mut interp = Interpreter::new(&m, &rt, InterpConfig::default());
        assert_eq!(interp.run("div", &[2]).unwrap().return_value, Some(5));
        assert!(matches!(interp.run("div", &[0]).unwrap_err(), InterpError::DivisionByZero));
    }

    /// Small helper used by the tests above to append a handle allocation.
    trait TestBuilderExt {
        fn push_halloc(&mut self, bb: BasicBlockId) -> ValueId;
    }

    impl TestBuilderExt for FunctionBuilder {
        fn push_halloc(&mut self, bb: BasicBlockId) -> ValueId {
            self.push_inst(bb, Instruction::Halloc { size: Operand::Const(64) })
        }
    }
}
