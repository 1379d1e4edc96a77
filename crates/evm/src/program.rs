//! Ahead-of-time compilation of a [`Disassembly`] into a [`Program`].
//!
//! The symbolic executor's hot loop used to pay a binary-search `at(pc)`
//! lookup, a fresh `PUSH` immediate decode, and a full opcode dispatch on
//! every step. A `Program` is the pre-decoded form of one contract,
//! compiled once per planned contract and shared (`Arc`) across its
//! dispatch entries, scheduler workers, and batch duplicates:
//!
//! - **one [`Step`] per instruction**, with `PUSH` immediates already
//!   parsed into [`U256`] — the step array is indexed by *instruction*, and
//!   an O(1) `pc → step` table ([`Program::step_at`]) replaces the
//!   per-step binary search;
//! - **superinstruction fusion**: the calldata idioms the recovery rules
//!   key on (`PUSH k; CALLDATALOAD`, `PUSH 224; SHR` selector extraction,
//!   `PUSH mask; AND`, `PUSH 2^224; DIV`, constant-target `PUSH; JUMP[I]`,
//!   `DUP`/`SWAP` runs) become a single fused step, with jump targets
//!   resolved at compile time where statically known.
//!
//! Every instruction is compiled, reachable or not, in one linear pass.
//! Fusion never hides an instruction: a fused step covers its constituents
//! (up to its `next_pc`), but every covered instruction keeps its own
//! plain step at its own pc. Control that jumps or falls into the middle
//! of a fused pair therefore executes exactly the per-instruction
//! semantics — fusion only accelerates paths that flow *through* the
//! pattern's first instruction, which is the invariant that keeps the
//! block engine bit-identical to the reference interpreter.

use crate::disasm::Disassembly;
use crate::opcode::Opcode;
use crate::u256::U256;

/// Sentinel in the `pc → step` table for bytes that are not an
/// instruction start (push immediates, or past the end of code).
pub const NO_STEP: u32 = u32::MAX;

/// Longest `DUP`/`SWAP` run folded into one [`StepKind::Shuffle`] step;
/// longer runs split into several shuffle steps.
pub const MAX_SHUFFLE: usize = 8;

/// Bit set in a [`StepKind::Shuffle`] op byte when the entry is a `SWAP`
/// (the low bits carry the 1-based depth `n`).
pub const SHUFFLE_SWAP: u8 = 0x80;

/// Statically resolved target of a constant `PUSH; JUMP`/`PUSH; JUMPI`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JumpTarget {
    /// The target pc holds a `JUMPDEST`.
    Valid(usize),
    /// Concrete but not a legal jump destination: taking the jump faults.
    Invalid,
    /// Does not fit in `usize` — executors treat it like a symbolic
    /// target (a concrete 2²⁵⁶-scale address can never be a jumpdest, but
    /// the reference interpreter classifies it as unresolvable).
    Huge,
}

/// What one pre-decoded step does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A plain opcode, dispatched exactly like the reference interpreter
    /// (never `PUSH*` — pushes always pre-decode to [`StepKind::Push`]).
    Op(Opcode),
    /// `PUSH*` with its immediate already parsed (truncated trailing
    /// pushes are zero-filled at the low end, per EVM semantics).
    Push(U256),
    /// `PUSH value` immediately consumed as the top operand of `op`
    /// (a calldata load, a binary operation, or a shift).
    FusedPushOp {
        /// The pre-parsed immediate.
        value: U256,
        /// The consuming opcode.
        op: Opcode,
    },
    /// `PUSH target; JUMP` with the target resolved at compile time.
    FusedJump(JumpTarget),
    /// `PUSH target; JUMPI` with the target resolved at compile time
    /// (the condition still comes from the stack).
    FusedJumpI(JumpTarget),
    /// A run of consecutive `DUP`/`SWAP` instructions. `ops[..len]` holds
    /// one byte per constituent: depth `n` with [`SHUFFLE_SWAP`] set for
    /// swaps.
    Shuffle {
        /// Encoded constituents.
        ops: [u8; MAX_SHUFFLE],
        /// Number of constituents (≥ 2).
        len: u8,
    },
}

/// One pre-decoded execution step. Steps are indexed by instruction: the
/// step at index `i` corresponds to the `i`-th disassembled instruction,
/// and a fused step coexists with the plain steps of the instructions it
/// covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// pc of the first covered instruction.
    pub pc: usize,
    /// pc after the last covered instruction (nominal: a truncated
    /// trailing `PUSH` counts its missing immediate bytes, mirroring
    /// `Instruction::next_pc`).
    pub next_pc: usize,
    /// The operation.
    pub kind: StepKind,
}

/// A contract compiled for block-stepped execution. Compile once per
/// distinct bytecode ([`Program::compile`]), share via `Arc`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    steps: Vec<Step>,
    /// `pc → step index`, [`NO_STEP`] for non-instruction bytes. Length is
    /// the real code length.
    pc_to_step: Vec<u32>,
    /// Statically detected loop-head guards, `(guard pc, exit pc)` sorted
    /// by guard pc (see [`detect_loop_exits`]). Computed once per contract
    /// here instead of once per function explore.
    loop_exits: Vec<(usize, usize)>,
    /// Basic blocks in the code, for the benchmark's compile counter.
    block_count: usize,
}

/// Statically detects loop-head guards: a `JUMPI` whose constant forward
/// target `e` encloses (strictly between the guard and `e`) a constant
/// backward jump to at or before the guard. Returns `(guard pc, exit pc)`
/// pairs in ascending guard-pc order.
pub fn detect_loop_exits(disasm: &Disassembly) -> Vec<(usize, usize)> {
    let instrs = disasm.instructions();
    // Collect constant jumps: (jump pc, target, is JUMPI).
    let mut const_jumps = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        if matches!(ins.opcode, Opcode::Jump | Opcode::JumpI) && i > 0 {
            if let Some(t) = instrs[i - 1].push_value().and_then(|v| v.as_usize()) {
                const_jumps.push((ins.pc, t, ins.opcode == Opcode::JumpI));
            }
        }
    }
    // Only backward jumps can close a loop, and real code has few of
    // them — scanning just those keeps this linear-ish on adversarial
    // dispatchers with thousands of forward guards.
    let back_jumps: Vec<(usize, usize)> = const_jumps
        .iter()
        .filter(|&&(j, t, _)| t <= j)
        .map(|&(j, t, _)| (j, t))
        .collect();
    let mut out = Vec::new();
    for &(g, e, is_jumpi) in &const_jumps {
        if e <= g || !is_jumpi {
            continue; // not a forward conditional guard
        }
        let has_back_edge = back_jumps.iter().any(|&(j, t)| j > g && j < e && t <= g);
        if has_back_edge {
            out.push((g, e));
        }
    }
    out
}

/// True for single-byte opcodes that can consume a preceding `PUSH` as
/// their top stack operand inside one fused step.
fn fuses_with_push(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Add | Sub
            | Mul
            | Div
            | SDiv
            | Mod
            | SMod
            | Exp
            | And
            | Or
            | Xor
            | Lt
            | Gt
            | SLt
            | SGt
            | Eq
            | Shl
            | Shr
            | Sar
            | CallDataLoad
    )
}

impl Program {
    /// Compiles a disassembly in one linear pass that pre-decodes every
    /// instruction. The result depends only on the bytes, so one compile
    /// per distinct contract can be shared across threads.
    pub fn compile(disasm: &Disassembly) -> Program {
        let instrs = disasm.instructions();
        let n = instrs.len();

        // O(1) pc → step table (step index == instruction index). Jump
        // resolution reads it for forward targets, so it is filled first.
        let mut pc_to_step = vec![NO_STEP; disasm.code_len()];
        for (i, ins) in instrs.iter().enumerate() {
            pc_to_step[ins.pc] = i as u32;
        }
        let resolve = |value: U256| -> JumpTarget {
            let Some(t) = value.as_usize() else {
                return JumpTarget::Huge;
            };
            match pc_to_step.get(t) {
                Some(&i) if i != NO_STEP && instrs[i as usize].opcode == Opcode::JumpDest => {
                    JumpTarget::Valid(t)
                }
                _ => JumpTarget::Invalid,
            }
        };

        let mut steps = Vec::with_capacity(n);
        let mut block_count = 0;
        for (i, ins) in instrs.iter().enumerate() {
            // Block leaders: the first instruction, every JUMPDEST, and
            // every instruction following a JUMPI or a terminator.
            if i == 0
                || ins.opcode == Opcode::JumpDest
                || instrs[i - 1].opcode.is_terminator()
                || instrs[i - 1].opcode == Opcode::JumpI
            {
                block_count += 1;
            }
            let (kind, width) = match ins.opcode {
                Opcode::Push(_) => {
                    let value = ins.push_value().expect("push has an immediate");
                    match instrs.get(i + 1).map(|nx| nx.opcode) {
                        Some(Opcode::Jump) => (StepKind::FusedJump(resolve(value)), 2),
                        Some(Opcode::JumpI) => (StepKind::FusedJumpI(resolve(value)), 2),
                        Some(op) if fuses_with_push(op) => (StepKind::FusedPushOp { value, op }, 2),
                        _ => (StepKind::Push(value), 1),
                    }
                }
                Opcode::Dup(_) | Opcode::Swap(_) => {
                    let mut ops = [0u8; MAX_SHUFFLE];
                    let mut len = 0usize;
                    while len < MAX_SHUFFLE {
                        match instrs.get(i + len).map(|nx| nx.opcode) {
                            Some(Opcode::Dup(d)) => ops[len] = d,
                            Some(Opcode::Swap(s)) => ops[len] = s | SHUFFLE_SWAP,
                            _ => break,
                        }
                        len += 1;
                    }
                    if len >= 2 {
                        (
                            StepKind::Shuffle {
                                ops,
                                len: len as u8,
                            },
                            len,
                        )
                    } else {
                        (StepKind::Op(ins.opcode), 1)
                    }
                }
                op => (StepKind::Op(op), 1),
            };
            steps.push(Step {
                pc: ins.pc,
                next_pc: instrs[i + width - 1].next_pc(),
                kind,
            });
        }

        Program {
            steps,
            pc_to_step,
            loop_exits: detect_loop_exits(disasm),
            block_count,
        }
    }

    /// The same full compile as [`Program::compile`]; `entries` is
    /// ignored. Kept only for perfbench, which calls it by this name.
    pub fn compile_reachable(disasm: &Disassembly, _entries: &[usize]) -> Program {
        Self::compile(disasm)
    }

    /// The step starting at `pc`, or `None` for non-instruction bytes
    /// (inside a push immediate, or past the end of code). O(1).
    #[inline]
    pub fn step_at(&self, pc: usize) -> Option<&Step> {
        match self.pc_to_step.get(pc) {
            Some(&i) if i != NO_STEP => Some(&self.steps[i as usize]),
            _ => None,
        }
    }

    /// True if `pc` holds a `JUMPDEST` instruction (not a data byte). O(1).
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        matches!(
            self.step_at(pc),
            Some(step) if matches!(step.kind, StepKind::Op(Opcode::JumpDest))
        )
    }

    /// The statically detected loop-head guards, `(guard pc, exit pc)` in
    /// ascending guard-pc order (see [`detect_loop_exits`]).
    pub fn loop_exits(&self) -> &[(usize, usize)] {
        &self.loop_exits
    }

    /// Number of basic blocks, cut at the first instruction, every
    /// `JUMPDEST`, and after each `JUMPI` or terminator; all of them are
    /// compiled. Kept only for perfbench's `evm.program.blocks_compiled`.
    pub fn compiled_block_count(&self) -> usize {
        self.block_count
    }

    /// Always 0: every block is compiled. Kept only for perfbench's
    /// `evm.program.blocks_skipped`.
    pub fn uncompiled_block_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(code: &[u8]) -> Program {
        Program::compile(&Disassembly::new(code))
    }

    #[test]
    fn pc_table_skips_data_bytes() {
        // PUSH2 0x5b5b; STOP — the 0x5b immediate bytes are data, not
        // JUMPDESTs, and must not resolve to steps.
        let p = compile(&[0x61, 0x5b, 0x5b, 0x00]);
        assert!(p.step_at(0).is_some());
        assert!(p.step_at(1).is_none());
        assert!(p.step_at(2).is_none());
        assert!(p.step_at(3).is_some());
        assert!(p.step_at(4).is_none());
        assert!(!p.is_jumpdest(1));
        assert!(!p.is_jumpdest(2));
    }

    #[test]
    fn truncated_push_tail_compiles_to_one_block() {
        // JUMPDEST; PUSH4 with only 2 immediate bytes: the trailing push
        // keeps its nominal next_pc (pc 1 + 5 = 6) and its value
        // zero-fills the missing low bytes.
        let p = compile(&[0x5b, 0x63, 0xaa, 0xbb]);
        assert_eq!(p.steps.len(), 2);
        let push = p.step_at(1).unwrap();
        // The truncated push is the last instruction, so nothing fuses
        // with it.
        assert_eq!(push.kind, StepKind::Push(U256::from(0xaabb_0000u64)));
        // Nominal next_pc runs past the code end, like Instruction::next_pc.
        assert_eq!(push.next_pc, 6);
        // One block, cut at the leading JUMPDEST.
        assert_eq!(p.compiled_block_count(), 1);
    }

    #[test]
    fn blocks_cut_at_jumpdest_jumpi_and_terminators() {
        // PUSH1 6; JUMPI(cond from stack) | PUSH1 0; STOP | JUMPDEST; STOP
        // Leaders: pc 0 (entry), pc 3 (after JUMPI), pc 6 (JUMPDEST). The
        // STOP at pc 5 ends block 1; its successor pc 6 is already a
        // leader, and the trailing STOP at pc 7 stays inside block 2.
        let code = [0x60, 0x06, 0x57, 0x60, 0x00, 0x00, 0x5b, 0x00];
        let p = compile(&code);
        assert_eq!(p.compiled_block_count(), 3);
        assert_eq!(p.uncompiled_block_count(), 0);
        // A terminator cuts even without a JUMPDEST after it: STOP | STOP.
        assert_eq!(compile(&[0x00, 0x00]).compiled_block_count(), 2);
        // The entry-list alias compiles the same blocks.
        let q = Program::compile_reachable(&Disassembly::new(&code), &[]);
        assert_eq!(q.compiled_block_count(), 3);
        assert_eq!(q.steps, p.steps);
    }

    #[test]
    fn push_calldataload_fuses() {
        // PUSH1 4; CALLDATALOAD; STOP
        let p = compile(&[0x60, 0x04, 0x35, 0x00]);
        let s = p.step_at(0).unwrap();
        assert_eq!(
            s.kind,
            StepKind::FusedPushOp {
                value: U256::from(4u64),
                op: Opcode::CallDataLoad
            }
        );
        assert_eq!(s.next_pc, 3);
        // The covered CALLDATALOAD keeps its own plain step at its pc, so
        // entering mid-pair still executes per-instruction semantics.
        assert_eq!(
            p.step_at(2).unwrap().kind,
            StepKind::Op(Opcode::CallDataLoad)
        );
    }

    #[test]
    fn jump_targets_resolve_at_compile_time() {
        // PUSH1 4; JUMP; STOP; JUMPDEST; STOP
        let p = compile(&[0x60, 0x04, 0x56, 0x00, 0x5b, 0x00]);
        assert_eq!(
            p.step_at(0).unwrap().kind,
            StepKind::FusedJump(JumpTarget::Valid(4))
        );
        // Target is not a JUMPDEST → compile-time Invalid.
        let p = compile(&[0x60, 0x03, 0x56, 0x00]);
        assert_eq!(
            p.step_at(0).unwrap().kind,
            StepKind::FusedJump(JumpTarget::Invalid)
        );
        // Data byte that looks like a JUMPDEST is still Invalid.
        let p = compile(&[0x60, 0x04, 0x56, 0x61, 0x5b, 0x00]);
        assert_eq!(
            p.step_at(0).unwrap().kind,
            StepKind::FusedJump(JumpTarget::Invalid)
        );
        // PUSH32 of a 2^256-scale target → Huge.
        let mut code = vec![0x7f];
        code.extend_from_slice(&[0xff; 32]);
        code.push(0x56);
        let p = compile(&code);
        assert_eq!(
            p.step_at(0).unwrap().kind,
            StepKind::FusedJump(JumpTarget::Huge)
        );
    }

    #[test]
    fn dup_swap_runs_shuffle() {
        // DUP1; DUP2; SWAP1; STOP
        let p = compile(&[0x80, 0x81, 0x90, 0x00]);
        match p.step_at(0).unwrap().kind {
            StepKind::Shuffle { ops, len } => {
                assert_eq!(len, 3);
                assert_eq!(ops[0], 1);
                assert_eq!(ops[1], 2);
                assert_eq!(ops[2], 1 | SHUFFLE_SWAP);
            }
            other => panic!("expected shuffle, got {other:?}"),
        }
        // The run covers all three one-byte instructions.
        assert_eq!(p.step_at(0).unwrap().next_pc, 3);
        // Entering mid-run sees the shorter tail run.
        match p.step_at(1).unwrap().kind {
            StepKind::Shuffle { len, .. } => assert_eq!(len, 2),
            other => panic!("expected tail shuffle, got {other:?}"),
        }
        // A lone DUP stays a plain op.
        let p = compile(&[0x80, 0x00]);
        assert_eq!(p.step_at(0).unwrap().kind, StepKind::Op(Opcode::Dup(1)));
    }

    #[test]
    fn empty_code_compiles_empty() {
        let p = compile(&[]);
        assert!(p.steps.is_empty());
        assert_eq!(p.compiled_block_count(), 0);
        assert!(p.step_at(0).is_none());
    }
}
