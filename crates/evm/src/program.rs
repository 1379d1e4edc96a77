//! Ahead-of-time block compilation of a [`Disassembly`] into a [`Program`].
//!
//! The symbolic executor's hot loop used to pay a binary-search `at(pc)`
//! lookup, a fresh `PUSH` immediate decode, and a full opcode dispatch on
//! every step. A `Program` is the pre-decoded form of one contract,
//! compiled once and shared (`Arc`) across every dispatch entry, scheduler
//! worker, and batch duplicate:
//!
//! - **one [`Step`] per instruction**, with `PUSH` immediates already
//!   parsed into [`U256`] — the step array is indexed by *instruction*, and
//!   an O(1) `pc → step` table ([`Program::step_at`]) replaces the
//!   per-step binary search;
//! - **basic blocks** cut at `JUMPDEST` leaders and after
//!   `JUMP`/`JUMPI`/terminators, each carrying static metadata (net stack
//!   delta, minimum entry stack depth, straight-line flag) and an O(1)
//!   `pc → block + offset` view ([`Program::block_of`]);
//! - **superinstruction fusion**: the calldata idioms the recovery rules
//!   key on (`PUSH k; CALLDATALOAD`, `PUSH 224; SHR` selector extraction,
//!   `PUSH mask; AND`, `PUSH 2^224; DIV`, constant-target `PUSH; JUMP[I]`,
//!   `DUP`/`SWAP` runs) become a single fused step, with jump targets
//!   resolved to block ids at compile time where statically known.
//!
//! Fusion never hides an instruction: a fused step *covers* its
//! constituents ([`Step::width`]), but every covered instruction keeps its
//! own plain step at its own pc. Control that jumps or falls into the
//! middle of a fused pair therefore executes exactly the per-instruction
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
    /// The target is a `JUMPDEST`: jump to `pc` (the leader of block
    /// `block`).
    Valid {
        /// Target pc (a `JUMPDEST`).
        pc: usize,
        /// Block id of the target (its `JUMPDEST` is the block leader).
        block: u32,
    },
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
/// and a fused step covering `width` instructions coexists with the plain
/// steps of the instructions it covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// pc of the first covered instruction.
    pub pc: usize,
    /// pc after the last covered instruction (nominal: a truncated
    /// trailing `PUSH` counts its missing immediate bytes, mirroring
    /// `Instruction::next_pc`).
    pub next_pc: usize,
    /// Block id of the first covered instruction.
    pub block: u32,
    /// Instructions covered (1 for plain steps, 2 for fused push pairs,
    /// the run length for shuffles).
    pub width: u8,
    /// The operation.
    pub kind: StepKind,
}

/// Static metadata of one basic block. Blocks are cut at `JUMPDEST`
/// instructions (leaders) and after `JUMP`/`JUMPI`/terminators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockInfo {
    /// pc of the block's first instruction.
    pub start_pc: usize,
    /// Index of the block's first step (= first instruction).
    pub first_step: u32,
    /// Number of instructions (= steps) in the block.
    pub len: u32,
    /// Net stack height change across the block.
    pub stack_delta: i32,
    /// Minimum stack depth required on entry for no instruction in the
    /// block to underflow.
    pub min_depth: u32,
    /// True when the block contains no `JUMP`/`JUMPI`/terminator —
    /// execution always falls through its end into the next leader.
    pub straight_line: bool,
}

/// A contract compiled for block-stepped execution. Compile once per
/// distinct bytecode ([`Program::compile`]), share via `Arc`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    steps: Vec<Step>,
    blocks: Vec<BlockInfo>,
    /// `pc → step index`, [`NO_STEP`] for non-instruction bytes. Length is
    /// the real code length.
    pc_to_step: Vec<u32>,
    code_len: usize,
    /// Statically detected loop-head guards, `(guard pc, exit pc)` sorted
    /// by guard pc (see [`detect_loop_exits`]). Computed once per contract
    /// here instead of once per function explore.
    loop_exits: Vec<(usize, usize)>,
    /// Per-block flag: `true` when the block's steps carry the full
    /// pre-decode (parsed immediates, fusion, resolved jump targets).
    /// Blocks left `false` by [`Program::compile_reachable`] hold
    /// placeholder steps that executors must never dispatch — they fall
    /// back to reference per-instruction semantics instead. The cheap
    /// whole-program tables (`pc_to_step`, `blocks`, `is_jumpdest`) are
    /// always complete regardless of this mask.
    compiled: Vec<bool>,
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
    /// Compiles a disassembly. Total work is linear in the code size; the
    /// result depends only on the bytes, so one compile per distinct
    /// contract can be cached and shared across threads. Every block is
    /// fully pre-decoded ([`Program::block_compiled`] is `true` for all).
    pub fn compile(disasm: &Disassembly) -> Program {
        Self::build(disasm, None)
    }

    /// Compiles only the basic blocks statically reachable from `entries`
    /// (dispatcher function entry pcs; pc 0 is always included). The cheap
    /// linear passes — leaders, block metadata, the `pc → step` table,
    /// loop-exit detection — still cover the whole program, so
    /// `is_jumpdest` and `block_of` behave exactly like a full compile.
    /// Unreachable blocks skip immediate parsing, fusion, and jump-target
    /// resolution; their placeholder steps report
    /// [`Program::block_compiled`] `false` and executors dispatch them via
    /// reference per-instruction semantics. Reachability follows resolved
    /// constant jump targets, fallthrough edges, and every pushed constant
    /// that names a `JUMPDEST` (covering return-address pushes), so blocks
    /// this misses are only ever entered through computed jumps — which
    /// the executor fallback handles bit-identically.
    pub fn compile_reachable(disasm: &Disassembly, entries: &[usize]) -> Program {
        Self::build(disasm, Some(entries))
    }

    fn build(disasm: &Disassembly, entries: Option<&[usize]>) -> Program {
        let instrs = disasm.instructions();
        let n = instrs.len();
        let code_len = disasm.code_len();

        // Block leaders: the first instruction, every JUMPDEST, and every
        // instruction following a JUMP/JUMPI/terminator.
        let mut is_leader = vec![false; n];
        if n > 0 {
            is_leader[0] = true;
        }
        for (i, ins) in instrs.iter().enumerate() {
            if ins.opcode == Opcode::JumpDest {
                is_leader[i] = true;
            }
            if (ins.opcode.is_terminator() || ins.opcode == Opcode::JumpI) && i + 1 < n {
                is_leader[i + 1] = true;
            }
        }

        // Block ids per instruction plus per-block static metadata.
        let mut blocks: Vec<BlockInfo> = Vec::new();
        let mut block_of = vec![0u32; n];
        for (i, ins) in instrs.iter().enumerate() {
            if is_leader[i] {
                blocks.push(BlockInfo {
                    start_pc: ins.pc,
                    first_step: i as u32,
                    len: 0,
                    stack_delta: 0,
                    min_depth: 0,
                    straight_line: true,
                });
            }
            block_of[i] = (blocks.len() - 1) as u32;
            let b = blocks.last_mut().expect("instruction 0 is a leader");
            b.len += 1;
            // Entry-depth requirement: how far below the entry height the
            // running stack level would have to reach for this instruction
            // to underflow.
            let rel = b.stack_delta as i64;
            let need = ins.opcode.stack_in() as i64 - rel;
            if need > b.min_depth as i64 {
                b.min_depth = need as u32;
            }
            b.stack_delta += ins.opcode.stack_out() as i32 - ins.opcode.stack_in() as i32;
            if matches!(ins.opcode, Opcode::Jump | Opcode::JumpI) || ins.opcode.is_terminator() {
                b.straight_line = false;
            }
        }

        // O(1) pc → step table (step index == instruction index).
        let mut pc_to_step = vec![NO_STEP; code_len];
        for (i, ins) in instrs.iter().enumerate() {
            pc_to_step[ins.pc] = i as u32;
        }

        // Which blocks get the expensive pre-decode. A full compile takes
        // them all; a reachable compile BFSes the static CFG from the
        // entry pcs. Marking too much only costs decode time, marking too
        // little only costs a runtime fallback — never correctness.
        let compiled = match entries {
            None => vec![true; blocks.len()],
            Some(entries) => {
                let block_at = |pc: usize| -> Option<u32> {
                    match pc_to_step.get(pc) {
                        Some(&i) if i != NO_STEP => Some(block_of[i as usize]),
                        _ => None,
                    }
                };
                let mut mask = vec![false; blocks.len()];
                let mut work: Vec<u32> = Vec::new();
                for pc in entries.iter().copied().chain(std::iter::once(0)) {
                    if let Some(b) = block_at(pc) {
                        if !mask[b as usize] {
                            mask[b as usize] = true;
                            work.push(b);
                        }
                    }
                }
                while let Some(b) = work.pop() {
                    let info = &blocks[b as usize];
                    let first = info.first_step as usize;
                    let len = info.len as usize;
                    // Any pushed constant naming a JUMPDEST is a potential
                    // jump target (direct `PUSH; JUMP[I]`, or a return
                    // address pushed before calling an internal function).
                    for ins in &instrs[first..first + len] {
                        if !matches!(ins.opcode, Opcode::Push(_)) {
                            continue;
                        }
                        let Some(t) = ins.push_value().and_then(|v| v.as_usize()) else {
                            continue;
                        };
                        let Some(tb) = block_at(t) else { continue };
                        if instrs[pc_to_step[t] as usize].opcode == Opcode::JumpDest
                            && !mask[tb as usize]
                        {
                            mask[tb as usize] = true;
                            work.push(tb);
                        }
                    }
                    // Fallthrough into the next block unless the block
                    // ends in a no-fallthrough terminator (JUMPI and
                    // plain leader cuts both fall through).
                    let last = &instrs[first + len - 1];
                    let next = b + 1;
                    if !last.opcode.is_terminator()
                        && (next as usize) < blocks.len()
                        && !mask[next as usize]
                    {
                        mask[next as usize] = true;
                        work.push(next);
                    }
                }
                mask
            }
        };

        // Jump-target resolution needs the table and the opcode at the
        // target, so the fusion pass runs after both exist.
        let resolve = |value: U256| -> JumpTarget {
            let Some(t) = value.as_usize() else {
                return JumpTarget::Huge;
            };
            let idx = match pc_to_step.get(t) {
                Some(&i) if i != NO_STEP => i as usize,
                _ => return JumpTarget::Invalid,
            };
            if instrs[idx].opcode == Opcode::JumpDest {
                JumpTarget::Valid {
                    pc: t,
                    block: block_of[idx],
                }
            } else {
                JumpTarget::Invalid
            }
        };

        let mut steps = Vec::with_capacity(n);
        for (i, ins) in instrs.iter().enumerate() {
            if !compiled[block_of[i] as usize] {
                // Placeholder for an unreachable block: keeps pc/block
                // bookkeeping (and `is_jumpdest`, which only looks at
                // plain JUMPDEST steps) without paying immediate parsing
                // or fusion. Executors never dispatch these — the kind may
                // even be a bare `Op(Push(_))`, which a compiled block
                // would always pre-decode.
                steps.push(Step {
                    pc: ins.pc,
                    next_pc: ins.next_pc(),
                    block: block_of[i],
                    width: 1,
                    kind: StepKind::Op(ins.opcode),
                });
                continue;
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
            let last = &instrs[i + width - 1];
            steps.push(Step {
                pc: ins.pc,
                next_pc: last.next_pc(),
                block: block_of[i],
                width: width as u8,
                kind,
            });
        }

        Program {
            steps,
            blocks,
            pc_to_step,
            code_len,
            loop_exits: detect_loop_exits(disasm),
            compiled,
        }
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

    /// The step index (= instruction index) at `pc`, if any. O(1).
    #[inline]
    pub fn step_index(&self, pc: usize) -> Option<usize> {
        match self.pc_to_step.get(pc) {
            Some(&i) if i != NO_STEP => Some(i as usize),
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

    /// The `(block id, offset-in-block)` of the instruction at `pc`. O(1).
    pub fn block_of(&self, pc: usize) -> Option<(u32, u32)> {
        let idx = self.step_index(pc)?;
        let block = self.steps[idx].block;
        Some((block, idx as u32 - self.blocks[block as usize].first_step))
    }

    /// All steps, in instruction order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// All basic blocks, in address order.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// Byte length of the compiled code.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Number of fused steps (width > 1) — a compile-quality metric the
    /// bench reports alongside the engine probe.
    pub fn fused_step_count(&self) -> usize {
        self.steps.iter().filter(|s| s.width > 1).count()
    }

    /// The statically detected loop-head guards, `(guard pc, exit pc)` in
    /// ascending guard-pc order (see [`detect_loop_exits`]).
    pub fn loop_exits(&self) -> &[(usize, usize)] {
        &self.loop_exits
    }

    /// True when block `block` carries the full pre-decode and its steps
    /// may be dispatched directly. `false` means the block holds
    /// placeholder steps ([`Program::compile_reachable`] skipped it) and
    /// the executor must fall back to reference per-instruction
    /// semantics. Out-of-range ids conservatively report `false`.
    #[inline]
    pub fn block_compiled(&self, block: u32) -> bool {
        self.compiled.get(block as usize).copied().unwrap_or(false)
    }

    /// Number of blocks carrying the full pre-decode.
    pub fn compiled_block_count(&self) -> usize {
        self.compiled.iter().filter(|&&c| c).count()
    }

    /// Number of blocks left as placeholders by lazy compilation.
    pub fn uncompiled_block_count(&self) -> usize {
        self.compiled.len() - self.compiled_block_count()
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
        // keeps its nominal next_pc (5 + 1 + 4 = wait, pc 1 + 5 = 6) and
        // its value zero-fills the missing low bytes.
        let p = compile(&[0x5b, 0x63, 0xaa, 0xbb]);
        assert_eq!(p.steps().len(), 2);
        assert_eq!(p.code_len(), 4);
        let push = p.step_at(1).unwrap();
        assert_eq!(push.kind, StepKind::Push(U256::from(0xaabb_0000u64)));
        // Nominal next_pc runs past the code end, like Instruction::next_pc.
        assert_eq!(push.next_pc, 6);
        // One block, cut at the leading JUMPDEST.
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.blocks()[0].len, 2);
        // The truncated push is the last instruction, so nothing fuses
        // with it.
        assert_eq!(push.width, 1);
    }

    #[test]
    fn blocks_cut_at_jumpdest_jumpi_and_terminators() {
        // PUSH1 6; JUMPI(cond from stack) | PUSH1 0; STOP | JUMPDEST; STOP
        let code = [0x60, 0x06, 0x57, 0x60, 0x00, 0x00, 0x5b, 0x00];
        let p = compile(&code);
        // Leaders: pc 0 (entry), pc 3 (after JUMPI), pc 6 (JUMPDEST).
        // The STOP at pc 5 ends block 1; its successor pc 6 is already a
        // leader, and the trailing STOP at pc 7 stays inside block 2.
        let starts: Vec<usize> = p.blocks().iter().map(|b| b.start_pc).collect();
        assert_eq!(starts, vec![0, 3, 6]);
        assert_eq!(p.block_of(0), Some((0, 0)));
        assert_eq!(p.block_of(2), Some((0, 1)));
        assert_eq!(p.block_of(3), Some((1, 0)));
        assert_eq!(p.block_of(6), Some((2, 0)));
        assert_eq!(p.block_of(7), Some((2, 1)));
    }

    #[test]
    fn block_metadata_delta_depth_straightline() {
        // Block: PUSH1 1; ADD; POP — consumes one entry-stack item (ADD
        // needs two, one comes from the push), nets -1.
        let p = compile(&[0x60, 0x01, 0x01, 0x50]);
        assert_eq!(p.blocks().len(), 1);
        let b = &p.blocks()[0];
        assert_eq!(b.stack_delta, -1);
        assert_eq!(b.min_depth, 1);
        assert!(b.straight_line);
        // A block ending in JUMP is not straight-line.
        let p = compile(&[0x5b, 0x60, 0x00, 0x56]);
        assert!(!p.blocks()[0].straight_line);
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
        assert_eq!(s.width, 2);
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
        match p.step_at(0).unwrap().kind {
            StepKind::FusedJump(JumpTarget::Valid { pc, block }) => {
                assert_eq!(pc, 4);
                assert_eq!(p.blocks()[block as usize].start_pc, 4);
            }
            other => panic!("expected resolved jump, got {other:?}"),
        }
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
        assert_eq!(p.step_at(0).unwrap().width, 3);
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
        assert!(p.steps().is_empty());
        assert!(p.blocks().is_empty());
        assert_eq!(p.code_len(), 0);
        assert!(p.step_at(0).is_none());
    }

    #[test]
    fn fused_step_count_counts_width() {
        // PUSH 4; CALLDATALOAD fuses; the trailing STOP does not.
        let p = compile(&[0x60, 0x04, 0x35, 0x00]);
        assert_eq!(p.fused_step_count(), 1);
    }

    #[test]
    fn full_compile_marks_every_block_compiled() {
        let p = compile(&[0x60, 0x06, 0x57, 0x60, 0x00, 0x00, 0x5b, 0x00]);
        assert_eq!(p.compiled_block_count(), p.blocks().len());
        assert_eq!(p.uncompiled_block_count(), 0);
        for b in 0..p.blocks().len() as u32 {
            assert!(p.block_compiled(b));
        }
        // Out-of-range ids are conservatively uncompiled.
        assert!(!p.block_compiled(p.blocks().len() as u32));
    }

    #[test]
    fn reachable_compile_skips_dead_blocks_but_keeps_tables() {
        // PUSH1 6; JUMP | STOP | JUMPDEST; STOP | JUMPDEST; STOP
        // Only blocks 0 (entry) and 3 (jump target pc 6) are reachable.
        let code = [0x60, 0x06, 0x56, 0x00, 0x5b, 0x00, 0x5b, 0x00];
        let p = Program::compile_reachable(&Disassembly::new(&code), &[0]);
        assert_eq!(p.blocks().len(), 4);
        assert!(p.block_compiled(0));
        assert!(!p.block_compiled(1)); // dead STOP after the JUMP
        assert!(!p.block_compiled(2)); // JUMPDEST at 4, never named
        assert!(p.block_compiled(3));
        assert_eq!(p.compiled_block_count(), 2);
        assert_eq!(p.uncompiled_block_count(), 2);
        // The reachable jump still fuses and resolves.
        assert_eq!(
            p.step_at(0).unwrap().kind,
            StepKind::FusedJump(JumpTarget::Valid { pc: 6, block: 3 })
        );
        // Whole-program tables stay complete: the dead JUMPDEST is still
        // a legal jump destination and its block bookkeeping holds.
        assert!(p.is_jumpdest(4));
        assert_eq!(p.block_of(5), Some((2, 1)));
        assert_eq!(p.steps().len(), 7);
    }

    #[test]
    fn pushed_jumpdest_constants_count_as_reachable() {
        // PUSH1 4; STOP | STOP | JUMPDEST; STOP — the pushed 4 names a
        // JUMPDEST (a return-address idiom), so block 2 compiles even
        // though no static JUMP names it; the dead pc-3 STOP does not.
        let code = [0x60, 0x04, 0x00, 0x00, 0x5b, 0x00];
        let p = Program::compile_reachable(&Disassembly::new(&code), &[0]);
        assert!(p.block_compiled(0));
        assert!(!p.block_compiled(1));
        assert!(p.block_compiled(2));
    }

    #[test]
    fn entry_pcs_seed_reachability() {
        // STOP | JUMPDEST; STOP — pc 1 unreachable from pc 0, but listed
        // as a dispatcher entry.
        let code = [0x00, 0x5b, 0x00];
        let p = Program::compile_reachable(&Disassembly::new(&code), &[1]);
        assert!(p.block_compiled(0)); // pc 0 is always seeded
        assert!(p.block_compiled(1));
        let p = Program::compile_reachable(&Disassembly::new(&code), &[]);
        assert!(!p.block_compiled(1));
    }
}
