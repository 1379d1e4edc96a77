//! The block-compiled engine is a pure optimisation: for any bytecode,
//! `ExecEngine::Block` must explore exactly the same paths and collect
//! exactly the same facts, diagnostics and signatures as the
//! per-instruction reference engine. These tests
//! pin that down on compiler output across the Solidity version sweep,
//! on randomly generated fork-heavy bytecode, on raw byte soup, and on
//! the truncated-PUSH tails the block compiler must special-case.

use proptest::prelude::*;
use sigrec_abi::FunctionSignature;
use sigrec_core::exec::ExecEngine;
use sigrec_core::{extract_dispatch, RecoveredFunction, SigRec, Tase, TaseConfig};
use sigrec_evm::Disassembly;
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, SolcVersion, Visibility};

fn config(engine: ExecEngine) -> TaseConfig {
    TaseConfig {
        exec_engine: engine,
        ..TaseConfig::default()
    }
}

/// Explores `code` from `entry` under `engine` and returns the facts as a
/// deterministic Debug rendering (exprs are interned, so structurally
/// identical facts print identically).
fn facts_under(code: &[u8], entry: usize, engine: ExecEngine) -> String {
    let disasm = Disassembly::new(code);
    let facts = Tase::new(&disasm, config(engine)).explore(entry);
    format!("{facts:?}")
}

fn assert_same(a: &[RecoveredFunction], b: &[RecoveredFunction]) {
    assert_eq!(a.len(), b.len(), "function count differs");
    for (fa, fb) in a.iter().zip(b) {
        assert_eq!(fa.selector, fb.selector);
        assert_eq!(fa.params, fb.params, "params differ for {:?}", fa.selector);
        assert_eq!(fa.language, fb.language);
        assert_eq!(fa.rules, fb.rules, "rules differ for {:?}", fa.selector);
    }
}

fn spec(decl: &str) -> FunctionSpec {
    FunctionSpec::new(
        FunctionSignature::parse(decl).unwrap(),
        Visibility::External,
    )
}

/// End-to-end recovery — signatures *and* diagnostics — agrees between
/// engines over every Solidity version × optimisation combination the
/// generator models.
#[test]
fn block_equals_instr_across_version_sweep() {
    let decls: &[&[&str]] = &[
        &["transfer(address,uint256)", "balanceOf(address)"],
        &["sum(uint256[])", "set(bytes)", "mix(bool,int128,bytes4)"],
        &["f(string,uint8[4])"],
    ];
    for version in SolcVersion::sweep() {
        for optimize in [false, true] {
            let cfg = CompilerConfig::new(version, optimize);
            for fns in decls {
                let specs: Vec<FunctionSpec> = fns.iter().map(|d| spec(d)).collect();
                let code = compile(&specs, &cfg).code;
                let block =
                    SigRec::with_config(config(ExecEngine::Block)).recover_cold_with_outcome(&code);
                let instr =
                    SigRec::with_config(config(ExecEngine::Instr)).recover_cold_with_outcome(&code);
                assert_same(&block.functions, &instr.functions);
                assert_eq!(block.diagnostics, instr.diagnostics, "diagnostics diverge");
            }
        }
    }
}

/// Executor-level facts agree per dispatcher entry, not just after
/// inference smoothed differences over.
#[test]
fn facts_identical_per_dispatch_entry() {
    let cfg = CompilerConfig::default();
    let specs = vec![
        spec("a(uint256,address)"),
        spec("b(bytes)"),
        spec("c(uint32[],bool)"),
    ];
    let code = compile(&specs, &cfg).code;
    let disasm = Disassembly::new(&code);
    let entries = extract_dispatch(&disasm);
    assert!(!entries.is_empty(), "dispatcher not found");
    for entry in &entries {
        assert_eq!(
            facts_under(&code, entry.entry, ExecEngine::Block),
            facts_under(&code, entry.entry, ExecEngine::Instr),
            "facts diverge at entry {:#x}",
            entry.entry
        );
    }
}

/// A truncated PUSH tail (the immediate runs off the end of the code) is
/// the one place the block compiler's nominal `next_pc` exceeds the code
/// length; both engines must fall off the end identically.
#[test]
fn truncated_push_tail_agrees() {
    // PUSH1 0x04; CALLDATALOAD; PUSH4 with only two immediate bytes.
    let code = [0x60, 0x04, 0x35, 0x63, 0xaa, 0xbb];
    assert_eq!(
        facts_under(&code, 0, ExecEngine::Block),
        facts_under(&code, 0, ExecEngine::Instr),
        "truncated tail diverges"
    );
    let block = SigRec::with_config(config(ExecEngine::Block)).recover_cold_with_outcome(&code);
    let instr = SigRec::with_config(config(ExecEngine::Instr)).recover_cold_with_outcome(&code);
    assert_eq!(block.diagnostics, instr.diagnostics);
}

/// Builds fork-heavy bytecode from raw fuzz bytes: a chain of fixed-size
/// blocks, each pushing a filler value, loading a symbolic calldata word
/// and conditionally jumping to a later block's `JUMPDEST`. Every JUMPI
/// condition is symbolic, so the executor forks at each block — the
/// worst case for any divergence in fork order or budget accounting.
fn fork_heavy_program(raw: &[u8]) -> Vec<u8> {
    const BLOCK: usize = 9;
    let blocks = (raw.len() / 3).clamp(1, 24);
    let mut code = Vec::with_capacity(blocks * BLOCK + 1);
    for i in 0..blocks {
        let filler = raw.get(i * 3).copied().unwrap_or(0x11);
        let offset = raw.get(i * 3 + 1).copied().unwrap_or(0x04);
        // Jump to some later block's JUMPDEST (the last byte of block j).
        let pick = raw.get(i * 3 + 2).copied().unwrap_or(0) as usize;
        let j = i + pick % (blocks - i).max(1);
        let dest = j * BLOCK + (BLOCK - 1);
        code.extend_from_slice(&[
            0x60, filler, // PUSH1 filler   (deepens the stack)
            0x60, offset, 0x35, // PUSH1 off; CALLDATALOAD (symbolic cond)
            0x60, dest as u8, // PUSH1 dest
            0x57,       // JUMPI — symbolic condition, forks
            0x5b,       // JUMPDEST — fallthrough and jump target
        ]);
    }
    code.push(0x00); // STOP
    code
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Property: on arbitrary fork-heavy programs, the block-compiled and
    // per-instruction engines produce byte-identical facts.
    #[test]
    fn block_facts_equal_instr_facts_on_random_programs(
        raw in proptest::collection::vec(any::<u8>(), 3..72)
    ) {
        let code = fork_heavy_program(&raw);
        prop_assert_eq!(
            facts_under(&code, 0, ExecEngine::Block),
            facts_under(&code, 0, ExecEngine::Instr)
        );
    }

    // Property: even on completely random byte soup (mostly invalid
    // jumps, data bytes executed as code, and early path death) the two
    // engines stay equivalent.
    #[test]
    fn block_facts_equal_instr_facts_on_byte_soup(
        raw in proptest::collection::vec(any::<u8>(), 1..96)
    ) {
        prop_assert_eq!(
            facts_under(&raw, 0, ExecEngine::Block),
            facts_under(&raw, 0, ExecEngine::Instr)
        );
    }
}
