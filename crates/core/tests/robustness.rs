//! Robustness guarantees: structured outcomes, budget diagnostics,
//! wall-clock deadlines, and batch panic isolation.
//!
//! The hostile contract used throughout is hand-assembled (not compiled):
//! a two-entry dispatcher whose first body is a well-behaved `uint256`
//! setter and whose second body fans out over symbolic forks into a
//! concrete spin loop — under a tight step budget the second function is
//! guaranteed to exhaust `max_total_steps` while the first stays clean.

use sigrec_core::{recover_batch, BudgetKind, Diagnostic, SigRec, TaseConfig};
use sigrec_evm::{Assembler, Opcode, U256};
use sigrec_solc::{compile_single, CompilerConfig, FunctionSpec, Visibility};
use std::time::{Duration, Instant};

const GOOD_SELECTOR: u64 = 0x1111_2222;
const SPIN_SELECTOR: u64 = 0x3333_4444;

/// Dispatcher with two entries: `GOOD_SELECTOR` reads one calldata word
/// and stops; `SPIN_SELECTOR` forks on 8 symbolic conditions and then
/// spins a long concrete loop.
fn spin_contract() -> Vec<u8> {
    let mut asm = Assembler::new();
    let good = asm.fresh_label();
    let spin_body = asm.fresh_label();
    asm.push_u64(0)
        .op(Opcode::CallDataLoad)
        .push_u64(224)
        .op(Opcode::Shr);
    for (sel, label) in [(GOOD_SELECTOR, good), (SPIN_SELECTOR, spin_body)] {
        asm.op(Opcode::Dup(1))
            .push_sized(U256::from(sel), 4)
            .op(Opcode::Eq)
            .push_label(label)
            .op(Opcode::JumpI);
    }
    asm.op(Opcode::Stop);
    // Good body: load one argument word, use it, stop.
    asm.jumpdest(good)
        .push_u64(4)
        .op(Opcode::CallDataLoad)
        .op(Opcode::Pop)
        .op(Opcode::Stop);
    // Spin body: symbolic fork fan-out, then a concrete infinite loop.
    asm.jumpdest(spin_body);
    for i in 0..8u64 {
        let join = asm.fresh_label();
        asm.push_u64(4 + 32 * i)
            .op(Opcode::CallDataLoad)
            .push_label(join)
            .op(Opcode::JumpI)
            .jumpdest(join);
    }
    let spin = asm.fresh_label();
    asm.jumpdest(spin);
    for _ in 0..58 {
        asm.push_u64(0).op(Opcode::Pop);
    }
    asm.push_label(spin).op(Opcode::Jump);
    asm.assemble()
}

fn tight() -> TaseConfig {
    TaseConfig {
        max_paths: 512,
        max_steps_per_path: 2_000,
        max_total_steps: 8_000,
        ..TaseConfig::default()
    }
}

fn contract(decl: &str) -> Vec<u8> {
    compile_single(
        FunctionSpec::parse(decl, Visibility::External).expect("valid test declaration"),
        &CompilerConfig::default(),
    )
    .code
}

#[test]
fn total_step_exhaustion_is_partial_and_diagnosed() {
    let code = spin_contract();
    let outcome = SigRec::with_config(tight()).recover_cold_with_outcome(&code);
    // Both dispatcher entries are present — truncation is partial, not
    // fatal.
    assert_eq!(outcome.functions.len(), 2);
    assert!(!outcome.is_complete());
    let spin = outcome
        .functions
        .iter()
        .find(|f| f.selector.as_u32() as u64 == SPIN_SELECTOR)
        .expect("spin entry recovered");
    assert!(
        spin.budgets.contains(&BudgetKind::TotalSteps),
        "budgets were {:?}",
        spin.budgets
    );
    // The diagnostic names the same selector.
    assert!(
        outcome.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted { selector, kind: BudgetKind::TotalSteps, .. }
                if selector.as_u32() as u64 == SPIN_SELECTOR
        )),
        "diagnostics were {:?}",
        outcome.diagnostics
    );
    // The well-behaved sibling carries no lossy budget.
    let good = outcome
        .functions
        .iter()
        .find(|f| f.selector.as_u32() as u64 == GOOD_SELECTOR)
        .expect("good entry recovered");
    assert!(
        good.budgets.iter().all(|b| !b.is_lossy()),
        "good budgets were {:?}",
        good.budgets
    );
}

#[test]
fn deadline_cuts_exploration_and_is_diagnosed() {
    let code = spin_contract();
    // Effectively unlimited step budgets: the infinite concrete spin loop
    // means only the wall clock can end this exploration, so a `Deadline`
    // cut is guaranteed rather than racing the step caps.
    let config = TaseConfig {
        max_steps_per_path: usize::MAX,
        max_total_steps: usize::MAX,
        max_wall_time: Some(Duration::from_millis(30)),
        ..TaseConfig::default()
    };
    let started = Instant::now();
    let outcome = SigRec::with_config(config).recover_cold_with_outcome(&code);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline ignored, ran {elapsed:?}"
    );
    assert_eq!(outcome.functions.len(), 2);
    assert!(
        outcome.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted {
                kind: BudgetKind::Deadline,
                ..
            }
        )),
        "diagnostics were {:?}",
        outcome.diagnostics
    );
    assert!(!outcome.is_complete());
}

#[test]
fn deadline_truncated_results_are_never_memoised() {
    let code = spin_contract();
    let config = TaseConfig {
        max_steps_per_path: usize::MAX,
        max_total_steps: usize::MAX,
        max_wall_time: Some(Duration::from_millis(10)),
        ..TaseConfig::default()
    };
    let sigrec = SigRec::with_config(config);
    let first = sigrec.recover_with_outcome(&code);
    assert!(
        first.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted {
                kind: BudgetKind::Deadline,
                ..
            }
        )),
        "expected a deadline cut, got {:?}",
        first.diagnostics
    );
    // Nothing was stored at either cache level for this contract.
    assert_eq!(sigrec.cache_stats().contract_hits, 0);
    let again = sigrec.recover_with_outcome(&code);
    assert_eq!(
        sigrec.cache_stats().contract_hits,
        0,
        "{:?}",
        again.diagnostics
    );
}

#[test]
fn warm_outcome_replays_cold_outcome_including_budgets() {
    let code = spin_contract();
    let sigrec = SigRec::with_config(tight());
    let cold = sigrec.recover_with_outcome(&code);
    let warm = sigrec.recover_with_outcome(&code);
    assert!(sigrec.cache_stats().contract_hits >= 1);
    assert_eq!(cold.diagnostics, warm.diagnostics);
    assert_eq!(cold.functions.len(), warm.functions.len());
    for (c, w) in cold.functions.iter().zip(&warm.functions) {
        assert_eq!(c.selector, w.selector);
        assert_eq!(c.params, w.params);
        assert_eq!(c.budgets, w.budgets);
    }
}

#[test]
fn pathological_contract_does_not_poison_a_64_contract_batch() {
    let decls = [
        "a(uint8)",
        "b(bool)",
        "c(address)",
        "d(uint16)",
        "e(bytes4)",
        "g(uint256)",
        "h(int256)",
    ];
    let mut codes: Vec<Vec<u8>> = (0..63).map(|i| contract(decls[i % decls.len()])).collect();
    codes.insert(31, spin_contract());
    let result = recover_batch(&SigRec::with_config(tight()), &codes, 4);
    assert_eq!(result.items.len(), 64);
    for item in &result.items {
        if item.index == 31 {
            assert_eq!(item.functions.len(), 2);
            assert!(
                item.diagnostics.iter().any(Diagnostic::is_lossy),
                "pathological contract must carry a lossy diagnostic: {:?}",
                item.diagnostics
            );
        } else {
            assert_eq!(item.functions.len(), 1, "contract #{}", item.index);
            assert!(
                item.diagnostics.iter().all(|d| !d.is_lossy()),
                "contract #{} was contaminated: {:?}",
                item.index,
                item.diagnostics
            );
        }
    }
}

#[test]
fn worker_panic_is_isolated_to_its_contract() {
    let victim = contract("victim(uint8,bool)");
    let bystanders = vec![contract("x(uint256)"), contract("y(address)")];
    let victim_selector = SigRec::new().recover_cold(&victim)[0].selector;
    // Silence the default panic printer for the injected panic; restore
    // it afterwards so genuine failures still report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let config = TaseConfig {
        panic_on_selector: Some(victim_selector.as_u32()),
        ..TaseConfig::default()
    };
    let mut codes = bystanders.clone();
    codes.insert(1, victim.clone());
    let result = recover_batch(&SigRec::with_config(config), &codes, 2);
    std::panic::set_hook(hook);
    assert_eq!(result.items.len(), 3);
    for item in &result.items {
        if item.index == 1 {
            // The panicked entry is missing; the contract survives with
            // an internal-error diagnostic.
            assert!(item.functions.is_empty());
            assert!(
                item.diagnostics
                    .iter()
                    .any(|d| matches!(d, Diagnostic::InternalError { context } if context.contains("panicked"))),
                "{:?}",
                item.diagnostics
            );
        } else {
            assert_eq!(item.functions.len(), 1, "bystander #{}", item.index);
            assert!(item.diagnostics.is_empty(), "bystander #{}", item.index);
        }
    }
    // A poisoned group is never memoised: a fresh recovery of the same
    // bytes (no injection) succeeds from scratch.
    let clean = SigRec::new().recover(&victim);
    assert_eq!(clean.len(), 1);
}
