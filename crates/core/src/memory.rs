//! The symbolic memory model.
//!
//! Step 3 of TASE (§4.2) marks memory regions written from the call data so
//! that later `MLOAD`s propagate parameter identity. We implement the
//! stronger form: a `CALLDATACOPY` records a *region mapping*, and an
//! `MLOAD` inside a copied region synthesises the `CalldataWord` expression
//! of the corresponding source bytes — so masks applied to copied array
//! elements attribute to exact calldata positions with no separate taint
//! machinery.
//!
//! A path fork clones the memory with the rest of the path state; the
//! journal is a plain `Vec`, so reads and writes pay nothing for forks
//! that rarely happen.

use crate::expr::{bin, BinOp, Expr};
use sigrec_evm::U256;
use std::rc::Rc;

/// Cap on how far past its start an unbounded (symbolic-length) copy region
/// is considered to extend when matching reads.
const UNBOUNDED_REGION_SPAN: u64 = 4096;

#[derive(Clone, Debug)]
enum Write {
    /// `MSTORE` of a full word at a concrete address.
    Word { addr: u64, value: Rc<Expr> },
    /// `CALLDATACOPY` to a concrete destination.
    Copy {
        dst: u64,
        src: Rc<Expr>,
        len: Option<u64>,
    },
}

/// Symbolic memory: a journal of writes, scanned newest-first on read.
#[derive(Clone, Debug, Default)]
pub struct SymMemory {
    writes: Vec<Write>,
}

impl SymMemory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `MSTORE(addr, value)`. Non-concrete addresses are dropped
    /// (their values cannot be recovered by concrete-address reads anyway).
    pub fn store_word(&mut self, addr: Option<u64>, value: Rc<Expr>) {
        if let Some(addr) = addr {
            self.writes.push(Write::Word { addr, value });
        }
    }

    /// Records `CALLDATACOPY(dst, src, len)`. A source that does not depend
    /// on the call data and evaluates to a constant is folded, so reads from
    /// the region synthesise constant-location `CalldataWord`s (static
    /// arrays match by position range).
    pub fn record_copy(&mut self, dst: Option<u64>, src: Rc<Expr>, len: Option<U256>) {
        if let Some(dst) = dst {
            let len = len.and_then(|l| l.as_u64());
            let src = match (src.depends_on_calldata(), src.eval()) {
                (false, Some(c)) => Expr::constant(c),
                _ => src,
            };
            self.writes.push(Write::Copy { dst, src, len });
        }
    }

    /// Resolves `MLOAD(addr)`.
    ///
    /// - an exact word previously `MSTORE`d → that stored expression;
    /// - inside a copied region → the synthesised
    ///   `CalldataWord(src + (addr - dst))`;
    /// - otherwise `None` (the caller introduces a free symbol).
    pub fn load_word(&self, addr: u64) -> Option<Rc<Expr>> {
        for w in self.writes.iter().rev() {
            match w {
                Write::Word { addr: a, value } if *a == addr => return Some(Rc::clone(value)),
                Write::Word { addr: a, .. } => {
                    // Overlapping unaligned store: give up on this address
                    // if it intersects the 32-byte window.
                    if addr < a + 32 && *a < addr + 32 {
                        return None;
                    }
                }
                Write::Copy { dst, src, len } => {
                    // A read *starting* inside the region matches even if it
                    // runs past the end — the EVM zero-fills, and compilers
                    // routinely over-read short payloads.
                    let within = match len {
                        Some(l) => addr >= *dst && addr < dst + l,
                        None => addr >= *dst && addr < dst + UNBOUNDED_REGION_SPAN,
                    };
                    if within {
                        let delta = addr - dst;
                        let loc = if delta == 0 {
                            Rc::clone(src)
                        } else {
                            bin(BinOp::Add, Rc::clone(src), Expr::c64(delta))
                        };
                        return Some(Expr::calldata_word(loc));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprKind;

    #[test]
    fn word_store_load_round_trip() {
        let mut m = SymMemory::new();
        let v = Expr::c64(99);
        m.store_word(Some(0x80), Rc::clone(&v));
        assert_eq!(m.load_word(0x80), Some(v));
        assert_eq!(m.load_word(0xa0), None);
    }

    #[test]
    fn latest_write_wins() {
        let mut m = SymMemory::new();
        m.store_word(Some(0x80), Expr::c64(1));
        m.store_word(Some(0x80), Expr::c64(2));
        assert_eq!(
            m.load_word(0x80).unwrap().as_const(),
            Some(U256::from(2u64))
        );
    }

    #[test]
    fn copy_region_synthesises_calldata_word() {
        let mut m = SymMemory::new();
        // CALLDATACOPY(dst=0x80, src=36, len=96)
        m.record_copy(Some(0x80), Expr::c64(36), Some(U256::from(96u64)));
        // Element 1 (delta 32) → cd[36 + 32] = cd[0x44] (adds fold).
        let e = m.load_word(0xa0).unwrap();
        match e.kind() {
            ExprKind::CalldataWord(loc) => assert_eq!(loc.eval(), Some(U256::from(68u64))),
            _ => panic!("expected CalldataWord, got {e}"),
        }
        // Past the region: unmapped.
        assert_eq!(m.load_word(0x80 + 96), None);
    }

    #[test]
    fn symbolic_source_copy_preserves_structure() {
        let mut m = SymMemory::new();
        let src = bin(BinOp::Add, Expr::calldata_word(Expr::c64(4)), Expr::c64(36));
        m.record_copy(Some(0x100), Rc::clone(&src), None);
        let e = m.load_word(0x120).unwrap();
        assert!(e.depends_on_calldata());
        match e.kind() {
            ExprKind::CalldataWord(loc) => {
                assert!(loc.contains(&Expr::calldata_word(Expr::c64(4))))
            }
            _ => panic!("expected CalldataWord, got {e}"),
        }
    }

    #[test]
    fn unbounded_region_capped() {
        let mut m = SymMemory::new();
        m.record_copy(Some(0x80), Expr::c64(36), None);
        assert!(m.load_word(0x80 + UNBOUNDED_REGION_SPAN).is_none());
        assert!(m.load_word(0x80 + UNBOUNDED_REGION_SPAN - 32).is_some());
    }

    #[test]
    fn fork_shares_history_but_diverges() {
        let mut m = SymMemory::new();
        m.store_word(Some(0x80), Expr::c64(1));
        let mut child = m.clone();
        m.store_word(Some(0xa0), Expr::c64(2));
        child.store_word(Some(0xa0), Expr::c64(3));
        // The pre-fork history is visible on both sides…
        assert_eq!(
            m.load_word(0x80).unwrap().as_const(),
            Some(U256::from(1u64))
        );
        assert_eq!(
            child.load_word(0x80).unwrap().as_const(),
            Some(U256::from(1u64))
        );
        // …while post-fork writes stay private.
        assert_eq!(
            m.load_word(0xa0).unwrap().as_const(),
            Some(U256::from(2u64))
        );
        assert_eq!(
            child.load_word(0xa0).unwrap().as_const(),
            Some(U256::from(3u64))
        );
    }

    #[test]
    fn overlapping_unaligned_store_blocks_read() {
        let mut m = SymMemory::new();
        m.record_copy(Some(0x80), Expr::c64(36), Some(U256::from(64u64)));
        m.store_word(Some(0x90), Expr::c64(7)); // unaligned overlap
        assert_eq!(m.load_word(0x80), None);
    }
}
