//! # sigrec-core
//!
//! The SigRec paper's core contribution: automatic recovery of function
//! signatures (4-byte ids + ordered parameter-type lists) from EVM runtime
//! bytecode, with no source code and no signature database.
//!
//! The pipeline (Fig. 12 of the paper):
//!
//! 1. disassemble and extract the dispatch table ([`extract_dispatch`]);
//! 2. run **TASE** — type-aware symbolic execution — over each function
//!    body ([`Tase`]), collecting how the contract reads its call data;
//! 3. apply the rules R1–R31 ([`rules::RuleId`], [`infer`]) organised as
//!    the Fig. 13 decision tree: coarse classification (dynamic/static
//!    arrays, `bytes`/`string`, structs, basic words), parameter counting
//!    and ordering, and fine-grained refinement (masks, sign extensions,
//!    double-`ISZERO`, byte accesses, Vyper range checks).
//!
//! The user-facing entry point is [`SigRec::recover`]; [`recover_batch`]
//! fans a corpus across worker threads.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod exec;
pub mod expr;
pub mod extract;
pub mod facts;
pub mod indirect;
pub mod infer;
pub mod memory;
mod mmap;
pub mod outcome;
pub mod pipeline;
pub mod rules;
pub mod shrink;
pub mod store;

pub use batch::{
    recover_batch, recover_batch_naive, BatchItem, BatchResult, BatchTimings, DedupStats,
    LatencyHistogram,
};
pub use cache::{body_span_hash, CacheStats, CachedContract, CachedFunction, RecoveryCache};
pub use exec::{ExecStats, Tase, TaseConfig};
pub use extract::{extract_dispatch, extract_dispatch_diag, DispatchEntry, DispatchExtraction};
pub use facts::{CopyFact, FunctionFacts, GuardFact, LoadFact, Usage, UseFact};
pub use indirect::{detect_forwarder, match_eip1167};
pub use infer::{
    infer, infer_timed, infer_with, InferEngine, InferTiming, Language, RecoveredParams,
};
pub use outcome::{
    BudgetKind, DelegateTarget, Diagnostic, MalformedKind, RecoveryOutcome, TruncationKind,
};
pub use pipeline::{Explanation, LinkSet, RecoveredFunction, SigRec};
pub use rules::{RuleId, RuleStats};
pub use shrink::minimize;
pub use store::{PersistentStore, StoreDiagnostic, StoreOptions, StoreStats};
