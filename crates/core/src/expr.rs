//! Symbolic expressions over the call data.
//!
//! TASE (type-aware symbolic execution) treats the call data as symbolic and
//! maintains, for every stack and memory value, an expression describing how
//! it was computed (§4.2 of the paper). The rules R1–R31 are *structural*
//! predicates over these expressions — e.g. R2's "`exp(loc)` contains the
//! offset field" or "`exp(loc)` contains a multiplication by 32" — so
//! [`Expr`] deliberately preserves the full operation tree rather than
//! constant-folding it away. Concrete evaluation is available separately
//! through [`Expr::eval`].
//!
//! # Hash consing
//!
//! Expressions are *hash consed*: every node is built through a thread-local
//! interner keyed by structural hash, so structurally identical subtrees are
//! physically shared (`Rc` pointer equality) within a thread. Each node
//! caches its 64-bit structural hash and two dependency flags at
//! construction, which turns the hot TASE-path predicates — equality,
//! [`Expr::dag_hash`], [`Expr::depends_on_calldata`],
//! [`Expr::depends_on_calldatasize`], [`Expr::key`] — into O(1) reads
//! instead of full-DAG walks, and lets containment checks compare cached
//! hashes while walking each distinct node once.
//!
//! The interner lives for the thread and is cleared wholesale when it
//! exceeds [`INTERNER_CAP`] entries; interned nodes remain valid after a
//! clear (sharing is an optimisation, never a correctness requirement).
//!
//! A hash match alone never merges or equates two nodes: the 64-bit mixer
//! is invertible, so bytecode can carry two `PUSH32` constants chosen to
//! collide. An interner hit is confirmed by a shallow O(1) comparison
//! (children by pointer), and equality confirms the structure whenever
//! the hashes match but the pointers differ.

use sigrec_evm::U256;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Binary operators appearing in symbolic expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    SDiv,
    Mod,
    SMod,
    Exp,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Byte,
    SignExtend,
    Lt,
    Gt,
    SLt,
    SGt,
    Eq,
}

/// Unary operators appearing in symbolic expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum UnOp {
    IsZero,
    Not,
}

/// The shape of a symbolic 256-bit value (the payload of an [`Expr`] node).
///
/// `Shl`/`Shr`/`Sar`/`Byte`/`SignExtend` are normalised to
/// `(value, amount)` operand order regardless of EVM stack order.
#[derive(Clone)]
pub enum ExprKind {
    /// A compile-time constant.
    Const(U256),
    /// `CALLDATALOAD(loc)`: 32 bytes of call data at a (possibly symbolic)
    /// location.
    CalldataWord(Rc<Expr>),
    /// `CALLDATASIZE`.
    CalldataSize,
    /// A free symbol: an environment read, storage load, external call
    /// result, hash, or unresolvable memory read. The id is unique per
    /// *source* (interned), so two loads of the same storage slot yield the
    /// same symbol.
    FreeSym(u32),
    /// A binary operation.
    Binary(BinOp, Rc<Expr>, Rc<Expr>),
    /// A unary operation.
    Unary(UnOp, Rc<Expr>),
}

/// A hash-consed symbolic 256-bit value.
///
/// Expressions form a *DAG*: `DUP`ed stack values share subtrees via `Rc`,
/// and hash consing shares separately-built but structurally identical
/// subtrees too — so a 20-level offset chain is linear in memory even
/// though its tree expansion is exponential. Every recursive operation here
/// (containment, walking, evaluation) is DAG-aware — shared nodes are
/// visited once — keeping deep nested-array analysis linear (the Fig. 18
/// experiment runs to dimension 20). Equality is structural: pointer
/// identity or a cached-hash match confirmed node by node; see
/// [`Expr::dag_hash`].
pub struct Expr {
    kind: ExprKind,
    hash: u64,
    flags: u8,
}

/// Flag bit: some subexpression is a `CalldataWord`.
const DEP_CALLDATA: u8 = 1;
/// Flag bit: some subexpression is `CalldataSize`.
const DEP_CDSIZE: u8 = 2;
/// Flag bit: some subexpression is a free symbol.
const DEP_FREESYM: u8 = 4;
/// Any symbolic leaf at all — a tree with none of these bits is all-const.
const DEP_SYMBOLIC: u8 = DEP_CALLDATA | DEP_CDSIZE | DEP_FREESYM;
/// Flag bit: some subexpression masks a calldata-derived value — an
/// `AND` with a constant operand, or a shift pair `(x << k) >> k` /
/// `(x >> k) << k`. R16's discriminator, computed bottom-up at
/// construction so the per-arithmetic-op check is O(1) instead of a
/// DAG walk.
const DEP_MASKED: u8 = 8;

/// Entry cap of the thread-local interner; when exceeded, the table is
/// cleared wholesale (already-interned nodes stay valid).
pub const INTERNER_CAP: usize = 1 << 18;

/// Interner keys are already well-mixed 64-bit structural hashes, so the
/// table uses them verbatim instead of paying SipHash on every probe of
/// the hottest map in the executor.
#[derive(Default)]
struct HashIsKey(u64);

impl std::hash::Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("interner keys hash through write_u64")
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type InternTable = HashMap<u64, Rc<Expr>, std::hash::BuildHasherDefault<HashIsKey>>;

/// The thread's interner: the node table plus its lifetime counters, in
/// one cell so the hot path pays a single thread-local access.
#[derive(Default)]
struct Interner {
    table: InternTable,
    stats: InternerStats,
}

thread_local! {
    static INTERNER: RefCell<Interner> = RefCell::new(Interner::default());
}

/// Lifetime counters of this thread's expression interner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Lookups that found an existing node (shared allocation).
    pub hits: u64,
    /// Lookups that allocated a fresh node.
    pub misses: u64,
    /// Highest entry count the table ever reached.
    pub high_water: u64,
    /// Wholesale clears triggered by [`INTERNER_CAP`].
    pub cap_clears: u64,
}

impl InternerStats {
    /// Fraction of lookups served by an existing node.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Number of live entries in this thread's expression interner.
pub fn interner_len() -> usize {
    INTERNER.with(|t| t.borrow().table.len())
}

/// This thread's interner counters since thread start (clears included).
pub fn interner_stats() -> InternerStats {
    INTERNER.with(|t| t.borrow().stats)
}

/// Clears this thread's expression interner. Existing `Rc<Expr>` values
/// stay valid; only future sharing is reset.
pub fn interner_clear() {
    INTERNER.with(|t| t.borrow_mut().table.clear());
}

/// Builds (or reuses) the unique interned node for `kind`.
fn intern(kind: ExprKind) -> Rc<Expr> {
    let hash = hash_kind(&kind);
    let flags = flags_of(&kind);
    INTERNER.with(|t| {
        let mut cell = t.borrow_mut();
        let t = &mut *cell;
        if let Some(e) = t.table.get(&hash) {
            if same_node(&kind, e) {
                t.stats.hits += 1;
                return Rc::clone(e);
            }
            // A hash collision: the slot keeps its node, and this one
            // lives on uninterned.
            t.stats.misses += 1;
            return Rc::new(Expr { kind, hash, flags });
        }
        if t.table.len() >= INTERNER_CAP {
            t.table.clear();
            t.stats.cap_clears += 1;
        }
        let e = Rc::new(Expr { kind, hash, flags });
        t.table.insert(hash, Rc::clone(&e));
        t.stats.misses += 1;
        t.stats.high_water = t.stats.high_water.max(t.table.len() as u64);
        e
    })
}

/// True if `kind` describes the same node as `e`, comparing children by
/// pointer — O(1). Interned children are shared, so a structurally equal
/// twin has pointer-equal children; a false negative after an interner
/// clear only costs sharing.
fn same_node(kind: &ExprKind, e: &Expr) -> bool {
    use ExprKind::*;
    match (kind, &e.kind) {
        (Const(a), Const(b)) => a == b,
        (CalldataWord(a), CalldataWord(b)) => Rc::ptr_eq(a, b),
        (CalldataSize, CalldataSize) => true,
        (FreeSym(a), FreeSym(b)) => a == b,
        (Unary(o, a), Unary(p, b)) => o == p && Rc::ptr_eq(a, b),
        (Binary(o, a1, a2), Binary(p, b1, b2)) => {
            o == p && Rc::ptr_eq(a1, b1) && Rc::ptr_eq(a2, b2)
        }
        _ => false,
    }
}

/// Full structural equality of two nodes, each pair of nodes compared once
/// so shared DAGs stay linear. Only reached when the hashes match but the
/// pointers differ: a twin rebuilt after an interner clear, or a collision.
fn same_structure(a: &Expr, b: &Expr) -> bool {
    use ExprKind::*;
    let mut seen = std::collections::HashSet::new();
    let mut todo = vec![(a, b)];
    while let Some((x, y)) = todo.pop() {
        if std::ptr::eq(x, y) || !seen.insert((x as *const Expr, y as *const Expr)) {
            continue;
        }
        if x.hash != y.hash {
            return false;
        }
        match (&x.kind, &y.kind) {
            (Const(u), Const(v)) if u == v => {}
            (CalldataSize, CalldataSize) => {}
            (FreeSym(i), FreeSym(j)) if i == j => {}
            (CalldataWord(p), CalldataWord(q)) => todo.push((p, q)),
            (Unary(o, p), Unary(r, q)) if o == r => todo.push((p, q)),
            (Binary(o, p1, p2), Binary(r, q1, q2)) if o == r => {
                todo.push((p1, q1));
                todo.push((p2, q2));
            }
            _ => return false,
        }
    }
    true
}

/// Structural hash of a node from its children's cached hashes — O(1).
fn hash_kind(kind: &ExprKind) -> u64 {
    match kind {
        ExprKind::Const(v) => {
            let l = v.limbs();
            mix(mix(mix(mix(1, l[0]), l[1]), l[2]), l[3])
        }
        ExprKind::CalldataWord(loc) => mix(2, loc.hash),
        ExprKind::CalldataSize => mix(3, 0),
        ExprKind::FreeSym(id) => mix(4, *id as u64),
        ExprKind::Unary(op, a) => mix(mix(5, *op as u64), a.hash),
        ExprKind::Binary(op, a, b) => mix(mix(mix(6, *op as u64), a.hash), b.hash),
    }
}

/// Dependency flags of a node from its children's cached flags — O(1).
fn flags_of(kind: &ExprKind) -> u8 {
    match kind {
        ExprKind::Const(_) => 0,
        ExprKind::FreeSym(_) => DEP_FREESYM,
        ExprKind::CalldataWord(loc) => loc.flags | DEP_CALLDATA,
        ExprKind::CalldataSize => DEP_CDSIZE,
        ExprKind::Unary(_, a) => a.flags,
        ExprKind::Binary(op, a, b) => {
            let mut f = a.flags | b.flags;
            match op {
                BinOp::And
                    if (a.as_const().is_some() && b.flags & DEP_CALLDATA != 0)
                        || (b.as_const().is_some() && a.flags & DEP_CALLDATA != 0) =>
                {
                    f |= DEP_MASKED;
                }
                // Shift-pair masks: `(x shl k) shr k` and friends, with the
                // shift amounts equal constants (operands are normalised to
                // `(value, amount)` order).
                BinOp::Shr | BinOp::Shl => {
                    if let (ExprKind::Binary(BinOp::Shl | BinOp::Shr, x, k2), Some(kc)) =
                        (a.kind(), b.as_const())
                    {
                        if k2.as_const() == Some(kc) && x.flags & DEP_CALLDATA != 0 {
                            f |= DEP_MASKED;
                        }
                    }
                }
                _ => {}
            }
            f
        }
    }
}

impl Expr {
    /// The node's shape, for pattern matching.
    pub fn kind(&self) -> &ExprKind {
        &self.kind
    }

    /// Shared constant zero.
    pub fn zero() -> Rc<Expr> {
        Expr::constant(U256::ZERO)
    }

    /// Wraps a `u64` constant.
    pub fn c64(v: u64) -> Rc<Expr> {
        Expr::constant(U256::from(v))
    }

    /// Wraps a [`U256`] constant.
    pub fn constant(v: U256) -> Rc<Expr> {
        intern(ExprKind::Const(v))
    }

    /// Builds `CALLDATALOAD(loc)`.
    pub fn calldata_word(loc: Rc<Expr>) -> Rc<Expr> {
        intern(ExprKind::CalldataWord(loc))
    }

    /// Builds `CALLDATASIZE`.
    pub fn calldata_size() -> Rc<Expr> {
        intern(ExprKind::CalldataSize)
    }

    /// Builds the free symbol with the given id.
    pub fn free_sym(id: u32) -> Rc<Expr> {
        intern(ExprKind::FreeSym(id))
    }

    /// The constant value, if this node is a constant.
    pub fn as_const(&self) -> Option<U256> {
        match &self.kind {
            ExprKind::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Fully evaluates the expression if every leaf is constant
    /// (DAG-aware: shared nodes evaluate once).
    ///
    /// The common cases never touch the memo table: a symbolic leaf
    /// anywhere in the tree is an O(1) cached-flags check, and a bare
    /// constant reads its value directly. Only the rare all-const
    /// *composite* trees (structural `Mul` and comparisons, kept by
    /// [`bin`] for the rules) take the memoised walk.
    pub fn eval(&self) -> Option<U256> {
        if self.flags & DEP_SYMBOLIC != 0 {
            return None;
        }
        if let ExprKind::Const(v) = &self.kind {
            return Some(*v);
        }
        fn go(e: &Expr, memo: &mut HashMap<usize, Option<U256>>) -> Option<U256> {
            let key = e as *const Expr as usize;
            if let Some(v) = memo.get(&key) {
                return *v;
            }
            let v = match e.kind() {
                ExprKind::Const(v) => Some(*v),
                ExprKind::CalldataWord(_) | ExprKind::CalldataSize | ExprKind::FreeSym(_) => None,
                ExprKind::Unary(op, a) => go(a, memo).map(|a| match op {
                    UnOp::IsZero => {
                        if a.is_zero() {
                            U256::ONE
                        } else {
                            U256::ZERO
                        }
                    }
                    UnOp::Not => !a,
                }),
                ExprKind::Binary(op, a, b) => match (go(a, memo), go(b, memo)) {
                    (Some(a), Some(b)) => Some(apply_binop(*op, a, b)),
                    _ => None,
                },
            };
            memo.insert(key, v);
            v
        }
        go(self, &mut HashMap::new())
    }

    /// The 64-bit structural hash, cached at construction. Two structurally
    /// equal expressions hash equally; distinct expressions can collide
    /// (the mixer is invertible), so `PartialEq`, `contains` and the
    /// interner confirm every match structurally. [`Expr::key`] still keys
    /// by this hash.
    pub fn dag_hash(&self) -> u64 {
        self.hash
    }

    /// True if any subexpression is a `CALLDATALOAD` (the value depends on
    /// the call data beyond its size). O(1): cached at construction.
    pub fn depends_on_calldata(&self) -> bool {
        self.flags & DEP_CALLDATA != 0
    }

    /// True if any subexpression is `CALLDATASIZE`. O(1): cached at
    /// construction.
    pub fn depends_on_calldatasize(&self) -> bool {
        self.flags & DEP_CDSIZE != 0
    }

    /// True if any subexpression masks a calldata-derived value — an
    /// `AND` with a constant operand or an equal-amount shift pair
    /// (R16's discriminator). O(1): cached at construction.
    pub fn contains_masked_calldata(&self) -> bool {
        self.flags & DEP_MASKED != 0
    }

    /// Collects the location expressions of every `CALLDATALOAD` node,
    /// outermost first (an inner load inside another load's location is
    /// also reported).
    pub fn calldata_locs(&self) -> Vec<Rc<Expr>> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ExprKind::CalldataWord(loc) = e.kind() {
                out.push(Rc::clone(loc));
            }
        });
        out
    }

    /// Collects every free-symbol id in the expression.
    pub fn free_syms(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ExprKind::FreeSym(id) = e.kind() {
                out.push(*id);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True if the expression contains a multiplication by the constant
    /// `k` anywhere (rule R2's `exp(loc) ∘ (32×)` check).
    pub fn contains_mul_by(&self, k: u64) -> bool {
        let kc = U256::from(k);
        let mut found = false;
        self.walk(&mut |e| {
            if let ExprKind::Binary(BinOp::Mul, a, b) = e.kind() {
                if a.as_const() == Some(kc) || b.as_const() == Some(kc) {
                    found = true;
                }
            }
        });
        found
    }

    /// True if `needle` occurs as a subexpression (structural equality —
    /// rule notation `exp(p) ∘ q`). Each distinct node compares its cached
    /// hash once; only a hash match is confirmed structurally.
    pub fn contains(&self, needle: &Expr) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if e == needle {
                found = true;
            }
        });
        found
    }

    /// True if some `CalldataWord` node *other than* `needle` has `needle`
    /// inside its location — i.e. there is an intermediate load between
    /// this expression and `needle`. The complement of the rules' "one
    /// level" relation, computed in one bottom-up pass over distinct nodes
    /// using the cached hashes.
    pub fn has_load_between(&self, needle: &Expr) -> bool {
        // memo: node address → subtree contains the needle.
        fn go(e: &Expr, needle: &Expr, memo: &mut HashMap<usize, bool>, bad: &mut bool) -> bool {
            let key = e as *const Expr as usize;
            if let Some(&c) = memo.get(&key) {
                return c;
            }
            let below = match e.kind() {
                ExprKind::CalldataWord(loc) => {
                    let lc = go(loc, needle, memo, bad);
                    if lc && e != needle {
                        *bad = true;
                    }
                    lc
                }
                ExprKind::Const(_) | ExprKind::CalldataSize | ExprKind::FreeSym(_) => false,
                ExprKind::Unary(_, a) => go(a, needle, memo, bad),
                ExprKind::Binary(_, a, b) => {
                    let ac = go(a, needle, memo, bad);
                    let bc = go(b, needle, memo, bad);
                    ac || bc
                }
            };
            let contains = below || e == needle;
            memo.insert(key, contains);
            contains
        }
        let mut bad = false;
        go(self, needle, &mut HashMap::new(), &mut bad);
        bad
    }

    /// The sum of all constant addends reachable through `Add` nodes from
    /// the root — e.g. `(CDW(4) + 36) + i*32` yields 36. Used to strip the
    /// selector/num skip from item locations.
    pub fn const_addend(&self) -> U256 {
        match &self.kind {
            ExprKind::Const(v) => *v,
            ExprKind::Binary(BinOp::Add, a, b) => a.const_addend() + b.const_addend(),
            _ => U256::ZERO,
        }
    }

    /// Visits every *distinct* node of the expression DAG (pre-order;
    /// shared subtrees are visited once).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        fn go(e: &Expr, seen: &mut std::collections::HashSet<usize>, f: &mut impl FnMut(&Expr)) {
            if !seen.insert(e as *const Expr as usize) {
                return;
            }
            f(e);
            match e.kind() {
                ExprKind::CalldataWord(loc) => go(loc, seen, f),
                ExprKind::Unary(_, a) => go(a, seen, f),
                ExprKind::Binary(_, a, b) => {
                    go(a, seen, f);
                    go(b, seen, f);
                }
                _ => {}
            }
        }
        go(self, &mut std::collections::HashSet::new(), f)
    }

    /// A stable textual key for this expression, used to match `Use` facts
    /// against `Load` facts: constants render as hex (so positional keys
    /// stay parseable), everything else keys by structural hash.
    pub fn key(&self) -> String {
        match &self.kind {
            ExprKind::Const(v) => format!("0x{:x}", v),
            _ => format!("e{:016x}", self.hash),
        }
    }
}

/// The 64-bit hash mixer behind [`Expr::dag_hash`].
fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Applies a binary operator to concrete values with EVM semantics.
pub fn apply_binop(op: BinOp, a: U256, b: U256) -> U256 {
    let truth = |t: bool| if t { U256::ONE } else { U256::ZERO };
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::SDiv => a.signed_div(b),
        BinOp::Mod => a % b,
        BinOp::SMod => a.signed_rem(b),
        BinOp::Exp => a.wrapping_pow(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        // Normalised (value, amount) order.
        BinOp::Shl => a << b,
        BinOp::Shr => a >> b,
        BinOp::Sar => a.sar(b),
        BinOp::Byte => a.byte(b),
        BinOp::SignExtend => a.sign_extend(b),
        BinOp::Lt => truth(a < b),
        BinOp::Gt => truth(a > b),
        BinOp::SLt => truth(a.signed_cmp(&b).is_lt()),
        BinOp::SGt => truth(a.signed_cmp(&b).is_gt()),
        BinOp::Eq => truth(a == b),
    }
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || (self.hash == other.hash && same_structure(self, other))
    }
}

impl Eq for Expr {}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(e: &Expr, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if depth > 12 {
                // Deep shared DAGs expand exponentially as trees; summarise.
                return write!(f, "…e{:08x}", e.dag_hash() as u32);
            }
            match e.kind() {
                ExprKind::Const(v) => write!(f, "0x{:x}", *v),
                ExprKind::CalldataWord(loc) => {
                    write!(f, "cd[")?;
                    go(loc, depth + 1, f)?;
                    write!(f, "]")
                }
                ExprKind::CalldataSize => write!(f, "cdsize"),
                ExprKind::FreeSym(id) => write!(f, "sym{}", id),
                ExprKind::Unary(op, a) => {
                    write!(f, "{:?}(", op)?;
                    go(a, depth + 1, f)?;
                    write!(f, ")")
                }
                ExprKind::Binary(op, a, b) => {
                    write!(f, "(")?;
                    go(a, depth + 1, f)?;
                    write!(f, " {:?} ", op)?;
                    go(b, depth + 1, f)?;
                    write!(f, ")")
                }
            }
        }
        go(self, 0, f)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Builds a binary node, folding when both operands are constants and the
/// operator is *location-irrelevant folding-safe*. Additions of constants
/// are folded so concrete memory addresses stay computable; `Mul` is left
/// structural (the ×32 evidence rules R2/R7 key on), except `0 × k` which
/// cannot carry evidence anyway — it is still kept structural for
/// first-iteration loop bodies.
pub fn bin(op: BinOp, a: Rc<Expr>, b: Rc<Expr>) -> Rc<Expr> {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        // Mul stays structural (the ×32 evidence of R2/R7); comparisons
        // stay structural so concrete loop guards (`i < 3` with a concrete
        // counter) remain visible to the rules. Everything else folds so
        // memory addresses stay computable.
        let keep = matches!(
            op,
            BinOp::Mul | BinOp::Lt | BinOp::Gt | BinOp::SLt | BinOp::SGt
        );
        if !keep {
            return Expr::constant(apply_binop(op, x, y));
        }
        let _ = (x, y);
    }
    intern(ExprKind::Binary(op, a, b))
}

/// Builds a unary node with constant folding.
pub fn un(op: UnOp, a: Rc<Expr>) -> Rc<Expr> {
    if let Some(x) = a.as_const() {
        let v = match op {
            UnOp::IsZero => {
                if x.is_zero() {
                    U256::ONE
                } else {
                    U256::ZERO
                }
            }
            UnOp::Not => !x,
        };
        return Expr::constant(v);
    }
    intern(ExprKind::Unary(op, a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdw(loc: Rc<Expr>) -> Rc<Expr> {
        Expr::calldata_word(loc)
    }

    #[test]
    fn eval_folds_constants() {
        let e = bin(BinOp::Add, Expr::c64(4), Expr::c64(38));
        assert_eq!(e.as_const(), Some(U256::from(42u64)));
        let m = bin(BinOp::Mul, Expr::c64(6), Expr::c64(7));
        // Mul stays structural but still evaluates.
        assert!(m.as_const().is_none());
        assert_eq!(m.eval(), Some(U256::from(42u64)));
    }

    #[test]
    fn eval_none_on_symbols() {
        let e = bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(1));
        assert_eq!(e.eval(), None);
        assert!(e.depends_on_calldata());
    }

    #[test]
    fn mul_structure_preserved_with_zero_counter() {
        // First loop iteration: i = 0, loc = 4 + 0*32. The ×32 evidence
        // must survive.
        let loc = bin(
            BinOp::Add,
            Expr::c64(4),
            bin(BinOp::Mul, Expr::zero(), Expr::c64(32)),
        );
        assert!(loc.contains_mul_by(32));
        assert_eq!(loc.eval(), Some(U256::from(4u64)));
    }

    #[test]
    fn contains_subexpression() {
        let offset = cdw(Expr::c64(4));
        let loc = bin(BinOp::Add, Rc::clone(&offset), Expr::c64(36));
        assert!(loc.contains(&offset));
        assert!(!loc.contains(&Expr::calldata_size()));
    }

    #[test]
    fn calldata_locs_collects_nested() {
        // cd[cd[4] + 4]: outer load's loc contains an inner load.
        let inner = cdw(Expr::c64(4));
        let loc = bin(BinOp::Add, inner, Expr::c64(4));
        let outer = cdw(loc);
        let locs = outer.calldata_locs();
        assert_eq!(locs.len(), 2);
    }

    #[test]
    fn free_syms_dedup() {
        let s = Expr::free_sym(3);
        let e = bin(BinOp::Add, Rc::clone(&s), bin(BinOp::Mul, s, Expr::c64(32)));
        assert_eq!(e.free_syms(), vec![3]);
    }

    #[test]
    fn const_addend_sums_through_adds() {
        let e = bin(
            BinOp::Add,
            bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(36)),
            bin(BinOp::Mul, Expr::free_sym(0), Expr::c64(32)),
        );
        assert_eq!(e.const_addend(), U256::from(36u64));
    }

    #[test]
    fn keys_are_stable_and_distinguish() {
        let e = bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(1));
        assert_eq!(e.key(), e.key());
        // Structurally equal expressions built separately share a key.
        let e2 = bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(1));
        assert_eq!(e.key(), e2.key());
        // Constants keep their parseable hex form.
        assert_eq!(Expr::c64(0x44).key(), "0x44");
        // Different expressions get different keys.
        let other = bin(BinOp::Add, cdw(Expr::c64(36)), Expr::c64(1));
        assert_ne!(e.key(), other.key());
    }

    #[test]
    fn dag_sharing_stays_cheap() {
        // s_{k+1} = s_k + cd[s_k]: tree size 2^k, DAG size k. All core
        // operations must finish instantly at depth 64.
        let mut s = cdw(Expr::c64(4));
        for _ in 0..64 {
            let loaded = cdw(Rc::clone(&s));
            s = bin(BinOp::Add, Rc::clone(&s), loaded);
        }
        assert!(s.depends_on_calldata());
        assert!(!s.depends_on_calldatasize());
        assert_eq!(s.dag_hash(), s.dag_hash());
        assert!(s.contains(&Expr::calldata_word(Expr::c64(4))));
        let _ = s.key();
        let _ = format!("{}", s);
        assert!(s.eval().is_none());
    }

    #[test]
    fn apply_binop_signed_cases() {
        let neg1 = U256::MAX;
        assert_eq!(apply_binop(BinOp::SLt, neg1, U256::ONE), U256::ONE);
        assert_eq!(apply_binop(BinOp::SGt, neg1, U256::ONE), U256::ZERO);
        assert_eq!(apply_binop(BinOp::Lt, neg1, U256::ONE), U256::ZERO);
    }

    #[test]
    fn unary_folding() {
        assert_eq!(un(UnOp::IsZero, Expr::zero()).as_const(), Some(U256::ONE));
        assert_eq!(
            un(UnOp::IsZero, un(UnOp::IsZero, Expr::c64(7))).as_const(),
            Some(U256::ONE)
        );
        let sym = Expr::free_sym(1);
        assert!(un(UnOp::IsZero, sym).as_const().is_none());
    }

    #[test]
    fn interning_shares_identical_nodes() {
        // Two structurally identical expressions built independently are
        // pointer-identical within a thread.
        let a = bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(36));
        let b = bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(36));
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.dag_hash(), b.dag_hash());
        assert_eq!(a, b);
        // Different expressions stay distinct.
        let c = bin(BinOp::Add, cdw(Expr::c64(4)), Expr::c64(68));
        assert!(!Rc::ptr_eq(&a, &c));
        assert_ne!(a, c);
    }

    /// The `v` for which `mix(h, v) == out`: `mix` is a bijection in `v`,
    /// so a colliding input can be solved for directly.
    fn unmix(h: u64, out: u64) -> u64 {
        let m: u64 = 0xff51_afd7_ed55_8ccd;
        // Newton's iteration for the inverse of an odd number mod 2^64.
        let mut inv = m;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        let mixed = (out ^ (out >> 33)).wrapping_mul(inv);
        (mixed ^ h)
            .wrapping_sub(0x9e37_79b9_7f4a_7c15)
            .wrapping_sub(h << 6)
            .wrapping_sub(h >> 2)
    }

    #[test]
    fn colliding_constants_stay_distinct() {
        let first = U256::from_limbs([1, 2, 3, 4]);
        let a = Expr::constant(first);
        let x = unmix(mix(mix(mix(1, 7), 8), 9), a.dag_hash());
        let second = U256::from_limbs([7, 8, 9, x]);
        let b = Expr::constant(second);
        assert_eq!(a.dag_hash(), b.dag_hash(), "the pair must collide");
        assert_eq!(a.as_const(), Some(first));
        assert_eq!(b.as_const(), Some(second));
        assert_ne!(a, b);
        // Parents over the colliding pair collide too, and stay distinct.
        let pa = Expr::calldata_word(Rc::clone(&a));
        let pb = Expr::calldata_word(Rc::clone(&b));
        assert_eq!(pa.dag_hash(), pb.dag_hash());
        assert_ne!(pa, pb);
        assert!(!pb.contains(&a));
    }

    #[test]
    fn interner_clear_keeps_nodes_valid() {
        let a = bin(BinOp::Mul, cdw(Expr::c64(4)), Expr::c64(32));
        let h = a.dag_hash();
        interner_clear();
        // The node survives the clear; a rebuilt twin is a new allocation
        // but still structurally equal.
        let b = bin(BinOp::Mul, cdw(Expr::c64(4)), Expr::c64(32));
        assert_eq!(a.dag_hash(), h);
        assert_eq!(a, b);
        assert!(a.contains_mul_by(32));
    }

    #[test]
    fn flags_propagate_through_operators() {
        let c = cdw(Expr::c64(4));
        let s = Expr::calldata_size();
        let e = bin(BinOp::Sub, s, c);
        assert!(e.depends_on_calldata());
        assert!(e.depends_on_calldatasize());
        let f = un(UnOp::IsZero, Expr::free_sym(9));
        assert!(!f.depends_on_calldata());
        assert!(!f.depends_on_calldatasize());
    }
}
