//! Grammars: the TAG quintuple plus the lexeme pools and parameter ranges
//! that drive knowledge-guided search.
//!
//! A [`Grammar`] bundles the interned non-terminal alphabet, the start
//! symbol, the elementary trees, and — per the paper's restricted
//! substitution — a *pool* of candidate lexemes for every substitution
//! symbol. The domain layer expresses its prior knowledge here: which
//! variables may enter which subprocess (Table II) becomes "which tokens are
//! in which pool" and "which β-trees exist for which `Ext` symbol".
//!
//! The grammar also implements TAG3P population initialisation
//! ([`Grammar::random_tree`]): choose a size, seed with an α-tree, then
//! repeatedly adjoin random compatible β-trees at random open addresses.

use crate::derivation::{Adjunction, DerivNode, DerivTree};
use crate::tree::{ElemTree, NodeKind, SymId, Token, TreeError, TreeKind};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Identifier of an elementary tree within a grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeId(pub u32);

/// Errors raised while assembling a [`Grammar`].
#[derive(Debug, Clone, PartialEq)]
pub enum GrammarError {
    /// `build` called without a start symbol.
    NoStart,
    /// No initial tree roots at the start symbol.
    NoStartAlpha,
    /// An elementary tree references a symbol id that was never interned.
    UnknownSymbol { tree: String, sym: u16 },
    /// A substitution slot's symbol has an empty lexeme pool.
    EmptyPool { sym: u16 },
    /// Structural validation of an elementary tree failed.
    Tree(TreeError),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::NoStart => write!(f, "grammar has no start symbol"),
            GrammarError::NoStartAlpha => write!(f, "no initial tree for the start symbol"),
            GrammarError::UnknownSymbol { tree, sym } => {
                write!(f, "tree '{tree}' references unknown symbol #{sym}")
            }
            GrammarError::EmptyPool { sym } => {
                write!(f, "substitution symbol #{sym} has an empty lexeme pool")
            }
            GrammarError::Tree(e) => write!(f, "invalid elementary tree: {e}"),
        }
    }
}

impl std::error::Error for GrammarError {}

impl From<TreeError> for GrammarError {
    fn from(e: TreeError) -> Self {
        GrammarError::Tree(e)
    }
}

/// A validated TAG with lexeme pools and parameter-initialisation ranges.
#[derive(Debug, Clone)]
pub struct Grammar {
    symbols: Vec<String>,
    start: SymId,
    trees: Vec<ElemTree>,
    /// Lexeme pool per symbol id (empty for symbols never used as slots).
    pools: Vec<Vec<Token>>,
    /// β-trees grouped by root symbol.
    betas_by_symbol: Vec<Vec<TreeId>>,
    /// α-trees rooted at the start symbol.
    start_alphas: Vec<TreeId>,
    /// Uniform initialisation ranges for `Param` lexemes drawn from pools
    /// (the paper's "R denotes a variable that is randomly initialized").
    param_ranges: HashMap<u16, (f64, f64)>,
}

impl Grammar {
    /// The start symbol.
    pub fn start(&self) -> SymId {
        self.start
    }

    /// Resolve a symbol name.
    pub fn symbol(&self, name: &str) -> Option<SymId> {
        self.symbols
            .iter()
            .position(|s| s == name)
            .map(|i| SymId(i as u16))
    }

    /// Name of a symbol id.
    pub fn symbol_name(&self, sym: SymId) -> &str {
        &self.symbols[sym.0 as usize]
    }

    /// Number of interned symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Access an elementary tree.
    pub fn tree(&self, id: TreeId) -> &ElemTree {
        &self.trees[id.0 as usize]
    }

    /// All elementary trees with their ids.
    pub fn trees(&self) -> impl Iterator<Item = (TreeId, &ElemTree)> {
        self.trees
            .iter()
            .enumerate()
            .map(|(i, t)| (TreeId(i as u32), t))
    }

    /// α-trees rooted at the start symbol (derivation roots).
    pub fn start_alphas(&self) -> &[TreeId] {
        &self.start_alphas
    }

    /// β-trees whose root symbol is `sym`.
    pub fn betas_for(&self, sym: SymId) -> &[TreeId] {
        self.betas_by_symbol
            .get(sym.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Lexeme pool for a substitution symbol.
    pub fn pool(&self, sym: SymId) -> &[Token] {
        self.pools
            .get(sym.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Uniform init range for a `Param` kind, if registered.
    pub fn param_range(&self, kind: u16) -> Option<(f64, f64)> {
        self.param_ranges.get(&kind).copied()
    }

    /// Membership test used by derivation validation. `Param` lexemes match
    /// by kind (each instance carries its own evolved value) and `Num`
    /// lexemes match any literal; other tokens match exactly.
    pub fn lexeme_in_pool(&self, sym: SymId, token: &Token) -> bool {
        self.pool(sym).iter().any(|p| match (p, token) {
            (Token::Param { kind: a, .. }, Token::Param { kind: b, .. }) => a == b,
            (Token::Num(_), Token::Num(_)) => true,
            _ => p == token,
        })
    }

    /// Draw a random lexeme for `sym`, applying the parameter-range
    /// initialisation for `Param` pool entries.
    pub fn random_lexeme<R: Rng>(&self, sym: SymId, rng: &mut R) -> Token {
        let pool = self.pool(sym);
        assert!(
            !pool.is_empty(),
            "empty pool for symbol {}",
            self.symbol_name(sym)
        );
        let tok = *pool.choose(rng).expect("non-empty pool");
        match tok {
            Token::Param { kind, value } => {
                let value = match self.param_range(kind) {
                    Some((lo, hi)) if lo < hi => rng.gen_range(lo..hi),
                    _ => value,
                };
                Token::Param { kind, value }
            }
            other => other,
        }
    }

    /// Instantiate a fresh derivation node for `tree`: lexemes drawn from
    /// pools, params at their defaults ("in the beginning, parameters are
    /// set to the expected value", §III-B3).
    pub fn instantiate<R: Rng>(&self, id: TreeId, rng: &mut R) -> DerivNode {
        let elem = self.tree(id);
        let lexemes = elem
            .subst_symbols()
            .into_iter()
            .map(|sym| self.random_lexeme(sym, rng))
            .collect();
        DerivNode {
            tree: id,
            lexemes,
            params: elem.param_defaults(),
            children: Vec::new(),
        }
    }

    /// TAG3P population initialisation: seed with a random start α-tree and
    /// adjoin random β-trees at random open addresses until the chromosome
    /// size reaches a target drawn from `[min_size, max_size]`.
    pub fn random_tree<R: Rng>(&self, rng: &mut R, min_size: usize, max_size: usize) -> DerivTree {
        assert!(min_size >= 1 && min_size <= max_size);
        let target = rng.gen_range(min_size..=max_size);
        let root_id = *self
            .start_alphas
            .choose(rng)
            .expect("validated grammar has a start alpha");
        let mut tree = DerivTree {
            root: self.instantiate(root_id, rng),
        };
        while tree.size() < target {
            let open = tree.open_addresses(self);
            let Some((path, addr, sym)) = open.choose(rng).cloned() else {
                break;
            };
            let beta = *self
                .betas_for(sym)
                .choose(rng)
                .expect("open address implies a beta");
            let child = self.instantiate(beta, rng);
            tree.node_mut(&path)
                .children
                .push(Adjunction { addr, child });
        }
        tree
    }
}

/// Incremental construction of a [`Grammar`].
///
/// End-to-end: a one-rule grammar whose β appends `- lexeme`, grown into a
/// random individual, derived and lowered to an expression.
///
/// ```
/// use gmr_expr::BinOp;
/// use gmr_tag::tree::ElemTreeBuilder;
/// use gmr_tag::{lower, GrammarBuilder, Token, TreeKind};
/// use rand::SeedableRng;
///
/// let mut gb = GrammarBuilder::new();
/// let s = gb.sym("S");
/// let r = gb.sym("R");
/// gb.start(s);
/// // α: S → x  (state 0)
/// let mut a = ElemTreeBuilder::new("alpha", TreeKind::Initial, s);
/// let root = a.root();
/// a.anchor(root, Token::State(0));
/// gb.tree(a.build().unwrap());
/// // β: S → S* "-" R↓
/// let mut b = ElemTreeBuilder::new("beta", TreeKind::Auxiliary, s);
/// let root = b.root();
/// b.foot(root, s);
/// b.anchor(root, Token::Bin(BinOp::Sub));
/// b.subst(root, r);
/// gb.tree(b.build().unwrap());
/// gb.pool(r, [Token::Num(1.0)]);
///
/// let grammar = gb.build().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let individual = grammar.random_tree(&mut rng, 3, 3);
/// let expr = lower(&individual.derived(&grammar)).unwrap();
/// // x - 1 - 1: the α plus two adjoined βs.
/// assert_eq!(expr.size(), 5);
/// ```
#[derive(Debug, Default)]
pub struct GrammarBuilder {
    symbols: Vec<String>,
    start: Option<SymId>,
    trees: Vec<ElemTree>,
    pools: HashMap<u16, Vec<Token>>,
    param_ranges: HashMap<u16, (f64, f64)>,
}

impl GrammarBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern (or look up) a symbol name.
    pub fn sym(&mut self, name: &str) -> SymId {
        if let Some(i) = self.symbols.iter().position(|s| s == name) {
            return SymId(i as u16);
        }
        let id = SymId(self.symbols.len() as u16);
        self.symbols.push(name.to_string());
        id
    }

    /// Set the start symbol.
    pub fn start(&mut self, sym: SymId) -> &mut Self {
        self.start = Some(sym);
        self
    }

    /// Add a validated elementary tree.
    pub fn tree(&mut self, tree: ElemTree) -> TreeId {
        let id = TreeId(self.trees.len() as u32);
        self.trees.push(tree);
        id
    }

    /// Extend the lexeme pool for a substitution symbol.
    pub fn pool(&mut self, sym: SymId, tokens: impl IntoIterator<Item = Token>) -> &mut Self {
        self.pools.entry(sym.0).or_default().extend(tokens);
        self
    }

    /// Register the uniform initialisation range for a `Param` kind.
    pub fn param_range(&mut self, kind: u16, lo: f64, hi: f64) -> &mut Self {
        self.param_ranges.insert(kind, (lo, hi));
        self
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<Grammar, GrammarError> {
        let start = self.start.ok_or(GrammarError::NoStart)?;
        let nsyms = self.symbols.len() as u16;
        let mut pools = vec![Vec::new(); self.symbols.len()];
        for (sym, toks) in &self.pools {
            if *sym >= nsyms {
                return Err(GrammarError::UnknownSymbol {
                    tree: "<pool>".into(),
                    sym: *sym,
                });
            }
            pools[*sym as usize] = toks.clone();
        }
        let mut betas_by_symbol = vec![Vec::new(); self.symbols.len()];
        let mut start_alphas = Vec::new();
        for (i, tree) in self.trees.iter().enumerate() {
            tree.validate()?;
            // Check every symbol referenced by the tree is interned, and
            // every substitution slot has a pool.
            for node in &tree.nodes {
                let sym = match node.kind {
                    NodeKind::Interior(s) | NodeKind::Subst(s) | NodeKind::Foot(s) => Some(s),
                    NodeKind::Anchor(_) => None,
                };
                if let Some(s) = sym {
                    if s.0 >= nsyms {
                        return Err(GrammarError::UnknownSymbol {
                            tree: tree.name.clone(),
                            sym: s.0,
                        });
                    }
                }
                if let NodeKind::Subst(s) = node.kind {
                    if pools[s.0 as usize].is_empty() {
                        return Err(GrammarError::EmptyPool { sym: s.0 });
                    }
                }
            }
            match tree.kind {
                TreeKind::Auxiliary => {
                    betas_by_symbol[tree.root_symbol().0 as usize].push(TreeId(i as u32));
                }
                TreeKind::Initial => {
                    if tree.root_symbol() == start {
                        start_alphas.push(TreeId(i as u32));
                    }
                }
            }
        }
        if start_alphas.is_empty() {
            return Err(GrammarError::NoStartAlpha);
        }
        Ok(Grammar {
            symbols: self.symbols,
            start,
            trees: self.trees,
            pools,
            betas_by_symbol,
            start_alphas,
            param_ranges: self.param_ranges,
        })
    }
}

/// Shared fixtures for tests in this crate and in `gmr-gp`.
#[doc(hidden)]
pub mod test_fixtures {
    use super::*;
    use crate::tree::ElemTreeBuilder;
    use gmr_expr::BinOp;

    /// A minimal grammar ("Exp" start symbol, one α, one β subtracting a
    /// lexeme) plus a deterministic 3-node derivation:
    /// `((State0 * C0) - lex) - lex` with `lex = Param{kind 1, value 0.5}`.
    pub fn tiny_grammar() -> (Grammar, DerivTree) {
        let mut gb = GrammarBuilder::new();
        let exp = gb.sym("Exp");
        let rsym = gb.sym("R");
        gb.start(exp);

        let mut a = ElemTreeBuilder::new("alpha", TreeKind::Initial, exp);
        let r = a.root();
        a.anchor(r, Token::State(0));
        a.anchor(r, Token::Bin(BinOp::Mul));
        a.anchor(
            r,
            Token::Param {
                kind: 0,
                value: 2.0,
            },
        );
        let alpha = gb.tree(a.build().unwrap());

        let mut b = ElemTreeBuilder::new("beta-sub", TreeKind::Auxiliary, exp);
        let r = b.root();
        b.foot(r, exp);
        b.anchor(r, Token::Bin(BinOp::Sub));
        b.subst(r, rsym);
        let beta = gb.tree(b.build().unwrap());

        gb.pool(
            rsym,
            [
                Token::Param {
                    kind: 1,
                    value: 0.5,
                },
                Token::Var(0),
            ],
        );
        gb.param_range(1, 0.0, 1.0);
        let g = gb.build().unwrap();

        let lex = Token::Param {
            kind: 1,
            value: 0.5,
        };
        let grandchild = DerivNode {
            tree: beta,
            lexemes: vec![lex],
            params: vec![],
            children: vec![],
        };
        let child = DerivNode {
            tree: beta,
            lexemes: vec![lex],
            params: vec![],
            children: vec![Adjunction {
                addr: crate::tree::NodeIdx(0),
                child: grandchild,
            }],
        };
        let root = DerivNode {
            tree: alpha,
            lexemes: vec![],
            params: vec![2.0],
            children: vec![Adjunction {
                addr: crate::tree::NodeIdx(0),
                child,
            }],
        };
        (g, DerivTree { root })
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::tiny_grammar;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn symbol_interning_round_trips() {
        let (g, _) = tiny_grammar();
        let exp = g.symbol("Exp").unwrap();
        assert_eq!(g.symbol_name(exp), "Exp");
        assert_eq!(g.symbol("nope"), None);
        assert_eq!(g.symbol_count(), 2);
    }

    #[test]
    fn betas_indexed_by_symbol() {
        let (g, _) = tiny_grammar();
        let exp = g.symbol("Exp").unwrap();
        let r = g.symbol("R").unwrap();
        assert_eq!(g.betas_for(exp).len(), 1);
        assert!(g.betas_for(r).is_empty());
    }

    #[test]
    fn pool_membership_semantics() {
        let (g, _) = tiny_grammar();
        let r = g.symbol("R").unwrap();
        // Param matches by kind regardless of value.
        assert!(g.lexeme_in_pool(
            r,
            &Token::Param {
                kind: 1,
                value: 0.123
            }
        ));
        assert!(!g.lexeme_in_pool(
            r,
            &Token::Param {
                kind: 9,
                value: 0.5
            }
        ));
        assert!(g.lexeme_in_pool(r, &Token::Var(0)));
        assert!(!g.lexeme_in_pool(r, &Token::Var(3)));
    }

    #[test]
    fn random_lexeme_respects_param_range() {
        let (g, _) = tiny_grammar();
        let r = g.symbol("R").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            match g.random_lexeme(r, &mut rng) {
                Token::Param { kind, value } => {
                    assert_eq!(kind, 1);
                    assert!((0.0..1.0).contains(&value), "{value} outside init range");
                }
                Token::Var(0) => {}
                other => panic!("unexpected lexeme {other:?}"),
            }
        }
    }

    #[test]
    fn instantiate_uses_param_defaults() {
        let (g, t) = tiny_grammar();
        let mut rng = StdRng::seed_from_u64(1);
        let inst = g.instantiate(t.root.tree, &mut rng);
        assert_eq!(inst.params, vec![2.0]);
        assert!(inst.children.is_empty());
    }

    #[test]
    fn random_tree_respects_size_bounds() {
        let (g, _) = tiny_grammar();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let t = g.random_tree(&mut rng, 2, 10);
            assert!(t.size() >= 2 && t.size() <= 10, "size {}", t.size());
            t.validate(&g).unwrap();
        }
    }

    #[test]
    fn random_tree_min_one_allows_bare_alpha() {
        let (g, _) = tiny_grammar();
        let mut rng = StdRng::seed_from_u64(3);
        let t = g.random_tree(&mut rng, 1, 1);
        assert_eq!(t.size(), 1);
    }

    #[test]
    fn builder_rejects_missing_start() {
        let gb = GrammarBuilder::new();
        assert_eq!(gb.build().unwrap_err(), GrammarError::NoStart);
    }

    #[test]
    fn builder_rejects_missing_start_alpha() {
        let mut gb = GrammarBuilder::new();
        let s = gb.sym("S");
        gb.start(s);
        assert_eq!(gb.build().unwrap_err(), GrammarError::NoStartAlpha);
    }

    #[test]
    fn builder_rejects_empty_pool() {
        let mut gb = GrammarBuilder::new();
        let s = gb.sym("S");
        let r = gb.sym("R");
        gb.start(s);
        let mut a = crate::tree::ElemTreeBuilder::new("a", TreeKind::Initial, s);
        let root = a.root();
        a.subst(root, r);
        gb.tree(a.build().unwrap());
        assert_eq!(
            gb.build().unwrap_err(),
            GrammarError::EmptyPool { sym: r.0 }
        );
    }

    #[test]
    fn builder_rejects_unknown_symbol() {
        let mut gb = GrammarBuilder::new();
        let s = gb.sym("S");
        gb.start(s);
        // An interior node labelled with a symbol id that was never interned.
        let mut a = crate::tree::ElemTreeBuilder::new("a", TreeKind::Initial, s);
        let root = a.root();
        let inner = a.interior(root, SymId(99));
        a.anchor(inner, Token::Num(1.0));
        gb.tree(a.build().unwrap());
        assert!(matches!(
            gb.build().unwrap_err(),
            GrammarError::UnknownSymbol { .. }
        ));
    }
}
