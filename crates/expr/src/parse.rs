//! A small recursive-descent parser for process equations.
//!
//! Lets examples, tests and domain code write equations as text instead of
//! assembling ASTs by hand. The grammar mirrors the pretty-printer in
//! [`crate::display`] (round-trip property-tested):
//!
//! ```text
//! expr   := term  (('+' | '-') term)*
//! term   := factor (('*' | '/') factor)*
//! factor := '-' factor | atom
//! atom   := NUMBER
//!         | IDENT '[' NUMBER ']'        // parameter with explicit value
//!         | IDENT '(' expr (',' expr)? ')'  // log/exp/min/max/pow
//!         | IDENT                       // variable, state, or parameter
//!         | '(' expr ')'
//! ```
//!
//! Identifier resolution consults the [`NameTable`]: states first, then
//! variables, then parameters (a parameter without `[value]` takes the
//! default value supplied by the caller's `param_default` closure — the
//! domain layer passes Table III means).

use crate::ast::{BinOp, Expr, ParamSlot, UnOp};
use crate::display::NameTable;
use std::fmt;

/// Parse failure with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error occurred.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Maximum nesting depth accepted by the parser. Deeper input returns a
/// [`ParseError`] instead of exhausting the stack — evolved or user-written
/// equations never come close, so this is purely a robustness bound.
pub const MAX_DEPTH: usize = 200;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
    names: &'a NameTable,
    param_default: &'a dyn Fn(u16) -> Option<f64>,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.src.get(self.pos).is_some_and(|c| {
            c.is_ascii_digit()
                || *c == b'.'
                || *c == b'e'
                || *c == b'E'
                || (*c == b'-' || *c == b'+')
                    && matches!(self.src.get(self.pos - 1), Some(b'e' | b'E'))
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii slice");
        text.parse::<f64>().map_err(|_| ParseError {
            at: start,
            msg: format!("invalid number '{text}'"),
        })
    }

    fn ident(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_' || *c == b'#')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return self.err("expression nests too deeply");
        }
        let r = self.expr_inner();
        self.depth -= 1;
        r
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    lhs = Expr::bin(BinOp::Add, lhs, self.term()?);
                }
                Some(b'-') => {
                    self.pos += 1;
                    lhs = Expr::bin(BinOp::Sub, lhs, self.term()?);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    lhs = Expr::bin(BinOp::Mul, lhs, self.factor()?);
                }
                Some(b'/') => {
                    self.pos += 1;
                    lhs = Expr::bin(BinOp::Div, lhs, self.factor()?);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(b'-') {
            // Distinguish a negative literal from negation of a subterm.
            let save = self.pos;
            self.pos += 1;
            if self.peek().is_some_and(|c| c.is_ascii_digit() || c == b'.') {
                self.pos = save;
                return Ok(Expr::Num(self.number()?));
            }
            return Ok(Expr::un(UnOp::Neg, self.factor()?));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(b')')?;
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => Ok(Expr::Num(self.number()?)),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident();
                match (name.as_str(), self.peek()) {
                    ("log" | "exp" | "neg", Some(b'(')) => {
                        self.pos += 1;
                        let a = self.expr()?;
                        self.expect(b')')?;
                        let op = match name.as_str() {
                            "log" => UnOp::Log,
                            "exp" => UnOp::Exp,
                            _ => UnOp::Neg,
                        };
                        Ok(Expr::un(op, a))
                    }
                    ("min" | "max" | "pow", Some(b'(')) => {
                        self.pos += 1;
                        let a = self.expr()?;
                        self.expect(b',')?;
                        let b = self.expr()?;
                        self.expect(b')')?;
                        let op = match name.as_str() {
                            "min" => BinOp::Min,
                            "max" => BinOp::Max,
                            _ => BinOp::Pow,
                        };
                        Ok(Expr::bin(op, a, b))
                    }
                    _ => self.resolve(name),
                }
            }
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn resolve(&mut self, name: String) -> Result<Expr, ParseError> {
        if let Some(i) = self.names.state_index(&name) {
            return Ok(Expr::State(i));
        }
        if let Some(i) = self.names.var_index(&name) {
            return Ok(Expr::Var(i));
        }
        if let Some(kind) = self.names.param_kind(&name) {
            let value = if self.eat(b'[') {
                let v = self.number()?;
                self.expect(b']')?;
                v
            } else {
                match (self.param_default)(kind) {
                    Some(v) => v,
                    None => {
                        return self
                            .err(format!("parameter '{name}' has no [value] and no default"))
                    }
                }
            };
            return Ok(Expr::Param(ParamSlot { kind, value }));
        }
        self.err(format!("unknown identifier '{name}'"))
    }
}

/// Parse `src` against `names`. `param_default` supplies the value for a
/// parameter written without an explicit `[value]` (typically the prior
/// mean from the domain's parameter table).
pub fn parse(
    src: &str,
    names: &NameTable,
    param_default: impl Fn(u16) -> f64,
) -> Result<Expr, ParseError> {
    parse_with_defaults(src, names, |kind| Some(param_default(kind)))
}

/// [`parse`] for a name table that may name parameters without a default
/// (one read from a file can list more parameters than the domain has
/// priors): a parameter written without `[value]` whose `param_default` is
/// `None` is a [`ParseError`].
pub fn parse_with_defaults(
    src: &str,
    names: &NameTable,
    param_default: impl Fn(u16) -> Option<f64>,
) -> Result<Expr, ParseError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        depth: 0,
        names,
        param_default: &param_default,
    };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input");
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalContext;

    fn names() -> NameTable {
        NameTable::new(&["Vlgt", "Vtmp"], &["BPhy", "BZoo"], &["CUA", "CBRA"])
    }

    fn p(src: &str) -> Expr {
        parse(src, &names(), |_| 1.0).expect(src)
    }

    #[test]
    fn numbers() {
        assert_eq!(p("3.5"), Expr::Num(3.5));
        assert_eq!(p("-2"), Expr::Num(-2.0));
        assert_eq!(p("1e-3"), Expr::Num(1e-3));
    }

    #[test]
    fn identifiers_resolve_in_order() {
        assert_eq!(p("BPhy"), Expr::State(0));
        assert_eq!(p("Vtmp"), Expr::Var(1));
        assert_eq!(
            p("CUA"),
            Expr::Param(ParamSlot {
                kind: 0,
                value: 1.0
            })
        );
        assert_eq!(
            p("CBRA[0.021]"),
            Expr::Param(ParamSlot {
                kind: 1,
                value: 0.021
            })
        );
    }

    #[test]
    fn names_past_the_index_width_are_unknown() {
        // `V270` used to wrap to `Var(14)` (270 as u8), which an arity
        // check against 300 variables then accepted.
        let vars: Vec<String> = (0..300).map(|i| format!("V{i}")).collect();
        let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
        let table = NameTable::new(&vars, &["BPhy"], &["CUA"]);
        assert_eq!(parse("V255", &table, |_| 0.0).unwrap(), Expr::Var(255));
        let err = parse("V270", &table, |_| 0.0).unwrap_err();
        assert!(err.msg.contains("unknown identifier 'V270'"), "{err}");
        assert_eq!(table.var_index("V256"), None);
    }

    #[test]
    fn precedence() {
        let e = p("BPhy + Vlgt * Vtmp");
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Expr::State(0),
                Expr::bin(BinOp::Mul, Expr::Var(0), Expr::Var(1))
            )
        );
    }

    #[test]
    fn left_associativity() {
        let e = p("Vlgt - Vtmp - 1");
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Sub,
                Expr::bin(BinOp::Sub, Expr::Var(0), Expr::Var(1)),
                Expr::Num(1.0)
            )
        );
    }

    #[test]
    fn functions() {
        assert_eq!(
            p("min(Vlgt, Vtmp)"),
            Expr::bin(BinOp::Min, Expr::Var(0), Expr::Var(1))
        );
        assert_eq!(p("log(Vlgt)"), Expr::un(UnOp::Log, Expr::Var(0)));
        assert_eq!(
            p("pow(Vlgt, 2)"),
            Expr::bin(BinOp::Pow, Expr::Var(0), Expr::Num(2.0))
        );
    }

    #[test]
    fn negation_of_expression() {
        let e = p("-(Vlgt + 1)");
        assert_eq!(
            e,
            Expr::un(
                UnOp::Neg,
                Expr::bin(BinOp::Add, Expr::Var(0), Expr::Num(1.0))
            )
        );
        assert_eq!(p("-Vlgt"), Expr::un(UnOp::Neg, Expr::Var(0)));
    }

    #[test]
    fn errors() {
        assert!(parse("Vxx", &names(), |_| 0.0).is_err());
        assert!(parse("1 +", &names(), |_| 0.0).is_err());
        assert!(parse("(1", &names(), |_| 0.0).is_err());
        assert!(parse("1 2", &names(), |_| 0.0).is_err());
        assert!(parse("min(1)", &names(), |_| 0.0).is_err());
    }

    #[test]
    fn bare_parameter_without_default_is_an_error() {
        let n = names();
        let no_default = |_| None;
        let err = parse_with_defaults("BPhy * CUA", &n, no_default).unwrap_err();
        assert!(err.msg.contains("'CUA'"), "{err}");
        assert_eq!(
            parse_with_defaults("BPhy * CUA[2]", &n, no_default),
            parse("BPhy * CUA[2]", &n, |_| 0.0)
        );
    }

    #[test]
    fn round_trip_display_parse() {
        let n = names();
        let exprs = [
            "BPhy * (CUA[1.89] - 1.5)",
            "min(Vlgt / (CUA[1] + Vlgt), Vtmp)",
            "exp(-(Vtmp - 27))",
            "Vlgt - (Vtmp - 1)",
            "BZoo * CBRA[0.05] + log(Vlgt)",
        ];
        for src in exprs {
            let e = parse(src, &n, |_| 1.0).expect(src);
            let shown = e.display(&n).to_string();
            let re = parse(&shown, &n, |_| 1.0).expect(&shown);
            assert_eq!(e, re, "round trip failed for {src} -> {shown}");
        }
    }

    #[test]
    fn parse_then_eval() {
        let e = p("BPhy * (CUA[2.0] - Vtmp / Vlgt)");
        let ctx = EvalContext {
            vars: &[10.0, 5.0],
            state: &[3.0, 0.0],
        };
        assert_eq!(e.eval(&ctx), 3.0 * (2.0 - 0.5));
    }
}
