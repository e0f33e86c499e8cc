//! Parser for Ark source text (the grammar of paper Figure 6).
//!
//! The surface syntax follows the paper's examples (Figures 7–10): `lang`
//! blocks containing `ntyp`/`etyp` type declarations, `prod` production
//! rules, `cstr` validity rules, and `extern-func` registrations; plus
//! `func` definitions that procedurally build dynamical graphs.
//!
//! Dialect notes (deviations from the Figure 6 grammar):
//!
//! * user-defined names use `_` instead of `-` (`br_func`, `gmc_tln`) since
//!   `-` is subtraction; the grammar's hyphenated *keywords* are supported;
//! * initial-value declarations are written explicitly:
//!   `init(0) = real[-10,10] default 0;`
//! * attribute defaults use a trailing `default <value>`; ranges with
//!   `lo == hi` default automatically (used by `int[1,1]`-style cost tags);
//! * `fn(..)` is accepted as a synonym for `lambd(..)` as in Figure 7.

use crate::lang::{EdgeType, MatchClause, NodeType, Pattern, ProdRule, Reduction, ValidityRule};
use crate::types::{SigKind, SigType, Value};
use ark_expr::lexer::{tokenize, Cursor, Tok};
use ark_expr::{parse as eparse, BoolExpr, ParseError};

/// A parsed `lang` block, ready to feed a
/// [`LanguageBuilder`](crate::lang::LanguageBuilder).
#[derive(Debug, Clone, PartialEq)]
pub struct LangDefAst {
    /// Language name.
    pub name: String,
    /// Parent language (`inherits p`).
    pub inherits: Option<String>,
    /// Node type declarations.
    pub node_types: Vec<NodeType>,
    /// Edge type declarations.
    pub edge_types: Vec<EdgeType>,
    /// Production rules.
    pub prods: Vec<ProdRule>,
    /// Local validity rules.
    pub cstrs: Vec<ValidityRule>,
    /// Global validity check names.
    pub externs: Vec<String>,
}

/// A value expression in a function body: a literal or an argument
/// reference (`FuncVal ::= Val | v`).
#[derive(Debug, Clone, PartialEq)]
pub enum FuncVal {
    /// A literal value.
    Lit(Value),
    /// A reference to a function argument.
    Arg(String),
}

/// One statement of a function body.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncStmt {
    /// `node v : T;`
    Node {
        /// Node name.
        name: String,
        /// Node type.
        ty: String,
    },
    /// `edge <src, dst> v : T;`
    Edge {
        /// Edge name.
        name: String,
        /// Edge type.
        ty: String,
        /// Source node name.
        src: String,
        /// Destination node name.
        dst: String,
    },
    /// `set-attr v.a = value;`
    SetAttr {
        /// Entity name.
        entity: String,
        /// Attribute name.
        attr: String,
        /// Assigned value.
        value: FuncVal,
    },
    /// `set-init v(i) = value;`
    SetInit {
        /// Node name.
        node: String,
        /// Derivative index.
        index: usize,
        /// Assigned value.
        value: FuncVal,
    },
    /// `set-switch v when b;`
    SetSwitch {
        /// Edge name.
        edge: String,
        /// Switch condition over the function arguments.
        cond: BoolExpr,
    },
}

/// A parsed `func` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Typed arguments, in order.
    pub args: Vec<(String, SigType)>,
    /// The language the function builds graphs in (`uses L`).
    pub lang: String,
    /// Body statements.
    pub body: Vec<FuncStmt>,
}

/// A parsed Ark program: language and function definitions in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramAst {
    /// Language definitions.
    pub langs: Vec<LangDefAst>,
    /// Function definitions.
    pub funcs: Vec<FuncDef>,
}

/// Parse Ark source text into an AST.
///
/// # Errors
///
/// [`ParseError`] with position information on malformed input.
pub fn parse_program(src: &str) -> Result<ProgramAst, ParseError> {
    let toks = tokenize(src)?;
    let mut cur = Cursor::new(&toks);
    let mut out = ProgramAst::default();
    while !cur.at_eof() {
        if cur.eat_kw("lang") {
            out.langs.push(lang_def(&mut cur)?);
        } else if cur.eat_kw("func") {
            out.funcs.push(func_def(&mut cur)?);
        } else {
            return Err(cur.error(format!(
                "expected `lang` or `func`, found `{}`",
                cur.peek().tok
            )));
        }
    }
    Ok(out)
}

fn eat_separators(cur: &mut Cursor<'_>) {
    while cur.eat(&Tok::Semi) || cur.eat(&Tok::Comma) {}
}

fn lang_def(cur: &mut Cursor<'_>) -> Result<LangDefAst, ParseError> {
    let name = cur.expect_ident()?;
    let inherits = if cur.eat_kw("inherits") {
        Some(cur.expect_ident()?)
    } else {
        None
    };
    cur.expect(&Tok::LBrace)?;
    let mut def = LangDefAst {
        name,
        inherits,
        node_types: Vec::new(),
        edge_types: Vec::new(),
        prods: Vec::new(),
        cstrs: Vec::new(),
        externs: Vec::new(),
    };
    loop {
        eat_separators(cur);
        if cur.eat(&Tok::RBrace) {
            break;
        }
        if cur.eat_kw("ntyp") || cur.eat_kw("node-type") {
            def.node_types.push(node_type(cur)?);
        } else if cur.eat_kw("etyp") || cur.eat_kw("edge-type") {
            def.edge_types.push(edge_type(cur)?);
        } else if cur.eat_kw("prod") {
            def.prods.push(prod_rule(cur)?);
        } else if cur.eat_kw("cstr") {
            def.cstrs.push(cstr_rule(cur)?);
        } else if cur.eat_kw("extern-func") {
            def.externs.push(cur.expect_ident()?);
        } else {
            return Err(cur.error(format!(
                "expected a language statement, found `{}`",
                cur.peek().tok
            )));
        }
    }
    Ok(def)
}

fn node_type(cur: &mut Cursor<'_>) -> Result<NodeType, ParseError> {
    // ntyp(ORDER, sum|mul) NAME [inherit PARENT] { attrs }
    cur.expect(&Tok::LParen)?;
    let order = match cur.next().tok {
        Tok::Number(x) if x >= 0.0 && x.fract() == 0.0 => x as usize,
        other => return Err(cur.error(format!("expected node order, found `{other}`"))),
    };
    cur.expect(&Tok::Comma)?;
    let reduction = if cur.eat_kw("sum") {
        Reduction::Sum
    } else if cur.eat_kw("mul") {
        Reduction::Mul
    } else {
        return Err(cur.error("expected `sum` or `mul`"));
    };
    cur.expect(&Tok::RParen)?;
    let name = cur.expect_ident()?;
    let mut nt = NodeType::new(name, order, reduction);
    if cur.eat_kw("inherit") || cur.eat_kw("inherits") {
        nt = nt.inherit(cur.expect_ident()?);
    }
    cur.expect(&Tok::LBrace)?;
    loop {
        eat_separators(cur);
        if cur.eat(&Tok::RBrace) {
            break;
        }
        if cur.eat_kw("attr") {
            let aname = cur.expect_ident()?;
            cur.expect(&Tok::Assign)?;
            let (ty, default) = sig_type(cur)?;
            nt.attrs.insert(aname, crate::lang::AttrDef { ty, default });
        } else if cur.eat_kw("init") || cur.eat_kw("init-val") {
            cur.expect(&Tok::LParen)?;
            let idx = match cur.next().tok {
                Tok::Number(x) if x >= 0.0 && x.fract() == 0.0 => x as usize,
                other => return Err(cur.error(format!("expected init index, found `{other}`"))),
            };
            cur.expect(&Tok::RParen)?;
            cur.expect(&Tok::Assign)?;
            let (ty, default) = sig_type(cur)?;
            if idx != nt.inits.len() {
                return Err(cur.error(format!(
                    "init({idx}) declared out of order; expected init({})",
                    nt.inits.len()
                )));
            }
            nt.inits.push(crate::lang::AttrDef { ty, default });
        } else {
            return Err(cur.error(format!(
                "expected `attr` or `init` in node type body, found `{}`",
                cur.peek().tok
            )));
        }
    }
    Ok(nt)
}

fn edge_type(cur: &mut Cursor<'_>) -> Result<EdgeType, ParseError> {
    // etyp [fixed] NAME [inherit PARENT] { attrs }
    let mut fixed = cur.eat_kw("fixed");
    let name = cur.expect_ident()?;
    // `etyp E fixed {}` also accepted (grammar writes the modifier after).
    fixed |= cur.eat_kw("fixed");
    let mut et = EdgeType::new(name);
    if fixed {
        et = et.fixed();
    }
    if cur.eat_kw("inherit") || cur.eat_kw("inherits") {
        et = et.inherit(cur.expect_ident()?);
    }
    cur.expect(&Tok::LBrace)?;
    loop {
        eat_separators(cur);
        if cur.eat(&Tok::RBrace) {
            break;
        }
        if cur.eat_kw("attr") {
            let aname = cur.expect_ident()?;
            cur.expect(&Tok::Assign)?;
            let (ty, default) = sig_type(cur)?;
            et.attrs.insert(aname, crate::lang::AttrDef { ty, default });
        } else {
            return Err(cur.error(format!(
                "expected `attr` in edge type body, found `{}`",
                cur.peek().tok
            )));
        }
    }
    Ok(et)
}

fn bound(cur: &mut Cursor<'_>) -> Result<f64, ParseError> {
    let neg = cur.eat(&Tok::Minus);
    let x = match cur.next().tok {
        Tok::Number(x) => x,
        Tok::Ident(ref s) if s == "inf" => f64::INFINITY,
        other => return Err(cur.error(format!("expected a bound, found `{other}`"))),
    };
    Ok(if neg { -x } else { x })
}

/// Parse a signal type with optional `mm(..)`, `const`, and `default v`
/// annotations. Returns the type and the default value (auto-defaulting
/// singleton ranges).
fn sig_type(cur: &mut Cursor<'_>) -> Result<(SigType, Option<Value>), ParseError> {
    let mut ty = if cur.eat_kw("real") {
        cur.expect(&Tok::LBracket)?;
        let lo = bound(cur)?;
        cur.expect(&Tok::Comma)?;
        let hi = bound(cur)?;
        cur.expect(&Tok::RBracket)?;
        SigType::real(lo, hi)
    } else if cur.eat_kw("int") {
        cur.expect(&Tok::LBracket)?;
        let lo = bound(cur)?;
        cur.expect(&Tok::Comma)?;
        let hi = bound(cur)?;
        cur.expect(&Tok::RBracket)?;
        SigType::int(lo as i64, hi as i64)
    } else if cur.eat_kw("lambd") || cur.eat_kw("fn") {
        cur.expect(&Tok::LParen)?;
        let mut arity = 0;
        if !cur.eat(&Tok::RParen) {
            loop {
                cur.expect_ident()?;
                arity += 1;
                if cur.eat(&Tok::RParen) {
                    break;
                }
                cur.expect(&Tok::Comma)?;
            }
        }
        SigType::lambda(arity)
    } else {
        return Err(cur.error(format!(
            "expected `real`, `int`, or `lambd`, found `{}`",
            cur.peek().tok
        )));
    };
    if cur.eat_kw("mm") {
        cur.expect(&Tok::LParen)?;
        let abs = bound(cur)?;
        cur.expect(&Tok::Comma)?;
        let rel = bound(cur)?;
        cur.expect(&Tok::RParen)?;
        ty = ty.with_mismatch(abs, rel);
    }
    if cur.eat_kw("const") {
        ty = ty.constant();
    }
    let mut default = None;
    if cur.eat_kw("default") {
        default = Some(match ty.kind {
            SigKind::Int => Value::Int(bound(cur)? as i64),
            SigKind::Real => Value::Real(bound(cur)?),
            SigKind::Lambda(_) => Value::Lambda(eparse::lambda(cur)?),
        });
    } else if matches!(ty.kind, SigKind::Real | SigKind::Int) && ty.lo == ty.hi && ty.lo.is_finite()
    {
        // Singleton ranges (e.g. `int[1,1]` cost tags) default automatically.
        default = Some(match ty.kind {
            SigKind::Int => Value::Int(ty.lo as i64),
            _ => Value::Real(ty.lo),
        });
    }
    Ok((ty, default))
}

fn prod_rule(cur: &mut Cursor<'_>) -> Result<ProdRule, ParseError> {
    // prod(e:ET, s:ST -> t:DT) v <= expr [off]
    cur.expect(&Tok::LParen)?;
    let edge_var = cur.expect_ident()?;
    cur.expect(&Tok::Colon)?;
    let edge_ty = cur.expect_ident()?;
    cur.expect(&Tok::Comma)?;
    let src_var = cur.expect_ident()?;
    cur.expect(&Tok::Colon)?;
    let src_ty = cur.expect_ident()?;
    cur.expect(&Tok::Arrow)?;
    let dst_var = cur.expect_ident()?;
    cur.expect(&Tok::Colon)?;
    let dst_ty = cur.expect_ident()?;
    cur.expect(&Tok::RParen)?;
    let target_var = cur.expect_ident()?;
    if target_var != src_var && target_var != dst_var {
        return Err(cur.error(format!(
            "production target `{target_var}` must be `{src_var}` or `{dst_var}`"
        )));
    }
    cur.expect(&Tok::Le)?;
    let expr = eparse::expr(cur)?;
    let mut rule = ProdRule::new(
        (&edge_var, &edge_ty),
        (&src_var, &src_ty),
        (&dst_var, &dst_ty),
        &target_var,
        expr,
    );
    if cur.eat_kw("off") {
        rule = rule.off();
    }
    Ok(rule)
}

fn vatom(cur: &mut Cursor<'_>) -> Result<(u64, bool), ParseError> {
    // Returns (value, is_inf).
    match cur.next().tok {
        Tok::Number(x) if x >= 0.0 && x.fract() == 0.0 => Ok((x as u64, false)),
        Tok::Ident(ref s) if s == "inf" => Ok((0, true)),
        other => Err(cur.error(format!("expected a cardinality or `inf`, found `{other}`"))),
    }
}

fn ident_list(cur: &mut Cursor<'_>) -> Result<Vec<String>, ParseError> {
    cur.expect(&Tok::LBracket)?;
    let mut out = Vec::new();
    if cur.eat(&Tok::RBracket) {
        return Ok(out);
    }
    loop {
        out.push(cur.expect_ident()?);
        if cur.eat(&Tok::RBracket) {
            return Ok(out);
        }
        cur.expect(&Tok::Comma)?;
    }
}

fn match_clause(cur: &mut Cursor<'_>, target_ty: &str) -> Result<MatchClause, ParseError> {
    // match(lo, hi, ET [, tail])
    cur.expect_kw("match")?;
    cur.expect(&Tok::LParen)?;
    let (lo, lo_inf) = vatom(cur)?;
    if lo_inf {
        return Err(cur.error("lower cardinality bound cannot be `inf`"));
    }
    cur.expect(&Tok::Comma)?;
    let (hi, hi_inf) = vatom(cur)?;
    let hi = if hi_inf { None } else { Some(hi) };
    cur.expect(&Tok::Comma)?;
    let edge_ty = cur.expect_ident()?;
    if cur.eat(&Tok::RParen) {
        // match(lo, hi, ET): self edges.
        return Ok(MatchClause {
            lo,
            hi,
            edge_ty,
            dir: crate::lang::MatchDir::SelfLoop,
        });
    }
    cur.expect(&Tok::Comma)?;
    // Tail: `vn -> [t*]`, `[t*] -> vn`, or `vn` (self).
    if cur.peek().tok == Tok::LBracket {
        let tys = ident_list(cur)?;
        cur.expect(&Tok::Arrow)?;
        let vn = cur.expect_ident()?;
        if vn != target_ty {
            return Err(cur.error(format!(
                "match clause must reference the constrained type `{target_ty}`, found `{vn}`"
            )));
        }
        cur.expect(&Tok::RParen)?;
        Ok(MatchClause {
            lo,
            hi,
            edge_ty,
            dir: crate::lang::MatchDir::Incoming(tys),
        })
    } else {
        let vn = cur.expect_ident()?;
        if vn != target_ty {
            return Err(cur.error(format!(
                "match clause must reference the constrained type `{target_ty}`, found `{vn}`"
            )));
        }
        if cur.eat(&Tok::RParen) {
            // match(lo, hi, ET, vn): self edges.
            return Ok(MatchClause {
                lo,
                hi,
                edge_ty,
                dir: crate::lang::MatchDir::SelfLoop,
            });
        }
        cur.expect(&Tok::Arrow)?;
        let tys = ident_list(cur)?;
        cur.expect(&Tok::RParen)?;
        Ok(MatchClause {
            lo,
            hi,
            edge_ty,
            dir: crate::lang::MatchDir::Outgoing(tys),
        })
    }
}

fn cstr_rule(cur: &mut Cursor<'_>) -> Result<ValidityRule, ParseError> {
    // cstr NT { acc [clauses] rej [clauses] ... }
    let node_ty = cur.expect_ident()?;
    let mut rule = ValidityRule::new(node_ty.clone());
    cur.expect(&Tok::LBrace)?;
    loop {
        eat_separators(cur);
        if cur.eat(&Tok::RBrace) {
            break;
        }
        let is_acc = if cur.eat_kw("acc") {
            true
        } else if cur.eat_kw("rej") {
            false
        } else {
            return Err(cur.error(format!(
                "expected `acc` or `rej`, found `{}`",
                cur.peek().tok
            )));
        };
        cur.expect(&Tok::LBracket)?;
        let mut clauses = Vec::new();
        if !cur.eat(&Tok::RBracket) {
            loop {
                clauses.push(match_clause(cur, &node_ty)?);
                if cur.eat(&Tok::RBracket) {
                    break;
                }
                cur.expect(&Tok::Comma)?;
            }
        }
        let pattern = Pattern::new(clauses);
        if is_acc {
            rule = rule.accept(pattern);
        } else {
            rule = rule.reject(pattern);
        }
    }
    Ok(rule)
}

fn func_val(cur: &mut Cursor<'_>) -> Result<FuncVal, ParseError> {
    match cur.peek().tok.clone() {
        Tok::Number(x) => {
            cur.next();
            Ok(FuncVal::Lit(Value::Real(x)))
        }
        Tok::Minus => {
            cur.next();
            match cur.next().tok {
                Tok::Number(x) => Ok(FuncVal::Lit(Value::Real(-x))),
                other => Err(cur.error(format!("expected a number after `-`, found `{other}`"))),
            }
        }
        Tok::Ident(ref s) if s == "lambd" => Ok(FuncVal::Lit(Value::Lambda(eparse::lambda(cur)?))),
        Tok::Ident(ref s) if s == "inf" => {
            cur.next();
            Ok(FuncVal::Lit(Value::Real(f64::INFINITY)))
        }
        Tok::Ident(name) => {
            cur.next();
            Ok(FuncVal::Arg(name))
        }
        other => Err(cur.error(format!("expected a value or argument, found `{other}`"))),
    }
}

fn func_def(cur: &mut Cursor<'_>) -> Result<FuncDef, ParseError> {
    let name = cur.expect_ident()?;
    cur.expect(&Tok::LParen)?;
    let mut args = Vec::new();
    if !cur.eat(&Tok::RParen) {
        loop {
            let an = cur.expect_ident()?;
            cur.expect(&Tok::Colon)?;
            let (ty, _default) = sig_type(cur)?;
            args.push((an, ty));
            if cur.eat(&Tok::RParen) {
                break;
            }
            cur.expect(&Tok::Comma)?;
        }
    }
    cur.expect_kw("uses")?;
    let lang = cur.expect_ident()?;
    cur.expect(&Tok::LBrace)?;
    let mut body = Vec::new();
    loop {
        eat_separators(cur);
        if cur.eat(&Tok::RBrace) {
            break;
        }
        if cur.eat_kw("node") {
            let n = cur.expect_ident()?;
            cur.expect(&Tok::Colon)?;
            let ty = cur.expect_ident()?;
            body.push(FuncStmt::Node { name: n, ty });
        } else if cur.eat_kw("edge") {
            cur.expect(&Tok::Lt)?;
            let src = cur.expect_ident()?;
            cur.expect(&Tok::Comma)?;
            let dst = cur.expect_ident()?;
            cur.expect(&Tok::Gt)?;
            let n = cur.expect_ident()?;
            cur.expect(&Tok::Colon)?;
            let ty = cur.expect_ident()?;
            body.push(FuncStmt::Edge {
                name: n,
                ty,
                src,
                dst,
            });
        } else if cur.eat_kw("set-attr") {
            let entity = cur.expect_ident()?;
            cur.expect(&Tok::Dot)?;
            let attr = cur.expect_ident()?;
            cur.expect(&Tok::Assign)?;
            let value = func_val(cur)?;
            body.push(FuncStmt::SetAttr {
                entity,
                attr,
                value,
            });
        } else if cur.eat_kw("set-init") {
            let node = cur.expect_ident()?;
            cur.expect(&Tok::LParen)?;
            let index = match cur.next().tok {
                Tok::Number(x) if x >= 0.0 && x.fract() == 0.0 => x as usize,
                other => return Err(cur.error(format!("expected init index, found `{other}`"))),
            };
            cur.expect(&Tok::RParen)?;
            cur.expect(&Tok::Assign)?;
            let value = func_val(cur)?;
            body.push(FuncStmt::SetInit { node, index, value });
        } else if cur.eat_kw("set-switch") || cur.eat_kw("set-edge") {
            let edge = cur.expect_ident()?;
            cur.expect_kw("when")?;
            let cond = eparse::bool_expr(cur)?;
            body.push(FuncStmt::SetSwitch { edge, cond });
        } else {
            return Err(cur.error(format!(
                "expected a function statement, found `{}`",
                cur.peek().tok
            )));
        }
    }
    Ok(FuncDef {
        name,
        args,
        lang,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::MatchDir;

    const TLN_SNIPPET: &str = r#"
lang tln {
    ntyp(1, sum) V {
        attr c = real[1e-10, 1e-08];
        attr g = real[0, inf];
        init(0) = real[-100, 100] default 0;
    };
    ntyp(0, sum) InpI { attr fn = fn(a0); attr g = real[0, inf]; };
    etyp E {};
    prod(e:E, s:V -> t:V) s <= -var(t)/s.c;
    prod(e:E, s:V -> s:V) s <= -s.g*var(s)/s.c;
    cstr V {
        acc [ match(0, inf, E, V->[V]), match(0, inf, E, [V, InpI]->V), match(1, 1, E, V) ]
    };
    extern-func connected;
}

func line(n: int[0, 8], bias: real[-1, 1]) uses tln {
    node A : V;
    node B : V;
    edge <A, B> e0 : E;
    edge <A, A> s0 : E;
    set-attr A.c = 1e-9;
    set-attr A.g = bias;
    set-init A(0) = 0.5;
    set-switch e0 when n > 0;
}
"#;

    #[test]
    fn parse_full_program() {
        let ast = parse_program(TLN_SNIPPET).unwrap();
        assert_eq!(ast.langs.len(), 1);
        assert_eq!(ast.funcs.len(), 1);
        let lang = &ast.langs[0];
        assert_eq!(lang.name, "tln");
        assert_eq!(lang.node_types.len(), 2);
        assert_eq!(lang.edge_types.len(), 1);
        assert_eq!(lang.prods.len(), 2);
        assert_eq!(lang.cstrs.len(), 1);
        assert_eq!(lang.externs, vec!["connected"]);
    }

    #[test]
    fn node_type_details() {
        let ast = parse_program(TLN_SNIPPET).unwrap();
        let v = &ast.langs[0].node_types[0];
        assert_eq!(v.name, "V");
        assert_eq!(v.order, 1);
        assert_eq!(v.reduction, Reduction::Sum);
        assert_eq!(v.attrs["c"].ty, SigType::real(1e-10, 1e-8));
        assert_eq!(v.attrs["g"].ty.hi, f64::INFINITY);
        assert_eq!(v.inits.len(), 1);
        assert_eq!(v.inits[0].default, Some(Value::Real(0.0)));
        // fn(a0) sugar for lambd.
        let inp = &ast.langs[0].node_types[1];
        assert_eq!(inp.attrs["fn"].ty.kind, SigKind::Lambda(1));
    }

    #[test]
    fn prod_rule_details() {
        let ast = parse_program(TLN_SNIPPET).unwrap();
        let p = &ast.langs[0].prods[0];
        assert_eq!(p.edge_ty, "E");
        assert_eq!(p.target, crate::lang::RuleTarget::Source);
        assert!(!p.is_self());
        let p2 = &ast.langs[0].prods[1];
        assert!(p2.is_self());
    }

    #[test]
    fn cstr_details() {
        let ast = parse_program(TLN_SNIPPET).unwrap();
        let c = &ast.langs[0].cstrs[0];
        assert_eq!(c.node_ty, "V");
        assert_eq!(c.accept.len(), 1);
        let clauses = &c.accept[0].clauses;
        assert_eq!(clauses.len(), 3);
        assert!(matches!(&clauses[0].dir, MatchDir::Outgoing(t) if t == &["V".to_string()]));
        assert!(matches!(&clauses[1].dir, MatchDir::Incoming(t) if t.len() == 2));
        assert!(matches!(&clauses[2].dir, MatchDir::SelfLoop));
        assert_eq!(clauses[2].lo, 1);
        assert_eq!(clauses[2].hi, Some(1));
        assert_eq!(clauses[0].hi, None); // inf
    }

    #[test]
    fn func_details() {
        let ast = parse_program(TLN_SNIPPET).unwrap();
        let f = &ast.funcs[0];
        assert_eq!(f.name, "line");
        assert_eq!(f.lang, "tln");
        assert_eq!(f.args.len(), 2);
        assert_eq!(f.args[0].1.kind, SigKind::Int);
        assert_eq!(f.body.len(), 8);
        assert!(matches!(&f.body[0], FuncStmt::Node { name, ty } if name == "A" && ty == "V"));
        assert!(matches!(
            &f.body[2],
            FuncStmt::Edge { name, src, dst, .. } if name == "e0" && src == "A" && dst == "B"
        ));
        assert!(matches!(
            &f.body[5],
            FuncStmt::SetAttr { value: FuncVal::Arg(a), .. } if a == "bias"
        ));
        assert!(matches!(&f.body[7], FuncStmt::SetSwitch { .. }));
    }

    #[test]
    fn inherits_clause() {
        let src = r#"
lang base { ntyp(0, sum) A {}; etyp E {}; }
lang derived inherits base { ntyp(0, sum) Am inherit A {}; }
"#;
        let ast = parse_program(src).unwrap();
        assert_eq!(ast.langs[1].inherits.as_deref(), Some("base"));
        assert_eq!(ast.langs[1].node_types[0].parent.as_deref(), Some("A"));
    }

    #[test]
    fn mismatch_and_const_annotations() {
        let src = r#"
lang hw {
    ntyp(1, sum) Vm {
        attr c = real[1e-10, 1e-08] mm(0, 0.1);
        attr r = real[0, 10] const default 1;
        init(0) = real[-1, 1] default 0;
    };
    etyp fixed F {};
    etyp Em { attr cost = int[1, 1]; };
}
"#;
        let ast = parse_program(src).unwrap();
        let vm = &ast.langs[0].node_types[0];
        let mm = vm.attrs["c"].ty.mismatch.unwrap();
        assert_eq!((mm.abs, mm.rel), (0.0, 0.1));
        assert!(vm.attrs["r"].ty.is_const);
        assert_eq!(vm.attrs["r"].default, Some(Value::Real(1.0)));
        assert!(ast.langs[0].edge_types[0].fixed);
        // int[1,1] auto-defaults to 1.
        assert_eq!(
            ast.langs[0].edge_types[1].attrs["cost"].default,
            Some(Value::Int(1))
        );
    }

    #[test]
    fn off_rule_parses() {
        let src = r#"
lang l {
    ntyp(1, sum) X { init(0) = real[-1,1] default 0; };
    etyp E {};
    prod(e:E, s:X -> t:X) t <= var(s);
    prod(e:E, s:X -> t:X) s <= -0.1*var(s) off;
}
"#;
        let ast = parse_program(src).unwrap();
        assert!(!ast.langs[0].prods[0].off);
        assert!(ast.langs[0].prods[1].off);
    }

    #[test]
    fn lambda_literal_in_func() {
        let src = r#"
lang l { ntyp(0, sum) Inp { attr fn = lambd(t); }; etyp E {}; }
func f() uses l {
    node i : Inp;
    set-attr i.fn = lambd(t): pulse(t, 0, 2e-8);
}
"#;
        let ast = parse_program(src).unwrap();
        assert!(matches!(
            &ast.funcs[0].body[1],
            FuncStmt::SetAttr {
                value: FuncVal::Lit(Value::Lambda(_)),
                ..
            }
        ));
    }

    #[test]
    fn bad_target_var_rejected() {
        let src = r#"
lang l {
    ntyp(0, sum) X {};
    etyp E {};
    prod(e:E, s:X -> t:X) q <= var(s);
}
"#;
        let err = parse_program(src).unwrap_err();
        assert!(err.message.contains("target"));
    }

    #[test]
    fn match_must_reference_target_type() {
        let src = r#"
lang l {
    ntyp(0, sum) X {};
    ntyp(0, sum) Y {};
    etyp E {};
    cstr X { acc [ match(0, inf, E, Y->[X]) ] };
}
"#;
        let err = parse_program(src).unwrap_err();
        assert!(err.message.contains("constrained type"));
    }

    #[test]
    fn error_position_is_reported() {
        let err = parse_program("lang l {\n  bogus\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
