//! Recursive-descent parser lowering DSL source to [`Kernel`].

use super::lexer::{lex, LexError, Token, TokenKind};
use crate::array::{ArrayDecl, ArrayId, ElemLayout, FieldDef};
use crate::expr::{AffineExpr, VarId};
use crate::kernel::Kernel;
use crate::nest::{Loop, LoopNest, Parallel, Schedule};
use crate::reference::{AccessKind, ArrayRef, SourceSpan};
use crate::stmt::{AssignOp, BinOp, Expr, Stmt, UnOp};
use crate::types::ScalarType;
use crate::validate::{validate, ValidateError};
use std::collections::HashMap;
use std::fmt;

/// A parse (or post-parse validation) error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// Display adapter prefixing the error with a file name, in the
    /// `file:line:col: message` shape editors and CI annotators parse:
    /// `kernels/stencil.loop:3:5: parse error: unknown array 'c'`.
    pub fn with_source_name<'a>(&'a self, name: &'a str) -> SourceNamed<'a> {
        SourceNamed {
            name,
            line: self.line,
            col: self.col,
            kind: "parse error",
            message: &self.message,
        }
    }
}

impl LexError {
    /// Display adapter prefixing the error with a file name (see
    /// [`ParseError::with_source_name`]).
    pub fn with_source_name<'a>(&'a self, name: &'a str) -> SourceNamed<'a> {
        SourceNamed {
            name,
            line: self.line,
            col: self.col,
            kind: "lex error",
            message: &self.message,
        }
    }
}

/// See [`ParseError::with_source_name`].
#[derive(Debug, Clone, Copy)]
pub struct SourceNamed<'a> {
    name: &'a str,
    line: u32,
    col: u32,
    kind: &'static str,
    message: &'a str,
}

impl fmt::Display for SourceNamed<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.name, self.line, self.col, self.kind, self.message
        )
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parse DSL source into a validated [`Kernel`].
pub fn parse_kernel(src: &str) -> Result<Kernel, ParseError> {
    parse_kernel_with_consts(src, &[])
}

/// Parse with externally supplied `const` overrides: any `const NAME = ...;`
/// in the source whose name appears in `consts` takes the supplied value
/// instead. Names not declared in the source are also made visible. This is
/// how the experiment harness scales a kernel without editing its source.
pub fn parse_kernel_with_consts(src: &str, consts: &[(&str, i64)]) -> Result<Kernel, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        consts: consts.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        overridden: consts.iter().map(|&(n, _)| n.to_string()).collect(),
        vars: Vec::new(),
        arrays: Vec::new(),
        array_ids: HashMap::new(),
        parallel: None,
    };
    let kernel = p.kernel()?;
    validate(&kernel).map_err(|e: ValidateError| ParseError {
        message: e.to_string(),
        line: 1,
        col: 1,
    })?;
    Ok(kernel)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    consts: HashMap<String, i64>,
    overridden: Vec<String>,
    vars: Vec<String>,
    arrays: Vec<ArrayDecl>,
    array_ids: HashMap<String, ArrayId>,
    parallel: Option<Parallel>,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            message: msg.into(),
            line: t.line,
            col: t.col,
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(s) => Ok(s),
                    _ => unreachable!(),
                }
            }
            other => Err(self.err_here(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err_here(format!("expected '{kw}', found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            ref other => Err(self.err_here(format!("expected integer, found {other}"))),
        }
    }

    fn kernel(&mut self) -> Result<Kernel, ParseError> {
        self.expect_keyword("kernel")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        // Declarations.
        loop {
            if self.at_keyword("const") {
                self.const_decl()?;
            } else if self.at_keyword("array") {
                self.array_decl()?;
            } else {
                break;
            }
        }
        // The loop nest.
        let (loops, body) = self.loop_nest()?;
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Eof)?;
        let parallel = self
            .parallel
            .ok_or_else(|| self.err_here("kernel has no parallel loop"))?;
        Ok(Kernel {
            name,
            vars: std::mem::take(&mut self.vars),
            arrays: std::mem::take(&mut self.arrays),
            nest: LoopNest {
                loops,
                body,
                parallel,
            },
        })
    }

    fn const_decl(&mut self) -> Result<(), ParseError> {
        self.expect_keyword("const")?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Eq)?;
        let value = self.const_affine()?;
        self.expect(&TokenKind::Semi)?;
        if !self.overridden.contains(&name) && self.consts.insert(name.clone(), value).is_some() {
            return Err(self.err_here(format!("duplicate const '{name}'")));
        }
        Ok(())
    }

    /// An affine expression that must fold to a constant (no loop vars in
    /// scope yet, or none referenced).
    fn const_affine(&mut self) -> Result<i64, ParseError> {
        let e = self.affine_expr()?;
        e.as_const()
            .ok_or_else(|| self.err_here("expression must be a compile-time constant"))
    }

    fn array_decl(&mut self) -> Result<(), ParseError> {
        self.expect_keyword("array")?;
        let name = self.expect_ident()?;
        let mut dims = Vec::new();
        while self.peek().kind == TokenKind::LBracket {
            self.bump();
            let d = self.const_affine()?;
            if d <= 0 {
                return Err(self.err_here(format!("array dimension must be positive, got {d}")));
            }
            dims.push(d as u64);
            self.expect(&TokenKind::RBracket)?;
        }
        if dims.is_empty() {
            return Err(self.err_here(format!("array '{name}' needs at least one dimension")));
        }
        let elem = if self.peek().kind == TokenKind::Colon {
            self.bump();
            let ty = self.scalar_type()?;
            ElemLayout::Scalar(ty)
        } else if self.at_keyword("of") {
            self.bump();
            self.expect(&TokenKind::LBrace)?;
            let mut fields = Vec::new();
            let mut offset = 0usize;
            loop {
                let fname = self.expect_ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.scalar_type()?;
                if fields.iter().any(|f: &FieldDef| f.name == fname) {
                    return Err(self.err_here(format!("duplicate field '{fname}'")));
                }
                fields.push(FieldDef {
                    name: fname,
                    offset,
                    ty,
                });
                offset += ty.size_bytes();
                if self.peek().kind == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RBrace)?;
            let mut size = offset;
            if self.at_keyword("pad") {
                self.bump();
                let padded = self.expect_int()?;
                if (padded as usize) < size {
                    return Err(
                        self.err_here(format!("pad {padded} smaller than packed size {size}"))
                    );
                }
                size = padded as usize;
            }
            ElemLayout::Struct { size, fields }
        } else {
            return Err(self.err_here("expected ':' type or 'of { fields }' in array declaration"));
        };
        self.expect(&TokenKind::Semi)?;
        if self.array_ids.contains_key(&name) {
            return Err(self.err_here(format!("duplicate array '{name}'")));
        }
        let id = ArrayId(self.arrays.len() as u32);
        self.array_ids.insert(name.clone(), id);
        self.arrays.push(ArrayDecl { name, dims, elem });
        Ok(())
    }

    fn scalar_type(&mut self) -> Result<ScalarType, ParseError> {
        let name = self.expect_ident()?;
        ScalarType::from_keyword(&name)
            .ok_or_else(|| self.err_here(format!("unknown scalar type '{name}'")))
    }

    /// Parse the (perfect) loop nest: one loop, whose body is either another
    /// loop or a non-empty statement list.
    fn loop_nest(&mut self) -> Result<(Vec<Loop>, Vec<Stmt>), ParseError> {
        let mut loops = Vec::new();
        let body = self.parse_loop(&mut loops)?;
        Ok((loops, body))
    }

    fn parse_loop(&mut self, loops: &mut Vec<Loop>) -> Result<Vec<Stmt>, ParseError> {
        let is_parallel = if self.at_keyword("parallel") {
            self.bump();
            true
        } else {
            false
        };
        self.expect_keyword("for")?;
        let var_name = self.expect_ident()?;
        if self.vars.contains(&var_name) || self.consts.contains_key(&var_name) {
            return Err(self.err_here(format!(
                "loop variable '{var_name}' shadows an existing name"
            )));
        }
        let var = VarId(self.vars.len() as u32);
        self.vars.push(var_name);
        self.expect_keyword("in")?;
        let lower = self.affine_expr()?;
        self.expect(&TokenKind::DotDot)?;
        let upper = self.affine_expr()?;
        let mut step = 1;
        if self.at_keyword("step") {
            self.bump();
            step = self.expect_int()?;
        }
        if is_parallel {
            if self.parallel.is_some() {
                return Err(self.err_here("only one parallel loop is allowed"));
            }
            self.expect_keyword("schedule")?;
            self.expect(&TokenKind::LParen)?;
            self.expect_keyword("static")?;
            self.expect(&TokenKind::Comma)?;
            let chunk = self.expect_int()?;
            if chunk <= 0 {
                return Err(self.err_here("chunk size must be >= 1"));
            }
            self.expect(&TokenKind::RParen)?;
            self.parallel = Some(Parallel {
                level: loops.len(),
                schedule: Schedule::Static {
                    chunk: chunk as u64,
                },
            });
        } else if self.at_keyword("schedule") {
            return Err(self.err_here("schedule(...) is only valid on a 'parallel for' loop"));
        }
        loops.push(Loop {
            var,
            lower,
            upper,
            step,
        });
        self.expect(&TokenKind::LBrace)?;
        let body = if self.at_keyword("for") || self.at_keyword("parallel") {
            let body = self.parse_loop(loops)?;
            self.expect(&TokenKind::RBrace)?;
            body
        } else {
            let mut stmts = Vec::new();
            while self.peek().kind != TokenKind::RBrace {
                stmts.push(self.statement()?);
            }
            if stmts.is_empty() {
                return Err(self.err_here("loop body is empty"));
            }
            self.expect(&TokenKind::RBrace)?;
            stmts
        };
        Ok(body)
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.array_ref(AccessKind::Write)?;
        let op = match self.peek().kind {
            TokenKind::Eq => AssignOp::Assign,
            TokenKind::PlusEq => AssignOp::AddAssign,
            TokenKind::MinusEq => AssignOp::SubAssign,
            TokenKind::StarEq => AssignOp::MulAssign,
            ref other => {
                return Err(self.err_here(format!("expected assignment operator, found {other}")))
            }
        };
        self.bump();
        let rhs = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt { lhs, op, rhs })
    }

    fn array_ref(&mut self, access: AccessKind) -> Result<ArrayRef, ParseError> {
        // Span = position of the array identifier that opens the reference.
        let span = SourceSpan::new(self.peek().line, self.peek().col);
        let name = self.expect_ident()?;
        let &id = self
            .array_ids
            .get(&name)
            .ok_or_else(|| self.err_here(format!("unknown array '{name}'")))?;
        let mut indices = Vec::new();
        while self.peek().kind == TokenKind::LBracket {
            self.bump();
            indices.push(self.affine_expr()?);
            self.expect(&TokenKind::RBracket)?;
        }
        let rank = self.arrays[id.index()].dims.len();
        if indices.len() != rank {
            return Err(self.err_here(format!(
                "array '{name}' has rank {rank} but subscript has {} indices",
                indices.len()
            )));
        }
        let mut field = None;
        if self.peek().kind == TokenKind::Dot {
            self.bump();
            let fname = self.expect_ident()?;
            let found = self.arrays[id.index()]
                .elem
                .field_named(&fname)
                .map(|(fid, _)| fid);
            let fid = found
                .ok_or_else(|| self.err_here(format!("array '{name}' has no field '{fname}'")))?;
            field = Some(fid);
        }
        Ok(ArrayRef {
            array: id,
            indices,
            field,
            access,
            span: Some(span),
        })
    }

    // ---- affine expression grammar (loop bounds, subscripts) ----

    /// `e * k`, or an error where a coefficient leaves `i64`.
    fn checked_scale(&self, e: &AffineExpr, k: i64) -> Result<AffineExpr, ParseError> {
        let terms: Option<Vec<_>> = e
            .terms()
            .iter()
            .map(|&(v, c)| Some((v, c.checked_mul(k)?)))
            .collect();
        match (terms, e.constant_part().checked_mul(k)) {
            (Some(terms), Some(constant)) => Ok(AffineExpr::from_terms(terms, constant)),
            _ => Err(self.err_here("integer overflow in affine expression")),
        }
    }

    /// `a + b`, or an error where a coefficient leaves `i64`.
    fn checked_sum(&self, a: &AffineExpr, b: &AffineExpr) -> Result<AffineExpr, ParseError> {
        let overflow = || self.err_here("integer overflow in affine expression");
        let mut terms = a.terms().to_vec();
        for &(v, c) in b.terms() {
            match terms.iter_mut().find(|(tv, _)| *tv == v) {
                Some((_, tc)) => *tc = tc.checked_add(c).ok_or_else(overflow)?,
                None => terms.push((v, c)),
            }
        }
        let constant = a.constant_part().checked_add(b.constant_part());
        Ok(AffineExpr::from_terms(
            terms,
            constant.ok_or_else(overflow)?,
        ))
    }

    fn affine_expr(&mut self) -> Result<AffineExpr, ParseError> {
        let mut acc = self.affine_term()?;
        loop {
            let sign = match self.peek().kind {
                TokenKind::Plus => 1,
                TokenKind::Minus => -1,
                _ => return Ok(acc),
            };
            self.bump();
            let term = self.affine_term()?;
            let term = self.checked_scale(&term, sign)?;
            acc = self.checked_sum(&acc, &term)?;
        }
    }

    fn affine_term(&mut self) -> Result<AffineExpr, ParseError> {
        let mut acc = self.affine_factor()?;
        while self.peek().kind == TokenKind::Star {
            self.bump();
            let rhs = self.affine_factor()?;
            acc = match (acc.as_const(), rhs.as_const()) {
                (_, Some(k)) => self.checked_scale(&acc, k)?,
                (Some(k), _) => self.checked_scale(&rhs, k)?,
                (None, None) => {
                    return Err(self.err_here(
                        "non-affine subscript: product of two loop-variable expressions",
                    ))
                }
            };
        }
        Ok(acc)
    }

    fn affine_factor(&mut self) -> Result<AffineExpr, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(AffineExpr::constant(v))
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.affine_factor()?;
                self.checked_scale(&e, -1)
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.affine_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if let Some(&v) = self.consts.get(&name) {
                    self.bump();
                    Ok(AffineExpr::constant(v))
                } else if let Some(idx) = self.vars.iter().position(|v| *v == name) {
                    self.bump();
                    Ok(AffineExpr::var(VarId(idx as u32)))
                } else {
                    Err(self.err_here(format!(
                        "unknown name '{name}' in index expression (not a const or in-scope loop variable)"
                    )))
                }
            }
            other => Err(self.err_here(format!(
                "expected integer, const, loop variable or '(' in index expression, found {other}"
            ))),
        }
    }

    // ---- statement RHS expression grammar ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.term()?;
        loop {
            match self.peek().kind {
                TokenKind::Plus => {
                    self.bump();
                    acc = Expr::Binary(BinOp::Add, Box::new(acc), Box::new(self.term()?));
                }
                TokenKind::Minus => {
                    self.bump();
                    acc = Expr::Binary(BinOp::Sub, Box::new(acc), Box::new(self.term()?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.factor()?;
        loop {
            match self.peek().kind {
                TokenKind::Star => {
                    self.bump();
                    acc = Expr::Binary(BinOp::Mul, Box::new(acc), Box::new(self.factor()?));
                }
                TokenKind::Slash => {
                    self.bump();
                    acc = Expr::Binary(BinOp::Div, Box::new(acc), Box::new(self.factor()?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Num(v))
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Num(v as f64))
            }
            TokenKind::Minus => {
                self.bump();
                let inner = self.factor()?;
                // Fold negation of literals so `-(1.5)` round-trips as a number.
                if let Expr::Num(v) = inner {
                    Ok(Expr::Num(-v))
                } else {
                    Ok(Expr::Unary(UnOp::Neg, Box::new(inner)))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) if name == "sqrt" || name == "sincos" => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let op = if name == "sqrt" {
                    UnOp::Sqrt
                } else {
                    UnOp::SinCos
                };
                Ok(Expr::Unary(op, Box::new(inner)))
            }
            TokenKind::Ident(name) => {
                if self.array_ids.contains_key(&name) {
                    Ok(Expr::Ref(self.array_ref(AccessKind::Read)?))
                } else {
                    Err(self.err_here(format!(
                        "unknown name '{name}' in expression (arrays must be declared; \
                         loop variables cannot be used as values)"
                    )))
                }
            }
            other => Err(self.err_here(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Kernel {
        parse_kernel(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
    }

    #[test]
    fn parses_nested_loops_with_schedule() {
        let k = parse(
            "kernel heat {
                const N = 32;
                array A[N][N]: f64;
                array B[N][N]: f64;
                for i in 1..N-1 {
                    parallel for j in 1..N-1 schedule(static, 4) {
                        B[i][j] = 0.25 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
                    }
                }
            }",
        );
        assert_eq!(k.nest.depth(), 2);
        assert_eq!(k.nest.parallel.level, 1);
        assert_eq!(k.nest.parallel.schedule, Schedule::Static { chunk: 4 });
        assert_eq!(k.nest.loops[0].lower.as_const(), Some(1));
        assert_eq!(k.nest.loops[0].upper.as_const(), Some(31));
    }

    #[test]
    fn parses_struct_arrays_and_fields() {
        let k = parse(
            "kernel lr {
                array acc[64] of { sx: f64, sy: f64 } pad 64;
                array p[64][128] of { x: f64, y: f64 };
                parallel for j in 0..64 schedule(static, 1) {
                    for i in 0..128 {
                        acc[j].sx += p[j][i].x;
                        acc[j].sy += p[j][i].y * 2.0;
                    }
                }
            }",
        );
        assert_eq!(k.arrays[0].elem.size_bytes(), 64);
        assert_eq!(k.arrays[1].elem.size_bytes(), 16);
        assert_eq!(k.nest.body.len(), 2);
        assert_eq!(k.nest.body[0].op, AssignOp::AddAssign);
        assert!(k.nest.body[0].lhs.field.is_some());
    }

    #[test]
    fn affine_subscripts_with_scaling() {
        let k = parse(
            "kernel s {
                const T = 4; const L = 16;
                array x[64]: f64;
                array p[T]: f64;
                parallel for t in 0..T schedule(static, 1) {
                    for i in 0..L {
                        p[t] += x[t*L + i] + x[L*t + i];
                    }
                }
            }",
        );
        let reads: Vec<_> = {
            let mut v = Vec::new();
            k.nest.body[0].rhs.collect_reads(&mut v);
            v.into_iter().cloned().collect::<Vec<_>>()
        };
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].indices[0], reads[1].indices[0], "t*L == L*t");
        assert_eq!(reads[0].indices[0].coeff(VarId(0)), 16);
    }

    #[test]
    fn rejects_nonaffine_subscript() {
        let e = parse_kernel(
            "kernel s { array x[64][64]: f64;
              parallel for i in 0..8 schedule(static, 1) {
                for j in 0..8 { x[i*j][0] = 1.0; } } }",
        )
        .unwrap_err();
        assert!(e.message.contains("non-affine"), "{e}");
    }

    #[test]
    fn rejects_two_parallel_loops() {
        let e = parse_kernel(
            "kernel s { array x[8][8]: f64;
              parallel for i in 0..8 schedule(static, 1) {
                parallel for j in 0..8 schedule(static, 1) { x[i][j] = 1.0; } } }",
        )
        .unwrap_err();
        assert!(e.message.contains("one parallel loop"), "{e}");
    }

    #[test]
    fn rejects_missing_schedule() {
        let e = parse_kernel(
            "kernel s { array x[8]: f64;
              parallel for i in 0..8 { x[i] = 1.0; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("schedule"), "{e}");
    }

    #[test]
    fn rejects_rank_mismatch_at_parse_time() {
        let e = parse_kernel(
            "kernel s { array x[8][8]: f64;
              parallel for i in 0..8 schedule(static, 1) { x[i] = 1.0; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("rank"), "{e}");
    }

    #[test]
    fn rejects_unknown_field() {
        let e = parse_kernel(
            "kernel s { array x[8] of { a: f64 };
              parallel for i in 0..8 schedule(static, 1) { x[i].b = 1.0; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("no field 'b'"), "{e}");
    }

    #[test]
    fn rejects_kernel_without_parallel_loop() {
        let e = parse_kernel(
            "kernel s { array x[8]: f64;
              for i in 0..8 { x[i] = 1.0; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("no parallel loop"), "{e}");
    }

    #[test]
    fn step_and_sequential_loops() {
        let k = parse(
            "kernel s { array x[64]: f64;
              parallel for i in 0..64 step 2 schedule(static, 1) { x[i] = 1.0; } }",
        );
        assert_eq!(k.nest.loops[0].step, 2);
        assert_eq!(k.nest.parallel_trip_count(), Some(32));
    }

    #[test]
    fn error_positions_point_at_problem() {
        let e = parse_kernel("kernel s {\n  array x[0]: f64;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn sqrt_and_division_parse() {
        let k = parse(
            "kernel s { array x[8]: f64; array y[8]: f64;
              parallel for i in 0..8 schedule(static, 1) {
                y[i] = sqrt(x[i]) / (x[i] + 1.0);
              } }",
        );
        match &k.nest.body[0].rhs {
            Expr::Binary(BinOp::Div, a, _) => {
                assert!(matches!(**a, Expr::Unary(UnOp::Sqrt, _)));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn negative_literal_folds() {
        let k = parse(
            "kernel s { array x[8]: f64;
              parallel for i in 0..8 schedule(static, 1) { x[i] = -(1.5) + 2.0; } }",
        );
        match &k.nest.body[0].rhs {
            Expr::Binary(BinOp::Add, a, _) => assert_eq!(**a, Expr::Num(-1.5)),
            other => panic!("unexpected tree: {other:?}"),
        }
    }
}
