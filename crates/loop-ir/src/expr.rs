//! Affine expressions over loop index variables.
//!
//! Array subscripts and loop bounds in the IR are *affine*: a sum of
//! `coefficient * loop_variable` terms plus an integer constant. Affinity is
//! what lets the false-sharing model compute, at compile time, exactly which
//! cache line a reference touches at a given iteration.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Identifier of a loop index variable.
///
/// `VarId(d)` refers to the variable introduced by the loop at depth `d`
/// within a [`crate::Kernel`] (outermost loop is depth 0). Evaluation
/// environments are plain slices indexed by this id, which keeps the
/// per-iteration hot path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An affine expression `c0 + c1*v1 + c2*v2 + ...`.
///
/// Terms are kept sorted by [`VarId`] with no zero coefficients and no
/// duplicate variables, so structural equality coincides with semantic
/// equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    terms: Vec<(VarId, i64)>,
    constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable `v`.
    pub fn var(v: VarId) -> Self {
        AffineExpr {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// Builds `coeff * v + constant`.
    pub fn linear(v: VarId, coeff: i64, constant: i64) -> Self {
        let mut e = AffineExpr {
            terms: vec![(v, coeff)],
            constant,
        };
        e.normalize();
        e
    }

    /// Builds an expression from raw parts; terms are normalized.
    pub fn from_terms(terms: Vec<(VarId, i64)>, constant: i64) -> Self {
        let mut e = AffineExpr { terms, constant };
        e.normalize();
        e
    }

    fn normalize(&mut self) {
        self.terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, i64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0);
        self.terms = out;
    }

    /// The constant component.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The (variable, coefficient) terms, sorted by variable.
    pub fn terms(&self) -> &[(VarId, i64)] {
        &self.terms
    }

    /// Coefficient of variable `v` (0 if absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms
            .iter()
            .find(|&&(tv, _)| tv == v)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// True if the expression has no variable terms.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the constant value if [`Self::is_const`].
    pub fn as_const(&self) -> Option<i64> {
        if self.is_const() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// True if the expression mentions variable `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.coeff(v) != 0
    }

    /// The largest [`VarId`] referenced, if any.
    pub fn max_var(&self) -> Option<VarId> {
        self.terms.last().map(|&(v, _)| v)
    }

    /// Evaluate under an environment mapping `VarId(i)` to `env[i]`.
    ///
    /// # Panics
    /// Panics if a referenced variable is out of range of `env`.
    #[inline]
    pub fn eval(&self, env: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * env[v.index()];
        }
        acc
    }

    /// Multiply by an integer scalar.
    pub fn scaled(&self, k: i64) -> Self {
        let mut e = AffineExpr {
            terms: self.terms.iter().map(|&(v, c)| (v, c * k)).collect(),
            constant: self.constant * k,
        };
        e.normalize();
        e
    }

    /// Substitute a constant value for variable `v`.
    pub fn substitute(&self, v: VarId, value: i64) -> Self {
        let mut constant = self.constant;
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(tv, c) in &self.terms {
            if tv == v {
                constant += c * value;
            } else {
                terms.push((tv, c));
            }
        }
        AffineExpr { terms, constant }
    }

    /// Render with variable names supplied by `names` (indexed by `VarId`).
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        DisplayWith { expr: self, names }
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl From<VarId> for AffineExpr {
    fn from(v: VarId) -> Self {
        AffineExpr::var(v)
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(self, rhs: AffineExpr) -> AffineExpr {
        let mut terms = self.terms;
        terms.extend(rhs.terms);
        AffineExpr::from_terms(terms, self.constant + rhs.constant)
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + rhs.neg()
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(self, k: i64) -> AffineExpr {
        self.scaled(k)
    }
}

struct DisplayWith<'a> {
    expr: &'a AffineExpr,
    names: &'a [String],
}

impl fmt::Display for DisplayWith<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.expr;
        if e.terms.is_empty() {
            return write!(f, "{}", e.constant);
        }
        let mut first = true;
        for &(v, c) in &e.terms {
            let name = self.names.get(v.index()).map(|s| s.as_str()).unwrap_or("?");
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else if c < 0 {
                if c == -1 {
                    write!(f, " - {name}")?;
                } else {
                    write!(f, " - {}*{name}", -c)?;
                }
            } else if c == 1 {
                write!(f, " + {name}")?;
            } else {
                write!(f, " + {c}*{name}")?;
            }
        }
        if e.constant > 0 {
            write!(f, " + {}", e.constant)?;
        } else if e.constant < 0 {
            write!(f, " - {}", -e.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn normalization_merges_and_drops_zeros() {
        let e = AffineExpr::from_terms(vec![(v(1), 2), (v(0), 3), (v(1), -2)], 5);
        assert_eq!(e.terms(), &[(v(0), 3)]);
        assert_eq!(e.constant_part(), 5);
    }

    #[test]
    fn eval_matches_definition() {
        // 2*i - 3*j + 7 at i=4, j=2 => 8 - 6 + 7 = 9
        let e = AffineExpr::from_terms(vec![(v(0), 2), (v(1), -3)], 7);
        assert_eq!(e.eval(&[4, 2]), 9);
    }

    #[test]
    fn arithmetic_ops() {
        let i = AffineExpr::var(v(0));
        let j = AffineExpr::var(v(1));
        let e = i.clone() * 2 + j.clone() - AffineExpr::constant(1);
        assert_eq!(e.eval(&[3, 10]), 15);
        let cancelled = e.clone() - e;
        assert!(cancelled.is_const());
        assert_eq!(cancelled.as_const(), Some(0));
    }

    #[test]
    fn substitute_removes_var() {
        let e = AffineExpr::from_terms(vec![(v(0), 2), (v(1), 1)], 1);
        let s = e.substitute(v(0), 10);
        assert_eq!(s.terms(), &[(v(1), 1)]);
        assert_eq!(s.constant_part(), 21);
        assert!(!s.uses_var(v(0)));
    }

    #[test]
    fn display_is_readable() {
        let names = vec!["i".to_string(), "j".to_string()];
        let e = AffineExpr::from_terms(vec![(v(0), 1), (v(1), -2)], 3);
        assert_eq!(format!("{}", e.display_with(&names)), "i - 2*j + 3");
        let c = AffineExpr::constant(-4);
        assert_eq!(format!("{}", c.display_with(&names)), "-4");
    }

    #[test]
    fn coeff_and_max_var() {
        let e = AffineExpr::from_terms(vec![(v(2), 5), (v(0), 1)], 0);
        assert_eq!(e.coeff(v(2)), 5);
        assert_eq!(e.coeff(v(1)), 0);
        assert_eq!(e.max_var(), Some(v(2)));
        assert_eq!(AffineExpr::constant(3).max_var(), None);
    }
}
