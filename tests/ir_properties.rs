//! Property tests on two building blocks, through their public API: affine
//! subscript arithmetic (`loop_ir::AffineExpr`) and cache-geometry math
//! (`machine::CacheHierarchy`, `machine::CacheLevel`).

mod common;

use common::{cases, Rng};
use loop_ir::{AffineExpr, VarId};
use machine::{Associativity, CacheHierarchy, CacheLevel};

/// Up to 5 terms over 6 variables, coefficients in -50..50, constant in
/// -1000..1000.
fn expr(rng: &mut Rng) -> AffineExpr {
    let terms = (0..rng.int(0..=5))
        .map(|_| (VarId(rng.int(0..=5)), rng.int(-50..=49)))
        .collect();
    AffineExpr::from_terms(terms, rng.int(-1000..=999))
}

/// Structural equality after normalization implies evaluation equality,
/// and arithmetic commutes with evaluation.
#[test]
fn eval_homomorphism() {
    cases("eval_homomorphism", 64, |rng| {
        let (a, b) = (expr(rng), expr(rng));
        let env: Vec<i64> = (0..6).map(|_| rng.int(-100..=99)).collect();
        let sum = a.clone() + b.clone();
        assert_eq!(sum.eval(&env), a.eval(&env) + b.eval(&env));
        let diff = a.clone() - b.clone();
        assert_eq!(diff.eval(&env), a.eval(&env) - b.eval(&env));
        assert_eq!((a.clone() * 3).eval(&env), 3 * a.eval(&env));
    });
}

/// Addition is commutative and associative structurally (thanks to
/// normalization), not just semantically.
#[test]
fn addition_laws() {
    cases("addition_laws", 64, |rng| {
        let (a, b, c) = (expr(rng), expr(rng), expr(rng));
        assert_eq!(a.clone() + b.clone(), b.clone() + a.clone());
        assert_eq!(
            (a.clone() + b.clone()) + c.clone(),
            a.clone() + (b.clone() + c.clone())
        );
        assert_eq!(a.clone() + AffineExpr::constant(0), a);
    });
}

/// x - x = 0 and substitution removes the variable.
#[test]
fn cancellation_and_substitution() {
    cases("cancellation_and_substitution", 64, |rng| {
        let a = expr(rng);
        let (v, val) = (rng.int(0..=5), rng.int(-100..=99));
        assert_eq!((a.clone() - a.clone()).as_const(), Some(0));
        let s = a.substitute(VarId(v), val);
        assert!(!s.uses_var(VarId(v)));
        // Substitution agrees with evaluation.
        let mut env = vec![7i64; 6];
        env[v as usize] = val;
        assert_eq!(s.eval(&env), a.eval(&env));
    });
}

/// display_with -> DSL affine parser round trip.
#[test]
fn display_reparses() {
    let names: Vec<String> = (0..6).map(|i| format!("v{i}")).collect();
    cases("display_reparses", 64, |rng| {
        let a = expr(rng);
        let shown = format!("{}", a.display_with(&names));
        // Parse through a tiny kernel whose subscript is `shown`.
        let src = format!(
            "kernel k {{ array x[1000000]: f64;
               parallel for v0 in 0..2 schedule(static, 1) {{
               for v1 in 0..2 {{ for v2 in 0..2 {{ for v3 in 0..2 {{
               for v4 in 0..2 {{ for v5 in 0..2 {{
                 x[({shown}) + 500000] = 1.0;
               }} }} }} }} }} }} }}"
        );
        let k = loop_ir::dsl::parse_kernel(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_eq!(
            k.nest.body[0].lhs.indices[0],
            a + AffineExpr::constant(500000)
        );
    });
}

fn level(size_bytes: u64, associativity: Associativity) -> CacheLevel {
    CacheLevel {
        name: "L".into(),
        size_bytes,
        associativity,
        hit_latency: 1,
        shared: false,
    }
}

/// lines_touched is consistent with per-byte line membership.
#[test]
fn lines_touched_matches_bytewise() {
    let h = CacheHierarchy {
        line_size: 64,
        levels: vec![level(4096, Associativity::Full)],
        shared_cluster_size: 1,
        memory_latency: 100,
    };
    cases("lines_touched_matches_bytewise", 64, |rng| {
        let (addr, size) = (rng.int(0..=99_999), rng.int(1..=299));
        let distinct: std::collections::HashSet<u64> =
            (addr..addr + size).map(|b| h.line_of(b)).collect();
        assert_eq!(h.lines_touched(addr, size), distinct.len() as u64);
    });
}

/// Set geometry conserves capacity: sets x ways == lines, for any
/// capacity of at most 512 KiB that the ways divide.
#[test]
fn set_geometry_conserves_lines() {
    cases("set_geometry_conserves_lines", 64, |rng| {
        let ways: u32 = rng.int(1..=31);
        let lines = ways as u64 * rng.int(1..=8192 / ways as u64);
        let l = level(lines * 64, Associativity::SetAssoc { ways });
        assert_eq!(l.num_sets(64) * l.ways(64), l.num_lines(64));
    });
}
