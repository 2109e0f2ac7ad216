//! `loop_ir::validate` coverage:
//!
//! * a property test that everything `parse_kernel` produces from the
//!   bundled corpus — under random const overrides and chunk rewrites —
//!   passes structural validation (the parser's output is validate-clean by
//!   construction), and
//! * a table-driven test constructing one rejected kernel per
//!   `ValidateError` variant, checking both the variant and its rendering.

use fs_core::kernels;
use loop_ir::{
    validate, validate_bounds, AffineExpr, ArrayRef, Expr, KernelBuilder, ScalarType, Schedule,
    Stmt, ValidateError, VarId,
};

mod common;

use common::cases;

/// Parser output is always structurally valid: any corpus kernel, any
/// `N` override, any chunk size.
#[test]
fn parse_kernel_output_always_validates() {
    cases("parse_kernel_output_always_validates", 128, |rng| {
        let entry = rng.pick(fs_core::CORPUS);
        let n: i64 = rng.int(8..=256);
        let chunk = rng.int(1..=64);
        let k = fs_core::parse_kernel_with_consts(entry.source, &[("N", n)])
            .unwrap_or_else(|e| panic!("@{}: {e}", entry.name));
        assert_eq!(
            validate(&k),
            Ok(()),
            "@{} N={n} parses but fails validate",
            entry.name
        );
        let rechunked = fs_core::kernel_at_chunk(&k, chunk);
        assert_eq!(
            validate(&rechunked),
            Ok(()),
            "@{} chunk={chunk}",
            entry.name
        );
        // Round-trip through the printer stays valid too.
        let back = fs_core::parse_kernel(&loop_ir::pretty::kernel_to_dsl(&k)).unwrap();
        assert_eq!(validate(&back), Ok(()));
    });
}

#[test]
fn corpus_defaults_pass_the_bounds_walk() {
    // The dynamic O(iterations) check, on the corpus at stock sizes.
    for entry in fs_core::CORPUS {
        let k = fs_core::parse_kernel(entry.source).unwrap();
        assert_eq!(validate_bounds(&k), Ok(()), "@{}", entry.name);
    }
    for k in kernels::all_kernels_small() {
        assert_eq!(validate_bounds(&k), Ok(()), "{}", k.name);
    }
}

fn base_kernel() -> loop_ir::Kernel {
    let mut b = KernelBuilder::new("t");
    let i = b.loop_var("i");
    let a = b.array("A", &[16], ScalarType::F64);
    b.parallel_for(i, 0, 16, Schedule::Static { chunk: 2 });
    b.stmt(Stmt::assign(
        ArrayRef::write(a, vec![b.idx(i)]),
        Expr::num(1.0),
    ));
    b.build()
}

/// One row per `ValidateError` variant: (name, kernel mutation, expected).
#[test]
fn every_validate_error_variant_is_reachable() {
    type Case = (
        &'static str,
        Box<dyn Fn() -> loop_ir::Kernel>,
        fn(&ValidateError) -> bool,
    );
    let cases: Vec<Case> = vec![
        (
            "NoLoops",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.loops.clear();
                k
            }),
            |e| matches!(e, ValidateError::NoLoops),
        ),
        (
            "EmptyBody",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.body.clear();
                k
            }),
            |e| matches!(e, ValidateError::EmptyBody),
        ),
        (
            "BadParallelLevel",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.parallel.level = 3;
                k
            }),
            |e| matches!(e, ValidateError::BadParallelLevel { level: 3, depth: 1 }),
        ),
        (
            "ZeroChunk",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.parallel.schedule = Schedule::Static { chunk: 0 };
                k
            }),
            |e| matches!(e, ValidateError::ZeroChunk),
        ),
        (
            "NonPositiveStep",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.loops[0].step = 0;
                k
            }),
            |e| matches!(e, ValidateError::NonPositiveStep { level: 0 }),
        ),
        (
            "NonConstParallelBounds",
            Box::new(|| {
                let mut b = KernelBuilder::new("t");
                let i = b.loop_var("i");
                let j = b.loop_var("j");
                let a = b.array("A", &[16, 16], ScalarType::F64);
                b.seq_for(i, 0, 16);
                b.parallel_for(j, 0, AffineExpr::var(i), Schedule::Static { chunk: 1 });
                b.stmt(Stmt::assign(
                    ArrayRef::write(a, vec![b.idx(i), b.idx(j)]),
                    Expr::num(1.0),
                ));
                b.build()
            }),
            |e| matches!(e, ValidateError::NonConstParallelBounds),
        ),
        (
            "BoundUsesInnerVar",
            Box::new(|| {
                let mut b = KernelBuilder::new("t");
                let i = b.loop_var("i");
                let j = b.loop_var("j");
                let a = b.array("A", &[16, 16], ScalarType::F64);
                b.seq_for(i, 0, AffineExpr::var(j));
                b.parallel_for(j, 0, 4, Schedule::Static { chunk: 1 });
                b.stmt(Stmt::assign(
                    ArrayRef::write(a, vec![b.idx(i), b.idx(j)]),
                    Expr::num(1.0),
                ));
                b.build()
            }),
            |e| matches!(e, ValidateError::BoundUsesInnerVar { level: 0, .. }),
        ),
        (
            "RankMismatch",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.body[0].lhs.indices.push(AffineExpr::constant(0));
                k
            }),
            |e| {
                matches!(
                    e,
                    ValidateError::RankMismatch {
                        expected: 1,
                        got: 2,
                        ..
                    }
                )
            },
        ),
        (
            "UnboundVar",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.body[0].lhs.indices[0] = AffineExpr::var(VarId(9));
                k
            }),
            |e| matches!(e, ValidateError::UnboundVar { var_index: 9, .. }),
        ),
        (
            "FieldOnScalar",
            Box::new(|| {
                let mut k = base_kernel();
                k.nest.body[0].lhs.field = Some(loop_ir::FieldId(0));
                k
            }),
            |e| matches!(e, ValidateError::FieldOnScalar { .. }),
        ),
        (
            "BadField",
            Box::new(|| {
                let mut b = KernelBuilder::new("t");
                let i = b.loop_var("i");
                let a = b.struct_array(
                    "S",
                    &[16],
                    loop_ir::ElemLayout::packed_struct(&[("x", ScalarType::F64)]),
                );
                b.parallel_for(i, 0, 16, Schedule::Static { chunk: 1 });
                b.stmt(Stmt::assign(
                    ArrayRef::write(a, vec![b.idx(i)]).with_field(loop_ir::FieldId(7)),
                    Expr::num(1.0),
                ));
                b.build()
            }),
            |e| matches!(e, ValidateError::BadField { field: 7, .. }),
        ),
    ];
    for (name, make, check) in &cases {
        let err = validate(&make()).expect_err(&format!("{name}: kernel should be rejected"));
        assert!(check(&err), "{name}: got {err:?}");
        // Every rendering carries human-usable context.
        assert!(!err.to_string().is_empty(), "{name}");
    }
}

#[test]
fn out_of_bounds_is_reached_by_the_bounds_walk() {
    let mut b = KernelBuilder::new("oob");
    let i = b.loop_var("i");
    let a = b.array("A", &[8], ScalarType::F64);
    b.parallel_for(i, 0, 8, Schedule::Static { chunk: 1 });
    b.stmt(Stmt::assign(
        ArrayRef::write(a, vec![AffineExpr::linear(i, 1, 1)]),
        Expr::num(0.0),
    ));
    let k = b.build();
    assert_eq!(validate(&k), Ok(()));
    match validate_bounds(&k) {
        Err(ValidateError::OutOfBounds { linear, elems, .. }) => {
            assert_eq!((linear, elems), (8, 8));
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn team_too_large_is_reported_by_analysis_entry_points() {
    let k = base_kernel();
    let err = fs_core::try_analyze(
        &k,
        &fs_core::machines::paper48(),
        &fs_core::AnalysisOptions::new(65),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("65"),
        "TeamTooLarge surfaces through try_analyze: {err}"
    );
    let err = fs_core::try_lint(&k, &fs_core::machines::paper48(), 65).unwrap_err();
    assert!(err.to_string().contains("65"), "{err}");
}
