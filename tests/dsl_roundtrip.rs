//! Integration: the DSL front-end and pretty-printer are exact inverses on
//! every kernel the library ships, and on randomly generated kernels.

use loop_ir::dsl::parse_kernel;
use loop_ir::pretty::kernel_to_dsl;
use loop_ir::{kernels, validate};

mod common;

use common::{cases, Case, Kind};

#[test]
fn builtin_kernels_roundtrip_exactly() {
    for k in kernels::all_kernels_small() {
        let src = kernel_to_dsl(&k);
        let back = parse_kernel(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", k.name));
        assert_eq!(k, back, "{}", k.name);
        // And the second generation is a fixed point.
        assert_eq!(src, kernel_to_dsl(&back));
    }
}

#[test]
fn paper_scale_kernels_roundtrip() {
    for k in [
        kernels::linear_regression(9600, 128, 1),
        kernels::heat_diffusion(5000, 5000, 64),
        kernels::dft(4096, 4096, 16),
    ] {
        let src = kernel_to_dsl(&k);
        let back = parse_kernel(&src).unwrap();
        assert_eq!(k, back);
        validate(&back).unwrap();
    }
}

/// Random rectangular 2-level kernels with random strides/offsets and
/// chunk sizes survive print -> parse unchanged.
#[test]
fn random_stencils_roundtrip() {
    cases("random_stencils_roundtrip", 64, |rng| {
        let (n, m): (u64, u64) = (rng.int(4..=63), rng.int(4..=63));
        let chunk = rng.int(1..=15);
        let offs: Vec<i64> = (0..rng.int(1..=4)).map(|_| rng.int(-2..=2)).collect();
        let coeff: i64 = rng.int(1..=2);
        let mut b = loop_ir::KernelBuilder::new("rand");
        let i = b.loop_var("i");
        let j = b.loop_var("j");
        // Generous bounds so offsets stay inside.
        let a = b.array(
            "a",
            &[n + 8, coeff as u64 * (m + 8)],
            loop_ir::ScalarType::F64,
        );
        let out = b.array("o", &[n + 8, m + 8], loop_ir::ScalarType::F64);
        if rng.coin() {
            b.parallel_for(i, 2, (n - 1) as i64, loop_ir::Schedule::Static { chunk });
            b.seq_for(j, 2, (m - 1) as i64);
        } else {
            b.seq_for(i, 2, (n - 1) as i64);
            b.parallel_for(j, 2, (m - 1) as i64, loop_ir::Schedule::Static { chunk });
        }
        let mut rhs = loop_ir::Expr::num(0.5);
        for &o in &offs {
            rhs = loop_ir::Expr::add(
                rhs,
                loop_ir::Expr::read(loop_ir::ArrayRef::read(
                    a,
                    vec![
                        loop_ir::AffineExpr::linear(i, 1, o),
                        loop_ir::AffineExpr::linear(j, coeff, o.abs()),
                    ],
                )),
            );
        }
        b.stmt(loop_ir::Stmt::assign(
            loop_ir::ArrayRef::write(
                out,
                vec![loop_ir::AffineExpr::var(i), loop_ir::AffineExpr::var(j)],
            ),
            rhs,
        ));
        let k = b.build();
        validate(&k).unwrap();
        let back = parse_kernel(&kernel_to_dsl(&k)).unwrap();
        assert_eq!(k, back);
    });
}

/// Round numbers written by the printer always re-lex as one float.
#[test]
fn float_literals_roundtrip() {
    cases("float_literals_roundtrip", 64, |rng| {
        let v = -1e12 + 2e12 * rng.unit();
        let mut b = loop_ir::KernelBuilder::new("f");
        let i = b.loop_var("i");
        let a = b.array("a", &[8], loop_ir::ScalarType::F64);
        b.parallel_for(i, 0, 8, loop_ir::Schedule::Static { chunk: 1 });
        b.stmt(loop_ir::Stmt::assign(
            loop_ir::ArrayRef::write(a, vec![loop_ir::AffineExpr::var(i)]),
            loop_ir::Expr::num(v),
        ));
        let k = b.build();
        let back = parse_kernel(&kernel_to_dsl(&k)).unwrap();
        assert_eq!(k, back);
    });
}

/// Byte-level mutations of the generator's output (inserts, deletes,
/// replacements and digit runs) never panic the parser or the structural
/// validation of what it accepts, and every parse error renders its
/// position as `parse error at L:C`.
#[test]
fn mutated_generator_output_never_panics() {
    const BYTES: &[u8] = b"{}[]();:,.+-*/= \n0123456789aijknxf_";
    let kinds = [Kind::Corpus, Kind::Decidable, Kind::Boundary];
    cases("mutated_generator_output_never_panics", 10_000, |rng| {
        let mut src = Case::draw(rng, &kinds).text().into_bytes();
        for _ in 0..rng.int(1..=3) {
            let at = rng.int(0..=src.len() - 1);
            match rng.int(0..=3) {
                0 => src.insert(at, rng.pick(BYTES)),
                1 => drop(src.remove(at)),
                2 => src[at] = rng.pick(BYTES),
                _ => {
                    let digits: Vec<u8> = (0..rng.int(1..=24))
                        .map(|_| b'0' + rng.int(0..=9))
                        .collect();
                    src.splice(at..at, digits);
                }
            }
        }
        let src = String::from_utf8_lossy(&src).into_owned();
        let outcome = std::panic::catch_unwind(|| match parse_kernel(&src) {
            Ok(kernel) => drop(validate(&kernel)),
            Err(e) => {
                let at = format!("parse error at {}:{}: ", e.line, e.col);
                assert!(e.to_string().starts_with(&at), "{e}");
            }
        });
        assert!(outcome.is_ok(), "mutated source:\n{src}");
    });
}

#[test]
fn parse_errors_carry_positions() {
    let cases = [
        ("kernel k { array a[4]: f64;\n  parallel for i in 0..4 { a[i] = 1.0; } }", "schedule"),
        ("kernel k { array a[4]: f64;\n  parallel for i in 0..4 schedule(static, 1) { b[i] = 1.0; } }", "unknown array"),
        ("kernel k {\n  array a[4]: f32x;\n}", "unknown scalar type"),
        ("kernel k { array a[4]: f64;\n  parallel for i in 0..4 schedule(static, 1) { a[2*8270603105581679650*i] = 1.0; } }", "integer overflow"),
    ];
    for (src, needle) in cases {
        let err = parse_kernel(src).unwrap_err();
        assert!(
            err.message.contains(needle),
            "expected '{needle}' in: {err}"
        );
        assert!(err.line >= 1 && err.col >= 1);
    }
}
