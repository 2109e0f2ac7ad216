//! Differential oracle for the symbolic lint: generated kernels are linted
//! in closed form and replayed through the `FsPath::Reference` model. The
//! contract:
//!
//! * `FalseSharing` ⇒ the model counts at least one FS case at the same
//!   (threads, chunk) configuration;
//! * `Clean` ⇒ the model counts exactly zero;
//! * `Unknown` never occurs on a decidable template. A fragment-boundary
//!   template may answer `Unknown`, but any definite verdict must hold.
//!
//! A diverging case is shrunk and dumped as a `.loop` reproducer for
//! `fslint`/`fsdetect` by the shared harness in `tests/common`.

mod common;

use common::{check, differential, dump, shrink, Case, Kind, Rng};
use fs_core::{machines, try_lint_dsl, FsModelConfig, FsPath, LintVerdict};

/// Lint verdict against the reference model's FS cases at the paper machine.
fn divergence(case: &Case) -> Option<String> {
    let report = match try_lint_dsl(&case.text(), &machines::paper48(), case.threads) {
        Ok(report) => report,
        Err(e) => return Some(format!("generated kernel rejected: {e}")),
    };
    let mut cfg = FsModelConfig::for_machine(&machines::paper48(), case.threads);
    cfg.path = FsPath::Reference;
    let cases = fs_core::run_fs_model(&case.kernel(), &cfg).fs_cases;
    match report.result.verdict {
        LintVerdict::FalseSharing if cases == 0 => {
            Some("lint says FalseSharing, the model counted 0".into())
        }
        LintVerdict::Clean if cases > 0 => {
            Some(format!("lint says Clean, the model counted {cases}"))
        }
        LintVerdict::Unknown if case.kind() == Kind::Decidable => {
            Some("a decidable template left the fragment".into())
        }
        _ => None,
    }
}

/// Lint-shaped cases: 2..=8 threads, so every case has a team to share.
fn draw(rng: &mut Rng, kind: Kind) -> Case {
    Case {
        threads: rng.int(2..=8),
        ..Case::draw(rng, &[kind])
    }
}

/// The headline differential property: 256 generated decidable kernels,
/// zero divergences.
#[test]
fn lint_verdicts_agree_with_reference_simulator() {
    differential(
        "lint_verdicts_agree_with_reference_simulator",
        256,
        |rng| draw(rng, Kind::Decidable),
        divergence,
    );
}

#[test]
fn divergence_harness_covers_every_template() {
    // Deterministic sweep so each template is exercised at least once per
    // run even if the random sampler clusters.
    for (template, kind) in common::TEMPLATES {
        if kind != Kind::Decidable {
            continue;
        }
        for threads in [2u32, 8] {
            for chunk in [1u64, 4] {
                let case = Case {
                    threads,
                    chunk,
                    size: 2,
                    stride: 2,
                    ..Case::new(template)
                };
                check("lint", &case, divergence);
            }
        }
    }
}

/// Boundary kernels never panic and never produce a wrong claim.
#[test]
fn boundary_kernels_stay_sound() {
    differential(
        "boundary_kernels_stay_sound",
        64,
        |rng| draw(rng, Kind::Boundary),
        divergence,
    );
}

#[test]
fn boundary_fragment_edges_are_reported_honestly() {
    let lint = |template, stride| {
        let case = Case {
            threads: 4,
            chunk: 2,
            size: 2,
            stride,
            ..Case::new(template)
        };
        try_lint_dsl(&case.text(), &machines::paper48(), 4).unwrap()
    };
    // Triangular bounds leave the fragment: FS003, verdict Unknown.
    let tri = lint("tri", 2);
    assert_eq!(tri.result.verdict, LintVerdict::Unknown);
    assert!(
        tri.result.diagnostics.iter().any(|d| d.rule_id == "FS003"),
        "{:?}",
        tri.result.diagnostics
    );
    // Mixed strides on one array: out at s > 1, back in at s == 1.
    assert_eq!(lint("mixed", 3).result.verdict, LintVerdict::Unknown);
    assert_ne!(lint("mixed", 1).result.verdict, LintVerdict::Unknown);
    // The multi-array mixed-stride nest stays decidable.
    assert_ne!(lint("nest", 2).result.verdict, LintVerdict::Unknown);
}

/// The harness itself, on a planted divergence (at least 3 threads and a
/// chunk of at least 2): the shrinker reaches exactly that minimal point,
/// `check` fails with a reproducer path, and the dumped `.loop` parses and
/// round-trips.
#[test]
fn minimizer_shrinks_and_dumps() {
    let planted = |c: &Case| (c.threads >= 3 && c.chunk >= 2).then(|| "planted".to_string());
    let start = Case {
        size: 3,
        threads: 8,
        chunk: 12,
        stride: 4,
        stack_lines: Some(8),
        stack_sets: 64,
        invalidate: true,
        count_ts: true,
        max_runs: Some(5),
        interleave: fs_core::simulation::Interleave::PerChunk,
        prefetch: false,
        tiny_machine: true,
        ..Case::new("strided")
    };
    let small = shrink(start.clone(), |c| planted(c).is_some());
    let minimal = Case {
        threads: 3,
        chunk: 2,
        ..Case::new("strided")
    };
    assert_eq!(small, minimal);

    let failure = std::panic::catch_unwind(|| check("planted", &start, planted))
        .expect_err("check must fail on a planted divergence");
    let msg = failure.downcast_ref::<String>().expect("panic message");
    assert!(msg.contains("reproducer: "), "{msg}");

    let path = dump("planted", &small, "threads >= 3 and chunk >= 2");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.starts_with("// planted: threads >= 3 and chunk >= 2\n"),
        "{text}"
    );
    let kernel = fs_core::parse_kernel(&text).unwrap();
    assert_eq!(kernel.name, "strided");
    assert_eq!(
        kernel.nest.parallel.schedule,
        loop_ir::Schedule::Static { chunk: 2 }
    );
    let printed = fs_core::kernel_to_dsl(&kernel);
    assert_eq!(fs_core::parse_kernel(&printed).unwrap(), kernel);
    std::fs::remove_file(&path).ok();
}
