//! Corpus-level acceptance tests for the symbolic lint:
//!
//! * on every bundled `kernels/*.loop`, the `fslint` verdict agrees with
//!   the `FsPath::Reference` simulator oracle at the same (threads, chunk)
//!   configuration — `FalseSharing` ⇒ simulated cases > 0, `Clean` ⇒ 0;
//! * the `fslint` binary's exit codes, human output, `--json`, and SARIF
//!   2.1.0 output carry the required structure;
//! * `fsdetect --json` includes the `lint` section and prints
//!   `file:line:col:`-prefixed parse errors.

use fs_core::{kernel_at_chunk, machines, try_lint, FsModelConfig, LintVerdict};
use std::process::{Command, Output};

fn fslint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fslint"))
        .args(args)
        .output()
        .expect("fslint runs")
}

fn fsdetect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fsdetect"))
        .args(args)
        .output()
        .expect("fsdetect runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn kernels_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

/// Oracle: simulated FS cases on the reference path.
fn simulated_cases(kernel: &loop_ir::Kernel, threads: u32) -> u64 {
    let mut cfg = FsModelConfig::for_machine(&machines::paper48(), threads);
    cfg.path = fs_core::FsPath::Reference;
    fs_core::run_fs_model(kernel, &cfg).fs_cases
}

#[test]
fn corpus_verdicts_agree_with_reference_oracle() {
    let machine = machines::paper48();
    for entry in fs_core::CORPUS {
        let kernel = fs_core::parse_kernel(entry.source).unwrap();
        // Chunk 1, chunk 4 and the kernel's bundled chunk.
        let mut chunks = vec![1, 4, kernel.nest.parallel.schedule.chunk()];
        chunks.sort_unstable();
        chunks.dedup();
        for threads in [2u32, 8] {
            for &chunk in &chunks {
                let k = kernel_at_chunk(&kernel, chunk);
                let report = try_lint(&k, &machine, threads).unwrap();
                let cases = simulated_cases(&k, threads);
                match report.result.verdict {
                    LintVerdict::FalseSharing => assert!(
                        cases > 0,
                        "@{} threads={threads} chunk={chunk}: lint says FalseSharing, \
                         simulator counted 0",
                        entry.name
                    ),
                    LintVerdict::Clean => assert_eq!(
                        cases, 0,
                        "@{} threads={threads} chunk={chunk}: lint says Clean, \
                         simulator counted {cases}",
                        entry.name
                    ),
                    LintVerdict::Unknown => panic!(
                        "@{} threads={threads} chunk={chunk}: corpus kernel left the \
                         decidable fragment",
                        entry.name
                    ),
                }
            }
        }
    }
}

#[test]
fn every_corpus_kernel_false_shares_at_chunk1() {
    // The bundled kernels are the paper's FS case studies: all of them
    // false-share at 8 threads, chunk 1, and the lint must say so.
    let machine = machines::paper48();
    for entry in fs_core::CORPUS {
        let kernel = fs_core::parse_kernel(entry.source).unwrap();
        let report = try_lint(&kernel, &machine, 8).unwrap();
        assert_eq!(
            report.result.verdict,
            LintVerdict::FalseSharing,
            "@{}",
            entry.name
        );
        assert!(report.has_findings(), "@{}", entry.name);
    }
}

#[test]
fn fslint_flags_all_loop_files_with_spans() {
    // Run the binary over the real files so diagnostics carry file paths
    // and DSL source positions.
    let dir = kernels_dir();
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|x| x.to_str()) == Some("loop"))
                .then(|| p.to_str().unwrap().to_string())
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "expected the bundled corpus in {dir:?}");
    let args: Vec<&str> = paths.iter().map(|s| s.as_str()).collect();
    let out = fslint(&args);
    assert_eq!(out.status.code(), Some(1), "findings -> exit 1");
    let text = stdout(&out);
    for p in &paths {
        assert!(text.contains(p.as_str()), "report covers {p}:\n{text}");
    }
    // Spans from the DSL parser: every finding line is file:line:col.
    assert!(
        text.contains(".loop:"),
        "file:line:col positions present:\n{text}"
    );
    assert!(text.contains("[FS002]"), "{text}");
    assert!(text.contains("fix:"), "{text}");
}

#[test]
fn fslint_sarif_has_required_210_fields() {
    let stencil = kernels_dir().join("stencil.loop");
    let out = fslint(&[stencil.to_str().unwrap(), "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(1));
    let doc = stdout(&out);
    for key in [
        "\"version\": \"2.1.0\"",
        "\"name\": \"fslint\"",
        "\"rules\"",
        "\"ruleId\": \"FS002\"",
        "\"level\": \"error\"",
        "\"message\"",
        "\"physicalLocation\"",
        "\"artifactLocation\"",
        "\"startLine\"",
        "\"startColumn\"",
    ] {
        assert!(doc.contains(key), "SARIF missing {key}:\n{doc}");
    }
    // stdout is pure JSON (pretty-printed object).
    assert!(doc.trim_start().starts_with('{'), "{doc}");
}

#[test]
fn fslint_json_covers_all_inputs() {
    let out = fslint(&["@stencil", "@histogram", "--json", "--threads", "8"]);
    assert_eq!(out.status.code(), Some(1));
    let doc = stdout(&out);
    for key in [
        "\"reports\"",
        "\"file\": \"@stencil\"",
        "\"file\": \"@histogram\"",
        "\"verdict\": \"false-sharing\"",
        "\"diagnostics\"",
        "\"sites\"",
        "\"findings\": true",
    ] {
        assert!(doc.contains(key), "missing {key}:\n{doc}");
    }
}

#[test]
fn fslint_exit_codes() {
    // No inputs -> usage (2).
    let out = fslint(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    // Unknown bundled kernel -> error (1).
    let out = fslint(&["@nope"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--list"));
    // Unknown machine -> error (1).
    let out = fslint(&["@stencil", "--machine", "vax"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown machine"));
    // A clean kernel -> 0.
    let dir = std::env::temp_dir();
    let clean = dir.join("fslint_clean_test.loop");
    std::fs::write(
        &clean,
        "kernel clean {\n  array B[4096] of { v: f64 } pad 64;\n  \
         parallel for i in 0..4096 schedule(static, 1) {\n    B[i].v = 1.0;\n  }\n}\n",
    )
    .unwrap();
    let out = fslint(&[clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("verdict clean"));
    std::fs::remove_file(&clean).ok();
}

#[test]
fn fslint_parse_errors_carry_file_positions() {
    let dir = std::env::temp_dir();
    let bad = dir.join("fslint_bad_test.loop");
    std::fs::write(&bad, "kernel broken {\n  array A[8]: f64;\n}\n").unwrap();
    let out = fslint(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("parse error"), "{err}");
    // file:line:col prefix from with_source_name.
    assert!(
        err.contains(&format!("{}:3:", bad.to_str().unwrap())),
        "position prefix present: {err}"
    );
    std::fs::remove_file(&bad).ok();
}

#[test]
fn fsdetect_json_carries_lint_section() {
    let out = fsdetect(&["@stencil", "--threads", "8", "--json", "--quiet"]);
    let doc = stdout(&out);
    for key in [
        "\"lint\"",
        "\"verdict\": \"false-sharing\"",
        "\"rule_id\": \"FS002\"",
        "\"suggested_fix\"",
    ] {
        assert!(doc.contains(key), "missing {key}:\n{doc}");
    }
}

#[test]
fn fslint_explain_prints_every_rule_from_the_shared_table() {
    for r in fs_core::LINT_RULES {
        let out = fslint(&["--explain", r.id]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains(r.id) && text.contains(r.name) && text.contains(r.short),
            "--explain {} incomplete:\n{text}",
            r.id
        );
    }
    let out = fslint(&["--explain", "FS999"]);
    assert_eq!(out.status.code(), Some(2), "unknown rule -> usage exit");
    assert!(stderr(&out).contains("FS005"), "error lists known rules");
}

#[test]
fn fslint_capacity_warning_fires_on_tiny_machine() {
    let dir = std::env::temp_dir();
    let p = dir.join("fslint_thrash_test.loop");
    std::fs::write(
        &p,
        "kernel t {\n  array A[4096]: f64;\n  array B[4096]: f64;\n  \
         parallel for i in 0..4096 schedule(static, 64) {\n    B[i] = A[i] + 1.0;\n  }\n}\n",
    )
    .unwrap();
    let out = fslint(&[p.to_str().unwrap(), "--machine", "tiny", "--threads", "4"]);
    assert_eq!(out.status.code(), Some(1), "FS005 warning is a finding");
    let text = stdout(&out);
    assert!(text.contains("[FS005]"), "{text}");
    assert!(text.contains("capacity thrashing"), "{text}");
    assert!(
        text.contains("re-lints without FS005"),
        "verified fix:\n{text}"
    );
    // The same kernel against paper48's 8 MB of private cache is quiet.
    let out = fslint(&[
        p.to_str().unwrap(),
        "--machine",
        "paper48",
        "--threads",
        "4",
    ]);
    assert!(!stdout(&out).contains("FS005"), "{}", stdout(&out));
    std::fs::remove_file(&p).ok();
}

#[test]
fn fsdetect_parse_errors_carry_file_positions() {
    let dir = std::env::temp_dir();
    let bad = dir.join("fsdetect_bad_pos_test.loop");
    std::fs::write(&bad, "kernel broken {\n  array A[8]: f64;\n}\n").unwrap();
    let out = fsdetect(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("{}:3:", bad.to_str().unwrap())) && err.contains("parse error"),
        "{err}"
    );
    std::fs::remove_file(&bad).ok();
}
