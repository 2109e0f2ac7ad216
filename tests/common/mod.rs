//! The one harness every oracle and property test runs on.
//!
//! * [`cases`] is the seeded case runner: a test draws its cases from an
//!   xorshift stream seeded from its own name, so a failing case recurs on
//!   every run and every host.
//! * [`Case`] is the one generator. A case names a template from
//!   [`TEMPLATES`] (the bundled corpus kernels and a transpose at scaled
//!   consts, the lint's decidable templates and its fragment-boundary
//!   templates), sizes it, and carries the model and machine settings an
//!   oracle runs it under. [`Case::text`] returns DSL text.
//! * [`differential`] and [`check`] run an oracle, a
//!   `divergence(case) -> Option<String>`. A case's text must first parse
//!   and round-trip through `kernel_to_dsl`, and a panic inside the oracle
//!   counts as a divergence. A diverging case is shrunk ([`shrink`]) and
//!   dumped as a `.loop` reproducer ([`dump`]) that `fsdetect` and `fslint`
//!   load.
//!
//! Every integration test that uses the harness compiles this module and
//! uses only part of it.
#![allow(dead_code)]

use fs_core::simulation::Interleave;
use fs_core::{corpus_kernel_with_consts, kernel_at_chunk, kernel_to_dsl, parse_kernel};
use loop_ir::Kernel;
use std::any::Any;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// A deterministic xorshift64* stream.
pub struct Rng(u64);

impl Rng {
    /// Seeded from an FNV-1a hash of `name`, so each test gets a distinct
    /// but stable stream.
    pub fn for_test(name: &str) -> Rng {
        let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Rng(h | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `range` (modulo bias is irrelevant here).
    pub fn int<T: Copy + TryInto<i128> + TryFrom<i128>>(&mut self, range: RangeInclusive<T>) -> T {
        let wide = |v: T| v.try_into().ok().expect("bound fits i128");
        let (lo, hi) = (wide(*range.start()), wide(*range.end()));
        let v = lo + (self.next_u64() as i128).rem_euclid(hi - lo + 1);
        T::try_from(v).ok().expect("draw lies in its range")
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.int(0..=items.len() - 1)]
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run `n` cases of a property, each drawn from the stream seeded by
/// `name`. A failing case's panic is preceded by the case's number.
pub fn cases(name: &str, n: u32, mut property: impl FnMut(&mut Rng)) {
    let mut rng = Rng::for_test(name);
    for i in 1..=n {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("{name}: case {i} of {n} failed");
            resume_unwind(panic);
        }
    }
}

/// What a template promises the lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A bundled corpus kernel (or a transpose) at scaled consts.
    Corpus,
    /// Inside the lint's decidable fragment: the verdict is never Unknown.
    Decidable,
    /// At or past the fragment's edge: Unknown is allowed.
    Boundary,
}

/// The generator's one production list. The decidable and boundary
/// templates keep the per-thread footprint far below the paper machine's
/// 64 KiB L1, so the lint's residency assumption holds in the simulator.
pub const TEMPLATES: [(&str, Kind); 17] = [
    ("dft", Kind::Corpus),
    ("heat", Kind::Corpus),
    ("histogram", Kind::Corpus),
    ("linreg", Kind::Corpus),
    ("matmul", Kind::Corpus),
    ("stencil", Kind::Corpus),
    ("transpose", Kind::Corpus),
    ("strided", Kind::Decidable),
    ("padded", Kind::Decidable),
    ("rmw", Kind::Decidable),
    ("outer", Kind::Decidable),
    ("fields", Kind::Decidable),
    ("spaced", Kind::Decidable),
    ("reversed", Kind::Decidable),
    ("tri", Kind::Boundary),
    ("mixed", Kind::Boundary),
    ("nest", Kind::Boundary),
];

/// One generated case: a template, its shape, and the settings an oracle
/// runs it under. Every field shrinks toward its value in [`Case::new`].
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    pub template: &'static str,
    /// Problem-size multiplier: it scales the corpus consts, and each lint
    /// template runs `size` chunks per thread.
    pub size: u64,
    pub threads: u32,
    pub chunk: u64,
    /// Element stride of the lint templates' subscripts.
    pub stride: i64,
    /// FS model settings; `stack_lines: None` keeps the machine's L1.
    pub stack_lines: Option<usize>,
    pub stack_sets: u32,
    pub invalidate: bool,
    pub count_ts: bool,
    pub max_runs: Option<u64>,
    /// Replay settings; `tiny_machine` swaps paper48 for tiny_test.
    pub interleave: Interleave,
    pub prefetch: bool,
    pub tiny_machine: bool,
}

impl Case {
    /// The smallest case of `template`, with every setting at its default.
    pub fn new(template: &'static str) -> Case {
        Case {
            template,
            size: 1,
            threads: 1,
            chunk: 1,
            stride: 1,
            stack_lines: None,
            stack_sets: 1,
            invalidate: false,
            count_ts: false,
            max_runs: None,
            interleave: Interleave::PerIteration,
            prefetch: true,
            tiny_machine: false,
        }
    }

    /// Draw a template of one of `kinds` at 1..=8 threads, chunk 1..=16
    /// (powers of two), stride 1..=4 and size 1..=3. A corpus template
    /// also draws size 12 or 16, where heat, linreg and matmul reach the
    /// closed form's window floor.
    pub fn draw(rng: &mut Rng, kinds: &[Kind]) -> Case {
        let templates: Vec<_> = TEMPLATES
            .iter()
            .filter(|(_, kind)| kinds.contains(kind))
            .collect();
        let &(template, kind) = rng.pick(&templates);
        Case {
            size: match kind {
                Kind::Corpus => rng.pick(&[1, 2, 3, 12, 16]),
                _ => rng.int(1..=3),
            },
            threads: rng.int(1..=8),
            chunk: rng.pick(&[1, 2, 4, 8, 16]),
            stride: rng.int(1..=4),
            ..Case::new(template)
        }
    }

    pub fn kind(&self) -> Kind {
        TEMPLATES
            .iter()
            .find(|(name, _)| *name == self.template)
            .map(|&(_, kind)| kind)
            .unwrap_or_else(|| panic!("unknown template {}", self.template))
    }

    /// The case's kernel as DSL text.
    pub fn text(&self) -> String {
        let s = self.size as i64;
        let chunk = self.chunk;
        let corpus = |consts: &[(&str, i64)]| {
            let kernel = corpus_kernel_with_consts(self.template, consts).expect("corpus kernel");
            kernel_to_dsl(&kernel_at_chunk(&kernel, chunk))
        };
        let trip = chunk * self.threads as u64 * self.size;
        let st = self.stride;
        match self.template {
            "dft" => corpus(&[("N", 8 * s), ("K", 32 * s)]),
            "heat" => corpus(&[("N", 6 * s), ("M", 32 * s + 2)]),
            "histogram" => corpus(&[("T", 8), ("N", 64 * s)]),
            "linreg" => corpus(&[("N", 48 * s), ("M", 8 * s)]),
            "matmul" => corpus(&[("N", 8 * s), ("M", 8 * s), ("P", 8)]),
            "stencil" => corpus(&[("N", 64 * s + 2)]),
            "transpose" => {
                let n = 16 + 8 * self.size;
                kernel_to_dsl(&loop_ir::kernels::transpose(n, n, chunk))
            }
            // Strided writes: FS whenever chunk*stride*8 misaligns with lines.
            "strided" => format!(
                "kernel strided {{
  array A[{n}]: f64;
  array B[{n}]: f64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    B[{st}*i] = A[{st}*i] + 1.0;
  }}
}}",
                n = st as u64 * trip + 1,
            ),
            // Padded elements: one line per iteration, always clean.
            "padded" => format!(
                "kernel padded {{
  array B[{n}] of {{ v: f64 }} pad 64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    B[{st}*i].v = 2.0;
  }}
}}",
                n = st as u64 * trip + 1,
            ),
            // Histogram-style read-modify-write accumulators.
            "rmw" => format!(
                "kernel rmw {{
  array H[{trip}]: f64;
  array D[{trip}][16]: f64;
  parallel for t in 0..{trip} schedule(static, {chunk}) {{
    for i in 0..16 {{
      H[t] += D[t][i];
    }}
  }}
}}"
            ),
            // Outer sequential loop shifting the written row each instance.
            "outer" => format!(
                "kernel outer {{
  array A[{r}][{trip}]: f64;
  array B[{r}][{trip}]: f64;
  for r in 0..{r} {{
    parallel for j in 0..{trip} schedule(static, {chunk}) {{
      B[r][j] = A[r][j] * 0.5;
    }}
  }}
}}",
                r = st.clamp(2, 4),
            ),
            // Struct-field accumulators (linear-regression shape, 16 B elems).
            "fields" => format!(
                "kernel fields {{
  array S[{trip}] of {{ a: f64, b: f64 }};
  array P[{trip}][8] of {{ x: f64, y: f64 }};
  parallel for j in 0..{trip} schedule(static, {chunk}) {{
    for i in 0..8 {{
      S[j].a += P[j][i].x;
      S[j].b += P[j][i].y;
    }}
  }}
}}"
            ),
            // Full-line element spacing (8 doubles): always clean.
            "spaced" => format!(
                "kernel spaced {{
  array A[{n}]: f64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    A[8*i] = 1.0;
  }}
}}",
                n = 8 * trip + 1,
            ),
            // Negative stride: threads walk the array backwards.
            "reversed" => format!(
                "kernel reversed {{
  array B[{n}]: f64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    B[{last} - {st}*i] = 3.0;
  }}
}}",
                n = st as u64 * (trip - 1) + 1,
                last = st as u64 * (trip - 1),
            ),
            // Triangular: the inner bound rides the parallel variable, which
            // skews threads against each other (FS003, outside the fragment).
            "tri" => format!(
                "kernel tri {{
  array A[{trip}][{trip}]: f64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    for j in 0..i + 1 {{
      A[i][j] = 1.0;
    }}
  }}
}}"
            ),
            // Two writes to one array with different parallel strides: the
            // seam analysis needs one stride per array, so stride > 1 leaves
            // the fragment and stride 1 collapses back inside it.
            "mixed" => format!(
                "kernel mixed {{
  array B[{n}]: f64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    B[i] = 1.0;
    B[{st}*i] = 2.0;
  }}
}}",
                n = st as u64 * (trip - 1) + 1,
            ),
            // Multi-array nest with mixed, non-unit inner strides: decidable,
            // since each array is analyzed at its own stride.
            "nest" => format!(
                "kernel nest {{
  array C[{cn}]: f64;
  array D[{dn}]: f64;
  parallel for i in 0..{trip} schedule(static, {chunk}) {{
    for j in 0..8 {{
      C[{st}*i] += D[16*i + 2*j];
    }}
  }}
}}",
                cn = st as u64 * (trip - 1) + 1,
                dn = 16 * (trip - 1) + 15,
            ),
            other => panic!("unknown template {other}"),
        }
    }

    /// The parsed kernel. [`check`] has already round-tripped the text.
    pub fn kernel(&self) -> Kernel {
        parse_kernel(&self.text()).unwrap_or_else(|e| panic!("{e}\n{}", self.text()))
    }

    /// The text parses, and the printed kernel parses back to itself.
    fn round_trip(&self) -> Result<(), String> {
        let kernel = parse_kernel(&self.text()).map_err(|e| format!("text does not parse: {e}"))?;
        match parse_kernel(&kernel_to_dsl(&kernel)) {
            Ok(back) if back == kernel => Ok(()),
            Ok(_) => Err("kernel_to_dsl output parses to another kernel".into()),
            Err(e) => Err(format!("kernel_to_dsl output does not parse: {e}")),
        }
    }

    /// Every one-step simplification of this case.
    fn shrinks(&self) -> Vec<Case> {
        let steps: [fn(&mut Case, &Case); 13] = [
            |c, _| c.size -= 1,
            |c, _| c.threads -= 1,
            |c, _| c.chunk /= 2,
            |c, _| c.chunk -= 1,
            |c, _| c.stride -= 1,
            |c, d| c.stack_lines = d.stack_lines,
            |c, d| c.stack_sets = d.stack_sets,
            |c, d| c.invalidate = d.invalidate,
            |c, d| c.count_ts = d.count_ts,
            |c, d| c.max_runs = d.max_runs,
            |c, d| c.interleave = d.interleave,
            |c, d| c.prefetch = d.prefetch,
            |c, d| c.tiny_machine = d.tiny_machine,
        ];
        let default = Case::new(self.template);
        steps
            .iter()
            .map(|step| {
                let mut c = self.clone();
                step(&mut c, &default);
                c
            })
            .filter(|c| c.size >= 1 && c.threads >= 1 && c.chunk >= 1 && c.stride >= 1)
            .filter(|c| c != self)
            .collect()
    }
}

/// Run `n` cases drawn by `draw` through `divergence`, as [`check`] does.
pub fn differential(
    name: &str,
    n: u32,
    mut draw: impl FnMut(&mut Rng) -> Case,
    divergence: impl Fn(&Case) -> Option<String>,
) {
    cases(name, n, |rng| check(name, &draw(rng), &divergence));
}

/// Check one case against an oracle. On divergence, shrink the case, dump
/// the smallest diverging case and panic with both.
pub fn check(oracle: &str, case: &Case, divergence: impl Fn(&Case) -> Option<String>) {
    let diverges = |c: &Case| {
        catch_unwind(AssertUnwindSafe(|| {
            c.round_trip().err().or_else(|| divergence(c))
        }))
        .unwrap_or_else(|panic| Some(format!("panicked: {}", panic_message(&*panic))))
    };
    let Some(msg) = diverges(case) else {
        return;
    };
    let small = shrink(case.clone(), |c| diverges(c).is_some());
    let small_msg = diverges(&small).unwrap_or_else(|| msg.clone());
    let path = dump(oracle, &small, &small_msg);
    panic!(
        "{oracle}: {msg}\n  case: {case:?}\nminimized: {small_msg}\n  case: {small:?}\n\
         reproducer: {} (`fsdetect {0} --threads {1}`, `fslint {0} --threads {1}`)",
        path.display(),
        small.threads
    );
}

fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("(no message)")
}

/// Shrink a failing case: take the first one-step simplification that
/// still fails (smaller size, fewer threads, smaller chunk, smaller stride,
/// one setting back to its default) until none does.
pub fn shrink(mut case: Case, fails: impl Fn(&Case) -> bool) -> Case {
    while let Some(next) = case.shrinks().into_iter().find(|c| fails(c)) {
        case = next;
    }
    case
}

/// Write `case`'s text, under a comment header naming the divergence and
/// the whole case, to a `.loop` file in the test target's scratch
/// directory; returns its path.
pub fn dump(oracle: &str, case: &Case, msg: &str) -> PathBuf {
    let dir = option_env!("CARGO_TARGET_TMPDIR").map_or_else(std::env::temp_dir, PathBuf::from);
    let path = dir.join(format!(
        "{oracle}_{}_z{}_t{}_c{}_s{}.loop",
        case.template, case.size, case.threads, case.chunk, case.stride
    ));
    let header: String = format!("{oracle}: {msg}\n{case:?}")
        .lines()
        .map(|line| format!("// {line}\n"))
        .collect();
    let text = case.text();
    let newline = if text.ends_with('\n') { "" } else { "\n" };
    std::fs::write(&path, header + &text + newline).expect("write reproducer");
    path
}
