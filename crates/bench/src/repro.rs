//! The paper's whole evaluation (Figs. 2, 6, 8, 9 and Tables I-VI) as one
//! pipeline: list the sections in paper order, collect the distinct points
//! they read, evaluate every point once in a single
//! [`fs_core::run_indexed`] call, then render each section from the
//! results.
//!
//! Sections share points: Fig. 2's chunk-1 and chunk-10 replays are Table
//! III's 8-thread pair, Tables I-III and IV-VI read one full model per row,
//! and Figs. 8 and 9 are built from the rows of Tables I/IV and II/V.

use crate::{
    effect_row, full_model, measured_time_seconds, paper48, predicted, prediction_row,
    render_fs_effect, render_prediction, sample_runs, scale, FsEffectRow, FullModel, Predicted,
    PredictionRow,
};
use cost_model::{least_squares, run_fs_model, FsModelConfig};
use loop_ir::Kernel;
use machine::MachineConfig;
use std::collections::HashMap;

/// One kernel family of the evaluation: its kernels, its FS/no-FS chunk
/// pair and the titles of its tables.
struct Family {
    name: &'static str,
    mk: fn(u64, u32) -> Kernel,
    chunks: (u64, u64),
    /// The paper's nominal chunk-run count for the prediction table.
    nominal_runs: u64,
    effect_title: &'static str,
    prediction_title: &'static str,
}

const HEAT: usize = 0;
const DFT: usize = 1;
const LINREG: usize = 2;

const FAMILIES: [Family; 3] = [
    Family {
        name: "heat diffusion",
        mk: scale::heat,
        chunks: scale::HEAT_CHUNKS,
        nominal_runs: 20,
        effect_title: "Table I: false-sharing overheads, heat diffusion (chunk 1 vs 64)",
        prediction_title:
            "Table IV: predicted vs modeled FS cases, heat diffusion (nominal 20 chunk runs)",
    },
    Family {
        name: "DFT",
        mk: scale::dft,
        chunks: scale::DFT_CHUNKS,
        nominal_runs: 50,
        effect_title: "Table II: false-sharing overheads, DFT (chunk 1 vs 16)",
        prediction_title: "Table V: predicted vs modeled FS cases, DFT (nominal 50 chunk runs)",
    },
    Family {
        name: "linear regression",
        mk: scale::linreg,
        chunks: scale::LINREG_CHUNKS,
        nominal_runs: 10,
        effect_title: "Table III: false-sharing overheads, linear regression (chunk 1 vs 10)",
        prediction_title:
            "Table VI: predicted vs modeled FS cases, linear regression (nominal 10 chunk runs)",
    },
];

/// The team of Figs. 2 and 6.
const FIGURE_THREADS: u32 = 8;
/// Fig. 2's linear-regression chunk sizes.
const FIG2_CHUNKS: [u64; 11] = [1, 2, 4, 6, 8, 10, 14, 18, 22, 26, 30];
/// Chunk runs Fig. 6 evaluates per series.
const FIG6_CHUNK_RUNS: u64 = 512;

/// One section of the output, in paper order.
#[derive(Debug, Clone, Copy)]
enum Section {
    /// Fig. 2: linear-regression time vs chunk size.
    Fig2,
    /// Fig. 6: the cumulative FS-case series of every family.
    Fig6,
    /// Tables I-III: measured vs modeled FS overhead.
    Effect(usize),
    /// Tables IV-VI: predicted vs modeled FS cases.
    Prediction(usize),
    /// Figs. 8 and 9 (the second field): measured / modeled / predicted FS
    /// effect.
    Summary(usize, u32),
}

const SECTIONS: [Section; 10] = [
    Section::Fig2,
    Section::Fig6,
    Section::Effect(HEAT),
    Section::Effect(DFT),
    Section::Effect(LINREG),
    Section::Prediction(HEAT),
    Section::Prediction(DFT),
    Section::Prediction(LINREG),
    Section::Summary(HEAT, 8),
    Section::Summary(DFT, 9),
];

/// One distinct evaluation of one family's kernels at one team size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Point {
    /// Index into [`FAMILIES`].
    family: usize,
    threads: u32,
    what: What,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum What {
    /// MESI replay of the kernel with this chunk: measured seconds.
    Replay(u64),
    /// The full model of this FS/no-FS chunk pair.
    Model((u64, u64)),
    /// The prediction of the kernel with this chunk, from the chunk runs
    /// [`sample_runs`] picks for the family's nominal count.
    Predict(u64),
    /// Fig. 6's cumulative series of the family's FS kernel.
    Series,
}

#[derive(Debug)]
enum Value {
    Seconds(f64),
    Model(FullModel),
    Predicted(Predicted),
    Series(Vec<(u64, u64)>),
}

fn point(family: usize, threads: u32, what: What) -> Point {
    Point {
        family,
        threads,
        what,
    }
}

impl Point {
    fn kernel(self, chunk: u64) -> Kernel {
        (FAMILIES[self.family].mk)(chunk, self.threads)
    }

    fn evaluate(self, machine: &MachineConfig) -> Value {
        let t = self.threads;
        match self.what {
            What::Replay(c) => Value::Seconds(measured_time_seconds(&self.kernel(c), machine, t)),
            What::Model((c_fs, c_nfs)) => Value::Model(full_model(
                &self.kernel(c_fs),
                &self.kernel(c_nfs),
                machine,
                t,
            )),
            What::Predict(c) => {
                let k = self.kernel(c);
                let runs = sample_runs(&k, t, FAMILIES[self.family].nominal_runs);
                Value::Predicted(predicted(&k, machine, t, runs))
            }
            What::Series => {
                let mut cfg = FsModelConfig::for_machine(machine, t);
                cfg.max_chunk_runs = Some(FIG6_CHUNK_RUNS);
                let k = self.kernel(FAMILIES[self.family].chunks.0);
                Value::Series(run_fs_model(&k, &cfg).series)
            }
        }
    }

    /// A rough work estimate for scheduling, in kernel iterations: a replay
    /// costs about five times as much per iteration as the full model of
    /// one kernel (over the whole sweep, about 0.55 µs per replayed
    /// iteration vs 0.11 µs per modeled one on a 2-core x86-64 host, where
    /// the model takes the closed form on about half its kernels), while a
    /// prediction or a series samples only a few chunk runs and goes last.
    fn cost(self) -> u64 {
        let iters = |c| self.kernel(c).nest.total_iterations().unwrap_or(0);
        match self.what {
            What::Replay(c) => 5 * iters(c),
            What::Model((c_fs, c_nfs)) => iters(c_fs) + iters(c_nfs),
            What::Predict(_) | What::Series => 0,
        }
    }
}

/// The points of one row of the family's Tables I-III: the two replays,
/// then the full model.
fn effect_points(family: usize, threads: u32) -> [Point; 3] {
    let chunks = FAMILIES[family].chunks;
    [
        point(family, threads, What::Replay(chunks.0)),
        point(family, threads, What::Replay(chunks.1)),
        point(family, threads, What::Model(chunks)),
    ]
}

/// The points of one row of the family's Tables IV-VI: the full model,
/// then the two predictions.
fn prediction_points(family: usize, threads: u32) -> [Point; 3] {
    let chunks = FAMILIES[family].chunks;
    [
        point(family, threads, What::Model(chunks)),
        point(family, threads, What::Predict(chunks.0)),
        point(family, threads, What::Predict(chunks.1)),
    ]
}

fn fig2_point(chunk: u64) -> Point {
    point(LINREG, FIGURE_THREADS, What::Replay(chunk))
}

fn fig6_point(family: usize) -> Point {
    point(family, FIGURE_THREADS, What::Series)
}

impl Section {
    /// The points this section reads.
    fn points(self, threads: &[u32]) -> Vec<Point> {
        let rows = |f: fn(usize, u32) -> [Point; 3], family| {
            threads.iter().flat_map(move |&t| f(family, t))
        };
        match self {
            Section::Fig2 => FIG2_CHUNKS.map(fig2_point).to_vec(),
            Section::Fig6 => (0..FAMILIES.len()).map(fig6_point).collect(),
            Section::Effect(f) => rows(effect_points, f).collect(),
            Section::Prediction(f) => rows(prediction_points, f).collect(),
            Section::Summary(f, _) => rows(effect_points, f)
                .chain(rows(prediction_points, f))
                .collect(),
        }
    }
}

/// The distinct points of every section, in order of first use.
fn plan(threads: &[u32]) -> Vec<Point> {
    let mut points = Vec::new();
    for p in SECTIONS.iter().flat_map(|s| s.points(threads)) {
        if !points.contains(&p) {
            points.push(p);
        }
    }
    points
}

/// Every point's value, each evaluated once.
struct Results(HashMap<Point, Value>);

impl Results {
    /// Evaluate `points` on the `fs-runtime` pool, costliest first so the
    /// long linear-regression replays do not start last.
    fn evaluate(mut points: Vec<Point>, machine: &MachineConfig) -> Results {
        points.sort_by_key(|p| std::cmp::Reverse(p.cost()));
        let values = fs_core::run_indexed(points.len(), fs_core::sim_workers(), |i| {
            points[i].evaluate(machine)
        });
        Results(points.into_iter().zip(values).collect())
    }

    fn get(&self, p: Point) -> &Value {
        &self.0[&p]
    }

    fn seconds(&self, p: Point) -> f64 {
        match self.get(p) {
            Value::Seconds(s) => *s,
            v => unreachable!("{p:?} holds {v:?}"),
        }
    }

    fn model(&self, p: Point) -> &FullModel {
        match self.get(p) {
            Value::Model(m) => m,
            v => unreachable!("{p:?} holds {v:?}"),
        }
    }

    fn predicted(&self, p: Point) -> &Predicted {
        match self.get(p) {
            Value::Predicted(m) => m,
            v => unreachable!("{p:?} holds {v:?}"),
        }
    }

    fn series(&self, p: Point) -> &[(u64, u64)] {
        match self.get(p) {
            Value::Series(s) => s,
            v => unreachable!("{p:?} holds {v:?}"),
        }
    }

    fn effect_row(&self, family: usize, threads: u32) -> FsEffectRow {
        let [fs, nfs, model] = effect_points(family, threads);
        effect_row(
            threads,
            self.seconds(fs),
            self.seconds(nfs),
            self.model(model),
        )
    }

    fn prediction_row(&self, family: usize, threads: u32) -> PredictionRow {
        let [model, fs, nfs] = prediction_points(family, threads);
        prediction_row(
            threads,
            self.model(model),
            self.predicted(fs),
            self.predicted(nfs),
        )
    }

    fn render(&self, section: Section, threads: &[u32]) -> String {
        let mut out = String::new();
        match section {
            Section::Fig2 => {
                out += &format!(
                    "## Fig. 2: linear regression execution time vs chunk size ({FIGURE_THREADS} threads)\n"
                );
                out += &format!("{:>8} {:>14} {:>16}\n", "chunk", "time (s)", "vs chunk 1");
                let base = self.seconds(fig2_point(FIG2_CHUNKS[0]));
                for chunk in FIG2_CHUNKS {
                    let t = self.seconds(fig2_point(chunk));
                    out += &format!(
                        "{:>8} {:>14.6} {:>15.1}%\n",
                        chunk,
                        t,
                        (t / base - 1.0) * 100.0
                    );
                }
                out += "(expect a falling curve: larger chunks remove the false sharing)\n";
            }
            Section::Fig6 => {
                for (family, f) in FAMILIES.iter().enumerate() {
                    let series = self.series(fig6_point(family));
                    out += &format!(
                        "## Fig. 6: cumulative FS cases vs chunk runs — {} ({FIGURE_THREADS} threads)\n",
                        f.name
                    );
                    let stride = (series.len() / 16).max(1);
                    out += &format!("{:>12} {:>16}\n", "chunk run", "FS cases");
                    for (x, y) in series.iter().step_by(stride) {
                        out += &format!("{x:>12} {y:>16}\n");
                    }
                    let pts: Vec<(f64, f64)> =
                        series.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
                    if let Some(fit) = least_squares(&pts[pts.len() / 4..]) {
                        out += &format!(
                            "fit: y = {:.1} * x + {:.1}   (r^2 = {:.6})\n\n",
                            fit.a, fit.b, fit.r2
                        );
                    }
                }
            }
            Section::Effect(f) => {
                let rows: Vec<_> = threads.iter().map(|&t| self.effect_row(f, t)).collect();
                out += &render_fs_effect(FAMILIES[f].effect_title, &rows);
            }
            Section::Prediction(f) => {
                let rows: Vec<_> = threads.iter().map(|&t| self.prediction_row(f, t)).collect();
                out += &render_prediction(FAMILIES[f].prediction_title, &rows);
            }
            Section::Summary(f, fig) => {
                out += &format!(
                    "## Fig. {fig}: FS effect (% of execution time) vs threads — {}\n",
                    FAMILIES[f].name
                );
                out += &format!(
                    "{:>8} {:>12} {:>12} {:>12}\n",
                    "threads", "measured", "modeled", "predicted"
                );
                for &t in threads {
                    let (e, p) = (self.effect_row(f, t), self.prediction_row(f, t));
                    out += &format!(
                        "{:>8} {:>11.1}% {:>11.1}% {:>11.1}%\n",
                        t, e.measured_pct, e.modeled_pct, p.pred_pct
                    );
                }
            }
        }
        out
    }
}

/// Regenerate every section of the paper's evaluation on the
/// [`paper48`] machine, with Tables I-VI and Figs. 8-9 over `threads`; each
/// section is followed by a blank line. With [`crate::paper_thread_counts`]
/// this is the committed `bench_results_all_experiments.txt`.
pub fn render(threads: &[u32]) -> String {
    let results = Results::evaluate(plan(threads), &paper48());
    SECTIONS
        .iter()
        .map(|&s| results.render(s, threads) + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_thread_counts;

    #[test]
    fn the_full_sweep_evaluates_each_point_once() {
        let points = plan(&paper_thread_counts());
        let count = |pred: fn(&Point) -> bool| points.iter().filter(|p| pred(p)).count();
        // 3 families x 8 teams x 2 chunks, plus Fig. 2's 9 chunk sizes
        // that Table III does not replay.
        assert_eq!(count(|p| matches!(p.what, What::Replay(_))), 57);
        // One full model per row of Tables I-III, shared with IV-VI.
        assert_eq!(count(|p| matches!(p.what, What::Model(_))), 24);
        assert_eq!(count(|p| matches!(p.what, What::Predict(_))), 48);
        assert_eq!(count(|p| matches!(p.what, What::Series)), 3);
    }

    /// The full sweep, regenerated in process, equals the committed
    /// results line for line.
    #[test]
    fn full_render_matches_committed_results() {
        let golden = include_str!("../../../bench_results_all_experiments.txt");
        let got = render(&paper_thread_counts());
        for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(g, w, "line {} drifted", i + 1);
        }
        assert_eq!(got.lines().count(), golden.lines().count(), "line count");
        assert_eq!(got, golden);
    }
}
