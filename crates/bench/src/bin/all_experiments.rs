//! Regenerate every table and figure of the paper in one run (the output
//! committed as `bench_results_all_experiments.txt` and recorded in
//! EXPERIMENTS.md).
//!
//! Tables go to stdout; the wall time and the `sim.*` counter summary go
//! to stderr, so `all_experiments > EXPERIMENTS.out` captures clean tables.

use std::time::Instant;

fn main() {
    fs_bench::enable_sim_counters();
    let start = Instant::now();
    print!(
        "{}",
        fs_bench::repro::render(&fs_bench::paper_thread_counts())
    );
    eprintln!(
        "all experiments regenerated in {:.2}s; {}",
        start.elapsed().as_secs_f64(),
        fs_bench::sim_summary()
    );
}
