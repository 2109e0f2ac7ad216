//! Presentation helpers for the human-text output modes — the optional
//! sections `fsdetect` prints after the main report (`--sim`, `--advise`,
//! `--baseline`, `--contention`, `--sweep`, `--eliminate`, the sweep-grid
//! table) and the `--profile` summary.
//!
//! Kept out of the binaries so the CLIs stay thin veneers over
//! [`crate::service`]: each function takes the parsed kernel (carried on
//! [`crate::service::KernelResult`]) and returns the section as a string,
//! byte-identical to what the pre-service `fsdetect` printed.

use crate::sweep::SweepGridResult;
use fs_obs as obs;
use loop_ir::Kernel;
use machine::MachineConfig;
use std::fmt::Write as _;

/// The `-- sweep grid --` table with best point and memo tallies.
pub fn grid_section(r: &SweepGridResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- sweep grid ({} points) --", r.outcomes.len());
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>12} {:>16} {:>8}",
        "threads", "chunk", "fs cases", "total cycles", "fs %"
    );
    for o in &r.outcomes {
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>12} {:>16.0} {:>7.1}%",
            o.threads,
            o.chunk,
            o.cost.fs.fs_cases,
            o.cost.total_cycles,
            o.cost.fs_fraction() * 100.0
        );
    }
    if let Some(best) = r.best() {
        let _ = writeln!(
            out,
            "best point: {} threads, chunk {} ({:.0} cycles)",
            best.threads, best.chunk, best.cost.total_cycles
        );
    }
    let _ = writeln!(out, "memo: {} hits, {} misses", r.memo_hits, r.memo_misses);
    out
}

/// The `--sim` section: replay through the MESI coherence simulator.
pub fn sim_section(kernel: &Kernel, machine: &MachineConfig, threads: u32) -> String {
    let stats = cache_sim::simulate_kernel(kernel, machine, cache_sim::SimOptions::new(threads));
    format!("-- MESI simulator (measured) --\n{stats}")
}

/// The `--advise` section: the simulator-backed chunk-size recommendation.
pub fn advice_section(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    predict: Option<u64>,
) -> String {
    let advice = crate::advisor::recommend_chunk(kernel, machine, threads, 1024, predict);
    let mut out = String::new();
    let _ = writeln!(out, "-- chunk-size advice --");
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>16}",
        "chunk", "fs cases", "total cycles"
    );
    for p in &advice.points {
        let _ = writeln!(
            out,
            "{:>8} {:>14} {:>16.0}",
            p.chunk, p.fs_cases, p.total_cycles
        );
    }
    let _ = writeln!(
        out,
        "recommended chunk size: {} ({:.2}x faster than chunk 1)",
        advice.best_chunk, advice.speedup_vs_chunk1
    );
    out
}

/// The `--baseline` section: LaRowe-style address-set sharing census.
pub fn baseline_section(kernel: &Kernel, machine: &MachineConfig, threads: u32) -> String {
    let a = cache_sim::SharingAnalysis::of_kernel(kernel, threads, machine.line_size());
    let (p, rs, ts, fs) = a.census();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- address-set baseline (LaRowe-style, §V related work) --"
    );
    let _ = writeln!(
        out,
        "lines: {p} private, {rs} read-shared, {ts} true-shared, {fs} false-shared"
    );
    let bases = kernel.array_bases(machine.line_size());
    for (line, rec) in a.false_shared_lines().into_iter().take(5) {
        let addr = line * machine.line_size();
        let name = kernel
            .arrays
            .iter()
            .enumerate()
            .find(|(i, d)| addr >= bases[*i] && addr < bases[*i] + d.size_bytes().max(1))
            .map(|(_, d)| d.name.as_str())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "  line {line:>8} in '{name}': {} sharers, {} accesses",
            rec.sharer_count(),
            rec.accesses
        );
    }
    out
}

/// The `--contention` section: shared-cache and memory-bus interference.
pub fn contention_section(kernel: &Kernel, machine: &MachineConfig, threads: u32) -> String {
    let sc = cost_model::shared_cache_interference(kernel, machine, threads);
    let bus = cost_model::bus_interference(kernel, machine, threads);
    let mut out = String::new();
    let _ = writeln!(out, "-- contention extensions (paper §VI future work) --");
    let _ = writeln!(
        out,
        "shared cache: cluster footprint {:.0} KB of {} KB -> overflow {:.0}%, +{:.2} cy/iter",
        sc.cluster_footprint / 1024.0,
        sc.shared_capacity / 1024,
        sc.overflow_fraction * 100.0,
        sc.extra_cycles_per_iter.max(0.0)
    );
    let _ = writeln!(
        out,
        "memory bus:   demand {:.1} B/cy of {:.1} B/cy -> slowdown {:.2}x",
        bus.demanded_bytes_per_cycle, bus.available_bytes_per_cycle, bus.slowdown
    );
    out
}

/// The `--sweep` section: the hardware sensitivity battery.
pub fn sweeps_section(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    predict: Option<u64>,
) -> String {
    let mut aopts = cost_model::AnalysisOptions::new(threads);
    aopts.predict_chunk_runs = predict;
    let mut out = String::new();
    let _ = writeln!(out, "-- hardware sensitivity sweeps --");
    for sweep in cost_model::standard_battery(kernel, machine, &aopts) {
        let _ = writeln!(out, "{}:", sweep.parameter);
        for p in &sweep.points {
            let _ = writeln!(
                out,
                "  {:>10} -> FS {:>5.1}% of {:>12.0} cycles ({} cases)",
                p.value,
                p.fs_fraction * 100.0,
                p.total_cycles,
                p.fs_cases
            );
        }
    }
    out
}

/// The `--eliminate` section: mitigation search + transformed kernel.
pub fn eliminate_section(
    kernel: &Kernel,
    machine: &MachineConfig,
    threads: u32,
    predict: Option<u64>,
) -> String {
    let mut opts = cost_model::AnalysisOptions::new(threads);
    opts.predict_chunk_runs = predict;
    let mit = crate::transform::eliminate_false_sharing(kernel, machine, threads, &opts);
    let mut out = String::new();
    let _ = writeln!(out, "-- mitigation search --");
    if mit.candidates.is_empty() {
        let _ = writeln!(out, "no false sharing to eliminate");
    } else {
        for c in &mit.candidates {
            let _ = writeln!(
                out,
                "  {:<48} {:>10.0} cycles ({:.2}x)",
                c.description, c.cost.total_cycles, c.speedup
            );
        }
        let best = mit.best().unwrap();
        let _ = writeln!(out, "best: {}", best.description);
        let _ = writeln!(out, "-- transformed kernel --");
        let _ = write!(out, "{}", loop_ir::pretty::kernel_to_dsl(&best.kernel));
    }
    out
}

/// The `--profile` summary (spans, counters, gauges, sweep throughput).
/// Returned as text; the CLIs print it to stderr so stdout stays
/// machine-readable.
pub fn profile_text(snap: &obs::Snapshot, grid_result: Option<&SweepGridResult>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- profile --");
    let _ = writeln!(
        out,
        "wall {:.3} ms, span coverage {:.1}%",
        snap.wall_ns() as f64 / 1e6,
        crate::service::span_coverage(snap) * 100.0
    );
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "max ms"
    );
    for a in snap.span_aggregate() {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>12.3} {:>12.3}",
            a.name,
            a.count,
            a.total_ns as f64 / 1e6,
            a.max_ns as f64 / 1e6
        );
    }
    let busy = snap.track_busy_ns();
    if busy.len() > 1 {
        let _ = writeln!(out, "tracks:");
        for (t, ns) in busy {
            let _ = writeln!(
                out,
                "  {:<16} busy {:>10.3} ms",
                snap.track_name(t).unwrap_or("?"),
                ns as f64 / 1e6
            );
        }
    }
    let _ = writeln!(out, "counters:");
    for &(name, v) in &snap.counters {
        if v > 0 {
            let _ = writeln!(out, "  {name:<26} {v}");
        }
    }
    for &(name, v) in &snap.gauges {
        if v > 0 {
            let _ = writeln!(out, "  {name:<26} {v}");
        }
    }
    if snap.hists.iter().any(|h| h.count > 0) {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "latency", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms"
        );
        for h in snap.hists.iter().filter(|h| h.count > 0) {
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                h.name,
                h.count,
                h.mean_ns() as f64 / 1e6,
                h.quantile(0.50) as f64 / 1e6,
                h.quantile(0.95) as f64 / 1e6,
                h.quantile(0.99) as f64 / 1e6
            );
        }
    }
    if let Some(r) = grid_result {
        let _ = writeln!(
            out,
            "sweep: {:.1} points/sec over {} points",
            r.stats.points_per_sec(),
            r.outcomes.len()
        );
        let _ = writeln!(out, "slowest points:");
        for (i, ns) in r.stats.slowest(5) {
            let o = &r.outcomes[i];
            let _ = writeln!(
                out,
                "  {:<16} threads {:>3} chunk {:>6}  {:>10.3} ms",
                o.kernel,
                o.threads,
                o.chunk,
                ns as f64 / 1e6
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_render_their_headers() {
        let kernel = crate::corpus::corpus_kernel("histogram").unwrap();
        let m = machine::presets::paper48();
        assert!(sim_section(&kernel, &m, 4).starts_with("-- MESI simulator (measured) --"));
        assert!(advice_section(&kernel, &m, 4, None).contains("recommended chunk size:"));
        assert!(baseline_section(&kernel, &m, 4).contains("false-shared"));
        assert!(contention_section(&kernel, &m, 4).contains("memory bus:"));
        assert!(sweeps_section(&kernel, &m, 4, Some(8)).starts_with("-- hardware sensitivity"));
        assert!(eliminate_section(&kernel, &m, 4, None).starts_with("-- mitigation search --"));
    }
}
