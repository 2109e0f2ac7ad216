//! Integration: the compile-time FS model and the execution-driven MESI
//! simulator must tell the same story — the paper's central accuracy claim,
//! checked here in its qualitative form on small instances.

use cache_sim::{simulate_kernel, Interleave, MultiCoreSim, SimOptions, TraceGen};
use cost_model::{run_fs_model, FsModelConfig};
use loop_ir::{kernels, Kernel};
use machine::presets;

fn model_events(k: &Kernel, threads: u32) -> u64 {
    run_fs_model(k, &FsModelConfig::for_machine(&presets::paper48(), threads)).fs_events
}

fn sim_fs(k: &Kernel, threads: u32) -> u64 {
    simulate_kernel(k, &presets::paper48(), SimOptions::new(threads)).total_false_sharing()
}

/// Both sides must agree on *which* variant false-shares: the FS-case loop
/// must dominate the non-FS-case loop by a large factor in both.
#[test]
fn model_and_sim_agree_on_chunk_effect() {
    let cases: Vec<(Kernel, Kernel)> = vec![
        (
            kernels::heat_diffusion(34, 130, 1),
            kernels::heat_diffusion(34, 130, 64),
        ),
        (kernels::dft(64, 256, 1), kernels::dft(64, 256, 16)),
        (kernels::transpose(64, 64, 1), kernels::transpose(64, 64, 8)),
    ];
    for (fs_k, nfs_k) in cases {
        let (m_fs, m_nfs) = (model_events(&fs_k, 8), model_events(&nfs_k, 8));
        let (s_fs, s_nfs) = (sim_fs(&fs_k, 8), sim_fs(&nfs_k, 8));
        assert!(
            m_fs > 3 * m_nfs.max(1),
            "{}: model {m_fs} vs {m_nfs}",
            fs_k.name
        );
        assert!(
            s_fs > 3 * s_nfs.max(1),
            "{}: sim {s_fs} vs {s_nfs}",
            fs_k.name
        );
    }
}

/// Event *counts* should land within a small factor of the simulator's
/// coherence misses (the model is independent per-thread stacks; the
/// simulator invalidates, so they bracket each other).
#[test]
fn model_event_counts_track_sim_counts() {
    for (k, threads) in [
        (kernels::transpose(64, 64, 1), 8u32),
        (kernels::dft(64, 256, 1), 8),
        (kernels::dotprod_partials(8, 128, false), 8),
        (kernels::linear_regression(64, 32, 1), 8),
    ] {
        let m = model_events(&k, threads) as f64;
        // Sim counts FS read misses plus the upgrades writers pay.
        let stats = simulate_kernel(&k, &presets::paper48(), SimOptions::new(threads));
        let s = (stats.total_false_sharing() + stats.total_upgrades()) as f64;
        assert!(s > 0.0, "{}: sim found nothing", k.name);
        let ratio = m / s;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{}: model {m} vs sim {s} (ratio {ratio:.2})",
            k.name
        );
    }
}

/// Padding eliminates FS in both the model and the simulator.
#[test]
fn both_sides_see_padding_fix() {
    let packed = kernels::dotprod_partials(8, 128, false);
    let padded = kernels::dotprod_partials(8, 128, true);
    assert!(model_events(&packed, 8) > 100);
    assert_eq!(model_events(&padded, 8), 0);
    assert!(sim_fs(&packed, 8) > 100);
    assert_eq!(sim_fs(&padded, 8), 0);
}

/// The simulator's victim lines and the model's victim lines coincide.
#[test]
fn victim_lines_agree() {
    let k = kernels::dotprod_partials(8, 64, false);
    let machine = presets::paper48();
    let model = run_fs_model(&k, &FsModelConfig::for_machine(&machine, 8));
    let sim = simulate_kernel(&k, &machine, SimOptions::new(8));
    let top_model: Vec<u64> = model.top_lines(2).into_iter().map(|(l, _)| l).collect();
    let top_sim: Vec<u64> = sim.top_fs_lines(2).into_iter().map(|(l, _)| l).collect();
    assert_eq!(top_model[0], top_sim[0], "hottest line must match");
}

/// Single-threaded runs produce zero sharing everywhere.
#[test]
fn single_thread_is_clean_everywhere() {
    for k in kernels::all_kernels_small() {
        assert_eq!(model_events(&k, 1), 0, "{}", k.name);
        assert_eq!(sim_fs(&k, 1), 0, "{}", k.name);
    }
}

/// On a line the whole team writes, the model's multiplicity *cases* grow
/// with the team (each insertion conflicts with every other writer, Eq. 4),
/// while binary *events* — one per insertion — stay flat, matching the
/// simulator's per-miss counting.
#[test]
fn fs_grows_with_team_on_shared_line() {
    let machine = presets::paper48();
    let counts: Vec<(u64, u64)> = [2u32, 4, 8]
        .iter()
        .map(|&t| {
            let r = run_fs_model(
                &kernels::dotprod_partials(8, 64, false),
                &FsModelConfig::for_machine(&machine, t),
            );
            (r.fs_cases, r.fs_events)
        })
        .collect();
    assert!(
        counts[0].0 < counts[1].0 && counts[1].0 < counts[2].0,
        "cases must grow with team: {counts:?}"
    );
    let spread = counts.iter().map(|c| c.1).max().unwrap() as f64
        / counts.iter().map(|c| c.1).min().unwrap().max(1) as f64;
    assert!(spread < 1.5, "events roughly flat: {counts:?}");
    // The simulator, which invalidates on every conflict, also sees
    // substantial FS at every team size.
    for t in [2u32, 8] {
        assert!(
            sim_fs(&kernels::dotprod_partials(8, 64, false), t) > 200,
            "T={t}"
        );
    }
}

/// The FS-model ablations of DESIGN.md §5 on `dft(32, 960, 1)` at 8 threads
/// on paper48: deeper (L1+L2) stacks, line-granularity counting and
/// 16-way set-associative cache states leave the count unchanged, while
/// invalidate-on-detect collapses it to the simulator's FS miss count,
/// which no trace interleaving moves.
#[test]
fn fs_model_ablations_pin_the_dft_counts() {
    let machine = presets::paper48();
    let kernel = kernels::dft(32, 960, 1);
    let base = FsModelConfig::for_machine(&machine, 8);
    let cases = |edit: fn(&mut FsModelConfig, &machine::MachineConfig)| {
        let mut cfg = base.clone();
        edit(&mut cfg, &machine);
        run_fs_model(&kernel, &cfg).fs_cases
    };
    assert_eq!(cases(|_, _| {}), 846_720, "baseline");
    assert_eq!(
        cases(|c, m| {
            let levels = &m.caches.levels;
            c.stack_lines = (levels[0].size_bytes + levels[1].size_bytes) as usize / 64;
        }),
        846_720,
        "L1+L2-deep stacks"
    );
    assert_eq!(
        cases(|c, _| c.count_true_sharing = true),
        846_720,
        "line granularity"
    );
    assert_eq!(cases(|c, _| c.stack_sets = 64), 846_720, "16-way stacks");
    assert_eq!(
        cases(|c, _| c.invalidate_on_detect = true),
        61_200,
        "invalidate-on-detect"
    );

    let gen = TraceGen::new(&kernel, 8, 64);
    for il in [
        Interleave::PerIteration,
        Interleave::PerIterationSkewed,
        Interleave::PerChunk,
    ] {
        let mut sim = MultiCoreSim::new(&machine, 8);
        gen.for_each_interleaved(il, |a| sim.access(a.thread, a.addr, a.size, a.is_write));
        assert_eq!(sim.stats().total_false_sharing(), 61_200, "{il:?}");
    }
}
