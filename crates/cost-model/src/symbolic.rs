//! The [`crate::fs::FsPath::Symbolic`] evaluation path: closed-form
//! false-sharing counts inside the decidable affine fragment.
//!
//! The walking paths spend `O(steps × threads × accesses)` per model run.
//! This path observes that inside the fragment the model is *translation
//! periodic*: every access address is affine in the loop variables
//! ([`loop_ir::CompiledPlan`]), and under a static round-robin schedule the
//! team's joint iteration advances one "changing" variable uniformly — the
//! parallel variable when the parallel loop is outermost (per chunk *round*)
//! or the single non-trivial sequential outer loop (per loop *instance*).
//! Each period therefore shifts every array's address stream by a constant
//! byte delta `δ_r`. Choosing the period `p` as the lcm over arrays of
//! `M / gcd(|δ_r|, M)` with `M = line_size × num_sets` (the ByteAffine
//! stride/GCD argument `fslint` uses for its boundary-overlap verdicts)
//! makes every per-period line shift `Δ_r = δ_r·p / line_size` an integer
//! number of lines *and* a multiple of the set count — so shifting every
//! resident line of the machine state by `Δ_r` commutes with set selection,
//! byte masks, LRU order and writer masks.
//!
//! The engine simulates window by window with the exact `RefMachine`
//! semantics and, at each window boundary, compares the machine state with
//! a shifted snapshot from one or two windows back. One verified pair
//! proves (by induction, since the per-access transition function commutes
//! with the shift) that every later window emits the *same* count deltas on
//! shifted lines; one more simulated window records those deltas, and the
//! remaining `k` windows are applied in closed form: `O(1)` scalar updates
//! per window plus the per-line/series output the dense path would emit
//! anyway. The LRU/writer state is then translated by `k·Δ` and the ragged
//! tail (short chunks, truncation) is simulated exactly.
//!
//! The engine never simulates a whole loop on `RefMachine`: kernels whose
//! caches never reach a shifted steady state (footprints smaller than the
//! stack, non-uniform schedules, multiple changing outer loops), and runs
//! too small to be worth the snapshot bookkeeping, come back as
//! `SymbolicRun::Direct` and the dispatcher answers them with the dense
//! walk, which gives the same counts at about a fifth of the reference
//! machine's cost per access. Anything whose remaining work would exceed
//! `DIRECT_WORK_LIMIT` returns `None` and the dispatcher falls back to
//! [`crate::fs::FsPath::Optimized`], exactly as `fslint` falls back to
//! Unknown outside its fragment.

use crate::fs::{set_geometry, FsModelConfig, FsModelResult, LineInfo, RefMachine};
use crate::lint::gcd;
use cache_sim::lru::LruCache;
use loop_ir::schedule::ChunkSchedule;
use loop_ir::{AccessPlan, CompiledPlan, Kernel, StreamCursor};
use std::collections::HashMap;

/// Ceiling on `steps × threads × accesses` the symbolic path answers
/// without a closed form: it bounds the windowed warm-up, and a run whose
/// remaining work exceeds it declines instead of being handed to the dense
/// walk.
const DIRECT_WORK_LIMIT: u64 = 1 << 23;

/// Below this much total work, the dense walk is cheaper than snapshot
/// bookkeeping; skip the periodicity machinery entirely.
const SMALL_DIRECT_WORK: u64 = 1 << 16;

/// Longest period window (in lockstep steps) worth verifying.
const MAX_WINDOW_STEPS: u64 = 1 << 16;

/// Ceiling on extrapolated series entries (`k × runs_per_window`): beyond
/// this the output itself is the bottleneck and no path is viable.
const MAX_SERIES_ENTRIES: u64 = 1 << 24;

/// An in-fragment answer of the symbolic engine.
pub(crate) enum SymbolicRun {
    /// Counts from a verified closed form (or a run with nothing to
    /// evaluate).
    ClosedForm(FsModelResult),
    /// Exact, but no closed form: the run is too small for the periodicity
    /// machinery, has no period plan, or no period verified. Its remaining
    /// work is within `DIRECT_WORK_LIMIT`, and the caller answers it with
    /// the dense walk.
    Direct,
}

/// Closed-form evaluation of the FS model. Returns `None` when the kernel
/// is outside the decidable fragment (non-constant bounds) or the run would
/// exceed the direct-work budget without a verified period.
pub(crate) fn run_symbolic(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
) -> Option<SymbolicRun> {
    let _span = fs_obs::span("fs.symbolic");
    let num_threads = cfg.num_threads.max(1) as usize;
    let nest = &kernel.nest;

    // Fragment gate: every loop bound compile-time constant, and a
    // well-defined static schedule. This is the same decidability line
    // `lint::ByteAffine` draws.
    let mut trips = Vec::with_capacity(nest.loops.len());
    for l in &nest.loops {
        trips.push(l.const_trip_count()?);
    }
    let sched = ChunkSchedule::for_loop(
        nest.parallel_loop(),
        nest.parallel.schedule.chunk(),
        num_threads as u64,
    )?;

    // Bookkeeping identical to the walking paths.
    let outer_iters = nest.outer_iters().unwrap_or(1).max(1);
    let runs_per_instance = sched.num_chunk_runs().max(1);
    let inner_clamped = nest.inner_iters_per_parallel_iter().unwrap_or(1).max(1);
    let steps_per_run = (sched.chunk * inner_clamped).max(1);
    let max_steps = cfg.max_chunk_runs.map(|r| r * steps_per_run);

    let par_level = nest.parallel.level;
    let inner_prod: u64 = trips[par_level + 1..]
        .iter()
        .try_fold(1u64, |a, &t| a.checked_mul(t))?;
    let outer_prod: u64 = trips[..par_level]
        .iter()
        .try_fold(1u64, |a, &t| a.checked_mul(t))?;

    let iters_t: Vec<u64> = (0..num_threads as u64)
        .map(|t| iters_of_thread_closed(&sched, t))
        .collect();
    let total_steps_t: Vec<u64> = iters_t
        .iter()
        .map(|&it| outer_prod.saturating_mul(it).saturating_mul(inner_prod))
        .collect();
    let end_steps = total_steps_t.iter().copied().max().unwrap_or(0);
    let target = match max_steps {
        Some(ms) => end_steps.min(ms),
        None => end_steps,
    };

    let mut result = FsModelResult::empty(num_threads);
    result.total_chunk_runs = outer_iters * runs_per_instance;
    if target == 0 {
        result.finish_series(steps_per_run);
        return Some(SymbolicRun::ClosedForm(result));
    }

    let per_step_work = (num_threads as u64) * (plan.accesses.len() as u64).max(1);
    let direct_work = target.saturating_mul(per_step_work);
    // Without a closed form, the run is exact only within the direct-work
    // budget: hand it to the dense walk, or decline.
    let direct = |remaining: u64| (remaining <= DIRECT_WORK_LIMIT).then_some(SymbolicRun::Direct);
    if direct_work <= SMALL_DIRECT_WORK {
        return direct(direct_work);
    }

    let cplan = plan.compile(kernel.vars.len(), bases);
    let Some(xp) = plan_extrapolation(
        kernel,
        cfg,
        plan,
        bases,
        &cplan,
        &sched,
        &trips,
        outer_prod,
        inner_prod,
        steps_per_run,
        end_steps,
    ) else {
        return direct(direct_work);
    };
    let driver = Driver {
        sched,
        par_level,
        levels: nest
            .loops
            .iter()
            .zip(trips.iter())
            .map(|(l, &tr)| Level {
                var: l.var.index(),
                lower: l.lower.as_const().expect("gated const"),
                step: l.step,
                trip: tr,
            })
            .collect(),
        inner_prod,
        iters_t,
        total_steps_t,
    };
    let mut sim = Sim {
        driver: &driver,
        cplan: &cplan,
        acc_size: plan.accesses.iter().map(|a| a.size as u64).collect(),
        acc_write: plan.accesses.iter().map(|a| a.is_write).collect(),
        machine: RefMachine::new(cfg),
        cursors: (0..num_threads)
            .map(|_| StreamCursor::new(&cplan))
            .collect(),
        env: vec![0i64; kernel.vars.len()],
        spr: steps_per_run,
        cur: 0,
    };

    if !run_windowed(&mut sim, &xp, &mut result, target, per_step_work) {
        // The decline rule counts the work left after the failed attempt.
        // The machine is dropped on return, before the caller builds the
        // dense tables, so the two never coexist.
        return direct((target - sim.cur).saturating_mul(per_step_work));
    }
    fs_obs::counters::FS_LRU_EVICTIONS.add(sim.machine.evictions);
    result.finish_series(steps_per_run);
    Some(SymbolicRun::ClosedForm(result))
}

/// Closed-form `ChunkSchedule::iters_of_thread` (the library version scans
/// every chunk): full chunks owned round-robin, minus the short tail of the
/// last chunk when this thread owns it.
pub(crate) fn iters_of_thread_closed(s: &ChunkSchedule, t: u64) -> u64 {
    let c = s.num_chunks();
    if t >= c {
        return 0;
    }
    let owned = (c - 1 - t) / s.num_threads + 1;
    let mut iters = owned * s.chunk;
    if (c - 1) % s.num_threads == t {
        let rem = s.trip_count % s.chunk;
        if rem != 0 {
            iters -= s.chunk - rem;
        }
    }
    debug_assert_eq!(iters, s.iters_of_thread(t));
    iters
}

struct Level {
    var: usize,
    lower: i64,
    step: i64,
    trip: u64,
}

/// Random access into the lockstep iteration space: reconstructs the
/// environment thread `t` has at its `s`-th lockstep step by mixed-radix
/// decomposition — the walker's order (outer combos, then owned parallel
/// iterations, then inner combos) without walking.
struct Driver {
    sched: ChunkSchedule,
    par_level: usize,
    levels: Vec<Level>,
    inner_prod: u64,
    iters_t: Vec<u64>,
    total_steps_t: Vec<u64>,
}

impl Driver {
    fn env_at(&self, t: usize, s: u64, env: &mut [i64]) {
        debug_assert!(s < self.total_steps_t[t]);
        let inner_idx = s % self.inner_prod;
        let q = s / self.inner_prod;
        let it = self.iters_t[t];
        let par_k = q % it;
        let mut outer_idx = q / it;
        for l in (0..self.par_level).rev() {
            let lv = &self.levels[l];
            env[lv.var] = lv.lower + (outer_idx % lv.trip) as i64 * lv.step;
            outer_idx /= lv.trip;
        }
        let pos = self
            .sched
            .nth_iter_of_thread(t as u64, par_k)
            .expect("par_k < iters_of_thread");
        env[self.levels[self.par_level].var] = self.sched.iter_value(pos);
        let mut ii = inner_idx;
        for l in (self.par_level + 1..self.levels.len()).rev() {
            let lv = &self.levels[l];
            env[lv.var] = lv.lower + (ii % lv.trip) as i64 * lv.step;
            ii /= lv.trip;
        }
    }
}

/// Exact simulation state: the reference machine driven in lockstep order
/// by [`Driver`] environments and strength-reduced address streams.
struct Sim<'a> {
    driver: &'a Driver,
    cplan: &'a CompiledPlan,
    acc_size: Vec<u64>,
    acc_write: Vec<bool>,
    machine: RefMachine,
    cursors: Vec<StreamCursor>,
    env: Vec<i64>,
    spr: u64,
    /// Next global lockstep step to simulate.
    cur: u64,
}

impl Sim<'_> {
    /// Simulate lockstep steps `[cur, until)`, accumulating into `res`.
    /// `res.steps` is relative to `res` (zero for a recording window), so
    /// callers must keep window starts aligned to `spr`.
    fn run_to(&mut self, until: u64, res: &mut FsModelResult) {
        let Sim {
            driver,
            cplan,
            acc_size,
            acc_write,
            machine,
            cursors,
            env,
            spr,
            cur,
        } = self;
        let spr = *spr;
        while *cur < until {
            let s = *cur;
            let mut active = 0u64;
            for (t, (cursor, &total)) in cursors.iter_mut().zip(&driver.total_steps_t).enumerate() {
                if s < total {
                    driver.env_at(t, s, env);
                    let addrs = cursor.advance(cplan, env);
                    for (i, &raw) in addrs.iter().enumerate() {
                        machine.access(t, raw as u64, acc_size[i], acc_write[i], res);
                    }
                    active += 1;
                }
            }
            *cur += 1;
            res.steps += 1;
            res.iterations += active;
            if res.steps.is_multiple_of(spr) {
                let run = res.steps / spr;
                res.series.push((run, res.fs_cases));
                res.events_series.push((run, res.fs_events));
            }
        }
    }
}

/// The per-array byte/line regions of the kernel's aligned layout. Every
/// region includes the line-aligned padding plus one halo line, mirroring
/// [`loop_ir::Kernel::array_bases`]; regions must be disjoint so a line
/// shift is attributable to exactly one array.
struct Regions {
    start_byte: Vec<u64>,
    end_byte: Vec<u64>,
    start_line: Vec<u64>,
    end_line: Vec<u64>,
}

impl Regions {
    fn build(kernel: &Kernel, bases: &[u64], line_size: u64) -> Option<Regions> {
        if line_size == 0 || bases.len() < kernel.arrays.len() {
            return None;
        }
        let n = kernel.arrays.len();
        let mut r = Regions {
            start_byte: Vec::with_capacity(n),
            end_byte: Vec::with_capacity(n),
            start_line: Vec::with_capacity(n),
            end_line: Vec::with_capacity(n),
        };
        let mut prev_end = 0u64;
        for (i, a) in kernel.arrays.iter().enumerate() {
            let start = bases[i];
            if !start.is_multiple_of(line_size) || start < prev_end {
                return None;
            }
            let sz = a.size_bytes().max(1);
            let end = start
                .checked_add(sz.div_ceil(line_size).checked_mul(line_size)?)?
                .checked_add(line_size)?;
            r.start_byte.push(start);
            r.end_byte.push(end);
            r.start_line.push(start / line_size);
            r.end_line.push(end / line_size);
            prev_end = end;
        }
        Some(r)
    }

    fn len(&self) -> usize {
        self.start_line.len()
    }

    fn region_of(&self, line: u64) -> Option<usize> {
        let idx = self.start_line.partition_point(|&s| s <= line);
        if idx == 0 {
            return None;
        }
        let r = idx - 1;
        (line < self.end_line[r]).then_some(r)
    }
}

/// A verified-extrapolation plan: the period in steps, the per-region line
/// shift one period induces, and the step bound of the uniform region the
/// shift argument is valid in.
struct ExtPlan {
    period_steps: u64,
    uniform_end: u64,
    /// Per-region resident-line shift per period (multiple of the set
    /// count, so set selection commutes).
    line_shift: Vec<i64>,
    regions: Regions,
}

fn lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let l = (a as u128 / gcd(a, b) as u128) * b as u128;
    u64::try_from(l).ok()
}

/// Derive the translation period for `kernel`, or `None` when the shift
/// argument doesn't apply (non-uniform schedule, several changing outer
/// loops, accesses escaping their array's region, or an impractically long
/// period).
#[allow(clippy::too_many_arguments)]
fn plan_extrapolation(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
    cplan: &CompiledPlan,
    sched: &ChunkSchedule,
    trips: &[u64],
    outer_prod: u64,
    inner_prod: u64,
    steps_per_run: u64,
    end_steps: u64,
) -> Option<ExtPlan> {
    let nest = &kernel.nest;
    let ls = cfg.line_size;
    let regions = Regions::build(kernel, bases, ls)?;
    let t = sched.num_threads;
    let par_level = nest.parallel.level;

    // Static interval check: every access address stays inside its array's
    // padded region at every iteration, so resident lines are attributable
    // to exactly one region and shifts never cross regions.
    let mut var_range = vec![(0i64, 0i64); kernel.vars.len()];
    for (l, lp) in nest.loops.iter().enumerate() {
        let lo = lp.lower.as_const()?;
        if trips[l] == 0 {
            return None;
        }
        let hi = lo + (trips[l] as i64 - 1) * lp.step;
        var_range[lp.var.index()] = (lo, hi);
    }
    for (a, acc) in plan.accesses.iter().enumerate() {
        let r = acc.array.index();
        if r >= regions.len() {
            return None;
        }
        let mut lo = cplan.const_of(a) as i128;
        let mut hi = lo;
        for (v, &(vmin, vmax)) in var_range.iter().enumerate() {
            let c = cplan.coeff(a, v) as i128;
            if c > 0 {
                lo += c * vmin as i128;
                hi += c * vmax as i128;
            } else if c < 0 {
                lo += c * vmax as i128;
                hi += c * vmin as i128;
            }
        }
        if lo < regions.start_byte[r] as i128 || hi >= regions.end_byte[r] as i128 {
            return None;
        }
    }

    // The changing variable: the parallel variable (per chunk round) when
    // no sequential outer loop iterates, else the single non-trivial outer
    // loop (per parallel-loop instance) under a uniform schedule.
    let (chg_var, delta_val, unit_steps, uniform_end);
    if outer_prod == 1 {
        let par = &nest.loops[par_level];
        let full_rounds = sched.trip_count / (t * sched.chunk);
        chg_var = par.var.index();
        delta_val = (t * sched.chunk) as i64 * par.step;
        unit_steps = steps_per_run;
        uniform_end = full_rounds.checked_mul(steps_per_run)?;
    } else {
        let mut changing = None;
        for (l, &trip) in trips.iter().enumerate().take(par_level) {
            if trip > 1 {
                if changing.is_some() {
                    return None;
                }
                changing = Some(l);
            }
        }
        let l = changing?;
        // Uniform instances: full chunks, equally many per thread, so
        // every thread is active at every step and instances align.
        if !sched.trip_count.is_multiple_of(sched.chunk) || !sched.num_chunks().is_multiple_of(t) {
            return None;
        }
        chg_var = nest.loops[l].var.index();
        delta_val = nest.loops[l].step;
        unit_steps = (sched.num_chunks() / t)
            .checked_mul(sched.chunk)?
            .checked_mul(inner_prod)?;
        uniform_end = end_steps;
    }
    if unit_steps == 0 || uniform_end == 0 {
        return None;
    }

    // Per-array uniform byte delta on the changing variable.
    let mut delta_r: Vec<Option<i64>> = vec![None; regions.len()];
    for (a, acc) in plan.accesses.iter().enumerate() {
        let c = cplan.coeff(a, chg_var);
        let slot = &mut delta_r[acc.array.index()];
        match *slot {
            None => *slot = Some(c),
            Some(p) if p == c => {}
            Some(_) => return None,
        }
    }

    // Period: lcm over arrays of M / gcd(|δ_r|, M), M = line_size × sets —
    // after p units every per-array shift is a whole number of lines and a
    // multiple of the set count.
    let num_sets = set_geometry(cfg.stack_lines, cfg.stack_sets).0 as u64;
    let m = ls.checked_mul(num_sets)?;
    let mut p = 1u64;
    let mut byte_delta = vec![0i64; regions.len()];
    for (r, d) in delta_r.iter().enumerate() {
        let Some(c) = *d else { continue };
        let dd = i64::try_from(c as i128 * delta_val as i128).ok()?;
        byte_delta[r] = dd;
        if dd != 0 {
            p = lcm(p, m / gcd(dd.unsigned_abs(), m))?;
        }
    }
    let period_steps = p.checked_mul(unit_steps)?;
    if period_steps > MAX_WINDOW_STEPS {
        return None;
    }
    let mut line_shift = vec![0i64; regions.len()];
    for (r, &dd) in byte_delta.iter().enumerate() {
        let total = dd as i128 * p as i128;
        debug_assert_eq!(total % ls as i128, 0);
        line_shift[r] = i64::try_from(total / ls as i128).ok()?;
    }
    Some(ExtPlan {
        period_steps,
        uniform_end,
        line_shift,
        regions,
    })
}

/// A window-boundary snapshot of the machine: writer indexes plus every
/// set's residents in MRU order.
struct Snapshot {
    writers: HashMap<u64, u64>,
    phys: HashMap<u64, u64>,
    /// `states[thread][set]` = (line, info) MRU→LRU.
    states: Vec<Vec<Vec<(u64, LineInfo)>>>,
}

fn snapshot(m: &RefMachine) -> Snapshot {
    Snapshot {
        writers: m.writers.clone(),
        phys: m.phys_writers.clone(),
        states: m
            .states
            .iter()
            .map(|st| {
                st.sets
                    .iter()
                    .map(|s| s.iter_mru().map(|(&k, &v)| (k, v)).collect())
                    .collect()
            })
            .collect(),
    }
}

fn shifted_line(line: u64, regions: &Regions, shift: &[i64], mult: i64) -> Option<u64> {
    let r = regions.region_of(line)?;
    let nl = (line as i128 + shift[r] as i128 * mult as i128) as i64 as u64;
    (nl >= regions.start_line[r] && nl < regions.end_line[r]).then_some(nl)
}

fn map_matches(
    old: &HashMap<u64, u64>,
    new: &HashMap<u64, u64>,
    regions: &Regions,
    shift: &[i64],
    mult: i64,
) -> bool {
    old.len() == new.len()
        && old.iter().all(|(&l, &v)| {
            shifted_line(l, regions, shift, mult).is_some_and(|nl| new.get(&nl) == Some(&v))
        })
}

/// Does the machine state equal `snap` translated forward by `mult`
/// windows? Key maps, per-set residency, MRU order, byte masks and writer
/// masks must all match under the shift.
fn state_matches(
    snap: &Snapshot,
    m: &RefMachine,
    regions: &Regions,
    shift: &[i64],
    mult: i64,
) -> bool {
    if !map_matches(&snap.writers, &m.writers, regions, shift, mult)
        || !map_matches(&snap.phys, &m.phys_writers, regions, shift, mult)
    {
        return false;
    }
    snap.states.iter().zip(m.states.iter()).all(|(ss, ms)| {
        ss.iter().zip(ms.sets.iter()).all(|(sv, mset)| {
            sv.len() == mset.len()
                && sv
                    .iter()
                    .zip(mset.iter_mru())
                    .all(|(&(l, info), (&ml, &minfo))| {
                        shifted_line(l, regions, shift, mult) == Some(ml) && info == minfo
                    })
        })
    })
}

/// Translate the whole machine state forward by `shift` lines per region
/// (validated before any mutation; false = leave the machine untouched).
fn translate_state(m: &mut RefMachine, regions: &Regions, shift: &[i64]) -> bool {
    if shift.iter().all(|&d| d == 0) {
        return true;
    }
    let remap = |map: &HashMap<u64, u64>| -> Option<HashMap<u64, u64>> {
        let mut out = HashMap::with_capacity(map.len());
        for (&l, &v) in map {
            out.insert(shifted_line(l, regions, shift, 1)?, v);
        }
        Some(out)
    };
    let Some(writers) = remap(&m.writers) else {
        return false;
    };
    let Some(phys) = remap(&m.phys_writers) else {
        return false;
    };
    let mut new_states: Vec<Vec<LruCache<u64, LineInfo>>> = Vec::with_capacity(m.states.len());
    for st in &m.states {
        let mut sets = Vec::with_capacity(st.sets.len());
        for set in &st.sets {
            let mut fresh = LruCache::new(set.capacity());
            // Rebuild LRU-first so MRU order is preserved.
            let entries: Vec<(u64, LineInfo)> = set.iter_mru().map(|(&k, &v)| (k, v)).collect();
            for (l, v) in entries.into_iter().rev() {
                let Some(nl) = shifted_line(l, regions, shift, 1) else {
                    return false;
                };
                fresh.insert(nl, v);
            }
            sets.push(fresh);
        }
        new_states.push(sets);
    }
    m.writers = writers;
    m.phys_writers = phys;
    for (st, sets) in m.states.iter_mut().zip(new_states) {
        st.sets = sets;
    }
    true
}

/// Merge a recorded window's deltas into the main result (series entries
/// re-based onto the main cumulative counts).
fn merge_window(main: &mut FsModelResult, win: &FsModelResult, spr: u64) {
    debug_assert!(main.steps.is_multiple_of(spr));
    let r0 = main.steps / spr;
    for &(r, f) in &win.series {
        main.series.push((r0 + r, main.fs_cases + f));
    }
    for &(r, e) in &win.events_series {
        main.events_series.push((r0 + r, main.fs_events + e));
    }
    main.fs_cases += win.fs_cases;
    main.true_sharing_cases += win.true_sharing_cases;
    main.fs_events += win.fs_events;
    main.fs_read_events += win.fs_read_events;
    main.fs_write_events += win.fs_write_events;
    main.ts_events += win.ts_events;
    for (dst, &c) in main.per_thread_cases.iter_mut().zip(&win.per_thread_cases) {
        *dst += c;
    }
    for (&l, &c) in &win.per_line_cases {
        *main.per_line_cases.entry(l).or_insert(0) += c;
    }
    main.steps += win.steps;
    main.iterations += win.iterations;
}

/// Window-by-window simulation: warm up until the machine state verifies as
/// a shifted copy of an earlier boundary, record one window's deltas, apply
/// the remaining in-fragment windows in closed form, translate the state,
/// and simulate the ragged tail. Returns false (with `sim`/`res` advanced
/// consistently) when no period verified within budget — the caller then
/// hands the run to the dense walk or declines.
fn run_windowed(
    sim: &mut Sim<'_>,
    xp: &ExtPlan,
    res: &mut FsModelResult,
    target: u64,
    per_step_work: u64,
) -> bool {
    let e_cap = xp.uniform_end.min(target);
    let period = xp.period_steps;
    let warmup_step_limit = (DIRECT_WORK_LIMIT / per_step_work.max(1)).max(period);
    // Boundary snapshots, oldest first (at most 2: periods of P and 2P are
    // both caught; longer super-periods go to the dense walk).
    let mut ring: Vec<Snapshot> = Vec::with_capacity(2);
    ring.push(snapshot(&sim.machine));

    loop {
        if sim.cur + period > e_cap || sim.cur >= warmup_step_limit {
            return false;
        }
        sim.run_to(sim.cur + period, res);
        // Compare this boundary against the previous one(s), newest first.
        let mut found: Option<u64> = None;
        for (ago, snap) in ring.iter().rev().enumerate() {
            let j = (ago + 1) as u64;
            if state_matches(snap, &sim.machine, &xp.regions, &xp.line_shift, j as i64) {
                found = Some(j);
                break;
            }
        }
        let Some(j) = found else {
            ring.push(snapshot(&sim.machine));
            if ring.len() > 2 {
                ring.remove(0);
            }
            continue;
        };
        let jp = j * period;
        // Room for the recording window plus at least one closed-form one.
        if sim.cur + 2 * jp > e_cap {
            return false;
        }
        let shift: Vec<i64> = xp.line_shift.iter().map(|&d| d * j as i64).collect();

        // Record one verified window's deltas.
        let evict0 = sim.machine.evictions;
        let mut win = FsModelResult::empty(res.per_thread_cases.len());
        sim.run_to(sim.cur + jp, &mut win);
        let win_evict = sim.machine.evictions - evict0;
        let p_runs = jp / sim.spr;
        debug_assert!(jp.is_multiple_of(sim.spr));

        let k = (e_cap - sim.cur) / jp;
        debug_assert!(k >= 1);
        if k.saturating_mul(p_runs.max(1)) > MAX_SERIES_ENTRIES {
            merge_window(res, &win, sim.spr);
            return false;
        }
        // Translate the machine past the k windows before touching counts,
        // so a (defensive) failure leaves everything consistent.
        let total_shift: Vec<i64> = shift
            .iter()
            .map(|&d| i64::try_from(d as i128 * k as i128).unwrap_or(i64::MAX))
            .collect();
        merge_window(res, &win, sim.spr);
        if !translate_state(&mut sim.machine, &xp.regions, &total_shift) {
            return false;
        }

        // Apply the k closed-form windows: series, per-line (shifted),
        // scalars, state clock.
        let r0 = res.steps / sim.spr;
        let (base_fs, base_ev) = (res.fs_cases, res.fs_events);
        for copy in 0..k {
            for &(r, f) in &win.series {
                res.series
                    .push((r0 + copy * p_runs + r, base_fs + copy * win.fs_cases + f));
            }
            for &(r, e) in &win.events_series {
                res.events_series
                    .push((r0 + copy * p_runs + r, base_ev + copy * win.fs_events + e));
            }
        }
        for (&l, &c) in &win.per_line_cases {
            match xp.regions.region_of(l) {
                Some(r) if shift[r] != 0 => {
                    for copy in 1..=k {
                        let nl = (l as i128 + shift[r] as i128 * copy as i128) as i64 as u64;
                        *res.per_line_cases.entry(nl).or_insert(0) += c;
                    }
                }
                _ => {
                    *res.per_line_cases.entry(l).or_insert(0) += c * k;
                }
            }
        }
        res.fs_cases += k * win.fs_cases;
        res.true_sharing_cases += k * win.true_sharing_cases;
        res.fs_events += k * win.fs_events;
        res.fs_read_events += k * win.fs_read_events;
        res.fs_write_events += k * win.fs_write_events;
        res.ts_events += k * win.ts_events;
        for (dst, &c) in res.per_thread_cases.iter_mut().zip(&win.per_thread_cases) {
            *dst += k * c;
        }
        res.steps += k * win.steps;
        res.iterations += k * win.iterations;
        sim.machine.evictions += k * win_evict;
        sim.cur += k * jp;

        // Exact ragged tail (short chunks / truncation).
        sim.run_to(target, res);
        return true;
    }
}
