//! The [`crate::fs::FsPath::Symbolic`] engine: closed-form
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
//! The engine simulates window by window on the dense walk's own machine
//! (`DenseMachine`) and, at each window boundary, compares the machine
//! state with a shifted snapshot from one or two windows back. A window is
//! the smallest multiple of the period whose accesses outnumber the
//! snapshot entries `WINDOW_WORK_PER_ENTRY` times over, so the bookkeeping
//! stays a bounded fraction of the simulation. One verified pair proves (by
//! induction, since the per-access transition function commutes with the
//! shift) that every later window emits the *same* count deltas on shifted
//! lines; one more simulated window records those deltas, and the
//! remaining `k` windows are applied in closed form: `O(1)` scalar updates
//! per window plus the per-line/series output the dense path would emit
//! anyway. The machine state is then translated by `k·Δ` and the ragged
//! tail (short chunks, truncation) is simulated exactly.
//!
//! When no period verifies — caches that never reach a shifted steady
//! state, super-periods longer than two windows, or a work budget spent in
//! warm-up — the simulated steps are a valid prefix of the run, and the
//! engine finishes it in place on the same machine. Runs too small to be
//! worth a window, and runs with no period plan (non-uniform schedules,
//! several changing outer loops), go straight to the dense walk. A run
//! declines when it is outside the fragment, or when the work left after a
//! failed attempt exceeds `DIRECT_WORK_LIMIT`, exactly as `fslint` falls
//! back to Unknown outside its fragment. The windows take any footprint:
//! the shift maps each resident id to its line, shifts the line and
//! interns the result, so region lines past the interner's identity
//! region shift like any other.

use crate::fs::{run_fs_model_dense, set_geometry, DenseMachine, FsModelConfig, FsModelResult};
use crate::lint::gcd;
use cache_sim::lru::DenseSetLists;
use loop_ir::schedule::ChunkSchedule;
use loop_ir::{AccessPlan, CompiledPlan, Kernel, StreamCursor};

/// Ceiling on `steps × threads × accesses` the symbolic path answers
/// without a closed form: it bounds the windowed warm-up, and a run whose
/// remaining work after a failed attempt exceeds it declines.
const DIRECT_WORK_LIMIT: u64 = 1 << 23;

/// Longest period (in lockstep steps) worth verifying.
const MAX_WINDOW_STEPS: u64 = 1 << 16;

/// Minimum accesses simulated per snapshot entry (`threads × stack lines`)
/// in one window: window boundaries sit at the smallest multiple of the
/// period with at least this many, so snapshots and compares cost a
/// bounded fraction of the simulation. Chosen from symbolic-vs-dense
/// timings on a 2-core host (docs/HOTPATH.md): at 2 the 48-thread heat c64
/// table, which never verifies, measured about 1.2x the dense walk; at 8
/// the 48-thread heat c1 table loses its closed form; 4 keeps both.
const WINDOW_WORK_PER_ENTRY: u64 = 4;

/// Fewest windows a closed form needs: one to warm up, one to verify
/// against it, one to record, and one to extrapolate. Shorter runs (at
/// full window size) go to the dense walk.
const MIN_WINDOWS: u64 = 4;

/// Ceiling on extrapolated series entries (`k × runs_per_window`): beyond
/// this the output itself is the bottleneck and no path is viable.
const MAX_SERIES_ENTRIES: u64 = 1 << 24;

/// An answer of the symbolic engine.
pub(crate) enum SymbolicRun {
    /// Counts from a verified closed form (or a run with nothing to
    /// evaluate).
    ClosedForm(FsModelResult),
    /// Exact counts on the dense tables without a closed form: the run
    /// was too small for a window, had no period plan, or no period
    /// verified and the attempt finished in place.
    Direct(FsModelResult),
    /// Outside the fragment, or the work left after a failed attempt
    /// exceeds `DIRECT_WORK_LIMIT`. Carries the run, finished in place,
    /// when an attempt had started.
    Declined(Option<FsModelResult>),
}

/// How the engine sizes its windows and lays out its line ids. Production
/// runs [`Tuning::PRODUCTION`]; tests drop the size floor to reach the
/// windows on small runs, and empty the identity id region.
#[derive(Debug, Clone, Copy)]
struct Tuning {
    /// Hand runs too short for `MIN_WINDOWS` full-size windows (and within
    /// the direct-work budget) to the dense walk.
    size_floor: bool,
    /// Size the windows' interner for an empty footprint, so that every
    /// array line past the two slack lines takes an overflow id.
    overflow_ids: bool,
}

impl Tuning {
    const PRODUCTION: Tuning = Tuning {
        size_floor: true,
        overflow_ids: false,
    };
}

/// Closed-form evaluation of the FS model. A declined run that had started
/// its windows is finished in place.
pub(crate) fn run_symbolic(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
) -> SymbolicRun {
    run_tuned(kernel, cfg, plan, bases, Tuning::PRODUCTION)
}

fn run_tuned(
    kernel: &Kernel,
    cfg: &FsModelConfig,
    plan: &AccessPlan,
    bases: &[u64],
    tuning: Tuning,
) -> SymbolicRun {
    let _span = fs_obs::span("fs.symbolic");
    let num_threads = cfg.num_threads.max(1) as usize;
    let nest = &kernel.nest;

    // Fragment gate: every loop bound compile-time constant, and a
    // well-defined static schedule. This is the same decidability line
    // `lint::ByteAffine` draws.
    let mut trips = Vec::with_capacity(nest.loops.len());
    for l in &nest.loops {
        let Some(trip) = l.const_trip_count() else {
            return SymbolicRun::Declined(None);
        };
        trips.push(trip);
    }
    let Some(sched) = ChunkSchedule::for_loop(
        nest.parallel_loop(),
        nest.parallel.schedule.chunk(),
        num_threads as u64,
    ) else {
        return SymbolicRun::Declined(None);
    };

    // Bookkeeping identical to the walking paths.
    let outer_iters = nest.outer_iters().unwrap_or(1).max(1);
    let runs_per_instance = sched.num_chunk_runs().max(1);
    let inner_clamped = nest.inner_iters_per_parallel_iter().unwrap_or(1).max(1);
    let steps_per_run = (sched.chunk * inner_clamped).max(1);
    let max_steps = cfg.max_chunk_runs.map(|r| r * steps_per_run);

    let par_level = nest.parallel.level;
    let product = |trips: &[u64]| trips.iter().try_fold(1u64, |a, &t| a.checked_mul(t));
    let (Some(inner_prod), Some(outer_prod)) = (
        product(&trips[par_level + 1..]),
        product(&trips[..par_level]),
    ) else {
        return SymbolicRun::Declined(None);
    };

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
        return SymbolicRun::ClosedForm(result);
    }

    let per_step_work = (num_threads as u64) * (plan.accesses.len() as u64).max(1);
    let direct_work = target.saturating_mul(per_step_work);
    // Without a window, the run is exact only within the direct-work
    // budget: hand it to the dense walk, or decline.
    let walk = || {
        if direct_work <= DIRECT_WORK_LIMIT {
            SymbolicRun::Direct(run_fs_model_dense(kernel, cfg, plan, bases))
        } else {
            SymbolicRun::Declined(None)
        }
    };
    // A window simulates at least `WINDOW_WORK_PER_ENTRY` accesses per
    // snapshot entry, so a run with less work than `MIN_WINDOWS` of those
    // goes to the dense walk (below) whatever its period: skip planning.
    let (sets, ways) = set_geometry(cfg.stack_lines, cfg.stack_sets);
    let snapshot_entries = (num_threads * sets * ways) as u64;
    let min_window_work = WINDOW_WORK_PER_ENTRY.saturating_mul(snapshot_entries);
    if tuning.size_floor
        && direct_work <= DIRECT_WORK_LIMIT
        && direct_work < MIN_WINDOWS.saturating_mul(min_window_work)
    {
        return walk();
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
        return walk();
    };
    // Window boundaries at the smallest multiple of the period that
    // simulates `WINDOW_WORK_PER_ENTRY` accesses per snapshot entry (a
    // multiple of a period is a period, so verification stays valid). A
    // run shorter than `MIN_WINDOWS` such windows goes to the dense walk;
    // past the direct-work budget it gets windows as large as its length
    // allows instead, down to one period.
    let period_work = xp.period_steps.saturating_mul(per_step_work);
    let e_cap = xp.uniform_end.min(target);
    let mut periods = min_window_work.div_ceil(period_work.max(1));
    if xp
        .period_steps
        .saturating_mul(periods)
        .saturating_mul(MIN_WINDOWS)
        > e_cap
    {
        if tuning.size_floor && direct_work <= DIRECT_WORK_LIMIT {
            return walk();
        }
        periods = periods.min(e_cap / xp.period_steps / MIN_WINDOWS);
    }
    let window = xp.period_steps * periods.max(1);
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
    let attempt = Attempt {
        driver: &driver,
        cplan: &cplan,
        plan,
        xp: &xp,
        num_vars: kernel.vars.len(),
        steps_per_run,
        target,
        per_step_work,
        window,
    };
    let footprint_lines = if tuning.overflow_ids {
        0
    } else {
        kernel.line_footprint(cfg.line_size)
    };
    attempt.run(DenseMachine::new(cfg, footprint_lines), result)
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
/// iterations, then inner combos) without walking — and steps it forward
/// from there like an odometer.
struct Driver {
    sched: ChunkSchedule,
    par_level: usize,
    levels: Vec<Level>,
    inner_prod: u64,
    iters_t: Vec<u64>,
    total_steps_t: Vec<u64>,
}

/// One thread's position in its iteration order: a digit per loop level
/// (the parallel level's digit counts the thread's own iterations) and the
/// environment those digits spell.
struct Odometer {
    digits: Vec<u64>,
    env: Vec<i64>,
}

impl Driver {
    /// Position `od` at thread `t`'s `s`-th step.
    fn env_at(&self, t: usize, s: u64, od: &mut Odometer) {
        debug_assert!(s < self.total_steps_t[t]);
        let inner_idx = s % self.inner_prod;
        let q = s / self.inner_prod;
        let it = self.iters_t[t];
        let mut outer_idx = q / it;
        for l in (0..self.par_level).rev() {
            let lv = &self.levels[l];
            od.digits[l] = outer_idx % lv.trip;
            od.env[lv.var] = lv.lower + od.digits[l] as i64 * lv.step;
            outer_idx /= lv.trip;
        }
        od.digits[self.par_level] = q % it;
        od.env[self.levels[self.par_level].var] = self.par_value(t, q % it);
        let mut ii = inner_idx;
        for l in (self.par_level + 1..self.levels.len()).rev() {
            let lv = &self.levels[l];
            od.digits[l] = ii % lv.trip;
            od.env[lv.var] = lv.lower + od.digits[l] as i64 * lv.step;
            ii /= lv.trip;
        }
    }

    /// Advance `od` from thread `t`'s step `s` to step `s + 1` (which must
    /// exist).
    #[inline]
    fn next_env(&self, t: usize, od: &mut Odometer) {
        for l in (0..self.levels.len()).rev() {
            let lv = &self.levels[l];
            let par = l == self.par_level;
            let d = od.digits[l] + 1;
            let radix = if par { self.iters_t[t] } else { lv.trip };
            if d < radix {
                od.digits[l] = d;
                od.env[lv.var] += if par && !d.is_multiple_of(self.sched.chunk) {
                    lv.step
                } else if par {
                    // Into this thread's next chunk, a team round later.
                    ((self.sched.num_threads - 1) * self.sched.chunk + 1) as i64 * lv.step
                } else {
                    lv.step
                };
                return;
            }
            od.digits[l] = 0;
            od.env[lv.var] = if par { self.par_value(t, 0) } else { lv.lower };
        }
        debug_assert!(false, "stepped past the end of thread {t}");
    }

    /// The parallel variable's value at thread `t`'s `k`-th own iteration.
    fn par_value(&self, t: usize, k: u64) -> i64 {
        let pos = self
            .sched
            .nth_iter_of_thread(t as u64, k)
            .expect("k < iters_of_thread");
        self.sched.iter_value(pos)
    }
}

/// Exact simulation state: the dense machine driven in lockstep order by
/// [`Driver`] environments and strength-reduced address streams.
struct Sim<'a> {
    driver: &'a Driver,
    cplan: &'a CompiledPlan,
    acc_size: Vec<u64>,
    acc_write: Vec<bool>,
    machine: DenseMachine,
    cursors: Vec<StreamCursor>,
    odometers: Vec<Odometer>,
    /// The odometers hold step `cur - 1` (false before the first step and
    /// after a closed-form jump, when they are re-seeded).
    in_step: bool,
    spr: u64,
    /// Next global lockstep step to simulate.
    cur: u64,
}

impl Sim<'_> {
    /// Simulate lockstep steps `[cur, until)`, accumulating into `res`.
    /// `res.steps` is relative to `res` (zero for a recording window), so
    /// callers must keep window starts aligned to `spr`.
    fn run_to(&mut self, until: u64, res: &mut FsModelResult) {
        if self.cur >= until {
            return;
        }
        let _walk = fs_obs::span("fs.walk");
        fs_obs::counters::FS_SYMBOLIC_WINDOW_STEPS.add(until - self.cur);
        let Sim {
            driver,
            cplan,
            acc_size,
            acc_write,
            machine,
            cursors,
            odometers,
            in_step,
            spr,
            cur,
        } = self;
        let spr = *spr;
        while *cur < until {
            let s = *cur;
            let mut active = 0u64;
            for (t, ((cursor, od), &total)) in cursors
                .iter_mut()
                .zip(odometers.iter_mut())
                .zip(&driver.total_steps_t)
                .enumerate()
            {
                if s < total {
                    if *in_step {
                        driver.next_env(t, od);
                    } else {
                        driver.env_at(t, s, od);
                    }
                    let addrs = cursor.advance(cplan, &od.env);
                    for (i, &raw) in addrs.iter().enumerate() {
                        machine.access(t, raw as u64, acc_size[i], acc_write[i], res);
                    }
                    active += 1;
                }
            }
            *in_step = true;
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

    /// Skip `steps` lockstep steps whose effect was applied in closed form.
    fn jump(&mut self, steps: u64) {
        self.cur += steps;
        self.in_step = false;
    }
}

/// Everything one windowed attempt needs besides its machine.
struct Attempt<'a> {
    driver: &'a Driver,
    cplan: &'a CompiledPlan,
    plan: &'a AccessPlan,
    xp: &'a ExtPlan,
    num_vars: usize,
    steps_per_run: u64,
    target: u64,
    per_step_work: u64,
    /// Lockstep steps between window boundaries.
    window: u64,
}

impl Attempt<'_> {
    /// Run the windows on `machine`; when no period verifies, finish the
    /// run in place.
    fn run(self, machine: DenseMachine, mut result: FsModelResult) -> SymbolicRun {
        let num_threads = result.per_thread_cases.len();
        let mut sim = Sim {
            driver: self.driver,
            cplan: self.cplan,
            acc_size: self.plan.accesses.iter().map(|a| a.size as u64).collect(),
            acc_write: self.plan.accesses.iter().map(|a| a.is_write).collect(),
            machine,
            cursors: (0..num_threads)
                .map(|_| StreamCursor::new(self.cplan))
                .collect(),
            odometers: (0..num_threads)
                .map(|_| Odometer {
                    digits: vec![0; self.driver.levels.len()],
                    env: vec![0; self.num_vars],
                })
                .collect(),
            in_step: false,
            spr: self.steps_per_run,
            cur: 0,
        };
        let windowed = run_windowed(
            &mut sim,
            self.xp,
            &mut result,
            self.target,
            self.per_step_work,
            self.window,
        );
        if windowed {
            sim.machine.finish(&mut result);
            result.finish_series(self.steps_per_run);
            return SymbolicRun::ClosedForm(result);
        }
        // The decline rule counts the work left after the failed attempt.
        let declined =
            (self.target - sim.cur).saturating_mul(self.per_step_work) > DIRECT_WORK_LIMIT;
        // The simulated steps are a valid prefix of the run.
        sim.run_to(self.target, &mut result);
        sim.machine.finish(&mut result);
        result.finish_series(self.steps_per_run);
        if declined {
            SymbolicRun::Declined(Some(result))
        } else {
            SymbolicRun::Direct(result)
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

fn shifted_line(line: u64, regions: &Regions, shift: &[i64], mult: i64) -> Option<u64> {
    let r = regions.region_of(line)?;
    let nl = (line as i128 + shift[r] as i128 * mult as i128) as i64 as u64;
    (nl >= regions.start_line[r] && nl < regions.end_line[r]).then_some(nl)
}

/// A window-boundary snapshot of a [`DenseMachine`]: each thread's
/// recency lists, every resident as its written-byte mask (a line is
/// written exactly when that is nonzero) and that thread's bit of the
/// physical writer mask. That determines both writer masks: a line's
/// `writers` mask is exactly the set of threads holding it written, and a
/// `phys_writers` bit is only ever set for a thread holding the line
/// written.
struct DenseSnapshot {
    lists: Vec<DenseSetLists<(u64, bool)>>,
}

/// The window operations on the dense walk's tables: snapshot, shifted
/// compare and translate. A shift acts on lines, not ids, so compare and
/// translate map each id to its line through the interner: region lines
/// past the identity region are overflow ids, and shift like any other.
impl DenseMachine {
    /// The invariant [`DenseSnapshot`] rests on: nonzero writer masks sit
    /// on resident written lines only, and agree with the residents.
    fn masks_follow_residents(&self) -> bool {
        let mut writers = vec![0u64; self.writers.len()];
        for (t, st) in self.states.iter().enumerate() {
            for set in 0..st.num_sets() {
                for (id, info) in st.iter_set_mru(set) {
                    if info.written {
                        writers[id as usize] |= 1 << t;
                    }
                }
            }
        }
        writers == self.writers
            && self
                .phys_writers
                .iter()
                .zip(&writers)
                .all(|(&p, &w)| p & !w == 0)
    }

    /// Every resident line id (once per thread holding it).
    fn resident_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.states.iter().flat_map(|st| {
            (0..st.num_sets()).flat_map(move |set| st.iter_set_mru(set).map(|(id, _)| id))
        })
    }

    /// Snapshot the state, reusing the buffers of `old` when given.
    fn snapshot(&self, old: Option<DenseSnapshot>) -> DenseSnapshot {
        debug_assert!(self.masks_follow_residents());
        let mut snap = old.unwrap_or(DenseSnapshot { lists: Vec::new() });
        snap.lists.resize_with(self.states.len(), Default::default);
        for (t, (st, lists)) in self.states.iter().zip(&mut snap.lists).enumerate() {
            st.copy_lists(lists, |id, info| {
                debug_assert_eq!(info.written, info.written_bytes != 0);
                (
                    info.written_bytes,
                    self.phys_writers[id as usize] & (1 << t) != 0,
                )
            });
        }
        snap
    }

    /// Does the state equal `snap` translated forward by `mult` periods?
    fn state_matches(
        &self,
        snap: &DenseSnapshot,
        regions: &Regions,
        shift: &[i64],
        mult: i64,
    ) -> bool {
        let sets = self.states.first().map_or(1, |st| st.num_sets());
        let lists = self.states.len() * sets;
        // Start where the previous compare failed: a boundary that is not
        // a shifted copy usually differs in the same few threads.
        let first = self.mismatch_hint.get() % lists.max(1);
        for list in (first..lists).chain(0..first) {
            let (t, set) = (list / sets, list % sets);
            let (st, old) = (&self.states[t], &snap.lists[t]);
            let same = st.set_len(set) == old.set_len(set)
                && old.iter_set_mru(set).zip(st.iter_set_mru(set)).all(
                    |((old_id, &(old_bytes, old_phys)), (id, info))| {
                        info.written_bytes == old_bytes
                            && shifted_line(self.interner.line_of(old_id), regions, shift, mult)
                                == Some(self.interner.line_of(id))
                            && (self.phys_writers[id as usize] & (1 << t) != 0) == old_phys
                    },
                );
            if !same {
                self.mismatch_hint.set(list);
                return false;
            }
        }
        true
    }

    /// Translate the state forward by `shift` lines per region, interning
    /// the shifted lines (validated before any mutation; false = state
    /// untouched).
    fn translate_state(&mut self, regions: &Regions, shift: &[i64]) -> bool {
        if shift.iter().all(|&d| d == 0) {
            return true;
        }
        let ids: Vec<u32> = self.resident_ids().collect();
        let interner = &mut self.interner;
        if !ids
            .iter()
            .all(|&id| shifted_line(interner.line_of(id), regions, shift, 1).is_some())
        {
            return false;
        }
        let mut rename = |id: u32| {
            let line = shifted_line(interner.line_of(id), regions, shift, 1);
            interner.id_of(line.expect("resident lines validated above"))
        };
        // Only resident lines carry writer masks: take them all out before
        // writing any back, since old and new ids may overlap.
        let mut moved = Vec::new();
        for &id in &ids {
            let i = id as usize;
            let (w, p) = (self.writers[i], self.phys_writers[i]);
            if w | p != 0 {
                moved.push((rename(id) as usize, w, p));
                self.writers[i] = 0;
                self.phys_writers[i] = 0;
            }
        }
        for st in &mut self.states {
            let renamed = st.rename_keys(|id| Some(rename(id)));
            assert!(renamed, "resident lines validated above");
        }
        // Shifted lines past the identity region may have taken new ids.
        if self.interner.slots() > self.writers.len() {
            self.grow_tables(self.interner.slots());
        }
        for (i, w, p) in moved {
            self.writers[i] = w;
            self.phys_writers[i] = p;
        }
        true
    }
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
/// finishes the run in place or declines.
fn run_windowed(
    sim: &mut Sim<'_>,
    xp: &ExtPlan,
    res: &mut FsModelResult,
    target: u64,
    per_step_work: u64,
    window: u64,
) -> bool {
    let e_cap = xp.uniform_end.min(target);
    let periods = window / xp.period_steps;
    let warmup_step_limit = (DIRECT_WORK_LIMIT / per_step_work.max(1)).max(window);
    // Boundary snapshots, oldest first (at most 2: periods of one and two
    // windows are both caught; longer super-periods finish in place).
    let mut ring: Vec<DenseSnapshot> = Vec::with_capacity(2);
    ring.push(sim.machine.snapshot(None));

    loop {
        if sim.cur.saturating_add(window) > e_cap || sim.cur >= warmup_step_limit {
            return false;
        }
        sim.run_to(sim.cur + window, res);
        // Compare this boundary against the previous one(s), newest first.
        let mut found: Option<u64> = None;
        for (ago, snap) in ring.iter().rev().enumerate() {
            let j = (ago + 1) as u64;
            if sim
                .machine
                .state_matches(snap, &xp.regions, &xp.line_shift, (j * periods) as i64)
            {
                found = Some(j);
                break;
            }
        }
        let Some(j) = found else {
            // A match one window on could not leave room to record and
            // extrapolate, so no later boundary can verify: stop here and
            // skip the snapshot, unless the stopping point still decides a
            // decline.
            let may_decline = target.saturating_mul(per_step_work) > DIRECT_WORK_LIMIT;
            if !may_decline && sim.cur + 3 * window > e_cap {
                return false;
            }
            let reuse = (ring.len() == 2).then(|| ring.remove(0));
            ring.push(sim.machine.snapshot(reuse));
            continue;
        };
        let jp = j * window;
        // Room for the recording window plus at least one closed-form one.
        if sim.cur + 2 * jp > e_cap {
            return false;
        }
        let shift: Vec<i64> = xp
            .line_shift
            .iter()
            .map(|&d| d * (j * periods) as i64)
            .collect();

        // Record one verified window's deltas.
        sim.machine.flush_line_cases(res);
        let evict0 = sim.machine.evictions;
        let mut win = FsModelResult::empty(res.per_thread_cases.len());
        sim.run_to(sim.cur + jp, &mut win);
        sim.machine.flush_line_cases(&mut win);
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
        if !sim.machine.translate_state(&xp.regions, &total_shift) {
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
        sim.jump(k * jp);
        fs_obs::counters::FS_SYMBOLIC_EXTRAPOLATED_STEPS.add(k * jp);

        // Exact ragged tail (short chunks / truncation).
        sim.run_to(target, res);
        return true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{run_fs_model, FsPath};
    use loop_ir::kernels;
    use machine::presets;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A small in-fragment kernel: the corpus shapes plus a transpose.
    fn kernel(template: usize, scale: u64, chunk: u64) -> Kernel {
        match template {
            0 => kernels::heat_diffusion(10 + 24 * scale, 18 + 16 * scale, chunk),
            1 => kernels::dft(4 * scale, 32 * scale, chunk),
            2 => kernels::linear_regression(256 * scale, 2 + 2 * scale, chunk),
            3 => kernels::matmul(64 * scale, 8, 4, chunk),
            4 => kernels::stencil1d(64 * scale + 2, chunk),
            _ => kernels::transpose(8 * scale, 8 * scale, chunk),
        }
    }

    /// The window engine with no size floor, so that small runs take the
    /// windows and the extrapolation too, gives the reference path's counts
    /// on every in-fragment case, under both id layouts: region lines as
    /// their own ids, and (with the identity region emptied) region lines
    /// as overflow ids, which the shift must intern. A declined attempt is
    /// finished in place and checked as well. Each layout must extrapolate
    /// in at least one case in twenty, so the property cannot go vacuous.
    #[test]
    fn window_engine_matches_reference_on_both_id_layouts() {
        static EXTRAPOLATED: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
        static CASES: AtomicU64 = AtomicU64::new(0);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]
            fn cases(
                template in 0usize..6,
                scale in 1u64..5,
                threads in 1u32..9,
                chunk in prop::sample::select(vec![1u64, 2, 4, 16]),
                stack_lines in prop::sample::select(vec![8usize, 32, 768]),
                stack_sets in prop::sample::select(vec![1u32, 2, 3, 64]),
                invalidate in any::<bool>(),
                count_ts in any::<bool>(),
                max_runs in prop::sample::select(vec![None, Some(3u64), Some(40)]),
            ) {
                let k = kernel(template, scale, chunk);
                let mut cfg = FsModelConfig::for_machine(&presets::paper48(), threads);
                cfg.stack_lines = stack_lines;
                cfg.stack_sets = stack_sets;
                cfg.invalidate_on_detect = invalidate;
                cfg.count_true_sharing = count_ts;
                cfg.max_chunk_runs = max_runs;
                cfg.path = FsPath::Reference;
                let want = run_fs_model(&k, &cfg);
                let plan = k.access_plan();
                let bases = k.array_bases(cfg.line_size);
                let ctx = format!("{} threads={threads} {cfg:?}", k.name);
                CASES.fetch_add(1, Ordering::Relaxed);
                for (m, overflow_ids) in [false, true].into_iter().enumerate() {
                    let tuning = Tuning { size_floor: false, overflow_ids };
                    let got = match run_tuned(&k, &cfg, &plan, &bases, tuning) {
                        SymbolicRun::ClosedForm(r) => {
                            EXTRAPOLATED[m].fetch_add(1, Ordering::Relaxed);
                            r
                        }
                        SymbolicRun::Direct(r) | SymbolicRun::Declined(Some(r)) => r,
                        SymbolicRun::Declined(None) => {
                            return Err(TestCaseError::fail(format!("{ctx}: declined")));
                        }
                    };
                    prop_assert_eq!(&got, &want, "{} (overflow ids: {})", ctx, overflow_ids);
                }
            }
        }
        cases();
        let cases = CASES.load(Ordering::Relaxed);
        for (m, name) in ["identity", "overflow"].into_iter().enumerate() {
            let n = EXTRAPOLATED[m].load(Ordering::Relaxed);
            assert!(
                n * 20 >= cases,
                "{name} id layout extrapolated only {n} of {cases} cases"
            );
        }
    }
}
