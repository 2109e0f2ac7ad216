//! Kernels: a named loop nest plus its array declarations, and the
//! precompiled access plan used by trace generation and the FS model.

use crate::array::{ArrayDecl, ArrayId, ElemLayout, FieldId};
use crate::expr::{AffineExpr, VarId};
use crate::nest::{Loop, LoopNest, Parallel, Schedule};
use crate::stmt::Stmt;
use crate::types::ScalarType;

/// A complete analyzable unit: arrays + a parallel loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    /// Loop variable names; `VarId(i)` names `vars[i]`. Position equals loop
    /// depth in the nest.
    pub vars: Vec<String>,
    pub arrays: Vec<ArrayDecl>,
    pub nest: LoopNest,
}

impl Kernel {
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    pub fn array_named(&self, name: &str) -> Option<(ArrayId, &ArrayDecl)> {
        self.arrays
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .map(|(i, a)| (ArrayId(i as u32), a))
    }

    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()]
    }

    /// Precompile the innermost-body references into a flat [`AccessPlan`].
    pub fn access_plan(&self) -> AccessPlan {
        AccessPlan::new(self)
    }

    /// Visit every array reference of the body mutably (LHS and RHS) — the
    /// hook IR transformations like padding use to rewrite accesses.
    pub fn map_refs(&mut self, mut f: impl FnMut(&mut crate::reference::ArrayRef)) {
        for stmt in &mut self.nest.body {
            f(&mut stmt.lhs);
            stmt.rhs.visit_refs_mut(&mut f);
        }
    }

    /// Assign each array a disjoint, cache-line-aligned base address, in
    /// declaration order. The paper's model assumes "all array variables are
    /// aligned with the cache line boundary" (§III-B); spacing bases a full
    /// `align` apart additionally guarantees distinct arrays never share a
    /// line.
    pub fn array_bases(&self, align: u64) -> Vec<u64> {
        let mut bases = Vec::with_capacity(self.arrays.len());
        let mut next = align; // leave page 0 unused
        for a in &self.arrays {
            bases.push(next);
            let sz = a.size_bytes().max(1);
            next += sz.div_ceil(align) * align + align;
        }
        bases
    }

    /// Number of cache lines spanned by the [`Kernel::array_bases`] layout:
    /// every in-bounds reference falls in a line `< line_footprint(...)`.
    /// Both fast engines size their dense line tables from this;
    /// out-of-footprint lines (halo reads past an array end, wrapped
    /// negative addresses) take their hash-map fallback.
    pub fn line_footprint(&self, line_size: u64) -> u64 {
        let line_size = line_size.max(1);
        let bases = self.array_bases(line_size);
        match (bases.last(), self.arrays.last()) {
            (Some(&base), Some(decl)) => (base + decl.size_bytes().max(1)).div_ceil(line_size),
            _ => 0,
        }
    }
}

/// One memory access of the innermost body, with everything precomputed
/// except the loop-index values.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAccess {
    pub array: ArrayId,
    pub indices: Vec<AffineExpr>,
    /// Byte offset within the element (struct field offset, 0 for scalars).
    pub field_offset: u32,
    /// Access width in bytes.
    pub size: u32,
    pub is_write: bool,
    /// Element size of the array, cached for linearization.
    pub elem_size: u32,
    /// Row-major dimension extents of the array, cached.
    pub dims: Vec<u64>,
}

impl PlannedAccess {
    /// Absolute byte address of this access at the iteration given by `env`,
    /// with `bases[array]` the array base address. `idx_buf` is scratch of
    /// length >= indices.len().
    #[inline]
    #[allow(clippy::needless_range_loop)]
    pub fn address(&self, env: &[i64], bases: &[u64], idx_buf: &mut [i64]) -> u64 {
        let n = self.indices.len();
        for k in 0..n {
            idx_buf[k] = self.indices[k].eval(env);
        }
        let mut lin: i64 = 0;
        for k in 0..n {
            lin = lin * self.dims[k] as i64 + idx_buf[k];
        }
        let byte = lin * self.elem_size as i64 + self.field_offset as i64;
        (bases[self.array.index()] as i64 + byte) as u64
    }
}

/// The innermost body lowered to a flat sequence of [`PlannedAccess`]es in
/// program order (per statement: RHS reads, LHS read if compound, LHS
/// write). This is "step 1" of the paper's model — obtaining the array
/// references — done once per kernel instead of per iteration.
#[derive(Debug, Clone)]
pub struct AccessPlan {
    pub accesses: Vec<PlannedAccess>,
    /// Maximum subscript arity, for sizing scratch buffers.
    pub max_rank: usize,
}

impl AccessPlan {
    pub fn new(kernel: &Kernel) -> AccessPlan {
        let mut accesses = Vec::new();
        for stmt in &kernel.nest.body {
            for r in stmt.references() {
                let decl = kernel.array(r.array);
                let (foff, size) = decl.elem.field_offset_size(r.field);
                accesses.push(PlannedAccess {
                    array: r.array,
                    indices: r.indices.clone(),
                    field_offset: foff as u32,
                    size: size as u32,
                    is_write: r.access.is_write(),
                    elem_size: decl.elem.size_bytes() as u32,
                    dims: decl.dims.clone(),
                });
            }
        }
        let max_rank = accesses.iter().map(|a| a.indices.len()).max().unwrap_or(0);
        AccessPlan { accesses, max_rank }
    }

    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Number of write accesses per innermost iteration.
    pub fn writes_per_iter(&self) -> usize {
        self.accesses.iter().filter(|a| a.is_write).count()
    }

    /// Strength-reduce the plan against a base-address layout: fold every
    /// access's subscripts and row-major weights into per-loop-variable
    /// byte deltas, for incremental address generation with
    /// [`crate::stream::StreamCursor`] /
    /// [`crate::walk::LockstepWalker::step_streams`]. `n_vars` is the
    /// environment width ([`Kernel::vars`]`.len()`).
    pub fn compile(&self, n_vars: usize, bases: &[u64]) -> crate::stream::CompiledPlan {
        crate::stream::CompiledPlan::new(self, n_vars, bases)
    }
}

/// Fluent builder for [`Kernel`]s.
///
/// ```
/// use loop_ir::{KernelBuilder, ScalarType, Schedule, Expr, Stmt, ArrayRef};
///
/// let mut b = KernelBuilder::new("saxpy");
/// let i = b.loop_var("i");
/// let x = b.array("x", &[1024], ScalarType::F32);
/// let y = b.array("y", &[1024], ScalarType::F32);
/// b.parallel_for(i, 0, 1024, Schedule::Static { chunk: 1 });
/// b.stmt(Stmt::assign(
///     ArrayRef::write(y, vec![b.idx(i)]),
///     Expr::add(
///         Expr::mul(Expr::num(2.0), Expr::read(ArrayRef::read(x, vec![b.idx(i)]))),
///         Expr::read(ArrayRef::read(y, vec![b.idx(i)])),
///     ),
/// ));
/// let kernel = b.build();
/// assert_eq!(kernel.nest.depth(), 1);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    vars: Vec<String>,
    arrays: Vec<ArrayDecl>,
    loops: Vec<Loop>,
    body: Vec<Stmt>,
    parallel: Option<Parallel>,
}

impl KernelBuilder {
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            name: name.to_string(),
            vars: Vec::new(),
            arrays: Vec::new(),
            loops: Vec::new(),
            body: Vec::new(),
            parallel: None,
        }
    }

    /// Declare a loop variable. Declaration order must match nesting depth.
    pub fn loop_var(&mut self, name: &str) -> VarId {
        self.vars.push(name.to_string());
        VarId(self.vars.len() as u32 - 1)
    }

    /// Declare an array with scalar elements.
    pub fn array(&mut self, name: &str, dims: &[u64], ty: ScalarType) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            dims: dims.to_vec(),
            elem: ElemLayout::Scalar(ty),
        });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Declare an array with struct elements.
    pub fn struct_array(&mut self, name: &str, dims: &[u64], elem: ElemLayout) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            dims: dims.to_vec(),
            elem,
        });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Field id of a struct array's field, by name.
    pub fn field(&self, array: ArrayId, name: &str) -> FieldId {
        self.arrays[array.index()]
            .elem
            .field_named(name)
            .unwrap_or_else(|| panic!("array has no field named {name}"))
            .0
    }

    /// Convenience: the affine expression for a bare loop variable.
    pub fn idx(&self, v: VarId) -> AffineExpr {
        AffineExpr::var(v)
    }

    /// Add a sequential loop `for var in lo..hi` at the next depth.
    pub fn seq_for(&mut self, var: VarId, lo: impl Into<AffineExpr>, hi: impl Into<AffineExpr>) {
        self.seq_for_step(var, lo, hi, 1);
    }

    /// Add a sequential loop with an explicit step.
    pub fn seq_for_step(
        &mut self,
        var: VarId,
        lo: impl Into<AffineExpr>,
        hi: impl Into<AffineExpr>,
        step: i64,
    ) {
        assert_eq!(
            var.index(),
            self.loops.len(),
            "loops must be added outermost-first with vars declared in depth order"
        );
        self.loops.push(Loop {
            var,
            lower: lo.into(),
            upper: hi.into(),
            step,
        });
    }

    /// Add the parallel (work-shared) loop at the next depth.
    pub fn parallel_for(
        &mut self,
        var: VarId,
        lo: impl Into<AffineExpr>,
        hi: impl Into<AffineExpr>,
        schedule: Schedule,
    ) {
        assert!(self.parallel.is_none(), "only one parallel loop per nest");
        let level = self.loops.len();
        self.seq_for(var, lo, hi);
        self.parallel = Some(Parallel { level, schedule });
    }

    /// Append a body statement (executed in the innermost loop).
    pub fn stmt(&mut self, s: Stmt) {
        self.body.push(s);
    }

    /// Finish. Panics if no loops, no parallel annotation, or empty body —
    /// use [`crate::validate()`] for recoverable error reporting.
    pub fn build(self) -> Kernel {
        assert!(!self.loops.is_empty(), "kernel needs at least one loop");
        assert!(!self.body.is_empty(), "kernel needs a loop body");
        let parallel = self.parallel.expect("kernel needs a parallel loop");
        Kernel {
            name: self.name,
            vars: self.vars,
            arrays: self.arrays,
            nest: LoopNest {
                loops: self.loops,
                body: self.body,
                parallel,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ArrayRef;
    use crate::stmt::Expr;

    fn build_2d() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let i = b.loop_var("i");
        let j = b.loop_var("j");
        let a = b.array("A", &[8, 16], ScalarType::F64);
        let s = b.struct_array(
            "acc",
            &[8],
            ElemLayout::packed_struct(&[("sx", ScalarType::F64), ("sy", ScalarType::F64)]),
        );
        b.parallel_for(i, 0, 8, Schedule::Static { chunk: 1 });
        b.seq_for(j, 0, 16);
        let sx = b.field(s, "sx");
        b.stmt(Stmt::add_assign(
            ArrayRef::write(s, vec![b.idx(i)]).with_field(sx),
            Expr::read(ArrayRef::read(a, vec![b.idx(i), b.idx(j)])),
        ));
        b.build()
    }

    #[test]
    fn builder_constructs_consistent_kernel() {
        let k = build_2d();
        assert_eq!(k.vars, vec!["i", "j"]);
        assert_eq!(k.nest.depth(), 2);
        assert_eq!(k.nest.parallel.level, 0);
        assert_eq!(k.array_named("A").unwrap().0, ArrayId(0));
        assert_eq!(k.var_name(VarId(1)), "j");
    }

    #[test]
    fn access_plan_orders_and_sizes() {
        let k = build_2d();
        let plan = k.access_plan();
        // read A[i][j], read acc[i].sx (compound), write acc[i].sx
        assert_eq!(plan.len(), 3);
        assert!(!plan.accesses[0].is_write);
        assert_eq!(plan.accesses[0].size, 8);
        assert!(!plan.accesses[1].is_write);
        assert!(plan.accesses[2].is_write);
        assert_eq!(plan.accesses[2].elem_size, 16);
        assert_eq!(plan.writes_per_iter(), 1);
        assert_eq!(plan.max_rank, 2);
    }

    #[test]
    fn planned_access_addresses() {
        let k = build_2d();
        let plan = k.access_plan();
        let bases = k.array_bases(64);
        let mut buf = [0i64; 2];
        // A[2][3] at env (i=2, j=3): base + (2*16+3)*8
        let addr = plan.accesses[0].address(&[2, 3], &bases, &mut buf);
        assert_eq!(addr, bases[0] + 35 * 8);
        // acc[2].sx: base1 + 2*16 + 0
        let addr = plan.accesses[2].address(&[2, 3], &bases, &mut buf);
        assert_eq!(addr, bases[1] + 32);
    }

    #[test]
    fn array_bases_are_aligned_and_disjoint() {
        let k = build_2d();
        let bases = k.array_bases(64);
        assert_eq!(bases.len(), 2);
        for b in &bases {
            assert_eq!(b % 64, 0);
        }
        // A is 8*16*8 = 1024 bytes; acc must start past it.
        assert!(bases[1] >= bases[0] + 1024);
    }
}
