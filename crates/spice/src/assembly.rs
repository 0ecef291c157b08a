//! The solve driver: build the sparsity pattern once, then restamp values
//! in place and refactor with a reused pivot order.
//!
//! Every analysis in this crate solves the same shape of problem many times
//! over: an AC sweep assembles `Y(jω)` at hundreds of frequencies, a DC
//! Newton loop re-linearizes at every iteration, a transient run re-stamps
//! companion models at every timestep — and in all cases the **sparsity
//! pattern never changes**, only the values. The naive pipeline (triplet
//! accumulation → sort/dedup to CSR → pivoting factorization) repays none of
//! that structure.
//!
//! [`SolveContext`] is the structured pipeline, and every analysis drives
//! its solves through it:
//!
//! 1. **Assembly** zeroes the CSR values and replays the element stamps
//!    through a [`SlotSink`], which adds each stamp into its value slot,
//!    found by a binary search within the row. No allocation, no sorting,
//!    no BTreeMap. Only an adopting context's first assembly builds the
//!    pattern, through a [`TripletMatrix`](loopscope_sparse::TripletMatrix);
//!    a later stamp outside it panics in every context. Stamp positions
//!    depend only on the element kinds and the layout: a capacitor is open
//!    at DC and a companion model in every transient step, sources stamp
//!    the right-hand side alone, a diode stamps a 2×2 block, a BJT a 3×3
//!    block, and a MOSFET `{d,s}×{g,d,s}` whichever terminal acts as drain.
//!    An AC sweep point skips the stamps altogether and loads its values
//!    from the analysis's compiled [`AffineImage`] `G + jω·C`, bit for bit
//!    the values a stamped assembly produces. A DC or transient Newton
//!    iteration loads its matrix from a compiled [`NewtonImage`] and its
//!    evaluated device stamps, and runs its stamp pass for the right-hand
//!    side alone.
//! 2. **Factorization** is the numeric-only, allocation-free
//!    [`SparseLu::refactor_into`] against a [`SymbolicLu`] captured once
//!    from a fresh [`SparseLu::factor`] (block-triangular form, a
//!    minimum-degree column order per block and threshold pivoting).
//!    `refactor_into` never re-pivots; when it reports a degraded pivot,
//!    the context re-pivots with a fresh `factor` — this module is the only
//!    place that does. An adopting context skips the refactorization when
//!    a Newton assembly's keys say its values are those it last refactored.
//! 3. **Verified solve** runs one retry ladder — iterative refinement, a
//!    fresh factorization, then the gmin bumps of [`GMIN_BUMP_LADDER`] —
//!    and returns a [`SolveQuality`] or a name-enriched [`SpiceError`].
//!
//! [`SolveStats`] counts what actually happened, which is how the tests (and
//! the `solver_refactor` bench) assert that e.g. a whole AC sweep performs
//! exactly one symbolic analysis.
//!
//! # Two re-plan policies
//!
//! A context differs from another only in what it does when its symbolic
//! analysis stops serving — a degraded pivot, a residual retry or a gmin
//! rescue each produce a fresh pivot order. The policy is fixed by the
//! constructor:
//!
//! * [`SweepPlan::context`] **never re-plans**: the same pipeline split into
//!   an immutable, shareable plan (slot maps, CSR pattern, symbolic
//!   analysis) and a per-worker context holding every mutable buffer. A
//!   fresh factorization serves its one point only, so each point's result
//!   is a pure function of its job and [`crate::par::sweep_chunks`] can chunk
//!   a sweep across worker threads with bitwise-identical results at any
//!   worker count. Its value buffer is the only matrix it holds: the stamp
//!   positions of a sweep do not depend on the swept value. A sweep plan
//!   can be narrowed to one diagonal block of its block-triangular form
//!   (`SweepPlan::block_plan`, what a driving-point probe solves); a
//!   context of that plan gathers its values from the whole system's and
//!   names its errors after the whole system's unknowns.
//! * [`SolveContext::adopting`] **adopts** every fresh pivot order as its
//!   new plan. That is the right shape for DC Newton loops and transient
//!   stepping, where operating regions drift and each solve follows the
//!   previous one on a single thread.
//!
//! Neither re-plans a pattern: an assembly outside the context's pattern is
//! a caller bug and panics.

use crate::devices::NonlinearStamp;
use crate::error::SpiceError;
use crate::mna::{MatrixSink, MnaLayout, Stamper};
use loopscope_math::{Complex64, TWO_PI};
use loopscope_sparse::{
    CsrMatrix, InverseWorkspace, LuWorkspace, RefineWorkspace, Scalar, SolveError, SolveQuality,
    SparseLu, SymbolicLu,
};
use std::sync::Arc;

/// Per-point gmin bump schedule of the solve retry ladder: on its last rung
/// the ladder adds each value in turn to every stored node-voltage diagonal
/// and retries a fresh factorization, regularizing near-singular systems the
/// way SPICE's gmin does. The schedule is a fixed constant — no randomness,
/// no state carried between points — so the ladder's decisions at a sweep
/// point are a pure function of that point's values and parallel sweeps stay
/// bitwise reproducible.
pub const GMIN_BUMP_LADDER: [f64; 2] = [1.0e-9, 1.0e-6];

/// Adds `bump` to every stored node-voltage diagonal slot (`0..node_vars`),
/// returning whether at least one such slot exists in the pattern. Branch
/// rows (voltage sources, inductors) are never bumped — a shunt conductance
/// there has no physical meaning.
fn bump_node_diagonals<T: Scalar>(matrix: &mut CsrMatrix<T>, node_vars: usize, bump: f64) -> bool {
    let limit = node_vars.min(matrix.rows()).min(matrix.cols());
    let mut any = false;
    for v in 0..limit {
        if let Some(slot) = matrix.find_slot(v, v) {
            matrix.values_mut()[slot] += T::from_f64(bump);
            any = true;
        }
    }
    any
}

/// Adds `bump` to each of the stored `entries`, returning whether there is
/// one: the gmin rung of a block context, whose node-voltage diagonals are
/// the [`SweepPlan::block_plan`]'s.
fn bump_entries<T: Scalar>(matrix: &mut CsrMatrix<T>, entries: &[usize], bump: f64) -> bool {
    let values = matrix.values_mut();
    for &e in entries {
        values[e] += T::from_f64(bump);
    }
    !entries.is_empty()
}

/// A circuit-assembly job: stamps one MNA system into any matrix sink.
///
/// Implementations must be **pure**: calling [`stamp`](AssembleMna::stamp)
/// twice with equivalent sinks must produce the same entries, because the
/// compiled images ([`NewtonImage`], [`AffineImage`]) replay one pass of a
/// job for the assemblies that follow it.
pub trait AssembleMna<T: Scalar> {
    /// Stamps the matrix entries and right-hand side for this job.
    fn stamp<S: MatrixSink<T>>(&self, stamper: &mut Stamper<'_, T, S>);
}

/// Matrix sink that accumulates stamps into the value slots of an existing
/// CSR pattern, finding each stamp's slot by a binary search within its row
/// ([`CsrMatrix::find_slot`]). Records (instead of panicking on) stamps that
/// fall outside the pattern so the caller can report them.
#[derive(Debug)]
pub struct SlotSink<'m, T: Scalar> {
    csr: &'m mut CsrMatrix<T>,
    missed: bool,
}

impl<'m, T: Scalar> SlotSink<'m, T> {
    /// Wraps a CSR matrix whose values have already been zeroed.
    pub fn new(csr: &'m mut CsrMatrix<T>) -> Self {
        Self { csr, missed: false }
    }

    /// `true` when at least one stamp addressed a position outside the
    /// pattern (the assembly is then incomplete).
    pub fn missed(&self) -> bool {
        self.missed
    }
}

impl<T: Scalar> MatrixSink<T> for SlotSink<'_, T> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: T) {
        match self.csr.find_slot(row, col) {
            Some(slot) => self.csr.values_mut()[slot] += value,
            None => self.missed = true,
        }
    }
}

/// Matrix sink that compiles an AC assembly job stamped at `jω = (0, 1)`
/// into an [`AffineImage`] over a fixed pattern: the real part of every
/// stamp accumulates into `G` in stamp order, and every imaginary part that
/// is not a signed zero is kept, in stamp order, as a `C` term of its slot.
#[derive(Debug)]
pub(crate) struct AffineSink<'m> {
    pattern: &'m CsrMatrix<Complex64>,
    g: Vec<f64>,
    c_terms: Vec<(u32, f64)>,
    missed: bool,
}

impl<'m> AffineSink<'m> {
    /// An empty image over `pattern`.
    pub(crate) fn new(pattern: &'m CsrMatrix<Complex64>) -> Self {
        Self {
            pattern,
            g: vec![0.0; pattern.nnz()],
            c_terms: Vec::new(),
            missed: false,
        }
    }

    /// The compiled image with the job's right-hand side, or `None` when a
    /// stamp fell outside the pattern.
    pub(crate) fn finish(self, rhs: Vec<Complex64>) -> Option<AffineImage> {
        (!self.missed).then_some(AffineImage {
            g: self.g,
            c_terms: self.c_terms,
            rhs,
        })
    }
}

impl MatrixSink<Complex64> for AffineSink<'_> {
    fn add(&mut self, row: usize, col: usize, value: Complex64) {
        let Some(slot) = self.pattern.find_slot(row, col) else {
            self.missed = true;
            return;
        };
        self.g[slot] += value.re;
        // `!= 0.0` keeps NaN, which a load must reproduce.
        if value.im != 0.0 {
            let slot = u32::try_from(slot).expect("pattern index fits u32");
            self.c_terms.push((slot, value.im));
        }
    }
}

/// A compiled AC admittance system `Y(jω) = G + jω·C` over a fixed pattern,
/// plus the ω-independent right-hand side of the source-driven sweep.
///
/// Every AC stamp is affine in `jω`: resistors, controlled sources, source
/// incidences and device conductances are real, while capacitors, inductors
/// and device capacitances enter only as `jω·x`. So the stamps can run once,
/// at `jω = (0, 1)` through an affine sink, and each frequency point then
/// [loads](AffineImage::load_into) its values in two flat passes instead of
/// re-running every element stamp.
///
/// # Why a load is bitwise identical to a stamped assembly
///
/// Complex `+=` adds the real and imaginary parts separately, so each part
/// of each slot is its own running sum, starting at `+0.0`, over the stamps
/// that hit the slot in stamp order.
///
/// * **Real part.** A stamp's real part does not depend on ω: it is the
///   real value itself, or `0·x` for a `jω·x` stamp (`jω` is `(0, w)`). `G`
///   is the same sum over the same terms in the same order.
/// * **Imaginary part.** At `jω = (0, 1)` a `jω·x` stamp's imaginary part is
///   `1·x = x` exactly, so the recorded term `c` is `x` (or `−x` for a
///   negated stamp), and the load adds `w·c`: the stamped `w·x`, or
///   `w·(−x) = −(w·x)`, since rounding is symmetric in sign. Every other
///   stamp's imaginary part is a signed zero. A running sum that starts at
///   `+0.0` is never `−0.0` under round-to-nearest (`x + (−x)` and
///   `+0 + −0` are both `+0`), so adding a signed zero leaves it unchanged
///   — which is why the load may skip those stamps.
///
/// The load computes `w = TWO_PI·f` exactly as the stamp does. The argument
/// needs every stamp to be affine; a future stamp that is not would break
/// it silently, so the analyses keep an image only when a load at their
/// first frequency reproduces one stamped assembly there bit for bit, and
/// stamp as before when it does not.
#[derive(Debug, Clone)]
pub struct AffineImage {
    g: Vec<f64>,
    c_terms: Vec<(u32, f64)>,
    rhs: Vec<Complex64>,
}

impl AffineImage {
    /// The `C` terms `(slot, c)` in stamp order: the load adds `w·c` to the
    /// imaginary part of `slot`. Several terms may share a slot. These are
    /// the capacitance and inductance values of `Y = G + sC` as slot values
    /// on the shared pattern.
    pub fn c_terms(&self) -> &[(u32, f64)] {
        &self.c_terms
    }

    /// The right-hand side of the job the image was compiled from (the
    /// circuit's own AC sources), which does not depend on ω.
    pub(crate) fn rhs(&self) -> &[Complex64] {
        &self.rhs
    }

    /// Writes `Y(j·2π·freq_hz)` into `values`, slot for slot over the
    /// pattern the image was compiled on.
    ///
    /// # Panics
    ///
    /// Panics when `values` is shorter than the pattern.
    pub fn load_into(&self, freq_hz: f64, values: &mut [Complex64]) {
        let w = TWO_PI * freq_hz;
        assert!(values.len() >= self.g.len(), "one value per pattern slot");
        for (v, &g) in values.iter_mut().zip(&self.g) {
            *v = Complex64::new(g, 0.0);
        }
        for &(slot, c) in &self.c_terms {
            values[slot as usize].im += w * c;
        }
    }

    /// The self-check: whether a load at `freq_hz` reproduces `stamped` (a
    /// stamped assembly over the same pattern at that frequency) and its
    /// right-hand side bit for bit.
    pub(crate) fn reproduces(
        &self,
        freq_hz: f64,
        stamped: &CsrMatrix<Complex64>,
        rhs: &[Complex64],
    ) -> bool {
        let mut loaded = stamped.clone();
        self.load_into(freq_hz, loaded.values_mut());
        let same = |a: Complex64, b: Complex64| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        };
        loaded.nnz() == self.g.len()
            && loaded
                .iter()
                .zip(stamped.iter())
                .all(|((_, _, a), (_, _, b))| same(a, b))
            && rhs.len() == self.rhs.len()
            && rhs.iter().zip(&self.rhs).all(|(&a, &b)| same(a, b))
    }
}

/// A Newton-iteration assembly job whose linear matrix stamps a
/// [`NewtonImage`] compiles once: the DC operating-point system and the
/// transient time-point system.
///
/// Between Newton iterations only the nonlinear devices move. The linear
/// elements stamp the same matrix values for as long as the parameters
/// behind [`matrix_key`](NewtonJob::matrix_key) stay put. The devices arrive
/// evaluated, as data ([`device_stamps`](NewtonJob::device_stamps)), and
/// stamp the same values for as long as
/// [`device_key`](NewtonJob::device_key) stays put. The right-hand side has
/// no key: every assembly stamps it.
pub trait NewtonJob: AssembleMna<f64> {
    /// The bits of every parameter the linear elements' matrix stamps
    /// depend on: the step width and integration method of a transient
    /// step, the gmin shunt of a DC stage. Two jobs with equal keys must
    /// stamp equal linear matrix values.
    fn matrix_key(&self) -> [u64; 2];

    /// The evaluated stamp of every nonlinear device, one per device in
    /// stamp order (the order of [`MnaLayout::device_elements`]), which
    /// [`AssembleMna::stamp`] adds in order through [`Stamper::add_device`].
    fn device_stamps(&self) -> &[NonlinearStamp];

    /// Identifies [`device_stamps`](NewtonJob::device_stamps): two jobs
    /// one context assembles with equal device keys must hand it equal
    /// stamps. The transient numbers its device evaluations (a bypassed
    /// iteration keeps the key of the stamps it reuses); a job that
    /// evaluates its devices afresh takes a key no other job has.
    fn device_key(&self) -> u64;
}

/// A device key no other job has: the key of a job that evaluates its
/// devices afresh (a DC Newton iteration, a diagnostic assembly job).
/// Drawn from the top half of the `u64` range, above any transient
/// evaluation ordinal.
pub(crate) fn fresh_device_key() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1 << 63);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Slot of a device entry on the ground row or column, which no assembly
/// stores.
const GROUND: u32 = u32::MAX;

/// Narrows a slot or table index for the compact image tables.
fn index_u32(v: usize) -> u32 {
    u32::try_from(v).expect("pattern index fits u32")
}

/// A matrix position packed for a single compare.
#[inline]
fn position(row: usize, col: usize) -> u64 {
    ((row as u64) << 32) | col as u64
}

/// The compiled linear part of a Newton system's matrix: per slot, the fold
/// of the linear stamps that precede the slot's first device stamp, and a
/// replay program for everything after it — SPICE2's constant `G + α·C`
/// companion Jacobian (Nagel, UCB/ERL M520, 1975), kept bitwise.
///
/// A [`SolveContext`] compiles one when a [`NewtonJob`]'s matrix key is
/// assembled a second time. Every later iteration with that key copies the
/// prefix into the value buffer and walks the job's evaluated
/// [`device_stamps`](NewtonJob::device_stamps), adding each at its
/// compiled slots, with the linear "tail" constants — linear stamps that
/// come after a device stamp on the same slot — interleaved at their
/// original places. The image holds no right-hand side: the job's own
/// stamp pass writes it, through a sink that drops the matrix stamps.
///
/// # Why a load is bitwise identical to a stamped assembly
///
/// A slot's value is a running sum, from `+0.0`, of its stamps in stamp
/// order. The prefix is the same sum over the same leading stamps in the
/// same order, and every later stamp is added in its original order, so
/// each slot sees exactly the operations of a stamped assembly. The
/// argument needs the linear stamps to be the ones the key promises; a
/// context keeps an image only when one load reproduces the matrix of the
/// full stamped assembly it was compiled beside bit for bit, and stamps as
/// before when it does not. The right-hand side comes from the job's own
/// stamp pass, so it is the full assembly's by construction.
#[derive(Debug, Clone)]
pub struct NewtonImage {
    key: [u64; 2],
    /// Per slot: the fold of the linear stamps before its first device stamp.
    prefix: Vec<f64>,
    /// Device conductances in stamp order, `(node position, slot)`; the
    /// slot is [`GROUND`] for an entry on the ground row or column.
    devices: Vec<(u64, u32)>,
    /// Linear matrix stamps after a device stamp on their slot,
    /// `(slot, value)` in stamp order.
    tail: Vec<(u32, f64)>,
    /// Per device, in stamp order: how many `tail` constants precede its
    /// stamps (the load adds them first).
    device_starts: Vec<u32>,
}

impl NewtonImage {
    /// Compiles `job`'s image over `pattern`, which an assembly of `job`
    /// has just filled.
    ///
    /// # Panics
    ///
    /// Panics when a stamp falls outside `pattern`.
    fn compile(job: &impl NewtonJob, layout: &MnaLayout, pattern: &CsrMatrix<f64>) -> NewtonImage {
        let compiler = NewtonCompiler {
            pattern,
            touched: vec![false; pattern.nnz()],
            image: NewtonImage {
                key: job.matrix_key(),
                prefix: vec![0.0; pattern.nnz()],
                devices: Vec::new(),
                tail: Vec::new(),
                device_starts: Vec::new(),
            },
        };
        let mut st = Stamper::with_sink(layout, compiler);
        job.stamp(&mut st);
        st.into_parts().0.image
    }

    /// The matrix key the image was compiled for.
    #[cfg(test)]
    pub(crate) fn key(&self) -> [u64; 2] {
        self.key
    }

    /// Number of linear matrix stamps a load replays after a device stamp
    /// on their slot.
    #[cfg(test)]
    pub(crate) fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Loads the matrix with the devices' `stamps` into `values`: the
    /// prefix, then the stamps and the tail constants in stamp order.
    /// `false` when the stamps do not follow the compiled sequence (the
    /// loaded values are then unusable).
    fn load(&self, stamps: &[NonlinearStamp], values: &mut [f64]) -> bool {
        if stamps.len() != self.device_starts.len() {
            return false;
        }
        values.copy_from_slice(&self.prefix);
        let (mut tail, mut next) = (0, 0);
        // A local, so the position checks form no chain through memory.
        let mut differs = false;
        for (stamp, &tail_end) in stamps.iter().zip(&self.device_starts) {
            let tail_end = tail_end as usize;
            for &(slot, value) in &self.tail[tail..tail_end] {
                values[slot as usize] += value;
            }
            tail = tail_end;
            let conductances = stamp.conductances();
            let Some(slots) = self.devices.get(next..next + conductances.len()) else {
                return false;
            };
            next += conductances.len();
            for (&(r, c, value), &(pos, slot)) in conductances.iter().zip(slots) {
                differs |= pos != position(r.index(), c.index());
                if slot != GROUND {
                    values[slot as usize] += value;
                }
            }
        }
        for &(slot, value) in &self.tail[tail..] {
            values[slot as usize] += value;
        }
        !differs && next == self.devices.len()
    }

    /// The self-check: whether a load of `job` reproduces `stamped` (its
    /// full stamped assembly over the same pattern) bit for bit.
    fn reproduces(&self, job: &impl NewtonJob, stamped: &CsrMatrix<f64>) -> bool {
        let mut values = vec![0.0; self.prefix.len()];
        self.prefix.len() == stamped.nnz()
            && self.load(job.device_stamps(), &mut values)
            && values
                .iter()
                .zip(stamped.iter())
                .all(|(a, (_, _, b))| a.to_bits() == b.to_bits())
    }
}

/// Matrix sink that compiles a [`NewtonImage`] from a full stamp pass over
/// a fixed pattern.
struct NewtonCompiler<'m> {
    pattern: &'m CsrMatrix<f64>,
    /// Slots a device stamp has reached so far.
    touched: Vec<bool>,
    image: NewtonImage,
}

impl NewtonCompiler<'_> {
    fn slot(&self, row: usize, col: usize) -> usize {
        self.pattern
            .find_slot(row, col)
            .expect("a compiled job stamps on the pattern its assembly filled")
    }
}

impl MatrixSink<f64> for NewtonCompiler<'_> {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        let slot = self.slot(row, col);
        let image = &mut self.image;
        if self.touched[slot] {
            image.tail.push((index_u32(slot), value));
        } else {
            image.prefix[slot] += value;
        }
    }

    fn add_device(&mut self, layout: &MnaLayout, stamp: &NonlinearStamp) {
        let tail = index_u32(self.image.tail.len());
        self.image.device_starts.push(tail);
        for &(r, c, _) in stamp.conductances() {
            let slot = match (layout.node_var(r), layout.node_var(c)) {
                (Some(row), Some(col)) => {
                    let slot = self.slot(row, col);
                    self.touched[slot] = true;
                    index_u32(slot)
                }
                _ => GROUND,
            };
            self.image
                .devices
                .push((position(r.index(), c.index()), slot));
        }
    }
}

/// Matrix sink that drops every stamp: a pass through it walks only the
/// elements that stamp the right-hand side ([`MnaLayout::rhs_elements`])
/// and writes the job's right-hand side alone, by the operations of a full
/// assembly's.
struct RhsOnly;

impl MatrixSink<f64> for RhsOnly {
    const KEEPS_MATRIX: bool = false;

    #[inline]
    fn add(&mut self, _row: usize, _col: usize, _value: f64) {}
}

/// Counters describing how a [`SolveContext`] served its solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Full symbolic analyses (pivot order + fill pattern computations).
    pub symbolic: usize,
    /// Numeric-only refactorizations that reused the pattern.
    pub numeric_refactor: usize,
    /// Factorizations an adopting context skipped because the Newton
    /// assembly's keys were those of its last numeric refactorization,
    /// whose factors it kept (see [`SolveContext::factor`]). Not a
    /// factorization, so [`factorizations`](SolveStats::factorizations)
    /// leaves it out; sweep contexts never reuse, so it is zero for every
    /// AC analysis.
    pub factor_reuses: usize,
    /// Fresh pivoting factorizations forced by a degraded pivot.
    pub fresh_fallback: usize,
    /// In-place (value-only) assemblies served from the cached pattern.
    pub cached_assemblies: usize,
    /// Retry-ladder escalations to a fresh threshold-pivoted factorization
    /// after a residual-verified solve failed its backward-error check (the
    /// fresh analysis itself is counted in `symbolic`). Healthy sweeps keep
    /// this at zero.
    pub residual_retries: usize,
    /// Per-point gmin bumps applied by the retry ladder's last rung (each
    /// followed by a fresh factorization, counted in `symbolic`). A nonzero
    /// count means some solutions were computed on a deliberately
    /// regularized system.
    pub gmin_bumps: usize,
    /// Vestige of the retired iterative solver backend, kept so existing
    /// callers that read it still compile: always zero.
    pub iterative_fallbacks: usize,
    /// All-nodes frequency points whose selected inversion failed its
    /// verification and were recomputed with one verified solve per node
    /// (see [`AcAnalysis::driving_point_all_nodes`](crate::AcAnalysis::driving_point_all_nodes)).
    /// Healthy sweeps keep this at zero.
    pub inverse_fallbacks: usize,
}

impl SolveStats {
    /// Total number of factorizations of any kind.
    pub fn factorizations(&self) -> usize {
        self.symbolic + self.numeric_refactor + self.fresh_fallback
    }

    /// Accumulates another counter set into this one.
    ///
    /// The parallel sweep executor hands every worker its own
    /// [`SolveContext`] (and with it its own `SolveStats`); merging the
    /// workers' counters into the plan-level totals keeps sweep invariants —
    /// "one symbolic analysis per sweep", "every point was a numeric
    /// refactorization" — assertable under any thread count, because sums
    /// are independent of how the points were chunked.
    pub fn merge(&mut self, other: &SolveStats) {
        self.symbolic += other.symbolic;
        self.numeric_refactor += other.numeric_refactor;
        self.factor_reuses += other.factor_reuses;
        self.fresh_fallback += other.fresh_fallback;
        self.cached_assemblies += other.cached_assemblies;
        self.residual_retries += other.residual_retries;
        self.gmin_bumps += other.gmin_bumps;
        self.iterative_fallbacks += other.iterative_fallbacks;
        self.inverse_fallbacks += other.inverse_fallbacks;
    }
}

/// The **immutable, shareable half** of a sweep's solver state: everything
/// that is a function of the circuit *structure* (and of the representative
/// values the plan was built from), nothing that mutates during a solve.
///
/// A plan holds the [`MnaLayout`]'s slot assignment, the CSR sparsity
/// pattern (values zeroed) whose slot map every assembly reuses, and the
/// [`SymbolicLu`] — row/column permutations plus fill pattern — captured by
/// one fill-reducing ordered factorization at build time. All of it is
/// read-only, so a plan is `Sync` and can be shared by reference (or
/// `Arc`) across any number of worker threads.
///
/// The mutable half lives in [`SolveContext`], minted per worker by
/// [`context`](SweepPlan::context): value buffers, L/U numeric buffers,
/// scratch and counters. The split is what makes frequency sweeps
/// embarrassingly parallel — workers share the expensive analysis and own
/// everything they write to:
///
/// ```text
///            SweepPlan (built once, immutable, shared)
///      layout slot maps · CSR pattern · Arc<SymbolicLu> (perm, cperm, fill)
///            │ context()          │ context()            │ context()
///            ▼                    ▼                      ▼
///      SolveContext #1      SolveContext #2        SolveContext #3
///      csr values, L/U      csr values, L/U        csr values, L/U
///      workspace, stats     workspace, stats       workspace, stats
/// ```
///
/// Because every context always refactors against the *same* plan symbolic
/// (never adopting a per-worker pattern mid-sweep), the values a context
/// produces at a point depend only on the job at that point — results are
/// bitwise identical no matter how points are chunked across workers.
///
/// ```
/// use loopscope_netlist::{Circuit, SourceSpec};
/// use loopscope_spice::assembly::{AssembleMna, SweepPlan};
/// use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
///
/// struct Divider {
///     g: f64,
/// }
/// impl AssembleMna<f64> for Divider {
///     fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
///         st.add_var_var(0, 0, self.g + 1.0e-3);
///         st.add_var_var(0, 1, -self.g);
///         st.add_var_var(1, 0, -self.g);
///         st.add_var_var(1, 1, self.g);
///         st.add_rhs_var(0, 1.0e-3);
///     }
/// }
///
/// let mut c = Circuit::new("divider");
/// let a = c.node("a");
/// let b = c.node("b");
/// c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
/// c.add_resistor("R2", a, b, 1.0e3);
/// c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
/// let layout = MnaLayout::new(&c);
///
/// // One symbolic analysis at build time, shared by every context.
/// let plan = SweepPlan::build(&layout, &Divider { g: 1.0e-3 })?;
/// let mut ctx = plan.context();
/// for k in 1..=4 {
///     let x = ctx.solve(&Divider { g: 1.0e-3 * k as f64 })?;
///     assert!(x[0].is_finite());
/// }
/// assert_eq!(plan.stats().symbolic, 1);
/// assert_eq!(ctx.stats().numeric_refactor, 4);
/// assert_eq!(ctx.stats().symbolic, 0);
/// # Ok::<(), loopscope_sparse::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan<T: Scalar> {
    layout: MnaLayout,
    /// The shared sparsity pattern with zeroed values: every context clones
    /// it once at mint time and restamps values into its own copy.
    pattern: CsrMatrix<T>,
    /// Permutations + fill pattern shared by every context (`SymbolicLu` is
    /// itself `Arc`-backed, so the extra `Arc` keeps the plan cheaply
    /// clonable as a whole).
    symbolic: Arc<SymbolicLu>,
    /// Counters of the build itself (exactly one symbolic analysis).
    build_stats: SolveStats,
    /// `None` for a plan over the whole system; for a
    /// [`block_plan`](SweepPlan::block_plan), how its local system sits in
    /// the whole one.
    block: Option<BlockMap>,
}

/// Where the local system of a [`SweepPlan::block_plan`] sits in the whole
/// system of its parent plan.
#[derive(Debug, Clone)]
struct BlockMap {
    /// The original row of every local row, and the original column of
    /// every local column: the circuit unknowns errors are named after.
    rows: Vec<usize>,
    cols: Vec<usize>,
    /// The parent-pattern entry of every local pattern entry.
    gather: Vec<usize>,
    /// The local entries of the node-voltage diagonals whose row and column
    /// both lie in the block: the entries the gmin rung bumps.
    node_diagonals: Vec<usize>,
}

/// A unit current injected into one unknown, in the coordinates of a plan's
/// system (see [`SweepPlan::injection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Injection {
    /// The row the unit current enters.
    pub(crate) row: usize,
    /// The column the driving-point response is read from; `None` reads an
    /// exact `+0`.
    pub(crate) read: Option<usize>,
}

impl Injection {
    /// The injection at unknown `var` of a system over every unknown.
    pub(crate) fn at(var: usize) -> Self {
        Self {
            row: var,
            read: Some(var),
        }
    }
}

impl BlockMap {
    /// `e` with its local row and column indices mapped to the circuit's.
    fn to_circuit(&self, e: SolveError) -> SolveError {
        match e {
            SolveError::Singular(col) => SolveError::Singular(self.cols[col]),
            SolveError::NonFinite { row, col } => SolveError::NonFinite {
                row: self.rows[row],
                col: self.cols[col],
            },
            other => other,
        }
    }
}

impl<T: Scalar> SweepPlan<T> {
    /// Builds a plan by assembling `job` from scratch (triplets → CSR) and
    /// running one fill-reducing ordered factorization over it to capture
    /// the symbolic analysis.
    ///
    /// `job` should stamp **representative values** (e.g. the first
    /// frequency point of the sweep): the threshold-pivoted ordering is
    /// computed from them, and every context refactorization reuses it.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the representative system
    /// is singular.
    pub fn build(layout: &MnaLayout, job: &impl AssembleMna<T>) -> Result<Self, SolveError> {
        let mut stamper = Stamper::new(layout);
        job.stamp(&mut stamper);
        let (triplets, _rhs) = stamper.finish();
        let mut pattern = triplets.to_csr();
        let symbolic = SparseLu::factor(&pattern)?.extract_symbolic();
        pattern.zero_values();
        Ok(Self {
            layout: layout.clone(),
            pattern,
            symbolic: Arc::new(symbolic),
            build_stats: SolveStats {
                symbolic: 1,
                ..SolveStats::default()
            },
            block: None,
        })
    }

    /// The plan of the BTF diagonal block of this plan's system that holds
    /// original row `row`: the block's entries of the pattern in local
    /// elimination coordinates ([`SymbolicLu::restrict_to_block`]), the
    /// one-block slice of the symbolic analysis ([`SymbolicLu::block`]) —
    /// no new ordering, no factorization, no counter — and the map back to
    /// the whole system. A context of it loads its values from an image
    /// restricted to the block ([`restrict_image`](SweepPlan::restrict_image))
    /// or gathers them from a whole-system assembly
    /// ([`SolveContext::gather_values`]); its gmin rung bumps the
    /// node-voltage diagonals inside the block, and its errors name the
    /// circuit's unknowns.
    ///
    /// For a right-hand side that is zero outside the block's rows, the
    /// whole system's later blocks solve to exact zeros, so the block
    /// system's solution is the whole solution's block part with the same
    /// operations, up to the signs of exact zeros.
    ///
    /// # Panics
    ///
    /// Panics on a block plan, or when `row` is not below the dimension.
    pub(crate) fn block_plan(&self, row: usize) -> SweepPlan<T> {
        assert!(self.block.is_none(), "a block plan is not sliced again");
        let b = self.symbolic.block_of_row(row);
        let bounds = self.symbolic.block_boundaries();
        let steps = bounds[b]..bounds[b + 1];
        let (pattern, gather) = self.symbolic.restrict_to_block(b, &self.pattern);
        let rows = self.symbolic.pivot_order()[steps.clone()].to_vec();
        let cols = self.symbolic.column_order()[steps].to_vec();
        let node_vars = self.layout.dim() - self.layout.branch_count();
        let node_diagonals = rows
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r < node_vars)
            .filter_map(|(i, &r)| {
                let j = cols.iter().position(|&c| c == r)?;
                pattern.find_slot(i, j)
            })
            .collect();
        SweepPlan {
            layout: self.layout.clone(),
            pattern,
            symbolic: Arc::new(self.symbolic.block(b)),
            build_stats: SolveStats::default(),
            block: Some(BlockMap {
                rows,
                cols,
                gather,
                node_diagonals,
            }),
        }
    }

    /// A unit current injected at unknown `var`, in this block plan's
    /// system: the local row it enters and the local column its
    /// driving-point response is read from — `None` when that column lies
    /// outside the block.
    ///
    /// # Panics
    ///
    /// Panics on a plan over the whole system, or when the block does not
    /// hold row `var`.
    pub(crate) fn injection(&self, var: usize) -> Injection {
        let block = self.block.as_ref().expect("a block plan");
        let row = block
            .rows
            .iter()
            .position(|&r| r == var)
            .expect("the block holds the injected row");
        let read = block.cols.iter().position(|&c| c == var);
        Injection { row, read }
    }

    /// The MNA layout whose slot assignment the plan's pattern was built for.
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// Matrix dimension of the planned system.
    pub fn dim(&self) -> usize {
        self.symbolic.dim()
    }

    /// The symbolic analysis (permutations + fill pattern) every context
    /// refactorization reuses.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.symbolic
    }

    /// Counters of the plan build itself: exactly one symbolic analysis.
    /// Merge with the workers' [`SolveContext::stats`] for sweep totals.
    pub fn stats(&self) -> SolveStats {
        self.build_stats
    }

    /// `image`, compiled over the parent pattern of this block plan,
    /// restricted to the block's entries: each entry keeps its `G` value
    /// and its `C` terms in stamp order, so a load is bit for bit the
    /// block's entries of the parent image's load.
    ///
    /// # Panics
    ///
    /// Panics on a plan over the whole system.
    pub(crate) fn restrict_image(&self, image: &AffineImage) -> AffineImage {
        let block = self.block.as_ref().expect("a block plan");
        let mut local = vec![u32::MAX; image.g.len()];
        for (k, &e) in block.gather.iter().enumerate() {
            local[e] = index_u32(k);
        }
        AffineImage {
            g: block.gather.iter().map(|&e| image.g[e]).collect(),
            c_terms: image
                .c_terms
                .iter()
                .filter_map(|&(slot, c)| {
                    let k = local[slot as usize];
                    (k != u32::MAX).then_some((k, c))
                })
                .collect(),
            rhs: Vec::new(),
        }
    }

    /// The shared zero-valued sparsity pattern, which
    /// [`context`](SweepPlan::context) clones for its value buffer. Each
    /// batched `GroupRunner` keeps every lane's values over it in its
    /// `LanePlanes`.
    pub(crate) fn pattern(&self) -> &CsrMatrix<T> {
        &self.pattern
    }

    /// Mints a fresh per-worker [`SolveContext`] that **never re-plans**:
    /// its own value CSR (cloned from the shared pattern), an unfilled L/U
    /// shell over the shared symbolic analysis, a pre-sized workspace and
    /// solve scratch. All allocation happens here; the context's sweep loop
    /// is allocation-free on the factor/solve side from its very first point.
    ///
    /// The context's value buffer is the only matrix it ever holds.
    ///
    /// # Panics
    ///
    /// The context panics when an assembly stamps outside the plan's pattern
    /// (see [`SolveContext::assemble_into`]), as every context does outside
    /// its own: build a plan per pattern.
    pub fn context(&self) -> SolveContext<'_, T> {
        SolveContext {
            symbolic: Some(SymbolicLu::clone(&self.symbolic)),
            csr: Some(self.pattern.clone()),
            lu: Some(SparseLu::from_symbolic(&self.symbolic)),
            ..SolveContext::unplanned(&self.layout, Some(self))
        }
    }
}

/// The solve driver: everything an assemble → factor → verified-solve cycle
/// writes to, owned exclusively by one worker.
///
/// Drive each system through [`assemble`](SolveContext::assemble) →
/// [`factor`](SolveContext::factor) →
/// [`solve_in_place`](SolveContext::solve_in_place) or
/// [`diag_inverse_into`](SolveContext::diag_inverse_into) (one factor, the
/// whole diagonal of its inverse — the all-nodes scan), through the retry
/// ladder of
/// [`solve_verified_in_place`](SolveContext::solve_verified_in_place), or
/// through the [`solve`](SolveContext::solve) /
/// [`solve_verified`](SolveContext::solve_verified) wrappers.
///
/// The constructor fixes the context's **re-plan policy** (see the
/// [module docs](self)):
///
/// * [`SweepPlan::context`] never re-plans: every point assembles into the
///   plan's pattern and refactors against the plan's fixed symbolic
///   analysis, and a degraded pivot, a residual retry or a gmin rescue runs
///   a fresh factorization **for that point only**. Results at a point are therefore a pure function of the job —
///   independent of the points the context processed before — which is
///   what makes chunked parallel sweeps bitwise identical to the serial
///   run.
/// * [`SolveContext::adopting`] adopts each of those fresh factorizations
///   as its own plan, so the next system refactors against it.
///
/// In both, an assembly outside the context's pattern panics.
#[derive(Debug)]
pub struct SolveContext<'p, T: Scalar> {
    layout: &'p MnaLayout,
    /// The shared plan of a context that never re-plans; `None` for an
    /// adopting context, which plans from its own systems.
    plan: Option<&'p SweepPlan<T>>,
    /// The symbolic analysis refactorizations run against: the plan's, or
    /// an adopting context's latest re-plan (`None` until it first factors).
    symbolic: Option<SymbolicLu>,
    /// Value buffer over the current sparsity pattern; `None` only before
    /// an adopting context's first assembly.
    csr: Option<CsrMatrix<T>>,
    /// L/U numeric buffers; `None` before an adopting context's first
    /// factorization and after one of its refactorizations failed.
    lu: Option<SparseLu<T>>,
    workspace: LuWorkspace<T>,
    solve_work: Vec<T>,
    /// Scratch of the selected inversion
    /// ([`diag_inverse_into`](SolveContext::diag_inverse_into)), sized on
    /// its first call.
    inverse_ws: InverseWorkspace<T>,
    /// Scratch of the residual-verified solve path, pre-sized at mint time.
    refine_ws: RefineWorkspace<T>,
    /// Pristine copy of the right-hand side, so retry-ladder escalations can
    /// restart the solve from `b` after a failed attempt overwrote it.
    rhs_backup: Vec<T>,
    /// The compiled linear part of the latest Newton key over `csr`'s
    /// pattern (see [`assemble_newton_into`](SolveContext::assemble_newton_into)).
    newton: Option<NewtonImage>,
    /// The matrix key of the latest Newton assembly stamped in full, and
    /// whether an image compiled for it failed its self-check.
    newton_seen: Option<([u64; 2], bool)>,
    /// The keys of the Newton assembly the value buffer holds, until
    /// anything else writes the buffer.
    assembled_keys: Option<NewtonKeys>,
    /// The keys of the values the current factors were refactored from
    /// (adopting contexts only; see [`factor`](SolveContext::factor)).
    factored_keys: Option<NewtonKeys>,
    factored: bool,
    stats: SolveStats,
}

/// The keys of one Newton assembly: its
/// [`matrix_key`](NewtonJob::matrix_key) and
/// [`device_key`](NewtonJob::device_key), which together fix its matrix
/// values.
type NewtonKeys = ([u64; 2], u64);

impl<'p, T: Scalar> SolveContext<'p, T> {
    /// Creates an **adopting** context over `layout`, the driver of DC
    /// Newton loops and transient stepping.
    ///
    /// Its first assembly builds the sparsity pattern from that job's
    /// stamps, and every later assembly must stay on it (see
    /// [`assemble_into`](SolveContext::assemble_into)). Its first
    /// factorization — a block-triangular, minimum-degree, threshold-pivoted
    /// analysis — becomes its plan. Every later factorization is a
    /// numeric-only refactorization into buffers the context owns, so the
    /// steady state performs no factorization-side heap allocation. Whenever
    /// a fresh analysis runs anyway (a degraded-pivot fallback, a residual
    /// retry or a gmin rescue), the context adopts its pivot order for the
    /// systems that follow.
    ///
    /// ```
    /// use loopscope_netlist::{Circuit, SourceSpec};
    /// use loopscope_spice::assembly::{AssembleMna, SolveContext};
    /// use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
    ///
    /// // A conductance-divider job: same pattern at every drive level.
    /// struct Divider {
    ///     g: f64,
    /// }
    /// impl AssembleMna<f64> for Divider {
    ///     fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
    ///         st.add_var_var(0, 0, self.g + 1.0e-3);
    ///         st.add_var_var(0, 1, -self.g);
    ///         st.add_var_var(1, 0, -self.g);
    ///         st.add_var_var(1, 1, self.g);
    ///         st.add_rhs_var(0, 1.0e-3);
    ///     }
    /// }
    ///
    /// let mut c = Circuit::new("divider");
    /// let a = c.node("a");
    /// let b = c.node("b");
    /// c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
    /// c.add_resistor("R2", a, b, 1.0e3);
    /// c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
    /// let layout = MnaLayout::new(&c);
    ///
    /// let mut ctx = SolveContext::<f64>::adopting(&layout);
    /// for k in 1..=4 {
    ///     let x = ctx.solve(&Divider { g: 1.0e-3 * k as f64 })?;
    ///     assert!(x[0].is_finite());
    /// }
    /// // One symbolic analysis serves the whole series of solves.
    /// assert_eq!(ctx.stats().symbolic, 1);
    /// assert_eq!(ctx.stats().numeric_refactor, 3);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    pub fn adopting(layout: &'p MnaLayout) -> Self {
        Self::unplanned(layout, None)
    }

    /// A context with pre-sized scratch but no pattern, symbolic analysis
    /// or factors yet.
    fn unplanned(layout: &'p MnaLayout, plan: Option<&'p SweepPlan<T>>) -> Self {
        let n = plan.map_or(layout.dim(), SweepPlan::dim);
        Self {
            layout,
            plan,
            symbolic: None,
            csr: None,
            lu: None,
            workspace: LuWorkspace::for_dim(n),
            solve_work: vec![T::ZERO; n],
            inverse_ws: InverseWorkspace::new(),
            refine_ws: RefineWorkspace::for_dim(n),
            rhs_backup: Vec::with_capacity(n),
            newton: None,
            newton_seen: None,
            assembled_keys: None,
            factored_keys: None,
            factored: false,
            stats: SolveStats::default(),
        }
    }

    /// Whether fresh factorizations become this context's plan.
    fn adopts(&self) -> bool {
        self.plan.is_none()
    }

    /// Where this context's system sits in the whole system, when its plan
    /// is a [`block_plan`](SweepPlan::block_plan).
    fn block(&self) -> Option<&'p BlockMap> {
        self.plan.and_then(|plan| plan.block.as_ref())
    }

    /// The dimension of the system this context solves.
    fn dim(&self) -> usize {
        self.plan.map_or(self.layout.dim(), SweepPlan::dim)
    }

    /// `e` enriched with the circuit names of the unknowns it addresses.
    fn named(&self, e: SolveError) -> SpiceError {
        let e = self.block().map_or(e, |block| block.to_circuit(e));
        SpiceError::from_solve(e, self.layout)
    }

    /// The MNA layout this context assembles over.
    pub fn layout(&self) -> &'p MnaLayout {
        self.layout
    }

    /// Counters accumulated by this context since it was created.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Assembles the MNA system for `job` and returns the right-hand side
    /// (the matrix stays inside the context for
    /// [`factor`](SolveContext::factor)). See
    /// [`assemble_into`](SolveContext::assemble_into).
    pub fn assemble(&mut self, job: &impl AssembleMna<T>) -> Vec<T> {
        let mut rhs = Vec::new();
        self.assemble_into(job, &mut rhs);
        rhs
    }

    /// Assembles the MNA system for `job` into the context's value buffer —
    /// a value-only restamp over the current slot map — writing the
    /// right-hand side into a caller-held buffer, counted in
    /// `cached_assemblies`. Once `rhs`'s capacity has reached the layout
    /// dimension, the assembly performs **zero heap allocations**: the
    /// property the transient Newton loop relies on, where the same buffer
    /// cycles through assemble → solve at every iteration of every timestep.
    ///
    /// An adopting context's first assembly builds its pattern from the
    /// job's stamps instead (which allocates, as it must) and is not counted.
    ///
    /// # Panics
    ///
    /// Panics when `job` stamps outside the context's pattern. Stamp
    /// positions depend on the element kinds and the layout, never on the
    /// swept value, the Newton iterate or the time step (see the
    /// [module docs](self)), so a job that leaves the pattern needs a
    /// context of its own.
    pub fn assemble_into(&mut self, job: &impl AssembleMna<T>, rhs: &mut Vec<T>) {
        assert!(
            self.block().is_none(),
            "a block context gathers its values, it does not stamp them"
        );
        self.assembled_keys = None;
        self.factored = false;
        let Some(csr) = self.csr.as_mut() else {
            let mut stamper = Stamper::new(self.layout);
            job.stamp(&mut stamper);
            let (triplets, out) = stamper.finish();
            *rhs = out;
            self.csr = Some(triplets.to_csr());
            return;
        };
        csr.zero_values();
        let sink = SlotSink::new(csr);
        let mut stamper = Stamper::with_sink_reusing(self.layout, sink, std::mem::take(rhs));
        job.stamp(&mut stamper);
        let (sink, out) = stamper.into_parts();
        assert!(
            !sink.missed(),
            "an assembly left the pattern of its context"
        );
        *rhs = out;
        self.stats.cached_assemblies += 1;
    }

    /// Factors the most recently assembled system: a numeric-only
    /// refactorization against the current symbolic analysis (the hot
    /// path), or a fresh [`SparseLu::factor`] when there is none for this
    /// system (an adopting context's first factorization, or its first after
    /// a failed factorization), counted in `symbolic`.
    /// When the refactorization reports a degraded pivot, the context
    /// re-pivots with a fresh factorization,
    /// counted in `fresh_fallback`: an adopting context keeps that pivot
    /// order as its plan, a sweep context uses it for this point only.
    ///
    /// An adopting context also skips the refactorization, counted in
    /// `factor_reuses`, when the value buffer holds a Newton assembly
    /// ([`assemble_newton_into`](SolveContext::assemble_newton_into)) whose
    /// matrix and device keys are those of its last successful
    /// refactorization, and its factors are still that refactorization's:
    /// equal keys promise equal values, so the factors are exactly the ones
    /// a refactor would produce, and the check is O(1). Each successful
    /// refactorization records the keys of the values it factored (none,
    /// when the buffer holds no Newton assembly). Any other write to the
    /// buffer (a plain assembly, the `matrix_mut` hook, a gmin bump), a
    /// fresh factorization or a failed one forgets them, so each of those
    /// refactors as before. A sweep context never reuses,
    /// which keeps every point's cost and counters independent of the
    /// points before it.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular.
    ///
    /// # Panics
    ///
    /// Panics when called before any [`assemble`](SolveContext::assemble).
    pub fn factor(&mut self) -> Result<&SparseLu<T>, SolveError> {
        let csr = self
            .csr
            .as_ref()
            .expect("SolveContext::assemble must run first");
        let adopts = self.plan.is_none();
        let reuse = self.assembled_keys.is_some() && self.assembled_keys == self.factored_keys;
        let outcome = match (&self.symbolic, &mut self.lu) {
            (Some(_), Some(_)) if reuse => {
                self.stats.factor_reuses += 1;
                self.factored = true;
                Ok(())
            }
            (Some(symbolic), Some(lu)) => {
                match lu.refactor_into(symbolic, csr, &mut self.workspace) {
                    Ok(true) => {
                        self.stats.numeric_refactor += 1;
                        self.factored = true;
                        if adopts {
                            self.factored_keys = self.assembled_keys;
                        }
                        Ok(())
                    }
                    Ok(false) => self.fresh_factor(true),
                    Err(e) => Err(e),
                }
            }
            _ => self.fresh_factor(false),
        };
        if let Err(e) = outcome {
            self.factored_keys = None;
            if adopts {
                // The failed factors are unusable; the next attempt
                // re-analyzes from scratch.
                self.lu = None;
            }
            return Err(e);
        }
        Ok(self.factors())
    }

    /// The current factors.
    ///
    /// # Panics
    ///
    /// Panics when no factorization has succeeded yet.
    fn factors(&self) -> &SparseLu<T> {
        self.lu
            .as_ref()
            .expect("SolveContext::factor must succeed first")
    }

    /// The most recently assembled matrix: the value buffer.
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    #[inline]
    pub fn matrix(&self) -> &CsrMatrix<T> {
        self.csr
            .as_ref()
            .expect("SolveContext::assemble must run first")
    }

    /// Solves the factored system in place: `rhs` holds `b` on entry and
    /// `x` on return, using the context's own scratch (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `rhs` does not match the
    /// system dimension.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](SolveContext::factor) call has
    /// run since the last assembly.
    pub fn solve_in_place(&mut self, rhs: &mut [T]) -> Result<(), SolveError> {
        assert!(
            self.factored,
            "SolveContext::factor must succeed before solving"
        );
        let lu = self
            .lu
            .as_ref()
            .expect("SolveContext::factor must succeed first");
        lu.solve_into(rhs, &mut self.solve_work)
    }

    /// Writes the diagonal of the factored system's inverse into `out`
    /// (`out[v] = (A⁻¹)_vv`) by selected inversion over the current factors
    /// — see [`SparseLu::diag_inverse_into`] for coverage and cost. The
    /// context's scratch is sized on the first call; later calls over the
    /// same pattern allocate nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `out` does not match the
    /// system dimension.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](SolveContext::factor) call has
    /// run since the last assembly.
    pub fn diag_inverse_into(&mut self, out: &mut [T]) -> Result<(), SolveError> {
        assert!(
            self.factored,
            "SolveContext::factor must succeed before inverting"
        );
        let lu = self
            .lu
            .as_ref()
            .expect("SolveContext::factor must succeed first");
        lu.diag_inverse_into(out, &mut self.inverse_ws)
    }

    /// Counts one all-nodes point recomputed with per-node verified solves
    /// (`inverse_fallbacks` in [`SolveStats`]).
    pub(crate) fn count_inverse_fallback(&mut self) {
        self.stats.inverse_fallbacks += 1;
    }

    /// Convenience wrapper: assemble, factor, and solve with the assembled
    /// right-hand side.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular.
    pub fn solve(&mut self, job: &impl AssembleMna<T>) -> Result<Vec<T>, SolveError> {
        let mut rhs = self.assemble(job);
        self.factor()?;
        self.solve_in_place(&mut rhs)?;
        Ok(rhs)
    }

    /// Convenience wrapper over the retry ladder: assemble, then
    /// [`solve_verified_in_place`](SolveContext::solve_verified_in_place).
    /// Returns the residual-verified solution and its [`SolveQuality`].
    ///
    /// # Errors
    ///
    /// Returns the name-enriched [`SpiceError`] when every rung of the
    /// ladder fails.
    pub fn solve_verified(
        &mut self,
        job: &impl AssembleMna<T>,
    ) -> Result<(Vec<T>, SolveQuality), SpiceError> {
        let mut rhs = self.assemble(job);
        let quality = self.solve_verified_in_place(&mut rhs)?;
        Ok((rhs, quality))
    }

    /// Runs the structured **retry ladder** over the most recently assembled
    /// system. `rhs` holds `b` on entry and the verified solution on
    /// success. The rungs, in order:
    ///
    /// 1. [`factor`](SolveContext::factor) (a pattern-reusing
    ///    refactorization when possible, re-pivoted with a fresh
    ///    factorization when it reports a degraded pivot) and solve with
    ///    iterative refinement ([`SparseLu::solve_refined_into`]); when
    ///    `factor` already ran since the last assembly its factors are
    ///    reused;
    /// 2. if the backward error still fails its tolerance and the factors
    ///    came from a reused pivot order, escalate to a fresh
    ///    threshold-pivoted factorization of this exact system
    ///    (`residual_retries` in [`SolveStats`]);
    /// 3. if the system is singular or refinement still cannot converge,
    ///    apply the deterministic gmin bumps of [`GMIN_BUMP_LADDER`] to the
    ///    node-voltage diagonals, re-factoring after each (`gmin_bumps` in
    ///    [`SolveStats`]).
    ///
    /// Every escalation decision is a pure function of the assembled values,
    /// so identical systems take identical ladders. A context that never
    /// re-plans keeps each escalation to its point: nothing a rung does is
    /// carried to the next point, so a context that escalated at point `k`
    /// still produces bitwise-identical results at every other point,
    /// whatever the chunking. An adopting context keeps the fresh
    /// factorization of the rung that succeeded as its plan.
    ///
    /// # Errors
    ///
    /// Non-finite stamps abort immediately as
    /// [`SpiceError::NonFiniteStamp`] (no rung can repair a NaN); a system
    /// still singular after the gmin rung surfaces as
    /// [`SpiceError::SingularSystem`]; a ladder that ran dry with finite
    /// arithmetic returns [`SpiceError::ResidualCheckFailed`]. All carry
    /// circuit names mapped through the [`MnaLayout`].
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    pub fn solve_verified_in_place(&mut self, rhs: &mut [T]) -> Result<SolveQuality, SpiceError> {
        self.check_rhs(rhs)?;
        self.rhs_backup.clear();
        self.rhs_backup.extend_from_slice(rhs);
        let mut pending_singular = None;
        let mut last_quality: Option<SolveQuality> = None;

        if !self.factored {
            match self.factor() {
                Ok(_) => {}
                Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                Err(e) => return Err(self.named(e)),
            }
        }
        if pending_singular.is_none() {
            let q = self.refined_attempt(rhs)?;
            if q.converged {
                return Ok(q);
            }
            last_quality = Some(q);
            if self.factors().refactored() {
                self.stats.residual_retries += 1;
                match self.fresh_factor(false) {
                    Ok(()) => {
                        rhs.copy_from_slice(&self.rhs_backup);
                        let q = self.refined_attempt(rhs)?;
                        if q.converged {
                            return Ok(q);
                        }
                        last_quality = Some(q);
                    }
                    Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                    Err(e) => return Err(self.named(e)),
                }
            }
        }
        let node_vars = self.layout.dim() - self.layout.branch_count();
        let block = self.block();
        let mut bumps = 0usize;
        for &bump in GMIN_BUMP_LADDER.iter() {
            let bumped = match block {
                Some(block) => bump_entries(self.matrix_slot(), &block.node_diagonals, bump),
                None => bump_node_diagonals(self.matrix_slot(), node_vars, bump),
            };
            if !bumped {
                break;
            }
            self.stats.gmin_bumps += 1;
            bumps += 1;
            match self.fresh_factor(false) {
                Ok(()) => {
                    rhs.copy_from_slice(&self.rhs_backup);
                    let q = self.refined_attempt(rhs)?;
                    if q.converged {
                        return Ok(q);
                    }
                    last_quality = Some(q);
                    pending_singular = None;
                }
                Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                Err(e) => return Err(self.named(e)),
            }
        }
        match pending_singular {
            Some(e) => Err(self.named(e)),
            None => Err(SpiceError::ResidualCheckFailed {
                backward_error: last_quality.map_or(f64::INFINITY, |q| q.backward_error),
                gmin_bumps: bumps,
            }),
        }
    }

    /// Rejects a right-hand side whose length is not the system dimension.
    fn check_rhs(&self, rhs: &[T]) -> Result<(), SpiceError> {
        let n = self.dim();
        if rhs.len() == n {
            Ok(())
        } else {
            Err(SpiceError::Linear(SolveError::RhsLength {
                expected: n,
                got: rhs.len(),
            }))
        }
    }

    /// One residual-verified solve over the current factors and matrix.
    fn refined_attempt(&mut self, rhs: &mut [T]) -> Result<SolveQuality, SpiceError> {
        let matrix = self
            .csr
            .as_ref()
            .expect("SolveContext::assemble must run first");
        let lu = self
            .lu
            .as_ref()
            .expect("SolveContext::factor must succeed first");
        lu.solve_refined_into(matrix, rhs, &mut self.refine_ws)
            .map_err(|e| self.named(e))
    }

    /// Fresh [`SparseLu::factor`] of the current system — the only place a
    /// context chooses pivots — counted in `fresh_fallback` when it
    /// re-pivots a degraded refactorization, in `symbolic` otherwise. An
    /// adopting context adopts its pattern and pivot order as the new plan;
    /// a sweep context uses it for this point only, and the next point
    /// refactors against the shared plan as usual.
    fn fresh_factor(&mut self, repivot: bool) -> Result<(), SolveError> {
        self.factored_keys = None;
        let lu = SparseLu::factor(self.matrix())?;
        if self.adopts() {
            self.symbolic = Some(lu.extract_symbolic());
        }
        self.lu = Some(lu);
        self.factored = true;
        if repivot {
            self.stats.fresh_fallback += 1;
        } else {
            self.stats.symbolic += 1;
        }
        Ok(())
    }

    /// Hager/Higham 1-norm condition estimate of the most recently factored
    /// system (see [`SparseLu::condition_estimate`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] on a dimension mismatch.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](SolveContext::factor) call has
    /// run since the last assembly.
    pub fn condition_estimate(&self) -> Result<f64, SolveError> {
        assert!(
            self.factored,
            "SolveContext::factor must succeed before estimating conditioning"
        );
        self.factors().condition_estimate(self.matrix())
    }

    /// Loads the values of a [`block_plan`](SweepPlan::block_plan) context's
    /// system from `parent`, the values of a whole-system assembly over the
    /// parent plan's pattern — the block's entries, gathered. Counted in
    /// `cached_assemblies`, once, as the assembly of the point.
    ///
    /// # Panics
    ///
    /// Panics on a context of a plan over the whole system, or when
    /// `parent` is shorter than the parent pattern.
    pub(crate) fn gather_values(&mut self, parent: &[T]) {
        let block = self.block().expect("a block context");
        self.assembled_keys = None;
        self.factored = false;
        let csr = self.csr.as_mut().expect("a sweep context owns its pattern");
        for (v, &e) in csr.values_mut().iter_mut().zip(&block.gather) {
            *v = parent[e];
        }
        self.stats.cached_assemblies += 1;
    }

    /// Mutable access to the most recently assembled matrix, whose values
    /// then no longer are the Newton assembly of any keys.
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    fn matrix_slot(&mut self) -> &mut CsrMatrix<T> {
        self.assembled_keys = None;
        self.csr
            .as_mut()
            .expect("SolveContext::assemble must run first")
    }

    /// Mutable access to the assembled matrix values — the perturbation hook
    /// the fault-injection test-suites use to poison stamped values between
    /// assembly and solve. Compiled only for tests and under the
    /// `fault-inject` feature; never part of the production surface.
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn matrix_mut(&mut self) -> &mut CsrMatrix<T> {
        self.matrix_slot()
    }
}

impl SolveContext<'_, f64> {
    /// Assembles one Newton iteration of `job` into the value buffer and
    /// `rhs` — bitwise the values [`assemble_into`](SolveContext::assemble_into)
    /// produces, and the driver of the DC and transient Newton loops.
    ///
    /// The first assembly of a [`matrix_key`](NewtonJob::matrix_key) stamps
    /// in full. The second stamps in full too and compiles the key's
    /// [`NewtonImage`] beside it, which is kept only when one load
    /// reproduces that assembly's matrix bit for bit. From then on an
    /// assembly with the key loads its matrix from the image, adding the
    /// job's [`device_stamps`](NewtonJob::device_stamps), and stamps its
    /// right-hand side through a sink that drops the matrix stamps. When the
    /// value buffer still holds the values the context last refactored, and
    /// their keys are this job's matrix and
    /// [`device_key`](NewtonJob::device_key), the matrix load is skipped,
    /// image or not, only the right-hand side is stamped, and
    /// [`factor`](SolveContext::factor) reuses the factors. A device
    /// stamp sequence the image did not record (a MOSFET swapping drain and
    /// source, say) drops the image and stamps in full. So a one-iteration
    /// solve pays nothing extra. Image
    /// loads count in `cached_assemblies` like pattern hits, and the steady
    /// state allocates nothing.
    pub fn assemble_newton_into(&mut self, job: &impl NewtonJob, rhs: &mut Vec<f64>) {
        let keys = (job.matrix_key(), job.device_key());
        if self.load_newton(job, keys, rhs) {
            self.stats.cached_assemblies += 1;
        } else {
            let compile = self.newton_seen == Some((keys.0, false));
            self.assemble_into(job, rhs);
            self.newton_seen = Some((keys.0, false));
            if compile {
                let csr = self
                    .csr
                    .as_ref()
                    .expect("an assembly fills the value buffer");
                self.newton = Some(NewtonImage::compile(job, self.layout, csr))
                    .filter(|image| image.reproduces(job, csr));
                self.newton_seen = Some((keys.0, self.newton.is_none()));
            }
        }
        self.assembled_keys = Some(keys);
    }

    /// Loads `job`'s matrix, unless the buffer already holds the factored
    /// values of `keys`, from the Newton image of its matrix key, if there
    /// is one and the devices replay in their compiled order, and stamps
    /// its right-hand side. Drops the image when the devices do not
    /// replay.
    fn load_newton(&mut self, job: &impl NewtonJob, keys: NewtonKeys, rhs: &mut Vec<f64>) -> bool {
        let Some(csr) = self.csr.as_mut() else {
            return false;
        };
        let unchanged = self.assembled_keys == Some(keys) && self.factored_keys == Some(keys);
        if !unchanged {
            let Some(image) = self.newton.as_ref().filter(|image| image.key == keys.0) else {
                return false;
            };
            if !image.load(job.device_stamps(), csr.values_mut()) {
                self.newton = None;
                return false;
            }
        }
        let mut st = Stamper::with_sink_reusing(self.layout, RhsOnly, std::mem::take(rhs));
        job.stamp(&mut st);
        *rhs = st.into_parts().1;
        self.factored = false;
        true
    }

    /// The Newton image the context loads its current key from, if any.
    pub fn newton_image(&self) -> Option<&NewtonImage> {
        self.newton.as_ref()
    }
}

impl SolveContext<'_, Complex64> {
    /// Loads `Y(j·2π·freq_hz)` from a compiled image into the value buffer —
    /// the AC counterpart of [`assemble_into`](SolveContext::assemble_into)
    /// for a context minted by [`SweepPlan::context`] from the plan the image
    /// was compiled over. Counted in `cached_assemblies` exactly as a
    /// pattern hit is. The right-hand side is the caller's (the unit
    /// injection of a probe, or [`AffineImage::rhs`]).
    ///
    /// # Panics
    ///
    /// Panics on an adopting context that has not assembled yet.
    #[inline]
    pub(crate) fn load_values(&mut self, image: &AffineImage, freq_hz: f64) {
        self.assembled_keys = None;
        self.factored = false;
        let csr = self
            .csr
            .as_mut()
            .expect("a sweep context owns the plan's pattern");
        image.load_into(freq_hz, csr.values_mut());
        self.stats.cached_assemblies += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_netlist::{Circuit, SourceSpec};

    /// A tiny hand-written job: conductance ladder with a value knob.
    struct LadderJob {
        g1: f64,
        g2: f64,
        extra_entry: bool,
    }

    impl AssembleMna<f64> for LadderJob {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            st.add_var_var(0, 0, self.g1 + self.g2);
            st.add_var_var(0, 1, -self.g2);
            st.add_var_var(1, 0, -self.g2);
            st.add_var_var(1, 1, self.g2);
            st.add_rhs_var(0, 1.0e-3);
            if self.extra_entry {
                st.add_var_var(1, 1, 0.5);
            }
        }
    }

    /// A diagonal-only job: a pattern lacking the ladder's off-diagonals.
    struct DiagOnly;

    impl AssembleMna<f64> for DiagOnly {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            st.add_var_var(0, 0, 1.0);
            st.add_var_var(1, 1, 2.0);
            st.add_rhs_var(0, 1.0);
        }
    }

    fn two_node_layout() -> (Circuit, MnaLayout) {
        let mut c = Circuit::new("cache test");
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        c.add_resistor("R2", a, b, 1.0e3);
        c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
        let layout = MnaLayout::new(&c);
        (c, layout)
    }

    #[test]
    fn second_assembly_is_value_only() {
        let (_c, layout) = two_node_layout();
        let mut ctx = SolveContext::<f64>::adopting(&layout);
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        ctx.assemble(&job);
        // The first assembly builds the pattern and is not counted.
        assert_eq!(ctx.stats().cached_assemblies, 0);
        let first = ctx.matrix().clone();
        let job2 = LadderJob {
            g1: 4.0e-3,
            g2: 0.5e-3,
            extra_entry: false,
        };
        let rhs = ctx.assemble(&job2);
        assert!(ctx.matrix().same_pattern(&first));
        assert_eq!(ctx.stats().cached_assemblies, 1);
        assert!((ctx.matrix().get(0, 0) - 4.5e-3).abs() < 1e-18);
        assert!((ctx.matrix().get(0, 1) + 0.5e-3).abs() < 1e-18);
        assert_eq!(rhs[0], 1.0e-3);
    }

    #[test]
    fn factor_counts_refactors() {
        let (_c, layout) = two_node_layout();
        let mut ctx = SolveContext::<f64>::adopting(&layout);
        for k in 1..=5 {
            let job = LadderJob {
                g1: 1.0e-3 * k as f64,
                g2: 2.0e-3,
                extra_entry: false,
            };
            let x = ctx.solve(&job).unwrap();
            assert!(x[0].is_finite());
        }
        let stats = ctx.stats();
        assert_eq!(stats.symbolic, 1);
        assert_eq!(stats.numeric_refactor, 4);
        assert_eq!(stats.fresh_fallback, 0);
        assert_eq!(stats.factorizations(), 5);
    }

    /// A buffered two-stage cascade: two coupled 2x2 blocks and a one-way
    /// coupling (row 2 reads column 1), which BTF splits into two blocks.
    struct CascadeJob {
        first_diag: f64,
    }

    impl AssembleMna<f64> for CascadeJob {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            for (s, diag) in [(0, self.first_diag), (2, 4.0)] {
                st.add_var_var(s, s, diag);
                st.add_var_var(s, s + 1, 1.0);
                st.add_var_var(s + 1, s, 1.0);
                st.add_var_var(s + 1, s + 1, 4.0);
            }
            st.add_var_var(2, 1, 0.5);
            st.add_rhs_var(0, 1.0);
        }
    }

    #[test]
    fn degraded_pivot_repivots_without_dropping_btf_blocks() {
        let mut c = Circuit::new("cascade");
        for name in ["a", "b", "c", "d"] {
            let n = c.node(name);
            c.add_resistor(&format!("R{name}"), n, Circuit::GROUND, 1.0e3);
        }
        let layout = MnaLayout::new(&c);
        let mut ctx = SolveContext::<f64>::adopting(&layout);
        ctx.assemble(&CascadeJob { first_diag: 4.0 });
        let blocks = ctx.factor().unwrap().block_count();
        assert_eq!(blocks, 2);
        // A vanishing first diagonal degrades the adopted pivot order: the
        // context re-pivots through the same block-triangular analysis.
        ctx.assemble(&CascadeJob {
            first_diag: 4.0e-12,
        });
        assert_eq!(ctx.factor().unwrap().block_count(), blocks);
        assert_eq!(ctx.stats().fresh_fallback, 1);
        assert_eq!(ctx.stats().symbolic, 1);
        // The re-pivoted order is the new plan, and it serves the next
        // system with a numeric-only refactorization.
        ctx.assemble(&CascadeJob {
            first_diag: 3.0e-12,
        });
        assert_eq!(ctx.factor().unwrap().block_count(), blocks);
        assert_eq!(ctx.stats().numeric_refactor, 1);
        assert_eq!(ctx.stats().fresh_fallback, 1);
    }

    #[test]
    fn plan_contexts_are_independent_and_deterministic() {
        let (_c, layout) = two_node_layout();
        let job0 = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job0).unwrap();
        assert_eq!(plan.stats().symbolic, 1);
        assert_eq!(plan.dim(), layout.dim());

        // Two contexts solving the same jobs must agree bitwise — and both
        // must match a context that solved them in a different order.
        let jobs: Vec<LadderJob> = (1..=5)
            .map(|k| LadderJob {
                g1: 1.0e-3 * k as f64,
                g2: 2.0e-3 / k as f64,
                extra_entry: false,
            })
            .collect();
        let mut ctx_a = plan.context();
        let mut ctx_b = plan.context();
        let forward: Vec<Vec<f64>> = jobs.iter().map(|j| ctx_a.solve(j).unwrap()).collect();
        let backward: Vec<Vec<f64>> = jobs.iter().rev().map(|j| ctx_b.solve(j).unwrap()).collect();
        for (i, x) in forward.iter().enumerate() {
            let y = &backward[jobs.len() - 1 - i];
            assert_eq!(x, y, "job {i} must not depend on processing order");
        }
        // Every point was a numeric refactorization over the shared plan.
        assert_eq!(ctx_a.stats().symbolic, 0);
        assert_eq!(ctx_a.stats().numeric_refactor, jobs.len());
        assert_eq!(ctx_a.stats().cached_assemblies, jobs.len());
    }

    /// An adopting context (the DC/transient driver) plans from its own
    /// first job instead of the representative one, and still agrees with a
    /// sweep context to rounding.
    #[test]
    fn plan_context_matches_cached_mna() {
        let (_c, layout) = two_node_layout();
        let jobs: Vec<LadderJob> = (1..=4)
            .map(|k| LadderJob {
                g1: 0.5e-3 * k as f64,
                g2: 1.5e-3,
                extra_entry: false,
            })
            .collect();
        let plan = SweepPlan::<f64>::build(&layout, &jobs[0]).unwrap();
        let mut ctx = plan.context();
        let mut adopting = SolveContext::<f64>::adopting(&layout);
        for job in &jobs {
            let from_plan = ctx.solve(job).unwrap();
            let from_adopting = adopting.solve(job).unwrap();
            for (a, b) in from_plan.iter().zip(&from_adopting) {
                assert!((a - b).abs() <= 1e-15 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
        assert_eq!(adopting.stats().symbolic, 1);
        assert_eq!(adopting.stats().numeric_refactor, jobs.len() - 1);
    }

    /// Hands a context over a diagonal-only pattern the off-diagonal
    /// ladder, which its pattern cannot serve.
    fn assemble_off_the_diagonal_pattern(mut ctx: SolveContext<'_, f64>) {
        ctx.assemble(&LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        });
    }

    #[test]
    #[should_panic(expected = "an assembly left the pattern of its context")]
    fn plan_context_panics_on_an_assembly_off_its_pattern() {
        let (_c, layout) = two_node_layout();
        let plan = SweepPlan::<f64>::build(&layout, &DiagOnly).unwrap();
        assemble_off_the_diagonal_pattern(plan.context());
    }

    #[test]
    #[should_panic(expected = "an assembly left the pattern of its context")]
    fn adopting_context_panics_on_an_assembly_off_its_pattern() {
        let (_c, layout) = two_node_layout();
        let mut ctx = SolveContext::<f64>::adopting(&layout);
        ctx.assemble(&DiagOnly);
        assemble_off_the_diagonal_pattern(ctx);
    }

    /// A ladder job that varies only its first conductance.
    fn ladder(g1: f64) -> LadderJob {
        LadderJob {
            g1,
            g2: 2.0e-3,
            extra_entry: false,
        }
    }

    /// A device-free job as a Newton job under explicit keys.
    struct Keyed<J> {
        job: J,
        matrix_key: [u64; 2],
        device_key: u64,
    }

    impl<J: AssembleMna<f64>> AssembleMna<f64> for Keyed<J> {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            self.job.stamp(st);
        }
    }

    impl<J: AssembleMna<f64>> NewtonJob for Keyed<J> {
        fn matrix_key(&self) -> [u64; 2] {
            self.matrix_key
        }

        fn device_stamps(&self) -> &[NonlinearStamp] {
            &[]
        }

        fn device_key(&self) -> u64 {
            self.device_key
        }
    }

    /// [`ladder`]`(g1)` under the matrix key of `g1` and `device_key`.
    fn keyed(g1: f64, device_key: u64) -> Keyed<LadderJob> {
        Keyed {
            job: ladder(g1),
            matrix_key: [g1.to_bits(), 0],
            device_key,
        }
    }

    /// Assembles `job` as a Newton iteration and runs the verified solve.
    fn solve_newton(ctx: &mut SolveContext<'_, f64>, job: &impl NewtonJob) -> Vec<f64> {
        let mut rhs = Vec::new();
        ctx.assemble_newton_into(job, &mut rhs);
        assert!(ctx.solve_verified_in_place(&mut rhs).unwrap().converged);
        rhs
    }

    fn solution_bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn bitwise_repeated_values_reuse_the_refactored_factors() {
        let (_c, layout) = two_node_layout();
        let job = keyed(1.0e-3, 7);
        // Symbolic, then a refactorization that records the keys.
        let mut first = SolveContext::<f64>::adopting(&layout);
        solve_newton(&mut first, &keyed(3.0e-3, 1));
        let want = solve_newton(&mut first, &job);
        assert_eq!(first.stats().numeric_refactor, 1);
        assert_eq!(first.stats().factor_reuses, 0);

        let mut ctx = SolveContext::<f64>::adopting(&layout);
        solve_newton(&mut ctx, &keyed(3.0e-3, 1));
        solve_newton(&mut ctx, &job);
        for _ in 0..3 {
            let x = solve_newton(&mut ctx, &job);
            assert_eq!(solution_bits(&x), solution_bits(&want));
            assert_eq!(bits(ctx.matrix()), reference(&layout, &job).0);
        }
        let stats = ctx.stats();
        assert_eq!(stats.symbolic, 1);
        assert_eq!(stats.numeric_refactor, 1);
        assert_eq!(stats.factor_reuses, 3);
        assert_eq!(stats.cached_assemblies, 4);
        assert_eq!(stats.factorizations(), 2, "a reuse is no factorization");
        // New keys refactor, and the record follows them.
        solve_newton(&mut ctx, &keyed(2.0e-3, 8));
        solve_newton(&mut ctx, &keyed(2.0e-3, 8));
        assert_eq!(ctx.stats().numeric_refactor, 2);
        assert_eq!(ctx.stats().factor_reuses, 4);
        // The same values under another device key are not known to be the
        // same: they refactor. So does a plain assembly, which has no keys.
        solve_newton(&mut ctx, &keyed(2.0e-3, 9));
        ctx.solve(&ladder(2.0e-3)).unwrap();
        assert_eq!(ctx.stats().numeric_refactor, 4);
        assert_eq!(ctx.stats().factor_reuses, 4);
    }

    #[test]
    fn sweep_contexts_never_reuse_factors() {
        let (_c, layout) = two_node_layout();
        let job = keyed(1.0e-3, 7);
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        let first = solve_newton(&mut ctx, &job);
        let second = solve_newton(&mut ctx, &job);
        let third = solve_newton(&mut ctx, &job);
        assert_eq!(solution_bits(&first), solution_bits(&second));
        assert_eq!(solution_bits(&first), solution_bits(&third));
        assert_eq!(ctx.stats().numeric_refactor, 3);
        assert_eq!(ctx.stats().factor_reuses, 0);
    }

    /// An adopting context whose last refactorization recorded the keys of
    /// `job`, and whose next assembly of `job` loads only its right-hand
    /// side and would reuse its factors.
    fn recorded<'p>(layout: &'p MnaLayout, job: &Keyed<LadderJob>) -> SolveContext<'p, f64> {
        let mut ctx = SolveContext::<f64>::adopting(layout);
        solve_newton(&mut ctx, &keyed(3.0e-3, 1));
        solve_newton(&mut ctx, job);
        assert_eq!(ctx.stats().numeric_refactor, 1);
        ctx
    }

    #[test]
    fn poisoned_values_refactor_instead_of_reusing() {
        let (_c, layout) = two_node_layout();
        let job = keyed(1.0e-3, 7);
        let mut ctx = recorded(&layout, &job);
        let mut rhs = Vec::new();
        ctx.assemble_newton_into(&job, &mut rhs);
        let slot = ctx.matrix_mut().find_slot(0, 0).unwrap();
        ctx.matrix_mut().values_mut()[slot] *= 2.0;
        ctx.solve_verified_in_place(&mut rhs).unwrap();
        assert_eq!(ctx.stats().numeric_refactor, 2);
        assert_eq!(ctx.stats().factor_reuses, 0);
        // The answer is the poisoned system's.
        let mut st = Stamper::new(&layout);
        job.stamp(&mut st);
        let (trip, b) = st.finish();
        let mut csr = trip.to_csr();
        let s = csr.find_slot(0, 0).unwrap();
        csr.values_mut()[s] *= 2.0;
        let want = SparseLu::factor(&csr).unwrap().solve(&b).unwrap();
        for (a, w) in rhs.iter().zip(&want) {
            assert!((a - w).abs() <= 1e-15 * w.abs().max(1.0), "{a} vs {w}");
        }
        // The poisoned refactorization recorded no keys: the clean job
        // loads in full and refactors, and only then reuses again.
        solve_newton(&mut ctx, &job);
        assert_eq!(ctx.stats().numeric_refactor, 3);
        assert_eq!(ctx.stats().factor_reuses, 0);
        assert_eq!(bits(ctx.matrix()), reference(&layout, &job).0);
        solve_newton(&mut ctx, &job);
        assert_eq!(ctx.stats().factor_reuses, 1);
    }

    #[test]
    fn a_gmin_rescue_forgets_the_recorded_values() {
        let (_c, layout) = two_node_layout();
        let job = keyed(1.0e-3, 7);
        let mut ctx = recorded(&layout, &job);
        // The keys match the record, so the factors are reused; a dead
        // column poisoned after the factor makes the residual check fail,
        // and the ladder rescues the point with a gmin bump over factors of
        // the bumped values.
        let mut rhs = Vec::new();
        ctx.assemble_newton_into(&job, &mut rhs);
        ctx.factor().unwrap();
        assert_eq!(ctx.stats().factor_reuses, 1);
        let m = ctx.matrix_mut();
        for (r, c) in [(0usize, 1usize), (1, 1)] {
            let slot = m.find_slot(r, c).unwrap();
            m.values_mut()[slot] = 0.0;
        }
        assert!(ctx.solve_verified_in_place(&mut rhs).unwrap().converged);
        assert_eq!(ctx.stats().gmin_bumps, 1);
        // The keys are the recorded ones, but the factors are the rescue's
        // and the buffer holds bumped values: the next assembly loads in
        // full and refactors.
        let (reuses, refactors) = (ctx.stats().factor_reuses, ctx.stats().numeric_refactor);
        let x = solve_newton(&mut ctx, &job);
        assert_eq!(ctx.stats().factor_reuses, reuses);
        assert_eq!(ctx.stats().numeric_refactor, refactors + 1);
        assert_eq!(bits(ctx.matrix()), reference(&layout, &job).0);
        let want = SolveContext::<f64>::adopting(&layout).solve(&job).unwrap();
        for (a, w) in x.iter().zip(&want) {
            assert!((a - w).abs() <= 1e-15 * w.abs().max(1.0), "{a} vs {w}");
        }
    }

    #[test]
    fn a_failed_factorization_forgets_the_recorded_values() {
        let (_c, layout) = two_node_layout();
        let job = keyed(1.0e-3, 7);
        let mut ctx = recorded(&layout, &job);
        // An exactly singular system fails the refactorization.
        ctx.assemble_newton_into(&job, &mut Vec::new());
        let m = ctx.matrix_mut();
        for (r, c) in [(0usize, 1usize), (1, 1)] {
            let slot = m.find_slot(r, c).unwrap();
            m.values_mut()[slot] = 0.0;
        }
        assert!(ctx.factor().is_err());
        // The keys match the record, but the factors are gone: the next
        // factor re-analyzes.
        solve_newton(&mut ctx, &job);
        assert_eq!(ctx.stats().symbolic, 2);
        assert_eq!(ctx.stats().factor_reuses, 0);
        // And that fresh factorization recorded nothing either.
        solve_newton(&mut ctx, &job);
        assert_eq!(ctx.stats().numeric_refactor, 2);
        assert_eq!(ctx.stats().factor_reuses, 0);
        solve_newton(&mut ctx, &job);
        assert_eq!(ctx.stats().factor_reuses, 1);
    }

    #[test]
    fn merged_stats_are_chunking_invariant() {
        let mut a = SolveStats {
            symbolic: 1,
            numeric_refactor: 3,
            factor_reuses: 4,
            fresh_fallback: 0,
            cached_assemblies: 4,
            residual_retries: 1,
            gmin_bumps: 0,
            iterative_fallbacks: 0,
            inverse_fallbacks: 2,
        };
        let b = SolveStats {
            symbolic: 0,
            numeric_refactor: 5,
            factor_reuses: 7,
            fresh_fallback: 1,
            cached_assemblies: 6,
            residual_retries: 2,
            gmin_bumps: 3,
            iterative_fallbacks: 1,
            inverse_fallbacks: 1,
        };
        a.merge(&b);
        assert_eq!(a.symbolic, 1);
        assert_eq!(a.numeric_refactor, 8);
        assert_eq!(a.factor_reuses, 11);
        assert_eq!(a.fresh_fallback, 1);
        assert_eq!(a.cached_assemblies, 10);
        assert_eq!(a.residual_retries, 3);
        assert_eq!(a.gmin_bumps, 3);
        assert_eq!(a.iterative_fallbacks, 1);
        assert_eq!(a.inverse_fallbacks, 3);
        assert_eq!(a.factorizations(), 10);
    }

    #[test]
    fn verified_solve_on_healthy_system_takes_no_escalation() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        let plain = ctx.solve(&job).unwrap();
        let (verified, q) = ctx.solve_verified(&job).unwrap();
        assert!(q.converged);
        assert_eq!(q.refinement_steps, 0);
        assert_eq!(verified, plain);
        assert_eq!(ctx.stats().residual_retries, 0);
        assert_eq!(ctx.stats().gmin_bumps, 0);
        assert_eq!(ctx.stats().symbolic, 0);

        let mut adopting = SolveContext::<f64>::adopting(&layout);
        let (x, q) = adopting.solve_verified(&job).unwrap();
        assert!(q.converged);
        assert_eq!(x, plain);
        assert_eq!(adopting.stats().residual_retries, 0);
        assert_eq!(adopting.stats().gmin_bumps, 0);
        assert_eq!(adopting.stats().symbolic, 1);
    }

    #[test]
    fn stale_factors_escalate_to_a_fresh_point_factorization() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        // Factor honestly, then perturb the matrix under the factors: the
        // refined solve sees a residual it cannot repair with stale factors
        // and must climb to rung 2 (fresh factorization of this point).
        let mut rhs = ctx.assemble(&job);
        ctx.factor().unwrap();
        let slot = ctx.matrix_mut().find_slot(0, 0).unwrap();
        ctx.matrix_mut().values_mut()[slot] *= 1.0e6;
        let q = ctx.solve_verified_in_place(&mut rhs).unwrap();
        assert!(q.converged);
        assert_eq!(ctx.stats().residual_retries, 1);
        assert_eq!(ctx.stats().gmin_bumps, 0);
        // The answer is the solution of the *perturbed* system.
        let mut st = Stamper::new(&layout);
        job.stamp(&mut st);
        let (trip, b) = st.finish();
        let mut csr = trip.to_csr();
        let s = csr.find_slot(0, 0).unwrap();
        csr.values_mut()[s] *= 1.0e6;
        let reference = SparseLu::factor(&csr).unwrap().solve(&b).unwrap();
        for (a, r) in rhs.iter().zip(&reference) {
            assert!((a - r).abs() <= 1e-12 * r.abs().max(1.0), "{a} vs {r}");
        }
    }

    /// Kills column 1 (node `b`) of the ladder after assembly: the system
    /// is exactly singular, so the factor rungs fail and only the gmin bump
    /// can rescue it. A later healthy solve must recover the fast path
    /// without a new symbolic analysis: a sweep context refactors against
    /// its plan, an adopting one against the rescue's adopted pivot order.
    fn rescue_dead_node_column_then_recover(mut ctx: SolveContext<'_, f64>, job: &LadderJob) {
        let mut rhs = ctx.assemble(job);
        let m = ctx.matrix_mut();
        for (r, c) in [(0usize, 1usize), (1, 1)] {
            let slot = m.find_slot(r, c).unwrap();
            m.values_mut()[slot] = 0.0;
        }
        let q = ctx.solve_verified_in_place(&mut rhs).unwrap();
        assert!(q.converged);
        assert_eq!(ctx.stats().gmin_bumps, 1);
        assert!(rhs.iter().all(|v| v.is_finite()));
        // v(b) floats up to the bump conductance's scale — large but finite
        // and flagged through the `gmin_bumps` counter.
        assert!(rhs[1].abs() > 1.0);
        let symbolic = ctx.stats().symbolic;
        let (x, q) = ctx.solve_verified(job).unwrap();
        assert!(q.converged);
        assert!(x.iter().all(|v| v.is_finite()));
        assert_eq!(ctx.stats().symbolic, symbolic);
        assert_eq!(ctx.stats().gmin_bumps, 1);
    }

    #[test]
    fn dead_node_column_is_rescued_by_the_gmin_rung() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        rescue_dead_node_column_then_recover(plan.context(), &job);
    }

    /// The same rescue through the adopting context (the DC/transient
    /// driver), whose gmin rescue replaces its own plan.
    #[test]
    fn cached_mna_gmin_rescue_adopts_and_recovers() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        rescue_dead_node_column_then_recover(SolveContext::adopting(&layout), &job);
    }

    #[test]
    fn singular_branch_column_exhausts_the_ladder_with_names() {
        // A layout with one branch unknown: gmin bumps only touch node
        // diagonals, so a dead branch column must surface as a name-enriched
        // singular error after the ladder runs dry.
        let mut c = Circuit::new("branch ladder");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        let layout = MnaLayout::new(&c);
        struct VsrcJob;
        impl AssembleMna<f64> for VsrcJob {
            fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
                st.add_var_var(0, 0, 1.0e-3);
                st.add_var_var(0, 1, 1.0);
                st.add_var_var(1, 0, 1.0);
                st.add_rhs_var(1, 1.0);
            }
        }
        let plan = SweepPlan::<f64>::build(&layout, &VsrcJob).unwrap();
        let mut ctx = plan.context();
        let mut rhs = ctx.assemble(&VsrcJob);
        // Kill the branch column (var 1 = I(V1)).
        let m = ctx.matrix_mut();
        let slot = m.find_slot(0, 1).unwrap();
        m.values_mut()[slot] = 0.0;
        let err = ctx.solve_verified_in_place(&mut rhs).unwrap_err();
        assert_eq!(
            err,
            SpiceError::SingularSystem {
                unknown: "I(V1)".into(),
                column: 1
            }
        );
        // Both bumps were tried (node diagonals exist) before giving up.
        assert_eq!(ctx.stats().gmin_bumps, GMIN_BUMP_LADDER.len());
    }

    #[test]
    fn nan_stamp_aborts_immediately_with_names() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        let mut rhs = ctx.assemble(&job);
        let m = ctx.matrix_mut();
        let slot = m.find_slot(0, 1).unwrap();
        m.values_mut()[slot] = f64::NAN;
        let err = ctx.solve_verified_in_place(&mut rhs).unwrap_err();
        assert_eq!(
            err,
            SpiceError::NonFiniteStamp {
                row: "V(a)".into(),
                col: "V(b)".into(),
                row_index: 0,
                col_index: 1
            }
        );
        // No rung can repair a NaN: the ladder must not have escalated.
        assert_eq!(ctx.stats().residual_retries, 0);
        assert_eq!(ctx.stats().gmin_bumps, 0);

        // The adopting context takes the identical path.
        let mut adopting = SolveContext::<f64>::adopting(&layout);
        let mut b = adopting.assemble(&job);
        let m = adopting.matrix_mut();
        let slot = m.find_slot(0, 1).unwrap();
        m.values_mut()[slot] = f64::NAN;
        let adopting_err = adopting.solve_verified_in_place(&mut b).unwrap_err();
        assert_eq!(adopting_err, err);
    }

    /// A job whose stamp sequence depends on a flag: `swapped` stamps the
    /// off-diagonal pair in the other order, `extra` appends one stamp.
    struct ReorderingJob {
        swapped: bool,
        extra: bool,
    }

    impl AssembleMna<f64> for ReorderingJob {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            st.add_var_var(0, 0, 3.0e-3);
            let pair = [(0, 1, -1.0e-3), (1, 0, -2.0e-3)];
            let order = if self.swapped { [1, 0] } else { [0, 1] };
            for k in order {
                let (r, c, v) = pair[k];
                st.add_var_var(r, c, v);
            }
            st.add_var_var(1, 1, 0.1 + 0.2);
            st.add_var_var(1, 1, 0.3);
            if self.extra {
                st.add_var_var(0, 0, 1.0e-17);
            }
            st.add_rhs_var(0, 1.0);
        }
    }

    /// The triplet → CSR assembly of `job`, independent of any slot sink:
    /// `(row, col, value bits)` in pattern order, and the right-hand side.
    fn reference(
        layout: &MnaLayout,
        job: &impl AssembleMna<f64>,
    ) -> (Vec<(usize, usize, u64)>, Vec<f64>) {
        let mut st = Stamper::new(layout);
        job.stamp(&mut st);
        let (triplets, rhs) = st.finish();
        (bits(&triplets.to_csr()), rhs)
    }

    fn bits(m: &CsrMatrix<f64>) -> Vec<(usize, usize, u64)> {
        m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
    }

    #[test]
    fn slot_sink_assembles_a_changing_stamp_sequence_exactly() {
        let (_c, layout) = two_node_layout();
        let mut ctx = SolveContext::<f64>::adopting(&layout);
        let jobs = [
            ReorderingJob {
                swapped: false,
                extra: false,
            },
            ReorderingJob {
                swapped: false,
                extra: false,
            },
            ReorderingJob {
                swapped: true,
                extra: false,
            },
            ReorderingJob {
                swapped: true,
                extra: true,
            },
            ReorderingJob {
                swapped: false,
                extra: true,
            },
            ReorderingJob {
                swapped: false,
                extra: false,
            },
        ];
        // The first assembly builds the pattern; reordered and extra stamps
        // over it are value-only assemblies summing in stamp order.
        ctx.assemble(&jobs[0]);
        for job in &jobs[1..] {
            let rhs = ctx.assemble(job);
            assert_eq!((bits(ctx.matrix()), rhs), reference(&layout, job));
        }
        assert_eq!(ctx.stats().cached_assemblies, jobs.len() - 1);
    }

    #[test]
    fn solve_matches_from_scratch_build() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 3.0e-3,
            g2: 1.5e-3,
            extra_entry: true,
        };
        // Naive path.
        let mut st = Stamper::new(&layout);
        job.stamp(&mut st);
        let (trip, rhs) = st.finish();
        let naive = SparseLu::factor(&trip.to_csr())
            .unwrap()
            .solve(&rhs)
            .unwrap();
        // Adopting context, twice (second solve exercises the slot sink).
        let mut ctx = SolveContext::<f64>::adopting(&layout);
        ctx.solve(&job).unwrap();
        let cached = ctx.solve(&job).unwrap();
        for (a, b) in naive.iter().zip(&cached) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }
}
