//! Modified nodal analysis bookkeeping: unknown layout and stamping helpers.
//!
//! The unknown vector of an MNA system is
//!
//! ```text
//! x = [ v(node 1), …, v(node N−1),  i(branch 1), …, i(branch M) ]
//! ```
//!
//! where branch currents are introduced for elements whose constitutive
//! relation cannot be written as a nodal admittance: independent voltage
//! sources, inductors, voltage-controlled voltage sources and
//! current-controlled voltage sources. Ground (node 0) is eliminated.
//!
//! The DC, transient and AC systems share one element stamp body,
//! `Stamper::stamp_elements`. It stamps the node-diagonal gmin and every
//! element that is the same MNA stamp in all three analyses — resistors,
//! the four controlled sources, and the branch incidences of voltage
//! sources and inductors — and asks the analysis, through the crate-private
//! `StampModel` trait, only for what differs: a capacitor's admittance and
//! history current, an inductor's branch term and history, an independent
//! source's value, and each nonlinear device's stamp.

use crate::devices::NonlinearStamp;
use loopscope_netlist::{Capacitor, Circuit, Element, Inductor, NodeId, SourceSpec};
use loopscope_sparse::{Scalar, TripletMatrix};
use std::collections::HashMap;

/// Which stamps of an assembly job one pass emits: the full assembly, and
/// the parts a [`NewtonImage`](crate::assembly::NewtonImage) keeps apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampPart {
    /// Every stamp in element order: the job's full assembly.
    All,
    /// The stamps of the linear elements that can stamp the right-hand
    /// side — independent sources, capacitors and inductors — in the same
    /// order: what a Newton image restamps once per Newton run.
    LinearRhs,
}

impl StampPart {
    /// Every part, in declaration order.
    pub const ALL: [StampPart; 2] = [StampPart::All, StampPart::LinearRhs];

    /// Whether the pass stamps the gmin conductances of the node
    /// diagonals (linear stamps outside any element).
    pub fn stamps_gmin(self) -> bool {
        self == StampPart::All
    }

    /// Whether the pass stamps `element`.
    pub fn stamps(self, element: &Element) -> bool {
        match self {
            StampPart::All => true,
            StampPart::LinearRhs => matches!(
                element,
                Element::Vsource(_)
                    | Element::Isource(_)
                    | Element::Capacitor(_)
                    | Element::Inductor(_)
            ),
        }
    }
}

/// Index assignment for the MNA unknown vector of a circuit.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    node_count: usize,
    node_names: Vec<String>,
    branch_names: Vec<String>,
    branch_index: HashMap<String, usize>,
    /// Per element index (circuit order): the unknown of the element's own
    /// branch current and, for current-controlled sources, the unknown of
    /// the controlling source's branch — resolved once here so stamp loops
    /// index a table instead of hashing element names.
    element_branches: Vec<(Option<u32>, Option<u32>)>,
    /// Per [`StampPart`] (in declaration order): the positions of the
    /// elements that pass stamps, so a right-hand-side pass visits only its
    /// own elements.
    part_elements: [Vec<usize>; 2],
    /// The positions of the nonlinear devices, in circuit order: the stamp
    /// order of a Newton job's evaluated device stamps.
    device_elements: Vec<usize>,
}

impl MnaLayout {
    /// Builds the layout for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let mut branch_names = Vec::new();
        let mut branch_index = HashMap::new();
        for el in circuit.elements() {
            let needs_branch = matches!(
                el,
                Element::Vsource(_) | Element::Inductor(_) | Element::Vcvs(_) | Element::Ccvs(_)
            );
            if needs_branch {
                branch_index.insert(el.name().to_string(), branch_names.len());
                branch_names.push(el.name().to_string());
            }
        }
        let node_names = circuit
            .signal_nodes_iter()
            .map(|n| circuit.node_name(n).to_string())
            .collect();
        let first_branch = circuit.node_count() - 1;
        let var_of = |name: &str| {
            branch_index
                .get(name)
                .map(|&i| u32::try_from(first_branch + i).expect("unknown index fits u32"))
        };
        let element_branches = circuit
            .elements()
            .iter()
            .map(|el| {
                let control = match el {
                    Element::Cccs(f) => var_of(&f.ctrl_vsource),
                    Element::Ccvs(h) => var_of(&h.ctrl_vsource),
                    _ => None,
                };
                (var_of(el.name()), control)
            })
            .collect();
        let positions = |keep: &dyn Fn(&Element) -> bool| {
            let elements = circuit.elements().iter().enumerate();
            elements
                .filter(|(_, el)| keep(el))
                .map(|(ei, _)| ei)
                .collect()
        };
        let part_elements = StampPart::ALL.map(|part| positions(&|el| part.stamps(el)));
        let device_elements = positions(&Element::is_nonlinear);
        Self {
            node_count: circuit.node_count(),
            node_names,
            branch_names,
            branch_index,
            element_branches,
            part_elements,
            device_elements,
        }
    }

    /// Total number of unknowns (node voltages plus branch currents).
    pub fn dim(&self) -> usize {
        (self.node_count - 1) + self.branch_names.len()
    }

    /// Number of branch-current unknowns.
    pub fn branch_count(&self) -> usize {
        self.branch_names.len()
    }

    /// Unknown index of a node voltage, or `None` for the ground node.
    pub fn node_var(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of the branch current owned by the named element.
    pub fn branch_var(&self, element_name: &str) -> Option<usize> {
        self.branch_index
            .get(element_name)
            .map(|&i| (self.node_count - 1) + i)
    }

    /// Unknown index of the branch current owned by the element at position
    /// `element` of the circuit's element list — the table lookup stamp
    /// loops use instead of [`branch_var`](MnaLayout::branch_var).
    #[inline]
    pub fn element_branch(&self, element: usize) -> Option<usize> {
        self.element_branches[element].0.map(|v| v as usize)
    }

    /// Positions, in circuit order, of the elements a `part` pass stamps.
    #[inline]
    pub fn part_elements(&self, part: StampPart) -> &[usize] {
        &self.part_elements[part as usize]
    }

    /// Positions, in circuit order, of the nonlinear devices: the stamp
    /// order of a Newton job's evaluated device stamps.
    #[inline]
    pub fn device_elements(&self) -> &[usize] {
        &self.device_elements
    }

    /// Unknown index of the controlling source's branch current for the
    /// current-controlled source (CCCS or CCVS) at position `element`.
    #[inline]
    pub fn control_branch(&self, element: usize) -> Option<usize> {
        self.element_branches[element].1.map(|v| v as usize)
    }

    /// Human-readable name of an unknown, for error enrichment: node-voltage
    /// unknowns render as `V(name)`, branch-current unknowns as `I(element)`,
    /// and out-of-range indices fall back to the raw `x[var]` position.
    pub fn unknown_name(&self, var: usize) -> String {
        if let Some(node) = self.node_names.get(var) {
            format!("V({node})")
        } else if let Some(branch) = self.branch_names.get(var - self.node_names.len()) {
            format!("I({branch})")
        } else {
            format!("x[{var}]")
        }
    }

    /// Extracts the voltage of `node` from a solution vector (0 for ground).
    pub fn node_value<T: Scalar>(&self, solution: &[T], node: NodeId) -> T {
        match self.node_var(node) {
            Some(idx) => solution[idx],
            None => T::ZERO,
        }
    }
}

/// Destination of MNA matrix stamps.
///
/// Implemented by [`TripletMatrix`] (pattern discovery: every stamp appends a
/// coordinate entry) and by [`crate::assembly::SlotSink`] (in-place
/// re-assembly: every stamp accumulates into a precomputed CSR value slot).
/// Element stamping code is written once against [`Stamper`] and works with
/// either destination.
pub trait MatrixSink<T: Scalar> {
    /// Accumulates `value` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, value: T);

    /// Accumulates `value` into `rhs[row]`, the stamper's right-hand side.
    /// Sinks that compile or refresh a right-hand side of their own override
    /// it to see every right-hand-side stamp in order.
    #[inline]
    fn add_rhs(&mut self, rhs: &mut [T], row: usize, value: T) {
        rhs[row] += value;
    }

    /// Accumulates one nonlinear device's linearized stamp: its
    /// conductances, then its companion currents into `rhs`, entries on
    /// the ground row or column dropped through `layout`. Every other stamp
    /// is a linear element's. The default adds the entries one by one, in
    /// that order; the sink that compiles a Newton image takes the device
    /// as a whole.
    #[inline]
    fn add_device(&mut self, layout: &MnaLayout, rhs: &mut [T], stamp: &NonlinearStamp) {
        for &(r, c, g) in stamp.conductances() {
            if let (Some(r), Some(c)) = (layout.node_var(r), layout.node_var(c)) {
                self.add(r, c, T::from_f64(g));
            }
        }
        for &(node, i) in stamp.rhs_currents() {
            if let Some(r) = layout.node_var(node) {
                self.add_rhs(rhs, r, T::from_f64(i));
            }
        }
    }
}

/// What one analysis supplies to the shared stamp body
/// ([`Stamper::stamp_elements`]): the stamps that differ between the DC,
/// transient and AC systems. Arguments named `ei` are element positions in
/// circuit order.
pub(crate) trait StampModel<T: Scalar> {
    /// The circuit whose elements are stamped.
    fn circuit(&self) -> &Circuit;

    /// The circuit's own layout: which elements a part stamps and which
    /// unknowns their branches own. The stamper may address another layout
    /// of the same dimension (a batched variant stamped over the batch
    /// base's pattern); node unknowns are the same in every layout.
    fn layout(&self) -> &MnaLayout;

    /// The element stamped at position `ei`: the circuit's own `element`
    /// unless the analysis substitutes a value override there.
    fn element<'e>(&'e self, _ei: usize, element: &'e Element) -> &'e Element {
        element
    }

    /// The capacitor's admittance and optional history current (injected
    /// into `c.a`, drawn out of `c.b`); `None` leaves it open.
    fn capacitor(&self, ei: usize, c: &Capacitor) -> Option<(T, Option<T>)>;

    /// The inductor's term on its branch diagonal `br` and optional history
    /// (the branch row's right-hand side); `None` leaves it a short.
    fn inductor(&self, ei: usize, br: usize, l: &Inductor) -> Option<(T, Option<T>)>;

    /// An independent source's value, or `None` when it stamps nothing.
    fn source(&self, spec: &SourceSpec) -> Option<T>;

    /// Stamps the nonlinear device `element` at position `ei`, the
    /// `device`-th of the circuit's devices in stamp order (the order of
    /// [`MnaLayout::device_elements`]).
    fn device<S: MatrixSink<T>>(
        &self,
        st: &mut Stamper<'_, T, S>,
        ei: usize,
        device: usize,
        element: &Element,
    );
}

impl<T: Scalar> MatrixSink<T> for TripletMatrix<T> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: T) {
        self.push(row, col, value);
    }
}

/// Accumulates MNA stamps into a matrix sink and right-hand side, hiding the
/// ground-elimination bookkeeping from element code.
#[derive(Debug)]
pub struct Stamper<'a, T: Scalar, S: MatrixSink<T> = TripletMatrix<T>> {
    layout: &'a MnaLayout,
    matrix: S,
    rhs: Vec<T>,
}

impl<'a, T: Scalar> Stamper<'a, T, TripletMatrix<T>> {
    /// Creates an empty triplet-backed stamper for the given layout (the
    /// pattern-discovery path).
    pub fn new(layout: &'a MnaLayout) -> Self {
        let n = layout.dim();
        Self::with_sink(layout, TripletMatrix::with_capacity(n, n, 8 * n))
    }

    /// Consumes the stamper and returns the assembled matrix and RHS.
    pub fn finish(self) -> (TripletMatrix<T>, Vec<T>) {
        (self.matrix, self.rhs)
    }
}

impl<'a, T: Scalar, S: MatrixSink<T>> Stamper<'a, T, S> {
    /// Creates a stamper writing matrix entries into an explicit sink.
    pub fn with_sink(layout: &'a MnaLayout, sink: S) -> Self {
        Self::with_sink_reusing(layout, sink, Vec::new())
    }

    /// Like [`with_sink`](Stamper::with_sink), but reusing a caller-supplied
    /// right-hand-side buffer instead of allocating a fresh one: the buffer
    /// is cleared and zero-filled to the layout dimension in place, so once
    /// its capacity has reached `layout.dim()` no heap allocation happens.
    /// This is what keeps repeated assemblies — e.g. every Newton iteration
    /// of every transient timestep — allocation-free; the buffer comes back
    /// out of [`into_parts`](Stamper::into_parts).
    pub fn with_sink_reusing(layout: &'a MnaLayout, sink: S, mut rhs: Vec<T>) -> Self {
        rhs.clear();
        rhs.resize(layout.dim(), T::ZERO);
        Self {
            layout,
            matrix: sink,
            rhs,
        }
    }

    /// Like [`with_sink_reusing`](Stamper::with_sink_reusing), but keeping
    /// `rhs` exactly as it is: the sink keeps a right-hand side of its own
    /// (a Newton image's compile and right-hand-side refresh pass an empty
    /// one, so neither allocates it).
    pub fn with_sink_over(layout: &'a MnaLayout, sink: S, rhs: Vec<T>) -> Self {
        Self {
            layout,
            matrix: sink,
            rhs,
        }
    }

    /// Adds one nonlinear device's stamp; see [`MatrixSink::add_device`].
    pub fn add_device(&mut self, stamp: &NonlinearStamp) {
        self.matrix.add_device(self.layout, &mut self.rhs, stamp);
    }

    /// The layout this stamper addresses.
    pub fn layout(&self) -> &MnaLayout {
        self.layout
    }

    /// Consumes the stamper and returns the sink and RHS.
    pub fn into_parts(self) -> (S, Vec<T>) {
        (self.matrix, self.rhs)
    }

    /// Adds `val` at the matrix position addressed by two node voltages.
    /// Entries involving ground are dropped.
    pub fn add_node_node(&mut self, row: NodeId, col: NodeId, val: T) {
        if let (Some(r), Some(c)) = (self.layout.node_var(row), self.layout.node_var(col)) {
            self.matrix.add(r, c, val);
        }
    }

    /// Adds `val` at (node-voltage row, raw unknown column).
    pub fn add_node_var(&mut self, row: NodeId, col: usize, val: T) {
        if let Some(r) = self.layout.node_var(row) {
            self.matrix.add(r, col, val);
        }
    }

    /// Adds `val` at (raw unknown row, node-voltage column).
    pub fn add_var_node(&mut self, row: usize, col: NodeId, val: T) {
        if let Some(c) = self.layout.node_var(col) {
            self.matrix.add(row, c, val);
        }
    }

    /// Adds `val` at a raw (row, column) position.
    pub fn add_var_var(&mut self, row: usize, col: usize, val: T) {
        self.matrix.add(row, col, val);
    }

    /// Adds `val` to the right-hand side entry of a node-voltage row.
    pub fn add_rhs_node(&mut self, node: NodeId, val: T) {
        if let Some(r) = self.layout.node_var(node) {
            self.matrix.add_rhs(&mut self.rhs, r, val);
        }
    }

    /// Adds `val` to the right-hand side entry of a raw unknown row.
    pub fn add_rhs_var(&mut self, row: usize, val: T) {
        self.matrix.add_rhs(&mut self.rhs, row, val);
    }

    /// Stamps a two-terminal admittance `y` between nodes `a` and `b`
    /// (resistor, capacitor admittance, linearized device conductance …).
    pub fn stamp_admittance(&mut self, a: NodeId, b: NodeId, y: T) {
        self.add_node_node(a, a, y);
        self.add_node_node(b, b, y);
        self.add_node_node(a, b, -y);
        self.add_node_node(b, a, -y);
    }

    /// Stamps a current `i` injected *into* node `a` and drawn *out of* node
    /// `b` (i.e. a current source from `b` to `a` through the source).
    pub fn stamp_current_injection(&mut self, into: NodeId, out_of: NodeId, i: T) {
        self.add_rhs_node(into, i);
        self.add_rhs_node(out_of, -i);
    }

    /// Stamps the elements of `part` of `model`'s system: the node-diagonal
    /// `gmin` first (when the part stamps it), then every element of the
    /// part in circuit order, positions and branches taken from the model's
    /// own layout.
    pub(crate) fn stamp_elements<M: StampModel<T>>(&mut self, part: StampPart, gmin: T, model: &M) {
        let circuit = model.circuit();
        if part.stamps_gmin() {
            for node in circuit.signal_nodes_iter() {
                self.add_node_node(node, node, gmin);
            }
        }
        let layout = model.layout();
        let branch = |ei: usize| layout.element_branch(ei).expect("element owns a branch");
        let mut devices = 0;
        for &ei in layout.part_elements(part) {
            match model.element(ei, &circuit.elements()[ei]) {
                Element::Resistor(r) => self.stamp_admittance(r.a, r.b, T::from_f64(1.0 / r.ohms)),
                Element::Capacitor(c) => {
                    if let Some((y, history)) = model.capacitor(ei, c) {
                        self.stamp_admittance(c.a, c.b, y);
                        if let Some(i) = history {
                            self.stamp_current_injection(c.a, c.b, i);
                        }
                    }
                }
                Element::Inductor(l) => {
                    let br = branch(ei);
                    self.stamp_branch(br, l.a, l.b, |_| {});
                    if let Some((z, history)) = model.inductor(ei, br, l) {
                        self.add_var_var(br, br, z);
                        if let Some(v) = history {
                            self.add_rhs_var(br, v);
                        }
                    }
                }
                Element::Vsource(v) => {
                    let br = branch(ei);
                    self.stamp_branch(br, v.plus, v.minus, |_| {});
                    if let Some(value) = model.source(&v.spec) {
                        self.add_rhs_var(br, value);
                    }
                }
                Element::Isource(i) => {
                    // Current flows from `plus` through the source into `minus`.
                    if let Some(value) = model.source(&i.spec) {
                        self.stamp_current_injection(i.minus, i.plus, value);
                    }
                }
                Element::Vcvs(e) => {
                    let br = branch(ei);
                    self.stamp_branch(br, e.out_plus, e.out_minus, |st| {
                        st.add_var_node(br, e.ctrl_plus, T::from_f64(-e.gain));
                        st.add_var_node(br, e.ctrl_minus, T::from_f64(e.gain));
                    });
                }
                Element::Vccs(g) => self.stamp_vccs(
                    g.out_plus,
                    g.out_minus,
                    g.ctrl_plus,
                    g.ctrl_minus,
                    T::from_f64(g.gm),
                ),
                Element::Cccs(f) => {
                    let ctrl = layout
                        .control_branch(ei)
                        .expect("controlling source validated");
                    self.add_node_var(f.out_plus, ctrl, T::from_f64(f.gain));
                    self.add_node_var(f.out_minus, ctrl, T::from_f64(-f.gain));
                }
                Element::Ccvs(h) => {
                    let br = branch(ei);
                    let ctrl = layout
                        .control_branch(ei)
                        .expect("controlling source validated");
                    self.stamp_branch(br, h.out_plus, h.out_minus, |st| {
                        st.add_var_var(br, ctrl, T::from_f64(-h.rm));
                    });
                }
                device @ (Element::Diode(_) | Element::Bjt(_) | Element::Mosfet(_)) => {
                    model.device(self, ei, devices, device);
                    devices += 1;
                }
            }
        }
    }

    /// Stamps the incidence of branch current `br`, which flows into its
    /// element at `plus` and out at `minus`: the branch row's
    /// `v(plus) − v(minus)`, then `row` (the rest of the branch row), then
    /// the branch column in the two node rows.
    fn stamp_branch(
        &mut self,
        br: usize,
        plus: NodeId,
        minus: NodeId,
        row: impl FnOnce(&mut Self),
    ) {
        self.add_var_node(br, plus, T::ONE);
        self.add_var_node(br, minus, -T::ONE);
        row(self);
        self.add_node_var(plus, br, T::ONE);
        self.add_node_var(minus, br, -T::ONE);
    }

    /// Stamps a voltage-controlled current source: a current
    /// `gm·(v(cp) − v(cm))` flowing out of node `op`, through the source, into
    /// node `om`.
    pub fn stamp_vccs(&mut self, op: NodeId, om: NodeId, cp: NodeId, cm: NodeId, gm: T) {
        self.add_node_node(op, cp, gm);
        self.add_node_node(op, cm, -gm);
        self.add_node_node(om, cp, -gm);
        self.add_node_node(om, cm, gm);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ac::AcAnalysis;
    use crate::assembly::{AssembleMna, NewtonJob};
    use crate::batch::ParameterVariation;
    use crate::dc::{self, solve_dc};
    use crate::tran::{Integration, TransientAnalysis, TransientOptions};
    use loopscope_math::Complex64;
    use loopscope_netlist::{MosfetModel, MosfetPolarity, SourceSpec};

    /// One circuit with every element kind (R, C, L, V, I, E, G, F, H, D,
    /// Q, M), AC sources on V and I, and capacitances on every device.
    pub(crate) fn every_element_kind() -> Circuit {
        use loopscope_netlist::{BjtModel, BjtPolarity, DiodeModel, MosfetModel, MosfetPolarity};
        let mut c = Circuit::new("every kind");
        let vin = c.node("in");
        let a = c.node("a");
        let b = c.node("b");
        let e = c.node("e");
        let f = c.node("f");
        let g = c.node("g");
        let h = c.node("h");
        let vcc = c.node("vcc");
        let qb = c.node("qb");
        let qc = c.node("qc");
        let md = c.node("md");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc_ac(1.5, 1.0, 0.0));
        c.add_vsource("VCC", vcc, Circuit::GROUND, SourceSpec::dc(5.0));
        c.add_resistor("R1", vin, a, 1.0e3);
        c.add_capacitor("C1", a, Circuit::GROUND, 1.0e-9);
        c.add_inductor("L1", a, b, 1.0e-6);
        c.add_resistor("R2", b, Circuit::GROUND, 2.0e3);
        c.add_isource(
            "I1",
            Circuit::GROUND,
            b,
            SourceSpec::dc_ac(0.0, 1.0e-3, 30.0),
        );
        c.add_vcvs("E1", e, Circuit::GROUND, a, Circuit::GROUND, 3.0);
        c.add_resistor("R3", e, Circuit::GROUND, 1.0e3);
        c.add_vccs("G1", f, Circuit::GROUND, a, b, 1.0e-3);
        c.add_resistor("R4", f, Circuit::GROUND, 1.0e3);
        c.add_cccs("F1", g, Circuit::GROUND, "V1", 2.0);
        c.add_resistor("R5", g, Circuit::GROUND, 1.0e3);
        c.add_ccvs("H1", h, Circuit::GROUND, "V1", 5.0e2);
        c.add_resistor("R6", h, Circuit::GROUND, 1.0e3);
        c.add_diode(
            "D1",
            b,
            Circuit::GROUND,
            DiodeModel {
                cj0: 2.0e-12,
                ..Default::default()
            },
        );
        c.add_resistor("RB", vcc, qb, 430.0e3);
        c.add_resistor("RC", vcc, qc, 2.0e3);
        c.add_bjt(
            "Q1",
            qc,
            qb,
            Circuit::GROUND,
            BjtPolarity::Npn,
            BjtModel {
                cje: 1.0e-12,
                cjc: 5.0e-13,
                tf: 1.0e-10,
                ..Default::default()
            },
        );
        c.add_resistor("RD", vcc, md, 5.0e3);
        c.add_mosfet(
            "M1",
            md,
            vin,
            Circuit::GROUND,
            MosfetPolarity::Nmos,
            10.0e-6,
            1.0e-6,
            MosfetModel {
                cgs: 1.0e-14,
                cgd: 5.0e-15,
                cdb: 2.0e-15,
                ..Default::default()
            },
        );
        c
    }

    /// Records every matrix stamp in order — exactly what a
    /// [`TripletMatrix`] pushes, since it implements only `add` — so a test
    /// can compare the stamp sequence itself, signed zeros included.
    struct Recorder<T>(Vec<(usize, usize, T)>);

    impl<T: Scalar> MatrixSink<T> for Recorder<T> {
        fn add(&mut self, row: usize, col: usize, value: T) {
            self.0.push((row, col, value));
        }
    }

    /// The bit patterns of a scalar's parts (`im` is 0 for `f64`).
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for Complex64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    /// The stamp count and an FNV-1a hash of the `(row, col, value bits)`
    /// sequence followed by the right-hand side's bits.
    fn fingerprint<T: Bits>(st: Stamper<'_, T, Recorder<T>>) -> (usize, u64) {
        let (stamps, rhs) = st.into_parts();
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for &(r, c, v) in &stamps.0 {
            eat(r as u64);
            eat(c as u64);
            v.bits().into_iter().for_each(&mut eat);
        }
        for &v in &rhs {
            v.bits().into_iter().for_each(&mut eat);
        }
        (stamps.0.len(), hash)
    }

    /// Every analysis's stamps of the every-kind circuit, and of the same
    /// circuit plus a MOSFET that conducts with drain and source swapped at
    /// its operating point: the DC job, both transient methods (each part),
    /// and the AC system at two frequencies — probe system, and with the
    /// circuit's sources and value overrides — against fingerprints of the
    /// stamp sequences taken before the analyses shared one stamp body.
    #[test]
    fn stamps_of_every_analysis_are_pinned_bitwise() {
        let base = every_element_kind();
        let mut swapped = every_element_kind();
        let vin = swapped.find_node("in").unwrap();
        let md = swapped.find_node("md").unwrap();
        swapped.add_mosfet(
            "M2",
            Circuit::GROUND,
            vin,
            md,
            MosfetPolarity::Nmos,
            10.0e-6,
            1.0e-6,
            MosfetModel::default(),
        );
        let variation = ParameterVariation::new(0x5EED)
            .gaussian("R1", 0.1)
            .uniform("C1", 0.2)
            .uniform("L1", 0.2)
            .gaussian("E1", 0.1)
            .gaussian("G1", 0.1)
            .uniform("F1", 0.2)
            .uniform("H1", 0.2);
        let mut got = Vec::new();
        for c in [&base, &swapped] {
            let layout = MnaLayout::new(c);
            let op = solve_dc(c).unwrap();
            let v = op.node_voltages();
            let history: Vec<f64> = (0..c.elements().len().max(layout.dim()))
                .map(|k| 1.0e-3 * (k as f64 + 1.0))
                .collect();
            let dc_job = dc::assembly_job(c, &layout, v);
            let tran = TransientAnalysis::new(c, TransientOptions::new(1.0e-9, 1.0e-6)).unwrap();
            for part in StampPart::ALL {
                let mut st = Stamper::with_sink(&layout, Recorder(Vec::new()));
                dc_job.stamp_part(&mut st, part);
                got.push(fingerprint(st));
                for method in [Integration::BackwardEuler, Integration::Trapezoidal] {
                    let mut st = Stamper::with_sink(&layout, Recorder(Vec::new()));
                    tran.assembly_job(2.0e-9, method, v, &history)
                        .stamp_part(&mut st, part);
                    got.push(fingerprint(st));
                }
            }
            let ac = AcAnalysis::new(c, &op).unwrap();
            let positions = variation.rule_positions(c).unwrap();
            let overrides = variation.overrides_for(1, c, &positions).unwrap();
            for f in [1.0e3, 1.0e7] {
                let mut st = Stamper::with_sink(&layout, Recorder(Vec::new()));
                ac.assembly_job(f).stamp(&mut st);
                got.push(fingerprint(st));
                let mut st = Stamper::with_sink(&layout, Recorder(Vec::new()));
                ac.system(f, true, &overrides).stamp(&mut st);
                got.push(fingerprint(st));
            }
        }
        let pinned: [(usize, u64); 20] = [
            // every-kind circuit — All: DC, BE, trapezoidal
            (56, 0xb7a444a5c6df0b7d),
            (58, 0x678ba6664eeb6829),
            (58, 0x3a160d98aeb02ba2),
            // every-kind circuit — LinearRhs: DC, BE, trapezoidal
            (8, 0x3663e01ce2ccdaa4),
            (10, 0xf7cf8d79603ac884),
            (10, 0xd0e076b5b7ae9fd3),
            // every-kind circuit — AC at 1 kHz, then 10 MHz: probe, sources + overrides
            (70, 0xd47aa0d340129843),
            (70, 0xceaaecbfb476fa96),
            (70, 0xa1a10bfb56f600ac),
            (70, 0x5882d6fdf175d6d9),
            // with the swapped MOSFET — All: DC, BE, trapezoidal
            (58, 0xba29dad86ebc2bbf),
            (60, 0x0dd88278881df0bf),
            (60, 0x950cc24683c1edac),
            // with the swapped MOSFET — LinearRhs: DC, BE, trapezoidal
            (8, 0x3663e01ce2ccdaa4),
            (10, 0xf7cf8d79603ac884),
            (10, 0xd0e076b5b7ae9fd3),
            // with the swapped MOSFET — AC at 1 kHz, then 10 MHz: probe, sources + overrides
            (72, 0x94a3ec1bcc8143f7),
            (72, 0x52d16e9f0ae2355a),
            (72, 0xfd727ccb781f334c),
            (72, 0xcd6c283b5ecda211),
        ];
        assert_eq!(got, pinned);
    }

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new("layout test");
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, b, 1e3);
        c.add_inductor("L1", b, d, 1e-6);
        c.add_capacitor("C1", d, Circuit::GROUND, 1e-12);
        c.add_vcvs("E1", d, Circuit::GROUND, a, b, 2.0);
        c
    }

    #[test]
    fn layout_counts_and_indices() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        // 3 signal nodes + branches for V1, L1, E1.
        assert_eq!(layout.dim(), 3 + 3);
        assert_eq!(layout.branch_count(), 3);
        assert_eq!(layout.node_var(Circuit::GROUND), None);
        let a = ckt.find_node("a").unwrap();
        assert_eq!(layout.node_var(a), Some(0));
        assert_eq!(layout.branch_var("V1"), Some(3));
        assert_eq!(layout.branch_var("L1"), Some(4));
        assert_eq!(layout.branch_var("E1"), Some(5));
        assert_eq!(layout.branch_var("R1"), None);
        // The per-element table agrees with the name lookup, in element
        // order: V1, R1, L1, C1, E1.
        for (ei, el) in ckt.elements().iter().enumerate() {
            assert_eq!(layout.element_branch(ei), layout.branch_var(el.name()));
            assert_eq!(layout.control_branch(ei), None);
        }
    }

    #[test]
    fn control_branch_table_resolves_controlling_sources() {
        let mut ckt = sample_circuit();
        let d = ckt.find_node("d").unwrap();
        ckt.add_cccs("F1", d, Circuit::GROUND, "V1", 2.0);
        ckt.add_ccvs("H1", d, Circuit::GROUND, "V1", 3.0);
        let layout = MnaLayout::new(&ckt);
        let v1 = layout.branch_var("V1");
        let f1 = ckt.element_position("F1").unwrap();
        let h1 = ckt.element_position("H1").unwrap();
        assert_eq!(layout.control_branch(f1), v1);
        assert_eq!(layout.element_branch(f1), None);
        assert_eq!(layout.control_branch(h1), v1);
        assert_eq!(layout.element_branch(h1), layout.branch_var("H1"));
    }

    #[test]
    fn unknown_names_cover_nodes_branches_and_overflow() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        assert_eq!(layout.unknown_name(0), "V(a)");
        assert_eq!(layout.unknown_name(1), "V(b)");
        assert_eq!(layout.unknown_name(2), "V(d)");
        assert_eq!(layout.unknown_name(3), "I(V1)");
        assert_eq!(layout.unknown_name(4), "I(L1)");
        assert_eq!(layout.unknown_name(5), "I(E1)");
        assert_eq!(layout.unknown_name(6), "x[6]");
    }

    #[test]
    fn node_value_extraction() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        let solution = vec![1.0, 2.0, 3.0, -0.5, 0.0, 0.1];
        let b = ckt.find_node("b").unwrap();
        assert_eq!(layout.node_value(&solution, b), 2.0);
        assert_eq!(layout.node_value(&solution, Circuit::GROUND), 0.0);
    }

    #[test]
    fn stamper_ignores_ground() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        let mut st = Stamper::<f64>::new(&layout);
        let a = ckt.find_node("a").unwrap();
        st.stamp_admittance(a, Circuit::GROUND, 0.5);
        let (m, rhs) = st.finish();
        let csr = m.to_csr();
        // Only the (a, a) entry survives ground elimination.
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), 0.5);
        assert!(rhs.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stamper_admittance_pattern() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        let a = ckt.find_node("a").unwrap();
        let b = ckt.find_node("b").unwrap();
        let mut st = Stamper::<f64>::new(&layout);
        st.stamp_admittance(a, b, 2.0);
        let (m, _) = st.finish();
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 0), 2.0);
        assert_eq!(csr.get(1, 1), 2.0);
        assert_eq!(csr.get(0, 1), -2.0);
        assert_eq!(csr.get(1, 0), -2.0);
    }

    #[test]
    fn stamper_current_injection_sign() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        let a = ckt.find_node("a").unwrap();
        let mut st = Stamper::<f64>::new(&layout);
        st.stamp_current_injection(a, Circuit::GROUND, 1e-3);
        let (_, rhs) = st.finish();
        assert_eq!(rhs[0], 1e-3);
        assert!(rhs[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stamper_vccs_pattern() {
        let ckt = sample_circuit();
        let layout = MnaLayout::new(&ckt);
        let a = ckt.find_node("a").unwrap();
        let b = ckt.find_node("b").unwrap();
        let d = ckt.find_node("d").unwrap();
        let mut st = Stamper::<f64>::new(&layout);
        st.stamp_vccs(d, Circuit::GROUND, a, b, 1e-3);
        let (m, _) = st.finish();
        let csr = m.to_csr();
        assert_eq!(csr.get(2, 0), 1e-3);
        assert_eq!(csr.get(2, 1), -1e-3);
    }
}
