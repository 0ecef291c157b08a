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

use loopscope_netlist::{Circuit, Element, NodeId};
use loopscope_sparse::{Scalar, TripletMatrix};
use std::collections::HashMap;

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
        Self {
            node_count: circuit.node_count(),
            node_names,
            branch_names,
            branch_index,
            element_branches,
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
            self.rhs[r] += val;
        }
    }

    /// Adds `val` to the right-hand side entry of a raw unknown row.
    pub fn add_rhs_var(&mut self, row: usize, val: T) {
        self.rhs[row] += val;
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
mod tests {
    use super::*;
    use loopscope_netlist::SourceSpec;

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
