//! Experiment S1 — symbolic/numeric LU split: factor-once-vs-refactor on
//! the op-amp MNA matrix and N-stage RC ladders.
//!
//! The whole-circuit stability scan solves `Y(jω)·x = b` at hundreds of
//! frequency points with an identical sparsity pattern; this bench isolates
//! the solver-side win of reusing the pivot order and fill pattern
//! ([`loopscope_sparse::SparseLu::refactor_into`]) instead of running a
//! fresh factorization ([`loopscope_sparse::SparseLu::factor`]: BTF, then a
//! minimum-degree order and threshold pivoting per block) per point, splits
//! the one-time analysis of a new pattern into BTF, ordering, block
//! elimination and the op-list and selected-inversion index builds (on the
//! 16×16 grid's AC system, the 400-stage ladder and Table 2's AC system,
//! with a bound on the grid's fresh factorization in refactorizations), prints
//! the sweep-level counters proving a whole scan performs exactly one
//! symbolic analysis, (S3) measures the thread scaling of the
//! `SweepPlan`/`SolveContext` parallel sweep executor at 1/2/4 workers, and
//! (S4b) measures the all-nodes scan's selected inversion against per-RHS
//! solves. The fill `factor` reaches on the ladder, the 33×33 mesh and the
//! buffered op-amp cascade is pinned by the unit tests of
//! `loopscope-bench`. (S8) compares the LTE-controlled adaptive transient
//! stepper against the fixed grid on a stiff two-time-constant RC at
//! matched accuracy, and times the whole Table 2 transient with its
//! bypassed-iteration and reused-factor counters. (S9) times one assembly per point, layer by layer:
//! the AC system stamped element by element against a load from the
//! compiled `G + jω·C` image, and the DC Newton system assembled with a
//! `find_slot` search per stamp against a load from its Newton image — on
//! the Table 2 circuit and the 16×16 power grid — plus Table 2's transient
//! Newton system, stamped against its Newton image and against the
//! right-hand-side load of a bypassed iteration. (S10) times one numeric
//! refactorization per call on the same two circuits: Table 2's real
//! transient Newton system, its complex AC systems through the batched
//! lanes at widths 1 and 4, and the 16×16 grid's AC system, with the size
//! of each pattern's compiled op lists.
//!
//! Every scenario's ns/op — plus nnz(L+U), BTF block count and
//! accepted/rejected transient step counts where they apply — is also
//! written as machine-readable JSON to
//! `target/BENCH_solver.json`, so the performance trajectory can be tracked
//! across PRs (CI runs the bench in quick mode — `BENCH_QUICK=1`, fewer
//! iterations, same assertions — and uploads the JSON as an artifact).
//!
//! Regenerate with `cargo bench -p loopscope-bench --bench solver_refactor`.

use criterion::{criterion_group, criterion_main, Criterion};
use loopscope_bench::{mesh_matrix, rc_ladder_matrix};
use loopscope_circuits::blocks::{power_grid, rc_ladder};
use loopscope_circuits::{
    mos_two_stage_buffer, opamp_with_bias, two_stage_buffer, BiasParams, OpAmpParams,
};
use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, Element, SourceSpec};
use loopscope_sparse::{
    btf, ordering, BatchedLu, CsrMatrix, InverseWorkspace, LanePlanes, LuWorkspace,
    RefineWorkspace, SparseLu, SymbolicLu, TripletMatrix, REFINE_BACKWARD_TOLERANCE,
};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::assembly::{AssembleMna, NewtonJob, SlotSink, SolveContext};
use loopscope_spice::batch::{driving_point_monte_carlo, ParameterVariation};
use loopscope_spice::dc::{self, solve_dc};
use loopscope_spice::mna::{MnaLayout, Stamper};
use loopscope_spice::par;
use loopscope_spice::tran::{Integration, TransientAnalysis, TransientOptions, TransientResult};
use std::time::Instant;

/// `BENCH_QUICK=1` (any non-empty value but `0`) cuts iteration counts for
/// CI: same scenarios, same assertions, a fraction of the wall clock.
fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Scales a full-run iteration count down in quick mode.
fn iters(full: usize) -> usize {
    if quick_mode() {
        (full / 10).max(2)
    } else {
        full
    }
}

/// Wall-clock ratio assertions are hard in a full run but demoted to
/// warnings in quick mode: CI runs on shared, noisy-neighbor vCPUs with
/// minimal repetitions, where a scheduling hiccup could fail a timing
/// ratio with no code change. Structural assertions (fill, block counts,
/// solve counters) are deterministic and stay hard everywhere.
fn assert_timing(condition: bool, message: &str) {
    if condition {
        return;
    }
    if quick_mode() {
        println!("WARNING (BENCH_QUICK: timing assertion demoted to warning): {message}");
    } else {
        panic!("{message}");
    }
}

/// One scenario line of the machine-readable `BENCH_solver.json`.
struct Record {
    name: String,
    ns_per_op: f64,
    nnz_lu: Option<usize>,
    blocks: Option<usize>,
    accepted_steps: Option<usize>,
    rejected_steps: Option<usize>,
}

impl Record {
    fn new(name: impl Into<String>, ns_per_op: f64) -> Self {
        Self {
            name: name.into(),
            ns_per_op,
            nnz_lu: None,
            blocks: None,
            accepted_steps: None,
            rejected_steps: None,
        }
    }

    fn with_structure(mut self, nnz_lu: usize, blocks: usize) -> Self {
        self.nnz_lu = Some(nnz_lu);
        self.blocks = Some(blocks);
        self
    }

    fn with_steps(mut self, accepted: usize, rejected: usize) -> Self {
        self.accepted_steps = Some(accepted);
        self.rejected_steps = Some(rejected);
        self
    }
}

/// Writes the collected scenario records to `target/BENCH_solver.json`
/// (hand-rolled JSON — the workspace is offline and dependency-free).
fn write_bench_json(records: &[Record]) {
    // Benches run with the package directory as cwd; resolve the WORKSPACE
    // target directory so CI can pick the file up at target/BENCH_solver.json.
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    let path = std::path::Path::new(&target).join("BENCH_solver.json");
    let mut out = String::from("{\n  \"bench\": \"solver_refactor\",\n");
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in records.iter().enumerate() {
        let nnz = r
            .nnz_lu
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        let blocks = r
            .blocks
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        let accepted = r
            .accepted_steps
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        let rejected = r
            .rejected_steps
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"nnz_lu\": {}, \"blocks\": {}, \
             \"accepted_steps\": {}, \"rejected_steps\": {}}}{}\n",
            r.name,
            r.ns_per_op,
            nnz,
            blocks,
            accepted,
            rejected,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::create_dir_all(&target).and_then(|()| std::fs::write(&path, &out)) {
        Ok(()) => println!(
            "\nwrote {} scenario record(s) to {}",
            records.len(),
            path.display()
        ),
        Err(e) => println!("\nWARNING: could not write {}: {e}", path.display()),
    }
}

/// Mean wall-clock time of `f` over `iters` runs, in nanoseconds.
fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Minimum per-op time over `blocks` back-to-back [`time_ns`] blocks of
/// `reps` runs each — the noise-robust variant for ratio assertions: the
/// minimum strips scheduler interference on shared machines, and the ratio
/// of two minima reflects what the code actually costs.
fn time_ns_best<F: FnMut()>(blocks: usize, reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..blocks {
        best = best.min(time_ns(reps, &mut f));
    }
    best
}

fn print_speedup_table(
    label: &str,
    matrices: &[CsrMatrix<Complex64>],
    symbolic: &SymbolicLu,
    reps: usize,
    records: &mut Vec<Record>,
) {
    let mut k = 0usize;
    let fresh_ns = time_ns(reps, || {
        let m = &matrices[k % matrices.len()];
        k += 1;
        std::hint::black_box(SparseLu::factor(m).expect("factor"));
    });
    let refactor_ns = refactor_ns(matrices, symbolic, reps);
    println!(
        "{label:<28} fresh factor {:>10.2} µs   refactor {:>10.2} µs   speedup {:>5.2}x",
        fresh_ns / 1.0e3,
        refactor_ns / 1.0e3,
        fresh_ns / refactor_ns
    );
    records.push(Record::new(format!("{label}_fresh_factor"), fresh_ns));
    records.push(
        Record::new(format!("{label}_refactor"), refactor_ns)
            .with_structure(symbolic.fill_nnz(), symbolic.block_count()),
    );
}

/// Mean refactor time over the matrix set using the in-place
/// (allocation-free) hot path, in nanoseconds.
fn refactor_ns(matrices: &[CsrMatrix<Complex64>], symbolic: &SymbolicLu, reps: usize) -> f64 {
    let mut lu = SparseLu::from_symbolic(symbolic);
    let mut ws = LuWorkspace::for_dim(symbolic.dim());
    let mut k = 0usize;
    time_ns(reps, || {
        let m = &matrices[k % matrices.len()];
        k += 1;
        let reused = lu.refactor_into(symbolic, m, &mut ws).expect("refactor");
        assert!(reused, "bench matrices must not ask for a re-pivot");
        std::hint::black_box(&mut lu);
    })
}

fn opamp_matrices() -> (Vec<CsrMatrix<Complex64>>, SymbolicLu) {
    // Transistor-level op-amp: the full MOS small-signal MNA system.
    let (circuit, _nodes) = mos_two_stage_buffer(&OpAmpParams::default());
    let op = solve_dc(&circuit).expect("op-amp operating point");
    let ac = AcAnalysis::new(&circuit, &op).expect("valid analysis");
    // A decade around the loop's natural frequency, like the scan would hit.
    let freqs = FrequencyGrid::log_decade(1.0e6, 1.0e7, 16);
    let matrices: Vec<_> = freqs
        .freqs()
        .iter()
        .map(|&f| ac.admittance_matrix(f))
        .collect();
    let symbolic = SparseLu::factor(&matrices[0])
        .expect("op-amp MNA factors")
        .extract_symbolic();
    (matrices, symbolic)
}

fn ladder_matrices(stages: usize) -> (Vec<CsrMatrix<Complex64>>, SymbolicLu) {
    let matrices: Vec<_> = (0..16)
        .map(|k| rc_ladder_matrix(stages, 1.0e3 * 10f64.powf(k as f64 * 0.25)))
        .collect();
    let symbolic = SparseLu::factor(&matrices[0])
        .expect("ladder factors")
        .extract_symbolic();
    (matrices, symbolic)
}

/// The diagonal blocks of `m`'s block-triangular form in block-local
/// coordinates: the matrices [`SparseLu::factor`] orders one by one.
fn btf_blocks(m: &CsrMatrix<Complex64>) -> Vec<CsrMatrix<Complex64>> {
    let form = btf::analyze(m).expect("structurally nonsingular");
    let mut cpos = vec![0usize; m.rows()];
    for (k, &c) in form.col_perm().iter().enumerate() {
        cpos[c] = k;
    }
    (0..form.block_count())
        .map(|b| {
            let range = form.block_range(b);
            let mut t = TripletMatrix::new(range.len(), range.len());
            for (local, &row) in form.row_perm()[range.clone()].iter().enumerate() {
                for (c, v) in m.row_entries(row) {
                    if range.contains(&cpos[c]) {
                        t.push(local, cpos[c] - range.start, v);
                    }
                }
            }
            t.to_csr()
        })
        .collect()
}

/// Mean time of `reps` calls of `measured`, each on a fresh factorization
/// of `m` made (untimed) just before: the cost of the first call over a new
/// pattern.
fn first_call_ns(
    reps: usize,
    m: &CsrMatrix<Complex64>,
    mut measured: impl FnMut(&SparseLu<Complex64>),
) -> f64 {
    let mut total = 0.0;
    for _ in 0..reps {
        let lu = SparseLu::factor(m).expect("factor");
        let start = Instant::now();
        measured(&lu);
        total += start.elapsed().as_nanos() as f64;
    }
    total / reps as f64
}

/// Experiment S1, split — the one-time analysis of a new pattern, phase by
/// phase, on the 16×16 power grid's AC system, the 400-stage ladder and
/// Table 2's 13-unknown AC system. A fresh [`SparseLu::factor`] is the BTF,
/// the minimum-degree order of every diagonal block and the block
/// elimination (the rest: the block copies, the threshold-pivoted
/// elimination, the off-diagonal pattern and the recorded scales). The first
/// refactorization over the pattern then builds its op lists and scatter
/// map, and the first selected inversion its index; each build is the first
/// call's time less a repeated call's. Every row is the fastest of seven
/// interleaved rounds of means. Returns the grid's fresh factor and
/// refactor times.
fn print_analysis_split(records: &mut Vec<Record>) -> (f64, f64) {
    println!("\n=== S1 split: one-time analysis of a new pattern (µs) ===");
    println!(
        "{:<14} {:>4} {:>5} {:>6} | {:>8} {:>8} {:>8} {:>11} | {:>8} {:>13}",
        "system",
        "dim",
        "fill",
        "blocks",
        "fresh",
        "BTF",
        "ordering",
        "elimination",
        "op lists",
        "inverse index"
    );
    let (grid, _) = power_grid(16, 16);
    let op = solve_dc(&grid).expect("grid operating point");
    let mesh = AcAnalysis::new(&grid, &op)
        .expect("valid analysis")
        .admittance_matrix(1.0e6);
    let (table2, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    let op = solve_dc(&table2).expect("Table 2 operating point");
    let table2 = AcAnalysis::new(&table2, &op)
        .expect("valid analysis")
        .admittance_matrix(1.0e6);
    let systems = [
        ("mesh_16x16_ac", mesh, iters(200)),
        ("rc_ladder_400", rc_ladder_matrix(400, 1.0e3), iters(200)),
        ("table2_ac", table2, iters(5_000)),
    ];
    let mut mesh_times = (0.0, 0.0);
    for (label, m, reps) in systems {
        let blocks = btf_blocks(&m);
        let mut lu = SparseLu::factor(&m).expect("factor");
        let symbolic = lu.extract_symbolic();
        let mut ws = LuWorkspace::for_dim(m.rows());
        let mut diag = vec![Complex64::ZERO; m.rows()];
        let mut inv_ws = InverseWorkspace::new();
        // Rounds interleave the seven timings, so a slow spell of a shared
        // machine hits all of them alike; each keeps its fastest round.
        let mut best = [f64::INFINITY; 7];
        for _ in 0..7 {
            // The structural passes go first: after a run of fresh
            // factorizations the allocator's state slows the BTF by up to
            // a sixth.
            let round = [
                time_ns(reps, || {
                    std::hint::black_box(btf::analyze(&m).expect("BTF"));
                }),
                time_ns(reps, || {
                    for b in &blocks {
                        std::hint::black_box(ordering::min_degree_order(b));
                    }
                }),
                time_ns(reps, || {
                    std::hint::black_box(SparseLu::factor(&m).expect("factor"));
                }),
                time_ns(reps, || {
                    assert!(lu.refactor_into(&symbolic, &m, &mut ws).expect("refactor"));
                }),
                first_call_ns(reps, &m, |fresh_lu| {
                    let symbolic = fresh_lu.extract_symbolic();
                    let mut shell = SparseLu::from_symbolic(&symbolic);
                    assert!(shell
                        .refactor_into(&symbolic, &m, &mut ws)
                        .expect("refactor"));
                }),
                time_ns(reps, || {
                    lu.diag_inverse_into(&mut diag, &mut inv_ws).expect("diag");
                }),
                first_call_ns(reps, &m, |fresh_lu| {
                    fresh_lu
                        .diag_inverse_into(&mut diag, &mut inv_ws)
                        .expect("diag");
                }),
            ];
            for (b, t) in best.iter_mut().zip(round) {
                *b = b.min(t);
            }
        }
        let [btf_ns, ordering_ns, fresh, refactor, first_refactor, inverse, first_inverse] = best;
        let elimination_ns = fresh - btf_ns - ordering_ns;
        // The shell of the first refactorization is minted inside the timed
        // call; a repeated call pays neither it nor the builds.
        let oplist_ns = (first_refactor - refactor).max(0.0);
        let inverse_ns = (first_inverse - inverse).max(0.0);
        println!(
            "{label:<14} {:>4} {:>5} {:>6} | {:>8.1} {:>8.1} {:>8.1} {:>11.1} | {:>8.1} {:>13.1}",
            m.rows(),
            symbolic.fill_nnz(),
            symbolic.block_count(),
            fresh / 1.0e3,
            btf_ns / 1.0e3,
            ordering_ns / 1.0e3,
            elimination_ns / 1.0e3,
            oplist_ns / 1.0e3,
            inverse_ns / 1.0e3,
        );
        for (phase, ns) in [
            ("fresh_factor", fresh),
            ("btf", btf_ns),
            ("ordering", ordering_ns),
            ("elimination", elimination_ns),
            ("oplist_build", oplist_ns),
            ("inverse_index_build", inverse_ns),
        ] {
            records.push(
                Record::new(format!("{label}_analysis_{phase}"), ns)
                    .with_structure(symbolic.fill_nnz(), symbolic.block_count()),
            );
        }
        if label == "mesh_16x16_ac" {
            mesh_times = (fresh, refactor);
        }
    }
    mesh_times
}

fn print_sweep_counters() {
    let (circuit, _nodes) = two_stage_buffer(&OpAmpParams::default());
    let op = solve_dc(&circuit).expect("operating point");
    let ac = AcAnalysis::new(&circuit, &op).expect("valid analysis");
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, 20);
    let _ = ac
        .driving_point_all_nodes(&grid)
        .expect("all-nodes scan solves");
    let stats = ac.solve_stats();
    println!(
        "all-nodes scan over {} frequency points: {} symbolic analysis, {} numeric refactors, {} fresh fallbacks, {} in-place assemblies",
        grid.len(),
        stats.symbolic,
        stats.numeric_refactor,
        stats.fresh_fallback,
        stats.cached_assemblies
    );
    assert_eq!(
        stats.symbolic, 1,
        "a whole scan must run exactly one symbolic analysis"
    );
    // Every point must be a value-only assembly + numeric refactorization —
    // the per-point invariant ARCHITECTURE.md documents as bench-gated.
    assert_eq!(stats.numeric_refactor, grid.len(), "{stats:?}");
    assert_eq!(stats.cached_assemblies, grid.len(), "{stats:?}");
    assert_eq!(stats.fresh_fallback, 0, "{stats:?}");
}

/// Experiment S3 — thread scaling of the `SweepPlan`/`SolveContext` sweep
/// executor: wall-clock of two paper-scale sweep workloads at 1/2/4 workers.
///
/// Worker counts are pinned through the `LOOPSCOPE_THREADS` knob (re-read
/// at every sweep call) so the table is reproducible on any machine; the
/// speedup assertion only arms when the hardware actually has ≥ 4 cores —
/// on fewer cores extra workers can only tread water, and the table simply
/// documents that.
fn print_thread_scaling(records: &mut Vec<Record>) {
    let hw = par::available_workers();
    println!(
        "\n=== S3: thread scaling — chunked sweeps over the shared SweepPlan ({hw} hardware core(s)) ==="
    );

    // Workload A: the 121-point all-nodes stability scan (one refactor per
    // frequency, one solve per node per frequency) of the two-stage buffer.
    let (scan_ckt, _) = two_stage_buffer(&OpAmpParams::default());
    let scan_op = solve_dc(&scan_ckt).expect("operating point");
    let scan_grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, 20);
    assert_eq!(scan_grid.len(), 121, "the paper-scale scan is 121 points");

    // Workload B (the large case): a 121-point classical AC sweep of a
    // 400-stage RC ladder — a ~400-unknown system restamped and refactored
    // at every frequency point.
    let (ladder_ckt, _) = rc_ladder(400, 1.0e3, 1.0e-9);
    let ladder_op = solve_dc(&ladder_ckt).expect("ladder operating point");
    let ladder_grid = FrequencyGrid::log_decade(1.0e2, 1.0e8, 20);

    // Pin worker counts for the table, then restore whatever the user had —
    // later benches in this process must still honor a caller-set knob.
    let saved_threads = std::env::var(par::THREADS_ENV).ok();
    let reps = iters(8);
    let mut table: Vec<(usize, f64, f64)> = Vec::new();
    for workers in [1usize, 2, 4] {
        std::env::set_var(par::THREADS_ENV, workers.to_string());

        let scan_ac = AcAnalysis::new(&scan_ckt, &scan_op).expect("valid analysis");
        let _ = scan_ac
            .driving_point_all_nodes(&scan_grid)
            .expect("warm-up scan builds the plan");
        let scan_ns = time_ns(reps, || {
            std::hint::black_box(
                scan_ac
                    .driving_point_all_nodes(&scan_grid)
                    .expect("all-nodes scan"),
            );
        });

        let ladder_ac = AcAnalysis::new(&ladder_ckt, &ladder_op).expect("valid analysis");
        let _ = ladder_ac
            .sweep(&ladder_grid)
            .expect("warm-up sweep builds the plan");
        let ladder_ns = time_ns(reps, || {
            std::hint::black_box(ladder_ac.sweep(&ladder_grid).expect("ladder sweep"));
        });

        table.push((workers, scan_ns, ladder_ns));
        records.push(Record::new(
            format!("all_nodes_scan_121pt_{workers}w"),
            scan_ns,
        ));
        records.push(Record::new(
            format!("ladder400_sweep_121pt_{workers}w"),
            ladder_ns,
        ));
    }
    match saved_threads {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }

    let (_, scan_serial, ladder_serial) = table[0];
    println!(
        "{:<10} {:>22} {:>9} {:>24} {:>9}",
        "workers", "all-nodes 121pt [ms]", "speedup", "ladder-400 sweep [ms]", "speedup"
    );
    for &(workers, scan_ns, ladder_ns) in &table {
        println!(
            "{workers:<10} {:>22.3} {:>8.2}x {:>24.3} {:>8.2}x",
            scan_ns / 1.0e6,
            scan_serial / scan_ns,
            ladder_ns / 1.0e6,
            ladder_serial / ladder_ns,
        );
    }

    let (_, _, ladder_4) = table[2];
    let speedup_4 = ladder_serial / ladder_4;
    if hw >= 4 {
        assert_timing(
            speedup_4 >= 1.5,
            &format!(
                "4 workers must reach ≥ 1.5x on the 400-stage ladder sweep on a \
                 ≥ 4-core machine, measured {speedup_4:.2}x"
            ),
        );
    } else {
        println!(
            "(speedup assertion skipped: {hw} hardware core(s) < 4 — extra workers cannot scale here)"
        );
    }
}

/// Experiment S4b — the all-nodes scan's inner loop: selected inversion vs
/// per-RHS solves. Over the 121 admittance matrices of the paper-scale scan
/// of a 400-stage RC ladder, each "frequency point" refactors once and then
/// either solves one unit injection per unknown (`solve_into`) or reads the
/// whole diagonal of the inverse off the factors (`diag_inverse_into`). The
/// two must agree to rounding before any timing is reported. The end-to-end
/// single-worker `driving_point_all_nodes` time of the same scan is printed
/// beside them.
fn print_selected_inversion_scan(records: &mut Vec<Record>) {
    println!("\n=== S4b: all-nodes scan — selected inversion vs per-RHS solves ===");
    let (ckt, _) = rc_ladder(400, 1.0e3, 1.0e-9);
    let op = solve_dc(&ckt).expect("ladder operating point");
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e8, 20);
    assert_eq!(grid.len(), 121, "the paper-scale grid is 121 points");
    let ac = AcAnalysis::new(&ckt, &op).expect("valid analysis");
    let matrices: Vec<CsrMatrix<Complex64>> = grid
        .freqs()
        .iter()
        .map(|&f| ac.admittance_matrix(f))
        .collect();
    let symbolic = SparseLu::factor(&matrices[0])
        .expect("factors")
        .extract_symbolic();
    let n = matrices[0].rows();
    let mut lu = SparseLu::from_symbolic(&symbolic);
    let mut ws = LuWorkspace::for_dim(n);
    let mut x = vec![Complex64::ZERO; n];
    let mut work = vec![Complex64::ZERO; n];
    let mut diag = vec![Complex64::ZERO; n];
    let mut inverse_ws = InverseWorkspace::new();

    // The node unknowns (GMIN keeps their diagonals stored); the source's
    // branch current is not probed.
    let nodes: Vec<usize> = (0..n)
        .filter(|&v| matrices[0].find_slot(v, v).is_some())
        .collect();

    // Correctness gate: the inverse diagonal matches the unit solves.
    lu.refactor_into(&symbolic, &matrices[60], &mut ws)
        .expect("refactor");
    lu.diag_inverse_into(&mut diag, &mut inverse_ws)
        .expect("selected inversion");
    for &v in &nodes {
        x.fill(Complex64::ZERO);
        x[v] = Complex64::ONE;
        lu.solve_into(&mut x, &mut work).expect("solve");
        assert!(
            (diag[v] - x[v]).abs() <= 1.0e-12 * x[v].abs(),
            "unknown {v}: selected inverse {:?} vs solve {:?}",
            diag[v],
            x[v]
        );
    }

    let reps = iters(6);
    let per_rhs_ns = time_ns(reps, || {
        for m in &matrices {
            lu.refactor_into(&symbolic, m, &mut ws).expect("refactor");
            for &v in &nodes {
                x.fill(Complex64::ZERO);
                x[v] = Complex64::ONE;
                lu.solve_into(&mut x, &mut work).expect("solve");
                std::hint::black_box(x[v]);
            }
        }
    });
    let selinv_ns = time_ns(reps, || {
        for m in &matrices {
            lu.refactor_into(&symbolic, m, &mut ws).expect("refactor");
            lu.diag_inverse_into(&mut diag, &mut inverse_ws)
                .expect("selected inversion");
            std::hint::black_box(&mut diag);
        }
    });

    let saved_threads = std::env::var(par::THREADS_ENV).ok();
    std::env::set_var(par::THREADS_ENV, "1");
    let _ = ac
        .driving_point_all_nodes(&grid)
        .expect("warm-up scan builds the plan");
    let scan_ns = time_ns(reps, || {
        std::hint::black_box(ac.driving_point_all_nodes(&grid).expect("all-nodes scan"));
    });
    match saved_threads {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }

    let speedup = per_rhs_ns / selinv_ns;
    println!(
        "ladder-400 121pt   refactor + {} solves {:>9.1} ms   refactor + selected inversion \
         {:>7.2} ms   speedup {:>6.1}x   driving_point_all_nodes {:>7.2} ms",
        nodes.len(),
        per_rhs_ns / 1.0e6,
        selinv_ns / 1.0e6,
        speedup,
        scan_ns / 1.0e6,
    );
    records.push(Record::new("all_nodes_ladder400_per_rhs", per_rhs_ns));
    records.push(Record::new(
        "all_nodes_ladder400_selected_inversion",
        selinv_ns,
    ));
    records.push(Record::new("all_nodes_ladder400_scan", scan_ns));
    assert_timing(
        speedup >= 3.0,
        &format!(
            "selected inversion must be ≥ 3x the per-RHS solves on the 400-stage \
             ladder, measured {speedup:.2}x"
        ),
    );
}

/// Experiment S6 — robustness-layer overhead: the residual-verified refined
/// solve ([`SparseLu::solve_refined_into`]) vs the plain triangular solve on
/// a healthy system where refinement needs **zero** correction steps (the
/// steady state of every sweep), plus the Hager 1-norm condition estimate.
/// The overhead of the verified path is one `A·x` mat-vec and three norm
/// reductions per solve — on a 2-D mesh (fill ≫ nnz(A) even in the
/// minimum-degree order, the solve-dominated regime sweeps run in) that
/// must stay within 1.15x.
fn print_refinement_table(records: &mut Vec<Record>) {
    println!(
        "\n=== S6: robustness overhead — verified (refined) solve vs plain solve, condition estimate ==="
    );
    // A 48×48 mesh: fill(L+U) ≫ nnz(A), the solve-dominated regime the
    // verified sweep path runs in, so the verified solve's extra residual
    // pass (one traversal of A plus a few vector norms) is diluted by the
    // triangular sweeps the plain solve pays anyway.
    let p = 48;
    let a = mesh_matrix(p, 1.0e3);
    let n = a.rows();
    let lu = SparseLu::factor(&a).expect("mesh factors");
    let rhs0: Vec<Complex64> = (0..n)
        .map(|j| Complex64::new(1.0 + (j % 7) as f64, 0.25 * (j % 5) as f64))
        .collect();
    let mut rhs = rhs0.clone();
    let mut work = vec![Complex64::ZERO; n];
    let blocks = iters(16);
    let reps = 8;

    let plain_ns = time_ns_best(blocks, reps, || {
        rhs.copy_from_slice(&rhs0);
        lu.solve_into(&mut rhs, &mut work).expect("plain solve");
        std::hint::black_box(&mut rhs);
    });

    let mut ws = RefineWorkspace::for_dim(n);
    rhs.copy_from_slice(&rhs0);
    let quality = lu
        .solve_refined_into(&a, &mut rhs, &mut ws)
        .expect("refined solve");
    assert_eq!(
        quality.refinement_steps, 0,
        "the well-conditioned mesh must verify without correction steps: {quality:?}"
    );
    assert!(quality.converged, "{quality:?}");
    let refined_ns = time_ns_best(blocks, reps, || {
        rhs.copy_from_slice(&rhs0);
        std::hint::black_box(
            lu.solve_refined_into(&a, &mut rhs, &mut ws)
                .expect("refined solve"),
        );
    });

    let kappa = lu.condition_estimate(&a).expect("condition estimate");
    assert!(
        kappa.is_finite() && kappa >= 1.0,
        "condition estimate must be a finite κ ≥ 1, got {kappa}"
    );
    let cond_ns = time_ns(iters(20).min(6), || {
        std::hint::black_box(lu.condition_estimate(&a).expect("condition estimate"));
    });

    let overhead = refined_ns / plain_ns;
    println!(
        "mesh_{p}x{p} ({n} unknowns)   plain solve {:>8.2} µs   verified solve {:>8.2} µs \
         (overhead {overhead:.3}x, 0 refinement steps)   condition estimate {:>8.2} µs (κ₁ ≥ {kappa:.1})",
        plain_ns / 1.0e3,
        refined_ns / 1.0e3,
        cond_ns / 1.0e3,
    );
    records.push(Record::new(format!("mesh_{p}x{p}_plain_solve"), plain_ns));
    records.push(Record::new(
        format!("mesh_{p}x{p}_verified_solve"),
        refined_ns,
    ));
    records.push(Record::new(
        format!("mesh_{p}x{p}_condition_estimate"),
        cond_ns,
    ));
    assert_timing(
        overhead <= 1.15,
        &format!(
            "the verified solve ({refined_ns:.0} ns) must stay within 1.15x of the plain \
             solve ({plain_ns:.0} ns) when no refinement steps are needed, measured {overhead:.3}x"
        ),
    );
}

/// Experiment S7 — the batched many-variant corner scan: a 10k-variant
/// (quick mode: 400) seeded Monte Carlo sweep of the MOS two-stage buffer
/// through the batched engine ([`loopscope_spice::batch`], **one** symbolic
/// analysis and **one** shared linearization for the whole batch, variants
/// packed into structure-of-arrays value lanes) vs the naive factor-per-variant loop
/// (a variant circuit plus a fresh `AcAnalysis` — its own layout, its own
/// device linearizations, its own symbolic analysis — per variant, the
/// pre-batch `core::sweep` shape). Single worker, so the ratio isolates the
/// engine; the structural `SolveStats` assertions are hard in every mode.
fn print_monte_carlo_scan(records: &mut Vec<Record>) {
    println!(
        "\n=== S7: batched Monte Carlo corner scan — one symbolic analysis vs one per variant ==="
    );
    let saved_threads = std::env::var(par::THREADS_ENV).ok();
    std::env::set_var(par::THREADS_ENV, "1");

    let count = if quick_mode() { 400 } else { 10_000 };
    let (circuit, _nodes) = mos_two_stage_buffer(&OpAmpParams::default());
    let op = solve_dc(&circuit).expect("operating point");
    let node = circuit.find_node("out").expect("output node");
    // The production corner-scan shape: a spot check of the impedance peak
    // at the loop's natural frequency, thousands of parameter sets — the
    // paper's compensation knobs (Rzero, C1, Cload) under tolerance. One
    // frequency per variant maximizes the weight of per-variant setup,
    // which is exactly what the batched engine amortizes away.
    let grid = FrequencyGrid::from_points(vec![1.0e6]);
    let variation = ParameterVariation::new(0xC02_5CAB)
        .gaussian("Rzero", 0.05)
        .gaussian("Cload", 0.10)
        .uniform("C1", 0.10);

    // Naive reference: an independent analysis per variant — every variant
    // pays layout construction, pattern discovery and a symbolic analysis.
    let mut naive_symbolic = 0usize;
    let mut naive_sink = Complex64::ZERO;
    let naive_start = Instant::now();
    for i in 0..count {
        let mut vc = circuit.clone();
        variation.apply(i, &mut vc).expect("variation applies");
        let ac = AcAnalysis::new(&vc, &op).expect("valid analysis");
        let resp = ac
            .driving_point_response(node, &grid)
            .expect("variant sweep");
        naive_sink += resp[0];
        naive_symbolic += ac.solve_stats().symbolic;
    }
    let naive_ns = naive_start.elapsed().as_nanos() as f64 / count as f64;
    std::hint::black_box(naive_sink);
    assert_eq!(
        naive_symbolic, count,
        "the naive loop pays one symbolic analysis per variant"
    );

    // Batched engine: one symbolic analysis for the entire batch.
    let batch_start = Instant::now();
    let sweep = driving_point_monte_carlo(&circuit, &op, node, &grid, &variation, count)
        .expect("batched sweep");
    let batched_ns = batch_start.elapsed().as_nanos() as f64 / count as f64;
    std::hint::black_box(sweep.worst_case_peak());
    assert_eq!(
        sweep.solve_stats().symbolic,
        1,
        "the batched engine must run exactly one symbolic analysis for the \
         whole {count}-variant batch: {:?}",
        sweep.solve_stats()
    );

    match saved_threads {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }

    let speedup = naive_ns / batched_ns;
    println!(
        "opamp corner scan, {count} variants × {} freq points   naive {:>9.2} µs/variant   \
         batched {:>9.2} µs/variant   speedup {:>5.2}x   yield {}/{} ({:.1}%)",
        grid.len(),
        naive_ns / 1.0e3,
        batched_ns / 1.0e3,
        speedup,
        sweep.yield_count(),
        count,
        100.0 * sweep.yield_fraction(),
    );
    records.push(Record::new("mc_10k_opamp_corner_scan_naive", naive_ns));
    records.push(Record::new("mc_10k_opamp_corner_scan_batched", batched_ns));
    assert_timing(
        speedup >= 5.0,
        &format!(
            "the batched corner scan must amortize to ≥ 5x the naive \
             factor-per-variant loop, measured {speedup:.2}x \
             (naive {naive_ns:.0} ns/variant, batched {batched_ns:.0} ns/variant)"
        ),
    );
}

/// The S8 workload: two independent RC branches off one ideal step source,
/// with time constants 1 µs and 10 ms (ratio 1e4) — the textbook stiff
/// case where a fixed grid pays the fast edge's dt over the slow branch's
/// entire settling time.
fn stiff_rc_circuit() -> Circuit {
    let mut c = Circuit::new("stiff two-tau rc");
    let vin = c.node("in");
    let fast = c.node("fast");
    let slow = c.node("slow");
    c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
    c.add_resistor("R1", vin, fast, 1.0e3);
    c.add_capacitor("C1", fast, Circuit::GROUND, 1.0e-9); // tau = 1 us
    c.add_resistor("R2", vin, slow, 1.0e6);
    c.add_capacitor("C2", slow, Circuit::GROUND, 1.0e-8); // tau = 10 ms
    c
}

/// Max |simulated − analytic| for one exponential-charge node, sampled at
/// `n` points spread over `[0, t_end]` (clustered early by the quadratic
/// spacing, where the waveform actually moves).
fn max_charge_error(
    result: &TransientResult,
    c: &Circuit,
    node: &str,
    tau: f64,
    t_end: f64,
    n: usize,
) -> f64 {
    let id = c.find_node(node).expect("node exists");
    let mut worst: f64 = 0.0;
    for k in 1..=n {
        let frac = k as f64 / n as f64;
        let t = t_end * frac * frac;
        let got = result.value_at(id, t).expect("sample");
        let want = 1.0 - (-t / tau).exp();
        worst = worst.max((got - want).abs());
    }
    worst
}

/// Experiment S8 — LTE-controlled adaptive transient vs the fixed grid on
/// the stiff two-time-constant RC. The fixed run uses the dt the fast edge
/// needs (40 ns for ~1e-4 accuracy) and then drags it across the slow
/// branch's full 10 ms settling; the adaptive run resolves the edge at
/// `dt_min` and grows dt by orders of magnitude once the fast branch
/// settles. Matched accuracy is asserted, not assumed: the adaptive max
/// error (against the analytic charge curves, densely sampled on both
/// nodes) must be no worse than the fixed run's, on ≥ 5x fewer accepted
/// steps. Quick mode shortens `t_stop` (same stiffness contrast, fewer
/// solves) and demotes the ratio assertions to warnings like every other
/// wall-clock-adjacent check.
fn print_adaptive_transient(records: &mut Vec<Record>) {
    println!(
        "\n=== S8: adaptive transient — LTE-controlled steps vs the fixed grid on a stiff RC ==="
    );
    let circuit = stiff_rc_circuit();
    let op = solve_dc(&circuit).expect("operating point");
    let tau_fast = 1.0e-6;
    let tau_slow = 1.0e-2;
    // Quick mode stops at 2 ms (still 2000 fast time constants); full mode
    // rides out the slow branch to 2 tau.
    let t_stop = if quick_mode() { 2.0e-3 } else { 2.0e-2 };
    let fixed_dt = 4.0e-8;

    let fixed_start = Instant::now();
    let fixed = TransientAnalysis::new(&circuit, TransientOptions::new(fixed_dt, t_stop))
        .expect("valid options")
        .run(&op)
        .expect("fixed-grid run");
    let fixed_ns = fixed_start.elapsed().as_nanos() as f64;

    let mut options = TransientOptions::adaptive(1.0e-8, t_stop / 40.0, t_stop);
    options.reltol = 1.0e-3;
    let adaptive_start = Instant::now();
    let adaptive = TransientAnalysis::new(&circuit, options)
        .expect("valid options")
        .run(&op)
        .expect("adaptive run");
    let adaptive_ns = adaptive_start.elapsed().as_nanos() as f64;

    let err_of = |r: &TransientResult| {
        let fast = max_charge_error(
            r,
            &circuit,
            "fast",
            tau_fast,
            (10.0 * tau_fast).min(t_stop),
            200,
        );
        let slow = max_charge_error(r, &circuit, "slow", tau_slow, t_stop, 200);
        fast.max(slow)
    };
    let fixed_err = err_of(&fixed);
    let adaptive_err = err_of(&adaptive);

    let fs = *fixed.stats();
    let asts = *adaptive.stats();
    assert_eq!(
        fs.rejected_steps, 0,
        "the fixed grid never rejects a step: {fs:?}"
    );
    assert!(
        asts.max_dt > 100.0 * asts.min_dt,
        "the controller must grow dt by orders of magnitude on the stiff \
         circuit, got min {:.3e} max {:.3e}",
        asts.min_dt,
        asts.max_dt
    );
    for (label, stats, ns, err) in [
        ("fixed   ", &fs, fixed_ns, fixed_err),
        ("adaptive", &asts, adaptive_ns, adaptive_err),
    ] {
        println!(
            "{label}  dt_min {:>9.2e}  accepted {:>8}  rejected {:>5}  newton {:>8}  \
             max |err| {:>9.3e}  wall {:>8.2} ms",
            stats.min_dt,
            stats.accepted_steps,
            stats.rejected_steps,
            stats.newton_iterations,
            err,
            ns / 1.0e6,
        );
    }
    let step_ratio = fs.accepted_steps as f64 / asts.accepted_steps as f64;
    println!(
        "step ratio {step_ratio:.1}x fewer accepted steps at {} accuracy",
        if adaptive_err <= fixed_err {
            "equal-or-better"
        } else {
            "WORSE"
        }
    );

    records.push(
        Record::new(
            "tran_stiff_rc_fixed_grid",
            fixed_ns / fs.accepted_steps as f64,
        )
        .with_steps(fs.accepted_steps, fs.rejected_steps),
    );
    records.push(
        Record::new(
            "tran_stiff_rc_adaptive",
            adaptive_ns / asts.accepted_steps as f64,
        )
        .with_steps(asts.accepted_steps, asts.rejected_steps),
    );

    assert_timing(
        adaptive_err <= fixed_err,
        &format!(
            "matched accuracy: the adaptive run must be no less accurate than \
             the fixed grid, got adaptive {adaptive_err:.3e} vs fixed {fixed_err:.3e}"
        ),
    );
    assert_timing(
        fs.accepted_steps >= 5 * asts.accepted_steps,
        &format!(
            "the adaptive stepper must take ≥ 5x fewer accepted steps than the \
             fixed grid at matched accuracy, got {} vs {} ({step_ratio:.1}x)",
            asts.accepted_steps, fs.accepted_steps
        ),
    );
}

/// Experiment S8, Table 2 row — the whole Table 2 transient of the
/// overshoot baseline (2 ns fixed trapezoidal grid to 8 µs), timed per run,
/// with the counters of the work it skipped: Newton iterations whose
/// devices were bypassed and factorizations replaced by reused factors.
/// Both counters are deterministic, so their floors are hard asserts in
/// quick mode too: they catch bypass or reuse switching off silently.
fn print_table2_transient(records: &mut Vec<Record>) {
    let (table2, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    let op = solve_dc(&table2).expect("Table 2 operating point");
    let tran = TransientAnalysis::new(&table2, TransientOptions::new(2.0e-9, 8.0e-6))
        .expect("valid options");
    let stats = *tran.run(&op).expect("Table 2 transient").stats();
    let ns = time_ns_best(3, iters(10), || {
        std::hint::black_box(tran.run(&op).expect("Table 2 transient"));
    });
    println!(
        "table2 transient  accepted {:>5}  newton {:>5}  bypassed {:>5}  \
         refactor {:>5}  reused {:>5}  wall {:>6.2} ms",
        stats.accepted_steps,
        stats.newton_iterations,
        stats.bypassed_iterations,
        stats.solve.numeric_refactor,
        stats.solve.factor_reuses,
        ns / 1.0e6,
    );
    records.push(
        Record::new("table2_tran_run", ns).with_steps(stats.accepted_steps, stats.rejected_steps),
    );
    assert!(
        stats.bypassed_iterations >= stats.newton_iterations / 2,
        "Table 2 transient: at least half the Newton iterations must bypass \
         their devices: {stats:?}"
    );
    assert!(
        stats.solve.factor_reuses > 0,
        "Table 2 transient: bypassed iterations must reuse their factors: {stats:?}"
    );
}

/// Best-of-blocks ns per assembly of `job(k)` into `matrix` through a
/// [`SlotSink`] (a `find_slot` search per stamp), cycling `points` jobs with
/// a hoisted RHS.
fn assembly_ns<T, J>(
    layout: &MnaLayout,
    matrix: &mut CsrMatrix<T>,
    points: usize,
    reps: usize,
    job: impl Fn(usize) -> J,
) -> f64
where
    T: loopscope_sparse::Scalar,
    J: AssembleMna<T>,
{
    let mut rhs = Vec::with_capacity(layout.dim());
    let mut k = 0usize;
    time_ns_best(5, reps, || {
        matrix.zero_values();
        let buf = std::mem::take(&mut rhs);
        let job = job(k % points);
        k += 1;
        let mut st = Stamper::with_sink_reusing(layout, SlotSink::new(&mut *matrix), buf);
        job.stamp(&mut st);
        let (sink, out) = st.into_parts();
        assert!(!sink.missed(), "stamp off the pattern");
        rhs = out;
    })
}

/// Times one Newton assembly of `job` through an adopting context: the
/// full stamped assembly, and the load from the job's Newton image (device
/// stamps only, over the compiled linear prefix). Asserts first that the
/// image compiles and that its load is bit for bit the stamped assembly.
/// Returns `(stamped_ns, image_ns)`.
fn newton_assembly_ns(
    label: &str,
    layout: &MnaLayout,
    job: &impl NewtonJob,
    reps: usize,
) -> (f64, f64) {
    let mut stamped = SolveContext::<f64>::adopting(layout);
    let mut imaged = SolveContext::<f64>::adopting(layout);
    let (mut rhs, mut image_rhs) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        stamped.assemble_into(job, &mut rhs);
        imaged.assemble_newton_into(job, &mut image_rhs);
    }
    assert!(
        imaged.newton_image().is_some(),
        "{label}: the Newton image must pass its self-check"
    );
    let bits = |m: &CsrMatrix<f64>| m.iter().map(|e| e.2.to_bits()).collect::<Vec<_>>();
    let rhs_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(imaged.matrix()) == bits(stamped.matrix()) && rhs_bits(&image_rhs) == rhs_bits(&rhs),
        "{label}: Newton image load differs from the stamped assembly"
    );
    let stamped_ns = time_ns_best(5, reps, || {
        stamped.assemble_into(job, &mut rhs);
        std::hint::black_box(&mut rhs);
    });
    let image_ns = time_ns_best(5, reps, || {
        imaged.assemble_newton_into(job, &mut image_rhs);
        std::hint::black_box(&mut image_rhs);
    });
    (stamped_ns, image_ns)
}

/// Times one Newton assembly of `job` that loads only its right-hand side:
/// once a refactorization has recorded the job's keys, every assembly of
/// it finds the factored values in place (what a bypassed transient
/// iteration with an unchanged step key does). Asserts first that the load
/// is right-hand side only — the next factor reuses the factors — and that
/// its right-hand side is bit for bit the stamped assembly's. Returns ns
/// per load.
fn rhs_only_assembly_ns(label: &str, layout: &MnaLayout, job: &impl NewtonJob, reps: usize) -> f64 {
    let mut ctx = SolveContext::<f64>::adopting(layout);
    let mut rhs = Vec::new();
    // A symbolic analysis, then the image compile and a refactorization
    // that records the keys.
    for _ in 0..2 {
        ctx.assemble_newton_into(job, &mut rhs);
        ctx.factor().expect("the system factors");
    }
    ctx.assemble_newton_into(job, &mut rhs);
    ctx.factor().expect("the system factors");
    assert_eq!(
        ctx.stats().factor_reuses,
        1,
        "{label}: an assembly under the factored keys must reuse the factors"
    );
    let mut stamped = SolveContext::<f64>::adopting(layout);
    let mut want = Vec::new();
    stamped.assemble_into(job, &mut want);
    let rhs_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        rhs_bits(&rhs) == rhs_bits(&want),
        "{label}: the right-hand-side load differs from the stamped assembly"
    );
    time_ns_best(5, reps, || {
        ctx.assemble_newton_into(job, &mut rhs);
        std::hint::black_box(&mut rhs);
    })
}

/// Experiment S9 — assembly per point, stamped vs compiled. For the AC
/// system of each circuit: every element stamp through a `find_slot`
/// search (what a point whose image failed its self-check runs) against
/// the load from the compiled `G + jω·C` image. For the DC Newton system
/// at the operating point and Table 2's transient Newton system (a
/// trapezoidal 2 ns step): the stamped assembly against the load from the
/// Newton image, and for the transient also the right-hand-side load of a
/// bypassed iteration over the factored values. Every image load is also
/// checked bit for bit against the stamped values.
fn print_assembly_table(records: &mut Vec<Record>) {
    println!(
        "\n=== S9: assembly per point — stamped vs compiled G + jωC image (AC), stamped vs Newton image (DC, transient) ==="
    );
    let (table2, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    let (mesh, _) = power_grid(16, 16);
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, 20);
    let freqs = grid.freqs();
    for (label, circuit, reps) in [
        ("table2", &table2, iters(20_000)),
        ("mesh_16x16", &mesh, iters(2_000)),
    ] {
        let op = solve_dc(circuit).expect("operating point");
        let ac = AcAnalysis::new(circuit, &op).expect("valid analysis");
        let layout = ac.layout();
        let image = ac
            .admittance_image(freqs[0])
            .expect("representative system factors")
            .expect("affine stamps pass the self-check");
        let mut matrix = ac.admittance_matrix(freqs[0]);

        // Bitwise parity of the load with a stamped assembly on every point.
        let mut loaded = matrix.clone();
        for &f in freqs {
            matrix.zero_values();
            let mut st = Stamper::with_sink(layout, SlotSink::new(&mut matrix));
            ac.assembly_job(f).stamp(&mut st);
            image.load_into(f, loaded.values_mut());
            let same = loaded
                .iter()
                .zip(matrix.iter())
                .all(|((_, _, a), (_, _, b))| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
            assert!(
                same,
                "{label}: image load differs from the stamped assembly at {f} Hz"
            );
        }

        let job = |k: usize| ac.assembly_job(freqs[k]);
        let search_ns = assembly_ns(layout, &mut matrix, freqs.len(), reps, job);
        let mut k = 0usize;
        let image_ns = time_ns_best(5, reps, || {
            image.load_into(freqs[k % freqs.len()], loaded.values_mut());
            k += 1;
            std::hint::black_box(&mut loaded);
        });
        println!(
            "{label:<11} AC ({} unknowns, {} slots, {} C terms): stamped {:>8.2} µs   image load {:>8.2} µs   speedup {:>5.1}x",
            layout.dim(),
            matrix.nnz(),
            image.c_terms().len(),
            search_ns / 1.0e3,
            image_ns / 1.0e3,
            search_ns / image_ns
        );
        assert_timing(
            image_ns < search_ns,
            &format!("{label}: the image load must beat the element stamps"),
        );
        records.push(Record::new(
            format!("{label}_ac_assembly_stamped"),
            search_ns,
        ));
        records.push(Record::new(format!("{label}_ac_assembly_image"), image_ns));

        let dc_layout = MnaLayout::new(circuit);
        let voltages = op.node_voltages();
        let dc_job = |_: usize| dc::assembly_job(circuit, &dc_layout, voltages);
        let mut st = Stamper::new(&dc_layout);
        dc_job(0).stamp(&mut st);
        let mut dc_matrix = st.finish().0.to_csr();
        let dc_search_ns = assembly_ns(&dc_layout, &mut dc_matrix, 1, reps, dc_job);
        let (_, dc_image_ns) = newton_assembly_ns(label, &dc_layout, &dc_job(0), reps);
        println!(
            "{label:<11} DC Newton system: find_slot {:>8.2} µs   Newton image {:>8.2} µs   speedup {:>5.2}x",
            dc_search_ns / 1.0e3,
            dc_image_ns / 1.0e3,
            dc_search_ns / dc_image_ns
        );
        records.push(Record::new(
            format!("{label}_dc_assembly_find_slot"),
            dc_search_ns,
        ));
        records.push(Record::new(
            format!("{label}_dc_assembly_image"),
            dc_image_ns,
        ));
    }

    // Table 2's transient Newton system: a trapezoidal step of the paper's
    // 2 ns grid at the operating point, with live capacitor history.
    let op = solve_dc(&table2).expect("operating point");
    let tran = TransientAnalysis::new(&table2, TransientOptions::new(2.0e-9, 8.0e-6))
        .expect("valid transient");
    let layout = MnaLayout::new(&table2);
    let history = vec![1.0e-6; table2.elements().len().max(layout.dim())];
    let job = tran.assembly_job(
        2.0e-9,
        Integration::Trapezoidal,
        op.node_voltages(),
        &history,
    );
    let (stamped_ns, image_ns) =
        newton_assembly_ns("table2 transient", &layout, &job, iters(20_000));
    let rhs_only_ns = rhs_only_assembly_ns("table2 transient", &layout, &job, iters(20_000));
    println!(
        "table2      transient Newton system: stamped {:>8.2} µs   Newton image {:>8.2} µs   right-hand side only {:>8.2} µs   speedup {:>5.2}x / {:>5.2}x",
        stamped_ns / 1.0e3,
        image_ns / 1.0e3,
        rhs_only_ns / 1.0e3,
        stamped_ns / image_ns,
        image_ns / rhs_only_ns
    );
    assert_timing(
        image_ns < stamped_ns,
        "table2: the Newton image load must beat the stamped transient assembly",
    );
    assert_timing(
        rhs_only_ns < image_ns,
        "table2: the right-hand-side load must beat the Newton image load",
    );
    records.push(Record::new("table2_tran_assembly_stamped", stamped_ns));
    records.push(Record::new("table2_tran_assembly_image", image_ns));
    records.push(Record::new("table2_tran_assembly_rhs_only", rhs_only_ns));
}

/// Experiment S10 — one numeric refactorization per call, the layer the
/// compiled op lists serve: Table 2's real transient Newton system (the DC
/// Newton system plus the capacitor companions of the 2 ns step), Table 2's
/// complex AC systems through [`BatchedLu`] lanes at widths 1, 4 and 8 —
/// the refactorization alone and the whole batched point (refactor, solve
/// and every lane's backward error), per call and per lane — and the 16×16
/// power grid's complex AC system through [`SparseLu::refactor_into`]. Each
/// pattern's compiled op-list size is printed beside it.
fn print_refactor_table(records: &mut Vec<Record>) {
    println!("\n=== S10: numeric refactorization per call — compiled op lists ===");
    let (table2, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    let reps = iters(20_000);

    // A transient Newton system: the DC Newton system at the operating
    // point plus each capacitor's backward-Euler companion conductance
    // C/dt at the 2 ns step of the Table 2 transient — the pattern and
    // magnitudes every Newton iteration of that run refactors.
    let op = solve_dc(&table2).expect("operating point");
    let layout = MnaLayout::new(&table2);
    let mut st = Stamper::new(&layout);
    dc::assembly_job(&table2, &layout, op.node_voltages()).stamp(&mut st);
    for element in table2.elements() {
        if let Element::Capacitor(cap) = element {
            st.stamp_admittance(cap.a, cap.b, cap.farads / 2.0e-9);
        }
    }
    let tran = st.finish().0.to_csr();
    let mut lu = SparseLu::factor(&tran).expect("transient system factors");
    let tran_symbolic = lu.extract_symbolic();
    let mut ws = LuWorkspace::for_dim(tran_symbolic.dim());
    let tran_ns = time_ns_best(5, reps, || {
        let reused = lu
            .refactor_into(&tran_symbolic, &tran, &mut ws)
            .expect("refactor");
        assert!(reused, "the transient system must not ask for a re-pivot");
    });
    println!(
        "table2      transient Newton system (f64, {} unknowns, {} factor entries):   refactor {:>8.3} µs",
        tran_symbolic.dim(),
        tran_symbolic.fill_nnz(),
        tran_ns / 1.0e3
    );
    records.push(
        Record::new("table2_tran_refactor_f64", tran_ns)
            .with_structure(tran_symbolic.fill_nnz(), tran_symbolic.block_count()),
    );

    // Complex AC lanes: every group of `width` consecutive grid points, as
    // lane values over the shared structure, with a unit injection.
    let ac = AcAnalysis::new(&table2, &op).expect("valid analysis");
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, 20);
    let matrices: Vec<CsrMatrix<Complex64>> = grid
        .freqs()
        .iter()
        .map(|&f| ac.admittance_matrix(f))
        .collect();
    assert!(
        matrices.iter().all(|m| m.same_pattern(&matrices[0])),
        "Table 2's AC systems share one structure"
    );
    let symbolic = SparseLu::factor(&matrices[0])
        .expect("Table 2 factors")
        .extract_symbolic();
    let n = symbolic.dim();
    let mut per_lane = Vec::new();
    for width in [1usize, 4, 8] {
        let mut batched = BatchedLu::new(&symbolic, width);
        let groups: Vec<LanePlanes<Complex64>> = matrices
            .chunks_exact(width)
            .map(|group| {
                let mut values = LanePlanes::new(matrices[0].nnz(), width);
                for (w, m) in group.iter().enumerate() {
                    values.load_lane(w, m.values());
                }
                values
            })
            .collect();
        let mut k = 0usize;
        let call_ns = time_ns_best(5, reps, || {
            let statuses = batched.refactor_lanes(&matrices[0], &groups[k % groups.len()], width);
            assert!(statuses.iter().all(|s| s.is_factored()));
            k += 1;
        });
        let mut injection = LanePlanes::new(n, width);
        for w in 0..width {
            injection.set(n / 2, w, Complex64::ONE);
        }
        let mut solution = LanePlanes::new(n, width);
        let mut errors = vec![0.0; width];
        let mut k = 0usize;
        let point_ns = time_ns_best(5, reps, || {
            let values = &groups[k % groups.len()];
            let statuses = batched.refactor_lanes(&matrices[0], values, width);
            assert!(statuses.iter().all(|s| s.is_factored()));
            batched
                .solve_lanes(&injection, &mut solution)
                .expect("lane vectors fit");
            batched.backward_errors(&matrices[0], values, &solution, &injection, &mut errors);
            assert!(errors.iter().all(|&e| e <= REFINE_BACKWARD_TOLERANCE));
            k += 1;
        });
        println!(
            "table2      AC lanes (complex, {n} unknowns, {} factor entries), width {width}: refactor {:>8.3} µs per call, {:>8.3} µs per lane; point {:>8.3} µs per call, {:>8.3} µs per lane",
            symbolic.fill_nnz(),
            call_ns / 1.0e3,
            call_ns / width as f64 / 1.0e3,
            point_ns / 1.0e3,
            point_ns / width as f64 / 1.0e3
        );
        records.push(
            Record::new(format!("table2_ac_refactor_lanes_w{width}"), call_ns)
                .with_structure(symbolic.fill_nnz(), symbolic.block_count()),
        );
        records.push(
            Record::new(format!("table2_ac_point_lanes_w{width}"), point_ns)
                .with_structure(symbolic.fill_nnz(), symbolic.block_count()),
        );
        per_lane.push(call_ns / width as f64);
    }
    println!(
        "table2      compiled op lists: {} bytes",
        symbolic.compiled_refactor_bytes()
    );
    assert_timing(
        per_lane[1] < per_lane[0],
        "Table 2: four lanes per call must refactor faster per lane than one",
    );

    // The 16×16 power grid's AC system, scalar complex refactor.
    let (mesh, _) = power_grid(16, 16);
    let op = solve_dc(&mesh).expect("operating point");
    let ac = AcAnalysis::new(&mesh, &op).expect("valid analysis");
    let matrices: Vec<CsrMatrix<Complex64>> = grid
        .freqs()
        .iter()
        .map(|&f| ac.admittance_matrix(f))
        .collect();
    let symbolic = SparseLu::factor(&matrices[0])
        .expect("grid factors")
        .extract_symbolic();
    let mut lu = SparseLu::from_symbolic(&symbolic);
    let mut ws = LuWorkspace::for_dim(symbolic.dim());
    let mut k = 0usize;
    let mesh_ns = time_ns_best(5, iters(1_000), || {
        let reused = lu
            .refactor_into(&symbolic, &matrices[k % matrices.len()], &mut ws)
            .expect("refactor");
        assert!(reused, "grid matrices must not ask for a re-pivot");
        k += 1;
    });
    let bytes = symbolic.compiled_refactor_bytes();
    println!(
        "mesh_16x16  AC system (complex, {} unknowns, {} factor entries):   refactor {:>8.3} µs   compiled op lists {bytes} bytes",
        symbolic.dim(),
        symbolic.fill_nnz(),
        mesh_ns / 1.0e3
    );
    records.push(
        Record::new("mesh_16x16_ac_refactor", mesh_ns)
            .with_structure(symbolic.fill_nnz(), symbolic.block_count()),
    );

    // The grid's AC systems through four `BatchedLu` lanes, healthy and
    // with lane 0 scaled by 1e155: its squares overflow, so every pivot of
    // that lane takes its exact column scale — one extra pass over the
    // lane's entries per call, not one per pivot.
    let mut lane_ns = Vec::new();
    for scale in [1.0, 1.0e155] {
        let mut batched = BatchedLu::new(&symbolic, 4);
        let mut values = LanePlanes::new(matrices[0].nnz(), 4);
        for (w, m) in matrices.iter().take(4).enumerate() {
            let lane: Vec<Complex64> = m
                .values()
                .iter()
                .map(|&v| if w == 0 { v * scale } else { v })
                .collect();
            values.load_lane(w, &lane);
        }
        lane_ns.push(time_ns_best(5, iters(200), || {
            let statuses = batched.refactor_lanes(&matrices[0], &values, 4);
            assert!(statuses.iter().all(|s| s.is_factored()));
        }));
    }
    println!(
        "mesh_16x16  AC lanes, width 4: refactor {:>8.3} µs per call; lane 0 with degenerate squares {:>8.3} µs per call",
        lane_ns[0] / 1.0e3,
        lane_ns[1] / 1.0e3
    );
    for (name, ns) in [
        "mesh_16x16_ac_refactor_lanes_w4",
        "mesh_16x16_ac_refactor_lanes_w4_degenerate",
    ]
    .into_iter()
    .zip(&lane_ns)
    {
        records.push(
            Record::new(name, *ns).with_structure(symbolic.fill_nnz(), symbolic.block_count()),
        );
    }
    assert_timing(
        lane_ns[1] < 3.0 * lane_ns[0],
        "16x16 grid: a lane with degenerate squares must not multiply the refactor cost",
    );
}

fn bench(c: &mut Criterion) {
    let mut records: Vec<Record> = Vec::new();
    if quick_mode() {
        println!("\n(BENCH_QUICK set: reduced iteration counts, same assertions)");
    }
    println!("\n=== S1: symbolic/numeric split — factor once, refactor per frequency ===");
    let (opamp, opamp_sym) = opamp_matrices();
    println!(
        "op-amp MNA: {} unknowns, {} nonzeros, {} LU pattern entries",
        opamp[0].rows(),
        opamp[0].nnz(),
        opamp_sym.fill_nnz()
    );
    print_speedup_table("opamp_mna", &opamp, &opamp_sym, iters(400), &mut records);

    for &stages in &[100usize, 400] {
        let (ladder, ladder_sym) = ladder_matrices(stages);
        print_speedup_table(
            &format!("rc_ladder_{stages}"),
            &ladder,
            &ladder_sym,
            iters(200),
            &mut records,
        );
    }
    let (mesh_fresh, mesh_refactor) = print_analysis_split(&mut records);
    println!(
        "mesh_16x16_ac fresh factor = {:.1} refactorizations",
        mesh_fresh / mesh_refactor
    );
    // With the near-linear analysis the grid's fresh factorization measured
    // 22-25 refactorizations on a 2-vCPU x86-64 guest (the BTF more than a
    // third of it); the `BTreeSet` ordering alone put it at 35-38, the whole
    // earlier analysis at 40-43.
    assert_timing(
        mesh_fresh < 32.0 * mesh_refactor,
        "16x16 grid: a fresh factorization must cost less than 32 refactorizations",
    );
    print_sweep_counters();

    print_thread_scaling(&mut records);

    print_selected_inversion_scan(&mut records);

    print_refinement_table(&mut records);

    print_monte_carlo_scan(&mut records);

    print_adaptive_transient(&mut records);
    print_table2_transient(&mut records);

    print_assembly_table(&mut records);

    print_refactor_table(&mut records);
    println!();

    let mut group = c.benchmark_group("solver_refactor");
    group.sample_size(10);
    let (matrices, symbolic) = opamp_matrices();
    let mut k = 0usize;
    group.bench_function("opamp_fresh_factor", |b| {
        b.iter(|| {
            let m = &matrices[k % matrices.len()];
            k += 1;
            std::hint::black_box(SparseLu::factor(m).expect("factor"))
        })
    });
    let mut k = 0usize;
    let (mut lu, mut ws) = (SparseLu::from_symbolic(&symbolic), LuWorkspace::new());
    group.bench_function("opamp_refactor", |b| {
        b.iter(|| {
            let m = &matrices[k % matrices.len()];
            k += 1;
            std::hint::black_box(lu.refactor_into(&symbolic, m, &mut ws).expect("refactor"))
        })
    });
    let (ladder, ladder_sym) = ladder_matrices(400);
    let mut k = 0usize;
    group.bench_function("rc_ladder_400_fresh_factor", |b| {
        b.iter(|| {
            let m = &ladder[k % ladder.len()];
            k += 1;
            std::hint::black_box(SparseLu::factor(m).expect("factor"))
        })
    });
    let mut k = 0usize;
    let mut lu = SparseLu::from_symbolic(&ladder_sym);
    group.bench_function("rc_ladder_400_refactor", |b| {
        b.iter(|| {
            let m = &ladder[k % ladder.len()];
            k += 1;
            std::hint::black_box(lu.refactor_into(&ladder_sym, m, &mut ws).expect("refactor"))
        })
    });
    group.finish();

    write_bench_json(&records);
}

criterion_group!(benches, bench);
criterion_main!(benches);
