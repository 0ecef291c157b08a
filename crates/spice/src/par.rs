//! Scoped-thread sweep executor: chunk a list of independent points across
//! worker threads, each with its own per-worker state.
//!
//! Every sweep-style analysis in this workspace — the AC sweep, the
//! driving-point probes, the all-nodes stability scan, the corner sweep —
//! solves the same problem at many independent points (frequencies or
//! circuit variants). [`sweep_chunks`] is the one executor they all share:
//!
//! * the points are split into **contiguous chunks**, one worker per chunk,
//!   spawned on [`std::thread::scope`] (no detached threads, no channels);
//! * every worker mints its own state with the `init` closure — for the
//!   solver pipeline that is a [`SolveContext`](crate::assembly::SolveContext)
//!   minted from the shared [`SweepPlan`](crate::assembly::SweepPlan) — and
//!   runs `step` over its chunk;
//! * results are returned **in point order** regardless of chunking, and the
//!   worker states are handed back so the caller can merge per-worker
//!   counters into sweep-level totals.
//!
//! # Determinism
//!
//! The executor adds no nondeterminism of its own: each point is processed
//! by exactly one `step` call whose inputs (`index`, `point`, and a state
//! minted by `init`) do not depend on the worker count or chunk layout. As
//! long as `init`/`step` are themselves deterministic per point — true for
//! the solve contexts, which always refactor against the *shared* plan —
//! the assembled output is **bitwise identical at any worker count**,
//! including the serial in-line path used for a single worker. Errors are
//! deterministic too: the error of the lowest point index wins, exactly as
//! a serial left-to-right run would report. That guarantee is why a failing
//! point does **not** cancel the other workers: a cancelled worker might
//! never reach the globally lowest failing point, so which error surfaces
//! would depend on timing. Sweep errors (a singular system at some
//! frequency) are rare and terminal, so finishing the in-flight chunks is
//! the right trade for a reproducible error.
//!
//! # Worker count
//!
//! [`configured_workers`] reads the `LOOPSCOPE_THREADS` environment
//! variable (any integer ≥ 1); when unset or unparsable it defaults to the
//! hardware's [available parallelism](std::thread::available_parallelism).
//! `LOOPSCOPE_THREADS=1` forces the serial fallback, which runs the same
//! per-point code in-line without spawning. Sweeps may nest (the corner
//! sweep runs whole frequency-sweeping analyses per point); a sweep that
//! already runs inside a parallel worker is executed serially, so one level
//! of nesting owns the whole thread budget instead of spawning T×T workers.

use std::cell::Cell;
use std::thread;

/// What one worker chunk produces: the results of its completed points, its
/// final state (always — counters survive failures), and the global index +
/// error of its first failing point, if any.
type ChunkResult<R, S, E> = (Vec<R>, S, Option<(usize, E)>);

/// Environment variable naming the worker count used by [`sweep_chunks`]
/// (any integer ≥ 1; unset or invalid falls back to available parallelism).
pub const THREADS_ENV: &str = "LOOPSCOPE_THREADS";

/// Name of the environment variable that once chose the panel width of the
/// all-nodes scan's blocked multi-RHS solves. It is accepted and ignored:
/// the scan reads every node's impedance off one selected inversion per
/// frequency, so nothing batches right-hand sides any more.
pub const PANEL_ENV: &str = "LOOPSCOPE_PANEL";

/// The panel width configuration records report: always 16, the width the
/// retired panel solves defaulted to. It reads no environment.
pub fn configured_panel_width() -> usize {
    16
}

thread_local! {
    /// `true` while this thread IS a spawned sweep worker. Sweeps nest —
    /// `core`'s corner sweep runs whole stability analyses per point, each
    /// of which sweeps frequencies — and without this flag a parallel outer
    /// sweep of T workers would spawn T inner pools of T workers each (T×T
    /// threads thrashing the machine). Inside a worker the env-driven count
    /// collapses to 1, so one level of nesting owns the whole thread budget;
    /// a *serial* outer sweep leaves inner sweeps free to parallelize.
    static IN_SWEEP_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parses a `LOOPSCOPE_THREADS`-style value: `Some(n)` for an integer ≥ 1,
/// `None` otherwise (the caller then falls back to hardware parallelism).
fn parse_workers(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The hardware's available parallelism (1 when it cannot be queried).
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count sweeps run with: 1 inside an already-parallel sweep
/// worker (see the nesting note in the [module docs](self)), otherwise
/// [`THREADS_ENV`] when set to an integer ≥ 1, otherwise
/// [`available_workers`]. Read afresh on every call, so tests and benches
/// can switch it between runs.
pub fn configured_workers() -> usize {
    if IN_SWEEP_WORKER.with(Cell::get) {
        return 1;
    }
    parse_workers(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(available_workers)
}

/// Runs `step` over every point, chunked across [`configured_workers`]
/// scoped worker threads. Returns the results **in point order** (or the
/// error of the lowest-index failing point — the same error a serial
/// left-to-right run would surface first) together with every worker's
/// final state (in chunk order). States are returned **even on failure**,
/// so per-worker counters always account for the work that did run.
///
/// `init` mints one state per worker; `step` receives the state, the point's
/// global index and the point itself. See the [module docs](self) for the
/// determinism guarantees.
pub fn sweep_chunks<P, R, S, E, Init, Step>(
    points: &[P],
    init: Init,
    step: Step,
) -> (Result<Vec<R>, E>, Vec<S>)
where
    P: Sync,
    R: Send,
    S: Send,
    E: Send,
    Init: Fn() -> S + Sync,
    Step: Fn(&mut S, usize, &P) -> Result<R, E> + Sync,
{
    sweep_chunks_with(configured_workers(), points, init, step)
}

/// [`sweep_chunks`] with an explicit worker count (tests and benches use
/// this to pin the count independently of the environment).
pub fn sweep_chunks_with<P, R, S, E, Init, Step>(
    workers: usize,
    points: &[P],
    init: Init,
    step: Step,
) -> (Result<Vec<R>, E>, Vec<S>)
where
    P: Sync,
    R: Send,
    S: Send,
    E: Send,
    Init: Fn() -> S + Sync,
    Step: Fn(&mut S, usize, &P) -> Result<R, E> + Sync,
{
    /// One worker's job: its chunk, processed left to right, stopping at
    /// the first error (state and completed rows are kept either way).
    fn run_chunk<P, R, S, E>(
        base: usize,
        chunk: &[P],
        state: &mut S,
        step: &(impl Fn(&mut S, usize, &P) -> Result<R, E> + Sync),
    ) -> (Vec<R>, Option<(usize, E)>) {
        let mut out = Vec::with_capacity(chunk.len());
        for (j, p) in chunk.iter().enumerate() {
            match step(state, base + j, p) {
                Ok(r) => out.push(r),
                Err(e) => return (out, Some((base + j, e))),
            }
        }
        (out, None)
    }

    let workers = workers.max(1).min(points.len().max(1));
    let chunk_results: Vec<ChunkResult<R, S, E>> = if workers == 1 {
        // Serial fallback: the same per-point code, run in-line. One worker
        // state, no spawn — this is the `LOOPSCOPE_THREADS=1` path and the
        // reference the parallel paths are bit-compared against.
        let mut state = init();
        let (out, err) = run_chunk(0, points, &mut state, &step);
        vec![(out, state, err)]
    } else {
        // Contiguous chunks of (ceiling) equal size; the last may run
        // short. Chunk layout only affects scheduling, never results: every
        // point keeps its global index and workers never share mutable
        // state.
        let chunk_len = points.len().div_ceil(workers);
        thread::scope(|scope| {
            let handles: Vec<_> = points
                .chunks(chunk_len)
                .enumerate()
                .map(|(ci, chunk)| {
                    let init = &init;
                    let step = &step;
                    scope.spawn(move || {
                        IN_SWEEP_WORKER.with(|f| f.set(true));
                        let mut state = init();
                        let (out, err) = run_chunk(ci * chunk_len, chunk, &mut state, step);
                        (out, state, err)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };

    merge_chunk_results(chunk_results)
}

/// Reassembles per-chunk outputs (in chunk = point order) into one result
/// list plus all worker states, surfacing the lowest-index error if any
/// point failed.
fn merge_chunk_results<R, S, E>(
    chunk_results: Vec<ChunkResult<R, S, E>>,
) -> (Result<Vec<R>, E>, Vec<S>) {
    let mut results = Vec::new();
    let mut states = Vec::with_capacity(chunk_results.len());
    let mut first_error: Option<(usize, E)> = None;
    for (rows, state, err) in chunk_results {
        results.extend(rows);
        states.push(state);
        if let Some((idx, e)) = err {
            if first_error.as_ref().is_none_or(|(i, _)| idx < *i) {
                first_error = Some((idx, e));
            }
        }
    }
    match first_error {
        Some((_, e)) => (Err(e), states),
        None => (Ok(results), states),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_workers_accepts_integers_and_rejects_garbage() {
        assert_eq!(parse_workers(Some("4")), Some(4));
        assert_eq!(parse_workers(Some(" 2 ")), Some(2));
        assert_eq!(parse_workers(Some("1")), Some(1));
        assert_eq!(parse_workers(Some("0")), None);
        assert_eq!(parse_workers(Some("-3")), None);
        assert_eq!(parse_workers(Some("four")), None);
        assert_eq!(parse_workers(Some("")), None);
        assert_eq!(parse_workers(None), None);
    }

    #[test]
    fn configured_workers_is_at_least_one() {
        assert!(configured_workers() >= 1);
        assert!(available_workers() >= 1);
    }

    #[test]
    fn configured_panel_width_is_at_least_one() {
        assert_eq!(configured_panel_width(), 16);
    }

    #[test]
    fn results_keep_point_order_at_any_worker_count() {
        let points: Vec<usize> = (0..23).collect();
        for workers in [1, 2, 3, 4, 7, 23, 64] {
            let (out, states) = sweep_chunks_with(
                workers,
                &points,
                || 0usize,
                |count, idx, &p| {
                    *count += 1;
                    assert_eq!(idx, p, "global index must match the point");
                    Ok::<_, ()>(p * 10)
                },
            );
            let expected: Vec<usize> = points.iter().map(|p| p * 10).collect();
            assert_eq!(out.unwrap(), expected, "workers = {workers}");
            // Every point was processed exactly once, across all workers.
            assert_eq!(states.iter().sum::<usize>(), points.len());
            assert!(states.len() <= workers.min(points.len()));
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, states) =
            sweep_chunks_with(4, &[] as &[usize], || (), |_, _, _| Ok::<usize, ()>(0));
        assert!(out.unwrap().is_empty());
        assert_eq!(states.len(), 1, "the serial fallback still mints a state");
    }

    #[test]
    fn lowest_index_error_wins_and_states_survive_at_any_worker_count() {
        let points: Vec<usize> = (0..20).collect();
        for workers in [1, 2, 4, 8] {
            // Points 5 and 13 fail; the reported error must always be 5's.
            let (out, states) = sweep_chunks_with(
                workers,
                &points,
                || 0usize,
                |attempted, _, &p| {
                    *attempted += 1;
                    if p == 5 || p == 13 {
                        Err(format!("boom at {p}"))
                    } else {
                        Ok(p)
                    }
                },
            );
            assert_eq!(out.unwrap_err(), "boom at 5", "workers = {workers}");
            // Every worker state comes back even though the sweep failed, so
            // callers can still account for the work that ran. Failing
            // workers stop at their first error; the rest run to completion.
            assert!(!states.is_empty());
            let attempted: usize = states.iter().sum();
            assert!(
                attempted >= 6 && attempted <= points.len(),
                "workers = {workers}: attempted {attempted}"
            );
        }
    }

    #[test]
    fn per_worker_state_is_not_shared() {
        let points: Vec<usize> = (0..16).collect();
        let (_, states) =
            sweep_chunks_with(4, &points, Vec::new, |seen: &mut Vec<usize>, idx, _| {
                seen.push(idx);
                Ok::<_, ()>(())
            });
        // Each worker saw a contiguous, strictly increasing slice of indices.
        let mut all: Vec<usize> = Vec::new();
        for s in &states {
            assert!(s.windows(2).all(|w| w[1] == w[0] + 1));
            all.extend(s);
        }
        all.sort_unstable();
        assert_eq!(all, points);
    }

    #[test]
    fn nested_sweeps_inside_parallel_workers_run_serially() {
        let points: Vec<usize> = (0..8).collect();
        // From the main thread the env-driven count is whatever the machine
        // offers...
        assert!(configured_workers() >= 1);
        let (out, _) = sweep_chunks_with(
            4,
            &points,
            || (),
            |(), _, &p| {
                // ...but inside a spawned sweep worker it collapses to 1, so
                // an inner sweep cannot multiply the thread pool.
                assert_eq!(configured_workers(), 1, "nested sweeps must serialize");
                let inner: Vec<usize> = (0..5).collect();
                let (inner_out, inner_states) =
                    sweep_chunks(&inner, || (), |(), _, &q| Ok::<_, ()>(q + p));
                assert_eq!(inner_states.len(), 1, "one in-line state, no spawn");
                Ok::<_, ()>(inner_out.unwrap().iter().sum::<usize>())
            },
        );
        let expected: Vec<usize> = points.iter().map(|p| 10 + 5 * p).collect();
        assert_eq!(out.unwrap(), expected);
    }
}
