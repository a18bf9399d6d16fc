//! Parallel sparse Cholesky factorization (Section 5.3, **Figure 5**).
//!
//! Columns are distributed over processes; column `j` waits until its
//! dependency count reaches zero (`await(count[j] = 0)`), finalizes
//! itself (square root + scaling), and then applies its outer-product
//! update to every later column `k` with `L[k][j] ≠ 0`.
//!
//! Two variants, exactly as discussed in the paper:
//!
//! * [`CholeskyVariant::Locks`] — Figure 5 verbatim: each target column
//!   `k` is protected by a write lock `l[k]`; updates and the
//!   `count[k] := count[k] − 1` decrement happen in a critical section.
//!   Reads must be **causal** ("Weakening these to PRAM reads may result
//!   in inconsistent values as updates made by critical section entries
//!   prior to the previous one may not be observed").
//! * [`CholeskyVariant::Counters`] — the lock-free optimization: matrix
//!   entries and counts become commutative counter objects supporting
//!   `decrement`; all critical sections disappear ("allowing causal
//!   memory to be used without any critical sections"). Requires the
//!   causal substrate: commutative float deltas are ordered only by
//!   causal application.

use mc_model::History;
use mixed_consistency::{
    LockId, Metrics, ProcId, ProcModel, ReadLabel, RunError, SimTime, System, Value, VarArray,
    VarMatrix, VarSpace,
};

use crate::dense::DenseMatrix;
use crate::sparse::{factorization_residual, SpdMatrix, Symbolic};

/// Which Figure-5 variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CholeskyVariant {
    /// Critical sections under per-column write locks (Figure 5).
    Locks,
    /// Commutative counter objects, no locks (Section 5.3's closing
    /// optimization).
    Counters,
}

impl std::fmt::Display for CholeskyVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyVariant::Locks => write!(f, "locks"),
            CholeskyVariant::Counters => write!(f, "counters"),
        }
    }
}

/// Configuration for a parallel factorization run.
#[derive(Clone, Debug)]
pub struct CholeskyConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// The lattice point every worker runs under (the counters variant
    /// requires one on the vector substrate, such as causal or mixed).
    pub model: ProcModel,
    /// Simulation seed.
    pub seed: u64,
    /// Record a checkable history (tiny matrices only).
    pub record: bool,
    /// Virtual nanoseconds per flop.
    pub flop_ns: u64,
}

impl CholeskyConfig {
    /// A default configuration on mixed memory.
    pub fn new(workers: usize) -> Self {
        CholeskyConfig { workers, model: ProcModel::MIXED, seed: 1, record: false, flop_ns: 2 }
    }
}

/// The result of a parallel factorization.
#[derive(Debug)]
pub struct CholeskyRun {
    /// The computed lower factor.
    pub l: DenseMatrix,
    /// `‖L·Lᵀ − A‖_max`.
    pub residual: f64,
    /// Simulator metrics.
    pub metrics: Metrics,
    /// Recorded history, if requested.
    pub history: Option<History>,
}

/// Runs the parallel factorization of `a` (with its symbolic structure
/// `sym`) under the chosen variant.
///
/// # Errors
///
/// Propagates simulation/recording failures.
///
/// # Panics
///
/// Panics if the counters variant is requested on a non-causal substrate
/// (PRAM or SC), or if `a` is not positive definite.
pub fn run_cholesky(
    cfg: &CholeskyConfig,
    a: &SpdMatrix,
    sym: &Symbolic,
    variant: CholeskyVariant,
) -> Result<CholeskyRun, RunError> {
    let mut sys = System::new(cfg.workers, cfg.model).seed(cfg.seed).record(cfg.record);
    if variant == CholeskyVariant::Counters {
        assert!(
            sys.cfg.substrate().carries_vectors(),
            "counter objects require the causal substrate (got {})",
            cfg.model
        );
    }
    let n = a.n();
    let mut vars = VarSpace::new();
    let l_mat: VarMatrix = vars.matrix(n, n);
    let counts: VarArray = vars.array(n);

    let workers = cfg.workers;
    let owner = move |j: usize| j % workers;

    for w in 0..cfg.workers {
        let cfg = cfg.clone();
        let a = a.clone();
        let sym = sym.clone();
        sys.spawn(move |ctx| {
            // Phase 0: worker 0 installs A's lower triangle and the
            // dependency counts, then everyone synchronizes once.
            if w == 0 {
                for i in 0..n {
                    for j in 0..=i {
                        ctx.write(l_mat.at(i, j), a.get(i, j));
                    }
                }
                for j in 0..n {
                    ctx.write(counts.at(j), sym.dep_counts[j] as i64);
                }
            }
            ctx.barrier();

            let label = ReadLabel::Causal;
            for j in (0..n).filter(|&j| owner(j) == w) {
                // Line 1: await count[j] = 0.
                ctx.await_eq(counts.at(j), 0i64);

                // Lines 2-3: finalize column j locally.
                let diag = ctx.read(l_mat.at(j, j), label).expect_f64();
                assert!(diag > 0.0, "matrix not positive definite at column {j}");
                let d = diag.sqrt();
                ctx.write(l_mat.at(j, j), d);
                // Cache the scaled column for the update phase.
                let mut col: Vec<(usize, f64)> = Vec::new();
                for i in (j + 1)..n {
                    if sym.l_nonzero(i, j) {
                        let v = ctx.read(l_mat.at(i, j), label).expect_f64() / d;
                        ctx.write(l_mat.at(i, j), v);
                        col.push((i, v));
                    }
                }
                ctx.compute(SimTime::from_nanos(cfg.flop_ns * (col.len() as u64 + 1)));

                // Lines 4-8: update every dependent column k.
                for k in sym.updates_of(j) {
                    let lkj = col
                        .iter()
                        .find(|&&(i, _)| i == k)
                        .map(|&(_, v)| v)
                        .expect("k is a nonzero row of column j");
                    let rows = sym.update_rows(j, k);
                    ctx.compute(SimTime::from_nanos(cfg.flop_ns * 2 * rows.len() as u64));
                    match variant {
                        CholeskyVariant::Locks => {
                            let lk = LockId(k as u32);
                            ctx.write_lock(lk);
                            for &i in &rows {
                                let lij = col
                                    .iter()
                                    .find(|&&(r, _)| r == i)
                                    .map(|&(_, v)| v)
                                    .expect("i is a nonzero row of column j");
                                let cur = ctx.read(l_mat.at(i, k), label).expect_f64();
                                ctx.write(l_mat.at(i, k), cur - lij * lkj);
                            }
                            let c = ctx.read(counts.at(k), label).expect_i64();
                            ctx.write(counts.at(k), c - 1);
                            ctx.write_unlock(lk);
                        }
                        CholeskyVariant::Counters => {
                            for &i in &rows {
                                let lij = col
                                    .iter()
                                    .find(|&&(r, _)| r == i)
                                    .map(|&(_, v)| v)
                                    .expect("i is a nonzero row of column j");
                                ctx.add(l_mat.at(i, k), -(lij * lkj));
                            }
                            ctx.add(counts.at(k), -1i64);
                        }
                    }
                }
            }
        });
    }

    let outcome = sys.run()?;
    // Collect each column from its owner's replica: in the counters
    // variant only the owner is guaranteed the causally final view of its
    // own column (which is the only view the algorithm ever reads).
    let mut l = DenseMatrix::zeros(n);
    for j in 0..n {
        let from = ProcId(owner(j) as u32);
        for i in j..n {
            if let Value::F64(v) = outcome.final_value(from, l_mat.at(i, j)) {
                l.set(i, j, v);
            }
        }
    }
    let residual = factorization_residual(a, &l);
    Ok(CholeskyRun { l, residual, metrics: outcome.metrics, history: outcome.history })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{
        grid_laplacian, random_sparse_spd, sparse_cholesky_reference, symbolic_factorize,
    };
    use mixed_consistency::check;

    #[test]
    fn lock_variant_factors_grid() {
        let a = grid_laplacian(3);
        let sym = symbolic_factorize(&a);
        for workers in [1, 2, 3] {
            let cfg = CholeskyConfig::new(workers);
            let run = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Locks).unwrap();
            assert!(run.residual < 1e-9, "{workers} workers: residual {}", run.residual);
            let l_ref = sparse_cholesky_reference(&a, &sym);
            assert!(run.l.max_abs_diff(&l_ref) < 1e-9);
        }
    }

    #[test]
    fn counter_variant_factors_grid() {
        let a = grid_laplacian(3);
        let sym = symbolic_factorize(&a);
        for workers in [1, 2, 3] {
            let cfg = CholeskyConfig::new(workers);
            let run = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Counters).unwrap();
            assert!(run.residual < 1e-9, "{workers} workers: residual {}", run.residual);
        }
    }

    #[test]
    fn both_variants_on_random_matrices() {
        for seed in [3, 9] {
            let a = random_sparse_spd(12, 14, seed);
            let sym = symbolic_factorize(&a);
            let cfg = CholeskyConfig { seed, ..CholeskyConfig::new(3) };
            for variant in [CholeskyVariant::Locks, CholeskyVariant::Counters] {
                let run = run_cholesky(&cfg, &a, &sym, variant).unwrap();
                assert!(run.residual < 1e-8, "seed {seed} {variant}: residual {}", run.residual);
            }
        }
    }

    #[test]
    fn counters_use_fewer_lock_messages() {
        // The Section 7 claim (C2): the counter variant eliminates lock
        // traffic entirely.
        let a = grid_laplacian(3);
        let sym = symbolic_factorize(&a);
        let cfg = CholeskyConfig::new(3);
        let locks = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Locks).unwrap();
        let counters = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Counters).unwrap();
        assert!(locks.metrics.kind("lock_req").count > 0);
        assert_eq!(counters.metrics.kind("lock_req").count, 0);
        assert!(
            counters.metrics.finish_time < locks.metrics.finish_time,
            "counters {} vs locks {}",
            counters.metrics.finish_time,
            locks.metrics.finish_time
        );
    }

    #[test]
    #[should_panic(expected = "causal substrate")]
    fn counters_on_pram_rejected() {
        let a = grid_laplacian(2);
        let sym = symbolic_factorize(&a);
        let cfg = CholeskyConfig { model: ProcModel::PRAM, ..CholeskyConfig::new(2) };
        let _ = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Counters);
    }

    #[test]
    fn lock_variant_works_on_sc() {
        let a = grid_laplacian(2);
        let sym = symbolic_factorize(&a);
        let cfg = CholeskyConfig { model: ProcModel::SC, ..CholeskyConfig::new(2) };
        let run = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Locks).unwrap();
        assert!(run.residual < 1e-9);
    }

    #[test]
    fn recorded_lock_history_is_causal() {
        let a = grid_laplacian(2);
        let sym = symbolic_factorize(&a);
        let cfg = CholeskyConfig { record: true, ..CholeskyConfig::new(2) };
        let run = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Locks).unwrap();
        let h = run.history.expect("recorded");
        let report = check::check_mixed(&h).unwrap();
        assert!(report.is_consistent());
    }

    #[test]
    fn recorded_counter_history_is_well_formed() {
        let a = grid_laplacian(2);
        let sym = symbolic_factorize(&a);
        let cfg = CholeskyConfig { record: true, ..CholeskyConfig::new(2) };
        let run = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Counters).unwrap();
        // Counter locations mix writes and float updates: the checker
        // skips those reads but the history itself must be well-formed
        // (which `run` already validated) and violation-free elsewhere.
        let h = run.history.expect("recorded");
        let report = check::check_mixed(&h).unwrap();
        assert!(report.is_consistent());
    }
}
