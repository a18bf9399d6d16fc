//! Application × protocol matrix: every Section 5 application must
//! compute correct results on every memory mode it is specified for,
//! across worker counts and seeds.

use mc_apps::cholesky::{run_cholesky, CholeskyConfig, CholeskyVariant};
use mc_apps::dense::{diag_dominant_system, diff_inf, jacobi_reference, residual_inf};
use mc_apps::em::{fdtd_reference, run_fdtd, EmConfig};
use mc_apps::solver::{
    barrier_coordinator, barrier_worker, handshake_coordinator, handshake_worker,
    run_barrier_solver, run_handshake_solver, Layout, SolverConfig,
};
use mc_apps::sparse::{
    grid_laplacian, random_sparse_spd, sparse_cholesky_reference, symbolic_factorize,
};
use mc_live::Threads;
use mc_net::Tcp;
use mixed_consistency::{Executor, Mode, ProcId, ReadLabel, System};

#[test]
fn barrier_solver_matrix() {
    let (a, b) = diag_dominant_system(10, 3);
    let (x_ref, _) = jacobi_reference(&a, &b, 1e-9, 300);
    for mode in [Mode::Pram, Mode::Causal, Mode::Mixed, Mode::Sc] {
        for workers in [1, 2, 5] {
            let mut cfg = SolverConfig::new(10, workers, mode);
            cfg.tol = 1e-9;
            cfg.max_iters = 300;
            cfg.seed = 17;
            let run = run_barrier_solver(&cfg, &a, &b).unwrap();
            assert!(run.converged, "{mode}/{workers}: residual {}", run.residual);
            assert!(diff_inf(&run.x, &x_ref) < 1e-6, "{mode}/{workers}: wrong solution");
        }
    }
}

#[test]
fn handshake_solver_matrix() {
    let (a, b) = diag_dominant_system(9, 8);
    let (x_ref, _) = jacobi_reference(&a, &b, 1e-9, 300);
    for mode in [Mode::Causal, Mode::Mixed] {
        for workers in [1, 3] {
            let mut cfg = SolverConfig::new(9, workers, mode);
            cfg.tol = 1e-9;
            cfg.max_iters = 300;
            let run = run_handshake_solver(&cfg, &a, &b, ReadLabel::Causal).unwrap();
            assert!(run.converged, "{mode}/{workers}");
            assert!(diff_inf(&run.x, &x_ref) < 1e-6, "{mode}/{workers}");
        }
    }
}

#[test]
fn handshake_solver_seed_sweep() {
    // Different schedules, same answer (the algorithm is deterministic
    // modulo scheduling because each iteration is fully synchronized).
    let (a, b) = diag_dominant_system(8, 21);
    let mut first: Option<Vec<f64>> = None;
    for seed in 0..5 {
        let mut cfg = SolverConfig::new(8, 2, Mode::Mixed);
        cfg.seed = seed;
        cfg.tol = 1e-10;
        let run = run_handshake_solver(&cfg, &a, &b, ReadLabel::Causal).unwrap();
        match &first {
            None => first = Some(run.x),
            Some(x0) => assert!(diff_inf(x0, &run.x) < 1e-12, "seed {seed} diverged"),
        }
    }
}

#[test]
fn fdtd_matrix_bit_exact() {
    for workers in [1, 2, 4] {
        for mode in [Mode::Pram, Mode::Causal, Mode::Mixed, Mode::Sc] {
            let cfg = EmConfig::new(20, 8, workers, mode);
            let run = run_fdtd(&cfg).unwrap();
            let (e_ref, h_ref) = fdtd_reference(&cfg);
            assert_eq!(run.e, e_ref, "{mode}/{workers} E");
            assert_eq!(run.h, h_ref, "{mode}/{workers} H");
        }
    }
}

#[test]
fn fdtd_seed_sweep_stays_exact() {
    let base = EmConfig::new(14, 5, 3, Mode::Pram);
    let (e_ref, _) = fdtd_reference(&base);
    for seed in 0..6 {
        let run = run_fdtd(&EmConfig { seed, ..base.clone() }).unwrap();
        assert_eq!(run.e, e_ref, "seed {seed}");
    }
}

#[test]
fn cholesky_matrix() {
    let grids = [grid_laplacian(3), random_sparse_spd(14, 16, 4)];
    for a in &grids {
        let sym = symbolic_factorize(a);
        let l_ref = sparse_cholesky_reference(a, &sym);
        for workers in [1, 2, 4] {
            for (mode, variant) in [
                (Mode::Mixed, CholeskyVariant::Locks),
                (Mode::Causal, CholeskyVariant::Locks),
                (Mode::Sc, CholeskyVariant::Locks),
                (Mode::Mixed, CholeskyVariant::Counters),
                (Mode::Causal, CholeskyVariant::Counters),
            ] {
                let cfg = CholeskyConfig { mode, seed: 5, ..CholeskyConfig::new(workers) };
                let run = run_cholesky(&cfg, a, &sym, variant).unwrap();
                assert!(
                    run.residual < 1e-8,
                    "{mode}/{variant}/{workers}: residual {}",
                    run.residual
                );
                if variant == CholeskyVariant::Locks {
                    // The lock variant is deterministic arithmetic: exact
                    // match with the sequential reference.
                    assert!(run.l.max_abs_diff(&l_ref) < 1e-9, "{mode}/{variant}/{workers}");
                }
            }
        }
    }
}

#[test]
fn cholesky_counter_seed_sweep() {
    // The counter variant's float additions may associate differently per
    // schedule; the factorization must stay correct for every seed.
    let a = grid_laplacian(3);
    let sym = symbolic_factorize(&a);
    for seed in 0..8 {
        let cfg = CholeskyConfig { seed, ..CholeskyConfig::new(3) };
        let run = run_cholesky(&cfg, &a, &sym, CholeskyVariant::Counters).unwrap();
        assert!(run.residual < 1e-8, "seed {seed}: residual {}", run.residual);
    }
}

#[test]
fn pram_reads_on_handshake_violate_causality_on_pram_memory() {
    // The paper's claim: Fig. 3's matrix reads "cannot be PRAM". On the
    // causal/mixed substrate the claim is masked — causally *gated
    // application* delivers updates in causal order, so even PRAM-labeled
    // reads never observe the anomaly (a finding worth recording). On
    // pure PRAM memory with latency skew the stale read materializes:
    // some seed yields a history that is PRAM consistent (Definition 3 —
    // the protocol keeps its own contract) but NOT causally consistent,
    // exactly the paper's "inconsistent values of the matrix are read".
    let (a, b) = diag_dominant_system(4, 2);
    let mut violation_found = false;
    for seed in 0..30 {
        let mut cfg = SolverConfig::new(4, 2, Mode::Pram);
        cfg.seed = seed;
        cfg.record = true;
        cfg.tol = 1e-7;
        cfg.max_iters = 5;
        cfg.latency = Some(mixed_consistency::LatencyModel {
            base: mixed_consistency::SimTime::from_micros(1),
            per_byte_ns: 0,
            jitter: mixed_consistency::SimTime::from_micros(60),
        });
        let run = run_handshake_solver(&cfg, &a, &b, ReadLabel::Pram).unwrap();
        let h = run.history.expect("recorded");
        mixed_consistency::check::check_pram(&h)
            .expect("the PRAM protocol must satisfy Definition 3");
        if mixed_consistency::check::check_causal(&h).is_err() {
            violation_found = true;
            break;
        }
    }
    assert!(violation_found, "no seed exposed the Fig.3-with-PRAM-reads causality violation");
}

/// Which of Section 5.1's two synchronous solvers to run.
#[derive(Clone, Copy, Debug)]
enum Figure {
    /// Figure 2: barriers, PRAM reads (Corollary 2).
    Barrier,
    /// Figure 3: await handshakes, causal reads (Theorem 1).
    Handshake,
}

/// Section 7 off the simulator: both solvers (n = 8, 2 workers) on
/// `exec`, each on the weakest memory its theorem allows, must solve the
/// system *and* leave a history that memory's definition accepts. The
/// processes are the same generic functions the simulator runs,
/// monomorphised for `exec`'s driver.
fn solvers_hold_on<E: Executor + Copy>(exec: E) {
    let name = std::any::type_name::<E>();
    for (fig, mode) in [(Figure::Barrier, Mode::Pram), (Figure::Handshake, Mode::Causal)] {
        let cfg = SolverConfig::new(8, 2, mode);
        let lay = Layout::new(cfg.n, cfg.workers);
        let (a, b) = diag_dominant_system(cfg.n, 21);
        let mut sys = System::on(exec, cfg.workers + 1, mode).record(true);
        let (coordinator, causal) = (cfg.clone(), ReadLabel::Causal);
        let (a2, b2) = (a.clone(), b.clone());
        sys.spawn(move |ctx| match fig {
            Figure::Barrier => barrier_coordinator(ctx, &coordinator, &lay, &a2, &b2),
            Figure::Handshake => handshake_coordinator(ctx, &coordinator, &lay, &a2, &b2, causal),
        });
        for w in 0..cfg.workers {
            let cfg = cfg.clone();
            sys.spawn(move |ctx| match fig {
                Figure::Barrier => barrier_worker(ctx, &cfg, &lay, w),
                Figure::Handshake => handshake_worker(ctx, &cfg, &lay, w, causal),
            });
        }
        let out = sys.run().unwrap_or_else(|e| panic!("{fig:?} on {name}: {e}"));
        let x: Vec<f64> =
            (0..cfg.n).map(|i| out.final_value(ProcId(0), lay.x(i)).expect_f64()).collect();
        let residual = residual_inf(&a, &x, &b);
        assert!(residual < 1e-6, "{fig:?} on {name}: residual {residual}");
        let ops = out.history.as_ref().map_or(0, |h| h.len());
        out.verify().unwrap_or_else(|e| panic!("{fig:?} on {name}: {ops} ops, {e}"));
    }
}

#[test]
fn solvers_hold_on_threads() {
    solvers_hold_on(Threads::default());
}

#[test]
fn solvers_hold_on_tcp() {
    solvers_hold_on(Tcp);
}
