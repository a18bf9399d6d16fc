//! Sparse Cholesky factorization (Section 5.3, Figure 5): the lock-based
//! algorithm versus the lock-free counter-object optimization.
//!
//! Reproduces the paper's qualitative claim C2: "an algorithm using
//! counter objects outperforms the lock-based algorithm (Figure 5)
//! significantly".
//!
//! Run with: `cargo run --example cholesky`

use mc_apps::cholesky::{run_cholesky, CholeskyConfig, CholeskyVariant};
use mc_apps::sparse::{grid_laplacian, sparse_cholesky_reference, symbolic_factorize};
use mixed_consistency::ProcModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 4; // 4x4 grid => 16x16 SPD matrix
    let a = grid_laplacian(k);
    let sym = symbolic_factorize(&a);
    println!(
        "grid Laplacian {k}x{k}: n = {}, nnz(A lower) = {}, nnz(L) = {} (fill-in {})",
        a.n(),
        a.lower_nnz(),
        sym.l_nnz(),
        sym.l_nnz() - a.lower_nnz()
    );

    // Sequential reference for verification.
    let l_ref = sparse_cholesky_reference(&a, &sym);

    println!(
        "\n{:<22} {:>14} {:>10} {:>10} {:>12} {:>10}",
        "variant", "virtual time", "messages", "lock msgs", "residual", "max|ΔL|"
    );
    let cfg = CholeskyConfig { model: ProcModel::MIXED, ..CholeskyConfig::new(4) };

    let mut times = Vec::new();
    for variant in [CholeskyVariant::Locks, CholeskyVariant::Counters] {
        let run = run_cholesky(&cfg, &a, &sym, variant)?;
        let lock_msgs = run.metrics.kind("lock_req").count
            + run.metrics.kind("lock_grant").count
            + run.metrics.kind("lock_rel").count;
        println!(
            "{:<22} {:>14} {:>10} {:>10} {:>12.2e} {:>10.2e}",
            variant.to_string(),
            run.metrics.finish_time.to_string(),
            run.metrics.messages,
            lock_msgs,
            run.residual,
            run.l.max_abs_diff(&l_ref)
        );
        assert!(run.residual < 1e-8, "factorization must be correct");
        times.push(run.metrics.finish_time);
    }

    println!("\nclaim C2: counters {} < locks {} : {}", times[1], times[0], times[1] < times[0]);
    println!("(the counter variant eliminates every lock round-trip; its updates");
    println!(" commute, so causal memory suffices without critical sections)");
    Ok(())
}
