//! The electromagnetic-field computation of Section 5.2 (Figure 4): a
//! 1-D FDTD Maxwell solver with alternating E/H phases separated by
//! barriers, ghost-cell reads across partitions, PRAM reads throughout.
//!
//! The program is PRAM-consistent (Corollary 2), so the parallel run must
//! match the sequential reference bit for bit — verified below on every
//! memory mode.
//!
//! Run with: `cargo run --example em_fields`

use mc_apps::em::{fdtd_reference, run_fdtd, EmConfig};
use mixed_consistency::ProcModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = EmConfig::new(48, 30, 4, ProcModel::PRAM);
    let (e_ref, _) = fdtd_reference(&cfg);

    println!("1-D FDTD, {} E-nodes, {} steps, {} workers\n", cfg.cells, cfg.steps, cfg.workers);
    println!(
        "{:<10} {:>14} {:>10} {:>10} {:>10}",
        "mode", "virtual time", "messages", "kbytes", "bit-exact"
    );

    for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
        let run = run_fdtd(&EmConfig { model: mode, ..cfg.clone() })?;
        let exact = run.e == e_ref;
        println!(
            "{:<10} {:>14} {:>10} {:>10.1} {:>10}",
            mode.to_string(),
            run.metrics.finish_time.to_string(),
            run.metrics.messages,
            run.metrics.bytes as f64 / 1024.0,
            exact
        );
        assert!(exact, "parallel FDTD must equal the sequential reference");
    }

    // Render the final E field as a rough ASCII profile.
    let run = run_fdtd(&cfg)?;
    println!("\nfinal E field (pulse split into two travelling waves):");
    let max = run.e.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    for (i, v) in run.e.iter().enumerate() {
        let bars = ((v.abs() / max) * 40.0).round() as usize;
        println!("{i:>3} {}{}", if *v < 0.0 { "-" } else { " " }, "#".repeat(bars));
    }
    Ok(())
}
