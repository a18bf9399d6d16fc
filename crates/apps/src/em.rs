//! The electromagnetic-field computation of Section 5.2 (**Figure 4**).
//!
//! A 1-D Yee-lattice FDTD solver for Maxwell's curl equations: E-nodes
//! and H-nodes sampled on a staggered grid, updated in alternating phases
//! (E from adjoining H, then H from adjoining E) separated by barriers.
//! Each process owns a block of nodes and reads *ghost* nodes from its
//! neighbours' partitions — on PRAM memory the underlying system provides
//! what Split-C programmers build by hand as "ghost copies" (the paper's
//! closing remark in Section 5.2).
//!
//! The program is PRAM-consistent (each node is written once per phase,
//! read only in later phases), so Corollary 2 applies: the parallel run
//! must equal the sequential reference **bit for bit**, which the tests
//! assert.

use mc_model::History;
use mixed_consistency::{
    Metrics, ProcId, ProcModel, ReadLabel, RunError, SimTime, System, VarArray, VarSpace,
};

/// FDTD configuration.
#[derive(Clone, Debug)]
pub struct EmConfig {
    /// Number of E-nodes (H-nodes are `cells − 1`).
    pub cells: usize,
    /// Number of leapfrog time steps.
    pub steps: usize,
    /// Number of worker processes.
    pub workers: usize,
    /// The lattice point every worker runs under.
    pub model: ProcModel,
    /// Simulation seed.
    pub seed: u64,
    /// Record a checkable history (keep sizes tiny).
    pub record: bool,
    /// Courant factor (`< 1` for stability).
    pub courant: f64,
    /// Virtual nanoseconds per flop.
    pub flop_ns: u64,
}

impl EmConfig {
    /// A small default configuration.
    pub fn new(cells: usize, steps: usize, workers: usize, model: ProcModel) -> Self {
        EmConfig { cells, steps, workers, model, seed: 1, record: false, courant: 0.5, flop_ns: 2 }
    }
}

/// The result of an FDTD run.
#[derive(Debug)]
pub struct EmRun {
    /// Final E field.
    pub e: Vec<f64>,
    /// Final H field.
    pub h: Vec<f64>,
    /// Simulator metrics.
    pub metrics: Metrics,
    /// Recorded history, if requested.
    pub history: Option<History>,
}

/// The initial E pulse: a Gaussian centred in the domain.
pub fn initial_pulse(cells: usize) -> Vec<f64> {
    let c = cells as f64 / 2.0;
    let w = cells as f64 / 8.0;
    (0..cells)
        .map(|i| {
            let d = (i as f64 - c) / w;
            (-d * d).exp()
        })
        .collect()
}

/// Sequential reference: identical arithmetic, identical update order per
/// node.
pub fn fdtd_reference(cfg: &EmConfig) -> (Vec<f64>, Vec<f64>) {
    let m = cfg.cells;
    let mut e = initial_pulse(m);
    let mut h = vec![0.0f64; m - 1];
    for _ in 0..cfg.steps {
        // E phase: interior nodes only (PEC boundaries).
        let e_old = e.clone();
        for i in 1..(m - 1) {
            e[i] = e_old[i] + cfg.courant * (h[i] - h[i - 1]);
        }
        // H phase.
        let e_now = e.clone();
        for i in 0..(m - 1) {
            h[i] += cfg.courant * (e_now[i + 1] - e_now[i]);
        }
    }
    (e, h)
}

fn block(n: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(workers);
    (w * per).min(n)..((w + 1) * per).min(n)
}

/// **Figure 4**: the parallel FDTD computation with barriers and PRAM
/// reads.
///
/// # Errors
///
/// Propagates simulation/recording failures.
///
/// # Panics
///
/// Panics if `cells < 3`.
pub fn run_fdtd(cfg: &EmConfig) -> Result<EmRun, RunError> {
    assert!(cfg.cells >= 3, "need at least 3 E-nodes");
    let m = cfg.cells;
    let label = ReadLabel::Pram;

    let mut vars = VarSpace::new();
    let e: VarArray = vars.array(m);
    let h: VarArray = vars.array(m - 1);

    let mut sys = System::new(cfg.workers, cfg.model).seed(cfg.seed).record(cfg.record);

    for w in 0..cfg.workers {
        let cfg = cfg.clone();
        sys.spawn(move |ctx| {
            // Phase 0: worker 0 installs the initial fields.
            if w == 0 {
                for (i, v) in initial_pulse(m).into_iter().enumerate() {
                    ctx.write(e.at(i), v);
                }
                for i in 0..(m - 1) {
                    ctx.write(h.at(i), 0.0f64);
                }
            }
            ctx.barrier();

            let e_block = block(m, cfg.workers, w);
            let h_block = block(m - 1, cfg.workers, w);
            for _ in 0..cfg.steps {
                // E phase: update every owned interior E-node from the
                // adjoining H-nodes (ghost reads cross partitions).
                let mut new_e = Vec::new();
                for i in e_block.clone() {
                    if i == 0 || i == m - 1 {
                        continue;
                    }
                    let hi = ctx.read(h.at(i), label).expect_f64();
                    let him1 = ctx.read(h.at(i - 1), label).expect_f64();
                    let ei = ctx.read(e.at(i), label).expect_f64();
                    new_e.push((i, ei + cfg.courant * (hi - him1)));
                }
                ctx.compute(SimTime::from_nanos(cfg.flop_ns * 3 * new_e.len() as u64));
                for (i, v) in new_e {
                    ctx.write(e.at(i), v);
                }
                ctx.barrier();

                // H phase: update owned H-nodes from adjoining E-nodes.
                let mut new_h = Vec::new();
                for i in h_block.clone() {
                    let ei1 = ctx.read(e.at(i + 1), label).expect_f64();
                    let ei = ctx.read(e.at(i), label).expect_f64();
                    let hi = ctx.read(h.at(i), label).expect_f64();
                    new_h.push((i, hi + cfg.courant * (ei1 - ei)));
                }
                ctx.compute(SimTime::from_nanos(cfg.flop_ns * 3 * new_h.len() as u64));
                for (i, v) in new_h {
                    ctx.write(h.at(i), v);
                }
                ctx.barrier();
            }
        });
    }

    let outcome = sys.run()?;
    let read_final = |arr: VarArray, len: usize| -> Vec<f64> {
        (0..len)
            .map(|i| outcome.final_value(ProcId(0), arr.at(i)).as_f64().unwrap_or(0.0))
            .collect()
    };
    Ok(EmRun {
        e: read_final(e, m),
        h: read_final(h, m - 1),
        metrics: outcome.metrics,
        history: outcome.history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixed_consistency::check;

    #[test]
    fn pulse_is_centered() {
        let p = initial_pulse(16);
        assert_eq!(p.len(), 16);
        let max_idx = p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 8);
    }

    #[test]
    fn reference_conserves_rough_energy() {
        let cfg = EmConfig::new(32, 20, 1, ProcModel::PRAM);
        let (e, h) = fdtd_reference(&cfg);
        let energy: f64 =
            e.iter().map(|v| v * v).sum::<f64>() + h.iter().map(|v| v * v).sum::<f64>();
        assert!(energy > 0.1, "field did not vanish");
        assert!(energy < 10.0, "field did not blow up");
    }

    #[test]
    fn parallel_matches_reference_bitwise() {
        for workers in [1, 2, 3] {
            let cfg = EmConfig::new(16, 6, workers, ProcModel::PRAM);
            let run = run_fdtd(&cfg).unwrap();
            let (e_ref, h_ref) = fdtd_reference(&cfg);
            assert_eq!(run.e, e_ref, "E field, {workers} workers");
            assert_eq!(run.h, h_ref, "H field, {workers} workers");
        }
    }

    #[test]
    fn all_modes_agree() {
        let reference = fdtd_reference(&EmConfig::new(12, 4, 2, ProcModel::PRAM));
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED, ProcModel::SC] {
            let cfg = EmConfig::new(12, 4, 2, mode);
            let run = run_fdtd(&cfg).unwrap();
            assert_eq!((run.e, run.h), reference.clone(), "{mode}");
        }
    }

    #[test]
    fn recorded_history_is_pram_consistent() {
        let mut cfg = EmConfig::new(6, 2, 2, ProcModel::PRAM);
        cfg.record = true;
        let run = run_fdtd(&cfg).unwrap();
        let h = run.history.expect("recorded");
        check::check_pram(&h).unwrap();
        mc_model::programs::check_pram_consistent_program(&h).unwrap();
    }

    #[test]
    fn virtual_time_grows_with_steps() {
        let short = run_fdtd(&EmConfig::new(12, 2, 2, ProcModel::PRAM)).unwrap();
        let long = run_fdtd(&EmConfig::new(12, 8, 2, ProcModel::PRAM)).unwrap();
        assert!(long.metrics.finish_time > short.metrics.finish_time);
    }
}
