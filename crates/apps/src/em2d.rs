//! Two-dimensional FDTD electromagnetic-field computation — the full
//! spatial version of Figure 4 / Section 5.2.
//!
//! TMz-mode Yee lattice on a `k × k` grid: an `Ez` node field plus the
//! staggered `Hx`/`Hy` fields. Each process owns a block of grid *rows*
//! and reads one row of ghost nodes from each neighbouring partition per
//! phase ("requires read access to adjoining nodes in neighboring
//! partitions"). Alternating phases separated by barriers:
//!
//! ```text
//! while not done do
//!   forall E-nodes e do for each adjoining H-node h: update e using h;
//!   barrier;
//!   forall H-nodes h do for each adjoining E-node e: update h using e;
//!   barrier;
//! ```
//!
//! PRAM reads + the phase discipline (Corollary 2) make the parallel run
//! **bit-identical** to the sequential reference.

use mc_model::History;
use mixed_consistency::{
    Metrics, ProcId, ProcModel, ReadLabel, RunError, SimTime, System, VarMatrix, VarSpace,
};

/// Configuration of the 2-D solver.
#[derive(Clone, Debug)]
pub struct Em2dConfig {
    /// Grid side: `k × k` Ez nodes.
    pub k: usize,
    /// Leapfrog steps.
    pub steps: usize,
    /// Worker processes (block row partitioning).
    pub workers: usize,
    /// The lattice point every worker runs under.
    pub model: ProcModel,
    /// Simulation seed.
    pub seed: u64,
    /// Record a checkable history.
    pub record: bool,
    /// Courant factor.
    pub courant: f64,
    /// Virtual nanoseconds per flop.
    pub flop_ns: u64,
}

impl Em2dConfig {
    /// A small default configuration.
    pub fn new(k: usize, steps: usize, workers: usize, model: ProcModel) -> Self {
        Em2dConfig { k, steps, workers, model, seed: 1, record: false, courant: 0.4, flop_ns: 2 }
    }
}

/// The final fields of a 2-D run.
#[derive(Debug)]
pub struct Em2dRun {
    /// `Ez`, row-major `k × k`.
    pub ez: Vec<f64>,
    /// `Hx`, row-major `k × (k-1)`.
    pub hx: Vec<f64>,
    /// `Hy`, row-major `(k-1) × k`.
    pub hy: Vec<f64>,
    /// Simulator metrics.
    pub metrics: Metrics,
    /// Recorded history, if requested.
    pub history: Option<History>,
}

/// The initial Ez field: a Gaussian bump at the grid centre.
pub fn initial_ez(k: usize) -> Vec<f64> {
    let c = (k as f64 - 1.0) / 2.0;
    let w = k as f64 / 6.0;
    let mut out = Vec::with_capacity(k * k);
    for i in 0..k {
        for j in 0..k {
            let d2 = ((i as f64 - c) / w).powi(2) + ((j as f64 - c) / w).powi(2);
            out.push((-d2).exp());
        }
    }
    out
}

/// Sequential reference with the identical per-node arithmetic.
pub fn fdtd2d_reference(cfg: &Em2dConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let k = cfg.k;
    let mut ez = initial_ez(k);
    let mut hx = vec![0.0f64; k * (k - 1)];
    let mut hy = vec![0.0f64; (k - 1) * k];
    let c = cfg.courant;
    let ez_at = |ez: &[f64], i: usize, j: usize| ez[i * k + j];
    for _ in 0..cfg.steps {
        // E phase (interior nodes; PEC boundary).
        let ez_old = ez.clone();
        for i in 1..(k - 1) {
            for j in 1..(k - 1) {
                let curl = (hy[i * k + j] - hy[(i - 1) * k + j])
                    - (hx[i * (k - 1) + j] - hx[i * (k - 1) + j - 1]);
                ez[i * k + j] = ez_old[i * k + j] + c * curl;
            }
        }
        // H phase.
        let ez_now = ez.clone();
        for i in 0..k {
            for j in 0..(k - 1) {
                hx[i * (k - 1) + j] -= c * (ez_at(&ez_now, i, j + 1) - ez_at(&ez_now, i, j));
            }
        }
        for i in 0..(k - 1) {
            for j in 0..k {
                hy[i * k + j] += c * (ez_at(&ez_now, i + 1, j) - ez_at(&ez_now, i, j));
            }
        }
    }
    (ez, hx, hy)
}

fn rows(k: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    let per = k.div_ceil(workers);
    (w * per).min(k)..((w + 1) * per).min(k)
}

/// Runs the parallel 2-D FDTD computation.
///
/// # Errors
///
/// Propagates simulation/recording failures.
///
/// # Panics
///
/// Panics if `k < 3`.
pub fn run_fdtd2d(cfg: &Em2dConfig) -> Result<Em2dRun, RunError> {
    assert!(cfg.k >= 3, "need at least a 3x3 grid");
    let k = cfg.k;
    let label = ReadLabel::Pram;

    let mut vars = VarSpace::new();
    let ez: VarMatrix = vars.matrix(k, k);
    let hx: VarMatrix = vars.matrix(k, k - 1);
    let hy: VarMatrix = vars.matrix(k - 1, k);

    let mut sys = System::new(cfg.workers, cfg.model).seed(cfg.seed).record(cfg.record);
    for w in 0..cfg.workers {
        let cfg = cfg.clone();
        sys.spawn(move |ctx| {
            if w == 0 {
                for (idx, v) in initial_ez(k).into_iter().enumerate() {
                    ctx.write(ez.at(idx / k, idx % k), v);
                }
                for i in 0..k {
                    for j in 0..(k - 1) {
                        ctx.write(hx.at(i, j), 0.0f64);
                    }
                }
                for i in 0..(k - 1) {
                    for j in 0..k {
                        ctx.write(hy.at(i, j), 0.0f64);
                    }
                }
            }
            ctx.barrier();

            let my_rows = rows(k, cfg.workers, w);
            let c = cfg.courant;
            for _ in 0..cfg.steps {
                // E phase: each owned interior Ez node reads its four
                // adjoining H nodes (Hy from row i-1 may be a ghost read
                // into the previous partition).
                let mut new_ez = Vec::new();
                for i in my_rows.clone() {
                    if i == 0 || i == k - 1 {
                        continue;
                    }
                    for j in 1..(k - 1) {
                        let hy_i = ctx.read(hy.at(i, j), label).expect_f64();
                        let hy_im1 = ctx.read(hy.at(i - 1, j), label).expect_f64();
                        let hx_j = ctx.read(hx.at(i, j), label).expect_f64();
                        let hx_jm1 = ctx.read(hx.at(i, j - 1), label).expect_f64();
                        let cur = ctx.read(ez.at(i, j), label).expect_f64();
                        new_ez.push((i, j, cur + c * ((hy_i - hy_im1) - (hx_j - hx_jm1))));
                    }
                }
                ctx.compute(SimTime::from_nanos(cfg.flop_ns * 5 * new_ez.len() as u64));
                for (i, j, v) in new_ez {
                    ctx.write(ez.at(i, j), v);
                }
                ctx.barrier();

                // H phase: owned Hx and Hy rows; Ez from row i+1 may be a
                // ghost read into the next partition.
                let mut new_h = Vec::new();
                for i in my_rows.clone() {
                    for j in 0..(k - 1) {
                        let e1 = ctx.read(ez.at(i, j + 1), label).expect_f64();
                        let e0 = ctx.read(ez.at(i, j), label).expect_f64();
                        let cur = ctx.read(hx.at(i, j), label).expect_f64();
                        new_h.push((0u8, i, j, cur - c * (e1 - e0)));
                    }
                    if i < k - 1 {
                        for j in 0..k {
                            let e1 = ctx.read(ez.at(i + 1, j), label).expect_f64();
                            let e0 = ctx.read(ez.at(i, j), label).expect_f64();
                            let cur = ctx.read(hy.at(i, j), label).expect_f64();
                            new_h.push((1u8, i, j, cur + c * (e1 - e0)));
                        }
                    }
                }
                ctx.compute(SimTime::from_nanos(cfg.flop_ns * 3 * new_h.len() as u64));
                for (which, i, j, v) in new_h {
                    let loc = if which == 0 { hx.at(i, j) } else { hy.at(i, j) };
                    ctx.write(loc, v);
                }
                ctx.barrier();
            }
        });
    }

    let outcome = sys.run()?;
    let collect = |m: VarMatrix, r: usize, cdim: usize| -> Vec<f64> {
        let mut out = Vec::with_capacity(r * cdim);
        for i in 0..r {
            for j in 0..cdim {
                out.push(outcome.final_value(ProcId(0), m.at(i, j)).as_f64().unwrap_or(0.0));
            }
        }
        out
    };
    Ok(Em2dRun {
        ez: collect(ez, k, k),
        hx: collect(hx, k, k - 1),
        hy: collect(hy, k - 1, k),
        metrics: outcome.metrics,
        history: outcome.history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_field_peaks_at_centre() {
        let k = 9;
        let ez = initial_ez(k);
        let (max_idx, _) =
            ez.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        assert_eq!(max_idx, (k / 2) * k + k / 2);
    }

    #[test]
    fn reference_stays_bounded() {
        let cfg = Em2dConfig::new(10, 12, 1, ProcModel::PRAM);
        let (ez, hx, hy) = fdtd2d_reference(&cfg);
        let energy: f64 = ez.iter().chain(&hx).chain(&hy).map(|v| v * v).sum();
        assert!(energy > 0.05 && energy < 50.0, "energy {energy}");
    }

    #[test]
    fn parallel_matches_reference_bitwise() {
        for workers in [1, 2, 3] {
            let cfg = Em2dConfig::new(6, 3, workers, ProcModel::PRAM);
            let run = run_fdtd2d(&cfg).unwrap();
            let (ez, hx, hy) = fdtd2d_reference(&cfg);
            assert_eq!(run.ez, ez, "{workers} workers Ez");
            assert_eq!(run.hx, hx, "{workers} workers Hx");
            assert_eq!(run.hy, hy, "{workers} workers Hy");
        }
    }

    #[test]
    fn modes_agree() {
        let base = Em2dConfig::new(5, 2, 2, ProcModel::PRAM);
        let reference = fdtd2d_reference(&base);
        for mode in [ProcModel::PRAM, ProcModel::CAUSAL, ProcModel::MIXED] {
            let run = run_fdtd2d(&Em2dConfig { model: mode, ..base.clone() }).unwrap();
            assert_eq!((run.ez, run.hx, run.hy), reference.clone(), "{mode}");
        }
    }

    #[test]
    fn recorded_history_passes_phase_discipline() {
        let mut cfg = Em2dConfig::new(4, 1, 2, ProcModel::PRAM);
        cfg.record = true;
        let run = run_fdtd2d(&cfg).unwrap();
        let h = run.history.expect("recorded");
        mixed_consistency::check::check_pram(&h).unwrap();
        mixed_consistency::programs::check_pram_consistent_program(&h).unwrap();
    }
}
