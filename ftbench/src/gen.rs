//! Seeded input generation: matrices, fault plans and the service job mix.
//!
//! Everything derives from `--seed` through splitmix64 over a
//! `(seed, lane, index)` triple, the same idiom `ft_serve::loadgen` uses,
//! so one seed always yields the same inputs and the program under test
//! receives only the generated values.

use ft_fault::{Fault, FaultPlan, Phase, ScheduledFault};
use ft_matrix::Matrix;
use ft_serve::Priority;

const LANE_MATRIX: u64 = 1;
const LANE_PLAN: u64 = 2;
const LANE_JOB: u64 = 3;
const LANE_POOL: u64 = 4;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 over a `(seed, lane, index)` triple.
pub fn mix(seed: u64, lane: u64, i: u64) -> u64 {
    finalize(
        seed.wrapping_add(lane.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(i.wrapping_mul(GOLDEN)),
    )
}

/// A splitmix64 stream seeded by one `(seed, lane, index)` triple.
struct Draw(u64);

impl Draw {
    fn new(seed: u64, lane: u64, i: u64) -> Draw {
        Draw(mix(seed, lane, i))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        finalize(self.0)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The dense input of a reduction workload.
pub fn hess_input(n: usize, seed: u64) -> Matrix {
    ft_matrix::random::uniform(n, n, mix(seed, LANE_MATRIX, n as u64))
}

/// Panel iterations of the driver: `(k, ib)` per iteration.
pub fn iterations(n: usize, nb: usize) -> Vec<(usize, usize)> {
    let total = n.saturating_sub(2);
    let mut out = vec![];
    let mut k = 0;
    while k < total {
        let ib = nb.min(total - k);
        out.push((k, ib));
        k += ib;
    }
    out
}

fn delta(d: &mut Draw) -> f64 {
    let mag = 0.25 + 0.75 * d.unit();
    if d.next() & 1 == 0 {
        mag
    } else {
        -mag
    }
}

fn strike(iteration: usize, row: usize, col: usize, delta: f64) -> ScheduledFault {
    ScheduledFault {
        iteration,
        phase: Phase::IterationStart,
        fault: Fault::add(row, col, delta),
    }
}

/// One additive fault in the trailing matrix (rows `k+1..n`, columns
/// `k+ib..n`) at the start of iteration `it`.
fn trailing_fault(d: &mut Draw, n: usize, iters: &[(usize, usize)], it: usize) -> ScheduledFault {
    let (k, ib) = iters[it];
    strike(it, d.range(k + 1, n), d.range(k + ib, n), delta(d))
}

/// Iterations whose trailing matrix has at least one column.
fn with_trailing(n: usize, iters: &[(usize, usize)]) -> Vec<usize> {
    (0..iters.len())
        .filter(|&it| iters[it].0 + iters[it].1 < n)
        .collect()
}

/// The `hess_faulted` plan of repetition `rep`: three trailing-matrix
/// faults at the start of three distinct iterations, and one fault in the
/// finished reflector storage (below the sub-diagonal of an already
/// reduced column), which only the end-of-run `Q` check can repair.
pub fn fault_plan(n: usize, nb: usize, seed: u64, rep: u64) -> FaultPlan {
    let iters = iterations(n, nb);
    let mut d = Draw::new(seed, LANE_PLAN, rep);
    let mut eligible = with_trailing(n, &iters);
    assert!(
        eligible.len() >= 3 && iters.len() >= 2,
        "n={n}, nb={nb} is too small for the faulted plan"
    );
    let mut faults = vec![];
    for _ in 0..3 {
        let it = eligible.swap_remove(d.range(0, eligible.len()));
        faults.push(trailing_fault(&mut d, n, &iters, it));
    }
    let it = d.range(1, iters.len());
    let col = d.range(0, iters[it].0);
    faults.push(strike(it, d.range(col + 2, n), col, delta(&mut d)));
    faults.sort_by_key(|f| f.iteration);
    FaultPlan::new(faults)
}

/// Sizes in the service job mix.
pub const JOB_SIZES: [usize; 4] = [64, 96, 128, 192];
/// Panel width of every service job.
pub const JOB_NB: usize = 32;
/// Distinct matrices generated per job size at setup.
pub const POOL_PER_SIZE: usize = 8;

/// One drawn service job.
#[derive(Clone, Debug)]
pub struct JobDraw {
    /// Index into [`JOB_SIZES`].
    pub size_idx: usize,
    /// Which pooled matrix of that size.
    pub pool_idx: usize,
    pub priority: Priority,
    /// A trailing-matrix fault, for 25% of jobs.
    pub fault: Option<ScheduledFault>,
    /// Faulted and submitted with `max_recovery_attempts = 0` (half of
    /// the faulted jobs), which forces the service's escalated retry.
    pub weak: bool,
}

impl JobDraw {
    pub fn n(&self) -> usize {
        JOB_SIZES[self.size_idx]
    }
}

/// Job `i` of the service mix.
pub fn job(seed: u64, i: u64) -> JobDraw {
    let mut d = Draw::new(seed, LANE_JOB, i);
    let size_idx = d.range(0, JOB_SIZES.len());
    let pool_idx = d.range(0, POOL_PER_SIZE);
    let priority = Priority::ALL[d.range(0, 3)];
    let faulted = d.unit() < 0.25;
    let weak = faulted && d.next() & 1 == 0;
    let fault = faulted.then(|| {
        let n = JOB_SIZES[size_idx];
        let iters = iterations(n, JOB_NB);
        let eligible = with_trailing(n, &iters);
        let it = eligible[d.range(0, eligible.len())];
        trailing_fault(&mut d, n, &iters, it)
    });
    JobDraw {
        size_idx,
        pool_idx,
        priority,
        fault,
        weak,
    }
}

/// The pooled job matrices, indexed `[size_idx][pool_idx]`.
pub fn job_pool(seed: u64) -> Vec<Vec<Matrix>> {
    JOB_SIZES
        .iter()
        .enumerate()
        .map(|(s, &n)| {
            (0..POOL_PER_SIZE)
                .map(|p| {
                    let tag = (s * POOL_PER_SIZE + p) as u64;
                    ft_matrix::random::uniform(n, n, mix(seed, LANE_POOL, tag))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_faults(p: &FaultPlan, n: usize) -> Vec<(usize, usize, usize)> {
        let mut m = Matrix::zeros(n + 1, n + 1);
        let mut q = p.clone();
        let mut out = vec![];
        for it in 0..n {
            for f in q.apply_due(it, Phase::IterationStart, &mut m) {
                out.push((f.iteration, f.row, f.col));
            }
        }
        out
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(hess_input(40, 7), hess_input(40, 7));
        let (p1, p2) = (fault_plan(128, 16, 7, 3), fault_plan(128, 16, 7, 3));
        assert_eq!(plan_faults(&p1, 128), plan_faults(&p2, 128));
        for i in 0..50 {
            let (a, b) = (job(7, i), job(7, i));
            assert_eq!(
                (a.size_idx, a.pool_idx, a.priority, a.weak),
                (b.size_idx, b.pool_idx, b.priority, b.weak)
            );
            assert_eq!(a.fault, b.fault);
        }
        assert_eq!(job_pool(7)[1][2], job_pool(7)[1][2]);
    }

    #[test]
    fn generation_differs_across_seeds() {
        assert_ne!(hess_input(40, 1), hess_input(40, 2));
        assert_ne!(
            plan_faults(&fault_plan(128, 16, 1, 0), 128),
            plan_faults(&fault_plan(128, 16, 2, 0), 128)
        );
        let mix1: Vec<_> = (0..64)
            .map(|i| (job(1, i).size_idx, job(1, i).priority))
            .collect();
        let mix2: Vec<_> = (0..64)
            .map(|i| (job(2, i).size_idx, job(2, i).priority))
            .collect();
        assert_ne!(mix1, mix2);
        assert_ne!(job_pool(1)[0][0], job_pool(2)[0][0]);
    }

    #[test]
    fn faulted_plan_has_the_promised_shape() {
        let (n, nb) = (512, 64);
        let iters = iterations(n, nb);
        for rep in 0..200 {
            let faults = plan_faults(&fault_plan(n, nb, 5, rep), n);
            assert_eq!(faults.len(), 4, "{faults:?}");
            let (mut trailing, mut reflector, mut its) = (0, 0, vec![]);
            for &(it, row, col) in &faults {
                let (k, ib) = iters[it];
                if col >= k + ib && row > k {
                    trailing += 1;
                    its.push(it);
                } else if col < k && row >= col + 2 {
                    reflector += 1;
                }
            }
            its.dedup();
            assert_eq!((trailing, reflector, its.len()), (3, 1, 3), "{faults:?}");
        }
    }

    #[test]
    fn job_mix_rates() {
        let jobs: Vec<JobDraw> = (0..4000).map(|i| job(1, i)).collect();
        let faulted = jobs.iter().filter(|j| j.fault.is_some()).count();
        let weak = jobs.iter().filter(|j| j.weak).count();
        assert!((850..1150).contains(&faulted), "{faulted}");
        assert!(
            weak * 3 > faulted && weak * 3 < 2 * faulted,
            "{weak}/{faulted}"
        );
        assert!(jobs.iter().all(|j| !j.weak || j.fault.is_some()));
    }
}
