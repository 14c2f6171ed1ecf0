//! Executable checks for the paper's theorems.
//!
//! * **Theorem 1** (linear scaling): deadline-sorted GPU-time prefix sums
//!   decide feasibility exactly — [`theorem1_feasible`].
//! * **Theorem 2** (concave scaling): Algorithm 2's greedy marginal-return
//!   allocation is optimal. We validate both algorithms against the
//!   exhaustive enumerator [`brute_force_feasible`] on small instances in
//!   this module's tests (and in the crate's proptest suite).

use elasticflow_trace::JobId;

use crate::{PlanningJob, SlotGrid, WORK_EPSILON};

/// A job under the *linear-scaling* model of Theorem 1: throughput
/// `k * g` for `g` GPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearJob {
    /// Job id (for reporting).
    pub id: JobId,
    /// Iterations to run (the paper's `M_i`).
    pub work: f64,
    /// Per-GPU throughput (the paper's `k_i`), iterations/second/GPU.
    pub per_gpu_throughput: f64,
    /// Deadline, seconds from now (the paper's `D_i`).
    pub deadline: f64,
}

/// Theorem 1: for linear scaling curves, the deadlines of all jobs can be
/// guaranteed iff for every deadline-sorted prefix
/// `sum_j M_j / k_j <= G * D_i`.
///
/// # Example
///
/// ```
/// use elasticflow_core::theory::{theorem1_feasible, LinearJob};
/// use elasticflow_trace::JobId;
///
/// let job = |id, work, deadline| LinearJob {
///     id: JobId::new(id),
///     work,
///     per_gpu_throughput: 1.0,
///     deadline,
/// };
/// // 2 GPUs: 2 units by t=1 and 2 more by t=2 fit exactly…
/// assert!(theorem1_feasible(&[job(0, 2.0, 1.0), job(1, 2.0, 2.0)], 2));
/// // …but any more work does not.
/// assert!(!theorem1_feasible(&[job(0, 2.0, 1.0), job(1, 2.5, 2.0)], 2));
/// ```
pub fn theorem1_feasible(jobs: &[LinearJob], total_gpus: u32) -> bool {
    let mut sorted: Vec<&LinearJob> = jobs.iter().collect();
    sorted.sort_by(|a, b| a.deadline.total_cmp(&b.deadline).then(a.id.cmp(&b.id)));
    let mut gpu_time = 0.0f64;
    for job in sorted {
        assert!(
            job.per_gpu_throughput > 0.0 && job.work >= 0.0,
            "invalid linear job"
        );
        gpu_time += job.work / job.per_gpu_throughput;
        if gpu_time > total_gpus as f64 * job.deadline + WORK_EPSILON {
            return false;
        }
    }
    true
}

/// Exhaustively searches for *any* per-slot allocation (on the power-of-two
/// ladder, capacity-respecting) that finishes every job by its deadline.
/// Exponential — intended for instances of at most ~3 jobs x 4 slots.
///
/// Used as ground truth when validating Algorithm 1's progressive filling.
///
/// # Panics
///
/// Panics if the search space exceeds ~2^24 states (guards against
/// accidental blow-ups in tests).
pub fn brute_force_feasible(jobs: &[PlanningJob], grid: &SlotGrid, total_gpus: u32) -> bool {
    let horizon = jobs
        .iter()
        .map(|j| j.deadline_slot)
        .max()
        .unwrap_or(0)
        .min(8);
    if jobs.is_empty() {
        return true;
    }
    // Options per (job, slot): 0 plus each ladder step up to the cluster.
    let mut ladder = vec![0u32];
    let mut g = 1u32;
    while g <= total_gpus {
        ladder.push(g);
        g *= 2;
    }
    let cells = jobs.len() * horizon;
    let states = (ladder.len() as f64).powi(i32::try_from(cells).unwrap_or(i32::MAX));
    assert!(states <= (1 << 24) as f64, "brute force instance too large");
    let mut assignment = vec![0usize; cells];
    'outer: loop {
        // Check capacity + completion for the current assignment.
        let mut ok = true;
        for t in 0..horizon {
            let used: u32 = (0..jobs.len())
                .map(|i| ladder[assignment[i * horizon + t]])
                .sum();
            if used > total_gpus {
                ok = false;
                break;
            }
        }
        if ok {
            let all_done = jobs.iter().enumerate().all(|(i, job)| {
                let done: f64 = (0..horizon.min(job.deadline_slot))
                    .map(|t| job.iters_in_slot(ladder[assignment[i * horizon + t]], grid, t))
                    .sum();
                done + WORK_EPSILON >= job.remaining_iterations
            });
            if all_done {
                return true;
            }
        }
        // Next assignment (odometer).
        for cell in assignment.iter_mut() {
            *cell += 1;
            if *cell < ladder.len() {
                continue 'outer;
            }
            *cell = 0;
        }
        return false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate_from_scratch;
    use crate::AdmissionSet;
    use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
    use elasticflow_trace::Rng;

    fn linear_curve(k: f64, max: u32) -> ScalingCurve {
        let mut points = Vec::new();
        let mut g = 1u32;
        while g <= max {
            points.push(CurvePoint {
                gpus: g,
                iters_per_sec: k * g as f64,
            });
            g *= 2;
        }
        ScalingCurve::from_points(DnnModel::ResNet50, 64, points)
    }

    fn concave_curve(seed: u64, max: u32) -> ScalingCurve {
        // Random concave ladder: marginal gain per GPU decays.
        let mut rng = Rng::new(seed);
        let mut points = Vec::new();
        let mut tput = 1.0 + rng.uniform();
        let mut g = 1u32;
        let mut marginal_per_gpu = tput;
        while g <= max {
            points.push(CurvePoint {
                gpus: g,
                iters_per_sec: tput,
            });
            marginal_per_gpu *= rng.uniform_range(0.3, 0.9);
            tput += marginal_per_gpu * g as f64; // add g more GPUs
            g *= 2;
        }
        ScalingCurve::from_points(DnnModel::ResNet50, 64, points)
    }

    #[test]
    fn theorem1_matches_progressive_filling_on_linear_curves() {
        // On linear curves with power-of-two work quanta, three facts must
        // hold: (i) Algorithm 1 admitting implies a schedule exists (brute
        // force confirms); (ii) a schedule existing implies Theorem 1's
        // continuous bound holds; (iii) the three tests agree on the vast
        // majority of instances. Exact equivalence between the continuous
        // bound and the power-of-two ladder does not hold in general — a
        // continuous plan may use, say, 3 GPUs in a slot — which is
        // precisely why the paper restricts workers to powers of two and
        // re-derives admission via progressive filling.
        let grid = SlotGrid::uniform(1.0);
        let mut rng = Rng::new(42);
        let mut agreements = 0usize;
        let cases = 200usize;
        for case in 0..cases {
            let total = 4u32;
            let n = 1 + rng.uniform_usize(3);
            let mut linear_jobs = Vec::new();
            let mut planning_jobs = Vec::new();
            for i in 0..n {
                let deadline_slots = 1 + rng.uniform_usize(3);
                let work = (1u32 << rng.uniform_usize(3)) as f64; // 1, 2, 4
                linear_jobs.push(LinearJob {
                    id: JobId::new(i as u64),
                    work,
                    per_gpu_throughput: 1.0,
                    deadline: deadline_slots as f64,
                });
                planning_jobs.push(PlanningJob {
                    id: JobId::new(i as u64),
                    curve: linear_curve(1.0, total),
                    remaining_iterations: work,
                    deadline_slot: deadline_slots,
                });
            }
            let t1 = theorem1_feasible(&linear_jobs, total);
            let alg1 = AdmissionSet::check(total, &planning_jobs, &grid).is_ok();
            let brute = brute_force_feasible(&planning_jobs, &grid, total);
            if alg1 {
                assert!(brute, "case {case}: admitted but no schedule exists");
            }
            if brute {
                assert!(t1, "case {case}: schedulable but Theorem 1 rejects");
            }
            if t1 == brute && alg1 == brute {
                agreements += 1;
            }
        }
        assert!(
            agreements as f64 >= cases as f64 * 0.9,
            "only {agreements}/{cases} agreements"
        );
    }

    #[test]
    fn algorithm1_is_sound_on_random_concave_instances() {
        // Whenever Algorithm 1 admits, a feasible schedule must exist
        // (progressive filling's own plan is the witness, and brute force
        // must confirm it).
        let grid = SlotGrid::uniform(1.0);
        let mut rng = Rng::new(7);
        let mut admitted_count = 0;
        for case in 0..150 {
            let total = 4u32;
            let n = 1 + rng.uniform_usize(2);
            let jobs: Vec<PlanningJob> = (0..n)
                .map(|i| {
                    let curve = concave_curve(case * 10 + i as u64, total);
                    let max_tput = curve.iters_per_sec(curve.knee()).unwrap();
                    PlanningJob {
                        id: JobId::new(i as u64),
                        curve,
                        remaining_iterations: rng.uniform_range(0.5, 3.0) * max_tput,
                        deadline_slot: 1 + rng.uniform_usize(3),
                    }
                })
                .collect();
            if AdmissionSet::check(total, &jobs, &grid).is_ok() {
                admitted_count += 1;
                assert!(
                    brute_force_feasible(&jobs, &grid, total),
                    "case {case}: admitted but brute force finds no schedule"
                );
            }
        }
        assert!(
            admitted_count > 20,
            "test too weak: {admitted_count} admitted"
        );
    }

    #[test]
    fn algorithm2_stays_within_brute_force_feasibility() {
        // Every profile Algorithm 2 produces must itself be a feasible
        // schedule: deadlines met, capacity respected in every slot.
        let grid = SlotGrid::uniform(1.0);
        let mut rng = Rng::new(99);
        for case in 0..100 {
            let total = 4u32;
            let n = 1 + rng.uniform_usize(3);
            let jobs: Vec<PlanningJob> = (0..n)
                .map(|i| {
                    let curve = concave_curve(case * 31 + i as u64, total);
                    PlanningJob {
                        id: JobId::new(i as u64),
                        curve: curve.clone(),
                        remaining_iterations: rng.uniform_range(0.3, 2.0)
                            * curve.iters_per_sec(1).unwrap(),
                        deadline_slot: 1 + rng.uniform_usize(4),
                    }
                })
                .collect();
            let (profiles, lapsed) = allocate_from_scratch(total, &jobs, &grid);
            let horizon = jobs.iter().map(|j| j.deadline_slot).max().unwrap();
            for t in 0..horizon {
                let used: u32 = profiles.values().map(|p| p.gpus(t)).sum();
                assert!(used <= total, "case {case}: slot {t} over capacity");
            }
            for job in &jobs {
                if lapsed.contains(&job.id) {
                    continue;
                }
                let p = &profiles[&job.id];
                let done: f64 = p
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(t, &g)| job.iters_in_slot(g, &grid, t))
                    .sum();
                assert!(
                    done + 1e-6 >= job.remaining_iterations,
                    "case {case}: job {} unfinished",
                    job.id
                );
                assert!(
                    p.last_active_slot().unwrap() < job.deadline_slot,
                    "case {case}: job {} misses its deadline",
                    job.id
                );
            }
        }
    }

    #[test]
    fn greedy_matches_brute_force_gpu_time_on_two_job_instances() {
        // Theorem 2 (spot check): on tiny instances, no feasible plan uses
        // less total GPU-time than Algorithm 2's, once both plans are
        // required to meet the deadlines. We enumerate plans and compare.
        let grid = SlotGrid::uniform(1.0);
        let curve = ScalingCurve::from_points(
            DnnModel::ResNet50,
            64,
            vec![
                CurvePoint {
                    gpus: 1,
                    iters_per_sec: 1.0,
                },
                CurvePoint {
                    gpus: 2,
                    iters_per_sec: 1.5,
                },
                CurvePoint {
                    gpus: 4,
                    iters_per_sec: 2.0,
                },
            ],
        );
        let jobs = vec![
            PlanningJob {
                id: JobId::new(0),
                curve: curve.clone(),
                remaining_iterations: 1.5,
                deadline_slot: 1,
            },
            PlanningJob {
                id: JobId::new(1),
                curve: curve.clone(),
                remaining_iterations: 2.0,
                deadline_slot: 2,
            },
        ];
        let (_, lapsed) = allocate_from_scratch(4, &jobs, &grid);
        assert!(lapsed.is_empty());
        // Brute force the minimum GPU-time over all feasible plans.
        let ladder = [0u32, 1, 2, 4];
        let mut best = f64::INFINITY;
        for a0 in ladder {
            for b0 in ladder {
                for b1 in ladder {
                    if a0 + b0 > 4 || b1 > 4 {
                        continue;
                    }
                    let a_done = jobs[0].iters_in_slot(a0, &grid, 0);
                    let b_done =
                        jobs[1].iters_in_slot(b0, &grid, 0) + jobs[1].iters_in_slot(b1, &grid, 1);
                    if a_done + 1e-9 >= 1.5 && b_done + 1e-9 >= 2.0 {
                        best = best.min((a0 + b0 + b1) as f64);
                    }
                }
            }
        }
        // Algorithm 2's *minimum satisfactory* portion equals the optimum;
        // the boost phase may then spend leftover idle GPUs to finish jobs
        // earlier, which is allowed by constraint (7).
        let mss_gpu_time: f64 = AdmissionSet::check(4, &jobs, &grid)
            .expect("instance known feasible")
            .values()
            .map(|p| p.gpu_seconds(&grid))
            .sum();
        assert!(
            (mss_gpu_time - best).abs() < 1e-9,
            "MSS GPU-time {mss_gpu_time} vs brute-force optimum {best}"
        );
    }
}
