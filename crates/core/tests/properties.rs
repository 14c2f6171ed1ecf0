//! Property-based tests for ElasticFlow's planning algorithms.

#![expect(clippy::cast_possible_truncation, reason = "test job ids are small")]
#![expect(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]
#![expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]

use std::collections::BTreeMap;

use elasticflow_core::{
    mss::minimum_satisfactory_share, progressive_filling, theory::brute_force_feasible,
    AdmissionDenial, AdmissionSet, AllocationProfile, FillScratch, PlanningJob, ReservationLedger,
    SlotGrid,
};
use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
use elasticflow_trace::JobId;
use proptest::prelude::*;

/// The set's committed plan as an id-keyed map.
fn plan_of(set: &AdmissionSet) -> BTreeMap<JobId, AllocationProfile> {
    let (jobs, profiles, _) = set.clone().into_parts();
    jobs.iter().map(|j| j.id).zip(profiles).collect()
}

/// A random concave power-of-two curve up to 4 GPUs.
fn concave_curve() -> impl Strategy<Value = ScalingCurve> {
    (0.5f64..2.0, 0.3f64..0.95, 0.3f64..0.95).prop_map(|(t1, d1, d2)| {
        let g2 = t1 + t1 * d1;
        let g4 = g2 + 2.0 * t1 * d1 * d2;
        ScalingCurve::from_points(
            DnnModel::ResNet50,
            64,
            vec![
                CurvePoint {
                    gpus: 1,
                    iters_per_sec: t1,
                },
                CurvePoint {
                    gpus: 2,
                    iters_per_sec: g2,
                },
                CurvePoint {
                    gpus: 4,
                    iters_per_sec: g4,
                },
            ],
        )
    })
}

fn small_instance() -> impl Strategy<Value = Vec<PlanningJob>> {
    prop::collection::vec((concave_curve(), 0.2f64..4.0, 1usize..4), 1..4).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (curve, work_scale, deadline_slot))| {
                let work = work_scale
                    * curve
                        .iters_per_sec(1)
                        .expect("1 GPU is always on the curve");
                PlanningJob {
                    id: JobId::new(i as u64),
                    curve,
                    remaining_iterations: work,
                    deadline_slot,
                }
            })
            .collect()
    })
}

/// The plan `set` would commit with `candidate` admitted, or its denial —
/// what a from-scratch `AdmissionSet::check` over the union must equal.
fn admitted_plan(
    set: &AdmissionSet,
    candidate: PlanningJob,
    grid: &SlotGrid,
) -> Result<BTreeMap<JobId, AllocationProfile>, AdmissionDenial> {
    let mut set = set.clone();
    set.admit(candidate, grid, &mut FillScratch::new())?;
    Ok(plan_of(&set))
}

proptest! {
    /// Algorithm 1 is *sound*: whenever it admits a set, an exhaustive
    /// search confirms a feasible schedule exists.
    #[test]
    fn admission_is_sound(jobs in small_instance()) {
        let grid = SlotGrid::uniform(1.0);
        let total = 4u32;
        if AdmissionSet::check(total, &jobs, &grid).is_ok() {
            prop_assert!(
                brute_force_feasible(&jobs, &grid, total),
                "admitted but brute force finds no schedule"
            );
        }
    }

    /// Progressive filling returns minimal constant targets: the profile
    /// it finds never exceeds the knee and meets the work requirement
    /// exactly when it claims to.
    #[test]
    fn progressive_filling_profiles_are_valid(
        curve in concave_curve(),
        work_scale in 0.1f64..6.0,
        deadline_slot in 1usize..6,
        committed in prop::collection::vec(0u32..4, 0..6),
    ) {
        let grid = SlotGrid::uniform(1.0);
        let job = PlanningJob {
            id: JobId::new(0),
            curve: curve.clone(),
            remaining_iterations: work_scale * curve.iters_per_sec(1).expect("1 GPU is always on the curve"),
            deadline_slot,
        };
        let mut ledger = ReservationLedger::new();
        ledger.commit(&elasticflow_core::AllocationProfile::new(committed));
        if let Some(p) = progressive_filling(&job, &ledger, &grid, 4, None, &mut FillScratch::new()) {
            let done: f64 = p
                .as_slice()
                .iter()
                .enumerate()
                .map(|(t, &g)| job.iters_in_slot(g, &grid, t))
                .sum();
            prop_assert!(done + 1e-9 >= job.remaining_iterations);
            for (t, &g) in p.as_slice().iter().enumerate() {
                prop_assert!(g == 0 || g.is_power_of_two());
                prop_assert!(g <= curve.knee());
                prop_assert!(g + ledger.committed(t) <= 4 || g == 0);
            }
            prop_assert!(p.len() <= deadline_slot);
        }
    }

    /// The minimum satisfactory share is monotone: looser deadlines never
    /// require more GPUs, and the returned share always meets the window.
    #[test]
    fn mss_is_monotone_and_sufficient(
        curve in concave_curve(),
        work in 0.1f64..8.0,
        window_a in 0.1f64..10.0,
        delta in 0.0f64..10.0,
    ) {
        let window_b = window_a + delta;
        let a = minimum_satisfactory_share(&curve, work, window_a);
        let b = minimum_satisfactory_share(&curve, work, window_b);
        match (a, b) {
            (Some(sa), Some(sb)) => {
                prop_assert!(sb <= sa, "looser window needs more GPUs");
                prop_assert!(curve.iters_per_sec(sa).unwrap() * window_a + 1e-9 >= work);
            }
            (Some(_), None) => prop_assert!(false, "looser window became infeasible"),
            _ => {}
        }
    }

    /// The incremental admission entry point agrees *exactly* with a
    /// from-scratch Algorithm 1 run over the union: same witness plan
    /// (bit-identical profiles) when admitted, same blocking job when
    /// rejected.
    #[test]
    fn incremental_admission_matches_from_scratch_check(jobs in small_instance()) {
        let grid = SlotGrid::uniform(1.0);
        let (candidate, existing) = jobs.split_last().expect("instances are non-empty");
        let (set, _lapsed) = AdmissionSet::fill(4, existing.to_vec(), &grid, &mut FillScratch::new());
        let mut union: Vec<PlanningJob> = set.jobs().to_vec();
        union.push(candidate.clone());
        let incremental = admitted_plan(&set, candidate.clone(), &grid);
        let from_scratch = AdmissionSet::check(4, &union, &grid);
        prop_assert_eq!(incremental, from_scratch);
    }

    /// An [`elasticflow_core::AdmissionSet`] mutated through admit /
    /// withdraw sequences is indistinguishable from a set filled from
    /// scratch over the same resident jobs: identical plans and identical
    /// reservation ledgers.
    #[test]
    fn admit_and_withdraw_sequences_match_from_scratch_fill(jobs in small_instance()) {
        let grid = SlotGrid::uniform(1.0);
        let scratch = &mut FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(4, Vec::new(), &grid, scratch);
        let mut resident: Vec<PlanningJob> = Vec::new();
        for job in &jobs {
            if set.admit(job.clone(), &grid, scratch).is_ok() {
                resident.push(job.clone());
            }
        }
        // Mid-sequence checkpoint: the mutated set matches a fresh fill.
        let (fresh, lapsed) = AdmissionSet::fill(4, resident.clone(), &grid, scratch);
        prop_assert!(lapsed.is_empty(), "admitted jobs cannot lapse on refill");
        prop_assert_eq!(plan_of(&set), plan_of(&fresh));
        prop_assert_eq!(set.ledger(), fresh.ledger());
        // Withdrawing only frees capacity, so nobody lapses and the
        // survivors match a from-scratch fill again.
        let withdrawn: Vec<JobId> = resident.iter().step_by(2).map(|j| j.id).collect();
        for id in &withdrawn {
            let lapsed = set.withdraw(*id, &grid, scratch);
            prop_assert!(lapsed.is_empty(), "withdrawal freed capacity but lapsed {lapsed:?}");
            resident.retain(|j| j.id != *id);
        }
        let (fresh, lapsed) = AdmissionSet::fill(4, resident, &grid, scratch);
        prop_assert!(lapsed.is_empty());
        prop_assert_eq!(plan_of(&set), plan_of(&fresh));
        prop_assert_eq!(set.ledger(), fresh.ledger());
    }

    /// Admission is monotone in workload: removing a job from an admitted
    /// set keeps it admitted.
    #[test]
    fn admission_is_downward_closed(jobs in small_instance()) {
        let grid = SlotGrid::uniform(1.0);
        if AdmissionSet::check(4, &jobs, &grid).is_ok() && jobs.len() > 1 {
            for skip in 0..jobs.len() {
                let subset: Vec<PlanningJob> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, j)| j.clone())
                    .collect();
                prop_assert!(
                    AdmissionSet::check(4, &subset, &grid).is_ok(),
                    "removing a job broke admission"
                );
            }
        }
    }
}

/// A random curve over the 1..=8 power-of-two ladder. Rates are drawn
/// independently, so a sample may rise along the ladder or dip.
fn ladder_curve() -> impl Strategy<Value = ScalingCurve> {
    prop::collection::vec(0.1f64..4.0, 4..5).prop_map(|rates| {
        ScalingCurve::from_points(
            DnnModel::ResNet50,
            64,
            rates
                .into_iter()
                .enumerate()
                .map(|(i, iters_per_sec)| CurvePoint {
                    gpus: 1 << i,
                    iters_per_sec,
                })
                .collect(),
        )
    })
}

proptest! {
    /// Every ledger view equals a naive scan of the committed vector, and
    /// the vector stays canonical (no trailing zero slot, so the horizon
    /// is its length) at every point of an interleaved commit/uncommit
    /// sequence.
    #[test]
    fn ledger_views_match_a_naive_scan(
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0u32..5, 0..6), 0usize..8),
            1..24,
        )
    ) {
        let mut live = ReservationLedger::new();
        let mut held: Vec<AllocationProfile> = Vec::new();
        for (is_commit, gpus, pick) in ops {
            if is_commit || held.is_empty() {
                let profile = AllocationProfile::new(gpus);
                live.commit(&profile);
                held.push(profile);
            } else {
                let profile = held.remove(pick % held.len());
                live.uncommit(&profile);
            }
            // The raw committed vector, read through the serialized form.
            let json = serde_json::to_value(&live);
            let committed: Vec<u32> = json["committed"]
                .as_array()
                .expect("committed is an array")
                .iter()
                .map(|v| v.as_u64().and_then(|c| u32::try_from(c).ok()).expect("u32 slot"))
                .collect();
            prop_assert_eq!(live.horizon(), committed.len());
            prop_assert!(committed.last() != Some(&0), "trailing zero in {:?}", committed);
            prop_assert_eq!(live.peak(), committed.iter().copied().max().unwrap_or(0));
            for t in 0..12 {
                let naive = committed.get(t).copied().unwrap_or(0);
                prop_assert_eq!(live.committed(t), naive);
                let before: u64 = committed.iter().take(t).map(|&c| u64::from(c)).sum();
                prop_assert_eq!(live.committed_before(t), before);
                // Inside the horizon the run ends where the value changes;
                // past it the zero run reaches the limit.
                let mut end = t + 1;
                while end < 12 && (t >= committed.len() || committed.get(end) == Some(&naive)) {
                    end += 1;
                }
                prop_assert_eq!(live.run_end(t, 12), end);
            }
        }
    }

    /// A stream of incremental admissions (shared scratch, so recycled
    /// profile buffers accumulate) answers every
    /// question — witness plan, blocking job, shortfall — exactly as a
    /// from-scratch Algorithm 1 over the union would.
    #[test]
    fn incremental_stream_matches_from_scratch_check(
        specs in prop::collection::vec((ladder_curve(), 0.2f64..5.0, 1usize..8), 1..12)
    ) {
        let grid = SlotGrid::uniform(1.0);
        let mut scratch = FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(8, Vec::new(), &grid, &mut scratch);
        let mut accepted: Vec<PlanningJob> = Vec::new();
        for (i, (curve, work_scale, deadline_slot)) in specs.into_iter().enumerate() {
            let work = work_scale * curve.iters_per_sec(1).expect("rate at 1 GPU");
            let job = PlanningJob {
                id: JobId::new(i as u64),
                curve,
                remaining_iterations: work,
                deadline_slot,
            };
            let mut union = accepted.clone();
            union.push(job.clone());
            let offline = AdmissionSet::check(8, &union, &grid);
            match (set.admit(job.clone(), &grid, &mut scratch), offline) {
                (Ok(()), Ok(plan)) => {
                    accepted.push(job);
                    prop_assert_eq!(plan_of(&set), plan);
                }
                (Err(denial), Err(offline)) => {
                    prop_assert_eq!(denial.blocking_job, offline.blocking_job);
                    prop_assert_eq!(denial.shortfall, offline.shortfall);
                }
                (incremental, offline) => prop_assert!(
                    false,
                    "incremental {incremental:?} disagrees with offline {offline:?}"
                ),
            }
        }
    }

    /// The same stream with the clock moving between arrivals
    /// (`AdmissionSet::advance`): every boundary refills the survivors from
    /// scratch, and the suffix refills that follow must still answer
    /// exactly as a from-scratch
    /// Algorithm 1 over the survivors plus the candidate — decision,
    /// blocking job, shortfall, and the committed ledger slot by slot.
    #[test]
    fn incremental_stream_across_boundaries_matches_from_scratch_check(
        specs in prop::collection::vec(
            (ladder_curve(), 0.2f64..5.0, 1u64..8, 0u64..3),
            1..16,
        )
    ) {
        const GPUS: u32 = 8;
        const HORIZON: usize = 16;
        let grid = SlotGrid::uniform(1.0);
        let mut scratch = FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(GPUS, Vec::new(), &grid, &mut scratch);
        for (i, (curve, work_scale, window, advance)) in specs.into_iter().enumerate() {
            set.advance(advance as usize, &grid, &mut scratch);
            let work = work_scale * curve.iters_per_sec(1).expect("rate at 1 GPU");
            let job = PlanningJob {
                id: JobId::new(i as u64),
                curve,
                remaining_iterations: work,
                deadline_slot: window as usize,
            };
            let mut union = set.jobs().to_vec();
            union.push(job.clone());
            let offline = AdmissionSet::check(GPUS, &union, &grid);
            match (set.admit(job, &grid, &mut scratch), offline) {
                (Ok(()), Ok(plan)) => {
                    // The live set's ledger, read slot by slot through
                    // its booked fraction, is the offline plan's.
                    let mut ledger = ReservationLedger::new();
                    for profile in plan.values() {
                        ledger.commit(profile);
                    }
                    for h in 1..=HORIZON {
                        let booked = ledger.committed_before(h) as f64 / (h as f64 * f64::from(GPUS));
                        prop_assert_eq!(set.booked_fraction(h), booked, "first {} slots", h);
                    }
                }
                (Err(denial), Err(offline)) => {
                    prop_assert_eq!(denial.blocking_job, offline.blocking_job);
                    prop_assert_eq!(denial.shortfall, offline.shortfall);
                }
                (incremental, offline) => prop_assert!(
                    false,
                    "incremental {incremental:?} disagrees with offline {offline:?}"
                ),
            }
        }
    }
}
