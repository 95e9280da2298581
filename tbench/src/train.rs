//! `train`: price one full training step per (model, mode), serially.
//!
//! A unit is one pass over the whole Table-2 zoo in a seeded order, each
//! model at a seeded batch size, under every `SecureMode`; the op mix does
//! not depend on the seed. Pass `p` adds `p` layers to every model, so no
//! CPU-phase input repeats within a run and a memo of the CPU phase could
//! not help.

use crate::harness::{op, Run, Workload};
use crate::stats::Digest;
use crate::trace::{self, BENCH};
use tee_sim::{SplitMix64, Time};
use tee_workloads::zoo::{ModelConfig, TABLE2};
use tee_workloads::StepSchedule;
use tensortee::{
    ClusterConfig, ClusterStepBreakdown, ClusterSystem, DesClusterConfig, DesClusterSystem,
    DesStepReport, SecureMode, StepBreakdown, SystemConfig, TrainingSystem,
};

/// NPUs in the priced data-parallel cluster.
const CLUSTER_NPUS: u32 = 4;

/// The models of pass `pass`: the zoo in a seeded order, each at a
/// seeded batch size (0.5–2× its Table-2 batch) and `pass` extra layers.
pub fn pass_models(seed: u64, pass: usize) -> Vec<ModelConfig> {
    let mut rng = SplitMix64::new(seed).split(pass as u64);
    let mut models = TABLE2.to_vec();
    rng.shuffle(&mut models);
    for m in &mut models {
        let factor = 0.5 + 1.5 * rng.next_f64();
        m.batch_size = ((m.batch_size as f64 * factor).round() as u64).max(1);
        m.layers += pass as u64;
    }
    models
}

/// Everything one (model, mode) op priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainOp {
    /// The single-NPU step composed from the priced phases.
    pub step: StepBreakdown,
    /// NPU compute stall attributable to verification.
    pub verify_stall: Time,
    /// The analytic 4-NPU cluster step.
    pub cluster: ClusterStepBreakdown,
    /// The lockstep discrete-event 4-NPU cluster step.
    pub des: DesStepReport,
}

/// Prices `schedule` under `mode`, one span per layer call.
pub fn price(cfg: &SystemConfig, mode: SecureMode, schedule: &StepSchedule) -> TrainOp {
    let sys = TrainingSystem::new(cfg.clone(), mode);
    let cpu = trace::span("cpu", "cpu_time", || sys.cpu_time(schedule));
    let npu = trace::span("npu", "npu_report", || sys.npu_report(schedule));
    let comm = trace::span("comm", "comm_costs", || sys.comm_costs(schedule));
    let step = sys.compose_step(npu.total, cpu, &comm);
    let cluster = trace::span("comm", "cluster_step", || {
        ClusterSystem::new(cfg.clone(), ClusterConfig::of(CLUSTER_NPUS), mode)
            .simulate_with_cpu_time(schedule, cpu)
    });
    let des = trace::span("sim", "des_step", || {
        DesClusterSystem::new(
            cfg.clone(),
            DesClusterConfig::lockstep(ClusterConfig::of(CLUSTER_NPUS)),
            mode,
        )
        .simulate_with_cpu_time(schedule, cpu)
    });
    TrainOp {
        step,
        verify_stall: npu.verify_stall,
        cluster,
        des,
    }
}

/// Checks one model's ops, indexed like [`SecureMode::all`]; returns
/// whether each op passed. Per op, the lockstep DES breakdown must equal
/// the analytic cluster breakdown bit-for-bit. Across modes (failing
/// every op compared), step time must order Non-Secure ≤ TensorTEE <
/// SGX+MGX, and TensorTEE must never stall on verification.
pub fn check(ops: &[Option<TrainOp>; 3]) -> [bool; 3] {
    let mut ok = ops.map(|o| o.is_some_and(|o| o.des.breakdown == o.cluster));
    if let [Some(ns), Some(sgx), Some(tt)] = ops {
        let (ns, sgx, tt) = (ns.step.total(), sgx.step.total(), tt.step.total());
        if !(ns <= tt && tt < sgx) {
            ok = [false; 3];
        }
    }
    if ops[2].is_some_and(|tt| tt.verify_stall != Time::ZERO) {
        ok[2] = false;
    }
    ok
}

fn feed(d: &mut Digest, op: &TrainOp) {
    let s = op.step;
    let c = op.cluster;
    let r = op.des;
    for t in [s.npu, s.cpu, s.comm_w, s.comm_g, op.verify_stall]
        .into_iter()
        .chain([c.npu, c.cpu, c.comm_w, c.comm_g, c.comm_ar])
        .chain([r.makespan, r.fabric_contention, r.fabric_occupied, r.crypto])
    {
        d.u64(t.as_ps());
    }
    d.u64(r.events);
}

/// The `train` workload.
pub struct Train {
    seed: u64,
    cfg: SystemConfig,
    first_pass: Vec<(ModelConfig, StepSchedule)>,
}

impl Train {
    /// Builds the context and pass 0's schedules.
    pub fn new(seed: u64) -> Self {
        Train {
            seed,
            cfg: SystemConfig::fast_sim(),
            first_pass: schedules(pass_models(seed, 0)),
        }
    }
}

fn schedules(models: Vec<ModelConfig>) -> Vec<(ModelConfig, StepSchedule)> {
    models
        .into_iter()
        .map(|m| (m, StepSchedule::of(&m)))
        .collect()
}

impl Workload for Train {
    fn workers(&self) -> usize {
        1
    }

    fn run_unit(&self, k: usize, run: &mut Run) {
        let later;
        let pass = if k == 0 {
            &self.first_pass
        } else {
            later = trace::span(BENCH, "generate", || schedules(pass_models(self.seed, k)));
            &later
        };
        let mut digest = Digest::default();
        for (model, schedule) in pass {
            let lines = schedule.scaled(self.cfg.sim_scale).adam_bytes() / 64
                * u64::from(self.cfg.cpu_iterations);
            let mut ops = [None; 3];
            let mut ms = [0.0; 3];
            for (i, mode) in SecureMode::all().into_iter().enumerate() {
                (ops[i], ms[i]) = op(|| price(&self.cfg, mode, schedule));
            }
            let _check = trace::enter(BENCH, "check");
            for (i, ok) in check(&ops).into_iter().enumerate() {
                run.record(ms[i], ok);
            }
            digest.str(model.name);
            digest.u64(model.batch_size);
            digest.u64(model.layers);
            for o in ops.iter().flatten() {
                feed(&mut digest, o);
                run.count("cpu.lines", lines);
                run.count("sim.des_events", o.des.events);
            }
        }
        run.digest_unit(k, digest, 3 * pass.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_pure_functions_of_the_seed() {
        assert_eq!(pass_models(7, 0), pass_models(7, 0));
        assert_ne!(pass_models(7, 0), pass_models(8, 0));
        // No CPU-phase input (name, depth) repeats within or across passes.
        let mut seen = std::collections::BTreeSet::new();
        for pass in 0..3 {
            let models = pass_models(7, pass);
            assert_eq!(models.len(), TABLE2.len());
            for m in models {
                assert!(seen.insert((m.name, m.layers)), "{} repeats", m.name);
            }
        }
    }

    fn priced() -> [Option<TrainOp>; 3] {
        let cfg = SystemConfig::fast_sim();
        let schedule = StepSchedule::of(&TABLE2[0]);
        SecureMode::all().map(|mode| Some(price(&cfg, mode, &schedule)))
    }

    #[test]
    fn checks_hold_and_catch_corruption() {
        let ops = priced();
        assert_eq!(check(&ops), [true; 3]);

        let mut swapped = ops;
        let (sgx, tt) = (swapped[1].unwrap().step, swapped[2].unwrap().step);
        swapped[1].as_mut().unwrap().step = tt;
        swapped[2].as_mut().unwrap().step = sgx;
        assert_eq!(check(&swapped), [false; 3], "SGX+MGX and TensorTEE swapped");

        let mut stalled = ops;
        stalled[2].as_mut().unwrap().verify_stall = Time::from_ns(1);
        assert_eq!(check(&stalled), [true, true, false]);

        let mut diverged = ops;
        let des = &mut diverged[0].as_mut().unwrap().des.breakdown;
        des.npu = Time::from_ps(des.npu.as_ps() + 1);
        assert!(!check(&diverged)[0]);

        let panicked = [ops[0], None, ops[2]];
        assert_eq!(check(&panicked), [true, false, true]);
    }
}
