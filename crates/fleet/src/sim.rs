//! Fleet simulation assembly: the message type, the component enum, and
//! the top-level [`simulate`] entry point.

use crate::config::FleetConfig;
use crate::cost::IterCost;
use crate::instance::Instance;
use crate::report::FleetReport;
use crate::router::Router;
use tee_serve::config::{KvSpec, SecurityProfile};
use tee_serve::SessionRequest;
use tee_sim::des::{Component, Ctx, Scheduler};
use tee_sim::probe::SharedProbe;
use tee_sim::{Histogram, Time};
use tee_workloads::zoo::ModelConfig;

/// Messages exchanged inside a fleet simulation.
#[derive(Debug, Clone, Copy)]
pub enum Msg {
    /// External stimulus: a trace turn reaches the router.
    Arrive(SessionRequest),
    /// Router → instance: an admitted turn (delayed by its KV handoff
    /// when the session migrated).
    Dispatch(SessionRequest),
    /// Router → instance: non-overlappable handoff time serializing
    /// against the destination's compute.
    Stall(Time),
    /// Instance → router: one turn finished generating.
    Done {
        /// Fleet index of the reporting instance.
        instance: usize,
        /// Session the finished turn belongs to.
        session: u64,
    },
    /// Router → router (delayed): a cold start finished.
    Warmed(usize),
}

/// The component universe of one fleet scheduler: component 0 is the
/// router, components `1..=M` are instances.
#[derive(Debug)]
pub enum Node {
    Router(Box<Router>),
    Instance(Box<Instance>),
}

impl Component for Node {
    type Msg = Msg;

    fn next_tick(&self) -> Time {
        match self {
            Node::Router(r) => r.next_tick(),
            Node::Instance(i) => i.next_tick(),
        }
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Router(r) => r.tick(now, ctx),
            Node::Instance(i) => i.tick(now, ctx),
        }
    }

    fn receive(&mut self, now: Time, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Router(r) => r.receive(now, msg, ctx),
            Node::Instance(i) => i.receive(now, msg, ctx),
        }
    }

    fn label(&self) -> String {
        match self {
            Node::Router(_) => "router".to_string(),
            Node::Instance(i) => format!("NPU{}", i.index()),
        }
    }
}

/// Simulates serving `trace` on the fleet under one security profile.
///
/// Deterministic: same config + model + profile + trace → the same
/// [`FleetReport`], independent of anything outside the arguments.
///
/// # Panics
///
/// Panics if the fleet or trace configuration is internally
/// inconsistent (zero instances, zero batch slots).
pub fn simulate(
    cfg: &FleetConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[SessionRequest],
) -> FleetReport {
    simulate_probed(cfg, model, profile, trace, &SharedProbe::Null)
}

/// [`simulate`] with an observability probe: routing, migration and
/// autoscale decisions emit instants on the `router` track, KV handoffs
/// emit `link` spans and `CPU` evict/fetch instants, and each instance's
/// iterations emit spans on its `NPU<i>` track. The report is
/// byte-identical to the unprobed run — probes only observe.
///
/// # Panics
///
/// Panics if the fleet or trace configuration is internally
/// inconsistent (zero instances, zero batch slots).
pub fn simulate_probed(
    cfg: &FleetConfig,
    model: &ModelConfig,
    profile: &SecurityProfile,
    trace: &[SessionRequest],
    probe: &SharedProbe,
) -> FleetReport {
    let kv = KvSpec::of(model);
    let cost = IterCost::calibrate(model, profile, &cfg.serve.npu);
    let mut sched: Scheduler<Node> = Scheduler::new();
    sched.set_probe(probe.clone());
    let router_id = sched.add(Node::Router(Box::new(
        Router::new(
            cfg,
            kv.bytes_per_token,
            profile.kv_protocol,
            trace.len() as u32,
        )
        .with_probe(probe.clone()),
    )));
    for i in 0..cfg.n_instances {
        sched.add(Node::Instance(Box::new(
            Instance::new(i, router_id, cost, &cfg.serve).with_probe(probe.clone()),
        )));
    }
    for r in trace {
        sched.send_at(r.request.arrival, router_id, Msg::Arrive(*r));
    }
    let makespan = sched.run();
    if probe.enabled() {
        // End-of-run sample of the aggregate KV-handoff wire time; keeps
        // the `link` track present (at zero) even for migration-free runs.
        let wire: Time = match &sched.components()[0] {
            Node::Router(r) => r.accounting().handoff_transfer,
            Node::Instance(_) => unreachable!("component 0 is the router"),
        };
        probe.gauge("link", "handoff_wire_ps", makespan, wire.as_ps());
    }

    let mut report = FleetReport {
        total_requests: trace.len() as u32,
        completed_requests: 0,
        rejected_requests: 0,
        output_tokens: 0,
        makespan,
        iterations: 0,
        ttft_ns: Histogram::new(),
        latency_ns: Histogram::new(),
        tpot_ns: Histogram::new(),
        migrations: 0,
        migrated_bytes: 0,
        handoff_transfer_time: Time::ZERO,
        handoff_setup_time: Time::ZERO,
        handoff_exposed_time: Time::ZERO,
        router_stats: tee_sim::StatSet::new("router"),
        events_processed: sched.events_processed(),
    };
    for node in sched.components() {
        match node {
            Node::Router(r) => {
                let acc = r.accounting();
                report.completed_requests = acc.completed;
                report.rejected_requests = acc.rejected;
                report.migrations = acc.migrations;
                report.migrated_bytes = acc.migrated_bytes;
                report.handoff_transfer_time = acc.handoff_transfer;
                report.handoff_setup_time = acc.handoff_setup;
                report.handoff_exposed_time = acc.handoff_exposed;
                report.router_stats = acc.stats;
            }
            Node::Instance(inst) => {
                let m = inst.metrics();
                report.output_tokens += m.output_tokens;
                report.iterations += m.iterations;
                report.ttft_ns.merge(&m.ttft_ns);
                report.latency_ns.merge(&m.latency_ns);
                report.tpot_ns.merge(&m.tpot_ns);
            }
        }
    }
    report
}
