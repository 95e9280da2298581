//! One serving instance as a DES component: the shared `tee-serve`
//! [`Batcher`] (iteration-level admission, per-token bookkeeping) on the
//! fleet clock, priced by the calibrated [`IterCost`] surrogate.
//!
//! The instance runs open-ended inside the fleet scheduler: requests
//! arrive as [`Msg::Dispatch`] messages from the router, completions are
//! reported back as [`Msg::Done`]. A [`Msg::Stall`] extends the current
//! busy window — that is how a staged (non-overlappable) KV handoff
//! serializes against the destination's compute.

use crate::cost::IterCost;
use crate::sim::Msg;
use tee_serve::{BatchMetrics, Batcher, ServeConfig};
use tee_sim::des::{Component, Ctx};
use tee_sim::probe::SharedProbe;
use tee_sim::Time;

/// A serving instance component.
#[derive(Debug)]
pub struct Instance {
    /// Fleet index (component id is `index + 1`; the router is 0).
    index: usize,
    router: usize,
    cost: IterCost,
    batch: Batcher,
    /// `true` while an iteration is in flight; its end is `wake`.
    busy: bool,
    /// Next tick: iteration end when busy, pending-start wake otherwise.
    wake: Time,
    /// Earliest next iteration start (staged-handoff serialization
    /// received while idle).
    stall_until: Time,
    probe: SharedProbe,
}

impl Instance {
    /// Creates an idle instance batching under `serve`'s knobs. `router`
    /// is the router's component id.
    ///
    /// # Panics
    ///
    /// Panics if `serve.max_batch` is zero.
    pub fn new(index: usize, router: usize, cost: IterCost, serve: &ServeConfig) -> Self {
        Instance {
            index,
            router,
            cost,
            batch: Batcher::new(serve.max_batch, serve.prefill_token_budget),
            busy: false,
            wake: Time::MAX,
            stall_until: Time::ZERO,
            probe: SharedProbe::Null,
        }
    }

    /// Installs an observability probe: each launched iteration emits a
    /// span on this instance's `NPU<index>` track.
    pub fn with_probe(mut self, probe: SharedProbe) -> Self {
        self.probe = probe;
        self
    }

    /// Fleet index of this instance (component id is `index + 1`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Latency/throughput metrics, merged by the fleet report.
    pub fn metrics(&self) -> &BatchMetrics {
        self.batch.metrics()
    }

    /// Launches one fused iteration over every running turn, if any.
    fn start_iteration(&mut self, now: Time) {
        let Some(it) = self.batch.launch(|_| true) else {
            self.busy = false;
            self.wake = Time::MAX;
            return;
        };
        // Prefills pay their new prompt (quadratic attention inside the
        // surrogate); their carried session history joins the streamed
        // context, as do all decode contexts.
        let dt = self
            .cost
            .iteration(&it.prefills, it.decodes, it.context_sum());
        self.busy = true;
        self.wake = now + dt;
        if self.probe.enabled() {
            self.probe
                .span(&format!("NPU{}", self.index), it.kind(), now, self.wake);
            self.probe.count("fleet.iterations", 1);
        }
    }
}

impl Component for Instance {
    type Msg = Msg;

    fn next_tick(&self) -> Time {
        self.wake
    }

    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Msg>) {
        if self.busy {
            let (router, instance) = (self.router, self.index);
            self.batch.finish(now, |a| {
                let session = a.req.session;
                ctx.send(router, Msg::Done { instance, session });
            });
            self.busy = false;
        }
        if now < self.stall_until {
            self.wake = self.stall_until;
            return;
        }
        self.start_iteration(now);
    }

    fn receive(&mut self, now: Time, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Dispatch(req) => {
                self.batch.push(req);
                if !self.busy {
                    // Wake (this timestamp or after the stall) to admit.
                    self.wake = now.max(self.stall_until);
                }
            }
            Msg::Stall(d) => {
                // A non-overlappable handoff serializes against compute:
                // extend the in-flight iteration, or push the next start.
                if self.busy {
                    self.wake += d;
                } else {
                    self.stall_until = self.stall_until.max(now) + d;
                    if self.wake != Time::MAX {
                        self.wake = self.wake.max(self.stall_until);
                    }
                }
            }
            other => unreachable!("instance {} got a router message: {other:?}", self.index),
        }
    }
}
