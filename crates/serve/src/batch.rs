//! The continuous-batching core shared by every serving driver:
//! Orca-style iteration-level scheduling with no clock or cost model.
//!
//! 1. arrivals join a FIFO admission queue ([`Batcher::push`]),
//! 2. each iteration admits waiting turns up to `max_batch` slots and
//!    `prefill_token_budget` new prompt tokens (a prompt longer than the
//!    whole budget is admitted alone rather than starved), then offers
//!    every running turn, in admission order, to the driver's `schedule`
//!    callback ([`Batcher::launch`]) — `tee_serve` reserves KV residency
//!    there, the fleet accepts everything,
//! 3. when the driver's clock ends the iteration, every scheduled turn
//!    produces one token and TTFT / latency / TPOT land in
//!    [`BatchMetrics`] ([`Batcher::finish`]).

use crate::trace::{Request, SessionRequest};
use std::collections::VecDeque;
use tee_sim::{Histogram, Time};

impl From<Request> for SessionRequest {
    /// A single-turn session: the session id is the request id and no
    /// context is carried in.
    fn from(request: Request) -> Self {
        SessionRequest {
            request,
            tenant: 0,
            session: u64::from(request.id),
            turn: 0,
            context_tokens: 0,
        }
    }
}

/// One admitted turn working through its prefill and decode iterations.
#[derive(Debug, Clone, Copy)]
pub struct Active {
    /// The admitted turn.
    pub req: SessionRequest,
    /// Tokens produced so far, counting the one the in-flight iteration
    /// produces (0 = prefill not yet scheduled).
    pub generated: u64,
    /// When the first token came out (end of the prefill iteration).
    first_token_at: Option<Time>,
}

impl Active {
    /// `true` while the turn still waits for its prefill.
    #[inline]
    pub fn is_prefill(&self) -> bool {
        self.generated == 0
    }

    /// Cached context this turn's attention streams: carried session
    /// history plus its own prompt plus everything generated.
    #[inline]
    pub fn context(&self) -> u64 {
        self.req.context_tokens + self.req.request.prompt_tokens + self.generated
    }
}

/// The work of one launched iteration.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Prompt length of every scheduled prefill, in admission order.
    pub prefills: Vec<u64>,
    /// Scheduled decodes.
    pub decodes: u64,
    /// Cached context the scheduled decodes stream, in tokens.
    pub decode_context: u64,
    /// Session history the scheduled prefills carry in, in tokens.
    pub carried: u64,
}

impl Iteration {
    /// The span name of this iteration: `prefill`, `decode` or `mixed`.
    pub fn kind(&self) -> &'static str {
        match (self.prefills.is_empty(), self.decodes == 0) {
            (false, true) => "prefill",
            (true, false) => "decode",
            _ => "mixed",
        }
    }

    /// Total cached context the iteration streams for attention: every
    /// decode context plus the prefills' carried history.
    pub fn context_sum(&self) -> u64 {
        self.decode_context + self.carried
    }
}

/// Latency/throughput metrics one batcher accumulates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchMetrics {
    /// Time-to-first-token per prefilled turn, ns.
    pub ttft_ns: Histogram,
    /// End-to-end latency per completed turn, ns.
    pub latency_ns: Histogram,
    /// Time-per-output-token per completed turn producing more than one
    /// token, ns.
    pub tpot_ns: Histogram,
    /// Turns completed.
    pub completed: u32,
    /// Output tokens of the completed turns.
    pub output_tokens: u64,
    /// Iterations launched.
    pub iterations: u64,
    /// When the last turn completed ([`Time::ZERO`] before any).
    pub last_completion: Time,
}

/// The continuous-batching state machine: waiting queue, running set,
/// and the reused buffer of the in-flight iteration.
#[derive(Debug)]
pub struct Batcher {
    max_batch: usize,
    prefill_token_budget: u64,
    waiting: VecDeque<SessionRequest>,
    running: Vec<Active>,
    iteration: Iteration,
    metrics: BatchMetrics,
}

// The per-iteration methods (and `Active`'s) carry `#[inline]`: the fleet
// calls them from another crate for every turn of every iteration, and
// without the hint its DES loop runs measurably slower than its former
// private copy.
impl Batcher {
    /// An empty batcher with `max_batch` slots and a per-iteration budget
    /// of new prompt tokens.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, prefill_token_budget: u64) -> Self {
        assert!(max_batch > 0, "need at least one batch slot");
        Batcher {
            max_batch,
            prefill_token_budget,
            waiting: VecDeque::new(),
            running: Vec::new(),
            iteration: Iteration::default(),
            metrics: BatchMetrics::default(),
        }
    }

    /// Queues an arrival behind everything already waiting.
    #[inline]
    pub fn push(&mut self, req: SessionRequest) {
        self.waiting.push_back(req);
    }

    /// Admits waiting turns, then offers each running turn to `schedule`
    /// in admission order and collects the accepted ones into the next
    /// iteration. Returns `None` when no turn was scheduled.
    #[inline]
    pub fn launch(&mut self, mut schedule: impl FnMut(&Active) -> bool) -> Option<&Iteration> {
        // Already-admitted turns still awaiting prefill (e.g. ones the KV
        // reservation skipped last iteration) count against the budget
        // too — the bound is on prompt tokens an iteration may prefill,
        // not on admission events.
        let mut new_prompt_tokens: u64 = self
            .running
            .iter()
            .filter(|a| a.is_prefill())
            .map(|a| a.req.request.prompt_tokens)
            .sum();
        while self.running.len() < self.max_batch {
            let Some(req) = self.waiting.front() else {
                break;
            };
            let p = req.request.prompt_tokens;
            if new_prompt_tokens > 0 && new_prompt_tokens + p > self.prefill_token_budget {
                break;
            }
            new_prompt_tokens += p;
            let req = self.waiting.pop_front().expect("front checked above");
            self.running.push(Active {
                req,
                generated: 0,
                first_token_at: None,
            });
        }
        let it = &mut self.iteration;
        it.prefills.clear();
        it.decodes = 0;
        it.decode_context = 0;
        it.carried = 0;
        for a in &mut self.running {
            if !schedule(a) {
                continue;
            }
            if a.is_prefill() {
                it.prefills.push(a.req.request.prompt_tokens);
                it.carried += a.req.context_tokens;
            } else {
                it.decodes += 1;
                it.decode_context += a.context();
            }
            a.generated += 1;
        }
        if it.prefills.is_empty() && it.decodes == 0 {
            return None;
        }
        self.metrics.iterations += 1;
        Some(&self.iteration)
    }

    /// Ends the in-flight iteration at `now` (call once per successful
    /// [`Self::launch`]): each turn that has produced all its output is
    /// recorded, removed, and handed to `done`.
    #[inline]
    pub fn finish(&mut self, now: Time, mut done: impl FnMut(&Active)) {
        let m = &mut self.metrics;
        let since = |t: Time| (now - t).as_ns_f64().round() as u64;
        self.running.retain_mut(|a| {
            if a.generated > 0 && a.first_token_at.is_none() {
                // The in-flight iteration was this turn's prefill.
                a.first_token_at = Some(now);
                m.ttft_ns.record(since(a.req.request.arrival));
            }
            let target = a.req.request.output_tokens;
            if a.generated < target {
                return true;
            }
            m.completed += 1;
            m.output_tokens += target;
            m.last_completion = m.last_completion.max(now);
            m.latency_ns.record(since(a.req.request.arrival));
            if target > 1 {
                let first = a.first_token_at.expect("completed turn prefilled");
                let per_token = (now - first).as_ns_f64() / (target - 1) as f64;
                m.tpot_ns.record(per_token.round() as u64);
            }
            done(a);
            false
        });
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &BatchMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u32, arrival_ns: u64, prompt: u64, output: u64) -> SessionRequest {
        SessionRequest::from(Request {
            id,
            arrival: Time::from_ns(arrival_ns),
            prompt_tokens: prompt,
            output_tokens: output,
        })
    }

    /// Ids of the running turns, in admission order.
    fn running(b: &Batcher) -> Vec<u32> {
        b.running.iter().map(|a| a.req.request.id).collect()
    }

    /// Launches with every turn accepted and returns the iteration.
    fn launch_all(b: &mut Batcher) -> Iteration {
        b.launch(|_| true).expect("work to run").clone()
    }

    #[test]
    fn single_request_converts_to_a_fresh_session() {
        let s = req(7, 0, 10, 3);
        assert_eq!(s.session, 7);
        assert_eq!(s.context_tokens, 0);
        assert_eq!(s.turn, 0);
    }

    #[test]
    fn admission_stops_at_max_batch() {
        let mut b = Batcher::new(2, u64::MAX);
        for id in 0..5 {
            b.push(req(id, 0, 8, 4));
        }
        assert_eq!(launch_all(&mut b).prefills, vec![8, 8]);
        assert_eq!(running(&b), [0, 1]);
        assert_eq!(b.waiting.len(), 3);
    }

    #[test]
    fn prefill_budget_counts_admitted_but_unprefilled_prompts() {
        let mut b = Batcher::new(8, 100);
        b.push(req(0, 0, 60, 4));
        b.push(req(1, 0, 60, 4));
        // 60 + 60 > 100: the second prompt waits.
        b.launch(|_| false);
        assert_eq!(running(&b), [0]);
        // Turn 0 was never scheduled, so its 60 prompt tokens still hold
        // the budget and turn 1 still does not fit.
        b.finish(Time::from_ns(1), |_| {});
        b.launch(|_| true);
        assert_eq!(running(&b), [0]);
        // Once turn 0 has prefilled, its prompt no longer counts.
        b.finish(Time::from_ns(2), |_| {});
        b.launch(|_| true);
        assert_eq!(running(&b), [0, 1]);
    }

    #[test]
    fn over_budget_prompt_is_admitted_alone() {
        let mut b = Batcher::new(8, 100);
        b.push(req(0, 0, 500, 4));
        b.push(req(1, 0, 1, 4));
        assert_eq!(launch_all(&mut b).prefills, vec![500]);
        assert_eq!(running(&b), [0]);
    }

    #[test]
    fn admission_is_fifo() {
        let mut b = Batcher::new(8, 100);
        // A big head blocks a small follower that would fit on its own.
        b.push(req(0, 0, 40, 4));
        b.push(req(1, 0, 70, 4));
        b.push(req(2, 0, 10, 4));
        launch_all(&mut b);
        assert_eq!(running(&b), [0]);
        b.finish(Time::from_ns(1), |_| {});
        launch_all(&mut b);
        assert_eq!(running(&b), [0, 1, 2]);
    }

    #[test]
    fn rejected_turn_makes_no_progress_and_keeps_its_place() {
        let mut b = Batcher::new(8, u64::MAX);
        for id in 0..3 {
            b.push(req(id, 0, 5, 3));
        }
        let it = b.launch(|a| a.req.request.id != 1).unwrap().clone();
        assert_eq!(it.prefills, vec![5, 5]);
        b.finish(Time::from_ns(10), |_| {});
        assert_eq!(b.metrics().ttft_ns.count(), 2);
        assert_eq!(running(&b), [0, 1, 2]);
        // Turn 1 is still a prefill, between two decodes.
        let mut seen = Vec::new();
        let it = b
            .launch(|a| {
                seen.push((a.req.request.id, a.is_prefill()));
                true
            })
            .unwrap()
            .clone();
        assert_eq!(seen, [(0, false), (1, true), (2, false)]);
        assert_eq!(it.prefills, vec![5]);
        assert_eq!((it.decodes, it.decode_context), (2, 12));
        assert_eq!(it.kind(), "mixed");
    }

    #[test]
    fn ttft_once_per_turn_and_tpot_only_past_one_token() {
        let mut b = Batcher::new(8, u64::MAX);
        b.push(req(0, 0, 4, 1));
        b.push(req(1, 0, 4, 3));
        let mut done = Vec::new();
        for t in 1..=3 {
            launch_all(&mut b);
            b.finish(Time::from_ns(100 * t), |a| done.push(a.req.request.id));
        }
        assert!(b.launch(|_| true).is_none());
        assert_eq!(done, [0, 1]);
        let m = b.metrics();
        assert_eq!(m.ttft_ns.count(), 2);
        assert_eq!(m.ttft_ns.max(), Some(100));
        assert_eq!(m.latency_ns.count(), 2);
        // Only the 3-token turn has a TPOT: (300 - 100) / 2.
        assert_eq!(m.tpot_ns.count(), 1);
        assert_eq!(m.tpot_ns.min(), Some(100));
        assert_eq!((m.completed, m.output_tokens, m.iterations), (2, 4, 3));
        assert_eq!(m.last_completion, Time::from_ns(300));
    }

    #[test]
    fn carried_history_joins_the_streamed_context() {
        let mut b = Batcher::new(8, u64::MAX);
        b.push(SessionRequest {
            context_tokens: 30,
            ..req(0, 0, 10, 4)
        });
        let it = launch_all(&mut b);
        assert_eq!((it.kind(), it.context_sum()), ("prefill", 30));
        b.finish(Time::from_ns(1), |_| {});
        let it = launch_all(&mut b);
        assert_eq!((it.kind(), it.context_sum()), ("decode", 41));
    }

    #[test]
    #[should_panic(expected = "need at least one batch slot")]
    fn zero_batch_rejected() {
        Batcher::new(0, 1);
    }
}
