//! Replay drivers: feed a [`Trace`] through the serving stack and
//! aggregate outcome and latency metrics.
//!
//! [`replay_trace`] is the deterministic layer — it owns a
//! [`Scheduler`] and advances a virtual step clock, so arrivals,
//! admissions, deadlines and preemptions replay identically on every run
//! and every machine. [`replay_engine`] is the wall-clock layer — it
//! submits through an [`EngineHandle`] with one consumer thread per token
//! stream, the shape a real front-end has, and reads backpressure and
//! engine counters from [`StatsSnapshot`].
//!
//! [`EngineHandle`]: edkm_core::EngineHandle

use crate::report::{percentile_f64, percentile_u64};
use crate::trace::Trace;
use edkm_cluster::{Cluster, ClusterConfig, ClusterStats, RouteError, RouterHandle};
use edkm_core::{
    EngineConfig, FinishReason, Request, Scheduler, ServeEngine, ServeModel, ServeRequest,
    StatsSnapshot, StepEvents, SubmitError, TokenEvent,
};
use std::collections::HashMap;
use std::time::Instant;

/// Terminal record of one replayed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The trace request id.
    pub id: u64,
    /// Full sequence: prompt followed by the generated continuation.
    pub tokens: Vec<usize>,
    /// Number of generated tokens.
    pub generated: usize,
    /// Why the request retired.
    pub finish: FinishReason,
    /// Steps between submission and the first emitted token (virtual-clock
    /// replay only; `None` if no token was emitted).
    pub ttft_steps: Option<u64>,
}

/// Aggregate counters of one replay, comparable across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounters {
    /// Requests fed into the scheduler or engine.
    pub submitted: u64,
    /// Requests that finished naturally (budget or stop token).
    pub finished: u64,
    /// Requests that hit their step deadline.
    pub expired: u64,
    /// Requests cancelled mid-flight.
    pub cancelled: u64,
    /// Preemption events (KV blocks reclaimed, sequence replayed later).
    pub preemptions: u64,
    /// Batched forward steps executed.
    pub decode_steps: u64,
    /// Tokens generated across all requests.
    pub tokens_generated: u64,
    /// High-water mark of live KV bytes.
    pub kv_peak_bytes: usize,
    /// Admissions that adopted at least one cached prefix block.
    pub prefix_hits: u64,
    /// Prompt tokens served from the prefix cache instead of prefill.
    pub prefix_tokens_reused: u64,
    /// Draft tokens proposed by the speculative decoder.
    pub spec_proposed: u64,
    /// Draft tokens accepted by target verification.
    pub spec_accepted: u64,
}

impl ReplayCounters {
    /// `expired / submitted` (0 when nothing was submitted).
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.expired as f64 / self.submitted as f64
        }
    }

    /// Preemptions per submitted request (0 when nothing was submitted).
    pub fn preemption_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.preemptions as f64 / self.submitted as f64
        }
    }

    /// Fraction of admissions that reused a cached prefix (0 when nothing
    /// was submitted).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.submitted as f64
        }
    }

    /// Accepted draft tokens per decode step (0 when no step ran).
    pub fn accepted_per_step(&self) -> f64 {
        if self.decode_steps == 0 {
            0.0
        } else {
            self.spec_accepted as f64 / self.decode_steps as f64
        }
    }
}

/// Result of the deterministic virtual-clock replay ([`replay_trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StepReplayReport {
    /// Per-request outcomes, sorted by trace id.
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate counters.
    pub counters: ReplayCounters,
    /// First-token latencies in scheduler steps, ascending (one entry per
    /// request that emitted at least one token).
    pub ttft_steps: Vec<u64>,
}

impl StepReplayReport {
    /// TTFT percentile in steps (`p` in `[0, 1]`).
    pub fn ttft_steps_p(&self, p: f64) -> u64 {
        percentile_u64(&self.ttft_steps, p)
    }
}

/// Replay `trace` against a [`Scheduler`] over `model` on a virtual step
/// clock: each loop tick submits every request whose arrival step has
/// come, then runs one scheduling step. The result — every token, finish
/// reason, TTFT-in-steps, deadline miss and preemption — is a pure
/// function of `(model, trace, max_batch)`.
///
/// # Panics
///
/// Panics on the same conditions as [`Scheduler::submit`] /
/// [`Scheduler::step`] (empty prompts, context overflow, a bounded KV
/// pool too small for a single request).
pub fn replay_trace<M: ServeModel>(model: &M, trace: &Trace, max_batch: usize) -> StepReplayReport {
    replay_with_scheduler(Scheduler::new(model, max_batch), trace)
}

/// [`replay_trace`] with exact-acceptance speculative decoding: `draft`
/// proposes `draft_k` tokens per scheduler step and the target verifies
/// them in one batched forward. Tokens are bit-identical to the plain
/// replay for greedy requests; [`ReplayCounters::spec_proposed`] /
/// [`ReplayCounters::spec_accepted`] record the speculation economics.
///
/// # Panics
///
/// Panics on the same conditions as [`replay_trace`], plus those of
/// [`Scheduler::with_speculative`] (vocab mismatch, `draft_k == 0`, a
/// draft with a shorter context than the target).
pub fn replay_trace_speculative<M: ServeModel>(
    model: &M,
    trace: &Trace,
    max_batch: usize,
    draft: std::sync::Arc<dyn ServeModel>,
    draft_k: usize,
) -> StepReplayReport {
    replay_with_scheduler(
        Scheduler::with_speculative(model, max_batch, draft, draft_k),
        trace,
    )
}

/// Shared virtual-clock loop behind [`replay_trace`] and
/// [`replay_trace_speculative`].
fn replay_with_scheduler<M: ServeModel>(
    mut sched: Scheduler<'_, M>,
    trace: &Trace,
) -> StepReplayReport {
    let mut events = StepEvents::default();
    let reqs = trace.requests();
    let mut next = 0usize;
    let mut now = 0u64;
    let mut submit_step: HashMap<u64, u64> = HashMap::new();
    let mut ttft_of: HashMap<u64, u64> = HashMap::new();
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(reqs.len());
    let mut counters = ReplayCounters::default();

    while next < reqs.len() || !sched.is_idle() {
        while next < reqs.len() && reqs[next].arrival_step <= now {
            let r = &reqs[next];
            sched.submit(ServeRequest {
                id: r.id,
                prompt: r.prompt.clone(),
                max_new: r.max_new,
                sampling: r.sampling,
                stop_tokens: Vec::new(),
                priority: r.priority,
                deadline_steps: r.deadline_steps,
            });
            submit_step.insert(r.id, sched.decode_steps());
            counters.submitted += 1;
            next += 1;
        }
        if !sched.is_idle() {
            sched.step_events_into(&mut events);
            counters.kv_peak_bytes = counters.kv_peak_bytes.max(sched.kv_live_bytes());
            for t in &events.tokens {
                if t.index == 0 {
                    if let Some(&s0) = submit_step.get(&t.id) {
                        ttft_of.insert(t.id, sched.decode_steps().saturating_sub(s0));
                    }
                }
            }
            for resp in events.finished.drain(..) {
                if resp.finish == FinishReason::DeadlineExceeded {
                    counters.expired += 1;
                } else {
                    counters.finished += 1;
                }
                outcomes.push(RequestOutcome {
                    id: resp.id,
                    generated: resp.generated,
                    finish: resp.finish,
                    ttft_steps: ttft_of.get(&resp.id).copied(),
                    tokens: resp.tokens,
                });
            }
        }
        now += 1;
    }

    counters.preemptions = sched.preemptions();
    counters.decode_steps = sched.decode_steps();
    counters.tokens_generated = sched.tokens_generated();
    counters.prefix_hits = sched.prefix_hits();
    counters.prefix_tokens_reused = sched.prefix_tokens_reused();
    counters.spec_proposed = sched.spec_proposed();
    counters.spec_accepted = sched.spec_accepted();
    outcomes.sort_by_key(|o| o.id);
    let mut ttft_steps: Vec<u64> = outcomes.iter().filter_map(|o| o.ttft_steps).collect();
    ttft_steps.sort_unstable();
    StepReplayReport {
        outcomes,
        counters,
        ttft_steps,
    }
}

/// Sizing of a wall-clock engine replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReplayConfig {
    /// Concurrent sequences the scheduler may keep in flight.
    pub max_batch: usize,
    /// Bounded admission capacity. When the trace outruns it, the driver
    /// counts one backpressure rejection per refused [`EngineHandle::try_submit`]
    /// and falls back to a blocking submit, so every request still runs.
    ///
    /// [`EngineHandle::try_submit`]: edkm_core::EngineHandle::try_submit
    pub queue_capacity: usize,
}

/// Result of a wall-clock engine replay ([`replay_engine`]).
#[derive(Debug, Clone)]
pub struct EngineReplayReport {
    /// Per-request outcomes, sorted by trace id (`ttft_steps` is `None`
    /// here; wall-clock TTFT lives in [`EngineReplayReport::ttft_ms`]).
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate counters, read back from the engine's [`StatsSnapshot`].
    pub counters: ReplayCounters,
    /// The engine's final stats snapshot.
    pub stats: StatsSnapshot,
    /// Wall-clock duration of the whole replay, seconds.
    pub wall_secs: f64,
    /// Naturally finished tokens per wall second (expired and cancelled
    /// work does not count — this is goodput, not throughput).
    pub goodput_tok_s: f64,
    /// `try_submit` refusals the driver absorbed at the bounded queue.
    pub backpressure_rejections: u64,
    /// Submission → first token, per request, milliseconds, ascending.
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of a request, milliseconds,
    /// ascending.
    pub per_token_ms: Vec<f64>,
}

impl EngineReplayReport {
    /// Wall-clock TTFT percentile in milliseconds (`p` in `[0, 1]`).
    pub fn ttft_ms_p(&self, p: f64) -> f64 {
        percentile_f64(&self.ttft_ms, p)
    }

    /// Per-token gap percentile in milliseconds (`p` in `[0, 1]`).
    pub fn per_token_ms_p(&self, p: f64) -> f64 {
        percentile_f64(&self.per_token_ms, p)
    }
}

/// Replay `trace` through a live [`ServeEngine`]: submissions in arrival
/// order (closed loop — as fast as admission allows), one consumer thread
/// per token stream timing first-token and inter-token gaps, engine
/// counters from the final [`StatsSnapshot`].
///
/// Token values are bit-identical to [`replay_trace`] for every request
/// that reaches a natural finish; only wall-clock-dependent outcomes
/// (deadline expiry order) may differ.
pub fn replay_engine<M: ServeModel + 'static>(
    model: M,
    trace: &Trace,
    config: EngineReplayConfig,
) -> EngineReplayReport {
    let engine = ServeEngine::new(
        model,
        EngineConfig {
            max_batch: config.max_batch,
            queue_capacity: config.queue_capacity,
        },
    );
    let handle = engine.handle();
    let t0 = Instant::now();
    let mut rejections = 0u64;
    let mut consumers = Vec::with_capacity(trace.requests().len());
    for r in trace.requests() {
        let mut request = Request::new(r.prompt.clone())
            .max_new_tokens(r.max_new)
            .sampling(r.sampling)
            .priority(r.priority);
        if let Some(d) = r.deadline_steps {
            request = request.deadline_steps(d);
        }
        let (_, mut stream) = match handle.try_submit(request.clone()) {
            Ok(ok) => ok,
            Err(SubmitError::Full) => {
                rejections += 1;
                handle
                    .submit(request)
                    .expect("engine accepts after backoff")
            }
            Err(e) => panic!("engine refused trace request: {e}"),
        };
        let trace_id = r.id;
        let submitted = Instant::now();
        consumers.push(std::thread::spawn(move || {
            let mut ttft = None;
            let mut gaps = Vec::new();
            let mut last = submitted;
            let mut resp = None;
            while let Some(ev) = stream.next_event() {
                match ev {
                    TokenEvent::Token { index, .. } => {
                        let nowi = Instant::now();
                        if index == 0 {
                            ttft = Some(nowi.duration_since(submitted).as_secs_f64() * 1e3);
                        } else {
                            gaps.push(nowi.duration_since(last).as_secs_f64() * 1e3);
                        }
                        last = nowi;
                    }
                    TokenEvent::Finished(r) => resp = Some(r),
                }
            }
            (trace_id, resp.expect("terminal event"), ttft, gaps)
        }));
    }

    let mut outcomes = Vec::with_capacity(consumers.len());
    let mut ttft_ms = Vec::new();
    let mut per_token_ms = Vec::new();
    for c in consumers {
        let (trace_id, resp, ttft, gaps) = c.join().expect("stream consumer");
        outcomes.push(RequestOutcome {
            id: trace_id,
            generated: resp.generated,
            finish: resp.finish,
            ttft_steps: None,
            tokens: resp.tokens,
        });
        ttft_ms.extend(ttft);
        per_token_ms.extend(gaps);
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let stats = handle.stats();
    engine.shutdown();

    outcomes.sort_by_key(|o| o.id);
    ttft_ms.sort_by(|a, b| a.total_cmp(b));
    per_token_ms.sort_by(|a, b| a.total_cmp(b));
    let good_tokens: u64 = outcomes
        .iter()
        .filter(|o| !o.finish.is_aborted())
        .map(|o| o.generated as u64)
        .sum();
    let counters = ReplayCounters {
        submitted: stats.submitted,
        finished: stats.finished,
        expired: stats.expired,
        cancelled: stats.cancelled,
        preemptions: stats.preemptions,
        decode_steps: stats.decode_steps,
        tokens_generated: stats.tokens_generated,
        kv_peak_bytes: stats.kv_peak_bytes,
        prefix_hits: stats.prefix_hits,
        prefix_tokens_reused: stats.prefix_tokens_reused,
        spec_proposed: stats.spec_proposed,
        spec_accepted: stats.spec_accepted,
    };
    EngineReplayReport {
        outcomes,
        counters,
        stats,
        wall_secs,
        goodput_tok_s: good_tokens as f64 / wall_secs.max(1e-9),
        backpressure_rejections: rejections,
        ttft_ms,
        per_token_ms,
    }
}

/// Sizing of a wall-clock cluster replay: per-replica engine sizing plus
/// the router's affinity switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterReplayConfig {
    /// Per-replica engine sizing.
    pub engine: EngineReplayConfig,
    /// Route follow-up prompts to the replica holding their prefix.
    pub affinity: bool,
}

/// Result of a wall-clock cluster replay ([`replay_cluster`]).
#[derive(Debug, Clone)]
pub struct ClusterReplayReport {
    /// Per-request outcomes, sorted by trace id.
    pub outcomes: Vec<RequestOutcome>,
    /// Fleet snapshot at drain: per-replica engine stats plus router
    /// counters (affinity hits, spills, hedges, re-routes).
    pub cluster: ClusterStats,
    /// Wall-clock duration of the whole replay, seconds.
    pub wall_secs: f64,
    /// Naturally finished tokens per wall second across the fleet.
    pub goodput_tok_s: f64,
    /// `try_submit` refusals the driver absorbed (router saturation).
    pub backpressure_rejections: u64,
    /// Submission → first token, per request, milliseconds, ascending.
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of a request, milliseconds,
    /// ascending.
    pub per_token_ms: Vec<f64>,
}

impl ClusterReplayReport {
    /// Wall-clock TTFT percentile in milliseconds (`p` in `[0, 1]`).
    pub fn ttft_ms_p(&self, p: f64) -> f64 {
        percentile_f64(&self.ttft_ms, p)
    }

    /// Per-token gap percentile in milliseconds (`p` in `[0, 1]`).
    pub fn per_token_ms_p(&self, p: f64) -> f64 {
        percentile_f64(&self.per_token_ms, p)
    }
}

/// Replay `trace` through a fresh [`Cluster`] of one engine per model —
/// the multi-replica counterpart of [`replay_engine`]. Submissions go in
/// arrival order through a [`RouterHandle`]; one consumer thread drains
/// each stream. Deterministic per-request-seeded sampling makes per-request
/// token values bit-identical to [`replay_engine`] over the same trace,
/// whatever the replica count or placement.
pub fn replay_cluster<M: ServeModel + 'static>(
    models: Vec<M>,
    trace: &Trace,
    config: ClusterReplayConfig,
) -> ClusterReplayReport {
    let cluster = Cluster::new(
        models,
        ClusterConfig {
            engine: EngineConfig {
                max_batch: config.engine.max_batch,
                queue_capacity: config.engine.queue_capacity,
            },
            affinity: config.affinity,
            ..ClusterConfig::default()
        },
    );
    let report = replay_router(&cluster.handle(), trace);
    cluster.shutdown();
    report
}

/// For each request, the position of the latest earlier request whose
/// prompt is a proper prefix of its own — the prior turn of the same chat
/// session (chat traces replay the full conversation in every prompt).
/// Requests without such a predecessor are independent.
pub(crate) fn turn_dependencies(trace: &Trace) -> Vec<Option<usize>> {
    let requests = trace.requests();
    let mut deps = vec![None; requests.len()];
    for j in 0..requests.len() {
        let pj = &requests[j].prompt;
        deps[j] = (0..j).rev().find(|&i| {
            let pi = &requests[i].prompt;
            pi.len() < pj.len() && pj[..pi.len()] == pi[..]
        });
    }
    deps
}

/// Replay `trace` through an existing [`RouterHandle`] — the driver behind
/// [`replay_cluster`], exposed so a caller can keep ownership of the
/// [`Cluster`] and exercise lifecycle transitions (drain/kill/respawn)
/// mid-replay.
///
/// Submission honors chat causality: a turn whose prompt extends an
/// earlier request's prompt is not sent until that request has finished,
/// exactly as a real client cannot type a follow-up before the reply
/// arrives. Independent requests still flood in arrival order. Ordering
/// never changes token values (sampling is per-request-seeded), but it is
/// what lets prefix-affinity routing convert session stickiness into KV
/// reuse on the sticky replica.
pub fn replay_router(router: &RouterHandle, trace: &Trace) -> ClusterReplayReport {
    let t0 = Instant::now();
    let mut rejections = 0u64;
    let mut consumers = Vec::with_capacity(trace.requests().len());
    let deps = turn_dependencies(trace);
    let finished = std::sync::Arc::new((
        std::sync::Mutex::new(vec![false; trace.requests().len()]),
        std::sync::Condvar::new(),
    ));
    for (pos, r) in trace.requests().iter().enumerate() {
        if let Some(dep) = deps[pos] {
            let (flags, cv) = &*finished;
            let mut done = flags.lock().expect("turn flags");
            while !done[dep] {
                done = cv.wait(done).expect("turn flags");
            }
        }
        let mut request = Request::new(r.prompt.clone())
            .max_new_tokens(r.max_new)
            .sampling(r.sampling)
            .priority(r.priority);
        if let Some(d) = r.deadline_steps {
            request = request.deadline_steps(d);
        }
        let (_, mut stream) = match router.try_submit(request.clone()) {
            Ok(ok) => ok,
            Err(RouteError::Saturated) => {
                rejections += 1;
                router
                    .submit(request)
                    .expect("router accepts after backoff")
            }
            Err(e) => panic!("router refused trace request: {e}"),
        };
        let trace_id = r.id;
        let submitted = Instant::now();
        let finished = std::sync::Arc::clone(&finished);
        consumers.push(std::thread::spawn(move || {
            let mut ttft = None;
            let mut gaps = Vec::new();
            let mut last = submitted;
            let mut resp = None;
            while let Some(ev) = stream.next_event() {
                match ev {
                    TokenEvent::Token { index, .. } => {
                        let nowi = Instant::now();
                        if index == 0 {
                            ttft = Some(nowi.duration_since(submitted).as_secs_f64() * 1e3);
                        } else {
                            gaps.push(nowi.duration_since(last).as_secs_f64() * 1e3);
                        }
                        last = nowi;
                    }
                    TokenEvent::Finished(r) => resp = Some(r),
                }
            }
            let (flags, cv) = &*finished;
            flags.lock().expect("turn flags")[pos] = true;
            cv.notify_all();
            (trace_id, resp.expect("terminal event"), ttft, gaps)
        }));
    }

    let mut outcomes = Vec::with_capacity(consumers.len());
    let mut ttft_ms = Vec::new();
    let mut per_token_ms = Vec::new();
    for c in consumers {
        let (trace_id, resp, ttft, gaps) = c.join().expect("stream consumer");
        outcomes.push(RequestOutcome {
            id: trace_id,
            generated: resp.generated,
            finish: resp.finish,
            ttft_steps: None,
            tokens: resp.tokens,
        });
        ttft_ms.extend(ttft);
        per_token_ms.extend(gaps);
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let cluster = router.stats();

    outcomes.sort_by_key(|o| o.id);
    ttft_ms.sort_by(|a, b| a.total_cmp(b));
    per_token_ms.sort_by(|a, b| a.total_cmp(b));
    let good_tokens: u64 = outcomes
        .iter()
        .filter(|o| !o.finish.is_aborted())
        .map(|o| o.generated as u64)
        .sum();
    ClusterReplayReport {
        outcomes,
        cluster,
        wall_secs,
        goodput_tok_s: good_tokens as f64 / wall_secs.max(1e-9),
        backpressure_rejections: rejections,
        ttft_ms,
        per_token_ms,
    }
}
