//! Chaos replay: drive a trace and a [`FaultPlan`] through a live
//! [`Cluster`] together, with the [`Supervisor`] closing the loop, and
//! audit the global robustness invariants afterwards.
//!
//! The harness owns the fleet on the calling thread and runs the trace
//! on a worker thread through a loss-tolerant variant of
//! [`replay_router`](crate::replay_router) (degrade-ladder sheds are
//! recorded, not fatal). Meanwhile the calling thread runs the
//! supervision loop: it advances the **virtual step clock** (the
//! monotonic fleet-wide decode-step count, respawn-proof via per-slot
//! high-water bases), applies every [`FaultEvent`] whose step has come
//! due through the [`FaultHook`] seam, schedules KV-squeeze restores,
//! ticks the [`Supervisor`] on each heartbeat, and applies its actions
//! (gates, drains, respawns — honouring deferred respawn bit-flips via
//! the caller's model factory — and degrade-ladder moves).
//!
//! The resulting [`ChaosReplayReport`] carries exactly the invariants
//! the acceptance gate checks: `requests_lost == 0`, zero duplicate or
//! skipped token indices, survivors bit-identical to an undisturbed
//! reference run of the same trace, and every pool's block ledger back
//! at its prefix-cache baseline at drain.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::replay::{turn_dependencies, EngineReplayConfig, RequestOutcome};
use crate::report::percentile_u64;
use crate::trace::Trace;
use edkm_chaos::{FaultApplied, FaultEvent, FaultHook, FaultKind, FaultPlan};
use edkm_cluster::{
    Cluster, ClusterConfig, ClusterStats, DegradeEvent, RouteError, RouterHandle, Supervisor,
    SupervisorAction, SupervisorConfig,
};
use edkm_core::{EngineConfig, Request, TokenEvent};
use edkm_core::{FinishReason, ServeModel};

/// Sizing and policy of a chaos replay.
#[derive(Debug, Clone)]
pub struct ChaosReplayConfig {
    /// Per-replica engine sizing.
    pub engine: EngineReplayConfig,
    /// Route follow-up prompts to the replica holding their prefix.
    pub affinity: bool,
    /// Supervisor tuning (breaker thresholds, backoffs, ladder
    /// hysteresis). The supervisor seed is what makes recovery decisions
    /// replayable.
    pub supervisor: SupervisorConfig,
}

impl Default for ChaosReplayConfig {
    fn default() -> Self {
        ChaosReplayConfig {
            engine: EngineReplayConfig {
                max_batch: 4,
                queue_capacity: 64,
            },
            affinity: true,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// One fault as it was actually applied during a chaos replay.
#[derive(Debug, Clone)]
pub struct AppliedFault {
    /// Virtual step at which the harness applied it (>= the scheduled
    /// step — faults fire on the first heartbeat at or after their step).
    pub at_step: u64,
    /// The scheduled event.
    pub event: FaultEvent,
    /// What the hook did with it.
    pub applied: FaultApplied,
}

/// Result of [`replay_cluster_chaos`]: the replay metrics plus the
/// robustness audit.
#[derive(Debug, Clone)]
pub struct ChaosReplayReport {
    /// Fingerprint of the injected [`FaultPlan`] — pin this to assert two
    /// runs faced the same schedule.
    pub plan_fingerprint: u64,
    /// Fingerprint of the replayed trace.
    pub trace_fingerprint: u64,
    /// Per-request outcomes of requests that ran, sorted by trace id.
    pub outcomes: Vec<RequestOutcome>,
    /// Trace ids refused by the degrade ladder (intentional, not lost).
    pub shed: Vec<u64>,
    /// Trace ids that neither produced a terminal event nor were shed —
    /// must be empty for the robustness gate.
    pub lost: Vec<u64>,
    /// Token events whose index was not the next expected one (duplicate
    /// or skip) — must be zero.
    pub index_violations: u64,
    /// Requests that finished naturally under chaos.
    pub survivors: usize,
    /// `true` iff every survivor's token stream is bit-identical to the
    /// undisturbed reference run of the same trace.
    pub survivors_bit_identical: bool,
    /// `true` iff, at drain, every replica pool's `blocks_in_use` equals
    /// its prefix-cache-retained block count (no leaked blocks) and its
    /// capacity cap is back at its pre-squeeze baseline.
    pub pools_at_baseline: bool,
    /// Corrupted model loads rejected during respawn (bit-flip faults
    /// that the reload verification caught before retrying clean).
    pub corrupted_reloads: u64,
    /// Virtual steps from each replica kill to its completed respawn,
    /// ascending.
    pub recovery_steps: Vec<u64>,
    /// Kills whose respawn had not completed when the replay drained.
    pub unrecovered_kills: u64,
    /// Degrade-ladder transitions observed by the router.
    pub degrade_events: Vec<DegradeEvent>,
    /// Every fault as applied, in firing order.
    pub faults: Vec<AppliedFault>,
    /// Naturally finished tokens per wall second under chaos.
    pub goodput_tok_s: f64,
    /// Wall-clock duration of the chaos run, seconds.
    pub wall_secs: f64,
    /// Fleet snapshot at drain.
    pub cluster: ClusterStats,
}

impl ChaosReplayReport {
    /// p99 of kill-to-respawn recovery time, in virtual steps (0 when the
    /// plan killed nothing).
    pub fn recovery_p99_steps(&self) -> u64 {
        percentile_u64(&self.recovery_steps, 0.99)
    }

    /// Number of requests the audit counts as lost.
    pub fn requests_lost(&self) -> u64 {
        self.lost.len() as u64
    }
}

struct LossyOutcome {
    outcomes: Vec<RequestOutcome>,
    shed: Vec<u64>,
    lost: Vec<u64>,
    index_violations: u64,
    wall_secs: f64,
}

/// Loss-tolerant router replay: like
/// [`replay_router`](crate::replay_router) (chat causality, arrival
/// order, one consumer per stream) but degrade-ladder sheds and
/// unrecoverable submissions are *recorded* instead of panicking, and
/// token-index ordering violations are counted instead of asserted.
fn replay_router_lossy(router: &RouterHandle, trace: &Trace) -> LossyOutcome {
    let t0 = Instant::now();
    let requests = trace.requests();
    let deps = turn_dependencies(trace);
    let finished = std::sync::Arc::new((
        std::sync::Mutex::new(vec![false; requests.len()]),
        std::sync::Condvar::new(),
    ));
    let mut shed = Vec::new();
    let mut lost = Vec::new();
    let mut consumers = Vec::new();
    for (pos, r) in requests.iter().enumerate() {
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
        // Saturation and momentary total outage (every slot dead or
        // draining mid-recovery) are retried; a degrade-ladder shed is a
        // terminal, intentional refusal.
        let submit_deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match router.try_submit(request.clone()) {
                Ok((_, stream)) => break Some(stream),
                Err(RouteError::Shed { .. }) => {
                    shed.push(r.id);
                    break None;
                }
                Err(RouteError::Saturated) | Err(RouteError::NoReplicas) => {
                    if Instant::now() >= submit_deadline {
                        lost.push(r.id);
                        break None;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    lost.push(r.id);
                    break None;
                }
            }
        };
        let Some(mut stream) = stream else {
            let (flags, cv) = &*finished;
            flags.lock().expect("turn flags")[pos] = true;
            cv.notify_all();
            continue;
        };
        let trace_id = r.id;
        let finished = std::sync::Arc::clone(&finished);
        consumers.push(std::thread::spawn(move || {
            let mut next = 0usize;
            let mut violations = 0u64;
            let mut resp = None;
            while let Some(ev) = stream.next_event() {
                match ev {
                    TokenEvent::Token { index, .. } => {
                        if index != next {
                            violations += 1;
                        }
                        next = index + 1;
                    }
                    TokenEvent::Finished(r) => resp = Some(r),
                }
            }
            let (flags, cv) = &*finished;
            flags.lock().expect("turn flags")[pos] = true;
            cv.notify_all();
            (trace_id, resp, violations)
        }));
    }

    let mut outcomes = Vec::new();
    let mut index_violations = 0u64;
    for c in consumers {
        let (trace_id, resp, violations) = c.join().expect("stream consumer");
        index_violations += violations;
        match resp {
            Some(resp) => outcomes.push(RequestOutcome {
                id: trace_id,
                generated: resp.generated,
                finish: resp.finish,
                ttft_steps: None,
                tokens: resp.tokens,
            }),
            None => lost.push(trace_id),
        }
    }
    outcomes.sort_by_key(|o| o.id);
    shed.sort_unstable();
    lost.sort_unstable();
    LossyOutcome {
        outcomes,
        shed,
        lost,
        index_violations,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Replay `trace` under `plan` through a supervised fleet and audit the
/// robustness invariants. See the module docs for the architecture.
///
/// `build(corrupt)` constructs one replica model; `corrupt = true` asks
/// for a bit-flipped load and **must** fail (the harness uses it to model
/// a container image corrupted on respawn — the reload verification
/// rejects it and the respawn retries clean). It is called once per
/// replica up front (clean), once per respawn, and once extra per
/// deferred bit-flip.
///
/// The harness first runs the same trace undisturbed on an identically
/// sized fleet to obtain the reference token streams survivors are
/// audited against.
pub fn replay_cluster_chaos<M, F>(
    mut build: F,
    replicas: usize,
    trace: &Trace,
    plan: &FaultPlan,
    config: ChaosReplayConfig,
) -> ChaosReplayReport
where
    M: ServeModel + 'static,
    F: FnMut(bool) -> Result<M, String>,
{
    let cluster_cfg = ClusterConfig {
        engine: EngineConfig {
            max_batch: config.engine.max_batch,
            queue_capacity: config.engine.queue_capacity,
        },
        affinity: config.affinity,
        ..ClusterConfig::default()
    };

    // Reference run: the same trace, the same fleet shape, no faults.
    let reference: HashMap<u64, Vec<usize>> = {
        let models: Vec<M> = (0..replicas)
            .map(|_| build(false).expect("clean reference build"))
            .collect();
        let cluster = Cluster::new(models, cluster_cfg.clone());
        let out = replay_router_lossy(&cluster.handle(), trace);
        cluster.shutdown();
        out.outcomes.into_iter().map(|o| (o.id, o.tokens)).collect()
    };

    // Chaos run.
    let models: Vec<M> = (0..replicas)
        .map(|_| build(false).expect("clean build"))
        .collect();
    // The scheduler's liveness precondition: a pool must always hold one
    // full-length request (it panics on a pool it can never drain). The
    // harness clamps every squeeze to that floor — the squeeze then
    // degrades service (contention, preemption, admission stalls) instead
    // of wedging a replica beyond recovery.
    let max_seq = models[0].config().max_seq;
    let mut cluster = Cluster::new(models, cluster_cfg);
    let baseline_caps: Vec<usize> = (0..replicas)
        .map(|r| cluster.pool(r).max_blocks())
        .collect();
    let mut supervisor = Supervisor::new(replicas, config.supervisor.clone());

    let router = cluster.handle();
    let trace_owned = trace.clone();
    let replay = std::thread::spawn(move || replay_router_lossy(&router, &trace_owned));

    let router = cluster.handle();
    let events = plan.events();
    let mut next_event = 0usize;
    // Virtual step clock, respawn-proof: per-slot high-water base plus
    // the slot's current (resetting) decode_steps counter.
    let mut bases = vec![0u64; replicas];
    let mut lasts = vec![0u64; replicas];
    // (due_step, wall_deadline, replica, cap) — pending KV-squeeze
    // restorations. The wall deadline is a liveness fallback: if every
    // decode on the fleet is blocked on squeezed pools, the virtual clock
    // freezes and a step-only restore would never come due.
    let mut restores: Vec<(u64, Instant, usize, usize)> = Vec::new();
    let mut bitflip = vec![false; replicas];
    let mut kill_at: HashMap<usize, u64> = HashMap::new();
    let mut recovery_steps = Vec::new();
    let mut corrupted_reloads = 0u64;
    let mut faults = Vec::new();
    while !replay.is_finished() {
        let stats = router.stats();
        for (i, (_, snap)) in stats.replicas.iter().enumerate().take(replicas) {
            if snap.decode_steps < lasts[i] {
                bases[i] += lasts[i];
            }
            lasts[i] = snap.decode_steps;
        }
        let vstep: u64 = bases.iter().sum::<u64>() + lasts.iter().sum::<u64>();

        while next_event < events.len() && events[next_event].step <= vstep {
            let mut event = events[next_event];
            next_event += 1;
            if let FaultKind::KvSqueeze {
                replica,
                ref mut blocks,
                ..
            } = event.kind
            {
                let floor = cluster.pool(replica).blocks_for(max_seq);
                *blocks = (*blocks).max(floor);
            }
            let applied = cluster.apply_fault(&event);
            match applied {
                FaultApplied::Killed { replica } => {
                    kill_at.insert(replica, vstep);
                }
                FaultApplied::KvSqueezed {
                    replica,
                    previous_blocks,
                } => {
                    if let FaultKind::KvSqueeze { restore_after, .. } = event.kind {
                        restores.push((
                            vstep + restore_after,
                            Instant::now() + Duration::from_millis(500),
                            replica,
                            previous_blocks,
                        ));
                    }
                }
                FaultApplied::Deferred => {
                    bitflip[event.kind.replica()] = true;
                }
                _ => {}
            }
            faults.push(AppliedFault {
                at_step: vstep,
                event,
                applied,
            });
        }

        restores.retain(|&(due, wall_deadline, replica, cap)| {
            if vstep >= due || Instant::now() >= wall_deadline {
                cluster.pool(replica).set_max_blocks(cap);
                false
            } else {
                true
            }
        });

        for action in supervisor.tick(&stats) {
            match action {
                SupervisorAction::OpenBreaker { replica } => {
                    router.set_dispatch_gate(replica, false);
                }
                SupervisorAction::HalfOpenBreaker { replica }
                | SupervisorAction::CloseBreaker { replica } => {
                    router.set_dispatch_gate(replica, true);
                }
                SupervisorAction::DrainReplica { replica } => {
                    let _ = cluster.drain(replica);
                }
                SupervisorAction::RespawnReplica { replica } => {
                    if bitflip[replica] {
                        bitflip[replica] = false;
                        if build(true).is_err() {
                            corrupted_reloads += 1;
                        }
                    }
                    if let Ok(model) = build(false) {
                        cluster.respawn(replica, model);
                        router.set_dispatch_gate(replica, true);
                        if let Some(killed) = kill_at.remove(&replica) {
                            recovery_steps.push(vstep.saturating_sub(killed));
                        }
                    }
                }
                SupervisorAction::SetDegradeLevel { level } => {
                    router.set_degrade_level(level, vstep);
                }
            }
        }
        std::thread::sleep(edkm_cluster::supervisor::HEARTBEAT_INTERVAL);
    }
    let lossy = replay.join().expect("chaos replay thread");

    // Any squeeze still pending restoration is undone now, so the
    // capacity audit below checks real recovery, not scheduling luck.
    for (_, _, replica, cap) in restores.drain(..) {
        cluster.pool(replica).set_max_blocks(cap);
    }

    let survivors: Vec<&RequestOutcome> = lossy
        .outcomes
        .iter()
        .filter(|o| !o.finish.is_aborted())
        .collect();
    let survivors_bit_identical = survivors
        .iter()
        .all(|o| reference.get(&o.id).is_some_and(|t| *t == o.tokens));
    let pools_at_baseline = (0..replicas).all(|r| {
        let pool = cluster.pool(r);
        pool.blocks_in_use() == pool.prefix_cached_blocks() && pool.max_blocks() == baseline_caps[r]
    });

    let good_tokens: u64 = survivors.iter().map(|o| o.generated as u64).sum();
    let survivors = survivors.len();
    recovery_steps.sort_unstable();
    let cluster_stats = router.stats();
    let degrade_events = cluster_stats.degrade_events.clone();
    let unrecovered_kills = kill_at.len() as u64;
    cluster.shutdown();

    ChaosReplayReport {
        plan_fingerprint: plan.fingerprint(),
        trace_fingerprint: trace.fingerprint(),
        outcomes: lossy.outcomes,
        shed: lossy.shed,
        lost: lossy.lost,
        index_violations: lossy.index_violations,
        survivors,
        survivors_bit_identical,
        pools_at_baseline,
        corrupted_reloads,
        recovery_steps,
        unrecovered_kills,
        degrade_events,
        faults,
        goodput_tok_s: good_tokens as f64 / lossy.wall_secs.max(1e-9),
        wall_secs: lossy.wall_secs,
        cluster: cluster_stats,
    }
}

/// Audit a [`ChaosReplayReport`] against the robustness gate, returning
/// every violated invariant as a human-readable line (empty = pass).
pub fn audit_invariants(report: &ChaosReplayReport) -> Vec<String> {
    let mut violations = Vec::new();
    if !report.lost.is_empty() {
        violations.push(format!("requests lost: {:?}", report.lost));
    }
    if report.index_violations > 0 {
        violations.push(format!(
            "token index violations (duplicate or skipped): {}",
            report.index_violations
        ));
    }
    if !report.survivors_bit_identical {
        violations.push("survivor token streams diverge from the undisturbed run".into());
    }
    if !report.pools_at_baseline {
        violations.push("a KV pool did not drain to its ledger baseline".into());
    }
    for o in &report.outcomes {
        if o.finish == FinishReason::Cancelled {
            violations.push(format!("request {} was cancelled by the fault path", o.id));
        }
    }
    violations
}
