//! Deterministic-replay contract of the workload layer: a seed names a
//! trace byte-for-byte, and replaying a trace is a pure function of
//! `(model, trace, max_batch)` — identical token streams and aggregate
//! counters across runs, batch caps, and engine worker interleavings.

use edkm::chaos::{FaultPlan, FaultProfile};
use edkm::cluster::{Cluster, ClusterConfig};
use edkm::core::{token_fingerprint, CompressSpec, EngineConfig, KvBlockConfig, PalettizedModel};
use edkm::nn::{LlamaConfig, LlamaModel};
use edkm::tensor::{runtime, DType, Device};
use edkm::workload::{
    replay_cluster, replay_engine, replay_router, replay_trace, replay_trace_speculative,
    ClusterReplayConfig, EngineReplayConfig, Trace, TraceConfig, TraceKind,
};

fn model_config() -> LlamaConfig {
    LlamaConfig {
        vocab: 64,
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        max_seq: 48,
    }
}

/// A tiny palettized model (untrained — replay determinism is a property
/// of the serving stack, not of model quality).
fn tiny_model() -> PalettizedModel {
    let dense = LlamaModel::new(model_config(), DType::Bf16, Device::Cpu, 0);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    PalettizedModel::from_dense(&dense, &spec).expect("servable export")
}

fn trace_for(kind: TraceKind, seed: u64) -> Trace {
    let cfg = model_config();
    Trace::generate(&TraceConfig::new(kind, seed, 10, cfg.vocab, cfg.max_seq))
}

#[test]
fn same_seed_traces_are_byte_identical() {
    for kind in TraceKind::ALL {
        let a = trace_for(kind, 42);
        let b = trace_for(kind, 42);
        assert_eq!(a.to_bytes(), b.to_bytes(), "{kind}: same seed diverged");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = trace_for(kind, 43);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "{kind}: different seeds must name different traces"
        );
    }
}

/// Fingerprints are identities that logs, bench records and routers
/// compare across runs and builds, so their bits are pinned: a change to
/// the hash or to the byte encodings it covers shows up here.
#[test]
fn fingerprints_are_pinned() {
    assert_eq!(
        trace_for(TraceKind::Mixed, 42).fingerprint(),
        0x00f9_c30d_af6f_9fb7
    );
    assert_eq!(
        FaultPlan::generate(FaultProfile::ReplicaChurn, 7, 4, 400).fingerprint(),
        0x9dcc_d3e3_20c9_886e
    );
    assert_eq!(token_fingerprint(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
}

#[test]
fn step_replay_is_deterministic_across_runs() {
    runtime::reset();
    let model = tiny_model();
    for kind in TraceKind::ALL {
        let trace = trace_for(kind, 42);
        // A bounded pool keeps the preemption path in the replayed set too.
        let per_req = trace.max_tokens_per_request().div_ceil(8);
        let bounded = model.clone().with_kv_config(KvBlockConfig {
            block_tokens: 8,
            max_blocks: per_req * 3,
        });
        let a = replay_trace(&bounded, &trace, 4);
        let b = replay_trace(&bounded, &trace, 4);
        assert_eq!(
            a, b,
            "{kind}: two replays of the same trace must agree on every \
             token, finish reason, TTFT, and counter"
        );
        assert_eq!(a.counters.submitted, trace.requests().len() as u64);
    }
}

#[test]
fn tokens_and_counters_are_identical_across_batch_caps() {
    runtime::reset();
    let model = tiny_model();
    // Deadline-free kinds: every request finishes naturally at any batch
    // cap, so the full outcome set must be batch-independent.
    for kind in [TraceKind::Bursty, TraceKind::Chat, TraceKind::Summarize] {
        let trace = trace_for(kind, 7);
        let baseline = replay_trace(&model, &trace, 2);
        for max_batch in [4usize, 8] {
            let run = replay_trace(&model, &trace, max_batch);
            assert_eq!(run.outcomes.len(), baseline.outcomes.len());
            for (a, b) in run.outcomes.iter().zip(&baseline.outcomes) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.tokens, b.tokens,
                    "{kind}: request {} tokens changed with batch cap {max_batch}",
                    a.id
                );
                assert_eq!(a.finish, b.finish);
            }
            assert_eq!(run.counters.submitted, baseline.counters.submitted);
            assert_eq!(run.counters.finished, baseline.counters.finished);
            assert_eq!(run.counters.expired, 0);
            assert_eq!(
                run.counters.tokens_generated,
                baseline.counters.tokens_generated
            );
        }
    }
}

/// Chat-trace regression for prefix sharing: multi-turn sessions replay
/// their history, so with the prefix cache on later turns adopt the
/// earlier turn's KV blocks copy-on-write. Tokens must not move at all;
/// the cache must actually engage (`prefix_hit_rate > 0`) and concurrent
/// turns mapping the same physical blocks must lower the deduplicated
/// peak KV footprint strictly below the private-blocks replay.
#[test]
fn chat_trace_prefix_sharing_reuses_blocks_without_changing_tokens() {
    runtime::reset();
    let cfg = model_config();
    let model = tiny_model();
    // Enough sessions that turns sharing a history overlap in flight at
    // the peak step (a handful of sessions rarely line that up).
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        11,
        24,
        cfg.vocab,
        cfg.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 8,
        max_blocks: 0,
    };
    let off = replay_trace(&model.clone().with_kv_config(kv), &trace, 8);
    let on = replay_trace(
        &model.clone().with_kv_config(kv).with_prefix_cache(true),
        &trace,
        8,
    );

    assert_eq!(off.outcomes.len(), on.outcomes.len());
    for (a, b) in off.outcomes.iter().zip(&on.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.tokens, b.tokens,
            "prefix sharing changed tokens of request {}",
            a.id
        );
        assert_eq!(a.finish, b.finish);
    }
    assert_eq!(off.counters.prefix_hits, 0);
    assert!(
        on.counters.prefix_hit_rate() > 0.0,
        "chat trace must hit the prefix cache (hits {})",
        on.counters.prefix_hits
    );
    assert!(
        on.counters.prefix_tokens_reused >= on.counters.prefix_hits * kv.block_tokens as u64,
        "every hit adopts at least one full block"
    );
    assert!(
        on.counters.kv_peak_bytes < off.counters.kv_peak_bytes,
        "sharing must strictly lower peak KV ({} vs {})",
        on.counters.kv_peak_bytes,
        off.counters.kv_peak_bytes
    );
}

/// The speculative replay driver is greedy-exact: a 2-bit draft proposing
/// 4 tokens per step leaves every chat-trace token and finish reason
/// unchanged, while the speculation counters record real work.
#[test]
fn speculative_chat_replay_is_token_identical_to_plain_replay() {
    runtime::reset();
    let model = tiny_model();
    let dense = LlamaModel::new(model_config(), DType::Bf16, Device::Cpu, 0);
    let draft = std::sync::Arc::new(
        PalettizedModel::draft_from_dense(&dense, 2).expect("2-bit draft export"),
    );
    let trace = trace_for(TraceKind::Chat, 11);
    let plain = replay_trace(&model, &trace, 4);
    let spec = replay_trace_speculative(&model, &trace, 4, draft, 4);
    assert_eq!(plain.outcomes.len(), spec.outcomes.len());
    for (a, b) in plain.outcomes.iter().zip(&spec.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.tokens, b.tokens,
            "speculation changed tokens of request {}",
            a.id
        );
        assert_eq!(a.finish, b.finish);
    }
    assert_eq!(plain.counters.spec_proposed, 0);
    assert!(spec.counters.spec_proposed > 0, "draft never proposed");
    assert!(
        spec.counters.spec_accepted <= spec.counters.spec_proposed,
        "cannot accept more than proposed"
    );
    // Fewer target forwards for the same tokens is the whole point.
    assert!(
        spec.counters.decode_steps <= plain.counters.decode_steps,
        "speculation must not add target steps ({} vs {})",
        spec.counters.decode_steps,
        plain.counters.decode_steps
    );
}

#[test]
fn engine_replay_matches_step_replay_across_worker_interleavings() {
    runtime::reset();
    let model = tiny_model();
    let trace = trace_for(TraceKind::Chat, 11);
    let step = replay_trace(&model, &trace, 4);

    // Two engine shapes: different batch caps and admission capacities
    // change thread interleavings and queue pressure, never tokens.
    for (max_batch, queue_capacity) in [(4usize, 10usize), (8, 2)] {
        let eng = replay_engine(
            model.clone(),
            &trace,
            EngineReplayConfig {
                max_batch,
                queue_capacity,
            },
        );
        assert_eq!(eng.outcomes.len(), step.outcomes.len());
        for (e, s) in eng.outcomes.iter().zip(&step.outcomes) {
            assert_eq!(e.id, s.id);
            assert_eq!(
                e.tokens, s.tokens,
                "engine (batch {max_batch}, queue {queue_capacity}) diverged \
                 from the virtual-clock replay on request {}",
                e.id
            );
        }
        assert_eq!(eng.counters.submitted, step.counters.submitted);
        assert_eq!(eng.counters.finished, step.counters.finished);
        assert_eq!(eng.counters.cancelled, 0);
        assert_eq!(eng.counters.expired, 0);
        assert_eq!(
            eng.counters.tokens_generated,
            step.counters.tokens_generated
        );
        assert_eq!(eng.stats.kv_live_bytes, 0, "drained engine leaked KV");
    }
}

#[test]
fn cluster_replay_is_token_identical_to_engine_replay_at_any_replica_count() {
    runtime::reset();
    let model = tiny_model();
    let trace = trace_for(TraceKind::Chat, 42);
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let cfg = EngineReplayConfig {
        max_batch: 4,
        queue_capacity: trace.requests().len(),
    };
    let bare = replay_engine(
        model.clone().with_kv_config(kv).with_prefix_cache(true),
        &trace,
        cfg,
    );
    for replicas in [1usize, 2, 4] {
        let fleet: Vec<PalettizedModel> = (0..replicas)
            .map(|_| model.clone().with_kv_config(kv).with_prefix_cache(true))
            .collect();
        let rep = replay_cluster(
            fleet,
            &trace,
            ClusterReplayConfig {
                engine: cfg,
                affinity: true,
            },
        );
        assert_eq!(rep.outcomes.len(), bare.outcomes.len());
        for (c, b) in rep.outcomes.iter().zip(&bare.outcomes) {
            assert_eq!(c.id, b.id);
            assert_eq!(
                c.tokens, b.tokens,
                "{replicas}-replica cluster diverged from the bare engine \
                 on request {}",
                c.id
            );
        }
    }
}

#[test]
fn affinity_routing_lowers_fleet_resident_kv_peak() {
    runtime::reset();
    let model = tiny_model();
    let cfg = model_config();
    // Enough chat sessions that placement matters.
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        7,
        24,
        cfg.vocab,
        cfg.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let run = |affinity: bool| -> (usize, f64) {
        let fleet: Vec<PalettizedModel> = (0..4)
            .map(|_| model.clone().with_kv_config(kv).with_prefix_cache(true))
            .collect();
        let cluster = Cluster::new(
            fleet,
            ClusterConfig {
                engine: EngineConfig {
                    max_batch: 8,
                    queue_capacity: trace.requests().len(),
                },
                affinity,
                ..ClusterConfig::default()
            },
        );
        let rep = replay_router(&cluster.handle(), &trace);
        let peak = cluster.resident_peak_bytes();
        cluster.shutdown();
        (peak, rep.cluster.affinity_hit_rate())
    };
    let (peak_on, hit_rate) = run(true);
    let (peak_off, _) = run(false);
    assert!(hit_rate > 0.0, "chat turns should rediscover their replica");
    assert!(
        peak_on < peak_off,
        "sticky sessions dedup their history into one radix index, so the \
         fleet must hold strictly less resident KV with affinity on \
         ({peak_on} B) than off ({peak_off} B)"
    );
}
